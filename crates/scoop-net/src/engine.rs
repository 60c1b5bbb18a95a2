//! The discrete-event simulation engine.
//!
//! An [`Engine`] owns a [`Topology`], a [`LinkModel`], and one application
//! state machine per node (anything implementing [`NodeLogic`]). Nodes
//! interact with the world only through the [`NodeCtx`] handed to their
//! callbacks: they can transmit packets (unicast with link-layer
//! acknowledgement and bounded retransmission, or local broadcast) and arm
//! one-shot timers. Like a TinyOS event handler's, each such call takes
//! effect as it is made: the engine lends the callback its node and the
//! network beside it, so a send rolls loss and is queued, and a timer is
//! queued, before the call returns. All transmissions are counted in
//! [`NetworkStats`] per node and per [`MessageKind`], because the paper's
//! evaluation metric is the number of messages sent.
//!
//! The link model is fixed once the engine is built, so the set of
//! transmitters each node can hear is fixed too. When a run starts, the
//! engine transposes the link rows once: it hands every node the ascending
//! list of its transmitters ([`NodeLogic::on_senders`]) and keeps, beside
//! each row entry `src → l`, the index of `src` in `l`'s list. Every delivery
//! carries that index ([`NodeCtx::sender_slot`]), so a node that keeps
//! per-sender state in the announced order finds it without a search.

use crate::event::{Event, EventQueue};
use crate::fault::FaultSchedule;
use crate::link::LinkModel;
use crate::packet::{LinkDst, Packet, PacketMeta};
use crate::stats::NetworkStats;
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scoop_types::{MessageKind, NodeId, ScoopError, SeqNo, SimDuration, SimTime};

/// Opaque token identifying a timer set by a node.
pub type TimerToken = u32;

/// Application logic running on every node (including the basestation).
///
/// Implementations are purely event-driven: the engine calls these hooks and
/// the node reacts through the [`NodeCtx`], whose sends and timers take
/// effect as they are made.
pub trait NodeLogic {
    /// Application payload carried by packets.
    type Payload: Clone;

    /// Called once, at simulation start and before any `on_init`, with the
    /// ascending list of every node whose transmissions this node's radio
    /// can hear. A delivery's [`NodeCtx::sender_slot`] is its sender's index
    /// in this list. The default ignores it.
    fn on_senders(&mut self, senders: &[NodeId]) {
        let _ = senders;
    }

    /// Called once, at simulation start.
    fn on_init(&mut self, ctx: &mut NodeCtx<'_, Self::Payload>);

    /// Called when a packet arrives at this node's radio. `addressed` is
    /// `true` if the packet was unicast to this node or broadcast; `false`
    /// if the node merely overheard a unicast meant for someone else.
    ///
    /// The engine itself only calls [`NodeLogic::on_packet_ref`]; this
    /// by-value form is what that method's default hands a clone to.
    fn on_packet(
        &mut self,
        ctx: &mut NodeCtx<'_, Self::Payload>,
        packet: Packet<Self::Payload>,
        addressed: bool,
    );

    /// [`NodeLogic::on_packet`] on a borrowed packet: every listener of one
    /// transmission is shown the same queued packet, so an implementation
    /// that overrides this pays no per-listener clone. The default clones
    /// and calls `on_packet`.
    fn on_packet_ref(
        &mut self,
        ctx: &mut NodeCtx<'_, Self::Payload>,
        packet: &Packet<Self::Payload>,
        addressed: bool,
    ) {
        self.on_packet(ctx, packet.clone(), addressed);
    }

    /// Called when a timer armed through [`NodeCtx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Self::Payload>, token: TimerToken);
}

/// Engine configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// Seed for link-loss sampling and any other engine-level randomness.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { seed: 1 }
    }
}

/// Maximum link-layer retransmissions for a unicast packet (the original
/// transmission is not counted as a retry). TinyOS's default queued-send
/// behaviour retries a small number of times.
const MAX_UNICAST_RETRIES: u32 = 3;

/// Time occupied by a single transmission attempt (channel access, air time,
/// and ack). On a Mica2-class radio a full packet exchange takes a few tens
/// of milliseconds.
const TX_SLOT: SimDuration = SimDuration::from_millis(30);

/// The interface a node uses to act on the world from inside a callback.
/// Each call takes effect as it is made: a send is on the air, and a timer
/// in the queue, before the call returns.
pub struct NodeCtx<'a, P> {
    node: NodeId,
    sender_slot: usize,
    net: &'a mut Network<P>,
}

/// The [`NodeCtx::sender_slot`] of a callback that is not a delivery.
const NO_SLOT: usize = usize::MAX;

impl<P: Clone> NodeCtx<'_, P> {
    /// The node this context belongs to.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now
    }

    /// Inside [`NodeLogic::on_packet_ref`], the index of the packet's
    /// link-layer sender in the list this node was given by
    /// [`NodeLogic::on_senders`]; `usize::MAX`, which indexes no list, in
    /// any other callback.
    pub fn sender_slot(&self) -> usize {
        self.sender_slot
    }

    /// Returns `true` if this node is the basestation.
    pub fn is_basestation(&self) -> bool {
        self.node.is_basestation()
    }

    /// Sends a new application message as a unicast to `dst`.
    ///
    /// `origin_parent` should be the sender's current routing-tree parent;
    /// it travels in the header so the basestation can learn the tree.
    pub fn send_unicast(
        &mut self,
        dst: NodeId,
        kind: MessageKind,
        origin_parent: Option<NodeId>,
        payload: P,
    ) {
        self.send(LinkDst::Unicast(dst), kind, origin_parent, payload);
    }

    /// Sends a new application message as a local broadcast.
    pub fn send_broadcast(&mut self, kind: MessageKind, origin_parent: Option<NodeId>, payload: P) {
        self.send(LinkDst::Broadcast, kind, origin_parent, payload);
    }

    fn send(&mut self, dst: LinkDst, kind: MessageKind, origin_parent: Option<NodeId>, payload: P) {
        let meta = PacketMeta {
            link_src: self.node,
            link_dst: dst,
            origin: self.node,
            origin_parent,
            seqno: self.net.seqnos[self.node.index()],
            kind,
            hops: 0,
        };
        self.net.transmit(self.node, Packet { meta, payload });
    }

    /// Forwards an existing packet towards `dst`, preserving its origin
    /// fields and payload (multihop routing).
    pub fn forward(&mut self, packet: Packet<P>, dst: LinkDst) {
        let seq = self.net.seqnos[self.node.index()];
        let packet = packet.forwarded(self.node, dst, seq);
        self.net.transmit(self.node, packet);
    }

    /// Arms a one-shot timer that fires after `delay`; `token` is handed back
    /// to [`NodeLogic::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let node = self.node;
        let at = self.net.now + delay;
        self.net.queue.push(at, Event::TimerFire { node, token });
    }
}

/// Everything a node callback acts on: the radio (links, loss randomness,
/// faults, sequence numbers), the event queue, the clock and the counters.
/// The engine lends it to one [`NodeCtx`] at a time, beside the node.
struct Network<P> {
    links: LinkModel,
    queue: EventQueue<P>,
    now: SimTime,
    stats: NetworkStats,
    seqnos: Vec<SeqNo>,
    rng: StdRng,
    faults: FaultSchedule,
}

/// The discrete-event simulator.
pub struct Engine<L: NodeLogic> {
    topology: Topology,
    nodes: Vec<L>,
    net: Network<L::Payload>,
    /// For each link entry `src → l` (indexed as [`LinkModel::row_start`]
    /// lays them out), the index of `src` in the list of `l`'s transmitters
    /// handed to `l` at start: a delivery's [`NodeCtx::sender_slot`]. Empty
    /// until the run starts.
    sender_slot: Vec<u16>,
    started: bool,
    events_processed: u64,
}

impl<L: NodeLogic> Engine<L> {
    /// Creates an engine over `topology` / `links` with one `NodeLogic`
    /// instance per node. `nodes[i]` runs on node id `i` (node 0 is the
    /// basestation).
    pub fn new(
        topology: Topology,
        links: LinkModel,
        nodes: Vec<L>,
        config: EngineConfig,
    ) -> Result<Self, ScoopError> {
        if nodes.len() != topology.len() {
            return Err(ScoopError::Simulation(format!(
                "expected {} node logic instances, got {}",
                topology.len(),
                nodes.len()
            )));
        }
        if links.len() != topology.len() {
            return Err(ScoopError::Simulation(
                "link model and topology disagree on node count".into(),
            ));
        }
        let n = topology.len();
        // Pre-size the timer heap by expected density, not a blanket
        // multiple of the node count: steady state carries a few armed
        // timers per node, so a handful of slots per node covers warm-up for
        // typical runs while the heap still grows on demand for denser
        // workloads — capacity is recycled across `run_until` calls and
        // plateaus either way (asserted by the zero-allocation gate). The cap
        // keeps a 32k-node engine from reserving a heap of 100k+ slots up
        // front. Arrivals are one entry per 32-listener word of each
        // transmission attempt in flight, which stays small at any scale:
        // the paper's 62-node run peaks at 54 pending, HASH grids with a
        // 90-s warm-up at 92 (1,024 sensors), 116 (4,095) and 151 (32,767);
        // a 1,024-sensor SCOOP grid's dissemination bursts reach 393 and
        // grow the heap on demand.
        let timer_cap = (4 * n + 64).min(16_384);
        const ARRIVALS_CAP: usize = 256;
        Ok(Engine {
            topology,
            nodes,
            net: Network {
                links,
                queue: EventQueue::with_capacity(timer_cap, ARRIVALS_CAP),
                now: SimTime::ZERO,
                stats: NetworkStats::new(n),
                seqnos: vec![SeqNo::default(); n],
                rng: StdRng::seed_from_u64(config.seed ^ 0xe4e4_e4e4),
                faults: FaultSchedule::empty(),
            },
            sender_slot: Vec::new(),
            started: false,
            events_processed: 0,
        })
    }

    /// Installs a radio-outage schedule (see [`FaultSchedule`]). The empty
    /// schedule — the default — leaves behavior byte-identical to an engine
    /// without faults.
    pub fn set_fault_schedule(&mut self, faults: FaultSchedule) {
        self.net.faults = faults;
    }

    /// The installed radio-outage schedule.
    pub fn fault_schedule(&self) -> &FaultSchedule {
        &self.net.faults
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now
    }

    /// The topology the engine runs over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The link model the engine samples loss from.
    pub fn links(&self) -> &LinkModel {
        &self.net.links
    }

    /// Transmission / reception statistics collected so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.net.stats
    }

    /// Number of entries currently waiting in the queue (diagnostics): one
    /// per pending timer and one per 32-listener word of each transmission
    /// attempt in flight — not one per delivery, so this is smaller than the
    /// number of callbacks still to come.
    pub fn pending_events(&self) -> usize {
        self.net.queue.len()
    }

    /// Total number of events dispatched so far (diagnostics): timers and
    /// packet *deliveries* — a transmission heard by twelve listeners counts
    /// twelve, however it was queued.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Current allocated capacity of the event queue (diagnostics), in queue
    /// entries as [`Engine::pending_events`] counts them. Once the simulation
    /// reaches steady state this must stop growing: the backing storage is
    /// recycled across `run_until` calls.
    pub fn queue_capacity(&self) -> usize {
        self.net.queue.capacity()
    }

    /// Immutable access to a node's application state.
    pub fn node(&self, id: NodeId) -> &L {
        &self.nodes[id.index()]
    }

    /// Iterates over `(node id, node logic)` pairs.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &L)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u16), n))
    }

    /// Runs the simulation until simulated time `t` (inclusive of events
    /// scheduled exactly at `t`).
    pub fn run_until(&mut self, t: SimTime) {
        if !self.started {
            self.started = true;
            self.announce_senders();
            for i in 0..self.nodes.len() {
                self.with_ctx(NodeId(i as u16), NO_SLOT, |node, ctx| node.on_init(ctx));
            }
        }
        while let Some(next) = self.net.queue.peek_time() {
            if next > t {
                break;
            }
            // Invariant: `peek_time` just returned `Some`, and nothing runs
            // between it and the pop. A comment, not a branch: this is the
            // dispatch loop.
            let (time, event) = self.net.queue.pop().expect("peeked event must exist");
            self.net.now = time;
            self.dispatch(event);
        }
        if t > self.net.now {
            self.net.now = t;
        }
    }

    /// Transposes the link rows: hands every node the ascending list of its
    /// transmitters and fills `sender_slot`. Run once, at start rather than
    /// in [`Engine::new`], so that building an engine costs nothing for it.
    fn announce_senders(&mut self) {
        let n = self.nodes.len();
        // Rows are walked in ascending transmitter order, so when entry
        // `src → l` is reached, the transmitters of `l` counted so far are
        // exactly those below `src`: the count is `src`'s index in `l`'s
        // ascending list.
        let mut starts = vec![0u32; n + 1];
        let links = &self.net.links;
        let mut slots = Vec::with_capacity(links.usable_link_count());
        for src in 0..n {
            for &l in links.neighbors(NodeId(src as u16)).0 {
                let count = &mut starts[l.index() + 1];
                // Fits: a listener has fewer transmitters than there are
                // `u16` node ids.
                slots.push(*count as u16);
                *count += 1;
            }
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        let mut senders = vec![NodeId(0); starts[n] as usize];
        for src in 0..n {
            let id = NodeId(src as u16);
            let row = links.row_start(id);
            for (i, &l) in links.neighbors(id).0.iter().enumerate() {
                senders[starts[l.index()] as usize + usize::from(slots[row + i])] = id;
            }
        }
        for (l, node) in self.nodes.iter_mut().enumerate() {
            node.on_senders(&senders[starts[l] as usize..starts[l + 1] as usize]);
        }
        self.sender_slot = slots;
    }

    /// Schedules a timer event for `node` at absolute simulated time `at`
    /// from *outside* any node callback — the hook an external driver (the
    /// `scoop-serve` front end) uses to make its stimulus part of the run.
    ///
    /// The event is an ordinary [`Event::TimerFire`] pushed through the same
    /// queue as node-armed timers, so it takes its place in the
    /// deterministic `(time, seq)` order like any internal event: two runs
    /// injecting the same `(at, node, token)` sequence dispatch identically.
    /// Times in the past are clamped to `now` (the queue never travels
    /// backwards).
    pub fn inject_timer(&mut self, node: NodeId, at: SimTime, token: TimerToken) {
        let at = if at > self.net.now { at } else { self.net.now };
        self.net.queue.push(at, Event::TimerFire { node, token });
    }

    fn dispatch(&mut self, event: Event<L::Payload>) {
        match event {
            Event::Arrivals {
                first,
                mut heard,
                packet,
            } => {
                // Every set bit is one delivery, counted whether or not the
                // listener turns out to be down.
                self.events_processed += u64::from(heard.count_ones());
                let src = packet.meta.link_src;
                let target = packet.meta.link_dst.unicast_target();
                let first_entry = self.net.links.row_start(src) + usize::from(first);
                // Ascending bit order is ascending row order: the order the
                // loss rolls were made in (see the `event` module docs).
                while heard != 0 {
                    let bit = heard.trailing_zeros() as usize;
                    heard &= heard - 1;
                    let entry = first_entry + bit;
                    let node = self.net.links.listener(entry);
                    // A node whose radio is down hears nothing; the packet
                    // evaporates without touching stats or node state. Timers
                    // still fire (the CPU is alive), so a node whose outage
                    // ends rejoins with its protocol state intact.
                    if self.net.faults.is_down(node, self.net.now) {
                        continue;
                    }
                    let addressed = target.is_none_or(|dst| dst == node);
                    if addressed {
                        self.net.stats.record_rx(node, packet.meta.kind);
                    } else {
                        self.net.stats.record_snoop(node);
                    }
                    let slot = usize::from(self.sender_slot[entry]);
                    self.with_ctx(node, slot, |logic, ctx| {
                        logic.on_packet_ref(ctx, &packet, addressed)
                    });
                }
            }
            Event::TimerFire { node, token } => {
                self.events_processed += 1;
                // A halted CPU (crashed sink) fires nothing; the timer is
                // deferred to the halt's end, so a restarted node resumes its
                // periodic duties with state intact.
                if let Some(until) = self.net.faults.halted_until(node, self.net.now) {
                    self.net.queue.push(until, Event::TimerFire { node, token });
                    return;
                }
                self.with_ctx(node, NO_SLOT, |logic, ctx| logic.on_timer(ctx, token));
            }
        }
    }

    /// Runs `f` on `node` with a context over the network, whose
    /// [`NodeCtx::sender_slot`] is `sender_slot`.
    fn with_ctx<F>(&mut self, node: NodeId, sender_slot: usize, f: F)
    where
        F: FnOnce(&mut L, &mut NodeCtx<'_, L::Payload>),
    {
        let mut ctx = NodeCtx {
            node,
            sender_slot,
            net: &mut self.net,
        };
        f(&mut self.nodes[node.index()], &mut ctx);
    }
}

impl<P: Clone> Network<P> {
    /// Simulates the physical transmission of `packet` by `src`, including
    /// link-layer retransmission for unicasts.
    fn transmit(&mut self, src: NodeId, mut packet: Packet<P>) {
        // A downed radio transmits nothing: the send is swallowed without
        // counting a transmission or consuming loss randomness.
        if self.faults.is_down(src, self.now) {
            return;
        }
        let kind = packet.meta.kind;
        match packet.meta.link_dst {
            LinkDst::Broadcast => {
                packet.meta.seqno = self.bump_seq(src);
                self.stats.record_tx(src, kind);
                let arrival = self.now + TX_SLOT;
                self.air(&packet, None, arrival);
            }
            LinkDst::Unicast(dst) => {
                let max_attempts = MAX_UNICAST_RETRIES + 1;
                let mut delivered = false;
                let mut attempts_used = 0;
                while !delivered && attempts_used < max_attempts {
                    attempts_used += 1;
                    packet.meta.seqno = self.bump_seq(src);
                    self.stats.record_tx(src, kind);
                    let arrival = self.now + TX_SLOT.mul(attempts_used as u64);
                    delivered = self.air(&packet, Some(dst), arrival);
                }
                if !delivered {
                    self.stats.record_send_failure(src);
                }
            }
        }
    }

    /// Puts one transmission attempt of `packet` on the air: rolls loss for
    /// every listener of the transmitter's row and queues who heard it, one
    /// [`Event::Arrivals`] per 32-listener word, to arrive at `arrival`.
    /// `target` is the unicast destination (`None` for a broadcast); returns
    /// whether it heard the attempt, i.e. whether a unicast was acknowledged.
    ///
    /// Loss is sampled from the precomputed CSR neighbor table: the same
    /// listeners in the same ascending order, with the same pre-clamped
    /// probabilities, as the historical dense-row scan — one RNG draw per
    /// listener per attempt, so the random stream (and therefore every
    /// committed artifact) is byte-identical. Each word is rolled first,
    /// front to back, into a mask with no branch on the outcome; faults are
    /// then applied to the bits that survived the roll. The table iteration
    /// borrows `self.links` while the loop mutates the rng/queue, hence the
    /// field destructuring.
    fn air(&mut self, packet: &Packet<P>, target: Option<NodeId>, arrival: SimTime) -> bool {
        let Network {
            links,
            rng,
            queue,
            faults,
            ..
        } = self;
        let src = packet.meta.link_src;
        let mut acknowledged = false;
        let (nodes, probs) = links.neighbors(src);
        for (word, (listeners, probs)) in nodes.chunks(32).zip(probs.chunks(32)).enumerate() {
            let mut rolled = 0u32;
            for (bit, &delivery_prob) in probs.iter().enumerate() {
                rolled |= u32::from(rng.gen_bool(delivery_prob)) << bit;
            }
            // Faults apply *after* the loss roll, so scheduling one never
            // shifts the random stream of the surviving links. A unicast
            // destination whose radio is down at the arrival instant cannot
            // acknowledge, and a partition cut between the endpoints severs
            // the link: the attempt fails and the retry loop continues,
            // exactly like loss. Bystanders' outages are left to dispatch.
            let mut heard = rolled;
            while rolled != 0 {
                let bit = rolled.trailing_zeros();
                rolled &= rolled - 1;
                let listener = listeners[bit as usize];
                let is_target = target == Some(listener);
                if (is_target && faults.is_down(listener, arrival))
                    || faults.is_cut(src, listener, arrival)
                {
                    heard &= !(1 << bit);
                } else {
                    acknowledged |= is_target;
                }
            }
            if heard != 0 {
                queue.push(
                    arrival,
                    Event::Arrivals {
                        first: (word * 32) as u16,
                        heard,
                        packet: packet.clone(),
                    },
                );
            }
        }
        acknowledged
    }

    fn bump_seq(&mut self, node: NodeId) -> SeqNo {
        let s = self.seqnos[node.index()];
        self.seqnos[node.index()] = s.next();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkModel;
    use crate::topology::Topology;
    use scoop_types::LinkSpec;

    /// A tiny test application: node 0 periodically broadcasts a counter;
    /// every other node forwards any number it has not seen to its lower
    /// numbered neighbor via unicast and remembers everything it received.
    #[derive(Default)]
    struct TestApp {
        received: Vec<u32>,
        snooped: usize,
        timers: usize,
    }

    const TICK: TimerToken = 1;

    impl NodeLogic for TestApp {
        type Payload = u32;

        fn on_init(&mut self, ctx: &mut NodeCtx<'_, u32>) {
            if ctx.is_basestation() {
                ctx.set_timer(SimDuration::from_secs(1), TICK);
            }
        }

        fn on_packet(&mut self, ctx: &mut NodeCtx<'_, u32>, packet: Packet<u32>, addressed: bool) {
            if !addressed {
                self.snooped += 1;
                return;
            }
            self.received.push(packet.payload);
            // Node 2 forwards what it hears to node 1 as a unicast.
            if ctx.id() == NodeId(2) {
                ctx.send_unicast(NodeId(1), MessageKind::Data, None, packet.payload + 100);
            }
        }

        fn on_timer(&mut self, ctx: &mut NodeCtx<'_, u32>, token: TimerToken) {
            assert_eq!(token, TICK);
            self.timers += 1;
            ctx.send_broadcast(MessageKind::Heartbeat, None, self.timers as u32);
            if self.timers < 5 {
                ctx.set_timer(SimDuration::from_secs(1), TICK);
            }
        }
    }

    fn perfect_engine(n_side: usize) -> Engine<TestApp> {
        let topo = Topology::grid(n_side, 10.0).unwrap();
        let links = LinkModel::perfect(&topo);
        let nodes = (0..topo.len()).map(|_| TestApp::default()).collect();
        Engine::new(topo, links, nodes, EngineConfig::default()).unwrap()
    }

    #[test]
    fn rejects_mismatched_node_count() {
        let topo = Topology::grid(2, 10.0).unwrap();
        let links = LinkModel::perfect(&topo);
        let err = Engine::new(
            topo,
            links,
            vec![TestApp::default()],
            EngineConfig::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn broadcasts_reach_all_neighbors_on_perfect_links() {
        let mut eng = perfect_engine(2); // 4 nodes, all within range of each other
        eng.run_until(SimTime::from_secs(10));
        // Node 0 broadcast 5 heartbeats; each other node hears all 5.
        // (Node 1 additionally receives node 2's forwarded unicasts, which
        // carry values above 100, so filter those out here.)
        for i in 1..4 {
            let broadcasts = eng
                .node(NodeId(i))
                .received
                .iter()
                .filter(|&&v| v <= 100)
                .count();
            assert_eq!(broadcasts, 5, "node {i}");
        }
        assert_eq!(eng.stats().total_tx().heartbeat, 5);
        assert_eq!(eng.node(NodeId(0)).timers, 5);
    }

    #[test]
    fn unicast_is_delivered_and_acknowledged() {
        let mut eng = perfect_engine(2);
        eng.run_until(SimTime::from_secs(10));
        // Node 2 forwarded each broadcast to node 1 (values 101..=105).
        let n1: Vec<u32> = eng
            .node(NodeId(1))
            .received
            .iter()
            .copied()
            .filter(|v| *v > 100)
            .collect();
        assert_eq!(n1.len(), 5);
        assert_eq!(eng.stats().node(NodeId(2)).send_failures, 0);
        // On perfect links a unicast needs exactly one transmission.
        assert_eq!(eng.stats().node(NodeId(2)).tx.data, 5);
    }

    #[test]
    fn snooping_is_observed_by_third_parties() {
        let mut eng = perfect_engine(2);
        eng.run_until(SimTime::from_secs(10));
        // Node 3 overhears node 2's unicasts to node 1.
        assert!(eng.node(NodeId(3)).snooped >= 5);
        assert!(eng.stats().node(NodeId(3)).snooped >= 5);
    }

    #[test]
    fn lossy_unicast_retransmits_and_can_fail() {
        let topo = Topology::grid(2, 10.0).unwrap();
        let mut links = LinkModel::perfect(&topo);
        // Make the 2 -> 1 link hopeless so the retry budget is exhausted.
        links.set_link(NodeId(2), NodeId(1), 0.0);
        let nodes = (0..topo.len()).map(|_| TestApp::default()).collect();
        let mut eng = Engine::new(topo, links, nodes, EngineConfig::default()).unwrap();
        eng.run_until(SimTime::from_secs(10));
        // 5 sends × (1 + 3 retries) transmissions each.
        assert_eq!(eng.stats().node(NodeId(2)).tx.data, 20);
        assert_eq!(eng.stats().node(NodeId(2)).send_failures, 5);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let run = |seed: u64| {
            let topo = Topology::office_floor(20, 3).unwrap();
            let links = LinkModel::from_spec(&LinkSpec::legacy(), &topo, 3).unwrap();
            let nodes = (0..topo.len()).map(|_| TestApp::default()).collect();
            let mut eng = Engine::new(topo, links, nodes, EngineConfig { seed }).unwrap();
            eng.run_until(SimTime::from_secs(10));
            eng.stats().total_tx()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn injected_timers_fire_like_ordinary_events() {
        const EXTERNAL: TimerToken = 99;
        // TestApp asserts token == TICK in on_timer; use a bespoke app that
        // records what fires and when.
        struct Recorder {
            fired: Vec<(u64, TimerToken)>,
        }
        impl NodeLogic for Recorder {
            type Payload = ();
            fn on_init(&mut self, ctx: &mut NodeCtx<'_, ()>) {
                ctx.set_timer(SimDuration::from_secs(3), TICK);
            }
            fn on_packet(&mut self, _ctx: &mut NodeCtx<'_, ()>, _p: Packet<()>, _a: bool) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_, ()>, token: TimerToken) {
                self.fired.push((ctx.now().as_millis(), token));
            }
        }
        let topo = Topology::grid(2, 10.0).unwrap();
        let links = LinkModel::perfect(&topo);
        let nodes = (0..topo.len())
            .map(|_| Recorder { fired: Vec::new() })
            .collect();
        let mut eng = Engine::new(topo, links, nodes, EngineConfig::default()).unwrap();

        // Inject before the first run (queue not yet started) and between
        // runs; both must dispatch at their requested times, interleaved
        // with the node-armed timer in time order.
        eng.inject_timer(NodeId(1), SimTime::from_secs(2), EXTERNAL);
        eng.run_until(SimTime::from_secs(4));
        // A past target clamps to `now` instead of running backwards.
        eng.inject_timer(NodeId(1), SimTime::from_secs(1), EXTERNAL);
        eng.run_until(SimTime::from_secs(10));

        assert_eq!(
            eng.node(NodeId(1)).fired,
            vec![(2_000, EXTERNAL), (3_000, TICK), (4_000, EXTERNAL)]
        );
        // Other nodes saw only their own armed timer.
        assert_eq!(eng.node(NodeId(2)).fired, vec![(3_000, TICK)]);
    }

    #[test]
    fn time_advances_to_run_until_target() {
        let mut eng = perfect_engine(2);
        eng.run_until(SimTime::from_secs(42));
        assert_eq!(eng.now(), SimTime::from_secs(42));
        // Running backwards is a no-op, not a panic.
        eng.run_until(SimTime::from_secs(10));
        assert_eq!(eng.now(), SimTime::from_secs(42));
        eng.run_until(SimTime::from_secs(50));
        assert_eq!(eng.now(), SimTime::from_secs(50));
    }

    #[test]
    fn partition_severs_cross_side_delivery_and_heals() {
        // Grid of 4, all in range: node 0 broadcasts every second. Cut node
        // 3 away during [1.5s, 3.5s): it must miss exactly the broadcasts
        // sent at 2s and 3s while nodes 1 and 2 hear everything.
        let mut eng = perfect_engine(2);
        let mut faults = FaultSchedule::empty();
        faults.add_partition(
            SimTime::from_millis(1_500),
            SimTime::from_millis(3_500),
            vec![false, false, false, true],
        );
        eng.set_fault_schedule(faults);
        eng.run_until(SimTime::from_secs(10));

        let broadcasts = |i: u16| {
            eng.node(NodeId(i))
                .received
                .iter()
                .filter(|&&v| v <= 100)
                .copied()
                .collect::<Vec<u32>>()
        };
        assert_eq!(broadcasts(1), vec![1, 2, 3, 4, 5]);
        assert_eq!(broadcasts(2), vec![1, 2, 3, 4, 5]);
        assert_eq!(
            broadcasts(3),
            vec![1, 4, 5],
            "cut side misses exactly the in-window broadcasts"
        );
    }

    #[test]
    fn partition_fails_unicast_attempts_like_loss() {
        // Node 2 forwards each broadcast it hears to node 1 as a unicast.
        // Cutting {1} away from everyone makes those unicasts fail (after
        // retries) while node 2 keeps hearing the broadcasts.
        let mut eng = perfect_engine(2);
        let mut faults = FaultSchedule::empty();
        faults.add_partition(
            SimTime::ZERO,
            SimTime::from_secs(100),
            vec![false, true, false, false],
        );
        eng.set_fault_schedule(faults);
        eng.run_until(SimTime::from_secs(10));
        assert_eq!(eng.node(NodeId(1)).received, Vec::<u32>::new());
        // Every one of the 5 sends spends its whole retry budget and fails.
        assert_eq!(eng.stats().node(NodeId(2)).send_failures, 5);
        assert_eq!(eng.stats().node(NodeId(2)).tx.data, 20);
    }

    #[test]
    fn halted_nodes_defer_timers_to_the_window_end() {
        // Node 0's heartbeat timer ticks once per second from 1s. Halting
        // its CPU during [1.5s, 4.5s) defers the 2s tick to 4.5s; the chain
        // then resumes (each tick re-arms +1s), so ticks land at 1, 4.5,
        // 5.5, 6.5, 7.5 seconds — still five in total.
        let mut eng = perfect_engine(2);
        let mut faults = FaultSchedule::empty();
        faults.add_halt(
            NodeId(0),
            SimTime::from_millis(1_500),
            SimTime::from_millis(4_500),
        );
        eng.set_fault_schedule(faults);
        eng.run_until(SimTime::from_secs(10));
        assert_eq!(eng.node(NodeId(0)).timers, 5, "no tick is lost");
        // Every other node still hears all five broadcasts.
        for i in 1..4 {
            let broadcasts = eng
                .node(NodeId(i))
                .received
                .iter()
                .filter(|&&v| v <= 100)
                .count();
            assert_eq!(broadcasts, 5, "node {i}");
        }
    }

    #[test]
    fn empty_new_fault_kinds_leave_runs_byte_identical() {
        // A schedule with no cuts or halts must not perturb anything —
        // including the RNG stream — relative to no schedule at all.
        let mut plain = perfect_engine(2);
        plain.run_until(SimTime::from_secs(10));
        let mut scheduled = perfect_engine(2);
        scheduled.set_fault_schedule(FaultSchedule::empty());
        scheduled.run_until(SimTime::from_secs(10));
        for i in 0..4 {
            assert_eq!(
                plain.node(NodeId(i)).received,
                scheduled.node(NodeId(i)).received
            );
        }
        assert_eq!(plain.events_processed(), scheduled.events_processed());
    }
}
