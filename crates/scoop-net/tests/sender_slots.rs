//! The sender slot of every link: when a run starts, each node is handed the
//! ascending list of the transmitters it can hear, and every delivery names
//! its sender's index in that list. Checked here on every row entry
//! `src → l` of an office floor, a grid, a field whose rows span several
//! 32-listener words, and a model edited by `set_link` before the engine is
//! built: the announced list of `l` is exactly its transmitters, ascending,
//! and every delivery from `src` to `l` carries the index of `src` in it.

use scoop_net::{
    Engine, EngineConfig, LinkModel, NodeCtx, NodeLogic, NodePosition, Packet, TimerToken,
    Topology, TopologyKind,
};
use scoop_types::{LinkSpec, MessageKind, NodeId, SimDuration, SimTime};

const TICK: TimerToken = 1;

/// Broadcasts every 200 ms and records what the engine told it.
#[derive(Default)]
struct Announced {
    /// The list `on_senders` handed over; `None` before it was called.
    senders: Option<Vec<NodeId>>,
    /// Whether each announced sender was heard at its slot.
    heard: Vec<bool>,
}

impl NodeLogic for Announced {
    type Payload = ();

    fn on_senders(&mut self, senders: &[NodeId]) {
        assert!(self.senders.is_none(), "senders announced twice");
        self.senders = Some(senders.to_vec());
        self.heard = vec![false; senders.len()];
    }

    fn on_init(&mut self, ctx: &mut NodeCtx<'_, ()>) {
        assert!(self.senders.is_some(), "on_init ran before on_senders");
        assert_eq!(ctx.sender_slot(), usize::MAX);
        ctx.set_timer(SimDuration::from_millis(1 + u64::from(ctx.id().0)), TICK);
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_, ()>, packet: Packet<()>, addressed: bool) {
        self.on_packet_ref(ctx, &packet, addressed);
    }

    fn on_packet_ref(&mut self, ctx: &mut NodeCtx<'_, ()>, packet: &Packet<()>, _: bool) {
        let slot = ctx.sender_slot();
        let senders = self.senders.as_deref().unwrap_or_default();
        assert_eq!(
            senders.get(slot),
            Some(&packet.meta.link_src),
            "node {} got a delivery at slot {slot}",
            ctx.id()
        );
        self.heard[slot] = true;
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, ()>, _: TimerToken) {
        assert_eq!(ctx.sender_slot(), usize::MAX);
        ctx.send_broadcast(MessageKind::Heartbeat, None, ());
        ctx.set_timer(SimDuration::from_millis(200), TICK);
    }
}

/// Runs every node broadcasting for a simulated minute, then checks each
/// node's announced list against the transmitters of its link rows and that
/// every row entry was delivered at its slot.
fn check_every_link(topology: Topology, links: LinkModel) {
    let n = topology.len();
    // The transmitters each listener can hear, read off the rows.
    let mut expected = vec![Vec::new(); n];
    for src in (0..n).map(|i| NodeId(i as u16)) {
        for &l in links.neighbors(src).0 {
            expected[l.index()].push(src);
        }
    }
    let nodes = (0..n).map(|_| Announced::default()).collect();
    let mut engine = Engine::new(topology, links, nodes, EngineConfig { seed: 5 }).unwrap();
    engine.run_until(SimTime::from_secs(60));
    for (id, node) in engine.iter_nodes() {
        let senders = node.senders.as_deref().expect("announced");
        assert_eq!(senders, expected[id.index()], "node {id}");
        let unheard: Vec<NodeId> = senders
            .iter()
            .zip(&node.heard)
            .filter(|(_, &heard)| !heard)
            .map(|(&src, _)| src)
            .collect();
        assert!(unheard.is_empty(), "node {id} never heard {unheard:?}");
    }
}

#[test]
fn every_link_of_an_office_floor_delivers_at_its_slot() {
    let topology = Topology::office_floor(61, 3).unwrap();
    let links = LinkModel::from_spec(&LinkSpec::default(), &topology, 3).unwrap();
    check_every_link(topology, links);
}

#[test]
fn every_link_of_a_grid_delivers_at_its_slot() {
    let topology = Topology::grid(7, 10.0).unwrap();
    let links = LinkModel::from_spec(&LinkSpec::legacy(), &topology, 9).unwrap();
    check_every_link(topology, links);
}

#[test]
fn rows_spanning_several_words_deliver_at_their_slots() {
    // 8 × 8 nodes one metre apart, all in range: 63 listeners a row, so a
    // transmission is queued as two words and the second starts at row
    // index 32.
    let positions = (0..64)
        .map(|i| NodePosition {
            x: f64::from(i % 8),
            y: f64::from(i / 8),
        })
        .collect();
    let topology = Topology::from_positions(TopologyKind::Grid, positions, 16.0).unwrap();
    let links = LinkModel::perfect(&topology);
    assert_eq!(links.neighbors(NodeId(0)).0.len(), 63);
    check_every_link(topology, links);
}

#[test]
fn links_edited_before_the_engine_is_built_deliver_at_their_slots() {
    let topology = Topology::grid(6, 10.0).unwrap();
    let mut links = LinkModel::perfect(&topology);
    // One insertion between nodes out of radio range of each other, and one
    // removal of an in-range link: the listeners' lists gain and lose a
    // sender, and every later entry of both rows shifts.
    let (far, near) = (NodeId(35), NodeId(1));
    assert!(!links.listeners(far).contains(&NodeId(0)));
    assert!(links.listeners(near).contains(&NodeId(0)));
    links.set_link(far, NodeId(0), 0.5);
    links.set_link(near, NodeId(0), 0.0);
    assert!(links.listeners(far).contains(&NodeId(0)));
    assert!(!links.listeners(near).contains(&NodeId(0)));
    check_every_link(topology, links);
}
