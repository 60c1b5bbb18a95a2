//! Characterisation of the engine's delivery order: a recorder protocol logs
//! every callback the engine makes — in the order it makes them — and the
//! test folds the log, `events_processed()` and the transmission totals into
//! one digest per scenario. Any representation of a transmission must
//! reproduce the digests below exactly (same deliveries, same `(time,
//! relative order)`, same random stream, same counters).
//!
//! Two scenarios, chosen for what a batched representation could get wrong:
//!
//! * `dense_rows_…` — 100 nodes all in range of each other over lossy links,
//!   so every neighbour row has 99 listeners (four 32-bit words, the last one
//!   partial), unicast targets sit in every word, retries with snooping cross
//!   word boundaries, and callbacks inside a delivery schedule zero-delay
//!   timers and replies that must run *after* the rest of the transmission.
//! * `faults_…` — the paper's 62-node office floor under a radio outage, a
//!   partition cut and a CPU halt that open and close mid-run: a listener
//!   that is down at the arrival instant is skipped at dispatch, a cut one
//!   (and a downed unicast target) at transmit.

use scoop_net::{
    Engine, EngineConfig, FaultSchedule, LinkModel, NodeCtx, NodeLogic, NodePosition, Packet,
    TimerToken, Topology, TopologyKind,
};
use scoop_types::{LinkSpec, MessageKind, NodeId, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// The shared callback log, folded into an FNV-1a digest as it is written.
#[derive(Clone, Copy)]
struct Log {
    digest: u64,
    addressed: u64,
    snooped: u64,
    echo_timers: u64,
}

impl Log {
    fn new() -> Self {
        Log {
            digest: 0xcbf2_9ce4_8422_2325,
            addressed: 0,
            snooped: 0,
            echo_timers: 0,
        }
    }

    fn fold(&mut self, words: &[u64]) {
        for word in words {
            for byte in word.to_le_bytes() {
                self.digest ^= byte as u64;
                self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

const TICK: TimerToken = 1;
/// Armed with zero delay from inside a packet callback: it shares the
/// delivery's timestamp, so it must fire after every remaining listener of
/// the transmission that caused it.
const ECHO: TimerToken = 2;

/// Logs everything, and reacts enough to make order matter: periodic
/// broadcasts, unicasts to a far peer (every fifth node) and to the next id
/// (every third), and — from inside packet callbacks — zero-delay timers and
/// unicast replies.
struct Recorder {
    log: Rc<RefCell<Log>>,
    nodes: u16,
    ticks: u32,
}

impl NodeLogic for Recorder {
    type Payload = u32;

    fn on_init(&mut self, ctx: &mut NodeCtx<'_, u32>) {
        ctx.set_timer(SimDuration::from_millis(200 + ctx.id().0 as u64 * 13), TICK);
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_, u32>, packet: Packet<u32>, addressed: bool) {
        let me = ctx.id();
        let meta = packet.meta;
        {
            let mut log = self.log.borrow_mut();
            log.fold(&[
                1,
                ctx.now().as_millis(),
                me.0 as u64,
                meta.link_src.0 as u64,
                meta.seqno.0 as u64,
                addressed as u64,
                packet.payload as u64,
            ]);
            if addressed {
                log.addressed += 1;
            } else {
                log.snooped += 1;
            }
        }
        if !addressed {
            return;
        }
        let roll = packet.payload.wrapping_add(me.0 as u32);
        if meta.kind == MessageKind::Heartbeat {
            if roll.is_multiple_of(11) {
                ctx.set_timer(SimDuration::ZERO, ECHO);
            }
            if roll.is_multiple_of(17) {
                ctx.send_unicast(meta.link_src, MessageKind::Reply, None, roll);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, u32>, token: TimerToken) {
        let me = ctx.id();
        {
            let mut log = self.log.borrow_mut();
            log.fold(&[2, ctx.now().as_millis(), me.0 as u64, token as u64]);
            if token == ECHO {
                log.echo_timers += 1;
            }
        }
        if token != TICK {
            return;
        }
        self.ticks += 1;
        let payload = self.ticks.wrapping_mul(31).wrapping_add(me.0 as u32);
        ctx.send_broadcast(MessageKind::Heartbeat, None, payload);
        if me.0.is_multiple_of(5) {
            // A far peer: on the dense topology the target lands in a
            // different 32-listener word of the row for different senders,
            // and the long link is lossy enough to retry.
            let peer = NodeId((me.0 + self.nodes / 2 + self.ticks as u16 * 7) % self.nodes);
            if peer != me {
                ctx.send_unicast(peer, MessageKind::Data, Some(peer), payload);
            }
        }
        if me.0.is_multiple_of(3) && me.0 + 1 < self.nodes {
            // The next id is a floor neighbour: an in-range target that the
            // fault scenario takes down or cuts off.
            ctx.send_unicast(NodeId(me.0 + 1), MessageKind::Data, None, payload ^ 1);
        }
        ctx.set_timer(SimDuration::from_millis(900 + (me.0 as u64 % 7) * 10), TICK);
    }
}

/// What a scenario produced: the log (its digest closed over the engine's
/// counters), `events_processed()` and the unicasts that exhausted their
/// retries.
struct Outcome {
    log: Log,
    events: u64,
    send_failures: u64,
}

fn run(topology: Topology, faults: FaultSchedule, seed: u64, until: SimTime) -> Outcome {
    let links = LinkModel::from_spec(&LinkSpec::legacy(), &topology, seed).expect("valid spec");
    let log = Rc::new(RefCell::new(Log::new()));
    let n = topology.len() as u16;
    let nodes = (0..n)
        .map(|_| Recorder {
            log: Rc::clone(&log),
            nodes: n,
            ticks: 0,
        })
        .collect();
    let mut engine = Engine::new(topology, links, nodes, EngineConfig { seed }).expect("engine");
    engine.set_fault_schedule(faults);
    // Two legs, so a transmission in flight across a `run_until` boundary is
    // part of the picture.
    engine.run_until(SimTime::from_millis(until.as_millis() / 2 + 7));
    engine.run_until(until);

    let events = engine.events_processed();
    let tx = engine.stats().total_tx();
    let rx = engine.stats().total_rx();
    let snooped: u64 = engine.stats().iter().map(|(_, s)| s.snooped).sum();
    let send_failures: u64 = engine.stats().iter().map(|(_, s)| s.send_failures).sum();
    let mut log = *log.borrow();
    log.fold(&[
        events,
        tx.total(),
        tx.heartbeat,
        tx.data,
        tx.reply,
        rx.total(),
        snooped,
        send_failures,
    ]);
    Outcome {
        log,
        events,
        send_failures,
    }
}

#[test]
fn dense_rows_spanning_four_words_deliver_in_the_recorded_order() {
    // 10 × 10 nodes one metre apart with a radio range that covers the whole
    // field: every row of the neighbour table has 99 listeners.
    let positions = (0..100)
        .map(|i| NodePosition {
            x: (i % 10) as f64,
            y: (i / 10) as f64,
        })
        .collect();
    let topology = Topology::from_positions(TopologyKind::Grid, positions, 16.0).expect("dense");
    assert!(topology.nodes().all(|n| topology.neighbors(n).len() == 99));

    let out = run(topology, FaultSchedule::empty(), 5, SimTime::from_secs(12));
    assert!(out.log.addressed > 10_000 && out.log.snooped > 10_000);
    assert!(out.log.echo_timers > 100, "zero-delay timers must fire");
    assert!(
        out.send_failures > 0,
        "some unicasts must exhaust their retries"
    );
    assert_eq!(
        format!("{:016x} {}", out.log.digest, out.events),
        DENSE_EXPECTED,
        "delivery order on dense rows changed"
    );
}

#[test]
fn faults_opening_and_closing_mid_run_deliver_in_the_recorded_order() {
    let topology = Topology::office_floor(61, 3).expect("office floor");
    let n = topology.len();
    assert_eq!(n, 62);
    let ms = SimTime::from_millis;
    let mut faults = FaultSchedule::empty();
    // Radio outages that open between a transmission and its arrival (the
    // slot is 30 ms) as well as long before it: skipped at dispatch.
    faults.add(NodeId(7), ms(4_010), ms(9_500));
    faults.add(NodeId(22), ms(6_215), ms(6_900));
    faults.add(NodeId(35), ms(10_000), ms(16_000));
    // Nodes 7, 22 and 37 are unicast targets of their lower neighbours (6,
    // 21, 36): while they are down the attempts fail at transmit time.
    faults.add(NodeId(37), ms(2_000), ms(3_000));
    // A cut that isolates the far third of the floor for a while; 39 -> 40
    // unicasts across it.
    faults.add_partition(ms(8_000), ms(14_020), (0..n).map(|i| i >= 40).collect());
    // A halted CPU defers its timers to the window's end.
    faults.add_halt(NodeId(10), ms(5_000), ms(12_345));
    faults.add_halt(NodeId(0), ms(15_000), ms(17_000));

    let plain = run(
        Topology::office_floor(61, 3).expect("office floor"),
        FaultSchedule::empty(),
        9,
        SimTime::from_secs(24),
    );
    let out = run(topology, faults, 9, SimTime::from_secs(24));
    assert!(out.log.addressed > 5_000 && out.log.snooped > 500);
    assert!(out.send_failures > 0);
    assert!(
        out.events < plain.events,
        "the faults must actually suppress deliveries"
    );
    assert_eq!(
        format!("{:016x} {}", out.log.digest, out.events),
        FAULTS_EXPECTED,
        "delivery order under faults changed"
    );
    assert_eq!(
        format!("{:016x} {}", plain.log.digest, plain.events),
        FLOOR_EXPECTED,
        "delivery order on the fault-free floor changed"
    );
}

// `<digest> <events_processed>`.
const DENSE_EXPECTED: &str = "4f89b617702f1e86 520367";
const FAULTS_EXPECTED: &str = "b7f9bb92a3da9427 22783";
const FLOOR_EXPECTED: &str = "827e037272879283 25279";
