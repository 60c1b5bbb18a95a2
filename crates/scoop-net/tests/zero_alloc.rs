//! The hot-path allocation gate: once a simulation reaches steady state, the
//! engine's event loop (timer dispatch, broadcast fan-out, unicast retries
//! with snooping) performs **zero heap allocations**.
//!
//! Measured with a counting global allocator around an application whose own
//! callbacks are allocation-free, so every counted allocation would belong to
//! the engine: the CSR neighbor table (no per-transmit listener `Vec`), the
//! listener bit masks a transmission is queued as (rows here have 48
//! listeners, so every transmission spans two mask words), the reusable
//! command buffer (no per-callback `Vec`), and the recycled event queue
//! capacity. The same run asserts the buffer-capacity invariant: queue
//! and command-buffer capacities established during warm-up never grow again.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a concurrently running test would pollute the window.

use scoop_net::{
    Engine, EngineConfig, LinkModel, NodeCtx, NodeLogic, NodePosition, Packet, TimerToken,
    Topology, TopologyKind,
};
use scoop_types::{LinkSpec, MessageKind, NodeId, SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation routed through the global
/// allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A protocol exercising every hot-path shape without allocating itself:
/// every node broadcasts a heartbeat each second; nodes 1 and 2 additionally
/// unicast to a fixed peer (over lossy links, so the retry loop and snooping
/// both run); payloads are `Copy`.
#[derive(Default)]
struct FloodApp {
    received: u64,
    snooped: u64,
}

const TICK: TimerToken = 1;

impl NodeLogic for FloodApp {
    type Payload = u64;

    fn on_init(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        ctx.set_timer(SimDuration::from_millis(500 + ctx.id().0 as u64 * 37), TICK);
    }

    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_, u64>, _packet: Packet<u64>, addressed: bool) {
        if addressed {
            self.received += 1;
        } else {
            self.snooped += 1;
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, u64>, _token: TimerToken) {
        ctx.send_broadcast(MessageKind::Heartbeat, None, self.received);
        let me = ctx.id();
        if me == NodeId(1) {
            ctx.send_unicast(NodeId(2), MessageKind::Data, None, self.received);
        } else if me == NodeId(2) {
            ctx.send_unicast(NodeId(1), MessageKind::Data, Some(NodeId(1)), self.received);
        }
        ctx.set_timer(SimDuration::from_secs(1), TICK);
    }
}

#[test]
fn steady_state_event_loop_allocates_nothing() {
    // A 7 × 7 field whose radio range covers all of it: every node has 48
    // listeners, more than one 32-bit mask word.
    let positions = (0..49)
        .map(|i| NodePosition {
            x: (i % 7) as f64 * 10.0,
            y: (i / 7) as f64 * 10.0,
        })
        .collect();
    let topo = Topology::from_positions(TopologyKind::Grid, positions, 100.0).expect("field");
    let n = topo.len() as u16;
    // Lossy links: the unicast retry loop must actually retry sometimes.
    let links = LinkModel::from_spec(&LinkSpec::legacy(), &topo, 42).expect("valid spec");
    assert!(
        links.neighbors(NodeId(1)).0.len() > 32,
        "a transmission must span more than one listener word"
    );
    let nodes = (0..topo.len()).map(|_| FloodApp::default()).collect();
    let mut engine = Engine::new(topo, links, nodes, EngineConfig::default()).expect("engine");

    // Warm-up: on_init runs, the queue and command buffer reach their
    // high-water capacities, every periodic pattern has repeated many times.
    engine.run_until(SimTime::from_secs(120));
    let events_before = engine.events_processed();
    assert!(events_before > 1_000, "warm-up must dispatch real traffic");

    let queue_cap = engine.queue_capacity();
    let cmd_cap = engine.command_buffer_capacity();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);

    // The measured window: ten more minutes of simulated traffic.
    engine.run_until(SimTime::from_secs(720));

    let allocs_after = ALLOCATIONS.load(Ordering::Relaxed);
    let events_after = engine.events_processed();
    assert!(
        events_after > events_before + 5_000,
        "the measured window must dispatch real traffic, got {}",
        events_after - events_before
    );
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "steady-state dispatch of {} events heap-allocated",
        events_after - events_before
    );

    // Buffer-capacity invariant: steady state reuses, never regrows.
    assert_eq!(engine.queue_capacity(), queue_cap, "event queue regrew");
    assert_eq!(
        engine.command_buffer_capacity(),
        cmd_cap,
        "command buffer regrew"
    );

    // Sanity: the workload really exercised broadcast, snoop, unicast ack,
    // and retry-exhaustion paths.
    let received: u64 = (0..n).map(|i| engine.node(NodeId(i)).received).sum();
    let snooped: u64 = (0..n).map(|i| engine.node(NodeId(i)).snooped).sum();
    let failures: u64 = engine.stats().iter().map(|(_, s)| s.send_failures).sum();
    assert!(received > 0, "no packets delivered");
    assert!(snooped > 0, "no unicasts snooped");
    assert!(failures > 0, "no unicast exhausted its retries");
}
