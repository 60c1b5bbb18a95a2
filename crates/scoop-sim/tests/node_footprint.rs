//! The per-node memory gate: a simulated node costs what its role needs, not
//! what the richest role in the codebase needs.
//!
//! Measured with a counting global allocator (the pattern of
//! `scoop-net/tests/zero_alloc.rs`: it counts allocations, and also tracks
//! the bytes currently allocated). Heap sizes are a function of the
//! allocation sequence, which a seeded run repeats exactly, so each bound is
//! a count — never a wall-clock or RSS reading.
//!
//! This file deliberately contains a single `#[test]`: the counters are
//! process-global, and a concurrently running test would pollute the window.

use scoop_sim::{build_engine, SimNode};
use scoop_types::{
    DataSourceKind, NodeId, ScenarioSpec, SimDuration, SimTime, StoragePolicy, TopologyKind,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Tracks the bytes currently allocated through the global allocator.
struct LiveBytesAllocator;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// Allocations made (not reallocations): how many separate blocks the heap
/// was asked for.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is only a side effect.
unsafe impl GlobalAlloc for LiveBytesAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytesAllocator = LiveBytesAllocator;

/// The benchmark's grid network (`bench/` `grid_config`), 90 s of warm-up
/// then 120 measured seconds.
fn grid_spec(policy: StoragePolicy, sensors: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::paper_defaults();
    spec.topology.kind = TopologyKind::Grid;
    spec.workload.data_source = DataSourceKind::Gaussian;
    spec.policy.kind = policy;
    spec.num_nodes = sensors;
    spec.seed = 11;
    spec.warmup = SimDuration::from_secs(90);
    spec.duration = SimDuration::from_secs(90 + 120);
    spec
}

#[test]
fn a_hash_node_fits_its_budget_and_only_role_players_pay_for_roles() {
    // The hot core every event touches: five and a half cache lines, down
    // from 1,336 B when the sink state sat inline in every node, from 512 B
    // when the seen query ids were a `HashSet`, from 488 B when `DataBuffer`
    // stored its next slot and overwrite count beside its write count, from
    // 472 B when every node held its own spec pointer, data source and
    // SCOOP-only batch, and its routing tables their own copies of the
    // routing constants, and from 384 B when its `RoutingState` held its own
    // 40-byte copy of the run's `RoutingConfig`.
    let inline = std::mem::size_of::<SimNode>();
    assert!(inline <= 352, "SimNode is {inline} B inline, budget 352");

    // Everything a built-and-run HASH network holds on the heap — topology,
    // links, event queue, the nodes and all they own, stored readings — per
    // node. This run measures 1,107 B: 1,095 B before the engine kept a
    // 2-byte sender slot per link and each node's estimator one record per
    // sender it can hear, laid out when the run starts instead of grown as
    // senders are first heard; 1,252 B before a queued timer took a
    // 24-byte entry of its own instead of a 56-byte packet-sized one and the
    // routing constants were held once per run, 1,421 B before the run's data source
    // and constants were held once instead of once per node and a link
    // became a 2-byte id beside an 8-byte probability, 1,585 B before a
    // `DataBuffer` slot shrank from a 32-byte tagged reading to the bare
    // 16-byte `Reading`, 1,609 B before the seen query ids became bits,
    // 1,913 B before the neighbour table dropped to ids, link records to
    // 24 B and `DataBuffer` growth to a quarter, and 3,954 B before the
    // hot/cold split.
    let spec = grid_spec(StoragePolicy::Hash, 4_095);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let mut engine = build_engine(&spec).expect("HASH grid builds");
    // Assembly allocates per structure, never per node: this build makes 29
    // allocations — 30 while the engine pre-sized a buffer for the commands
    // node callbacks issued, 29 before the arrivals took a heap of their own
    // and the routing constants an `Arc`, when the queue kept a list of
    // region shards — and 4,125 when every node boxed its own copy of the
    // data source.
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    assert!(
        allocations <= 64,
        "building 4,096 nodes made {allocations} allocations, budget 64"
    );
    engine.run_until(SimTime::ZERO + spec.duration);
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
    let nodes = engine.topology().len();
    assert_eq!(nodes, 4_096);
    let per_node = held as usize / nodes;
    assert!(
        per_node <= 1_150,
        "a HASH node holds {per_node} B of live heap, budget 1,150"
    );
    assert!(engine.stats().total_tx().data > 0, "the run stored nothing");

    // Under HASH node 0 alone plays the sink; no role leaks onto sensors.
    for (id, node) in engine.iter_nodes() {
        assert_eq!(node.is_sink(), id == NodeId::BASESTATION, "node {id}");
    }
    let (issued, ..) = engine.node(NodeId::BASESTATION).query_outcomes();
    assert!(issued > 0, "the sink issued no query");
    drop(engine);

    // A SCOOP network holds what the protocol reads: one summary per node at
    // the basestation, seen query ids and mapping chunks as bits, a ring of
    // 30 values per sensor, and partial chunks in one flat buffer per
    // assembler, and 16-byte data-buffer slots. This run measures 4,556 B per
    // node: 4,559 B while the engine kept a buffer for the commands node
    // callbacks issued and the sink a second query-outcome type, 4,561 B
    // while link records were grown as senders
    // were first heard instead of laid out per sender at start, 4,809 B
    // while every
    // queued timer took a 56-byte entry and every
    // node its own copy of the routing constants, 6,084 B while lost mapping
    // chunks were never re-sent, so most
    // sensors held a partial assembly all run, 6,057 B when the chunk
    // assembler sat inline in every SCOOP node
    // instead of in a per-rank slot allocated on the node's first chunk,
    // 6,192 B before the run's constants were held once instead of
    // once per node, 7,125 B when each slot was a 32-byte tagged reading, and
    // 10,214 B when the basestation kept every summary ever received, the
    // seen sets were hash sets, the ring held whole readings and each chunk
    // was its own `Vec`.
    let mut spec = grid_spec(StoragePolicy::Scoop, 256);
    spec.duration = SimDuration::from_mins(12);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut engine = build_engine(&spec).expect("SCOOP grid builds");
    engine.run_until(SimTime::ZERO + spec.duration);
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
    let per_node = held as usize / engine.topology().len();
    assert!(
        per_node <= 4_800,
        "a SCOOP node holds {per_node} B of live heap, budget 4,800"
    );

    // SCOOP sensors still carry the recent-readings ring, and it still feeds
    // their summaries: the basestation can only build (and disseminate) an
    // index that moves data off the producers from non-empty histograms.
    assert!(engine.stats().total_tx().summary > 0, "no summary was sent");
    let sink = engine.node(NodeId::BASESTATION);
    assert!(
        sink.indices_disseminated() > 0,
        "summaries reached the sink empty: no index was ever worth sending"
    );
    let stored_as_owner: u64 = engine
        .iter_nodes()
        .map(|(_, node)| node.metrics.stored_as_owner)
        .sum();
    assert!(stored_as_owner > 0, "no reading was routed by the index");
}
