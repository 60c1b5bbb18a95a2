//! Isolated measurements of single layers, run only in traced mode. Each
//! times calls into one crate's public functions on inputs shaped like the
//! workload it rides with, so a layer's own cost can be read beside the
//! end-to-end number it should move.

use crate::gen::Rng;
use crate::stats::median;
use crate::workloads::timed;
use scoop::core::histogram::SummaryHistogram;
use scoop::core::index::{IndexBuilder, IndexBuilderConfig};
use scoop::core::summary::{ReportedNeighbor, SummaryMessage};
use scoop::core::{CostModel, CostParams, StatsStore};
use scoop::net::{
    Engine, EngineConfig, Event, EventQueue, LinkDst, LinkModel, NodeCtx, NodeLogic, Packet,
    PacketMeta, TimerToken, Topology,
};
use scoop::routing::{Beacon, RoutingConfig, RoutingState};
use scoop::storage::DataBuffer;
use scoop::trickle::{ChunkAssembler, Chunker};
use scoop::types::{
    Attribute, DataSourceKind, MessageKind, NodeId, Reading, SeqNo, SimDuration, SimTime,
    StorageIndexId, Value, ValueRange, WorkloadSpec,
};
use scoop::workload::{make_source, QueryGenerator};
use std::hint::black_box;

/// Nanoseconds per call of `f`: the median over `rounds` rounds of `iters`
/// calls each.
pub fn ns_per_call(rounds: usize, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let (secs, ()) = timed(|| (0..iters).for_each(&mut f));
            secs * 1e9 / iters as f64
        })
        .collect();
    median(&samples)
}

// ---------------------------------------------------------------- scoop-net

/// Steady-depth hold cost of the event queue: nanoseconds per `pop` + `push`
/// with `depth` events pending, on a queue of `shards` region shards over
/// 32,768 nodes.
pub fn queue_hold_ns(depth: usize, shards: usize) -> f64 {
    const NODES: u64 = 32_768;
    let mut queue: EventQueue<u64> = EventQueue::sharded(
        shards,
        (NODES as usize).div_ceil(shards),
        depth / shards + 64,
    );
    let mut rng = Rng::new(0x51ed, depth as u64);
    let timer = |rng: &mut Rng| Event::TimerFire {
        node: NodeId(rng.below(NODES) as u16),
        token: 1,
    };
    for _ in 0..depth {
        let at = SimTime::from_millis(rng.below(1_000_000));
        queue.push(at, timer(&mut rng));
    }
    let iters = 400_000;
    ns_per_call(5, iters, |_| {
        let (now, event) = queue.pop().expect("steady depth");
        black_box(&event);
        let at = SimTime::from_millis(now.as_millis() + 1 + rng.below(1_000_000));
        queue.push(at, timer(&mut rng));
    })
}

/// The allocation-free traffic shape of the repository's `engine_hot_path`
/// bench: every node broadcasts each second, two nodes exchange lossy
/// unicasts. Pure engine dispatch, no protocol logic.
#[derive(Default)]
pub struct FloodApp {
    received: u64,
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

/// What one flood run measured.
pub struct FloodReading {
    /// Seconds `Engine::new` took.
    pub engine_new_s: f64,
    /// Events dispatched per host second.
    pub events_per_s: f64,
}

/// Runs the flood protocol over `topology` / `links` for `sim_secs` of
/// simulated time.
pub fn flood(topology: Topology, links: LinkModel, sim_secs: u64) -> FloodReading {
    let nodes: Vec<FloodApp> = (0..topology.len()).map(|_| FloodApp::default()).collect();
    let (engine_new_s, engine) =
        timed(|| Engine::new(topology, links, nodes, EngineConfig::default()));
    let mut engine = engine.expect("flood engine");
    let (secs, ()) = timed(|| engine.run_until(SimTime::from_secs(sim_secs)));
    FloodReading {
        engine_new_s,
        events_per_s: engine.events_processed() as f64 / secs.max(1e-9),
    }
}

/// [`flood`] on a fresh `side × side` grid.
pub fn flood_grid(side: usize, sim_secs: u64) -> FloodReading {
    let topology = Topology::grid(side, 10.0).expect("grid");
    let links = LinkModel::from_topology(&topology, 42);
    flood(topology, links, sim_secs)
}

// --------------------------------------------------------------- scoop-core

fn summary_for(i: usize, n_sensors: usize, domain_width: i32) -> SummaryMessage {
    let center = (i as i32 * domain_width / (n_sensors as i32 + 1)).clamp(0, domain_width - 1);
    let values: Vec<Value> = (0..30)
        .map(|k| (center + (k % 5) - 2).clamp(0, domain_width - 1))
        .collect();
    let mut neighbors = vec![ReportedNeighbor {
        node: NodeId((i - 1) as u16),
        quality: 0.8,
    }];
    if i < n_sensors {
        neighbors.push(ReportedNeighbor {
            node: NodeId((i + 1) as u16),
            quality: 0.8,
        });
    }
    SummaryMessage {
        node: NodeId(i as u16),
        histogram: SummaryHistogram::build(&values, 10),
        min: values.iter().min().copied(),
        max: values.iter().max().copied(),
        sum: values.iter().map(|&v| v as i64).sum(),
        count: values.len() as u32,
        data_rate_hz: 1.0 / 15.0,
        neighbors,
        parent: Some(NodeId((i - 1) as u16)),
        newest_complete_index: StorageIndexId(1),
        generated_at: SimTime::from_secs(100),
    }
}

const DOMAIN_WIDTH: i32 = 150;

/// A statistics store resembling a converged deployment of `n_sensors` in a
/// chain (the shape of the repository's `index_build` bench).
pub fn converged_stats(n_sensors: usize) -> StatsStore {
    let mut stats = StatsStore::new(n_sensors + 1, ValueRange::new(0, DOMAIN_WIDTH - 1));
    for i in 1..=n_sensors {
        stats.record_summary(summary_for(i, n_sensors, DOMAIN_WIDTH));
    }
    for q in 0..20 {
        let lo = q * 3 % DOMAIN_WIDTH;
        stats.record_query(
            &ValueRange::new(lo, (lo + 5).min(DOMAIN_WIDTH - 1)),
            SimTime::from_secs(600 + q as u64 * 15),
        );
    }
    stats
}

/// Milliseconds per `IndexBuilder::build` over `n_sensors` (median of
/// `rounds`).
pub fn index_build_ms(n_sensors: usize, rounds: usize) -> f64 {
    let stats = converged_stats(n_sensors);
    let builder = IndexBuilder::new(IndexBuilderConfig::default());
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let (secs, decision) = timed(|| {
                builder.build(
                    &stats,
                    CostParams::with_query_rate(1.0 / 15.0),
                    StorageIndexId(2),
                    SimTime::from_secs(840),
                )
            });
            black_box(decision);
            secs * 1e3
        })
        .collect();
    median(&samples)
}

/// Cost-table rows one full remap over `n_sensors` materializes.
pub fn cost_rows_materialized(n_sensors: usize) -> f64 {
    let stats = converged_stats(n_sensors);
    let model = CostModel::new(&stats, CostParams::with_query_rate(1.0 / 15.0));
    let candidates = stats.candidate_owners();
    for v in stats.domain().values() {
        black_box(model.best_owner(v, &candidates));
    }
    model.rows_materialized() as f64
}

/// `(record_summary, record_query)` nanoseconds per call on a 62-sensor
/// store.
pub fn stats_store_ns() -> (f64, f64) {
    const SENSORS: usize = 62;
    let mut stats = converged_stats(SENSORS);
    let rounds = 2_000;
    let mut summaries: Vec<SummaryMessage> = (0..rounds)
        .map(|k| summary_for(1 + k % SENSORS, SENSORS, DOMAIN_WIDTH))
        .collect();
    let (secs, ()) = timed(|| {
        for summary in summaries.drain(..) {
            stats.record_summary(summary);
        }
    });
    let summary_ns = secs * 1e9 / rounds as f64;
    let query_ns = ns_per_call(5, 20_000, |k| {
        let lo = (k as i32 * 7) % (DOMAIN_WIDTH - 6);
        stats.record_query(&ValueRange::new(lo, lo + 5), SimTime::from_secs(1_000 + k));
    });
    (summary_ns, query_ns)
}

// ------------------------------------------- routing / trickle / storage

/// `(on_beacon, next_hop_for)` nanoseconds per call on a routing state that
/// has heard 62 neighbours.
pub fn routing_ns() -> (f64, f64) {
    const NEIGHBOURS: u16 = 62;
    let config = RoutingConfig {
        neighbor_cap: NEIGHBOURS as usize,
        descendants_cap: NEIGHBOURS as usize,
        ..RoutingConfig::default()
    };
    let me = NodeId(NEIGHBOURS + 1);
    let mut state = RoutingState::new(me, config);
    let now = SimTime::from_secs(10);
    for round in 0..4u32 {
        for id in 1..=NEIGHBOURS {
            state.observe_packet(
                &PacketMeta {
                    link_src: NodeId(id),
                    link_dst: LinkDst::Broadcast,
                    origin: NodeId(id),
                    origin_parent: (id % 3 == 0).then_some(me),
                    seqno: SeqNo(round),
                    kind: MessageKind::Heartbeat,
                    hops: 0,
                },
                now,
            );
        }
    }
    let on_beacon = ns_per_call(5, 200_000, |k| {
        let from = NodeId(1 + (k % NEIGHBOURS as u64) as u16);
        let beacon = Beacon {
            hops: 1 + (k % 4) as u16,
            path_etx: 1.5 + (k % 7) as f64,
            parent: Some(NodeId(0)),
        };
        black_box(state.on_beacon(from, &beacon, now));
    });
    let next_hop = ns_per_call(5, 200_000, |k| {
        let dst = NodeId((k % (2 * NEIGHBOURS as u64)) as u16);
        black_box(state.next_hop_for(dst, true));
    });
    (on_beacon, next_hop)
}

/// Microseconds to split a 1024-entry index into chunks and reassemble it.
pub fn trickle_split_accept_us() -> f64 {
    let items: Vec<(i32, i32, u16)> = (0..1024).map(|i| (i, i, i as u16)).collect();
    let chunker = Chunker::new(8);
    ns_per_call(5, 200, |version| {
        let chunks = chunker.split(version + 1, &items);
        let mut assembler = ChunkAssembler::new();
        let mut whole = None;
        for chunk in &chunks {
            whole = assembler.accept(chunk).or(whole);
        }
        assert_eq!(whole.map(|w| w.len()), Some(items.len()));
    }) / 1e3
}

/// `(DataBuffer::store ns per reading, read_new_since ns per reading)`.
pub fn data_buffer_ns() -> (f64, f64) {
    let mut buffer = DataBuffer::new(4_096);
    let store = ns_per_call(5, 200_000, |k| {
        let at = SimTime::from_millis(k * 15);
        let reading = Reading::new(
            NodeId(1 + (k % 62) as u16),
            Attribute::Light,
            k as i32 % 150,
            at,
        );
        buffer.store(reading, at, StorageIndexId(1));
    });
    // One serve tick's drain: the 62 newest readings.
    let mut out = Vec::with_capacity(64);
    let read = ns_per_call(5, 20_000, |_| {
        out.clear();
        black_box(buffer.read_new_since(buffer.total_writes() - 62, &mut out));
    }) / 62.0;
    (store, read)
}

/// `(QueryGenerator::next_query ns, data-source sample ns)`: the generators'
/// own cost, which must stay far below the per-request time.
pub fn workload_ns() -> (f64, f64) {
    let workload = WorkloadSpec::paper_defaults();
    let mut generator = QueryGenerator::from_spec(&workload, 7);
    let next_query = ns_per_call(5, 200_000, |k| {
        black_box(generator.next_query(SimTime::from_secs(1_200 + k)));
    });
    let mut source = make_source(DataSourceKind::Gaussian, workload.value_domain, 62, 7);
    let sample = ns_per_call(5, 200_000, |k| {
        black_box(source.sample(
            NodeId(1 + (k % 62) as u16),
            SimTime::from_millis(k * 15_000),
        ));
    });
    (next_query, sample)
}

/// Nanoseconds one empty span costs the traced run.
pub fn span_cost_ns() -> f64 {
    let mut tracer = crate::trace::Tracer::new(true, std::time::Instant::now(), 0);
    ns_per_call(3, 100_000, |_| {
        let id = tracer.begin("harness.calibrate");
        tracer.end(id);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_probes_run_and_read_positive() {
        assert!(queue_hold_ns(1_000, 1) > 0.0);
        assert!(queue_hold_ns(1_024, 8) > 0.0);
        let flood = flood_grid(4, 30);
        assert!(flood.events_per_s > 0.0 && flood.engine_new_s >= 0.0);
        assert!(index_build_ms(8, 1) > 0.0);
        assert!(cost_rows_materialized(8) > 0.0);
        let (summary, query) = stats_store_ns();
        assert!(summary > 0.0 && query > 0.0);
        let (beacon, hop) = routing_ns();
        assert!(beacon > 0.0 && hop > 0.0);
        assert!(trickle_split_accept_us() > 0.0);
        let (store, read) = data_buffer_ns();
        assert!(store > 0.0 && read > 0.0);
        let (query_gen, sample) = workload_ns();
        assert!(query_gen > 0.0 && sample > 0.0);
        assert!(span_cost_ns() > 0.0);
    }
}
