//! The answer cache's correctness contract, property-tested: for *arbitrary*
//! interleavings of ingest batches and point/range queries, the cached and
//! uncached cores return byte-identical payloads — including repeated queries
//! (hot hits), queries straddling invalidations, empty ranges, and predicates
//! reaching outside the value domain. A second test proves the same equality
//! one level up, through the full server + in-memory transport path.

use proptest::prelude::*;
use scoop_serve::core::AnswerCore;
use scoop_serve::server::{pump_once, ServeOptions, ServeServer};
use scoop_serve::transport::InMemoryHub;
use scoop_types::{
    DurableRecord, NodeId, QueryPredicate, ScenarioSpec, ServeRequest, SimDuration, SimTime,
    ValueRange,
};

/// One step of an interleaved workload, decoded from plain tuples (the
/// proptest shim has no enum strategies).
#[derive(Clone, Debug)]
enum Op {
    /// Ingest a small batch of records derived from the payload.
    Ingest {
        base_value: i32,
        time_ms: u64,
        count: u8,
    },
    /// Ask both cores (twice, so the second ask can be a cache hit).
    Query {
        value_a: i32,
        value_b: i32,
        time_ms: u64,
        width_ms: u64,
    },
}

fn decode_op(raw: (u8, i32, i32, u64, u64)) -> Op {
    let (kind, a, b, t, w) = raw;
    if kind == 0 {
        Op::Ingest {
            base_value: a,
            time_ms: t,
            count: (b.rem_euclid(4) + 1) as u8,
        }
    } else {
        Op::Query {
            value_a: a,
            value_b: b,
            time_ms: t,
            width_ms: w,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary ingest/query interleavings: cached payload bytes equal
    /// uncached payload bytes at every step.
    #[test]
    fn any_interleaving_is_byte_identical_cache_on_or_off(
        raw_ops in proptest::collection::vec(
            (0u8..2, -20i32..40, -20i32..40, 0u64..2_000, 0u64..600),
            1..80,
        ),
        cache_capacity in 1usize..24,
    ) {
        // A small domain and tight value/time ranges force collisions:
        // invalidations, overlapping predicates, and out-of-domain records
        // all actually happen within 80 ops.
        let domain = ValueRange::new(0, 19);
        let mut cached = AnswerCore::new(domain, cache_capacity);
        let mut uncached = AnswerCore::new(domain, 0);

        for raw in raw_ops {
            match decode_op(raw) {
                Op::Ingest { base_value, time_ms, count } => {
                    let batch: Vec<DurableRecord> = (0..count)
                        .map(|i| DurableRecord {
                            time_ms: time_ms + i as u64,
                            node: NodeId(1 + i as u16),
                            attribute: 0,
                            value: base_value + i as i32,
                        })
                        .collect();
                    cached.ingest(&batch);
                    uncached.ingest(&batch);
                }
                Op::Query { value_a, value_b, time_ms, width_ms } => {
                    let pred = QueryPredicate {
                        value_lo: value_a.min(value_b),
                        value_hi: value_a.max(value_b),
                        time_lo_ms: time_ms,
                        time_hi_ms: time_ms + width_ms,
                    };
                    // Ask twice: the second answer exercises the hot-hit
                    // splice path in the cached core.
                    prop_assert_eq!(
                        cached.answer_payload(&pred).unwrap(),
                        uncached.answer_payload(&pred).unwrap()
                    );
                    prop_assert_eq!(
                        cached.answer_payload(&pred).unwrap(),
                        uncached.answer_payload(&pred).unwrap()
                    );
                }
            }
        }
        prop_assert_eq!(cached.stats().rows_returned, uncached.stats().rows_returned);
    }
}

/// Runs a fixed query schedule through a full server over the in-memory
/// transport and returns every client's frames in a deterministic order.
fn serve_frames(cache_capacity: usize) -> (Vec<Vec<u8>>, u64) {
    let mut options = ServeOptions::new(ScenarioSpec::small_test());
    options.tick = SimDuration::from_secs(30);
    options.queue_capacity = 32;
    options.cache_capacity = cache_capacity;
    let mut server = ServeServer::new(options).expect("server builds");

    let hub = InMemoryHub::new();
    let clients = [hub.client(), hub.client()];
    let mut transport = hub.transport();
    let mut reqs = Vec::new();
    let mut out = Vec::new();
    let mut frames = Vec::new();
    let mut id = 0u64;

    // A deterministic, repetitive mix: point and range predicates whose
    // windows repeat across ticks.
    let pred_at = |tick: u64, k: u64| {
        let lo = ((tick + k) % 10) as i32 * 3;
        let width = (k % 3) as i32 * 4;
        let t0 = (tick / 4) * 120_000;
        (
            ValueRange::new(lo, lo + width),
            SimTime::from_millis(t0),
            SimTime::from_millis(t0 + 240_000),
        )
    };
    for tick in 0..12u64 {
        // Each tick's predicates are asked again on the next two ticks: a
        // first repeat finds only a ghost (probation is smaller than a
        // tick's worth of answers) and re-admits it to main, where the
        // second repeat can hit.
        for age in 0..3u64.min(tick + 1) {
            for k in 0..8u64 {
                let (values, time_lo, time_hi) = pred_at(tick - age, k);
                clients[(k % 2) as usize].submit(ServeRequest {
                    id,
                    values,
                    time_lo,
                    time_hi,
                });
                id += 1;
            }
        }
        pump_once(&mut server, &mut transport, &mut reqs, &mut frames).expect("pump");
        for client in &clients {
            out.extend(client.drain_frames());
        }
    }
    (out, server.core_stats().cache_hits)
}

#[test]
fn full_server_path_is_byte_identical_cache_on_or_off() {
    let (with_cache, hits) = serve_frames(64);
    let (without_cache, no_hits) = serve_frames(0);
    assert_eq!(with_cache, without_cache, "every frame, byte for byte");
    assert!(hits > 0, "the cached run must actually serve from cache");
    assert_eq!(no_hits, 0);
}
