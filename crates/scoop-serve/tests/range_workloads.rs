//! Range-workload serving, end to end: a server whose simulated network runs
//! the `Range` workload kind answers a hermetic range-query schedule over the
//! in-memory transport, each range asked three times, and the full frame
//! stream is digest-identical with the cache on or off. The restart half
//! proves the durable path: a second process over the same store segments
//! answers range predicates about data it never simulated, and disjoint
//! ranges partition the stored rows exactly.

use scoop_serve::server::{pump_once, ServeOptions, ServeServer};
use scoop_serve::transport::InMemoryHub;
use scoop_types::{
    AggregateOp, AggregateSpec, QueryPredicate, ScenarioSpec, ServeRequest, SimDuration, SimTime,
    ValueRange, WorkloadKind,
};
use std::path::{Path, PathBuf};

/// A scenario whose simulated network itself runs range queries (the new
/// workload kind), not the default point workload.
fn range_scenario() -> ScenarioSpec {
    let mut spec = ScenarioSpec::small_test();
    spec.workload.kind = WorkloadKind::range(0.2);
    spec.validate().expect("range workload spec is valid");
    spec
}

/// FNV-1a over every frame, in order — the digest the cache-equivalence
/// claim is stated over.
fn digest(frames: &[Vec<u8>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for frame in frames {
        for &b in frame {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Frame boundary, so [ab][c] != [a][bc].
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the fixed range-query schedule through a full server over the
/// in-memory transport: every range is asked three times (the third ask can
/// be a hot cache hit), windows repeat across ticks so invalidation happens.
fn serve_range_frames(cache_capacity: usize) -> (Vec<Vec<u8>>, u64) {
    let mut options = ServeOptions::new(range_scenario());
    options.tick = SimDuration::from_secs(30);
    options.queue_capacity = 64;
    options.cache_capacity = cache_capacity;
    let mut server = ServeServer::new(options).expect("server builds");

    let hub = InMemoryHub::new();
    let clients = [hub.client(), hub.client()];
    let mut transport = hub.transport();
    let mut reqs = Vec::new();
    let mut frames_scratch = Vec::new();
    let mut frames = Vec::new();
    let mut id = 0u64;

    // Ranges of varying width marching across the domain; the time window
    // changes every third tick so predicates can repeat within a window.
    let pred_at = |tick: u64, k: u64| {
        let lo = ((tick * 5 + k * 7) % 25) as i32;
        let width = 2 + (k % 4) as i32 * 6;
        let t0 = (tick / 3) * 90_000;
        (
            ValueRange::new(lo, lo + width),
            SimTime::from_millis(t0),
            SimTime::from_millis(t0 + 300_000),
        )
    };
    for tick in 0..12u64 {
        for k in 0..6u64 {
            // Each range is asked three times: once now, and again by the
            // other client on each of the next two ticks (same-tick
            // duplicates would coalesce in admission and never touch the
            // cache). The first repeat finds only a ghost — probation is
            // smaller than a tick's worth of answers — and re-admits the
            // answer to main, where the second repeat can hit.
            for age in 0..3u64.min(tick + 1) {
                let client = (age % 2) as usize;
                let (values, time_lo, time_hi) = pred_at(tick - age, k);
                clients[client].submit(ServeRequest {
                    id,
                    values,
                    time_lo,
                    time_hi,
                });
                id += 1;
            }
        }
        pump_once(&mut server, &mut transport, &mut reqs, &mut frames_scratch).expect("pump");
        for client in &clients {
            frames.extend(client.drain_frames());
        }
    }
    (frames, server.core_stats().cache_hits)
}

#[test]
fn range_schedule_digests_are_identical_cache_on_or_off() {
    let (cached, hits) = serve_range_frames(64);
    let (uncached, no_hits) = serve_range_frames(0);
    assert!(!cached.is_empty(), "the schedule produced answers");
    assert_eq!(digest(&cached), digest(&uncached), "digest equality");
    assert_eq!(cached, uncached, "and the frames themselves, byte for byte");
    assert!(hits > 0, "asking every range three times engages the cache");
    assert_eq!(no_hits, 0);
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scoop-serve-range-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn persist_options(dir: &Path) -> ServeOptions {
    let mut options = ServeOptions::new(range_scenario());
    options.tick = SimDuration::from_secs(30);
    options.persist_dir = Some(dir.to_path_buf());
    options
}

#[test]
fn restarted_server_answers_range_queries_from_preloaded_segments() {
    let dir = scratch_dir("restart");

    // First life: run past warmup so readings persist, then stop.
    let mut first = ServeServer::new(persist_options(&dir)).expect("first server");
    let mut frames = Vec::new();
    for _ in 0..10 {
        first.tick(&mut frames).expect("tick");
    }
    first.sync().expect("sync");
    let drained = first.stats().readings_drained;
    assert!(drained > 0, "the first life produced data");
    drop(first);

    // Second life: the first life's records are answerable from its segments.
    let mut second = ServeServer::new(persist_options(&dir)).expect("second server");
    assert_eq!(second.stats().readings_preloaded, drained);

    // Two disjoint ranges that cover the whole domain must partition the
    // stored rows exactly — no double counting, nothing dropped.
    let domain = range_scenario().workload.value_domain;
    let mid = (domain.lo + domain.hi) / 2;
    let halves = [
        ValueRange::new(domain.lo, mid),
        ValueRange::new(mid + 1, domain.hi),
    ];
    let mut rows_total = 0u64;
    for (i, half) in halves.iter().enumerate() {
        second
            .submit(
                1,
                ServeRequest {
                    id: i as u64,
                    values: *half,
                    time_lo: SimTime::ZERO,
                    time_hi: SimTime::from_mins(10),
                },
            )
            .expect("queue is empty");
        frames.clear();
        second.tick(&mut frames).expect("tick");
        assert_eq!(frames.len(), 1);
        let response = scoop_types::ServeResponse::decode(&frames[0].1).expect("frame decodes");
        match response {
            scoop_types::ServeResponse::Rows(rows) => {
                assert_eq!(rows.id, i as u64);
                assert!(
                    rows.rows.iter().all(|r| half.contains(r.value)),
                    "every row honors its range predicate"
                );
                rows_total += rows.rows.len() as u64;
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }
    assert_eq!(
        rows_total, drained,
        "disjoint covering ranges partition the stored rows"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aggregate_answers_agree_with_served_rows_across_a_restart() {
    let dir = scratch_dir("aggregate");

    let mut first = ServeServer::new(persist_options(&dir)).expect("first server");
    let mut frames = Vec::new();
    for _ in 0..10 {
        first.tick(&mut frames).expect("tick");
    }
    first.sync().expect("sync");
    let drained = first.stats().readings_drained;
    assert!(drained > 0);
    drop(first);

    let mut second = ServeServer::new(persist_options(&dir)).expect("second server");
    let domain = range_scenario().workload.value_domain;
    let pred = QueryPredicate {
        value_lo: domain.lo,
        value_hi: domain.hi,
        time_lo_ms: 0,
        time_hi_ms: SimTime::from_mins(10).as_millis(),
    };
    let spec = AggregateSpec {
        op: AggregateOp::Quantile(0.5),
        epsilon: 0.05,
    };
    let partial = second
        .aggregate_answer(&pred, &spec)
        .expect("stored blocks are intact");
    assert_eq!(
        partial.count, drained,
        "the aggregate sees every stored record"
    );
    assert!(domain.contains(partial.min) && domain.contains(partial.max));
    assert!(partial.min <= partial.max);
    let median = partial
        .answer(AggregateOp::Quantile(0.5))
        .expect("non-empty");
    assert!(
        (partial.min as f64) <= median && median <= (partial.max as f64),
        "median {median} inside [{}, {}]",
        partial.min,
        partial.max
    );

    let _ = std::fs::remove_dir_all(&dir);
}
