//! Serving stored history in place: a restart opens the log and reads none
//! of it, a predicate reads only the blocks its time window names, records
//! this process drains and re-persists are never answered twice, and the
//! aggregate shape sees exactly the rows the range shape returns.

use scoop_serve::core::AnswerCore;
use scoop_serve::server::{ServeOptions, ServeServer};
use scoop_store::{Store, StoreOptions};
use scoop_types::{
    append_rows_frame, AggregateOp, AggregateSpec, DurableRecord, NodeId, PartialAggregate,
    ScenarioSpec, ServeRequest, ServeResponse, SimDuration, SimTime, ValueRange,
};
use std::path::{Path, PathBuf};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scoop-direct-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn serve_options(dir: &Path) -> ServeOptions {
    let mut options = ServeOptions::new(ScenarioSpec::small_test());
    options.tick = SimDuration::from_secs(30);
    options.persist_dir = Some(dir.to_path_buf());
    options
}

fn domain() -> ValueRange {
    ScenarioSpec::small_test().workload.value_domain
}

fn everything(id: u64, lo_ms: u64, hi_ms: u64) -> ServeRequest {
    ServeRequest {
        id,
        values: ValueRange::new(domain().lo - 1_000, domain().hi + 1_000),
        time_lo: SimTime::from_millis(lo_ms),
        time_hi: SimTime::from_millis(hi_ms),
    }
}

/// History far past anything the live simulation reaches in these tests.
const HISTORY_START_MS: u64 = 100_000_000;
/// One record a second, 16 to a block: a block spans 16 s of log.
const CADENCE_MS: u64 = 1_000;
const RECORDS_PER_BLOCK: u64 = 16;
const BLOCK_SPAN_MS: u64 = CADENCE_MS * RECORDS_PER_BLOCK;

/// A time-ordered log of `n` records in segments of 4,096.
fn write_history(dir: &Path, n: u64) {
    let options = StoreOptions {
        block_size: 8 + 16 * RECORDS_PER_BLOCK as usize,
        seal_after_records: 4_096,
        compact_tier_segments: 1_000,
    };
    let width = domain().width();
    let records: Vec<DurableRecord> = (0..n)
        .map(|i| DurableRecord {
            time_ms: HISTORY_START_MS + i * CADENCE_MS,
            node: NodeId((i % 40) as u16),
            attribute: 0,
            value: domain().lo + (i.wrapping_mul(2_654_435_761) % width) as i32,
        })
        .collect();
    let mut store = Store::open(dir, options).expect("open");
    store.append_batch(&records).expect("append");
    store.commit().expect("commit");
}

#[test]
fn a_restart_reads_no_block_and_a_window_reads_only_the_blocks_it_names() {
    const WINDOW_MS: u64 = 120_000;
    for (name, n) in [("small", 10_000u64), ("large", 40_000)] {
        let dir = scratch_dir(name);
        write_history(&dir, n);
        let segments: Vec<(u64, u64)> = Store::open(&dir, StoreOptions::default())
            .expect("open")
            .segments()
            .map(|s| (s.min_time_ms(), s.max_time_ms()))
            .collect();
        assert!(segments.len() as u64 >= n / 4_096);

        let mut server = ServeServer::new(serve_options(&dir)).expect("restart");
        assert_eq!(server.stats().readings_preloaded, n);
        let core = server.core_stats();
        assert_eq!(core.history_blocks_read, 0, "{name}: restart read blocks");
        assert_eq!(core.readings_indexed, 0, "{name}: restart loaded records");

        // One 120 s window per tick, marched across the log (and off both of
        // its ends), so each tick's block count is one predicate's.
        let per_segment = WINDOW_MS.div_ceil(BLOCK_SPAN_MS) + 1;
        let span_ms = n * CADENCE_MS;
        let mut frames = Vec::new();
        let mut most = 0;
        for k in 0..40u64 {
            let t0 = HISTORY_START_MS - WINDOW_MS / 2 + k * (span_ms + WINDOW_MS) / 39;
            let t1 = t0 + WINDOW_MS;
            let before = server.core_stats().history_blocks_read;
            server.submit(1, everything(k, t0, t1)).expect("room");
            frames.clear();
            server.tick(&mut frames).expect("tick");
            let read = server.core_stats().history_blocks_read - before;
            let overlapping = segments
                .iter()
                .filter(|&&(min, max)| t0 <= max && t1 >= min)
                .count() as u64;
            assert!(
                read <= per_segment * overlapping,
                "{name}: window {k} read {read} blocks over {overlapping} segment(s)"
            );
            let ServeResponse::Rows(rows) = ServeResponse::decode(&frames[0].1).unwrap() else {
                panic!("expected rows");
            };
            let first = t0.max(HISTORY_START_MS).div_ceil(CADENCE_MS);
            let last = t1.min(HISTORY_START_MS + span_ms - CADENCE_MS) / CADENCE_MS;
            assert_eq!(rows.rows.len() as u64, (last + 1).saturating_sub(first));
            most = most.max(read);
        }
        assert!(most > 0 && most <= 2 * per_segment);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Every row of `frame`, which must be a rows response to request `id`.
fn rows_of(id: u64, frame: &[u8]) -> Vec<DurableRecord> {
    match ServeResponse::decode(frame).expect("frame decodes") {
        ServeResponse::Rows(rows) if rows.id == id => rows.rows,
        other => panic!("expected rows for request {id}, got {other:?}"),
    }
}

#[test]
fn records_drained_and_persisted_by_this_process_are_answered_once() {
    let dir = scratch_dir("once");
    let mut frames = Vec::new();

    // First life: ten ticks of live readings reach the log.
    let mut first = ServeServer::new(serve_options(&dir)).expect("first life");
    for _ in 0..10 {
        first.tick(&mut frames).expect("tick");
    }
    first.sync().expect("sync");
    let drained = first.stats().readings_drained;
    assert!(drained > 0);
    drop(first);
    let at_restart = Store::open(&dir, StoreOptions::default())
        .and_then(|mut store| store.scan_all())
        .expect("scan_all")
        .records;
    assert_eq!(at_restart.len() as u64, drained);

    // Second life: the same deterministic network drains the same readings
    // again and journals them into the very log its history view was taken
    // from. A twin without persistence says what the live half must be.
    let mut second = ServeServer::new(serve_options(&dir)).expect("second life");
    assert_eq!(second.stats().readings_preloaded, drained);
    let mut twin_options = serve_options(&dir);
    twin_options.persist_dir = None;
    let mut twin = ServeServer::new(twin_options).expect("twin");
    let mut twin_frames = Vec::new();
    frames.clear();
    for _ in 0..10 {
        second.tick(&mut frames).expect("tick");
        twin.tick(&mut twin_frames).expect("tick");
    }
    second.sync().expect("sync");
    assert_eq!(second.stats().readings_drained, drained);
    assert_eq!(second.stats().records_persisted, drained);
    let mut history = AnswerCore::new(domain(), 0);
    history.ingest(&at_restart);

    let horizon = SimTime::from_mins(10).as_millis();
    let requests: Vec<ServeRequest> = (0..24u64)
        .map(|id| ServeRequest {
            id,
            values: ValueRange::new(
                domain().lo + (id as i32 * 7) % 40,
                domain().lo + (id as i32 * 7) % 40 + [0, 3, 25, 500][id as usize % 4],
            ),
            time_lo: SimTime::from_millis(id * horizon / 48),
            time_hi: SimTime::from_millis(horizon - id * horizon / 96),
        })
        .chain([everything(24, 0, horizon)])
        .collect();
    for request in &requests {
        second.submit(1, *request).expect("room");
        twin.submit(1, *request).expect("room");
    }
    second.tick(&mut frames).expect("tick");
    twin.tick(&mut twin_frames).expect("tick");
    assert_eq!(frames.len(), requests.len());
    let live_total = twin.stats().readings_drained;
    assert_eq!(second.stats().readings_drained, live_total);

    // Every answer is history ∪ drained: each record once from each side.
    for (i, request) in requests.iter().enumerate() {
        let stored = history.answer_payload(&request.predicate()).unwrap();
        let mut stored_frame = Vec::new();
        append_rows_frame(request.id, &stored, &mut stored_frame);
        let mut expected = rows_of(request.id, &stored_frame);
        expected.extend(rows_of(request.id, &twin_frames[i].1));
        expected.sort_unstable();
        assert_eq!(rows_of(request.id, &frames[i].1), expected, "request {i}");
    }
    let all = rows_of(24, &frames[24].1).len() as u64;
    assert_eq!(all, drained + live_total);

    // The aggregate shape evaluates the same rows, stored and live alike.
    let spec = AggregateSpec {
        op: AggregateOp::Quantile(0.5),
        epsilon: 0.05,
    };
    for (request, (_, frame)) in requests.iter().zip(&frames) {
        let mut from_rows = PartialAggregate::for_spec(&spec, domain());
        for row in rows_of(request.id, frame) {
            from_rows.observe(row.value);
        }
        let partial = second
            .aggregate_answer(&request.predicate(), &spec)
            .expect("stored blocks are intact");
        assert_eq!(partial, from_rows, "request {}", request.id);
    }
    second.sync().expect("sync");
    drop(second);

    // Third life: both lives' records are history now, still once each.
    let mut third = ServeServer::new(serve_options(&dir)).expect("third life");
    assert_eq!(third.stats().readings_preloaded, all);
    third
        .submit(1, everything(7, 0, u64::MAX / 2))
        .expect("room");
    frames.clear();
    third.tick(&mut frames).expect("tick");
    assert_eq!(third.stats().readings_drained, 0, "still inside the warmup");
    assert_eq!(rows_of(7, &frames[0].1).len() as u64, all);
    std::fs::remove_dir_all(&dir).unwrap();
}
