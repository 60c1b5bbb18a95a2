//! A restarted server answers stored history straight from the sealed
//! segments of its log; it preloads nothing (the file keeps the name of the
//! streaming preload these sweeps were written against). The sweeps hold that
//! path to the plain reference — collect `Store::scan_all()`, then one
//! `AnswerCore::ingest` — byte for byte, on the three log shapes that stress
//! it differently, and the corruption test proves a damaged block fails the
//! first tick that reads it with a typed error instead of a short answer.

use scoop_serve::core::AnswerCore;
use scoop_serve::server::{ServeOptions, ServeServer};
use scoop_store::{Store, StoreOptions, HEADER_LEN};
use scoop_types::{
    append_rows_frame, DurableRecord, NodeId, ScenarioSpec, ScoopError, ServeRequest, SimTime,
    ValueRange,
};
use std::path::{Path, PathBuf};

/// History lives far past anything the live simulation reaches in one tick,
/// so the log alone decides every answer.
const HISTORY_START_MS: u64 = 100_000_000;
const BLOCK_SIZE: usize = 8 + 16 * 4;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scoop-preload-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tiny blocks and segments, so a few hundred records span many of both.
fn small_store_options() -> StoreOptions {
    StoreOptions {
        block_size: BLOCK_SIZE,
        seal_after_records: 48,
        compact_tier_segments: 1000,
    }
}

fn serve_options(dir: &Path) -> ServeOptions {
    let mut options = ServeOptions::new(ScenarioSpec::small_test());
    options.persist_dir = Some(dir.to_path_buf());
    options
}

fn domain() -> ValueRange {
    ScenarioSpec::small_test().workload.value_domain
}

/// xorshift64*: a seeded stream for the record and predicate sweeps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `n` records at times `from_ms, from_ms + step, …` with seeded values in
/// `values` (node ids vary so equal-time records still differ).
fn records(
    rng: &mut Rng,
    n: u64,
    from_ms: u64,
    step_ms: u64,
    values: ValueRange,
) -> Vec<DurableRecord> {
    (0..n)
        .map(|i| DurableRecord {
            time_ms: from_ms + i * step_ms,
            node: NodeId(rng.below(40) as u16),
            attribute: 0,
            value: values.lo + rng.below(values.width()) as i32,
        })
        .collect()
}

/// Writes `batches` (one `append_batch` each) and returns `(records, blocks)`
/// as the store counts them.
fn write_log(dir: &Path, batches: &[Vec<DurableRecord>]) -> (u64, usize) {
    let mut store = Store::open(dir, small_store_options()).expect("open");
    for batch in batches {
        store.append_batch(batch).expect("append");
    }
    store.commit().expect("commit");
    let stats = store.stats().expect("stats");
    assert!(stats.segments >= 3, "the log spans several segments");
    (stats.records, stats.blocks)
}

/// A seeded sweep of predicates over and around the history: narrow and wide
/// value ranges (some reaching or lying outside the domain), short and long
/// time windows (some before or after the log).
fn predicate_sweep(seed: u64, span_ms: u64) -> Vec<ServeRequest> {
    let mut rng = Rng(seed);
    let domain = domain();
    (0..300u64)
        .map(|id| {
            let lo = domain.lo - 20 + rng.below(domain.width() + 40) as i32;
            let width = [0, 1, 7, 40, 400][rng.below(5) as usize];
            let t0 = HISTORY_START_MS - 500 + rng.below(span_ms + 1_000);
            let window = [0, 10, 250, 5_000, 1_000_000][rng.below(5) as usize];
            ServeRequest {
                id,
                values: ValueRange::new(lo, lo + width),
                time_lo: SimTime::from_millis(t0),
                time_hi: SimTime::from_millis(t0 + window),
            }
        })
        .collect()
}

/// The restarted server, reading segments per predicate, and the
/// collect-sort-ingest reference answer every predicate of the sweep with the
/// same frame bytes.
fn assert_stream_equals_collect(name: &str, batches: &[Vec<DurableRecord>], seed: u64) {
    let dir = scratch_dir(name);
    let (written, _) = write_log(&dir, batches);
    let span_ms = batches
        .iter()
        .flatten()
        .map(|r| r.time_ms - HISTORY_START_MS)
        .max()
        .expect("non-empty log");

    let mut reference = AnswerCore::new(domain(), 0);
    let scanned = Store::open(&dir, StoreOptions::default())
        .and_then(|mut store| store.scan_all())
        .expect("scan_all");
    assert_eq!(scanned.records.len() as u64, written);
    reference.ingest(&scanned.records);

    let mut server = ServeServer::new(serve_options(&dir)).expect("restart");
    assert_eq!(server.stats().readings_preloaded, written);
    assert_eq!(server.core_stats().readings_indexed, 0, "nothing is loaded");
    assert_eq!(server.core_stats().history_blocks_read, 0, "nor read");

    let requests = predicate_sweep(seed, span_ms);
    for req in &requests {
        server.submit(1, *req).expect("queue has room");
    }
    let mut frames = Vec::new();
    server.tick(&mut frames).expect("tick");
    assert_eq!(server.stats().readings_drained, 0, "nothing live yet");
    assert_eq!(frames.len(), requests.len());
    let mut rows = 0;
    for (req, (_, frame)) in requests.iter().zip(&frames) {
        let payload = reference.answer_payload(&req.predicate()).unwrap();
        let mut expected = Vec::new();
        append_rows_frame(req.id, &payload, &mut expected);
        assert_eq!(frame, &expected, "{name}: request {} differs", req.id);
        rows += u32::from_le_bytes(payload[0..4].try_into().unwrap());
    }
    assert!(rows > 0, "{name}: the sweep matched stored rows");
    assert!(server.core_stats().history_blocks_read > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn time_ordered_log_streams_to_the_same_answers() {
    let mut rng = Rng(0x5C00_0001);
    let batches: Vec<_> = (0..5)
        .map(|b| records(&mut rng, 100, HISTORY_START_MS + b * 1_000, 10, domain()))
        .collect();
    assert_stream_equals_collect("ordered", &batches, 11);
}

#[test]
fn overlapping_segments_after_an_out_of_order_roll_stream_to_the_same_answers() {
    let mut rng = Rng(0x5C00_0002);
    // Narrow values: every bucket holds records from both halves, so the
    // later, older batch disorders each of them many blocks in a row.
    let narrow = ValueRange::new(domain().lo + 3, domain().lo + 12);
    let batches = vec![
        records(&mut rng, 200, HISTORY_START_MS + 2_000, 10, narrow),
        records(&mut rng, 300, HISTORY_START_MS, 10, narrow),
        records(&mut rng, 100, HISTORY_START_MS + 1_500, 7, narrow),
    ];
    assert_stream_equals_collect("overlap", &batches, 12);
}

#[test]
fn out_of_domain_values_stream_to_the_same_answers() {
    let mut rng = Rng(0x5C00_0003);
    // A log written under a wider spec: most values miss the domain on one
    // side or the other and land in the overflow bucket, out of order.
    let wide = ValueRange::new(domain().lo - 200, domain().hi + 200);
    let batches = vec![
        records(&mut rng, 200, HISTORY_START_MS + 1_000, 10, wide),
        records(&mut rng, 200, HISTORY_START_MS, 10, wide),
    ];
    assert_stream_equals_collect("overflow", &batches, 13);
}

#[test]
fn a_flipped_bit_in_a_middle_block_fails_the_first_tick_that_reads_it_with_a_typed_error() {
    let dir = scratch_dir("corrupt");
    let mut rng = Rng(0x5C00_0004);
    let batches: Vec<_> = (0..4)
        .map(|b| records(&mut rng, 100, HISTORY_START_MS + b * 1_000, 10, domain()))
        .collect();
    let (written, _) = write_log(&dir, &batches);

    // One payload bit of block 5 in the second segment file.
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let victim = &files[1];
    let damaged = Store::open(&dir, StoreOptions::default())
        .expect("open")
        .segments()
        .nth(1)
        .map(|segment| segment.dir()[5])
        .expect("second segment has a block 5");
    let mut bytes = std::fs::read(victim).unwrap();
    bytes[HEADER_LEN + 5 * BLOCK_SIZE + 8 + 21] ^= 0x04;
    std::fs::write(victim, &bytes).unwrap();

    // The restart reads no block, so it cannot see the damage.
    let mut server = ServeServer::new(serve_options(&dir)).expect("restart reads no block");
    assert_eq!(server.stats().readings_preloaded, written);
    let request = |id, lo_ms, hi_ms| ServeRequest {
        id,
        values: ValueRange::new(domain().lo - 1_000, domain().hi + 1_000),
        time_lo: SimTime::from_millis(lo_ms),
        time_hi: SimTime::from_millis(hi_ms),
    };

    // A window that ends before the damaged block is answered in full.
    let mut frames = Vec::new();
    let before = request(1, HISTORY_START_MS, damaged.first_time_ms - 1);
    server.submit(1, before).expect("queue has room");
    server
        .tick(&mut frames)
        .expect("the damaged block is not read");
    assert_eq!(frames.len(), 1);
    match scoop_types::ServeResponse::decode(&frames[0].1).expect("frame decodes") {
        scoop_types::ServeResponse::Rows(rows) => {
            let expected = batches
                .iter()
                .flatten()
                .filter(|r| r.time_ms < damaged.first_time_ms)
                .count();
            assert_eq!(rows.rows.len(), expected);
        }
        other => panic!("expected rows, got {other:?}"),
    }

    // The first tick whose predicate covers it fails, typed, with no frame.
    frames.clear();
    let covering = request(2, damaged.first_time_ms, damaged.last_time_ms);
    server.submit(1, covering).expect("queue has room");
    let error = server
        .tick(&mut frames)
        .expect_err("a damaged block must fail the tick that reads it");
    assert!(frames.is_empty(), "no short answer was emitted: {frames:?}");
    let ScoopError::Store(message) = &error else {
        panic!("expected a store error, got {error}");
    };
    let file_name = victim.file_name().unwrap().to_str().unwrap();
    assert!(
        message.contains("corrupt")
            && message.contains("block 5:")
            && message.contains("checksum mismatch")
            && message.contains(file_name),
        "error names the damaged file and block: {message}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn for_each_block_visits_every_block_once_and_counts_them() {
    let dir = scratch_dir("visit");
    let mut rng = Rng(0x5C00_0005);
    let batches = vec![
        records(&mut rng, 150, HISTORY_START_MS + 1_000, 10, domain()),
        records(&mut rng, 131, HISTORY_START_MS, 10, domain()),
    ];
    let (written, blocks) = write_log(&dir, &batches);

    let mut store = Store::open(&dir, StoreOptions::default()).expect("open");
    let (mut visits, mut seen) = (0usize, Vec::new());
    let read = store
        .for_each_block(|block| {
            assert!(!block.is_empty() && block.len() <= 4);
            visits += 1;
            seen.extend_from_slice(block);
        })
        .expect("stream");
    assert_eq!(visits, blocks);
    assert_eq!(read, blocks as u64);
    assert_eq!(store.stats().unwrap().blocks_read, blocks as u64);
    assert_eq!(seen.len() as u64, written);

    // Log order, once sorted, is what `scan_all` returns — and that scan
    // reads (and accounts for) every block again.
    seen.sort_unstable();
    let all = store.scan_all().expect("scan_all");
    assert_eq!(all.records, seen);
    assert_eq!(all.blocks_read, blocks as u64);
    assert_eq!(store.stats().unwrap().blocks_read, 2 * blocks as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}
