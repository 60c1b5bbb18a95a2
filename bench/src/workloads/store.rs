//! The store workloads: a 4M-record log written then read (`store-bulk`),
//! and appends interleaved with lookups (`store-mixed`). Every answer is
//! compared with an in-memory model of the generated records.
//!
//! Flush policy: `Store::append_batch` fsyncs once per batch and every seal
//! fsyncs the segment and its directory, on both sides of any comparison.
//! Reads are served from the operating system's page cache; the latencies
//! are the sandbox's, not a device's.

use super::{fastest, timed, total_rate, Ctx};
use crate::check::LogModel;
use crate::gen;
use crate::micro::ns_per_call;
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::sys::DataDir;
use scoop::store::block::{decode_block, encode_block};
use scoop::store::{records_per_block, Store, StoreOptions, TimeIndex, DEFAULT_BLOCK_SIZE};
use scoop::types::DurableRecord;
use std::hint::black_box;
use std::path::Path;

const BULK_RECORDS: usize = 4_000_000;
const BULK_BATCH: usize = 4_096;
/// One serve tick's drain: a reading from each of the 62 sensors.
const ROUND_BATCH: usize = gen::LOG_NODES as usize;
/// The mixed workload's base log: 8,065 sampling rounds, ≈ 500k records.
const MIXED_BASE: usize = 8_065 * ROUND_BATCH;
/// How many times the populated log is opened for `setup_s`.
const OPENS: usize = 100;

fn err(e: scoop::store::StoreError) -> String {
    e.to_string()
}

/// Segment ids allocated so far, read from the store's documented file
/// naming (`seg-<id>.scoop`, ids only grow). Every seal allocates one id and
/// so does every compaction, so id growth counts both.
fn segment_ids_allocated(store: &Store) -> u64 {
    store
        .segments()
        .filter_map(|segment| {
            let stem = segment.path().file_stem()?.to_str()?;
            stem.strip_prefix("seg-")?.parse::<u64>().ok()
        })
        .max()
        .map_or(0, |id| id + 1)
}

/// What a timed batch of point lookups produced.
struct Lookups {
    /// Seconds per lookup.
    latencies: Vec<f64>,
    blocks_read: u64,
}

/// Looks up the time of each `indices[i]`-th model record and compares the
/// answer with the model's.
fn point_lookups(
    ctx: &mut Ctx,
    store: &mut Store,
    model: &LogModel,
    indices: &[usize],
) -> Result<Lookups, String> {
    let mut out = Lookups {
        latencies: Vec::with_capacity(indices.len()),
        blocks_read: 0,
    };
    let mut wrong = 0;
    for &i in indices {
        let t = model.record(i).time_ms;
        let (secs, outcome) = ctx
            .tracer
            .span("store.query_point", || timed(|| store.query_point(t)));
        let outcome = outcome.map_err(err)?;
        out.latencies.push(secs);
        out.blocks_read += outcome.blocks_read;
        wrong += u64::from(outcome.records != model.point(t));
    }
    ctx.report.check_many(
        indices.len() as u64,
        wrong,
        "point lookups disagree with the model",
    );
    Ok(out)
}

fn record_point_metrics(ctx: &mut Ctx, lookups: &Lookups) {
    let us = sorted(lookups.latencies.iter().map(|s| s * 1e6).collect());
    ctx.report.set_n(
        "store_point_p50_us",
        percentile(&us, 0.5).unwrap_or(0.0),
        us.len(),
    );
    if let Some(p99) = tail_percentile(&us, 0.99) {
        ctx.report.set_n("store_point_p99_us", p99, us.len());
    }
    ctx.report.set(
        "store.point_blocks_per_lookup",
        lookups.blocks_read as f64 / us.len().max(1) as f64,
    );
}

/// Opens the populated log [`OPENS`] times — the read side's set-up:
/// segment footers, block directories and learned indexes load here — and
/// returns the last handle.
fn reopen(ctx: &mut Ctx, db: &Path, options: StoreOptions) -> Result<Store, String> {
    let (secs, store) = fastest(OPENS, || {
        ctx.tracer.span("store.open", || Store::open(db, options))
    });
    ctx.report.set_n("setup_s", secs, OPENS);
    ctx.report.set("store.open_ms", secs * 1e3);
    store.map_err(err)
}

/// Appends `records` in `batch`-sized calls, returning the seconds each
/// call took.
fn append_all(
    ctx: &mut Ctx,
    store: &mut Store,
    records: &[DurableRecord],
    batch: usize,
) -> Result<Vec<f64>, String> {
    records
        .chunks(batch)
        .map(|chunk| {
            let (secs, report) = ctx
                .tracer
                .span("store.append_batch", || timed(|| store.append_batch(chunk)));
            report.map(|_| secs).map_err(err)
        })
        .collect()
}

// -------------------------------------------------------------- store-bulk

/// `store-bulk`: ingest, commit, drop, reopen, then read-only lookups.
pub fn bulk(ctx: &mut Ctx) -> Result<(), String> {
    let dir = DataDir::create("store-bulk").map_err(|e| e.to_string())?;
    let db = dir.sub("db");
    let options = StoreOptions::default();
    let records = gen::records(ctx.seed, BULK_RECORDS, 0);

    let run_span = ctx.tracer.begin("store.bulk");
    let mut store = Store::open(&db, options).map_err(err)?;
    let batch_secs = append_all(ctx, &mut store, &records, BULK_BATCH)?;
    let (commit_secs, committed) = ctx.tracer.span("store.commit", || timed(|| store.commit()));
    committed.map_err(err)?;
    let ingest_secs = batch_secs.iter().sum::<f64>() + commit_secs;
    let stats = store.stats().map_err(err)?;
    let ids_allocated = segment_ids_allocated(&store);
    drop(store);

    let mut store = reopen(ctx, &db, options)?;

    let model = LogModel::new(records);
    let indices = gen::lookup_indices(ctx.seed, 3, ctx.scaled(200_000, 20_000), model.len());
    let lookups = point_lookups(ctx, &mut store, &model, &indices)?;

    let ranges = gen::time_ranges(
        ctx.seed,
        4,
        ctx.scaled(10_000, 1_000),
        model.time_span(),
        0.001,
    );
    let mut range_slices = Vec::with_capacity(ranges.len());
    let (mut range_blocks, mut wrong) = (0, 0);
    for &(t0, t1) in &ranges {
        let (secs, outcome) = ctx
            .tracer
            .span("store.query_range", || timed(|| store.query_range(t0, t1)));
        let outcome = outcome.map_err(err)?;
        range_slices.push((outcome.records.len() as f64, secs));
        range_blocks += outcome.blocks_read;
        wrong += u64::from(outcome.records != model.range(t0, t1));
    }
    ctx.tracer.end(run_span);
    ctx.report.check_many(
        ranges.len() as u64,
        wrong,
        "range queries disagree with the model",
    );

    let read_secs: f64 =
        lookups.latencies.iter().sum::<f64>() + range_slices.iter().map(|s| s.1).sum::<f64>();
    record_point_metrics(ctx, &lookups);
    ctx.report.set("run_s", ingest_secs + read_secs);
    ctx.report.set(
        "store_ingest_records_per_s",
        BULK_RECORDS as f64 / ingest_secs,
    );
    ctx.report.set_n(
        "store_range_rows_per_s",
        total_rate(&range_slices),
        range_slices.len(),
    );
    ctx.report.set(
        "store_bytes_per_record",
        stats.disk_bytes as f64 / stats.records.max(1) as f64,
    );
    ctx.report.check(stats.records == BULK_RECORDS as u64, || {
        format!("store holds {} of {BULK_RECORDS} records", stats.records)
    });
    ctx.report.set(
        "store.range_blocks_per_lookup",
        range_blocks as f64 / ranges.len().max(1) as f64,
    );
    let after_reads = store.stats().map_err(err)?;
    ctx.report.set(
        "store.index_fallback_lookups",
        after_reads.index_fallback_lookups as f64,
    );
    ctx.report
        .set("store.pla_segments", stats.pla_segments as f64);
    ctx.report.set("store.segments.bulk", stats.segments as f64);
    ctx.report
        .set("store.index_build_s", stats.index_build_secs);
    // Ingest seals once per full segment plus once for the tail; every
    // other id went to a compaction output.
    let seals = BULK_RECORDS.div_ceil(options.seal_after_records as usize) as u64;
    ctx.report.set(
        "store.compactions",
        ids_allocated.saturating_sub(seals) as f64,
    );
    // A batch that crosses the seal threshold also seals (and may compact);
    // the plain append cost is the median of the others.
    let per_seal = (options.seal_after_records as usize / BULK_BATCH).max(1);
    let plain: Vec<f64> = batch_secs
        .iter()
        .enumerate()
        .filter(|(i, _)| (i + 1) % per_seal != 0)
        .map(|(_, s)| s * 1e6)
        .collect();
    ctx.report.set_n(
        "store.append_us_per_batch.b4096",
        median(&plain),
        plain.len(),
    );

    if ctx.traced() {
        index_micro(ctx, &store, &model)?;
        ctx.report
            .set("store.seal_ms", seal_ms(&dir.sub("seal"), &model)?);
        let (secs, compacted) = timed(|| store.compact_all_blocking());
        compacted.map_err(err)?;
        ctx.report.set("store.compact_s", secs);
    }
    Ok(())
}

/// Block decode and the two time indexes, on the largest sealed segment.
fn index_micro(ctx: &mut Ctx, store: &Store, model: &LogModel) -> Result<(), String> {
    let per_block = records_per_block(DEFAULT_BLOCK_SIZE);
    let sample: Vec<DurableRecord> = (0..per_block).map(|i| *model.record(i)).collect();
    let block = encode_block(&sample, DEFAULT_BLOCK_SIZE);
    ctx.report.set(
        "store.block_decode_ns",
        ns_per_call(5, 20_000, |i| {
            black_box(
                decode_block(&block, DEFAULT_BLOCK_SIZE, Path::new("bench"), i as usize).ok(),
            );
        }),
    );
    let segment = store
        .segments()
        .max_by_key(|s| s.block_count())
        .ok_or("bulk store has no sealed segment")?;
    let (dir, lo, hi) = (segment.dir(), segment.min_time_ms(), segment.max_time_ms());
    let mut rng = gen::Rng::new(ctx.seed, 5);
    let times: Vec<u64> = (0..65_536).map(|_| lo + rng.below(hi - lo + 1)).collect();
    let probe = |index: &dyn TimeIndex| {
        ns_per_call(5, times.len() as u64, |i| {
            black_box(index.first_block_for(times[i as usize], dir));
        })
    };
    ctx.report
        .set("store.learned_lookup_ns", probe(segment.learned_index()));
    ctx.report
        .set("store.btree_lookup_ns", probe(segment.reference_index()));
    Ok(())
}

/// Milliseconds `commit` takes on one full default-sized segment.
fn seal_ms(db: &Path, model: &LogModel) -> Result<f64, String> {
    let full = StoreOptions::default().seal_after_records as usize;
    let options = StoreOptions {
        seal_after_records: u64::MAX,
        ..StoreOptions::default()
    };
    let mut store = Store::open(db, options).map_err(err)?;
    let records: Vec<DurableRecord> = (0..full).map(|i| *model.record(i)).collect();
    for chunk in records.chunks(BULK_BATCH) {
        store.append_batch(chunk).map_err(err)?;
    }
    let (secs, sealed) = timed(|| store.commit());
    sealed.map_err(err)?;
    Ok(secs * 1e3)
}

// ------------------------------------------------------------- store-mixed

/// `store-mixed`: on a ≈ 500k-record base, rounds of one 62-record append
/// followed by one lookup, then read-only lookups over the fragmented log.
pub fn mixed(ctx: &mut Ctx) -> Result<(), String> {
    let dir = DataDir::create("store-mixed").map_err(|e| e.to_string())?;
    let options = StoreOptions::default();
    let rounds = ctx.scaled(1_500, 150);
    let all = gen::records(ctx.seed, MIXED_BASE + rounds * ROUND_BATCH, 0);
    let (base, tail) = all.split_at(MIXED_BASE);

    // The base log is preparation; set-up is opening it.
    let db = dir.sub("db");
    let mut base_store = Store::open(&db, options).map_err(err)?;
    for chunk in base.chunks(BULK_BATCH) {
        base_store.append_batch(chunk).map_err(err)?;
    }
    base_store.commit().map_err(err)?;
    drop(base_store);
    let mut store = reopen(ctx, &db, options)?;

    let mut model = LogModel::new(base.to_vec());
    let picks = gen::lookup_indices(ctx.seed, 6, rounds, MIXED_BASE);
    let mut ids_allocated = segment_ids_allocated(&store);
    let mut seals = 0u64;
    let run_span = ctx.tracer.begin("store.mixed");
    let mut append_us = Vec::with_capacity(rounds);
    let mut lookup_secs = Vec::with_capacity(rounds);
    let mut wrong = 0;
    for (batch, &pick) in tail.chunks(ROUND_BATCH).zip(&picks) {
        let secs = append_all(ctx, &mut store, batch, ROUND_BATCH)?;
        append_us.push(secs[0] * 1e6);
        model.extend_sorted(batch);
        let t = model.record(pick).time_ms;
        let (secs, outcome) = ctx
            .tracer
            .span("store.query_point", || timed(|| store.query_point(t)));
        lookup_secs.push(secs);
        wrong += u64::from(outcome.map_err(err)?.records != model.point(t));
        // A round allocates one id if its lookup's implicit commit sealed,
        // and a second one if that seal also triggered a compaction.
        let now = segment_ids_allocated(&store);
        seals += u64::from(now > ids_allocated);
        ids_allocated = now;
    }
    ctx.report.check_many(
        rounds as u64,
        wrong,
        "interleaved lookups disagree with the model",
    );
    let mixed_stats = store.stats().map_err(err)?;

    // Read-only lookups over what the rounds left behind: many small
    // segments beside the compacted base.
    let indices = gen::lookup_indices(ctx.seed, 7, ctx.scaled(50_000, 5_000), model.len());
    let lookups = point_lookups(ctx, &mut store, &model, &indices)?;
    ctx.tracer.end(run_span);

    record_point_metrics(ctx, &lookups);
    let round_secs = append_us.iter().sum::<f64>() / 1e6 + lookup_secs.iter().sum::<f64>();
    ctx.report
        .set("run_s", round_secs + lookups.latencies.iter().sum::<f64>());
    ctx.report.set_n(
        "store_ingest_records_per_s",
        (rounds * ROUND_BATCH) as f64 / round_secs,
        rounds,
    );
    ctx.report.set(
        "store_bytes_per_record",
        mixed_stats.disk_bytes as f64 / mixed_stats.records.max(1) as f64,
    );
    ctx.report
        .check(mixed_stats.records == model.len() as u64, || {
            format!(
                "store holds {} of {} records",
                mixed_stats.records,
                model.len()
            )
        });
    ctx.report.set_n(
        "store.append_us_per_batch.b62",
        median(&append_us),
        append_us.len(),
    );
    ctx.report
        .set("store.segments.mixed", mixed_stats.segments as f64);
    ctx.report
        .set("store.seals_per_lookup.mixed", seals as f64 / rounds as f64);
    Ok(())
}
