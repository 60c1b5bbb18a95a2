//! `scoop-lab store ingest | query | stats` — ingest readings into the
//! durable basestation store, query them back at rest, and inspect store
//! statistics. `scoop-lab help` lists each command's options.
//!
//! Two ingest sources exist. `--artifact` maps the measured rows of a
//! committed results artifact to records **deterministically** (row and
//! metric order fix node, attribute, time, and value), which is what the CI
//! round-trip relies on: ingest `results/fig3-left.json`, restart, query
//! everything back, and the dumped and queried JSON must match byte for
//! byte. `--sim` runs a simulation (quick scale by default, `--paper` for
//! the full paper scale) and persists every reading held in the network's
//! data buffers through the [`DiskBackend`] seam — the "full run's readings
//! are ingestible" path.

use crate::artifact::Artifact;
use crate::cli::{parse_set, Args, Out};
use crate::suite::{Scale, SuiteOptions};
use scoop_store::{DiskBackend, IngestReport, PersistenceBackend, Store, StoreOptions, StoreStats};
use scoop_types::{Attribute, DurableRecord, NodeId, Reading, SimTime};
use serde::Serialize;
use std::path::Path;

/// Opens the store at `--db`. Only `ingest` may `create` one, and only it
/// takes `--block-size` (a read commits nothing); the read-only commands
/// open with the default options and refuse a path that is not an existing
/// directory.
fn open_store(args: &Args, create: bool) -> Result<Store, String> {
    let db = Path::new(args.value("db").ok_or("store commands need --db DIR")?);
    if !create && !db.is_dir() {
        return Err(format!("no store at `{}`", db.display()));
    }
    let defaults = StoreOptions::default();
    let options = StoreOptions {
        block_size: args.number("block-size", defaults.block_size)?,
        ..defaults
    };
    Store::open(db, options).map_err(|e| e.to_string())
}

/// Deterministically maps one results artifact to durable records: row `i`
/// becomes node `i + 1`, metric `j` of that row becomes attribute code
/// `j mod |Attribute::ALL|`, values are rounded to integers, and timestamps
/// count up in 1-second steps in (row, metric) order. The mapping carries no
/// sensor semantics — it exists so the same artifact always yields the same
/// bytes, which the CI round-trip diffs.
fn records_from_artifact(artifact: &Artifact) -> Result<Vec<DurableRecord>, String> {
    let reference_key = artifact.experiment_id().and_then(|id| id.reference_key());
    let rows = artifact.rows.measured_rows(reference_key);
    if rows.is_empty() {
        return Err(format!(
            "artifact `{}` has no measured rows",
            artifact.experiment
        ));
    }
    let mut records = Vec::new();
    let mut tick = 0u64;
    for (i, row) in rows.iter().enumerate() {
        for (j, (_, value)) in row.metrics.iter().enumerate() {
            tick += 1;
            records.push(DurableRecord {
                time_ms: tick * 1000,
                node: NodeId((i + 1) as u16),
                attribute: (j % Attribute::ALL.len()) as u8,
                value: value.round() as i32,
            });
        }
    }
    Ok(records)
}

fn load_artifact(path: &str) -> Result<Artifact, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Runs a simulation and returns every reading sitting in the network's
/// data buffers at the end — the readings a basestation would persist.
fn records_from_sim(paper: bool, overrides: Vec<(String, String)>) -> Result<Vec<Reading>, String> {
    let options = SuiteOptions {
        scale: if paper { Scale::Paper } else { Scale::Quick },
        overrides,
        // One trial on seed 1; the experiment list and points are unused.
        ..SuiteOptions::quick_smoke()
    };
    let config = options.base_config().map_err(|e| e.to_string())?;
    let mut engine = scoop_sim::build_engine(&config).map_err(|e| e.to_string())?;
    engine.run_until(SimTime::ZERO + config.duration);
    let mut readings = Vec::new();
    for (_, node) in engine.iter_nodes() {
        readings.extend(node.data_buffer().iter().copied());
    }
    Ok(readings)
}

/// One canonical JSON rendering of a record set, shared by `--dump` and
/// `query --json` so a round trip can be diffed byte for byte.
fn records_json(records: &[DurableRecord]) -> Result<String, String> {
    let mut sorted = records.to_vec();
    sorted.sort_unstable();
    let mut json = serde_json::to_string_pretty(&sorted).map_err(|e| e.to_string())?;
    json.push('\n');
    Ok(json)
}

pub(crate) fn ingest(args: &Args, out: &mut Out<'_>) -> Result<i32, String> {
    let sim = args.flag("sim");
    if !sim && (args.flag("paper") || args.value("set").is_some()) {
        return Err("--paper and --set configure --sim; pass --sim too".into());
    }
    let artifact_paths: Vec<&str> = args.values("artifact").collect();
    if artifact_paths.is_empty() && !sim {
        return Err("nothing to ingest: pass --artifact FILE and/or --sim".into());
    }

    let mut records: Vec<DurableRecord> = Vec::new();
    for path in &artifact_paths {
        records.extend(records_from_artifact(&load_artifact(path)?)?);
    }

    let mut store = open_store(args, true)?;
    let mut report = IngestReport::default();
    if !records.is_empty() {
        report = store.append_batch(&records).map_err(|e| e.to_string())?;
    }
    if sim {
        let overrides = args
            .values("set")
            .map(parse_set)
            .collect::<Result<_, _>>()?;
        let readings = records_from_sim(args.flag("paper"), overrides)?;
        // Persist through the opt-in backend seam, exactly as an attached
        // basestation would; then fold the store back out for the summary.
        let started = std::time::Instant::now();
        let mut backend = DiskBackend::from_store(store);
        backend.append_batch(&readings).map_err(|e| e.to_string())?;
        backend.sync().map_err(|e| e.to_string())?;
        let persisted = backend.records_persisted();
        store = backend.into_store();
        records.extend(readings.iter().map(DurableRecord::from_reading));
        report.records += persisted;
        report.ingest_secs += started.elapsed().as_secs_f64();
    }
    report.records_per_sec = if report.ingest_secs > 0.0 {
        report.records as f64 / report.ingest_secs
    } else {
        0.0
    };
    store.commit().map_err(|e| e.to_string())?;
    if args.flag("compact") {
        store.compact_all_blocking().map_err(|e| e.to_string())?;
    }
    let stats = store.stats().map_err(|e| e.to_string())?;

    writeln!(
        out,
        "ingested {} record(s) in {:.3} s ({:.0} records/s) into {}",
        report.records,
        report.ingest_secs,
        report.records_per_sec,
        store.dir().display()
    );
    writeln!(
        out,
        "store: {} segment(s), {} block(s), {} bytes on disk",
        stats.segments, stats.blocks, stats.disk_bytes
    );

    if let Some(dump) = args.value("dump") {
        std::fs::write(dump, records_json(&records)?).map_err(|e| format!("{dump}: {e}"))?;
        writeln!(out, "dumped canonical ingest set to {dump}");
    }
    Ok(0)
}

pub(crate) fn query(args: &Args, out: &mut Out<'_>) -> Result<i32, String> {
    let (at, from, to, all) = (
        args.value("at").is_some(),
        args.value("from").is_some(),
        args.value("to").is_some(),
        args.flag("all"),
    );
    if [at, from || to, all].iter().filter(|&&given| given).count() != 1 || from != to {
        return Err("pass exactly one of --at MS, --from MS --to MS, or --all".into());
    }
    let time = args.number("at", 0)?;
    let (lo, hi) = args.bounds(("from", 0), ("to", 0))?;

    let mut store = open_store(args, false)?;
    let outcome = if at {
        store.query_point(time)
    } else if all {
        store.scan_all()
    } else {
        store.query_range(lo, hi)
    }
    .map_err(|e| e.to_string())?;

    if args.flag("json") {
        let payload = records_json(&outcome.records)?;
        match args.value("out") {
            Some(path) => std::fs::write(path, payload).map_err(|e| format!("{path}: {e}"))?,
            None => write!(out, "{payload}"),
        }
    } else {
        for r in &outcome.records {
            let attribute = scoop_types::attribute_from_code(r.attribute)
                .map(|a| a.to_string())
                .unwrap_or_else(|| format!("code-{}", r.attribute));
            writeln!(
                out,
                "t={:>10} ms  node={:<5} {:<12} value={}",
                r.time_ms, r.node.0, attribute, r.value
            );
        }
        writeln!(
            out,
            "{} record(s), {} data block(s) read",
            outcome.records.len(),
            outcome.blocks_read
        );
    }
    Ok(0)
}

/// The JSON shape of `store stats --json` (scoop-store itself carries no
/// serde dependency; this mirror keeps the serialization concern here).
#[derive(Serialize)]
struct StatsJson {
    segments: usize,
    blocks: usize,
    records: u64,
    disk_bytes: u64,
    blocks_read: u64,
    min_time_ms: u64,
    max_time_ms: u64,
    recovered_segments: usize,
}

pub(crate) fn stats(args: &Args, out: &mut Out<'_>) -> Result<i32, String> {
    let store = open_store(args, false)?;
    let stats = store.stats().map_err(|e| e.to_string())?;
    let recovered = store
        .recovery_report()
        .iter()
        .filter(|(_, outcome)| !matches!(outcome, scoop_store::RecoveryOutcome::Sealed))
        .count();
    if args.flag("json") {
        let payload = StatsJson {
            segments: stats.segments,
            blocks: stats.blocks,
            records: stats.records,
            disk_bytes: stats.disk_bytes,
            blocks_read: stats.blocks_read,
            min_time_ms: stats.min_time_ms,
            max_time_ms: stats.max_time_ms,
            recovered_segments: recovered,
        };
        let json = serde_json::to_string_pretty(&payload).map_err(|e| e.to_string())?;
        writeln!(out, "{json}");
    } else {
        print_stats_text(out, &stats, recovered, store.dir());
    }
    Ok(0)
}

fn print_stats_text(out: &mut Out<'_>, stats: &StoreStats, recovered: usize, dir: &Path) {
    writeln!(out, "store at {}", dir.display());
    writeln!(
        out,
        "  {} segment(s), {} block(s), {} record(s), {} bytes on disk",
        stats.segments, stats.blocks, stats.records, stats.disk_bytes
    );
    writeln!(
        out,
        "  time span: {} .. {} ms",
        stats.min_time_ms, stats.max_time_ms
    );
    writeln!(
        out,
        "  session: {} data block(s) read, {} segment(s) recovered on open",
        stats.blocks_read, recovered
    );
}
