//! `scoop-lab store` — ingest readings into the durable basestation store,
//! query them back at rest, and inspect store statistics.
//!
//! ```text
//! scoop-lab store ingest --db DIR [--artifact FILE]... [--sim [--paper]]
//!                        [--set key=value]... [--block-size N] [--compact]
//!                        [--dump FILE]
//! scoop-lab store query  --db DIR (--at MS | --from MS --to MS | --all)
//!                        [--json] [--out FILE]
//! scoop-lab store stats  --db DIR [--json]
//! ```
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
use crate::suite::{ExperimentId, PointSet, Scale, SuiteOptions};
use scoop_store::{DiskBackend, IngestReport, PersistenceBackend, Store, StoreOptions, StoreStats};
use scoop_types::{Attribute, DurableRecord, NodeId, Reading, SimTime};
use serde::Serialize;
use std::path::{Path, PathBuf};

pub(crate) const STORE_USAGE: &str = "usage: scoop-lab store <ingest|query|stats> [options]
  ingest --db DIR [--artifact FILE]... [--sim [--paper]] [--set key=value]...
         [--block-size N] [--compact] [--dump FILE]
  query  --db DIR (--at MS | --from MS --to MS | --all) [--json] [--out FILE]
  stats  --db DIR [--json]";

/// Entry point for `scoop-lab store ...` (wired up in `cli.rs`).
pub(crate) fn cmd_store(
    args: &[String],
    parse: impl Fn(
        &[String],
        &[&str],
        &[&str],
    ) -> Result<(Vec<String>, Vec<String>, Vec<(String, String)>), String>,
) -> Result<i32, String> {
    let Some(sub) = args.first() else {
        return Err(STORE_USAGE.to_string());
    };
    let rest = &args[1..];
    match sub.as_str() {
        "ingest" => cmd_ingest(rest, &parse),
        "query" => cmd_query(rest, &parse),
        "stats" => cmd_stats(rest, &parse),
        other => Err(format!("unknown store subcommand `{other}`\n{STORE_USAGE}")),
    }
}

type Parsed = (Vec<String>, Vec<String>, Vec<(String, String)>);

fn required_db(values: &[(String, String)]) -> Result<PathBuf, String> {
    values
        .iter()
        .rev()
        .find(|(n, _)| n == "db")
        .map(|(_, v)| PathBuf::from(v))
        .ok_or_else(|| "store commands need --db DIR".to_string())
}

/// Opens the store at `--db`. Only `ingest` may `create` one; the read-only
/// subcommands refuse a path that is not an existing directory.
fn open_store(values: &[(String, String)], create: bool) -> Result<Store, String> {
    let db = required_db(values)?;
    if !create && !db.is_dir() {
        return Err(format!("no store at `{}`", db.display()));
    }
    let mut options = StoreOptions::default();
    if let Some((_, raw)) = values.iter().rev().find(|(n, _)| n == "block-size") {
        options.block_size = raw
            .parse()
            .map_err(|_| format!("bad --block-size value `{raw}`"))?;
    }
    Store::open(&db, options).map_err(|e| e.to_string())
}

/// Deterministically maps one results artifact to durable records: row `i`
/// becomes node `i + 1`, metric `j` of that row becomes attribute code
/// `j mod |Attribute::ALL|`, values are rounded to integers, and timestamps
/// count up in 1-second steps in (row, metric) order. The mapping carries no
/// sensor semantics — it exists so the same artifact always yields the same
/// bytes, which the CI round-trip diffs.
pub(crate) fn records_from_artifact(artifact: &Artifact) -> Result<Vec<DurableRecord>, String> {
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
        trials: 1,
        seed: 1,
        points: PointSet::Full,
        experiments: ExperimentId::ALL.to_vec(),
        overrides,
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

fn cmd_ingest(
    args: &[String],
    parse: &impl Fn(&[String], &[&str], &[&str]) -> Result<Parsed, String>,
) -> Result<i32, String> {
    let (positional, flags, values) = parse(
        args,
        &["db", "artifact", "set", "block-size", "dump"],
        &["sim", "paper", "compact"],
    )?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let sim = flags.iter().any(|f| f == "sim");
    let paper = flags.iter().any(|f| f == "paper");
    let compact = flags.iter().any(|f| f == "compact");
    let artifact_paths: Vec<&str> = values
        .iter()
        .filter(|(n, _)| n == "artifact")
        .map(|(_, v)| v.as_str())
        .collect();
    if artifact_paths.is_empty() && !sim {
        return Err("nothing to ingest: pass --artifact FILE and/or --sim".into());
    }

    let mut records: Vec<DurableRecord> = Vec::new();
    for path in &artifact_paths {
        records.extend(records_from_artifact(&load_artifact(path)?)?);
    }

    let mut store = open_store(&values, true)?;
    let mut report = IngestReport::default();
    if !records.is_empty() {
        report = store.append_batch(&records).map_err(|e| e.to_string())?;
    }
    if sim {
        let overrides: Vec<(String, String)> = values
            .iter()
            .filter(|(n, _)| n == "set")
            .map(|(_, payload)| {
                payload
                    .split_once('=')
                    .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                    .ok_or_else(|| format!("--set needs key=value, got `{payload}`"))
            })
            .collect::<Result<_, _>>()?;
        let readings = records_from_sim(paper, overrides)?;
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
    if compact {
        store.compact_all_blocking().map_err(|e| e.to_string())?;
    }
    let stats = store.stats().map_err(|e| e.to_string())?;

    println!(
        "ingested {} record(s) in {:.3} s ({:.0} records/s) into {}",
        report.records,
        report.ingest_secs,
        report.records_per_sec,
        store.dir().display()
    );
    println!(
        "store: {} segment(s), {} block(s), {} bytes on disk",
        stats.segments, stats.blocks, stats.disk_bytes
    );

    if let Some((_, dump)) = values.iter().rev().find(|(n, _)| n == "dump") {
        std::fs::write(dump, records_json(&records)?).map_err(|e| format!("{dump}: {e}"))?;
        println!("dumped canonical ingest set to {dump}");
    }
    Ok(0)
}

fn cmd_query(
    args: &[String],
    parse: &impl Fn(&[String], &[&str], &[&str]) -> Result<Parsed, String>,
) -> Result<i32, String> {
    let (positional, flags, values) = parse(
        args,
        &["db", "at", "from", "to", "out", "block-size"],
        &["json", "all"],
    )?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let json = flags.iter().any(|f| f == "json");
    let all = flags.iter().any(|f| f == "all");
    let parse_ms = |name: &str| -> Result<Option<u64>, String> {
        values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, raw)| {
                raw.parse()
                    .map_err(|_| format!("bad --{name} value `{raw}`"))
            })
            .transpose()
    };
    let at = parse_ms("at")?;
    let from = parse_ms("from")?;
    let to = parse_ms("to")?;

    let mut store = open_store(&values, false)?;
    let outcome = match (at, from, to, all) {
        (Some(t), None, None, false) => store.query_point(t),
        (None, Some(a), Some(b), false) => store.query_range(a, b),
        (None, None, None, true) => store.scan_all(),
        _ => return Err("pass exactly one of --at MS, --from MS --to MS, or --all".into()),
    }
    .map_err(|e| e.to_string())?;

    if json {
        let payload = records_json(&outcome.records)?;
        match values.iter().rev().find(|(n, _)| n == "out") {
            Some((_, out)) => {
                std::fs::write(out, payload).map_err(|e| format!("{out}: {e}"))?;
            }
            None => print!("{payload}"),
        }
    } else {
        for r in &outcome.records {
            let attribute = scoop_types::attribute_from_code(r.attribute)
                .map(|a| a.to_string())
                .unwrap_or_else(|| format!("code-{}", r.attribute));
            println!(
                "t={:>10} ms  node={:<5} {:<12} value={}",
                r.time_ms, r.node.0, attribute, r.value
            );
        }
        println!(
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

fn cmd_stats(
    args: &[String],
    parse: &impl Fn(&[String], &[&str], &[&str]) -> Result<Parsed, String>,
) -> Result<i32, String> {
    let (positional, flags, values) = parse(args, &["db", "block-size"], &["json"])?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let store = open_store(&values, false)?;
    let stats = store.stats().map_err(|e| e.to_string())?;
    let recovered = store
        .recovery_report()
        .iter()
        .filter(|(_, outcome)| !matches!(outcome, scoop_store::RecoveryOutcome::Sealed))
        .count();
    if flags.iter().any(|f| f == "json") {
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
        println!(
            "{}",
            serde_json::to_string_pretty(&payload).map_err(|e| e.to_string())?
        );
    } else {
        print_stats_text(&stats, recovered, store.dir());
    }
    Ok(0)
}

fn print_stats_text(stats: &StoreStats, recovered: usize, dir: &Path) {
    println!("store at {}", dir.display());
    println!(
        "  {} segment(s), {} block(s), {} record(s), {} bytes on disk",
        stats.segments, stats.blocks, stats.records, stats.disk_bytes
    );
    println!(
        "  time span: {} .. {} ms",
        stats.min_time_ms, stats.max_time_ms
    );
    println!(
        "  session: {} data block(s) read, {} segment(s) recovered on open",
        stats.blocks_read, recovered
    );
}
