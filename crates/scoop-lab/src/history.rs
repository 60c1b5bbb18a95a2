//! Per-commit experiment timing history (`BENCH_history.jsonl`).
//!
//! Every `scoop-lab run --history <file>` appends one JSON line recording
//! the wall-clock and events/s of each experiment in the run, keyed by git
//! revision. That is the file's one job: it is a record, not a gate — wall
//! clock on a shared host varies too much to fail a build on. Store and
//! serve numbers come from the repository benchmark (`bench/run.sh`). JSONL
//! appends never rewrite history, so the file is merge-friendly.

use crate::artifact::Artifact;
use scoop_types::ScoopError;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

/// One experiment's timing within a history record.
///
/// The throughput fields carry `#[serde(default)]` so records appended
/// before they existed still parse (as zero).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentTiming {
    /// Experiment slug.
    pub experiment: String,
    /// Rows produced.
    pub rows: usize,
    /// Wall-clock seconds.
    pub wall_clock_secs: f64,
    /// Engine events dispatched (0 in pre-throughput records).
    #[serde(default)]
    pub events_processed: u64,
    /// Events per wall-clock second (0 in pre-throughput records).
    #[serde(default)]
    pub events_per_sec: f64,
    /// Process peak RSS in bytes when the experiment finished (0 in
    /// pre-memory records). A monotone high-water mark: within one run it
    /// only grows across experiments.
    #[serde(default)]
    pub peak_rss_bytes: u64,
}

/// One appended line of `BENCH_history.jsonl`.
///
/// Lines written by older revisions may carry keys this struct no longer
/// has (the retired `store_*` / `serve_*` families); deserialization ignores
/// them, so the committed file still loads.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistoryRecord {
    /// Git revision the suite ran at.
    pub git_rev: String,
    /// Scale name (`"paper"` / `"quick"`).
    pub scale: String,
    /// Trials per scenario.
    pub trials: usize,
    /// Sweep worker threads.
    pub threads: usize,
    /// Cores the host offered (`available_parallelism`; 0 in records
    /// appended before it was recorded).
    #[serde(default)]
    pub nproc: usize,
    /// Sum of per-experiment wall-clocks.
    pub total_wall_clock_secs: f64,
    /// Sum of per-experiment dispatched events (0 in pre-throughput records).
    #[serde(default)]
    pub total_events_processed: u64,
    /// Peak RSS in bytes over the whole run — the maximum of the
    /// per-experiment high-water marks (0 in pre-memory records).
    #[serde(default)]
    pub peak_rss_bytes: u64,
    /// Per-experiment timings, in suite order.
    pub experiments: Vec<ExperimentTiming>,
}

impl HistoryRecord {
    /// Summarizes one finished suite run.
    pub fn from_artifacts(artifacts: &[Artifact]) -> Option<HistoryRecord> {
        let first = artifacts.first()?;
        let experiments: Vec<ExperimentTiming> = artifacts
            .iter()
            .map(|a| ExperimentTiming {
                experiment: a.experiment.clone(),
                rows: a.rows.len(),
                wall_clock_secs: a.provenance.wall_clock_secs,
                events_processed: a.provenance.events_processed,
                events_per_sec: a.provenance.events_per_sec,
                peak_rss_bytes: a.provenance.peak_rss_bytes,
            })
            .collect();
        Some(HistoryRecord {
            git_rev: first.provenance.git_rev.clone(),
            scale: first.scale.clone(),
            trials: first.trials,
            threads: first.provenance.threads,
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            total_wall_clock_secs: experiments.iter().map(|e| e.wall_clock_secs).sum(),
            total_events_processed: experiments.iter().map(|e| e.events_processed).sum(),
            peak_rss_bytes: experiments
                .iter()
                .map(|e| e.peak_rss_bytes)
                .max()
                .unwrap_or(0),
            experiments,
        })
    }

    /// Aggregate events per second over the whole run.
    pub fn events_per_sec(&self) -> f64 {
        if self.total_wall_clock_secs > 0.0 {
            self.total_events_processed as f64 / self.total_wall_clock_secs
        } else {
            0.0
        }
    }

    /// Appends this record as one line of `path`, creating the file if
    /// needed.
    pub fn append_to(&self, path: &Path) -> Result<(), ScoopError> {
        let line =
            serde_json::to_string(self).map_err(|e| ScoopError::Serialization(e.to_string()))?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| ScoopError::Artifact(format!("{}: {e}", path.display())))?;
        writeln!(file, "{line}")
            .map_err(|e| ScoopError::Artifact(format!("{}: {e}", path.display())))
    }
}

/// Loads every record of a `BENCH_history.jsonl` file, in append order.
/// Blank lines are skipped; a malformed line is an error (a truncated write
/// should be reported, not silently vanish).
pub fn load_history(path: &Path) -> Result<Vec<HistoryRecord>, ScoopError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScoopError::Artifact(format!("{}: {e}", path.display())))?;
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            serde_json::from_str(line)
                .map_err(|e| ScoopError::Serialization(format!("{}: {e}", path.display())))
        })
        .collect()
}

/// The latest history record measured against the most recent *comparable*
/// earlier one (same scale, trials, sweep threads, and experiment count — a
/// quick run is never set against a committed paper-scale run, nor a
/// 4-thread run against a 1-thread wall clock).
#[derive(Clone, Debug)]
pub struct HistoryDelta {
    /// The newest record (this commit's run).
    pub latest: HistoryRecord,
    /// The record it is compared against, if any exists.
    pub previous: Option<HistoryRecord>,
}

impl HistoryDelta {
    /// Splits the newest record off `records` and finds its comparison
    /// partner. `None` if the file is empty.
    pub fn from_records(records: &[HistoryRecord]) -> Option<HistoryDelta> {
        let latest = records.last()?.clone();
        let previous = records[..records.len() - 1]
            .iter()
            .rev()
            .find(|r| {
                r.scale == latest.scale
                    && r.trials == latest.trials
                    && r.threads == latest.threads
                    && r.experiments.len() == latest.experiments.len()
            })
            .cloned();
        Some(HistoryDelta { latest, previous })
    }

    /// Wall-clock ratio `latest / previous` (`> 1` is slower), if a
    /// comparable previous record exists and both totals are positive.
    pub fn wall_clock_ratio(&self) -> Option<f64> {
        let previous = self.previous.as_ref()?;
        if previous.total_wall_clock_secs <= 0.0 || self.latest.total_wall_clock_secs <= 0.0 {
            return None;
        }
        Some(self.latest.total_wall_clock_secs / previous.total_wall_clock_secs)
    }

    /// Human-readable summary: per-experiment wall clock and events/sec of
    /// the latest record, plus the wall-clock delta against the previous
    /// comparable run. No verdict: the delta is reported, not judged.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let latest = &self.latest;
        out.push_str(&format!(
            "latest record: rev `{}` scale={} trials={} threads={} nproc={} — {:.2} s total, \
             {} events ({:.0} events/s)",
            latest.git_rev,
            latest.scale,
            latest.trials,
            latest.threads,
            latest.nproc,
            latest.total_wall_clock_secs,
            latest.total_events_processed,
            latest.events_per_sec(),
        ));
        if latest.peak_rss_bytes > 0 {
            out.push_str(&format!(
                ", peak RSS {:.1} MiB",
                latest.peak_rss_bytes as f64 / (1024.0 * 1024.0)
            ));
        }
        out.push('\n');
        for e in &latest.experiments {
            out.push_str(&format!(
                "  {:<18} {:>7.2} s  {:>10} events  {:>10.0} events/s\n",
                e.experiment, e.wall_clock_secs, e.events_processed, e.events_per_sec
            ));
        }
        match (&self.previous, self.wall_clock_ratio()) {
            (Some(previous), Some(ratio)) => out.push_str(&format!(
                "previous comparable record: rev `{}` — {:.2} s total\n\
                 wall-clock delta: {:+.1} %\n",
                previous.git_rev,
                previous.total_wall_clock_secs,
                (ratio - 1.0) * 100.0,
            )),
            _ => out.push_str(
                "no comparable previous record (same scale/trials/threads/experiments)\n",
            ),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_suite, SuiteOptions};

    #[test]
    fn record_summarizes_and_appends_jsonl() {
        let mut options = SuiteOptions::quick_smoke();
        options.experiments.truncate(2);
        let artifacts = run_suite(&options, |_| ()).unwrap();
        let record = HistoryRecord::from_artifacts(&artifacts).unwrap();
        assert_eq!(record.experiments.len(), 2);
        assert!(record.total_wall_clock_secs >= 0.0);
        assert_eq!(record.scale, "quick");
        assert!(record.nproc >= 1, "available_parallelism is readable");

        let path =
            std::env::temp_dir().join(format!("scoop-lab-history-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        record.append_to(&path).unwrap();
        record.append_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        let back: HistoryRecord = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(back, record);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_run_yields_no_record() {
        assert!(HistoryRecord::from_artifacts(&[]).is_none());
    }

    fn record(scale: &str, trials: usize, wall: f64, experiments: usize) -> HistoryRecord {
        HistoryRecord {
            git_rev: format!("rev-{wall}"),
            scale: scale.to_string(),
            trials,
            threads: 1,
            nproc: 2,
            total_wall_clock_secs: wall,
            total_events_processed: (wall * 1_000_000.0) as u64,
            peak_rss_bytes: 64 * 1024 * 1024,
            experiments: (0..experiments)
                .map(|i| ExperimentTiming {
                    experiment: format!("exp-{i}"),
                    rows: 3,
                    wall_clock_secs: wall / experiments as f64,
                    events_processed: 1000,
                    events_per_sec: 1000.0,
                    peak_rss_bytes: 64 * 1024 * 1024,
                })
                .collect(),
        }
    }

    #[test]
    fn delta_compares_only_same_shape_runs() {
        // quick records must not be set against the paper-scale one, and
        // a run on different sweep threads is not comparable either.
        let mut other_threads = record("quick", 1, 1.0, 2);
        other_threads.threads = 4;
        let records = vec![
            record("paper", 3, 37.0, 2),
            record("quick", 1, 2.0, 2),
            other_threads,
            record("quick", 1, 2.2, 2),
        ];
        let delta = HistoryDelta::from_records(&records).unwrap();
        assert_eq!(delta.previous.as_ref().unwrap().total_wall_clock_secs, 2.0);
        let ratio = delta.wall_clock_ratio().unwrap();
        assert!((ratio - 1.1).abs() < 1e-9, "{ratio}");
        let text = delta.render_text();
        assert!(text.contains("wall-clock delta: +10.0 %"), "{text}");
        assert!(text.contains("nproc=2"), "{text}");

        let only = vec![record("paper", 3, 37.0, 2)];
        let delta = HistoryDelta::from_records(&only).unwrap();
        assert!(delta.previous.is_none());
        assert!(delta.wall_clock_ratio().is_none());
        assert!(delta.render_text().contains("no comparable previous"));
        assert!(HistoryDelta::from_records(&[]).is_none());
    }

    #[test]
    fn pre_throughput_history_lines_still_parse() {
        // A line appended before the events fields existed: defaults kick in.
        let line = r#"{"git_rev":"a0a1151933a9","scale":"paper","trials":3,"threads":1,
            "total_wall_clock_secs":37.2,"experiments":[
            {"experiment":"fig5","rows":18,"wall_clock_secs":8.5}]}"#
            .replace('\n', "");
        let back: HistoryRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back.total_events_processed, 0);
        assert_eq!(back.peak_rss_bytes, 0);
        assert_eq!(back.nproc, 0);
        assert_eq!(back.experiments[0].events_processed, 0);
        assert_eq!(back.experiments[0].events_per_sec, 0.0);
        assert_eq!(back.experiments[0].peak_rss_bytes, 0);

        // The committed file, including its retired serve/store/chaos/workload
        // lines whose extra keys this struct no longer has, still loads whole.
        let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_history.jsonl");
        let records = load_history(&committed).unwrap();
        assert_eq!(records.len(), 22);
        assert!(records.iter().any(|r| r.scale == "serve"));
        assert!(records.iter().any(|r| r.scale == "store"));
    }

    #[test]
    fn record_carries_the_run_peak_and_renders_it() {
        let mut options = SuiteOptions::quick_smoke();
        options.experiments.truncate(1);
        let artifacts = run_suite(&options, |_| ()).unwrap();
        let record = HistoryRecord::from_artifacts(&artifacts).unwrap();
        assert_eq!(
            record.peak_rss_bytes, artifacts[0].provenance.peak_rss_bytes,
            "run peak is the max over per-experiment high-water marks"
        );
        assert!(record.peak_rss_bytes > 0, "VmHWM is readable on Linux");
        let delta = HistoryDelta {
            latest: record,
            previous: None,
        };
        assert!(delta.render_text().contains("peak RSS"));
    }

    #[test]
    fn load_history_reads_appended_lines_and_rejects_garbage() {
        let path =
            std::env::temp_dir().join(format!("scoop-lab-loadhist-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        record("quick", 1, 1.0, 1).append_to(&path).unwrap();
        record("quick", 1, 1.5, 1).append_to(&path).unwrap();
        let records = load_history(&path).unwrap();
        assert_eq!(records.len(), 2);
        std::fs::write(&path, "not json\n").unwrap();
        assert!(load_history(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
