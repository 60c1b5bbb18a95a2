//! Shared helpers for the benchmark harness.
//!
//! Every figure/table of the paper has a `cargo bench` target in this crate.
//! Most of them are *experiment regenerators*: plain binaries (with
//! `harness = false`) that run the corresponding experiment and print the
//! same rows the paper plots, because what matters is the *shape* of the
//! result, not nanosecond timing. The `index_build` target is a conventional
//! Criterion micro-benchmark of the `O(V · n²)` index-construction
//! algorithm.
//!
//! Regenerators share one code path with the `scoop-lab` CLI: [`regen`]
//! resolves the environment into a [`SuiteOptions`], runs the experiment
//! through `scoop_lab::suite` (internally parallelized by
//! `scoop_sim::sweep::SweepRunner`), prints the rendered table with
//! wall-clock timing — and, when asked, persists the run through the
//! [`ArtifactStore`](scoop_lab::ArtifactStore) so bench output feeds the
//! same `EXPERIMENTS.md` / regression pipeline as `scoop-lab run`.
//!
//! Scale is controlled with environment variables so CI can stay fast:
//!
//! * `SCOOP_BENCH_QUICK=1` — run the 16-node / 12-minute configuration
//!   instead of the paper's 62-node / 40-minute one.
//! * `SCOOP_BENCH_TRIALS=n` — number of trials to average (default 3 at
//!   paper scale, 1 in quick mode).
//! * `SCOOP_BENCH_ARTIFACTS=dir` — also write the run's artifact JSON into
//!   `dir` (same schema as `scoop-lab run --results=dir`).
//! * `SCOOP_SWEEP_THREADS=n` — worker threads for the underlying sweep
//!   (default: available parallelism).

#![warn(missing_docs)]

use scoop_lab::{ArtifactStore, ExperimentId, PointSet, Scale, SuiteOptions};
use std::time::Instant;

/// Whether `SCOOP_BENCH_QUICK` asks for the fast configuration.
pub fn quick_mode() -> bool {
    std::env::var("SCOOP_BENCH_QUICK")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false)
}

/// Returns the suite options selected by the environment (see crate docs).
pub fn bench_options(id: ExperimentId) -> SuiteOptions {
    let quick = quick_mode();
    let scale = if quick { Scale::Quick } else { Scale::Paper };
    let default_trials = if quick { 1 } else { 3 };
    let trials = std::env::var("SCOOP_BENCH_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_trials);
    SuiteOptions {
        scale,
        trials,
        seed: scale.base_config().seed,
        points: PointSet::Full,
        experiments: vec![id],
        overrides: Vec::new(),
    }
}

/// Runs `f`, prints its output together with wall-clock timing, and a header
/// naming the experiment.
pub fn run_and_print<F>(name: &str, f: F)
where
    F: FnOnce() -> String,
{
    println!("==== {name} ====");
    let start = Instant::now();
    let table = f();
    let elapsed = start.elapsed();
    println!("{table}");
    println!("({name} regenerated in {:.1} s)\n", elapsed.as_secs_f64());
}

/// The shared regenerator skeleton: environment setup, experiment run, table
/// rendering, timing, optional artifact emission. Every non-criterion bench
/// target is one call to this.
pub fn regen(id: ExperimentId) {
    let options = bench_options(id);
    run_and_print(id.title(), || {
        let artifacts = scoop_lab::run_suite(&options, |_| ())
            .unwrap_or_else(|e| panic!("{} failed: {e}", id.slug()));
        let artifact = artifacts.into_iter().next().expect("one experiment");
        let mut table = artifact.rows.table(id.title());
        if let Ok(dir) = std::env::var("SCOOP_BENCH_ARTIFACTS") {
            let store = ArtifactStore::new(dir);
            match store.save(&artifact) {
                Ok(path) => table.push_str(&format!("(artifact: {})\n", path.display())),
                Err(e) => panic!("{}: artifact emission failed: {e}", id.slug()),
            }
        }
        table
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes every test that mutates the process-global environment;
    /// without it the harness's parallel test threads race on the env vars.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn bench_options_respect_env() {
        let _env = ENV_LOCK.lock().unwrap();
        std::env::set_var("SCOOP_BENCH_QUICK", "1");
        std::env::set_var("SCOOP_BENCH_TRIALS", "2");
        let options = bench_options(ExperimentId::Fig3Middle);
        assert_eq!(options.scale, Scale::Quick);
        assert_eq!(options.base_config().unwrap().num_nodes, 16);
        assert_eq!(options.trials, 2);
        assert_eq!(options.experiments, vec![ExperimentId::Fig3Middle]);
        std::env::remove_var("SCOOP_BENCH_QUICK");
        std::env::remove_var("SCOOP_BENCH_TRIALS");
        let options = bench_options(ExperimentId::Fig4);
        assert_eq!(options.scale, Scale::Paper);
        assert_eq!(options.trials, 3);
    }

    #[test]
    fn run_and_print_executes_closure() {
        let mut ran = false;
        run_and_print("noop", || {
            ran = true;
            "ok".to_string()
        });
        assert!(ran);
    }

    #[test]
    fn regen_emits_an_artifact_when_asked() {
        let _env = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("scoop-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("SCOOP_BENCH_QUICK", "1");
        std::env::set_var("SCOOP_BENCH_TRIALS", "1");
        std::env::set_var("SCOOP_BENCH_ARTIFACTS", &dir);
        regen(ExperimentId::Fig5);
        std::env::remove_var("SCOOP_BENCH_ARTIFACTS");
        std::env::remove_var("SCOOP_BENCH_TRIALS");
        std::env::remove_var("SCOOP_BENCH_QUICK");
        let artifact = ArtifactStore::new(&dir).load("fig5").unwrap();
        assert_eq!(artifact.experiment, "fig5");
        assert_eq!(artifact.scale, "quick");
        assert!(!artifact.rows.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
