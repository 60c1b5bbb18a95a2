//! The experiment lab: persistent artifacts, baseline regression checks,
//! and the `EXPERIMENTS.md` regenerator.
//!
//! The paper's claims are quantitative (Figures 3–5, the reliability prose),
//! but one-shot experiment runs that print to stdout cannot back them over
//! time. This crate turns the figure experiments in
//! [`scoop_sim::experiments`] into a self-checking lab:
//!
//! * [`suite`] — one [`suite::ExperimentId`] per paper figure/table; runs
//!   experiments (parallelized inside by `scoop_sim::sweep`) and times them.
//! * [`artifact`] — schema-versioned JSON artifacts (config hash, seed, git
//!   revision, per-experiment wall-clock, typed rows) and the
//!   [`artifact::ArtifactStore`] that persists them under `results/`.
//! * [`rows`] — the typed union of every experiment's rows, plus the
//!   flattened metric view (including the figure-normalized ratios).
//! * [`baselines`] — the paper's expected numbers with per-metric
//!   tolerances, and regression baselines built from committed artifacts.
//! * [`calibrate`] — the `scoop-lab calibrate` grid search over the
//!   `LinkSpec` loss knobs: scores every point against the paper's
//!   reliability prose numbers and Figure 3 cost ratio, persists
//!   `results/calibration.json`, and backs the oracle test proving
//!   `LinkSpec::default()` is the measured argmin.
//! * [`diff`] — the engine classifying measured rows as `Match` / `Drift` /
//!   `Missing` against a baseline.
//! * [`render`] — regenerates `EXPERIMENTS.md` (measured-vs-paper tables
//!   with drift annotations) from the latest artifacts.
//! * [`check`] — the CI regression gate: one quick-scale [`check::Suite`]
//!   (smoke, chaos or workloads) vs. its committed baseline file.
//! * [`history`] — per-commit `scoop-lab run` wall-clock and events/s
//!   records (`BENCH_history.jsonl`); a record, not a gate.
//! * [`cli`] — the `scoop-lab` binary's `run | report | diff | check |
//!   calibrate | history | store | trace` subcommands.

#![warn(missing_docs)]

pub mod artifact;
pub mod baselines;
pub mod calibrate;
pub mod check;
pub mod cli;
pub mod diff;
pub mod history;
pub mod render;
pub mod rows;
mod store_cli;
pub mod suite;

pub use artifact::{Artifact, ArtifactStore, Provenance, SCHEMA_VERSION};
pub use baselines::{paper_baseline, paper_baselines, regression_baseline, TolerancePreset};
pub use calibrate::{
    load_calibration, run_calibration, save_calibration, CalibrationArtifact, CalibrationOptions,
    CalibrationPoint, CalibrationRow, Objective, CALIBRATION_SCHEMA_VERSION,
};
pub use check::{run_check, run_masked, CheckOutcome, Suite};
pub use diff::{
    diff_rows, BaselineRow, BaselineSet, DiffReport, MetricCheck, RowStatus, Tolerance,
};
pub use history::{load_history, HistoryDelta, HistoryRecord};
pub use render::render_experiments_md;
pub use rows::{MeasuredRow, RowSet};
pub use suite::{run_experiment, run_suite, ExperimentId, PointSet, Scale, SuiteOptions};
