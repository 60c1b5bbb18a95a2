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
//! * [`rows`] — the typed union of every experiment's rows, the flattened
//!   metric view (including the figure-normalized ratios), and the plain-text
//!   table rendered from it.
//! * [`baselines`] — the paper's expected numbers with per-metric
//!   tolerances, and regression baselines built from committed artifacts.
//! * [`diff`] — the engine classifying measured rows as `Match` / `Drift` /
//!   `Missing` against a baseline.
//! * [`render`] — regenerates `EXPERIMENTS.md` (measured-vs-paper tables
//!   with drift annotations) from the latest artifacts.
//! * [`check`] — the CI regression gate: the quick smoke suite must
//!   reproduce its committed baseline file byte for byte.
//! * [`cli`] — the `scoop-lab` binary's `run | report | diff | check |
//!   store | trace` subcommands.
//!
//! Everything the lab records is an [`Artifact`] written by
//! [`suite::run_suite`], the link-model calibration included: it is the
//! `calibration` experiment, whose committed `results/calibration.json`
//! backs the oracle test proving `LinkSpec::default()` is the measured
//! argmin.

#![warn(missing_docs)]

pub mod artifact;
pub mod baselines;
pub mod check;
pub mod cli;
pub mod diff;
pub mod render;
pub mod rows;
mod store_cli;
pub mod suite;

pub use artifact::{Artifact, ArtifactStore, Provenance, SCHEMA_VERSION};
pub use baselines::{paper_baseline, paper_baselines, regression_baseline};
pub use check::{run_check, CheckOutcome, BASELINE_PATH};
pub use diff::{
    diff_rows, BaselineRow, BaselineSet, DiffReport, MetricCheck, RowStatus, Tolerance,
};
pub use render::render_experiments_md;
pub use rows::{MeasuredRow, RowSet};
pub use suite::{run_experiment, run_suite, ExperimentId, PointSet, Scale, SuiteOptions};
