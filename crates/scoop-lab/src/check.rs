//! The regression gate behind `scoop-lab check`.
//!
//! Runs the deterministic quick smoke suite ([`SuiteOptions::quick_smoke`]),
//! serializes it with provenance masked, and requires the bytes to equal the
//! committed baseline file ([`BASELINE_PATH`]). The simulator is
//! deterministic, so any difference is a behavioral change: the check fails,
//! naming each drifting row and the first differing byte. `--bless` rewrites
//! the file from the current run after a deliberate change.

use crate::artifact::{Artifact, Provenance};
use crate::baselines::regression_baseline;
use crate::diff::{diff_rows, DiffReport, RowStatus, Tolerance};
use crate::suite::{run_suite, SuiteOptions};
use scoop_types::ScoopError;
use std::path::{Path, PathBuf};

/// The committed baseline, relative to the workspace root.
pub const BASELINE_PATH: &str = "crates/scoop-lab/baselines/smoke.json";

/// The outcome of one `scoop-lab check`.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The baseline file compared against.
    pub baseline: PathBuf,
    /// Number of experiments the suite ran.
    pub experiments: usize,
    /// Byte offset of the first difference between the fresh serialization
    /// and the file; `None` when they are identical.
    pub first_difference: Option<usize>,
    /// The experiments whose rows drifted, with the drifting rows named.
    pub reports: Vec<DiffReport>,
}

impl CheckOutcome {
    /// Whether the run differs from the committed baseline.
    pub fn failed(&self) -> bool {
        self.first_difference.is_some()
    }

    /// Plain-text rendering: the drifting experiments, then the verdict.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for report in &self.reports {
            out.push_str(&report.render_text());
        }
        match self.first_difference {
            Some(byte) => out.push_str(&format!(
                "CHECK FAILED: the suite no longer reproduces {} (first differing byte {byte}; \
                 re-bless with `scoop-lab check --bless` if the change is intended)\n",
                self.baseline.display()
            )),
            None => out.push_str(&format!(
                "check passed: {} experiments reproduce {} byte for byte\n",
                self.experiments,
                self.baseline.display()
            )),
        }
        out
    }
}

/// Runs `options` and returns its artifacts, provenance masked so the
/// baseline file is stable across machines and commits.
fn run_masked(options: &SuiteOptions) -> Result<Vec<Artifact>, ScoopError> {
    let mut artifacts = run_suite(options, |_| ())?;
    for artifact in &mut artifacts {
        artifact.provenance = Provenance::masked();
    }
    Ok(artifacts)
}

/// Serializes suite artifacts as the baseline file's content.
pub fn baseline_file_content(artifacts: &[Artifact]) -> Result<String, ScoopError> {
    let mut json = serde_json::to_string_pretty(artifacts)
        .map_err(|e| ScoopError::Serialization(e.to_string()))?;
    json.push('\n');
    Ok(json)
}

/// Names what drifted between measured and baseline artifacts: every row of
/// every experiment, pinned exactly. Coverage is checked in *both*
/// directions: a baseline row absent from the measurement is `Missing`, and
/// a measured experiment with no baseline entry fails too. Only failing
/// reports are returned.
fn drifting_rows(measured: &[Artifact], baseline: &[Artifact]) -> Vec<DiffReport> {
    let mut reports: Vec<DiffReport> = baseline
        .iter()
        .map(|expected| {
            let measured_rows = measured
                .iter()
                .find(|a| a.experiment == expected.experiment)
                .map(|a| {
                    a.rows
                        .measured_rows(a.experiment_id().and_then(|id| id.reference_key()))
                })
                .unwrap_or_default();
            diff_rows(
                &measured_rows,
                &regression_baseline(expected, Tolerance::Absolute(0.0)),
            )
        })
        .collect();
    for artifact in measured {
        if !baseline.iter().any(|b| b.experiment == artifact.experiment) {
            reports.push(DiffReport {
                experiment: artifact.experiment.clone(),
                source: "no committed baseline entry".to_string(),
                rows: vec![("<entire experiment>".to_string(), RowStatus::Missing)],
            });
        }
    }
    reports.retain(DiffReport::has_failures);
    reports
}

/// The check: run the quick smoke suite, serialize it, write it to
/// `baseline_path` first if `bless` is set, and compare the bytes with the
/// file.
pub fn run_check(baseline_path: &Path, bless: bool) -> Result<CheckOutcome, ScoopError> {
    let artifact_error =
        |path: &Path, e: std::io::Error| ScoopError::Artifact(format!("{}: {e}", path.display()));
    let measured = run_masked(&SuiteOptions::quick_smoke())?;
    let fresh = baseline_file_content(&measured)?;
    if bless {
        if let Some(parent) = baseline_path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| artifact_error(parent, e))?;
        }
        std::fs::write(baseline_path, &fresh).map_err(|e| artifact_error(baseline_path, e))?;
    }
    let committed =
        std::fs::read_to_string(baseline_path).map_err(|e| artifact_error(baseline_path, e))?;
    let first_difference = fresh
        .bytes()
        .zip(committed.bytes())
        .position(|(a, b)| a != b)
        .or_else(|| (fresh.len() != committed.len()).then(|| fresh.len().min(committed.len())));
    let reports = match first_difference {
        Some(_) => {
            let baseline: Vec<Artifact> = serde_json::from_str(&committed).map_err(|e| {
                ScoopError::Serialization(format!("{}: {e}", baseline_path.display()))
            })?;
            drifting_rows(&measured, &baseline)
        }
        None => Vec::new(),
    };
    Ok(CheckOutcome {
        baseline: baseline_path.to_path_buf(),
        experiments: measured.len(),
        first_difference,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::RowSet;
    use crate::suite::ExperimentId;

    fn fig4_and_fig5() -> Vec<Artifact> {
        let options = SuiteOptions {
            experiments: vec![ExperimentId::Fig4, ExperimentId::Fig5],
            ..SuiteOptions::quick_smoke()
        };
        run_masked(&options).unwrap()
    }

    #[test]
    fn perturbed_baseline_fails_the_check() {
        let measured = fig4_and_fig5();
        assert!(drifting_rows(&measured, &measured).is_empty());
        let mut baseline = measured.clone();
        // Any change at all drifts: the gate is exact.
        let fig5 = baseline
            .iter_mut()
            .find(|a| a.experiment == "fig5")
            .unwrap();
        match &mut fig5.rows {
            RowSet::Fig5(rows) => rows[0].total_messages += 1,
            other => panic!("fig5 artifact carries {other:?}"),
        }
        let reports = drifting_rows(&measured, &baseline);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].experiment, "fig5");
        assert!(
            reports[0]
                .rows
                .iter()
                .any(|(_, s)| matches!(s, RowStatus::Drift(_))),
            "{}",
            reports[0].render_text()
        );
    }

    #[test]
    fn empty_or_truncated_baseline_fails_the_check() {
        let measured = fig4_and_fig5();
        // Entirely empty baseline: the gate must not silently pass.
        assert_eq!(drifting_rows(&measured, &[]).len(), measured.len());
        // Baseline missing one experiment: that experiment still fails.
        let mut truncated = measured.clone();
        truncated.retain(|a| a.experiment != "fig5");
        let reports = drifting_rows(&measured, &truncated);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].experiment, "fig5");
        assert!(reports[0].source.contains("no committed baseline"));
    }

    #[test]
    fn missing_experiment_fails_the_check() {
        let measured = fig4_and_fig5();
        let mut short = measured.clone();
        short.retain(|a| a.experiment != "fig4");
        let reports = drifting_rows(&short, &measured);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].experiment, "fig4");
        assert!(reports[0]
            .rows
            .iter()
            .all(|(_, s)| matches!(s, RowStatus::Missing)));
    }
}
