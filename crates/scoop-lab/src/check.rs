//! The regression gate behind `scoop-lab check`.
//!
//! Runs one deterministic quick-scale [`Suite`] and compares every metric of
//! every row against that suite's committed baseline file
//! (`crates/scoop-lab/baselines/<name>.json`), at a chosen tolerance preset.
//! Any `Drift` or `Missing` row fails the check — CI turns that into a red
//! build. `--bless` rewrites the baseline from the current run after a
//! deliberate behavioral change.

use crate::artifact::{Artifact, Provenance};
use crate::baselines::{regression_baseline, TolerancePreset};
use crate::diff::{diff_rows, DiffReport};
use crate::suite::{run_suite, SuiteOptions};
use scoop_types::ScoopError;
use std::path::{Path, PathBuf};

/// A checked suite. Each has its own committed baseline file, so extending
/// one scenario family (the fault model, the workload kinds) never perturbs
/// another's baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suite {
    /// The classic quick smoke suite ([`SuiteOptions::quick_smoke`]).
    Smoke,
    /// The three chaos scenarios ([`SuiteOptions::chaos_smoke`]).
    Chaos,
    /// The range and aggregate workload grids
    /// ([`SuiteOptions::workloads_smoke`]).
    Workloads,
}

impl Suite {
    /// Every suite, in `check --suite` listing order.
    pub const ALL: [Suite; 3] = [Suite::Smoke, Suite::Chaos, Suite::Workloads];

    /// The `--suite` name, also the baseline file's stem.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Smoke => "smoke",
            Suite::Chaos => "chaos",
            Suite::Workloads => "workloads",
        }
    }

    /// Parses a `--suite` name.
    pub fn from_name(name: &str) -> Option<Suite> {
        Suite::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The suite's experiments and scale.
    pub fn options(self) -> SuiteOptions {
        match self {
            Suite::Smoke => SuiteOptions::quick_smoke(),
            Suite::Chaos => SuiteOptions::chaos_smoke(),
            Suite::Workloads => SuiteOptions::workloads_smoke(),
        }
    }

    /// Path of the committed baseline, relative to the workspace root.
    pub fn baseline_path(self) -> PathBuf {
        Path::new("crates/scoop-lab/baselines").join(format!("{}.json", self.name()))
    }
}

/// The outcome of one `scoop-lab check`.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// One diff per suite experiment, in suite order.
    pub reports: Vec<DiffReport>,
}

impl CheckOutcome {
    /// Whether any experiment drifted from the committed baseline.
    pub fn failed(&self) -> bool {
        self.reports.iter().any(DiffReport::has_failures)
    }

    /// Plain-text rendering of every report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for report in &self.reports {
            out.push_str(&report.render_text());
        }
        let verdict = if self.failed() {
            "CHECK FAILED: the suite drifted from its committed baseline \
             (re-bless with `scoop-lab check --suite NAME --bless` if the change is intended)"
        } else {
            "check passed: the suite matches its committed baseline"
        };
        out.push_str(verdict);
        out.push('\n');
        out
    }
}

/// Runs `suite` and returns its artifacts, provenance masked so the baseline
/// file is stable across machines and commits.
pub fn run_masked(suite: Suite) -> Result<Vec<Artifact>, ScoopError> {
    let mut artifacts = run_suite(&suite.options(), |_| ())?;
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

/// Loads the committed baseline artifacts.
pub fn load_baseline(path: &Path) -> Result<Vec<Artifact>, ScoopError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScoopError::Artifact(format!("{}: {e}", path.display())))?;
    serde_json::from_str(&text)
        .map_err(|e| ScoopError::Serialization(format!("{}: {e}", path.display())))
}

/// Compares freshly measured suite artifacts against baseline artifacts.
///
/// Coverage is checked in *both* directions: a baseline row absent from the
/// measurement is `Missing`, and a measured experiment with no baseline
/// entry at all fails too — otherwise a truncated or emptied baseline file
/// would make the gate pass while checking nothing.
///
/// Public (rather than folded into [`run_check`]) so tests can exercise the
/// classification with perturbed baselines without touching the filesystem.
pub fn compare_to_baseline(
    measured: &[Artifact],
    baseline: &[Artifact],
    preset: TolerancePreset,
) -> CheckOutcome {
    let mut reports: Vec<DiffReport> = baseline
        .iter()
        .map(|expected| {
            let baseline_set = regression_baseline(expected, preset.tolerance());
            let measured_rows = measured
                .iter()
                .find(|a| a.experiment == expected.experiment)
                .map(|a| {
                    a.rows
                        .measured_rows(a.experiment_id().and_then(|id| id.reference_key()))
                })
                .unwrap_or_default();
            diff_rows(&measured_rows, &baseline_set)
        })
        .collect();
    for artifact in measured {
        if !baseline.iter().any(|b| b.experiment == artifact.experiment) {
            reports.push(DiffReport {
                experiment: artifact.experiment.clone(),
                source: "no committed baseline entry — the baseline file does not cover \
                         this experiment (re-bless to extend it)"
                    .to_string(),
                rows: vec![(
                    "<entire experiment>".to_string(),
                    crate::diff::RowStatus::Missing,
                )],
            });
        }
    }
    CheckOutcome { reports }
}

/// The full check: run `suite`, load the baseline at `baseline_path`, and
/// classify. With `bless`, the baseline file is (re)written from the current
/// run instead and the check trivially passes.
pub fn run_check(
    suite: Suite,
    baseline_path: &Path,
    preset: TolerancePreset,
    bless: bool,
) -> Result<CheckOutcome, ScoopError> {
    let measured = run_masked(suite)?;
    if bless {
        if let Some(parent) = baseline_path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| ScoopError::Artifact(format!("{}: {e}", parent.display())))?;
        }
        std::fs::write(baseline_path, baseline_file_content(&measured)?)
            .map_err(|e| ScoopError::Artifact(format!("{}: {e}", baseline_path.display())))?;
        return Ok(compare_to_baseline(&measured, &measured, preset));
    }
    let baseline = load_baseline(baseline_path)?;
    Ok(compare_to_baseline(&measured, &baseline, preset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::RowStatus;
    use crate::rows::RowSet;

    #[test]
    fn smoke_run_matches_itself_at_every_preset() {
        let artifacts = run_masked(Suite::Smoke).unwrap();
        for preset in [
            TolerancePreset::Strict,
            TolerancePreset::Default,
            TolerancePreset::Loose,
        ] {
            let outcome = compare_to_baseline(&artifacts, &artifacts, preset);
            assert!(!outcome.failed(), "{}", outcome.render_text());
        }
    }

    #[test]
    fn perturbed_baseline_fails_the_check() {
        let measured = run_masked(Suite::Smoke).unwrap();
        let mut baseline = measured.clone();
        // Perturb one Figure 5 total by 10 % — far beyond the default 2 %.
        let fig5 = baseline
            .iter_mut()
            .find(|a| a.experiment == "fig5")
            .expect("smoke suite contains fig5");
        match &mut fig5.rows {
            RowSet::Fig5(rows) => {
                rows[0].total_messages = rows[0].total_messages * 11 / 10 + 1;
            }
            other => panic!("fig5 artifact carries {other:?}"),
        }
        let outcome = compare_to_baseline(&measured, &baseline, TolerancePreset::Default);
        assert!(outcome.failed());
        let report = outcome
            .reports
            .iter()
            .find(|r| r.experiment == "fig5")
            .unwrap();
        assert!(
            report
                .rows
                .iter()
                .any(|(_, s)| matches!(s, RowStatus::Drift(_))),
            "{}",
            report.render_text()
        );
        // The same perturbation is inside the loose 10 %+ tolerance… just.
        let text = outcome.render_text();
        assert!(text.contains("CHECK FAILED"), "{text}");
    }

    #[test]
    fn empty_or_truncated_baseline_fails_the_check() {
        let measured = run_masked(Suite::Smoke).unwrap();
        // Entirely empty baseline: the gate must not silently pass.
        let outcome = compare_to_baseline(&measured, &[], TolerancePreset::Default);
        assert!(outcome.failed());
        assert_eq!(outcome.reports.len(), measured.len());
        // Baseline missing one experiment: that experiment still fails.
        let mut truncated = measured.clone();
        truncated.retain(|a| a.experiment != "ablations");
        let outcome = compare_to_baseline(&measured, &truncated, TolerancePreset::Default);
        assert!(outcome.failed());
        let report = outcome
            .reports
            .iter()
            .find(|r| r.experiment == "ablations")
            .unwrap();
        assert!(report.has_failures());
        assert!(report.source.contains("no committed baseline"));
    }

    #[test]
    fn missing_experiment_fails_the_check() {
        let measured = run_masked(Suite::Smoke).unwrap();
        let mut short = measured.clone();
        short.retain(|a| a.experiment != "fig4");
        let outcome = compare_to_baseline(&short, &measured, TolerancePreset::Loose);
        assert!(outcome.failed());
        let fig4 = outcome
            .reports
            .iter()
            .find(|r| r.experiment == "fig4")
            .unwrap();
        assert!(fig4
            .rows
            .iter()
            .all(|(_, s)| matches!(s, RowStatus::Missing)));
    }
}
