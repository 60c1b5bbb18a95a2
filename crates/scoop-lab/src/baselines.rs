//! The paper's expected numbers, with per-metric tolerances.
//!
//! Two kinds of baselines live here:
//!
//! * **Paper baselines** ([`paper_baseline`]) — what the Scoop paper reports
//!   for each figure. Absolute message counts do not transfer from the
//!   paper's TinyOS testbed/simulator to this reproduction, so the figure
//!   baselines are encoded as the *ratios* the figures actually argue about
//!   (each bar relative to the panel's BASE/reference bar, each curve point
//!   relative to BASE at the same sweep point), plus the absolute
//!   percentages the Section 6 prose states outright. Values read off a
//!   figure carry generous tolerances; prose numbers carry tight ones. A
//!   `Drift` against a paper baseline is a *finding* to document in
//!   EXPERIMENTS.md, not a build failure.
//!
//! * **Regression baselines** ([`regression_baseline`]) — expectations built
//!   from a previously committed artifact, pinning every metric of every row
//!   at a chosen tolerance. `scoop-lab check` pins them exactly to name the
//!   rows that drifted when the smoke suite stops reproducing its baseline.

use crate::artifact::Artifact;
use crate::diff::{BaselineRow, BaselineSet, MetricCheck, Tolerance};
use crate::suite::ExperimentId;

/// Shorthand for a `(key, [(metric, expected, tolerance)])` baseline row.
fn row(key: &str, checks: &[(&str, f64, Tolerance)]) -> BaselineRow {
    BaselineRow {
        key: key.to_string(),
        checks: checks
            .iter()
            .map(|&(metric, expected, tolerance)| MetricCheck::new(metric, expected, tolerance))
            .collect(),
    }
}

/// The paper baseline for one experiment, if the paper pins one down.
///
/// Covered: the three Figure 3 panels, Figure 4, Figure 5, the ablations
/// (from the mechanisms DESIGN.md credits, since the paper has no ablation
/// figure), and the reliability prose numbers.
pub fn paper_baseline(id: ExperimentId) -> Option<BaselineSet> {
    use Tolerance::{Absolute, Relative};
    // The reference bar of a ratio-normalized panel is 1.0 by construction;
    // a tiny absolute tolerance keeps it an explicit, visible row.
    let definitional = Absolute(1e-9);
    let (source, rows): (&str, Vec<BaselineRow>) = match id {
        ExperimentId::Fig3Left => (
            "paper Figure 3 (left), bars normalized to BASE/gaussian (read off the figure)",
            vec![
                row("scoop/unique", &[("total_vs_ref", 0.35, Relative(0.45))]),
                row("scoop/gaussian", &[("total_vs_ref", 0.80, Relative(0.30))]),
                row("local/gaussian", &[("total_vs_ref", 1.10, Relative(0.25))]),
                row("base/gaussian", &[("total_vs_ref", 1.0, definitional)]),
            ],
        ),
        ExperimentId::Fig3Middle => (
            "paper Figure 3 (middle), bars normalized to BASE (read off the figure)",
            vec![
                row("scoop/real", &[("total_vs_ref", 0.70, Relative(0.30))]),
                row("local/real", &[("total_vs_ref", 1.10, Relative(0.25))]),
                row("base/real", &[("total_vs_ref", 1.0, definitional)]),
                row("hash/real", &[("total_vs_ref", 0.95, Relative(0.25))]),
            ],
        ),
        ExperimentId::Fig3Right => (
            "paper Figure 3 (right), bars normalized to SCOOP/REAL (read off the figure)",
            vec![
                row("scoop/unique", &[("total_vs_ref", 0.50, Relative(0.40))]),
                row("scoop/equal", &[("total_vs_ref", 0.55, Relative(0.40))]),
                row("scoop/real", &[("total_vs_ref", 1.0, definitional)]),
                row("scoop/gaussian", &[("total_vs_ref", 1.15, Relative(0.30))]),
                row("scoop/random", &[("total_vs_ref", 1.15, Relative(0.30))]),
            ],
        ),
        ExperimentId::Fig4 => (
            "paper Figure 4: SCOOP grows with selectivity, crossing BASE near 60 % of \
             nodes queried; LOCAL and BASE are flat (curve points normalized to BASE \
             at the same query width)",
            vec![
                row("scoop/width-2%", &[("total_vs_base", 0.35, Relative(0.35))]),
                row(
                    "scoop/width-50%",
                    &[("total_vs_base", 0.90, Relative(0.30))],
                ),
                row(
                    "scoop/width-100%",
                    &[("total_vs_base", 1.30, Relative(0.30))],
                ),
                row("local/width-2%", &[("total_vs_base", 1.10, Relative(0.25))]),
                row(
                    "local/width-100%",
                    &[("total_vs_base", 1.10, Relative(0.25))],
                ),
                row("base/width-2%", &[("total_vs_base", 1.0, definitional)]),
                row("base/width-100%", &[("total_vs_base", 1.0, definitional)]),
            ],
        ),
        ExperimentId::Fig5 => (
            "paper Figure 5: LOCAL dominated by query flooding (steep drop as queries \
             become rare); SCOOP mildly decreasing; BASE flat (curve points normalized \
             to BASE at the same interval)",
            vec![
                row(
                    "scoop/interval-5s",
                    &[("total_vs_base", 1.15, Relative(0.30))],
                ),
                row(
                    "scoop/interval-15s",
                    &[("total_vs_base", 0.75, Relative(0.30))],
                ),
                row(
                    "scoop/interval-50s",
                    &[("total_vs_base", 0.55, Relative(0.30))],
                ),
                row(
                    "local/interval-5s",
                    &[("total_vs_base", 3.00, Relative(0.35))],
                ),
                row(
                    "local/interval-50s",
                    &[("total_vs_base", 0.33, Relative(0.40))],
                ),
                row("base/interval-5s", &[("total_vs_base", 1.0, definitional)]),
                row("base/interval-50s", &[("total_vs_base", 1.0, definitional)]),
            ],
        ),
        ExperimentId::Ablations => (
            "mechanism expectations from DESIGN.md (the paper has no ablation figure); \
             variants normalized to the unmodified baseline",
            vec![
                row("baseline", &[("total_vs_ref", 1.0, definitional)]),
                row("no-batching", &[("total_vs_ref", 1.45, Relative(0.25))]),
                row(
                    "no-index-suppression",
                    &[("total_vs_ref", 1.0, Relative(0.10))],
                ),
                row(
                    "no-neighbor-shortcut",
                    &[("total_vs_ref", 1.10, Relative(0.20))],
                ),
                row(
                    "store-local-fallback",
                    &[("total_vs_ref", 1.0, Relative(0.15))],
                ),
            ],
        ),
        ExperimentId::Reliability => (
            "paper Section 6 prose: ~93 % of data stored, ~78 % of query results \
             retrieved, ~85 % of readings reach their designated owner",
            vec![row(
                "scoop",
                &[
                    ("storage_success", 0.93, Absolute(0.10)),
                    ("query_success", 0.78, Absolute(0.12)),
                    ("destination_accuracy", 0.85, Absolute(0.10)),
                ],
            )],
        ),
        // No quantitative figure to compare against: the sample-interval /
        // root-skew / scaling studies are prose-only in the paper, and the
        // calibration grid, the large-scale grid scenarios, the chaos fault
        // family, and the range/aggregate workload grids go beyond it by
        // design.
        ExperimentId::SampleInterval
        | ExperimentId::RootSkew
        | ExperimentId::Scaling
        | ExperimentId::Calibration
        | ExperimentId::Scaling256
        | ExperimentId::Scaling4096
        | ExperimentId::Scaling32768
        | ExperimentId::ChaosPartition
        | ExperimentId::ChaosSinkFailover
        | ExperimentId::ChaosChurn
        | ExperimentId::RangeWidth
        | ExperimentId::AggregateOps => return None,
    };
    Some(BaselineSet {
        experiment: id.slug().to_string(),
        source: source.to_string(),
        rows,
    })
}

/// Every paper baseline, in suite order.
pub fn paper_baselines() -> Vec<BaselineSet> {
    ExperimentId::ALL
        .into_iter()
        .filter_map(paper_baseline)
        .collect()
}

/// Builds a regression baseline from a committed artifact: every metric of
/// every row, pinned at `tolerance`.
pub fn regression_baseline(artifact: &Artifact, tolerance: Tolerance) -> BaselineSet {
    let reference = artifact.experiment_id().and_then(|id| id.reference_key());
    let rows = artifact
        .rows
        .measured_rows(reference)
        .into_iter()
        .map(|measured| BaselineRow {
            key: measured.key,
            checks: measured
                .metrics
                .into_iter()
                .map(|(metric, value)| MetricCheck::new(metric, value, tolerance))
                .collect(),
        })
        .collect();
    BaselineSet {
        experiment: artifact.experiment.clone(),
        source: format!(
            "committed smoke artifact (scale {}, seed {}, {} trials)",
            artifact.scale, artifact.seed, artifact.trials
        ),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Provenance;
    use crate::diff::{diff_rows, RowStatus};
    use crate::suite::{run_experiment, SuiteOptions};

    #[test]
    fn paper_baselines_cover_the_required_figures() {
        let covered: Vec<String> = paper_baselines()
            .into_iter()
            .map(|b| b.experiment)
            .collect();
        for required in [
            "fig3-left",
            "fig3-middle",
            "fig3-right",
            "fig4",
            "fig5",
            "ablations",
            "reliability",
        ] {
            assert!(covered.iter().any(|c| c == required), "missing {required}");
        }
    }

    #[test]
    fn baseline_keys_reference_real_metrics() {
        for baseline in paper_baselines() {
            for brow in &baseline.rows {
                assert!(!brow.checks.is_empty(), "{}: empty row", brow.key);
                for check in &brow.checks {
                    assert!(
                        check.expected.is_finite() && check.expected >= 0.0,
                        "{}: bad expectation",
                        brow.key
                    );
                }
            }
        }
    }

    #[test]
    fn regression_baseline_matches_its_own_artifact() {
        let options = SuiteOptions::quick_smoke();
        let base = options.base_config().unwrap();
        let id = ExperimentId::Fig3Middle;
        let rows = run_experiment(id, &base, options.trials, options.points).unwrap();
        let artifact = Artifact::new(id, &options, &base, rows, Provenance::masked());
        let baseline = regression_baseline(&artifact, Tolerance::Absolute(0.0));
        let measured = artifact.rows.measured_rows(id.reference_key());
        let report = diff_rows(&measured, &baseline);
        assert!(!report.has_failures(), "{}", report.render_text());
        assert!(report
            .rows
            .iter()
            .all(|(_, s)| matches!(s, RowStatus::Match)));
    }
}
