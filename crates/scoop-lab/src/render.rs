//! The `EXPERIMENTS.md` regenerator.
//!
//! [`render_experiments_md`] turns the latest artifacts into a markdown
//! report: per experiment, the measured table, and — where a paper baseline
//! exists — a measured-vs-paper comparison with each row classified as
//! `match` / `drift` / `missing` by the diff engine, drift annotations
//! included. The file is meant to be committed, so the renderer keeps noisy
//! provenance (wall-clock) to one summary table at the top.

use crate::artifact::Artifact;
use crate::baselines::paper_baseline;
use crate::diff::{diff_rows, BaselineSet, DiffReport, RowStatus};
use crate::rows::{fmt_value, MeasuredRow};
use scoop_types::ScoopError;

/// Renders one experiment's measured-vs-paper table: one line per metric
/// the baseline checks, with the measured value, the paper's value and its
/// tolerance, and whether the metric is within it. Measured-only metrics are
/// in the plain table above it.
fn comparison_table(
    measured: &[MeasuredRow],
    baseline: &BaselineSet,
    report: &DiffReport,
) -> String {
    let mut out = String::new();
    out.push_str("| row | metric | measured | paper | status |\n");
    out.push_str("|---|---|---:|---:|---|\n");
    // `diff_rows` reports the baseline's rows in the baseline's order.
    for ((key, status), brow) in report.rows.iter().zip(&baseline.rows) {
        let Some(row) = measured.iter().find(|r| r.key == *key) else {
            out.push_str(&format!("| `{key}` | — | — | — | ? missing |\n"));
            continue;
        };
        for check in &brow.checks {
            let drifted = matches!(status, RowStatus::Drift(deviations)
                if deviations.iter().any(|d| d.metric == check.metric));
            let shown = row
                .metric(&check.metric)
                .map_or_else(|| "absent".to_string(), |v| fmt_value(&check.metric, v));
            out.push_str(&format!(
                "| `{key}` | {} | {shown} | {} ± {} | {} |\n",
                check.metric,
                fmt_value(&check.metric, check.expected),
                fmt_value(&check.metric, check.tolerance.allowed(check.expected)),
                if drifted { "✗ drift" } else { "✓ match" }
            ));
        }
    }
    out
}

/// Renders the whole `EXPERIMENTS.md` from the given artifacts (typically
/// everything in the store, in suite order).
pub fn render_experiments_md(artifacts: &[Artifact]) -> Result<String, ScoopError> {
    if artifacts.is_empty() {
        return Err(ScoopError::Artifact(
            "no artifacts to render; run `scoop-lab run` first".into(),
        ));
    }
    let mut out = String::new();
    out.push_str("# EXPERIMENTS — measured vs. paper\n\n");
    out.push_str(
        "Regenerated by `scoop-lab report` from the artifacts under `results/`.\n\
         Do not edit by hand: run `cargo run --release -p scoop-lab -- run` then\n\
         `cargo run --release -p scoop-lab -- report`.\n\n",
    );
    out.push_str(
        "Figure baselines are encoded as the **ratios** the paper's figures argue\n\
         about (bars normalized to the panel's reference bar, curve points to BASE\n\
         at the same sweep point), because absolute message counts do not transfer\n\
         from the paper's 2007 TinyOS testbed to this reproduction. Prose numbers\n\
         (reliability percentages) are compared absolutely. `drift` rows are\n\
         documented findings, not build failures — the CI regression gate\n\
         (`scoop-lab check`) compares against committed smoke artifacts instead.\n\n",
    );

    // Run summary table. Artifacts can come from different `run`
    // invocations (e.g. a partial quick re-run over committed paper-scale
    // files), so the header is only stated when uniform and the per-row
    // provenance always spells out scale / seed / trials.
    let first = &artifacts[0];
    let uniform = artifacts.iter().all(|a| {
        a.scale == first.scale
            && a.seed == first.seed
            && a.trials == first.trials
            && a.provenance.git_rev == first.provenance.git_rev
    });
    out.push_str("## Run summary\n\n");
    if uniform {
        out.push_str(&format!(
            "- scale: **{}**, seed {}, {} trial(s) per scenario, schema v{}\n",
            first.scale, first.seed, first.trials, first.schema_version
        ));
        out.push_str(&format!(
            "- git revision: `{}`, sweep threads: {}\n\n",
            first.provenance.git_rev, first.provenance.threads
        ));
    } else {
        out.push_str(
            "**Warning:** these artifacts come from *different* runs (mixed \
             scale, seed, trials, or git revision — see the table). Regenerate \
             them together with one `scoop-lab run` before committing this \
             file.\n\n",
        );
    }
    out.push_str(
        "| experiment | scale | seed | trials | rows | wall-clock (s) | events | events/s | git rev |\n\
         |---|---|---:|---:|---:|---:|---:|---:|---|\n",
    );
    for artifact in artifacts {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.2} | {} | {:.0} | `{}` |\n",
            artifact.experiment,
            artifact.scale,
            artifact.seed,
            artifact.trials,
            artifact.rows.len(),
            artifact.provenance.wall_clock_secs,
            artifact.provenance.events_processed,
            artifact.provenance.events_per_sec,
            artifact.provenance.git_rev
        ));
    }
    out.push('\n');

    // Overridden runs are not the canonical suite: say so loudly, per
    // artifact, so `--set` experiments saved over `results/` cannot
    // masquerade as paper defaults.
    let overridden: Vec<&Artifact> = artifacts
        .iter()
        .filter(|a| !a.overrides.is_empty())
        .collect();
    if !overridden.is_empty() {
        out.push_str(
            "**Warning:** the following artifacts were produced with `--set` axis \
             overrides and do **not** describe the default scenario:\n\n",
        );
        for artifact in overridden {
            let list = artifact
                .overrides
                .iter()
                .map(|(k, v)| format!("`{k}={v}`"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!("- {}: {list}\n", artifact.experiment));
        }
        out.push('\n');
    }

    // Per-experiment sections.
    for artifact in artifacts {
        let id = artifact.experiment_id();
        let title = id
            .map(|i| i.title().to_string())
            .unwrap_or_else(|| artifact.experiment.clone());
        out.push_str(&format!("## {title}\n\n"));
        out.push_str("```text\n");
        out.push_str(&artifact.rows.table(&title));
        out.push_str("```\n\n");

        if let Some(baseline) = id.and_then(paper_baseline) {
            let measured = artifact
                .rows
                .measured_rows(id.and_then(|i| i.reference_key()));
            let report = diff_rows(&measured, &baseline);
            let (matches, drifts, missing) = report.counts();
            out.push_str(&format!(
                "**vs. paper** ({}): {matches} match, {drifts} drift, {missing} missing.\n\n",
                baseline.source
            ));
            out.push_str(&comparison_table(&measured, &baseline, &report));
            out.push('\n');
        } else {
            out.push_str(
                "*No quantitative paper baseline for this experiment; measured only.*\n\n",
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Provenance;
    use crate::suite::{run_suite, SuiteOptions};

    fn smoke_artifacts() -> Vec<Artifact> {
        let mut options = SuiteOptions::quick_smoke();
        options.experiments.truncate(2); // fig3-middle + fig4: enough shape
        run_suite(&options, |_| ()).unwrap()
    }

    #[test]
    fn renders_summary_tables_and_sections() {
        let artifacts = smoke_artifacts();
        let md = render_experiments_md(&artifacts).unwrap();
        assert!(md.starts_with("# EXPERIMENTS"));
        assert!(md.contains("## Run summary"));
        assert!(md.contains("Figure 3 (middle)"));
        assert!(md.contains("Figure 4"));
        assert!(md.contains("vs. paper"));
        assert!(md.contains("| row | metric | measured | paper | status |"));
    }

    #[test]
    fn comparison_lists_each_checked_metric_with_its_paper_value() {
        let md = render_experiments_md(&smoke_artifacts()).unwrap();
        let scoop_real: Vec<&str> = md
            .lines()
            .filter(|l| l.starts_with("| `scoop/real` |"))
            .collect();
        assert_eq!(scoop_real.len(), 1, "{md}");
        assert!(
            scoop_real[0].contains("| total_vs_ref |")
                && scoop_real[0].contains("| 0.700 ± 0.210 |"),
            "{}",
            scoop_real[0]
        );
        assert!(!md.contains("| data_messages |"), "{md}");
    }

    #[test]
    fn empty_artifact_list_is_an_error() {
        assert!(render_experiments_md(&[]).is_err());
    }

    #[test]
    fn overridden_artifacts_are_flagged_as_non_canonical() {
        let mut artifacts = smoke_artifacts();
        let clean_md = render_experiments_md(&artifacts).unwrap();
        assert!(!clean_md.contains("axis overrides"));

        artifacts[0].overrides = vec![("link.loss_floor".into(), "0.05".into())];
        let md = render_experiments_md(&artifacts).unwrap();
        assert!(
            md.contains("`--set` axis") && md.contains("`link.loss_floor=0.05`"),
            "an overridden artifact must be flagged: {md}"
        );
    }

    #[test]
    fn provenance_appears_in_summary_only_once_per_field() {
        let mut artifacts = smoke_artifacts();
        artifacts[0].provenance = Provenance {
            git_rev: "abc123def456".into(),
            wall_clock_secs: 1.5,
            threads: 2,
            events_processed: 3_000_000,
            events_per_sec: 2_000_000.0,
            peak_rss_bytes: 256 * 1024 * 1024,
        };
        let md = render_experiments_md(&artifacts).unwrap();
        assert!(md.contains("abc123def456"));
        assert!(md.contains("3000000"), "events column missing: {md}");
    }

    #[test]
    fn mixed_run_artifacts_get_a_warning_not_a_wrong_header() {
        let mut artifacts = smoke_artifacts();
        let uniform_md = render_experiments_md(&artifacts).unwrap();
        assert!(!uniform_md.contains("**Warning:**"));
        assert!(uniform_md.contains("- scale: **quick**"));

        artifacts[1].scale = "paper".into();
        artifacts[1].trials = 3;
        let mixed_md = render_experiments_md(&artifacts).unwrap();
        assert!(mixed_md.contains("**Warning:**"), "{mixed_md}");
        assert!(
            !mixed_md.contains("- scale: **quick**"),
            "a mixed report must not claim one uniform scale"
        );
        assert!(mixed_md.contains("| paper | 1 | 3 |"), "{mixed_md}");
    }
}
