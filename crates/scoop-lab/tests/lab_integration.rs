//! Integration tests for the lab subsystem: run determinism, the committed
//! report's freshness, the regression-gate exit code, and the generic row
//! table.

use scoop_lab::artifact::{Artifact, ArtifactStore};
use scoop_lab::check::{baseline_file_content, BASELINE_PATH};
use scoop_lab::cli::run_cli;
use scoop_lab::render_experiments_md;
use scoop_lab::rows::RowSet;
use scoop_lab::suite::{run_suite, ExperimentId, SuiteOptions};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Two `scoop-lab run`s with the same seed produce byte-identical artifacts
/// modulo the provenance (timing / git revision) block; a different seed
/// produces different bytes.
#[test]
fn same_seed_runs_are_byte_identical_modulo_provenance() {
    let mut options = SuiteOptions::quick_smoke();
    options.experiments = vec![ExperimentId::Fig3Middle, ExperimentId::Fig5];
    let first = run_suite(&options, |_| ()).unwrap();
    let second = run_suite(&options, |_| ()).unwrap();
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            a.deterministic_json().unwrap(),
            b.deterministic_json().unwrap(),
            "{} differs between identical runs",
            a.experiment
        );
    }

    let mut reseeded = options.clone();
    reseeded.seed = 99;
    let third = run_suite(&reseeded, |_| ()).unwrap();
    assert_ne!(
        first[0].deterministic_json().unwrap(),
        third[0].deterministic_json().unwrap(),
        "a different seed must change the measured rows"
    );
}

/// The committed `EXPERIMENTS.md` is exactly what `scoop-lab report` renders
/// from the committed `results/`: a change to either without regenerating
/// the other fails here.
#[test]
fn committed_experiments_md_matches_committed_results() {
    let root = workspace_root();
    let artifacts = ArtifactStore::new(root.join("results"))
        .load_present(&ExperimentId::ALL)
        .expect("committed results load");
    let rendered = render_experiments_md(&artifacts).expect("renders");
    let committed =
        std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md exists");
    assert!(
        rendered == committed,
        "EXPERIMENTS.md is stale: regenerate it with `scoop-lab report` \
         (first divergence at byte {})",
        rendered
            .bytes()
            .zip(committed.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.len().min(committed.len()))
    );
}

/// The gate's exit codes: `scoop-lab check` exits 0 against a copy of the
/// committed baseline and 1 once one count in the copy is perturbed.
#[test]
fn check_exit_codes_track_baseline_perturbation() {
    let dir = std::env::temp_dir().join(format!("scoop-lab-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let baseline_path = dir.join("smoke.json");
    let committed = std::fs::read_to_string(workspace_root().join(BASELINE_PATH)).unwrap();
    std::fs::write(&baseline_path, &committed).unwrap();
    let args = vec![
        "check".to_string(),
        format!("--baseline={}", baseline_path.display()),
    ];
    assert_eq!(run_cli(&args), 0, "the committed baseline must pass");

    let mut perturbed: Vec<Artifact> = serde_json::from_str(&committed).unwrap();
    let fig3 = perturbed
        .iter_mut()
        .find(|a| a.experiment == "fig3-middle")
        .unwrap();
    match &mut fig3.rows {
        RowSet::Fig3(rows) => rows[0].total += 1,
        other => panic!("unexpected rows {other:?}"),
    }
    std::fs::write(&baseline_path, baseline_file_content(&perturbed).unwrap()).unwrap();
    assert_eq!(run_cli(&args), 1, "a perturbed baseline must fail the gate");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The one generic table covers every row family: for every committed
/// artifact, it names every row and every absolute metric, and the
/// calibration table names the grid winner.
#[test]
fn generic_table_covers_every_row_family() {
    let artifacts = ArtifactStore::new(workspace_root().join("results"))
        .load_present(&ExperimentId::ALL)
        .expect("committed results load");
    assert_eq!(artifacts.len(), ExperimentId::ALL.len());
    for artifact in &artifacts {
        let table = artifact.rows.table(&artifact.experiment);
        for row in artifact.rows.measured_rows(None) {
            assert!(
                table.contains(&row.key),
                "{}: no row {}\n{table}",
                artifact.experiment,
                row.key
            );
            for (metric, _) in row
                .metrics
                .iter()
                .filter(|(m, _)| !m.starts_with("total_vs"))
            {
                assert!(
                    table.contains(metric.as_str()),
                    "{}: no metric {metric}\n{table}",
                    artifact.experiment
                );
            }
        }
    }
    let calibration = artifacts
        .iter()
        .find(|a| a.experiment == "calibration")
        .unwrap();
    let table = calibration.rows.table("calibration");
    assert!(
        table.contains("winner: floor-0.10/edge-0.20/exp-2.0/noise-0.06 (is LinkSpec::default())"),
        "{table}"
    );
}
