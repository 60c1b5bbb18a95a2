//! The spec round-trip CI gate: serialize → deserialize → run quick smoke →
//! check against the committed baseline. A schema change that breaks the
//! committed artifacts under `results/`, the committed smoke baseline, or
//! the spec JSON itself fails here — in `cargo test` and as an explicit CI
//! step — instead of surfacing as a corrupt report three PRs later.

use scoop_lab::artifact::ArtifactStore;
use scoop_lab::baselines::TolerancePreset;
use scoop_lab::check::{compare_to_baseline, load_baseline, run_masked, Suite};
use scoop_lab::suite::ExperimentId;
use scoop_types::ScenarioSpec;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn scenario_specs_round_trip_through_json() {
    for spec in [ScenarioSpec::paper_defaults(), ScenarioSpec::small_test()] {
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back, "spec JSON round trip changed the spec");
        back.validate().unwrap();
    }
    // Overridden axes survive the trip too (the `--set` path serializes the
    // same way).
    let mut spec = ScenarioSpec::paper_defaults();
    spec.apply_axes([
        ("topology", "grid"),
        ("nodes", "96"),
        ("link.loss_floor", "0.05"),
        ("fault.window", "600..900@0.1"),
    ])
    .unwrap();
    let json = serde_json::to_string(&spec).unwrap();
    let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, back);
}

#[test]
fn committed_artifacts_load_under_the_current_schema() {
    let store = ArtifactStore::new(workspace_root().join("results"));
    let artifacts = store
        .load_present(&ExperimentId::ALL)
        .expect("every committed artifact must deserialize under the current schema");
    assert!(
        !artifacts.is_empty(),
        "results/ contains no readable artifacts — regenerate with `scoop-lab run`"
    );
    for artifact in &artifacts {
        assert_eq!(artifact.schema_version, scoop_lab::SCHEMA_VERSION);
        assert!(
            !artifact.rows.is_empty(),
            "{} is empty",
            artifact.experiment
        );
        // Round trip: the committed bytes must re-serialize losslessly.
        let json = artifact.to_json().unwrap();
        let back: scoop_lab::Artifact = serde_json::from_str(&json).unwrap();
        assert_eq!(back.to_json().unwrap(), json, "{}", artifact.experiment);
    }
}

#[test]
fn quick_smoke_matches_the_committed_baseline() {
    let baseline_path = workspace_root().join(Suite::Smoke.baseline_path());
    let baseline = load_baseline(&baseline_path)
        .expect("committed smoke baseline must deserialize under the current schema");
    let measured = run_masked(Suite::Smoke).expect("quick smoke suite must run");
    let outcome = compare_to_baseline(&measured, &baseline, TolerancePreset::Default);
    assert!(
        !outcome.failed(),
        "smoke suite drifted from the committed baseline:\n{}",
        outcome.render_text()
    );
}
