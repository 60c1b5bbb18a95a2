//! The cross-version byte-identity gate: running the quick-smoke suite must
//! reproduce the committed `baselines/smoke.json` **byte for byte** — not
//! merely within the `scoop-lab check` tolerances, and without any
//! `--bless`.
//!
//! The committed baseline pins the *calibrated* link-model defaults (the
//! link-calibration re-baseline was a deliberate `--bless`).
//!
//! Every [`Suite`] is held to the same bar against its own committed
//! baseline (`scoop-lab check --suite NAME`, but exact): the chaos suite's
//! failover scenario is the one place the multi-sink federation runs under a
//! committed baseline, and the workloads suite pins the range and aggregate
//! query paths. One test per suite, so the three run in parallel and a
//! failure names its suite.

use scoop_lab::check::{baseline_file_content, load_baseline, run_masked, Suite};
use std::path::PathBuf;

fn committed_baseline_path(suite: Suite) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(suite.baseline_path())
}

fn assert_byte_identical(suite: Suite) {
    let committed_path = committed_baseline_path(suite);
    let measured = run_masked(suite).expect("suite runs");
    let fresh = baseline_file_content(&measured).expect("serializes");
    let committed =
        std::fs::read_to_string(&committed_path).expect("committed baseline file exists");
    assert!(
        fresh == committed,
        "the {} suite no longer reproduces {} byte for byte; the engine's random \
         stream or row serialization changed (first divergence at byte {})",
        suite.name(),
        committed_path.display(),
        fresh
            .bytes()
            .zip(committed.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fresh.len().min(committed.len()))
    );
}

/// The table itself: every suite's name round-trips and its baseline path
/// names a committed file covering exactly the suite's experiments.
#[test]
fn every_suite_names_its_committed_baseline() {
    for suite in Suite::ALL {
        assert_eq!(Suite::from_name(suite.name()), Some(suite));
        let committed =
            load_baseline(&committed_baseline_path(suite)).expect("committed baseline parses");
        let names: Vec<&str> = committed.iter().map(|a| a.experiment.as_str()).collect();
        let expected: Vec<&str> = suite
            .options()
            .experiments
            .iter()
            .map(|id| id.slug())
            .collect();
        assert_eq!(names, expected, "{} suite", suite.name());
    }
}

#[test]
fn quick_smoke_suite_is_byte_identical_to_committed_baseline() {
    assert_byte_identical(Suite::Smoke);
}

#[test]
fn chaos_suite_is_byte_identical_to_committed_baseline() {
    assert_byte_identical(Suite::Chaos);
}

#[test]
fn workloads_suite_is_byte_identical_to_committed_baseline() {
    assert_byte_identical(Suite::Workloads);
}

/// Row-for-row equality stated structurally as well: every experiment in the
/// baseline appears, in order, with identical rows — so a future serializer
/// change that reformats bytes but preserves rows degrades this file's
/// failure mode from "bytes differ" to a precise row diff.
#[test]
fn quick_smoke_rows_match_committed_baseline_row_for_row() {
    let measured = run_masked(Suite::Smoke).expect("smoke suite runs");
    let committed =
        load_baseline(&committed_baseline_path(Suite::Smoke)).expect("committed baseline parses");
    assert_eq!(measured.len(), committed.len(), "experiment count changed");
    for (fresh, baseline) in measured.iter().zip(&committed) {
        assert_eq!(fresh.experiment, baseline.experiment, "suite order changed");
        assert_eq!(
            fresh.rows.measured_rows(None),
            baseline.rows.measured_rows(None),
            "{} rows drifted from the committed baseline",
            fresh.experiment
        );
    }
}
