//! The cross-version byte-identity gate: running the quick-smoke suite must
//! reproduce the committed `baselines/smoke.json` **byte for byte**, without
//! any `--bless`. This is `scoop-lab check` itself, run from `cargo test`.
//!
//! The committed baseline pins the *calibrated* link-model defaults; its
//! `calibration` entry runs the three-point calibration smoke grid, its
//! `chaos-failover` entry is the one place the multi-sink federation runs
//! under a committed baseline, and its workload entries pin the range and
//! aggregate query paths.

use scoop_lab::check::{run_check, BASELINE_PATH};
use std::path::PathBuf;

#[test]
fn quick_smoke_suite_is_byte_identical_to_committed_baseline() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(BASELINE_PATH);
    let outcome = run_check(&path, false).expect("the suite runs and the baseline loads");
    assert!(!outcome.failed(), "{}", outcome.render_text());
}
