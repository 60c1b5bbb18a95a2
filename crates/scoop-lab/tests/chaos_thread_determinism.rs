//! Sweep-thread invariance under active faults: the chaos scenarios must
//! render byte-identical artifacts with `SCOOP_SWEEP_THREADS` at 1 and at 4.
//! Today the variable never reaches chaos: the suite runs its experiments
//! one after another, and each chaos trial runs its faulted and control
//! engines in turn on the calling thread, not on the sweep runner's workers
//! (`scoop_sim::experiments::chaos` says why). This test is the guard for
//! the day chaos does go through the sweep layer: a divergence here would
//! mean thread count leaked into simulation state.
//!
//! Env mutation is process-global, so this file keeps a single #[test]
//! (its own binary) and restores the variable before asserting.

use scoop_lab::suite::{run_suite, ExperimentId, SuiteOptions};

#[test]
fn chaos_suite_is_thread_count_invariant() {
    let options = SuiteOptions {
        experiments: ExperimentId::CHAOS.to_vec(),
        ..SuiteOptions::quick_smoke()
    };
    let run_with_threads = |threads: &str| {
        std::env::set_var("SCOOP_SWEEP_THREADS", threads);
        let artifacts = run_suite(&options, |_| ()).expect("chaos scenarios");
        std::env::remove_var("SCOOP_SWEEP_THREADS");
        artifacts
            .iter()
            .map(|a| a.deterministic_json())
            .collect::<Result<Vec<String>, _>>()
            .expect("render artifacts")
    };
    let single = run_with_threads("1");
    assert!(!single.is_empty());
    let parallel = run_with_threads("4");
    assert_eq!(single.len(), parallel.len());
    for (a, b) in single.iter().zip(&parallel) {
        assert_eq!(a, b, "4-thread chaos run diverged from single-threaded");
    }
}
