//! Sweep-thread invariance under active faults: the chaos scenarios must
//! render byte-identical artifacts whether the sweep layer runs on one
//! worker or four. The chaos suite drives each faulted/control engine pair
//! deterministically, so any divergence here would mean thread count leaked
//! into simulation state — exactly the regression this test exists to catch.
//!
//! Env mutation is process-global, so this file keeps a single #[test]
//! (its own binary) and restores the variable before asserting.

use scoop_lab::check::{run_masked, Suite};

#[test]
fn chaos_suite_is_thread_count_invariant() {
    let run_with_threads = |threads: &str| {
        std::env::set_var("SCOOP_SWEEP_THREADS", threads);
        let artifacts = run_masked(Suite::Chaos).expect("chaos suite");
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
