//! Shard-vs-sequential equivalence for the region-sharded event loop.
//!
//! The engine's event queue can be partitioned into per-region heaps merged
//! by `(time, seq, shard)`; because the insertion counter is global, sharded
//! dispatch must pop events in exactly the single-queue order. This test
//! holds the whole stack to that claim: the full quick-smoke suite — every
//! experiment family, every policy, real trace data, loss, retries, faults —
//! run at 1, 2, and 4 shards must produce byte-identical artifacts. It is
//! the same bar `sweep_determinism` set for inter-run thread parallelism,
//! applied to intra-run region sharding.
//!
//! Env mutation is process-global, so this file keeps a single #[test] (its
//! own binary) and restores the variable before asserting.

use scoop_lab::check::{run_masked, Suite};

#[test]
fn quick_smoke_suite_is_shard_count_invariant() {
    let run_with_shards = |shards: &str| {
        std::env::set_var("SCOOP_ENGINE_SHARDS", shards);
        // Smoke plus the workloads suite, so the new range/aggregate kinds
        // (q-digest folds included) are held to the same shard invariance.
        let mut artifacts = run_masked(Suite::Smoke).expect("smoke suite");
        artifacts.extend(run_masked(Suite::Workloads).expect("workloads suite"));
        std::env::remove_var("SCOOP_ENGINE_SHARDS");
        artifacts
            .iter()
            .map(|a| a.deterministic_json())
            .collect::<Result<Vec<String>, _>>()
            .expect("render artifacts")
    };
    let sequential = run_with_shards("1");
    assert!(!sequential.is_empty());
    for shards in ["2", "4"] {
        let sharded = run_with_shards(shards);
        assert_eq!(sequential.len(), sharded.len());
        for (a, b) in sequential.iter().zip(&sharded) {
            assert_eq!(a, b, "{shards}-shard run diverged from sequential");
        }
    }
}
