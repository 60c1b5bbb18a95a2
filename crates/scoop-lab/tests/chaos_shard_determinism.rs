//! Shard-count invariance under active faults. The plain smoke suite
//! already holds sharded dispatch to byte-identical artifacts; this file
//! raises the bar to the chaos scenarios, where partitions rewire routing
//! mid-run, churn kills and joins nodes, and basestation failover reorders
//! which sink answers. If any of those paths consulted shard-local state,
//! the artifacts would diverge — so the three chaos scenarios at 1, 2, and
//! 4 engine shards must render to the same bytes.
//!
//! Env mutation is process-global, so this file keeps a single #[test]
//! (its own binary) and restores the variable before asserting.

use scoop_lab::check::{run_masked, Suite};

#[test]
fn chaos_suite_is_shard_count_invariant() {
    let run_with_shards = |shards: &str| {
        std::env::set_var("SCOOP_ENGINE_SHARDS", shards);
        let artifacts = run_masked(Suite::Chaos).expect("chaos suite");
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
            assert_eq!(a, b, "{shards}-shard chaos run diverged from sequential");
        }
    }
}
