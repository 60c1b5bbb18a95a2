//! Quickstart: run a small Scoop network end to end and print what happened.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! This builds a 16-node office-floor network, runs Scoop with the paper's
//! protocol parameters (scaled down to a 12-minute run), and prints the
//! message breakdown, the storage index that ended up in effect, and the
//! reliability numbers.

use scoop::sim::{build_engine, run_experiment};
use scoop::types::{NodeId, ScenarioSpec, SimTime, StoragePolicy};

fn main() {
    // 1. Configure the experiment. `small_test()` is the paper's Section 6
    //    parameter table scaled down to 16 nodes / 12 minutes.
    let mut cfg = ScenarioSpec::small_test();
    cfg.policy.kind = StoragePolicy::Scoop;
    cfg.seed = 42;

    // 2. Run it and look at the aggregate result.
    let result = run_experiment(&cfg).expect("valid configuration");
    println!(
        "== Scoop quickstart ({} nodes, {} simulated) ==",
        cfg.num_nodes, cfg.duration
    );
    println!("message breakdown over the measured window:");
    println!("  data        : {}", result.messages.data);
    println!("  summary     : {}", result.messages.summary);
    println!("  mapping     : {}", result.messages.mapping);
    println!("  query/reply : {}", result.messages.query_reply);
    println!("  total       : {}", result.total_messages());
    println!();
    println!(
        "storage success    : {:.1} % of {} sampled readings",
        result.storage.storage_success() * 100.0,
        result.storage.sampled
    );
    println!(
        "destination accuracy: {:.1} % reached their designated owner",
        result.storage.destination_accuracy() * 100.0
    );
    println!(
        "query success      : {:.1} % over {} queries",
        result.queries.query_success() * 100.0,
        result.queries.issued
    );
    println!(
        "indices disseminated: {} (suppressed remaps: {})",
        result.indices_disseminated, result.remaps_suppressed
    );

    // 3. Re-run step by step to inspect the storage index the basestation
    //    converged on (the Figure 1 "value range -> owner" table).
    let mut engine = build_engine(&cfg).expect("valid configuration");
    engine.run_until(SimTime::ZERO + cfg.duration);
    let base = engine.node(NodeId::BASESTATION);
    if let Some(index) = base.current_index() {
        println!();
        println!("final storage index (epoch {}):", index.id().0);
        println!("  values      -> node");
        for entry in index.entries().iter().take(12) {
            println!(
                "  {:>4}-{:<8} -> {}",
                entry.range.lo, entry.range.hi, entry.owner
            );
        }
        if index.entries().len() > 12 {
            println!("  ... {} more entries", index.entries().len() - 12);
        }
    }
}
