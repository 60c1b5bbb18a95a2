//! Adaptivity demo: Scoop moves data towards the basestation as queries get
//! more frequent, and towards the producers as they get rarer.
//!
//! ```bash
//! cargo run --release --example adaptive_query_rates
//! ```
//!
//! This is the behaviour properties P1/P2 from Section 4 promise. We run the
//! same network under a sweep of query intervals and report (a) the total
//! message cost per policy and (b) how much of the value domain the final
//! storage index places on the basestation — the "send-to-base fraction".

use scoop::sim::{build_engine, run_experiment};
use scoop::types::{DataSourceKind, NodeId, ScenarioSpec, SimDuration, SimTime, StoragePolicy};

fn send_to_base_fraction(cfg: &ScenarioSpec) -> f64 {
    let mut engine = build_engine(cfg).expect("valid configuration");
    engine.run_until(SimTime::ZERO + cfg.duration);
    let base = engine.node(NodeId::BASESTATION);
    match base.current_index() {
        None => 0.0,
        Some(index) => {
            let total = index.domain().width() as f64;
            let at_base: u64 = index
                .entries()
                .iter()
                .filter(|e| e.owner.is_basestation())
                .map(|e| e.range.width())
                .sum();
            at_base as f64 / total
        }
    }
}

fn main() {
    let mut base = ScenarioSpec::small_test();
    base.num_nodes = 20;
    base.workload.data_source = DataSourceKind::Real;
    base.duration = SimDuration::from_mins(20);
    base.warmup = SimDuration::from_mins(4);
    base.seed = 11;

    println!("== How Scoop adapts to the query rate (20 nodes, REAL trace) ==\n");
    println!(
        "{:<18} {:>14} {:>14} {:>14} {:>22}",
        "query interval", "scoop msgs", "local msgs", "base msgs", "% of domain at root"
    );

    for interval_secs in [5u64, 15, 45, 120] {
        let mut scoop_cfg = base.clone();
        scoop_cfg.policy.kind = StoragePolicy::Scoop;
        scoop_cfg.workload.queries.query_interval = SimDuration::from_secs(interval_secs);
        let scoop = run_experiment(&scoop_cfg).expect("run");
        let at_root = send_to_base_fraction(&scoop_cfg);

        let mut local_cfg = scoop_cfg.clone();
        local_cfg.policy.kind = StoragePolicy::Local;
        let local = run_experiment(&local_cfg).expect("run");

        let mut base_cfg = scoop_cfg.clone();
        base_cfg.policy.kind = StoragePolicy::Base;
        let base_run = run_experiment(&base_cfg).expect("run");

        println!(
            "{:<18} {:>14} {:>14} {:>14} {:>21.1}%",
            format!("every {interval_secs} s"),
            scoop.total_messages(),
            local.total_messages(),
            base_run.total_messages(),
            at_root * 100.0
        );
    }

    println!();
    println!("With frequent queries Scoop pushes more of the value domain onto the root");
    println!("(approaching send-to-base); with rare queries it leaves readings near their");
    println!("producers (approaching store-local), which is exactly the hybrid the paper");
    println!("describes in Section 4 (properties P1 and P2).");
}
