//! Integration tests for the parallel scenario runner's core guarantee:
//! a sweep executed on many threads is bit-identical to the same sweep
//! executed sequentially, for every policy and data source, and the
//! experiment modules built on top of it inherit that determinism.

use scoop_sim::sweep::{ScenarioSuite, SweepRunner};
use scoop_sim::RunResult;
use scoop_types::{DataSourceKind, ScenarioSpec, SimDuration, StoragePolicy};

fn small(policy: StoragePolicy, source: DataSourceKind, seed: u64) -> ScenarioSpec {
    let mut cfg = ScenarioSpec::small_test();
    cfg.num_nodes = 10;
    cfg.duration = SimDuration::from_mins(8);
    cfg.warmup = SimDuration::from_mins(2);
    cfg.policy.scoop.summary_interval = SimDuration::from_secs(45);
    cfg.policy.scoop.remap_interval = SimDuration::from_secs(90);
    cfg.policy.kind = policy;
    cfg.workload.data_source = source;
    cfg.seed = seed;
    cfg
}

/// Every (policy, source) combination the evaluation uses, as one grid.
fn full_grid() -> Vec<ScenarioSpec> {
    let mut configs = Vec::new();
    let mut seed = 1;
    for policy in StoragePolicy::ALL {
        for source in DataSourceKind::ALL {
            configs.push(small(policy, source, seed));
            seed += 1;
        }
    }
    configs
}

#[test]
fn parallel_sweep_is_bit_identical_to_sequential() {
    let configs = full_grid();
    let sequential = SweepRunner::sequential()
        .run_configs(&configs)
        .expect("sequential sweep");
    for threads in [2, 4, 8] {
        let parallel = SweepRunner::with_threads(threads)
            .run_configs(&configs)
            .expect("parallel sweep");
        assert_eq!(
            sequential, parallel,
            "{threads}-thread sweep diverged from the sequential baseline"
        );
    }
}

#[test]
fn suite_results_are_thread_count_invariant_with_trials() {
    let suite = ScenarioSuite::new("determinism", 3)
        .scenario(
            "scoop/real",
            small(StoragePolicy::Scoop, DataSourceKind::Real, 5),
        )
        .scenario(
            "local/gauss",
            small(StoragePolicy::Local, DataSourceKind::Gaussian, 6),
        )
        .scenario(
            "base/unique",
            small(StoragePolicy::Base, DataSourceKind::Unique, 7),
        );
    let baseline = SweepRunner::sequential().run(&suite).expect("sequential");
    let parallel = SweepRunner::with_threads(4).run(&suite).expect("parallel");
    assert_eq!(baseline.results.len(), parallel.results.len());
    for (a, b) in baseline.results.iter().zip(&parallel.results) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.trials, b.trials, "trials diverged for {}", a.label);
        assert_eq!(a.averaged, b.averaged, "average diverged for {}", a.label);
    }
}

#[test]
fn sweep_matches_direct_run_experiment_calls() {
    // The parallel path must agree with plain `run_experiment`, proving the
    // per-node owned sources behave exactly like the old shared source path.
    let configs = vec![
        small(StoragePolicy::Scoop, DataSourceKind::Real, 11),
        small(StoragePolicy::Hash, DataSourceKind::Random, 12),
    ];
    let direct: Vec<RunResult> = configs
        .iter()
        .map(|c| scoop_sim::run_experiment(c).expect("direct run"))
        .collect();
    let swept = SweepRunner::with_threads(4)
        .run_configs(&configs)
        .expect("sweep");
    assert_eq!(direct, swept);
}

#[test]
fn experiment_rows_are_thread_count_invariant() {
    // The figure modules read SCOOP_SWEEP_THREADS through SweepRunner::
    // from_env(); the rows they produce must not depend on it. Set the env
    // var explicitly on both sides of the comparison — this test must not
    // depend on the machine's core count. (Env mutation is process-global,
    // so run with --test-threads=1 if other env-sensitive tests join this
    // binary; today no other test here touches it.)
    let base = {
        let mut cfg = ScenarioSpec::small_test();
        cfg.num_nodes = 10;
        cfg.duration = SimDuration::from_mins(8);
        cfg.warmup = SimDuration::from_mins(2);
        cfg
    };
    let widths = [0.05, 0.5];
    let ops = [
        scoop_types::AggregateOp::Min,
        scoop_types::AggregateOp::Quantile(0.5),
    ];
    std::env::set_var("SCOOP_SWEEP_THREADS", "1");
    let rows_seq = scoop_sim::experiments::fig3_left(&base, 2).expect("fig3 sequential");
    let range_seq = scoop_sim::experiments::range_width(&base, &widths, 1).expect("range seq");
    let agg_seq = scoop_sim::experiments::aggregate_ops(&base, &ops, 1).expect("agg seq");
    std::env::set_var("SCOOP_SWEEP_THREADS", "4");
    let rows_par = scoop_sim::experiments::fig3_left(&base, 2).expect("fig3 parallel");
    let range_par = scoop_sim::experiments::range_width(&base, &widths, 1).expect("range par");
    let agg_par = scoop_sim::experiments::aggregate_ops(&base, &ops, 1).expect("agg par");
    std::env::remove_var("SCOOP_SWEEP_THREADS");
    assert_eq!(rows_seq.len(), rows_par.len());
    for (a, b) in rows_seq.iter().zip(&rows_par) {
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.source, b.source);
        assert_eq!(a.messages, b.messages, "{}/{}", a.policy, a.source);
        assert_eq!(a.total, b.total);
    }
    // The new workload kinds inherit the same invariance: range sweeps and
    // aggregate grids (q-digest merges included) don't depend on thread count.
    assert_eq!(range_seq.len(), range_par.len());
    for (a, b) in range_seq.iter().zip(&range_par) {
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.width_frac, b.width_frac);
        assert_eq!(
            a.total_messages, b.total_messages,
            "{}/width-{}",
            a.policy, a.width_frac
        );
        assert_eq!(a.fraction_nodes_queried, b.fraction_nodes_queried);
        assert_eq!(a.query_success, b.query_success);
    }
    assert_eq!(agg_seq.len(), agg_par.len());
    for (a, b) in agg_seq.iter().zip(&agg_par) {
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.op, b.op);
        assert_eq!(a.total_messages, b.total_messages, "{}/{}", a.policy, a.op);
        assert_eq!(a.query_reply_messages, b.query_reply_messages);
        assert_eq!(a.query_success, b.query_success);
    }
}
