//! Model tests for the range and aggregate workloads: every `TopologyKind` ×
//! storage policy runs the new workload kinds end to end, and the sink's
//! query records are checked against a god's-eye reference — the naive scan
//! evaluator from `scoop_workload::evaluate` applied to every node's data
//! buffer. LOCAL over perfect links is the exact case (the flood reaches
//! every producer and nothing is lost, so answers must equal the oracle);
//! SCOOP and HASH answer from owner buffers, so their answers must be
//! bounded by the oracle; BASE never issues network queries at all.

use scoop_sim::runner::build_engine;
use scoop_sim::SimNode;
use scoop_types::{
    AggregateOp, Reading, ScenarioSpec, SimDuration, SimTime, StoragePolicy, TopologyKind,
    WorkloadKind,
};
use scoop_workload::evaluate::ExactAggregate;

const EPSILON: f64 = 0.05;

/// The small-test spec reshaped for one (topology, policy, kind) cell, over
/// perfect links so reply loss can't blur the model comparison.
fn cell_spec(topology: TopologyKind, policy: StoragePolicy, kind: WorkloadKind) -> ScenarioSpec {
    let mut spec = ScenarioSpec::small_test();
    spec.topology.kind = topology;
    spec.policy.kind = policy;
    spec.workload.kind = kind;
    spec.link = scoop_types::LinkSpec::perfect();
    spec.seed = 7;
    spec.validate().expect("model-test specs are valid");
    spec
}

/// Runs the spec to completion and returns the finished engine for
/// god's-eye inspection.
fn run(spec: &ScenarioSpec) -> scoop_net::Engine<SimNode> {
    let mut engine = build_engine(spec).expect("engine builds");
    engine.run_until(SimTime::ZERO + spec.duration);
    engine
}

/// Every reading stored anywhere in the network at the end of the run — the
/// oracle's view. Owner-routed policies may hold a reading at one node only;
/// the scan answers "what could any query have seen".
fn gods_eye(engine: &scoop_net::Engine<SimNode>) -> (Vec<Reading>, u64) {
    let mut all = Vec::new();
    let mut overwrites = 0;
    for (_, node) in engine.iter_nodes() {
        all.extend(node.data_buffer().iter().copied());
        overwrites += node.data_buffer().total_overwrites();
    }
    (all, overwrites)
}

/// Records whose reply window closed comfortably before the run ended: the
/// query flood, buffer scans, and (for aggregates) the depth-scaled hold
/// timers all complete within seconds, so a minute of slack is generous.
fn settled(
    engine: &scoop_net::Engine<SimNode>,
    spec: &ScenarioSpec,
) -> Vec<scoop_sim::node::QueryRecord> {
    let cutoff =
        SimTime::from_millis(spec.duration.as_millis() - SimDuration::from_secs(60).as_millis());
    let mut records = Vec::new();
    for (_, node) in engine.iter_nodes() {
        records.extend(
            node.query_records()
                .into_iter()
                .filter(|r| r.time_hi <= cutoff),
        );
    }
    records
}

/// Settled records issued after the routing tree had time to form. Queries
/// issued right after warmup can miss the deepest nodes (a 16-node line
/// takes a few heartbeat rounds to join end to end), so the exact-equality
/// claims only apply once the tree is stable.
fn stabilized(
    engine: &scoop_net::Engine<SimNode>,
    spec: &ScenarioSpec,
) -> Vec<scoop_sim::node::QueryRecord> {
    let floor =
        SimTime::from_millis(spec.warmup.as_millis() + SimDuration::from_secs(150).as_millis());
    settled(engine, spec)
        .into_iter()
        .filter(|r| r.time_hi >= floor)
        .collect()
}

#[test]
fn local_range_answers_equal_the_naive_scan_on_every_topology() {
    for topology in TopologyKind::ALL {
        let spec = cell_spec(topology, StoragePolicy::Local, WorkloadKind::range(0.25));
        let engine = run(&spec);
        let (readings, overwrites) = gods_eye(&engine);
        assert_eq!(
            overwrites, 0,
            "{topology:?}: oracle requires intact buffers"
        );
        let records = stabilized(&engine, &spec);
        assert!(!records.is_empty(), "{topology:?}: queries settled");
        for r in &records {
            assert_eq!(
                r.replies, r.targets,
                "{topology:?}: perfect links, full flood"
            );
            let oracle = scoop_workload::evaluate::scan(&readings, &r.values, r.time_lo, r.time_hi);
            assert_eq!(
                r.readings,
                oracle.len() as u64,
                "{topology:?} query {}: LOCAL must return exactly the matching readings",
                r.query_id
            );
        }
    }
}

#[test]
fn local_aggregates_equal_the_exact_evaluator_on_every_topology() {
    for topology in TopologyKind::ALL {
        let spec = cell_spec(
            topology,
            StoragePolicy::Local,
            WorkloadKind::aggregate(AggregateOp::Quantile(0.5), EPSILON),
        );
        let engine = run(&spec);
        let (readings, overwrites) = gods_eye(&engine);
        assert_eq!(overwrites, 0);
        let records = stabilized(&engine, &spec);
        assert!(
            !records.is_empty(),
            "{topology:?}: aggregate queries settled"
        );
        for r in &records {
            let exact = ExactAggregate::over(
                scoop_workload::evaluate::scan(&readings, &r.values, r.time_lo, r.time_hi)
                    .iter()
                    .map(|m| m.value),
            );
            let partial = r
                .aggregate
                .as_ref()
                .unwrap_or_else(|| panic!("{topology:?}: aggregate records carry a partial"));
            assert_eq!(
                partial.count, exact.count,
                "{topology:?} query {}",
                r.query_id
            );
            assert_eq!(partial.sum, exact.sum);
            assert_eq!(r.readings, exact.count, "readings counter tracks the fold");
            if exact.count > 0 {
                assert_eq!(Some(partial.min), exact.min);
                assert_eq!(Some(partial.max), exact.max);
                let got = partial
                    .answer(AggregateOp::Quantile(0.5))
                    .map(|v| v as scoop_types::Value);
                assert!(
                    exact.quantile_within(0.5, EPSILON, got),
                    "{topology:?} query {}: median {:?} outside epsilon of the exact reference",
                    r.query_id,
                    got
                );
            }
        }
    }
}

#[test]
fn owner_routed_answers_are_bounded_by_the_oracle_on_every_topology() {
    // SCOOP and HASH answer from owner buffers: a subset of what the oracle
    // sees, never an invention. The bound assertions hold on every topology.
    for topology in TopologyKind::ALL {
        for policy in [StoragePolicy::Scoop, StoragePolicy::Hash] {
            for kind in [
                WorkloadKind::range(0.25),
                WorkloadKind::aggregate(AggregateOp::Quantile(0.5), EPSILON),
            ] {
                let spec = cell_spec(topology, policy, kind);
                let engine = run(&spec);
                let (readings, _) = gods_eye(&engine);
                let records = settled(&engine, &spec);
                let mut answered = 0u64;
                for r in &records {
                    let exact = ExactAggregate::over(
                        scoop_workload::evaluate::scan(&readings, &r.values, r.time_lo, r.time_hi)
                            .iter()
                            .map(|m| m.value),
                    );
                    assert!(
                        r.readings <= exact.count,
                        "{topology:?}/{policy:?} query {}: answered {} readings, oracle holds {}",
                        r.query_id,
                        r.readings,
                        exact.count
                    );
                    answered += r.readings;
                    if let Some(partial) = r.aggregate.as_ref() {
                        assert_eq!(partial.count, r.readings, "fold counts its readings");
                        if partial.count > 0 {
                            let exact_min = exact.min.expect("oracle covers the answer");
                            let exact_max = exact.max.expect("oracle covers the answer");
                            assert!(partial.min >= exact_min && partial.max <= exact_max);
                            let got = partial
                                .answer(AggregateOp::Quantile(0.5))
                                .expect("non-empty partial answers");
                            assert!(
                                (partial.min as f64) <= got && got <= (partial.max as f64),
                                "median inside the observed extremes"
                            );
                        }
                    } else {
                        assert!(
                            !matches!(kind, WorkloadKind::Aggregate(_)),
                            "aggregate records must carry partials"
                        );
                    }
                }
                assert!(
                    answered > 0,
                    "{topology:?}/{policy:?}/{kind:?}: something was answered"
                );
            }
        }
    }
}

#[test]
fn base_policy_answers_everything_locally_on_every_topology() {
    for topology in TopologyKind::ALL {
        for kind in [
            WorkloadKind::range(0.25),
            WorkloadKind::aggregate(AggregateOp::Avg, EPSILON),
        ] {
            let spec = cell_spec(topology, StoragePolicy::Base, kind);
            let engine = run(&spec);
            let n = engine.topology().len();
            let mut query_traffic = 0u64;
            let mut data_traffic = 0u64;
            for i in 0..n {
                let tx = engine.stats().node(scoop_types::NodeId(i as u16)).tx;
                query_traffic += tx.query + tx.reply + tx.aggregate;
                data_traffic += tx.data;
            }
            for (_, node) in engine.iter_nodes() {
                assert!(
                    node.query_records().is_empty(),
                    "{topology:?}: BASE never issues network queries"
                );
            }
            assert_eq!(
                query_traffic, 0,
                "{topology:?}/{kind:?}: BASE answers at the sink for free"
            );
            assert!(
                data_traffic > 0,
                "{topology:?}/{kind:?}: BASE ships every reading to the sink"
            );
        }
    }
}
