//! Per-run immutable state exists once: the static HASH / BASE index is one
//! allocation shared by every node of an engine, checked structurally (by
//! pointer, not by wall clock) at the `MAX_NODES` cap where 32,768 private
//! copies used to dominate set-up time and memory.

use scoop_core::baselines::hash_index;
use scoop_core::StorageIndex;
use scoop_net::{Engine, EngineConfig, LinkGen, StdLinkGen, StdTopologyGen, TopologyGen};
use scoop_sim::{build_engine, run_built_experiment, NodeShared, SimBuilder, SimNode};
use scoop_types::{
    DataSourceKind, NodeId, ScenarioSpec, SimDuration, SimTime, StorageIndexId, StoragePolicy,
    TopologyKind, MAX_NODES,
};
use scoop_workload::make_source_for;
use std::sync::Arc;

/// The largest network the simulator admits, on a grid.
fn cap_spec(policy: StoragePolicy) -> ScenarioSpec {
    let mut spec = ScenarioSpec::paper_defaults();
    spec.topology.kind = TopologyKind::Grid;
    spec.workload.data_source = DataSourceKind::Gaussian;
    spec.policy.kind = policy;
    spec.num_nodes = MAX_NODES - 1;
    spec
}

#[test]
fn static_index_is_one_shared_allocation_at_the_node_cap() {
    for policy in [StoragePolicy::Hash, StoragePolicy::Base] {
        let spec = cap_spec(policy);
        let domain = spec.workload.value_domain;
        let expected = match policy {
            StoragePolicy::Hash => hash_index(domain, spec.num_nodes, SimTime::ZERO),
            _ => StorageIndex::send_to_base(StorageIndexId(1), domain, SimTime::ZERO),
        };
        let engine = SimBuilder::new(spec).build().expect("cap-sized engine");
        assert_eq!(engine.topology().len(), MAX_NODES);
        let first = engine
            .node(NodeId(1))
            .current_index()
            .expect("static index present from time zero");
        assert_eq!(first, &expected, "{policy:?}");
        for (id, node) in engine.iter_nodes() {
            let held = node.current_index().expect("every node holds it");
            assert!(
                std::ptr::eq(held, first),
                "{policy:?}: node {id} holds a private copy of the static index"
            );
        }
    }

    // SCOOP learns its index from the basestation; nobody starts with one.
    let engine = SimBuilder::new(cap_spec(StoragePolicy::Scoop))
        .build()
        .expect("cap-sized engine");
    assert!(engine
        .iter_nodes()
        .all(|(_, node)| node.current_index().is_none()));
}

/// The 62-node, 2-sink federation the chaos failover scenario runs, over a
/// measured window long enough for several remap rounds per sink.
fn federation_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::paper_defaults();
    spec.duration = SimDuration::from_mins(25);
    spec.policy.kind = StoragePolicy::Scoop;
    spec.policy.basestations = vec![NodeId(0), NodeId(31)];
    spec.seed = 1;
    spec.validate().expect("federation spec is valid");
    spec
}

/// The same network with every node built over a private `NodeShared` of its
/// own — the unshared reference construction.
fn unshared_engine(spec: &ScenarioSpec) -> Engine<SimNode> {
    let topology = StdTopologyGen
        .generate(&spec.topology, spec.num_nodes, spec.seed)
        .expect("topology");
    let links = StdLinkGen
        .generate(&spec.link, &topology, spec.seed)
        .expect("links");
    let cfg = Arc::new(spec.clone());
    let source = make_source_for(&spec.workload, spec.num_nodes, spec.seed);
    let nodes = topology
        .nodes()
        .map(|id| {
            let private = NodeShared::new(Arc::clone(&cfg));
            SimNode::with_shared(id, &private, source.clone_box())
        })
        .collect();
    let engine_cfg = EngineConfig {
        seed: spec.seed,
        ..EngineConfig::default()
    };
    Engine::new(topology, links, nodes, engine_cfg).expect("engine")
}

#[test]
fn multi_sink_run_is_identical_with_shared_and_private_node_state() {
    let spec = federation_spec();
    let shared = run_built_experiment(&spec, build_engine(&spec).expect("builds")).expect("runs");
    let private = run_built_experiment(&spec, unshared_engine(&spec)).expect("runs");
    assert_eq!(shared, private);
    assert!(shared.queries.issued > 0 && shared.indices_disseminated > 0);

    // Per-query outcomes at both sinks, not only the run totals.
    let end = SimTime::ZERO + spec.duration;
    let mut a = build_engine(&spec).expect("builds");
    let mut b = unshared_engine(&spec);
    a.run_until(end);
    b.run_until(end);
    for sink in spec.policy.sink_ids() {
        let records = a.node(sink).query_records();
        assert!(!records.is_empty(), "sink {sink} issued no queries");
        assert_eq!(
            format!("{records:?}"),
            format!("{:?}", b.node(sink).query_records()),
            "sink {sink}"
        );
    }
}
