//! Per-run immutable state exists once: the static HASH / BASE index is one
//! allocation shared by every node of an engine, checked structurally (by
//! pointer, not by wall clock) at the `MAX_NODES` cap where 32,768 private
//! copies used to dominate set-up time and memory. A disseminated SCOOP
//! index is likewise one allocation per version, the one its sink built.

use scoop_core::baselines::hash_index;
use scoop_core::StorageIndex;
use scoop_net::{Engine, EngineConfig, LinkModel, Topology};
use scoop_sim::{build_engine, run_built_experiment, NodeShared, SimNode};
use scoop_types::{
    DataSourceKind, NodeId, ScenarioSpec, SimDuration, SimTime, StorageIndexId, StoragePolicy,
    TopologyKind, MAX_NODES,
};
use std::collections::HashMap;
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
        let engine = build_engine(&spec).expect("cap-sized engine");
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
    let engine = build_engine(&cap_spec(StoragePolicy::Scoop)).expect("cap-sized engine");
    assert!(engine
        .iter_nodes()
        .all(|(_, node)| node.current_index().is_none()));
}

#[test]
fn a_disseminated_index_is_one_allocation_per_version() {
    let mut spec = ScenarioSpec::paper_defaults();
    spec.topology.kind = TopologyKind::Grid;
    spec.workload.data_source = DataSourceKind::Gaussian;
    spec.policy.kind = StoragePolicy::Scoop;
    spec.num_nodes = 120;
    spec.seed = 11;
    spec.warmup = SimDuration::from_secs(90);
    spec.duration = SimDuration::from_mins(16);
    let mut engine = build_engine(&spec).expect("valid grid spec");
    engine.run_until(SimTime::ZERO + spec.duration);

    let sink = engine.node(NodeId::BASESTATION);
    assert!(
        sink.indices_disseminated() >= 3,
        "the sink remapped {} times",
        sink.indices_disseminated()
    );
    let sent = sink.current_index().expect("the sink holds what it sent");
    // The first node seen holding each version, and how many hold it.
    let mut copies: HashMap<StorageIndexId, (&StorageIndex, usize)> = HashMap::new();
    for (id, node) in engine.iter_nodes() {
        let Some(held) = node.current_index() else {
            continue;
        };
        let (first, holders) = copies.entry(held.id()).or_insert((held, 0));
        *holders += 1;
        assert!(
            std::ptr::eq(held, *first),
            "node {id} holds a private copy of index {:?}",
            held.id()
        );
    }
    let (first, holders) = copies[&sent.id()];
    assert!(
        std::ptr::eq(first, sent),
        "the sensors' copy is not the sink's"
    );
    assert!(holders > 1, "no sensor completed the sink's newest index");
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
    let topology =
        Topology::connected(&spec.topology, spec.num_nodes, spec.seed).expect("topology");
    let links = LinkModel::from_spec(&spec.link, &topology, spec.seed).expect("links");
    let nodes = topology
        .nodes()
        .map(|id| SimNode::with_shared(id, &Arc::new(NodeShared::new(spec.clone()))))
        .collect();
    Engine::new(topology, links, nodes, EngineConfig { seed: spec.seed }).expect("engine")
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
