//! Cross-crate integration tests: run the full Scoop pipeline (tree
//! formation, statistics collection, index construction and dissemination,
//! data routing, querying) end to end on a small network and check the
//! system-level invariants the paper relies on.

use scoop::sim::{build_engine, run_experiment};
use scoop::types::{DataSourceKind, NodeId, ScenarioSpec, SimDuration, SimTime, StoragePolicy};

/// A configuration small enough for debug-mode CI but still covering every
/// protocol phase (several summary rounds, at least two remap rounds, many
/// queries).
fn tiny(policy: StoragePolicy, source: DataSourceKind) -> ScenarioSpec {
    let mut cfg = ScenarioSpec::small_test();
    cfg.num_nodes = 12;
    cfg.duration = SimDuration::from_mins(10);
    cfg.warmup = SimDuration::from_mins(2);
    cfg.policy.scoop.summary_interval = SimDuration::from_secs(45);
    cfg.policy.scoop.remap_interval = SimDuration::from_secs(90);
    cfg.policy.kind = policy;
    cfg.workload.data_source = source;
    cfg.seed = 5;
    cfg
}

#[test]
fn scoop_end_to_end_builds_an_index_and_answers_queries() {
    let cfg = tiny(StoragePolicy::Scoop, DataSourceKind::Real);
    let result = run_experiment(&cfg).expect("run");

    // The index machinery actually ran.
    assert!(
        result.indices_disseminated >= 1,
        "no storage index was ever disseminated"
    );
    assert!(result.messages.mapping > 0);
    assert!(result.messages.summary > 0);

    // Data was sampled, and the overwhelming majority was stored somewhere.
    assert!(result.storage.sampled > 100);
    assert!(
        result.storage.storage_success() > 0.6,
        "storage success {:.2} too low",
        result.storage.storage_success()
    );

    // Queries were issued and a reasonable fraction answered.
    assert!(result.queries.issued > 10);
    assert!(
        result.queries.query_success() > 0.3,
        "query success {:.2} too low",
        result.queries.query_success()
    );
}

#[test]
fn every_sensor_joins_the_routing_tree_during_warmup() {
    let cfg = tiny(StoragePolicy::Scoop, DataSourceKind::Gaussian);
    let mut engine = build_engine(&cfg).expect("engine");
    engine.run_until(SimTime::ZERO + cfg.warmup);
    let attached = engine
        .iter_nodes()
        .filter(|(id, node)| !id.is_basestation() && node.routing().is_attached())
        .count();
    assert!(
        attached >= cfg.num_nodes - 1,
        "only {attached}/{} sensors joined the tree during warmup",
        cfg.num_nodes
    );
}

#[test]
fn nodes_converge_on_the_basestations_index_epoch() {
    let cfg = tiny(StoragePolicy::Scoop, DataSourceKind::Unique);
    let mut engine = build_engine(&cfg).expect("engine");
    engine.run_until(SimTime::ZERO + cfg.duration);
    let base_epoch = engine.node(NodeId::BASESTATION).newest_index_id();
    assert!(base_epoch.is_some(), "the basestation never built an index");
    let with_index = engine
        .iter_nodes()
        .filter(|(id, node)| !id.is_basestation() && node.newest_index_id().is_some())
        .count();
    assert!(
        with_index as f64 >= cfg.num_nodes as f64 * 0.7,
        "only {with_index}/{} sensors ever assembled a complete index",
        cfg.num_nodes
    );
    // No sensor can hold an index newer than the basestation's.
    for (id, node) in engine.iter_nodes() {
        assert!(
            node.newest_index_id() <= base_epoch,
            "{id} holds index {:?} newer than the basestation's {:?}",
            node.newest_index_id(),
            base_epoch
        );
    }
}

#[test]
fn readings_end_up_on_their_designated_owner_or_the_root() {
    let cfg = tiny(StoragePolicy::Scoop, DataSourceKind::Unique);
    let result = run_experiment(&cfg).expect("run");
    // Everything that was routed under an index landed either on the owner
    // or on the root fallback; nothing vanished into a third category.
    assert!(result.storage.stored_at_owner > 0);
    assert!(
        result.storage.destination_accuracy() > 0.5,
        "destination accuracy {:.2} too low",
        result.storage.destination_accuracy()
    );
}

#[test]
fn scoop_beats_base_and_local_on_structured_data() {
    let scoop = run_experiment(&tiny(StoragePolicy::Scoop, DataSourceKind::Unique)).expect("run");
    let base = run_experiment(&tiny(StoragePolicy::Base, DataSourceKind::Unique)).expect("run");
    let local = run_experiment(&tiny(StoragePolicy::Local, DataSourceKind::Unique)).expect("run");
    assert!(
        scoop.total_messages() < base.total_messages(),
        "scoop {} should beat base {}",
        scoop.total_messages(),
        base.total_messages()
    );
    assert!(
        scoop.total_messages() < local.total_messages(),
        "scoop {} should beat local {}",
        scoop.total_messages(),
        local.total_messages()
    );
}

#[test]
fn random_data_degenerates_towards_base_like_cost() {
    // "RANDOM represents the case where there is no predictability in the
    // data ... the system basically degenerates into performance that is
    // equivalent to BASE or HASH."
    let scoop = run_experiment(&tiny(StoragePolicy::Scoop, DataSourceKind::Random)).expect("run");
    let base = run_experiment(&tiny(StoragePolicy::Base, DataSourceKind::Random)).expect("run");
    let ratio = scoop.total_messages() as f64 / base.total_messages().max(1) as f64;
    assert!(
        (0.5..=2.5).contains(&ratio),
        "scoop-on-random should be within a small factor of base, ratio {ratio:.2}"
    );
}

#[test]
fn base_policy_concentrates_receptions_at_the_root() {
    let result = run_experiment(&tiny(StoragePolicy::Base, DataSourceKind::Gaussian)).expect("run");
    let skew = result.root_skew();
    assert!(
        skew.root_rx as f64 > skew.mean_sensor_rx * 2.0,
        "the BASE root should receive far more than an average sensor"
    );
}

#[test]
fn results_are_reproducible_and_seed_sensitive() {
    let cfg = tiny(StoragePolicy::Scoop, DataSourceKind::Real);
    let a = run_experiment(&cfg).expect("run");
    let b = run_experiment(&cfg).expect("run");
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.per_node_tx, b.per_node_tx);

    let mut other = cfg.clone();
    other.seed = cfg.seed + 1;
    let c = run_experiment(&other).expect("run");
    assert_ne!(
        (a.messages, a.storage),
        (c.messages, c.storage),
        "different seeds should produce different traces"
    );
}
