//! Index dissemination reaches a multi-hop grid. Flooding each mapping chunk
//! once loses chunks on grids for good, and SCOOP there quietly stores every
//! reading locally; the re-send on a neighbour's stale summary repairs each
//! loss. The measure is the share of sensors that end the run holding the
//! index the sink had sent one remap interval earlier.

use scoop_sim::build_engine;
use scoop_types::{
    DataSourceKind, NodeId, ScenarioSpec, SimDuration, SimTime, StoragePolicy, TopologyKind,
};

#[test]
fn nearly_every_sensor_of_a_255_sensor_grid_holds_the_previous_index() {
    let mut spec = ScenarioSpec::paper_defaults();
    spec.topology.kind = TopologyKind::Grid;
    spec.workload.data_source = DataSourceKind::Gaussian;
    spec.policy.kind = StoragePolicy::Scoop;
    spec.num_nodes = 255;
    spec.seed = 11;
    spec.warmup = SimDuration::from_secs(90);
    spec.duration = SimDuration::from_mins(20);
    let mut engine = build_engine(&spec).expect("valid grid spec");

    let remap = spec.policy.scoop.remap_interval;
    let end = spec.duration.as_millis();
    engine.run_until(SimTime::from_millis(end - remap.as_millis()));
    let sent = engine.node(NodeId::BASESTATION).newest_index_id();
    assert!(
        sent.is_some(),
        "the sink sent no index a remap before the end"
    );
    engine.run_until(SimTime::from_millis(end));

    let held: Vec<_> = engine
        .iter_nodes()
        .filter(|(_, node)| !node.is_sink())
        .map(|(_, node)| node.newest_index_id())
        .collect();
    let (holding, total) = (held.iter().filter(|&&id| id >= sent).count(), held.len());
    assert_eq!(total, 255);
    assert!(
        holding * 100 >= total * 95,
        "{holding}/{total} sensors hold index {sent:?} or newer"
    );
}
