//! The facade's compatibility names — each kept for `bench/` only — are thin
//! shims: every one must behave exactly like the crate API it wraps.

use scoop::net::{LinkGen, StdLinkGen, StdTopologyGen, TopologyGen};
use scoop::store::TimeIndex;
use scoop_net::{LinkModel, Topology};
use scoop_store::block::{decode_block_into, encode_block};
use scoop_store::SegmentWriter;
use scoop_types::{
    DurableRecord, FaultWindow, LinkSpec, NodeId, ScenarioSpec, TopologyKind, TopologySpec,
};
use std::any::TypeId;
use std::path::Path;

#[test]
fn experiment_config_is_the_scenario_spec() {
    assert_eq!(
        TypeId::of::<scoop::types::ExperimentConfig>(),
        TypeId::of::<ScenarioSpec>()
    );
    let cfg = scoop::types::ExperimentConfig::paper_defaults();
    assert_eq!(cfg, ScenarioSpec::paper_defaults());
    assert_eq!(cfg.policy.scoop.summary_interval.as_secs(), 110);
    cfg.validate().unwrap();
}

fn starved_uniform_random() -> TopologySpec {
    TopologySpec {
        kind: TopologyKind::UniformRandom,
        range_factor: 0.05,
        ..TopologySpec::uniform_random()
    }
}

#[test]
fn std_topology_gen_is_topology_connected() {
    for (spec, nodes, seed) in [
        (TopologySpec::office_floor(), 62, 7),
        (starved_uniform_random(), 30, 4),
    ] {
        let shim = StdTopologyGen.generate(&spec, nodes, seed).unwrap();
        let direct = Topology::connected(&spec, nodes, seed).unwrap();
        assert_eq!(shim.len(), direct.len());
        assert_eq!(shim.radio_range().to_bits(), direct.radio_range().to_bits());
        for n in direct.nodes() {
            let (a, b) = (shim.position(n).unwrap(), direct.position(n).unwrap());
            assert_eq!(
                (a.x.to_bits(), a.y.to_bits()),
                (b.x.to_bits(), b.y.to_bits())
            );
        }
    }
}

#[test]
fn std_link_gen_is_link_model_from_spec() {
    let topo = Topology::connected(&TopologySpec::office_floor(), 62, 7).unwrap();
    for spec in [LinkSpec::default(), LinkSpec::legacy(), LinkSpec::perfect()] {
        let shim = StdLinkGen.generate(&spec, &topo, 7).unwrap();
        let direct = LinkModel::from_spec(&spec, &topo, 7).unwrap();
        for a in topo.nodes() {
            for b in topo.nodes() {
                assert_eq!(
                    shim.link(a, b).delivery_prob.to_bits(),
                    direct.link(a, b).delivery_prob.to_bits(),
                    "{a} -> {b}"
                );
            }
        }
    }
}

#[test]
fn decode_block_is_decode_block_into_a_fresh_vec() {
    let block_size = 8 + 16 * 4;
    let records: Vec<DurableRecord> = (0..3)
        .map(|i| DurableRecord {
            time_ms: 10 * i,
            node: NodeId(i as u16 + 1),
            attribute: 1,
            value: i as i32,
        })
        .collect();
    let bytes = encode_block(&records, block_size);
    let path = Path::new("compat");
    let mut direct = Vec::new();
    decode_block_into(&bytes, block_size, path, 0, &mut direct).unwrap();
    let shim = scoop::store::block::decode_block(&bytes, block_size, path, 0).unwrap();
    assert_eq!(shim, direct);
    assert_eq!(shim, records);

    let mut flipped = bytes;
    flipped[8 + 5] ^= 0x10;
    assert!(scoop::store::block::decode_block(&flipped, block_size, path, 0).is_err());
}

#[test]
fn sim_builder_is_build_engine() {
    let mut spec = ScenarioSpec::small_test();
    spec.faults
        .partitions
        .push(FaultWindow::blackout(240, 420, 0.5));
    let shim = scoop::sim::SimBuilder::new(spec.clone()).build().unwrap();
    let direct = scoop_sim::build_engine(&spec).unwrap();
    assert_eq!(
        scoop_sim::run_built_experiment(&spec, shim).unwrap(),
        scoop_sim::run_built_experiment(&spec, direct).unwrap()
    );
    spec.num_nodes = 0;
    assert!(scoop::sim::SimBuilder::new(spec).build().is_err());
}

#[test]
fn storage_data_buffer_is_the_simulator_data_buffer() {
    assert_eq!(
        TypeId::of::<scoop::storage::DataBuffer>(),
        TypeId::of::<scoop_sim::DataBuffer>()
    );
}

#[test]
fn time_index_probes_are_the_directory_partition_point() {
    let dir = std::env::temp_dir().join(format!("scoop-compat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seg-00000000.scoop");
    // Two records to a block; runs of equal times cross block boundaries.
    let mut writer = SegmentWriter::create(&path, 8 + 16 * 2).unwrap();
    for (i, t) in [3u64, 3, 3, 3, 3, 8, 20, 20, 21, 40, 40, 40, 95]
        .into_iter()
        .enumerate()
    {
        let record = DurableRecord {
            time_ms: t,
            node: NodeId(1),
            attribute: 0,
            value: i as i32,
        };
        writer.append(record).unwrap();
    }
    let segment = writer.seal().unwrap();
    let blocks = segment.dir();
    assert_eq!(blocks.len(), 7);

    let mut times = vec![0, u64::MAX];
    for meta in blocks {
        for key in [meta.first_time_ms, meta.last_time_ms] {
            times.extend([key - 1, key, key + 1]);
        }
    }
    for t in times {
        let expected = blocks.partition_point(|m| m.last_time_ms < t);
        assert_eq!(
            segment.learned_index().first_block_for(t, blocks),
            expected,
            "t={t}"
        );
        assert_eq!(
            segment.reference_index().first_block_for(t, blocks),
            expected,
            "t={t}"
        );
    }
    drop(segment);
    std::fs::remove_dir_all(&dir).unwrap();
}
