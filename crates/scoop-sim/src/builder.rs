//! Assembles a runnable engine from a [`ScenarioSpec`].
//!
//! [`SimBuilder`] is the single construction path for every experiment run:
//! the runner, the sweep grids, `scoop-lab`, and the bench harness all build
//! engines here. The topology and link axes are realized by
//! [`StdTopologyGen`] and [`StdLinkGen`], and the fault axis is resolved into
//! a concrete radio-outage schedule. Everything stays `Send` and
//! deterministic in `spec.seed`, which is what lets the parallel sweep
//! runner spread builds across threads.

use crate::node::{NodeShared, SimNode};
use scoop_net::{
    Engine, EngineConfig, FaultSchedule, LinkGen, LinkModel, StdLinkGen, StdTopologyGen, Topology,
    TopologyGen,
};
use scoop_types::{NodeId, ScenarioSpec, ScoopError, SimTime};
use scoop_workload::make_source_for;
use std::sync::Arc;

/// Salt keeping the fault-sampling random stream independent of the other
/// per-seed streams (topology jitter, link noise, engine loss).
const FAULT_SEED_SALT: u64 = 0x5eed_fa17;

/// Builds engines from scenario specs.
pub struct SimBuilder {
    spec: ScenarioSpec,
}

impl SimBuilder {
    /// A builder over `spec`.
    pub fn new(spec: ScenarioSpec) -> Self {
        SimBuilder { spec }
    }

    /// Applies one string-keyed axis override (`"topology=grid"` style; see
    /// [`scoop_types::AXES`] for the vocabulary).
    pub fn set(mut self, key: &str, value: &str) -> Result<Self, ScoopError> {
        self.spec.set_axis(key, value)?;
        Ok(self)
    }

    /// The spec as currently configured.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Builds the topology, link model, fault schedule, node state machines,
    /// and engine for one run.
    ///
    /// Mass-churn joins enlarge the generated topology: the fresh nodes are
    /// placed up front by the same seeded generator (so their positions are
    /// deterministic) and kept dormant by the fault schedule until their
    /// churn event fires. A schedule without joins generates exactly
    /// `num_nodes` sensors, as before.
    pub fn build(&self) -> Result<Engine<SimNode>, ScoopError> {
        let spec = &self.spec;
        spec.validate()?;
        let sensors = spec.num_nodes + spec.faults.total_joins(spec.num_nodes);
        let topology = StdTopologyGen.generate(&spec.topology, sensors, spec.seed)?;
        let links = StdLinkGen.generate(&spec.link, &topology, spec.seed)?;
        assemble(spec, topology, links)
    }
}

/// Wires node state machines and the engine over an explicit topology and
/// link model (used by the builder, and directly by tests and
/// failure-injection experiments that perturb the network by hand). The
/// spec's fault axis is resolved and installed here, so hand-built engines
/// honor it too.
pub fn assemble(
    spec: &ScenarioSpec,
    topology: Topology,
    links: LinkModel,
) -> Result<Engine<SimNode>, ScoopError> {
    // The node-visible spec counts every sensor present in the topology,
    // including dormant churn joiners — node logic sizes its statistics
    // tables and flood fallbacks from it. Without joins this is exactly
    // `spec.num_nodes` and the clone is bit-identical to the input.
    let mut node_spec = spec.clone();
    node_spec.num_nodes = topology.len() - 1;
    let cfg = Arc::new(node_spec);
    // Every node owns its data source. Sources are pure in `(node, now)`
    // (the scoop-workload contract), so per-node copies agree exactly with a
    // single shared source — and the resulting engine is `Send`, which lets
    // the sweep runner spread runs over threads. Construct once, then take
    // cheap copies (bulky immutable state is Arc-shared inside the source).
    let proto_source = make_source_for(&spec.workload, cfg.num_nodes, spec.seed);
    // Likewise everything that is a function of the config alone — the
    // static HASH / BASE index above all — is computed once and shared.
    let shared = NodeShared::new(cfg);
    let nodes: Vec<SimNode> = topology
        .nodes()
        .map(|id| SimNode::with_shared(id, &shared, proto_source.clone_box()))
        .collect();
    let total = topology.len();
    let engine_cfg = EngineConfig {
        seed: spec.seed,
        num_shards: engine_shards_from_env(),
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(topology, links, nodes, engine_cfg)?;
    let faults = resolve_fault_schedule(spec, total);
    if !faults.is_empty() {
        engine.set_fault_schedule(faults);
    }
    Ok(engine)
}

/// Region-shard count for the engine's event queue, from the
/// `SCOOP_ENGINE_SHARDS` environment variable (default 1). Like
/// `SCOOP_SWEEP_THREADS`, this is an execution knob, not part of the
/// experiment spec: any value yields byte-identical results (proven by the
/// `shard_determinism` integration test), so it never belongs in artifacts.
fn engine_shards_from_env() -> usize {
    std::env::var("SCOOP_ENGINE_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

/// A "permanent" end time for faults that never heal (churn kills). Half the
/// representable range so downstream arithmetic can never overflow.
const NEVER_HEALS: SimTime = SimTime::from_millis(u64::MAX / 2);

/// Draws `count` distinct ids from `pool` by a seeded partial Fisher–Yates;
/// the prefix of the (partially) shuffled pool is a uniform sample without
/// replacement. `stream` keeps different fault kinds and different windows
/// of the same kind on independent random streams.
fn seeded_sample(pool: &mut [u16], count: usize, seed: u64, stream: u64) -> Vec<u16> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let count = count.min(pool.len());
    if count == 0 {
        return Vec::new();
    }
    let mut rng =
        StdRng::seed_from_u64(seed ^ FAULT_SEED_SALT ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for i in 0..count {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool[..count].to_vec()
}

/// Resolves the declarative fault axis into the engine's concrete schedule:
/// per-node radio outages, partition cuts, and CPU halts.
///
/// Outage/partition windows with explicit node lists apply verbatim
/// (basestation and out-of-range ids are ignored for outages); fraction
/// windows sample `round(fraction × sensors)` distinct sensors by a seeded
/// partial shuffle, so the same spec always picks the same nodes and
/// different windows are sampled independently. Sink outages and churn kills
/// halt the CPU *and* down the radio (crash semantics); churn joiners — the
/// topology slots past the spec's own sensor count — stay halted and silent
/// from time zero until their event fires.
pub fn resolve_fault_schedule(spec: &ScenarioSpec, total_nodes: usize) -> FaultSchedule {
    let mut schedule = FaultSchedule::empty();
    let sensors = total_nodes.saturating_sub(1);
    for (index, window) in spec.faults.windows.iter().enumerate() {
        let from = SimTime::ZERO + window.start;
        let until = SimTime::ZERO + window.end;
        if !window.nodes.is_empty() {
            for &id in &window.nodes {
                if id != 0 && (id as usize) < total_nodes {
                    schedule.add(NodeId(id), from, until);
                }
            }
            continue;
        }
        let count = (window.fraction * sensors as f64).round() as usize;
        let mut pool: Vec<u16> = (1..=sensors as u16).collect();
        for &id in &seeded_sample(&mut pool, count, spec.seed, index as u64) {
            schedule.add(NodeId(id), from, until);
        }
    }

    for (index, p) in spec.faults.partitions.iter().enumerate() {
        let from = SimTime::ZERO + p.start;
        let until = SimTime::ZERO + p.end;
        let isolated: Vec<u16> = if !p.nodes.is_empty() {
            p.nodes
                .iter()
                .copied()
                .filter(|&id| (id as usize) < total_nodes)
                .collect()
        } else {
            let count = (p.fraction * sensors as f64).round() as usize;
            let mut pool: Vec<u16> = (1..=sensors as u16).collect();
            seeded_sample(&mut pool, count, spec.seed, 0x1000 + index as u64)
        };
        let mut side = vec![false; total_nodes];
        for &id in &isolated {
            side[id as usize] = true;
        }
        schedule.add_partition(from, until, side);
    }

    for outage in &spec.faults.sink_outages {
        let from = SimTime::ZERO + outage.start;
        let until = SimTime::ZERO + outage.end;
        if (outage.sink.0 as usize) < total_nodes {
            schedule.add(outage.sink, from, until);
            schedule.add_halt(outage.sink, from, until);
        }
    }

    // Churn joiners occupy the topology slots past the spec's own sensors,
    // assigned to events in schedule order.
    let sinks = spec.policy.sink_ids();
    let mut next_join = spec.num_nodes as u16 + 1;
    for (index, churn) in spec.faults.churn.iter().enumerate() {
        let at = SimTime::ZERO + churn.at;
        // Kills: a seeded sample of the *original* live sensors; the sinks
        // survive (killing one is what `sink_outages` is for).
        let mut pool: Vec<u16> = (1..=spec.num_nodes as u16)
            .filter(|&id| !sinks.contains(&NodeId(id)))
            .collect();
        let count = (churn.kill_fraction * pool.len() as f64).round() as usize;
        for &id in &seeded_sample(&mut pool, count, spec.seed, 0x2000 + index as u64) {
            schedule.add(NodeId(id), at, NEVER_HEALS);
            schedule.add_halt(NodeId(id), at, NEVER_HEALS);
        }
        // Joins: dormant (halted + radio-down) from time zero until `at`,
        // when their deferred startup timers finally fire.
        for _ in 0..churn.join_count(spec.num_nodes) {
            if (next_join as usize) < total_nodes {
                schedule.add(NodeId(next_join), SimTime::ZERO, at);
                schedule.add_halt(NodeId(next_join), SimTime::ZERO, at);
                next_join += 1;
            }
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::FaultWindow;

    fn spec_with_window(fraction: f64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::small_test();
        spec.faults
            .windows
            .push(FaultWindow::blackout(240, 420, fraction));
        spec
    }

    #[test]
    fn empty_fault_spec_resolves_to_empty_schedule() {
        let spec = ScenarioSpec::small_test();
        assert!(resolve_fault_schedule(&spec, 17).is_empty());
    }

    #[test]
    fn fraction_windows_sample_deterministically_and_spare_the_basestation() {
        let spec = spec_with_window(0.25);
        let a = resolve_fault_schedule(&spec, 17);
        let b = resolve_fault_schedule(&spec, 17);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4); // round(0.25 × 16)
        assert!(a.iter().all(|o| o.node != NodeId::BASESTATION));
        let mut nodes: Vec<_> = a.iter().map(|o| o.node).collect();
        nodes.dedup();
        assert_eq!(nodes.len(), 4, "sampling must be without replacement");

        let mut other = spec;
        other.seed += 1;
        let c = resolve_fault_schedule(&other, 17);
        assert_ne!(a, c, "a different seed should kill different nodes");
    }

    #[test]
    fn explicit_node_lists_apply_verbatim_and_filter_invalid_ids() {
        let mut spec = ScenarioSpec::small_test();
        spec.faults.windows.push(FaultWindow {
            nodes: vec![0, 3, 99],
            ..FaultWindow::blackout(60, 120, 0.0)
        });
        let schedule = resolve_fault_schedule(&spec, 17);
        let nodes: Vec<_> = schedule.iter().map(|o| o.node).collect();
        assert_eq!(nodes, vec![NodeId(3)]);
    }

    #[test]
    fn builder_installs_the_resolved_schedule() {
        let engine = SimBuilder::new(spec_with_window(0.25)).build().unwrap();
        assert_eq!(engine.fault_schedule().len(), 4);
        let engine = SimBuilder::new(ScenarioSpec::small_test()).build().unwrap();
        assert!(engine.fault_schedule().is_empty());
    }

    #[test]
    fn partitions_resolve_to_cuts_with_seeded_or_explicit_sides() {
        use scoop_types::PartitionWindow;
        let mut spec = ScenarioSpec::small_test();
        spec.faults
            .partitions
            .push(PartitionWindow::seeded(240, 420, 0.5));
        spec.faults.partitions.push(PartitionWindow {
            start: scoop_types::SimDuration::from_secs(500),
            end: scoop_types::SimDuration::from_secs(600),
            fraction: 0.0,
            nodes: vec![3, 7],
        });
        let a = resolve_fault_schedule(&spec, 17);
        let b = resolve_fault_schedule(&spec, 17);
        assert_eq!(a, b, "seeded sides are deterministic");
        let cuts: Vec<_> = a.cuts().collect();
        assert_eq!(cuts.len(), 2);
        assert_eq!(
            cuts[0].side.iter().filter(|&&s| s).count(),
            8,
            "round(0.5 × 16) sensors isolated"
        );
        assert!(!cuts[0].side[0], "the basestation is never seed-sampled");
        let explicit: Vec<usize> = cuts[1]
            .side
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(explicit, vec![3, 7]);
        let t = SimTime::from_secs(550);
        assert!(a.is_cut(NodeId(3), NodeId(4), t));
        assert!(!a.is_cut(NodeId(3), NodeId(7), t));
    }

    #[test]
    fn sink_outages_halt_and_down_the_sink() {
        use scoop_types::SinkOutage;
        let mut spec = ScenarioSpec::small_test();
        spec.policy.basestations = vec![NodeId(0), NodeId(5)];
        spec.faults.sink_outages.push(SinkOutage::new(240, 420, 5));
        let s = resolve_fault_schedule(&spec, 17);
        let mid = SimTime::from_secs(300);
        assert!(s.is_down(NodeId(5), mid));
        assert_eq!(
            s.halted_until(NodeId(5), mid),
            Some(SimTime::from_secs(420))
        );
        assert!(!s.is_down(NodeId(5), SimTime::from_secs(420)));
        assert!(!s.is_down(NodeId(0), mid));
    }

    #[test]
    fn churn_kills_permanently_and_keeps_joiners_dormant() {
        use scoop_types::ChurnEvent;
        let mut spec = ScenarioSpec::small_test();
        spec.policy.basestations = vec![NodeId(0), NodeId(5)];
        spec.faults.churn.push(ChurnEvent::new(300, 0.5, 0.25));
        assert_eq!(spec.faults.total_joins(spec.num_nodes), 4);

        // Topology grows by the joins: 16 original sensors + 4 joiners + base.
        let engine = SimBuilder::new(spec.clone()).build().unwrap();
        assert_eq!(engine.topology().len(), 21);

        let s = resolve_fault_schedule(&spec, 21);
        let at = SimTime::from_secs(300);
        // Kills: round(0.5 × 15 non-sink sensors) = 8, never the sinks,
        // never healed.
        let killed: Vec<NodeId> = (1..=16).map(NodeId).filter(|&n| s.is_down(n, at)).collect();
        assert_eq!(killed.len(), 8);
        assert!(!killed.contains(&NodeId(5)), "sinks survive churn");
        for &n in &killed {
            assert!(
                s.is_down(n, SimTime::from_secs(100_000)),
                "kills are permanent"
            );
            assert!(s.halted_until(n, at).is_some(), "killed CPUs halt too");
        }
        // Joiners (ids 17..=20): dormant before the event, live after.
        for id in 17..=20 {
            let n = NodeId(id);
            assert!(s.is_down(n, SimTime::from_secs(299)));
            assert_eq!(s.halted_until(n, SimTime::ZERO), Some(at));
            assert!(!s.is_down(n, at));
            assert_eq!(s.halted_until(n, at), None);
        }
    }

    #[test]
    fn builder_set_applies_axis_overrides() {
        let builder = SimBuilder::new(ScenarioSpec::small_test())
            .set("topology", "grid")
            .unwrap()
            .set("nodes", "96")
            .unwrap()
            .set("link.loss_floor", "0.05")
            .unwrap();
        assert_eq!(builder.spec().num_nodes, 96);
        let engine = builder.build().unwrap();
        assert_eq!(engine.topology().len(), 97);
        assert_eq!(engine.topology().kind(), scoop_net::TopologyKind::Grid);
    }

    #[test]
    fn builder_rejects_unknown_axes_and_invalid_specs() {
        assert!(SimBuilder::new(ScenarioSpec::small_test())
            .set("warp", "9")
            .is_err());
        let mut spec = ScenarioSpec::small_test();
        spec.num_nodes = 0;
        assert!(SimBuilder::new(spec).build().is_err());
    }
}
