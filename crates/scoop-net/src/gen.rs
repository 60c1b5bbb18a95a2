//! The topology / link-model generators.
//!
//! `scoop_sim::SimBuilder` realizes a spec's topology and link axes with
//! [`StdTopologyGen`] and [`StdLinkGen`]. Each trait has that one
//! implementation; both are pure in `seed`, so builds on different sweep
//! threads agree exactly.

use crate::link::LinkModel;
use crate::topology::Topology;
use scoop_types::{LinkSpec, ScoopError, TopologySpec};

/// Builds a [`Topology`] from a [`TopologySpec`]. Implementations must be
/// pure functions of `(spec, num_nodes, seed)`.
pub trait TopologyGen: Send + Sync {
    /// Generates the placement for `num_nodes` sensors plus the basestation.
    fn generate(
        &self,
        spec: &TopologySpec,
        num_nodes: usize,
        seed: u64,
    ) -> Result<Topology, ScoopError>;
}

/// Builds a [`LinkModel`] over a topology from a [`LinkSpec`].
/// Implementations must be pure functions of `(spec, topology, seed)`.
pub trait LinkGen: Send + Sync {
    /// Derives per-directed-pair link quality for `topo`.
    fn generate(
        &self,
        spec: &LinkSpec,
        topo: &Topology,
        seed: u64,
    ) -> Result<LinkModel, ScoopError>;
}

/// The standard placement factory: dispatches on [`TopologySpec::kind`] and
/// guarantees a connected result.
///
/// Random placements (uniform random; jittered office floors at unlucky
/// sizes) can land disconnected. Rather than handing the protocol an
/// unreachable island, the generator deterministically widens the radio
/// range by 25 % per attempt until every node can reach the basestation.
/// Specs whose natural range already connects — including every paper
/// default used by the committed experiments — take the first attempt and
/// are byte-identical to direct `Topology` construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdTopologyGen;

impl TopologyGen for StdTopologyGen {
    fn generate(
        &self,
        spec: &TopologySpec,
        num_nodes: usize,
        seed: u64,
    ) -> Result<Topology, ScoopError> {
        let mut boost = 1.0;
        loop {
            let attempt = TopologySpec {
                range_factor: spec.range_factor * boost,
                ..*spec
            };
            let topo = Topology::from_spec(&attempt, num_nodes, seed)?;
            if topo.is_connected() {
                return Ok(topo);
            }
            boost *= 1.25;
            if boost > 1e4 {
                // A range 10⁴× the natural one covers any finite arena; if
                // we get here the spec itself is degenerate.
                return Err(ScoopError::InvalidConfig(format!(
                    "topology spec cannot be connected: {spec:?} with {num_nodes} nodes"
                )));
            }
        }
    }
}

/// The standard loss-model factory: dispatches on [`LinkSpec::family`]
/// through [`LinkModel::from_spec`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StdLinkGen;

impl LinkGen for StdLinkGen {
    fn generate(
        &self,
        spec: &LinkSpec,
        topo: &Topology,
        seed: u64,
    ) -> Result<LinkModel, ScoopError> {
        LinkModel::from_spec(spec, topo, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::{LinkFamily, NodeId, TopologyKind};

    #[test]
    fn std_gens_match_direct_construction_on_defaults() {
        // The factory path must be byte-identical to the legacy constructors
        // for the paper's office-floor defaults.
        let spec = TopologySpec::office_floor();
        let topo_gen = StdTopologyGen.generate(&spec, 62, 7).unwrap();
        let topo_direct = Topology::office_floor(62, 7).unwrap();
        for n in topo_direct.nodes() {
            assert_eq!(
                topo_gen.position(n).unwrap().x,
                topo_direct.position(n).unwrap().x
            );
            assert_eq!(
                topo_gen.position(n).unwrap().y,
                topo_direct.position(n).unwrap().y
            );
        }
        assert_eq!(topo_gen.radio_range(), topo_direct.radio_range());

        let links_gen = StdLinkGen
            .generate(&LinkSpec::legacy(), &topo_gen, 7)
            .unwrap();
        let links_direct = LinkModel::from_topology(&topo_direct, 7);
        for a in topo_direct.nodes() {
            for b in topo_direct.nodes() {
                assert_eq!(
                    links_gen.link(a, b).delivery_prob,
                    links_direct.link(a, b).delivery_prob
                );
            }
        }
    }

    #[test]
    fn every_kind_generates_a_connected_topology() {
        for kind in TopologyKind::ALL {
            let spec = TopologySpec {
                kind,
                ..TopologySpec::office_floor()
            };
            for nodes in [2, 17, 96] {
                let topo = StdTopologyGen.generate(&spec, nodes, 11).unwrap();
                assert_eq!(topo.num_sensors(), nodes, "{kind:?}");
                assert!(topo.is_connected(), "{kind:?} at {nodes} nodes");
            }
        }
    }

    #[test]
    fn sparse_random_placements_get_range_escalated_until_connected() {
        // A deliberately starved radio range: escalation must rescue it.
        let spec = TopologySpec {
            kind: TopologyKind::UniformRandom,
            range_factor: 0.05,
            ..TopologySpec::uniform_random()
        };
        for seed in 0..10 {
            let topo = StdTopologyGen.generate(&spec, 30, seed).unwrap();
            assert!(topo.is_connected(), "seed {seed}");
            assert!(topo
                .nodes()
                .all(|n| topo.hop_distance(n, NodeId::BASESTATION).is_some()));
        }
    }

    #[test]
    fn perfect_family_produces_lossless_links() {
        let topo = StdTopologyGen
            .generate(&TopologySpec::grid(), 24, 1)
            .unwrap();
        let links = StdLinkGen.generate(&LinkSpec::perfect(), &topo, 1).unwrap();
        assert_eq!(links.mean_loss(), 0.0);
        assert_eq!(
            links.params().max_delivery,
            1.0,
            "perfect family must ignore the decay knobs"
        );
        let _ = LinkFamily::Perfect;
    }

    #[test]
    fn grid_spec_truncates_to_the_requested_count() {
        let topo = StdTopologyGen
            .generate(&TopologySpec::grid(), 256, 3)
            .unwrap();
        assert_eq!(topo.len(), 257);
        assert_eq!(topo.kind(), TopologyKind::Grid);
        assert!(topo.is_connected());
    }
}
