//! The comparison policies: BASE, LOCAL, and HASH.
//!
//! BASE ("send-to-base") and LOCAL ("store-local, flood queries") are fully
//! simulated by the harness; this module provides their *analytical* expected
//! costs, which the basestation's store-local fallback uses and which the
//! benchmark harness reports alongside the simulated numbers. HASH — a
//! static, uniform value-to-node mapping in the spirit of geographic hash
//! tables — is the policy the paper could only evaluate analytically; we
//! provide both the analytical model and a concrete [`StorageIndex`] so it
//! can be simulated too.

use crate::index::StorageIndex;
use scoop_net::Topology;
use scoop_types::{NodeId, SimTime, StorageIndexId, ValueRange};

/// Builds the static HASH index: value `v` is owned by node
/// `1 + (hash(v) mod n_sensors)`, independent of any statistics. The same
/// mapping is used for the whole experiment (id 1).
pub fn hash_index(domain: ValueRange, num_sensors: usize, created_at: SimTime) -> StorageIndex {
    let owners: Vec<NodeId> = domain
        .values()
        .map(|v| NodeId((1 + (splitmix(v as u64) as usize % num_sensors.max(1))) as u16))
        .collect();
    StorageIndex::from_owners(StorageIndexId(1), domain, &owners, created_at)
        .expect("owner vector sized from the domain")
}

/// A small, deterministic integer hash (SplitMix64 finalizer) so the HASH
/// baseline does not depend on the experiment seed. Public because the
/// multi-sink federation reuses it to partition attribute ownership across
/// basestations (the "existing hash" of the fault-model contract).
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Analytical expected message counts for a whole experiment, used to price
/// the HASH baseline (as the paper does) and to sanity-check the simulated
/// BASE / LOCAL numbers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnalyticalCosts {
    /// Expected data messages.
    pub data: f64,
    /// Expected query-dissemination messages.
    pub query: f64,
    /// Expected reply messages.
    pub reply: f64,
}

impl AnalyticalCosts {
    /// Total expected messages.
    pub fn total(&self) -> f64 {
        self.data + self.query + self.reply
    }
}

/// Analytical model over a known topology (hop counts stand in for expected
/// transmissions; the simulator adds loss-driven retransmissions on top).
pub struct AnalyticalModel<'a> {
    topo: &'a Topology,
}

impl<'a> AnalyticalModel<'a> {
    /// Creates a model over `topo`.
    pub fn new(topo: &'a Topology) -> Self {
        AnalyticalModel { topo }
    }

    /// Hop count from every sensor to the basestation, in sensor order, from
    /// one BFS rooted at the basestation (radio-range adjacency is symmetric,
    /// so base→sensor equals sensor→base). Unreachable counts as 0 hops.
    fn sensor_hops_to_base(&self) -> impl Iterator<Item = f64> {
        self.topo
            .hops_from(NodeId::BASESTATION)
            .into_iter()
            .skip(1)
            .map(hops_or_zero)
    }

    /// Mean hop distance from a sensor to the basestation.
    pub fn mean_hops_to_base(&self) -> f64 {
        let n = self.topo.num_sensors();
        if n == 0 {
            return 0.0;
        }
        self.sensor_hops_to_base().sum::<f64>() / n as f64
    }

    /// Mean hop distance between two arbitrary distinct nodes — the expected
    /// cost of shipping a reading to a uniformly random owner, i.e. "roughly
    /// halfway across the network" (Section 6). One BFS per source node.
    pub fn mean_pairwise_hops(&self) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for a in self.topo.nodes() {
            for (b, d) in self.topo.hops_from(a).into_iter().enumerate() {
                if a.index() != b {
                    total += hops_or_zero(d);
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Expected costs of the BASE policy: every reading travels its
    /// producer's depth; queries are answered at the basestation for free.
    pub fn base(&self, readings_per_sensor: u64) -> AnalyticalCosts {
        let data: f64 = self
            .sensor_hops_to_base()
            .map(|h| h * readings_per_sensor as f64)
            .sum();
        AnalyticalCosts {
            data,
            query: 0.0,
            reply: 0.0,
        }
    }

    /// Expected costs of the LOCAL policy: data is free; every query is
    /// flooded (roughly one broadcast per node thanks to Trickle) and every
    /// node replies up the tree.
    pub fn local(&self, num_queries: u64) -> AnalyticalCosts {
        let n = self.topo.num_sensors() as f64;
        let reply_per_query: f64 = self.sensor_hops_to_base().sum();
        AnalyticalCosts {
            data: 0.0,
            query: num_queries as f64 * n,
            reply: num_queries as f64 * reply_per_query,
        }
    }

    /// Expected costs of the HASH policy: every reading travels to a random
    /// node (mean pairwise distance); every query contacts the owners of the
    /// queried values (`owners_per_query` of them on average, ~1 for the
    /// paper's narrow queries) and each owner replies.
    pub fn hash(
        &self,
        readings_per_sensor: u64,
        num_queries: u64,
        owners_per_query: f64,
    ) -> AnalyticalCosts {
        let n_sensors = self.topo.num_sensors() as f64;
        let data = n_sensors * readings_per_sensor as f64 * self.mean_pairwise_hops();
        let to_base = self.mean_hops_to_base();
        let per_owner_roundtrip = 2.0 * to_base;
        AnalyticalCosts {
            data,
            query: num_queries as f64 * owners_per_query * to_base,
            reply: num_queries as f64 * owners_per_query * (per_owner_roundtrip - to_base),
        }
    }
}

/// The model's convention: an unreachable node (`u32::MAX` from
/// [`Topology::hops_from`]) contributes 0 hops.
fn hops_or_zero(d: u32) -> f64 {
    if d == u32::MAX {
        0.0
    } else {
        d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::office_floor(30, 5).unwrap()
    }

    #[test]
    fn hash_index_is_complete_deterministic_and_spread_out() {
        let domain = ValueRange::new(0, 99);
        let a = hash_index(domain, 30, SimTime::ZERO);
        let b = hash_index(domain, 30, SimTime::ZERO);
        assert_eq!(
            a.entries(),
            b.entries(),
            "static hash must be deterministic"
        );
        assert!(a.is_complete());
        // No value maps to the basestation, and many distinct owners exist.
        assert!(a.owners().iter().all(|o| !o.is_basestation()));
        assert!(a.owners().len() > 15, "uniform hash should spread values");
    }

    #[test]
    fn hash_index_single_sensor_degenerates_gracefully() {
        let idx = hash_index(ValueRange::new(0, 9), 1, SimTime::ZERO);
        assert!(idx.owners().iter().all(|&o| o == NodeId(1)));
    }

    #[test]
    fn base_cost_scales_with_rate_and_depth() {
        let t = topo();
        let m = AnalyticalModel::new(&t);
        let a = m.base(10);
        let b = m.base(20);
        assert!(b.data > a.data * 1.99 && b.data < a.data * 2.01);
        assert_eq!(a.query, 0.0);
    }

    #[test]
    fn local_cost_scales_with_queries_not_data() {
        let t = topo();
        let m = AnalyticalModel::new(&t);
        let a = m.local(10);
        let b = m.local(20);
        assert_eq!(a.data, 0.0);
        assert!(b.total() > a.total() * 1.99);
        assert!(a.query >= 10.0 * t.num_sensors() as f64 * 0.999);
    }

    #[test]
    fn hash_data_cost_comparable_to_base_when_rates_equal() {
        // Paper: "We expect the overall storage costs of HASH to be
        // comparable to the storage costs of BASE because, on average, each
        // packet has to be sent roughly halfway across the network."
        let t = topo();
        let m = AnalyticalModel::new(&t);
        let base = m.base(100);
        let hash = m.hash(100, 100, 1.0);
        let ratio = hash.data / base.data;
        assert!(
            (0.5..=2.5).contains(&ratio),
            "hash/base data cost ratio {ratio} should be of the same order"
        );
        // But HASH pays extra for querying, which BASE does not.
        assert!(hash.query + hash.reply > 0.0);
        assert_eq!(base.query + base.reply, 0.0);
    }

    #[test]
    fn mean_pairwise_hops_is_positive_and_bounded_by_depth() {
        let t = topo();
        let m = AnalyticalModel::new(&t);
        let mean = m.mean_pairwise_hops();
        assert!(mean > 1.0);
        assert!(mean <= t.network_depth() as f64 * 2.0);
    }

    #[test]
    fn means_are_bit_identical_to_the_pairwise_hop_distance_sums() {
        // A connected floor, and a starved one whose unreachable pairs must
        // count as 0 hops.
        let sparse = scoop_types::TopologySpec {
            range_factor: 0.4,
            ..scoop_types::TopologySpec::office_floor()
        };
        let starved = Topology::from_spec(&sparse, 30, 5).unwrap();
        assert!(!starved.is_connected());
        for t in [topo(), starved] {
            let hops = |a, b| t.hop_distance(a, b).unwrap_or(0) as f64;
            let to_base: f64 = t.sensors().map(|s| hops(s, NodeId::BASESTATION)).sum();
            let mut pairwise = 0.0;
            for a in t.nodes() {
                for b in t.nodes().filter(|&b| b != a) {
                    pairwise += hops(a, b);
                }
            }
            let pairs = t.len() * (t.len() - 1);
            let m = AnalyticalModel::new(&t);
            assert_eq!(
                m.mean_hops_to_base().to_bits(),
                (to_base / t.num_sensors() as f64).to_bits()
            );
            assert_eq!(
                m.mean_pairwise_hops().to_bits(),
                (pairwise / pairs as f64).to_bits()
            );
            let base_data: f64 = t
                .sensors()
                .map(|s| hops(s, NodeId::BASESTATION) * 7.0)
                .sum();
            assert_eq!(m.base(7).data.to_bits(), base_data.to_bits());
        }
    }
}
