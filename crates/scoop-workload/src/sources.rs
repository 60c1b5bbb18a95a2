//! The five sensor data sources from Section 6.
//!
//! Every source is a *pure function* of its construction parameters and the
//! `(node, now)` sample coordinates: per-sample randomness is derived by
//! hashing `(seed, node, now)` rather than by advancing shared generator
//! state. Two sources built from the same arguments therefore return
//! identical values no matter how calls interleave — which is what lets a
//! simulation build one source per run, read it through `&self` from every
//! node, and still move the whole run to another thread.

use crate::real_trace::RealTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scoop_types::{DataSourceKind, NodeId, SimTime, Value, ValueRange};

/// A generator of sensor readings for every node in the network.
///
/// Implementations are pure: the same `(node, now)` pair always produces the
/// same value, independent of call order, and sampling mutates nothing. The
/// scenario runner builds one source per run and every node reads it by
/// reference — like a constant compiled into the one image every mote runs —
/// so the trait is `Sync` and [`DataSource::sample`] takes `&self`.
pub trait DataSource: Send + Sync {
    /// Which of the paper's data sources this is.
    fn kind(&self) -> DataSourceKind;

    /// The value domain readings are drawn from.
    fn domain(&self) -> ValueRange;

    /// Samples the sensor of `node` at time `now`.
    fn sample(&self, node: NodeId, now: SimTime) -> Value;
}

/// SplitMix64 finalizer: one 64-bit hash step.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes the per-sample coordinates into one 64-bit value.
pub(crate) fn sample_hash(seed: u64, node: NodeId, now: SimTime, salt: u64) -> u64 {
    mix64(mix64(mix64(seed ^ salt) ^ node.0 as u64) ^ now.as_millis())
}

/// Maps a hash to a uniform float in `[0, 1)`.
pub(crate) fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Approximate standard normal from a hash (Irwin–Hall sum of 12 uniforms).
fn std_normal(h: u64) -> f64 {
    let mut state = h;
    let mut sum = 0.0;
    for _ in 0..12 {
        state = mix64(state);
        sum += unit_f64(state);
    }
    sum - 6.0
}

/// UNIQUE: each node always produces its own node id.
#[derive(Clone, Debug)]
pub struct UniqueSource {
    domain: ValueRange,
}

impl UniqueSource {
    /// Creates the source over the given domain.
    pub fn new(domain: ValueRange) -> Self {
        UniqueSource { domain }
    }
}

impl DataSource for UniqueSource {
    fn kind(&self) -> DataSourceKind {
        DataSourceKind::Unique
    }
    fn domain(&self) -> ValueRange {
        self.domain
    }
    fn sample(&self, node: NodeId, _now: SimTime) -> Value {
        (self.domain.lo + node.0 as Value).min(self.domain.hi)
    }
}

/// EQUAL: all nodes produce the same constant value for the whole run.
#[derive(Clone, Debug)]
pub struct EqualSource {
    domain: ValueRange,
    value: Value,
}

impl EqualSource {
    /// Creates the source; the shared constant is drawn from the domain using
    /// `seed` so different trials differ.
    pub fn new(domain: ValueRange, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xe10a1);
        let value = rng.gen_range(domain.lo..=domain.hi);
        EqualSource { domain, value }
    }

    /// The constant value every node produces.
    pub fn value(&self) -> Value {
        self.value
    }
}

impl DataSource for EqualSource {
    fn kind(&self) -> DataSourceKind {
        DataSourceKind::Equal
    }
    fn domain(&self) -> ValueRange {
        self.domain
    }
    fn sample(&self, _node: NodeId, _now: SimTime) -> Value {
        self.value
    }
}

/// RANDOM: uniformly random values, no temporal or spatial structure at all.
#[derive(Clone, Debug)]
pub struct RandomSource {
    domain: ValueRange,
    seed: u64,
}

impl RandomSource {
    /// Creates the source.
    pub fn new(domain: ValueRange, seed: u64) -> Self {
        RandomSource { domain, seed }
    }
}

impl DataSource for RandomSource {
    fn kind(&self) -> DataSourceKind {
        DataSourceKind::Random
    }
    fn domain(&self) -> ValueRange {
        self.domain
    }
    fn sample(&self, node: NodeId, now: SimTime) -> Value {
        let width = self.domain.width();
        let h = sample_hash(self.seed, node, now, 0x4a4d04);
        self.domain.lo + (h % width) as Value
    }
}

/// GAUSSIAN: each node has a fixed mean drawn uniformly from the domain and
/// produces readings from a Gaussian with variance 10 around it.
#[derive(Clone, Debug)]
pub struct GaussianSource {
    domain: ValueRange,
    means: Vec<f64>,
    std_dev: f64,
    seed: u64,
}

impl GaussianSource {
    /// Creates the source for `num_nodes + 1` nodes (the basestation never
    /// samples but keeping slot 0 keeps indexing simple).
    pub fn new(domain: ValueRange, num_nodes: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6a55);
        let means = (0..=num_nodes)
            .map(|_| rng.gen_range(domain.lo as f64..=domain.hi as f64))
            .collect();
        GaussianSource {
            domain,
            means,
            // Paper: "variance of 10" → standard deviation sqrt(10).
            std_dev: 10.0_f64.sqrt(),
            seed,
        }
    }

    /// The per-node mean (for tests).
    pub fn mean_of(&self, node: NodeId) -> Option<f64> {
        self.means.get(node.index()).copied()
    }
}

impl DataSource for GaussianSource {
    fn kind(&self) -> DataSourceKind {
        DataSourceKind::Gaussian
    }
    fn domain(&self) -> ValueRange {
        self.domain
    }
    fn sample(&self, node: NodeId, now: SimTime) -> Value {
        let mean = self
            .means
            .get(node.index())
            .copied()
            .unwrap_or((self.domain.lo + self.domain.hi) as f64 / 2.0);
        let h = sample_hash(self.seed, node, now, 0x6a555a);
        let v = (mean + self.std_dev * std_normal(h)).round() as Value;
        v.clamp(self.domain.lo, self.domain.hi)
    }
}

/// Constructs the data source for an experiment.
///
/// * `kind` — which of the paper's sources to build;
/// * `domain` — attribute value domain (the synthetic sources use `[0, 100]`
///   in the paper; REAL uses ~150 values);
/// * `num_nodes` — sensor count (excluding the basestation);
/// * `seed` — all randomness derives from this.
///
/// Sources are pure in `(node, now)`, so one source serves every node of a
/// run (the simulation harness builds exactly one).
pub fn make_source(
    kind: DataSourceKind,
    domain: ValueRange,
    num_nodes: usize,
    seed: u64,
) -> Box<dyn DataSource> {
    match kind {
        DataSourceKind::Unique => Box::new(UniqueSource::new(domain)),
        DataSourceKind::Equal => Box::new(EqualSource::new(domain, seed)),
        DataSourceKind::Random => Box::new(RandomSource::new(domain, seed)),
        DataSourceKind::Gaussian => Box::new(GaussianSource::new(domain, num_nodes, seed)),
        DataSourceKind::Real => Box::new(RealTrace::new(domain, num_nodes, seed)),
    }
}

/// Builds the data source named by a [`WorkloadSpec`](scoop_types::WorkloadSpec)
/// over its value domain — the spec-driven twin of [`make_source`] used by
/// `scoop_sim::build_engine`.
pub fn make_source_for(
    workload: &scoop_types::WorkloadSpec,
    num_nodes: usize,
    seed: u64,
) -> Box<dyn DataSource> {
    make_source(workload.data_source, workload.value_domain, num_nodes, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOMAIN: ValueRange = ValueRange { lo: 0, hi: 100 };

    #[test]
    fn unique_source_returns_node_id() {
        let s = UniqueSource::new(DOMAIN);
        assert_eq!(s.sample(NodeId(7), SimTime::ZERO), 7);
        assert_eq!(s.sample(NodeId(42), SimTime::from_secs(99)), 42);
        // Values are clamped into the domain.
        assert_eq!(s.sample(NodeId(120), SimTime::ZERO), 100);
    }

    #[test]
    fn equal_source_is_constant_across_nodes_and_time() {
        let s = EqualSource::new(DOMAIN, 3);
        let v = s.sample(NodeId(1), SimTime::ZERO);
        for n in 1..20u16 {
            for t in 0..5 {
                assert_eq!(s.sample(NodeId(n), SimTime::from_secs(t)), v);
            }
        }
        assert!(DOMAIN.contains(v));
    }

    #[test]
    fn random_source_covers_domain_without_structure() {
        let s = RandomSource::new(DOMAIN, 5);
        let vals: Vec<Value> = (0..2000)
            .map(|i| s.sample(NodeId(1), SimTime::from_secs(i)))
            .collect();
        assert!(vals.iter().all(|v| DOMAIN.contains(*v)));
        let distinct: std::collections::HashSet<_> = vals.iter().collect();
        assert!(distinct.len() > 60, "should cover most of the domain");
    }

    #[test]
    fn gaussian_source_clusters_around_per_node_mean() {
        let s = GaussianSource::new(DOMAIN, 30, 7);
        for n in [1u16, 5, 20] {
            let mean = s.mean_of(NodeId(n)).unwrap();
            let vals: Vec<Value> = (0..200)
                .map(|i| s.sample(NodeId(n), SimTime::from_secs(i)))
                .collect();
            let avg = vals.iter().map(|&v| v as f64).sum::<f64>() / vals.len() as f64;
            assert!(
                (avg - mean.clamp(0.0, 100.0)).abs() < 3.0,
                "node {n}: sample mean {avg} vs configured {mean}"
            );
            // Variance 10 → almost everything within ±4σ ≈ 12.6 of the mean.
            assert!(vals
                .iter()
                .all(|&v| (v as f64 - mean).abs() < 15.0 || v == 0 || v == 100));
        }
    }

    #[test]
    fn gaussian_means_differ_between_nodes() {
        let s = GaussianSource::new(DOMAIN, 30, 7);
        let m1 = s.mean_of(NodeId(1)).unwrap();
        let distinct = (2..=30).any(|n| (s.mean_of(NodeId(n)).unwrap() - m1).abs() > 1.0);
        assert!(distinct);
    }

    #[test]
    fn factory_builds_every_kind() {
        for kind in DataSourceKind::ALL {
            let s = make_source(kind, DOMAIN, 16, 1);
            assert_eq!(s.kind(), kind);
            let v = s.sample(NodeId(3), SimTime::from_secs(30));
            assert!(s.domain().contains(v), "{kind}: {v} outside domain");
        }
    }

    #[test]
    fn sources_are_deterministic_per_seed() {
        for kind in DataSourceKind::ALL {
            let a = make_source(kind, DOMAIN, 16, 9);
            let b = make_source(kind, DOMAIN, 16, 9);
            for t in 0..50 {
                let node = NodeId((t % 16 + 1) as u16);
                assert_eq!(
                    a.sample(node, SimTime::from_secs(t * 15)),
                    b.sample(node, SimTime::from_secs(t * 15)),
                    "{kind} not deterministic"
                );
            }
        }
    }

    /// The property the one-source-per-run simulation depends on: sampling
    /// is a pure function of `(node, now)`, so however the nodes' calls
    /// interleave, each node sees what a source of its own would return.
    #[test]
    fn sources_are_order_independent() {
        for kind in DataSourceKind::ALL {
            // `a` samples nodes in interleaved order; `b` samples one node at
            // a time. Every (node, time) coordinate must agree.
            let a = make_source(kind, DOMAIN, 8, 11);
            let b = make_source(kind, DOMAIN, 8, 11);
            let coords: Vec<(NodeId, SimTime)> = (0..40)
                .map(|i| (NodeId((i % 8 + 1) as u16), SimTime::from_secs(i * 7)))
                .collect();
            let interleaved: Vec<Value> = coords.iter().map(|&(n, t)| a.sample(n, t)).collect();
            let mut by_node: std::collections::HashMap<(u16, u64), Value> =
                std::collections::HashMap::new();
            for node in 1..=8u16 {
                for &(n, t) in &coords {
                    if n.0 == node {
                        by_node.insert((n.0, t.as_millis()), b.sample(n, t));
                    }
                }
            }
            for (&(n, t), got) in coords.iter().zip(&interleaved) {
                assert_eq!(
                    by_node[&(n.0, t.as_millis())],
                    *got,
                    "{kind}: order dependence at node {n}, t={t}"
                );
            }
        }
    }
}
