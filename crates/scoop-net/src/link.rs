//! Per-directed-pair link quality and loss model.
//!
//! Section 6 of the paper describes the simulated radio environment: among
//! pairs that can hear each other, "loss rates vary from twenty-five percent
//! to about ninety percent" and "connections are slightly asymmetric, as in
//! most real wireless networks". The [`LinkModel`] reproduces that: every
//! directed link within radio range gets a delivery probability that decays
//! with distance, plus per-direction random noise.

use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scoop_types::{LinkSpec, NodeId};
use serde::{Deserialize, Serialize};

/// Quality of one directed link.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct LinkQuality {
    /// Probability that a single transmission on this link is received.
    pub delivery_prob: f64,
}

impl LinkQuality {
    /// A link that never delivers anything (out of range).
    pub const DEAD: LinkQuality = LinkQuality { delivery_prob: 0.0 };

    /// Loss probability (complement of delivery).
    pub fn loss_prob(&self) -> f64 {
        1.0 - self.delivery_prob
    }

    /// Expected number of transmissions needed for one successful delivery
    /// (the ETX metric used by Woo et al. and De Couto et al.). Dead links
    /// report `f64::INFINITY`.
    pub fn etx(&self) -> f64 {
        if self.delivery_prob <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.delivery_prob
        }
    }

    /// Returns `true` if the link can deliver packets at all.
    pub fn is_usable(&self) -> bool {
        self.delivery_prob > 0.0
    }
}

/// Parameters controlling how link quality is derived from the topology.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct LinkModelParams {
    /// Delivery probability of a link at (near-)zero distance.
    pub max_delivery: f64,
    /// Delivery probability of a link right at the edge of radio range.
    pub min_delivery: f64,
    /// Standard deviation of the per-direction noise added to delivery
    /// probability (produces asymmetry).
    pub asymmetry_noise: f64,
    /// Shape of the decay between the two endpoints: delivery falls with
    /// `(d / range) ^ distance_exponent`; `1.0` is the calibrated linear
    /// decay.
    pub distance_exponent: f64,
}

impl LinkModelParams {
    /// Translates the serializable [`LinkSpec`] calibration knobs into model
    /// parameters. This is the only place the mapping lives, so the
    /// spec-driven path and [`LinkModelParams::default`] cannot drift apart.
    pub fn from_spec(spec: &LinkSpec) -> Self {
        LinkModelParams {
            max_delivery: spec.max_delivery(),
            min_delivery: spec.edge_delivery,
            asymmetry_noise: spec.asymmetry_noise,
            distance_exponent: spec.distance_exponent,
        }
    }
}

impl Default for LinkModelParams {
    fn default() -> Self {
        // The pre-calibration knobs (`LinkSpec::legacy`), which
        // `LinkModel::from_topology` builds with. The shipped calibrated
        // model arrives through the `LinkSpec` path (`LinkModel::from_spec`
        // with `LinkSpec::default()`).
        Self::from_spec(&LinkSpec::legacy())
    }
}

/// One usable outgoing link in the precomputed neighbor table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// The node that can hear the transmitter.
    pub node: NodeId,
    /// Delivery probability of the directed link, pre-clamped to `[0, 1]`
    /// so the engine's loss sampling needs no per-draw clamp.
    pub delivery_prob: f64,
}

/// Delivery probabilities for the usable directed links of a deployment.
///
/// The model stores only usable links (delivery probability > 0) in a
/// CSR-style neighbor table: per transmitter, the outgoing links in ascending
/// destination order. That table is the *single* source of truth — there is
/// no dense matrix. A dense `n × n` f64 matrix was 8.6 GB at 32,768 nodes;
/// the CSR table is O(usable links), a few MB for geometric topologies whose
/// per-node degree is bounded by radio range. [`LinkModel::link`] lookups
/// binary-search the transmitter's row; the engine's transmit loop iterates
/// the row slice directly — same listeners, same ascending order, same
/// pre-clamped probabilities as the historical dense-row scan.
#[derive(Clone, Debug)]
pub struct LinkModel {
    n: usize,
    params: LinkModelParams,
    /// CSR row offsets into `nbr_entries`; `nbr_offsets[i]..nbr_offsets[i+1]`
    /// is transmitter `i`'s slice. Length `n + 1`.
    nbr_offsets: Vec<u32>,
    /// Usable outgoing links, grouped by transmitter, destinations ascending
    /// — exactly the order the old dense-row scan visited them.
    nbr_entries: Vec<Neighbor>,
}

impl LinkModel {
    /// Derives a link model from a topology with the default parameters.
    pub fn from_topology(topo: &Topology, seed: u64) -> Self {
        Self::with_params(topo, seed, LinkModelParams::default())
    }

    /// Derives a link model from a topology with explicit parameters.
    ///
    /// The CSR table is built directly from the topology's neighbor lists.
    /// Those lists are exactly the in-range destinations in ascending order —
    /// the same pairs, in the same order, the historical dense `n × n` loop
    /// visited — so the two noise draws per directed in-range pair consume
    /// the seeded RNG stream identically and every probability is
    /// bit-identical to the dense-matrix era.
    pub fn with_params(topo: &Topology, seed: u64, params: LinkModelParams) -> Self {
        let n = topo.len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11d4_11d4);
        // The last few `(frac bits, frac.powf(exponent))` pairs, direct-mapped
        // by a hash of the bits. Regular layouts repeat a handful of distance
        // fractions (a 10 m grid with a 16 m range has two), so most links
        // skip the libm call; a miss on a jittered layout costs one hash and
        // one compare. A hit returns the bits `powf` returned for the same
        // input bits, so every probability is identical to calling `powf`.
        // The initial slots are genuine pairs: `pow(1, y)` is 1 for every y.
        // Do not replace `powf` with `frac * frac` for the calibrated
        // exponent 2.0: glibc's `pow(x, 2.0)` differs from `x * x` in the last
        // bit for 17,019 of 20M uniform x in [0, 1) (e.g. 0.8244240315627476),
        // which would move the probabilities, and so the digests, of
        // jittered layouts.
        let mut shaped_memo = [(1.0f64.to_bits(), 1.0); 16];
        let mut nbr_offsets = Vec::with_capacity(n + 1);
        let mut nbr_entries = Vec::new();
        nbr_offsets.push(0u32);
        for i in 0..n {
            let a = NodeId(i as u16);
            for &b in topo.neighbors(a) {
                let d = topo.distance(a, b).unwrap_or(f64::INFINITY);
                let frac = (d / topo.radio_range()).clamp(0.0, 1.0);
                // Decay from max_delivery at distance 0 to min_delivery at the
                // edge of range — linear when the exponent is 1 (the exact
                // comparison keeps the default bit-identical to the historical
                // model), shaped by `frac^k` otherwise — plus per-direction
                // Gaussian-ish noise (two uniform draws averaged keeps the
                // dependency set small).
                let shaped = if params.distance_exponent == 1.0 {
                    frac
                } else {
                    let bits = frac.to_bits();
                    let slot =
                        &mut shaped_memo[(bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 60) as usize];
                    if slot.0 != bits {
                        *slot = (bits, frac.powf(params.distance_exponent));
                    }
                    slot.1
                };
                let base =
                    params.max_delivery - shaped * (params.max_delivery - params.min_delivery);
                let noise: f64 = (rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0)) / 2.0
                    * params.asymmetry_noise
                    * 2.0;
                let p = (base + noise).clamp(params.min_delivery * 0.5, params.max_delivery);
                if p > 0.0 {
                    nbr_entries.push(Neighbor {
                        node: b,
                        delivery_prob: p.clamp(0.0, 1.0),
                    });
                }
            }
            nbr_offsets.push(nbr_entries.len() as u32);
        }
        LinkModel {
            n,
            params,
            nbr_offsets,
            nbr_entries,
        }
    }

    /// A loss-free link model over a topology: every in-range directed link
    /// delivers with probability 1. Useful for tests isolating protocol
    /// logic from loss.
    pub fn perfect(topo: &Topology) -> Self {
        let n = topo.len();
        let mut nbr_offsets = Vec::with_capacity(n + 1);
        let mut nbr_entries = Vec::new();
        nbr_offsets.push(0u32);
        for i in 0..n {
            for &b in topo.neighbors(NodeId(i as u16)) {
                nbr_entries.push(Neighbor {
                    node: b,
                    delivery_prob: 1.0,
                });
            }
            nbr_offsets.push(nbr_entries.len() as u32);
        }
        LinkModel {
            n,
            params: LinkModelParams {
                max_delivery: 1.0,
                min_delivery: 1.0,
                asymmetry_noise: 0.0,
                distance_exponent: 1.0,
            },
            nbr_offsets,
            nbr_entries,
        }
    }

    /// Builds the loss model described by a [`LinkSpec`]: the family it names
    /// with its calibration knobs applied. This is the single construction
    /// path the `LinkGen` factories use.
    pub fn from_spec(
        spec: &LinkSpec,
        topo: &Topology,
        seed: u64,
    ) -> Result<Self, scoop_types::ScoopError> {
        spec.validate()?;
        Ok(match spec.family {
            scoop_types::LinkFamily::DistanceDecay => {
                Self::with_params(topo, seed, LinkModelParams::from_spec(spec))
            }
            scoop_types::LinkFamily::Perfect => Self::perfect(topo),
        })
    }

    /// Number of nodes covered by the model.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false for a constructed model.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The parameters the model was built with.
    pub fn params(&self) -> LinkModelParams {
        self.params
    }

    /// The `nbr_entries` range holding transmitter `i`'s row.
    #[inline]
    fn row_bounds(&self, i: usize) -> (usize, usize) {
        (
            self.nbr_offsets[i] as usize,
            self.nbr_offsets[i + 1] as usize,
        )
    }

    /// Position of the `from → to` entry: `Ok(index into nbr_entries)` if the
    /// link is stored, `Err(insertion index)` otherwise. Rows are sorted by
    /// ascending destination, so this is a binary search of `from`'s slice.
    fn entry_position(&self, from: usize, to: NodeId) -> Result<usize, usize> {
        let (lo, hi) = self.row_bounds(from);
        self.nbr_entries[lo..hi]
            .binary_search_by(|e| e.node.cmp(&to))
            .map(|p| lo + p)
            .map_err(|p| lo + p)
    }

    /// Quality of the directed link `from → to`.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkQuality {
        if from.index() >= self.n || to.index() >= self.n || from == to {
            return LinkQuality::DEAD;
        }
        match self.entry_position(from.index(), to) {
            Ok(i) => LinkQuality {
                delivery_prob: self.nbr_entries[i].delivery_prob,
            },
            Err(_) => LinkQuality::DEAD,
        }
    }

    /// Overrides the delivery probability of one directed link (used by tests
    /// and by failure-injection experiments). Setting a zero probability
    /// removes the entry; setting a positive probability on a previously
    /// unusable pair inserts one — even between nodes out of radio range,
    /// exactly like writes into the old dense matrix.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, delivery_prob: f64) {
        if from.index() >= self.n || to.index() >= self.n || from == to {
            return;
        }
        let p = delivery_prob.clamp(0.0, 1.0);
        // Overrides happen during scenario setup, never inside the event
        // loop; the O(links) offset shift on insert/remove is irrelevant.
        match self.entry_position(from.index(), to) {
            Ok(i) if p > 0.0 => self.nbr_entries[i].delivery_prob = p,
            Ok(i) => {
                self.nbr_entries.remove(i);
                for off in &mut self.nbr_offsets[from.index() + 1..] {
                    *off -= 1;
                }
            }
            Err(i) if p > 0.0 => {
                self.nbr_entries.insert(
                    i,
                    Neighbor {
                        node: to,
                        delivery_prob: p,
                    },
                );
                for off in &mut self.nbr_offsets[from.index() + 1..] {
                    *off += 1;
                }
            }
            Err(_) => {}
        }
    }

    /// The usable outgoing links of `node` (destinations ascending), with
    /// their pre-clamped delivery probabilities — the engine's allocation-free
    /// replacement for [`LinkModel::listeners`] + per-listener [`link`] calls.
    ///
    /// [`link`]: LinkModel::link
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[Neighbor] {
        let i = node.index();
        if i >= self.n {
            return &[];
        }
        let lo = self.nbr_offsets[i] as usize;
        let hi = self.nbr_offsets[i + 1] as usize;
        &self.nbr_entries[lo..hi]
    }

    /// Nodes with a usable link *from* `node` (i.e. nodes that can hear it).
    pub fn listeners(&self, node: NodeId) -> Vec<NodeId> {
        self.neighbors(node).iter().map(|nb| nb.node).collect()
    }

    /// Mean loss probability over all usable directed links.
    pub fn mean_loss(&self) -> f64 {
        if self.nbr_entries.is_empty() {
            return 0.0;
        }
        let total: f64 = self.nbr_entries.iter().map(|e| 1.0 - e.delivery_prob).sum();
        total / self.nbr_entries.len() as f64
    }

    /// Total number of usable directed links (size of the neighbor table).
    pub fn usable_link_count(&self) -> usize {
        self.nbr_entries.len()
    }

    /// Fraction of usable link pairs whose two directions differ by more than
    /// `threshold` in delivery probability — a measure of asymmetry.
    ///
    /// Enumerates unordered pairs `{i, j}` with at least one usable direction
    /// by walking the CSR entries: each `i → j` entry with `j > i` covers the
    /// pairs whose forward direction is usable; each `j → i` entry (`i < j`)
    /// whose reverse is *not* stored covers the rest, so every pair is
    /// counted exactly once.
    pub fn asymmetric_fraction(&self, threshold: f64) -> f64 {
        let mut asym = 0usize;
        let mut count = 0usize;
        for i in 0..self.n {
            let (lo, hi) = self.row_bounds(i);
            for e in &self.nbr_entries[lo..hi] {
                let j = e.node.index();
                let reverse = self.link(e.node, NodeId(i as u16)).delivery_prob;
                if j > i {
                    count += 1;
                    if (e.delivery_prob - reverse).abs() > threshold {
                        asym += 1;
                    }
                } else if reverse == 0.0 {
                    // Only this (higher → lower) direction exists; the pair
                    // was not seen when scanning row `j`.
                    count += 1;
                    if e.delivery_prob > threshold {
                        asym += 1;
                    }
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            asym as f64 / count as f64
        }
    }
}

// Hand-written (de)serialization. The wire schema is sparse — `{n, params,
// offsets, targets, probs}`, the CSR split into parallel arrays — so file
// size scales with usable links, not n².
impl Serialize for LinkModel {
    fn to_value(&self) -> serde::Value {
        let targets: Vec<u16> = self.nbr_entries.iter().map(|e| e.node.0).collect();
        let probs: Vec<f64> = self.nbr_entries.iter().map(|e| e.delivery_prob).collect();
        serde::Value::Object(vec![
            ("n".to_string(), Serialize::to_value(&self.n)),
            ("params".to_string(), Serialize::to_value(&self.params)),
            (
                "offsets".to_string(),
                Serialize::to_value(&self.nbr_offsets),
            ),
            ("targets".to_string(), Serialize::to_value(&targets)),
            ("probs".to_string(), Serialize::to_value(&probs)),
        ])
    }
}

impl Deserialize for LinkModel {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let null = serde::Value::Null;
        let n: usize = Deserialize::from_value(v.get("n").unwrap_or(&null))?;
        let params: LinkModelParams = Deserialize::from_value(v.get("params").unwrap_or(&null))?;
        let nbr_offsets: Vec<u32> = Deserialize::from_value(v.get("offsets").unwrap_or(&null))?;
        let targets: Vec<u16> = Deserialize::from_value(v.get("targets").unwrap_or(&null))?;
        let probs: Vec<f64> = Deserialize::from_value(v.get("probs").unwrap_or(&null))?;
        if nbr_offsets.len() != n + 1 || nbr_offsets.first() != Some(&0) {
            return Err(serde::Error::custom(format!(
                "LinkModel: {} offsets for n = {n}",
                nbr_offsets.len()
            )));
        }
        if targets.len() != probs.len() || *nbr_offsets.last().unwrap() as usize != targets.len() {
            return Err(serde::Error::custom(
                "LinkModel: offsets/targets/probs disagree on link count".to_string(),
            ));
        }
        let mut nbr_entries = Vec::with_capacity(targets.len());
        for i in 0..n {
            let lo = nbr_offsets[i] as usize;
            let hi = nbr_offsets[i + 1] as usize;
            if lo > hi || hi > targets.len() {
                return Err(serde::Error::custom(format!(
                    "LinkModel: row {i} offsets are not monotonic"
                )));
            }
            let mut prev: Option<u16> = None;
            for k in lo..hi {
                let t = targets[k];
                let p = probs[k];
                if (t as usize) >= n || t as usize == i {
                    return Err(serde::Error::custom(format!(
                        "LinkModel: row {i} targets node {t} outside the model"
                    )));
                }
                if prev.is_some_and(|pv| pv >= t) {
                    return Err(serde::Error::custom(format!(
                        "LinkModel: row {i} destinations are not ascending"
                    )));
                }
                if !(p > 0.0 && p <= 1.0) {
                    return Err(serde::Error::custom(format!(
                        "LinkModel: row {i} stores unusable probability {p}"
                    )));
                }
                prev = Some(t);
                nbr_entries.push(Neighbor {
                    node: NodeId(t),
                    delivery_prob: p,
                });
            }
        }
        Ok(LinkModel {
            n,
            params,
            nbr_offsets,
            nbr_entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn testbed() -> (Topology, LinkModel) {
        let topo = Topology::office_floor(62, 11).unwrap();
        let links = LinkModel::from_topology(&topo, 11);
        (topo, links)
    }

    #[test]
    fn loss_rates_match_paper_band() {
        let (topo, links) = testbed();
        let mut losses = Vec::new();
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b && topo.in_range(a, b) {
                    losses.push(links.link(a, b).loss_prob());
                }
            }
        }
        assert!(!losses.is_empty());
        let min = losses.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = losses.iter().cloned().fold(0.0, f64::max);
        // Paper: loss rates vary from ~25 % to ~90 % among connected pairs.
        assert!(min < 0.35, "best links should lose < 35 %, got {min}");
        assert!(max > 0.70, "worst links should lose > 70 %, got {max}");
        assert!(max <= 0.97, "even the worst link should sometimes deliver");
    }

    #[test]
    fn out_of_range_links_are_dead() {
        let (topo, links) = testbed();
        let mut checked = 0;
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b && !topo.in_range(a, b) {
                    assert!(!links.link(a, b).is_usable());
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn links_are_asymmetric() {
        let (_, links) = testbed();
        assert!(
            links.asymmetric_fraction(0.02) > 0.3,
            "a substantial fraction of links should differ between directions"
        );
    }

    #[test]
    fn self_links_and_unknown_nodes_are_dead() {
        let (_, links) = testbed();
        assert!(!links.link(NodeId(4), NodeId(4)).is_usable());
        assert!(!links.link(NodeId(4), NodeId(120)).is_usable());
    }

    #[test]
    fn etx_is_inverse_delivery() {
        let q = LinkQuality { delivery_prob: 0.5 };
        assert!((q.etx() - 2.0).abs() < 1e-9);
        assert!(LinkQuality::DEAD.etx().is_infinite());
    }

    #[test]
    fn perfect_model_has_no_loss() {
        let topo = Topology::grid(4, 10.0).unwrap();
        let links = LinkModel::perfect(&topo);
        assert_eq!(links.mean_loss(), 0.0);
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b && topo.in_range(a, b) {
                    assert_eq!(links.link(a, b).delivery_prob, 1.0);
                }
            }
        }
    }

    #[test]
    fn set_link_overrides_and_clamps() {
        let topo = Topology::grid(3, 10.0).unwrap();
        let mut links = LinkModel::perfect(&topo);
        links.set_link(NodeId(0), NodeId(1), 0.25);
        assert!((links.link(NodeId(0), NodeId(1)).delivery_prob - 0.25).abs() < 1e-12);
        links.set_link(NodeId(0), NodeId(1), 7.0);
        assert_eq!(links.link(NodeId(0), NodeId(1)).delivery_prob, 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let topo = Topology::office_floor(20, 5).unwrap();
        let a = LinkModel::from_topology(&topo, 9);
        let b = LinkModel::from_topology(&topo, 9);
        let c = LinkModel::from_topology(&topo, 10);
        assert_eq!(
            a.link(NodeId(1), NodeId(2)).delivery_prob,
            b.link(NodeId(1), NodeId(2)).delivery_prob
        );
        // A different seed should perturb at least some link.
        let differs = topo.nodes().any(|x| {
            topo.nodes()
                .any(|y| a.link(x, y).delivery_prob != c.link(x, y).delivery_prob)
        });
        assert!(differs);
    }

    /// The old dense-row scan, reimplemented verbatim as the oracle for the
    /// CSR table: ascending destinations, usable links only.
    fn dense_scan(links: &LinkModel, from: NodeId) -> Vec<Neighbor> {
        (0..links.len())
            .map(|i| NodeId(i as u16))
            .filter(|&m| m != from && links.link(from, m).is_usable())
            .map(|m| Neighbor {
                node: m,
                delivery_prob: links.link(from, m).delivery_prob.clamp(0.0, 1.0),
            })
            .collect()
    }

    #[test]
    fn csr_table_matches_dense_scan_order_and_probs() {
        let (topo, links) = testbed();
        for a in topo.nodes() {
            assert_eq!(links.neighbors(a), dense_scan(&links, a).as_slice(), "{a}");
        }
        let total: usize = topo.nodes().map(|a| links.neighbors(a).len()).sum();
        assert_eq!(total, links.usable_link_count());
        // Out-of-model ids have no neighbors rather than panicking.
        assert!(links.neighbors(NodeId(5000)).is_empty());
    }

    #[test]
    fn csr_probs_are_pre_clamped() {
        let (topo, links) = testbed();
        for a in topo.nodes() {
            for nb in links.neighbors(a) {
                assert!((0.0..=1.0).contains(&nb.delivery_prob));
                assert!(nb.delivery_prob > 0.0, "dead links must not be listed");
            }
        }
    }

    #[test]
    fn set_link_rebuilds_the_csr_table() {
        let topo = Topology::grid(3, 10.0).unwrap();
        let mut links = LinkModel::perfect(&topo);
        let before = links.neighbors(NodeId(0)).len();
        links.set_link(NodeId(0), NodeId(1), 0.0); // kill a link
        assert_eq!(links.neighbors(NodeId(0)).len(), before - 1);
        assert!(links
            .neighbors(NodeId(0))
            .iter()
            .all(|nb| nb.node != NodeId(1)));
        links.set_link(NodeId(0), NodeId(1), 0.4); // revive it
        assert_eq!(links.neighbors(NodeId(0)).len(), before);
        assert_eq!(links.neighbors(NodeId(0)), dense_scan(&links, NodeId(0)));
    }

    #[test]
    fn serialization_round_trips_and_rebuilds_the_table() {
        let (_, links) = testbed();
        let json = serde_json::to_string(&links).unwrap();
        // The v2 wire schema is the sparse CSR split into parallel arrays —
        // no dense matrix anywhere in the file.
        assert!(json.starts_with("{\"n\":"));
        assert!(json.contains("\"offsets\":"));
        assert!(!json.contains("\"delivery\":"));
        let back: LinkModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), links.len());
        for a in 0..links.len() {
            let a = NodeId(a as u16);
            assert_eq!(back.neighbors(a), links.neighbors(a), "{a}");
        }
        // A corrupt node count is rejected instead of building a bogus table.
        let bad = json.replacen("\"n\":63", "\"n\":62", 1);
        assert!(serde_json::from_str::<LinkModel>(&bad).is_err());
    }

    #[test]
    fn deserialization_rejects_the_dense_v1_schema() {
        // The pre-sparse `{n, delivery, params}` document — a dense row-major
        // matrix — has no CSR arrays, so it is a typed error, not a model.
        let topo = Topology::grid(2, 10.0).unwrap();
        let links = LinkModel::perfect(&topo);
        let n = links.len();
        let v1 = serde::Value::Object(vec![
            ("n".to_string(), serde::Serialize::to_value(&n)),
            (
                "delivery".to_string(),
                serde::Serialize::to_value(&vec![1.0; n * n]),
            ),
            (
                "params".to_string(),
                serde::Serialize::to_value(&links.params()),
            ),
        ]);
        let err: serde::Error = LinkModel::from_value(&v1).unwrap_err();
        assert!(err.to_string().contains("array"), "{err}");
    }

    #[test]
    fn set_link_inserts_out_of_range_pairs() {
        // The dense matrix allowed overriding *any* directed pair; the
        // sparse table must too (failure-injection scenarios rely on it).
        let topo = Topology::grid(3, 10.0).unwrap();
        let mut links = LinkModel::perfect(&topo);
        let (a, b) = (NodeId(0), NodeId(8)); // opposite corners, out of range
        assert!(!links.link(a, b).is_usable());
        let before = links.usable_link_count();
        links.set_link(a, b, 0.6);
        assert_eq!(links.usable_link_count(), before + 1);
        assert!((links.link(a, b).delivery_prob - 0.6).abs() < 1e-12);
        assert_eq!(links.neighbors(a), dense_scan(&links, a).as_slice());
        // Other rows' slices are untouched by the offset shift.
        for i in 1..9 {
            let i = NodeId(i as u16);
            assert_eq!(links.neighbors(i), dense_scan(&links, i).as_slice());
        }
        links.set_link(a, b, 0.0);
        assert_eq!(links.usable_link_count(), before);
        assert!(!links.link(a, b).is_usable());
    }

    #[test]
    fn listeners_match_topology_neighbors() {
        let topo = Topology::grid(3, 10.0).unwrap();
        let links = LinkModel::perfect(&topo);
        for n in topo.nodes() {
            let mut a = links.listeners(n);
            let mut b: Vec<NodeId> = topo.neighbors(n).to_vec();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }
}
