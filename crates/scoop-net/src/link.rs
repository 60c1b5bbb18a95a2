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

/// Delivery probabilities for the usable directed links of a deployment.
///
/// The model stores only usable links (delivery probability > 0) in a
/// CSR-style neighbor table: per transmitter, the outgoing links in ascending
/// destination order. That table is the *single* source of truth — there is
/// no dense matrix. A dense `n × n` f64 matrix was 8.6 GB at 32,768 nodes;
/// the CSR table is O(usable links), a few MB for geometric topologies whose
/// per-node degree is bounded by radio range. A link is held as two parallel
/// entries, its listener's id and its probability, in two arrays under the
/// same offsets: 10 bytes a link, where a padded `(u16, f64)` pair would
/// take 16. [`LinkModel::link`] lookups binary-search the transmitter's row
/// of ids; the engine's transmit loop walks the two row slices together —
/// same listeners, same ascending order, same pre-clamped probabilities as
/// the historical dense-row scan.
#[derive(Clone, Debug)]
pub struct LinkModel {
    n: usize,
    /// CSR row offsets into `nbr_nodes` and `nbr_probs`;
    /// `nbr_offsets[i]..nbr_offsets[i+1]` is transmitter `i`'s row. Length
    /// `n + 1`.
    nbr_offsets: Vec<u32>,
    /// The listener of each usable outgoing link, grouped by transmitter,
    /// destinations ascending — exactly the order the old dense-row scan
    /// visited them.
    nbr_nodes: Vec<NodeId>,
    /// Each link's delivery probability, beside its listener in `nbr_nodes`,
    /// pre-clamped to `[0, 1]` so the engine's loss sampling needs no
    /// per-draw clamp.
    nbr_probs: Vec<f64>,
}

impl LinkModel {
    /// An empty table over `n` nodes with room for `links` links, filled by
    /// [`push_link`](Self::push_link) row by row in transmitter order, each
    /// row closed by [`end_row`](Self::end_row).
    fn with_capacity(n: usize, links: usize) -> Self {
        let mut nbr_offsets = Vec::with_capacity(n + 1);
        nbr_offsets.push(0);
        LinkModel {
            n,
            nbr_offsets,
            nbr_nodes: Vec::with_capacity(links),
            nbr_probs: Vec::with_capacity(links),
        }
    }

    /// Appends the link to `to`, delivering with probability `p`, to the
    /// open row.
    fn push_link(&mut self, to: NodeId, p: f64) {
        self.nbr_nodes.push(to);
        self.nbr_probs.push(p);
    }

    /// Closes the open row.
    fn end_row(&mut self) {
        self.nbr_offsets.push(self.nbr_nodes.len() as u32);
    }

    /// The distance-decay model with the pre-calibration [`LinkSpec::legacy`]
    /// knobs. Only the benchmark harness still calls it; everything else
    /// builds through [`LinkModel::from_spec`].
    pub fn from_topology(topo: &Topology, seed: u64) -> Self {
        Self::distance_decay(topo, seed, &LinkSpec::legacy())
    }

    /// The distance-decay family with `spec`'s calibration knobs.
    ///
    /// The CSR table is built directly from the topology's neighbor lists.
    /// Those lists are exactly the in-range destinations in ascending order —
    /// the same pairs, in the same order, the historical dense `n × n` loop
    /// visited — so the two noise draws per directed in-range pair consume
    /// the seeded RNG stream identically and every probability is
    /// bit-identical to the dense-matrix era.
    fn distance_decay(topo: &Topology, seed: u64, spec: &LinkSpec) -> Self {
        Self::distance_decay_with(topo, seed, spec, |frac| frac.powf(spec.distance_exponent))
    }

    /// [`distance_decay`](Self::distance_decay) with the shaping power
    /// `frac ↦ frac^exponent` passed in, so a test can count its calls.
    ///
    /// Two passes over one table. The first lays out every in-range link
    /// with its *shaped* distance in the probability slot; the second rolls
    /// each link's noise in row order, turns the slot into the delivery
    /// probability and closes up the links that came out dead. Both
    /// directions of a pair share one distance, bit for bit (the squared
    /// coordinate differences are the same numbers either way), so the
    /// second direction copies the shaped value the first one stored: one
    /// `powf` per unordered pair, and no side buffer.
    fn distance_decay_with(
        topo: &Topology,
        seed: u64,
        spec: &LinkSpec,
        mut pow: impl FnMut(f64) -> f64,
    ) -> Self {
        let n = topo.len();
        let max_delivery = spec.max_delivery();
        let min_delivery = spec.edge_delivery;
        // The last few `(frac bits, frac.powf(exponent))` pairs, direct-mapped
        // by a hash of the bits. Regular layouts repeat a handful of distance
        // fractions (a 10 m grid with a 16 m range has two), so most links
        // skip the reverse lookup and the libm call alike; a miss on a
        // jittered layout costs one hash and one compare. A hit returns the
        // bits `powf` returned for the same input bits, so every probability
        // is identical to calling `powf`. The initial slots are genuine
        // pairs: `pow(1, y)` is 1 for every y.
        // Do not replace `powf` with `frac * frac` for the calibrated
        // exponent 2.0: glibc's `pow(x, 2.0)` differs from `x * x` in the last
        // bit for 17,019 of 20M uniform x in [0, 1) (e.g. 0.8244240315627476),
        // which would move the probabilities, and so the digests, of
        // jittered layouts.
        let mut shaped_memo = [(1.0f64.to_bits(), 1.0); 16];
        let mut rows = LinkModel::with_capacity(n, topo.adjacency_len());
        for i in 0..n {
            let a = NodeId(i as u16);
            for &b in topo.neighbors(a) {
                let d = topo.distance(a, b).unwrap_or(f64::INFINITY);
                let frac = (d / topo.radio_range()).clamp(0.0, 1.0);
                // Decay is linear when the exponent is 1 (the exact
                // comparison keeps the default bit-identical to the
                // historical model), shaped by `frac^k` otherwise.
                let shaped = if spec.distance_exponent == 1.0 {
                    frac
                } else {
                    let bits = frac.to_bits();
                    let slot =
                        &mut shaped_memo[(bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 60) as usize];
                    if slot.0 != bits {
                        // Row `b` is already closed when `b < a`.
                        let reverse = if b < a {
                            rows.entry_position(b.index(), a).ok()
                        } else {
                            None
                        };
                        let value = match reverse {
                            Some(k) => rows.nbr_probs[k],
                            None => pow(frac),
                        };
                        *slot = (bits, value);
                    }
                    slot.1
                };
                rows.push_link(b, shaped);
            }
            rows.end_row();
        }
        // Decay from max_delivery at distance 0 to min_delivery at the edge
        // of range, plus per-direction Gaussian-ish noise (two uniform draws
        // averaged keeps the dependency set small). A kept link moves down
        // to `kept`, which never passes the link being read.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11d4_11d4);
        let mut kept = 0;
        let mut lo = 0;
        for i in 0..n {
            let hi = rows.nbr_offsets[i + 1] as usize;
            for k in lo..hi {
                let base = max_delivery - rows.nbr_probs[k] * (max_delivery - min_delivery);
                let noise: f64 = (rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0)) / 2.0
                    * spec.asymmetry_noise
                    * 2.0;
                let p = (base + noise).clamp(min_delivery * 0.5, max_delivery);
                if p > 0.0 {
                    // Until a link is dropped its id is already in place.
                    if kept != k {
                        rows.nbr_nodes[kept] = rows.nbr_nodes[k];
                    }
                    rows.nbr_probs[kept] = p.clamp(0.0, 1.0);
                    kept += 1;
                }
            }
            rows.nbr_offsets[i + 1] = kept as u32;
            lo = hi;
        }
        rows.nbr_nodes.truncate(kept);
        rows.nbr_probs.truncate(kept);
        rows
    }

    /// A loss-free link model over a topology: every in-range directed link
    /// delivers with probability 1. Useful for tests isolating protocol
    /// logic from loss.
    pub fn perfect(topo: &Topology) -> Self {
        let n = topo.len();
        let mut rows = LinkModel::with_capacity(n, topo.adjacency_len());
        for i in 0..n {
            for &b in topo.neighbors(NodeId(i as u16)) {
                rows.push_link(b, 1.0);
            }
            rows.end_row();
        }
        rows
    }

    /// Builds the loss model described by a [`LinkSpec`]: the family it names
    /// with its calibration knobs applied. This is the single construction
    /// path a simulation's links take.
    pub fn from_spec(
        spec: &LinkSpec,
        topo: &Topology,
        seed: u64,
    ) -> Result<Self, scoop_types::ScoopError> {
        spec.validate()?;
        Ok(match spec.family {
            scoop_types::LinkFamily::DistanceDecay => Self::distance_decay(topo, seed, spec),
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

    /// The range of `nbr_nodes` and `nbr_probs` holding transmitter `i`'s
    /// row.
    #[inline]
    fn row_bounds(&self, i: usize) -> (usize, usize) {
        (
            self.nbr_offsets[i] as usize,
            self.nbr_offsets[i + 1] as usize,
        )
    }

    /// Index, into the model's link entries, of `node`'s first outgoing
    /// link: entry `row_start(node) + i` is `neighbors(node).0[i]`. Rows
    /// are laid out in ascending transmitter order, so the entries of all
    /// rows, walked in order, are the links grouped by ascending transmitter.
    #[inline]
    pub(crate) fn row_start(&self, node: NodeId) -> usize {
        self.nbr_offsets[node.index()] as usize
    }

    /// The listener of link entry `entry` (see [`LinkModel::row_start`]).
    #[inline]
    pub(crate) fn listener(&self, entry: usize) -> NodeId {
        self.nbr_nodes[entry]
    }

    /// Position of the `from → to` entry: `Ok(index into the row arrays)` if
    /// the link is stored, `Err(insertion index)` otherwise. Rows are sorted
    /// by ascending destination, so this is a binary search of `from`'s ids.
    fn entry_position(&self, from: usize, to: NodeId) -> Result<usize, usize> {
        let (lo, hi) = self.row_bounds(from);
        self.nbr_nodes[lo..hi]
            .binary_search(&to)
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
                delivery_prob: self.nbr_probs[i],
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
            Ok(i) if p > 0.0 => self.nbr_probs[i] = p,
            Ok(i) => {
                self.nbr_nodes.remove(i);
                self.nbr_probs.remove(i);
                for off in &mut self.nbr_offsets[from.index() + 1..] {
                    *off -= 1;
                }
            }
            Err(i) if p > 0.0 => {
                self.nbr_nodes.insert(i, to);
                self.nbr_probs.insert(i, p);
                for off in &mut self.nbr_offsets[from.index() + 1..] {
                    *off += 1;
                }
            }
            Err(_) => {}
        }
    }

    /// The usable outgoing links of `node` as two parallel slices: the
    /// listeners (ascending) and their pre-clamped delivery probabilities —
    /// the engine's allocation-free replacement for [`LinkModel::listeners`]
    /// + per-listener [`link`] calls.
    ///
    /// [`link`]: LinkModel::link
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> (&[NodeId], &[f64]) {
        let i = node.index();
        if i >= self.n {
            return (&[], &[]);
        }
        let (lo, hi) = self.row_bounds(i);
        (&self.nbr_nodes[lo..hi], &self.nbr_probs[lo..hi])
    }

    /// Nodes with a usable link *from* `node` (i.e. nodes that can hear it).
    pub fn listeners(&self, node: NodeId) -> Vec<NodeId> {
        self.neighbors(node).0.to_vec()
    }

    /// Mean loss probability over all usable directed links.
    pub fn mean_loss(&self) -> f64 {
        if self.nbr_probs.is_empty() {
            return 0.0;
        }
        let total: f64 = self.nbr_probs.iter().map(|p| 1.0 - p).sum();
        total / self.nbr_probs.len() as f64
    }

    /// Total number of usable directed links (size of the neighbor table).
    pub fn usable_link_count(&self) -> usize {
        self.nbr_nodes.len()
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
            let (nodes, probs) = self.neighbors(NodeId(i as u16));
            for (&to, &p) in nodes.iter().zip(probs) {
                let j = to.index();
                let reverse = self.link(to, NodeId(i as u16)).delivery_prob;
                if j > i {
                    count += 1;
                    if (p - reverse).abs() > threshold {
                        asym += 1;
                    }
                } else if reverse == 0.0 {
                    // Only this (higher → lower) direction exists; the pair
                    // was not seen when scanning row `j`.
                    count += 1;
                    if p > threshold {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use scoop_types::TopologySpec;

    #[test]
    fn spec_path_matches_direct_construction_on_defaults() {
        // The spec path must be byte-identical to the legacy constructors
        // for the paper's office-floor defaults.
        let topo_spec = Topology::connected(&TopologySpec::office_floor(), 62, 7).unwrap();
        let topo_direct = Topology::office_floor(62, 7).unwrap();
        for n in topo_direct.nodes() {
            assert_eq!(
                topo_spec.position(n).unwrap().x,
                topo_direct.position(n).unwrap().x
            );
            assert_eq!(
                topo_spec.position(n).unwrap().y,
                topo_direct.position(n).unwrap().y
            );
        }
        assert_eq!(topo_spec.radio_range(), topo_direct.radio_range());

        let links_spec = LinkModel::from_spec(&LinkSpec::legacy(), &topo_spec, 7).unwrap();
        let links_direct = LinkModel::from_topology(&topo_direct, 7);
        for a in topo_direct.nodes() {
            for b in topo_direct.nodes() {
                assert_eq!(
                    links_spec.link(a, b).delivery_prob,
                    links_direct.link(a, b).delivery_prob
                );
            }
        }
    }

    #[test]
    fn perfect_family_produces_lossless_links() {
        let topo = Topology::connected(&TopologySpec::grid(), 24, 1).unwrap();
        let links = LinkModel::from_spec(&LinkSpec::perfect(), &topo, 1).unwrap();
        assert_eq!(links.mean_loss(), 0.0);
    }

    fn testbed() -> (Topology, LinkModel) {
        let topo = Topology::office_floor(62, 11).unwrap();
        let links = LinkModel::from_spec(&LinkSpec::legacy(), &topo, 11).unwrap();
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
        let build = |seed| LinkModel::from_spec(&LinkSpec::legacy(), &topo, seed).unwrap();
        let (a, b, c) = (build(9), build(9), build(10));
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
    fn dense_scan(links: &LinkModel, from: NodeId) -> (Vec<NodeId>, Vec<f64>) {
        (0..links.len())
            .map(|i| NodeId(i as u16))
            .filter(|&m| m != from && links.link(from, m).is_usable())
            .map(|m| (m, links.link(from, m).delivery_prob.clamp(0.0, 1.0)))
            .unzip()
    }

    /// `from`'s CSR row, owned, to compare with [`dense_scan`].
    fn row(links: &LinkModel, from: NodeId) -> (Vec<NodeId>, Vec<f64>) {
        let (nodes, probs) = links.neighbors(from);
        (nodes.to_vec(), probs.to_vec())
    }

    #[test]
    fn csr_table_matches_dense_scan_order_and_probs() {
        let (topo, links) = testbed();
        for a in topo.nodes() {
            assert_eq!(row(&links, a), dense_scan(&links, a), "{a}");
        }
        let total: usize = topo.nodes().map(|a| links.neighbors(a).0.len()).sum();
        assert_eq!(total, links.usable_link_count());
        // Out-of-model ids have no neighbors rather than panicking.
        assert_eq!(row(&links, NodeId(5000)), (vec![], vec![]));
    }

    #[test]
    fn csr_probs_are_pre_clamped() {
        let (topo, links) = testbed();
        for a in topo.nodes() {
            for &p in links.neighbors(a).1 {
                assert!((0.0..=1.0).contains(&p));
                assert!(p > 0.0, "dead links must not be listed");
            }
        }
    }

    #[test]
    fn set_link_rebuilds_the_csr_table() {
        let topo = Topology::grid(3, 10.0).unwrap();
        let mut links = LinkModel::perfect(&topo);
        let before = links.neighbors(NodeId(0)).0.len();
        links.set_link(NodeId(0), NodeId(1), 0.0); // kill a link
        assert_eq!(links.neighbors(NodeId(0)).0.len(), before - 1);
        assert!(!links.neighbors(NodeId(0)).0.contains(&NodeId(1)));
        links.set_link(NodeId(0), NodeId(1), 0.4); // revive it
        assert_eq!(links.neighbors(NodeId(0)).0.len(), before);
        assert_eq!(row(&links, NodeId(0)), dense_scan(&links, NodeId(0)));
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
        assert_eq!(row(&links, a), dense_scan(&links, a));
        // Other rows' slices are untouched by the offset shift.
        for i in 1..9 {
            let i = NodeId(i as u16);
            assert_eq!(row(&links, i), dense_scan(&links, i));
        }
        links.set_link(a, b, 0.0);
        assert_eq!(links.usable_link_count(), before);
        assert!(!links.link(a, b).is_usable());
    }

    /// The per-link construction as it was before the table was built in
    /// two passes: one `powf` per directed link, noise rolled as it goes,
    /// dead links dropped on the spot. Every kept link as `(from, to,
    /// probability bits)`, in row order.
    fn per_link_reference(
        topo: &Topology,
        seed: u64,
        spec: &LinkSpec,
    ) -> Vec<(NodeId, NodeId, u64)> {
        let max_delivery = spec.max_delivery();
        let min_delivery = spec.edge_delivery;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11d4_11d4);
        let mut out = Vec::new();
        for a in topo.nodes() {
            for &b in topo.neighbors(a) {
                let d = topo.distance(a, b).unwrap_or(f64::INFINITY);
                let frac = (d / topo.radio_range()).clamp(0.0, 1.0);
                let shaped = if spec.distance_exponent == 1.0 {
                    frac
                } else {
                    frac.powf(spec.distance_exponent)
                };
                let base = max_delivery - shaped * (max_delivery - min_delivery);
                let noise: f64 = (rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0)) / 2.0
                    * spec.asymmetry_noise
                    * 2.0;
                let p = (base + noise).clamp(min_delivery * 0.5, max_delivery);
                if p > 0.0 {
                    out.push((a, b, p.clamp(0.0, 1.0).to_bits()));
                }
            }
        }
        out
    }

    /// Every link of `links` in the shape [`per_link_reference`] returns.
    fn table(links: &LinkModel) -> Vec<(NodeId, NodeId, u64)> {
        (0..links.len())
            .map(|i| NodeId(i as u16))
            .flat_map(|a| {
                let (nodes, probs) = links.neighbors(a);
                nodes
                    .iter()
                    .zip(probs)
                    .map(move |(&b, p)| (a, b, p.to_bits()))
            })
            .collect()
    }

    #[test]
    fn two_pass_build_matches_the_per_link_loop_bit_for_bit() {
        let mut cases = Vec::new();
        for seed in 1..=32 {
            cases.push((TopologySpec::office_floor(), 62, seed));
        }
        for seed in [3, 17] {
            cases.push((TopologySpec::uniform_random(), 150, seed));
            cases.push((TopologySpec::grid(), 150, seed));
        }
        for exponent in [1.0, 2.0, 2.7] {
            let spec = LinkSpec {
                distance_exponent: exponent,
                ..LinkSpec::default()
            };
            for (topo_spec, nodes, seed) in &cases {
                let topo = Topology::connected(topo_spec, *nodes, *seed).unwrap();
                let links = LinkModel::from_spec(&spec, &topo, *seed).unwrap();
                assert_eq!(
                    table(&links),
                    per_link_reference(&topo, *seed, &spec),
                    "{:?}, seed {seed}, exponent {exponent}",
                    topo_spec.kind
                );
            }
        }
    }

    #[test]
    fn two_pass_build_drops_dead_links_like_the_per_link_loop() {
        // `from_spec` refuses a zero edge delivery, so no validated spec
        // reaches the drop path; build through the family directly.
        let spec = LinkSpec {
            edge_delivery: 0.0,
            ..LinkSpec::default()
        };
        let mut dropped = 0;
        for seed in 1..=8 {
            let topo = Topology::connected(&TopologySpec::office_floor(), 62, seed).unwrap();
            let links = LinkModel::distance_decay(&topo, seed, &spec);
            let reference = per_link_reference(&topo, seed, &spec);
            assert_eq!(table(&links), reference, "seed {seed}");
            dropped += topo.adjacency_len() - reference.len();
        }
        assert!(dropped > 0, "no link came out dead");
    }

    #[test]
    fn the_office_floor_shapes_each_in_range_pair_once() {
        let spec = LinkSpec::default();
        assert_ne!(spec.distance_exponent, 1.0);
        let topo = Topology::connected(&TopologySpec::office_floor(), 62, 11).unwrap();
        let mut calls = 0;
        let links = LinkModel::distance_decay_with(&topo, 11, &spec, |frac| {
            calls += 1;
            frac.powf(spec.distance_exponent)
        });
        assert_eq!(table(&links), per_link_reference(&topo, 11, &spec));
        let pairs = topo.adjacency_len() / 2;
        assert!(calls <= pairs, "{calls} powf calls for {pairs} pairs");
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
