//! Node placement and radio-range connectivity.
//!
//! A [`Topology`] assigns every node (including the basestation, node 0) a
//! position on a 2-D floor plan and derives which pairs of nodes are within
//! radio range. Link loss probabilities are layered on top by
//! [`LinkModel`](crate::LinkModel).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scoop_types::{NodeId, ScoopError, TopologySpec, MAX_NODES};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

pub use scoop_types::TopologyKind;

/// A node's position, in meters, on the floor plan.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct NodePosition {
    /// X coordinate (meters).
    pub x: f64,
    /// Y coordinate (meters).
    pub y: f64,
}

impl NodePosition {
    /// Euclidean distance to another position.
    pub fn distance(&self, other: &NodePosition) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Node positions plus radio-range connectivity.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Topology {
    kind: TopologyKind,
    positions: Vec<NodePosition>,
    radio_range: f64,
    /// CSR row offsets into `adjacency`, length `n + 1`: node `i`'s
    /// neighbours are `adjacency[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Every node's in-range neighbours, one row per node, each row in
    /// strictly ascending id order (`build_adjacency` sorts every row);
    /// `in_range` binary-searches on that invariant.
    adjacency: Vec<NodeId>,
}

impl Topology {
    /// Builds a topology from explicit positions and a radio range.
    ///
    /// Node 0 is the basestation. Returns an error if more than
    /// [`MAX_NODES`] positions are given, if fewer than two nodes exist, or
    /// if any coordinate is NaN or infinite.
    pub fn from_positions(
        kind: TopologyKind,
        positions: Vec<NodePosition>,
        radio_range: f64,
    ) -> Result<Self, ScoopError> {
        if positions.len() > MAX_NODES {
            return Err(ScoopError::TooManyNodes {
                requested: positions.len(),
                limit: MAX_NODES,
            });
        }
        if positions.len() < 2 {
            return Err(ScoopError::InvalidConfig(
                "a topology needs at least a basestation and one sensor".into(),
            ));
        }
        if let Some(i) = positions
            .iter()
            .position(|p| !(p.x.is_finite() && p.y.is_finite()))
        {
            return Err(ScoopError::InvalidConfig(format!(
                "node {i} has a non-finite position ({}, {})",
                positions[i].x, positions[i].y
            )));
        }
        let (offsets, adjacency) = Self::build_adjacency(&positions, radio_range);
        Ok(Topology {
            kind,
            positions,
            radio_range,
            offsets,
            adjacency,
        })
    }

    /// Derives the CSR adjacency (every node within `radio_range`, ascending
    /// ids) by spatial binning. Nodes are counting-sorted into a dense
    /// `cols × rows` array of square cells whose side is at least
    /// `radio_range`, so every in-range pair lies in the same or adjacent
    /// cells and each node tests only its 3×3 cell neighbourhood —
    /// O(n · degree) instead of the O(n²) all-pairs scan, which at 32k nodes
    /// was a billion distance checks. The side starts at `radio_range` and
    /// doubles until there are at most `2n + 16` cells, so sparse or
    /// far-flung layouts (two nodes 10¹² m apart, range 10⁻³ m) stay O(n) in
    /// time and memory. Each row is written straight into `adjacency` and
    /// sorted, which yields exactly the ascending order the all-pairs loop
    /// produced (the link model's seeded noise stream and the engine's
    /// per-listener loss draws both depend on that order).
    fn build_adjacency(positions: &[NodePosition], radio_range: f64) -> (Vec<u32>, Vec<NodeId>) {
        let n = positions.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adjacency = Vec::new();
        offsets.push(0u32);
        if !(radio_range > 0.0 && radio_range.is_finite()) {
            // Degenerate ranges (zero, negative, infinite) have no sensible
            // cell size; fall back to the exhaustive scan.
            for (i, p) in positions.iter().enumerate() {
                for (j, q) in positions.iter().enumerate() {
                    if i != j && p.distance(q) <= radio_range {
                        adjacency.push(NodeId(j as u16));
                    }
                }
                offsets.push(adjacency.len() as u32);
            }
            return (offsets, adjacency);
        }
        let (min_x, max_x) = positions
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
                (lo.min(p.x), hi.max(p.x))
            });
        let (min_y, max_y) = positions
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
                (lo.min(p.y), hi.max(p.y))
            });
        // `as usize` saturates (and maps NaN to 0), so no span overflows; the
        // doubling loop ends by the time `side` reaches the span.
        let span = |side: f64| {
            (
                (((max_x - min_x) / side) as usize).saturating_add(1),
                (((max_y - min_y) / side) as usize).saturating_add(1),
            )
        };
        let mut side = radio_range;
        let (mut cols, mut rows) = span(side);
        while cols.saturating_mul(rows) > 2 * n + 16 {
            side *= 2.0;
            (cols, rows) = span(side);
        }
        let cell = |p: &NodePosition| {
            (
                ((p.x - min_x) / side) as usize,
                ((p.y - min_y) / side) as usize,
            )
        };
        // Counting sort: count per cell, prefix-sum to each cell's end, then
        // scatter ids in descending order, decrementing — which leaves
        // `cell_start[c]` at cell `c`'s first slot in `members` and each
        // cell's ids ascending. `cell_start[cols * rows]` stays `n`.
        let mut cell_start = vec![0u32; cols * rows + 1];
        for p in positions {
            let (cx, cy) = cell(p);
            cell_start[cy * cols + cx] += 1;
        }
        for c in 1..cell_start.len() {
            cell_start[c] += cell_start[c - 1];
        }
        let mut members = vec![0u32; n];
        for (i, p) in positions.iter().enumerate().rev() {
            let (cx, cy) = cell(p);
            let slot = &mut cell_start[cy * cols + cx];
            *slot -= 1;
            members[*slot as usize] = i as u32;
        }
        for (i, p) in positions.iter().enumerate() {
            let (cx, cy) = cell(p);
            let row_start = adjacency.len();
            // Cells `cx - 1 ..= cx + 1` of one cell row are contiguous in
            // `members`, so each of the (up to) three cell rows is one slice.
            let (x0, x1) = (cx.saturating_sub(1), (cx + 1).min(cols - 1));
            for y in cy.saturating_sub(1)..=(cy + 1).min(rows - 1) {
                let lo = cell_start[y * cols + x0] as usize;
                let hi = cell_start[y * cols + x1 + 1] as usize;
                for &j in &members[lo..hi] {
                    let j = j as usize;
                    if i != j && p.distance(&positions[j]) <= radio_range {
                        adjacency.push(NodeId(j as u16));
                    }
                }
            }
            adjacency[row_start..].sort_unstable();
            offsets.push(adjacency.len() as u32);
        }
        (offsets, adjacency)
    }

    /// Builds the layout described by a [`TopologySpec`]: the generator named
    /// by `spec.kind` with the spec's geometry parameters applied. This is
    /// the single construction path the `TopologyGen` factories use; the
    /// named constructors below are thin wrappers over it with the default
    /// spec of each family.
    pub fn from_spec(spec: &TopologySpec, num_nodes: usize, seed: u64) -> Result<Self, ScoopError> {
        spec.validate()?;
        match spec.kind {
            TopologyKind::OfficeFloor => Self::office_floor_spec(spec, num_nodes, seed),
            TopologyKind::Grid => Self::grid_spec(spec, num_nodes),
            TopologyKind::UniformRandom => Self::uniform_random_spec(spec, num_nodes, seed),
            TopologyKind::Linear => Self::linear_spec(spec, num_nodes),
        }
    }

    /// The paper's testbed-like layout: `num_nodes` sensors plus the
    /// basestation, on a jittered grid spanning a long rectangular floor
    /// (roughly 60 m × 25 m for 62 nodes), basestation at the left edge.
    ///
    /// The radio range is chosen so that an average node hears roughly 20 %
    /// of the network, as reported in Section 6.
    pub fn office_floor(num_nodes: usize, seed: u64) -> Result<Self, ScoopError> {
        Self::office_floor_spec(&TopologySpec::office_floor(), num_nodes, seed)
    }

    fn office_floor_spec(
        spec: &TopologySpec,
        num_nodes: usize,
        seed: u64,
    ) -> Result<Self, ScoopError> {
        let total = num_nodes + 1;
        let mut rng = StdRng::seed_from_u64(seed ^ OFFICE_SEED_SALT);
        // Aim for an aspect ratio of ~2.5:1 at the configured density.
        let area = total as f64 * spec.area_per_node;
        let width = (area * 2.5).sqrt();
        let height = area / width;
        let cols = (total as f64 * 2.5_f64).sqrt().ceil() as usize;
        let rows = total.div_ceil(cols);
        let dx = width / cols as f64;
        let dy = height / rows.max(1) as f64;

        let mut positions = Vec::with_capacity(total);
        // Basestation at the left edge, vertically centered (like a PC at the
        // end of the office floor).
        positions.push(NodePosition {
            x: 0.0,
            y: height / 2.0,
        });
        'outer: for r in 0..rows {
            for c in 0..cols {
                if positions.len() == total {
                    break 'outer;
                }
                let (jx, jy) = if spec.jitter > 0.0 {
                    (
                        rng.gen_range(-spec.jitter..spec.jitter) * dx,
                        rng.gen_range(-spec.jitter..spec.jitter) * dy,
                    )
                } else {
                    (0.0, 0.0)
                };
                positions.push(NodePosition {
                    x: (c as f64 + 0.75) * dx + jx,
                    y: (r as f64 + 0.5) * dy + jy,
                });
            }
        }
        // Radio range tuned for ~20 % average connectivity on the default
        // 62-node floor; scales with node spacing for other sizes.
        let radio_range = 2.6 * dx.max(dy) * spec.range_factor;
        Self::from_positions(TopologyKind::OfficeFloor, positions, radio_range)
    }

    /// A regular `side × side` grid with `spacing` meters between nodes and a
    /// radio range of `1.6 × spacing` (each node hears its horizontal,
    /// vertical, and diagonal neighbors).
    pub fn grid(side: usize, spacing: f64) -> Result<Self, ScoopError> {
        let mut positions = Vec::with_capacity(side * side);
        for r in 0..side {
            for c in 0..side {
                positions.push(NodePosition {
                    x: c as f64 * spacing,
                    y: r as f64 * spacing,
                });
            }
        }
        Self::from_positions(TopologyKind::Grid, positions, 1.6 * spacing)
    }

    fn grid_spec(spec: &TopologySpec, num_nodes: usize) -> Result<Self, ScoopError> {
        // `num_nodes` sensors plus the basestation (node 0, in the corner),
        // filling a near-square grid row-major; the last row may be partial.
        let total = num_nodes + 1;
        let side = (total as f64).sqrt().ceil() as usize;
        let mut positions = Vec::with_capacity(total);
        'outer: for r in 0..side {
            for c in 0..side {
                if positions.len() == total {
                    break 'outer;
                }
                positions.push(NodePosition {
                    x: c as f64 * spec.spacing,
                    y: r as f64 * spec.spacing,
                });
            }
        }
        Self::from_positions(
            TopologyKind::Grid,
            positions,
            1.6 * spec.spacing * spec.range_factor,
        )
    }

    /// `num_nodes + 1` nodes placed uniformly at random in a square arena
    /// sized for ~25 m² per node, basestation at the center.
    pub fn uniform_random(num_nodes: usize, seed: u64) -> Result<Self, ScoopError> {
        Self::uniform_random_spec(&TopologySpec::uniform_random(), num_nodes, seed)
    }

    fn uniform_random_spec(
        spec: &TopologySpec,
        num_nodes: usize,
        seed: u64,
    ) -> Result<Self, ScoopError> {
        let total = num_nodes + 1;
        let side = (total as f64 * spec.area_per_node).sqrt();
        let mut rng = StdRng::seed_from_u64(seed ^ UNIFORM_SEED_SALT);
        let mut positions = Vec::with_capacity(total);
        positions.push(NodePosition {
            x: side / 2.0,
            y: side / 2.0,
        });
        for _ in 0..num_nodes {
            positions.push(NodePosition {
                x: rng.gen_range(0.0..side),
                y: rng.gen_range(0.0..side),
            });
        }
        Self::from_positions(
            TopologyKind::UniformRandom,
            positions,
            side / 4.0 * spec.range_factor,
        )
    }

    /// A straight chain of `num_nodes + 1` nodes, `spacing` meters apart, with
    /// a radio range of `1.5 × spacing` (each node hears only its immediate
    /// neighbors and, weakly, the node two hops away).
    pub fn linear(num_nodes: usize, spacing: f64) -> Result<Self, ScoopError> {
        let spec = TopologySpec {
            spacing,
            ..TopologySpec::linear()
        };
        Self::linear_spec(&spec, num_nodes)
    }

    fn linear_spec(spec: &TopologySpec, num_nodes: usize) -> Result<Self, ScoopError> {
        let positions = (0..=num_nodes)
            .map(|i| NodePosition {
                x: i as f64 * spec.spacing,
                y: 0.0,
            })
            .collect();
        Self::from_positions(
            TopologyKind::Linear,
            positions,
            1.5 * spec.spacing * spec.range_factor,
        )
    }

    /// Which generator produced this topology.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Total number of nodes, including the basestation.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Always false: a valid topology has at least two nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Number of sensor nodes (excluding the basestation).
    pub fn num_sensors(&self) -> usize {
        self.len() - 1
    }

    /// The radio range used to derive connectivity.
    pub fn radio_range(&self) -> f64 {
        self.radio_range
    }

    /// Iterates over every node id, basestation first.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(|i| NodeId(i as u16))
    }

    /// Iterates over sensor node ids (everything except the basestation).
    pub fn sensors(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..self.len()).map(|i| NodeId(i as u16))
    }

    /// The position of a node.
    pub fn position(&self, node: NodeId) -> Option<NodePosition> {
        self.positions.get(node.index()).copied()
    }

    /// The distance in meters between two nodes, if both exist.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Option<f64> {
        Some(self.position(a)?.distance(&self.position(b)?))
    }

    /// Nodes within radio range of `node`.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        if i >= self.len() {
            return &[];
        }
        &self.adjacency[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Returns `true` if `b` is within radio range of `a`.
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Average fraction of the network each node can hear (the paper reports
    /// about 20 % for its simulated 62-node topology).
    pub fn connectivity_fraction(&self) -> f64 {
        if self.len() <= 1 {
            return 0.0;
        }
        self.adjacency.len() as f64 / (self.len() as f64 * (self.len() - 1) as f64)
    }

    /// Hop distance between two nodes using radio-range connectivity (BFS),
    /// ignoring loss. Returns `None` if they are not connected at all.
    pub fn hop_distance(&self, from: NodeId, to: NodeId) -> Option<u32> {
        if from == to {
            return Some(0);
        }
        if self.position(from).is_none() || self.position(to).is_none() {
            return None;
        }
        let mut dist = vec![u32::MAX; self.len()];
        dist[from.index()] = 0;
        let mut q = VecDeque::new();
        q.push_back(from);
        while let Some(n) = q.pop_front() {
            let d = dist[n.index()];
            for &m in self.neighbors(n) {
                if dist[m.index()] == u32::MAX {
                    dist[m.index()] = d + 1;
                    if m == to {
                        return Some(d + 1);
                    }
                    q.push_back(m);
                }
            }
        }
        None
    }

    /// Hop distance from `src` to every node in one full BFS, O(n + E):
    /// `hops_from(a)[b.index()]` equals `hop_distance(a, b)`, with `u32::MAX`
    /// standing for unreachable (`None`). An unknown `src` reaches nothing.
    pub fn hops_from(&self, src: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.len()];
        if src.index() >= self.len() {
            return dist;
        }
        dist[src.index()] = 0;
        let mut q = VecDeque::new();
        q.push_back(src);
        while let Some(n) = q.pop_front() {
            let d = dist[n.index()];
            for &m in self.neighbors(n) {
                if dist[m.index()] == u32::MAX {
                    dist[m.index()] = d + 1;
                    q.push_back(m);
                }
            }
        }
        dist
    }

    /// Returns `true` if every node can reach the basestation over radio-range
    /// links (ignoring loss).
    pub fn is_connected(&self) -> bool {
        self.hops_from(NodeId::BASESTATION)
            .iter()
            .all(|&d| d != u32::MAX)
    }

    /// The largest hop distance from the basestation to any node it reaches.
    pub fn network_depth(&self) -> u32 {
        self.hops_from(NodeId::BASESTATION)
            .into_iter()
            .filter(|&d| d != u32::MAX)
            .max()
            .unwrap_or(0)
    }
}

// Seed salts keep the per-generator random streams independent of each other
// even when the caller passes the same experiment seed to both.
const OFFICE_SEED_SALT: u64 = 0x5eed_0001;
const UNIFORM_SEED_SALT: u64 = 0x5eed_0002;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn office_floor_has_expected_size_and_connectivity() {
        let topo = Topology::office_floor(62, 7).unwrap();
        assert_eq!(topo.len(), 63);
        assert_eq!(topo.num_sensors(), 62);
        assert!(topo.is_connected(), "testbed topology must be connected");
        let frac = topo.connectivity_fraction();
        assert!(
            (0.08..=0.40).contains(&frac),
            "connectivity fraction {frac} should be near the paper's ~20 %"
        );
        let depth = topo.network_depth();
        assert!(
            (3..=9).contains(&depth),
            "office floor should be a multi-hop network, got depth {depth}"
        );
    }

    #[test]
    fn office_floor_is_deterministic_per_seed() {
        let a = Topology::office_floor(30, 42).unwrap();
        let b = Topology::office_floor(30, 42).unwrap();
        let c = Topology::office_floor(30, 43).unwrap();
        assert_eq!(
            a.position(NodeId(5)).unwrap().x,
            b.position(NodeId(5)).unwrap().x
        );
        assert_ne!(
            a.position(NodeId(5)).unwrap().x,
            c.position(NodeId(5)).unwrap().x
        );
    }

    #[test]
    fn grid_connectivity() {
        let topo = Topology::grid(4, 10.0).unwrap();
        assert_eq!(topo.len(), 16);
        assert!(topo.is_connected());
        // A corner node hears its horizontal, vertical, and diagonal neighbor.
        assert_eq!(topo.neighbors(NodeId(0)).len(), 3);
        // An interior node hears all 8 surrounding nodes.
        assert_eq!(topo.neighbors(NodeId(5)).len(), 8);
    }

    #[test]
    fn linear_topology_depth_equals_length() {
        let topo = Topology::linear(10, 10.0).unwrap();
        assert_eq!(topo.len(), 11);
        assert!(topo.is_connected());
        assert_eq!(topo.hop_distance(NodeId(0), NodeId(10)), Some(10));
        assert_eq!(topo.network_depth(), 10);
    }

    #[test]
    fn uniform_random_within_limits() {
        let topo = Topology::uniform_random(40, 3).unwrap();
        assert_eq!(topo.len(), 41);
        for n in topo.nodes() {
            assert!(topo.position(n).is_some());
        }
    }

    #[test]
    fn rejects_too_many_nodes() {
        assert!(Topology::office_floor(MAX_NODES, 1).is_err());
    }

    #[test]
    fn from_spec_matches_the_named_constructors() {
        let office = Topology::from_spec(&TopologySpec::office_floor(), 30, 42).unwrap();
        let direct = Topology::office_floor(30, 42).unwrap();
        assert_eq!(
            office.position(NodeId(5)).unwrap().x,
            direct.position(NodeId(5)).unwrap().x
        );
        assert_eq!(office.radio_range(), direct.radio_range());

        let linear = Topology::from_spec(&TopologySpec::linear(), 10, 0).unwrap();
        assert_eq!(linear.network_depth(), 10);
    }

    #[test]
    fn from_spec_validates_geometry() {
        let mut spec = TopologySpec::grid();
        spec.spacing = -1.0;
        assert!(Topology::from_spec(&spec, 10, 1).is_err());
    }

    #[test]
    fn spec_grid_places_basestation_in_the_corner_and_truncates() {
        // 6 sensors + base = 7 nodes on a 3×3 grid: last two cells empty.
        let topo = Topology::from_spec(&TopologySpec::grid(), 6, 1).unwrap();
        assert_eq!(topo.len(), 7);
        let base = topo.position(NodeId::BASESTATION).unwrap();
        assert_eq!((base.x, base.y), (0.0, 0.0));
        assert!(topo.is_connected());
    }

    #[test]
    fn range_factor_thins_or_thickens_connectivity() {
        let base = TopologySpec::office_floor();
        let wide = TopologySpec {
            range_factor: 2.0,
            ..base
        };
        let a = Topology::from_spec(&base, 40, 9).unwrap();
        let b = Topology::from_spec(&wide, 40, 9).unwrap();
        assert!(b.connectivity_fraction() > a.connectivity_fraction());
        // Same seed, same placements — only the range differs.
        assert_eq!(
            a.position(NodeId(7)).unwrap().x,
            b.position(NodeId(7)).unwrap().x
        );
    }

    #[test]
    fn rejects_trivial_topology() {
        assert!(Topology::from_positions(
            TopologyKind::Grid,
            vec![NodePosition { x: 0.0, y: 0.0 }],
            10.0
        )
        .is_err());
    }

    #[test]
    fn rejects_non_finite_coordinates_with_a_typed_error() {
        // An infinite coordinate used to overflow the cell arithmetic and a
        // NaN one to build a node with no neighbours; both are config errors.
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            for (x, y) in [(bad, 0.0), (0.0, bad)] {
                let positions = vec![NodePosition { x: 0.0, y: 0.0 }, NodePosition { x, y }];
                let built = Topology::from_positions(TopologyKind::Grid, positions, 10.0);
                assert!(
                    matches!(built, Err(ScoopError::InvalidConfig(_))),
                    "({x}, {y}) was not rejected"
                );
            }
        }
    }

    #[test]
    fn hop_distance_is_symmetric_on_symmetric_connectivity() {
        let topo = Topology::grid(5, 10.0).unwrap();
        for a in topo.nodes() {
            for b in topo.nodes() {
                assert_eq!(topo.hop_distance(a, b), topo.hop_distance(b, a));
            }
        }
    }

    #[test]
    fn distance_and_in_range_agree() {
        let topo = Topology::grid(3, 10.0).unwrap();
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a == b {
                    continue;
                }
                let d = topo.distance(a, b).unwrap();
                assert_eq!(topo.in_range(a, b), d <= topo.radio_range());
            }
        }
    }

    #[test]
    fn binned_neighbors_match_the_all_pairs_oracle() {
        // The spatial-binning construction must reproduce the historical
        // O(n²) scan exactly — same sets, same ascending order — across
        // every generator family (jittered, regular, random, degenerate).
        let topos = [
            Topology::office_floor(62, 11).unwrap(),
            Topology::grid(7, 10.0).unwrap(),
            Topology::uniform_random(80, 3).unwrap(),
            Topology::linear(12, 10.0).unwrap(),
        ];
        for topo in &topos {
            for a in topo.nodes() {
                let oracle: Vec<NodeId> = topo
                    .nodes()
                    .filter(|&b| a != b && topo.distance(a, b).unwrap() <= topo.radio_range())
                    .collect();
                assert_eq!(
                    topo.neighbors(a),
                    oracle.as_slice(),
                    "{:?} {a}",
                    topo.kind()
                );
            }
        }
    }

    #[test]
    fn unknown_node_queries_return_none_or_empty() {
        let topo = Topology::grid(3, 10.0).unwrap();
        assert!(topo.position(NodeId(99)).is_none());
        assert!(topo.neighbors(NodeId(99)).is_empty());
        assert_eq!(topo.hop_distance(NodeId(0), NodeId(99)), None);
    }
}
