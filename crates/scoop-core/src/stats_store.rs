//! The basestation's statistics store.
//!
//! The basestation "always saves the last histogram it receives from each
//! node, thus allowing it to reason about a node even if newer summary
//! messages are lost" (Section 5.2), and that is all it saves: one summary
//! per node, replaced in place by the next. This deviates from Section 5.5,
//! whose basestation "never discards any summary" so that historical
//! queries can be answered from summaries alone: no query path in this
//! repository answers from an old summary, and keeping every one would grow
//! the store with uptime.
//!
//! Topology knowledge comes from two places: the neighbor lists in summaries
//! and the `origin → origin's parent` pairs carried in every Scoop packet
//! header. From these the store can estimate the expected number of
//! transmissions between any two nodes (`xmits(x → y)` in Figure 2) and the
//! probabilities the indexing algorithm needs.

use crate::summary::SummaryMessage;
use scoop_types::{NodeId, SimTime, StorageIndexId, Value, ValueRange};
use std::collections::BinaryHeap;

/// Expected transmissions charged when the store has no topology information
/// connecting two nodes (e.g. right after startup). Large enough to steer the
/// optimizer away from unknown placements, small enough to stay finite.
const UNKNOWN_PATH_XMITS: f64 = 25.0;

/// Prior probability that a user query covers any particular value, used
/// before any query has been observed (the paper's default workload queries
/// 1–5 % of the domain, so ~3 % is a neutral prior).
const QUERY_PRIOR: f64 = 0.03;

/// The basestation-side statistics store.
#[derive(Clone, Debug)]
pub struct StatsStore {
    n: usize,
    domain: ValueRange,
    /// Position in `summaries` of each node's summary (index = node id): an
    /// 8-byte slot per node rather than an inline `Option<SummaryMessage>`,
    /// which on a 32,768-node network costs megabytes under every policy.
    latest: Vec<Option<u32>>,
    /// The newest summary of every node that has reported, in order of
    /// first report; a node's next summary overwrites its entry.
    summaries: Vec<SummaryMessage>,
    /// Undirected link-quality knowledge as a sparse adjacency: `adj[a]`
    /// holds `(b, q)` pairs sorted by ascending `b`, where `q` is the best
    /// delivery probability reported for the pair in *either* direction.
    /// Only the two-direction maximum is ever consumed (the xmits graph is
    /// made undirected by taking the better direction), so max-merging at
    /// ingest loses nothing — and the store is O(known links) instead of the
    /// dense `n × n` matrix, which was 8.6 GB at 32k nodes and was allocated
    /// on the basestation under every storage policy.
    adj: Vec<Vec<(u32, f64)>>,
    /// Per-value count of observed queries covering that value.
    query_value_counts: Vec<u64>,
    /// Total queries observed.
    query_count: u64,
    /// When the first / last query was observed.
    first_query: Option<SimTime>,
    last_query: Option<SimTime>,
}

impl StatsStore {
    /// Creates a store for a network of `total_nodes` nodes (including the
    /// basestation) over the given attribute domain.
    pub fn new(total_nodes: usize, domain: ValueRange) -> Self {
        StatsStore {
            n: total_nodes,
            domain,
            latest: vec![None; total_nodes],
            summaries: Vec::new(),
            adj: vec![Vec::new(); total_nodes],
            query_value_counts: vec![0; domain.width() as usize],
            query_count: 0,
            first_query: None,
            last_query: None,
        }
    }

    /// Number of nodes (including the basestation).
    pub fn total_nodes(&self) -> usize {
        self.n
    }

    /// The attribute domain.
    pub fn domain(&self) -> ValueRange {
        self.domain
    }

    // ---------------------------------------------------------------------
    // Ingest
    // ---------------------------------------------------------------------

    /// Records a summary message received from a node.
    pub fn record_summary(&mut self, summary: SummaryMessage) {
        let idx = summary.node.index();
        if idx >= self.n {
            return;
        }
        // Topology: the reporter hears each listed neighbor with the given
        // quality, i.e. a directed link neighbor → reporter. Stored
        // undirected (max over both directions) — the only consumer of this
        // knowledge, the xmits graph, takes exactly that maximum.
        for nb in &summary.neighbors {
            if nb.node.index() < self.n {
                let q = nb.quality.clamp(0.0, 1.0);
                self.merge_link_quality(nb.node.index(), idx, q);
            }
        }
        if let Some(parent) = summary.parent {
            self.note_parent(summary.node, parent);
        }
        match self.latest[idx] {
            Some(at) => self.summaries[at as usize] = summary,
            None => {
                self.latest[idx] = Some(self.summaries.len() as u32);
                self.summaries.push(summary);
            }
        }
    }

    /// Records the `origin → origin's parent` pair carried in a Scoop packet
    /// header.
    pub fn note_parent(&mut self, origin: NodeId, parent: NodeId) {
        if origin.index() >= self.n || parent.index() >= self.n || origin == parent {
            return;
        }
        // A tree edge implies a usable link in both directions; assume a
        // conservative quality if we have nothing better from summaries.
        self.merge_link_quality(origin.index(), parent.index(), 0.5);
    }

    /// Raises the undirected link quality of the pair `{a, b}` to at least
    /// `q`, keeping both adjacency rows sorted by ascending neighbor id.
    /// Zero-quality reports are not links and are never stored.
    fn merge_link_quality(&mut self, a: usize, b: usize, q: f64) {
        if a == b || q <= 0.0 {
            return;
        }
        for (x, y) in [(a, b), (b, a)] {
            let row = &mut self.adj[x];
            match row.binary_search_by_key(&(y as u32), |&(id, _)| id) {
                Ok(i) => {
                    if q > row[i].1 {
                        row[i].1 = q;
                    }
                }
                Err(i) => row.insert(i, (y as u32, q)),
            }
        }
    }

    /// Records a user query over `values` issued at `now` (used to estimate
    /// `P(user queries v)` and the query rate).
    pub fn record_query(&mut self, values: &ValueRange, now: SimTime) {
        self.query_count += 1;
        if self.first_query.is_none() {
            self.first_query = Some(now);
        }
        self.last_query = Some(now);
        for v in values.values() {
            if let Some(slot) = self
                .query_value_counts
                .get_mut((v - self.domain.lo) as usize)
            {
                *slot += 1;
            }
        }
    }

    // ---------------------------------------------------------------------
    // Estimates used by the indexing algorithm
    // ---------------------------------------------------------------------

    /// All nodes the algorithm should consider as potential owners: every
    /// node id, basestation first.
    pub fn candidate_owners(&self) -> Vec<NodeId> {
        (0..self.n).map(|i| NodeId(i as u16)).collect()
    }

    /// The paper's `P(p produces v)` for node `p`, from its latest histogram.
    pub fn p_produces(&self, p: NodeId, v: Value) -> f64 {
        self.latest_summary(p)
            .map(|s| s.probability_of(v))
            .unwrap_or(0.0)
    }

    /// The data production rate of node `p` in readings per second.
    pub fn data_rate(&self, p: NodeId) -> f64 {
        self.latest_summary(p)
            .map(|s| s.data_rate_hz)
            .unwrap_or(0.0)
    }

    /// `P(user queries v)`: the fraction of observed queries whose value range
    /// contains `v`, or a neutral prior before any query has been seen.
    pub fn p_queries(&self, v: Value) -> f64 {
        if self.query_count == 0 {
            return QUERY_PRIOR;
        }
        let idx = (v - self.domain.lo) as usize;
        self.query_value_counts
            .get(idx)
            .map(|&c| c as f64 / self.query_count as f64)
            .unwrap_or(0.0)
    }

    /// The observed query rate in queries per second, measured over the span
    /// between the first and last query (plus one nominal interval so a
    /// single query does not imply an infinite rate). Zero if no query has
    /// been observed.
    pub fn query_rate_hz(&self) -> f64 {
        match (self.first_query, self.last_query) {
            (Some(first), Some(last)) if self.query_count > 0 => {
                let span = (last - first).as_secs_f64();
                if span <= 0.0 {
                    // A single query (or several in one instant): assume one
                    // per paper-default interval.
                    1.0 / 15.0
                } else {
                    // `query_count` queries over `span` seconds; the open
                    // interval after the last query is not yet known.
                    (self.query_count.saturating_sub(1)) as f64 / span
                }
            }
            _ => 0.0,
        }
    }

    /// Latest reported "newest complete storage index" across all sensor
    /// nodes; the minimum such id is the oldest index that may still be in
    /// active use somewhere in the network.
    pub fn min_live_index(&self) -> StorageIndexId {
        self.latest_summaries()
            .filter(|s| !s.node.is_basestation())
            .map(|s| s.newest_complete_index)
            .min()
            .unwrap_or(StorageIndexId::NONE)
    }

    /// The newest complete index reported by a specific node.
    pub fn newest_complete_index(&self, node: NodeId) -> StorageIndexId {
        self.latest_summary(node)
            .map(|s| s.newest_complete_index)
            .unwrap_or(StorageIndexId::NONE)
    }

    /// The latest summary from `node`, if any.
    pub fn latest_summary(&self, node: NodeId) -> Option<&SummaryMessage> {
        let at = (*self.latest.get(node.index())?)?;
        self.summaries.get(at as usize)
    }

    /// The latest summary of every node that has reported, ascending by id.
    fn latest_summaries(&self) -> impl Iterator<Item = &SummaryMessage> {
        self.latest
            .iter()
            .filter_map(|&at| self.summaries.get(at? as usize))
    }

    /// Number of sensor nodes that have reported at least one summary.
    pub fn nodes_reporting(&self) -> usize {
        self.latest.iter().skip(1).filter(|s| s.is_some()).count()
    }

    /// The maximum value reported by any node's summary — the "answer MAX
    /// from summaries without touching the network" shortcut (Section 5.5).
    pub fn max_from_summaries(&self) -> Option<Value> {
        self.latest_summaries().filter_map(|s| s.max).max()
    }

    /// The minimum value reported by any node's summary.
    pub fn min_from_summaries(&self) -> Option<Value> {
        self.latest_summaries().filter_map(|s| s.min).min()
    }

    // ---------------------------------------------------------------------
    // xmits(x → y)
    // ---------------------------------------------------------------------

    /// The expected number of transmissions to move a packet from `a` to `b`,
    /// estimated from the link-quality graph assembled out of summaries and
    /// packet headers. Symmetric by construction (the underlying graph is
    /// made undirected by taking the better direction of each link). Nodes
    /// with no known connectivity get a large finite penalty.
    ///
    /// Each call runs `a`'s single-source Dijkstra; anything pricing many
    /// pairs goes through [`crate::cost::CostModel`], which keeps the rows
    /// it has computed for as long as it borrows the store.
    pub fn xmits(&self, a: NodeId, b: NodeId) -> f64 {
        if a == b {
            return 0.0;
        }
        if a.index() >= self.n || b.index() >= self.n {
            return UNKNOWN_PATH_XMITS;
        }
        let mut row = Vec::new();
        self.xmits_row_into(a, &mut row);
        row[b.index()]
    }

    /// Round-trip estimate `xmits(base → o → base)` from Figure 2.
    pub fn xmits_roundtrip_base(&self, o: NodeId) -> f64 {
        2.0 * self.xmits(NodeId::BASESTATION, o)
    }

    /// Overwrites `row` with `xmits(src → b)` for every node `b`, reusing its
    /// allocation: one Dijkstra over the sparse adjacency, with the
    /// unknown-path penalty wherever no path is known (everywhere, for a
    /// `src` outside the network).
    ///
    /// Each row is the *identical* Dijkstra the dense era ran from every
    /// source eagerly — the sparse adjacency stores neighbors in ascending
    /// id order with the same `1 / max(quality)` weights, so relaxations
    /// happen in the same order with the same float operands and every
    /// distance is bit-identical.
    pub fn xmits_row_into(&self, src: NodeId, row: &mut Vec<f64>) {
        row.clear();
        row.resize(self.n, f64::INFINITY);
        if src.index() < self.n {
            dijkstra(&self.adj, src.index(), row);
        }
        for d in row.iter_mut() {
            if !d.is_finite() {
                *d = UNKNOWN_PATH_XMITS;
            }
        }
    }
}

/// Simple binary-heap Dijkstra over the sparse undirected ETX adjacency
/// (`weight = 1 / quality`, neighbors ascending), into a `dist` the caller
/// has filled with infinities.
fn dijkstra(adj: &[Vec<(u32, f64)>], src: usize, dist: &mut [f64]) {
    dist[src] = 0.0;
    // BinaryHeap is a max-heap over ordered keys; store negated distances as
    // sortable integers (micro-units) to avoid a float Ord wrapper.
    let mut heap: BinaryHeap<(i64, usize)> = BinaryHeap::new();
    heap.push((0, src));
    while let Some((neg_d, u)) = heap.pop() {
        let d = -(neg_d as f64) / 1e6;
        if d > dist[u] + 1e-9 {
            continue;
        }
        for &(v, q) in &adj[u] {
            let v = v as usize;
            let nd = dist[u] + 1.0 / q;
            if nd + 1e-12 < dist[v] {
                dist[v] = nd;
                heap.push((-(nd * 1e6) as i64, v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::SummaryHistogram;
    use crate::summary::ReportedNeighbor;

    fn summary(
        node: u16,
        values: &[Value],
        neighbors: &[(u16, f64)],
        parent: Option<u16>,
    ) -> SummaryMessage {
        SummaryMessage {
            node: NodeId(node),
            histogram: SummaryHistogram::build(values, 10),
            min: values.iter().min().copied(),
            max: values.iter().max().copied(),
            sum: values.iter().map(|&v| v as i64).sum(),
            count: values.len() as u32,
            data_rate_hz: 1.0 / 15.0,
            neighbors: neighbors
                .iter()
                .map(|&(n, q)| ReportedNeighbor {
                    node: NodeId(n),
                    quality: q,
                })
                .collect(),
            parent: parent.map(NodeId),
            newest_complete_index: StorageIndexId(1),
            generated_at: SimTime::from_secs(60),
        }
    }

    fn domain() -> ValueRange {
        ValueRange::new(0, 99)
    }

    #[test]
    fn summaries_drive_probabilities_and_rates() {
        let mut st = StatsStore::new(4, domain());
        st.record_summary(summary(1, &[10, 10, 10, 50], &[(0, 0.9)], Some(0)));
        assert!(st.p_produces(NodeId(1), 10) > st.p_produces(NodeId(1), 50));
        assert_eq!(st.p_produces(NodeId(2), 10), 0.0);
        assert!((st.data_rate(NodeId(1)) - 1.0 / 15.0).abs() < 1e-9);
        assert_eq!(st.data_rate(NodeId(3)), 0.0);
        assert_eq!(st.nodes_reporting(), 1);
        assert_eq!(st.summaries.len(), 1);
    }

    #[test]
    fn exactly_one_summary_per_reporting_node_is_held_and_it_is_the_newest() {
        let mut st = StatsStore::new(4, domain());
        for round in 0..5 {
            // Node 2 reports first, so the held order is not the id order.
            for node in [2, 1] {
                let mut s = summary(node, &[10 * round + node as Value; 5], &[], Some(0));
                s.newest_complete_index = StorageIndexId(round as u32);
                st.record_summary(s);
            }
        }
        assert_eq!(st.summaries.len(), 2, "one summary per reporting node");
        assert_eq!(st.nodes_reporting(), 2);
        for node in [1, 2] {
            let held = st.latest_summary(NodeId(node)).expect("node reported");
            assert_eq!(held.node, NodeId(node));
            assert_eq!(held.newest_complete_index, StorageIndexId(4), "the newest");
            assert!(st.p_produces(NodeId(node), 40 + node as Value) > 0.0);
            assert_eq!(st.p_produces(NodeId(node), 30 + node as Value), 0.0);
        }
        assert!(st.latest_summary(NodeId(3)).is_none());
        // Aggregates still read the newest summary of each node.
        assert_eq!(st.min_from_summaries(), Some(41));
        assert_eq!(st.max_from_summaries(), Some(42));
    }

    #[test]
    fn query_statistics() {
        let mut st = StatsStore::new(3, domain());
        // Before any query: neutral prior.
        assert!((st.p_queries(50) - QUERY_PRIOR).abs() < 1e-12);
        assert_eq!(st.query_rate_hz(), 0.0);
        st.record_query(&ValueRange::new(10, 19), SimTime::from_secs(600));
        st.record_query(&ValueRange::new(10, 14), SimTime::from_secs(615));
        st.record_query(&ValueRange::new(80, 84), SimTime::from_secs(630));
        assert!((st.p_queries(12) - 2.0 / 3.0).abs() < 1e-9);
        assert!((st.p_queries(82) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(st.p_queries(50), 0.0);
        let rate = st.query_rate_hz();
        assert!((rate - 2.0 / 30.0).abs() < 1e-6, "rate {rate}");
    }

    #[test]
    fn xmits_uses_link_graph() {
        let mut st = StatsStore::new(4, domain());
        // 0 - 1 - 2 chain with perfect links, node 3 unknown.
        st.record_summary(summary(1, &[5], &[(0, 1.0), (2, 1.0)], Some(0)));
        st.record_summary(summary(2, &[5], &[(1, 1.0)], Some(1)));
        assert!((st.xmits(NodeId(0), NodeId(1)) - 1.0).abs() < 1e-6);
        assert!((st.xmits(NodeId(0), NodeId(2)) - 2.0).abs() < 1e-6);
        assert_eq!(st.xmits(NodeId(1), NodeId(1)), 0.0);
        assert!(st.xmits(NodeId(0), NodeId(3)) >= UNKNOWN_PATH_XMITS - 1e-9);
        assert!((st.xmits_roundtrip_base(NodeId(2)) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn lossier_links_cost_more_xmits() {
        let mut st = StatsStore::new(3, domain());
        st.record_summary(summary(1, &[5], &[(0, 0.5)], Some(0)));
        st.record_summary(summary(2, &[5], &[(0, 1.0)], Some(0)));
        assert!(st.xmits(NodeId(0), NodeId(1)) > st.xmits(NodeId(0), NodeId(2)));
    }

    #[test]
    fn packet_headers_reveal_tree_edges() {
        let mut st = StatsStore::new(3, domain());
        st.note_parent(NodeId(2), NodeId(1));
        st.note_parent(NodeId(1), NodeId(0));
        // Even with no summaries, the tree edges give finite path estimates.
        assert!(st.xmits(NodeId(0), NodeId(2)) < UNKNOWN_PATH_XMITS);
    }

    #[test]
    fn min_live_index_and_aggregates() {
        let mut st = StatsStore::new(4, domain());
        assert_eq!(st.min_live_index(), StorageIndexId::NONE);
        let mut s1 = summary(1, &[10, 20], &[], Some(0));
        s1.newest_complete_index = StorageIndexId(3);
        let mut s2 = summary(2, &[70, 80], &[], Some(0));
        s2.newest_complete_index = StorageIndexId(5);
        st.record_summary(s1);
        st.record_summary(s2);
        assert_eq!(st.min_live_index(), StorageIndexId(3));
        assert_eq!(st.newest_complete_index(NodeId(2)), StorageIndexId(5));
        assert_eq!(st.max_from_summaries(), Some(80));
        assert_eq!(st.min_from_summaries(), Some(10));
    }

    /// The dense-era pipeline, reimplemented verbatim as an oracle: a
    /// directed n×n quality matrix, an undirected ETX weight matrix, and a
    /// dense-scan Dijkstra. The sparse store must reproduce its distances
    /// bit-for-bit (same relaxation order, same float operands).
    fn dense_oracle_xmits(events: &[(u16, u16, f64)], n: usize) -> Vec<Vec<f64>> {
        let mut quality = vec![vec![0.0f64; n]; n];
        for &(a, b, q) in events {
            let slot = &mut quality[a as usize][b as usize];
            if q > *slot {
                *slot = q;
            }
        }
        let mut weight = vec![vec![f64::INFINITY; n]; n];
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let q = quality[a][b].max(quality[b][a]);
                if q > 0.0 {
                    weight[a][b] = 1.0 / q;
                }
            }
        }
        (0..n)
            .map(|src| {
                let mut dist = vec![f64::INFINITY; n];
                dist[src] = 0.0;
                let mut heap: BinaryHeap<(i64, usize)> = BinaryHeap::new();
                heap.push((0, src));
                while let Some((neg_d, u)) = heap.pop() {
                    let d = -(neg_d as f64) / 1e6;
                    if d > dist[u] + 1e-9 {
                        continue;
                    }
                    for v in 0..n {
                        if !weight[u][v].is_finite() {
                            continue;
                        }
                        let nd = dist[u] + weight[u][v];
                        if nd + 1e-12 < dist[v] {
                            dist[v] = nd;
                            heap.push((-(nd * 1e6) as i64, v));
                        }
                    }
                }
                dist.into_iter()
                    .map(|d| if d.is_finite() { d } else { UNKNOWN_PATH_XMITS })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn sparse_xmits_is_bit_identical_to_the_dense_oracle() {
        // A pseudo-random batch of directed quality reports over 30 nodes,
        // including repeated pairs (max-merge) and asymmetric directions.
        let n = 30usize;
        let mut state = 0xdead_beef_u64;
        let mut events = Vec::new();
        for _ in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((state >> 33) % n as u64) as u16;
            let b = ((state >> 13) % n as u64) as u16;
            if a == b {
                continue;
            }
            let q = ((state >> 3) % 1000) as f64 / 1000.0;
            events.push((a, b, q));
        }
        let mut st = StatsStore::new(n, domain());
        for &(a, b, q) in &events {
            // Feed each report through the public ingest path: a summary
            // from `b` listing `a` as heard with quality `q` writes the
            // directed slot `a → b`, exactly like the oracle.
            st.record_summary(summary(b, &[5], &[(a, q)], None));
        }
        let oracle = dense_oracle_xmits(&events, n);
        for (a, oracle_row) in oracle.iter().enumerate() {
            for (b, &dense) in oracle_row.iter().enumerate() {
                let want = if a == b { 0.0 } else { dense };
                let got = st.xmits(NodeId(a as u16), NodeId(b as u16));
                assert!(
                    got == want,
                    "xmits({a} → {b}): sparse {got} != dense {want}"
                );
            }
        }
    }

    #[test]
    fn ignores_out_of_range_nodes() {
        let mut st = StatsStore::new(3, domain());
        st.record_summary(summary(99, &[5], &[], None));
        assert_eq!(st.nodes_reporting(), 0);
        st.note_parent(NodeId(50), NodeId(0));
        assert_eq!(st.xmits(NodeId(0), NodeId(50)), UNKNOWN_PATH_XMITS);
    }
}
