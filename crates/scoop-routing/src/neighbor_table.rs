//! The bounded neighbor list.
//!
//! "each node keeps track of the nodes in its direct network neighborhood,
//! independent of the routing tree. This list, too, has a maximum size (32,
//! in our experiments) and is used to optimize routing. A node evicts other
//! nodes from its lists after not hearing from them for a long time"
//! (Section 5.1). Summaries report the node's 12 best-connected neighbors,
//! sorted by link quality (Section 5.2).

use crate::link_estimator::LinkEstimator;
use scoop_types::{NodeId, SimTime};
use serde::{Deserialize, Serialize};

/// One neighbor as a summary reports it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NeighborEntry {
    /// The neighbor's id.
    pub node: NodeId,
    /// Estimated probability of hearing the neighbor's transmissions.
    pub quality: f64,
    /// When the neighbor was last heard.
    pub last_heard: SimTime,
}

/// A capacity-bounded table of radio neighbors, held as ids only. Quality
/// and last-heard time are read from the [`LinkEstimator`] that observed
/// them, which every method that needs them takes: the estimator tracks a
/// superset of the table, updated by the same observations.
///
/// Every quality the estimator holds is finite and > 0 (its EWMA never falls
/// below `alpha`), so `f64::total_cmp` orders them exactly as `partial_cmp`.
#[derive(Clone, Debug)]
pub struct NeighborTable {
    nodes: Vec<NodeId>,
    capacity: usize,
}

impl NeighborTable {
    /// Creates an empty table holding at most `capacity` neighbors. Storage
    /// grows with the neighbors actually heard: `capacity` is the paper's
    /// logical bound, not a reservation.
    pub fn new(capacity: usize) -> Self {
        NeighborTable {
            nodes: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Number of neighbors currently tracked.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no neighbors are tracked.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The table's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns `true` if `node` is in the table.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Admits `node`, which `links` has just observed, if it is new. When the
    /// table is full, `node` replaces the worst existing entry in place only
    /// if its quality is higher; otherwise the observation is dropped.
    pub fn observe(&mut self, node: NodeId, links: &LinkEstimator) {
        // A neighbor the estimator has no record of ranks below every other.
        let quality = |n| links.quality(n).unwrap_or(f64::NEG_INFINITY);
        if self.contains(node) {
            return;
        }
        if self.nodes.len() < self.capacity {
            self.nodes.push(node);
        } else if let Some((worst_idx, worst)) = self
            .nodes
            .iter()
            .map(|&n| quality(n))
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
        {
            if quality(node) > worst {
                self.nodes[worst_idx] = node;
            }
        }
    }

    /// Evicts every neighbor `links` has not heard since `cutoff` (or has no
    /// record of). Returns the evicted ids in table order. Call it before
    /// the estimator evicts at the same cutoff.
    pub fn evict_silent_since(&mut self, cutoff: SimTime, links: &LinkEstimator) -> Vec<NodeId> {
        let mut stale = Vec::new();
        self.nodes.retain(|&n| {
            let keep = links.last_heard(n).is_some_and(|t| t >= cutoff);
            if !keep {
                stale.push(n);
            }
            keep
        });
        stale
    }

    /// The `k` best-connected neighbors, sorted by descending quality with
    /// ties in table order — the list a summary message reports (k = 12 in
    /// the paper).
    pub fn best(&self, k: usize, links: &LinkEstimator) -> Vec<NeighborEntry> {
        let mut sorted: Vec<NeighborEntry> = self
            .nodes
            .iter()
            .filter_map(|&node| {
                Some(NeighborEntry {
                    node,
                    quality: links.quality(node)?,
                    last_heard: links.last_heard(node)?,
                })
            })
            .collect();
        sorted.sort_by(|a, b| b.quality.total_cmp(&a.quality));
        sorted.truncate(k);
        sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::SeqNo;

    /// `links` hears `node` twice at second `at`, `gap` sequence numbers
    /// apart: the wider the gap, the lower the quality.
    fn hear(links: &mut LinkEstimator, node: u16, gap: u32, at: u64) -> NodeId {
        let node = NodeId(node);
        links.observe(node, SeqNo(0), SimTime::from_secs(at));
        links.observe(node, SeqNo(gap), SimTime::from_secs(at));
        node
    }

    #[test]
    fn observe_and_get() {
        let mut links = LinkEstimator::new();
        let mut t = NeighborTable::new(4);
        t.observe(hear(&mut links, 1, 1, 1), &links);
        t.observe(hear(&mut links, 2, 5, 2), &links);
        assert_eq!(t.len(), 2);
        assert!(t.contains(NodeId(1)));
        // Refreshing reads the estimator's new view rather than duplicating.
        links.observe(NodeId(2), SeqNo(6), SimTime::from_secs(3));
        t.observe(NodeId(2), &links);
        assert_eq!(t.len(), 2);
        let entry = t.best(2, &links)[1];
        assert_eq!(entry.node, NodeId(2));
        assert_eq!(Some(entry.quality), links.quality(NodeId(2)));
        assert_eq!(entry.last_heard, SimTime::from_secs(3));
    }

    #[test]
    fn capacity_evicts_worst_only_for_better() {
        let mut links = LinkEstimator::new();
        let mut t = NeighborTable::new(2);
        t.observe(hear(&mut links, 1, 1, 0), &links);
        t.observe(hear(&mut links, 2, 10, 0), &links);
        // Worse than both: dropped.
        t.observe(hear(&mut links, 3, 20, 0), &links);
        assert!(!t.contains(NodeId(3)));
        // Better than the worst: replaces node 2.
        t.observe(hear(&mut links, 4, 5, 0), &links);
        assert!(t.contains(NodeId(4)));
        assert!(!t.contains(NodeId(2)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn best_k_is_sorted_by_quality() {
        let mut links = LinkEstimator::new();
        let mut t = NeighborTable::new(10);
        for (i, gap) in [(1u16, 10), (2, 1), (3, 5), (4, 20)] {
            t.observe(hear(&mut links, i, gap, 0), &links);
        }
        let best = t.best(3, &links);
        let ids: Vec<NodeId> = best.iter().map(|e| e.node).collect();
        assert_eq!(ids, vec![NodeId(2), NodeId(3), NodeId(1)]);
    }

    #[test]
    fn eviction_of_silent_neighbors() {
        let mut links = LinkEstimator::new();
        let mut t = NeighborTable::new(10);
        t.observe(hear(&mut links, 1, 1, 10), &links);
        t.observe(hear(&mut links, 2, 1, 200), &links);
        let evicted = t.evict_silent_since(SimTime::from_secs(100), &links);
        assert_eq!(evicted, vec![NodeId(1)]);
        assert!(!t.contains(NodeId(1)));
        assert!(t.contains(NodeId(2)));
    }
}
