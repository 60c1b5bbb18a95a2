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

/// What [`NeighborTable::admit`] did with a sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Admission {
    /// The table was full and the sender ranked no higher than its worst
    /// entry.
    Dropped,
    /// The sender took a free slot.
    Added,
    /// The sender took the slot of this, the worst, entry.
    Replaced(NodeId),
}

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
///
/// Membership is not asked of the table: each listed id's estimator record
/// carries a bit that [`RoutingState`] keeps equal to "is in the table", and
/// it admits a sender only when that bit is clear. The `Vec` holds what the
/// bit cannot — table order, which decides [`best`](Self::best)'s ties, the
/// slot a replacement takes, and the order eviction reports.
///
/// The capacity is the routing configuration's, the same on every node, so
/// the table does not store it: admission takes it as an argument. Storage
/// grows with the neighbors actually heard — the capacity is the paper's
/// logical bound, not a reservation.
///
/// [`RoutingState`]: crate::RoutingState
#[derive(Clone, Debug, Default)]
pub struct NeighborTable {
    nodes: Vec<NodeId>,
}

impl NeighborTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of neighbors currently tracked.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no neighbors are tracked.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The listed ids in table order.
    pub fn ids(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Admits `node`, which `links` has just observed and which is not in
    /// the table. When the table holds `capacity` neighbors (at least one),
    /// `node` replaces the worst existing entry in place only if its quality
    /// is higher; otherwise the observation is dropped.
    pub(crate) fn admit(
        &mut self,
        node: NodeId,
        links: &LinkEstimator,
        capacity: usize,
    ) -> Admission {
        debug_assert!(!self.nodes.contains(&node), "{node:?} is already listed");
        // A neighbor the estimator has no record of ranks below every other.
        let quality = |n| links.quality(n).unwrap_or(f64::NEG_INFINITY);
        if self.nodes.len() < capacity.max(1) {
            self.nodes.push(node);
            return Admission::Added;
        }
        let (worst_idx, worst) = self
            .nodes
            .iter()
            .map(|&n| quality(n))
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            // Invariant: here `nodes.len() >= capacity.max(1) >= 1`.
            .expect("a full table holds at least one id");
        if quality(node) > worst {
            Admission::Replaced(std::mem::replace(&mut self.nodes[worst_idx], node))
        } else {
            Admission::Dropped
        }
    }

    /// Evicts every neighbor `links` has not heard since `cutoff` (or has no
    /// record of). Returns the evicted ids in table order. Call it before
    /// the estimator evicts at the same cutoff, which drops the evicted ids'
    /// records and their table bits with them.
    pub(crate) fn evict_silent_since(
        &mut self,
        cutoff: SimTime,
        links: &LinkEstimator,
    ) -> Vec<NodeId> {
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

    /// The routing configuration's default smoothing factor.
    const ALPHA: f64 = 0.1;

    /// `links` hears `node` twice at second `at`, `gap` sequence numbers
    /// apart: the wider the gap, the lower the quality.
    fn hear(links: &mut LinkEstimator, node: u16, gap: u32, at: u64) -> NodeId {
        let node = NodeId(node);
        links.observe(node, SeqNo(0), SimTime::from_secs(at), ALPHA);
        links.observe(node, SeqNo(gap), SimTime::from_secs(at), ALPHA);
        node
    }

    #[test]
    fn observe_and_get() {
        let mut links = LinkEstimator::new();
        let mut t = NeighborTable::new();
        assert_eq!(
            t.admit(hear(&mut links, 1, 1, 1), &links, 4),
            Admission::Added
        );
        assert_eq!(
            t.admit(hear(&mut links, 2, 5, 2), &links, 4),
            Admission::Added
        );
        assert_eq!(t.ids(), [NodeId(1), NodeId(2)]);
        // A listed neighbor is refreshed in the estimator alone: the table
        // reads its new view.
        links.observe(NodeId(2), SeqNo(6), SimTime::from_secs(3), ALPHA);
        assert_eq!(t.len(), 2);
        let entry = t.best(2, &links)[1];
        assert_eq!(entry.node, NodeId(2));
        assert_eq!(Some(entry.quality), links.quality(NodeId(2)));
        assert_eq!(entry.last_heard, SimTime::from_secs(3));
    }

    #[test]
    fn capacity_evicts_worst_only_for_better() {
        let mut links = LinkEstimator::new();
        let mut t = NeighborTable::new();
        t.admit(hear(&mut links, 1, 1, 0), &links, 2);
        t.admit(hear(&mut links, 2, 10, 0), &links, 2);
        // Worse than both: dropped.
        let worse = hear(&mut links, 3, 20, 0);
        assert_eq!(t.admit(worse, &links, 2), Admission::Dropped);
        // Better than the worst: takes node 2's slot in place.
        let better = hear(&mut links, 4, 5, 0);
        assert_eq!(t.admit(better, &links, 2), Admission::Replaced(NodeId(2)));
        assert_eq!(t.ids(), [NodeId(1), NodeId(4)]);
    }

    #[test]
    fn best_k_is_sorted_by_quality() {
        let mut links = LinkEstimator::new();
        let mut t = NeighborTable::new();
        for (i, gap) in [(1u16, 10), (2, 1), (3, 5), (4, 20)] {
            t.admit(hear(&mut links, i, gap, 0), &links, 10);
        }
        let best = t.best(3, &links);
        let ids: Vec<NodeId> = best.iter().map(|e| e.node).collect();
        assert_eq!(ids, vec![NodeId(2), NodeId(3), NodeId(1)]);
    }

    #[test]
    fn eviction_of_silent_neighbors() {
        let mut links = LinkEstimator::new();
        let mut t = NeighborTable::new();
        t.admit(hear(&mut links, 1, 1, 10), &links, 10);
        t.admit(hear(&mut links, 2, 1, 200), &links, 10);
        let evicted = t.evict_silent_since(SimTime::from_secs(100), &links);
        assert_eq!(evicted, vec![NodeId(1)]);
        assert_eq!(t.ids(), [NodeId(2)]);
    }
}
