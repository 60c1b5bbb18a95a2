//! The bounded neighbor list.
//!
//! "each node keeps track of the nodes in its direct network neighborhood,
//! independent of the routing tree. This list, too, has a maximum size (32,
//! in our experiments) and is used to optimize routing. A node evicts other
//! nodes from its lists after not hearing from them for a long time"
//! (Section 5.1). Summaries report the node's 12 best-connected neighbors,
//! sorted by link quality (Section 5.2).

use scoop_types::{NodeId, SimTime};
use serde::{Deserialize, Serialize};

/// One entry in the neighbor table.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NeighborEntry {
    /// The neighbor's id.
    pub node: NodeId,
    /// Estimated probability of hearing the neighbor's transmissions.
    pub quality: f64,
    /// When the neighbor was last heard.
    pub last_heard: SimTime,
}

/// A capacity-bounded table of radio neighbors ordered by link quality.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NeighborTable {
    entries: Vec<NeighborEntry>,
    capacity: usize,
}

impl NeighborTable {
    /// Creates an empty table holding at most `capacity` neighbors. Storage
    /// grows with the neighbors actually heard: `capacity` is the paper's
    /// logical bound, not a reservation.
    pub fn new(capacity: usize) -> Self {
        NeighborTable {
            entries: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Number of neighbors currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no neighbors are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The table's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns `true` if `node` is in the table.
    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.iter().any(|e| e.node == node)
    }

    /// The entry for `node`, if present.
    pub fn get(&self, node: NodeId) -> Option<NeighborEntry> {
        self.entries.iter().find(|e| e.node == node).copied()
    }

    /// Inserts or refreshes a neighbor observation. When the table is full,
    /// the new neighbor replaces the worst existing entry only if its quality
    /// is higher; otherwise the observation is dropped.
    pub fn observe(&mut self, node: NodeId, quality: f64, now: SimTime) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.node == node) {
            e.quality = quality;
            e.last_heard = now;
        } else if self.entries.len() < self.capacity {
            self.entries.push(NeighborEntry {
                node,
                quality,
                last_heard: now,
            });
        } else if let Some((worst_idx, worst)) = self
            .entries
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.quality.partial_cmp(&b.1.quality).unwrap())
            .map(|(i, e)| (i, *e))
        {
            if quality > worst.quality {
                self.entries[worst_idx] = NeighborEntry {
                    node,
                    quality,
                    last_heard: now,
                };
            }
        }
    }

    /// Removes `node` from the table.
    pub fn remove(&mut self, node: NodeId) {
        self.entries.retain(|e| e.node != node);
    }

    /// Evicts every neighbor not heard since `cutoff`. Returns the evicted ids.
    pub fn evict_silent_since(&mut self, cutoff: SimTime) -> Vec<NodeId> {
        let stale: Vec<NodeId> = self
            .entries
            .iter()
            .filter(|e| e.last_heard < cutoff)
            .map(|e| e.node)
            .collect();
        self.entries.retain(|e| e.last_heard >= cutoff);
        stale
    }

    /// The `k` best-connected neighbors, sorted by descending quality — the
    /// list a summary message reports (k = 12 in the paper).
    pub fn best(&self, k: usize) -> Vec<NeighborEntry> {
        let mut sorted = self.entries.clone();
        sorted.sort_by(|a, b| b.quality.partial_cmp(&a.quality).unwrap());
        sorted.truncate(k);
        sorted
    }

    /// Iterates over every tracked neighbor (unsorted).
    pub fn iter(&self) -> impl Iterator<Item = &NeighborEntry> {
        self.entries.iter()
    }

    /// All tracked neighbor ids (unsorted).
    pub fn nodes(&self) -> Vec<NodeId> {
        self.entries.iter().map(|e| e.node).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_and_get() {
        let mut t = NeighborTable::new(4);
        t.observe(NodeId(1), 0.8, SimTime::from_secs(1));
        t.observe(NodeId(2), 0.5, SimTime::from_secs(2));
        assert_eq!(t.len(), 2);
        assert!(t.contains(NodeId(1)));
        assert_eq!(t.get(NodeId(2)).unwrap().quality, 0.5);
        // Refreshing updates in place rather than duplicating.
        t.observe(NodeId(1), 0.9, SimTime::from_secs(3));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(NodeId(1)).unwrap().quality, 0.9);
    }

    #[test]
    fn capacity_evicts_worst_only_for_better() {
        let mut t = NeighborTable::new(2);
        t.observe(NodeId(1), 0.9, SimTime::ZERO);
        t.observe(NodeId(2), 0.4, SimTime::ZERO);
        // Worse than both: dropped.
        t.observe(NodeId(3), 0.1, SimTime::ZERO);
        assert!(!t.contains(NodeId(3)));
        // Better than the worst: replaces node 2.
        t.observe(NodeId(4), 0.6, SimTime::ZERO);
        assert!(t.contains(NodeId(4)));
        assert!(!t.contains(NodeId(2)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn best_k_is_sorted_by_quality() {
        let mut t = NeighborTable::new(10);
        for (i, q) in [(1u16, 0.3), (2, 0.9), (3, 0.6), (4, 0.1)] {
            t.observe(NodeId(i), q, SimTime::ZERO);
        }
        let best = t.best(3);
        let ids: Vec<NodeId> = best.iter().map(|e| e.node).collect();
        assert_eq!(ids, vec![NodeId(2), NodeId(3), NodeId(1)]);
    }

    #[test]
    fn eviction_of_silent_neighbors() {
        let mut t = NeighborTable::new(10);
        t.observe(NodeId(1), 0.9, SimTime::from_secs(10));
        t.observe(NodeId(2), 0.9, SimTime::from_secs(200));
        let evicted = t.evict_silent_since(SimTime::from_secs(100));
        assert_eq!(evicted, vec![NodeId(1)]);
        assert!(!t.contains(NodeId(1)));
        assert!(t.contains(NodeId(2)));
    }

    #[test]
    fn remove_is_idempotent() {
        let mut t = NeighborTable::new(4);
        t.observe(NodeId(1), 0.5, SimTime::ZERO);
        t.remove(NodeId(1));
        t.remove(NodeId(1));
        assert!(t.is_empty());
    }
}
