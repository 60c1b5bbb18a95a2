//! The bounded descendants list.
//!
//! "A node maintains a 'descendants list' of all its children, children's
//! children, and so on, by tracking all nodes on whose behalf it routes
//! packets up the routing tree. This list contains at most n entries (32, in
//! our experiments) and is used for routing data and routing queries."
//! (Section 5.1). Each entry remembers which immediate child branch the
//! descendant was last seen under so that packets can be routed *down* the
//! appropriate branch (routing rule 5).

use scoop_types::{NodeId, SimTime};
use serde::{Deserialize, Serialize};

#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct DescendantEntry {
    descendant: NodeId,
    via_child: NodeId,
    last_seen: SimTime,
}

/// A capacity-bounded map from descendant to the child branch it lives under.
///
/// The capacity (32 in the paper) is the routing configuration's, the same on
/// every node, so the list does not store it: [`DescendantsList::note`]
/// takes it.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DescendantsList {
    entries: Vec<DescendantEntry>,
}

impl DescendantsList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of descendants tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no descendants are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records that a packet originated by `descendant` was received from the
    /// immediate child `via_child` (i.e. we are routing on its behalf).
    ///
    /// When the list holds `capacity` entries (at least one) the
    /// least-recently-seen entry is evicted — the
    /// paper notes the routing still works with a full list, just with
    /// "somewhat degraded performance", because packets for unknown
    /// descendants fall back to the parent path (rule 6).
    pub fn note(&mut self, descendant: NodeId, via_child: NodeId, now: SimTime, capacity: usize) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.descendant == descendant) {
            e.via_child = via_child;
            e.last_seen = now;
            return;
        }
        let entry = DescendantEntry {
            descendant,
            via_child,
            last_seen: now,
        };
        if self.entries.len() < capacity.max(1) {
            self.entries.push(entry);
        } else if let Some(oldest) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_seen)
            .map(|(i, _)| i)
        {
            self.entries[oldest] = entry;
        }
    }

    /// Returns the immediate child to forward to in order to reach
    /// `descendant`, if it is known.
    pub fn next_hop(&self, descendant: NodeId) -> Option<NodeId> {
        self.entries
            .iter()
            .find(|e| e.descendant == descendant)
            .map(|e| e.via_child)
    }

    /// Returns `true` if `descendant` is in the list.
    pub fn contains(&self, descendant: NodeId) -> bool {
        self.next_hop(descendant).is_some()
    }

    /// Forgets every descendant last seen before `cutoff`, and every
    /// descendant reached through `removed_child` if one is given (used when
    /// a child is evicted from the neighbor table).
    pub fn evict(&mut self, cutoff: SimTime, removed_child: Option<NodeId>) {
        self.entries
            .retain(|e| e.last_seen >= cutoff && Some(e.via_child) != removed_child);
    }

    /// All tracked descendant ids.
    pub fn descendants(&self) -> Vec<NodeId> {
        self.entries.iter().map(|e| e.descendant).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_and_next_hop() {
        let mut d = DescendantsList::new();
        d.note(NodeId(9), NodeId(3), SimTime::from_secs(1), 4);
        d.note(NodeId(8), NodeId(3), SimTime::from_secs(2), 4);
        d.note(NodeId(7), NodeId(4), SimTime::from_secs(3), 4);
        assert_eq!(d.next_hop(NodeId(9)), Some(NodeId(3)));
        assert_eq!(d.next_hop(NodeId(7)), Some(NodeId(4)));
        assert_eq!(d.next_hop(NodeId(6)), None);
        assert!(d.contains(NodeId(8)));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn renoting_updates_branch_and_timestamp() {
        let mut d = DescendantsList::new();
        d.note(NodeId(9), NodeId(3), SimTime::from_secs(1), 4);
        // The descendant moved to a different branch.
        d.note(NodeId(9), NodeId(5), SimTime::from_secs(2), 4);
        assert_eq!(d.len(), 1);
        assert_eq!(d.next_hop(NodeId(9)), Some(NodeId(5)));
    }

    #[test]
    fn capacity_evicts_least_recently_seen() {
        let mut d = DescendantsList::new();
        d.note(NodeId(1), NodeId(10), SimTime::from_secs(1), 2);
        d.note(NodeId(2), NodeId(10), SimTime::from_secs(2), 2);
        d.note(NodeId(3), NodeId(10), SimTime::from_secs(3), 2);
        assert_eq!(d.len(), 2);
        assert!(!d.contains(NodeId(1)), "oldest entry should be evicted");
        assert!(d.contains(NodeId(2)));
        assert!(d.contains(NodeId(3)));
    }

    #[test]
    fn evict_by_time_and_child() {
        let mut d = DescendantsList::new();
        d.note(NodeId(1), NodeId(10), SimTime::from_secs(1), 8);
        d.note(NodeId(2), NodeId(11), SimTime::from_secs(100), 8);
        d.note(NodeId(3), NodeId(12), SimTime::from_secs(100), 8);
        d.evict(SimTime::from_secs(50), Some(NodeId(12)));
        assert!(!d.contains(NodeId(1)), "stale entry evicted");
        assert!(
            !d.contains(NodeId(3)),
            "entries via the removed child evicted"
        );
        assert!(d.contains(NodeId(2)));
    }
}
