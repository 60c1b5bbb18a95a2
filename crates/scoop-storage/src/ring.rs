//! The recent-readings ring buffer.
//!
//! "A node needs its own recent readings to build this histogram and,
//! therefore, writes its own readings in round-robin fashion to a fixed-size
//! recent-readings buffer (size 30, in our experiments). This ensures that
//! summary messages always contain histograms over the node's most recent
//! data." (Section 5.2)
//!
//! The summary reads only the readings' values — histogram bins, min, max,
//! sum and count, none of which depend on order — so the ring holds values
//! alone: 4 bytes a slot, not a whole [`scoop_types::Reading`].

use scoop_types::Value;
use serde::{Deserialize, Serialize};

/// A fixed-capacity ring buffer of the node's own most recent values.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RecentReadings {
    capacity: usize,
    slots: Vec<Value>,
    /// Index of the slot the next value will overwrite.
    next: usize,
    /// Total values ever pushed (may exceed capacity).
    pushed: u64,
}

impl RecentReadings {
    /// Creates a ring holding at most `capacity` values (30 in the paper).
    pub fn new(capacity: usize) -> Self {
        RecentReadings {
            capacity: capacity.max(1),
            slots: Vec::new(),
            next: 0,
            pushed: 0,
        }
    }

    /// The buffer's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of values currently held (at most `capacity`).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total number of values ever recorded.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Records a reading's value, overwriting the oldest one if the ring is
    /// full.
    pub fn push(&mut self, value: Value) {
        self.pushed += 1;
        if self.slots.len() < self.capacity {
            // The first value reserves every slot, exactly and once; not at
            // construction, which a network pays for on every node.
            self.slots.reserve_exact(self.capacity - self.slots.len());
            self.slots.push(value);
            self.next = self.slots.len() % self.capacity;
        } else {
            self.slots[self.next] = value;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// The held values (order unspecified — the histogram does not care).
    pub fn values(&self) -> &[Value] {
        &self.slots
    }

    /// The smallest value currently held.
    pub fn min_value(&self) -> Option<Value> {
        self.slots.iter().copied().min()
    }

    /// The largest value currently held.
    pub fn max_value(&self) -> Option<Value> {
        self.slots.iter().copied().max()
    }

    /// The sum of the values currently held (the summary reports it).
    pub fn sum(&self) -> i64 {
        self.slots.iter().map(|&v| v as i64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_up_to_capacity() {
        let mut ring = RecentReadings::new(5);
        for i in 0..3 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_pushed(), 3);
        assert_eq!(ring.min_value(), Some(0));
        assert_eq!(ring.max_value(), Some(2));
        assert_eq!(ring.sum(), 3);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let mut ring = RecentReadings::new(3);
        for i in 0..10 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_pushed(), 10);
        let mut vals = ring.values().to_vec();
        vals.sort();
        assert_eq!(vals, vec![7, 8, 9], "only the most recent readings remain");
    }

    #[test]
    fn empty_ring_statistics() {
        let ring = RecentReadings::new(4);
        assert!(ring.is_empty());
        assert_eq!(ring.min_value(), None);
        assert_eq!(ring.max_value(), None);
        assert_eq!(ring.sum(), 0);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut ring = RecentReadings::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(5);
        ring.push(6);
        assert_eq!(ring.values(), [6]);
    }

    #[test]
    fn paper_default_capacity_is_thirty() {
        let mut ring = RecentReadings::new(30);
        for i in 0..100 {
            ring.push(i % 7);
        }
        assert_eq!(ring.len(), 30);
        assert_eq!(ring.slots.capacity(), 30, "reserved exactly, never regrown");
    }
}
