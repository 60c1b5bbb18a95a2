//! The circular flash data buffer holding readings a node owns.
//!
//! "If o == n, store data locally on n: write data to the circular data
//! buffer. (Notice that the data buffer is separate from the recent readings
//! buffer...)" (Section 5.4). Queries scan this buffer linearly for tuples
//! matching a time range and value range (Section 5.5). A slot is the bare
//! 16-byte [`Reading`]: nothing answers by storage-index epoch or by the time
//! a reading was stored, so neither is kept.

use scoop_types::{Reading, SimTime, StorageIndexId, Value, ValueRange};

/// A circular buffer of stored readings with flash-style semantics: when it
/// fills up, the oldest readings are overwritten.
///
/// Write number `w` (0-based) lives in slot `w % capacity`: during the fill
/// phase `w < len <= capacity` so the modulo is the identity, and once full
/// the overwrite position advances exactly one slot per write. The next slot
/// and the overwrite count are therefore derived from `writes`, not stored.
#[derive(Clone, Debug)]
pub struct DataBuffer {
    capacity: usize,
    slots: Vec<Reading>,
    /// Total number of readings ever written (monotone, used for flash energy
    /// accounting and the storage-success metric).
    writes: u64,
}

impl DataBuffer {
    /// Creates a buffer holding at most `capacity` readings.
    pub fn new(capacity: usize) -> Self {
        DataBuffer {
            capacity: capacity.max(1),
            slots: Vec::new(),
            writes: 0,
        }
    }

    /// Capacity in readings.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of readings currently stored.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total number of readings ever written to this buffer.
    pub fn total_writes(&self) -> u64 {
        self.writes
    }

    /// Number of writes that displaced an older stored reading: every write
    /// past the first `capacity` overwrote one.
    pub fn total_overwrites(&self) -> u64 {
        self.writes - self.slots.len() as u64
    }

    /// Stores a reading.
    ///
    /// `_stored_at` and `_index_epoch` are not retained; the `[benchmark]`
    /// re-base removes them.
    pub fn store(&mut self, reading: Reading, _stored_at: SimTime, _index_epoch: StorageIndexId) {
        let len = self.slots.len();
        if len < self.capacity {
            // Grow by a quarter, not `Vec`'s doubling: at 32k nodes holding
            // ~20 readings each, doubling left 12 MiB of slots never filled.
            if len == self.slots.capacity() {
                self.slots
                    .reserve_exact((len / 4).max(4).min(self.capacity - len));
            }
            self.slots.push(reading);
        } else {
            let slot = self.slot_of(self.writes);
            self.slots[slot] = reading;
        }
        self.writes += 1;
    }

    /// The slot holding write number `w` (see the type docs).
    fn slot_of(&self, w: u64) -> usize {
        (w % self.capacity as u64) as usize
    }

    /// Linearly scans the buffer for readings whose value lies in
    /// `value_range` and whose *sample* timestamp lies in `[time_lo, time_hi]`
    /// — exactly what a node does when it receives a query addressed to it.
    pub fn scan(
        &self,
        value_range: &ValueRange,
        time_lo: SimTime,
        time_hi: SimTime,
    ) -> Vec<Reading> {
        self.slots
            .iter()
            .filter(|r| {
                value_range.contains(r.value) && r.timestamp >= time_lo && r.timestamp <= time_hi
            })
            .copied()
            .collect()
    }

    /// Scans for readings produced by any of the listed values regardless of
    /// time (convenience for tests).
    pub fn scan_values(&self, values: &[Value]) -> Vec<Reading> {
        self.slots
            .iter()
            .filter(|r| values.contains(&r.value))
            .copied()
            .collect()
    }

    /// Iterates over everything currently stored.
    pub fn iter(&self) -> impl Iterator<Item = &Reading> {
        self.slots.iter()
    }

    /// Copies every reading written after the point captured by `cursor` — a
    /// value previously returned by this method, or `0` for "from the
    /// beginning" — into `out`, in write order, and returns the new cursor.
    ///
    /// This is how an external consumer (the serving tier feeding its query
    /// index, or a persistence drain) follows the buffer incrementally
    /// without rescanning it: keep the returned cursor, call again later.
    /// The buffer is circular, so if more than `capacity` writes happened
    /// since the cursor was taken the overwritten readings are gone — only
    /// the surviving newest ones are copied, and the shortfall
    /// `(writes - cursor) - copied` counts the misses.
    pub fn read_new_since(&self, cursor: u64, out: &mut Vec<Reading>) -> u64 {
        // Only the last `len` writes are still present.
        for w in cursor.max(self.total_overwrites())..self.writes {
            out.push(self.slots[self.slot_of(w)]);
        }
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::{Attribute, NodeId};

    fn reading(producer: u16, v: Value, t: u64) -> Reading {
        Reading::new(NodeId(producer), Attribute::Light, v, SimTime::from_secs(t))
    }

    #[test]
    fn store_and_scan_by_value_and_time() {
        let mut buf = DataBuffer::new(100);
        for t in 0..20 {
            buf.store(
                reading(2, (t % 10) as Value, t),
                SimTime::from_secs(t + 1),
                StorageIndexId(1),
            );
        }
        let hits = buf.scan(
            &ValueRange::new(3, 5),
            SimTime::from_secs(0),
            SimTime::from_secs(100),
        );
        assert_eq!(hits.len(), 6); // values 3,4,5 appear twice each
        assert!(hits.iter().all(|r| (3..=5).contains(&r.value)));

        let narrow = buf.scan(
            &ValueRange::new(3, 5),
            SimTime::from_secs(0),
            SimTime::from_secs(9),
        );
        assert_eq!(narrow.len(), 3, "time filter halves the matches");
    }

    #[test]
    fn circular_overwrite_keeps_most_recent() {
        let mut buf = DataBuffer::new(5);
        for t in 0..12 {
            buf.store(
                reading(1, t as Value, t),
                SimTime::from_secs(t),
                StorageIndexId(1),
            );
        }
        assert_eq!(buf.len(), 5);
        assert_eq!(buf.total_writes(), 12);
        assert_eq!(buf.total_overwrites(), 7);
        let all = buf.scan(
            &ValueRange::new(0, 100),
            SimTime::ZERO,
            SimTime::from_secs(100),
        );
        let mut vals: Vec<Value> = all.iter().map(|r| r.value).collect();
        vals.sort();
        assert_eq!(vals, vec![7, 8, 9, 10, 11]);
    }

    #[test]
    fn empty_scan() {
        let buf = DataBuffer::new(10);
        assert!(buf
            .scan(
                &ValueRange::new(0, 100),
                SimTime::ZERO,
                SimTime::from_secs(10)
            )
            .is_empty());
        assert!(buf.is_empty());
    }

    #[test]
    fn cursor_follows_writes_incrementally() {
        let mut buf = DataBuffer::new(100);
        let mut out = Vec::new();
        assert_eq!(buf.read_new_since(0, &mut out), 0);
        assert!(out.is_empty());

        for t in 0..4 {
            buf.store(
                reading(1, t as Value, t),
                SimTime::from_secs(t),
                StorageIndexId(1),
            );
        }
        let cursor = buf.read_new_since(0, &mut out);
        assert_eq!(cursor, 4);
        assert_eq!(
            out.iter().map(|r| r.value).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "write order"
        );

        // Nothing new: the cursor is a fixed point.
        out.clear();
        assert_eq!(buf.read_new_since(cursor, &mut out), 4);
        assert!(out.is_empty());

        // Two more writes: only those are returned.
        for t in 4..6 {
            buf.store(
                reading(1, t as Value, t),
                SimTime::from_secs(t),
                StorageIndexId(1),
            );
        }
        let cursor = buf.read_new_since(cursor, &mut out);
        assert_eq!(cursor, 6);
        assert_eq!(out.iter().map(|r| r.value).collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn cursor_skips_readings_lost_to_circular_overwrite() {
        let mut buf = DataBuffer::new(5);
        for t in 0..12 {
            buf.store(
                reading(1, t as Value, t),
                SimTime::from_secs(t),
                StorageIndexId(1),
            );
        }
        // Cursor 2 is 10 writes behind on a 5-slot buffer: writes 2..7 were
        // overwritten, only the surviving last 5 come back, still in order.
        let mut out = Vec::new();
        let cursor = buf.read_new_since(2, &mut out);
        assert_eq!(cursor, 12);
        assert_eq!(
            out.iter().map(|r| r.value).collect::<Vec<_>>(),
            vec![7, 8, 9, 10, 11]
        );
        let missed = (12 - 2) - out.len() as u64;
        assert_eq!(missed, 5);
    }

    #[test]
    fn slots_grow_by_a_quarter_up_to_capacity() {
        let mut buf = DataBuffer::new(5_000);
        for t in 0..10_000 {
            buf.store(reading(1, 0, t), SimTime::from_secs(t), StorageIndexId(1));
            let (len, reserved) = (buf.len(), buf.slots.capacity());
            assert!(reserved <= len + (len / 4).max(4), "{reserved} for {len}");
            assert!(reserved <= buf.capacity(), "{reserved} past the capacity");
        }
    }

    #[test]
    fn scan_values_convenience() {
        let mut buf = DataBuffer::new(10);
        buf.store(reading(1, 5, 1), SimTime::from_secs(1), StorageIndexId(1));
        buf.store(reading(1, 9, 2), SimTime::from_secs(2), StorageIndexId(1));
        assert_eq!(buf.scan_values(&[9]).len(), 1);
        assert_eq!(buf.scan_values(&[1, 2]).len(), 0);
    }
}
