//! Property-based tests for a sensor's storage buffers.

use proptest::prelude::*;
use scoop_sim::{DataBuffer, RecentReadings};
use scoop_types::{Attribute, NodeId, Reading, SimTime, StorageIndexId, Value, ValueRange};
use std::collections::VecDeque;

fn reading(v: Value, t: u64) -> Reading {
    Reading::new(NodeId(1), Attribute::Light, v, SimTime::from_secs(t))
}

/// Drives a `DataBuffer` of `capacity` with `values` (write `w` samples at
/// second `w`, so every reading is distinct) and, after every store, checks
/// it against a queue of `(write number, reading)` bounded at `capacity`.
/// `back` picks the `writes - k` cursor.
fn check_against_bounded_queue(capacity: usize, values: &[Value], back: u64) {
    let mut buf = DataBuffer::new(capacity);
    let mut model: VecDeque<(u64, Reading)> = VecDeque::with_capacity(capacity);
    let mut out = Vec::new();
    for (w, &v) in values.iter().enumerate() {
        let w = w as u64;
        let r = reading(v, w);
        buf.store(r, SimTime::from_secs(w), StorageIndexId(1));
        if model.len() == capacity {
            model.pop_front();
        }
        model.push_back((w, r));

        let writes = w + 1;
        assert_eq!(buf.len(), model.len(), "len after {writes} writes");
        assert_eq!(buf.total_writes(), writes);
        assert_eq!(buf.total_overwrites(), writes - model.len() as u64);

        let mut held: Vec<Reading> = buf.iter().copied().collect();
        held.sort_by_key(|r| r.timestamp);
        let want: Vec<Reading> = model.iter().map(|&(_, r)| r).collect();
        assert_eq!(held, want, "contents after {writes} writes");

        let cursors = [
            0,
            writes,
            writes - back % (writes + 1),
            writes.saturating_sub(capacity as u64 + 1),
        ];
        for cursor in cursors {
            out.clear();
            assert_eq!(buf.read_new_since(cursor, &mut out), writes);
            let want: Vec<Reading> = model
                .iter()
                .filter(|&&(at, _)| at >= cursor)
                .map(|&(_, r)| r)
                .collect();
            assert_eq!(out, want, "from cursor {cursor} after {writes} writes");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The recent-readings ring never exceeds its capacity and always holds
    /// exactly the most recent readings.
    #[test]
    fn ring_holds_most_recent_readings(
        capacity in 1usize..40,
        values in proptest::collection::vec(-200i32..200, 1..120),
    ) {
        let mut ring = RecentReadings::new(capacity);
        for &v in &values {
            ring.push(v);
        }
        prop_assert!(ring.len() <= capacity);
        prop_assert_eq!(ring.len(), values.len().min(capacity));
        prop_assert_eq!(ring.total_pushed(), values.len() as u64);
        let expected: Vec<Value> = values[values.len().saturating_sub(capacity)..].to_vec();
        let mut got = ring.values().to_vec();
        let mut want = expected.clone();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
        // min / max / sum agree with the retained window.
        prop_assert_eq!(ring.min_value(), expected.iter().min().copied());
        prop_assert_eq!(ring.max_value(), expected.iter().max().copied());
        prop_assert_eq!(ring.sum(), expected.iter().map(|&v| v as i64).sum::<i64>());
    }

    /// Scanning the data buffer returns exactly the stored readings matching
    /// both the value range and the time range, and never more than were
    /// stored.
    #[test]
    fn data_buffer_scan_matches_filter(
        capacity in 4usize..200,
        entries in proptest::collection::vec((0i32..100, 0u64..500), 1..150),
        vlo in 0i32..100, vwidth in 0i32..60,
        tlo in 0u64..400, twidth in 0u64..200,
    ) {
        let mut buf = DataBuffer::new(capacity);
        for &(v, t) in &entries {
            buf.store(reading(v, t), SimTime::from_secs(t), StorageIndexId(1));
        }
        prop_assert!(buf.len() <= capacity);
        prop_assert_eq!(buf.total_writes(), entries.len() as u64);

        let vrange = ValueRange::new(vlo, vlo + vwidth);
        let t_lo = SimTime::from_secs(tlo);
        let t_hi = SimTime::from_secs(tlo + twidth);
        let hits = buf.scan(&vrange, t_lo, t_hi);
        // Every hit satisfies the predicate.
        for r in &hits {
            prop_assert!(vrange.contains(r.value));
            prop_assert!(r.timestamp >= t_lo && r.timestamp <= t_hi);
        }
        // The buffer only "forgets" by overwriting oldest entries, so the hit
        // count can never exceed the number of matching entries overall.
        let matching_total = entries
            .iter()
            .filter(|&&(v, t)| vrange.contains(v) && t >= tlo && t <= tlo + twidth)
            .count();
        prop_assert!(hits.len() <= matching_total);
        // And with enough capacity it returns them all.
        if entries.len() <= capacity {
            prop_assert_eq!(hits.len(), matching_total);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The ring arithmetic — slot `w % capacity`, overwrites `writes - len` —
    /// agrees with a bounded queue at capacities 1, 2, 3 and a random one,
    /// on streams of up to five times the capacity.
    #[test]
    fn data_buffer_matches_a_bounded_queue(
        capacity in 4usize..=300,
        values in proptest::collection::vec(-200i32..200, 1_500..1_501),
        lengths in (0usize..1_500, 0usize..1_500, 0usize..1_500, 0usize..1_500),
        back in 0u64..2_000,
    ) {
        let (a, b, c, d) = lengths;
        for (capacity, pick) in [(1, a), (2, b), (3, c), (capacity, d)] {
            let n = 1 + pick % (5 * capacity);
            check_against_bounded_queue(capacity, &values[..n], back);
        }
    }
}
