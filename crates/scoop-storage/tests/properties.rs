//! Property-based tests for the storage buffers.

use proptest::prelude::*;
use scoop_storage::{DataBuffer, RecentReadings};
use scoop_types::{Attribute, NodeId, Reading, SimTime, StorageIndexId, Value, ValueRange};

fn reading(v: Value, t: u64) -> Reading {
    Reading::new(NodeId(1), Attribute::Light, v, SimTime::from_secs(t))
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
