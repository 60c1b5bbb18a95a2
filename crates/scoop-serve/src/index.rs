//! The server-side query index: every served reading, bucketed by value.
//!
//! The simulated network distributes readings across node flash according to
//! Scoop's storage index; the *server* additionally keeps one consolidated
//! view so external queries are answered at memory speed instead of at radio
//! speed. The structure mirrors the query shape: predicates are narrow value
//! ranges (1–5 % of the domain) with a time window, so readings live in one
//! `Vec` per value, each kept in canonical [`DurableRecord`] order — a query
//! binary-searches the few buckets its range touches and merges.

use scoop_types::{DurableRecord, ValueRange};

/// Consolidated, value-bucketed view of every reading drained from the
/// simulated network. (History stored by an earlier process is not in here;
/// it is answered from its segments.)
pub struct ServeIndex {
    domain: ValueRange,
    /// One time-ordered bucket per domain value (`value - domain.lo`), then
    /// one last bucket for out-of-domain values.
    buckets: Vec<Vec<DurableRecord>>,
    /// Per bucket, within one [`ServeIndex::insert_batch`]: has a push broken
    /// its canonical order? All false between calls.
    disordered: Vec<bool>,
    len: u64,
}

impl ServeIndex {
    /// An empty index over `domain`.
    pub fn new(domain: ValueRange) -> Self {
        let width = domain.width().max(1) as usize;
        ServeIndex {
            domain,
            buckets: vec![Vec::new(); width + 1],
            disordered: vec![false; width + 1],
            len: 0,
        }
    }

    /// Readings indexed so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn overflow(&self) -> &[DurableRecord] {
        &self.buckets[self.buckets.len() - 1]
    }

    /// Inserts a batch, restoring per-bucket canonical order afterwards.
    ///
    /// Batches arrive once per server tick in node-id order, so a bucket's
    /// tail is usually *almost* sorted; one `sort_unstable` per bucket the
    /// batch disordered keeps the cost proportional to the tick's new data
    /// (plus one pass over the per-bucket flags).
    pub fn insert_batch(&mut self, records: &[DurableRecord]) {
        let overflow = self.buckets.len() - 1;
        for rec in records {
            let b = if self.domain.contains(rec.value) {
                (rec.value - self.domain.lo) as usize
            } else {
                overflow
            };
            let bucket = &mut self.buckets[b];
            self.disordered[b] |= bucket.last().is_some_and(|last| last > rec);
            bucket.push(*rec);
        }
        self.len += records.len() as u64;
        for (bucket, disordered) in self.buckets.iter_mut().zip(&mut self.disordered) {
            if std::mem::take(disordered) {
                bucket.sort_unstable();
            }
        }
    }

    /// Appends every record matching `(values, [time_lo_ms, time_hi_ms])` to
    /// `out`, then sorts all of `out` — these rows and whatever the caller
    /// had already put there — into canonical global order. The time filter
    /// binary-searches each bucket (they are time-major sorted); the final
    /// sort merges the few touched buckets.
    pub fn query_into(
        &self,
        values: &ValueRange,
        time_lo_ms: u64,
        time_hi_ms: u64,
        out: &mut Vec<DurableRecord>,
    ) {
        // A range wholly outside the domain can only match overflow records.
        if let Some(clipped) = self.domain.intersect(values) {
            for v in clipped.lo..=clipped.hi {
                let b = (v - self.domain.lo) as usize;
                Self::scan_sorted(&self.buckets[b], values, time_lo_ms, time_hi_ms, out);
            }
        }
        if !self.overflow().is_empty() {
            Self::scan_sorted(self.overflow(), values, time_lo_ms, time_hi_ms, out);
        }
        out.sort_unstable();
    }

    /// Pushes the slice of `bucket` within the time window (and value range,
    /// for the mixed-value overflow bucket) onto `out`.
    fn scan_sorted(
        bucket: &[DurableRecord],
        values: &ValueRange,
        time_lo_ms: u64,
        time_hi_ms: u64,
        out: &mut Vec<DurableRecord>,
    ) {
        let lo = bucket.partition_point(|r| r.time_ms < time_lo_ms);
        let hi = bucket.partition_point(|r| r.time_ms <= time_hi_ms);
        out.extend(
            bucket[lo..hi]
                .iter()
                .filter(|r| values.contains(r.value))
                .copied(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::{NodeId, Value};

    fn rec(time_ms: u64, node: u16, value: Value) -> DurableRecord {
        DurableRecord {
            time_ms,
            node: NodeId(node),
            attribute: 0,
            value,
        }
    }

    #[test]
    fn query_returns_canonical_order_across_buckets() {
        let mut idx = ServeIndex::new(ValueRange::new(0, 9));
        // Deliberately out of time order and across several values.
        idx.insert_batch(&[
            rec(30, 1, 3),
            rec(10, 2, 4),
            rec(20, 3, 3),
            rec(10, 1, 4),
            rec(40, 1, 5),
            rec(10, 1, 9),
        ]);
        assert_eq!(idx.len(), 6);

        let mut out = Vec::new();
        idx.query_into(&ValueRange::new(3, 4), 10, 30, &mut out);
        assert_eq!(
            out,
            vec![rec(10, 1, 4), rec(10, 2, 4), rec(20, 3, 3), rec(30, 1, 3)],
            "time-major canonical order, value 5/9 and t=40 excluded"
        );

        out.clear();
        idx.query_into(&ValueRange::new(9, 9), 0, 100, &mut out);
        assert_eq!(out, vec![rec(10, 1, 9)], "point query");
    }

    #[test]
    fn incremental_batches_equal_one_big_batch() {
        let records: Vec<DurableRecord> = (0..200)
            .map(|i| rec((i * 37) % 100, (i % 5) as u16, (i % 10) as Value))
            .collect();
        let mut one = ServeIndex::new(ValueRange::new(0, 9));
        one.insert_batch(&records);
        let mut many = ServeIndex::new(ValueRange::new(0, 9));
        for chunk in records.chunks(7) {
            many.insert_batch(chunk);
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        one.query_into(&ValueRange::new(0, 9), 0, 100, &mut a);
        many.query_into(&ValueRange::new(0, 9), 0, 100, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn unordered_pushes_then_one_restore_equal_one_sorted_batch() {
        // Every bucket (overflow included) is disordered again and again.
        let records: Vec<DurableRecord> = (0..600)
            .map(|i| rec((i * 37) % 100, (i % 5) as u16, (i % 14) as Value - 2))
            .collect();
        let mut sorted = records.clone();
        sorted.sort_unstable();
        let mut one = ServeIndex::new(ValueRange::new(0, 9));
        one.insert_batch(&sorted);
        let mut shuffled = ServeIndex::new(ValueRange::new(0, 9));
        shuffled.insert_batch(&records);
        assert!(!shuffled.disordered.contains(&true));
        assert_eq!(shuffled.len(), 600);
        assert_eq!(shuffled.buckets, one.buckets);
    }

    #[test]
    fn out_of_domain_records_are_kept_and_queryable() {
        let mut idx = ServeIndex::new(ValueRange::new(0, 4));
        idx.insert_batch(&[rec(10, 1, 2), rec(20, 1, 99), rec(5, 2, -3)]);
        assert_eq!(idx.len(), 3);
        let mut out = Vec::new();
        idx.query_into(&ValueRange::new(90, 100), 0, 100, &mut out);
        assert_eq!(out, vec![rec(20, 1, 99)], "query entirely outside domain");
        out.clear();
        idx.query_into(&ValueRange::new(-5, 2), 0, 100, &mut out);
        assert_eq!(out, vec![rec(5, 2, -3), rec(10, 1, 2)]);
    }

    #[test]
    fn time_window_is_inclusive_on_both_ends() {
        let mut idx = ServeIndex::new(ValueRange::new(0, 4));
        idx.insert_batch(&[rec(10, 1, 1), rec(20, 1, 1), rec(30, 1, 1)]);
        let mut out = Vec::new();
        idx.query_into(&ValueRange::new(1, 1), 10, 30, &mut out);
        assert_eq!(out.len(), 3);
        out.clear();
        idx.query_into(&ValueRange::new(1, 1), 11, 29, &mut out);
        assert_eq!(out, vec![rec(20, 1, 1)]);
    }
}
