//! The predicate-keyed answer cache and its invalidation machinery.
//!
//! The cache maps a [`QueryPredicate`] to the *encoded rows payload* of its
//! answer — the exact bytes after `id | status` of a rows frame. Storing
//! bytes rather than rows is what makes the cached path provably
//! byte-identical to the uncached one: a hit splices the stored payload under
//! the new request id, producing the same frame an evaluation would.
//!
//! Invalidation is explicit and conservative: every server tick, the set of
//! `(value, sample-time)` points that just entered the index is summarized in
//! a [`TouchedValues`] table, and every cached predicate that *could* match
//! any of them is dropped. Eviction is FIFO at a fixed capacity, so memory is
//! bounded and the eviction order is deterministic.

use scoop_types::{QueryPredicate, Value, ValueRange};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Per-tick summary of which `(value, time)` points gained new readings:
/// for each domain value, the min/max sample time of this tick's arrivals.
///
/// A cached predicate is stale iff some value in its range was touched at a
/// time inside its window — checked in O(predicate width) against this
/// table, instead of O(new readings) per cache entry.
pub struct TouchedValues {
    domain_lo: Value,
    /// `(min, max)` sample time (ms) per domain value, `u64::MAX`/`0` when
    /// untouched this tick.
    spans: Vec<(u64, u64)>,
    /// Span over values outside the domain (rare: readings a foreign spec produced).
    overflow: Option<(u64, u64)>,
    any: bool,
}

impl TouchedValues {
    /// An empty table over `domain`.
    pub fn new(domain: ValueRange) -> Self {
        TouchedValues {
            domain_lo: domain.lo,
            spans: vec![(u64::MAX, 0); domain.width() as usize],
            overflow: None,
            any: false,
        }
    }

    /// Forgets the previous tick's touches.
    pub fn clear(&mut self) {
        if self.any {
            for s in &mut self.spans {
                *s = (u64::MAX, 0);
            }
            self.overflow = None;
            self.any = false;
        }
    }

    /// Records that a reading `(value, time_ms)` entered the index.
    pub fn record(&mut self, value: Value, time_ms: u64) {
        self.any = true;
        let i = value - self.domain_lo;
        let span = if i >= 0 && (i as usize) < self.spans.len() {
            &mut self.spans[i as usize]
        } else {
            self.overflow.get_or_insert((u64::MAX, 0))
        };
        span.0 = span.0.min(time_ms);
        span.1 = span.1.max(time_ms);
    }

    /// True if nothing was recorded since the last clear.
    pub fn is_empty(&self) -> bool {
        !self.any
    }

    /// Could an answer for `pred` have changed, given this tick's touches?
    pub fn dirties(&self, pred: &QueryPredicate) -> bool {
        if !self.any {
            return false;
        }
        // Clip the predicate's value range to the domain; an empty clip just
        // skips the loop.
        let lo = pred.value_lo.max(self.domain_lo);
        let hi = pred
            .value_hi
            .min(self.domain_lo + self.spans.len() as Value - 1);
        let mut v = lo;
        while v <= hi {
            let span = self.spans[(v - self.domain_lo) as usize];
            if span.0 <= pred.time_hi_ms && span.1 >= pred.time_lo_ms {
                return true;
            }
            v += 1;
        }
        if let Some((mn, mx)) = self.overflow {
            // Overflow values are not range-resolved; be conservative.
            if mn <= pred.time_hi_ms && mx >= pred.time_lo_ms {
                return true;
            }
        }
        false
    }
}

/// Bounded predicate → encoded-payload cache with FIFO eviction.
pub struct AnswerCache {
    capacity: usize,
    map: HashMap<QueryPredicate, Arc<Vec<u8>>>,
    /// Insertion order; exactly the map's key set.
    order: VecDeque<QueryPredicate>,
    /// Cache hits served.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries dropped because new readings dirtied them.
    pub invalidated: u64,
    /// Entries dropped to stay within capacity.
    pub evicted: u64,
}

impl AnswerCache {
    /// A cache holding at most `capacity` answers (`capacity > 0`).
    pub fn new(capacity: usize) -> Self {
        AnswerCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            invalidated: 0,
            evicted: 0,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The cached payload for `pred`, counting the hit or miss.
    pub fn get(&mut self, pred: &QueryPredicate) -> Option<Arc<Vec<u8>>> {
        match self.map.get(pred) {
            Some(payload) => {
                self.hits += 1;
                Some(Arc::clone(payload))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Caches `payload` for `pred`, evicting the oldest entry if full.
    /// Inserting an already-present predicate refreshes the payload without
    /// duplicating the order entry.
    pub fn insert(&mut self, pred: QueryPredicate, payload: Arc<Vec<u8>>) {
        if self.map.insert(pred, payload).is_some() {
            return;
        }
        self.order.push_back(pred);
        if self.map.len() > self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
                self.evicted += 1;
            }
        }
    }

    /// Drops every entry whose answer could include one of this tick's new
    /// readings.
    pub fn invalidate(&mut self, touched: &TouchedValues) {
        if touched.is_empty() || self.map.is_empty() {
            return;
        }
        let map = &mut self.map;
        let mut dropped = 0u64;
        self.order.retain(|pred| {
            if touched.dirties(pred) {
                map.remove(pred);
                dropped += 1;
                false
            } else {
                true
            }
        });
        self.invalidated += dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(lo: Value, hi: Value, tlo: u64, thi: u64) -> QueryPredicate {
        QueryPredicate {
            value_lo: lo,
            value_hi: hi,
            time_lo_ms: tlo,
            time_hi_ms: thi,
        }
    }

    fn payload(tag: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![tag; 4])
    }

    #[test]
    fn hit_miss_and_fifo_eviction() {
        let mut cache = AnswerCache::new(2);
        assert!(cache.get(&pred(0, 1, 0, 10)).is_none());
        cache.insert(pred(0, 1, 0, 10), payload(1));
        cache.insert(pred(2, 3, 0, 10), payload(2));
        assert_eq!(*cache.get(&pred(0, 1, 0, 10)).unwrap(), vec![1; 4]);
        // Third insert evicts the oldest (FIFO, not LRU).
        cache.insert(pred(4, 5, 0, 10), payload(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&pred(0, 1, 0, 10)).is_none(), "oldest evicted");
        assert!(cache.get(&pred(2, 3, 0, 10)).is_some());
        assert_eq!(cache.evicted, 1);
        assert_eq!(cache.hits, 2);
        assert_eq!(cache.misses, 2);
    }

    #[test]
    fn reinsert_refreshes_without_duplicating_order() {
        let mut cache = AnswerCache::new(2);
        cache.insert(pred(0, 1, 0, 10), payload(1));
        cache.insert(pred(0, 1, 0, 10), payload(9));
        assert_eq!(cache.len(), 1);
        assert_eq!(*cache.get(&pred(0, 1, 0, 10)).unwrap(), vec![9; 4]);
        cache.insert(pred(2, 3, 0, 10), payload(2));
        cache.insert(pred(4, 5, 0, 10), payload(3));
        assert_eq!(cache.len(), 2, "capacity still respected");
    }

    #[test]
    fn invalidation_drops_exactly_the_dirtied_predicates() {
        let domain = ValueRange::new(0, 9);
        let mut cache = AnswerCache::new(16);
        cache.insert(pred(0, 2, 0, 100), payload(1)); // value overlap, time overlap
        cache.insert(pred(0, 2, 200, 300), payload(2)); // value overlap, time disjoint
        cache.insert(pred(5, 7, 0, 100), payload(3)); // value disjoint
        let mut touched = TouchedValues::new(domain);
        touched.record(1, 50);
        cache.invalidate(&touched);
        assert!(cache.get(&pred(0, 2, 0, 100)).is_none(), "dirtied");
        assert!(cache.get(&pred(0, 2, 200, 300)).is_some(), "time disjoint");
        assert!(cache.get(&pred(5, 7, 0, 100)).is_some(), "value disjoint");
        assert_eq!(cache.invalidated, 1);

        // Window edges are inclusive: a touch at exactly time_hi dirties.
        let mut touched = TouchedValues::new(domain);
        touched.record(6, 100);
        cache.invalidate(&touched);
        assert!(cache.get(&pred(5, 7, 0, 100)).is_none());
    }

    #[test]
    fn touched_values_resets_and_handles_out_of_domain() {
        let domain = ValueRange::new(0, 4);
        let mut touched = TouchedValues::new(domain);
        assert!(touched.is_empty());
        touched.record(99, 10); // out of domain -> overflow span
        assert!(!touched.is_empty());
        assert!(
            touched.dirties(&pred(0, 1, 5, 15)),
            "overflow touches are conservative: any window overlap dirties"
        );
        assert!(!touched.dirties(&pred(0, 1, 20, 30)), "window disjoint");
        touched.clear();
        assert!(touched.is_empty());
        assert!(!touched.dirties(&pred(0, 4, 0, 100)));
    }

    #[test]
    fn predicates_clipped_to_domain_edges_do_not_panic() {
        let domain = ValueRange::new(0, 4);
        let mut touched = TouchedValues::new(domain);
        touched.record(0, 10);
        touched.record(4, 10);
        assert!(touched.dirties(&pred(-100, 100, 0, 20)), "superset range");
        assert!(touched.dirties(&pred(4, 90, 0, 20)), "clipped high end");
        assert!(!touched.dirties(&pred(-100, -1, 0, 20)), "entirely below");
        assert!(!touched.dirties(&pred(50, 90, 0, 20)), "entirely above");
    }
}
