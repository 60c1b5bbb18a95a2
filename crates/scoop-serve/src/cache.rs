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
//! any of them is dropped.
//!
//! Admission is scan-resistant (the S3-FIFO shape): a new answer waits in a
//! small probationary FIFO and is promoted to the main FIFO only if it was
//! hit there, so a stream of never-repeated predicates occupies at most the
//! probation tier. Every queue is FIFO, so memory is bounded and the
//! eviction order is deterministic.

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

/// What the cache knows about one predicate.
enum Slot {
    /// An answer in the probation or main tier, and whether it was hit
    /// since it entered that tier.
    Resident { payload: Arc<Vec<u8>>, hit: bool },
    /// A key whose payload was dropped recently. `seq` names its one live
    /// entry in the ghost queue; older entries for the same key are stale.
    Ghost { seq: u64 },
}

/// Is the ghost-queue entry `(pred, seq)` the live one for `pred`?
fn is_live_ghost(slots: &HashMap<QueryPredicate, Slot>, pred: &QueryPredicate, seq: u64) -> bool {
    matches!(slots.get(pred), Some(Slot::Ghost { seq: s }) if *s == seq)
}

/// Bounded predicate → encoded-payload cache in three FIFO parts:
///
/// * **probation** holds at most `max(1, capacity / 10)` new answers. One
///   leaving it moves to main if it was hit meanwhile; otherwise its payload
///   is dropped and its key becomes a ghost;
/// * **main** holds the other `capacity − probation` answers and evicts in
///   plain FIFO order;
/// * **ghosts** are keys only, at most main's capacity of them. A miss on a
///   ghost skips probation: its answer goes straight to main. Invalidated
///   answers become ghosts too, so a recurring predicate re-enters main on
///   its next miss.
pub struct AnswerCache {
    probation_cap: usize,
    main_cap: usize,
    slots: HashMap<QueryPredicate, Slot>,
    /// Resident on probation, oldest first.
    probation: VecDeque<QueryPredicate>,
    /// Resident in main, oldest first.
    main: VecDeque<QueryPredicate>,
    /// `(key, seq)` per ghost, oldest first, plus stale entries left by
    /// ghosts that became resident again (swept before they outnumber the
    /// live ones).
    ghost_queue: VecDeque<(QueryPredicate, u64)>,
    /// Live ghosts: the `Slot::Ghost` entries in `slots`.
    ghosts: usize,
    next_seq: u64,
    bytes: u64,
    /// Keys dirtied by the current invalidation (reused across ticks).
    dirtied: Vec<QueryPredicate>,
    /// Cache hits served.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Answers dropped because new readings dirtied them.
    pub invalidated: u64,
    /// Answers dropped to stay within capacity: probation leavers that were
    /// never hit, and main's oldest. A promotion drops nothing.
    pub evicted: u64,
}

impl AnswerCache {
    /// A cache holding at most `capacity` answers (`capacity > 0`).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let probation_cap = (capacity / 10).max(1);
        AnswerCache {
            probation_cap,
            main_cap: capacity - probation_cap,
            slots: HashMap::new(),
            probation: VecDeque::new(),
            main: VecDeque::new(),
            ghost_queue: VecDeque::new(),
            ghosts: 0,
            next_seq: 0,
            bytes: 0,
            dirtied: Vec::new(),
            hits: 0,
            misses: 0,
            invalidated: 0,
            evicted: 0,
        }
    }

    /// Answers currently resident (both tiers).
    pub fn len(&self) -> usize {
        self.probation.len() + self.main.len()
    }

    /// True if no answer is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.bytes
    }

    /// Predicates on probation, oldest first.
    pub fn probation(&self) -> impl Iterator<Item = &QueryPredicate> {
        self.probation.iter()
    }

    /// Predicates in the main tier, oldest first.
    pub fn main(&self) -> impl Iterator<Item = &QueryPredicate> {
        self.main.iter()
    }

    /// Ghost predicates (no payload), oldest first.
    pub fn ghosts(&self) -> impl Iterator<Item = &QueryPredicate> {
        self.ghost_queue
            .iter()
            .filter(|(pred, seq)| is_live_ghost(&self.slots, pred, *seq))
            .map(|(pred, _)| pred)
    }

    /// The cached payload for `pred`, counting the hit or miss.
    pub fn get(&mut self, pred: &QueryPredicate) -> Option<Arc<Vec<u8>>> {
        if let Some(Slot::Resident { payload, hit }) = self.slots.get_mut(pred) {
            *hit = true;
            self.hits += 1;
            return Some(Arc::clone(payload));
        }
        self.misses += 1;
        None
    }

    /// Caches `payload` for `pred`: on probation, or straight in main if
    /// `pred` is a ghost. Inserting a resident predicate refreshes its
    /// payload in place (same tier, position and hit bit).
    pub fn insert(&mut self, pred: QueryPredicate, payload: Arc<Vec<u8>>) {
        self.bytes += payload.len() as u64;
        let was_ghost = match self.slots.get_mut(&pred) {
            Some(Slot::Resident { payload: old, .. }) => {
                self.bytes -= old.len() as u64;
                *old = payload;
                return;
            }
            Some(Slot::Ghost { .. }) => true,
            None => false,
        };
        self.slots.insert(
            pred,
            Slot::Resident {
                payload,
                hit: false,
            },
        );
        if was_ghost {
            // Its queue entry is stale now. Sweep once stale entries
            // outnumber live ones: the sweep costs less than twice what it
            // removes, and the queue stays within twice the live ghosts.
            self.ghosts -= 1;
            if self.ghost_queue.len() > 2 * self.ghosts {
                let slots = &self.slots;
                self.ghost_queue
                    .retain(|(pred, seq)| is_live_ghost(slots, pred, *seq));
            }
            self.main.push_back(pred);
            self.trim_main();
        } else {
            self.probation.push_back(pred);
            if self.probation.len() > self.probation_cap {
                self.leave_probation();
            }
        }
    }

    /// Moves probation's oldest answer to main if it was hit, else drops it
    /// to a ghost.
    fn leave_probation(&mut self) {
        let pred = self
            .probation
            .pop_front()
            .expect("probation is over capacity");
        match self.slots.get_mut(&pred) {
            Some(Slot::Resident {
                hit: hit @ true, ..
            }) => {
                *hit = false;
                self.main.push_back(pred);
                self.trim_main();
            }
            _ => {
                self.evicted += 1;
                self.make_ghost(pred);
            }
        }
    }

    /// Drops main's oldest answer (key and all) if main is over capacity.
    fn trim_main(&mut self) {
        if self.main.len() > self.main_cap {
            let pred = self.main.pop_front().expect("main is over capacity");
            if let Some(Slot::Resident { payload, .. }) = self.slots.remove(&pred) {
                self.bytes -= payload.len() as u64;
            }
            self.evicted += 1;
        }
    }

    /// Drops `pred`'s payload and keeps its key as the newest ghost,
    /// forgetting the oldest ghosts beyond main's capacity.
    fn make_ghost(&mut self, pred: QueryPredicate) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(Slot::Resident { payload, .. }) = self.slots.insert(pred, Slot::Ghost { seq }) {
            self.bytes -= payload.len() as u64;
        }
        self.ghost_queue.push_back((pred, seq));
        self.ghosts += 1;
        while self.ghosts > self.main_cap {
            let (oldest, seq) = self
                .ghost_queue
                .pop_front()
                .expect("live ghosts are queued");
            if is_live_ghost(&self.slots, &oldest, seq) {
                self.slots.remove(&oldest);
                self.ghosts -= 1;
            }
        }
    }

    /// Drops every answer that could include one of this tick's new
    /// readings; their keys become ghosts (probation's first, then main's,
    /// each oldest first).
    pub fn invalidate(&mut self, touched: &TouchedValues) {
        if touched.is_empty() || self.is_empty() {
            return;
        }
        let mut dirtied = std::mem::take(&mut self.dirtied);
        for tier in [&mut self.probation, &mut self.main] {
            tier.retain(|pred| {
                let dirty = touched.dirties(pred);
                if dirty {
                    dirtied.push(*pred);
                }
                !dirty
            });
        }
        self.invalidated += dirtied.len() as u64;
        for pred in dirtied.drain(..) {
            self.make_ghost(pred);
        }
        self.dirtied = dirtied;
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

    /// The `i`-th of a stream of distinct predicates.
    fn unique(i: u64) -> QueryPredicate {
        pred(0, 1, i, i + 10)
    }

    fn keys<'a>(tier: impl Iterator<Item = &'a QueryPredicate>) -> Vec<QueryPredicate> {
        tier.copied().collect()
    }

    #[test]
    fn probation_hits_promote_and_unhit_answers_leave_only_a_ghost() {
        // Capacity 10: one probation slot, nine in main.
        let mut cache = AnswerCache::new(10);
        let (a, b, c) = (pred(0, 1, 0, 10), pred(2, 3, 0, 10), pred(4, 5, 0, 10));
        assert!(cache.get(&a).is_none());
        cache.insert(a, payload(1));
        assert_eq!(*cache.get(&a).unwrap(), vec![1; 4]);
        // B pushes A off probation; A was hit, so it is promoted.
        cache.insert(b, payload(2));
        assert_eq!(keys(cache.probation()), vec![b]);
        assert_eq!(keys(cache.main()), vec![a]);
        // C pushes B off probation; B was never hit, so only its key stays.
        cache.insert(c, payload(3));
        assert_eq!(keys(cache.probation()), vec![c]);
        assert_eq!(keys(cache.ghosts()), vec![b]);
        assert_eq!(cache.evicted, 1);
        assert_eq!(cache.resident_bytes(), 8, "A and C, 4 bytes each");
        // B's next miss re-admits it straight into main.
        assert!(cache.get(&b).is_none());
        cache.insert(b, payload(2));
        assert_eq!(keys(cache.main()), vec![a, b]);
        assert_eq!(cache.ghosts().count(), 0);
        assert_eq!(cache.len(), 3);
        assert_eq!((cache.hits, cache.misses), (1, 2));
    }

    #[test]
    fn main_tier_evicts_in_plain_fifo_order() {
        // Capacity 3: one probation slot, two in main.
        let mut cache = AnswerCache::new(3);
        let preds: Vec<_> = (0..4).map(unique).collect();
        for (i, p) in preds.iter().enumerate() {
            cache.insert(*p, payload(i as u8));
            assert!(cache.get(p).is_some(), "hit on probation");
        }
        // Each hit answer was promoted in turn; the third promotion pushed
        // the first out of main even though it was hit (FIFO, not LRU).
        assert_eq!(keys(cache.main()), vec![preds[1], preds[2]]);
        assert_eq!(keys(cache.probation()), vec![preds[3]]);
        assert!(cache.get(&preds[0]).is_none(), "oldest evicted");
        assert_eq!(cache.evicted, 1);
        assert_eq!(cache.ghosts().count(), 0, "main evictions leave no ghost");
    }

    #[test]
    fn reinsert_refreshes_without_duplicating_order() {
        let mut cache = AnswerCache::new(2);
        cache.insert(pred(0, 1, 0, 10), payload(1));
        cache.insert(pred(0, 1, 0, 10), Arc::new(vec![9; 6]));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_bytes(), 6, "the old payload is released");
        assert_eq!(*cache.get(&pred(0, 1, 0, 10)).unwrap(), vec![9; 6]);
        cache.insert(pred(2, 3, 0, 10), payload(2));
        cache.insert(pred(4, 5, 0, 10), payload(3));
        assert_eq!(cache.len(), 2, "capacity still respected");
    }

    #[test]
    fn a_scan_of_unique_answers_stays_on_probation() {
        let capacity = 100;
        let mut cache = AnswerCache::new(capacity);
        for i in 0..10 * capacity as u64 {
            assert!(cache.get(&unique(i)).is_none());
            cache.insert(unique(i), payload(0));
        }
        assert!(cache.len() <= capacity / 10, "{} resident", cache.len());
        assert_eq!(cache.main().count(), 0);
        assert_eq!(cache.ghosts().count(), capacity - capacity / 10);
        assert_eq!(cache.resident_bytes(), 4 * cache.len() as u64);
    }

    #[test]
    fn an_answer_hit_on_probation_survives_a_scan() {
        let capacity = 100;
        let mut cache = AnswerCache::new(capacity);
        let hot = pred(5, 5, 0, 10);
        cache.insert(hot, payload(7));
        assert!(cache.get(&hot).is_some());
        for i in 0..capacity as u64 {
            cache.insert(unique(i), payload(0));
        }
        assert_eq!(*cache.get(&hot).unwrap(), vec![7; 4]);
        assert_eq!(keys(cache.main()), vec![hot]);
    }

    #[test]
    fn ghost_queue_stays_within_twice_the_live_ghosts() {
        // The hot path: recurring predicates that every tick's readings
        // dirty. Each re-enters main from the ghost list, leaving a stale
        // queue entry behind.
        let mut cache = AnswerCache::new(20);
        let mut touched = TouchedValues::new(ValueRange::new(0, 9));
        touched.record(0, 8); // dirties unique(0..8)
        let bounded = |c: &AnswerCache| c.ghost_queue.len() <= 2 * c.ghosts + 1;
        for _ in 0..50 {
            for i in 0..8 {
                for _ in 0..2 {
                    if cache.get(&unique(i)).is_none() {
                        cache.insert(unique(i), payload(0));
                    }
                }
                assert!(bounded(&cache), "{} queued", cache.ghost_queue.len());
            }
            cache.invalidate(&touched);
            assert!(bounded(&cache), "{} queued", cache.ghost_queue.len());
        }
        assert_eq!(cache.invalidated, 50 * 8);
        assert_eq!(cache.hits, 50 * 8, "every second ask hits");
    }

    #[test]
    fn invalidation_drops_exactly_the_dirtied_predicates() {
        let domain = ValueRange::new(0, 9);
        // Capacity 40: four probation slots, so all three stay resident.
        let mut cache = AnswerCache::new(40);
        let dirtied = pred(0, 2, 0, 100); // value overlap, time overlap
        cache.insert(dirtied, payload(1));
        cache.insert(pred(0, 2, 200, 300), payload(2)); // value overlap, time disjoint
        cache.insert(pred(5, 7, 0, 100), payload(3)); // value disjoint
        let mut touched = TouchedValues::new(domain);
        touched.record(1, 50);
        cache.invalidate(&touched);
        assert!(cache.get(&dirtied).is_none(), "dirtied");
        assert!(cache.get(&pred(0, 2, 200, 300)).is_some(), "time disjoint");
        assert!(cache.get(&pred(5, 7, 0, 100)).is_some(), "value disjoint");
        assert_eq!(cache.invalidated, 1);
        assert_eq!(cache.resident_bytes(), 8);
        // The dropped answer is a ghost, so its next miss goes to main.
        assert_eq!(keys(cache.ghosts()), vec![dirtied]);
        cache.insert(dirtied, payload(4));
        assert_eq!(keys(cache.main()), vec![dirtied]);

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
