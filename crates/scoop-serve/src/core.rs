//! The answering core: index + optional cache behind one byte-stable API.
//!
//! [`AnswerCore`] is the part of the server that turns a predicate into
//! response-payload bytes. It exists as its own type so the cache-equivalence
//! property — *any* interleaving of ingest and queries produces byte-identical
//! payloads with the cache on or off — can be tested directly against the
//! exact code path the server runs.

use crate::cache::{AnswerCache, TouchedValues};
use crate::index::ServeIndex;
use scoop_types::{
    append_rows_payload, AggregateSpec, DurableRecord, PartialAggregate, QueryPredicate, ValueRange,
};
use std::sync::Arc;

/// Counters the core accumulates across its life.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Predicates answered (after coalescing).
    pub answers: u64,
    /// Rows across all answers.
    pub rows_returned: u64,
    /// Readings ingested into the index.
    pub readings_indexed: u64,
    /// Answers served from the cache.
    pub cache_hits: u64,
    /// Answers that had to evaluate.
    pub cache_misses: u64,
    /// Cache entries dropped by new-reading invalidation.
    pub cache_invalidated: u64,
    /// Cache entries dropped by capacity eviction.
    pub cache_evicted: u64,
}

/// Index + optional answer cache; produces encoded rows payloads.
pub struct AnswerCore {
    domain: ValueRange,
    index: ServeIndex,
    cache: Option<AnswerCache>,
    touched: TouchedValues,
    scratch: Vec<DurableRecord>,
    rows_returned: u64,
    answers: u64,
}

impl AnswerCore {
    /// A core over `domain`. `cache_capacity` 0 disables the cache — the
    /// configuration the cached path is proven byte-identical against.
    pub fn new(domain: ValueRange, cache_capacity: usize) -> Self {
        AnswerCore {
            domain,
            index: ServeIndex::new(domain),
            cache: (cache_capacity > 0).then(|| AnswerCache::new(cache_capacity)),
            touched: TouchedValues::new(domain),
            scratch: Vec::new(),
            rows_returned: 0,
            answers: 0,
        }
    }

    /// Readings indexed so far.
    pub fn indexed(&self) -> u64 {
        self.index.len()
    }

    /// Ingests one tick's worth of new readings: indexes them and drops
    /// every cached answer they could have changed.
    pub fn ingest(&mut self, records: &[DurableRecord]) {
        if records.is_empty() {
            return;
        }
        self.index.insert_batch(records);
        self.invalidate_for(records);
    }

    /// Starts a bulk load of stored history: push it block by block in any
    /// order; buckets left disordered are sorted once when the returned
    /// loader drops. The result is the index one [`AnswerCore::ingest`] of
    /// the same records in canonical order builds.
    pub fn bulk_load(&mut self) -> BulkLoad<'_> {
        BulkLoad { core: self }
    }

    /// Drops every cached answer `records` could have changed. An empty
    /// cache has nothing to drop, so the touched-values table is not built.
    fn invalidate_for(&mut self, records: &[DurableRecord]) {
        let Some(cache) = self.cache.as_mut().filter(|c| !c.is_empty()) else {
            return;
        };
        self.touched.clear();
        for rec in records {
            self.touched.record(rec.value, rec.time_ms);
        }
        cache.invalidate(&self.touched);
    }

    /// The encoded rows payload answering `pred` — from the cache when
    /// possible, evaluated (and cached) otherwise. The bytes are identical
    /// either way; that is the cache's correctness contract.
    pub fn answer_payload(&mut self, pred: &QueryPredicate) -> Arc<Vec<u8>> {
        self.answers += 1;
        if let Some(cache) = &mut self.cache {
            if let Some(payload) = cache.get(pred) {
                // Row count is the payload's little-endian u32 prefix.
                let count =
                    u32::from_le_bytes(payload[0..4].try_into().expect("payload has a count"));
                self.rows_returned += count as u64;
                return payload;
            }
        }
        self.scratch.clear();
        self.index.query_into(
            &ValueRange::new(pred.value_lo, pred.value_hi),
            pred.time_lo_ms,
            pred.time_hi_ms,
            &mut self.scratch,
        );
        self.rows_returned += self.scratch.len() as u64;
        let mut payload = Vec::with_capacity(4 + self.scratch.len() * 16);
        append_rows_payload(&self.scratch, &mut payload);
        let payload = Arc::new(payload);
        if let Some(cache) = &mut self.cache {
            cache.insert(*pred, Arc::clone(&payload));
        }
        payload
    }

    /// The partial aggregate over every record matching `pred` — the serve
    /// twin of the in-network aggregation path. It evaluates over exactly
    /// the rows [`AnswerCore::answer_payload`] would return for the same
    /// predicate (same index, same scratch path), so an aggregate answer and
    /// a range answer can never disagree about which readings matched. The
    /// byte cache is not consulted: partials are tiny and derived, and their
    /// correctness is anchored to the row path, not to cached bytes.
    pub fn aggregate_answer(
        &mut self,
        pred: &QueryPredicate,
        spec: &AggregateSpec,
    ) -> PartialAggregate {
        self.scratch.clear();
        self.index.query_into(
            &ValueRange::new(pred.value_lo, pred.value_hi),
            pred.time_lo_ms,
            pred.time_hi_ms,
            &mut self.scratch,
        );
        let mut partial = PartialAggregate::for_spec(spec, self.domain);
        for rec in &self.scratch {
            partial.observe(rec.value);
        }
        partial
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CoreStats {
        let (hits, misses, invalidated, evicted) = match &self.cache {
            Some(c) => (c.hits, c.misses, c.invalidated, c.evicted),
            None => (0, 0, 0, 0),
        };
        CoreStats {
            answers: self.answers,
            rows_returned: self.rows_returned,
            readings_indexed: self.index.len(),
            cache_hits: hits,
            cache_misses: misses,
            cache_invalidated: invalidated,
            cache_evicted: evicted,
        }
    }
}

/// An in-progress [`AnswerCore::bulk_load`]. It borrows the core, so nothing
/// can be answered from a half-ordered index; dropping it restores order.
pub struct BulkLoad<'a> {
    core: &'a mut AnswerCore,
}

impl BulkLoad<'_> {
    /// Indexes one block of records.
    pub fn push(&mut self, records: &[DurableRecord]) {
        self.core.index.push_unordered(records);
        self.core.invalidate_for(records);
    }
}

impl Drop for BulkLoad<'_> {
    fn drop(&mut self) {
        self.core.index.restore_order();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::NodeId;

    fn rec(time_ms: u64, node: u16, value: i32) -> DurableRecord {
        DurableRecord {
            time_ms,
            node: NodeId(node),
            attribute: 0,
            value,
        }
    }

    fn pred(lo: i32, hi: i32, tlo: u64, thi: u64) -> QueryPredicate {
        QueryPredicate {
            value_lo: lo,
            value_hi: hi,
            time_lo_ms: tlo,
            time_hi_ms: thi,
        }
    }

    #[test]
    fn cache_hit_returns_the_same_bytes_and_counts_rows() {
        let domain = ValueRange::new(0, 9);
        let mut core = AnswerCore::new(domain, 64);
        core.ingest(&[rec(10, 1, 3), rec(20, 2, 3)]);
        let p = pred(3, 3, 0, 100);
        let first = core.answer_payload(&p);
        let second = core.answer_payload(&p);
        assert_eq!(first, second);
        let stats = core.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.rows_returned, 4, "both answers count their rows");
        assert_eq!(stats.answers, 2);
    }

    #[test]
    fn ingest_invalidates_and_the_new_answer_sees_new_rows() {
        let domain = ValueRange::new(0, 9);
        let mut core = AnswerCore::new(domain, 64);
        core.ingest(&[rec(10, 1, 5)]);
        let p = pred(5, 5, 0, 100);
        let before = core.answer_payload(&p);
        core.ingest(&[rec(50, 2, 5)]);
        let after = core.answer_payload(&p);
        assert_ne!(before, after, "stale answer must not survive ingest");
        assert_eq!(core.stats().cache_invalidated, 1);
        assert_eq!(core.stats().cache_misses, 2, "second answer re-evaluated");
    }

    #[test]
    fn bulk_load_equals_one_sorted_ingest_and_still_invalidates() {
        let domain = ValueRange::new(0, 9);
        let history: Vec<DurableRecord> = (0..90u64)
            .map(|i| rec((i * 7) % 50, (i % 3) as u16, (i % 12) as i32 - 1))
            .collect();
        let mut sorted = history.clone();
        sorted.sort_unstable();
        let mut reference = AnswerCore::new(domain, 0);
        reference.ingest(&sorted);

        let mut core = AnswerCore::new(domain, 8);
        // A cached answer from before the load must not survive it.
        core.ingest(&history[..5]);
        let p = pred(-5, 20, 0, 100);
        let stale = core.answer_payload(&p);
        let mut load = core.bulk_load();
        for block in history[5..].chunks(4) {
            load.push(block);
        }
        drop(load);
        assert_eq!(core.indexed(), 90);
        assert_ne!(core.answer_payload(&p), stale);
        assert_eq!(core.stats().cache_invalidated, 1);
        for p in [p, pred(3, 4, 10, 30), pred(11, 11, 0, 100)] {
            assert_eq!(core.answer_payload(&p), reference.answer_payload(&p));
        }
    }

    #[test]
    fn cache_off_and_cache_on_agree_byte_for_byte() {
        let domain = ValueRange::new(0, 9);
        let mut on = AnswerCore::new(domain, 8);
        let mut off = AnswerCore::new(domain, 0);
        let batches = [
            vec![rec(10, 1, 2), rec(15, 2, 7)],
            vec![rec(20, 3, 2)],
            vec![],
            vec![rec(30, 1, 7), rec(30, 2, 2)],
        ];
        let preds = [pred(2, 2, 0, 100), pred(2, 7, 10, 30), pred(0, 9, 0, 0)];
        for batch in &batches {
            on.ingest(batch);
            off.ingest(batch);
            for p in &preds {
                // Ask twice so the second answer is a hot cache hit.
                assert_eq!(on.answer_payload(p), off.answer_payload(p));
                assert_eq!(on.answer_payload(p), off.answer_payload(p));
            }
        }
        assert!(on.stats().cache_hits > 0, "the cache actually engaged");
        assert_eq!(on.stats().rows_returned, off.stats().rows_returned);
    }

    #[test]
    fn aggregate_answer_matches_the_row_path() {
        use scoop_types::AggregateOp;
        let domain = ValueRange::new(0, 9);
        let mut core = AnswerCore::new(domain, 8);
        core.ingest(&[rec(10, 1, 2), rec(20, 2, 7), rec(30, 3, 4), rec(40, 1, 7)]);
        let p = pred(2, 7, 0, 35);
        let spec = AggregateSpec {
            op: AggregateOp::Quantile(0.5),
            epsilon: 0.05,
        };
        let partial = core.aggregate_answer(&p, &spec);
        // Matches {2, 7, 4}: same rows the payload path returns.
        assert_eq!(partial.count, 3);
        assert_eq!(partial.min, 2);
        assert_eq!(partial.max, 7);
        assert_eq!(partial.sum, 13);
        let payload = core.answer_payload(&p);
        let rows = u32::from_le_bytes(payload[0..4].try_into().unwrap());
        assert_eq!(rows as u64, partial.count);
        // The digest is present for quantile specs and tracks the stream.
        let digest = partial.digest.as_ref().expect("quantile carries a digest");
        assert_eq!(digest.count(), 3);
        // Min/max specs skip the digest entirely.
        let lean = core.aggregate_answer(
            &p,
            &AggregateSpec {
                op: AggregateOp::Min,
                epsilon: 0.05,
            },
        );
        assert!(lean.digest.is_none());
        assert_eq!(lean.answer(AggregateOp::Min), Some(2.0));
    }
}
