//! The answering core: index + optional cache behind one byte-stable API.
//!
//! [`AnswerCore`] is the part of the server that turns a predicate into
//! response-payload bytes. It exists as its own type so the cache-equivalence
//! property — *any* interleaving of ingest and queries produces byte-identical
//! payloads with the cache on or off — can be tested directly against the
//! exact code path the server runs.

use crate::cache::{AnswerCache, TouchedValues};
use crate::index::ServeIndex;
use scoop_store::Snapshot;
use scoop_types::{append_rows_payload, DurableRecord, QueryPredicate, ScoopError, ValueRange};
use std::sync::Arc;

/// Counters the core accumulates across its life.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Predicates answered (after coalescing).
    pub answers: u64,
    /// Rows across all answers.
    pub rows_returned: u64,
    /// Live readings ingested into the in-memory index. Stored history is
    /// not indexed here — it is answered from its segments.
    pub readings_indexed: u64,
    /// Data blocks of stored history read (and CRC-checked) to evaluate
    /// predicates; a function of the log and the predicates alone.
    pub history_blocks_read: u64,
    /// Answers served from the cache.
    pub cache_hits: u64,
    /// Answers that had to evaluate.
    pub cache_misses: u64,
    /// Cache entries dropped by new-reading invalidation.
    pub cache_invalidated: u64,
    /// Cache entries dropped by capacity eviction.
    pub cache_evicted: u64,
    /// Payload bytes resident in the cache now (a level, not a lifetime
    /// count): the cache's share of the process's memory.
    pub cache_bytes: u64,
}

/// Index + optional answer cache; produces encoded rows payloads.
pub struct AnswerCore {
    index: ServeIndex,
    /// Stored history, answered straight from its sealed segments.
    history: Option<Snapshot>,
    history_blocks_read: u64,
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
            index: ServeIndex::new(domain),
            history: None,
            history_blocks_read: 0,
            cache: (cache_capacity > 0).then(|| AnswerCache::new(cache_capacity)),
            touched: TouchedValues::new(domain),
            scratch: Vec::new(),
            rows_returned: 0,
            answers: 0,
        }
    }

    /// The same core, also answering from `history`. The view is immutable,
    /// so it never invalidates a cached answer; only [`AnswerCore::ingest`]
    /// does.
    pub fn with_history(mut self, history: Snapshot) -> Self {
        self.history = Some(history);
        self
    }

    /// Ingests one tick's worth of new readings: indexes them and drops
    /// every cached answer they could have changed. An empty cache has
    /// nothing to drop, so the touched-values table is not built.
    pub fn ingest(&mut self, records: &[DurableRecord]) {
        if records.is_empty() {
            return;
        }
        self.index.insert_batch(records);
        let Some(cache) = self.cache.as_mut().filter(|c| !c.is_empty()) else {
            return;
        };
        self.touched.clear();
        for rec in records {
            self.touched.record(rec.value, rec.time_ms);
        }
        cache.invalidate(&self.touched);
    }

    /// Fills the scratch buffer with every record matching `pred`, in
    /// canonical order: the stored history's rows (value-filtered as their
    /// blocks are read) and the live index's, sorted together. The one
    /// evaluation both answer shapes share.
    fn evaluate(&mut self, pred: &QueryPredicate) -> Result<(), ScoopError> {
        let values = ValueRange::new(pred.value_lo, pred.value_hi);
        let (t0, t1) = (pred.time_lo_ms, pred.time_hi_ms);
        self.scratch.clear();
        if let Some(history) = &mut self.history {
            let keep = |r: &DurableRecord| values.contains(r.value);
            self.history_blocks_read += history.query_into(t0, t1, keep, &mut self.scratch)?;
        }
        self.index.query_into(&values, t0, t1, &mut self.scratch);
        Ok(())
    }

    /// The encoded rows payload answering `pred` — from the cache when
    /// possible, evaluated (and cached) otherwise. The bytes are identical
    /// either way; that is the cache's correctness contract. The only error
    /// is a stored block that fails its checks: a typed
    /// [`ScoopError::Store`] naming file and block, never a short answer.
    pub fn answer_payload(&mut self, pred: &QueryPredicate) -> Result<Arc<Vec<u8>>, ScoopError> {
        self.answers += 1;
        if let Some(cache) = &mut self.cache {
            if let Some(payload) = cache.get(pred) {
                // Row count is the payload's little-endian u32 prefix.
                // Invariant: the cache holds only payloads this core encoded,
                // and `append_rows_payload` always writes that prefix.
                let count =
                    u32::from_le_bytes(payload[0..4].try_into().expect("payload has a count"));
                self.rows_returned += count as u64;
                return Ok(payload);
            }
        }
        self.evaluate(pred)?;
        self.rows_returned += self.scratch.len() as u64;
        let mut payload = Vec::with_capacity(4 + self.scratch.len() * 16);
        append_rows_payload(&self.scratch, &mut payload);
        let payload = Arc::new(payload);
        if let Some(cache) = &mut self.cache {
            cache.insert(*pred, Arc::clone(&payload));
        }
        Ok(payload)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CoreStats {
        let (hits, misses, invalidated, evicted, bytes) = match &self.cache {
            Some(c) => (
                c.hits,
                c.misses,
                c.invalidated,
                c.evicted,
                c.resident_bytes(),
            ),
            None => (0, 0, 0, 0, 0),
        };
        CoreStats {
            answers: self.answers,
            rows_returned: self.rows_returned,
            readings_indexed: self.index.len(),
            history_blocks_read: self.history_blocks_read,
            cache_hits: hits,
            cache_misses: misses,
            cache_invalidated: invalidated,
            cache_evicted: evicted,
            cache_bytes: bytes,
        }
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
        let first = core.answer_payload(&p).unwrap();
        let second = core.answer_payload(&p).unwrap();
        assert_eq!(first, second);
        let stats = core.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.rows_returned, 4, "both answers count their rows");
        assert_eq!(stats.answers, 2);
        assert_eq!(
            stats.cache_bytes,
            first.len() as u64,
            "one payload resident"
        );
    }

    #[test]
    fn ingest_invalidates_and_the_new_answer_sees_new_rows() {
        let domain = ValueRange::new(0, 9);
        let mut core = AnswerCore::new(domain, 64);
        core.ingest(&[rec(10, 1, 5)]);
        let p = pred(5, 5, 0, 100);
        let before = core.answer_payload(&p).unwrap();
        core.ingest(&[rec(50, 2, 5)]);
        assert_eq!(core.stats().cache_bytes, 0, "the stale payload is gone");
        let after = core.answer_payload(&p).unwrap();
        assert_ne!(before, after, "stale answer must not survive ingest");
        assert_eq!(core.stats().cache_invalidated, 1);
        assert_eq!(core.stats().cache_misses, 2, "second answer re-evaluated");
        assert_eq!(core.stats().cache_bytes, after.len() as u64);
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
                assert_eq!(
                    on.answer_payload(p).unwrap(),
                    off.answer_payload(p).unwrap()
                );
                assert_eq!(
                    on.answer_payload(p).unwrap(),
                    off.answer_payload(p).unwrap()
                );
            }
        }
        assert!(on.stats().cache_hits > 0, "the cache actually engaged");
        assert_eq!(on.stats().rows_returned, off.stats().rows_returned);
    }

    #[test]
    fn an_inverted_time_window_answers_zero_rows() {
        // `QueryPredicate`'s fields are public, so an in-process caller can
        // hand the core a window that `ServeRequest::decode` would refuse.
        for cache in [0, 8] {
            let mut core = AnswerCore::new(ValueRange::new(0, 9), cache);
            core.ingest(&[rec(10, 1, 3), rec(20, 2, 3), rec(30, 3, 3)]);
            let payload = core.answer_payload(&pred(0, 9, 25, 15)).unwrap();
            assert_eq!(payload.as_slice(), &0u32.to_le_bytes(), "cache {cache}");
            assert_eq!(core.stats().rows_returned, 0);
        }
    }
}
