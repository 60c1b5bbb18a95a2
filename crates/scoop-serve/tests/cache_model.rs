//! The answer cache's admission and eviction policy, model-checked: arbitrary
//! get / insert / invalidate sequences at capacities 1..=64 drive both the
//! real `AnswerCache` and a plain reference model (three `VecDeque`s and a
//! map), and after every op the two must agree on each tier's keys in order,
//! the ghost keys, every counter and the resident payload bytes — and the
//! cache must hold its bounds.

use proptest::prelude::*;
use scoop_serve::{AnswerCache, TouchedValues};
use scoop_types::{QueryPredicate, ValueRange};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The policy written the obvious way: linear scans, no sequence numbers.
struct Model {
    probation_cap: usize,
    main_cap: usize,
    payloads: HashMap<QueryPredicate, Arc<Vec<u8>>>,
    /// `(key, hit since insert)`, oldest first.
    probation: VecDeque<(QueryPredicate, bool)>,
    main: VecDeque<QueryPredicate>,
    ghosts: VecDeque<QueryPredicate>,
    hits: u64,
    misses: u64,
    invalidated: u64,
    evicted: u64,
}

impl Model {
    fn new(capacity: usize) -> Self {
        let probation_cap = (capacity / 10).max(1);
        Model {
            probation_cap,
            main_cap: capacity - probation_cap,
            payloads: HashMap::new(),
            probation: VecDeque::new(),
            main: VecDeque::new(),
            ghosts: VecDeque::new(),
            hits: 0,
            misses: 0,
            invalidated: 0,
            evicted: 0,
        }
    }

    fn get(&mut self, pred: &QueryPredicate) -> Option<Arc<Vec<u8>>> {
        let Some(payload) = self.payloads.get(pred) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        if let Some(entry) = self.probation.iter_mut().find(|(p, _)| p == pred) {
            entry.1 = true;
        }
        Some(Arc::clone(payload))
    }

    fn insert(&mut self, pred: QueryPredicate, payload: Arc<Vec<u8>>) {
        if self.payloads.insert(pred, payload).is_some() {
            return; // refreshed in place
        }
        if let Some(i) = self.ghosts.iter().position(|g| *g == pred) {
            self.ghosts.remove(i);
            self.push_main(pred);
            return;
        }
        self.probation.push_back((pred, false));
        if self.probation.len() > self.probation_cap {
            let (oldest, hit) = self.probation.pop_front().unwrap();
            if hit {
                self.push_main(oldest);
            } else {
                self.payloads.remove(&oldest);
                self.evicted += 1;
                self.push_ghost(oldest);
            }
        }
    }

    fn push_main(&mut self, pred: QueryPredicate) {
        self.main.push_back(pred);
        if self.main.len() > self.main_cap {
            let oldest = self.main.pop_front().unwrap();
            self.payloads.remove(&oldest);
            self.evicted += 1;
        }
    }

    fn push_ghost(&mut self, pred: QueryPredicate) {
        self.ghosts.push_back(pred);
        if self.ghosts.len() > self.main_cap {
            self.ghosts.pop_front();
        }
    }

    fn invalidate(&mut self, touched: &TouchedValues) {
        let dirtied: Vec<QueryPredicate> = (self.probation.iter().map(|(p, _)| p))
            .chain(&self.main)
            .filter(|p| touched.dirties(p))
            .copied()
            .collect();
        self.probation.retain(|(p, _)| !dirtied.contains(p));
        self.main.retain(|p| !dirtied.contains(p));
        for pred in dirtied {
            self.payloads.remove(&pred);
            self.invalidated += 1;
            self.push_ghost(pred);
        }
    }
}

/// Key `k`'s predicate: small value ranges and overlapping 60 ms windows, so
/// a single touch dirties a few keys, never all of them.
fn pred_for(k: u64) -> QueryPredicate {
    let lo = (k % 8) as i32;
    let time_lo_ms = k * 37 % 600;
    QueryPredicate {
        value_lo: lo,
        value_hi: lo + (k / 8 % 3) as i32,
        time_lo_ms,
        time_hi_ms: time_lo_ms + 60,
    }
}

fn assert_agrees(cache: &AnswerCache, model: &Model, capacity: usize) {
    let probation: Vec<_> = cache.probation().copied().collect();
    let main: Vec<_> = cache.main().copied().collect();
    let ghosts: Vec<_> = cache.ghosts().copied().collect();
    let model_probation: Vec<_> = model.probation.iter().map(|(p, _)| *p).collect();
    assert_eq!(probation, model_probation, "probation tier");
    assert_eq!(main, Vec::from(model.main.clone()), "main tier");
    assert_eq!(ghosts, Vec::from(model.ghosts.clone()), "ghost list");
    assert_eq!(
        (cache.hits, cache.misses, cache.invalidated, cache.evicted),
        (model.hits, model.misses, model.invalidated, model.evicted),
        "hits / misses / invalidated / evicted"
    );
    let bytes: usize = model.payloads.values().map(|p| p.len()).sum();
    assert_eq!(
        cache.resident_bytes(),
        bytes as u64,
        "resident payload bytes"
    );

    let probation_cap = (capacity / 10).max(1);
    assert_eq!(cache.len(), probation.len() + main.len());
    assert!(
        cache.len() <= capacity,
        "resident {} > {capacity}",
        cache.len()
    );
    assert!(probation.len() <= probation_cap, "probation overfull");
    assert!(
        ghosts.len() <= capacity - probation_cap,
        "ghost list overfull"
    );
    assert!(
        ghosts
            .iter()
            .all(|g| !probation.contains(g) && !main.contains(g)),
        "a key is both resident and a ghost"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn the_cache_matches_the_reference_model(
        capacity in 1usize..65,
        raw_ops in proptest::collection::vec(
            (0u8..8, 0u64..1_000, 0usize..40, 0i32..10, 0u64..700),
            1..400,
        ),
    ) {
        let mut cache = AnswerCache::new(capacity);
        let mut model = Model::new(capacity);
        // About two keys per slot: enough reuse for hits and ghost re-entry,
        // enough churn for eviction.
        let keys = 2 * capacity as u64 + 2;
        let domain = ValueRange::new(0, 9);
        for (i, (kind, key, len, value, time_ms)) in raw_ops.into_iter().enumerate() {
            let pred = pred_for(key % keys);
            let payload = || Arc::new(vec![i as u8; len]);
            match kind {
                // A lookup on its own.
                0 | 1 => prop_assert_eq!(cache.get(&pred), model.get(&pred)),
                // What the answering core does: look up, insert on a miss.
                2..=5 => {
                    let got = cache.get(&pred);
                    prop_assert_eq!(&got, &model.get(&pred));
                    if got.is_none() {
                        cache.insert(pred, payload());
                        model.insert(pred, payload());
                    }
                }
                // A bare insert, which may refresh a resident answer.
                6 => {
                    cache.insert(pred, payload());
                    model.insert(pred, payload());
                }
                // One tick's new readings: one touch, sometimes two.
                _ => {
                    let mut touched = TouchedValues::new(domain);
                    touched.record(value, time_ms);
                    if len % 2 == 0 {
                        touched.record(9 - value, 700 - time_ms);
                    }
                    cache.invalidate(&touched);
                    model.invalidate(&touched);
                }
            }
            assert_agrees(&cache, &model, capacity);
        }
    }
}
