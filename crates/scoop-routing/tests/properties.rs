//! Property-based tests for the routing layer: link estimation, neighbor
//! table, and tree state invariants under arbitrary observation sequences.

use proptest::prelude::*;
use scoop_routing::{Beacon, LinkEstimator, NeighborTable, TreeState};
use scoop_types::{NodeId, SeqNo, SimTime};
use std::collections::HashMap;

/// One neighbor's record in the reference model.
struct ModelRecord {
    last_seqno: SeqNo,
    received: u64,
    missed: u64,
    ewma: f64,
    last_heard: SimTime,
}

/// The estimator as it was before its records moved into a sorted `Vec`: one
/// `HashMap` entry per neighbor. Kept here as the reference model the real
/// estimator is checked against.
#[derive(Default)]
struct HashMapEstimator {
    records: HashMap<NodeId, ModelRecord>,
}

impl HashMapEstimator {
    const ALPHA: f64 = 0.1;
    const REORDER_WINDOW: u32 = 128;

    fn observe(&mut self, src: NodeId, seqno: SeqNo, now: SimTime) {
        let Some(rec) = self.records.get_mut(&src) else {
            let first = ModelRecord {
                last_seqno: seqno,
                received: 1,
                missed: 0,
                ewma: 1.0,
                last_heard: now,
            };
            self.records.insert(src, first);
            return;
        };
        let gap = seqno.distance_from(rec.last_seqno);
        let reordered = gap == 0 || gap > Self::REORDER_WINDOW;
        let missed_now = if reordered { 0 } else { (gap - 1) as u64 };
        rec.received += 1;
        rec.missed += missed_now;
        if !reordered {
            rec.last_seqno = seqno;
        }
        rec.last_heard = now;
        rec.ewma *= (1.0 - Self::ALPHA).powi(missed_now.min(1_000) as i32);
        rec.ewma = (1.0 - Self::ALPHA) * rec.ewma + Self::ALPHA;
    }

    fn evict_silent_since(&mut self, cutoff: SimTime) -> Vec<NodeId> {
        let mut stale: Vec<NodeId> = self
            .records
            .iter()
            .filter(|(_, r)| r.last_heard < cutoff)
            .map(|(&n, _)| n)
            .collect();
        stale.sort();
        for n in &stale {
            self.records.remove(n);
        }
        stale
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever sequence numbers arrive (including duplicates, reordering,
    /// and giant jumps), the quality estimate stays a probability and the
    /// reception ratio stays in [0, 1].
    #[test]
    fn estimator_outputs_stay_bounded(
        seqnos in proptest::collection::vec(0u32..10_000, 1..200),
    ) {
        let mut est = LinkEstimator::new();
        for (i, &s) in seqnos.iter().enumerate() {
            est.observe(NodeId(7), SeqNo(s), SimTime::from_secs(i as u64));
        }
        let q = est.quality(NodeId(7)).unwrap();
        prop_assert!((0.0..=1.0).contains(&q), "quality {q}");
        let rr = est.reception_ratio(NodeId(7)).unwrap();
        prop_assert!((0.0..=1.0).contains(&rr), "reception ratio {rr}");
        prop_assert!(est.etx(NodeId(7)).unwrap() >= 1.0);
    }

    /// Differential: over arbitrary interleavings of observations (duplicate
    /// and reordered sequence numbers, gaps on both sides of the reorder
    /// window) and evictions, the sorted-`Vec` estimator and the `HashMap`
    /// reference agree bit-for-bit on every per-neighbor output, and evict
    /// the same neighbors.
    #[test]
    fn estimator_matches_the_hashmap_reference_model(
        ops in proptest::collection::vec((0u8..12, 0u16..48, 0u32..200, 0u64..4), 1..400),
    ) {
        let mut est = LinkEstimator::new();
        let mut model = HashMapEstimator::default();
        let mut now = 0u64;
        // Each sender's high-water sequence number; a step below 20 lands
        // behind it (reordering), 20 on it (duplicate), the rest ahead of it.
        let mut sent = [1_000u32; 48];
        for &(kind, src, step, dt) in &ops {
            now += dt;
            let seqno = sent[src as usize].wrapping_add(step).wrapping_sub(20);
            sent[src as usize] = sent[src as usize].max(seqno);
            if kind == 0 {
                // `step` doubles as how far back the cutoff reaches.
                let cutoff = SimTime::from_secs(now.saturating_sub(step as u64));
                let mut evicted = est.evict_silent_since(cutoff);
                prop_assert!(evicted.windows(2).all(|w| w[0] < w[1]), "{evicted:?}");
                evicted.sort();
                prop_assert_eq!(evicted, model.evict_silent_since(cutoff));
            } else {
                let quality = est.observe(NodeId(src), SeqNo(seqno), SimTime::from_secs(now));
                model.observe(NodeId(src), SeqNo(seqno), SimTime::from_secs(now));
                prop_assert_eq!(Some(quality), est.quality(NodeId(src)));
            }
            prop_assert_eq!(est.len(), model.records.len());
        }
        let tracked: Vec<NodeId> = est.tracked().collect();
        prop_assert!(tracked.windows(2).all(|w| w[0] < w[1]), "{tracked:?}");
        for src in (0..48).map(NodeId) {
            let expected = model.records.get(&src);
            prop_assert_eq!(
                est.quality(src).map(f64::to_bits),
                expected.map(|r| r.ewma.to_bits())
            );
            prop_assert_eq!(
                est.reception_ratio(src).map(f64::to_bits),
                expected.map(|r| (r.received as f64 / (r.received + r.missed) as f64).to_bits())
            );
            prop_assert_eq!(
                est.etx(src).map(f64::to_bits),
                expected.map(|r| (1.0 / r.ewma).to_bits())
            );
            prop_assert_eq!(est.last_heard(src), expected.map(|r| r.last_heard));
        }
    }

    /// The neighbor table never exceeds its capacity and never evicts a
    /// better neighbor to admit a worse one.
    #[test]
    fn neighbor_table_capacity_and_quality_invariant(
        capacity in 1usize..16,
        observations in proptest::collection::vec((0u16..40, 0.0f64..1.0), 1..200),
    ) {
        let mut table = NeighborTable::new(capacity);
        for (t, &(node, quality)) in observations.iter().enumerate() {
            table.observe(NodeId(node), quality, SimTime::from_secs(t as u64));
            // Storage grows on demand, the logical bound holds at every step.
            prop_assert!(table.len() <= capacity);
        }
        prop_assert_eq!(table.capacity(), capacity);
        // best(k) is sorted by descending quality.
        let best = table.best(capacity);
        for pair in best.windows(2) {
            prop_assert!(pair[0].quality >= pair[1].quality);
        }
    }

    /// A node never selects itself or an unusable link as parent, and its hop
    /// count is always one more than the advertised hop count of its parent
    /// beacon at selection time.
    #[test]
    fn tree_state_parent_invariants(
        beacons in proptest::collection::vec(
            (1u16..20, 0u16..10, 0.0f64..1.0, 0.0f64..20.0),
            1..100,
        ),
    ) {
        let me = NodeId(0xAA);
        let mut tree = TreeState::new(me);
        for (t, &(from, hops, quality, path_etx)) in beacons.iter().enumerate() {
            let beacon = Beacon { hops, path_etx, parent: None };
            tree.on_beacon(NodeId(from), &beacon, quality, SimTime::from_secs(t as u64 * 10));
            if let Some(parent) = tree.parent() {
                prop_assert_ne!(parent, me);
            }
            if tree.is_attached() {
                prop_assert!(tree.hops() >= 1);
                prop_assert!(tree.path_etx().is_finite());
                prop_assert!(tree.path_etx() >= 1.0, "path etx {}", tree.path_etx());
            }
        }
    }
}
