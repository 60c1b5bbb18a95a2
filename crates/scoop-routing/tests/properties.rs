//! Property-based tests for the routing layer: link estimation, neighbor
//! table, and tree state invariants under arbitrary observation sequences.

use proptest::prelude::*;
use scoop_net::{LinkDst, PacketMeta};
use scoop_routing::{
    Beacon, DescendantsList, LinkEstimator, NeighborEntry, RoutingConfig, RoutingState, TreeState,
};
use scoop_types::{MessageKind, NodeId, SeqNo, SimDuration, SimTime};
use std::collections::HashMap;

/// One neighbor's record in the reference model.
struct ModelRecord {
    last_seqno: SeqNo,
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

    fn observe(&mut self, src: NodeId, seqno: SeqNo, now: SimTime) -> f64 {
        let Some(rec) = self.records.get_mut(&src) else {
            let first = ModelRecord {
                last_seqno: seqno,
                ewma: 1.0,
                last_heard: now,
            };
            self.records.insert(src, first);
            return 1.0;
        };
        let gap = seqno.distance_from(rec.last_seqno);
        let reordered = gap == 0 || gap > Self::REORDER_WINDOW;
        let missed_now = if reordered { 0 } else { (gap - 1) as u64 };
        if !reordered {
            rec.last_seqno = seqno;
        }
        rec.last_heard = now;
        rec.ewma *= (1.0 - Self::ALPHA).powi(missed_now.min(1_000) as i32);
        rec.ewma = (1.0 - Self::ALPHA) * rec.ewma + Self::ALPHA;
        rec.ewma
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

/// The neighbor table as it was before it dropped to ids: every entry copies
/// the quality and last-heard time the estimator reported when it was last
/// observed. Kept here as the reference model the id-only table, which reads
/// both from the estimator, is checked against.
struct EntryTable {
    entries: Vec<NeighborEntry>,
    capacity: usize,
}

impl EntryTable {
    fn observe(&mut self, node: NodeId, quality: f64, now: SimTime) {
        let fresh = NeighborEntry {
            node,
            quality,
            last_heard: now,
        };
        if let Some(e) = self.entries.iter_mut().find(|e| e.node == node) {
            *e = fresh;
        } else if self.entries.len() < self.capacity {
            self.entries.push(fresh);
        } else if let Some((worst_idx, worst)) = self
            .entries
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.quality.partial_cmp(&b.1.quality).unwrap())
            .map(|(i, e)| (i, *e))
        {
            if quality > worst.quality {
                self.entries[worst_idx] = fresh;
            }
        }
    }

    fn evict_silent_since(&mut self, cutoff: SimTime) -> Vec<NodeId> {
        let stale = self
            .entries
            .iter()
            .filter(|e| e.last_heard < cutoff)
            .map(|e| e.node)
            .collect();
        self.entries.retain(|e| e.last_heard >= cutoff);
        stale
    }

    fn best(&self, k: usize) -> Vec<NeighborEntry> {
        let mut sorted = self.entries.clone();
        sorted.sort_by(|a, b| b.quality.partial_cmp(&a.quality).unwrap());
        sorted.truncate(k);
        sorted
    }
}

/// `RoutingState`'s observation and maintenance paths over the two reference
/// models (no beacons, so no parent).
struct ModelRouter {
    me: NodeId,
    stale_timeout: SimDuration,
    descendants_cap: usize,
    estimator: HashMapEstimator,
    table: EntryTable,
    descendants: DescendantsList,
}

impl ModelRouter {
    fn observe_packet(&mut self, meta: &PacketMeta, now: SimTime) {
        if meta.link_src == self.me {
            return;
        }
        let quality = self.estimator.observe(meta.link_src, meta.seqno, now);
        self.table.observe(meta.link_src, quality, now);
        if meta.origin_parent == Some(self.me) && meta.origin != self.me {
            self.descendants
                .note(meta.origin, meta.origin, now, self.descendants_cap);
        }
    }

    fn maintenance(&mut self, now: SimTime) -> Vec<NodeId> {
        let cutoff = SimTime::from_millis(
            now.as_millis()
                .saturating_sub(self.stale_timeout.as_millis()),
        );
        let evicted = self.table.evict_silent_since(cutoff);
        self.estimator.evict_silent_since(cutoff);
        self.descendants.evict(cutoff, None);
        for &gone in &evicted {
            self.descendants.evict(SimTime::ZERO, Some(gone));
        }
        evicted
    }
}

/// The id-only neighbor table as it was before membership moved onto the
/// link records: a linear `contains` on every observation, the worst entry
/// found by `min_by` in table order and replaced in place, and eviction by
/// `retain`. Qualities and last-heard times come from the reference
/// estimator. Kept here as the model the table bit is checked against.
struct ScanTable {
    nodes: Vec<NodeId>,
    capacity: usize,
}

impl ScanTable {
    fn observe(&mut self, node: NodeId, links: &HashMapEstimator) {
        let quality = |n: NodeId| links.records.get(&n).map_or(f64::NEG_INFINITY, |r| r.ewma);
        if self.nodes.contains(&node) {
            return;
        }
        if self.nodes.len() < self.capacity {
            self.nodes.push(node);
        } else if let Some((worst_idx, worst)) = self
            .nodes
            .iter()
            .map(|&n| quality(n))
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
        {
            if quality(node) > worst {
                self.nodes[worst_idx] = node;
            }
        }
    }

    fn evict_silent_since(&mut self, cutoff: SimTime, links: &HashMapEstimator) {
        self.nodes
            .retain(|n| links.records.get(n).is_some_and(|r| r.last_heard >= cutoff));
    }

    fn best(&self, k: usize, links: &HashMapEstimator) -> Vec<NeighborEntry> {
        let mut sorted: Vec<NeighborEntry> = self
            .nodes
            .iter()
            .map(|&node| {
                let r = &links.records[&node];
                NeighborEntry {
                    node,
                    quality: r.ewma,
                    last_heard: r.last_heard,
                }
            })
            .collect();
        sorted.sort_by(|a, b| b.quality.total_cmp(&a.quality));
        sorted.truncate(k);
        sorted
    }
}

/// `(node, quality bits, last heard)` of each summary entry.
fn summary_bits(entries: &[NeighborEntry]) -> Vec<(NodeId, u64, SimTime)> {
    entries
        .iter()
        .map(|e| (e.node, e.quality.to_bits(), e.last_heard))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever sequence numbers arrive (including duplicates, reordering,
    /// and giant jumps), the quality estimate stays a probability.
    #[test]
    fn estimator_outputs_stay_bounded(
        seqnos in proptest::collection::vec(0u32..10_000, 1..200),
    ) {
        let mut est = LinkEstimator::new();
        for (i, &s) in seqnos.iter().enumerate() {
            est.observe(NodeId(7), SeqNo(s), SimTime::from_secs(i as u64), HashMapEstimator::ALPHA);
        }
        let q = est.quality(NodeId(7)).unwrap();
        prop_assert!((0.0..=1.0).contains(&q), "quality {q}");
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
                let at = SimTime::from_secs(now);
                // A bare estimator has no neighbor table to mark records in.
                let listed = est.observe(NodeId(src), SeqNo(seqno), at, HashMapEstimator::ALPHA);
                let quality = model.observe(NodeId(src), SeqNo(seqno), SimTime::from_secs(now));
                prop_assert!(!listed);
                prop_assert_eq!(est.quality(NodeId(src)).map(f64::to_bits), Some(quality.to_bits()));
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
                est.etx(src).map(f64::to_bits),
                expected.map(|r| (1.0 / r.ewma).to_bits())
            );
            prop_assert_eq!(est.last_heard(src), expected.map(|r| r.last_heard));
        }
    }

    /// Differential for the slot path: estimators driven by sender slots
    /// agree with the `HashMap` reference through interleaved observations,
    /// evictions and re-hearings. One is told a random ascending sender list
    /// first; a bare one never is. Both get the same slots: mostly the
    /// sender's index in the list, sometimes a wrong one, and sometimes a
    /// sender that was never announced, whose slot names nobody or someone
    /// else. Both cases fall back to the search, and the fallback's
    /// insertions shift every later record off its announced slot. A
    /// `RoutingState` told the same list and driven the same way keeps its
    /// table bits equal to the scan-based membership model through
    /// maintenance, so an evicted record that kept its bit would show.
    #[test]
    fn slot_driven_estimator_matches_the_hashmap_reference_model(
        announced in proptest::collection::vec(0u16..48, 0..48),
        capacity in 1usize..5,
        timeout in 1u64..30,
        ops in proptest::collection::vec((0u8..12, 0u16..48, 0u32..200, 0u64..4, 0u8..8), 1..400),
    ) {
        let mut senders: Vec<NodeId> = announced.into_iter().map(NodeId).collect();
        senders.sort();
        senders.dedup();
        let mut slotted = LinkEstimator::new();
        slotted.announce(&senders);
        prop_assert!(slotted.is_empty());
        let mut bare = LinkEstimator::new();
        let mut model = HashMapEstimator::default();

        let me = NodeId(48);
        let config = RoutingConfig {
            neighbor_cap: capacity,
            summary_neighbors: capacity,
            stale_timeout: SimDuration::from_secs(timeout),
            ..RoutingConfig::default()
        };
        let mut rs = RoutingState::new(me, config);
        rs.announce_senders(&senders);
        let mut links = HashMapEstimator::default();
        let mut table = ScanTable { nodes: Vec::new(), capacity };

        let mut now = 0u64;
        // As in the estimator differential: a step below 20 lands behind the
        // sender's high-water sequence number, 20 on it, the rest ahead.
        let mut sent = [1_000u32; 48];
        for &(kind, pick, step, dt, how) in &ops {
            now += dt;
            let at = SimTime::from_secs(now);
            if kind == 0 {
                let cutoff = SimTime::from_secs(now.saturating_sub(step as u64));
                let expected = model.evict_silent_since(cutoff);
                prop_assert_eq!(slotted.evict_silent_since(cutoff), expected.clone());
                prop_assert_eq!(bare.evict_silent_since(cutoff), expected);
                rs.maintenance(at);
                let cutoff = SimTime::from_secs(now.saturating_sub(timeout));
                table.evict_silent_since(cutoff, &links);
                links.evict_silent_since(cutoff);
            } else {
                let (src, slot) = match (senders.len(), how) {
                    (0, _) | (_, 7) => (NodeId(pick), pick as usize),
                    (len, 6) => (senders[pick as usize % len], pick as usize % len + 1),
                    (len, _) => (senders[pick as usize % len], pick as usize % len),
                };
                let seqno = sent[src.index()].wrapping_add(step).wrapping_sub(20);
                sent[src.index()] = sent[src.index()].max(seqno);
                let seqno = SeqNo(seqno);
                let alpha = HashMapEstimator::ALPHA;
                let quality = model.observe(src, seqno, at);
                // Neither estimator has a neighbor table to mark records in.
                prop_assert!(!slotted.observe_at(slot, src, seqno, at, alpha));
                prop_assert!(!bare.observe_at(slot, src, seqno, at, alpha));
                for est in [&slotted, &bare] {
                    prop_assert_eq!(est.quality(src).map(f64::to_bits), Some(quality.to_bits()));
                    prop_assert_eq!(est.quality_at(slot, src).map(f64::to_bits), Some(quality.to_bits()));
                }
                let meta = PacketMeta {
                    link_src: src,
                    link_dst: LinkDst::Broadcast,
                    origin: src,
                    origin_parent: None,
                    seqno,
                    kind: MessageKind::Data,
                    hops: 0,
                };
                rs.observe_packet_at(&meta, slot, at);
                links.observe(src, seqno, at);
                table.observe(src, &links);
            }
            prop_assert_eq!(slotted.len(), model.records.len());
            prop_assert_eq!(bare.len(), model.records.len());
            let ids = rs.neighbor_table().ids();
            for n in (0..=48).map(NodeId) {
                prop_assert_eq!(rs.is_neighbor(n), ids.contains(&n), "node {:?}", n);
            }
            prop_assert_eq!(ids, &table.nodes[..]);
            prop_assert_eq!(
                summary_bits(&rs.summary_neighbors()),
                summary_bits(&table.best(capacity, &links))
            );
        }
        let mut expected: Vec<NodeId> = model.records.keys().copied().collect();
        expected.sort();
        for est in [&slotted, &bare] {
            prop_assert_eq!(est.tracked().collect::<Vec<_>>(), expected.clone());
            for src in (0..48).map(NodeId) {
                let record = model.records.get(&src);
                prop_assert_eq!(
                    est.quality(src).map(f64::to_bits),
                    record.map(|r| r.ewma.to_bits())
                );
                prop_assert_eq!(
                    est.etx(src).map(f64::to_bits),
                    record.map(|r| (1.0 / r.ewma).to_bits())
                );
                prop_assert_eq!(est.last_heard(src), record.map(|r| r.last_heard));
            }
        }
    }

    /// Differential: driven through `RoutingState` by arbitrary sources,
    /// sequence-number gaps, time steps, `origin_parent` headers and
    /// maintenance, at capacities small enough that the table is full and
    /// replaces entries, the id-only table over the estimator agrees bit for
    /// bit with the entry-based reference on the summary it reports, on
    /// membership, on what maintenance evicts, and on the descendants it
    /// leaves. It never exceeds its capacity and reports best-first.
    #[test]
    fn id_only_neighbor_table_matches_the_entry_reference_model(
        capacity in 1usize..17,
        summary in 1usize..17,
        timeout in 1u64..40,
        ops in proptest::collection::vec(
            (0u8..12, 0u16..48, 0u32..200, 0u64..8, 0u8..4),
            1..400,
        ),
    ) {
        let me = NodeId(47);
        let config = RoutingConfig {
            neighbor_cap: capacity,
            summary_neighbors: summary,
            stale_timeout: SimDuration::from_secs(timeout),
            ..RoutingConfig::default()
        };
        let mut rs = RoutingState::new(me, config);
        let mut model = ModelRouter {
            me,
            stale_timeout: config.stale_timeout,
            descendants_cap: config.descendants_cap,
            estimator: HashMapEstimator::default(),
            table: EntryTable { entries: Vec::new(), capacity },
            descendants: DescendantsList::new(),
        };
        let ids = || (0..48).map(NodeId);
        let mut now = 0u64;
        // As in the estimator differential: a step below 20 lands behind the
        // sender's high-water sequence number, 20 on it, the rest ahead.
        let mut sent = [1_000u32; 48];
        for &(kind, src, step, dt, parent) in &ops {
            now += dt;
            let at = SimTime::from_secs(now);
            if kind == 0 {
                let before: Vec<NodeId> = ids().filter(|&n| rs.is_neighbor(n)).collect();
                rs.maintenance(at);
                let evicted: Vec<NodeId> =
                    before.into_iter().filter(|&n| !rs.is_neighbor(n)).collect();
                let mut expected = model.maintenance(at);
                expected.sort();
                prop_assert_eq!(evicted, expected);
            } else {
                let seqno = sent[src as usize].wrapping_add(step).wrapping_sub(20);
                sent[src as usize] = sent[src as usize].max(seqno);
                let (origin, origin_parent) = match parent {
                    0 => (NodeId(src), None),
                    1 => (NodeId(src), Some(me)),
                    2 => (NodeId(src), Some(NodeId(src / 2))),
                    _ => (me, Some(me)),
                };
                let meta = PacketMeta {
                    link_src: NodeId(src),
                    link_dst: LinkDst::Broadcast,
                    origin,
                    origin_parent,
                    seqno: SeqNo(seqno),
                    kind: MessageKind::Data,
                    hops: 0,
                };
                rs.observe_packet(&meta, at);
                model.observe_packet(&meta, at);
            }
            let reported = rs.summary_neighbors();
            prop_assert_eq!(summary_bits(&reported), summary_bits(&model.table.best(summary)));
            prop_assert!(reported.windows(2).all(|w| w[0].quality >= w[1].quality));
            prop_assert!(rs.neighbor_table().len() <= capacity);
            prop_assert_eq!(rs.neighbor_table().len(), model.table.entries.len());
            for n in ids() {
                prop_assert_eq!(rs.is_neighbor(n), model.table.entries.iter().any(|e| e.node == n));
                prop_assert_eq!(rs.is_descendant(n), model.descendants.contains(n));
            }
        }
    }

    /// Membership model: over random streams of observations (sender,
    /// sequence gap, time step) mixed with maintenance, at capacities 1–4 so
    /// that the table is full and both in-place replacement and eviction
    /// run, `is_neighbor` agrees with the table's ids after every step, and
    /// the table's order and reported summary equal the scan-based model's.
    #[test]
    fn table_bits_match_the_scan_membership_model(
        capacity in 1usize..5,
        timeout in 1u64..30,
        ops in proptest::collection::vec((0u8..10, 0u16..12, 1u32..6, 0u64..6), 1..300),
    ) {
        let me = NodeId(12);
        let config = RoutingConfig {
            neighbor_cap: capacity,
            summary_neighbors: capacity,
            stale_timeout: SimDuration::from_secs(timeout),
            ..RoutingConfig::default()
        };
        let mut rs = RoutingState::new(me, config);
        let mut links = HashMapEstimator::default();
        let mut table = ScanTable { nodes: Vec::new(), capacity };
        let mut sent = [0u32; 12];
        let mut now = 0u64;
        for &(kind, src, gap, dt) in &ops {
            now += dt;
            let at = SimTime::from_secs(now);
            if kind == 0 {
                rs.maintenance(at);
                let cutoff = SimTime::from_secs(now.saturating_sub(timeout));
                table.evict_silent_since(cutoff, &links);
                links.evict_silent_since(cutoff);
            } else {
                sent[src as usize] += gap;
                let meta = PacketMeta {
                    link_src: NodeId(src),
                    link_dst: LinkDst::Broadcast,
                    origin: NodeId(src),
                    origin_parent: None,
                    seqno: SeqNo(sent[src as usize]),
                    kind: MessageKind::Data,
                    hops: 0,
                };
                rs.observe_packet(&meta, at);
                links.observe(meta.link_src, meta.seqno, at);
                table.observe(meta.link_src, &links);
            }
            let ids = rs.neighbor_table().ids();
            for n in (0..=12).map(NodeId) {
                prop_assert_eq!(rs.is_neighbor(n), ids.contains(&n), "node {:?}", n);
            }
            prop_assert_eq!(ids, &table.nodes[..]);
            prop_assert_eq!(
                summary_bits(&rs.summary_neighbors()),
                summary_bits(&table.best(capacity, &links))
            );
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
