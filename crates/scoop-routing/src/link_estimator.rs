//! Passive link-quality estimation by snooping sequence numbers.
//!
//! "A node establishes link-quality from its neighbors by snooping the
//! network and, per neighbor, counting the number of packets it did not
//! receive using a monotonically increasing number that all nodes put in the
//! header of all their outgoing packets." (Section 5.2)

use scoop_types::{NodeId, SeqNo, SimTime};

/// Per-neighbor reception bookkeeping.
#[derive(Clone, Copy, Debug)]
struct LinkRecord {
    node: NodeId,
    /// Whether `node` is in the owning [`RoutingState`]'s neighbor table.
    /// It sits in the padding after the `u16` id, so the record stays 24 B.
    ///
    /// [`RoutingState`]: crate::RoutingState
    in_table: bool,
    last_seqno: SeqNo,
    /// Exponentially weighted reception ratio in `(0, 1]`.
    ewma: f64,
    last_heard: SimTime,
}

/// Sequence-number gaps larger than this are treated as packet reordering
/// (or a neighbor reboot) rather than loss: with wrapping arithmetic a packet
/// that arrives *out of order* would otherwise look like billions of missed
/// packets. Radios reorder over at most a handful of in-flight packets.
const REORDER_WINDOW: u32 = 128;

/// Estimates inbound link quality (the fraction of a neighbor's transmissions
/// this node actually hears) for every neighbor it has ever overheard.
///
/// The EWMA smoothing factor is the routing configuration's, the same on
/// every node, so the estimator does not store it:
/// [`LinkEstimator::observe`] takes it.
///
/// Each record also carries one bit of [`RoutingState`]'s: whether its
/// neighbor is in the [`NeighborTable`]. The table is a subset of the
/// records, so the bit answers "is this sender listed?" with the binary
/// search `observe` already makes instead of a linear scan of the table.
/// `RoutingState` is the one place that sets or clears it: a bit is set
/// exactly when its id is in the table, and a record evicted here takes its
/// bit with it.
///
/// [`RoutingState`]: crate::RoutingState
/// [`NeighborTable`]: crate::NeighborTable
#[derive(Clone, Debug, Default)]
pub struct LinkEstimator {
    /// One record per neighbor, sorted by ascending `NodeId` and found by
    /// binary search: a node hears a radio neighborhood, not the network, so
    /// the table is a few cache lines and every id-ordered walk of it is
    /// deterministic.
    records: Vec<LinkRecord>,
}

impl LinkEstimator {
    /// Creates an estimator that has heard nobody.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, src: NodeId) -> Result<usize, usize> {
        self.records.binary_search_by_key(&src, |r| r.node)
    }

    fn record(&self, src: NodeId) -> Option<&LinkRecord> {
        self.position(src).ok().map(|at| &self.records[at])
    }

    /// Records that a packet from `src` carrying sequence number `seqno` was
    /// heard (whether addressed to us or snooped) at time `now`, smoothing
    /// with the EWMA factor `alpha`, clamped into `[0.001, 1]`; larger values
    /// react faster to changes. Returns whether `src`'s record carries the
    /// neighbor-table bit (never, for a sender heard for the first time).
    pub fn observe(&mut self, src: NodeId, seqno: SeqNo, now: SimTime, alpha: f64) -> bool {
        match self.position(src) {
            Err(at) => {
                self.records.insert(
                    at,
                    LinkRecord {
                        node: src,
                        in_table: false,
                        last_seqno: seqno,
                        ewma: 1.0,
                        last_heard: now,
                    },
                );
                false
            }
            Ok(at) => {
                let alpha = alpha.clamp(0.001, 1.0);
                let rec = &mut self.records[at];
                let gap = seqno.distance_from(rec.last_seqno);
                // gap == 0 is a duplicate; gaps beyond the reorder window are
                // out-of-order arrivals (e.g. a retransmitted packet overtaken
                // by a newer one). Both count as a reception with no misses
                // and do not move the high-water sequence number backwards.
                let reordered = gap == 0 || gap > REORDER_WINDOW;
                let missed_now = if reordered { 0 } else { gap - 1 };
                if !reordered {
                    rec.last_seqno = seqno;
                }
                rec.last_heard = now;
                // Decay the EWMA once per missed packet (closed form) so
                // bursts of loss push the estimate down, then credit the
                // received packet. With no miss the factor is exactly 1.0,
                // so skipping the out-of-line `powi` call changes no bit.
                if missed_now > 0 {
                    rec.ewma *= (1.0 - alpha).powi(missed_now.min(1_000) as i32);
                }
                rec.ewma = (1.0 - alpha) * rec.ewma + alpha;
                rec.in_table
            }
        }
    }

    /// Whether `src`'s record carries the neighbor-table bit; `false` for a
    /// sender with no record.
    pub(crate) fn in_table(&self, src: NodeId) -> bool {
        self.record(src).is_some_and(|r| r.in_table)
    }

    /// Sets or clears the neighbor-table bit on `src`'s record, which must
    /// exist: the table only ever lists senders the estimator has heard.
    pub(crate) fn set_in_table(&mut self, src: NodeId, listed: bool) {
        // Invariant: the router admits only a sender it has just observed,
        // and evicts an id from the table and the estimator together.
        let at = self
            .position(src)
            .expect("a neighbor-table id has a link record");
        self.records[at].in_table = listed;
    }

    /// The estimated probability of hearing a transmission from `src`, or
    /// `None` if `src` has never been heard.
    pub fn quality(&self, src: NodeId) -> Option<f64> {
        self.record(src).map(|r| r.ewma)
    }

    /// Expected number of transmissions for `src` to get one packet through
    /// to us (inverse of quality).
    pub fn etx(&self, src: NodeId) -> Option<f64> {
        self.quality(src)
            .map(|q| if q > 0.0 { 1.0 / q } else { f64::INFINITY })
    }

    /// When `src` was last heard.
    pub fn last_heard(&self, src: NodeId) -> Option<SimTime> {
        self.record(src).map(|r| r.last_heard)
    }

    /// Forgets every neighbor not heard since `cutoff`. Returns the ids that
    /// were evicted, in ascending `NodeId` order.
    pub fn evict_silent_since(&mut self, cutoff: SimTime) -> Vec<NodeId> {
        let mut stale = Vec::new();
        self.records.retain(|r| {
            let keep = r.last_heard >= cutoff;
            if !keep {
                stale.push(r.node);
            }
            keep
        });
        stale
    }

    /// Every neighbor currently tracked, in ascending `NodeId` order.
    pub fn tracked(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.records.iter().map(|r| r.node)
    }

    /// Number of neighbors tracked.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no neighbor has ever been heard.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The routing configuration's default smoothing factor.
    const ALPHA: f64 = 0.1;

    /// The quality of a link after `n` consecutive packets and no loss.
    fn lossless(n: u32) -> Option<f64> {
        let mut est = LinkEstimator::new();
        for i in 0..n {
            est.observe(NodeId(1), SeqNo(i), SimTime::ZERO, ALPHA);
        }
        est.quality(NodeId(1))
    }

    #[test]
    fn perfect_link_has_quality_one() {
        let mut est = LinkEstimator::new();
        for i in 0..50u32 {
            est.observe(NodeId(3), SeqNo(i), SimTime::from_secs(i as u64), ALPHA);
        }
        let q = est.quality(NodeId(3)).unwrap();
        assert!(q > 0.99, "quality {q}");
        assert!((est.etx(NodeId(3)).unwrap() - 1.0).abs() < 0.02);
    }

    #[test]
    fn gaps_reduce_quality() {
        let mut est = LinkEstimator::new();
        // Hear every other packet: seqnos 0, 2, 4, ...
        for i in 0..100u32 {
            est.observe(NodeId(7), SeqNo(i * 2), SimTime::from_secs(i as u64), 0.2);
        }
        let q = est.quality(NodeId(7)).unwrap();
        assert!((0.3..0.7).contains(&q), "expected ~0.5, got {q}");
    }

    #[test]
    fn unknown_neighbor_is_none() {
        let est = LinkEstimator::new();
        assert_eq!(est.quality(NodeId(1)), None);
        assert_eq!(est.etx(NodeId(1)), None);
        assert!(est.is_empty());
    }

    #[test]
    fn duplicate_seqno_does_not_count_as_loss() {
        let mut est = LinkEstimator::new();
        est.observe(NodeId(1), SeqNo(5), SimTime::from_secs(1), ALPHA);
        est.observe(NodeId(1), SeqNo(5), SimTime::from_secs(2), ALPHA);
        assert_eq!(est.quality(NodeId(1)), lossless(2));
    }

    #[test]
    fn out_of_order_arrival_is_not_a_giant_loss_burst() {
        let mut est = LinkEstimator::new();
        // Seqno 20 arrives, then an older retransmission (seq 17) overtaken by
        // it. With naive wrapping arithmetic this would look like ~4 billion
        // missed packets.
        est.observe(NodeId(1), SeqNo(20), SimTime::from_secs(1), ALPHA);
        est.observe(NodeId(1), SeqNo(17), SimTime::from_secs(2), ALPHA);
        let q = est.quality(NodeId(1)).unwrap();
        assert!(q > 0.9, "reordering must not crater the estimate, got {q}");
        assert_eq!(Some(q), lossless(2));
        // Subsequent in-order packets keep working off the high-water mark.
        est.observe(NodeId(1), SeqNo(21), SimTime::from_secs(3), ALPHA);
        assert_eq!(est.quality(NodeId(1)), lossless(3));
    }

    #[test]
    fn neighbor_reboot_resets_cleanly() {
        let mut est = LinkEstimator::new();
        est.observe(NodeId(1), SeqNo(1_000_000), SimTime::from_secs(1), ALPHA);
        // The neighbor reboots and starts from zero: far outside the reorder
        // window, so it must not be treated as a billion lost packets.
        est.observe(NodeId(1), SeqNo(0), SimTime::from_secs(2), ALPHA);
        assert_eq!(est.quality(NodeId(1)), lossless(2));
    }

    #[test]
    fn eviction_removes_silent_neighbors() {
        let mut est = LinkEstimator::new();
        est.observe(NodeId(1), SeqNo(0), SimTime::from_secs(10), ALPHA);
        est.observe(NodeId(2), SeqNo(0), SimTime::from_secs(100), ALPHA);
        let evicted = est.evict_silent_since(SimTime::from_secs(50));
        assert_eq!(evicted, vec![NodeId(1)]);
        assert_eq!(est.len(), 1);
        assert!(est.quality(NodeId(2)).is_some());
    }

    #[test]
    fn worse_links_have_higher_etx() {
        let mut good = LinkEstimator::new();
        let mut bad = LinkEstimator::new();
        for i in 0..60u32 {
            good.observe(NodeId(1), SeqNo(i), SimTime::from_secs(i as u64), 0.3);
            bad.observe(NodeId(1), SeqNo(i * 4), SimTime::from_secs(i as u64), 0.3);
        }
        assert!(bad.etx(NodeId(1)).unwrap() > good.etx(NodeId(1)).unwrap() * 1.5);
    }

    #[test]
    fn tracked_and_evicted_ids_come_out_in_ascending_node_order() {
        let mut est = LinkEstimator::new();
        // Heard in an order unrelated to the ids; 9 and 40 stay fresh.
        for (id, at) in [(40u16, 90), (3, 10), (17, 20), (9, 80), (1, 30), (25, 5)] {
            est.observe(NodeId(id), SeqNo(0), SimTime::from_secs(at), ALPHA);
        }
        let ids = |v: &[u16]| v.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        assert_eq!(
            est.tracked().collect::<Vec<_>>(),
            ids(&[1, 3, 9, 17, 25, 40])
        );
        let evicted = est.evict_silent_since(SimTime::from_secs(50));
        assert_eq!(evicted, ids(&[1, 3, 17, 25]));
        assert_eq!(est.tracked().collect::<Vec<_>>(), ids(&[9, 40]));
        // Survivors keep their records and stay searchable.
        assert_eq!(est.last_heard(NodeId(9)), Some(SimTime::from_secs(80)));
        assert_eq!(est.quality(NodeId(3)), None);
    }

    #[test]
    fn a_link_record_stays_within_24_bytes() {
        // One record per neighbour heard, on every node of a 32k-node run; the
        // received/missed counters it used to carry made it 40. The
        // neighbor-table bit rides in the padding after the id.
        assert!(std::mem::size_of::<LinkRecord>() <= 24);
    }
}
