//! The multi-sink federation: all the state and every decision that exists
//! only because a run has more than one sink. Every node of a multi-sink run
//! carries one [`Federation`], and `SimNode::federation` being `Some` is the
//! one marker of such a run: without it each entry point below takes the
//! classic single-sink path at once.
//!
//! - *Liveness.* Each sink opens every remap round with an epoch-stamped
//!   `SinkAlive` beacon that every node floods once. A sink notes each
//!   peer's beacons and first-seen mapping chunks, and counts a peer silent
//!   for longer than the failover timeout as dead.
//! - *Ownership.* A sink disseminates only the share of its index that the
//!   hash partition over the live ranks gives it. A dead peer's share folds
//!   into the survivors', which is the failover.
//! - *Ids.* Index and query ids carry their issuing sink's rank, so a node
//!   knows whose chunk it holds and a reply finds the sink that asked.
//! - *Relaying.* A sink relays a peer's query but never answers it, lets a
//!   reply to a peer's query travel on, harvests the summaries it overhears,
//!   and, when promoted, still forwards summaries towards node 0.
//!
//! Each sink's chunk stream is counted by the dissemination module, like
//! the one sink's.

use super::{SharedPayload, SimNode};
use scoop_core::index::IndexEntry;
use scoop_core::{QueryMessage, ReplyMessage, ScoopPayload, SinkAliveMessage, StorageIndex};
use scoop_net::NodeCtx;
use scoop_routing::NextHop;
use scoop_types::{MessageKind, NodeId, SimDuration, SimTime, Value, ValueRange};
use std::collections::HashSet;
use std::iter::StepBy;
use std::ops::RangeFrom;
use std::sync::Arc;

/// Index ids advance by this stride per sink in multi-sink mode, reserving
/// the low bits for the issuing sink's rank (`MAX_SINKS` ranks).
pub(super) const RANK_STRIDE: u32 = 64;

/// The step between consecutive index ids of one sink among `nsinks`, so
/// that `id % stride` is the issuing sink's rank: [`RANK_STRIDE`] in a
/// federation, 1 for a single sink, whose ids all have rank 0.
pub(super) fn index_id_stride(nsinks: usize) -> u32 {
    if nsinks > 1 {
        RANK_STRIDE
    } else {
        1
    }
}

/// The ids one sink issues its queries under.
pub(super) type QueryIds = StepBy<RangeFrom<u32>>;

/// The query ids of the rank-`rank` sink among `nsinks`: `1 + rank`, then
/// steps of the sink count, so ids never collide across sinks and
/// [`SimNode::reply_hop`] recovers the issuer from the id alone. A single
/// sink issues 1, 2, 3, …
pub(super) fn query_ids(rank: usize, nsinks: usize) -> QueryIds {
    (1 + rank as u32..).step_by(nsinks)
}

/// What a node of a multi-sink run keeps of the federation.
pub(super) struct Federation {
    /// Sink-liveness beacons already gossiped, keyed by (sink, epoch).
    seen_alive: HashSet<(u16, u64)>,
    /// Sinks only: the peers' liveness.
    liveness: Option<Liveness>,
}

/// A sink's view of which of its peers are alive.
struct Liveness {
    /// This sink's rank in the sorted sink list.
    rank: usize,
    /// Epoch of the next liveness beacon; strictly increasing.
    epoch: u64,
    /// When each rank was last heard from (beacon or mapping chunk). `None`
    /// until first contact, which counts as "alive" — the grace period that
    /// stops every sink from "failing over" at startup.
    last_heard: Vec<Option<SimTime>>,
}

impl Liveness {
    /// Ranks considered alive at `now`: self, plus every peer heard from
    /// within the failover timeout (or not yet expected to have spoken).
    fn live_ranks(&self, now: SimTime, timeout: SimDuration) -> Vec<usize> {
        (0..self.last_heard.len())
            .filter(|&r| {
                r == self.rank || now.since(self.last_heard[r].unwrap_or(SimTime::ZERO)) <= timeout
            })
            .collect()
    }
}

impl Federation {
    /// The federation state of a node among `nsinks` sinks: `rank` is the
    /// node's sink rank, `None` on a sensor, which keeps no liveness table.
    pub(super) fn new(rank: Option<usize>, nsinks: usize) -> Self {
        Federation {
            seen_alive: HashSet::new(),
            liveness: rank.map(|rank| Liveness {
                rank,
                epoch: 1,
                last_heard: vec![None; nsinks],
            }),
        }
    }

    /// A sign of life from the sink of rank `rank`, noted on sinks: its
    /// beacon, or a first-seen chunk of its index.
    pub(super) fn heard(&mut self, rank: usize, now: SimTime) {
        if let Some(liveness) = self.liveness.as_mut().filter(|l| l.rank != rank) {
            liveness.last_heard[rank] = Some(now);
        }
    }
}

/// The share of the value domain a sink owns in one remap round: its rank,
/// among the ranks it believes alive.
pub(super) struct Share {
    pub(super) rank: usize,
    live: Vec<usize>,
}

impl Share {
    /// `index` cut to the maximal runs of consecutive values this share
    /// owns, each run keeping its owner. `None` when the live peers own
    /// everything the index covers: the round then disseminates nothing.
    pub(super) fn cut(&self, index: StorageIndex) -> Option<StorageIndex> {
        let mut owned: Vec<IndexEntry> = Vec::new();
        for entry in index.entries() {
            let mut v = entry.range.lo;
            loop {
                if owning_rank(v, &self.live) == self.rank {
                    match owned.last_mut() {
                        Some(last) if last.owner == entry.owner && last.range.hi + 1 == v => {
                            last.range.hi = v;
                        }
                        _ => owned.push(IndexEntry {
                            range: ValueRange::point(v),
                            owner: entry.owner,
                        }),
                    }
                }
                if v == entry.range.hi {
                    break;
                }
                v += 1;
            }
        }
        let (id, domain, created_at) = (index.id(), index.domain(), index.created_at());
        (!owned.is_empty()).then(|| StorageIndex::from_entries(id, domain, owned, created_at))
    }
}

/// Which live sink rank owns value `v`: the existing hash, reduced over the
/// live ranks in ascending order. Every value always has exactly one owner,
/// and a dead sink's share redistributes deterministically over the
/// survivors.
fn owning_rank(v: Value, live: &[usize]) -> usize {
    live[(scoop_core::baselines::splitmix(v as u64) % live.len() as u64) as usize]
}

impl SimNode {
    /// The next hop for a reply to `query_id`: up the tree classically. In
    /// the federation, towards the sink that issued the query — a promoted
    /// sink is rarely an ancestor of the replier — whose rank the query id
    /// carries, so repliers need no extra routing state.
    pub(super) fn reply_hop(&self, query_id: u32) -> Option<NodeId> {
        if self.federation.is_none() {
            return self.routing.parent();
        }
        let sinks = &self.shared.sink_set;
        let sink = sinks[(query_id.wrapping_sub(1) as usize) % sinks.len()];
        match self
            .routing
            .next_hop_for(sink, self.shared.cfg.policy.scoop.neighbor_shortcut)
        {
            NextHop::Neighbor(h) | NextHop::DownTree(h) | NextHop::UpTree(h) => Some(h),
            NextHop::Local | NextHop::Stuck => None,
        }
    }

    /// Opens a federation sink's remap round with its liveness beacon (also
    /// what announces a restarted sink's heal), and returns the sink's share
    /// among the live ranks. `None` outside a federation.
    pub(super) fn open_remap_round(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
    ) -> Option<Share> {
        let timeout = self.shared.cfg.policy.scoop.effective_failover_timeout();
        let federation = self.federation.as_deref_mut()?;
        let liveness = federation.liveness.as_mut()?;
        let epoch = liveness.epoch;
        liveness.epoch += 1;
        let live = liveness.live_ranks(ctx.now(), timeout);
        let share = Share {
            rank: liveness.rank,
            live,
        };
        federation.seen_alive.insert((self.id.0, epoch));
        let beacon = Arc::new(ScoopPayload::SinkAlive(SinkAliveMessage {
            sink: self.id,
            epoch,
        }));
        ctx.send_broadcast(MessageKind::Heartbeat, self.routing.parent(), beacon);
        Some(share)
    }

    /// A sink-liveness beacon: note the peer alive (sinks only) and flood it
    /// network-wide by flood-once gossip so every sink hears every peer even
    /// across tree branches. Never sent in single-sink mode.
    pub(super) fn handle_sink_alive(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        alive: &SinkAliveMessage,
        payload: &SharedPayload,
    ) {
        let Some(federation) = self.federation.as_mut() else {
            return;
        };
        if !federation.seen_alive.insert((alive.sink.0, alive.epoch)) {
            return;
        }
        if let Some(rank) = self.shared.sink_set.iter().position(|s| *s == alive.sink) {
            federation.heard(rank, ctx.now());
        }
        self.enqueue_gossip(ctx, Arc::clone(payload), MessageKind::Heartbeat);
    }

    /// A query heard by a sink. A federation sink relays a peer's query once
    /// but never answers it: sinks hold only fallback data, which the issuing
    /// sink's planner already accounts for. A classic sink drops it.
    pub(super) fn relay_peer_query(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        query: &QueryMessage,
        payload: &SharedPayload,
    ) {
        if self.federation.is_none() || !self.seen_queries.insert(query.query_id.into()) {
            return;
        }
        if self.reaches_a_target(query) {
            self.enqueue_gossip(ctx, Arc::clone(payload), MessageKind::Query);
        }
    }

    /// Whether this node takes `reply` off the network: a sink's own reply,
    /// and at a classic sink an unknown (stale) one too. At a federation
    /// sink an unknown reply answers a peer's query and travels on.
    pub(super) fn sink_takes_reply(&mut self, reply: &ReplyMessage) -> bool {
        let classic = self.federation.is_none();
        self.sink
            .as_mut()
            .is_some_and(|base| base.record_reply(reply) || classic)
    }

    /// Whether a sink passes a summary it recorded on up the tree: a promoted
    /// one does, lest the sinks above it starve; node 0 is the root.
    pub(super) fn sink_forwards_summary(&self) -> bool {
        self.federation.is_some() && !self.id.is_basestation()
    }

    /// A packet overheard on its way to another node. A federation sink is
    /// rarely on the path a summary climbs to node 0, so it records the
    /// summaries it overhears too.
    pub(super) fn on_overheard(&mut self, payload: &ScoopPayload) {
        if let (Some(_), Some(base), ScoopPayload::Summary(summary)) =
            (&self.federation, self.sink.as_mut(), payload)
        {
            base.stats.record_summary(summary.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::NodeShared;
    use super::*;
    use scoop_core::SummaryMessage;
    use scoop_types::{ScenarioSpec, StorageIndexId, StoragePolicy};

    /// Node `id` of a SCOOP run whose sinks are `sinks` (node 0 alone when
    /// empty).
    fn node(id: u16, sinks: Vec<NodeId>) -> SimNode {
        let mut cfg = ScenarioSpec::small_test();
        cfg.policy.kind = StoragePolicy::Scoop;
        cfg.policy.basestations = sinks;
        SimNode::with_shared(NodeId(id), &Arc::new(NodeShared::new(cfg)))
    }

    fn two_sinks() -> Vec<NodeId> {
        vec![NodeId(0), NodeId(5)]
    }

    #[test]
    fn ownership_partition_is_disjoint_complete_and_collapses_on_failover() {
        let live = vec![0usize, 1];
        let domain = ValueRange::new(0, 99);
        let owners = vec![NodeId(3); 100];
        let full =
            StorageIndex::from_owners(StorageIndexId(64), domain, &owners, SimTime::ZERO).unwrap();
        let cut = |rank: usize, live: &[usize]| {
            let share = Share {
                rank,
                live: live.to_vec(),
            };
            share.cut(full.clone()).expect("a non-empty share")
        };
        let ia = cut(0, &live);
        let ib = cut(1, &live);
        let mut covered = 0;
        for v in domain.values() {
            let in_a = ia.lookup(v).is_some();
            let in_b = ib.lookup(v).is_some();
            assert!(in_a != in_b, "value {v} must be owned by exactly one rank");
            covered += 1;
        }
        assert_eq!(covered, 100);
        assert!(!ia.is_complete() && !ib.is_complete());
        // With rank 1 dead, rank 0 owns the entire domain: that is failover.
        let is0 = cut(0, &[0]);
        assert!(is0.is_complete());
    }

    #[test]
    fn stale_sinks_drop_out_of_the_live_set_and_reappear_on_contact() {
        let mut m = Liveness {
            rank: 0,
            epoch: 1,
            last_heard: vec![None, None],
        };
        let timeout = SimDuration::from_secs(120);
        // Grace period: a never-heard peer counts as alive early on.
        assert_eq!(m.live_ranks(SimTime::from_secs(60), timeout), vec![0, 1]);
        // Long silence past the timeout kills it.
        assert_eq!(m.live_ranks(SimTime::from_secs(500), timeout), vec![0]);
        // One beacon resurrects it.
        m.last_heard[1] = Some(SimTime::from_secs(450));
        assert_eq!(m.live_ranks(SimTime::from_secs(500), timeout), vec![0, 1]);
    }

    #[test]
    fn a_federation_sink_records_overheard_summaries_and_no_other_node_does() {
        let summary = ScoopPayload::Summary(SummaryMessage {
            node: NodeId(3),
            histogram: None,
            min: None,
            max: None,
            sum: 0,
            count: 0,
            data_rate_hz: 0.0,
            neighbors: Vec::new(),
            parent: Some(NodeId(0)),
            newest_complete_index: StorageIndexId::NONE,
            generated_at: SimTime::ZERO,
        });
        let reporting = |mut node: SimNode| {
            node.on_overheard(&summary);
            node.sink.as_ref().map(|base| base.stats.nodes_reporting())
        };
        // Both sinks of a federation, the promoted one and node 0, harvest it.
        assert_eq!(reporting(node(5, two_sinks())), Some(1));
        assert_eq!(reporting(node(0, two_sinks())), Some(1));
        // A classic sink learns only from summaries addressed to it.
        assert_eq!(reporting(node(0, Vec::new())), Some(0));
        // A sensor has no statistics to record into.
        assert_eq!(reporting(node(3, two_sinks())), None);
    }

    #[test]
    fn an_unknown_reply_dies_at_a_classic_sink_and_travels_on_past_a_federation_sink() {
        let reply = ReplyMessage {
            query_id: 7,
            node: NodeId(3),
            readings: Vec::new(),
            aggregate: None,
        };
        assert!(node(0, Vec::new()).sink_takes_reply(&reply));
        for sink in [0, 5] {
            assert!(!node(sink, two_sinks()).sink_takes_reply(&reply), "{sink}");
        }
        assert!(!node(3, Vec::new()).sink_takes_reply(&reply));
    }
}
