//! Index dissemination: every decision about mapping chunks. A sink's remap
//! hands its new index to [`SimNode::disseminate`], which chunks and
//! broadcasts it; every heard chunk goes to [`SimNode::on_mapping_chunk`],
//! which floods it onward once and assembles it.
//!
//! Flooding once never repairs a lost chunk, so a child's own summary, which
//! names the newest index it holds, goes to [`SimNode::on_child_summary`] at
//! its parent: a parent holding a newer index of that rank re-sends its
//! chunks through the gossip queue, and every node that has not seen a chunk
//! floods it onward once more. This is Trickle's inconsistency rule (Levis et
//! al.), carried by the summaries every SCOOP node already sends, without
//! Trickle's timer. Only the parent answers: the child chose it from beacons
//! it heard, so the reply has a link to travel, and a lagging node costs one
//! repairer, not every neighbour that overhears it. A summary names one
//! index, so in a federation a node lagging on a rank other than its newest
//! one is not detected.
//!
//! A single-sink run is the one-rank case of the multi-sink federation. Each
//! sink versions its own chunk stream, and an index id carries its issuing
//! sink's rank (see [`index_id_stride`]). Every SCOOP node assembles each
//! rank's stream in that rank's slot, and the newest complete index of each
//! rank answers owner lookups.

use super::federation::index_id_stride;
use super::id_set::SparseIdSet;
use super::{SharedPayload, SimNode};
use scoop_core::index::IndexEntry;
use scoop_core::{MappingChunk, ScoopPayload, StorageIndex};
use scoop_net::NodeCtx;
use scoop_trickle::{ChunkAssembler, Chunker};
use scoop_types::{MessageKind, NodeId, SimTime, StorageIndexId, Value};
use std::sync::Arc;

/// One sink rank's chunk stream: its assembler and the newest complete index
/// it produced.
type RankSlot = (ChunkAssembler<IndexEntry>, Option<Arc<StorageIndex>>);

/// What a SCOOP node knows of every sink's chunk stream.
#[derive(Default)]
pub(super) struct Dissemination {
    /// One slot per sink rank, because a single assembler would let the
    /// streams preempt each other. Empty until the node first hears or
    /// publishes a chunk; not grown at construction, which a network pays
    /// for on every node.
    ranks: Vec<RankSlot>,
    /// Mapping chunks already gossiped, keyed `version << 32 | index`: exact,
    /// because a chunk's version is a `StorageIndexId` (a `u32`) widened.
    seen: SparseIdSet,
}

/// The order in which indices supersede each other: by creation time, then
/// id.
fn newness(index: &&Arc<StorageIndex>) -> (SimTime, StorageIndexId) {
    (index.created_at(), index.id())
}

impl Dissemination {
    /// The newest complete index issued by the sink of rank `rank`.
    pub(super) fn rank_index(&self, rank: usize) -> Option<&Arc<StorageIndex>> {
        self.ranks.get(rank)?.1.as_ref()
    }

    /// The owner of `value` and the id of the index that names it. Each
    /// sink's index covers only its owned slice of the domain, so the newest
    /// held index that names the value wins.
    pub(super) fn lookup(&self, value: Value) -> Option<(NodeId, StorageIndexId)> {
        let (owner, index) = self
            .held()
            .filter_map(|index| Some((index.lookup(value)?, index)))
            .max_by_key(|(_, index)| newness(index))?;
        Some((owner, index.id()))
    }

    fn held(&self) -> impl Iterator<Item = &Arc<StorageIndex>> {
        self.ranks.iter().filter_map(|(_, index)| index.as_ref())
    }

    /// The held indices a child lacks whose newest complete index is
    /// `heard`, issued by the sink of rank `rank`: every one when it holds
    /// none, else this node's rank-`rank` index when that is newer.
    fn newer_than(
        &self,
        heard: StorageIndexId,
        rank: usize,
    ) -> impl Iterator<Item = &Arc<StorageIndex>> {
        let held = self.ranks.iter().enumerate();
        held.filter_map(move |(r, (_, index))| {
            let index = index.as_ref()?;
            let lacks = heard == StorageIndexId::NONE || (r == rank && index.id() > heard);
            lacks.then_some(index)
        })
    }

    /// The slot of `rank`, growing the slots to `nsinks` on first use.
    fn slot(&mut self, rank: usize, nsinks: usize) -> &mut RankSlot {
        if self.ranks.is_empty() {
            self.ranks.reserve_exact(nsinks);
            self.ranks
                .resize_with(nsinks, || (ChunkAssembler::new(), None));
        }
        &mut self.ranks[rank]
    }
}

impl SimNode {
    /// The rank of the sink that issued index `id`.
    fn issuing_rank(&self, id: StorageIndexId) -> usize {
        (id.0 % index_id_stride(self.shared.sink_set.len())) as usize
    }

    /// `index` split into mapping chunks of the run's packet size.
    fn chunk_payloads(&self, index: &StorageIndex) -> impl Iterator<Item = SharedPayload> {
        let chunker = Chunker::new(self.shared.cfg.policy.scoop.mapping_entries_per_packet);
        let chunks = chunker.split(index.id().0 as u64, index.entries());
        let (domain, created_at) = (index.domain(), index.created_at());
        chunks.into_iter().map(move |chunk| {
            Arc::new(ScoopPayload::Mapping(MappingChunk {
                chunk,
                domain,
                created_at,
            }))
        })
    }

    /// Makes `index` the newest of `rank`. `current_index` mirrors the newest
    /// held over all ranks, so the routing rules re-address in-flight data
    /// against the freshest mapping.
    fn install(&mut self, rank: usize, index: StorageIndex) {
        let nsinks = self.shared.sink_set.len();
        if let Some(scoop) = self.scoop.as_mut() {
            scoop.dissemination.slot(rank, nsinks).1 = Some(Arc::new(index));
            self.current_index = scoop.dissemination.held().max_by_key(newness).cloned();
        }
    }

    /// A sink publishes the index its remap built: it becomes the sink's
    /// own-rank newest, and its chunks are broadcast for the neighbours to
    /// flood onward.
    pub(super) fn disseminate(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        index: StorageIndex,
    ) {
        let payloads = self.chunk_payloads(&index);
        self.install(self.issuing_rank(index.id()), index);
        for payload in payloads {
            ctx.send_broadcast(MessageKind::Mapping, None, payload);
        }
    }

    /// The held indices a child whose newest complete index is `heard`
    /// lacks, less those with chunks still in the gossip queue: a second
    /// lagging child heard before the queue drains queues no second copy.
    fn to_resend(&self, heard: StorageIndexId) -> impl Iterator<Item = &Arc<StorageIndex>> {
        let queued = |id: StorageIndexId| {
            self.pending_gossip.iter().any(|(payload, _)| {
                matches!(&**payload, ScoopPayload::Mapping(mc) if mc.index_id() == id)
            })
        };
        let rank = self.issuing_rank(heard);
        self.scoop
            .iter()
            .flat_map(move |scoop| scoop.dissemination.newer_than(heard, rank))
            .filter(move |index| !queued(index.id()))
    }

    /// A child's own summary named `heard` as its newest complete index: the
    /// chunks of every held index it lacks join the gossip queue.
    pub(super) fn on_child_summary(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        heard: StorageIndexId,
    ) {
        let stale: Vec<SharedPayload> = self
            .to_resend(heard)
            .flat_map(|index| self.chunk_payloads(index))
            .collect();
        for payload in stale {
            self.enqueue_gossip(ctx, payload, MessageKind::Mapping);
        }
    }

    /// A heard mapping chunk: the first copy is flooded onward and fed to its
    /// rank's assembler, unless that rank already holds the version. A sink
    /// drops its own rank's chunks, because it built that index, and every
    /// node drops a chunk that no configured sink issued.
    pub(super) fn on_mapping_chunk(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        mc: &MappingChunk,
        payload: &SharedPayload,
    ) {
        let (rank, version) = (self.issuing_rank(mc.index_id()), mc.index_id());
        let sinks = &self.shared.sink_set;
        let foreign = sinks.get(rank).is_some_and(|&sink| sink != self.id);
        let Some(scoop) = self.scoop.as_mut().filter(|_| foreign) else {
            return;
        };
        let key = mc.chunk.version << 32 | u64::from(mc.chunk.index);
        if !scoop.dissemination.seen.insert(key) {
            return;
        }
        // A mapping chunk proves its issuing sink was alive recently; it
        // counts as liveness evidence alongside the SinkAlive beacons.
        if let Some(m) = self.sink.as_mut().and_then(|base| base.multi.as_mut()) {
            m.heard(rank, ctx.now());
        }
        let (assembler, newest) = scoop.dissemination.slot(rank, sinks.len());
        let newest = newest.as_ref().map_or(StorageIndexId::NONE, |i| i.id());
        let entries = if version > newest {
            assembler.accept(&mc.chunk)
        } else {
            None
        };
        // Flood the chunk onward (once, after a random delay), reusing the
        // arrival's shared allocation.
        self.enqueue_gossip(ctx, Arc::clone(payload), MessageKind::Mapping);
        let Some(entries) = entries else {
            return;
        };
        let index = StorageIndex::from_entries(version, mc.domain, entries, mc.created_at);
        // A sink recording a peer's index into its planner is the
        // index-summary exchange that lets any sink plan queries over the
        // whole domain, not just its owned slice.
        if let Some(base) = self.sink.as_mut() {
            base.planner.record_index(index.clone());
        }
        self.install(rank, index);
    }
}

#[cfg(test)]
mod tests {
    use super::super::NodeShared;
    use super::*;
    use scoop_types::{ScenarioSpec, SimTime, StoragePolicy, ValueRange};

    /// Sensor 3 of a two-sink SCOOP run, holding each `(rank, index)`.
    fn sensor_holding(indices: Vec<(usize, StorageIndex)>) -> SimNode {
        let mut cfg = ScenarioSpec::small_test();
        cfg.policy.kind = StoragePolicy::Scoop;
        cfg.policy.basestations = vec![NodeId(0), NodeId(5)];
        let mut node = SimNode::with_shared(NodeId(3), &Arc::new(NodeShared::new(cfg)));
        for (rank, index) in indices {
            node.install(rank, index);
        }
        node
    }

    /// Index `id`, created at `created_s`, naming `owner` for `lo..=hi` only.
    fn slice(id: u32, created_s: u64, lo: Value, hi: Value, owner: u16) -> StorageIndex {
        StorageIndex::from_entries(
            StorageIndexId(id),
            ValueRange::new(0, 99),
            vec![IndexEntry {
                range: ValueRange::new(lo, hi),
                owner: NodeId(owner),
            }],
            SimTime::from_secs(created_s),
        )
    }

    #[test]
    fn the_newest_index_naming_a_value_wins_and_older_ranks_answer_the_rest() {
        // The newer index sits at rank 1, then at rank 0: rank order decides
        // nothing.
        for (older_rank, newer_rank) in [(0, 1), (1, 0)] {
            let older = StorageIndexId(64 + older_rank as u32);
            let newer = StorageIndexId(128 + newer_rank as u32);
            let node = sensor_holding(vec![
                (older_rank, slice(older.0, 100, 0, 99, 2)),
                (newer_rank, slice(newer.0, 200, 40, 59, 7)),
            ]);
            assert_eq!(node.lookup_owner(50), (NodeId(7), newer));
            assert_eq!(node.lookup_owner(10), (NodeId(2), older));
            assert_eq!(node.lookup_owner(99), (NodeId(2), older));
        }
    }

    #[test]
    fn a_stale_summary_selects_only_the_indices_the_neighbour_lacks() {
        // Rank 0 holds id 128 (its third index), rank 1 holds id 65.
        let node = sensor_holding(vec![
            (0, slice(128, 200, 0, 99, 2)),
            (1, slice(65, 100, 0, 99, 7)),
        ]);
        let dissemination = &node.scoop.as_ref().expect("SCOOP node").dissemination;
        let resent = |heard: u32| -> Vec<u32> {
            let heard = StorageIndexId(heard);
            let stale = dissemination.newer_than(heard, node.issuing_rank(heard));
            stale.map(|index| index.id().0).collect()
        };
        // A stale id of one rank selects that rank only.
        assert_eq!(resent(64), vec![128]);
        assert_eq!(resent(1), vec![65]);
        // A neighbour holding nothing lacks every held rank.
        assert_eq!(resent(StorageIndexId::NONE.0), vec![128, 65]);
        // An equal or newer id selects nothing, whatever the other rank holds.
        for heard in [128, 192, 65, 129] {
            assert!(resent(heard).is_empty(), "heard {heard}");
        }
        // A node holding nothing re-sends nothing.
        let bare = sensor_holding(Vec::new());
        let dissemination = &bare.scoop.as_ref().expect("SCOOP node").dissemination;
        assert_eq!(dissemination.newer_than(StorageIndexId::NONE, 0).count(), 0);
    }

    #[test]
    fn an_index_already_queued_is_not_queued_again() {
        let mut node = sensor_holding(vec![
            (0, slice(128, 200, 0, 99, 2)),
            (1, slice(65, 100, 0, 99, 7)),
        ]);
        let resent = |node: &SimNode, heard: u32| -> Vec<u32> {
            let stale = node.to_resend(StorageIndexId(heard));
            stale.map(|index| index.id().0).collect()
        };
        let first_chunk = |node: &SimNode, rank: usize| {
            let index = node
                .scoop
                .as_ref()
                .and_then(|s| s.dissemination.rank_index(rank));
            let index = Arc::clone(index.expect("rank holds an index"));
            node.chunk_payloads(&index).next().expect("one chunk")
        };
        assert_eq!(resent(&node, StorageIndexId::NONE.0), vec![128, 65]);
        // One queued chunk of id 65 holds back id 65 only.
        let chunk = first_chunk(&node, 1);
        node.pending_gossip.push_back((chunk, MessageKind::Mapping));
        assert_eq!(resent(&node, StorageIndexId::NONE.0), vec![128]);
        assert!(resent(&node, 1).is_empty());
        assert_eq!(resent(&node, 64), vec![128]);
        // With a chunk of each queued, no summary queues anything.
        let chunk = first_chunk(&node, 0);
        node.pending_gossip.push_back((chunk, MessageKind::Mapping));
        assert!(resent(&node, StorageIndexId::NONE.0).is_empty());
        assert!(resent(&node, 64).is_empty());
    }

    #[test]
    fn without_a_hit_a_value_stays_home_under_the_newest_index() {
        let node = sensor_holding(vec![
            (0, slice(64, 100, 0, 9, 2)),
            (1, slice(129, 200, 20, 29, 7)),
        ]);
        assert_eq!(node.lookup_owner(50), (NodeId(3), StorageIndexId(129)));
        let bare = sensor_holding(Vec::new());
        assert_eq!(bare.lookup_owner(50), (NodeId(3), StorageIndexId::NONE));
    }
}
