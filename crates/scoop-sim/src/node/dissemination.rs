//! Index dissemination: every decision about mapping chunks. A sink's remap
//! hands its new index to [`SimNode::disseminate`], which chunks and
//! broadcasts it; every heard chunk goes to [`SimNode::on_mapping_chunk`],
//! which floods it onward once and assembles it.
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
        let chunker = Chunker::new(self.shared.cfg.policy.scoop.mapping_entries_per_packet);
        let chunks = chunker.split(index.id().0 as u64, index.entries());
        let (domain, created_at) = (index.domain(), index.created_at());
        self.install(self.issuing_rank(index.id()), index);
        for chunk in chunks {
            let payload = Arc::new(ScoopPayload::Mapping(MappingChunk {
                chunk,
                domain,
                created_at,
            }));
            ctx.send_broadcast(MessageKind::Mapping, None, payload);
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
