//! The multi-sink federation role: per-rank index assembly, sink-liveness
//! gossip and routing towards the sink that issued a query. Every node of a
//! multi-sink run carries a [`Federation`]; classic single-sink runs have none.

use super::{SharedPayload, SimNode};
use scoop_core::index::IndexEntry;
use scoop_core::{MappingChunk, SinkAliveMessage, StorageIndex};
use scoop_net::NodeCtx;
use scoop_routing::NextHop;
use scoop_trickle::ChunkAssembler;
use scoop_types::{MessageKind, NodeId, SimTime, StorageIndexId, Value, ValueRange};
use std::collections::HashSet;
use std::sync::Arc;

/// Index ids advance by this stride per sink in multi-sink mode, reserving
/// the low bits for the issuing sink's rank (`MAX_SINKS` ranks).
pub(super) const RANK_STRIDE: u32 = 64;

/// What every node of a multi-sink run tracks about the sink set.
pub(super) struct Federation {
    /// The sorted sink set, shared by every node of the run.
    pub(super) sinks: Arc<[NodeId]>,
    /// One chunk assembler per sink rank, because each sink versions its own
    /// chunk stream and a single assembler would let the streams preempt
    /// each other.
    rank_assemblers: Vec<ChunkAssembler<IndexEntry>>,
    /// The newest complete index per sink rank. Owner lookups scan these
    /// newest-first; `current_index` mirrors the newest overall so the
    /// routing rules keep working unchanged.
    pub(super) sink_indices: Vec<Option<Arc<StorageIndex>>>,
    /// Sink-liveness beacons already gossiped, keyed by (sink, epoch).
    pub(super) seen_alive: HashSet<(u16, u64)>,
}

impl Federation {
    pub(super) fn new(sinks: &Arc<[NodeId]>) -> Self {
        Federation {
            sinks: Arc::clone(sinks),
            rank_assemblers: sinks.iter().map(|_| ChunkAssembler::new()).collect(),
            sink_indices: vec![None; sinks.len()],
            seen_alive: HashSet::new(),
        }
    }

    /// The newest per-rank index (by creation time, then id): what
    /// `current_index` mirrors, so the unchanged routing rules keep
    /// re-addressing in-flight data against the freshest mapping.
    pub(super) fn newest_index(&self) -> Option<Arc<StorageIndex>> {
        self.sink_indices
            .iter()
            .flatten()
            .max_by_key(|i| (i.created_at(), i.id()))
            .cloned()
    }

    /// Resolves the owner of a freshly sampled value on node `me`: each
    /// sink's index covers only its owned slice of the domain, so the lookup
    /// scans the per-rank indices newest-first and the first hit wins.
    pub(super) fn lookup_owner(&self, me: NodeId, value: Value) -> (NodeId, StorageIndexId) {
        let mut held: Vec<&Arc<StorageIndex>> = self.sink_indices.iter().flatten().collect();
        held.sort_by_key(|i| (i.created_at(), i.id()));
        for idx in held.iter().rev() {
            if let Some(owner) = idx.lookup(value) {
                return (owner, idx.id());
            }
        }
        let newest = held.last().map(|i| i.id()).unwrap_or(StorageIndexId::NONE);
        (me, newest)
    }
}

/// Which live sink rank owns value `v`: the existing hash, reduced over the
/// live ranks in ascending order. Every value always has exactly one owner,
/// and a dead sink's share redistributes deterministically over the
/// survivors.
fn owning_rank(v: Value, live: &[usize]) -> usize {
    live[(scoop_core::baselines::splitmix(v as u64) % live.len() as u64) as usize]
}

/// Restricts `index` to the maximal runs of consecutive values that `rank`
/// owns under the live-rank hash partition, preserving each run's owner.
/// Empty when the peers own everything this index covers.
pub(super) fn filter_entries_to_rank(
    index: &StorageIndex,
    rank: usize,
    live: &[usize],
) -> Vec<IndexEntry> {
    let mut owned: Vec<IndexEntry> = Vec::new();
    for entry in index.entries() {
        let mut v = entry.range.lo;
        loop {
            if owning_rank(v, live) == rank {
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
    owned
}

impl SimNode {
    /// The next hop for a reply to `query_id`: up the tree classically. In
    /// the federation, towards the sink that issued the query — a promoted
    /// sink is rarely an ancestor of the replier. Query ids are issued with
    /// stride `nsinks` starting at `1 + rank`, so the rank is recoverable
    /// from the id alone and repliers need no extra routing state.
    pub(super) fn reply_hop(&self, query_id: u32) -> Option<NodeId> {
        let Some(fed) = &self.federation else {
            return self.routing.parent();
        };
        let sink = fed.sinks[(query_id.wrapping_sub(1) as usize) % fed.sinks.len()];
        match self
            .routing
            .next_hop_for(sink, self.shared.cfg.policy.scoop.neighbor_shortcut)
        {
            NextHop::Neighbor(h) | NextHop::DownTree(h) | NextHop::UpTree(h) => Some(h),
            NextHop::Local | NextHop::Stuck => None,
        }
    }

    /// Multi-sink half of mapping-chunk handling: everyone (sinks included)
    /// assembles everyone's chunk stream, per issuing rank. A sink recording
    /// a peer's assembled index into its planner is the index-summary
    /// exchange that lets any sink plan queries over the whole domain, not
    /// just its owned slice.
    pub(super) fn assemble_rank_chunk(&mut self, mc: &MappingChunk, now: SimTime) {
        let Some(fed) = self.federation.as_mut() else {
            return;
        };
        let rank = (mc.chunk.version % RANK_STRIDE as u64) as usize;
        if rank >= fed.rank_assemblers.len() {
            return;
        }
        // A mapping chunk proves its issuing sink was alive recently; it
        // counts as liveness evidence alongside the SinkAlive beacons.
        if let Some(m) = self.sink.as_mut().and_then(|b| b.multi.as_mut()) {
            m.heard(rank, now);
        }
        let newest_for_rank = fed.sink_indices[rank]
            .as_ref()
            .map(|i| i.id())
            .unwrap_or(StorageIndexId::NONE);
        if mc.index_id() <= newest_for_rank {
            return;
        }
        if let Some(entries) = fed.rank_assemblers[rank].accept(&mc.chunk) {
            let index =
                StorageIndex::from_entries(mc.index_id(), mc.domain, entries, mc.created_at);
            if let Some(base) = self.sink.as_mut() {
                base.planner.record_index(index.clone());
            }
            fed.sink_indices[rank] = Some(Arc::new(index));
            self.current_index = fed.newest_index();
        }
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
        let Some(fed) = self.federation.as_mut() else {
            return;
        };
        if !fed.seen_alive.insert((alive.sink.0, alive.epoch)) {
            return;
        }
        if let Some(rank) = fed.sinks.iter().position(|s| *s == alive.sink) {
            if let Some(m) = self.sink.as_mut().and_then(|b| b.multi.as_mut()) {
                m.heard(rank, ctx.now());
            }
        }
        self.enqueue_gossip(ctx, Arc::clone(payload), MessageKind::Heartbeat);
    }
}
