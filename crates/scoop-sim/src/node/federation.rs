//! The multi-sink federation role: sink-liveness gossip and routing towards
//! the sink that issued a query. Every node of a multi-sink run carries a
//! [`Federation`]; classic single-sink runs have none. Each sink's chunk
//! stream is assembled by the dissemination module, like the one sink's.

use super::{SharedPayload, SimNode};
use scoop_core::index::IndexEntry;
use scoop_core::{SinkAliveMessage, StorageIndex};
use scoop_net::NodeCtx;
use scoop_routing::NextHop;
use scoop_types::{MessageKind, NodeId, Value, ValueRange};
use std::collections::HashSet;
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

/// What every node of a multi-sink run remembers of the sinks' liveness.
#[derive(Default)]
pub(super) struct Federation {
    /// Sink-liveness beacons already gossiped, keyed by (sink, epoch).
    pub(super) seen_alive: HashSet<(u16, u64)>,
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
        if let Some(rank) = self.shared.sink_set.iter().position(|s| *s == alive.sink) {
            if let Some(m) = self.sink.as_mut().and_then(|b| b.multi.as_mut()) {
                m.heard(rank, ctx.now());
            }
        }
        self.enqueue_gossip(ctx, Arc::clone(payload), MessageKind::Heartbeat);
    }
}
