//! The SCOOP role: what a node needs to report summaries and to assemble
//! disseminated storage indices. Nodes of LOCAL / HASH / BASE runs carry no
//! [`ScoopSensor`] — their index, if any, is static and nobody reads a
//! histogram of their readings.

use super::id_set::SparseIdSet;
use super::{SharedPayload, SimNode};
use scoop_core::histogram::SummaryHistogram;
use scoop_core::index::IndexEntry;
use scoop_core::summary::ReportedNeighbor;
use scoop_core::{MappingChunk, ScoopPayload, StorageIndex, SummaryMessage};
use scoop_net::NodeCtx;
use scoop_storage::RecentReadings;
use scoop_trickle::{Chunk, ChunkAssembler};
use scoop_types::{ExperimentConfig, MessageKind, SimTime, StorageIndexId, ValueRange};
use std::sync::Arc;

/// Per-node state of the SCOOP policy.
pub(super) struct ScoopSensor {
    /// The values of the node's own latest readings, the input of its
    /// summary histogram.
    pub(super) recent: RecentReadings,
    assembler: ChunkAssembler<IndexEntry>,
    assembling_meta: Option<(ValueRange, SimTime)>,
    /// Mapping chunks already gossiped, keyed by [`chunk_key`].
    pub(super) seen_chunks: SparseIdSet,
}

impl ScoopSensor {
    pub(super) fn new(cfg: &ExperimentConfig) -> Self {
        ScoopSensor {
            recent: RecentReadings::new(cfg.policy.scoop.recent_readings),
            assembler: ChunkAssembler::new(),
            assembling_meta: None,
            seen_chunks: SparseIdSet::default(),
        }
    }
}

/// A mapping chunk's identity as one id: `version << 32 | index`. Exact,
/// because a chunk's version is a `StorageIndexId` (a `u32`) widened.
pub(super) fn chunk_key(chunk: &Chunk<IndexEntry>) -> u64 {
    chunk.version << 32 | u64::from(chunk.index)
}

impl SimNode {
    pub(super) fn send_summary(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        let (Some(parent), Some(scoop)) = (self.routing.parent(), self.scoop.as_ref()) else {
            return;
        };
        let recent = &scoop.recent;
        let summary = SummaryMessage {
            node: self.id,
            histogram: SummaryHistogram::build(recent.values(), self.cfg.policy.scoop.n_bins),
            min: recent.min_value(),
            max: recent.max_value(),
            sum: recent.sum(),
            count: recent.len() as u32,
            data_rate_hz: 1.0 / self.cfg.workload.sample_interval.as_secs_f64().max(0.001),
            neighbors: self
                .routing
                .summary_neighbors()
                .into_iter()
                .map(|e| ReportedNeighbor {
                    node: e.node,
                    quality: e.quality,
                })
                .collect(),
            parent: Some(parent),
            newest_complete_index: self.newest_index_id(),
            generated_at: ctx.now(),
        };
        ctx.send_unicast(
            parent,
            MessageKind::Summary,
            Some(parent),
            Arc::new(ScoopPayload::Summary(summary)),
        );
    }

    pub(super) fn handle_mapping(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        mc: &MappingChunk,
        payload: &SharedPayload,
    ) {
        // The classic sink built the index itself; only in the federation do
        // sinks assemble (their peers') chunk streams too.
        let is_classic_sink = self.sink.is_some() && self.federation.is_none();
        let Some(scoop) = self.scoop.as_mut().filter(|_| !is_classic_sink) else {
            return;
        };
        if !scoop.seen_chunks.insert(chunk_key(&mc.chunk)) {
            return;
        }
        // Gossip the chunk onward (once, with suppression), reusing the
        // arrival's shared allocation.
        self.enqueue_gossip(ctx, Arc::clone(payload), MessageKind::Mapping);
        if self.federation.is_some() {
            return self.assemble_rank_chunk(mc, ctx.now());
        }

        // Only feed the assembler chunks newer than what we already hold.
        let version = StorageIndexId(mc.chunk.version as u32);
        if version <= self.newest_index_id() {
            return;
        }
        let Some(scoop) = self.scoop.as_mut() else {
            return;
        };
        scoop.assembling_meta = Some((mc.domain, mc.created_at));
        if let Some(entries) = scoop.assembler.accept(&mc.chunk) {
            let (domain, created_at) = scoop
                .assembling_meta
                .take()
                .unwrap_or((mc.domain, mc.created_at));
            let index = StorageIndex::from_entries(version, domain, entries, created_at);
            self.current_index = Some(Arc::new(index));
        }
    }
}
