//! The SCOOP role: what a node needs to report summaries, to batch readings
//! for their owners, and to assemble disseminated storage indices. Nodes of
//! LOCAL / HASH / BASE runs carry no [`ScoopSensor`] — their index, if any,
//! is static, they ship each reading on its own, and nobody reads a
//! histogram of their readings.

use super::id_set::SparseIdSet;
use super::{SharedPayload, SimNode};
use crate::RecentReadings;
use scoop_core::histogram::SummaryHistogram;
use scoop_core::index::IndexEntry;
use scoop_core::summary::ReportedNeighbor;
use scoop_core::{DataMessage, MappingChunk, ScoopPayload, StorageIndex, SummaryMessage};
use scoop_net::NodeCtx;
use scoop_trickle::{Chunk, ChunkAssembler};
use scoop_types::{MessageKind, NodeId, Reading, ScenarioSpec, StorageIndexId};
use std::sync::Arc;

/// Per-node state of the SCOOP policy.
pub(super) struct ScoopSensor {
    /// The values of the node's own latest readings, the input of its
    /// summary histogram.
    pub(super) recent: RecentReadings,
    assembler: ChunkAssembler<IndexEntry>,
    /// Mapping chunks already gossiped, keyed by [`chunk_key`].
    pub(super) seen_chunks: SparseIdSet,
    /// Readings batched for one owner, waiting to be sent (Section 5.4).
    batch: Vec<Reading>,
    /// The owner, and the index that named it, of every batched reading.
    batch_dest: Option<(NodeId, StorageIndexId)>,
}

impl ScoopSensor {
    pub(super) fn new(cfg: &ScenarioSpec) -> Self {
        ScoopSensor {
            recent: RecentReadings::new(cfg.policy.scoop.recent_readings),
            assembler: ChunkAssembler::new(),
            seen_chunks: SparseIdSet::default(),
            batch: Vec::new(),
            batch_dest: None,
        }
    }

    /// Readings batched and not yet sent.
    pub(super) fn batched(&self) -> usize {
        self.batch.len()
    }

    /// Adds `reading`, bound for `dest`, to the batch and returns the
    /// messages now due, oldest first: the batch for another destination it
    /// displaces, then this batch once it holds `batch_size` readings.
    pub(super) fn batch_reading(
        &mut self,
        reading: Reading,
        dest: (NodeId, StorageIndexId),
        batch_size: usize,
    ) -> impl Iterator<Item = DataMessage> {
        let displaced = if self.batch_dest == Some(dest) {
            None
        } else {
            self.take_batch()
        };
        self.batch_dest = Some(dest);
        self.batch.push(reading);
        let full = if self.batch.len() >= batch_size {
            self.take_batch()
        } else {
            None
        };
        displaced.into_iter().chain(full)
    }

    fn take_batch(&mut self) -> Option<DataMessage> {
        let (owner, sid) = self.batch_dest.take()?;
        Some(DataMessage {
            readings: std::mem::take(&mut self.batch),
            owner,
            sid,
        })
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
        let (cfg, recent) = (&self.shared.cfg, &scoop.recent);
        let summary = SummaryMessage {
            node: self.id,
            histogram: SummaryHistogram::build(recent.values(), cfg.policy.scoop.n_bins),
            min: recent.min_value(),
            max: recent.max_value(),
            sum: recent.sum(),
            count: recent.len() as u32,
            data_rate_hz: 1.0 / cfg.workload.sample_interval.as_secs_f64().max(0.001),
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
        // Flood the chunk onward (once, after a random delay), reusing the
        // arrival's shared allocation.
        self.enqueue_gossip(ctx, Arc::clone(payload), MessageKind::Mapping);
        if self.federation.is_some() {
            return self.assemble_rank_chunk(mc, ctx.now());
        }

        // Only feed the assembler chunks newer than what we already hold.
        let version = mc.index_id();
        if version <= self.newest_index_id() {
            return;
        }
        let Some(scoop) = self.scoop.as_mut() else {
            return;
        };
        if let Some(entries) = scoop.assembler.accept(&mc.chunk) {
            let index = StorageIndex::from_entries(version, mc.domain, entries, mc.created_at);
            self.current_index = Some(Arc::new(index));
        }
    }
}
