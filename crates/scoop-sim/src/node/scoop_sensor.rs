//! The SCOOP role: what a node needs to report summaries, to batch readings
//! for their owners, and to follow index dissemination. Nodes of LOCAL /
//! HASH / BASE runs carry no [`ScoopSensor`] — their index, if any, is
//! static, they ship each reading on its own, and nobody reads a histogram
//! of their readings.

use super::dissemination::Dissemination;
use super::{SharedPayload, SimNode};
use crate::RecentReadings;
use scoop_core::histogram::SummaryHistogram;
use scoop_core::summary::ReportedNeighbor;
use scoop_core::{DataMessage, ScoopPayload, SummaryMessage};
use scoop_net::NodeCtx;
use scoop_types::{MessageKind, NodeId, Reading, ScenarioSpec, StorageIndexId};
use std::sync::Arc;

/// Per-node state of the SCOOP policy.
pub(super) struct ScoopSensor {
    /// The values of the node's own latest readings, the input of its
    /// summary histogram.
    pub(super) recent: RecentReadings,
    /// The chunk streams of every sink and the indices they completed.
    pub(super) dissemination: Dissemination,
    /// Readings batched for one owner, waiting to be sent (Section 5.4).
    batch: Vec<Reading>,
    /// The owner, and the index that named it, of every batched reading.
    batch_dest: Option<(NodeId, StorageIndexId)>,
}

impl ScoopSensor {
    pub(super) fn new(cfg: &ScenarioSpec) -> Self {
        ScoopSensor {
            recent: RecentReadings::new(cfg.policy.scoop.recent_readings),
            dissemination: Dissemination::default(),
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
}
