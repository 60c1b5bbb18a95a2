//! Per-run metrics.
//!
//! The paper's headline metric is the total number of messages sent, broken
//! down by kind (Figure 3). The prose experiments additionally report the
//! data-storage success rate (~93 %), the query success rate (~78 %), the
//! fraction of readings that reach their designated owner (~85 %, the rest
//! falling back to the root), and the transmission/reception skew of the root
//! node.

use scoop_types::{MessageStats, NodeId, ScenarioSpec};
use serde::{Deserialize, Serialize};

/// Network-wide message counts by kind over the measured window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MessageBreakdown {
    /// Data messages sent.
    pub data: u64,
    /// Summary messages sent.
    pub summary: u64,
    /// Mapping messages sent.
    pub mapping: u64,
    /// Query plus reply messages sent (one series, as in Figure 3).
    pub query_reply: u64,
}

impl MessageBreakdown {
    /// Builds a breakdown from raw per-kind counters.
    pub fn from_stats(stats: &MessageStats) -> Self {
        MessageBreakdown {
            data: stats.data,
            summary: stats.summary,
            mapping: stats.mapping,
            query_reply: stats.query + stats.reply + stats.aggregate,
        }
    }

    /// Total messages counted by the paper's cost metric.
    pub fn total(&self) -> u64 {
        self.data + self.summary + self.mapping + self.query_reply
    }
}

/// Data-storage metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StorageMetrics {
    /// Readings sampled by sensors during the measured window.
    pub sampled: u64,
    /// Readings that ended up stored in some node's data buffer.
    pub stored: u64,
    /// Readings stored on the exact owner their data message designated.
    pub stored_at_owner: u64,
    /// Readings that could not reach their owner and fell back to the root
    /// (routing rule 4).
    pub stored_at_base_fallback: u64,
    /// Readings stored locally because the producing node had no complete
    /// index or no route.
    pub stored_local_default: u64,
}

impl StorageMetrics {
    /// Fraction of sampled readings that were successfully stored somewhere.
    pub fn storage_success(&self) -> f64 {
        if self.sampled == 0 {
            return 1.0;
        }
        self.stored as f64 / self.sampled as f64
    }

    /// Of the readings stored under an index, the fraction that reached the
    /// designated owner (the paper reports ~85 %, the rest landing on the
    /// root).
    pub fn destination_accuracy(&self) -> f64 {
        let routed = self.stored_at_owner + self.stored_at_base_fallback;
        if routed == 0 {
            return 1.0;
        }
        self.stored_at_owner as f64 / routed as f64
    }
}

/// Query metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryMetrics {
    /// Queries issued by the basestation during the measured window.
    pub issued: u64,
    /// Total nodes addressed across all queries.
    pub targets_total: u64,
    /// Replies that made it back to the basestation.
    pub replies_received: u64,
    /// Matching readings returned to the basestation.
    pub readings_returned: u64,
    /// Queries answered entirely from the basestation's local state (no
    /// network traffic at all).
    pub answered_locally: u64,
}

impl QueryMetrics {
    /// Fraction of expected replies that arrived (the paper reports ~78 %).
    pub fn query_success(&self) -> f64 {
        if self.targets_total == 0 {
            return 1.0;
        }
        (self.replies_received as f64 / self.targets_total as f64).min(1.0)
    }

    /// Average number of sensor nodes contacted per query.
    pub fn mean_targets_per_query(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.targets_total as f64 / self.issued as f64
    }
}

/// Transmission / reception counts of the root (basestation) versus the
/// average sensor node, used for the skew analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RootSkew {
    /// Messages transmitted by the root.
    pub root_tx: u64,
    /// Messages received (addressed) by the root.
    pub root_rx: u64,
    /// Mean messages transmitted per sensor node.
    pub mean_sensor_tx: f64,
    /// Mean messages received per sensor node.
    pub mean_sensor_rx: f64,
}

/// Everything measured in one simulation run.
///
/// `PartialEq` compares every counter bit for bit; the sweep runner's
/// determinism tests rely on this to prove parallel == sequential.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// The configuration that produced this result.
    pub config: ScenarioSpec,
    /// Network-wide message breakdown over the measured (post-warmup) window.
    pub messages: MessageBreakdown,
    /// Per-node total transmissions over the measured window (index = node id).
    pub per_node_tx: Vec<u64>,
    /// Per-node total receptions over the measured window (index = node id).
    pub per_node_rx: Vec<u64>,
    /// Storage metrics.
    pub storage: StorageMetrics,
    /// Query metrics.
    pub queries: QueryMetrics,
    /// Number of storage indices the basestation disseminated (Scoop only).
    pub indices_disseminated: u64,
    /// Number of remap rounds suppressed because the index barely changed.
    pub remaps_suppressed: u64,
    /// Total discrete events the engine dispatched over the whole run
    /// (including warmup) — the denominator of the `events/sec` throughput
    /// number recorded in every artifact's provenance. Deterministic
    /// per `(config, seed)`, like every other counter here.
    pub events_processed: u64,
}

impl RunResult {
    /// The paper's cost metric for this run.
    pub fn total_messages(&self) -> u64 {
        self.messages.total()
    }

    /// Root-skew summary.
    pub fn root_skew(&self) -> RootSkew {
        let root_tx = self.per_node_tx.first().copied().unwrap_or(0);
        let root_rx = self.per_node_rx.first().copied().unwrap_or(0);
        let sensors = self.per_node_tx.len().saturating_sub(1).max(1) as f64;
        RootSkew {
            root_tx,
            root_rx,
            mean_sensor_tx: self.per_node_tx.iter().skip(1).sum::<u64>() as f64 / sensors,
            mean_sensor_rx: self.per_node_rx.iter().skip(1).sum::<u64>() as f64 / sensors,
        }
    }

    /// Fraction of sensor nodes contacted by the average query.
    pub fn fraction_nodes_queried(&self) -> f64 {
        let sensors = self.config.num_nodes.max(1) as f64;
        self.queries.mean_targets_per_query() / sensors
    }

    /// The node that transmitted the most messages, and its count.
    pub fn busiest_node(&self) -> (NodeId, u64) {
        self.per_node_tx
            .iter()
            .enumerate()
            .max_by_key(|&(_, tx)| *tx)
            .map(|(i, &tx)| (NodeId(i as u16), tx))
            .unwrap_or((NodeId::BASESTATION, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::MessageKind;

    #[test]
    fn breakdown_from_stats_merges_query_and_reply() {
        let mut s = MessageStats::new();
        s.record_n(MessageKind::Data, 10);
        s.record_n(MessageKind::Query, 3);
        s.record_n(MessageKind::Reply, 4);
        s.record_n(MessageKind::Heartbeat, 100);
        let b = MessageBreakdown::from_stats(&s);
        assert_eq!(b.data, 10);
        assert_eq!(b.query_reply, 7);
        assert_eq!(b.total(), 17, "heartbeats never count");
    }

    #[test]
    fn storage_metrics_ratios() {
        let m = StorageMetrics {
            sampled: 100,
            stored: 93,
            stored_at_owner: 80,
            stored_at_base_fallback: 13,
            stored_local_default: 0,
        };
        assert!((m.storage_success() - 0.93).abs() < 1e-9);
        assert!((m.destination_accuracy() - 80.0 / 93.0).abs() < 1e-9);
        let empty = StorageMetrics::default();
        assert_eq!(empty.storage_success(), 1.0);
        assert_eq!(empty.destination_accuracy(), 1.0);
    }

    #[test]
    fn query_metrics_ratios() {
        let q = QueryMetrics {
            issued: 10,
            targets_total: 50,
            replies_received: 39,
            readings_returned: 200,
            answered_locally: 2,
        };
        assert!((q.query_success() - 0.78).abs() < 1e-9);
        assert!((q.mean_targets_per_query() - 5.0).abs() < 1e-9);
        assert_eq!(QueryMetrics::default().query_success(), 1.0);
    }

    #[test]
    fn run_result_root_skew_and_busiest() {
        let cfg = ScenarioSpec::small_test();
        let r = RunResult {
            config: cfg,
            messages: MessageBreakdown::default(),
            per_node_tx: vec![100, 10, 30],
            per_node_rx: vec![200, 5, 5],
            storage: StorageMetrics::default(),
            queries: QueryMetrics::default(),
            indices_disseminated: 0,
            remaps_suppressed: 0,
            events_processed: 0,
        };
        let skew = r.root_skew();
        assert_eq!(skew.root_tx, 100);
        assert_eq!(skew.root_rx, 200);
        assert!((skew.mean_sensor_tx - 20.0).abs() < 1e-9);
        assert_eq!(r.busiest_node().0, NodeId(0));
    }
}
