//! Summary messages.
//!
//! "A summary message contains a coarse histogram over recent data, some
//! network topology information, as well as the lowest, highest, and sum of
//! all values over recent data, as well as the ID of the last complete
//! storage index it has received from the basestation." (Section 5.2)

use crate::histogram::SummaryHistogram;
use scoop_types::{NodeId, SimTime, StorageIndexId, Value};
use serde::{Deserialize, Serialize};

/// One neighbor as reported in a summary's topology section.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReportedNeighbor {
    /// The neighbor's id.
    pub node: NodeId,
    /// The reporting node's estimate of how well it hears this neighbor
    /// (delivery probability in `[0, 1]`).
    pub quality: f64,
}

/// The periodic per-node statistics report sent up the tree to the
/// basestation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SummaryMessage {
    /// The reporting node.
    pub node: NodeId,
    /// Histogram over the node's recent-readings buffer (absent if the node
    /// has not sampled anything yet).
    pub histogram: Option<SummaryHistogram>,
    /// Smallest recent value.
    pub min: Option<Value>,
    /// Largest recent value.
    pub max: Option<Value>,
    /// Sum of recent values (lets the basestation answer aggregate queries
    /// without touching the network).
    pub sum: i64,
    /// Number of readings in the recent window.
    pub count: u32,
    /// The node's current data production rate in readings per second.
    pub data_rate_hz: f64,
    /// The node's best-connected neighbors (at most 12), sorted by quality.
    pub neighbors: Vec<ReportedNeighbor>,
    /// The node's current routing-tree parent.
    pub parent: Option<NodeId>,
    /// The newest complete storage index the node holds.
    pub newest_complete_index: StorageIndexId,
    /// When the summary was generated at the node.
    pub generated_at: SimTime,
}

impl SummaryMessage {
    /// The paper's `P(p → v)` for this node, i.e. the probability the node's
    /// next reading equals `v`. Zero when the node has no histogram.
    pub fn probability_of(&self, v: Value) -> f64 {
        self.histogram
            .as_ref()
            .map(|h| h.probability_of(v))
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(values: &[Value]) -> SummaryMessage {
        let histogram = SummaryHistogram::build(values, 10);
        SummaryMessage {
            node: NodeId(4),
            histogram,
            min: values.iter().min().copied(),
            max: values.iter().max().copied(),
            sum: values.iter().map(|&v| v as i64).sum(),
            count: values.len() as u32,
            data_rate_hz: 1.0 / 15.0,
            neighbors: vec![ReportedNeighbor {
                node: NodeId(2),
                quality: 0.8,
            }],
            parent: Some(NodeId(2)),
            newest_complete_index: StorageIndexId(3),
            generated_at: SimTime::from_secs(100),
        }
    }

    #[test]
    fn probability_passthrough() {
        let s = summary(&[10, 10, 10, 20]);
        assert!(s.probability_of(10) > s.probability_of(20));
        assert_eq!(s.probability_of(99), 0.0);
    }

    #[test]
    fn empty_summary_has_no_data() {
        let s = summary(&[]);
        assert_eq!(s.probability_of(5), 0.0);
        assert_eq!(s.min, None);
        assert_eq!(s.count, 0);
    }

    #[test]
    fn serde_roundtrip() {
        let s = summary(&[1, 2, 3, 4, 5]);
        let json = serde_json::to_string(&s).unwrap();
        let back: SummaryMessage = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
