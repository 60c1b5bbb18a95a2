//! Application-level wire messages.
//!
//! The network simulator ([`scoop_net`]) is generic over its payload type;
//! the simulation harness instantiates it with [`ScoopPayload`], which covers
//! every message the Scoop, LOCAL, BASE, and HASH policies exchange.

use crate::index::StorageIndex;
use crate::summary::SummaryMessage;
use scoop_routing::Beacon;
use scoop_types::{
    AggregateSpec, NodeBitmap, NodeId, PartialAggregate, Reading, SimTime, StorageIndexId,
    ValueRange,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A data message carrying one or more readings towards their owner.
///
/// "a data message contains three fields: the data item itself (v), an owner
/// node (o), and a storage index ID (sid), all three of which are initialized
/// by v's producer ... However, o and sid may be overwritten by nodes with a
/// newer storage index." (Section 5.4). Readings destined for the same owner
/// may be batched, up to 5 per packet by default.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DataMessage {
    /// The readings being shipped (all map to the same owner under `sid`).
    pub readings: Vec<Reading>,
    /// The owner the producer (or a rerouting intermediate) selected.
    pub owner: NodeId,
    /// The storage index that determined `owner`.
    pub sid: StorageIndexId,
}

impl DataMessage {
    /// The value used for (re-)routing decisions: the first reading's value.
    /// Batches only ever contain readings that mapped to the same owner.
    pub fn routing_value(&self) -> Option<scoop_types::Value> {
        self.readings.first().map(|r| r.value)
    }
}

/// One mapping message: chunk `chunk` of the `total` that a storage index is
/// split into (Section 5.3), standing for the index's entries
/// `chunk * p .. (chunk + 1) * p`, where `p` is the run's
/// `mapping_entries_per_packet`.
///
/// The chunk is a window onto the issuing sink's index: every chunk of a
/// version, and every node that completes it, shares that one allocation. A
/// node completes a version by counting the chunks it hears, then installs
/// the index itself; no entry is copied.
#[derive(Clone, Debug, PartialEq)]
pub struct MappingChunk {
    /// The whole index this chunk is a window onto.
    pub index: Arc<StorageIndex>,
    /// This chunk's position, `0..total`.
    pub chunk: u32,
    /// How many chunks the index is split into: at least 1, even for an
    /// index without entries, so that every version is disseminated.
    pub total: u32,
}

impl MappingChunk {
    /// The storage index id this chunk belongs to.
    pub fn index_id(&self) -> StorageIndexId {
        self.index.id()
    }
}

/// A query disseminated from the basestation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryMessage {
    /// Monotonically increasing query identifier.
    pub query_id: u32,
    /// Value range of interest.
    pub values: ValueRange,
    /// Earliest sample timestamp of interest.
    pub time_lo: SimTime,
    /// Latest sample timestamp of interest.
    pub time_hi: SimTime,
    /// Which nodes must answer (one bit per node, Section 5.5).
    pub targets: NodeBitmap,
    /// Aggregate workloads only: the operator and error budget repliers must
    /// apply. `None` — the seed point/range behavior — serializes to the
    /// legacy shape, keeping committed artifacts byte-identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub aggregate: Option<AggregateSpec>,
}

/// A reply from one queried node back to the basestation. Sent even when no
/// tuples matched, exactly as in the paper.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplyMessage {
    /// The query being answered.
    pub query_id: u32,
    /// The answering node.
    pub node: NodeId,
    /// The matching readings found in the node's data buffer. Empty for
    /// aggregate replies, which carry `aggregate` instead.
    pub readings: Vec<Reading>,
    /// Aggregate workloads only: the partial aggregate this subtree
    /// contributes (merged hop-by-hop under the LOCAL tree-aggregation path,
    /// forwarded verbatim under value routing).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub aggregate: Option<PartialAggregate>,
}

/// Multi-sink federation only: a sink's epoch-stamped liveness beacon,
/// gossiped network-wide so surviving sinks can detect a dead peer and take
/// over its attribute range after the failover timeout. Carried as
/// [`MessageKind::Heartbeat`](scoop_types::MessageKind::Heartbeat), so — like
/// routing beacons — it never counts against the paper's message metrics.
/// Never sent in the classic single-sink mode.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SinkAliveMessage {
    /// The beaconing sink.
    pub sink: NodeId,
    /// Strictly increasing per sink; a restarted sink resumes from its
    /// pre-crash epoch, so fresh beacons always win gossip dedup.
    pub epoch: u64,
}

/// Every application payload exchanged in a simulation run.
#[derive(Clone, Debug, PartialEq)]
pub enum ScoopPayload {
    /// Routing-tree heartbeat / tree-join beacon.
    Beacon(Beacon),
    /// Periodic per-node statistics report.
    Summary(SummaryMessage),
    /// A chunk of a storage index.
    Mapping(MappingChunk),
    /// Sensor readings being routed to their owner.
    Data(DataMessage),
    /// A query being disseminated.
    Query(QueryMessage),
    /// A query reply being routed back to the basestation.
    Reply(ReplyMessage),
    /// A sink's liveness beacon (see [`SinkAliveMessage`]).
    SinkAlive(SinkAliveMessage),
}

impl ScoopPayload {
    /// A short name for logging and debugging.
    pub fn name(&self) -> &'static str {
        match self {
            ScoopPayload::Beacon(_) => "beacon",
            ScoopPayload::Summary(_) => "summary",
            ScoopPayload::Mapping(_) => "mapping",
            ScoopPayload::Data(_) => "data",
            ScoopPayload::Query(_) => "query",
            ScoopPayload::Reply(_) => "reply",
            ScoopPayload::SinkAlive { .. } => "sink-alive",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::{Attribute, Value};

    fn reading(v: Value) -> Reading {
        Reading::new(NodeId(3), Attribute::Light, v, SimTime::from_secs(1))
    }

    #[test]
    fn data_message_routing_value() {
        let msg = DataMessage {
            readings: vec![reading(7), reading(7)],
            owner: NodeId(2),
            sid: StorageIndexId(1),
        };
        assert_eq!(msg.routing_value(), Some(7));
        let empty = DataMessage {
            readings: vec![],
            owner: NodeId(2),
            sid: StorageIndexId(1),
        };
        assert_eq!(empty.routing_value(), None);
    }

    #[test]
    fn mapping_chunk_index_id() {
        let index = StorageIndex::from_entries(
            StorageIndexId(9),
            ValueRange::new(0, 99),
            vec![],
            SimTime::from_secs(240),
        );
        let mc = MappingChunk {
            index: Arc::new(index),
            chunk: 0,
            total: 1,
        };
        assert_eq!(mc.index_id(), StorageIndexId(9));
    }

    #[test]
    fn payload_names_are_distinct() {
        let payloads = [
            ScoopPayload::Data(DataMessage {
                readings: vec![],
                owner: NodeId(0),
                sid: StorageIndexId(0),
            }),
            ScoopPayload::Reply(ReplyMessage {
                query_id: 0,
                node: NodeId(1),
                readings: vec![],
                aggregate: None,
            }),
            ScoopPayload::Query(QueryMessage {
                query_id: 0,
                values: ValueRange::new(0, 1),
                time_lo: SimTime::ZERO,
                time_hi: SimTime::ZERO,
                targets: NodeBitmap::empty(),
                aggregate: None,
            }),
        ];
        let names: std::collections::HashSet<_> = payloads.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), payloads.len());
    }
}
