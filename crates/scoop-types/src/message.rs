//! Classification of radio messages and per-kind transmission accounting.
//!
//! The paper's cost metric is "the total number of messages the nodes
//! collectively send" (Section 6), broken down in Figure 3 into data,
//! summary, mapping, and query/reply messages. Tree-maintenance heartbeats
//! are sent during the 10-minute stabilization prefix in every policy and are
//! tracked separately so they can be excluded from the comparison, exactly as
//! the paper does.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign};

/// The kind of an application-level message, used for cost accounting.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum MessageKind {
    /// A sensor reading (or batch of readings) being routed to its owner
    /// node, or to the basestation under the BASE policy.
    Data,
    /// A periodic statistics summary (histogram + topology info) sent up the
    /// routing tree to the basestation. Scoop only.
    Summary,
    /// A chunk of a storage index disseminated by the basestation. Scoop only.
    Mapping,
    /// A query disseminated from the basestation.
    Query,
    /// A query reply routed back to the basestation.
    Reply,
    /// A partial aggregate travelling up the aggregation tree (aggregate
    /// workloads only). Counted with query/reply in the cost breakdown.
    Aggregate,
    /// Routing-tree maintenance traffic (tree-join beacons / heartbeats).
    /// Present in every policy; excluded from the paper's cost breakdown.
    Heartbeat,
}

impl MessageKind {
    /// All message kinds, in the order used by reports.
    pub const ALL: [MessageKind; 7] = [
        MessageKind::Data,
        MessageKind::Summary,
        MessageKind::Mapping,
        MessageKind::Query,
        MessageKind::Reply,
        MessageKind::Aggregate,
        MessageKind::Heartbeat,
    ];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            MessageKind::Data => "data",
            MessageKind::Summary => "summary",
            MessageKind::Mapping => "mapping",
            MessageKind::Query => "query",
            MessageKind::Reply => "reply",
            MessageKind::Aggregate => "aggregate",
            MessageKind::Heartbeat => "heartbeat",
        }
    }
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-kind transmission counters.
///
/// One `MessageStats` is kept per node by the simulator and summed across the
/// network to produce the paper's figures.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug, Serialize, Deserialize)]
pub struct MessageStats {
    /// Data messages sent.
    pub data: u64,
    /// Summary messages sent.
    pub summary: u64,
    /// Mapping messages sent.
    pub mapping: u64,
    /// Query messages sent.
    pub query: u64,
    /// Reply messages sent.
    pub reply: u64,
    /// Partial-aggregate messages sent (aggregate workloads only; zero — and
    /// absent from the serialized form — everywhere else, so pre-aggregate
    /// artifacts keep their byte-identical shape).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub aggregate: u64,
    /// Heartbeat / tree-maintenance messages sent.
    pub heartbeat: u64,
}

fn is_zero(n: &u64) -> bool {
    *n == 0
}

impl MessageStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one transmission of the given kind.
    pub fn record(&mut self, kind: MessageKind) {
        self.record_n(kind, 1);
    }

    /// Records `n` transmissions of the given kind.
    pub fn record_n(&mut self, kind: MessageKind, n: u64) {
        *self.slot_mut(kind) += n;
    }

    /// The counter for a given kind.
    pub fn get(&self, kind: MessageKind) -> u64 {
        match kind {
            MessageKind::Data => self.data,
            MessageKind::Summary => self.summary,
            MessageKind::Mapping => self.mapping,
            MessageKind::Query => self.query,
            MessageKind::Reply => self.reply,
            MessageKind::Aggregate => self.aggregate,
            MessageKind::Heartbeat => self.heartbeat,
        }
    }

    fn slot_mut(&mut self, kind: MessageKind) -> &mut u64 {
        match kind {
            MessageKind::Data => &mut self.data,
            MessageKind::Summary => &mut self.summary,
            MessageKind::Mapping => &mut self.mapping,
            MessageKind::Query => &mut self.query,
            MessageKind::Reply => &mut self.reply,
            MessageKind::Aggregate => &mut self.aggregate,
            MessageKind::Heartbeat => &mut self.heartbeat,
        }
    }

    /// Total transmissions that count towards the paper's cost metric
    /// (everything except heartbeats).
    pub fn cost(&self) -> u64 {
        self.data + self.summary + self.mapping + self.query + self.reply + self.aggregate
    }

    /// Query plus reply messages (including partial aggregates), reported as
    /// a single series in Figure 3.
    pub fn query_reply(&self) -> u64 {
        self.query + self.reply + self.aggregate
    }

    /// Total transmissions of every kind, including heartbeats.
    pub fn total(&self) -> u64 {
        self.cost() + self.heartbeat
    }
}

impl Add for MessageStats {
    type Output = MessageStats;
    fn add(self, rhs: MessageStats) -> MessageStats {
        MessageStats {
            data: self.data + rhs.data,
            summary: self.summary + rhs.summary,
            mapping: self.mapping + rhs.mapping,
            query: self.query + rhs.query,
            reply: self.reply + rhs.reply,
            aggregate: self.aggregate + rhs.aggregate,
            heartbeat: self.heartbeat + rhs.heartbeat,
        }
    }
}

impl AddAssign for MessageStats {
    fn add_assign(&mut self, rhs: MessageStats) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for MessageStats {
    fn sum<I: Iterator<Item = MessageStats>>(iter: I) -> MessageStats {
        iter.fold(MessageStats::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_count_with_query_reply_and_hide_when_zero() {
        let mut s = MessageStats::new();
        s.record(MessageKind::Query);
        s.record_n(MessageKind::Aggregate, 3);
        assert_eq!(s.get(MessageKind::Aggregate), 3);
        assert_eq!(s.query_reply(), 4);
        assert_eq!(s.cost(), 4);
        // Zero aggregates serialize to the pre-aggregate shape.
        let legacy = serde_json::to_string(&MessageStats::new()).unwrap();
        assert!(!legacy.contains("aggregate"), "{legacy}");
        let with = serde_json::to_string(&s).unwrap();
        assert!(with.contains("\"aggregate\":3"), "{with}");
        let back: MessageStats = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, MessageStats::new());
    }

    #[test]
    fn record_and_totals() {
        let mut s = MessageStats::new();
        s.record(MessageKind::Data);
        s.record_n(MessageKind::Data, 2);
        s.record(MessageKind::Query);
        s.record(MessageKind::Reply);
        s.record_n(MessageKind::Heartbeat, 10);
        assert_eq!(s.get(MessageKind::Data), 3);
        assert_eq!(s.query_reply(), 2);
        assert_eq!(s.cost(), 5);
        assert_eq!(s.total(), 15);
    }

    #[test]
    fn addition_and_sum() {
        let mut a = MessageStats::new();
        a.record_n(MessageKind::Summary, 4);
        let mut b = MessageStats::new();
        b.record_n(MessageKind::Summary, 6);
        b.record(MessageKind::Mapping);
        let c = a + b;
        assert_eq!(c.summary, 10);
        assert_eq!(c.mapping, 1);
        let total: MessageStats = vec![a, b].into_iter().sum();
        assert_eq!(total, c);
        a += b;
        assert_eq!(a, c);
    }

    #[test]
    fn kind_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            MessageKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), MessageKind::ALL.len());
    }
}
