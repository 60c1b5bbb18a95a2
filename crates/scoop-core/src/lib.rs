//! Scoop's adaptive storage index: statistics, cost model, index
//! construction, data routing rules, query planning, and the baseline
//! policies it is compared against.
//!
//! The crate follows the structure of Sections 4 and 5 of the paper:
//!
//! * [`histogram`] / [`summary`] — the per-node statistics (equal-width
//!   histograms over the recent-readings buffer, min/max/sum, topology info)
//!   that nodes periodically ship to the basestation.
//! * [`stats_store`] — the basestation's view: the last summary from every
//!   node, the reconstructed link graph and routing tree, query statistics,
//!   and from them the `xmits(x → y)` and probability estimates the indexing
//!   algorithm needs.
//! * [`cost`] / [`index`] — the `O(V · n²)` index-selection algorithm of
//!   Figure 2, the store-local fallback comparison, and the compact
//!   range-coalesced representation that gets disseminated.
//! * [`routing_rules`] — the six data-routing rules of Section 5.4.
//! * [`query_plan`] — the basestation's query planner over (possibly many
//!   generations of) storage indices, including the answer-from-summaries
//!   shortcut (Section 5.5).
//! * [`baselines`] — the BASE / LOCAL / HASH comparison policies, both as
//!   analytical cost models (as the paper evaluates HASH) and as inputs for
//!   full simulation.
//! * [`messages`] — the wire-format structs carried by the network simulator.

#![warn(missing_docs)]

pub mod baselines;
pub mod cost;
pub mod histogram;
pub mod index;
pub mod messages;
pub mod query_plan;
pub mod routing_rules;
pub mod stats_store;
pub mod summary;

pub use cost::{CostModel, CostParams};
pub use histogram::SummaryHistogram;
pub use index::{IndexBuilder, IndexEntry, StorageIndex};
pub use messages::{
    DataMessage, MappingChunk, QueryMessage, ReplyMessage, ScoopPayload, SinkAliveMessage,
};
pub use query_plan::{QueryPlan, QueryPlanner};
pub use routing_rules::{route_data, DataRoutingAction, LocalNodeView};
pub use stats_store::StatsStore;
pub use summary::SummaryMessage;
