//! Tree routing, link estimation, and neighbor/descendant tracking.
//!
//! This crate is the Rust equivalent of the TinyOS multihop collection tree
//! the paper builds on (Woo et al. \[23\]): nodes organize into a spanning tree
//! rooted at the basestation by listening to periodic tree-join beacons and
//! picking as parent the neighbor offering the cheapest path (hop count plus
//! expected transmissions). In addition to the tree, every node maintains
//!
//! * a **neighbor list** (capacity 32, of which the 12 best-connected are
//!   reported in summaries) with per-neighbor link quality estimated by
//!   snooping the channel and counting gaps in the sequence numbers all
//!   nodes stamp on their outgoing packets, and
//! * a **descendants list** (capacity 32) of nodes whose packets it has
//!   forwarded up the tree, remembering which child branch each descendant
//!   lives under so data and queries can also be routed *down* the tree
//!   (routing rules 3 and 5 in Section 5.4).
//!
//! The types here are pure state machines: they make routing decisions but do
//! not send packets. The simulation harness (`scoop-sim`) owns the send loop.

#![warn(missing_docs)]

pub mod descendants;
pub mod link_estimator;
pub mod neighbor_table;
pub mod router;
pub mod tree;

pub use descendants::DescendantsList;
pub use link_estimator::LinkEstimator;
pub use neighbor_table::{NeighborEntry, NeighborTable};
pub use router::{NextHop, RoutingConfig, RoutingState};
pub use tree::{Beacon, TreeState};
