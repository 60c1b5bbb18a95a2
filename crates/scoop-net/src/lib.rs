//! Discrete-event, packet-level wireless sensor network simulator.
//!
//! This crate is the substrate that replaces the paper's TOSSIM simulator and
//! Mica2 mote testbed. It models:
//!
//! * **Topology** — node positions on a floor plan, with generators for the
//!   paper's 62-node office-floor testbed layout, regular grids, uniform
//!   random placements, and linear (worst-case depth) chains.
//! * **Links** — lossy, asymmetric directed links between nodes within radio
//!   range. Among connected pairs, loss rates vary from roughly 25 % to 90 %,
//!   and each node can hear about 20 % of the network, matching Section 6.
//! * **Radio** — broadcast semantics: every transmission is heard (with
//!   per-link loss) by every in-range node. Unicast sends use link-layer
//!   acknowledgements with bounded retransmission; every (re)transmission is
//!   counted, because the paper's cost metric is transmissions.
//! * **Accounting** — per-node, per-[`MessageKind`](scoop_types::MessageKind)
//!   transmission and reception counters: the paper's cost metric.
//!
//! The simulator is deterministic: all randomness flows from the seed in the
//! engine's configuration.

#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod fault;
pub mod link;
pub mod packet;
pub mod stats;
pub mod topology;

pub use engine::{Engine, EngineConfig, NodeCtx, NodeLogic, TimerToken};
pub use event::{Event, EventQueue};
pub use fault::{FaultSchedule, Outage, PartitionCut};
pub use link::{LinkModel, LinkQuality};
pub use packet::{LinkDst, Packet, PacketMeta};
pub use stats::{NetworkStats, NodeStats};
pub use topology::{NodePosition, Topology, TopologyKind};
