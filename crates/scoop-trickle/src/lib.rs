//! Trickle-style dissemination.
//!
//! Scoop uses Trickle (Levis et al. \[13\]) twice:
//!
//! * to disseminate **storage index chunks** ("mapping messages") from the
//!   basestation to every node, and
//! * in a modified form to disseminate **query packets**, where a node only
//!   re-broadcasts a query if doing so can still help: its own bit is set in
//!   the query's node bitmap, or one of its neighbors or descendants is
//!   targeted (Section 5.5).
//!
//! Trickle's core idea is polite gossip: each node divides time into rounds
//! of length τ, picks a random instant in the second half of each round to
//! broadcast its current version, and suppresses that broadcast if it has
//! already heard `k` consistent transmissions this round. When a node hears
//! a *newer* version than its own it resets τ to the minimum so news spreads
//! quickly; when the network is consistent τ doubles up to a maximum so
//! steady-state traffic decays.

#![warn(missing_docs)]

pub mod chunker;
pub mod trickle;

pub use chunker::{Chunk, ChunkAssembler, Chunker};
pub use trickle::{TrickleAction, TrickleConfig, TrickleState};
