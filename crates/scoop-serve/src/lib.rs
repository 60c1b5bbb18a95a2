//! scoop-serve — a query-serving front end over one simulated Scoop network.
//!
//! The paper's basestation compiles storage indexes *and answers queries over
//! the network's data*. Everything before this crate exercised the first
//! half; `scoop-serve` builds the second: a long-running server that owns a
//! simulated network (engine + storage, built from a [`ScenarioSpec`]) and
//! answers externally submitted point/range queries about it while the
//! simulation keeps running — under heavy traffic.
//!
//! The moving parts, bottom up:
//!
//! * [`transport`] — how requests arrive and frames leave. The in-memory
//!   implementation is hermetic and deterministic (CI's golden smoke runs on
//!   it); the [`tcp`] module carries the same length-prefixed frames over a
//!   real socket.
//! * [`admission`] — a bounded queue in front of the tick loop. Over-budget
//!   bursts get a typed `Overloaded` rejection, never a panic or a silent
//!   drop.
//! * [`index`]/[`cache`]/[`core`] — the answering side: a value-bucketed,
//!   time-sorted index of live readings, history a restart found on disk
//!   answered straight from its sealed segments, plus a predicate-keyed
//!   answer cache whose hits are provably byte-identical to evaluation (the
//!   cache stores encoded payloads and invalidates on every tick's new
//!   readings).
//! * [`server`] — the tick loop tying it together. Admitted batches enter
//!   the region-sharded event loop as ordinary injected events, so the
//!   engine's determinism guarantees extend to the serving tier.
//! * [`smoke`] — the fixed-seed golden smoke CI runs. Throughput and
//!   latency are measured by the repository benchmark (`bench/run.sh`)
//!   through the real TCP transport, not here.
//!
//! [`ScenarioSpec`]: scoop_types::ScenarioSpec

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod core;
pub mod index;
pub mod server;
pub mod smoke;
pub mod tcp;
pub mod transport;

pub use admission::AdmissionQueue;
pub use cache::{AnswerCache, TouchedValues};
pub use core::{AnswerCore, CoreStats};
pub use index::ServeIndex;
pub use server::{pump_once, ServeOptions, ServeServer, ServeStats};
pub use smoke::{run_smoke, SmokeOptions, SmokeReport};
pub use tcp::{QueryError, RetriesExhausted, RetryPolicy, TcpClient, TcpServerTransport};
pub use transport::{ClientId, InMemoryClient, InMemoryHub, InMemoryTransport, Transport};
