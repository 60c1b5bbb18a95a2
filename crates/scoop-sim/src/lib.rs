//! Whole-network simulation harness.
//!
//! This crate wires the substrates (network simulator, routing tree, Trickle
//! dissemination, workload generators) and the Scoop core (statistics, index
//! construction, routing rules, query planning) into a runnable system, and
//! reproduces every experiment in the paper's evaluation:
//!
//! * [`data_buffer`] and [`ring`] — a sensor's two buffers (Sections 5.2 and
//!   5.4): the circular flash [`DataBuffer`] holding the readings the node
//!   *owns* under the storage index, which queries scan linearly, and the
//!   [`RecentReadings`] ring (capacity 30) of the node's *own* latest values,
//!   which only the summary histogram reads.
//! * [`node`] — the per-node protocol state machine. One type implements all
//!   four storage policies (SCOOP, LOCAL, BASE, HASH) plus the basestation
//!   role, driven entirely by simulator events.
//! * [`metrics`] — per-run metrics: the Figure 3 message breakdown, storage
//!   and query success rates, destination accuracy, and per-node skew.
//! * [`builder`] — [`build_engine`] builds an engine from a
//!   [`ScenarioSpec`](scoop_types::ScenarioSpec) through
//!   `Topology::connected` and `LinkModel::from_spec`, and
//!   [`build_engine_with`] over a hand-made topology and link model; both
//!   resolve the fault axis into a radio-outage schedule.
//! * [`runner`] — [`run_windows`] runs a built engine through ascending time
//!   boundaries and measures one [`metrics::RunResult`] per window;
//!   [`run_experiment`] is its one-window case after the warmup.
//!   Multi-trial averaging included.
//! * [`sweep`] — the parallel, deterministic scenario runner:
//!   [`sweep::SweepRunner::averaged`] runs a list of configs over several
//!   seeds each, across threads, and averages them in input order.
//! * [`experiments`] — one module per paper figure/table, each a grid of
//!   configs handed to the sweep runner.

#![warn(missing_docs)]

pub mod builder;
pub mod data_buffer;
pub mod experiments;
pub mod metrics;
pub mod node;
pub mod ring;
pub mod runner;
pub mod sweep;

pub use builder::{build_engine, build_engine_with, resolve_fault_schedule};
pub use data_buffer::DataBuffer;
pub use metrics::{MessageBreakdown, QueryMetrics, RootSkew, RunResult, StorageMetrics};
pub use node::SharedPayload;
pub use node::TICK_SERVE;
pub use node::{NodeShared, SimNode};
pub use ring::RecentReadings;
pub use runner::{
    average_results, events_dispatched_total, run_built_experiment, run_experiment, run_windows,
};
pub use sweep::SweepRunner;
