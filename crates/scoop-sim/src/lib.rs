//! Whole-network simulation harness.
//!
//! This crate wires the substrates (network simulator, routing tree, Trickle
//! dissemination, node storage, workload generators) and the Scoop core
//! (statistics, index construction, routing rules, query planning) into a
//! runnable system, and reproduces every experiment in the paper's
//! evaluation:
//!
//! * [`node`] — the per-node protocol state machine. One type implements all
//!   four storage policies (SCOOP, LOCAL, BASE, HASH) plus the basestation
//!   role, driven entirely by simulator events.
//! * [`metrics`] — per-run metrics: the Figure 3 message breakdown, storage
//!   and query success rates, destination accuracy, and per-node skew.
//! * [`builder`] — [`SimBuilder`]: assembles an engine from a
//!   [`ScenarioSpec`](scoop_types::ScenarioSpec) through the standard
//!   topology and link generators and resolves the fault axis into a
//!   radio-outage schedule.
//! * [`runner`] — runs a built engine and extracts a
//!   [`metrics::RunResult`]; multi-trial averaging included.
//! * [`sweep`] — the parallel, deterministic scenario runner: declarative
//!   [`sweep::ScenarioSuite`]s executed across threads by
//!   [`sweep::SweepRunner`] with results collected in input order.
//! * [`experiments`] — one module per paper figure/table, each a declarative
//!   scenario grid handed to the sweep runner.
//! * [`report`] — plain-text and JSON rendering of experiment rows.

#![warn(missing_docs)]

pub mod builder;
pub mod experiments;
pub mod metrics;
pub mod node;
pub mod report;
pub mod runner;
pub mod sweep;

pub use builder::{resolve_fault_schedule, SimBuilder};
pub use metrics::{MessageBreakdown, QueryMetrics, RootSkew, RunResult, StorageMetrics};
pub use node::SharedPayload;
pub use node::TICK_SERVE;
pub use node::{NodeShared, SimNode};
pub use runner::{
    average_results, build_engine, build_engine_with, events_dispatched_total,
    run_built_experiment, run_experiment, run_trials,
};
pub use sweep::{Scenario, ScenarioSuite, SweepReport, SweepRunner};
