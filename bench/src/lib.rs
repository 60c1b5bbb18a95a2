//! The repository's benchmark harness.
//!
//! It measures every layer **from outside**: by timing calls into public
//! functions of the `scoop` facade crate. Nothing in the repository is
//! instrumented; in-program tracing is a later change. `bench/README.md`
//! has the metric glossary, the workload table and how to read a trace.

#![warn(missing_docs)]

pub mod check;
pub mod gen;
pub mod metrics;
pub mod micro;
pub mod stats;
pub mod suite;
pub mod sys;
pub mod trace;
pub mod workloads;
