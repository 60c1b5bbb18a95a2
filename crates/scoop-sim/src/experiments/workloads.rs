//! Range and aggregate query workloads.
//!
//! Two grids beyond the paper's point-query evaluation. `range_width` sweeps
//! the fixed range-query width per policy (the `Range` workload kind — the
//! steady-state cousin of the Figure 4 selectivity sweep). `aggregate_ops`
//! runs each aggregate operator per policy: SCOOP routes to the value owners
//! and each owner sends one partial back, LOCAL floods and partial aggregates
//! combine hop-by-hop up the routing tree (TAG-style), BASE answers from the
//! basestation's own store for free.

use crate::sweep::{ScenarioSuite, SweepRunner};
use scoop_types::{AggregateOp, ScenarioSpec, ScoopError, StoragePolicy, WorkloadKind};
use serde::{Deserialize, Serialize};

/// One point of the range-width sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RangeWidthRow {
    /// The storage policy.
    pub policy: StoragePolicy,
    /// The fixed query width as a fraction of the value domain.
    pub width_frac: f64,
    /// The measured fraction of sensor nodes contacted per query.
    pub fraction_nodes_queried: f64,
    /// Total messages over the measured window.
    pub total_messages: u64,
    /// Fraction of expected replies that arrived.
    pub query_success: f64,
}

/// One point of the aggregate-operator grid.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AggregateOpsRow {
    /// The storage policy.
    pub policy: StoragePolicy,
    /// Stable operator label (`min`, `max`, `avg`, `p50`).
    pub op: String,
    /// Total messages over the measured window.
    pub total_messages: u64,
    /// Query plus reply/aggregate messages over the measured window.
    pub query_reply_messages: u64,
    /// Fraction of expected replies that arrived.
    pub query_success: f64,
}

/// The policies every workload grid compares (HASH adds nothing here that
/// SCOOP's value routing doesn't already show).
const POLICIES: [StoragePolicy; 3] = [
    StoragePolicy::Scoop,
    StoragePolicy::Local,
    StoragePolicy::Base,
];

/// Runs the range-width sweep: every policy × every width in `width_fracs`,
/// with the workload kind pinned to `Range { width_frac }`.
pub fn range_width(
    base: &ScenarioSpec,
    width_fracs: &[f64],
    trials: usize,
) -> Result<Vec<RangeWidthRow>, ScoopError> {
    let grid: Vec<(StoragePolicy, f64)> = POLICIES
        .into_iter()
        .flat_map(|p| width_fracs.iter().map(move |&f| (p, f)))
        .collect();
    let suite = ScenarioSuite::from_grid(
        "range-width",
        trials,
        grid.iter().copied(),
        |(policy, frac)| {
            let mut cfg = base.clone();
            cfg.policy.kind = policy;
            cfg.workload.kind = WorkloadKind::range(frac);
            (format!("{policy}/width-{frac:.2}"), cfg)
        },
    );
    let report = SweepRunner::from_env().run(&suite)?;
    Ok(grid
        .iter()
        .zip(report.averaged())
        .map(|(&(policy, frac), avg)| RangeWidthRow {
            policy,
            width_frac: frac,
            fraction_nodes_queried: match policy {
                // LOCAL always floods everyone; BASE never queries.
                StoragePolicy::Local => 1.0,
                StoragePolicy::Base => 0.0,
                _ => avg.fraction_nodes_queried(),
            },
            total_messages: avg.total_messages(),
            query_success: avg.queries.query_success(),
        })
        .collect())
}

/// The operators the aggregate grid runs by default.
pub fn default_aggregate_ops() -> Vec<AggregateOp> {
    vec![
        AggregateOp::Min,
        AggregateOp::Max,
        AggregateOp::Avg,
        AggregateOp::Quantile(0.5),
    ]
}

/// Runs the aggregate-operator grid: every policy × every operator in `ops`,
/// with the workload kind pinned to `Aggregate { op, epsilon }` at the
/// default epsilon.
pub fn aggregate_ops(
    base: &ScenarioSpec,
    ops: &[AggregateOp],
    trials: usize,
) -> Result<Vec<AggregateOpsRow>, ScoopError> {
    let grid: Vec<(StoragePolicy, AggregateOp)> = POLICIES
        .into_iter()
        .flat_map(|p| ops.iter().map(move |&op| (p, op)))
        .collect();
    let suite = ScenarioSuite::from_grid(
        "aggregate-ops",
        trials,
        grid.iter().copied(),
        |(policy, op)| {
            let mut cfg = base.clone();
            cfg.policy.kind = policy;
            cfg.workload.kind = WorkloadKind::aggregate(op, WorkloadKind::DEFAULT_EPSILON);
            (format!("{policy}/{}", op.label()), cfg)
        },
    );
    let report = SweepRunner::from_env().run(&suite)?;
    Ok(grid
        .iter()
        .zip(report.averaged())
        .map(|(&(policy, op), avg)| AggregateOpsRow {
            policy,
            op: op.label(),
            total_messages: avg.total_messages(),
            query_reply_messages: avg.messages.query_reply,
            query_success: avg.queries.query_success(),
        })
        .collect())
}

/// The default width points for the range sweep.
pub fn default_range_widths() -> Vec<f64> {
    vec![0.05, 0.25, 0.50, 1.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_base;

    #[test]
    fn range_width_grid_shapes_hold() {
        let rows = range_width(&quick_base(), &[0.05, 0.5], 1).unwrap();
        assert_eq!(rows.len(), 6);
        let row = |p: StoragePolicy, f: f64| {
            rows.iter()
                .find(|r| r.policy == p && (r.width_frac - f).abs() < 1e-9)
                .unwrap()
        };
        // SCOOP targets a subset on narrow ranges; BASE answers for free.
        assert!(row(StoragePolicy::Scoop, 0.05).fraction_nodes_queried < 1.0);
        assert_eq!(row(StoragePolicy::Base, 0.05).fraction_nodes_queried, 0.0);
        assert_eq!(row(StoragePolicy::Base, 0.5).query_success, 1.0);
        // SCOOP beats LOCAL's flood on narrow range queries.
        assert!(
            row(StoragePolicy::Scoop, 0.05).total_messages
                < row(StoragePolicy::Local, 0.05).total_messages
        );
    }

    #[test]
    fn aggregate_grid_covers_every_policy_and_op() {
        let ops = [AggregateOp::Min, AggregateOp::Quantile(0.5)];
        let rows = aggregate_ops(&quick_base(), &ops, 1).unwrap();
        assert_eq!(rows.len(), 6);
        for p in POLICIES {
            for op in ops {
                let r = rows
                    .iter()
                    .find(|r| r.policy == p && r.op == op.label())
                    .unwrap();
                match p {
                    // BASE never touches the network for queries.
                    StoragePolicy::Base => assert_eq!(r.query_reply_messages, 0),
                    // SCOOP and LOCAL both move queries and partials.
                    _ => assert!(r.query_reply_messages > 0, "{p}/{}", r.op),
                }
            }
        }
        // Tree aggregation keeps LOCAL's reply traffic below its point-query
        // flood: every node answers, but partials merge on the way up.
        let local_min = rows
            .iter()
            .find(|r| r.policy == StoragePolicy::Local && r.op == "min")
            .unwrap();
        assert!(local_min.query_success > 0.0);
    }
}
