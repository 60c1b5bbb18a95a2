//! Figure 5: total cost as a function of the query interval.
//!
//! As queries become rarer (the interval grows), LOCAL becomes dramatically
//! cheaper because its only traffic is query flooding and replies; SCOOP and
//! BASE are largely insensitive because their dominant costs are data and
//! summary traffic.

use crate::sweep::{ScenarioSuite, SweepRunner};
use scoop_types::{ScenarioSpec, ScoopError, SimDuration, StoragePolicy};
use serde::{Deserialize, Serialize};

/// One point of Figure 5.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig5Row {
    /// The storage policy.
    pub policy: StoragePolicy,
    /// Seconds between queries.
    pub query_interval_secs: u64,
    /// Total messages over the measured window.
    pub total_messages: u64,
}

/// Runs the Figure 5 sweep over the given query intervals (seconds).
pub fn fig5_query_interval(
    base: &ScenarioSpec,
    intervals_secs: &[u64],
    trials: usize,
) -> Result<Vec<Fig5Row>, ScoopError> {
    let policies = [
        StoragePolicy::Scoop,
        StoragePolicy::Local,
        StoragePolicy::Base,
    ];
    let grid: Vec<(StoragePolicy, u64)> = policies
        .into_iter()
        .flat_map(|p| intervals_secs.iter().map(move |&s| (p, s)))
        .collect();
    let suite = ScenarioSuite::from_grid(
        "fig5-query-interval",
        trials,
        grid.iter().copied(),
        |(policy, secs)| {
            let mut cfg = base.clone();
            cfg.policy.kind = policy;
            cfg.workload.queries.query_interval = SimDuration::from_secs(secs.max(1));
            (format!("{policy}/interval-{secs}s"), cfg)
        },
    );
    let report = SweepRunner::from_env().run(&suite)?;
    Ok(grid
        .iter()
        .zip(report.averaged())
        .map(|(&(policy, secs), avg)| Fig5Row {
            policy,
            query_interval_secs: secs,
            total_messages: avg.total_messages(),
        })
        .collect())
}

/// The default sweep points used by the bench harness (5 s to 50 s, as in the
/// paper's x-axis).
pub fn default_intervals() -> Vec<u64> {
    vec![5, 10, 15, 25, 40, 50]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_base;

    #[test]
    fn local_benefits_most_from_rare_queries() {
        let rows = fig5_query_interval(&quick_base(), &[5, 45], 1).unwrap();
        let total = |p: StoragePolicy, s: u64| {
            rows.iter()
                .find(|r| r.policy == p && r.query_interval_secs == s)
                .unwrap()
                .total_messages as f64
        };
        let local_drop = total(StoragePolicy::Local, 5) / total(StoragePolicy::Local, 45).max(1.0);
        let base_drop = total(StoragePolicy::Base, 5) / total(StoragePolicy::Base, 45).max(1.0);
        assert!(
            local_drop > base_drop,
            "LOCAL should benefit more from rare queries (drop {local_drop:.2}× vs BASE {base_drop:.2}×)"
        );
        // BASE is essentially flat: queries cost it nothing.
        assert!((0.7..=1.4).contains(&base_drop), "BASE drop {base_drop}");
    }
}
