//! The prose experiments from Section 6: the sample-interval sweep, the loss
//! / reliability measurements, the root-node skew analysis, and the scaling
//! study. Each is a declarative scenario grid run by the parallel
//! [`SweepRunner`].

use crate::sweep::{ScenarioSuite, SweepRunner};
use scoop_types::{DataSourceKind, ScenarioSpec, ScoopError, SimDuration, StoragePolicy};
use serde::{Deserialize, Serialize};

/// One point of the sample-interval sweep ("as less data is stored,
/// differences between the behavior of Scoop on different types of data are
/// less pronounced").
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SampleIntervalRow {
    /// The data source.
    pub source: DataSourceKind,
    /// Seconds between sensor samples.
    pub sample_interval_secs: u64,
    /// Total messages over the measured window.
    pub total_messages: u64,
    /// Messages that are not data messages (queries, mappings, summaries) —
    /// the overhead that dominates when little data is produced.
    pub non_data_messages: u64,
}

/// Sweeps the sample interval for SCOOP over the given data sources.
pub fn sample_interval_sweep(
    base: &ScenarioSpec,
    sources: &[DataSourceKind],
    intervals_secs: &[u64],
    trials: usize,
) -> Result<Vec<SampleIntervalRow>, ScoopError> {
    let grid: Vec<(DataSourceKind, u64)> = sources
        .iter()
        .flat_map(|&src| intervals_secs.iter().map(move |&s| (src, s)))
        .collect();
    let suite = ScenarioSuite::from_grid(
        "sample-interval",
        trials,
        grid.iter().copied(),
        |(source, secs)| {
            let mut cfg = base.clone();
            cfg.policy.kind = StoragePolicy::Scoop;
            cfg.workload.data_source = source;
            cfg.workload.sample_interval = SimDuration::from_secs(secs.max(1));
            (format!("{source}/sample-{secs}s"), cfg)
        },
    );
    let report = SweepRunner::from_env().run(&suite)?;
    Ok(grid
        .iter()
        .zip(report.averaged())
        .map(|(&(source, secs), avg)| SampleIntervalRow {
            source,
            sample_interval_secs: secs,
            total_messages: avg.total_messages(),
            non_data_messages: avg.total_messages() - avg.messages.data,
        })
        .collect())
}

/// Reliability numbers for one policy (the paper reports SCOOP: ~93 % of data
/// messages stored, ~78 % of query results retrieved, ~85 % of readings
/// reaching their designated owner).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReliabilityRow {
    /// The storage policy.
    pub policy: StoragePolicy,
    /// Fraction of sampled readings stored somewhere.
    pub storage_success: f64,
    /// Fraction of expected query replies that reached the basestation.
    pub query_success: f64,
    /// Of the routed readings, the fraction stored on the designated owner
    /// (the rest fell back to the root).
    pub destination_accuracy: f64,
}

/// Runs the reliability experiment for the given policies.
pub fn reliability(
    base: &ScenarioSpec,
    policies: &[StoragePolicy],
    trials: usize,
) -> Result<Vec<ReliabilityRow>, ScoopError> {
    let suite =
        ScenarioSuite::from_grid("reliability", trials, policies.iter().copied(), |policy| {
            let mut cfg = base.clone();
            cfg.policy.kind = policy;
            (policy.to_string(), cfg)
        });
    let report = SweepRunner::from_env().run(&suite)?;
    Ok(policies
        .iter()
        .zip(report.averaged())
        .map(|(&policy, avg)| ReliabilityRow {
            policy,
            storage_success: avg.storage.storage_success(),
            query_success: avg.queries.query_success(),
            destination_accuracy: avg.storage.destination_accuracy(),
        })
        .collect())
}

/// The root-skew comparison: what the root transmits and receives versus an
/// average sensor node, per policy.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RootSkewRow {
    /// The storage policy.
    pub policy: StoragePolicy,
    /// Messages transmitted by the root over the measured window.
    pub root_tx: u64,
    /// Messages received by the root over the measured window.
    pub root_rx: u64,
    /// Mean messages transmitted per sensor node.
    pub mean_sensor_tx: f64,
    /// Total messages across the network (for the "uses less energy overall"
    /// comparison).
    pub total_messages: u64,
}

/// Runs the root-skew experiment for SCOOP, BASE, and LOCAL.
pub fn root_skew(base: &ScenarioSpec, trials: usize) -> Result<Vec<RootSkewRow>, ScoopError> {
    let policies = [
        StoragePolicy::Scoop,
        StoragePolicy::Base,
        StoragePolicy::Local,
    ];
    let suite = ScenarioSuite::from_grid("root-skew", trials, policies, |policy| {
        let mut cfg = base.clone();
        cfg.policy.kind = policy;
        (policy.to_string(), cfg)
    });
    let report = SweepRunner::from_env().run(&suite)?;
    Ok(policies
        .iter()
        .zip(report.averaged())
        .map(|(&policy, avg)| {
            let skew = avg.root_skew();
            RootSkewRow {
                policy,
                root_tx: skew.root_tx,
                root_rx: skew.root_rx,
                mean_sensor_tx: skew.mean_sensor_tx,
                total_messages: avg.total_messages(),
            }
        })
        .collect())
}

/// One point of the scaling study (networks up to 100 nodes).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScalingRow {
    /// The data source.
    pub source: DataSourceKind,
    /// Number of sensor nodes.
    pub num_nodes: usize,
    /// Total messages over the measured window.
    pub total_messages: u64,
    /// Total messages per sensor node (normalizes for network size).
    pub messages_per_node: f64,
    /// Storage success rate (the paper reports "little overall effect on loss
    /// rate" as the network grows).
    pub storage_success: f64,
}

/// Runs the scaling study for SCOOP over the given network sizes and sources.
pub fn scaling(
    base: &ScenarioSpec,
    sizes: &[usize],
    sources: &[DataSourceKind],
    trials: usize,
) -> Result<Vec<ScalingRow>, ScoopError> {
    scaling_with_policy(base, sizes, sources, StoragePolicy::Scoop, trials)
}

/// The scaling study under an explicit storage policy. The large-scale
/// scenarios (thousands of nodes) run HASH: its storage index is static, so
/// no node ships summaries and the basestation never remaps. A Scoop remap
/// holds only a values × nodes cost matrix, but it runs one Dijkstra per
/// producer — 0.2 s at 4,096 sensors — every remap interval.
pub fn scaling_with_policy(
    base: &ScenarioSpec,
    sizes: &[usize],
    sources: &[DataSourceKind],
    policy: StoragePolicy,
    trials: usize,
) -> Result<Vec<ScalingRow>, ScoopError> {
    let grid: Vec<(DataSourceKind, usize)> = sources
        .iter()
        .flat_map(|&src| sizes.iter().map(move |&n| (src, n)))
        .collect();
    let suite = ScenarioSuite::from_grid("scaling", trials, grid.iter().copied(), |(source, n)| {
        let mut cfg = base.clone();
        cfg.policy.kind = policy;
        cfg.workload.data_source = source;
        cfg.num_nodes = n;
        (format!("{source}/{n}-nodes"), cfg)
    });
    let report = SweepRunner::from_env().run(&suite)?;
    Ok(grid
        .iter()
        .zip(report.averaged())
        .map(|(&(source, n), avg)| ScalingRow {
            source,
            num_nodes: n,
            total_messages: avg.total_messages(),
            messages_per_node: avg.total_messages() as f64 / n.max(1) as f64,
            storage_success: avg.storage.storage_success(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_base;

    #[test]
    fn reliability_rates_are_sane_for_scoop() {
        let rows = reliability(&quick_base(), &[StoragePolicy::Scoop], 1).unwrap();
        let r = &rows[0];
        assert!(r.storage_success > 0.5 && r.storage_success <= 1.0);
        assert!(r.query_success > 0.2 && r.query_success <= 1.0);
        assert!(r.destination_accuracy > 0.3 && r.destination_accuracy <= 1.0);
    }

    #[test]
    fn root_receives_far_more_under_base_than_it_transmits() {
        let rows = root_skew(&quick_base(), 1).unwrap();
        let base_row = rows
            .iter()
            .find(|r| r.policy == StoragePolicy::Base)
            .unwrap();
        assert!(
            base_row.root_rx > base_row.root_tx,
            "the BASE root mostly receives"
        );
        let scoop_row = rows
            .iter()
            .find(|r| r.policy == StoragePolicy::Scoop)
            .unwrap();
        assert!(
            scoop_row.root_tx > base_row.root_tx,
            "the SCOOP root transmits mappings and queries, the BASE root does not"
        );
    }

    #[test]
    fn scaling_runs_multiple_sizes() {
        let rows = scaling(&quick_base(), &[8, 16], &[DataSourceKind::Gaussian], 1).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].total_messages > rows[0].total_messages,
            "more nodes, more traffic"
        );
    }

    #[test]
    fn scaling_with_policy_runs_the_hash_baseline() {
        let rows = scaling_with_policy(
            &quick_base(),
            &[8],
            &[DataSourceKind::Gaussian],
            StoragePolicy::Hash,
            1,
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].total_messages > 0);
        assert!(rows[0].storage_success > 0.0 && rows[0].storage_success <= 1.0);
    }
}
