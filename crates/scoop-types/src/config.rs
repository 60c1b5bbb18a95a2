//! Protocol and workload parameter blocks shared by every scenario.
//!
//! The experiment description itself lives in [`crate::spec`]: a
//! [`ScenarioSpec`](crate::ScenarioSpec) composes these blocks with the
//! topology / link / fault axes, and `ScenarioSpec::paper_defaults()`
//! reproduces the parameter table from Section 6 of the paper
//! (62 nodes + 1 basestation, 40 simulated minutes, 15-second sample and
//! query intervals, 110-second summary interval, 240-second remap interval,
//! queries over 1–5 % of the value domain, the REAL data source).

use crate::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which storage policy the network runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum StoragePolicy {
    /// The paper's contribution: the adaptive, statistics-driven storage index.
    Scoop,
    /// Store every reading locally; flood every query to all nodes.
    Local,
    /// Send every reading to the basestation; queries cost nothing.
    Base,
    /// A static uniform hash from value to node (GHT-like data-centric
    /// storage). The paper evaluates this analytically; we support both the
    /// analytical model and full simulation.
    Hash,
}

impl StoragePolicy {
    /// All policies, in the order used by reports.
    pub const ALL: [StoragePolicy; 4] = [
        StoragePolicy::Scoop,
        StoragePolicy::Local,
        StoragePolicy::Base,
        StoragePolicy::Hash,
    ];

    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            StoragePolicy::Scoop => "scoop",
            StoragePolicy::Local => "local",
            StoragePolicy::Base => "base",
            StoragePolicy::Hash => "hash",
        }
    }
}

impl fmt::Display for StoragePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which synthetic data source drives the sensors (Section 6's table).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum DataSourceKind {
    /// A trace of real (spatially and temporally correlated) light data.
    /// The paper replayed the Intel Lab trace; we synthesize an equivalent.
    Real,
    /// Each node always produces its own node id as its value.
    Unique,
    /// All nodes produce the same value for the whole experiment.
    Equal,
    /// Uniformly random values in the domain.
    Random,
    /// Each node draws from a Gaussian around a per-node mean (variance 10).
    Gaussian,
}

impl DataSourceKind {
    /// All data sources, in the order used by reports.
    pub const ALL: [DataSourceKind; 5] = [
        DataSourceKind::Unique,
        DataSourceKind::Equal,
        DataSourceKind::Real,
        DataSourceKind::Gaussian,
        DataSourceKind::Random,
    ];

    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DataSourceKind::Real => "real",
            DataSourceKind::Unique => "unique",
            DataSourceKind::Equal => "equal",
            DataSourceKind::Random => "random",
            DataSourceKind::Gaussian => "gaussian",
        }
    }
}

impl fmt::Display for DataSourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of the Scoop protocol itself (as opposed to the workload).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScoopParams {
    /// Interval between summary messages from each node (paper: 110 s).
    pub summary_interval: SimDuration,
    /// Interval between storage-index recomputations at the basestation
    /// (paper: 240 s).
    pub remap_interval: SimDuration,
    /// Number of equal-width bins in the summary histogram (paper: 10).
    pub n_bins: usize,
    /// Capacity of the recent-readings ring buffer used to build the summary
    /// histogram (paper: 30).
    pub recent_readings: usize,
    /// Maximum readings batched into a single data packet (paper: 5).
    pub batch_size: usize,
    /// Maximum entries in the neighbor list reported in summaries (paper: 12).
    pub summary_neighbors: usize,
    /// Maximum entries in the locally kept neighbor list (paper: 32).
    pub neighbor_list_cap: usize,
    /// Maximum entries in the descendants list (paper: 32).
    pub descendants_cap: usize,
    /// If `true`, the basestation also evaluates the expected cost of a
    /// "store-local" index and uses it when cheaper (Section 4). The paper's
    /// SCOOP experiments *disable* this so the adaptive index is always used.
    pub allow_store_local_fallback: bool,
    /// If `true`, the basestation suppresses dissemination of a new index
    /// that is (nearly) identical to the previous one (Section 5.3).
    pub suppress_unchanged_index: bool,
    /// Fraction of entries that must change for an index to be considered
    /// "different enough" to re-disseminate (only used when
    /// `suppress_unchanged_index` is set).
    pub suppression_threshold: f64,
    /// If `true`, routing rule 3 (neighbor-list shortcut) is enabled.
    pub neighbor_shortcut: bool,
    /// Maximum value-range entries per mapping packet when the index is
    /// chunked for dissemination.
    pub mapping_entries_per_packet: usize,
    /// Multi-sink only: how long a sink may stay silent before its peers
    /// treat it as dead and take over its attribute range. Zero — the
    /// default, skipped during serialization — means "auto": three remap
    /// intervals (see [`ScoopParams::effective_failover_timeout`]).
    #[serde(default, skip_serializing_if = "SimDuration::is_zero")]
    pub failover_timeout: SimDuration,
}

impl ScoopParams {
    /// The failover timeout actually used: the configured value, or three
    /// remap intervals when left at the zero default. Three intervals
    /// tolerate two consecutive lost liveness beacons before a takeover.
    pub fn effective_failover_timeout(&self) -> SimDuration {
        if self.failover_timeout.is_zero() {
            self.remap_interval.mul(3)
        } else {
            self.failover_timeout
        }
    }
}

impl Default for ScoopParams {
    fn default() -> Self {
        ScoopParams {
            summary_interval: SimDuration::from_secs(110),
            remap_interval: SimDuration::from_secs(240),
            n_bins: 10,
            recent_readings: 30,
            batch_size: 5,
            summary_neighbors: 12,
            neighbor_list_cap: 32,
            descendants_cap: 32,
            allow_store_local_fallback: false,
            suppress_unchanged_index: true,
            suppression_threshold: 0.05,
            neighbor_shortcut: true,
            mapping_entries_per_packet: 8,
            failover_timeout: SimDuration::ZERO,
        }
    }
}

/// Parameters of the query workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryWorkloadConfig {
    /// Interval between queries issued at the basestation (paper: 15 s).
    pub query_interval: SimDuration,
    /// Minimum fraction of the value domain covered by each query (paper: 1 %).
    pub min_width_frac: f64,
    /// Maximum fraction of the value domain covered by each query (paper: 5 %).
    pub max_width_frac: f64,
    /// How far back in time queries look, as a number of sample intervals.
    pub history_samples: u64,
}

impl Default for QueryWorkloadConfig {
    fn default() -> Self {
        QueryWorkloadConfig {
            query_interval: SimDuration::from_secs(15),
            min_width_frac: 0.01,
            max_width_frac: 0.05,
            history_samples: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_and_source_names() {
        assert_eq!(StoragePolicy::Scoop.name(), "scoop");
        assert_eq!(DataSourceKind::Gaussian.to_string(), "gaussian");
        let names: std::collections::HashSet<_> =
            StoragePolicy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), StoragePolicy::ALL.len());
    }

    #[test]
    fn scoop_params_defaults_match_the_paper_table() {
        let p = ScoopParams::default();
        assert_eq!(p.summary_interval.as_secs(), 110);
        assert_eq!(p.remap_interval.as_secs(), 240);
        assert_eq!(p.n_bins, 10);
        assert_eq!(p.recent_readings, 30);
        assert_eq!(p.batch_size, 5);
        assert_eq!(p.summary_neighbors, 12);
        assert_eq!(p.descendants_cap, 32);
        assert!(!p.allow_store_local_fallback);
    }

    #[test]
    fn query_workload_defaults_match_the_paper_table() {
        let q = QueryWorkloadConfig::default();
        assert_eq!(q.query_interval.as_secs(), 15);
        assert!((q.min_width_frac - 0.01).abs() < 1e-12);
        assert!((q.max_width_frac - 0.05).abs() < 1e-12);
    }
}
