//! The experiment suite: every figure/table the lab can run, with one stable
//! identifier per experiment.
//!
//! [`ExperimentId`] is the single enumeration the CLI, the artifact store,
//! the baselines, and the bench harness all key on. [`run_experiment`] maps
//! an id to the corresponding `scoop_sim::experiments` function (all grids
//! execute on the parallel [`SweepRunner`](scoop_sim::SweepRunner) inside),
//! and [`run_suite`] runs a list of experiments, recording per-experiment
//! wall-clock into [`Artifact`]s.

use crate::artifact::{Artifact, Provenance};
use crate::rows::RowSet;
use scoop_sim::experiments::{self, fig4, fig5};
use scoop_types::{DataSourceKind, ExperimentConfig, ScoopError, StoragePolicy};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// Which configuration scale a suite runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// The paper's Section 6 parameters: 62 nodes, 40 minutes.
    Paper,
    /// The scaled-down sanity configuration: 16 nodes, 12 minutes.
    Quick,
}

impl Scale {
    /// The base configuration for this scale.
    pub fn base_config(self) -> ExperimentConfig {
        match self {
            Scale::Paper => experiments::paper_base(),
            Scale::Quick => experiments::quick_base(),
        }
    }

    /// Lowercase name used in artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One experiment of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExperimentId {
    /// Figure 3 (left): the testbed comparison bars.
    Fig3Left,
    /// Figure 3 (middle): all policies over the REAL trace.
    Fig3Middle,
    /// Figure 3 (right): SCOOP over every data source.
    Fig3Right,
    /// Figure 4: cost vs. fraction of nodes queried.
    Fig4,
    /// Figure 5: cost vs. query interval.
    Fig5,
    /// The ablation suite over the REAL trace.
    Ablations,
    /// The sample-interval sweep.
    SampleInterval,
    /// The reliability measurements.
    Reliability,
    /// The root-skew analysis.
    RootSkew,
    /// The scaling study.
    Scaling,
    /// The link-calibration ablation over the LinkSpec loss knobs.
    LinkCalibration,
    /// The 256-node grid scaling scenario (exercises the raised MAX_NODES).
    Scaling256,
    /// The 4096-node grid stress scenario under the HASH policy.
    Scaling4096,
    /// The 32k-node grid stress scenario: 32,767 sensors plus the
    /// basestation fill the raised `MAX_NODES` cap exactly.
    Scaling32768,
    /// Chaos: per-phase reliability across a seeded network partition.
    ChaosPartition,
    /// Chaos: a promoted second sink crashes; the root takes over.
    ChaosSinkFailover,
    /// Chaos: mass churn (25 % killed, 25 % fresh joiners).
    ChaosChurn,
    /// Range workloads: cost vs. fixed query width per policy.
    RangeWidth,
    /// Aggregate workloads: cost per aggregate operator per policy.
    AggregateOps,
}

impl ExperimentId {
    /// Every experiment, in the order `run`/`report` process them.
    pub const ALL: [ExperimentId; 19] = [
        ExperimentId::Fig3Left,
        ExperimentId::Fig3Middle,
        ExperimentId::Fig3Right,
        ExperimentId::Fig4,
        ExperimentId::Fig5,
        ExperimentId::Ablations,
        ExperimentId::SampleInterval,
        ExperimentId::Reliability,
        ExperimentId::LinkCalibration,
        ExperimentId::RootSkew,
        ExperimentId::Scaling,
        ExperimentId::Scaling256,
        ExperimentId::Scaling4096,
        ExperimentId::Scaling32768,
        ExperimentId::ChaosPartition,
        ExperimentId::ChaosSinkFailover,
        ExperimentId::ChaosChurn,
        ExperimentId::RangeWidth,
        ExperimentId::AggregateOps,
    ];

    /// The workload-kind family (range and aggregate queries), in suite order.
    pub const WORKLOADS: [ExperimentId; 2] = [ExperimentId::RangeWidth, ExperimentId::AggregateOps];

    /// The chaos scenario family, in suite order.
    pub const CHAOS: [ExperimentId; 3] = [
        ExperimentId::ChaosPartition,
        ExperimentId::ChaosSinkFailover,
        ExperimentId::ChaosChurn,
    ];

    /// Stable slug used for CLI selection and artifact file names.
    pub fn slug(self) -> &'static str {
        match self {
            ExperimentId::Fig3Left => "fig3-left",
            ExperimentId::Fig3Middle => "fig3-middle",
            ExperimentId::Fig3Right => "fig3-right",
            ExperimentId::Fig4 => "fig4",
            ExperimentId::Fig5 => "fig5",
            ExperimentId::Ablations => "ablations",
            ExperimentId::SampleInterval => "sample-interval",
            ExperimentId::Reliability => "reliability",
            ExperimentId::RootSkew => "root-skew",
            ExperimentId::Scaling => "scaling",
            ExperimentId::LinkCalibration => "link-calibration",
            ExperimentId::Scaling256 => "scaling-256",
            ExperimentId::Scaling4096 => "scaling-4096",
            ExperimentId::Scaling32768 => "scaling-32768",
            ExperimentId::ChaosPartition => "chaos-partition",
            ExperimentId::ChaosSinkFailover => "chaos-failover",
            ExperimentId::ChaosChurn => "chaos-churn",
            ExperimentId::RangeWidth => "range-width",
            ExperimentId::AggregateOps => "aggregate-ops",
        }
    }

    /// Human-readable title used in tables and EXPERIMENTS.md headings.
    pub fn title(self) -> &'static str {
        match self {
            ExperimentId::Fig3Left => "Figure 3 (left): testbed comparison",
            ExperimentId::Fig3Middle => "Figure 3 (middle): policies on the REAL trace",
            ExperimentId::Fig3Right => "Figure 3 (right): Scoop across data sources",
            ExperimentId::Fig4 => "Figure 4: cost vs. % of nodes queried",
            ExperimentId::Fig5 => "Figure 5: cost vs. query interval",
            ExperimentId::Ablations => "Ablations (SCOOP on the REAL trace)",
            ExperimentId::SampleInterval => "Sample-interval sweep",
            ExperimentId::Reliability => "Reliability",
            ExperimentId::RootSkew => "Root-node skew",
            ExperimentId::Scaling => "Scaling study",
            ExperimentId::LinkCalibration => "Link calibration (LinkSpec loss knobs)",
            ExperimentId::Scaling256 => "Scaling to 256 nodes (grid topology)",
            ExperimentId::Scaling4096 => "Scaling to 4096 nodes (grid, HASH policy)",
            ExperimentId::Scaling32768 => "Scaling to 32k nodes (grid, HASH policy)",
            ExperimentId::ChaosPartition => "Chaos: network partition (50 % isolated, healed)",
            ExperimentId::ChaosSinkFailover => "Chaos: basestation failover (2-sink federation)",
            ExperimentId::ChaosChurn => "Chaos: mass churn (25 % killed, 25 % joined)",
            ExperimentId::RangeWidth => "Range workloads: cost vs. fixed query width",
            ExperimentId::AggregateOps => "Aggregate workloads: cost per operator",
        }
    }

    /// Parses a slug (as typed on the CLI).
    pub fn from_slug(slug: &str) -> Option<ExperimentId> {
        ExperimentId::ALL.into_iter().find(|id| id.slug() == slug)
    }

    /// The row key the normalized `total_vs_ref` metric divides by, if this
    /// experiment's figure argues in ratios (see [`RowSet::measured_rows`]).
    ///
    /// Figure 3 panels normalize to the panel's BASE bar (left/middle) or the
    /// REAL bar (right); ablations normalize to the unmodified baseline
    /// variant.
    pub fn reference_key(self) -> Option<&'static str> {
        match self {
            ExperimentId::Fig3Left => Some("base/gaussian"),
            ExperimentId::Fig3Middle => Some("base/real"),
            ExperimentId::Fig3Right => Some("scoop/real"),
            ExperimentId::Ablations => Some("baseline"),
            _ => None,
        }
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// Which sweep points an experiment runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointSet {
    /// The full grids used for figure regeneration.
    Full,
    /// Reduced grids for the regression smoke suite (`scoop-lab check`).
    Smoke,
}

/// Options for one suite invocation.
#[derive(Clone, Debug)]
pub struct SuiteOptions {
    /// Configuration scale.
    pub scale: Scale,
    /// Trials averaged per scenario.
    pub trials: usize,
    /// Base seed (trial `t` runs with `seed + t`).
    pub seed: u64,
    /// Full or smoke sweep grids.
    pub points: PointSet,
    /// Which experiments to run, in order.
    pub experiments: Vec<ExperimentId>,
    /// String-keyed axis overrides (`("topology", "grid")` style; see
    /// [`scoop_types::AXES`]) applied to the base spec of every experiment,
    /// in order, after scale and seed.
    pub overrides: Vec<(String, String)>,
}

impl SuiteOptions {
    /// The full paper-scale suite: every experiment, 3 trials.
    pub fn paper_full() -> Self {
        SuiteOptions {
            scale: Scale::Paper,
            trials: 3,
            seed: 1,
            points: PointSet::Full,
            experiments: ExperimentId::ALL.to_vec(),
            overrides: Vec::new(),
        }
    }

    /// The quick smoke suite backing `scoop-lab check`: deterministic,
    /// single-trial, reduced grids — small enough for a CI gate. Includes
    /// the 256-node grid scenario so the raised `MAX_NODES` cap stays
    /// exercised on every check.
    pub fn quick_smoke() -> Self {
        SuiteOptions {
            scale: Scale::Quick,
            trials: 1,
            seed: 1,
            points: PointSet::Smoke,
            experiments: vec![
                ExperimentId::Fig3Middle,
                ExperimentId::Fig4,
                ExperimentId::Fig5,
                ExperimentId::Ablations,
                ExperimentId::Reliability,
                ExperimentId::LinkCalibration,
                ExperimentId::Scaling256,
            ],
            overrides: Vec::new(),
        }
    }

    /// The chaos gate suite: the three chaos scenarios at quick scale,
    /// deterministic and single-trial, compared against their own committed
    /// baseline (`crates/scoop-lab/baselines/chaos.json`) so the classic
    /// smoke baseline stays untouched by fault-model work.
    pub fn chaos_smoke() -> Self {
        SuiteOptions {
            scale: Scale::Quick,
            trials: 1,
            seed: 1,
            points: PointSet::Smoke,
            experiments: ExperimentId::CHAOS.to_vec(),
            overrides: Vec::new(),
        }
    }

    /// The workloads gate suite: the range and aggregate workload grids at
    /// quick scale, deterministic and single-trial, compared against their
    /// own committed baseline (`crates/scoop-lab/baselines/workloads.json`)
    /// so the classic smoke baseline stays untouched by workload work.
    pub fn workloads_smoke() -> Self {
        SuiteOptions {
            scale: Scale::Quick,
            trials: 1,
            seed: 1,
            points: PointSet::Smoke,
            experiments: ExperimentId::WORKLOADS.to_vec(),
            overrides: Vec::new(),
        }
    }

    /// The base spec with this suite's seed and axis overrides applied, then
    /// validated. Fails on an unknown axis key, a malformed value (the error
    /// lists the valid axes), or a resolved spec that is out of range — so
    /// `--set` mistakes surface before any simulation runs.
    pub fn base_config(&self) -> Result<ExperimentConfig, ScoopError> {
        let mut cfg = self.scale.base_config();
        cfg.seed = self.seed;
        cfg.apply_axes(self.overrides.iter().map(|(k, v)| (k.as_str(), v.as_str())))?;
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Runs one experiment and returns its rows.
pub fn run_experiment(
    id: ExperimentId,
    base: &ExperimentConfig,
    trials: usize,
    points: PointSet,
) -> Result<RowSet, ScoopError> {
    let smoke = points == PointSet::Smoke;
    match id {
        ExperimentId::Fig3Left => experiments::fig3_left(base, trials).map(RowSet::Fig3),
        ExperimentId::Fig3Middle => experiments::fig3_middle(base, trials).map(RowSet::Fig3),
        ExperimentId::Fig3Right => experiments::fig3_right(base, trials).map(RowSet::Fig3),
        ExperimentId::Fig4 => {
            let widths = if smoke {
                vec![0.05, 0.5]
            } else {
                fig4::default_width_fracs()
            };
            experiments::fig4_selectivity(base, &widths, trials).map(RowSet::Fig4)
        }
        ExperimentId::Fig5 => {
            let intervals = if smoke {
                vec![5, 45]
            } else {
                fig5::default_intervals()
            };
            experiments::fig5_query_interval(base, &intervals, trials).map(RowSet::Fig5)
        }
        ExperimentId::Ablations => {
            experiments::ablation_rows(base, DataSourceKind::Real, trials).map(RowSet::Ablations)
        }
        ExperimentId::SampleInterval => {
            let sources = [
                DataSourceKind::Real,
                DataSourceKind::Random,
                DataSourceKind::Unique,
            ];
            let intervals: &[u64] = if smoke { &[15, 60] } else { &[15, 30, 60, 120] };
            experiments::sample_interval_sweep(base, &sources, intervals, trials)
                .map(RowSet::SampleInterval)
        }
        ExperimentId::Reliability => {
            let policies = [
                StoragePolicy::Scoop,
                StoragePolicy::Local,
                StoragePolicy::Base,
            ];
            experiments::reliability(base, &policies, trials).map(RowSet::Reliability)
        }
        ExperimentId::RootSkew => experiments::root_skew(base, trials).map(RowSet::RootSkew),
        ExperimentId::Scaling => {
            let sizes: Vec<usize> = if smoke {
                vec![8, 16]
            } else if base.num_nodes <= 16 {
                vec![8, 16, 25]
            } else {
                vec![25, 50, 62, 100]
            };
            let sources = [DataSourceKind::Real, DataSourceKind::Random];
            experiments::scaling(base, &sizes, &sources, trials).map(RowSet::Scaling)
        }
        ExperimentId::LinkCalibration => {
            let grid = if smoke {
                experiments::link_calibration::smoke_grid()
            } else {
                experiments::link_calibration::default_grid()
            };
            experiments::link_calibration(base, &grid, trials).map(RowSet::LinkCalibration)
        }
        ExperimentId::Scaling256 => {
            // The large-scale point: a regular grid (the office-floor
            // heuristics were calibrated for ≤ ~100 nodes) at sizes beyond
            // the paper's — including 256, past the old 128-node cap.
            let mut grid_base = base.clone();
            grid_base.topology = scoop_types::TopologySpec {
                kind: scoop_types::TopologyKind::Grid,
                ..grid_base.topology
            };
            let sizes: Vec<usize> = if smoke {
                vec![64, 256]
            } else {
                vec![64, 128, 256]
            };
            let sources = [DataSourceKind::Gaussian];
            experiments::scaling(&grid_base, &sizes, &sources, trials).map(RowSet::Scaling)
        }
        ExperimentId::Scaling4096 | ExperimentId::Scaling32768 => {
            // The engine-scalability stress points. HASH keeps these runs
            // about the engine: its storage index is static (no summaries,
            // no remap — a Scoop remap runs one Dijkstra per producer), so
            // event volume and host time grow with the network. Durations
            // are trimmed so the event count stays proportional to node
            // count — the interesting figures are peak RSS and events/s in
            // the provenance block, not the message totals.
            let mut grid_base = base.clone();
            grid_base.topology = scoop_types::TopologySpec {
                kind: scoop_types::TopologyKind::Grid,
                ..grid_base.topology
            };
            let sizes: Vec<usize> = match (id, points) {
                (ExperimentId::Scaling4096, PointSet::Smoke) => vec![512],
                // 512 — the pre-PR-6 MAX_NODES cap — rides along so the
                // committed artifact spans old ceiling → new stress point.
                (ExperimentId::Scaling4096, PointSet::Full) => vec![512, 1024, 4096],
                (_, PointSet::Smoke) => vec![2048],
                // 32,767 sensors + the basestation = 32,768 nodes, the
                // raised MAX_NODES cap exactly.
                (_, PointSet::Full) => vec![32_767],
            };
            if id == ExperimentId::Scaling32768 {
                grid_base.warmup = scoop_types::SimDuration::from_secs(90);
                grid_base.duration = scoop_types::SimDuration::from_secs(210);
            } else {
                grid_base.warmup = scoop_types::SimDuration::from_secs(120);
                grid_base.duration = scoop_types::SimDuration::from_secs(360);
            }
            let sources = [DataSourceKind::Gaussian];
            experiments::scaling_with_policy(
                &grid_base,
                &sizes,
                &sources,
                StoragePolicy::Hash,
                trials,
            )
            .map(RowSet::Scaling)
        }
        ExperimentId::ChaosPartition => {
            experiments::chaos(base, experiments::ChaosScenario::Partition, trials)
                .map(RowSet::Chaos)
        }
        ExperimentId::ChaosSinkFailover => {
            experiments::chaos(base, experiments::ChaosScenario::SinkFailover, trials)
                .map(RowSet::Chaos)
        }
        ExperimentId::ChaosChurn => {
            experiments::chaos(base, experiments::ChaosScenario::Churn, trials).map(RowSet::Chaos)
        }
        ExperimentId::RangeWidth => {
            let widths = if smoke {
                vec![0.05, 0.5]
            } else {
                experiments::workloads::default_range_widths()
            };
            experiments::range_width(base, &widths, trials).map(RowSet::RangeWidth)
        }
        ExperimentId::AggregateOps => {
            let ops = if smoke {
                vec![
                    scoop_types::AggregateOp::Min,
                    scoop_types::AggregateOp::Quantile(0.5),
                ]
            } else {
                experiments::workloads::default_aggregate_ops()
            };
            experiments::aggregate_ops(base, &ops, trials).map(RowSet::Aggregate)
        }
    }
}

/// Runs every experiment in `options`, timing each, and wraps the results as
/// artifacts. `on_done` is called after each experiment (the CLI uses it for
/// progress output); pass `|_| ()` when silence is wanted.
pub fn run_suite(
    options: &SuiteOptions,
    mut on_done: impl FnMut(&Artifact),
) -> Result<Vec<Artifact>, ScoopError> {
    let base = options.base_config()?;
    let mut artifacts = Vec::with_capacity(options.experiments.len());
    for &id in &options.experiments {
        let events_before = scoop_sim::events_dispatched_total();
        let start = Instant::now();
        let rows = run_experiment(id, &base, options.trials, options.points)?;
        let wall_clock = start.elapsed().as_secs_f64();
        // Delta of the process-wide dispatch counter. Exact for a CLI run;
        // in a test binary running suites concurrently the deltas can bleed
        // into each other, which only perturbs this non-deterministic
        // provenance block — never the rows.
        let events = scoop_sim::events_dispatched_total() - events_before;
        let provenance = Provenance::capture(wall_clock, events);
        let artifact = Artifact::new(id, options, &base, rows, provenance);
        on_done(&artifact);
        artifacts.push(artifact);
    }
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for id in ExperimentId::ALL {
            assert_eq!(ExperimentId::from_slug(id.slug()), Some(id));
            assert!(seen.insert(id.slug()), "duplicate slug {}", id.slug());
        }
        assert_eq!(ExperimentId::from_slug("fig9"), None);
    }

    #[test]
    fn smoke_suite_runs_and_times_every_experiment() {
        let options = SuiteOptions::quick_smoke();
        let mut seen = Vec::new();
        let artifacts = run_suite(&options, |a| seen.push(a.experiment.clone())).unwrap();
        assert_eq!(artifacts.len(), options.experiments.len());
        assert_eq!(seen.len(), artifacts.len());
        for artifact in &artifacts {
            assert!(
                !artifact.rows.is_empty(),
                "{} is empty",
                artifact.experiment
            );
            assert!(artifact.provenance.wall_clock_secs >= 0.0);
            assert_eq!(artifact.scale, "quick");
        }
    }

    #[test]
    fn base_config_validates_the_resolved_spec() {
        // Parseable but out-of-range values fail at resolution time, before
        // any simulation runs (and before --show-spec prints a bogus spec).
        let mut options = SuiteOptions::quick_smoke();
        options
            .overrides
            .push(("link.loss_floor".to_string(), "1.5".to_string()));
        assert!(options.base_config().is_err());

        let mut options = SuiteOptions::quick_smoke();
        options
            .overrides
            .push(("nodes".to_string(), "100000".to_string()));
        assert!(options.base_config().is_err());
    }

    #[test]
    fn smoke_points_reduce_the_grids() {
        let base = Scale::Quick.base_config();
        let full = run_experiment(ExperimentId::Fig5, &base, 1, PointSet::Full).unwrap();
        let smoke = run_experiment(ExperimentId::Fig5, &base, 1, PointSet::Smoke).unwrap();
        assert!(smoke.len() < full.len());
    }
}
