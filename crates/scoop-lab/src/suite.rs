//! The experiment suite: every figure/table the lab can run, with one stable
//! identifier per experiment.
//!
//! [`ExperimentId`] is the single enumeration the CLI, the artifact store,
//! the baselines, and the bench harness all key on. Each experiment is
//! declared once, as one entry of the `EXPERIMENTS` table: its slug, title,
//! reference row, and the call into `scoop_sim::experiments` that runs it
//! (every grid executes on the parallel
//! [`SweepRunner`](scoop_sim::SweepRunner) inside). [`run_experiment`] calls
//! that entry, and [`run_suite`] runs a list of experiments, recording
//! per-experiment wall-clock into [`Artifact`]s.

use crate::artifact::{Artifact, Provenance};
use crate::rows::RowSet;
use scoop_sim::experiments::{self, calibration, fig4, fig5, workloads, ChaosScenario};
use scoop_types::{
    AggregateOp, DataSourceKind, ScenarioSpec, ScoopError, SimDuration, StoragePolicy, TopologyKind,
};
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
    pub fn base_config(self) -> ScenarioSpec {
        match self {
            Scale::Paper => ScenarioSpec::paper_defaults(),
            Scale::Quick => ScenarioSpec::small_test(),
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

/// One experiment of the paper's evaluation. Each variant's slug, title,
/// reference row and run function are its one entry of the `EXPERIMENTS`
/// table, which sits at the variant's declaration index.
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
    /// The link-model calibration: SCOOP and BASE over the LinkSpec knob
    /// grid, scored against the paper's reliability and cost targets.
    Calibration,
    /// The root-skew analysis.
    RootSkew,
    /// The scaling study.
    Scaling,
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

/// Which sweep points an experiment runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointSet {
    /// The full grids used for figure regeneration.
    Full,
    /// Reduced grids for the regression smoke suite (`scoop-lab check`).
    Smoke,
}

impl PointSet {
    /// `smoke` under [`PointSet::Smoke`], `full` under [`PointSet::Full`].
    fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            PointSet::Smoke => smoke,
            PointSet::Full => full,
        }
    }
}

/// The declaration of one experiment: the accessors of [`ExperimentId`]
/// read these fields.
struct Experiment {
    id: ExperimentId,
    slug: &'static str,
    title: &'static str,
    reference_key: Option<&'static str>,
    run: fn(&ScenarioSpec, usize, PointSet) -> Result<RowSet, ScoopError>,
}

/// The scaling study of `policy` over GAUSSIAN data on a regular grid: the
/// office-floor heuristics were calibrated for ≤ ~100 nodes, and the
/// large-scale points go far beyond that.
fn grid_scaling(
    base: &ScenarioSpec,
    policy: StoragePolicy,
    sizes: &[usize],
    trials: usize,
) -> Result<RowSet, ScoopError> {
    let mut cfg = base.clone();
    cfg.topology.kind = TopologyKind::Grid;
    let sources = [DataSourceKind::Gaussian];
    experiments::scaling(&cfg, sizes, &sources, policy, trials).map(RowSet::Scaling)
}

/// The engine-scalability stress points: HASH keeps these runs about the
/// engine. Its storage index is static (no summaries, no remap — a Scoop
/// remap runs one Dijkstra per producer), so event volume and host time grow
/// with the network. Warmup and duration (seconds) are trimmed so the event
/// count stays proportional to node count — the interesting figures are
/// peak RSS and events/s in the provenance block, not the message totals.
fn hash_grid(
    base: &ScenarioSpec,
    sizes: &[usize],
    (warmup, duration): (u64, u64),
    trials: usize,
) -> Result<RowSet, ScoopError> {
    let mut cfg = base.clone();
    cfg.warmup = SimDuration::from_secs(warmup);
    cfg.duration = SimDuration::from_secs(duration);
    grid_scaling(&cfg, StoragePolicy::Hash, sizes, trials)
}

/// Every experiment, in the order `run`/`report` process them; entry `i`
/// declares the `ExperimentId` variant declared `i`-th.
const EXPERIMENTS: [Experiment; 19] = [
    Experiment {
        id: ExperimentId::Fig3Left,
        slug: "fig3-left",
        title: "Figure 3 (left): testbed comparison",
        reference_key: Some("base/gaussian"),
        run: |base, trials, _| experiments::fig3_left(base, trials).map(RowSet::Fig3),
    },
    Experiment {
        id: ExperimentId::Fig3Middle,
        slug: "fig3-middle",
        title: "Figure 3 (middle): policies on the REAL trace",
        reference_key: Some("base/real"),
        run: |base, trials, _| experiments::fig3_middle(base, trials).map(RowSet::Fig3),
    },
    Experiment {
        id: ExperimentId::Fig3Right,
        slug: "fig3-right",
        title: "Figure 3 (right): Scoop across data sources",
        reference_key: Some("scoop/real"),
        run: |base, trials, _| experiments::fig3_right(base, trials).map(RowSet::Fig3),
    },
    Experiment {
        id: ExperimentId::Fig4,
        slug: "fig4",
        title: "Figure 4: cost vs. % of nodes queried",
        reference_key: None,
        run: |base, trials, points| {
            let widths: &[f64] = points.pick(&[0.05, 0.5], &fig4::DEFAULT_WIDTH_FRACS);
            experiments::fig4_selectivity(base, widths, trials).map(RowSet::Fig4)
        },
    },
    Experiment {
        id: ExperimentId::Fig5,
        slug: "fig5",
        title: "Figure 5: cost vs. query interval",
        reference_key: None,
        run: |base, trials, points| {
            let intervals: &[u64] = points.pick(&[5, 45], &fig5::DEFAULT_INTERVALS);
            experiments::fig5_query_interval(base, intervals, trials).map(RowSet::Fig5)
        },
    },
    Experiment {
        id: ExperimentId::Ablations,
        slug: "ablations",
        title: "Ablations (SCOOP on the REAL trace)",
        reference_key: Some("baseline"),
        run: |base, trials, _| {
            experiments::ablation_rows(base, DataSourceKind::Real, trials).map(RowSet::Ablations)
        },
    },
    Experiment {
        id: ExperimentId::SampleInterval,
        slug: "sample-interval",
        title: "Sample-interval sweep",
        reference_key: None,
        run: |base, trials, points| {
            let sources = [
                DataSourceKind::Real,
                DataSourceKind::Random,
                DataSourceKind::Unique,
            ];
            let intervals: &[u64] = points.pick(&[15, 60], &[15, 30, 60, 120]);
            experiments::sample_interval_sweep(base, &sources, intervals, trials)
                .map(RowSet::SampleInterval)
        },
    },
    Experiment {
        id: ExperimentId::Reliability,
        slug: "reliability",
        title: "Reliability",
        reference_key: None,
        run: |base, trials, _| {
            experiments::reliability(base, &experiments::POLICIES, trials).map(RowSet::Reliability)
        },
    },
    Experiment {
        id: ExperimentId::Calibration,
        slug: "calibration",
        title: "Link calibration (LinkSpec knobs vs. the paper targets)",
        reference_key: None,
        run: |base, trials, points| {
            let grid = points.pick(calibration::smoke_grid(), calibration::default_grid());
            experiments::calibration(base, &grid, trials).map(RowSet::Calibration)
        },
    },
    Experiment {
        id: ExperimentId::RootSkew,
        slug: "root-skew",
        title: "Root-node skew",
        reference_key: None,
        run: |base, trials, _| experiments::root_skew(base, trials).map(RowSet::RootSkew),
    },
    Experiment {
        id: ExperimentId::Scaling,
        slug: "scaling",
        title: "Scaling study",
        reference_key: None,
        run: |base, trials, points| {
            let full = if base.num_nodes <= 16 {
                vec![8, 16, 25]
            } else {
                vec![25, 50, 62, 100]
            };
            let sizes = points.pick(vec![8, 16], full);
            let sources = [DataSourceKind::Real, DataSourceKind::Random];
            experiments::scaling(base, &sizes, &sources, StoragePolicy::Scoop, trials)
                .map(RowSet::Scaling)
        },
    },
    Experiment {
        id: ExperimentId::Scaling256,
        slug: "scaling-256",
        title: "Scaling to 256 nodes (grid topology)",
        reference_key: None,
        // Sizes beyond the paper's, including 256, past the old 128-node cap.
        run: |base, trials, points| {
            let sizes = points.pick(vec![64, 256], vec![64, 128, 256]);
            grid_scaling(base, StoragePolicy::Scoop, &sizes, trials)
        },
    },
    Experiment {
        id: ExperimentId::Scaling4096,
        slug: "scaling-4096",
        title: "Scaling to 4096 nodes (grid, HASH policy)",
        reference_key: None,
        // 512, the old MAX_NODES cap, rides along so the committed artifact
        // spans old ceiling → new stress point.
        run: |base, trials, points| {
            let sizes = points.pick(vec![512], vec![512, 1024, 4096]);
            hash_grid(base, &sizes, (120, 360), trials)
        },
    },
    Experiment {
        id: ExperimentId::Scaling32768,
        slug: "scaling-32768",
        title: "Scaling to 32k nodes (grid, HASH policy)",
        reference_key: None,
        // 32,767 sensors + the basestation = 32,768 nodes, the raised
        // MAX_NODES cap exactly.
        run: |base, trials, points| {
            let sizes = points.pick(vec![2048], vec![32_767]);
            hash_grid(base, &sizes, (90, 210), trials)
        },
    },
    Experiment {
        id: ExperimentId::ChaosPartition,
        slug: "chaos-partition",
        title: "Chaos: network partition (50 % isolated, healed)",
        reference_key: None,
        run: |base, trials, _| {
            experiments::chaos(base, ChaosScenario::Partition, trials).map(RowSet::Chaos)
        },
    },
    Experiment {
        id: ExperimentId::ChaosSinkFailover,
        slug: "chaos-failover",
        title: "Chaos: basestation failover (2-sink federation)",
        reference_key: None,
        run: |base, trials, _| {
            experiments::chaos(base, ChaosScenario::SinkFailover, trials).map(RowSet::Chaos)
        },
    },
    Experiment {
        id: ExperimentId::ChaosChurn,
        slug: "chaos-churn",
        title: "Chaos: mass churn (25 % killed, 25 % joined)",
        reference_key: None,
        run: |base, trials, _| {
            experiments::chaos(base, ChaosScenario::Churn, trials).map(RowSet::Chaos)
        },
    },
    Experiment {
        id: ExperimentId::RangeWidth,
        slug: "range-width",
        title: "Range workloads: cost vs. fixed query width",
        reference_key: None,
        run: |base, trials, points| {
            let widths: &[f64] = points.pick(&[0.05, 0.5], &workloads::DEFAULT_RANGE_WIDTHS);
            experiments::range_width(base, widths, trials).map(RowSet::RangeWidth)
        },
    },
    Experiment {
        id: ExperimentId::AggregateOps,
        slug: "aggregate-ops",
        title: "Aggregate workloads: cost per operator",
        reference_key: None,
        run: |base, trials, points| {
            let smoke = &[AggregateOp::Min, AggregateOp::Quantile(0.5)];
            let ops: &[AggregateOp] = points.pick(smoke, &workloads::DEFAULT_AGGREGATE_OPS);
            experiments::aggregate_ops(base, ops, trials).map(RowSet::Aggregate)
        },
    },
];

// Entry `i` declares the variant with discriminant `i`: the ids are
// distinct, and `EXPERIMENTS[id as usize]` is `id`'s entry.
const _: () = {
    let mut i = 0;
    while i < EXPERIMENTS.len() {
        assert!(EXPERIMENTS[i].id as usize == i);
        i += 1;
    }
};

impl ExperimentId {
    /// Every experiment, in the order `run`/`report` process them.
    pub const ALL: [ExperimentId; EXPERIMENTS.len()] = {
        let mut all = [ExperimentId::Fig3Left; EXPERIMENTS.len()];
        let mut i = 0;
        while i < all.len() {
            all[i] = EXPERIMENTS[i].id;
            i += 1;
        }
        all
    };

    /// The chaos scenario family, in suite order.
    pub const CHAOS: [ExperimentId; 3] = [
        ExperimentId::ChaosPartition,
        ExperimentId::ChaosSinkFailover,
        ExperimentId::ChaosChurn,
    ];

    /// This experiment's `EXPERIMENTS` entry.
    fn entry(self) -> &'static Experiment {
        &EXPERIMENTS[self as usize]
    }

    /// Stable slug used for CLI selection and artifact file names.
    pub fn slug(self) -> &'static str {
        self.entry().slug
    }

    /// Human-readable title used in tables and EXPERIMENTS.md headings.
    pub fn title(self) -> &'static str {
        self.entry().title
    }

    /// Parses a slug (as typed on the CLI).
    pub fn from_slug(slug: &str) -> Option<ExperimentId> {
        EXPERIMENTS.iter().find(|e| e.slug == slug).map(|e| e.id)
    }

    /// The row key the normalized `total_vs_ref` metric divides by, if this
    /// experiment's figure argues in ratios (see [`RowSet::measured_rows`]):
    /// the panel's BASE bar for Figure 3 left/middle, the REAL bar for
    /// Figure 3 right, and the unmodified variant for the ablations.
    pub fn reference_key(self) -> Option<&'static str> {
        self.entry().reference_key
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
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
    /// The quick smoke suite backing `scoop-lab check`: deterministic,
    /// single-trial, reduced grids — small enough for a CI gate. Includes
    /// the 256-node grid scenario so the raised `MAX_NODES` cap stays
    /// exercised, the three chaos scenarios (the failover one is where the
    /// multi-sink federation runs), and the range and aggregate workloads.
    pub fn quick_smoke() -> Self {
        let mut experiments = vec![
            ExperimentId::Fig3Middle,
            ExperimentId::Fig4,
            ExperimentId::Fig5,
            ExperimentId::Ablations,
            ExperimentId::Reliability,
            ExperimentId::Calibration,
            ExperimentId::Scaling256,
        ];
        experiments.extend(ExperimentId::CHAOS);
        experiments.extend([ExperimentId::RangeWidth, ExperimentId::AggregateOps]);
        SuiteOptions {
            scale: Scale::Quick,
            trials: 1,
            seed: 1,
            points: PointSet::Smoke,
            experiments,
            overrides: Vec::new(),
        }
    }

    /// The base spec with this suite's seed and axis overrides applied, then
    /// validated. Fails on zero trials, an unknown axis key, a malformed
    /// value (the error lists the valid axes), or a resolved spec that is out
    /// of range — so these mistakes surface before any simulation runs, and
    /// an artifact never records a trial count it did not run.
    pub fn base_config(&self) -> Result<ScenarioSpec, ScoopError> {
        if self.trials == 0 {
            return Err(ScoopError::InvalidConfig(
                "trials must be at least 1".into(),
            ));
        }
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
    base: &ScenarioSpec,
    trials: usize,
    points: PointSet,
) -> Result<RowSet, ScoopError> {
    (id.entry().run)(base, trials, points)
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
    use std::collections::HashSet;

    #[test]
    fn slugs_round_trip_and_are_unique() {
        let (mut slugs, mut titles) = (HashSet::new(), HashSet::new());
        for id in ExperimentId::ALL {
            assert_eq!(ExperimentId::from_slug(id.slug()), Some(id));
            assert!(slugs.insert(id.slug()), "duplicate slug {}", id.slug());
            assert!(titles.insert(id.title()), "duplicate title {}", id.title());
        }
        assert_eq!(ExperimentId::from_slug("fig9"), None);

        // Every variant has exactly one table entry. The match below has no
        // wildcard arm, so a new variant does not compile until it is listed
        // here, and then fails until it has its entry.
        use ExperimentId::*;
        let every = [
            Fig3Left,
            Fig3Middle,
            Fig3Right,
            Fig4,
            Fig5,
            Ablations,
            SampleInterval,
            Reliability,
            Calibration,
            RootSkew,
            Scaling,
            Scaling256,
            Scaling4096,
            Scaling32768,
            ChaosPartition,
            ChaosSinkFailover,
            ChaosChurn,
            RangeWidth,
            AggregateOps,
        ];
        for id in every {
            match id {
                Fig3Left | Fig3Middle | Fig3Right | Fig4 | Fig5 | Ablations | SampleInterval
                | Reliability | Calibration | RootSkew | Scaling | Scaling256 | Scaling4096
                | Scaling32768 | ChaosPartition | ChaosSinkFailover | ChaosChurn | RangeWidth
                | AggregateOps => {}
            }
            let entries = EXPERIMENTS.iter().filter(|e| e.id == id).count();
            assert_eq!(entries, 1, "{id:?} has {entries} table entries");
        }
        assert_eq!(EXPERIMENTS.len(), every.len());
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
    fn zero_trials_are_rejected_before_anything_runs() {
        let options = SuiteOptions {
            trials: 0,
            experiments: vec![ExperimentId::Fig5],
            ..SuiteOptions::quick_smoke()
        };
        let mut finished = 0;
        let err = run_suite(&options, |_| finished += 1).unwrap_err();
        assert!(
            matches!(&err, ScoopError::InvalidConfig(m) if m.contains("trials")),
            "{err}"
        );
        assert_eq!(finished, 0, "no experiment may run");
    }

    #[test]
    fn smoke_points_reduce_the_grids() {
        let base = Scale::Quick.base_config();
        let full = run_experiment(ExperimentId::Fig5, &base, 1, PointSet::Full).unwrap();
        let smoke = run_experiment(ExperimentId::Fig5, &base, 1, PointSet::Smoke).unwrap();
        assert!(smoke.len() < full.len());
    }
}
