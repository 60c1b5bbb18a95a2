//! The composable scenario specification: one serializable component per
//! simulation axis.
//!
//! A [`ScenarioSpec`] fully describes one experiment run. Every axis that
//! used to be welded into the engine-construction code is an explicit,
//! serializable component here:
//!
//! * [`TopologySpec`] — placement family plus arena / jitter / radio-range
//!   parameters;
//! * [`LinkSpec`] — loss-model family plus calibration knobs (loss floor,
//!   edge delivery, distance exponent, asymmetry noise);
//! * [`WorkloadSpec`] — data source, sampling, attribute/domain, and the
//!   query distribution;
//! * [`PolicySpec`] — storage policy plus the Scoop protocol parameters;
//! * [`FaultSpec`] — scheduled radio-outage windows (node death / churn).
//!
//! `scoop_sim::SimBuilder` assembles an engine from a spec through the
//! standard topology and link generators in `scoop-net`, and the
//! string-keyed *axis registry* ([`ScenarioSpec::set_axis`]) lets the CLI,
//! sweep grids, and benches override any axis without recompiling
//! (`topology=grid`, `link.loss_floor=0.1`, `nodes=96`, ...).

use crate::config::{DataSourceKind, QueryWorkloadConfig, ScoopParams, StoragePolicy};
use crate::sketch::{AggregateOp, AggregateSpec};
use crate::{Attribute, NodeId, ScoopError, SimDuration, ValueRange, MAX_NODES};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which placement generator builds the node layout.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum TopologyKind {
    /// Jittered grid across a long rectangular office floor, basestation at
    /// one end. Mimics the paper's 62-node indoor testbed: multi-hop depth of
    /// roughly 4–6 hops and ~20 % pairwise connectivity.
    OfficeFloor,
    /// Regular square grid, basestation in a corner.
    Grid,
    /// Uniform random placement in a square arena, basestation centered.
    UniformRandom,
    /// A straight line of nodes; the deepest possible routing tree.
    Linear,
}

impl TopologyKind {
    /// All kinds, in registry order.
    pub const ALL: [TopologyKind; 4] = [
        TopologyKind::OfficeFloor,
        TopologyKind::Grid,
        TopologyKind::UniformRandom,
        TopologyKind::Linear,
    ];

    /// Short lowercase name used by the axis registry and reports.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::OfficeFloor => "office",
            TopologyKind::Grid => "grid",
            TopologyKind::UniformRandom => "random",
            TopologyKind::Linear => "linear",
        }
    }

    /// Parses a registry name.
    pub fn from_name(name: &str) -> Option<TopologyKind> {
        match name {
            "office" | "office-floor" | "office_floor" => Some(TopologyKind::OfficeFloor),
            "grid" => Some(TopologyKind::Grid),
            "random" | "uniform" | "uniform-random" => Some(TopologyKind::UniformRandom),
            "linear" | "line" => Some(TopologyKind::Linear),
            _ => None,
        }
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Node-placement axis: generator family plus its geometry parameters.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct TopologySpec {
    /// The placement family.
    pub kind: TopologyKind,
    /// Arena density in square meters per node (office floor and uniform
    /// random placements).
    pub area_per_node: f64,
    /// Placement jitter as a fraction of the grid cell (office floor only;
    /// `0` disables jitter entirely).
    pub jitter: f64,
    /// Distance between adjacent nodes in meters (grid and linear layouts).
    pub spacing: f64,
    /// Multiplier on the family's natural radio range (`1.0` keeps the
    /// calibrated default; `<1` thins connectivity, `>1` thickens it).
    pub range_factor: f64,
}

impl TopologySpec {
    /// The paper's testbed-like office floor with the calibrated defaults.
    pub fn office_floor() -> Self {
        TopologySpec {
            kind: TopologyKind::OfficeFloor,
            ..Self::base()
        }
    }

    /// A regular grid with the default 10 m spacing.
    pub fn grid() -> Self {
        TopologySpec {
            kind: TopologyKind::Grid,
            ..Self::base()
        }
    }

    /// Uniform random placement with the default density.
    pub fn uniform_random() -> Self {
        TopologySpec {
            kind: TopologyKind::UniformRandom,
            ..Self::base()
        }
    }

    /// A linear chain with the default 10 m spacing.
    pub fn linear() -> Self {
        TopologySpec {
            kind: TopologyKind::Linear,
            ..Self::base()
        }
    }

    fn base() -> Self {
        TopologySpec {
            kind: TopologyKind::OfficeFloor,
            area_per_node: 25.0,
            jitter: 0.35,
            spacing: 10.0,
            range_factor: 1.0,
        }
    }

    /// Validates the geometry parameters. As in [`LinkSpec::validate`], each
    /// check asserts the valid range, so `NaN` and `±∞` knobs fail it.
    pub fn validate(&self) -> Result<(), ScoopError> {
        for (knob, x) in [
            ("area_per_node", self.area_per_node),
            ("spacing", self.spacing),
            ("range_factor", self.range_factor),
        ] {
            if !(x > 0.0 && x.is_finite()) {
                return Err(ScoopError::InvalidConfig(format!(
                    "topology.{knob} must be finite and > 0"
                )));
            }
        }
        if !(0.0..0.5).contains(&self.jitter) {
            return Err(ScoopError::InvalidConfig(
                "topology.jitter must be in [0, 0.5)".into(),
            ));
        }
        Ok(())
    }
}

impl Default for TopologySpec {
    /// The paper's office-floor testbed layout.
    fn default() -> Self {
        Self::office_floor()
    }
}

/// Which loss-model family derives link quality from the topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum LinkFamily {
    /// Delivery probability decays with distance from `1 - loss_floor` at
    /// zero range to `edge_delivery` at the radio-range edge, with
    /// per-direction asymmetry noise. This is the (previously hardcoded)
    /// model calibrated to the paper's 25–90 % loss band.
    DistanceDecay,
    /// Every in-range directed link delivers with probability 1 (isolates
    /// protocol logic from loss).
    Perfect,
}

impl LinkFamily {
    /// Short lowercase name used by the axis registry.
    pub fn name(self) -> &'static str {
        match self {
            LinkFamily::DistanceDecay => "distance",
            LinkFamily::Perfect => "perfect",
        }
    }

    /// Parses a registry name.
    pub fn from_name(name: &str) -> Option<LinkFamily> {
        match name {
            "distance" | "distance-decay" | "distance_decay" => Some(LinkFamily::DistanceDecay),
            "perfect" | "lossless" => Some(LinkFamily::Perfect),
            _ => None,
        }
    }
}

impl fmt::Display for LinkFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Link-loss axis: model family plus calibration knobs.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct LinkSpec {
    /// The loss-model family.
    pub family: LinkFamily,
    /// Loss probability of the very best (zero-distance) link; delivery at
    /// distance 0 is `1 - loss_floor`. The shipped default is `0.10`
    /// (`LinkSpec::legacy()`: `0.22`).
    pub loss_floor: f64,
    /// Delivery probability right at the radio-range edge. The shipped
    /// default is `0.20` (`LinkSpec::legacy()`: `0.10`).
    pub edge_delivery: f64,
    /// Shape of the decay between the two endpoints: delivery falls with
    /// `(d / range) ^ distance_exponent`. `1.0` is linear decay; `> 1` keeps
    /// near links good and punishes far ones harder. The shipped default is
    /// `2.0` (`LinkSpec::legacy()`: `1.0`).
    pub distance_exponent: f64,
    /// Standard deviation of the per-direction noise added to delivery
    /// probability (produces the paper's "slightly asymmetric" links). The
    /// shipped default is `0.06`, as in `LinkSpec::legacy()`.
    pub asymmetry_noise: f64,
}

impl LinkSpec {
    /// The original hardcoded distance-decay model (the pre-calibration
    /// default): linear decay from 78 % delivery at distance 0 to 10 % at
    /// the range edge. `LinkModel::from_topology` builds with these knobs,
    /// and they are the anchor point of the calibration grid that the
    /// calibrated model beats.
    pub fn legacy() -> Self {
        LinkSpec {
            family: LinkFamily::DistanceDecay,
            loss_floor: 0.22,
            edge_delivery: 0.10,
            distance_exponent: 1.0,
            asymmetry_noise: 0.06,
        }
    }

    /// The calibrated distance-decay model: the argmin of the committed
    /// `results/calibration.json` grid search against the paper's
    /// reliability prose numbers and Figure 3 cost ratio (regenerated by
    /// `scoop-lab run calibration`). Quadratic decay keeps near links good while
    /// still reaching the paper's loss band toward the range edge; at paper
    /// scale this point measures ~86 % storage / ~78 % query success with a
    /// SCOOP/BASE cost ratio of ~0.75 — all three inside the paper
    /// tolerances.
    pub fn calibrated() -> Self {
        LinkSpec {
            family: LinkFamily::DistanceDecay,
            loss_floor: 0.10,
            edge_delivery: 0.20,
            distance_exponent: 2.0,
            asymmetry_noise: 0.06,
        }
    }

    /// The defaults used to reproduce the paper — the calibrated model.
    pub fn paper_defaults() -> Self {
        Self::calibrated()
    }

    /// A loss-free model.
    pub fn perfect() -> Self {
        LinkSpec {
            family: LinkFamily::Perfect,
            ..Self::paper_defaults()
        }
    }

    /// Delivery probability of a zero-distance link.
    pub fn max_delivery(&self) -> f64 {
        1.0 - self.loss_floor
    }

    /// Largest accepted `distance_exponent`. Beyond this the decay curve is
    /// numerically a step function (every link is either pristine or at the
    /// edge floor), which no physical radio model needs — and enormous
    /// exponents are almost always a typo'd calibration value.
    pub const MAX_DISTANCE_EXPONENT: f64 = 64.0;

    /// Validates the calibration knobs.
    ///
    /// Every comparison is written so that a `NaN` knob *fails* it (a `NaN`
    /// compares false against everything, so the checks assert the valid
    /// range rather than testing for the invalid one), and the exponent is
    /// additionally capped at [`Self::MAX_DISTANCE_EXPONENT`] and required
    /// finite. Adversarial specs get a typed [`ScoopError::InvalidConfig`],
    /// never a panic or a silently-NaN link table.
    pub fn validate(&self) -> Result<(), ScoopError> {
        if !(0.0..1.0).contains(&self.loss_floor) {
            return Err(ScoopError::InvalidConfig(
                "link.loss_floor must be in [0, 1)".into(),
            ));
        }
        if !(self.edge_delivery > 0.0 && self.edge_delivery <= 1.0) {
            return Err(ScoopError::InvalidConfig(
                "link.edge_delivery must be in (0, 1]".into(),
            ));
        }
        // `loss_floor` and `edge_delivery` are already known finite here, so
        // a plain comparison is NaN-safe.
        if self.edge_delivery > self.max_delivery() {
            return Err(ScoopError::InvalidConfig(
                "link.edge_delivery must not exceed 1 - link.loss_floor".into(),
            ));
        }
        if !(self.distance_exponent > 0.0 && self.distance_exponent <= Self::MAX_DISTANCE_EXPONENT)
        {
            return Err(ScoopError::InvalidConfig(format!(
                "link.distance_exponent must be in (0, {}]",
                Self::MAX_DISTANCE_EXPONENT
            )));
        }
        if !(self.asymmetry_noise >= 0.0 && self.asymmetry_noise.is_finite()) {
            return Err(ScoopError::InvalidConfig(
                "link.asymmetry_noise must be finite and >= 0".into(),
            ));
        }
        Ok(())
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Which query shape the basestation's workload issues.
///
/// `Point` is the seed behavior: narrow value queries drawn from the
/// `queries` width band. The two newer kinds exercise the query shapes the
/// paper's competitors were built for — fixed-width range queries and
/// whole-domain aggregates (see `docs/WORKLOADS.md` for the full contract,
/// including how each policy routes each kind).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// The seed behavior: value queries drawn from the configured
    /// `min_width_frac..=max_width_frac` band.
    #[default]
    Point,
    /// Fixed-width range queries: every query covers exactly `width_frac` of
    /// the value domain, with a uniformly drawn lower bound.
    Range(RangeWorkload),
    /// Whole-domain aggregate queries, answered in-network by merging
    /// partial aggregates hop-by-hop up the routing tree.
    Aggregate(AggregateSpec),
}

/// Knobs of the fixed-width range workload.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RangeWorkload {
    /// Query width as a fraction of the value domain, `(0, 1]`.
    pub width_frac: f64,
}

impl WorkloadKind {
    /// Default range width when an axis flips the kind without supplying it.
    pub const DEFAULT_RANGE_WIDTH: f64 = 0.05;
    /// Default quantile error budget.
    pub const DEFAULT_EPSILON: f64 = 0.05;

    /// A range workload of the given width.
    pub fn range(width_frac: f64) -> Self {
        WorkloadKind::Range(RangeWorkload { width_frac })
    }

    /// An aggregate workload with the given operator and error budget.
    pub fn aggregate(op: AggregateOp, epsilon: f64) -> Self {
        WorkloadKind::Aggregate(AggregateSpec { op, epsilon })
    }

    /// Whether this is the seed point-query workload (the serde skip
    /// predicate: a `Point` spec serializes exactly as before the kind
    /// existed).
    pub fn is_point(&self) -> bool {
        matches!(self, WorkloadKind::Point)
    }

    /// The aggregate clause queries of this kind carry, if any.
    pub fn aggregate_spec(&self) -> Option<AggregateSpec> {
        match *self {
            WorkloadKind::Aggregate(spec) => Some(spec),
            _ => None,
        }
    }
}

/// Workload axis: what the sensors produce and what the basestation asks.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Which data source drives the sensors.
    pub data_source: DataSourceKind,
    /// Interval between sensor samples on each node (paper: 15 s).
    pub sample_interval: SimDuration,
    /// The attribute being indexed (the REAL trace is light data).
    pub attribute: Attribute,
    /// The attribute's value domain. The synthetic sources use `[0, 100]`;
    /// the REAL trace uses roughly 150 distinct values.
    pub value_domain: ValueRange,
    /// Query workload parameters.
    pub queries: QueryWorkloadConfig,
    /// The query shape (point / range / aggregate). Defaults to the seed
    /// point workload and is skipped when serializing it, so every committed
    /// artifact keeps its byte-identical shape.
    #[serde(default, skip_serializing_if = "WorkloadKind::is_point")]
    pub kind: WorkloadKind,
}

impl WorkloadSpec {
    /// Section 6's workload: REAL light data, 15-second samples and queries
    /// over 1–5 % of the domain.
    pub fn paper_defaults() -> Self {
        WorkloadSpec {
            data_source: DataSourceKind::Real,
            sample_interval: SimDuration::from_secs(15),
            attribute: Attribute::Light,
            value_domain: ValueRange::new(0, 149),
            queries: QueryWorkloadConfig::default(),
            kind: WorkloadKind::Point,
        }
    }
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Upper bound on configured basestations. Index-version encoding reserves
/// six bits for the issuing sink's rank (see `docs/FAULTS.md`).
pub const MAX_SINKS: usize = 64;

/// Policy axis: which storage scheme runs and its protocol parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicySpec {
    /// Which storage policy the network runs.
    pub kind: StoragePolicy,
    /// Scoop protocol parameters (ignored by the other policies).
    pub scoop: ScoopParams,
    /// The basestation role: the node ids running a sink (statistics,
    /// remapping, queries). Empty — the default, and the only mode the paper
    /// evaluates — means the classic single sink, node 0. A non-empty list
    /// must include node 0 and may promote sensor ids to additional sinks;
    /// attribute ownership is then hash-partitioned across the live sinks
    /// (see `docs/FAULTS.md`).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub basestations: Vec<NodeId>,
}

impl PolicySpec {
    /// SCOOP with the paper's protocol parameters.
    pub fn paper_defaults() -> Self {
        PolicySpec {
            kind: StoragePolicy::Scoop,
            scoop: ScoopParams::default(),
            basestations: Vec::new(),
        }
    }

    /// The effective sink set: `[0]` in the classic single-sink mode, the
    /// configured list (ascending, deduplicated) otherwise.
    pub fn sink_ids(&self) -> Vec<NodeId> {
        if self.basestations.is_empty() {
            return vec![NodeId::BASESTATION];
        }
        let mut sinks = self.basestations.clone();
        sinks.sort();
        sinks.dedup();
        sinks
    }
}

impl Default for PolicySpec {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// One scheduled radio-outage window.
///
/// Affected nodes keep their CPU state (timers still fire) but neither
/// transmit nor receive while the window is open — the radio-level model of
/// node death, and of churn when the window closes before the run ends.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// Offset from simulation start at which the outage begins.
    pub start: SimDuration,
    /// Offset from simulation start at which the outage ends (exclusive).
    pub end: SimDuration,
    /// Fraction of sensor nodes affected, chosen deterministically from the
    /// run seed. Ignored when `nodes` is non-empty.
    pub fraction: f64,
    /// Explicit node ids to affect instead of a seeded sample. The
    /// basestation (node 0) is never affected.
    pub nodes: Vec<u16>,
}

impl FaultWindow {
    /// A window killing a seeded `fraction` of sensors between `start` and
    /// `end` (seconds from simulation start).
    pub fn blackout(start_secs: u64, end_secs: u64, fraction: f64) -> Self {
        FaultWindow {
            start: SimDuration::from_secs(start_secs),
            end: SimDuration::from_secs(end_secs),
            fraction,
            nodes: Vec::new(),
        }
    }
}

/// One scheduled network partition: for the window, no link delivers across
/// the cut, in either direction. Nodes on the same side keep communicating.
///
/// The isolated side is either an explicit id set or a seeded `fraction` of
/// sensors; every other node (always including the basestation unless it is
/// listed explicitly) forms the other side.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// Offset from simulation start at which the cut opens.
    pub start: SimDuration,
    /// Offset from simulation start at which the cut heals (exclusive).
    pub end: SimDuration,
    /// Fraction of sensor nodes on the isolated side, chosen
    /// deterministically from the run seed. Ignored when `nodes` is
    /// non-empty.
    pub fraction: f64,
    /// Explicit node ids forming the isolated side instead of a seeded
    /// sample.
    pub nodes: Vec<u16>,
}

impl PartitionWindow {
    /// A partition isolating a seeded `fraction` of sensors between
    /// `start_secs` and `end_secs`.
    pub fn seeded(start_secs: u64, end_secs: u64, fraction: f64) -> Self {
        PartitionWindow {
            start: SimDuration::from_secs(start_secs),
            end: SimDuration::from_secs(end_secs),
            fraction,
            nodes: Vec::new(),
        }
    }
}

/// One scheduled basestation (sink) crash-restart window: the sink's CPU
/// halts — no dispatching, remapping, or query issuing — and its radio is
/// off. Timers elsewhere keep firing; the sink's own pending timers are
/// deferred to the window end, so a restarted sink resumes its periodic
/// duties with state intact.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SinkOutage {
    /// Offset from simulation start at which the sink dies.
    pub start: SimDuration,
    /// Offset from simulation start at which the sink restarts (exclusive).
    pub end: SimDuration,
    /// Which sink dies. Must be one of the configured basestations.
    pub sink: NodeId,
}

impl SinkOutage {
    /// A crash-restart of `sink` between `start_secs` and `end_secs`.
    pub fn new(start_secs: u64, end_secs: u64, sink: u16) -> Self {
        SinkOutage {
            start: SimDuration::from_secs(start_secs),
            end: SimDuration::from_secs(end_secs),
            sink: NodeId(sink),
        }
    }
}

/// One mass-churn event: at `at`, a seeded `kill_fraction` of the original
/// sensors dies permanently while `join_fraction` (of the original sensor
/// count) fresh nodes wake at seeded positions and join the network from
/// scratch.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Offset from simulation start at which the churn happens.
    pub at: SimDuration,
    /// Fraction of the original sensors that dies permanently (seeded
    /// sample; the basestations survive).
    pub kill_fraction: f64,
    /// Fresh joining nodes as a fraction of the original sensor count; they
    /// are placed by the topology generator and stay dormant until `at`.
    pub join_fraction: f64,
}

impl ChurnEvent {
    /// A churn event at `at_secs` killing `kill_fraction` and joining
    /// `join_fraction` of the original sensor count.
    pub fn new(at_secs: u64, kill_fraction: f64, join_fraction: f64) -> Self {
        ChurnEvent {
            at: SimDuration::from_secs(at_secs),
            kill_fraction,
            join_fraction,
        }
    }

    /// Number of fresh nodes this event adds for an original sensor count.
    pub fn join_count(&self, num_nodes: usize) -> usize {
        (self.join_fraction * num_nodes as f64).round() as usize
    }
}

/// Fault axis: scheduled radio outages, partitions, sink crashes, and mass
/// churn.
///
/// The default is no faults, which is byte-identical to the pre-redesign
/// behavior; every new kind defaults to empty and is skipped during
/// serialization, so existing specs, config hashes, and committed artifacts
/// are untouched until a scenario schedules one.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSpec {
    /// The radio-outage windows, applied independently.
    pub windows: Vec<FaultWindow>,
    /// Scheduled network partitions.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub partitions: Vec<PartitionWindow>,
    /// Scheduled basestation crash-restart windows.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub sink_outages: Vec<SinkOutage>,
    /// Scheduled mass-churn events.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub churn: Vec<ChurnEvent>,
}

impl FaultSpec {
    /// No faults.
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// Whether any fault of any kind is scheduled.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
            && self.partitions.is_empty()
            && self.sink_outages.is_empty()
            && self.churn.is_empty()
    }

    /// Total fresh nodes the churn schedule adds for an original sensor
    /// count (they enlarge the generated topology).
    pub fn total_joins(&self, num_nodes: usize) -> usize {
        self.churn.iter().map(|c| c.join_count(num_nodes)).sum()
    }

    /// Validates every scheduled fault.
    pub fn validate(&self) -> Result<(), ScoopError> {
        for w in &self.windows {
            if w.start >= w.end {
                return Err(ScoopError::InvalidConfig(
                    "fault window must start before it ends".into(),
                ));
            }
            if !(0.0..=1.0).contains(&w.fraction) {
                return Err(ScoopError::InvalidConfig(
                    "fault window fraction must be in [0, 1]".into(),
                ));
            }
        }
        for p in &self.partitions {
            if p.start >= p.end {
                return Err(ScoopError::InvalidConfig(
                    "partition window must start before it ends".into(),
                ));
            }
            if !(0.0..=1.0).contains(&p.fraction) {
                return Err(ScoopError::InvalidConfig(
                    "partition fraction must be in [0, 1]".into(),
                ));
            }
            let mut seen = p.nodes.clone();
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != p.nodes.len() {
                return Err(ScoopError::InvalidConfig(
                    "partition node set must not contain duplicates".into(),
                ));
            }
        }
        for s in &self.sink_outages {
            if s.start >= s.end {
                return Err(ScoopError::InvalidConfig(
                    "sink outage must start before it ends".into(),
                ));
            }
        }
        for c in &self.churn {
            if !(0.0..=1.0).contains(&c.kill_fraction) {
                return Err(ScoopError::InvalidConfig(
                    "churn kill_fraction must be in [0, 1]".into(),
                ));
            }
            if !(0.0..=1.0).contains(&c.join_fraction) {
                return Err(ScoopError::InvalidConfig(
                    "churn join_fraction must be in [0, 1]".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Full description of one experiment run, as composable components.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Number of sensor nodes, excluding the basestation (paper: 62).
    pub num_nodes: usize,
    /// Total simulated duration (paper: 40 minutes).
    pub duration: SimDuration,
    /// Stabilization prefix during which only the routing tree forms
    /// (paper: 10 minutes).
    pub warmup: SimDuration,
    /// Node-placement axis.
    pub topology: TopologySpec,
    /// Link-loss axis.
    pub link: LinkSpec,
    /// Workload axis (data source, sampling, query distribution).
    pub workload: WorkloadSpec,
    /// Storage-policy axis.
    pub policy: PolicySpec,
    /// Fault axis (scheduled node death / churn windows).
    pub faults: FaultSpec,
    /// Seed for all randomness in the run (topology noise, link loss, data
    /// sources, query generation, fault sampling). Two runs with the same
    /// spec produce identical results.
    pub seed: u64,
}

impl ScenarioSpec {
    /// The default parameters from Section 6 of the paper.
    pub fn paper_defaults() -> Self {
        ScenarioSpec {
            num_nodes: 62,
            duration: SimDuration::from_mins(40),
            warmup: SimDuration::from_mins(10),
            topology: TopologySpec::office_floor(),
            link: LinkSpec::paper_defaults(),
            workload: WorkloadSpec::paper_defaults(),
            policy: PolicySpec::paper_defaults(),
            faults: FaultSpec::none(),
            seed: 1,
        }
    }

    /// A scaled-down configuration useful for unit and integration tests:
    /// fewer nodes and a shorter run so tests finish quickly while still
    /// exercising every protocol phase (tree formation, summaries, at least
    /// two remaps, queries).
    pub fn small_test() -> Self {
        let mut spec = Self::paper_defaults();
        spec.num_nodes = 16;
        spec.duration = SimDuration::from_mins(12);
        spec.warmup = SimDuration::from_mins(2);
        spec.policy.scoop.summary_interval = SimDuration::from_secs(60);
        spec.policy.scoop.remap_interval = SimDuration::from_secs(120);
        spec
    }

    /// Validates internal consistency (node count within the bitmap limit,
    /// warmup shorter than the run, sane fractions, non-zero intervals) and
    /// every component spec.
    pub fn validate(&self) -> Result<(), ScoopError> {
        let total = self.num_nodes + self.faults.total_joins(self.num_nodes) + 1;
        if total > MAX_NODES {
            return Err(ScoopError::TooManyNodes {
                requested: total,
                limit: MAX_NODES,
            });
        }
        if self.num_nodes == 0 {
            return Err(ScoopError::InvalidConfig("num_nodes must be >= 1".into()));
        }
        if self.warmup >= self.duration {
            return Err(ScoopError::InvalidConfig(
                "warmup must be shorter than the total duration".into(),
            ));
        }
        if self.workload.sample_interval.as_millis() == 0 {
            return Err(ScoopError::InvalidConfig(
                "sample_interval must be non-zero".into(),
            ));
        }
        if self.workload.queries.query_interval.as_millis() == 0 {
            return Err(ScoopError::InvalidConfig(
                "query_interval must be non-zero".into(),
            ));
        }
        if self.policy.scoop.n_bins == 0 {
            return Err(ScoopError::InvalidConfig("n_bins must be >= 1".into()));
        }
        if self.policy.scoop.batch_size == 0 {
            return Err(ScoopError::InvalidConfig("batch_size must be >= 1".into()));
        }
        let q = &self.workload.queries;
        if !(0.0..=1.0).contains(&q.min_width_frac)
            || !(0.0..=1.0).contains(&q.max_width_frac)
            || q.min_width_frac > q.max_width_frac
        {
            return Err(ScoopError::InvalidConfig(
                "query width fractions must satisfy 0 <= min <= max <= 1".into(),
            ));
        }
        if self.workload.value_domain.width() < 2 {
            return Err(ScoopError::InvalidConfig(
                "value domain must contain at least two values".into(),
            ));
        }
        match self.workload.kind {
            WorkloadKind::Point => {}
            WorkloadKind::Range(range) => {
                // NaN fails both comparisons and lands in the error arm.
                if !(range.width_frac > 0.0 && range.width_frac <= 1.0) {
                    return Err(ScoopError::InvalidConfig(
                        "range workload width_frac must be in (0, 1]".into(),
                    ));
                }
            }
            WorkloadKind::Aggregate(agg) => {
                if !(agg.epsilon > 0.0 && agg.epsilon <= 0.5) {
                    return Err(ScoopError::InvalidConfig(
                        "aggregate workload epsilon must be in (0, 0.5]".into(),
                    ));
                }
                if let AggregateOp::Quantile(q) = agg.op {
                    if !(q > 0.0 && q < 1.0) {
                        return Err(ScoopError::InvalidConfig(
                            "quantile q must be in (0, 1)".into(),
                        ));
                    }
                }
            }
        }
        if !self.policy.basestations.is_empty() {
            if self.policy.kind != StoragePolicy::Scoop {
                return Err(ScoopError::InvalidConfig(
                    "multi-basestation federation requires the scoop policy".into(),
                ));
            }
            let sinks = self.policy.sink_ids();
            if sinks.len() != self.policy.basestations.len() {
                return Err(ScoopError::InvalidConfig(
                    "basestations must not contain duplicates".into(),
                ));
            }
            if !sinks.contains(&NodeId::BASESTATION) {
                return Err(ScoopError::InvalidConfig(
                    "basestations must include node 0 (the root sink)".into(),
                ));
            }
            if sinks.len() > MAX_SINKS {
                return Err(ScoopError::InvalidConfig(format!(
                    "at most {MAX_SINKS} basestations are supported"
                )));
            }
            if let Some(bad) = sinks.iter().find(|s| s.0 as usize > self.num_nodes) {
                return Err(ScoopError::InvalidConfig(format!(
                    "basestation id {} exceeds the node count {}",
                    bad.0, self.num_nodes
                )));
            }
        }
        for outage in &self.faults.sink_outages {
            if !self.policy.sink_ids().contains(&outage.sink) {
                return Err(ScoopError::InvalidConfig(format!(
                    "sink outage targets node {}, which is not a basestation",
                    outage.sink.0
                )));
            }
        }
        self.topology.validate()?;
        self.link.validate()?;
        self.faults.validate()?;
        Ok(())
    }

    /// Duration of the measured part of the run (after warmup).
    pub fn measured_duration(&self) -> SimDuration {
        SimDuration(self.duration.0.saturating_sub(self.warmup.0))
    }

    /// Number of sensor samples each node takes during the measured part of
    /// the run.
    pub fn samples_per_node(&self) -> u64 {
        self.measured_duration().as_millis() / self.workload.sample_interval.as_millis()
    }

    /// Number of queries the basestation issues during the measured part of
    /// the run.
    pub fn query_count(&self) -> u64 {
        self.measured_duration().as_millis() / self.workload.queries.query_interval.as_millis()
    }
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Documentation entry for one registry axis.
#[derive(Clone, Copy, Debug)]
pub struct AxisDoc {
    /// The registry key (as typed after `--set`).
    pub key: &'static str,
    /// Expected value and meaning.
    pub doc: &'static str,
}

/// Every axis the string-keyed registry understands, in help order.
///
/// [`ScenarioSpec::set_axis`] and this table are kept in lockstep by a unit
/// test that applies a sample value for every listed key.
pub const AXES: &[AxisDoc] = &[
    AxisDoc {
        key: "nodes",
        doc: "sensor count, excluding the basestation (1..=MAX_NODES-1)",
    },
    AxisDoc {
        key: "seed",
        doc: "base seed for all randomness (u64)",
    },
    AxisDoc {
        key: "duration_secs",
        doc: "total simulated seconds",
    },
    AxisDoc {
        key: "warmup_secs",
        doc: "stabilization prefix in seconds",
    },
    AxisDoc {
        key: "policy",
        doc: "storage policy: scoop|local|base|hash",
    },
    AxisDoc {
        key: "source",
        doc: "data source: real|unique|equal|random|gaussian",
    },
    AxisDoc {
        key: "sample_interval_secs",
        doc: "seconds between sensor samples",
    },
    AxisDoc {
        key: "query.interval_secs",
        doc: "seconds between basestation queries",
    },
    AxisDoc {
        key: "query.min_width",
        doc: "minimum query width as a domain fraction [0,1]",
    },
    AxisDoc {
        key: "query.max_width",
        doc: "maximum query width as a domain fraction [0,1]",
    },
    AxisDoc {
        key: "query.history_samples",
        doc: "how many sample intervals queries look back",
    },
    AxisDoc {
        key: "topology",
        doc: "placement family: office|grid|random|linear",
    },
    AxisDoc {
        key: "topology.area_per_node",
        doc: "square meters per node (office/random)",
    },
    AxisDoc {
        key: "topology.jitter",
        doc: "office-floor cell jitter fraction [0,0.5)",
    },
    AxisDoc {
        key: "topology.spacing",
        doc: "meters between adjacent nodes (grid/linear)",
    },
    AxisDoc {
        key: "topology.range_factor",
        doc: "radio-range multiplier (>0)",
    },
    AxisDoc {
        key: "link",
        doc: "loss-model family or preset: distance|perfect|calibrated \
              (the preset also sets the four knobs)",
    },
    AxisDoc {
        key: "link.loss_floor",
        doc: "loss of the best link [0,1); delivery at d=0 is 1-floor",
    },
    AxisDoc {
        key: "link.edge_delivery",
        doc: "delivery probability at the radio-range edge (0,1]",
    },
    AxisDoc {
        key: "link.distance_exponent",
        doc: "decay shape (d/range)^k; 1 = linear (>0)",
    },
    AxisDoc {
        key: "link.asymmetry_noise",
        doc: "per-direction delivery noise stddev (>=0)",
    },
    AxisDoc {
        key: "scoop.summary_interval_secs",
        doc: "seconds between node summaries",
    },
    AxisDoc {
        key: "scoop.remap_interval_secs",
        doc: "seconds between index recomputations",
    },
    AxisDoc {
        key: "scoop.n_bins",
        doc: "summary histogram bins (>=1)",
    },
    AxisDoc {
        key: "scoop.batch_size",
        doc: "max readings per data packet (>=1)",
    },
    AxisDoc {
        key: "scoop.suppress_unchanged_index",
        doc: "true|false: skip re-disseminating unchanged indices",
    },
    AxisDoc {
        key: "scoop.neighbor_shortcut",
        doc: "true|false: enable routing rule 3",
    },
    AxisDoc {
        key: "fault.window",
        doc: "append an outage window: START..END@FRACTION (secs, e.g. 600..900@0.1)",
    },
    AxisDoc {
        key: "fault.partition",
        doc: "append a partition: START..END@FRACTION or START..END@nodes:1,2 (secs)",
    },
    AxisDoc {
        key: "fault.sink_down",
        doc: "append a sink crash-restart: START..END@SINK_ID (secs)",
    },
    AxisDoc {
        key: "fault.churn",
        doc: "append mass churn: AT@KILL_FRAC/JOIN_FRAC (secs; /JOIN_FRAC optional)",
    },
    AxisDoc {
        key: "fault.clear",
        doc: "any value: remove all scheduled faults (every kind)",
    },
    AxisDoc {
        key: "policy.basestations",
        doc: "comma-separated sink node ids (must include 0); empty = classic single sink",
    },
    AxisDoc {
        key: "scoop.failover_timeout_secs",
        doc: "silence before a sink's range is taken over (0 = 3x remap interval)",
    },
    AxisDoc {
        key: "workload.kind",
        doc: "query shape: point|range|aggregate",
    },
    AxisDoc {
        key: "workload.range_width",
        doc: "range query width as a domain fraction (0,1]; implies kind=range",
    },
    AxisDoc {
        key: "workload.agg_op",
        doc: "aggregate operator: min|max|avg|quantile:Q; implies kind=aggregate",
    },
    AxisDoc {
        key: "workload.epsilon",
        doc: "quantile rank-error budget (0,0.5]; implies kind=aggregate",
    },
];

/// A one-key-per-line help listing of every axis.
pub fn axis_help() -> String {
    let width = AXES.iter().map(|a| a.key.len()).max().unwrap_or(0);
    AXES.iter()
        .map(|a| format!("  {:width$}  {}", a.key, a.doc))
        .collect::<Vec<_>>()
        .join("\n")
}

fn bad_value(key: &str, value: &str, expect: &str) -> ScoopError {
    ScoopError::InvalidConfig(format!(
        "axis `{key}`: bad value `{value}` (expected {expect})"
    ))
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str, expect: &str) -> Result<T, ScoopError> {
    value.parse().map_err(|_| bad_value(key, value, expect))
}

fn parse_bool(key: &str, value: &str) -> Result<bool, ScoopError> {
    match value {
        "true" | "1" | "yes" | "on" => Ok(true),
        "false" | "0" | "no" | "off" => Ok(false),
        _ => Err(bad_value(key, value, "true|false")),
    }
}

/// Parses `START..END@FRACTION` (seconds) or `START..END@nodes:1,2,3`.
fn parse_fault_window(key: &str, value: &str) -> Result<FaultWindow, ScoopError> {
    let expect = "START..END@FRACTION or START..END@nodes:1,2 (seconds)";
    let (range, tail) = value
        .split_once('@')
        .ok_or_else(|| bad_value(key, value, expect))?;
    let (start, end) = range
        .split_once("..")
        .ok_or_else(|| bad_value(key, value, expect))?;
    let start: u64 = parse_num(key, start, expect)?;
    let end: u64 = parse_num(key, end, expect)?;
    let mut window = FaultWindow::blackout(start, end, 0.0);
    if let Some(list) = tail.strip_prefix("nodes:") {
        for id in list.split(',') {
            window.nodes.push(parse_num(key, id, expect)?);
        }
    } else {
        window.fraction = parse_num(key, tail, expect)?;
    }
    Ok(window)
}

/// Parses `START..END@FRACTION` (seconds) or `START..END@nodes:1,2,3` into a
/// partition window (same grammar as `fault.window`, different fault).
fn parse_partition(key: &str, value: &str) -> Result<PartitionWindow, ScoopError> {
    let w = parse_fault_window(key, value)?;
    Ok(PartitionWindow {
        start: w.start,
        end: w.end,
        fraction: w.fraction,
        nodes: w.nodes,
    })
}

/// Parses `START..END@SINK_ID` (seconds).
fn parse_sink_outage(key: &str, value: &str) -> Result<SinkOutage, ScoopError> {
    let expect = "START..END@SINK_ID (seconds)";
    let (range, sink) = value
        .split_once('@')
        .ok_or_else(|| bad_value(key, value, expect))?;
    let (start, end) = range
        .split_once("..")
        .ok_or_else(|| bad_value(key, value, expect))?;
    Ok(SinkOutage::new(
        parse_num(key, start, expect)?,
        parse_num(key, end, expect)?,
        parse_num(key, sink, expect)?,
    ))
}

/// Parses `AT@KILL_FRAC/JOIN_FRAC` (seconds; `/JOIN_FRAC` optional).
fn parse_churn(key: &str, value: &str) -> Result<ChurnEvent, ScoopError> {
    let expect = "AT@KILL_FRAC/JOIN_FRAC (seconds; /JOIN_FRAC optional)";
    let (at, tail) = value
        .split_once('@')
        .ok_or_else(|| bad_value(key, value, expect))?;
    let (kill, join) = match tail.split_once('/') {
        Some((k, j)) => (k, Some(j)),
        None => (tail, None),
    };
    Ok(ChurnEvent::new(
        parse_num(key, at, expect)?,
        parse_num(key, kill, expect)?,
        match join {
            Some(j) => parse_num(key, j, expect)?,
            None => 0.0,
        },
    ))
}

/// Parses a comma-separated sink id list (empty string clears the role).
fn parse_basestations(key: &str, value: &str) -> Result<Vec<NodeId>, ScoopError> {
    let expect = "comma-separated node ids, e.g. 0,5,9 (empty clears)";
    if value.trim().is_empty() {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(|id| parse_num::<u16>(key, id.trim(), expect).map(NodeId))
        .collect()
}

impl ScenarioSpec {
    /// Applies one string-keyed axis override (see [`AXES`] for the
    /// vocabulary). Unknown keys fail with an error that lists every valid
    /// axis; bad values name the expected form. The spec is *not* validated
    /// here — call [`ScenarioSpec::validate`] (or run the spec) after the
    /// last override so interdependent axes can be set in any order.
    pub fn set_axis(&mut self, key: &str, value: &str) -> Result<(), ScoopError> {
        match key {
            "nodes" => self.num_nodes = parse_num(key, value, "a node count")?,
            "seed" => self.seed = parse_num(key, value, "an unsigned seed")?,
            "duration_secs" => {
                self.duration = SimDuration::from_secs(parse_num(key, value, "seconds")?)
            }
            "warmup_secs" => {
                self.warmup = SimDuration::from_secs(parse_num(key, value, "seconds")?)
            }
            "policy" => {
                self.policy.kind = StoragePolicy::ALL
                    .into_iter()
                    .find(|p| p.name() == value)
                    .ok_or_else(|| bad_value(key, value, "scoop|local|base|hash"))?
            }
            "source" => {
                self.workload.data_source = DataSourceKind::ALL
                    .into_iter()
                    .find(|s| s.name() == value)
                    .ok_or_else(|| bad_value(key, value, "real|unique|equal|random|gaussian"))?
            }
            "sample_interval_secs" => {
                self.workload.sample_interval =
                    SimDuration::from_secs(parse_num(key, value, "seconds")?)
            }
            "query.interval_secs" => {
                self.workload.queries.query_interval =
                    SimDuration::from_secs(parse_num(key, value, "seconds")?)
            }
            "query.min_width" => {
                self.workload.queries.min_width_frac = parse_num(key, value, "a fraction")?
            }
            "query.max_width" => {
                self.workload.queries.max_width_frac = parse_num(key, value, "a fraction")?
            }
            "query.history_samples" => {
                self.workload.queries.history_samples = parse_num(key, value, "a count")?
            }
            "topology" => {
                self.topology.kind = TopologyKind::from_name(value)
                    .ok_or_else(|| bad_value(key, value, "office|grid|random|linear"))?
            }
            "topology.area_per_node" => {
                self.topology.area_per_node = parse_num(key, value, "square meters")?
            }
            "topology.jitter" => self.topology.jitter = parse_num(key, value, "a fraction")?,
            "topology.spacing" => self.topology.spacing = parse_num(key, value, "meters")?,
            "topology.range_factor" => {
                self.topology.range_factor = parse_num(key, value, "a multiplier")?
            }
            // `link` accepts either a bare family (keeps the current knobs)
            // or the `calibrated` preset, which pins family *and* knobs to
            // the shipped default.
            "link" => match value {
                "calibrated" => self.link = LinkSpec::calibrated(),
                family => {
                    self.link.family = LinkFamily::from_name(family)
                        .ok_or_else(|| bad_value(key, value, "distance|perfect|calibrated"))?
                }
            },
            "link.loss_floor" => self.link.loss_floor = parse_num(key, value, "a probability")?,
            "link.edge_delivery" => {
                self.link.edge_delivery = parse_num(key, value, "a probability")?
            }
            "link.distance_exponent" => {
                self.link.distance_exponent = parse_num(key, value, "an exponent")?
            }
            "link.asymmetry_noise" => {
                self.link.asymmetry_noise = parse_num(key, value, "a stddev")?
            }
            "scoop.summary_interval_secs" => {
                self.policy.scoop.summary_interval =
                    SimDuration::from_secs(parse_num(key, value, "seconds")?)
            }
            "scoop.remap_interval_secs" => {
                self.policy.scoop.remap_interval =
                    SimDuration::from_secs(parse_num(key, value, "seconds")?)
            }
            "scoop.n_bins" => self.policy.scoop.n_bins = parse_num(key, value, "a count")?,
            "scoop.batch_size" => self.policy.scoop.batch_size = parse_num(key, value, "a count")?,
            "scoop.suppress_unchanged_index" => {
                self.policy.scoop.suppress_unchanged_index = parse_bool(key, value)?
            }
            "scoop.neighbor_shortcut" => {
                self.policy.scoop.neighbor_shortcut = parse_bool(key, value)?
            }
            "fault.window" => self.faults.windows.push(parse_fault_window(key, value)?),
            "fault.partition" => self.faults.partitions.push(parse_partition(key, value)?),
            "fault.sink_down" => self
                .faults
                .sink_outages
                .push(parse_sink_outage(key, value)?),
            "fault.churn" => self.faults.churn.push(parse_churn(key, value)?),
            "fault.clear" => self.faults = FaultSpec::none(),
            "policy.basestations" => self.policy.basestations = parse_basestations(key, value)?,
            "scoop.failover_timeout_secs" => {
                self.policy.scoop.failover_timeout =
                    SimDuration::from_secs(parse_num(key, value, "seconds")?)
            }
            // The workload-kind axes compose in any order: knob axes flip the
            // kind and keep the other knob's current (or default) value, so
            // `workload.agg_op=quantile:0.9 workload.epsilon=0.02` works
            // regardless of ordering. Validation of the knobs themselves
            // happens in `validate`, like every other axis.
            "workload.kind" => {
                self.workload.kind = match value {
                    "point" => WorkloadKind::Point,
                    "range" => match self.workload.kind {
                        k @ WorkloadKind::Range(_) => k,
                        _ => WorkloadKind::range(WorkloadKind::DEFAULT_RANGE_WIDTH),
                    },
                    "aggregate" => match self.workload.kind {
                        k @ WorkloadKind::Aggregate(_) => k,
                        _ => {
                            WorkloadKind::aggregate(AggregateOp::Avg, WorkloadKind::DEFAULT_EPSILON)
                        }
                    },
                    _ => return Err(bad_value(key, value, "point|range|aggregate")),
                }
            }
            "workload.range_width" => {
                self.workload.kind =
                    WorkloadKind::range(parse_num(key, value, "a fraction in (0, 1]")?)
            }
            "workload.agg_op" => {
                let op = AggregateOp::parse(value)
                    .ok_or_else(|| bad_value(key, value, "min|max|avg|quantile:Q"))?;
                let epsilon = match self.workload.kind {
                    WorkloadKind::Aggregate(agg) => agg.epsilon,
                    _ => WorkloadKind::DEFAULT_EPSILON,
                };
                self.workload.kind = WorkloadKind::aggregate(op, epsilon);
            }
            "workload.epsilon" => {
                let epsilon = parse_num(key, value, "a fraction in (0, 0.5]")?;
                let op = match self.workload.kind {
                    WorkloadKind::Aggregate(agg) => agg.op,
                    _ => AggregateOp::Avg,
                };
                self.workload.kind = WorkloadKind::aggregate(op, epsilon);
            }
            unknown => {
                return Err(ScoopError::InvalidConfig(format!(
                    "unknown axis `{unknown}`; valid axes:\n{}",
                    axis_help()
                )))
            }
        }
        Ok(())
    }

    /// Applies a sequence of `(key, value)` overrides in order, stopping at
    /// the first error.
    pub fn apply_axes<K, V>(
        &mut self,
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> Result<(), ScoopError>
    where
        K: AsRef<str>,
        V: AsRef<str>,
    {
        for (key, value) in pairs {
            self.set_axis(key.as_ref(), value.as_ref())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_6() {
        let spec = ScenarioSpec::paper_defaults();
        assert_eq!(spec.num_nodes, 62);
        assert_eq!(spec.duration.as_secs(), 40 * 60);
        assert_eq!(spec.warmup.as_secs(), 10 * 60);
        assert_eq!(spec.workload.sample_interval.as_secs(), 15);
        assert_eq!(spec.workload.queries.query_interval.as_secs(), 15);
        assert_eq!(spec.policy.scoop.summary_interval.as_secs(), 110);
        assert_eq!(spec.policy.scoop.remap_interval.as_secs(), 240);
        assert_eq!(spec.topology.kind, TopologyKind::OfficeFloor);
        assert_eq!(spec.link.family, LinkFamily::DistanceDecay);
        assert_eq!(spec.link, LinkSpec::calibrated());
        assert!((spec.link.max_delivery() - 0.90).abs() < 1e-12);
        assert!(spec.faults.is_empty());
        assert_eq!(spec.workload.data_source, DataSourceKind::Real);
        assert_eq!(spec.policy.kind, StoragePolicy::Scoop);
        spec.validate().expect("paper defaults must be valid");
    }

    #[test]
    fn small_test_spec_is_valid() {
        ScenarioSpec::small_test().validate().unwrap();
    }

    #[test]
    fn validation_rejects_too_many_nodes() {
        let mut spec = ScenarioSpec::paper_defaults();
        spec.num_nodes = MAX_NODES; // +1 for the basestation exceeds the cap
        assert!(matches!(
            spec.validate(),
            Err(ScoopError::TooManyNodes { .. })
        ));
    }

    #[test]
    fn validation_rejects_bad_warmup() {
        let mut spec = ScenarioSpec::paper_defaults();
        spec.warmup = spec.duration;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_query_widths() {
        let mut spec = ScenarioSpec::paper_defaults();
        spec.workload.queries.min_width_frac = 0.5;
        spec.workload.queries.max_width_frac = 0.1;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_nodes_bins_and_intervals() {
        let mut spec = ScenarioSpec::paper_defaults();
        spec.num_nodes = 0;
        assert!(spec.validate().is_err());

        let mut spec = ScenarioSpec::paper_defaults();
        spec.policy.scoop.n_bins = 0;
        assert!(spec.validate().is_err());

        let mut spec = ScenarioSpec::paper_defaults();
        spec.policy.scoop.batch_size = 0;
        assert!(spec.validate().is_err());

        let mut spec = ScenarioSpec::paper_defaults();
        spec.workload.sample_interval = SimDuration::ZERO;
        assert!(spec.validate().is_err());

        let mut spec = ScenarioSpec::paper_defaults();
        spec.workload.queries.query_interval = SimDuration::ZERO;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_component_specs() {
        let mut spec = ScenarioSpec::paper_defaults();
        spec.link.loss_floor = 1.5;
        assert!(spec.validate().is_err());

        let mut spec = ScenarioSpec::paper_defaults();
        spec.topology.spacing = 0.0;
        assert!(spec.validate().is_err());

        // The CLI's `--set` path: NaN and ±∞ parse, and validation rejects them.
        for bad in ["nan", "inf", "-inf"] {
            for knob in ["area_per_node", "spacing", "range_factor"] {
                let mut spec = ScenarioSpec::paper_defaults();
                spec.set_axis(&format!("topology.{knob}"), bad).unwrap();
                let err = spec.validate().unwrap_err().to_string();
                assert!(err.contains(knob), "{knob} = {bad}: {err}");
            }
        }

        let mut spec = ScenarioSpec::paper_defaults();
        spec.faults
            .windows
            .push(FaultWindow::blackout(900, 600, 0.1));
        assert!(spec.validate().is_err());

        let mut spec = ScenarioSpec::paper_defaults();
        spec.faults
            .windows
            .push(FaultWindow::blackout(600, 900, 1.5));
        assert!(spec.validate().is_err());
    }

    #[test]
    fn derived_counts() {
        let spec = ScenarioSpec::paper_defaults();
        // 30 measured minutes at one sample / query per 15 s = 120 each.
        assert_eq!(spec.samples_per_node(), 120);
        assert_eq!(spec.query_count(), 120);
    }

    #[test]
    fn spec_serde_roundtrip() {
        let mut spec = ScenarioSpec::paper_defaults();
        spec.faults
            .windows
            .push(FaultWindow::blackout(600, 900, 0.1));
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn every_documented_axis_is_settable() {
        // A sample value for each key in AXES; keeps the doc table and the
        // set_axis match in lockstep.
        let sample = |key: &str| -> &'static str {
            match key {
                "policy" => "local",
                "source" => "gaussian",
                "topology" => "grid",
                "link" => "perfect",
                "scoop.suppress_unchanged_index" | "scoop.neighbor_shortcut" => "false",
                "fault.window" => "600..900@0.1",
                "fault.partition" => "600..900@0.5",
                "fault.sink_down" => "600..900@0",
                "fault.churn" => "600@0.25/0.25",
                "fault.clear" => "1",
                "policy.basestations" => "0,5",
                "workload.kind" => "range",
                "workload.agg_op" => "quantile:0.5",
                "query.min_width"
                | "query.max_width"
                | "topology.jitter"
                | "workload.range_width" => "0.2",
                "link.loss_floor"
                | "link.edge_delivery"
                | "link.asymmetry_noise"
                | "workload.epsilon" => "0.1",
                "topology.range_factor" | "link.distance_exponent" => "1.5",
                "topology.area_per_node" | "topology.spacing" => "12.5",
                _ => "30",
            }
        };
        for axis in AXES {
            let mut spec = ScenarioSpec::paper_defaults();
            spec.set_axis(axis.key, sample(axis.key))
                .unwrap_or_else(|e| panic!("axis {} rejected its sample: {e}", axis.key));
        }
    }

    #[test]
    fn acceptance_override_chain_produces_a_valid_spec() {
        let mut spec = ScenarioSpec::paper_defaults();
        spec.apply_axes([
            ("topology", "grid"),
            ("nodes", "96"),
            ("link.loss_floor", "0.05"),
        ])
        .unwrap();
        assert_eq!(spec.topology.kind, TopologyKind::Grid);
        assert_eq!(spec.num_nodes, 96);
        assert!((spec.link.loss_floor - 0.05).abs() < 1e-12);
        spec.validate().unwrap();
    }

    #[test]
    fn unknown_axis_lists_the_vocabulary() {
        let mut spec = ScenarioSpec::paper_defaults();
        let err = spec.set_axis("topologee", "grid").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown axis `topologee`"), "{msg}");
        assert!(msg.contains("link.loss_floor"), "{msg}");
        assert!(msg.contains("fault.window"), "{msg}");
    }

    #[test]
    fn bad_axis_values_are_rejected_with_expectations() {
        let mut spec = ScenarioSpec::paper_defaults();
        assert!(spec.set_axis("nodes", "lots").is_err());
        assert!(spec.set_axis("policy", "ghost").is_err());
        assert!(spec.set_axis("fault.window", "900@0.1").is_err());
        assert!(spec.set_axis("scoop.neighbor_shortcut", "maybe").is_err());
    }

    #[test]
    fn fault_window_axis_parses_both_forms() {
        let mut spec = ScenarioSpec::paper_defaults();
        spec.set_axis("fault.window", "600..900@0.25").unwrap();
        spec.set_axis("fault.window", "100..200@nodes:3,7").unwrap();
        assert_eq!(spec.faults.windows.len(), 2);
        assert!((spec.faults.windows[0].fraction - 0.25).abs() < 1e-12);
        assert_eq!(spec.faults.windows[1].nodes, vec![3, 7]);
        spec.set_axis("fault.clear", "1").unwrap();
        assert!(spec.faults.is_empty());
    }

    #[test]
    fn adversarial_fault_axes_parse_and_clear() {
        let mut spec = ScenarioSpec::paper_defaults();
        spec.set_axis("fault.partition", "600..900@0.5").unwrap();
        spec.set_axis("fault.partition", "100..200@nodes:3,7")
            .unwrap();
        spec.set_axis("fault.sink_down", "600..900@5").unwrap();
        spec.set_axis("fault.churn", "600@0.25/0.1").unwrap();
        spec.set_axis("fault.churn", "900@0.5").unwrap();
        assert_eq!(spec.faults.partitions.len(), 2);
        assert!((spec.faults.partitions[0].fraction - 0.5).abs() < 1e-12);
        assert_eq!(spec.faults.partitions[1].nodes, vec![3, 7]);
        assert_eq!(spec.faults.sink_outages[0].sink, NodeId(5));
        assert!((spec.faults.churn[0].join_fraction - 0.1).abs() < 1e-12);
        assert!(
            (spec.faults.churn[1].join_fraction - 0.0).abs() < 1e-12,
            "join fraction defaults to 0 when omitted"
        );
        spec.set_axis("fault.clear", "x").unwrap();
        assert!(spec.faults.is_empty());

        assert!(spec.set_axis("fault.partition", "900@0.1").is_err());
        assert!(spec.set_axis("fault.sink_down", "600..900").is_err());
        assert!(spec.set_axis("fault.churn", "600").is_err());
    }

    #[test]
    fn empty_new_fault_kinds_serialize_to_the_legacy_shape() {
        // Byte-identity of committed artifacts: a spec without the new
        // faults (or basestations) must serialize exactly as before.
        let spec = ScenarioSpec::paper_defaults();
        let json = serde_json::to_string(&spec).unwrap();
        for key in ["partitions", "sink_outages", "churn", "basestations"] {
            assert!(!json.contains(key), "`{key}` leaked into default JSON");
        }
        assert!(!json.contains("failover_timeout"));
        // The workload kind is skipped while it's the seed Point shape
        // ("kind" itself appears via the policy kind and "width_frac" via the
        // query band, so probe markers only the new enum can contribute).
        for key in ["Point", "epsilon", "Aggregate"] {
            assert!(!json.contains(key), "`{key}` leaked into default JSON");
        }
    }

    #[test]
    fn workload_kinds_roundtrip_through_serde() {
        for kind in [
            WorkloadKind::range(0.25),
            WorkloadKind::aggregate(AggregateOp::Quantile(0.9), 0.02),
            WorkloadKind::aggregate(AggregateOp::Min, 0.05),
        ] {
            let mut spec = ScenarioSpec::paper_defaults();
            spec.workload.kind = kind;
            let json = serde_json::to_string(&spec).unwrap();
            let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
        }
        // A pre-kind spec (no `kind` key) deserializes to Point.
        let legacy = serde_json::to_string(&ScenarioSpec::paper_defaults()).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.workload.kind, WorkloadKind::Point);
    }

    #[test]
    fn validation_rejects_degenerate_workload_kinds() {
        let cases: &[(WorkloadKind, &str)] = &[
            (WorkloadKind::range(0.0), "zero-width range"),
            (WorkloadKind::range(-0.5), "negative width"),
            (WorkloadKind::range(1.5), "width > 1"),
            (WorkloadKind::range(f64::NAN), "NaN width"),
            (
                WorkloadKind::aggregate(AggregateOp::Avg, 0.0),
                "zero epsilon",
            ),
            (
                WorkloadKind::aggregate(AggregateOp::Avg, 0.6),
                "epsilon > 0.5",
            ),
            (
                WorkloadKind::aggregate(AggregateOp::Avg, f64::NAN),
                "NaN epsilon",
            ),
            (
                WorkloadKind::aggregate(AggregateOp::Quantile(0.0), 0.05),
                "q = 0",
            ),
            (
                WorkloadKind::aggregate(AggregateOp::Quantile(1.0), 0.05),
                "q = 1",
            ),
            (
                WorkloadKind::aggregate(AggregateOp::Quantile(f64::NAN), 0.05),
                "NaN q",
            ),
        ];
        for (kind, what) in cases {
            let mut spec = ScenarioSpec::paper_defaults();
            spec.workload.kind = *kind;
            assert!(
                matches!(spec.validate(), Err(ScoopError::InvalidConfig(_))),
                "{what} passed validation"
            );
        }
        // The boundary values themselves are accepted.
        for kind in [
            WorkloadKind::range(1.0),
            WorkloadKind::aggregate(AggregateOp::Quantile(0.5), 0.5),
        ] {
            let mut spec = ScenarioSpec::paper_defaults();
            spec.workload.kind = kind;
            spec.validate().unwrap();
        }
    }

    #[test]
    fn workload_axes_compose_in_any_order() {
        let mut spec = ScenarioSpec::paper_defaults();
        spec.set_axis("workload.kind", "range").unwrap();
        assert_eq!(
            spec.workload.kind,
            WorkloadKind::range(WorkloadKind::DEFAULT_RANGE_WIDTH)
        );
        spec.set_axis("workload.range_width", "0.3").unwrap();
        assert_eq!(spec.workload.kind, WorkloadKind::range(0.3));
        // Setting the kind again after the width keeps the width.
        spec.set_axis("workload.kind", "range").unwrap();
        assert_eq!(spec.workload.kind, WorkloadKind::range(0.3));

        // epsilon before op, then op: epsilon survives.
        spec.set_axis("workload.epsilon", "0.02").unwrap();
        spec.set_axis("workload.agg_op", "quantile:0.9").unwrap();
        assert_eq!(
            spec.workload.kind,
            WorkloadKind::aggregate(AggregateOp::Quantile(0.9), 0.02)
        );
        spec.set_axis("workload.kind", "point").unwrap();
        assert_eq!(spec.workload.kind, WorkloadKind::Point);

        assert!(spec.set_axis("workload.kind", "median").is_err());
        assert!(spec.set_axis("workload.agg_op", "median").is_err());
        assert!(spec.set_axis("workload.range_width", "wide").is_err());
    }

    #[test]
    fn adversarial_faults_roundtrip_through_serde() {
        let mut spec = ScenarioSpec::paper_defaults();
        spec.policy.basestations = vec![NodeId(0), NodeId(5)];
        spec.faults
            .partitions
            .push(PartitionWindow::seeded(600, 900, 0.5));
        spec.faults.sink_outages.push(SinkOutage::new(600, 900, 5));
        spec.faults.churn.push(ChurnEvent::new(700, 0.25, 0.25));
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn validation_rejects_bad_adversarial_faults() {
        let cases: &[fn(&mut ScenarioSpec)] = &[
            |s| {
                s.faults
                    .partitions
                    .push(PartitionWindow::seeded(900, 600, 0.5))
            },
            |s| s.faults.partitions.push(PartitionWindow::seeded(1, 2, 1.5)),
            |s| {
                s.faults
                    .partitions
                    .push(PartitionWindow::seeded(1, 2, f64::NAN))
            },
            |s| {
                s.faults.partitions.push(PartitionWindow {
                    start: SimDuration::from_secs(1),
                    end: SimDuration::from_secs(2),
                    fraction: 0.0,
                    nodes: vec![3, 3],
                })
            },
            |s| {
                s.policy.basestations = vec![NodeId(0), NodeId(5)];
                s.faults.sink_outages.push(SinkOutage::new(900, 600, 5));
            },
            |s| s.faults.sink_outages.push(SinkOutage::new(600, 900, 5)),
            |s| s.faults.churn.push(ChurnEvent::new(600, -0.1, 0.0)),
            |s| s.faults.churn.push(ChurnEvent::new(600, 0.0, f64::NAN)),
            |s| s.policy.basestations = vec![NodeId(5), NodeId(9)],
            |s| s.policy.basestations = vec![NodeId(0), NodeId(5), NodeId(5)],
            |s| s.policy.basestations = vec![NodeId(0), NodeId(999)],
        ];
        for (i, tweak) in cases.iter().enumerate() {
            let mut spec = ScenarioSpec::small_test();
            tweak(&mut spec);
            assert!(
                matches!(
                    spec.validate(),
                    Err(ScoopError::InvalidConfig(_)) | Err(ScoopError::TooManyNodes { .. })
                ),
                "adversarial fault case {i} passed validation"
            );
        }

        // Churn joins count against the node-count headroom.
        let mut spec = ScenarioSpec::small_test();
        spec.num_nodes = MAX_NODES - 1;
        spec.faults.churn.push(ChurnEvent::new(600, 0.0, 0.5));
        assert!(matches!(
            spec.validate(),
            Err(ScoopError::TooManyNodes { .. })
        ));

        // The happy path: a valid multi-sink chaos spec.
        let mut spec = ScenarioSpec::small_test();
        spec.policy.basestations = vec![NodeId(0), NodeId(5)];
        spec.faults
            .partitions
            .push(PartitionWindow::seeded(240, 420, 0.5));
        spec.faults.sink_outages.push(SinkOutage::new(240, 420, 5));
        spec.faults.churn.push(ChurnEvent::new(300, 0.25, 0.25));
        spec.validate().unwrap();
    }

    #[test]
    fn link_presets_pin_family_and_knobs() {
        // The shipped default *is* the calibrated point.
        assert_eq!(LinkSpec::default(), LinkSpec::calibrated());
        assert_eq!(LinkSpec::paper_defaults(), LinkSpec::calibrated());
        // The legacy knobs are the exact pre-calibration model.
        let legacy = LinkSpec::legacy();
        assert_eq!(legacy.family, LinkFamily::DistanceDecay);
        assert!((legacy.loss_floor - 0.22).abs() < 1e-12);
        assert!((legacy.edge_delivery - 0.10).abs() < 1e-12);
        assert!((legacy.distance_exponent - 1.0).abs() < 1e-12);
        assert!((legacy.asymmetry_noise - 0.06).abs() < 1e-12);
        legacy.validate().unwrap();
        LinkSpec::calibrated().validate().unwrap();

        // The preset sets the whole link spec; bare families keep the knobs;
        // `legacy` is not a preset, and the error names the vocabulary.
        let mut spec = ScenarioSpec::paper_defaults();
        spec.link = LinkSpec::legacy();
        let err = spec.set_axis("link", "legacy").unwrap_err().to_string();
        assert!(err.contains("distance|perfect|calibrated"), "{err}");
        assert_eq!(spec.link, LinkSpec::legacy());
        spec.set_axis("link", "calibrated").unwrap();
        assert_eq!(spec.link, LinkSpec::calibrated());
        spec.set_axis("link.loss_floor", "0.4").unwrap();
        spec.set_axis("link", "perfect").unwrap();
        assert_eq!(spec.link.family, LinkFamily::Perfect);
        assert!((spec.link.loss_floor - 0.4).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_adversarial_link_knobs() {
        let adversarial: &[fn(&mut LinkSpec)] = &[
            |l| l.loss_floor = f64::NAN,
            |l| l.loss_floor = -0.1,
            |l| l.loss_floor = f64::INFINITY,
            |l| l.edge_delivery = f64::NAN,
            |l| l.edge_delivery = 0.0,
            |l| l.edge_delivery = 1.5,
            |l| l.distance_exponent = f64::NAN,
            |l| l.distance_exponent = -2.0,
            |l| l.distance_exponent = 0.0,
            |l| l.distance_exponent = f64::INFINITY,
            |l| l.distance_exponent = LinkSpec::MAX_DISTANCE_EXPONENT * 2.0,
            |l| l.asymmetry_noise = f64::NAN,
            |l| l.asymmetry_noise = -0.01,
            |l| l.asymmetry_noise = f64::INFINITY,
        ];
        for (i, poison) in adversarial.iter().enumerate() {
            let mut link = LinkSpec::calibrated();
            poison(&mut link);
            assert!(
                matches!(link.validate(), Err(ScoopError::InvalidConfig(_))),
                "adversarial knob #{i} must be rejected with a typed error: {link:?}"
            );
        }
        // The cap itself is still accepted.
        let mut link = LinkSpec::calibrated();
        link.distance_exponent = LinkSpec::MAX_DISTANCE_EXPONENT;
        link.validate().unwrap();
    }

    #[test]
    fn topology_and_link_names_round_trip() {
        for kind in TopologyKind::ALL {
            assert_eq!(TopologyKind::from_name(kind.name()), Some(kind));
        }
        for family in [LinkFamily::DistanceDecay, LinkFamily::Perfect] {
            assert_eq!(LinkFamily::from_name(family.name()), Some(family));
        }
        assert_eq!(TopologyKind::from_name("donut"), None);
    }
}
