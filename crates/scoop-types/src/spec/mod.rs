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
//! * [`FaultSpec`] — scheduled radio outages, partitions, sink crashes and
//!   mass churn.
//!
//! `scoop_sim::build_engine` builds an engine from a spec through the
//! standard topology and link generators in `scoop-net`, and the
//! string-keyed *axis registry* ([`ScenarioSpec::set_axis`]) lets the CLI,
//! sweep grids, and benches override any axis without recompiling
//! (`topology=grid`, `link.loss_floor=0.1`, `nodes=96`, ...).
//!
//! The module is three files: this one holds the types and their defaults,
//! `validate.rs` every `validate` method, and `axes.rs` the axis registry
//! ([`AXES`], [`ScenarioSpec::set_axis`], [`axis_help`]).

use crate::config::{DataSourceKind, QueryWorkloadConfig, ScoopParams, StoragePolicy};
use crate::sketch::{AggregateOp, AggregateSpec};
use crate::{Attribute, NodeId, SimDuration, ValueRange};
use serde::{Deserialize, Serialize};
use std::fmt;

mod axes;
mod validate;

pub use axes::{axis_help, Axis, AXES};

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
    /// All families, in registry order.
    pub const ALL: [LinkFamily; 2] = [LinkFamily::DistanceDecay, LinkFamily::Perfect];

    /// Short lowercase name used by the axis registry.
    pub fn name(self) -> &'static str {
        match self {
            LinkFamily::DistanceDecay => "distance",
            LinkFamily::Perfect => "perfect",
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

/// One scheduled fault window over a set of nodes: a radio outage in
/// [`FaultSpec::windows`], a network partition in [`FaultSpec::partitions`].
///
/// * *Outage.* Affected nodes keep their CPU state (timers still fire) but
///   neither transmit nor receive while the window is open — the radio-level
///   model of node death, and of churn when the window closes before the run
///   ends. The basestation (node 0) is never affected.
/// * *Partition.* For the window, no link delivers across the cut, in either
///   direction; nodes on the same side keep communicating. The affected
///   nodes form the isolated side; every other node (always including the
///   basestation unless it is listed explicitly) forms the other side.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// Offset from simulation start at which the window opens.
    pub start: SimDuration,
    /// Offset from simulation start at which the window closes (exclusive).
    pub end: SimDuration,
    /// Fraction of sensor nodes affected, chosen deterministically from the
    /// run seed. Ignored when `nodes` is non-empty.
    pub fraction: f64,
    /// Explicit node ids to affect instead of a seeded sample, without
    /// duplicates.
    pub nodes: Vec<u16>,
}

impl FaultWindow {
    /// A window over a seeded `fraction` of sensors between `start_secs` and
    /// `end_secs` (seconds from simulation start).
    pub fn blackout(start_secs: u64, end_secs: u64, fraction: f64) -> Self {
        FaultWindow {
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
    pub partitions: Vec<FaultWindow>,
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
    fn adversarial_faults_roundtrip_through_serde() {
        let mut spec = ScenarioSpec::paper_defaults();
        spec.policy.basestations = vec![NodeId(0), NodeId(5)];
        spec.faults
            .partitions
            .push(FaultWindow::blackout(600, 900, 0.5));
        spec.faults.sink_outages.push(SinkOutage::new(600, 900, 5));
        spec.faults.churn.push(ChurnEvent::new(700, 0.25, 0.25));
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
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
}
