//! The string-keyed axis registry: every axis the CLI, sweep grids and
//! benches can override without recompiling, each with its help line and
//! its setter in one [`AXES`] entry.

use super::{
    ChurnEvent, FaultSpec, FaultWindow, LinkFamily, LinkSpec, ScenarioSpec, SinkOutage,
    TopologyKind, WorkloadKind,
};
use crate::{AggregateOp, DataSourceKind, NodeId, ScoopError, SimDuration, StoragePolicy};
use std::str::FromStr;

/// A rejected value: the offending text and the form that was expected.
type Bad<'v> = (&'v str, &'static str);

/// One registry axis: its key, its help line, and the setter that parses a
/// value into the spec.
#[derive(Clone, Copy, Debug)]
pub struct Axis {
    /// The registry key (as typed after `--set`).
    pub key: &'static str,
    /// Expected value and meaning.
    pub doc: &'static str,
    set: for<'v> fn(&mut ScenarioSpec, &'v str) -> Result<(), Bad<'v>>,
}

fn num<'v, T: FromStr>(v: &'v str, expect: &'static str) -> Result<T, Bad<'v>> {
    v.parse().map_err(|_| (v, expect))
}

fn secs(v: &str) -> Result<SimDuration, Bad<'_>> {
    num(v, "seconds").map(SimDuration::from_secs)
}

fn flag(v: &str) -> Result<bool, Bad<'_>> {
    match v {
        "true" | "1" | "yes" | "on" => Ok(true),
        "false" | "0" | "no" | "off" => Ok(false),
        _ => Err((v, "true|false")),
    }
}

/// Resolves a registry name through an enum's `ALL` list and `name()`.
fn named<'v, T: Copy>(
    all: &[T],
    name: fn(T) -> &'static str,
    v: &'v str,
    expect: &'static str,
) -> Result<T, Bad<'v>> {
    all.iter()
        .copied()
        .find(|&x| name(x) == v)
        .ok_or((v, expect))
}

/// Splits `START..END@TAIL`, parsing both offsets (seconds).
fn span<'v>(v: &'v str, expect: &'static str) -> Result<(u64, u64, &'v str), Bad<'v>> {
    let (range, tail) = v.split_once('@').ok_or((v, expect))?;
    let (start, end) = range.split_once("..").ok_or((v, expect))?;
    Ok((num(start, expect)?, num(end, expect)?, tail))
}

/// Parses `START..END@FRACTION` (seconds) or `START..END@nodes:1,2,3`: the
/// grammar of both `fault.window` and `fault.partition`.
fn window(v: &str) -> Result<FaultWindow, Bad<'_>> {
    const EXPECT: &str = "START..END@FRACTION or START..END@nodes:1,2 (seconds)";
    let (start, end, tail) = span(v, EXPECT)?;
    let mut window = FaultWindow::blackout(start, end, 0.0);
    match tail.strip_prefix("nodes:") {
        Some(list) => {
            window.nodes = list
                .split(',')
                .map(|id| num(id, EXPECT))
                .collect::<Result<_, _>>()?
        }
        None => window.fraction = num(tail, EXPECT)?,
    }
    Ok(window)
}

/// Parses `START..END@SINK_ID` (seconds).
fn sink_outage(v: &str) -> Result<SinkOutage, Bad<'_>> {
    const EXPECT: &str = "START..END@SINK_ID (seconds)";
    let (start, end, sink) = span(v, EXPECT)?;
    Ok(SinkOutage::new(start, end, num(sink, EXPECT)?))
}

/// Parses `AT@KILL_FRAC/JOIN_FRAC` (seconds; `/JOIN_FRAC` optional).
fn churn(v: &str) -> Result<ChurnEvent, Bad<'_>> {
    const EXPECT: &str = "AT@KILL_FRAC/JOIN_FRAC (seconds; /JOIN_FRAC optional)";
    let (at, tail) = v.split_once('@').ok_or((v, EXPECT))?;
    let (kill, join) = tail.split_once('/').unwrap_or((tail, "0"));
    Ok(ChurnEvent::new(
        num(at, EXPECT)?,
        num(kill, EXPECT)?,
        num(join, EXPECT)?,
    ))
}

/// Parses a comma-separated sink id list (an empty value clears the role).
fn basestations(v: &str) -> Result<Vec<NodeId>, Bad<'_>> {
    const EXPECT: &str = "comma-separated node ids, e.g. 0,5,9 (empty clears)";
    if v.trim().is_empty() {
        return Ok(Vec::new());
    }
    v.split(',')
        .map(|id| num(id.trim(), EXPECT).map(NodeId))
        .collect()
}

/// Every axis the string-keyed registry understands, in help order.
/// [`ScenarioSpec::set_axis`] looks the key up here and calls its setter.
pub const AXES: &[Axis] = &[
    Axis {
        key: "nodes",
        doc: "sensor count, excluding the basestation (1..=MAX_NODES-1)",
        set: |s, v| num(v, "a node count").map(|n| s.num_nodes = n),
    },
    Axis {
        key: "seed",
        doc: "base seed for all randomness (u64)",
        set: |s, v| num(v, "an unsigned seed").map(|seed| s.seed = seed),
    },
    Axis {
        key: "duration_secs",
        doc: "total simulated seconds",
        set: |s, v| secs(v).map(|d| s.duration = d),
    },
    Axis {
        key: "warmup_secs",
        doc: "stabilization prefix in seconds",
        set: |s, v| secs(v).map(|d| s.warmup = d),
    },
    Axis {
        key: "policy",
        doc: "storage policy: scoop|local|base|hash",
        set: |s, v| {
            named(
                &StoragePolicy::ALL,
                StoragePolicy::name,
                v,
                "scoop|local|base|hash",
            )
            .map(|p| s.policy.kind = p)
        },
    },
    Axis {
        key: "source",
        doc: "data source: real|unique|equal|random|gaussian",
        set: |s, v| {
            let expect = "real|unique|equal|random|gaussian";
            named(&DataSourceKind::ALL, DataSourceKind::name, v, expect)
                .map(|k| s.workload.data_source = k)
        },
    },
    Axis {
        key: "sample_interval_secs",
        doc: "seconds between sensor samples",
        set: |s, v| secs(v).map(|d| s.workload.sample_interval = d),
    },
    Axis {
        key: "query.interval_secs",
        doc: "seconds between basestation queries",
        set: |s, v| secs(v).map(|d| s.workload.queries.query_interval = d),
    },
    Axis {
        key: "query.min_width",
        doc: "minimum query width as a domain fraction [0,1]",
        set: |s, v| num(v, "a fraction").map(|f| s.workload.queries.min_width_frac = f),
    },
    Axis {
        key: "query.max_width",
        doc: "maximum query width as a domain fraction [0,1]",
        set: |s, v| num(v, "a fraction").map(|f| s.workload.queries.max_width_frac = f),
    },
    Axis {
        key: "query.history_samples",
        doc: "how many sample intervals queries look back",
        set: |s, v| num(v, "a count").map(|n| s.workload.queries.history_samples = n),
    },
    Axis {
        key: "topology",
        doc: "placement family: office|grid|random|linear",
        set: |s, v| {
            named(
                &TopologyKind::ALL,
                TopologyKind::name,
                v,
                "office|grid|random|linear",
            )
            .map(|k| s.topology.kind = k)
        },
    },
    Axis {
        key: "topology.area_per_node",
        doc: "square meters per node (office/random)",
        set: |s, v| num(v, "square meters").map(|x| s.topology.area_per_node = x),
    },
    Axis {
        key: "topology.jitter",
        doc: "office-floor cell jitter fraction [0,0.5)",
        set: |s, v| num(v, "a fraction").map(|x| s.topology.jitter = x),
    },
    Axis {
        key: "topology.spacing",
        doc: "meters between adjacent nodes (grid/linear)",
        set: |s, v| num(v, "meters").map(|x| s.topology.spacing = x),
    },
    Axis {
        key: "topology.range_factor",
        doc: "radio-range multiplier (>0)",
        set: |s, v| num(v, "a multiplier").map(|x| s.topology.range_factor = x),
    },
    // A bare family keeps the current knobs; the `calibrated` preset pins
    // family *and* knobs to the shipped default.
    Axis {
        key: "link",
        doc: "loss-model family or preset: distance|perfect|calibrated \
              (the preset also sets the four knobs)",
        set: |s, v| {
            if v == "calibrated" {
                s.link = LinkSpec::calibrated();
                return Ok(());
            }
            named(
                &LinkFamily::ALL,
                LinkFamily::name,
                v,
                "distance|perfect|calibrated",
            )
            .map(|f| s.link.family = f)
        },
    },
    Axis {
        key: "link.loss_floor",
        doc: "loss of the best link [0,1); delivery at d=0 is 1-floor",
        set: |s, v| num(v, "a probability").map(|x| s.link.loss_floor = x),
    },
    Axis {
        key: "link.edge_delivery",
        doc: "delivery probability at the radio-range edge (0,1]",
        set: |s, v| num(v, "a probability").map(|x| s.link.edge_delivery = x),
    },
    Axis {
        key: "link.distance_exponent",
        doc: "decay shape (d/range)^k; 1 = linear (>0)",
        set: |s, v| num(v, "an exponent").map(|x| s.link.distance_exponent = x),
    },
    Axis {
        key: "link.asymmetry_noise",
        doc: "per-direction delivery noise stddev (>=0)",
        set: |s, v| num(v, "a stddev").map(|x| s.link.asymmetry_noise = x),
    },
    Axis {
        key: "scoop.summary_interval_secs",
        doc: "seconds between node summaries",
        set: |s, v| secs(v).map(|d| s.policy.scoop.summary_interval = d),
    },
    Axis {
        key: "scoop.remap_interval_secs",
        doc: "seconds between index recomputations",
        set: |s, v| secs(v).map(|d| s.policy.scoop.remap_interval = d),
    },
    Axis {
        key: "scoop.n_bins",
        doc: "summary histogram bins (>=1)",
        set: |s, v| num(v, "a count").map(|n| s.policy.scoop.n_bins = n),
    },
    Axis {
        key: "scoop.batch_size",
        doc: "max readings per data packet (>=1)",
        set: |s, v| num(v, "a count").map(|n| s.policy.scoop.batch_size = n),
    },
    Axis {
        key: "scoop.suppress_unchanged_index",
        doc: "true|false: skip re-disseminating unchanged indices",
        set: |s, v| flag(v).map(|b| s.policy.scoop.suppress_unchanged_index = b),
    },
    Axis {
        key: "scoop.neighbor_shortcut",
        doc: "true|false: enable routing rule 3",
        set: |s, v| flag(v).map(|b| s.policy.scoop.neighbor_shortcut = b),
    },
    Axis {
        key: "fault.window",
        doc: "append an outage window: START..END@FRACTION (secs, e.g. 600..900@0.1)",
        set: |s, v| window(v).map(|w| s.faults.windows.push(w)),
    },
    Axis {
        key: "fault.partition",
        doc: "append a partition: START..END@FRACTION or START..END@nodes:1,2 (secs)",
        set: |s, v| window(v).map(|w| s.faults.partitions.push(w)),
    },
    Axis {
        key: "fault.sink_down",
        doc: "append a sink crash-restart: START..END@SINK_ID (secs)",
        set: |s, v| sink_outage(v).map(|o| s.faults.sink_outages.push(o)),
    },
    Axis {
        key: "fault.churn",
        doc: "append mass churn: AT@KILL_FRAC/JOIN_FRAC (secs; /JOIN_FRAC optional)",
        set: |s, v| churn(v).map(|c| s.faults.churn.push(c)),
    },
    Axis {
        key: "fault.clear",
        doc: "any value: remove all scheduled faults (every kind)",
        set: |s, _| {
            s.faults = FaultSpec::none();
            Ok(())
        },
    },
    Axis {
        key: "policy.basestations",
        doc: "comma-separated sink node ids (must include 0); empty = classic single sink",
        set: |s, v| basestations(v).map(|b| s.policy.basestations = b),
    },
    Axis {
        key: "scoop.failover_timeout_secs",
        doc: "silence before a sink's range is taken over (0 = 3x remap interval)",
        set: |s, v| secs(v).map(|d| s.policy.scoop.failover_timeout = d),
    },
    // The workload-kind axes compose in any order: knob axes flip the kind
    // and keep the other knob's current (or default) value, so
    // `workload.agg_op=quantile:0.9 workload.epsilon=0.02` works regardless
    // of ordering. The knobs themselves are checked in `validate`, like
    // every other axis.
    Axis {
        key: "workload.kind",
        doc: "query shape: point|range|aggregate",
        set: |s, v| {
            s.workload.kind = match (v, s.workload.kind) {
                ("point", _) => WorkloadKind::Point,
                ("range", k @ WorkloadKind::Range(_))
                | ("aggregate", k @ WorkloadKind::Aggregate(_)) => k,
                ("range", _) => WorkloadKind::range(WorkloadKind::DEFAULT_RANGE_WIDTH),
                ("aggregate", _) => {
                    WorkloadKind::aggregate(AggregateOp::Avg, WorkloadKind::DEFAULT_EPSILON)
                }
                _ => return Err((v, "point|range|aggregate")),
            };
            Ok(())
        },
    },
    Axis {
        key: "workload.range_width",
        doc: "range query width as a domain fraction (0,1]; implies kind=range",
        set: |s, v| {
            num(v, "a fraction in (0, 1]").map(|w| s.workload.kind = WorkloadKind::range(w))
        },
    },
    Axis {
        key: "workload.agg_op",
        doc: "aggregate operator: min|max|avg|quantile:Q; implies kind=aggregate",
        set: |s, v| {
            let op = AggregateOp::parse(v).ok_or((v, "min|max|avg|quantile:Q"))?;
            let agg = s.workload.kind.aggregate_spec();
            let epsilon = agg.map_or(WorkloadKind::DEFAULT_EPSILON, |a| a.epsilon);
            s.workload.kind = WorkloadKind::aggregate(op, epsilon);
            Ok(())
        },
    },
    Axis {
        key: "workload.epsilon",
        doc: "quantile rank-error budget (0,0.5]; implies kind=aggregate",
        set: |s, v| {
            let epsilon = num(v, "a fraction in (0, 0.5]")?;
            let agg = s.workload.kind.aggregate_spec();
            let op = agg.map_or(AggregateOp::Avg, |a| a.op);
            s.workload.kind = WorkloadKind::aggregate(op, epsilon);
            Ok(())
        },
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

impl ScenarioSpec {
    /// Applies one string-keyed axis override (see [`AXES`] for the
    /// vocabulary). Unknown keys fail with an error that lists every valid
    /// axis; bad values name the expected form. The spec is *not* validated
    /// here — call [`ScenarioSpec::validate`] (or run the spec) after the
    /// last override so interdependent axes can be set in any order.
    pub fn set_axis(&mut self, key: &str, value: &str) -> Result<(), ScoopError> {
        let axis = AXES.iter().find(|a| a.key == key).ok_or_else(|| {
            ScoopError::InvalidConfig(format!(
                "unknown axis `{key}`; valid axes:\n{}",
                axis_help()
            ))
        })?;
        (axis.set)(self, value).map_err(|(bad, expect)| bad_value(key, bad, expect))
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

        // Only the names in each enum's `ALL` are accepted; the error lists
        // them.
        for (key, value, vocabulary) in [
            ("topology", "line", "office|grid|random|linear"),
            ("topology", "office-floor", "office|grid|random|linear"),
            ("link", "lossless", "distance|perfect|calibrated"),
        ] {
            let err = spec.set_axis(key, value).unwrap_err().to_string();
            assert_eq!(
                err,
                format!("invalid configuration: axis `{key}`: bad value `{value}` (expected {vocabulary})")
            );
        }

        // A compound value names the part that failed to parse.
        let err = spec.set_axis("fault.window", "x..900@0.1").unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid configuration: axis `fault.window`: bad value `x` \
             (expected START..END@FRACTION or START..END@nodes:1,2 (seconds))"
        );
    }

    #[test]
    fn axis_keys_are_unique_and_every_enum_name_is_settable() {
        let mut keys: Vec<&str> = AXES.iter().map(|a| a.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), AXES.len(), "duplicate axis key");

        let mut spec = ScenarioSpec::paper_defaults();
        for policy in StoragePolicy::ALL {
            spec.set_axis("policy", policy.name()).unwrap();
            assert_eq!(spec.policy.kind, policy);
        }
        for source in DataSourceKind::ALL {
            spec.set_axis("source", source.name()).unwrap();
            assert_eq!(spec.workload.data_source, source);
        }
        for kind in TopologyKind::ALL {
            spec.set_axis("topology", kind.name()).unwrap();
            assert_eq!(spec.topology.kind, kind);
        }
        for family in LinkFamily::ALL {
            spec.set_axis("link", family.name()).unwrap();
            assert_eq!(spec.link.family, family);
        }
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
}
