//! Validation of every spec component: each check asserts the valid range,
//! so `NaN` and `±∞` knobs fail it, and every rejection is a typed
//! [`ScoopError`] rather than a panic later in the run.

use super::{FaultSpec, LinkSpec, ScenarioSpec, TopologySpec, WorkloadKind, MAX_SINKS};
use crate::{AggregateOp, NodeId, ScoopError, StoragePolicy, MAX_NODES};
use std::fmt;

/// `Ok` when `ok` holds, otherwise [`ScoopError::InvalidConfig`] with `msg`.
fn ensure(ok: bool, msg: impl fmt::Display) -> Result<(), ScoopError> {
    if ok {
        Ok(())
    } else {
        Err(ScoopError::InvalidConfig(msg.to_string()))
    }
}

impl TopologySpec {
    /// Validates the geometry parameters. As in [`LinkSpec::validate`], each
    /// check asserts the valid range, so `NaN` and `±∞` knobs fail it.
    pub fn validate(&self) -> Result<(), ScoopError> {
        for (knob, x) in [
            ("area_per_node", self.area_per_node),
            ("spacing", self.spacing),
            ("range_factor", self.range_factor),
        ] {
            ensure(
                x > 0.0 && x.is_finite(),
                format_args!("topology.{knob} must be finite and > 0"),
            )?;
        }
        ensure(
            (0.0..0.5).contains(&self.jitter),
            "topology.jitter must be in [0, 0.5)",
        )
    }
}

impl LinkSpec {
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
        ensure(
            (0.0..1.0).contains(&self.loss_floor),
            "link.loss_floor must be in [0, 1)",
        )?;
        ensure(
            self.edge_delivery > 0.0 && self.edge_delivery <= 1.0,
            "link.edge_delivery must be in (0, 1]",
        )?;
        // `loss_floor` and `edge_delivery` are already known finite here, so
        // a plain comparison is NaN-safe.
        ensure(
            self.edge_delivery <= self.max_delivery(),
            "link.edge_delivery must not exceed 1 - link.loss_floor",
        )?;
        ensure(
            self.distance_exponent > 0.0 && self.distance_exponent <= Self::MAX_DISTANCE_EXPONENT,
            format_args!(
                "link.distance_exponent must be in (0, {}]",
                Self::MAX_DISTANCE_EXPONENT
            ),
        )?;
        ensure(
            self.asymmetry_noise >= 0.0 && self.asymmetry_noise.is_finite(),
            "link.asymmetry_noise must be finite and >= 0",
        )
    }
}

impl FaultSpec {
    /// Validates every scheduled fault. Outage and partition windows share
    /// one set of checks: the window starts before it ends, its fraction is
    /// in [0, 1], and its explicit node ids hold no duplicates.
    pub fn validate(&self) -> Result<(), ScoopError> {
        for (what, windows) in [("fault", &self.windows), ("partition", &self.partitions)] {
            for w in windows {
                ensure(
                    w.start < w.end,
                    format_args!("{what} window must start before it ends"),
                )?;
                ensure(
                    (0.0..=1.0).contains(&w.fraction),
                    format_args!("{what} window fraction must be in [0, 1]"),
                )?;
                let mut ids = w.nodes.clone();
                ids.sort_unstable();
                ids.dedup();
                ensure(
                    ids.len() == w.nodes.len(),
                    format_args!("{what} window node set must not contain duplicates"),
                )?;
            }
        }
        for s in &self.sink_outages {
            ensure(s.start < s.end, "sink outage must start before it ends")?;
        }
        for c in &self.churn {
            ensure(
                (0.0..=1.0).contains(&c.kill_fraction),
                "churn kill_fraction must be in [0, 1]",
            )?;
            ensure(
                (0.0..=1.0).contains(&c.join_fraction),
                "churn join_fraction must be in [0, 1]",
            )?;
        }
        Ok(())
    }
}

impl ScenarioSpec {
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
        ensure(self.num_nodes != 0, "num_nodes must be >= 1")?;
        ensure(
            self.warmup < self.duration,
            "warmup must be shorter than the total duration",
        )?;
        ensure(
            self.workload.sample_interval.as_millis() != 0,
            "sample_interval must be non-zero",
        )?;
        ensure(
            self.workload.queries.query_interval.as_millis() != 0,
            "query_interval must be non-zero",
        )?;
        ensure(self.policy.scoop.n_bins != 0, "n_bins must be >= 1")?;
        ensure(self.policy.scoop.batch_size != 0, "batch_size must be >= 1")?;
        let q = &self.workload.queries;
        ensure(
            (0.0..=1.0).contains(&q.min_width_frac)
                && (0.0..=1.0).contains(&q.max_width_frac)
                && q.min_width_frac <= q.max_width_frac,
            "query width fractions must satisfy 0 <= min <= max <= 1",
        )?;
        ensure(
            self.workload.value_domain.width() >= 2,
            "value domain must contain at least two values",
        )?;
        match self.workload.kind {
            WorkloadKind::Point => {}
            // NaN fails every comparison below and lands in the error.
            WorkloadKind::Range(range) => ensure(
                range.width_frac > 0.0 && range.width_frac <= 1.0,
                "range workload width_frac must be in (0, 1]",
            )?,
            WorkloadKind::Aggregate(agg) => {
                ensure(
                    agg.epsilon > 0.0 && agg.epsilon <= 0.5,
                    "aggregate workload epsilon must be in (0, 0.5]",
                )?;
                if let AggregateOp::Quantile(q) = agg.op {
                    ensure(q > 0.0 && q < 1.0, "quantile q must be in (0, 1)")?;
                }
            }
        }
        let sinks = self.policy.sink_ids();
        if !self.policy.basestations.is_empty() {
            ensure(
                self.policy.kind == StoragePolicy::Scoop,
                "multi-basestation federation requires the scoop policy",
            )?;
            ensure(
                sinks.len() == self.policy.basestations.len(),
                "basestations must not contain duplicates",
            )?;
            ensure(
                sinks.contains(&NodeId::BASESTATION),
                "basestations must include node 0 (the root sink)",
            )?;
            ensure(
                sinks.len() <= MAX_SINKS,
                format_args!("at most {MAX_SINKS} basestations are supported"),
            )?;
            if let Some(bad) = sinks.iter().find(|s| s.0 as usize > self.num_nodes) {
                return Err(ScoopError::InvalidConfig(format!(
                    "basestation id {} exceeds the node count {}",
                    bad.0, self.num_nodes
                )));
            }
        }
        for outage in &self.faults.sink_outages {
            ensure(
                sinks.contains(&outage.sink),
                format_args!(
                    "sink outage targets node {}, which is not a basestation",
                    outage.sink.0
                ),
            )?;
        }
        self.topology.validate()?;
        self.link.validate()?;
        self.faults.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChurnEvent, FaultWindow, SinkOutage};
    use crate::SimDuration;

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
    fn validation_rejects_bad_adversarial_faults() {
        let cases: &[fn(&mut ScenarioSpec)] = &[
            |s| {
                s.faults
                    .partitions
                    .push(FaultWindow::blackout(900, 600, 0.5))
            },
            |s| s.faults.partitions.push(FaultWindow::blackout(1, 2, 1.5)),
            |s| {
                s.faults
                    .partitions
                    .push(FaultWindow::blackout(1, 2, f64::NAN))
            },
            |s| {
                s.faults.partitions.push(FaultWindow {
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
            .push(FaultWindow::blackout(240, 420, 0.5));
        spec.faults.sink_outages.push(SinkOutage::new(240, 420, 5));
        spec.faults.churn.push(ChurnEvent::new(300, 0.25, 0.25));
        spec.validate().unwrap();
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
}
