//! Property-based hardening of the adversarial fault model's spec surface:
//! every invalid schedule — inverted windows, fractions outside [0, 1],
//! duplicate node sets, outages on nodes that are not sinks — must be
//! rejected as a typed `InvalidConfig` before a single event runs, and
//! every well-formed schedule must validate cleanly.

use proptest::prelude::*;
use scoop_types::{
    ChurnEvent, FaultSpec, FaultWindow, ScenarioSpec, ScoopError, SimDuration, SinkOutage,
};

/// Values that are never a valid fraction: the non-finite poisons plus
/// finite magnitudes strictly outside [0, 1] on either side.
fn bad_fraction() -> impl Strategy<Value = f64> {
    (0u8..4, 1.0001f64..1e9).prop_map(|(kind, magnitude)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => {
            if (magnitude as u64).is_multiple_of(2) {
                magnitude
            } else {
                -magnitude
            }
        }
    })
}

fn assert_invalid(spec: &FaultSpec) {
    match spec.validate() {
        Err(ScoopError::InvalidConfig(_)) => {}
        other => panic!("{spec:?} must be InvalidConfig, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any combination of well-formed windows, partitions, sink outages on
    /// real sinks, and churn events validates — including overlapping and
    /// nested windows, which are legal and union at the schedule layer.
    #[test]
    fn well_formed_schedules_validate(
        windows in proptest::collection::vec((0u64..500, 1u64..500, 0.0f64..=1.0), 1..4),
        partitions in proptest::collection::vec((0u64..500, 1u64..500, 0.0f64..=1.0), 1..4),
        outages in proptest::collection::vec((0u64..500, 1u64..500), 1..3),
        churn in proptest::collection::vec((0u64..500, 0.0f64..=1.0, 0.0f64..=0.5), 1..3),
    ) {
        let spec = FaultSpec {
            windows: windows
                .iter()
                .map(|&(s, len, f)| FaultWindow::blackout(s, s + len, f))
                .collect(),
            partitions: partitions
                .iter()
                .map(|&(s, len, f)| FaultWindow::blackout(s, s + len, f))
                .collect(),
            sink_outages: outages
                .iter()
                .map(|&(s, len)| SinkOutage::new(s, s + len, 0))
                .collect(),
            churn: churn
                .iter()
                .map(|&(at, kill, join)| ChurnEvent::new(at, kill, join))
                .collect(),
        };
        prop_assert!(spec.validate().is_ok(), "{:?}", spec.validate());

        // And it composes into a full scenario: the sink outages all target
        // node 0, the classic single sink.
        let mut scenario = ScenarioSpec::small_test();
        scenario.faults = spec;
        prop_assert!(scenario.validate().is_ok(), "{:?}", scenario.validate());
    }

    /// A fraction outside [0, 1] — anywhere a fraction appears — is a typed
    /// `InvalidConfig`, never a panic and never a silently clamped value.
    #[test]
    fn out_of_range_fractions_are_rejected(bad in bad_fraction()) {
        assert_invalid(&FaultSpec {
            windows: vec![FaultWindow::blackout(0, 10, bad)],
            ..FaultSpec::none()
        });
        assert_invalid(&FaultSpec {
            partitions: vec![FaultWindow::blackout(0, 10, bad)],
            ..FaultSpec::none()
        });
        assert_invalid(&FaultSpec {
            churn: vec![ChurnEvent::new(10, bad, 0.1)],
            ..FaultSpec::none()
        });
        assert_invalid(&FaultSpec {
            churn: vec![ChurnEvent::new(10, 0.1, bad)],
            ..FaultSpec::none()
        });
    }

    /// Inverted and empty windows are rejected for every windowed kind.
    #[test]
    fn inverted_windows_are_rejected(start in 0u64..1000, shrink in 0u64..100) {
        let end = start.saturating_sub(shrink);
        assert_invalid(&FaultSpec {
            windows: vec![FaultWindow::blackout(start, end, 0.5)],
            ..FaultSpec::none()
        });
        assert_invalid(&FaultSpec {
            partitions: vec![FaultWindow::blackout(start, end, 0.5)],
            ..FaultSpec::none()
        });
        assert_invalid(&FaultSpec {
            sink_outages: vec![SinkOutage::new(start, end, 0)],
            ..FaultSpec::none()
        });
    }

    /// An explicit node set must not contain duplicates, in an outage
    /// window or in a partition.
    #[test]
    fn duplicate_partition_node_sets_are_rejected(
        base in proptest::collection::vec(1u16..200, 1..8),
        dup_index in 0usize..64,
    ) {
        let mut nodes = base;
        let dup = nodes[dup_index % nodes.len()];
        nodes.push(dup);
        let window = FaultWindow {
            start: SimDuration::from_secs(10),
            end: SimDuration::from_secs(20),
            fraction: 0.0,
            nodes,
        };
        assert_invalid(&FaultSpec {
            windows: vec![window.clone()],
            ..FaultSpec::none()
        });
        assert_invalid(&FaultSpec {
            partitions: vec![window],
            ..FaultSpec::none()
        });
    }

    /// A sink outage may only target a configured basestation: in the
    /// classic single-sink scenario every non-zero target is rejected by
    /// `ScenarioSpec::validate`, with a typed error naming the node.
    #[test]
    fn sink_outages_on_non_sinks_are_rejected(sink in 1u16..500) {
        let mut scenario = ScenarioSpec::small_test();
        scenario.faults.sink_outages = vec![SinkOutage::new(100, 200, sink)];
        match scenario.validate() {
            Err(ScoopError::InvalidConfig(msg)) => {
                prop_assert!(msg.contains("not a basestation"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}

/// The multi-sink role list has its own gate: duplicates, a missing root,
/// and ids beyond the sensor range are all typed `InvalidConfig`.
#[test]
fn adversarial_basestation_lists_get_typed_errors() {
    let reject = |setup: fn(&mut ScenarioSpec)| {
        let mut scenario = ScenarioSpec::small_test();
        setup(&mut scenario);
        match scenario.validate() {
            Err(ScoopError::InvalidConfig(_)) => {}
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    };
    reject(|s| s.policy.basestations = vec![scoop_types::NodeId(0), scoop_types::NodeId(0)]);
    reject(|s| s.policy.basestations = vec![scoop_types::NodeId(5)]);
    reject(|s| {
        s.policy.basestations = vec![scoop_types::NodeId(0), scoop_types::NodeId(999)];
    });

    // The well-formed counterpart is accepted.
    let mut scenario = ScenarioSpec::small_test();
    scenario.policy.basestations = vec![scoop_types::NodeId(0), scoop_types::NodeId(8)];
    scenario
        .validate()
        .expect("a real 2-sink federation validates");
}
