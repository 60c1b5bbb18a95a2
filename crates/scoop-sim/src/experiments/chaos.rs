//! The chaos scenario family: reliability under scheduled adversarial
//! faults, measured *per phase* rather than over the whole run.
//!
//! Each scenario splits the measured window (everything after warmup) into
//! three phases — `before` the fault, `during` its window, and `after` it
//! heals — and reports storage / query success per phase, next to an
//! unfaulted control run of the same seed measured over the same phase
//! boundaries. The interesting claims are comparative: success before the
//! fault matches the control, degrades (boundedly) during it, and recovers
//! after the heal.
//!
//! Each run is one [`run_windows`] call over the boundaries
//! `[warmup, fault start, aftermath end, run end]`, read window by window;
//! the `before` window counts storage and queries from time zero, as every
//! whole-run measurement does.
//!
//! Chaos stays sequential: each trial runs its faulted and then its control
//! engine on the calling thread, never on the
//! [`SweepRunner`](crate::sweep::SweepRunner)'s workers. Running the two at
//! once keeps two networks live, and on the `sim-paper62` benchmark
//! workload, which runs `chaos-failover` at paper scale, that raised
//! `peak_rss_mib` from 4.74–5.02 to 5.92–6.07 MiB (six alternating pairs,
//! seed 11, two-core x86-64 Linux): about +22 %, against the benchmark's
//! 15 % bound.

use crate::builder::build_engine;
use crate::metrics::RunResult;
use crate::runner::run_windows;
use scoop_types::{
    ChurnEvent, FaultWindow, NodeId, ScenarioSpec, ScoopError, SimDuration, SimTime, SinkOutage,
    StoragePolicy,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three chaos scenarios.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosScenario {
    /// A seeded network partition isolating half the sensors for the middle
    /// phase, then healing.
    Partition,
    /// A two-sink federation whose promoted sink crashes for the middle
    /// phase; the root must detect the death and absorb its attribute range.
    SinkFailover,
    /// A mass-churn event at the middle-phase boundary: a quarter of the
    /// sensors dies permanently while a quarter's worth of fresh nodes joins.
    Churn,
}

impl ChaosScenario {
    /// Stable lowercase name used in row keys and artifact files.
    pub fn slug(self) -> &'static str {
        match self {
            ChaosScenario::Partition => "partition",
            ChaosScenario::SinkFailover => "failover",
            ChaosScenario::Churn => "churn",
        }
    }
}

impl fmt::Display for ChaosScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// The phase names, in order.
pub const PHASES: [&str; 3] = ["before", "during", "after"];

/// One phase of one chaos scenario: success rates for the faulted run next
/// to the unfaulted (and, for failover, single-sink) control.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChaosRow {
    /// The scenario slug (`partition`, `failover`, `churn`).
    pub scenario: String,
    /// The phase (`before`, `during`, `after`).
    pub phase: String,
    /// Fraction of readings sampled in this phase that were stored.
    pub storage_success: f64,
    /// Replies that arrived in this phase *plus* the queries the sinks
    /// answered from their own buffers in it, over the reply targets of the
    /// queries issued in it, capped at 1. A locally answered query adds one
    /// to the numerator and nothing to the denominator, so this is not the
    /// fraction of expected replies that arrived, nor the ratio
    /// `QueryMetrics::query_success` reports; rows read 1.0 where replies
    /// fell short.
    pub query_success: f64,
    /// Storage success of the control run over the same phase window.
    pub control_storage_success: f64,
    /// Query success of the control run over the same phase window, counted
    /// as [`ChaosRow::query_success`] is.
    pub control_query_success: f64,
    /// Readings sampled in this phase of the faulted run (averaged).
    pub sampled: u64,
    /// Reply targets counted in this phase of the faulted run (averaged).
    pub targets: u64,
}

/// The shared chaos base: SCOOP, with the measured window doubled so the
/// fault, its aftermath, and a steady-state recovery tail all fit. Both the
/// faulted and the control run use this, so their phase windows coincide.
pub fn chaos_base(base: &ScenarioSpec) -> ScenarioSpec {
    let mut cfg = base.clone();
    cfg.policy.kind = StoragePolicy::Scoop;
    let w = cfg.warmup.as_secs();
    let m = cfg.duration.as_secs().saturating_sub(w);
    cfg.duration = SimDuration::from_secs(w + 2 * m);
    cfg
}

/// Phase boundaries `[warmup_end, fault_start, aftermath_end, run_end]`,
/// derived from the faulted config's own schedule.
///
/// The `during` phase runs from the first fault's start to one remap
/// interval *past* the last fault's end — the heal transient (routing-tree
/// repair, the first post-heal remap round, redelivery of whatever survived)
/// is part of the degraded period, so the `after` phase measures genuine
/// steady-state recovery. A churn event is instantaneous but permanent; its
/// "end" is one remap interval after the event, the time the joiners need to
/// be integrated. A fault-free config (the control) falls back to thirds,
/// but the control is always measured over its faulted twin's boundaries.
pub fn phase_boundaries(cfg: &ScenarioSpec) -> [SimTime; 4] {
    let w = cfg.warmup.as_secs();
    let d = cfg.duration.as_secs();
    let remap = cfg.policy.scoop.remap_interval.as_secs();
    let mut start = d;
    let mut end = w;
    for p in &cfg.faults.partitions {
        start = start.min(p.start.as_secs());
        end = end.max(p.end.as_secs());
    }
    for s in &cfg.faults.sink_outages {
        start = start.min(s.start.as_secs());
        end = end.max(s.end.as_secs());
    }
    for fw in &cfg.faults.windows {
        start = start.min(fw.start.as_secs());
        end = end.max(fw.end.as_secs());
    }
    for c in &cfg.faults.churn {
        start = start.min(c.at.as_secs());
        end = end.max(c.at.as_secs() + remap);
    }
    if cfg.faults.is_empty() {
        let m = d.saturating_sub(w);
        start = w + m / 3;
        end = w + m * 2 / 3;
    }
    let during_end = (end + remap).min(d.saturating_sub(1)).max(start + 1);
    [w, start.clamp(w + 1, during_end - 1), during_end, d].map(SimTime::from_secs)
}

/// The faulted configuration for one scenario, derived from
/// [`chaos_base`]. With `m` the (doubled) measured window:
///
/// * `partition` — a seeded cut isolating half the sensors over
///   `[0.25 m, 0.5 m]`.
/// * `failover` — a mid-network sensor promoted to a second sink crashes
///   over `[0.25 m, 0.6 m]`; the window exceeds the failover timeout
///   (1.5 remap intervals) plus a full remap round, so the root provably
///   declares it dead and absorbs its attribute range before the restart.
/// * `churn` — at `0.25 m`, a quarter of the sensors dies permanently and a
///   quarter's worth of fresh nodes joins.
pub fn scenario_config(base: &ScenarioSpec, scenario: ChaosScenario) -> ScenarioSpec {
    let mut cfg = chaos_base(base);
    let w = cfg.warmup.as_secs();
    let m = cfg.duration.as_secs().saturating_sub(w);
    let start = w + m / 4;
    match scenario {
        ChaosScenario::Partition => {
            cfg.faults
                .partitions
                .push(FaultWindow::blackout(start, w + m / 2, 0.5));
        }
        ChaosScenario::SinkFailover => {
            let peer = (cfg.num_nodes / 2).max(1) as u16;
            cfg.policy.basestations = vec![NodeId(0), NodeId(peer)];
            cfg.policy.scoop.failover_timeout =
                SimDuration::from_secs(cfg.policy.scoop.remap_interval.as_secs() * 3 / 2);
            cfg.faults
                .sink_outages
                .push(SinkOutage::new(start, w + m * 6 / 10, peer));
        }
        ChaosScenario::Churn => {
            cfg.faults.churn.push(ChurnEvent::new(start, 0.25, 0.25));
        }
    }
    cfg
}

/// The control configuration: same (doubled) base, SCOOP, no faults — and
/// single-sink, so the failover scenario is compared against the classic
/// deployment it must stay within tolerance of.
pub fn control_config(base: &ScenarioSpec) -> ScenarioSpec {
    chaos_base(base)
}

/// Per-phase success rates plus the faulted-run denominators.
#[derive(Clone, Copy, Debug, Default)]
struct PhaseRates {
    storage: f64,
    query: f64,
    sampled: u64,
    targets: u64,
}

impl PhaseRates {
    /// One window's rates, counted as the [`ChaosRow`] fields are.
    fn of(window: &RunResult) -> Self {
        let q = &window.queries;
        let answered = q.replies_received + q.answered_locally;
        PhaseRates {
            storage: window.storage.storage_success(),
            query: if q.targets_total == 0 {
                1.0
            } else {
                (answered as f64 / q.targets_total as f64).min(1.0)
            },
            sampled: window.storage.sampled,
            targets: q.targets_total,
        }
    }
}

/// Runs one configuration once over the phase `boundaries` and returns the
/// three per-phase rates. Boundaries are passed in (always the *faulted*
/// config's), so faulted and control runs are measured over identical
/// windows.
fn run_phased(cfg: &ScenarioSpec, boundaries: [SimTime; 4]) -> Result<[PhaseRates; 3], ScoopError> {
    let windows = run_windows(cfg, build_engine(cfg)?, &boundaries);
    Ok([0, 1, 2].map(|i| PhaseRates::of(&windows[i])))
}

/// Runs one chaos scenario (`trials` seeds, averaged) and returns one row
/// per phase.
pub fn chaos(
    base: &ScenarioSpec,
    scenario: ChaosScenario,
    trials: usize,
) -> Result<Vec<ChaosRow>, ScoopError> {
    let trials = trials.max(1);
    let mut faulted_acc = [PhaseRates::default(); 3];
    let mut control_acc = [PhaseRates::default(); 3];
    for t in 0..trials {
        let mut faulted = scenario_config(base, scenario);
        faulted.seed = base.seed + t as u64;
        let mut control = control_config(base);
        control.seed = base.seed + t as u64;
        let boundaries = phase_boundaries(&faulted);
        for (acc, run) in [
            (&mut faulted_acc, run_phased(&faulted, boundaries)?),
            (&mut control_acc, run_phased(&control, boundaries)?),
        ] {
            for (slot, phase) in acc.iter_mut().zip(run) {
                slot.storage += phase.storage;
                slot.query += phase.query;
                slot.sampled += phase.sampled;
                slot.targets += phase.targets;
            }
        }
    }
    let k = trials as f64;
    Ok(PHASES
        .iter()
        .enumerate()
        .map(|(i, &phase)| ChaosRow {
            scenario: scenario.slug().to_string(),
            phase: phase.to_string(),
            storage_success: faulted_acc[i].storage / k,
            query_success: faulted_acc[i].query / k,
            control_storage_success: control_acc[i].storage / k,
            control_query_success: control_acc[i].query / k,
            sampled: ((faulted_acc[i].sampled as f64) / k).round() as u64,
            targets: ((faulted_acc[i].targets as f64) / k).round() as u64,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_base;

    #[test]
    fn phase_boundaries_track_the_fault_schedule() {
        // Quick scale doubles to a 1200s measured window (1320s run).
        for scenario in [
            ChaosScenario::Partition,
            ChaosScenario::SinkFailover,
            ChaosScenario::Churn,
        ] {
            let cfg = scenario_config(&quick_base(), scenario);
            let [w, b1, b2, end] = phase_boundaries(&cfg);
            assert_eq!(w, SimTime::from_secs(120));
            assert_eq!(end, SimTime::from_secs(1320));
            assert!(w < b1 && b1 < b2 && b2 < end, "{scenario}");
            // Every fault starts at 0.25m = 420s.
            assert_eq!(b1, SimTime::from_secs(420), "{scenario}");
        }
        // The during phase extends one remap interval (120s) past the heal:
        // partition heals at 720, failover restarts at 840, churn "ends" one
        // remap after the 420s event.
        let at = |s| phase_boundaries(&scenario_config(&quick_base(), s))[2];
        assert_eq!(at(ChaosScenario::Partition), SimTime::from_secs(840));
        assert_eq!(at(ChaosScenario::SinkFailover), SimTime::from_secs(960));
        assert_eq!(at(ChaosScenario::Churn), SimTime::from_secs(660));
    }

    #[test]
    fn failover_outage_outlasts_detection() {
        // The outage must span the failover timeout plus a full remap round,
        // or the root can never declare the peer dead before it restarts.
        let cfg = scenario_config(&quick_base(), ChaosScenario::SinkFailover);
        let outage = &cfg.faults.sink_outages[0];
        let timeout = cfg.policy.scoop.effective_failover_timeout().as_secs();
        let remap = cfg.policy.scoop.remap_interval.as_secs();
        assert!(outage.end.as_secs() - outage.start.as_secs() > timeout + remap);
    }

    #[test]
    fn scenario_configs_validate_and_schedule_the_fault_in_the_window() {
        let base = quick_base();
        for scenario in [
            ChaosScenario::Partition,
            ChaosScenario::SinkFailover,
            ChaosScenario::Churn,
        ] {
            let cfg = scenario_config(&base, scenario);
            cfg.validate().unwrap_or_else(|e| panic!("{scenario}: {e}"));
            assert!(!cfg.faults.is_empty(), "{scenario} schedules a fault");
        }
        let failover = scenario_config(&base, ChaosScenario::SinkFailover);
        assert_eq!(failover.policy.basestations.len(), 2);
        assert_eq!(
            failover.faults.sink_outages[0].sink,
            failover.policy.basestations[1]
        );
        // Control is fault-free and single-sink regardless of scenario.
        let control = control_config(&base);
        assert!(control.faults.is_empty());
        assert!(control.policy.basestations.is_empty());
    }

    #[test]
    fn partition_degrades_during_and_recovers_after() {
        let rows = chaos(&quick_base(), ChaosScenario::Partition, 1).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].phase, "before");
        let before = &rows[0];
        let after = &rows[2];
        // Before the fault the faulted run IS the control run.
        assert!((before.storage_success - before.control_storage_success).abs() < 1e-9);
        assert!((before.query_success - before.control_query_success).abs() < 1e-9);
        // The cut visibly degrades storage while it is open.
        let during = &rows[1];
        assert!(
            during.storage_success < during.control_storage_success - 0.1,
            "during-phase storage {} should degrade vs control {}",
            during.storage_success,
            during.control_storage_success
        );
        // Post-heal recovery: within 90 % of the unfaulted control.
        assert!(
            after.storage_success >= after.control_storage_success * 0.9,
            "post-heal storage {} vs control {}",
            after.storage_success,
            after.control_storage_success
        );
        assert!(
            after.query_success >= after.control_query_success * 0.9,
            "post-heal query {} vs control {}",
            after.query_success,
            after.control_query_success
        );
    }

    #[test]
    fn chaos_rows_are_deterministic_per_seed() {
        let a = chaos(&quick_base(), ChaosScenario::Churn, 1).unwrap();
        let b = chaos(&quick_base(), ChaosScenario::Churn, 1).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.storage_success, y.storage_success);
            assert_eq!(x.query_success, y.query_success);
            assert_eq!(x.sampled, y.sampled);
        }
    }
}
