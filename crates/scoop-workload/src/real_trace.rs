//! A synthetic stand-in for the Intel Lab light trace ("REAL" / "FILE"
//! workload).
//!
//! The paper replays "a trace of real light data collected from a 50-node
//! indoor sensor network deployment. ... Because these sensors were deployed
//! in the same building, their light readings are highly correlated."
//! (Section 6). We cannot redistribute that trace, so this module generates
//! an equivalent one with the two properties Scoop's index exploits:
//!
//! * **temporal stationarity** — a node's readings drift slowly, so its
//!   recent histogram predicts its near-future values;
//! * **spatial correlation** — nodes in the same region (adjacent node ids on
//!   the office-floor layout) see similar light levels, so a handful of
//!   owners can cover many producers.
//!
//! The generated signal is: a shared diurnal component (slow sinusoid over
//! the run), plus a smooth per-region offset (nodes are grouped into rooms of
//! `ROOM_SIZE` consecutive ids that share a lighting state), plus occasional
//! room-level step changes (lights switched on/off), plus small per-sample
//! noise. Values are clamped to the configured domain (~150 distinct values,
//! matching the paper's V ≈ 150).
//!
//! The whole trace — including every room's light-toggle schedule — is fixed
//! at construction time from the seed, and per-sample noise is hashed from
//! `(seed, node, now)`. Sampling is therefore a pure function of
//! `(node, now)`, and one trace serves every node of a run (see
//! [`DataSource`]).

use crate::sources::{sample_hash, unit_f64, DataSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scoop_types::{DataSourceKind, NodeId, SimTime, Value, ValueRange};
use std::ops::Range;

/// Number of consecutive node ids that share a "room" (and therefore a
/// lighting state).
const ROOM_SIZE: usize = 6;

/// How often (on average) a room's lights toggle, in seconds of simulated time.
const TOGGLE_MEAN_SECS: f64 = 600.0;

/// Toggle schedules are materialized out to this simulated horizon (far
/// longer than any experiment run); beyond it rooms keep toggling on a
/// regular `TOGGLE_MEAN_SECS` cadence (see [`lights_on`]).
const SCHEDULE_HORIZON_SECS: f64 = 400_000.0;

#[derive(Clone, Debug)]
struct RoomState {
    /// Baseline light level of the room as a fraction of the domain.
    baseline: f64,
    /// Whether the artificial lights start out on.
    initially_on: bool,
    /// The room's run of [`RealTrace::toggles`].
    toggles: Range<u32>,
}

/// Whether lights that start out `initially_on` and flip at the ascending
/// times `toggles` (seconds) are on at `now_secs`.
fn lights_on(initially_on: bool, toggles: &[f64], now_secs: f64) -> bool {
    let mut flips = toggles.partition_point(|&t| t <= now_secs);
    // Past the materialized schedule the lights keep toggling on a regular
    // cadence (rather than silently freezing), so arbitrarily long runs
    // retain temporal dynamics while staying pure.
    if let Some(&last) = toggles.last() {
        if now_secs > last {
            flips += ((now_secs - last) / TOGGLE_MEAN_SECS) as usize;
        }
    }
    initially_on ^ (flips % 2 == 1)
}

/// Synthetic, spatially and temporally correlated light trace.
#[derive(Clone, Debug)]
pub struct RealTrace {
    domain: ValueRange,
    rooms: Vec<RoomState>,
    /// Every room's light toggle times (seconds), one room after another,
    /// each run ascending; fixed at construction so sampling never mutates
    /// shared state.
    toggles: Vec<f64>,
    /// Per-node fixed offset within its room (sensor placement / calibration).
    node_offset: Vec<f64>,
    /// Amplitude of the shared diurnal component, as a fraction of the domain.
    diurnal_amplitude: f64,
    /// Period of the diurnal component in seconds. Chosen shorter than a real
    /// day so that a 40-minute experiment sees meaningful drift.
    diurnal_period_secs: f64,
    noise_std: f64,
    seed: u64,
}

impl RealTrace {
    /// Creates a trace generator for `num_nodes` sensors over `domain`.
    pub fn new(domain: ValueRange, num_nodes: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4ea111);
        let num_rooms = (num_nodes + 1).div_ceil(ROOM_SIZE).max(1);
        // A room toggles every `TOGGLE_MEAN_SECS` on average; a tenth more
        // than that is many standard deviations of headroom, so the flat
        // schedule is allocated once.
        let per_room = (SCHEDULE_HORIZON_SECS / TOGGLE_MEAN_SECS * 1.1) as usize;
        let mut toggles = Vec::with_capacity(num_rooms * per_room);
        let rooms = (0..num_rooms)
            .map(|_| {
                let baseline = rng.gen_range(0.25..0.75);
                let initially_on = rng.gen_bool(0.6);
                let start = toggles.len() as u32;
                let mut next = rng.gen_range(0.0..TOGGLE_MEAN_SECS * 2.0);
                while next < SCHEDULE_HORIZON_SECS {
                    toggles.push(next);
                    next += rng.gen_range(TOGGLE_MEAN_SECS * 0.5..TOGGLE_MEAN_SECS * 1.5);
                }
                RoomState {
                    baseline,
                    initially_on,
                    toggles: start..toggles.len() as u32,
                }
            })
            .collect();
        let node_offset = (0..=num_nodes)
            .map(|_| rng.gen_range(-0.06..0.06))
            .collect();
        RealTrace {
            domain,
            rooms,
            toggles,
            node_offset,
            diurnal_amplitude: 0.18,
            diurnal_period_secs: 3_600.0,
            noise_std: 0.015,
            seed,
        }
    }

    fn room_of(&self, node: NodeId) -> usize {
        (node.index() / ROOM_SIZE).min(self.rooms.len() - 1)
    }
}

impl DataSource for RealTrace {
    fn kind(&self) -> DataSourceKind {
        DataSourceKind::Real
    }

    fn domain(&self) -> ValueRange {
        self.domain
    }

    fn sample(&self, node: NodeId, now: SimTime) -> Value {
        let now_secs = now.as_secs_f64();
        let room_state = &self.rooms[self.room_of(node)];

        let diurnal = self.diurnal_amplitude
            * (2.0 * std::f64::consts::PI * now_secs / self.diurnal_period_secs).sin();
        let run = room_state.toggles.start as usize..room_state.toggles.end as usize;
        let lights = if lights_on(room_state.initially_on, &self.toggles[run], now_secs) {
            0.22
        } else {
            0.0
        };
        let offset = self.node_offset.get(node.index()).copied().unwrap_or(0.0);
        let h = sample_hash(self.seed, node, now, 0x4ea15e);
        let noise = (unit_f64(h) * 2.0 - 1.0) * self.noise_std;

        let frac = (room_state.baseline + diurnal + lights + offset + noise).clamp(0.0, 1.0);
        let span = (self.domain.hi - self.domain.lo) as f64;
        (self.domain.lo as f64 + frac * span).round() as Value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOMAIN: ValueRange = ValueRange { lo: 0, hi: 149 };

    fn collect_series(trace: &RealTrace, node: NodeId, samples: usize) -> Vec<Value> {
        (0..samples)
            .map(|i| trace.sample(node, SimTime::from_secs(i as u64 * 15)))
            .collect()
    }

    #[test]
    fn values_stay_in_domain() {
        let t = RealTrace::new(DOMAIN, 62, 1);
        for n in 1..=62u16 {
            for i in 0..50 {
                let v = t.sample(NodeId(n), SimTime::from_secs(i * 15));
                assert!(DOMAIN.contains(v), "node {n}: {v}");
            }
        }
    }

    #[test]
    fn temporal_correlation_consecutive_samples_are_close() {
        let t = RealTrace::new(DOMAIN, 62, 2);
        let series = collect_series(&t, NodeId(10), 80);
        let mut small_steps = 0;
        for w in series.windows(2) {
            if (w[0] - w[1]).abs() <= 15 {
                small_steps += 1;
            }
        }
        // The vast majority of 15-second steps are small; only light toggles
        // produce jumps.
        assert!(
            small_steps as f64 / (series.len() - 1) as f64 > 0.85,
            "only {small_steps}/{} steps were small",
            series.len() - 1
        );
    }

    #[test]
    fn spatial_correlation_same_room_nodes_track_each_other() {
        let t = RealTrace::new(DOMAIN, 62, 3);
        // Nodes 12 and 13 share a room; 12 and 40 do not.
        let mut same_diffs = Vec::new();
        let mut far_diffs = Vec::new();
        for i in 0..60u64 {
            let now = SimTime::from_secs(i * 15);
            let a = t.sample(NodeId(12), now);
            let b = t.sample(NodeId(13), now);
            let c = t.sample(NodeId(40), now);
            same_diffs.push((a - b).abs() as f64);
            far_diffs.push((a - c).abs() as f64);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&same_diffs) < mean(&far_diffs) + 1.0,
            "same-room difference {} should not exceed cross-room difference {}",
            mean(&same_diffs),
            mean(&far_diffs)
        );
        assert!(mean(&same_diffs) < 20.0, "same-room nodes should be close");
    }

    #[test]
    fn different_rooms_have_different_levels() {
        let t = RealTrace::new(DOMAIN, 62, 4);
        let now = SimTime::from_secs(300);
        let values: Vec<Value> = (1..=62u16).map(|n| t.sample(NodeId(n), now)).collect();
        let distinct: std::collections::HashSet<_> = values.iter().collect();
        assert!(
            distinct.len() > 8,
            "the network should see a spread of light levels"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = RealTrace::new(DOMAIN, 30, 9);
        let b = RealTrace::new(DOMAIN, 30, 9);
        for i in 0..40u64 {
            let n = NodeId((i % 30 + 1) as u16);
            assert_eq!(
                a.sample(n, SimTime::from_secs(i * 15)),
                b.sample(n, SimTime::from_secs(i * 15))
            );
        }
    }

    #[test]
    fn sampling_never_mutates_observable_state() {
        // Two copies disagree only if sampling mutates shared state; hammer
        // one copy, then check it still agrees with a fresh one.
        let a = RealTrace::new(DOMAIN, 12, 6);
        for i in 0..500u64 {
            a.sample(NodeId((i % 12 + 1) as u16), SimTime::from_secs(i * 3));
        }
        let fresh = RealTrace::new(DOMAIN, 12, 6);
        for i in 0..50u64 {
            let n = NodeId((i % 12 + 1) as u16);
            let t = SimTime::from_secs(i * 15);
            assert_eq!(a.sample(n, t), fresh.sample(n, t));
        }
    }

    #[test]
    fn lights_keep_toggling_beyond_schedule_horizon() {
        let t = RealTrace::new(DOMAIN, 12, 5);
        // Sample a window starting well past SCHEDULE_HORIZON_SECS; room
        // light toggles must still produce visible jumps there.
        let base = 500_000u64;
        let series: Vec<Value> = (0..400)
            .map(|i| t.sample(NodeId(3), SimTime::from_secs(base + i * 15)))
            .collect();
        let max_jump = series
            .windows(2)
            .map(|w| (w[0] - w[1]).abs())
            .max()
            .unwrap();
        assert!(
            max_jump > 15,
            "lights froze beyond the schedule horizon (max jump {max_jump})"
        );
    }

    /// The trace as it was built before the toggle schedules were
    /// flattened: one separately grown `Vec` per room, sampled with the same
    /// formula. The differential oracle for [`RealTrace`].
    struct PerRoomTrace {
        rooms: Vec<(f64, bool, Vec<f64>)>,
        node_offset: Vec<f64>,
        seed: u64,
    }

    impl PerRoomTrace {
        fn new(num_nodes: usize, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x4ea111);
            let num_rooms = (num_nodes + 1).div_ceil(ROOM_SIZE).max(1);
            let rooms = (0..num_rooms)
                .map(|_| {
                    let baseline = rng.gen_range(0.25..0.75);
                    let initially_on = rng.gen_bool(0.6);
                    let mut toggles = Vec::new();
                    let mut next = rng.gen_range(0.0..TOGGLE_MEAN_SECS * 2.0);
                    while next < SCHEDULE_HORIZON_SECS {
                        toggles.push(next);
                        next += rng.gen_range(TOGGLE_MEAN_SECS * 0.5..TOGGLE_MEAN_SECS * 1.5);
                    }
                    (baseline, initially_on, toggles)
                })
                .collect();
            let node_offset = (0..=num_nodes)
                .map(|_| rng.gen_range(-0.06..0.06))
                .collect();
            PerRoomTrace {
                rooms,
                node_offset,
                seed,
            }
        }

        fn sample(&self, node: NodeId, now: SimTime) -> Value {
            let now_secs = now.as_secs_f64();
            let (baseline, initially_on, toggles) =
                &self.rooms[(node.index() / ROOM_SIZE).min(self.rooms.len() - 1)];
            let mut flips = toggles.partition_point(|&t| t <= now_secs);
            if let Some(&last) = toggles.last() {
                if now_secs > last {
                    flips += ((now_secs - last) / TOGGLE_MEAN_SECS) as usize;
                }
            }
            let on = *initially_on ^ (flips % 2 == 1);
            let diurnal = 0.18 * (2.0 * std::f64::consts::PI * now_secs / 3_600.0).sin();
            let lights = if on { 0.22 } else { 0.0 };
            let offset = self.node_offset.get(node.index()).copied().unwrap_or(0.0);
            let h = sample_hash(self.seed, node, now, 0x4ea15e);
            let noise = (unit_f64(h) * 2.0 - 1.0) * 0.015;
            let frac = (baseline + diurnal + lights + offset + noise).clamp(0.0, 1.0);
            let span = (DOMAIN.hi - DOMAIN.lo) as f64;
            (DOMAIN.lo as f64 + frac * span).round() as Value
        }
    }

    #[test]
    fn flat_schedule_samples_like_per_room_schedules() {
        for (num_nodes, seed) in [(1, 3), (12, 5), (62, 11), (62, 29), (300, 7)] {
            let flat = RealTrace::new(DOMAIN, num_nodes, seed);
            let per_room = PerRoomTrace::new(num_nodes, seed);
            // Past the last node too: out-of-range ids fall into the last
            // room with no offset.
            for n in 0..=num_nodes as u16 + 2 {
                // Across the whole materialized schedule and 50,000 s past
                // its 400,000-s horizon, where the regular cadence takes over.
                for t in (0..450_000u64).step_by(1_237) {
                    let (node, now) = (NodeId(n), SimTime::from_millis(t * 1_000 + n as u64));
                    assert_eq!(
                        flat.sample(node, now),
                        per_room.sample(node, now),
                        "{num_nodes} nodes, seed {seed}, node {n}, {t} s"
                    );
                }
            }
        }
    }

    #[test]
    fn lights_toggle_eventually() {
        let t = RealTrace::new(DOMAIN, 12, 5);
        let series = collect_series(&t, NodeId(3), 400);
        let max_jump = series
            .windows(2)
            .map(|w| (w[0] - w[1]).abs())
            .max()
            .unwrap();
        assert!(
            max_jump > 15,
            "over 100 minutes at least one room light toggle should be visible"
        );
    }
}
