//! The link-model calibration: a grid search over the four
//! [`LinkSpec`] knobs against the paper's reliability prose and Figure 3 cost
//! ratio.
//!
//! With the legacy loss model the reproduction's storage/query success sat at
//! ~56 %/~38 % against the paper's ~93 %/~78 %. This experiment runs SCOOP
//! *and* BASE at every grid point and scores each point by [`objective`], the
//! weighted L1 distance to the paper targets. The argmin of the paper-scale
//! grid ships as `LinkSpec::default()`; the calibration-oracle test holds the
//! committed `results/calibration.json` to that.

use crate::sweep::{ScenarioSuite, SweepRunner};
use scoop_types::{LinkSpec, ScenarioSpec, ScoopError, StoragePolicy};
use serde::{Deserialize, Serialize};

/// The paper targets, in [`objective`] term order: storage success ~93 %,
/// query success ~78 %, destination accuracy ~85 % (Section 6 prose), and the
/// Figure 3 (middle) SCOOP/BASE cost ratio ≈ 0.70 on the REAL trace.
const TARGETS: [f64; 4] = [0.93, 0.78, 0.85, 0.70];

/// Per-term weights of [`objective`], in the same order. The reliability
/// prose numbers carry full weight — they are the drift the calibration
/// exists to close. Destination accuracy and the cost ratio carry half
/// weight: they keep the search honest (a point that buys reliability by
/// flooding the network blows up the cost ratio) without letting
/// figure-derived numbers outvote the prose.
const WEIGHTS: [f64; 4] = [1.0, 1.0, 0.5, 0.5];

/// One measured grid point: the link model, the reliability and cost
/// metrics, and the objective score.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CalibrationRow {
    /// The link model this point ran under.
    pub point: LinkSpec,
    /// Fraction of sampled readings stored somewhere (SCOOP).
    pub storage_success: f64,
    /// Fraction of expected query replies that reached the basestation.
    pub query_success: f64,
    /// Of the routed readings, the fraction stored on the designated owner.
    pub destination_accuracy: f64,
    /// SCOOP total messages over the measured window.
    pub scoop_messages: u64,
    /// BASE total messages under the same link model (the Figure 3 divisor).
    pub base_messages: u64,
    /// `scoop_messages / base_messages` — the Figure 3 (middle) cost ratio.
    pub cost_ratio: f64,
    /// [`objective`] of this row.
    pub objective: f64,
}

/// The weighted distance of one measured row from the paper targets (lower
/// is better; zero exactly at the targets).
pub fn objective(row: &CalibrationRow) -> f64 {
    let measured = [
        row.storage_success,
        row.query_success,
        row.destination_accuracy,
        row.cost_ratio,
    ];
    measured
        .into_iter()
        .zip(TARGETS)
        .zip(WEIGHTS)
        .map(|((m, t), w)| w * (m - t).abs())
        .sum()
}

/// The first row with the minimal objective, if any.
pub fn winner(rows: &[CalibrationRow]) -> Option<&CalibrationRow> {
    rows.iter()
        .min_by(|a, b| a.objective.total_cmp(&b.objective))
}

/// Short label of a grid point, used in scenario labels, row keys and
/// reports.
pub fn label(spec: &LinkSpec) -> String {
    format!(
        "floor-{:.2}/edge-{:.2}/exp-{:.1}/noise-{:.2}",
        spec.loss_floor, spec.edge_delivery, spec.distance_exponent, spec.asymmetry_noise
    )
}

/// The full grid searched at paper scale: every combination of three loss
/// floors (the legacy 0.22 plus two gentler ones), linear vs. quadratic
/// decay, two edge-delivery levels, and two asymmetry-noise levels — 24
/// points.
pub fn default_grid() -> Vec<LinkSpec> {
    let mut grid = Vec::new();
    for loss_floor in [0.22, 0.10, 0.05] {
        for distance_exponent in [1.0, 2.0] {
            for edge_delivery in [0.10, 0.20] {
                for asymmetry_noise in [0.03, 0.06] {
                    grid.push(LinkSpec {
                        loss_floor,
                        edge_delivery,
                        distance_exponent,
                        asymmetry_noise,
                        ..LinkSpec::legacy()
                    });
                }
            }
        }
    }
    grid
}

/// A three-point grid for the smoke suite: the legacy knobs, one
/// intermediate point, and the calibrated knobs.
pub fn smoke_grid() -> Vec<LinkSpec> {
    vec![
        LinkSpec::legacy(),
        LinkSpec {
            loss_floor: 0.05,
            distance_exponent: 2.0,
            ..LinkSpec::legacy()
        },
        LinkSpec::calibrated(),
    ]
}

/// Runs SCOOP and BASE at every grid point (through one sweep) and scores
/// each point by [`objective`]. Rows come back in grid order.
pub fn calibration(
    base: &ScenarioSpec,
    grid: &[LinkSpec],
    trials: usize,
) -> Result<Vec<CalibrationRow>, ScoopError> {
    let jobs = grid
        .iter()
        .flat_map(|&spec| [(spec, StoragePolicy::Scoop), (spec, StoragePolicy::Base)]);
    let suite = ScenarioSuite::from_grid("calibration", trials, jobs, |(spec, policy)| {
        let mut cfg = base.clone();
        cfg.policy.kind = policy;
        cfg.link = spec;
        (format!("{}/{policy}", label(&spec)), cfg)
    });
    let report = SweepRunner::from_env().run(&suite)?;
    let mut averaged = report.averaged();
    let mut rows = Vec::with_capacity(grid.len());
    for &point in grid {
        let (Some(scoop), Some(base_run)) = (averaged.next(), averaged.next()) else {
            return Err(ScoopError::Simulation(
                "calibration sweep returned fewer than one SCOOP and one BASE result per grid point"
                    .into(),
            ));
        };
        let scoop_messages = scoop.total_messages();
        let base_messages = base_run.total_messages();
        let mut row = CalibrationRow {
            point,
            storage_success: scoop.storage.storage_success(),
            query_success: scoop.queries.query_success(),
            destination_accuracy: scoop.storage.destination_accuracy(),
            scoop_messages,
            base_messages,
            cost_ratio: if base_messages == 0 {
                f64::INFINITY
            } else {
                scoop_messages as f64 / base_messages as f64
            },
            objective: 0.0,
        };
        row.objective = objective(&row);
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_base;

    fn sample_row() -> CalibrationRow {
        CalibrationRow {
            point: LinkSpec::default(),
            storage_success: 0.85,
            query_success: 0.75,
            destination_accuracy: 0.9,
            scoop_messages: 36_000,
            base_messages: 54_000,
            cost_ratio: 36_000.0 / 54_000.0,
            objective: 0.0,
        }
    }

    #[test]
    fn objective_is_zero_exactly_at_the_targets() {
        let mut row = sample_row();
        [
            row.storage_success,
            row.query_success,
            row.destination_accuracy,
            row.cost_ratio,
        ] = TARGETS;
        assert_eq!(objective(&row), 0.0);
        // Moving any single term away from its target raises the score.
        row.storage_success += 0.1;
        assert!(objective(&row) > 0.0);
    }

    #[test]
    fn objective_weighs_reliability_over_cost_ratio() {
        let base = sample_row();
        let mut off_storage = base.clone();
        off_storage.storage_success = TARGETS[0] - 0.2;
        let mut off_ratio = base.clone();
        off_ratio.cost_ratio = TARGETS[3] - 0.2;
        assert!(
            objective(&off_storage) - objective(&base) > objective(&off_ratio) - objective(&base),
            "an equal miss on storage must cost more than on the cost ratio"
        );
    }

    #[test]
    fn default_grid_covers_every_knob_and_anchors_legacy_and_calibrated() {
        let grid = default_grid();
        assert_eq!(grid.len(), 24);
        assert!(
            grid.contains(&LinkSpec::legacy()),
            "the legacy point must anchor the grid"
        );
        assert!(
            grid.contains(&LinkSpec::calibrated()),
            "the shipped default must be a grid point"
        );
        for axis in [
            |p: &LinkSpec| p.loss_floor,
            |p: &LinkSpec| p.edge_delivery,
            |p: &LinkSpec| p.distance_exponent,
            |p: &LinkSpec| p.asymmetry_noise,
        ] {
            let first = axis(&grid[0]);
            assert!(
                grid.iter().any(|p| axis(p) != first),
                "every knob must vary across the grid"
            );
        }
        for point in grid.iter().chain(&smoke_grid()) {
            point.validate().expect("grid points are valid");
        }
        assert!(smoke_grid().len() < grid.len());
    }

    #[test]
    fn default_grid_covers_floor_and_exponent() {
        let grid = default_grid();
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        for p in &grid {
            let pair = (p.loss_floor, p.distance_exponent);
            if !pairs.contains(&pair) {
                pairs.push(pair);
            }
        }
        assert_eq!(pairs.len(), 6, "three floors times two exponents");
        assert!(
            pairs.contains(&(0.22, 1.0)),
            "the legacy point anchors the sweep"
        );
        assert!(
            pairs.contains(&(0.10, 2.0)),
            "the calibrated floor/exponent pair is swept"
        );
        assert!(smoke_grid().len() < grid.len());
    }

    #[test]
    fn smoke_calibration_runs_and_picks_a_grid_winner() {
        let rows = calibration(&quick_base(), &smoke_grid(), 1).unwrap();
        assert_eq!(rows.len(), smoke_grid().len());
        for row in &rows {
            assert!(row.storage_success > 0.0 && row.storage_success <= 1.0);
            assert!(row.query_success > 0.0 && row.query_success <= 1.0);
            assert!(row.scoop_messages > 0 && row.base_messages > 0);
            assert!(row.cost_ratio.is_finite());
            assert!(
                (row.objective - objective(row)).abs() < 1e-12,
                "stored objective must equal a fresh scoring"
            );
        }
        let min = rows
            .iter()
            .map(|r| r.objective)
            .fold(f64::INFINITY, f64::min);
        let winner_row = winner(&rows).expect("winner is a grid row");
        assert_eq!(winner_row.objective, min);
    }

    #[test]
    fn loss_knobs_take_effect_and_rows_stay_sane() {
        let rows = calibration(&quick_base(), &smoke_grid(), 1).unwrap();
        for row in &rows {
            assert!(row.storage_success > 0.3 && row.storage_success <= 1.0);
            assert!(row.query_success > 0.0 && row.query_success <= 1.0);
            assert!(row.scoop_messages > 0);
        }
        // The knobs must actually reach the loss model: two different
        // calibrations cannot produce identical runs. (Whether reliability
        // rises monotonically is a paper-scale question — that is what the
        // committed grid answers — not a 16-node invariant.)
        let (legacy, gentle) = (&rows[0], &rows[1]);
        assert!(
            legacy.scoop_messages != gentle.scoop_messages
                || legacy.storage_success != gentle.storage_success,
            "changing the loss knobs must change the run"
        );
    }
}
