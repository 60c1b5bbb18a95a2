//! One module per experiment in the paper's evaluation (Section 6).
//!
//! Every function takes a *base* configuration —
//! [`ScenarioSpec::paper_defaults`] for the real thing, or
//! [`ScenarioSpec::small_test`] for quick checks — plus a trial count, and
//! returns the rows of the corresponding figure or table. `scoop-lab run
//! <slug>` calls these, prints the rows and persists them as artifacts;
//! `EXPERIMENTS.md` records the measured numbers next to the paper's.

pub mod ablations;
pub mod calibration;
pub mod chaos;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod prose;
pub mod workloads;

use crate::metrics::RunResult;
use crate::sweep::SweepRunner;
use scoop_types::{ScenarioSpec, ScoopError, StoragePolicy};

/// The policies the pointwise sweeps (Figures 4 and 5, reliability, the
/// range and aggregate workloads) compare. HASH adds nothing there that
/// SCOOP's value routing doesn't already show.
pub const POLICIES: [StoragePolicy; 3] = [
    StoragePolicy::Scoop,
    StoragePolicy::Local,
    StoragePolicy::Base,
];

/// Every `(a, b)` pair, `a`-major: the grid of two sweep axes.
fn cross<A: Copy, B: Copy>(xs: &[A], ys: &[B]) -> Vec<(A, B)> {
    xs.iter()
        .flat_map(|&x| ys.iter().map(move |&y| (x, y)))
        .collect()
}

/// Runs one copy of `base` per grid point, adjusted by `set`, for `trials`
/// seeds each on the environment's sweep pool ([`SweepRunner::from_env`]),
/// and pairs every point with its averaged result, in grid order.
fn sweep<P: Copy>(
    base: &ScenarioSpec,
    grid: &[P],
    trials: usize,
    set: impl Fn(&mut ScenarioSpec, P),
) -> Result<Vec<(P, RunResult)>, ScoopError> {
    let configs: Vec<ScenarioSpec> = grid
        .iter()
        .map(|&point| {
            let mut cfg = base.clone();
            set(&mut cfg, point);
            cfg
        })
        .collect();
    let averaged = SweepRunner::from_env().averaged(&configs, trials)?;
    Ok(grid.iter().copied().zip(averaged).collect())
}

pub use ablations::{ablation_rows, AblationRow};
pub use calibration::{calibration, CalibrationRow};
pub use chaos::{chaos, ChaosRow, ChaosScenario};
pub use fig3::{fig3_left, fig3_middle, fig3_right, Fig3Row};
pub use fig4::{fig4_selectivity, Fig4Row};
pub use fig5::{fig5_query_interval, Fig5Row};
pub use prose::{
    reliability, root_skew, sample_interval_sweep, scaling, ReliabilityRow, RootSkewRow,
    SampleIntervalRow, ScalingRow,
};
pub use workloads::{aggregate_ops, range_width, AggregateOpsRow, RangeWidthRow};
