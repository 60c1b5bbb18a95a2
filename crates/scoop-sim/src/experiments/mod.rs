//! One module per experiment in the paper's evaluation (Section 6).
//!
//! Every function takes a *base* configuration — [`paper_base`] for the real
//! thing, or [`ScenarioSpec::small_test`](scoop_types::ScenarioSpec::small_test)
//! for quick checks — plus a trial count, and returns the rows of the
//! corresponding figure or table. `scoop-lab run <slug>` calls these,
//! prints the rows and persists them as artifacts; `EXPERIMENTS.md` records
//! the measured numbers next to the paper's.

pub mod ablations;
pub mod calibration;
pub mod chaos;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod prose;
pub mod workloads;

use scoop_types::ScenarioSpec;

/// The paper's default configuration (Section 6): 62 nodes, 40 minutes,
/// 15-second sample and query intervals, REAL data.
pub fn paper_base() -> ScenarioSpec {
    ScenarioSpec::paper_defaults()
}

/// A scaled-down configuration for fast sanity runs of every experiment
/// (16 nodes, 12 minutes). The shapes of the results hold; absolute numbers
/// are smaller.
pub fn quick_base() -> ScenarioSpec {
    ScenarioSpec::small_test()
}

pub use ablations::{ablation_rows, AblationRow};
pub use calibration::{calibration, CalibrationRow};
pub use chaos::{chaos, ChaosRow, ChaosScenario};
pub use fig3::{fig3_left, fig3_middle, fig3_right, Fig3Row};
pub use fig4::{fig4_selectivity, Fig4Row};
pub use fig5::{fig5_query_interval, Fig5Row};
pub use prose::{
    reliability, root_skew, sample_interval_sweep, scaling, scaling_with_policy, ReliabilityRow,
    RootSkewRow, SampleIntervalRow, ScalingRow,
};
pub use workloads::{aggregate_ops, range_width, AggregateOpsRow, RangeWidthRow};
