//! Ablations of the design choices DESIGN.md calls out: batching, index
//! suppression, the neighbor-shortcut routing rule, and the store-local
//! fallback.
//!
//! These are not figures from the paper, but they isolate the mechanisms the
//! paper credits for parts of its results (e.g. batching is why EQUAL beats
//! RANDOM in Figure 3 right). Each variant is one config of a grid run on the
//! parallel sweep pool.

use super::sweep;
use scoop_types::{DataSourceKind, ScenarioSpec, ScoopError, StoragePolicy};
use serde::{Deserialize, Serialize};

/// One ablation configuration and its cost.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AblationRow {
    /// Human-readable name of the variant.
    pub variant: String,
    /// The data source used.
    pub source: DataSourceKind,
    /// Total messages over the measured window.
    pub total_messages: u64,
    /// Data messages only.
    pub data_messages: u64,
    /// Mapping messages only.
    pub mapping_messages: u64,
}

/// A named config mutation enabling one ablation variant.
type Variant = (&'static str, fn(&mut ScenarioSpec));

/// The ablation variants: name plus the config mutation that enables each.
const VARIANTS: [Variant; 5] = [
    ("baseline", |_| {}),
    ("no-batching", |cfg| cfg.policy.scoop.batch_size = 1),
    ("no-index-suppression", |cfg| {
        cfg.policy.scoop.suppress_unchanged_index = false
    }),
    ("no-neighbor-shortcut", |cfg| {
        cfg.policy.scoop.neighbor_shortcut = false
    }),
    ("store-local-fallback", |cfg| {
        cfg.policy.scoop.allow_store_local_fallback = true
    }),
];

/// Runs the full ablation suite for SCOOP on the given data source.
pub fn ablation_rows(
    base: &ScenarioSpec,
    source: DataSourceKind,
    trials: usize,
) -> Result<Vec<AblationRow>, ScoopError> {
    let results = sweep(base, &VARIANTS, trials, |cfg, (_, mutate)| {
        cfg.policy.kind = StoragePolicy::Scoop;
        cfg.workload.data_source = source;
        mutate(cfg);
    })?;
    Ok(results
        .into_iter()
        .map(|((name, _), avg)| AblationRow {
            variant: name.to_string(),
            source,
            total_messages: avg.total_messages(),
            data_messages: avg.messages.data,
            mapping_messages: avg.messages.mapping,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_suite_produces_all_variants() {
        let rows = ablation_rows(&ScenarioSpec::small_test(), DataSourceKind::Equal, 1).unwrap();
        assert_eq!(rows.len(), 5);
        let names: Vec<&str> = rows.iter().map(|r| r.variant.as_str()).collect();
        assert!(names.contains(&"baseline"));
        assert!(names.contains(&"no-batching"));
        // On EQUAL data everything maps to one owner; disabling batching must
        // send at least as many data messages as the batched baseline.
        let baseline = rows.iter().find(|r| r.variant == "baseline").unwrap();
        let no_batch = rows.iter().find(|r| r.variant == "no-batching").unwrap();
        assert!(no_batch.data_messages >= baseline.data_messages);
    }
}
