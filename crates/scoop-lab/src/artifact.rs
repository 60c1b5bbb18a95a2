//! Schema-versioned experiment artifacts and the on-disk store.
//!
//! Every `scoop-lab run` writes one JSON file per experiment under
//! `results/`. An [`Artifact`] is self-describing: schema version, the
//! experiment slug, the scale and seed it ran at, a hash of the full base
//! configuration (so a changed parameter is detectable without diffing the
//! whole config), provenance (git revision, wall-clock, sweep threads), and
//! the typed rows. Everything except the [`Provenance`] block is a pure
//! function of `(code, config, seed)` — the determinism tests rely on
//! [`Artifact::deterministic_json`] masking exactly that block.

use crate::rows::RowSet;
use crate::suite::{ExperimentId, SuiteOptions};
use scoop_types::{ExperimentConfig, ScoopError};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Version of the artifact JSON layout. Bump on any breaking change and
/// teach [`ArtifactStore::load`] to migrate (or reject) old files.
///
/// History: v1 — the original layout; v2 — the ScenarioSpec redesign added
/// the required `overrides` field (axis overrides applied to the base spec).
pub const SCHEMA_VERSION: u32 = 2;

/// Where an artifact came from: the only part of an artifact that is *not*
/// a deterministic function of the configuration.
///
/// The throughput fields are serialized only when non-zero so the masked
/// form — what the committed smoke baseline and golden files pin byte for
/// byte — is unchanged from the pre-throughput schema, and files written by
/// older binaries still load (`#[serde(default)]`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Short git revision of the workspace, or `"unknown"` outside a repo.
    pub git_rev: String,
    /// Wall-clock seconds the experiment took.
    pub wall_clock_secs: f64,
    /// Worker threads the sweep ran on (results are identical at any count).
    pub threads: usize,
    /// Total engine events dispatched across every run of the experiment
    /// (all scenarios × trials, including warmup). `0` means unrecorded
    /// (masked provenance or a pre-throughput artifact).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub events_processed: u64,
    /// `events_processed / wall_clock_secs` — the hot-path throughput number
    /// `BENCH_history.jsonl` tracks.
    #[serde(default, skip_serializing_if = "is_zero_f64")]
    pub events_per_sec: f64,
    /// Peak resident set size of the process in bytes when the experiment
    /// finished (Linux `VmHWM`, a monotone high-water mark — so this bounds
    /// the experiment's own footprint from above). `0` means unrecorded:
    /// masked provenance, a pre-memory artifact, or a platform without
    /// procfs.
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub peak_rss_bytes: u64,
}

/// `skip_serializing_if` predicate: unrecorded event counts stay off disk.
fn is_zero_u64(v: &u64) -> bool {
    *v == 0
}

/// `skip_serializing_if` predicate: unrecorded throughput stays off disk.
fn is_zero_f64(v: &f64) -> bool {
    *v == 0.0
}

impl Provenance {
    /// Captures the current workspace revision and sweep-thread count, plus
    /// the measured event throughput.
    pub fn capture(wall_clock_secs: f64, events_processed: u64) -> Self {
        Provenance {
            git_rev: workspace_git_rev(),
            wall_clock_secs,
            threads: scoop_sim::SweepRunner::from_env().threads(),
            events_processed,
            events_per_sec: if wall_clock_secs > 0.0 {
                events_processed as f64 / wall_clock_secs
            } else {
                0.0
            },
            peak_rss_bytes: peak_rss_bytes(),
        }
    }

    /// The neutral value substituted when comparing artifacts for
    /// determinism.
    pub fn masked() -> Self {
        Provenance {
            git_rev: String::new(),
            wall_clock_secs: 0.0,
            threads: 0,
            events_processed: 0,
            events_per_sec: 0.0,
            peak_rss_bytes: 0,
        }
    }
}

/// Peak resident set size of this process in bytes: the `VmHWM` line of
/// `/proc/self/status`, scaled from kB. Returns 0 where procfs is absent
/// (non-Linux), which serializes as "unrecorded".
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// One persisted experiment run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Artifact {
    /// Artifact layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment slug (see [`ExperimentId::slug`]).
    pub experiment: String,
    /// Scale name (`"paper"` or `"quick"`).
    pub scale: String,
    /// Base seed of the run (trial `t` used `seed + t`).
    pub seed: u64,
    /// Trials averaged per scenario.
    pub trials: usize,
    /// FNV-1a hash of the canonical JSON of the base configuration.
    pub config_hash: String,
    /// Axis overrides (`--set key=value`) the run applied on top of the
    /// scale's defaults, in application order. Empty for canonical runs —
    /// a non-empty list marks the artifact as describing a *modified*
    /// scenario, and the report renderer flags it.
    pub overrides: Vec<(String, String)>,
    /// Where and how the run happened.
    pub provenance: Provenance,
    /// The measured rows.
    pub rows: RowSet,
}

impl Artifact {
    /// Builds an artifact for one finished experiment.
    pub fn new(
        id: ExperimentId,
        options: &SuiteOptions,
        base: &ExperimentConfig,
        rows: RowSet,
        provenance: Provenance,
    ) -> Self {
        Artifact {
            schema_version: SCHEMA_VERSION,
            experiment: id.slug().to_string(),
            scale: options.scale.name().to_string(),
            // The *resolved* spec's seed, not options.seed: a `--set seed=N`
            // override must be recorded as the seed the run actually used.
            seed: base.seed,
            trials: options.trials,
            config_hash: config_hash(base),
            overrides: options.overrides.clone(),
            provenance,
            rows,
        }
    }

    /// The experiment id, if the slug is recognized.
    pub fn experiment_id(&self) -> Option<ExperimentId> {
        ExperimentId::from_slug(&self.experiment)
    }

    /// Pretty JSON as written to disk.
    pub fn to_json(&self) -> Result<String, ScoopError> {
        serde_json::to_string_pretty(self).map_err(|e| ScoopError::Serialization(e.to_string()))
    }

    /// Pretty JSON with the provenance block masked: two runs of the same
    /// code at the same config and seed must produce byte-identical output
    /// here, no matter the wall-clock, revision, or thread count.
    pub fn deterministic_json(&self) -> Result<String, ScoopError> {
        let mut masked = self.clone();
        masked.provenance = Provenance::masked();
        masked.to_json()
    }
}

/// Stable 64-bit FNV-1a hash of the canonical (compact) config JSON.
pub fn config_hash(config: &ExperimentConfig) -> String {
    let canonical = serde_json::to_string(config).unwrap_or_default();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in canonical.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    format!("fnv1a:{hash:016x}")
}

/// The short revision of the enclosing git repository, or `"unknown"`.
pub(crate) fn workspace_git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Reads and writes artifacts under one results directory.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    root: PathBuf,
}

impl ArtifactStore {
    /// A store rooted at `root` (typically `results/`). Nothing is touched
    /// until the first save.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ArtifactStore { root: root.into() }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file an experiment's artifact lives in.
    pub fn path_for(&self, slug: &str) -> PathBuf {
        self.root.join(format!("{slug}.json"))
    }

    /// Writes one artifact, creating the directory if needed. Returns the
    /// path written.
    pub fn save(&self, artifact: &Artifact) -> Result<PathBuf, ScoopError> {
        std::fs::create_dir_all(&self.root)
            .map_err(|e| ScoopError::Artifact(format!("{}: {e}", self.root.display())))?;
        let path = self.path_for(&artifact.experiment);
        let mut json = artifact.to_json()?;
        json.push('\n');
        std::fs::write(&path, json)
            .map_err(|e| ScoopError::Artifact(format!("{}: {e}", path.display())))?;
        Ok(path)
    }

    /// Loads the artifact for one experiment slug.
    pub fn load(&self, slug: &str) -> Result<Artifact, ScoopError> {
        let path = self.path_for(slug);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| ScoopError::Artifact(format!("{}: {e}", path.display())))?;
        // Probe the version *before* the typed parse: a file from another
        // schema generation must produce the version message, not whatever
        // missing-field error the typed deserializer trips over first.
        let probe: serde_json::Value = serde_json::from_str(&text)
            .map_err(|e| ScoopError::Serialization(format!("{}: {e}", path.display())))?;
        let version = match probe.get("schema_version") {
            Some(serde_json::Value::U64(n)) => *n as u32,
            Some(serde_json::Value::I64(n)) => *n as u32,
            _ => 0,
        };
        if version != SCHEMA_VERSION {
            return Err(ScoopError::Artifact(format!(
                "{}: schema version {version} (this binary reads {SCHEMA_VERSION}; \
                 regenerate with `scoop-lab run`)",
                path.display(),
            )));
        }
        let artifact: Artifact = serde_json::from_str(&text)
            .map_err(|e| ScoopError::Serialization(format!("{}: {e}", path.display())))?;
        Ok(artifact)
    }

    /// Loads every artifact present for the given experiments, in suite
    /// order, skipping experiments that have no file yet.
    pub fn load_present(&self, ids: &[ExperimentId]) -> Result<Vec<Artifact>, ScoopError> {
        let mut artifacts = Vec::new();
        for id in ids {
            if self.path_for(id.slug()).exists() {
                artifacts.push(self.load(id.slug())?);
            }
        }
        Ok(artifacts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_experiment, PointSet, Scale};

    fn tmp_store(tag: &str) -> ArtifactStore {
        let dir = std::env::temp_dir().join(format!("scoop-lab-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::new(dir)
    }

    fn sample_artifact() -> Artifact {
        let options = SuiteOptions::quick_smoke();
        let base = options.base_config().unwrap();
        let rows = run_experiment(ExperimentId::Fig5, &base, 1, PointSet::Smoke).unwrap();
        Artifact::new(
            ExperimentId::Fig5,
            &options,
            &base,
            rows,
            Provenance::capture(0.25, 10_000),
        )
    }

    #[test]
    fn save_load_round_trip() {
        let store = tmp_store("roundtrip");
        let artifact = sample_artifact();
        let path = store.save(&artifact).unwrap();
        assert!(path.ends_with("fig5.json"));
        let back = store.load("fig5").unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.experiment, "fig5");
        assert_eq!(back.config_hash, artifact.config_hash);
        assert_eq!(
            back.deterministic_json().unwrap(),
            artifact.deterministic_json().unwrap()
        );
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn load_rejects_other_schema_versions() {
        let store = tmp_store("schema");
        let mut artifact = sample_artifact();
        artifact.schema_version = SCHEMA_VERSION + 1;
        store.save(&artifact).unwrap();
        let err = store.load("fig5").unwrap_err();
        assert!(matches!(err, ScoopError::Artifact(_)), "{err}");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn old_schema_files_get_the_version_message_not_a_field_error() {
        // A v1-era file has no `overrides` key; the load must still say
        // "schema version 1", not trip over the missing field.
        let store = tmp_store("v1");
        std::fs::create_dir_all(store.root()).unwrap();
        std::fs::write(
            store.path_for("fig5"),
            r#"{"schema_version": 1, "experiment": "fig5"}"#,
        )
        .unwrap();
        let err = store.load("fig5").unwrap_err().to_string();
        assert!(err.contains("schema version 1"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn artifact_records_the_resolved_seed_not_the_flag() {
        let mut options = SuiteOptions::quick_smoke();
        options
            .overrides
            .push(("seed".to_string(), "7".to_string()));
        let base = options.base_config().unwrap();
        assert_eq!(base.seed, 7);
        let rows = run_experiment(ExperimentId::Fig5, &base, 1, PointSet::Smoke).unwrap();
        let artifact = Artifact::new(
            ExperimentId::Fig5,
            &options,
            &base,
            rows,
            Provenance::masked(),
        );
        assert_eq!(
            artifact.seed, 7,
            "a `--set seed=` override must be recorded as the seed actually used"
        );
        assert_eq!(artifact.overrides, options.overrides);
    }

    #[test]
    fn missing_artifacts_are_skipped_not_errors() {
        let store = tmp_store("missing");
        assert!(store.load("fig4").is_err());
        let present = store.load_present(&[ExperimentId::Fig4]).unwrap();
        assert!(present.is_empty());
    }

    #[test]
    fn peak_rss_is_captured_and_masked() {
        // On Linux procfs is always there and a running test has touched
        // memory, so the high-water mark must be positive and plausible.
        let peak = peak_rss_bytes();
        assert!(peak > 0, "VmHWM should be readable on Linux");
        assert!(peak < 1 << 42, "VmHWM parse produced garbage: {peak}");
        let captured = Provenance::capture(0.5, 1_000);
        assert!(
            captured.peak_rss_bytes >= 1024,
            "{}",
            captured.peak_rss_bytes
        );
        assert_eq!(Provenance::masked().peak_rss_bytes, 0);
        // Masked JSON omits the field entirely (the committed-baseline form).
        let json = serde_json::to_string(&Provenance::masked()).unwrap();
        assert!(!json.contains("peak_rss_bytes"), "{json}");
    }

    #[test]
    fn config_hash_is_stable_and_sensitive() {
        let a = Scale::Quick.base_config();
        let mut b = a.clone();
        assert_eq!(config_hash(&a), config_hash(&b));
        b.num_nodes += 1;
        assert_ne!(config_hash(&a), config_hash(&b));
        assert!(config_hash(&a).starts_with("fnv1a:"));
    }

    #[test]
    fn deterministic_json_masks_only_provenance() {
        let artifact = sample_artifact();
        let mut other = artifact.clone();
        other.provenance = Provenance {
            git_rev: "feedfacecafe".into(),
            wall_clock_secs: 99.0,
            threads: 8,
            events_processed: 123_456,
            events_per_sec: 1_247.0,
            peak_rss_bytes: 512 * 1024 * 1024,
        };
        assert_eq!(
            artifact.deterministic_json().unwrap(),
            other.deterministic_json().unwrap()
        );
        assert_ne!(artifact.to_json().unwrap(), other.to_json().unwrap());
    }
}
