//! What the harness reads from the operating system: peak resident memory
//! and the scratch directories it is allowed to write.

use std::path::PathBuf;

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`). Every workload runs in a process of its own, so
/// this is that workload's high-water mark. 0 where procfs is absent.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Resident set size of this process right now, in MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with(field))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Where build outputs, store logs and trace files go: the cargo target
/// directory `run.sh` built into (`CARGO_TARGET_DIR`, else `target/bench`),
/// which the root `.gitignore` already covers.
pub fn scratch_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/bench"))
}

/// A fresh, empty data directory for one workload run, removed again by
/// [`DataDir`]'s `Drop`.
pub struct DataDir {
    path: PathBuf,
}

impl DataDir {
    /// Creates `<scratch>/data/<label>-<pid>`, emptied if it already exists.
    pub fn create(label: &str) -> std::io::Result<DataDir> {
        let path = scratch_root()
            .join("data")
            .join(format!("{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(DataDir { path })
    }

    /// A named subdirectory path (not created).
    pub fn sub(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory only costs disk space.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
