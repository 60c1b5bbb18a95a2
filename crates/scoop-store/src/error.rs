//! Typed errors of the durable store.
//!
//! Corruption is a *value*, never a panic: a torn tail, a flipped bit, or a
//! foreign file must surface as [`StoreError::Corrupt`] so callers can decide
//! whether to recover, refuse, or report. Every variant converts into
//! [`ScoopError::Store`] for callers living at the workspace error level.

use scoop_types::ScoopError;
use std::fmt;
use std::path::PathBuf;

/// Errors surfaced by the `scoop-store` crate.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure (open, read, write, fsync, rename).
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// On-disk bytes failed validation: bad magic, checksum mismatch,
    /// impossible counts, or an inconsistent footer.
    Corrupt {
        /// The damaged file.
        path: PathBuf,
        /// What exactly failed to validate.
        detail: String,
    },
    /// The file claims a schema version this build does not understand.
    SchemaVersion {
        /// The offending file.
        path: PathBuf,
        /// Version found in the header.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// A record was appended out of time order within one segment (the
    /// segment log is time-ordered; that is what the block directory's
    /// binary search relies on). Sort the batch before appending.
    OutOfOrder {
        /// The last timestamp already in the segment (ms).
        last_time_ms: u64,
        /// The offending earlier timestamp (ms).
        got_time_ms: u64,
    },
    /// Store options are unusable (e.g. a block too small for one record).
    InvalidOptions(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "{}: corrupt: {detail}", path.display())
            }
            StoreError::SchemaVersion {
                path,
                found,
                expected,
            } => write!(
                f,
                "{}: schema version {found} (this build reads {expected})",
                path.display()
            ),
            StoreError::OutOfOrder {
                last_time_ms,
                got_time_ms,
            } => write!(
                f,
                "record at {got_time_ms} ms appended after {last_time_ms} ms; \
                 segments are time-ordered — sort the batch"
            ),
            StoreError::InvalidOptions(msg) => write!(f, "invalid store options: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<StoreError> for ScoopError {
    fn from(e: StoreError) -> Self {
        ScoopError::Store(e.to_string())
    }
}

/// Shorthand used throughout the crate.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Wraps an `io::Error` with the path it happened on.
pub fn io_err(path: &std::path::Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Builds a [`StoreError::Corrupt`] for `path`.
pub fn corrupt(path: &std::path::Path, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn display_and_conversion() {
        let e = corrupt(Path::new("seg-1.scoop"), "block 3 checksum mismatch");
        assert!(e.to_string().contains("block 3"));
        let scoop: ScoopError = e.into();
        assert!(matches!(scoop, ScoopError::Store(_)));
        assert!(scoop.to_string().starts_with("store error:"));

        let o = StoreError::OutOfOrder {
            last_time_ms: 10,
            got_time_ms: 5,
        };
        assert!(o.to_string().contains("sort the batch"));
    }
}
