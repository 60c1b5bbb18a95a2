//! Persistent, crash-safe basestation store for Scoop readings.
//!
//! The simulator keeps everything in memory; this crate is where readings
//! go to *survive*: an append-only, block-structured segment log with
//! per-block CRCs and an fsync'd committing footer, a sparse block
//! directory held in memory as the time index (one binary search per
//! lookup), and size-tiered compaction of the immutable sealed segments.
//! `query-at-rest` — point and range lookups over the time column after the
//! producing process is long gone — reads at most one data block per point
//! lookup per segment.
//!
//! Module map:
//!
//! * [`crc`] — CRC-32 (IEEE) used by every on-disk structure
//! * [`block`] — fixed-size self-validating data blocks
//! * [`segment`] — one segment file: writer, reader, torn-tail recovery,
//!   and [`first_block_for`], the directory lookup every query starts with
//! * [`store`] — the multi-segment store with query-at-rest and stats
//! * [`compact`] — size-tiered compaction: planning and the streaming merge
//! * [`persist`] — [`PersistenceBackend`], the seam drained readings leave
//!   through, with the [`InMemoryBackend`] default and the fault-injecting
//!   [`FailpointBackend`]
//! * [`backend`] — [`DiskBackend`], the seam's disk implementation
//! * [`error`] — typed [`StoreError`]
//!
//! The byte-level format is specified in `docs/STORE_FORMAT.md`.

#![warn(missing_docs)]

pub mod backend;
pub mod block;
pub mod compact;
pub mod crc;
pub mod error;
pub mod persist;
pub mod segment;
pub mod store;

pub use backend::DiskBackend;
pub use block::{records_per_block, BlockMeta};
pub use error::{Result, StoreError};
pub use persist::{FailpointBackend, InMemoryBackend, PersistenceBackend};
pub use segment::{
    first_block_for, BlockBuf, RecoveryOutcome, ScanOutcome, Segment, SegmentWriter,
    DEFAULT_BLOCK_SIZE, FOOTER_LEN, HEADER_LEN, SCHEMA_VERSION,
};
pub use store::{IngestReport, Snapshot, Store, StoreOptions, StoreStats};
