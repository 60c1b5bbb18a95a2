//! Persistent, crash-safe basestation store for Scoop readings.
//!
//! The simulator keeps everything in memory; this crate is where readings
//! go to *survive*: an append-only, block-structured segment log with
//! per-block CRCs and an fsync'd committing footer, a two-level time index
//! (sparse block directory + piecewise-linear learned index with a hard
//! error bound), and size-tiered compaction of the immutable sealed
//! segments. `query-at-rest` — point and range lookups over the time column
//! after the producing process is long gone — reads at most one data block
//! per point lookup per segment.
//!
//! Module map:
//!
//! * [`crc`] — CRC-32 (IEEE) used by every on-disk structure
//! * [`block`] — fixed-size self-validating data blocks
//! * [`index`] — learned index + B-tree reference behind [`TimeIndex`]
//! * [`segment`] — one segment file: writer, reader, torn-tail recovery
//! * [`store`] — the multi-segment store with query-at-rest and stats
//! * [`compact`] — size-tiered compaction: planning and the streaming merge
//! * [`backend`] — [`DiskBackend`], the `scoop-storage` persistence seam
//! * [`error`] — typed [`StoreError`]
//!
//! The byte-level format is specified in `docs/STORE_FORMAT.md`.

#![warn(missing_docs)]

pub mod backend;
pub mod block;
pub mod compact;
pub mod crc;
pub mod error;
pub mod index;
pub mod segment;
pub mod store;

pub use backend::DiskBackend;
pub use block::{records_per_block, BlockMeta};
pub use error::{Result, StoreError};
pub use index::{BTreeRefIndex, LearnedTimeIndex, TimeIndex, DEFAULT_MAX_ERROR};
pub use segment::{
    BlockBuf, RecoveryOutcome, ScanOutcome, Segment, SegmentWriter, DEFAULT_BLOCK_SIZE, FOOTER_LEN,
    HEADER_LEN, SCHEMA_VERSION,
};
pub use store::{IngestReport, Snapshot, Store, StoreOptions, StoreStats};
