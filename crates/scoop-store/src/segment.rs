//! One segment file: header, data blocks, index region, committing footer.
//!
//! Layout (all integers little-endian; see `docs/STORE_FORMAT.md`):
//!
//! ```text
//! [ header 32 B ][ block 0 ][ block 1 ] ... [ index region ][ footer 64 B ]
//! ```
//!
//! The footer is the **commit record**: it is written last, covered by its
//! own CRC, and fsync'd. A segment with a valid footer is *sealed* — its
//! index region is trusted (after a CRC check) and data blocks are verified
//! lazily as they are read. A segment without a valid footer is *unsealed*:
//! a crash interrupted the writer, so `open` scans the data region block by
//! block, keeps the longest valid time-ordered prefix, truncates everything
//! after it (the torn tail), and seals the survivor. Corruption is always a
//! typed [`StoreError`], never a panic.

use crate::block::{
    decode_block_into, encode_block, meta_of, records_per_block, BlockMeta, MIN_BLOCK_SIZE,
};
use crate::crc::crc32;
use crate::error::{corrupt, io_err, Result, StoreError};
use crate::index::{BTreeRefIndex, LearnedTimeIndex, PlaSegment, TimeIndex, DEFAULT_MAX_ERROR};
use scoop_types::DurableRecord;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// First 8 bytes of every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"SCOOPSG1";
/// First 8 bytes of the footer.
pub const FOOTER_MAGIC: &[u8; 8] = b"SCOOPFT1";
/// Bytes of the file header.
pub const HEADER_LEN: usize = 32;
/// Bytes of the committing footer.
pub const FOOTER_LEN: usize = 64;
/// The on-disk schema version this build reads and writes.
pub const SCHEMA_VERSION: u32 = 1;
/// Default block size: one page.
pub const DEFAULT_BLOCK_SIZE: usize = 4096;

const INDEX_PREFIX_LEN: usize = 16;
const DIR_ENTRY_LEN: usize = 20;
const PLA_ENTRY_LEN: usize = 24;

/// What `Segment::open` found on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Valid footer: the segment was cleanly sealed.
    Sealed,
    /// No valid footer: the committed block prefix was kept, `dropped_bytes`
    /// of torn tail were truncated, and the segment was sealed in place.
    Resealed {
        /// Bytes removed from the tail of the file.
        dropped_bytes: u64,
    },
}

/// Records plus the I/O cost of fetching them; callers accumulate the cost
/// into the store-level block-read counter.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Matching records in time order.
    pub records: Vec<DurableRecord>,
    /// Data blocks fetched from disk to answer this.
    pub blocks_read: u64,
}

/// The streaming block reader's two reusable buffers: one block of raw bytes
/// and the records decoded from it. Every read path — point and range
/// lookups, full scans, compaction input, torn-tail recovery — fetches blocks
/// through one of these, so a scan of any length allocates twice.
#[derive(Debug, Default)]
pub struct BlockBuf {
    bytes: Vec<u8>,
    records: Vec<DurableRecord>,
}

impl BlockBuf {
    /// Reads, CRC-checks and decodes block `index` of `file`, replacing the
    /// buffer's previous contents.
    fn read(
        &mut self,
        file: &File,
        path: &Path,
        block_size: usize,
        index: usize,
    ) -> Result<&[DurableRecord]> {
        self.bytes.resize(block_size, 0);
        let offset = (HEADER_LEN + index * block_size) as u64;
        file.read_exact_at(&mut self.bytes, offset)
            .map_err(|e| io_err(path, e))?;
        self.records.clear();
        decode_block_into(&self.bytes, block_size, path, index, &mut self.records)?;
        Ok(&self.records)
    }

    /// The records of the block read last (none before the first read).
    pub(crate) fn records(&self) -> &[DurableRecord] {
        &self.records
    }
}

pub(crate) fn sync_dir_of(path: &Path) -> Result<()> {
    let parent = path.parent().unwrap_or_else(|| Path::new("."));
    let dir = File::open(parent).map_err(|e| io_err(parent, e))?;
    dir.sync_all().map_err(|e| io_err(parent, e))
}

/// The little-endian `u32` at `bytes[at..at + 4]`. Invariant: every caller
/// reads inside a fixed-size array or a length it has already checked, so
/// the range is in bounds and a 4-byte slice always converts.
fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("a 4-byte slice"))
}

/// The little-endian `u64` at `bytes[at..at + 8]`; the invariant of
/// [`le_u32`] holds for every caller.
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("an 8-byte slice"))
}

fn encode_header(block_size: usize) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0..8].copy_from_slice(SEGMENT_MAGIC);
    header[8..12].copy_from_slice(&SCHEMA_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&(block_size as u32).to_le_bytes());
    // bytes 16..24 reserved, zero
    let crc = crc32(&header[0..24]);
    header[24..28].copy_from_slice(&crc.to_le_bytes());
    header
}

fn decode_header(header: &[u8; HEADER_LEN], path: &Path) -> Result<usize> {
    if &header[0..8] != SEGMENT_MAGIC {
        return Err(corrupt(path, "bad segment magic (not a scoop-store file?)"));
    }
    let version = le_u32(header, 8);
    if version != SCHEMA_VERSION {
        return Err(StoreError::SchemaVersion {
            path: path.to_path_buf(),
            found: version,
            expected: SCHEMA_VERSION,
        });
    }
    let stored_crc = le_u32(header, 24);
    if crc32(&header[0..24]) != stored_crc {
        return Err(corrupt(path, "header checksum mismatch"));
    }
    let block_size = le_u32(header, 12) as usize;
    if !(MIN_BLOCK_SIZE..=(1 << 24)).contains(&block_size) {
        return Err(corrupt(
            path,
            format!("implausible block size {block_size}"),
        ));
    }
    Ok(block_size)
}

struct Footer {
    record_count: u64,
    block_count: u64,
    index_offset: u64,
    index_len: u64,
    min_time_ms: u64,
    max_time_ms: u64,
    index_crc: u32,
}

fn encode_footer(f: &Footer) -> [u8; FOOTER_LEN] {
    let mut out = [0u8; FOOTER_LEN];
    out[0..8].copy_from_slice(FOOTER_MAGIC);
    out[8..16].copy_from_slice(&f.record_count.to_le_bytes());
    out[16..24].copy_from_slice(&f.block_count.to_le_bytes());
    out[24..32].copy_from_slice(&f.index_offset.to_le_bytes());
    out[32..40].copy_from_slice(&f.index_len.to_le_bytes());
    out[40..48].copy_from_slice(&f.min_time_ms.to_le_bytes());
    out[48..56].copy_from_slice(&f.max_time_ms.to_le_bytes());
    out[56..60].copy_from_slice(&f.index_crc.to_le_bytes());
    let crc = crc32(&out[0..60]);
    out[60..64].copy_from_slice(&crc.to_le_bytes());
    out
}

/// `None` means "this is not a (complete, intact) footer" — the caller falls
/// through to torn-tail recovery, so a damaged footer is never itself fatal.
fn decode_footer(bytes: &[u8; FOOTER_LEN]) -> Option<Footer> {
    if &bytes[0..8] != FOOTER_MAGIC {
        return None;
    }
    let stored_crc = le_u32(bytes, 60);
    if crc32(&bytes[0..60]) != stored_crc {
        return None;
    }
    Some(Footer {
        record_count: le_u64(bytes, 8),
        block_count: le_u64(bytes, 16),
        index_offset: le_u64(bytes, 24),
        index_len: le_u64(bytes, 32),
        min_time_ms: le_u64(bytes, 40),
        max_time_ms: le_u64(bytes, 48),
        index_crc: le_u32(bytes, 56),
    })
}

fn encode_index(dir: &[BlockMeta], pla: &LearnedTimeIndex) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        INDEX_PREFIX_LEN + dir.len() * DIR_ENTRY_LEN + pla.segments().len() * PLA_ENTRY_LEN,
    );
    out.extend_from_slice(&(dir.len() as u32).to_le_bytes());
    out.extend_from_slice(&(pla.segments().len() as u32).to_le_bytes());
    out.extend_from_slice(&pla.max_error().to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    for meta in dir {
        out.extend_from_slice(&meta.first_time_ms.to_le_bytes());
        out.extend_from_slice(&meta.last_time_ms.to_le_bytes());
        out.extend_from_slice(&meta.count.to_le_bytes());
    }
    for seg in pla.segments() {
        out.extend_from_slice(&seg.start_key.to_le_bytes());
        out.extend_from_slice(&seg.start_pos.to_le_bytes());
        out.extend_from_slice(&seg.slope.to_bits().to_le_bytes());
    }
    out
}

fn decode_index(bytes: &[u8], path: &Path) -> Result<(Vec<BlockMeta>, LearnedTimeIndex)> {
    if bytes.len() < INDEX_PREFIX_LEN {
        return Err(corrupt(path, "index region shorter than its prefix"));
    }
    let dir_count = le_u32(bytes, 0) as usize;
    let pla_count = le_u32(bytes, 4) as usize;
    let max_error = le_u32(bytes, 8);
    let expected = INDEX_PREFIX_LEN + dir_count * DIR_ENTRY_LEN + pla_count * PLA_ENTRY_LEN;
    if bytes.len() != expected || max_error == 0 {
        return Err(corrupt(
            path,
            format!(
                "index region is {} bytes, counts say {expected} (dir {dir_count}, pla {pla_count}, max_err {max_error})",
                bytes.len()
            ),
        ));
    }
    let mut dir: Vec<BlockMeta> = Vec::with_capacity(dir_count);
    let mut offset = INDEX_PREFIX_LEN;
    for i in 0..dir_count {
        let meta = BlockMeta {
            first_time_ms: le_u64(bytes, offset),
            last_time_ms: le_u64(bytes, offset + 8),
            count: le_u32(bytes, offset + 16),
        };
        // The directory of a time-ordered log: each block spans a time
        // window, and no block starts before the previous one ends.
        let prev_last = dir.last().map_or(0, |m| m.last_time_ms);
        if meta.first_time_ms > meta.last_time_ms || meta.first_time_ms < prev_last {
            return Err(corrupt(
                path,
                format!("directory entry {i} is out of time order"),
            ));
        }
        dir.push(meta);
        offset += DIR_ENTRY_LEN;
    }
    let mut segments: Vec<PlaSegment> = Vec::with_capacity(pla_count);
    for i in 0..pla_count {
        let line = PlaSegment {
            start_key: le_u64(bytes, offset),
            start_pos: le_u64(bytes, offset + 8),
            slope: f64::from_bits(le_u64(bytes, offset + 16)),
        };
        // What `LearnedTimeIndex::build_with_error` produces and `predict`
        // relies on: lines in key order, each starting at a real block, none
        // with a negative or non-finite slope. A table that breaks one of
        // these would clamp with its bounds crossed or index past the
        // directory.
        let goes_back = segments
            .last()
            .is_some_and(|p| line.start_key < p.start_key || line.start_pos < p.start_pos);
        if goes_back
            || line.start_pos >= dir_count as u64
            || !line.slope.is_finite()
            || line.slope < 0.0
        {
            return Err(corrupt(
                path,
                format!("learned-index line {i} goes back, starts past the directory or has a bad slope"),
            ));
        }
        segments.push(line);
        offset += PLA_ENTRY_LEN;
    }
    let learned = LearnedTimeIndex::from_parts(segments, max_error, dir.len());
    Ok((dir, learned))
}

/// Appends time-ordered records into a new segment file. Full blocks are
/// written as they fill; `sync` makes the written prefix durable mid-stream;
/// `seal` writes the index and the committing footer.
pub struct SegmentWriter {
    path: PathBuf,
    file: File,
    block_size: usize,
    pending: Vec<DurableRecord>,
    dir: Vec<BlockMeta>,
    record_count: u64,
    last_time_ms: Option<u64>,
}

impl SegmentWriter {
    /// Creates (or truncates) the file at `path` and writes the header.
    pub fn create(path: &Path, block_size: usize) -> Result<Self> {
        if block_size < MIN_BLOCK_SIZE {
            return Err(StoreError::InvalidOptions(format!(
                "block size {block_size} is below the minimum {MIN_BLOCK_SIZE}"
            )));
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        file.write_all(&encode_header(block_size))
            .map_err(|e| io_err(path, e))?;
        Ok(SegmentWriter {
            path: path.to_path_buf(),
            file,
            block_size,
            pending: Vec::new(),
            dir: Vec::new(),
            record_count: 0,
            last_time_ms: None,
        })
    }

    /// Records accepted so far.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Appends one record; must not go backwards in time.
    pub fn append(&mut self, record: DurableRecord) -> Result<()> {
        if let Some(last) = self.last_time_ms.filter(|&last| record.time_ms < last) {
            return Err(StoreError::OutOfOrder {
                last_time_ms: last,
                got_time_ms: record.time_ms,
            });
        }
        self.last_time_ms = Some(record.time_ms);
        self.pending.push(record);
        self.record_count += 1;
        if self.pending.len() == records_per_block(self.block_size) {
            self.flush_pending()?;
        }
        Ok(())
    }

    /// Appends a batch (must already be sorted; [`DurableRecord`] sorts
    /// time-major, so `batch.sort_unstable()` is enough).
    pub fn append_batch(&mut self, batch: &[DurableRecord]) -> Result<()> {
        for &record in batch {
            self.append(record)?;
        }
        Ok(())
    }

    fn flush_pending(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let bytes = encode_block(&self.pending, self.block_size);
        self.file
            .write_all(&bytes)
            .map_err(|e| io_err(&self.path, e))?;
        self.dir.push(meta_of(&self.pending));
        self.pending.clear();
        Ok(())
    }

    /// Makes everything appended so far durable. A partial block is flushed
    /// as a short block; the file stays unsealed (no footer) so a crash
    /// after this point loses nothing already synced.
    pub fn sync(&mut self) -> Result<()> {
        self.flush_pending()?;
        self.file.sync_data().map_err(|e| io_err(&self.path, e))
    }

    /// Flushes, writes the index region and the committing footer, and
    /// fsyncs file and directory. Returns the opened (sealed) segment.
    pub fn seal(mut self) -> Result<Segment> {
        self.flush_pending()?;
        seal_file(self.file, &self.path, self.block_size, &self.dir)
    }
}

/// Seals `file`, whose data region is exactly the blocks of `dir`: fits the
/// index, writes the index region and the committing footer after the data,
/// fsyncs file and directory, and reopens the result.
fn seal_file(mut file: File, path: &Path, block_size: usize, dir: &[BlockMeta]) -> Result<Segment> {
    let build_started = std::time::Instant::now();
    let learned = LearnedTimeIndex::build_with_error(dir, DEFAULT_MAX_ERROR);
    let index_bytes = encode_index(dir, &learned);
    let index_build_secs = build_started.elapsed().as_secs_f64();
    let index_offset = (HEADER_LEN + dir.len() * block_size) as u64;
    let footer = Footer {
        record_count: dir.iter().map(|m| m.count as u64).sum(),
        block_count: dir.len() as u64,
        index_offset,
        index_len: index_bytes.len() as u64,
        min_time_ms: dir.first().map_or(0, |m| m.first_time_ms),
        max_time_ms: dir.last().map_or(0, |m| m.last_time_ms),
        index_crc: crc32(&index_bytes),
    };
    file.seek(SeekFrom::Start(index_offset))
        .map_err(|e| io_err(path, e))?;
    file.write_all(&index_bytes).map_err(|e| io_err(path, e))?;
    file.write_all(&encode_footer(&footer))
        .map_err(|e| io_err(path, e))?;
    file.sync_all().map_err(|e| io_err(path, e))?;
    sync_dir_of(path)?;
    drop(file);
    let mut segment =
        Segment::open(path)?.ok_or_else(|| corrupt(path, "sealed segment vanished on reopen"))?;
    segment.index_build_secs = index_build_secs;
    Ok(segment)
}

/// A readable segment: the block directory and learned index live in
/// memory; data blocks are fetched (and CRC-checked) on demand.
pub struct Segment {
    path: PathBuf,
    file: File,
    block_size: usize,
    dir: Vec<BlockMeta>,
    learned: LearnedTimeIndex,
    /// Built by the first [`Segment::reference_index`] call; no query path
    /// reads it.
    reference: OnceLock<BTreeRefIndex>,
    record_count: u64,
    min_time_ms: u64,
    max_time_ms: u64,
    recovery: RecoveryOutcome,
    index_build_secs: f64,
}

impl Segment {
    /// Opens a segment, running torn-tail recovery if it is unsealed.
    ///
    /// Returns `Ok(None)` when the file holds no committed data at all (a
    /// crash before the first block was durable) — the file is removed, as
    /// an empty segment has nothing to say. Files that do not look like
    /// scoop-store segments are *not* removed; they surface as
    /// [`StoreError::Corrupt`].
    pub fn open(path: &Path) -> Result<Option<Segment>> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        let file_len = file.metadata().map_err(|e| io_err(path, e))?.len() as usize;

        if file_len < HEADER_LEN {
            // A create() crashed mid-header. Only delete if what *was*
            // written is a prefix of our magic — anything else is a foreign
            // file we must not destroy.
            let mut prefix = vec![0u8; file_len.min(SEGMENT_MAGIC.len())];
            file.read_exact(&mut prefix).map_err(|e| io_err(path, e))?;
            if prefix == SEGMENT_MAGIC[..prefix.len()] {
                drop(file);
                std::fs::remove_file(path).map_err(|e| io_err(path, e))?;
                return Ok(None);
            }
            return Err(corrupt(path, "shorter than a header and not ours"));
        }

        let mut header = [0u8; HEADER_LEN];
        file.read_exact_at(&mut header, 0)
            .map_err(|e| io_err(path, e))?;
        let block_size = decode_header(&header, path)?;

        if file_len >= HEADER_LEN + FOOTER_LEN {
            let mut footer_bytes = [0u8; FOOTER_LEN];
            file.read_exact_at(&mut footer_bytes, (file_len - FOOTER_LEN) as u64)
                .map_err(|e| io_err(path, e))?;
            if let Some(footer) = decode_footer(&footer_bytes) {
                return Self::open_sealed(path, file, block_size, file_len, footer).map(Some);
            }
        }
        Self::recover_unsealed(path, file, block_size, file_len)
    }

    fn open_sealed(
        path: &Path,
        file: File,
        block_size: usize,
        file_len: usize,
        footer: Footer,
    ) -> Result<Segment> {
        // Every footer field is attacker-controlled (its CRC only proves
        // that whoever wrote it meant it), so the geometry is checked in
        // overflow-free arithmetic and the index length is bounded by the
        // file before anything is allocated from it.
        let data_end = footer
            .block_count
            .checked_mul(block_size as u64)
            .and_then(|data| data.checked_add(HEADER_LEN as u64));
        let index_end = footer
            .index_offset
            .checked_add(footer.index_len)
            .and_then(|end| end.checked_add(FOOTER_LEN as u64));
        if footer.index_len > (file_len - HEADER_LEN - FOOTER_LEN) as u64
            || data_end != Some(footer.index_offset)
            || index_end != Some(file_len as u64)
        {
            return Err(corrupt(path, "footer geometry disagrees with file length"));
        }
        let mut index_bytes = vec![0u8; footer.index_len as usize];
        file.read_exact_at(&mut index_bytes, footer.index_offset)
            .map_err(|e| io_err(path, e))?;
        if crc32(&index_bytes) != footer.index_crc {
            return Err(corrupt(path, "index region checksum mismatch"));
        }
        let (dir, learned) = decode_index(&index_bytes, path)?;
        if dir.len() as u64 != footer.block_count {
            return Err(corrupt(path, "directory length disagrees with footer"));
        }
        // A block holds at most `records_per_block` records, which also
        // bounds `record_count` — scans size their buffers from it — by the
        // file's length.
        let per_block = records_per_block(block_size);
        if dir.iter().any(|m| m.count as usize > per_block) {
            return Err(corrupt(
                path,
                "directory entry claims more records than a block holds",
            ));
        }
        let total: u64 = dir.iter().map(|m| m.count as u64).sum();
        if total != footer.record_count {
            return Err(corrupt(
                path,
                "directory record counts disagree with footer",
            ));
        }
        Ok(Segment {
            path: path.to_path_buf(),
            file,
            block_size,
            dir,
            learned,
            reference: OnceLock::new(),
            record_count: footer.record_count,
            min_time_ms: footer.min_time_ms,
            max_time_ms: footer.max_time_ms,
            recovery: RecoveryOutcome::Sealed,
            index_build_secs: 0.0,
        })
    }

    fn recover_unsealed(
        path: &Path,
        file: File,
        block_size: usize,
        file_len: usize,
    ) -> Result<Option<Segment>> {
        let mut dir = Vec::new();
        let mut prev_last = 0u64;
        let mut offset = HEADER_LEN;
        let mut buf = BlockBuf::default();
        while offset + block_size <= file_len {
            let records = match buf.read(&file, path, block_size, dir.len()) {
                Ok(r) => r,
                Err(_) => break, // torn or corrupt tail starts here
            };
            let in_order = records.windows(2).all(|w| w[0].time_ms <= w[1].time_ms);
            let meta = meta_of(records);
            if !in_order || (!dir.is_empty() && meta.first_time_ms < prev_last) {
                break; // bytes validate but violate the log's time order
            }
            prev_last = meta.last_time_ms;
            dir.push(meta);
            offset += block_size;
        }

        if dir.is_empty() {
            drop(file);
            std::fs::remove_file(path).map_err(|e| io_err(path, e))?;
            sync_dir_of(path)?;
            return Ok(None);
        }

        let dropped_bytes = (file_len - offset) as u64;
        file.set_len(offset as u64).map_err(|e| io_err(path, e))?;
        let mut segment = seal_file(file, path, block_size, &dir)?;
        segment.recovery = RecoveryOutcome::Resealed { dropped_bytes };
        Ok(Some(segment))
    }

    /// The file this segment reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// What `open` found (cleanly sealed, or recovered and resealed).
    pub fn recovery(&self) -> RecoveryOutcome {
        self.recovery
    }

    /// Committed records in this segment.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Data blocks in this segment.
    pub fn block_count(&self) -> usize {
        self.dir.len()
    }

    /// Timestamp of the first committed record (ms).
    pub fn min_time_ms(&self) -> u64 {
        self.min_time_ms
    }

    /// Timestamp of the last committed record (ms).
    pub fn max_time_ms(&self) -> u64 {
        self.max_time_ms
    }

    /// The in-memory block directory.
    pub fn dir(&self) -> &[BlockMeta] {
        &self.dir
    }

    /// The learned index (for stats and A/B checks).
    pub fn learned_index(&self) -> &LearnedTimeIndex {
        &self.learned
    }

    /// Wall-clock seconds spent fitting + encoding this segment's index
    /// (zero when the index was loaded from disk rather than built).
    pub fn index_build_secs(&self) -> f64 {
        self.index_build_secs
    }

    /// The reference index (for A/B checks), built on first use.
    pub fn reference_index(&self) -> &BTreeRefIndex {
        self.reference
            .get_or_init(|| BTreeRefIndex::build(&self.dir))
    }

    /// Bytes this segment occupies on disk.
    pub fn disk_bytes(&self) -> Result<u64> {
        Ok(self
            .file
            .metadata()
            .map_err(|e| io_err(&self.path, e))?
            .len())
    }

    /// Reads and validates one data block.
    pub fn read_block(&self, index: usize) -> Result<Vec<DurableRecord>> {
        let mut buf = BlockBuf::default();
        self.read_block_into(&mut buf, index)?;
        Ok(buf.records)
    }

    /// Reads and validates data block `index` into `buf` and returns its
    /// records; a caller that keeps the buffer finds them in `buf.records()`
    /// until the next read.
    pub(crate) fn read_block_into<'b>(
        &self,
        buf: &'b mut BlockBuf,
        index: usize,
    ) -> Result<&'b [DurableRecord]> {
        buf.read(&self.file, &self.path, self.block_size, index)
    }

    /// Hands every data block's records to `visit`, in log order, through
    /// `buf`. Returns the number of blocks read.
    pub fn for_each_block(
        &self,
        buf: &mut BlockBuf,
        mut visit: impl FnMut(&[DurableRecord]),
    ) -> Result<u64> {
        for i in 0..self.dir.len() {
            visit(self.read_block_into(buf, i)?);
        }
        Ok(self.dir.len() as u64)
    }

    /// All records with timestamp exactly `t`.
    pub fn query_point(&self, t: u64) -> Result<ScanOutcome> {
        self.scan_matching(t, t, &self.learned)
    }

    /// All records with `t0 <= time_ms <= t1`.
    pub fn query_range(&self, t0: u64, t1: u64) -> Result<ScanOutcome> {
        self.scan_matching(t0, t1, &self.learned)
    }

    /// Range scan steered by an explicit index implementation (the model
    /// tests drive both the learned and the reference index through here).
    pub fn scan_matching(&self, t0: u64, t1: u64, index: &dyn TimeIndex) -> Result<ScanOutcome> {
        let mut outcome = ScanOutcome::default();
        let (buf, records) = (&mut BlockBuf::default(), &mut outcome.records);
        outcome.blocks_read = self.scan_matching_into(t0, t1, index, buf, |_| true, records)?;
        Ok(outcome)
    }

    /// [`Segment::scan_matching`] through a caller-owned `buf`, appending
    /// the in-window records `keep` accepts to `out` (the store merges all
    /// its segments into one this way). Returns the blocks read — none when
    /// the window misses the segment's `[min_time, max_time]`.
    pub(crate) fn scan_matching_into(
        &self,
        t0: u64,
        t1: u64,
        index: &dyn TimeIndex,
        buf: &mut BlockBuf,
        keep: impl Fn(&DurableRecord) -> bool,
        out: &mut Vec<DurableRecord>,
    ) -> Result<u64> {
        let mut blocks_read = 0;
        if t1 < t0 || t1 < self.min_time_ms || t0 > self.max_time_ms {
            return Ok(blocks_read);
        }
        let mut i = index.first_block_for(t0, &self.dir);
        while i < self.dir.len() && self.dir[i].first_time_ms <= t1 {
            let records = self.read_block_into(buf, i)?;
            blocks_read += 1;
            out.extend(
                records
                    .iter()
                    .filter(|r| r.time_ms >= t0 && r.time_ms <= t1 && keep(r)),
            );
            i += 1;
        }
        Ok(blocks_read)
    }

    /// Every committed record, in log order.
    pub fn scan_all(&self) -> Result<ScanOutcome> {
        let mut records = Vec::with_capacity(self.record_count as usize);
        let blocks_read = self.for_each_block(&mut BlockBuf::default(), |block| {
            records.extend_from_slice(block)
        })?;
        Ok(ScanOutcome {
            records,
            blocks_read,
        })
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("path", &self.path)
            .field("blocks", &self.dir.len())
            .field("records", &self.record_count)
            .field("recovery", &self.recovery)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::NodeId;

    fn record(t: u64, v: i32) -> DurableRecord {
        DurableRecord {
            time_ms: t,
            node: NodeId((v & 0x7FFF) as u16),
            attribute: 0,
            value: v,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scoop-store-segtest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn write_seal_reopen_query() {
        let path = tmp("seal.scoop");
        let block_size = 8 + 16 * 4;
        let mut w = SegmentWriter::create(&path, block_size).unwrap();
        for t in 0..103u64 {
            w.append(record(t * 2, t as i32)).unwrap();
        }
        let seg = w.seal().unwrap();
        assert_eq!(seg.recovery(), RecoveryOutcome::Sealed);
        assert_eq!(seg.record_count(), 103);
        drop(seg);

        let seg = Segment::open(&path).unwrap().unwrap();
        assert_eq!(seg.recovery(), RecoveryOutcome::Sealed);
        let hit = seg.query_point(100).unwrap();
        assert_eq!(hit.records.len(), 1);
        assert_eq!(hit.records[0].value, 50);
        assert_eq!(hit.blocks_read, 1, "unique-timestamp point reads one block");
        let miss = seg.query_point(101).unwrap();
        assert!(miss.records.is_empty());
        let range = seg.query_range(10, 30).unwrap();
        assert_eq!(range.records.len(), 11);
        let all = seg.scan_all().unwrap();
        assert_eq!(all.records.len(), 103);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_order_append_is_rejected() {
        let path = tmp("order.scoop");
        let mut w = SegmentWriter::create(&path, MIN_BLOCK_SIZE).unwrap();
        w.append(record(10, 1)).unwrap();
        assert!(matches!(
            w.append(record(9, 2)),
            Err(StoreError::OutOfOrder { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unsealed_file_recovers_flushed_prefix() {
        let path = tmp("torn.scoop");
        let block_size = 8 + 16 * 2;
        let mut w = SegmentWriter::create(&path, block_size).unwrap();
        for t in 0..7u64 {
            w.append(record(t, t as i32)).unwrap();
        }
        w.sync().unwrap(); // 4 blocks: 2+2+2+1 records
        drop(w); // crash before seal

        let seg = Segment::open(&path).unwrap().unwrap();
        assert_eq!(
            seg.recovery(),
            RecoveryOutcome::Resealed { dropped_bytes: 0 }
        );
        assert_eq!(seg.record_count(), 7);
        // Recovery sealed it; a second open is clean.
        drop(seg);
        let seg = Segment::open(&path).unwrap().unwrap();
        assert_eq!(seg.recovery(), RecoveryOutcome::Sealed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_file_is_not_deleted() {
        let path = tmp("foreign.scoop");
        std::fs::write(&path, b"hi").unwrap();
        assert!(matches!(
            Segment::open(&path),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(path.exists(), "foreign bytes must survive");
        std::fs::remove_file(&path).unwrap();
    }
}
