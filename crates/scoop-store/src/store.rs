//! The multi-segment store: a directory of sealed segments plus one active
//! writer, with point/range query-at-rest and ingest/query statistics.
//!
//! Layout on disk: `<db>/seg-<id>.scoop`, ids strictly increasing. Sealed
//! segments are immutable; compaction (see [`crate::compact`]) replaces a
//! tier of them with one merged segment under a fresh id, via a `.tmp` file
//! and an atomic rename, inside the call whose seal made the tier due.
//! `open` recovers every unsealed segment (torn tails truncated, survivor
//! resealed) and removes stale `.tmp` leftovers, so a crash at *any* point
//! leaves exactly the committed prefix readable.
//!
//! Query results are returned in the canonical record order (time-major,
//! then node/attribute/value — [`DurableRecord`]'s `Ord`), which makes them
//! independent of segment layout: the same data answers the same bytes
//! before and after compaction, restarts, or re-ingest batching.

use crate::compact;
use crate::error::{io_err, Result, StoreError};
use crate::segment::{
    BlockBuf, RecoveryOutcome, ScanOutcome, Segment, SegmentWriter, DEFAULT_BLOCK_SIZE,
};
use scoop_types::DurableRecord;
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs for a store. The defaults suit paper-scale runs.
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Bytes per data block (the unit of read I/O and durability).
    pub block_size: usize,
    /// Seal the active segment once it holds this many records.
    pub seal_after_records: u64,
    /// Compact when a size tier accumulates this many sealed segments.
    pub compact_tier_segments: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            block_size: DEFAULT_BLOCK_SIZE,
            seal_after_records: 262_144,
            compact_tier_segments: 4,
        }
    }
}

/// A snapshot of store-wide statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StoreStats {
    /// Sealed segments currently on disk.
    pub segments: usize,
    /// Data blocks across all sealed segments.
    pub blocks: usize,
    /// Committed records across all sealed segments.
    pub records: u64,
    /// Bytes the store occupies on disk.
    pub disk_bytes: u64,
    /// Piecewise-linear segments across all learned indexes.
    pub pla_segments: usize,
    /// Data blocks fetched from disk since this store was opened.
    pub blocks_read: u64,
    /// Learned-index lookups that fell back to a full binary search
    /// (expected to stay 0; the model tests prove the bound).
    pub index_fallback_lookups: u64,
    /// Wall-clock seconds spent building learned indexes since open.
    pub index_build_secs: f64,
    /// Earliest committed timestamp (ms), 0 when empty.
    pub min_time_ms: u64,
    /// Latest committed timestamp (ms), 0 when empty.
    pub max_time_ms: u64,
}

/// What one `append_batch`/`ingest` call did, for provenance records.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestReport {
    /// Records accepted.
    pub records: u64,
    /// Wall-clock seconds the ingest took (append + seal + fsync).
    pub ingest_secs: f64,
    /// `records / ingest_secs` (0 for an empty batch).
    pub records_per_sec: f64,
}

/// A persistent, crash-safe store of [`DurableRecord`]s.
pub struct Store {
    dir: PathBuf,
    options: StoreOptions,
    /// Sealed segments, in id order. Ids only grow; compaction outputs get
    /// fresh ids, so id order is also recency order. Shared with any
    /// [`Snapshot`] taken while they were live.
    segments: Vec<(u64, Arc<Segment>)>,
    active: Option<(u64, SegmentWriter)>,
    next_id: u64,
    blocks_read: u64,
    /// The block reader's buffers, reused by every lookup and scan.
    buf: BlockBuf,
    /// Counters carried over from segments retired by compaction.
    retired_fallbacks: u64,
    retired_index_build_secs: f64,
    recovery_report: Vec<(PathBuf, RecoveryOutcome)>,
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.scoop"))
}

fn parse_segment_id(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".scoop")?;
    rest.parse().ok()
}

impl Store {
    /// Opens (creating if absent) the store in `dir`, recovering every
    /// segment and discarding stale compaction temporaries.
    pub fn open(dir: &Path, options: StoreOptions) -> Result<Store> {
        if options.block_size < crate::block::MIN_BLOCK_SIZE {
            return Err(StoreError::InvalidOptions(format!(
                "block size {} is below the minimum {}",
                options.block_size,
                crate::block::MIN_BLOCK_SIZE
            )));
        }
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
            let entry = entry.map_err(|e| io_err(dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") && name.starts_with("seg-") {
                // An interrupted compaction; its inputs are all still here.
                std::fs::remove_file(entry.path()).map_err(|e| io_err(&entry.path(), e))?;
            } else if let Some(id) = parse_segment_id(&name) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        let mut segments = Vec::new();
        let mut recovery_report = Vec::new();
        for id in &ids {
            let path = segment_path(dir, *id);
            if let Some(segment) = Segment::open(&path)? {
                recovery_report.push((path, segment.recovery()));
                segments.push((*id, Arc::new(segment)));
            }
        }
        Ok(Store {
            dir: dir.to_path_buf(),
            options,
            segments,
            active: None,
            next_id: ids.last().map(|id| id + 1).unwrap_or(0),
            blocks_read: 0,
            buf: BlockBuf::default(),
            retired_fallbacks: 0,
            retired_index_build_secs: 0.0,
            recovery_report,
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What `open` found, per segment file (sealed vs recovered).
    pub fn recovery_report(&self) -> &[(PathBuf, RecoveryOutcome)] {
        &self.recovery_report
    }

    fn ensure_active(&mut self) -> Result<&mut SegmentWriter> {
        if self.active.is_none() {
            let id = self.next_id;
            self.next_id += 1;
            let writer =
                SegmentWriter::create(&segment_path(&self.dir, id), self.options.block_size)?;
            self.active = Some((id, writer));
        }
        // Invariant: the branch above fills `active` whenever it is empty.
        Ok(&mut self.active.as_mut().expect("just ensured").1)
    }

    fn append_one(&mut self, record: DurableRecord) -> Result<()> {
        // A record older than the active segment's tail rolls to a fresh
        // segment: each segment stays internally time-ordered, and queries
        // merge across segments.
        let writer = self.ensure_active()?;
        match writer.append(record) {
            Ok(()) => {}
            Err(StoreError::OutOfOrder { .. }) => {
                self.seal_active()?;
                self.ensure_active()?.append(record)?;
            }
            Err(e) => return Err(e),
        }
        if self
            .active
            .as_ref()
            .map(|(_, w)| w.record_count() >= self.options.seal_after_records)
            .unwrap_or(false)
        {
            self.seal_active()?;
        }
        Ok(())
    }

    /// Appends a batch. The batch is sorted into canonical record order
    /// first (copied only if it is not in that order already), so callers
    /// can hand over readings in any order. Returns an [`IngestReport`] with
    /// throughput for provenance.
    pub fn append_batch(&mut self, batch: &[DurableRecord]) -> Result<IngestReport> {
        let started = Instant::now();
        let mut sorted = Cow::Borrowed(batch);
        if !batch.is_sorted() {
            sorted.to_mut().sort_unstable();
        }
        for &record in sorted.iter() {
            self.append_one(record)?;
        }
        self.sync()?;
        let ingest_secs = started.elapsed().as_secs_f64();
        Ok(IngestReport {
            records: batch.len() as u64,
            ingest_secs,
            records_per_sec: if ingest_secs > 0.0 {
                batch.len() as f64 / ingest_secs
            } else {
                0.0
            },
        })
    }

    /// Makes everything appended so far durable without sealing.
    pub fn sync(&mut self) -> Result<()> {
        if let Some((_, writer)) = &mut self.active {
            writer.sync()?;
        }
        Ok(())
    }

    /// Seals the active segment (no-op when there is none or it is empty).
    pub fn seal_active(&mut self) -> Result<()> {
        if let Some((id, writer)) = self.active.take() {
            if writer.record_count() == 0 {
                let path = segment_path(&self.dir, id);
                drop(writer);
                // An empty writer leaves a header-only file; remove it.
                std::fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
                return Ok(());
            }
            let segment = writer.seal()?;
            self.segments.push((id, Arc::new(segment)));
            self.maybe_compact()?;
        }
        Ok(())
    }

    fn maybe_compact(&mut self) -> Result<()> {
        match compact::plan_tier(&self.segments, self.options.compact_tier_segments) {
            Some(tier) => self.compact(&tier),
            None => Ok(()),
        }
    }

    /// Merges the sealed segments at (ascending) indices `tier` into one
    /// segment under a fresh id and swaps it in for them. On error nothing
    /// changed: every input is still installed and on disk.
    fn compact(&mut self, tier: &[usize]) -> Result<()> {
        let output_id = self.next_id;
        self.next_id += 1;
        let inputs: Vec<&Segment> = tier.iter().map(|&i| &*self.segments[i].1).collect();
        let output_path = segment_path(&self.dir, output_id);
        let merged = compact::merge(&inputs, &output_path, self.options.block_size)?;
        // Retire the inputs: carry their counters over, then delete their
        // files (the merged output is already durable under its own name; a
        // snapshot still holding an input reads on through its descriptor).
        let retired: Vec<Arc<Segment>> = tier
            .iter()
            .rev()
            .map(|&i| self.segments.remove(i).1)
            .collect();
        // No segment is active while one is compacted, so the fresh id is
        // the largest and the list stays in id order.
        self.segments.push((output_id, Arc::new(merged)));
        for segment in &retired {
            self.retired_fallbacks += segment.learned_index().fallback_lookups();
            self.retired_index_build_secs += segment.index_build_secs();
            std::fs::remove_file(segment.path()).map_err(|e| io_err(segment.path(), e))?;
        }
        Ok(())
    }

    /// Merges every sealed segment into one. Used by tests and the CLI's
    /// explicit `--compact`.
    pub fn compact_all_blocking(&mut self) -> Result<bool> {
        self.seal_active()?;
        if self.segments.len() < 2 {
            return Ok(false);
        }
        let all: Vec<usize> = (0..self.segments.len()).collect();
        self.compact(&all)?;
        Ok(true)
    }

    /// Commits buffered writes so queries see them: seals the active
    /// segment. Queries are served from sealed segments only.
    pub fn commit(&mut self) -> Result<()> {
        self.seal_active()
    }

    /// All records with timestamp exactly `t`, in canonical order.
    pub fn query_point(&mut self, t: u64) -> Result<ScanOutcome> {
        self.query_range(t, t)
    }

    /// All records with `t0 <= time <= t1`, in canonical order.
    pub fn query_range(&mut self, t0: u64, t1: u64) -> Result<ScanOutcome> {
        self.commit()?;
        let mut merged = ScanOutcome::default();
        for (_, segment) in &self.segments {
            let (index, buf, out) = (segment.learned_index(), &mut self.buf, &mut merged.records);
            merged.blocks_read += segment.scan_matching_into(t0, t1, index, buf, |_| true, out)?;
        }
        self.blocks_read += merged.blocks_read;
        merged.records.sort_unstable();
        Ok(merged)
    }

    /// A frozen view of the segments sealed so far (the active segment, if
    /// any, is not part of it). It shares the open files, so nothing is read
    /// to take it and a later compaction that unlinks one cannot hurt it.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            segments: self.segments.iter().map(|(_, s)| Arc::clone(s)).collect(),
            buf: BlockBuf::default(),
        }
    }

    /// Hands every committed data block's records to `visit` — segments in
    /// id order, blocks in log order — through the store's one reused block
    /// buffer. Every block is CRC-checked and decoded; nothing is collected.
    /// Returns the number of blocks read.
    pub fn for_each_block(&mut self, mut visit: impl FnMut(&[DurableRecord])) -> Result<u64> {
        self.commit()?;
        let mut blocks_read = 0;
        for (_, segment) in &self.segments {
            blocks_read += segment.for_each_block(&mut self.buf, &mut visit)?;
        }
        self.blocks_read += blocks_read;
        Ok(blocks_read)
    }

    /// Every committed record, in canonical order.
    pub fn scan_all(&mut self) -> Result<ScanOutcome> {
        self.commit()?;
        let total: u64 = self.segments().map(Segment::record_count).sum();
        let mut records = Vec::with_capacity(total as usize);
        let blocks_read = self.for_each_block(|block| records.extend_from_slice(block))?;
        records.sort_unstable();
        Ok(ScanOutcome {
            records,
            blocks_read,
        })
    }

    /// Store-wide statistics.
    pub fn stats(&self) -> Result<StoreStats> {
        let mut stats = StoreStats {
            segments: self.segments.len(),
            blocks_read: self.blocks_read,
            index_fallback_lookups: self.retired_fallbacks,
            index_build_secs: self.retired_index_build_secs,
            min_time_ms: u64::MAX,
            ..StoreStats::default()
        };
        for (_, segment) in &self.segments {
            stats.blocks += segment.block_count();
            stats.records += segment.record_count();
            stats.disk_bytes += segment.disk_bytes()?;
            stats.pla_segments += segment.learned_index().segments().len();
            stats.index_fallback_lookups += segment.learned_index().fallback_lookups();
            stats.index_build_secs += segment.index_build_secs();
            if segment.record_count() > 0 {
                stats.min_time_ms = stats.min_time_ms.min(segment.min_time_ms());
                stats.max_time_ms = stats.max_time_ms.max(segment.max_time_ms());
            }
        }
        if stats.records == 0 {
            stats.min_time_ms = 0;
        }
        Ok(stats)
    }

    /// The sealed segments, for inspection in tests.
    pub fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.segments.iter().map(|(_, s)| &**s)
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("segments", &self.segments.len())
            .field("active", &self.active.is_some())
            .finish()
    }
}

/// A read-only view of the segments that were sealed when
/// [`Store::snapshot`] took it. Only the block directories and learned
/// indexes are in memory; a lookup fetches the few blocks its window names.
/// The view never changes: records the store appends later are not in it,
/// and inputs a later compaction retires stay readable until it is dropped.
#[derive(Debug)]
pub struct Snapshot {
    segments: Vec<Arc<Segment>>,
    buf: BlockBuf,
}

impl Snapshot {
    /// Records the view can answer, summed from the segment footers.
    pub fn records(&self) -> u64 {
        self.segments.iter().map(|s| s.record_count()).sum()
    }

    /// Appends every record with `t0 <= time <= t1` that `keep` accepts to
    /// `out` (segment, then log order — not sorted across segments). Returns
    /// the data blocks read; a damaged one is a typed error naming it.
    pub fn query_into(
        &mut self,
        t0: u64,
        t1: u64,
        keep: impl Fn(&DurableRecord) -> bool,
        out: &mut Vec<DurableRecord>,
    ) -> Result<u64> {
        let mut blocks_read = 0;
        for segment in &self.segments {
            let index = segment.learned_index();
            blocks_read += segment.scan_matching_into(t0, t1, index, &mut self.buf, &keep, out)?;
        }
        Ok(blocks_read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::NodeId;

    fn record(t: u64, node: u16, v: i32) -> DurableRecord {
        DurableRecord {
            time_ms: t,
            node: NodeId(node),
            attribute: 0,
            value: v,
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scoop-store-storetest-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_options() -> StoreOptions {
        StoreOptions {
            block_size: 8 + 16 * 4,
            seal_after_records: 32,
            compact_tier_segments: 1000, // effectively off unless asked
        }
    }

    #[test]
    fn ingest_restart_query() {
        let dir = tmp_dir("restart");
        {
            let mut store = Store::open(&dir, small_options()).unwrap();
            let batch: Vec<DurableRecord> = (0..100u64)
                .map(|t| record(t, (t % 7) as u16, t as i32))
                .collect();
            let report = store.append_batch(&batch).unwrap();
            assert_eq!(report.records, 100);
            store.commit().unwrap();
        }
        let mut store = Store::open(&dir, small_options()).unwrap();
        assert!(store
            .recovery_report()
            .iter()
            .all(|(_, r)| *r == RecoveryOutcome::Sealed));
        let hit = store.query_point(42).unwrap();
        assert_eq!(hit.records.len(), 1);
        assert_eq!(hit.records[0].value, 42);
        let range = store.query_range(10, 19).unwrap();
        assert_eq!(range.records.len(), 10);
        let all = store.scan_all().unwrap();
        assert_eq!(all.records.len(), 100);
        assert!(all.records.windows(2).all(|w| w[0] <= w[1]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_order_batches_roll_segments_and_still_answer() {
        let dir = tmp_dir("rolling");
        let mut store = Store::open(&dir, small_options()).unwrap();
        store
            .append_batch(
                &(50..100u64)
                    .map(|t| record(t, 1, t as i32))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        store.commit().unwrap();
        // Older data arrives later — lands in a second segment.
        store
            .append_batch(
                &(0..50u64)
                    .map(|t| record(t, 2, t as i32))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        let all = store.scan_all().unwrap();
        assert_eq!(all.records.len(), 100);
        assert!(all.records.windows(2).all(|w| w[0] <= w[1]));
        let hit = store.query_point(25).unwrap();
        assert_eq!(hit.records.len(), 1);
        assert_eq!(hit.records[0].node, NodeId(2));

        // Compaction folds both segments into one; answers are unchanged.
        let before = store.scan_all().unwrap().records;
        assert!(store.compact_all_blocking().unwrap());
        let stats = store.stats().unwrap();
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.records, 100);
        let after = store.scan_all().unwrap().records;
        assert_eq!(before, after);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn point_lookup_reads_at_most_one_block_per_segment() {
        let dir = tmp_dir("onetouch");
        let mut store = Store::open(&dir, small_options()).unwrap();
        let batch: Vec<DurableRecord> = (0..500u64).map(|t| record(t * 3, 1, t as i32)).collect();
        store.append_batch(&batch).unwrap();
        store.commit().unwrap();
        store.compact_all_blocking().unwrap();
        assert_eq!(store.stats().unwrap().segments, 1);
        for t in [0u64, 3, 300, 1497] {
            let hit = store.query_point(t).unwrap();
            assert_eq!(hit.records.len(), 1, "t={t}");
            assert!(
                hit.blocks_read <= 1,
                "t={t} read {} blocks",
                hit.blocks_read
            );
        }
        // Absent timestamps may touch one block (the candidate) at most.
        for t in [1u64, 299, 5000] {
            let miss = store.query_point(t).unwrap();
            assert!(miss.records.is_empty());
            assert!(miss.blocks_read <= 1);
        }
        assert_eq!(store.stats().unwrap().index_fallback_lookups, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_snapshot_outlives_the_compaction_that_unlinks_its_files() {
        let dir = tmp_dir("snapshot");
        let options = StoreOptions {
            compact_tier_segments: 4,
            ..small_options()
        };
        let mut store = Store::open(&dir, options).unwrap();
        let batch = |from: u64, to: u64| -> Vec<DurableRecord> {
            (from..to)
                .map(|t| record(t, (t % 5) as u16, t as i32))
                .collect()
        };
        // Three sealed segments: one short of the tier that compacts.
        store.append_batch(&batch(0, 96)).unwrap();
        assert_eq!(store.stats().unwrap().segments, 3);
        let files: Vec<PathBuf> = store.segments().map(|s| s.path().to_path_buf()).collect();

        let mut view = store.snapshot();
        assert_eq!(view.records(), 96);
        let windows = [(0u64, u64::MAX), (10, 40), (31, 32), (64, 95), (96, 500)];
        let answers = |view: &mut Snapshot| -> Vec<(Vec<DurableRecord>, u64)> {
            let mut all = Vec::new();
            for (t0, t1) in windows {
                let mut out = Vec::new();
                let blocks = view.query_into(t0, t1, |r| r.value % 3 != 0, &mut out);
                all.push((out, blocks.unwrap()));
            }
            all
        };
        let before = answers(&mut view);
        assert_eq!(before[0].0.len(), 64, "a third of the values is filtered");
        assert_eq!(before[2], (vec![record(31, 1, 31), record(32, 2, 32)], 2));
        assert_eq!(before[4], (vec![], 0), "no segment overlaps: none is read");

        // A fourth segment seals, the tier fires and the inputs are unlinked.
        store.append_batch(&batch(96, 128)).unwrap();
        assert_eq!(store.stats().unwrap().segments, 1);
        assert!(files.iter().all(|f| !f.exists()), "inputs were unlinked");

        // The view still answers, byte for byte, and sees nothing newer.
        assert_eq!(answers(&mut view), before);
        assert_eq!(view.records(), 96);
        // The live store answers the same windows from the merged segment.
        let merged = store.query_range(10, 40).unwrap().records;
        assert_eq!(merged, batch(10, 41));
        assert_eq!(store.scan_all().unwrap().records, batch(0, 128));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
