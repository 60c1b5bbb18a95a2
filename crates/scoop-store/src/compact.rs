//! Size-tiered compaction of sealed segments.
//!
//! Sealed segments are immutable files, which makes compaction safely
//! concurrent with reads and writes: a worker thread re-opens the input
//! files *by path*, merges their records in canonical order, writes the
//! result to `seg-<id>.scoop.tmp`, seals it, and atomically renames it into
//! place. A crash at any point is harmless — `Store::open` discards `.tmp`
//! leftovers and the inputs are only deleted after the output is durable.
//!
//! Planning is **size-tiered**: segments are bucketed by `log4(bytes)` and a
//! tier is merged only once it holds `compact_tier_segments` members. Each
//! record therefore moves up a tier (×4 in size) per merge it participates
//! in, so a record is rewritten at most `O(log4(total))` times — the bounded
//! write amplification the issue asks for, as opposed to "always merge
//! everything", which rewrites old data on every pass.

use crate::error::{corrupt, io_err, Result, StoreError};
use crate::segment::{BlockBuf, Segment, SegmentWriter};
use crate::store::StoreOptions;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

/// A finished merge, ready to install.
pub struct CompactionResult {
    /// Ids of the segments that were merged (to retire).
    pub input_ids: Vec<u64>,
    /// Id of the merged output segment.
    pub output_id: u64,
    /// The merged segment, already renamed into place and sealed.
    pub segment: Segment,
    /// Records written to the output.
    pub records_written: u64,
}

/// A running background compaction.
pub struct CompactionJob {
    handle: JoinHandle<Result<CompactionResult>>,
}

impl CompactionJob {
    /// Blocks until the merge finishes and returns the result.
    pub fn join(self) -> Result<CompactionResult> {
        self.handle
            .join()
            .map_err(|_| StoreError::Busy("compaction thread panicked".into()))?
    }

    /// Whether the worker has finished (join will not block).
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }
}

/// Picks the indices (into `segments`) of one size tier that is due for
/// merging, or `None`. Tiers are `log4` buckets of on-disk size; the
/// *smallest* due tier wins so fresh little segments fold together before
/// anything big is rewritten.
pub fn plan_tier(segments: &[(u64, Arc<Segment>)], tier_threshold: usize) -> Option<Vec<usize>> {
    if tier_threshold == 0 || segments.len() < 2 {
        return None;
    }
    let mut tiers: std::collections::BTreeMap<u32, Vec<usize>> = std::collections::BTreeMap::new();
    for (i, (_, segment)) in segments.iter().enumerate() {
        let bytes = segment.disk_bytes().unwrap_or(0).max(1);
        let tier = bytes.ilog2() / 2; // log4
        tiers.entry(tier).or_default().push(i);
    }
    tiers
        .into_values()
        .find(|members| members.len() >= tier_threshold.max(2))
}

/// Spawns the merge worker. `inputs` are `(id, path)` of sealed segments;
/// the worker re-opens them independently, so the caller's `Segment`
/// handles stay untouched and readable throughout.
pub fn start(
    inputs: Vec<(u64, PathBuf)>,
    output_id: u64,
    output_path: PathBuf,
    options: StoreOptions,
) -> Result<CompactionJob> {
    let handle = std::thread::Builder::new()
        .name("scoop-store-compact".into())
        .spawn(move || merge(inputs, output_id, output_path, options))
        .map_err(|e| StoreError::Busy(format!("cannot spawn compaction thread: {e}")))?;
    Ok(CompactionJob { handle })
}

fn merge(
    inputs: Vec<(u64, PathBuf)>,
    output_id: u64,
    output_path: PathBuf,
    options: StoreOptions,
) -> Result<CompactionResult> {
    let mut input_ids = Vec::with_capacity(inputs.len());
    let mut segments = Vec::with_capacity(inputs.len());
    for (id, path) in &inputs {
        segments
            .push(Segment::open(path)?.ok_or_else(|| corrupt(path, "compaction input vanished"))?);
        input_ids.push(*id);
    }
    // The footers say how much is coming: one allocation for the merge.
    let total: u64 = segments.iter().map(Segment::record_count).sum();
    let mut records = Vec::with_capacity(total as usize);
    let mut buf = BlockBuf::default();
    for segment in &segments {
        segment.for_each_block(&mut buf, |block| records.extend_from_slice(block))?;
    }
    // Canonical order (time, node, attribute, value); stable for duplicates
    // because inputs are visited in id order and each is already sorted.
    records.sort();

    let tmp_path = output_path.with_extension("scoop.tmp");
    let mut writer = SegmentWriter::create(&tmp_path, options.block_size)?;
    writer.append_batch(&records)?;
    let records_written = writer.record_count();
    let sealed_tmp = writer.seal()?;
    drop(sealed_tmp);
    std::fs::rename(&tmp_path, &output_path).map_err(|e| io_err(&tmp_path, e))?;
    let parent = output_path
        .parent()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let dir = std::fs::File::open(&parent).map_err(|e| io_err(&parent, e))?;
    dir.sync_all().map_err(|e| io_err(&parent, e))?;

    let segment = Segment::open(&output_path)?
        .ok_or_else(|| corrupt(&output_path, "merged segment vanished after rename"))?;
    Ok(CompactionResult {
        input_ids,
        output_id,
        segment,
        records_written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::{DurableRecord, NodeId};
    use std::path::Path;

    fn record(t: u64, v: i32) -> DurableRecord {
        DurableRecord {
            time_ms: t,
            node: NodeId(1),
            attribute: 0,
            value: v,
        }
    }

    fn sealed_segment(path: &Path, times: std::ops::Range<u64>) -> Segment {
        let mut w = SegmentWriter::create(path, 8 + 16 * 4).unwrap();
        for t in times {
            w.append(record(t, t as i32)).unwrap();
        }
        w.seal().unwrap()
    }

    #[test]
    fn plan_requires_a_full_tier() {
        let dir = std::env::temp_dir().join(format!("scoop-compact-plan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut segments = Vec::new();
        for i in 0..3u64 {
            let path = dir.join(format!("seg-{i}.scoop"));
            segments.push((i, Arc::new(sealed_segment(&path, (i * 10)..(i * 10 + 10)))));
        }
        assert!(
            plan_tier(&segments, 4).is_none(),
            "3 same-size < threshold 4"
        );
        let plan = plan_tier(&segments, 3).expect("3 same-size segments merge");
        assert_eq!(plan.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_preserves_every_record_in_order() {
        let dir = std::env::temp_dir().join(format!("scoop-compact-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Overlapping time ranges on purpose.
        let a = dir.join("seg-00000000.scoop");
        let b = dir.join("seg-00000001.scoop");
        sealed_segment(&a, 0..40);
        sealed_segment(&b, 20..60);
        let out = dir.join("seg-00000002.scoop");
        let job = start(
            vec![(0, a.clone()), (1, b.clone())],
            2,
            out.clone(),
            StoreOptions {
                block_size: 8 + 16 * 4,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let result = job.join().unwrap();
        // The log is append-only and keeps duplicates: 40 + 40 records.
        assert_eq!(result.records_written, 80);
        assert_eq!(result.segment.record_count(), 80);
        let all = result.segment.scan_all().unwrap();
        assert!(all.records.windows(2).all(|w| w[0] <= w[1]));
        assert!(out.exists());
        assert!(!out.with_extension("scoop.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
