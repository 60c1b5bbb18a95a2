//! Size-tiered compaction of sealed segments.
//!
//! A merge runs inside the call that found a tier due and holds one block per
//! input, never a segment: `merge` keeps a cursor (one [`BlockBuf`]) on each
//! input, moves records to the output writer in time order, and finishes with
//! `seg-<id>.scoop.tmp` sealed, renamed into place and reopened. Its memory
//! is `k` blocks plus the longest run of equal timestamps, whatever the
//! inputs hold. A crash at any point is harmless — `Store::open` discards
//! `.tmp` leftovers and the inputs are only deleted after the output is
//! durable; an error (a damaged input block, a full disk) removes the `.tmp`
//! and leaves every input installed.
//!
//! The output is the canonical sort of the inputs' records, byte for byte. A
//! segment is only *time*-ordered inside — two batches may have contributed
//! the same timestamp, each in canonical order, the pair not — so the merge
//! is by `time_ms` alone and every run of equal timestamps is put in
//! canonical order (time, node, attribute, value) as it completes. That makes
//! the merged file a function of the record multiset, not of how batches and
//! seals happened to cut it.
//!
//! Planning is **size-tiered**: segments are bucketed by `log4(bytes)` and a
//! tier is merged only once it holds `compact_tier_segments` members. Each
//! record therefore moves up a tier (×4 in size) per merge it participates
//! in, so a record is rewritten at most `O(log4(total))` times — the bounded
//! write amplification the issue asks for, as opposed to "always merge
//! everything", which rewrites old data on every pass.

use crate::error::{corrupt, io_err, Result};
use crate::segment::{sync_dir_of, BlockBuf, Segment, SegmentWriter};
use scoop_types::DurableRecord;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;
use std::sync::Arc;

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

/// One merge input: the block being consumed and how far into it.
struct Cursor<'a> {
    segment: &'a Segment,
    buf: BlockBuf,
    block: usize,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor on the first record of `segment`; `None` if it holds none.
    fn open(segment: &'a Segment) -> Result<Option<Self>> {
        if segment.block_count() == 0 {
            return Ok(None);
        }
        let mut buf = BlockBuf::default();
        segment.read_block_into(&mut buf, 0)?;
        Ok(Some(Cursor {
            segment,
            buf,
            block: 0,
            pos: 0,
        }))
    }

    /// The unconsumed rest of the current block (never empty).
    fn rest(&self) -> &[DurableRecord] {
        &self.buf.records()[self.pos..]
    }

    fn head_time(&self) -> u64 {
        self.rest()[0].time_ms
    }

    /// Consumes `n` records of the current block, reading the next block
    /// when that was all of it. `false` once the input is exhausted.
    fn advance(&mut self, n: usize) -> Result<bool> {
        self.pos += n;
        if self.pos < self.buf.records().len() {
            return Ok(true);
        }
        self.block += 1;
        if self.block == self.segment.block_count() {
            return Ok(false);
        }
        self.pos = 0;
        self.segment.read_block_into(&mut self.buf, self.block)?;
        Ok(true)
    }
}

/// Streams the records of `inputs` into `writer` in canonical order.
fn merge_into(inputs: &[&Segment], writer: &mut SegmentWriter) -> Result<()> {
    let mut cursors = Vec::with_capacity(inputs.len());
    for segment in inputs {
        cursors.extend(Cursor::open(segment)?);
    }
    // The inputs that still hold records, earliest head timestamp on top.
    let mut heads: BinaryHeap<Reverse<(u64, usize)>> = cursors
        .iter()
        .enumerate()
        .map(|(i, cursor)| Reverse((cursor.head_time(), i)))
        .collect();
    // Taken from the inputs in time order, not yet written: at most the
    // current run of equal timestamps plus one slice.
    let mut pending: Vec<DurableRecord> = Vec::new();
    while let Some(Reverse((_, i))) = heads.pop() {
        // Everything up to the earliest head among the *other* inputs can
        // leave this one in a single slice — a whole block when the inputs'
        // time ranges do not overlap.
        let bound = heads.peek().map_or(u64::MAX, |Reverse((head, _))| *head);
        let cursor = &mut cursors[i];
        let rest = cursor.rest();
        let take = rest.partition_point(|r| r.time_ms <= bound);
        pending.extend_from_slice(&rest[..take]);
        if cursor.advance(take)? {
            heads.push(Reverse((cursor.head_time(), i)));
        }
        // No input holds anything earlier than the last timestamp taken, so
        // everything before it is complete. Invariant: the input just popped
        // holds the earliest head, which is at most `bound`, so `take >= 1`
        // and `pending` is not empty.
        let last = pending.last().expect("a slice was just taken").time_ms;
        let complete = pending.partition_point(|r| r.time_ms < last);
        write_canonical(&mut pending[..complete], writer)?;
        pending.drain(..complete);
    }
    write_canonical(&mut pending, writer)
}

/// Puts time-ordered `records` into canonical order and appends them. Equal
/// records are identical in every field, so an in-place unstable sort gives
/// the one possible result.
fn write_canonical(records: &mut [DurableRecord], writer: &mut SegmentWriter) -> Result<()> {
    records.sort_unstable();
    writer.append_batch(records)
}

/// Merges sealed `inputs` into one sealed segment at `output_path` (written
/// as `<output_path>.tmp`, renamed once durable) and opens it. On error the
/// temporary is removed and no output exists; the inputs are never touched.
pub(crate) fn merge(inputs: &[&Segment], output_path: &Path, block_size: usize) -> Result<Segment> {
    let tmp_path = output_path.with_extension("scoop.tmp");
    let written = SegmentWriter::create(&tmp_path, block_size)
        .and_then(|mut writer| {
            merge_into(inputs, &mut writer)?;
            writer.seal()
        })
        .and_then(|_sealed_tmp| {
            std::fs::rename(&tmp_path, output_path).map_err(|e| io_err(&tmp_path, e))
        });
    if let Err(e) = written {
        // Best effort: `Store::open` sweeps whatever is left.
        let _ = std::fs::remove_file(&tmp_path);
        return Err(e);
    }
    sync_dir_of(output_path)?;
    Segment::open(output_path)?
        .ok_or_else(|| corrupt(output_path, "merged segment vanished after rename"))
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
        let (a, b) = (sealed_segment(&a, 0..40), sealed_segment(&b, 20..60));
        let out = dir.join("seg-00000002.scoop");
        let merged = merge(&[&a, &b], &out, 8 + 16 * 4).unwrap();
        // The log is append-only and keeps duplicates: 40 + 40 records.
        assert_eq!(merged.record_count(), 80);
        let all = merged.scan_all().unwrap();
        assert!(all.records.windows(2).all(|w| w[0] <= w[1]));
        assert!(out.exists());
        assert!(!out.with_extension("scoop.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
