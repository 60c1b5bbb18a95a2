//! Property-based model test: the block-directory lookup
//! (`first_block_for`, a partition point over the blocks' last times) must
//! agree with a `BTreeMap` reference on every lookup, over arbitrary
//! monotone directories — including the empty, single-block, and
//! duplicate-timestamp edges — and a sealed segment's point and range
//! queries must match a naive filter over the records it was given.

use proptest::prelude::*;
use scoop_store::{first_block_for, BlockMeta, SegmentWriter};
use scoop_types::{DurableRecord, NodeId};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Folds `(gap, span, count)` triples into a valid monotone block directory:
/// each block starts at or after the previous block's last timestamp (a zero
/// gap produces duplicate timestamps across block boundaries).
fn directory(shape: &[(u64, u64, u16)]) -> Vec<BlockMeta> {
    let mut dir = Vec::with_capacity(shape.len());
    let mut clock = 0u64;
    for &(gap, span, count) in shape {
        let first = clock + gap;
        let last = first + span;
        clock = last;
        dir.push(BlockMeta {
            first_time_ms: first,
            last_time_ms: last,
            count: count.max(1) as u32,
        });
    }
    dir
}

/// The reference: block last time → the smallest block index carrying it.
/// The first block for `t` is the one at the first key `>= t`.
fn reference(dir: &[BlockMeta]) -> BTreeMap<u64, usize> {
    let mut by_last_time = BTreeMap::new();
    // In reverse, so the smallest index of a duplicate key wins.
    for (i, meta) in dir.iter().enumerate().rev() {
        by_last_time.insert(meta.last_time_ms, i);
    }
    by_last_time
}

/// Query times worth probing: every key, its neighbours, and the far edges.
fn probes(dir: &[BlockMeta]) -> Vec<u64> {
    let mut probes = vec![0, 1, u64::MAX];
    for meta in dir {
        for key in [meta.first_time_ms, meta.last_time_ms] {
            probes.extend([key.saturating_sub(1), key, key + 1]);
        }
    }
    probes
}

fn assert_agrees(dir: &[BlockMeta], times: impl IntoIterator<Item = u64>) {
    let by_last_time = reference(dir);
    for t in times {
        let expected = by_last_time
            .range(t..)
            .next()
            .map_or(dir.len(), |(_, &i)| i);
        assert_eq!(
            first_block_for(dir, t),
            expected,
            "t={t} over {} blocks",
            dir.len()
        );
    }
}

fn scratch(name: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "scoop-idxmodel-{}-{name}.scoop",
        std::process::id()
    ))
}

#[test]
fn empty_single_block_and_duplicate_key_directories() {
    assert_agrees(&[], [0, 1, u64::MAX]);
    let one = directory(&[(5, 4, 1)]);
    assert_agrees(&one, (0..20).chain([u64::MAX]));
    // Three blocks ending at 10, then a run of blocks that all end at 10.
    let dupes = directory(&[(0, 10, 3), (0, 0, 1), (0, 0, 1), (0, 0, 2), (3, 7, 1)]);
    assert_eq!(first_block_for(&dupes, 10), 0, "first of the equal keys");
    assert_eq!(first_block_for(&dupes, 11), 4);
    assert_agrees(&dupes, probes(&dupes));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `first_block_for` agrees with the reference on arbitrary monotone
    /// directories at every interesting query time.
    #[test]
    fn directory_lookup_matches_reference(
        shape in proptest::collection::vec((0u64..20, 0u64..20, 1u16..512), 0..64),
        extra in proptest::collection::vec(0u64..2_000, 0..16),
    ) {
        let dir = directory(&shape);
        assert_agrees(&dir, probes(&dir).into_iter().chain(extra));
    }

    /// A real sealed segment answers point and range queries exactly as a
    /// naive in-memory filter over the ingested records does, and a point
    /// query is the one-instant range.
    #[test]
    fn segment_queries_agree_with_naive_model(
        deltas in proptest::collection::vec(0u64..30, 1..300),
        windows in proptest::collection::vec((0u64..4_000, 0u64..500), 1..12),
        case in 0u64..u64::MAX,
    ) {
        let mut records = Vec::with_capacity(deltas.len());
        let mut clock = 0u64;
        for (i, &delta) in deltas.iter().enumerate() {
            clock += delta; // delta 0 => duplicate timestamps
            records.push(DurableRecord {
                time_ms: clock,
                node: NodeId((i % 7) as u16 + 1),
                attribute: (i % 3) as u8,
                value: i as i32,
            });
        }
        records.sort_unstable();

        let path = scratch(case);
        let _ = std::fs::remove_file(&path);
        let mut writer = SegmentWriter::create(&path, 8 + 16 * 4).unwrap();
        writer.append_batch(&records).unwrap();
        let segment = writer.seal().unwrap();

        for &(start, width) in &windows {
            let (t0, t1) = (start, start.saturating_add(width));
            let expected: Vec<DurableRecord> = records
                .iter()
                .copied()
                .filter(|r| (t0..=t1).contains(&r.time_ms))
                .collect();
            let range = segment.query_range(t0, t1).unwrap();
            prop_assert_eq!(&range.records, &expected, "range [{}, {}]", t0, t1);
            // Point queries at both window edges.
            for t in [t0, t1] {
                let expected_point: Vec<DurableRecord> = records
                    .iter()
                    .copied()
                    .filter(|r| r.time_ms == t)
                    .collect();
                let point = segment.query_point(t).unwrap();
                prop_assert_eq!(&point.records, &expected_point);
                let instant = segment.query_range(t, t).unwrap();
                prop_assert_eq!(&instant.records, &point.records);
                prop_assert_eq!(instant.blocks_read, point.blocks_read);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}
