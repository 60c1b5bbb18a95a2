//! The compaction memory gate: a merge holds blocks, not segments.
//!
//! Measured with a live-bytes counting global allocator (the pattern of
//! `scoop-sim/tests/node_footprint.rs`, extended with a high-water mark).
//! Heap sizes are a function of the allocation sequence, which is the same on
//! every run, so the bound is a count — never a wall-clock or RSS reading.
//!
//! What a merge may hold: one block (raw + decoded) per input, the writer's
//! block, the current run of equal timestamps, and what grows with the
//! *output's block count* — its directory while it is written, and directory
//! plus index region again while it is sealed and reopened. Nothing may grow
//! with the record count: the collect-sort-write merge this gate replaced
//! peaked at 2,587,283 B and 10,322,867 B on the two sizes below (the records
//! plus the sort's scratch); the block-bounded one at 52,662 B and 134,071 B.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a concurrently running test would pollute the window.

use scoop_store::{records_per_block, Store, StoreOptions, DEFAULT_BLOCK_SIZE};
use scoop_types::{DurableRecord, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Tracks the bytes currently allocated and their high-water mark.
struct PeakBytesAllocator;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

fn grow(by: isize) {
    let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are only a side effect.
unsafe impl GlobalAlloc for PeakBytesAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakBytesAllocator = PeakBytesAllocator;

const INPUTS: u64 = 4;

/// Peak live heap above its level at entry while `compact_all_blocking`
/// merges four sealed segments of `per_input` records each, and the blocks of
/// the merged output.
fn compaction_peak(per_input: u64) -> (isize, usize) {
    let dir = std::env::temp_dir().join(format!(
        "scoop-compact-mem-{}-{per_input}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let options = StoreOptions {
        block_size: DEFAULT_BLOCK_SIZE,
        seal_after_records: per_input,
        compact_tier_segments: 0, // only when asked
    };
    let mut store = Store::open(&dir, options).unwrap();
    // A sequential log, as a basestation writes it: two readings a tick.
    let records: Vec<DurableRecord> = (0..INPUTS * per_input)
        .map(|i| DurableRecord {
            time_ms: i / 2 * 500,
            node: NodeId((i % 62) as u16),
            attribute: 0,
            value: i as i32,
        })
        .collect();
    store.append_batch(&records).unwrap();
    drop(records);
    assert_eq!(store.stats().unwrap().segments, INPUTS as usize);

    let entry = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(entry, Ordering::Relaxed);
    assert!(store.compact_all_blocking().unwrap());
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - entry;

    let stats = store.stats().unwrap();
    assert_eq!((stats.segments, stats.records), (1, INPUTS * per_input));
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
    (peak, stats.blocks)
}

#[test]
fn a_merge_holds_blocks_not_segments() {
    let (small_peak, small_blocks) = compaction_peak(20_000);
    let (large_peak, large_blocks) = compaction_peak(80_000);
    let per_block = records_per_block(DEFAULT_BLOCK_SIZE) as u64;
    assert_eq!(small_blocks as u64, (INPUTS * 20_000).div_ceil(per_block));
    assert_eq!(large_blocks as u64, (INPUTS * 80_000).div_ceil(per_block));

    // Per output block: a 24-byte directory entry in the writer (its `Vec`
    // doubles, so up to twice that plus the old half while it moves), and at
    // seal the 20-byte index-region entry and the reopened segment's copy of
    // both. Per merge: 4 inputs x (4 KiB raw + 4 KiB decoded), the writer's
    // block and its encoding, the pending run.
    const PER_BLOCK: isize = 112;
    const FIXED: isize = 48 * 1024;
    for (peak, blocks) in [(small_peak, small_blocks), (large_peak, large_blocks)] {
        assert!(
            peak <= FIXED + PER_BLOCK * blocks as isize,
            "{blocks}-block merge peaked at {peak} B"
        );
    }
    assert!(
        large_peak - small_peak <= PER_BLOCK * (large_blocks - small_blocks) as isize,
        "peak grew {small_peak} -> {large_peak} B over {small_blocks} -> {large_blocks} blocks"
    );
    // Four times 80,000 16-byte records are 5 MiB; the merge never holds them.
    assert!(large_peak < 1 << 20, "peaked at {large_peak} B");
}
