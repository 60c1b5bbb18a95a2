//! The remap memory gate: building an index holds one `V × n` cost matrix and
//! one `xmits` row, not `n` rows and not a copy of the statistics.
//!
//! Measured with a live-bytes counting global allocator and its high-water
//! mark (the pattern of `scoop-store/tests/compact_memory.rs`). Heap sizes
//! are a function of the allocation sequence, which is the same on every run,
//! so the bound is a count — never a wall-clock or RSS reading.
//!
//! At 1,024 sensors and 150 values the matrix is 150 × 1,025 × 8 B = 1.17 MiB
//! and a row 8 KiB; the build below peaks at 1,257,112 B. The value-major
//! loop this gate replaced kept every source's row for the whole remap —
//! 1,025² × 8 B = 8.0 MiB — beside a deep clone of the store, and peaked at
//! 9,122,386 B on the same input.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a concurrently running test would pollute the window.

use scoop_core::histogram::SummaryHistogram;
use scoop_core::index::{IndexBuilder, IndexBuilderConfig, IndexDecision};
use scoop_core::summary::{ReportedNeighbor, SummaryMessage};
use scoop_core::{CostParams, StatsStore};
use scoop_types::{NodeId, SimTime, StorageIndexId, Value, ValueRange};
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

const SENSORS: usize = 1_024;
const DOMAIN_WIDTH: i32 = 150;

/// A converged deployment (the shape `core.index_build_ms` times): a chain of
/// sensors, each reporting twice — so the store holds superseded summaries
/// too — with values clustered around a node-specific mean.
fn converged_stats() -> StatsStore {
    let mut st = StatsStore::new(SENSORS + 1, ValueRange::new(0, DOMAIN_WIDTH - 1));
    for round in 0..2 {
        for i in 1..=SENSORS {
            let center = i as i32 * DOMAIN_WIDTH / (SENSORS as i32 + 1) + round;
            let values: Vec<Value> = (0..30)
                .map(|k| (center + (k % 5) - 2).clamp(0, DOMAIN_WIDTH - 1))
                .collect();
            let neighbors = [i - 1, i + 1]
                .into_iter()
                .filter(|&id| id <= SENSORS)
                .map(|id| ReportedNeighbor {
                    node: NodeId(id as u16),
                    quality: 0.8,
                })
                .collect();
            st.record_summary(SummaryMessage {
                node: NodeId(i as u16),
                histogram: SummaryHistogram::build(&values, 10),
                min: values.iter().min().copied(),
                max: values.iter().max().copied(),
                sum: values.iter().map(|&v| v as i64).sum(),
                count: values.len() as u32,
                data_rate_hz: 1.0 / 15.0,
                neighbors,
                parent: Some(NodeId((i - 1) as u16)),
                newest_complete_index: StorageIndexId(1),
                generated_at: SimTime::from_secs(100 + 60 * round as u64),
            });
        }
    }
    for q in 0..20 {
        let lo = q * 3 % DOMAIN_WIDTH;
        st.record_query(
            &ValueRange::new(lo, (lo + 5).min(DOMAIN_WIDTH - 1)),
            SimTime::from_secs(600 + q as u64 * 15),
        );
    }
    st
}

#[test]
fn a_remap_holds_one_cost_matrix_and_one_row() {
    let stats = converged_stats();
    let builder = IndexBuilder::new(IndexBuilderConfig::default());

    let entry = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(entry, Ordering::Relaxed);
    let decision = builder.build(
        &stats,
        CostParams::with_query_rate(1.0 / 15.0),
        StorageIndexId(2),
        SimTime::from_secs(840),
    );
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - entry;

    let IndexDecision::UseIndex(index) = &decision else {
        panic!("the fallback is off");
    };
    assert!(index.is_complete());
    assert!(
        index.owners().len() > 100,
        "a converged chain spreads ownership over its producers"
    );

    let matrix = (DOMAIN_WIDTH as usize * (SENSORS + 1) * 8) as isize;
    assert!(peak >= matrix, "peaked at {peak} B, below the matrix alone");
    assert!(
        peak <= 2 << 20,
        "one remap peaked at {peak} B above the store's own footprint"
    );

    // Nothing outlives the build but the decision it returns.
    drop(decision);
    assert_eq!(LIVE_BYTES.load(Ordering::Relaxed), entry);
}
