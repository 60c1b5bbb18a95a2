//! Criterion micro-benchmark of the index-construction algorithm (Figure 2)
//! at the paper's scale: V ≈ 150 values, n = 62 nodes.
//!
//! The paper argues this is "very practical" for networks of a few hundred
//! nodes; this bench quantifies it and also measures the scaling in `n`, up
//! to the 1,024- and 4,096-sensor scale points (skipped under
//! `SCOOP_BENCH_QUICK=1`). At those two sizes it also times the `n`
//! single-source Dijkstras on their own — the part of a remap that
//! cross-epoch reuse of `xmits` rows could save; the rest of `V150` is the
//! histogram scan and the dense `V × n` updates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scoop_core::histogram::SummaryHistogram;
use scoop_core::index::{IndexBuilder, IndexBuilderConfig};
use scoop_core::summary::{ReportedNeighbor, SummaryMessage};
use scoop_core::{CostParams, StatsStore};
use scoop_types::{NodeId, SimTime, StorageIndexId, Value, ValueRange};

/// Builds a stats store resembling a converged deployment: `n` sensors in a
/// chain, each producing values clustered around a node-specific mean.
fn stats_for(n_sensors: usize, domain_width: i32) -> StatsStore {
    let domain = ValueRange::new(0, domain_width - 1);
    let mut st = StatsStore::new(n_sensors + 1, domain);
    for i in 1..=n_sensors {
        let center = (i as i32 * domain_width / (n_sensors as i32 + 1)).clamp(0, domain_width - 1);
        let values: Vec<Value> = (0..30)
            .map(|k| (center + (k % 5) - 2).clamp(0, domain_width - 1))
            .collect();
        let mut neighbors = vec![ReportedNeighbor {
            node: NodeId((i - 1) as u16),
            quality: 0.8,
        }];
        if i < n_sensors {
            neighbors.push(ReportedNeighbor {
                node: NodeId((i + 1) as u16),
                quality: 0.8,
            });
        }
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
            generated_at: SimTime::from_secs(100),
        });
    }
    for q in 0..20 {
        st.record_query(
            &ValueRange::new(
                q * 3 % domain_width,
                (q * 3 % domain_width + 5).min(domain_width - 1),
            ),
            SimTime::from_secs(600 + q as u64 * 15),
        );
    }
    st
}

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    let scale_points: &[usize] = if scoop_bench::quick_mode() {
        &[]
    } else {
        &[1_024, 4_096]
    };
    for &n in [16usize, 62, 100].iter().chain(scale_points) {
        let st = stats_for(n, 150);
        if scale_points.contains(&n) {
            group.bench_with_input(BenchmarkId::new("xmits_rows", n), &st, |b, st| {
                let mut row = Vec::new();
                b.iter(|| {
                    for src in st.candidate_owners() {
                        st.xmits_row_into(src, &mut row);
                    }
                });
            });
        }
        group.bench_with_input(BenchmarkId::new("V150", n), &st, |b, st| {
            let builder = IndexBuilder::new(IndexBuilderConfig::default());
            b.iter(|| {
                builder.build(
                    st,
                    CostParams::with_query_rate(1.0 / 15.0),
                    StorageIndexId(2),
                    SimTime::from_secs(840),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_index_build);
criterion_main!(benches);
