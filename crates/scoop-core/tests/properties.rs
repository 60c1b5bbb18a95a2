//! Property-based tests for the Scoop core: the statistics store's path
//! estimates, the cost model's structural properties (P1-P3 from Section 4),
//! and the index builder's output invariants.

use proptest::prelude::*;
use scoop_core::histogram::SummaryHistogram;
use scoop_core::index::{IndexBuilder, IndexBuilderConfig, IndexDecision, StorageIndex};
use scoop_core::summary::{ReportedNeighbor, SummaryMessage};
use scoop_core::{CostModel, CostParams, StatsStore};
use scoop_types::{NodeId, SimTime, StorageIndexId, Value, ValueRange};

/// Builds a stats store for `n` sensors arranged in a chain with the given
/// per-node value centres.
fn chain_store(centres: &[Value], domain: ValueRange) -> StatsStore {
    let n = centres.len();
    let mut st = StatsStore::new(n + 1, domain);
    for (i, &centre) in centres.iter().enumerate() {
        let id = i + 1;
        let values: Vec<Value> = (0..20)
            .map(|k| (centre + (k % 3) - 1).clamp(domain.lo, domain.hi))
            .collect();
        let mut neighbors = vec![ReportedNeighbor {
            node: NodeId((id - 1) as u16),
            quality: 0.9,
        }];
        if id < n {
            neighbors.push(ReportedNeighbor {
                node: NodeId((id + 1) as u16),
                quality: 0.9,
            });
        }
        st.record_summary(SummaryMessage {
            node: NodeId(id as u16),
            histogram: SummaryHistogram::build(&values, 10),
            min: values.iter().min().copied(),
            max: values.iter().max().copied(),
            sum: values.iter().map(|&v| v as i64).sum(),
            count: values.len() as u32,
            data_rate_hz: 1.0 / 15.0,
            neighbors,
            parent: Some(NodeId((id - 1) as u16)),
            newest_complete_index: StorageIndexId(1),
            generated_at: SimTime::from_secs(60),
        });
    }
    st
}

/// The domain of the remap properties: 36 values with a non-zero origin, so
/// an offset-by-`lo` slip in the kernel's matrix indexing cannot hide.
const REMAP_DOMAIN: (Value, Value) = (-7, 28);

/// One step of an arbitrary summary stream, as raw draws:
/// `(node, centre, spread, shape, neighbour seed, parent)`.
type SummaryDraw = (u16, i32, i32, u8, u64, u16);

fn summary_draws() -> impl Strategy<Value = Vec<SummaryDraw>> {
    proptest::collection::vec(
        (
            0u16..400,
            -30i32..50,
            0i32..25,
            0u8..10,
            0u64..u64::MAX,
            0u16..400,
        ),
        0..220,
    )
}

/// Builds the statistics of an `n`-node network (basestation included) out
/// of raw draws. The stream exercises everything `CostModel` reads: several
/// summaries per node (so `latest` is overwritten), nodes that never report,
/// zero data rates, absent histograms, histograms partly or wholly outside
/// the domain, out-of-range reporters, zero-quality links, and — because
/// neighbours are only ever a few ids away and many nodes stay silent —
/// disconnected components that price at the unknown-path penalty.
fn arbitrary_store(
    n: usize,
    summaries: &[SummaryDraw],
    parents: &[(u16, u16)],
    queries: &[(i32, i32, u64)],
) -> StatsStore {
    let domain = ValueRange::new(REMAP_DOMAIN.0, REMAP_DOMAIN.1);
    let mut st = StatsStore::new(n, domain);
    // A few ids past the end, so the store's range checks are on the path.
    let id_space = n as u16 + 2;
    for &(node, centre, spread, shape, seed, parent) in summaries {
        let node = node % id_space;
        let values: Vec<Value> = match shape {
            0 => Vec::new(), // `histogram: None`
            _ => (0..20)
                .map(|k| centre + (k * 7) % (spread + 1) - spread / 2)
                .collect(),
        };
        let mut bits = seed;
        let neighbors = (0..bits % 4)
            .map(|_| {
                bits = bits
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let hop = 1 + (bits >> 40) % 3;
                let id = if bits >> 63 == 0 {
                    node as u64 + hop
                } else {
                    (node as u64).saturating_sub(hop)
                };
                ReportedNeighbor {
                    node: NodeId(id as u16),
                    quality: ((bits >> 20) % 1001) as f64 / 1000.0,
                }
            })
            .collect();
        st.record_summary(SummaryMessage {
            node: NodeId(node),
            histogram: SummaryHistogram::build(&values, 10),
            min: values.iter().min().copied(),
            max: values.iter().max().copied(),
            sum: values.iter().map(|&v| v as i64).sum(),
            count: values.len() as u32,
            data_rate_hz: if shape == 1 {
                0.0
            } else {
                (1 + seed % 40) as f64 / 60.0
            },
            neighbors,
            parent: (shape % 3 == 0).then_some(NodeId(parent % id_space)),
            newest_complete_index: StorageIndexId(1),
            generated_at: SimTime::from_secs(60),
        });
    }
    for &(origin, parent) in parents {
        st.note_parent(NodeId(origin % id_space), NodeId(parent % id_space));
    }
    for &(lo, width, at) in queries {
        st.record_query(&ValueRange::new(lo, lo + width), SimTime::from_secs(at));
    }
    st
}

/// Figure 2 exactly as written — value-major, one `best_owner` call per
/// value — assembled into the decision `IndexBuilder::build` must return.
fn per_value_reference(
    st: &StatsStore,
    params: CostParams,
    allow_store_local_fallback: bool,
    id: StorageIndexId,
    now: SimTime,
) -> IndexDecision {
    let model = CostModel::new(st, params);
    let candidates = st.candidate_owners();
    let mut owners = Vec::new();
    let mut index_cost = 0.0;
    for v in st.domain().values() {
        let (owner, cost) = model.best_owner(v, &candidates);
        owners.push(owner);
        index_cost += cost;
    }
    let index = StorageIndex::from_owners(id, st.domain(), &owners, now).unwrap();
    let store_local_cost = model.store_local_cost();
    if allow_store_local_fallback && store_local_cost < index_cost {
        IndexDecision::StoreLocal {
            index,
            index_cost,
            store_local_cost,
        }
    } else {
        IndexDecision::UseIndex(index)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// xmits() is a pseudometric on the known part of the network: zero on
    /// the diagonal, symmetric, and satisfying the triangle inequality.
    #[test]
    fn xmits_is_a_pseudometric(
        centres in proptest::collection::vec(0i32..100, 2..10),
    ) {
        let domain = ValueRange::new(0, 99);
        let st = chain_store(&centres, domain);
        let n = st.total_nodes();
        for a in 0..n {
            for b in 0..n {
                let ab = st.xmits(NodeId(a as u16), NodeId(b as u16));
                let ba = st.xmits(NodeId(b as u16), NodeId(a as u16));
                prop_assert!((ab - ba).abs() < 1e-9, "xmits not symmetric: {ab} vs {ba}");
                if a == b {
                    prop_assert_eq!(ab, 0.0);
                } else {
                    prop_assert!(ab >= 1.0, "one hop costs at least one transmission, got {ab}");
                }
                for c in 0..n {
                    let ac = st.xmits(NodeId(a as u16), NodeId(c as u16));
                    let cb = st.xmits(NodeId(c as u16), NodeId(b as u16));
                    prop_assert!(ab <= ac + cb + 1e-9, "triangle violated");
                }
            }
        }
    }

    /// The cost model's placement cost is non-negative and monotone in the
    /// query rate (P2): raising the query rate never makes a far-from-root
    /// placement cheaper relative to the root.
    #[test]
    fn query_rate_monotonically_penalizes_distant_owners(
        centres in proptest::collection::vec(0i32..100, 3..8),
        value in 0i32..100,
        rate_a in 0.0f64..0.2,
        rate_extra in 0.001f64..2.0,
    ) {
        let domain = ValueRange::new(0, 99);
        let st = chain_store(&centres, domain);
        let far = NodeId(centres.len() as u16); // end of the chain
        let slow = CostModel::new(&st, CostParams::with_query_rate(rate_a));
        let fast = CostModel::new(&st, CostParams::with_query_rate(rate_a + rate_extra));
        let margin_slow = slow.placement_cost(far, value) - slow.placement_cost(NodeId::BASESTATION, value);
        let margin_fast = fast.placement_cost(far, value) - fast.placement_cost(NodeId::BASESTATION, value);
        prop_assert!(slow.placement_cost(far, value) >= 0.0);
        prop_assert!(
            margin_fast >= margin_slow - 1e-9,
            "more querying should penalize the distant owner at least as much"
        );
    }

    /// The index builder always produces a complete index over the domain
    /// whose owners are valid node ids, regardless of the data distribution
    /// or query rate.
    #[test]
    fn index_builder_output_is_well_formed(
        centres in proptest::collection::vec(0i32..100, 2..10),
        query_rate in 0.0f64..2.0,
    ) {
        let domain = ValueRange::new(0, 99);
        let st = chain_store(&centres, domain);
        let builder = IndexBuilder::new(IndexBuilderConfig::default());
        let decision = builder.build(
            &st,
            CostParams::with_query_rate(query_rate),
            StorageIndexId(7),
            SimTime::from_secs(300),
        );
        let index = match decision {
            IndexDecision::UseIndex(i) => i,
            IndexDecision::StoreLocal { index, .. } => index,
        };
        prop_assert!(index.is_complete());
        prop_assert_eq!(index.id(), StorageIndexId(7));
        let n = st.total_nodes();
        for entry in index.entries() {
            prop_assert!(entry.owner.index() < n, "owner {} out of range", entry.owner);
            prop_assert!(domain.covers(&entry.range));
        }
        // Entries are sorted and contiguous.
        prop_assert_eq!(index.entries().first().map(|e| e.range.lo), Some(domain.lo));
        prop_assert_eq!(index.entries().last().map(|e| e.range.hi), Some(domain.hi));
    }

    /// With zero query rate, placing a value at a node that produces it is
    /// never more expensive than placing it anywhere else (P1/P3).
    #[test]
    fn producers_are_optimal_owners_without_queries(
        centres in proptest::collection::vec(5i32..95, 2..8),
        which in 0usize..8,
    ) {
        let domain = ValueRange::new(0, 99);
        let st = chain_store(&centres, domain);
        let model = CostModel::new(&st, CostParams::with_query_rate(0.0));
        let idx = which % centres.len();
        let producer = NodeId((idx + 1) as u16);
        let value = centres[idx];
        let at_producer = model.placement_cost(producer, value);
        for candidate in st.candidate_owners() {
            prop_assert!(
                at_producer <= model.placement_cost(candidate, value) + 1e-9,
                "placing {value} away from its producer should not be cheaper"
            );
        }
    }

    /// The producer-major kernel is the per-cell reference, bit for bit: for
    /// every value the same owner and a cost with the same `to_bits`.
    #[test]
    fn best_owners_is_bit_identical_to_the_per_value_reference(
        n in 2usize..96,
        summaries in summary_draws(),
        parents in proptest::collection::vec((0u16..400, 0u16..400), 0..24),
        queries in proptest::collection::vec((-15i32..35, 0i32..20, 600u64..900), 0..12),
        query_rate in 0.0f64..2.0,
    ) {
        let st = arbitrary_store(n, &summaries, &parents, &queries);
        let candidates = st.candidate_owners();
        // The measured rate on even sizes, an explicit one on odd sizes.
        let params = if n % 2 == 0 {
            CostParams::from_stats(&st)
        } else {
            CostParams::with_query_rate(query_rate)
        };
        let model = CostModel::new(&st, params);
        let kernel = model.best_owners();
        prop_assert_eq!(kernel.len() as u64, st.domain().width());
        for (v, &(owner, cost)) in st.domain().values().zip(&kernel) {
            let (want_owner, want_cost) = model.best_owner(v, &candidates);
            prop_assert_eq!(owner, want_owner, "owner of value {}", v);
            prop_assert_eq!(
                cost.to_bits(),
                want_cost.to_bits(),
                "cost of value {}: kernel {} vs reference {}",
                v, cost, want_cost
            );
        }
    }

    /// `IndexBuilder::build` returns the decision the value-major loop of
    /// Figure 2 would: same index, and with the fallback on, the same
    /// verdict carrying the same two costs.
    #[test]
    fn index_builder_matches_the_per_value_reference(
        n in 2usize..96,
        summaries in summary_draws(),
        parents in proptest::collection::vec((0u16..400, 0u16..400), 0..24),
        queries in proptest::collection::vec((-15i32..35, 0i32..20, 600u64..900), 0..12),
        query_rate in 0.0f64..2.0,
    ) {
        let st = arbitrary_store(n, &summaries, &parents, &queries);
        let (id, now) = (StorageIndexId(3), SimTime::from_secs(900));
        for params in [CostParams::from_stats(&st), CostParams::with_query_rate(query_rate)] {
            for allow_store_local_fallback in [false, true] {
                let builder = IndexBuilder::new(IndexBuilderConfig { allow_store_local_fallback });
                let built = builder.build(&st, params, id, now);
                let want = per_value_reference(&st, params, allow_store_local_fallback, id, now);
                prop_assert_eq!(built, want);
            }
        }
    }
}
