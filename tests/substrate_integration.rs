//! Integration tests of the substrates working together *below* the Scoop
//! layer: topology + link model + engine + routing + trickle chunking, and
//! the core index/planner machinery driven directly (without the full
//! simulation harness).

use scoop::core::baselines::hash_index;
use scoop::core::histogram::SummaryHistogram;
use scoop::core::index::{IndexBuilderConfig, IndexDecision};
use scoop::core::summary::{ReportedNeighbor, SummaryMessage};
use scoop::core::{CostModel, CostParams, IndexBuilder, QueryPlanner, StatsStore};
use scoop::net::{LinkModel, Topology};
use scoop::types::{LinkSpec, NodeId, SimTime, StorageIndexId, Value, ValueRange};

/// Builds the basestation's statistics as if a 4-hop chain of sensors had
/// reported summaries, then runs the full index-construction + query-planning
/// pipeline without any network simulation.
fn chain_stats(n_sensors: usize, domain: ValueRange) -> StatsStore {
    let mut st = StatsStore::new(n_sensors + 1, domain);
    for i in 1..=n_sensors {
        let center = (i as Value * domain.width() as Value / (n_sensors as Value + 1))
            .clamp(domain.lo, domain.hi);
        let values: Vec<Value> = (0..30)
            .map(|k| (center + (k % 3) - 1).clamp(domain.lo, domain.hi))
            .collect();
        let mut neighbors = vec![ReportedNeighbor {
            node: NodeId((i - 1) as u16),
            quality: 0.9,
        }];
        if i < n_sensors {
            neighbors.push(ReportedNeighbor {
                node: NodeId((i + 1) as u16),
                quality: 0.9,
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
            newest_complete_index: StorageIndexId::NONE,
            generated_at: SimTime::from_secs(120),
        });
    }
    st
}

#[test]
fn index_construction_places_values_near_their_producers() {
    let domain = ValueRange::new(0, 99);
    let mut st = chain_stats(8, domain);
    // Rare queries: data placement dominates.
    for q in 0..4 {
        st.record_query(
            &ValueRange::new(q * 20, q * 20 + 4),
            SimTime::from_secs(600 + q as u64 * 120),
        );
    }
    let builder = IndexBuilder::new(IndexBuilderConfig::default());
    let decision = builder.build(
        &st,
        CostParams::from_stats(&st),
        StorageIndexId(1),
        SimTime::from_secs(840),
    );
    let index = match decision {
        IndexDecision::UseIndex(i) => i,
        other => panic!("expected an index, got {other:?}"),
    };
    assert!(index.is_complete());
    // Node 4's readings cluster around 44 (centres are i·100/9); with rare
    // queries that value should be owned by node 4 or one of its immediate
    // neighbours in the chain, not by the far end or the root.
    let owner = index.lookup(44).expect("complete index");
    assert!(
        (3..=5).contains(&owner.index()),
        "value 44 should live near its producer (node 4), got {owner}"
    );
    // The planner then sends a query for that value to exactly that owner.
    let mut planner = QueryPlanner::new();
    planner.record_index(index.clone());
    let plan = planner.plan(
        &ValueRange::new(43, 45),
        SimTime::from_secs(840),
        SimTime::from_secs(900),
        StorageIndexId(1),
    );
    assert!(plan.targets.contains(owner));
    assert!(
        plan.network_targets() <= 3,
        "narrow query should touch few nodes"
    );
}

#[test]
fn heavy_query_load_degenerates_to_send_to_base() {
    let domain = ValueRange::new(0, 49);
    let mut st = chain_stats(6, domain);
    // Hammer the whole domain with queries so the query term dominates.
    for q in 0..200u64 {
        st.record_query(&domain, SimTime::from_secs(600 + q));
    }
    let builder = IndexBuilder::new(IndexBuilderConfig::default());
    let decision = builder.build(
        &st,
        CostParams::from_stats(&st),
        StorageIndexId(1),
        SimTime::from_secs(900),
    );
    let index = match decision {
        IndexDecision::UseIndex(i) => i,
        other => panic!("expected an index, got {other:?}"),
    };
    // "Notice that this algorithm may generate a send-to-base policy (if all
    // values get mapped to the basestation)".
    let at_base: u64 = index
        .entries()
        .iter()
        .filter(|e| e.owner.is_basestation())
        .map(|e| e.range.width())
        .sum();
    assert!(
        at_base as f64 >= domain.width() as f64 * 0.8,
        "with overwhelming query load most values should live at the root ({at_base}/{})",
        domain.width()
    );
}

#[test]
fn store_local_fallback_triggers_when_queries_stop() {
    let domain = ValueRange::new(0, 49);
    let st = chain_stats(6, domain);
    // No queries recorded at all: store-local costs nothing.
    let builder = IndexBuilder::new(IndexBuilderConfig {
        allow_store_local_fallback: true,
    });
    let decision = builder.build(
        &st,
        CostParams::with_query_rate(0.0),
        StorageIndexId(1),
        SimTime::from_secs(900),
    );
    match decision {
        IndexDecision::StoreLocal {
            store_local_cost,
            index_cost,
            ..
        } => {
            assert!(store_local_cost <= index_cost);
        }
        IndexDecision::UseIndex(index) => {
            // Acceptable alternative: the index itself is equivalent to
            // store-local (every producer owns its own values at zero cost).
            let model = CostModel::new(&st, CostParams::with_query_rate(0.0));
            let cost: f64 = index
                .domain()
                .values()
                .map(|v| model.placement_cost(index.lookup(v).unwrap(), v))
                .sum();
            assert!(
                cost.abs() < 1e-6,
                "zero-query index should cost ~0, got {cost}"
            );
        }
    }
}

#[test]
fn paper_floor_is_connected_with_lossy_links() {
    let topo = Topology::office_floor(62, 9).expect("topology");
    let links = LinkModel::from_spec(&LinkSpec::legacy(), &topo, 9).expect("valid spec");
    assert!(topo.is_connected());
    assert!(links.mean_loss() > 0.2 && links.mean_loss() < 0.8);
}

#[test]
fn hash_index_spreads_query_load_across_owners() {
    let domain = ValueRange::new(0, 149);
    let idx = hash_index(domain, 62, SimTime::ZERO);
    let mut planner = QueryPlanner::new();
    planner.record_index(idx);
    // A handful of narrow queries should hit a variety of different owners.
    let mut owners = std::collections::HashSet::new();
    for start in (0..140).step_by(10) {
        let plan = planner.plan(
            &ValueRange::new(start, start + 4),
            SimTime::ZERO,
            SimTime::from_secs(100),
            StorageIndexId(1),
        );
        for t in plan.targets.iter() {
            owners.insert(t);
        }
    }
    assert!(
        owners.len() > 10,
        "hash owners too concentrated: {}",
        owners.len()
    );
}
