//! The expected-message cost model behind the indexing algorithm (Figure 2).
//!
//! ```text
//! for all values v:
//!   for all sensors o:                      [potential owner]
//!     for all sensors p:                    [producer]
//!       cost(o,v) += P(p produces v) × rate_p × xmits(p → o)
//!     cost(o,v)   += P(user queries v) × query_rate × xmits(base → o → base)
//!   storage_index[v] = argmin_o cost(o,v)
//! ```
//!
//! [`CostModel::placement_cost`] / [`CostModel::best_owner`] are that
//! pseudo-code one cell at a time. A remap runs it inside out instead
//! ([`CostModel::best_owners`], the only path `IndexBuilder::build` takes):
//!
//! ```text
//! cost[v][o] = 0                            [V × n matrix]
//! for all sensors p, ascending id:          [producer]
//!   skip p if P(p produces v) = 0 for every v
//!   row = xmits(p → ·)                      [one Dijkstra, one reused buffer]
//!   for all values v with P(p produces v) > 0:
//!     for all sensors o:
//!       cost[v][o] += (P(p produces v) × rate_p) × row[o]
//! row = xmits(base → ·)
//! for all values v:
//!   for all sensors o, ascending id:
//!     cost[v][o] += (P(user queries v) × query_rate) × (2 × row[o])
//!   storage_index[v] = argmin_o cost[v][o]
//! ```
//!
//! A cell `cost[v][o]` has a term only for the producers whose histogram
//! covers `v`, so the producer-major order runs each producer's Dijkstra once
//! and never holds more than one `xmits` row, where the value-major order
//! needs all `n` rows (`n²` floats) resident to avoid recomputing them. The
//! result is bit-identical, not merely close: every cell receives the same
//! addends (`prob * rate * x` already parses as `(prob * rate) * x`), in the
//! same order (producers ascending, the query term last), starting from the
//! same `0.0`, and the arg-min scans owners in the same ascending order with
//! the same tie rule.
//!
//! Costs are expressed in expected transmissions per second. The model also
//! prices the "store-local" alternative policy so the basestation can fall
//! back to it when that is cheaper (Section 4).

use crate::stats_store::StatsStore;
use scoop_types::{NodeId, Value};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;

/// Parameters of one cost evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Queries per second the user is issuing. Usually
    /// [`StatsStore::query_rate_hz`], but experiments override it to study
    /// hypothetical workloads.
    pub query_rate_hz: f64,
    /// Messages of query dissemination charged per node involved when
    /// pricing the store-local policy (Trickle makes this roughly one
    /// broadcast per node).
    pub local_query_flood_factor: f64,
}

impl CostParams {
    /// Parameters using the store's measured query rate.
    pub fn from_stats(stats: &StatsStore) -> Self {
        CostParams {
            query_rate_hz: stats.query_rate_hz(),
            local_query_flood_factor: 1.0,
        }
    }

    /// Parameters with an explicit query rate.
    pub fn with_query_rate(query_rate_hz: f64) -> Self {
        CostParams {
            query_rate_hz,
            local_query_flood_factor: 1.0,
        }
    }
}

/// Evaluates expected-message costs against a [`StatsStore`].
pub struct CostModel<'a> {
    stats: &'a StatsStore,
    params: CostParams,
    /// Cached `(producer, rate)` list, ascending by id: producers with a
    /// non-zero data rate, so the inner loop skips silent nodes.
    producers: Vec<(NodeId, f64)>,
    /// Per-source xmits rows behind the per-cell entry points ([`xmits`],
    /// [`placement_cost`], [`best_owner`]), each computed on the first
    /// lookup from that source; `RefCell` keeps those entry points `&self`.
    /// The whole-domain kernel never touches it.
    ///
    /// [`xmits`]: CostModel::xmits
    /// [`placement_cost`]: CostModel::placement_cost
    /// [`best_owner`]: CostModel::best_owner
    rows: RefCell<HashMap<usize, Vec<f64>>>,
}

impl<'a> CostModel<'a> {
    /// Builds a cost model. Cheap at any scale: it borrows the store and
    /// copies nothing but the producers' rates, so a policy that never
    /// prices a placement (Base/Local/Hash at 32k nodes) never pays for one.
    pub fn new(stats: &'a StatsStore, params: CostParams) -> Self {
        let n = stats.total_nodes();
        let producers = (0..n)
            .map(|i| NodeId(i as u16))
            .map(|p| (p, stats.data_rate(p)))
            .filter(|&(_, r)| r > 0.0)
            .collect();
        CostModel {
            stats,
            params,
            producers,
            rows: RefCell::new(HashMap::new()),
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> CostParams {
        self.params
    }

    /// Expected transmissions to get one packet from `a` to `b`. The first
    /// lookup from a given `a` runs that source's Dijkstra and caches the
    /// row; the values are bit-identical to the dense-table era because each
    /// row was always an independent single-source computation.
    pub fn xmits(&self, a: NodeId, b: NodeId) -> f64 {
        let n = self.stats.total_nodes();
        if a == b || a.index() >= n || b.index() >= n {
            // Answered without a row: zero, or the unknown-path penalty.
            return self.stats.xmits(a, b);
        }
        let mut rows = self.rows.borrow_mut();
        let row = rows.entry(a.index()).or_insert_with(|| {
            let mut row = Vec::new();
            self.stats.xmits_row_into(a, &mut row);
            row
        });
        row[b.index()]
    }

    /// How many per-source xmits rows the per-cell entry points have
    /// materialized so far. A cost model that priced nothing reports zero —
    /// the guard the 32k-node HASH/Base/Local scenarios rely on — and so
    /// does one that only ever ran [`CostModel::best_owners`].
    pub fn rows_materialized(&self) -> usize {
        self.rows.borrow().len()
    }

    /// The paper's `cost(o, v)`: expected messages per second if value `v` is
    /// owned by node `o`.
    pub fn placement_cost(&self, owner: NodeId, v: Value) -> f64 {
        let mut cost = 0.0;
        for &(p, rate) in &self.producers {
            let prob = self.stats.p_produces(p, v);
            if prob > 0.0 {
                cost += prob * rate * self.xmits(p, owner);
            }
        }
        cost += self.stats.p_queries(v)
            * self.params.query_rate_hz
            * (2.0 * self.xmits(NodeId::BASESTATION, owner));
        cost
    }

    /// The best owner for value `v` among `candidates` and its cost. Ties are
    /// broken towards the lower node id (which prefers the basestation), so
    /// values nobody produces or queries do not thrash between epochs.
    pub fn best_owner(&self, v: Value, candidates: &[NodeId]) -> (NodeId, f64) {
        cheapest(candidates.iter().map(|&o| (o, self.placement_cost(o, v))))
    }

    /// The best owner and its cost for every value of the domain, lowest
    /// value first: [`CostModel::best_owner`] over all candidate owners, as
    /// one producer-major pass (see the module docs for the loop and for why
    /// every cost comes out bit-identical). Live memory is the `V × n` cost
    /// matrix plus one xmits row.
    pub fn best_owners(&self) -> Vec<(NodeId, f64)> {
        let domain = self.stats.domain();
        let n = self.stats.total_nodes();
        let mut cost = vec![0.0f64; domain.width() as usize * n];
        let mut row = Vec::new();
        // `(value offset, P(p produces v) × rate_p)` of the current producer.
        let mut covered: Vec<(usize, f64)> = Vec::new();
        for &(p, rate) in &self.producers {
            covered.clear();
            covered.extend(domain.values().enumerate().filter_map(|(i, v)| {
                let prob = self.stats.p_produces(p, v);
                (prob > 0.0).then_some((i, prob * rate))
            }));
            if covered.is_empty() {
                continue;
            }
            self.stats.xmits_row_into(p, &mut row);
            for &(i, weight) in &covered {
                for (c, &x) in cost[i * n..(i + 1) * n].iter_mut().zip(&row) {
                    *c += weight * x;
                }
            }
        }

        self.stats.xmits_row_into(NodeId::BASESTATION, &mut row);
        domain
            .values()
            .enumerate()
            .map(|(i, v)| {
                let weight = self.stats.p_queries(v) * self.params.query_rate_hz;
                let cells = cost[i * n..(i + 1) * n].iter().zip(&row).enumerate();
                cheapest(cells.map(|(o, (&c, &x))| (NodeId(o as u16), c + weight * (2.0 * x))))
            })
            .collect()
    }

    /// Expected messages per second of the whole index described by a
    /// per-value owner assignment.
    pub fn assignment_cost(&self, owners: &[(Value, NodeId)]) -> f64 {
        owners.iter().map(|&(v, o)| self.placement_cost(o, v)).sum()
    }

    /// Expected messages per second of the store-local policy: every query is
    /// flooded to all nodes and every node sends a reply up the tree, "even
    /// if no tuples matched the query" (Section 5.5); data storage itself is
    /// free.
    pub fn store_local_cost(&self) -> f64 {
        let n = self.stats.total_nodes();
        let flood = self.params.local_query_flood_factor * (n.saturating_sub(1)) as f64;
        let replies: f64 = (1..n)
            .map(|i| self.xmits(NodeId(i as u16), NodeId::BASESTATION))
            .sum();
        self.params.query_rate_hz * (flood + replies)
    }

    /// Expected messages per second of the send-to-base policy: every reading
    /// travels from its producer to the basestation; queries are free.
    pub fn send_to_base_cost(&self) -> f64 {
        self.producers
            .iter()
            .map(|&(p, rate)| rate * self.xmits(p, NodeId::BASESTATION))
            .sum()
    }
}

/// The first of the cheapest `(owner, cost)` pairs — callers list owners in
/// ascending id, so ties go to the lower id — or the basestation at zero cost
/// when no owner has a finite cost.
fn cheapest(costs: impl Iterator<Item = (NodeId, f64)>) -> (NodeId, f64) {
    let mut best = (NodeId::BASESTATION, f64::INFINITY);
    for (o, c) in costs {
        if c + 1e-12 < best.1 {
            best = (o, c);
        }
    }
    if best.1.is_infinite() {
        (NodeId::BASESTATION, 0.0)
    } else {
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::SummaryHistogram;
    use crate::summary::{ReportedNeighbor, SummaryMessage};
    use scoop_types::{SimTime, StorageIndexId, ValueRange};

    /// Builds a 5-node chain 0 — 1 — 2 — 3 — 4 with perfect links where node
    /// i (i ≥ 1) produces values near 10·i.
    fn chain_store() -> StatsStore {
        let domain = ValueRange::new(0, 99);
        let mut st = StatsStore::new(5, domain);
        for i in 1..5u16 {
            let values: Vec<Value> = vec![(10 * i) as Value; 20];
            let mut neighbors = vec![ReportedNeighbor {
                node: NodeId(i - 1),
                quality: 1.0,
            }];
            if i < 4 {
                neighbors.push(ReportedNeighbor {
                    node: NodeId(i + 1),
                    quality: 1.0,
                });
            }
            st.record_summary(SummaryMessage {
                node: NodeId(i),
                histogram: SummaryHistogram::build(&values, 10),
                min: values.iter().min().copied(),
                max: values.iter().max().copied(),
                sum: values.iter().map(|&v| v as i64).sum(),
                count: values.len() as u32,
                data_rate_hz: 1.0 / 15.0,
                neighbors,
                parent: Some(NodeId(i - 1)),
                newest_complete_index: StorageIndexId(1),
                generated_at: SimTime::from_secs(100),
            });
        }
        st
    }

    #[test]
    fn producers_prefer_owning_their_own_values_when_queries_are_rare() {
        let st = chain_store();
        let model = CostModel::new(&st, CostParams::with_query_rate(0.0));
        let candidates = st.candidate_owners();
        // Node 3 produces value 30; with no queries it should own it (P1/P3).
        let (owner, cost) = model.best_owner(30, &candidates);
        assert_eq!(owner, NodeId(3));
        assert!(cost.abs() < 1e-9, "producing node stores at zero cost");
    }

    #[test]
    fn high_query_rate_pulls_values_to_the_basestation() {
        let st = chain_store();
        // Make queries far more frequent than data production (P2).
        let model = CostModel::new(&st, CostParams::with_query_rate(10.0));
        let candidates = st.candidate_owners();
        let (owner, _) = model.best_owner(40, &candidates);
        assert!(
            owner.index() < 4,
            "the deep producer should no longer own its value, got {owner}"
        );
        // With truly enormous query rates everything lands on the root.
        let model = CostModel::new(&st, CostParams::with_query_rate(1000.0));
        let (owner, _) = model.best_owner(40, &candidates);
        assert_eq!(owner, NodeId::BASESTATION);
    }

    #[test]
    fn placement_cost_increases_with_distance_from_producer() {
        let st = chain_store();
        let model = CostModel::new(&st, CostParams::with_query_rate(0.0));
        // Value 40 is produced by node 4 at the end of the chain.
        let c4 = model.placement_cost(NodeId(4), 40);
        let c2 = model.placement_cost(NodeId(2), 40);
        let c0 = model.placement_cost(NodeId(0), 40);
        assert!(c4 < c2 && c2 < c0, "{c4} < {c2} < {c0}");
    }

    #[test]
    fn unproduced_unqueried_values_default_to_the_basestation() {
        let st = chain_store();
        let mut st = st;
        // Observe queries that never touch value 77 so the prior is replaced
        // by a measured distribution with P(77) = 0.
        st.record_query(&ValueRange::new(10, 15), SimTime::from_secs(600));
        st.record_query(&ValueRange::new(20, 25), SimTime::from_secs(615));
        let model = CostModel::new(&st, CostParams::from_stats(&st));
        let (owner, cost) = model.best_owner(77, &st.candidate_owners());
        assert_eq!(owner, NodeId::BASESTATION);
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn store_local_vs_send_to_base_crossover_with_query_rate() {
        let st = chain_store();
        // No queries at all: store-local costs nothing, send-to-base is
        // positive.
        let quiet = CostModel::new(&st, CostParams::with_query_rate(0.0));
        assert_eq!(quiet.store_local_cost(), 0.0);
        assert!(quiet.send_to_base_cost() > 0.0);
        // Very chatty queries: store-local becomes much more expensive.
        let busy = CostModel::new(&st, CostParams::with_query_rate(1.0));
        assert!(busy.store_local_cost() > busy.send_to_base_cost());
    }

    #[test]
    fn construction_is_lazy_even_at_hash_scale() {
        // 32k nodes plus the basestation. The eager era allocated an
        // n² table (8+ GiB at this size) in `new`; construction must stay
        // O(n) and materialize xmits rows only when a lookup demands them.
        let st = StatsStore::new(32_769, ValueRange::new(0, 99));
        let model = CostModel::new(&st, CostParams::with_query_rate(0.0));
        assert_eq!(model.rows_materialized(), 0, "no lookups, no rows");
        let x = model.xmits(NodeId(17), NodeId(29));
        assert!(x > 0.0, "disconnected nodes get the unknown-path penalty");
        assert_eq!(model.rows_materialized(), 1, "one source probed, one row");
        // A second lookup from the same source reuses the cached row.
        let _ = model.xmits(NodeId(17), NodeId(31_000));
        assert_eq!(model.rows_materialized(), 1);
    }

    #[test]
    fn assignment_cost_sums_per_value_costs() {
        let st = chain_store();
        let model = CostModel::new(&st, CostParams::with_query_rate(0.0));
        let a = model.assignment_cost(&[(10, NodeId(1)), (20, NodeId(2))]);
        let b = model.placement_cost(NodeId(1), 10) + model.placement_cost(NodeId(2), 20);
        assert!((a - b).abs() < 1e-12);
    }
}
