//! The sink (basestation) role: statistics, index construction and
//! dissemination, query issue and reply accounting. Only sinks carry a
//! [`SinkRole`]; what a federation sink does besides is the federation
//! module's.

use super::federation::{index_id_stride, query_ids, QueryIds};
use super::{SharedPayload, SimNode};
use scoop_core::index::{IndexBuilderConfig, IndexDecision};
use scoop_core::{
    CostParams, IndexBuilder, QueryMessage, QueryPlanner, ReplyMessage, ScoopPayload, StatsStore,
};
use scoop_net::NodeCtx;
use scoop_types::{
    MessageKind, NodeBitmap, NodeId, PartialAggregate, ScenarioSpec, SimTime, StorageIndexId,
    StoragePolicy, ValueRange,
};
use scoop_workload::QueryGenerator;
use std::collections::HashMap;
use std::sync::Arc;

/// Basestation-side query bookkeeping.
#[derive(Clone, Debug)]
struct QueryOutcome {
    targets: u64,
    replies: u64,
    readings: u64,
    /// The issued predicate, kept so model tests can check answers against a
    /// god's-eye evaluator without replaying the generator.
    values: ValueRange,
    time_lo: SimTime,
    time_hi: SimTime,
    /// Aggregate queries only: the partials merged at the sink so far.
    aggregate: Option<PartialAggregate>,
}

/// One issued query's final outcome, as read out by tests and harnesses
/// (see [`SimNode::query_records`]).
#[derive(Clone, Debug)]
pub struct QueryRecord {
    /// The query id on the wire.
    pub query_id: u32,
    /// Value range the query asked for.
    pub values: ValueRange,
    /// Earliest timestamp of interest.
    pub time_lo: SimTime,
    /// Latest timestamp of interest.
    pub time_hi: SimTime,
    /// Nodes the query targeted.
    pub targets: u64,
    /// Replies (or merged partial-aggregate messages) that reached the sink.
    pub replies: u64,
    /// Readings returned (for aggregates: readings folded into partials).
    pub readings: u64,
    /// Aggregate queries only: the sink's merged answer.
    pub aggregate: Option<PartialAggregate>,
}

/// State only a sink (basestation) carries.
pub(super) struct SinkRole {
    pub(super) stats: StatsStore,
    pub(super) planner: QueryPlanner,
    query_gen: QueryGenerator,
    /// The ids of the queries this sink issues next (see [`query_ids`]).
    query_ids: QueryIds,
    /// The id of the next index; ids step by [`index_id_stride`].
    next_index_id: StorageIndexId,
    outstanding: HashMap<u32, QueryOutcome>,
    indices_disseminated: u64,
    remaps_suppressed: u64,
    queries_answered_locally: u64,
}

impl SinkRole {
    /// The sink state of the rank-`rank` sink among `nsinks`.
    pub(super) fn new(cfg: &ScenarioSpec, rank: usize, nsinks: usize) -> Self {
        // Rank 0 (node 0) keeps the classic seed and id sequences, so a
        // single-sink run is byte-identical to the pre-federation code.
        let query_seed = cfg.seed ^ (rank as u64).wrapping_mul(0x51ab_a11e_0000_0001);
        SinkRole {
            stats: StatsStore::new(cfg.num_nodes + 1, cfg.workload.value_domain),
            planner: QueryPlanner::new(),
            query_gen: QueryGenerator::from_spec(&cfg.workload, query_seed),
            query_ids: query_ids(rank, nsinks),
            next_index_id: StorageIndexId(index_id_stride(nsinks) + rank as u32),
            outstanding: HashMap::new(),
            indices_disseminated: 0,
            remaps_suppressed: 0,
            queries_answered_locally: 0,
        }
    }

    /// Accounts a reply to one of this sink's queries; `false` when the query
    /// is not one it has outstanding.
    pub(super) fn record_reply(&mut self, reply: &ReplyMessage) -> bool {
        let Some(outcome) = self.outstanding.get_mut(&reply.query_id) else {
            return false;
        };
        outcome.replies += 1;
        if let Some(partial) = reply.aggregate.as_ref() {
            outcome.readings += partial.count;
            match outcome.aggregate.as_mut() {
                Some(merged) => merged.merge(partial),
                None => outcome.aggregate = Some(partial.clone()),
            }
        } else {
            outcome.readings += reply.readings.len() as u64;
        }
        true
    }
}

impl SimNode {
    /// Basestation only: how many indices were disseminated.
    pub fn indices_disseminated(&self) -> u64 {
        self.sink.as_ref().map_or(0, |b| b.indices_disseminated)
    }

    /// Basestation only: how many remap rounds were suppressed.
    pub fn remaps_suppressed(&self) -> u64 {
        self.sink.as_ref().map_or(0, |b| b.remaps_suppressed)
    }

    /// Basestation only: aggregated query outcome counters
    /// `(issued, targets, replies, readings, answered_locally)`.
    pub fn query_outcomes(&self) -> (u64, u64, u64, u64, u64) {
        match &self.sink {
            None => (0, 0, 0, 0, 0),
            Some(b) => {
                let issued = b.outstanding.len() as u64 + b.queries_answered_locally;
                let targets = b.outstanding.values().map(|o| o.targets).sum();
                let replies = b.outstanding.values().map(|o| o.replies).sum();
                let readings = b.outstanding.values().map(|o| o.readings).sum();
                (
                    issued,
                    targets,
                    replies,
                    readings,
                    b.queries_answered_locally,
                )
            }
        }
    }

    /// Basestation only: every issued query's final outcome, sorted by query
    /// id. Model tests compare these against a god's-eye evaluator over the
    /// nodes' data buffers; empty on sensors.
    pub fn query_records(&self) -> Vec<QueryRecord> {
        let Some(base) = self.sink.as_ref() else {
            return Vec::new();
        };
        let mut records: Vec<QueryRecord> = base
            .outstanding
            .iter()
            .map(|(&query_id, o)| QueryRecord {
                query_id,
                values: o.values,
                time_lo: o.time_lo,
                time_hi: o.time_hi,
                targets: o.targets,
                replies: o.replies,
                readings: o.readings,
                aggregate: o.aggregate.clone(),
            })
            .collect();
        records.sort_by_key(|r| r.query_id);
        records
    }

    pub(super) fn remap(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        let share = self.open_remap_round(ctx);
        let now = ctx.now();
        let shared = Arc::clone(&self.shared);
        let cfg = &shared.cfg;
        let Some(base) = self.sink.as_mut() else {
            return;
        };
        if base.stats.nodes_reporting() == 0 {
            // Nothing to optimize against yet.
            return;
        }
        let params = CostParams::from_stats(&base.stats);
        let builder = IndexBuilder::new(IndexBuilderConfig {
            allow_store_local_fallback: cfg.policy.scoop.allow_store_local_fallback,
        });
        let decision = builder.build(&base.stats, params, base.next_index_id, now);
        // A federation sink disseminates only its own share of the index.
        let index = match (decision, &share) {
            (IndexDecision::UseIndex(index), Some(share)) => share.cut(index),
            (IndexDecision::UseIndex(index), None) => Some(index),
            (IndexDecision::StoreLocal { .. }, _) => None,
        };
        let Some(index) = index else {
            // The store-local policy is cheaper, or the live peers own the
            // whole index: do not disseminate anything; nodes keep (or fall
            // back to) local storage.
            base.remaps_suppressed += 1;
            return;
        };

        if cfg.policy.scoop.suppress_unchanged_index {
            // The sink's own-rank newest is the index it last disseminated.
            let rank = share.map_or(0, |share| share.rank);
            let last = self
                .scoop
                .as_ref()
                .and_then(|s| s.dissemination.rank_index(rank));
            if let Some(prev) = last {
                if index.difference_fraction(prev) < cfg.policy.scoop.suppression_threshold {
                    base.remaps_suppressed += 1;
                    return;
                }
            }
        }

        let stride = index_id_stride(shared.sink_set.len());
        base.next_index_id = StorageIndexId(base.next_index_id.0 + stride);
        base.planner.record_index(index.clone());
        base.indices_disseminated += 1;
        self.disseminate(ctx, index);
    }

    pub(super) fn issue_query(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        let now = ctx.now();
        let policy = self.policy();
        let num_sensors = self.shared.cfg.num_nodes;
        let Some(base) = self.sink.as_mut() else {
            return;
        };
        let spec = base.query_gen.next_query(now);
        base.stats.record_query(&spec.values, now);

        let targets: NodeBitmap = match policy {
            StoragePolicy::Base => {
                // All data is already at the basestation; answering is free.
                base.queries_answered_locally += 1;
                return;
            }
            StoragePolicy::Local => {
                NodeBitmap::from_nodes((1..=num_sensors).map(|i| NodeId(i as u16)))
            }
            StoragePolicy::Hash => {
                let owners = self
                    .current_index
                    .as_ref()
                    .map(|idx| idx.owners_for_range(&spec.values))
                    .unwrap_or_default();
                NodeBitmap::from_nodes(owners.into_iter().filter(|n| !n.is_basestation()))
            }
            StoragePolicy::Scoop => {
                if base.planner.is_empty() {
                    // No index ever disseminated: every node stores locally.
                    // Multi-sink: promoted sinks occupy sensor-range ids but
                    // hold no sampled data, so query floods must skip them.
                    NodeBitmap::from_nodes(
                        (1..=num_sensors)
                            .map(|i| NodeId(i as u16))
                            .filter(|n| !self.shared.sink_set.contains(n)),
                    )
                } else {
                    let plan = base.planner.plan(
                        &spec.values,
                        spec.time_lo,
                        spec.time_hi,
                        base.stats.min_live_index(),
                    );
                    plan.targets
                }
            }
        };

        if targets.is_empty() {
            // Either the values map only to the basestation or nobody can
            // have them; the basestation's own buffer answers for free.
            base.queries_answered_locally += 1;
            return;
        }

        let Some(query_id) = base.query_ids.next() else {
            return;
        };
        base.outstanding.insert(
            query_id,
            QueryOutcome {
                targets: targets.len() as u64,
                replies: 0,
                readings: 0,
                values: spec.values,
                time_lo: spec.time_lo,
                time_hi: spec.time_hi,
                aggregate: None,
            },
        );
        let msg = QueryMessage {
            query_id,
            values: spec.values,
            time_lo: spec.time_lo,
            time_hi: spec.time_hi,
            targets,
            aggregate: self.shared.cfg.workload.kind.aggregate_spec(),
        };
        self.seen_queries.insert(query_id.into());
        ctx.send_broadcast(MessageKind::Query, None, Arc::new(ScoopPayload::Query(msg)));
    }
}
