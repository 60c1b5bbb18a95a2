//! The sink (basestation) role: statistics, index construction and
//! dissemination, query issue and reply accounting, and — in the multi-sink
//! federation — peer liveness. Only sinks carry a [`SinkRole`].

use super::federation::{filter_entries_to_rank, RANK_STRIDE};
use super::scoop_sensor::chunk_key;
use super::{SharedPayload, SimNode};
use scoop_core::index::{IndexBuilderConfig, IndexDecision};
use scoop_core::{
    CostParams, IndexBuilder, MappingChunk, QueryMessage, QueryPlanner, ReplyMessage, ScoopPayload,
    SinkAliveMessage, StatsStore, StorageIndex,
};
use scoop_net::NodeCtx;
use scoop_trickle::Chunker;
use scoop_types::{
    ExperimentConfig, MessageKind, NodeBitmap, NodeId, PartialAggregate, SimDuration, SimTime,
    StorageIndexId, StoragePolicy, ValueRange,
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
    next_query_id: u32,
    next_index_id: StorageIndexId,
    /// Stride between consecutive ids issued here: 1 classically; in the
    /// multi-sink federation the query stride is the sink count and the
    /// index stride is [`RANK_STRIDE`], so ids never collide across sinks
    /// and `id % RANK_STRIDE` recovers the issuing sink's rank.
    query_id_stride: u32,
    index_id_stride: u32,
    last_disseminated: Option<StorageIndex>,
    outstanding: HashMap<u32, QueryOutcome>,
    indices_disseminated: u64,
    remaps_suppressed: u64,
    queries_answered_locally: u64,
    /// Federation state; `None` in the classic single-sink mode.
    pub(super) multi: Option<MultiSinkState>,
}

/// Per-sink federation state: liveness tracking for the peers.
pub(super) struct MultiSinkState {
    /// This sink's rank in the sorted sink list.
    pub(super) rank: usize,
    /// Epoch of the next liveness beacon; strictly increasing.
    pub(super) epoch: u64,
    /// When each rank was last heard from (beacon or mapping chunk). `None`
    /// until first contact, which counts as "alive" — the grace period that
    /// stops every sink from "failing over" at startup.
    pub(super) last_heard: Vec<Option<SimTime>>,
}

impl MultiSinkState {
    /// Ranks considered alive at `now`: self, plus every peer heard from
    /// within the failover timeout (or not yet expected to have spoken).
    pub(super) fn live_ranks(&self, now: SimTime, timeout: SimDuration) -> Vec<usize> {
        (0..self.last_heard.len())
            .filter(|&r| {
                r == self.rank || now.since(self.last_heard[r].unwrap_or(SimTime::ZERO)) <= timeout
            })
            .collect()
    }

    /// Notes that sink `rank` gave a sign of life (beacon or mapping chunk).
    pub(super) fn heard(&mut self, rank: usize, now: SimTime) {
        if rank != self.rank {
            self.last_heard[rank] = Some(now);
        }
    }
}

impl SinkRole {
    /// The sink state of the rank-`rank` sink among `nsinks`.
    pub(super) fn new(cfg: &ExperimentConfig, rank: usize, nsinks: usize) -> Self {
        let is_multi = nsinks > 1;
        // Rank 0 (node 0) keeps the classic seed and id sequences, so a
        // single-sink run is byte-identical to the pre-federation code.
        let query_seed = cfg.seed ^ (rank as u64).wrapping_mul(0x51ab_a11e_0000_0001);
        SinkRole {
            stats: StatsStore::new(cfg.num_nodes + 1, cfg.workload.value_domain),
            planner: QueryPlanner::new(),
            query_gen: QueryGenerator::from_spec(&cfg.workload, query_seed),
            next_query_id: 1 + rank as u32,
            next_index_id: if is_multi {
                StorageIndexId(RANK_STRIDE + rank as u32)
            } else {
                StorageIndexId(1)
            },
            query_id_stride: nsinks as u32,
            index_id_stride: if is_multi { RANK_STRIDE } else { 1 },
            last_disseminated: None,
            outstanding: HashMap::new(),
            indices_disseminated: 0,
            remaps_suppressed: 0,
            queries_answered_locally: 0,
            multi: is_multi.then(|| MultiSinkState {
                rank,
                epoch: 1,
                last_heard: vec![None; nsinks],
            }),
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
        let now = ctx.now();
        let cfg = Arc::clone(&self.cfg);
        let my_id = self.id;
        let Some(base) = self.sink.as_mut() else {
            return;
        };
        // Multi-sink: every remap round opens with an epoch-stamped liveness
        // beacon (even when dissemination ends up suppressed below) and a
        // fresh view of which peers are still alive. A restarted sink's
        // deferred remap timer fires right after the halt ends, so this
        // beacon is also what announces the heal.
        let mut live: Vec<usize> = Vec::new();
        let mut my_rank = 0usize;
        if let (Some(m), Some(fed)) = (base.multi.as_mut(), self.federation.as_mut()) {
            let epoch = m.epoch;
            m.epoch += 1;
            my_rank = m.rank;
            live = m.live_ranks(now, cfg.policy.scoop.effective_failover_timeout());
            fed.seen_alive.insert((my_id.0, epoch));
            let beacon = Arc::new(ScoopPayload::SinkAlive(SinkAliveMessage {
                sink: my_id,
                epoch,
            }));
            ctx.send_broadcast(MessageKind::Heartbeat, self.routing.parent(), beacon);
        }
        if base.stats.nodes_reporting() == 0 {
            // Nothing to optimize against yet.
            return;
        }
        let params = CostParams::from_stats(&base.stats);
        let builder = IndexBuilder::new(IndexBuilderConfig {
            allow_store_local_fallback: cfg.policy.scoop.allow_store_local_fallback,
        });
        let decision = builder.build(&base.stats, params, base.next_index_id, now);
        let mut index = match decision {
            IndexDecision::UseIndex(index) => index,
            IndexDecision::StoreLocal { .. } => {
                // The store-local policy is cheaper: do not disseminate
                // anything; nodes keep (or fall back to) local storage.
                base.remaps_suppressed += 1;
                return;
            }
        };

        if base.multi.is_some() {
            // Keep only the value runs this sink owns under the live-rank
            // hash partition; the live peers disseminate the rest. A dead
            // peer's share folds into the survivors automatically because it
            // has dropped out of `live` — that IS the failover.
            let owned = filter_entries_to_rank(&index, my_rank, &live);
            if owned.is_empty() {
                base.remaps_suppressed += 1;
                return;
            }
            index =
                StorageIndex::from_entries(index.id(), index.domain(), owned, index.created_at());
        }

        if cfg.policy.scoop.suppress_unchanged_index {
            if let Some(prev) = &base.last_disseminated {
                if index.difference_fraction(prev) < cfg.policy.scoop.suppression_threshold {
                    base.remaps_suppressed += 1;
                    return;
                }
            }
        }

        base.next_index_id = StorageIndexId(base.next_index_id.0 + base.index_id_stride);
        base.planner.record_index(index.clone());
        base.last_disseminated = Some(index.clone());
        base.indices_disseminated += 1;

        // Chunk and broadcast; neighbors gossip it onward.
        let chunker = Chunker::new(cfg.policy.scoop.mapping_entries_per_packet);
        let chunks = chunker.split(index.id().0 as u64, index.entries());
        let domain = index.domain();
        let created_at = index.created_at();
        if let (Some(fed), Some(scoop)) = (self.federation.as_mut(), self.scoop.as_mut()) {
            // Our own chunks must not be re-gossiped when neighbors echo
            // them back, and our own slice joins the per-rank merge like any
            // peer's would.
            for chunk in &chunks {
                scoop.seen_chunks.insert(chunk_key(chunk));
            }
            fed.sink_indices[my_rank] = Some(Arc::new(index));
            self.current_index = fed.newest_index();
        } else {
            self.current_index = Some(Arc::new(index));
        }
        for chunk in chunks {
            let payload = Arc::new(ScoopPayload::Mapping(MappingChunk {
                chunk,
                domain,
                created_at,
            }));
            ctx.send_broadcast(MessageKind::Mapping, None, payload);
        }
    }

    pub(super) fn issue_query(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        let now = ctx.now();
        let policy = self.policy();
        let num_sensors = self.cfg.num_nodes;
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
                    let sinks: &[NodeId] = self.federation.as_ref().map_or(&[], |f| &f.sinks[..]);
                    NodeBitmap::from_nodes(
                        (1..=num_sensors)
                            .map(|i| NodeId(i as u16))
                            .filter(|n| !sinks.contains(n)),
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

        let query_id = base.next_query_id;
        base.next_query_id += base.query_id_stride;
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
            aggregate: self.cfg.workload.kind.aggregate_spec(),
        };
        self.seen_queries.insert(query_id.into());
        ctx.send_broadcast(MessageKind::Query, None, Arc::new(ScoopPayload::Query(msg)));
    }
}
