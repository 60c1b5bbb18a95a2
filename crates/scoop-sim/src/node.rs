//! The per-node protocol state machine.
//!
//! A single type, [`SimNode`], implements every storage policy the paper
//! compares (SCOOP, LOCAL, BASE, HASH) plus the basestation role, as an
//! event-driven [`NodeLogic`] for the discrete-event engine:
//!
//! * every node participates in tree routing (periodic beacons, link
//!   estimation by snooping, parent selection);
//! * sensors sample their data source on the configured interval and route
//!   readings according to the policy (storage index lookup + the six
//!   routing rules for SCOOP/HASH/BASE, local storage for LOCAL);
//! * SCOOP sensors additionally send periodic summaries up the tree and
//!   assemble storage indices from mapping chunks;
//! * the basestation collects summaries, rebuilds and disseminates the
//!   storage index every remap interval (SCOOP), issues queries, and gathers
//!   replies.
//!
//! Mapping chunks and queries are disseminated by polite gossip: a node
//! re-broadcasts an item it has not seen before once, after a short random
//! delay, unless it overhears enough copies from its neighbors first — the
//! same suppression idea Trickle uses, specialized to the single-round case.
//!
//! The engine payload is `Arc<ScoopPayload>` (see [`SharedPayload`]): the
//! engine clones one packet per listener per transmission attempt, so with a
//! plain enum payload every broadcast, snooped unicast, forwarded packet, and
//! gossip re-broadcast deep-copied readings, histograms, and index chunks.
//! Behind an `Arc` that fan-out is a reference-count bump; the payload body
//! is cloned only at the single point that needs ownership (a data message
//! being unbatched at its destination, a summary entering the basestation's
//! statistics).

use scoop_core::histogram::SummaryHistogram;
use scoop_core::index::IndexBuilderConfig;
use scoop_core::index::IndexDecision;
use scoop_core::index::IndexEntry;
use scoop_core::routing_rules::{route_data, DataRoutingAction, LocalNodeView};
use scoop_core::summary::ReportedNeighbor;
use scoop_core::{
    CostParams, DataMessage, IndexBuilder, MappingChunk, QueryMessage, QueryPlanner, ReplyMessage,
    ScoopPayload, SinkAliveMessage, StatsStore, StorageIndex, SummaryMessage,
};
use scoop_net::{NodeCtx, NodeLogic, Packet, TimerToken};
use scoop_routing::{RoutingConfig, RoutingState};
use scoop_storage::{DataBuffer, RecentReadings};
use scoop_trickle::{ChunkAssembler, Chunker};
use scoop_types::{
    ExperimentConfig, MessageKind, NodeBitmap, NodeId, PartialAggregate, Reading, SimDuration,
    SimTime, StorageIndexId, StoragePolicy, ValueRange,
};
use scoop_workload::{DataSource, QueryGenerator};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// The engine-level payload type: one shared allocation per application
/// message, so the engine's per-listener packet clones are pointer bumps.
pub type SharedPayload = Arc<ScoopPayload>;

// Timer tokens.
const TICK_BEACON: TimerToken = 1;
const TICK_SAMPLE: TimerToken = 2;
const TICK_SUMMARY: TimerToken = 3;
const TICK_REMAP: TimerToken = 4;
const TICK_QUERY: TimerToken = 5;
const TICK_MAINTENANCE: TimerToken = 6;
const TICK_GOSSIP: TimerToken = 7;
/// Timer token reserved for the external serving tier: `scoop-serve` injects
/// one `TimerFire` with this token into the basestation per admission tick
/// (via `Engine::inject_timer`), so every admitted query batch is an ordinary
/// event in the deterministic stream. Public because the injector lives in a
/// different crate; nodes never arm it themselves.
pub const TICK_SERVE: TimerToken = 8;
/// One-shot hold-and-merge flush for in-network tree aggregation (LOCAL
/// aggregate workloads only). Armed with a fixed depth-scaled delay — no
/// jitter — so aggregate runs consume exactly the same RNG stream as the
/// seed workloads.
const TICK_AGG: TimerToken = 9;

/// Per-hop step of the aggregation hold timer: a node at depth `d` flushes
/// its merged partial after `(MAX_FORWARD_HOPS - d) * AGG_HOLD_STEP_MS`, so
/// deeper nodes flush first and each parent can fold its children's partials
/// into one upward message (TAG-style epoch scheduling). The worst-case hold
/// (depth 0 is the sink itself, depth 1 waits ~3.5 s) stays far below the
/// 15-second query interval.
const AGG_HOLD_STEP_MS: u64 = 150;

/// Interval between routing-tree beacons.
const BEACON_INTERVAL: SimDuration = SimDuration::from_secs(25);
/// Interval between routing-table maintenance passes.
const MAINTENANCE_INTERVAL: SimDuration = SimDuration::from_secs(60);
/// Maximum random delay before re-broadcasting a gossiped item.
const GOSSIP_DELAY_MS: u64 = 400;
/// A gossiped item is suppressed once this many copies have been overheard
/// while it waits in the queue.
const GOSSIP_SUPPRESSION: u32 = 2;
/// Maximum number of times one application packet may be forwarded. Transient
/// routing loops (stale descendants entries, tree churn) are broken by
/// storing the data wherever it happens to be once the budget is exhausted,
/// or dropping the packet for query replies and summaries.
const MAX_FORWARD_HOPS: u8 = 24;
/// Capacity of each node's data buffer, in readings. Far larger than anything
/// a 40-minute run produces; the flash model justifies ~670k per MB.
const DATA_BUFFER_CAP: usize = 65_536;

/// Per-node counters the harness reads out after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeLocalMetrics {
    /// Readings sampled by this node.
    pub sampled: u64,
    /// Readings stored in this node's data buffer.
    pub stored: u64,
    /// Readings stored here because this node was the designated owner.
    pub stored_as_owner: u64,
    /// Readings stored here by the basestation fallback (rule 4).
    pub stored_base_fallback: u64,
    /// Readings stored locally because the node had no index or no route.
    pub stored_local_default: u64,
    /// Replies this node sent.
    pub replies_sent: u64,
    /// Serving-tier admission ticks dispatched to this node (injected by
    /// `scoop-serve`; always 0 in plain simulation runs).
    pub serve_ticks: u64,
}

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
struct BaseState {
    stats: StatsStore,
    planner: QueryPlanner,
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
    multi: Option<MultiSinkState>,
}

/// Index ids advance by this stride per sink in multi-sink mode, reserving
/// the low bits for the issuing sink's rank (`MAX_SINKS` ranks).
const RANK_STRIDE: u32 = 64;

/// Per-sink federation state: liveness tracking for the peers.
struct MultiSinkState {
    /// This sink's rank in the sorted sink list.
    rank: usize,
    /// Epoch of the next liveness beacon; strictly increasing.
    epoch: u64,
    /// When each rank was last heard from (beacon or mapping chunk). `None`
    /// until first contact, which counts as "alive" — the grace period that
    /// stops every sink from "failing over" at startup.
    last_heard: Vec<Option<SimTime>>,
}

impl MultiSinkState {
    /// Ranks considered alive at `now`: self, plus every peer heard from
    /// within the failover timeout (or not yet expected to have spoken).
    fn live_ranks(&self, now: SimTime, timeout: SimDuration) -> Vec<usize> {
        (0..self.last_heard.len())
            .filter(|&r| {
                r == self.rank || now.since(self.last_heard[r].unwrap_or(SimTime::ZERO)) <= timeout
            })
            .collect()
    }
}

/// Which live sink rank owns value `v`: the existing hash, reduced over the
/// live ranks in ascending order. Every value always has exactly one owner,
/// and a dead sink's share redistributes deterministically over the
/// survivors.
fn owning_rank(v: scoop_types::Value, live: &[usize]) -> usize {
    live[(scoop_core::baselines::splitmix(v as u64) % live.len() as u64) as usize]
}

/// Restricts `index` to the maximal runs of consecutive values that `rank`
/// owns under the live-rank hash partition, preserving each run's owner.
/// Empty when the peers own everything this index covers.
fn filter_entries_to_rank(index: &StorageIndex, rank: usize, live: &[usize]) -> Vec<IndexEntry> {
    let mut owned: Vec<IndexEntry> = Vec::new();
    for entry in index.entries() {
        let mut v = entry.range.lo;
        loop {
            if owning_rank(v, live) == rank {
                match owned.last_mut() {
                    Some(last) if last.owner == entry.owner && last.range.hi + 1 == v => {
                        last.range.hi = v;
                    }
                    _ => owned.push(IndexEntry {
                        range: ValueRange::point(v),
                        owner: entry.owner,
                    }),
                }
            }
            if v == entry.range.hi {
                break;
            }
            v += 1;
        }
    }
    owned
}

/// One sink rank's chunk assembler plus the pending domain/created-at
/// metadata of the index it is currently assembling.
type RankAssembler = (ChunkAssembler<IndexEntry>, Option<(ValueRange, SimTime)>);

/// The per-node protocol state machine (see module docs).
pub struct SimNode {
    id: NodeId,
    cfg: Arc<ExperimentConfig>,
    routing: RoutingState,
    recent: RecentReadings,
    buffer: DataBuffer,
    source: Box<dyn DataSource>,
    rng: StdRng,
    /// Newest complete storage index this node holds. Behind an `Arc`: the
    /// static HASH / BASE index is one allocation shared by every node of
    /// the run (see [`NodeShared`]).
    current_index: Option<Arc<StorageIndex>>,
    assembler: ChunkAssembler<IndexEntry>,
    assembling_meta: Option<(ValueRange, SimTime)>,
    /// Readings batched for the same owner, waiting to be sent.
    batch: Vec<Reading>,
    batch_dest: Option<(NodeId, StorageIndexId)>,
    /// Queries already processed (deduplication for gossip).
    seen_queries: HashSet<u32>,
    /// Mapping chunks already gossiped, keyed by (index id, chunk index).
    seen_chunks: HashSet<(u64, u32)>,
    /// Items waiting to be re-broadcast, with a count of copies overheard.
    /// The payloads are the shared `Arc`s the packets arrived with, so a
    /// re-broadcast reuses the original allocation.
    pending_gossip: VecDeque<(SharedPayload, MessageKind, u32)>,
    gossip_timer_armed: bool,
    base: Option<BaseState>,
    /// The sorted sink set in multi-sink mode; empty classically. Non-empty
    /// switches every node to per-rank index assembly and sink-liveness
    /// gossip.
    sinks: Vec<NodeId>,
    /// Multi-sink only: one chunk assembler (and pending domain/created-at
    /// metadata) per sink rank, because each sink versions its own chunk
    /// stream and a single assembler would let the streams preempt each
    /// other.
    rank_assemblers: Vec<RankAssembler>,
    /// Multi-sink only: the newest complete index per sink rank. Owner
    /// lookups scan these newest-first; `current_index` mirrors the newest
    /// overall so the routing rules keep working unchanged.
    sink_indices: Vec<Option<Arc<StorageIndex>>>,
    /// Sink-liveness beacons already gossiped, keyed by (sink, epoch).
    seen_alive: HashSet<(u16, u64)>,
    /// In-network tree aggregation (LOCAL aggregate workloads): partials
    /// held at this node waiting for the depth-scaled flush timer, in arming
    /// order. All entries share the same fixed hold delay, so the front is
    /// always the one whose `TICK_AGG` fires next.
    pending_aggregates: Vec<(u32, PartialAggregate)>,
    /// Counters the harness reads after the run.
    pub metrics: NodeLocalMetrics,
}

/// The part of a node's initial state that is a pure function of the
/// experiment configuration, hence identical on every node of a run. Built
/// once per engine and handed to every [`SimNode::with_shared`] call, so the
/// per-run immutable state (notably the static index) exists once, not once
/// per node.
pub struct NodeShared {
    cfg: Arc<ExperimentConfig>,
    routing_cfg: RoutingConfig,
    /// The sorted sink set (`[node 0]` classically).
    sink_set: Vec<NodeId>,
    /// The index known a priori under the HASH and BASE policies — the
    /// paper's "locally computed", statistics-free mapping.
    static_index: Option<Arc<StorageIndex>>,
}

impl NodeShared {
    /// Derives the shared state from `cfg`.
    pub fn new(cfg: Arc<ExperimentConfig>) -> Self {
        let routing_cfg = RoutingConfig {
            neighbor_cap: cfg.policy.scoop.neighbor_list_cap,
            descendants_cap: cfg.policy.scoop.descendants_cap,
            summary_neighbors: cfg.policy.scoop.summary_neighbors,
            ..RoutingConfig::default()
        };
        let static_index = match cfg.policy.kind {
            StoragePolicy::Hash => Some(scoop_core::baselines::hash_index(
                cfg.workload.value_domain,
                cfg.num_nodes,
                SimTime::ZERO,
            )),
            StoragePolicy::Base => Some(StorageIndex::send_to_base(
                StorageIndexId(1),
                cfg.workload.value_domain,
                SimTime::ZERO,
            )),
            StoragePolicy::Scoop | StoragePolicy::Local => None,
        };
        NodeShared {
            routing_cfg,
            sink_set: cfg.policy.sink_ids(),
            static_index: static_index.map(Arc::new),
            cfg,
        }
    }
}

impl SimNode {
    /// Creates the state machine for node `id` under the given experiment
    /// configuration. Builds a private [`NodeShared`]; anything constructing
    /// a whole network should build one and call [`SimNode::with_shared`].
    pub fn new(id: NodeId, cfg: Arc<ExperimentConfig>, source: Box<dyn DataSource>) -> Self {
        Self::with_shared(id, &NodeShared::new(cfg), source)
    }

    /// Creates the state machine for node `id` over the run's shared state.
    ///
    /// Each node owns its `source` outright. Data sources are pure functions
    /// of `(node, now)` (see [`scoop_workload::sources`]), so per-node copies
    /// built from the same config behave exactly like one shared source —
    /// without the `Rc<RefCell<...>>` sharing that would pin a run to a
    /// single thread. This keeps `SimNode` (and the whole engine) `Send`.
    pub fn with_shared(id: NodeId, shared: &NodeShared, source: Box<dyn DataSource>) -> Self {
        let cfg = Arc::clone(&shared.cfg);
        let sink_set = &shared.sink_set;
        let is_multi = sink_set.len() > 1;
        let is_base = if is_multi {
            sink_set.contains(&id)
        } else {
            id.is_basestation()
        };
        let base = if is_base {
            let total = cfg.num_nodes + 1;
            let rank = sink_set.iter().position(|&s| s == id).unwrap_or(0);
            // Rank 0 (node 0) keeps the classic seed and id sequences, so a
            // single-sink run is byte-identical to the pre-federation code.
            let query_seed = cfg.seed ^ (rank as u64).wrapping_mul(0x51ab_a11e_0000_0001);
            Some(BaseState {
                stats: StatsStore::new(total, cfg.workload.value_domain),
                planner: QueryPlanner::new(),
                query_gen: QueryGenerator::from_spec(&cfg.workload, query_seed),
                next_query_id: 1 + rank as u32,
                next_index_id: if is_multi {
                    StorageIndexId(RANK_STRIDE + rank as u32)
                } else {
                    StorageIndexId(1)
                },
                query_id_stride: if is_multi { sink_set.len() as u32 } else { 1 },
                index_id_stride: if is_multi { RANK_STRIDE } else { 1 },
                last_disseminated: None,
                outstanding: HashMap::new(),
                indices_disseminated: 0,
                remaps_suppressed: 0,
                queries_answered_locally: 0,
                multi: is_multi.then(|| MultiSinkState {
                    rank,
                    epoch: 1,
                    last_heard: vec![None; sink_set.len()],
                }),
            })
        } else {
            None
        };
        let (sinks, rank_assemblers, sink_indices) = if is_multi {
            let n = sink_set.len();
            (
                sink_set.clone(),
                (0..n).map(|_| (ChunkAssembler::new(), None)).collect(),
                vec![None; n],
            )
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };

        SimNode {
            id,
            routing: RoutingState::new(id, shared.routing_cfg),
            recent: RecentReadings::new(cfg.policy.scoop.recent_readings),
            buffer: DataBuffer::new(DATA_BUFFER_CAP),
            source,
            rng: StdRng::seed_from_u64(cfg.seed ^ (0xa0de_0000 + id.0 as u64)),
            current_index: shared.static_index.clone(),
            assembler: ChunkAssembler::new(),
            assembling_meta: None,
            batch: Vec::new(),
            batch_dest: None,
            seen_queries: HashSet::new(),
            seen_chunks: HashSet::new(),
            pending_gossip: VecDeque::new(),
            gossip_timer_armed: false,
            base,
            sinks,
            rank_assemblers,
            sink_indices,
            seen_alive: HashSet::new(),
            pending_aggregates: Vec::new(),
            metrics: NodeLocalMetrics::default(),
            cfg,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's routing state (for inspection by tests and the harness).
    pub fn routing(&self) -> &RoutingState {
        &self.routing
    }

    /// The node's data buffer.
    pub fn data_buffer(&self) -> &DataBuffer {
        &self.buffer
    }

    /// The newest complete storage index this node holds.
    pub fn current_index(&self) -> Option<&StorageIndex> {
        self.current_index.as_deref()
    }

    /// The id of the newest complete index, or `NONE`.
    pub fn newest_index_id(&self) -> StorageIndexId {
        self.current_index
            .as_ref()
            .map(|i| i.id())
            .unwrap_or(StorageIndexId::NONE)
    }

    /// Readings currently batched and waiting to be sent to their owner
    /// (sampled but neither stored nor lost yet).
    pub fn pending_batched(&self) -> usize {
        self.batch.len()
    }

    /// Basestation only: how many indices were disseminated.
    pub fn indices_disseminated(&self) -> u64 {
        self.base
            .as_ref()
            .map(|b| b.indices_disseminated)
            .unwrap_or(0)
    }

    /// Basestation only: how many remap rounds were suppressed.
    pub fn remaps_suppressed(&self) -> u64 {
        self.base.as_ref().map(|b| b.remaps_suppressed).unwrap_or(0)
    }

    /// Basestation only: aggregated query outcome counters
    /// `(issued, targets, replies, readings, answered_locally)`.
    pub fn query_outcomes(&self) -> (u64, u64, u64, u64, u64) {
        match &self.base {
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
        let Some(base) = self.base.as_ref() else {
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

    fn is_sensor(&self) -> bool {
        // In multi-sink mode promoted sinks stop sampling and take on the
        // basestation duties instead; classically only node 0 is the sink.
        self.base.is_none()
    }

    /// The sink a reply to `query_id` must reach. Query ids are issued with
    /// stride `nsinks` starting at `1 + rank`, so the rank is recoverable
    /// from the id alone and repliers need no extra routing state.
    fn reply_sink(&self, query_id: u32) -> NodeId {
        let rank = (query_id.wrapping_sub(1) as usize) % self.sinks.len().max(1);
        self.sinks[rank]
    }

    fn policy(&self) -> StoragePolicy {
        self.cfg.policy.kind
    }

    fn jitter(&mut self, max_ms: u64) -> SimDuration {
        SimDuration::from_millis(self.rng.gen_range(0..=max_ms.max(1)))
    }

    // ------------------------------------------------------------------
    // Gossip (mapping chunks and queries)
    // ------------------------------------------------------------------

    fn enqueue_gossip(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        payload: SharedPayload,
        kind: MessageKind,
    ) {
        self.pending_gossip.push_back((payload, kind, 0));
        if !self.gossip_timer_armed {
            self.gossip_timer_armed = true;
            let delay = self.jitter(GOSSIP_DELAY_MS);
            ctx.set_timer(delay, TICK_GOSSIP);
        }
    }

    fn note_gossip_overheard(&mut self, payload: &ScoopPayload) {
        for (pending, _, heard) in self.pending_gossip.iter_mut() {
            let same = match (&**pending, payload) {
                (ScoopPayload::Mapping(a), ScoopPayload::Mapping(b)) => {
                    a.chunk.version == b.chunk.version && a.chunk.index == b.chunk.index
                }
                (ScoopPayload::Query(a), ScoopPayload::Query(b)) => a.query_id == b.query_id,
                (ScoopPayload::SinkAlive(a), ScoopPayload::SinkAlive(b)) => a == b,
                _ => false,
            };
            if same {
                *heard += 1;
            }
        }
    }

    fn flush_one_gossip(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        while let Some((payload, kind, heard)) = self.pending_gossip.pop_front() {
            if heard >= GOSSIP_SUPPRESSION {
                // Enough neighbors already repeated it: suppress ours.
                continue;
            }
            ctx.send_broadcast(kind, self.routing.parent(), payload);
            break;
        }
        if self.pending_gossip.is_empty() {
            self.gossip_timer_armed = false;
        } else {
            let delay = self.jitter(GOSSIP_DELAY_MS);
            ctx.set_timer(delay, TICK_GOSSIP);
        }
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    /// Resolves the owner (and the index that named it) for a freshly
    /// sampled value. Classically this is a lookup in the one current index;
    /// in multi-sink mode each sink's index covers only its owned slice of
    /// the domain, so the lookup scans the per-rank indices newest-first and
    /// the first hit wins.
    fn lookup_owner(&self, value: scoop_types::Value) -> (NodeId, StorageIndexId) {
        if self.sinks.is_empty() {
            return match &self.current_index {
                Some(idx) => match idx.lookup(value) {
                    Some(owner) => (owner, idx.id()),
                    None => (self.id, idx.id()),
                },
                // No complete index yet: store locally (Section 5.3).
                None => (self.id, StorageIndexId::NONE),
            };
        }
        let mut held: Vec<&Arc<StorageIndex>> = self.sink_indices.iter().flatten().collect();
        held.sort_by_key(|i| (i.created_at(), i.id()));
        for idx in held.iter().rev() {
            if let Some(owner) = idx.lookup(value) {
                return (owner, idx.id());
            }
        }
        let newest = held.last().map(|i| i.id()).unwrap_or(StorageIndexId::NONE);
        (self.id, newest)
    }

    fn handle_sample(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        let now = ctx.now();
        let value = self.source.sample(self.id, now);
        let reading = Reading::new(self.id, self.cfg.workload.attribute, value, now);
        self.metrics.sampled += 1;
        self.recent.push(reading);

        if self.policy() == StoragePolicy::Local {
            // LOCAL: everything stays on the producer.
            self.store_reading(reading, StorageIndexId::NONE, StoreReason::LocalDefault);
            return;
        }

        let (owner, sid) = self.lookup_owner(value);

        if owner == self.id {
            self.store_reading(reading, sid, StoreReason::Owner);
            return;
        }

        if self.policy() != StoragePolicy::Scoop {
            // Batching readings into one packet is a Scoop optimization
            // (Section 5.4); the BASE and HASH comparison policies ship each
            // reading individually, as the paper's cost analysis assumes.
            let msg = DataMessage {
                readings: vec![reading],
                owner,
                sid,
            };
            self.dispatch_data(ctx, msg, None);
            return;
        }

        // Batch readings destined for the same owner.
        match self.batch_dest {
            Some((dest, dest_sid)) if dest == owner && dest_sid == sid => {
                self.batch.push(reading);
            }
            Some(_) => {
                self.flush_batch(ctx);
                self.batch_dest = Some((owner, sid));
                self.batch.push(reading);
            }
            None => {
                self.batch_dest = Some((owner, sid));
                self.batch.push(reading);
            }
        }
        if self.batch.len() >= self.cfg.policy.scoop.batch_size {
            self.flush_batch(ctx);
        }
    }

    fn flush_batch(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        let Some((owner, sid)) = self.batch_dest.take() else {
            return;
        };
        if self.batch.is_empty() {
            return;
        }
        let msg = DataMessage {
            readings: std::mem::take(&mut self.batch),
            owner,
            sid,
        };
        self.dispatch_data(ctx, msg, None);
    }

    /// Routes a data message that was either produced locally (`incoming` is
    /// `None`) or received from the network (`incoming` carries the packet
    /// header, whose hop count bounds how much further it may travel).
    fn dispatch_data(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        msg: DataMessage,
        incoming: Option<&scoop_net::PacketMeta>,
    ) {
        if let Some(meta) = incoming {
            if meta.hops >= MAX_FORWARD_HOPS {
                // Forwarding budget exhausted (almost certainly a transient
                // routing loop): keep the data here rather than losing it.
                let reason = if self.id.is_basestation() {
                    StoreReason::BaseFallback
                } else {
                    StoreReason::LocalDefault
                };
                let sid = msg.sid;
                for r in msg.readings {
                    self.store_reading(r, sid, reason);
                }
                return;
            }
        }
        let action = {
            let view = LocalNodeView {
                id: self.id,
                index: self.current_index.as_deref(),
                routing: &self.routing,
                neighbor_shortcut: self.cfg.policy.scoop.neighbor_shortcut,
            };
            route_data(&view, msg)
        };
        match action {
            DataRoutingAction::StoreLocal(m) => {
                let reason = if m.owner == self.id {
                    StoreReason::Owner
                } else if self.id.is_basestation() {
                    StoreReason::BaseFallback
                } else {
                    StoreReason::LocalDefault
                };
                let sid = m.sid;
                for r in m.readings {
                    self.store_reading(r, sid, reason);
                }
            }
            DataRoutingAction::StrandedStoreLocal(m) => {
                let sid = m.sid;
                for r in m.readings {
                    self.store_reading(r, sid, StoreReason::LocalDefault);
                }
            }
            DataRoutingAction::Forward { next_hop, message } => {
                // The routing rules may have rewritten owner/sid, so the
                // payload allocation cannot be reused here; this is the one
                // Arc::new on the data forwarding path.
                let payload = Arc::new(ScoopPayload::Data(message));
                match incoming {
                    // Forward the original packet so the origin fields and
                    // hop count survive the multihop path.
                    Some(meta) => ctx.forward(
                        Packet {
                            meta: *meta,
                            payload,
                        },
                        scoop_net::LinkDst::Unicast(next_hop),
                    ),
                    None => ctx.send_unicast(
                        next_hop,
                        MessageKind::Data,
                        self.routing.parent(),
                        payload,
                    ),
                }
            }
        }
    }

    fn store_reading(&mut self, reading: Reading, sid: StorageIndexId, reason: StoreReason) {
        self.buffer.store(reading, reading.timestamp, sid);
        self.metrics.stored += 1;
        match reason {
            StoreReason::Owner => self.metrics.stored_as_owner += 1,
            StoreReason::BaseFallback => self.metrics.stored_base_fallback += 1,
            StoreReason::LocalDefault => self.metrics.stored_local_default += 1,
        }
    }

    // ------------------------------------------------------------------
    // Summaries
    // ------------------------------------------------------------------

    fn send_summary(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        let Some(parent) = self.routing.parent() else {
            return;
        };
        let values = self.recent.values();
        let summary = SummaryMessage {
            node: self.id,
            histogram: SummaryHistogram::build(&values, self.cfg.policy.scoop.n_bins),
            min: self.recent.min_value(),
            max: self.recent.max_value(),
            sum: self.recent.sum(),
            count: self.recent.len() as u32,
            data_rate_hz: 1.0 / self.cfg.workload.sample_interval.as_secs_f64().max(0.001),
            neighbors: self
                .routing
                .summary_neighbors()
                .into_iter()
                .map(|e| ReportedNeighbor {
                    node: e.node,
                    quality: e.quality,
                })
                .collect(),
            parent: Some(parent),
            newest_complete_index: self.newest_index_id(),
            generated_at: ctx.now(),
        };
        ctx.send_unicast(
            parent,
            MessageKind::Summary,
            Some(parent),
            Arc::new(ScoopPayload::Summary(summary)),
        );
    }

    // ------------------------------------------------------------------
    // Basestation: remap and queries
    // ------------------------------------------------------------------

    fn remap(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        let now = ctx.now();
        let cfg = Arc::clone(&self.cfg);
        let my_id = self.id;
        let Some(base) = self.base.as_mut() else {
            return;
        };
        // Multi-sink: every remap round opens with an epoch-stamped liveness
        // beacon (even when dissemination ends up suppressed below) and a
        // fresh view of which peers are still alive. A restarted sink's
        // deferred remap timer fires right after the halt ends, so this
        // beacon is also what announces the heal.
        let mut live: Vec<usize> = Vec::new();
        let mut my_rank = 0usize;
        let is_multi = base.multi.is_some();
        if let Some(m) = base.multi.as_mut() {
            let epoch = m.epoch;
            m.epoch += 1;
            my_rank = m.rank;
            live = m.live_ranks(now, cfg.policy.scoop.effective_failover_timeout());
            self.seen_alive.insert((my_id.0, epoch));
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

        if is_multi {
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
        if is_multi {
            // Our own chunks must not be re-gossiped when neighbors echo
            // them back, and our own slice joins the per-rank merge like any
            // peer's would.
            for chunk in &chunks {
                self.seen_chunks.insert((chunk.version, chunk.index));
            }
            self.sink_indices[my_rank] = Some(Arc::new(index));
            self.refresh_current_index();
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

    fn issue_query(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        let now = ctx.now();
        let policy = self.policy();
        let num_sensors = self.cfg.num_nodes;
        let hash_index = if policy == StoragePolicy::Hash {
            self.current_index.clone()
        } else {
            None
        };
        // Multi-sink: promoted sinks occupy sensor-range ids but hold no
        // sampled data, so query floods must skip them.
        let sink_set = self.sinks.clone();
        let Some(base) = self.base.as_mut() else {
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
                let owners = hash_index
                    .as_ref()
                    .map(|idx| idx.owners_for_range(&spec.values))
                    .unwrap_or_default();
                NodeBitmap::from_nodes(owners.into_iter().filter(|n| !n.is_basestation()))
            }
            StoragePolicy::Scoop => {
                if base.planner.is_empty() {
                    // No index ever disseminated: every node stores locally.
                    NodeBitmap::from_nodes(
                        (1..=num_sensors)
                            .map(|i| NodeId(i as u16))
                            .filter(|n| !sink_set.contains(n)),
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
        self.seen_queries.insert(query_id);
        ctx.send_broadcast(MessageKind::Query, None, Arc::new(ScoopPayload::Query(msg)));
    }

    // ------------------------------------------------------------------
    // Packet handling
    // ------------------------------------------------------------------

    fn handle_payload(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        packet: Packet<SharedPayload>,
    ) {
        let meta = packet.meta;
        match &*packet.payload {
            ScoopPayload::Beacon(beacon) => {
                self.routing.on_beacon(meta.link_src, beacon, ctx.now());
            }
            ScoopPayload::Summary(summary) => {
                if let Some(base) = self.base.as_mut() {
                    // The one place a summary needs ownership; everything on
                    // the way here shared the arrival allocation.
                    base.stats.record_summary(summary.clone());
                }
                // Non-sinks forward up the tree; a promoted sink does too
                // (after recording), because summaries climb towards node 0
                // and stopping them here would starve the sinks above us.
                // Node 0 itself is the root and keeps its classic behaviour.
                if self.base.is_none() || !self.id.is_basestation() {
                    // Remember the child branch the origin lives under (only
                    // when it really arrived from below — never learn
                    // "descendants" through our parent).
                    self.note_upward_route(&meta, ctx.now());
                    if meta.hops < MAX_FORWARD_HOPS {
                        if let Some(parent) = self.routing.parent() {
                            ctx.forward(
                                Packet {
                                    meta,
                                    payload: Arc::clone(&packet.payload),
                                },
                                scoop_net::LinkDst::Unicast(parent),
                            );
                        }
                    }
                }
            }
            ScoopPayload::Mapping(chunk) => self.handle_mapping(ctx, chunk, &packet.payload),
            ScoopPayload::Data(data) => {
                self.note_upward_route(&meta, ctx.now());
                // Routing may rewrite owner/sid before storing or forwarding,
                // so the destination clones the message body once here.
                self.dispatch_data(ctx, data.clone(), Some(&meta));
            }
            ScoopPayload::Query(query) => self.handle_query(ctx, query, &packet.payload),
            ScoopPayload::Reply(reply) => {
                let mut consumed = false;
                if let Some(base) = self.base.as_mut() {
                    if let Some(outcome) = base.outstanding.get_mut(&reply.query_id) {
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
                        consumed = true;
                    } else {
                        // Classically an unknown reply at the sink is stale
                        // and dies here; in multi-sink mode it belongs to a
                        // peer and must keep travelling.
                        consumed = self.sinks.is_empty();
                    }
                }
                // In-network tree aggregation: an intermediate still holding
                // its own partial for this query folds the child's partial in
                // (arrival order — deterministic) instead of forwarding; the
                // merged result climbs on this node's own flush.
                if !consumed {
                    if let Some(partial) = reply.aggregate.as_ref() {
                        if let Some((_, held)) = self
                            .pending_aggregates
                            .iter_mut()
                            .find(|(id, _)| *id == reply.query_id)
                        {
                            held.merge(partial);
                            consumed = true;
                        }
                    }
                }
                if !consumed {
                    self.note_upward_route(&meta, ctx.now());
                    if meta.hops < MAX_FORWARD_HOPS {
                        let next = if self.sinks.is_empty() {
                            self.routing.parent()
                        } else {
                            // Route towards the sink that issued the query
                            // (recovered from the id), not blindly up-tree —
                            // a promoted sink is rarely an ancestor of the
                            // replier.
                            let sink = self.reply_sink(reply.query_id);
                            match self
                                .routing
                                .next_hop_for(sink, self.cfg.policy.scoop.neighbor_shortcut)
                            {
                                scoop_routing::NextHop::Neighbor(h)
                                | scoop_routing::NextHop::DownTree(h)
                                | scoop_routing::NextHop::UpTree(h) => Some(h),
                                scoop_routing::NextHop::Local | scoop_routing::NextHop::Stuck => {
                                    None
                                }
                            }
                        };
                        if let Some(hop) = next {
                            ctx.forward(
                                Packet {
                                    meta,
                                    payload: Arc::clone(&packet.payload),
                                },
                                scoop_net::LinkDst::Unicast(hop),
                            );
                        }
                    }
                }
            }
            ScoopPayload::SinkAlive(alive) => {
                if self.sinks.is_empty() {
                    // Never sent in single-sink mode; ignore defensively.
                    return;
                }
                if !self.seen_alive.insert((alive.sink.0, alive.epoch)) {
                    return;
                }
                let now = ctx.now();
                if let Some(rank) = self.sinks.iter().position(|s| *s == alive.sink) {
                    if let Some(m) = self.base.as_mut().and_then(|b| b.multi.as_mut()) {
                        if rank != m.rank {
                            m.last_heard[rank] = Some(now);
                        }
                    }
                }
                // Flood network-wide by polite gossip so every sink hears
                // every peer even across tree branches.
                self.enqueue_gossip(ctx, Arc::clone(&packet.payload), MessageKind::Heartbeat);
            }
        }
    }

    /// Records that `meta.origin` is reachable through `meta.link_src`, but
    /// only when the packet genuinely arrived from below us in the tree:
    /// learning "descendants" from packets sent by our own parent would
    /// poison the descendants list and create routing loops.
    fn note_upward_route(&mut self, meta: &scoop_net::PacketMeta, now: SimTime) {
        if Some(meta.link_src) == self.routing.parent() {
            return;
        }
        if meta.origin == self.id || meta.link_src == self.id {
            return;
        }
        self.routing.note_routed_up(meta.origin, meta.link_src, now);
    }

    fn handle_mapping(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        mc: &MappingChunk,
        payload: &SharedPayload,
    ) {
        if self.policy() != StoragePolicy::Scoop {
            return;
        }
        if self.sinks.is_empty() {
            if self.base.is_some() {
                return;
            }
            let key = (mc.chunk.version, mc.chunk.index);
            let first_time = self.seen_chunks.insert(key);
            if !first_time {
                return;
            }
            // Gossip the chunk onward (once, with suppression), reusing the
            // arrival's shared allocation.
            self.enqueue_gossip(ctx, Arc::clone(payload), MessageKind::Mapping);

            // Only feed the assembler chunks newer than what we already hold.
            if StorageIndexId(mc.chunk.version as u32) <= self.newest_index_id() {
                return;
            }
            self.assembling_meta = Some((mc.domain, mc.created_at));
            if let Some(entries) = self.assembler.accept(&mc.chunk) {
                let (domain, created_at) = self
                    .assembling_meta
                    .take()
                    .unwrap_or((mc.domain, mc.created_at));
                let index = StorageIndex::from_entries(
                    StorageIndexId(mc.chunk.version as u32),
                    domain,
                    entries,
                    created_at,
                );
                self.current_index = Some(Arc::new(index));
            }
            return;
        }

        // Multi-sink: everyone (sinks included) assembles everyone's chunk
        // stream, per issuing rank. A sink recording a peer's assembled index
        // into its planner is the index-summary exchange that lets any sink
        // plan queries over the whole domain, not just its owned slice.
        let key = (mc.chunk.version, mc.chunk.index);
        if !self.seen_chunks.insert(key) {
            return;
        }
        self.enqueue_gossip(ctx, Arc::clone(payload), MessageKind::Mapping);

        let rank = (mc.chunk.version % RANK_STRIDE as u64) as usize;
        if rank >= self.rank_assemblers.len() {
            return;
        }
        // A mapping chunk proves its issuing sink was alive recently; it
        // counts as liveness evidence alongside the SinkAlive beacons.
        let now = ctx.now();
        if let Some(m) = self.base.as_mut().and_then(|b| b.multi.as_mut()) {
            if rank != m.rank {
                m.last_heard[rank] = Some(now);
            }
        }
        let newest_for_rank = self.sink_indices[rank]
            .as_ref()
            .map(|i| i.id())
            .unwrap_or(StorageIndexId::NONE);
        if StorageIndexId(mc.chunk.version as u32) <= newest_for_rank {
            return;
        }
        let (assembler, meta_slot) = &mut self.rank_assemblers[rank];
        *meta_slot = Some((mc.domain, mc.created_at));
        if let Some(entries) = assembler.accept(&mc.chunk) {
            let (domain, created_at) = meta_slot.take().unwrap_or((mc.domain, mc.created_at));
            let index = StorageIndex::from_entries(
                StorageIndexId(mc.chunk.version as u32),
                domain,
                entries,
                created_at,
            );
            if let Some(base) = self.base.as_mut() {
                base.planner.record_index(index.clone());
            }
            self.sink_indices[rank] = Some(Arc::new(index));
            self.refresh_current_index();
        }
    }

    /// Multi-sink only: mirrors the newest per-rank index (by creation time,
    /// then id) into `current_index`, so the unchanged routing rules keep
    /// re-addressing in-flight data against the freshest mapping.
    fn refresh_current_index(&mut self) {
        self.current_index = self
            .sink_indices
            .iter()
            .flatten()
            .max_by_key(|i| (i.created_at(), i.id()))
            .cloned();
    }

    /// Sends one partial aggregate towards the sink that issued `query_id`,
    /// as a [`MessageKind::Aggregate`] message (counted with query/reply in
    /// the cost breakdown). Mirrors the reply routing exactly: up the tree in
    /// single-sink mode, towards the issuing sink in the federation.
    fn send_aggregate(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        query_id: u32,
        partial: PartialAggregate,
    ) {
        let reply = ReplyMessage {
            query_id,
            node: self.id,
            readings: Vec::new(),
            aggregate: Some(partial),
        };
        self.metrics.replies_sent += 1;
        let hop = if self.sinks.is_empty() {
            self.routing.parent()
        } else {
            let sink = self.reply_sink(query_id);
            match self
                .routing
                .next_hop_for(sink, self.cfg.policy.scoop.neighbor_shortcut)
            {
                scoop_routing::NextHop::Neighbor(h)
                | scoop_routing::NextHop::DownTree(h)
                | scoop_routing::NextHop::UpTree(h) => Some(h),
                scoop_routing::NextHop::Local | scoop_routing::NextHop::Stuck => None,
            }
        };
        if let Some(hop) = hop {
            ctx.send_unicast(
                hop,
                MessageKind::Aggregate,
                self.routing.parent(),
                Arc::new(ScoopPayload::Reply(reply)),
            );
        }
    }

    fn handle_query(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        query: &QueryMessage,
        payload: &SharedPayload,
    ) {
        if self.base.is_some() {
            if self.sinks.is_empty() {
                return;
            }
            // A multi-sink sink relays peers' queries onward (they flood by
            // gossip, and a sink sits on good tree positions) but never
            // answers them: sinks hold only fallback data, which the issuing
            // sink already accounts for via its own planner.
            if !self.seen_queries.insert(query.query_id) {
                return;
            }
            let useful = query
                .targets
                .iter()
                .any(|t| self.routing.is_neighbor(t) || self.routing.is_descendant(t));
            if useful {
                self.enqueue_gossip(ctx, Arc::clone(payload), MessageKind::Query);
            }
            return;
        }
        if !self.seen_queries.insert(query.query_id) {
            return;
        }

        // Modified Trickle: only re-broadcast if doing so can still help —
        // our own bit is set, or a neighbor / descendant is targeted.
        let useful = query.targets.contains(self.id)
            || query
                .targets
                .iter()
                .any(|t| self.routing.is_neighbor(t) || self.routing.is_descendant(t));
        if useful {
            self.enqueue_gossip(ctx, Arc::clone(payload), MessageKind::Query);
        }

        if query.targets.contains(self.id) {
            let readings = self
                .buffer
                .scan(&query.values, query.time_lo, query.time_hi);

            if let Some(agg_spec) = query.aggregate {
                // Aggregate path: fold the matching readings into a partial
                // instead of shipping them.
                let mut partial =
                    PartialAggregate::for_spec(&agg_spec, self.cfg.workload.value_domain);
                for r in &readings {
                    partial.observe(r.value);
                }
                if self.policy() == StoragePolicy::Local && self.sinks.is_empty() {
                    // Tree aggregation (TAG-style): hold the partial for a
                    // fixed depth-scaled delay so descendants' partials can
                    // merge in, then flush one message to the parent. No
                    // jitter — the RNG stream must match the seed workloads.
                    let depth = self.routing.hops().min(MAX_FORWARD_HOPS as u16) as u64;
                    let hold = SimDuration::from_millis(
                        AGG_HOLD_STEP_MS * (MAX_FORWARD_HOPS as u64 - depth),
                    );
                    self.pending_aggregates.push((query.query_id, partial));
                    ctx.set_timer(hold, TICK_AGG);
                } else {
                    // Value routing (SCOOP / HASH): the owner's partial is
                    // already the whole answer for its bucket — send it
                    // towards the sink immediately, unmerged.
                    self.send_aggregate(ctx, query.query_id, partial);
                }
                return;
            }

            let reply = ReplyMessage {
                query_id: query.query_id,
                node: self.id,
                readings,
                aggregate: None,
            };
            self.metrics.replies_sent += 1;
            if self.sinks.is_empty() {
                if let Some(parent) = self.routing.parent() {
                    ctx.send_unicast(
                        parent,
                        MessageKind::Reply,
                        Some(parent),
                        Arc::new(ScoopPayload::Reply(reply)),
                    );
                }
            } else {
                // Aim the reply at the issuing sink from the first hop.
                let sink = self.reply_sink(query.query_id);
                let hop = match self
                    .routing
                    .next_hop_for(sink, self.cfg.policy.scoop.neighbor_shortcut)
                {
                    scoop_routing::NextHop::Neighbor(h)
                    | scoop_routing::NextHop::DownTree(h)
                    | scoop_routing::NextHop::UpTree(h) => Some(h),
                    scoop_routing::NextHop::Local | scoop_routing::NextHop::Stuck => None,
                };
                if let Some(hop) = hop {
                    ctx.send_unicast(
                        hop,
                        MessageKind::Reply,
                        self.routing.parent(),
                        Arc::new(ScoopPayload::Reply(reply)),
                    );
                }
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum StoreReason {
    Owner,
    BaseFallback,
    LocalDefault,
}

impl NodeLogic for SimNode {
    type Payload = SharedPayload;

    fn on_init(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        // Beacons and maintenance run on every node from the very start, so
        // the tree forms during the warmup window.
        let beacon_offset = self.jitter(BEACON_INTERVAL.as_millis());
        ctx.set_timer(beacon_offset, TICK_BEACON);
        ctx.set_timer(MAINTENANCE_INTERVAL, TICK_MAINTENANCE);

        let warmup = self.cfg.warmup;
        if self.is_sensor() {
            let sample_offset = self.jitter(self.cfg.workload.sample_interval.as_millis());
            ctx.set_timer(warmup + sample_offset, TICK_SAMPLE);
            if self.policy() == StoragePolicy::Scoop {
                let summary_offset =
                    self.jitter(self.cfg.policy.scoop.summary_interval.as_millis());
                ctx.set_timer(warmup + summary_offset, TICK_SUMMARY);
            }
        } else {
            if self.policy() == StoragePolicy::Scoop {
                ctx.set_timer(warmup + self.cfg.policy.scoop.remap_interval, TICK_REMAP);
            }
            if self.policy() != StoragePolicy::Base {
                // Stagger the first query half an interval after sampling
                // starts so there is something to query.
                let offset = self.cfg.workload.queries.query_interval.div(2);
                ctx.set_timer(
                    warmup + self.cfg.workload.queries.query_interval + offset,
                    TICK_QUERY,
                );
            }
        }
    }

    fn on_packet(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        packet: Packet<SharedPayload>,
        addressed: bool,
    ) {
        self.routing.observe_packet(&packet.meta, ctx.now());
        if let Some(base) = self.base.as_mut() {
            if let Some(parent) = packet.meta.origin_parent {
                base.stats.note_parent(packet.meta.origin, parent);
            }
        }
        if !addressed {
            // Snooped traffic still feeds gossip suppression and, for
            // beacons, parent selection (beacons are broadcast anyway).
            self.note_gossip_overheard(&packet.payload);
            // Multi-sink: a promoted sink rarely sits on the unicast path a
            // summary climbs towards node 0, so it harvests overheard
            // summaries too — the statistics don't care how a report
            // arrived. Never taken in single-sink mode.
            if !self.sinks.is_empty() {
                if let ScoopPayload::Summary(summary) = &*packet.payload {
                    if let Some(base) = self.base.as_mut() {
                        base.stats.record_summary(summary.clone());
                    }
                }
            }
            return;
        }
        self.handle_payload(ctx, packet);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>, token: TimerToken) {
        match token {
            TICK_BEACON => {
                let beacon = self.routing.my_beacon();
                ctx.send_broadcast(
                    MessageKind::Heartbeat,
                    self.routing.parent(),
                    Arc::new(ScoopPayload::Beacon(beacon)),
                );
                let next = BEACON_INTERVAL + self.jitter(5_000);
                ctx.set_timer(next, TICK_BEACON);
            }
            TICK_MAINTENANCE => {
                self.routing.maintenance(ctx.now());
                ctx.set_timer(MAINTENANCE_INTERVAL, TICK_MAINTENANCE);
            }
            TICK_SAMPLE => {
                self.handle_sample(ctx);
                ctx.set_timer(self.cfg.workload.sample_interval, TICK_SAMPLE);
            }
            TICK_SUMMARY => {
                self.send_summary(ctx);
                ctx.set_timer(self.cfg.policy.scoop.summary_interval, TICK_SUMMARY);
            }
            TICK_REMAP => {
                self.remap(ctx);
                ctx.set_timer(self.cfg.policy.scoop.remap_interval, TICK_REMAP);
            }
            TICK_QUERY => {
                self.issue_query(ctx);
                ctx.set_timer(self.cfg.workload.queries.query_interval, TICK_QUERY);
            }
            TICK_GOSSIP => {
                self.flush_one_gossip(ctx);
            }
            // One flush per arming; entries share a fixed hold delay, so the
            // front is the one this firing belongs to.
            TICK_AGG if !self.pending_aggregates.is_empty() => {
                let (query_id, partial) = self.pending_aggregates.remove(0);
                self.send_aggregate(ctx, query_id, partial);
            }
            TICK_SERVE => {
                // Injected by the serving tier; the node only acknowledges it
                // in its counters. The timer is one-shot and never re-armed
                // here, so plain simulation runs are untouched.
                self.metrics.serve_ticks += 1;
            }
            _ => {}
        }
    }

    fn on_send_result(
        &mut self,
        _ctx: &mut NodeCtx<'_, SharedPayload>,
        delivered: bool,
        packet: Packet<SharedPayload>,
    ) {
        if !delivered && matches!(&*packet.payload, ScoopPayload::Data(_)) {
            // The readings in a dropped data packet are lost; they stay
            // counted as sampled but never as stored, which is exactly the
            // storage-success gap the paper reports.
            let _ = packet;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_net::{Engine, EngineConfig, LinkModel, Topology};
    use scoop_types::{DataSourceKind, Value};
    use scoop_workload::make_source;

    /// Builds an engine over a small fully-connected grid with perfect links
    /// so protocol behaviour can be checked without loss-induced noise.
    fn perfect_engine(cfg: &ExperimentConfig, side: usize) -> Engine<SimNode> {
        let topo = Topology::grid(side, 10.0).expect("grid");
        let links = LinkModel::perfect(&topo);
        let shared = Arc::new(cfg.clone());
        let proto = make_source(
            cfg.workload.data_source,
            cfg.workload.value_domain,
            topo.len() - 1,
            cfg.seed,
        );
        let nodes: Vec<SimNode> = topo
            .nodes()
            .map(|id| SimNode::new(id, Arc::clone(&shared), proto.clone_box()))
            .collect();
        Engine::new(
            topo,
            links,
            nodes,
            EngineConfig {
                seed: cfg.seed,
                ..Default::default()
            },
        )
        .expect("engine")
    }

    fn tiny_cfg(policy: StoragePolicy, source: DataSourceKind) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::small_test();
        cfg.num_nodes = 8; // 3×3 grid
        cfg.duration = SimDuration::from_mins(9);
        cfg.warmup = SimDuration::from_mins(2);
        cfg.policy.scoop.summary_interval = SimDuration::from_secs(40);
        cfg.policy.scoop.remap_interval = SimDuration::from_secs(80);
        cfg.policy.kind = policy;
        cfg.workload.data_source = source;
        cfg.seed = 3;
        cfg
    }

    #[test]
    fn summaries_reach_the_basestation_statistics() {
        let cfg = tiny_cfg(StoragePolicy::Scoop, DataSourceKind::Unique);
        let mut engine = perfect_engine(&cfg, 3);
        engine.run_until(SimTime::ZERO + cfg.warmup + SimDuration::from_secs(200));
        let base = engine.node(NodeId::BASESTATION);
        let stats = &base.base.as_ref().expect("basestation state").stats;
        assert!(
            stats.nodes_reporting() >= 6,
            "most sensors should have reported a summary, got {}",
            stats.nodes_reporting()
        );
    }

    #[test]
    fn mapping_dissemination_installs_indices_on_sensors() {
        let cfg = tiny_cfg(StoragePolicy::Scoop, DataSourceKind::Unique);
        let mut engine = perfect_engine(&cfg, 3);
        engine.run_until(SimTime::ZERO + cfg.duration);
        let base_epoch = engine.node(NodeId::BASESTATION).newest_index_id();
        assert!(base_epoch.is_some(), "the basestation built no index");
        let sensors_with_index = engine
            .iter_nodes()
            .filter(|(id, n)| !id.is_basestation() && n.newest_index_id().is_some())
            .count();
        assert_eq!(
            sensors_with_index, 8,
            "on perfect links every sensor assembles the index"
        );
    }

    #[test]
    fn unique_values_end_up_owned_by_their_producers() {
        let cfg = tiny_cfg(StoragePolicy::Scoop, DataSourceKind::Unique);
        let mut engine = perfect_engine(&cfg, 3);
        engine.run_until(SimTime::ZERO + cfg.duration);
        let base = engine.node(NodeId::BASESTATION);
        let index = base.current_index().expect("index exists");
        // Under UNIQUE every node always produces exactly its own id, so once
        // the statistics have converged the index maps node i's value to a
        // nearby node — in the common case node i itself.
        let mut self_owned = 0;
        for sensor in 1..=8u16 {
            if index.lookup(sensor as Value) == Some(NodeId(sensor)) {
                self_owned += 1;
            }
        }
        assert!(
            self_owned >= 5,
            "most UNIQUE values should be owned by their producer, got {self_owned}/8"
        );
    }

    #[test]
    fn base_policy_stores_everything_at_the_root() {
        let cfg = tiny_cfg(StoragePolicy::Base, DataSourceKind::Gaussian);
        let mut engine = perfect_engine(&cfg, 3);
        engine.run_until(SimTime::ZERO + cfg.duration);
        let root_stored = engine.node(NodeId::BASESTATION).metrics.stored;
        let elsewhere: u64 = engine
            .iter_nodes()
            .filter(|(id, _)| !id.is_basestation())
            .map(|(_, n)| n.metrics.stored)
            .sum();
        assert!(root_stored > 0);
        assert_eq!(elsewhere, 0, "BASE must not store anything on sensors");
    }

    #[test]
    fn local_policy_answers_queries_from_producers() {
        let cfg = tiny_cfg(StoragePolicy::Local, DataSourceKind::Unique);
        let mut engine = perfect_engine(&cfg, 3);
        engine.run_until(SimTime::ZERO + cfg.duration);
        let (issued, targets, replies, _readings, _local) =
            engine.node(NodeId::BASESTATION).query_outcomes();
        assert!(issued > 5);
        assert_eq!(
            targets,
            issued * 8,
            "LOCAL floods every query to every sensor"
        );
        assert!(
            replies as f64 >= targets as f64 * 0.9,
            "perfect links should deliver nearly all replies ({replies}/{targets})"
        );
        // Sensors keep their own data.
        for (id, node) in engine.iter_nodes() {
            if !id.is_basestation() {
                assert_eq!(node.metrics.stored, node.metrics.sampled);
            }
        }
    }

    #[test]
    fn ownership_partition_is_disjoint_complete_and_collapses_on_failover() {
        let live = vec![0usize, 1];
        let domain = ValueRange::new(0, 99);
        let owners = vec![NodeId(3); 100];
        let full =
            StorageIndex::from_owners(StorageIndexId(64), domain, &owners, SimTime::ZERO).unwrap();
        let a = filter_entries_to_rank(&full, 0, &live);
        let b = filter_entries_to_rank(&full, 1, &live);
        let ia = StorageIndex::from_entries(StorageIndexId(64), domain, a, SimTime::ZERO);
        let ib = StorageIndex::from_entries(StorageIndexId(65), domain, b, SimTime::ZERO);
        let mut covered = 0;
        for v in domain.values() {
            let in_a = ia.lookup(v).is_some();
            let in_b = ib.lookup(v).is_some();
            assert!(in_a != in_b, "value {v} must be owned by exactly one rank");
            covered += 1;
        }
        assert_eq!(covered, 100);
        assert!(!ia.is_complete() && !ib.is_complete());
        // With rank 1 dead, rank 0 owns the entire domain: that is failover.
        let solo = filter_entries_to_rank(&full, 0, &[0]);
        let is0 = StorageIndex::from_entries(StorageIndexId(128), domain, solo, SimTime::ZERO);
        assert!(is0.is_complete());
    }

    #[test]
    fn stale_sinks_drop_out_of_the_live_set_and_reappear_on_contact() {
        let mut m = MultiSinkState {
            rank: 0,
            epoch: 1,
            last_heard: vec![None, None],
        };
        let timeout = SimDuration::from_secs(120);
        // Grace period: a never-heard peer counts as alive early on.
        assert_eq!(m.live_ranks(SimTime::from_secs(60), timeout), vec![0, 1]);
        // Long silence past the timeout kills it.
        assert_eq!(m.live_ranks(SimTime::from_secs(500), timeout), vec![0]);
        // One beacon resurrects it.
        m.last_heard[1] = Some(SimTime::from_secs(450));
        assert_eq!(m.live_ranks(SimTime::from_secs(500), timeout), vec![0, 1]);
    }

    #[test]
    fn multi_sink_federation_splits_indices_and_serves_queries_from_both_sinks() {
        let mut cfg = tiny_cfg(StoragePolicy::Scoop, DataSourceKind::Gaussian);
        cfg.policy.basestations = vec![NodeId(0), NodeId(5)];
        let mut engine = perfect_engine(&cfg, 3);
        engine.run_until(SimTime::ZERO + cfg.duration);

        // The promoted sink stopped sampling and became a real sink.
        let promoted = engine.node(NodeId(5));
        assert_eq!(promoted.metrics.sampled, 0);
        assert!(
            promoted.indices_disseminated() > 0,
            "the promoted sink must disseminate its owned slice"
        );
        let root = engine.node(NodeId::BASESTATION);
        assert!(root.indices_disseminated() > 0);

        // Per-rank ids: rank 0 issues multiples of 64, rank 1 is offset 1.
        let rank0 = root.sink_indices[0].as_ref().expect("rank-0 index");
        let rank1 = root.sink_indices[1].as_ref().expect("rank-1 index");
        assert_eq!(rank0.id().0 % RANK_STRIDE, 0);
        assert_eq!(rank1.id().0 % RANK_STRIDE, 1);
        // The two slices never claim the same value.
        for v in cfg.workload.value_domain.values() {
            assert!(
                !(rank0.lookup(v).is_some() && rank1.lookup(v).is_some()),
                "value {v} claimed by both sinks"
            );
        }

        // Sensors merged both chunk streams.
        let merged = engine
            .iter_nodes()
            .filter(|(id, n)| {
                n.base.is_none()
                    && !id.is_basestation()
                    && n.sink_indices.iter().flatten().count() == 2
            })
            .count();
        assert!(
            merged >= 6,
            "most sensors should hold both sinks' slices, got {merged}"
        );
        // The newest-index mirror shares a per-rank slot's allocation.
        for (id, n) in engine.iter_nodes() {
            if let Some(current) = &n.current_index {
                assert!(
                    n.sink_indices
                        .iter()
                        .flatten()
                        .any(|held| Arc::ptr_eq(held, current)),
                    "node {id} mirrors a copy, not one of its per-rank indices"
                );
            }
        }

        // Both sinks issue queries (odd/even id split) and replies find
        // their way back to the issuing sink.
        let (issued0, _, replies0, _, local0) = root.query_outcomes();
        let (issued1, _, replies1, _, local1) = promoted.query_outcomes();
        assert!(issued0 > 2 && issued1 > 2);
        assert!(
            replies0 + local0 > 0,
            "node 0 got {replies0} replies, {local0} local answers"
        );
        assert!(
            replies1 + local1 > 0,
            "the promoted sink got {replies1} replies, {local1} local answers"
        );
    }

    #[test]
    fn hash_policy_uses_static_index_without_mappings() {
        let cfg = tiny_cfg(StoragePolicy::Hash, DataSourceKind::Gaussian);
        let mut engine = perfect_engine(&cfg, 3);
        engine.run_until(SimTime::ZERO + cfg.duration);
        assert_eq!(engine.stats().total_tx().mapping, 0);
        assert_eq!(engine.stats().total_tx().summary, 0);
        assert!(engine.stats().total_tx().data > 0);
        // Every node was constructed with the same static index.
        let ids: std::collections::HashSet<_> = engine
            .iter_nodes()
            .map(|(_, n)| n.newest_index_id())
            .collect();
        assert_eq!(ids.len(), 1);
    }
}
