//! The per-node protocol state machine.
//!
//! A single type, [`SimNode`], implements every storage policy the paper
//! compares (SCOOP, LOCAL, BASE, HASH) plus the basestation role, as an
//! event-driven [`NodeLogic`] for the discrete-event engine. Its state is
//! split by how often it is touched and by who needs it:
//!
//! * the **run's constants**, one [`NodeShared`] per run behind an `Arc`
//!   every node points to: the spec, the data source (pure in
//!   `(node, now)`), the sink set and the static HASH / BASE index — what a
//!   mote would have compiled into the one image every node runs;
//! * the **hot core**, inline in every `SimNode` (at most 352 bytes) and
//!   touched by every event: tree routing (periodic beacons, link estimation
//!   by snooping, parent selection), the data buffer, the current storage
//!   index and the six routing rules applied to sampled and forwarded
//!   readings, the gossip queue, and the counters the harness reads;
//! * four boxed **roles**, each allocated at construction on exactly the
//!   nodes whose spec gives them the part, so a node that never plays a role
//!   pays one null pointer for it and no handler asks "is it there yet":
//!   - `sink` — sinks only: summary statistics, index construction and
//!     dissemination every remap interval, query issue and reply accounting;
//!   - `scoop_sensor` — SCOOP runs only: the recent-readings ring behind the
//!     periodic summaries, the batch of readings bound for one owner
//!     (Section 5.4), and the dissemination state below;
//!   - `federation` — multi-sink runs only, on every node: the sink-liveness
//!     beacons already gossiped, and on sinks the peers' liveness. Its
//!     module holds every multi-sink decision: each remap round's beacon and
//!     owned share, the sink rank that index and query ids carry, routing
//!     replies to the issuing sink, and a sink's relaying of peers' queries,
//!     replies and summaries. `federation` being `Some` is the one marker of
//!     a multi-sink run;
//!   - `aggregate` — sensors of LOCAL aggregate workloads only: partials held
//!     for in-network tree aggregation.
//!
//! Index dissemination is one module, `dissemination`: the sink's remap hands
//! it each new index, the `Mapping` dispatch hands it each heard chunk, and it
//! owns the per-rank chunk assemblers, the newest complete index of each sink
//! rank and the seen-chunk set. A single-sink run is the one-rank case of the
//! multi-sink federation.
//!
//! Queries and sink-liveness beacons are disseminated by flood-once gossip:
//! a node re-broadcasts an item it has not seen before at most once (a query
//! only where it can still help), after a short random delay. Nothing
//! suppresses or repeats it, so a node that misses every copy of an item
//! never receives it. Mapping chunks are flooded the same way, and are also
//! re-sent: a parent whose child's summary names an older index than one it
//! holds queues that index's chunks again, and each node that has not seen a
//! chunk floods it onward once.
//!
//! The engine payload is `Arc<ScoopPayload>` (see [`SharedPayload`]): a
//! packet is queued once per transmission attempt and every listener is shown
//! that one copy by reference ([`NodeLogic::on_packet_ref`]), so hearing a
//! packet costs no clone at all; a node that forwards or re-broadcasts what
//! it heard bumps the reference count instead of deep-copying readings,
//! histograms, and index chunks. The payload body is cloned only at the
//! single point that needs ownership (a data message being unbatched at its
//! destination, a summary entering the basestation's statistics).

mod aggregate;
mod dissemination;
mod federation;
mod id_set;
mod scoop_sensor;
mod sink;

pub use sink::QueryRecord;

use crate::DataBuffer;
use aggregate::Aggregation;
use federation::Federation;
use id_set::SparseIdSet;
use scoop_core::routing_rules::{route_data, DataRoutingAction, LocalNodeView};
use scoop_core::{DataMessage, QueryMessage, ReplyMessage, ScoopPayload, StorageIndex};
use scoop_net::{NodeCtx, NodeLogic, Packet, TimerToken};
use scoop_routing::{RoutingConfig, RoutingState};
use scoop_sensor::ScoopSensor;
use scoop_types::{
    MessageKind, NodeId, PartialAggregate, Reading, ScenarioSpec, SimDuration, SimTime,
    StorageIndexId, StoragePolicy,
};
use scoop_workload::{make_source_for, DataSource};
use sink::SinkRole;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// The engine-level payload type: one shared allocation per application
/// message, so queueing, forwarding and re-broadcasting it are pointer bumps.
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

/// Interval between routing-tree beacons.
const BEACON_INTERVAL: SimDuration = SimDuration::from_secs(25);
/// Interval between routing-table maintenance passes.
const MAINTENANCE_INTERVAL: SimDuration = SimDuration::from_secs(60);
/// Maximum random delay before re-broadcasting a gossiped item.
const GOSSIP_DELAY_MS: u64 = 400;
/// Maximum number of times one application packet may be forwarded. Transient
/// routing loops (stale descendants entries, tree churn) are broken by
/// storing the data wherever it happens to be once the budget is exhausted,
/// or dropping the packet for query replies and summaries.
const MAX_FORWARD_HOPS: u8 = 24;
/// Capacity of each node's data buffer, in readings. Far larger than anything
/// a 40-minute run produces, and well under the paper's "about 670,000 12-bit
/// sensor readings" per megabyte of flash (Section 5.5).
const DATA_BUFFER_CAP: usize = 65_536;

/// Per-node counters the harness reads out after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeLocalMetrics {
    /// Readings sampled by this node.
    pub sampled: u64,
    /// Readings stored in this node's data buffer. The readings in a data
    /// packet that exhausted its retries are lost: they stay counted as
    /// `sampled` on their producer and are never `stored` anywhere, which is
    /// exactly the storage-success gap the paper reports.
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

/// The per-node protocol state machine (see module docs).
pub struct SimNode {
    id: NodeId,
    /// The run's constants: spec, data source, sink set, static index.
    shared: Arc<NodeShared>,
    routing: RoutingState,
    buffer: DataBuffer,
    rng: StdRng,
    /// Newest complete storage index this node holds. Behind an `Arc`: the
    /// static HASH / BASE index is one allocation shared by every node of
    /// the run (see [`NodeShared`]).
    current_index: Option<Arc<StorageIndex>>,
    /// Ids of the queries already processed (deduplication for gossip).
    seen_queries: SparseIdSet,
    /// Items waiting to be re-broadcast. The payloads are the shared `Arc`s
    /// the packets arrived with, so a re-broadcast reuses the original
    /// allocation.
    pending_gossip: VecDeque<(SharedPayload, MessageKind)>,
    gossip_timer_armed: bool,
    // The roles (see module docs); each is `Some` from construction on the
    // nodes that play it and `None` forever on the rest.
    sink: Option<Box<SinkRole>>,
    scoop: Option<Box<ScoopSensor>>,
    federation: Option<Box<Federation>>,
    aggregation: Option<Box<Aggregation>>,
    /// Counters the harness reads after the run.
    pub metrics: NodeLocalMetrics,
}

/// Everything a node reads that is a pure function of the experiment
/// configuration, hence identical on every node of a run. Built once per
/// engine and shared by every [`SimNode::with_shared`] node through one
/// `Arc`, so the per-run immutable state — the spec, the data source, the
/// static index — exists once, not once per node.
pub struct NodeShared {
    cfg: ScenarioSpec,
    /// The run's one data source; sources are pure in `(node, now)`, so every
    /// node samples it by reference.
    source: Box<dyn DataSource>,
    /// Every node's [`RoutingState`] holds a clone of this one `Arc`.
    routing_cfg: Arc<RoutingConfig>,
    /// The sorted sink set (`[node 0]` classically).
    sink_set: Arc<[NodeId]>,
    /// The index known a priori under the HASH and BASE policies — the
    /// paper's "locally computed", statistics-free mapping.
    static_index: Option<Arc<StorageIndex>>,
}

impl NodeShared {
    /// Derives the shared state, the data source included, from `cfg`.
    pub fn new(cfg: ScenarioSpec) -> Self {
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
            source: make_source_for(&cfg.workload, cfg.num_nodes, cfg.seed),
            routing_cfg: Arc::new(routing_cfg),
            sink_set: cfg.policy.sink_ids().into(),
            static_index: static_index.map(Arc::new),
            cfg,
        }
    }
}

impl SimNode {
    /// Creates the state machine for node `id` over the run's shared state.
    ///
    /// Shared state is immutable and `Sync` (data sources are pure functions
    /// of `(node, now)`, see [`scoop_workload::sources`]), so holding it
    /// behind an `Arc` keeps `SimNode` — and the whole engine — `Send`.
    pub fn with_shared(id: NodeId, shared: &Arc<NodeShared>) -> Self {
        let cfg = &shared.cfg;
        let nsinks = shared.sink_set.len();
        let rank = shared.sink_set.iter().position(|&s| s == id);
        let tree_aggregation = cfg.policy.kind == StoragePolicy::Local
            && nsinks == 1
            && cfg.workload.kind.aggregate_spec().is_some();
        SimNode {
            id,
            routing: RoutingState::with_shared_config(id, Arc::clone(&shared.routing_cfg)),
            buffer: DataBuffer::new(DATA_BUFFER_CAP),
            rng: StdRng::seed_from_u64(cfg.seed ^ (0xa0de_0000 + id.0 as u64)),
            current_index: shared.static_index.clone(),
            seen_queries: SparseIdSet::default(),
            pending_gossip: VecDeque::new(),
            gossip_timer_armed: false,
            sink: rank.map(|rank| Box::new(SinkRole::new(cfg, rank, nsinks))),
            scoop: (cfg.policy.kind == StoragePolicy::Scoop)
                .then(|| Box::new(ScoopSensor::new(cfg))),
            federation: (nsinks > 1).then(|| Box::new(Federation::new(rank, nsinks))),
            aggregation: (tree_aggregation && rank.is_none()).then(Box::default),
            metrics: NodeLocalMetrics::default(),
            shared: Arc::clone(shared),
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
        self.scoop.as_ref().map_or(0, |scoop| scoop.batched())
    }

    /// Whether this node plays the sink (basestation) role: node 0
    /// classically, every promoted sink in multi-sink mode — those stop
    /// sampling and take on the basestation duties instead.
    pub fn is_sink(&self) -> bool {
        self.sink.is_some()
    }

    fn policy(&self) -> StoragePolicy {
        self.shared.cfg.policy.kind
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
        self.pending_gossip.push_back((payload, kind));
        if !self.gossip_timer_armed {
            self.gossip_timer_armed = true;
            let delay = self.jitter(GOSSIP_DELAY_MS);
            ctx.set_timer(delay, TICK_GOSSIP);
        }
    }

    fn flush_one_gossip(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        if let Some((payload, kind)) = self.pending_gossip.pop_front() {
            ctx.send_broadcast(kind, self.routing.parent(), payload);
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
    /// sampled value: a lookup in the disseminated indices, else in the
    /// static HASH / BASE index. With no index naming the value, or none
    /// complete yet, the node stores it locally (Section 5.3).
    fn lookup_owner(&self, value: scoop_types::Value) -> (NodeId, StorageIndexId) {
        let static_hit = || {
            let index = self.shared.static_index.as_ref()?;
            Some((index.lookup(value)?, index.id()))
        };
        self.scoop
            .as_ref()
            .and_then(|scoop| scoop.dissemination.lookup(value))
            .or_else(static_hit)
            .unwrap_or((self.id, self.newest_index_id()))
    }

    fn handle_sample(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        let now = ctx.now();
        let value = self.shared.source.sample(self.id, now);
        let reading = Reading::new(self.id, self.shared.cfg.workload.attribute, value, now);
        self.metrics.sampled += 1;
        if let Some(scoop) = self.scoop.as_mut() {
            scoop.recent.push(value);
        }

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

        // Batching readings into one packet is a Scoop optimization
        // (Section 5.4), so the batch lives in the SCOOP role; the BASE and
        // HASH comparison policies ship each reading individually, as the
        // paper's cost analysis assumes.
        let Some(scoop) = self.scoop.as_mut() else {
            let msg = DataMessage {
                readings: vec![reading],
                owner,
                sid,
            };
            self.dispatch_data(ctx, msg, None);
            return;
        };
        let batch_size = self.shared.cfg.policy.scoop.batch_size;
        for msg in scoop.batch_reading(reading, (owner, sid), batch_size) {
            self.dispatch_data(ctx, msg, None);
        }
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
        if incoming.is_some_and(|meta| meta.hops >= MAX_FORWARD_HOPS) {
            // Forwarding budget exhausted (almost certainly a transient
            // routing loop): keep the data here rather than losing it.
            return self.store_message(msg, self.kept_reason());
        }
        let action = {
            let view = LocalNodeView {
                id: self.id,
                index: self.current_index.as_deref(),
                routing: &self.routing,
                neighbor_shortcut: self.shared.cfg.policy.scoop.neighbor_shortcut,
            };
            route_data(&view, msg)
        };
        match action {
            DataRoutingAction::StoreLocal(m) => {
                let reason = if m.owner == self.id {
                    StoreReason::Owner
                } else {
                    self.kept_reason()
                };
                self.store_message(m, reason);
            }
            DataRoutingAction::StrandedStoreLocal(m) => {
                self.store_message(m, StoreReason::LocalDefault);
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

    /// Why data this node keeps for another owner is stored here: the
    /// basestation's fallback (rule 4), or a sensor's local default.
    fn kept_reason(&self) -> StoreReason {
        if self.id.is_basestation() {
            StoreReason::BaseFallback
        } else {
            StoreReason::LocalDefault
        }
    }

    fn store_message(&mut self, msg: DataMessage, reason: StoreReason) {
        for r in msg.readings {
            self.store_reading(r, msg.sid, reason);
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
    // Packet handling
    // ------------------------------------------------------------------

    fn handle_payload(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        packet: &Packet<SharedPayload>,
    ) {
        let meta = packet.meta;
        match &*packet.payload {
            ScoopPayload::Beacon(beacon) => {
                self.routing
                    .on_beacon_at(meta.link_src, ctx.sender_slot(), beacon, ctx.now());
            }
            ScoopPayload::Summary(summary) => {
                if let Some(base) = self.sink.as_mut() {
                    // The one place a summary needs ownership; everything on
                    // the way here shared the arrival allocation.
                    base.stats.record_summary(summary.clone());
                }
                // Non-sinks forward up the tree, and so does a promoted sink.
                if self.sink.is_none() || self.sink_forwards_summary() {
                    // Remember the child branch the origin lives under (only
                    // when it really arrived from below — never learn
                    // "descendants" through our parent).
                    self.note_upward_route(&meta, ctx.now());
                    if meta.hops < MAX_FORWARD_HOPS {
                        if let Some(parent) = self.routing.parent() {
                            ctx.forward(packet.clone(), scoop_net::LinkDst::Unicast(parent));
                        }
                    }
                }
            }
            ScoopPayload::Mapping(chunk) => self.on_mapping_chunk(ctx, chunk, &packet.payload),
            ScoopPayload::Data(data) => {
                self.note_upward_route(&meta, ctx.now());
                // Routing may rewrite owner/sid before storing or forwarding,
                // so the destination clones the message body once here.
                self.dispatch_data(ctx, data.clone(), Some(&meta));
            }
            ScoopPayload::Query(query) => self.handle_query(ctx, query, &packet.payload),
            ScoopPayload::Reply(reply) => self.handle_reply(ctx, reply, packet),
            ScoopPayload::SinkAlive(alive) => self.handle_sink_alive(ctx, alive, &packet.payload),
        }
    }

    fn handle_reply(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        reply: &ReplyMessage,
        packet: &Packet<SharedPayload>,
    ) {
        if self.sink_takes_reply(reply) || self.merge_held(reply) {
            return;
        }
        self.note_upward_route(&packet.meta, ctx.now());
        if packet.meta.hops < MAX_FORWARD_HOPS {
            if let Some(hop) = self.reply_hop(reply.query_id) {
                ctx.forward(packet.clone(), scoop_net::LinkDst::Unicast(hop));
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

    /// Whether re-broadcasting `query` can reach one of its targets: a
    /// neighbour or a descendant of this node is one.
    fn reaches_a_target(&self, query: &QueryMessage) -> bool {
        query
            .targets
            .iter()
            .any(|t| self.routing.is_neighbor(t) || self.routing.is_descendant(t))
    }

    fn handle_query(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        query: &QueryMessage,
        payload: &SharedPayload,
    ) {
        if self.sink.is_some() {
            return self.relay_peer_query(ctx, query, payload);
        }
        if !self.seen_queries.insert(query.query_id.into()) {
            return;
        }

        // Modified Trickle: only re-broadcast if doing so can still help —
        // our own bit is set, or a neighbor / descendant is targeted.
        if query.targets.contains(self.id) || self.reaches_a_target(query) {
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
                    PartialAggregate::for_spec(&agg_spec, self.shared.cfg.workload.value_domain);
                for r in &readings {
                    partial.observe(r.value);
                }
                return self.answer_aggregate(ctx, query.query_id, partial);
            }

            let reply = ReplyMessage {
                query_id: query.query_id,
                node: self.id,
                readings,
                aggregate: None,
            };
            self.metrics.replies_sent += 1;
            // Aim the reply at the issuing sink from the first hop.
            if let Some(hop) = self.reply_hop(query.query_id) {
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

#[derive(Clone, Copy, PartialEq, Eq)]
enum StoreReason {
    Owner,
    BaseFallback,
    LocalDefault,
}

impl NodeLogic for SimNode {
    type Payload = SharedPayload;

    fn on_senders(&mut self, senders: &[NodeId]) {
        self.routing.announce_senders(senders);
    }

    fn on_init(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        // Beacons and maintenance run on every node from the very start, so
        // the tree forms during the warmup window.
        let beacon_offset = self.jitter(BEACON_INTERVAL.as_millis());
        ctx.set_timer(beacon_offset, TICK_BEACON);
        ctx.set_timer(MAINTENANCE_INTERVAL, TICK_MAINTENANCE);

        let warmup = self.shared.cfg.warmup;
        if !self.is_sink() {
            let sample_offset = self.jitter(self.shared.cfg.workload.sample_interval.as_millis());
            ctx.set_timer(warmup + sample_offset, TICK_SAMPLE);
            if self.policy() == StoragePolicy::Scoop {
                let summary_offset =
                    self.jitter(self.shared.cfg.policy.scoop.summary_interval.as_millis());
                ctx.set_timer(warmup + summary_offset, TICK_SUMMARY);
            }
        } else {
            if self.policy() == StoragePolicy::Scoop {
                ctx.set_timer(
                    warmup + self.shared.cfg.policy.scoop.remap_interval,
                    TICK_REMAP,
                );
            }
            if self.policy() != StoragePolicy::Base {
                // Stagger the first query half an interval after sampling
                // starts so there is something to query.
                let offset = self.shared.cfg.workload.queries.query_interval.div(2);
                ctx.set_timer(
                    warmup + self.shared.cfg.workload.queries.query_interval + offset,
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
        self.on_packet_ref(ctx, &packet, addressed);
    }

    fn on_packet_ref(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        packet: &Packet<SharedPayload>,
        addressed: bool,
    ) {
        // The engine announced every sender this radio can hear, so the
        // delivery's slot always names its sender's link record.
        debug_assert!(
            self.routing
                .estimator()
                .names_at(ctx.sender_slot(), packet.meta.link_src),
            "node {} has no link record of {} at slot {}",
            self.id,
            packet.meta.link_src,
            ctx.sender_slot()
        );
        self.routing
            .observe_packet_at(&packet.meta, ctx.sender_slot(), ctx.now());
        if let Some(base) = self.sink.as_mut() {
            if let Some(parent) = packet.meta.origin_parent {
                base.stats.note_parent(packet.meta.origin, parent);
            }
        }
        if let ScoopPayload::Summary(summary) = &*packet.payload {
            // A child's own summary names the newest index it holds; a
            // forwarded copy says nothing of the sender, and a snooped one
            // may come over a link that does not carry a reply.
            if addressed && packet.meta.link_src == summary.node {
                self.on_child_summary(ctx, summary.newest_complete_index);
            }
        }
        if !addressed {
            // A snooped unicast feeds link estimation (above), and a
            // federation sink's statistics.
            return self.on_overheard(&packet.payload);
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
                ctx.set_timer(self.shared.cfg.workload.sample_interval, TICK_SAMPLE);
            }
            TICK_SUMMARY => {
                self.send_summary(ctx);
                ctx.set_timer(self.shared.cfg.policy.scoop.summary_interval, TICK_SUMMARY);
            }
            TICK_REMAP => {
                self.remap(ctx);
                ctx.set_timer(self.shared.cfg.policy.scoop.remap_interval, TICK_REMAP);
            }
            TICK_QUERY => {
                self.issue_query(ctx);
                ctx.set_timer(self.shared.cfg.workload.queries.query_interval, TICK_QUERY);
            }
            TICK_GOSSIP => {
                self.flush_one_gossip(ctx);
            }
            TICK_AGG => self.flush_aggregate(ctx),
            TICK_SERVE => {
                // Injected by the serving tier; the node only acknowledges it
                // in its counters. The timer is one-shot and never re-armed
                // here, so plain simulation runs are untouched.
                self.metrics.serve_ticks += 1;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::federation::RANK_STRIDE;
    use super::*;
    use scoop_net::{Engine, EngineConfig, LinkModel, Topology};
    use scoop_types::{DataSourceKind, Value};

    /// Builds an engine over a small fully-connected grid with perfect links
    /// so protocol behaviour can be checked without loss-induced noise.
    fn perfect_engine(cfg: &ScenarioSpec, side: usize) -> Engine<SimNode> {
        let topo = Topology::grid(side, 10.0).expect("grid");
        let links = LinkModel::perfect(&topo);
        engine_over(cfg, topo, links)
    }

    fn engine_over(cfg: &ScenarioSpec, topo: Topology, links: LinkModel) -> Engine<SimNode> {
        let shared = Arc::new(NodeShared::new(cfg.clone()));
        let nodes: Vec<SimNode> = topo
            .nodes()
            .map(|id| SimNode::with_shared(id, &shared))
            .collect();
        Engine::new(topo, links, nodes, EngineConfig { seed: cfg.seed }).expect("engine")
    }

    fn tiny_cfg(policy: StoragePolicy, source: DataSourceKind) -> ScenarioSpec {
        let mut cfg = ScenarioSpec::small_test();
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
        let stats = &base.sink.as_ref().expect("basestation state").stats;
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

    /// Every node of a fully connected network with perfect links hears
    /// every chunk and floods each once, and no summary stays stale long
    /// enough for a re-send: each node transmits as many mapping packets as
    /// node 0, and ends the run holding, at each rank, the index that rank's
    /// sink issued last.
    fn assert_mapping_floods_once(sinks: Vec<NodeId>) {
        let mut cfg = tiny_cfg(StoragePolicy::Scoop, DataSourceKind::Gaussian);
        cfg.policy.basestations = sinks;
        let mut engine = perfect_engine(&cfg, 3);
        engine.run_until(SimTime::ZERO + cfg.duration);
        let sent = |id: NodeId| engine.stats().node(id).tx.mapping;
        assert!(sent(NodeId::BASESTATION) > 0, "no mapping chunk was sent");
        for (id, _) in engine.iter_nodes() {
            assert_eq!(sent(id), sent(NodeId::BASESTATION), "node {id}");
        }
        let held = |id: NodeId, rank: usize| {
            let scoop = engine.node(id).scoop.as_ref().expect("SCOOP node");
            scoop.dissemination.rank_index(rank).map(|index| index.id())
        };
        let sink_set = engine.node(NodeId::BASESTATION).shared.sink_set.clone();
        for (rank, &sink) in sink_set.iter().enumerate() {
            let issued = held(sink, rank);
            assert!(issued.is_some(), "sink {sink} issued no index");
            for (id, _) in engine.iter_nodes() {
                assert_eq!(held(id, rank), issued, "node {id}, rank {rank}");
            }
        }
    }

    #[test]
    fn mapping_chunks_flood_once_from_every_node() {
        assert_mapping_floods_once(Vec::new());
    }

    #[test]
    fn both_sinks_chunk_streams_flood_once_from_every_node() {
        assert_mapping_floods_once(vec![NodeId(0), NodeId(5)]);
    }

    /// Node 8 is heard perfectly but hears only node 7, and that a third of
    /// the time, so node 7 is its parent and node 8 lags the sink's index
    /// for much of the run. With one-chunk indices, each summary round costs
    /// node 7 at most one re-sent chunk, and the neighbours that only
    /// overhear node 8 send nothing beyond the flood.
    #[test]
    fn a_node_behind_a_lossy_one_way_link_costs_its_parent_one_chunk_per_summary() {
        let mut cfg = tiny_cfg(StoragePolicy::Scoop, DataSourceKind::Gaussian);
        cfg.policy.scoop.mapping_entries_per_packet = 1_000;
        let topo = Topology::grid(3, 10.0).expect("grid");
        let mut links = LinkModel::perfect(&topo);
        let (lagging, parent) = (NodeId(8), NodeId(7));
        for from in topo.nodes() {
            links.set_link(from, lagging, if from == parent { 0.3 } else { 0.0 });
        }
        let mut engine = engine_over(&cfg, topo, links);
        engine.run_until(SimTime::ZERO + cfg.duration);
        let sent = |id: NodeId| engine.stats().node(id).tx.mapping;
        // Every other node hears every chunk and floods it once.
        let flooded = sent(NodeId::BASESTATION);
        for (id, _) in engine.iter_nodes() {
            if id != lagging && id != parent {
                assert_eq!(sent(id), flooded, "node {id} re-sent");
            }
        }
        let resent = sent(parent) - flooded;
        let rounds = cfg.duration.as_millis() / cfg.policy.scoop.summary_interval.as_millis() + 1;
        assert!(resent > 0, "node 8 was never repaired");
        assert!(
            resent <= rounds,
            "{resent} chunks re-sent for {rounds} summary rounds of node 8"
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
        let held = |n: &SimNode| {
            let dissemination = &n.scoop.as_ref().expect("SCOOP node").dissemination;
            [0, 1].map(|rank| dissemination.rank_index(rank).cloned())
        };
        let (rank0, rank1) = (held(root)[0].clone(), held(root)[1].clone());
        let rank0 = rank0.expect("rank-0 index");
        let rank1 = rank1.expect("rank-1 index");
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
                n.sink.is_none() && !id.is_basestation() && held(n).iter().flatten().count() == 2
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
                    held(n).iter().flatten().any(|i| Arc::ptr_eq(i, current)),
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
