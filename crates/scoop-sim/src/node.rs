//! The per-node protocol state machine.
//!
//! A single type, [`SimNode`], implements every storage policy the paper
//! compares (SCOOP, LOCAL, BASE, HASH) plus the basestation role, as an
//! event-driven [`NodeLogic`] for the discrete-event engine. Its state is
//! split by how often it is touched and by who needs it:
//!
//! * the **hot core**, inline in every `SimNode` (at most 472 bytes) and
//!   touched by every event: tree routing (periodic beacons, link estimation
//!   by snooping, parent selection), the data buffer and source, the current
//!   storage index and the six routing rules applied to sampled and forwarded
//!   readings, the gossip queue, and the counters the harness reads;
//! * four boxed **roles**, each allocated at construction on exactly the
//!   nodes whose spec gives them the part, so a node that never plays a role
//!   pays one null pointer for it and no handler asks "is it there yet":
//!   - `sink` — sinks only: summary statistics, index construction and
//!     dissemination every remap interval, query issue and reply accounting,
//!     peer liveness in the federation;
//!   - `scoop_sensor` — SCOOP runs only: the recent-readings ring behind the
//!     periodic summaries, and index assembly from mapping chunks;
//!   - `federation` — multi-sink runs only: per-rank index assembly,
//!     sink-liveness gossip, routing replies to the issuing sink;
//!   - `aggregate` — sensors of LOCAL aggregate workloads only: partials held
//!     for in-network tree aggregation.
//!
//! Mapping chunks and queries are disseminated by polite gossip: a node
//! re-broadcasts an item it has not seen before once, after a short random
//! delay, unless it overhears enough copies from its neighbors first — the
//! same suppression idea Trickle uses, specialized to the single-round case.
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
mod federation;
mod id_set;
mod scoop_sensor;
mod sink;

pub use sink::QueryRecord;

use aggregate::Aggregation;
use federation::Federation;
use id_set::SparseIdSet;
use scoop_core::routing_rules::{route_data, DataRoutingAction, LocalNodeView};
use scoop_core::{DataMessage, QueryMessage, ReplyMessage, ScoopPayload, StorageIndex};
use scoop_net::{NodeCtx, NodeLogic, Packet, TimerToken};
use scoop_routing::{RoutingConfig, RoutingState};
use scoop_sensor::ScoopSensor;
use scoop_storage::DataBuffer;
use scoop_types::{
    ExperimentConfig, MessageKind, NodeId, PartialAggregate, Reading, SimDuration, SimTime,
    StorageIndexId, StoragePolicy,
};
use scoop_workload::DataSource;
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
/// A gossiped item is suppressed once this many copies have been overheard
/// while it waits in the queue.
const GOSSIP_SUPPRESSION: u32 = 2;
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
    cfg: Arc<ExperimentConfig>,
    routing: RoutingState,
    buffer: DataBuffer,
    source: Box<dyn DataSource>,
    rng: StdRng,
    /// Newest complete storage index this node holds. Behind an `Arc`: the
    /// static HASH / BASE index is one allocation shared by every node of
    /// the run (see [`NodeShared`]).
    current_index: Option<Arc<StorageIndex>>,
    /// Readings batched for the same owner, waiting to be sent.
    batch: Vec<Reading>,
    batch_dest: Option<(NodeId, StorageIndexId)>,
    /// Ids of the queries already processed (deduplication for gossip).
    seen_queries: SparseIdSet,
    /// Items waiting to be re-broadcast, with a count of copies overheard.
    /// The payloads are the shared `Arc`s the packets arrived with, so a
    /// re-broadcast reuses the original allocation.
    pending_gossip: VecDeque<(SharedPayload, MessageKind, u32)>,
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

/// The part of a node's initial state that is a pure function of the
/// experiment configuration, hence identical on every node of a run. Built
/// once per engine and handed to every [`SimNode::with_shared`] call, so the
/// per-run immutable state (notably the static index) exists once, not once
/// per node.
pub struct NodeShared {
    cfg: Arc<ExperimentConfig>,
    routing_cfg: RoutingConfig,
    /// The sorted sink set (`[node 0]` classically).
    sink_set: Arc<[NodeId]>,
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
            sink_set: cfg.policy.sink_ids().into(),
            static_index: static_index.map(Arc::new),
            cfg,
        }
    }
}

impl SimNode {
    /// Creates the state machine for node `id` over the run's shared state.
    ///
    /// Each node owns its `source` outright. Data sources are pure functions
    /// of `(node, now)` (see [`scoop_workload::sources`]), so per-node copies
    /// built from the same config behave exactly like one shared source —
    /// without the `Rc<RefCell<...>>` sharing that would pin a run to a
    /// single thread. This keeps `SimNode` (and the whole engine) `Send`.
    pub fn with_shared(id: NodeId, shared: &NodeShared, source: Box<dyn DataSource>) -> Self {
        let cfg = Arc::clone(&shared.cfg);
        let nsinks = shared.sink_set.len();
        let rank = shared.sink_set.iter().position(|&s| s == id);
        let tree_aggregation = cfg.policy.kind == StoragePolicy::Local
            && nsinks == 1
            && cfg.workload.kind.aggregate_spec().is_some();
        SimNode {
            id,
            routing: RoutingState::new(id, shared.routing_cfg),
            buffer: DataBuffer::new(DATA_BUFFER_CAP),
            source,
            rng: StdRng::seed_from_u64(cfg.seed ^ (0xa0de_0000 + id.0 as u64)),
            current_index: shared.static_index.clone(),
            batch: Vec::new(),
            batch_dest: None,
            seen_queries: SparseIdSet::default(),
            pending_gossip: VecDeque::new(),
            gossip_timer_armed: false,
            sink: rank.map(|rank| Box::new(SinkRole::new(&cfg, rank, nsinks))),
            scoop: (cfg.policy.kind == StoragePolicy::Scoop)
                .then(|| Box::new(ScoopSensor::new(&cfg))),
            federation: (nsinks > 1).then(|| Box::new(Federation::new(&shared.sink_set))),
            aggregation: (tree_aggregation && rank.is_none()).then(Box::default),
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

    /// Whether this node plays the sink (basestation) role: node 0
    /// classically, every promoted sink in multi-sink mode — those stop
    /// sampling and take on the basestation duties instead.
    pub fn is_sink(&self) -> bool {
        self.sink.is_some()
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
    /// sampled value: a lookup in the one current index, or in the
    /// federation's per-rank indices.
    fn lookup_owner(&self, value: scoop_types::Value) -> (NodeId, StorageIndexId) {
        if let Some(fed) = &self.federation {
            return fed.lookup_owner(self.id, value);
        }
        match &self.current_index {
            Some(idx) => (idx.lookup(value).unwrap_or(self.id), idx.id()),
            // No complete index yet: store locally (Section 5.3).
            None => (self.id, StorageIndexId::NONE),
        }
    }

    fn handle_sample(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        let now = ctx.now();
        let value = self.source.sample(self.id, now);
        let reading = Reading::new(self.id, self.cfg.workload.attribute, value, now);
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
                self.routing.on_beacon(meta.link_src, beacon, ctx.now());
            }
            ScoopPayload::Summary(summary) => {
                if let Some(base) = self.sink.as_mut() {
                    // The one place a summary needs ownership; everything on
                    // the way here shared the arrival allocation.
                    base.stats.record_summary(summary.clone());
                }
                // Non-sinks forward up the tree; a promoted sink does too
                // (after recording), because summaries climb towards node 0
                // and stopping them here would starve the sinks above us.
                // Node 0 itself is the root and keeps its classic behaviour.
                if self.sink.is_none() || !self.id.is_basestation() {
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
        // Classically an unknown reply at the sink is stale and dies here; in
        // multi-sink mode it belongs to a peer and must keep travelling.
        let mut consumed = match self.sink.as_mut() {
            Some(base) => base.record_reply(reply) || self.federation.is_none(),
            None => false,
        };
        // In-network tree aggregation: an intermediate still holding its own
        // partial for this query folds the child's partial in instead of
        // forwarding; the merged result climbs on this node's own flush.
        if !consumed {
            if let (Some(agg), Some(partial)) = (self.aggregation.as_mut(), &reply.aggregate) {
                consumed = agg.merge_held(reply.query_id, partial);
            }
        }
        if consumed {
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

    fn handle_query(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        query: &QueryMessage,
        payload: &SharedPayload,
    ) {
        if self.sink.is_some() {
            if self.federation.is_none() {
                return;
            }
            // A multi-sink sink relays peers' queries onward (they flood by
            // gossip, and a sink sits on good tree positions) but never
            // answers them: sinks hold only fallback data, which the issuing
            // sink already accounts for via its own planner.
            if !self.seen_queries.insert(query.query_id.into()) {
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
        if !self.seen_queries.insert(query.query_id.into()) {
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

    fn on_init(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        // Beacons and maintenance run on every node from the very start, so
        // the tree forms during the warmup window.
        let beacon_offset = self.jitter(BEACON_INTERVAL.as_millis());
        ctx.set_timer(beacon_offset, TICK_BEACON);
        ctx.set_timer(MAINTENANCE_INTERVAL, TICK_MAINTENANCE);

        let warmup = self.cfg.warmup;
        if !self.is_sink() {
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
        self.on_packet_ref(ctx, &packet, addressed);
    }

    fn on_packet_ref(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        packet: &Packet<SharedPayload>,
        addressed: bool,
    ) {
        self.routing.observe_packet(&packet.meta, ctx.now());
        if let Some(base) = self.sink.as_mut() {
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
            if self.federation.is_some() {
                if let ScoopPayload::Summary(summary) = &*packet.payload {
                    if let Some(base) = self.sink.as_mut() {
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
    use super::federation::{filter_entries_to_rank, RANK_STRIDE};
    use super::sink::MultiSinkState;
    use super::*;
    use scoop_net::{Engine, EngineConfig, LinkModel, Topology};
    use scoop_types::{DataSourceKind, Value, ValueRange};
    use scoop_workload::make_source;

    /// Builds an engine over a small fully-connected grid with perfect links
    /// so protocol behaviour can be checked without loss-induced noise.
    fn perfect_engine(cfg: &ExperimentConfig, side: usize) -> Engine<SimNode> {
        let topo = Topology::grid(side, 10.0).expect("grid");
        let links = LinkModel::perfect(&topo);
        let shared = NodeShared::new(Arc::new(cfg.clone()));
        let proto = make_source(
            cfg.workload.data_source,
            cfg.workload.value_domain,
            topo.len() - 1,
            cfg.seed,
        );
        let nodes: Vec<SimNode> = topo
            .nodes()
            .map(|id| SimNode::with_shared(id, &shared, proto.clone_box()))
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
        let held = |n: &SimNode| {
            n.federation
                .as_ref()
                .expect("federated")
                .sink_indices
                .clone()
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
