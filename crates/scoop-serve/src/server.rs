//! The serving loop: one simulated network behind a batched query front end.
//!
//! A [`ServeServer`] owns an `Engine<SimNode>` built from a [`ScenarioSpec`]
//! and advances it in fixed admission ticks. Each tick:
//!
//! 1. an ordinary `TimerFire` with [`TICK_SERVE`] is injected into the
//!    basestation through the engine's event queue — the admitted batch is
//!    part of the deterministic event stream, so two servers admitting the
//!    same batches at the same ticks run identically;
//! 2. the engine runs up to the tick boundary;
//! 3. every node's data buffer is drained incrementally (cursor per node, in
//!    node-id order) into the server's [`AnswerCore`] — and, when persistence
//!    is configured, through the [`PersistenceBackend`] seam into a
//!    `scoop-store` segment log on disk;
//! 4. the bounded admission queue is drained, identical predicates are
//!    coalesced, and each unique predicate is answered once — from the cache
//!    when it can prove the bytes unchanged, by evaluation otherwise.
//!
//! Queries never ride the simulated radio: Scoop's in-network index is about
//! where *readings* live; the serving tier answers from the basestation-side
//! consolidated view, which is exactly what the paper's basestation could
//! build from the drained data it already sees.

use crate::admission::AdmissionQueue;
use crate::core::{AnswerCore, CoreStats};
use crate::transport::{ClientId, Transport};
use scoop_net::Engine;
use scoop_sim::{build_engine, SimNode, TICK_SERVE};
use scoop_store::{DiskBackend, PersistenceBackend, Store, StoreOptions};
use scoop_types::append_overloaded_frame;
use scoop_types::{
    append_rows_frame, DurableRecord, NodeId, Overloaded, QueryPredicate, Reading, ScenarioSpec,
    ScoopError, ServeRequest, SimDuration, SimTime,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Configuration of one serving process.
pub struct ServeOptions {
    /// The simulated network to own.
    pub spec: ScenarioSpec,
    /// Simulated time between admission ticks.
    pub tick: SimDuration,
    /// Admission queue bound: requests beyond this are rejected `Overloaded`.
    pub queue_capacity: usize,
    /// Answer-cache entries; 0 disables the cache.
    pub cache_capacity: usize,
    /// When set, drained readings also flow through the persistence seam
    /// into a `scoop-store` segment log at this directory, and any records
    /// already on disk are answered from its sealed segments (serving across
    /// restarts).
    pub persist_dir: Option<PathBuf>,
}

impl ServeOptions {
    /// Defaults: 1-second ticks, a 1024-deep admission queue, a 4096-entry
    /// cache, no persistence.
    pub fn new(spec: ScenarioSpec) -> Self {
        ServeOptions {
            spec,
            tick: SimDuration::from_secs(1),
            queue_capacity: 1024,
            cache_capacity: 4096,
            persist_dir: None,
        }
    }
}

/// Counters a serving process accumulates (see [`CoreStats`] for the
/// answering-side half).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Admission ticks run.
    pub ticks: u64,
    /// Requests answered with rows.
    pub answered: u64,
    /// Requests rejected `Overloaded` at submission.
    pub overloaded: u64,
    /// Unique predicates evaluated after per-tick coalescing.
    pub coalesced_groups: u64,
    /// Readings drained out of node buffers into the index.
    pub readings_drained: u64,
    /// Stored records the restart made answerable: the record count of the
    /// segments sealed when the log was opened, summed from their footers.
    /// None of them is read, let alone loaded, until a predicate asks.
    pub readings_preloaded: u64,
    /// Readings forwarded to the persistence seam.
    pub records_persisted: u64,
}

/// A long-running server owning one simulated network.
pub struct ServeServer {
    engine: Engine<SimNode>,
    core: AnswerCore,
    admission: AdmissionQueue,
    /// Per-node data-buffer cursors, indexed by node id.
    cursors: Vec<u64>,
    persistence: Option<Box<dyn PersistenceBackend + Send>>,
    /// Set when the persistence seam failed and the server degraded to
    /// memory-only serving; the seam itself is dropped at that point.
    persist_error: Option<ScoopError>,
    tick: SimDuration,
    stats: ServeStats,
    // Reused per-tick scratch.
    drain_readings: Vec<Reading>,
    drain_records: Vec<DurableRecord>,
    batch: Vec<(ClientId, ServeRequest)>,
    /// This tick's coalesced predicates and their payloads.
    groups: HashMap<QueryPredicate, Arc<Vec<u8>>>,
}

impl ServeServer {
    /// Builds the simulated network and (optionally) opens the durable
    /// store. Opening reads each segment's footer and index region and no
    /// data block: what is already on disk is answered in place.
    pub fn new(options: ServeOptions) -> Result<Self, ScoopError> {
        // A zero tick never advances simulated time; a zero queue admits
        // nothing.
        if options.tick.is_zero() {
            return Err(ScoopError::InvalidConfig(
                "serve tick must be positive".into(),
            ));
        }
        if options.queue_capacity == 0 {
            return Err(ScoopError::InvalidConfig(
                "serve queue_capacity must be at least 1".into(),
            ));
        }
        let spec = options.spec;
        spec.validate()?;
        let domain = spec.workload.value_domain;
        let engine = build_engine(&spec)?;
        let total_nodes = engine.topology().len();

        let mut core = AnswerCore::new(domain, options.cache_capacity);
        let mut stats = ServeStats::default();
        let persistence: Option<Box<dyn PersistenceBackend + Send>> = match options.persist_dir {
            Some(dir) => {
                let store = Store::open(&dir, StoreOptions::default())?;
                // Taken before the store starts journaling this process's
                // drained readings, which the live index already serves: no
                // record is ever answered from both.
                let history = store.snapshot();
                stats.readings_preloaded = history.records();
                core = core.with_history(history);
                Some(Box::new(DiskBackend::from_store(store)))
            }
            None => None,
        };

        Ok(ServeServer {
            engine,
            core,
            admission: AdmissionQueue::new(options.queue_capacity),
            cursors: vec![0; total_nodes],
            persistence,
            persist_error: None,
            tick: options.tick,
            stats,
            drain_readings: Vec::new(),
            drain_records: Vec::new(),
            batch: Vec::new(),
            groups: HashMap::new(),
        })
    }

    /// Builds the simulated network over an explicit persistence backend
    /// (no stored history). This is how fault models are wired into the
    /// seam: wrap any backend in a [`scoop_store::FailpointBackend`] and
    /// hand it here.
    pub fn with_backend<B: PersistenceBackend + Send + 'static>(
        options: ServeOptions,
        backend: B,
    ) -> Result<Self, ScoopError> {
        let mut options = options;
        options.persist_dir = None;
        let mut server = ServeServer::new(options)?;
        server.persistence = Some(Box::new(backend));
        Ok(server)
    }

    /// Current simulated time of the owned network.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The admission queue's capacity.
    pub fn queue_capacity(&self) -> usize {
        self.admission.capacity()
    }

    /// Requests currently waiting for the next tick.
    pub fn queued(&self) -> usize {
        self.admission.len()
    }

    /// Serving counters so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Answering-side counters (cache hits/misses, rows, index size).
    pub fn core_stats(&self) -> CoreStats {
        self.core.stats()
    }

    /// True while the persistence seam is attached and healthy.
    pub fn persistence_active(&self) -> bool {
        self.persistence.is_some()
    }

    /// The typed error that degraded persistence, if it has failed. Once
    /// set, the seam is detached and the server keeps serving from memory;
    /// ticks and syncs never propagate the failure.
    pub fn persistence_error(&self) -> Option<&ScoopError> {
        self.persist_error.as_ref()
    }

    /// The owned engine (read-only, for inspection).
    pub fn engine(&self) -> &Engine<SimNode> {
        &self.engine
    }

    /// Submits a request for the next tick, or rejects it `Overloaded` when
    /// the bounded queue is full.
    pub fn submit(&mut self, client: ClientId, req: ServeRequest) -> Result<(), Overloaded> {
        let result = self.admission.submit(client, req);
        if result.is_err() {
            self.stats.overloaded += 1;
        }
        result
    }

    /// Runs one admission tick (see the module docs for the four phases) and
    /// appends `(client, response frame)` pairs to `out` — one frame per
    /// admitted request, in admission order. A stored block that fails its
    /// checks ends the tick with the typed error at the first predicate that
    /// reads it; that predicate gets no frame rather than a short one.
    pub fn tick(&mut self, out: &mut Vec<(ClientId, Vec<u8>)>) -> Result<(), ScoopError> {
        self.stats.ticks += 1;
        let target = self.engine.now() + self.tick;
        // Phase 1+2: the admitted batch becomes an ordinary event at the
        // tick boundary, then the network lives its life up to it.
        self.engine
            .inject_timer(NodeId::BASESTATION, target, TICK_SERVE);
        self.engine.run_until(target);

        // Phase 3: drain new readings per node, in node-id order.
        self.drain_readings.clear();
        for i in 0..self.cursors.len() {
            let node = NodeId(i as u16);
            let before = self.drain_readings.len();
            let cursor = self.cursors[i];
            self.cursors[i] = self
                .engine
                .node(node)
                .data_buffer()
                .read_new_since(cursor, &mut self.drain_readings);
            // A failing seam degrades the server to memory-only serving:
            // the typed error is kept, the seam is dropped, and the tick —
            // with every query in it — carries on.
            if let Some(mut persist) = self.persistence.take() {
                match persist.append_batch(&self.drain_readings[before..]) {
                    Ok(()) => self.persistence = Some(persist),
                    Err(e) => {
                        // Count whatever landed (a torn write's prefix is
                        // still durable) before letting the seam go.
                        self.stats.records_persisted = persist.records_persisted();
                        self.persist_error = Some(e);
                    }
                }
            }
        }
        self.stats.readings_drained += self.drain_readings.len() as u64;
        if let Some(persist) = &self.persistence {
            self.stats.records_persisted = persist.records_persisted();
        }
        self.drain_records.clear();
        self.drain_records
            .extend(self.drain_readings.iter().map(DurableRecord::from_reading));
        self.core.ingest(&self.drain_records);

        // Phase 4: drain admissions, coalesce identical predicates, answer
        // each group once, fan the payload out under each request id.
        self.batch.clear();
        self.admission.drain_into(&mut self.batch);
        self.groups.clear();
        for (client, req) in self.batch.drain(..) {
            let pred = req.predicate();
            let payload = match self.groups.get(&pred) {
                Some(payload) => Arc::clone(payload),
                None => {
                    let payload = self.core.answer_payload(&pred)?;
                    self.stats.coalesced_groups += 1;
                    self.groups.insert(pred, Arc::clone(&payload));
                    payload
                }
            };
            let mut frame = Vec::with_capacity(9 + payload.len());
            append_rows_frame(req.id, &payload, &mut frame);
            out.push((client, frame));
            self.stats.answered += 1;
        }
        Ok(())
    }

    /// Commits everything appended to the persistence seam so far. A failing
    /// commit point degrades the server exactly like a failing append: the
    /// typed error is retained under [`persistence_error`] and serving
    /// continues from memory — `sync` itself never fails the caller.
    ///
    /// [`persistence_error`]: Self::persistence_error
    pub fn sync(&mut self) -> Result<(), ScoopError> {
        if let Some(mut persist) = self.persistence.take() {
            match persist.sync() {
                Ok(()) => self.persistence = Some(persist),
                Err(e) => self.persist_error = Some(e),
            }
        }
        Ok(())
    }
}

/// One full serve cycle over a [`Transport`]: poll arrivals, submit them
/// (rejections are answered immediately with an `Overloaded` frame), run one
/// tick, deliver every response frame. `reqs` and `frames` are caller-owned
/// scratch reused across calls.
pub fn pump_once<T: Transport>(
    server: &mut ServeServer,
    transport: &mut T,
    reqs: &mut Vec<(ClientId, ServeRequest)>,
    frames: &mut Vec<(ClientId, Vec<u8>)>,
) -> Result<(), ScoopError> {
    reqs.clear();
    transport.poll(reqs)?;
    let mut rejection = Vec::new();
    for (client, req) in reqs.drain(..) {
        if let Err(over) = server.submit(client, req) {
            rejection.clear();
            append_overloaded_frame(&over, &mut rejection);
            transport.deliver(client, &rejection)?;
        }
    }
    frames.clear();
    server.tick(frames)?;
    for (client, frame) in frames.drain(..) {
        transport.deliver(client, &frame)?;
    }
    Ok(())
}
