//! The hermetic serve smoke CI runs on every push.
//!
//! A fixed seed, a fixed query mix (including one deliberate over-budget
//! burst), the in-memory transport, and the full `pump_once` serve cycle.
//! The run happens twice — cache off, then cache on — and refuses to report
//! unless both produced byte-identical response streams. Everything in the
//! resulting [`SmokeReport`] is a pure function of this module's constants,
//! so the report is committed as a golden file and compared verbatim in CI.

use crate::server::{pump_once, ServeOptions, ServeServer};
use crate::transport::{InMemoryClient, InMemoryHub};
use scoop_types::{ScenarioSpec, ScoopError, ServeRequest, ServeResponse, SimDuration, SimTime};
use scoop_workload::QueryGenerator;
use serde::{Deserialize, Serialize};

/// Running FNV-1a 64 over frame bytes (same idiom as scoop-lab's config
/// hashes, so digests render recognizably as `fnv1a:<16 hex>`).
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn render(&self) -> String {
        format!("fnv1a:{:016x}", self.0)
    }
}

/// Snaps a timestamp down to a multiple of `quantum`, so identical
/// predicates recur across ticks and the cache genuinely engages.
fn quantize(t: SimTime, quantum: SimDuration) -> SimTime {
    let q = quantum.as_millis().max(1);
    SimTime::from_millis((t.as_millis() / q) * q)
}

/// Simulated time per tick.
const TICK: SimDuration = SimDuration::from_secs(30);
/// Ticks to run.
const TICKS: u64 = 20;
/// Admission queue bound.
const QUEUE_CAPACITY: usize = 64;
/// Cache entries in the cached pass.
const CACHE_CAPACITY: usize = 128;
/// Queries submitted per tick (across both clients).
const QUERIES_PER_TICK: usize = 40;
/// The tick that submits a deliberate over-budget burst.
const BURST_TICK: u64 = 12;
/// Extra queries added at the burst tick (sized to overflow the queue).
const BURST_EXTRA: usize = 80;
/// Query stream seed.
const SEED: u64 = 7;
/// Query windows snap to multiples of this.
const WINDOW_QUANTUM: SimDuration = SimDuration::from_secs(60);

/// The smoke run's deterministic outcome — the golden file's exact contents.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SmokeReport {
    /// FNV-1a digest over every response frame, identical in both passes.
    pub digest: String,
    /// Queries submitted.
    pub queries: u64,
    /// Queries answered with rows.
    pub answered: u64,
    /// Queries rejected `Overloaded` (the burst guarantees some).
    pub overloaded: u64,
    /// Rows across all answers.
    pub rows_returned: u64,
    /// Readings drained from node buffers into the index.
    pub readings_drained: u64,
    /// Ticks run.
    pub ticks: u64,
    /// Unique predicates evaluated in the cached pass.
    pub coalesced_groups: u64,
    /// Cache hits in the cached pass.
    pub cache_hits: u64,
    /// Cache misses in the cached pass.
    pub cache_misses: u64,
    /// Cache entries invalidated in the cached pass.
    pub cache_invalidated: u64,
}

/// One pass over the scaled-down test scenario with `cache_capacity` entries.
fn run_mode(cache_capacity: usize) -> Result<SmokeReport, ScoopError> {
    let spec = ScenarioSpec::small_test();
    let mut serve = ServeOptions::new(spec.clone());
    serve.tick = TICK;
    serve.queue_capacity = QUEUE_CAPACITY;
    serve.cache_capacity = cache_capacity;
    let mut server = ServeServer::new(serve)?;

    let hub = InMemoryHub::new();
    let clients: Vec<InMemoryClient> = (0..2).map(|_| hub.client()).collect();
    let mut generators: Vec<QueryGenerator> = (0..clients.len())
        .map(|i| QueryGenerator::from_spec(&spec.workload, SEED + i as u64))
        .collect();
    let mut transport = hub.transport();

    let mut digest = Digest::new();
    let mut answered = 0u64;
    let mut overloaded = 0u64;
    let mut rows_returned = 0u64;
    let mut next_id = 0u64;
    let mut reqs = Vec::new();
    let mut frames = Vec::new();

    for tick in 0..TICKS {
        let mut n = QUERIES_PER_TICK;
        if tick == BURST_TICK {
            n += BURST_EXTRA;
        }
        for k in 0..n {
            let ci = k % clients.len();
            let q = generators[ci].next_query(server.now());
            clients[ci].submit(ServeRequest {
                id: next_id,
                values: q.values,
                time_lo: quantize(q.time_lo, WINDOW_QUANTUM),
                time_hi: quantize(q.time_hi, WINDOW_QUANTUM),
            });
            next_id += 1;
        }
        pump_once(&mut server, &mut transport, &mut reqs, &mut frames)?;
        // Per-client delivery order is FIFO and the client list is fixed, so
        // this fold order is deterministic.
        for client in &clients {
            for frame in client.drain_frames() {
                digest.fold(&frame);
                match ServeResponse::decode(&frame)? {
                    ServeResponse::Rows(r) => {
                        answered += 1;
                        rows_returned += r.rows.len() as u64;
                    }
                    ServeResponse::Overloaded(_) => overloaded += 1,
                }
            }
        }
    }

    let stats = *server.stats();
    let core = server.core_stats();
    Ok(SmokeReport {
        digest: digest.render(),
        queries: next_id,
        answered,
        overloaded,
        rows_returned,
        readings_drained: stats.readings_drained,
        ticks: TICKS,
        coalesced_groups: stats.coalesced_groups,
        cache_hits: core.cache_hits,
        cache_misses: core.cache_misses,
        cache_invalidated: core.cache_invalidated,
    })
}

/// Runs the smoke twice (cache off, cache on), proves the response streams
/// byte-identical, and reports the cached pass's counters.
pub fn run_smoke() -> Result<SmokeReport, ScoopError> {
    let uncached = run_mode(0)?;
    let cached = run_mode(CACHE_CAPACITY)?;
    if uncached.digest != cached.digest {
        return Err(ScoopError::Simulation(format!(
            "serve smoke: cached responses diverge from uncached \
             ({} vs {})",
            cached.digest, uncached.digest
        )));
    }
    debug_assert_eq!(cached.answered + cached.overloaded, cached.queries);
    Ok(cached)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_deterministic_and_exercises_backpressure() {
        let a = run_smoke().unwrap();
        let b = run_smoke().unwrap();
        assert_eq!(a, b, "two runs, identical reports");
        assert_eq!(a.answered + a.overloaded, a.queries);
        assert!(a.overloaded > 0, "the burst tick must overflow the queue");
        assert!(a.answered > 0);
        assert!(a.cache_hits > 0, "the quantized mix must hit the cache");
        assert!(a.readings_drained > 0, "the network kept producing data");
    }
}
