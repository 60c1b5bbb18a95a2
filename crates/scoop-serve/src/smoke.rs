//! The hermetic serve smoke CI runs on every push.
//!
//! A fixed seed, a fixed query mix (including one deliberate over-budget
//! burst), the in-memory transport, and the full `pump_once` serve cycle.
//! The run happens twice — cache off, then cache on — and refuses to report
//! unless both produced byte-identical response streams. Everything in the
//! resulting [`SmokeReport`] is a pure function of the options, so the report
//! is committed as a golden file and compared verbatim in CI.

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

/// Configuration of the smoke run (defaults are what CI uses).
#[derive(Clone)]
pub struct SmokeOptions {
    /// The simulated network (default: the scaled-down test scenario).
    pub spec: ScenarioSpec,
    /// Simulated time per tick.
    pub tick: SimDuration,
    /// Ticks to run.
    pub ticks: u64,
    /// Admission queue bound.
    pub queue_capacity: usize,
    /// Cache entries in the cached pass.
    pub cache_capacity: usize,
    /// Queries submitted per tick (across both clients).
    pub queries_per_tick: usize,
    /// The tick that submits a deliberate over-budget burst.
    pub burst_tick: u64,
    /// Extra queries added at the burst tick (sized to overflow the queue).
    pub burst_extra: usize,
    /// Query stream seed.
    pub seed: u64,
    /// Query windows snap to multiples of this.
    pub window_quantum: SimDuration,
}

impl Default for SmokeOptions {
    fn default() -> Self {
        SmokeOptions {
            spec: ScenarioSpec::small_test(),
            tick: SimDuration::from_secs(30),
            ticks: 20,
            queue_capacity: 64,
            cache_capacity: 128,
            queries_per_tick: 40,
            burst_tick: 12,
            burst_extra: 80,
            seed: 7,
            window_quantum: SimDuration::from_secs(60),
        }
    }
}

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

struct ModeOutcome {
    digest: String,
    answered: u64,
    overloaded: u64,
    rows_returned: u64,
    readings_drained: u64,
    coalesced_groups: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidated: u64,
}

fn run_mode(options: &SmokeOptions, cache_capacity: usize) -> Result<ModeOutcome, ScoopError> {
    let mut serve = ServeOptions::new(options.spec.clone());
    serve.tick = options.tick;
    serve.queue_capacity = options.queue_capacity;
    serve.cache_capacity = cache_capacity;
    let mut server = ServeServer::new(serve)?;

    let hub = InMemoryHub::new();
    let clients: Vec<InMemoryClient> = (0..2).map(|_| hub.client()).collect();
    let mut generators: Vec<QueryGenerator> = (0..clients.len())
        .map(|i| QueryGenerator::from_spec(&options.spec.workload, options.seed + i as u64))
        .collect();
    let mut transport = hub.transport();

    let mut digest = Digest::new();
    let mut answered = 0u64;
    let mut overloaded = 0u64;
    let mut rows_returned = 0u64;
    let mut next_id = 0u64;
    let mut reqs = Vec::new();
    let mut frames = Vec::new();

    for tick in 0..options.ticks {
        let mut n = options.queries_per_tick;
        if tick == options.burst_tick {
            n += options.burst_extra;
        }
        for k in 0..n {
            let ci = k % clients.len();
            let q = generators[ci].next_query(server.now());
            clients[ci].submit(ServeRequest {
                id: next_id,
                values: q.values,
                time_lo: quantize(q.time_lo, options.window_quantum),
                time_hi: quantize(q.time_hi, options.window_quantum),
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
    Ok(ModeOutcome {
        digest: digest.render(),
        answered,
        overloaded,
        rows_returned,
        readings_drained: stats.readings_drained,
        coalesced_groups: stats.coalesced_groups,
        cache_hits: core.cache_hits,
        cache_misses: core.cache_misses,
        cache_invalidated: core.cache_invalidated,
    })
}

/// Runs the smoke twice (cache off, cache on), proves the response streams
/// byte-identical, and reports the cached pass's counters.
pub fn run_smoke(options: &SmokeOptions) -> Result<SmokeReport, ScoopError> {
    let uncached = run_mode(options, 0)?;
    let cached = run_mode(options, options.cache_capacity)?;
    if uncached.digest != cached.digest {
        return Err(ScoopError::Simulation(format!(
            "serve smoke: cached responses diverge from uncached \
             ({} vs {})",
            cached.digest, uncached.digest
        )));
    }
    let queries = options.ticks * options.queries_per_tick as u64 + options.burst_extra as u64;
    debug_assert_eq!(cached.answered + cached.overloaded, queries);
    Ok(SmokeReport {
        digest: cached.digest,
        queries,
        answered: cached.answered,
        overloaded: cached.overloaded,
        rows_returned: cached.rows_returned,
        readings_drained: cached.readings_drained,
        ticks: options.ticks,
        coalesced_groups: cached.coalesced_groups,
        cache_hits: cached.cache_hits,
        cache_misses: cached.cache_misses,
        cache_invalidated: cached.cache_invalidated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_deterministic_and_exercises_backpressure() {
        let options = SmokeOptions::default();
        let a = run_smoke(&options).unwrap();
        let b = run_smoke(&options).unwrap();
        assert_eq!(a, b, "two runs, identical reports");
        assert_eq!(a.answered + a.overloaded, a.queries);
        assert!(a.overloaded > 0, "the burst tick must overflow the queue");
        assert!(a.answered > 0);
        assert!(a.cache_hits > 0, "the quantized mix must hit the cache");
        assert!(a.readings_drained > 0, "the network kept producing data");
    }
}
