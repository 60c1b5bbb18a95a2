//! Seeded input generators. `--seed` reaches only this module: the program
//! under test receives the records and requests generated here, never the
//! seed itself (the simulator workloads pass it on as the scenario seed,
//! which is an input of theirs).

use scoop::types::{DurableRecord, NodeId, ServeRequest, SimDuration, SimTime, WorkloadSpec};
use scoop::workload::QueryGenerator;

/// SplitMix64: small, seedable, and independent of the repository's `rand`
/// shim, so a change to the shim cannot silently change benchmark inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream` (streams of one seed are
    /// independent).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Approximately standard normal (Irwin–Hall sum of 12 uniforms).
    pub fn normal(&mut self) -> f64 {
        (0..12).map(|_| self.unit()).sum::<f64>() - 6.0
    }
}

/// Sensors in the generated logs: the paper's testbed size.
pub const LOG_NODES: u64 = 62;
/// Sampling cadence of the generated logs, in milliseconds.
pub const LOG_CADENCE_MS: u64 = 15_000;
/// Each node samples this many milliseconds after its predecessor within a
/// round, so every record has a time of its own and the log is strictly
/// time-ordered.
const NODE_PHASE_MS: u64 = 100;
/// Inclusive value domain of the generated logs (the paper's light domain).
pub const VALUE_DOMAIN: (i32, i32) = (0, 149);

/// `n` records of a [`LOG_NODES`]-node network sampling every
/// [`LOG_CADENCE_MS`], the first round at `start_ms`. Values are Gaussian
/// around a per-node mean drawn from the seed. Strictly increasing in time,
/// hence already in the store's canonical order.
pub fn records(seed: u64, n: usize, start_ms: u64) -> Vec<DurableRecord> {
    let mut rng = Rng::new(seed, 1);
    let width = (VALUE_DOMAIN.1 - VALUE_DOMAIN.0) as f64;
    let means: Vec<f64> = (0..LOG_NODES)
        .map(|_| VALUE_DOMAIN.0 as f64 + rng.unit() * width)
        .collect();
    (0..n as u64)
        .map(|i| {
            let (round, slot) = (i / LOG_NODES, i % LOG_NODES);
            let value = (means[slot as usize] + rng.normal() * width * 0.05).round() as i32;
            DurableRecord {
                time_ms: start_ms + round * LOG_CADENCE_MS + slot * NODE_PHASE_MS,
                node: NodeId(slot as u16 + 1),
                attribute: 0,
                value: value.clamp(VALUE_DOMAIN.0, VALUE_DOMAIN.1),
            }
        })
        .collect()
}

/// `count` indices into a log of `len` records, uniform.
pub fn lookup_indices(seed: u64, stream: u64, count: usize, len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, stream);
    (0..count).map(|_| rng.below(len as u64) as usize).collect()
}

/// `count` inclusive time ranges, each spanning `frac` of `[min_ms, max_ms]`,
/// uniformly placed.
pub fn time_ranges(
    seed: u64,
    stream: u64,
    count: usize,
    (min_ms, max_ms): (u64, u64),
    frac: f64,
) -> Vec<(u64, u64)> {
    let mut rng = Rng::new(seed, stream);
    let span = (((max_ms - min_ms) as f64) * frac) as u64;
    (0..count)
        .map(|_| {
            let lo = min_ms + rng.below(max_ms - min_ms - span + 1);
            (lo, lo + span)
        })
        .collect()
}

fn snap(t: SimTime, quantum_ms: u64) -> SimTime {
    SimTime::from_millis(t.as_millis() / quantum_ms * quantum_ms)
}

/// Requests per lockstep window: the closed-loop client keeps exactly this
/// many in flight, and the server answers them in one tick.
pub const WINDOW: usize = 256;

/// The hot stream: `windows` windows of [`WINDOW`] requests drawn round-robin
/// from `streams` [`QueryGenerator`]s over `workload`, window `w` asked at
/// simulated second `first_tick_secs + w`, time bounds snapped to
/// `quantum` so predicates recur across ticks and the answer cache engages.
pub fn hot_requests(
    seed: u64,
    workload: &WorkloadSpec,
    windows: usize,
    streams: usize,
    first_tick_secs: u64,
    quantum: SimDuration,
) -> Vec<ServeRequest> {
    let mut generators: Vec<QueryGenerator> = (0..streams as u64)
        .map(|i| QueryGenerator::from_spec(workload, seed.wrapping_add(i)))
        .collect();
    let q = quantum.as_millis().max(1);
    (0..windows * WINDOW)
        .map(|i| {
            let now = SimTime::from_secs(first_tick_secs + (i / WINDOW) as u64);
            let query = generators[i % streams].next_query(now);
            ServeRequest {
                id: i as u64,
                values: query.values,
                time_lo: snap(query.time_lo, q),
                time_hi: snap(query.time_hi, q),
            }
        })
        .collect()
}

/// The cold stream: value ranges a quarter of the domain wide over
/// historical windows whose end is uniform (to the millisecond) inside
/// `[hist_min_ms, hist_max_ms]`, so no predicate repeats and neither the
/// cache nor coalescing can help.
pub fn cold_requests(
    seed: u64,
    workload: &WorkloadSpec,
    windows: usize,
    (hist_min_ms, hist_max_ms): (u64, u64),
) -> Vec<ServeRequest> {
    let mut generator = QueryGenerator::from_spec(workload, seed).with_fixed_width(0.25);
    let mut rng = Rng::new(seed, 2);
    (0..windows * WINDOW)
        .map(|i| {
            let end = hist_min_ms + rng.below(hist_max_ms - hist_min_ms + 1);
            let query = generator.next_query(SimTime::from_millis(end));
            ServeRequest {
                id: i as u64,
                values: query.values,
                time_lo: query.time_lo.max(SimTime::from_millis(hist_min_ms)),
                time_hi: query.time_hi,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop::types::{DURABLE_RECORD_LEN, SERVE_REQUEST_LEN};

    fn record_bytes(records: &[DurableRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            let mut buf = [0u8; DURABLE_RECORD_LEN];
            r.encode_into(&mut buf);
            out.extend_from_slice(&buf);
        }
        out
    }

    fn request_bytes(requests: &[ServeRequest]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in requests {
            let mut buf = [0u8; SERVE_REQUEST_LEN];
            r.encode_into(&mut buf);
            out.extend_from_slice(&buf);
        }
        out
    }

    #[test]
    fn records_are_deterministic_ordered_and_seed_dependent() {
        let a = records(11, 5_000, 1_000);
        assert_eq!(record_bytes(&a), record_bytes(&records(11, 5_000, 1_000)));
        assert_ne!(record_bytes(&a), record_bytes(&records(29, 5_000, 1_000)));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "canonical order");
        assert!(a.windows(2).all(|w| w[0].time_ms < w[1].time_ms));
        assert!(a
            .iter()
            .all(|r| (VALUE_DOMAIN.0..=VALUE_DOMAIN.1).contains(&r.value)));
        assert_eq!(a[0].time_ms, 1_000);
    }

    #[test]
    fn request_streams_are_deterministic_and_seed_dependent() {
        let workload = WorkloadSpec::paper_defaults();
        let quantum = SimDuration::from_secs(120);
        let hot = |seed| request_bytes(&hot_requests(seed, &workload, 3, 4, 1_200, quantum));
        assert_eq!(hot(11), hot(11));
        assert_ne!(hot(11), hot(29));
        let cold = |seed| request_bytes(&cold_requests(seed, &workload, 3, (10_000, 900_000)));
        assert_eq!(cold(11), cold(11));
        assert_ne!(cold(11), cold(29));
    }

    #[test]
    fn hot_predicates_recur_and_cold_ones_do_not() {
        let workload = WorkloadSpec::paper_defaults();
        let hot = hot_requests(11, &workload, 8, 4, 1_200, SimDuration::from_secs(120));
        let distinct_windows: std::collections::HashSet<_> =
            hot.iter().map(|r| (r.time_lo, r.time_hi)).collect();
        assert_eq!(distinct_windows.len(), 1, "8 ticks share one 120 s quantum");
        let cold = cold_requests(11, &workload, 8, (10_000_000, 400_000_000));
        let distinct: std::collections::HashSet<_> = cold.iter().map(|r| r.predicate()).collect();
        assert_eq!(distinct.len(), cold.len(), "no cold predicate repeats");
        assert!(cold
            .iter()
            .all(|r| r.time_lo.as_millis() >= 10_000_000 && r.time_lo <= r.time_hi));
    }

    #[test]
    fn ranges_and_indices_stay_in_bounds() {
        for (lo, hi) in time_ranges(11, 3, 1_000, (500, 100_500), 0.001) {
            assert!(lo >= 500 && hi <= 100_500 && hi - lo == 100);
        }
        assert!(lookup_indices(11, 4, 1_000, 77).iter().all(|&i| i < 77));
        assert_ne!(
            lookup_indices(11, 4, 50, 1 << 20),
            lookup_indices(11, 5, 50, 1 << 20)
        );
    }
}
