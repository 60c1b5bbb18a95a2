//! Runs whole-network simulations and measures them.
//!
//! One routine, [`run_windows`], measures every run: it drives a built
//! engine through ascending time boundaries and reports one [`RunResult`]
//! per window between them. [`run_built_experiment`] is its one-window case
//! (warmup to the end, the paper's methodology); the chaos family splits the
//! same span into before / during / after windows. Engines come from
//! [`build_engine`], so every axis — topology family, loss model, faults —
//! honors the spec rather than being hardcoded here.

use crate::builder::build_engine;
use crate::metrics::{MessageBreakdown, QueryMetrics, RunResult, StorageMetrics};
use crate::node::SimNode;
use scoop_net::Engine;
use scoop_types::{MessageStats, NodeId, ScenarioSpec, ScoopError, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of engine events dispatched by every experiment run
/// (any thread). [`run_windows`] — the single chokepoint every sweep, lab,
/// and bench path funnels through — adds each finished engine's total here,
/// so a harness can compute events-per-experiment as a snapshot delta
/// without threading a counter through every experiment function.
static EVENTS_DISPATCHED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide dispatched-event counter (monotonic).
pub fn events_dispatched_total() -> u64 {
    EVENTS_DISPATCHED.load(Ordering::Relaxed)
}

/// Runs one experiment to completion and extracts its metrics.
///
/// Messages are counted over the *measured* window (after the stabilization
/// warmup), matching the paper's methodology.
pub fn run_experiment(config: &ScenarioSpec) -> Result<RunResult, ScoopError> {
    run_built_experiment(config, build_engine(config)?)
}

/// Runs an already-built engine to completion and extracts its metrics;
/// `config` must be the spec the engine was built from. Exposed so harnesses
/// that construct engines by hand (explicit topologies, perturbed link
/// models) share the exact measurement path. It is [`run_windows`] over the
/// one window `[warmup, duration]`.
pub fn run_built_experiment(
    config: &ScenarioSpec,
    engine: Engine<SimNode>,
) -> Result<RunResult, ScoopError> {
    let bounds = [
        SimTime::ZERO + config.warmup,
        SimTime::ZERO + config.duration,
    ];
    Ok(run_windows(config, engine, &bounds).remove(0))
}

/// Runs `engine` (built from `config`) through ascending time `boundaries`
/// and returns one [`RunResult`] per window between consecutive boundaries.
///
/// Messages and per-node transmissions / receptions count within each
/// window. Storage, query, index and remap counters count within each
/// window too, except the first window's, which count from time zero (as a
/// whole run's always have). Each window's `events_processed` is the
/// engine's total at the window's end. The windows' counters sum to the
/// one-window result over the same span.
pub fn run_windows(
    config: &ScenarioSpec,
    mut engine: Engine<SimNode>,
    boundaries: &[SimTime],
) -> Vec<RunResult> {
    let mut marks = boundaries.iter().map(|&boundary| {
        engine.run_until(boundary);
        counters(config, &engine)
    });
    let mut windows = Vec::with_capacity(boundaries.len().saturating_sub(1));
    if let Some(first) = marks.next() {
        let mut start = RunResult {
            storage: StorageMetrics::default(),
            queries: QueryMetrics::default(),
            indices_disseminated: 0,
            remaps_suppressed: 0,
            ..first
        };
        for end in marks {
            let mut window = zip_counters(&end, &start, |end, start| end - start);
            window.events_processed = end.events_processed;
            windows.push(window);
            start = end;
        }
    }
    EVENTS_DISPATCHED.fetch_add(engine.events_processed(), Ordering::Relaxed);
    windows
}

/// Every counter a [`RunResult`] reports, read off `engine` at its current
/// time, each cumulative from time zero.
fn counters(config: &ScenarioSpec, engine: &Engine<SimNode>) -> RunResult {
    let n = engine.topology().len();
    let mut network = MessageStats::default();
    let mut per_node_tx = Vec::with_capacity(n);
    let mut per_node_rx = Vec::with_capacity(n);
    for i in 0..n {
        let stats = engine.stats().node(NodeId(i as u16));
        network += stats.tx;
        per_node_tx.push(stats.tx.cost());
        per_node_rx.push(stats.rx.cost());
    }
    let mut run = RunResult {
        config: config.clone(),
        messages: MessageBreakdown::from_stats(&network),
        per_node_tx,
        per_node_rx,
        storage: StorageMetrics::default(),
        queries: QueryMetrics::default(),
        indices_disseminated: 0,
        remaps_suppressed: 0,
        events_processed: engine.events_processed(),
    };
    // Storage from every node's local counters; queries summed over every
    // sink (non-sinks report zeros).
    for (_, node) in engine.iter_nodes() {
        let m = node.metrics;
        let storage = &mut run.storage;
        storage.sampled += m.sampled;
        storage.stored += m.stored;
        storage.stored_at_owner += m.stored_as_owner;
        storage.stored_at_base_fallback += m.stored_base_fallback;
        storage.stored_local_default += m.stored_local_default;
        let (issued, targets, replies, readings, local) = node.query_outcomes();
        let queries = &mut run.queries;
        queries.issued += issued;
        queries.targets_total += targets;
        queries.replies_received += replies;
        queries.readings_returned += readings;
        queries.answered_locally += local;
        run.indices_disseminated += node.indices_disseminated();
        run.remaps_suppressed += node.remaps_suppressed();
    }
    run
}

/// Combines two runs counter by counter with `f` (per-node vectors element
/// by element); the spec is `a`'s.
fn zip_counters(a: &RunResult, b: &RunResult, f: impl Fn(u64, u64) -> u64) -> RunResult {
    let per_node = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect();
    let (sa, sb, qa, qb) = (&a.storage, &b.storage, &a.queries, &b.queries);
    RunResult {
        config: a.config.clone(),
        messages: MessageBreakdown {
            data: f(a.messages.data, b.messages.data),
            summary: f(a.messages.summary, b.messages.summary),
            mapping: f(a.messages.mapping, b.messages.mapping),
            query_reply: f(a.messages.query_reply, b.messages.query_reply),
        },
        per_node_tx: per_node(&a.per_node_tx, &b.per_node_tx),
        per_node_rx: per_node(&a.per_node_rx, &b.per_node_rx),
        storage: StorageMetrics {
            sampled: f(sa.sampled, sb.sampled),
            stored: f(sa.stored, sb.stored),
            stored_at_owner: f(sa.stored_at_owner, sb.stored_at_owner),
            stored_at_base_fallback: f(sa.stored_at_base_fallback, sb.stored_at_base_fallback),
            stored_local_default: f(sa.stored_local_default, sb.stored_local_default),
        },
        queries: QueryMetrics {
            issued: f(qa.issued, qb.issued),
            targets_total: f(qa.targets_total, qb.targets_total),
            replies_received: f(qa.replies_received, qb.replies_received),
            readings_returned: f(qa.readings_returned, qb.readings_returned),
            answered_locally: f(qa.answered_locally, qb.answered_locally),
        },
        indices_disseminated: f(a.indices_disseminated, b.indices_disseminated),
        remaps_suppressed: f(a.remaps_suppressed, b.remaps_suppressed),
        events_processed: f(a.events_processed, b.events_processed),
    }
}

/// Element-wise average of several runs of the same configuration (the paper
/// averages three trials): every counter, per-node entries included, is
/// summed, divided by the number of runs and rounded.
pub fn average_results(results: &[RunResult]) -> Option<RunResult> {
    let (first, rest) = results.split_first()?;
    let sum = rest
        .iter()
        .fold(first.clone(), |sum, r| zip_counters(&sum, r, |x, y| x + y));
    let k = results.len() as f64;
    Some(zip_counters(&sum, &sum, |total, _| {
        (total as f64 / k).round() as u64
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::{DataSourceKind, StoragePolicy};

    fn small(policy: StoragePolicy, source: DataSourceKind) -> ScenarioSpec {
        let mut cfg = ScenarioSpec::small_test();
        cfg.policy.kind = policy;
        cfg.workload.data_source = source;
        cfg
    }

    #[test]
    fn base_policy_ships_data_and_nothing_else() {
        let r = run_experiment(&small(StoragePolicy::Base, DataSourceKind::Gaussian)).unwrap();
        assert!(r.messages.data > 0, "BASE must send data messages");
        assert_eq!(r.messages.summary, 0);
        assert_eq!(r.messages.mapping, 0);
        assert_eq!(r.messages.query_reply, 0, "BASE answers queries for free");
        assert!(r.storage.sampled > 0);
    }

    #[test]
    fn local_policy_sends_only_query_traffic() {
        let r = run_experiment(&small(StoragePolicy::Local, DataSourceKind::Gaussian)).unwrap();
        assert_eq!(
            r.messages.data, 0,
            "LOCAL stores everything at the producer"
        );
        assert_eq!(r.messages.summary, 0);
        assert_eq!(r.messages.mapping, 0);
        assert!(
            r.messages.query_reply > 0,
            "LOCAL floods queries and replies"
        );
        // Every sampled reading is stored (locally), so storage never fails.
        assert_eq!(r.storage.sampled, r.storage.stored);
    }

    #[test]
    fn scoop_policy_builds_and_disseminates_indices() {
        let r = run_experiment(&small(StoragePolicy::Scoop, DataSourceKind::Gaussian)).unwrap();
        assert!(r.messages.summary > 0, "SCOOP sends summaries");
        assert!(
            r.indices_disseminated >= 1,
            "at least one storage index should be disseminated"
        );
        assert!(r.messages.mapping > 0, "mapping chunks must be sent");
        assert!(r.storage.storage_success() > 0.5);
    }

    #[test]
    fn unique_source_lets_scoop_store_mostly_at_producers() {
        let r = run_experiment(&small(StoragePolicy::Scoop, DataSourceKind::Unique)).unwrap();
        // After the first index is disseminated, every node owns its own
        // value, so data messages should be rare compared to samples.
        assert!(
            (r.messages.data as f64) < r.storage.sampled as f64 * 0.9,
            "UNIQUE should not ship most readings: {} data msgs for {} samples",
            r.messages.data,
            r.storage.sampled
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let cfg = small(StoragePolicy::Scoop, DataSourceKind::Real);
        let a = run_experiment(&cfg).unwrap();
        let b = run_experiment(&cfg).unwrap();
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.storage, b.storage);
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn trials_use_distinct_seeds_and_average() {
        let cfg = small(StoragePolicy::Base, DataSourceKind::Gaussian);
        let averaged = crate::SweepRunner::sequential()
            .averaged(std::slice::from_ref(&cfg), 2)
            .unwrap();
        let results: Vec<RunResult> = (0..2)
            .map(|t| {
                let mut trial = cfg.clone();
                trial.seed = cfg.seed + t;
                run_experiment(&trial).unwrap()
            })
            .collect();
        assert_eq!(results[0].config.seed + 1, results[1].config.seed);
        let avg = average_results(&results).unwrap();
        assert_eq!(averaged, std::slice::from_ref(&avg));
        let lo = results.iter().map(|r| r.total_messages()).min().unwrap();
        let hi = results.iter().map(|r| r.total_messages()).max().unwrap();
        assert!(avg.total_messages() >= lo && avg.total_messages() <= hi);
        assert!(average_results(&[]).is_none());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = ScenarioSpec::small_test();
        cfg.num_nodes = 0;
        assert!(run_experiment(&cfg).is_err());
    }
}
