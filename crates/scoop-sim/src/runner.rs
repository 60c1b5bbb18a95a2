//! Builds and runs whole-network simulations from a [`ScenarioSpec`].
//! Engine construction is delegated to [`SimBuilder`], so every axis —
//! topology family, loss model, faults — honors the spec rather than being
//! hardcoded here.

use crate::builder::{assemble, SimBuilder};
use crate::metrics::{MessageBreakdown, QueryMetrics, RunResult, StorageMetrics};
use crate::node::SimNode;
use scoop_net::{Engine, LinkModel, Topology};
use scoop_types::{MessageStats, NodeId, ScenarioSpec, ScoopError, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of engine events dispatched by every experiment run
/// (any thread). `run_built_experiment` — the single chokepoint every sweep,
/// lab, and bench path funnels through — adds each finished engine's total
/// here, so a harness can compute events-per-experiment as a snapshot delta
/// without threading a counter through every experiment function.
static EVENTS_DISPATCHED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide dispatched-event counter (monotonic).
pub fn events_dispatched_total() -> u64 {
    EVENTS_DISPATCHED.load(Ordering::Relaxed)
}

/// Adds a finished engine's event total to the process-wide counter. For
/// harnesses (like the phased chaos runner) that drive engines directly
/// instead of going through [`run_built_experiment`].
pub(crate) fn record_events_dispatched(events: u64) {
    EVENTS_DISPATCHED.fetch_add(events, Ordering::Relaxed);
}

/// Builds the topology, link model, node state machines, and engine for one
/// experiment run, as described by every axis of the spec.
pub fn build_engine(config: &ScenarioSpec) -> Result<Engine<SimNode>, ScoopError> {
    SimBuilder::new(config.clone()).build()
}

/// Builds an engine over an explicit topology and link model (used by tests
/// and by ablation experiments that perturb the network by hand). The spec's
/// fault axis still applies; its topology and link axes are ignored in favor
/// of the arguments.
pub fn build_engine_with(
    config: &ScenarioSpec,
    topology: Topology,
    links: LinkModel,
) -> Result<Engine<SimNode>, ScoopError> {
    assemble(config, topology, links)
}

fn stats_diff(after: &MessageStats, before: &MessageStats) -> MessageStats {
    MessageStats {
        data: after.data - before.data,
        summary: after.summary - before.summary,
        mapping: after.mapping - before.mapping,
        query: after.query - before.query,
        reply: after.reply - before.reply,
        aggregate: after.aggregate - before.aggregate,
        heartbeat: after.heartbeat - before.heartbeat,
    }
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
/// models) share the exact measurement path — the equivalence tests compare
/// the builder path against hand construction through this function.
pub fn run_built_experiment(
    config: &ScenarioSpec,
    mut engine: Engine<SimNode>,
) -> Result<RunResult, ScoopError> {
    let warmup_end = SimTime::ZERO + config.warmup;
    engine.run_until(warmup_end);

    // Snapshot per-node counters at the end of warmup.
    let n = engine.topology().len();
    let warm_tx: Vec<MessageStats> = (0..n)
        .map(|i| engine.stats().node(NodeId(i as u16)).tx)
        .collect();
    let warm_rx: Vec<MessageStats> = (0..n)
        .map(|i| engine.stats().node(NodeId(i as u16)).rx)
        .collect();

    engine.run_until(SimTime::ZERO + config.duration);

    let mut network = MessageStats::default();
    let mut per_node_tx = Vec::with_capacity(n);
    let mut per_node_rx = Vec::with_capacity(n);
    for i in 0..n {
        let id = NodeId(i as u16);
        let tx = stats_diff(&engine.stats().node(id).tx, &warm_tx[i]);
        let rx = stats_diff(&engine.stats().node(id).rx, &warm_rx[i]);
        network += tx;
        per_node_tx.push(tx.cost());
        per_node_rx.push(rx.cost());
    }

    // Storage metrics from every node's local counters.
    let mut storage = StorageMetrics::default();
    for (_, node) in engine.iter_nodes() {
        let m = node.metrics;
        storage.sampled += m.sampled;
        storage.stored += m.stored;
        storage.stored_at_owner += m.stored_as_owner;
        storage.stored_at_base_fallback += m.stored_base_fallback;
        storage.stored_local_default += m.stored_local_default;
    }

    // Query metrics summed over every sink (non-sinks report zeros; a
    // single-sink run reads exactly the node-0 counters it always did).
    let mut queries = QueryMetrics::default();
    let mut indices_disseminated = 0;
    let mut remaps_suppressed = 0;
    for (_, node) in engine.iter_nodes() {
        let (issued, targets, replies, readings, local) = node.query_outcomes();
        queries.issued += issued;
        queries.targets_total += targets;
        queries.replies_received += replies;
        queries.readings_returned += readings;
        queries.answered_locally += local;
        indices_disseminated += node.indices_disseminated();
        remaps_suppressed += node.remaps_suppressed();
    }

    let events_processed = engine.events_processed();
    EVENTS_DISPATCHED.fetch_add(events_processed, Ordering::Relaxed);

    Ok(RunResult {
        config: config.clone(),
        messages: MessageBreakdown::from_stats(&network),
        per_node_tx,
        per_node_rx,
        storage,
        queries,
        indices_disseminated,
        remaps_suppressed,
        events_processed,
    })
}

/// Element-wise average of several runs of the same configuration (the paper
/// averages three trials). Per-node vectors are averaged pairwise; counters
/// are averaged as floating point and rounded.
pub fn average_results(results: &[RunResult]) -> Option<RunResult> {
    let first = results.first()?;
    let k = results.len() as f64;
    let avg_u64 = |f: &dyn Fn(&RunResult) -> u64| -> u64 {
        (results.iter().map(|r| f(r) as f64).sum::<f64>() / k).round() as u64
    };
    let per_node = |f: fn(&RunResult) -> &[u64]| -> Vec<u64> {
        (0..f(first).len())
            .map(|i| avg_u64(&|r| *f(r).get(i).unwrap_or(&0)))
            .collect()
    };
    Some(RunResult {
        config: first.config.clone(),
        messages: MessageBreakdown {
            data: avg_u64(&|r| r.messages.data),
            summary: avg_u64(&|r| r.messages.summary),
            mapping: avg_u64(&|r| r.messages.mapping),
            query_reply: avg_u64(&|r| r.messages.query_reply),
        },
        per_node_tx: per_node(|r| &r.per_node_tx),
        per_node_rx: per_node(|r| &r.per_node_rx),
        storage: StorageMetrics {
            sampled: avg_u64(&|r| r.storage.sampled),
            stored: avg_u64(&|r| r.storage.stored),
            stored_at_owner: avg_u64(&|r| r.storage.stored_at_owner),
            stored_at_base_fallback: avg_u64(&|r| r.storage.stored_at_base_fallback),
            stored_local_default: avg_u64(&|r| r.storage.stored_local_default),
        },
        queries: QueryMetrics {
            issued: avg_u64(&|r| r.queries.issued),
            targets_total: avg_u64(&|r| r.queries.targets_total),
            replies_received: avg_u64(&|r| r.queries.replies_received),
            readings_returned: avg_u64(&|r| r.queries.readings_returned),
            answered_locally: avg_u64(&|r| r.queries.answered_locally),
        },
        indices_disseminated: avg_u64(&|r| r.indices_disseminated),
        remaps_suppressed: avg_u64(&|r| r.remaps_suppressed),
        events_processed: avg_u64(&|r| r.events_processed),
    })
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
