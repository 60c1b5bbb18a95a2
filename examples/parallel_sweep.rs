//! Parallel scenario sweep: run a policy × data-source grid through the
//! `SweepRunner`, verify the parallel results match the sequential baseline
//! bit for bit, and report the wall-clock difference.
//!
//! ```bash
//! cargo run --release --example parallel_sweep [-- threads]
//! ```

use scoop::sim::sweep::{ScenarioSuite, SweepRunner};
use scoop::types::{DataSourceKind, ScenarioSpec, SimDuration, StoragePolicy};
use std::time::Instant;

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| SweepRunner::from_env().threads().max(4));

    // A 4-policy × 5-source grid of small runs, two trials each: 40 runs.
    let mut suite = ScenarioSuite::new("policy-x-source", 2);
    let mut seed = 1u64;
    for policy in StoragePolicy::ALL {
        for source in DataSourceKind::ALL {
            let mut cfg = ScenarioSpec::small_test();
            cfg.num_nodes = 12;
            cfg.duration = SimDuration::from_mins(10);
            cfg.warmup = SimDuration::from_mins(2);
            cfg.policy.kind = policy;
            cfg.workload.data_source = source;
            cfg.seed = seed;
            seed += 1;
            suite = suite.scenario(format!("{policy}/{source}"), cfg);
        }
    }
    println!(
        "suite `{}`: {} scenarios x {} trials = {} runs",
        suite.name,
        suite.scenarios.len(),
        suite.trials,
        suite.job_count()
    );

    let start = Instant::now();
    let sequential = SweepRunner::sequential()
        .run(&suite)
        .expect("sequential sweep");
    let seq_elapsed = start.elapsed();

    let start = Instant::now();
    let parallel = SweepRunner::with_threads(threads)
        .run(&suite)
        .expect("parallel sweep");
    let par_elapsed = start.elapsed();

    let identical = sequential
        .results
        .iter()
        .zip(&parallel.results)
        .all(|(a, b)| a.trials == b.trials && a.averaged == b.averaged);
    println!(
        "sequential: {:.2} s | {} threads: {:.2} s | speedup {:.2}x | results identical: {identical}",
        seq_elapsed.as_secs_f64(),
        threads,
        par_elapsed.as_secs_f64(),
        seq_elapsed.as_secs_f64() / par_elapsed.as_secs_f64().max(1e-9),
    );
    assert!(
        identical,
        "parallel sweep diverged from the sequential baseline"
    );

    println!(
        "\n{:<18} {:>10} {:>12}",
        "scenario", "messages", "storage ok"
    );
    for result in &parallel.results {
        println!(
            "{:<18} {:>10} {:>11.1}%",
            result.label,
            result.averaged.total_messages(),
            result.averaged.storage.storage_success() * 100.0
        );
    }
}
