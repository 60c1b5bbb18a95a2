//! One measurement routine: splitting a run's measured span into windows
//! only partitions its counters. Over one seed and one spec (the quick chaos
//! base with a partition), three windows sum exactly to the one-window
//! result, the one window is `run_experiment`, and a first window's storage
//! and query counters count from time zero.

use scoop_sim::experiments::chaos::{scenario_config, ChaosScenario};
use scoop_sim::experiments::quick_base;
use scoop_sim::{build_engine, run_experiment, run_windows, RunResult};
use scoop_types::SimTime;

fn sum(windows: &[RunResult], f: impl Fn(&RunResult) -> Vec<u64>) -> Vec<u64> {
    let mut total = vec![0; f(&windows[0]).len()];
    for window in windows {
        for (t, x) in total.iter_mut().zip(f(window)) {
            *t += x;
        }
    }
    total
}

#[test]
fn windows_partition_the_one_window_result() {
    let spec = scenario_config(&quick_base(), ChaosScenario::Partition);
    let warmup = SimTime::ZERO + spec.warmup;
    let end = SimTime::ZERO + spec.duration;
    // Interior boundaries inside and after the partition's open window.
    let (b1, b2) = (SimTime::from_secs(500), SimTime::from_secs(900));
    assert!(warmup < b1 && b2 < end);

    let whole = run_windows(&spec, build_engine(&spec).unwrap(), &[warmup, end]);
    assert_eq!(whole.len(), 1);
    let whole = &whole[0];
    assert_eq!(whole, &run_experiment(&spec).unwrap());

    let split = run_windows(&spec, build_engine(&spec).unwrap(), &[warmup, b1, b2, end]);
    assert_eq!(split.len(), 3);
    let messages = |r: &RunResult| {
        let m = r.messages;
        vec![m.data, m.summary, m.mapping, m.query_reply]
    };
    let storage = |r: &RunResult| {
        let s = r.storage;
        vec![
            s.sampled,
            s.stored,
            s.stored_at_owner,
            s.stored_at_base_fallback,
            s.stored_local_default,
        ]
    };
    let queries = |r: &RunResult| {
        let q = r.queries;
        vec![
            q.issued,
            q.targets_total,
            q.replies_received,
            q.readings_returned,
            q.answered_locally,
        ]
    };
    let remaps = |r: &RunResult| vec![r.indices_disseminated, r.remaps_suppressed];
    assert_eq!(sum(&split, messages), messages(whole));
    assert_eq!(sum(&split, |r| r.per_node_tx.clone()), whole.per_node_tx);
    assert_eq!(sum(&split, |r| r.per_node_rx.clone()), whole.per_node_rx);
    assert_eq!(sum(&split, storage), storage(whole));
    assert_eq!(sum(&split, queries), queries(whole));
    assert_eq!(sum(&split, remaps), remaps(whole));

    // The first window's storage and query counters count from time zero,
    // wherever it starts; its messages count from its start.
    let late = run_windows(&spec, build_engine(&spec).unwrap(), &[b1, end]);
    assert_eq!(storage(&late[0]), storage(whole));
    assert_eq!(queries(&late[0]), queries(whole));
    assert_eq!(messages(&late[0]), sum(&split[1..], messages));

    // Every window carries traffic, and the last ends where the run does.
    assert!(split
        .iter()
        .all(|w| w.messages.total() > 0 && w.storage.sampled > 0));
    assert_eq!(split[2].events_processed, whole.events_processed);
    assert!(split[0].events_processed < split[1].events_processed);
}
