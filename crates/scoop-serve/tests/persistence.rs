//! The persistence seam, end to end: a serving process journals drained
//! readings through the persistence backend into a scoop-store segment log,
//! and a *new* process over the same directory answers queries about
//! data it never simulated — serving across restarts. The failpoint half
//! proves the degrade path: a dying backend becomes a typed error and the
//! server keeps answering from memory.

use scoop_serve::server::{ServeOptions, ServeServer};
use scoop_store::{FailpointBackend, InMemoryBackend};
use scoop_types::{ScenarioSpec, ScoopError, ServeRequest, SimDuration, SimTime, ValueRange};
use std::path::{Path, PathBuf};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scoop-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(dir: &Path) -> ServeOptions {
    let mut options = ServeOptions::new(ScenarioSpec::small_test());
    options.tick = SimDuration::from_secs(30);
    options.persist_dir = Some(dir.to_path_buf());
    options
}

#[test]
fn a_restarted_server_answers_from_the_durable_store() {
    let dir = scratch_dir("restart");

    // First life: run past warmup so real readings flow, then sync and stop.
    let mut first = ServeServer::new(options(&dir)).expect("first server");
    let mut frames = Vec::new();
    for _ in 0..10 {
        first.tick(&mut frames).expect("tick");
    }
    first.sync().expect("sync");
    let drained = first.stats().readings_drained;
    let persisted = first.stats().records_persisted;
    assert!(drained > 0, "300 simulated s crosses the 2-minute warmup");
    assert_eq!(persisted, drained, "every drained reading reached the seam");
    drop(first);

    // Second life: same directory, fresh simulation. The first life's log
    // is answerable and a query over its time span returns rows before the
    // new network has produced anything past its warmup.
    let mut second = ServeServer::new(options(&dir)).expect("second server");
    assert_eq!(
        second.stats().readings_preloaded,
        drained,
        "everything synced in the first life is served in the second"
    );
    second
        .submit(
            1,
            ServeRequest {
                id: 7,
                values: ValueRange::new(-1_000, 1_000),
                time_lo: SimTime::ZERO,
                time_hi: SimTime::from_mins(10),
            },
        )
        .expect("queue is empty");
    frames.clear();
    second.tick(&mut frames).expect("tick");
    assert_eq!(frames.len(), 1);
    let response = scoop_types::ServeResponse::decode(&frames[0].1).expect("frame decodes");
    match response {
        scoop_types::ServeResponse::Rows(rows) => {
            assert_eq!(rows.id, 7);
            assert_eq!(
                rows.rows.len() as u64,
                drained,
                "the whole first life is visible through the restart"
            );
            assert!(
                rows.rows.windows(2).all(|w| w[0] <= w[1]),
                "canonical time-major order survives the round trip"
            );
        }
        other => panic!("expected rows, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_dying_backend_degrades_to_a_typed_error_and_serving_continues() {
    let spec = ScenarioSpec::small_test();
    // One append call per node per tick: fail early in tick 8 (0-based),
    // well after readings started flowing, tearing the batch at 1 record.
    let nodes = spec.num_nodes as u64 + 1;
    let backend = FailpointBackend::new(InMemoryBackend::new())
        .fail_append_at(8 * nodes + 2)
        .torn_write_keep(1);
    let mut options = ServeOptions::new(spec);
    options.tick = SimDuration::from_secs(30);
    let mut server = ServeServer::with_backend(options, backend).expect("server");

    let mut frames = Vec::new();
    for _ in 0..8 {
        server.tick(&mut frames).expect("healthy ticks");
    }
    assert!(server.persistence_active());
    assert!(server.persistence_error().is_none());
    let persisted_before_failure = server.stats().records_persisted;
    assert!(
        persisted_before_failure > 0,
        "readings flowed before the fault"
    );

    // The failing tick must not error, drop queries, or panic — it degrades.
    server
        .submit(
            1,
            ServeRequest {
                id: 42,
                values: ValueRange::new(-1_000, 1_000),
                time_lo: SimTime::ZERO,
                time_hi: SimTime::from_mins(10),
            },
        )
        .expect("queue is empty");
    frames.clear();
    for _ in 0..4 {
        server
            .tick(&mut frames)
            .expect("the fault is absorbed, not returned");
    }

    let err = server.persistence_error().expect("the failpoint fired");
    assert!(
        matches!(err, ScoopError::Store(_)),
        "typed Store error: {err}"
    );
    assert!(err.to_string().contains("failpoint"), "{err}");
    assert!(!server.persistence_active(), "the seam is detached");
    server.sync().expect("sync after degrade is a clean no-op");

    // Serving carried on from memory: the query in the failing tick was
    // answered, and post-degrade readings keep getting drained and served
    // even though nothing persists them anymore.
    assert_eq!(frames.len(), 1);
    let response = scoop_types::ServeResponse::decode(&frames[0].1).expect("frame decodes");
    match response {
        scoop_types::ServeResponse::Rows(rows) => {
            assert_eq!(rows.id, 42);
            assert!(!rows.rows.is_empty(), "answered from memory");
        }
        other => panic!("expected rows, got {other:?}"),
    }
    assert!(
        server.stats().readings_drained > server.stats().records_persisted,
        "post-degrade drains are served from memory, not persisted"
    );
    assert!(
        server.stats().records_persisted > persisted_before_failure,
        "the torn write's prefix is counted as durable"
    );
}

#[test]
fn a_failing_commit_point_degrades_instead_of_killing_the_serve_loop() {
    let backend = FailpointBackend::new(InMemoryBackend::new()).fail_sync_at(0);
    let mut options = ServeOptions::new(ScenarioSpec::small_test());
    options.tick = SimDuration::from_secs(30);
    let mut server = ServeServer::with_backend(options, backend).expect("server");

    let mut frames = Vec::new();
    for _ in 0..6 {
        server.tick(&mut frames).expect("tick");
    }
    server
        .sync()
        .expect("the scripted sync failure is absorbed");
    let err = server
        .persistence_error()
        .expect("degraded at the commit point");
    assert!(matches!(err, ScoopError::Store(_)));
    assert!(!server.persistence_active());

    // The loop keeps going: further ticks and syncs stay clean.
    server.tick(&mut frames).expect("tick after degrade");
    server.sync().expect("sync after degrade");
}

#[test]
fn without_persistence_nothing_survives_and_nothing_is_charged() {
    let mut options = ServeOptions::new(ScenarioSpec::small_test());
    options.tick = SimDuration::from_secs(30);
    let mut server = ServeServer::new(options).expect("server");
    let mut frames = Vec::new();
    for _ in 0..10 {
        server.tick(&mut frames).expect("tick");
    }
    assert!(server.stats().readings_drained > 0);
    assert_eq!(server.stats().records_persisted, 0);
    assert!(!server.persistence_active());
    server.sync().expect("sync is a no-op without a backend");
}
