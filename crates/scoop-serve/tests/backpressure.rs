//! The backpressure contract, end to end: over-budget bursts yield typed
//! `Overloaded` responses — never a panic, never a silent drop — every
//! request gets exactly one response, and the server recovers fully on the
//! next tick.

use scoop_serve::server::{pump_once, ServeOptions, ServeServer};
use scoop_serve::tcp::{QueryError, RetryPolicy, TcpClient, TcpServerTransport};
use scoop_serve::transport::InMemoryHub;
use scoop_types::{
    ScenarioSpec, ScoopError, ServeRequest, ServeResponse, SimDuration, SimTime, ValueRange,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn small_server(queue_capacity: usize) -> ServeServer {
    let mut options = ServeOptions::new(ScenarioSpec::small_test());
    options.tick = SimDuration::from_secs(30);
    options.queue_capacity = queue_capacity;
    options.cache_capacity = 16;
    ServeServer::new(options).expect("server builds")
}

fn request(id: u64) -> ServeRequest {
    ServeRequest {
        id,
        values: ValueRange::new(0, 149),
        time_lo: SimTime::ZERO,
        time_hi: SimTime::from_mins(10),
    }
}

#[test]
fn burst_over_budget_yields_typed_overloaded_for_every_excess_request() {
    let mut server = small_server(16);
    let hub = InMemoryHub::new();
    let client = hub.client();
    let mut transport = hub.transport();

    // A burst of 50 against a queue of 16: 16 admitted, 34 rejected.
    for id in 0..50 {
        client.submit(request(id));
    }
    let (mut reqs, mut frames) = (Vec::new(), Vec::new());
    pump_once(&mut server, &mut transport, &mut reqs, &mut frames).expect("pump never panics");

    let responses = client.drain_responses().expect("all frames decode");
    assert_eq!(responses.len(), 50, "exactly one response per request");

    let mut rows = 0;
    let mut overloaded = Vec::new();
    for response in &responses {
        match response {
            ServeResponse::Rows(_) => rows += 1,
            ServeResponse::Overloaded(o) => {
                assert_eq!(o.capacity, 16);
                assert_eq!(o.queued, 16, "rejected exactly at the full mark");
                overloaded.push(o.id);
            }
        }
    }
    assert_eq!(rows, 16);
    assert_eq!(overloaded.len(), 34);
    // Admission is in arrival order, so the rejected ids are the tail.
    assert_eq!(overloaded, (16..50).collect::<Vec<u64>>());
    assert_eq!(server.stats().overloaded, 34);
    assert_eq!(server.stats().answered, 16);

    // The next tick starts with a drained queue: capacity is fully back.
    for id in 100..116 {
        client.submit(request(id));
    }
    pump_once(&mut server, &mut transport, &mut reqs, &mut frames).expect("pump");
    let responses = client.drain_responses().expect("frames decode");
    assert_eq!(responses.len(), 16);
    assert!(
        responses
            .iter()
            .all(|r| matches!(r, ServeResponse::Rows(_))),
        "no lingering backpressure after the burst drained"
    );
}

#[test]
fn direct_submission_reports_queue_depth_at_rejection_time() {
    let mut server = small_server(4);
    for id in 0..4 {
        assert!(server.submit(0, request(id)).is_ok());
    }
    let err = server.submit(0, request(99)).expect_err("queue is full");
    assert_eq!(err.id, 99);
    assert_eq!(err.queued, 4);
    assert_eq!(err.capacity, 4);
    let shown = err.to_string();
    assert!(shown.contains("admission queue full (4/4)"), "{shown}");

    // Draining via a tick restores the whole budget.
    let mut frames = Vec::new();
    server.tick(&mut frames).expect("tick");
    assert_eq!(frames.len(), 4);
    assert!(server.submit(0, request(100)).is_ok());
}

#[test]
fn zero_tick_and_zero_queue_are_rejected_as_invalid_config() {
    let mut zero_tick = ServeOptions::new(ScenarioSpec::small_test());
    zero_tick.tick = SimDuration::from_millis(0);
    match ServeServer::new(zero_tick) {
        Err(ScoopError::InvalidConfig(msg)) => assert!(msg.contains("tick"), "{msg}"),
        Err(other) => panic!("expected InvalidConfig, got {other}"),
        Ok(_) => panic!("a zero tick would never advance simulated time"),
    }

    let mut zero_queue = ServeOptions::new(ScenarioSpec::small_test());
    zero_queue.queue_capacity = 0;
    match ServeServer::new(zero_queue) {
        Err(ScoopError::InvalidConfig(msg)) => assert!(msg.contains("queue_capacity"), "{msg}"),
        Err(other) => panic!("expected InvalidConfig, got {other}"),
        Ok(_) => panic!("a zero queue must not be rounded up to 1"),
    }
}

/// The retry half of the contract, over a real socket: more concurrent
/// clients than the admission queue holds drive it full, rejected requests
/// come back as typed `Overloaded` frames, and bounded seeded retry rides
/// the pressure out — every query either answers with rows or returns the
/// typed give-up error. Nothing is ever dropped silently.
#[test]
fn retrying_clients_drain_a_saturated_queue_or_fail_typed() {
    let mut server = small_server(2);
    let mut transport = TcpServerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = transport.local_addr().expect("addr");

    // Serve on a background thread until every client is done.
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let server_thread = std::thread::spawn(move || {
        let (mut reqs, mut frames) = (Vec::new(), Vec::new());
        while !flag.load(Ordering::Relaxed) {
            pump_once(&mut server, &mut transport, &mut reqs, &mut frames)
                .expect("the server must survive saturation");
            std::thread::sleep(Duration::from_micros(500));
        }
        *server.stats()
    });

    // 8 clients against a queue of 2, each issuing 4 queries with a
    // generous retry budget seeded per client.
    const CLIENTS: u64 = 8;
    const QUERIES_PER_CLIENT: u64 = 4;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = TcpClient::connect(addr).expect("connect");
                let policy = RetryPolicy {
                    max_retries: 200,
                    base: Duration::from_micros(200),
                    cap: Duration::from_millis(4),
                    seed: c,
                };
                let mut attempts_total = 0u32;
                let mut answered = 0u64;
                for q in 0..QUERIES_PER_CLIENT {
                    match client.query_with_retry(&request(c * 100 + q), &policy) {
                        Ok((rows, attempts)) => {
                            assert_eq!(rows.id, c * 100 + q);
                            attempts_total += attempts;
                            answered += 1;
                        }
                        // The typed give-up error is an acceptable outcome;
                        // a transport error or a missing response is not.
                        Err(QueryError::RetriesExhausted(gave_up)) => {
                            assert_eq!(gave_up.id, c * 100 + q);
                            attempts_total += gave_up.attempts;
                        }
                        Err(QueryError::Transport(e)) => panic!("transport failed: {e}"),
                    }
                }
                (answered, attempts_total)
            })
        })
        .collect();

    let mut answered = 0;
    let mut attempts = 0;
    for handle in clients {
        let (a, t) = handle.join().expect("client thread");
        answered += a;
        attempts += u64::from(t);
    }
    stop.store(true, Ordering::Relaxed);
    let stats = server_thread.join().expect("server thread");

    let total = CLIENTS * QUERIES_PER_CLIENT;
    assert_eq!(
        answered, total,
        "with a 200-retry budget every query must eventually answer"
    );
    assert!(
        attempts > total,
        "8 clients vs a queue of 2 must trigger at least one retry"
    );
    assert!(
        stats.overloaded > 0,
        "the queue never filled; the test exercised nothing"
    );
    // Exactly one response per attempt: rows for every admission, a typed
    // rejection for everything else — no silent drops anywhere.
    assert_eq!(stats.answered, answered);
    assert_eq!(stats.answered + stats.overloaded, attempts);
}
