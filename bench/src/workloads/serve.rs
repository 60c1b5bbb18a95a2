//! The serve workloads: one `ServeServer` behind the real TCP transport on
//! loopback, one client connection, a closed loop with a window of
//! [`WINDOW`] pipelined requests.
//!
//! The server loop is `pump_once` unrolled and run in lockstep with the
//! client: poll until the window's requests have all arrived, submit them,
//! run one tick, deliver every response. Each tick therefore sees exactly
//! one window, simulated work is fixed, and the response digest is
//! reproducible — a free-running pump would batch differently run to run.

use super::{fastest, timed, Ctx};
use crate::check::{check_response, LogModel};
use crate::gen::{self, WINDOW};
use crate::micro::ns_per_call;
use crate::stats::{median, percentile, sorted, tail_percentile, Digest};
use crate::sys::DataDir;
use crate::trace::{durations_ms, totals_by_name, Tracer};
use scoop::serve::{
    pump_once, AnswerCore, ClientId, InMemoryHub, ServeOptions, ServeServer, TcpClient,
    TcpServerTransport, Transport,
};
use scoop::sim::SimBuilder;
use scoop::store::{Store, StoreOptions};
use scoop::types::{
    DurableRecord, ScenarioSpec, ServeRequest, ServeResponse, SimDuration, SimTime, ValueRange,
    SERVE_REQUEST_LEN,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Ticks the hot server is warmed for before the first request, so node
/// buffers, the index and the routing tree are in steady state.
const WARM_TICKS: u64 = 1_200;

fn err(e: scoop::types::ScoopError) -> String {
    e.to_string()
}

/// The paper's 62-node network behind the default serving options: 1 s
/// ticks, a 1024-deep admission queue, a 4096-entry answer cache.
fn options(cache_capacity: usize, persist_dir: Option<&Path>) -> ServeOptions {
    let mut options = ServeOptions::new(ScenarioSpec::paper_defaults());
    options.cache_capacity = cache_capacity;
    options.persist_dir = persist_dir.map(Path::to_path_buf);
    options
}

fn warmed_server(options: ServeOptions, ticks: u64) -> Result<ServeServer, String> {
    let mut server = ServeServer::new(options).map_err(err)?;
    let mut frames = Vec::new();
    for _ in 0..ticks {
        server.tick(&mut frames).map_err(err)?;
    }
    Ok(server)
}

/// What the client thread saw.
struct ClientOutcome {
    /// Seconds from a request's `send` to its response's `recv`.
    latencies: Vec<f64>,
    rows: u64,
    frame_bytes: u64,
    digest: Digest,
    failed: u64,
    /// When the first response arrived.
    first_answer: Option<Instant>,
    elapsed: f64,
}

/// The closed-loop client: per window, send [`WINDOW`] requests, then
/// receive and check [`WINDOW`] responses (one connection answers in
/// request order). `expected_rows`, when given, is the exact row count each
/// answer must have.
fn run_client(
    addr: std::net::SocketAddr,
    requests: &[ServeRequest],
    expected_rows: Option<&[usize]>,
    mut tracer: Tracer,
) -> Result<(ClientOutcome, Tracer), String> {
    let mut client = TcpClient::connect(addr).map_err(err)?;
    let mut out = ClientOutcome {
        latencies: Vec::with_capacity(requests.len()),
        rows: 0,
        frame_bytes: 0,
        digest: Digest::new(),
        failed: 0,
        first_answer: None,
        elapsed: 0.0,
    };
    let mut sent_at = [Instant::now(); WINDOW];
    let mut frame = Vec::new();
    let began = Instant::now();
    for (w, window) in requests.chunks(WINDOW).enumerate() {
        let span = tracer.begin("serve.client_send");
        for (k, req) in window.iter().enumerate() {
            sent_at[k] = Instant::now();
            client.send(req).map_err(err)?;
        }
        tracer.end(span);
        for (k, req) in window.iter().enumerate() {
            let span = tracer.begin("serve.client_recv");
            let response = client.recv().map_err(err)?;
            tracer.end(span);
            out.latencies.push(sent_at[k].elapsed().as_secs_f64());
            out.first_answer.get_or_insert_with(Instant::now);
            frame.clear();
            response.encode_into(&mut frame);
            out.digest.fold(&frame);
            out.frame_bytes += frame.len() as u64;
            match check_response(req, &response) {
                Ok(rows) => {
                    out.rows += rows as u64;
                    let want = expected_rows.map(|e| e[w * WINDOW + k]);
                    if want.is_some_and(|want| want != rows) {
                        out.failed += 1;
                        if out.failed <= 5 {
                            eprintln!(
                                "CHECK FAILED: request {}: {rows} rows, model has {want:?}",
                                req.id
                            );
                        }
                    }
                }
                Err(why) => {
                    out.failed += 1;
                    if out.failed <= 5 {
                        eprintln!("CHECK FAILED: {why}");
                    }
                }
            }
        }
    }
    out.elapsed = began.elapsed().as_secs_f64();
    Ok((out, tracer))
}

/// `pump_once` unrolled and run `windows` times: each call into the
/// transport and the server is its own span, and each tick sees exactly one
/// window of [`WINDOW`] requests. Returns how many requests were refused.
fn serve_windows<T: Transport>(
    tracer: &mut Tracer,
    server: &mut ServeServer,
    transport: &mut T,
    windows: usize,
) -> Result<u64, String> {
    let mut arrived: Vec<(ClientId, ServeRequest)> = Vec::with_capacity(WINDOW);
    let mut frames: Vec<(ClientId, Vec<u8>)> = Vec::with_capacity(WINDOW);
    let mut refused = 0;
    for _ in 0..windows {
        let span = tracer.begin("serve.poll");
        while arrived.len() < WINDOW {
            let before = arrived.len();
            transport.poll(&mut arrived).map_err(err)?;
            if arrived.len() == before {
                std::thread::yield_now();
            }
        }
        tracer.end(span);
        let span = tracer.begin("serve.submit");
        for (client, request) in arrived.drain(..) {
            refused += u64::from(server.submit(client, request).is_err());
        }
        tracer.end(span);
        let span = tracer.begin("serve.tick");
        let ticked = server.tick(&mut frames);
        tracer.end(span);
        ticked.map_err(err)?;
        let span = tracer.begin("serve.deliver");
        for (client, frame) in frames.drain(..) {
            transport.deliver(client, &frame).map_err(err)?;
        }
        tracer.end(span);
    }
    Ok(refused)
}

/// Runs the lockstep loop over TCP: this thread serves, a second thread is
/// the client. Returns the client's outcome.
fn run_tcp(
    ctx: &mut Ctx,
    server: &mut ServeServer,
    mut transport: TcpServerTransport,
    requests: &[ServeRequest],
    expected_rows: Option<&[usize]>,
) -> Result<ClientOutcome, String> {
    let addr = transport.local_addr().map_err(err)?;
    let client_tracer = Tracer::new(ctx.traced(), ctx.tracer.epoch(), 1);
    let windows = requests.len() / WINDOW;
    let (outcome, refused) = std::thread::scope(|scope| {
        let client = scope.spawn(move || run_client(addr, requests, expected_rows, client_tracer));
        let served = serve_windows(&mut ctx.tracer, server, &mut transport, windows);
        // The last responses may still sit in the connection's out-buffer;
        // `poll` is what flushes it.
        let mut late = Vec::new();
        while !client.is_finished() {
            if served.is_err() {
                // The client would wait for answers that never come.
                drop(transport);
                break;
            }
            let _ = transport.poll(&mut late);
            std::thread::yield_now();
        }
        let outcome = client
            .join()
            .map_err(|_| "client thread panicked".to_string())
            .and_then(|o| o);
        (outcome, served)
    });
    let ((mut outcome, client_spans), refused) = (outcome?, refused?);
    outcome.failed += refused;
    ctx.tracer.absorb(client_spans);
    ctx.report.check_many(
        requests.len() as u64,
        outcome.failed,
        "serve responses failed their checks",
    );
    Ok(outcome)
}

/// The same request stream through the in-memory hub: `(response digest,
/// seconds)`. With the cache off this is the reference the TCP digest must
/// equal; with it on, the in-process rate the TCP rate is compared with.
fn run_inproc(mut server: ServeServer, requests: &[ServeRequest]) -> Result<(Digest, f64), String> {
    let hub = InMemoryHub::new();
    let client = hub.client();
    let mut transport = hub.transport();
    let (mut arrived, mut frames) = (Vec::new(), Vec::new());
    let mut digest = Digest::new();
    let began = Instant::now();
    for window in requests.chunks(WINDOW) {
        window.iter().for_each(|req| client.submit(*req));
        pump_once(&mut server, &mut transport, &mut arrived, &mut frames).map_err(err)?;
        client.drain_frames().iter().for_each(|f| digest.fold(f));
    }
    Ok((digest, began.elapsed().as_secs_f64()))
}

fn record_client_metrics(ctx: &mut Ctx, outcome: &ClientOutcome, server: &ServeServer) {
    let n = outcome.latencies.len();
    let ms = sorted(outcome.latencies.iter().map(|s| s * 1e3).collect());
    ctx.report.set_n("serve_qps", n as f64 / outcome.elapsed, n);
    ctx.report
        .set_n("serve_p50_ms", percentile(&ms, 0.5).unwrap_or(0.0), n);
    if let Some(p99) = tail_percentile(&ms, 0.99) {
        ctx.report.set_n("serve_p99_ms", p99, n);
    }
    ctx.report
        .note("serve_response_digest", outcome.digest.render());

    let (stats, core) = (server.stats(), server.core_stats());
    let answered = stats.answered.max(1) as f64;
    let lookups = (core.cache_hits + core.cache_misses).max(1) as f64;
    ctx.report
        .set("serve.cache_hit_ratio", core.cache_hits as f64 / lookups);
    ctx.report.set(
        "serve.cache_invalidated_per_tick",
        core.cache_invalidated as f64 / (n / WINDOW).max(1) as f64,
    );
    ctx.report.set(
        "serve.coalesce_ratio",
        1.0 - stats.coalesced_groups as f64 / answered,
    );
    ctx.report
        .set("serve.rows_per_answer", outcome.rows as f64 / answered);
    ctx.report.set(
        "serve.bytes_per_answer",
        outcome.frame_bytes as f64 / answered,
    );
}

/// The per-call metrics of the unrolled pump and the client, from spans.
fn record_span_metrics(ctx: &mut Ctx, requests: usize) {
    let totals = totals_by_name(ctx.tracer.spans());
    let per_req = |name: &str, scale: f64| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 * scale / requests.max(1) as f64)
    };
    let set = [
        ("serve.poll_us_per_req", "serve.poll", 1e-3),
        ("serve.submit_ns_per_req", "serve.submit", 1.0),
        ("serve.deliver_us_per_req", "serve.deliver", 1e-3),
        ("serve.client_send_us_per_req", "serve.client_send", 1e-3),
        ("serve.client_recv_us_per_req", "serve.client_recv", 1e-3),
    ];
    for (metric, span, scale) in set {
        ctx.report.set(metric, per_req(span, scale));
    }
    let ticks = sorted(durations_ms(ctx.tracer.spans(), "serve.tick"));
    ctx.report.set_n(
        "serve.tick_ms.p50",
        percentile(&ticks, 0.5).unwrap_or(0.0),
        ticks.len(),
    );
    if let Some(p99) = tail_percentile(&ticks, 0.99) {
        ctx.report.set_n("serve.tick_ms.p99", p99, ticks.len());
    }
}

/// Request codec and response decode, on frames shaped like this
/// workload's.
fn codec_micro(ctx: &mut Ctx, request: &ServeRequest, rows: &[DurableRecord]) {
    ctx.report.set(
        "types.request_codec_ns",
        ns_per_call(5, 200_000, |_| {
            let mut buf = [0u8; SERVE_REQUEST_LEN];
            black_box(request).encode_into(&mut buf);
            black_box(ServeRequest::decode(&buf).ok());
        }),
    );
    let mut frame = Vec::new();
    ServeResponse::Rows(scoop::types::ServeRows {
        id: 1,
        rows: rows.to_vec(),
    })
    .encode_into(&mut frame);
    let per_frame = ns_per_call(5, 20_000, |_| {
        black_box(ServeResponse::decode(black_box(&frame)).ok());
    });
    ctx.report.set(
        "types.rows_decode_ns_per_row",
        per_frame / rows.len().max(1) as f64,
    );
}

// ----------------------------------------------------------- serve-tcp-hot

/// `serve-tcp-hot`: recurring predicates, answered from the cache.
pub fn hot(ctx: &mut Ctx) -> Result<(), String> {
    let spec = ScenarioSpec::paper_defaults();
    let windows = ctx.scaled(400_000, 40_000) / WINDOW;
    // Window `w` is asked in the tick that ends at second WARM_TICKS + w + 1.
    let requests = gen::hot_requests(
        ctx.seed,
        &spec.workload,
        windows,
        4,
        WARM_TICKS,
        SimDuration::from_secs(120),
    );

    // Set-up: build the network, warm it, bind the listener.
    const SETUPS: usize = 9;
    let (setup_s, ready) = fastest(SETUPS, || -> Result<_, String> {
        let server = warmed_server(options(4_096, None), WARM_TICKS)?;
        let transport = TcpServerTransport::bind("127.0.0.1:0").map_err(err)?;
        Ok((server, transport))
    });
    let (mut server, transport) = ready?;
    ctx.report.set_n("setup_s", setup_s, SETUPS);

    let run_span = ctx.tracer.begin("serve.hot");
    let outcome = run_tcp(ctx, &mut server, transport, &requests, None)?;
    ctx.tracer.end(run_span);
    ctx.report.set("run_s", outcome.elapsed);
    record_client_metrics(ctx, &outcome, &server);
    // Released before the reference server is built, so the process's peak
    // RSS stays that of one server.
    drop(server);

    // The cache must not change a byte: the same stream, in process, with
    // the cache off, has to produce the same response digest.
    let reference = warmed_server(options(0, None), WARM_TICKS)?;
    let (uncached, _) = run_inproc(reference, &requests)?;
    ctx.report.check(uncached == outcome.digest, || {
        format!(
            "TCP digest {} differs from the uncached in-process digest {}",
            outcome.digest.render(),
            uncached.render()
        )
    });

    if ctx.traced() {
        record_span_metrics(ctx, requests.len());
        let cached = warmed_server(options(4_096, None), WARM_TICKS)?;
        let (_, secs) = run_inproc(cached, &requests)?;
        ctx.report
            .set("serve.inproc_qps.hot", requests.len() as f64 / secs);
        hot_micro(ctx, &spec, &requests)?;
    }
    Ok(())
}

/// The answering core on a hit, its ingest, and the simulated network's own
/// cost per tick — the floor no serve-side change removes.
fn hot_micro(ctx: &mut Ctx, spec: &ScenarioSpec, requests: &[ServeRequest]) -> Result<(), String> {
    let domain = spec.workload.value_domain;
    let history = gen::records(ctx.seed, 200_000, 0);
    let mut core = AnswerCore::new(domain, 4_096);
    let ingest = ns_per_call(1, (history.len() / 62) as u64, |i| {
        core.ingest(&history[i as usize * 62..][..62]);
    });
    ctx.report
        .set("serve.core_ingest_ns_per_reading", ingest / 62.0);
    let predicates: Vec<_> = (0..64)
        .map(|i| ServeRequest {
            id: i,
            values: ValueRange::new(domain.lo + i as i32, domain.lo + i as i32 + 7),
            time_lo: SimTime::from_secs(1_000 + i),
            time_hi: SimTime::from_secs(1_120 + i),
        })
        .map(|r| r.predicate())
        .collect();
    predicates.iter().for_each(|p| drop(core.answer_payload(p)));
    ctx.report.set(
        "serve.core_answer_ns.hit",
        ns_per_call(5, 200_000, |i| {
            black_box(core.answer_payload(&predicates[i as usize % predicates.len()]));
        }),
    );
    let mut engine = SimBuilder::new(spec.clone()).build().map_err(err)?;
    engine.run_until(SimTime::from_secs(WARM_TICKS));
    let ticks: Vec<f64> = (1..=300)
        .map(|t| timed(|| engine.run_until(SimTime::from_secs(WARM_TICKS + t))).0 * 1e3)
        .collect();
    ctx.report
        .set_n("serve.engine_tick_ms", median(&ticks), ticks.len());
    let rows = &history[..16];
    codec_micro(ctx, &requests[0], rows);
    Ok(())
}

// ---------------------------------------------------------- serve-tcp-cold

const COLD_RECORDS: usize = 2_000_000;
/// Appends per call when writing the history log.
const COLD_BATCH: usize = 65_536;
/// History starts well past any time the live simulation reaches during the
/// run, so the history model alone decides every answer's row count.
const HISTORY_START_MS: u64 = 100_000_000;

fn write_log(db: &Path, records: &[DurableRecord]) -> Result<(), String> {
    let e = |e: scoop::store::StoreError| e.to_string();
    let mut store = Store::open(db, StoreOptions::default()).map_err(e)?;
    for chunk in records.chunks(COLD_BATCH) {
        store.append_batch(chunk).map_err(e)?;
    }
    store.commit().map_err(e)
}

/// `serve-tcp-cold`: restart over a 2M-record log, then never-repeating
/// wide predicates over the history.
pub fn cold(ctx: &mut Ctx) -> Result<(), String> {
    let dir = DataDir::create("serve-tcp-cold").map_err(|e| e.to_string())?;
    let spec = ScenarioSpec::paper_defaults();
    let history = gen::records(ctx.seed, COLD_RECORDS, HISTORY_START_MS);

    // Writing the log is preparation. The traced run writes a second copy
    // for the in-process comparison (a served log grows as the server
    // persists what the live network samples).
    let log = dir.sub("log");
    write_log(&log, &history)?;
    let inproc_log = dir.sub("log-inproc");
    if ctx.traced() {
        write_log(&inproc_log, &history)?;
    }

    let model = LogModel::new(history);
    let windows = ctx.scaled(100_000, 10_000) / WINDOW;
    let requests = gen::cold_requests(ctx.seed, &spec.workload, windows, model.time_span());
    let expected: Vec<usize> = requests
        .iter()
        .map(|r| model.count_matching(&r.predicate()))
        .collect();

    // Set-up is the restart itself: `ServeServer::new` opens the log and
    // preloads every record into the query index, so it grows with history.
    const RESTARTS: usize = 3;
    let (setup_s, restarted) = fastest(RESTARTS - 1, || {
        ServeServer::new(options(4_096, Some(&log))).map(drop)
    });
    restarted.map_err(err)?;

    // The last restart is the one that serves: from `ServeServer::new` to
    // the first answer over TCP.
    let run_span = ctx.tracer.begin("serve.cold");
    let transport = TcpServerTransport::bind("127.0.0.1:0").map_err(err)?;
    let restart_began = Instant::now();
    let (new_secs, server) = ctx.tracer.span("serve.new", || {
        timed(|| ServeServer::new(options(4_096, Some(&log))))
    });
    let mut server = server.map_err(err)?;
    ctx.report.set_n("setup_s", setup_s.min(new_secs), RESTARTS);
    let preloaded = server.stats().readings_preloaded;
    ctx.report.check(preloaded == COLD_RECORDS as u64, || {
        format!("restart preloaded {preloaded} of {COLD_RECORDS} records")
    });
    let outcome = run_tcp(ctx, &mut server, transport, &requests, Some(&expected))?;
    ctx.tracer.end(run_span);
    let first_answer = outcome.first_answer.ok_or("no response arrived")?;
    let restart_secs = first_answer.duration_since(restart_began).as_secs_f64();
    ctx.report.set("serve_restart_s", restart_secs);
    ctx.report.set("run_s", new_secs + outcome.elapsed);
    record_client_metrics(ctx, &outcome, &server);
    drop(server);

    if ctx.traced() {
        record_span_metrics(ctx, requests.len());
        let inproc = ServeServer::new(options(4_096, Some(&inproc_log))).map_err(err)?;
        let (digest, secs) = run_inproc(inproc, &requests)?;
        ctx.report
            .set("serve.inproc_qps.cold", requests.len() as f64 / secs);
        ctx.report.check(digest == outcome.digest, || {
            "cold TCP digest differs from the in-process one".to_string()
        });
        cold_micro(ctx, &inproc_log, spec.workload.value_domain, &requests)?;
    }
    Ok(())
}

/// The two halves of the restart preload, and the core on a miss.
fn cold_micro(
    ctx: &mut Ctx,
    log: &Path,
    domain: ValueRange,
    requests: &[ServeRequest],
) -> Result<(), String> {
    let e = |e: scoop::store::StoreError| e.to_string();
    let (open_secs, store) = timed(|| Store::open(log, StoreOptions::default()));
    let mut store = store.map_err(e)?;
    let (scan_secs, scanned) = timed(|| store.scan_all());
    let scanned = scanned.map_err(e)?;
    ctx.report.set("store.open_ms", open_secs * 1e3);
    ctx.report
        .set("serve.preload_scan_s", open_secs + scan_secs);
    ctx.report.set(
        "store.scan_all_records_per_s",
        scanned.records.len() as f64 / scan_secs,
    );
    let mut core = AnswerCore::new(domain, 4_096);
    let (index_secs, ()) = timed(|| core.ingest(&scanned.records));
    ctx.report.set("serve.preload_index_s", index_secs);
    let sample = requests.len().min(20_000) as u64;
    ctx.report.set(
        "serve.core_answer_ns.miss",
        ns_per_call(1, sample, |i| {
            black_box(core.answer_payload(&requests[i as usize].predicate()));
        }),
    );
    codec_micro(ctx, &requests[0], &scanned.records[..128]);
    Ok(())
}
