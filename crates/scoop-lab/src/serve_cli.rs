//! `scoop-lab serve smoke | listen | query` — the query server's front door.
//!
//! `smoke` prints the deterministic golden report CI compares. `listen`
//! puts the simulated network behind a real TCP socket, pacing simulated
//! ticks against the wall clock. `query` is the matching one-shot TCP
//! client; `--retry=N` opts into bounded retry with seeded jittered backoff
//! when the server answers `Overloaded`, and exhausting the budget fails
//! with the typed give-up error instead of dropping the query. Serving
//! throughput and latency are measured by `bench/run.sh`.

use crate::cli::{Args, Out};
use scoop_serve::server::{pump_once, ServeOptions, ServeServer};
use scoop_serve::smoke::run_smoke;
use scoop_serve::tcp::{RetryPolicy, TcpClient, TcpServerTransport};
use scoop_types::{ScenarioSpec, ServeRequest, SimDuration, SimTime, ValueRange};
use std::time::{Duration, Instant};

pub(crate) fn smoke(args: &Args, out: &mut Out<'_>) -> Result<i32, String> {
    let report = run_smoke().map_err(|e| e.to_string())?;
    if args.flag("json") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        writeln!(out, "{json}");
    } else {
        writeln!(
            out,
            "serve smoke: {} queries -> {} answered, {} overloaded, {} rows; \
             cache {} hits / {} misses / {} invalidated; digest {}",
            report.queries,
            report.answered,
            report.overloaded,
            report.rows_returned,
            report.cache_hits,
            report.cache_misses,
            report.cache_invalidated,
            report.digest
        );
    }
    Ok(0)
}

pub(crate) fn listen(args: &Args, out: &mut Out<'_>) -> Result<i32, String> {
    let addr = args
        .value("addr")
        .ok_or("serve listen needs --addr=HOST:PORT")?;
    let spec = match args.value("scale").unwrap_or("paper") {
        "paper" => ScenarioSpec::paper_defaults(),
        "small" => ScenarioSpec::small_test(),
        other => return Err(format!("bad --scale value `{other}` (paper|small)")),
    };
    let mut options = ServeOptions::new(spec);
    options.queue_capacity = args.number("queue", options.queue_capacity)?;
    options.cache_capacity = args.number("cache", options.cache_capacity)?;
    let tick_ms = args.number("tick-ms", 1_000)?;
    options.tick = SimDuration::from_millis(tick_ms);
    options.persist_dir = args.value("persist").map(std::path::PathBuf::from);

    let mut server = ServeServer::new(options).map_err(|e| e.to_string())?;
    let mut transport = TcpServerTransport::bind(addr).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "serving on {} (tick {} ms, queue {}, {} stored records answerable) — ctrl-c to stop",
        transport.local_addr().map_err(|e| e.to_string())?,
        tick_ms,
        server.queue_capacity(),
        server.stats().readings_preloaded
    );

    // Pace simulated ticks against the wall clock so external clients see a
    // network that advances in real time.
    let mut reqs = Vec::new();
    let mut frames = Vec::new();
    let tick_wall = Duration::from_millis(tick_ms);
    let mut degrade_reported = false;
    loop {
        let began = Instant::now();
        pump_once(&mut server, &mut transport, &mut reqs, &mut frames)
            .map_err(|e| e.to_string())?;
        server.sync().map_err(|e| e.to_string())?;
        if server.stats().ticks % 60 == 0 {
            let core = server.core_stats();
            // Every answer that was not a cache hit was evaluated.
            let misses = (core.answers - core.cache_hits).max(1);
            let per_miss = core.history_blocks_read as f64 / misses as f64;
            writeln!(out, "{core:?}: {per_miss:.2} history blocks read per miss");
        }
        // A dying disk degrades persistence to a typed error; the server
        // keeps answering from memory. Say so exactly once.
        if !degrade_reported {
            if let Some(e) = server.persistence_error() {
                eprintln!("scoop-lab: persistence degraded, serving from memory: {e}");
                degrade_reported = true;
            }
        }
        if let Some(rest) = tick_wall.checked_sub(began.elapsed()) {
            std::thread::sleep(rest);
        }
    }
}

pub(crate) fn query(args: &Args, out: &mut Out<'_>) -> Result<i32, String> {
    let addr = args
        .value("addr")
        .ok_or("serve query needs --addr=HOST:PORT")?;
    // The server drops a connection whose request does not decode; refuse
    // an inverted range here instead of sending it.
    let (lo, hi) = args.bounds(("lo", 0), ("hi", i32::MAX))?;
    let (from_ms, to_ms) = args.bounds(("from-ms", 0), ("to-ms", u64::MAX / 2))?;
    let req = ServeRequest {
        id: args.number("id", 1)?,
        values: ValueRange::new(lo, hi),
        time_lo: SimTime::from_millis(from_ms),
        time_hi: SimTime::from_millis(to_ms),
    };
    let policy = RetryPolicy::new(args.number("retry", 0)?, args.number("seed", 1)?);
    let mut client = TcpClient::connect(addr).map_err(|e| e.to_string())?;
    let (rows, attempts) = client
        .query_with_retry(&req, &policy)
        .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "request {} answered on attempt {attempts}: {} rows",
        rows.id,
        rows.rows.len()
    );
    for row in &rows.rows {
        writeln!(
            out,
            "  t={} ms node={} attr={} value={}",
            row.time_ms, row.node.0, row.attribute, row.value
        );
    }
    Ok(0)
}
