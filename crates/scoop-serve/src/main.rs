//! The `scoop-serve` binary.
//!
//! ```text
//! scoop-serve smoke [--json]
//! scoop-serve serve --addr=HOST:PORT [--queue=N] [--cache=N] [--tick-ms=N]
//!                   [--scale=paper|small] [--persist=DIR]
//! scoop-serve query --addr=HOST:PORT [--id=N] [--lo=N] [--hi=N]
//!                   [--from-ms=N] [--to-ms=N] [--retry=N] [--seed=N]
//! ```
//!
//! `smoke` prints the deterministic golden report CI compares.
//! `serve` puts the simulated network behind a real TCP socket, pacing
//! simulated ticks against the wall clock. `query` is the matching one-shot
//! TCP client; `--retry=N` opts into bounded retry with seeded jittered
//! backoff when the server answers `Overloaded`, and exhausting the budget
//! exits with the typed give-up error instead of dropping the query.
//! Serving throughput and latency are measured by `bench/run.sh`.

use scoop_serve::server::{pump_once, ServeOptions, ServeServer};
use scoop_serve::smoke::run_smoke;
use scoop_serve::tcp::{RetryPolicy, TcpClient, TcpServerTransport};
use scoop_types::{ScenarioSpec, ServeRequest, SimDuration, SimTime, ValueRange};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: scoop-serve <smoke|serve|query> [options]
  smoke  [--json]
  serve  --addr=HOST:PORT [--queue=N] [--cache=N] [--tick-ms=N]
         [--scale=paper|small] [--persist=DIR]
  query  --addr=HOST:PORT [--id=N] [--lo=N] [--hi=N] [--from-ms=N] [--to-ms=N]
         [--retry=N] [--seed=N]
`smoke` runs the fixed-seed hermetic mix CI checks against its committed
golden (cache off and on, byte-identical). `serve`
exposes the server over length-prefixed TCP frames; `--persist` additionally
journals drained readings into a scoop-store segment log at DIR; a restart
reads none of it and answers it from the sealed
segments, a few blocks per cache miss. `query` sends one value/time
range query to a serving process; `--retry=N` opts into bounded retry with
seeded jittered backoff on `Overloaded`, failing with the typed give-up
error once the budget is spent. Throughput and latency: `bench/run.sh`.";

/// `--key=value` pairs and bare `--flag`s, in command-line order.
type ParsedArgs = (Vec<(String, String)>, Vec<String>);

/// Parses `--key=value` and bare `--flag` options against an allowlist.
fn parse(args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Result<ParsedArgs, String> {
    let mut values = Vec::new();
    let mut flags = Vec::new();
    for arg in args {
        if let Some(rest) = arg.strip_prefix("--") {
            if let Some((name, value)) = rest.split_once('=') {
                if !value_flags.contains(&name) {
                    return Err(format!("unknown option `--{name}`"));
                }
                values.push((name.to_string(), value.to_string()));
            } else if bool_flags.contains(&rest) {
                flags.push(rest.to_string());
            } else if value_flags.contains(&rest) {
                return Err(format!("--{rest} needs a value (--{rest}=...)"));
            } else {
                return Err(format!("unknown option `--{rest}`"));
            }
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    Ok((values, flags))
}

fn lookup<'a>(values: &'a [(String, String)], name: &str) -> Option<&'a str> {
    values
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn numeric<T: std::str::FromStr>(
    values: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match lookup(values, name) {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("bad --{name} value `{raw}`")),
        None => Ok(default),
    }
}

fn scale_spec(values: &[(String, String)]) -> Result<ScenarioSpec, String> {
    match lookup(values, "scale").unwrap_or("paper") {
        "paper" => Ok(ScenarioSpec::paper_defaults()),
        "small" => Ok(ScenarioSpec::small_test()),
        other => Err(format!("bad --scale value `{other}` (paper|small)")),
    }
}

fn cmd_smoke(args: &[String]) -> Result<(), String> {
    let (_, flags) = parse(args, &[], &["json"])?;
    let report = run_smoke().map_err(|e| e.to_string())?;
    if flags.iter().any(|f| f == "json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        println!(
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
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (values, _) = parse(
        args,
        &["addr", "queue", "cache", "tick-ms", "scale", "persist"],
        &[],
    )?;
    let addr = lookup(&values, "addr").ok_or("serve needs --addr=HOST:PORT")?;
    let mut options = ServeOptions::new(scale_spec(&values)?);
    options.queue_capacity = numeric(&values, "queue", options.queue_capacity)?;
    options.cache_capacity = numeric(&values, "cache", options.cache_capacity)?;
    let tick_ms: u64 = numeric(&values, "tick-ms", 1_000)?;
    options.tick = SimDuration::from_millis(tick_ms);
    options.persist_dir = lookup(&values, "persist").map(std::path::PathBuf::from);

    let mut server = ServeServer::new(options).map_err(|e| e.to_string())?;
    let mut transport = TcpServerTransport::bind(addr).map_err(|e| e.to_string())?;
    println!(
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
            println!("{core:?}: {per_miss:.2} history blocks read per miss");
        }
        // A dying disk degrades persistence to a typed error; the server
        // keeps answering from memory. Say so exactly once.
        if !degrade_reported {
            if let Some(e) = server.persistence_error() {
                eprintln!("scoop-serve: persistence degraded, serving from memory: {e}");
                degrade_reported = true;
            }
        }
        if let Some(rest) = tick_wall.checked_sub(began.elapsed()) {
            std::thread::sleep(rest);
        }
    }
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let (values, _) = parse(
        args,
        &[
            "addr", "id", "lo", "hi", "from-ms", "to-ms", "retry", "seed",
        ],
        &[],
    )?;
    let addr = lookup(&values, "addr").ok_or("query needs --addr=HOST:PORT")?;
    let (from_ms, to_ms) = (
        numeric(&values, "from-ms", 0u64)?,
        numeric(&values, "to-ms", u64::MAX / 2)?,
    );
    // The server drops a connection whose request does not decode; refuse
    // the window here instead of sending it.
    if from_ms > to_ms {
        return Err(format!(
            "time window --from-ms={from_ms} --to-ms={to_ms} is inverted"
        ));
    }
    let req = ServeRequest {
        id: numeric(&values, "id", 1u64)?,
        values: ValueRange::new(
            numeric(&values, "lo", 0)?,
            numeric(&values, "hi", i32::MAX)?,
        ),
        time_lo: SimTime::from_millis(from_ms),
        time_hi: SimTime::from_millis(to_ms),
    };
    let policy = RetryPolicy::new(
        numeric(&values, "retry", 0u32)?,
        numeric(&values, "seed", 1u64)?,
    );
    let mut client = TcpClient::connect(addr).map_err(|e| e.to_string())?;
    let (rows, attempts) = client
        .query_with_retry(&req, &policy)
        .map_err(|e| e.to_string())?;
    println!(
        "request {} answered on attempt {attempts}: {} rows",
        rows.id,
        rows.rows.len()
    );
    for row in &rows.rows {
        println!(
            "  t={} ms node={} attr={} value={}",
            row.time_ms, row.node.0, row.attribute, row.value
        );
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("smoke") => cmd_smoke(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    if let Err(message) = result {
        eprintln!("scoop-serve: {message}");
        std::process::exit(1);
    }
}
