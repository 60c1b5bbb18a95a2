//! `scoop-perf`: one workload in this process, or the whole suite with one
//! child process per workload. `bench/run.sh` builds and invokes it.

use scoop_perf::metrics::{END_TO_END, PER_LAYER};
use scoop_perf::workloads::{self, Ctx};
use scoop_perf::{micro, suite, sys, trace};
use std::process::ExitCode;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--traced] [--repeat N] [--out FILE]\n       run.sh --compare A.json B.json\n       run.sh --list";

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `--trace 0|1`: run the one workload in this process and end with the
    /// contract's result object. Absent: suite mode, one child per workload.
    trace: Option<bool>,
    traced: bool,
    repeat: usize,
    out: Option<String>,
    compare: Option<(String, String)>,
    list: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 11,
        seconds: workloads::REFERENCE_SECONDS,
        trace: None,
        traced: false,
        repeat: 1,
        out: None,
        compare: None,
        list: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--traced" => parsed.traced = true,
            "--repeat" => {
                parsed.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if parsed.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => parsed.out = Some(value()?),
            "--compare" => parsed.compare = Some((value()?, value()?)),
            "--list" => parsed.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload in this process and prints its report: `name value
/// unit` lines, then the contract's result object as the last line.
fn run_workload(name: &str, traced: bool, args: &Args) -> Result<bool, String> {
    let workload =
        workloads::find(name).ok_or_else(|| format!("unknown workload {name}; try --list"))?;
    // Every simulation in this process runs on one sweep thread: the
    // harness measures the simulator, not the sweep scheduler.
    std::env::set_var("SCOOP_SWEEP_THREADS", "1");
    let mut ctx = Ctx::new(args.seed, args.seconds, traced);
    (workload.run)(&mut ctx)?;
    ctx.report.set("peak_rss_mib", sys::peak_rss_mib());
    let attempted = ctx.report.attempted.max(1);
    ctx.report
        .set("failed_frac", ctx.report.failed as f64 / attempted as f64);
    if traced {
        let spans = ctx.tracer.spans();
        let cost = micro::span_cost_ns();
        let run_s = ctx.report.get("run_s").unwrap_or(0.0);
        ctx.report.set("harness.spans", spans.len() as f64);
        ctx.report.set("harness.span_cost_ns", cost);
        if run_s > 0.0 {
            ctx.report.set(
                "harness.trace_overhead_frac",
                spans.len() as f64 * cost / 1e9 / run_s,
            );
        }
        let (next_query, sample) = micro::workload_ns();
        ctx.report.set("workload.next_query_ns", next_query);
        ctx.report.set("workload.source_sample_ns", sample);
        let path = sys::scratch_root().join(format!("trace-{name}.jsonl"));
        trace::write_jsonl(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace_file {}", path.display());
    }
    for line in ctx.report.human_lines() {
        println!("{line}");
    }
    let json = if traced {
        ctx.report.result_json(PER_LAYER, false)?
    } else {
        ctx.report.result_json(END_TO_END, true)?
    };
    println!("{json}");
    Ok(ctx.report.failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.list {
        workloads::WORKLOADS
            .iter()
            .for_each(|w| println!("{}", w.name));
        Ok(true)
    } else if let Some((a, b)) = &args.compare {
        suite::compare(a, b)
    } else if let Some(traced) = args.trace {
        match &args.workload {
            Some(name) => run_workload(name, traced, &args),
            None => Err("--trace needs --workload".to_string()),
        }
    } else {
        suite::run(&suite::SuiteArgs {
            workload: args.workload.clone(),
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            repeat: args.repeat,
            out: args.out.clone(),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(1)
        }
    }
}
