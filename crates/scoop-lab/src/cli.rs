//! The `scoop-lab` command-line interface.
//!
//! ```text
//! scoop-lab run    [--quick] [--trials=N] [--seed=N] [--results=DIR]
//!                  [--history=FILE] [--json] [experiment...]
//! scoop-lab report [--results=DIR] [--out=FILE]
//! scoop-lab diff   [--results=DIR]
//! scoop-lab check  [--suite NAME] [--tolerance NAME] [--bless] [--baseline=FILE]
//! scoop-lab calibrate [--smoke] [--trials=N] [--seed=N] [--out=FILE]
//! scoop-lab history [--file=FILE]
//! scoop-lab trace  [policy] [source] [nodes]
//! ```
//!
//! `run` executes experiments and persists one artifact per experiment under
//! the results directory; `report` regenerates `EXPERIMENTS.md` from those
//! artifacts; `diff` classifies the stored artifacts against the paper
//! baselines; `check` is the CI regression gate of one suite (smoke, chaos or
//! workloads) against its committed baseline; `history` prints the latest
//! `run --history` record and its wall-clock delta; `trace` is the
//! step-by-step diagnostic previously shipped as a separate `scoop-sim`
//! binary. [`run_cli`] is public so tests drive the same code path as the
//! binary.

use crate::artifact::ArtifactStore;
use crate::baselines::{paper_baseline, TolerancePreset};
use crate::calibrate::{run_calibration, save_calibration, CalibrationOptions};
use crate::check::{run_check, Suite};
use crate::diff::diff_rows;
use crate::history::HistoryRecord;
use crate::rows::RowSet;
use crate::suite::{run_suite, ExperimentId, PointSet, Scale, SuiteOptions};
use scoop_sim::MessageBreakdown;
use scoop_types::{ExperimentConfig, SimDuration, SimTime, MAX_NODES};
use std::path::PathBuf;

/// Default directory artifacts are written to / read from.
pub const DEFAULT_RESULTS_DIR: &str = "results";

/// Default path of the regenerated report.
pub const DEFAULT_EXPERIMENTS_MD: &str = "EXPERIMENTS.md";

const USAGE: &str =
    "usage: scoop-lab <run|report|diff|check|calibrate|history|store|trace> [options]
  run    [--quick] [--trials=N] [--seed=N] [--results=DIR] [--history=FILE] [--json]
         [--set key=value]... [--show-spec] [experiment...]
  report [--results=DIR] [--out=FILE]
  diff   [--results=DIR]
  check  [--suite smoke|chaos|workloads] [--tolerance strict|default|loose]
         [--bless] [--baseline=FILE]
         (each suite is gated against its own committed baseline)
  calibrate [--smoke] [--trials=N] [--seed=N] [--out=FILE] [--results=DIR]
  history [--file=FILE]
  store  <ingest|query|stats> --db DIR [options]   (durable basestation store)
  trace  [scoop|local|base|hash] [real|unique|equal|random|gaussian] [nodes]
experiments: fig3-left fig3-middle fig3-right fig4 fig5 ablations sample-interval
             reliability link-calibration root-skew scaling scaling-256
             scaling-4096 scaling-32768 chaos-partition chaos-failover
             chaos-churn range-width aggregate-ops (default: all)
`--set` (repeatable) overrides one spec axis, e.g. --set topology=grid --set nodes=96
--set link.loss_floor=0.05; an unknown key lists the valid axes. `--show-spec`
prints the resolved base spec as JSON and exits without running. `calibrate`
grid-searches the LinkSpec loss knobs against the paper's reliability targets
and writes results/calibration.json (`--smoke`: tiny grid at quick scale).";

/// Splits `--flag=value` / `--flag value` / bare `--flag` options out of
/// `args`, rejecting anything not in the subcommand's allowlists (a typo'd
/// option must fail loudly, not silently fall back to a default). Returns
/// `(positional, flags, values)`.
#[allow(clippy::type_complexity)]
fn parse(
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(Vec<String>, Vec<String>, Vec<(String, String)>), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut values = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if let Some(rest) = arg.strip_prefix("--") {
            if let Some((name, value)) = rest.split_once('=') {
                if bool_flags.contains(&name) {
                    return Err(format!("--{name} does not take a value"));
                }
                if !value_flags.contains(&name) {
                    return Err(format!("unknown option `--{name}`"));
                }
                values.push((name.to_string(), value.to_string()));
            } else if value_flags.contains(&rest) {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("--{rest} needs a value"))?;
                values.push((rest.to_string(), value.clone()));
            } else if bool_flags.contains(&rest) {
                flags.push(rest.to_string());
            } else {
                return Err(format!("unknown option `--{rest}`"));
            }
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((positional, flags, values))
}

fn lookup<'a>(values: &'a [(String, String)], name: &str) -> Option<&'a str> {
    values
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Every occurrence of a repeatable `--flag`, in order. `--set` overrides
/// apply first-to-last, so later flags win on the same axis.
fn lookup_all<'a>(values: &'a [(String, String)], name: &str) -> Vec<&'a str> {
    values
        .iter()
        .filter(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
        .collect()
}

/// Splits one `--set key=value` payload.
fn parse_set(payload: &str) -> Result<(String, String), String> {
    let (key, value) = payload
        .split_once('=')
        .ok_or_else(|| format!("--set needs key=value, got `{payload}`"))?;
    Ok((key.trim().to_string(), value.trim().to_string()))
}

/// A `--trials` count: a positive integer. Zero is rejected rather than
/// clamped, so an artifact never records a trial count it did not run.
fn parse_trials(value: &str) -> Result<usize, String> {
    value
        .parse()
        .ok()
        .filter(|&t| t >= 1)
        .ok_or_else(|| format!("bad --trials value `{value}`"))
}

/// Entry point of the `scoop-lab` binary. Returns the process exit code.
pub fn run_cli(args: &[String]) -> i32 {
    match dispatch(args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("scoop-lab: {message}");
            2
        }
    }
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    let Some(command) = args.first() else {
        return Err(USAGE.to_string());
    };
    let rest = &args[1..];
    match command.as_str() {
        "run" => cmd_run(rest),
        "report" => cmd_report(rest),
        "diff" => cmd_diff(rest),
        "check" => cmd_check(rest),
        "calibrate" => cmd_calibrate(rest),
        "history" => cmd_history(rest),
        "store" => crate::store_cli::cmd_store(rest, parse),
        "trace" => cmd_trace(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(0)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn cmd_run(args: &[String]) -> Result<i32, String> {
    let (positional, flags, values) = parse(
        args,
        &["trials", "seed", "results", "history", "set"],
        &["quick", "json", "show-spec"],
    )?;
    let quick = flags.iter().any(|f| f == "quick");
    let json = flags.iter().any(|f| f == "json");
    let show_spec = flags.iter().any(|f| f == "show-spec");
    let scale = if quick { Scale::Quick } else { Scale::Paper };
    let mut options = SuiteOptions {
        scale,
        trials: if quick { 1 } else { 3 },
        seed: 1,
        points: PointSet::Full,
        experiments: ExperimentId::ALL.to_vec(),
        overrides: Vec::new(),
    };
    if let Some(trials) = lookup(&values, "trials") {
        options.trials = parse_trials(trials)?;
    }
    if let Some(seed) = lookup(&values, "seed") {
        options.seed = seed
            .parse()
            .map_err(|_| format!("bad --seed value `{seed}`"))?;
    }
    for payload in lookup_all(&values, "set") {
        options.overrides.push(parse_set(payload)?);
    }
    if !positional.is_empty() && positional.iter().all(|p| p != "all") {
        options.experiments = positional
            .iter()
            .map(|slug| {
                ExperimentId::from_slug(slug).ok_or_else(|| format!("unknown experiment `{slug}`"))
            })
            .collect::<Result<Vec<_>, _>>()?;
    }
    // Resolve the base spec up front: an unknown `--set` axis or a malformed
    // value fails here, before any simulation runs, with the axis listing.
    let resolved = options.base_config().map_err(|e| e.to_string())?;
    if show_spec {
        let spec_json = serde_json::to_string_pretty(&resolved)
            .map_err(|e| format!("spec serialization: {e}"))?;
        println!("{spec_json}");
        return Ok(0);
    }

    let store = ArtifactStore::new(PathBuf::from(
        lookup(&values, "results").unwrap_or(DEFAULT_RESULTS_DIR),
    ));
    let artifacts = run_suite(&options, |artifact| {
        if !json {
            let title = artifact
                .experiment_id()
                .map(|id| id.title())
                .unwrap_or("experiment");
            println!("{}", artifact.rows.table(title));
            println!(
                "({} finished in {:.2} s — {} events, {:.0} events/s)\n",
                artifact.experiment,
                artifact.provenance.wall_clock_secs,
                artifact.provenance.events_processed,
                artifact.provenance.events_per_sec
            );
        }
    })
    .map_err(|e| e.to_string())?;

    if json {
        // One bare JSON array of rows per experiment, without the artifact
        // envelope. A serialization failure fails the whole command.
        for artifact in &artifacts {
            println!("{}", artifact.rows.rows_json().map_err(|e| e.to_string())?);
        }
    }
    for artifact in &artifacts {
        store.save(artifact).map_err(|e| e.to_string())?;
    }
    if !json {
        println!(
            "wrote {} artifact(s) to {}",
            artifacts.len(),
            store.root().display()
        );
    }
    if let Some(history) = lookup(&values, "history") {
        if let Some(record) = HistoryRecord::from_artifacts(&artifacts) {
            record
                .append_to(&PathBuf::from(history))
                .map_err(|e| e.to_string())?;
            if !json {
                println!("appended run record to {history}");
            }
        }
    }
    Ok(0)
}

fn cmd_report(args: &[String]) -> Result<i32, String> {
    let (_, _, values) = parse(args, &["results", "out"], &[])?;
    let store = ArtifactStore::new(PathBuf::from(
        lookup(&values, "results").unwrap_or(DEFAULT_RESULTS_DIR),
    ));
    let artifacts = store
        .load_present(&ExperimentId::ALL)
        .map_err(|e| e.to_string())?;
    // The calibration artifact is optional (a store may predate it), but a
    // present-and-unreadable one is an error, not a silently missing section.
    let calibration_path = store.root().join(crate::calibrate::CALIBRATION_FILE);
    let calibration = if calibration_path.exists() {
        Some(crate::calibrate::load_calibration(&calibration_path).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let markdown = crate::render::render_experiments_md_with(&artifacts, calibration.as_ref())
        .map_err(|e| e.to_string())?;
    let out = lookup(&values, "out").unwrap_or(DEFAULT_EXPERIMENTS_MD);
    std::fs::write(out, markdown).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "regenerated {out} from {} artifact(s) in {}",
        artifacts.len(),
        store.root().display()
    );
    Ok(0)
}

fn cmd_diff(args: &[String]) -> Result<i32, String> {
    let (_, _, values) = parse(args, &["results"], &[])?;
    let store = ArtifactStore::new(PathBuf::from(
        lookup(&values, "results").unwrap_or(DEFAULT_RESULTS_DIR),
    ));
    let artifacts = store
        .load_present(&ExperimentId::ALL)
        .map_err(|e| e.to_string())?;
    if artifacts.is_empty() {
        return Err("no artifacts found; run `scoop-lab run` first".into());
    }
    let mut compared = 0;
    for artifact in &artifacts {
        let Some(id) = artifact.experiment_id() else {
            continue;
        };
        let Some(baseline) = paper_baseline(id) else {
            continue;
        };
        let measured = artifact.rows.measured_rows(id.reference_key());
        let report = diff_rows(&measured, &baseline);
        print!("{}", report.render_text());
        compared += 1;
    }
    println!("compared {compared} experiment(s) against the paper baselines");
    Ok(0)
}

fn cmd_check(args: &[String]) -> Result<i32, String> {
    let (positional, flags, values) = parse(args, &["suite", "tolerance", "baseline"], &["bless"])?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let suite_name = lookup(&values, "suite").unwrap_or("smoke");
    let suite = Suite::from_name(suite_name).ok_or_else(|| {
        format!(
            "unknown suite `{suite_name}` ({})",
            Suite::ALL.map(Suite::name).join("|")
        )
    })?;
    let preset_name = lookup(&values, "tolerance").unwrap_or("default");
    let preset = TolerancePreset::from_name(preset_name)
        .ok_or_else(|| format!("unknown tolerance `{preset_name}` (strict|default|loose)"))?;
    let bless = flags.iter().any(|f| f == "bless");
    let baseline_path =
        lookup(&values, "baseline").map_or_else(|| suite.baseline_path(), PathBuf::from);
    let outcome = run_check(suite, &baseline_path, preset, bless).map_err(|e| e.to_string())?;
    print!("{}", outcome.render_text());
    if bless {
        println!("blessed: wrote {}", baseline_path.display());
    }
    Ok(if outcome.failed() { 1 } else { 0 })
}

/// The link-model calibration grid search. Writes the schema-versioned
/// calibration artifact (default `results/calibration.json`; `--out`
/// overrides the full path, `--results` just the directory) and prints the
/// scored grid plus whether the shipped `LinkSpec::default()` matches the
/// measured argmin. `--smoke` runs the tiny grid at quick scale — the CI
/// form that exercises the calibrate path per commit.
fn cmd_calibrate(args: &[String]) -> Result<i32, String> {
    let (positional, flags, values) =
        parse(args, &["trials", "seed", "out", "results"], &["smoke"])?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let smoke = flags.iter().any(|f| f == "smoke");
    let mut options = if smoke {
        CalibrationOptions::smoke()
    } else {
        CalibrationOptions::paper_full()
    };
    if let Some(trials) = lookup(&values, "trials") {
        options.trials = parse_trials(trials)?;
    }
    if let Some(seed) = lookup(&values, "seed") {
        options.seed = seed
            .parse()
            .map_err(|_| format!("bad --seed value `{seed}`"))?;
    }
    let out = match lookup(&values, "out") {
        Some(path) => PathBuf::from(path),
        None => PathBuf::from(lookup(&values, "results").unwrap_or(DEFAULT_RESULTS_DIR))
            .join(crate::calibrate::CALIBRATION_FILE),
    };
    let artifact = run_calibration(&options).map_err(|e| e.to_string())?;
    print!("{}", artifact.render_text());
    save_calibration(&out, &artifact).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} grid points in {:.2} s)",
        out.display(),
        artifact.rows.len(),
        artifact.provenance.wall_clock_secs
    );
    Ok(0)
}

/// The timing-history reader: prints the last `BENCH_history.jsonl` record
/// (per-experiment wall clock and events/sec) and its wall-clock delta
/// against the most recent comparable record. It reports and never fails
/// on a slowdown: wall clock on a shared host does not repeat well enough
/// to gate on (`bench/run.sh` is the measured benchmark).
fn cmd_history(args: &[String]) -> Result<i32, String> {
    let (positional, _, values) = parse(args, &["file"], &[])?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let path = PathBuf::from(lookup(&values, "file").unwrap_or("BENCH_history.jsonl"));
    let records = crate::history::load_history(&path).map_err(|e| e.to_string())?;
    let Some(delta) = crate::history::HistoryDelta::from_records(&records) else {
        return Err(format!("{}: no records", path.display()));
    };
    print!("{}", delta.render_text());
    Ok(0)
}

/// The step-by-step diagnostic: runs one experiment in 5-second simulated
/// steps, printing cumulative per-kind transmission counters, and finishes
/// with the standard Figure 3-style breakdown table. `events=` counts
/// dispatched timers and packet deliveries; `pending=` counts
/// queue entries (`Engine::pending_events`: a transmission in flight is one
/// entry per 32 listeners, not one per delivery still to come).
fn cmd_trace(args: &[String]) -> Result<i32, String> {
    let (positional, _, _) = parse(args, &[], &[])?;
    if let Some(extra) = positional.get(3) {
        return Err(format!("unexpected argument `{extra}`"));
    }
    // The positionals are the spec axes of the same names, so a bad value
    // fails with the axis's accepted vocabulary instead of a silent default.
    let mut cfg = ExperimentConfig::small_test();
    for (axis, value) in ["policy", "source", "nodes"].into_iter().zip(&positional) {
        cfg.set_axis(axis, value).map_err(|e| e.to_string())?;
    }
    if !(2..=MAX_NODES).contains(&cfg.num_nodes) {
        return Err(format!(
            "bad node count `{}` (expected 2..={MAX_NODES})",
            cfg.num_nodes
        ));
    }

    let mut engine = scoop_sim::build_engine(&cfg).map_err(|e| e.to_string())?;
    println!(
        "policy={} source={} nodes={} duration={}",
        cfg.policy.kind, cfg.workload.data_source, cfg.num_nodes, cfg.duration
    );
    let start = std::time::Instant::now();
    let step = SimDuration::from_secs(5);
    let mut now = SimTime::ZERO;
    while now < SimTime::ZERO + cfg.duration {
        now += step;
        engine.run_until(now);
        let tx = engine.stats().total_tx();
        println!(
            "t={:>6}s wall={:>7.1}s events={:<9} pending={:<7} data={:<7} summary={:<6} mapping={:<6} query={:<6} reply={:<6} hb={:<6}",
            now.as_secs(),
            start.elapsed().as_secs_f64(),
            engine.events_processed(),
            engine.pending_events(),
            tx.data,
            tx.summary,
            tx.mapping,
            tx.query,
            tx.reply,
            tx.heartbeat
        );
    }
    // The final cumulative breakdown, through the shared report API.
    let breakdown = MessageBreakdown::from_stats(&engine.stats().total_tx());
    let rows = RowSet::Fig3(vec![scoop_sim::experiments::Fig3Row {
        policy: cfg.policy.kind,
        source: cfg.workload.data_source,
        messages: breakdown,
        total: breakdown.total(),
    }]);
    println!("\n{}", rows.table("cumulative transmissions (whole run)"));
    println!("done in {:.1}s wall", start.elapsed().as_secs_f64());
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_handles_both_flag_styles() {
        let args = s(&["--tolerance", "loose", "--baseline=b.json", "--bless", "x"]);
        let (positional, flags, values) =
            parse(&args, &["tolerance", "baseline"], &["bless"]).unwrap();
        assert_eq!(positional, vec!["x"]);
        assert_eq!(flags, vec!["bless"]);
        assert_eq!(lookup(&values, "tolerance"), Some("loose"));
        assert_eq!(lookup(&values, "baseline"), Some("b.json"));
        assert!(parse(&s(&["--tolerance"]), &["tolerance"], &[]).is_err());
    }

    #[test]
    fn parse_rejects_unknown_and_malformed_options() {
        // Typo'd option names must fail, not silently use a default.
        assert!(parse(&s(&["--result=x"]), &["results"], &[]).is_err());
        assert!(parse(&s(&["--blessed"]), &[], &["bless"]).is_err());
        // A bool flag given a value is an error, not a silent no-op.
        assert!(parse(&s(&["--bless=true"]), &[], &["bless"]).is_err());
        assert_eq!(run_cli(&s(&["run", "--result=/tmp/nope"])), 2);
        assert_eq!(run_cli(&s(&["check", "--bless=true"])), 2);
    }

    #[test]
    fn set_overrides_apply_and_unknown_axes_fail() {
        // --show-spec prints the resolved spec and runs nothing, so this is
        // cheap; a bad key must fail with exit code 2 before any simulation.
        assert_eq!(
            run_cli(&s(&[
                "run",
                "--show-spec",
                "--set",
                "topology=grid",
                "--set",
                "nodes=96",
                "--set",
                "link.loss_floor=0.05",
            ])),
            0
        );
        assert_eq!(run_cli(&s(&["run", "--show-spec", "--set", "warp=9"])), 2);
        assert_eq!(run_cli(&s(&["run", "--show-spec", "--set", "nodes"])), 2);
        assert_eq!(
            run_cli(&s(&["run", "--show-spec", "--set", "policy=ghost"])),
            2
        );
    }

    #[test]
    fn repeated_set_flags_apply_in_order() {
        let payloads = ["nodes=8", "nodes=96"];
        let values: Vec<(String, String)> = payloads
            .iter()
            .map(|p| ("set".to_string(), p.to_string()))
            .collect();
        let all = lookup_all(&values, "set");
        assert_eq!(all, payloads);
        let mut options = SuiteOptions::quick_smoke();
        for payload in all {
            options.overrides.push(parse_set(payload).unwrap());
        }
        assert_eq!(options.base_config().unwrap().num_nodes, 96);
        assert!(parse_set("nodes").is_err());
    }

    #[test]
    fn unknown_command_and_experiment_are_rejected() {
        assert_eq!(run_cli(&s(&["frobnicate"])), 2);
        assert_eq!(run_cli(&s(&["run", "fig9"])), 2);
        assert_eq!(run_cli(&s(&["run", "--trials=0", "fig5"])), 2);
        assert_eq!(run_cli(&s(&["check", "--tolerance", "yolo"])), 2);
        assert_eq!(run_cli(&s(&["check", "--suite", "bogus"])), 2);
        assert_eq!(run_cli(&s(&["check", "--chaos"])), 2);
        assert_eq!(run_cli(&s(&["history", "--gate"])), 2);
        assert_eq!(run_cli(&s(&["trace", "ghost"])), 2);
        assert_eq!(run_cli(&s(&["trace", "scoop", "bogus"])), 2);
        assert_eq!(run_cli(&s(&["trace", "scoop", "real", "many"])), 2);
        assert_eq!(run_cli(&s(&["trace", "scoop", "real", "1"])), 2);
        assert_eq!(run_cli(&s(&["trace", "scoop", "real", "40000"])), 2);
        assert_eq!(run_cli(&s(&["trace", "scoop", "real", "10", "extra"])), 2);
        assert_eq!(run_cli(&s(&[])), 2);
    }

    #[test]
    fn run_report_diff_cycle_in_temp_dir() {
        let dir = std::env::temp_dir().join(format!("scoop-lab-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let results = dir.join("results");
        let out = dir.join("EXPERIMENTS.md");
        let history = dir.join("history.jsonl");
        let code = run_cli(&s(&[
            "run",
            "--quick",
            "--trials=1",
            &format!("--results={}", results.display()),
            &format!("--history={}", history.display()),
            "fig3-middle",
            "fig5",
        ]));
        assert_eq!(code, 0);
        assert!(results.join("fig3-middle.json").exists());
        assert!(history.exists());
        let fig5 = ArtifactStore::new(&results).load("fig5").unwrap();
        assert_eq!(fig5.experiment, "fig5");
        assert_eq!(fig5.scale, "quick");
        assert_eq!(fig5.trials, 1);
        assert!(!fig5.rows.is_empty());

        let code = run_cli(&s(&[
            "report",
            &format!("--results={}", results.display()),
            &format!("--out={}", out.display()),
        ]));
        assert_eq!(code, 0);
        let md = std::fs::read_to_string(&out).unwrap();
        assert!(md.contains("Figure 3 (middle)"));
        assert!(md.contains("vs. paper"));

        let code = run_cli(&s(&["diff", &format!("--results={}", results.display())]));
        assert_eq!(code, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
