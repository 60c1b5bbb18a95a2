//! The `scoop-lab` command-line interface: the one binary that drives the
//! lab, the durable store and the query server.
//!
//! ```text
//! scoop-lab run | report | diff | check | trace
//! scoop-lab store ingest | query | stats
//! scoop-lab serve smoke | listen | query
//! scoop-lab help
//! ```
//!
//! `run` executes experiments (the link-model calibration among them) and
//! persists one artifact per experiment under the results directory;
//! `report` regenerates `EXPERIMENTS.md` from those artifacts; `diff`
//! classifies the stored artifacts against the paper baselines; `check` is
//! the CI regression gate: the quick smoke suite must reproduce its committed
//! baseline byte for byte; `trace` steps one small simulation and prints its
//! transmission counters. `store` drives the durable basestation store, and
//! `serve` the query server (its golden smoke, a TCP listener and a one-shot
//! TCP client).
//!
//! Every command is one entry of a single table holding its words, usage
//! line, accepted options, positional count and handler; dispatch, the
//! option allowlists and `help` all read that table. Options take
//! `--name=value` or `--name value`. The exit status is 0 on success, 1 when
//! `check`'s gate fails, and 2 on any error. All output goes through one
//! writer that treats a closed pipe as the reader being done: `run | head -1`
//! still saves its artifacts and exits 0. [`run_cli`] is public so tests
//! drive the same code path as the binary.

use crate::artifact::ArtifactStore;
use crate::baselines::paper_baseline;
use crate::check::{run_check, BASELINE_PATH};
use crate::diff::diff_rows;
use crate::rows::RowSet;
use crate::suite::{run_suite, ExperimentId, PointSet, Scale, SuiteOptions};
use crate::{serve_cli, store_cli};
use scoop_sim::MessageBreakdown;
use scoop_types::{ScenarioSpec, SimDuration, SimTime, MAX_NODES};
use std::fmt::{self, Display};
use std::io::{self, Write};
use std::path::PathBuf;
use std::str::FromStr;

/// Default directory artifacts are written to / read from.
pub const DEFAULT_RESULTS_DIR: &str = "results";

/// Default path of the regenerated report.
pub const DEFAULT_EXPERIMENTS_MD: &str = "EXPERIMENTS.md";

/// One command: the words that name it, its usage line, and its handler,
/// which returns the exit status. The usage line is also the command's
/// grammar, so `help` and the parser cannot disagree: `--name=V` or
/// `--name V` takes a value, a bare `--name` is a flag, and each bracketed
/// word that is not an option is one positional (any number with `...`).
struct Command {
    path: &'static [&'static str],
    usage: &'static str,
    run: fn(&Args, &mut Out<'_>) -> Result<i32, String>,
}

impl Command {
    /// Each option the usage line names, and whether it takes a value.
    fn options(&self) -> impl Iterator<Item = (&'static str, bool)> {
        self.usage.split("--").skip(1).map(|option| {
            let end = option
                .find(|c: char| c != '-' && !c.is_ascii_lowercase())
                .unwrap_or(option.len());
            let (name, rest) = option.split_at(end);
            let metavariable = rest
                .strip_prefix(' ')
                .is_some_and(|r| r.starts_with(char::is_alphanumeric));
            (name, rest.starts_with('=') || metavariable)
        })
    }

    /// How many positionals the usage line takes.
    fn positionals(&self) -> usize {
        let words = self
            .usage
            .split('[')
            .skip(1)
            .filter(|w| !w.starts_with('-'));
        if words.clone().any(|w| w.contains("...")) {
            usize::MAX
        } else {
            words.count()
        }
    }
}

const COMMANDS: &[Command] = &[
    Command {
        path: &["run"],
        usage: "[--quick] [--trials=N] [--seed=N] [--results=DIR] [--json]\n\
                [--set key=value]... [--show-spec] [experiment...]",
        run: cmd_run,
    },
    Command {
        path: &["report"],
        usage: "[--results=DIR] [--out=FILE]",
        run: cmd_report,
    },
    Command {
        path: &["diff"],
        usage: "[--results=DIR]",
        run: cmd_diff,
    },
    Command {
        path: &["check"],
        usage: "[--bless] [--baseline=FILE]",
        run: cmd_check,
    },
    Command {
        path: &["trace"],
        usage: "[scoop|local|base|hash] [real|unique|equal|random|gaussian]\n[nodes]",
        run: cmd_trace,
    },
    Command {
        path: &["store", "ingest"],
        usage: "--db DIR [--artifact FILE]...\n\
                [--sim [--paper] [--set key=value]...] [--block-size N]\n\
                [--compact] [--dump FILE]",
        run: store_cli::ingest,
    },
    Command {
        path: &["store", "query"],
        usage: "--db DIR (--at MS | --from MS --to MS | --all) [--json]\n\
                [--out FILE]",
        run: store_cli::query,
    },
    Command {
        path: &["store", "stats"],
        usage: "--db DIR [--json]",
        run: store_cli::stats,
    },
    Command {
        path: &["serve", "smoke"],
        usage: "[--json]",
        run: serve_cli::smoke,
    },
    Command {
        path: &["serve", "listen"],
        usage: "--addr=HOST:PORT [--queue=N] [--cache=N] [--tick-ms=N]\n\
                [--scale=paper|small] [--persist=DIR]",
        run: serve_cli::listen,
    },
    Command {
        path: &["serve", "query"],
        usage: "--addr=HOST:PORT [--id=N] [--lo=N] [--hi=N] [--from-ms=N]\n\
                [--to-ms=N] [--retry=N] [--seed=N]",
        run: serve_cli::query,
    },
    Command {
        path: &["help"],
        usage: "",
        run: cmd_help,
    },
];

const NOTES: &str = "\
`check` exits 1 when the quick smoke suite does not reproduce its baseline
byte for byte; any error exits 2. `--set` (repeatable) overrides one spec
axis, e.g. --set topology=grid --set nodes=96; `--show-spec` prints the
resolved spec as JSON and runs nothing. `serve listen` puts the simulated
network behind TCP; `serve query` sends it one query.";

/// Standard output of every command. A reader that closes the pipe early
/// is done, not failed: after a write meets `BrokenPipe` the rest of the
/// output is discarded and the command still finishes its side effects.
/// Any other write error fails the command once it ends.
pub(crate) struct Out<'a> {
    sink: &'a mut dyn Write,
    failed: Option<io::Error>,
}

impl<'a> Out<'a> {
    fn new(sink: &'a mut dyn Write) -> Self {
        Out { sink, failed: None }
    }

    /// The target of `write!` and `writeln!`; writes nothing once a write
    /// has failed.
    pub(crate) fn write_fmt(&mut self, text: fmt::Arguments<'_>) {
        if self.failed.is_none() {
            self.failed = self.sink.write_fmt(text).err();
        }
    }

    /// Flushes, then returns the first write error unless the pipe closed.
    fn finish(self) -> io::Result<()> {
        match self.failed.or_else(|| self.sink.flush().err()) {
            Some(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(e),
            _ => Ok(()),
        }
    }
}

/// One command's options (`--name=value` / `--name value` pairs and bare
/// `--flag`s, in command-line order) and positionals, each checked against
/// its table entry.
#[derive(Default)]
pub(crate) struct Args {
    positional: Vec<String>,
    flags: Vec<String>,
    values: Vec<(String, String)>,
}

impl Args {
    /// Parses `args` against `command`'s usage line. A typo'd option must
    /// fail loudly, not silently fall back to a default.
    fn parse(command: &Command, args: &[String]) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let Some(rest) = arg.strip_prefix("--") else {
                if parsed.positional.len() == command.positionals() {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                parsed.positional.push(arg.clone());
                continue;
            };
            let (name, value) = match rest.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (rest, None),
            };
            match command.options().find(|&(option, _)| option == name) {
                None => return Err(format!("unknown option `--{name}`")),
                Some((_, false)) if value.is_some() => {
                    return Err(format!("--{name} does not take a value"))
                }
                Some((_, false)) => parsed.flags.push(name.to_string()),
                Some((_, true)) => {
                    let value = value
                        .or_else(|| iter.next().cloned())
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    parsed.values.push((name.to_string(), value));
                }
            }
        }
        Ok(parsed)
    }

    /// The last value given for `--name`.
    pub(crate) fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for a repeatable `--name`, first to last.
    pub(crate) fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.values
            .iter()
            .filter(move |(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the bare `--name` was given.
    pub(crate) fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// `--name` parsed as a number, or `default` when it is absent.
    pub(crate) fn number<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("bad --{name} value `{raw}`")),
            None => Ok(default),
        }
    }

    /// The numbers `--lo` and `--hi` (each with its default), refused when
    /// the range they bound is inverted, so a bad range fails before any
    /// store is opened or any server is contacted.
    pub(crate) fn bounds<T: FromStr + PartialOrd + Display>(
        &self,
        (lo, lo_default): (&str, T),
        (hi, hi_default): (&str, T),
    ) -> Result<(T, T), String> {
        let (a, b) = (self.number(lo, lo_default)?, self.number(hi, hi_default)?);
        if a > b {
            return Err(format!("range --{lo}={a} --{hi}={b} is inverted"));
        }
        Ok((a, b))
    }
}

/// Splits one `--set key=value` payload.
pub(crate) fn parse_set(payload: &str) -> Result<(String, String), String> {
    let (key, value) = payload
        .split_once('=')
        .ok_or_else(|| format!("--set needs key=value, got `{payload}`"))?;
    Ok((key.trim().to_string(), value.trim().to_string()))
}

/// The usage text, rendered from the command table and the experiment list
/// in 80 columns.
fn usage() -> String {
    let mut text = String::from("usage: scoop-lab <command> [options]\n");
    for command in COMMANDS {
        let usage = command.usage.replace('\n', "\n                ");
        text += format!("  {:<14}{usage}", command.path.join(" ")).trim_end();
        text += "\n";
    }
    let mut line = String::from("  experiments   ");
    for word in ExperimentId::ALL
        .map(ExperimentId::slug)
        .into_iter()
        .chain(["(default: all)"])
    {
        if line.len() + word.len() > 80 {
            text += line.trim_end();
            text += "\n";
            line = " ".repeat(16);
        }
        line += word;
        line += " ";
    }
    text + line.trim_end() + "\n" + NOTES
}

/// Entry point of the `scoop-lab` binary, printing to `stdout`. Returns
/// the process exit status.
pub fn run_cli(args: &[String], stdout: &mut dyn Write) -> i32 {
    let mut out = Out::new(stdout);
    let result = dispatch(args, &mut out);
    let flushed = out
        .finish()
        .map_err(|e| format!("writing standard output: {e}"));
    result
        .and_then(|code| flushed.map(|()| code))
        .unwrap_or_else(|message| {
            eprintln!("scoop-lab: {message}");
            2
        })
}

fn dispatch(args: &[String], out: &mut Out<'_>) -> Result<i32, String> {
    let Some(first) = args.first() else {
        return Err(usage());
    };
    if first == "-h" || first == "--help" {
        return dispatch(&["help".to_string()], out);
    }
    let found = COMMANDS
        .iter()
        .find(|c| c.path.len() <= args.len() && c.path.iter().zip(args).all(|(p, a)| p == a));
    let Some(command) = found else {
        let group = COMMANDS
            .iter()
            .any(|c| c.path.len() > 1 && c.path[0] == first);
        let named = &args[..args.len().min(if group { 2 } else { 1 })];
        return Err(format!(
            "unknown command `{}`\n{}",
            named.join(" "),
            usage()
        ));
    };
    let parsed = Args::parse(command, &args[command.path.len()..])?;
    (command.run)(&parsed, out)
}

fn cmd_help(_: &Args, out: &mut Out<'_>) -> Result<i32, String> {
    writeln!(out, "{}", usage());
    Ok(0)
}

fn results(args: &Args) -> ArtifactStore {
    ArtifactStore::new(PathBuf::from(
        args.value("results").unwrap_or(DEFAULT_RESULTS_DIR),
    ))
}

fn cmd_run(args: &Args, out: &mut Out<'_>) -> Result<i32, String> {
    let quick = args.flag("quick");
    let json = args.flag("json");
    let options = SuiteOptions {
        scale: if quick { Scale::Quick } else { Scale::Paper },
        // `base_config` refuses zero rather than clamping it, so an artifact
        // never records a trial count it did not run.
        trials: args.number("trials", if quick { 1 } else { 3 })?,
        seed: args.number("seed", 1)?,
        points: PointSet::Full,
        experiments: if args.positional.is_empty() || args.positional.iter().any(|p| p == "all") {
            ExperimentId::ALL.to_vec()
        } else {
            args.positional
                .iter()
                .map(|slug| {
                    ExperimentId::from_slug(slug)
                        .ok_or_else(|| format!("unknown experiment `{slug}`"))
                })
                .collect::<Result<_, _>>()?
        },
        // Applied first to last, so a later `--set` wins on the same axis.
        overrides: args
            .values("set")
            .map(parse_set)
            .collect::<Result<_, _>>()?,
    };
    // Resolve the base spec up front: an unknown `--set` axis or a malformed
    // value fails here, before any simulation runs, with the axis listing.
    let resolved = options.base_config().map_err(|e| e.to_string())?;
    if args.flag("show-spec") {
        let spec_json = serde_json::to_string_pretty(&resolved)
            .map_err(|e| format!("spec serialization: {e}"))?;
        writeln!(out, "{spec_json}");
        return Ok(0);
    }

    let store = results(args);
    let artifacts = run_suite(&options, |artifact| {
        if !json {
            let title = artifact
                .experiment_id()
                .map(|id| id.title())
                .unwrap_or("experiment");
            writeln!(out, "{}", artifact.rows.table(title));
            writeln!(
                out,
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
            let rows = artifact.rows.rows_json().map_err(|e| e.to_string())?;
            writeln!(out, "{rows}");
        }
    }
    for artifact in &artifacts {
        store.save(artifact).map_err(|e| e.to_string())?;
    }
    if !json {
        writeln!(
            out,
            "wrote {} artifact(s) to {}",
            artifacts.len(),
            store.root().display()
        );
    }
    Ok(0)
}

fn cmd_report(args: &Args, out: &mut Out<'_>) -> Result<i32, String> {
    let store = results(args);
    let artifacts = store
        .load_present(&ExperimentId::ALL)
        .map_err(|e| e.to_string())?;
    let markdown = crate::render::render_experiments_md(&artifacts).map_err(|e| e.to_string())?;
    let path = args.value("out").unwrap_or(DEFAULT_EXPERIMENTS_MD);
    std::fs::write(path, markdown).map_err(|e| format!("{path}: {e}"))?;
    writeln!(
        out,
        "regenerated {path} from {} artifact(s) in {}",
        artifacts.len(),
        store.root().display()
    );
    Ok(0)
}

fn cmd_diff(args: &Args, out: &mut Out<'_>) -> Result<i32, String> {
    let artifacts = results(args)
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
        write!(out, "{}", diff_rows(&measured, &baseline).render_text());
        compared += 1;
    }
    writeln!(
        out,
        "compared {compared} experiment(s) against the paper baselines"
    );
    Ok(0)
}

fn cmd_check(args: &Args, out: &mut Out<'_>) -> Result<i32, String> {
    let bless = args.flag("bless");
    let baseline_path = PathBuf::from(args.value("baseline").unwrap_or(BASELINE_PATH));
    let outcome = run_check(&baseline_path, bless).map_err(|e| e.to_string())?;
    write!(out, "{}", outcome.render_text());
    if bless {
        writeln!(out, "blessed: wrote {}", baseline_path.display());
    }
    Ok(if outcome.failed() { 1 } else { 0 })
}

/// The step-by-step diagnostic: runs one experiment in 5-second simulated
/// steps, printing cumulative per-kind transmission counters, and finishes
/// with the standard Figure 3-style breakdown table. `events=` counts
/// dispatched timers and packet deliveries; `pending=` counts
/// queue entries (`Engine::pending_events`: a transmission in flight is one
/// entry per 32 listeners, not one per delivery still to come).
fn cmd_trace(args: &Args, out: &mut Out<'_>) -> Result<i32, String> {
    // The positionals are the spec axes of the same names, so a bad value
    // fails with the axis's accepted vocabulary instead of a silent default.
    let mut cfg = ScenarioSpec::small_test();
    for (axis, value) in ["policy", "source", "nodes"]
        .into_iter()
        .zip(&args.positional)
    {
        cfg.set_axis(axis, value).map_err(|e| e.to_string())?;
    }
    if !(2..=MAX_NODES).contains(&cfg.num_nodes) {
        return Err(format!(
            "bad node count `{}` (expected 2..={MAX_NODES})",
            cfg.num_nodes
        ));
    }

    let mut engine = scoop_sim::build_engine(&cfg).map_err(|e| e.to_string())?;
    writeln!(
        out,
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
        writeln!(
            out,
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
    writeln!(
        out,
        "\n{}",
        rows.table("cumulative transmissions (whole run)")
    );
    writeln!(out, "done in {:.1}s wall", start.elapsed().as_secs_f64());
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn run(args: &[&str]) -> i32 {
        run_cli(&s(args), &mut io::sink())
    }

    /// The message a command fails with.
    fn error(args: &[&str]) -> String {
        dispatch(&s(args), &mut Out::new(&mut io::sink())).expect_err("the command must fail")
    }

    fn command(path: &[&str]) -> &'static Command {
        COMMANDS.iter().find(|c| c.path == path).unwrap()
    }

    /// A stdout whose every write fails with `kind`, counting the attempts.
    struct Failing {
        kind: io::ErrorKind,
        writes: usize,
    }

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            Err(self.kind.into())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_pipe_discards_output_and_is_not_an_error() {
        let mut pipe = Failing {
            kind: io::ErrorKind::BrokenPipe,
            writes: 0,
        };
        let mut out = Out::new(&mut pipe);
        writeln!(out, "first");
        writeln!(out, "second");
        assert!(out.finish().is_ok());
        assert_eq!(pipe.writes, 1, "nothing is written after the pipe closes");

        let mut full = Failing {
            kind: io::ErrorKind::StorageFull,
            writes: 0,
        };
        let mut out = Out::new(&mut full);
        writeln!(out, "first");
        writeln!(out, "second");
        assert_eq!(out.finish().unwrap_err().kind(), io::ErrorKind::StorageFull);
        assert_eq!(full.writes, 1);

        for (kind, code) in [(io::ErrorKind::BrokenPipe, 0), (io::ErrorKind::Other, 2)] {
            let mut sink = Failing { kind, writes: 0 };
            assert_eq!(run_cli(&s(&["help"]), &mut sink), code, "{kind:?}");
        }
    }

    #[test]
    fn parse_handles_both_flag_styles() {
        let cmd = Command {
            path: &["test"],
            usage: "[--results DIR] [--baseline=FILE] [--bless] [name]",
            run: cmd_help,
        };
        let args = s(&["--results", "r", "--baseline=b.json", "--bless", "x"]);
        let parsed = Args::parse(&cmd, &args).unwrap();
        assert_eq!(parsed.positional, vec!["x"]);
        assert!(parsed.flag("bless"));
        assert_eq!(parsed.value("results"), Some("r"));
        assert_eq!(parsed.value("baseline"), Some("b.json"));
        assert_eq!(parsed.number("absent", 7u32), Ok(7));
        assert!(parsed.number::<u32>("results", 0).is_err());
        assert!(Args::parse(&cmd, &s(&["--results"])).is_err());
        assert!(Args::parse(&cmd, &s(&["x", "y"])).is_err());
    }

    #[test]
    fn parse_rejects_unknown_and_malformed_options() {
        let check = command(&["check"]);
        // Typo'd option names must fail, not silently use a default.
        assert!(Args::parse(check, &s(&["--baselines=x"])).is_err());
        assert!(Args::parse(check, &s(&["--blessed"])).is_err());
        // A bool flag given a value is an error, not a silent no-op.
        assert!(Args::parse(check, &s(&["--bless=true"])).is_err());
        assert_eq!(run(&["run", "--result=/tmp/nope"]), 2);
        assert_eq!(run(&["check", "--bless=true"]), 2);
        assert_eq!(run(&["check", "extra"]), 2);
        assert_eq!(run(&["serve", "smoke", "--json=1"]), 2);
        assert_eq!(run(&["serve", "query", "--addr=127.0.0.1:9", "--lo=x"]), 2);
    }

    #[test]
    fn set_overrides_apply_and_unknown_axes_fail() {
        // --show-spec prints the resolved spec and runs nothing, so this is
        // cheap; a bad key must fail with exit code 2 before any simulation.
        assert_eq!(
            run(&[
                "run",
                "--show-spec",
                "--set",
                "topology=grid",
                "--set",
                "nodes=96",
                "--set",
                "link.loss_floor=0.05",
            ]),
            0
        );
        assert_eq!(run(&["run", "--show-spec", "--set", "warp=9"]), 2);
        assert_eq!(run(&["run", "--show-spec", "--set", "nodes"]), 2);
        assert_eq!(run(&["run", "--show-spec", "--set", "policy=ghost"]), 2);
    }

    #[test]
    fn repeated_set_flags_apply_in_order() {
        let args = s(&["--set", "nodes=8", "--set=nodes=96", "--show-spec"]);
        let parsed = Args::parse(command(&["run"]), &args).unwrap();
        let all: Vec<&str> = parsed.values("set").collect();
        assert_eq!(all, ["nodes=8", "nodes=96"]);
        let mut options = SuiteOptions::quick_smoke();
        for payload in all {
            options.overrides.push(parse_set(payload).unwrap());
        }
        assert_eq!(options.base_config().unwrap().num_nodes, 96);
        assert!(parse_set("nodes").is_err());
    }

    #[test]
    fn unknown_command_and_experiment_are_rejected() {
        assert_eq!(run(&["frobnicate"]), 2);
        assert_eq!(run(&["run", "fig9"]), 2);
        assert_eq!(run(&["run", "--trials=0", "fig5"]), 2);
        assert_eq!(run(&["check", "--chaos"]), 2);
        assert_eq!(run(&["calibrate"]), 2);
        assert_eq!(run(&["history"]), 2);
        assert_eq!(run(&["store"]), 2);
        assert_eq!(run(&["store", "bogus"]), 2);
        assert_eq!(run(&["serve"]), 2);
        assert!(error(&["serve", "serve"]).starts_with("unknown command `serve serve`"));
        assert_eq!(run(&["trace", "ghost"]), 2);
        assert_eq!(run(&["trace", "scoop", "bogus"]), 2);
        assert_eq!(run(&["trace", "scoop", "real", "many"]), 2);
        assert_eq!(run(&["trace", "scoop", "real", "1"]), 2);
        assert_eq!(run(&["trace", "scoop", "real", "40000"]), 2);
        assert_eq!(run(&["trace", "scoop", "real", "10", "extra"]), 2);
        assert_eq!(run(&[]), 2);
    }

    #[test]
    fn help_names_every_command_and_experiment() {
        for args in [&["help"][..], &["--help"], &["-h"]] {
            let mut stdout = Vec::new();
            assert_eq!(run_cli(&s(args), &mut stdout), 0);
            let help = String::from_utf8(stdout).unwrap();
            assert_eq!(help, usage() + "\n");
        }
        let help = usage();
        for command in COMMANDS {
            assert!(help.contains(&format!("  {}", command.path.join(" "))));
        }
        let words: Vec<&str> = help.split_whitespace().collect();
        for id in ExperimentId::ALL {
            assert!(words.contains(&id.slug()), "help omits `{}`", id.slug());
        }
        assert!(help.lines().all(|line| line.len() <= 80), "{help}");
    }

    #[test]
    fn usage_lines_are_the_grammar() {
        fn grammar(path: &[&str]) -> (Vec<&'static str>, Vec<&'static str>, usize) {
            let command = command(path);
            let (values, flags): (Vec<_>, Vec<_>) = command.options().partition(|&(_, v)| v);
            let names = |options: Vec<(&'static str, bool)>| options.iter().map(|o| o.0).collect();
            (names(values), names(flags), command.positionals())
        }
        let ingest = grammar(&["store", "ingest"]);
        assert_eq!(
            ingest,
            (
                vec!["db", "artifact", "set", "block-size", "dump"],
                vec!["sim", "paper", "compact"],
                0
            )
        );
        let query = grammar(&["store", "query"]);
        assert_eq!(query.0, ["db", "at", "from", "to", "out"]);
        assert_eq!(query.1, ["all", "json"]);
        let listen = grammar(&["serve", "listen"]);
        assert_eq!(
            listen.0,
            ["addr", "queue", "cache", "tick-ms", "scale", "persist"]
        );
        assert_eq!(grammar(&["run"]).1, ["quick", "json", "show-spec"]);
        assert_eq!(grammar(&["run"]).2, usize::MAX);
        assert_eq!(grammar(&["trace"]), (vec![], vec![], 3));
        assert_eq!(grammar(&["help"]), (vec![], vec![], 0));
    }

    #[test]
    fn inverted_ranges_are_refused_before_any_connect_or_open() {
        let db = std::env::temp_dir().join(format!("scoop-lab-inverted-{}", std::process::id()));
        let db_arg = db.display().to_string();
        let addr = "--addr=127.0.0.1:9";
        for args in [
            &["serve", "query", addr, "--lo=9", "--hi=1"][..],
            &["serve", "query", addr, "--from-ms=9", "--to-ms=1"],
            &[
                "store", "query", "--db", &db_arg, "--from", "9", "--to", "1",
            ],
        ] {
            assert!(error(args).contains("inverted"), "{args:?}");
            assert_eq!(run(args), 2);
        }
        assert!(!db.exists(), "a refused query must not create the store");
    }

    #[test]
    fn ingest_refuses_simulation_options_without_sim() {
        let db = std::env::temp_dir().join(format!("scoop-lab-no-sim-{}", std::process::id()));
        let db_arg = db.display().to_string();
        let artifact = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/fig3-left.json");
        for extra in [&["--paper"][..], &["--set", "nodes=8"]] {
            let mut args = vec!["store", "ingest", "--db", &db_arg, "--artifact", artifact];
            args.extend_from_slice(extra);
            assert!(error(&args).contains("--sim"), "{args:?}");
            assert_eq!(run(&args), 2);
        }
        assert!(!db.exists(), "a refused ingest must not create the store");
    }

    #[test]
    fn only_ingest_takes_a_block_size() {
        let db = std::env::temp_dir().join(format!("scoop-lab-block-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&db);
        let db_arg = db.display().to_string();
        let artifact = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/fig3-left.json");
        let ingest = ["store", "ingest", "--db", &db_arg, "--artifact", artifact];
        assert_eq!(run(&[&ingest[..], &["--block-size", "64"]].concat()), 0);
        for read in [
            &["store", "query", "--db", &db_arg, "--all"][..],
            &["store", "stats", "--db", &db_arg],
        ] {
            assert_eq!(run(read), 0, "{read:?}");
            let with_size = [read, &["--block-size", "64"]].concat();
            assert!(error(&with_size).contains("--block-size"), "{read:?}");
            assert_eq!(run(&with_size), 2, "{read:?}");
        }
        std::fs::remove_dir_all(&db).unwrap();
    }

    #[test]
    fn store_reads_refuse_a_missing_db() {
        let db = std::env::temp_dir().join(format!("scoop-lab-no-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&db);
        let db_arg = db.display().to_string();
        for (sub, extra) in [("query", "--all"), ("stats", "--json")] {
            assert_eq!(run(&["store", sub, "--db", &db_arg, extra]), 2);
        }
        assert!(!db.exists(), "a read must not create the store");
    }

    #[test]
    fn run_report_diff_cycle_in_temp_dir() {
        let dir = std::env::temp_dir().join(format!("scoop-lab-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let results = dir.join("results");
        let out = dir.join("EXPERIMENTS.md");
        let code = run(&[
            "run",
            "--quick",
            "--trials=1",
            &format!("--results={}", results.display()),
            "fig3-middle",
            "fig5",
        ]);
        assert_eq!(code, 0);
        assert!(results.join("fig3-middle.json").exists());
        let fig5 = ArtifactStore::new(&results).load("fig5").unwrap();
        assert_eq!(fig5.experiment, "fig5");
        assert_eq!(fig5.scale, "quick");
        assert_eq!(fig5.trials, 1);
        assert!(!fig5.rows.is_empty());

        let code = run(&[
            "report",
            &format!("--results={}", results.display()),
            &format!("--out={}", out.display()),
        ]);
        assert_eq!(code, 0);
        let md = std::fs::read_to_string(&out).unwrap();
        assert!(md.contains("Figure 3 (middle)"));
        assert!(md.contains("vs. paper"));

        let code = run(&["diff", &format!("--results={}", results.display())]);
        assert_eq!(code, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
