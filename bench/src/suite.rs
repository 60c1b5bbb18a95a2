//! Suite mode: one child process per workload (so each workload's `VmHWM`
//! is its own), readings collected into one JSON file, and the comparison of
//! two such files.

use crate::metrics::{lookup, Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, sorted};
use crate::workloads::WORKLOADS;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// What suite mode was asked to do.
pub struct SuiteArgs {
    /// Run only this workload.
    pub workload: Option<String>,
    /// Seed of the first repetition; repetition `r` uses `seed + r`.
    pub seed: u64,
    /// `--seconds` passed to every child.
    pub seconds: f64,
    /// Also run every workload traced, for the per-layer metrics.
    pub traced: bool,
    /// How many times to run the whole set.
    pub repeat: usize,
    /// Where to write the readings as JSON.
    pub out: Option<String>,
}

/// The readings of one workload across repetitions.
#[derive(Default)]
struct Collected {
    metrics: BTreeMap<String, Vec<f64>>,
    notes: BTreeMap<String, Vec<String>>,
    attempted: u64,
    failed: u64,
}

/// Runs one workload in a child process and returns its stdout lines. The
/// child's stderr is passed through; `output` waits for it to end.
fn child(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<(Vec<String>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    Ok((
        stdout.lines().map(str::to_string).collect(),
        output.status.success(),
    ))
}

/// Splits a child's report into readings and notes; the last line (the
/// contract's result object) yields `attempted` and `failed`.
fn absorb(lines: &[String], into: &mut Collected, slot: Option<usize>) {
    for line in lines {
        if line.starts_with('{') {
            if let Ok(result) = serde_json::from_str::<Value>(line) {
                let count = |key| result.get(key).and_then(Value::as_u64).unwrap_or(0);
                into.attempted += count("attempted");
                into.failed += count("failed");
            }
            continue;
        }
        let mut tokens = line.split_whitespace();
        let (Some(name), Some(value)) = (tokens.next(), tokens.next()) else {
            continue;
        };
        match (lookup(name), value.parse::<f64>()) {
            (Some(_), Ok(v)) => put(into.metrics.entry(name.to_string()).or_default(), slot, v),
            _ => put(
                into.notes.entry(name.to_string()).or_default(),
                slot,
                value.to_string(),
            ),
        }
    }
}

/// Stores a repetition's value: in `slot` if that repetition already has one
/// (the untraced reading replaces the traced one — end-to-end metrics and
/// digests always come from the untraced run), appended otherwise.
fn put<T>(values: &mut Vec<T>, slot: Option<usize>, v: T) {
    match slot {
        Some(slot) if values.len() > slot => values[slot] = v,
        _ => values.push(v),
    }
}

/// The reading or note name a report line starts with.
fn line_name(line: &str) -> &str {
    line.split_whitespace().next().unwrap_or("")
}

/// Runs the suite, prints `workload name value unit` lines, and writes the
/// JSON file if asked. `Ok(false)` when any check failed.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![
            crate::workloads::find(name)
                .ok_or_else(|| format!("unknown workload {name}; try --list"))?
                .name,
        ],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# nproc {nproc}, seed {}, seconds {}, repeat {}",
        args.seed, args.seconds, args.repeat
    );
    let mut collected: BTreeMap<&str, Collected> = BTreeMap::new();
    let mut all_ok = true;
    for repetition in 0..args.repeat {
        let seed = args.seed + repetition as u64;
        for &name in &names {
            let entry = collected.entry(name).or_default();
            let mut traced_run_s = None;
            let mut traced_lines = Vec::new();
            if args.traced {
                let (lines, ok) = child(name, seed, args.seconds, true)?;
                all_ok &= ok;
                absorb(&lines, entry, None);
                traced_run_s = entry
                    .metrics
                    .get("run_s")
                    .and_then(|v| v.get(repetition))
                    .copied();
                traced_lines = lines;
            }
            let (lines, ok) = child(name, seed, args.seconds, false)?;
            all_ok &= ok;
            absorb(&lines, entry, args.traced.then_some(repetition));
            // Print the untraced report, then what only the traced run
            // measures (isolated layer probes, span-derived metrics).
            let untraced: std::collections::HashSet<&str> =
                lines.iter().map(|l| line_name(l)).collect();
            let extra = traced_lines
                .iter()
                .filter(|l| !untraced.contains(line_name(l)));
            for line in lines.iter().chain(extra).filter(|l| !l.starts_with('{')) {
                println!("{name} {line}");
            }
            // Tracing overhead as the guide defines it: the difference
            // between the traced and the untraced run of the same inputs.
            // On a noisy host it is dominated by the run-to-run spread;
            // `harness.trace_overhead_frac` is the in-process estimate.
            let untraced_run_s = entry.metrics.get("run_s").and_then(|v| v.get(repetition));
            if let (Some(traced), Some(&untraced)) = (traced_run_s, untraced_run_s) {
                if untraced > 0.0 {
                    println!(
                        "{name} trace_overhead_frac.{name} {} ratio",
                        traced / untraced - 1.0
                    );
                }
            }
        }
    }
    if let Some(path) = &args.out {
        let text = render(args, nproc, &collected)?;
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        println!("# readings written to {path}");
    }
    let failed: u64 = collected.values().map(|c| c.failed).sum();
    println!("# checks failed: {failed}");
    Ok(all_ok && failed == 0)
}

fn render(
    args: &SuiteArgs,
    nproc: usize,
    collected: &BTreeMap<&str, Collected>,
) -> Result<String, String> {
    let workloads = collected
        .iter()
        .map(|(name, c)| {
            let metrics = c
                .metrics
                .iter()
                .map(|(metric, values)| {
                    let unit = lookup(metric).map_or("", |m| m.unit);
                    let values = values.iter().map(|v| Value::F64(*v)).collect();
                    let fields = vec![
                        ("unit".to_string(), Value::Str(unit.to_string())),
                        ("values".to_string(), Value::Array(values)),
                    ];
                    (metric.clone(), Value::Object(fields))
                })
                .collect();
            let notes = c
                .notes
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        Value::Array(v.iter().cloned().map(Value::Str).collect()),
                    )
                })
                .collect();
            let fields = vec![
                ("attempted".to_string(), Value::U64(c.attempted)),
                ("failed".to_string(), Value::U64(c.failed)),
                ("metrics".to_string(), Value::Object(metrics)),
                ("notes".to_string(), Value::Object(notes)),
            ];
            (name.to_string(), Value::Object(fields))
        })
        .collect();
    let root = Value::Object(vec![
        ("seed".to_string(), Value::U64(args.seed)),
        ("seconds".to_string(), Value::F64(args.seconds)),
        ("repeat".to_string(), Value::U64(args.repeat as u64)),
        ("traced".to_string(), Value::Bool(args.traced)),
        ("nproc".to_string(), Value::U64(nproc as u64)),
        ("workloads".to_string(), Value::Object(workloads)),
    ]);
    serde_json::to_string_pretty(&root).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------- compare

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values.to_vec());
    let n = data.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 below two values.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1).abs() / m.abs(),
        _ => 0.0,
    }
}

/// The outcome of comparing one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The second reading is no worse than the first by more than the bound.
    Pass,
    /// It is worse by more than the bound, and the spread is inside it.
    Fail,
    /// The run-to-run spread is wider than the bound, so neither "unchanged"
    /// nor "regressed" can be claimed.
    Unresolved,
    /// The metric has no bound.
    Info,
}

/// By how much of `a`'s median `b`'s median is worse (negative: better).
pub fn worsening(def: &MetricDef, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let delta = match def.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if delta == 0.0 {
        0.0
    } else if ma == 0.0 {
        f64::INFINITY.copysign(delta)
    } else {
        delta / ma.abs()
    }
}

/// Judges `b` (the change) against `a` (the base) for one metric.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let Some(bound) = def.bound else {
        return Verdict::Info;
    };
    if spread(a) > bound || spread(b) > bound {
        let every_b_better = match def.better {
            Better::Lower => sorted(b.to_vec()).last() < sorted(a.to_vec()).first(),
            Better::Higher => sorted(b.to_vec()).first() > sorted(a.to_vec()).last(),
        };
        return if every_b_better {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(def, a, b) <= bound {
        Verdict::Pass
    } else {
        Verdict::Fail
    }
}

/// Workload → metric → one value per repetition.
type Readings = BTreeMap<String, BTreeMap<String, Vec<f64>>>;
/// Workload → note key → one text per repetition.
type Notes = BTreeMap<String, BTreeMap<String, Vec<String>>>;

fn load(path: &str) -> Result<(Readings, Notes), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = root
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{path}: no workloads object"))?;
    let mut readings = Readings::new();
    let mut notes = Notes::new();
    for (workload, body) in workloads {
        let metrics = body.get("metrics").and_then(Value::as_object);
        for (metric, entry) in metrics.into_iter().flatten() {
            let values = entry
                .get("values")
                .and_then(Value::as_array)
                .map(|vs| vs.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default();
            readings
                .entry(workload.clone())
                .or_default()
                .insert(metric.clone(), values);
        }
        let workload_notes: BTreeMap<String, Vec<String>> = body
            .get("notes")
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
            .map(|(k, v)| {
                let texts = v.as_array().into_iter().flatten();
                (
                    k.clone(),
                    texts
                        .filter_map(|t| t.as_str().map(str::to_string))
                        .collect(),
                )
            })
            .collect();
        notes.insert(workload.clone(), workload_notes);
    }
    Ok((readings, notes))
}

/// Prints, per workload × metric present in both files, the two medians,
/// their ratio with its base, and the verdict. `Ok(false)` on any FAIL or
/// any digest that differs.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let ((a, a_notes), (b, b_notes)) = (load(a_path)?, load(b_path)?);
    println!("# base A = {a_path}, change B = {b_path}; ratio = B / A");
    println!("# workload metric A B ratio unit bound worse_by verdict");
    let mut ok = true;
    for workload in WORKLOADS.iter().map(|w| w.name) {
        let (Some(ma), Some(mb)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let (Some(va), Some(vb)) = (ma.get(def.name), mb.get(def.name)) else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (med_a, med_b) = (median(va), median(vb));
            let ratio = if med_a != 0.0 {
                med_b / med_a
            } else {
                f64::NAN
            };
            let v = verdict(def, va, vb);
            ok &= v != Verdict::Fail;
            let bound = def.bound.map_or("-".to_string(), |b| format!("{b}"));
            println!(
                "{workload} {} {med_a} {med_b} {ratio:.4} {} {bound} {:+.4} {}",
                def.name,
                def.unit,
                worsening(def, va, vb),
                match v {
                    Verdict::Pass => "PASS",
                    Verdict::Fail => "FAIL",
                    Verdict::Unresolved => "UNRESOLVED",
                    Verdict::Info => "-",
                }
            );
        }
        // Digests compare exactly: same seed, same outputs.
        if let (Some(na), Some(nb)) = (a_notes.get(workload), b_notes.get(workload)) {
            for (key, texts) in na.iter().filter(|(k, _)| k.ends_with("_digest")) {
                if let Some(other) = nb.get(key) {
                    // Repetition r used seed S + r in both files; compare
                    // the repetitions both have.
                    let same = texts.iter().zip(other).all(|(a, b)| a == b);
                    ok &= same;
                    println!(
                        "{workload} {key} {}",
                        if same { "IDENTICAL" } else { "DIFFERS" }
                    );
                }
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        lookup(name).expect("registered")
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 5.5 / 5.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let p50 = def("store_point_p50_us"); // lower is better, 10 %
        assert_eq!(verdict(p50, &[100.0], &[109.0]), Verdict::Pass);
        assert_eq!(verdict(p50, &[100.0], &[111.0]), Verdict::Fail);
        assert_eq!(verdict(p50, &[100.0], &[50.0]), Verdict::Pass);
        let qps = def("serve_qps"); // higher is better, 10 %
        assert_eq!(verdict(qps, &[100.0], &[91.0]), Verdict::Pass);
        assert_eq!(verdict(qps, &[100.0], &[89.0]), Verdict::Fail);
        assert!((worsening(qps, &[100.0], &[89.0]) - 0.11).abs() < 1e-12);
        // A spread wider than the bound: unresolved, unless every run of the
        // change reads better than every run of the base.
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            verdict(qps, &noisy, &[90.0, 95.0, 100.0, 105.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(qps, &noisy, &[150.0, 151.0, 152.0, 153.0]),
            Verdict::Pass
        );
        // "Any increase" on the failure share.
        let failed = def("failed_frac");
        assert_eq!(verdict(failed, &[0.0], &[0.0]), Verdict::Pass);
        assert_eq!(verdict(failed, &[0.0], &[0.001]), Verdict::Fail);
        assert_eq!(
            verdict(def("store.pla_segments"), &[1.0], &[9.0]),
            Verdict::Info
        );
    }

    #[test]
    fn absorb_keeps_untraced_readings_over_traced_ones() {
        let mut c = Collected::default();
        let traced = [
            "sim_stats_digest fnv1a:00".to_string(),
            "run_s 2.5 s".to_string(),
            "serve.tick_ms.p50 1.5 ms n=9".to_string(),
        ];
        absorb(&traced, &mut c, None);
        let untraced = [
            "run_s 2.0 s".to_string(),
            "sim_stats_digest fnv1a:00".to_string(),
            "{\"correct\":true,\"attempted\":7,\"failed\":1,\"metrics\":{}}".to_string(),
        ];
        absorb(&untraced, &mut c, Some(0));
        assert_eq!(c.metrics["run_s"], vec![2.0]);
        assert_eq!(c.metrics["serve.tick_ms.p50"], vec![1.5]);
        assert_eq!(c.notes["sim_stats_digest"], vec!["fnv1a:00".to_string()]);
        assert_eq!((c.attempted, c.failed), (7, 1));
    }
}
