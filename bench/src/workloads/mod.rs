//! The seven workloads. Each runs in a process of its own (so `VmHWM` is
//! that workload's), measures one family of end-to-end metrics, and checks
//! the program's outputs as it goes.

pub mod serve;
pub mod sim;
pub mod store;

use crate::metrics::Report;
use crate::trace::Tracer;
use std::time::Instant;

/// One workload: its name, why it was chosen, and its entry point.
pub struct Workload {
    /// Name, as `--workload` and `BENCHMARK.json` spell it.
    pub name: &'static str,
    /// One line on what the workload loads and what it bypasses.
    pub why: &'static str,
    /// Runs the workload into `ctx.report`.
    pub run: fn(&mut Ctx) -> Result<(), String>,
}

/// Every workload, in the order the suite runs them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sim-paper62",
        why: "paper scale: 62 nodes, four policies, three query kinds, federation; loads SimNode handlers, routing/trickle and the 62-owner remap, bypasses heap depth and link generation",
        run: sim::paper62,
    },
    Workload {
        name: "sim-scoop1k",
        why: "SCOOP on a 1024-sensor grid: the basestation remap (IndexBuilder/CostModel) dominates; engine-only changes should not move it",
        run: sim::scoop1k,
    },
    Workload {
        name: "sim-hash32k",
        why: "HASH at the 32,767-sensor MAX_NODES cap: no remap, deepest event heap, largest per-node state, set-up larger than the run; loads queue, CSR links and generators",
        run: sim::hash32k,
    },
    Workload {
        name: "store-bulk",
        why: "4M-record log, writes then reads: ingest, seal/index build, compaction and lookup each own a phase; bypasses the interleaved commit path",
        run: store::bulk,
    },
    Workload {
        name: "store-mixed",
        why: "one 62-record append then one lookup per round: every query's implicit commit seals a tiny segment; loads the interleaved path that bulk ingest bypasses",
        run: store::mixed,
    },
    Workload {
        name: "serve-tcp-hot",
        why: "recurring predicates over one loopback connection, 256 pipelined: cache-hit, transport-bound path; bypasses evaluation and row encoding",
        run: serve::hot,
    },
    Workload {
        name: "serve-tcp-cold",
        why: "restart over a 2M-record log, then never-repeating wide predicates: loads preload, evaluation, row encoding and response bytes; bypasses cache and coalescing",
        run: serve::cold,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `--seconds` the workloads are sized for: at this value the measured
/// phases do the amounts of work `bench/README.md` lists.
pub const REFERENCE_SECONDS: f64 = 10.0;

/// What a workload gets: the seed, how much repeatable work to do, the
/// tracer, and the report to fill.
pub struct Ctx {
    /// `--seed`; feeds only the generators and the scenario seeds.
    pub seed: u64,
    /// `--seconds / REFERENCE_SECONDS`: scales repetitions, query counts and
    /// simulated durations — never node counts, record counts or the
    /// request window.
    pub scale: f64,
    /// Records spans when this is the traced run.
    pub tracer: Tracer,
    /// Readings and check outcomes.
    pub report: Report,
}

impl Ctx {
    /// A context for one run.
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Self {
        Ctx {
            seed,
            scale: seconds / REFERENCE_SECONDS,
            tracer: Tracer::new(traced, Instant::now(), 0),
            report: Report::new(),
        }
    }

    /// Whether this is the traced run (isolated layer measurements run only
    /// then).
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// `base` scaled by `--seconds`, at least `min`.
    pub fn scaled(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(min)
    }
}

/// Seconds `f` took, and what it returned.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// The fastest of `repetitions` runs of `f`, in seconds, and the last
/// run's output. Set-up is timed this way: interference on a shared sandbox
/// only ever slows a run down, so the fastest repetition is the steadiest
/// estimate of what the set-up itself costs.
pub fn fastest<R>(repetitions: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let (mut best, mut out) = timed(&mut f);
    for _ in 1..repetitions {
        let (secs, next) = timed(&mut f);
        best = best.min(secs);
        out = next;
    }
    (best, out)
}

/// Total work over total seconds.
pub fn total_rate(slices: &[(f64, f64)]) -> f64 {
    let (work, secs) = slices
        .iter()
        .fold((0.0, 0.0), |(w, s), (dw, ds)| (w + dw, s + ds));
    if secs > 0.0 {
        work / secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for w in WORKLOADS {
            assert!(crate::metrics::valid_name(w.name));
            assert!(seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(find("store-bulk").is_some() && find("nope").is_none());
    }

    #[test]
    fn rates() {
        let slices = [(100.0, 1.0), (100.0, 2.0), (100.0, 4.0), (100.0, 1.0)];
        assert_eq!(total_rate(&slices), 50.0);
        assert_eq!(total_rate(&[]), 0.0);
        let mut calls = 0;
        let (secs, last) = fastest(3, || {
            calls += 1;
            calls
        });
        assert!(secs >= 0.0 && last == 3);
        assert_eq!(Ctx::new(1, 5.0, false).scaled(100, 1), 50);
        assert_eq!(Ctx::new(1, 1.0, false).scaled(2, 1), 1);
    }
}
