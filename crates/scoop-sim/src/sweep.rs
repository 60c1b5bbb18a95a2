//! The parallel, deterministic scenario runner.
//!
//! Every figure in the paper's evaluation is a *sweep*: the same experiment
//! repeated over a grid of configurations (policies × data sources × knob
//! values) and several seeds per point. Runs are completely independent —
//! per-run state is owned and `Send` (see [`crate::runner`]) — so the sweep
//! layer executes them across threads and collects results **by job index**,
//! making the output bit-identical to a sequential run regardless of thread
//! count or completion order.
//!
//! * [`Scenario`] — one named configuration.
//! * [`ScenarioSuite`] — a named list of scenarios plus a trial count; the
//!   declarative form every `experiments::*` module now reduces to.
//! * [`SweepRunner`] — executes a suite (or a bare config grid) over a worker
//!   pool sized by [`SweepRunner::with_threads`], the
//!   `SCOOP_SWEEP_THREADS` environment variable, or the machine's available
//!   parallelism, in that order of precedence.

use crate::metrics::RunResult;
use crate::runner::{average_results, run_experiment};
use scoop_types::{ScenarioSpec, ScoopError};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One named point of a sweep.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable label (used in reports and error messages).
    pub label: String,
    /// The configuration to run.
    pub config: ScenarioSpec,
}

impl Scenario {
    /// Creates a scenario.
    pub fn new(label: impl Into<String>, config: ScenarioSpec) -> Self {
        Scenario {
            label: label.into(),
            config,
        }
    }
}

/// A declarative description of one whole sweep.
#[derive(Clone, Debug)]
pub struct ScenarioSuite {
    /// Name of the suite (e.g. `"fig3-left"`).
    pub name: String,
    /// The scenarios, in presentation order.
    pub scenarios: Vec<Scenario>,
    /// Trials per scenario; trial `t` runs with `config.seed + t`, matching
    /// [`crate::runner::run_trials`].
    pub trials: usize,
}

impl ScenarioSuite {
    /// Creates an empty suite running `trials` trials per scenario.
    pub fn new(name: impl Into<String>, trials: usize) -> Self {
        ScenarioSuite {
            name: name.into(),
            scenarios: Vec::new(),
            trials: trials.max(1),
        }
    }

    /// Adds one scenario (builder style).
    pub fn scenario(mut self, label: impl Into<String>, config: ScenarioSpec) -> Self {
        self.scenarios.push(Scenario::new(label, config));
        self
    }

    /// Builds a suite by applying `make` to every grid point. The label is
    /// `make`'s first return; the config its second.
    pub fn from_grid<P>(
        name: impl Into<String>,
        trials: usize,
        points: impl IntoIterator<Item = P>,
        mut make: impl FnMut(P) -> (String, ScenarioSpec),
    ) -> Self {
        let mut suite = ScenarioSuite::new(name, trials);
        for point in points {
            let (label, config) = make(point);
            suite.scenarios.push(Scenario::new(label, config));
        }
        suite
    }

    /// Total number of simulation runs this suite expands to.
    pub fn job_count(&self) -> usize {
        self.scenarios.len() * self.trials
    }
}

/// The result of one scenario: every trial plus their average.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Label copied from the scenario.
    pub label: String,
    /// One result per trial, in seed order.
    pub trials: Vec<RunResult>,
    /// Element-wise average of `trials` (the number each figure plots).
    pub averaged: RunResult,
}

/// The results of a whole suite, in scenario order.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Name copied from the suite.
    pub suite: String,
    /// One entry per scenario, in the suite's order.
    pub results: Vec<ScenarioResult>,
}

impl SweepReport {
    /// The averaged results, in scenario order (the common consumption shape).
    pub fn averaged(&self) -> impl Iterator<Item = &RunResult> {
        self.results.iter().map(|r| &r.averaged)
    }
}

/// Executes sweeps over a fixed-size worker pool.
#[derive(Clone, Copy, Debug)]
pub struct SweepRunner {
    threads: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::from_env()
    }
}

impl SweepRunner {
    /// A runner using exactly `threads` workers (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// A strictly sequential runner (the baseline the parallel path must
    /// match bit for bit).
    pub fn sequential() -> Self {
        SweepRunner::with_threads(1)
    }

    /// Thread count from `SCOOP_SWEEP_THREADS` if set, otherwise the
    /// machine's available parallelism.
    pub fn from_env() -> Self {
        let threads = std::env::var("SCOOP_SWEEP_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        SweepRunner::with_threads(threads)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every config once, in parallel, returning results in input
    /// order. The output is independent of thread count and scheduling: each
    /// run's randomness derives only from its own config, and results are
    /// placed by job index rather than completion order.
    pub fn run_configs(&self, configs: &[ScenarioSpec]) -> Result<Vec<RunResult>, ScoopError> {
        // Fail fast on invalid configs so errors do not depend on which
        // worker happens to reach a bad job first.
        for config in configs {
            config.validate()?;
        }
        let workers = self.threads.min(configs.len()).max(1);
        if workers == 1 {
            return configs.iter().map(run_experiment).collect();
        }

        // Workers pull jobs off a shared counter but collect results into
        // *per-worker* buffers tagged with the job index; the buffers are
        // merged by index after every worker joins. No lock is taken per
        // job (the old `Mutex<Vec<Option<..>>>` serialized every completion),
        // and the output order still depends only on the job indices — never
        // on scheduling.
        let next_job = AtomicUsize::new(0);
        let mut completed: Vec<(usize, Result<RunResult, ScoopError>)> =
            Vec::with_capacity(configs.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut completed: Vec<(usize, Result<RunResult, ScoopError>)> = Vec::new();
                        loop {
                            let job = next_job.fetch_add(1, Ordering::Relaxed);
                            let Some(config) = configs.get(job) else {
                                break;
                            };
                            completed.push((job, run_experiment(config)));
                        }
                        completed
                    })
                })
                .collect();
            for handle in handles {
                // A worker that panicked re-raises its own panic here.
                completed.extend(
                    handle
                        .join()
                        .unwrap_or_else(|p| std::panic::resume_unwind(p)),
                );
            }
        });
        // Every job index is claimed by exactly one worker.
        completed.sort_unstable_by_key(|&(job, _)| job);
        completed.into_iter().map(|(_, result)| result).collect()
    }

    /// Runs a whole suite: `trials` seeds per scenario, every run scheduled
    /// onto the pool at once (so narrow suites with many trials still fill
    /// all workers), averaged per scenario afterwards.
    pub fn run(&self, suite: &ScenarioSuite) -> Result<SweepReport, ScoopError> {
        // Re-clamp here: `trials` is a public field, so a caller can bypass
        // the constructor's max(1) and would otherwise average no trials.
        let trials = suite.trials.max(1);
        let mut jobs = Vec::with_capacity(suite.scenarios.len() * trials);
        for scenario in &suite.scenarios {
            for trial in 0..trials {
                let mut config = scenario.config.clone();
                config.seed = scenario.config.seed + trial as u64;
                jobs.push(config);
            }
        }
        let mut flat = self.run_configs(&jobs)?.into_iter();
        let mut results = Vec::with_capacity(suite.scenarios.len());
        for scenario in &suite.scenarios {
            let trials: Vec<RunResult> = flat.by_ref().take(trials).collect();
            let Some(averaged) = average_results(&trials) else {
                return Err(ScoopError::Simulation(format!(
                    "scenario `{}` produced no trial results",
                    scenario.label
                )));
            };
            results.push(ScenarioResult {
                label: scenario.label.clone(),
                trials,
                averaged,
            });
        }
        Ok(SweepReport {
            suite: suite.name.clone(),
            results,
        })
    }
}

/// Compile-time proof that whole runs can migrate between threads; this is
/// the property the `Rc<RefCell<...>>` workload sharing used to break.
#[allow(dead_code)]
fn assert_run_state_is_send() {
    fn is_send<T: Send>() {}
    is_send::<scoop_net::Engine<crate::node::SimNode>>();
    is_send::<RunResult>();
    is_send::<ScenarioSpec>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::{DataSourceKind, StoragePolicy};

    fn tiny(policy: StoragePolicy, source: DataSourceKind, seed: u64) -> ScenarioSpec {
        let mut cfg = ScenarioSpec::small_test();
        cfg.num_nodes = 8;
        cfg.duration = scoop_types::SimDuration::from_mins(6);
        cfg.warmup = scoop_types::SimDuration::from_mins(2);
        cfg.policy.kind = policy;
        cfg.workload.data_source = source;
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let configs: Vec<ScenarioSpec> = vec![
            tiny(StoragePolicy::Scoop, DataSourceKind::Unique, 1),
            tiny(StoragePolicy::Base, DataSourceKind::Gaussian, 2),
            tiny(StoragePolicy::Local, DataSourceKind::Random, 3),
            tiny(StoragePolicy::Hash, DataSourceKind::Real, 4),
        ];
        let sequential = SweepRunner::sequential().run_configs(&configs).unwrap();
        let parallel = SweepRunner::with_threads(4).run_configs(&configs).unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn suite_trials_match_run_trials_seeding() {
        let cfg = tiny(StoragePolicy::Base, DataSourceKind::Gaussian, 7);
        let suite = ScenarioSuite::new("s", 2).scenario("base", cfg.clone());
        let report = SweepRunner::with_threads(2).run(&suite).unwrap();
        let expected = crate::runner::run_trials(&cfg, 2).unwrap();
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.results[0].trials, expected);
        let averaged = crate::runner::average_results(&expected).unwrap();
        assert_eq!(report.results[0].averaged, averaged);
    }

    #[test]
    fn from_grid_preserves_order() {
        let suite = ScenarioSuite::from_grid("g", 1, [5u64, 9, 13], |seed| {
            (
                format!("seed-{seed}"),
                tiny(StoragePolicy::Base, DataSourceKind::Unique, seed),
            )
        });
        assert_eq!(suite.job_count(), 3);
        let labels: Vec<&str> = suite.scenarios.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["seed-5", "seed-9", "seed-13"]);
        let report = SweepRunner::with_threads(3).run(&suite).unwrap();
        let seeds: Vec<u64> = report
            .results
            .iter()
            .map(|r| r.trials[0].config.seed)
            .collect();
        assert_eq!(seeds, [5, 9, 13]);
    }

    #[test]
    fn invalid_config_fails_the_whole_sweep_deterministically() {
        let mut bad = tiny(StoragePolicy::Scoop, DataSourceKind::Unique, 1);
        bad.num_nodes = 0;
        let configs = vec![tiny(StoragePolicy::Base, DataSourceKind::Unique, 1), bad];
        let err = SweepRunner::with_threads(4).run_configs(&configs);
        assert!(err.is_err());
    }

    #[test]
    fn zero_trials_field_is_clamped_not_panicking() {
        let mut suite = ScenarioSuite::new("z", 1)
            .scenario("base", tiny(StoragePolicy::Base, DataSourceKind::Unique, 3));
        suite.trials = 0; // bypasses the constructor clamp via the pub field
        let report = SweepRunner::sequential().run(&suite).unwrap();
        assert_eq!(report.results[0].trials.len(), 1);
    }

    #[test]
    fn thread_count_is_clamped_and_reported() {
        assert_eq!(SweepRunner::with_threads(0).threads(), 1);
        assert_eq!(SweepRunner::sequential().threads(), 1);
        assert!(SweepRunner::from_env().threads() >= 1);
    }
}
