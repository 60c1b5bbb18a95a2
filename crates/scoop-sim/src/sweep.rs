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
//! [`SweepRunner`] owns a worker pool sized by [`SweepRunner::with_threads`],
//! the `SCOOP_SWEEP_THREADS` environment variable, or the machine's
//! available parallelism, in that order of precedence. It has two entry
//! points: [`SweepRunner::run_configs`] runs each config once, and
//! [`SweepRunner::averaged`] runs each config over several seeds and returns
//! their averages — the number every figure plots.

use crate::metrics::RunResult;
use crate::runner::{average_results, run_experiment};
use scoop_types::{ScenarioSpec, ScoopError};
use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// Runs every config `trials` times and returns each config's averaged
    /// result, in input order. Trial `t` of a config runs with
    /// `config.seed + t`; all `configs.len() × trials` runs go onto the pool
    /// at once, so a narrow grid with many trials still fills every worker.
    /// `trials` is clamped to at least 1.
    pub fn averaged(
        &self,
        configs: &[ScenarioSpec],
        trials: usize,
    ) -> Result<Vec<RunResult>, ScoopError> {
        let trials = trials.max(1);
        let jobs: Vec<ScenarioSpec> = configs
            .iter()
            .flat_map(|config| {
                (0..trials as u64).map(move |t| ScenarioSpec {
                    seed: config.seed + t,
                    ..config.clone()
                })
            })
            .collect();
        Ok(self
            .run_configs(&jobs)?
            .chunks_exact(trials)
            .filter_map(average_results)
            .collect())
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
    fn averaged_trials_run_seed_plus_t() {
        let cfg = tiny(StoragePolicy::Base, DataSourceKind::Gaussian, 7);
        let averaged = SweepRunner::with_threads(2)
            .averaged(std::slice::from_ref(&cfg), 2)
            .unwrap();
        let expected: Vec<RunResult> = (0..2)
            .map(|t| {
                let mut trial = cfg.clone();
                trial.seed = cfg.seed + t;
                run_experiment(&trial).unwrap()
            })
            .collect();
        assert_eq!(expected[0].config.seed, 7);
        assert_eq!(expected[1].config.seed, 8);
        assert_eq!(averaged, vec![average_results(&expected).unwrap()]);
    }

    #[test]
    fn averaged_preserves_input_order() {
        let configs: Vec<ScenarioSpec> = [5u64, 9, 13]
            .into_iter()
            .map(|seed| tiny(StoragePolicy::Base, DataSourceKind::Unique, seed))
            .collect();
        let averaged = SweepRunner::with_threads(3).averaged(&configs, 1).unwrap();
        let seeds: Vec<u64> = averaged.iter().map(|r| r.config.seed).collect();
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
    fn zero_trials_are_clamped_not_panicking() {
        let cfg = tiny(StoragePolicy::Base, DataSourceKind::Unique, 3);
        let averaged = SweepRunner::sequential()
            .averaged(std::slice::from_ref(&cfg), 0)
            .unwrap();
        assert_eq!(averaged, vec![run_experiment(&cfg).unwrap()]);
    }

    #[test]
    fn thread_count_is_clamped_and_reported() {
        assert_eq!(SweepRunner::with_threads(0).threads(), 1);
        assert_eq!(SweepRunner::sequential().threads(), 1);
        assert!(SweepRunner::from_env().threads() >= 1);
    }
}
