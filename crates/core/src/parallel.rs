//! Deterministic parallel execution of independent simulation jobs.
//!
//! Every figure in the paper is a grid of *independent* simulations —
//! topology family × node count × traffic scenario × injection rate ×
//! replication seed. Each job owns its own RNG (seeded from
//! `config.seed + replication`), so jobs can run on any thread in any
//! order as long as their results are reassembled in job order. This
//! module provides that engine:
//!
//! 1. callers flatten their loops into an indexed job list;
//! 2. [`run_indexed`] executes the jobs on a scoped-thread worker pool
//!    ([`std::thread::scope`], no extra dependencies), workers pulling
//!    the next job index from a shared atomic counter;
//! 3. results land in per-index slots and are returned in job order.
//!
//! Because job index — not thread schedule — determines where a result
//! lands, output is **bit-identical** to a sequential run for any
//! worker count (asserted by `tests/parallel_determinism.rs`).
//!
//! Worker count comes from a [`Parallelism`] option. The default,
//! [`Parallelism::Auto`], honors the `NOC_THREADS` environment variable
//! and otherwise uses all available cores, so existing entry points
//! parallelize without signature changes.

use crate::{CoreError, Experiment, RunResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-count policy for the parallel experiment engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Parallelism {
    /// `NOC_THREADS` if set to a positive integer, otherwise all
    /// available cores.
    #[default]
    Auto,
    /// One worker on the calling thread; never spawns.
    Sequential,
    /// Exactly this many workers (explicit choice, e.g. a CLI flag;
    /// wins over `NOC_THREADS`). Zero is clamped to one.
    Fixed(usize),
}

impl Parallelism {
    /// Resolves the policy to a concrete worker count (≥ 1).
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => env_threads().unwrap_or_else(available_cores),
        }
    }
}

/// The `NOC_THREADS` override, if set to a positive integer.
fn env_threads() -> Option<usize> {
    std::env::var("NOC_THREADS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
}

/// Cores available to this process (1 if undetectable).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `jobs` under the given parallelism and returns their results
/// **in job order**, regardless of which worker ran which job.
///
/// With one worker (or one job) the jobs run inline on the calling
/// thread — the sequential baseline is literally this same code path.
/// A panicking job propagates after all workers join (via
/// [`std::thread::scope`]).
pub fn run_indexed<T, F>(jobs: Vec<F>, parallelism: Parallelism) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let workers = parallelism.worker_count().min(n);
    if workers <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    // Jobs are taken (FnOnce) and results stored through per-index
    // mutexes; contention is negligible because each is touched once
    // and jobs are long compared to a lock round trip.
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let job = jobs[index]
                    .lock()
                    .expect("job mutex poisoned")
                    .take()
                    .expect("job taken twice");
                let result = job();
                *slots[index].lock().expect("slot mutex poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot mutex poisoned")
                .expect("worker completed every claimed job")
        })
        .collect()
}

/// Runs a flattened list of experiments through the engine, returning
/// their run results in list order. Each experiment runs with its own
/// `config.seed` (see [`Experiment::replicas`]).
///
/// When the `NOC_CACHE` environment variable enables the experiment
/// cache (see [`crate::cache::ExperimentCache::from_env`]), cached
/// points are answered from disk and only the misses are simulated —
/// every caller (`run_replicated`, `sweep_rates`, the figure
/// functions) becomes incremental through this single funnel.
///
/// # Errors
///
/// If any job fails, returns the error of the **lowest-index** failing
/// job — the same error a sequential loop would have stopped at, so
/// error reporting is deterministic too.
pub fn run_experiment_jobs(
    jobs: Vec<Experiment>,
    parallelism: Parallelism,
) -> Result<Vec<RunResult>, CoreError> {
    run_experiment_jobs_with_cache(
        jobs,
        parallelism,
        &crate::cache::ExperimentCache::from_env(),
    )
    .map(|(results, _)| results)
}

/// The incremental scheduler behind [`run_experiment_jobs`]: partitions
/// jobs into cache hits and misses, hands only the misses to the
/// parallel engine, splices the results back **in job order** and
/// stores fresh results for the next run.
///
/// Output is bit-identical to an uncached run: a hit is exactly the
/// [`RunResult`] a fresh simulation would return (the conformance
/// harness asserts this), and result order never depends on which
/// points hit. Cache I/O failures degrade to recomputation, never to a
/// run failure. Returns this call's own hit/miss/store counts with the
/// results (zero when the cache is disabled); they are also added to
/// the process-wide [`crate::cache::counters`].
///
/// # Errors
///
/// Same contract as [`run_experiment_jobs`]: the lowest-index failing
/// job's error. (Hits cannot fail, and misses keep their original
/// relative order, so the first miss error *is* the lowest-index one.)
pub fn run_experiment_jobs_with_cache(
    jobs: Vec<Experiment>,
    parallelism: Parallelism,
    cache: &crate::cache::ExperimentCache,
) -> Result<(Vec<RunResult>, crate::cache::CacheCounters), CoreError> {
    use crate::cache::CacheCounters;
    if !cache.is_enabled() {
        let closures: Vec<_> = jobs.into_iter().map(|job| move || job.run()).collect();
        let results = run_indexed(closures, parallelism)
            .into_iter()
            .collect::<Result<_, _>>()?;
        return Ok((results, CacheCounters::default()));
    }

    // Partition: fill hit slots immediately, keep misses (with their
    // original index) in ascending order.
    let mut slots: Vec<Option<RunResult>> = Vec::with_capacity(jobs.len());
    let mut misses: Vec<(usize, Experiment)> = Vec::new();
    let mut hits: u64 = 0;
    for (index, job) in jobs.into_iter().enumerate() {
        match cache.lookup(&job, job.config.seed) {
            Some(result) => {
                hits += 1;
                slots.push(Some(result));
            }
            None => {
                slots.push(None);
                misses.push((index, job));
            }
        }
    }

    // Simulate only the misses. Closures borrow the jobs (run_indexed
    // spawns scoped threads, so non-'static borrows are fine) because
    // each job is needed again afterwards to store its result.
    let computed = run_indexed(
        misses.iter().map(|(_, job)| move || job.run()).collect(),
        parallelism,
    );
    let miss_count = misses.len() as u64;
    let mut stores: u64 = 0;
    let mut splice = Vec::with_capacity(computed.len());
    let mut first_error: Option<CoreError> = None;
    for ((index, job), outcome) in misses.iter().zip(computed) {
        match outcome {
            Ok(result) => {
                // Best-effort: successes are worth keeping even when a
                // sibling job failed the overall call.
                if cache.store(job, job.config.seed, &result).unwrap_or(false) {
                    stores += 1;
                }
                splice.push((*index, result));
            }
            Err(error) => {
                if first_error.is_none() {
                    first_error = Some(error);
                }
            }
        }
    }
    let counters = CacheCounters {
        hits,
        misses: miss_count,
        stores,
    };
    crate::cache::record_counters(counters);
    cache.enforce_env_limit();
    if let Some(error) = first_error {
        return Err(error);
    }
    for (index, result) in splice {
        slots[index] = Some(result);
    }
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every job hit or was simulated"))
        .collect();
    Ok((results, counters))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<_> = (0..64usize)
            .map(|i| {
                move || {
                    // Vary per-job runtime so threads finish out of order.
                    let mut acc = i as u64;
                    for _ in 0..((64 - i) * 1000) {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    (i, acc & 0xFF)
                }
            })
            .collect();
        let out = run_indexed(jobs, Parallelism::Fixed(4));
        let indices: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_fixed_agree() {
        let mk = || (0..20usize).map(|i| move || i * i).collect::<Vec<_>>();
        assert_eq!(
            run_indexed(mk(), Parallelism::Sequential),
            run_indexed(mk(), Parallelism::Fixed(7))
        );
    }

    #[test]
    fn worker_count_policies() {
        assert_eq!(Parallelism::Sequential.worker_count(), 1);
        assert_eq!(Parallelism::Fixed(3).worker_count(), 3);
        assert_eq!(Parallelism::Fixed(0).worker_count(), 1);
        assert!(Parallelism::Auto.worker_count() >= 1);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u32> = run_indexed(Vec::<fn() -> u32>::new(), Parallelism::Auto);
        assert!(out.is_empty());
    }

    #[test]
    fn first_error_in_index_order_wins() {
        use crate::{TopologySpec, TrafficSpec};
        use noc_sim::SimConfig;
        // Index 1 has an invalid topology (too few nodes); index 3 too.
        // The engine must report index 1's error, as a sequential loop
        // would.
        let good = Experiment {
            topology: TopologySpec::Spidergon { nodes: 8 },
            traffic: TrafficSpec::Uniform,
            config: SimConfig::builder()
                .warmup_cycles(10)
                .measure_cycles(50)
                .build()
                .unwrap(),
        };
        let bad = |nodes| Experiment {
            topology: TopologySpec::Ring { nodes },
            ..good.clone()
        };
        let jobs = vec![good.clone(), bad(1), good.clone(), bad(2)];
        let expected = jobs[1].run().unwrap_err().to_string();
        let err = run_experiment_jobs(jobs, Parallelism::Fixed(4)).unwrap_err();
        assert_eq!(err.to_string(), expected);
    }
}
