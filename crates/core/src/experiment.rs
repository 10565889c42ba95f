//! Running experiments: a (topology, traffic, configuration) triple,
//! single runs and seed-replicated aggregates.

use crate::parallel::{run_experiment_jobs, Parallelism};
use crate::{CoreError, TopologySpec, TrafficSpec};
use noc_sim::{LatencyStats, NullProbe, Probe, SimConfig, SimStats, Simulation};
use serde::{Deserialize, Serialize};

/// A fully-specified simulation experiment.
///
/// # Examples
///
/// ```
/// use noc_core::{Experiment, TopologySpec, TrafficSpec};
/// use noc_sim::SimConfig;
///
/// let exp = Experiment {
///     topology: TopologySpec::Spidergon { nodes: 8 },
///     traffic: TrafficSpec::Uniform,
///     config: SimConfig::builder()
///         .injection_rate(0.1)
///         .warmup_cycles(200)
///         .measure_cycles(2_000)
///         .build()?,
/// };
/// let result = exp.run()?;
/// assert!(result.stats.packets_delivered > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Experiment {
    /// Topology to simulate.
    pub topology: TopologySpec,
    /// Traffic pattern driving the sources.
    pub traffic: TrafficSpec,
    /// Simulator configuration (buffers, rates, windows, seed).
    pub config: SimConfig,
}

/// Outcome of one experiment run.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct RunResult {
    /// Label of the simulated topology (e.g. `"spidergon-16"`).
    pub topology_label: String,
    /// Label of the traffic pattern.
    pub traffic_label: String,
    /// Injection rate lambda used (flits/cycle per source).
    pub injection_rate: f64,
    /// Seed the run used.
    pub seed: u64,
    /// Raw simulator statistics.
    pub stats: SimStats,
}

impl RunResult {
    /// Aggregate throughput in flits/cycle.
    pub fn throughput(&self) -> f64 {
        self.stats.throughput_flits_per_cycle()
    }

    /// Mean packet latency in cycles (`NaN` if nothing was delivered).
    pub fn latency(&self) -> f64 {
        self.stats.latency.mean().unwrap_or(f64::NAN)
    }
}

impl Experiment {
    /// Builds and runs the simulation once. `config.seed` is the seed;
    /// `config.audit` attaches the runtime invariant auditor.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if the specs are invalid or the run
    /// stalls (deadlock watchdog).
    pub fn run(&self) -> Result<RunResult, CoreError> {
        self.run_with(NullProbe).map(|(result, _)| result)
    }

    /// [`run`](Self::run) with an observation probe attached
    /// ([`noc_sim::probe`]), returning the finished simulation beside
    /// the result. Read the probe back with
    /// [`Simulation::into_probe`] (e.g. a [`noc_sim::Recorder`]
    /// holding the flit-lifecycle trace, time-series windows and
    /// latency decomposition) and, when `config.audit` is set, the
    /// auditor's findings with [`Simulation::take_audit_report`].
    ///
    /// Neither probing nor auditing perturbs the simulation: the
    /// returned [`RunResult`] is bit-identical to [`run`](Self::run)
    /// (the conformance harness in [`crate::conformance`] asserts this
    /// for auditing), and because a run is seed-deterministic a
    /// recorder's exports are byte-identical for any worker-thread
    /// count of the surrounding engine (asserted in
    /// `crates/core/tests/trace.rs`).
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_with<P: Probe>(&self, probe: P) -> Result<(RunResult, Simulation<P>), CoreError> {
        let (topology_label, mut sim) = self.assemble(probe)?;
        let stats = sim.run()?;
        let result = RunResult {
            topology_label,
            traffic_label: self.traffic.label(),
            injection_rate: self.config.injection_rate,
            seed: self.config.seed,
            stats,
        };
        Ok((result, sim))
    }

    /// Builds the configured simulation without running it, for
    /// callers that need simulator accessors beyond [`SimStats`] (the
    /// benchmark binaries read `active_router_ratio`, for example).
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if the specs are invalid.
    pub fn build_simulation(&self) -> Result<Simulation, CoreError> {
        Ok(self.assemble(NullProbe)?.1)
    }

    /// The topology label and the simulation of this experiment, with
    /// `probe` attached.
    fn assemble<P: Probe>(&self, probe: P) -> Result<(String, Simulation<P>), CoreError> {
        let topo = self.topology.build()?;
        let routing = self.topology.build_routing()?;
        let pattern = self.traffic.build(&self.topology)?;
        let topology_label = topo.label();
        let sim = Simulation::with_probe(topo, routing, pattern, self.config.clone(), probe)?;
        Ok((topology_label, sim))
    }

    /// The `replications` copies of this experiment that a replicated
    /// run executes: seeds `seed, seed+1, ...` written into
    /// `config.seed`.
    pub fn replicas(&self, replications: usize) -> impl Iterator<Item = Experiment> + '_ {
        (0..replications).map(move |r| {
            let mut replica = self.clone();
            replica.config.seed = self.config.seed.wrapping_add(r as u64);
            replica
        })
    }

    /// Runs the [`replicas`](Self::replicas) on the parallel experiment
    /// engine (see [`crate::parallel`]) and aggregates throughput and
    /// latency. Results are identical to a sequential loop for any
    /// worker count.
    ///
    /// # Errors
    ///
    /// Returns the lowest-seed error encountered; requires
    /// `replications > 0` ([`CoreError::InvalidSpec`] otherwise).
    pub fn run_replicated(
        &self,
        replications: usize,
        parallelism: Parallelism,
    ) -> Result<Aggregate, CoreError> {
        if replications == 0 {
            return Err(CoreError::InvalidSpec {
                reason: "replications must be positive".to_owned(),
            });
        }
        let runs = run_experiment_jobs(self.replicas(replications).collect(), parallelism)?;
        Ok(Aggregate::from_runs(runs))
    }
}

/// Mean and standard deviation over replicated runs.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Aggregate {
    /// The individual runs (in seed order).
    pub runs: Vec<RunResult>,
    /// Mean aggregate throughput in flits/cycle.
    pub throughput_mean: f64,
    /// Sample standard deviation of throughput.
    pub throughput_std: f64,
    /// Mean of per-run mean latencies in cycles.
    pub latency_mean: f64,
    /// Sample standard deviation of per-run mean latencies.
    pub latency_std: f64,
    /// Mean acceptance ratio (1.0 below saturation).
    pub acceptance_mean: f64,
    /// Mean hops per delivered packet, averaged over runs.
    pub mean_hops: f64,
    /// Median packet latency over the merged histogram of all runs
    /// (0 when nothing was delivered).
    #[serde(default)]
    pub latency_p50: u64,
    /// 95th-percentile packet latency over the merged histogram.
    #[serde(default)]
    pub latency_p95: u64,
    /// 99th-percentile packet latency over the merged histogram.
    #[serde(default)]
    pub latency_p99: u64,
}

impl Aggregate {
    /// Computes aggregates from a nonempty set of runs.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    pub fn from_runs(runs: Vec<RunResult>) -> Self {
        assert!(!runs.is_empty(), "aggregate needs at least one run");
        let throughputs: Vec<f64> = runs.iter().map(RunResult::throughput).collect();
        let latencies: Vec<f64> = runs
            .iter()
            .map(RunResult::latency)
            .filter(|l| l.is_finite())
            .collect();
        let acceptance: Vec<f64> = runs.iter().map(|r| r.stats.acceptance_ratio()).collect();
        let hops: Vec<f64> = runs.iter().filter_map(|r| r.stats.mean_hops()).collect();
        let (throughput_mean, throughput_std) = mean_std(&throughputs);
        let (latency_mean, latency_std) = mean_std(&latencies);
        let (acceptance_mean, _) = mean_std(&acceptance);
        let (mean_hops, _) = mean_std(&hops);
        // Percentiles come from the merged histogram — the percentile
        // of the pooled samples, not a mean of per-run percentiles.
        let mut merged = LatencyStats::new();
        for run in &runs {
            merged.merge(&run.stats.latency);
        }
        let pct = |p: f64| merged.percentile(p).unwrap_or(0);
        Aggregate {
            runs,
            throughput_mean,
            throughput_std,
            latency_mean,
            latency_std,
            acceptance_mean,
            mean_hops,
            latency_p50: pct(50.0),
            latency_p95: pct(95.0),
            latency_p99: pct(99.0),
        }
    }
}

/// Mean and sample standard deviation of a slice (`(0, 0)` if empty,
/// std 0 for singletons).
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::Recorder;

    fn quick(lambda: f64) -> Experiment {
        Experiment {
            topology: TopologySpec::Spidergon { nodes: 8 },
            traffic: TrafficSpec::Uniform,
            config: SimConfig::builder()
                .injection_rate(lambda)
                .warmup_cycles(100)
                .measure_cycles(1_000)
                .seed(1)
                .build()
                .unwrap(),
        }
    }

    #[test]
    fn single_run_produces_labels_and_stats() {
        let r = quick(0.1).run().unwrap();
        assert_eq!(r.topology_label, "spidergon-8");
        assert_eq!(r.traffic_label, "uniform");
        assert!(r.throughput() > 0.0);
        assert!(r.latency().is_finite());
    }

    #[test]
    fn replication_aggregates_have_spread() {
        let agg = quick(0.2)
            .run_replicated(4, Parallelism::default())
            .unwrap();
        assert_eq!(agg.runs.len(), 4);
        assert!(agg.throughput_mean > 0.0);
        assert!(agg.throughput_std >= 0.0);
        assert!(agg.latency_mean > 0.0);
        assert!(agg.acceptance_mean > 0.9);
        assert!(agg.mean_hops > 1.0);
        assert!(agg.latency_p50 > 0);
        assert!(agg.latency_p50 <= agg.latency_p95 && agg.latency_p95 <= agg.latency_p99);
        // Distinct seeds were used.
        let seeds: std::collections::HashSet<u64> = agg.runs.iter().map(|r| r.seed).collect();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn zero_replications_rejected() {
        assert!(matches!(
            quick(0.1).run_replicated(0, Parallelism::default()),
            Err(CoreError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn replicas_write_consecutive_seeds() {
        let exp = quick(0.1);
        let seeds: Vec<u64> = exp.replicas(3).map(|r| r.config.seed).collect();
        assert_eq!(seeds, vec![1, 2, 3]);
        assert!(exp.replicas(3).all(|r| r.topology == exp.topology));
    }

    #[test]
    fn run_is_deterministic() {
        let mut exp = quick(0.15);
        exp.config.seed = 77;
        let a = exp.run().unwrap();
        assert_eq!(a.seed, 77);
        assert_eq!(a, exp.run().unwrap());
    }

    #[test]
    fn traced_run_matches_plain_run() {
        for topology in [
            TopologySpec::Ring { nodes: 8 },
            TopologySpec::Spidergon { nodes: 8 },
            TopologySpec::Mesh { cols: 4, rows: 2 },
        ] {
            let mut exp = quick(0.2);
            exp.topology = topology;
            exp.config.seed = 9;
            let plain = exp.run().unwrap();
            let (traced, sim) = exp.run_with(Recorder::new()).unwrap();
            assert_eq!(
                plain, traced,
                "{topology:?}: tracing must not perturb the run"
            );
            let rec = sim.into_probe();
            assert!(!rec.events().is_empty(), "{topology:?}");
            assert_eq!(
                rec.breakdown().total.count() as usize,
                rec.packet_timings().len()
            );

            let mut audited = exp.clone();
            audited.config.audit = true;
            let (checked, mut sim) = audited.run_with(NullProbe).unwrap();
            assert_eq!(
                plain, checked,
                "{topology:?}: auditing must not perturb the run"
            );
            assert_eq!(audited.run().unwrap(), plain);
            let report = sim.take_audit_report().expect("audit was enabled");
            assert!(report.checks > 0, "{topology:?}");
            assert!(report.violations.is_empty(), "{topology:?}: {report:?}");
        }
    }

    #[test]
    fn mean_std_basics() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]), (5.0, 0.0));
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn experiment_serializes() {
        let exp = quick(0.1);
        let json = serde_json::to_string(&exp).unwrap();
        let back: Experiment = serde_json::from_str(&json).unwrap();
        assert_eq!(back, exp);
    }
}
