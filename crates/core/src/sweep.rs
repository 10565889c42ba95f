//! Injection-rate sweeps: the x-axis of the paper's Figures 6-11.

use crate::parallel::{run_experiment_jobs, Parallelism};
use crate::{Aggregate, CoreError, Experiment, RunResult, TopologySpec, TrafficSpec};
use noc_sim::SimConfig;
use serde::{Deserialize, Serialize};

/// One measured point of an injection-rate sweep.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Injection rate lambda in flits/cycle per source.
    pub rate: f64,
    /// Mean aggregate throughput in flits/cycle over replications.
    pub throughput_mean: f64,
    /// Sample standard deviation of throughput.
    pub throughput_std: f64,
    /// Mean packet latency in cycles over replications.
    pub latency_mean: f64,
    /// Sample standard deviation of latency.
    pub latency_std: f64,
    /// Mean acceptance ratio (drops below 1 at saturation).
    pub acceptance: f64,
    /// Mean hops per delivered packet.
    pub mean_hops: f64,
    /// Median packet latency over the merged histogram of all
    /// replications at this rate (0 when nothing was delivered).
    #[serde(default)]
    pub latency_p50: u64,
    /// 95th-percentile packet latency over the merged histogram.
    #[serde(default)]
    pub latency_p95: u64,
    /// 99th-percentile packet latency over the merged histogram.
    #[serde(default)]
    pub latency_p99: u64,
}

/// Result of sweeping one (topology, traffic) pair over several rates.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SweepResult {
    /// Label of the topology swept.
    pub topology_label: String,
    /// Label of the traffic pattern.
    pub traffic_label: String,
    /// The measured points, in ascending rate order.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// `(rate, throughput)` pairs for plotting.
    pub fn throughput_xy(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.rate, p.throughput_mean))
            .collect()
    }

    /// `(rate, latency)` pairs for plotting.
    pub fn latency_xy(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.rate, p.latency_mean))
            .collect()
    }
}

/// Sweeps the injection rate over `rates` for a (topology, traffic)
/// pair, running `replications` seeds per point under `parallelism`.
///
/// The whole rate × replication product is flattened into one job list
/// for the engine — with R rates and K replications, up to `R * K`
/// simulations run concurrently, not just the K replications of one
/// point at a time.
///
/// # Errors
///
/// Returns the first build or simulation error. Rates must be given in
/// ascending order (validated, [`CoreError::InvalidSpec`]).
///
/// # Examples
///
/// ```
/// use noc_core::{sweep_rates, Parallelism, TopologySpec, TrafficSpec};
/// use noc_sim::SimConfig;
///
/// let base = SimConfig::builder()
///     .warmup_cycles(100)
///     .measure_cycles(1_000)
///     .build()?;
/// let result = sweep_rates(
///     TopologySpec::Spidergon { nodes: 8 },
///     TrafficSpec::Uniform,
///     &base,
///     &[0.05, 0.1],
///     1,
///     Parallelism::default(),
/// )?;
/// assert_eq!(result.points.len(), 2);
/// assert!(result.points[1].throughput_mean > result.points[0].throughput_mean);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn sweep_rates(
    topology: TopologySpec,
    traffic: TrafficSpec,
    base_config: &SimConfig,
    rates: &[f64],
    replications: usize,
    parallelism: Parallelism,
) -> Result<SweepResult, CoreError> {
    validate_rates(rates)?;
    if replications == 0 {
        return Err(CoreError::InvalidSpec {
            reason: "replications must be positive".to_owned(),
        });
    }
    let jobs = sweep_jobs(topology, traffic, base_config, rates, replications);
    let runs = run_experiment_jobs(jobs, parallelism)?;
    Ok(sweep_from_runs(rates, replications, runs))
}

/// Rejects empty or non-ascending rate lists.
pub(crate) fn validate_rates(rates: &[f64]) -> Result<(), CoreError> {
    if rates.is_empty() {
        return Err(CoreError::InvalidSpec {
            reason: "rate sweep needs at least one rate".to_owned(),
        });
    }
    if rates.windows(2).any(|w| w[0] >= w[1]) {
        return Err(CoreError::InvalidSpec {
            reason: "sweep rates must be strictly ascending".to_owned(),
        });
    }
    Ok(())
}

/// Flattens a sweep into engine jobs: rate-major, replication-minor —
/// exactly the order the old nested loops ran in.
pub(crate) fn sweep_jobs(
    topology: TopologySpec,
    traffic: TrafficSpec,
    base_config: &SimConfig,
    rates: &[f64],
    replications: usize,
) -> Vec<Experiment> {
    let mut jobs = Vec::with_capacity(rates.len() * replications);
    for &rate in rates {
        let mut config = base_config.clone();
        config.injection_rate = rate;
        let experiment = Experiment {
            topology,
            traffic,
            config,
        };
        jobs.extend(experiment.replicas(replications));
    }
    jobs
}

/// Reassembles the in-order run results of [`sweep_jobs`] into a
/// [`SweepResult`], chunking `replications` runs per rate.
pub(crate) fn sweep_from_runs(
    rates: &[f64],
    replications: usize,
    runs: Vec<RunResult>,
) -> SweepResult {
    debug_assert_eq!(runs.len(), rates.len() * replications);
    let mut runs = runs.into_iter();
    let mut points = Vec::with_capacity(rates.len());
    let mut topology_label = String::new();
    let mut traffic_label = String::new();
    for &rate in rates {
        let chunk: Vec<RunResult> = runs.by_ref().take(replications).collect();
        let agg = Aggregate::from_runs(chunk);
        topology_label = agg.runs[0].topology_label.clone();
        traffic_label = agg.runs[0].traffic_label.clone();
        points.push(point_from_aggregate(rate, &agg));
    }
    SweepResult {
        topology_label,
        traffic_label,
        points,
    }
}

fn point_from_aggregate(rate: f64, agg: &Aggregate) -> SweepPoint {
    SweepPoint {
        rate,
        throughput_mean: agg.throughput_mean,
        throughput_std: agg.throughput_std,
        latency_mean: agg.latency_mean,
        latency_std: agg.latency_std,
        acceptance: agg.acceptance_mean,
        mean_hops: agg.mean_hops,
        latency_p50: agg.latency_p50,
        latency_p95: agg.latency_p95,
        latency_p99: agg.latency_p99,
    }
}

/// Default injection-rate grid used by the figure reproductions:
/// 0.025 to `max` in steps matched to the paper's axes.
///
/// Stepping is integral — the i-th rate is computed as `(i * 25) /
/// 1000` rather than by repeatedly adding `0.025` (which is not exact
/// in binary and accumulates error), so every grid value is the
/// correctly-rounded double of an exact multiple of 0.025 no matter
/// how long the grid is.
pub fn default_rate_grid(max: f64) -> Vec<f64> {
    // Tolerance mirrors the old `r <= max + 1e-9` bound so a `max`
    // sitting exactly on a step (e.g. 0.5) is included.
    let steps = ((max + 1e-9) / 0.025).floor() as usize;
    (1..=steps).map(|i| (i * 25) as f64 / 1000.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimConfig {
        SimConfig::builder()
            .warmup_cycles(100)
            .measure_cycles(800)
            .seed(5)
            .build()
            .unwrap()
    }

    #[test]
    fn sweep_produces_monotone_throughput_below_saturation() {
        let result = sweep_rates(
            TopologySpec::Spidergon { nodes: 8 },
            TrafficSpec::Uniform,
            &base(),
            &[0.05, 0.1, 0.2],
            2,
            Parallelism::default(),
        )
        .unwrap();
        assert_eq!(result.topology_label, "spidergon-8");
        let tp: Vec<f64> = result.points.iter().map(|p| p.throughput_mean).collect();
        assert!(tp[0] < tp[1] && tp[1] < tp[2], "{tp:?}");
        assert_eq!(result.throughput_xy().len(), 3);
        assert_eq!(result.latency_xy().len(), 3);
        for p in &result.points {
            assert!(p.latency_p50 > 0);
            assert!(p.latency_p50 <= p.latency_p95 && p.latency_p95 <= p.latency_p99);
        }
    }

    #[test]
    fn empty_and_unsorted_rates_rejected() {
        let e = sweep_rates(
            TopologySpec::Ring { nodes: 6 },
            TrafficSpec::Uniform,
            &base(),
            &[],
            1,
            Parallelism::default(),
        );
        assert!(matches!(e, Err(CoreError::InvalidSpec { .. })));
        let e = sweep_rates(
            TopologySpec::Ring { nodes: 6 },
            TrafficSpec::Uniform,
            &base(),
            &[0.2, 0.1],
            1,
            Parallelism::default(),
        );
        assert!(matches!(e, Err(CoreError::InvalidSpec { .. })));
    }

    #[test]
    fn default_grid_is_ascending_and_bounded() {
        let grid = default_rate_grid(0.5);
        assert_eq!(grid.first(), Some(&0.025));
        assert_eq!(grid.last(), Some(&0.5));
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(grid.len(), 20);
    }

    #[test]
    fn default_grid_values_are_exact_multiples() {
        // Every value must be the correctly-rounded double of i * 0.025
        // with no accumulated drift, even on a long grid.
        let grid = default_rate_grid(25.0);
        assert_eq!(grid.len(), 1000);
        for (i, &r) in grid.iter().enumerate() {
            let expected = ((i + 1) * 25) as f64 / 1000.0;
            assert_eq!(r.to_bits(), expected.to_bits(), "index {i}");
        }
        // Spot-check values the old accumulating loop drifted away
        // from before rounding: 0.825 = 33 * 0.025.
        assert_eq!(grid[32], 0.825);
        // A max just below a step excludes it; just above includes it.
        assert_eq!(default_rate_grid(0.049).len(), 1);
        assert_eq!(default_rate_grid(0.051).len(), 2);
        assert!(default_rate_grid(0.0).is_empty());
    }

    #[test]
    fn sweep_with_fixed_threads_matches_sequential() {
        let run = |par| {
            sweep_rates(
                TopologySpec::Ring { nodes: 6 },
                TrafficSpec::Uniform,
                &base(),
                &[0.05, 0.15],
                2,
                par,
            )
            .unwrap()
        };
        assert_eq!(run(Parallelism::Sequential), run(Parallelism::Fixed(4)));
    }
}
