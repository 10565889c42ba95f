//! Reproduction of every figure in the paper's evaluation.
//!
//! | Function | Paper figure | Content |
//! |---|---|---|
//! | [`fig2`] | Figure 2 | Network diameter `ND` vs `N` (Ring, ideal mesh, real meshes, Spidergon) |
//! | [`fig3`] | Figure 3 | Average network distance `E[D]` vs `N` |
//! | [`fig5`] | Figure 5 | Analytical vs simulated average distance |
//! | [`fig6_7`] | Figures 6, 7 | Throughput and latency vs injection rate, **single hot-spot** |
//! | [`fig8_9`] | Figures 8, 9 | Throughput and latency, **double hot-spot** (placements A/B) |
//! | [`fig10_11`] | Figures 10, 11 | Throughput and latency, **homogeneous uniform** traffic |
//! | [`table_links`] | Section 2 (text) | Link counts `2N` / `3N` / `2(m-1)n + 2(n-1)m` |
//!
//! The `_7`, `_9`, `_11` variants share the sweep with their throughput
//! siblings, so both figures of a pair cost one set of simulations.

use crate::parallel::{run_experiment_jobs, run_indexed, Parallelism};
use crate::report::{FigureData, Point, Series};
use crate::sweep::{sweep_from_runs, sweep_jobs, validate_rates};
use crate::{Aggregate, CoreError, Experiment, RunResult, SweepResult, TopologySpec, TrafficSpec};
use noc_sim::{SimConfig, Simulation};
use noc_topology::{analytical, real_mesh, IrregularMesh, RectMesh, Spidergon};
use noc_traffic::{PlacementScenario, TrafficPattern, UniformRandom};
use serde::{Deserialize, Serialize};

/// Quality knobs for the simulation-based figures.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct FigureOptions {
    /// Warmup cycles per run.
    pub warmup_cycles: u64,
    /// Measured cycles per run.
    pub measure_cycles: u64,
    /// Replications (seeds) per point.
    pub replications: usize,
    /// Base seed.
    pub seed: u64,
    /// Largest injection rate of the sweep grid (flits/cycle/source).
    pub max_rate: f64,
    /// Injection rates per sweep (evenly spaced up to `max_rate`).
    pub rate_steps: usize,
    /// Node counts to simulate (even values serve all families; the
    /// paper uses 8 and 24 for the hot-spot figures and up to 32 for
    /// the homogeneous ones).
    pub node_counts: Vec<usize>,
}

impl FigureOptions {
    /// Paper-quality settings (minutes of CPU in release mode).
    pub fn full() -> Self {
        FigureOptions {
            warmup_cycles: 2_000,
            measure_cycles: 20_000,
            replications: 3,
            seed: 2006,
            max_rate: 0.6,
            rate_steps: 12,
            node_counts: vec![8, 16, 24, 32],
        }
    }

    /// Fast settings for tests and smoke runs (seconds of CPU).
    pub fn quick() -> Self {
        FigureOptions {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            replications: 1,
            seed: 2006,
            max_rate: 0.5,
            rate_steps: 5,
            node_counts: vec![8, 16],
        }
    }

    /// The injection-rate grid implied by `max_rate` / `rate_steps`.
    pub fn rates(&self) -> Vec<f64> {
        (1..=self.rate_steps)
            .map(|i| self.max_rate * i as f64 / self.rate_steps as f64)
            .collect()
    }

    fn base_config(&self) -> SimConfig {
        SimConfig::builder()
            .warmup_cycles(self.warmup_cycles)
            .measure_cycles(self.measure_cycles)
            .seed(self.seed)
            .build()
            .expect("figure options produce a valid config")
    }
}

impl Default for FigureOptions {
    fn default() -> Self {
        FigureOptions::full()
    }
}

/// Figure 2: network diameter `ND` vs number of nodes, for Ring, the
/// continuous ideal-mesh curve, the two real-mesh families and
/// Spidergon. Exact closed forms of [`analytical`] (no simulation, no
/// graph search; the topology tests check every form against BFS).
///
/// # Panics
///
/// Panics if `max_nodes < 6`.
pub fn fig2(max_nodes: usize) -> FigureData {
    assert!(max_nodes >= 6, "figure 2 needs at least 6 nodes");
    let mut fig = FigureData::new(
        "fig2",
        "Network diameter ND vs number of nodes N",
        "N",
        "ND (hops)",
    );
    fig.push_series(Series::from_xy(
        "ring",
        (3..=max_nodes).map(|n| (n as f64, analytical::ring_diameter(n) as f64)),
    ));
    fig.push_series(Series::from_xy(
        "ideal-mesh",
        (4..=max_nodes).map(|n| (n as f64, real_mesh::ideal_mesh_diameter_continuous(n))),
    ));
    fig.push_series(Series::from_xy(
        "real-mesh-rect",
        (4..=max_nodes).map(|n| {
            let mesh = RectMesh::balanced(n).expect("n >= 4");
            (n as f64, analytical::grid_diameter(mesh.cols(), n) as f64)
        }),
    ));
    fig.push_series(Series::from_xy(
        "real-mesh-irregular",
        (4..=max_nodes).map(|n| {
            let mesh = IrregularMesh::realistic(n).expect("n >= 4");
            (n as f64, analytical::grid_diameter(mesh.cols(), n) as f64)
        }),
    ));
    fig.push_series(Series::from_xy(
        "spidergon",
        (2..=max_nodes / 2).map(|half| {
            let n = half * 2;
            (n as f64, analytical::spidergon_diameter(n) as f64)
        }),
    ));
    fig
}

/// Figure 3: average network distance `E[D]` vs number of nodes (paper
/// normalization, `sum / N`). Exact closed forms, like [`fig2`].
///
/// # Panics
///
/// Panics if `max_nodes < 6`.
pub fn fig3(max_nodes: usize) -> FigureData {
    assert!(max_nodes >= 6, "figure 3 needs at least 6 nodes");
    let mut fig = FigureData::new(
        "fig3",
        "Average network distance E[D] vs number of nodes N",
        "N",
        "E[D] (hops)",
    );
    fig.push_series(Series::from_xy(
        "ring",
        (3..=max_nodes).map(|n| (n as f64, analytical::ring_average_distance(n))),
    ));
    fig.push_series(Series::from_xy(
        "ideal-mesh",
        (4..=max_nodes).map(|n| {
            (
                n as f64,
                real_mesh::ideal_mesh_average_distance_continuous(n),
            )
        }),
    ));
    fig.push_series(Series::from_xy(
        "real-mesh-rect",
        (4..=max_nodes).map(|n| {
            let mesh = RectMesh::balanced(n).expect("n >= 4");
            let total = analytical::grid_total_distance(mesh.cols(), n);
            (n as f64, analytical::paper_mean(total, n))
        }),
    ));
    fig.push_series(Series::from_xy(
        "real-mesh-irregular",
        (4..=max_nodes).map(|n| {
            let mesh = IrregularMesh::realistic(n).expect("n >= 4");
            let total = analytical::grid_total_distance(mesh.cols(), n);
            (n as f64, analytical::paper_mean(total, n))
        }),
    ));
    fig.push_series(Series::from_xy(
        "spidergon",
        (2..=max_nodes / 2).map(|half| {
            let n = half * 2;
            (n as f64, analytical::spidergon_average_distance(n))
        }),
    ));
    fig
}

/// Section 2's in-text link-count comparison as a table: `2N` for Ring,
/// `3N` for Spidergon, `2(m-1)n + 2(n-1)m` for the balanced mesh.
pub fn table_links(node_counts: &[usize]) -> FigureData {
    let mut fig = FigureData::new(
        "table-links",
        "Unidirectional link counts per topology",
        "N",
        "links",
    );
    let even: Vec<usize> = node_counts.iter().copied().filter(|n| n % 2 == 0).collect();
    fig.push_series(Series::from_xy(
        "ring",
        node_counts
            .iter()
            .map(|&n| (n as f64, analytical::ring_link_count(n) as f64)),
    ));
    fig.push_series(Series::from_xy(
        "spidergon",
        even.iter()
            .map(|&n| (n as f64, analytical::spidergon_link_count(n) as f64)),
    ));
    fig.push_series(Series::from_xy(
        "mesh",
        node_counts.iter().map(|&n| {
            let mesh = RectMesh::balanced(n).expect("n >= 2");
            (
                n as f64,
                analytical::mesh_link_count(mesh.cols(), mesh.rows()) as f64,
            )
        }),
    ));
    fig
}

/// Figure 5: analytical vs simulated average network distance (hops)
/// for Ring, Spidergon and the balanced mesh, `N` from 8 to 32.
///
/// Simulated values are the mean hop count of delivered packets under
/// light uniform traffic; analytical values are the exact mean shortest
/// path over ordered pairs (what a uniform-pair mean converges to).
///
/// # Errors
///
/// Returns the first simulation error.
pub fn fig5(opts: &FigureOptions) -> Result<FigureData, CoreError> {
    if opts.replications == 0 {
        return Err(CoreError::InvalidSpec {
            reason: "replications must be positive".to_owned(),
        });
    }
    let mut fig = FigureData::new(
        "fig5",
        "Analytical and simulation-based average network distances",
        "N",
        "E[D] (hops)",
    );
    let ns: Vec<usize> = (2..=8).map(|h| h * 4).collect(); // 8, 12, ..., 32
    let lambda = 0.1; // light load: negligible queueing, hops unaffected

    let mut analytic: Vec<(String, Vec<(f64, f64)>)> = vec![
        ("ring-analytical".into(), Vec::new()),
        ("spidergon-analytical".into(), Vec::new()),
        ("mesh-analytical".into(), Vec::new()),
    ];
    let mut simulated: Vec<(String, Vec<(f64, f64)>)> = vec![
        ("ring-simulated".into(), Vec::new()),
        ("spidergon-simulated".into(), Vec::new()),
        ("mesh-simulated".into(), Vec::new()),
    ];
    // Analytical curves and the flattened simulation job list (node
    // count × family × replication) are built in one pass; the engine
    // then runs the whole grid at once and results are reassembled in
    // the same (n, family) order.
    let mut grid = Vec::new();
    let mut jobs = Vec::new();
    for &n in &ns {
        let specs = [
            (0usize, TopologySpec::Ring { nodes: n }),
            (1, TopologySpec::Spidergon { nodes: n }),
            (2, TopologySpec::MeshBalanced { nodes: n }),
        ];
        for (slot, spec) in specs {
            let total = match spec {
                TopologySpec::Ring { .. } => analytical::ring_total_distance(n),
                TopologySpec::Spidergon { .. } => analytical::spidergon_total_distance(n),
                _ => analytical::grid_total_distance(RectMesh::balanced(n)?.cols(), n),
            };
            let exact = analytical::pair_mean(total, n);
            analytic[slot].1.push((n as f64, exact));
            let mut config = opts.base_config();
            config.injection_rate = lambda;
            let experiment = Experiment {
                topology: spec,
                traffic: TrafficSpec::Uniform,
                config,
            };
            jobs.extend(experiment.replicas(opts.replications));
            grid.push((slot, n));
        }
    }
    let mut runs = run_experiment_jobs(jobs, Parallelism::default())?.into_iter();
    for (slot, n) in grid {
        let chunk: Vec<RunResult> = runs.by_ref().take(opts.replications).collect();
        let agg = Aggregate::from_runs(chunk);
        simulated[slot].1.push((n as f64, agg.mean_hops));
    }
    for (label, xy) in analytic.into_iter().chain(simulated) {
        fig.push_series(Series::from_xy(label, xy));
    }
    Ok(fig)
}

/// The three topology families the simulation figures compare at a
/// given node count.
fn families(n: usize) -> Vec<(&'static str, TopologySpec)> {
    vec![
        ("ring", TopologySpec::Ring { nodes: n }),
        ("spidergon", TopologySpec::Spidergon { nodes: n }),
        ("mesh", TopologySpec::MeshBalanced { nodes: n }),
    ]
}

/// One planned sweep of a figure grid: series label plus the
/// (topology, traffic) pair to sweep over the shared rate grid.
type PlannedSweep = (String, TopologySpec, TrafficSpec);

/// Runs every planned sweep as **one** flat job list on the parallel
/// engine (plan-major, rate-major, replication-minor — the order the
/// old nested loops ran in) and reassembles per-plan sweep results in
/// plan order. This exposes the whole figure grid — node counts ×
/// families × scenarios × rates × replications — to the worker pool at
/// once instead of one sweep point at a time.
fn run_planned_sweeps(
    plans: &[PlannedSweep],
    opts: &FigureOptions,
    rates: &[f64],
) -> Result<Vec<SweepResult>, CoreError> {
    validate_rates(rates)?;
    if opts.replications == 0 {
        return Err(CoreError::InvalidSpec {
            reason: "replications must be positive".to_owned(),
        });
    }
    let base = opts.base_config();
    let per_plan = rates.len() * opts.replications;
    let mut jobs = Vec::with_capacity(plans.len() * per_plan);
    for (_, topology, traffic) in plans {
        jobs.extend(sweep_jobs(
            *topology,
            *traffic,
            &base,
            rates,
            opts.replications,
        ));
    }
    let mut runs = run_experiment_jobs(jobs, Parallelism::default())?.into_iter();
    Ok(plans
        .iter()
        .map(|_| {
            let chunk: Vec<RunResult> = runs.by_ref().take(per_plan).collect();
            sweep_from_runs(rates, opts.replications, chunk)
        })
        .collect())
}

fn push_sweep(
    throughput: &mut FigureData,
    latency: &mut FigureData,
    label: String,
    sweep: &SweepResult,
) {
    throughput.push_series(Series {
        label: label.clone(),
        points: sweep
            .points
            .iter()
            .map(|p| Point {
                x: p.rate,
                y: p.throughput_mean,
                std: p.throughput_std,
            })
            .collect(),
    });
    latency.push_series(Series {
        label,
        points: sweep
            .points
            .iter()
            .map(|p| Point {
                x: p.rate,
                y: p.latency_mean,
                std: p.latency_std,
            })
            .collect(),
    });
}

/// Figures 6 and 7: throughput and latency vs injection rate with one
/// hot-spot destination (node 0), per topology and node count.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn fig6_7(opts: &FigureOptions) -> Result<(FigureData, FigureData), CoreError> {
    let mut throughput = FigureData::new(
        "fig6",
        "NoC throughput, one hot-spot destination node",
        "lambda (flits/cycle/source)",
        "throughput (flits/cycle)",
    );
    let mut latency = FigureData::new(
        "fig7",
        "NoC latency, one hot-spot destination node",
        "lambda (flits/cycle/source)",
        "latency (cycles)",
    );
    let rates = opts.rates();
    let mut plans = Vec::new();
    for &n in &opts.node_counts {
        for (family, spec) in families(n) {
            plans.push((
                format!("{family}-{n}"),
                spec,
                TrafficSpec::SingleHotspot { target: 0 },
            ));
        }
    }
    let sweeps = run_planned_sweeps(&plans, opts, &rates)?;
    for ((label, _, _), sweep) in plans.into_iter().zip(&sweeps) {
        push_sweep(&mut throughput, &mut latency, label, sweep);
    }
    Ok((throughput, latency))
}

/// Figures 8 and 9: throughput and latency vs injection rate with two
/// hot-spot destinations under the paper's placement scenarios A
/// (opposed) and B (corner/middle).
///
/// # Errors
///
/// Returns the first simulation error.
pub fn fig8_9(opts: &FigureOptions) -> Result<(FigureData, FigureData), CoreError> {
    let mut throughput = FigureData::new(
        "fig8",
        "NoC throughput, two hot-spot destination nodes",
        "lambda (flits/cycle/source)",
        "throughput (flits/cycle)",
    );
    let mut latency = FigureData::new(
        "fig9",
        "NoC latency, two hot-spot destination nodes",
        "lambda (flits/cycle/source)",
        "latency (cycles)",
    );
    let rates = opts.rates();
    let scenarios = [
        ("A", PlacementScenario::Opposed),
        ("B", PlacementScenario::CornerMiddle),
    ];
    let mut plans = Vec::new();
    for &n in &opts.node_counts {
        for (family, spec) in families(n) {
            for (tag, scenario) in scenarios {
                plans.push((
                    format!("{family}-{n}-{tag}"),
                    spec,
                    TrafficSpec::DoubleHotspotPlaced { scenario },
                ));
            }
        }
    }
    let sweeps = run_planned_sweeps(&plans, opts, &rates)?;
    for ((label, _, _), sweep) in plans.into_iter().zip(&sweeps) {
        push_sweep(&mut throughput, &mut latency, label, sweep);
    }
    Ok((throughput, latency))
}

/// Figures 10 and 11: throughput and latency vs injection rate under
/// homogeneous uniform traffic, per topology and node count.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn fig10_11(opts: &FigureOptions) -> Result<(FigureData, FigureData), CoreError> {
    let mut throughput = FigureData::new(
        "fig10",
        "NoC throughput, homogeneous sources and destinations",
        "lambda (flits/cycle/source)",
        "throughput (flits/cycle)",
    );
    let mut latency = FigureData::new(
        "fig11",
        "NoC latency, homogeneous sources and destinations",
        "lambda (flits/cycle/source)",
        "latency (cycles)",
    );
    let rates = opts.rates();
    let mut plans = Vec::new();
    for &n in &opts.node_counts {
        for (family, spec) in families(n) {
            plans.push((format!("{family}-{n}"), spec, TrafficSpec::Uniform));
        }
    }
    let sweeps = run_planned_sweeps(&plans, opts, &rates)?;
    for ((label, _, _), sweep) in plans.into_iter().zip(&sweeps) {
        push_sweep(&mut throughput, &mut latency, label, sweep);
    }
    Ok((throughput, latency))
}

/// Extension figure: uniform-traffic throughput and latency with the
/// **torus** alongside the paper's three topologies, at a fixed node
/// count (the largest entry of `opts.node_counts`, rounded to a square
/// grid for the torus/mesh).
///
/// # Errors
///
/// Returns the first simulation error.
pub fn ext_torus(opts: &FigureOptions) -> Result<(FigureData, FigureData), CoreError> {
    let mut throughput = FigureData::new(
        "ext-torus",
        "Extension: uniform throughput incl. torus",
        "lambda (flits/cycle/source)",
        "throughput (flits/cycle)",
    );
    let mut latency = FigureData::new(
        "ext-torus-latency",
        "Extension: uniform latency incl. torus",
        "lambda (flits/cycle/source)",
        "latency (cycles)",
    );
    let n = opts.node_counts.iter().copied().max().unwrap_or(16);
    let side = ((n as f64).sqrt().round() as usize).max(3);
    let n = side * side;
    let rates = opts.rates();
    let specs = [
        ("ring", TopologySpec::Ring { nodes: n }),
        ("spidergon", TopologySpec::Spidergon { nodes: n }),
        (
            "mesh",
            TopologySpec::Mesh {
                cols: side,
                rows: side,
            },
        ),
        (
            "torus",
            TopologySpec::Torus {
                cols: side,
                rows: side,
            },
        ),
    ];
    let plans: Vec<PlannedSweep> = specs
        .into_iter()
        .map(|(family, spec)| (format!("{family}-{n}"), spec, TrafficSpec::Uniform))
        .collect();
    let sweeps = run_planned_sweeps(&plans, opts, &rates)?;
    for ((label, _, _), sweep) in plans.into_iter().zip(&sweeps) {
        push_sweep(&mut throughput, &mut latency, label, sweep);
    }
    Ok((throughput, latency))
}

/// Extension figure: deterministic XY versus West-First adaptive mesh
/// routing under uniform traffic, as throughput/latency sweeps.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn ext_adaptive(opts: &FigureOptions) -> Result<(FigureData, FigureData), CoreError> {
    let mut throughput = FigureData::new(
        "ext-adaptive",
        "Extension: XY vs West-First adaptive mesh routing (throughput)",
        "lambda (flits/cycle/source)",
        "throughput (flits/cycle)",
    );
    let mut latency = FigureData::new(
        "ext-adaptive-latency",
        "Extension: XY vs West-First adaptive mesh routing (latency)",
        "lambda (flits/cycle/source)",
        "latency (cycles)",
    );
    let n = opts.node_counts.iter().copied().max().unwrap_or(16);
    let side = ((n as f64).sqrt().round() as usize).max(3);
    let n = side * side;
    let spec = TopologySpec::Mesh {
        cols: side,
        rows: side,
    };
    // Custom routing objects cannot be expressed as an `Experiment`,
    // so this driver uses the generic engine entry point directly: one
    // closure per (routing, rate, replication), each building its own
    // simulation, with results reassembled in flattening order.
    let rates = opts.rates();
    let mut params = Vec::new();
    for adaptive in [false, true] {
        for &rate in &rates {
            for rep in 0..opts.replications {
                params.push((adaptive, rate, opts.seed.wrapping_add(rep as u64)));
            }
        }
    }
    let base = opts.base_config();
    let jobs: Vec<_> = params
        .iter()
        .map(|&(adaptive, rate, seed)| {
            let mut config = base.clone();
            move || -> Result<(f64, Option<f64>), CoreError> {
                config.injection_rate = rate;
                config.seed = seed;
                let routing = if adaptive {
                    spec.build_adaptive_routing()?
                } else {
                    spec.build_routing()?
                };
                let pattern: Box<dyn TrafficPattern> = Box::new(UniformRandom::new(n)?);
                let mut sim = Simulation::new(spec.build()?, routing, pattern, config)?;
                let stats = sim.run()?;
                Ok((stats.throughput_flits_per_cycle(), stats.latency.mean()))
            }
        })
        .collect();
    let mut samples = run_indexed(jobs, Parallelism::default())
        .into_iter()
        .collect::<Result<Vec<_>, CoreError>>()?
        .into_iter();
    for adaptive in [false, true] {
        let label = if adaptive { "west-first" } else { "xy" };
        let mut tp_points = Vec::new();
        let mut lat_points = Vec::new();
        for &rate in &rates {
            let chunk: Vec<(f64, Option<f64>)> = samples.by_ref().take(opts.replications).collect();
            let tp_samples: Vec<f64> = chunk.iter().map(|&(tp, _)| tp).collect();
            let lat_samples: Vec<f64> = chunk.iter().filter_map(|&(_, lat)| lat).collect();
            let (tp_mean, tp_std) = crate::mean_std(&tp_samples);
            let (lat_mean, lat_std) = crate::mean_std(&lat_samples);
            tp_points.push(Point {
                x: rate,
                y: tp_mean,
                std: tp_std,
            });
            lat_points.push(Point {
                x: rate,
                y: lat_mean,
                std: lat_std,
            });
        }
        throughput.push_series(Series {
            label: format!("{label}-{n}"),
            points: tp_points,
        });
        latency.push_series(Series {
            label: format!("{label}-{n}"),
            points: lat_points,
        });
    }
    Ok((throughput, latency))
}

/// Extension figure: Spidergon Across-First vs Across-Last routing,
/// as latency sweeps under uniform traffic and under a single
/// hot-spot (the schemes differ in where they concentrate load, not in
/// path lengths).
///
/// # Errors
///
/// Returns the first simulation error.
pub fn ext_spidergon_routing(opts: &FigureOptions) -> Result<FigureData, CoreError> {
    use noc_routing::{RoutingAlgorithm, SpidergonAcrossFirst, SpidergonAcrossLast};
    use noc_traffic::SingleHotspot;

    let mut fig = FigureData::new(
        "ext-spidergon-routing",
        "Extension: Across-First vs Across-Last latency",
        "lambda (flits/cycle/source)",
        "latency (cycles)",
    );
    let n = opts
        .node_counts
        .iter()
        .copied()
        .filter(|n| n % 2 == 0)
        .max()
        .unwrap_or(16);
    let schemes = [
        ("across-first", true),
        ("across-last", true),
        ("across-first-hotspot", false),
        ("across-last-hotspot", false),
    ];
    // Same pattern as `ext_adaptive`: routing objects are built inside
    // per-(scheme, rate, replication) closures on the generic engine.
    let rates = opts.rates();
    let mut params = Vec::new();
    for (scheme, uniform) in schemes {
        let across_last = scheme.starts_with("across-last");
        for &rate in &rates {
            for rep in 0..opts.replications {
                params.push((
                    across_last,
                    uniform,
                    rate,
                    opts.seed.wrapping_add(rep as u64),
                ));
            }
        }
    }
    let base = opts.base_config();
    let jobs: Vec<_> = params
        .iter()
        .map(|&(across_last, uniform, rate, seed)| {
            let mut config = base.clone();
            move || -> Result<Option<f64>, CoreError> {
                let topo = Spidergon::new(n)?;
                let routing: Box<dyn RoutingAlgorithm> = if across_last {
                    Box::new(SpidergonAcrossLast::new(&topo))
                } else {
                    Box::new(SpidergonAcrossFirst::new(&topo))
                };
                let pattern: Box<dyn TrafficPattern> = if uniform {
                    Box::new(UniformRandom::new(n)?)
                } else {
                    Box::new(SingleHotspot::new(n, noc_topology::NodeId::new(0))?)
                };
                config.injection_rate = rate;
                config.seed = seed;
                let mut sim = Simulation::new(Box::new(topo), routing, pattern, config)?;
                let stats = sim.run()?;
                Ok(stats.latency.mean())
            }
        })
        .collect();
    let mut samples = run_indexed(jobs, Parallelism::default())
        .into_iter()
        .collect::<Result<Vec<_>, CoreError>>()?
        .into_iter();
    for (scheme, _) in schemes {
        let mut points = Vec::new();
        for &rate in &rates {
            let chunk: Vec<f64> = samples.by_ref().take(opts.replications).flatten().collect();
            let (mean, std) = crate::mean_std(&chunk);
            points.push(Point {
                x: rate,
                y: mean,
                std,
            });
        }
        fig.push_series(Series {
            label: format!("{scheme}-{n}"),
            points,
        });
    }
    Ok(fig)
}

/// Extension figure: throughput vs hot-spot fraction (the classic
/// mixed hot-spot model), interpolating between the paper's
/// homogeneous (fraction 0) and pure hot-spot (fraction 1) scenarios
/// at a fixed injection rate.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn ext_mixed_hotspot(opts: &FigureOptions) -> Result<FigureData, CoreError> {
    let mut fig = FigureData::new(
        "ext-mixed-hotspot",
        "Extension: throughput vs hot-spot fraction (lambda = 0.25)",
        "hot-spot fraction",
        "throughput (flits/cycle)",
    );
    let n = opts
        .node_counts
        .iter()
        .copied()
        .filter(|n| n % 2 == 0)
        .max()
        .unwrap_or(16);
    if opts.replications == 0 {
        return Err(CoreError::InvalidSpec {
            reason: "replications must be positive".to_owned(),
        });
    }
    let fractions: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
    // Flatten family × fraction × replication into one engine
    // submission, then chunk results back per fraction.
    let mut jobs = Vec::new();
    for (_, spec) in families(n) {
        for &fraction in &fractions {
            let mut config = opts.base_config();
            config.injection_rate = 0.25;
            let experiment = Experiment {
                topology: spec,
                traffic: TrafficSpec::MixedHotspot {
                    target: 0,
                    fraction,
                },
                config,
            };
            jobs.extend(experiment.replicas(opts.replications));
        }
    }
    let mut runs = run_experiment_jobs(jobs, Parallelism::default())?.into_iter();
    for (family, _) in families(n) {
        let mut points = Vec::new();
        for &fraction in &fractions {
            let chunk: Vec<RunResult> = runs.by_ref().take(opts.replications).collect();
            let agg = Aggregate::from_runs(chunk);
            points.push(Point {
                x: fraction,
                y: agg.throughput_mean,
                std: agg.throughput_std,
            });
        }
        fig.push_series(Series {
            label: format!("{family}-{n}"),
            points,
        });
    }
    Ok(fig)
}

/// Extension figure: per-link utilization heatmap under a single
/// hot-spot at node 0 — the paper's central qualitative claim made
/// visible. One curve per family (ring / spidergon / mesh at 16
/// nodes): x is the link index in the simulator's canonical
/// enumeration (node-major, port-minor), y is the link's measured
/// utilization in flits/cycle at `lambda = 0.3`.
///
/// Ring links near the hot-spot saturate while distant ones idle;
/// Spidergon's across links flatten the profile; the mesh concentrates
/// load on the column into the target — the same asymmetry the
/// throughput figures (6/7) show in aggregate.
///
/// # Errors
///
/// Returns the first build or simulation error.
pub fn ext_link_heatmap(opts: &FigureOptions) -> Result<FigureData, CoreError> {
    let n = 16;
    let mut fig = FigureData::new(
        "ext-link-heatmap",
        "Extension: per-link utilization, single hot-spot at node 0 (lambda = 0.3)",
        "link index (node-major, port-minor)",
        "utilization (flits/cycle)",
    );
    let jobs: Vec<Experiment> = families(n)
        .into_iter()
        .map(|(_, spec)| {
            let mut config = opts.base_config();
            config.injection_rate = 0.3;
            Experiment {
                topology: spec,
                traffic: TrafficSpec::SingleHotspot { target: 0 },
                config,
            }
        })
        .collect();
    let runs = run_experiment_jobs(jobs, Parallelism::default())?;
    for ((family, _), run) in families(n).into_iter().zip(runs) {
        let cycles = run.stats.measured_cycles.max(1) as f64;
        fig.push_series(Series::from_xy(
            format!("{family}-{n}"),
            run.stats
                .per_link
                .iter()
                .enumerate()
                .map(|(i, link)| (i as f64, link.flits as f64 / cycles)),
        ));
    }
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::graph::DistanceMatrix;
    use noc_topology::{Ring, Topology};

    #[test]
    fn fig2_has_all_families_and_known_values() {
        let fig = fig2(32);
        assert_eq!(fig.series.len(), 5);
        let ring = fig.series_by_label("ring").unwrap();
        assert_eq!(ring.y_at(16.0), Some(8.0));
        let sg = fig.series_by_label("spidergon").unwrap();
        assert_eq!(sg.y_at(16.0), Some(4.0));
        // Spidergon beats real meshes on ND through the plotted range.
        let irr = fig.series_by_label("real-mesh-irregular").unwrap();
        for p in &sg.points {
            if let Some(mesh_nd) = irr.y_at(p.x) {
                assert!(p.y <= mesh_nd, "N={}: {} > {}", p.x, p.y, mesh_nd);
            }
        }
    }

    #[test]
    fn fig3_orderings_match_paper() {
        let fig = fig3(32);
        let ring = fig.series_by_label("ring").unwrap();
        let sg = fig.series_by_label("spidergon").unwrap();
        for p in &sg.points {
            let r = ring.y_at(p.x).unwrap();
            assert!(p.y < r, "spidergon must beat ring at N={}", p.x);
        }
    }

    /// Asserts that every point of `fig`'s series `label` equals, bit for
    /// bit, `bfs` applied to the BFS distance matrix of `topo(N)`.
    fn assert_series_is_bfs(
        fig: &FigureData,
        label: &str,
        topo: impl Fn(usize) -> Box<dyn Topology>,
        bfs: impl Fn(&DistanceMatrix) -> f64,
    ) {
        let series = fig.series_by_label(label).unwrap();
        assert!(!series.points.is_empty(), "{} {label}", fig.id);
        for p in &series.points {
            let apd = topo(p.x as usize).graph().all_pairs_distances();
            assert_eq!(
                p.y.to_bits(),
                bfs(&apd).to_bits(),
                "{} {label} N={}: closed form {} vs BFS {}",
                fig.id,
                p.x,
                p.y,
                bfs(&apd)
            );
        }
    }

    fn balanced(n: usize) -> Box<dyn Topology> {
        Box::new(RectMesh::balanced(n).unwrap())
    }

    fn realistic(n: usize) -> Box<dyn Topology> {
        Box::new(IrregularMesh::realistic(n).unwrap())
    }

    #[test]
    fn closed_form_series_equal_bfs_bit_for_bit() {
        let diameter = |apd: &DistanceMatrix| apd.diameter() as f64;
        let fig = fig2(64);
        assert_series_is_bfs(&fig, "real-mesh-rect", balanced, diameter);
        assert_series_is_bfs(&fig, "real-mesh-irregular", realistic, diameter);
        let fig = fig3(64);
        assert_series_is_bfs(&fig, "real-mesh-rect", balanced, |apd| {
            apd.mean_distance_paper()
        });
        assert_series_is_bfs(&fig, "real-mesh-irregular", realistic, |apd| {
            apd.mean_distance_paper()
        });
        // The analytical series do not depend on the simulation length.
        let opts = FigureOptions {
            warmup_cycles: 0,
            measure_cycles: 1,
            rate_steps: 1,
            ..FigureOptions::quick()
        };
        let fig = fig5(&opts).unwrap();
        let mean = DistanceMatrix::mean_distance;
        assert_series_is_bfs(
            &fig,
            "ring-analytical",
            |n| Box::new(Ring::new(n).unwrap()),
            mean,
        );
        assert_series_is_bfs(
            &fig,
            "spidergon-analytical",
            |n| Box::new(Spidergon::new(n).unwrap()),
            mean,
        );
        assert_series_is_bfs(&fig, "mesh-analytical", balanced, mean);
    }

    #[test]
    fn real_mesh_fluctuates_in_fig2() {
        // The balanced-rectangle real mesh must NOT be monotone in N
        // (prime N degenerates): the paper's key observation.
        let fig = fig2(32);
        let rect = fig.series_by_label("real-mesh-rect").unwrap();
        let ys: Vec<f64> = rect.points.iter().map(|p| p.y).collect();
        let monotone = ys.windows(2).all(|w| w[1] >= w[0] - 1e-9);
        assert!(!monotone, "real mesh diameter should fluctuate: {ys:?}");
    }

    #[test]
    fn table_links_matches_formulas() {
        let fig = table_links(&[8, 16, 24]);
        assert_eq!(fig.series_by_label("ring").unwrap().y_at(16.0), Some(32.0));
        assert_eq!(
            fig.series_by_label("spidergon").unwrap().y_at(16.0),
            Some(48.0)
        );
        // 4x4 mesh: 2*3*4 + 2*3*4 = 48.
        assert_eq!(fig.series_by_label("mesh").unwrap().y_at(16.0), Some(48.0));
    }

    #[test]
    fn rates_grid_is_even() {
        let opts = FigureOptions::quick();
        let rates = opts.rates();
        assert_eq!(rates.len(), opts.rate_steps);
        assert!((rates.last().unwrap() - opts.max_rate).abs() < 1e-12);
        assert!(rates.windows(2).all(|w| w[0] < w[1]));
    }

    // Simulation-backed figure tests live in the crate's integration
    // tests (they need more runtime than a unit test should take).
}
