//! The simulator workloads: a fixed list of points simulated with one
//! worker and the cache disabled, the same points every pass.
//!
//! `sim_low_load` keeps most routers idle, so the sparse active-set
//! path does the work; `sim_saturated` keeps every router busy, so
//! switch allocation and link transfer do.

use crate::measure::{median, secs, Fnv, Metric};
use crate::trace::Tracer;
use crate::{recorded_digest, Args, Dirs, Outcome, PassSample, Workload};
use noc_core::cache::{fingerprint, ExperimentCache};
use noc_core::noc_routing::CompiledRoutes;
use noc_core::noc_sim::{LatencyStats, SimConfig, SimStats, Simulation};
use noc_core::noc_topology::Direction;
use noc_core::{Aggregate, Experiment, RunResult, TopologySpec, TrafficSpec};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The points of one pass. Point `i` runs with seed `seed + i`.
///
/// The saturated list repeats the hot-spot point (with its own seed)
/// so that its five points put no percentile between two of them.
fn points(workload: Workload, seed: u64) -> Vec<Experiment> {
    let (warmup, measure, specs) = match workload {
        Workload::SimLowLoad => (
            1_000,
            4_000,
            vec![
                (TopologySpec::Ring { nodes: 64 }, TrafficSpec::Uniform, 0.05),
                (
                    TopologySpec::Spidergon { nodes: 64 },
                    TrafficSpec::Uniform,
                    0.05,
                ),
                (
                    TopologySpec::Mesh { cols: 8, rows: 8 },
                    TrafficSpec::Uniform,
                    0.05,
                ),
            ],
        ),
        _ => {
            let hot = TrafficSpec::SingleHotspot { target: 0 };
            (
                1_000,
                6_000,
                vec![
                    (TopologySpec::Ring { nodes: 32 }, TrafficSpec::Uniform, 0.6),
                    (
                        TopologySpec::Spidergon { nodes: 32 },
                        TrafficSpec::Uniform,
                        0.6,
                    ),
                    (
                        TopologySpec::Mesh { cols: 8, rows: 4 },
                        TrafficSpec::Uniform,
                        0.6,
                    ),
                    (TopologySpec::Spidergon { nodes: 32 }, hot, 0.5),
                    (TopologySpec::Spidergon { nodes: 32 }, hot, 0.5),
                ],
            )
        }
    };
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (topology, traffic, rate))| Experiment {
            topology,
            traffic,
            config: SimConfig::builder()
                .injection_rate(rate)
                .warmup_cycles(warmup)
                .measure_cycles(measure)
                .seed(seed.wrapping_add(i as u64))
                .build()
                .expect("benchmark points have valid configs"),
        })
        .collect()
}

/// What one simulated point left behind.
struct PointRun {
    stats: SimStats,
    run_s: f64,
    /// Cycles simulated, warm-up included.
    cycles: u64,
    /// Cycles simulated times routers, and the active share of them.
    router_cycles: f64,
    active_ratio: f64,
    /// `generated = consumed + source backlog + in network` at the end.
    conserved: bool,
}

impl PointRun {
    fn finish(sim: &Simulation, stats: SimStats, run_s: f64) -> Self {
        PointRun {
            cycles: sim.cycle(),
            router_cycles: sim.cycle() as f64 * stats.num_nodes as f64,
            active_ratio: sim.active_router_ratio(),
            conserved: sim.total_flits_generated()
                == sim.total_flits_consumed() + sim.source_backlog() + sim.flits_in_network(),
            stats,
            run_s,
        }
    }
}

/// Digest of a point's statistics: latency count/min/max/mean (the
/// mean fixes the sum), flits generated and delivered, per-link
/// counters and throughput samples. Percentiles are left out on
/// purpose, so a change of histogram layout cannot trip it.
fn digest(s: &SimStats) -> u64 {
    let lat = &s.latency;
    let mut h = Fnv::new()
        .u64(lat.count())
        .u64(lat.min().unwrap_or(0))
        .u64(lat.max().unwrap_or(0))
        .u64(lat.mean().unwrap_or(0.0).to_bits())
        .u64(s.flits_generated)
        .u64(s.flits_delivered);
    for link in &s.per_link {
        let dir = Direction::ALL.iter().position(|&d| d == link.direction);
        h = h
            .u64(link.from.index() as u64)
            .u64(dir.unwrap_or(usize::MAX) as u64)
            .u64(link.flits);
    }
    for t in &s.throughput_samples {
        h = h.u64(t.to_bits());
    }
    h.finish()
}

/// The user path: a timed `Simulation::run` of a simulation built by
/// `Experiment::build_simulation` during set-up.
fn run_point(mut sim: Simulation) -> Result<PointRun, String> {
    let start = Instant::now();
    let stats = sim.run().map_err(|e| e.to_string())?;
    let run_s = secs(start);
    Ok(PointRun::finish(&sim, stats, run_s))
}

/// Per-call tallies of the traced passes that spans do not carry.
#[derive(Default)]
struct Tally {
    compile_attempts: u64,
    compiled: u64,
    lookups: u64,
    hits: u64,
    stores: u64,
}

/// The same point, built step by step with a span around every call
/// into a layer, then round-tripped through the stats serde and a
/// private cache store.
fn traced_point(
    exp: &Experiment,
    tracer: &mut Tracer,
    store: &ExperimentCache,
    tally: &mut Tally,
) -> Result<PointRun, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    tracer.span("point", |t| {
        let topo = t
            .span("topology.build", |_| exp.topology.build())
            .map_err(|e| err(&e))?;
        let routing = t
            .span("routing.build", |_| exp.topology.build_routing())
            .map_err(|e| err(&e))?;
        let compiled = t.span("routing.compile", |_| {
            CompiledRoutes::compile(routing.as_ref(), topo.as_ref()).is_some()
        });
        tally.compile_attempts += 1;
        tally.compiled += u64::from(compiled);
        let pattern = t
            .span("traffic.build", |_| exp.traffic.build(&exp.topology))
            .map_err(|e| err(&e))?;
        let topology_label = topo.label();
        let mut sim = t
            .span("network.new", |_| {
                Simulation::new(topo, routing, pattern, exp.config.clone())
            })
            .map_err(|e| err(&e))?;
        let start = Instant::now();
        let stats = t.span("network.run", |_| sim.run()).map_err(|e| err(&e))?;
        let run = PointRun::finish(&sim, stats, secs(start));

        let json = t
            .span("stats.serialize", |_| serde_json::to_string(&run.stats))
            .map_err(|e| err(&e))?;
        let back: SimStats = t
            .span("stats.deserialize", |_| serde_json::from_str(&json))
            .map_err(|e| err(&e))?;
        if back != run.stats {
            return Err("SimStats changed in a serde round trip".to_owned());
        }

        let seed = exp.config.seed;
        let result = RunResult {
            topology_label,
            traffic_label: exp.traffic.label(),
            injection_rate: exp.config.injection_rate,
            seed,
            stats: run.stats.clone(),
        };
        t.span("cache.fingerprint", |_| fingerprint(exp, seed));
        let stored = t
            .span("cache.store", |_| store.store(exp, seed, &result))
            .map_err(|e| err(&e))?;
        tally.stores += u64::from(stored);
        let hit = t.span("cache.lookup", |_| store.lookup(exp, seed));
        tally.lookups += 1;
        tally.hits += u64::from(hit.is_some());
        if hit.as_ref() != Some(&result) {
            return Err("cache lookup did not return the stored result".to_owned());
        }
        Ok(run)
    })
}

/// Host-independent numbers of one pass.
fn pass_counts(runs: &[PointRun]) -> BTreeMap<String, u64> {
    let mut merged = LatencyStats::new();
    let mut counts = BTreeMap::new();
    let mut add = |k: &str, v: u64| *counts.entry(k.to_owned()).or_insert(0) += v;
    for (i, r) in runs.iter().enumerate() {
        let s = &r.stats;
        merged.merge(&s.latency);
        add("sim.cycles", r.cycles);
        add("sim.flits_generated", s.flits_generated);
        add("sim.flits_injected", s.flits_injected);
        add("sim.flits_delivered", s.flits_delivered);
        add("sim.backlog_flits", s.backlog_flits);
        add(&format!("digest.{i}"), digest(s));
        let bytes = serde_json::to_string(s).map_or(0, |j| j.len() as u64);
        add("stats.serialized_bytes", bytes);
    }
    add(
        "sim.latency_p99_cycles",
        merged.percentile(99.0).unwrap_or(0),
    );
    add("sim.latency_max_cycles", merged.max().unwrap_or(0));
    counts
}

/// Output checks that hold for any seed, plus the recorded digests of
/// the default and held-out seeds.
fn check_points(
    workload: Workload,
    seed: u64,
    exps: &[Experiment],
    runs: &[PointRun],
    out: &mut Outcome,
) {
    for (i, (exp, run)) in exps.iter().zip(runs).enumerate() {
        let s = &run.stats;
        out.check(run.conserved, || format!("point {i}: flits not conserved"));
        match workload {
            Workload::SimLowLoad => out.check(s.acceptance_ratio() >= 0.99, || {
                format!(
                    "point {i}: low-load point saturated ({})",
                    s.acceptance_ratio()
                )
            }),
            _ => out.check(s.backlog_flits > 0, || {
                format!("point {i}: saturated point has no backlog")
            }),
        }
        // The dense core without compiled routes is the reference the
        // sparse core must equal bit for bit.
        let mut reference = exp.clone();
        reference.config.sparse = false;
        reference.config.compiled_routes = false;
        match reference
            .build_simulation()
            .and_then(|mut sim| Ok(sim.run()?))
        {
            Ok(dense) => out.check(dense == *s, || {
                format!("point {i}: sparse core differs from the dense reference")
            }),
            Err(e) => out.error(format!("point {i}: dense reference failed: {e}")),
        }
        if let Some(want) = recorded_digest(workload.name(), seed, &i.to_string()) {
            let got = digest(s);
            out.check(got == want, || {
                format!("point {i}: digest {got:016x}, recorded {want:016x}")
            });
        }
        println!(
            "# point {i} {} digest {:016x}",
            exp.topology.label().unwrap_or_default(),
            digest(s)
        );
    }
}

pub fn run(args: &Args, dirs: &Dirs, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let exps = points(args.workload, args.seed);
    let store = ExperimentCache::at(dirs.scratch.join("private-store"));
    let mut tally = Tally::default();
    let mut first: Option<Vec<PointRun>> = None;
    let mut traced_run_s = Vec::new();
    let (mut run_ns, mut router_cycles, mut active_cycles) = (0.0, 0.0, 0.0);
    let (mut delivered, mut injected, mut generated) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut pass = 0usize;
    loop {
        let traced = args.trace && pass % 2 == 1;
        tracer.set_enabled(traced);
        // Set-up of an untraced pass: `Experiment::build_simulation` for
        // every point. A traced pass builds step by step inside its spans.
        let mut built = Vec::with_capacity(exps.len());
        let mut setup = 0.0;
        if !traced {
            let start = Instant::now();
            built.extend(exps.iter().map(|exp| Some(exp.build_simulation())));
            setup = secs(start);
            out.setup_secs.push(setup);
        }
        let start = Instant::now();
        let mut runs = Vec::with_capacity(exps.len());
        for (i, exp) in exps.iter().enumerate() {
            tracer.set_point((pass * exps.len() + i) as u64);
            let result = match built.get_mut(i).and_then(Option::take) {
                Some(sim) => sim.map_err(|e| e.to_string()).and_then(run_point),
                None => traced_point(exp, tracer, &store, &mut tally),
            };
            out.attempted += 1;
            match result {
                Ok(run) => runs.push(run),
                Err(e) => {
                    out.failed += 1;
                    out.failures.push(format!("pass {pass} point {i}: {e}"));
                }
            }
        }
        if traced && runs.len() == exps.len() {
            let results: Vec<RunResult> = exps
                .iter()
                .zip(&runs)
                .map(|(exp, r)| RunResult {
                    topology_label: exp.topology.label().unwrap_or_default(),
                    traffic_label: exp.traffic.label(),
                    injection_rate: exp.config.injection_rate,
                    seed: exp.config.seed,
                    stats: r.stats.clone(),
                })
                .collect();
            tracer.span("stats.aggregate", |_| Aggregate::from_runs(results));
        }
        let wall = secs(start);
        if runs.len() == exps.len() {
            if traced {
                out.traced_pass_secs.push(wall);
                traced_run_s.push(runs.iter().map(|r| r.run_s).sum::<f64>());
                for r in &runs {
                    run_ns += r.run_s * 1e9;
                    router_cycles += r.router_cycles;
                    active_cycles += r.router_cycles * r.active_ratio;
                    delivered += r.stats.flits_delivered;
                    injected += r.stats.flits_injected;
                    generated += r.stats.flits_generated;
                }
            } else {
                // Traced passes build inside their spans.
                out.untraced_secs.push(setup + wall);
                out.passes.push(PassSample {
                    wall,
                    point_ms: runs.iter().map(|r| r.run_s * 1e3).collect(),
                    point_weight: vec![1; runs.len()],
                    flits: runs.iter().map(|r| r.stats.flits_delivered as f64).sum(),
                    flit_secs: runs.iter().map(|r| r.run_s).sum(),
                });
            }
            out.pass_counts(pass_counts(&runs));
            if first.is_none() {
                first = Some(runs);
            }
        }
        pass += 1;
        if Instant::now() >= deadline && (!args.trace || pass >= 2) {
            break;
        }
    }
    tracer.set_enabled(false);

    let Some(first) = first else {
        out.error("no pass completed".to_owned());
        return out;
    };
    check_points(args.workload, args.seed, &exps, &first, &mut out);

    if args.trace {
        let us = |name: &str| median(&tracer.durations(name, 0)) * 1e6;
        let count = |name: &str| out.counts.get(name).copied().unwrap_or(0) as f64;
        let cache = store.stats().unwrap_or_default();
        out.layers = vec![
            Metric::new(
                "sim.ns_per_router_cycle",
                run_ns / router_cycles.max(1.0),
                "ns",
            ),
            Metric::new(
                "sim.active_router_ratio",
                active_cycles / router_cycles.max(1.0),
                "ratio",
            ),
            Metric::new("sim.ns_per_flit", run_ns / (delivered.max(1) as f64), "ns"),
            Metric::new("sim.run_s", median(&traced_run_s), "s"),
            Metric::new(
                "sim.acceptance_ratio",
                (injected as f64 / generated.max(1) as f64).min(1.0),
                "ratio",
            ),
            Metric::new("sim.cycles", count("sim.cycles"), "count"),
            Metric::new("sim.flits_generated", count("sim.flits_generated"), "count"),
            Metric::new("sim.flits_delivered", count("sim.flits_delivered"), "count"),
            Metric::new("sim.backlog_flits", count("sim.backlog_flits"), "count"),
            Metric::new(
                "sim.latency_p99_cycles",
                count("sim.latency_p99_cycles"),
                "cycles",
            ),
            Metric::new(
                "sim.latency_max_cycles",
                count("sim.latency_max_cycles"),
                "cycles",
            ),
            Metric::new("sim.new_us", us("network.new"), "us"),
            Metric::new("routing.compile_us", us("routing.compile"), "us"),
            Metric::new("routing.build_us", us("routing.build"), "us"),
            Metric::new(
                "routing.compiled_ratio",
                tally.compiled as f64 / tally.compile_attempts.max(1) as f64,
                "ratio",
            ),
            Metric::new("topology.build_us", us("topology.build"), "us"),
            Metric::new("traffic.build_us", us("traffic.build"), "us"),
            Metric::new(
                "stats.serialized_bytes",
                count("stats.serialized_bytes"),
                "bytes",
            ),
            Metric::new("cache.lookup_us", us("cache.lookup"), "us"),
            Metric::new("cache.fingerprint_us", us("cache.fingerprint"), "us"),
            Metric::new("cache.store_us", us("cache.store"), "us"),
            Metric::new("cache.entries", cache.entries as f64, "count"),
            Metric::new("cache.bytes", cache.total_bytes as f64, "bytes"),
            Metric::new(
                "cache.stores",
                tally.stores as f64 / out.traced_pass_secs.len().max(1) as f64,
                "count",
            ),
            Metric::new(
                "cache.hit_ratio",
                tally.hits as f64 / tally.lookups.max(1) as f64,
                "ratio",
            ),
            Metric::new("parallel.workers", args.workload.workers() as f64, "count"),
            Metric::new("stats.aggregate_us", us("stats.aggregate"), "us"),
        ];
    }
    out
}
