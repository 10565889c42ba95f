//! Benches for the parallel experiment engine and the simulator
//! hot path it fans out: the same small sweep timed sequentially and
//! at fixed worker counts (wall-clock speedup), plus the raw cycle
//! kernel in flits delivered per iteration (hot-path regression).
//!
//! `cargo bench --bench parallel` prints wall-clock per iteration;
//! `cargo run --release --bin bench -- record` records the same
//! workload into `BENCH_sweep.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use noc_core::{sweep_rates, Parallelism, SweepResult, TopologySpec, TrafficSpec};
use noc_sim::{Recorder, SimConfig};

/// The benchmarked workload: a rate sweep sized so that one job is a
/// few milliseconds — large enough to dwarf thread-pool overhead,
/// small enough to keep `cargo bench` quick.
fn bench_sweep(parallelism: Parallelism) -> SweepResult {
    let config = SimConfig::builder()
        .warmup_cycles(200)
        .measure_cycles(2_000)
        .seed(2006)
        .build()
        .unwrap();
    let rates = [0.1, 0.2, 0.3, 0.4];
    sweep_rates(
        TopologySpec::Spidergon { nodes: 16 },
        TrafficSpec::Uniform,
        &config,
        &rates,
        2,
        parallelism,
    )
    .unwrap()
}

fn bench_parallel_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_sweep");
    g.sample_size(10);
    for (name, parallelism) in [
        ("sequential", Parallelism::Sequential),
        ("fixed_2", Parallelism::Fixed(2)),
        ("fixed_4", Parallelism::Fixed(4)),
    ] {
        g.bench_function(name, |b| b.iter(|| black_box(bench_sweep(parallelism))));
    }
    g.finish();
}

fn bench_hot_path_flits(c: &mut Criterion) {
    use noc_core::Experiment;
    let experiment = Experiment {
        topology: TopologySpec::Spidergon { nodes: 32 },
        traffic: TrafficSpec::Uniform,
        config: SimConfig::builder()
            .injection_rate(0.3)
            .warmup_cycles(0)
            .measure_cycles(5_000)
            .seed(2006)
            .build()
            .unwrap(),
    };
    let mut g = c.benchmark_group("hot_path");
    g.sample_size(10);
    g.bench_function("spidergon_32_5k_cycles_flits", |b| {
        b.iter(|| black_box(experiment.run().unwrap().stats.flits_delivered))
    });
    g.finish();
}

/// Probe overhead on the hot-path kernel: the default `NullProbe`
/// (monomorphized to nothing — must sit within noise of the pre-probe
/// baseline) against a full `Recorder` (every lifecycle event logged).
fn bench_probe_overhead(c: &mut Criterion) {
    use noc_core::Experiment;
    let experiment = Experiment {
        topology: TopologySpec::Spidergon { nodes: 32 },
        traffic: TrafficSpec::Uniform,
        config: SimConfig::builder()
            .injection_rate(0.3)
            .warmup_cycles(0)
            .measure_cycles(5_000)
            .seed(2006)
            .build()
            .unwrap(),
    };
    let mut g = c.benchmark_group("probe");
    g.sample_size(10);
    g.bench_function("null_probe", |b| {
        b.iter(|| black_box(experiment.run().unwrap().stats.flits_delivered))
    });
    g.bench_function("recorder", |b| {
        b.iter(|| {
            let (run, sim) = experiment.run_with(Recorder::new()).unwrap();
            black_box((run.stats.flits_delivered, sim.into_probe().digest()))
        })
    });
    g.finish();
}

criterion_group!(
    name = parallel;
    config = Criterion::default().sample_size(10);
    targets = bench_parallel_sweep, bench_hot_path_flits, bench_probe_overhead
);
criterion_main!(parallel);
