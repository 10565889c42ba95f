//! The benchmark driver: records the performance baseline into
//! `BENCH_sweep.json` and gates it.
//!
//! ```text
//! cargo run --release --bin bench -- record [out.json] [--baseline <flits/sec>]
//! cargo run --release --bin bench -- check [BENCH_sweep.json]
//! ```
//!
//! `record` times on this host the reference sweep (sequential vs
//! fixed worker counts; the speedup is `null` on a single-core host),
//! the hot-path cycle kernel against the pre-optimization flits/sec
//! `--baseline` embeds (without the flag, the baseline of the report
//! being replaced is kept), the sparse active-set core against the dense
//! reference at low injection rates, and the full figure set cold
//! (fresh content-addressed store) against warm (every point a hit).
//!
//! `check` gates the recorded file ([`static_failures`]), then
//! re-measures live ([`live_failures`]): a `Recorder`-traced run equals
//! the untraced one, the sparse core equals the dense reference and
//! keeps its gain, and a warm figure pass is fully cached,
//! byte-identical and faster than the cold one. Every gated ratio is
//! the median over interleaved A/B pairs measured in one process
//! ([`Pairs`]), so a slow stretch of a shared host slows both sides of
//! a pair; the live bars are looser than the recorded ones because CI
//! wall-clock is noisy. The ambient `NOC_CACHE` is forced off so a
//! populated store cannot flatter any timing.

use noc_core::cache::{self, unique_temp_dir, CacheCounters};
use noc_core::report::{git_provenance, FigureData, RunMetadata};
use noc_core::{sweep_rates, Experiment, Parallelism, TopologySpec, TrafficSpec};
use noc_sim::{Recorder, SimConfig, SimStats};
use serde::{Deserialize, Serialize};
use std::time::Instant;

type Result<T, E = Box<dyn std::error::Error>> = std::result::Result<T, E>;

/// Runs (or A/B pairs) behind every median.
const REPEATS: usize = 5;

/// The seed every benchmark workload is pinned to.
const BENCH_SEED: u64 = 2006;

/// The injection rates of the sparse-vs-dense rows.
const LOW_RATES: [f64; 2] = [0.05, 0.1];

/// The `NullProbe` hot path may lose at most 3% against the pre-probe
/// baseline.
const MIN_HOT_PATH_GAIN: f64 = 0.97;

/// The recorded sparse-vs-dense gain at the lowest recorded rate (the
/// regime the sparse core is built for).
const MIN_SPARSE_GAIN: f64 = 2.0;

/// Higher-rate rows only have to prove the sparse core is never slower
/// than the dense reference: the active-router ratio itself bounds
/// what skipping can earn (0.79 caps pure idle-skipping at 1.27x).
const MIN_SPARSE_GAIN_BUSY: f64 = 1.0;

/// The live sparse-vs-dense gain at the lowest recorded rate.
const MIN_LIVE_SPARSE_GAIN: f64 = 1.5;

/// The recorded warm-vs-cold speedup of the full figure set.
const MIN_CACHE_SPEEDUP: f64 = 10.0;

/// The live warm-vs-cold speedup of the full figure set.
const MIN_LIVE_CACHE_SPEEDUP: f64 = 3.0;

const RERECORD: &str = "regenerate it with \
    `cargo run --release -p noc-bench --bin bench -- record --baseline <flits/sec>`";

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Workload {
    sweep: String,
    hot_path: String,
    low_rate: String,
    repeats: usize,
    statistic: String,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct SweepSeconds {
    sequential: f64,
    fixed_2: f64,
    fixed_4: f64,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Speedup {
    fixed_2: f64,
    fixed_4: f64,
}

/// One low-rate row: the sparse active-set core against the dense
/// reference on the same workload, plus how busy the network actually
/// was.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct LowRateRow {
    injection_rate: f64,
    sparse_flits_per_sec: f64,
    dense_flits_per_sec: f64,
    /// Median over A/B pairs of dense seconds / sparse seconds — the
    /// payoff of idle-router skipping at this load point.
    sparse_gain: f64,
    /// Active router-cycles / total router-cycles in the sparse run.
    active_router_ratio: f64,
}

/// The full figure set timed cold (fresh store, every point simulated)
/// versus warm (every point answered from the store).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct FiguresCache {
    workload: String,
    /// Median of the cold passes.
    cold_seconds: f64,
    /// Median of the fully cached passes.
    warm_seconds: f64,
    /// Median over A/B pairs of cold seconds / warm seconds.
    speedup: f64,
    /// Hits of one warm pass (the one with the most misses).
    warm_hits: u64,
    /// Misses of the warm pass with the most misses.
    warm_misses: u64,
    /// Whether every warm pass rendered byte-for-byte the JSON and CSV
    /// of its cold pass.
    byte_identical: bool,
}

/// `BENCH_sweep.json`: `record` writes it, `check` reads it.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct BenchReport {
    workload: Workload,
    /// How this report was produced: resolved worker threads, policy,
    /// host cores and the cache counters of one warm figure pass.
    run_metadata: RunMetadata,
    /// The RNG seed all workloads are pinned to.
    seed: u64,
    /// `git describe --always --dirty` of the tree that was measured
    /// (`null` when git is unavailable).
    git_describe: Option<String>,
    host_cores: usize,
    sweep_seconds: SweepSeconds,
    /// `null` (or absent) on a single-core host, where "speedup" would
    /// only measure thread-pool overhead; the raw timings above remain.
    #[serde(default)]
    speedup_vs_sequential: Option<Speedup>,
    hot_path_flits_per_sec: f64,
    /// The same kernel measured on the pre-optimization simulator
    /// (passed with `--baseline` or kept from the replaced report;
    /// `null` when neither has one).
    #[serde(default)]
    hot_path_flits_per_sec_baseline: Option<f64>,
    #[serde(default)]
    hot_path_gain: Option<f64>,
    #[serde(default)]
    low_rate: Vec<LowRateRow>,
    #[serde(default)]
    figures_cache: Option<FiguresCache>,
    note: String,
}

/// The median of a sample set (the upper one of an even count).
///
/// # Panics
///
/// Panics on an empty set.
fn median(samples: impl IntoIterator<Item = f64>) -> f64 {
    let mut samples: Vec<f64> = samples.into_iter().collect();
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Wall-clock seconds of `work`, with its output.
fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = work();
    (out, start.elapsed().as_secs_f64())
}

/// Outputs and wall-clock seconds of [`REPEATS`] interleaved A/B pairs
/// measured in this process.
struct Pairs<A, B> {
    outputs: Vec<(A, B)>,
    secs: Vec<(f64, f64)>,
}

impl<A, B> Pairs<A, B> {
    /// Runs and times `a` then `b`, [`REPEATS`] times.
    fn measure(mut a: impl FnMut() -> Result<A>, mut b: impl FnMut() -> Result<B>) -> Result<Self> {
        let mut pairs = Pairs {
            outputs: Vec::with_capacity(REPEATS),
            secs: Vec::with_capacity(REPEATS),
        };
        for _ in 0..REPEATS {
            let (a, a_secs) = timed(&mut a);
            let a = a?;
            let (b, b_secs) = timed(&mut b);
            pairs.outputs.push((a, b?));
            pairs.secs.push((a_secs, b_secs));
        }
        Ok(pairs)
    }

    /// The median of the per-pair ratios `a / b`: how much faster `b`
    /// ran than `a`.
    fn ratio(&self) -> f64 {
        median(self.secs.iter().map(|(a, b)| a / b))
    }

    /// The median seconds of `a` and of `b`.
    fn median_secs(&self) -> (f64, f64) {
        let a = median(self.secs.iter().map(|(a, _)| *a));
        (a, median(self.secs.iter().map(|(_, b)| *b)))
    }
}

/// The exact bytes `all_figures` publishes for each figure.
fn rendered(figures: &[FigureData]) -> Vec<(String, String)> {
    figures.iter().map(|f| (f.to_json(), f.to_csv())).collect()
}

/// Spidergon under uniform load at `lambda`, no warmup. The hot-path
/// kernel is `spidergon_uniform(32, 0.3, 5_000, true)`; the low-rate
/// kernel is Spidergon-64 over 20k cycles at [`LOW_RATES`], the regime
/// the sparse active-set core is built for. `sparse` toggles the full
/// sparse path (active set + compiled routes) against the dense
/// reference core.
fn spidergon_uniform(nodes: usize, lambda: f64, cycles: u64, sparse: bool) -> Experiment {
    Experiment {
        topology: TopologySpec::Spidergon { nodes },
        traffic: TrafficSpec::Uniform,
        config: SimConfig::builder()
            .injection_rate(lambda)
            .warmup_cycles(0)
            .measure_cycles(cycles)
            .seed(BENCH_SEED)
            .sparse(sparse)
            .compiled_routes(sparse)
            .build()
            .unwrap(),
    }
}

/// The median of [`REPEATS`] samples.
fn median_of(mut sample: impl FnMut() -> Result<f64>) -> Result<f64> {
    let samples = (0..REPEATS).map(|_| sample()).collect::<Result<Vec<_>>>()?;
    Ok(median(samples))
}

/// Median wall-clock seconds of the reference sweep under the given
/// policy.
fn time_sweep(parallelism: Parallelism) -> Result<f64> {
    let config = SimConfig::builder()
        .warmup_cycles(200)
        .measure_cycles(2_000)
        .seed(BENCH_SEED)
        .build()?;
    let rates = [0.1, 0.2, 0.3, 0.4];
    let spidergon = TopologySpec::Spidergon { nodes: 16 };
    let uniform = TrafficSpec::Uniform;
    median_of(|| {
        let (sweep, secs) =
            timed(|| sweep_rates(spidergon, uniform, &config, &rates, 2, parallelism));
        std::hint::black_box(sweep?);
        Ok(secs)
    })
}

/// Times the dense reference against the sparse core on the identical
/// low-rate workload (same seed, so both deliver the same flits and
/// the ratio is pure wall-clock). Also returns whether every run's
/// `SimStats` equalled the first dense run's.
fn low_rate_row(lambda: f64) -> Result<(LowRateRow, bool)> {
    let run = |sparse| -> Result<(SimStats, f64)> {
        let mut sim = spidergon_uniform(64, lambda, 20_000, sparse).build_simulation()?;
        Ok((sim.run()?, sim.active_router_ratio()))
    };
    let pairs = Pairs::measure(|| run(false), || run(true))?;
    let ((reference, _), (_, active_router_ratio)) = &pairs.outputs[0];
    let flits = reference.flits_delivered as f64;
    let (dense_secs, sparse_secs) = pairs.median_secs();
    let row = LowRateRow {
        injection_rate: lambda,
        sparse_flits_per_sec: flits / sparse_secs,
        dense_flits_per_sec: flits / dense_secs,
        sparse_gain: pairs.ratio(),
        active_router_ratio: *active_router_ratio,
    };
    let mut runs = pairs
        .outputs
        .iter()
        .flat_map(|(dense, sparse)| [&dense.0, &sparse.0]);
    Ok((row, runs.all(|stats| stats == reference)))
}

/// The figure-cache workload: [`REPEATS`] pairs of the full figure set
/// (quick mode), cold into a fresh store, then warm from that store.
/// The row counts the worst warm pass (most misses); the counters
/// returned with it are the worst cold pass's (fewest misses). Leaves
/// `NOC_CACHE=0`.
fn figures_cache() -> Result<(FiguresCache, CacheCounters)> {
    let opts = noc_core::FigureOptions::quick();
    let pass = || -> Result<(Vec<FigureData>, CacheCounters)> {
        let before = cache::counters();
        let figures = noc_bench::all_figure_set(&opts)?;
        Ok((figures, cache::counters().since(&before)))
    };
    let mut dirs = Vec::new();
    let pairs = Pairs::measure(
        || {
            let dir = unique_temp_dir("noc-bench-cache");
            std::env::set_var("NOC_CACHE", &dir);
            dirs.push(dir);
            pass()
        },
        pass,
    );
    std::env::set_var("NOC_CACHE", "0");
    for dir in dirs {
        std::fs::remove_dir_all(dir).ok();
    }
    let pairs = pairs?;
    let passes = || pairs.outputs.iter();
    let warm = passes()
        .map(|(_, warm)| warm.1)
        .max_by_key(|c| c.misses)
        .unwrap();
    let cold = passes()
        .map(|(cold, _)| cold.1)
        .min_by_key(|c| c.misses)
        .unwrap();
    let (cold_seconds, warm_seconds) = pairs.median_secs();
    let row = FiguresCache {
        workload: "all paper figures (quick mode), cold store vs fully cached".to_owned(),
        cold_seconds,
        warm_seconds,
        speedup: pairs.ratio(),
        warm_hits: warm.hits,
        warm_misses: warm.misses,
        byte_identical: passes().all(|(cold, warm)| rendered(&cold.0) == rendered(&warm.0)),
    };
    Ok((row, cold))
}

/// The sparse-vs-dense gains of `rows` against `bar` at the lowest
/// rate and `busy_bar` (if any) elsewhere: one message per failure.
fn gain_failures(
    origin: &str,
    rows: &[LowRateRow],
    bar: f64,
    busy_bar: Option<f64>,
) -> Vec<String> {
    let lowest = rows
        .iter()
        .map(|row| row.injection_rate)
        .fold(f64::INFINITY, f64::min);
    rows.iter()
        .filter_map(|row| {
            let bar = if row.injection_rate == lowest {
                bar
            } else {
                busy_bar?
            };
            (row.sparse_gain < bar).then(|| {
                format!(
                    "{origin} low-rate gain at lambda {} regressed: {:.2} < {bar}",
                    row.injection_rate, row.sparse_gain
                )
            })
        })
        .collect()
}

/// The warm-vs-cold gates of a figure-cache row: byte-identical,
/// fully cached and at least `bar` faster. One message per failure.
fn cache_failures(origin: &str, row: &FiguresCache, bar: f64) -> Vec<String> {
    let mut failures = Vec::new();
    if !row.byte_identical {
        failures.push(format!(
            "{origin} warm figures are not byte-identical to cold figures"
        ));
    }
    if row.warm_misses != 0 || row.warm_hits == 0 {
        failures.push(format!(
            "{origin} warm pass was not fully cached: {} hit(s), {} miss(es)",
            row.warm_hits, row.warm_misses
        ));
    }
    if row.speedup < bar {
        failures.push(format!(
            "{origin} warm-vs-cold speedup regressed: {:.1} < {bar}",
            row.speedup
        ));
    }
    failures
}

/// The static gates over a recorded report: one message per failed
/// check, empty when every gate passes.
fn static_failures(report: &BenchReport) -> Vec<String> {
    let mut failures = Vec::new();
    match report
        .hot_path_gain
        .zip(report.hot_path_flits_per_sec_baseline)
    {
        Some((gain, _)) if gain >= MIN_HOT_PATH_GAIN => {}
        Some((gain, _)) => failures.push(format!(
            "NullProbe hot path regressed: gain {gain:.4} < {MIN_HOT_PATH_GAIN} \
             (more than 3% slower than the pre-probe baseline)"
        )),
        None => failures.push(format!("no hot_path_gain/baseline recorded — {RERECORD}")),
    }
    if report.low_rate.is_empty() {
        failures.push(format!("no low_rate rows recorded — {RERECORD}"));
    }
    let busy = Some(MIN_SPARSE_GAIN_BUSY);
    failures.extend(gain_failures(
        "recorded",
        &report.low_rate,
        MIN_SPARSE_GAIN,
        busy,
    ));
    match &report.figures_cache {
        Some(row) => failures.extend(cache_failures("recorded", row, MIN_CACHE_SPEEDUP)),
        None => failures.push(format!("no figures_cache section recorded — {RERECORD}")),
    }
    failures
}

/// The live gates, re-measured on this host at the `recorded` rates:
/// one message per failed check.
fn live_failures(recorded: &[LowRateRow]) -> Result<Vec<String>> {
    let mut failures = Vec::new();

    // Observation never perturbs the simulation.
    let experiment = spidergon_uniform(32, 0.3, 5_000, true);
    let mut recorder = None;
    let pairs = Pairs::measure(
        || {
            let (run, traced) = experiment.run_with(Recorder::new())?;
            recorder.get_or_insert(traced.into_probe());
            Ok(run)
        },
        || Ok(experiment.run()?),
    )?;
    let recorder = recorder.expect("one traced run per pair");
    println!(
        "live: recorder {} events, digest {:016x}, costs {:+.1}% wall-clock (informational)",
        recorder.events().len(),
        recorder.digest(),
        100.0 * (pairs.ratio() - 1.0)
    );
    if pairs.outputs.iter().any(|(traced, plain)| traced != plain) {
        failures.push("recorder perturbed the run: traced results differ from untraced".to_owned());
    }

    // The sparse core never changes the simulation and keeps its gain.
    let mut rows = Vec::new();
    for lambda in recorded.iter().map(|row| row.injection_rate) {
        let (row, identical) = low_rate_row(lambda)?;
        println!("live: {}", serde_json::to_string(&row)?);
        if !identical {
            failures.push(format!(
                "sparse core diverged from dense reference at lambda {lambda}"
            ));
        }
        rows.push(row);
    }
    failures.extend(gain_failures("live", &rows, MIN_LIVE_SPARSE_GAIN, None));

    // The cache never changes a published number and keeps its payoff.
    // A few points hit even against a fresh store: figures sharing an
    // experiment point reuse the record an earlier figure stored.
    let (row, cold) = figures_cache()?;
    println!("live: {}, cold {cold:?}", serde_json::to_string(&row)?);
    if cold.misses <= cold.hits {
        failures.push("cold pass into a fresh store must simulate nearly every point".to_owned());
    }
    failures.extend(cache_failures("live", &row, MIN_LIVE_CACHE_SPEEDUP));
    Ok(failures)
}

fn check(path: &str) -> Result<()> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let report: BenchReport = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: hot_path_gain {:?}, low_rate {}, figures_cache {}",
        report.hot_path_gain,
        serde_json::to_string(&report.low_rate)?,
        serde_json::to_string(&report.figures_cache)?
    );
    let mut failures = static_failures(&report);
    failures.extend(live_failures(&report.low_rate)?);
    if failures.is_empty() {
        println!("bench check passed: every recorded and live gate holds");
        return Ok(());
    }
    for failure in &failures {
        eprintln!("FAILED: {failure}");
    }
    Err(format!("{} gate(s) failed", failures.len()).into())
}

/// The pre-probe hot-path baseline a `record` writes: the `--baseline`
/// value when given, else the one the report being replaced holds
/// (when it parses), else none. A re-record thus keeps the recorded
/// baseline instead of nulling it.
fn carried_baseline(flag: Option<f64>, existing: Option<&str>) -> Option<f64> {
    flag.or_else(|| {
        serde_json::from_str::<BenchReport>(existing?)
            .ok()?
            .hot_path_flits_per_sec_baseline
    })
}

fn record(out: &str, baseline: Option<f64>) -> Result<()> {
    let baseline = carried_baseline(baseline, std::fs::read_to_string(out).ok().as_deref());
    let host_cores = noc_core::parallel::available_cores();
    eprintln!("timing reference sweep ({host_cores} host cores, {REPEATS} repeats each)...");
    let sequential = time_sweep(Parallelism::Sequential)?;
    let fixed_2 = time_sweep(Parallelism::Fixed(2))?;
    let fixed_4 = time_sweep(Parallelism::Fixed(4))?;
    let hot_path = spidergon_uniform(32, 0.3, 5_000, true);
    let flits = median_of(|| {
        let (run, secs) = timed(|| hot_path.run());
        Ok(run?.stats.flits_delivered as f64 / secs)
    })?;
    eprintln!("timing low-rate sparse-vs-dense kernels...");
    let low_rate = LOW_RATES
        .into_iter()
        .map(|lambda| Ok(low_rate_row(lambda)?.0))
        .collect::<Result<Vec<_>>>()?;
    eprintln!("timing warm-vs-cold figure regeneration through the experiment cache...");
    let (cache, _) = figures_cache()?;

    let report = BenchReport {
        workload: Workload {
            sweep:
                "spidergon-16 uniform, rates [0.1, 0.2, 0.3, 0.4], 2 replications, 2200 cycles each"
                    .to_owned(),
            hot_path: "spidergon-32 uniform, lambda 0.3, 5000 measured cycles".to_owned(),
            low_rate: format!(
                "spidergon-64 uniform, lambda {LOW_RATES:?}, 20000 measured cycles, \
                 sparse core vs dense reference"
            ),
            repeats: REPEATS,
            statistic: "median".to_owned(),
        },
        run_metadata: RunMetadata {
            cache_hits: cache.warm_hits,
            cache_misses: cache.warm_misses,
            ..RunMetadata::for_parallelism(Parallelism::default()).with_git_provenance()
        },
        seed: BENCH_SEED,
        git_describe: git_provenance().0,
        host_cores,
        sweep_seconds: SweepSeconds {
            sequential,
            fixed_2,
            fixed_4,
        },
        speedup_vs_sequential: (host_cores > 1).then_some(Speedup {
            fixed_2: sequential / fixed_2,
            fixed_4: sequential / fixed_4,
        }),
        hot_path_flits_per_sec: flits,
        hot_path_flits_per_sec_baseline: baseline,
        hot_path_gain: baseline.map(|b| flits / b),
        low_rate,
        figures_cache: Some(cache),
        note: if host_cores < 2 {
            "single-core host: parallel timings measure scheduling overhead, not speedup"
        } else {
            "speedup is bounded by host cores and per-job runtime"
        }
        .to_owned(),
    };
    let pretty = serde_json::to_string_pretty(&report)?;
    std::fs::write(out, format!("{pretty}\n"))?;
    println!("{pretty}");
    eprintln!("wrote {out}");
    Ok(())
}

fn main() -> Result<()> {
    const USAGE: &str = "usage: bench record [out.json] [--baseline <flits/sec>] | \
                         bench check [BENCH_sweep.json]";
    std::env::set_var("NOC_CACHE", "0");
    let mut args = std::env::args().skip(1);
    let mode = args.next().ok_or(USAGE)?;
    let mut path = "BENCH_sweep.json".to_owned();
    let mut baseline = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" if mode == "record" => {
                let value = args.next().ok_or("--baseline needs a flits/sec value")?;
                baseline = Some(value.parse()?);
            }
            flag if flag.starts_with('-') => return Err(USAGE.into()),
            other => path = other.to_owned(),
        }
    }
    match mode.as_str() {
        "record" => record(&path, baseline),
        "check" => check(&path),
        _ => Err(USAGE.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> BenchReport {
        serde_json::from_str(include_str!("../../../../BENCH_sweep.json")).unwrap()
    }

    #[test]
    fn committed_report_passes_the_static_gates() {
        assert_eq!(static_failures(&committed()), Vec::<String>::new());
    }

    #[test]
    fn committed_report_round_trips() {
        let report = committed();
        assert!(report.speedup_vs_sequential.is_none());
        let text = serde_json::to_string_pretty(&report).unwrap();
        assert_eq!(serde_json::from_str::<BenchReport>(&text).unwrap(), report);
    }

    #[test]
    fn low_sparse_gain_at_the_lowest_rate_fails_naming_lambda() {
        let mut report = committed();
        let row = &mut report.low_rate[0];
        assert_eq!(row.injection_rate, 0.05);
        row.sparse_gain = 1.9;
        let failures = static_failures(&report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("lambda 0.05"), "{failures:?}");
    }

    #[test]
    fn missing_hot_path_gain_fails_with_the_rerecord_hint() {
        let mut report = committed();
        report.hot_path_gain = None;
        let failures = static_failures(&report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains(RERECORD), "{failures:?}");
    }

    #[test]
    fn missing_figures_cache_fails() {
        let mut report = committed();
        report.figures_cache = None;
        let failures = static_failures(&report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("figures_cache"), "{failures:?}");
    }

    #[test]
    fn a_warm_miss_fails() {
        let mut report = committed();
        report.figures_cache.as_mut().unwrap().warm_misses = 1;
        let failures = static_failures(&report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("1 miss(es)"), "{failures:?}");
    }

    #[test]
    fn record_baseline_comes_from_the_flag_then_the_replaced_file() {
        let text = include_str!("../../../../BENCH_sweep.json");
        let recorded = committed().hot_path_flits_per_sec_baseline;
        assert!(recorded.is_some());
        assert_eq!(carried_baseline(Some(1.5e6), Some(text)), Some(1.5e6));
        assert_eq!(carried_baseline(None, Some(text)), recorded);
        assert_eq!(carried_baseline(None, None), None);
        assert_eq!(carried_baseline(None, Some("not json")), None);
    }

    #[test]
    fn pair_ratio_is_the_median_of_per_pair_ratios() {
        // Per-pair ratios 2, 4, 1, 3, 10: the median is 3, while the
        // ratio of the medians (4 / 1) would be 4.
        let pairs = Pairs {
            outputs: vec![((), ()); 5],
            secs: vec![(2.0, 1.0), (4.0, 1.0), (1.0, 1.0), (6.0, 2.0), (10.0, 1.0)],
        };
        assert_eq!(pairs.ratio(), 3.0);
        assert_eq!(pairs.median_secs(), (4.0, 1.0));
        assert_eq!(median([3.0, 1.0, 2.0, 4.0]), 3.0);
    }
}
