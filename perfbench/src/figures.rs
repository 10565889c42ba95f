//! The figure workloads: the figure set of `noc_bench::all_figure_set`
//! (Figs. 2, 3, 5-11 and the link table) computed with two workers
//! against a private result store, and emitted the way `all_figures`
//! emits it (ASCII table and plot, CSV, JSON) into the run's own
//! directory.
//!
//! `figures_cold` empties the store before every pass, so every point
//! is simulated and written; `figures_warm` fills it once before timing,
//! so every point is read back and nothing is simulated.

use crate::measure::{cpu_seconds, median, secs, Fnv, Metric};
use crate::trace::Tracer;
use crate::{recorded_digest, Args, Dirs, Outcome, PassSample, Workload};
use noc_core::report::FigureData;
use noc_core::{figures as f, CoreError, ExperimentCache, FigureOptions};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The calls of `noc_bench::all_figure_set`, in its order, with their
/// span names. A call with the emission of its figures is one timed
/// call; its time, divided by its sweep points, stands for each of them.
const CALLS: [(&str, &str); 7] = [
    ("fig2", "figures.fig2"),
    ("fig3", "figures.fig3"),
    ("table_links", "figures.table_links"),
    ("fig5", "figures.fig5"),
    ("fig6_7", "figures.fig6_7"),
    ("fig8_9", "figures.fig8_9"),
    ("fig10_11", "figures.fig10_11"),
];

const FIGURE_IDS: [&str; 10] = [
    "fig2",
    "fig3",
    "table-links",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
];

/// Sized between `FigureOptions::quick` (too short and noisy to time)
/// and `FigureOptions::full` (about a minute cold on two cores).
fn options(seed: u64) -> FigureOptions {
    FigureOptions {
        warmup_cycles: 300,
        measure_cycles: 1_500,
        replications: 1,
        seed,
        max_rate: 0.6,
        rate_steps: 6,
        node_counts: vec![8, 16, 24],
    }
}

/// Sweep points (simulated experiments) behind a figure call, as the
/// figure functions lay out their grids: `fig5` runs N = 8, 12, ..., 32
/// for three families at one rate; the sweep figures run every node
/// count for three families (two placement scenarios for `fig8_9`) at
/// every rate. The analytical calls run none. Each point is one store
/// entry, which the checks confirm.
fn sweep_points(name: &str, opts: &FigureOptions) -> usize {
    let sweep = opts.node_counts.len() * 3 * opts.rates().len() * opts.replications;
    match name {
        "fig5" => 7 * 3 * opts.replications,
        "fig6_7" | "fig10_11" => sweep,
        "fig8_9" => 2 * sweep,
        _ => 0,
    }
}

fn call(name: &str, opts: &FigureOptions) -> Result<Vec<FigureData>, CoreError> {
    Ok(match name {
        "fig2" => vec![f::fig2(64)],
        "fig3" => vec![f::fig3(64)],
        "table_links" => vec![f::table_links(&[8, 12, 16, 24, 32, 48, 64])],
        "fig5" => vec![f::fig5(opts)?],
        "fig6_7" => {
            let (a, b) = f::fig6_7(opts)?;
            vec![a, b]
        }
        "fig8_9" => {
            let (a, b) = f::fig8_9(opts)?;
            vec![a, b]
        }
        _ => {
            let (a, b) = f::fig10_11(opts)?;
            vec![a, b]
        }
    })
}

/// The three files `all_figures` produces for a figure, as written.
#[derive(Clone, PartialEq)]
struct Emitted {
    id: String,
    text: String,
    csv: String,
    json: String,
}

impl Emitted {
    fn bytes(&self) -> u64 {
        (self.text.len() + self.csv.len() + self.json.len()) as u64
    }
}

/// Renders and writes one figure: the ASCII table plus terminal plot
/// (log scale for latency figures, as `noc_bench::emit` draws it), the
/// CSV and the JSON.
fn emit(fig: &FigureData, dir: &Path, tracer: &mut Tracer) -> std::io::Result<Emitted> {
    let write = |ext: &str, body: &str| std::fs::write(dir.join(format!("{}.{ext}", fig.id)), body);
    let text = tracer.span("report.text", |_| {
        let plot = if fig.y_label.contains("latency") || fig.y_label.contains("cycles") {
            noc_core::plot::PlotOptions::log()
        } else {
            noc_core::plot::PlotOptions::default()
        };
        let text = format!(
            "{}\n{}\n",
            fig.to_ascii_table(),
            noc_core::plot::render(fig, plot)
        );
        write("txt", &text).map(|()| text)
    })?;
    let csv = tracer.span("report.csv", |_| {
        let csv = fig.to_csv();
        write("csv", &csv).map(|()| csv)
    })?;
    let json = tracer.span("report.json", |_| {
        let json = fig.to_json();
        write("json", &json).map(|()| json)
    })?;
    Ok(Emitted {
        id: fig.id.clone(),
        text,
        csv,
        json,
    })
}

/// One pass over the figure set.
struct Pass {
    figures: Vec<Emitted>,
    /// Seconds of each figure call, without emission.
    call_secs: [f64; 7],
    /// Seconds of each call plus the emission of its figures.
    point_secs: [f64; 7],
    /// CPU seconds of all threads during the calls (traced passes).
    cpu_secs: f64,
    /// Flits delivered in the measurement windows behind the
    /// throughput figures (Figs. 6, 8 and 10).
    flits: f64,
}

fn figure_pass(
    opts: &FigureOptions,
    dir: &Path,
    tracer: &mut Tracer,
    traced: bool,
) -> Result<Pass, String> {
    let mut pass = Pass {
        figures: Vec::new(),
        call_secs: [0.0; 7],
        point_secs: [0.0; 7],
        cpu_secs: 0.0,
        flits: 0.0,
    };
    for (k, &(name, span)) in CALLS.iter().enumerate() {
        tracer.set_point(k as u64);
        let cpu = if traced { cpu_seconds() } else { 0.0 };
        let start = Instant::now();
        let figs = tracer
            .span(span, |_| call(name, opts))
            .map_err(|e| format!("{name}: {e}"))?;
        pass.call_secs[k] = secs(start);
        if traced {
            pass.cpu_secs += cpu_seconds() - cpu;
        }
        for fig in &figs {
            let emitted =
                emit(fig, dir, tracer).map_err(|e| format!("emitting {}: {e}", fig.id))?;
            pass.figures.push(emitted);
            if ["fig6", "fig8", "fig10"].contains(&fig.id.as_str()) {
                let per_point = (opts.measure_cycles * opts.replications as u64) as f64;
                let throughput: f64 = fig.series.iter().flat_map(|s| &s.points).map(|p| p.y).sum();
                pass.flits += throughput * per_point;
            }
        }
        pass.point_secs[k] = secs(start);
    }
    Ok(pass)
}

fn json_digest(figures: &[Emitted]) -> u64 {
    figures
        .iter()
        .fold(Fnv::new(), |h, e| h.bytes(e.json.as_bytes()))
        .finish()
}

/// Checks the first pass: the figure ids of the set, in order, finite
/// values everywhere, and the digest recorded for this seed, if any.
fn check_first(seed: u64, pass: &Pass, out: &mut Outcome) {
    let ids: Vec<&str> = pass.figures.iter().map(|e| e.id.as_str()).collect();
    out.check(ids == FIGURE_IDS, || format!("figure ids {ids:?}"));
    let finite = pass
        .figures
        .iter()
        .all(|e| !e.csv.contains("NaN") && !e.csv.contains("inf"));
    out.check(finite, || "a figure holds a non-finite value".to_owned());
    let got = json_digest(&pass.figures);
    println!("# figures seed {seed} json digest {got:016x}");
    if let Some(want) = recorded_digest("figures", seed, "json") {
        out.check(got == want, || {
            format!("figure JSON digest {got:016x}, recorded {want:016x}")
        });
    }
}

fn store_stats(store: &ExperimentCache, out: &mut Outcome) -> noc_core::CacheStats {
    store.stats().unwrap_or_else(|e| {
        out.error(format!("cache stats: {e}"));
        noc_core::CacheStats::default()
    })
}

/// Fills the store under `scratch` through `all_figure_set` and emits
/// its figures there: the `--fill` mode of this program.
pub fn fill(seed: u64, scratch: &Path) -> Result<(), String> {
    let emit_dir = scratch.join("figures");
    // No worker thread exists yet.
    std::env::set_var("NOC_CACHE", scratch.join("store"));
    std::fs::create_dir_all(&emit_dir).map_err(|e| e.to_string())?;
    let figs = noc_bench::all_figure_set(&options(seed)).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new();
    for fig in &figs {
        emit(fig, &emit_dir, &mut tracer).map_err(|e| format!("emitting {}: {e}", fig.id))?;
    }
    Ok(())
}

/// Runs [`fill`] in a child process of this program and waits for it.
fn fill_in_child(seed: u64, scratch: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .args(["--workload", Workload::FiguresWarm.name(), "--seed"])
        .arg(seed.to_string())
        .arg("--fill")
        .arg(scratch)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("the fill process ended with {status}"))
    }
}

/// The figures a fill emitted, read back from `dir`.
fn read_emitted(dir: &Path) -> Result<Vec<Emitted>, String> {
    let read = |id: &str, ext: &str| {
        let path = dir.join(format!("{id}.{ext}"));
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    FIGURE_IDS
        .iter()
        .map(|&id| {
            Ok(Emitted {
                id: id.to_owned(),
                text: read(id, "txt")?,
                csv: read(id, "csv")?,
                json: read(id, "json")?,
            })
        })
        .collect()
}

pub fn run(args: &Args, dirs: &Dirs, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let cold = args.workload == Workload::FiguresCold;
    let workers = args.workload.workers() as f64;
    let store_dir = dirs.scratch.join("store");
    let emit_dir = dirs.scratch.join("figures");
    // The figure functions reach the store through NOC_CACHE; no worker
    // thread exists yet.
    std::env::set_var("NOC_CACHE", &store_dir);
    let store = ExperimentCache::at(&store_dir);

    // figures_warm: fill the store through `all_figure_set` itself, so
    // the timed passes (one call per figure function) are checked byte
    // for byte against the set's own output. Not part of setup_s:
    // figures_cold measures that cost. The fill runs in a child process,
    // so this process's peak RSS is that of a warm rerun, which never
    // simulates.
    let mut opts = options(args.seed);
    let mut reference: Option<Vec<Emitted>> = None;
    if !cold {
        match fill_in_child(args.seed, &dirs.scratch).and_then(|()| read_emitted(&emit_dir)) {
            Ok(emitted) => reference = Some(emitted),
            Err(e) => out.error(format!("filling the store: {e}")),
        }
    }
    // Set-up, before every untraced pass: the options, an empty store
    // for figures_cold (removing the one the previous pass filled), the
    // run's directories and a scan of the store about to be used.
    let set_up = |opts: &mut FigureOptions, out: &mut Outcome| {
        let start = Instant::now();
        if cold {
            let _ = std::fs::remove_dir_all(&store_dir);
        }
        *opts = options(args.seed);
        let ready =
            std::fs::create_dir_all(&store_dir).and_then(|()| std::fs::create_dir_all(&emit_dir));
        let stats = store_stats(&store, out);
        out.setup_secs.push(secs(start));
        ready
            .map(|()| stats)
            .map_err(|e| out.error(format!("creating the run directories: {e}")))
    };
    let filled = store_stats(&store, &mut out);

    let mut first: Option<Pass> = None;
    let mut call_secs: Vec<[f64; 7]> = Vec::new();
    let (mut busy, mut busy_wall) = (Vec::new(), 0.0);
    let mut report_ms: [Vec<f64>; 3] = Default::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut index = 0usize;
    loop {
        let traced = args.trace && index % 2 == 1;
        let before = if traced {
            if cold {
                let _ = std::fs::remove_dir_all(&store_dir);
            }
            store_stats(&store, &mut out)
        } else {
            match set_up(&mut opts, &mut out) {
                Ok(stats) => stats,
                Err(()) => return out,
            }
        };
        let span_start = tracer.len();
        tracer.set_enabled(traced);
        let start = Instant::now();
        let result = figure_pass(&opts, &emit_dir, tracer, traced);
        let wall = secs(start);
        tracer.set_enabled(false);
        out.attempted += CALLS.len() as u64;
        let pass = match result {
            Ok(pass) => pass,
            Err(e) => {
                out.failed += 1;
                out.failures.push(format!("pass {index}: {e}"));
                break;
            }
        };
        let after = store_stats(&store, &mut out);
        let stores = after.entries.saturating_sub(before.entries);
        let mut counts = BTreeMap::new();
        counts.insert("cache.entries".to_owned(), after.entries as u64);
        counts.insert("cache.bytes".to_owned(), after.total_bytes);
        counts.insert("cache.stores".to_owned(), stores as u64);
        counts.insert(
            "report.bytes".to_owned(),
            pass.figures.iter().map(Emitted::bytes).sum(),
        );
        counts.insert("digest.figures".to_owned(), json_digest(&pass.figures));
        out.pass_counts(counts);
        if traced {
            out.traced_pass_secs.push(wall);
            call_secs.push(pass.call_secs);
            busy.push(pass.cpu_secs);
            busy_wall += pass.call_secs.iter().sum::<f64>();
            for (slot, name) in
                report_ms
                    .iter_mut()
                    .zip(["report.json", "report.csv", "report.text"])
            {
                slot.push(tracer.durations(name, span_start).iter().sum::<f64>() * 1e3);
            }
        } else {
            out.untraced_secs.push(wall);
            // Each sweep point of a call counts the call's time per point.
            let (point_ms, point_weight) = CALLS
                .iter()
                .zip(pass.point_secs)
                .map(|(&(name, _), s)| (s, sweep_points(name, &opts)))
                .filter(|&(_, points)| points > 0)
                .map(|(s, points)| (s * 1e3 / points as f64, points))
                .unzip();
            out.passes.push(PassSample {
                wall,
                point_ms,
                point_weight,
                flits: pass.flits,
                flit_secs: pass.call_secs[4..].iter().sum(),
            });
        }
        match &first {
            None => {
                check_first(args.seed, &pass, &mut out);
                let points: usize = CALLS
                    .iter()
                    .map(|&(name, _)| sweep_points(name, &opts))
                    .sum();
                out.check(after.entries == points, || {
                    format!("{} store entries for {points} sweep points", after.entries)
                });
                if cold {
                    out.check(stores > 0 && stores == after.entries, || {
                        format!("cold pass stored {stores} of {} entries", after.entries)
                    });
                }
                first = Some(pass);
            }
            Some(first) => {
                let same = pass.figures == first.figures;
                out.check(same, || {
                    format!("pass {index} output differs from the first pass")
                });
            }
        }
        index += 1;
        if Instant::now() >= deadline && (!args.trace || index >= 2) {
            break;
        }
    }

    let Some(first) = first else {
        out.error("no pass completed".to_owned());
        return out;
    };
    if cold && out.setup_secs.len() > 1 {
        // The first set-up had no filled store to remove.
        out.setup_secs.remove(0);
    }
    if cold {
        // The set's own entry point, answered by the now warm store,
        // must reproduce the cold output without storing anything.
        match noc_bench::all_figure_set(&opts) {
            Ok(figs) => {
                let json: Vec<String> = figs.iter().map(FigureData::to_json).collect();
                let cold_json: Vec<&String> = first.figures.iter().map(|e| &e.json).collect();
                out.check(json.iter().eq(cold_json), || {
                    "warm figure set differs from the cold output".to_owned()
                });
            }
            Err(e) => out.error(format!("all_figure_set: {e}")),
        }
        let expected = out.counts.get("cache.entries").copied().unwrap_or(0);
        let entries = store_stats(&store, &mut out).entries as u64;
        out.check(entries == expected, || {
            format!("the warm re-read changed the store: {expected} -> {entries} entries")
        });
    } else {
        let same = reference.as_ref() == Some(&first.figures);
        out.check(same, || {
            "warm output is not byte-identical to the cold fill".to_owned()
        });
        let entries = store_stats(&store, &mut out).entries;
        out.check(entries == filled.entries && entries > 0, || {
            format!(
                "warm passes changed the store: {} -> {entries} entries",
                filled.entries
            )
        });
    }

    if args.trace {
        let count = |name: &str| out.counts.get(name).copied().unwrap_or(0) as f64;
        let call = |k: usize| median(&call_secs.iter().map(|c| c[k]).collect::<Vec<_>>());
        let analytical = median(
            &call_secs
                .iter()
                .map(|c| c[0] + c[1] + c[2])
                .collect::<Vec<_>>(),
        );
        let entries = count("cache.entries");
        out.layers = vec![
            Metric::new("cache.entries", entries, "count"),
            Metric::new("cache.bytes", count("cache.bytes"), "bytes"),
            Metric::new("cache.stores", count("cache.stores"), "count"),
            Metric::new(
                "cache.hit_ratio",
                (entries - count("cache.stores")) / entries.max(1.0),
                "ratio",
            ),
            Metric::new("parallel.busy_s", median(&busy), "s"),
            Metric::new(
                "parallel.efficiency",
                busy.iter().sum::<f64>() / (busy_wall * workers).max(1e-12),
                "ratio",
            ),
            Metric::new("parallel.workers", workers, "count"),
            Metric::new("figures.analytical_s", analytical, "s"),
            Metric::new("figures.fig5_s", call(3), "s"),
            Metric::new("figures.fig6_7_s", call(4), "s"),
            Metric::new("figures.fig8_9_s", call(5), "s"),
            Metric::new("figures.fig10_11_s", call(6), "s"),
            Metric::new("report.json_ms", median(&report_ms[0]), "ms"),
            Metric::new("report.csv_ms", median(&report_ms[1]), "ms"),
            Metric::new("report.text_ms", median(&report_ms[2]), "ms"),
            Metric::new("report.bytes", count("report.bytes"), "bytes"),
        ];
    }
    out
}
