//! Shared plumbing for the figure-regeneration binary and Criterion
//! benches.
//!
//! [`FIGURES`] names every figure call: the paper's figures and tables
//! and the extensions beyond it. `all_figures` prints the data of any
//! selection of them as an aligned ASCII table and writes CSV + JSON
//! dumps under `results/` (`cargo run --release --bin all_figures --
//! --only fig10_11`), and a Criterion bench (`cargo bench`) measures
//! the cost of regenerating them.

use noc_core::figures;
use noc_core::report::FigureData;
use noc_core::{CoreError, FigureOptions};
use std::path::{Path, PathBuf};

/// Directory `all_figures` writes its CSV/JSON dumps into
/// (relative to the working directory).
pub const RESULTS_DIR: &str = "results";

/// Quality selection for `all_figures` via the `NOC_FIGURE_MODE`
/// environment variable: `quick` (seconds) or `full` (default,
/// minutes in release mode).
pub fn figure_options_from_env() -> FigureOptions {
    match std::env::var("NOC_FIGURE_MODE").as_deref() {
        Ok("quick") => FigureOptions::quick(),
        _ => FigureOptions::full(),
    }
}

/// Computes the figures of one [`FIGURES`] entry, in emission order.
pub type FigureCall = fn(&FigureOptions) -> Result<Vec<FigureData>, CoreError>;

/// One named entry of the figure table.
pub struct NamedFigures {
    /// The name `all_figures --only` selects the entry by.
    pub name: &'static str,
    /// Whether the entry extends the paper (emitted with `--ext`).
    pub extension: bool,
    /// The call that computes the entry's figures.
    pub call: FigureCall,
}

const fn paper(name: &'static str, call: FigureCall) -> NamedFigures {
    NamedFigures {
        name,
        extension: false,
        call,
    }
}

const fn ext(name: &'static str, call: FigureCall) -> NamedFigures {
    NamedFigures {
        name,
        extension: true,
        call,
    }
}

fn pair((a, b): (FigureData, FigureData)) -> Vec<FigureData> {
    vec![a, b]
}

/// Every figure call, in emission order: the paper's Figures 2-3 and
/// link-count table (analytical) and simulated Figures 5-11, then the
/// extensions (torus, adaptive routing, Spidergon routing variants,
/// mixed hot-spot traffic, per-link utilization heatmap).
pub const FIGURES: &[NamedFigures] = &[
    paper("fig2", |_| Ok(vec![figures::fig2(64)])),
    paper("fig3", |_| Ok(vec![figures::fig3(64)])),
    paper("table_links", |_| {
        Ok(vec![figures::table_links(&[8, 12, 16, 24, 32, 48, 64])])
    }),
    paper("fig5", |opts| Ok(vec![figures::fig5(opts)?])),
    paper("fig6_7", |opts| figures::fig6_7(opts).map(pair)),
    paper("fig8_9", |opts| figures::fig8_9(opts).map(pair)),
    paper("fig10_11", |opts| figures::fig10_11(opts).map(pair)),
    ext("ext_torus", |opts| figures::ext_torus(opts).map(pair)),
    ext("ext_adaptive", |opts| figures::ext_adaptive(opts).map(pair)),
    ext("ext_spidergon_routing", |opts| {
        Ok(vec![figures::ext_spidergon_routing(opts)?])
    }),
    ext("ext_mixed_hotspot", |opts| {
        Ok(vec![figures::ext_mixed_hotspot(opts)?])
    }),
    ext("ext_link_heatmap", |opts| {
        Ok(vec![figures::ext_link_heatmap(opts)?])
    }),
];

/// Resolves `all_figures` arguments to the [`FIGURES`] entries to
/// emit: the paper's entries by default, the extensions too with
/// `--ext`, or the one entry `--only <name>` names.
///
/// # Errors
///
/// Returns a usage message for an unknown argument or name; an
/// unknown name's message lists the valid ones.
pub fn select_figures(
    args: impl IntoIterator<Item = String>,
) -> Result<Vec<&'static NamedFigures>, String> {
    let mut extensions = false;
    let mut only = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ext" => extensions = true,
            "--only" => only = Some(args.next().ok_or("--only needs a figure name")?),
            other => {
                return Err(format!(
                    "unknown argument `{other}`; usage: all_figures [--ext] [--only <name>]"
                ))
            }
        }
    }
    match only {
        Some(name) => match FIGURES.iter().find(|entry| entry.name == name) {
            Some(entry) => Ok(vec![entry]),
            None => {
                let names: Vec<_> = FIGURES.iter().map(|entry| entry.name).collect();
                Err(format!(
                    "unknown figure `{name}`; valid names: {}",
                    names.join(" ")
                ))
            }
        },
        None => Ok(FIGURES
            .iter()
            .filter(|entry| extensions || !entry.extension)
            .collect()),
    }
}

/// Computes every figure and table of the paper, in publication order:
/// Figures 2-3 and the link-count table (analytical), then the
/// simulated Figures 5-11 — the non-extension [`FIGURES`] entries.
/// This is the workload `all_figures` emits by default and `bench`
/// times warm-vs-cold.
///
/// # Errors
///
/// Returns the first figure-construction error.
pub fn all_figure_set(opts: &FigureOptions) -> Result<Vec<FigureData>, CoreError> {
    let mut figures = Vec::new();
    for entry in FIGURES.iter().filter(|entry| !entry.extension) {
        figures.extend((entry.call)(opts)?);
    }
    Ok(figures)
}

/// Prints a figure as an ASCII table plus a terminal line plot, and
/// writes `<id>.csv` and `<id>.json` under [`RESULTS_DIR`].
///
/// Latency figures (y axis in cycles) are plotted on a log scale so
/// the saturation knees stay visible next to the zero-load values.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing the
/// files.
pub fn emit(figure: &FigureData) -> std::io::Result<()> {
    print!("{}", figure.to_ascii_table());
    println!();
    let plot_opts = if figure.y_label.contains("latency") || figure.y_label.contains("cycles") {
        noc_core::plot::PlotOptions::log()
    } else {
        noc_core::plot::PlotOptions::default()
    };
    println!("{}", noc_core::plot::render(figure, plot_opts));
    let dir = PathBuf::from(RESULTS_DIR);
    std::fs::create_dir_all(&dir)?;
    write_dumps(figure, &dir)?;
    println!(
        "wrote {}/{}.csv and {}/{}.json",
        RESULTS_DIR, figure.id, RESULTS_DIR, figure.id
    );
    Ok(())
}

/// Writes the CSV and JSON dumps of a figure into `dir`.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_dumps(figure: &FigureData, dir: &Path) -> std::io::Result<()> {
    std::fs::write(dir.join(format!("{}.csv", figure.id)), figure.to_csv())?;
    std::fs::write(dir.join(format!("{}.json", figure.id)), figure.to_json())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::report::Series;

    #[test]
    fn dumps_are_written() {
        let fig = FigureData::new("unit-test-fig", "t", "x", "y")
            .with_series(Series::from_xy("s", [(1.0, 2.0)]));
        let dir = std::env::temp_dir().join("noc-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        write_dumps(&fig, &dir).unwrap();
        let csv = std::fs::read_to_string(dir.join("unit-test-fig.csv")).unwrap();
        assert!(csv.starts_with("x,s"));
        let json = std::fs::read_to_string(dir.join("unit-test-fig.json")).unwrap();
        assert!(json.contains("unit-test-fig"));
    }

    fn select(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let entries = select_figures(args.iter().map(|arg| arg.to_string()))?;
        Ok(entries.iter().map(|entry| entry.name).collect())
    }

    #[test]
    fn every_table_name_resolves() {
        for entry in FIGURES {
            assert_eq!(select(&["--only", entry.name]).unwrap(), [entry.name]);
        }
    }

    #[test]
    fn default_selection_is_the_paper_and_ext_adds_the_extensions() {
        let paper = [
            "fig2",
            "fig3",
            "table_links",
            "fig5",
            "fig6_7",
            "fig8_9",
            "fig10_11",
        ];
        let extensions = [
            "ext_torus",
            "ext_adaptive",
            "ext_spidergon_routing",
            "ext_mixed_hotspot",
            "ext_link_heatmap",
        ];
        assert_eq!(select(&[]).unwrap(), paper);
        assert_eq!(
            select(&["--ext"]).unwrap(),
            [&paper[..], &extensions[..]].concat()
        );
    }

    #[test]
    fn malformed_arguments_are_errors() {
        assert!(select(&["--only"]).unwrap_err().contains("figure name"));
        assert!(select(&["--bogus"]).unwrap_err().contains("usage"));
    }

    #[test]
    fn env_mode_defaults_to_full() {
        // NOC_FIGURE_MODE unset in the test environment.
        let opts = figure_options_from_env();
        assert!(opts.measure_cycles >= FigureOptions::quick().measure_cycles);
    }
}
