//! Regenerates the figures and tables of the paper, and with `--ext`
//! the extension figures, in one run.
//!
//! ```text
//! cargo run --release --bin all_figures                  # paper quality
//! NOC_FIGURE_MODE=quick cargo run --bin all_figures       # smoke run
//! cargo run --release --bin all_figures -- --ext          # plus extensions
//! cargo run --release --bin all_figures -- --only fig6_7  # one table entry
//! NOC_CACHE=1 cargo run --release --bin all_figures       # incremental:
//!                          # only points whose spec/seed/code version
//!                          # changed are re-simulated (bit-identical
//!                          # output either way)
//! ```
//!
//! An unknown `--only` name fails with the list of valid names.
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let selection = noc_bench::select_figures(std::env::args().skip(1))?;
    let opts = noc_bench::figure_options_from_env();
    let before = noc_core::cache::counters();
    for entry in selection {
        for figure in (entry.call)(&opts)? {
            noc_bench::emit(&figure)?;
        }
    }
    if noc_core::ExperimentCache::from_env().is_enabled() {
        let delta = noc_core::cache::counters().since(&before);
        println!("cache: {} hit(s), {} miss(es)", delta.hits, delta.misses);
    }
    Ok(())
}
