//! The figure table behind `all_figures` and `all_figure_set`.

use std::process::Command;

#[test]
fn all_figure_set_emits_the_paper_figures_in_order() {
    let ids: Vec<String> = noc_bench::all_figure_set(&noc_core::FigureOptions::quick())
        .unwrap()
        .into_iter()
        .map(|figure| figure.id)
        .collect();
    assert_eq!(
        ids,
        [
            "fig2",
            "fig3",
            "table-links",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11"
        ]
    );
}

#[test]
fn all_figures_rejects_an_unknown_name() {
    let dir = noc_core::cache::unique_temp_dir("noc-all-figures-only");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .args(["--only", "nope"])
        .current_dir(&dir)
        .env("NOC_FIGURE_MODE", "quick")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "--only nope succeeded");
    for entry in noc_bench::FIGURES {
        assert!(stderr.contains(entry.name), "{stderr} lacks {}", entry.name);
    }
    assert!(!dir.join(noc_bench::RESULTS_DIR).exists(), "wrote results");
    std::fs::remove_dir_all(&dir).ok();
}
