//! Cross-crate integration: topology -> routing -> simulation
//! consistency, and report rendering of real figure data.

use spidergon_noc::report::FigureData;
use spidergon_noc::routing::{cdg::CdgAnalysis, validate::validate_all_routes};
use spidergon_noc::sim::SimConfig;
use spidergon_noc::topology::{metrics, IrregularMesh, RectMesh, Ring, Spidergon};
use spidergon_noc::{figures, Experiment, Parallelism, TopologySpec, TrafficSpec};

/// Every (topology spec, default routing) pair in the harness is
/// minimal and deadlock-free.
#[test]
fn default_routing_is_minimal_and_deadlock_free_for_all_specs() {
    let specs = [
        TopologySpec::Ring { nodes: 9 },
        TopologySpec::Spidergon { nodes: 14 },
        TopologySpec::Mesh { cols: 2, rows: 4 },
        TopologySpec::MeshBalanced { nodes: 24 },
        TopologySpec::IrregularMesh { cols: 4, nodes: 13 },
        TopologySpec::RealisticMesh { nodes: 17 },
    ];
    for spec in specs {
        let topo = spec.build().unwrap();
        let routing = spec.build_routing().unwrap();
        let report = validate_all_routes(routing.as_ref(), topo.as_ref()).unwrap();
        assert_eq!(report.non_minimal, 0, "{spec:?}");
        let analysis = CdgAnalysis::analyze(routing.as_ref(), topo.as_ref());
        assert!(analysis.is_deadlock_free(), "{spec:?}");
    }
}

/// Simulated mean hops equal the topology's exact mean distance at low
/// load, for every family (cross-check between three crates).
#[test]
fn simulated_hops_match_graph_distances_for_all_families() {
    let cases: Vec<(TopologySpec, f64)> = vec![
        (
            TopologySpec::Ring { nodes: 12 },
            metrics::average_distance(&Ring::new(12).unwrap()),
        ),
        (
            TopologySpec::Spidergon { nodes: 12 },
            metrics::average_distance(&Spidergon::new(12).unwrap()),
        ),
        (
            TopologySpec::Mesh { cols: 3, rows: 4 },
            metrics::average_distance(&RectMesh::new(3, 4).unwrap()),
        ),
        (
            TopologySpec::RealisticMesh { nodes: 12 },
            metrics::average_distance(&IrregularMesh::realistic(12).unwrap()),
        ),
    ];
    for (spec, expected) in cases {
        let agg = Experiment {
            topology: spec,
            traffic: TrafficSpec::Uniform,
            config: SimConfig::builder()
                .injection_rate(0.05)
                .warmup_cycles(300)
                .measure_cycles(4_000)
                .seed(31)
                .build()
                .unwrap(),
        }
        .run_replicated(2, Parallelism::default())
        .unwrap();
        let rel = (agg.mean_hops - expected).abs() / expected;
        assert!(
            rel < 0.08,
            "{spec:?}: hops {} vs exact {expected} ({:.1}% off)",
            agg.mean_hops,
            rel * 100.0
        );
    }
}

/// Analytical figures render to tables/CSV with consistent geometry.
#[test]
fn figure_rendering_round_trips() {
    let fig = figures::fig2(24);
    let csv = fig.to_csv();
    let header_cols = csv.lines().next().unwrap().split(',').count();
    // x + 2 columns (value, std) per series.
    assert_eq!(header_cols, 1 + 2 * fig.series.len());
    let table = fig.to_ascii_table();
    assert!(table.contains("spidergon"));
    let back: FigureData = serde_json::from_str(&fig.to_json()).unwrap();
    assert_eq!(back, fig);
}

/// The umbrella crate re-exports every layer coherently: a simulation
/// assembled from manually-built parts equals one from specs.
#[test]
fn manual_assembly_matches_spec_assembly() {
    use spidergon_noc::routing::SpidergonAcrossFirst;
    use spidergon_noc::sim::Simulation;
    use spidergon_noc::traffic::UniformRandom;

    let config = SimConfig::builder()
        .injection_rate(0.1)
        .warmup_cycles(100)
        .measure_cycles(1_000)
        .seed(9)
        .build()
        .unwrap();

    let topo = Spidergon::new(10).unwrap();
    let routing = SpidergonAcrossFirst::new(&topo);
    let pattern = UniformRandom::new(10).unwrap();
    let mut manual = Simulation::new(
        Box::new(topo),
        Box::new(routing),
        Box::new(pattern),
        config.clone(),
    )
    .unwrap();
    let manual_stats = manual.run().unwrap();

    let spec_stats = Experiment {
        topology: TopologySpec::Spidergon { nodes: 10 },
        traffic: TrafficSpec::Uniform,
        config,
    }
    .run()
    .unwrap()
    .stats;

    assert_eq!(manual_stats, spec_stats);
}

/// Table-driven routing drop-in: same topology simulated with the
/// family algorithm and with BFS tables gives close results (both are
/// minimal; tie-breaking differs).
#[test]
fn table_routing_is_a_drop_in_replacement_on_meshes() {
    use spidergon_noc::sim::Simulation;
    use spidergon_noc::traffic::UniformRandom;

    let config = SimConfig::builder()
        .injection_rate(0.1)
        .warmup_cycles(200)
        .measure_cycles(2_000)
        .seed(13)
        .build()
        .unwrap();
    let spec = TopologySpec::Mesh { cols: 3, rows: 3 };

    let mut with_tables = Simulation::new(
        spec.build().unwrap(),
        spec.build_table_routing().unwrap(),
        Box::new(UniformRandom::new(9).unwrap()),
        config.clone(),
    )
    .unwrap();
    let table_stats = with_tables.run().unwrap();

    let xy_stats = Experiment {
        topology: spec,
        traffic: TrafficSpec::Uniform,
        config,
    }
    .run()
    .unwrap()
    .stats;

    let t = table_stats.throughput_flits_per_cycle();
    let x = xy_stats.throughput_flits_per_cycle();
    assert!((t - x).abs() / x < 0.05, "table {t} vs xy {x}");
}
