//! Integration tests for the traced run mode and the observability
//! figure: recorder output must be deterministic, identical across
//! engine parallelism, and consistent with the untraced simulation.

use noc_core::figures::ext_link_heatmap;
use noc_core::{Experiment, FigureOptions, Parallelism, RunResult, TopologySpec, TrafficSpec};
use noc_sim::{Recorder, SimConfig};

/// The ISSUE's reference trace workload: spidergon-16, single hot-spot
/// at node 0.
fn hotspot_experiment() -> Experiment {
    Experiment {
        topology: TopologySpec::Spidergon { nodes: 16 },
        traffic: TrafficSpec::SingleHotspot { target: 0 },
        config: SimConfig::builder()
            .injection_rate(0.2)
            .warmup_cycles(100)
            .measure_cycles(800)
            .seed(2006)
            .build()
            .unwrap(),
    }
}

/// Runs `exp` with a default recorder attached.
fn traced(exp: &Experiment) -> (RunResult, Recorder) {
    let (result, sim) = exp.run_with(Recorder::new()).unwrap();
    (result, sim.into_probe())
}

#[test]
fn traced_run_digest_is_reproducible() {
    let exp = hotspot_experiment();
    let (res_a, rec_a) = traced(&exp);
    let (res_b, rec_b) = traced(&exp);
    assert_eq!(res_a, res_b);
    assert_eq!(rec_a.digest(), rec_b.digest());
    assert_eq!(rec_a.to_jsonl(), rec_b.to_jsonl());
    assert_eq!(rec_a.timeseries_csv(), rec_b.timeseries_csv());
    assert_eq!(rec_a.links_csv(), rec_b.links_csv());
}

#[test]
fn traced_digests_identical_across_engine_parallelism() {
    // Fan the same traced run out through the deterministic engine
    // under both thread policies; every worker must produce the same
    // bytes — the property the CI trace smoke step checks end to end.
    let digests = |par: Parallelism| -> Vec<u64> {
        let jobs: Vec<_> = (0..4)
            .map(|i| {
                move || {
                    let exp = hotspot_experiment().replicas(2).nth(i % 2).unwrap();
                    traced(&exp).1.digest()
                }
            })
            .collect();
        noc_core::run_indexed(jobs, par)
    };
    let sequential = digests(Parallelism::Sequential);
    let threaded = digests(Parallelism::Fixed(4));
    assert_eq!(sequential, threaded);
    // Same seed, same digest; different seed, different digest.
    assert_eq!(sequential[0], sequential[2]);
    assert_ne!(sequential[0], sequential[1]);
}

#[test]
fn traced_run_matches_untraced_counters() {
    let exp = hotspot_experiment();
    let plain = exp.run().unwrap();
    let (traced, rec) = traced(&exp);
    assert_eq!(plain, traced, "tracing must not perturb the simulation");
    // The recorder watches the whole run, warmup included.
    assert_eq!(
        rec.observed_cycles(),
        exp.config.warmup_cycles + plain.stats.measured_cycles
    );
    // One decomposition per delivered packet; the recorder also sees
    // the packets delivered during warmup, so it records at least as
    // many as the measured statistics.
    assert!(rec.breakdown().total.count() >= plain.stats.packets_delivered);
    let link_total: u64 = rec.link_flits().iter().flatten().sum();
    let csv_total: u64 = rec
        .links_csv()
        .lines()
        .skip(1)
        .map(|l| l.split(',').nth(2).unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(link_total, csv_total);
}

#[test]
fn link_heatmap_covers_every_link_per_family() {
    let opts = FigureOptions::quick();
    let fig = ext_link_heatmap(&opts).unwrap();
    assert_eq!(fig.series.len(), 3);
    // Link counts at N = 16: ring 2N = 32, spidergon 3N = 48,
    // 4x4 mesh 2(m-1)n + 2(n-1)m = 48.
    for (label, links) in [("ring-16", 32), ("spidergon-16", 48), ("mesh-16", 48)] {
        let s = fig.series_by_label(label).unwrap();
        assert_eq!(s.points.len(), links, "{label}");
        assert!(s.points.iter().all(|p| p.y >= 0.0 && p.y <= 1.0));
        assert!(s.points.iter().any(|p| p.y > 0.0), "{label} all idle");
    }
    // Hot-spot asymmetry: the busiest ring link carries far more than
    // the median ring link.
    let ring = fig.series_by_label("ring-16").unwrap();
    let mut ys: Vec<f64> = ring.points.iter().map(|p| p.y).collect();
    ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!(ys[ys.len() - 1] > 2.0 * ys[ys.len() / 2]);
}
