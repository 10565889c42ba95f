//! The parallel engine's core guarantee: output is **bit-identical**
//! to a sequential run for any worker count. Results are compared via
//! their `serde_json` serialization, which covers every public field
//! (including f64 bit patterns — `1e-9`-style tolerances would hide
//! reassembly bugs).
//!
//! Also holds the hop-count regression test for the flit hop counter
//! that replaced the per-packet hop table in the simulator hot path.

use noc_core::figures::{fig6_7, FigureOptions};
use noc_core::{sweep_rates, Experiment, Parallelism, TopologySpec, TrafficSpec};
use noc_routing::SpidergonAcrossFirst;
use noc_sim::{SimConfig, Simulation};
use noc_topology::Spidergon;
use noc_traffic::UniformRandom;

fn base_config(lambda: f64) -> SimConfig {
    SimConfig::builder()
        .injection_rate(lambda)
        .warmup_cycles(100)
        .measure_cycles(800)
        .seed(2006)
        .build()
        .unwrap()
}

/// Serializes a value so two results can be compared field-for-field.
fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

#[test]
fn sweep_is_bit_identical_across_worker_counts() {
    let topology = TopologySpec::Spidergon { nodes: 8 };
    let traffic = TrafficSpec::Uniform;
    let rates = [0.05, 0.15, 0.3];
    let sequential = sweep_rates(
        topology,
        traffic,
        &base_config(0.1),
        &rates,
        2,
        Parallelism::Sequential,
    )
    .unwrap();
    for workers in [2usize, 4, 7] {
        let parallel = sweep_rates(
            topology,
            traffic,
            &base_config(0.1),
            &rates,
            2,
            Parallelism::Fixed(workers),
        )
        .unwrap();
        assert_eq!(
            json(&parallel),
            json(&sequential),
            "sweep output diverged at {workers} workers"
        );
    }
}

#[test]
fn replicated_runs_are_bit_identical_across_worker_counts() {
    let experiment = Experiment {
        topology: TopologySpec::Ring { nodes: 8 },
        traffic: TrafficSpec::Uniform,
        config: base_config(0.2),
    };
    let sequential = experiment
        .run_replicated(3, Parallelism::Sequential)
        .unwrap();
    for workers in [3usize, 8] {
        let parallel = experiment
            .run_replicated(3, Parallelism::Fixed(workers))
            .unwrap();
        assert_eq!(json(&parallel), json(&sequential));
    }
}

/// `NOC_THREADS` steers [`Parallelism::Auto`] (the figure drivers'
/// policy), and figure output does not depend on the resolved worker
/// count. One test mutates the process-global variable and exercises a
/// figure under each setting, so the assertions cannot race with each
/// other across test threads; the engine's bit-identity guarantee makes
/// the mutation invisible to every other test in this binary.
#[test]
fn auto_policy_honors_noc_threads_and_figures_stay_bit_identical() {
    let opts = FigureOptions {
        warmup_cycles: 50,
        measure_cycles: 400,
        replications: 2,
        seed: 2006,
        max_rate: 0.3,
        rate_steps: 2,
        node_counts: vec![8],
    };
    std::env::set_var("NOC_THREADS", "1");
    assert_eq!(Parallelism::Auto.worker_count(), 1);
    let (tp_seq, lat_seq) = fig6_7(&opts).unwrap();

    std::env::set_var("NOC_THREADS", "4");
    assert_eq!(Parallelism::Auto.worker_count(), 4);
    let (tp_par, lat_par) = fig6_7(&opts).unwrap();
    assert_eq!(json(&tp_par), json(&tp_seq));
    assert_eq!(json(&lat_par), json(&lat_seq));

    // Garbage values fall back to the host core count.
    std::env::set_var("NOC_THREADS", "zero");
    assert_eq!(
        Parallelism::Auto.worker_count(),
        noc_core::parallel::available_cores()
    );
    std::env::remove_var("NOC_THREADS");
}

/// Every flit carries its own hop counter; the tail's count at
/// consumption must equal the topological distance the packet actually
/// travelled. Across-First routing on Spidergon is minimal, so each
/// delivered packet's hop count must equal the shortest-path distance
/// between its endpoints.
#[test]
fn delivered_hop_counts_match_spidergon_distances() {
    let sg = Spidergon::new(12).unwrap();
    let routing = SpidergonAcrossFirst::new(&sg);
    let pattern = UniformRandom::new(12).unwrap();
    let mut cfg = base_config(0.15);
    cfg.record_deliveries = true;
    let distances = sg.clone();
    let mut sim = Simulation::new(Box::new(sg), Box::new(routing), Box::new(pattern), cfg).unwrap();
    sim.run().unwrap();
    assert!(
        sim.deliveries().len() > 100,
        "too few deliveries ({}) for a meaningful check",
        sim.deliveries().len()
    );
    for d in sim.deliveries() {
        assert_eq!(
            d.hops,
            distances.distance(d.src, d.dst) as u64,
            "packet {} -> {} took a non-minimal hop count",
            d.src,
            d.dst
        );
    }
}
