//! Saturation analysis under homogeneous uniform traffic: sweep the
//! injection rate for each topology and report where each network
//! saturates — the quantitative version of the paper's Figures 10-11
//! ("Ring topology saturates first").
//!
//! Run with an optional node count (default 16):
//!
//! ```text
//! cargo run --release --example saturation_sweep -- 24
//! ```

use spidergon_noc::sim::SimConfig;
use spidergon_noc::{
    saturation_point, sweep_rates, Parallelism, TopologySpec, TrafficSpec,
    DEFAULT_ACCEPTANCE_THRESHOLD,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse())
        .transpose()?
        .unwrap_or(16);
    if n < 4 || !n.is_multiple_of(2) {
        return Err("node count must be even and at least 4".into());
    }

    let base = SimConfig::builder()
        .warmup_cycles(1_000)
        .measure_cycles(8_000)
        .seed(11)
        .build()?;
    let rates: Vec<f64> = (1..=12).map(|i| i as f64 * 0.05).collect();

    println!("uniform traffic, N = {n}, rates 0.05..0.60 flits/cycle/source");
    println!();
    println!(
        "{:>12}  {:>14}  {:>16}  {:>14}",
        "topology", "saturation rate", "sat. throughput", "sat. latency"
    );

    for (name, spec) in [
        ("ring", TopologySpec::Ring { nodes: n }),
        ("spidergon", TopologySpec::Spidergon { nodes: n }),
        ("mesh", TopologySpec::MeshBalanced { nodes: n }),
    ] {
        let sweep = sweep_rates(
            spec,
            TrafficSpec::Uniform,
            &base,
            &rates,
            2,
            Parallelism::default(),
        )?;
        match saturation_point(&sweep, DEFAULT_ACCEPTANCE_THRESHOLD) {
            Some(sat) => println!(
                "{:>12}  {:>14.2}  {:>16.3}  {:>14.1}",
                name, sat.rate, sat.throughput, sat.latency
            ),
            None => println!(
                "{:>12}  {:>14}  {:>16.3}  {:>14}",
                name,
                "> 0.60",
                sweep
                    .points
                    .last()
                    .map(|p| p.throughput_mean)
                    .unwrap_or(0.0),
                "-"
            ),
        }
    }

    println!();
    println!("expected ordering (paper fig. 10): ring saturates first;");
    println!("spidergon and mesh stay close, mesh ahead only at high N.");
    Ok(())
}
