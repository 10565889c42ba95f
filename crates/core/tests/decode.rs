//! Robustness and round-trip proofs for JSON decoding, which reads
//! cache records, golden files and `noc-cli` specs:
//!
//! * **no panics** — every truncation and every single-bit flip of a
//!   real cache-record payload, both golden files, a `noc-cli`
//!   experiment spec and a pipeline trace decodes to `Err` or to a
//!   value, never a panic; a decoded trace also replays without one;
//! * **one error per malformed shape** — missing field (named),
//!   unknown variant, wrong type, duplicate key, trailing characters,
//!   out-of-range histogram bin, missing `bins` and a trace entry
//!   outside the network or addressed to its own source;
//! * **lenient where it always was** — unknown fields are skipped,
//!   floats accept integers and `null` (NaN), and fields marked
//!   `#[serde(default)]` may be absent;
//! * **round trips** — `from_str(to_string(x)) == x` for random
//!   `SimConfig`, `TopologySpec` and `TrafficSpec` values.

use noc_core::noc_sim::{SimConfig, Simulation};
use noc_core::noc_topology::NodeId;
use noc_core::noc_traffic::{InjectionProcess, PlacementScenario, Trace};
use noc_core::{Experiment, RunResult, SweepPoint, TopologySpec, TrafficSpec};
use proptest::prelude::*;
use serde::Deserialize;
use std::path::PathBuf;

fn small_experiment() -> Experiment {
    Experiment {
        topology: TopologySpec::Spidergon { nodes: 8 },
        traffic: TrafficSpec::SingleHotspot { target: 0 },
        config: SimConfig::builder()
            .injection_rate(0.3)
            .warmup_cycles(20)
            .measure_cycles(300)
            .sample_interval(50)
            .build()
            .unwrap(),
    }
}

/// A cache-record payload: the store writes a result's JSON as is.
fn record_payload() -> String {
    let mut experiment = small_experiment();
    experiment.config.seed = 7;
    serde_json::to_string(&experiment.run().unwrap()).unwrap()
}

fn golden(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(file);
    std::fs::read_to_string(path).unwrap()
}

/// The spec `noc-cli example` prints.
fn cli_spec() -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_noc-cli"))
        .arg("example")
        .output()
        .unwrap();
    assert!(out.status.success());
    let spec = String::from_utf8(out.stdout).unwrap();
    serde_json::from_str::<Experiment>(&spec).unwrap();
    spec
}

/// Decodes every prefix and every single-bit flip of `text` (those
/// that are still UTF-8, as the store checks before decoding), hands
/// each decoded value to `use_value`, and fails on the first panic of
/// either.
fn assert_decoder_never_panics<T: Deserialize>(name: &str, text: &str, use_value: impl Fn(T)) {
    let decode = |what: &str, at: usize, input: &str| {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serde_json::from_str::<T>(input).map(&use_value).is_ok()
        }));
        assert!(outcome.is_ok(), "{name}: panicked on {what} {at}");
        outcome.unwrap_or(false)
    };
    let bytes = text.as_bytes();
    let mut accepted = 0;
    for cut in 0..bytes.len() {
        if let Ok(prefix) = std::str::from_utf8(&bytes[..cut]) {
            accepted += usize::from(decode("truncation at byte", cut, prefix));
        }
    }
    let mut flipped = bytes.to_vec();
    for bit in 0..bytes.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        if let Ok(input) = std::str::from_utf8(&flipped) {
            accepted += usize::from(decode("bit flip", bit, input));
        }
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    // Whole-document truncations never decode; many digit flips do.
    assert!(accepted > 0, "{name}: no mutation decoded at all");
}

#[test]
fn cache_record_payload_survives_truncation_and_bit_flips() {
    assert_decoder_never_panics::<RunResult>("record payload", &record_payload(), drop);
}

#[test]
fn golden_files_survive_truncation_and_bit_flips() {
    for file in ["spidergon8_uniform.json", "ring8_hotspot.json"] {
        assert_decoder_never_panics::<RunResult>(file, &golden(file), drop);
    }
}

#[test]
fn cli_spec_survives_truncation_and_bit_flips() {
    assert_decoder_never_panics::<Experiment>("noc-cli example", &cli_spec(), drop);
}

/// The 4x2 mesh (XY routing) the trace tests replay on.
const TRACE_MESH: TopologySpec = TopologySpec::Mesh { cols: 4, rows: 2 };

/// Replays `trace` on [`TRACE_MESH`]; a trace sized for another
/// network is rejected by `with_trace`, anything else must run.
fn replay(trace: &Trace) {
    let config = SimConfig::builder()
        .warmup_cycles(0)
        .measure_cycles(200)
        .build()
        .unwrap();
    let topology = TRACE_MESH.build().unwrap();
    let routing = TRACE_MESH.build_routing().unwrap();
    if let Ok(mut sim) = Simulation::with_trace(topology, routing, trace, config) {
        sim.run().unwrap();
    }
}

#[test]
fn trace_survives_truncation_and_bit_flips() {
    let stages: Vec<NodeId> = [0, 3, 5, 6].into_iter().map(NodeId::new).collect();
    let trace = Trace::pipeline(8, &stages, 3, 10).unwrap();
    replay(&trace);
    let json = serde_json::to_string(&trace).unwrap();
    assert_eq!(serde_json::from_str::<Trace>(&json).unwrap(), trace);
    assert_decoder_never_panics::<Trace>("pipeline trace", &json, |t| replay(&t));
}

#[test]
fn invalid_trace_entries_are_rejected() {
    let err = decode_err::<Trace>(r#"{"num_nodes":8,"entries":[{"cycle":0,"src":99,"dst":1}]}"#);
    assert!(err.contains("invalid Trace") && err.contains("99"), "{err}");
    let err = decode_err::<Trace>(r#"{"num_nodes":8,"entries":[{"cycle":5,"src":1,"dst":1}]}"#);
    assert!(err.contains("invalid Trace"), "{err}");
    let err = decode_err::<Trace>(r#"{"num_nodes":8}"#);
    assert!(err.contains("missing field `entries` in Trace"), "{err}");
    // Entries come back sorted by cycle, as `Trace::new` leaves them.
    let trace: Trace = serde_json::from_str(
        r#"{"num_nodes":8,"entries":[{"cycle":9,"src":0,"dst":1},{"cycle":2,"src":2,"dst":3}]}"#,
    )
    .unwrap();
    let cycles: Vec<u64> = trace.entries().iter().map(|e| e.cycle).collect();
    assert_eq!(cycles, vec![2, 9]);
    replay(&trace);
}

fn decode_err<T: Deserialize + std::fmt::Debug>(text: &str) -> String {
    serde_json::from_str::<T>(text).unwrap_err().to_string()
}

const SPEC: &str = r#"{"topology": {"Ring": {"nodes": 8}}, "traffic": "Uniform",
    "config": {"injection_rate": 0.25}}"#;

#[test]
fn missing_field_is_named() {
    let err = decode_err::<Experiment>(r#"{"topology": {"Ring": {"nodes": 8}}, "config": {}}"#);
    assert!(
        err.contains("missing field `traffic` in Experiment"),
        "{err}"
    );
    let err = decode_err::<TopologySpec>(r#"{"Mesh": {"cols": 4}}"#);
    assert!(
        err.contains("missing field `rows` in TopologySpec::Mesh"),
        "{err}"
    );
}

#[test]
fn unknown_variant_is_rejected() {
    let err = decode_err::<Experiment>(&SPEC.replace("Ring", "Hexagon"));
    assert!(
        err.contains("unknown variant `Hexagon` of TopologySpec"),
        "{err}"
    );
    let err = decode_err::<TrafficSpec>(r#""Broadcast""#);
    assert!(
        err.contains("unknown variant `Broadcast` of TrafficSpec"),
        "{err}"
    );
    // A unit variant is a bare string, a struct variant an object; a
    // known name in the other form is not reported as unknown.
    let err = decode_err::<TrafficSpec>(r#"{"Uniform": {}}"#);
    assert!(
        err.contains("variant `Uniform` of TrafficSpec is a unit variant"),
        "{err}"
    );
    let err = decode_err::<TrafficSpec>(r#""SingleHotspot""#);
    assert!(
        err.contains("variant `SingleHotspot` of TrafficSpec expects a value"),
        "{err}"
    );
    let err = decode_err::<TrafficSpec>(r#"{"SingleHotspot": {"target": 1}, "Uniform": 0}"#);
    assert!(err.contains("single-key object"), "{err}");
}

#[test]
fn wrong_type_is_rejected() {
    let err = decode_err::<Experiment>(&SPEC.replace("8", "\"eight\""));
    assert!(
        err.contains("expected unsigned integer, found string"),
        "{err}"
    );
    let err = decode_err::<Experiment>(&SPEC.replace("0.25", "[0.25]"));
    assert!(err.contains("expected number, found array"), "{err}");
    let err = decode_err::<Experiment>(&SPEC.replace("8", "-8"));
    assert!(
        err.contains("expected unsigned integer, found integer"),
        "{err}"
    );
    let err = decode_err::<RunResult>("[]");
    assert!(
        err.contains("expected object for RunResult, found array"),
        "{err}"
    );
}

#[test]
fn duplicate_key_is_rejected() {
    let err = decode_err::<TopologySpec>(r#"{"Ring": {"nodes": 8, "nodes": 16}}"#);
    assert!(
        err.contains("duplicate field `nodes` in TopologySpec::Ring"),
        "{err}"
    );
    // Container-default structs reject duplicates too.
    let err = decode_err::<SimConfig>(r#"{"seed": 1, "seed": 2}"#);
    assert!(err.contains("duplicate field `seed` in SimConfig"), "{err}");
}

#[test]
fn trailing_characters_are_rejected() {
    let err = decode_err::<Experiment>(&format!("{SPEC} {{}}"));
    assert!(err.contains("trailing characters"), "{err}");
    assert!(serde_json::from_str::<Experiment>(&format!("{SPEC}\n\t ")).is_ok());
}

const LATENCY: &str = r#"{"count": 2, "sum": 9, "min": 4, "max": 5, "bins": BINS}"#;

#[test]
fn out_of_range_histogram_bin_is_rejected() {
    use noc_core::noc_sim::LatencyStats;
    let ok = serde_json::from_str::<LatencyStats>(&LATENCY.replace("BINS", "[[4,1],[4095,1]]"));
    assert_eq!(ok.unwrap().percentile(100.0), Some(4095));
    let err = decode_err::<LatencyStats>(&LATENCY.replace("BINS", "[[4,1],[4096,1]]"));
    assert!(err.contains("bin index 4096 out of range"), "{err}");
    let err = decode_err::<LatencyStats>(&LATENCY.replace("BINS", "[[18446744073709551615,1]]"));
    assert!(err.contains("out of range"), "{err}");
}

#[test]
fn missing_histogram_bins_are_rejected() {
    use noc_core::noc_sim::LatencyStats;
    let err = decode_err::<LatencyStats>(r#"{"count": 0, "sum": 0, "min": 0, "max": 0}"#);
    assert!(
        err.contains("missing field `bins` in LatencyStats"),
        "{err}"
    );
    let err = decode_err::<LatencyStats>(&LATENCY.replace("BINS", "[] , \"bins\": []"));
    assert!(err.contains("duplicate field `bins`"), "{err}");
}

#[test]
fn unknown_fields_are_skipped() {
    let noisy = SPEC.replace(
        "\"traffic\"",
        r#""comment": {"nested": [1, "two", null, true, {"x": -3e2}]}, "traffic""#,
    );
    let plain: Experiment = serde_json::from_str(SPEC).unwrap();
    assert_eq!(serde_json::from_str::<Experiment>(&noisy).unwrap(), plain);
    assert_eq!(plain.config.injection_rate, 0.25);
    assert_eq!(plain.config.seed, SimConfig::default().seed);
}

#[test]
fn floats_accept_integers_and_null() {
    let spec: Experiment = serde_json::from_str(&SPEC.replace("0.25", "1")).unwrap();
    assert_eq!(spec.config.injection_rate, 1.0);
    let spec: Experiment = serde_json::from_str(&SPEC.replace("0.25", "null")).unwrap();
    assert!(spec.config.injection_rate.is_nan());
}

#[test]
fn sweep_point_without_percentiles_loads() {
    let json = r#"{"rate": 0.1, "throughput_mean": 0.8, "throughput_std": 0.01,
        "latency_mean": 12.5, "latency_std": 0.5, "acceptance": 1.0, "mean_hops": 2.0}"#;
    let point: SweepPoint = serde_json::from_str(json).unwrap();
    assert_eq!(point.latency_mean, 12.5);
    assert_eq!(
        (point.latency_p50, point.latency_p95, point.latency_p99),
        (0, 0, 0)
    );
    // The other fields stay required.
    let err = decode_err::<SweepPoint>(&json.replace(r#""rate": 0.1, "#, ""));
    assert!(err.contains("missing field `rate` in SweepPoint"), "{err}");
}

/// A finite `f64` from raw bits (subnormals and extremes included), or
/// `fallback` for NaN and infinities, which JSON cannot carry.
fn finite(bits: u64, fallback: f64) -> f64 {
    Some(f64::from_bits(bits))
        .filter(|v| v.is_finite())
        .unwrap_or(fallback)
}

fn topology_of(pick: u64, a: usize, b: usize) -> TopologySpec {
    match pick % 7 {
        0 => TopologySpec::Ring { nodes: a },
        1 => TopologySpec::Spidergon { nodes: a },
        2 => TopologySpec::Mesh { cols: a, rows: b },
        3 => TopologySpec::MeshBalanced { nodes: a },
        4 => TopologySpec::IrregularMesh { cols: a, nodes: b },
        5 => TopologySpec::RealisticMesh { nodes: a },
        _ => TopologySpec::Torus { cols: a, rows: b },
    }
}

fn traffic_of(pick: u64, a: usize, b: usize, fraction: f64) -> TrafficSpec {
    let scenarios = [
        PlacementScenario::Opposed,
        PlacementScenario::CornerMiddle,
        PlacementScenario::MiddlePair,
    ];
    match pick % 8 {
        0 => TrafficSpec::Uniform,
        1 => TrafficSpec::SingleHotspot { target: a },
        2 => TrafficSpec::DoubleHotspot { targets: [a, b] },
        3 => TrafficSpec::DoubleHotspotPlaced {
            scenario: scenarios[b % 3],
        },
        4 => TrafficSpec::MixedHotspot {
            target: a,
            fraction,
        },
        5 => TrafficSpec::Transpose,
        6 => TrafficSpec::Complement,
        _ => TrafficSpec::NearestNeighbor,
    }
}

fn config_of(words: (u64, u64, u64, u64), rate_bits: u64) -> SimConfig {
    let (a, b, c, flags) = words;
    let processes = [
        InjectionProcess::Poisson,
        InjectionProcess::Bernoulli,
        InjectionProcess::Cbr,
    ];
    // `SimConfig` is non-exhaustive: start from the default, then set
    // every field.
    let mut config = SimConfig::default();
    config.packet_len = (a % 64) as usize;
    config.injection_rate = finite(rate_bits, 0.5);
    config.injection_process = processes[(flags % 3) as usize];
    config.input_buffer_capacity = (a >> 8) as usize % 16;
    config.output_buffer_capacity = (a >> 16) as usize % 16;
    config.sink_rate = (a >> 24) as usize % 8;
    config.warmup_cycles = b;
    config.measure_cycles = b.rotate_left(17);
    config.seed = c;
    config.stall_threshold = c.rotate_left(31);
    config.record_deliveries = flags & 4 != 0;
    config.sample_interval = a >> 40;
    config.router_delay = (a >> 32) % 8;
    config.audit = flags & 8 != 0;
    config.audit_interval = flags >> 8;
    config.sparse = flags & 16 != 0;
    config.compiled_routes = flags & 32 != 0;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn specs_round_trip_through_json(
        picks in (0u64..u64::MAX, 0u64..u64::MAX),
        sizes in (0usize..usize::MAX, 0usize..usize::MAX),
        fraction_bits in 0u64..u64::MAX,
    ) {
        let topology = topology_of(picks.0, sizes.0, sizes.1);
        let json = serde_json::to_string(&topology).unwrap();
        prop_assert_eq!(serde_json::from_str::<TopologySpec>(&json).unwrap(), topology);
        let traffic = traffic_of(picks.1, sizes.0, sizes.1, finite(fraction_bits, 0.5));
        let json = serde_json::to_string(&traffic).unwrap();
        prop_assert_eq!(serde_json::from_str::<TrafficSpec>(&json).unwrap(), traffic);
    }

    #[test]
    fn sim_config_round_trips_through_json(
        words in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        rate_bits in 0u64..u64::MAX,
    ) {
        let config = config_of(words, rate_bits);
        let json = serde_json::to_string(&config).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.injection_rate.to_bits(), config.injection_rate.to_bits());
        prop_assert_eq!(back, config);
        let pretty = serde_json::to_string_pretty(&config).unwrap();
        prop_assert_eq!(serde_json::from_str::<SimConfig>(&pretty).unwrap(), config);
    }
}
