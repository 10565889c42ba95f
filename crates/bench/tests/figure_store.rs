//! Round trip of every record in a freshly filled quick figure store:
//! decoding a payload and encoding it again gives the same bytes, and
//! the decoded result equals a fresh run of the point its key names.
//!
//! The figure functions reach the store through `NOC_CACHE`, so this
//! binary holds this one test and sets the variable before any figure
//! call.

use noc_core::cache::{canonical_key, unique_temp_dir, ExperimentCache};
use noc_core::noc_sim::SimConfig;
use noc_core::{Experiment, RunResult, TopologySpec, TrafficSpec};

/// The parts of a record key that name the run.
#[derive(serde::Deserialize)]
struct Key {
    topology: TopologySpec,
    traffic: TrafficSpec,
    config: SimConfig,
}

#[test]
fn quick_figure_store_records_round_trip_byte_for_byte() {
    let dir = unique_temp_dir("noc-figure-store");
    std::env::set_var("NOC_CACHE", &dir);
    std::env::remove_var("NOC_CACHE_MAX_BYTES");
    noc_bench::all_figure_set(&noc_core::FigureOptions::quick()).unwrap();

    let records = ExperimentCache::at(&dir).records().unwrap();
    assert!(records.len() > 100, "only {} records", records.len());
    for (key, payload) in &records {
        let decoded: RunResult = serde_json::from_str(payload).unwrap();
        assert_eq!(
            serde_json::to_string(&decoded).unwrap(),
            *payload,
            "{key}: re-encoding changed the bytes"
        );

        let Key {
            topology,
            traffic,
            config,
        } = serde_json::from_str(key).unwrap();
        let experiment = Experiment {
            topology,
            traffic,
            config,
        };
        assert_eq!(
            canonical_key(&experiment, experiment.config.seed),
            *key,
            "key re-encodes"
        );
        assert_eq!(
            decoded,
            experiment.run().unwrap(),
            "{key}: cached result differs from a fresh run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
