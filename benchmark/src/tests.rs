//! The contract between this package and `BENCHMARK.json`, and a smoke
//! run of every workload.

use crate::harness::{self, Opts};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::{host, parse, setup_of};

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `BENCHMARK.json` is what `--contract` prints: workload names and
/// reasons, metric names, units, directions and bounds all come from
/// the tables in `metrics.rs`.
#[test]
fn contract_file_is_the_generated_one() {
    assert_eq!(contract(), crate::contract::contract());
}

#[test]
fn contract_fits_the_driver() {
    let c = contract();
    let keys: Vec<&str> = c
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = c.get("command").and_then(Json::as_arr).unwrap();
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let seconds = c.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    // `--list` prints exactly the workload names of the contract.
    let listed: Vec<&str> = c
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(listed, ours);
}

#[test]
fn command_line_of_the_driver_parses() {
    let args: Vec<String> = "--workload server_sat --seed 7 --seconds 3 --trace 1"
        .split(' ')
        .map(str::to_string)
        .collect();
    let cli = parse(&args).unwrap();
    assert_eq!(cli.workload.as_deref(), Some("server_sat"));
    assert_eq!(
        (cli.opts.seed, cli.opts.seconds, cli.opts.trace),
        (7, 3.0, true)
    );
    for bad in [
        "--workload nope",
        "--trace 2",
        "--seconds 0",
        "--seed x",
        "--what",
    ] {
        let args: Vec<String> = bad.split(' ').map(str::to_string).collect();
        assert!(parse(&args).is_err(), "{bad}");
    }
}

fn smoke(trace: bool) {
    let opts = Opts {
        seed: 1,
        seconds: 0.05,
        trace,
        smoke: true,
        workers: host::workers(),
    };
    for w in WORKLOADS {
        let r = harness::run(w.name, &opts, setup_of(w.name).unwrap());
        assert!(r.attempted > 0, "{}", w.name);
        assert_eq!(r.failed, 0, "{}: failed_frac must be 0", w.name);
        let expected = if trace {
            PER_LAYER.len()
        } else {
            END_TO_END.len()
        };
        assert_eq!(r.metrics.len(), expected, "{}", w.name);
        for (name, _, s) in &r.metrics {
            assert!(s.median.is_finite(), "{}: {name}", w.name);
            if !trace {
                assert!(s.median > 0.0, "{}: {name} must never be 0", w.name);
            }
        }
        assert_eq!(
            r.spans.len() > 0,
            trace,
            "{}: spans only when traced",
            w.name
        );
    }
}

#[test]
fn smoke_run_of_every_workload_is_correct() {
    smoke(false);
}

#[test]
fn traced_smoke_run_of_every_workload_reports_every_layer_metric() {
    smoke(true);
}
