//! Result files and their human-readable rendering.
//!
//! A result file holds the host fingerprint and, per workload, every
//! metric by name with its unit, sample count, median and quartiles.
//! A single-workload run writes a file with one workload; a run of all
//! workloads merges its children's files; `compare` reads either.

use crate::harness::{Opts, RunResult};
use crate::host;
use crate::json::Json;
use crate::stats::Summary;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub const SCHEMA: &str = "rph-benchmark/v1";

/// Where result and span files go: `out/` beside this package's
/// manifest (`cargo run` names it), inside the checkout and ignored by
/// git; `benchmark/out` under the current directory otherwise.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("out")
}

pub fn write_file(path: &Path, json: &Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json.pretty())
}

fn summary_json(unit: &str, s: &Summary) -> Json {
    Json::obj([
        ("unit", Json::str(unit)),
        ("n", Json::Num(s.n as f64)),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
    ])
}

pub fn summary_from_json(j: &Json) -> Option<Summary> {
    let num = |k: &str| j.get(k).and_then(Json::as_f64);
    Some(Summary {
        n: num("n")? as usize,
        median: num("median")?,
        q1: num("q1")?,
        q3: num("q3")?,
    })
}

/// The key under which a run's metrics are filed.
fn section(traced: bool) -> &'static str {
    if traced {
        "per_layer"
    } else {
        "end_to_end"
    }
}

fn workload_json(r: &RunResult, traced: bool) -> Json {
    let metrics = r
        .metrics
        .iter()
        .map(|(name, unit, s)| (*name, summary_json(unit, s)));
    Json::obj([
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        (
            "failed_frac",
            Json::Num(r.failed as f64 / r.attempted.max(1) as f64),
        ),
        ("segments", Json::Num(r.segments as f64)),
        (section(traced), Json::obj(metrics)),
    ])
}

pub fn result_file(opts: &Opts, workloads: Vec<(String, Json)>) -> Json {
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("host", host::fingerprint(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("traced", Json::Bool(opts.trace)),
        ("workloads", Json::Obj(workloads)),
    ])
}

pub fn single_result_file(opts: &Opts, r: &RunResult) -> Json {
    result_file(
        opts,
        vec![(r.workload.to_string(), workload_json(r, opts.trace))],
    )
}

pub fn result_path(workload: &str, traced: bool) -> PathBuf {
    let suffix = if traced { "-traced" } else { "" };
    out_dir().join(format!("result-{workload}{suffix}.json"))
}

/// The table printed for a person: every metric by name with its unit,
/// sample count, median and quartiles, then where the harness saw the
/// traced passes' time go.
pub fn render(r: &RunResult, traced: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} ({}; {} segments; {} attempted, {} failed) ==",
        r.workload,
        section(traced),
        r.segments,
        r.attempted,
        r.failed
    );
    let _ = writeln!(
        out,
        "{:<36} {:>6} {:>4} {:>14} {:>14} {:>14}",
        "metric", "unit", "n", "median", "q1", "q3"
    );
    for (name, unit, s) in &r.metrics {
        let _ = writeln!(
            out,
            "{:<36} {:>6} {:>4} {:>14.6} {:>14.6} {:>14.6}",
            name, unit, s.n, s.median, s.q1, s.q3
        );
    }
    if r.spans.len() > 0 {
        let _ = writeln!(out, "-- harness spans: self time by name --");
        for (name, count, own) in r.spans.self_time_by_name() {
            let _ = writeln!(
                out,
                "{:<36} {:>10} calls {:>12.3} ms",
                name,
                count,
                own.as_secs_f64() * 1e3
            );
        }
    }
    out
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric with its value as measured and
/// its unit.
pub fn final_line(r: &RunResult) -> String {
    let metrics = r.metrics.iter().map(|(name, unit, s)| {
        (
            *name,
            Json::obj([("value", Json::Num(s.median)), ("unit", Json::str(*unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .compact()
}
