//! `BENCHMARK.json` and the README's metric tables, generated from the
//! metric tables in `metrics.rs` so that the three cannot drift apart.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::DEFAULT_SECONDS;
use std::fmt::Write as _;

/// The command the driver runs from the root of a checkout; it appends
/// `--workload NAME --seed N --seconds S --trace 0|1`.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The content of `BENCHMARK.json` at the repo root.
pub fn contract() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.name())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.name())),
            ])
        })
        .collect();
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().copied().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

/// Markdown: the workloads with their reasons, the end-to-end metrics
/// with units and bounds, and for every per-layer metric the end-to-end
/// metric it should move and on which workloads.
pub fn glossary() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| workload | why it exists |\n|---|---|");
    for w in WORKLOADS {
        let _ = writeln!(out, "| `{}` | {} |", w.name, w.why);
    }
    let _ = writeln!(
        out,
        "\n| end-to-end metric | unit | better | bound |\n|---|---|---|---|"
    );
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {:.0} % |",
            m.name,
            m.unit,
            m.better.name(),
            m.bound * 100.0
        );
    }
    let _ = writeln!(
        out,
        "\n| per-layer metric | unit | better | should move | on |\n|---|---|---|---|---|"
    );
    for m in PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | `{}` | {} |",
            m.name,
            m.unit,
            m.better.name(),
            m.moves,
            m.on.join(", ")
        );
    }
    out
}
