//! Native (wall-clock) analogue of Fig. 3: the same decompositions the
//! simulator sweeps, run on real OS threads through the Chase–Lev
//! work-stealing executor, both distribution policies (§IV.A.2's
//! push-vs-steal axis).
//!
//! Speedups are relative (each policy against its own one-worker
//! time), like the paper's figures. On a single-core host every
//! speedup column reads ≈1.00 — the executor still runs all tasks,
//! there is just no parallelism to win; run on a multicore machine for
//! the real curves.
//!
//! ```text
//! cargo run -p rph-bench --release --bin fig3_native_speedup [--quick]
//! ```

use rph::prelude::*;
use rph_bench::*;
use rph_native::{Distribution, NativeConfig};
use rph_workloads::{registry, NativeWorkload};
use std::time::Duration;

/// Worker counts swept (the host caps real parallelism, not the sweep).
fn worker_sweep() -> Vec<usize> {
    vec![1, 2, 4, 8]
}

/// Repetitions per point; the minimum wall time is reported.
const REPS: usize = 3;

struct Point {
    workers: usize,
    steal: Duration,
    push: Duration,
}

/// Both distribution policies over the shared sweep loop; best-of-REPS
/// per point (this binary's statistic — the speedup curves want the
/// noise floor, not the typical run).
fn measure(w: &dyn NativeWorkload) -> Vec<Point> {
    let sweep_with = |mode: Distribution| {
        sweep_workload(w, &worker_sweep(), REPS, |workers| {
            NativeConfig::new(workers).with_distribution(mode)
        })
    };
    let steal = sweep_with(Distribution::Steal);
    let push = sweep_with(Distribution::Push);
    steal
        .iter()
        .zip(&push)
        .map(|(s, p)| Point {
            workers: s.workers,
            steal: s.best().wall,
            push: p.best().wall,
        })
        .collect()
}

fn report(name: &str, points: &[Point]) -> String {
    let base_steal = points[0].steal.as_secs_f64();
    let base_push = points[0].push.as_secs_f64();
    let mut table = TextTable::new(&[
        "workers",
        "steal ms",
        "steal speedup",
        "push ms",
        "push speedup",
    ]);
    for p in points {
        table.row(&[
            p.workers.to_string(),
            format!("{:.2}", p.steal.as_secs_f64() * 1e3),
            format!("{:.2}", base_steal / p.steal.as_secs_f64()),
            format!("{:.2}", p.push.as_secs_f64() * 1e3),
            format!("{:.2}", base_push / p.push.as_secs_f64()),
        ]);
    }
    println!("{name}");
    let rendered = table.render();
    println!("{rendered}");
    table.to_csv()
}

fn main() {
    check_args(&[]);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "Native wall-clock speedups on this host ({cores} core{}), {REPS} reps, best-of\n",
        if cores == 1 { "" } else { "s" }
    );
    if cores < 4 {
        println!(
            "note: fewer than 4 cores available — expect flat speedup curves;\n\
             the >1.5x @ 4 workers target applies on a multicore host\n"
        );
    }

    let mut csv = String::new();

    // Workloads and sizes come from the registry; each entry names
    // itself, so this binary holds no workload table of its own.
    for w in registry(bench_scale()) {
        let name = format!("{} {}", w.name(), w.default_params());
        let points = measure(w.as_ref());
        csv.push_str(&report(&name, &points));
    }

    // The adaptive-granularity ablation: fixed-chunk (PR 1 executor)
    // vs lazy-split sumEuler, and pooled vs respawn-per-wave APSP.
    csv.push_str(&granularity::run(quick(), granularity::Ablation::All));

    write_artifact("fig3_native_speedup.csv", &csv);
}
