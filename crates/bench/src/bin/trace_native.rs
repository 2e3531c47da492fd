//! Fig. 2/4-style *wall-clock* trace diagrams for the native
//! executors: per-worker activity timelines, occupancy fractions and
//! CSV dumps at 1–8 workers, plus a measured tracing-overhead report
//! against the <5% budget.
//!
//! Both native backends are traced: the work-stealing pool (steal,
//! split, park events) and the Eden-style message-passing backend
//! (send, receive and channel-block events, with the master as the
//! extra bottom row of each timeline — the native analogue of the
//! paper's EdenTV pictures).
//!
//! The simulators' trace binaries (`fig2_sumeuler_traces`,
//! `fig4_matmul_traces`) draw the same pictures in virtual time; this
//! binary is their real-thread counterpart — time on the x-axis is
//! nanoseconds from the run's shared `WallClock` epoch.
//!
//! ```text
//! cargo run -p rph-bench --release --bin trace_native [--quick] [--eden]
//! ```
//!
//! `--eden` renders only the Eden-backend sections (the CI smoke step
//! runs `--quick --eden`).

use rph::prelude::*;
use rph_bench::*;
use rph_native::{BackendKind, NativeConfig};
use rph_trace::{render_csv, render_timeline, Counters, RenderOptions, State, Timeline};
use rph_workloads::{registry, NativeWorkload, Scale};
use std::time::Duration;

/// Worker counts swept per workload.
fn worker_sweep() -> Vec<usize> {
    vec![1, 2, 4, 8]
}

/// Worker count whose full timeline is rendered (and whose CSV is the
/// artifact) — the paper's trace figures are 4–8 core pictures.
const RENDER_WORKERS: usize = 4;

/// Repetitions for the overhead measurement; the minimum of each side
/// is compared, which suppresses scheduler noise.
const OVERHEAD_REPS: usize = 7;

/// Tracing overhead budget, percent of untraced wall time.
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `w` traced across the worker sweep on `backend`: print the
/// summary table, render the RENDER_WORKERS timeline, return the
/// interval CSV. The workload names itself (`name` + `default_params`).
fn trace_workload(w: &dyn NativeWorkload, backend: BackendKind) -> String {
    let name = format!("{} {}", w.name(), w.default_params());
    let name = name.as_str();
    let cols: &[&str] = match backend {
        BackendKind::Steal => &[
            "workers", "wall ms", "running%", "tasks", "steals", "splits", "parks", "dropped",
        ],
        BackendKind::Eden => &[
            "workers", "wall ms", "running%", "tasks", "msgs", "words", "sblk", "rblk", "dropped",
        ],
    };
    println!(
        "== {name} [{}] ==",
        match backend {
            BackendKind::Steal => "steal",
            BackendKind::Eden => "eden",
        }
    );
    let mut table = TextTable::new(cols);
    let mut csv = String::new();
    let mut rendered = String::new();
    for workers in worker_sweep() {
        let cfg = NativeConfig::new(workers)
            .with_backend(backend)
            .with_trace();
        let m = w.run_on(&cfg).expect("native run failed");
        assert_eq!(
            m.value,
            w.expected_value(),
            "{name}: wrong result — reproduction bug"
        );
        let trace = m.trace.as_ref().expect("traced run returns a tracer");

        // The binary doubles as a live reconciliation check: event
        // totals must equal the executor's own counters whenever no
        // event was dropped.
        let c = Counters::from_tracer(trace);
        if m.trace_dropped == 0 {
            assert_eq!(c.native_tasks, m.stats.tasks_run, "{name} w={workers}");
            assert_eq!(c.native_steals, m.stats.steal_ops, "{name} w={workers}");
            assert_eq!(c.native_splits, m.stats.splits, "{name} w={workers}");
            assert_eq!(c.messages_sent, m.stats.msgs_sent, "{name} w={workers}");
            assert_eq!(c.messages_received, m.stats.msgs_recv, "{name} w={workers}");
            assert_eq!(c.message_words, m.stats.words_sent, "{name} w={workers}");
            assert_eq!(
                c.native_send_blocks, m.stats.send_blocks,
                "{name} w={workers}"
            );
            assert_eq!(
                c.native_recv_blocks, m.stats.recv_blocks,
                "{name} w={workers}"
            );
            if backend == BackendKind::Steal {
                assert_eq!(c.native_parks, m.stats.parks, "{name} w={workers}");
            }
        }

        let tl = Timeline::from_tracer(trace);
        let mut row = vec![
            workers.to_string(),
            format!("{:.2}", ms(m.wall)),
            format!("{:.1}", tl.mean_fraction(State::Running) * 100.0),
            m.stats.tasks_run.to_string(),
        ];
        match backend {
            BackendKind::Steal => row.extend([
                m.stats.steal_ops.to_string(),
                m.stats.splits.to_string(),
                m.stats.parks.to_string(),
            ]),
            BackendKind::Eden => row.extend([
                m.stats.msgs_sent.to_string(),
                m.stats.words_sent.to_string(),
                m.stats.send_blocks.to_string(),
                m.stats.recv_blocks.to_string(),
            ]),
        }
        row.push(m.trace_dropped.to_string());
        table.row(&row);
        if workers == RENDER_WORKERS {
            rendered = render_timeline(
                &tl,
                &RenderOptions {
                    width: 100,
                    color: false,
                    legend: true,
                },
            );
            csv = render_csv(&tl);
        }
    }
    let summary = table.render();
    println!("{summary}");
    println!("timeline at {RENDER_WORKERS} workers (ns axis):");
    println!("{rendered}");
    csv
}

/// Best-of-N traced vs untraced sumEuler at `RENDER_WORKERS` workers:
/// the tracing layer must stay under [`OVERHEAD_BUDGET_PCT`].
fn overhead_report(scale: Scale) {
    let se = registry(scale)
        .into_iter()
        .find(|w| w.name() == "sum_euler")
        .expect("registry carries sum_euler");
    let n = se.default_params();
    let expected = se.expected_value();
    let plain_cfg = NativeConfig::steal(RENDER_WORKERS);
    let traced_cfg = plain_cfg.clone().with_trace();
    let mut plain = Duration::MAX;
    let mut traced = Duration::MAX;
    for _ in 0..OVERHEAD_REPS {
        let m = se.run_on(&plain_cfg).expect("native run failed");
        assert_eq!(m.value, expected);
        plain = plain.min(m.wall);
        let m = se.run_on(&traced_cfg).expect("native run failed");
        assert_eq!(m.value, expected);
        traced = traced.min(m.wall);
    }
    let pct = (ms(traced) - ms(plain)) / ms(plain) * 100.0;
    let verdict = if pct < OVERHEAD_BUDGET_PCT {
        "PASS"
    } else {
        "OVER BUDGET"
    };
    println!(
        "tracing overhead: sum_euler {n} @ {RENDER_WORKERS} workers, best of {OVERHEAD_REPS}:"
    );
    println!(
        "  untraced {:.2} ms, traced {:.2} ms -> {:+.2}% (budget {:.1}%) [{verdict}]",
        ms(plain),
        ms(traced),
        pct,
        OVERHEAD_BUDGET_PCT
    );
}

fn main() {
    let eden = check_args(&["--eden"]).has("--eden");
    let scale = bench_scale();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("Native wall-clock traces on this host ({cores} cores)\n");

    // Both backends trace every registry workload — the steal pool's
    // steal/split/park pictures and the Eden skeletons' message
    // pictures: par_map (sum_euler, matmul), ring (apsp),
    // master_worker (nqueens), exchange (episim).
    let workloads = registry(scale);

    let mut csv = String::new();
    if !eden {
        for w in &workloads {
            csv.push_str(&trace_workload(w.as_ref(), BackendKind::Steal));
        }
    }

    let mut eden_csv = String::new();
    for w in &workloads {
        eden_csv.push_str(&trace_workload(w.as_ref(), BackendKind::Eden));
    }

    if !eden {
        overhead_report(scale);
        csv.push_str(&eden_csv);
        write_artifact("trace_native.csv", &csv);
    } else {
        write_artifact("trace_native_eden.csv", &eden_csv);
    }
}
