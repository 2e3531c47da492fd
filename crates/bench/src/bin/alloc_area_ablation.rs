//! Allocation-area / heap-organisation ablation: how much of the
//! GpH-vs-Eden gap is garbage collection, and how far real
//! per-capability nurseries (ROADMAP item 1) close it.
//!
//! Rows climb from the paper's stop-the-world baseline through its
//! mitigations (bigger nursery, cheaper barrier) to the §VI
//! mechanism: private nurseries collected independently plus a
//! parallel major GC. The Eden row is the target profile — no global
//! stops at all.
//!
//! ```text
//! cargo run -p rph-bench --release --bin alloc_area_ablation [--quick]
//! ```

use rph::prelude::*;
use rph_bench::*;
use rph_workloads::SumEuler;

/// The two rows the shape gate compares.
const STW: &str = "stop-the-world, small area";
const NURSERY: &str = "per-capability nurseries + parallel major";

struct Row {
    label: &'static str,
    elapsed: u64,
    global_gcs: u64,
    local_gcs: u64,
    barrier_wait: u64,
    gc_pause: u64,
    promoted_words: u64,
}

fn main() {
    check_args(&[]);
    let n = sum_euler_n();
    let caps = INTEL_CORES;
    let w = SumEuler::new(n);
    let expected = w.expected();
    println!("Allocation-area / heap-organisation ablation — sumEuler [1..{n}] on {caps} cores\n");

    let gph_rows: Vec<(&'static str, GphConfig)> = vec![
        (STW, GphConfig::ghc69_plain(caps)),
        (
            "stop-the-world, big area",
            GphConfig::ghc69_plain(caps).with_big_alloc_area(),
        ),
        (
            "stop-the-world, big area + improved sync",
            GphConfig::ghc69_plain(caps)
                .with_big_alloc_area()
                .with_improved_gc_sync(),
        ),
        (
            NURSERY,
            GphConfig::ghc69_plain(caps).with_per_cap_nurseries(),
        ),
    ];

    let mut rows: Vec<Row> = Vec::new();
    for (label, cfg) in gph_rows {
        let m = w.run_gph(cfg.without_trace()).expect("gph run");
        check(&m, expected, label);
        let s = m.gph_stats.unwrap();
        rows.push(Row {
            label,
            elapsed: m.elapsed,
            global_gcs: s.gcs,
            local_gcs: s.local_gcs,
            barrier_wait: s.gc_barrier_wait,
            gc_pause: s.gc_pause,
            promoted_words: s.promoted_words,
        });
    }
    let eden = w
        .run_eden(EdenConfig::new(caps).without_trace())
        .expect("eden run");
    check(&eden, expected, "eden");
    let es = eden.eden_stats.unwrap();
    rows.push(Row {
        label: "Eden (independent PE heaps)",
        elapsed: eden.elapsed,
        global_gcs: 0,
        local_gcs: es.local_gcs,
        barrier_wait: 0,
        gc_pause: es.gc_time,
        promoted_words: 0,
    });

    let eden_elapsed = eden.elapsed;
    let mut table = TextTable::new(&[
        "Heap organisation",
        "Runtime",
        "global GCs",
        "local/minor GCs",
        "barrier wait",
        "GC pause",
        "promoted",
        "vs Eden",
    ]);
    for r in &rows {
        table.row(&[
            r.label.to_string(),
            secs(r.elapsed),
            r.global_gcs.to_string(),
            r.local_gcs.to_string(),
            millis(r.barrier_wait),
            millis(r.gc_pause),
            format!("{}w", r.promoted_words),
            format!("{:.2}x", r.elapsed as f64 / eden_elapsed as f64),
        ]);
    }
    let rendered = table.render();
    println!("{rendered}");

    let by_label = |label: &str| {
        rows.iter()
            .find(|r| r.label == label)
            .expect("row is in the table")
    };
    let stw = by_label(STW);
    let nursery = by_label(NURSERY);
    let stw_gap = stw.elapsed as f64 / eden_elapsed as f64;
    let nursery_gap = nursery.elapsed as f64 / eden_elapsed as f64;
    println!(
        "gap to Eden: stop-the-world {:.2}x → per-cap nurseries {:.2}x",
        stw_gap, nursery_gap
    );

    // Shape checks — a regression here means the nursery model stopped
    // delivering its point. Panic (non-zero exit) so CI notices.
    assert!(
        nursery.global_gcs < stw.global_gcs,
        "per-cap nurseries must cut global GCs: {} !< {}",
        nursery.global_gcs,
        stw.global_gcs
    );
    assert!(
        nursery.barrier_wait + nursery.gc_pause < stw.barrier_wait + stw.gc_pause,
        "per-cap nurseries must cut stopped time"
    );
    assert!(
        nursery.local_gcs > 0 && nursery.promoted_words > 0,
        "minor collections must really run and evacuate survivors"
    );
    assert!(
        nursery_gap < stw_gap,
        "nursery model must close the GpH-vs-Eden gap: {nursery_gap:.2}x !< {stw_gap:.2}x"
    );
    println!("shape check: nurseries close the gap: YES");

    write_artifact("alloc_area_ablation.csv", &table.to_csv());
    write_artifact("alloc_area_ablation.txt", &rendered);
    let json = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "  {{\"label\": \"{}\", \"elapsed\": {}, \"global_gcs\": {}, ",
                    "\"local_gcs\": {}, \"barrier_wait\": {}, \"gc_pause\": {}, ",
                    "\"promoted_words\": {}, \"vs_eden\": {:.4}}}"
                ),
                r.label,
                r.elapsed,
                r.global_gcs,
                r.local_gcs,
                r.barrier_wait,
                r.gc_pause,
                r.promoted_words,
                r.elapsed as f64 / eden_elapsed as f64
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    write_artifact("alloc_area_ablation.json", &format!("[\n{json}\n]\n"));
}
