//! Decomposition study (extends §V): how the *same* Eden sumEuler
//! behaves under three task decompositions, against the GpH dynamic
//! baseline. The paper attributes its Eden run's "sub-optimal static
//! load balance" to the naive contiguous split; this binary quantifies
//! it and shows the two standard fixes (striping, and the paper's
//! `masterWorker` skeleton for "irregularly-sized tasks").
//!
//! ```text
//! cargo run -p rph-bench --release --bin decomposition_sumeuler [--quick]
//! ```

use rph::prelude::*;
use rph_bench::*;
use rph_workloads::SumEuler;

fn main() {
    check_args(&[]);
    let n = sum_euler_n();
    let caps = INTEL_CORES;
    let w = SumEuler::new(n);
    let expected = w.expected();
    println!("Task decomposition — sumEuler [1..{n}], {caps} cores/PEs\n");

    let mut table = TextTable::new(&["decomposition", "runtime", "messages", "notes"]);

    let m = w
        .run_eden_contiguous(EdenConfig::new(caps).without_trace())
        .expect("contiguous");
    check(&m, expected, "contiguous");
    table.row(&[
        "Eden, contiguous splitIntoN".into(),
        secs(m.elapsed),
        m.eden_stats.as_ref().unwrap().messages.to_string(),
        "last PE gets the heaviest k's".into(),
    ]);

    let m = w
        .run_eden(EdenConfig::new(caps).without_trace())
        .expect("striped");
    check(&m, expected, "striped");
    table.row(&[
        "Eden, round-robin stripes (unshuffle)".into(),
        secs(m.elapsed),
        m.eden_stats.as_ref().unwrap().messages.to_string(),
        "static but balanced".into(),
    ]);

    for prefetch in [1usize, 2, 4] {
        let m = w
            .run_eden_master_worker(EdenConfig::new(caps).without_trace(), prefetch)
            .expect("masterWorker");
        check(&m, expected, "masterWorker");
        table.row(&[
            format!("Eden, masterWorker (prefetch {prefetch})"),
            secs(m.elapsed),
            m.eden_stats.as_ref().unwrap().messages.to_string(),
            "dynamic, demand-driven".into(),
        ]);
    }

    let m = w
        .run_gph(
            GphConfig::ghc69_plain(caps)
                .with_big_alloc_area()
                .with_improved_gc_sync()
                .with_work_stealing()
                .without_trace(),
        )
        .expect("gph");
    check(&m, expected, "gph");
    table.row(&[
        "GpH, work stealing (dynamic)".into(),
        secs(m.elapsed),
        "-".into(),
        "shared heap, spark per chunk".into(),
    ]);

    let rendered = table.render();
    println!("{rendered}");
    write_artifact("decomposition_sumeuler.csv", &table.to_csv());
}
