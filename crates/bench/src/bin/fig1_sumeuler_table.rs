//! Fig. 1: "Parallel runtimes of the sumEuler program for [1..15000]"
//! on the 8-core machine — the optimisation-ladder table.
//!
//! ```text
//! cargo run -p rph-bench --release --bin fig1_sumeuler_table [--quick]
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
    println!("Fig. 1 — sumEuler [1..{n}] on {caps} cores (paper: 2.75 / 2.58 / 2.44 / 2.30 / 2.24 sec.)\n");

    let mut table = TextTable::new(&[
        "Program version and runtime system",
        "Runtime",
        "GCs",
        "barrier wait",
        "GC pause",
        "sparks stolen/pushed",
        "steals local/remote",
    ]);
    let mut prev = u64::MAX;
    let mut ladder_monotone = true;
    for version in five_versions(caps) {
        let (elapsed, gcs, barrier, pause, dist, locality) = match &version {
            Version::Gph(_, cfg) => {
                let m = w.run_gph(cfg.clone().without_trace()).expect("gph run");
                check(&m, expected, version.label());
                let s = m.gph_stats.unwrap();
                // Fig. 1 is the paper's single-node machine: the
                // topology layer must price nothing as remote here.
                assert_eq!(s.steal_remote, 0, "single-node run recorded remote steals");
                assert_eq!(s.remote_words, 0, "single-node run moved inter-node words");
                (
                    m.elapsed,
                    s.gcs,
                    millis(s.gc_barrier_wait),
                    millis(s.gc_pause),
                    format!("{}/{}", s.sparks_stolen, s.sparks_pushed),
                    format!("{}/{}", s.steal_local, s.steal_remote),
                )
            }
            Version::Eden(_, cfg) => {
                let m = w.run_eden(cfg.clone().without_trace()).expect("eden run");
                check(&m, expected, version.label());
                let s = m.eden_stats.unwrap();
                assert_eq!(
                    s.remote_messages, 0,
                    "single-node run priced inter-node messages"
                );
                (
                    m.elapsed,
                    s.local_gcs,
                    "-".to_string(),
                    millis(s.gc_time),
                    "-".to_string(),
                    "-".to_string(),
                )
            }
        };
        if elapsed > prev {
            ladder_monotone = false;
        }
        prev = elapsed;
        table.row(&[
            version.label().to_string(),
            secs(elapsed),
            gcs.to_string(),
            barrier,
            pause,
            dist,
            locality,
        ]);
    }
    let rendered = table.render();
    println!("{rendered}");
    println!(
        "shape check: ladder monotone decreasing (plain ≥ … ≥ Eden): {}",
        if ladder_monotone { "YES" } else { "NO" }
    );
    write_artifact("fig1_sumeuler_table.csv", &table.to_csv());
    write_artifact("fig1_sumeuler_table.txt", &rendered);
}
