//! §VI, tested: "the speedups that can be achieved on eight or 16
//! cores will not scale when future systems with more cores are used
//! … The solution may be … a semi-distributed heap model."
//!
//! This binary pushes sumEuler to 8–64 cores and compares:
//!   * stop-the-world GpH (the paper's best configuration),
//!   * the same + the §VI semi-distributed heap as a mechanism
//!     (per-capability nurseries, parallel major collection),
//!   * Eden's fully distributed heaps.
//!
//! ```text
//! cargo run -p rph-bench --release --bin future_manycore [--quick]
//! ```

use rph::prelude::*;
use rph_bench::*;
use rph_workloads::SumEuler;

fn main() {
    check_args(&[]);
    let n = sum_euler_n();
    let w = SumEuler::new(n).with_chunk_size((n / 600).max(1)); // finer grains for 64 caps
    let expected = w.expected();
    let seq = w.run_seq();
    println!(
        "Beyond 16 cores — sumEuler [1..{n}], speedup vs the sequential baseline ({})\n",
        secs(seq.elapsed)
    );

    let mut table = TextTable::new(&[
        "cores",
        "GpH stop-the-world",
        "(global GCs)",
        "GpH per-capability nurseries",
        "(global GCs)",
        "Eden distributed heaps",
    ]);
    for cores in [8usize, 16, 32, 64] {
        let stw_cfg = GphConfig::ghc69_plain(cores)
            .with_improved_gc_sync()
            .with_work_stealing()
            .without_trace();
        let stw = w.run_gph(stw_cfg.clone()).expect("stw");
        check(&stw, expected, "stw");
        let nursery = w
            .run_gph(stw_cfg.with_per_cap_nurseries())
            .expect("nursery");
        check(&nursery, expected, "nursery");
        let eden = w
            .run_eden(EdenConfig::new(cores).without_trace())
            .expect("eden");
        check(&eden, expected, "eden");
        table.row(&[
            cores.to_string(),
            format!("{:.2}", seq.elapsed as f64 / stw.elapsed as f64),
            stw.gph_stats.as_ref().unwrap().gcs.to_string(),
            format!("{:.2}", seq.elapsed as f64 / nursery.elapsed as f64),
            nursery.gph_stats.as_ref().unwrap().gcs.to_string(),
            format!("{:.2}", seq.elapsed as f64 / eden.elapsed as f64),
        ]);
    }
    let rendered = table.render();
    println!("{rendered}");
    println!("(Default nursery size on purpose: the stop-the-world barrier cost");
    println!("grows with the core count, which is exactly what the per-capability");
    println!("nurseries and the fully distributed model avoid.)");
    write_artifact("future_manycore.csv", &table.to_csv());
}
