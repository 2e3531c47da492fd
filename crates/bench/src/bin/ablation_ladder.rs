//! Ablation of §IV's optimisations on sumEuler: each change applied
//! *alone* to the plain runtime, and each removed *alone* from the
//! fully optimised runtime — quantifying the isolated effect of every
//! mechanism the paper describes (the paper only reports the
//! cumulative ladder).
//!
//! ```text
//! cargo run -p rph-bench --release --bin ablation_ladder [--quick]
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
    println!("Ablation — sumEuler [1..{n}], {caps} cores\n");

    let run = |label: &str, cfg: GphConfig, table: &mut TextTable, base: u64| {
        let m = w.run_gph(cfg.without_trace()).expect("run");
        check(&m, expected, label);
        let s = m.gph_stats.unwrap();
        let delta = 100.0 * (base as f64 - m.elapsed as f64) / base as f64;
        table.row(&[
            label.to_string(),
            secs(m.elapsed),
            format!("{delta:+.1}%"),
            s.gcs.to_string(),
        ]);
        m.elapsed
    };

    // --- each optimisation alone, from plain ------------------------
    let plain = GphConfig::ghc69_plain(caps);
    let base = w
        .run_gph(plain.clone().without_trace())
        .expect("plain")
        .elapsed;
    let mut t1 = TextTable::new(&[
        "single change from plain GHC-6.9",
        "runtime",
        "vs plain",
        "GCs",
    ]);
    t1.row(&["(plain)".into(), secs(base), "+0.0%".into(), "".into()]);
    run(
        "only big allocation area",
        plain.clone().with_big_alloc_area(),
        &mut t1,
        base,
    );
    run(
        "only improved GC synchronisation",
        plain.clone().with_improved_gc_sync(),
        &mut t1,
        base,
    );
    run(
        "only work stealing (+spark thread)",
        plain.clone().with_work_stealing(),
        &mut t1,
        base,
    );
    run(
        "only eager black-holing",
        plain.clone().with_eager_blackholing(),
        &mut t1,
        base,
    );
    {
        let mut c = plain.clone();
        c.spark_exec = SparkExec::SparkThread;
        run("only spark thread (push kept)", c, &mut t1, base);
    }
    println!("{}", t1.render());

    // --- each optimisation removed, from full ------------------------
    let full = GphConfig::ghc69_plain(caps)
        .with_big_alloc_area()
        .with_improved_gc_sync()
        .with_work_stealing();
    let fbase = w
        .run_gph(full.clone().without_trace())
        .expect("full")
        .elapsed;
    let mut t2 = TextTable::new(&[
        "single removal from fully optimised",
        "runtime",
        "vs full",
        "GCs",
    ]);
    t2.row(&[
        "(fully optimised)".into(),
        secs(fbase),
        "+0.0%".into(),
        "".into(),
    ]);
    {
        let mut c = full.clone();
        c.alloc_area_words = rph::heap::AllocArea::DEFAULT_AREA_WORDS;
        run("small allocation area again", c, &mut t2, fbase);
    }
    {
        let mut c = full.clone();
        c.gc_sync_improved = false;
        run("original GC synchronisation again", c, &mut t2, fbase);
    }
    {
        let mut c = full.clone();
        c.spark_policy = SparkPolicy::Push;
        run("push-model sparks again", c, &mut t2, fbase);
    }
    {
        let mut c = full.clone();
        c.spark_exec = SparkExec::ThreadPerSpark;
        run("thread per spark again", c, &mut t2, fbase);
    }
    println!("{}", t2.render());
    write_artifact(
        "ablation_ladder.txt",
        &format!("{}\n{}", t1.render(), t2.render()),
    );
}
