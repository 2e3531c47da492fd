//! Fig. 4: "Traces of matrix multiplication: GpH and Eden" on the
//! 8-core Intel machine — including the paper's oversubscription
//! observation: Eden on a 3×3 torus over **9 virtual PEs** and on a
//! 4×4 torus over **17 virtual PEs** (both on 8 physical cores), with
//! the 4×4/17-PE version fastest.
//!
//! ```text
//! cargo run -p rph-bench --release --bin fig4_matmul_traces [--quick] [--color]
//! ```

use rph::prelude::*;
use rph_bench::*;
use rph_workloads::MatMul;

fn main() {
    let color = check_args(&["--color"]).has("--color");
    let n = matmul_n();
    let cores = INTEL_CORES;
    println!("Fig. 4 — {n}×{n} matrix multiplication traces, {cores} cores\n");
    let opts = RenderOptions {
        width: 110,
        color,
        legend: false,
    };

    let gph_w = MatMul::new(n, 10);
    let expected = gph_w.expected();

    struct Cfg {
        tag: &'static str,
        label: String,
        run: Box<dyn Fn() -> rph_workloads::Measured>,
    }
    let mk_gph = |label: &str, cfg: GphConfig, w: MatMul| Cfg {
        tag: "",
        label: label.to_string(),
        run: Box::new(move || w.run_gph(cfg.clone()).expect("gph")),
    };
    let mut cfgs = vec![
        mk_gph(
            "GpH, unmodified GHC",
            GphConfig::ghc69_plain(cores),
            gph_w.clone(),
        ),
        mk_gph(
            "GpH, big allocation area",
            GphConfig::ghc69_plain(cores).with_big_alloc_area(),
            gph_w.clone(),
        ),
        mk_gph(
            "GpH, work stealing (big allocation area)",
            GphConfig::ghc69_plain(cores)
                .with_big_alloc_area()
                .with_improved_gc_sync()
                .with_work_stealing(),
            gph_w.clone(),
        ),
    ];
    for (g, pes) in [(3usize, 9usize), (4, 17)] {
        let w = MatMul::new(n, g);
        let cfg = EdenConfig::oversubscribed(pes, cores);
        cfgs.push(Cfg {
            tag: "",
            label: format!("Eden Cannon {g}×{g}, {pes} virtual PVM nodes on {cores} cores"),
            run: Box::new(move || w.run_eden(cfg.clone()).expect("eden")),
        });
    }

    let mut times = Vec::new();
    for (tag, mut cfg) in ["a", "b", "c", "d", "e"].iter().zip(cfgs) {
        cfg.tag = tag;
        let m = (cfg.run)();
        check(&m, expected, &cfg.label);
        let tl = Timeline::from_tracer(&m.tracer);
        tl.check_well_formed().expect("trace invariants");
        println!("{tag}) {} — {}", cfg.label, millis(m.elapsed));
        print!("{}", render_timeline(&tl, &opts));
        match (&m.gph_stats, &m.eden_stats) {
            (Some(s), _) => println!(
                "   {} GCs (barrier wait {}, pause {})\n",
                s.gcs,
                millis(s.gc_barrier_wait),
                millis(s.gc_pause)
            ),
            (_, Some(s)) => println!(
                "   {} local GCs (pause {})\n",
                s.local_gcs,
                millis(s.gc_time)
            ),
            _ => println!(),
        }
        write_artifact(
            &format!("fig4_trace_{tag}.svg"),
            &rph::trace::render_svg(&tl, 900, 16),
        );
        times.push((cfg.label.clone(), m.elapsed));
    }

    // Shape checks from the paper's text.
    let plain = times[0].1;
    let big = times[1].1;
    let steal = times[2].1;
    let eden9 = times[3].1;
    let eden17 = times[4].1;
    println!("shape checks:");
    println!(
        "  big allocation area beats plain:            {}",
        yes(big < plain)
    );
    println!(
        "  work stealing is the best GpH:               {}",
        yes(steal <= big)
    );
    println!(
        "  Eden 17 virtual PEs beats 9 virtual PEs:     {}",
        yes(eden17 < eden9)
    );

    let mut csv = TextTable::new(&["config", "elapsed_units"]);
    for (l, t) in &times {
        csv.row(&[l.clone(), t.to_string()]);
    }
    write_artifact("fig4_matmul_traces.csv", &csv.to_csv());
}

fn yes(b: bool) -> &'static str {
    if b {
        "YES"
    } else {
        "NO"
    }
}
