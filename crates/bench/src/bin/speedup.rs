//! Figs. 3 and 5: relative speedups on the 16-core AMD machine — one
//! experiment shape (every version swept over 1–16 cores, each against
//! its own one-core time, as the paper reports "for fairness") applied
//! to the three programs of [`FIGURES`]. sumEuler and mat-mul sweep the
//! five versions of Figs. 1–4; shortest paths, where eager
//! black-holing decides whether the shared heap scales at all, sweeps
//! GpH {lazy, eager} black-holing × {push, work-stealing} and the Eden
//! ring.
//!
//! ```text
//! cargo run -p rph-bench --release --bin speedup [--quick] [--workload sum_euler|matmul|apsp]
//! ```
//!
//! Without `--workload` all three figures are regenerated.

use rph::compare::{flattens, relative_speedup, render_chart, SpeedupSeries};
use rph::prelude::*;
use rph_bench::*;
use rph_workloads::{Apsp, MatMul, Measured, SumEuler};

/// One run of a version, as configured for `cores` cores.
type RunAt = Box<dyn Fn(&Version, usize) -> Result<Measured, String>>;

/// A figure's program at the selected scale: what the headline calls
/// it, the oracle's value every run must return, and how it runs.
struct Program {
    what: String,
    expected: i64,
    run: RunAt,
}

/// One speedup figure.
struct Figure {
    /// The `--workload` value that selects it.
    workload: &'static str,
    /// The paper figure it regenerates.
    label: &'static str,
    /// Artifacts are `<stem>_speedup.csv` and `<stem>_runtimes_sec.csv`.
    stem: &'static str,
    program: fn() -> Program,
    /// The curves, configured for [`AMD_CORES`]: at each point a GpH
    /// version runs with `caps` set to the core count, the Eden
    /// version with `eden_config` of it.
    versions: fn() -> Vec<Version>,
    eden_config: fn(usize) -> EdenConfig,
    /// Checks from the paper's text, printed under the chart.
    shape_checks: Option<fn(&[SpeedupSeries])>,
}

const FIGURES: [Figure; 3] = [
    Figure {
        workload: "sum_euler",
        label: "Fig. 3 left",
        stem: "fig3_sumeuler",
        program: sum_euler,
        versions: || five_versions(AMD_CORES),
        eden_config: EdenConfig::new,
        shape_checks: None,
    },
    Figure {
        workload: "matmul",
        label: "Fig. 3 right",
        stem: "fig3_matmul",
        program: matmul,
        versions: || five_versions(AMD_CORES),
        eden_config: cannon_config,
        shape_checks: None,
    },
    Figure {
        workload: "apsp",
        label: "Fig. 5",
        stem: "fig5_apsp",
        program: apsp,
        versions: apsp_versions,
        eden_config: EdenConfig::new,
        shape_checks: Some(apsp_shape_checks),
    },
];

fn sum_euler() -> Program {
    let n = sum_euler_n();
    let w = SumEuler::new(n);
    Program {
        what: format!("sumEuler [1..{n}]"),
        expected: w.expected(),
        run: Box::new(move |version, _| match version {
            Version::Gph(_, cfg) => w.run_gph(cfg.clone()),
            Version::Eden(_, cfg) => w.run_eden(cfg.clone()),
        }),
    }
}

/// Cannon's torus edge at `cores` cores: ⌈√cores⌉, at most 4.
fn cannon_grid(cores: usize) -> usize {
    ((cores as f64).sqrt().ceil() as usize).clamp(1, 4)
}

/// Like the paper, the g²+1 virtual PEs may exceed the physical cores
/// (9 PEs on 8 cores) — the OS time-slices them.
fn cannon_config(cores: usize) -> EdenConfig {
    let g = cannon_grid(cores);
    EdenConfig::oversubscribed(g * g + 1, cores)
}

/// GpH sparks a 10×10 block grid; Eden runs Cannon's algorithm on the
/// largest square torus that fits the core count (paper: 2000×2000
/// elements; 960×960 here preserves the shape). The checksum does not
/// depend on the grid.
fn matmul() -> Program {
    let n = matmul_n();
    let w = MatMul::new(n, 10);
    Program {
        what: format!("{n}×{n} matrix multiplication"),
        expected: w.expected(),
        run: Box::new(move |version, cores| match version {
            Version::Gph(_, cfg) => w.run_gph(cfg.clone()),
            Version::Eden(_, cfg) => MatMul::new(n, cannon_grid(cores)).run_eden(cfg.clone()),
        }),
    }
}

fn apsp() -> Program {
    let n = apsp_n();
    let w = Apsp::new(n);
    Program {
        what: format!("shortest paths ({n} nodes)"),
        expected: w.expected(),
        run: Box::new(move |version, _| match version {
            Version::Gph(_, cfg) => w.run_gph(cfg.clone()),
            Version::Eden(_, cfg) => w.run_eden(cfg.clone()),
        }),
    }
}

const LAZY_STEAL: &str = "GpH lazy BH, work stealing";
const EAGER_STEAL: &str = "GpH eager BH, work stealing";
const EDEN_RING: &str = "Eden ring";

fn apsp_versions() -> Vec<Version> {
    let gph = |label: &str, bh: BlackHoling, policy: SparkPolicy| {
        let mut cfg = GphConfig::ghc69_plain(AMD_CORES)
            .with_big_alloc_area()
            .with_improved_gc_sync();
        cfg.black_holing = bh;
        cfg.spark_policy = policy;
        if policy == SparkPolicy::Steal {
            cfg.spark_exec = SparkExec::SparkThread;
        }
        Version::Gph(label.to_string(), cfg)
    };
    vec![
        gph("GpH lazy BH, push", BlackHoling::Lazy, SparkPolicy::Push),
        gph(LAZY_STEAL, BlackHoling::Lazy, SparkPolicy::Steal),
        gph("GpH eager BH, push", BlackHoling::Eager, SparkPolicy::Push),
        gph(EAGER_STEAL, BlackHoling::Eager, SparkPolicy::Steal),
        Version::Eden(EDEN_RING.to_string(), EdenConfig::new(AMD_CORES)),
    ]
}

fn apsp_shape_checks(series: &[SpeedupSeries]) {
    let curve = |label: &str| {
        let s = series
            .iter()
            .find(|s| s.label == label)
            .expect("curve is in the figure");
        s.speedups(s.one_core().expect("1-core point"))
    };
    let at_max = |curve: &[(usize, f64)]| curve.last().expect("swept cores").1;
    let (lazy, eager, eden) = (curve(LAZY_STEAL), curve(EAGER_STEAL), curve(EDEN_RING));
    let yes = |b: bool| if b { "YES" } else { "NO" };
    println!("shape checks:");
    println!(
        "  Eden keeps scaling (best speedup at max cores):        {}",
        yes(at_max(&eden) >= at_max(&eager) && at_max(&eden) > 2.0)
    );
    println!(
        "  GpH with lazy black-holing flattens out:               {}",
        yes(flattens(&lazy, 0.15) || at_max(&lazy) < 2.0)
    );
    println!(
        "  eager black-holing beats lazy (work stealing, max):    {}",
        yes(at_max(&eager) > at_max(&lazy))
    );
}

/// Sweep every version of `fig` over `cores`, each run oracle-checked.
fn measure(fig: &Figure, cores: &[usize]) -> Vec<SpeedupSeries> {
    let program = (fig.program)();
    println!(
        "{} — {} relative speedups, 1–{AMD_CORES} cores\n",
        fig.label, program.what
    );
    let at = |version: &Version, c: usize| match version {
        Version::Gph(label, cfg) => {
            let mut cfg = cfg.clone().without_trace();
            cfg.caps = c;
            Version::Gph(label.clone(), cfg)
        }
        Version::Eden(label, _) => {
            Version::Eden(label.clone(), (fig.eden_config)(c).without_trace())
        }
    };
    (fig.versions)()
        .iter()
        .map(|version| {
            SpeedupSeries::measure(version.label(), cores, |c| {
                let m = (program.run)(&at(version, c), c).expect("simulated run");
                check(&m, program.expected, version.label());
                m.elapsed
            })
        })
        .collect()
}

/// Print the speedup table and chart; write the speedups and, for
/// EXPERIMENTS.md, the absolute virtual runtimes as CSV.
fn render(stem: &str, cores: &[usize], series: &[SpeedupSeries]) {
    let mut header = vec!["cores"];
    header.extend(series.iter().map(|s| s.label.as_str()));
    let mut speedups = TextTable::new(&header);
    let mut runtimes = TextTable::new(&header);
    for &c in cores {
        let mut speedup_row = vec![c.to_string()];
        let mut runtime_row = vec![c.to_string()];
        for s in series {
            let (base, t) = (s.one_core().expect("1-core point"), s.at(c).expect("point"));
            speedup_row.push(format!("{:.2}", relative_speedup(base, t)));
            runtime_row.push(format!("{:.3}", t as f64 / 1e9));
        }
        speedups.row(&speedup_row);
        runtimes.row(&runtime_row);
    }
    println!("{}", speedups.render());
    let chart: Vec<(String, Vec<(usize, f64)>)> = series
        .iter()
        .map(|s| (s.label.clone(), s.speedups(s.one_core().unwrap())))
        .collect();
    println!("{}", render_chart(&chart, 16));
    write_artifact(&format!("{stem}_speedup.csv"), &speedups.to_csv());
    write_artifact(&format!("{stem}_runtimes_sec.csv"), &runtimes.to_csv());
}

/// The figures `--workload` selects: all of them when it is absent.
fn select(workload: Option<&str>) -> Result<Vec<&'static Figure>, String> {
    let picked: Vec<&Figure> = FIGURES
        .iter()
        .filter(|f| workload.is_none_or(|w| w == f.workload))
        .collect();
    if picked.is_empty() {
        let known: Vec<&str> = FIGURES.iter().map(|f| f.workload).collect();
        return Err(format!(
            "unknown --workload value {:?}; expected {}",
            workload.unwrap_or_default(),
            known.join(", ")
        ));
    }
    Ok(picked)
}

fn main() {
    let args = check_args(&["--workload <v>"]);
    let figures = select(args.value("--workload")).unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(2);
    });
    let cores = sweep_cores();
    for fig in figures {
        let series = measure(fig, &cores);
        render(fig.stem, &cores, &series);
        if let Some(shape_checks) = fig.shape_checks {
            shape_checks(&series);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_the_papers_three_speedup_figures() {
        let rows = FIGURES.each_ref().map(|f| (f.workload, f.label, f.stem));
        assert_eq!(
            rows,
            [
                ("sum_euler", "Fig. 3 left", "fig3_sumeuler"),
                ("matmul", "Fig. 3 right", "fig3_matmul"),
                ("apsp", "Fig. 5", "fig5_apsp"),
            ]
        );
        assert!(FIGURES.iter().all(|f| (f.versions)().len() == 5));
    }

    #[test]
    fn cannon_oversubscribes_the_largest_torus_that_fits() {
        let [sum_euler, matmul, apsp] = &FIGURES;
        let at = [1, 2, 4, 8, 16].map(|c| {
            let cfg = (matmul.eden_config)(c);
            assert_eq!(cfg.cores, c);
            (cannon_grid(c), cfg.pes)
        });
        assert_eq!(at, [(1, 2), (2, 5), (2, 5), (3, 10), (4, 17)]);
        // The other two figures give every core one PE.
        assert_eq!((sum_euler.eden_config)(8).pes, 8);
        assert_eq!((apsp.eden_config)(8).pes, 8);
    }

    #[test]
    fn workload_selection() {
        let stems = |w| -> Vec<_> { select(w).unwrap().iter().map(|f| f.stem).collect() };
        assert_eq!(stems(None), ["fig3_sumeuler", "fig3_matmul", "fig5_apsp"]);
        assert_eq!(stems(Some("apsp")), ["fig5_apsp"]);
        let err = select(Some("sumeuler")).err().expect("not a row");
        assert!(err.contains("sum_euler, matmul, apsp"), "{err}");
    }
}
