//! `sim_multicore`, `sim_manycore`: the deterministic simulators. A pass
//! is a fixed list of simulated configurations; each simulated run is
//! one job, checked against the sequential oracle. Host time is what is
//! timed; the virtual makespan and the runtime counters are exact for a
//! seed and are reported as counts.

use crate::harness::{Layer, Opts, Segment, Workload};
use crate::spans::Spans;
use crate::stats::ratio;
use rph_eden::{EdenConfig, EdenStats};
use rph_gph::{GphConfig, GphStats};
use rph_trace::{State, TraceStats};
use rph_workloads::{Apsp, MatMul, Measured, SumEuler};
use std::rc::Rc;

type SimRun = Box<dyn Fn(bool) -> Result<Measured, String>>;

struct Config {
    /// Span name: which simulator the run calls into.
    span: &'static str,
    label: String,
    cores: usize,
    expected: i64,
    /// Run with the simulator's own tracing on (`true`) or off.
    run: SimRun,
}

pub struct Sim {
    configs: Vec<Config>,
}

/// The three workload types all offer `run_gph` / `run_eden` /
/// `expected` as inherent methods; this is the seam the list below is
/// written against.
trait Simulated: 'static {
    fn gph(&self, cfg: GphConfig) -> Result<Measured, String>;
    fn eden(&self, cfg: EdenConfig) -> Result<Measured, String>;
    fn oracle(&self) -> i64;
}

macro_rules! simulated {
    ($ty:ty) => {
        impl Simulated for $ty {
            fn gph(&self, cfg: GphConfig) -> Result<Measured, String> {
                self.run_gph(cfg)
            }
            fn eden(&self, cfg: EdenConfig) -> Result<Measured, String> {
                self.run_eden(cfg)
            }
            fn oracle(&self) -> i64 {
                self.expected()
            }
        }
    };
}
simulated!(SumEuler);
simulated!(MatMul);
simulated!(Apsp);

struct Builder<'a> {
    seed: u64,
    spans: &'a mut Spans,
    configs: Vec<Config>,
}

impl Builder<'_> {
    fn oracle<W: Simulated>(&mut self, what: &str, w: W) -> (Rc<W>, i64) {
        let (expected, _) = self.spans.scope("setup.oracle", what, |_| w.oracle());
        (Rc::new(w), expected)
    }

    fn gph<W: Simulated>(&mut self, label: &str, (w, expected): &(Rc<W>, i64), cfg: GphConfig) {
        let cfg = cfg.with_seed(self.seed);
        let w = Rc::clone(w);
        self.configs.push(Config {
            span: "sim.run_gph",
            label: label.to_string(),
            cores: cfg.caps,
            expected: *expected,
            run: Box::new(move |traced| {
                w.gph(if traced {
                    cfg.clone()
                } else {
                    cfg.clone().without_trace()
                })
            }),
        });
    }

    fn eden<W: Simulated>(&mut self, label: &str, (w, expected): &(Rc<W>, i64), cfg: EdenConfig) {
        let cfg = cfg.with_seed(self.seed);
        let w = Rc::clone(w);
        self.configs.push(Config {
            span: "sim.run_eden",
            label: label.to_string(),
            cores: cfg.cores,
            expected: *expected,
            run: Box::new(move |traced| {
                w.eden(if traced {
                    cfg.clone()
                } else {
                    cfg.clone().without_trace()
                })
            }),
        });
    }
}

fn sim(opts: &Opts, spans: &mut Spans, build: impl FnOnce(&mut Builder)) -> Box<dyn Workload> {
    let mut b = Builder {
        seed: opts.seed,
        spans,
        configs: Vec::new(),
    };
    build(&mut b);
    Box::new(Sim { configs: b.configs })
}

/// The paper's machine: 8 modelled cores, the Fig. 1 / 3 / 5
/// configurations.
pub fn multicore(opts: &Opts, spans: &mut Spans) -> Box<dyn Workload> {
    const CORES: usize = 8;
    sim(opts, spans, |b| {
        let ladder = GphConfig::fig1_ladder(CORES);
        let full = ladder[3].1.clone();

        let se = b.oracle("sum_euler n=6000", SumEuler::new(6_000));
        b.gph("sumEuler plain", &se, ladder[0].1.clone());
        b.gph("sumEuler full ladder", &se, full.clone());
        b.eden("sumEuler 8 PEs", &se, EdenConfig::new(CORES));

        // GpH sparks a 10x10 grid of result blocks; Eden runs Cannon on
        // a 3x3 torus whose 9+1 virtual PEs share the 8 cores (Fig. 4d).
        let mm_gph = b.oracle("matmul n=240 grid=10", MatMul::new(240, 10));
        b.gph("matmul full ladder", &mm_gph, full.clone());
        let mm_eden = b.oracle("matmul n=240 grid=3", MatMul::new(240, 3));
        b.eden(
            "matmul torus 3x3",
            &mm_eden,
            EdenConfig::oversubscribed(10, CORES),
        );

        let apsp = b.oracle("apsp n=160", Apsp::new(160));
        b.gph("apsp lazy BH + stealing", &apsp, full.clone());
        b.gph(
            "apsp eager BH + stealing",
            &apsp,
            full.with_eager_blackholing(),
        );
        b.eden("apsp ring", &apsp, EdenConfig::new(CORES));
    })
}

/// Few events per core and many cores: sumEuler [1..6000] in 600 chunks
/// on 64 to 256 modelled cores, flat and as a 32x8 cluster.
pub fn manycore(opts: &Opts, spans: &mut Spans) -> Box<dyn Workload> {
    sim(opts, spans, |b| {
        let n = 6_000;
        let se = b.oracle(
            "sum_euler n=6000 chunk=10",
            SumEuler::new(n).with_chunk_size(n / 600),
        );
        let stealing = |caps| {
            GphConfig::ghc69_plain(caps)
                .with_improved_gc_sync()
                .with_work_stealing()
        };
        b.gph(
            "256 cores 32x8, per-cap nurseries",
            &se,
            stealing(256).with_per_cap_nurseries().with_topology(32, 8),
        );
        b.gph("64 cores, stop-the-world", &se, stealing(64));
        b.eden(
            "256 PEs 32x8",
            &se,
            EdenConfig::new(256).with_topology(32, 8),
        );
        b.eden("32 PEs on 8 cores", &se, EdenConfig::oversubscribed(32, 8));
    })
}

fn ms(virtual_ns: u64) -> f64 {
    virtual_ns as f64 / 1e6
}

/// Occupancy of the traced runs of one runtime, weighted by trace length
/// times capabilities.
#[derive(Default)]
struct Occupancy {
    running: f64,
    gc: f64,
    weight: f64,
}

impl Occupancy {
    fn add(&mut self, ts: &TraceStats) {
        let weight = ts.end_time as f64 * ts.caps as f64;
        self.running += weight * ts.fraction(State::Running);
        self.gc += weight * ts.fraction(State::Gc);
        self.weight += weight;
    }

    fn mean(&self, sum: f64) -> f64 {
        if self.weight > 0.0 {
            sum / self.weight
        } else {
            0.0
        }
    }
}

impl Workload for Sim {
    fn segment(&mut self, traced: bool, spans: &mut Spans) -> Segment {
        let mut seg = Segment::default();
        let mut gph = GphStats::default();
        let mut eden = EdenStats::default();
        let (mut virtual_ns, mut core_ns, mut events) = (0u64, 0u64, 0u64);
        let (mut gph_occ, mut eden_occ) = (Occupancy::default(), Occupancy::default());
        let mut lat_ms = Vec::new();

        for cfg in &self.configs {
            let (result, took) = spans.scope(cfg.span, &cfg.label, |_| (cfg.run)(traced));
            seg.attempted += 1;
            seg.wall_s += took.as_secs_f64();
            lat_ms.push(took.as_secs_f64() * 1e3);
            let ((), _) = spans.scope("verify", &cfg.label, |_| match result {
                Ok(m) if m.value == cfg.expected => {
                    virtual_ns += m.elapsed;
                    core_ns += m.elapsed * cfg.cores as u64;
                    events += m.tracer.len() as u64;
                    let ts = traced.then(|| TraceStats::from_tracer(&m.tracer));
                    if let Some(s) = &m.gph_stats {
                        gph.gcs += s.gcs;
                        gph.local_gcs += s.local_gcs;
                        gph.gc_barrier_wait += s.gc_barrier_wait;
                        gph.gc_pause += s.gc_pause;
                        gph.sparks_stolen += s.sparks_stolen;
                        gph.sparks_created += s.sparks_created;
                        gph.sparks_fizzled += s.sparks_fizzled;
                        gph.duplicate_evals += s.duplicate_evals;
                        gph.steal_remote += s.steal_remote;
                        gph.remote_words += s.remote_words;
                        gph.steal_failures += s.steal_failures;
                        if let Some(ts) = &ts {
                            gph_occ.add(ts);
                        }
                    }
                    if let Some(s) = &m.eden_stats {
                        eden.messages += s.messages;
                        eden.message_words += s.message_words;
                        eden.remote_words += s.remote_words;
                        eden.local_gcs += s.local_gcs;
                        eden.gc_time += s.gc_time;
                        if let Some(ts) = &ts {
                            eden_occ.add(ts);
                        }
                    }
                }
                _ => seg.failed += 1,
            });
        }

        seg.set_latencies(&lat_ms);
        seg.layer = vec![
            ("sim.virtual_ms", ms(virtual_ns)),
            ("gph.gcs", gph.gcs as f64),
            ("gph.local_gcs", gph.local_gcs as f64),
            ("gph.gc_barrier_wait_ms", ms(gph.gc_barrier_wait)),
            ("gph.gc_pause_ms", ms(gph.gc_pause)),
            ("gph.sparks_stolen", gph.sparks_stolen as f64),
            (
                "gph.steal_fail_frac",
                ratio(gph.steal_failures, gph.steal_failures + gph.sparks_stolen),
            ),
            (
                "gph.spark_fizzle_frac",
                ratio(gph.sparks_fizzled, gph.sparks_created),
            ),
            ("gph.duplicate_evals", gph.duplicate_evals as f64),
            ("gph.steal_remote", gph.steal_remote as f64),
            ("gph.remote_words", gph.remote_words as f64),
            ("edensim.messages", eden.messages as f64),
            ("edensim.message_words", eden.message_words as f64),
            ("edensim.remote_words", eden.remote_words as f64),
            ("edensim.local_gcs", eden.local_gcs as f64),
            ("edensim.gc_time_ms", ms(eden.gc_time)),
            (
                "sim.model_core_s_per_host_s",
                core_ns as f64 / 1e9 / seg.wall_s,
            ),
            ("trace.events", events as f64),
            ("occ.gph.running_frac", gph_occ.mean(gph_occ.running)),
            ("occ.gph.gc_frac", gph_occ.mean(gph_occ.gc)),
            ("occ.edensim.running_frac", eden_occ.mean(eden_occ.running)),
        ];
        if events > 0 {
            seg.layer.push((
                "sim.host_ns_per_trace_event",
                seg.wall_s * 1e9 / events as f64,
            ));
        }
        seg
    }

    fn finish(self: Box<Self>, _spans: &mut Spans) -> (u64, u64, Layer) {
        (0, 0, Vec::new())
    }
}
