//! `native_coarse`, `native_fine`, `native_eden`: real threads, wall
//! clock. A pass is a fixed list of `NativeWorkload::run_on` calls; each
//! call is one job, checked against `expected_value()` computed in
//! set-up.

use crate::harness::{Layer, Opts, Segment, Workload};
use crate::spans::Spans;
use crate::stats::{median, ratio};
use rph_native::{BackendKind, Job, NativeConfig, NativeStats};
use rph_trace::{State, TraceStats};
use rph_workloads::registry::episim;
use rph_workloads::{
    Apsp, FlatNative, IterNative, MatMul, NQueens, NativeWorkload, Scale, SumEuler,
};
use std::rc::Rc;

/// One line of a pass: `count` runs of one workload instance.
struct Item {
    label: String,
    count: usize,
    workload: Rc<dyn NativeWorkload>,
    /// The plain single-threaded baseline of the same problem: every
    /// task of the job run in a loop on the calling thread.
    seq: Box<dyn Fn() -> i64>,
    expected: i64,
    is_apsp: bool,
    /// Summed wall of this item's runs, one entry per untraced pass.
    plain_wall_s: Vec<f64>,
}

fn item(
    workload: Rc<dyn NativeWorkload>,
    count: usize,
    seq: Box<dyn Fn() -> i64>,
    spans: &mut Spans,
) -> Item {
    let label = format!("{} {}", workload.name(), workload.default_params());
    let (expected, _) = spans.scope("setup.oracle", &label, |_| workload.expected_value());
    Item {
        is_apsp: workload.name() == "apsp",
        label,
        count,
        workload,
        seq,
        expected,
        plain_wall_s: Vec::new(),
    }
}

fn flat<W: FlatNative + NativeWorkload + 'static>(w: W, count: usize, spans: &mut Spans) -> Item {
    let w = Rc::new(w);
    let s = Rc::clone(&w);
    let seq = move || {
        let job = s.job();
        let values = (0..job.len()).map(|i| job.run(i)).collect();
        s.combine(values)
    };
    item(w, count, Box::new(seq), spans)
}

fn iter<W: IterNative + NativeWorkload + 'static>(w: W, count: usize, spans: &mut Spans) -> Item {
    let w = Rc::new(w);
    let s = Rc::clone(&w);
    let seq = move || {
        let mut state = s.init_state();
        for round in 0..s.rounds() {
            let values = {
                let job = s.round_job(round, &state);
                (0..job.len()).map(|i| job.run(i)).collect()
            };
            s.absorb(round, &mut state, values);
        }
        s.finish(state)
    };
    item(w, count, Box::new(seq), spans)
}

pub struct Native {
    plain: NativeConfig,
    traced: NativeConfig,
    items: Vec<Item>,
    workers: usize,
    measure_baseline: bool,
}

fn native(
    opts: &Opts,
    backend: BackendKind,
    spans: &mut Spans,
    items: impl FnOnce(&mut Spans) -> Vec<Item>,
) -> Box<dyn Workload> {
    let (items, _) = spans.scope("setup.inputs", "", items);
    let plain = NativeConfig::steal(opts.workers)
        .with_backend(backend)
        .with_seed(opts.seed);
    Box::new(Native {
        traced: plain.clone().with_trace(),
        plain,
        items,
        workers: opts.workers,
        measure_baseline: opts.trace,
    })
}

/// Kernel-dominated: few big tasks per run.
pub fn coarse(opts: &Opts, spans: &mut Spans) -> Box<dyn Workload> {
    native(opts, BackendKind::Steal, spans, |s| {
        vec![
            flat(MatMul::new(480, 8), 8, s),
            flat(NQueens::new(12).with_spawn_depth(4), 2, s),
            flat(SumEuler::new(6_000), 20, s),
            iter(episim(Scale::Full), 8, s),
        ]
    })
}

/// Overhead-dominated: 6 000 sub-microsecond tasks, 256 pool dispatches
/// of 256 tiny rows, 732 one-microsecond tasks, 144 small blocks.
pub fn fine(opts: &Opts, spans: &mut Spans) -> Box<dyn Workload> {
    native(opts, BackendKind::Steal, spans, |s| {
        vec![
            flat(SumEuler::new(6_000).with_chunk_size(1), 20, s),
            iter(Apsp::new(256), 4, s),
            flat(NQueens::new(9).with_spawn_depth(4), 40, s),
            flat(MatMul::new(96, 12), 40, s),
        ]
    })
}

/// The same task sets over channels: `par_map` (6 000 packets),
/// `master_worker` (1 072 small packets), `ring` (256 waves of 257-word
/// pivots), `exchange` (BSP supersteps).
pub fn eden(opts: &Opts, spans: &mut Spans) -> Box<dyn Workload> {
    native(opts, BackendKind::Eden, spans, |s| {
        vec![
            flat(SumEuler::new(6_000).with_chunk_size(1), 3, s),
            flat(NQueens::new(11).with_spawn_depth(3), 3, s),
            iter(Apsp::new(256), 3, s),
            iter(episim(Scale::Full), 3, s),
        ]
    })
}

impl Workload for Native {
    fn segment(&mut self, traced: bool, spans: &mut Spans) -> Segment {
        let cfg = if traced { &self.traced } else { &self.plain };
        let mut seg = Segment::default();
        let mut stats = NativeStats::default();
        let mut imbalance = Vec::new();
        let (mut events, mut dropped) = (0u64, 0u64);
        // Occupancy fractions of each traced run, weighted by its length.
        let mut occ = [0.0f64; 3];
        let mut occ_weight = 0.0f64;
        let mut lat_ms = Vec::new();

        for item in &mut self.items {
            let mut item_wall = 0.0;
            for _ in 0..item.count {
                let (result, took) = spans.scope("workloads.run_on", &item.label, |_| {
                    item.workload.run_on(cfg)
                });
                seg.attempted += 1;
                seg.wall_s += took.as_secs_f64();
                item_wall += took.as_secs_f64();
                lat_ms.push(took.as_secs_f64() * 1e3);
                let ((), _) = spans.scope("verify", &item.label, |_| match result {
                    Ok(m) if m.value == item.expected => {
                        let most = m.stats.per_worker.iter().copied().max().unwrap_or(0);
                        let all: u64 = m.stats.per_worker.iter().sum();
                        if all > 0 {
                            imbalance
                                .push((most * m.stats.per_worker.len() as u64) as f64 / all as f64);
                        }
                        stats.merge(&m.stats);
                        dropped += m.trace_dropped;
                        if let Some(tracer) = &m.trace {
                            let ts = TraceStats::from_tracer(tracer);
                            let weight = ts.end_time as f64;
                            events += tracer.len() as u64;
                            occ[0] += weight * ts.fraction(State::Running);
                            occ[1] += weight * ts.fraction(State::Idle);
                            occ[2] += weight * ts.fraction(State::Blocked);
                            occ_weight += weight;
                        }
                    }
                    _ => seg.failed += 1,
                });
            }
            if !traced {
                item.plain_wall_s.push(item_wall);
            }
        }

        seg.set_latencies(&lat_ms);
        let occ = occ.map(|x| {
            if occ_weight > 0.0 {
                x / occ_weight
            } else {
                0.0
            }
        });
        seg.layer = match cfg.backend {
            BackendKind::Steal => vec![
                ("pool.parks", stats.parks as f64),
                (
                    "pool.steal_success_frac",
                    ratio(stats.steal_ops, stats.steal_probes),
                ),
                ("pool.splits", stats.splits as f64),
                ("pool.imbalance", median(&imbalance)),
                ("occ.native.running_frac", occ[0]),
                ("occ.native.idle_frac", occ[1]),
            ],
            BackendKind::Eden => vec![
                ("eden.msgs", stats.msgs_sent as f64),
                ("eden.words", stats.words_sent as f64),
                (
                    "eden.send_block_frac",
                    ratio(stats.send_blocks, stats.msgs_sent),
                ),
                (
                    "eden.recv_block_frac",
                    ratio(stats.recv_blocks, stats.msgs_sent),
                ),
                ("occ.eden.blocked_frac", occ[2]),
            ],
        };
        seg.layer.push(("trace.events", events as f64));
        seg.layer.push(("trace.dropped", dropped as f64));
        seg
    }

    /// The sequential baseline and what it says about overhead:
    /// `native.overhead_frac` = 1 − `kernel.seq_s` ÷ (`W` · pass wall) —
    /// the share of the `W` workers' time that was not kernel. Where the
    /// `W` virtual CPUs deliver less than `W` cores, the shortfall reads
    /// as overhead too (see the README).
    fn finish(self: Box<Self>, spans: &mut Spans) -> (u64, u64, Layer) {
        if !self.measure_baseline {
            return (0, 0, Vec::new());
        }
        let w = self.workers as f64;
        let (mut attempted, mut failed) = (0, 0);
        let (mut seq_s, mut pass_s) = (0.0, 0.0);
        let mut apsp = None;
        for item in &self.items {
            let mut took_s = Vec::new();
            for _ in 0..3 {
                let (value, took) = spans.scope("kernel.seq", &item.label, |_| (item.seq)());
                attempted += 1;
                failed += u64::from(value != item.expected);
                took_s.push(took.as_secs_f64());
            }
            let item_seq = item.count as f64 * median(&took_s);
            let item_wall = median(&item.plain_wall_s);
            seq_s += item_seq;
            pass_s += item_wall;
            if item.is_apsp {
                apsp = Some(1.0 - item_seq / (w * item_wall));
            }
        }
        let mut layer = vec![
            ("kernel.seq_s", seq_s),
            ("native.overhead_frac", 1.0 - seq_s / (w * pass_s)),
        ];
        if let Some(frac) = apsp {
            layer.push(("native.apsp_overhead_frac", frac));
        }
        (attempted, failed, layer)
    }
}
