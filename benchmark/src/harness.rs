//! One rule for all seven workloads: a run is set-up, one untimed
//! warm-up segment, then segments until the time budget is spent. A
//! *segment* (a pass over a fixed list of runs, or a fixed number of
//! server jobs) is a fixed list of *jobs*; each job has a latency
//! measured from the time it was due and is checked against its oracle.
//! Every timing reported is the median over segments.
//!
//! The plain run (`--trace 0`) measures the end-to-end metrics with all
//! tracing off. The traced run (`--trace 1`) spends part of its budget
//! on the layer probes, then alternates plain and traced segments — the
//! traced ones with harness spans recorded and the program's own trace
//! switches on — and reports the per-layer metrics; the difference
//! between the two kinds of segment is the tracing overhead.

use crate::metrics::{self, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{median, p50_p99, Summary};
use crate::{host, probes};
use std::time::{Duration, Instant};

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// `--trace 1`: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Two segments, no warm-up, one set-up, short probes.
    pub smoke: bool,
    /// `W`: native workers / PEs / server workers.
    pub workers: usize,
}

/// A named per-layer value produced by a segment, a probe or teardown.
pub type Layer = Vec<(&'static str, f64)>;

/// What one segment did.
#[derive(Debug, Default)]
pub struct Segment {
    /// Host seconds the segment's jobs took: the sum of the calls of a
    /// sequential pass, or first due time to last completion of a server
    /// segment. Harness work between jobs (verification, trace analysis)
    /// is outside it.
    pub wall_s: f64,
    /// Median and 99th percentile (nearest rank) of the latencies of
    /// the jobs that completed, each from its due time. Only these two
    /// are kept: the harness must not hold memory that grows with the
    /// run, or `peak_rss_mb` would measure the harness.
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub attempted: u64,
    /// Wrong value, `Err`, cancelled or panicked.
    pub failed: u64,
    pub layer: Layer,
}

impl Segment {
    pub fn set_latencies(&mut self, lat_ms: &[f64]) {
        (self.p50_ms, self.p99_ms) = p50_p99(lat_ms);
    }
}

pub trait Workload {
    /// One segment; `traced` switches the program's own tracing on.
    fn segment(&mut self, traced: bool, spans: &mut Spans) -> Segment;

    /// Teardown and whole-run checks; extra `(attempted, failed)` and
    /// per-layer values that only exist once the run is over.
    fn finish(self: Box<Self>, spans: &mut Spans) -> (u64, u64, Layer);

    /// Tracing overhead is the ratio of traced to plain `wall_s`, except
    /// where the segment's wall time is fixed by an arrival schedule and
    /// the median latency is compared instead.
    fn overhead_on_latency(&self) -> bool {
        false
    }
}

/// Everything before the first segment: build inputs, compute oracles,
/// draw schedules, start pools and servers.
pub type Setup = fn(&Opts, &mut Spans) -> Box<dyn Workload>;

pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub segments: usize,
    /// The end-to-end metrics of a plain run, or the per-layer metrics
    /// of a traced one, in the order of the metric tables.
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    pub spans: Spans,
}

/// Set-up is repeated at least `MIN_SETUPS` times, and cheap set-ups
/// (a server start takes under a millisecond) until `SETUP_BUDGET_S` is
/// spent or `MAX_SETUPS` are done, so that their median is steady too.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 0.3;
const MIN_SEGMENTS: usize = 2;
/// Share of a traced run's budget that goes to the layer probes.
const PROBE_SHARE: f64 = 0.3;

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, seg: &Segment) {
        self.attempted += seg.attempted;
        self.failed += seg.failed;
    }
}

pub fn run(workload: &'static str, opts: &Opts, setup: Setup) -> RunResult {
    if opts.trace {
        run_traced(workload, opts, setup)
    } else {
        run_plain(workload, opts, setup)
    }
}

fn run_plain(workload: &'static str, opts: &Opts, setup: Setup) -> RunResult {
    let mut spans = Spans::new();
    let mut tally = Tally::default();

    // Set up several times and report the median, so that one slow page
    // fault or thread spawn does not decide `setup_s`.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut instance = loop {
        let t0 = Instant::now();
        let instance = setup(opts, &mut spans);
        setup_s.push(t0.elapsed().as_secs_f64());
        let enough = setup_s.len() >= MAX_SETUPS
            || setup_s.len() >= MIN_SETUPS && setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S;
        if enough || opts.smoke {
            break instance;
        }
        // The instance is torn down here, outside the timed part.
    };

    // Let caches, memo tables and lazily spawned threads settle.
    if !opts.smoke {
        tally.add(&instance.segment(false, &mut spans));
    }

    let mut segs: Vec<Segment> = Vec::new();
    let t0 = Instant::now();
    while segs.len() < MIN_SEGMENTS || t0.elapsed().as_secs_f64() < opts.seconds {
        segs.push(instance.segment(false, &mut spans));
    }
    for seg in &segs {
        tally.add(seg);
    }
    let (attempted, failed, _) = instance.finish(&mut spans);
    tally.attempted += attempted;
    tally.failed += failed;

    let per_seg = |f: &dyn Fn(&Segment) -> f64| -> Summary {
        Summary::of(&segs.iter().map(f).collect::<Vec<_>>())
    };
    let values = [
        (metrics::WALL_S, per_seg(&|s| s.wall_s)),
        (
            metrics::JOBS_PER_S,
            per_seg(&|s| (s.attempted - s.failed) as f64 / s.wall_s),
        ),
        (metrics::JOB_P50_MS, per_seg(&|s| s.p50_ms)),
        (metrics::JOB_P99_MS, per_seg(&|s| s.p99_ms)),
        (metrics::PEAK_RSS_MB, Summary::single(host::peak_rss_mb())),
        (metrics::SETUP_S, Summary::of(&setup_s)),
    ];
    let metrics = metrics::END_TO_END
        .iter()
        .map(|def| {
            let (_, summary) = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .expect("every end-to-end metric is measured");
            (def.name, def.unit, *summary)
        })
        .collect();
    RunResult {
        workload,
        attempted: tally.attempted,
        failed: tally.failed,
        segments: segs.len(),
        metrics,
        spans,
    }
}

fn run_traced(workload: &'static str, opts: &Opts, setup: Setup) -> RunResult {
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let t0 = Instant::now();

    let probe_budget = Duration::from_secs_f64(opts.seconds * PROBE_SHARE);
    let mut layer: Vec<(&'static str, Summary)> = probes::run(workload, probe_budget, opts.workers);

    spans.record(true);
    let mut instance = setup(opts, &mut spans);
    spans.record(false);
    if !opts.smoke {
        tally.add(&instance.segment(false, &mut spans));
        tally.add(&instance.segment(true, &mut spans));
    }

    // Plain and traced segments alternate, so drift on a shared host
    // lands on both sides of the overhead ratio.
    let mut plain: Vec<Segment> = Vec::new();
    let mut traced: Vec<Segment> = Vec::new();
    while traced.len() < MIN_SEGMENTS || t0.elapsed().as_secs_f64() < opts.seconds {
        plain.push(instance.segment(false, &mut spans));
        spans.record(true);
        spans.next_pass();
        traced.push(instance.segment(true, &mut spans));
        spans.record(false);
    }
    for seg in plain.iter().chain(&traced) {
        tally.add(seg);
    }
    let basis = |segs: &[Segment]| -> f64 {
        let per_seg: Vec<f64> = if instance.overhead_on_latency() {
            segs.iter().map(|s| s.p50_ms).collect()
        } else {
            segs.iter().map(|s| s.wall_s).collect()
        };
        median(&per_seg)
    };
    layer.push((
        "trace.overhead_frac",
        Summary::single(basis(&traced) / basis(&plain) - 1.0),
    ));

    // A per-layer value of the traced segments is summarised over them
    // (exact counts repeat, so their median is the count).
    let mut names: Vec<&'static str> = Vec::new();
    for (name, _) in traced.iter().flat_map(|s| &s.layer) {
        if !names.contains(name) {
            names.push(name);
        }
    }
    for name in names {
        let values: Vec<f64> = traced
            .iter()
            .flat_map(|s| &s.layer)
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect();
        layer.push((name, Summary::of(&values)));
    }

    spans.record(true);
    let (attempted, failed, at_end) = instance.finish(&mut spans);
    spans.record(false);
    tally.attempted += attempted;
    tally.failed += failed;
    layer.extend(at_end.into_iter().map(|(n, v)| (n, Summary::single(v))));

    for (name, _) in &layer {
        assert!(
            PER_LAYER.iter().any(|def| def.name == *name),
            "{workload} reported unknown per-layer metric {name}"
        );
    }
    // A layer this workload does not exercise reads 0.
    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let summary = layer
                .iter()
                .find(|(name, _)| *name == def.name)
                .map_or(Summary::single(0.0), |(_, s)| *s);
            (def.name, def.unit, summary)
        })
        .collect();
    RunResult {
        workload,
        attempted: tally.attempted,
        failed: tally.failed,
        segments: traced.len(),
        metrics,
        spans,
    }
}
