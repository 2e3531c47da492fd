//! `server_open`, `server_sat`: the job server over the steal pool, two
//! tenants weighted 9:1. The load generator is one thread of this
//! process. Every `Done` job is checked against its class's cached
//! `JobClass::expected()`; a cancelled or panicked job, or one refused
//! by a closed server, counts as failed; a job refused by a full queue
//! is offered again until it is taken, its wait charged to its latency;
//! `accepted == done + cancelled + panicked` is checked at shutdown.
//!
//! * Open loop (`server_open`): Poisson arrivals at a fixed rate,
//!   submitted on an absolute schedule whether or not the server keeps
//!   up. The generator sleeps until shortly before a job is due and then
//!   spins to the due time. Latency is timed **from the due time**, so a
//!   stall is charged to every job it delays, and how late the generator
//!   itself ran is reported (`server.gen_lag_p99_ms`).
//! * Closed loop (`server_sat`): one client keeps a window of jobs
//!   outstanding and submits the next as soon as the oldest completes.

use crate::harness::{Layer, Opts, Segment, Workload};
use crate::spans::Spans;
use crate::stats::{p50_p99, percentile};
use rph_native::NativeConfig;
use rph_server::{
    JobClass, JobHandle, JobStatus, Server, ServerConfig, StatsSnapshot, SubmitError,
};
use rph_sim::DetRng;
use rph_trace::{State, TraceStats};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

pub const OPEN_RATE_PER_S: f64 = 10_000.0;
const OPEN_SEGMENT_JOBS: usize = 10_000;
const SAT_SEGMENT_JOBS: usize = 25_000;
const SAT_WINDOW: usize = 64;
const TENANT_WEIGHTS: [u32; 2] = [9, 1];
const QUEUE_CAP_UNITS: usize = 16_384;
const BATCH_MAX_UNITS: usize = 512;
/// The generator sleeps while a job is further away than this and spins
/// the rest of the way: sleeping overshoots by tens of microseconds.
const SPIN_WITHIN: Duration = Duration::from_micros(200);

/// The job classes the mix draws from (as `bench_server_json`'s
/// `class_mix`: mostly tiny jobs with a medium tail), each with its
/// oracle value, computed once.
pub struct Classes(Vec<(JobClass, i64)>);

impl Classes {
    pub fn new() -> Classes {
        let spins = (1..=3).map(|units| JobClass::Spin {
            units,
            iters: 2_000,
        });
        let small = (60..120).map(|n| JobClass::SumEuler { n, chunk: 10 });
        let medium = std::iter::once(JobClass::SumEuler { n: 400, chunk: 25 });
        let classes = spins
            .chain(small)
            .chain(medium)
            .map(|c| {
                (
                    c,
                    c.expected().expect("every class in the mix has an oracle"),
                )
            })
            .collect();
        Classes(classes)
    }

    /// 60 % spins of 1-3 units, 30 % small sumEuler, 10 % medium.
    fn draw(&self, rng: &mut DetRng) -> u8 {
        (match rng.gen_range(10) {
            0..=5 => rng.gen_range(3),
            6..=8 => 3 + rng.gen_range(60),
            _ => 63,
        }) as u8
    }
}

/// One job of a segment: when it is due (from the segment's start; zero
/// in a closed loop), whose it is and what it computes.
#[derive(Clone, Copy)]
pub struct Arrival {
    due: Duration,
    tenant: u8,
    class: u8,
}

/// Draw `jobs` arrivals: exponential gaps at `rate` jobs/s (no gaps for
/// `None`), tenants 9:1 like their weights, classes from the mix. The
/// program under test receives only these generated inputs.
pub fn draw_schedule(classes: &Classes, seed: u64, rate: Option<f64>, jobs: usize) -> Vec<Arrival> {
    let mut rng = DetRng::new(seed);
    let mut due = Duration::ZERO;
    (0..jobs)
        .map(|_| {
            if let Some(rate) = rate {
                let u = rng.gen_f64().max(1e-12);
                due += Duration::from_secs_f64(-u.ln() / rate);
            }
            Arrival {
                due,
                tenant: u8::from(rng.gen_range(10) == 9),
                class: classes.draw(&mut rng),
            }
        })
        .collect()
}

pub fn start_server(workers: usize, seed: u64, traced: bool) -> Server {
    let mut native = NativeConfig::steal(workers).with_seed(seed);
    if traced {
        native = native.with_trace();
    }
    Server::start(
        ServerConfig::new(native)
            .with_tenants(&TENANT_WEIGHTS)
            .with_queue_cap(QUEUE_CAP_UNITS)
            .with_batch_max(BATCH_MAX_UNITS),
    )
}

/// What the generator keeps per job it got accepted.
struct InFlight {
    class: u8,
    /// Due time, from the segment's start.
    due: Duration,
    /// How long after the due time `submit` was called.
    late: Duration,
    handle: JobHandle,
}

/// Everything a segment learns from its jobs' outcomes.
#[derive(Default)]
struct Outcomes {
    seg: Segment,
    lat_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    service_ms: Vec<f64>,
    /// Latest completion, from the segment's start.
    last_done: Duration,
}

impl Outcomes {
    fn resolve(&mut self, classes: &Classes, job: &InFlight) {
        let out = job.handle.wait();
        let ok = out.status == JobStatus::Done && out.value == classes.0[job.class as usize].1;
        if !ok {
            if self.seg.failed == 0 {
                let want = classes.0[job.class as usize].1;
                eprintln!(
                    "job failed: {:?}, value {} (expected {want})",
                    out.status, out.value
                );
            }
            self.seg.failed += 1;
            return;
        }
        let latency = job.late + out.latency;
        self.lat_ms.push(latency.as_secs_f64() * 1e3);
        self.queue_wait_ms.push(out.queue_wait.as_secs_f64() * 1e3);
        self.service_ms.push(out.service.as_secs_f64() * 1e3);
        self.last_done = self.last_done.max(job.due + latency);
    }
}

/// Replay `schedule` against `server` and wait for every job. With
/// `window`, at most that many jobs are outstanding (closed loop) and
/// due times are ignored; without, jobs go out at their due times (open
/// loop). `timed` also times each `submit` call.
pub fn drive(
    server: &Server,
    classes: &Classes,
    schedule: &[Arrival],
    window: Option<usize>,
    timed: bool,
    spans: &mut Spans,
) -> Segment {
    let mut out = Outcomes::default();
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(schedule.len());
    let mut late_ms = Vec::new();
    let mut submit_time = Duration::ZERO;
    let mut wait_time = Duration::ZERO;
    let before = server.stats();
    let t0 = Instant::now();

    for a in schedule {
        match window {
            Some(cap) => {
                if in_flight.len() == cap {
                    let t = Instant::now();
                    let oldest = in_flight.pop_front().expect("window is full");
                    out.resolve(classes, &oldest);
                    wait_time += t.elapsed();
                }
            }
            None => loop {
                match a.due.checked_sub(t0.elapsed()) {
                    None => break,
                    Some(gap) if gap > SPIN_WITHIN => std::thread::sleep(gap - SPIN_WITHIN),
                    Some(_) => std::hint::spin_loop(),
                }
            },
        }
        // In a closed loop a job is due the moment its slot frees up.
        let due = if window.is_some() {
            t0.elapsed()
        } else {
            a.due
        };
        // A full queue (the host stalled the server for as long as the
        // queue cap lasts at this rate) delays the job, it does not lose
        // it: the generator offers it again until it is taken, and the
        // wait is charged to its latency. The server counts each refusal
        // (`server.reject_frac`).
        let (result, called) = loop {
            let called = t0.elapsed();
            match server.submit(usize::from(a.tenant), classes.0[a.class as usize].0) {
                Err(SubmitError::Backpressure { .. }) => std::thread::sleep(SPIN_WITHIN),
                result => break (result, called),
            }
        };
        let late = called - due;
        if timed {
            submit_time += t0.elapsed() - called;
        }
        out.seg.attempted += 1;
        match result {
            Ok(handle) => {
                late_ms.push(late.as_secs_f64() * 1e3);
                in_flight.push_back(InFlight {
                    class: a.class,
                    due,
                    late,
                    handle,
                });
            }
            Err(e) => {
                if out.seg.failed == 0 {
                    eprintln!("server refused a job: {e}");
                }
                out.seg.failed += 1;
            }
        }
    }
    let t = Instant::now();
    for job in &in_flight {
        out.resolve(classes, job);
    }
    wait_time += t.elapsed();
    let after = server.stats();

    if timed {
        spans.aggregate("server.submit", out.seg.attempted, submit_time);
    }
    spans.aggregate("server.wait", out.seg.attempted, wait_time);

    // Zero in a closed loop, whose schedule has no gaps.
    let first_due = schedule.first().map_or(Duration::ZERO, |a| a.due);
    let mut seg = out.seg;
    seg.set_latencies(&out.lat_ms);
    seg.wall_s = (out.last_done.saturating_sub(first_due)).as_secs_f64();
    let (wait_p50, wait_p99) = p50_p99(&out.queue_wait_ms);
    let (service_p50, service_p99) = p50_p99(&out.service_ms);
    seg.layer = vec![
        ("server.queue_wait_p50_ms", wait_p50),
        ("server.queue_wait_p99_ms", wait_p99),
        ("server.service_p50_ms", service_p50),
        ("server.service_p99_ms", service_p99),
        ("server.batch_mean_jobs", batch_mean_jobs(&before, &after)),
        (
            "server.reject_frac",
            (after.rejected - before.rejected) as f64 / seg.attempted as f64,
        ),
    ];
    if timed {
        seg.layer.push((
            "server.submit_ns",
            submit_time.as_secs_f64() * 1e9 / seg.attempted as f64,
        ));
    }
    if window.is_none() {
        seg.layer
            .push(("server.gen_lag_p99_ms", percentile(&late_ms, 99.0)));
    }
    seg
}

fn batch_mean_jobs(before: &StatsSnapshot, after: &StatsSnapshot) -> f64 {
    let batches = after.batches - before.batches;
    if batches == 0 {
        0.0
    } else {
        (after.accepted - before.accepted) as f64 / batches as f64
    }
}

/// Shut `server` down and check that every accepted job resolved; one
/// more attempted operation, failed if the books do not balance.
pub fn shutdown(server: Server, spans: &mut Spans) -> (u64, Option<rph_trace::Tracer>) {
    let (report, _) = spans.scope("server.shutdown", "", |_| server.shutdown());
    let s = report.stats;
    let balanced = s.accepted == s.done + s.cancelled + s.panicked && s.queued_units == 0;
    (u64::from(!balanced), report.trace)
}

pub struct ServerLoad {
    classes: Classes,
    schedule: Vec<Arrival>,
    window: Option<usize>,
    plain: Server,
    /// Started only for a traced run.
    traced: Option<Server>,
}

fn load(opts: &Opts, spans: &mut Spans, rate: Option<f64>, jobs: usize) -> Box<dyn Workload> {
    let (classes, _) = spans.scope("setup.oracle", "job classes", |_| Classes::new());
    let (schedule, _) = spans.scope("setup.inputs", "arrival schedule", |_| {
        draw_schedule(&classes, opts.seed, rate, jobs)
    });
    let mut start = |traced: bool| {
        spans
            .scope("server.start", "", |_| {
                start_server(opts.workers, opts.seed, traced)
            })
            .0
    };
    Box::new(ServerLoad {
        plain: start(false),
        traced: opts.trace.then(|| start(true)),
        classes,
        schedule,
        window: rate.is_none().then_some(SAT_WINDOW),
    })
}

pub fn open(opts: &Opts, spans: &mut Spans) -> Box<dyn Workload> {
    load(opts, spans, Some(OPEN_RATE_PER_S), OPEN_SEGMENT_JOBS)
}

pub fn sat(opts: &Opts, spans: &mut Spans) -> Box<dyn Workload> {
    load(opts, spans, None, SAT_SEGMENT_JOBS)
}

impl Workload for ServerLoad {
    fn segment(&mut self, traced: bool, spans: &mut Spans) -> Segment {
        let server = if traced {
            self.traced.as_ref().expect("traced server was started")
        } else {
            &self.plain
        };
        let name = if self.window.is_some() {
            "server.closed_loop"
        } else {
            "server.open_loop"
        };
        spans
            .scope(name, "", |spans| {
                drive(
                    server,
                    &self.classes,
                    &self.schedule,
                    self.window,
                    traced,
                    spans,
                )
            })
            .0
    }

    fn finish(self: Box<Self>, spans: &mut Spans) -> (u64, u64, Layer) {
        let (mut failed, _) = shutdown(self.plain, spans);
        let mut attempted = 1;
        let mut layer = Vec::new();
        if let Some(server) = self.traced {
            let (unbalanced, trace) = shutdown(server, spans);
            attempted += 1;
            failed += unbalanced;
            if let Some(tracer) = trace {
                let ts = TraceStats::from_tracer(&tracer);
                layer = vec![
                    ("trace.events", tracer.len() as f64),
                    ("occ.native.running_frac", ts.fraction(State::Running)),
                    ("occ.native.idle_frac", ts.fraction(State::Idle)),
                ];
            }
        }
        (attempted, failed, layer)
    }

    fn overhead_on_latency(&self) -> bool {
        self.window.is_none()
    }
}
