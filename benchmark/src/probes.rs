//! Layer probes: each times one layer's public API in isolation, from
//! outside. A probe runs in the traced run of the workloads its metric
//! is predicted to move (`metrics::PER_LAYER[..].on`); it repeats
//! `REPEATS` times for an equal slice of the probe budget and the median
//! is reported.

use crate::metrics::PER_LAYER;
use crate::server::{self, Classes};
use crate::spans::Spans;
use crate::stats::Summary;
use rph_deque::chase_lev::{self, BatchSteal, Steal};
use rph_heap::gc::Collector;
use rph_heap::{Cell, Heap, NodeRef, RegionId, Value};
use rph_native::{
    bounded, exchange, master_worker, par_map, ring, BackendKind, ExchangeJob, Job, NativeConfig,
    Packet, Pool, RingJob,
};
use rph_server::JobClass;
use rph_sim::{CoreSet, EventQueue};
use rph_workloads::{kernels, registry, Apsp, NQueens, Scale};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const REPEATS: usize = 5;

/// A probe gets its time slice and the worker count and returns one
/// reading of its metric.
type Probe = fn(Duration, usize) -> f64;

const PROBES: &[(&str, Probe)] = &[
    ("deque.push_pop_ns", deque_push_pop),
    ("deque.steal_ns", deque_steal),
    ("deque.steal_batch_ns_per_item", deque_steal_batch),
    ("deque.contended_retry_frac", deque_contended),
    ("pool.spawn_us", pool_spawn),
    ("pool.dispatch_us", pool_dispatch),
    ("pool.task_ns", pool_task),
    ("channel.pingpong_ns_cap1", |t, _| channel_pingpong(t, 1)),
    ("channel.pingpong_ns_cap8", |t, _| channel_pingpong(t, 8)),
    ("channel.stream_ns_per_packet_cap8", |t, _| {
        channel_stream(t, 8)
    }),
    ("channel.stream_ns_per_packet_cap64", |t, _| {
        channel_stream(t, 64)
    }),
    ("skel.par_map_ns_per_task", skel_par_map),
    ("skel.master_worker_ns_per_task", skel_master_worker),
    ("skel.ring_us_per_wave", skel_ring),
    ("skel.exchange_us_per_step", skel_exchange),
    ("kernel.matmul_gflops", kernel_matmul),
    ("kernel.fw_mcells_per_s", kernel_floyd_warshall),
    ("kernel.sieve_mnum_per_s", kernel_sieve),
    ("kernel.nqueens_msol_per_s", kernel_nqueens),
    ("kernel.episim_ns_per_agent_round", kernel_episim),
    ("server.zero_work_job_us", server_zero_work),
    ("server.fair_share_err", server_fair_share),
    ("server.p99_ms_at_2k", server_p99_at_2k),
    ("sim.eventq_ns_per_op_d64", |t, _| sim_eventq(t, 64)),
    ("sim.eventq_ns_per_op_d4096", |t, _| sim_eventq(t, 4096)),
    ("sim.earliest_core_ns_8", |t, _| sim_earliest_core(t, 8)),
    ("sim.earliest_core_ns_256", |t, _| sim_earliest_core(t, 256)),
    ("heap.alloc_ns", heap_alloc),
    ("heap.major_gc_ns_per_live_word", heap_major_gc),
    ("heap.minor_gc_ns_per_nursery_word", heap_minor_gc),
    ("heap.remset_records", |_, _| {
        nursery_heap().0.stats().remset_records as f64
    }),
    ("machine.model_ns_per_host_us", machine_model_rate),
];

/// Run the probes of `workload` within `budget` in total.
pub fn run(workload: &str, budget: Duration, workers: usize) -> Vec<(&'static str, Summary)> {
    let mine: Vec<&(&'static str, Probe)> = PROBES
        .iter()
        .filter(|(name, _)| {
            let def = PER_LAYER
                .iter()
                .find(|def| def.name == *name)
                .expect("every probe is a per-layer metric");
            def.on.contains(&workload)
        })
        .collect();
    let slice = budget / (mine.len().max(1) * REPEATS) as u32;
    mine.into_iter()
        .map(|(name, probe)| {
            let readings: Vec<f64> = (0..REPEATS).map(|_| probe(slice, workers)).collect();
            (*name, Summary::of(&readings))
        })
        .collect()
}

/// Accumulates timed work until a wall-clock slice is spent; untimed
/// preparation between the timed parts does not count.
struct Meter {
    started: Instant,
    slice: Duration,
    busy: Duration,
    ops: u64,
}

impl Meter {
    fn new(slice: Duration) -> Meter {
        Meter {
            started: Instant::now(),
            slice,
            busy: Duration::ZERO,
            ops: 0,
        }
    }

    /// Time `f`, which performs `ops` operations.
    fn time<R>(&mut self, ops: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.busy += t0.elapsed();
        self.ops += ops;
        r
    }

    /// At least one timed part has run and the slice is spent.
    fn done(&self) -> bool {
        self.ops > 0 && self.started.elapsed() >= self.slice
    }

    fn ns_per_op(&self) -> f64 {
        self.busy.as_secs_f64() * 1e9 / self.ops as f64
    }

    fn us_per_op(&self) -> f64 {
        self.ns_per_op() / 1e3
    }

    /// Millions of operations per second.
    fn mops_per_s(&self) -> f64 {
        self.ops as f64 / self.busy.as_secs_f64() / 1e6
    }
}

// ----------------------------------------------------------------- deque

const DEQUE_BATCH: u64 = 1024;

fn deque_push_pop(slice: Duration, _: usize) -> f64 {
    let (worker, _stealer) = chase_lev::new::<u64>(DEQUE_BATCH as usize);
    let mut m = Meter::new(slice);
    while !m.done() {
        m.time(DEQUE_BATCH, || {
            for i in 0..DEQUE_BATCH {
                worker.push(i);
                black_box(worker.pop());
            }
        });
    }
    m.ns_per_op()
}

fn deque_steal(slice: Duration, _: usize) -> f64 {
    let (worker, stealer) = chase_lev::new::<u64>(DEQUE_BATCH as usize);
    let mut m = Meter::new(slice);
    while !m.done() {
        worker.push_iter(0..DEQUE_BATCH);
        m.time(DEQUE_BATCH, || {
            for _ in 0..DEQUE_BATCH {
                black_box(stealer.steal());
            }
        });
    }
    m.ns_per_op()
}

fn deque_steal_batch(slice: Duration, _: usize) -> f64 {
    let (victim, stealer) = chase_lev::new::<u64>(DEQUE_BATCH as usize);
    let (thief, _) = chase_lev::new::<u64>(DEQUE_BATCH as usize);
    let mut m = Meter::new(slice);
    while !m.done() {
        victim.push_iter(0..DEQUE_BATCH);
        m.time(DEQUE_BATCH, || {
            while let BatchSteal::Success { .. } = stealer.steal_batch_and_pop(&thief) {}
        });
        while thief.pop().is_some() {}
    }
    m.ns_per_op()
}

/// One owner pushing and popping against one thief: lost races over
/// steal attempts.
fn deque_contended(slice: Duration, _: usize) -> f64 {
    let (worker, stealer) = chase_lev::new::<u64>(DEQUE_BATCH as usize);
    let stop = &AtomicBool::new(false);
    let (mut attempts, mut retries) = (0u64, 0u64);
    std::thread::scope(|s| {
        // The owner end is not `Sync`: it moves to its thread.
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for i in 0..8 {
                    worker.push(i);
                }
                for _ in 0..8 {
                    black_box(worker.pop());
                }
            }
        });
        let t0 = Instant::now();
        while t0.elapsed() < slice {
            for _ in 0..DEQUE_BATCH {
                attempts += 1;
                retries += u64::from(matches!(stealer.steal(), Steal::Retry));
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    retries as f64 / attempts as f64
}

// ------------------------------------------------------------------ pool

/// `len` tasks that do nothing.
struct Noop(usize);

impl Job for Noop {
    type Out = i64;
    fn len(&self) -> usize {
        self.0
    }
    fn run(&self, idx: usize) -> i64 {
        idx as i64
    }
}

fn pool_spawn(slice: Duration, workers: usize) -> f64 {
    let cfg = NativeConfig::steal(workers);
    let mut m = Meter::new(slice);
    while !m.done() {
        m.time(1, || drop(Pool::new(&cfg)));
    }
    m.us_per_op()
}

/// Round trip of a job with one no-op task per worker on a held pool.
fn pool_dispatch(slice: Duration, workers: usize) -> f64 {
    let mut pool = Pool::new(&NativeConfig::steal(workers));
    let job = Noop(workers);
    let mut m = Meter::new(slice);
    while !m.done() {
        m.time(1, || pool.try_execute(&job).expect("no-op job"));
    }
    m.us_per_op()
}

fn pool_task(slice: Duration, workers: usize) -> f64 {
    const TASKS: usize = 1_000_000;
    let mut pool = Pool::new(&NativeConfig::steal(workers));
    let job = Noop(TASKS);
    let mut m = Meter::new(slice);
    while !m.done() {
        m.time(TASKS as u64, || pool.try_execute(&job).expect("no-op job"));
    }
    m.ns_per_op()
}

// --------------------------------------------------------------- channel

/// Round trips of a `Packet<u64>` between two threads over a pair of
/// channels of capacity `cap`.
fn channel_pingpong(slice: Duration, cap: usize) -> f64 {
    let (to_echo, echo_in) = bounded::<Packet<u64>>(cap);
    let (to_main, main_in) = bounded::<Packet<u64>>(cap);
    let mut m = Meter::new(slice);
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Some(p) = echo_in.recv() {
                if to_main.send(p).is_err() {
                    break;
                }
            }
        });
        while !m.done() {
            m.time(256, || {
                for i in 0..256 {
                    to_echo
                        .send(Packet::new(i, u64::from(i)))
                        .expect("echo alive");
                    black_box(main_in.recv());
                }
            });
        }
        drop(to_echo);
    });
    m.ns_per_op()
}

/// One producer thread streaming packets to this thread.
fn channel_stream(slice: Duration, cap: usize) -> f64 {
    const BURST: u32 = 4096;
    let mut m = Meter::new(slice);
    while !m.done() {
        let (tx, rx) = bounded::<Packet<u64>>(cap);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..BURST {
                    if tx.send(Packet::new(i, u64::from(i))).is_err() {
                        break;
                    }
                }
            });
            m.time(u64::from(BURST), || while black_box(rx.recv()).is_some() {});
        });
    }
    m.ns_per_op()
}

// ------------------------------------------------------------- skeletons

fn eden_cfg(workers: usize) -> NativeConfig {
    NativeConfig::steal(workers).with_backend(BackendKind::Eden)
}

fn skel_par_map(slice: Duration, workers: usize) -> f64 {
    const TASKS: usize = 10_000;
    let cfg = eden_cfg(workers);
    let mut m = Meter::new(slice);
    while !m.done() {
        m.time(TASKS as u64, || par_map(&Noop(TASKS), &cfg));
    }
    m.ns_per_op()
}

fn skel_master_worker(slice: Duration, workers: usize) -> f64 {
    const TASKS: usize = 10_000;
    let cfg = eden_cfg(workers);
    let mut m = Meter::new(slice);
    while !m.done() {
        m.time(TASKS as u64, || master_worker(&Noop(TASKS), &cfg, 2));
    }
    m.ns_per_op()
}

/// `WAVES` items of one word: every wave forwards a pivot round the ring.
struct NoopRing;
const WAVES: usize = 64;

impl RingJob for NoopRing {
    type Item = Vec<f64>;
    fn len(&self) -> usize {
        WAVES
    }
    fn init(&self, idx: usize) -> Vec<f64> {
        vec![idx as f64]
    }
    fn step(&self, item: &Vec<f64>, _idx: usize, _pivot: &Vec<f64>, _k: usize) -> Vec<f64> {
        item.clone()
    }
}

fn skel_ring(slice: Duration, workers: usize) -> f64 {
    let cfg = eden_cfg(workers);
    let mut m = Meter::new(slice);
    while !m.done() {
        m.time(WAVES as u64, || ring(&NoopRing, &cfg));
    }
    m.us_per_op()
}

/// `STEPS` supersteps that exchange empty batches.
struct NoopExchange;
const STEPS: usize = 64;

impl ExchangeJob for NoopExchange {
    type State = ();
    type Batch = Vec<u64>;
    type Out = u64;
    fn steps(&self) -> usize {
        STEPS
    }
    fn init(&self, _part: usize, _parts: usize) {}
    fn exchange(
        &self,
        _part: usize,
        parts: usize,
        _step: usize,
        _state: &mut (),
        _inbox: Vec<Vec<u64>>,
    ) -> Vec<Vec<u64>> {
        vec![Vec::new(); parts]
    }
    fn finish(&self, part: usize, _parts: usize, _state: (), _inbox: Vec<Vec<u64>>) -> u64 {
        part as u64
    }
}

fn skel_exchange(slice: Duration, workers: usize) -> f64 {
    let cfg = eden_cfg(workers);
    let mut m = Meter::new(slice);
    while !m.done() {
        m.time(STEPS as u64, || exchange(&NoopExchange, &cfg));
    }
    m.us_per_op()
}

// --------------------------------------------------------------- kernels

const KERNEL_N: usize = 256;

/// Small-integer inputs, as the workloads use: all f64 arithmetic exact.
fn square_matrix(seed: usize) -> Vec<f64> {
    (0..KERNEL_N * KERNEL_N)
        .map(|i| ((i * 7 + seed) % 10) as f64)
        .collect()
}

/// The dispatched mat-mul tier at n=256, in GF/s (2n³ operations).
fn kernel_matmul(slice: Duration, _: usize) -> f64 {
    let (a, b) = (square_matrix(1), square_matrix(2));
    let mut c = vec![0.0; KERNEL_N * KERNEL_N];
    let mut m = Meter::new(slice);
    while !m.done() {
        m.time(2 * (KERNEL_N as u64).pow(3), || {
            kernels::matmul_tiled_into(&mut c, &a, &b, KERNEL_N);
            black_box(&c);
        });
    }
    m.mops_per_s() / 1e3
}

/// Blocked Floyd-Warshall at n=256, in millions of cell updates (n³ per
/// run) per second.
fn kernel_floyd_warshall(slice: Duration, _: usize) -> f64 {
    let input = square_matrix(3);
    let mut m = Meter::new(slice);
    while !m.done() {
        let mut dist = input.clone();
        m.time((KERNEL_N as u64).pow(3), || {
            kernels::floyd_warshall_blocked(&mut dist, KERNEL_N);
            black_box(&dist);
        });
    }
    m.mops_per_s()
}

fn kernel_sieve(slice: Duration, _: usize) -> f64 {
    const HI: i64 = 200_000;
    let mut m = Meter::new(slice);
    while !m.done() {
        m.time(HI as u64, || black_box(kernels::sum_phi_range_sieve(1, HI)));
    }
    m.mops_per_s()
}

/// The sequential n-queens count at n=10, in millions of solutions
/// found per second (the node count is not public).
fn kernel_nqueens(slice: Duration, _: usize) -> f64 {
    let w = NQueens::new(10);
    let mut m = Meter::new(slice);
    while !m.done() {
        let solutions = m.time(0, || black_box(w.expected()));
        m.ops += solutions as u64;
    }
    m.mops_per_s()
}

fn kernel_episim(slice: Duration, _: usize) -> f64 {
    let w = registry::episim(Scale::Quick);
    // Scale::Quick: 4 000 agents for 8 rounds.
    const AGENT_ROUNDS: u64 = 4_000 * 8;
    let mut m = Meter::new(slice);
    while !m.done() {
        m.time(AGENT_ROUNDS, || black_box(w.run_seq()));
    }
    m.ns_per_op()
}

// ---------------------------------------------------------------- server

/// One client, one job outstanding, a job that does nothing: what a job
/// costs before it does any work.
fn server_zero_work(slice: Duration, workers: usize) -> f64 {
    let srv = server::start_server(workers, 0, false);
    let class = JobClass::Spin { units: 1, iters: 0 };
    let mut m = Meter::new(slice);
    while !m.done() {
        m.time(64, || {
            for _ in 0..64 {
                black_box(srv.submit(0, class).expect("accepted").wait());
            }
        });
    }
    srv.shutdown();
    m.us_per_op()
}

/// Both tenants backlogged with one-unit jobs in the ratio of their
/// weights, so both drain together: tenant 0's share of the first half
/// of the completions against its weight share of 0.9.
fn server_fair_share(_slice: Duration, workers: usize) -> f64 {
    const PER_WEIGHT: usize = 400;
    let srv = server::start_server(workers, 0, false);
    let class = JobClass::Spin {
        units: 1,
        iters: 2_000,
    };
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for (tenant, weight) in [(0usize, 9usize), (1, 1)] {
        for _ in 0..weight * PER_WEIGHT {
            handles.push((
                tenant,
                t0.elapsed(),
                srv.submit(tenant, class).expect("accepted"),
            ));
        }
    }
    let mut done: Vec<(Duration, usize)> = handles
        .iter()
        .map(|(tenant, at, h)| (*at + h.wait().latency, *tenant))
        .collect();
    srv.shutdown();
    done.sort();
    let half = &done[..done.len() / 2];
    let share = half.iter().filter(|(_, tenant)| *tenant == 0).count() as f64 / half.len() as f64;
    (share - 0.9).abs()
}

/// A short open-loop side run at 2 000 jobs/s: the p99 latency from the
/// due time at a fifth of `server_open`'s rate.
fn server_p99_at_2k(slice: Duration, workers: usize) -> f64 {
    const RATE: f64 = 2_000.0;
    let classes = Classes::new();
    let jobs = ((slice.as_secs_f64() * RATE) as usize).max(200);
    let schedule = server::draw_schedule(&classes, 2_000, Some(RATE), jobs);
    let srv = server::start_server(workers, 0, false);
    let seg = server::drive(&srv, &classes, &schedule, None, false, &mut Spans::new());
    srv.shutdown();
    seg.p99_ms
}

// ------------------------------------------------------------------- sim

/// Pop the earliest event and push one later, at a steady depth.
fn sim_eventq(slice: Duration, depth: u64) -> f64 {
    let mut q = EventQueue::new();
    for t in 0..depth {
        q.push(t * 7 % depth, t);
    }
    let mut m = Meter::new(slice);
    while !m.done() {
        m.time(1024, || {
            for _ in 0..1024 {
                let (t, payload) = q.pop().expect("steady depth");
                q.push(t + 1 + payload % depth, payload);
            }
        });
    }
    m.ns_per_op()
}

/// Find the earliest core and occupy it, as the Eden simulator's
/// dispatch does.
fn sim_earliest_core(slice: Duration, cores: usize) -> f64 {
    let mut set = CoreSet::new(cores);
    let mut m = Meter::new(slice);
    while !m.done() {
        m.time(1024, || {
            for i in 0..1024u64 {
                let core = set.earliest_core();
                set.occupy(core, set.clock(core) + 1 + i % 7);
            }
        });
    }
    m.ns_per_op()
}

// ------------------------------------------------------------------ heap

const HEAP_CELLS: usize = 50_000;

/// A cons list of `cells` integers (all live from the returned root)
/// with one garbage integer beside every element.
fn list_heap(heap: &mut Heap, cells: usize) -> NodeRef {
    let mut tail = heap.alloc_value(Value::Nil);
    for i in 0..cells {
        let head = heap.int(i as i64);
        heap.int(-1);
        tail = heap.alloc_value(Value::Cons(head, tail));
    }
    tail
}

fn heap_alloc(slice: Duration, _: usize) -> f64 {
    let mut m = Meter::new(slice);
    while !m.done() {
        let mut heap = Heap::new();
        m.time(3 * HEAP_CELLS as u64, || list_heap(&mut heap, HEAP_CELLS));
    }
    m.ns_per_op()
}

fn heap_major_gc(slice: Duration, _: usize) -> f64 {
    let mut m = Meter::new(slice);
    while !m.done() {
        let mut heap = Heap::new();
        let root = list_heap(&mut heap, HEAP_CELLS);
        let mut gc = Collector::new();
        let result = m.time(0, || gc.collect(&mut heap, [root]));
        m.ops += result.live_words;
    }
    m.ns_per_op()
}

const REGIONS: usize = 8;

/// Eight nurseries, each holding a list, garbage, and one indirection to
/// the next region's list (a cross-region reference for its remembered
/// set). Returns the heap and the per-region roots.
fn nursery_heap() -> (Heap, Vec<NodeRef>) {
    let mut heap = Heap::new();
    heap.enable_nurseries(REGIONS);
    let mut roots: Vec<NodeRef> = Vec::new();
    for region in 0..REGIONS {
        heap.set_alloc_region(Some(region as RegionId));
        let list = list_heap(&mut heap, HEAP_CELLS / REGIONS);
        if let Some(&previous) = roots.last() {
            heap.alloc(Cell::Ind(previous));
        }
        roots.push(list);
    }
    (heap, roots)
}

fn heap_minor_gc(slice: Duration, _: usize) -> f64 {
    let mut m = Meter::new(slice);
    while !m.done() {
        let (mut heap, roots) = nursery_heap();
        let mut gc = Collector::new();
        for region in 0..REGIONS as RegionId {
            let words = heap.nursery_words(region);
            m.time(words, || {
                gc.collect_minor(&mut heap, region, roots.iter().copied())
            });
        }
    }
    m.ns_per_op()
}

// --------------------------------------------------------------- machine

/// Modelled nanoseconds per host microsecond of the sequential
/// reference run of APSP n=48 (an n² thunk graph forced by the abstract
/// machine, no scheduler and no GC).
fn machine_model_rate(slice: Duration, _: usize) -> f64 {
    let w = Apsp::new(48);
    let mut m = Meter::new(slice);
    while !m.done() {
        let run = m.time(0, || w.run_seq());
        m.ops += run.elapsed;
    }
    m.ops as f64 / (m.busy.as_secs_f64() * 1e6)
}
