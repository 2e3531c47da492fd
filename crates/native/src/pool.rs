//! The persistent worker pool with adaptive-granularity scheduling.
//!
//! [`Pool`] spawns its `workers − 1` helper threads **once** and accepts
//! repeated [`Pool::try_execute`] calls: wave-structured workloads
//! (APSP issues one run per pivot) reuse the same threads and deques
//! instead of paying a full spawn/join barrier per wave. The thread
//! that calls `try_execute` is **participant 0** of its own run, as a
//! GHC capability that sparks carries on evaluating:
//!
//! * It seeds its own deque with the whole run, and only then invites
//!   `min(tasks, workers) − 1` helpers, one `notify_one` per seat — a
//!   helper never meets an unseeded run, and a one-task run is a plain
//!   function call that wakes nobody.
//! * Tasks travel as packed `(lo, hi)` index ranges
//!   ([`rph_deque::Range32`] — two `u32`s in the deque's `u64` slot).
//! * **Lazy range splitting**: the run is seeded as one range, and a
//!   participant executes its range sequentially from the low end, but
//!   before each index checks whether its own deque has gone empty —
//!   the signal that thieves are hungry — and if so pushes the upper
//!   half off as a new stealable range. Granularity thus adapts to
//!   observed demand: a lone caller runs the whole job with O(log n)
//!   scheduling actions, while under contention ranges fission until
//!   every core is fed.
//! * Thieves use [`Stealer::steal_batch_and_pop`], landing up to half
//!   the victim's elements in their own deque per probe.
//! * A helper takes a seat under the control lock, at most once per
//!   run, and **never sleeps inside a run**: after `SPIN_SWEEPS`
//!   fruitless sweeps it checks out and goes back to waiting for the
//!   next invitation. The caller is the only thread that sleeps inside
//!   a run — on the [`EventCount`], when every deque is empty but tasks
//!   are still in flight (see `park.rs` for the lost-wakeup argument),
//!   and at run end, until every seated helper has checked out. It
//!   never waits for an invited helper that has not arrived.

use crate::cancel::CancelToken;
use crate::error::{JobPanicked, RunError};
use crate::executor::{Job, NativeConfig, NativeOutcome, NativeStats, ResultHeap};
use crate::park::EventCount;
use crate::trace::{map_events, NEvent, NEventKind, TraceBuf};
use crate::victim::VictimPicker;
use rph_deque::chase_lev::{self, BatchSteal, Stealer, Worker};
use rph_deque::{CachePadded, Range32};
use rph_trace::{CapId, Tracer, WallClock};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Fruitless full sweeps over every victim before a helper leaves the
/// run (or the caller parks).
const SPIN_SWEEPS: usize = 64;

/// Initial capacity of every participant's deque. A run is seeded as
/// one range and fissions by halving, so a deque rarely holds more
/// than a few dozen ranges; it grows on demand beyond this.
const DEQUE_CAP: usize = 256;

/// Most tasks a single run hands to the workers: range bounds must fit
/// the packed `(lo, hi)` u32 halves of a deque element. Longer jobs
/// are executed as consecutive chunks of at most this many tasks (see
/// [`Pool::try_execute`]) instead of silently truncating indices.
const MAX_RUN_TASKS: usize = u32::MAX as usize;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One run, as published to the helpers. The runner reference is
/// lifetime-erased; see the safety comment in `Pool::execute_inner`.
#[derive(Clone)]
struct RunCmd {
    runner: &'static (dyn Fn(u64) + Sync),
    n: u64,
    /// The run's shared time zero, so every participant's trace events
    /// and the caller's wall measurement agree.
    clock: WallClock,
    /// Cooperative cancel flag for this run, polled before every task.
    /// `None` for uncancellable runs.
    cancel: Option<CancelToken>,
}

/// Per-participant, per-run counters, accumulated without
/// synchronisation and merged under the control lock at run end.
#[derive(Debug, Clone, Default)]
struct WorkerStats {
    ran: u64,
    local: u64,
    stolen: u64,
    probes: u64,
    retries: u64,
    empties: u64,
    steal_ops: u64,
    batch_moved: u64,
    splits: u64,
    parks: u64,
}

/// State guarded by the control mutex: invitations and check-outs.
struct Ctrl {
    run_seq: u64,
    /// The current run; `Some` from the caller's invitation until it
    /// ends the run.
    cmd: Option<RunCmd>,
    /// Invitations of the current run no helper has taken yet.
    seats: usize,
    /// Per-participant stats slots, one cache line each: helpers write
    /// their own slot at check-out while siblings may be writing theirs
    /// (the mutex serialises the *writes*, not the line ping-pong of
    /// unrelated slots packed together).
    worker_stats: Vec<CachePadded<WorkerStats>>,
    /// Per-participant trace events of the finished run (empty when
    /// tracing is off or the helper sat it out).
    worker_events: Vec<Vec<NEvent>>,
    /// Per-participant count of events that overflowed the trace buffer.
    worker_dropped: Vec<u64>,
    shutdown: bool,
}

/// State shared between the pool handle and its helpers.
///
/// `remaining` is the run's shared hot word — decremented by every
/// participant per task, polled by every idle one per probe loop — and
/// `panicked` sits on the same polling paths; each gets its own cache
/// line so a task completion does not invalidate the line an idle
/// participant is spinning on for an unrelated field (the eventcount
/// pads its own internals the same way).
struct Shared {
    ctrl: Mutex<Ctrl>,
    /// Idle helpers wait here for a seat (or shutdown).
    start_cv: Condvar,
    /// Tasks not yet executed in the current run.
    remaining: CachePadded<AtomicU64>,
    /// Set when any participant's task panicked; aborts the run.
    panicked: CachePadded<AtomicBool>,
    /// Helpers seated in the current run that have not checked out.
    /// Changed only under the control lock; read without it by the
    /// caller waiting for check-outs.
    inside: AtomicUsize,
    /// The caller's only sleeping place inside a run: idle with tasks
    /// still in flight, or waiting for check-outs.
    ec: EventCount,
    stealers: Vec<Stealer<Range32>>,
    /// Participants per run: the caller plus the helper threads.
    workers: usize,
    /// Victim-selection seed, fixed at pool construction.
    seed: u64,
    /// Wall-clock event tracing on/off and per-participant buffer size,
    /// fixed at pool construction.
    trace_on: bool,
    trace_cap: usize,
}

impl Shared {
    /// Block until every helper seated in the run has checked out. A
    /// check-out is normally a few instructions away, so yield a while
    /// before parking; each check-out notifies the eventcount.
    fn wait_for_check_outs(&self) {
        let inside = || self.inside.load(Ordering::SeqCst) > 0;
        for _ in 0..SPIN_SWEEPS {
            if !inside() {
                return;
            }
            std::thread::yield_now();
        }
        while inside() {
            self.ec.park_if(inside);
        }
    }
}

/// What one participant keeps from run to run: its deque's owner end,
/// its trace buffer and its victim-order buffer, each allocated once.
struct Participant {
    me: usize,
    local: Worker<Range32>,
    tbuf: TraceBuf,
    picker: VictimPicker,
}

impl Participant {
    fn new(me: usize, local: Worker<Range32>, shared: &Shared) -> Self {
        Participant {
            me,
            local,
            tbuf: TraceBuf::new(shared.trace_on, shared.trace_cap),
            picker: VictimPicker::new(me, shared.workers),
        }
    }

    /// Join `cmd`'s run: adopt its clock and record the start.
    fn enter(&mut self, shared: &Shared, cmd: &RunCmd) {
        self.tbuf.begin_run(cmd.clock);
        // Re-seed per run, so identical configs replay byte-identical
        // probe sequences no matter how many runs preceded them.
        self.picker.begin_run(shared.seed);
        self.tbuf.record(NEventKind::RunStart { tasks: cmd.n });
    }

    /// Work on the run until it is over for this participant, and
    /// return its counters. Consumes `cmd`: the erased runner borrow is
    /// gone when this returns.
    fn work(&mut self, shared: &Shared, cmd: RunCmd) -> WorkerStats {
        let mut stats = WorkerStats::default();
        let run = RunCtx {
            me: self.me,
            local: &self.local,
            shared,
            cmd,
        };
        if catch_unwind(AssertUnwindSafe(|| {
            run.run(&mut stats, &mut self.tbuf, &mut self.picker)
        }))
        .is_err()
        {
            shared.panicked.store(true, Ordering::SeqCst);
            shared.ec.notify_all();
        }
        if shared.panicked.load(Ordering::SeqCst) || run.cancelled() {
            // Abandoned run (panic or cancellation): clear leftovers so
            // they cannot leak into the next run's index space.
            while self.local.pop().is_some() {}
        }
        stats
    }

    /// Publish this participant's counters and trace into its slots.
    fn publish(&mut self, ctrl: &mut Ctrl, stats: WorkerStats) {
        *ctrl.worker_stats[self.me] = stats;
        ctrl.worker_dropped[self.me] = self.tbuf.flush_into(&mut ctrl.worker_events[self.me]);
    }
}

/// A persistent pool of worker threads executing [`Job`]s.
///
/// [`Pool::new`] spawns `workers − 1` helper threads, joined on drop;
/// every [`Pool::try_execute`] in between reuses them, with the calling
/// thread as participant 0. `try_execute` takes `&mut self` — runs are
/// strictly sequential per pool.
pub struct Pool {
    shared: Arc<Shared>,
    /// Participant 0: whichever thread calls `try_execute`.
    lead: Participant,
    helpers: Vec<std::thread::JoinHandle<()>>,
    /// Most tasks per run; `MAX_RUN_TASKS` except in tests, which
    /// shrink it to exercise the chunking path at sane job sizes.
    run_cap: usize,
}

impl Pool {
    /// Spawn `cfg.workers − 1` helper threads; every participant owns a
    /// Chase–Lev deque of `DEQUE_CAP` initial slots (deques grow on
    /// demand).
    pub fn new(cfg: &NativeConfig) -> Pool {
        let workers = cfg.workers.max(1);
        let mut owners: Vec<Worker<Range32>> = Vec::with_capacity(workers);
        let mut stealers: Vec<Stealer<Range32>> = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (w, s) = chase_lev::new::<Range32>(DEQUE_CAP);
            owners.push(w);
            stealers.push(s);
        }
        let shared = Arc::new(Shared {
            ctrl: Mutex::new(Ctrl {
                run_seq: 0,
                cmd: None,
                seats: 0,
                worker_stats: vec![CachePadded::new(WorkerStats::default()); workers],
                worker_events: vec![Vec::new(); workers],
                worker_dropped: vec![0; workers],
                shutdown: false,
            }),
            start_cv: Condvar::new(),
            remaining: CachePadded::new(AtomicU64::new(0)),
            panicked: CachePadded::new(AtomicBool::new(false)),
            inside: AtomicUsize::new(0),
            ec: EventCount::new(),
            stealers,
            workers,
            seed: cfg.seed,
            trace_on: cfg.trace,
            trace_cap: cfg.trace_cap,
        });
        let mut owners = owners.into_iter().enumerate();
        let (_, lead) = owners.next().expect("at least one participant");
        let lead = Participant::new(0, lead, &shared);
        let helpers = owners
            .map(|(me, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rph-native-{me}"))
                    .spawn(move || {
                        let part = Participant::new(me, local, &shared);
                        helper_main(part, &shared)
                    })
                    .expect("spawn pool helper")
            })
            .collect();
        Pool {
            shared,
            lead,
            helpers,
            run_cap: MAX_RUN_TASKS,
        }
    }

    /// Shrink the per-run task cap so tests can drive the chunking
    /// path without a four-billion-task job.
    #[cfg(test)]
    pub(crate) fn set_run_cap_for_tests(&mut self, cap: usize) {
        assert!(cap > 0 && cap <= MAX_RUN_TASKS);
        self.run_cap = cap;
    }

    /// Run every task of `job` on the calling thread and the pool's
    /// helpers and return the results in task order. Semantics are
    /// identical to [`crate::execute`]; only the thread lifecycle
    /// differs.
    ///
    /// Jobs longer than the packed-range index space (`u32::MAX`
    /// tasks) are executed as consecutive chunks — every task still
    /// runs exactly once and results stay in task order; indices are
    /// never truncated.
    ///
    /// A panicking task — on a helper or on the calling thread — aborts
    /// the run (remaining tasks are discarded) and surfaces here as
    /// `Err(JobPanicked)`; the pool keeps serving subsequent runs.
    pub fn try_execute<J: Job>(&mut self, job: &J) -> Result<NativeOutcome<J::Out>, JobPanicked> {
        self.execute_inner(job, None).map_err(|e| match e {
            RunError::Panicked(p) => p,
            // No token was supplied and the pool raises nothing else.
            e => unreachable!("uncancellable pool run failed with {e}"),
        })
    }

    /// [`Self::try_execute`] with a cooperative [`CancelToken`]:
    /// participants poll the token before every task (and the parked
    /// caller within the 10 ms park safety timeout), so a cancelled run
    /// winds down after at most one in-flight task per participant and
    /// returns `Err(RunError::Cancelled)`, discarding partial results.
    pub fn try_execute_cancellable<J: Job>(
        &mut self,
        job: &J,
        cancel: &CancelToken,
    ) -> Result<NativeOutcome<J::Out>, RunError> {
        self.execute_inner(job, Some(cancel))
    }

    fn execute_inner<J: Job>(
        &mut self,
        job: &J,
        cancel: Option<&CancelToken>,
    ) -> Result<NativeOutcome<J::Out>, RunError> {
        let n = job.len();
        let workers = self.shared.workers;
        let mut trace = self.shared.trace_on.then(|| Tracer::new(workers));
        let clock = WallClock::start();
        let mut values: Vec<J::Out> = Vec::with_capacity(n);
        let mut stats = NativeStats {
            per_worker: vec![0; workers],
            ..NativeStats::default()
        };
        let mut trace_dropped = 0u64;
        let mut wall = Duration::ZERO;
        let mut base = 0usize;
        while base < n {
            if cancel.is_some_and(|t| t.is_cancelled()) {
                return Err(RunError::Cancelled);
            }
            let count = (n - base).min(self.run_cap);
            let heap = ResultHeap::new(count);
            let runner = |i: u64| heap.publish(i as usize, job.run(base + i as usize));
            let runner_ref: &(dyn Fn(u64) + Sync) = &runner;
            // SAFETY: `runner` is called only by this chunk's
            // participants: the caller, inside `lead.work` below, and
            // helpers seated in the run. A helper takes its seat under
            // the control lock while `cmd` is `Some`, counting itself
            // in `inside`; it reaches `runner` only through the
            // `RunCmd` it cloned there, drops that `RunCmd` at the end
            // of `Participant::work`, and only then checks out of
            // `inside` under the lock. Before this chunk's body ends,
            // the caller clears `cmd` and the seats under the lock —
            // no seat can be taken after that — and waits until
            // `inside` is zero. Nothing between the invitation and that
            // wait can unwind (tasks run under `catch_unwind`), so the
            // erased borrow of `heap`/`job` strictly outlives every use.
            let runner_static: &'static (dyn Fn(u64) + Sync) =
                unsafe { std::mem::transmute::<&(dyn Fn(u64) + Sync), _>(runner_ref) };

            self.shared.panicked.store(false, Ordering::SeqCst);
            self.shared.remaining.store(count as u64, Ordering::SeqCst);
            let start = Instant::now();
            let cmd = RunCmd {
                runner: runner_static,
                n: count as u64,
                clock,
                cancel: cancel.cloned(),
            };
            // Seed before inviting anyone, so no helper meets an
            // unseeded run: everything starts on the caller's deque, as
            // one range split on demand.
            self.lead.enter(&self.shared, &cmd);
            self.lead.local.push(Range32::new(0, count as u32));
            let helpers = count.min(workers) - 1;
            if helpers > 0 {
                let mut ctrl = lock(&self.shared.ctrl);
                ctrl.cmd = Some(cmd.clone());
                ctrl.run_seq += 1;
                ctrl.seats = helpers;
                drop(ctrl);
                for _ in 0..helpers {
                    self.shared.start_cv.notify_one();
                }
            }
            let lead_stats = self.lead.work(&self.shared, cmd);

            // End the run: no seat can be taken from here on, and the
            // run is over once every seated helper has checked out.
            let chunk_stats = {
                let mut ctrl = lock(&self.shared.ctrl);
                ctrl.cmd = None;
                ctrl.seats = 0;
                if self.shared.inside.load(Ordering::SeqCst) > 0 {
                    drop(ctrl);
                    self.shared.wait_for_check_outs();
                    ctrl = lock(&self.shared.ctrl);
                }
                self.lead.publish(&mut ctrl, lead_stats);
                if let Some(tracer) = trace.as_mut() {
                    for (c, events) in ctrl.worker_events.iter_mut().enumerate() {
                        map_events(tracer, CapId(c as u32), events);
                        events.clear();
                    }
                    for d in ctrl.worker_dropped.iter_mut() {
                        trace_dropped += std::mem::take(d);
                    }
                }
                take_stats(&mut ctrl.worker_stats)
            };
            wall += start.elapsed();

            // Abort checks, in precedence order: a panic trumps a
            // cancel that raced in during the same chunk. On either,
            // `heap` is dropped part-filled — the asserts below only
            // hold for completed chunks.
            if self.shared.panicked.load(Ordering::SeqCst) {
                return Err(RunError::Panicked(JobPanicked));
            }
            if cancel.is_some_and(|t| t.is_cancelled()) {
                return Err(RunError::Cancelled);
            }
            debug_assert_eq!(self.shared.remaining.load(Ordering::SeqCst), 0);
            assert_eq!(chunk_stats.tasks_run, count as u64, "tasks left behind");
            values.extend(heap.into_values());
            stats.merge(&chunk_stats);
            base += count;
        }
        Ok(NativeOutcome {
            values,
            wall,
            stats,
            trace,
            trace_dropped,
        })
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.ctrl).shutdown = true;
        self.shared.start_cv.notify_all();
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Sum the run's per-participant counters, leaving every slot empty for
/// the next run (a helper that sits it out writes nothing).
fn take_stats(slots: &mut [CachePadded<WorkerStats>]) -> NativeStats {
    let mut out = NativeStats {
        per_worker: Vec::with_capacity(slots.len()),
        ..NativeStats::default()
    };
    for slot in slots.iter_mut() {
        let s = std::mem::take(&mut **slot);
        out.per_worker.push(s.ran);
        out.tasks_run += s.ran;
        out.tasks_local += s.local;
        out.tasks_stolen += s.stolen;
        out.steal_probes += s.probes;
        out.steal_retries += s.retries;
        out.steal_empties += s.empties;
        out.steal_ops += s.steal_ops;
        out.batch_moved += s.batch_moved;
        out.splits += s.splits;
        out.parks += s.parks;
    }
    out
}

fn helper_main(mut part: Participant, shared: &Shared) {
    // The run_seq of the last run this helper sat in: one seat per run.
    let mut seated = 0u64;
    loop {
        // Wait for a seat (or shutdown).
        let cmd = {
            let mut ctrl = lock(&shared.ctrl);
            loop {
                if ctrl.shutdown {
                    return;
                }
                match &ctrl.cmd {
                    Some(cmd) if ctrl.seats > 0 && ctrl.run_seq != seated => {
                        let cmd = cmd.clone();
                        ctrl.seats -= 1;
                        seated = ctrl.run_seq;
                        shared.inside.fetch_add(1, Ordering::SeqCst);
                        break cmd;
                    }
                    _ => {
                        ctrl = shared
                            .start_cv
                            .wait(ctrl)
                            .unwrap_or_else(|e| e.into_inner())
                    }
                }
            }
        };

        part.enter(shared, &cmd);
        let stats = part.work(shared, cmd);

        // Check out; the caller may be parked waiting for exactly this.
        let mut ctrl = lock(&shared.ctrl);
        part.publish(&mut ctrl, stats);
        shared.inside.fetch_sub(1, Ordering::SeqCst);
        drop(ctrl);
        shared.ec.notify_all();
    }
}

/// Everything one participant needs for one run.
struct RunCtx<'a> {
    me: usize,
    local: &'a Worker<Range32>,
    shared: &'a Shared,
    cmd: RunCmd,
}

impl RunCtx<'_> {
    fn run(&self, stats: &mut WorkerStats, tbuf: &mut TraceBuf, picker: &mut VictimPicker) {
        // Splitting only pays when someone can steal the exposed half.
        let split = self.shared.workers > 1;

        'run: loop {
            // Drain the local pool (owner end, LIFO). A cancelled run
            // stops here, or inside `process` before its next task.
            while let Some(r) = self.local.pop() {
                if self.cancelled() {
                    break 'run;
                }
                self.process(r, false, split, stats, tbuf);
            }
            // Work-pulling: probe the other deques until a steal lands
            // or the run finishes. Lost CAS races back off; fruitless
            // sweeps first spin, then a helper leaves and the caller
            // parks. `parked_episode` tracks whether THIS contiguous
            // idle episode already counted a park: `park_if`'s 10 ms
            // safety timeout (and any spurious condvar return) drops
            // the caller back into the sweep loop, and re-parking after
            // another fruitless sweep is still the same idle episode —
            // counting it again would inflate `parks` by wall time /
            // 10 ms instead of by episode. The episode ends only when
            // work arrives.
            let mut backoff = 1u32;
            let mut fruitless = 0usize;
            let mut parked_episode = false;
            loop {
                if self.finished() {
                    break 'run;
                }
                let mut contended = false;
                let mut got = None;
                // One sweep probes every other deque once, in a fresh
                // random order (see `victim.rs`).
                for &victim in picker.sweep() {
                    let victim = victim as usize;
                    stats.probes += 1;
                    match self.shared.stealers[victim].steal_batch_and_pop(self.local) {
                        BatchSteal::Success { first, moved } => {
                            stats.steal_ops += 1;
                            stats.batch_moved += moved as u64;
                            tbuf.record(NEventKind::StealOk {
                                victim: victim as u32,
                                moved: moved as u32,
                            });
                            if moved > 0 {
                                // The transferred tail is stealable
                                // from our deque now — tell the caller
                                // if it sleeps.
                                self.shared.ec.notify_all();
                            }
                            got = Some(first);
                            break;
                        }
                        BatchSteal::Retry => {
                            stats.retries += 1;
                            tbuf.record(NEventKind::StealRetry {
                                victim: victim as u32,
                            });
                            contended = true;
                        }
                        BatchSteal::Empty => {
                            stats.empties += 1;
                            tbuf.record(NEventKind::StealEmpty {
                                victim: victim as u32,
                            });
                        }
                    }
                }
                if let Some(r) = got {
                    if parked_episode {
                        tbuf.record(NEventKind::Unpark);
                    }
                    self.process(r, true, split, stats, tbuf);
                    continue 'run;
                }
                if contended {
                    for _ in 0..backoff {
                        std::hint::spin_loop();
                    }
                    backoff = (backoff * 2).min(1 << 10);
                    fruitless = 0;
                } else {
                    backoff = 1;
                    fruitless += 1;
                    if fruitless < SPIN_SWEEPS {
                        std::thread::yield_now();
                    } else if self.me != 0 {
                        // A helper never sleeps inside a run: nothing
                        // is left to steal, so it leaves, and the
                        // caller finishes without it.
                        break 'run;
                    } else {
                        fruitless = 0;
                        let parked = self.shared.ec.park_if(|| {
                            !self.finished() && self.shared.stealers.iter().all(|s| s.is_empty())
                        });
                        if parked && !parked_episode {
                            parked_episode = true;
                            stats.parks += 1;
                            tbuf.record(NEventKind::Park);
                        }
                    }
                }
            }
        }
        tbuf.record(NEventKind::RunEnd);
    }

    /// True when the run is over (all tasks done, aborted by a
    /// participant's panic, or cancelled).
    fn finished(&self) -> bool {
        self.shared.remaining.load(Ordering::Acquire) == 0
            || self.shared.panicked.load(Ordering::Relaxed)
            || self.cancelled()
    }

    /// Has this run's cancel token (if any) been set?
    fn cancelled(&self) -> bool {
        self.cmd.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }

    /// The per-task poll of a cancellable run: its token is set, or a
    /// participant panicked. An uncancellable run pays one branch on
    /// `None` and no atomic load.
    fn aborted(&self) -> bool {
        self.cmd
            .cancel
            .as_ref()
            .is_some_and(|t| t.is_cancelled() || self.shared.panicked.load(Ordering::Relaxed))
    }

    /// Execute a range: sequentially from the low end, splitting the
    /// upper half off whenever the local deque runs dry (thief demand),
    /// and stopping early if a cancellable run is aborted. `stolen`
    /// records how the range was acquired, for the directly counted
    /// `tasks_local`/`tasks_stolen` stats.
    fn process(
        &self,
        range: Range32,
        stolen: bool,
        split: bool,
        stats: &mut WorkerStats,
        tbuf: &mut TraceBuf,
    ) {
        let mut lo = range.lo;
        let mut hi = range.hi;
        debug_assert!(lo < hi);
        tbuf.record(NEventKind::ExecStart);
        let first = lo;
        while lo < hi {
            if self.aborted() {
                break;
            }
            if split && hi - lo > 1 && self.local.is_empty() {
                let mid = lo + (hi - lo) / 2;
                self.local.push(Range32::new(mid, hi));
                stats.splits += 1;
                tbuf.record(NEventKind::Split { exposed: hi - mid });
                self.shared.ec.notify_all();
                hi = mid;
            }
            (self.cmd.runner)(lo as u64);
            stats.ran += 1;
            if stolen {
                stats.stolen += 1;
            } else {
                stats.local += 1;
            }
            lo += 1;
            if self.shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last task of the run: wake the caller if it sleeps.
                self.shared.ec.notify_all();
            }
        }
        // The whole executed span is contiguous: splits only ever push
        // the *upper* half away (and an abort drops the rest), so this
        // call ran exactly `first..lo`.
        tbuf.record(NEventKind::ExecEnd {
            count: lo - first,
            stolen,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct Squares(usize);

    impl Job for Squares {
        type Out = u64;
        fn len(&self) -> usize {
            self.0
        }
        fn run(&self, idx: usize) -> u64 {
            (idx as u64) * (idx as u64)
        }
    }

    /// Jobs longer than the per-run cap (u32::MAX in production,
    /// shrunk here) run as consecutive chunks: every task exactly
    /// once, results in order, counters summed — never a silent
    /// index truncation.
    #[test]
    fn long_jobs_run_in_chunks_without_truncation() {
        for cfg in [1, 2, 3].map(NativeConfig::steal) {
            let mut pool = Pool::new(&cfg);
            pool.set_run_cap_for_tests(10);
            let out = pool.try_execute(&Squares(25)).unwrap();
            let expect: Vec<u64> = (0..25u64).map(|i| i * i).collect();
            assert_eq!(out.values, expect, "{cfg:?}");
            assert_eq!(out.stats.tasks_run, 25, "{cfg:?}");
            assert_eq!(out.stats.per_worker.iter().sum::<u64>(), 25, "{cfg:?}");
            assert_eq!(out.stats.per_worker.len(), cfg.workers, "{cfg:?}");
        }
    }

    /// Chunked runs trace like any other: the caller's row records one
    /// RunStart per chunk, a helper's row at most one (only for a chunk
    /// it took a seat in), task events reconcile with the merged
    /// counters, and all chunks share one monotone time axis (the run's
    /// WallClock epoch).
    #[test]
    fn chunked_runs_trace_and_reconcile() {
        let mut pool = Pool::new(&NativeConfig::steal(2).with_trace());
        pool.set_run_cap_for_tests(10);
        let out = pool.try_execute(&Squares(25)).unwrap();
        assert_eq!(out.stats.tasks_run, 25);
        assert_eq!(out.trace_dropped, 0);
        let trace = out.trace.as_ref().expect("traced run returns a tracer");
        let c = rph_trace::Counters::from_tracer(trace);
        assert_eq!(c.native_tasks, 25);
        // 25 tasks / cap 10 = 3 chunks.
        let runs = |cap| rph_trace::Counters::for_cap(trace, CapId(cap)).native_runs;
        assert_eq!(runs(0), 3);
        assert!(runs(1) <= 3);
        for cap in 0..2 {
            let pc = rph_trace::Counters::for_cap(trace, CapId(cap));
            assert_eq!(pc.native_tasks, out.stats.per_worker[cap as usize]);
            assert!(pc.native_tasks == 0 || pc.native_runs > 0);
        }
        // merged() would panic in debug if per-cap times regressed
        // across chunk boundaries; assert order explicitly anyway.
        let merged = trace.merged();
        assert!(merged.windows(2).all(|w| w[0].time <= w[1].time));
    }

    /// A one-task run is a function call: no helper is invited, so no
    /// helper row records anything.
    #[test]
    fn one_unit_run_joins_no_helper() {
        let mut pool = Pool::new(&NativeConfig::steal(4).with_trace());
        for _ in 0..100 {
            let out = pool.try_execute(&Squares(1)).unwrap();
            assert_eq!(out.values, vec![0]);
            assert_eq!(out.stats.per_worker, vec![1, 0, 0, 0]);
            let trace = out.trace.as_ref().unwrap();
            assert_eq!(rph_trace::Counters::from_tracer(trace).native_runs, 1);
            assert!((1..4).all(|cap| trace.events_for(CapId(cap)).is_empty()));
        }
    }

    /// Which threads ran a job's tasks.
    struct Threads(usize, Mutex<Vec<std::thread::ThreadId>>);

    impl Job for Threads {
        type Out = ();
        fn len(&self) -> usize {
            self.0
        }
        fn run(&self, _: usize) {
            lock(&self.1).push(std::thread::current().id());
        }
    }

    #[test]
    fn steal_1_spawns_no_thread() {
        let mut pool = Pool::new(&NativeConfig::steal(1));
        assert!(pool.helpers.is_empty());
        let job = Threads(50, Mutex::new(Vec::new()));
        pool.try_execute(&job).unwrap();
        let me = std::thread::current().id();
        assert!(lock(&job.1).iter().all(|&t| t == me));
    }

    /// Counts `run` calls in flight and in total across many runs.
    struct Tally<'a> {
        n: usize,
        in_flight: &'a AtomicUsize,
        executed: &'a AtomicUsize,
    }

    impl Job for Tally<'_> {
        type Out = usize;
        fn len(&self) -> usize {
            self.n
        }
        fn run(&self, idx: usize) -> usize {
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            self.executed.fetch_add(1, Ordering::SeqCst);
            std::hint::black_box(idx);
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            idx
        }
    }

    /// The erased runner borrow ends when `try_execute` returns: across
    /// thousands of runs of every width from 0 to 3·W tasks, no task is
    /// in flight at any return and none runs afterwards (the running
    /// total matches at every return), every task runs exactly once
    /// (the write-once slots panic otherwise), and results stay in
    /// order.
    #[test]
    fn no_task_outlives_its_run() {
        let in_flight = AtomicUsize::new(0);
        let executed = AtomicUsize::new(0);
        let mut total = 0;
        for workers in [2usize, 3, 4] {
            let mut pool = Pool::new(&NativeConfig::steal(workers));
            for round in 0..3400 {
                let n = round % (3 * workers + 1);
                let job = Tally {
                    n,
                    in_flight: &in_flight,
                    executed: &executed,
                };
                let out = pool.try_execute(&job).unwrap();
                total += n;
                assert_eq!(in_flight.load(Ordering::SeqCst), 0, "W={workers} n={n}");
                assert_eq!(executed.load(Ordering::SeqCst), total, "W={workers} n={n}");
                assert_eq!(out.values, (0..n).collect::<Vec<_>>());
            }
        }
    }

    enum Fault {
        Panic,
        Cancel(CancelToken),
    }

    /// A fault raised by a task on the calling thread. Tasks on helpers
    /// wait until the caller has started one, so the caller always
    /// runs a task whoever steals what.
    struct CallerFault {
        n: usize,
        caller: std::thread::ThreadId,
        caller_ran: AtomicBool,
        fault: Fault,
    }

    impl CallerFault {
        fn new(n: usize, fault: Fault) -> Self {
            CallerFault {
                n,
                caller: std::thread::current().id(),
                caller_ran: AtomicBool::new(false),
                fault,
            }
        }
    }

    impl Job for CallerFault {
        type Out = u64;
        fn len(&self) -> usize {
            self.n
        }
        fn run(&self, idx: usize) -> u64 {
            if std::thread::current().id() == self.caller {
                self.caller_ran.store(true, Ordering::SeqCst);
                match &self.fault {
                    Fault::Panic => panic!("caller task {idx}"),
                    Fault::Cancel(token) => token.cancel(),
                }
            } else {
                let deadline = Instant::now() + Duration::from_secs(10);
                while !self.caller_ran.load(Ordering::SeqCst) {
                    assert!(Instant::now() < deadline, "the caller never ran a task");
                    std::hint::spin_loop();
                }
            }
            idx as u64
        }
    }

    /// A panic raised in the caller's own task ends the run with `Err`
    /// like one raised on a helper, and the pool, helpers included,
    /// keeps serving.
    #[test]
    fn a_panic_in_the_callers_own_task_surfaces_and_the_pool_keeps_serving() {
        for (workers, n) in [(4, 1), (2, 4)] {
            let mut pool = Pool::new(&NativeConfig::steal(workers));
            let err = pool.try_execute(&CallerFault::new(n, Fault::Panic));
            assert!(err.is_err(), "W={workers} n={n}");
            let out = pool.try_execute(&Squares(64)).unwrap();
            assert_eq!(out.values, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    /// Likewise a cancel raised in the caller's own task.
    #[test]
    fn a_cancel_in_the_callers_own_task_surfaces_and_the_pool_keeps_serving() {
        for (workers, n) in [(4, 1), (2, 4)] {
            let mut pool = Pool::new(&NativeConfig::steal(workers));
            let token = CancelToken::new();
            let job = CallerFault::new(n, Fault::Cancel(token.clone()));
            let err = pool.try_execute_cancellable(&job, &token);
            assert_eq!(err.unwrap_err(), RunError::Cancelled, "W={workers} n={n}");
            let out = pool.try_execute(&Squares(64)).unwrap();
            assert_eq!(out.values, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    /// The PR 6 bugfix contract: a panicking job surfaces as an error
    /// on the calling thread and the *same* pool keeps serving
    /// subsequent runs on its surviving workers.
    #[test]
    fn pool_survives_a_panicking_job_and_keeps_serving() {
        struct Exploding;
        impl Job for Exploding {
            type Out = u64;
            fn len(&self) -> usize {
                16
            }
            fn run(&self, idx: usize) -> u64 {
                assert!(idx != 7, "boom");
                idx as u64
            }
        }
        let mut pool = Pool::new(&NativeConfig::steal(3));
        for round in 0..3 {
            let err = pool.try_execute(&Exploding);
            assert!(err.is_err(), "round {round}: panic must surface as Err");
            let out = pool.try_execute(&Squares(30)).unwrap();
            let expect: Vec<u64> = (0..30u64).map(|i| i * i).collect();
            assert_eq!(out.values, expect, "round {round}: pool must keep serving");
            assert_eq!(out.stats.tasks_run, 30, "round {round}");
        }
    }

    #[test]
    fn pre_cancelled_run_does_no_work() {
        let mut pool = Pool::new(&NativeConfig::steal(2));
        let token = CancelToken::new();
        token.cancel();
        let err = pool.try_execute_cancellable(&Squares(1000), &token);
        assert_eq!(err.unwrap_err(), RunError::Cancelled);
        // The pool is unaffected: a fresh token runs normally.
        let out = pool.try_execute_cancellable(&Squares(10), &CancelToken::new());
        assert_eq!(out.unwrap().stats.tasks_run, 10);
    }

    /// Cancellation is observed before every task: once the first task
    /// sets the token, each participant finishes at most the task in
    /// flight and stops — far short of the full job, even at one
    /// worker, where the caller's one seed range is the whole job and
    /// is never split.
    #[test]
    fn cancel_mid_run_is_observed_within_a_range() {
        struct SelfCancelling {
            token: CancelToken,
            ran: AtomicU64,
        }
        impl Job for SelfCancelling {
            type Out = u64;
            fn len(&self) -> usize {
                4096
            }
            fn run(&self, idx: usize) -> u64 {
                if self.ran.fetch_add(1, Ordering::Relaxed) == 0 {
                    self.token.cancel();
                }
                idx as u64
            }
        }
        for workers in [1, 2] {
            let mut pool = Pool::new(&NativeConfig::steal(workers));
            let job = SelfCancelling {
                token: CancelToken::new(),
                ran: AtomicU64::new(0),
            };
            let err = pool.try_execute_cancellable(&job, &job.token);
            assert_eq!(err.unwrap_err(), RunError::Cancelled, "W={workers}");
            let ran = job.ran.load(Ordering::Relaxed);
            assert!(
                ran < 64,
                "W={workers}: cancellation not observed within a range ({ran} tasks ran)"
            );
            // And the pool still serves the next run.
            let out = pool.try_execute(&Squares(12)).unwrap();
            assert_eq!(out.stats.tasks_run, 12, "W={workers}");
        }
    }
}
