//! The native Eden backend's algorithmic skeletons.
//!
//! Eden programs are written against skeletons — higher-order process
//! schemes — and the paper's workloads use exactly three shapes, all
//! implemented here on real threads over the bounded channels of
//! [`crate::channel`]:
//!
//! * [`par_map`] — the static farm: task `i` is assigned to PE
//!   `i mod workers` up front, each PE streams its result packets back
//!   to the master. Right for regular work (sumEuler chunks, matMul
//!   blocks) where a static deal is already balanced.
//! * [`master_worker`] — the demand-driven farm (the paper's answer
//!   to irregular tasks like nqueens): the master keeps `prefetch`
//!   task packets in flight per worker and hands out the next task
//!   only when a result comes back, so fast workers get more tasks.
//! * [`ring`] — PEs own contiguous blocks of items and pass a pivot
//!   packet around the ring once per wave (APSP's Floyd–Warshall
//!   rounds, the paper's §III.D ring skeleton).
//!
//! All three return the same [`NativeOutcome`] the steal backend
//! produces — values in task order, wall time, counters, and (when
//! tracing) one [`rph_trace::Tracer`] row per PE plus one for the
//! master — so every consumer (benches, differential tests, timeline
//! rendering) treats the two backends uniformly.
//!
//! Panic behaviour: a panicking PE drops its channel endpoints, which
//! unblocks its peers (their sends/recvs observe the close) and lets
//! the master's drain terminate. The fallible entry points
//! ([`try_par_map`], [`try_master_worker`], [`try_ring`]) then report
//! a typed [`EdenIncomplete`] naming the dead PEs and the task
//! indices whose results were lost; the infallible wrappers panic on
//! that error for one-shot callers.

use crate::channel::{bounded_with_notify, Packet, Receiver, Sender, Wordsize};
use crate::eden::{drain_results, empty_outcome, finish_run, Endpoint, PeReport, PeStats};
use crate::error::EdenIncomplete;
use crate::executor::{Job, NativeConfig, NativeOutcome};
use crate::park::EventCount;
use crate::trace::NEventKind;
use rph_trace::WallClock;
use std::sync::Arc;

/// PE `worker`'s contiguous share of `[0, n)` under static block
/// partitioning: a PE's rows in [`ring`], its tasks in
/// [`try_par_map_reduce`].
fn block_share(n: u64, workers: usize, worker: usize) -> (u32, u32) {
    let w = workers as u64;
    let lo = (n * worker as u64 / w) as u32;
    let hi = (n * (worker as u64 + 1) / w) as u32;
    (lo, hi)
}

/// Which farm skeleton a flat [`Job`] should run under on the Eden
/// backend. (The [`ring`] skeleton is not a farm — it needs the
/// richer [`RingJob`] shape — so it is not representable here.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skeleton {
    /// Static farm: [`par_map`].
    ParMap,
    /// Demand-driven farm with the given per-worker prefetch depth:
    /// [`master_worker`].
    MasterWorker {
        /// Task packets kept in flight per worker (clamped to ≥ 1).
        prefetch: usize,
    },
}

impl Skeleton {
    /// Run `job` under this skeleton, panicking if a PE dies mid-run
    /// (the one-shot contract; long-running callers use
    /// [`Self::try_run`]).
    pub fn run<J>(self, job: &J, cfg: &NativeConfig) -> NativeOutcome<J::Out>
    where
        J: Job,
        J::Out: Wordsize,
    {
        self.try_run(job, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run `job` under this skeleton, reporting a dead PE as a typed
    /// [`EdenIncomplete`] instead of panicking.
    pub fn try_run<J>(
        self,
        job: &J,
        cfg: &NativeConfig,
    ) -> Result<NativeOutcome<J::Out>, EdenIncomplete>
    where
        J: Job,
        J::Out: Wordsize,
    {
        match self {
            Skeleton::ParMap => try_par_map(job, cfg),
            Skeleton::MasterWorker { prefetch } => try_master_worker(job, cfg, prefetch),
        }
    }
}

/// Join the PE threads, swallowing (already-hooked) panics: a dead
/// PE contributes an empty report and its id to the returned list,
/// so the caller can surface a typed error instead of unwinding.
fn try_join_all(
    handles: Vec<std::thread::ScopedJoinHandle<'_, PeReport>>,
) -> (Vec<PeReport>, Vec<u32>) {
    let mut dead = Vec::new();
    let reports = handles
        .into_iter()
        .enumerate()
        .map(|(w, h)| match h.join() {
            Ok(rep) => rep,
            Err(_) => {
                dead.push(w as u32);
                PeReport {
                    stats: PeStats::default(),
                    events: Vec::new(),
                    dropped: 0,
                }
            }
        })
        .collect();
    (reports, dead)
}

/// Static farm: task `i` runs on PE `i mod workers`; every PE streams
/// `(index, value)` result packets to the master, which collects them
/// into task order. Panics if a PE dies mid-run; [`Skeleton::try_run`]
/// reports it instead.
pub fn par_map<J>(job: &J, cfg: &NativeConfig) -> NativeOutcome<J::Out>
where
    J: Job,
    J::Out: Wordsize,
{
    try_par_map(job, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`par_map`], reporting a dead PE as [`EdenIncomplete`] instead of
/// panicking.
pub(crate) fn try_par_map<J>(
    job: &J,
    cfg: &NativeConfig,
) -> Result<NativeOutcome<J::Out>, EdenIncomplete>
where
    J: Job,
    J::Out: Wordsize,
{
    let workers = cfg.workers.max(1);
    let n = job.len();
    if n == 0 {
        return Ok(empty_outcome(cfg));
    }
    let clock = WallClock::start();
    let master_id = workers as u32;
    let ec = Arc::new(EventCount::new());
    let mut txs = Vec::with_capacity(workers);
    let mut rxs = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, rx) = bounded_with_notify(cfg.chan_cap, Some(Arc::clone(&ec)));
        txs.push(tx);
        rxs.push(rx);
    }
    let (slots, pe_reports, dead_pes, master_report) = std::thread::scope(|s| {
        let handles: Vec<_> = txs
            .into_iter()
            .enumerate()
            .map(|(w, tx)| {
                s.spawn(move || {
                    let mut ep = Endpoint::new(cfg, clock);
                    let mine = n.saturating_sub(w).div_ceil(workers) as u64;
                    ep.tbuf.record(NEventKind::RunStart { tasks: mine });
                    for idx in (w..n).step_by(workers) {
                        ep.tbuf.record(NEventKind::ExecStart);
                        let out = job.run(idx);
                        ep.stats.ran += 1;
                        ep.tbuf.record(NEventKind::ExecEnd {
                            count: 1,
                            stolen: false,
                        });
                        if !ep.send(&tx, master_id, "result", Packet::new(idx as u32, out)) {
                            break; // master gone: unwinding already
                        }
                    }
                    ep.tbuf.record(NEventKind::RunEnd);
                    ep.finish()
                })
            })
            .collect();

        let mut master = Endpoint::new(cfg, clock);
        master.tbuf.record(NEventKind::RunStart { tasks: n as u64 });
        let mut slots: Vec<Option<J::Out>> = (0..n).map(|_| None).collect();
        drain_results(&mut master, &ec, &rxs, |master, w, pkt| {
            master.note_recv(w as u32, pkt.words, "result");
            let prev = slots[pkt.idx as usize].replace(pkt.payload);
            assert!(prev.is_none(), "task {} produced two results", pkt.idx);
        });
        master.tbuf.record(NEventKind::RunEnd);
        let (reports, dead) = try_join_all(handles);
        (slots, reports, dead, master.finish())
    });
    let wall = clock.epoch().elapsed();
    finish_run(cfg, slots, wall, pe_reports, dead_pes, master_report)
}

/// Demand-driven farm: the master primes each worker with `prefetch`
/// task packets, then releases one new task per result received —
/// irregular tasks (nqueens subtrees) flow to whoever is free. With
/// fewer tasks than PEs the surplus workers receive an immediately
/// closed task stream and exit without deadlocking. Panics if a PE
/// dies mid-run; [`Skeleton::try_run`] reports it instead.
pub fn master_worker<J>(job: &J, cfg: &NativeConfig, prefetch: usize) -> NativeOutcome<J::Out>
where
    J: Job,
    J::Out: Wordsize,
{
    try_master_worker(job, cfg, prefetch).unwrap_or_else(|e| panic!("{e}"))
}

/// [`master_worker`], reporting a dead PE as [`EdenIncomplete`]
/// instead of panicking: tasks already handed to a PE that dies are
/// lost (their indices land in [`EdenIncomplete::missing`]), while
/// the remaining tasks keep flowing to the surviving PEs.
pub(crate) fn try_master_worker<J>(
    job: &J,
    cfg: &NativeConfig,
    prefetch: usize,
) -> Result<NativeOutcome<J::Out>, EdenIncomplete>
where
    J: Job,
    J::Out: Wordsize,
{
    let workers = cfg.workers.max(1);
    let n = job.len();
    if n == 0 {
        return Ok(empty_outcome(cfg));
    }
    let prefetch = prefetch.max(1);
    let clock = WallClock::start();
    let master_id = workers as u32;
    let ec = Arc::new(EventCount::new());

    let mut task_txs: Vec<Option<Sender<Packet<()>>>> = Vec::with_capacity(workers);
    let mut task_rxs = Vec::with_capacity(workers);
    let mut res_txs = Vec::with_capacity(workers);
    let mut res_rxs = Vec::with_capacity(workers);
    for _ in 0..workers {
        // Task channel depth = prefetch: the master never sends more
        // than `prefetch` undelivered tasks, so it never blocks here.
        let (ttx, trx) = bounded_with_notify(prefetch, None);
        task_txs.push(Some(ttx));
        task_rxs.push(trx);
        let (rtx, rrx) = bounded_with_notify(cfg.chan_cap, Some(Arc::clone(&ec)));
        res_txs.push(rtx);
        res_rxs.push(rrx);
    }

    /// Hand the next task to worker `w` (no-op if its stream is
    /// already closed, e.g. because the worker died).
    fn feed(
        master: &mut Endpoint,
        txs: &mut [Option<Sender<Packet<()>>>],
        outstanding: &mut [usize],
        next: &mut usize,
        w: usize,
    ) {
        if let Some(tx) = &txs[w] {
            if master.send(tx, w as u32, "task", Packet::new(*next as u32, ())) {
                outstanding[w] += 1;
                *next += 1;
            } else {
                txs[w] = None;
            }
        }
    }

    let (slots, pe_reports, dead_pes, master_report) = std::thread::scope(|s| {
        let handles: Vec<_> = task_rxs
            .into_iter()
            .zip(res_txs)
            .map(|(task_rx, res_tx)| {
                s.spawn(move || {
                    let mut ep = Endpoint::new(cfg, clock);
                    ep.tbuf.record(NEventKind::RunStart { tasks: 0 });
                    while let Some(pkt) = ep.recv(&task_rx, master_id, "task") {
                        let idx = pkt.idx as usize;
                        ep.tbuf.record(NEventKind::ExecStart);
                        let out = job.run(idx);
                        ep.stats.ran += 1;
                        ep.tbuf.record(NEventKind::ExecEnd {
                            count: 1,
                            stolen: false,
                        });
                        if !ep.send(&res_tx, master_id, "result", Packet::new(pkt.idx, out)) {
                            break;
                        }
                    }
                    ep.tbuf.record(NEventKind::RunEnd);
                    ep.finish()
                })
            })
            .collect();

        let mut master = Endpoint::new(cfg, clock);
        master.tbuf.record(NEventKind::RunStart { tasks: n as u64 });
        let mut slots: Vec<Option<J::Out>> = (0..n).map(|_| None).collect();
        let mut outstanding = vec![0usize; workers];
        let mut next = 0usize;
        // Prime every worker, round-robin so a tiny task bag still
        // spreads across PEs; then close streams that got nothing.
        'prime: for _ in 0..prefetch {
            for w in 0..workers {
                if next >= n {
                    break 'prime;
                }
                feed(&mut master, &mut task_txs, &mut outstanding, &mut next, w);
            }
        }
        for w in 0..workers {
            if next >= n && outstanding[w] == 0 {
                task_txs[w] = None;
            }
        }
        drain_results(&mut master, &ec, &res_rxs, |master, w, pkt| {
            master.note_recv(w as u32, pkt.words, "result");
            let prev = slots[pkt.idx as usize].replace(pkt.payload);
            assert!(prev.is_none(), "task {} produced two results", pkt.idx);
            outstanding[w] -= 1;
            if next < n {
                feed(master, &mut task_txs, &mut outstanding, &mut next, w);
            } else if outstanding[w] == 0 {
                task_txs[w] = None;
            }
        });
        master.tbuf.record(NEventKind::RunEnd);
        drop(task_txs);
        let (reports, dead) = try_join_all(handles);
        (slots, reports, dead, master.finish())
    });
    let wall = clock.epoch().elapsed();
    finish_run(cfg, slots, wall, pe_reports, dead_pes, master_report)
}

/// A wave-structured computation for the [`ring`] skeleton: `len`
/// items evolve over `len` waves; wave `k`'s update of every item
/// depends only on the item itself and item `k`'s pre-wave state (the
/// pivot), which the owner broadcasts around the ring.
pub trait RingJob: Sync {
    /// One item's fully-evaluated state (a matrix row, for APSP).
    type Item: Send + Clone + Wordsize;

    /// Number of items — and of waves.
    fn len(&self) -> usize;

    /// True when there is nothing to do.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Item `idx`'s initial state.
    fn init(&self, idx: usize) -> Self::Item;

    /// Item `idx`'s next state given wave `k`'s pivot. Not called for
    /// `idx == k` — the pivot item is carried over unchanged (the
    /// Floyd–Warshall self-update is the identity).
    fn step(&self, item: &Self::Item, idx: usize, pivot: &Self::Item, k: usize) -> Self::Item;
}

/// Ring skeleton: PE `w` owns the contiguous item block
/// `block_share(len, workers, w)` as private memory for the whole
/// run. At wave `k` the owner of item `k` clones its current state as
/// the pivot and sends it to its ring successor; every other PE
/// receives the pivot from its predecessor, forwards it (unless the
/// successor is the owner, which already has it) and updates its
/// block. After the last wave each PE streams its block back to the
/// master. One pivot thus crosses each ring edge at most once per
/// wave — `workers - 1` sends per wave, never `workers²`. Panics if a
/// PE dies mid-run; see [`try_ring`].
pub fn ring<R: RingJob>(job: &R, cfg: &NativeConfig) -> NativeOutcome<R::Item> {
    try_ring(job, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`ring`], reporting dead PEs as [`EdenIncomplete`] instead of
/// panicking. A dying PE severs the ring, so its neighbours' waves
/// cannot complete either: expect a cascade where several (often all)
/// PEs land in [`EdenIncomplete::dead_pes`].
pub fn try_ring<R: RingJob>(
    job: &R,
    cfg: &NativeConfig,
) -> Result<NativeOutcome<R::Item>, EdenIncomplete> {
    let workers = cfg.workers.max(1);
    let n = job.len();
    if n == 0 {
        return Ok(empty_outcome(cfg));
    }
    let clock = WallClock::start();
    let master_id = workers as u32;
    let ec = Arc::new(EventCount::new());

    // owner[k] = PE whose block contains item k, under the same block
    // partition the PEs themselves compute.
    let mut owner = vec![0u32; n];
    for w in 0..workers {
        let (lo, hi) = block_share(n as u64, workers, w);
        for o in owner.iter_mut().take(hi as usize).skip(lo as usize) {
            *o = w as u32;
        }
    }
    let owner = &owner;

    // into[w]: ring edge from PE w-1 into PE w.
    let mut ring_txs: Vec<Option<Sender<Packet<R::Item>>>> = (0..workers).map(|_| None).collect();
    let mut ring_rxs: Vec<Option<Receiver<Packet<R::Item>>>> = (0..workers).map(|_| None).collect();
    for w in 0..workers {
        let (tx, rx) = bounded_with_notify(cfg.chan_cap, None);
        ring_txs[w] = Some(tx);
        ring_rxs[w] = Some(rx);
    }
    let mut res_txs = Vec::with_capacity(workers);
    let mut res_rxs = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, rx) = bounded_with_notify(cfg.chan_cap, Some(Arc::clone(&ec)));
        res_txs.push(tx);
        res_rxs.push(rx);
    }

    let (slots, pe_reports, dead_pes, master_report) = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for (w, res_tx) in res_txs.into_iter().enumerate() {
            let succ = (w + 1) % workers;
            let pred = (w + workers - 1) % workers;
            let ring_tx = ring_txs[succ].take().expect("ring edge claimed twice");
            let ring_rx = ring_rxs[w].take().expect("ring edge claimed twice");
            handles.push(s.spawn(move || {
                let (lo, hi) = block_share(n as u64, workers, w);
                let (lo, hi) = (lo as usize, hi as usize);
                let mut ep = Endpoint::new(cfg, clock);
                ep.tbuf.record(NEventKind::RunStart {
                    tasks: ((hi - lo) * n) as u64,
                });
                let mut items: Vec<R::Item> = (lo..hi).map(|i| job.init(i)).collect();
                for k in 0..n {
                    let own = owner[k] as usize;
                    let pivot = if own == w {
                        let pivot = items[k - lo].clone();
                        if workers > 1 {
                            ep.send(
                                &ring_tx,
                                succ as u32,
                                "ring",
                                Packet::new(k as u32, pivot.clone()),
                            );
                        }
                        pivot
                    } else {
                        let pkt = ep
                            .recv(&ring_rx, pred as u32, "ring")
                            .expect("ring closed mid-wave (peer PE died)");
                        debug_assert_eq!(pkt.idx as usize, k, "pivot arrived out of wave order");
                        if succ != own {
                            ep.send(
                                &ring_tx,
                                succ as u32,
                                "ring",
                                Packet::new(k as u32, pkt.payload.clone()),
                            );
                        }
                        pkt.payload
                    };
                    if !items.is_empty() {
                        ep.tbuf.record(NEventKind::ExecStart);
                        for (off, item) in items.iter_mut().enumerate() {
                            let idx = lo + off;
                            if idx != k {
                                *item = job.step(item, idx, &pivot, k);
                            }
                        }
                        ep.stats.ran += (hi - lo) as u64;
                        ep.tbuf.record(NEventKind::ExecEnd {
                            count: (hi - lo) as u32,
                            stolen: false,
                        });
                    }
                }
                drop(ring_tx);
                for (off, item) in items.into_iter().enumerate() {
                    let idx = (lo + off) as u32;
                    if !ep.send(&res_tx, master_id, "result", Packet::new(idx, item)) {
                        break;
                    }
                }
                ep.tbuf.record(NEventKind::RunEnd);
                ep.finish()
            }));
        }

        let mut master = Endpoint::new(cfg, clock);
        master.tbuf.record(NEventKind::RunStart { tasks: n as u64 });
        let mut slots: Vec<Option<R::Item>> = (0..n).map(|_| None).collect();
        drain_results(&mut master, &ec, &res_rxs, |master, w, pkt| {
            master.note_recv(w as u32, pkt.words, "result");
            let prev = slots[pkt.idx as usize].replace(pkt.payload);
            assert!(prev.is_none(), "item {} returned twice", pkt.idx);
        });
        master.tbuf.record(NEventKind::RunEnd);
        let (reports, dead) = try_join_all(handles);
        (slots, reports, dead, master.finish())
    });
    let wall = clock.epoch().elapsed();
    finish_run(cfg, slots, wall, pe_reports, dead_pes, master_report)
}

/// A fold-as-you-go farm: the reduction view of [`par_map`]. Worker
/// `w` owns the contiguous task block `block_share(len, workers, w)`,
/// folds its results locally in ascending task order, and sends the
/// master **one** partial packet; the master folds the partials in
/// ascending worker order. Because the blocks are contiguous and both
/// folds run left-to-right, the overall grouping is a re-association
/// of the sequential left fold — any *associative* `fold` therefore
/// reproduces the sequential result bit-for-bit, regardless of worker
/// count. A dead PE is reported as [`EdenIncomplete`]. On success
/// `values` holds exactly one element — the fold of every task's
/// output (empty for an empty job).
pub fn try_par_map_reduce<J, F>(
    job: &J,
    cfg: &NativeConfig,
    fold: F,
) -> Result<NativeOutcome<J::Out>, EdenIncomplete>
where
    J: Job,
    J::Out: Wordsize,
    F: Fn(J::Out, J::Out) -> J::Out + Sync,
{
    let workers = cfg.workers.max(1);
    let n = job.len();
    if n == 0 {
        return Ok(empty_outcome(cfg));
    }
    let fold = &fold;
    let clock = WallClock::start();
    let master_id = workers as u32;
    let ec = Arc::new(EventCount::new());
    let mut txs = Vec::with_capacity(workers);
    let mut rxs = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, rx) = bounded_with_notify(cfg.chan_cap, Some(Arc::clone(&ec)));
        txs.push(tx);
        rxs.push(rx);
    }
    let (partials, pe_reports, dead_pes, master_report) = std::thread::scope(|s| {
        let handles: Vec<_> = txs
            .into_iter()
            .enumerate()
            .map(|(w, tx)| {
                s.spawn(move || {
                    let (lo, hi) = block_share(n as u64, workers, w);
                    let (lo, hi) = (lo as usize, hi as usize);
                    let mut ep = Endpoint::new(cfg, clock);
                    ep.tbuf.record(NEventKind::RunStart {
                        tasks: (hi - lo) as u64,
                    });
                    let mut acc: Option<J::Out> = None;
                    if lo < hi {
                        ep.tbuf.record(NEventKind::ExecStart);
                        for idx in lo..hi {
                            let out = job.run(idx);
                            acc = Some(match acc {
                                None => out,
                                Some(a) => fold(a, out),
                            });
                        }
                        ep.stats.ran += (hi - lo) as u64;
                        ep.tbuf.record(NEventKind::ExecEnd {
                            count: (hi - lo) as u32,
                            stolen: false,
                        });
                    }
                    if let Some(partial) = acc {
                        ep.send(&tx, master_id, "partial", Packet::new(w as u32, partial));
                    }
                    ep.tbuf.record(NEventKind::RunEnd);
                    ep.finish()
                })
            })
            .collect();

        let mut master = Endpoint::new(cfg, clock);
        master.tbuf.record(NEventKind::RunStart { tasks: n as u64 });
        let mut partials: Vec<Option<J::Out>> = (0..workers).map(|_| None).collect();
        drain_results(&mut master, &ec, &rxs, |master, w, pkt| {
            master.note_recv(w as u32, pkt.words, "partial");
            let prev = partials[pkt.idx as usize].replace(pkt.payload);
            assert!(prev.is_none(), "worker {} sent two partials", pkt.idx);
        });
        master.tbuf.record(NEventKind::RunEnd);
        let (reports, dead) = try_join_all(handles);
        (partials, reports, dead, master.finish())
    });
    let wall = clock.epoch().elapsed();

    // A worker with a non-empty block that delivered no partial lost
    // its whole block: report those task indices, like the farms do.
    let mut missing = Vec::new();
    for (w, slot) in partials.iter().enumerate() {
        let (lo, hi) = block_share(n as u64, workers, w);
        if slot.is_none() && lo < hi {
            missing.extend(lo..hi);
        }
    }
    if !dead_pes.is_empty() || !missing.is_empty() {
        return Err(EdenIncomplete { dead_pes, missing });
    }
    let total = partials
        .into_iter()
        .flatten()
        .reduce(fold)
        .expect("non-empty job produced no partials");
    Ok(crate::eden::assemble(
        cfg,
        vec![total],
        wall,
        pe_reports,
        master_report,
    ))
}

/// A bulk-synchronous, data-partitioned computation for the
/// [`exchange`] skeleton — the shape iterated simulations (episim's
/// visit/return rounds) need and the farms cannot express: every PE
/// *owns* a partition of the data for the whole run, and at each step
/// boundary the partitions exchange batches all-to-all.
///
/// The skeleton calls [`ExchangeJob::exchange`] `steps()` times per
/// PE. Step `s` receives the batches emitted by step `s - 1` (one per
/// peer, empty-`Default` batches at step 0) and returns one outgoing
/// batch per peer — `out[p]` is delivered to PE `p`'s next step, the
/// self-addressed `out[part]` locally without touching a channel. The
/// batches of the final step flow into [`ExchangeJob::finish`], which
/// folds the partition state into the PE's single result.
pub trait ExchangeJob: Sync {
    /// The partition state a PE owns across all steps.
    type State: Send;
    /// One batch crossing a partition boundary at a step barrier.
    type Batch: Send + Default + Wordsize;
    /// A partition's final result, streamed to the master.
    type Out: Send + Wordsize;

    /// Number of exchange steps (0 is legal: init → finish directly).
    fn steps(&self) -> usize;

    /// Partition `part` of `parts`' initial state.
    fn init(&self, part: usize, parts: usize) -> Self::State;

    /// Run step `step` on the partition: absorb `inbox` (indexed by
    /// sending PE), update `state`, return the outgoing batch per PE
    /// (indexed by receiving PE; must have length `parts`).
    fn exchange(
        &self,
        part: usize,
        parts: usize,
        step: usize,
        state: &mut Self::State,
        inbox: Vec<Self::Batch>,
    ) -> Vec<Self::Batch>;

    /// Fold the partition into its final result, absorbing the last
    /// step's batches.
    fn finish(
        &self,
        part: usize,
        parts: usize,
        state: Self::State,
        inbox: Vec<Self::Batch>,
    ) -> Self::Out;
}

/// Round-barrier exchange skeleton: `workers` PEs each own one
/// partition; each step runs locally and then exchanges one batch per
/// ordered PE pair over dedicated SPSC channels (an empty batch is
/// still framed and sent, so every step delivers exactly one packet
/// per edge and termination is deterministic). Returns one value per
/// partition, in partition order. Panics if a PE dies mid-run; see
/// [`try_exchange`].
pub fn exchange<X: ExchangeJob>(job: &X, cfg: &NativeConfig) -> NativeOutcome<X::Out> {
    try_exchange(job, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`exchange`], reporting dead PEs as [`EdenIncomplete`] instead of
/// panicking. Like [`try_ring`], a dying PE starves its peers' next
/// step, so expect a cascade naming several PEs.
pub fn try_exchange<X: ExchangeJob>(
    job: &X,
    cfg: &NativeConfig,
) -> Result<NativeOutcome<X::Out>, EdenIncomplete> {
    let workers = cfg.workers.max(1);
    let steps = job.steps();
    let clock = WallClock::start();
    let master_id = workers as u32;
    let master_ec = Arc::new(EventCount::new());
    // Each PE parks on its own eventcount, pinged by all its inbound
    // edges — the PE-side mirror of the master's multiplexed drain.
    let pe_ecs: Vec<Arc<EventCount>> = (0..workers).map(|_| Arc::new(EventCount::new())).collect();

    // One SPSC channel per ordered PE pair. At most two packets are
    // ever in flight on an edge (src may run one step ahead of dst,
    // never two: sending step s+2 requires having received dst's step
    // s+1, which dst sent only after consuming src's step s), so
    // capacity 2 makes every send non-blocking.
    let cap = cfg.chan_cap.max(2);
    // `edges[src][dst]`, `None` on the diagonal (no self-channel).
    type EdgeMatrix<T> = Vec<Vec<Option<T>>>;
    let mut edge_txs: EdgeMatrix<Sender<Packet<X::Batch>>> = (0..workers)
        .map(|_| (0..workers).map(|_| None).collect())
        .collect();
    let mut edge_rxs: EdgeMatrix<Receiver<Packet<X::Batch>>> = (0..workers)
        .map(|_| (0..workers).map(|_| None).collect())
        .collect();
    for src in 0..workers {
        for dst in 0..workers {
            if src == dst {
                continue;
            }
            let (tx, rx) = bounded_with_notify(cap, Some(Arc::clone(&pe_ecs[dst])));
            edge_txs[src][dst] = Some(tx);
            edge_rxs[dst][src] = Some(rx);
        }
    }
    let mut res_txs = Vec::with_capacity(workers);
    let mut res_rxs = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, rx) = bounded_with_notify(cfg.chan_cap, Some(Arc::clone(&master_ec)));
        res_txs.push(tx);
        res_rxs.push(rx);
    }

    let (slots, pe_reports, dead_pes, master_report) = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for (w, res_tx) in res_txs.into_iter().enumerate() {
            let txs: Vec<Option<Sender<Packet<X::Batch>>>> = std::mem::take(&mut edge_txs[w]);
            let rxs: Vec<Option<Receiver<Packet<X::Batch>>>> = std::mem::take(&mut edge_rxs[w]);
            let ec = Arc::clone(&pe_ecs[w]);
            handles.push(s.spawn(move || {
                let mut ep = Endpoint::new(cfg, clock);
                ep.tbuf.record(NEventKind::RunStart {
                    tasks: steps as u64 + 1,
                });
                let mut state = job.init(w, workers);
                let mut inbox: Vec<X::Batch> = (0..workers).map(|_| X::Batch::default()).collect();
                for step in 0..steps {
                    ep.tbuf.record(NEventKind::ExecStart);
                    let out = job.exchange(w, workers, step, &mut state, inbox);
                    ep.stats.ran += 1;
                    ep.tbuf.record(NEventKind::ExecEnd {
                        count: 1,
                        stolen: false,
                    });
                    assert_eq!(
                        out.len(),
                        workers,
                        "exchange step {step} on PE {w}: one outgoing batch per PE required"
                    );
                    inbox = (0..workers).map(|_| X::Batch::default()).collect();
                    for (dst, batch) in out.into_iter().enumerate() {
                        if dst == w {
                            inbox[w] = batch;
                            continue;
                        }
                        let tx = txs[dst].as_ref().expect("edge exists for every peer");
                        let sent =
                            ep.send(tx, dst as u32, "exchange", Packet::new(step as u32, batch));
                        assert!(sent, "exchange peer PE {dst} died (channel closed)");
                    }
                    recv_step(&mut ep, &ec, &rxs, w, step, &mut inbox);
                }
                ep.tbuf.record(NEventKind::ExecStart);
                let out = job.finish(w, workers, state, inbox);
                ep.stats.ran += 1;
                ep.tbuf.record(NEventKind::ExecEnd {
                    count: 1,
                    stolen: false,
                });
                ep.send(&res_tx, master_id, "result", Packet::new(w as u32, out));
                ep.tbuf.record(NEventKind::RunEnd);
                ep.finish()
            }));
        }

        let mut master = Endpoint::new(cfg, clock);
        master.tbuf.record(NEventKind::RunStart {
            tasks: workers as u64,
        });
        let mut slots: Vec<Option<X::Out>> = (0..workers).map(|_| None).collect();
        drain_results(&mut master, &master_ec, &res_rxs, |master, w, pkt| {
            master.note_recv(w as u32, pkt.words, "result");
            let prev = slots[pkt.idx as usize].replace(pkt.payload);
            assert!(prev.is_none(), "partition {} returned twice", pkt.idx);
        });
        master.tbuf.record(NEventKind::RunEnd);
        let (reports, dead) = try_join_all(handles);
        (slots, reports, dead, master.finish())
    });
    let wall = clock.epoch().elapsed();
    finish_run(cfg, slots, wall, pe_reports, dead_pes, master_report)
}

/// One PE's barrier wait inside [`try_exchange`]: collect exactly one
/// step-`step` packet from every peer, polling only the edges still
/// pending (an edge's next packet is always the oldest step it has
/// not delivered, so a pending edge's head packet *is* this step's)
/// and parking on the PE's eventcount while nothing is ready.
fn recv_step<B: Send + Wordsize>(
    ep: &mut Endpoint,
    ec: &EventCount,
    rxs: &[Option<Receiver<Packet<B>>>],
    me: usize,
    step: usize,
    inbox: &mut [B],
) {
    let mut pending: Vec<bool> = rxs.iter().map(|rx| rx.is_some()).collect();
    loop {
        let mut progress = false;
        for (src, rx) in rxs.iter().enumerate() {
            if !pending[src] {
                continue;
            }
            let rx = rx.as_ref().expect("pending edge has a receiver");
            if let Some(pkt) = rx.try_recv() {
                assert_eq!(
                    pkt.idx as usize, step,
                    "PE {me}: batch from PE {src} arrived out of step order"
                );
                ep.note_recv(src as u32, pkt.words, "exchange");
                inbox[src] = pkt.payload;
                pending[src] = false;
                progress = true;
            } else {
                assert!(
                    !rx.is_closed(),
                    "PE {me}: exchange peer PE {src} died mid-step"
                );
            }
        }
        if pending.iter().all(|p| !p) {
            return;
        }
        if !progress {
            ep.stats.recv_blocks += 1;
            ep.tbuf.record(NEventKind::BlockRecvAny);
            ec.park_if(|| {
                !rxs.iter()
                    .zip(&pending)
                    .any(|(rx, p)| *p && rx.as_ref().is_some_and(|rx| rx.poll_ready()))
            });
            ep.tbuf.record(NEventKind::Unblock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rph_trace::Counters;

    struct Squares(usize);

    impl Job for Squares {
        type Out = i64;
        fn len(&self) -> usize {
            self.0
        }
        fn run(&self, idx: usize) -> i64 {
            (idx as i64) * (idx as i64)
        }
    }

    fn expected(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| i * i).collect()
    }

    const PES: [usize; 6] = [1, 2, 3, 4, 5, 8];

    fn check_farm_stats(out: &NativeOutcome<i64>, n: u64, workers: usize) {
        assert_eq!(out.stats.tasks_run, n);
        assert_eq!(out.stats.tasks_local, n);
        assert_eq!(out.stats.tasks_stolen, 0);
        assert_eq!(out.stats.per_worker.len(), workers);
        assert_eq!(out.stats.per_worker.iter().sum::<u64>(), n);
        // Farms: one result packet per task, plus (master_worker) one
        // task packet per task — and conservation on a finished run.
        assert_eq!(out.stats.msgs_sent, out.stats.msgs_recv);
        assert!(out.stats.msgs_sent >= n);
        assert!(out.stats.words_sent > 0);
        assert_eq!(out.stats.steal_ops, 0);
        assert_eq!(out.stats.splits, 0);
    }

    #[test]
    fn par_map_matches_oracle_at_all_pe_counts() {
        for w in PES {
            let cfg = NativeConfig::new(w);
            let out = par_map(&Squares(257), &cfg);
            assert_eq!(out.values, expected(257), "workers={w}");
            check_farm_stats(&out, 257, w);
            // Static deal: PE w gets every workers-th task.
            let want: Vec<u64> = (0..w)
                .map(|i| 257usize.saturating_sub(i).div_ceil(w) as u64)
                .collect();
            assert_eq!(out.stats.per_worker, want, "workers={w}");
        }
    }

    /// Golden static deal on 4 PEs, pinned by value: task `i` runs on
    /// PE `i mod 4`, and every result crosses one channel as one
    /// packet. (Block counts depend on thread timing and are left out.)
    #[test]
    fn golden_par_map_deal_on_four_pes() {
        for (n, per_worker, words) in [(11, vec![3, 3, 3, 2], 55), (3, vec![1, 1, 1, 0], 15)] {
            let out = par_map(&Squares(n), &NativeConfig::new(4));
            let s = &out.stats;
            assert_eq!(s.per_worker, per_worker, "n={n}");
            assert_eq!((s.tasks_run, s.tasks_local), (n as u64, n as u64), "n={n}");
            assert_eq!((s.msgs_sent, s.msgs_recv), (n as u64, n as u64), "n={n}");
            assert_eq!(s.words_sent, words, "n={n}");
        }
    }

    #[test]
    fn master_worker_matches_oracle_at_all_pe_counts() {
        for w in PES {
            for prefetch in [1, 2, 4] {
                let cfg = NativeConfig::new(w);
                let out = master_worker(&Squares(101), &cfg, prefetch);
                assert_eq!(out.values, expected(101), "workers={w} prefetch={prefetch}");
                check_farm_stats(&out, 101, w);
            }
        }
    }

    /// The oversubscription satellite: many more PEs than the
    /// (single-core CI) host has cores. The demand-driven farm must
    /// complete without deadlock with results bit-identical to the
    /// 1-PE run, and its block counters must stay conservation-sane.
    #[test]
    fn master_worker_oversubscribed_many_pes_on_one_core() {
        let one = master_worker(&Squares(200), &NativeConfig::new(1), 2);
        for pes in [16usize, 32, 64] {
            let cfg = NativeConfig::new(pes);
            let out = master_worker(&Squares(200), &cfg, 2);
            assert_eq!(out.values, one.values, "pes={pes}");
            check_farm_stats(&out, 200, pes);
            // Block episodes are bounded by message traffic plus a
            // small per-PE slack (end-of-stream waits, and the
            // master's 10 ms park safety timeout re-counting a long
            // quiet period) — not by wall time.
            assert!(
                out.stats.recv_blocks <= out.stats.msgs_recv + 10 * pes as u64 + 100,
                "pes={pes}: {:?}",
                out.stats
            );
            assert!(
                out.stats.send_blocks <= out.stats.msgs_sent,
                "pes={pes}: {:?}",
                out.stats
            );
        }
    }

    #[test]
    fn master_worker_fewer_tasks_than_pes_does_not_deadlock() {
        // The required stress shape: surplus PEs must see their task
        // stream close immediately and exit.
        for n in [1usize, 2, 3, 7] {
            for w in [4usize, 8] {
                let out = master_worker(&Squares(n), &NativeConfig::new(w), 2);
                assert_eq!(out.values, expected(n), "n={n} workers={w}");
                assert_eq!(out.stats.tasks_run, n as u64);
            }
        }
    }

    #[test]
    fn tiny_channels_engage_backpressure_without_deadlock() {
        // Capacity-1 channels everywhere: every skeleton must still
        // complete, with senders genuinely blocking along the way.
        let cfg = NativeConfig::new(4).with_chan_cap(1);
        let out = par_map(&Squares(400), &cfg);
        assert_eq!(out.values, expected(400));
        let out = master_worker(&Squares(400), &cfg, 1);
        assert_eq!(out.values, expected(400));
    }

    #[test]
    fn empty_and_single_task_jobs() {
        let cfg = NativeConfig::new(4);
        let out = par_map(&Squares(0), &cfg);
        assert!(out.values.is_empty());
        assert_eq!(out.stats.per_worker, vec![0; 4]);
        assert_eq!(out.stats.msgs_sent, 0);
        let out = par_map(&Squares(1), &cfg);
        assert_eq!(out.values, vec![0]);
        let out = master_worker(&Squares(1), &cfg, 4);
        assert_eq!(out.values, vec![0]);
    }

    /// Task `i` as a 2×2 matrix; the fold is the wrapping matrix
    /// product — associative but **not** commutative, so any
    /// out-of-order or re-grouped-across-gaps folding is caught.
    struct Mats(usize);

    impl Job for Mats {
        type Out = Vec<i64>;
        fn len(&self) -> usize {
            self.0
        }
        fn run(&self, idx: usize) -> Vec<i64> {
            let i = idx as i64;
            vec![i + 1, i * i + 3, 2 * i + 1, i + 7]
        }
    }

    fn matmul2(a: Vec<i64>, b: Vec<i64>) -> Vec<i64> {
        vec![
            a[0].wrapping_mul(b[0])
                .wrapping_add(a[1].wrapping_mul(b[2])),
            a[0].wrapping_mul(b[1])
                .wrapping_add(a[1].wrapping_mul(b[3])),
            a[2].wrapping_mul(b[0])
                .wrapping_add(a[3].wrapping_mul(b[2])),
            a[2].wrapping_mul(b[1])
                .wrapping_add(a[3].wrapping_mul(b[3])),
        ]
    }

    #[test]
    fn par_map_reduce_matches_sequential_fold_bit_for_bit() {
        // A non-commutative (but associative) fold: contiguous blocks
        // + in-order folding must reproduce the sequential left fold
        // exactly, at every PE count — including more PEs than tasks.
        let n = 97;
        let seq = (0..n).map(|i| Mats(n).run(i)).reduce(matmul2).unwrap();
        for w in [1, 2, 3, 4, 5, 8, 100] {
            let cfg = NativeConfig::new(w);
            let out = try_par_map_reduce(&Mats(n), &cfg, matmul2).unwrap();
            assert_eq!(out.values, vec![seq.clone()], "workers={w}");
            assert_eq!(out.stats.tasks_run, n as u64, "workers={w}");
            // One partial packet per non-empty block, nothing more.
            assert!(out.stats.msgs_sent <= w as u64, "workers={w}");
            assert_eq!(out.stats.msgs_sent, out.stats.msgs_recv, "workers={w}");
        }
    }

    #[test]
    fn par_map_reduce_empty_job() {
        let out = try_par_map_reduce(&Squares(0), &NativeConfig::new(4), |a, b| a + b).unwrap();
        assert!(out.values.is_empty());
        assert_eq!(out.stats.msgs_sent, 0);
    }

    #[test]
    fn par_map_reduce_dead_pe_is_typed_error() {
        struct Exploding;
        impl Job for Exploding {
            type Out = i64;
            fn len(&self) -> usize {
                8
            }
            fn run(&self, idx: usize) -> i64 {
                assert!(idx != 5, "boom");
                idx as i64
            }
        }
        let err = try_par_map_reduce(&Exploding, &NativeConfig::new(4), |a, b| a + b)
            .expect_err("a dead PE must fail the run");
        assert!(!err.dead_pes.is_empty());
        assert!(err.missing.contains(&5), "{err:?}");
    }

    /// Toy BSP computation with genuinely order- and partner-dependent
    /// batches: at each step every partition sends each peer the sum
    /// of its current cells times the peer index, then adds what it
    /// received. Any lost, duplicated or mis-stepped batch changes the
    /// result.
    struct ToyExchange {
        cells: usize,
        steps: usize,
    }

    impl ExchangeJob for ToyExchange {
        type State = Vec<i64>;
        type Batch = Vec<i64>;
        type Out = Vec<i64>;
        fn steps(&self) -> usize {
            self.steps
        }
        fn init(&self, part: usize, parts: usize) -> Vec<i64> {
            let (lo, hi) = block_share(self.cells as u64, parts, part);
            (lo as i64..hi as i64).map(|i| i * i + 1).collect()
        }
        fn exchange(
            &self,
            part: usize,
            parts: usize,
            step: usize,
            state: &mut Vec<i64>,
            inbox: Vec<Vec<i64>>,
        ) -> Vec<Vec<i64>> {
            for (src, batch) in inbox.iter().enumerate() {
                for (cell, add) in state.iter_mut().zip(batch) {
                    *cell = cell.wrapping_add(add.wrapping_mul(1 + src as i64));
                }
            }
            let sum: i64 = state.iter().sum();
            (0..parts)
                .map(|dst| {
                    if dst == part {
                        Vec::new()
                    } else {
                        vec![sum.wrapping_mul((dst + step) as i64); 2]
                    }
                })
                .collect()
        }
        fn finish(
            &self,
            _part: usize,
            _parts: usize,
            mut state: Vec<i64>,
            inbox: Vec<Vec<i64>>,
        ) -> Vec<i64> {
            for (src, batch) in inbox.iter().enumerate() {
                for (cell, add) in state.iter_mut().zip(batch) {
                    *cell = cell.wrapping_add(add.wrapping_mul(1 + src as i64));
                }
            }
            state
        }
    }

    /// Single-threaded oracle: run every partition's steps in lockstep.
    fn exchange_oracle(job: &ToyExchange, parts: usize) -> Vec<i64> {
        let mut states: Vec<Vec<i64>> = (0..parts).map(|p| job.init(p, parts)).collect();
        let mut inboxes: Vec<Vec<Vec<i64>>> = (0..parts).map(|_| vec![Vec::new(); parts]).collect();
        for step in 0..job.steps() {
            let mut next: Vec<Vec<Vec<i64>>> =
                (0..parts).map(|_| vec![Vec::new(); parts]).collect();
            for p in 0..parts {
                let out = job.exchange(
                    p,
                    parts,
                    step,
                    &mut states[p],
                    std::mem::take(&mut inboxes[p]),
                );
                for (dst, batch) in out.into_iter().enumerate() {
                    next[dst][p] = batch;
                }
            }
            inboxes = next;
        }
        (0..parts)
            .flat_map(|p| {
                job.finish(
                    p,
                    parts,
                    std::mem::take(&mut states[p]),
                    std::mem::take(&mut inboxes[p]),
                )
            })
            .collect()
    }

    #[test]
    fn exchange_matches_lockstep_oracle_at_all_pe_counts() {
        for w in PES {
            let job = ToyExchange {
                cells: 23,
                steps: 5,
            };
            let want = exchange_oracle(&job, w);
            let out = exchange(&job, &NativeConfig::new(w));
            let got: Vec<i64> = out.values.into_iter().flatten().collect();
            assert_eq!(got, want, "workers={w}");
            // One packet per ordered pair per step, plus one result
            // packet per PE; all conserved.
            let edges = (w * (w - 1)) as u64;
            assert_eq!(out.stats.msgs_sent, 5 * edges + w as u64, "workers={w}");
            assert_eq!(out.stats.msgs_sent, out.stats.msgs_recv, "workers={w}");
            assert_eq!(out.stats.tasks_run, (5 + 1) * w as u64, "workers={w}");
        }
    }

    #[test]
    fn exchange_zero_steps_and_tiny_channels() {
        let job = ToyExchange { cells: 9, steps: 0 };
        let out = exchange(&job, &NativeConfig::new(3));
        let got: Vec<i64> = out.values.into_iter().flatten().collect();
        assert_eq!(got, exchange_oracle(&job, 3));
        // chan_cap 1 is clamped to 2 internally; must still complete.
        let job = ToyExchange {
            cells: 16,
            steps: 7,
        };
        let out = exchange(&job, &NativeConfig::new(4).with_chan_cap(1));
        let got: Vec<i64> = out.values.into_iter().flatten().collect();
        assert_eq!(got, exchange_oracle(&job, 4));
    }

    /// Toy wave computation with order-dependent updates: any
    /// deviation from strict wave order or from the block ownership
    /// contract changes the result.
    struct ToyRing(usize);

    impl RingJob for ToyRing {
        type Item = Vec<f64>;
        fn len(&self) -> usize {
            self.0
        }
        fn init(&self, idx: usize) -> Vec<f64> {
            vec![idx as f64, (idx * idx) as f64 + 1.0, 3.0]
        }
        fn step(&self, item: &Vec<f64>, idx: usize, pivot: &Vec<f64>, k: usize) -> Vec<f64> {
            item.iter()
                .zip(pivot)
                .map(|(a, b)| a + b * ((k + 1) as f64) + idx as f64 * 0.5)
                .collect()
        }
    }

    fn ring_oracle(job: &ToyRing) -> Vec<Vec<f64>> {
        let n = job.len();
        let mut items: Vec<Vec<f64>> = (0..n).map(|i| job.init(i)).collect();
        for k in 0..n {
            let pivot = items[k].clone();
            for (idx, item) in items.iter_mut().enumerate() {
                if idx != k {
                    *item = job.step(item, idx, &pivot, k);
                }
            }
        }
        items
    }

    #[test]
    fn ring_matches_sequential_oracle_bit_for_bit() {
        let job = ToyRing(23);
        let want = ring_oracle(&job);
        for w in PES {
            let out = ring(&job, &NativeConfig::new(w));
            assert_eq!(out.values, want, "workers={w}");
            assert_eq!(out.stats.tasks_run, 23 * 23, "workers={w}");
            assert_eq!(out.stats.msgs_sent, out.stats.msgs_recv, "workers={w}");
            if w == 1 {
                // Lone PE: no ring traffic at all, only result returns.
                assert_eq!(out.stats.msgs_sent, 23);
            }
        }
    }

    #[test]
    fn ring_with_more_pes_than_items_still_works() {
        let job = ToyRing(3);
        let want = ring_oracle(&job);
        let out = ring(&job, &NativeConfig::new(8));
        assert_eq!(out.values, want);
        assert_eq!(out.stats.tasks_run, 9);
    }

    #[test]
    fn traced_run_reconciles_events_with_counters() {
        for (name, out) in [
            (
                "par_map",
                par_map(&Squares(64), &NativeConfig::new(3).with_trace()),
            ),
            (
                "master_worker",
                master_worker(&Squares(64), &NativeConfig::new(3).with_trace(), 2),
            ),
            (
                "ring",
                ring(&ToyRing(16), &NativeConfig::new(3).with_trace()).map_values(),
            ),
        ] {
            assert_eq!(out.trace_dropped, 0, "{name}");
            let tracer = out.trace.as_ref().expect("traced run must carry a trace");
            assert_eq!(tracer.caps(), 4, "{name}: 3 PEs + master");
            let c = Counters::from_tracer(tracer);
            assert_eq!(c.messages_sent, out.stats.msgs_sent, "{name}");
            assert_eq!(c.messages_received, out.stats.msgs_recv, "{name}");
            assert_eq!(c.message_words, out.stats.words_sent, "{name}");
            assert_eq!(c.native_send_blocks, out.stats.send_blocks, "{name}");
            assert_eq!(c.native_recv_blocks, out.stats.recv_blocks, "{name}");
            assert_eq!(c.native_tasks, out.stats.tasks_run, "{name}");
            assert_eq!(c.native_tasks_stolen, 0, "{name}");
        }
    }

    /// Erase the value type so differently-typed outcomes share one
    /// reconciliation loop above.
    trait MapValues {
        fn map_values(self) -> NativeOutcome<i64>;
    }
    impl MapValues for NativeOutcome<Vec<f64>> {
        fn map_values(self) -> NativeOutcome<i64> {
            NativeOutcome {
                values: self.values.iter().map(|v| v.len() as i64).collect(),
                wall: self.wall,
                stats: self.stats,
                trace: self.trace,
                trace_dropped: self.trace_dropped,
            }
        }
    }

    #[test]
    fn pe_panic_propagates_to_caller() {
        struct Exploding;
        impl Job for Exploding {
            type Out = i64;
            fn len(&self) -> usize {
                8
            }
            fn run(&self, idx: usize) -> i64 {
                assert!(idx != 5, "boom");
                idx as i64
            }
        }
        for skel in [Skeleton::ParMap, Skeleton::MasterWorker { prefetch: 2 }] {
            let r = std::panic::catch_unwind(|| skel.run(&Exploding, &NativeConfig::new(4)));
            assert!(r.is_err(), "{skel:?}: PE panic must reach the caller");
        }
    }

    /// The PR 6 bugfix contract: through the fallible entry points a
    /// dying PE becomes a typed error naming the dead PE and the task
    /// indices whose results were lost — no panic on the caller, no
    /// silent holes.
    #[test]
    fn dead_pe_surfaces_as_typed_error_with_lost_tasks() {
        struct Exploding;
        impl Job for Exploding {
            type Out = i64;
            fn len(&self) -> usize {
                8
            }
            fn run(&self, idx: usize) -> i64 {
                assert!(idx != 5, "boom");
                idx as i64
            }
        }
        for skel in [Skeleton::ParMap, Skeleton::MasterWorker { prefetch: 2 }] {
            let err = skel
                .try_run(&Exploding, &NativeConfig::new(4))
                .expect_err("a dead PE must fail the run");
            assert!(!err.dead_pes.is_empty(), "{skel:?}: {err:?}");
            assert!(
                err.missing.contains(&5),
                "{skel:?}: the panicking task's result must be reported lost: {err:?}"
            );
        }
        // par_map's static deal pins task 5 to PE 5 mod 4 = 1.
        let err = try_par_map(&Exploding, &NativeConfig::new(4)).unwrap_err();
        assert_eq!(err.dead_pes, vec![1]);
    }
}
