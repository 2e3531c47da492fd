//! The native Eden backend's algorithmic skeletons.
//!
//! Eden programs are written against skeletons — higher-order process
//! schemes — and the paper's workloads use five shapes, all
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
//! * [`try_par_map_reduce`] — the static farm folding as it goes:
//!   one partial result per PE.
//! * [`exchange`] — PEs own data partitions and swap batches
//!   all-to-all at every step barrier (episim's rounds).
//!
//! Each skeleton is an adapter over one engine, [`run_pes`]: it
//! supplies only its PE-to-PE wiring, its per-PE loop and, for the
//! demand-driven farm, the master's feeding. All five return the same
//! [`NativeOutcome`] the steal backend produces — values in task
//! order, wall time, counters, and (when tracing) one
//! [`rph_trace::Tracer`] row per PE plus one for the master — so every
//! consumer (benches, differential tests, timeline rendering) treats
//! the two backends uniformly.
//!
//! Panic behaviour: a panicking PE drops its channel endpoints, which
//! unblocks its peers (their sends/recvs observe the close) and lets
//! the master's drain terminate. The fallible entry points
//! ([`Skeleton::try_run`], [`try_ring`], [`try_par_map_reduce`],
//! [`try_exchange`]) then report a typed [`EdenIncomplete`] naming the
//! dead PEs and the task indices whose results were lost; the
//! infallible wrappers panic on that error for one-shot callers.

use crate::channel::{bounded_with_notify, Packet, Receiver, Sender, Wordsize};
use crate::eden::{empty_outcome, run_pes, Endpoint};
use crate::error::EdenIncomplete;
use crate::executor::{Job, NativeConfig, NativeOutcome};
use crate::park::EventCount;
use crate::trace::NEventKind;
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
    let master_id = workers as u32;
    run_pes(
        cfg,
        (n, n, "result"),
        vec![(); workers],
        |_, _| {},
        |w, ep, (), res| {
            let mine = n.saturating_sub(w).div_ceil(workers) as u64;
            ep.tbuf.record(NEventKind::RunStart { tasks: mine });
            for idx in (w..n).step_by(workers) {
                let out = ep.exec(1, || job.run(idx));
                if !ep.send(res, master_id, "result", Packet::new(idx as u32, out)) {
                    break; // master gone: unwinding already
                }
            }
        },
    )
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
    let master_id = workers as u32;
    // Task channel depth = prefetch: the master never sends more than
    // `prefetch` undelivered tasks, so it never blocks here.
    let (task_txs, task_rxs): (Vec<_>, Vec<_>) = (0..workers)
        .map(|_| bounded_with_notify(prefetch, None))
        .unzip();
    let mut task_txs: Vec<Option<Sender<Packet<()>>>> = task_txs.into_iter().map(Some).collect();
    let mut outstanding = vec![0usize; workers];
    let mut next = 0usize;

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

    let on_master = move |master: &mut Endpoint, from: Option<usize>| match from {
        // Prime every worker, round-robin so a tiny task bag still
        // spreads across PEs; then close streams that got nothing.
        None => {
            'prime: for _ in 0..prefetch {
                for w in 0..workers {
                    if next >= n {
                        break 'prime;
                    }
                    feed(master, &mut task_txs, &mut outstanding, &mut next, w);
                }
            }
            for w in 0..workers {
                if next >= n && outstanding[w] == 0 {
                    task_txs[w] = None;
                }
            }
        }
        Some(w) => {
            outstanding[w] -= 1;
            if next < n {
                feed(master, &mut task_txs, &mut outstanding, &mut next, w);
            } else if outstanding[w] == 0 {
                task_txs[w] = None;
            }
        }
    };
    run_pes(
        cfg,
        (n, n, "result"),
        task_rxs,
        on_master,
        |_, ep, task_rx, res| {
            ep.tbuf.record(NEventKind::RunStart { tasks: 0 });
            while let Some(pkt) = ep.recv(&task_rx, master_id, "task") {
                let out = ep.exec(1, || job.run(pkt.idx as usize));
                if !ep.send(res, master_id, "result", Packet::new(pkt.idx, out)) {
                    break;
                }
            }
        },
    )
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
    let master_id = workers as u32;

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

    // The edge into PE w comes from PE w-1: PE w receives on the
    // channel into itself and sends on the one into its successor.
    let (mut ring_txs, ring_rxs): (Vec<_>, Vec<_>) = (0..workers)
        .map(|_| bounded_with_notify(cfg.chan_cap, None))
        .unzip();
    ring_txs.rotate_left(1);
    type RingWire<T> = (Sender<Packet<T>>, Receiver<Packet<T>>);
    let wires: Vec<RingWire<R::Item>> = ring_txs.into_iter().zip(ring_rxs).collect();
    run_pes(
        cfg,
        (n, n, "result"),
        wires,
        |_, _| {},
        |w, ep, (ring_tx, ring_rx), res| {
            let succ = (w + 1) % workers;
            let pred = (w + workers - 1) % workers;
            let (lo, hi) = block_share(n as u64, workers, w);
            let (lo, hi) = (lo as usize, hi as usize);
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
                    ep.exec((hi - lo) as u32, || {
                        for (off, item) in items.iter_mut().enumerate() {
                            let idx = lo + off;
                            if idx != k {
                                *item = job.step(item, idx, &pivot, k);
                            }
                        }
                    });
                }
            }
            drop(ring_tx);
            for (off, item) in items.into_iter().enumerate() {
                let idx = (lo + off) as u32;
                if !ep.send(res, master_id, "result", Packet::new(idx, item)) {
                    break;
                }
            }
        },
    )
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
    let master_id = workers as u32;
    // One slot per worker; a worker with an empty block leaves its
    // slot empty and sends nothing.
    let run = run_pes(
        cfg,
        (n, workers, "partial"),
        vec![(); workers],
        |_, _| {},
        |w, ep, (), res| {
            let (lo, hi) = block_share(n as u64, workers, w);
            let (lo, hi) = (lo as usize, hi as usize);
            ep.tbuf.record(NEventKind::RunStart {
                tasks: (hi - lo) as u64,
            });
            if lo < hi {
                let partial = ep.exec((hi - lo) as u32, || {
                    (lo..hi).map(|idx| job.run(idx)).reduce(&fold)
                });
                if let Some(partial) = partial {
                    ep.send(res, master_id, "partial", Packet::new(w as u32, partial));
                }
            }
        },
    );
    match run {
        Ok(mut out) => {
            let total = std::mem::take(&mut out.values).into_iter().reduce(&fold);
            out.values = vec![total.expect("non-empty job produced no partials")];
            Ok(out)
        }
        // A dead worker lost its whole block: report those task
        // indices, like the farms do.
        Err(mut e) => {
            e.missing = e
                .missing
                .iter()
                .flat_map(|&w| {
                    let (lo, hi) = block_share(n as u64, workers, w as usize);
                    lo..hi
                })
                .collect();
            Err(e)
        }
    }
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
    let master_id = workers as u32;

    // One SPSC channel per ordered PE pair. At most two packets are
    // ever in flight on an edge (src may run one step ahead of dst,
    // never two: sending step s+2 requires having received dst's step
    // s+1, which dst sent only after consuming src's step s), so
    // capacity 2 makes every send non-blocking.
    let cap = cfg.chan_cap.max(2);
    // PE w's wire: its edges to every peer, its edges from every peer
    // (`None` on the diagonal: no self-channel), and its own
    // eventcount, pinged by all its inbound edges — the PE-side mirror
    // of the master's multiplexed drain.
    type Edges<T> = Vec<Option<T>>;
    type Wire<B> = (
        Edges<Sender<Packet<B>>>,
        Edges<Receiver<Packet<B>>>,
        Arc<EventCount>,
    );
    let mut wires: Vec<Wire<X::Batch>> = (0..workers)
        .map(|_| {
            let txs = (0..workers).map(|_| None).collect();
            let rxs = (0..workers).map(|_| None).collect();
            (txs, rxs, Arc::new(EventCount::new()))
        })
        .collect();
    for src in 0..workers {
        for dst in (0..workers).filter(|&dst| dst != src) {
            let (tx, rx) = bounded_with_notify(cap, Some(Arc::clone(&wires[dst].2)));
            wires[src].0[dst] = Some(tx);
            wires[dst].1[src] = Some(rx);
        }
    }

    run_pes(
        cfg,
        (workers, workers, "result"),
        wires,
        |_, _| {},
        |w, ep, (txs, rxs, ec), res| {
            ep.tbuf.record(NEventKind::RunStart {
                tasks: steps as u64 + 1,
            });
            let mut state = job.init(w, workers);
            let mut inbox: Vec<X::Batch> = (0..workers).map(|_| X::Batch::default()).collect();
            for step in 0..steps {
                let out = ep.exec(1, || job.exchange(w, workers, step, &mut state, inbox));
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
                    let sent = ep.send(tx, dst as u32, "exchange", Packet::new(step as u32, batch));
                    assert!(sent, "exchange peer PE {dst} died (channel closed)");
                }
                recv_step(ep, &ec, &rxs, w, step, &mut inbox);
            }
            let out = ep.exec(1, || job.finish(w, workers, state, inbox));
            ep.send(res, master_id, "result", Packet::new(w as u32, out));
        },
    )
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

    /// Golden counts of every skeleton, pinned by value at 1, 3 and 4
    /// PEs and at channel capacities 1 and 8: the values, the task
    /// deal, and every message and word that crosses a channel. A
    /// traced run must carry one tracer row per PE plus the master's,
    /// and its events must add up to the same message totals. Block
    /// counts depend on thread timing and are left out, and so is
    /// `master_worker`'s deal (`None`), which is demand-driven.
    #[test]
    fn golden_counts_of_every_skeleton() {
        // (skeleton, job size, PEs, tasks_run, msgs, words, per_worker)
        type Golden = (
            &'static str,
            usize,
            usize,
            u64,
            u64,
            u64,
            Option<&'static [u64]>,
        );
        const TABLE: &[Golden] = &[
            ("par_map", 11, 1, 11, 11, 55, Some(&[11])),
            ("par_map", 11, 3, 11, 11, 55, Some(&[4, 4, 3])),
            ("par_map", 11, 4, 11, 11, 55, Some(&[3, 3, 3, 2])),
            ("par_map", 3, 4, 3, 3, 15, Some(&[1, 1, 1, 0])),
            ("master_worker", 11, 1, 11, 22, 110, None),
            ("master_worker", 11, 3, 11, 22, 110, None),
            ("master_worker", 11, 4, 11, 22, 110, None),
            ("ring", 7, 1, 49, 7, 56, Some(&[49])),
            ("ring", 7, 3, 49, 21, 168, Some(&[14, 14, 21])),
            ("ring", 7, 4, 49, 28, 224, Some(&[7, 14, 14, 14])),
            ("par_map_reduce", 11, 1, 11, 1, 9, Some(&[11])),
            ("par_map_reduce", 11, 3, 11, 3, 27, Some(&[3, 4, 4])),
            ("par_map_reduce", 11, 4, 11, 4, 36, Some(&[2, 3, 3, 3])),
            ("exchange", 9, 1, 4, 1, 14, Some(&[4])),
            ("exchange", 9, 3, 12, 21, 150, Some(&[4, 4, 4])),
            ("exchange", 9, 4, 16, 40, 281, Some(&[4, 4, 4, 4])),
        ];
        for &(name, n, w, tasks, msgs, words, per_worker) in TABLE {
            for cap in [1, 8] {
                for traced in [false, true] {
                    let cfg = NativeConfig::new(w).with_chan_cap(cap);
                    let cfg = if traced { cfg.with_trace() } else { cfg };
                    let at = format!("{name} n={n} W={w} cap={cap} traced={traced}");
                    let out = run_checked(name, n, &cfg);
                    let s = &out.stats;
                    assert_eq!((s.tasks_run, s.tasks_local), (tasks, tasks), "{at}");
                    assert_eq!((s.msgs_sent, s.msgs_recv), (msgs, msgs), "{at}");
                    assert_eq!(s.words_sent, words, "{at}");
                    assert_eq!(s.per_worker.len(), w, "{at}");
                    if let Some(deal) = per_worker {
                        assert_eq!(s.per_worker, deal, "{at}");
                    }
                    assert_eq!(out.trace.is_some(), traced, "{at}");
                    if let Some(tracer) = &out.trace {
                        assert_eq!(out.trace_dropped, 0, "{at}");
                        assert_eq!(tracer.caps(), w + 1, "{at}");
                        let c = Counters::from_tracer(tracer);
                        assert_eq!((c.messages_sent, c.messages_received), (msgs, msgs), "{at}");
                        assert_eq!(c.message_words, words, "{at}");
                    }
                }
            }
        }
    }

    /// Run skeleton `name` on its golden job of size `n`, check the
    /// values against the job's sequential oracle, and erase them.
    fn run_checked(name: &str, n: usize, cfg: &NativeConfig) -> NativeOutcome<()> {
        fn erase<T: PartialEq + std::fmt::Debug>(
            out: NativeOutcome<T>,
            want: Vec<T>,
        ) -> NativeOutcome<()> {
            assert_eq!(out.values, want);
            NativeOutcome {
                values: vec![(); want.len()],
                wall: out.wall,
                stats: out.stats,
                trace: out.trace,
                trace_dropped: out.trace_dropped,
            }
        }
        let w = cfg.workers;
        match name {
            "par_map" => erase(par_map(&Squares(n), cfg), expected(n)),
            "master_worker" => erase(master_worker(&Squares(n), cfg, 2), expected(n)),
            "ring" => erase(ring(&ToyRing(n), cfg), ring_oracle(&ToyRing(n))),
            "par_map_reduce" => erase(
                try_par_map_reduce(&Mats(n), cfg, matmul2).unwrap(),
                vec![(0..n).map(|i| Mats(n).run(i)).reduce(matmul2).unwrap()],
            ),
            "exchange" => {
                let job = ToyExchange { cells: n, steps: 3 };
                let flat = exchange_oracle(&job, w);
                let want = (0..w)
                    .map(|p| {
                        let (lo, hi) = block_share(n as u64, w, p);
                        flat[lo as usize..hi as usize].to_vec()
                    })
                    .collect();
                erase(exchange(&job, cfg), want)
            }
            _ => unreachable!("no skeleton named {name}"),
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
        let cfg = NativeConfig::new(4);
        let r = std::panic::catch_unwind(|| par_map(&Exploding, &cfg));
        assert!(r.is_err(), "par_map: PE panic must reach the caller");
        let r = std::panic::catch_unwind(|| master_worker(&Exploding, &cfg, 2));
        assert!(r.is_err(), "master_worker: PE panic must reach the caller");
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

        // A step that panics on one PE severs the ring or the step
        // barrier, so its peers die too: a cascade, reported to the
        // caller as the same typed error. The dead PE's own results
        // (ring item 5, exchange partition 1) are lost.
        struct ExplodingRing(ToyRing);
        impl RingJob for ExplodingRing {
            type Item = Vec<f64>;
            fn len(&self) -> usize {
                self.0.len()
            }
            fn init(&self, idx: usize) -> Vec<f64> {
                self.0.init(idx)
            }
            fn step(&self, item: &Vec<f64>, idx: usize, pivot: &Vec<f64>, k: usize) -> Vec<f64> {
                assert!((idx, k) != (5, 2), "boom");
                self.0.step(item, idx, pivot, k)
            }
        }
        struct ExplodingExchange(ToyExchange);
        impl ExchangeJob for ExplodingExchange {
            type State = Vec<i64>;
            type Batch = Vec<i64>;
            type Out = Vec<i64>;
            fn steps(&self) -> usize {
                self.0.steps()
            }
            fn init(&self, part: usize, parts: usize) -> Vec<i64> {
                self.0.init(part, parts)
            }
            fn exchange(
                &self,
                part: usize,
                parts: usize,
                step: usize,
                state: &mut Vec<i64>,
                inbox: Vec<Vec<i64>>,
            ) -> Vec<Vec<i64>> {
                assert!((part, step) != (1, 1), "boom");
                self.0.exchange(part, parts, step, state, inbox)
            }
            fn finish(
                &self,
                part: usize,
                parts: usize,
                state: Vec<i64>,
                inbox: Vec<Vec<i64>>,
            ) -> Vec<i64> {
                self.0.finish(part, parts, state, inbox)
            }
        }
        let ring_job = ExplodingRing(ToyRing(12));
        let exchange_job = ExplodingExchange(ToyExchange {
            cells: 16,
            steps: 4,
        });
        for w in [2, 3, 4, 8] {
            let cfg = NativeConfig::new(w);
            for (name, result, lost) in [
                ("ring", try_ring(&ring_job, &cfg).map(drop), 5),
                ("exchange", try_exchange(&exchange_job, &cfg).map(drop), 1),
            ] {
                let err = result.expect_err("a dead PE must fail the run");
                assert!(!err.dead_pes.is_empty(), "{name} W={w}: {err:?}");
                assert!(err.missing.contains(&lost), "{name} W={w}: {err:?}");
            }
        }
    }
}
