//! The GpH runtime: capabilities, spark scheduling, and the
//! stop-the-world GC barrier, as a deterministic discrete-event
//! simulation.
//!
//! The event loop always advances the capability with the smallest
//! virtual clock, so cross-capability interactions (steals, pushes,
//! wake-ups, the GC barrier) are causally consistent to within one
//! simulator slice ([`crate::GphConfig::sim_slice`], default 100 µs).

use crate::config::{BlackHoling, GcModel, GphConfig, SparkExec, SparkPolicy};
use crate::stats::GphStats;
use rph_deque::DetDeque;
use rph_heap::gc::Collector;
use rph_heap::{Heap, NodeRef, ParMarkCosts, RegionId};
use rph_machine::{Machine, Program, RunCtx, StopReason};
use rph_sim::{DetRng, EarliestIndex, LinkClass};
use rph_trace::{CapId, EventKind, State, ThreadId, Time, Tracer};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// A lightweight thread (GHC: TSO).
struct Tso {
    machine: Machine,
    /// True for the dedicated spark-running thread of §IV.A.4.
    spark_thread: bool,
    /// When this thread last started running (time-slice accounting).
    started: Time,
}

/// One capability: a virtual core with its own allocation area, run
/// queue and spark pool, sharing the program-wide heap.
struct Cap {
    id: CapId,
    clock: Time,
    area: rph_heap::AllocArea,
    run_q: VecDeque<Tso>,
    current: Option<Tso>,
    sparks: DetDeque<NodeRef>,
    /// `Some(t)`: parked at the GC barrier since `t`.
    stopped_for_gc: Option<Time>,
    /// Last traced state (to emit transitions only).
    last_state: Option<State>,
}

impl Cap {
    fn has_local_work(&self) -> bool {
        self.current.is_some() || !self.run_q.is_empty()
    }

    /// This capability's key in the event loop's pick index.
    fn ready_key(&self) -> u64 {
        if self.stopped_for_gc.is_some() {
            EarliestIndex::PARKED
        } else {
            self.clock
        }
    }
}

/// An in-flight stop-the-world request.
struct GcPhase {
    request_time: Time,
}

/// Result of a completed run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The WHNF result of the main thread.
    pub result: NodeRef,
    /// Virtual makespan: the main capability's clock at main-thread
    /// completion (GHC exits when `main` finishes).
    pub elapsed: Time,
    /// Runtime counters.
    pub stats: GphStats,
    /// The event trace (empty if tracing was disabled).
    pub tracer: Tracer,
}

/// The shared-heap GpH runtime.
pub struct GphRuntime {
    program: Arc<Program>,
    config: GphConfig,
    heap: Heap,
    collector: Collector,
    caps: Vec<Cap>,
    /// Threads blocked on black holes, by thread id. A `BTreeMap` so
    /// every iteration (notably GC-root gathering) visits threads in
    /// thread-id order — `HashMap` iteration order varies run-to-run,
    /// which leaked allocation-order nondeterminism into mark–sweep
    /// root order and undermined the byte-identical-trace guarantee.
    blocked: BTreeMap<ThreadId, Tso>,
    tracer: Tracer,
    rng: DetRng,
    stats: GphStats,
    next_tid: u64,
    gc: Option<GcPhase>,
    /// Extra GC roots (the entry node, and anything a caller pins).
    extra_roots: Vec<NodeRef>,
    /// Old-generation live words at the end of the last major
    /// collection (per-capability-nursery model: the next major
    /// triggers when the old gen has grown well past this).
    last_major_live: u64,
    /// Reusable buffer for steal-victim permutations.
    victim_buf: Vec<usize>,
}

impl GphRuntime {
    pub fn new(program: Arc<Program>, config: GphConfig) -> Self {
        assert!(config.caps >= 1, "need at least one capability");
        let caps = (0..config.caps)
            .map(|i| Cap {
                id: CapId(i as u32),
                clock: 0,
                area: rph_heap::AllocArea::new(config.alloc_area_words, config.checkpoint_words),
                run_q: VecDeque::new(),
                current: None,
                sparks: DetDeque::new(config.spark_pool_cap),
                stopped_for_gc: None,
                last_state: None,
            })
            .collect();
        let tracer = if config.trace {
            Tracer::new(config.caps)
        } else {
            Tracer::disabled(config.caps)
        };
        let mut heap = Heap::new();
        if config.gc_model == GcModel::PerCapNurseries {
            heap.enable_nurseries(config.caps);
        }
        GphRuntime {
            program,
            heap,
            collector: Collector::new(),
            caps,
            blocked: BTreeMap::new(),
            tracer,
            rng: DetRng::new(config.seed),
            stats: GphStats::default(),
            next_tid: 0,
            gc: None,
            extra_roots: Vec::new(),
            last_major_live: 0,
            victim_buf: Vec::new(),
            config,
        }
    }

    /// The shared heap (for building entry graphs and reading results).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable heap access for building the entry graph.
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// Pin an extra GC root for the duration of the run.
    pub fn pin_root(&mut self, r: NodeRef) {
        self.extra_roots.push(r);
    }

    /// Run the program: build the entry graph with `build`, then force
    /// it to WHNF on capability 0 as the main thread, scheduling sparks
    /// across all capabilities until main finishes.
    pub fn run(&mut self, build: impl FnOnce(&mut Heap) -> NodeRef) -> Result<RunOutcome, String> {
        let entry = build(&mut self.heap);
        self.extra_roots.push(entry);
        let main_tid = self.fresh_tid();
        let main = Tso {
            machine: Machine::enter(main_tid, entry),
            spark_thread: false,
            started: 0,
        };
        self.stats.threads_created += 1;
        self.tracer
            .record(CapId(0), 0, EventKind::ThreadCreated { thread: main_tid });
        self.caps[0].run_q.push_back(main);

        // The pick index: each capability's clock, or `PARKED` while it
        // waits at the GC barrier — a key rather than a filter, so
        // "everyone is parked" is the index reporting no minimum. Only
        // two things move a capability's key: `advance(idx)` moves
        // `idx`'s own, and `perform_gc` moves everyone's.
        let mut ready = EarliestIndex::new(self.caps.len());
        ready.rebuild(|i, _| self.caps[i].ready_key());
        loop {
            debug_assert!(
                ready.keys().eq(self.caps.iter().map(Cap::ready_key)),
                "a capability's clock or parked flag moved outside its own advance"
            );
            // Advance the lowest-clock capability that is not parked.
            let pick = ready.min();
            debug_assert_eq!(pick, self.earliest_by_scan());
            let Some(idx) = pick else {
                // Every capability is parked: complete the pending GC.
                if self.gc.is_none() {
                    return Err("all capabilities parked with no GC pending".into());
                }
                self.perform_gc();
                ready.rebuild(|i, _| self.caps[i].ready_key());
                continue;
            };
            let finished = self.advance(idx, main_tid)?;
            ready.set(idx, self.caps[idx].ready_key());
            if let Some(result) = finished {
                let elapsed = self.caps[idx].clock;
                // Close the trace: every capability goes idle at its
                // current clock, and the main capability's end time
                // dominates the timeline.
                for i in 0..self.caps.len() {
                    let t = self.caps[i].clock.max(elapsed);
                    self.caps[i].clock = t;
                    self.set_state(i, State::Idle);
                }
                let tracer = std::mem::replace(&mut self.tracer, Tracer::disabled(0));
                return Ok(RunOutcome {
                    result,
                    elapsed,
                    stats: self.stats.clone(),
                    tracer,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Event-loop pieces
    // ------------------------------------------------------------------

    /// The pick rule by definition — the lowest `(clock, id)` among the
    /// capabilities not parked at the GC barrier — as an O(caps) scan:
    /// the reference the pick index is checked against.
    fn earliest_by_scan(&self) -> Option<usize> {
        (0..self.caps.len())
            .filter(|&i| self.caps[i].stopped_for_gc.is_none())
            .min_by_key(|&i| (self.caps[i].clock, i))
    }

    /// Advance one capability. Returns `Some(result)` when the main
    /// thread finished.
    fn advance(&mut self, idx: usize, main_tid: ThreadId) -> Result<Option<NodeRef>, String> {
        // If a GC is pending and this capability has no running thread,
        // it parks at the barrier immediately (idle capabilities yield
        // straight away; only mutating threads delay to a checkpoint).
        if self.gc.is_some() && self.caps[idx].current.is_none() {
            self.park_for_gc(idx);
            return Ok(None);
        }

        if self.caps[idx].current.is_none() && !self.ensure_work(idx) {
            // Idle: wait for pushes, wakes or new sparks.
            self.set_state(idx, State::Idle);
            self.caps[idx].clock += self.config.costs.idle_backoff;
            return Ok(None);
        }

        // Run the current thread for one simulator slice. Under the
        // per-capability-nursery model, everything the mutator
        // allocates in this slice lands in this capability's region
        // (this covers both `RunCtx::alloc` and direct kernel
        // allocations — the region is heap state, not a ctx argument).
        self.set_state(idx, State::Running);
        if self.heap.nurseries_enabled() {
            self.heap.set_alloc_region(Some(idx as RegionId));
        }
        // The thread runs where it is installed: a slice that ends at
        // a bound of the simulator's own (fuel, a fresh spark) or at a
        // checkpoint leaves it there, and only the arms below that
        // really move it (blocked, finished, rotated out at a
        // checkpoint) take it out.
        let cap = &mut self.caps[idx];
        let tso = cap.current.as_mut().expect("ensured above");
        let mut ctx = RunCtx::new(
            &self.program,
            &mut self.heap,
            &mut cap.area,
            self.config.black_holing == BlackHoling::Eager,
        );
        let slice = tso.machine.run(&mut ctx, self.config.sim_slice);
        let sparks = std::mem::take(&mut ctx.sparks);
        let woken = std::mem::take(&mut ctx.woken);
        let dups = std::mem::take(&mut ctx.duplicate_work);
        drop(ctx);
        self.caps[idx].clock += slice.cost;
        let now = self.caps[idx].clock;

        // Sparks created in this slice go to the local pool.
        for s in sparks {
            self.stats.sparks_created += 1;
            if self.caps[idx].sparks.push(s) {
                self.tracer
                    .record(self.caps[idx].id, now, EventKind::SparkCreated);
            } else {
                self.stats.sparks_overflowed += 1;
                self.tracer
                    .record(self.caps[idx].id, now, EventKind::SparkOverflow);
            }
        }
        // Threads unblocked by updates move to this capability's queue.
        for tid in woken {
            if let Some(mut w) = self.blocked.remove(&tid) {
                w.machine.wake();
                w.started = now;
                self.tracer.record(
                    self.caps[idx].id,
                    now,
                    EventKind::WokenFromBlackHole { thread: tid },
                );
                self.caps[idx].run_q.push_back(w);
            }
        }
        for wasted in dups {
            self.stats.duplicate_evals += 1;
            self.stats.duplicate_work_wasted += wasted;
            self.tracer
                .record(self.caps[idx].id, now, EventKind::DuplicateWork { wasted });
        }
        // Updates may have woken a batch of threads onto this
        // capability; both GHC runtimes push surplus threads to idle
        // capabilities actively (§IV.A.2). One woken thread stays: the
        // slice may just have ended the installed thread (blocked or
        // finished — not yet acted on here), and then the capability
        // needs a successor at hand.
        self.balance_threads(idx, 1);

        match slice.stop {
            // Not a scheduling point; the thread stays installed.
            // (`Sparked` just flushed fresh sparks to the pool so
            // thieves can see them promptly.)
            StopReason::FuelExhausted | StopReason::Sparked => {}
            StopReason::Checkpoint => self.scheduler_checkpoint(idx),
            StopReason::Blocked(node) => {
                let tso = self.caps[idx].current.take().expect("ran above");
                let tid = tso.machine.tid();
                self.stats.blackhole_blocks += 1;
                self.tracer.record(
                    self.caps[idx].id,
                    now,
                    EventKind::BlockedOnBlackHole { thread: tid },
                );
                // Suspension is a context switch: under lazy black-holing
                // the suspended stack's thunks are marked now.
                if self.config.black_holing == BlackHoling::Lazy {
                    tso.machine.blackhole_update_frames(&mut self.heap);
                }
                self.heap.block_on(node, tid);
                self.blocked.insert(tid, tso);
                self.caps[idx].clock += self.config.costs.ctx_switch;
                self.stats.ctx_switches += 1;
                if self.caps[idx].run_q.is_empty() {
                    self.set_state(idx, State::Blocked);
                }
            }
            StopReason::Finished(result) => {
                let mut tso = self.caps[idx].current.take().expect("ran above");
                let tid = tso.machine.tid();
                self.tracer.record(
                    self.caps[idx].id,
                    now,
                    EventKind::ThreadFinished { thread: tid },
                );
                if tid == main_tid {
                    return Ok(Some(result));
                }
                // §IV.A.4: a spark thread keeps running sparks unless
                // higher-priority threads are waiting.
                if tso.spark_thread
                    && self.config.spark_exec == SparkExec::SparkThread
                    && self.caps[idx].run_q.is_empty()
                {
                    if let Some(node) = self.obtain_spark(idx) {
                        self.caps[idx].clock += self.config.costs.spark_fetch;
                        tso.machine = Machine::enter(tid, node);
                        tso.started = self.caps[idx].clock;
                        self.caps[idx].current = Some(tso);
                    }
                }
                // Otherwise the thread simply dies.
            }
            StopReason::Error(e) => return Err(e),
        }
        Ok(None)
    }

    /// Give the capability something to run. Returns false if idle.
    fn ensure_work(&mut self, idx: usize) -> bool {
        debug_assert!(self.caps[idx].current.is_none());
        if self.ensure_work_from_queue(idx) {
            return true;
        }
        if self.config.thread_stealing
            && self.config.spark_policy == SparkPolicy::Steal
            && self.caps.len() > 1
            && self.all_spark_pools_empty()
            && self.steal_thread(idx)
        {
            // The stolen thread is installed by the run-queue branch on
            // the next visit.
            return self.ensure_work_from_queue(idx);
        }
        if let Some(node) = self.obtain_spark(idx) {
            let cost = self.config.costs.thread_create;
            self.caps[idx].clock += cost;
            let tid = self.fresh_tid();
            self.stats.threads_created += 1;
            let now = self.caps[idx].clock;
            self.tracer.record(
                self.caps[idx].id,
                now,
                EventKind::ThreadCreated { thread: tid },
            );
            let tso = Tso {
                machine: Machine::enter(tid, node),
                spark_thread: self.config.spark_exec == SparkExec::SparkThread,
                started: now,
            };
            self.caps[idx].current = Some(tso);
            return true;
        }
        false
    }

    /// Take a runnable spark: from the local pool first, then (under
    /// the stealing policy) from random victims. Fizzled sparks are
    /// discarded on the way.
    fn obtain_spark(&mut self, idx: usize) -> Option<NodeRef> {
        // Local pool: the owner takes the newest spark (bottom end).
        while let Some(s) = self.caps[idx].sparks.pop() {
            if self.heap.whnf(s).is_none() {
                self.stats.sparks_run_local += 1;
                let now = self.caps[idx].clock;
                self.tracer
                    .record(self.caps[idx].id, now, EventKind::SparkRunLocal);
                return Some(s);
            }
            self.stats.sparks_fizzled += 1;
            let now = self.caps[idx].clock;
            self.tracer
                .record(self.caps[idx].id, now, EventKind::SparkFizzled);
        }
        if self.config.spark_policy != SparkPolicy::Steal || self.caps.len() < 2 {
            return None;
        }
        // Steal sweep: probe every other capability exactly once, in a
        // seeded-random permutation (the shared `rph_sim::sweep`
        // contract, mirroring `crates/native`'s `VictimPicker`).
        // Independent per-probe draws could revisit one victim and
        // skip others entirely, inflating `steal_failures` and missing
        // available work. Under a multi-node topology the sweep visits
        // the thief's own node first; remote probes pay the inter-node
        // link latency on top of the CAS cost.
        let topo = self.config.topology;
        self.victim_sweep(idx);
        for k in 0..self.victim_buf.len() {
            let victim = self.victim_buf[k];
            let link = topo.link(idx, victim);
            self.caps[idx].clock += self.config.costs.steal_attempt;
            if link == LinkClass::Inter {
                self.caps[idx].clock += self.config.costs.link_latency(LinkClass::Inter);
            }
            if link == LinkClass::Inter && self.config.hier_stealing {
                if let Some(s) = self.steal_remote_batch(idx, victim) {
                    return Some(s);
                }
            } else {
                // Shared-memory steal (or the flat-stealing ablation
                // baseline): one spark per successful CAS, as in GHC.
                while let Some(s) = self.caps[victim].sparks.steal() {
                    if link == LinkClass::Inter {
                        // Even a single spark crosses the wire packed.
                        let words = self
                            .config
                            .costs
                            .link_words(LinkClass::Inter, self.config.costs.steal_pack_words(1));
                        self.caps[idx].clock += self.config.costs.link_wire_cost(
                            LinkClass::Inter,
                            self.config.costs.steal_pack_words(1),
                        );
                        self.stats.remote_words += words;
                        if self.heap.whnf(s).is_none() {
                            self.count_steal(idx, victim, link, 0, words);
                            return Some(s);
                        }
                    } else if self.heap.whnf(s).is_none() {
                        self.count_steal(idx, victim, link, 0, 0);
                        return Some(s);
                    }
                    self.stats.sparks_fizzled += 1;
                }
            }
            self.stats.steal_failures += 1;
        }
        None
    }

    /// A batched cross-node steal from `victim` (mirroring the native
    /// pool's `steal_batch_and_pop`): take up to half the victim's
    /// pool, capped at [`Self::REMOTE_BATCH_CAP`], in one transfer —
    /// one message envelope, one wire crossing. The first live spark
    /// is returned to run; the rest land in the thief's own pool,
    /// where node-local peers can steal them over cheap links.
    fn steal_remote_batch(&mut self, idx: usize, victim: usize) -> Option<NodeRef> {
        let avail = self.caps[victim].sparks.len();
        if avail == 0 {
            return None;
        }
        let take = (avail / 2).clamp(1, Self::REMOTE_BATCH_CAP);
        let mut chosen = None;
        let mut moved = 0u64;
        for _ in 0..take {
            let Some(s) = self.caps[victim].sparks.steal() else {
                break;
            };
            if self.heap.whnf(s).is_some() {
                self.stats.sparks_fizzled += 1;
            } else if chosen.is_none() {
                chosen = Some(s);
            } else {
                moved += 1;
                self.caps[idx].sparks.push(s);
            }
        }
        // The packed graph crossed the wire whether or not anything in
        // it was still unevaluated.
        let pack = self.config.costs.steal_pack_words(take as u64);
        let words = self.config.costs.link_words(LinkClass::Inter, pack);
        self.caps[idx].clock += self.config.costs.link_wire_cost(LinkClass::Inter, pack);
        self.stats.remote_words += words;
        if chosen.is_some() {
            self.count_steal(idx, victim, LinkClass::Inter, moved, words);
        }
        chosen
    }

    /// Bookkeeping for one successful steal operation.
    fn count_steal(&mut self, idx: usize, victim: usize, link: LinkClass, moved: u64, words: u64) {
        self.stats.sparks_stolen += 1;
        let now = self.caps[idx].clock;
        match link {
            LinkClass::Intra => {
                self.stats.steal_local += 1;
                self.tracer.record(
                    self.caps[idx].id,
                    now,
                    EventKind::SparkStolen {
                        victim: CapId(victim as u32),
                    },
                );
            }
            LinkClass::Inter => {
                self.stats.steal_remote += 1;
                self.tracer.record(
                    self.caps[idx].id,
                    now,
                    EventKind::SparkStolenRemote {
                        victim: CapId(victim as u32),
                        moved,
                        words,
                    },
                );
            }
        }
    }

    /// Cap on sparks moved by one batched cross-node steal (the native
    /// pool's `steal_batch_and_pop` cap).
    const REMOTE_BATCH_CAP: usize = 32;

    /// Fill `self.victim_buf` with a fresh seeded permutation of the
    /// other capabilities — one steal sweep probes each exactly once
    /// (the shared `rph_sim::sweep` contract, cf. `crates/native`'s
    /// `VictimPicker`). Under a multi-node topology with hierarchical
    /// stealing the permutation is two-level: all same-node victims
    /// (shuffled) before all remote victims (shuffled). On a single
    /// node the remote segment is empty and the shuffle consumes
    /// exactly the pre-topology draw sequence, keeping flat-model
    /// traces bit-identical.
    fn victim_sweep(&mut self, idx: usize) {
        let mut order = std::mem::take(&mut self.victim_buf);
        order.clear();
        let topo = self.config.topology;
        if topo.nodes() > 1 && self.config.hier_stealing {
            order.extend((0..self.caps.len()).filter(|&v| v != idx && topo.same_node(v, idx)));
            let split = order.len();
            order.extend((0..self.caps.len()).filter(|&v| v != idx && !topo.same_node(v, idx)));
            self.rng.shuffle(&mut order[..split]);
            self.rng.shuffle(&mut order[split..]);
        } else {
            order.extend((0..self.caps.len()).filter(|&v| v != idx));
            self.rng.shuffle(&mut order);
        }
        self.victim_buf = order;
    }

    /// Actions a thread takes when it notices the context-switch /
    /// GC-request flags at an allocation checkpoint.
    fn scheduler_checkpoint(&mut self, idx: usize) {
        // 1. Our allocation area is exhausted: collect. Under the
        // stop-the-world model this requests the global barrier; with
        // per-capability nurseries (§VI future work) the capability
        // collects its own nursery locally and escalates to a global
        // collection only when the old generation has grown.
        if self.caps[idx].area.needs_gc() && self.gc.is_none() {
            match self.config.gc_model {
                GcModel::StopTheWorld => {
                    self.tracer.record(
                        self.caps[idx].id,
                        self.caps[idx].clock,
                        EventKind::GcRequest,
                    );
                    self.gc = Some(GcPhase {
                        request_time: self.caps[idx].clock,
                    });
                }
                GcModel::PerCapNurseries => {
                    // Collect our own nursery independently; escalate
                    // to a global collection only when the shared old
                    // generation has grown substantially (GHC-style
                    // growth trigger, so majors don't thrash when live
                    // data is genuinely large).
                    self.minor_gc(idx);
                    let threshold = (self.config.alloc_area_words * self.caps.len() as u64)
                        .max(self.last_major_live * 2);
                    if self.heap.old_words() >= threshold {
                        self.tracer.record(
                            self.caps[idx].id,
                            self.caps[idx].clock,
                            EventKind::GcRequest,
                        );
                        self.gc = Some(GcPhase {
                            request_time: self.caps[idx].clock,
                        });
                    }
                }
            }
        }
        // 2. Join a pending barrier.
        if self.gc.is_some() {
            self.park_for_gc(idx);
            return;
        }
        // 3. Time-slice expiry: the thread returns to the scheduler
        // (GHC's timer-driven yield). `threadPaused` scans its stack —
        // this is when lazy black-holing actually marks the frames of
        // a *running* thread — and the scheduler rotates the run queue
        // if other threads wait.
        let cap = &mut self.caps[idx];
        let expired = cap
            .current
            .as_ref()
            .map(|t| cap.clock - t.started >= self.config.time_slice)
            .unwrap_or(false);
        if expired {
            let mut tso = cap.current.take().expect("checked");
            if self.config.black_holing == BlackHoling::Lazy {
                tso.machine.blackhole_update_frames(&mut self.heap);
            }
            self.caps[idx].clock += self.config.costs.ctx_switch;
            self.stats.ctx_switches += 1;
            if self.caps[idx].run_q.is_empty() {
                // Nobody waiting: resume the same thread with a fresh
                // slice.
                tso.started = self.caps[idx].clock;
                self.caps[idx].current = Some(tso);
            } else {
                self.caps[idx].run_q.push_back(tso);
                // Next thread installed by ensure_work on the next visit.
            }
        }
        // 4. Surplus threads are pushed to idle capabilities under
        // both policies; a capability whose thread was just rotated out
        // keeps one to install next.
        let keep = usize::from(self.caps[idx].current.is_none());
        self.balance_threads(idx, keep);
        // 5. Push-model work distribution: GHC 6.8's `schedulePushWork`
        // runs whenever the scheduler does — i.e. at the pushing
        // capability's scheduling points, not when the *idle* side
        // wants work; that asymmetry is the delay §IV.A.2 criticises.
        if self.config.spark_policy == SparkPolicy::Push {
            self.push_work(idx);
        }
    }

    /// Push surplus runnable threads to idle capabilities (both
    /// runtimes do this actively; only *spark* distribution differs
    /// between the push and steal policies). The first `keep` queued
    /// threads are not surplus.
    fn balance_threads(&mut self, idx: usize, keep: usize) {
        for j in 0..self.caps.len() {
            if j == idx || self.caps[idx].run_q.len() <= keep {
                if self.caps[idx].run_q.len() <= keep {
                    break;
                }
                continue;
            }
            let idle = self.caps[j].current.is_none()
                && self.caps[j].run_q.is_empty()
                && self.caps[j].stopped_for_gc.is_none();
            if !idle {
                continue;
            }
            if let Some(tso) = self.caps[idx].run_q.pop_back() {
                self.caps[idx].clock += self.config.costs.thread_migrate;
                self.stats.threads_migrated += 1;
                self.caps[j].run_q.push_back(tso);
            }
        }
    }

    /// Install the next queued thread, if any.
    fn ensure_work_from_queue(&mut self, idx: usize) -> bool {
        if let Some(mut tso) = self.caps[idx].run_q.pop_front() {
            self.caps[idx].clock += self.config.costs.ctx_switch;
            self.stats.ctx_switches += 1;
            tso.started = self.caps[idx].clock;
            self.caps[idx].current = Some(tso);
            return true;
        }
        false
    }

    fn all_spark_pools_empty(&self) -> bool {
        self.caps.iter().all(|c| c.sparks.is_empty())
    }

    /// A real independent minor collection of this capability's
    /// nursery: survivors are evacuated (promoted) to the shared old
    /// generation and nursery garbage is reclaimed. The pause is
    /// proportional to the *measured* survivors plus the remembered
    /// set scanned — it does not depend on any other capability's heap
    /// usage, and no barrier is involved.
    fn minor_gc(&mut self, idx: usize) {
        self.set_state(idx, State::Gc);
        let roots = self.gather_roots();
        let res = self
            .collector
            .collect_minor(&mut self.heap, idx as RegionId, roots);
        let pause = self
            .config
            .costs
            .gc_pause_minor(res.survivor_words, res.remset_entries);
        self.caps[idx].clock += pause;
        self.caps[idx].area.reset_after_gc();
        self.stats.local_gcs += 1;
        self.stats.minor_gc_time += pause;
        self.stats.promoted_words += res.survivor_words;
        self.stats.collected_words += res.freed_words;
        let now = self.caps[idx].clock;
        self.tracer.record(
            self.caps[idx].id,
            now,
            EventKind::GcDone {
                live_words: res.survivor_words,
                collected_words: res.freed_words,
                pause,
            },
        );
        self.set_state(idx, State::Running);
    }

    /// The full runtime root set: pinned roots, every capability's
    /// running and queued threads, spark pools, and blocked threads.
    fn gather_roots(&self) -> Vec<NodeRef> {
        let mut roots: Vec<NodeRef> = self.extra_roots.clone();
        for cap in &self.caps {
            if let Some(t) = &cap.current {
                t.machine.push_roots(&mut roots);
            }
            for t in &cap.run_q {
                t.machine.push_roots(&mut roots);
            }
            roots.extend(cap.sparks.iter().copied());
        }
        for t in self.blocked.values() {
            t.machine.push_roots(&mut roots);
        }
        roots
    }

    /// Steal a runnable thread from another capability (future-work
    /// extension of the pulling scheme). Sweeps a seeded permutation
    /// of the victims so each is probed exactly once.
    fn steal_thread(&mut self, idx: usize) -> bool {
        let topo = self.config.topology;
        self.victim_sweep(idx);
        for k in 0..self.victim_buf.len() {
            let victim = self.victim_buf[k];
            let link = topo.link(idx, victim);
            self.caps[idx].clock += self.config.costs.steal_attempt;
            if link == LinkClass::Inter {
                self.caps[idx].clock += self.config.costs.link_latency(LinkClass::Inter);
            }
            // Take the oldest queued thread; never the one installed.
            if let Some(tso) = self.caps[victim].run_q.pop_front() {
                self.caps[idx].clock += self.config.costs.thread_migrate;
                if link == LinkClass::Inter {
                    // A TSO crossing nodes is packed and shipped like
                    // any other closure graph.
                    let pack = self.config.costs.steal_pack_words(1);
                    self.caps[idx].clock += self.config.costs.link_wire_cost(link, pack);
                    self.stats.remote_words += self.config.costs.link_words(link, pack);
                }
                self.stats.threads_stolen += 1;
                self.caps[idx].run_q.push_back(tso);
                return true;
            }
        }
        false
    }

    /// Push surplus sparks to idle capabilities (one each).
    fn push_work(&mut self, idx: usize) {
        for j in 0..self.caps.len() {
            if j == idx {
                continue;
            }
            if self.caps[idx].sparks.len() <= 1 {
                break; // keep one for ourselves
            }
            let idle = !self.caps[j].has_local_work()
                && self.caps[j].sparks.is_empty()
                && self.caps[j].stopped_for_gc.is_none();
            if !idle {
                continue;
            }
            // Hand over the oldest spark (FIFO end). The event is
            // recorded on the donor's row (the recipient may be behind
            // in virtual time and discovers the spark when it next
            // polls for work).
            if let Some(s) = self.caps[idx].sparks.steal() {
                self.caps[idx].clock += self.config.costs.steal_attempt; // handshake cost
                if self.config.topology.link(idx, j) == LinkClass::Inter {
                    // Pushing a spark to another node ships it over
                    // the wire like a remote steal would.
                    let pack = self.config.costs.steal_pack_words(1);
                    self.caps[idx].clock +=
                        self.config.costs.link_wire_cost(LinkClass::Inter, pack);
                    self.stats.remote_words += self.config.costs.link_words(LinkClass::Inter, pack);
                }
                let now = self.caps[idx].clock;
                self.caps[j].sparks.push(s);
                self.stats.sparks_pushed += 1;
                self.tracer.record(
                    self.caps[idx].id,
                    now,
                    EventKind::SparkPushed {
                        to: CapId(j as u32),
                    },
                );
            }
        }
    }

    /// Park a capability at the GC barrier.
    fn park_for_gc(&mut self, idx: usize) {
        let request_time = self.gc.as_ref().expect("gc pending").request_time;
        // The barrier can complete no earlier than the request; idle
        // capabilities whose clocks lag jump forward to it.
        let t = self.caps[idx].clock.max(request_time);
        self.caps[idx].clock = t;
        self.caps[idx].stopped_for_gc = Some(t);
        // Suspended mutator: lazy black-holing scan.
        if self.config.black_holing == BlackHoling::Lazy {
            if let Some(tso) = &self.caps[idx].current {
                tso.machine.blackhole_update_frames(&mut self.heap);
            }
        }
        self.set_state(idx, State::Gc);
    }

    /// All capabilities parked: run the collector and charge the pause.
    fn perform_gc(&mut self) {
        let request_time = self.gc.as_ref().expect("gc pending").request_time;
        let barrier_end = self
            .caps
            .iter()
            .map(|c| c.stopped_for_gc.expect("all parked"))
            .max()
            .expect("caps non-empty");

        // Real mark–sweep over the real graph.
        let roots = self.gather_roots();
        let (res, pause) = match self.config.gc_model {
            GcModel::PerCapNurseries => {
                // Parallel copying major GC model: partition the root
                // set across the capabilities' GC threads, mark with
                // grey-set work stealing, pause = slowest GC thread.
                let caps = self.caps.len();
                let mut by_cap: Vec<Vec<NodeRef>> = vec![Vec::new(); caps];
                for (i, r) in roots.into_iter().enumerate() {
                    by_cap[i % caps].push(r);
                }
                let pm = ParMarkCosts {
                    mark_cell: self.config.costs.gc_mark_cell,
                    per_word: self.config.costs.gc_per_live_word,
                    steal: self.config.costs.gc_grey_steal,
                };
                let (res, report) = self
                    .collector
                    .collect_parallel(&mut self.heap, &by_cap, &pm);
                self.stats.grey_steals += report.grey_steals;
                let pause = self.config.costs.gc_pause_parallel(
                    caps,
                    self.config.gc_sync_improved,
                    report.max_clock(),
                );
                (res, pause)
            }
            GcModel::StopTheWorld => {
                // Serial collection, as in GHC 6.8 (the paper's
                // reference 29 parallel collector is "still
                // stop-the-world" and not what it measures).
                let res = self.collector.collect(&mut self.heap, roots);
                let copy_words = self.config.costs.gc_copy_words(
                    self.stats.gcs,
                    res.live_words,
                    self.config.alloc_area_words * self.caps.len() as u64,
                );
                let pause = self.config.costs.gc_pause(
                    self.caps.len(),
                    self.config.gc_sync_improved,
                    copy_words,
                );
                (res, pause)
            }
        };
        let end = barrier_end + pause;
        self.stats.gcs += 1;
        self.stats.last_live_words = res.live_words;
        self.stats.collected_words += res.collected_words;
        self.last_major_live = res.live_words;
        self.tracer.record(
            CapId(0),
            barrier_end,
            EventKind::GcStart {
                barrier_wait: barrier_end - request_time,
            },
        );

        // Prune fizzled sparks, GHC-style, while the world is stopped.
        let heap = &self.heap;
        for cap in &mut self.caps {
            cap.sparks.retain(|r| heap.whnf(*r).is_none());
        }

        for idx in 0..self.caps.len() {
            let stopped_at = self.caps[idx].stopped_for_gc.take().expect("parked");
            self.stats.gc_barrier_wait += barrier_end - stopped_at;
            self.stats.gc_pause += pause;
            self.caps[idx].clock = end;
            self.caps[idx].area.reset_after_gc();
            self.set_state(idx, State::Runnable);
        }
        self.tracer.record(
            CapId(0),
            end,
            EventKind::GcDone {
                live_words: res.live_words,
                collected_words: res.collected_words,
                pause,
            },
        );
        self.gc = None;
    }

    fn set_state(&mut self, idx: usize, state: State) {
        if self.caps[idx].last_state != Some(state) {
            self.caps[idx].last_state = Some(state);
            self.tracer
                .state(self.caps[idx].id, self.caps[idx].clock, state);
        }
    }

    fn fresh_tid(&mut self) -> ThreadId {
        let t = ThreadId(self.next_tid);
        self.next_tid += 1;
        t
    }
}
