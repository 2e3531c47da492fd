//! The Eden runtime: processes, channels, message passing, independent
//! per-PE garbage collection, and OS scheduling of virtual PEs onto
//! cores.

use crate::channel::{ChanId, ChanState, CommMode, Endpoint};
use crate::config::EdenConfig;
use crate::job::{Job, Msg, NativeCtx, NativeLogic, NativeStep, StreamPhase};
use crate::packet;
use crate::pe::{EdenTso, NativeTso, Pe};
use crate::support::EdenSupport;
use rph_heap::{Heap, NodeRef, ScId};
use rph_machine::{Machine, Program, RunCtx, StopReason};
use rph_sim::{CoreSet, DetRng};
use rph_trace::{CapId, EventKind, State, ThreadId, Time, Tracer};
use std::sync::Arc;

/// Counters for an Eden run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdenStats {
    pub processes: u64,
    pub messages: u64,
    pub message_words: u64,
    /// The subset of `messages` that crossed an inter-node link.
    /// Zero on a single-node topology.
    pub remote_messages: u64,
    /// Words put on inter-node links (payload + envelope). Zero on a
    /// single-node topology.
    pub remote_words: u64,
    pub threads_created: u64,
    pub blackhole_blocks: u64,
    /// Independent per-PE collections (no barrier involved).
    pub local_gcs: u64,
    /// Total virtual time spent in local GC pauses, summed over PEs.
    pub gc_time: Time,
    pub collected_words: u64,
}

/// Result of a completed run.
#[derive(Debug)]
pub struct RunOutcome {
    pub result: NodeRef,
    /// Virtual makespan (PE 0's clock when `main` finished).
    pub elapsed: Time,
    pub stats: EdenStats,
    pub tracer: Tracer,
}

/// What to spawn: the worker function and its channel wiring.
///
/// `f` must have arity `inputs.len()`. If `outputs.len() == 1` the
/// process result is sent directly; otherwise the result must be a
/// tuple of `outputs.len()` components, each sent by its own
/// concurrent sender thread (Eden's tuple `Trans` semantics).
#[derive(Debug, Clone)]
pub struct ProcSpec {
    pub f: ScId,
    pub inputs: Vec<(ChanId, CommMode)>,
    pub outputs: Vec<(CommMode, Endpoint)>,
}

/// The distributed-heap Eden runtime.
pub struct EdenRuntime {
    program: Arc<Program>,
    support: EdenSupport,
    config: EdenConfig,
    pes: Vec<Pe>,
    cores: CoreSet,
    tracer: Tracer,
    stats: EdenStats,
    #[allow(dead_code)]
    rng: DetRng,
    next_tid: u64,
    next_chan: u64,
    /// Last delivery time per ordered PE pair (`from * pes + to`).
    /// Message transport is FIFO per pair, as PVM guarantees: a later
    /// message never arrives before an earlier one, even when the
    /// bandwidth term would let a small message overtake a large one.
    /// Stream channels (and anything else relying on send order)
    /// depend on this.
    link_fifo: Vec<u64>,
}

impl EdenRuntime {
    /// Create a runtime. The program must have been built with
    /// [`crate::support::install_support`] (tuple selectors); its
    /// handle is passed so spawns can project tuple outputs.
    pub fn new(program: Arc<Program>, support: EdenSupport, config: EdenConfig) -> Self {
        assert!(config.pes >= 1, "need at least one PE");
        assert!(config.cores >= 1, "need at least one core");
        let pes = (0..config.pes)
            .map(|i| Pe::new(i as u32, config.alloc_area_words, config.checkpoint_words))
            .collect();
        let tracer = if config.trace {
            Tracer::new(config.pes)
        } else {
            Tracer::disabled(config.pes)
        };
        EdenRuntime {
            program,
            support,
            pes,
            cores: CoreSet::new(config.cores),
            tracer,
            stats: EdenStats::default(),
            rng: DetRng::new(config.seed),
            next_tid: 0,
            next_chan: 0,
            link_fifo: vec![0; config.pes * config.pes],
            config,
        }
    }

    /// Number of PEs.
    pub fn num_pes(&self) -> usize {
        self.pes.len()
    }

    /// Heap of a PE (PE 0 is the parent/main PE).
    pub fn heap(&self, pe: usize) -> &Heap {
        &self.pes[pe].heap
    }

    /// Mutable heap access (for building input graphs on PE 0).
    pub fn heap_mut(&mut self, pe: usize) -> &mut Heap {
        &mut self.pes[pe].heap
    }

    /// Pin a GC root on a PE.
    pub fn pin_root(&mut self, pe: usize, r: NodeRef) {
        self.pes[pe].pinned.push(r);
    }

    /// Allocate a bare placeholder (an updatable black hole) on a PE —
    /// used by natives that fill a result in directly.
    pub fn alloc_placeholder(&mut self, pe: usize) -> NodeRef {
        self.pes[pe].alloc_placeholder()
    }

    /// Allocate a fresh channel id.
    pub fn fresh_chan(&mut self) -> ChanId {
        let c = ChanId(self.next_chan);
        self.next_chan += 1;
        c
    }

    /// Create a receiving channel on `pe`: returns the channel id and
    /// the placeholder node that will hold the arriving data (for
    /// `Stream`, the placeholder is the list that grows as elements
    /// arrive).
    pub fn new_channel(&mut self, pe: usize, mode: CommMode) -> (ChanId, NodeRef) {
        let chan = self.fresh_chan();
        let placeholder = self.pes[pe].alloc_placeholder();
        let state = match mode {
            CommMode::Single => ChanState::Single { placeholder },
            CommMode::Stream => ChanState::Stream { tail: placeholder },
        };
        self.pes[pe].chans.insert(chan, state);
        (chan, placeholder)
    }

    /// Instantiate a process on `target_pe` (charged to PE 0, which is
    /// where skeletons run — Eden instantiation is eager). The spawn
    /// message carries the wiring; the target PE allocates input
    /// placeholders and starts sender threads when it processes it.
    pub fn spawn(&mut self, target_pe: usize, spec: ProcSpec) {
        assert!(target_pe < self.pes.len(), "no such PE {target_pe}");
        assert_eq!(
            self.program.sc(spec.f).arity,
            spec.inputs.len(),
            "process function arity must match its input channels"
        );
        assert!(
            !spec.outputs.is_empty(),
            "a process needs at least one output"
        );
        self.stats.processes += 1;
        self.pes[0].clock += self.config.costs.process_instantiate;
        let now = self.pes[0].clock;
        self.tracer.record(
            CapId(0),
            now,
            EventKind::ProcessInstantiated {
                on: CapId(target_pe as u32),
            },
        );
        let msg = Msg::Spawn {
            f: spec.f,
            inputs: spec.inputs,
            outputs: spec.outputs,
        };
        self.transmit(0, target_pe, msg);
    }

    /// Start a sender thread on `from_pe` that normalises `node` and
    /// transmits it to `dest` according to `mode`. Used by skeletons to
    /// feed process inputs from the parent ("inputs are evaluated in
    /// the parent").
    pub fn send_value_from(
        &mut self,
        from_pe: usize,
        dest: Endpoint,
        node: NodeRef,
        mode: CommMode,
    ) {
        let tid = self.fresh_tid();
        self.stats.threads_created += 1;
        let started = self.pes[from_pe].clock;
        let tso = match mode {
            CommMode::Single => EdenTso {
                machine: Machine::enter_deep(tid, node),
                job: Job::SendSingle { dest },
                started,
            },
            CommMode::Stream => EdenTso {
                machine: Machine::enter(tid, node),
                job: Job::SendStream {
                    dest,
                    phase: StreamPhase::Spine,
                },
                started,
            },
        };
        self.pes[from_pe].run_q.push_back(tso);
    }

    /// Start a native coordination thread on `pe`.
    pub fn start_native(&mut self, pe: usize, logic: Box<dyn NativeLogic>) {
        let tid = self.fresh_tid();
        self.stats.threads_created += 1;
        self.pes[pe]
            .natives_ready
            .push_back(NativeTso { tid, logic });
    }

    /// Run to completion: `entry` (a node on PE 0) is forced to WHNF
    /// by the main thread; the run ends when it finishes.
    pub fn run(&mut self, entry: NodeRef) -> Result<RunOutcome, String> {
        let main_tid = self.fresh_tid();
        self.stats.threads_created += 1;
        self.pes[0].pinned.push(entry);
        self.pes[0].run_q.push_back(EdenTso {
            machine: Machine::enter(main_tid, entry),
            job: Job::Main,
            started: 0,
        });
        loop {
            let Some((idx, ready)) = self
                .pes
                .iter()
                .enumerate()
                .filter_map(|(i, pe)| pe.ready_time().map(|t| (i, t)))
                .min_by_key(|(i, t)| (*t, *i))
            else {
                return Err(self.deadlock_report());
            };
            if let Some(result) = self.advance(idx, ready, main_tid)? {
                let elapsed = self.pes[0].clock;
                for i in 0..self.pes.len() {
                    self.pes[i].clock = self.pes[i].clock.max(elapsed);
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
    // Scheduling
    // ------------------------------------------------------------------

    /// Give `idx` a core and run it for up to one OS quantum.
    fn advance(
        &mut self,
        idx: usize,
        ready: Time,
        main_tid: ThreadId,
    ) -> Result<Option<NodeRef>, String> {
        let oversubscribed = self.pes.len() > self.cores.num_cores();
        let switch_cost = if oversubscribed {
            self.config.costs.os_ctx_switch
        } else {
            0
        };
        let (core, start) = self.cores.dispatch(idx as u32, ready, switch_cost);
        if self.pes[idx].clock < start {
            self.pes[idx].clock = start;
        }
        let quantum_end = self.pes[idx].clock + self.config.costs.os_quantum;

        let mut result = None;
        loop {
            self.deliver_due(idx);
            if self.pes[idx].current.is_none() {
                if let Some(mut tso) = self.pes[idx].run_q.pop_front() {
                    self.pes[idx].clock += self.config.costs.ctx_switch;
                    tso.started = self.pes[idx].clock;
                    self.pes[idx].current = Some(tso);
                } else if let Some(native) = self.pes[idx].natives_ready.pop_front() {
                    self.set_state(idx, State::Running);
                    self.step_native(idx, native)?;
                    continue;
                } else {
                    // Nothing runnable: blocked (threads waiting) or idle.
                    let st = if self.pes[idx].blocked.is_empty()
                        && self.pes[idx].natives_waiting.is_empty()
                    {
                        State::Idle
                    } else {
                        State::Blocked
                    };
                    self.set_state(idx, st);
                    break;
                }
            }
            self.set_state(idx, State::Running);
            let outcome = self.run_current_slice(idx, main_tid)?;
            if let Some(r) = outcome {
                result = Some(r);
                break;
            }
            if self.pes[idx].clock >= quantum_end && oversubscribed {
                // Quantum expired: yield the core with work remaining.
                if self.pes[idx].has_runnable() {
                    self.set_state(idx, State::Runnable);
                }
                break;
            }
        }
        let clock = self.pes[idx].clock;
        self.cores.occupy(core, clock);
        Ok(result)
    }

    /// Run the installed thread for one simulator slice, in place: it
    /// leaves `current` only when it blocks, finishes, or is rotated
    /// behind other runnable threads.
    fn run_current_slice(
        &mut self,
        idx: usize,
        main_tid: ThreadId,
    ) -> Result<Option<NodeRef>, String> {
        let pe = &mut self.pes[idx];
        let tso = pe.current.as_mut().expect("caller installed");
        let mut ctx = RunCtx::new(
            &self.program,
            &mut pe.heap,
            &mut pe.area,
            // Within a PE threads interleave on one core; eager
            // marking keeps intra-PE sharing race-free (GHC's lazy
            // black-holing achieves the same via the context-switch
            // scan; the distinction the paper studies is GpH-side).
            true,
        );
        let slice = tso.machine.run(&mut ctx, self.config.sim_slice);
        let woken = std::mem::take(&mut ctx.woken);
        drop(ctx);
        pe.clock += slice.cost;
        for tid in woken {
            if let Some(mut w) = self.pes[idx].blocked.remove(&tid) {
                w.machine.wake();
                self.pes[idx].run_q.push_back(w);
            }
        }
        match slice.stop {
            // `par` is a no-op hint under Eden (no spark pools).
            StopReason::FuelExhausted | StopReason::Sparked => {}
            StopReason::Checkpoint => {
                // Time-slice rotation (GHC -C): sender threads must
                // interleave for stream pipelining to work.
                let pe = &mut self.pes[idx];
                let started = pe.current.as_ref().expect("ran above").started;
                if pe.clock - started >= self.config.time_slice && !pe.run_q.is_empty() {
                    pe.clock += self.config.costs.ctx_switch;
                    let tso = pe.current.take().expect("ran above");
                    pe.run_q.push_back(tso);
                }
                self.maybe_local_gc(idx);
            }
            StopReason::Blocked(node) => {
                let tso = self.pes[idx].current.take().expect("ran above");
                let tid = tso.machine.tid();
                self.stats.blackhole_blocks += 1;
                let now = self.pes[idx].clock;
                self.tracer.record(
                    CapId(idx as u32),
                    now,
                    EventKind::BlockedOnBlackHole { thread: tid },
                );
                self.pes[idx].heap.block_on(node, tid);
                self.pes[idx].blocked.insert(tid, tso);
                self.pes[idx].clock += self.config.costs.ctx_switch;
            }
            StopReason::Finished(r) => {
                let tso = self.pes[idx].current.take().expect("ran above");
                return self.job_finished(idx, tso, r, main_tid);
            }
            StopReason::Error(e) => return Err(e),
        }
        Ok(None)
    }

    /// Handle a thread whose machine finished evaluating its target.
    fn job_finished(
        &mut self,
        idx: usize,
        mut tso: EdenTso,
        r: NodeRef,
        main_tid: ThreadId,
    ) -> Result<Option<NodeRef>, String> {
        match std::mem::replace(&mut tso.job, Job::Main) {
            Job::Main => {
                if tso.machine.tid() == main_tid {
                    return Ok(Some(r));
                }
                Ok(None)
            }
            Job::SendSingle { dest } => {
                let packet = packet::pack(&self.pes[idx].heap, r).map_err(|e| e.to_string())?;
                self.transmit(
                    idx,
                    dest.pe as usize,
                    Msg::Value {
                        chan: dest.chan,
                        packet,
                    },
                );
                Ok(None)
            }
            Job::SendStream { dest, phase } => {
                let tid = tso.machine.tid();
                match phase {
                    StreamPhase::Spine => {
                        let rr = self.pes[idx].heap.resolve(r);
                        match self.pes[idx].heap.whnf(rr).cloned() {
                            Some(rph_heap::Value::Cons(h, t)) => {
                                tso.job = Job::SendStream {
                                    dest,
                                    phase: StreamPhase::Head { tail: t },
                                };
                                tso.machine = Machine::enter_deep(tid, h);
                                // Stay installed: a sender drains every
                                // element already available within its
                                // time slice instead of re-queueing per
                                // item.
                                self.pes[idx].current = Some(tso);
                            }
                            Some(rph_heap::Value::Nil) => {
                                self.transmit(
                                    idx,
                                    dest.pe as usize,
                                    Msg::StreamEnd { chan: dest.chan },
                                );
                            }
                            other => {
                                return Err(format!(
                                    "stream sender expected a list, found {other:?}"
                                ))
                            }
                        }
                    }
                    StreamPhase::Head { tail } => {
                        let packet =
                            packet::pack(&self.pes[idx].heap, r).map_err(|e| e.to_string())?;
                        self.transmit(
                            idx,
                            dest.pe as usize,
                            Msg::StreamItem {
                                chan: dest.chan,
                                packet,
                            },
                        );
                        tso.job = Job::SendStream {
                            dest,
                            phase: StreamPhase::Spine,
                        };
                        tso.machine = Machine::enter(tid, tail);
                        self.pes[idx].current = Some(tso);
                    }
                }
                Ok(None)
            }
            Job::Native(_) => unreachable!("natives have no machine"),
        }
    }

    /// Run one native step.
    fn step_native(&mut self, idx: usize, mut native: NativeTso) -> Result<(), String> {
        let pe = &mut self.pes[idx];
        let mut ctx = NativeCtx {
            heap: &mut pe.heap,
            now: pe.clock,
            cost: 0,
            outgoing: Vec::new(),
            woken: Vec::new(),
        };
        let step = native.logic.step(&mut ctx)?;
        let NativeCtx {
            cost,
            outgoing,
            woken,
            ..
        } = ctx;
        self.pes[idx].clock += cost.max(1);
        self.wake_tsos(idx, woken);
        for (dest, msg) in outgoing {
            self.transmit(idx, dest.pe as usize, msg);
        }
        match step {
            NativeStep::Done => {}
            NativeStep::Wait(nodes) => {
                // If something is already available, stay ready.
                let ready = nodes.iter().any(|r| self.pes[idx].heap.whnf(*r).is_some());
                if ready {
                    self.pes[idx].natives_ready.push_back(native);
                } else {
                    self.pes[idx].natives_waiting.push((native, nodes));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Messaging
    // ------------------------------------------------------------------

    /// Charge the sender and enqueue delivery. All message pricing
    /// goes through the link-class API: packing is local CPU work on
    /// the sender's clock, then the message crosses the link the
    /// topology assigns to this PE pair — latency-only intra-node
    /// (exactly the pre-topology flat transport), latency plus a
    /// finite-bandwidth wire term inter-node.
    fn transmit(&mut self, from: usize, to: usize, msg: Msg) {
        let words = msg.words();
        let link = self.config.topology.link(from, to);
        self.stats.messages += 1;
        self.stats.message_words += words;
        if link == rph_sim::LinkClass::Inter {
            self.stats.remote_messages += 1;
            self.stats.remote_words += self.config.costs.link_words(link, words);
        }
        self.pes[from].clock += self.config.costs.msg_send_cost(words);
        let now = self.pes[from].clock;
        self.tracer.record(
            CapId(from as u32),
            now,
            EventKind::MsgSend {
                to: CapId(to as u32),
                words,
                tag: msg.tag(),
            },
        );
        // Clamp to the pair's last delivery: point-to-point FIFO (the
        // PVM guarantee). The event queue breaks equal-time ties in
        // insertion order, so send order is fully preserved.
        let fifo = &mut self.link_fifo[from * self.config.pes + to];
        let delivery = self.config.costs.msg_arrival(link, now, words).max(*fifo);
        *fifo = delivery;
        self.pes[to].inbox.push(delivery, msg);
    }

    /// Process all messages due at or before the PE's clock.
    fn deliver_due(&mut self, idx: usize) {
        loop {
            let now = self.pes[idx].clock;
            let Some((at, msg)) = self.pes[idx].inbox.pop_due(now) else {
                break;
            };
            debug_assert!(at <= now);
            let words = msg.words();
            self.pes[idx].clock += self.config.costs.msg_recv_cost(words);
            let t = self.pes[idx].clock;
            self.tracer.record(
                CapId(idx as u32),
                t,
                EventKind::MsgRecv {
                    from: CapId(u32::MAX),
                    words,
                    tag: msg.tag(),
                },
            );
            match msg {
                Msg::Spawn { f, inputs, outputs } => self.process_spawn(idx, f, inputs, outputs),
                Msg::Value { chan, packet } => {
                    let Some(ChanState::Single { placeholder }) = self.pes[idx].chans.remove(&chan)
                    else {
                        panic!("PE{idx}: Value for unknown/mis-moded channel {chan}");
                    };
                    let pe = &mut self.pes[idx];
                    let node = packet::unpack(&packet, &mut pe.heap);
                    let rep = pe.heap.update(placeholder, node);
                    self.wake_tsos(idx, rep.woken);
                    self.pes[idx].wake_natives();
                }
                Msg::StreamItem { chan, packet } => {
                    let Some(ChanState::Stream { tail }) = self.pes[idx].chans.get(&chan).copied()
                    else {
                        panic!("PE{idx}: StreamItem for unknown/mis-moded channel {chan}");
                    };
                    let pe = &mut self.pes[idx];
                    let elem = packet::unpack(&packet, &mut pe.heap);
                    let new_tail = pe.alloc_placeholder();
                    let cons = pe.heap.alloc_value(rph_heap::Value::Cons(elem, new_tail));
                    let rep = pe.heap.update(tail, cons);
                    pe.chans.insert(chan, ChanState::Stream { tail: new_tail });
                    self.wake_tsos(idx, rep.woken);
                    self.pes[idx].wake_natives();
                }
                Msg::StreamEnd { chan } => {
                    let Some(ChanState::Stream { tail }) = self.pes[idx].chans.remove(&chan) else {
                        panic!("PE{idx}: StreamEnd for unknown/mis-moded channel {chan}");
                    };
                    let pe = &mut self.pes[idx];
                    let nil = pe.heap.alloc_value(rph_heap::Value::Nil);
                    let rep = pe.heap.update(tail, nil);
                    self.wake_tsos(idx, rep.woken);
                    self.pes[idx].wake_natives();
                }
            }
        }
    }

    /// Set up a spawned process: input placeholders, the application
    /// thunk, and one sender thread per output component.
    fn process_spawn(
        &mut self,
        idx: usize,
        f: ScId,
        inputs: Vec<(ChanId, CommMode)>,
        outputs: Vec<(CommMode, Endpoint)>,
    ) {
        let mut input_nodes = Vec::with_capacity(inputs.len());
        for (chan, mode) in inputs {
            let placeholder = self.pes[idx].alloc_placeholder();
            let state = match mode {
                CommMode::Single => ChanState::Single { placeholder },
                CommMode::Stream => ChanState::Stream { tail: placeholder },
            };
            self.pes[idx].chans.insert(chan, state);
            input_nodes.push(placeholder);
        }
        let result = self.pes[idx].heap.alloc_thunk(f, input_nodes);
        let n_out = outputs.len();
        for (k, (mode, dest)) in outputs.into_iter().enumerate() {
            let target = if n_out == 1 {
                result
            } else {
                // Component sender: evaluates $sel_k_n(result).
                let sel = self.support.selector(n_out, k);
                self.pes[idx].heap.alloc_thunk(sel, vec![result])
            };
            self.pes[idx].clock += self.config.costs.thread_create;
            let tid = self.fresh_tid();
            self.stats.threads_created += 1;
            let started = self.pes[idx].clock;
            let tso = match mode {
                CommMode::Single => EdenTso {
                    machine: Machine::enter_deep(tid, target),
                    job: Job::SendSingle { dest },
                    started,
                },
                CommMode::Stream => EdenTso {
                    machine: Machine::enter(tid, target),
                    job: Job::SendStream {
                        dest,
                        phase: StreamPhase::Spine,
                    },
                    started,
                },
            };
            self.pes[idx].run_q.push_back(tso);
        }
    }

    fn wake_tsos(&mut self, idx: usize, tids: Vec<ThreadId>) {
        for tid in tids {
            if let Some(mut w) = self.pes[idx].blocked.remove(&tid) {
                w.machine.wake();
                self.pes[idx].run_q.push_back(w);
            }
        }
    }

    // ------------------------------------------------------------------
    // GC
    // ------------------------------------------------------------------

    /// Collect this PE's private heap if its allocation area is full —
    /// independently, with no cross-PE synchronisation (the
    /// distributed-heap model's headline property).
    fn maybe_local_gc(&mut self, idx: usize) {
        if !self.pes[idx].area.needs_gc() {
            return;
        }
        let t0 = self.pes[idx].clock;
        self.set_state(idx, State::Gc);
        let roots = self.pes[idx].collect_roots();
        let pe = &mut self.pes[idx];
        let res = pe.collector.collect(&mut pe.heap, roots);
        let copy_words = self.config.costs.gc_copy_words(
            pe.collector.stats().collections.saturating_sub(1),
            res.live_words,
            self.config.alloc_area_words,
        );
        let pause = self.config.costs.gc_pause_local(copy_words);
        pe.clock = t0 + pause;
        pe.area.reset_after_gc();
        self.stats.local_gcs += 1;
        self.stats.gc_time += pause;
        self.stats.collected_words += res.collected_words;
        let t = self.pes[idx].clock;
        self.tracer.record(
            CapId(idx as u32),
            t,
            EventKind::GcDone {
                live_words: res.live_words,
                collected_words: res.collected_words,
                pause,
            },
        );
        self.set_state(idx, State::Running);
    }

    // ------------------------------------------------------------------
    // Misc
    // ------------------------------------------------------------------

    fn set_state(&mut self, idx: usize, state: State) {
        if self.pes[idx].last_state != Some(state) {
            self.pes[idx].last_state = Some(state);
            let t = self.pes[idx].clock;
            self.tracer.state(CapId(idx as u32), t, state);
        }
    }

    fn fresh_tid(&mut self) -> ThreadId {
        let t = ThreadId(self.next_tid);
        self.next_tid += 1;
        t
    }

    fn deadlock_report(&self) -> String {
        let mut s = String::from("deadlock: no PE can make progress\n");
        for pe in &self.pes {
            s.push_str(&format!(
                "  PE{}: clock={} blocked={} waiting-natives={} chans={}\n",
                pe.id,
                pe.clock,
                pe.blocked.len(),
                pe.natives_waiting.len(),
                pe.chans.len()
            ));
        }
        s
    }
}
