//! Wall-clock event tracing for the pool workers.
//!
//! Every optimisation in the paper's §IV was motivated by looking at
//! per-capability activity traces, not aggregate counters — so the
//! native backend must produce the same Fig-2-style timelines the
//! simulators do. The constraint is the hot path: workers must not
//! take locks or allocate while scheduling. The design:
//!
//! * Each worker owns a [`TraceBuf`]: a buffer of compact [`NEvent`]
//!   records **pre-allocated once** at thread start
//!   (`NativeConfig::trace_cap` slots). Recording is a bounds check, a
//!   monotonic clock read and a slot write — no locks, no allocation,
//!   no cross-thread traffic. When tracing is disabled the record call
//!   is a single predictable branch on a thread-local bool, so
//!   untraced runs pay nothing measurable.
//! * The buffer is bounded: once full, further events are counted in
//!   `dropped` instead of recorded (the counters in
//!   [`crate::NativeStats`] remain exact regardless). The
//!   reconciliation tests assert `dropped == 0` before comparing event
//!   totals against counters.
//! * At run end — off the hot path, under the pool's control lock each
//!   worker already takes to publish its stats — the buffer is flushed
//!   to the coordinator, and `Pool::try_execute` maps the compact records
//!   into [`rph_trace`] [`Event`]s (state changes plus the native
//!   event kinds) on one [`Tracer`] row per worker. All of the
//!   existing tooling — ASCII timelines, CSV, SVG, occupancy
//!   fractions — then applies unchanged, with time in nanoseconds.

use rph_trace::{CapId, EventKind, State, Time, Tracer, WallClock};

/// A compact trace record: nanoseconds since the run epoch plus what
/// happened. Kept `Copy` and small so the hot-path write is a couple
/// of stores.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NEvent {
    t: Time,
    kind: NEventKind,
}

/// What a worker can observe about itself. `u32` payloads keep the
/// record small; worker ids and range lengths both fit by
/// construction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum NEventKind {
    /// This worker entered a run of `tasks` tasks.
    RunStart { tasks: u64 },
    /// This worker finished the run.
    RunEnd,
    /// Started executing a range (state goes Running).
    ExecStart,
    /// Finished a contiguous executed range of `count` tasks (state
    /// goes back to Runnable — popping or stealing).
    ExecEnd { count: u32, stolen: bool },
    /// A steal from `victim` succeeded, batch-moving `moved` extras.
    StealOk { victim: u32, moved: u32 },
    /// A steal from `victim` lost its CAS race.
    StealRetry { victim: u32 },
    /// `victim`'s deque was empty.
    StealEmpty { victim: u32 },
    /// A lazy split exposed `exposed` tasks as a new stealable range.
    Split { exposed: u32 },
    /// This worker parked (one event per idle episode).
    Park,
    /// This worker found work again after parking.
    Unpark,
    /// Eden backend: a packet of `words` heap words left for PE `to`.
    MsgSend {
        to: u32,
        words: u64,
        tag: &'static str,
    },
    /// Eden backend: a packet of `words` heap words arrived from PE
    /// `from`.
    MsgRecv {
        from: u32,
        words: u64,
        tag: &'static str,
    },
    /// Eden backend: the channel to PE `to` was full — this PE blocks
    /// until the consumer drains it (back-pressure).
    BlockSend { to: u32 },
    /// Eden backend: the channel from PE `from` was empty — this PE
    /// blocks until a packet arrives.
    BlockRecv { from: u32 },
    /// Eden backend: the master found *every* result channel empty and
    /// blocks multiplexed on all of them (no single source).
    BlockRecvAny,
    /// Eden backend: a blocked channel operation completed.
    Unblock,
}

/// Per-worker, pre-allocated event buffer (see module docs).
pub(crate) struct TraceBuf {
    on: bool,
    clock: WallClock,
    events: Vec<NEvent>,
    cap: usize,
    dropped: u64,
}

impl TraceBuf {
    /// A buffer of `cap` slots, allocated up front; disabled buffers
    /// allocate nothing and never record.
    pub(crate) fn new(on: bool, cap: usize) -> Self {
        TraceBuf {
            on,
            clock: WallClock::start(),
            events: Vec::with_capacity(if on { cap } else { 0 }),
            cap,
            dropped: 0,
        }
    }

    /// Adopt the run's shared epoch so all workers (and the run's wall
    /// measurement) stamp on the same zero.
    pub(crate) fn begin_run(&mut self, clock: WallClock) {
        self.clock = clock;
    }

    /// Record `kind` now. The no-trace fast path is the first branch.
    #[inline]
    pub(crate) fn record(&mut self, kind: NEventKind) {
        if !self.on {
            return;
        }
        if self.events.len() < self.cap {
            let t = self.clock.now();
            self.events.push(NEvent { t, kind });
        } else {
            self.dropped += 1;
        }
    }

    /// Move this run's records into `out` (the coordinator's per-worker
    /// slot) and return how many events were dropped; resets the buffer
    /// for the next run without giving up its allocation.
    pub(crate) fn flush_into(&mut self, out: &mut Vec<NEvent>) -> u64 {
        out.clear();
        out.extend_from_slice(&self.events);
        self.events.clear();
        std::mem::take(&mut self.dropped)
    }
}

/// Map one worker's compact records onto `tracer` row `cap`, emitting
/// both the native event kinds (for counter reconciliation) and the
/// state changes (for the timeline): Runnable while looking for work,
/// Running while executing a range, Idle while parked and after the
/// run ends.
pub(crate) fn map_events(tracer: &mut Tracer, cap: CapId, events: &[NEvent]) {
    let victim = |v: u32| CapId(v);
    for ev in events {
        let t = ev.t;
        match ev.kind {
            NEventKind::RunStart { tasks } => {
                tracer.state(cap, t, State::Runnable);
                tracer.record(cap, t, EventKind::RunStart { tasks });
            }
            NEventKind::RunEnd => {
                tracer.record(cap, t, EventKind::RunEnd);
                tracer.state(cap, t, State::Idle);
            }
            NEventKind::ExecStart => tracer.state(cap, t, State::Running),
            NEventKind::ExecEnd { count, stolen } => {
                tracer.record(
                    cap,
                    t,
                    EventKind::NativeExec {
                        count: count as u64,
                        stolen,
                    },
                );
                tracer.state(cap, t, State::Runnable);
            }
            NEventKind::StealOk { victim: v, moved } => tracer.record(
                cap,
                t,
                EventKind::NativeSteal {
                    victim: victim(v),
                    moved: moved as u64,
                },
            ),
            NEventKind::StealRetry { victim: v } => {
                tracer.record(cap, t, EventKind::NativeStealRetry { victim: victim(v) })
            }
            NEventKind::StealEmpty { victim: v } => {
                tracer.record(cap, t, EventKind::NativeStealEmpty { victim: victim(v) })
            }
            NEventKind::Split { exposed } => tracer.record(
                cap,
                t,
                EventKind::NativeSplit {
                    exposed: exposed as u64,
                },
            ),
            NEventKind::Park => {
                tracer.record(cap, t, EventKind::NativePark);
                tracer.state(cap, t, State::Idle);
            }
            NEventKind::Unpark => {
                tracer.record(cap, t, EventKind::NativeUnpark);
                tracer.state(cap, t, State::Runnable);
            }
            NEventKind::MsgSend { to, words, tag } => tracer.record(
                cap,
                t,
                EventKind::MsgSend {
                    to: CapId(to),
                    words,
                    tag,
                },
            ),
            NEventKind::MsgRecv { from, words, tag } => tracer.record(
                cap,
                t,
                EventKind::MsgRecv {
                    from: CapId(from),
                    words,
                    tag,
                },
            ),
            NEventKind::BlockSend { to } => {
                tracer.record(cap, t, EventKind::NativeBlockSend { to: CapId(to) });
                tracer.state(cap, t, State::Blocked);
            }
            NEventKind::BlockRecv { from } => {
                tracer.record(
                    cap,
                    t,
                    EventKind::NativeBlockRecv {
                        from: Some(CapId(from)),
                    },
                );
                tracer.state(cap, t, State::Blocked);
            }
            NEventKind::BlockRecvAny => {
                tracer.record(cap, t, EventKind::NativeBlockRecv { from: None });
                tracer.state(cap, t, State::Blocked);
            }
            NEventKind::Unblock => tracer.state(cap, t, State::Runnable),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rph_trace::Counters;

    #[test]
    fn disabled_buffer_records_nothing_and_allocates_nothing() {
        let mut b = TraceBuf::new(false, 1024);
        assert_eq!(b.events.capacity(), 0);
        b.record(NEventKind::RunStart { tasks: 5 });
        let mut out = Vec::new();
        assert_eq!(b.flush_into(&mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn full_buffer_counts_drops_instead_of_growing() {
        let mut b = TraceBuf::new(true, 2);
        b.record(NEventKind::ExecStart);
        b.record(NEventKind::RunEnd);
        b.record(NEventKind::Park);
        assert_eq!(b.events.len(), 2);
        let mut out = Vec::new();
        assert_eq!(b.flush_into(&mut out), 1);
        assert_eq!(out.len(), 2);
        // The buffer is reset and keeps recording the next run.
        b.record(NEventKind::RunEnd);
        assert_eq!(b.flush_into(&mut out), 0);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn mapping_produces_reconcilable_counters_and_states() {
        let mut b = TraceBuf::new(true, 64);
        b.record(NEventKind::RunStart { tasks: 8 });
        b.record(NEventKind::StealEmpty { victim: 1 });
        b.record(NEventKind::StealOk {
            victim: 1,
            moved: 3,
        });
        b.record(NEventKind::ExecStart);
        b.record(NEventKind::Split { exposed: 2 });
        b.record(NEventKind::ExecEnd {
            count: 6,
            stolen: true,
        });
        b.record(NEventKind::Park);
        b.record(NEventKind::Unpark);
        b.record(NEventKind::RunEnd);
        let mut out = Vec::new();
        b.flush_into(&mut out);
        let mut tracer = Tracer::new(1);
        map_events(&mut tracer, CapId(0), &out);
        let c = Counters::for_cap(&tracer, CapId(0));
        assert_eq!(c.native_runs, 1);
        assert_eq!(c.native_steals, 1);
        assert_eq!(c.native_batch_moved, 3);
        assert_eq!(c.native_steal_empties, 1);
        assert_eq!(c.native_splits, 1);
        assert_eq!(c.native_tasks, 6);
        assert_eq!(c.native_tasks_stolen, 6);
        assert_eq!(c.native_parks, 1);
        assert_eq!(c.native_unparks, 1);
    }
}
