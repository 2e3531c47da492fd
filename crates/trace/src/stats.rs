//! Summary statistics over a trace: counters and state fractions.

use crate::event::{EventKind, State, Time};
use crate::timeline::Timeline;
use crate::tracer::Tracer;
use std::fmt;

/// Aggregated event counters for a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    pub sparks_created: u64,
    pub sparks_run_local: u64,
    /// All successful spark steals, intra-node and cross-node alike.
    pub sparks_stolen: u64,
    /// The subset of `sparks_stolen` that crossed an inter-node link
    /// (`SparkStolenRemote` events; batched).
    pub sparks_stolen_remote: u64,
    /// Words put on inter-node links by remote spark steals
    /// (payload + envelope).
    pub remote_steal_words: u64,
    pub sparks_pushed: u64,
    pub sparks_fizzled: u64,
    pub sparks_overflowed: u64,
    pub threads_created: u64,
    pub blackhole_blocks: u64,
    pub duplicate_work_events: u64,
    /// Total virtual time wasted in duplicate evaluation.
    pub duplicate_work_wasted: Time,
    pub gcs: u64,
    pub gc_live_words_last: u64,
    pub gc_collected_words: u64,
    /// Total time capabilities spent waiting for the world to stop
    /// (sum of `GcStart::barrier_wait`).
    pub gc_barrier_wait: Time,
    /// Total time spent in collections proper (sum of `GcDone::pause`).
    pub gc_pause: Time,
    pub messages_sent: u64,
    pub message_words: u64,
    pub messages_received: u64,
    pub processes_instantiated: u64,
    // Native (wall-clock) executor events. These mirror the
    // `NativeStats` counters the executor maintains itself; the
    // reconciliation tests assert the two bookkeepings agree exactly.
    /// Successful native steal operations (`NativeSteal` events).
    pub native_steals: u64,
    /// Extra deque elements batch-transferred by native steals.
    pub native_batch_moved: u64,
    /// Native steal attempts that lost a CAS race.
    pub native_steal_retries: u64,
    /// Native steal attempts that found the victim empty.
    pub native_steal_empties: u64,
    /// Lazy range splits performed by native workers.
    pub native_splits: u64,
    /// Tasks executed by native workers (sum of `NativeExec` counts).
    pub native_tasks: u64,
    /// The subset of `native_tasks` out of directly stolen ranges.
    pub native_tasks_stolen: u64,
    /// Idle-episode parks of native workers.
    pub native_parks: u64,
    /// Parked native workers that found work again.
    pub native_unparks: u64,
    /// Native `RunStart` events (per worker, per run).
    pub native_runs: u64,
    /// Native Eden PEs blocked on a full outbound channel.
    pub native_send_blocks: u64,
    /// Native Eden PEs blocked on empty inbound channel(s).
    pub native_recv_blocks: u64,
    /// Jobs completed by the `rph-server` front end.
    pub server_jobs: u64,
    /// Total admission-queue wait over those jobs, wall nanoseconds.
    pub server_queued_ns: u64,
    /// Total batch service time over those jobs, wall nanoseconds.
    pub server_service_ns: u64,
}

impl Counters {
    /// Derive counters from a recorded trace.
    pub fn from_tracer(tracer: &Tracer) -> Self {
        let mut c = Counters::default();
        for cap in 0..tracer.caps() {
            c.absorb(tracer, crate::event::CapId(cap as u32));
        }
        c
    }

    /// Counters over a single capability's events — the per-worker view
    /// the native reconciliation tests compare against
    /// `NativeStats::per_worker`.
    pub fn for_cap(tracer: &Tracer, cap: crate::event::CapId) -> Self {
        let mut c = Counters::default();
        c.absorb(tracer, cap);
        c
    }

    fn absorb(&mut self, tracer: &Tracer, cap: crate::event::CapId) {
        let c = self;
        for ev in tracer.events_for(cap) {
            match &ev.kind {
                EventKind::SparkCreated => c.sparks_created += 1,
                EventKind::SparkRunLocal => c.sparks_run_local += 1,
                EventKind::SparkStolen { .. } => c.sparks_stolen += 1,
                EventKind::SparkStolenRemote { words, .. } => {
                    c.sparks_stolen += 1;
                    c.sparks_stolen_remote += 1;
                    c.remote_steal_words += *words;
                }
                EventKind::SparkPushed { .. } => c.sparks_pushed += 1,
                EventKind::SparkFizzled => c.sparks_fizzled += 1,
                EventKind::SparkOverflow => c.sparks_overflowed += 1,
                EventKind::ThreadCreated { .. } => c.threads_created += 1,
                EventKind::BlockedOnBlackHole { .. } => c.blackhole_blocks += 1,
                EventKind::DuplicateWork { wasted } => {
                    c.duplicate_work_events += 1;
                    c.duplicate_work_wasted += *wasted;
                }
                EventKind::GcStart { barrier_wait } => c.gc_barrier_wait += *barrier_wait,
                EventKind::GcDone {
                    live_words,
                    collected_words,
                    pause,
                } => {
                    c.gcs += 1;
                    c.gc_live_words_last = *live_words;
                    c.gc_collected_words += *collected_words;
                    c.gc_pause += *pause;
                }
                EventKind::MsgSend { words, .. } => {
                    c.messages_sent += 1;
                    c.message_words += *words;
                }
                EventKind::MsgRecv { .. } => c.messages_received += 1,
                EventKind::NativeBlockSend { .. } => c.native_send_blocks += 1,
                EventKind::NativeBlockRecv { .. } => c.native_recv_blocks += 1,
                EventKind::ServerJob {
                    queued_ns,
                    service_ns,
                    ..
                } => {
                    c.server_jobs += 1;
                    c.server_queued_ns += *queued_ns;
                    c.server_service_ns += *service_ns;
                }
                EventKind::ProcessInstantiated { .. } => c.processes_instantiated += 1,
                EventKind::RunStart { .. } => c.native_runs += 1,
                EventKind::NativeSteal { moved, .. } => {
                    c.native_steals += 1;
                    c.native_batch_moved += *moved;
                }
                EventKind::NativeStealRetry { .. } => c.native_steal_retries += 1,
                EventKind::NativeStealEmpty { .. } => c.native_steal_empties += 1,
                EventKind::NativeSplit { .. } => c.native_splits += 1,
                EventKind::NativeExec { count, stolen } => {
                    c.native_tasks += *count;
                    if *stolen {
                        c.native_tasks_stolen += *count;
                    }
                }
                EventKind::NativePark => c.native_parks += 1,
                EventKind::NativeUnpark => c.native_unparks += 1,
                _ => {}
            }
        }
    }
}

/// Full per-run statistics: counters plus mean state fractions.
#[derive(Debug, Clone)]
pub struct TraceStats {
    pub counters: Counters,
    /// Mean fraction of the run the capabilities spent in each state,
    /// in [`State::ALL`] order.
    pub state_fractions: [(State, f64); 6],
    pub end_time: Time,
    pub caps: usize,
}

impl TraceStats {
    pub fn from_tracer(tracer: &Tracer) -> Self {
        let tl = Timeline::from_tracer(tracer);
        Self::from_parts(tracer, &tl)
    }

    pub fn from_parts(tracer: &Tracer, tl: &Timeline) -> Self {
        TraceStats {
            counters: Counters::from_tracer(tracer),
            state_fractions: State::ALL.map(|s| (s, tl.mean_fraction(s))),
            end_time: tl.end_time,
            caps: tracer.caps(),
        }
    }

    /// Mean fraction spent in `state`.
    pub fn fraction(&self, state: State) -> f64 {
        self.state_fractions
            .iter()
            .find(|(s, _)| *s == state)
            .map(|(_, f)| *f)
            .unwrap_or(0.0)
    }

    /// Mutator utilisation: mean running fraction.
    pub fn utilisation(&self) -> f64 {
        self.fraction(State::Running)
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "run: {} caps, {} units", self.caps, self.end_time)?;
        write!(f, "activity:")?;
        for (s, frac) in self.state_fractions {
            if frac > 0.0 {
                write!(f, " {}={:.1}%", s.name(), frac * 100.0)?;
            }
        }
        writeln!(f)?;
        let c = &self.counters;
        writeln!(
            f,
            "sparks: created={} run-local={} stolen={} pushed={} fizzled={}",
            c.sparks_created,
            c.sparks_run_local,
            c.sparks_stolen,
            c.sparks_pushed,
            c.sparks_fizzled
        )?;
        writeln!(
            f,
            "gc: count={} collected={}w | threads={} bh-blocks={} dup-work={} ({} wasted)",
            c.gcs,
            c.gc_collected_words,
            c.threads_created,
            c.blackhole_blocks,
            c.duplicate_work_events,
            c.duplicate_work_wasted
        )?;
        if c.messages_sent > 0 {
            writeln!(
                f,
                "messages: sent={} recv={} words={} processes={}",
                c.messages_sent, c.messages_received, c.message_words, c.processes_instantiated
            )?;
        }
        if c.native_send_blocks + c.native_recv_blocks > 0 {
            writeln!(
                f,
                "channel blocks: send={} recv={}",
                c.native_send_blocks, c.native_recv_blocks
            )?;
        }
        if c.native_tasks > 0 {
            writeln!(
                f,
                "native: tasks={} (stolen={}) steals={} (+{} batched) retries={} empties={} splits={} parks={}",
                c.native_tasks,
                c.native_tasks_stolen,
                c.native_steals,
                c.native_batch_moved,
                c.native_steal_retries,
                c.native_steal_empties,
                c.native_splits,
                c.native_parks
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CapId;

    #[test]
    fn counters_aggregate() {
        let mut t = Tracer::new(2);
        t.record(CapId(0), 0, EventKind::SparkCreated);
        t.record(CapId(0), 1, EventKind::SparkCreated);
        t.record(CapId(1), 2, EventKind::SparkStolen { victim: CapId(0) });
        t.record(CapId(1), 3, EventKind::SparkPushed { to: CapId(0) });
        t.record(CapId(1), 4, EventKind::DuplicateWork { wasted: 100 });
        t.record(CapId(0), 5, EventKind::GcStart { barrier_wait: 7 });
        t.record(
            CapId(0),
            5,
            EventKind::GcDone {
                live_words: 10,
                collected_words: 90,
                pause: 40,
            },
        );
        t.record(
            CapId(0),
            6,
            EventKind::GcDone {
                live_words: 20,
                collected_words: 80,
                pause: 60,
            },
        );
        t.record(
            CapId(0),
            7,
            EventKind::MsgSend {
                to: CapId(1),
                words: 64,
                tag: "data",
            },
        );
        let c = Counters::from_tracer(&t);
        assert_eq!(c.sparks_created, 2);
        assert_eq!(c.sparks_stolen, 1);
        assert_eq!(c.sparks_pushed, 1);
        assert_eq!(c.duplicate_work_wasted, 100);
        assert_eq!(c.gcs, 2);
        assert_eq!(c.gc_live_words_last, 20);
        assert_eq!(c.gc_collected_words, 170);
        assert_eq!(c.gc_barrier_wait, 7);
        assert_eq!(c.gc_pause, 100);
        assert_eq!(c.message_words, 64);
    }

    #[test]
    fn native_counters_aggregate_and_split_per_cap() {
        let mut t = Tracer::new(2);
        t.record(CapId(0), 0, EventKind::RunStart { tasks: 10 });
        t.record(CapId(1), 0, EventKind::RunStart { tasks: 10 });
        t.record(
            CapId(1),
            2,
            EventKind::NativeSteal {
                victim: CapId(0),
                moved: 3,
            },
        );
        t.record(
            CapId(1),
            3,
            EventKind::NativeStealRetry { victim: CapId(0) },
        );
        t.record(
            CapId(1),
            4,
            EventKind::NativeStealEmpty { victim: CapId(0) },
        );
        t.record(CapId(0), 5, EventKind::NativeSplit { exposed: 4 });
        t.record(
            CapId(0),
            6,
            EventKind::NativeExec {
                count: 6,
                stolen: false,
            },
        );
        t.record(
            CapId(1),
            7,
            EventKind::NativeExec {
                count: 4,
                stolen: true,
            },
        );
        t.record(CapId(1), 8, EventKind::NativePark);
        t.record(CapId(1), 9, EventKind::NativeUnpark);
        t.record(CapId(0), 10, EventKind::RunEnd);
        t.record(CapId(1), 10, EventKind::RunEnd);
        let c = Counters::from_tracer(&t);
        assert_eq!(c.native_runs, 2);
        assert_eq!(c.native_steals, 1);
        assert_eq!(c.native_batch_moved, 3);
        assert_eq!(c.native_steal_retries, 1);
        assert_eq!(c.native_steal_empties, 1);
        assert_eq!(c.native_splits, 1);
        assert_eq!(c.native_tasks, 10);
        assert_eq!(c.native_tasks_stolen, 4);
        assert_eq!(c.native_parks, 1);
        assert_eq!(c.native_unparks, 1);
        let c0 = Counters::for_cap(&t, CapId(0));
        assert_eq!(c0.native_tasks, 6);
        assert_eq!(c0.native_steals, 0);
        let c1 = Counters::for_cap(&t, CapId(1));
        assert_eq!(c1.native_tasks, 4);
        assert_eq!(c1.native_tasks_stolen, 4);
        let text = TraceStats::from_tracer(&t).to_string();
        assert!(text.contains("native: tasks=10"), "got {text}");
    }

    #[test]
    fn stats_fractions_and_display() {
        let mut t = Tracer::new(1);
        t.state(CapId(0), 0, State::Running);
        t.state(CapId(0), 80, State::Gc);
        t.state(CapId(0), 100, State::Idle); // end marker
        let st = TraceStats::from_tracer(&t);
        assert!((st.utilisation() - 0.8).abs() < 1e-12);
        assert!((st.fraction(State::Gc) - 0.2).abs() < 1e-12);
        let text = st.to_string();
        assert!(text.contains("running=80.0%"), "got {text}");
    }
}
