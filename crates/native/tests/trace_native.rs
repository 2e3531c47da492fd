//! Differential and reconciliation tests for the native executor's
//! wall-clock tracing layer.
//!
//! Two bookkeepings exist for every traced run: the `NativeStats`
//! counters the workers maintain directly, and the event stream each
//! worker records into its trace buffer. They are written at the same
//! program points, so they must agree *exactly* — any divergence means
//! an event was dropped, double-recorded, or mapped to the wrong
//! capability. The tests here also pin that tracing is an observer:
//! traced and untraced runs produce identical results, and identical
//! schedules wherever the schedule is deterministic.

use rph_native::{execute, Job, NativeConfig};
use rph_trace::{CapId, Counters, EventKind, State, Timeline, Tracer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

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

/// Tasks heavy enough (~tens of µs) that thieves land real steals,
/// splits and parks while other workers still hold work.
struct Crunch {
    tasks: usize,
    iters: u64,
}

impl Job for Crunch {
    type Out = u64;
    fn len(&self) -> usize {
        self.tasks
    }
    fn run(&self, idx: usize) -> u64 {
        let mut acc = idx as u64;
        for i in 0..self.iters {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        idx as u64
    }
}

/// Runs whose schedule is fully deterministic: a lone participant has
/// no victims, and a one-task run invites no helper.
fn deterministic_runs() -> Vec<(Squares, NativeConfig)> {
    vec![
        (Squares(500), NativeConfig::steal(1)),
        (Squares(1), NativeConfig::steal(4)),
    ]
}

#[test]
fn tracing_is_a_pure_observer_results_identical() {
    for (job, base) in deterministic_runs() {
        let plain = execute(&job, &base);
        let traced = execute(&job, &base.clone().with_trace());
        assert_eq!(plain.values, traced.values, "{base:?}");
        // Deterministic schedule: the full counter set must match too.
        assert_eq!(plain.stats, traced.stats, "{base:?}");
        assert!(plain.trace.is_none());
        assert!(traced.trace.is_some());
        assert_eq!(traced.trace_dropped, 0, "{base:?}");
    }
    let job = Squares(500);
    // Multi-worker stealing schedules are nondeterministic; results
    // and structural invariants must still be untouched by tracing.
    for w in [2, 4] {
        let base = NativeConfig::steal(w);
        let plain = execute(&job, &base);
        let traced = execute(&job, &base.clone().with_trace());
        assert_eq!(plain.values, traced.values, "{base:?}");
        for out in [&plain, &traced] {
            assert_eq!(out.stats.tasks_run, 500);
            assert_eq!(
                out.stats.tasks_local + out.stats.tasks_stolen,
                out.stats.tasks_run
            );
            assert_eq!(out.stats.per_worker.iter().sum::<u64>(), 500);
        }
    }
}

/// The seat protocol as the trace shows it, for one traced run: the
/// caller's row (0) brackets the run with one RunStart/RunEnd; a
/// helper's row holds one such bracket if the helper took a seat and
/// nothing otherwise; and only the caller ever parks.
fn assert_seats(trace: &Tracer) {
    for cap in 0..trace.caps() {
        let kinds: Vec<&EventKind> = trace
            .events_for(CapId(cap as u32))
            .iter()
            .map(|e| &e.kind)
            .filter(|k| !matches!(k, EventKind::StateChange { .. }))
            .collect();
        if cap > 0 && kinds.is_empty() {
            continue;
        }
        assert!(
            matches!(kinds.first(), Some(EventKind::RunStart { .. })),
            "row {cap} does not open with its seat: {kinds:?}"
        );
        assert!(matches!(kinds.last(), Some(EventKind::RunEnd)), "row {cap}");
        let starts = kinds
            .iter()
            .filter(|k| matches!(k, EventKind::RunStart { .. }))
            .count();
        assert_eq!(starts, 1, "row {cap}: one seat per run");
        if cap > 0 {
            assert!(
                !kinds.iter().any(|k| matches!(k, EventKind::NativePark)),
                "helper {cap} parked inside a run"
            );
        }
    }
}

/// Event-stream totals must equal the directly-maintained counters,
/// globally and per worker, under multi-thief stress.
#[test]
fn events_reconcile_with_counters_under_steal_stress() {
    for workers in [2usize, 4, 8] {
        let cfg = NativeConfig::steal(workers).with_trace();
        let job = Crunch {
            tasks: 512,
            iters: 20_000,
        };
        let out = execute(&job, &cfg);
        assert_eq!(out.values, (0..512).collect::<Vec<u64>>(), "{cfg:?}");
        assert_eq!(
            out.trace_dropped, 0,
            "{cfg:?}: buffer overflow would make totals non-exhaustive"
        );
        let trace = out.trace.as_ref().expect("traced run returns a tracer");
        assert_eq!(trace.caps(), workers);

        let c = Counters::from_tracer(trace);
        let s = &out.stats;
        assert_eq!(c.native_tasks, s.tasks_run, "{cfg:?}");
        assert_eq!(c.native_tasks_stolen, s.tasks_stolen, "{cfg:?}");
        assert_eq!(c.native_steals, s.steal_ops, "{cfg:?}");
        assert_eq!(c.native_batch_moved, s.batch_moved, "{cfg:?}");
        assert_eq!(c.native_steal_retries, s.steal_retries, "{cfg:?}");
        assert_eq!(c.native_steal_empties, s.steal_empties, "{cfg:?}");
        assert_eq!(c.native_splits, s.splits, "{cfg:?}");
        assert_eq!(c.native_parks, s.parks, "{cfg:?}");
        assert_seats(trace);

        // Per-worker attribution: each capability's executed-task
        // events must sum to that worker's per_worker count.
        for w in 0..workers {
            let pc = Counters::for_cap(trace, CapId(w as u32));
            assert_eq!(
                pc.native_tasks, s.per_worker[w],
                "{cfg:?}: worker {w} event total != counter"
            );
        }

        // The trace renders as a well-formed timeline with real
        // running time on it.
        let tl = Timeline::from_tracer(trace);
        assert!(tl.end_time > 0, "{cfg:?}");
        assert!(
            tl.mean_fraction(State::Running) > 0.0,
            "{cfg:?}: no running intervals in the timeline"
        );
    }
}

/// The first task a helper runs holds the run open for much longer
/// than the 10 ms park timeout; every task on the calling thread waits
/// until that hold has begun, so the hold never lands on the caller.
struct HelperHolds {
    caller: std::thread::ThreadId,
    held: AtomicBool,
    hold: Duration,
}

impl Job for HelperHolds {
    type Out = u64;
    fn len(&self) -> usize {
        4
    }
    fn run(&self, idx: usize) -> u64 {
        if std::thread::current().id() == self.caller {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !self.held.load(Ordering::Acquire) {
                assert!(Instant::now() < deadline, "helpers never ran");
                std::hint::spin_loop();
            }
        } else if !self.held.swap(true, Ordering::AcqRel) {
            let until = Instant::now() + self.hold;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        idx as u64
    }
}

/// The idle helpers leave instead of parking, so the caller is the one
/// idle participant left, and its one idle episode counts ONE park
/// however many timeout wakeups it spans — the pre-fix counting
/// inflated `parks` by roughly hold-time / 10 ms. The hold must
/// outlast the caller's `SPIN_SWEEPS` yielding sweeps before it parks,
/// which on a loaded two-vCPU host can take well over 100 ms.
#[test]
fn parks_count_idle_episodes_not_timeout_wakeups() {
    let job = HelperHolds {
        caller: std::thread::current().id(),
        held: AtomicBool::new(false),
        hold: Duration::from_millis(500),
    };
    let out = execute(&job, &NativeConfig::steal(4).with_trace());
    assert_eq!(out.values, vec![0, 1, 2, 3]);
    assert_eq!(out.stats.parks, 1, "{:?}", out.stats);
    // And the trace agrees with the (correct) counter: one park, on the
    // caller's row.
    let trace = out.trace.as_ref().unwrap();
    assert_seats(trace);
    let c = Counters::from_tracer(trace);
    assert_eq!(c.native_parks, 1);
    assert_eq!(Counters::for_cap(trace, CapId(0)).native_parks, 1);
    assert!(
        c.native_unparks <= c.native_parks,
        "a participant can only unpark out of an episode it parked in: {c:?}"
    );
    assert_eq!(out.trace_dropped, 0);
}

/// A tiny trace buffer must drop (and count) events instead of
/// allocating or corrupting the stream.
#[test]
fn overflowing_trace_buffer_reports_drops() {
    let cfg = NativeConfig::steal(2).with_trace().with_trace_cap(8);
    let out = execute(&Squares(500), &cfg);
    assert_eq!(out.values.len(), 500);
    assert!(
        out.trace_dropped > 0,
        "an 8-event buffer cannot hold a 500-task run's events"
    );
    // What *was* recorded still maps into a valid tracer.
    let trace = out.trace.as_ref().unwrap();
    assert!(trace.caps() == 2);
}
