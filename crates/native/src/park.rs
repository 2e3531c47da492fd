//! Idle-worker parking: a Condvar-backed eventcount.
//!
//! An idle worker that has swept every deque fruitlessly for a while
//! should *sleep*, not burn a core on `yield_now` — the paper's
//! experiments charge idle capabilities nothing, and a busy-waiting
//! thief on a loaded host actively steals cycles from the workers that
//! still hold work. The protocol here is the classic eventcount:
//!
//! 1. The would-be sleeper reads the epoch, registers itself in
//!    `sleepers` (SeqCst), fences, and only then re-checks for work.
//! 2. A producer makes new work visible (deque push), fences, and reads
//!    `sleepers`; if non-zero it bumps the epoch *under the lock* and
//!    notifies.
//! 3. The sleeper blocks only while the epoch still equals the value it
//!    read, checked under the same lock.
//!
//! No lost wakeup is possible: the two SeqCst fences order each
//! sleeper/producer pair — either the producer's `sleepers` read sees
//! the registration (so it notifies, and the epoch check under the lock
//! catches a bump that lands before the sleeper blocks), or the
//! sleeper's work re-check happens after the producer's push and finds
//! the work. A bounded `wait_timeout` backstops the argument: even a
//! bug here would cost a few milliseconds of latency, never a hang.

use rph_deque::CachePadded;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Safety-net bound on one blocked wait.
const PARK_TIMEOUT: Duration = Duration::from_millis(10);

fn lock(m: &Mutex<()>) -> MutexGuard<'_, ()> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A Condvar-backed eventcount (see module docs for the protocol).
///
/// The two park flags are cache-line padded: `sleepers` is written by
/// every parking/unparking worker while `notify_all` — called on every
/// push, split and task completion, i.e. from the busy workers' hot
/// paths — only *reads* it. Unpadded, each park/unpark would bounce
/// the line under every producer's fast-path read (and `epoch` bumps
/// would invalidate it again); padded, the producer fast path stays a
/// read of a line that changes only when sleepers actually come or go.
pub(crate) struct EventCount {
    epoch: CachePadded<AtomicU64>,
    sleepers: CachePadded<AtomicU64>,
    mutex: Mutex<()>,
    cv: Condvar,
}

impl EventCount {
    pub(crate) fn new() -> Self {
        EventCount {
            epoch: CachePadded::new(AtomicU64::new(0)),
            sleepers: CachePadded::new(AtomicU64::new(0)),
            mutex: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Wake every parked worker, if any might be parked. Callers must
    /// already have made the wake-worthy state (a deque push, the
    /// completion flag) visible before calling.
    pub(crate) fn notify_all(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) == 0 {
            return;
        }
        let _g = lock(&self.mutex);
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.cv.notify_all();
    }

    /// Park until the next [`Self::notify_all`], unless `still_idle` —
    /// re-evaluated *after* registering as a sleeper — reports that
    /// work or completion slipped in. Returns true iff the thread
    /// actually blocked.
    ///
    /// Caller contract for *counting* parks: `park_if` also returns
    /// true when the wait merely hit the [`PARK_TIMEOUT`] safety net,
    /// and an idle worker will typically loop straight back in here.
    /// Counting every true return therefore inflates the park counter
    /// by one per 10 ms of idleness. Callers that maintain statistics
    /// must count one park per *idle episode* — increment on the first
    /// true return and not again until work has actually been found
    /// (see `RunCtx::run` in `pool.rs`).
    pub(crate) fn park_if(&self, still_idle: impl Fn() -> bool) -> bool {
        let e = self.epoch.load(Ordering::Relaxed);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let mut slept = false;
        if still_idle() {
            let mut g = lock(&self.mutex);
            while self.epoch.load(Ordering::Relaxed) == e {
                let (g2, result) = self
                    .cv
                    .wait_timeout(g, PARK_TIMEOUT)
                    .unwrap_or_else(|err| err.into_inner());
                g = g2;
                slept = true;
                if result.timed_out() {
                    break;
                }
            }
            drop(g);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        slept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn notify_with_no_sleepers_is_cheap_and_safe() {
        let ec = EventCount::new();
        ec.notify_all();
        // A sleeper whose recheck finds work never blocks.
        assert!(!ec.park_if(|| false));
    }

    #[test]
    fn parked_thread_wakes_on_notify() {
        let ec = Arc::new(EventCount::new());
        let ready = Arc::new(AtomicBool::new(false));
        let h = {
            let ec = Arc::clone(&ec);
            let ready = Arc::clone(&ready);
            std::thread::spawn(move || {
                let mut parked_once = false;
                while !ready.load(Ordering::Acquire) {
                    parked_once |= ec.park_if(|| !ready.load(Ordering::Acquire));
                }
                parked_once
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        ready.store(true, Ordering::Release);
        ec.notify_all();
        // The thread terminates promptly and really slept at least once.
        assert!(h.join().unwrap());
    }

    #[test]
    fn timed_out_wait_still_reports_blocked() {
        // Nobody ever notifies: the wait can only end via the
        // PARK_TIMEOUT safety net. The return value must still be
        // true (the thread really blocked) — which is exactly why
        // callers must not count one park per true return (see the
        // park_if docs), or a single idle episode spanning several
        // timeouts is double-counted.
        let ec = EventCount::new();
        let t0 = std::time::Instant::now();
        assert!(ec.park_if(|| true));
        assert!(t0.elapsed() >= PARK_TIMEOUT);
    }
}
