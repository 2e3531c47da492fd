//! Trace event types.
//!
//! Events mirror the instrumentation the paper's authors added to the
//! threaded GHC runtime: capability state changes, spark lifecycle, GC
//! phases, black-hole blocking/duplicate evaluation, and (for the Eden
//! runtime) message sends and receives.

/// Virtual time, in simulated work units (nominally ~1 ns each).
pub type Time = u64;

/// Identifier of a capability (GpH) or processing element (Eden).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CapId(pub u32);

impl CapId {
    /// Index into per-capability arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CapId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cap{}", self.0)
    }
}

/// Identifier of a lightweight (Haskell-level) thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u64);

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Activity state of a capability, matching the colour coding of the
/// paper's EdenTV traces (Fig. 2 caption):
///
/// * green — a Haskell computation is being run,
/// * yellow — runnable but waiting for system work or synchronisation,
/// * red — all threads blocked,
/// * blue — idle,
/// * plus an explicit GC state (the paper folds GC into the
///   synchronisation colour; we keep it separate because the GC barrier
///   is the object of study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum State {
    /// Running mutator work (paper: green).
    Running,
    /// Runnable, but waiting for system work or synchronisation
    /// (paper: yellow).
    Runnable,
    /// All local threads blocked, e.g. on black holes or channel data
    /// (paper: red).
    Blocked,
    /// No work at all (paper: small blue).
    Idle,
    /// Stopped for, or performing, garbage collection.
    Gc,
    /// Descheduled by the OS model (a virtual PE not currently mapped to
    /// a core; only occurs in oversubscribed Eden runs).
    Descheduled,
}

impl State {
    /// One-character tag used by the ASCII timeline renderer.
    pub fn glyph(self) -> char {
        match self {
            State::Running => '#',
            State::Runnable => '~',
            State::Blocked => 'x',
            State::Idle => '.',
            State::Gc => 'G',
            State::Descheduled => '-',
        }
    }

    /// Stable lowercase name for CSV output.
    pub fn name(self) -> &'static str {
        match self {
            State::Running => "running",
            State::Runnable => "runnable",
            State::Blocked => "blocked",
            State::Idle => "idle",
            State::Gc => "gc",
            State::Descheduled => "descheduled",
        }
    }

    /// All states, in rendering-legend order.
    pub const ALL: [State; 6] = [
        State::Running,
        State::Runnable,
        State::Blocked,
        State::Idle,
        State::Gc,
        State::Descheduled,
    ];
}

/// What happened. See [`Event`] for the carrier with time and location.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// The capability transitioned into `state`.
    StateChange { state: State },
    /// A spark was recorded via `par` into this capability's pool.
    SparkCreated,
    /// A spark from this capability's own pool was converted to work.
    SparkRunLocal,
    /// A spark was stolen from `victim`'s pool (work-pulling). Recorded
    /// on the *thief's* row. Under a cluster topology this is the
    /// intra-node (same shared-memory node) case; cross-node steals
    /// emit [`EventKind::SparkStolenRemote`] instead.
    SparkStolen { victim: CapId },
    /// A batched spark steal crossed an inter-node link: the thief took
    /// one spark to run plus `moved` extras into its own pool, putting
    /// `words` (payload + envelope) on the wire. Recorded on the
    /// *thief's* row.
    SparkStolenRemote {
        victim: CapId,
        moved: u64,
        words: u64,
    },
    /// A spark was pushed to the idle capability `to` (work-pushing).
    /// Recorded on the *donor's* row: the recipient may be behind in
    /// virtual time and only discovers the spark at its next poll.
    SparkPushed { to: CapId },
    /// A spark turned out to be already evaluated (fizzled) when it was
    /// about to run.
    SparkFizzled,
    /// A spark pool overflowed and a spark was discarded.
    SparkOverflow,
    /// A lightweight thread was created.
    ThreadCreated { thread: ThreadId },
    /// A lightweight thread finished.
    ThreadFinished { thread: ThreadId },
    /// A thread blocked on a black hole.
    BlockedOnBlackHole { thread: ThreadId },
    /// A thread was woken because a black hole it was blocked on was
    /// updated.
    WokenFromBlackHole { thread: ThreadId },
    /// Duplicate evaluation detected: this capability completed a thunk
    /// another thread had already updated (possible under lazy
    /// black-holing), wasting `wasted` work units.
    DuplicateWork { wasted: Time },
    /// A stop-the-world GC was requested by this capability.
    GcRequest,
    /// GC started (all capabilities reached the barrier).
    /// `barrier_wait` is how long the request took to stop the world —
    /// the quantity §IV.A.1's improved-sync optimisation targets.
    GcStart { barrier_wait: Time },
    /// GC finished; `live_words` survived, `collected_words` reclaimed,
    /// and the collection proper (excluding the barrier wait) paused
    /// this capability for `pause`. Independent per-capability
    /// collections (Eden PEs, GpH minor GCs) emit this with zero
    /// barrier cost in the preceding `GcStart`, or no `GcStart` at all.
    GcDone {
        live_words: u64,
        collected_words: u64,
        pause: Time,
    },
    /// A message was sent to `to` (Eden middleware). `words` is the
    /// serialised payload size.
    MsgSend {
        to: CapId,
        words: u64,
        tag: &'static str,
    },
    /// A message from `from` was delivered into the local heap.
    MsgRecv {
        from: CapId,
        words: u64,
        tag: &'static str,
    },
    /// A remote process was instantiated on `on`.
    ProcessInstantiated { on: CapId },
    /// Free-form annotation (used by examples and tests).
    Note(&'static str),

    // --- native (wall-clock) executor events -------------------------
    // Emitted by the `rph-native` pool workers; timestamps are
    // nanoseconds of real time since the run's epoch rather than
    // simulated work units, but the same `Time` axis and tooling apply.
    /// A native run of `tasks` tasks started on this worker.
    RunStart { tasks: u64 },
    /// The native run ended on this worker.
    RunEnd,
    /// A native steal from `victim` succeeded, batch-transferring
    /// `moved` extra deque elements beyond the one the thief runs.
    NativeSteal { victim: CapId, moved: u64 },
    /// A native steal attempt lost a CAS race against `victim`.
    NativeStealRetry { victim: CapId },
    /// A native steal attempt found `victim`'s deque empty.
    NativeStealEmpty { victim: CapId },
    /// A lazy range split exposed `exposed` tasks as a new stealable
    /// range on this worker's own deque.
    NativeSplit { exposed: u64 },
    /// This worker executed `count` tasks as one contiguous range,
    /// acquired locally (`stolen == false`: seeded, popped back or
    /// batch-transferred in) or directly by a steal.
    NativeExec { count: u64, stolen: bool },
    /// An idle worker parked on the eventcount (one event per idle
    /// episode, matching `NativeStats::parks`).
    NativePark,
    /// A previously parked worker found work again, ending the idle
    /// episode.
    NativeUnpark,
    /// A native Eden PE blocked sending into `to`'s full bounded
    /// channel — back-pressure engaged (sender-side analogue of the
    /// sim's `waitForSpace`).
    NativeBlockSend { to: CapId },
    /// A native Eden PE blocked receiving: on the channel from `from`,
    /// or multiplexed across all of its inbound channels (`None`, the
    /// master–worker master's select).
    NativeBlockRecv { from: Option<CapId> },
    /// A job completed on the `rph-server` front end. Recorded on the
    /// dispatcher's (master) row at completion time; `queued_ns` is
    /// how long the job sat in the admission queue and `service_ns`
    /// how long its batch took to execute, both in wall nanoseconds.
    ServerJob {
        job: u64,
        queued_ns: u64,
        service_ns: u64,
    },
}

/// A single trace record: *when*, *where*, *what*.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub time: Time,
    pub cap: CapId,
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glyphs_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for s in State::ALL {
            assert!(seen.insert(s.glyph()), "duplicate glyph for {s:?}");
        }
    }

    #[test]
    fn names_are_unique_and_lowercase() {
        let mut seen = std::collections::HashSet::new();
        for s in State::ALL {
            let n = s.name();
            assert_eq!(n, n.to_lowercase());
            assert!(seen.insert(n));
        }
    }

    #[test]
    fn cap_display() {
        assert_eq!(CapId(3).to_string(), "cap3");
        assert_eq!(ThreadId(9).to_string(), "t9");
    }
}
