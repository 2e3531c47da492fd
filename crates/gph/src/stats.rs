//! Aggregated per-run statistics for the GpH runtime.

use rph_trace::Time;

/// Counters accumulated by [`crate::GphRuntime`] during a run (cheaper
/// than deriving everything from the event trace, and available even
/// with tracing disabled).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GphStats {
    /// Sparks recorded by `par`.
    pub sparks_created: u64,
    /// Sparks dropped because a pool was full.
    pub sparks_overflowed: u64,
    /// Sparks converted to work on their own capability.
    pub sparks_run_local: u64,
    /// Sparks obtained by stealing (intra-node and cross-node
    /// together; `steal_local + steal_remote == sparks_stolen`).
    pub sparks_stolen: u64,
    /// Successful steal operations whose victim shared the thief's
    /// node (shared-memory steal, one spark each).
    pub steal_local: u64,
    /// Successful steal operations that crossed an inter-node link
    /// (batched: one spark to run plus extras into the thief's pool).
    pub steal_remote: u64,
    /// Words put on inter-node links (remote steal transfers, remote
    /// spark pushes, remote thread migrations; payload + envelope).
    /// Zero on a single-node topology.
    pub remote_words: u64,
    /// Sparks pushed to idle capabilities by the push-model scheduler.
    pub sparks_pushed: u64,
    /// Sparks found already evaluated when converted (fizzled).
    pub sparks_fizzled: u64,
    /// Failed steal attempts.
    pub steal_failures: u64,
    /// Lightweight threads created.
    pub threads_created: u64,
    /// Threads that blocked on black holes.
    pub blackhole_blocks: u64,
    /// Duplicate evaluations detected (lazy black-holing).
    pub duplicate_evals: u64,
    /// Virtual time wasted in duplicate evaluation.
    pub duplicate_work_wasted: Time,
    /// Stop-the-world collections.
    pub gcs: u64,
    /// Virtual time capabilities spent waiting for the world to stop
    /// (GC request → all capabilities parked), summed over
    /// capabilities. This is the exact quantity §IV.A.1's improved
    /// barrier synchronisation targets.
    pub gc_barrier_wait: Time,
    /// Virtual time capabilities spent in stop-the-world collections
    /// proper (excluding the barrier wait), summed over capabilities.
    pub gc_pause: Time,
    /// Live words after the last collection.
    pub last_live_words: u64,
    /// Total words reclaimed (stop-the-world and minor collections).
    pub collected_words: u64,
    /// Context switches performed.
    pub ctx_switches: u64,
    /// Surplus runnable threads pushed to idle capabilities.
    pub threads_migrated: u64,
    /// Runnable threads stolen by idle capabilities (the §IV.A.2
    /// future-work extension; 0 unless `thread_stealing` is on).
    pub threads_stolen: u64,
    /// Independent local nursery collections (per-capability-nursery
    /// model).
    pub local_gcs: u64,
    /// Virtual time spent in independent minor collections (one
    /// capability each — never a world stop, so not part of
    /// [`GphStats::gc_stopped_time`]).
    pub minor_gc_time: Time,
    /// Words promoted from nurseries to the old generation by minor
    /// collections (the *measured* survivors whose evacuation the
    /// minor pause is priced on).
    pub promoted_words: u64,
    /// Grey-set steals between GC threads during parallel major
    /// collections (per-capability-nursery model only).
    pub grey_steals: u64,
}

impl GphStats {
    /// Total virtual time all capabilities spent stopped for GC
    /// (barrier wait + collection), summed over capabilities.
    pub fn gc_stopped_time(&self) -> Time {
        self.gc_barrier_wait + self.gc_pause
    }
}
