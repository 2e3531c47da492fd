//! # rph-native — real-thread work-stealing execution
//!
//! Everything else in this repository measures the paper's effects in
//! *virtual* time on the deterministic simulator. This crate is the
//! second backend: the same workload decompositions on **real OS
//! threads**, scheduled through the lock-free Chase–Lev deque of
//! [`rph_deque::chase_lev`] — the data structure §IV.A.2 of the paper
//! credits for eliminating "any hand-shaking when sharing work".
//!
//! Design (v2, persistent pool + adaptive granularity):
//!
//! * A workload is decomposed into a flat set of **pure tasks**
//!   ([`Job`]): `run(i)` reads only the job description and produces a
//!   fully-evaluated result. There is no shared mutable graph heap —
//!   like Eden processes, workers "communicate only WHNF data", here
//!   by writing each task's result into its slot of a shared
//!   result heap exactly once.
//! * A [`Pool`] spawns its helper threads **once** and accepts
//!   repeated [`Pool::try_execute`] calls — wave-structured workloads
//!   (APSP's n pivot waves) reuse the same threads instead of paying n
//!   spawn/join barriers. The calling thread is participant 0 of every
//!   run: it seeds its own deque, invites only as many helpers as the
//!   run has tasks, and works alongside them, as a GHC capability
//!   carries on after a `par`. [`execute`] remains the one-shot
//!   convenience wrapper.
//! * Each participant owns a `chase_lev::Worker` deque of packed
//!   `(lo, hi)` index ranges (`rph_deque::Range32`); every other
//!   participant holds a `Stealer` handle onto it.
//! * Work starts on the caller's deque as one range and idle
//!   participants pull it (the paper's work stealing), under
//!   **lazy range splitting**: ranges execute sequentially at the
//!   owner end and fission only under observed thief demand.
//! * Thieves take up to half a victim's deque per probe
//!   (`steal_batch_and_pop`), visiting victims in a **randomized
//!   order**: a per-worker xorshift permutation per sweep, seeded from
//!   `NativeConfig::seed` so runs replay identically;
//!   idle helpers spin briefly, then leave the run, while an idle
//!   caller **parks** on a Condvar-backed eventcount, woken by new
//!   pushes or run completion. Hot shared words (deque `top`/`bottom`, park flags,
//!   per-worker stats slots, run state) are cache-line padded
//!   (`rph_deque::CachePadded`) against false sharing.
//! * With [`NativeConfig::trace`] set, every worker records
//!   wall-clock events (run start/end, executed ranges, steal
//!   successes/retries/empties, batch transfers, lazy splits,
//!   park/unpark) into a pre-allocated lock-free buffer, drained by
//!   `Pool::try_execute` into an [`rph_trace::Tracer`] — so native runs
//!   render the same per-core activity timelines, CSVs and occupancy
//!   fractions as the simulators (the paper's Fig. 2/4 view), with
//!   time in nanoseconds.
//!
//! The deterministic simulator remains the correctness oracle: the
//! differential tests (in `rph-workloads` and the top-level
//! integration suite) assert that native results are bit-identical to
//! `GphRuntime` results for every workload at 1, 2, 3, 4, 5 and 8
//! workers.

//! ## The second native backend: Eden-style message passing
//!
//! Since PR 5 this crate hosts *both* sides of the paper's comparison
//! on real threads, selected by [`NativeConfig::backend`]:
//!
//! * [`BackendKind::Steal`] — the shared-heap work-stealing executor
//!   above ([`Pool`], [`execute`]).
//! * [`BackendKind::Eden`] — one OS thread per PE with **private
//!   working memory**, communicating only fully-evaluated [`Packet`]s
//!   over bounded SPSC channels ([`bounded`]), through the five
//!   skeletons the paper's workloads need, all on one PE engine:
//!   [`par_map`] (static farm), [`master_worker`] (demand-driven
//!   farm), [`ring`] (wavefronts), [`try_par_map_reduce`] (folding
//!   farm) and [`exchange`] (step barriers). Channel sends, receives and
//!   blocks land in the same wall-clock trace machinery, so Eden runs
//!   render the same per-core timelines — now with message events.

mod cancel;
mod channel;
mod eden;
mod error;
mod executor;
mod park;
mod pool;
mod skeletons;
mod trace;
mod victim;

pub use cancel::CancelToken;
pub use channel::{bounded, Packet, Receiver, Sender, Wordsize};
pub use error::{EdenIncomplete, JobPanicked, RunError};
pub use executor::{
    execute, try_execute, BackendKind, Job, NativeConfig, NativeOutcome, NativeStats,
};
pub use pool::Pool;
pub use skeletons::{
    exchange, master_worker, par_map, ring, try_exchange, try_par_map_reduce, try_ring,
    ExchangeJob, RingJob, Skeleton,
};
