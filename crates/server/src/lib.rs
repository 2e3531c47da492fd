//! # rph-server — a job-server front end over the persistent pool
//!
//! The native executors answer *how fast one run goes*; this crate
//! answers *what it takes to keep them serving*: a long-running,
//! multi-tenant job server in front of the persistent work-stealing
//! [`rph_native::Pool`] (or the Eden master–worker skeleton — both
//! backends serve traffic through the same dispatcher).
//!
//! The service pipeline, front to back:
//!
//! 1. **Admission control** — a bounded ingress queue measured in
//!    *units* (a job's independent tasks). Submissions above the
//!    high-water mark are rejected immediately with
//!    [`SubmitError::Backpressure`]; callers shed load instead of the
//!    queue growing without bound.
//! 2. **Weighted fair scheduling** — deficit round robin across
//!    per-tenant FIFO queues: while several tenants are backlogged,
//!    each receives units in proportion to its configured weight, so
//!    one chatty tenant cannot starve the rest.
//! 3. **Batching** — many small jobs are packed into one flat native
//!    job, so the pool's packed `(lo, hi)` range machinery
//!    load-balances *across* jobs and the per-run handoff cost is
//!    paid once per batch, not once per job.
//! 4. **Cooperative cancellation** — every accepted job carries a
//!    [`rph_native::CancelToken`]; it is observed before each unit
//!    (and, on the steal backend, at the pool's range boundaries for
//!    whole-server shutdown), so cancelling a running job stops it
//!    within one unit's work.
//! 5. **Fault containment** — each unit executes under
//!    `catch_unwind`: a panicking job resolves as
//!    [`JobStatus::Panicked`] while its batch-mates and the pool keep
//!    going. This is the service-level counterpart of
//!    [`rph_native::Pool::try_execute`]'s typed
//!    [`rph_native::JobPanicked`] error.
//!
//! Latency accounting is first-class: every resolved job reports its
//! queue wait, its batch's service time and its end-to-end latency,
//! and [`LatencyHistogram`] folds those into p50/p99/p999 (the repo
//! benchmark's `server_open` workload measures them under open-loop
//! load). On a single-core host the speedup
//! numbers elsewhere in this repository are vacuous, but these
//! latency distributions remain meaningful — queueing delay, batching
//! and admission behaviour do not need spare cores to show up.

mod histogram;
mod job;
mod server;

pub use histogram::LatencyHistogram;
pub use job::{JobClass, JobHandle, JobId, JobOutcome, JobStatus};
pub use server::{
    wait_all, Server, ServerConfig, ServerReport, StatsSnapshot, SubmitError, WaitSummary,
};
