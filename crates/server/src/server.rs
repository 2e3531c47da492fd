//! The job server: bounded admission queue → weighted fair scheduler
//! → batched dispatch onto the persistent native pool.
//!
//! One **dispatcher** thread owns the backend (a persistent
//! [`Pool`] for the steal backend; per-batch skeleton instantiation
//! for the Eden backend) and loops: assemble a batch from the tenant
//! queues under deficit-round-robin, run it as a single native job,
//! resolve every member job's [`JobHandle`]. On the steal backend the
//! dispatcher is itself participant 0 of each batch's pool run: it
//! starts on the batch at once and wakes a pool thread only for a
//! batch of more than one unit, so a one-unit batch runs on the
//! dispatcher with no wake-up at all. Admission control is a
//! high-water mark in *units*: a submission that would push the queued
//! backlog past [`ServerConfig::queue_cap_units`] is rejected
//! immediately with [`SubmitError::Backpressure`] — callers shed load
//! instead of growing an unbounded queue.
//!
//! Fault containment: every unit executes under `catch_unwind`, so a
//! panicking job resolves as [`JobStatus::Panicked`] while its
//! batch-mates complete normally and the pool keeps serving. (The
//! pool's own panic path — [`Pool::try_execute`] returning
//! `Err(JobPanicked)` — remains as the second line of defence.)

use crate::histogram::LatencyHistogram;
use crate::job::{JobClass, JobHandle, JobId, JobOutcome, JobState, JobStatus};
use rph_native::{BackendKind, CancelToken, Job, NativeConfig, Pool, RunError, Skeleton};
use rph_trace::{CapId, EventKind, Tracer};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration: the native backend plus the service-level
/// knobs (tenants, admission high-water mark, batch size).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Backend configuration (worker count, steal vs Eden, tracing).
    pub native: NativeConfig,
    /// Scheduling weight per tenant (index = tenant id). A tenant
    /// with weight 2 is granted twice the units per scheduling round
    /// of a weight-1 tenant while both are backlogged. Weights are
    /// clamped to ≥ 1.
    pub tenant_weights: Vec<u32>,
    /// Admission high-water mark, in units: a submission that would
    /// push the queued backlog past this is rejected. Must be at
    /// least as large as the largest job the server should accept.
    pub queue_cap_units: usize,
    /// Upper bound on units packed into one dispatched batch. A
    /// single job larger than this still runs, as a batch of its own.
    pub batch_max_units: usize,
    /// Per-worker prefetch depth for the Eden master–worker skeleton
    /// (ignored by the steal backend).
    pub prefetch: usize,
}

impl ServerConfig {
    /// Single-tenant defaults over the given backend config.
    pub fn new(native: NativeConfig) -> Self {
        ServerConfig {
            native,
            tenant_weights: vec![1],
            queue_cap_units: 4096,
            batch_max_units: 256,
            prefetch: 2,
        }
    }

    /// Replace the tenant weight table (one entry per tenant).
    pub fn with_tenants(mut self, weights: &[u32]) -> Self {
        self.tenant_weights = weights.iter().map(|&w| w.max(1)).collect();
        self
    }

    /// Set the admission high-water mark, in units.
    pub fn with_queue_cap(mut self, units: usize) -> Self {
        self.queue_cap_units = units;
        self
    }

    /// Set the per-batch unit cap.
    pub fn with_batch_max(mut self, units: usize) -> Self {
        self.batch_max_units = units.max(1);
        self
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queued backlog is above the high-water mark; retry later.
    /// Carries the backlog observed at rejection time.
    Backpressure { queued_units: usize },
    /// The server is shutting down.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backpressure { queued_units } => {
                write!(f, "server backlogged ({queued_units} units queued)")
            }
            SubmitError::Closed => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Monotonic service counters, readable at any time via
/// [`Server::stats`] and returned by shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Submissions accepted into the queue.
    pub accepted: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Jobs resolved `Done`.
    pub done: u64,
    /// Jobs resolved `Cancelled` (by their token or at shutdown).
    pub cancelled: u64,
    /// Jobs resolved `Panicked`.
    pub panicked: u64,
    /// Batches dispatched to the backend.
    pub batches: u64,
    /// Units currently queued (0 after shutdown: no leaked slots).
    pub queued_units: usize,
    /// Jobs currently queued.
    pub queued_jobs: usize,
}

#[derive(Default)]
struct StatsInner {
    accepted: AtomicU64,
    rejected: AtomicU64,
    done: AtomicU64,
    cancelled: AtomicU64,
    panicked: AtomicU64,
    batches: AtomicU64,
}

/// Everything the dispatcher drained out of a server at shutdown.
pub struct ServerReport {
    /// Final counter values.
    pub stats: StatsSnapshot,
    /// The stitched service timeline (when `native.trace` was set):
    /// per-worker rows from every batch, plus one `ServerJob` event
    /// per completed job on the dispatcher's row.
    pub trace: Option<Tracer>,
}

/// Per-tenant FIFO queues plus the deficit-round-robin state.
pub(crate) struct QueueState {
    pub queues: Vec<VecDeque<Arc<JobState>>>,
    pub deficits: Vec<u64>,
    pub queued_units: usize,
    pub open: bool,
}

impl QueueState {
    pub fn new(tenants: usize) -> Self {
        QueueState {
            queues: (0..tenants).map(|_| VecDeque::new()).collect(),
            deficits: vec![0; tenants],
            queued_units: 0,
            open: true,
        }
    }

    fn queued_jobs(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }
}

/// Deficit round robin over the tenant queues: each scheduling round
/// credits every backlogged tenant `weight` units of deficit and pops
/// head jobs it can afford, until the batch reaches `batch_max` units
/// or nothing more fits. Deficits persist across batches (that is
/// what makes the long-run unit share converge to the weights) and
/// reset when a tenant's queue drains (an idle tenant does not hoard
/// credit). A single job larger than `batch_max` is granted a batch
/// of its own.
pub(crate) fn assemble_batch(
    q: &mut QueueState,
    weights: &[u32],
    batch_max: usize,
) -> Vec<Arc<JobState>> {
    let n = weights.len();
    let mut picked: Vec<Arc<JobState>> = Vec::new();
    let mut total = 0usize;
    // Tenants whose head job no longer fits this batch: final for the
    // batch, since remaining capacity only shrinks.
    let mut full = vec![false; n];
    loop {
        let mut progressed = false;
        let mut active = false;
        for t in 0..n {
            if q.queues[t].is_empty() {
                q.deficits[t] = 0;
                continue;
            }
            active = true;
            if full[t] {
                continue;
            }
            q.deficits[t] += u64::from(weights[t].max(1));
            while let Some(job) = q.queues[t].front() {
                let units = job.class.units() as usize;
                if units > batch_max && total == 0 {
                    // Oversize job: its own batch, deficit forgiven.
                    let job = q.queues[t].pop_front().unwrap();
                    q.queued_units -= units;
                    q.deficits[t] = 0;
                    return vec![job];
                }
                if total + units > batch_max {
                    full[t] = true;
                    break;
                }
                if u64::try_from(units).unwrap() > q.deficits[t] {
                    break;
                }
                q.deficits[t] -= units as u64;
                let job = q.queues[t].pop_front().unwrap();
                q.queued_units -= units;
                total += units;
                picked.push(job);
                progressed = true;
            }
            if q.queues[t].is_empty() {
                q.deficits[t] = 0;
            }
            if total >= batch_max {
                return picked;
            }
        }
        if !active {
            return picked;
        }
        if !progressed && (0..n).all(|t| q.queues[t].is_empty() || full[t]) {
            return picked;
        }
    }
}

/// One job's contiguous slice of a batch's unit index space.
struct Seg {
    job: Arc<JobState>,
    start: usize,
    units: usize,
}

/// A packed batch of jobs, presented to the native backend as one
/// flat [`Job`] of `total` units — so the pool's range machinery
/// (packed `(lo, hi)` deque elements, lazy splitting, batch steals)
/// load-balances *across* the member jobs for free.
struct Batch {
    segs: Vec<Seg>,
    total: usize,
    server_cancel: CancelToken,
}

impl Job for Batch {
    type Out = i64;

    fn len(&self) -> usize {
        self.total
    }

    fn run(&self, idx: usize) -> i64 {
        let s = &self.segs[self.segs.partition_point(|s| s.start + s.units <= idx)];
        let unit = (idx - s.start) as u32;
        // Cooperative cancellation at unit grain: a cancelled job's
        // remaining units become no-ops, so the token is observed
        // within one unit's work even inside a large packed range.
        if self.server_cancel.is_cancelled()
            || s.job.cancel.is_cancelled()
            || s.job.panicked.load(Ordering::SeqCst)
        {
            return 0;
        }
        match catch_unwind(AssertUnwindSafe(|| s.job.class.run_unit(unit))) {
            Ok(v) => {
                s.job.units_run.fetch_add(1, Ordering::SeqCst);
                v
            }
            Err(_) => {
                // Contain the panic to this job: batch-mates and the
                // worker thread proceed untouched.
                s.job.panicked.store(true, Ordering::SeqCst);
                0
            }
        }
    }
}

struct Shared {
    q: Mutex<QueueState>,
    not_empty: Condvar,
    stats: StatsInner,
    server_cancel: CancelToken,
    weights: Vec<u32>,
    queue_cap_units: usize,
}

impl Shared {
    fn resolve(
        &self,
        job: &JobState,
        status: JobStatus,
        value: i64,
        queue_wait: Duration,
        service: Duration,
    ) {
        let counter = match status {
            JobStatus::Done => &self.stats.done,
            JobStatus::Cancelled => &self.stats.cancelled,
            JobStatus::Panicked => &self.stats.panicked,
        };
        counter.fetch_add(1, Ordering::SeqCst);
        job.slot.set(JobOutcome {
            status,
            value,
            queue_wait,
            service,
            latency: job.submitted_at.elapsed(),
        });
    }
}

enum Work {
    Run(Vec<Arc<JobState>>),
    Shutdown(Vec<Arc<JobState>>),
}

/// The long-running job server. Construct with [`Server::start`],
/// feed with [`Server::submit`], stop with [`Server::shutdown`] (let
/// the in-flight batch finish, cancel the queue) or
/// [`Server::shutdown_now`] (also abort the in-flight batch through
/// the pool's cancellation hook).
pub struct Server {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<Option<Tracer>>>,
    next_id: AtomicU64,
}

impl Server {
    /// Spawn the dispatcher (which owns the backend) and open the
    /// queue for submissions.
    pub fn start(cfg: ServerConfig) -> Server {
        let weights: Vec<u32> = if cfg.tenant_weights.is_empty() {
            vec![1]
        } else {
            cfg.tenant_weights.iter().map(|&w| w.max(1)).collect()
        };
        let shared = Arc::new(Shared {
            q: Mutex::new(QueueState::new(weights.len())),
            not_empty: Condvar::new(),
            stats: StatsInner::default(),
            server_cancel: CancelToken::new(),
            weights,
            queue_cap_units: cfg.queue_cap_units,
        });
        let d_shared = shared.clone();
        let dispatcher = std::thread::Builder::new()
            .name("rph-server-dispatch".into())
            .spawn(move || dispatcher(d_shared, &cfg))
            .expect("spawn dispatcher");
        Server {
            shared,
            dispatcher: Some(dispatcher),
            next_id: AtomicU64::new(0),
        }
    }

    /// Submit a job for `tenant`. Accepted jobs are eventually
    /// resolved exactly once; rejected submissions leave no state
    /// behind.
    pub fn submit(&self, tenant: usize, class: JobClass) -> Result<JobHandle, SubmitError> {
        assert!(
            tenant < self.shared.weights.len(),
            "tenant {tenant} out of range ({} configured)",
            self.shared.weights.len()
        );
        let units = class.units() as usize;
        let mut q = self.shared.q.lock().unwrap();
        if !q.open {
            return Err(SubmitError::Closed);
        }
        if q.queued_units + units > self.shared.queue_cap_units {
            let queued_units = q.queued_units;
            drop(q);
            self.shared.stats.rejected.fetch_add(1, Ordering::SeqCst);
            return Err(SubmitError::Backpressure { queued_units });
        }
        let id = JobId(self.next_id.fetch_add(1, Ordering::SeqCst));
        let state = JobState::new(id, tenant, class);
        q.queues[tenant].push_back(state.clone());
        q.queued_units += units;
        drop(q);
        self.shared.stats.accepted.fetch_add(1, Ordering::SeqCst);
        self.shared.not_empty.notify_one();
        Ok(JobHandle { state })
    }

    /// Current counters (queue depths read under the queue lock).
    pub fn stats(&self) -> StatsSnapshot {
        let (queued_units, queued_jobs) = {
            let q = self.shared.q.lock().unwrap();
            (q.queued_units, q.queued_jobs())
        };
        let s = &self.shared.stats;
        StatsSnapshot {
            accepted: s.accepted.load(Ordering::SeqCst),
            rejected: s.rejected.load(Ordering::SeqCst),
            done: s.done.load(Ordering::SeqCst),
            cancelled: s.cancelled.load(Ordering::SeqCst),
            panicked: s.panicked.load(Ordering::SeqCst),
            batches: s.batches.load(Ordering::SeqCst),
            queued_units,
            queued_jobs,
        }
    }

    /// Graceful stop: the in-flight batch finishes, queued jobs are
    /// resolved `Cancelled`, the dispatcher (and its pool) exits.
    pub fn shutdown(mut self) -> ServerReport {
        let trace = self.stop();
        ServerReport {
            stats: self.stats(),
            trace,
        }
    }

    /// Hard stop: additionally trips the server-wide cancel token, so
    /// the in-flight batch aborts at its next range boundary (steal
    /// backend) / unit boundary (both backends) instead of running to
    /// completion.
    pub fn shutdown_now(self) -> ServerReport {
        self.shared.server_cancel.cancel();
        self.shutdown()
    }

    fn stop(&mut self) -> Option<Tracer> {
        let handle = self.dispatcher.take()?;
        {
            let mut q = self.shared.q.lock().unwrap();
            q.open = false;
        }
        self.shared.not_empty.notify_all();
        handle.join().expect("dispatcher panicked")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

fn dispatcher(shared: Arc<Shared>, cfg: &ServerConfig) -> Option<Tracer> {
    let native = &cfg.native;
    let mut pool = matches!(native.backend, BackendKind::Steal).then(|| Pool::new(native));
    let rows = native.workers.max(1) + 1;
    let master = CapId((rows - 1) as u32);
    let mut tracer = native.trace.then(|| Tracer::new(rows));
    let epoch = Instant::now();
    let ns_since = |t0: Instant, epoch: Instant| -> u64 {
        u64::try_from(t0.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
    };
    loop {
        let work = {
            let mut q = shared.q.lock().unwrap();
            loop {
                let batch = assemble_batch(&mut q, &shared.weights, cfg.batch_max_units);
                if !batch.is_empty() {
                    break Work::Run(batch);
                }
                if !q.open {
                    let leftovers: Vec<Arc<JobState>> =
                        q.queues.iter_mut().flat_map(std::mem::take).collect();
                    q.queued_units = 0;
                    break Work::Shutdown(leftovers);
                }
                q = shared.not_empty.wait(q).unwrap();
            }
        };
        let jobs = match work {
            Work::Shutdown(leftovers) => {
                // Never-dispatched jobs resolve as cancelled-in-queue.
                for job in leftovers {
                    let waited = job.submitted_at.elapsed();
                    shared.resolve(&job, JobStatus::Cancelled, 0, waited, Duration::ZERO);
                }
                return tracer;
            }
            Work::Run(jobs) => jobs,
        };

        let dispatch_t0 = Instant::now();
        let mut segs = Vec::with_capacity(jobs.len());
        let mut total = 0usize;
        for job in jobs {
            // A job cancelled while queued is resolved without
            // spending any backend time on it.
            if job.cancel.is_cancelled() || shared.server_cancel.is_cancelled() {
                let waited = dispatch_t0.duration_since(job.submitted_at);
                shared.resolve(&job, JobStatus::Cancelled, 0, waited, Duration::ZERO);
                continue;
            }
            let units = job.class.units() as usize;
            segs.push(Seg {
                job,
                start: total,
                units,
            });
            total += units;
        }
        if segs.is_empty() {
            continue;
        }
        let batch = Batch {
            segs,
            total,
            server_cancel: shared.server_cancel.clone(),
        };
        let result = match native.backend {
            BackendKind::Steal => {
                let pool = pool.as_mut().expect("steal backend has a pool");
                pool.try_execute_cancellable(&batch, &shared.server_cancel)
            }
            BackendKind::Eden => Skeleton::MasterWorker {
                prefetch: cfg.prefetch,
            }
            .try_run(&batch, native)
            .map_err(RunError::from),
        };
        shared.stats.batches.fetch_add(1, Ordering::SeqCst);
        match result {
            Ok(out) => {
                if let (Some(tr), Some(bt)) = (tracer.as_mut(), out.trace.as_ref()) {
                    tr.extend_shifted(bt, ns_since(dispatch_t0, epoch));
                }
                for seg in &batch.segs {
                    let job = &seg.job;
                    let status = if job.cancel.is_cancelled() || shared.server_cancel.is_cancelled()
                    {
                        JobStatus::Cancelled
                    } else if job.panicked.load(Ordering::SeqCst) {
                        JobStatus::Panicked
                    } else {
                        JobStatus::Done
                    };
                    let value: i64 = out.values[seg.start..seg.start + seg.units].iter().sum();
                    let waited = dispatch_t0.duration_since(job.submitted_at);
                    if let Some(tr) = tracer.as_mut() {
                        tr.record(
                            master,
                            ns_since(Instant::now(), epoch),
                            EventKind::ServerJob {
                                job: job.id.0,
                                queued_ns: u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX),
                                service_ns: u64::try_from(out.wall.as_nanos()).unwrap_or(u64::MAX),
                            },
                        );
                    }
                    shared.resolve(job, status, value, waited, out.wall);
                }
            }
            Err(err) => {
                // The whole batch failed at the backend. With units
                // wrapped in catch_unwind this is a cancellation (or a
                // defect worth surfacing per-job as Panicked).
                let status = match err {
                    RunError::Cancelled => JobStatus::Cancelled,
                    RunError::Panicked(_) | RunError::Incomplete(_) => JobStatus::Panicked,
                };
                let service = dispatch_t0.elapsed();
                for seg in &batch.segs {
                    let waited = dispatch_t0.duration_since(seg.job.submitted_at);
                    shared.resolve(&seg.job, status, 0, waited, service);
                }
            }
        }
    }
}

/// Convenience for benches and tests: wait for every handle and fold
/// the outcomes into per-status counts plus latency histograms.
pub struct WaitSummary {
    pub done: u64,
    pub cancelled: u64,
    pub panicked: u64,
    pub latency: LatencyHistogram,
    pub queue_wait: LatencyHistogram,
    pub service: LatencyHistogram,
}

/// Block on every handle; histogram latencies over the `Done` jobs.
pub fn wait_all(handles: &[JobHandle]) -> WaitSummary {
    let mut s = WaitSummary {
        done: 0,
        cancelled: 0,
        panicked: 0,
        latency: LatencyHistogram::new(),
        queue_wait: LatencyHistogram::new(),
        service: LatencyHistogram::new(),
    };
    for h in handles {
        let out = h.wait();
        match out.status {
            JobStatus::Done => {
                s.done += 1;
                s.latency.record(out.latency);
                s.queue_wait.record(out.queue_wait);
                s.service.record(out.service);
            }
            JobStatus::Cancelled => s.cancelled += 1,
            JobStatus::Panicked => s.panicked += 1,
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn steal2() -> NativeConfig {
        NativeConfig::steal(2)
    }

    /// Spin-wait until a handle shows forward progress — the sync
    /// point that makes the timing-sensitive tests deterministic: once
    /// progress is visible the dispatcher is provably inside that
    /// job's batch.
    fn await_progress(h: &JobHandle) {
        while h.progress() == 0 {
            std::thread::yield_now();
        }
    }

    fn fill_queue(q: &mut QueueState, tenant: usize, n: usize, class: JobClass) {
        for i in 0..n {
            let job = JobState::new(JobId(i as u64), tenant, class);
            q.queued_units += class.units() as usize;
            q.queues[tenant].push_back(job);
        }
    }

    // ---------------------------------------------------- DRR scheduler unit

    #[test]
    fn drr_alternates_equal_weights() {
        let mut q = QueueState::new(2);
        let one = JobClass::Spin { units: 1, iters: 1 };
        fill_queue(&mut q, 0, 10, one);
        fill_queue(&mut q, 1, 10, one);
        let batch = assemble_batch(&mut q, &[1, 1], 6);
        let tenants: Vec<usize> = batch.iter().map(|j| j.tenant).collect();
        assert_eq!(tenants, vec![0, 1, 0, 1, 0, 1]);
        assert_eq!(q.queued_units, 14);
    }

    #[test]
    fn drr_respects_weights() {
        let mut q = QueueState::new(2);
        let one = JobClass::Spin { units: 1, iters: 1 };
        fill_queue(&mut q, 0, 12, one);
        fill_queue(&mut q, 1, 12, one);
        // Weight 2:1 → tenant 0 gets two units per round to tenant
        // 1's one.
        let batch = assemble_batch(&mut q, &[2, 1], 9);
        let t0 = batch.iter().filter(|j| j.tenant == 0).count();
        let t1 = batch.iter().filter(|j| j.tenant == 1).count();
        assert_eq!((t0, t1), (6, 3));
    }

    #[test]
    fn drr_oversize_job_gets_its_own_batch() {
        let mut q = QueueState::new(1);
        let big = JobClass::Spin {
            units: 100,
            iters: 1,
        };
        let small = JobClass::Spin { units: 1, iters: 1 };
        fill_queue(&mut q, 0, 1, big);
        fill_queue(&mut q, 0, 3, small);
        let batch = assemble_batch(&mut q, &[1], 8);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].class.units(), 100);
        let batch = assemble_batch(&mut q, &[1], 8);
        assert_eq!(batch.len(), 3);
        assert_eq!(q.queued_units, 0);
    }

    #[test]
    fn drr_drains_all_units_exactly() {
        let mut q = QueueState::new(3);
        for t in 0..3 {
            fill_queue(
                &mut q,
                t,
                7,
                JobClass::Spin {
                    units: (t + 1) as u32,
                    iters: 1,
                },
            );
        }
        let expect_units = 7 * (1 + 2 + 3);
        let mut drained = 0usize;
        let mut rounds = 0;
        while q.queued_units > 0 {
            let batch = assemble_batch(&mut q, &[1, 2, 3], 5);
            assert!(!batch.is_empty(), "scheduler stalled with work queued");
            drained += batch
                .iter()
                .map(|j| j.class.units() as usize)
                .sum::<usize>();
            rounds += 1;
            assert!(rounds < 100);
        }
        assert_eq!(drained, expect_units);
        assert_eq!(q.queued_units, 0);
    }

    // ------------------------------------------------------ end-to-end basic

    #[test]
    fn jobs_resolve_with_correct_values_on_both_backends() {
        for (workers, backend) in [2, 4]
            .into_iter()
            .flat_map(|w| [(w, BackendKind::Steal), (w, BackendKind::Eden)])
        {
            let native = NativeConfig::new(workers).with_backend(backend);
            let server = Server::start(ServerConfig::new(native));
            let classes = [
                JobClass::SumEuler { n: 120, chunk: 8 },
                JobClass::Spin {
                    units: 5,
                    iters: 64,
                },
                JobClass::SumEuler { n: 40, chunk: 40 },
            ];
            let handles: Vec<JobHandle> = classes
                .iter()
                .map(|&c| server.submit(0, c).expect("accepted"))
                .collect();
            for (h, c) in handles.iter().zip(&classes) {
                let out = h.wait();
                assert_eq!(out.status, JobStatus::Done, "W={workers} {backend:?}");
                assert_eq!(Some(out.value), c.expected(), "W={workers} {backend:?}");
            }
            let report = server.shutdown();
            assert_eq!(report.stats.done, 3, "W={workers} {backend:?}");
            assert_eq!(report.stats.queued_units, 0);
        }
    }

    // -------------------------------------------- admission control (reject)

    #[test]
    fn overload_is_rejected_at_the_high_water_mark() {
        // One worker, and a blocker job long enough that the flood
        // below happens entirely while the dispatcher is busy running
        // it — so no queue slot frees up mid-flood and the arithmetic
        // is exact.
        let cfg = ServerConfig::new(NativeConfig::steal(1))
            .with_queue_cap(64)
            .with_batch_max(64);
        let server = Server::start(cfg);
        let blocker = server
            .submit(
                0,
                JobClass::Spin {
                    units: 50,
                    iters: 2_000_000,
                },
            )
            .expect("blocker accepted");
        await_progress(&blocker);
        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        for _ in 0..100 {
            match server.submit(0, JobClass::Spin { units: 1, iters: 1 }) {
                Ok(h) => accepted.push(h),
                Err(SubmitError::Backpressure { queued_units }) => {
                    assert!(queued_units + 1 > 64);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected submit error {e}"),
            }
        }
        assert_eq!(accepted.len(), 64, "cap admits exactly the high-water mark");
        assert_eq!(rejected, 36);
        assert_eq!(server.stats().rejected, 36);
        // Back-pressure is transient: once the backlog drains, the
        // same submission is accepted again.
        wait_all(&accepted);
        server
            .submit(0, JobClass::Spin { units: 1, iters: 1 })
            .expect("accepted after drain")
            .wait();
        let report = server.shutdown();
        assert_eq!(report.stats.queued_units, 0);
    }

    // ------------------------------------------------- cancellation mid-run

    #[test]
    fn cancel_mid_run_stops_within_a_unit() {
        let server = Server::start(ServerConfig::new(steal2()));
        let h = server
            .submit(
                0,
                JobClass::Spin {
                    units: 4096,
                    iters: 20_000,
                },
            )
            .expect("accepted");
        await_progress(&h);
        h.cancel();
        let out = h.wait();
        assert_eq!(out.status, JobStatus::Cancelled);
        let ran = h.progress();
        assert!(ran >= 1, "progress was observed before cancelling");
        assert!(
            ran < 4096,
            "cancellation was observed mid-run, not after completion"
        );
        // The server (and its pool) keeps serving.
        let next = server
            .submit(0, JobClass::Spin { units: 4, iters: 8 })
            .expect("accepted");
        assert_eq!(next.wait().status, JobStatus::Done);
        let report = server.shutdown();
        assert_eq!(report.stats.cancelled, 1);
        assert_eq!(report.stats.done, 1);
    }

    #[test]
    fn shutdown_now_aborts_the_inflight_batch() {
        let server = Server::start(ServerConfig::new(steal2()));
        let h = server
            .submit(
                0,
                JobClass::Spin {
                    units: 4096,
                    iters: 20_000,
                },
            )
            .expect("accepted");
        await_progress(&h);
        let report = server.shutdown_now();
        let out = h.wait();
        assert_eq!(out.status, JobStatus::Cancelled);
        assert!(h.progress() < 4096);
        assert_eq!(report.stats.queued_units, 0);
    }

    // ------------------------------------------------------ panic isolation

    #[test]
    fn poison_job_is_contained_to_itself() {
        // Park the dispatcher behind a blocker so the poison job and
        // its victims-to-be land in the same batch.
        let cfg = ServerConfig::new(steal2()).with_batch_max(256);
        let server = Server::start(cfg);
        let blocker = server
            .submit(
                0,
                JobClass::Spin {
                    units: 8,
                    iters: 500_000,
                },
            )
            .expect("accepted");
        await_progress(&blocker);
        let poison = server
            .submit(
                0,
                JobClass::Poison {
                    units: 4,
                    iters: 4,
                    bad: 2,
                },
            )
            .expect("accepted");
        let mates: Vec<JobHandle> = (0..6)
            .map(|_| {
                server
                    .submit(0, JobClass::SumEuler { n: 60, chunk: 6 })
                    .expect("accepted")
            })
            .collect();
        assert_eq!(poison.wait().status, JobStatus::Panicked);
        for h in &mates {
            let out = h.wait();
            assert_eq!(out.status, JobStatus::Done, "batch-mate survived the panic");
            assert_eq!(
                Some(out.value),
                JobClass::SumEuler { n: 60, chunk: 6 }.expected()
            );
        }
        // The pool is still alive for new work after the panic.
        let after = server
            .submit(0, JobClass::Spin { units: 4, iters: 8 })
            .expect("accepted");
        assert_eq!(after.wait().status, JobStatus::Done);
        let report = server.shutdown();
        assert_eq!(report.stats.panicked, 1);
        assert_eq!(report.stats.done, 8);
    }

    // ------------------------------------------------------ tenant fairness

    #[test]
    fn backlogged_tenants_share_by_weight() {
        // Two equal-weight tenants, 10:1 submission skew, all queued
        // behind a blocker so both backlogs exist before the first
        // scheduling decision. DRR must serve them alternately: the
        // minority tenant's jobs all complete while the majority
        // tenant still has most of its backlog waiting.
        let cfg = ServerConfig::new(steal2())
            .with_tenants(&[1, 1])
            .with_queue_cap(1024)
            .with_batch_max(4);
        let server = Server::start(cfg);
        let blocker = server
            .submit(
                0,
                JobClass::Spin {
                    units: 8,
                    iters: 500_000,
                },
            )
            .expect("accepted");
        await_progress(&blocker);
        let tiny = JobClass::Spin {
            units: 1,
            iters: 1_000,
        };
        let majority: Vec<JobHandle> = (0..40)
            .map(|_| server.submit(0, tiny).expect("accepted"))
            .collect();
        let minority: Vec<JobHandle> = (0..4)
            .map(|_| server.submit(1, tiny).expect("accepted"))
            .collect();
        let slow_minority = minority.iter().map(|h| h.wait().latency).max().unwrap();
        let mut majority_latencies: Vec<Duration> =
            majority.iter().map(|h| h.wait().latency).collect();
        majority_latencies.sort();
        // With strict alternation the minority finishes by the second
        // mixed batch; at least half the majority backlog must still
        // be queued at that point. Compare against the 20th majority
        // completion to leave a wide scheduling margin.
        assert!(
            slow_minority < majority_latencies[19],
            "minority tenant starved: its slowest job ({slow_minority:?}) finished after \
             the majority's 20th ({:?})",
            majority_latencies[19]
        );
        server.shutdown();
    }

    // ------------------------------------------------------------ soak test

    #[test]
    fn soak_ten_thousand_jobs_leak_nothing() {
        let cfg = ServerConfig::new(steal2())
            .with_queue_cap(200_000)
            .with_batch_max(512);
        let server = Server::start(cfg);
        let classes = [
            JobClass::Spin { units: 1, iters: 8 },
            JobClass::Spin { units: 3, iters: 4 },
            JobClass::SumEuler { n: 24, chunk: 8 },
        ];
        let expected: Vec<i64> = classes.iter().map(|c| c.expected().unwrap()).collect();
        let handles: Vec<(usize, JobHandle)> = (0..10_000)
            .map(|i| {
                let k = i % classes.len();
                (k, server.submit(0, classes[k]).expect("accepted"))
            })
            .collect();
        for (k, h) in &handles {
            let out = h.wait();
            assert_eq!(out.status, JobStatus::Done);
            assert_eq!(out.value, expected[*k], "lost or duplicated unit results");
        }
        let report = server.shutdown();
        assert_eq!(report.stats.accepted, 10_000);
        assert_eq!(report.stats.done, 10_000);
        assert_eq!(report.stats.cancelled, 0);
        assert_eq!(report.stats.panicked, 0);
        assert_eq!(report.stats.queued_units, 0, "leaked queue slots");
        assert_eq!(report.stats.queued_jobs, 0);
        assert!(report.stats.batches <= 10_000, "batching happened at all");
    }

    // ------------------------------------------------------------- tracing

    #[test]
    fn trace_records_one_server_job_event_per_completion() {
        let native = NativeConfig::steal(2).with_trace();
        let server = Server::start(ServerConfig::new(native));
        let handles: Vec<JobHandle> = (0..5)
            .map(|_| {
                server
                    .submit(
                        0,
                        JobClass::Spin {
                            units: 4,
                            iters: 16,
                        },
                    )
                    .expect("accepted")
            })
            .collect();
        wait_all(&handles);
        let report = server.shutdown();
        let trace = report.trace.expect("tracing was on");
        let counters = rph_trace::Counters::from_tracer(&trace);
        assert_eq!(counters.server_jobs, 5);
        assert!(counters.server_service_ns > 0);
        // Batch worker rows were stitched in under the dispatcher row.
        assert!(counters.native_runs > 0);
    }
}
