//! Native (real OS threads, wall-clock) runs of the workloads.
//!
//! The simulator backends (`run_gph` / `run_eden`) answer *how the
//! paper's runtimes behave*; this backend answers *how long the same
//! decomposition takes on this machine* — under either native
//! execution model:
//!
//! * [`BackendKind::Steal`] — each workload is flattened into its
//!   natural task set (the exact units the GpH version sparks) and
//!   handed to the Chase–Lev work-stealing executor: one-shot
//!   workloads through [`rph_native::execute`], the wave-structured
//!   APSP through a persistent [`rph_native::Pool`] reused across
//!   pivots.
//! * [`BackendKind::Eden`] — the *same* task set runs on the
//!   message-passing backend through the skeleton each workload's
//!   Eden program uses: `par_map` for the regular workloads
//!   (sumEuler, matMul), `master_worker` for irregular nqueens, and
//!   the `ring` skeleton for APSP's pivot waves.
//!
//! The entry point is one trait, [`NativeWorkload::run_on`], which
//! dispatches on [`NativeConfig::backend`] and returns a `Result`: a
//! panicking task (steal backend) or a dying PE (Eden backend)
//! surfaces as a typed [`RunError`] instead of unwinding the caller —
//! the contract the long-running job server in `rph-server` builds
//! on. (The per-workload `run_native` wrappers deprecated in PR 5 are
//! gone.) Flat (farm-shaped) workloads only implement
//! [`FlatNative`] — the task set, the checksum combine and a skeleton
//! choice — and inherit both backends through [`run_flat`]; APSP
//! implements [`NativeWorkload`] directly because its two backends
//! have genuinely different shapes (barrier waves vs. ring).
//!
//! Results are combined on the calling thread in task-index order, so
//! every value is bit-identical to the corresponding simulator
//! checksum regardless of worker count, backend, granularity or
//! skeleton: the workload inputs are small integers, all f64
//! arithmetic on them is exact, and integer sums are
//! order-independent. The differential tests in
//! `tests/integration.rs` assert exactly this, three ways (sim Eden
//! vs native Eden vs native steal).
//!
//! `sum_euler` deliberately avoids the process-global memo behind
//! [`kernels::phi_cached`] — it would make every run after the first
//! nearly free and fake any speedup measurement. Each task instead
//! runs the segmented totient sieve ([`kernels::sum_phi_range_sieve`]),
//! whose state is entirely task-local: recomputed from scratch per
//! task, bit-identical values to the per-k gcd totient the simulator
//! charges costs from.

use crate::{kernels, Apsp, MatMul, NQueens, SumEuler};
use rph_native::{
    try_execute, try_ring, BackendKind, Job, JobPanicked, NativeConfig, NativeOutcome, NativeStats,
    Pool, RingJob, RunError, Skeleton, Wordsize,
};
use rph_trace::Tracer;
use std::time::Duration;

/// Result of one native run: the workload checksum plus wall-clock
/// time, scheduling counters and (when `cfg.trace` is set) the
/// per-worker wall-clock event trace.
#[derive(Debug)]
pub struct NativeMeasured {
    /// The workload's checksum (same definition as the sim backends).
    pub value: i64,
    /// Wall-clock time of the parallel phase(s).
    pub wall: Duration,
    /// Executor counters, summed over all parallel phases.
    pub stats: NativeStats,
    /// Wall-clock event trace (`Some` iff tracing was configured).
    /// Wave-structured workloads stitch their per-wave traces
    /// back-to-back on the time axis.
    pub trace: Option<Tracer>,
    /// Events dropped for not fitting the per-worker trace buffers.
    pub trace_dropped: u64,
}

pub(crate) fn measured(value: i64, out: NativeOutcome<impl Send + Sync>) -> NativeMeasured {
    NativeMeasured {
        value,
        wall: out.wall,
        stats: out.stats,
        trace: out.trace,
        trace_dropped: out.trace_dropped,
    }
}

/// Append a wave's trace to the accumulated trace, shifted past
/// everything recorded so far so per-worker time stays monotonic.
pub(crate) fn merge_trace(acc: &mut Option<Tracer>, wave: Option<Tracer>) {
    match (acc.as_mut(), wave) {
        (Some(acc), Some(wave)) => {
            let dt = acc.end_time();
            acc.extend_shifted(&wave, dt);
        }
        (None, Some(wave)) => *acc = Some(wave),
        _ => {}
    }
}

// ------------------------------------------------------------- unified API

/// A workload that runs on the native executors: **the** entry point
/// for native measurements. `run_on` dispatches on
/// [`NativeConfig::backend`], so one call site serves both the
/// work-stealing and the message-passing model:
///
/// ```
/// use rph_native::{BackendKind, NativeConfig};
/// use rph_workloads::{NativeWorkload, SumEuler};
///
/// let w = SumEuler::new(100);
/// let steal = w.run_on(&NativeConfig::new(4)).unwrap();
/// let eden = w
///     .run_on(&NativeConfig::new(4).with_backend(BackendKind::Eden))
///     .unwrap();
/// assert_eq!(steal.value, eden.value);
/// assert_eq!(steal.value, w.expected_value());
/// ```
///
/// The trait is object-safe: benches sweep `&dyn NativeWorkload`
/// tables instead of duplicating per-workload loops.
pub trait NativeWorkload {
    /// Stable snake_case name (used by bench JSON and trace labels).
    fn name(&self) -> &'static str;

    /// Human-readable parameter string for bench JSON rows, trace CSV
    /// labels and test-matrix messages (e.g. `"n=6000"`). Together
    /// with [`Self::name`] this makes the registry entry the single
    /// source of workload identity — no consumer builds its own
    /// `(workload, params)` tuples.
    fn default_params(&self) -> String;

    /// The checksum every correct run must produce (the plain-Rust
    /// oracle, same definition as the sim backends).
    fn expected_value(&self) -> i64;

    /// Run natively under `cfg`, on whichever backend it selects.
    /// Execution failures — a panicking task, a dead PE — come back as
    /// a typed [`RunError`] rather than unwinding the caller.
    fn run_on(&self, cfg: &NativeConfig) -> Result<NativeMeasured, RunError>;
}

/// A workload whose native form is a flat bag of independent tasks —
/// everything except APSP. Implementors describe the task set once
/// and inherit both native backends via [`run_flat`]: the steal
/// executor runs the job over deques, the Eden backend runs the same
/// job under [`Self::skeleton`].
pub trait FlatNative: Sync {
    /// Per-task result (must be channel-framable for the Eden side).
    type Out: Send + Sync + Wordsize + 'static;

    /// The prepared job: built once per run, borrowed by every task.
    type Job<'a>: Job<Out = Self::Out>
    where
        Self: 'a;

    /// Stable snake_case name.
    fn name(&self) -> &'static str;

    /// The oracle checksum.
    fn expected_value(&self) -> i64;

    /// Materialise the task set (ranges, blocks, prefixes, …).
    fn job(&self) -> Self::Job<'_>;

    /// Fold per-task results (in task order) into the checksum.
    fn combine(&self, values: Vec<Self::Out>) -> i64;

    /// Which Eden skeleton suits this task set. Regular task sets
    /// keep the static-farm default; irregular ones override to
    /// demand-driven [`Skeleton::MasterWorker`].
    fn skeleton(&self) -> Skeleton {
        Skeleton::ParMap
    }
}

/// The one generic runner behind every flat workload's
/// [`NativeWorkload::run_on`]: materialise the job, execute it on the
/// configured backend, combine the values.
pub fn run_flat<W: FlatNative>(w: &W, cfg: &NativeConfig) -> Result<NativeMeasured, RunError> {
    let job = w.job();
    let out = match cfg.backend {
        BackendKind::Steal => try_execute(&job, cfg)?,
        BackendKind::Eden => w.skeleton().try_run(&job, cfg)?,
    };
    let NativeOutcome {
        values,
        wall,
        stats,
        trace,
        trace_dropped,
    } = out;
    Ok(NativeMeasured {
        value: w.combine(values),
        wall,
        stats,
        trace,
        trace_dropped,
    })
}

/// A workload whose native form is a *sequence of barrier-separated
/// rounds over carried state* — the iterated seam next to
/// [`FlatNative`]'s one-shot bag. APSP's pivot waves and episim's
/// visit/return phases both fit: each round materialises a [`Job`]
/// borrowing the current state, the executor runs it, and `absorb`
/// folds the round's outputs back into the state before the next
/// round starts. The runner ([`run_iter_on`], on a persistent pool)
/// accumulates wall time, counters and traces across rounds exactly
/// like the former hand-rolled APSP loop did.
pub trait IterNative: Sync {
    /// State carried across rounds.
    type State: Send;

    /// Per-task output of a round's job (lifetime-free so `absorb`
    /// can receive it after the job is dropped).
    type Out: Send + Sync + 'static;

    /// The job for one round, borrowing the carried state.
    type RoundJob<'a>: Job<Out = Self::Out>
    where
        Self: 'a;

    /// Number of rounds (barriers) in the run.
    fn rounds(&self) -> usize;

    /// Build the initial carried state.
    fn init_state(&self) -> Self::State;

    /// Materialise round `round`'s task set over the current state.
    fn round_job<'a>(&'a self, round: usize, state: &'a Self::State) -> Self::RoundJob<'a>;

    /// Fold round `round`'s outputs (in task order) into the state.
    fn absorb(&self, round: usize, state: &mut Self::State, values: Vec<Self::Out>);

    /// Fold the final state into the workload checksum.
    fn finish(&self, state: Self::State) -> i64;
}

/// Run an iterated workload's rounds on a caller-supplied persistent
/// pool (reusable across repetitions as well as rounds). The barrier
/// between rounds replaces the thunk-graph synchronisation the GpH
/// runtime does dynamically — coarser, but the same data flow, hence
/// the same checksum. A panicking round surfaces as `Err(JobPanicked)`;
/// the pool survives for the caller's next run.
pub fn run_iter_on<W: IterNative>(w: &W, pool: &mut Pool) -> Result<NativeMeasured, JobPanicked> {
    let mut state = w.init_state();
    let mut wall = Duration::ZERO;
    let mut stats = NativeStats::default();
    let mut trace = None;
    let mut trace_dropped = 0;
    for round in 0..w.rounds() {
        let out = {
            let job = w.round_job(round, &state);
            pool.try_execute(&job)?
        };
        wall += out.wall;
        stats.merge(&out.stats);
        merge_trace(&mut trace, out.trace);
        trace_dropped += out.trace_dropped;
        w.absorb(round, &mut state, out.values);
    }
    Ok(NativeMeasured {
        value: w.finish(state),
        wall,
        stats,
        trace,
        trace_dropped,
    })
}

// ---------------------------------------------------------------- sumEuler

/// One task per GpH chunk: `sum (map phi [lo..hi])` via the segmented
/// totient sieve ([`kernels::sum_phi_range_sieve`]) — bit-identical
/// values to the per-k gcd totient, computed from scratch per task (no
/// memo — see module docs; the sieve's state is all task-local, so it
/// fakes no speedup either).
pub struct PhiRanges {
    ranges: Vec<(i64, i64)>,
}

impl Job for PhiRanges {
    type Out = i64;
    fn len(&self) -> usize {
        self.ranges.len()
    }
    fn run(&self, idx: usize) -> i64 {
        let (lo, hi) = self.ranges[idx];
        kernels::sum_phi_range_sieve(lo, hi)
    }
}

impl FlatNative for SumEuler {
    type Out = i64;
    type Job<'a> = PhiRanges;

    fn name(&self) -> &'static str {
        "sum_euler"
    }
    fn expected_value(&self) -> i64 {
        self.expected()
    }
    fn job(&self) -> PhiRanges {
        PhiRanges {
            ranges: self.ranges(self.chunk_size),
        }
    }
    fn combine(&self, values: Vec<i64>) -> i64 {
        values.iter().sum()
    }
}

impl NativeWorkload for SumEuler {
    fn name(&self) -> &'static str {
        FlatNative::name(self)
    }
    fn default_params(&self) -> String {
        format!("n={}", self.n)
    }
    fn expected_value(&self) -> i64 {
        FlatNative::expected_value(self)
    }
    fn run_on(&self, cfg: &NativeConfig) -> Result<NativeMeasured, RunError> {
        run_flat(self, cfg)
    }
}

// ---------------------------------------------------------------- matmul

/// One task per result block: Σ_k A(i,k)·B(k,j), then the block's
/// element sum as an exact integer — the same per-block value the sim's
/// `blockRowCol`/`blockSum` kernels produce.
pub struct BlockProducts<'a> {
    w: &'a MatMul,
    a: Vec<f64>,
    b: Vec<f64>,
}

impl Job for BlockProducts<'_> {
    type Out = i64;
    fn len(&self) -> usize {
        self.w.grid * self.w.grid
    }
    fn run(&self, idx: usize) -> i64 {
        let g = self.w.grid;
        let s = self.w.block_size();
        let (i, j) = (idx / g, idx % g);
        let mut acc = vec![0.0; s * s];
        for k in 0..g {
            let ab = self.w.block(&self.a, i, k);
            let bb = self.w.block(&self.b, k, j);
            let (next, _) = kernels::block_mul_acc(&acc, &ab, &bb, s);
            acc = next;
        }
        acc.iter().sum::<f64>() as i64
    }
}

impl FlatNative for MatMul {
    type Out = i64;
    type Job<'a> = BlockProducts<'a>;

    fn name(&self) -> &'static str {
        "matmul"
    }
    fn expected_value(&self) -> i64 {
        self.expected()
    }
    fn job(&self) -> BlockProducts<'_> {
        let (a, b) = self.inputs();
        BlockProducts { w: self, a, b }
    }
    fn combine(&self, values: Vec<i64>) -> i64 {
        values.iter().sum()
    }
}

impl NativeWorkload for MatMul {
    fn name(&self) -> &'static str {
        FlatNative::name(self)
    }
    fn default_params(&self) -> String {
        format!("n={} grid={}", self.n, self.grid)
    }
    fn expected_value(&self) -> i64 {
        FlatNative::expected_value(self)
    }
    fn run_on(&self, cfg: &NativeConfig) -> Result<NativeMeasured, RunError> {
        run_flat(self, cfg)
    }
}

// ---------------------------------------------------------------- apsp

/// One pivot wave: relax every row by the (final) pivot row. The pivot
/// row itself is unchanged at its own step, so its task is the
/// identity — keeping one task per row keeps indices aligned with the
/// state vector.
pub struct PivotWave<'a> {
    state: &'a [Vec<f64>],
    pivot: Vec<f64>,
    /// 0-based pivot index.
    k: usize,
}

impl Job for PivotWave<'_> {
    type Out = Vec<f64>;
    fn len(&self) -> usize {
        self.state.len()
    }
    fn run(&self, idx: usize) -> Vec<f64> {
        if idx == self.k {
            self.state[idx].clone()
        } else {
            kernels::min_plus_update(&self.state[idx], &self.pivot, self.k).0
        }
    }
}

/// APSP's steal-backend form through the iterated seam: the carried
/// state is the distance matrix, round `k`'s job is the pivot-`k`
/// wave, and `absorb` replaces the rows wholesale.
impl IterNative for Apsp {
    type State = Vec<Vec<f64>>;
    type Out = Vec<f64>;
    type RoundJob<'a> = PivotWave<'a>;

    fn rounds(&self) -> usize {
        self.n
    }
    fn init_state(&self) -> Vec<Vec<f64>> {
        self.input_rows()
    }
    fn round_job<'a>(&'a self, round: usize, state: &'a Vec<Vec<f64>>) -> PivotWave<'a> {
        PivotWave {
            state,
            pivot: state[round].clone(),
            k: round,
        }
    }
    fn absorb(&self, _round: usize, state: &mut Vec<Vec<f64>>, values: Vec<Vec<f64>>) {
        *state = values;
    }
    fn finish(&self, state: Vec<Vec<f64>>) -> i64 {
        apsp_checksum(&state)
    }
}

/// Floyd–Warshall as a [`RingJob`]: row `idx` is the item, wave `k`'s
/// pivot is row `k`'s pre-wave state, and the update is the same
/// [`kernels::min_plus_update`] the other backends apply — so the ring
/// result is bit-identical to theirs (identical per-row operation
/// sequences on exactly-representable values).
struct ApspRing {
    rows: Vec<Vec<f64>>,
}

impl RingJob for ApspRing {
    type Item = Vec<f64>;

    fn len(&self) -> usize {
        self.rows.len()
    }
    fn init(&self, idx: usize) -> Vec<f64> {
        self.rows[idx].clone()
    }
    fn step(&self, item: &Vec<f64>, _idx: usize, pivot: &Vec<f64>, k: usize) -> Vec<f64> {
        kernels::min_plus_update(item, pivot, k).0
    }
}

fn apsp_checksum(rows: &[Vec<f64>]) -> i64 {
    rows.iter().map(|row| row.iter().sum::<f64>() as i64).sum()
}

impl NativeWorkload for Apsp {
    fn name(&self) -> &'static str {
        "apsp"
    }
    fn default_params(&self) -> String {
        format!("n={}", self.n)
    }
    fn expected_value(&self) -> i64 {
        self.expected()
    }
    /// Steal backend: `n` barrier-separated pivot waves over one
    /// persistent worker pool. Eden backend: the ring skeleton — PEs
    /// own row blocks for the whole run and the pivot row travels the
    /// ring once per wave, replacing the barrier with point-to-point
    /// messages.
    fn run_on(&self, cfg: &NativeConfig) -> Result<NativeMeasured, RunError> {
        match cfg.backend {
            BackendKind::Steal => self
                .run_native_on(&mut Pool::new(cfg))
                .map_err(RunError::from),
            BackendKind::Eden => {
                let job = ApspRing {
                    rows: self.input_rows(),
                };
                let out = try_ring(&job, cfg)?;
                let value = apsp_checksum(&out.values);
                Ok(measured(value, out))
            }
        }
    }
}

impl Apsp {
    /// The pivot waves on a caller-supplied pool (reusable across
    /// repetitions as well as waves). The barrier between waves
    /// replaces the thunk-graph synchronisation the GpH runtime does
    /// dynamically — coarser, but the same data flow, hence the same
    /// checksum. A panicking wave surfaces as `Err(JobPanicked)`; the
    /// pool survives for the caller's next run.
    pub fn run_native_on(&self, pool: &mut Pool) -> Result<NativeMeasured, JobPanicked> {
        run_iter_on(self, pool)
    }
}

// ---------------------------------------------------------------- nqueens

/// One task per depth-`spawn_depth` prefix: count the subtree's
/// solutions by sequential backtracking — the GpH spark unit.
pub struct Subtrees {
    prefixes: Vec<Vec<i64>>,
    n: usize,
}

impl Job for Subtrees {
    type Out = i64;
    fn len(&self) -> usize {
        self.prefixes.len()
    }
    fn run(&self, idx: usize) -> i64 {
        let mut placed = self.prefixes[idx].clone();
        let mut visited = 0u64;
        crate::nqueens::count_from(&mut placed, self.n, &mut visited) as i64
    }
}

impl FlatNative for NQueens {
    type Out = i64;
    type Job<'a> = Subtrees;

    fn name(&self) -> &'static str {
        "nqueens"
    }
    fn expected_value(&self) -> i64 {
        self.expected()
    }
    fn job(&self) -> Subtrees {
        Subtrees {
            prefixes: self.prefixes(),
            n: self.n,
        }
    }
    fn combine(&self, values: Vec<i64>) -> i64 {
        values.iter().sum()
    }
    /// Subtree sizes vary wildly — the irregular case the paper
    /// answers with a demand-driven master–worker farm.
    fn skeleton(&self) -> Skeleton {
        Skeleton::MasterWorker { prefetch: 2 }
    }
}

impl NativeWorkload for NQueens {
    fn name(&self) -> &'static str {
        FlatNative::name(self)
    }
    fn default_params(&self) -> String {
        format!("n={} depth={}", self.n, self.spawn_depth)
    }
    fn expected_value(&self) -> i64 {
        FlatNative::expected_value(self)
    }
    fn run_on(&self, cfg: &NativeConfig) -> Result<NativeMeasured, RunError> {
        run_flat(self, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The steal backend at every worker count.
    fn configs() -> Vec<NativeConfig> {
        [1usize, 2, 3, 4, 5, 8].map(NativeConfig::steal).to_vec()
    }

    /// Every task runs exactly once, on one worker, counted once as
    /// local or stolen.
    fn assert_conserved(stats: &NativeStats, tasks: u64, cfg: &NativeConfig) {
        assert_eq!(stats.tasks_run, tasks, "{cfg:?}");
        assert_eq!(stats.tasks_local + stats.tasks_stolen, tasks, "{cfg:?}");
        assert_eq!(stats.per_worker.iter().sum::<u64>(), tasks, "{cfg:?}");
        assert_eq!(stats.per_worker.len(), cfg.workers, "{cfg:?}");
    }

    /// Eden-backend configs: the steal-side knobs don't apply, so the
    /// sweep is worker counts × channel depths.
    fn eden_configs() -> Vec<NativeConfig> {
        let mut out = Vec::new();
        for w in [1usize, 2, 3, 4, 5, 8] {
            for cap in [1usize, 8] {
                out.push(
                    NativeConfig::new(w)
                        .with_backend(BackendKind::Eden)
                        .with_chan_cap(cap),
                );
            }
        }
        out
    }

    #[test]
    fn sum_euler_matches_oracle_everywhere() {
        let w = SumEuler::new(300).with_chunk_size(20);
        let expect = w.expected();
        for cfg in configs() {
            let m = w.run_on(&cfg).unwrap();
            assert_eq!(m.value, expect, "{cfg:?}");
            assert_conserved(&m.stats, w.ranges(w.chunk_size).len() as u64, &cfg);
        }
    }

    #[test]
    fn matmul_matches_oracle_everywhere() {
        let w = MatMul::new(40, 4);
        let expect = w.expected();
        for cfg in configs() {
            let m = w.run_on(&cfg).unwrap();
            assert_eq!(m.value, expect, "{cfg:?}");
            assert_conserved(&m.stats, 16, &cfg);
        }
    }

    #[test]
    fn apsp_matches_oracle_everywhere() {
        let w = Apsp::new(24);
        let expect = w.expected();
        for cfg in configs() {
            let m = w.run_on(&cfg).unwrap();
            assert_eq!(m.value, expect, "{cfg:?}");
            assert_conserved(&m.stats, 24 * 24, &cfg);
        }
    }

    #[test]
    fn nqueens_matches_known_count() {
        let w = NQueens::new(8).with_spawn_depth(2);
        for cfg in configs() {
            let m = w.run_on(&cfg).unwrap();
            assert_eq!(m.value, 92, "{cfg:?}");
        }
    }

    #[test]
    fn eden_backend_matches_oracles_everywhere() {
        // All four workloads through run_on's Eden dispatch: par_map
        // (sum_euler, matmul), master_worker (nqueens), ring (apsp).
        let se = SumEuler::new(300).with_chunk_size(20);
        let mm = MatMul::new(40, 4);
        let ap = Apsp::new(24);
        let nq = NQueens::new(8).with_spawn_depth(2);
        let table: [&dyn NativeWorkload; 4] = [&se, &mm, &ap, &nq];
        for cfg in eden_configs() {
            for w in table {
                let m = w.run_on(&cfg).unwrap();
                assert_eq!(m.value, w.expected_value(), "{} {cfg:?}", w.name());
                // Message passing really happened (except the n=1
                // trivial cases none of these are).
                assert_eq!(m.stats.msgs_sent, m.stats.msgs_recv, "{}", w.name());
                assert!(m.stats.msgs_sent > 0, "{}", w.name());
                assert_eq!(m.stats.steal_ops, 0, "{}", w.name());
            }
        }
    }

    #[test]
    fn backends_agree_bit_for_bit() {
        let se = SumEuler::new(200).with_chunk_size(13);
        let mm = MatMul::new(32, 4);
        let ap = Apsp::new(16);
        let nq = NQueens::new(7).with_spawn_depth(2);
        let table: [&dyn NativeWorkload; 4] = [&se, &mm, &ap, &nq];
        for workers in [1usize, 2, 4, 8] {
            let steal = NativeConfig::new(workers);
            let eden = NativeConfig::new(workers).with_backend(BackendKind::Eden);
            for w in table {
                assert_eq!(
                    w.run_on(&steal).unwrap().value,
                    w.run_on(&eden).unwrap().value,
                    "{} workers={workers}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn run_on_replaces_the_removed_run_native_wrappers() {
        // The per-workload `run_native` wrappers (deprecated in PR 5)
        // are gone; the unified entry point must cover every registry
        // workload against its sequential oracle on the steal backend.
        let cfg = NativeConfig::steal(2);
        for w in crate::registry::registry(crate::registry::Scale::Test) {
            assert_eq!(
                w.run_on(&cfg).unwrap().value,
                w.expected_value(),
                "{}",
                w.name()
            );
        }
    }

    /// Golden counters of the default steal path: at one worker the
    /// schedule is deterministic (the caller pops its one seed range
    /// and never splits it), so the whole `NativeStats` is pinned by
    /// value, not only compared run against run.
    #[test]
    fn golden_single_worker_stats() {
        let m = MatMul::new(32, 4)
            .run_on(&NativeConfig::steal(1).with_seed(42))
            .unwrap();
        assert_eq!(
            m.stats,
            NativeStats {
                tasks_run: 16,
                tasks_local: 16,
                per_worker: vec![16],
                ..NativeStats::default()
            }
        );
    }

    #[test]
    fn randomized_policy_is_deterministic_on_deterministic_schedules() {
        // With one worker the schedule itself is deterministic (no
        // races), so two runs of the same config — including the
        // victim-selection seed — must produce identical stats, not
        // just identical values.
        let w = MatMul::new(32, 4);
        let cfg = NativeConfig::steal(1).with_seed(42);
        let a = w.run_on(&cfg).unwrap();
        let b = w.run_on(&cfg).unwrap();
        assert_eq!(a.value, b.value);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn apsp_wave_stats_accumulate() {
        let w = Apsp::new(12);
        let m = w.run_on(&NativeConfig::steal(2)).unwrap();
        // 12 waves × 12 row tasks.
        assert_eq!(m.stats.tasks_run, 144);
        assert_eq!(m.stats.per_worker.iter().sum::<u64>(), 144);
        assert_eq!(m.stats.tasks_local + m.stats.tasks_stolen, 144);
    }

    #[test]
    fn apsp_ring_stats_mirror_wave_stats() {
        let w = Apsp::new(12);
        let eden = NativeConfig::new(3).with_backend(BackendKind::Eden);
        let m = w.run_on(&eden).unwrap();
        // Same task accounting as the wave form: 12 waves × 12 rows
        // (the ring counts every owned row per wave, pivot included).
        assert_eq!(m.stats.tasks_run, 144);
        assert_eq!(m.stats.per_worker.iter().sum::<u64>(), 144);
        assert_eq!(m.stats.msgs_sent, m.stats.msgs_recv);
    }

    /// The waves on a pool that already served a run, and on a pool
    /// spawned for this run alone (`run_on`), agree with the oracle and
    /// with each other.
    #[test]
    fn apsp_pooled_and_respawn_agree_with_oracle() {
        let w = Apsp::new(16);
        let expect = w.expected();
        for cfg in [NativeConfig::steal(3), NativeConfig::steal(4)] {
            let mut pool = Pool::new(&cfg);
            w.run_native_on(&mut pool).unwrap();
            let pooled = w.run_native_on(&mut pool).unwrap();
            let respawn = w.run_on(&cfg).unwrap();
            assert_eq!(pooled.value, expect, "{cfg:?}");
            assert_eq!(respawn.value, expect, "{cfg:?}");
            assert_eq!(pooled.stats.tasks_run, respawn.stats.tasks_run, "{cfg:?}");
        }
    }

    #[test]
    fn shared_pool_serves_repeated_apsp_runs() {
        let w = Apsp::new(10);
        let expect = w.expected();
        let mut pool = Pool::new(&NativeConfig::steal(4));
        for _ in 0..3 {
            let m = w.run_native_on(&mut pool).unwrap();
            assert_eq!(m.value, expect);
            assert_eq!(m.stats.tasks_run, 100);
        }
    }
}
