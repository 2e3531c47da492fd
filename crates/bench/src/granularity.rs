//! The scheduling ablations behind the `granularity_ablation` binary:
//! fixed-chunk dealing (the PR 1 executor) vs lazy range splitting,
//! the pool-reuse ablation for wave-structured APSP, and randomized
//! vs round-robin victim selection — selectable via [`Ablation`]
//! (`--ablation` on the binary).
//!
//! The paper's sumEuler experiments hinge on spark granularity:
//! chunk_size=1 drowns the fixed-task executor in per-task scheduling
//! (one deque element, one steal negotiation per totient), while
//! coarse chunks starve cores. Lazy splitting makes the *deque
//! element* a range that fissions only under observed thief demand, so
//! the fine decomposition keeps its load-balance without paying its
//! scheduling bill.

use rph::prelude::*;
use rph_native::{Granularity, NativeConfig, StealPolicy};
use rph_workloads::{Apsp, NativeWorkload, SumEuler};
use std::time::Duration;

/// Which ablation table(s) to produce — the `--ablation` flag of the
/// `granularity_ablation` binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// Fixed-chunk dealing vs lazy range splitting (sumEuler).
    Granularity,
    /// Persistent pool vs respawn-per-wave (APSP).
    PoolReuse,
    /// Randomized vs round-robin victim selection (sumEuler).
    StealPolicy,
    /// Every table.
    All,
}

impl Ablation {
    /// Parse a `--ablation` argument value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "granularity" => Some(Ablation::Granularity),
            "pool-reuse" => Some(Ablation::PoolReuse),
            "steal-policy" => Some(Ablation::StealPolicy),
            "all" => Some(Ablation::All),
            _ => None,
        }
    }
}

/// Repetitions per point; the minimum wall time is reported.
const REPS: usize = 3;

fn host_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

fn best_of(reps: usize, mut run: impl FnMut() -> Duration) -> Duration {
    (0..reps).map(|_| run()).min().expect("reps >= 1")
}

/// One ablation point: `w` under `cfg`, best-of-[`REPS`]
/// checksum-checked runs — returns the whole best rep so callers can
/// read its counters alongside its time.
fn best_point(w: &dyn NativeWorkload, cfg: &NativeConfig) -> rph_workloads::NativeMeasured {
    let ctx = format!("{} workers, {:?} backend", cfg.workers, cfg.backend);
    (0..REPS)
        .map(|_| crate::oracles::checked_run(w, cfg, &ctx))
        .min_by_key(|m| m.wall)
        .expect("reps >= 1")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// sumEuler at chunk_size ∈ {1, 10, paper-default}, fixed vs
/// lazy-split, work-pulling at the host's core count. Prints the
/// table; returns its CSV.
pub fn sum_euler_granularity(quick: bool) -> String {
    let n: i64 = if quick { 800 } else { 6_000 };
    let workers = host_workers();
    let default_chunk = (n / 150).max(1);
    println!("sumEuler [1..{n}] granularity ablation, {workers} workers, steal mode, {REPS} reps best-of");

    let mut table = TextTable::new(&[
        "chunk",
        "tasks",
        "fixed ms",
        "lazy ms",
        "fixed/lazy",
        "splits",
        "avg batch",
    ]);
    for chunk in [1, 10, default_chunk] {
        let w = SumEuler::new(n).with_chunk_size(chunk);
        let tasks = (n + chunk - 1) / chunk;

        let fixed_cfg = NativeConfig::steal(workers).with_granularity(Granularity::Fixed);
        let fixed = best_point(&w, &fixed_cfg).wall;

        let lazy_cfg = NativeConfig::steal(workers);
        let best = best_point(&w, &lazy_cfg);
        let (lazy, splits, avg_batch) = (best.wall, best.stats.splits, best.stats.mean_batch());

        table.row(&[
            chunk.to_string(),
            tasks.to_string(),
            format!("{:.2}", ms(fixed)),
            format!("{:.2}", ms(lazy)),
            format!("{:.2}", ms(fixed) / ms(lazy)),
            splits.to_string(),
            avg_batch.map_or_else(|| "-".into(), |b| format!("{b:.1}")),
        ]);
    }
    let rendered = table.render();
    println!("{rendered}");
    table.to_csv()
}

/// APSP pool-reuse ablation: one persistent pool across all pivot
/// waves vs a fresh thread pool per wave (the PR 1 shape). Prints the
/// table; returns its CSV.
pub fn apsp_pool_reuse(quick: bool) -> String {
    let n = if quick { 48 } else { 192 };
    let workers = host_workers();
    let w = Apsp::new(n);
    let expect = w.expected();
    let cfg = NativeConfig::steal(workers);
    println!(
        "apsp {n} nodes pool-reuse ablation ({n} waves), {workers} workers, {REPS} reps best-of"
    );

    let pooled = best_point(&w, &cfg).wall;
    let respawn = best_of(REPS, || {
        // `run_native_respawn` is not part of the `NativeWorkload`
        // surface `checked_run` covers; check its value directly.
        let m = w.run_native_respawn(&cfg).expect("respawn apsp run failed");
        crate::oracles::assert_value(w.name(), "respawn", m.value, expect);
        m.wall
    });

    let mut table = TextTable::new(&["variant", "ms", "vs pooled"]);
    table.row(&[
        "persistent pool".into(),
        format!("{:.2}", ms(pooled)),
        "1.00".into(),
    ]);
    table.row(&[
        "respawn per wave".into(),
        format!("{:.2}", ms(respawn)),
        format!("{:.2}", ms(respawn) / ms(pooled)),
    ]);
    let rendered = table.render();
    println!("{rendered}");
    table.to_csv()
}

/// Victim-selection ablation: randomized sweep permutation (the
/// default since PR 4) vs fixed round-robin order, on fine-grained
/// sumEuler where steal pressure is highest. Prints the table; returns
/// its CSV.
pub fn steal_policy(quick: bool) -> String {
    let n: i64 = if quick { 800 } else { 6_000 };
    let workers = host_workers();
    let w = SumEuler::new(n).with_chunk_size(1);
    println!(
        "sumEuler [1..{n}] steal-policy ablation (chunk 1), {workers} workers, {REPS} reps best-of"
    );

    let mut table = TextTable::new(&["policy", "ms", "steals", "vs randomized"]);
    let mut base_ms = None;
    for (label, policy) in [
        ("randomized", StealPolicy::Randomized),
        ("round-robin", StealPolicy::RoundRobin),
    ] {
        let cfg = NativeConfig::steal(workers).with_steal_policy(policy);
        let best = best_point(&w, &cfg);
        let (wall, steals) = (best.wall, best.stats.tasks_stolen);
        let rel = match base_ms {
            None => {
                base_ms = Some(ms(wall));
                "1.00".into()
            }
            Some(b) => format!("{:.2}", ms(wall) / b),
        };
        table.row(&[
            label.into(),
            format!("{:.2}", ms(wall)),
            steals.to_string(),
            rel,
        ]);
    }
    let rendered = table.render();
    println!("{rendered}");
    table.to_csv()
}

/// The selected ablation table(s); returns concatenated CSV.
pub fn run(quick: bool, which: Ablation) -> String {
    let mut csv = String::new();
    if matches!(which, Ablation::Granularity | Ablation::All) {
        csv.push_str(&sum_euler_granularity(quick));
    }
    if matches!(which, Ablation::PoolReuse | Ablation::All) {
        csv.push_str(&apsp_pool_reuse(quick));
    }
    if matches!(which, Ablation::StealPolicy | Ablation::All) {
        csv.push_str(&steal_policy(quick));
    }
    csv
}
