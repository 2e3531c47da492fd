//! Victim selection for idle thieves.
//!
//! The PR 2 executor swept victims in fixed round-robin order:
//! thief `me` probed `me+1, me+2, …` (mod workers). Deterministic, but
//! it *convoys* steal traffic — when several workers go idle at once
//! (the common case: a run starts with all work on worker 0, or a
//! lazy split exposes one new range), their sweeps walk the victim
//! space in lock-step shifted by one, so they pile onto the loaded
//! deque within the same few probes and all but one of them pays a
//! `top` CAS retry — per probe wave, on the most contended line in the
//! system. GHC's work-stealing scheduler (and every classic
//! work-stealing runtime since Cilk) picks victims pseudo-randomly for
//! exactly this reason.
//!
//! [`VictimPicker`] draws a fresh random *permutation* of the other
//! workers for every sweep from a per-worker xorshift64* generator,
//! using the shared sweep contract in [`rph_sim::sweep`] (the same
//! Fisher–Yates + Lemire-bounded loop the GpH simulator's `DetRng`
//! sweeps use):
//!
//! * **Decorrelated**: distinct thieves shuffle with distinct streams,
//!   so simultaneous sweeps spread their first probes across distinct
//!   victims instead of convoying.
//! * **Full coverage**: a sweep still probes every other deque exactly
//!   once, so the bounded-sweep park contract is unchanged — a
//!   fruitless sweep really did observe every victim empty (or
//!   contended), and `SPIN_SWEEPS` fruitless sweeps mean what they
//!   always meant.
//! * **Deterministic per seed**: the generator is re-seeded from
//!   `(NativeConfig::seed, worker id)` at every run start, so two runs
//!   of the same config take byte-identical probe sequences —
//!   differential tests stay reproducible.
//! * **Allocation-free on the hot path**: the permutation buffer is
//!   allocated once per worker thread and shuffled in place
//!   (Fisher–Yates) at sweep start.
//!
//! The round-robin order survives only as the canonical order each run
//! starts shuffling from (DESIGN.md §3.4 records the retired arms).

use rph_sim::sweep::{self, SweepRng};

/// xorshift64* stream; state never zero. Implements the shared
/// [`SweepRng`] contract so the sweep shuffle is the one in
/// `rph_sim::sweep`, not a private copy.
pub(crate) struct Xorshift(u64);

impl SweepRng for Xorshift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// One worker's victim-order generator (see module docs).
pub(crate) struct VictimPicker {
    /// The other workers' ids, probed front to back each sweep and
    /// shuffled in place before it.
    order: Vec<u32>,
    rng: Xorshift,
    /// Kept so [`Self::begin_run`] can re-seed.
    me: u64,
}

/// SplitMix64 step — used only to turn `(seed, me)` into a
/// well-mixed, nonzero xorshift state.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl VictimPicker {
    /// A picker for worker `me` of `workers`.
    pub(crate) fn new(me: usize, workers: usize) -> Self {
        let mut p = VictimPicker {
            order: vec![0; workers - 1],
            rng: Xorshift(1),
            me: me as u64,
        };
        p.canonical_order();
        p
    }

    /// Restore the canonical (round-robin) order `me+1, me+2, …`,
    /// wrapping.
    fn canonical_order(&mut self) {
        let workers = self.order.len() + 1;
        let me = self.me as usize;
        for (d, slot) in self.order.iter_mut().enumerate() {
            *slot = ((me + 1 + d) % workers) as u32;
        }
    }

    /// Re-seed for a run: identical `(seed, me)` ⇒ identical shuffles.
    pub(crate) fn begin_run(&mut self, seed: u64) {
        // Feed worker id through the mixer (not a plain add) so
        // adjacent workers get uncorrelated streams; xorshift needs a
        // nonzero state.
        self.rng = Xorshift(splitmix64(seed ^ splitmix64(self.me)) | 1);
        // The shuffle permutes `order` in place, so the buffer itself
        // is RNG state: restore the canonical order too, or the first
        // sweep of a run would depend on the previous run's last sweep.
        self.canonical_order();
    }

    /// Start a sweep: Fisher–Yates-shuffle the victim order in place
    /// and return it, to probe front to back.
    pub(crate) fn sweep(&mut self) -> &[u32] {
        sweep::shuffle(&mut self.rng, &mut self.order);
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(xs: &[u32]) -> Vec<u32> {
        let mut v = xs.to_vec();
        v.sort_unstable();
        v
    }

    /// The picker every pool participant builds: one flat segment of
    /// all the other workers, shuffled per sweep.
    fn flat(me: usize, workers: usize) -> VictimPicker {
        VictimPicker::new(me, workers)
    }

    /// Golden probe sequences of the default picker: the first four
    /// sweeps of a few `(me, workers, seed)` triples, including the
    /// default seed, pinned by value so that no scheduler refactor can
    /// move one probe unnoticed.
    #[test]
    fn golden_sweep_sequences() {
        type Case = (usize, usize, u64, [&'static [u32]; 4]);
        const CASES: [Case; 6] = [
            (0, 2, 0x5eed0fa11, [&[1], &[1], &[1], &[1]]),
            (
                0,
                4,
                0x5eed0fa11,
                [&[3, 2, 1], &[3, 1, 2], &[2, 1, 3], &[1, 3, 2]],
            ),
            (
                3,
                4,
                0x5eed0fa11,
                [&[1, 2, 0], &[2, 1, 0], &[0, 1, 2], &[1, 2, 0]],
            ),
            (
                5,
                8,
                0x5eed0fa11,
                [
                    &[3, 7, 1, 2, 6, 0, 4],
                    &[1, 4, 6, 0, 7, 3, 2],
                    &[4, 2, 1, 0, 3, 6, 7],
                    &[7, 2, 4, 0, 3, 6, 1],
                ],
            ),
            (
                2,
                5,
                42,
                [&[0, 4, 3, 1], &[4, 3, 1, 0], &[3, 4, 1, 0], &[4, 3, 1, 0]],
            ),
            (1, 3, 7, [&[0, 2], &[2, 0], &[2, 0], &[0, 2]]),
        ];
        for (me, workers, seed, sweeps) in CASES {
            let mut p = flat(me, workers);
            p.begin_run(seed);
            for (k, want) in sweeps.iter().enumerate() {
                assert_eq!(
                    p.sweep(),
                    *want,
                    "me={me} W={workers} seed={seed:#x} sweep {k}"
                );
            }
        }
    }

    #[test]
    fn randomized_sweep_is_a_permutation_of_the_other_workers() {
        for me in 0..5 {
            let mut p = VictimPicker::new(me, 5);
            p.begin_run(42);
            for _ in 0..50 {
                let order = sorted(p.sweep());
                let expect: Vec<u32> = (0..5u32).filter(|&w| w != me as u32).collect();
                assert_eq!(order, expect, "me={me}");
            }
        }
    }

    #[test]
    fn same_seed_same_sequence_different_seed_different() {
        let mut a = VictimPicker::new(2, 8);
        let mut b = VictimPicker::new(2, 8);
        a.begin_run(123);
        b.begin_run(123);
        let sa: Vec<Vec<u32>> = (0..20).map(|_| a.sweep().to_vec()).collect();
        let sb: Vec<Vec<u32>> = (0..20).map(|_| b.sweep().to_vec()).collect();
        assert_eq!(sa, sb, "same seed must replay byte-identically");

        b.begin_run(124);
        let sc: Vec<Vec<u32>> = (0..20).map(|_| b.sweep().to_vec()).collect();
        assert_ne!(sa, sc, "different seeds should diverge");
    }

    #[test]
    fn begin_run_resets_the_stream() {
        let mut p = VictimPicker::new(0, 6);
        p.begin_run(9);
        let first: Vec<Vec<u32>> = (0..10).map(|_| p.sweep().to_vec()).collect();
        p.begin_run(9);
        let again: Vec<Vec<u32>> = (0..10).map(|_| p.sweep().to_vec()).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn distinct_workers_get_distinct_streams() {
        // Not a property that must hold for every seed/pair, but for
        // the default seed the first sweeps of 8 workers should not
        // all coincide once rotated into a common frame — that is the
        // convoy the policy exists to break.
        let mut firsts = Vec::new();
        for me in 0..8usize {
            let mut p = VictimPicker::new(me, 8);
            p.begin_run(0x5eed0fa11);
            // Rotate victim ids into the thief's own frame: relative
            // distance from `me`, so identical relative patterns (the
            // round-robin convoy) collide.
            let rel: Vec<u32> = p.sweep().iter().map(|&v| (v + 8 - me as u32) % 8).collect();
            firsts.push(rel);
        }
        firsts.sort();
        firsts.dedup();
        assert!(
            firsts.len() > 1,
            "all workers produced the same relative probe order"
        );
    }

    #[test]
    fn single_worker_has_no_victims() {
        let mut p = VictimPicker::new(0, 1);
        p.begin_run(1);
        assert!(p.sweep().is_empty());
    }

    /// The dedupe cross-check (PR 9 satellite): the GpH simulator's
    /// `DetRng`-driven sweeps and the native picker implement the same
    /// `rph_sim::sweep` contract — from one seed, both produce
    /// full-coverage single-probe sweeps: deterministic permutations
    /// that visit every victim exactly once per sweep.
    #[test]
    fn both_sweep_implementations_honour_the_shared_contract() {
        const SEED: u64 = 0x9E37;
        let victims: Vec<u32> = (1..8).collect(); // thief 0 of 8

        // GpH-style: DetRng shuffle of the victim buffer (what
        // `GphRuntime::victim_sweep` does each steal sweep).
        let mut rng = rph_sim::DetRng::new(SEED);
        let mut gph_sweeps = Vec::new();
        for _ in 0..20 {
            let mut buf = victims.clone();
            rng.shuffle(&mut buf);
            gph_sweeps.push(buf);
        }

        // Native: VictimPicker for the same thief, seeded identically.
        let mut p = VictimPicker::new(0, 8);
        p.begin_run(SEED);
        let native_sweeps: Vec<Vec<u32>> = (0..20).map(|_| p.sweep().to_vec()).collect();

        for (g, n) in gph_sweeps.iter().zip(&native_sweeps) {
            assert_eq!(sorted(g), victims, "gph sweep covers every victim once");
            assert_eq!(sorted(n), victims, "native sweep covers every victim once");
        }
        // Determinism: replaying either side from the same seed
        // reproduces the exact sweep sequence.
        let mut rng2 = rph_sim::DetRng::new(SEED);
        for g in &gph_sweeps {
            let mut buf = victims.clone();
            rng2.shuffle(&mut buf);
            assert_eq!(&buf, g);
        }
        let mut p2 = VictimPicker::new(0, 8);
        p2.begin_run(SEED);
        for n in &native_sweeps {
            assert_eq!(p2.sweep(), &n[..]);
        }
    }
}
