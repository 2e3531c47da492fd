//! # The workload registry — one list, every harness
//!
//! No native harness (`trace_native`, the repo benchmark, the
//! integration suites) carries a workload table of its own:
//! [`registry`] returns the full boxed set at one of three
//! [`Scale`]s, and each workload carries its own
//! [`NativeWorkload::name`] and [`NativeWorkload::default_params`] so
//! the harnesses need no side-band strings.
//!
//! Scales:
//!
//! * [`Scale::Test`] — seconds-long CI smoke sizes; every backend and
//!   worker count still exercises real parallelism.
//! * [`Scale::Quick`] — the `--quick` bench sizes (tens of ms per
//!   run on the reference box).
//! * [`Scale::Full`] — the paper-figure sizes.

use crate::{Apsp, Episim, MatMul, NQueens, NativeWorkload, SumEuler, VisitDist};

/// Problem-size tier for the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny CI-smoke sizes.
    Test,
    /// The `--quick` bench sizes.
    Quick,
    /// The paper-figure sizes.
    Full,
}

/// The registry's episim instance at `scale` — exposed concretely
/// (not boxed) because the bench harness's dedicated episim section
/// needs the workload-specific API ([`Episim::run_eden_native`]'s
/// tally, [`Episim::expected_tally`]) that the object-safe trait
/// deliberately does not carry. Keeping the constructor here means
/// the section and the registry can never disagree about sizes.
pub fn episim(scale: Scale) -> Episim {
    match scale {
        Scale::Test => Episim::new(240, 48, 4, 0x5EED, VisitDist::Skewed),
        Scale::Quick => Episim::new(4_000, 256, 8, 0x5EED, VisitDist::Skewed),
        Scale::Full => Episim::new(20_000, 512, 16, 0x5EED, VisitDist::Skewed),
    }
}

/// The five benchmark workloads at the requested scale, in canonical
/// order: the original four (sumEuler, matmul, apsp, nqueens) first —
/// harnesses assert this prefix stays stable — then episim.
pub fn registry(scale: Scale) -> Vec<Box<dyn NativeWorkload>> {
    match scale {
        Scale::Test => vec![
            Box::new(SumEuler::new(300).with_chunk_size(20)),
            Box::new(MatMul::new(40, 4)),
            Box::new(Apsp::new(24)),
            Box::new(NQueens::new(8).with_spawn_depth(2)),
            Box::new(episim(scale)),
        ],
        Scale::Quick => vec![
            Box::new(SumEuler::new(1_500)),
            Box::new(MatMul::new(240, 6)),
            Box::new(Apsp::new(96)),
            Box::new(NQueens::new(11).with_spawn_depth(3)),
            Box::new(episim(scale)),
        ],
        Scale::Full => vec![
            Box::new(SumEuler::new(6_000)),
            Box::new(MatMul::new(480, 8)),
            Box::new(Apsp::new(256)),
            Box::new(NQueens::new(13).with_spawn_depth(4)),
            Box::new(episim(scale)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_stable_and_legacy_prefix_holds() {
        for scale in [Scale::Test, Scale::Quick, Scale::Full] {
            let names: Vec<&str> = registry(scale).iter().map(|w| w.name()).collect();
            assert_eq!(
                names,
                ["sum_euler", "matmul", "apsp", "nqueens", "episim"],
                "scale {scale:?}"
            );
        }
    }

    #[test]
    fn params_strings_are_non_empty_and_distinct() {
        let params: Vec<String> = registry(Scale::Test)
            .iter()
            .map(|w| w.default_params())
            .collect();
        for p in &params {
            assert!(!p.is_empty());
        }
        let mut dedup = params.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), params.len(), "{params:?}");
    }

    #[test]
    fn test_scale_oracles_agree_with_expected_value() {
        // `expected_value` must be the sequential oracle for each
        // entry; run it twice to pin determinism.
        for w in registry(Scale::Test) {
            assert_eq!(w.expected_value(), w.expected_value(), "{}", w.name());
        }
    }
}
