//! Shared checksum-oracle helpers for the native bench binaries.
//!
//! Every harness that times a native run must first prove the run
//! computed the right answer — a fast wrong kernel is a reproduction
//! bug, not a result. The failure message, and the policy that
//! *every* timed run is checked, not just the first, live here.

use rph_native::NativeConfig;
use rph_workloads::{NativeMeasured, NativeWorkload};

/// Assert a run's checksum against its plain-Rust oracle value.
///
/// `ctx` names the configuration being timed (worker count, backend,
/// chunk size, …) so a divergence report says which point failed.
pub fn assert_value(workload: &str, ctx: &str, got: i64, want: i64) {
    assert_eq!(
        got, want,
        "{workload} ({ctx}): wrong checksum — reproduction bug"
    );
}

/// Run `w` once on `cfg` and assert its checksum against the oracle
/// before returning the measurement — the standard shape of a timed
/// native bench rep.
pub fn checked_run(w: &dyn NativeWorkload, cfg: &NativeConfig, ctx: &str) -> NativeMeasured {
    let m = w.run_on(cfg).expect("native run failed");
    assert_value(w.name(), ctx, m.value, w.expected_value());
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rph_workloads::SumEuler;

    #[test]
    fn checked_run_passes_on_correct_workload() {
        let w = SumEuler::new(50);
        let cfg = NativeConfig::steal(1);
        let m = checked_run(&w, &cfg, "test");
        assert_eq!(m.value, w.expected_value());
    }

    #[test]
    #[should_panic(expected = "wrong checksum")]
    fn assert_value_panics_on_divergence() {
        assert_value("sum_euler", "unit test", 1, 2);
    }
}
