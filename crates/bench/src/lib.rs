//! # rph-bench — regenerating every table and figure of the paper
//!
//! One binary per table, figure or ablation (run with `--release`);
//! the three speedup figures share one:
//!
//! | paper artifact | binary |
//! |---|---|
//! | Fig. 1 — sumEuler runtimes table | `fig1_sumeuler_table` |
//! | Fig. 2 — sumEuler runtime traces | `fig2_sumeuler_traces` |
//! | Fig. 3 left — sumEuler speedups 1–16 cores | `speedup --workload sum_euler` |
//! | Fig. 3 right — matmul speedups 1–16 cores | `speedup --workload matmul` |
//! | Fig. 4 — matmul traces incl. PE oversubscription | `fig4_matmul_traces` |
//! | Fig. 5 — shortest-paths speedups | `speedup --workload apsp` |
//! | §IV ablations — each optimisation in isolation | `ablation_ladder` |
//! | cost-model robustness | `ablation_costs` |
//! | task decomposition (sumEuler chunking) | `decomposition_sumeuler` |
//! | heap organisation: stop-the-world → per-capability nurseries | `alloc_area_ablation` |
//! | §VI — scaling beyond 16 cores | `future_manycore` |
//! | native wall-clock traces + overhead report | `trace_native` |
//! | §V oversubscription + cluster topology ablation | `oversub_sweep` |
//!
//! Every binary accepts `--quick` for a reduced problem size (used by
//! CI), rejects any flag it does not know ([`check_args`]) and writes
//! machine-readable CSV next to its textual output under
//! `target/paper-figures/`.
//!
//! These binaries answer "does the reproduction still show the paper's
//! figures"; "how fast is the code" is `benchmark/`'s question (see
//! `benchmark/README.md`), and no number printed here is a perf
//! baseline.

pub mod oracles;

use rph::prelude::*;
use rph_workloads::{Measured, Scale};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The per-figure output directory (`target/paper-figures`).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/paper-figures");
    std::fs::create_dir_all(&dir).expect("create figure output dir");
    dir
}

/// Write an artifact file and tell the user.
pub fn write_artifact(name: &str, contents: &str) {
    let path = out_dir().join(name);
    std::fs::write(&path, contents).expect("write artifact");
    println!("[wrote {}]", path.display());
}

/// A binary's checked command line ([`check_args`]): the flags
/// present, with the value of those that take one.
#[derive(Debug, PartialEq, Eq)]
pub struct Args(BTreeMap<&'static str, Option<String>>);

impl Args {
    /// Was the switch `flag` given?
    pub fn has(&self, flag: &str) -> bool {
        self.0.contains_key(flag)
    }

    /// The value given for `flag`, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.0.get(flag)?.as_deref()
    }
}

/// Check `args` (without the program name) against what a binary
/// accepts: `--quick` always, plus `extra`, where an entry written
/// `"--flag <v>"` takes one value. A mistyped flag would otherwise
/// silently run the multi-minute full-scale figure.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
    extra: &[&'static str],
) -> Result<Args, String> {
    let mut seen = BTreeMap::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let (flag, takes_value) = ["--quick"]
            .iter()
            .chain(extra)
            .map(|spec| match spec.split_once(' ') {
                Some((flag, _)) => (flag, true),
                None => (*spec, false),
            })
            .find(|(flag, _)| *flag == arg)
            .ok_or_else(|| format!("unknown argument {arg:?}"))?;
        let value = takes_value
            .then(|| {
                args.next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{flag} needs a value"))
            })
            .transpose()?;
        seen.insert(flag, value);
    }
    Ok(Args(seen))
}

/// [`parse_args`] on the process's command line: every binary calls
/// this first with the flags it accepts besides `--quick`. Anything
/// else prints the accepted flags and exits with status 2.
pub fn check_args(extra: &[&'static str]) -> Args {
    parse_args(std::env::args().skip(1), extra).unwrap_or_else(|err| {
        eprintln!("{err}; accepted: --quick {}", extra.join(" "));
        std::process::exit(2);
    })
}

/// True when `--quick` was passed (reduced sizes).
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The registry [`Scale`] selected by the command line: `--quick`
/// picks the quick tier, otherwise the full paper tier.
pub fn bench_scale() -> Scale {
    if quick() {
        Scale::Quick
    } else {
        Scale::Full
    }
}

/// The paper's machines: the Intel 8-core (Figs. 1, 2, 4) and the AMD
/// 16-core (Figs. 3, 5).
pub const INTEL_CORES: usize = 8;
pub const AMD_CORES: usize = 16;

/// Core counts swept for the speedup figures.
pub fn sweep_cores() -> Vec<usize> {
    vec![1, 2, 4, 6, 8, 12, 16]
}

/// sumEuler problem size (Fig. 1/2/3: `[1..15000]`).
pub fn sum_euler_n() -> i64 {
    if quick() {
        2_000
    } else {
        15_000
    }
}

/// Matrix size for the Fig. 3 speedups and the Fig. 4 traces (paper:
/// 2000×2000 and 1000×1000; 960 preserves the shapes).
pub fn matmul_n() -> usize {
    if quick() {
        240
    } else {
        960
    }
}

/// APSP graph size (Fig. 5: 400 nodes).
pub fn apsp_n() -> usize {
    if quick() {
        96
    } else {
        400
    }
}

/// Label + configuration for the four GpH ladder versions plus Eden —
/// the five "versions" of Figs. 1–4.
pub fn five_versions(caps: usize) -> Vec<Version> {
    let mut out: Vec<Version> = GphConfig::fig1_ladder(caps)
        .into_iter()
        .map(|(name, cfg)| Version::Gph(name.to_string(), cfg))
        .collect();
    out.push(Version::Eden(
        format!("Eden, {caps} PEs running under PVM"),
        EdenConfig::new(caps),
    ));
    out
}

/// A runnable configuration of either runtime.
pub enum Version {
    Gph(String, GphConfig),
    Eden(String, EdenConfig),
}

impl Version {
    pub fn label(&self) -> &str {
        match self {
            Version::Gph(l, _) | Version::Eden(l, _) => l,
        }
    }
}

/// Format virtual work units as seconds, like the paper's tables.
pub fn secs(units: rph_trace::Time) -> String {
    format!("{:.2} sec.", units as f64 / 1e9)
}

/// Format virtual work units as milliseconds.
pub fn millis(units: rph_trace::Time) -> String {
    format!("{:.1} ms", units as f64 / 1e6)
}

/// Panic with a clear message if a run returned the wrong value —
/// every figure regeneration double-checks results against the plain
/// Rust oracle.
pub fn check(m: &Measured, expected: i64, what: &str) {
    assert_eq!(m.value, expected, "{what}: wrong result — reproduction bug");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_are_five_and_ladder_ordered() {
        let v = five_versions(8);
        assert_eq!(v.len(), 5);
        assert!(v[0].label().contains("plain"));
        assert!(v[3].label().contains("work stealing"));
        assert!(v[4].label().contains("Eden"));
    }

    fn parse(args: &[&str], extra: &[&'static str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()), extra)
    }

    #[test]
    fn args_accepts_what_the_binary_lists() {
        assert_eq!(parse(&[], &[]), Ok(Args(BTreeMap::new())));
        let a = parse(
            &["--ablation", "pool-reuse", "--quick"],
            &["--eden", "--ablation <v>"],
        )
        .unwrap();
        assert!(a.has("--quick") && !a.has("--eden"));
        assert_eq!(a.value("--ablation"), Some("pool-reuse"));
        assert_eq!(a.value("--quick"), None);
    }

    #[test]
    fn args_rejects_typos_and_other_binaries_flags() {
        for bad in ["--quik", "--smoke", "--workload", "quick"] {
            let err = parse(&["--quick", bad], &["--color"]).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
        // A value is not consumed by a flag that takes none.
        assert!(parse(&["--color", "red"], &["--color"]).is_err());
    }

    #[test]
    fn args_rejects_a_missing_value() {
        let extra = ["--workload <v>"];
        assert_eq!(
            parse(&["--workload"], &extra),
            Err("--workload needs a value".to_string())
        );
        assert!(parse(&["--workload", "--quick"], &extra).is_err());
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(2_750_000_000), "2.75 sec.");
        assert_eq!(millis(1_500_000), "1.5 ms");
    }
}
