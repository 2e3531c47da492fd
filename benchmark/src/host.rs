//! The host fingerprint recorded with every result file, and the
//! process's peak resident set.

use crate::json::Json;
use std::process::Command;

/// Native workers / PEs / server workers everywhere: `min(2, nproc)`.
/// The load generator is one more thread of the same process.
pub fn workers() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a helper command's output, or "unknown" (the checkout
/// the driver runs in is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn fingerprint(seed: u64) -> Json {
    let features = rph_workloads::simd::cpu_features()
        .into_iter()
        .map(Json::str)
        .collect();
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("W", Json::Num(workers() as f64)),
        ("cpu_features", Json::Arr(features)),
        (
            "kernel_variant",
            Json::str(rph_workloads::simd::active().name()),
        ),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}
