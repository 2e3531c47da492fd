//! `compare A.json B.json`: per (workload, end-to-end metric) row, both
//! medians and quartiles and a verdict against the metric's bound.
//! Metrics that are exact for a seed compare by equality.

use crate::json::Json;
use crate::metrics::{self, Better, END_TO_END, PER_LAYER};
use crate::report::summary_from_json;
use crate::stats::Summary;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The spread between a file's own samples exceeds the bound and the
    /// two files' inter-quartile ranges overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How B reads against A for a metric with this direction and bound.
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    // By how much of A's median B is worse (negative: better).
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    };
    let noisy = a.spread() > bound || b.spread() > bound;
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    if noisy && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn host_field<'a>(file: &'a Json, key: &str) -> Option<&'a Json> {
    file.get("host")?.get(key)
}

/// The comparison table, or why the files cannot be compared. The flag
/// is true when any row reads `worse` or an exact metric differs.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    for key in ["kernel_variant", "W"] {
        let (x, y) = (host_field(a, key), host_field(b, key));
        if x.is_none() || x != y {
            return Err(format!(
                "refusing to compare: host.{key} differs or is missing ({x:?} vs {y:?})"
            ));
        }
    }
    let workloads = |f: &Json| -> Result<Vec<(String, Json)>, String> {
        f.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or_else(|| "not a result file: no `workloads` object".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);

    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<14} {:<28} {:>13} {:>22} {:>13} {:>22} {:>8}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "bound"
    );
    for (name, ja) in &wa {
        let Some((_, jb)) = wb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let metric = |j: &Json, section: &str, metric: &str| {
            j.get(section)?.get(metric).and_then(summary_from_json)
        };
        let row =
            |out: &mut String, metric: &str, sa: &Summary, sb: &Summary, bound: String, v: &str| {
                let _ = writeln!(
                out,
                "{:<14} {:<28} {:>13.6} {:>10.5}..{:<10.5} {:>13.6} {:>10.5}..{:<10.5} {:>8}  {}",
                name, metric, sa.median, sa.q1, sa.q3, sb.median, sb.q1, sb.q3, bound, v
            );
            };
        for def in END_TO_END {
            let (Some(sa), Some(sb)) = (
                metric(ja, "end_to_end", def.name),
                metric(jb, "end_to_end", def.name),
            ) else {
                continue;
            };
            let v = verdict(&sa, &sb, def.better, def.bound);
            regressed |= v == Verdict::Worse;
            let bound = format!("{:.0}%", def.bound * 100.0);
            row(&mut out, def.name, &sa, &sb, bound, v.name());
        }
        let failed = |j: &Json| j.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(jb) > failed(ja) {
            regressed = true;
            let _ = writeln!(
                out,
                "{name:<14} failed operations rose from {} to {}  worse",
                failed(ja),
                failed(jb)
            );
        }
        let exact_here =
            |d: &&metrics::LayerDef| metrics::is_exact(d.name) && d.on.contains(&name.as_str());
        for def in PER_LAYER.iter().filter(exact_here) {
            let (Some(sa), Some(sb)) = (
                metric(ja, "per_layer", def.name),
                metric(jb, "per_layer", def.name),
            ) else {
                continue;
            };
            let equal = sa.median == sb.median;
            regressed |= !equal;
            let v = if equal { "equal" } else { "differs" };
            row(&mut out, def.name, &sa, &sb, "exact".to_string(), v);
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            n: 10,
            median,
            q1,
            q3,
        }
    }

    #[test]
    fn verdict_follows_direction_and_bound() {
        let a = s(0.99, 1.0, 1.01);
        assert_eq!(
            verdict(&a, &s(1.04, 1.05, 1.06), Better::Lower, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &s(1.19, 1.2, 1.21), Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &s(0.79, 0.8, 0.81), Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &s(1.19, 1.2, 1.21), Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &s(0.79, 0.8, 0.81), Better::Higher, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let a = s(0.8, 1.0, 1.2);
        assert_eq!(
            verdict(&a, &s(0.9, 1.05, 1.3), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Wide but disjoint: every quartile of B is beyond A's.
        assert_eq!(
            verdict(&a, &s(1.5, 1.8, 2.1), Better::Lower, 0.10),
            Verdict::Worse
        );
    }

    fn file(variant: &str, wall: f64, virtual_ms: f64) -> Json {
        let m = |x: f64| {
            Json::obj([
                ("unit", Json::str("s")),
                ("n", Json::Num(3.0)),
                ("median", Json::Num(x)),
                ("q1", Json::Num(x)),
                ("q3", Json::Num(x)),
            ])
        };
        Json::obj([
            (
                "host",
                Json::obj([
                    ("kernel_variant", Json::str(variant)),
                    ("W", Json::Num(2.0)),
                ]),
            ),
            (
                "workloads",
                Json::obj([(
                    "sim_multicore",
                    Json::obj([
                        ("failed", Json::Num(0.0)),
                        ("end_to_end", Json::obj([("wall_s", m(wall))])),
                        ("per_layer", Json::obj([("sim.virtual_ms", m(virtual_ms))])),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compares_files_and_flags_regressions() {
        let (table, regressed) =
            compare(&file("avx2", 1.0, 5.0), &file("avx2", 1.02, 5.0)).unwrap();
        assert!(!regressed, "{table}");
        assert!(table.contains("same") && table.contains("equal"), "{table}");
        let (table, regressed) = compare(&file("avx2", 1.0, 5.0), &file("avx2", 1.5, 5.0)).unwrap();
        assert!(regressed && table.contains("worse"), "{table}");
        let (table, regressed) = compare(&file("avx2", 1.0, 5.0), &file("avx2", 1.0, 5.5)).unwrap();
        assert!(regressed && table.contains("differs"), "{table}");
    }

    #[test]
    fn refuses_files_from_different_kernel_variants() {
        let err = compare(&file("avx2", 1.0, 5.0), &file("scalar", 1.0, 5.0)).unwrap_err();
        assert!(err.contains("kernel_variant"), "{err}");
    }
}
