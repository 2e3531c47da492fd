//! The Eden oversubscription sweep plus the cluster topology ablation.
//!
//! Two experiments in one binary, both self-asserting (a violated
//! shape gate is a non-zero exit, so CI catches regressions):
//!
//! 1. **Native Eden PE oversubscription** — the paper's §V observation
//!    that Eden under PVM tolerates more PEs than cores (Fig. 4 runs
//!    2×). We drive the native Eden backend at 1×–16× the host's core
//!    count and assert the 4× point stays within 1.05× of the 1× wall
//!    clock (best-of-reps — the stable statistic on a noisy shared
//!    host): PEs are cheap blocked threads, not busy spinners, so
//!    oversubscription must not collapse throughput.
//!
//! 2. **Sim topology ablation** — 16–256 modeled cores arranged as a
//!    cluster of 8-core nodes, comparing a single flat node against
//!    the two-level topology with hierarchical (steal-local-first,
//!    batched-remote) and flat (uniform victims, single-spark remote
//!    transfers) stealing. Gates: at ≥2 nodes, hierarchical stealing
//!    must cut both the remote steal count and the total inter-node
//!    words moved versus flat stealing.
//!
//! ```text
//! cargo run -p rph-bench --release --bin oversub_sweep [--quick]
//! ```

use rph::prelude::*;
use rph_bench::*;
use rph_workloads::{NQueens, SumEuler};
use std::time::Duration;

/// Repetitions per native timing point (median taken).
fn reps() -> usize {
    if quick() {
        3
    } else {
        5
    }
}

struct OversubPoint {
    mult: usize,
    pes: usize,
    wall: Duration,
    best: Duration,
}

/// Part 1: native Eden at 1×–16× PE oversubscription.
fn native_oversub(rows: &mut Vec<String>) -> Vec<OversubPoint> {
    let base = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // NQueens under the master–worker skeleton: demand-driven feeding
    // is exactly what oversubscription stresses. Fixed size even under
    // --quick (the kernel-gate policy): a 5% wall-clock gate needs
    // tens-of-ms runs, not toy sizes where thread-spawn jitter alone
    // exceeds the slop.
    let n: usize = 11;
    let w = NQueens::new(n).with_spawn_depth(3);
    println!("Native Eden oversubscription — {n}-queens (master-worker), {base} host core(s)\n");
    let mut table = TextTable::new(&["PEs", "× cores", "median wall", "vs 1×"]);
    const MULTS: [usize; 5] = [1, 2, 4, 8, 16];
    // Reps interleaved round-robin across the multiples so a slow
    // phase on a shared host degrades every point equally instead of
    // biasing one side of the gate ratio; the min (best-of-reps, the
    // SIMD-gate policy) then discards the slow rounds.
    let mut walls: Vec<Vec<Duration>> = vec![Vec::new(); MULTS.len()];
    for _ in 0..reps().max(5) {
        for (i, mult) in MULTS.into_iter().enumerate() {
            let pes = base * mult;
            let cfg = NativeConfig::new(pes).with_backend(BackendKind::Eden);
            let ctx = format!("eden pes={pes} ({mult}x)");
            walls[i].push(oracles::checked_run(&w, &cfg, &ctx).wall);
        }
    }
    let mut points: Vec<OversubPoint> = Vec::new();
    for (i, mult) in MULTS.into_iter().enumerate() {
        let pes = base * mult;
        walls[i].sort();
        let (wall, best) = (walls[i][walls[i].len() / 2], walls[i][0]);
        let rel = wall.as_secs_f64()
            / points
                .first()
                .map_or(wall.as_secs_f64(), |p: &OversubPoint| p.wall.as_secs_f64());
        table.row(&[
            pes.to_string(),
            format!("{mult}x"),
            format!("{:.1} ms", wall.as_secs_f64() * 1e3),
            format!("{rel:.2}"),
        ]);
        rows.push(format!(
            "{{\"pes\": {pes}, \"mult\": {mult}, \"median_ns\": {}, \"min_ns\": {}}}",
            wall.as_nanos(),
            best.as_nanos()
        ));
        points.push(OversubPoint {
            mult,
            pes,
            wall,
            best,
        });
    }
    let rendered = table.render();
    println!("{rendered}");
    points
}

/// Gate: the 4× point must stay within `SLOP` of the 1× point.
fn assert_oversub_gate(points: &[OversubPoint]) {
    const SLOP: f64 = 1.05;
    let at = |mult: usize| {
        points
            .iter()
            .find(|p| p.mult == mult)
            .expect("sweep includes this multiple")
    };
    let (one, four) = (at(1), at(4));
    let ratio = four.best.as_secs_f64() / one.best.as_secs_f64();
    println!(
        "gate: best wall({} PEs) / best wall({} PEs) = {ratio:.3} (limit {SLOP})",
        four.pes, one.pes
    );
    assert!(
        ratio <= SLOP,
        "oversubscription gate: 4x PEs took {ratio:.3}x the 1x wall clock \
         (best-of-reps, limit {SLOP}) — blocked PEs must stay cheap"
    );
}

struct TopoPoint {
    cores: usize,
    label: &'static str,
    elapsed: rph_trace::Time,
    stats: rph_gph::GphStats,
}

/// Part 2: sim topology ablation on clusters of 8-core nodes.
fn sim_topology(rows: &mut Vec<String>) -> Vec<TopoPoint> {
    const PER_NODE: usize = 8;
    let n = sum_euler_n();
    let w = SumEuler::new(n).with_chunk_size((n / 600).max(1)); // finer grains for many caps
    let expected = w.expected();
    let sweep: &[usize] = if quick() {
        &[16, 32]
    } else {
        &[16, 32, 64, 128, 256]
    };
    println!("\nSim cluster topology — sumEuler [1..{n}], nodes of {PER_NODE} cores\n");
    let mut table = TextTable::new(&[
        "cores",
        "nodes",
        "model",
        "runtime",
        "stolen",
        "remote steals",
        "remote words",
    ]);
    let mut points = Vec::new();
    for &cores in sweep {
        let nodes = cores / PER_NODE;
        let base = GphConfig::ghc69_plain(cores)
            .with_improved_gc_sync()
            .with_work_stealing()
            .without_trace();
        let variants: [(&'static str, GphConfig); 3] = [
            ("single node", base.clone()),
            (
                "cluster, hierarchical",
                base.clone().with_topology(nodes, PER_NODE),
            ),
            (
                "cluster, flat stealing",
                base.with_topology(nodes, PER_NODE).with_flat_stealing(),
            ),
        ];
        for (label, cfg) in variants {
            let m = w.run_gph(cfg).expect(label);
            check(&m, expected, label);
            let stats = m.gph_stats.clone().expect("gph run has stats");
            table.row(&[
                cores.to_string(),
                nodes.to_string(),
                label.to_string(),
                secs(m.elapsed),
                stats.sparks_stolen.to_string(),
                stats.steal_remote.to_string(),
                stats.remote_words.to_string(),
            ]);
            rows.push(format!(
                "{{\"cores\": {cores}, \"nodes\": {nodes}, \"model\": \"{label}\", \
                 \"elapsed_ns\": {}, \"sparks_stolen\": {}, \"steal_local\": {}, \
                 \"steal_remote\": {}, \"remote_words\": {}}}",
                m.elapsed,
                stats.sparks_stolen,
                stats.steal_local,
                stats.steal_remote,
                stats.remote_words
            ));
            points.push(TopoPoint {
                cores,
                label,
                elapsed: m.elapsed,
                stats,
            });
        }
    }
    let rendered = table.render();
    println!("{rendered}");
    points
}

/// Gates: hierarchical stealing must beat flat stealing on remote
/// traffic at every multi-node size, and single-node runs must not
/// pay any remote costs at all.
fn assert_topology_gates(points: &[TopoPoint]) {
    let find = |cores: usize, label: &str| {
        points
            .iter()
            .find(|p| p.cores == cores && p.label == label)
            .expect("ablation includes this point")
    };
    let sizes: Vec<usize> = {
        let mut s: Vec<usize> = points.iter().map(|p| p.cores).collect();
        s.dedup();
        s
    };
    for cores in sizes {
        let single = find(cores, "single node");
        assert_eq!(
            single.stats.steal_remote, 0,
            "{cores} cores: a single-node run must not record remote steals"
        );
        assert_eq!(
            single.stats.remote_words, 0,
            "{cores} cores: a single-node run must not move inter-node words"
        );
        if cores <= 8 {
            continue; // one node: nothing remote to compare
        }
        let hier = find(cores, "cluster, hierarchical");
        let flat = find(cores, "cluster, flat stealing");
        assert!(
            flat.stats.steal_remote > 0,
            "{cores} cores: flat stealing on a cluster should cross nodes"
        );
        assert!(
            hier.stats.steal_remote < flat.stats.steal_remote,
            "{cores} cores: hierarchical stealing must cut remote steal count \
             (hier {} vs flat {})",
            hier.stats.steal_remote,
            flat.stats.steal_remote
        );
        assert!(
            hier.stats.remote_words < flat.stats.remote_words,
            "{cores} cores: hierarchical stealing must cut inter-node words \
             (hier {} vs flat {})",
            hier.stats.remote_words,
            flat.stats.remote_words
        );
        println!(
            "gate: {cores} cores — remote steals {} -> {}, remote words {} -> {}, \
             runtime {} -> {}",
            flat.stats.steal_remote,
            hier.stats.steal_remote,
            flat.stats.remote_words,
            hier.stats.remote_words,
            secs(flat.elapsed),
            secs(hier.elapsed),
        );
    }
}

fn main() {
    check_args(&[]);
    let mut oversub_rows = Vec::new();
    let points = native_oversub(&mut oversub_rows);
    assert_oversub_gate(&points);

    let mut topo_rows = Vec::new();
    let topo = sim_topology(&mut topo_rows);
    assert_topology_gates(&topo);

    let mut csv = String::from("section,cores_or_pes,model,elapsed_ns,steal_remote,remote_words\n");
    for p in &points {
        csv.push_str(&format!(
            "oversub,{},{}x,{},,\n",
            p.pes,
            p.mult,
            p.wall.as_nanos()
        ));
    }
    for p in &topo {
        csv.push_str(&format!(
            "topology,{},{},{},{},{}\n",
            p.cores, p.label, p.elapsed, p.stats.steal_remote, p.stats.remote_words
        ));
    }
    write_artifact("oversub_sweep.csv", &csv);
    let json = format!(
        "{{\n  \"schema\": \"rph-oversub-sweep/v1\",\n  \"oversub\": [\n    {}\n  ],\n  \"topology\": [\n    {}\n  ]\n}}\n",
        oversub_rows.join(",\n    "),
        topo_rows.join(",\n    ")
    );
    write_artifact("oversub_sweep.json", &json);
    write_artifact(
        "oversub_sweep.txt",
        "All oversubscription and topology gates passed; see oversub_sweep.{csv,json}.\n",
    );
    println!("\nAll gates passed.");
}
