//! The wall-clock kernel gates: scalar-vs-SIMD and tiled-vs-naïve
//! timings of the vectorised kernels, self-asserting (CI runs it).
//!
//! ```text
//! cargo run --release -p rph-workloads --example simd_gate_probe
//! ```
//!
//! At n = 256 the tiled mat-mul must beat the naïve one ≥ 1.5×, the
//! dispatched mat-mul its scalar twin ≥ 2×, and the dispatched blocked
//! Floyd–Warshall its scalar twin ≥ 1.5×. Ratios are best-of-reps: a
//! shared host shows ~1.5× run-to-run noise, and the minimum is the
//! stable statistic. A missed gate fails the run only when dispatch
//! resolved the `avx512` tier — `target-cpu=native` lets LLVM
//! auto-vectorise the scalar baselines, so the 256-bit tier alone
//! cannot meet them (DESIGN.md §3.4.5); elsewhere a miss is a warning.
//! Bit-equality with the scalar (or naïve) result is asserted on every
//! tier.

use rph_workloads::kernels;
use rph_workloads::simd;
use std::time::Instant;

fn time<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Hold `ratio` against its gate: a miss panics when `enforce`, and is
/// a warning otherwise.
fn gate(what: &str, ratio: f64, target: f64, enforce: bool) {
    if ratio >= target {
        println!("  {what}: {ratio:.2}x (gate {target}x: PASS)");
    } else if enforce {
        panic!("{what}: {ratio:.2}x misses the {target}x gate on the avx512 tier");
    } else {
        println!(
            "  {what}: {ratio:.2}x (gate {target}x: miss — warn only, gates need the avx512 tier)"
        );
    }
}

fn main() {
    println!("active variant: {}", simd::active().name());
    println!("cpu features:   {:?}", simd::cpu_features());
    let enforce = simd::active() == simd::KernelVariant::Avx512;

    // --- matmul: dispatched vs scalar tiled kernel; gated at n = 256.
    // Small-integer inputs keep every product and partial sum exactly
    // representable, so even the FMA path must be bit-equal.
    for n in [64usize, 128, 256] {
        let a: Vec<f64> = (0..n * n).map(|i| ((i % 13) as f64) - 6.0).collect();
        let b: Vec<f64> = (0..n * n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut scalar = vec![0.0; n * n];
        let mut c = vec![0.0; n * n];
        let reps = (256 / n) * (256 / n) * 7;
        // The kernels compute `c += a·b`: clear the accumulator per rep.
        let ts = time(reps, || {
            scalar.fill(0.0);
            kernels::matmul_tiled_into_scalar(&mut scalar, &a, &b, n)
        });
        let tv = time(reps, || {
            c.fill(0.0);
            kernels::matmul_tiled_into(&mut c, &a, &b, n)
        });
        assert!(c == scalar, "matmul n={n}: simd diverged from scalar");
        let gf = 2.0 * (n * n * n) as f64 / 1e9;
        println!(
            "matmul n={n}: scalar {:.3} ms ({:.1} GF/s)  simd {:.3} ms ({:.1} GF/s)  ratio {:.2}x",
            ts * 1e3,
            gf / ts,
            tv * 1e3,
            gf / tv,
            ts / tv
        );
        if n == 256 {
            gate("matmul simd vs scalar", ts / tv, 2.0, enforce);
            let mut naive = Vec::new();
            let tn = time(3, || naive = kernels::matmul_oracle(&a, &b, n));
            assert!(c == naive, "matmul n={n}: tiled kernel diverged from naive");
            println!("matmul n={n}: naive {:.3} ms", tn * 1e3);
            gate("matmul tiled vs naive", tn / tv, 1.5, enforce);
        }
    }

    // --- Floyd–Warshall, n = 256 (min-plus is bit-exact at any
    // dispatch) ------------------------------------------------------
    let n = 256;
    let base: Vec<f64> = (0..n * n)
        .map(|i| {
            if i % 17 == 0 {
                f64::INFINITY
            } else {
                ((i % 29) + 1) as f64
            }
        })
        .collect();
    let mk = || {
        let mut d = base.clone();
        for i in 0..n {
            d[i * n + i] = 0.0;
        }
        d
    };
    let (mut scalar, mut d) = (Vec::new(), Vec::new());
    let ts = time(5, || {
        scalar = mk();
        kernels::floyd_warshall_blocked_scalar(&mut scalar, n);
    });
    let tv = time(5, || {
        d = mk();
        kernels::floyd_warshall_blocked(&mut d, n);
    });
    assert!(d == scalar, "apsp n={n}: simd diverged from scalar");
    let (ts_ms, tv_ms) = (ts * 1e3, tv * 1e3);
    println!("apsp   n={n}:  scalar {ts_ms:.3} ms  simd {tv_ms:.3} ms");
    gate(
        "blocked Floyd-Warshall simd vs scalar",
        ts / tv,
        1.5,
        enforce,
    );

    // --- totient sieve vs per-k gcd, range 1..=10_000 --------------
    // (the gcd path is Θ(hi²) gcd steps — keep hi modest here; the
    // ratio is algorithmic and carries no gate)
    let hi = 10_000;
    let (mut gcd, mut sieve) = (0, 0);
    let ts = time(1, || {
        gcd = (1..=hi).map(|k| kernels::phi_counted(k).0).sum();
    });
    let tv = time(3, || {
        sieve = kernels::sum_phi_range_sieve(1, hi);
    });
    assert_eq!(sieve, gcd, "sumeuler hi={hi}: sieve diverged from gcd");
    println!(
        "sumeuler hi={hi}: gcd {:.3} ms  sieve {:.3} ms  ratio {:.1}x",
        ts * 1e3,
        tv * 1e3,
        ts / tv
    );
}
