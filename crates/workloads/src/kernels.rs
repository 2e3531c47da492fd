//! Native compute kernels shared by the workloads.
//!
//! Kernels really compute (gcd-based totients, floating block products,
//! min-plus row relaxations) and report costs derived from their actual
//! operation counts, plus the transient allocation the equivalent
//! Haskell inner loop would have produced (list spines and boxed
//! intermediates that a copying collector never pays to copy but that
//! fill the allocation area).

/// Cost of one gcd loop iteration (one Euclidean `mod` step).
pub const C_GCD_ITER: u64 = 22;
/// Per-candidate loop overhead in `phi` (list element, filter test).
pub const C_PHI_CANDIDATE: u64 = 12;
/// Transient words a Haskell `phi` allocates per candidate
/// (enumeration cons + filter machinery).
pub const W_PHI_CANDIDATE: u64 = 5;
/// Cost of one fused multiply-add in the block product.
pub const C_FMA: u64 = 1;
/// Cost of one min-plus relaxation step (add + compare + select).
pub const C_MINPLUS: u64 = 3;

/// gcd with an iteration count (Euclidean algorithm, the inner loop of
/// the naïve `relprime`).
#[inline]
pub fn gcd_counted(mut a: i64, mut b: i64, iters: &mut u64) -> i64 {
    while b != 0 {
        *iters += 1;
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Euler's totient, computed naïvely exactly like the paper's
/// `phi n = length (filter (relprime n) [1..n-1])`.
/// Returns `(phi(k), cost, transient_words)`.
pub fn phi_counted(k: i64) -> (i64, u64, u64) {
    let mut iters = 0u64;
    let mut count = 0i64;
    for j in 1..k {
        if gcd_counted(j, k, &mut iters) == 1 {
            count += 1;
        }
    }
    let candidates = (k - 1).max(0) as u64;
    (
        count,
        iters * C_GCD_ITER + candidates * C_PHI_CANDIDATE,
        candidates * W_PHI_CANDIDATE,
    )
}

/// Memoised [`phi_counted`]: benchmark sweeps evaluate the same
/// totients across dozens of configurations; the value (and its true
/// cost accounting) is computed honestly once per `k` and cached for
/// the life of the process.
pub fn phi_cached(k: i64) -> (i64, u64, u64) {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    type Cache = Mutex<HashMap<i64, (i64, u64, u64)>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().unwrap().get(&k) {
        return *hit;
    }
    let computed = phi_counted(k);
    cache.lock().unwrap().insert(k, computed);
    computed
}

/// `sum (map phi [lo..hi])` with cost accounting.
///
/// This is the **simulator's** kernel: its cost/word numbers model the
/// paper's naïve Haskell `phi` (gcd loop per candidate), so they must
/// keep coming from [`phi_counted`]'s real iteration counts. The
/// native backends and the job server, which charge wall-clock time
/// instead of modelled cost, use [`sum_phi_range_sieve`] — same
/// values, bit-for-bit, at a fraction of the per-element cost.
pub fn sum_phi_range(lo: i64, hi: i64) -> (i64, u64, u64) {
    let mut total = 0i64;
    let mut cost = 0u64;
    let mut words = 0u64;
    for k in lo..=hi {
        let (p, c, w) = phi_cached(k);
        total += p;
        cost += c;
        words += w;
    }
    (total, cost, words)
}

/// Primes `<= limit` by a plain sieve of Eratosthenes (the seed primes
/// for the segmented totient sieve; `limit` is `isqrt(hi)`, so this is
/// tiny next to the segment work).
fn small_primes(limit: u64) -> Vec<u64> {
    if limit < 2 {
        return Vec::new();
    }
    let limit = limit as usize;
    let mut composite = vec![false; limit + 1];
    let mut primes = Vec::new();
    for p in 2..=limit {
        if composite[p] {
            continue;
        }
        primes.push(p as u64);
        let mut m = p * p;
        while m <= limit {
            composite[m] = true;
            m += p;
        }
    }
    primes
}

/// Numbers per segment of the totient sieve: 2 × 16 KiB of u64 per
/// live segment (`phi` + `rem`) keeps both arrays L1/L2-resident while
/// still amortising the prime loop.
const SIEVE_SEG: u64 = 1 << 11;

/// `sum (map phi [lo..hi])` by a segmented smallest-prime-factor
/// sieve — the native/server totient kernel behind the same `(lo, hi)`
/// packed-range signature the executor tasks use, so lazy splitting
/// and the sim-vs-native differentials see identical task shapes and
/// **bit-identical values** ([`phi_counted`] is the oracle; the paper
/// defines φ(1) = 0 and the sieve honours that).
///
/// Per segment: `phi[i] = rem[i] = k`; for every seed prime `p ≤
/// √hi`, each multiple applies `phi ← phi/p·(p−1)` once and strips
/// `p` from `rem`; a leftover `rem > 1` is the single prime factor
/// `> √hi` and applies the same factor step. Both divisions are exact
/// at every step (the untouched prime powers still divide `phi`). The
/// final accumulation runs on `u64×4` lanes via [`crate::simd::sum_u64`]
/// — integer adds, so lane order changes nothing.
///
/// Replaces a per-`k` Euclidean gcd scan (`O(k log k)` *per totient*)
/// with `O(seg · log log hi)` per segment — the algorithmic half of
/// closing the per-element gap; the lane accumulation is the SIMD
/// half.
///
/// Requires `lo ≥ 1` whenever the range is non-empty: the paper's φ is
/// only defined on positive `k`, and [`sum_phi_range`] would iterate
/// from the original `lo` while the sieve clamps to 1, so the
/// bit-identical contract holds only on that shared domain.
pub fn sum_phi_range_sieve(lo: i64, hi: i64) -> i64 {
    if hi < lo {
        return 0;
    }
    debug_assert!(lo >= 1, "sum_phi_range_sieve requires lo >= 1, got {lo}");
    let lo = lo.max(1) as u64;
    let hi = hi as u64;
    let primes = small_primes(hi.isqrt());
    let mut phi: Vec<u64> = Vec::with_capacity(SIEVE_SEG as usize);
    let mut rem: Vec<u64> = Vec::with_capacity(SIEVE_SEG as usize);
    let mut total = 0u64;
    let mut seg_lo = lo;
    while seg_lo <= hi {
        let seg_hi = (seg_lo + SIEVE_SEG - 1).min(hi);
        let len = (seg_hi - seg_lo + 1) as usize;
        phi.clear();
        phi.extend(seg_lo..=seg_hi);
        rem.clear();
        rem.extend(seg_lo..=seg_hi);
        for &p in &primes {
            let mut m = seg_lo.div_ceil(p) * p;
            while m <= seg_hi {
                let idx = (m - seg_lo) as usize;
                phi[idx] = phi[idx] / p * (p - 1);
                while rem[idx].is_multiple_of(p) {
                    rem[idx] /= p;
                }
                m += p;
            }
        }
        for (pv, &rv) in phi.iter_mut().zip(rem.iter()) {
            if rv > 1 {
                *pv = *pv / rv * (rv - 1);
            }
        }
        if seg_lo == 1 {
            // The paper's φ(1) = |{j < 1 : gcd(j,1)=1}| = 0, not the
            // number-theory convention φ(1) = 1.
            phi[0] = 0;
        }
        total = total.wrapping_add(crate::simd::sum_u64(&phi[..len]));
        seg_lo = seg_hi + 1;
    }
    total as i64
}

/// Dense `s×s` block multiply-accumulate: `acc + a·b` (row-major),
/// naïve `i,k,j` triple loop. Kept as the **oracle** for
/// [`block_mul_acc`]: its per-element accumulation order is the
/// reference the tiled kernel's property tests compare against.
/// Returns the new block and the flop count ×[`C_FMA`].
pub fn block_mul_acc_naive(acc: &[f64], a: &[f64], b: &[f64], s: usize) -> (Vec<f64>, u64) {
    assert_eq!(acc.len(), s * s);
    assert_eq!(a.len(), s * s);
    assert_eq!(b.len(), s * s);
    let mut out = acc.to_vec();
    for i in 0..s {
        for k in 0..s {
            let aik = a[i * s + k];
            let row = &b[k * s..(k + 1) * s];
            let orow = &mut out[i * s..(i + 1) * s];
            for j in 0..s {
                orow[j] += aik * row[j];
            }
        }
    }
    (out, (s * s * s) as u64 * 2 * C_FMA)
}

/// Edge length of one cache tile in the blocked kernels. Three `T×T`
/// f64 tiles (an A tile, a B tile, a C tile) occupy 3·32²·8 = 24 KiB —
/// inside every L1d this code will meet — so the inner loops hit L1
/// instead of streaming the whole matrix through it per output row.
pub const TILE: usize = 32;

/// Rows of C the register micro-kernel holds at once.
pub(crate) const MR: usize = 4;
/// Columns of C the register micro-kernel holds at once.
pub(crate) const NR: usize = 8;

/// The register micro-kernel: accumulate the `MR×NR` C sub-block at
/// `(i, j)` over a packed A strip of `kw` k-steps entirely in
/// registers (one add into memory per C element at the end, instead of
/// a load/add/store per FLOP), with `NR` independent accumulator
/// chains per row so the FP-add latency chain never serialises.
///
/// `ap` is the strip's slice of the packed A tile (see
/// [`matmul_tiled_into`]): `MR` row values per k-step, contiguous — so
/// the k-loop reads A forward through one stream instead of striding
/// `MR` rows of the source matrix in parallel.
#[inline]
fn micro_mrxnr(
    c: &mut [f64],
    ap: &[f64],
    b: &[f64],
    n: usize,
    (i, j): (usize, usize),
    (kk, kw): (usize, usize),
) {
    let mut acc = [[0.0f64; NR]; MR];
    for k in 0..kw {
        let brow = &b[(kk + k) * n + j..(kk + k) * n + j + NR];
        let avals = &ap[k * MR..(k + 1) * MR];
        for (r, accr) in acc.iter_mut().enumerate() {
            let aik = avals[r];
            for (av, &bv) in accr.iter_mut().zip(brow) {
                *av += aik * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let crow = &mut c[(i + r) * n + j..(i + r) * n + j + NR];
        for (cv, &av) in crow.iter_mut().zip(accr) {
            *cv += av;
        }
    }
}

/// Scalar fallback for edge regions the micro-kernel's `MR×NR`
/// footprint does not cover: `c[i0..i1][j0..j1] += a[·][k0..k1]·b`.
#[inline]
fn scalar_edge(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    n: usize,
    (i0, i1): (usize, usize),
    (k0, k1): (usize, usize),
    (j0, j1): (usize, usize),
) {
    for i in i0..i1 {
        for k in k0..k1 {
            let aik = a[i * n + k];
            let brow = &b[k * n + j0..k * n + j1];
            let crow = &mut c[i * n + j0..i * n + j1];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += aik * bv;
            }
        }
    }
}

/// Cache-blocked `c += a·b` over row-major `n×n` matrices: `TILE`-deep
/// k-panels (so the B panel a sweep reuses stays cache-resident), each
/// A tile **packed** into `MR`-interleaved strips (the micro-kernel's
/// k-loop then reads A as one forward stream instead of `MR` strided
/// row cursors), the `MR×NR` register micro-kernel inside, and scalar
/// edge loops for the rows/columns a non-divisible `n` leaves over.
///
/// The micro-kernel dispatches through [`crate::simd::active`]: on an
/// AVX2+FMA host it is the lane kernel ([`crate::simd::avx2::micro_mrxnr`],
/// FMA-contracted), otherwise the scalar one. All workload inputs are
/// small integers, so every product and every partial sum is exactly
/// representable and the result is **exactly** the naïve kernel's on
/// either path — regrouping (and FMA-contracting) the additions loses
/// nothing there. For general floats the paths differ by reassociation
/// and contraction only, within the ulp envelope the property tests
/// gate (DESIGN.md §3.4.5).
pub fn matmul_tiled_into(c: &mut [f64], a: &[f64], b: &[f64], n: usize) {
    matmul_tiled_driver(c, a, b, n, crate::simd::active());
}

/// [`matmul_tiled_into`] pinned to the scalar micro-kernel: the
/// dispatch-independent baseline the bench gates and the forced-scalar
/// tests measure against.
pub fn matmul_tiled_into_scalar(c: &mut [f64], a: &[f64], b: &[f64], n: usize) {
    matmul_tiled_driver(c, a, b, n, crate::simd::KernelVariant::Scalar);
}

fn matmul_tiled_driver(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    n: usize,
    variant: crate::simd::KernelVariant,
) {
    assert_eq!(c.len(), n * n);
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    // Micro-kernel footprint per variant: the AVX-512 tier covers
    // 8×16 of C per call (twice the rows and columns — the extra rows
    // halve B-panel traffic per C element), the others MR×NR. The A
    // packing below is mr-deep to match; layout stays k-major.
    let (mr, nr) = match variant {
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        crate::simd::KernelVariant::Avx512 => {
            (crate::simd::avx512::MR512, crate::simd::avx512::NR512)
        }
        _ => (MR, NR),
    };
    // Packed A tile: strip s holds rows [ii + s·mr, ii + (s+1)·mr) of
    // the tile, laid out k-major — apack[s·mr·kw + k·mr + r].
    let mut apack = vec![0.0f64; TILE * TILE];
    for ii in (0..n).step_by(TILE) {
        let i_end = (ii + TILE).min(n);
        for kk in (0..n).step_by(TILE) {
            let k_end = (kk + TILE).min(n);
            let kw = k_end - kk;
            let mut strips = 0;
            let mut i = ii;
            while i + mr <= i_end {
                let base = strips * mr * kw;
                for (dk, k) in (kk..k_end).enumerate() {
                    for r in 0..mr {
                        apack[base + dk * mr + r] = a[(i + r) * n + k];
                    }
                }
                strips += 1;
                i += mr;
            }
            let mut strip = 0;
            let mut i = ii;
            while i + mr <= i_end {
                let ap = &apack[strip * mr * kw..(strip + 1) * mr * kw];
                let mut j = 0;
                while j + nr <= n {
                    match variant {
                        // Safety (both arms): dispatch resolved this
                        // tier, so the host has the features.
                        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
                        crate::simd::KernelVariant::Avx512 => unsafe {
                            crate::simd::avx512::micro_mrxnr(c, ap, b, n, (i, j), (kk, kw))
                        },
                        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
                        crate::simd::KernelVariant::Avx2 => unsafe {
                            crate::simd::avx2::micro_mrxnr(c, ap, b, n, (i, j), (kk, kw))
                        },
                        _ => micro_mrxnr(c, ap, b, n, (i, j), (kk, kw)),
                    }
                    j += nr;
                }
                if j < n {
                    scalar_edge(c, a, b, n, (i, i + mr), (kk, k_end), (j, n));
                }
                strip += 1;
                i += mr;
            }
            if i < i_end {
                scalar_edge(c, a, b, n, (i, i_end), (kk, k_end), (0, n));
            }
        }
    }
}

/// Dense `s×s` block multiply-accumulate: `acc + a·b` (row-major),
/// cache-blocked ([`matmul_tiled_into`]). This is the kernel the
/// workloads run; [`block_mul_acc_naive`] is its oracle. Returns the
/// new block and the flop count ×[`C_FMA`] (the tiling changes the
/// schedule, not the arithmetic, so the cost model is unchanged).
pub fn block_mul_acc(acc: &[f64], a: &[f64], b: &[f64], s: usize) -> (Vec<f64>, u64) {
    assert_eq!(acc.len(), s * s);
    let mut out = acc.to_vec();
    matmul_tiled_into(&mut out, a, b, s);
    (out, (s * s * s) as u64 * 2 * C_FMA)
}

/// One Floyd–Warshall relaxation of `row_i` by pivot row `row_k`
/// (pivot index `k`, 0-based): `d[t] = min(d[t], d[k] + row_k[t])`.
/// Returns the new row and the cost.
///
/// The row is collected from an exact-size iterator: a `push` loop
/// re-checks the capacity per element, which keeps LLVM from
/// vectorising it, and this is the inner loop of APSP on all four
/// backends.
pub fn min_plus_update(row_i: &[f64], row_k: &[f64], k: usize) -> (Vec<f64>, u64) {
    assert_eq!(row_i.len(), row_k.len());
    let dik = row_i[k];
    let out = row_i
        .iter()
        .zip(row_k)
        .map(|(&d, &dk)| {
            let via = dik + dk;
            if via < d {
                via
            } else {
                d
            }
        })
        .collect();
    (out, row_i.len() as u64 * C_MINPLUS)
}

/// Plain-Rust Floyd–Warshall over a row-major `n×n` distance matrix:
/// the APSP oracle. (Flat storage — one allocation, contiguous rows —
/// not the former `Vec<Vec<f64>>`, whose per-row allocations cost a
/// pointer chase per row access in every oracle check.)
pub fn floyd_warshall(dist: &mut [f64], n: usize) {
    assert_eq!(dist.len(), n * n);
    for k in 0..n {
        for i in 0..n {
            let dik = dist[i * n + k];
            if !dik.is_finite() {
                continue;
            }
            // The k-row is read while the i-row is written; at i == k
            // the relaxation is the identity (d[k][k] = 0 on a valid
            // distance matrix), so reading the row being written is
            // benign — but split indexing keeps the borrows disjoint.
            for j in 0..n {
                let via = dik + dist[k * n + j];
                if via < dist[i * n + j] {
                    dist[i * n + j] = via;
                }
            }
        }
    }
}

/// One blocked min-plus tile relaxation: relax the `ch×cw` tile of `d`
/// at `(ci, cj)` through intermediate vertices `k ∈ [kk, kk+kw)`, i.e.
/// `d[i][j] = min(d[i][j], d[i][k] + d[k][j])` with the k-loop
/// *outermost* (so in the self-dependent phases of blocked
/// Floyd–Warshall every relaxation sees the updates of smaller k, as
/// the classical algorithm requires).
///
/// `scratch` holds a copy of the k-row segment for the inner sweep:
/// within one k iteration the k-row and k-column are fixed points of
/// the relaxation (`d[k][k] = 0`), so the pre-iteration copy is exact,
/// and copying decouples the write row from the read row — the inner
/// loop is a straight-line min/add over two disjoint slices.
fn min_plus_tile(
    d: &mut [f64],
    n: usize,
    (ci, ch): (usize, usize),
    (cj, cw): (usize, usize),
    (kk, kw): (usize, usize),
    scratch: &mut Vec<f64>,
) {
    for k in kk..kk + kw {
        scratch.clear();
        scratch.extend_from_slice(&d[k * n + cj..k * n + cj + cw]);
        for i in ci..ci + ch {
            let dik = d[i * n + k];
            if !dik.is_finite() {
                continue;
            }
            let row = &mut d[i * n + cj..i * n + cj + cw];
            for (c, &bkj) in row.iter_mut().zip(scratch.iter()) {
                let via = dik + bkj;
                if via < *c {
                    *c = via;
                }
            }
        }
    }
}

/// Cache-blocked Floyd–Warshall (Venkataraman et al.'s tiled APSP) on
/// a row-major `n×n` matrix, [`TILE`]-sized tiles: for each pivot tile
/// on the diagonal, (1) close the pivot tile over its own vertices,
/// (2) relax its row and column panels through it, (3) relax every
/// remaining tile through its row/column panel pair. Each phase only
/// reads tiles the previous phase finished, which is what makes the
/// reordering exact — every tile still sees intermediate vertices in
/// ascending order. The working set per tile op is ≤ 3 tiles (24 KiB)
/// instead of three full `n×n` sweeps, and results are **identical**
/// to [`floyd_warshall`] (min-plus relaxation: min is exact, and both
/// kernels take min over the same candidate path sums — kept as the
/// oracle in the property tests).
///
/// Dispatches through [`crate::simd::active`]: on an AVX2 host the
/// tiles run the lane min-plus kernels
/// ([`crate::simd::avx2::floyd_warshall_blocked`]), which stay
/// **bit-exact** — min and add are element-wise, so each output cell
/// sees exactly the scalar candidate sequence.
pub fn floyd_warshall_blocked(dist: &mut [f64], n: usize) {
    match crate::simd::active() {
        // Safety (both arms): dispatch resolved this tier, so the
        // host has the features.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        crate::simd::KernelVariant::Avx512 => unsafe {
            crate::simd::avx512::floyd_warshall_blocked(dist, n)
        },
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        crate::simd::KernelVariant::Avx2 => unsafe {
            crate::simd::avx2::floyd_warshall_blocked(dist, n)
        },
        _ => floyd_warshall_blocked_scalar(dist, n),
    }
}

/// [`floyd_warshall_blocked`] pinned to the scalar min-plus tiles: the
/// dispatch-independent baseline for the bench gates and the
/// forced-scalar tests.
pub fn floyd_warshall_blocked_scalar(dist: &mut [f64], n: usize) {
    assert_eq!(dist.len(), n * n);
    let mut scratch = Vec::with_capacity(TILE);
    // (start, len) of tile `b`.
    let ext = |tile: usize| {
        let lo = tile * TILE;
        (lo, TILE.min(n - lo))
    };
    let tiles = n.div_ceil(TILE);
    for kb in 0..tiles {
        let kx = ext(kb);
        // Phase 1: the pivot tile, closed over its own vertices.
        min_plus_tile(dist, n, kx, kx, kx, &mut scratch);
        // Phase 2: the pivot's row and column panels.
        for jb in 0..tiles {
            if jb != kb {
                min_plus_tile(dist, n, kx, ext(jb), kx, &mut scratch);
            }
        }
        for ib in 0..tiles {
            if ib != kb {
                min_plus_tile(dist, n, ext(ib), kx, kx, &mut scratch);
            }
        }
        // Phase 3: everything else, through the finished panels.
        for ib in 0..tiles {
            if ib == kb {
                continue;
            }
            for jb in 0..tiles {
                if jb != kb {
                    min_plus_tile(dist, n, ext(ib), ext(jb), kx, &mut scratch);
                }
            }
        }
    }
}

/// Plain-Rust dense matmul oracle (row-major `n×n`).
pub fn matmul_oracle(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

/// Euler's totient from the prime factorisation of `k`, found by trial
/// division: φ(k) = k · ∏ (1 − 1/p) over the distinct primes p | k,
/// with the paper's φ(1) = 0. Shares nothing with the sieve kernels it
/// is the oracle for; [`phi_counted`] remains the definition, and a
/// test pins the two equal.
fn phi_by_factorisation(k: i64) -> i64 {
    if k <= 1 {
        return 0;
    }
    let (mut phi, mut rest) = (k, k);
    let mut p = 2;
    while p * p <= rest {
        if rest % p == 0 {
            phi -= phi / p;
            while rest % p == 0 {
                rest /= p;
            }
        }
        p += 1;
    }
    if rest > 1 {
        phi -= phi / rest;
    }
    phi
}

/// Plain-Rust sumEuler oracle: O(n·√n), where summing the paper's
/// definition ([`phi_counted`]) is O(n²) gcd loops.
pub fn sum_euler_oracle(n: i64) -> i64 {
    (1..=n).map(phi_by_factorisation).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn phi_small_values() {
        // φ(1)=0 (by the paper's definition: |{j < 1}| = 0),
        // φ(2)=1, φ(6)=2, φ(10)=4, φ(12)=4.
        assert_eq!(phi_counted(1).0, 0);
        assert_eq!(phi_counted(2).0, 1);
        assert_eq!(phi_counted(6).0, 2);
        assert_eq!(phi_counted(10).0, 4);
        assert_eq!(phi_counted(12).0, 4);
    }

    #[test]
    fn oracle_phi_equals_the_definition() {
        for k in 0..=3_000 {
            assert_eq!(phi_by_factorisation(k), phi_counted(k).0, "k={k}");
        }
        assert_eq!(
            sum_euler_oracle(3_000),
            (1..=3_000).map(|k| phi_counted(k).0).sum::<i64>()
        );
    }

    #[test]
    fn phi_of_prime_is_p_minus_1() {
        for p in [2i64, 3, 5, 7, 11, 13, 97] {
            assert_eq!(phi_counted(p).0, p - 1);
        }
    }

    #[test]
    fn phi_costs_grow_with_k() {
        let (_, c1, w1) = phi_counted(100);
        let (_, c2, w2) = phi_counted(1000);
        assert!(c2 > c1 * 5);
        assert!(w2 > w1 * 5);
    }

    #[test]
    fn sum_phi_range_splits_consistently() {
        let (whole, _, _) = sum_phi_range(1, 100);
        let (a, _, _) = sum_phi_range(1, 40);
        let (b, _, _) = sum_phi_range(41, 100);
        assert_eq!(whole, a + b);
        assert_eq!(whole, sum_euler_oracle(100));
    }

    #[test]
    fn block_mul_matches_oracle() {
        for s in [1usize, 2, 4, 7, 31, 33] {
            let a: Vec<f64> = (0..s * s).map(|i| (i % 7) as f64).collect();
            let b: Vec<f64> = (0..s * s).map(|i| (i % 5) as f64 - 2.0).collect();
            let zero = vec![0.0; s * s];
            let (c, cost) = block_mul_acc(&zero, &a, &b, s);
            assert_eq!(c, matmul_oracle(&a, &b, s), "s={s}");
            assert_eq!(cost, (s * s * s) as u64 * 2 * C_FMA);
            let (c_naive, cost_naive) = block_mul_acc_naive(&zero, &a, &b, s);
            assert_eq!(c, c_naive, "s={s}");
            assert_eq!(cost, cost_naive);
            // Accumulation: acc + a·b.
            let (c2, _) = block_mul_acc(&c, &a, &b, s);
            let double: Vec<f64> = c.iter().map(|x| x * 2.0).collect();
            assert_eq!(c2, double, "s={s}");
        }
    }

    #[test]
    fn min_plus_matches_floyd_warshall_step() {
        let inf = f64::INFINITY;
        #[rustfmt::skip]
        let mut d = vec![
            0.0, 3.0, inf,
            3.0, 0.0, 1.0,
            inf, 1.0, 0.0,
        ];
        // Relax row 0 by pivot row 1.
        let (r0, _) = min_plus_update(&d[0..3], &d[3..6], 1);
        assert_eq!(r0, vec![0.0, 3.0, 4.0]);
        floyd_warshall(&mut d, 3);
        assert_eq!(&d[0..3], &[0.0, 3.0, 4.0]);
        assert_eq!(&d[6..9], &[4.0, 1.0, 0.0]);
    }

    /// The `push` loop [`min_plus_update`] replaced, kept as its oracle.
    fn min_plus_update_push_loop(row_i: &[f64], row_k: &[f64], k: usize) -> Vec<f64> {
        let dik = row_i[k];
        let mut out = Vec::with_capacity(row_i.len());
        for (t, &d) in row_i.iter().enumerate() {
            let via = dik + row_k[t];
            out.push(if via < d { via } else { d });
        }
        out
    }

    /// Row cells for the test below: small integers (which repeat, so
    /// `via == d` ties occur), the "no edge" surrogate, infinity, and
    /// values whose sums are inexact.
    fn cell() -> impl Strategy<Value = f64> {
        prop_oneof![
            3 => (0u32..6).prop_map(f64::from),
            1 => Just(crate::apsp::BIG),
            1 => Just(f64::INFINITY),
            1 => (0u32..1000).prop_map(|x| f64::from(x) / 7.0),
        ]
    }

    proptest! {
        /// Bit-identical to the loop it replaced, with the pivot column
        /// at both ends of the row and inside it; lengths straddle the
        /// vector widths.
        #[test]
        fn min_plus_update_is_bit_identical_to_the_push_loop(
            rows in collection::vec((cell(), cell()), 1..70),
            pick in 0usize..3,
            inner in 0usize..70,
        ) {
            let (row_i, row_k): (Vec<f64>, Vec<f64>) = rows.into_iter().unzip();
            let k = [0, row_i.len() - 1, inner % row_i.len()][pick];
            let (got, cost) = min_plus_update(&row_i, &row_k, k);
            let want = min_plus_update_push_loop(&row_i, &row_k, k);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(cost, row_i.len() as u64 * C_MINPLUS);
        }
    }

    #[test]
    fn blocked_floyd_warshall_matches_plain_small() {
        // Hand-checkable 4-node line graph: 0-1-2-3 with unit edges.
        let inf = f64::INFINITY;
        let mut d = vec![inf; 16];
        for i in 0..4 {
            d[i * 4 + i] = 0.0;
        }
        for (a, b) in [(0usize, 1usize), (1, 2), (2, 3)] {
            d[a * 4 + b] = 1.0;
            d[b * 4 + a] = 1.0;
        }
        let mut plain = d.clone();
        floyd_warshall(&mut plain, 4);
        floyd_warshall_blocked(&mut d, 4);
        assert_eq!(d, plain);
        assert_eq!(d[3], 3.0, "0→3 via two hops");
    }

    #[test]
    fn sieve_matches_gcd_totients() {
        // Whole range from 1 (hits the paper's φ(1)=0 convention),
        // interior ranges (primes > √hi left over), degenerate and
        // empty ranges, and a range crossing a segment boundary.
        assert_eq!(sum_phi_range_sieve(1, 500), sum_phi_range(1, 500).0);
        assert_eq!(sum_phi_range_sieve(37, 213), sum_phi_range(37, 213).0);
        assert_eq!(sum_phi_range_sieve(97, 97), 96);
        assert_eq!(sum_phi_range_sieve(1, 1), 0, "paper's φ(1)");
        assert_eq!(sum_phi_range_sieve(10, 9), 0, "empty range");
        let lo = SIEVE_SEG as i64 - 3;
        let hi = SIEVE_SEG as i64 + 3;
        assert_eq!(
            sum_phi_range_sieve(lo, hi),
            (lo..=hi).map(|k| phi_counted(k).0).sum::<i64>(),
            "segment-boundary range"
        );
    }

    #[test]
    fn sieve_splits_like_the_packed_range_tasks() {
        // Lazy splitting cuts (lo, hi) anywhere; every cut must sum
        // back to the whole.
        let whole = sum_phi_range_sieve(1, 400);
        for cut in [1i64, 2, 200, 398, 399] {
            assert_eq!(
                whole,
                sum_phi_range_sieve(1, cut) + sum_phi_range_sieve(cut + 1, 400),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn scalar_kernel_pins_match_dispatched_kernels() {
        // The *_scalar entry points are the bench baselines; whatever
        // dispatch selects, values must agree (bit-exactly for
        // min-plus; exactly here for matmul too — small ints).
        let n = 40;
        let a: Vec<f64> = (0..n * n).map(|i| (i % 9) as f64).collect();
        let b: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut c0 = vec![0.0; n * n];
        let mut c1 = vec![0.0; n * n];
        matmul_tiled_into(&mut c0, &a, &b, n);
        matmul_tiled_into_scalar(&mut c1, &a, &b, n);
        assert_eq!(c0, c1);

        let mut d0: Vec<f64> = (0..n * n)
            .map(|i| {
                if i % 5 == 0 {
                    f64::INFINITY
                } else {
                    (i % 11) as f64
                }
            })
            .collect();
        for i in 0..n {
            d0[i * n + i] = 0.0;
        }
        let mut d1 = d0.clone();
        floyd_warshall_blocked(&mut d0, n);
        floyd_warshall_blocked_scalar(&mut d1, n);
        assert_eq!(d0, d1);
    }

    #[test]
    fn gcd_counts_iterations() {
        let mut it = 0;
        assert_eq!(gcd_counted(48, 18, &mut it), 6);
        assert!(it >= 2);
    }
}
