//! The one GEMM micro-kernel under every matrix product, and the ISA
//! dispatch shared with the element-wise hot loops.  All `unsafe` of the
//! crate's numeric core lives here.
//!
//! `out (+)= A·B` is computed in register tiles whose accumulators stay in
//! vector registers across the whole k-loop: 4 rows × 8 columns for full
//! row groups, 1 row × 32 columns for the `m % 4` tail rows (a lone row —
//! inference runs at batch 1 — gets its eight independent FMA chains from
//! width instead of height); column tails are masked, never scalar.  `A` is
//! read by broadcast through a (row, column) stride pair, so `Aᵀ·B` is the
//! same kernel with the strides swapped; `B` and `out` are row-major and
//! used in place (nothing is packed).
//!
//! Every output element is one sequential chain over `k` whatever the tile,
//! batch size or parallel band it falls in, so a row's result does not
//! depend on which other rows are computed with it.
//!
//! The body is written once over [`Lanes`] and compiled twice: over
//! `[f64; 4]` (portable, separate multiply and add) and, on x86-64, over
//! `__m256d` under `#[target_feature(enable = "avx2,fma")]`; [`isa`] picks
//! one per process.  Within a path results repeat bitwise; across paths they
//! agree to rounding (FMA rounds once).

use std::sync::OnceLock;

/// Which instantiation this process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
}

/// The path selected for this process (detected once).
pub(crate) fn isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Isa::Avx2Fma;
        }
        Isa::Portable
    })
}

/// Runs `f` compiled for the selected ISA.  Callers pass
/// `#[inline(always)]` closures over auto-vectorizing loops; the arithmetic
/// is plain IEEE either way (the compiler never contracts `a * b + c`), so
/// both paths give the same bits — only the vector width differs.
#[inline]
pub(crate) fn wide<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if isa() == Isa::Avx2Fma {
        #[target_feature(enable = "avx2,fma")]
        unsafe fn avx2<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        // SAFETY: `isa()` returned `Avx2Fma`, so the CPU has AVX2 and FMA.
        return unsafe { avx2(f) };
    }
    f()
}

/// The operands of one product `out (+)= A·B`: `A[i, p] = a[i * ars + p * acs]`
/// is `m × k`; `b` is `k × n` and `out` is `m × n`, both row-major.
#[derive(Clone, Copy)]
pub(crate) struct Gemm<'a> {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub a: &'a [f64],
    pub ars: usize,
    pub acs: usize,
    pub b: &'a [f64],
    /// `out += A·B` instead of `out = A·B`.
    pub accumulate: bool,
}

impl Gemm<'_> {
    /// Runs the product on the selected path.
    pub(crate) fn run(self, out: &mut [f64]) {
        self.run_on(isa(), out);
    }

    /// Runs the product on a named path (tests compare the two).
    fn run_on(self, isa: Isa, out: &mut [f64]) {
        let (m, k, n) = (self.m, self.k, self.n);
        assert_eq!(out.len(), m * n, "gemm output length");
        assert_eq!(self.b.len(), k * n, "gemm rhs length");
        if m == 0 || n == 0 {
            return;
        }
        if k > 0 {
            let last = (m - 1) * self.ars + (k - 1) * self.acs;
            assert!(last < self.a.len(), "gemm lhs extent");
        }
        match isa {
            // SAFETY: the asserts above bound every index `body` forms:
            // rows < m, columns < n, depth < k.
            Isa::Portable => unsafe { body::<[f64; 4]>(self, out.as_mut_ptr()) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; `Avx2Fma` is only ever produced by `isa()`
            // after detecting both features.
            Isa::Avx2Fma => unsafe { body_avx2(self, out.as_mut_ptr()) },
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn body_avx2(g: Gemm<'_>, out: *mut f64) {
    body::<std::arch::x86_64::__m256d>(g, out)
}

/// Four `f64` lanes.  `load` and `store` touch only the first `n ≤ 4` lanes'
/// memory (the rest read as zero); full tiles pass a literal 4, which folds
/// the lane test away.
///
/// # Safety
/// `p` must be valid for `n` lanes, and the CPU must support the
/// implementation's instructions.
trait Lanes: Copy {
    unsafe fn splat(x: f64) -> Self;
    unsafe fn load(p: *const f64, n: usize) -> Self;
    unsafe fn store(self, p: *mut f64, n: usize);
    /// `self + a * b`.
    unsafe fn mul_add(self, a: Self, b: Self) -> Self;
}

impl Lanes for [f64; 4] {
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        [x; 4]
    }
    #[inline(always)]
    unsafe fn load(p: *const f64, n: usize) -> Self {
        std::array::from_fn(|l| if l < n { *p.add(l) } else { 0.0 })
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64, n: usize) {
        std::ptr::copy_nonoverlapping(self.as_ptr(), p, n);
    }
    #[inline(always)]
    unsafe fn mul_add(self, a: Self, b: Self) -> Self {
        std::array::from_fn(|l| self[l] + a[l] * b[l])
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Lanes;
    use std::arch::x86_64::*;

    /// Lanes `0..n` selected.
    #[inline(always)]
    unsafe fn head_mask(n: usize) -> __m256i {
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(0, 1, 2, 3))
    }

    impl Lanes for __m256d {
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            _mm256_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64, n: usize) -> Self {
            match n {
                4 => _mm256_loadu_pd(p),
                _ => _mm256_maskload_pd(p, head_mask(n)),
            }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64, n: usize) {
            match n {
                4 => _mm256_storeu_pd(p, self),
                _ => _mm256_maskstore_pd(p, head_mask(n), self),
            }
        }
        #[inline(always)]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            _mm256_fmadd_pd(a, b, self)
        }
    }
}

/// Walks the tiles of one product.
///
/// # Safety
/// `g` and the `m × n` buffer at `out` must satisfy the extents
/// `Gemm::run_on` asserts, and the CPU must support what `V` compiles to.
#[inline(always)]
unsafe fn body<V: Lanes>(g: Gemm<'_>, out: *mut f64) {
    let body_rows = g.m & !3;
    rows::<V, 4, 2>(&g, out, 0, body_rows);
    rows::<V, 1, 8>(&g, out, body_rows, g.m);
}

/// Rows `from..to` (a multiple of `MR` of them) in `MR × 4·NV` tiles, the
/// columns those leave over in `MR × 8` tiles, the last one masked.  Column
/// tiles are the outer loop so a tile's `k × 8` panel of `B` stays in L1
/// across the row groups.
///
/// # Safety
/// As [`body`], with `from..to` inside `0..g.m`.
#[inline(always)]
unsafe fn rows<V: Lanes, const MR: usize, const NV: usize>(
    g: &Gemm<'_>,
    out: *mut f64,
    from: usize,
    to: usize,
) {
    let mut j = 0;
    while j + 4 * NV <= g.n {
        for i in (from..to).step_by(MR) {
            tile::<V, MR, NV>(g, out, i, j, 4 * NV);
        }
        j += 4 * NV;
    }
    while j < g.n {
        let cols = (g.n - j).min(8);
        for i in (from..to).step_by(MR) {
            match cols {
                8 => tile::<V, MR, 2>(g, out, i, j, 8),
                _ => tile::<V, MR, 2>(g, out, i, j, cols),
            }
        }
        j += 8;
    }
}

/// The micro-kernel: rows `i..i + MR`, columns `j..j + cols` of `out`, with
/// `cols ≤ 4 * NV`; the lanes past `cols` are left out of every load and
/// store.  Full tiles pass a literal `cols`, which (everything here being
/// inlined) folds their lane counts to 4.  Vector addresses are formed with
/// `wrapping_add` because a dead vector's may lie past the end of the slice.
///
/// # Safety
/// As [`body`], with the tile inside the `g.m × g.n` output.
#[inline(always)]
unsafe fn tile<V: Lanes, const MR: usize, const NV: usize>(
    g: &Gemm<'_>,
    out: *mut f64,
    i: usize,
    j: usize,
    cols: usize,
) {
    let live = |v: usize| cols.saturating_sub(4 * v).min(4);
    let out = out.add(i * g.n + j);
    let a = g.a.as_ptr().add(i * g.ars);
    let b = g.b.as_ptr().add(j);

    let mut acc = [[V::splat(0.0); NV]; MR];
    if g.accumulate {
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, x) in row.iter_mut().enumerate() {
                *x = V::load(out.add(r * g.n).wrapping_add(4 * v), live(v));
            }
        }
    }
    for p in 0..g.k {
        let mut bv = [V::splat(0.0); NV];
        for (v, x) in bv.iter_mut().enumerate() {
            *x = V::load(b.add(p * g.n).wrapping_add(4 * v), live(v));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let av = V::splat(*a.add(r * g.ars + p * g.acs));
            for (x, &bx) in row.iter_mut().zip(&bv) {
                *x = x.mul_add(av, bx);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (v, x) in row.iter().enumerate() {
            x.store(out.add(r * g.n).wrapping_add(4 * v), live(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sizes that hit every tail: below, at and above the 4-row and 8/32-column
    /// tiles and the 4-lane vector.
    const DIMS: [usize; 13] = [1, 2, 3, 4, 5, 7, 8, 9, 11, 31, 32, 33, 128];
    const SENTINEL: f64 = -7.25;

    fn fill(len: usize, seed: u64) -> Vec<f64> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 2001) as f64 / 1000.0 - 1.0
            })
            .collect()
    }

    /// Both instantiations when this CPU can run both.
    fn paths() -> Vec<Isa> {
        let mut paths = vec![Isa::Portable];
        if isa() != Isa::Portable {
            paths.push(isa());
        }
        paths
    }

    /// `out (+)= A·B` by the textbook triple loop.
    fn naive(g: Gemm<'_>, out: &mut [f64]) {
        for i in 0..g.m {
            for j in 0..g.n {
                let mut s = 0.0;
                for p in 0..g.k {
                    s += g.a[i * g.ars + p * g.acs] * g.b[p * g.n + j];
                }
                let o = &mut out[i * g.n + j];
                *o = if g.accumulate { *o + s } else { s };
            }
        }
    }

    /// Runs one shape through `isa` in a buffer with a guard band behind it
    /// and compares against [`naive`].
    fn check(isa: Isa, (m, k, n): (usize, usize, usize), transposed_a: bool, accumulate: bool) {
        let a = fill(m * k, (m * 131 + k * 17 + n) as u64);
        let b = fill(k * n, (n * 97 + k) as u64);
        let (ars, acs) = if transposed_a { (1, m) } else { (k, 1) };
        let g = Gemm {
            m,
            k,
            n,
            a: &a,
            ars,
            acs,
            b: &b,
            accumulate,
        };
        let mut want = fill(m * n, 3);
        let mut got = want.clone();
        got.extend([SENTINEL; 8]);
        naive(g, &mut want);
        g.run_on(isa, &mut got[..m * n]);
        let what = format!("{isa:?} {m}x{k}x{n} at={transposed_a} acc={accumulate}");
        assert!(
            got[m * n..].iter().all(|&v| v == SENTINEL),
            "{what}: wrote past the end"
        );
        for (i, (x, y)) in got.iter().zip(&want).enumerate() {
            let tol = 1e-12 * (1.0 + x.abs().max(y.abs()));
            assert!((x - y).abs() <= tol, "{what}: out[{i}] = {x}, naive {y}");
        }
    }

    #[test]
    fn every_form_mode_and_path_matches_the_naive_triple_loop_on_every_tail() {
        for isa in paths() {
            for m in DIMS {
                for k in DIMS {
                    for n in DIMS {
                        for transposed_a in [false, true] {
                            for accumulate in [false, true] {
                                check(isa, (m, k, n), transposed_a, accumulate);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn square_64_tall_512_and_empty_depth() {
        for isa in paths() {
            for accumulate in [false, true] {
                check(isa, (64, 64, 64), false, accumulate);
                check(isa, (512, 64, 128), false, accumulate);
                check(isa, (128, 512, 40), true, accumulate);
                // k = 0: overwrite stores zeros, accumulate leaves `out` alone.
                check(isa, (5, 0, 11), false, accumulate);
            }
        }
    }

    /// The documented invariant behind batch-size-independent results: a row
    /// computed alone (1×32 tiles) has the bits it has inside a batch (4×8).
    #[test]
    fn a_row_does_not_depend_on_the_rows_computed_with_it() {
        let (m, k, n) = (7, 33, 45);
        let (a, b) = (fill(m * k, 1), fill(k * n, 2));
        let g = Gemm {
            m,
            k,
            n,
            a: &a,
            ars: k,
            acs: 1,
            b: &b,
            accumulate: false,
        };
        for isa in paths() {
            let mut all = vec![0.0; m * n];
            g.run_on(isa, &mut all);
            for r in 0..m {
                let mut one = vec![0.0; n];
                let a = &a[r * k..];
                Gemm { m: 1, a, ..g }.run_on(isa, &mut one);
                assert_eq!(one, all[r * n..(r + 1) * n], "{isa:?} row {r}");
            }
        }
    }

    #[test]
    fn wide_runs_the_closure_and_the_selected_path_is_named() {
        assert_eq!(wide(|| 41 + 1), 42);
        println!("drnn kernel: {:?}", isa());
    }

    #[test]
    #[should_panic(expected = "gemm lhs extent")]
    fn short_lhs_is_refused_before_any_unsafe_read() {
        let g = Gemm {
            m: 4,
            k: 4,
            n: 4,
            a: &[0.0; 15],
            ars: 4,
            acs: 1,
            b: &[0.0; 16],
            accumulate: false,
        };
        g.run(&mut [0.0; 16]);
    }
}
