//! Property-based parity tests for the blocked GEMM kernels.
//!
//! The tiled/micro-kernel GEMM, the fused-accumulate variant and the
//! transpose-free `AᵀB` kernel must agree with a naive
//! triple-loop reference on random shapes, including shapes that straddle
//! the k-panel (`KC = 64`) and register-block boundaries.

use proptest::prelude::*;

use drnn::matrix::Matrix;

/// Naive triple-loop reference GEMM.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let av = a.get(i, p);
            for j in 0..n {
                out.set(i, j, out.get(i, j) + av * b.get(p, j));
            }
        }
    }
    out
}

fn naive_transpose(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), a.rows());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            out.set(j, i, a.get(i, j));
        }
    }
    out
}

/// Deterministic pseudo-random fill in [-10, 10) driven by a proptest seed.
fn pseudo(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(2654435761)
                    .wrapping_add(seed.wrapping_mul(97003))
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                ((x % 2000) as f64) / 100.0 - 10.0
            })
            .collect(),
    )
}

fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

/// Random (m, k, n) shapes crossing the 2-row micro-kernel, the ×4 k-unroll
/// remainder and the KC = 64 panel boundary.
fn shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=40, 1usize..=70, 1usize..=40)
}

proptest! {
    /// Blocked `matmul` equals the naive reference.
    #[test]
    fn tiled_gemm_matches_naive((m, k, n) in shapes(), seed in 0u64..1_000_000) {
        let a = pseudo(m, k, seed);
        let b = pseudo(k, n, seed ^ 1);
        prop_assert!(approx_eq(&a.matmul(&b), &naive_matmul(&a, &b), 1e-10));
    }

    /// `matmul_add_into` computes `out += A·B` without disturbing the
    /// existing contents of `out`.
    #[test]
    fn matmul_add_into_accumulates((m, k, n) in shapes(), seed in 0u64..1_000_000) {
        let a = pseudo(m, k, seed);
        let b = pseudo(k, n, seed ^ 1);
        let c0 = pseudo(m, n, seed ^ 2);
        let mut out = c0.clone();
        a.matmul_add_into(&b, &mut out);
        let mut expect = naive_matmul(&a, &b);
        expect.add_in_place(&c0);
        prop_assert!(approx_eq(&out, &expect, 1e-10));
    }

    /// `A.matmul_at_b_into(B, out)` accumulates `out += Aᵀ·B` and equals
    /// the reference built from an explicit transpose.
    #[test]
    fn at_b_matches_explicit_transpose((m, k, n) in shapes(), seed in 0u64..1_000_000) {
        // A is (k × m) so Aᵀ·B is (m × n) with shared leading dim k.
        let a = pseudo(k, m, seed);
        let b = pseudo(k, n, seed ^ 1);
        let g0 = pseudo(m, n, seed ^ 2);
        let mut out = g0.clone();
        a.matmul_at_b_into(&b, &mut out);
        let mut expect = naive_matmul(&naive_transpose(&a), &b);
        expect.add_in_place(&g0);
        prop_assert!(approx_eq(&out, &expect, 1e-10));
    }

    /// The 32×32 tiled transpose equals the naive element-wise transpose.
    #[test]
    fn tiled_transpose_matches_naive(r in 1usize..=70, c in 1usize..=70, seed in 0u64..1_000_000) {
        let a = pseudo(r, c, seed);
        prop_assert_eq!(a.transpose(), naive_transpose(&a));
    }
}
