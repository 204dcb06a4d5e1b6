//! Dense row-major `f64` matrices with the operations a recurrent network
//! needs: the GEMM family (`A·B` overwriting or accumulating, `Aᵀ·B`
//! accumulating, rayon-parallel over row bands for large shapes), blocked
//! transpose, broadcast row addition, element-wise maps and reductions.
//!
//! Every product runs on the one register-tiled micro-kernel in
//! the private `kernel` module; this module only checks shapes, describes the operands
//! to it and splits large outputs into bands.  The products are written
//! around caller-owned output buffers (`matmul_into` / `matmul_add_into`) so
//! hot loops — LSTM steps, BPTT — run allocation-free; the allocating
//! `matmul` is a thin wrapper.

use rayon::prelude::*;

use crate::kernel::Gemm;

/// Row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Default for Matrix {
    /// Empty 0×0 matrix (placeholder for lazily-sized scratch buffers).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

/// A product goes parallel when its multiply-add count `m·k·n` reaches this
/// threshold: ≈ 250 µs of serial kernel time, ≈ 16 of the ≈ 15 µs fork-joins
/// measured on the 2-core reference host.  Below it banding loses or gains
/// under 20 %; above it wins (CHANGES.md PR 13 has the measurements).
const PAR_FLOP_THRESHOLD: usize = 1 << 22;

/// Tile edge for the blocked transpose (32×32 f64 tiles = two 4 KiB pages,
/// touching 32 cache lines per side — fits L1 comfortably).
const TRANSPOSE_TILE: usize = 32;

/// `out (+)= A·B` on the micro-kernel, banded over output rows across the
/// pool when the product is large enough to pay for a fork-join.  Bands are
/// multiples of the kernel's 4-row tile, and every output element is the
/// same sequential chain in any band, so the result does not depend on the
/// thread count.
fn product(g: Gemm<'_>, out: &mut [f64]) {
    if g.m * g.k * g.n < PAR_FLOP_THRESHOLD {
        return g.run(out);
    }
    let threads = rayon::current_num_threads();
    let band = g.m.div_ceil(2 * threads).next_multiple_of(4);
    out.par_chunks_mut(band * g.n)
        .enumerate()
        .for_each(|(bi, out)| {
            let m = out.len() / g.n;
            let a = &g.a[bi * band * g.ars..];
            Gemm { m, a, ..g }.run(out)
        });
}

impl Matrix {
    /// Zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds from a row-major vector.  Panics if sizes disagree.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes to `rows × cols`, reusing the allocation.  Contents are
    /// unspecified afterwards (every element will be overwritten by the
    /// caller); use [`resize_zeroed`](Self::resize_zeroed) when zeroes are
    /// required.
    pub fn resize_uninit(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows × cols` (reusing the allocation) and zero-fills.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.resize_uninit(rows, cols);
        self.data.fill(0.0);
    }

    /// Becomes an element-wise copy of `src`, reusing the allocation.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.resize_uninit(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// `out (+)= op(self) · rhs`, where `op` transposes when `at` is set —
    /// which costs nothing: the kernel reads its left operand through a
    /// (row, column) stride pair, and `selfᵀ` is `self` with the two swapped.
    fn mul(&self, at: bool, rhs: &Matrix, out: &mut Matrix, accumulate: bool) {
        let (m, k, ars, acs) = match at {
            false => (self.rows, self.cols, self.cols, 1),
            true => (self.cols, self.rows, 1, self.cols),
        };
        let n = rhs.cols;
        let op = if at { "ᵀ" } else { "" };
        assert_eq!(
            k,
            rhs.rows,
            "matmul shape mismatch: {:?}{op} x {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(out.shape(), (m, n), "matmul output shape mismatch");
        let (a, b) = (&self.data[..], &rhs.data[..]);
        let g = Gemm {
            m,
            k,
            n,
            a,
            ars,
            acs,
            b,
            accumulate,
        };
        product(g, &mut out.data);
    }

    /// `out = self · rhs` into a caller-owned buffer (resized as needed).
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        out.resize_uninit(self.rows, rhs.cols);
        self.mul(false, rhs, out, false);
    }

    /// `out += self · rhs` (`out` must already be `m × n`).
    pub fn matmul_add_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.mul(false, rhs, out, true);
    }

    /// Matrix product `self · rhs` (allocating wrapper over
    /// [`matmul_into`](Self::matmul_into)).
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// `out += selfᵀ · rhs` without materializing the transpose.
    ///
    /// `self` is `m × n`, `rhs` is `m × p`, `out` is `n × p`.  This is the
    /// BPTT weight-gradient product (`gW += xᵀ·da`): accumulation semantics
    /// fold the gradient add into the GEMM.
    pub fn matmul_at_b_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.mul(true, rhs, out, true);
    }

    /// Transpose into a caller-owned buffer, tiled so both the read and
    /// write sides touch whole cache lines within a tile (a naive row-major
    /// transpose strides the writes by `rows`, missing on every element for
    /// large shapes).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize_uninit(self.cols, self.rows);
        let t = TRANSPOSE_TILE;
        for rb in (0..self.rows).step_by(t) {
            let rend = (rb + t).min(self.rows);
            for cb in (0..self.cols).step_by(t) {
                let cend = (cb + t).min(self.cols);
                for r in rb..rend {
                    for c in cb..cend {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
    }

    /// Transpose (allocating wrapper over
    /// [`transpose_into`](Self::transpose_into)).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// Adds `row` (a 1×C matrix or C-slice) to every row (bias broadcast).
    pub fn add_row_in_place(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "broadcast width mismatch");
        for r in 0..self.rows {
            let base = r * self.cols;
            for (c, &v) in row.iter().enumerate() {
                self.data[base + c] += v;
            }
        }
    }

    /// Element-wise sum with another matrix, in place.
    pub fn add_in_place(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Sum of every element.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Column sums as a 1×C matrix (bias gradients).
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.col_sums_add_into(&mut out);
        out
    }

    /// Accumulates column sums into a 1×C matrix (`out += Σ_r self[r]`),
    /// fusing the bias-gradient add.
    pub fn col_sums_add_into(&self, out: &mut Matrix) {
        assert_eq!(out.shape(), (1, self.cols), "col_sums output shape");
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    /// Zeroes every element (gradient reset).
    pub fn zero_in_place(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }
}

/// Constructors and reductions only the tests use.
#[cfg(test)]
impl Matrix {
    /// Builds from nested rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Matrix {
            rows: r,
            cols: c,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape());
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Horizontal slice: columns `[from, to)` as a new matrix.
    pub fn cols_slice(&self, from: usize, to: usize) -> Matrix {
        assert!(from <= to && to <= self.cols);
        let w = to - from;
        let mut out = Matrix::zeros(self.rows, w);
        for r in 0..self.rows {
            out.data[r * w..(r + 1) * w]
                .copy_from_slice(&self.data[r * self.cols + from..r * self.cols + to]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    fn pseudo(rows: usize, cols: usize, seed: usize) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| (((i + seed) * 31 % 17) as f64 - 8.0) / 8.0)
                .collect(),
        )
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn banded_product_matches_naive_and_the_serial_kernel_bitwise() {
        // 512·64·128 multiply-adds sit on the threshold → the pool path.
        let (m, k, n) = (512, 64, 128);
        assert!(m * k * n >= PAR_FLOP_THRESHOLD);
        let a = pseudo(m, k, 1);
        let b = pseudo(k, n, 2);
        let banded = a.matmul(&b);
        assert_close(&banded, &naive_matmul(&a, &b), 1e-12);
        let mut serial = Matrix::zeros(m, n);
        Gemm {
            m,
            k,
            n,
            a: a.as_slice(),
            ars: k,
            acs: 1,
            b: b.as_slice(),
            accumulate: false,
        }
        .run(serial.as_mut_slice());
        assert_eq!(banded, serial);
    }

    #[test]
    fn all_three_forms_overwrite_and_accumulate_on_every_tail_shape() {
        const DIMS: [usize; 13] = [1, 2, 3, 4, 5, 7, 8, 9, 11, 31, 32, 33, 128];
        for m in DIMS {
            for k in DIMS {
                for n in DIMS {
                    let a = pseudo(m, k, m + n);
                    let b = pseudo(k, n, k);
                    let at = a.transpose();
                    let want = naive_matmul(&a, &b);
                    let tol = 1e-12;

                    let mut out = Matrix::full(3, 3, 9.0); // wrong shape: resized
                    a.matmul_into(&b, &mut out);
                    assert_close(&out, &want, tol);

                    let want = want.map(|v| v + 0.5);
                    let half = || Matrix::full(m, n, 0.5);
                    let (mut ab, mut atb) = (half(), half());
                    a.matmul_add_into(&b, &mut ab);
                    at.matmul_at_b_into(&b, &mut atb);
                    for acc in [ab, atb] {
                        assert_close(&acc, &want, tol);
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_matches_naive_awkward_shapes() {
        // Shapes chosen to leave K and N remainders against KC/NC and the
        // ×4 unroll.
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (32, 16, 256), (33, 67, 130)] {
            let a = pseudo(m, k, m + k);
            let b = pseudo(k, n, n);
            assert_close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-10);
        }
    }

    #[test]
    fn matmul_add_into_accumulates() {
        let a = pseudo(4, 6, 3);
        let b = pseudo(6, 5, 4);
        let mut out = Matrix::full(4, 5, 1.0);
        a.matmul_add_into(&b, &mut out);
        let mut expect = naive_matmul(&a, &b);
        expect.add_row_in_place(&[0.0; 5]); // no-op, keep shape
        for v in expect.as_mut_slice() {
            *v += 1.0;
        }
        assert_close(&out, &expect, 1e-12);
    }

    #[test]
    fn matmul_at_b_matches_explicit_transpose() {
        for (m, n, p) in [(2, 3, 4), (32, 64, 256), (7, 5, 9)] {
            let a = pseudo(m, n, 5);
            let b = pseudo(m, p, 6);
            let expect = naive_matmul(&a.transpose(), &b);
            // Accumulation semantics.
            let mut out = Matrix::full(n, p, 0.5);
            a.matmul_at_b_into(&b, &mut out);
            for (x, y) in out.as_slice().iter().zip(expect.as_slice()) {
                assert!((x - (y + 0.5)).abs() < 1e-10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn transpose_tiled_matches_naive_on_large_uneven_shapes() {
        let a = pseudo(67, 41, 9);
        let t = a.transpose();
        for r in 0..67 {
            for c in 0..41 {
                assert_eq!(t.get(c, r), a.get(r, c));
            }
        }
    }

    #[test]
    fn resize_and_copy_reuse_allocations() {
        let mut m = Matrix::zeros(4, 4);
        m.resize_zeroed(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.sum(), 0.0);
        let src = pseudo(3, 5, 1);
        m.copy_from(&src);
        assert_eq!(m, src);
        m.resize_uninit(1, 2);
        assert_eq!(m.shape(), (1, 2));
    }

    #[test]
    fn broadcast_and_elementwise() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        a.add_row_in_place(&[10.0, 20.0]);
        assert_eq!(a, Matrix::from_rows(&[vec![11.0, 22.0], vec![13.0, 24.0]]));
        let b = Matrix::full(2, 2, 2.0);
        let h = a.hadamard(&b);
        assert_eq!(h.get(1, 1), 48.0);
        a.add_in_place(&b);
        assert_eq!(a.get(0, 0), 13.0);
    }

    #[test]
    fn map_scale_sum_norm() {
        let mut a = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.sum(), 7.0);
        let sq = a.map(|x| x * x);
        assert_eq!(sq.as_slice(), &[9.0, 16.0]);
        a.zero_in_place();
        assert_eq!(a.sum(), 0.0);
    }

    #[test]
    fn col_sums_and_slices() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]]);
        assert_eq!(a.col_sums().as_slice(), &[6.0, 8.0, 10.0, 12.0]);
        let mut acc = Matrix::full(1, 4, 1.0);
        a.col_sums_add_into(&mut acc);
        assert_eq!(acc.as_slice(), &[7.0, 9.0, 11.0, 13.0]);
        let mid = a.cols_slice(1, 3);
        assert_eq!(mid, Matrix::from_rows(&[vec![2.0, 3.0], vec![6.0, 7.0]]));
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn from_rows_rejects_ragged() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
