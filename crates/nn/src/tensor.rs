//! Dense row-major `f32` matrices and the handful of BLAS-like kernels the
//! rest of the workspace needs.
//!
//! The matrices here are deliberately simple: a shape plus a flat `Vec<f32>`.
//! The performance-sensitive kernels are the matmul family, which dispatches
//! by shape: small or single-row products run a naive `i-k-j` loop whose
//! inner loop streams through contiguous memory; batch-sized products run
//! the blocked, panel-packed kernels of [`crate::kernels`]. Either way the
//! whole product runs on the calling thread.
//!
//! Every kernel writes into a caller-provided output matrix
//! ([`Matrix::matmul_into`], [`Matrix::matmul_nt_into`],
//! [`Matrix::matmul_tn_into`], and the fused
//! [`Matrix::addmm_bias_act_into`] used by the allocation-free inference
//! path); there is no allocating form. The output's heap buffer is reused
//! whenever its capacity suffices, which is what makes steady-state
//! inference allocation-free; the result does not depend on what the buffer
//! held before — and is identical across the naive and blocked paths for
//! finite inputs, because every path accumulates each output element in the
//! same strictly ascending order along the shared dimension (see the
//! numerical contract in [`crate::kernels`]).

use crate::activation::Activation;
use crate::kernels;
use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix (no heap allocation).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Build a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Build a matrix by calling `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable access to the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix and return its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshape to `rows x cols` and zero every element, reusing the existing
    /// heap buffer whenever its capacity suffices (no allocation once warm).
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshape to `rows x cols` without zeroing the retained prefix; only for
    /// kernels that overwrite every element before reading it.
    pub(crate) fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Make `self` the listed `rows` of `src`, in order, reusing `self`'s
    /// heap buffer. Room for all of `src` is reserved, so gathering any
    /// subset of a same-sized source never reallocates.
    pub(crate) fn gather_rows(&mut self, src: &Matrix, rows: &[usize]) {
        self.rows = rows.len();
        self.cols = src.cols;
        self.data.clear();
        self.data.reserve(src.data.len());
        for &r in rows {
            self.data.extend_from_slice(src.row(r));
        }
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Fill the whole matrix with a constant value.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise in-place addition: `self += other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// Multiply every element by a scalar.
    pub fn scale(&mut self, alpha: f32) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Sum of every column across rows (accumulated in ascending row
    /// order) into a caller-provided buffer, cleared and resized to `cols`
    /// reusing its capacity — no allocation once warm.
    pub fn column_sums_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for row in self.data.chunks_exact(self.cols) {
            for (o, x) in out.iter_mut().zip(row.iter()) {
                *o += *x;
            }
        }
    }

    /// Mean of all elements; returns 0.0 for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Largest absolute element; returns 0.0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, x| m.max(x.abs()))
    }

    /// `self @ other` — standard matrix product `(m x k) @ (k x n) -> (m x n)`
    /// — into a caller-provided output, which is reshaped to `(m x n)`
    /// reusing its buffer.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.addmm_bias_act_into(other, None, Activation::Identity, out);
    }

    /// Fused `out = act(self @ w + bias)` in one pass over the output: the
    /// `i-k-j` matmul accumulation, the bias row broadcast, and the
    /// activation are applied per output row while it is cache-hot.
    ///
    /// The per-element operation sequence (accumulate along `k` in order,
    /// then add the bias, then the activation) is exactly the sequence the
    /// unfused matmul, bias-row add, activation pipeline performs, so
    /// the result is bit-identical to that pipeline.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match or the bias length is not
    /// `w.cols()`.
    pub fn addmm_bias_act_into(
        &self,
        w: &Matrix,
        bias: Option<&[f32]>,
        act: Activation,
        out: &mut Matrix,
    ) {
        out.resize_for_overwrite(self.rows, w.cols);
        self.addmm_dispatch(w, bias, act, None, 0..w.cols, &mut out.data);
    }

    /// `out = act(self @ w[:, cols] + bias[cols])` into a caller slice of
    /// `cols.len()` values per row; `0..w.cols()` is
    /// [`Matrix::addmm_bias_act_into`]. `dense_hint` is an optional
    /// precomputed density verdict for `self`, so callers that already ran
    /// [`kernels::mostly_dense`] for their own dispatch (the masked layers)
    /// don't pay the input scan twice. A partial range always runs the naive
    /// zero-skip loop, whose per-element sequence does not depend on the
    /// range.
    pub(crate) fn addmm_dispatch(
        &self,
        w: &Matrix,
        bias: Option<&[f32]>,
        act: Activation,
        dense_hint: Option<bool>,
        cols: std::ops::Range<usize>,
        out: &mut [f32],
    ) {
        assert_eq!(
            self.cols, w.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, w.rows, w.cols
        );
        if let Some(bias) = bias {
            assert_eq!(bias.len(), w.cols, "bias length mismatch");
        }
        assert!(
            cols.start <= cols.end && cols.end <= w.cols,
            "column range {cols:?} outside 0..{}",
            w.cols
        );
        let (m, k, n) = (self.rows, self.cols, w.cols);
        let width = cols.len();
        assert_eq!(out.len(), m * width, "output length mismatch");
        let a = &self.data;
        let b = &w.data;
        if width == n
            && kernels::use_blocked(m, k, n)
            && dense_hint.unwrap_or_else(|| kernels::mostly_dense(a))
        {
            kernels::addmm_blocked(a, m, k, b, n, bias, act, out);
            return;
        }
        let bias = bias.map(|bias| &bias[cols.clone()]);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let crow = &mut out[i * width..(i + 1) * width];
            crow.fill(0.0);
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n + cols.start..p * n + cols.end];
                for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                    *cv += av * bv;
                }
            }
            if let Some(bias) = bias {
                for (cv, &bv) in crow.iter_mut().zip(bias.iter()) {
                    *cv += bv;
                }
            }
            act.apply(crow);
        }
    }

    /// `self @ other^T` — `(m x k) @ (n x k)^T -> (m x n)` — into a
    /// caller-provided output, which is reshaped reusing its buffer.
    ///
    /// Used by back-propagation to avoid materializing transposes.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} @ ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let m = self.rows;
        let k = self.cols;
        let n = other.rows;
        out.resize_for_overwrite(m, n);
        let a = &self.data;
        let b = &other.data;
        if kernels::use_blocked(m, k, n) && kernels::mostly_dense(a) {
            kernels::matmul_nt_blocked(a, m, k, b, n, &mut out.data);
            return;
        }
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out.data[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (x, y) in arow.iter().zip(brow.iter()) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
    }

    /// `self^T @ other` — `(k x m)^T @ (k x n) -> (m x n)` — into a
    /// caller-provided output, which is reshaped reusing its buffer.
    ///
    /// Used to compute weight gradients (`input^T @ grad_output`).
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})^T @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let k = self.rows; // shared dimension
        let m = self.cols;
        let n = other.cols;
        if kernels::use_blocked(m, k, n) && kernels::mostly_dense(&self.data) {
            out.resize_for_overwrite(m, n);
            kernels::matmul_tn_blocked(&self.data, k, m, &other.data, n, &mut out.data);
            return;
        }
        out.reset(m, n);
        // out[i, j] = sum_t self[t, i] * other[t, j]
        // Accumulate row-by-row of the shared dimension: cache friendly on `other`.
        for t in 0..k {
            let arow = &self.data[t * m..(t + 1) * m];
            let brow = &other.data[t * n..(t + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    }
}

// Matrix-facing entry points for the sparse-capture kernels. They live here
// (not in `kernels`) so the slice-level kernel module stays free of `Matrix`
// knowledge, mirroring how the blocked kernels are reached through the
// `Matrix::*_into` dispatchers above.
impl kernels::SparseRows {
    /// Re-capture `m`'s nonzero entries, row by row (a `begin` +
    /// `push_row`-per-row convenience). Reuses the capture's buffers; no
    /// allocation once warm.
    pub fn capture_from(&mut self, m: &Matrix) {
        self.begin(m.rows(), m.cols());
        for row in m.data.chunks_exact(m.cols.max(1)) {
            self.push_row(row);
        }
    }

    /// Fused `out = act(self @ w + bias)` — the sparse-input analogue of
    /// [`Matrix::addmm_bias_act_into`], bit-identical to it (and to the
    /// blocked path) for finite inputs; see [`kernels::addmm_sparse`].
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match or the bias length is not
    /// `w.cols()`.
    pub fn addmm_bias_act_into(
        &self,
        w: &Matrix,
        bias: Option<&[f32]>,
        act: Activation,
        out: &mut Matrix,
    ) {
        assert_eq!(
            self.cols(),
            w.rows,
            "sparse matmul shape mismatch: {}x{} @ {}x{}",
            self.rows(),
            self.cols(),
            w.rows,
            w.cols
        );
        if let Some(bias) = bias {
            assert_eq!(bias.len(), w.cols, "bias length mismatch");
        }
        out.resize_for_overwrite(self.rows(), w.cols);
        kernels::addmm_sparse(self, &w.data, w.cols, bias, act, &mut out.data);
    }

    /// `out = self^T @ other` — the sparse-input analogue of
    /// [`Matrix::matmul_tn_into`] (the weight-gradient product
    /// `input^T @ grad`), bit-identical to it for finite inputs; see
    /// [`kernels::matmul_tn_sparse`].
    ///
    /// # Panics
    /// Panics if the shared (row) dimensions do not match.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows(),
            other.rows,
            "sparse matmul_tn shape mismatch: ({}x{})^T @ {}x{}",
            self.rows(),
            self.cols(),
            other.rows,
            other.cols
        );
        out.resize_for_overwrite(self.cols(), other.cols);
        kernels::matmul_tn_sparse(self, &other.data, other.cols, &mut out.data);
    }
}

/// `out = x @ b` for a single row vector `x` of length `b.rows()`.
///
/// The single-row analogue of [`Matrix::matmul_into`] (same accumulation
/// order, so bit-identical to a `1 x k` matmul) for recurrence-style code
/// that keeps its state in flat slices instead of matrices.
pub fn rowvec_matmul_into(x: &[f32], b: &Matrix, out: &mut [f32]) {
    assert_eq!(x.len(), b.rows, "rowvec_matmul shape mismatch");
    assert_eq!(out.len(), b.cols, "rowvec_matmul output length mismatch");
    out.fill(0.0);
    for (p, &av) in x.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let brow = &b.data[p * b.cols..(p + 1) * b.cols];
        for (o, &bv) in out.iter_mut().zip(brow.iter()) {
            *o += av * bv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for p in 0..a.cols() {
                    acc += a.get(i, p) * b.get(p, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Simple LCG so the test does not depend on `rand`.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.clone().into_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_naive() {
        let a = random_matrix(7, 5, 1);
        let b = random_matrix(5, 9, 2);
        let mut got = Matrix::default();
        a.matmul_into(&b, &mut got);
        let want = naive_matmul(&a, &b);
        assert!(approx_eq(&got, &want, 1e-5));
    }

    #[test]
    fn matmul_large_parallel_matches_naive() {
        let a = random_matrix(130, 70, 3);
        let b = random_matrix(70, 260, 4);
        let mut got = Matrix::default();
        a.matmul_into(&b, &mut got);
        let want = naive_matmul(&a, &b);
        assert!(approx_eq(&got, &want, 1e-4));
    }

    #[test]
    fn matmul_nt_matches_transpose() {
        let a = random_matrix(6, 8, 5);
        let b = random_matrix(10, 8, 6);
        let mut got = Matrix::default();
        a.matmul_nt_into(&b, &mut got);
        let want = naive_matmul(&a, &b.transpose());
        assert!(approx_eq(&got, &want, 1e-5));
    }

    #[test]
    fn matmul_tn_matches_transpose() {
        let a = random_matrix(8, 6, 7);
        let b = random_matrix(8, 10, 8);
        let mut got = Matrix::default();
        a.matmul_tn_into(&b, &mut got);
        let want = naive_matmul(&a.transpose(), &b);
        assert!(approx_eq(&got, &want, 1e-5));
    }

    #[test]
    fn add_row_vector_adds_bias() {
        // The bias row is added by the fused kernel: `0 @ 0 + bias`.
        let mut m = Matrix::default();
        Matrix::zeros(2, 1).addmm_bias_act_into(
            &Matrix::zeros(1, 3),
            Some(&[1.0, 2.0, 3.0]),
            Activation::Identity,
            &mut m,
        );
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn column_sums_sums_rows() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut sums = vec![9.0; 5]; // dirty and mis-sized
        m.column_sums_into(&mut sums);
        assert_eq!(sums, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[11.0, 22.0, 33.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[5.5, 11.0, 16.5]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = random_matrix(5, 9, 11);
        let back = a.transpose().transpose();
        assert!(approx_eq(&a, &back, 0.0));
    }
}
