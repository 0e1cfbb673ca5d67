//! Dense row-major `f32` matrices.
//!
//! This is the storage type used by every layer in the network. Data is a
//! single contiguous `Vec<f32>` in row-major order, which lets optimizers
//! treat parameters as flat slices.
//!
//! The product kernels ([`Matrix::matmul`], [`Matrix::t_matmul`],
//! [`Matrix::matmul_t`], [`Matrix::affine_t`],
//! [`Matrix::fused_gate_affine`]) are what training and the batched
//! reference forward run on: cache-blocked over `k` and unrolled eight
//! output columns wide so the autovectorizer gets independent
//! accumulator chains to work with (std-only, stable rustc). Every kernel
//! keeps each output element's accumulation a *single* chain over `k` in
//! ascending order, so the blocked kernels are bit-identical to the naive
//! reference implementations ([`Matrix::matmul_naive`] and friends) that
//! are retained as test oracles. Every product runs on the calling
//! thread: the worker pool parallelises records, lanes, grid cells and
//! sessions, never the inside of a product (DESIGN §9 has the
//! measurement that retired the row-blocked path).
//! Serving does not run these: it compiles the model onto
//! [`crate::packed`] panels once and steps rows through them.

use std::fmt;
use std::ops::{Index, IndexMut};

use eventhit_rng::Rng;

/// `k`-panel length for the cache-blocked kernels: an eight-row panel of
/// the operand plus the walked row stays within L1 (9 × 256 × 4 B ≈ 9 KiB).
/// Blocks are consumed in ascending order into the same accumulator chain,
/// so blocking never changes the bits.
const K_BLOCK: usize = 256;

/// 8-wide unrolled `out_row += a * b_row` (the `ikj` inner loop).
#[inline]
fn axpy8(a: f32, b_row: &[f32], out_row: &mut [f32]) {
    let mut o_it = out_row.chunks_exact_mut(8);
    let mut b_it = b_row.chunks_exact(8);
    for (o, b) in (&mut o_it).zip(&mut b_it) {
        o[0] += a * b[0];
        o[1] += a * b[1];
        o[2] += a * b[2];
        o[3] += a * b[3];
        o[4] += a * b[4];
        o[5] += a * b[5];
        o[6] += a * b[6];
        o[7] += a * b[7];
    }
    for (o, &b) in o_it.into_remainder().iter_mut().zip(b_it.remainder()) {
        *o += a * b;
    }
}

/// Blocked/unrolled row kernel for `A * B^T`: accumulates
/// `out_row[j] += dot(a_row, rhs.row(j))` eight output columns at a time,
/// `k`-panelled. Each `out_row[j]` is a single accumulator chain over `k`
/// in ascending order (partial sums round-trip through `out_row` between
/// panels), so the result is bit-identical to the naive dot product.
#[inline]
fn dot_rows8(a_row: &[f32], rhs: &Matrix, out_row: &mut [f32]) {
    let kdim = a_row.len();
    let out_cols = out_row.len();
    let mut kb = 0;
    while kb < kdim {
        let kend = (kb + K_BLOCK).min(kdim);
        let a_blk = &a_row[kb..kend];
        let mut j = 0;
        while j + 8 <= out_cols {
            let b0 = &rhs.row(j)[kb..kend];
            let b1 = &rhs.row(j + 1)[kb..kend];
            let b2 = &rhs.row(j + 2)[kb..kend];
            let b3 = &rhs.row(j + 3)[kb..kend];
            let b4 = &rhs.row(j + 4)[kb..kend];
            let b5 = &rhs.row(j + 5)[kb..kend];
            let b6 = &rhs.row(j + 6)[kb..kend];
            let b7 = &rhs.row(j + 7)[kb..kend];
            let mut acc = [
                out_row[j],
                out_row[j + 1],
                out_row[j + 2],
                out_row[j + 3],
                out_row[j + 4],
                out_row[j + 5],
                out_row[j + 6],
                out_row[j + 7],
            ];
            for (idx, &a) in a_blk.iter().enumerate() {
                acc[0] += a * b0[idx];
                acc[1] += a * b1[idx];
                acc[2] += a * b2[idx];
                acc[3] += a * b3[idx];
                acc[4] += a * b4[idx];
                acc[5] += a * b5[idx];
                acc[6] += a * b6[idx];
                acc[7] += a * b7[idx];
            }
            out_row[j..j + 8].copy_from_slice(&acc);
            j += 8;
        }
        while j < out_cols {
            let b = &rhs.row(j)[kb..kend];
            let mut acc = out_row[j];
            for (idx, &a) in a_blk.iter().enumerate() {
                acc += a * b[idx];
            }
            out_row[j] = acc;
            j += 1;
        }
        kb = kend;
    }
}

/// Naive row kernel for `A * B^T`: one scalar dot product per output
/// column. Retained as the bit-exact reference for [`dot_rows8`].
#[inline]
fn dot_rows_naive(a_row: &[f32], rhs: &Matrix, out_row: &mut [f32]) {
    for (j, o) in out_row.iter_mut().enumerate() {
        let b_row = rhs.row(j);
        let mut acc = 0.0f32;
        for (&a, &b) in a_row.iter().zip(b_row) {
            acc += a * b;
        }
        *o = acc;
    }
}

/// Fused gate row kernel: `out_row[j] = dot(x_row, wx.row(j)) +
/// dot(h_row, wh.row(j)) + bias[j]`, eight output columns at a time
/// (sixteen independent accumulator chains). Each dot is its own single
/// chain over ascending `k` and the two are added only once both are
/// complete, matching the unfused `matmul_t` + `add_assign` +
/// `add_row_broadcast` sequence bit for bit.
#[inline]
fn gate_row8(
    x_row: &[f32],
    wx: &Matrix,
    h_row: &[f32],
    wh: &Matrix,
    bias: &[f32],
    out_row: &mut [f32],
) {
    let out_cols = out_row.len();
    let mut j = 0;
    while j + 8 <= out_cols {
        let mut accx = [0.0f32; 8];
        let x0 = &wx.row(j)[..x_row.len()];
        let x1 = &wx.row(j + 1)[..x_row.len()];
        let x2 = &wx.row(j + 2)[..x_row.len()];
        let x3 = &wx.row(j + 3)[..x_row.len()];
        let x4 = &wx.row(j + 4)[..x_row.len()];
        let x5 = &wx.row(j + 5)[..x_row.len()];
        let x6 = &wx.row(j + 6)[..x_row.len()];
        let x7 = &wx.row(j + 7)[..x_row.len()];
        for (idx, &a) in x_row.iter().enumerate() {
            accx[0] += a * x0[idx];
            accx[1] += a * x1[idx];
            accx[2] += a * x2[idx];
            accx[3] += a * x3[idx];
            accx[4] += a * x4[idx];
            accx[5] += a * x5[idx];
            accx[6] += a * x6[idx];
            accx[7] += a * x7[idx];
        }
        let mut acch = [0.0f32; 8];
        let h0 = &wh.row(j)[..h_row.len()];
        let h1 = &wh.row(j + 1)[..h_row.len()];
        let h2 = &wh.row(j + 2)[..h_row.len()];
        let h3 = &wh.row(j + 3)[..h_row.len()];
        let h4 = &wh.row(j + 4)[..h_row.len()];
        let h5 = &wh.row(j + 5)[..h_row.len()];
        let h6 = &wh.row(j + 6)[..h_row.len()];
        let h7 = &wh.row(j + 7)[..h_row.len()];
        for (idx, &a) in h_row.iter().enumerate() {
            acch[0] += a * h0[idx];
            acch[1] += a * h1[idx];
            acch[2] += a * h2[idx];
            acch[3] += a * h3[idx];
            acch[4] += a * h4[idx];
            acch[5] += a * h5[idx];
            acch[6] += a * h6[idx];
            acch[7] += a * h7[idx];
        }
        for t in 0..8 {
            out_row[j + t] = (accx[t] + acch[t]) + bias[j + t];
        }
        j += 8;
    }
    while j < out_cols {
        let mut accx = 0.0f32;
        for (&a, &b) in x_row.iter().zip(wx.row(j)) {
            accx += a * b;
        }
        let mut acch = 0.0f32;
        for (&a, &b) in h_row.iter().zip(wh.row(j)) {
            acch += a * b;
        }
        out_row[j] = (accx + acch) + bias[j];
        j += 1;
    }
}

/// A dense row-major matrix of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix with entries drawn uniformly from `[lo, hi)`.
    pub fn uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        lo: f32,
        hi: f32,
        rng: &mut R,
    ) -> Self {
        let data = (0..rows * cols).map(|_| rng.random_range(lo..hi)).collect();
        Matrix { rows, cols, data }
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the underlying data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the underlying data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies `src` into row `r`.
    ///
    /// # Panics
    /// Panics if `src.len() != cols`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols);
        self.row_mut(r).copy_from_slice(src);
    }

    /// Matrix product `self * rhs`.
    ///
    /// Uses `ikj` loop ordering, `k`-panelled so the touched `rhs` rows
    /// stay cache-resident and 8-wide unrolled along the output row.
    /// The result is bit-identical to [`Matrix::matmul_naive`] (each
    /// output element's accumulation order never changes).
    ///
    /// ```
    /// use eventhit_nn::matrix::Matrix;
    /// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
    /// let id = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
    /// assert_eq!(a.matmul(&id), a);
    /// assert_eq!(a.matmul(&id), a.matmul_naive(&id));
    /// ```
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // k-panelled ikj: for each panel, sweep every output row so the
        // touched rhs panel stays hot. Panels are consumed in ascending k
        // into the same output elements, so per-element accumulation
        // order matches the naive kernel.
        let mut kb = 0;
        while kb < self.cols {
            let kend = (kb + K_BLOCK).min(self.cols);
            for i in 0..self.rows {
                let out_row = out.row_mut(i);
                for (k, &a) in self.row(i)[kb..kend].iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    axpy8(a, rhs.row(kb + k), out_row);
                }
            }
            kb = kend;
        }
        out
    }

    /// Naive `self * rhs` (`ikj`, no blocking, no unrolling).
    /// Retained as the bit-exact reference implementation for
    /// the kernel-equivalence test suite.
    ///
    /// ```
    /// use eventhit_nn::matrix::Matrix;
    /// let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
    /// let b = Matrix::from_vec(2, 1, vec![3.0, 4.0]);
    /// assert_eq!(a.matmul_naive(&b)[(0, 0)], 11.0);
    /// ```
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix product `self^T * rhs` without materializing the transpose.
    ///
    /// `k`-panelled and 8-wide unrolled like [`Matrix::matmul`]. Each
    /// output element accumulates over `k` in ascending order, so the
    /// bits match [`Matrix::t_matmul_naive`].
    ///
    /// ```
    /// use eventhit_nn::matrix::Matrix;
    /// let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
    /// let b = Matrix::from_vec(2, 1, vec![3.0, 4.0]);
    /// assert_eq!(a.t_matmul(&b)[(0, 0)], 11.0);
    /// assert_eq!(a.t_matmul(&b), a.t_matmul_naive(&b));
    /// ```
    ///
    /// # Panics
    /// Panics if `self.rows != rhs.rows`.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        // k-panelled: sweep every output row per panel so the rhs panel
        // stays hot; a is a strided column walk of self.
        let mut kb = 0;
        while kb < self.rows {
            let kend = (kb + K_BLOCK).min(self.rows);
            for i in 0..self.cols {
                let out_row = out.row_mut(i);
                for k in kb..kend {
                    let a = self.data[k * self.cols + i];
                    if a == 0.0 {
                        continue;
                    }
                    axpy8(a, rhs.row(k), out_row);
                }
            }
            kb = kend;
        }
        out
    }

    /// Naive `self^T * rhs` (no blocking, no unrolling). Retained as the
    /// bit-exact reference implementation for the kernel-equivalence test
    /// suite.
    ///
    /// ```
    /// use eventhit_nn::matrix::Matrix;
    /// let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
    /// assert_eq!(a.t_matmul_naive(&a)[(0, 0)], 5.0);
    /// ```
    ///
    /// # Panics
    /// Panics if `self.rows != rhs.rows`.
    pub fn t_matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let out_cols = rhs.cols;
        let mut out = Matrix::zeros(self.cols, out_cols);
        for i in 0..self.cols {
            let out_row = &mut out.data[i * out_cols..(i + 1) * out_cols];
            for k in 0..self.rows {
                let a = self.data[k * self.cols + i];
                if a == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix product `self * rhs^T` without materializing the transpose.
    ///
    /// Every output element is an independent dot product; the blocked
    /// kernel runs eight of them at once (eight independent accumulator
    /// chains — the ILP the scalar dot can't offer), `k`-panelled for
    /// cache residency. The bits match [`Matrix::matmul_t_naive`].
    ///
    /// ```
    /// use eventhit_nn::matrix::Matrix;
    /// let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
    /// let b = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
    /// assert_eq!(a.matmul_t(&b)[(0, 0)], 11.0);
    /// assert_eq!(a.matmul_t(&b), a.matmul_t_naive(&b));
    /// ```
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            dot_rows8(self.row(i), rhs, out.row_mut(i));
        }
        out
    }

    /// Naive `self * rhs^T` (one scalar dot product per output element).
    /// Retained as the bit-exact reference implementation for the
    /// kernel-equivalence test suite.
    ///
    /// ```
    /// use eventhit_nn::matrix::Matrix;
    /// let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
    /// assert_eq!(a.matmul_t_naive(&a)[(0, 0)], 5.0);
    /// ```
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_t_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let out_cols = rhs.rows;
        let mut out = Matrix::zeros(self.rows, out_cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * out_cols..(i + 1) * out_cols];
            dot_rows_naive(a_row, rhs, out_row);
        }
        out
    }

    /// Affine map `self * w^T + bias` (bias broadcast to every row) in one
    /// pass — the [`crate::dense::Dense`] / GRU pre-activation. Per output
    /// element the dot product completes (single chain, ascending `k`)
    /// before the bias is added, exactly like `matmul_t` followed by
    /// `add_row_broadcast`, so the fused kernel is bit-identical to
    /// [`Matrix::affine_t_naive`].
    ///
    /// ```
    /// use eventhit_nn::matrix::Matrix;
    /// let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
    /// let w = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
    /// assert_eq!(x.affine_t(&w, &[0.5])[(0, 0)], 11.5);
    /// ```
    ///
    /// # Panics
    /// Panics if `self.cols != w.cols` or `bias.len() != w.rows`.
    pub fn affine_t(&self, w: &Matrix, bias: &[f32]) -> Matrix {
        assert_eq!(
            self.cols, w.cols,
            "affine_t shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, w.rows, w.cols
        );
        assert_eq!(bias.len(), w.rows, "affine_t bias length mismatch");
        let mut out = Matrix::zeros(self.rows, w.rows);
        for i in 0..self.rows {
            let out_row = out.row_mut(i);
            dot_rows8(self.row(i), w, out_row);
            for (o, &b) in out_row.iter_mut().zip(bias) {
                *o += b;
            }
        }
        out
    }

    /// Sequential naive reference for [`Matrix::affine_t`]: `matmul_t`
    /// then a bias broadcast, composed from the retained naive kernels.
    ///
    /// ```
    /// use eventhit_nn::matrix::Matrix;
    /// let x = Matrix::from_vec(1, 1, vec![2.0]);
    /// let w = Matrix::from_vec(1, 1, vec![3.0]);
    /// assert_eq!(x.affine_t_naive(&w, &[1.0])[(0, 0)], 7.0);
    /// ```
    pub fn affine_t_naive(&self, w: &Matrix, bias: &[f32]) -> Matrix {
        assert_eq!(bias.len(), w.rows, "affine_t bias length mismatch");
        let mut out = self.matmul_t_naive(w);
        out.add_row_broadcast(bias);
        out
    }

    /// Fused recurrent gate pre-activation
    /// `self * wx^T + h * wh^T + bias` in a single pass over the
    /// concatenated gate weights — the LSTM/GRU per-step kernel. For each
    /// output element both dot products complete as independent single
    /// chains (ascending `k`), are added to each other, then the bias is
    /// added — exactly the `matmul_t` + `add_assign` +
    /// `add_row_broadcast` sequence it replaces, so it is bit-identical
    /// to [`Matrix::fused_gate_affine_naive`].
    ///
    /// ```
    /// use eventhit_nn::matrix::Matrix;
    /// let x = Matrix::from_vec(1, 1, vec![2.0]);
    /// let wx = Matrix::from_vec(1, 1, vec![3.0]);
    /// let h = Matrix::from_vec(1, 1, vec![5.0]);
    /// let wh = Matrix::from_vec(1, 1, vec![7.0]);
    /// let pre = x.fused_gate_affine(&wx, &h, &wh, &[1.0]);
    /// assert_eq!(pre[(0, 0)], 42.0); // 2*3 + 5*7 + 1
    /// ```
    ///
    /// # Panics
    /// Panics on any shape mismatch (`self.cols != wx.cols`,
    /// `h.cols != wh.cols`, `self.rows != h.rows`, `wx.rows != wh.rows`,
    /// or `bias.len() != wx.rows`).
    pub fn fused_gate_affine(&self, wx: &Matrix, h: &Matrix, wh: &Matrix, bias: &[f32]) -> Matrix {
        assert_eq!(self.cols, wx.cols, "fused_gate_affine x/wx mismatch");
        assert_eq!(h.cols, wh.cols, "fused_gate_affine h/wh mismatch");
        assert_eq!(self.rows, h.rows, "fused_gate_affine batch mismatch");
        assert_eq!(wx.rows, wh.rows, "fused_gate_affine gate-count mismatch");
        assert_eq!(bias.len(), wx.rows, "fused_gate_affine bias mismatch");
        let mut out = Matrix::zeros(self.rows, wx.rows);
        for r in 0..self.rows {
            gate_row8(self.row(r), wx, h.row(r), wh, bias, out.row_mut(r));
        }
        out
    }

    /// Sequential naive reference for [`Matrix::fused_gate_affine`]:
    /// two naive `matmul_t` products, an elementwise add, and a bias
    /// broadcast — the exact pre-fusion gate arithmetic.
    ///
    /// ```
    /// use eventhit_nn::matrix::Matrix;
    /// let x = Matrix::from_vec(1, 1, vec![2.0]);
    /// let w = Matrix::from_vec(1, 1, vec![3.0]);
    /// let pre = x.fused_gate_affine_naive(&w, &x, &w, &[0.0]);
    /// assert_eq!(pre[(0, 0)], 12.0);
    /// ```
    pub fn fused_gate_affine_naive(
        &self,
        wx: &Matrix,
        h: &Matrix,
        wh: &Matrix,
        bias: &[f32],
    ) -> Matrix {
        let mut pre = self.matmul_t_naive(wx);
        pre.add_assign(&h.matmul_t_naive(wh));
        pre.add_row_broadcast(bias);
        pre
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Elementwise sum, `self += rhs`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Elementwise `self += alpha * rhs`.
    pub fn add_scaled(&mut self, rhs: &Matrix, alpha: f32) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Adds a row vector `bias` (length `cols`) to every row.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "broadcast length mismatch");
        for r in 0..self.rows {
            for (a, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *a += b;
            }
        }
    }

    /// Elementwise (Hadamard) product, returning a new matrix.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Multiplies every entry by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&x| f(x)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Sets all entries to zero (reuses the allocation).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sums entries along rows, producing a length-`cols` vector
    /// (i.e. a column-wise sum). Useful for bias gradients.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Horizontally concatenates `self` and `rhs` (same row count).
    pub fn hcat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "hcat row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(rhs.row(r));
        }
        out
    }

    /// Splits the matrix into two column blocks at column `at`.
    pub fn hsplit(&self, at: usize) -> (Matrix, Matrix) {
        assert!(at <= self.cols, "split point out of range");
        let mut left = Matrix::zeros(self.rows, at);
        let mut right = Matrix::zeros(self.rows, self.cols - at);
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..at]);
            right.row_mut(r).copy_from_slice(&self.row(r)[at..]);
        }
        (left, right)
    }

    /// Copies the column block `[start..start + len]` of every row out —
    /// one gate of a recurrent layer's concatenated pre-activation.
    pub(crate) fn col_block(&self, start: usize, len: usize) -> Matrix {
        let mut out = Matrix::zeros(self.rows, len);
        for r in 0..self.rows {
            out.row_mut(r)
                .copy_from_slice(&self.row(r)[start..start + len]);
        }
        out
    }

    /// Writes `block` into columns `[start..start + block.cols()]` of
    /// every row.
    pub(crate) fn set_col_block(&mut self, start: usize, block: &Matrix) {
        assert_eq!(self.rows, block.rows());
        for r in 0..self.rows {
            self.row_mut(r)[start..start + block.cols].copy_from_slice(block.row(r));
        }
    }

    /// Extracts the sub-matrix of the given rows (copy).
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            out.set_row(i, self.row(r));
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute entry (0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// True if every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            write!(f, "  [")?;
            let cols = self.cols.min(8);
            for c in 0..cols {
                write!(f, "{:9.4}", self[(r, c)])?;
                if c + 1 < cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_rng::rngs::StdRng;
    use eventhit_rng::SeedableRng;

    fn sample(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::uniform(rows, cols, -1.0, 1.0, &mut rng)
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_round_trips() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_bad_len() {
        let _ = Matrix::from_vec(2, 3, vec![1.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn identity_is_neutral() {
        let a = sample(4, 4, 1);
        let mut id = Matrix::zeros(4, 4);
        for i in 0..4 {
            id[(i, i)] = 1.0;
        }
        let prod = a.matmul(&id);
        for (x, y) in prod.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = sample(5, 3, 2);
        let b = sample(5, 4, 3);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast.shape(), (3, 4));
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = sample(5, 3, 4);
        let b = sample(4, 3, 5);
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast.shape(), (5, 4));
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_involution() {
        let a = sample(3, 7, 6);
        let back = a.transpose().transpose();
        assert_eq!(a, back);
    }

    #[test]
    fn add_and_scale() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.add_assign(&b);
        assert!(a.as_slice().iter().all(|&x| x == 3.0));
        a.scale(2.0);
        assert!(a.as_slice().iter().all(|&x| x == 6.0));
        a.add_scaled(&b, -0.5);
        assert!(a.as_slice().iter().all(|&x| x == 5.0));
    }

    #[test]
    fn row_broadcast_adds_bias() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&[1.0, -1.0]);
        for r in 0..3 {
            assert_eq!(a.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn hadamard_multiplies_elementwise() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn sum_rows_is_columnwise_sum() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sum_rows(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn hcat_hsplit_round_trip() {
        let a = sample(3, 2, 7);
        let b = sample(3, 5, 8);
        let cat = a.hcat(&b);
        assert_eq!(cat.shape(), (3, 7));
        let (l, r) = cat.hsplit(2);
        assert_eq!(l, a);
        assert_eq!(r, b);
    }

    #[test]
    fn select_rows_copies_requested_rows() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let sel = a.select_rows(&[2, 0]);
        assert_eq!(sel.row(0), &[5.0, 6.0]);
        assert_eq!(sel.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn norm_and_max_abs() {
        let a = Matrix::from_vec(1, 2, vec![3.0, -4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn blocked_kernels_bit_match_naive_references() {
        // Empty and one-element products, then shapes straddling the
        // 8-wide unroll and K_BLOCK boundaries.
        let shapes = [
            (0, 5, 0),
            (3, 5, 0),
            (1, 4, 1),
            (1, 1, 1),
            (3, 7, 9),
            (8, 256, 8),
            (13, 300, 17),
            (67, 41, 53),
        ];
        for &(m, k, n) in &shapes {
            let a = sample(m, k, (m * k + n) as u64);
            let b = sample(k, n, (m + k * n) as u64);
            assert_eq!(a.matmul(&b), a.matmul_naive(&b), "{m}x{k}x{n}");
            let at = sample(k, m, (m + k + n) as u64);
            assert_eq!(at.t_matmul(&b), at.t_matmul_naive(&b), "{m}x{k}x{n}");
            let bt = b.transpose();
            assert_eq!(a.matmul_t(&bt), a.matmul_t_naive(&bt), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn affine_t_matches_unfused_sequence() {
        let x = sample(5, 7, 20);
        let w = sample(11, 7, 21);
        let bias: Vec<f32> = (0..11).map(|i| i as f32 * 0.1 - 0.5).collect();
        let mut want = x.matmul_t(&w);
        want.add_row_broadcast(&bias);
        assert_eq!(x.affine_t(&w, &bias), want);
        assert_eq!(x.affine_t_naive(&w, &bias), want);
    }

    #[test]
    fn fused_gate_affine_matches_unfused_sequence() {
        let x = sample(4, 6, 22);
        let wx = sample(20, 6, 23);
        let h = sample(4, 5, 24);
        let wh = sample(20, 5, 25);
        let bias: Vec<f32> = (0..20).map(|i| (i as f32).sin()).collect();
        let mut want = x.matmul_t(&wx);
        want.add_assign(&h.matmul_t(&wh));
        want.add_row_broadcast(&bias);
        assert_eq!(x.fused_gate_affine(&wx, &h, &wh, &bias), want);
        assert_eq!(x.fused_gate_affine_naive(&wx, &h, &wh, &bias), want);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = Matrix::zeros(1, 2);
        assert!(a.all_finite());
        a[(0, 1)] = f32::NAN;
        assert!(!a.all_finite());
    }
}
