//! Dense row-major `f32` matrices.
//!
//! This is the storage type used by every layer in the network. Data is a
//! single contiguous `Vec<f32>` in row-major order, which lets optimizers
//! treat parameters as flat slices.
//!
//! The products ([`Matrix::matmul`], [`Matrix::t_matmul`],
//! [`Matrix::matmul_t`], [`Matrix::affine_t`],
//! [`Matrix::fused_gate_affine`]) are what training and the batched
//! reference forward run on, and they run on the one kernel serving
//! does: the tile sweep of [`crate::packed`]. The forward products pack
//! their weights k-major once per call; the backward ones sweep a
//! row-major operand in place. Every output element is one chain that
//! starts at `0.0` and adds `a * b` over ascending `k`, with no term
//! skipped: a NaN or infinity in either operand reaches the output even
//! where the other operand is zero. (For finite operands a zero term
//! never changes a bit: a chain that starts at `+0` never holds `-0`, so
//! adding a `±0` product leaves it as it was.) Every product runs on the
//! calling thread: the worker pool parallelises records, lanes, grid
//! cells and sessions, never the inside of a product (DESIGN §9 has the
//! measurement that retired the row-blocked path).

use std::fmt;
use std::ops::{Index, IndexMut};

use eventhit_rng::Rng;

use crate::packed::{self, PackedAffine, PackedGate};

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
    /// `rhs` (`k x n`, row-major) is already a `[k][out]` panel, so each
    /// row of `self` is swept through it in place.
    ///
    /// ```
    /// use eventhit_nn::matrix::Matrix;
    /// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
    /// let id = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
    /// assert_eq!(a.matmul(&id), a);
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
        for i in 0..self.rows {
            packed::sweep::<false>(&rhs.data, self.row(i), out.row_mut(i), |_, dot, o| *o = dot);
        }
        out
    }

    /// Matrix product `self^T * rhs`.
    ///
    /// Both operands are `[k][out]` panels as they lie, and the wider one
    /// is swept in place: `rhs` through [`Matrix::matmul`] under the
    /// columns of `self`, or `self` under the columns of `rhs` with the
    /// result transposed back. A narrow panel would leave its outputs to
    /// the tile loop's one-wide tail — a weight gradient `dpre^T x` is
    /// `4H` wide on the `dpre` side and `D` wide on the `x` side. The
    /// choice never changes a bit: either way an output is the same chain
    /// of the same products (`a * b == b * a`).
    ///
    /// ```
    /// use eventhit_nn::matrix::Matrix;
    /// let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
    /// let b = Matrix::from_vec(2, 1, vec![3.0, 4.0]);
    /// assert_eq!(a.t_matmul(&b)[(0, 0)], 11.0);
    /// assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
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
        if rhs.cols >= self.cols {
            self.transpose().matmul(rhs)
        } else {
            rhs.transpose().matmul(self).transpose()
        }
    }

    /// Matrix product `self * rhs^T`: `rhs` transposed is its k-major
    /// packing, so this is [`Matrix::matmul`] on it.
    ///
    /// ```
    /// use eventhit_nn::matrix::Matrix;
    /// let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
    /// let b = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
    /// assert_eq!(a.matmul_t(&b)[(0, 0)], 11.0);
    /// assert_eq!(a.matmul_t(&b), a.matmul(&b.transpose()));
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
        self.matmul(&rhs.transpose())
    }

    /// Affine map `self * w^T + bias` (bias broadcast to every row) in one
    /// pass — the [`crate::dense::Dense`] pre-activation, on
    /// [`PackedAffine`] packed once per call. Per output element the dot
    /// product completes before the bias is added, exactly like
    /// `matmul_t` followed by `add_row_broadcast`.
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
        PackedAffine::pack(w, bias).forward_rows(self)
    }

    /// Fused recurrent gate pre-activation `self * wx^T + h * wh^T + bias`
    /// on [`PackedGate`] packed once per call. For each output element
    /// both dot products complete as independent chains, are added to
    /// each other, then the bias is added — exactly the `matmul_t` +
    /// `add_assign` + `add_row_broadcast` sequence. A recurrent layer
    /// packs its gate once per sequence instead and steps through it.
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
        PackedGate::pack(wx, wh, bias).forward_rows(self, h)
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

/// The naive products: the oracles the kernel-equivalence tests hold the
/// products to, bit for bit. Each output element is the plain chain
/// `acc = 0.0; for k in 0.. { acc += a[i][k] * b[k][j] }`.
#[cfg(test)]
impl Matrix {
    /// `rows x cols` of naive chains over `kdim` terms `a(i, k) * b(k, j)`.
    fn naive(
        rows: usize,
        cols: usize,
        kdim: usize,
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
    ) -> Matrix {
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                let mut acc = 0.0f32;
                for k in 0..kdim {
                    acc += a(i, k) * b(k, j);
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// Naive `self * rhs`.
    pub(crate) fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        Self::naive(
            self.rows,
            rhs.cols,
            self.cols,
            |i, k| self[(i, k)],
            |k, j| rhs[(k, j)],
        )
    }

    /// Naive `self^T * rhs`.
    pub(crate) fn t_matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "t_matmul shape mismatch");
        Self::naive(
            self.cols,
            rhs.cols,
            self.rows,
            |i, k| self[(k, i)],
            |k, j| rhs[(k, j)],
        )
    }

    /// Naive `self * rhs^T`.
    pub(crate) fn matmul_t_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_t shape mismatch");
        Self::naive(
            self.rows,
            rhs.rows,
            self.cols,
            |i, k| self[(i, k)],
            |k, j| rhs[(j, k)],
        )
    }

    /// Naive `self * w^T`, then the bias broadcast.
    pub(crate) fn affine_t_naive(&self, w: &Matrix, bias: &[f32]) -> Matrix {
        let mut out = self.matmul_t_naive(w);
        out.add_row_broadcast(bias);
        out
    }

    /// Two naive `matmul_t` products, an elementwise add, then the bias
    /// broadcast: the unfused gate arithmetic.
    pub(crate) fn fused_gate_affine_naive(
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
    fn non_finite_operands_reach_the_output_through_zero_coefficients() {
        // A zero gradient against a non-finite weight row (`dx = dpre W`):
        // 0 * NaN and 0 * inf are NaN, and no product may skip them.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 2, vec![f32::NAN, f32::INFINITY, 2.0, 3.0]);
        let bt = b.transpose();
        let products = [
            a.matmul(&b),
            a.transpose().t_matmul(&b),
            a.matmul_t(&bt),
            a.affine_t(&bt, &[0.0; 2]),
            a.fused_gate_affine(&bt, &a, &Matrix::zeros(2, 2), &[0.0; 2]),
            a.matmul_naive(&b),
        ];
        for (p, got) in products.iter().enumerate() {
            assert_eq!(got.shape(), (1, 2), "product {p}");
            assert!(
                got.as_slice().iter().all(|v| v.is_nan()),
                "product {p}: {got:?}"
            );
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
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = Matrix::zeros(1, 2);
        assert!(a.all_finite());
        a[(0, 1)] = f32::NAN;
        assert!(!a.all_finite());
    }
}
