//! Dynamic int8 quantization: the `Quantized` inference fast lane.
//!
//! Weights are quantized symmetrically per output row at snapshot time
//! (`scale = max|w| / 127`, `q = round(w / scale)` saturated to
//! `[-127, 127]`) and stored as `i8` — a quarter of the `f32` footprint.
//! At inference time each *activation* row is quantized the same way on
//! the fly, the dot products run entirely in `i8 × i8 → i32` integer
//! arithmetic, and the two scales are applied once per output element.
//! Integer multiply-accumulate needs no per-element int→float
//! conversion and vectorizes tightly, which is where the lane's
//! single-core speedup comes from.
//!
//! The lane is *approximate*: per output element the error is bounded by
//! `sx/2 · Σ|w_row| + sw/2 · Σ|x| + k · sx·sw/4`, where `sx`/`sw` are
//! the activation-row and weight-row steps and `k` the reduction depth —
//! each term a half-step round-off against the other operand's L1 mass.
//! The repo's conformal layer absorbs exactly this kind of predictor
//! error — recalibrating the conformal state on quantized-lane scores
//! restores the coverage guarantee (see `DESIGN.md`). The kernels are
//! sequential, and the integer accumulation is associativity-exact, so
//! quantized results are bit-identical across worker counts by
//! construction. Reduction depths must stay below `2^17` so `i32`
//! accumulators cannot overflow (`127² · 2^17 < 2^31`); model layers are
//! orders of magnitude narrower.

use std::fmt;
use std::str::FromStr;

use crate::matrix::Matrix;

/// Which arithmetic a model's `forward_inference` runs on.
///
/// `Exact` is the trained `f32` path, bit-identical to training forward.
/// `Quantized` runs dynamic int8 kernels (int8 weights and activations,
/// exact `i32` accumulation) — faster and approximate; pair it with
/// conformal recalibration on quantized scores so marshalling decisions
/// keep their coverage guarantee.
///
/// ```
/// use eventhit_nn::quant::InferenceLane;
/// assert_eq!(InferenceLane::default(), InferenceLane::Exact);
/// assert_eq!("quantized".parse(), Ok(InferenceLane::Quantized));
/// assert_eq!(InferenceLane::Quantized.to_string(), "quantized");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum InferenceLane {
    /// Full-precision `f32` inference, bit-identical to training forward.
    #[default]
    Exact,
    /// Int8-weight, f32-accumulate fast lane (approximate).
    Quantized,
}

impl fmt::Display for InferenceLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferenceLane::Exact => f.write_str("exact"),
            InferenceLane::Quantized => f.write_str("quantized"),
        }
    }
}

impl FromStr for InferenceLane {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(InferenceLane::Exact),
            "quantized" => Ok(InferenceLane::Quantized),
            other => Err(format!(
                "unknown inference lane {other:?} (expected \"exact\" or \"quantized\")"
            )),
        }
    }
}

/// An `i8` matrix with one symmetric scale per row: row `r` of the source
/// is approximately `scales[r] * data[r]`.
///
/// ```
/// use eventhit_nn::matrix::Matrix;
/// use eventhit_nn::quant::QuantizedMatrix;
/// let w = Matrix::from_vec(1, 2, vec![1.0, -0.5]);
/// let q = QuantizedMatrix::quantize(&w);
/// let back = q.dequantize();
/// assert!((back[(0, 0)] - 1.0).abs() < 1.0 / 127.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes `m` row by row with symmetric per-row scales.
    ///
    /// Each row's scale is `max|row| / 127`; entries round to the nearest
    /// step and saturate to `[-127, 127]` (the `-128` code is unused so
    /// the grid stays symmetric). An all-zero row gets scale `0` and
    /// dequantizes to exact zeros. Assumes finite weights.
    pub fn quantize(m: &Matrix) -> Self {
        let (rows, cols) = m.shape();
        let mut data = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = m.row(r);
            let amax = row.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
            if amax == 0.0 {
                scales.push(0.0);
                data.extend(std::iter::repeat_n(0i8, cols));
                continue;
            }
            let scale = amax / 127.0;
            scales.push(scale);
            let inv = 127.0 / amax;
            for &v in row {
                let q = (v * inv).round().clamp(-127.0, 127.0);
                data.push(q as i8);
            }
        }
        QuantizedMatrix {
            rows,
            cols,
            data,
            scales,
        }
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

    /// Borrows quantized row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[i8] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The symmetric scale of row `r`.
    #[inline]
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Reconstructs the `f32` matrix this quantization represents.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let scale = self.scales[r];
            for (o, &q) in out.row_mut(r).iter_mut().zip(self.row(r)) {
                *o = scale * f32::from(q);
            }
        }
        out
    }
}

/// Quantizes one activation row symmetrically into `buf`, returning its
/// scale. Same grid as [`QuantizedMatrix::quantize`]: `scale =
/// max|v| / 127`, saturating round-to-nearest, zero rows get scale `0`.
#[inline]
fn quantize_row(row: &[f32], buf: &mut Vec<i8>) -> f32 {
    buf.clear();
    let amax = row.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
    if amax == 0.0 {
        buf.extend(std::iter::repeat_n(0i8, row.len()));
        return 0.0;
    }
    let inv = 127.0 / amax;
    buf.extend(
        row.iter()
            .map(|&v| (v * inv).round().clamp(-127.0, 127.0) as i8),
    );
    amax / 127.0
}

/// Exact integer dot of two `i8` rows, accumulated in `i32`. The tight
/// widen-multiply-add loop is what the optimizer vectorizes; correctness
/// needs `a.len() < 2^17` so `127² · len` stays below `i32::MAX` (callers
/// quantize model layers, which are far narrower).
#[inline]
fn doti(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(a.len() < 1 << 17, "i32 accumulator overflow bound");
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        acc += i32::from(x) * i32::from(y);
    }
    acc
}

/// An int8 affine map `out = x Wq^T + b`: the quantized counterpart of
/// [`crate::packed::PackedAffine`]. The activation row is quantized on
/// the fly, every output element is one exact `i8 × i8 → i32` integer
/// dot, and the activation and weight scales are applied once at the
/// end. Sequential (and therefore worker-count invariant by
/// construction).
///
/// ```
/// use eventhit_nn::matrix::Matrix;
/// use eventhit_nn::quant::QuantizedAffine;
/// let w = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
/// let affine = QuantizedAffine::quantize(&w, &[0.5]);
/// let (mut xq, mut out) = (Vec::new(), [0.0]);
/// affine.forward_into(&[1.0, 2.0], &mut xq, &mut out);
/// assert!((out[0] - 11.5).abs() < 0.1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedAffine {
    w: QuantizedMatrix,
    bias: Vec<f32>,
}

impl QuantizedAffine {
    /// Quantizes `w` (`out x k`) and keeps its `f32` bias (length `out`).
    ///
    /// # Panics
    /// Panics if `bias.len() != w.rows()`.
    pub fn quantize(w: &Matrix, bias: &[f32]) -> Self {
        assert_eq!(bias.len(), w.rows(), "quantized affine bias mismatch");
        QuantizedAffine {
            w: QuantizedMatrix::quantize(w),
            bias: bias.to_vec(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// `out[j] = doti(xq, w_j) · (sx · sw_j) + bias[j]`, with `x`
    /// quantized into the reused scratch `xq` first.
    ///
    /// # Panics
    /// Panics if `x` or `out` has the wrong length.
    pub fn forward_into(&self, x: &[f32], xq: &mut Vec<i8>, out: &mut [f32]) {
        assert_eq!(x.len(), self.in_dim(), "quantized affine input mismatch");
        assert_eq!(
            out.len(),
            self.out_dim(),
            "quantized affine output mismatch"
        );
        let sx = quantize_row(x, xq);
        for (j, o) in out.iter_mut().enumerate() {
            *o = doti(xq, self.w.row(j)) as f32 * (sx * self.w.scale(j)) + self.bias[j];
        }
    }
}

/// An int8 fused recurrent gate `out = x Wxq^T + h Whq^T + b`: the
/// quantized counterpart of [`crate::packed::PackedGate`] and the
/// quantized-lane LSTM step kernel. `x` and `h` are each quantized once
/// per step, then both gate products run in integer arithmetic.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedGate {
    wx: QuantizedMatrix,
    wh: QuantizedMatrix,
    bias: Vec<f32>,
}

impl QuantizedGate {
    /// Quantizes the input weights `wx` (`out x d`) and the recurrent
    /// weights `wh` (`out x hidden`); the shared bias stays `f32`.
    ///
    /// # Panics
    /// Panics if the three disagree about `out`.
    pub fn quantize(wx: &Matrix, wh: &Matrix, bias: &[f32]) -> Self {
        assert_eq!(wx.rows(), wh.rows(), "quantized gate gate-count mismatch");
        assert_eq!(bias.len(), wx.rows(), "quantized gate bias mismatch");
        QuantizedGate {
            wx: QuantizedMatrix::quantize(wx),
            wh: QuantizedMatrix::quantize(wh),
            bias: bias.to_vec(),
        }
    }

    /// `out[j] = (px_j + ph_j) + bias[j]`, each product scaled like
    /// [`QuantizedAffine::forward_into`]'s. `xq` / `hq` are reused
    /// scratch.
    ///
    /// # Panics
    /// Panics if `x`, `h` or `out` has the wrong length.
    pub fn forward_into(
        &self,
        x: &[f32],
        h: &[f32],
        xq: &mut Vec<i8>,
        hq: &mut Vec<i8>,
        out: &mut [f32],
    ) {
        assert_eq!(x.len(), self.wx.cols(), "quantized gate x/wx mismatch");
        assert_eq!(h.len(), self.wh.cols(), "quantized gate h/wh mismatch");
        assert_eq!(out.len(), self.wx.rows(), "quantized gate output mismatch");
        let sx = quantize_row(x, xq);
        let sh = quantize_row(h, hq);
        for (j, o) in out.iter_mut().enumerate() {
            let px = doti(xq, self.wx.row(j)) as f32 * (sx * self.wx.scale(j));
            let ph = doti(hq, self.wh.row(j)) as f32 * (sh * self.wh.scale(j));
            *o = (px + ph) + self.bias[j];
        }
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
    fn lane_parses_and_displays() {
        assert_eq!("exact".parse(), Ok(InferenceLane::Exact));
        assert_eq!("quantized".parse(), Ok(InferenceLane::Quantized));
        assert!("int8".parse::<InferenceLane>().is_err());
        assert_eq!(InferenceLane::Exact.to_string(), "exact");
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_a_step() {
        let m = sample(7, 23, 1);
        let q = QuantizedMatrix::quantize(&m);
        let back = q.dequantize();
        for r in 0..m.rows() {
            let step = q.scale(r);
            assert!(step > 0.0);
            for (a, b) in m.row(r).iter().zip(back.row(r)) {
                assert!(
                    (a - b).abs() <= step / 2.0 + 1e-7,
                    "row {r}: {a} -> {b}, step {step}"
                );
            }
        }
    }

    #[test]
    fn extremes_saturate_to_symmetric_codes() {
        // max |v| maps to exactly +-127; nothing can reach -128.
        let m = Matrix::from_vec(1, 4, vec![2.0, -2.0, 1.0, -0.003]);
        let q = QuantizedMatrix::quantize(&m);
        assert_eq!(q.row(0)[0], 127);
        assert_eq!(q.row(0)[1], -127);
        assert!(q.row(0).iter().all(|&v| v > -128));
        assert_eq!(q.scale(0), 2.0 / 127.0);
    }

    #[test]
    fn zero_rows_get_zero_scale_and_exact_zeros() {
        let mut m = sample(3, 5, 2);
        m.row_mut(1).fill(0.0);
        let q = QuantizedMatrix::quantize(&m);
        assert_eq!(q.scale(1), 0.0);
        assert!(q.row(1).iter().all(|&v| v == 0));
        assert!(q.dequantize().row(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_matrix_quantizes() {
        let q = QuantizedMatrix::quantize(&Matrix::zeros(0, 4));
        assert_eq!(q.rows(), 0);
        assert_eq!(q.dequantize().shape(), (0, 4));
    }

    /// Runs every row of `x` through `affine`, one output row each.
    fn affine_rows(affine: &QuantizedAffine, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), affine.out_dim());
        let mut xq = Vec::new();
        for r in 0..x.rows() {
            affine.forward_into(x.row(r), &mut xq, out.row_mut(r));
        }
        out
    }

    #[test]
    fn quantized_affine_matches_dequantized_exact_affine() {
        // The integer kernel must agree (to f32 round-off) with the exact
        // kernel run on the dequantized weights AND dequantized
        // activations — activation rows quantize on the same grid as
        // QuantizedMatrix rows, so the reference is fully explicit.
        let x = sample(5, 13, 3);
        let w = sample(11, 13, 4);
        let bias: Vec<f32> = (0..11).map(|i| i as f32 * 0.01).collect();
        let affine = QuantizedAffine::quantize(&w, &bias);
        let got = affine_rows(&affine, &x);
        let x_deq = QuantizedMatrix::quantize(&x).dequantize();
        let want = x_deq.affine_t(&QuantizedMatrix::quantize(&w).dequantize(), &bias);
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn quantized_gate_matches_composed_affines() {
        let x = sample(3, 6, 5);
        let h = sample(3, 4, 6);
        let (wx, wh) = (sample(16, 6, 7), sample(16, 4, 8));
        let bias: Vec<f32> = (0..16).map(|i| (i as f32).cos() * 0.1).collect();
        let gate = QuantizedGate::quantize(&wx, &wh, &bias);
        let mut got = Matrix::zeros(3, 16);
        let (mut xq, mut hq) = (Vec::new(), Vec::new());
        for r in 0..3 {
            gate.forward_into(x.row(r), h.row(r), &mut xq, &mut hq, got.row_mut(r));
        }
        let mut want = affine_rows(&QuantizedAffine::quantize(&wx, &[0.0; 16]), &x);
        want.add_assign(&affine_rows(
            &QuantizedAffine::quantize(&wh, &[0.0; 16]),
            &h,
        ));
        want.add_row_broadcast(&bias);
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn quantized_error_stays_within_analytic_bound() {
        // Per output element the dynamic-quantization error is bounded by
        // `sx/2·Σ|w_row| + sw/2·Σ|x| + k·sx·sw/4` (each operand's
        // half-step round-off against the other's L1 mass, plus the
        // second-order cross term) — the error model documented in
        // DESIGN.md.
        let x = sample(4, 32, 9);
        let w = sample(8, 32, 10);
        let bias = vec![0.0f32; 8];
        let affine = QuantizedAffine::quantize(&w, &bias);
        let q = QuantizedMatrix::quantize(&w);
        let exact = x.affine_t(&w, &bias);
        let quant = affine_rows(&affine, &x);
        let k = x.cols() as f32;
        for r in 0..x.rows() {
            let l1x: f32 = x.row(r).iter().map(|v| v.abs()).sum();
            let amax = x.row(r).iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let sx = amax / 127.0;
            for j in 0..8 {
                let sw = q.scale(j);
                let l1w: f32 = w.row(j).iter().map(|v| v.abs()).sum();
                let bound = (sx / 2.0) * l1w + (sw / 2.0) * l1x + k * sx * sw / 4.0 + 1e-4;
                let err = (exact[(r, j)] - quant[(r, j)]).abs();
                assert!(err <= bound, "err {err} > bound {bound}");
            }
        }
    }
}
