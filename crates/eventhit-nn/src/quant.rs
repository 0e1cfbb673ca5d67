//! Dynamic int8 quantization: the `Quantized` inference lane.
//!
//! Weights are quantized symmetrically per output row at snapshot time
//! (`scale = max|w| / 127`, `q = round(w / scale)` saturated to
//! `[-127, 127]`); at inference time each *activation* row is quantized
//! the same way on the fly, every output is the integer dot of two code
//! rows, and the two scales are applied once per output element.
//!
//! The dot runs on the exact lane's kernel. The weight codes are stored
//! k-major in a packed panel ([`crate::packed`]) as integer-valued
//! `f32`, the activation codes go into an `f32` scratch row, and the
//! panel's tile sweep does the rest. That is exact, not approximately
//! so: every product is an integer of magnitude at most `127²`, and every
//! partial sum of a chain of up to 1040 of them stays below `2^24`
//! (`1040 · 127² = 16 774 160`), where `f32` holds each integer — so the
//! chain equals the `i8 × i8 → i32` accumulation bit for bit. A layer
//! with more inputs than that is swept in blocks of 1040 rows, each block
//! exact, the blocks added in `i32` by the same loop (`2^17` inputs
//! before *that* could overflow). A code therefore costs four bytes, as
//! a weight of the exact lane does: the lane shrinks what a weight can
//! say, not what it occupies.
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
//! construction.

use std::fmt;
use std::str::FromStr;

use crate::matrix::Matrix;
use crate::packed::PackedPanel;

/// Which arithmetic a model's `forward_inference` runs on.
///
/// `Exact` is the trained `f32` path, bit-identical to training forward.
/// `Quantized` scores on int8 codes of the weights and activations
/// (exact integer accumulation, on the same packed kernel) —
/// approximate; pair it with conformal recalibration on quantized scores
/// so marshalling decisions keep their coverage guarantee.
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
    /// Int8 weight and activation codes, exact integer accumulation
    /// (approximate scores).
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
            data.extend(row.iter().map(|&v| code(v * inv)));
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

/// `t.round().clamp(-127.0, 127.0) as i8` without the `libm` call that
/// `round` is on baseline x86-64: truncate, then step away from zero
/// when the fraction left behind (an exact subtraction) is a half or
/// more. NaN becomes `0` either way.
#[inline(always)]
fn code(t: f32) -> i8 {
    let t = t.clamp(-127.0, 127.0);
    let whole = t as i32;
    let frac = t - whole as f32;
    (whole + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)) as i8
}

/// Quantizes one activation row symmetrically into `buf` as
/// integer-valued `f32` codes, returning its scale. Same grid as
/// [`QuantizedMatrix::quantize`]: `scale = max|v| / 127`, saturating
/// round-to-nearest, zero rows get scale `0`. Each code passes through
/// `i8`, so it is the value the integer reference holds whatever `v` is.
#[inline]
fn quantize_row(row: &[f32], buf: &mut Vec<f32>) -> f32 {
    buf.clear();
    let amax = row.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
    if amax == 0.0 {
        buf.extend(std::iter::repeat_n(0.0f32, row.len()));
        return 0.0;
    }
    let inv = 127.0 / amax;
    buf.extend(row.iter().map(|&v| f32::from(code(v * inv))));
    amax / 127.0
}

/// A quantized weight matrix laid out for the panel kernel: its int8
/// codes k-major as integer-valued `f32`, and its row scales.
#[derive(Clone, Debug, PartialEq)]
struct CodePanel {
    codes: PackedPanel,
    scales: Vec<f32>,
}

impl CodePanel {
    fn quantize(w: &Matrix) -> Self {
        let q = QuantizedMatrix::quantize(w);
        CodePanel {
            codes: PackedPanel::from_fn(q.rows, q.cols, |j, k| f32::from(q.row(j)[k])),
            scales: q.scales,
        }
    }

    /// Calls `finish(j, dot(xq, wq_j) · (sx · sw_j), &mut out[j])` for
    /// every output `j`: the exact integer dot of the two code rows,
    /// then both scales at once.
    #[inline(always)]
    fn sweep(&self, xq: &[f32], sx: f32, out: &mut [f32], finish: impl Fn(usize, f32, &mut f32)) {
        let scales = &self.scales;
        self.codes
            .sweep::<true>(xq, out, |j, dot, o| finish(j, dot * (sx * scales[j]), o));
    }
}

/// Exact integer dot of two `i8` rows, accumulated in `i32`: what the
/// panel kernel must reproduce. Correctness needs `a.len() < 2^17` so
/// `127² · len` stays below `i32::MAX`.
#[cfg(test)]
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
/// [`crate::packed::PackedAffine`], on the same kernel. The activation
/// row is quantized on the fly, every output element is one exact
/// integer dot of codes (see the module docs), and the activation and
/// weight scales are applied once at the end. Sequential (and therefore
/// worker-count invariant by construction).
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
    w: CodePanel,
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
            w: CodePanel::quantize(w),
            bias: bias.to_vec(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.codes.in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.codes.out_dim()
    }

    /// `out[j] = dot(xq, wq_j) · (sx · sw_j) + bias[j]`, with `x`
    /// quantized into the reused scratch `xq` first.
    ///
    /// # Panics
    /// Panics if `x` or `out` has the wrong length.
    pub fn forward_into(&self, x: &[f32], xq: &mut Vec<f32>, out: &mut [f32]) {
        let sx = quantize_row(x, xq);
        let bias = &self.bias;
        self.w.sweep(xq, sx, out, |j, p, o| *o = p + bias[j]);
    }
}

/// An int8 fused recurrent gate `out = x Wxq^T + h Whq^T + b`: the
/// quantized counterpart of [`crate::packed::PackedGate`] and the
/// quantized-lane LSTM step kernel. `x` and `h` are each quantized once
/// per step, then both gate products are exact integer dots of codes.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedGate {
    wx: CodePanel,
    wh: CodePanel,
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
            wx: CodePanel::quantize(wx),
            wh: CodePanel::quantize(wh),
            bias: bias.to_vec(),
        }
    }

    /// `out[j] = (px_j + ph_j) + bias[j]`, each product scaled like
    /// [`QuantizedAffine::forward_into`]'s. `xq` / `hq` are reused
    /// scratch. The scaled `x` products round-trip through `out` between
    /// the two sweeps, which is exact.
    ///
    /// # Panics
    /// Panics if `x`, `h` or `out` has the wrong length.
    pub fn forward_into(
        &self,
        x: &[f32],
        h: &[f32],
        xq: &mut Vec<f32>,
        hq: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let sx = quantize_row(x, xq);
        let sh = quantize_row(h, hq);
        let bias = &self.bias;
        self.wx.sweep(xq, sx, out, |_, px, o| *o = px);
        self.wh
            .sweep(hq, sh, out, |j, ph, o| *o = (*o + ph) + bias[j]);
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
    fn code_is_round_clamp_cast() {
        let old = |t: f32| t.round().clamp(-127.0, 127.0) as i8;
        // Every sixteenth from -130 to 130 (all the ties, both sides of
        // the clamp) and the floats next to each, then the specials.
        let mut probes: Vec<f32> = (-130 * 16..=130 * 16)
            .map(|i| i as f32 / 16.0)
            .flat_map(|t| [t, t.next_up(), t.next_down()])
            .collect();
        probes.extend([-0.0, f32::MIN_POSITIVE, 1e-30, -1e-30, 1e9, -1e9]);
        probes.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN, f32::MAX]);
        // 0.49999997 + 0.5 rounds to 1.0 in f32: the add-half shortcut's
        // classic miss, next_down(0.5) above, must stay 0.
        assert_eq!(code(0.5f32.next_down()), 0);
        for t in probes {
            assert_eq!(code(t), old(t), "t = {t:e}");
        }
    }

    /// The integer reference for one activation row: `doti` on
    /// [`QuantizedMatrix`] rows, scales applied in `forward_into`'s order.
    fn reference_products(x: &[f32], w: &Matrix) -> Vec<f32> {
        let xq = QuantizedMatrix::quantize(&Matrix::from_vec(1, x.len(), x.to_vec()));
        let wq = QuantizedMatrix::quantize(w);
        (0..w.rows())
            .map(|j| doti(xq.row(0), wq.row(j)) as f32 * (xq.scale(0) * wq.scale(j)))
            .collect()
    }

    fn assert_same_bits(got: &[f32], want: impl Iterator<Item = f32>, what: &str) {
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}, output {j}");
        }
    }

    #[test]
    fn panel_kernel_equals_the_integer_reference_bit_for_bit() {
        // Every tile shape (32 / 8 / 1 and their mixes) against every
        // depth class: one row, short, the model's own widths, the last
        // depth one f32 chain holds exactly (1040), the first that needs
        // two blocks (1041), and three blocks (2500).
        const OUTS: [usize; 6] = [1, 31, 32, 33, 192, 201];
        const DEPTHS: [usize; 8] = [1, 5, 37, 48, 257, 1040, 1041, 2500];
        let sign = |i: usize| if i.is_multiple_of(3) { -0.75f32 } else { 0.75 };
        let (mut xq, mut hq) = (Vec::new(), Vec::new());
        for (seed, (out, k)) in (0u64..).zip(OUTS.iter().flat_map(|&o| DEPTHS.map(|k| (o, k)))) {
            let bias: Vec<f32> = (0..out).map(|j| (j as f32).sin()).collect();
            // A narrow random panel for the gate's input side.
            let (x2, w2) = (sample(1, 7, 300 + seed), sample(out, 7, 400 + seed));
            let want2 = reference_products(x2.row(0), &w2);
            // Random operands, then the saturated worst case: every code
            // +-127, first all of one sign (the partial sums climb to
            // k * 127^2), then with signs mixed.
            let cases = [
                (sample(1, k, 100 + seed), sample(out, k, 200 + seed)),
                (Matrix::filled(1, k, 0.75), Matrix::filled(out, k, -0.75)),
                (
                    Matrix::from_vec(1, k, (0..k).map(sign).collect()),
                    Matrix::from_vec(out, k, (0..out * k).map(|i| sign(i + i / k)).collect()),
                ),
            ];
            for (c, (x, w)) in cases.iter().enumerate() {
                let what = format!("{out}x{k} case {c}");
                let want = reference_products(x.row(0), w);
                let mut got = vec![f32::NAN; out];
                QuantizedAffine::quantize(w, &bias).forward_into(x.row(0), &mut xq, &mut got);
                let affine = want.iter().zip(&bias).map(|(p, b)| p + b);
                assert_same_bits(&got, affine, &format!("affine {what}"));
                // The gate, with this panel on the recurrent side.
                got.fill(f32::NAN);
                QuantizedGate::quantize(&w2, w, &bias).forward_into(
                    x2.row(0),
                    x.row(0),
                    &mut xq,
                    &mut hq,
                    &mut got,
                );
                let gate = want2.iter().zip(&want).zip(&bias);
                let gate = gate.map(|((px, ph), b)| (px + ph) + b);
                assert_same_bits(&got, gate, &format!("gate {what}"));
            }
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
