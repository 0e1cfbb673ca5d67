//! GRU layer with full backpropagation through time.
//!
//! An alternative recurrent encoder to [`crate::lstm::Lstm`] used by the
//! encoder-choice ablation: the paper picks an LSTM (§III) but any sequence
//! encoder fits the architecture. Gates follow Cho et al. (2014):
//!
//! ```text
//! r_t = σ(W_r x_t + U_r h_{t-1} + b_r)          (reset)
//! z_t = σ(W_z x_t + U_z h_{t-1} + b_z)          (update)
//! n_t = tanh(W_n x_t + r_t ⊙ (U_n h_{t-1} + b_nh) + b_nx)  (candidate)
//! h_t = (1 - z_t) ⊙ n_t + z_t ⊙ h_{t-1}
//! ```
//!
//! Fused weights are laid out `[r | z | n]` along the rows.

use eventhit_rng::Rng;

use crate::activation::{sigmoid, tanh};
use crate::cell::{gru_cell, CellState};
use crate::init::Init;
use crate::matrix::Matrix;
use crate::optimizer::ParamMut;
use crate::packed::PackedAffine;
use crate::quant::QuantizedAffine;

/// Per-timestep forward cache needed by BPTT.
#[derive(Clone)]
struct StepCache {
    x: Matrix,
    h_prev: Matrix,
    r: Matrix,
    z: Matrix,
    n: Matrix,
    /// `U_n h_{t-1} + b_nh` before the reset gate is applied.
    hn_pre: Matrix,
}

/// A GRU layer processing sequences of feature vectors.
#[derive(Clone)]
pub struct Gru {
    input_dim: usize,
    hidden_dim: usize,
    wx: Matrix,
    wh: Matrix,
    bx: Matrix,
    bh: Matrix,
    dwx: Matrix,
    dwh: Matrix,
    dbx: Matrix,
    dbh: Matrix,
    cache: Vec<StepCache>,
}

impl Gru {
    /// Creates a GRU with `input_dim` features per step and `hidden_dim`
    /// hidden units.
    pub fn new<R: Rng + ?Sized>(input_dim: usize, hidden_dim: usize, rng: &mut R) -> Self {
        Gru {
            input_dim,
            hidden_dim,
            wx: Init::XavierUniform.matrix(3 * hidden_dim, input_dim, rng),
            wh: Init::XavierUniform.matrix(3 * hidden_dim, hidden_dim, rng),
            bx: Matrix::zeros(1, 3 * hidden_dim),
            bh: Matrix::zeros(1, 3 * hidden_dim),
            dwx: Matrix::zeros(3 * hidden_dim, input_dim),
            dwh: Matrix::zeros(3 * hidden_dim, hidden_dim),
            dbx: Matrix::zeros(1, 3 * hidden_dim),
            dbh: Matrix::zeros(1, 3 * hidden_dim),
            cache: Vec::new(),
        }
    }

    /// Input dimensionality per timestep.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.wx.len() + self.wh.len() + self.bx.len() + self.bh.len()
    }

    /// Runs the GRU over a sequence, caching for BPTT; returns the final
    /// hidden state.
    pub fn forward(&mut self, xs: &[Matrix]) -> Matrix {
        assert!(!xs.is_empty(), "GRU requires at least one timestep");
        let batch = xs[0].rows();
        let hd = self.hidden_dim;
        self.cache.clear();
        let mut h = Matrix::zeros(batch, hd);
        let affines = self.affines();

        for x in xs {
            let (r, z, n, hn_pre, h_new) = self.step(&affines, x, &h);
            self.cache.push(StepCache {
                x: x.clone(),
                h_prev: h,
                r,
                z,
                n,
                hn_pre,
            });
            h = h_new;
        }
        h
    }

    /// Inference-only forward (no caching). Pure `&self`, so a trained
    /// layer can be shared across threads for parallel inference; the
    /// step arithmetic is shared with [`Gru::forward`], so the two are
    /// bit-identical.
    pub fn forward_inference(&self, xs: &[Matrix]) -> Matrix {
        assert!(!xs.is_empty(), "GRU requires at least one timestep");
        let batch = xs[0].rows();
        let mut h = Matrix::zeros(batch, self.hidden_dim);
        let affines = self.affines();
        for x in xs {
            h = self.step(&affines, x, &h).4;
        }
        h
    }

    /// Both `[r|z|n]` affine maps packed k-major, input side first: what
    /// a forward steps every timestep through, and what [`Gru::packed`]
    /// serves.
    fn affines(&self) -> (PackedAffine, PackedAffine) {
        (
            PackedAffine::pack(&self.wx, self.bx.as_slice()),
            PackedAffine::pack(&self.wh, self.bh.as_slice()),
        )
    }

    /// One timestep of gate arithmetic on the forward's packed
    /// `(px, ph)`: returns `(r, z, n, hn_pre, h_new)`.
    #[allow(clippy::type_complexity)]
    fn step(
        &self,
        (px, ph): &(PackedAffine, PackedAffine),
        x: &Matrix,
        h: &Matrix,
    ) -> (Matrix, Matrix, Matrix, Matrix, Matrix) {
        let hd = self.hidden_dim;
        assert_eq!(x.cols(), self.input_dim, "GRU input dim mismatch");
        // One fused affine pass per operand over the concatenated [r|z|n]
        // gate weights (px and ph stay separate: the n gate needs ph's
        // block before the reset product), bit-identical to matmul_t +
        // add_row_broadcast.
        let px = px.forward_rows(x);
        let ph = ph.forward_rows(h);

        let mut r_pre = px.col_block(0, hd);
        r_pre.add_assign(&ph.col_block(0, hd));
        let r = r_pre.map(sigmoid);

        let mut z_pre = px.col_block(hd, hd);
        z_pre.add_assign(&ph.col_block(hd, hd));
        let z = z_pre.map(sigmoid);

        let hn_pre = ph.col_block(2 * hd, hd);
        let mut n_pre = px.col_block(2 * hd, hd);
        n_pre.add_assign(&r.hadamard(&hn_pre));
        let n = n_pre.map(tanh);

        // h_new = (1 - z) ⊙ n + z ⊙ h_prev
        let mut h_new = z.map(|v| 1.0 - v).hadamard(&n);
        h_new.add_assign(&z.hadamard(h));
        (r, z, n, hn_pre, h_new)
    }

    /// BPTT from the gradient of the loss w.r.t. the final hidden state;
    /// returns per-step input gradients.
    pub fn backward_last(&mut self, dh_last: &Matrix) -> Vec<Matrix> {
        assert!(!self.cache.is_empty(), "Gru::backward_last before forward");
        let hd = self.hidden_dim;
        let batch = self.cache[0].x.rows();
        let mut dh = dh_last.clone();
        let mut dxs = vec![Matrix::zeros(0, 0); self.cache.len()];

        for t in (0..self.cache.len()).rev() {
            let step = &self.cache[t];

            // h = (1-z) ⊙ n + z ⊙ h_prev
            let dn = dh.hadamard(&step.z.map(|v| 1.0 - v));
            let mut dz = dh.hadamard(&step.h_prev);
            dz.add_scaled(&dh.hadamard(&step.n), -1.0);
            let mut dh_prev = dh.hadamard(&step.z);

            // n = tanh(n_pre)
            let dn_pre = dn.hadamard(&step.n.map(|v| 1.0 - v * v));
            // n_pre = px_n + r ⊙ hn_pre
            let dr = dn_pre.hadamard(&step.hn_pre);
            let dhn_pre = dn_pre.hadamard(&step.r);

            let dr_pre = dr.hadamard(&step.r.map(|s| s * (1.0 - s)));
            let dz_pre = dz.hadamard(&step.z.map(|s| s * (1.0 - s)));

            // Assemble fused gradients: px gets [r|z|n] pre-gradients; ph
            // gets [r|z] pre-gradients plus dhn_pre on the n block.
            let mut dpx = Matrix::zeros(batch, 3 * hd);
            dpx.set_col_block(0, &dr_pre);
            dpx.set_col_block(hd, &dz_pre);
            dpx.set_col_block(2 * hd, &dn_pre);
            let mut dph = Matrix::zeros(batch, 3 * hd);
            dph.set_col_block(0, &dr_pre);
            dph.set_col_block(hd, &dz_pre);
            dph.set_col_block(2 * hd, &dhn_pre);

            self.dwx.add_assign(&dpx.t_matmul(&step.x));
            self.dwh.add_assign(&dph.t_matmul(&step.h_prev));
            for (g, &v) in self.dbx.as_mut_slice().iter_mut().zip(&dpx.sum_rows()) {
                *g += v;
            }
            for (g, &v) in self.dbh.as_mut_slice().iter_mut().zip(&dph.sum_rows()) {
                *g += v;
            }

            dxs[t] = dpx.matmul(&self.wx);
            dh_prev.add_assign(&dph.matmul(&self.wh));
            dh = dh_prev;
        }
        dxs
    }

    /// Compiles the layer for exact-lane inference: both `[r|z|n]`
    /// weight blocks repacked `[k][out]` once (see [`crate::packed`]).
    /// The result is immutable, carries no gradients or caches, and
    /// stepping it is bit-identical to [`Gru::forward_inference`].
    pub fn packed(&self) -> PackedGru {
        let (px, ph) = self.affines();
        PackedGru {
            input_dim: self.input_dim,
            hidden_dim: self.hidden_dim,
            px,
            ph,
        }
    }

    /// Snapshots the layer onto the int8 lane (see
    /// [`crate::quant::InferenceLane`]). Gate weights are quantized once;
    /// the returned layer is immutable.
    pub fn quantized(&self) -> QuantizedGru {
        QuantizedGru {
            input_dim: self.input_dim,
            hidden_dim: self.hidden_dim,
            px: QuantizedAffine::quantize(&self.wx, self.bx.as_slice()),
            ph: QuantizedAffine::quantize(&self.wh, self.bh.as_slice()),
        }
    }

    /// Drops the BPTT cache (every step of the last forward batch). The
    /// next [`Gru::forward`] refills it.
    pub fn clear_cache(&mut self) {
        self.cache = Vec::new();
    }

    /// Values the BPTT cache holds (`0` after [`Gru::clear_cache`]).
    pub fn cache_len(&self) -> usize {
        self.cache
            .iter()
            .flat_map(|s| [&s.x, &s.h_prev, &s.r, &s.z, &s.n, &s.hn_pre])
            .map(Matrix::len)
            .sum()
    }

    /// Zeros the accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.dwx.fill_zero();
        self.dwh.fill_zero();
        self.dbx.fill_zero();
        self.dbh.fill_zero();
    }

    /// The parameters alone, read-only, in [`Gru::params_mut`]'s order.
    pub fn params(&self) -> [&Matrix; 4] {
        [&self.wx, &self.wh, &self.bx, &self.bh]
    }

    /// Yields `(parameter, gradient)` pairs for the optimizer.
    pub fn params_mut(&mut self) -> Vec<ParamMut<'_>> {
        vec![
            ParamMut {
                value: &mut self.wx,
                grad: &self.dwx,
            },
            ParamMut {
                value: &mut self.wh,
                grad: &self.dwh,
            },
            ParamMut {
                value: &mut self.bx,
                grad: &self.dbx,
            },
            ParamMut {
                value: &mut self.bh,
                grad: &self.dbh,
            },
        ]
    }
}

/// A [`Gru`] compiled for exact-lane inference: one sequence at a time,
/// stepped in place through a [`CellState`], over k-major packed weights.
#[derive(Clone)]
pub struct PackedGru {
    input_dim: usize,
    hidden_dim: usize,
    px: PackedAffine,
    ph: PackedAffine,
}

impl PackedGru {
    /// Input dimensionality per timestep.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Advances `state` by one timestep on input `x`; allocates nothing.
    ///
    /// # Panics
    /// Panics if `x` is not `input_dim` long or `state` was sized for
    /// another hidden dimension.
    pub fn step(&self, x: &[f32], state: &mut CellState) {
        let px = &mut state.pre[..3 * self.hidden_dim];
        self.px.forward_into(x, px);
        self.ph.forward_into(&state.h, &mut state.ph);
        gru_cell(px, &state.ph, &mut state.h);
    }
}

/// An int8 snapshot of a [`Gru`]: the quantized inference lane. Same
/// cell arithmetic and the same panel kernel as [`PackedGru`], but the
/// `[r|z|n]` affine passes are exact integer dots of int8 codes.
#[derive(Clone)]
pub struct QuantizedGru {
    input_dim: usize,
    hidden_dim: usize,
    px: QuantizedAffine,
    ph: QuantizedAffine,
}

impl QuantizedGru {
    /// Input dimensionality per timestep.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Advances `state` by one timestep on input `x`. Sequential, so
    /// results are bit-identical across worker counts; allocates nothing
    /// once `state`'s quantization buffers have grown.
    ///
    /// # Panics
    /// Panics if `x` is not `input_dim` long or `state` was sized for
    /// another hidden dimension.
    pub fn step(&self, x: &[f32], state: &mut CellState) {
        let px = &mut state.pre[..3 * self.hidden_dim];
        self.px.forward_into(x, &mut state.xq, px);
        self.ph.forward_into(&state.h, &mut state.hq, &mut state.ph);
        gru_cell(px, &state.ph, &mut state.h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::final_hidden;
    use crate::gradcheck::check_gradients;
    use eventhit_rng::rngs::StdRng;
    use eventhit_rng::SeedableRng;

    fn seq(t: usize, batch: usize, dim: usize, seed: u64) -> Vec<Matrix> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..t)
            .map(|_| Matrix::uniform(batch, dim, -1.0, 1.0, &mut rng))
            .collect()
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut gru = Gru::new(3, 5, &mut rng);
        let xs = seq(7, 4, 3, 1);
        let h = gru.forward(&xs);
        assert_eq!(h.shape(), (4, 5));
        // h is a convex combination of tanh outputs: |h| <= 1.
        assert!(h.as_slice().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn inference_matches_training_forward() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut gru = Gru::new(2, 4, &mut rng);
        let xs = seq(5, 3, 2, 2);
        assert_eq!(gru.forward(&xs), gru.forward_inference(&xs));
    }

    #[test]
    fn packed_steps_are_bit_identical_to_inference_forward() {
        let mut rng = StdRng::seed_from_u64(22);
        // 3 * 13 = 39 gate outputs: a full tile and seven single outputs.
        let gru = Gru::new(4, 13, &mut rng);
        let xs = seq(7, 3, 4, 23);
        let exact = gru.forward_inference(&xs);
        let packed = gru.packed();
        for r in 0..3 {
            let h = final_hidden(&xs, r, 13, |x, st| packed.step(x, st));
            assert_eq!(h, exact.row(r), "row {r}");
        }
    }

    #[test]
    fn quantized_forward_tracks_exact_forward() {
        let mut rng = StdRng::seed_from_u64(20);
        let gru = Gru::new(3, 6, &mut rng);
        let xs = seq(8, 3, 3, 21);
        let exact = gru.forward_inference(&xs);
        let quant = gru.quantized();
        for r in 0..3 {
            let h = final_hidden(&xs, r, 6, |x, st| quant.step(x, st));
            for (a, b) in exact.row(r).iter().zip(&h) {
                assert!((a - b).abs() < 0.05, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn clear_cache_drops_the_last_batch_and_forward_refills_it() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut gru = Gru::new(3, 4, &mut rng);
        let xs = seq(5, 2, 3, 25);
        let h = gru.forward(&xs);
        // Per step: x (2x3) + five 2x4 matrices.
        assert_eq!(gru.cache_len(), 5 * (6 + 5 * 8));
        gru.clear_cache();
        assert_eq!(gru.cache_len(), 0);
        assert_eq!(gru.forward_inference(&xs), h);
        gru.forward(&xs);
        assert_eq!(gru.backward_last(&h).len(), 5);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut gru = Gru::new(3, 4, &mut rng);
        let xs = seq(5, 2, 3, 4);
        let loss_fn = |g: &mut Gru| {
            let h = g.forward(&xs);
            0.5 * h.as_slice().iter().map(|&v| v * v).sum::<f32>()
        };
        let grad_fn = |g: &mut Gru| {
            g.zero_grad();
            let h = g.forward(&xs);
            g.backward_last(&h);
        };
        let err = check_gradients(&mut gru, loss_fn, grad_fn, |g| g.params_mut(), 1e-2);
        assert!(err < 3e-2, "max rel err {err}");
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut gru = Gru::new(2, 3, &mut rng);
        let mut xs = seq(4, 1, 2, 6);
        gru.zero_grad();
        let h = gru.forward(&xs);
        let dxs = gru.backward_last(&h);

        let eps = 1e-2f32;
        for t in 0..xs.len() {
            for e in 0..xs[t].len() {
                let orig = xs[t].as_slice()[e];
                xs[t].as_mut_slice()[e] = orig + eps;
                let lp = {
                    let h = gru.forward_inference(&xs);
                    0.5 * h.as_slice().iter().map(|&v| v * v).sum::<f32>()
                };
                xs[t].as_mut_slice()[e] = orig - eps;
                let lm = {
                    let h = gru.forward_inference(&xs);
                    0.5 * h.as_slice().iter().map(|&v| v * v).sum::<f32>()
                };
                xs[t].as_mut_slice()[e] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = dxs[t].as_slice()[e];
                let denom = numeric.abs().max(analytic.abs()).max(1e-2);
                assert!(
                    (numeric - analytic).abs() / denom < 3e-2,
                    "t={t} e={e}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(7);
        let gru = Gru::new(4, 6, &mut rng);
        // wx: 18x4, wh: 18x6, bx: 18, bh: 18.
        assert_eq!(gru.param_count(), 72 + 108 + 18 + 18);
    }

    #[test]
    fn learns_to_remember_first_token() {
        use crate::activation::Activation;
        use crate::dense::Dense;
        use crate::optimizer::{Adam, Optimizer};
        let mut rng = StdRng::seed_from_u64(8);
        let mut gru = Gru::new(1, 8, &mut rng);
        let mut readout = Dense::new(8, 1, Activation::Linear, Init::XavierUniform, &mut rng);
        let mut opt = Adam::new(0.02);

        let mut last_loss = f32::MAX;
        for epoch in 0..200 {
            let batch = 16;
            let t = 6;
            let first: Vec<f32> = (0..batch)
                .map(|_| if rng.random::<f32>() < 0.5 { 1.0 } else { -1.0 })
                .collect();
            let mut xs = Vec::new();
            for step in 0..t {
                let data: Vec<f32> = (0..batch)
                    .map(|bi| {
                        if step == 0 {
                            first[bi]
                        } else {
                            rng.random_range(-0.1..0.1)
                        }
                    })
                    .collect();
                xs.push(Matrix::from_vec(batch, 1, data));
            }
            let y = Matrix::from_vec(batch, 1, first);

            gru.zero_grad();
            readout.zero_grad();
            let h = gru.forward(&xs);
            let pred = readout.forward(&h);
            let mut diff = pred.clone();
            diff.add_scaled(&y, -1.0);
            let loss = diff.as_slice().iter().map(|&d| d * d).sum::<f32>() / batch as f32;
            let mut dpred = diff;
            dpred.scale(2.0 / batch as f32);
            let dh = readout.backward(&dpred);
            gru.backward_last(&dh);
            let mut params = gru.params_mut();
            params.extend(readout.params_mut());
            opt.step(&mut params);
            if epoch >= 195 {
                last_loss = loss;
            }
        }
        assert!(
            last_loss < 0.15,
            "GRU failed to learn memory task: loss={last_loss}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one timestep")]
    fn rejects_empty_sequence() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut gru = Gru::new(2, 3, &mut rng);
        let _ = gru.forward(&[]);
    }
}
