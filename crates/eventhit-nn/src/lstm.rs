//! LSTM layer with full backpropagation through time (BPTT).
//!
//! The four gates (input `i`, forget `f`, cell candidate `g`, output `o`)
//! share fused weight matrices `wx: 4H x D` and `wh: 4H x H`, laid out in
//! gate order `[i | f | g | o]` along the rows. The forget-gate bias is
//! initialized to 1.0, the standard trick that lets gradients flow through
//! long sequences early in training.

use eventhit_rng::Rng;

use crate::activation::{sigmoid, tanh};
use crate::cell::{lstm_cell, CellState};
use crate::init::Init;
use crate::matrix::Matrix;
use crate::optimizer::ParamMut;
use crate::packed::PackedGate;
use crate::quant::QuantizedGate;

/// Per-timestep forward cache needed by BPTT.
#[derive(Clone)]
struct StepCache {
    x: Matrix,
    h_prev: Matrix,
    c_prev: Matrix,
    i: Matrix,
    f: Matrix,
    g: Matrix,
    o: Matrix,
    tanh_c: Matrix,
}

/// An LSTM layer processing sequences of feature vectors.
#[derive(Clone)]
pub struct Lstm {
    input_dim: usize,
    hidden_dim: usize,
    wx: Matrix,
    wh: Matrix,
    b: Matrix,
    dwx: Matrix,
    dwh: Matrix,
    db: Matrix,
    cache: Vec<StepCache>,
}

impl Lstm {
    /// Creates an LSTM with `input_dim` features per step and `hidden_dim`
    /// hidden units.
    pub fn new<R: Rng + ?Sized>(input_dim: usize, hidden_dim: usize, rng: &mut R) -> Self {
        let wx = Init::XavierUniform.matrix(4 * hidden_dim, input_dim, rng);
        let wh = Init::XavierUniform.matrix(4 * hidden_dim, hidden_dim, rng);
        let mut b = Matrix::zeros(1, 4 * hidden_dim);
        // Forget gate bias = 1.
        for j in hidden_dim..2 * hidden_dim {
            b[(0, j)] = 1.0;
        }
        Lstm {
            input_dim,
            hidden_dim,
            wx,
            wh,
            b,
            dwx: Matrix::zeros(4 * hidden_dim, input_dim),
            dwh: Matrix::zeros(4 * hidden_dim, hidden_dim),
            db: Matrix::zeros(1, 4 * hidden_dim),
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
        self.wx.len() + self.wh.len() + self.b.len()
    }

    /// Runs the LSTM over a sequence (`xs[t]: batch x input_dim`), caching
    /// intermediates for BPTT, and returns the final hidden state
    /// (`batch x hidden_dim`).
    pub fn forward(&mut self, xs: &[Matrix]) -> Matrix {
        assert!(!xs.is_empty(), "LSTM requires at least one timestep");
        let batch = xs[0].rows();
        let hd = self.hidden_dim;
        self.cache.clear();

        let mut h = Matrix::zeros(batch, hd);
        let mut c = Matrix::zeros(batch, hd);
        let gate = self.gate();

        for x in xs {
            let (i, f, g, o, c_new) = self.step(&gate, x, &h, &c, batch);
            let tanh_c = c_new.map(tanh);
            let h_new = o.hadamard(&tanh_c);
            self.cache.push(StepCache {
                x: x.clone(),
                h_prev: h,
                c_prev: c,
                i,
                f,
                g,
                o,
                tanh_c,
            });
            h = h_new;
            c = c_new;
        }
        h
    }

    /// Runs the LSTM without caching. Pure `&self`, so a trained layer
    /// can be shared across threads for parallel inference; the step
    /// arithmetic is shared with [`Lstm::forward`], so the two are
    /// bit-identical.
    pub fn forward_inference(&self, xs: &[Matrix]) -> Matrix {
        assert!(!xs.is_empty(), "LSTM requires at least one timestep");
        let batch = xs[0].rows();
        let hd = self.hidden_dim;

        let mut h = Matrix::zeros(batch, hd);
        let mut c = Matrix::zeros(batch, hd);
        let gate = self.gate();

        for x in xs {
            let (_, _, _, o, c_new) = self.step(&gate, x, &h, &c, batch);
            let tanh_c = c_new.map(tanh);
            h = o.hadamard(&tanh_c);
            c = c_new;
        }
        h
    }

    /// The `[i|f|g|o]` gate weights packed k-major: what a forward steps
    /// every timestep through, and what [`Lstm::packed`] serves.
    fn gate(&self) -> PackedGate {
        PackedGate::pack(&self.wx, &self.wh, self.b.as_slice())
    }

    /// One timestep of gate arithmetic on the forward's packed `gate`:
    /// returns `(i, f, g, o, c_new)`.
    #[allow(clippy::type_complexity)]
    fn step(
        &self,
        gate: &PackedGate,
        x: &Matrix,
        h: &Matrix,
        c: &Matrix,
        batch: usize,
    ) -> (Matrix, Matrix, Matrix, Matrix, Matrix) {
        let hd = self.hidden_dim;
        assert_eq!(x.cols(), self.input_dim, "LSTM input dim mismatch");
        assert_eq!(x.rows(), batch, "LSTM batch size changed mid-sequence");
        // Single fused pass over the concatenated [i|f|g|o] gate weights,
        // bit-identical to matmul_t + add_assign + add_row_broadcast.
        let pre = gate.forward_rows(x, h);

        let i = pre.col_block(0, hd).map(sigmoid);
        let f = pre.col_block(hd, hd).map(sigmoid);
        let g = pre.col_block(2 * hd, hd).map(tanh);
        let o = pre.col_block(3 * hd, hd).map(sigmoid);

        let mut c_new = f.hadamard(c);
        c_new.add_assign(&i.hadamard(&g));
        (i, f, g, o, c_new)
    }

    /// BPTT given the gradient of the loss w.r.t. the *final* hidden state.
    ///
    /// Accumulates weight gradients and returns per-step input gradients
    /// (`dxs[t]: batch x input_dim`).
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward_last(&mut self, dh_last: &Matrix) -> Vec<Matrix> {
        assert!(!self.cache.is_empty(), "Lstm::backward_last before forward");
        let t_len = self.cache.len();
        let mut dhs = vec![None; t_len];
        dhs[t_len - 1] = Some(dh_last.clone());
        self.backward(&dhs)
    }

    /// General BPTT with an optional output gradient per timestep.
    pub fn backward(&mut self, dhs: &[Option<Matrix>]) -> Vec<Matrix> {
        assert_eq!(
            dhs.len(),
            self.cache.len(),
            "dhs length must match sequence length"
        );
        let hd = self.hidden_dim;
        let batch = self.cache[0].x.rows();

        let mut dh_next = Matrix::zeros(batch, hd);
        let mut dc_next = Matrix::zeros(batch, hd);
        let mut dxs = vec![Matrix::zeros(0, 0); self.cache.len()];

        for t in (0..self.cache.len()).rev() {
            let step = &self.cache[t];
            let mut dh = dh_next;
            if let Some(extra) = &dhs[t] {
                dh.add_assign(extra);
            }

            // h = o ⊙ tanh(c), so dc = dh ⊙ o ⊙ (1 - tanh(c)^2) + dc_next.
            let do_gate = dh.hadamard(&step.tanh_c);
            let one_minus_t2 = step.tanh_c.map(|t| 1.0 - t * t);
            let mut dc = dh.hadamard(&step.o).hadamard(&one_minus_t2);
            dc.add_assign(&dc_next);

            // c = f ⊙ c_prev + i ⊙ g
            let di = dc.hadamard(&step.g);
            let df = dc.hadamard(&step.c_prev);
            let dg = dc.hadamard(&step.i);
            let dc_prev = dc.hadamard(&step.f);

            // Pre-activation gradients.
            let dpre_i = di.hadamard(&step.i.map(|s| s * (1.0 - s)));
            let dpre_f = df.hadamard(&step.f.map(|s| s * (1.0 - s)));
            let dpre_g = dg.hadamard(&step.g.map(|t| 1.0 - t * t));
            let dpre_o = do_gate.hadamard(&step.o.map(|s| s * (1.0 - s)));

            let mut dpre = Matrix::zeros(batch, 4 * hd);
            dpre.set_col_block(0, &dpre_i);
            dpre.set_col_block(hd, &dpre_f);
            dpre.set_col_block(2 * hd, &dpre_g);
            dpre.set_col_block(3 * hd, &dpre_o);

            // Accumulate weight gradients.
            self.dwx.add_assign(&dpre.t_matmul(&step.x));
            self.dwh.add_assign(&dpre.t_matmul(&step.h_prev));
            let db = dpre.sum_rows();
            for (g, &v) in self.db.as_mut_slice().iter_mut().zip(&db) {
                *g += v;
            }

            dxs[t] = dpre.matmul(&self.wx);
            dh_next = dpre.matmul(&self.wh);
            dc_next = dc_prev;
        }
        dxs
    }

    /// Compiles the layer for exact-lane inference: gate weights
    /// repacked `[k][out]` once (see [`crate::packed`]). The result is
    /// immutable, carries no gradients or caches, and stepping it is
    /// bit-identical to [`Lstm::forward_inference`].
    pub fn packed(&self) -> PackedLstm {
        PackedLstm {
            input_dim: self.input_dim,
            hidden_dim: self.hidden_dim,
            gate: self.gate(),
        }
    }

    /// Snapshots the layer onto the int8 lane (see
    /// [`crate::quant::InferenceLane`]). Gate weights are quantized once;
    /// the returned layer is immutable.
    pub fn quantized(&self) -> QuantizedLstm {
        QuantizedLstm {
            input_dim: self.input_dim,
            hidden_dim: self.hidden_dim,
            gate: QuantizedGate::quantize(&self.wx, &self.wh, self.b.as_slice()),
        }
    }

    /// Drops the BPTT cache (every step of the last forward batch). The
    /// next [`Lstm::forward`] refills it.
    pub fn clear_cache(&mut self) {
        self.cache = Vec::new();
    }

    /// Values the BPTT cache holds (`0` after [`Lstm::clear_cache`]).
    pub fn cache_len(&self) -> usize {
        self.cache
            .iter()
            .flat_map(|s| {
                [
                    &s.x, &s.h_prev, &s.c_prev, &s.i, &s.f, &s.g, &s.o, &s.tanh_c,
                ]
            })
            .map(Matrix::len)
            .sum()
    }

    /// Zeros the accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.dwx.fill_zero();
        self.dwh.fill_zero();
        self.db.fill_zero();
    }

    /// The parameters alone, read-only, in [`Lstm::params_mut`]'s order.
    pub fn params(&self) -> [&Matrix; 3] {
        [&self.wx, &self.wh, &self.b]
    }

    /// Yields `(parameter, gradient)` pairs for the optimizer, in a stable
    /// order.
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
                value: &mut self.b,
                grad: &self.db,
            },
        ]
    }
}

/// An [`Lstm`] compiled for exact-lane inference: one sequence at a
/// time, stepped in place through a [`CellState`], over k-major packed
/// gate weights.
#[derive(Clone)]
pub struct PackedLstm {
    input_dim: usize,
    hidden_dim: usize,
    gate: PackedGate,
}

impl PackedLstm {
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
        let pre = &mut state.pre[..4 * self.hidden_dim];
        self.gate.forward_into(x, &state.h, pre);
        lstm_cell(pre, &mut state.h, &mut state.c);
    }
}

/// An int8 snapshot of an [`Lstm`]: the quantized inference lane. Same
/// cell arithmetic and the same panel kernel as [`PackedLstm`], but the
/// fused gate products are exact integer dots of int8 codes.
#[derive(Clone)]
pub struct QuantizedLstm {
    input_dim: usize,
    hidden_dim: usize,
    gate: QuantizedGate,
}

impl QuantizedLstm {
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
        let pre = &mut state.pre[..4 * self.hidden_dim];
        self.gate
            .forward_into(x, &state.h, &mut state.xq, &mut state.hq, pre);
        lstm_cell(pre, &mut state.h, &mut state.c);
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
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lstm = Lstm::new(3, 5, &mut rng);
        let xs = seq(7, 4, 3, 1);
        let h = lstm.forward(&xs);
        assert_eq!(h.shape(), (4, 5));
        assert!(h.all_finite());
    }

    #[test]
    fn hidden_state_is_bounded() {
        // h = o ⊙ tanh(c) with o in (0,1) implies |h| < 1.
        let mut rng = StdRng::seed_from_u64(1);
        let mut lstm = Lstm::new(2, 4, &mut rng);
        let xs = seq(20, 3, 2, 2);
        let h = lstm.forward(&xs);
        assert!(h.as_slice().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn forward_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let xs = seq(5, 2, 2, 4);
        let a = lstm.forward(&xs);
        let b = lstm.forward(&xs);
        assert_eq!(a, b);
    }

    #[test]
    fn inference_matches_training_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut lstm = Lstm::new(3, 4, &mut rng);
        let xs = seq(6, 2, 3, 6);
        let a = lstm.forward(&xs);
        let b = lstm.forward_inference(&xs);
        assert_eq!(a, b);
    }

    #[test]
    fn packed_steps_are_bit_identical_to_inference_forward() {
        let mut rng = StdRng::seed_from_u64(23);
        // 4 * 9 = 36 gate outputs: a full tile, a sub-tile... and none
        // left over; 4 * 11 = 44 adds single outputs.
        for hd in [9, 11] {
            let lstm = Lstm::new(5, hd, &mut rng);
            let xs = seq(7, 3, 5, 24);
            let exact = lstm.forward_inference(&xs);
            let packed = lstm.packed();
            for r in 0..3 {
                let h = final_hidden(&xs, r, hd, |x, st| packed.step(x, st));
                assert_eq!(h, exact.row(r), "hidden {hd} row {r}");
            }
        }
    }

    #[test]
    fn quantized_forward_tracks_exact_forward() {
        let mut rng = StdRng::seed_from_u64(21);
        let lstm = Lstm::new(4, 6, &mut rng);
        let xs = seq(8, 3, 4, 22);
        let exact = lstm.forward_inference(&xs);
        let quant = lstm.quantized();
        for r in 0..3 {
            let h = final_hidden(&xs, r, 6, |x, st| quant.step(x, st));
            for (a, b) in exact.row(r).iter().zip(&h) {
                // Gates squash to (0,1)/(-1,1); per-step pre-activation
                // error is sub-1% so the recurrences stay close.
                assert!((a - b).abs() < 0.05, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn clear_cache_drops_the_last_batch_and_forward_refills_it() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut lstm = Lstm::new(3, 4, &mut rng);
        let xs = seq(5, 2, 3, 26);
        let h = lstm.forward(&xs);
        // Per step: x (2x3) + seven 2x4 matrices.
        assert_eq!(lstm.cache_len(), 5 * (6 + 7 * 8));
        lstm.clear_cache();
        assert_eq!(lstm.cache_len(), 0);
        assert_eq!(lstm.forward_inference(&xs), h);
        lstm.forward(&xs);
        assert_eq!(lstm.backward_last(&h).len(), 5);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut lstm = Lstm::new(3, 4, &mut rng);
        let xs = seq(5, 2, 3, 8);
        let loss_fn = |l: &mut Lstm| {
            let h = l.forward(&xs);
            0.5 * h.as_slice().iter().map(|&v| v * v).sum::<f32>()
        };
        let grad_fn = |l: &mut Lstm| {
            l.zero_grad();
            let h = l.forward(&xs);
            l.backward_last(&h);
        };
        let err = check_gradients(&mut lstm, loss_fn, grad_fn, |l| l.params_mut(), 1e-2);
        assert!(err < 3e-2, "max rel err {err}");
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let mut xs = seq(4, 1, 2, 10);

        lstm.zero_grad();
        let h = lstm.forward(&xs);
        let dxs = lstm.backward_last(&h);

        let eps = 1e-2f32;
        for t in 0..xs.len() {
            for e in 0..xs[t].len() {
                let orig = xs[t].as_slice()[e];
                xs[t].as_mut_slice()[e] = orig + eps;
                let hp = lstm.forward_inference(&xs);
                let lp = 0.5 * hp.as_slice().iter().map(|&v| v * v).sum::<f32>();
                xs[t].as_mut_slice()[e] = orig - eps;
                let hm = lstm.forward_inference(&xs);
                let lm = 0.5 * hm.as_slice().iter().map(|&v| v * v).sum::<f32>();
                xs[t].as_mut_slice()[e] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = dxs[t].as_slice()[e];
                let denom = numeric.abs().max(analytic.abs()).max(1e-2);
                assert!(
                    (numeric - analytic).abs() / denom < 3e-2,
                    "t={t} e={e} numeric={numeric} analytic={analytic}"
                );
            }
        }
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = StdRng::seed_from_u64(11);
        let lstm = Lstm::new(2, 3, &mut rng);
        for j in 0..3 {
            assert_eq!(lstm.b[(0, j)], 0.0); // input gate
            assert_eq!(lstm.b[(0, 3 + j)], 1.0); // forget gate
        }
    }

    #[test]
    fn learns_to_remember_first_token() {
        // Tiny task: output should reflect the first input of the sequence.
        // Train h -> first x via a scalar readout folded into the loss.
        use crate::optimizer::{Adam, Optimizer};
        let mut rng = StdRng::seed_from_u64(12);
        let mut lstm = Lstm::new(1, 8, &mut rng);
        let mut readout = crate::dense::Dense::new(
            8,
            1,
            crate::activation::Activation::Linear,
            Init::XavierUniform,
            &mut rng,
        );
        let mut opt = Adam::new(0.02);

        let make_batch = |rng: &mut StdRng| -> (Vec<Matrix>, Matrix) {
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
            (xs, Matrix::from_vec(batch, 1, first))
        };

        let mut last_loss = f32::MAX;
        for epoch in 0..200 {
            let (xs, y) = make_batch(&mut rng);
            lstm.zero_grad();
            readout.zero_grad();
            let h = lstm.forward(&xs);
            let pred = readout.forward(&h);
            let mut diff = pred.clone();
            diff.add_scaled(&y, -1.0);
            let loss = diff.as_slice().iter().map(|&d| d * d).sum::<f32>() / y.rows() as f32;
            let mut dpred = diff;
            dpred.scale(2.0 / y.rows() as f32);
            let dh = readout.backward(&dpred);
            lstm.backward_last(&dh);
            let mut params = lstm.params_mut();
            params.extend(readout.params_mut());
            opt.step(&mut params);
            if epoch >= 195 {
                last_loss = loss;
            }
        }
        assert!(
            last_loss < 0.15,
            "LSTM failed to learn memory task: loss={last_loss}"
        );
    }
}
