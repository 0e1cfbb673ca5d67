//! LSTM layer with full backpropagation through time (BPTT).
//!
//! The four gates (input `i`, forget `f`, cell candidate `g`, output `o`)
//! share fused weight matrices `wx: 4H x D` and `wh: 4H x H`, laid out in
//! gate order `[i | f | g | o]` along the rows. The forget-gate bias is
//! initialized to 1.0, the standard trick that lets gradients flow through
//! long sequences early in training.

use eventhit_rng::Rng;

use crate::activation::Activation::{Sigmoid, Tanh};
use crate::cell::{lstm_cell, CellState};
use crate::init::Init;
use crate::matrix::Matrix;
use crate::optimizer::ParamMut;
use crate::packed::PackedGate;
use crate::quant::QuantizedGate;
use crate::step::{fold, GateGrad, Product};

/// What one timestep of a training forward keeps for BPTT.
#[derive(Clone, Debug)]
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
}

/// What a training forward over a block of rows keeps for
/// [`Lstm::bptt`]: every timestep's input, state and gate activations.
#[derive(Clone, Debug)]
pub struct LstmTrace {
    steps: Vec<StepCache>,
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

    /// Runs the LSTM over a block of rows' sequence (`xs[t]: rows x
    /// input_dim`) and returns the final hidden state (`rows x
    /// hidden_dim`) with the trace BPTT needs.
    pub fn forward_trace(&self, xs: &[Matrix]) -> (Matrix, LstmTrace) {
        assert!(!xs.is_empty(), "LSTM requires at least one timestep");
        let batch = xs[0].rows();
        let hd = self.hidden_dim;
        let mut steps = Vec::with_capacity(xs.len());

        let mut h = Matrix::zeros(batch, hd);
        let mut c = Matrix::zeros(batch, hd);
        let gate = self.gate();

        for x in xs {
            let (i, f, g, o, c_new) = self.step(&gate, x, &h, &c, batch);
            let tanh_c = Tanh.apply(c_new.clone());
            let h_new = o.hadamard(&tanh_c);
            steps.push(StepCache {
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
        (h, LstmTrace { steps })
    }

    /// Runs the LSTM without a trace. Pure `&self`, so a trained layer
    /// can be shared across threads for parallel inference; the step
    /// arithmetic is shared with [`Lstm::forward_trace`], so the two are
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
            h = o.hadamard(&Tanh.apply(c_new.clone()));
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
        // Single fused pass over the concatenated [i|f|g|o] gate weights:
        // both dots complete, meet, then take the bias.
        let pre = gate.forward_rows(x, h);

        let i = Sigmoid.apply(pre.col_block(0, hd));
        let f = Sigmoid.apply(pre.col_block(hd, hd));
        let g = Tanh.apply(pre.col_block(2 * hd, hd));
        let o = Sigmoid.apply(pre.col_block(3 * hd, hd));

        let mut c_new = f.hadamard(c);
        c_new.add_assign(&i.hadamard(&g));
        (i, f, g, o, c_new)
    }

    /// BPTT over a traced block, from the gradient of the loss w.r.t.
    /// its *final* hidden state: the recursion down to each timestep's
    /// gate pre-activation gradient, returned in timestep order with the
    /// inputs [`Lstm::grad_products`] multiplies it by. The gradient
    /// w.r.t. the inputs is not computed: the encoder is the first layer,
    /// so nothing reads it.
    pub fn bptt(&self, trace: LstmTrace, dh_last: &Matrix) -> Vec<GateGrad> {
        let hd = self.hidden_dim;
        let mut grads = Vec::with_capacity(trace.steps.len());
        let mut dh = dh_last.clone();
        let mut dc_next = Matrix::zeros(dh.rows(), hd);

        for step in trace.steps.into_iter().rev() {
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

            let mut dpre = Matrix::zeros(dh.rows(), 4 * hd);
            dpre.set_col_block(0, &dpre_i);
            dpre.set_col_block(hd, &dpre_f);
            dpre.set_col_block(2 * hd, &dpre_g);
            dpre.set_col_block(3 * hd, &dpre_o);

            dh = dpre.matmul(&self.wh);
            dc_next = dc_prev;
            grads.push(GateGrad {
                dpx: dpre,
                dph: None,
                x: step.x,
                h_prev: step.h_prev,
            });
        }
        grads.reverse();
        grads
    }

    /// The weight-gradient products of one step over the whole batch,
    /// from its stacked [`Lstm::bptt`] output: per timestep, last first,
    /// `dpre^T x`, `dpre^T h_prev` and the column sums of `dpre`.
    pub fn grad_products(steps: &[GateGrad]) -> Vec<Product<'_>> {
        steps
            .iter()
            .rev()
            .flat_map(|s| {
                [
                    Product::TMatmul(&s.dpx, &s.x),
                    Product::TMatmul(&s.dpx, &s.h_prev),
                    Product::SumRows(&s.dpx),
                ]
            })
            .collect()
    }

    /// Sets the gradient buffers to the computed
    /// [`Lstm::grad_products`], folded in their order.
    ///
    /// # Panics
    /// Panics unless the values are three per timestep, of the
    /// buffers' shapes.
    pub fn set_grads(&mut self, values: impl IntoIterator<Item = Matrix>) {
        fold(&mut [&mut self.dwx, &mut self.dwh, &mut self.db], values);
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

    /// Advances every sequence of a block by one timestep: `x` holds one
    /// input row per sequence of `state` (sized by [`CellState::start`]).
    /// One gate product serves the block, the rows sharing each weight
    /// load, then the cell updates run row by row; every row comes out as
    /// [`PackedLstm::step`] would leave it. Allocates nothing.
    ///
    /// # Panics
    /// Panics if `x` is not one `input_dim` row per sequence of `state`.
    pub fn step_rows(&self, x: &[f32], state: &mut CellState) {
        let hd = self.hidden_dim;
        // One sequence steps as the serving forward does.
        if state.h.len() == hd {
            return self.step(x, state);
        }
        let rows = state.h.len() / hd;
        let pre = &mut state.pre[..4 * hd * rows];
        self.gate.forward_rows_into(rows, x, &state.h, pre);
        let cells = state
            .h
            .chunks_exact_mut(hd)
            .zip(state.c.chunks_exact_mut(hd));
        for (pre, (h, c)) in pre.chunks_exact_mut(4 * hd).zip(cells) {
            lstm_cell(pre, h, c);
        }
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

    /// A one-block step's backward from the final hidden state's
    /// gradient: BPTT, then the products.
    fn backward(lstm: &mut Lstm, trace: LstmTrace, dh: &Matrix) {
        let steps = lstm.bptt(trace, dh);
        let values: Vec<Matrix> = Lstm::grad_products(&steps)
            .iter()
            .map(Product::compute)
            .collect();
        lstm.set_grads(values);
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let lstm = Lstm::new(3, 5, &mut rng);
        let xs = seq(7, 4, 3, 1);
        let (h, _) = lstm.forward_trace(&xs);
        assert_eq!(h.shape(), (4, 5));
        assert!(h.all_finite());
    }

    #[test]
    fn hidden_state_is_bounded() {
        // h = o ⊙ tanh(c) with o in (0,1) implies |h| < 1.
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = Lstm::new(2, 4, &mut rng);
        let xs = seq(20, 3, 2, 2);
        let h = lstm.forward_inference(&xs);
        assert!(h.as_slice().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn inference_matches_training_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let lstm = Lstm::new(3, 4, &mut rng);
        let xs = seq(6, 2, 3, 6);
        let (a, _) = lstm.forward_trace(&xs);
        let b = lstm.forward_inference(&xs);
        assert_eq!(a, b);
    }

    #[test]
    fn packed_steps_are_bit_identical_to_inference_forward() {
        let mut rng = StdRng::seed_from_u64(23);
        // 4 * 9 = 36 gate outputs: a 32-wide tile and four single
        // outputs; 4 * 11 = 44 adds an 8-wide tile between them.
        for hd in [9, 11] {
            let lstm = Lstm::new(5, hd, &mut rng);
            let xs = seq(7, 5, 5, 24);
            let exact = lstm.forward_inference(&xs);
            let packed = lstm.packed();
            for r in 0..5 {
                let h = final_hidden(&xs, r, hd, |x, st| packed.step(x, st));
                assert_eq!(h, exact.row(r), "hidden {hd} row {r}");
            }
            // The five sequences side by side: a block of four and one
            // more.
            let mut state = CellState::default();
            state.start(hd, 5);
            for x in &xs {
                packed.step_rows(x.as_slice(), &mut state);
            }
            assert_eq!(state.hidden(), exact.as_slice(), "hidden {hd}");
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
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut lstm = Lstm::new(3, 4, &mut rng);
        let xs = seq(5, 2, 3, 8);
        let loss_fn = |l: &mut Lstm| {
            let h = l.forward_inference(&xs);
            0.5 * h.as_slice().iter().map(|&v| v * v).sum::<f32>()
        };
        let grad_fn = |l: &mut Lstm| {
            let (h, trace) = l.forward_trace(&xs);
            backward(l, trace, &h);
        };
        let err = check_gradients(&mut lstm, loss_fn, grad_fn, |l| l.params_mut(), 1e-2);
        assert!(err < 3e-2, "max rel err {err}");
    }

    #[test]
    fn blocks_of_rows_give_the_whole_batch_gradients_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut lstm = Lstm::new(3, 5, &mut rng);
        let xs = seq(4, 7, 3, 10);
        let dh = Matrix::uniform(7, 5, -1.0, 1.0, &mut rng);
        let (h, trace) = lstm.forward_trace(&xs);
        backward(&mut lstm, trace, &dh);
        let want = [lstm.dwx.clone(), lstm.dwh.clone(), lstm.db.clone()];
        for cut in [vec![0..4, 4..7], vec![0..1, 1..2, 2..3, 3..7]] {
            let (mut hs, mut steps) = (Vec::new(), Vec::new());
            for rows in cut {
                let block: Vec<Matrix> = xs.iter().map(|x| x.row_range(rows.clone())).collect();
                let (h, trace) = lstm.forward_trace(&block);
                steps.push(lstm.bptt(trace, &dh.row_range(rows)));
                hs.push(h);
            }
            assert_eq!(Matrix::stack_rows(hs), h);
            let steps: Vec<GateGrad> = GateGrad::by_timestep(steps)
                .into_iter()
                .map(GateGrad::stack)
                .collect();
            let values: Vec<Matrix> = Lstm::grad_products(&steps)
                .iter()
                .map(Product::compute)
                .collect();
            lstm.set_grads(values);
            assert_eq!([lstm.dwx.clone(), lstm.dwh.clone(), lstm.db.clone()], want);
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
        use crate::optimizer::Adam;
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
            let (h, trace) = lstm.forward_trace(&xs);
            let pred = readout.forward_trace(&h);
            let mut diff = pred.output().clone();
            diff.add_scaled(&y, -1.0);
            let loss = diff.as_slice().iter().map(|&d| d * d).sum::<f32>() / y.rows() as f32;
            let mut dpred = diff;
            dpred.scale(2.0 / y.rows() as f32);
            let (dpre, dh) = readout.backward_rows(&pred, &dpred);
            readout.set_grads(crate::dense::Dense::grad_products(&dpre, &h).map(|p| p.compute()));
            backward(&mut lstm, trace, &dh);
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
