//! Fully connected (dense) layer with manual backprop.

use eventhit_rng::Rng;

use crate::activation::Activation;
use crate::init::Init;
use crate::matrix::Matrix;
use crate::optimizer::ParamMut;
use crate::packed::PackedAffine;
use crate::quant::QuantizedAffine;
use crate::step::{fold, Product};

/// A fully connected layer `y = act(x W^T + b)`.
///
/// Weights are stored `out x in` (row `j` holds the weights of output
/// unit `j`), so the forward pass is `x W^T` on a batch matrix
/// `x: batch x in`.
#[derive(Clone)]
pub struct Dense {
    w: Matrix,
    b: Matrix,
    dw: Matrix,
    db: Matrix,
    act: Activation,
}

/// What a training forward keeps of a block of rows for
/// [`Dense::backward_rows`].
#[derive(Clone, Debug)]
pub struct DenseTrace {
    pre: Matrix,
    out: Matrix,
}

impl DenseTrace {
    /// The layer's output rows.
    pub fn output(&self) -> &Matrix {
        &self.out
    }
}

impl Dense {
    /// Creates a dense layer with `input` inputs and `output` outputs.
    pub fn new<R: Rng + ?Sized>(
        input: usize,
        output: usize,
        act: Activation,
        init: Init,
        rng: &mut R,
    ) -> Self {
        Dense {
            w: init.matrix(output, input, rng),
            b: Matrix::zeros(1, output),
            dw: Matrix::zeros(output, input),
            db: Matrix::zeros(1, output),
            act,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.w.rows()
    }

    /// Immutable access to the weight matrix (`out x in`).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Immutable access to the bias row vector (`1 x out`).
    pub fn bias(&self) -> &Matrix {
        &self.b
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Pre-activation `x W^T + b` (single fused [`Matrix::affine_t`]
    /// pass: each dot completes before its bias is added).
    fn affine(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_dim(), "dense input dim mismatch");
        x.affine_t(&self.w, self.b.as_slice())
    }

    /// Training forward over a block of rows (`x: rows x in`): the
    /// output, and what [`Dense::backward_rows`] needs of it. Row for row
    /// the output is [`Dense::forward_inference`]'s.
    pub fn forward_trace(&self, x: &Matrix) -> DenseTrace {
        let pre = self.affine(x);
        let out = self.act.apply(pre.clone());
        DenseTrace { pre, out }
    }

    /// Forward pass without a trace. Pure `&self`, so a trained layer can
    /// be shared across threads for parallel inference; the arithmetic
    /// is identical to [`Dense::forward_trace`].
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        self.act.apply(self.affine(x))
    }

    /// Compiles the layer for exact-lane inference: weights repacked
    /// `[k][out]` once (see [`crate::packed`]); the result is immutable,
    /// carries no gradients, and its forward is bit-identical to
    /// [`Dense::forward_inference`].
    pub fn packed(&self) -> PackedDense {
        PackedDense {
            affine: PackedAffine::pack(&self.w, self.b.as_slice()),
            act: self.act,
        }
    }

    /// Snapshots the layer onto the int8 lane (see
    /// [`crate::quant::InferenceLane`]). Weights are quantized once;
    /// the returned layer is immutable.
    pub fn quantized(&self) -> QuantizedDense {
        QuantizedDense {
            affine: QuantizedAffine::quantize(&self.w, self.b.as_slice()),
            act: self.act,
        }
    }

    /// The per-row half of the backward pass over a traced block:
    /// `grad_out` is dL/d(output) for its rows. Returns dL/d(pre), which
    /// the weight gradients take ([`Dense::grad_products`]), and
    /// dL/d(input), `dpre W`.
    pub fn backward_rows(&self, trace: &DenseTrace, grad_out: &Matrix) -> (Matrix, Matrix) {
        assert_eq!(
            grad_out.shape(),
            trace.out.shape(),
            "grad_out shape mismatch"
        );
        let dpre = grad_out.hadamard(&self.act.deriv(&trace.pre, &trace.out));
        let dx = dpre.matmul(&self.w);
        (dpre, dx)
    }

    /// The weight-gradient products of one step over the whole batch,
    /// from its pre-activation gradient `dpre` and input `x`: `dW =
    /// dpre^T x`, then `db`, the column sums of `dpre`.
    pub fn grad_products<'a>(dpre: &'a Matrix, x: &'a Matrix) -> [Product<'a>; 2] {
        [Product::TMatmul(dpre, x), Product::SumRows(dpre)]
    }

    /// Sets the gradient buffers to the computed
    /// [`Dense::grad_products`], in their order.
    ///
    /// # Panics
    /// Panics unless the values are two, of the buffers' shapes.
    pub fn set_grads(&mut self, values: impl IntoIterator<Item = Matrix>) {
        fold(&mut [&mut self.dw, &mut self.db], values);
    }

    /// The parameters alone, read-only, in [`Dense::params_mut`]'s order.
    pub fn params(&self) -> [&Matrix; 2] {
        [&self.w, &self.b]
    }

    /// Yields `(parameter, gradient)` pairs for the optimizer, in a stable
    /// order.
    pub fn params_mut(&mut self) -> Vec<ParamMut<'_>> {
        vec![
            ParamMut {
                value: &mut self.w,
                grad: &self.dw,
            },
            ParamMut {
                value: &mut self.b,
                grad: &self.db,
            },
        ]
    }
}

/// A [`Dense`] layer compiled for exact-lane inference:
/// `y = act(x W^T + b)` over k-major packed weights, written into a
/// caller-provided slice.
#[derive(Clone)]
pub struct PackedDense {
    affine: PackedAffine,
    act: Activation,
}

impl PackedDense {
    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.affine.in_dim()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.affine.out_dim()
    }

    /// Forward pass of one row into `out`; allocates nothing.
    ///
    /// # Panics
    /// Panics if `x` or `out` has the wrong length.
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        self.affine.forward_into(x, out);
        self.act.apply_slice(out);
    }

    /// [`PackedDense::forward_into`] for `rows` rows of `x` into as many
    /// rows of `out`, the rows sharing each weight load; allocates
    /// nothing, and every row comes out as its own forward would.
    ///
    /// # Panics
    /// Panics if `x` or `out` is not `rows` rows long.
    pub fn forward_rows_into(&self, rows: usize, x: &[f32], out: &mut [f32]) {
        self.affine.forward_rows_into(rows, x, out);
        self.act.apply_slice(out);
    }
}

/// An int8 snapshot of a [`Dense`] layer: the quantized inference lane
/// (`y = act(x Wq^T + b)` over int8 codes, accumulated exactly).
#[derive(Clone)]
pub struct QuantizedDense {
    affine: QuantizedAffine,
    act: Activation,
}

impl QuantizedDense {
    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.affine.in_dim()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.affine.out_dim()
    }

    /// Quantized forward pass of one row into `out`; `xq` is reused
    /// scratch for the activations' int8 codes. Sequential, so results are
    /// bit-identical across worker counts.
    ///
    /// # Panics
    /// Panics if `x` or `out` has the wrong length.
    pub fn forward_into(&self, x: &[f32], xq: &mut Vec<f32>, out: &mut [f32]) {
        self.affine.forward_into(x, xq, out);
        self.act.apply_slice(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use eventhit_rng::rngs::StdRng;
    use eventhit_rng::SeedableRng;

    /// A one-block step's backward from `grad_out`: the per-row half,
    /// then the products. Returns dL/d(input).
    fn backward(layer: &mut Dense, x: &Matrix, grad_out: &Matrix) -> Matrix {
        let (dpre, dx) = layer.backward_rows(&layer.forward_trace(x), grad_out);
        let values = Dense::grad_products(&dpre, x).map(|p| p.compute());
        layer.set_grads(values);
        dx
    }

    #[test]
    fn forward_known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(2, 2, Activation::Linear, Init::Zeros, &mut rng);
        // W = [[1, 2], [3, 4]], b = [0.5, -0.5]
        layer.w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        layer.b = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = layer.forward_trace(&x);
        assert_eq!(y.output().as_slice(), &[3.5, 6.5]);
        assert_eq!(layer.forward_inference(&x), *y.output());
    }

    #[test]
    fn output_shape_follows_batch() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::new(5, 3, Activation::Tanh, Init::XavierUniform, &mut rng);
        let x = Matrix::uniform(7, 5, -1.0, 1.0, &mut rng);
        assert_eq!(layer.forward_inference(&x).shape(), (7, 3));
    }

    #[test]
    fn gradients_match_finite_differences() {
        for act in [
            Activation::Linear,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Relu,
        ] {
            let mut rng = StdRng::seed_from_u64(2);
            let mut layer = Dense::new(4, 3, act, Init::XavierUniform, &mut rng);
            let x = Matrix::uniform(5, 4, -1.0, 1.0, &mut rng);
            // Loss: 0.5 * sum(y^2), so dL/dy = y.
            let loss_fn = |layer: &mut Dense| {
                let y = layer.forward_inference(&x);
                0.5 * y.as_slice().iter().map(|&v| v * v).sum::<f32>()
            };
            let grad_fn = |layer: &mut Dense| {
                let y = layer.forward_inference(&x);
                backward(layer, &x, &y);
            };
            let max_err = check_gradients(&mut layer, loss_fn, grad_fn, |l| l.params_mut(), 1e-2);
            assert!(max_err < 2e-2, "act={act:?} max rel err {max_err}");
        }
    }

    #[test]
    fn backward_returns_input_gradient() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(3, 2, Activation::Linear, Init::XavierUniform, &mut rng);
        let x = Matrix::uniform(4, 3, -1.0, 1.0, &mut rng);
        let y = layer.forward_inference(&x);
        let gx = backward(&mut layer, &x, &y);
        assert_eq!(gx.shape(), (4, 3));
        // dX = y W for the linear activation.
        let expected = y.matmul(layer.weights());
        for (a, b) in gx.as_slice().iter().zip(expected.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn blocks_of_rows_give_the_whole_batch_gradients_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut layer = Dense::new(6, 5, Activation::Sigmoid, Init::XavierUniform, &mut rng);
        let x = Matrix::uniform(7, 6, -1.0, 1.0, &mut rng);
        let g = Matrix::uniform(7, 5, -1.0, 1.0, &mut rng);
        let dx = backward(&mut layer, &x, &g);
        let want = [layer.dw.clone(), layer.db.clone()];
        for cut in [vec![0..3, 3..7], vec![0..1, 1..2, 2..7]] {
            let (mut dpre, mut dxs) = (Vec::new(), Vec::new());
            for rows in cut {
                let trace = layer.forward_trace(&x.row_range(rows.clone()));
                let (d, dx) = layer.backward_rows(&trace, &g.row_range(rows));
                dpre.push(d);
                dxs.push(dx);
            }
            assert_eq!(Matrix::stack_rows(dxs), dx);
            let dpre = Matrix::stack_rows(dpre);
            layer.set_grads(Dense::grad_products(&dpre, &x).map(|p| p.compute()));
            assert_eq!([layer.dw.clone(), layer.db.clone()], want);
        }
    }

    #[test]
    fn packed_forward_is_bit_identical_to_inference_forward() {
        for act in [
            Activation::Linear,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Relu,
        ] {
            let mut rng = StdRng::seed_from_u64(7);
            let layer = Dense::new(9, 41, act, Init::XavierUniform, &mut rng);
            let x = Matrix::uniform(4, 9, -1.0, 1.0, &mut rng);
            let want = layer.forward_inference(&x);
            let packed = layer.packed();
            let mut out = vec![0.0; 41];
            for r in 0..x.rows() {
                packed.forward_into(x.row(r), &mut out);
                assert_eq!(out, want.row(r), "act={act:?}");
            }
        }
    }

    #[test]
    fn quantized_forward_tracks_exact_forward() {
        let mut rng = StdRng::seed_from_u64(6);
        let layer = Dense::new(9, 5, Activation::Tanh, Init::XavierUniform, &mut rng);
        let x = Matrix::uniform(4, 9, -1.0, 1.0, &mut rng);
        let exact = layer.forward_inference(&x);
        let quant = layer.quantized();
        let (mut xq, mut out) = (Vec::new(), vec![0.0; 5]);
        for r in 0..x.rows() {
            quant.forward_into(x.row(r), &mut xq, &mut out);
            for (a, b) in exact.row(r).iter().zip(&out) {
                // tanh is 1-Lipschitz; pre-activation error is bounded by
                // sum|x| * step/2 per unit, far below 0.05 at these dims.
                assert!((a - b).abs() < 0.05, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn set_grads_replaces_the_last_step() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Dense::new(2, 2, Activation::Linear, Init::XavierUniform, &mut rng);
        let x = Matrix::uniform(1, 2, -1.0, 1.0, &mut rng);
        backward(&mut layer, &x, &Matrix::filled(1, 2, 1.0));
        let once = layer.dw.clone();
        backward(&mut layer, &x, &Matrix::filled(1, 2, 3.0));
        backward(&mut layer, &x, &Matrix::filled(1, 2, 1.0));
        assert_eq!(layer.dw, once);
    }
}
