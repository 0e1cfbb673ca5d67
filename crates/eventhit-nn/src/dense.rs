//! Fully connected (dense) layer with manual backprop.

use eventhit_rng::Rng;

use crate::activation::Activation;
use crate::init::Init;
use crate::matrix::Matrix;
use crate::optimizer::ParamMut;
use crate::packed::PackedAffine;
use crate::quant::QuantizedAffine;

/// A fully connected layer `y = act(x W^T + b)`.
///
/// Weights are stored `out x in` (row `j` holds the weights of output
/// unit `j`), so the forward pass is `x.matmul_t(&w)` on a batch matrix
/// `x: batch x in`.
#[derive(Clone)]
pub struct Dense {
    w: Matrix,
    b: Matrix,
    dw: Matrix,
    db: Matrix,
    act: Activation,
    /// Forward cache: input batch.
    cache_x: Option<Matrix>,
    /// Forward cache: pre-activation.
    cache_pre: Option<Matrix>,
    /// Forward cache: post-activation output.
    cache_out: Option<Matrix>,
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
            cache_x: None,
            cache_pre: None,
            cache_out: None,
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

    /// Mutable access to the weight matrix, for tests and serialization.
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.w
    }

    /// Immutable access to the bias row vector (`1 x out`).
    pub fn bias(&self) -> &Matrix {
        &self.b
    }

    /// Mutable access to the bias row vector.
    pub fn bias_mut(&mut self) -> &mut Matrix {
        &mut self.b
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Pre-activation `x W^T + b` (single fused [`Matrix::affine_t`]
    /// pass, bit-identical to `matmul_t` + bias broadcast).
    fn affine(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_dim(), "dense input dim mismatch");
        x.affine_t(&self.w, self.b.as_slice())
    }

    /// Forward pass over a batch (`x: batch x in`), caching intermediates
    /// for a subsequent [`Dense::backward`] call.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let pre = self.affine(x);
        let out = self.act.apply(&pre);
        self.cache_x = Some(x.clone());
        self.cache_pre = Some(pre);
        self.cache_out = Some(out.clone());
        out
    }

    /// Forward pass without caching (no backprop possible). Pure `&self`,
    /// so a trained layer can be shared across threads for parallel
    /// inference; the arithmetic is identical to [`Dense::forward`].
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        self.act.apply(&self.affine(x))
    }

    /// Compiles the layer for exact-lane inference: weights repacked
    /// `[k][out]` once (see [`crate::packed`]); the result is immutable,
    /// carries no gradients or caches, and its forward is bit-identical
    /// to [`Dense::forward_inference`].
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

    /// Drops the forward caches (the last batch's input, pre-activation
    /// and output). The next [`Dense::forward`] refills them.
    pub fn clear_cache(&mut self) {
        self.cache_x = None;
        self.cache_pre = None;
        self.cache_out = None;
    }

    /// Values the forward caches hold (`0` after [`Dense::clear_cache`]).
    pub fn cache_len(&self) -> usize {
        [&self.cache_x, &self.cache_pre, &self.cache_out]
            .into_iter()
            .flatten()
            .map(Matrix::len)
            .sum()
    }

    /// Backward pass. `grad_out` is dL/d(output), shape `batch x out`.
    /// Accumulates dW/db into the layer's gradient buffers and returns
    /// dL/d(input) with shape `batch x in`.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .cache_x
            .as_ref()
            .expect("Dense::backward before forward");
        let pre = self
            .cache_pre
            .as_ref()
            .expect("missing pre-activation cache");
        let out = self.cache_out.as_ref().expect("missing output cache");
        assert_eq!(grad_out.shape(), out.shape(), "grad_out shape mismatch");

        // dL/d(pre) = dL/d(out) ⊙ act'(pre)
        let dpre = grad_out.hadamard(&self.act.deriv(pre, out));

        // dW = dpre^T x  (out x in); db = column sums of dpre.
        self.dw.add_assign(&dpre.t_matmul(x));
        let db = dpre.sum_rows();
        for (g, &v) in self.db.as_mut_slice().iter_mut().zip(&db) {
            *g += v;
        }

        // dX = dpre W  (batch x in).
        dpre.matmul(&self.w)
    }

    /// Zeros the accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.dw.fill_zero();
        self.db.fill_zero();
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

    #[test]
    fn forward_known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(2, 2, Activation::Linear, Init::Zeros, &mut rng);
        // W = [[1, 2], [3, 4]], b = [0.5, -0.5]
        *layer.weights_mut() = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        *layer.bias_mut() = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = layer.forward(&x);
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn output_shape_follows_batch() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(5, 3, Activation::Tanh, Init::XavierUniform, &mut rng);
        let x = Matrix::uniform(7, 5, -1.0, 1.0, &mut rng);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), (7, 3));
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
                let y = layer.forward(&x);
                0.5 * y.as_slice().iter().map(|&v| v * v).sum::<f32>()
            };
            let grad_fn = |layer: &mut Dense| {
                layer.zero_grad();
                let y = layer.forward(&x);
                layer.backward(&y);
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
        let y = layer.forward(&x);
        let gx = layer.backward(&y);
        assert_eq!(gx.shape(), (4, 3));
        // dX = y W for the linear activation.
        let expected = y.matmul(layer.weights());
        for (a, b) in gx.as_slice().iter().zip(expected.as_slice()) {
            assert!((a - b).abs() < 1e-5);
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
    fn clear_cache_drops_the_last_batch_and_forward_refills_it() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut layer = Dense::new(3, 2, Activation::Sigmoid, Init::XavierUniform, &mut rng);
        let x = Matrix::uniform(4, 3, -1.0, 1.0, &mut rng);
        let y = layer.forward(&x);
        assert_eq!(layer.cache_len(), 4 * 3 + 2 * 4 * 2);
        layer.clear_cache();
        assert_eq!(layer.cache_len(), 0);
        assert_eq!(layer.forward_inference(&x), y);
        layer.forward(&x);
        assert_eq!(layer.backward(&y).shape(), (4, 3));
    }

    #[test]
    fn zero_grad_resets_accumulators() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Dense::new(3, 2, Activation::Sigmoid, Init::XavierUniform, &mut rng);
        let x = Matrix::uniform(2, 3, -1.0, 1.0, &mut rng);
        let y = layer.forward(&x);
        layer.backward(&y);
        layer.zero_grad();
        for p in layer.params_mut() {
            assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
        }
    }

    #[test]
    fn gradients_accumulate_across_calls() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Dense::new(2, 2, Activation::Linear, Init::XavierUniform, &mut rng);
        let x = Matrix::uniform(1, 2, -1.0, 1.0, &mut rng);
        let g = Matrix::filled(1, 2, 1.0);
        layer.forward(&x);
        layer.backward(&g);
        let first = layer.dw.clone();
        layer.forward(&x);
        layer.backward(&g);
        let mut doubled = first.clone();
        doubled.scale(2.0);
        for (a, b) in layer.dw.as_slice().iter().zip(doubled.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
