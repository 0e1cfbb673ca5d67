//! Scalar activation functions and their derivatives.
//!
//! Derivatives are expressed *in terms of the activation output* where
//! possible (sigmoid, tanh) because the forward pass already computed that
//! value; this avoids recomputing the activation during backprop.

use crate::matrix::Matrix;

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Derivative of sigmoid given its output `s = sigmoid(x)`.
#[inline]
pub fn sigmoid_deriv_from_output(s: f32) -> f32 {
    s * (1.0 - s)
}

/// Hyperbolic tangent.
#[inline]
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

/// Derivative of tanh given its output `t = tanh(x)`.
#[inline]
pub fn tanh_deriv_from_output(t: f32) -> f32 {
    1.0 - t * t
}

/// Rectified linear unit.
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Derivative of relu given its *input* `x` (1 for x > 0, else 0).
#[inline]
pub fn relu_deriv_from_input(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Activation kind selectable at layer construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (no nonlinearity).
    Linear,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
}

impl Activation {
    /// Applies the activation to one value.
    #[inline]
    pub fn eval(self, x: f32) -> f32 {
        match self {
            Activation::Linear => x,
            Activation::Sigmoid => sigmoid(x),
            Activation::Tanh => tanh(x),
            Activation::Relu => relu(x),
        }
    }

    /// Applies the activation elementwise.
    pub fn apply(self, m: &Matrix) -> Matrix {
        match self {
            Activation::Linear => m.clone(),
            Activation::Sigmoid => m.map(sigmoid),
            Activation::Tanh => m.map(tanh),
            Activation::Relu => m.map(relu),
        }
    }

    /// Elementwise derivative for backprop.
    ///
    /// `pre` is the pre-activation input, `out` the activation output; both
    /// are provided so each activation can use whichever is cheaper.
    pub fn deriv(self, pre: &Matrix, out: &Matrix) -> Matrix {
        match self {
            Activation::Linear => Matrix::filled(pre.rows(), pre.cols(), 1.0),
            Activation::Sigmoid => out.map(sigmoid_deriv_from_output),
            Activation::Tanh => out.map(tanh_deriv_from_output),
            Activation::Relu => pre.map(relu_deriv_from_input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_midpoint_and_limits() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(20.0) > 0.999_999);
        assert!(sigmoid(-20.0) < 1e-6);
        // Stability at extremes: no NaN.
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn sigmoid_symmetry() {
        for &x in &[0.1f32, 0.5, 1.0, 3.0, 8.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_derivative_matches_finite_difference() {
        let eps = 1e-3f32;
        for &x in &[-2.0f32, -0.5, 0.0, 0.7, 2.5] {
            let numeric = (sigmoid(x + eps) - sigmoid(x - eps)) / (2.0 * eps);
            let analytic = sigmoid_deriv_from_output(sigmoid(x));
            assert!((numeric - analytic).abs() < 1e-4, "x={x}");
        }
    }

    #[test]
    fn tanh_derivative_matches_finite_difference() {
        let eps = 1e-3f32;
        for &x in &[-1.5f32, -0.2, 0.0, 0.9, 1.8] {
            let numeric = (tanh(x + eps) - tanh(x - eps)) / (2.0 * eps);
            let analytic = tanh_deriv_from_output(tanh(x));
            assert!((numeric - analytic).abs() < 1e-4, "x={x}");
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(relu(-3.0), 0.0);
        assert_eq!(relu(3.0), 3.0);
        assert_eq!(relu_deriv_from_input(-1.0), 0.0);
        assert_eq!(relu_deriv_from_input(1.0), 1.0);
    }

    #[test]
    fn activation_apply_and_deriv_shapes() {
        let m = Matrix::from_vec(2, 2, vec![-1.0, 0.0, 0.5, 2.0]);
        for act in [
            Activation::Linear,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Relu,
        ] {
            let out = act.apply(&m);
            let d = act.deriv(&m, &out);
            assert_eq!(out.shape(), m.shape());
            assert_eq!(d.shape(), m.shape());
        }
    }

    #[test]
    fn linear_is_identity() {
        let m = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        assert_eq!(Activation::Linear.apply(&m), m);
    }
}
