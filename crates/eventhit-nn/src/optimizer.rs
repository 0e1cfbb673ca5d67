//! The Adam optimizer.
//!
//! Layers expose their trainable state as a stable-ordered list of
//! [`ParamMut`] pairs; the optimizer keeps per-parameter moment estimates
//! keyed by position in that list, so callers must always pass parameters
//! in the same order.

use crate::matrix::Matrix;

/// A mutable view of one parameter tensor and its accumulated gradient.
pub struct ParamMut<'a> {
    /// The trainable values, updated in place by the optimizer.
    pub value: &'a mut Matrix,
    /// The gradient accumulated by the layer's backward pass.
    pub grad: &'a Matrix,
}

/// First-moment decay rate.
const BETA1: f32 = 0.9;
/// Second-moment decay rate.
const BETA2: f32 = 0.999;
/// Denominator guard.
const EPS: f32 = 1e-8;

/// Adam optimizer (Kingma & Ba, 2015) with bias correction, at the
/// standard `beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`.
pub struct Adam {
    lr: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an Adam optimizer at learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update step to the given parameters.
    pub fn step(&mut self, params: &mut [ParamMut<'_>]) {
        if self.m.len() < params.len() {
            for p in params[self.m.len()..].iter() {
                self.m.push(vec![0.0; p.value.len()]);
                self.v.push(vec![0.0; p.value.len()]);
            }
        }
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for (i, p) in params.iter_mut().enumerate() {
            assert_eq!(self.m[i].len(), p.value.len(), "parameter {i} changed size");
            let (m, v) = (&mut self.m[i], &mut self.v[i]);
            let values = p.value.as_mut_slice();
            for (((val, m), v), &g) in values
                .iter_mut()
                .zip(m.iter_mut())
                .zip(v.iter_mut())
                .zip(p.grad.as_slice())
            {
                *m = BETA1 * *m + (1.0 - BETA1) * g;
                *v = BETA2 * *v + (1.0 - BETA2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *val -= self.lr * m_hat / (v_hat.sqrt() + EPS);
            }
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (the trainer scales it to clip an
    /// over-norm step).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = sum((x - target)^2) and returns the final point.
    fn minimize(opt: &mut Adam, start: Vec<f32>, target: &[f32], steps: usize) -> Matrix {
        let n = start.len();
        let mut x = Matrix::from_vec(1, n, start);
        for _ in 0..steps {
            let grad = Matrix::from_vec(
                1,
                n,
                x.as_slice()
                    .iter()
                    .zip(target)
                    .map(|(&xi, &t)| 2.0 * (xi - t))
                    .collect(),
            );
            let mut params = [ParamMut {
                value: &mut x,
                grad: &grad,
            }];
            opt.step(&mut params);
        }
        x
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let x = minimize(&mut opt, vec![8.0, -8.0], &[0.5, 0.25], 500);
        assert!((x.as_slice()[0] - 0.5).abs() < 1e-2);
        assert!((x.as_slice()[1] - 0.25).abs() < 1e-2);
        assert_eq!(opt.steps(), 500);
    }

    #[test]
    fn adam_first_step_has_unit_scale() {
        // With bias correction, the very first Adam step is approximately
        // lr * sign(grad) regardless of gradient magnitude.
        let mut opt = Adam::new(0.01);
        let mut x = Matrix::from_vec(1, 1, vec![0.0]);
        let grad = Matrix::from_vec(1, 1, vec![1234.0]);
        opt.step(&mut [ParamMut {
            value: &mut x,
            grad: &grad,
        }]);
        assert!((x.as_slice()[0] + 0.01).abs() < 1e-4);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.5);
        assert_eq!(opt.learning_rate(), 0.5);
        opt.set_learning_rate(0.25);
        assert_eq!(opt.learning_rate(), 0.25);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_non_positive_lr() {
        let _ = Adam::new(0.0);
    }
}
