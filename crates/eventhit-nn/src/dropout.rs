//! Inverted dropout.
//!
//! During training each entry is zeroed with probability `p` and survivors
//! are scaled by `1 / (1 - p)`, so the expected activation is unchanged and
//! no rescaling is needed at inference time.

use eventhit_rng::Rng;

use crate::matrix::Matrix;

/// Inverted dropout layer.
#[derive(Clone)]
pub struct Dropout {
    p: f32,
    training: bool,
    mask: Option<Matrix>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p in [0, 1)`.
    pub fn new(p: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        Dropout {
            p,
            training: true,
            mask: None,
        }
    }

    /// Drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }

    /// Switches between training (stochastic) and inference (identity)
    /// mode. Leaving training drops the cached mask: inference forwards
    /// never read it.
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
        if !training {
            self.mask = None;
        }
    }

    /// True when in training mode.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Forward pass. In training mode, samples and caches a mask for the
    /// following [`Dropout::backward`] call; in inference mode this is the
    /// identity.
    pub fn forward<R: Rng + ?Sized>(&mut self, x: &Matrix, rng: &mut R) -> Matrix {
        if !self.training || self.p == 0.0 {
            self.mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask_data: Vec<f32> = (0..x.len())
            .map(|_| {
                if rng.random::<f32>() < keep {
                    scale
                } else {
                    0.0
                }
            })
            .collect();
        let mask = Matrix::from_vec(x.rows(), x.cols(), mask_data);
        let out = x.hadamard(&mask);
        self.mask = Some(mask);
        out
    }

    /// Backward pass: applies the cached mask to the incoming gradient.
    pub fn backward(&self, grad_out: &Matrix) -> Matrix {
        match &self.mask {
            Some(mask) => grad_out.hadamard(mask),
            None => grad_out.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_rng::rngs::StdRng;
    use eventhit_rng::SeedableRng;

    #[test]
    fn inference_mode_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dropout::new(0.5);
        d.set_training(false);
        let x = Matrix::uniform(3, 4, -1.0, 1.0, &mut rng);
        let y = d.forward(&x, &mut rng);
        assert_eq!(x, y);
        let g = Matrix::filled(3, 4, 1.0);
        assert_eq!(d.backward(&g), g);
    }

    #[test]
    fn zero_probability_is_identity_even_in_training() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dropout::new(0.0);
        let x = Matrix::uniform(2, 2, -1.0, 1.0, &mut rng);
        assert_eq!(d.forward(&x, &mut rng), x);
    }

    #[test]
    fn training_mode_preserves_expectation() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dropout::new(0.3);
        let x = Matrix::filled(100, 100, 1.0);
        let y = d.forward(&x, &mut rng);
        let mean = y.as_slice().iter().sum::<f32>() / y.len() as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn surviving_entries_are_scaled() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dropout::new(0.5);
        let x = Matrix::filled(10, 10, 1.0);
        let y = d.forward(&x, &mut rng);
        for &v in y.as_slice() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6, "unexpected value {v}");
        }
    }

    #[test]
    fn backward_uses_same_mask_as_forward() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut d = Dropout::new(0.4);
        let x = Matrix::filled(5, 5, 1.0);
        let y = d.forward(&x, &mut rng);
        let g = Matrix::filled(5, 5, 1.0);
        let gy = d.backward(&g);
        // Gradient is zero exactly where the output was zero.
        for (o, gr) in y.as_slice().iter().zip(gy.as_slice()) {
            assert_eq!(*o == 0.0, *gr == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn rejects_p_of_one() {
        let _ = Dropout::new(1.0);
    }
}
