//! Inverted dropout.
//!
//! During training each entry is zeroed with probability `p` and survivors
//! are scaled by `1 / (1 - p)`, so the expected activation is unchanged and
//! no rescaling is needed at inference time. A training step draws one
//! [`Dropout::mask`] for its whole batch and multiplies it in on the way
//! forward and again on the way back; inference never draws one.

use eventhit_rng::Rng;

use crate::matrix::Matrix;

/// Inverted dropout layer.
#[derive(Clone)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p in [0, 1)`.
    pub fn new(p: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        Dropout { p }
    }

    /// Drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }

    /// The mask of one training batch of `rows x cols` activations: each
    /// entry `0` or `1 / (1 - p)`, drawn in row-major order, one uniform
    /// draw apiece. `None` at `p = 0`, which draws nothing: the identity.
    pub fn mask<R: Rng + ?Sized>(&self, rows: usize, cols: usize, rng: &mut R) -> Option<Matrix> {
        if self.p == 0.0 {
            return None;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let data = (0..rows * cols)
            .map(|_| {
                if rng.random::<f32>() < keep {
                    scale
                } else {
                    0.0
                }
            })
            .collect();
        Some(Matrix::from_vec(rows, cols, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_rng::rngs::StdRng;
    use eventhit_rng::SeedableRng;

    #[test]
    fn zero_probability_is_identity_and_draws_nothing() {
        let mut rng = StdRng::seed_from_u64(1);
        let before = rng.clone();
        assert!(Dropout::new(0.0).mask(2, 2, &mut rng).is_none());
        assert_eq!(rng.random::<u64>(), before.clone().random::<u64>());
    }

    #[test]
    fn mask_preserves_expectation() {
        let mut rng = StdRng::seed_from_u64(2);
        let mask = Dropout::new(0.3).mask(100, 100, &mut rng).unwrap();
        let mean = mask.as_slice().iter().sum::<f32>() / mask.len() as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn surviving_entries_are_scaled() {
        let mut rng = StdRng::seed_from_u64(3);
        let mask = Dropout::new(0.5).mask(10, 10, &mut rng).unwrap();
        for &v in mask.as_slice() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6, "unexpected value {v}");
        }
    }

    #[test]
    fn a_batch_mask_is_its_rows_drawn_in_order() {
        // One draw per entry, row-major: a 6-row mask is the 2-row mask
        // of the same stream followed by the next 4 rows.
        let d = Dropout::new(0.4);
        let whole = d.mask(6, 5, &mut StdRng::seed_from_u64(4)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let top = d.mask(2, 5, &mut rng).unwrap();
        let bottom = d.mask(4, 5, &mut rng).unwrap();
        assert_eq!(whole.row_range(0..2), top);
        assert_eq!(whole.row_range(2..6), bottom);
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn rejects_p_of_one() {
        let _ = Dropout::new(1.0);
    }
}
