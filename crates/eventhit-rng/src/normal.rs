//! Gaussian sampling via Box–Muller, on top of the uniform source.

use crate::traits::{Rng, RngCore};

/// One standard-normal (`N(0, 1)`) sample.
pub fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // 1 - U keeps the argument of ln strictly positive (U is in [0, 1)).
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A normal sample with the given mean and standard deviation.
pub fn normal<R: RngCore + ?Sized>(mean: f64, std: f64, rng: &mut R) -> f64 {
    assert!(std >= 0.0, "standard deviation must be non-negative");
    mean + std * standard_normal(rng)
}
