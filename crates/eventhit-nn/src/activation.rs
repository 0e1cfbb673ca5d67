//! Scalar and slice activation functions and their derivatives.
//!
//! Derivatives are expressed *in terms of the activation output* where
//! possible (sigmoid, tanh) because the forward pass already computed that
//! value; this avoids recomputing the activation during backprop.
//!
//! # The exponentials are ported, bit for bit
//!
//! [`sigmoid`] and [`tanh`] do not call `libm`. They run a branch-free
//! port of glibc's `expf` (the FMA build of the 32-entry-table algorithm,
//! evaluated in `f64`) and of fdlibm's `tanhf` over `expm1f` (five-term
//! `Q1..Q5` polynomial), as glibc 2.36 ships them. Every special case is
//! computed beside the general one and chosen with a bit mask, so a slice
//! pass ([`sigmoid_slice`], [`tanh_slice`]) is one straight-line loop the
//! compiler can vectorise, on baseline x86-64, with no `unsafe`, no
//! intrinsics, no FMA and no CPU dispatch. The scalar forms run the same
//! code, so training and both inference lanes share one implementation.
//!
//! The port equals `f32::exp` and `f32::tanh` on glibc with FMA (and the
//! old two-branch sigmoid over them) on all 2³² inputs: the ignored
//! `exhaustive_*` test checks it. (A glibc that takes the non-FMA `expf`
//! path differs from the port on exactly two inputs, `0x4202422f` and
//! `0xc27c65d9`; the tests pin those to the port's values.) So the
//! trained weights and every golden fingerprint no longer depend on the
//! host's `libm`: they are what this file computes, wherever it runs.

use crate::matrix::Matrix;

/// glibc's `__exp2f_data.tab`: `bits(2^(i/32)) - (i << 47)`.
const EXP2F_TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `32 / ln 2`, and its split into a 29-bit head and the rest: the head
/// times an `f32` is exact, which is what lets two plain operations
/// reproduce glibc's `fma(InvLn2N, x, -kd)`.
const INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
const INV_LN2_N_HI: f64 = f64::from_bits(0x40471547652b82fe & !0xff_ffff);
const INV_LN2_N_LO: f64 = INV_LN2_N - INV_LN2_N_HI;
/// `1.5 · 2^52`: adding it rounds a double to an integer, ties to even.
const SHIFT: f64 = 6755399441055744.0;
/// glibc's `poly_scaled`: `2^(r/32) ≈ 1 + C2·r + C1·r² + C0·r³`.
const C0: f64 = f64::from_bits(0x3ebc6af84b912394);
const C1: f64 = f64::from_bits(0x3f2ebfce50fac4f3);
const C2: f64 = f64::from_bits(0x3f962e42ff0c52d6);

/// `mask ? a : b` on bit patterns, without a branch.
#[inline(always)]
fn pick(mask: bool, a: u32, b: u32) -> u32 {
    let m = (mask as u32).wrapping_neg();
    (a & m) | (b & !m)
}

#[inline(always)]
fn pick_f(mask: bool, a: f32, b: f32) -> f32 {
    f32::from_bits(pick(mask, a.to_bits(), b.to_bits()))
}

/// `e^x`, bit-identical to glibc's `expf`.
///
/// The reduction `r = x·32/ln2 − k` is glibc's FMA one, done without an
/// FMA: `(hi·x − kd) + lo·x`. Computed as the plain `z − kd`, it differs
/// from the FMA build on exactly two inputs, `0x4202422f` and
/// `0xc27c65d9`, where it equals glibc's non-FMA build instead.
#[inline(always)]
fn expf(x: f32) -> f32 {
    let xd = x as f64;
    let kd = INV_LN2_N * xd + SHIFT;
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = (INV_LN2_N_HI * xd - kd) + INV_LN2_N_LO * xd;
    let s = f64::from_bits(EXP2F_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let y = (C0 * r + C1) * (r * r) + (C2 * r + 1.0);
    let y = (y * s) as f32;
    // glibc's |x| ≥ 88 exits, in its order: -inf and underflow give +0,
    // the gradual-underflow band 2^-149, overflow and +inf +inf, NaN x+x.
    let y = pick_f(x < f32::from_bits(0xc2ce8ecf), f32::from_bits(1), y);
    let y = pick_f(x < f32::from_bits(0xc2cff1b4), 0.0, y);
    let y = pick_f(x > f32::from_bits(0x42b17217), f32::INFINITY, y);
    pick_f(x.is_nan(), x + x, y)
}

const LN2_HI: f32 = f32::from_bits(0x3f317180);
const LN2_LO: f32 = f32::from_bits(0x3717f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8aa3b);
const Q1: f32 = f32::from_bits(0xbd088889);
const Q2: f32 = f32::from_bits(0x3ad00d01);
const Q3: f32 = f32::from_bits(0xb8a670cd);
const Q4: f32 = f32::from_bits(0x36867e54);
const Q5: f32 = f32::from_bits(0xb457edbb);

/// `e^x − 1`, bit-identical to fdlibm's `expm1f` on the arguments [`tanh`]
/// passes it: `[2, 44)` and `(−2, −2^-54]`. The saturating exits for
/// `|x| ≥ 27 ln 2` are left out: no such negative argument reaches here,
/// and a positive one takes the general path in fdlibm too.
#[inline(always)]
fn expm1f(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x.is_sign_negative();
    // k = round(x / ln 2), forced to ±1 on (0.5 ln2, 1.5 ln2), 0 below.
    let k_round = (INV_LN2 * x + pick_f(neg, -0.5, 0.5)) as i32;
    let k_one = pick(neg, -1i32 as u32, 1);
    let k = pick(hx < 0x3f85_1592, k_one, k_round as u32);
    let k = pick(hx > 0x3eb1_7218, k, 0) as i32;
    let t = k as f32;
    let hi = x - t * LN2_HI;
    let lo = t * LN2_LO;
    let xr = hi - lo;
    let c = (hi - xr) - lo;

    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - xr * t));
    let k_zero = xr - (xr * e - hxs);
    let e = xr * (e - c) - c - hxs;
    let k_minus_one = 0.5 * (xr - e) - 0.5;
    let k_plus_one = pick_f(xr < -0.25, -2.0 * (e - (xr + 0.5)), 1.0 + 2.0 * (xr - e));
    // The other tails scale by 2^k through the exponent field; 2^-k is
    // built the same way, so no lane needs a variable shift.
    let scale = (k as u32) << 23;
    let two_mk = f32::from_bits(0x7f_u32.wrapping_sub(k as u32) << 23);
    let by_2k = |y: f32| f32::from_bits(y.to_bits().wrapping_add(scale));
    let k_far = by_2k(1.0 - (e - xr)) - 1.0;
    let k_near = by_2k((1.0 - two_mk) - (e - xr));
    let k_mid = by_2k((xr - (e + two_mk)) + 1.0);

    let y = pick_f(k <= 22, k_near, k_mid);
    let y = pick_f(k <= -2 || k > 56, k_far, y);
    let y = pick_f(k == 1, k_plus_one, y);
    let y = pick_f(k == -1, k_minus_one, y);
    let y = pick_f(k == 0, k_zero, y);
    pick_f(hx < 0x3300_0000, x, y)
}

/// Numerically stable logistic sigmoid: `(x ≥ 0 ? 1 : e) / (1 + e)` with
/// `e = e^-|x|`, the two-branch form's arithmetic chosen by a mask.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    let e = expf(-x.abs());
    pick_f(x >= 0.0, 1.0, e) / (1.0 + e)
}

/// [`sigmoid`] of every element, in place.
pub fn sigmoid_slice(xs: &mut [f32]) {
    for x in xs {
        *x = sigmoid(*x);
    }
}

/// Derivative of sigmoid given its output `s = sigmoid(x)`.
#[inline]
pub fn sigmoid_deriv_from_output(s: f32) -> f32 {
    s * (1.0 - s)
}

/// Hyperbolic tangent, bit-identical to fdlibm's `tanhf`.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let big = ix >= 0x3f80_0000;
    let ax2 = 2.0 * x.abs();
    // |x| ≥ 1: 1 − 2/(e^2|x| + 1); below: −(e^-2|x| − 1)/(e^-2|x| + 1).
    let t = expm1f(pick_f(big, ax2, -ax2));
    let q = pick_f(big, 2.0, -t) / (t + 2.0);
    let z = pick_f(big, 1.0 - q, q);
    let z = pick_f(ix >= 0x41b0_0000, 1.0, z);
    let z = pick_f(x.is_sign_negative(), -z, z);
    let z = pick_f(ix < 0x2400_0000, x * (1.0 + x), z);
    pick_f(ix > 0x7f80_0000, x + x, z)
}

/// [`tanh`] of every element, in place.
pub fn tanh_slice(xs: &mut [f32]) {
    for x in xs {
        *x = tanh(*x);
    }
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
    /// Applies the activation to every element of `xs`, in place: one
    /// match per slice, not one per element.
    pub fn apply_slice(self, xs: &mut [f32]) {
        match self {
            Activation::Linear => {}
            Activation::Sigmoid => sigmoid_slice(xs),
            Activation::Tanh => tanh_slice(xs),
            Activation::Relu => xs.iter_mut().for_each(|x| *x = relu(*x)),
        }
    }

    /// Applies the activation elementwise.
    pub fn apply(self, m: &Matrix) -> Matrix {
        let mut out = m.clone();
        self.apply_slice(out.as_mut_slice());
        out
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

    /// `libm`'s `expf` as glibc's FMA build computes it. On a host whose
    /// glibc takes the non-FMA path, `f32::exp` differs from the FMA build
    /// (and from the port) on exactly two inputs, `0x4202422f` and
    /// `0xc27c65d9`: those are pinned to the port's values, so the
    /// comparison holds on either build.
    fn libm_expf(x: f32) -> f32 {
        match x.to_bits() {
            0x4202_422f => f32::from_bits(PINNED_EXPF[0].1),
            0xc27c_65d9 => f32::from_bits(PINNED_EXPF[1].1),
            _ => x.exp(),
        }
    }

    const PINNED_EXPF: [(u32, u32); 2] = [(0x4202_422f, 0x56fc_9f1c), (0xc27c_65d9, 0x11fa_2993)];

    /// The two-branch sigmoid over `libm`, as this module computed it
    /// before the port.
    fn libm_sigmoid(x: f32) -> f32 {
        if x >= 0.0 {
            let e = libm_expf(-x);
            1.0 / (1.0 + e)
        } else {
            let e = libm_expf(x);
            e / (1.0 + e)
        }
    }

    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Checks `expf`, `sigmoid` and `tanh` (scalar and slice) on `bits`
    /// against `libm`, and returns how many inputs disagreed.
    fn mismatches(bits: impl Iterator<Item = u32>) -> usize {
        let xs: Vec<f32> = bits.map(f32::from_bits).collect();
        let (mut sig, mut th) = (xs.clone(), xs.clone());
        sigmoid_slice(&mut sig);
        tanh_slice(&mut th);
        let mut bad = 0;
        for (i, &x) in xs.iter().enumerate() {
            let ok = same(expf(x), libm_expf(x))
                && same(sigmoid(x), libm_sigmoid(x))
                && same(sig[i], libm_sigmoid(x))
                && same(tanh(x), x.tanh())
                && same(th[i], x.tanh());
            if !ok && bad < 8 {
                eprintln!(
                    "{:#010x}: expf {:#010x}/{:#010x} sigmoid {:#010x}/{:#010x} tanh {:#010x}/{:#010x}",
                    x.to_bits(),
                    expf(x).to_bits(),
                    libm_expf(x).to_bits(),
                    sig[i].to_bits(),
                    libm_sigmoid(x).to_bits(),
                    th[i].to_bits(),
                    x.tanh().to_bits()
                );
            }
            bad += usize::from(!ok);
        }
        bad
    }

    #[test]
    fn port_matches_libm_on_a_strided_sweep_and_every_branch_edge() {
        let strided = (0..=u32::MAX / 4099).map(|i| i * 4099);
        assert_eq!(mismatches(strided), 0);

        let edges = [
            0x3eb1_7218, // expm1f: 0.5 ln2, the k = 0 / k = ±1 boundary
            0x3f85_1592, // expm1f: 1.5 ln2, forced k = ±1 ends
            0x41b0_0000, // tanhf: 22, saturation to ±1
            0x2400_0000, // tanhf: 2^-55, x·(1 + x)
            0x3f80_0000, // tanhf: 1, which side calls expm1f
            0x42b0_0000, // expf: 88, glibc's special-case filter
            0xc2cf_f1b4, // expf: underflow to 0
            0xc2ce_8ecf, // expf: gradual underflow to 2^-149
            0x42b1_7217, // expf: overflow to +inf
            0x3300_0000, // expm1f: 2^-25, returns x
            0x0000_0000, // ±0
            0x0000_0001, // smallest subnormal
            0x007f_ffff, // largest subnormal
            0x0080_0000, // smallest normal
            0x7f80_0000, // +inf
            0x7fc0_0000, // quiet NaN
            0x7f80_0001, // signalling NaN
        ];
        let around = edges
            .iter()
            .flat_map(|&b: &u32| b.saturating_sub(64)..=b.saturating_add(64))
            .flat_map(|b| [b, b | 0x8000_0000]);
        assert_eq!(mismatches(around), 0);
    }

    #[test]
    fn the_fma_reduction_is_pinned() {
        for (x, y) in PINNED_EXPF {
            assert_eq!(expf(f32::from_bits(x)).to_bits(), y, "{x:#010x}");
        }
    }

    /// All 2³² inputs (~4 min in release on one core):
    /// `cargo test --release -p eventhit-nn exhaustive -- --ignored`.
    #[test]
    #[ignore = "all 2^32 inputs; run in release"]
    fn exhaustive_port_matches_libm_on_every_input() {
        const CHUNK: u32 = 1 << 16;
        let bad: usize = (0..=u32::MAX / CHUNK)
            .map(|c| mismatches(c * CHUNK..=c * CHUNK + (CHUNK - 1)))
            .sum();
        assert_eq!(bad, 0);
    }

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
