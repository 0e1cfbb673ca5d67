//! Property-based testing with shrinking-lite — the in-repo `proptest`
//! replacement.
//!
//! A [`Strategy`] samples values from a seeded [`StdRng`] and optionally
//! proposes smaller failing candidates ([`Strategy::shrink`]). The
//! [`property!`](crate::property) macro wraps each property in a `#[test]` that runs a fixed
//! number of cases (default 64, override with `EVENTHIT_PT_CASES`) from a
//! seed derived from the test's name, so failures replay deterministically.
//!
//! ```ignore
//! eventhit_rng::property! {
//!     #[test]
//!     fn add_commutes(a in 0u64..100, b in 0u64..100) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! ```
//!
//! Dependent generation (proptest's `prop_compose!`) is covered by
//! [`from_fn`], which builds a strategy from any closure over the RNG.

use crate::rngs::StdRng;
use crate::traits::{Rng, SeedableRng};
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Why a single property case did not pass.
pub enum PropError {
    /// The case was rejected by `prop_assume!` — resample, don't fail.
    Reject,
    /// The property is false for this input.
    Fail(String),
}

/// The result type property bodies evaluate to.
pub type PropResult = Result<(), PropError>;

/// A generator of test inputs with optional shrinking.
pub trait Strategy {
    /// The type of generated values.
    type Value: Clone + Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Candidate "smaller" values to try when `v` fails. Shrinking-lite:
    /// a handful of candidates per step is enough to turn a wild failing
    /// case into a readable one; we don't chase minimality.
    fn shrink(&self, _v: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// A strategy that post-processes samples with `f` (no shrinking
    /// through the map — use [`from_fn`] if shrink quality matters).
    /// Named `prop_map` (as in proptest) so it never shadows
    /// `Iterator::map` on ranges.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Clone + Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// See [`Strategy::prop_map()`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    U: Clone + Debug,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn sample(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// A strategy from a closure over the RNG — the escape hatch for dependent
/// generation (no shrinking).
pub fn from_fn<T, F>(f: F) -> FromFn<F>
where
    T: Clone + Debug,
    F: Fn(&mut StdRng) -> T,
{
    FromFn { f }
}

/// See [`from_fn`].
pub struct FromFn<F> {
    f: F,
}

impl<T, F> Strategy for FromFn<F>
where
    T: Clone + Debug,
    F: Fn(&mut StdRng) -> T,
{
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        (self.f)(rng)
    }
}

/// A strategy that always yields `value` (proptest's `Just`).
pub fn just<T: Clone + Debug>(value: T) -> Just<T> {
    Just(value)
}

/// See [`just`].
#[derive(Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_strategy_impl {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                let lo = self.start;
                let mut out = Vec::new();
                if *v != lo {
                    out.push(lo);
                    let mid = lo + (*v - lo) / 2;
                    if mid != lo && mid != *v {
                        out.push(mid);
                    }
                }
                out
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                let lo = *self.start();
                let mut out = Vec::new();
                if *v != lo {
                    out.push(lo);
                    let mid = lo + (*v - lo) / 2;
                    if mid != lo && mid != *v {
                        out.push(mid);
                    }
                }
                out
            }
        }
    )*};
}
int_strategy_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_strategy_impl {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                let mut out = Vec::new();
                // Prefer zero when the range straddles it, else the start.
                let anchor = if self.start <= 0.0 && 0.0 < self.end { 0.0 } else { self.start };
                if *v != anchor {
                    out.push(anchor);
                    let mid = anchor + (*v - anchor) / 2.0;
                    if mid != anchor && mid != *v {
                        out.push(mid);
                    }
                }
                out
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
float_strategy_impl!(f32, f64);

/// Vector length specification: an exact `usize` or a `Range<usize>`.
pub trait IntoSizeRange {
    /// Returns `(min_len, max_len)` inclusive.
    fn bounds(&self) -> (usize, usize);
}

impl IntoSizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

impl IntoSizeRange for Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start < self.end, "empty length range");
        (self.start, self.end - 1)
    }
}

impl IntoSizeRange for RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        (*self.start(), *self.end())
    }
}

/// A `Vec` of samples from `elem` with a length drawn from `len`
/// (proptest's `collection::vec`).
pub fn vec<S: Strategy, L: IntoSizeRange>(elem: S, len: L) -> VecStrategy<S> {
    let (min_len, max_len) = len.bounds();
    VecStrategy {
        elem,
        min_len,
        max_len,
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    elem: S,
    min_len: usize,
    max_len: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let len = rng.random_range(self.min_len..=self.max_len);
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.elem.sample(rng));
        }
        out
    }

    fn shrink(&self, v: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        // Structural shrinks first: shorter vectors fail more readably.
        if v.len() > self.min_len {
            let half = (v.len() / 2).max(self.min_len);
            if half < v.len() {
                out.push(v[..half].to_vec());
            }
            out.push(v[..v.len() - 1].to_vec());
        }
        // Element-wise: first shrink candidate per position, bounded.
        for i in 0..v.len().min(16) {
            if let Some(smaller) = self.elem.shrink(&v[i]).into_iter().next() {
                let mut copy = v.clone();
                copy[i] = smaller;
                out.push(copy);
            }
        }
        out
    }
}

macro_rules! tuple_strategy_impl {
    ($(($($s:ident / $v:ident / $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }

            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink(&v.$idx) {
                        let mut copy = v.clone();
                        copy.$idx = candidate;
                        out.push(copy);
                    }
                )+
                out
            }
        }
    )*};
}
tuple_strategy_impl! {
    (A / a / 0)
    (A / a / 0, B / b / 1)
    (A / a / 0, B / b / 1, C / c / 2)
    (A / a / 0, B / b / 1, C / c / 2, D / d / 3)
    (A / a / 0, B / b / 1, C / c / 2, D / d / 3, E / e / 4)
    (A / a / 0, B / b / 1, C / c / 2, D / d / 3, E / e / 4, F / f / 5)
}

enum Outcome {
    Pass,
    Reject,
    Fail(String),
}

fn check<V: Clone>(f: &dyn Fn(V) -> PropResult, v: &V) -> Outcome {
    let value = v.clone();
    match catch_unwind(AssertUnwindSafe(|| f(value))) {
        Ok(Ok(())) => Outcome::Pass,
        Ok(Err(PropError::Reject)) => Outcome::Reject,
        Ok(Err(PropError::Fail(msg))) => Outcome::Fail(msg),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".into());
            Outcome::Fail(format!("panicked: {msg}"))
        }
    }
}

/// FNV-1a over the test name: the per-test seed, so every property has its
/// own deterministic input stream.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs a property to completion; called by the [`property!`](crate::property) macro.
///
/// Panics (failing the enclosing `#[test]`) with the shrunk counterexample
/// on the first failing case.
pub fn run_property<S: Strategy>(name: &str, strat: S, f: impl Fn(S::Value) -> PropResult) {
    let cases: u64 = std::env::var("EVENTHIT_PT_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let mut rng = StdRng::seed_from_u64(name_seed(name));
    let mut passed = 0u64;
    let mut rejected = 0u64;

    while passed < cases {
        let value = strat.sample(&mut rng);
        match check(&f, &value) {
            Outcome::Pass => passed += 1,
            Outcome::Reject => {
                rejected += 1;
                assert!(
                    rejected <= cases * 16 + 256,
                    "property {name}: too many rejected cases ({rejected}); \
                     weaken prop_assume! or narrow the strategies"
                );
            }
            Outcome::Fail(msg) => {
                let (min_value, min_msg) = shrink_failure(&strat, &f, value, msg);
                panic!(
                    "property {name} failed after {passed} passing case(s)\n\
                     minimal failing input: {min_value:?}\n{min_msg}"
                );
            }
        }
    }
}

fn shrink_failure<S: Strategy>(
    strat: &S,
    f: &impl Fn(S::Value) -> PropResult,
    mut value: S::Value,
    mut msg: String,
) -> (S::Value, String) {
    for _ in 0..256 {
        let mut improved = false;
        for candidate in strat.shrink(&value) {
            if let Outcome::Fail(m) = check(f, &candidate) {
                value = candidate;
                msg = m;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    (value, msg)
}

/// Declares property-based `#[test]`s (the in-repo `proptest!`).
///
/// Each argument is `pattern in strategy`; the body may use
/// [`prop_assert!`](crate::prop_assert), [`prop_assert_eq!`](crate::prop_assert_eq), and [`prop_assume!`](crate::prop_assume).
#[macro_export]
macro_rules! property {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __strat = ($($strat,)+);
            #[allow(unreachable_code)]
            $crate::testkit::run_property(stringify!($name), __strat, move |__vals| {
                let ($($pat,)+) = __vals;
                $body
                Ok(())
            });
        }
    )*};
}

/// Asserts a condition inside a [`property!`](crate::property) body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::testkit::PropError::Fail(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::testkit::PropError::Fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a [`property!`](crate::property) body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return Err($crate::testkit::PropError::Fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                __l,
                __r,
                file!(),
                line!()
            )));
        }
    }};
}

/// Discards the current case (resampled, not counted) when the precondition
/// does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::testkit::PropError::Reject);
        }
    };
}
