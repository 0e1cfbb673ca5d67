//! # eventhit-rng
//!
//! The workspace's zero-external-dependency random substrate. The build
//! environment is hermetic (no crates.io access), and the paper's
//! split-conformal guarantees (C-CLASSIFY / C-REGRESS) are only checkable
//! when every calibration draw is replayable, so the whole workspace runs on
//! this crate instead of `rand`/`proptest`.
//!
//! ## Algorithm
//!
//! * **Generator:** Xoshiro256++ (Blackman & Vigna), 256-bit state, period
//!   `2^256 - 1`, passes BigCrush. [`rngs::StdRng`] is an alias for it.
//! * **Seeding:** a `u64` seed is expanded to the 256-bit state with
//!   SplitMix64 ([`SeedableRng::seed_from_u64`]), the same discipline `rand`
//!   uses, so a single integer fully determines every downstream draw.
//! * **Streams:** [`rngs::StdRng::stream`] derives statistically independent
//!   generators for parallel workers from `(seed, stream_id)`;
//!   [`rngs::StdRng::jump`] / [`rngs::StdRng::long_jump`] give guaranteed
//!   non-overlapping subsequences (`2^128` / `2^192` steps apart).
//!
//! ## API compatibility
//!
//! The trait surface is a drop-in for the subset of `rand 0.9` the workspace
//! used: `StdRng::seed_from_u64`, `Rng::random`, `Rng::random_range`,
//! `Rng::random_bool`, `seq::SliceRandom::shuffle`, and `R: Rng + ?Sized`
//! generic bounds. Gaussians via Box–Muller live in [`normal`].
//!
//! ## Test harness
//!
//! [`testkit`] replaces `proptest` with a property-test macro
//! ([`property!`]) with shrinking-lite.

pub mod normal;
pub mod rngs;
pub mod seq;
mod splitmix;
pub mod testkit;
mod traits;

pub use splitmix::{mix64, SplitMix64};
pub use traits::{Rng, RngCore, SampleRange, SeedableRng, StandardUniform};
