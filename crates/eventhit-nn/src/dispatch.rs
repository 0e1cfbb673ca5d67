//! The CPU dispatch: which instruction set the leaf kernels run on.
//!
//! A leaf kernel is one `#[inline(always)]` body, a [`Kernel`]. [`run`]
//! hands it to a wrapper compiled for the widest instruction set the
//! caller allows and the CPU has, so the same body exists once per
//! [`Isa`], each copy compiled for its own registers. The CPU is asked
//! once per process; no env var, Cargo feature, config field or flag
//! chooses. Every `#[target_feature]` of the crate and its only `unsafe`
//! call live in this file.
//!
//! Which kernel runs at which width (DESIGN §11):
//! - the activation slice pass (`activation::sigmoid_slice`/`tanh_slice`)
//!   runs up to [`Isa::Avx512`]: its `f64` reduction takes 8 lanes per
//!   register, the `EXP2F_TAB` lookup becomes a 512-bit gather and the
//!   bit-mask picks become mask-register blends;
//! - the packed tile sweep (`packed::sweep`) runs a single row, the
//!   serving forward, up to [`Isa::Avx2`]: its AVX-512 copy measured no
//!   faster, since each output's chain is serial by contract and 64
//!   outputs already fill the AVX2 tile's eight registers. A batched
//!   product's blocks of four rows run up to [`Isa::Avx512`]: its 32
//!   registers hold four rows of a 64-wide tile, 16 chains per weight
//!   load, where AVX2's 16 hold four rows of a 16-wide one; the
//!   benchmark fixture trained 10–14% faster on the AVX-512 blocks.
//!
//! Every copy gives the same bits. Each body does per-element
//! operations only, with the same operands in the same order, and a
//! wider register does the same IEEE-754 round-to-nearest operation per
//! lane. LLVM's `avx512f` implies `fma`, so the AVX-512 copy is compiled
//! where a fused multiply-add exists, but that cannot move a bit either:
//! Rust never contracts `a * b + c` into one (the AVX-512 copy compiles
//! it to a multiply, then an add), and no body calls `mul_add`. No
//! feature list here names `fma`, and CI fails if the release binary's
//! disassembly holds a fused multiply-add. The golden tests, and the
//! tests that run every instantiation in `available()` against the
//! baseline, are the proof.

use std::sync::OnceLock;

/// An instruction set a kernel can be compiled for, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Isa {
    /// Baseline x86-64 (SSE2), or whatever the target assumes elsewhere.
    Baseline,
    /// `x86_64` with AVX2: 256-bit registers.
    Avx2,
    /// `x86_64` with AVX-512F (and AVX2): 512-bit registers and mask
    /// registers.
    Avx512,
}

/// A leaf kernel's body, compiled once per [`Isa`] by [`run`].
pub(crate) trait Kernel {
    /// What the body returns.
    type Out;

    /// Runs the body. `isa` is the instruction set this copy is compiled
    /// for, a constant in each wrapper, so a body can pick a shape by it.
    /// Implementations must be `#[inline(always)]`: a body that is not
    /// inlined into the wrappers runs at the baseline width in all of
    /// them.
    fn run(self, isa: Isa) -> Self::Out;
}

/// The widest [`Isa`] this CPU runs, detected on the first call.
fn widest() -> Isa {
    static WIDEST: OnceLock<Isa> = OnceLock::new();
    *WIDEST.get_or_init(detect)
}

fn detect() -> Isa {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Isa::Avx512;
        }
        return Isa::Avx2;
    }
    Isa::Baseline
}

/// Every [`Isa`] this CPU runs, narrowest first: the instantiations a
/// test must hold to the baseline.
#[cfg(test)]
pub(crate) fn available() -> Vec<Isa> {
    [Isa::Baseline, Isa::Avx2, Isa::Avx512]
        .into_iter()
        .filter(|&isa| isa <= widest())
        .collect()
}

/// Runs `kernel` compiled for `up_to`, or for the widest [`Isa`] below it
/// that this CPU runs.
#[inline(always)]
pub(crate) fn run<K: Kernel>(up_to: Isa, kernel: K) -> K::Out {
    match up_to.min(widest()) {
        #[cfg(target_arch = "x86_64")]
        wide @ (Isa::Avx2 | Isa::Avx512) => {
            // SAFETY: `wide` is no wider than `widest()`, which found AVX2
            // (and, for `Avx512`, AVX-512F) on this CPU: every feature the
            // called wrapper enables.
            unsafe {
                match wide {
                    Isa::Avx512 => avx512(kernel),
                    _ => avx2(kernel),
                }
            }
        }
        _ => kernel.run(Isa::Baseline),
    }
}

/// `kernel`'s body compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<K: Kernel>(kernel: K) -> K::Out {
    kernel.run(Isa::Avx2)
}

/// `kernel`'s body compiled for AVX-512F, which implies AVX2 (and, in
/// LLVM, `fma`: see the module docs for why that moves no bit).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512<K: Kernel>(kernel: K) -> K::Out {
    kernel.run(Isa::Avx512)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Reports;

    impl Kernel for Reports {
        type Out = Isa;

        #[inline(always)]
        fn run(self, isa: Isa) -> Isa {
            isa
        }
    }

    #[test]
    fn each_isa_runs_its_own_copy_and_none_wider_than_the_cpu() {
        let isas = available();
        assert_eq!(isas[0], Isa::Baseline);
        assert_eq!(isas.last(), Some(&widest()));
        for &isa in &isas {
            assert_eq!(run(isa, Reports), isa);
        }
        assert_eq!(run(Isa::Avx512, Reports), widest());
        eprintln!("this CPU runs {isas:?}");
    }
}
