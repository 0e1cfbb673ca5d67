//! K-major packed weight panels: the one product kernel, for training and
//! for both inference lanes.
//!
//! A trained layer stores its weights `[out][k]` (row `j` holds output
//! unit `j`), which is what backprop wants but makes a row kernel walk
//! several weight rows at a stride. A packed panel is the same matrix
//! repacked as `[k][out]`: for one input element `x[k]` the weights of
//! *all* outputs are contiguous, so a tile of outputs is updated with
//! plain vector loads. Serving packs once, at plan-compile time; the
//! training forward packs once per batch. A row-major `k x n` matrix
//! already *is* a `[k][out]` panel, so the backward products
//! ([`Matrix::matmul`], [`Matrix::t_matmul`]) sweep a row-major operand
//! in place, with no repack.
//!
//! The kernels process 32 outputs at a time (64 on a CPU with AVX2,
//! where `sweep` runs the loop's AVX2 copy; then 8, then one), each
//! output owning one accumulator that starts at `0.0` and adds
//! `x[k] * w[k][j]` for `k = 0, 1, …` — multiply, then add, no fused
//! multiply-add, no reassociation, no skipped terms. Tiling only chooses
//! *which outputs share a pass over `x`*; it never touches the order
//! inside one output's chain, so every result is bit-identical to the
//! naive chains the kernel-equivalence tests hold it to. What vectorises
//! is the tile (independent outputs side by side in one register); what
//! does not is the reduction over `k`, which stays a serial chain per
//! output.
//!
//! The int8 lane ([`crate::quant`]) runs on the same panels and the same
//! tile loop: its weight and activation codes are integers in
//! `[-127, 127]` held as `f32`, so a chain of at most 1040 products stays
//! below `2^24` (`1040 · 127² = 16 774 160`) and is an exact integer at
//! every step; deeper reductions are cut into blocks of that many rows
//! whose exact sums meet in `i32`.
//!
//! The serving forms (`forward_into`) write into caller-provided slices:
//! after a plan and its scratch exist, a forward allocates nothing. The
//! batched forms training runs return one fresh matrix per call.

use crate::dispatch::{self, Isa, Kernel};
use crate::matrix::Matrix;

/// Outputs per register tile: 32 `f32` accumulators are eight 128-bit
/// registers, which leaves the baseline x86-64 register file room for
/// the broadcast input element and the weight loads.
const TILE: usize = 32;
/// Outputs per register tile on AVX2: the same eight registers, each
/// 256 bits wide.
const WIDE_TILE: usize = 64;
/// Outputs per tile for the part of a row narrower than a full tile.
const SUBTILE: usize = 8;
/// The most outputs one tile hands its epilogue: an array this long
/// holds any tile's worth of results.
pub(crate) const MAX_TILE: usize = WIDE_TILE;
/// The widest instruction set the sweep runs at. Its AVX-512 copy
/// measured no faster than the AVX2 one: the reduction over `k` is a
/// serial chain per output, and the AVX2 tile already keeps eight
/// chains in flight.
const SWEEP_ISA: Isa = Isa::Avx2;

/// The deepest reduction whose every partial sum of int8-code products
/// is an integer `f32` holds exactly: `1040 · 127² < 2^24 < 1041 · 127²`.
pub(crate) const EXACT_ROWS: usize = (1 << 24) / (127 * 127);

/// A weight matrix repacked `[k][out]` (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PackedPanel {
    in_dim: usize,
    out_dim: usize,
    w: Vec<f32>,
}

/// The dot products of `x` with outputs `j0 .. j0 + N` of a panel: one
/// chain per output, from `0.0`, over ascending `k`.
#[inline(always)]
fn tile_dots<const N: usize>(w: &[f32], out_dim: usize, j0: usize, x: &[f32]) -> [f32; N] {
    let mut acc = [0.0f32; N];
    for (row, &a) in w.chunks_exact(out_dim).zip(x) {
        let row: &[f32; N] = row[j0..j0 + N]
            .try_into()
            .expect("the slice is N long by construction");
        for (o, &b) in acc.iter_mut().zip(row) {
            *o += a * b;
        }
    }
    acc
}

/// [`tile_dots`] for either lane. With `CODES`, `w` and `x` hold int8
/// codes, so a chain of up to [`EXACT_ROWS`] rows is already the exact
/// integer dot; a deeper panel is cut into blocks of that many rows,
/// each its own exact chain, and the blocks' sums are added in `i32` —
/// together the `i8 × i8 → i32` dot, converted to `f32` once.
#[inline(always)]
fn tile<const N: usize, const CODES: bool>(
    w: &[f32],
    out_dim: usize,
    j0: usize,
    x: &[f32],
) -> [f32; N] {
    if !CODES || x.len() <= EXACT_ROWS {
        return tile_dots::<N>(w, out_dim, j0, x);
    }
    let mut total = [0i32; N];
    for (w, x) in w.chunks(EXACT_ROWS * out_dim).zip(x.chunks(EXACT_ROWS)) {
        for (t, a) in total.iter_mut().zip(tile_dots::<N>(w, out_dim, j0, x)) {
            *t += a as i32;
        }
    }
    total.map(|t| t as f32)
}

/// Calls `finish(j0, dots, &mut out[j0..j0 + dots.len()])` once per tile
/// of the `[k][out]` panel `w` (`x.len()` rows of `out.len()` weights),
/// where `dots[t]` is `dot_{j0 + t}(x)`: every output is finished exactly
/// once, as one element of its tile. An epilogue written as a zip over
/// the tile's slices vectorises inside the dispatched copy, where one
/// call per output would be a scalar, bounds-checked step. `CODES` says
/// the panel and `x` hold int8 codes (see [`tile`]); without it every
/// dot is one `f32` chain.
///
/// The sweep runs as [`Sweep`] compiled for the widest instruction set
/// this CPU has, up to [`SWEEP_ISA`]: on AVX2 with [`WIDE_TILE`]-wide
/// tiles, elsewhere [`TILE`]-wide. Every copy computes every chain with
/// the same operations in the same order, so all give the same bits.
///
/// # Panics
/// Panics if `w.len() != x.len() * out.len()`.
#[inline(always)]
pub(crate) fn sweep<const CODES: bool>(
    w: &[f32],
    x: &[f32],
    out: &mut [f32],
    finish: impl Fn(usize, &[f32], &mut [f32]),
) {
    assert_eq!(w.len(), x.len() * out.len(), "panel shape mismatch");
    dispatch::run(SWEEP_ISA, Sweep::<CODES, _> { w, x, out, finish });
}

/// The body of [`sweep`], as a [`Kernel`].
struct Sweep<'a, const CODES: bool, F> {
    w: &'a [f32],
    x: &'a [f32],
    out: &'a mut [f32],
    finish: F,
}

impl<const CODES: bool, F: Fn(usize, &[f32], &mut [f32])> Kernel for Sweep<'_, CODES, F> {
    type Out = ();

    #[inline(always)]
    fn run(self, isa: Isa) {
        let Sweep { w, x, out, finish } = self;
        if isa == Isa::Baseline {
            sweep_tiles::<TILE, CODES>(w, x, out, finish);
        } else {
            sweep_tiles::<WIDE_TILE, CODES>(w, x, out, finish);
        }
    }
}

/// The tile loop of [`sweep`]: tiles of `T` outputs, then of
/// [`SUBTILE`], then single outputs, each finished as it completes.
/// Which outputs share a tile never changes a chain, and an epilogue
/// does per-element work only, so every `T` gives the same bits.
#[inline(always)]
fn sweep_tiles<const T: usize, const CODES: bool>(
    w: &[f32],
    x: &[f32],
    out: &mut [f32],
    finish: impl Fn(usize, &[f32], &mut [f32]),
) {
    let out_dim = out.len();
    if out_dim == 0 {
        return;
    }
    let mut j = 0;
    while j + T <= out_dim {
        let dots = tile::<T, CODES>(w, out_dim, j, x);
        finish(j, &dots, &mut out[j..j + T]);
        j += T;
    }
    while j + SUBTILE <= out_dim {
        let dots = tile::<SUBTILE, CODES>(w, out_dim, j, x);
        finish(j, &dots, &mut out[j..j + SUBTILE]);
        j += SUBTILE;
    }
    while j < out_dim {
        let dots = tile::<1, CODES>(w, out_dim, j, x);
        finish(j, &dots, &mut out[j..=j]);
        j += 1;
    }
}

/// The affine epilogue of one tile starting at output `j0`:
/// `out[t] = dots[t] + bias[j0 + t]`.
#[inline(always)]
pub(crate) fn add_bias(bias: &[f32], j0: usize, dots: &[f32], out: &mut [f32]) {
    for ((o, &d), &b) in out.iter_mut().zip(dots).zip(&bias[j0..j0 + dots.len()]) {
        *o = d + b;
    }
}

/// The gate epilogue of one tile starting at output `j0`, whose first
/// operand's dots are already in `out`:
/// `out[t] = (out[t] + dots[t]) + bias[j0 + t]`.
#[inline(always)]
pub(crate) fn add_dots_and_bias(bias: &[f32], j0: usize, dots: &[f32], out: &mut [f32]) {
    for ((o, &d), &b) in out.iter_mut().zip(dots).zip(&bias[j0..j0 + dots.len()]) {
        *o = (*o + d) + b;
    }
}

impl PackedPanel {
    /// Repacks `w` (`out x k`, the layout layers train in) as `[k][out]`.
    fn pack(w: &Matrix) -> Self {
        let (out_dim, in_dim) = w.shape();
        Self::from_fn(out_dim, in_dim, |j, k| w[(j, k)])
    }

    /// The `[k][out]` panel whose weight from input `k` to output `j` is
    /// `f(j, k)`.
    pub(crate) fn from_fn(out_dim: usize, in_dim: usize, f: impl Fn(usize, usize) -> f32) -> Self {
        let mut w = Vec::with_capacity(in_dim * out_dim);
        for k in 0..in_dim {
            w.extend((0..out_dim).map(|j| f(j, k)));
        }
        PackedPanel { in_dim, out_dim, w }
    }

    pub(crate) fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub(crate) fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// [`sweep`] over this panel.
    ///
    /// # Panics
    /// Panics if `x` or `out` has the wrong length.
    #[inline(always)]
    pub(crate) fn sweep<const CODES: bool>(
        &self,
        x: &[f32],
        out: &mut [f32],
        finish: impl Fn(usize, &[f32], &mut [f32]),
    ) {
        assert_eq!(x.len(), self.in_dim, "packed panel input length mismatch");
        assert_eq!(
            out.len(),
            self.out_dim,
            "packed panel output length mismatch"
        );
        sweep::<CODES>(&self.w, x, out, finish);
    }
}

/// A packed affine map `out = x W^T + b`: the inference form of a dense
/// layer's (or one GRU operand's) pre-activation.
///
/// ```
/// use eventhit_nn::matrix::Matrix;
/// use eventhit_nn::packed::PackedAffine;
/// let w = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
/// let affine = PackedAffine::pack(&w, &[0.5]);
/// let mut out = [0.0];
/// affine.forward_into(&[1.0, 2.0], &mut out);
/// assert_eq!(out, [11.5]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PackedAffine {
    panel: PackedPanel,
    bias: Vec<f32>,
}

impl PackedAffine {
    /// Packs `w` (`out x k`) with its bias (length `out`).
    ///
    /// # Panics
    /// Panics if `bias.len() != w.rows()`.
    pub fn pack(w: &Matrix, bias: &[f32]) -> Self {
        assert_eq!(bias.len(), w.rows(), "packed affine bias length mismatch");
        PackedAffine {
            panel: PackedPanel::pack(w),
            bias: bias.to_vec(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.panel.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.panel.out_dim
    }

    /// `out[j] = dot(x, w_j) + bias[j]`: the dot completes before the
    /// bias is added, as in `matmul_t` + `add_row_broadcast`.
    ///
    /// # Panics
    /// Panics if `x` or `out` has the wrong length.
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        let bias = &self.bias;
        self.panel
            .sweep::<false>(x, out, |j0, dots, out| add_bias(bias, j0, dots, out));
    }

    /// [`PackedAffine::forward_into`] for every row of `x`: the batched
    /// `x W^T + b` of training and of the reference forward.
    pub(crate) fn forward_rows(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.panel.out_dim);
        for r in 0..x.rows() {
            self.forward_into(x.row(r), out.row_mut(r));
        }
        out
    }
}

/// A packed fused recurrent gate `out = x Wx^T + h Wh^T + b`: the
/// inference form of the LSTM's per-step pre-activation.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedGate {
    wx: PackedPanel,
    wh: PackedPanel,
    bias: Vec<f32>,
}

impl PackedGate {
    /// Packs the input weights `wx` (`out x d`), the recurrent weights
    /// `wh` (`out x hidden`) and the shared bias (length `out`).
    ///
    /// # Panics
    /// Panics if the three disagree about `out`.
    pub fn pack(wx: &Matrix, wh: &Matrix, bias: &[f32]) -> Self {
        assert_eq!(wx.rows(), wh.rows(), "packed gate gate-count mismatch");
        assert_eq!(bias.len(), wx.rows(), "packed gate bias length mismatch");
        PackedGate {
            wx: PackedPanel::pack(wx),
            wh: PackedPanel::pack(wh),
            bias: bias.to_vec(),
        }
    }

    /// `out[j] = (dot(x, wx_j) + dot(h, wh_j)) + bias[j]`: both dots
    /// complete as their own chains before they meet, as in `matmul_t` +
    /// `add_assign` + `add_row_broadcast`. The `x` dots round-trip
    /// through `out` between the two sweeps, which is exact.
    ///
    /// # Panics
    /// Panics if `x`, `h` or `out` has the wrong length.
    pub fn forward_into(&self, x: &[f32], h: &[f32], out: &mut [f32]) {
        self.wx
            .sweep::<false>(x, out, |_, dots, out| out.copy_from_slice(dots));
        let bias = &self.bias;
        self.wh.sweep::<false>(h, out, |j0, dots, out| {
            add_dots_and_bias(bias, j0, dots, out)
        });
    }

    /// [`PackedGate::forward_into`] for every row pair of `x` and `h`:
    /// the batched gate pre-activation of one training timestep.
    ///
    /// # Panics
    /// Panics if `x` and `h` differ in rows or either has the wrong width.
    pub(crate) fn forward_rows(&self, x: &Matrix, h: &Matrix) -> Matrix {
        assert_eq!(x.rows(), h.rows(), "packed gate batch mismatch");
        let mut out = Matrix::zeros(x.rows(), self.wx.out_dim);
        for r in 0..x.rows() {
            self.forward_into(x.row(r), h.row(r), out.row_mut(r));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_rng::rngs::StdRng;
    use eventhit_rng::SeedableRng;

    fn sample(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::uniform(rows, cols, -1.0, 1.0, &mut rng)
    }

    #[test]
    fn pack_transposes() {
        let w = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let p = PackedPanel::pack(&w);
        assert_eq!((p.in_dim, p.out_dim), (3, 2));
        assert_eq!(p.w, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn affine_matches_the_naive_reference_across_tile_edges() {
        // 75 = two full tiles, one sub-tile, three single outputs.
        let x = sample(3, 19, 1);
        let w = sample(75, 19, 2);
        let bias: Vec<f32> = (0..75).map(|i| (i as f32).sin()).collect();
        let want = x.affine_t_naive(&w, &bias);
        let affine = PackedAffine::pack(&w, &bias);
        let mut out = vec![0.0; 75];
        for r in 0..x.rows() {
            affine.forward_into(x.row(r), &mut out);
            assert_eq!(out, want.row(r));
        }
    }

    #[test]
    fn gate_matches_the_naive_reference() {
        let x = sample(2, 5, 3);
        let h = sample(2, 12, 4);
        let wx = sample(48, 5, 5);
        let wh = sample(48, 12, 6);
        let bias: Vec<f32> = (0..48).map(|i| (i as f32).cos()).collect();
        let want = x.fused_gate_affine_naive(&wx, &h, &wh, &bias);
        let gate = PackedGate::pack(&wx, &wh, &bias);
        let mut out = vec![f32::NAN; 48];
        for r in 0..x.rows() {
            gate.forward_into(x.row(r), h.row(r), &mut out);
            assert_eq!(out, want.row(r));
        }
    }

    /// Every instantiation of the sweep body the CPU runs, up to
    /// [`SWEEP_ISA`], against the baseline: [`TILE`] wide there,
    /// [`WIDE_TILE`] wide on AVX2. Every kernel-equivalence tile edge and
    /// depth, plus one depth past [`EXACT_ROWS`], for `f32` chains and for
    /// int8 codes; one weight is a NaN with a payload. Compared by bit
    /// pattern.
    #[test]
    fn both_instantiations_agree_bit_for_bit_on_every_tile_edge() {
        use crate::kernel_equivalence::{DEPTHS, TILE_OUTS};
        use eventhit_rng::Rng;
        let isas: Vec<Isa> = dispatch::available()
            .into_iter()
            .filter(|&isa| isa <= SWEEP_ISA)
            .collect();
        eprintln!("sweep instantiations run: {isas:?}");
        if isas.len() == 1 {
            eprintln!("this CPU has no AVX2: the baseline sweep is the only instantiation");
        }
        let mut rng = StdRng::seed_from_u64(0xa5a2);
        for &n in TILE_OUTS {
            for &k in DEPTHS.iter().chain(&[EXACT_ROWS + 1]) {
                let mut floats: Vec<f32> = (0..(n + 1) * k)
                    .map(|_| rng.random_range(-2.0f32..2.0))
                    .collect();
                floats[k / 2 * n + n / 2] = f32::from_bits(0x7fc0_1234);
                let codes: Vec<f32> = (0..(n + 1) * k)
                    .map(|_| rng.random_range(-127i32..=127) as f32)
                    .collect();
                let (w, x) = floats.split_at(k * n);
                every_instantiation::<false>(&isas, w, x, n);
                let (w, x) = codes.split_at(k * n);
                every_instantiation::<true>(&isas, w, x, n);
            }
        }
    }

    fn every_instantiation<const CODES: bool>(isas: &[Isa], w: &[f32], x: &[f32], n: usize) {
        let at = |isa| {
            let mut out = vec![0.0f32; n];
            let finish = |_, dots: &[f32], out: &mut [f32]| out.copy_from_slice(dots);
            dispatch::run(
                isa,
                Sweep::<CODES, _> {
                    w,
                    x,
                    out: &mut out,
                    finish,
                },
            );
            out.into_iter().map(f32::to_bits).collect::<Vec<_>>()
        };
        let base = at(Isa::Baseline);
        for &isa in isas {
            assert_eq!(
                at(isa),
                base,
                "{isa:?}: {n} outputs, {} deep, codes {CODES}",
                x.len()
            );
        }
    }

    /// The tile epilogue's indexing, at every instantiation the CPU runs:
    /// output `j`'s weight is `j` and `x = [1]`, so its dot is `j`. Each
    /// call's `j0`, `dots` and `out` must line up, and the calls must
    /// finish every output exactly once, in `T`-wide tiles, then
    /// [`SUBTILE`]-wide ones, then one-wide ones.
    #[test]
    fn every_output_is_finished_once_at_its_own_index() {
        use std::cell::RefCell;
        for isa in dispatch::available() {
            let t = if isa == Isa::Baseline {
                TILE
            } else {
                WIDE_TILE
            };
            for n in [1, 7, 8, 9, t - 1, t, t + 1, t + 8, t + 15, 2 * t + 17] {
                let w: Vec<f32> = (0..n).map(|j| j as f32).collect();
                let mut out = vec![f32::NAN; n];
                let calls = RefCell::new(Vec::new());
                let finish = |j0: usize, dots: &[f32], out: &mut [f32]| {
                    assert_eq!(out.len(), dots.len(), "{isa:?}, tile at {j0}");
                    for (i, (o, &d)) in out.iter_mut().zip(dots).enumerate() {
                        assert_eq!(d, (j0 + i) as f32, "{isa:?}, dot {i} of the tile at {j0}");
                        assert!(o.is_nan(), "{isa:?}: output {} finished twice", j0 + i);
                        *o = d;
                    }
                    calls.borrow_mut().push((j0, dots.len()));
                };
                dispatch::run(
                    isa,
                    Sweep::<false, _> {
                        w: &w,
                        x: &[1.0],
                        out: &mut out,
                        finish,
                    },
                );
                let (full, rest) = (n / t, n % t);
                let want: Vec<usize> = std::iter::repeat_n(t, full)
                    .chain(std::iter::repeat_n(SUBTILE, rest / SUBTILE))
                    .chain(std::iter::repeat_n(1, rest % SUBTILE))
                    .collect();
                let calls = calls.into_inner();
                let lens: Vec<usize> = calls.iter().map(|&(_, len)| len).collect();
                assert_eq!(lens, want, "{isa:?}: tile widths for {n} outputs");
                let starts = calls.iter().scan(0, |j, &(_, len)| {
                    let j0 = *j;
                    *j += len;
                    Some(j0)
                });
                assert!(
                    calls.iter().map(|&(j0, _)| j0).eq(starts),
                    "{isa:?}: tiles for {n} outputs start at {calls:?}"
                );
                assert!(out.iter().enumerate().all(|(j, &o)| o == j as f32));
            }
        }
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn forward_rejects_a_wrong_input_length() {
        let affine = PackedAffine::pack(&sample(4, 3, 7), &[0.0; 4]);
        affine.forward_into(&[1.0; 2], &mut [0.0; 4]);
    }
}
