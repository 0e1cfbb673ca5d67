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
//! One row of `x` runs down a ladder of tiles: 64 outputs at a time on
//! a CPU with AVX2 (32 on the baseline), then at most one tile each of
//! 32, 16 and 8, then single outputs. A batch runs in blocks of four
//! rows that share every weight load, so the panel streams once per
//! block, not once per row: 16-wide tiles at the top of the ladder on
//! AVX2 (the same eight accumulator registers as one row's 64), 64-wide
//! ones on AVX-512, whose 32 registers hold 16 accumulators. Each output
//! of each row owns one accumulator that starts at `0.0` and adds
//! `x[k] * w[k][j]` for `k = 0, 1, …` — multiply, then add, no fused
//! multiply-add, no reassociation, no skipped terms. Tiling and blocking
//! only choose *which outputs and rows share a pass over `k`*; they never
//! touch the order inside one chain, so every result is bit-identical to
//! the naive chains the kernel-equivalence tests hold it to. What
//! vectorises is the tile (independent outputs side by side in one
//! register); what does not is the reduction over `k`, which stays a
//! serial chain per output, so a pass runs as fast as the chains it
//! keeps in flight.
//!
//! The int8 lane ([`crate::quant`]) runs on the same panels and the same
//! tile loop: its weight and activation codes are integers in
//! `[-127, 127]` held as `f32`, so a chain of at most 1040 products stays
//! below `2^24` (`1040 · 127² = 16 774 160`) and is an exact integer at
//! every step; deeper reductions are cut into blocks of that many rows
//! whose exact sums meet in `i32`.
//!
//! The inference forms (`forward_into` for one row, `forward_rows_into`
//! for a block of rows) write into caller-provided slices: after a plan
//! and its scratch exist, a forward allocates nothing. The batched forms
//! training runs return one fresh matrix per call.

use crate::dispatch::{self, Isa, Kernel};
use crate::matrix::Matrix;

/// Outputs per register tile of one row on the baseline: 32 `f32`
/// accumulators are eight 128-bit registers, which leaves the baseline
/// x86-64 register file room for the broadcast input element and the
/// weight loads.
const TILE: usize = 32;
/// Outputs per register tile of one row on AVX2 and AVX-512: eight
/// 256-bit registers, or four 512-bit ones.
const WIDE_TILE: usize = 64;
/// Rows per block of a batched sweep: each weight a tile loads feeds
/// this many rows' chains, so a block streams the panel once, not once
/// per row. Where the register file has 16 registers (baseline, AVX2) a
/// block's tile is this many times narrower than one row's, so it holds
/// the same eight accumulators; AVX-512's 32 registers hold a block of
/// 64-wide tiles, 16 accumulators. Four rows trained faster than two at
/// both AVX2 and AVX-512 (DESIGN §11).
const ROW_BLOCK: usize = 4;
/// The most outputs one tile hands its epilogue: an array this long
/// holds any tile's worth of results.
pub(crate) const MAX_TILE: usize = WIDE_TILE;
/// The widest instruction set a sweep with no whole row block runs at:
/// the serving forward's one row. Its AVX-512 copy measured no faster
/// than the AVX2 one: one row's chains are serial over `k`, and the
/// AVX2 tile already keeps eight in flight.
const SWEEP_ISA: Isa = Isa::Avx2;
/// The widest instruction set a sweep of [`ROW_BLOCK`] rows or more runs
/// at: AVX-512's 32 registers keep 16 chains in flight per weight load,
/// where AVX2's 16 keep eight.
const BLOCK_ISA: Isa = Isa::Avx512;

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

/// The dot products of each of the `R` rows `xs` with outputs
/// `j0 .. j0 + N` of a panel: one chain per row and output, from `0.0`,
/// over ascending `k`. Each weight row's tile is loaded once for all
/// `R` rows.
#[inline(always)]
fn tile_dots<const N: usize, const R: usize>(
    w: &[f32],
    out_dim: usize,
    j0: usize,
    xs: [&[f32]; R],
) -> [[f32; N]; R] {
    let depth = xs[0].len();
    let xs = xs.map(|x| &x[..depth]);
    let mut acc = [[0.0f32; N]; R];
    for (row, k) in w.chunks_exact(out_dim).zip(0..depth) {
        let row: &[f32; N] = row[j0..j0 + N]
            .try_into()
            .expect("the slice is N long by construction");
        for (acc, x) in acc.iter_mut().zip(xs) {
            let a = x[k];
            for (o, &b) in acc.iter_mut().zip(row) {
                *o += a * b;
            }
        }
    }
    acc
}

/// [`tile_dots`] for either lane. With `CODES`, `w` and `xs` hold int8
/// codes, so a chain of up to [`EXACT_ROWS`] rows is already the exact
/// integer dot; a deeper panel is cut into blocks of that many rows,
/// each its own exact chain, and the blocks' sums are added in `i32` —
/// together the `i8 × i8 → i32` dot, converted to `f32` once.
#[inline(always)]
fn tile<const N: usize, const R: usize, const CODES: bool>(
    w: &[f32],
    out_dim: usize,
    j0: usize,
    xs: [&[f32]; R],
) -> [[f32; N]; R] {
    if !CODES || xs[0].len() <= EXACT_ROWS {
        return tile_dots::<N, R>(w, out_dim, j0, xs);
    }
    let mut total = [[0i32; N]; R];
    for (b, w) in w.chunks(EXACT_ROWS * out_dim).enumerate() {
        let k0 = b * EXACT_ROWS;
        let xs = xs.map(|x| &x[k0..x.len().min(k0 + EXACT_ROWS)]);
        let dots = tile_dots::<N, R>(w, out_dim, j0, xs);
        for (t, a) in total.iter_mut().flatten().zip(dots.iter().flatten()) {
            *t += *a as i32;
        }
    }
    total.map(|t| t.map(|t| t as f32))
}

/// Calls `finish(j0, dots, &mut out_row[j0..j0 + dots.len()])` once per
/// tile of each of the `rows` rows of `out`, where `dots[t]` is
/// `dot_{j0 + t}` of that row of `x` with the `[k][out]` panel `w`:
/// every output of every row is finished exactly once, as one element of
/// its tile. An epilogue written as a zip over the tile's slices
/// vectorises inside the dispatched copy, where one call per output
/// would be a scalar, bounds-checked step. `CODES` says the panel and
/// `x` hold int8 codes (see [`tile`]); without it every dot is one `f32`
/// chain. One row is the serving forward; more are a batched product.
///
/// The sweep runs as [`Sweep`] compiled for the widest instruction set
/// this CPU has, up to [`BLOCK_ISA`] for [`ROW_BLOCK`] rows or more and
/// up to [`SWEEP_ISA`] for fewer: in blocks of [`ROW_BLOCK`] rows, then
/// row by row, each down the tile ladder (see [`Sweep::blocks`]). Every
/// copy computes every chain with the same operations in the same order,
/// so all give the same bits.
///
/// # Panics
/// Panics unless `x` and `out` are `rows` rows each and `w` is their
/// widths' product.
#[inline(always)]
pub(crate) fn sweep<const CODES: bool>(
    w: &[f32],
    rows: usize,
    x: &[f32],
    out: &mut [f32],
    finish: impl Fn(usize, &[f32], &mut [f32]),
) {
    let (depth, out_dim) = (x.len() / rows.max(1), out.len() / rows.max(1));
    assert_eq!(x.len(), rows * depth, "input length mismatch");
    assert_eq!(out.len(), rows * out_dim, "output length mismatch");
    if out.is_empty() {
        return;
    }
    assert_eq!(w.len(), depth * out_dim, "panel shape mismatch");
    let isa = if rows < ROW_BLOCK {
        SWEEP_ISA
    } else {
        BLOCK_ISA
    };
    dispatch::run(
        isa,
        Sweep::<CODES, _> {
            w,
            x,
            out,
            shape: [rows, depth, out_dim],
            finish,
        },
    );
}

/// The body of [`sweep`], as a [`Kernel`].
struct Sweep<'a, const CODES: bool, F> {
    w: &'a [f32],
    x: &'a [f32],
    out: &'a mut [f32],
    /// Rows of `x` and `out`, then each one's width: known where the
    /// sweep is called, and a constant there for a single row, so the
    /// body divides nothing.
    shape: [usize; 3],
    finish: F,
}

impl<const CODES: bool, F: Fn(usize, &[f32], &mut [f32])> Kernel for Sweep<'_, CODES, F> {
    type Out = ();

    #[inline(always)]
    fn run(self, isa: Isa) {
        match isa {
            Isa::Baseline => self.blocks::<TILE, { TILE / ROW_BLOCK }>(),
            Isa::Avx2 => self.blocks::<WIDE_TILE, { WIDE_TILE / ROW_BLOCK }>(),
            Isa::Avx512 => self.blocks::<WIDE_TILE, WIDE_TILE>(),
        }
    }
}

impl<const CODES: bool, F: Fn(usize, &[f32], &mut [f32])> Sweep<'_, CODES, F> {
    /// Blocks of [`ROW_BLOCK`] rows down the tile ladder from `B`
    /// outputs, then the rows left over one by one, from `T`.
    #[inline(always)]
    fn blocks<const T: usize, const B: usize>(self) {
        let (w, mut out, finish) = (self.w, self.out, &self.finish);
        let [rows, depth, out_dim] = self.shape;
        let x_row = |r: usize| &self.x[r * depth..][..depth];
        let mut out_row = || out.split_off_mut(..out_dim).expect("rows * out_dim long");
        let mut r = 0;
        while r + ROW_BLOCK <= rows {
            let outs = std::array::from_fn(|_| out_row());
            ladder::<B, ROW_BLOCK, CODES>(w, std::array::from_fn(|i| x_row(r + i)), outs, finish);
            r += ROW_BLOCK;
        }
        for r in r..rows {
            ladder::<T, 1, CODES>(w, [x_row(r)], [out_row()], finish);
        }
    }
}

/// The tile ladder of [`sweep`] over a block of `R` rows: tiles of `T`
/// outputs while they fit, then at most one of each narrower rung of
/// 32, 16 and 8, then single outputs, each finished as it completes. A
/// remainder runs as few tiles as it can, so its chains are in flight
/// together, where a run of one-register tiles would wait out each
/// chain's add latency in turn. The block's rows share each weight load.
/// Which outputs and rows share a tile never changes a chain, and an
/// epilogue does per-element work only, so every `T` and `R` give the
/// same bits.
#[inline(always)]
fn ladder<const T: usize, const R: usize, const CODES: bool>(
    w: &[f32],
    xs: [&[f32]; R],
    mut outs: [&mut [f32]; R],
    finish: &impl Fn(usize, &[f32], &mut [f32]),
) {
    let mut j = rung::<T, R, CODES>(w, xs, &mut outs, 0, finish);
    j = rung::<32, R, CODES>(w, xs, &mut outs, j, finish);
    j = rung::<16, R, CODES>(w, xs, &mut outs, j, finish);
    j = rung::<8, R, CODES>(w, xs, &mut outs, j, finish);
    rung::<1, R, CODES>(w, xs, &mut outs, j, finish);
}

/// Tiles of `N` outputs from output `j` on, while a whole one fits:
/// returns where the next rung starts.
#[inline(always)]
fn rung<const N: usize, const R: usize, const CODES: bool>(
    w: &[f32],
    xs: [&[f32]; R],
    outs: &mut [&mut [f32]; R],
    mut j: usize,
    finish: &impl Fn(usize, &[f32], &mut [f32]),
) -> usize {
    let out_dim = outs[0].len();
    while j + N <= out_dim {
        let dots = tile::<N, R, CODES>(w, out_dim, j, xs);
        for (dots, out) in dots.iter().zip(outs.iter_mut()) {
            finish(j, dots, &mut out[j..j + N]);
        }
        j += N;
    }
    j
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

    /// [`sweep`] over this panel: `rows` rows of `x` into as many of
    /// `out`.
    ///
    /// # Panics
    /// Panics if `x` or `out` has the wrong length.
    #[inline(always)]
    pub(crate) fn sweep<const CODES: bool>(
        &self,
        rows: usize,
        x: &[f32],
        out: &mut [f32],
        finish: impl Fn(usize, &[f32], &mut [f32]),
    ) {
        let (x_len, out_len) = (rows * self.in_dim, rows * self.out_dim);
        assert_eq!(x.len(), x_len, "packed panel input length mismatch");
        assert_eq!(out.len(), out_len, "packed panel output length mismatch");
        sweep::<CODES>(&self.w, rows, x, out, finish);
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
    /// bias is added.
    ///
    /// # Panics
    /// Panics if `x` or `out` has the wrong length.
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        self.forward(1, x, out);
    }

    /// [`PackedAffine::forward_into`] for `rows` rows of `x` into as many
    /// rows of `out`, in row blocks that share each weight load (see the
    /// module docs); allocates nothing. Every output is the chain
    /// [`PackedAffine::forward_into`] computes for its row.
    ///
    /// # Panics
    /// Panics if `x` or `out` is not `rows` rows long.
    pub fn forward_rows_into(&self, rows: usize, x: &[f32], out: &mut [f32]) {
        // One row is the serving forward's case: a constant row count
        // spares the sweep its divisions.
        match rows {
            1 => self.forward(1, x, out),
            _ => self.forward(rows, x, out),
        }
    }

    /// [`PackedAffine::forward_rows_into`] over every row of `x`, into a
    /// fresh matrix: the batched `x W^T + b` of training and of the
    /// reference forward.
    pub(crate) fn forward_rows(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.panel.out_dim);
        self.forward(x.rows(), x.as_slice(), out.as_mut_slice());
        out
    }

    /// `rows` rows of `x` through [`PackedAffine::forward_into`]'s
    /// arithmetic into as many rows of `out`.
    #[inline(always)]
    fn forward(&self, rows: usize, x: &[f32], out: &mut [f32]) {
        let bias = &self.bias;
        self.panel
            .sweep::<false>(rows, x, out, |j0, dots, out| add_bias(bias, j0, dots, out));
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
    /// complete as their own chains before they meet, then the bias is
    /// added. The `x` dots round-trip through `out` between the two
    /// sweeps, which is exact.
    ///
    /// # Panics
    /// Panics if `x`, `h` or `out` has the wrong length.
    pub fn forward_into(&self, x: &[f32], h: &[f32], out: &mut [f32]) {
        self.forward(1, x, h, out);
    }

    /// [`PackedGate::forward_into`] for `rows` row pairs of `x` and `h`
    /// into as many rows of `out`, in row blocks that share each weight
    /// load (see the module docs); allocates nothing.
    ///
    /// # Panics
    /// Panics if `x`, `h` or `out` is not `rows` rows long.
    pub fn forward_rows_into(&self, rows: usize, x: &[f32], h: &[f32], out: &mut [f32]) {
        // As in `PackedAffine::forward_rows_into`.
        match rows {
            1 => self.forward(1, x, h, out),
            _ => self.forward(rows, x, h, out),
        }
    }

    /// [`PackedGate::forward_rows_into`] over every row pair of `x` and
    /// `h`, into a fresh matrix: the batched gate pre-activation of one
    /// training timestep.
    ///
    /// # Panics
    /// Panics if `x` and `h` differ in rows or either has the wrong width.
    pub(crate) fn forward_rows(&self, x: &Matrix, h: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.wx.out_dim);
        self.forward(x.rows(), x.as_slice(), h.as_slice(), out.as_mut_slice());
        out
    }

    /// `rows` row pairs of `x` and `h` through
    /// [`PackedGate::forward_into`]'s arithmetic into as many rows of
    /// `out`.
    #[inline(always)]
    fn forward(&self, rows: usize, x: &[f32], h: &[f32], out: &mut [f32]) {
        self.wx
            .sweep::<false>(rows, x, out, |_, dots, out| out.copy_from_slice(dots));
        let bias = &self.bias;
        self.wh.sweep::<false>(rows, h, out, |j0, dots, out| {
            add_dots_and_bias(bias, j0, dots, out)
        });
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
        // 75 = a 64-wide tile (two 32-wide ones on the baseline), an
        // 8-wide one and three single outputs.
        let x = sample(5, 19, 1);
        let w = sample(75, 19, 2);
        let bias: Vec<f32> = (0..75).map(|i| (i as f32).sin()).collect();
        let want = x.affine_t_naive(&w, &bias);
        let affine = PackedAffine::pack(&w, &bias);
        let mut out = vec![0.0; 75];
        for r in 0..x.rows() {
            affine.forward_into(x.row(r), &mut out);
            assert_eq!(out, want.row(r));
        }
        // All five rows at once: a row block and a row left over.
        let mut rows = vec![0.0; 5 * 75];
        affine.forward_rows_into(5, x.as_slice(), &mut rows);
        assert_eq!(rows, want.as_slice());
    }

    #[test]
    fn gate_matches_the_naive_reference() {
        let x = sample(5, 5, 3);
        let h = sample(5, 12, 4);
        let wx = sample(48, 5, 5);
        let wh = sample(48, 12, 6);
        let bias: Vec<f32> = (0..48).map(|i| (i as f32).cos()).collect();
        let want = x.gate_affine_naive(&wx, &h, &wh, &bias);
        let gate = PackedGate::pack(&wx, &wh, &bias);
        let mut out = vec![f32::NAN; 48];
        for r in 0..x.rows() {
            gate.forward_into(x.row(r), h.row(r), &mut out);
            assert_eq!(out, want.row(r));
        }
        let mut rows = vec![f32::NAN; 5 * 48];
        gate.forward_rows_into(5, x.as_slice(), h.as_slice(), &mut rows);
        assert_eq!(rows, want.as_slice());
    }

    /// Every instantiation of the sweep body the CPU runs, up to
    /// [`BLOCK_ISA`], against the baseline: [`TILE`] wide there,
    /// [`WIDE_TILE`] wide on AVX2 and AVX-512. Every kernel-equivalence tile edge and
    /// depth, plus one depth past [`EXACT_ROWS`], for `f32` chains and for
    /// int8 codes, over one row block and a tail row; one weight is a NaN
    /// with a payload. Compared by bit pattern.
    #[test]
    fn both_instantiations_agree_bit_for_bit_on_every_tile_edge() {
        use crate::kernel_equivalence::{DEPTHS, TILE_OUTS};
        use eventhit_rng::Rng;
        let isas: Vec<Isa> = dispatch::available()
            .into_iter()
            .filter(|&isa| isa <= BLOCK_ISA)
            .collect();
        eprintln!("sweep instantiations run: {isas:?}");
        if isas.len() == 1 {
            eprintln!("this CPU has no AVX2: the baseline sweep is the only instantiation");
        }
        let rows = ROW_BLOCK + 1;
        let mut rng = StdRng::seed_from_u64(0xa5a2);
        for &n in TILE_OUTS {
            for &k in DEPTHS.iter().chain(&[EXACT_ROWS + 1]) {
                let mut floats: Vec<f32> = (0..(n + rows) * k)
                    .map(|_| rng.random_range(-2.0f32..2.0))
                    .collect();
                floats[k / 2 * n + n / 2] = f32::from_bits(0x7fc0_1234);
                let codes: Vec<f32> = (0..(n + rows) * k)
                    .map(|_| rng.random_range(-127i32..=127) as f32)
                    .collect();
                let (w, x) = floats.split_at(k * n);
                every_instantiation::<false>(&isas, w, x, rows, n);
                let (w, x) = codes.split_at(k * n);
                every_instantiation::<true>(&isas, w, x, rows, n);
            }
        }
    }

    /// Sweeps `w` over the `rows` rows of `x` into `n` outputs each at
    /// every `isas` instantiation, and holds each to the baseline's bits.
    fn every_instantiation<const CODES: bool>(
        isas: &[Isa],
        w: &[f32],
        x: &[f32],
        rows: usize,
        n: usize,
    ) {
        let at = |isa| {
            let mut out = vec![0.0f32; rows * n];
            let finish = |_, dots: &[f32], out: &mut [f32]| out.copy_from_slice(dots);
            dispatch::run(
                isa,
                Sweep::<CODES, _> {
                    w,
                    x,
                    out: &mut out,
                    shape: [rows, x.len() / rows, n],
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
                "{isa:?}: {rows} x {n} outputs, {} deep, codes {CODES}",
                x.len() / rows
            );
        }
    }

    /// The tiles a row of `n` outputs is cut into, widest first, when
    /// the ladder starts at `t`.
    fn ladder_widths(t: usize, n: usize) -> Vec<usize> {
        let mut widths = Vec::new();
        let mut left = n;
        for rung in [t, 32, 16, 8, 1] {
            while left >= rung {
                widths.push(rung);
                left -= rung;
            }
        }
        widths
    }

    /// The tile epilogue's indexing, at every instantiation the CPU runs:
    /// output `j`'s weight is `j` and row `r`'s `x` is `[r + 1]`, so its
    /// dot is `(r + 1) j`. Each call's `j0`, `dots` and `out` must line
    /// up, and the calls must finish every output of every row exactly
    /// once: per block of [`ROW_BLOCK`] rows (then per single row), each
    /// tile of the block's ladder once per row, widest tiles first.
    #[test]
    fn every_output_is_finished_once_at_its_own_index() {
        use std::cell::RefCell;
        for isa in dispatch::available() {
            let (t, b) = match isa {
                Isa::Baseline => (TILE, TILE / ROW_BLOCK),
                Isa::Avx2 => (WIDE_TILE, WIDE_TILE / ROW_BLOCK),
                Isa::Avx512 => (WIDE_TILE, WIDE_TILE),
            };
            let widths = [
                1,
                7,
                8,
                9,
                15,
                16,
                17,
                31,
                33,
                47,
                48,
                49,
                t - 1,
                t,
                t + 1,
                2 * t + 17,
            ];
            for (rows, n) in [1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1]
                .into_iter()
                .flat_map(|rows| widths.map(|n| (rows, n)))
            {
                let w: Vec<f32> = (0..n).map(|j| j as f32).collect();
                let x: Vec<f32> = (1..=rows).map(|r| r as f32).collect();
                let mut out = vec![f32::NAN; rows * n];
                let calls = RefCell::new(Vec::new());
                let finish = |j0: usize, dots: &[f32], out: &mut [f32]| {
                    assert_eq!(out.len(), dots.len(), "{isa:?}, tile at {j0}");
                    for (i, (o, &d)) in out.iter_mut().zip(dots).enumerate() {
                        assert!(o.is_nan(), "{isa:?}: output {} finished twice", j0 + i);
                        *o = d;
                    }
                    calls.borrow_mut().push((j0, dots.len()));
                };
                dispatch::run(
                    isa,
                    Sweep::<false, _> {
                        w: &w,
                        x: &x,
                        out: &mut out,
                        shape: [rows, 1, n],
                        finish,
                    },
                );
                let tiles = |top| {
                    ladder_widths(top, n).into_iter().scan(0, |j0, width| {
                        *j0 += width;
                        Some((*j0 - width, width))
                    })
                };
                let want: Vec<(usize, usize)> =
                    std::iter::repeat_n((b, ROW_BLOCK), rows / ROW_BLOCK)
                        .chain(std::iter::repeat_n((t, 1), rows % ROW_BLOCK))
                        .flat_map(|(top, r)| {
                            tiles(top).flat_map(move |tile| std::iter::repeat_n(tile, r))
                        })
                        .collect();
                let calls = calls.into_inner();
                assert_eq!(calls, want, "{isa:?}: tiles for {rows} x {n} outputs");
                for (r, row) in out.chunks(n).enumerate() {
                    assert!(
                        row.iter()
                            .enumerate()
                            .all(|(j, &o)| o == ((r + 1) * j) as f32),
                        "{isa:?}: row {r} of {rows} x {n}: {row:?}"
                    );
                }
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
