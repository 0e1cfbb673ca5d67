//! Kernel-equivalence tests: every product runs on the packed panel's
//! tile sweep, and every output must equal the naive chain — `0.0`, then
//! `+= a * b` over ascending `k` — bit for bit, not within a tolerance.
//! The trained weights, and every golden fingerprint downstream of them,
//! depend on it.
//!
//! The sweep meets its operands in three roles, and each is held to the
//! naive oracles here:
//! - *packed*: `[out][k]` weights repacked k-major — [`Matrix::affine_t`]
//!   and the batched [`PackedAffine::forward_rows`] /
//!   [`PackedGate::forward_rows`] training runs, row-blocked, and
//!   serving's one-row `forward_into`;
//! - *in place*: a row-major right operand swept as it lies —
//!   [`Matrix::matmul`];
//! - *in place, transposed coefficients*: either operand of
//!   [`Matrix::t_matmul`] swept as it lies under the columns of the
//!   other, whichever is wider.
//!
//! Shapes are adversarial (empty, unit, primes, neighbours of the 8-wide
//! rung) and sit on the tile ladder's edges: one output, each rung of
//! 64 (the AVX2 tile), 32, 16 and 8 with its neighbours, 48 (BPTT's
//! `dpre Wh` and the shared layer's weight gradient), three 64-wide
//! tiles (the LSTM's gates), and three tiles + 8 + 1 (the head's
//! `1 + H`). Row counts cover every row-block tail. A quarter of every
//! operand is exact zeros, which no kernel may skip.

use crate::matrix::Matrix;
use crate::packed::{PackedAffine, PackedGate};
use eventhit_rng::rngs::StdRng;
use eventhit_rng::testkit::from_fn;
use eventhit_rng::{prop_assert, property, Rng, SeedableRng};

/// Adversarial dimension pool: empty, unit, primes, powers of two, and
/// off-by-one neighbours of the 8-wide rung.
const DIMS: &[usize] = &[0, 1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 23, 31, 33, 64];
/// Output counts on the tile ladder's edges (see the module docs).
pub(crate) const TILE_OUTS: &[usize] =
    &[1, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65, 192, 201];
/// Row counts: every row-block tail, on the first block and past many.
const TILE_ROWS: &[usize] = &[1, 2, 3, 4, 5, 63, 64, 65];
/// Reduction depths: the model's (5, 37, 48, 53) and ones no layer has.
pub(crate) const DEPTHS: &[usize] = &[1, 5, 37, 48, 53, 257];

fn pick(rng: &mut StdRng, from: &[usize]) -> usize {
    from[rng.random_range(0..from.len())]
}

/// A matrix with ~25% exact zeros.
fn matrix_of(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.random_range(0..4usize) == 0 {
                0.0
            } else {
                rng.random_range(-2.0f32..2.0)
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// One shape's operands: `m` rows of `x` (`k` deep) and `h` (`hk` deep),
/// and `n` outputs of weights `w` / `wh` with their bias.
#[derive(Clone, Debug)]
struct Case {
    x: Matrix,
    h: Matrix,
    w: Matrix,
    wh: Matrix,
    bias: Vec<f32>,
}

impl Case {
    fn new(rng: &mut StdRng, m: usize, k: usize, hk: usize, n: usize) -> Case {
        Case {
            x: matrix_of(rng, m, k),
            h: matrix_of(rng, m, hk),
            w: matrix_of(rng, n, k),
            wh: matrix_of(rng, n, hk),
            bias: (0..n).map(|_| rng.random_range(-1.0f32..1.0)).collect(),
        }
    }

    /// The products whose bits differ from their oracle's.
    fn mismatches(&self) -> Vec<&'static str> {
        let Case { x, h, w, wh, bias } = self;
        let b = w.transpose();
        let at = x.transpose();
        let affine = x.affine_t_naive(w, bias);
        let gate = x.gate_affine_naive(w, h, wh, bias);
        let packed_affine = PackedAffine::pack(w, bias);
        let packed_gate = PackedGate::pack(w, wh, bias);
        let affine_batch = packed_affine.forward_rows(x);
        let gate_batch = packed_gate.forward_rows(x, h);
        let mut affine_rows = Matrix::filled(x.rows(), w.rows(), f32::NAN);
        let mut gate_rows = affine_rows.clone();
        for r in 0..x.rows() {
            packed_affine.forward_into(x.row(r), affine_rows.row_mut(r));
            packed_gate.forward_into(x.row(r), h.row(r), gate_rows.row_mut(r));
        }
        let checks = [
            ("matmul", x.matmul(&b), x.matmul_naive(&b)),
            ("t_matmul", at.t_matmul(&b), at.t_matmul_naive(&b)),
            ("affine_t", x.affine_t(w, bias), affine.clone()),
            ("PackedAffine::forward_rows", affine_batch, affine.clone()),
            ("PackedGate::forward_rows", gate_batch, gate.clone()),
            ("PackedAffine::forward_into", affine_rows, affine),
            ("PackedGate::forward_into", gate_rows, gate),
        ];
        checks
            .into_iter()
            .filter(|(_, got, want)| bits(got) != bits(want))
            .map(|(name, _, _)| name)
            .collect()
    }
}

fn bits(m: &Matrix) -> ((usize, usize), Vec<u32>) {
    (
        m.shape(),
        m.as_slice().iter().map(|v| v.to_bits()).collect(),
    )
}

property! {
    #[test]
    fn every_role_bit_matches_the_naive_chain(
        case in from_fn(|rng| {
            let (m, k, hk) = (pick(rng, DIMS), pick(rng, DIMS), pick(rng, DIMS));
            let n = if rng.random_range(0..2usize) == 0 {
                pick(rng, DIMS)
            } else {
                pick(rng, TILE_OUTS)
            };
            Case::new(rng, m, k, hk, n)
        }),
    ) {
        let bad = case.mismatches();
        prop_assert!(bad.is_empty(), "{bad:?} differ on x {:?} h {:?} w {:?}",
            case.x.shape(), case.h.shape(), case.w.shape());
    }
}

/// Every tile edge against every depth and row count, in every role.
#[test]
fn tile_edges_bit_match_the_naive_chain() {
    let mut rng = StdRng::seed_from_u64(0x711e);
    for &n in TILE_OUTS {
        for &k in DEPTHS {
            for &m in TILE_ROWS {
                let hk = pick(&mut rng, DEPTHS);
                let case = Case::new(&mut rng, m, k, hk, n);
                assert_eq!(
                    case.mismatches(),
                    Vec::<&str>::new(),
                    "{m} rows, {n} outputs, {k} deep"
                );
            }
        }
    }
}

/// Products of about 2^20 multiply-adds (16 x 256 x {255, 256, 257}) —
/// the size of training's head products — in all three orientations.
#[test]
fn million_flop_products_bit_match_naive() {
    let mut rng = StdRng::seed_from_u64(0xb10c);
    for n in [255usize, 256, 257] {
        let a = matrix_of(&mut rng, 16, 256);
        let b = matrix_of(&mut rng, 256, n);
        let want = bits(&a.matmul_naive(&b));
        assert_eq!(bits(&a.matmul(&b)), want, "matmul 16x256x{n}");
        assert_eq!(
            bits(&a.transpose().t_matmul(&b)),
            want,
            "t_matmul 16x256x{n}"
        );
        assert_eq!(
            bits(&PackedAffine::pack(&b.transpose(), &vec![0.0; n]).forward_rows(&a)),
            bits(&a.affine_t_naive(&b.transpose(), &vec![0.0; n])),
            "PackedAffine::forward_rows 16x256x{n}"
        );
    }
}
