//! Kernel-equivalence property tests: the cache-blocked / 8-wide-unrolled
//! product kernels and the fused gate kernels must **bit-match** the
//! retained naive references on adversarial shapes — empty operands, 1×1,
//! prime dimensions, non-multiples of the unroll width and K-block, and
//! the million-multiply-add shapes training's head products reach. The
//! k-major packed inference kernels are held to the same references on
//! shapes around their 32- and 8-output tiles.
//!
//! Bit-identity (not tolerance) is the contract: every output element is
//! one accumulator chain over `k` in ascending order in both
//! implementations, so restructuring for cache and ILP must not change a
//! single ULP. The exact-lane golden fingerprints in the workspace tests
//! depend on this.

use eventhit_nn::matrix::Matrix;
use eventhit_nn::packed::{PackedAffine, PackedGate};
use eventhit_rng::rngs::StdRng;
use eventhit_rng::testkit::from_fn;
use eventhit_rng::{prop_assert_eq, property, Rng, SeedableRng};

/// Adversarial dimension pool: empty, unit, primes, powers of two, and
/// off-by-one neighbours of the 8-wide unroll width.
const DIMS: &[usize] = &[0, 1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 23, 31, 33, 64];

/// Output counts around the packed kernels' tiles: one output, one short
/// of a tile, a tile, one over, six tiles (the LSTM's gates), and six
/// tiles + a sub-tile + one (the head's `1 + H`).
const PACKED_OUTS: &[usize] = &[1, 31, 32, 33, 192, 201];
/// Reduction depths for the packed kernels: the model's (5, 37, 48, 53)
/// and ones no layer has.
const PACKED_KS: &[usize] = &[1, 5, 37, 48, 53, 257];

fn dim(rng: &mut StdRng) -> usize {
    DIMS[rng.random_range(0..DIMS.len())]
}

fn pick(rng: &mut StdRng, from: &[usize]) -> usize {
    from[rng.random_range(0..from.len())]
}

/// A matrix with ~25% exact zeros, so the kernels' zero-skip fast path is
/// exercised alongside dense values.
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

property! {
    #[test]
    fn matmul_bit_matches_naive(
        case in from_fn(|rng| {
            let (m, k, n) = (dim(rng), dim(rng), dim(rng));
            (matrix_of(rng, m, k), matrix_of(rng, k, n))
        }),
    ) {
        let (a, b) = case;
        prop_assert_eq!(a.matmul(&b), a.matmul_naive(&b));
    }

    #[test]
    fn t_matmul_bit_matches_naive(
        case in from_fn(|rng| {
            let (m, k, n) = (dim(rng), dim(rng), dim(rng));
            (matrix_of(rng, k, m), matrix_of(rng, k, n))
        }),
    ) {
        let (a, b) = case;
        prop_assert_eq!(a.t_matmul(&b), a.t_matmul_naive(&b));
    }

    #[test]
    fn matmul_t_bit_matches_naive(
        case in from_fn(|rng| {
            let (m, k, n) = (dim(rng), dim(rng), dim(rng));
            (matrix_of(rng, m, k), matrix_of(rng, n, k))
        }),
    ) {
        let (a, b) = case;
        prop_assert_eq!(a.matmul_t(&b), a.matmul_t_naive(&b));
    }

    #[test]
    fn affine_t_bit_matches_naive(
        case in from_fn(|rng| {
            let (m, k, n) = (dim(rng), dim(rng), dim(rng));
            let bias: Vec<f32> = (0..n).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            (matrix_of(rng, m, k), matrix_of(rng, n, k), bias)
        }),
    ) {
        let (x, w, bias) = case;
        prop_assert_eq!(x.affine_t(&w, &bias), x.affine_t_naive(&w, &bias));
    }

    #[test]
    fn fused_gate_affine_bit_matches_naive(
        case in from_fn(|rng| {
            let (m, xc, hc, n) = (dim(rng), dim(rng), dim(rng), dim(rng));
            let bias: Vec<f32> = (0..n).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            (
                matrix_of(rng, m, xc),
                matrix_of(rng, n, xc),
                matrix_of(rng, m, hc),
                matrix_of(rng, n, hc),
                bias,
            )
        }),
    ) {
        let (x, wx, h, wh, bias) = case;
        let fused = x.fused_gate_affine(&wx, &h, &wh, &bias);
        prop_assert_eq!(fused, x.fused_gate_affine_naive(&wx, &h, &wh, &bias));
    }

    #[test]
    fn packed_affine_bit_matches_naive(
        case in from_fn(|rng| {
            let (m, k, n) = (1 + dim(rng) % 4, pick(rng, PACKED_KS), pick(rng, PACKED_OUTS));
            let bias: Vec<f32> = (0..n).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            (matrix_of(rng, m, k), matrix_of(rng, n, k), bias)
        }),
    ) {
        let (x, w, bias) = case;
        let want = x.affine_t_naive(&w, &bias);
        let packed = PackedAffine::pack(&w, &bias);
        let mut out = vec![f32::NAN; w.rows()];
        for r in 0..x.rows() {
            packed.forward_into(x.row(r), &mut out);
            prop_assert_eq!(out.as_slice(), want.row(r));
        }
    }

    #[test]
    fn packed_gate_bit_matches_naive(
        case in from_fn(|rng| {
            let (m, n) = (1 + dim(rng) % 4, pick(rng, PACKED_OUTS));
            let (xc, hc) = (pick(rng, PACKED_KS), pick(rng, PACKED_KS));
            let bias: Vec<f32> = (0..n).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            (
                matrix_of(rng, m, xc),
                matrix_of(rng, n, xc),
                matrix_of(rng, m, hc),
                matrix_of(rng, n, hc),
                bias,
            )
        }),
    ) {
        let (x, wx, h, wh, bias) = case;
        let want = x.fused_gate_affine_naive(&wx, &h, &wh, &bias);
        let packed = PackedGate::pack(&wx, &wh, &bias);
        let mut out = vec![f32::NAN; wx.rows()];
        for r in 0..x.rows() {
            packed.forward_into(x.row(r), h.row(r), &mut out);
            prop_assert_eq!(out.as_slice(), want.row(r));
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
        let reference = a.matmul_naive(&b);
        assert_eq!(a.matmul(&b), reference, "matmul 16x256x{n}");
        assert_eq!(a.transpose().t_matmul(&b), reference, "t_matmul 16x256x{n}");
        assert_eq!(a.matmul_t(&b.transpose()), reference, "matmul_t 16x256x{n}");
    }
}

/// The K-block edge (K_BLOCK = 256): reduction depths 255/256/257 split
/// into one short panel, exactly one panel, and one panel plus a
/// single-column tail — all must bit-match the unpanelled naive loop.
#[test]
fn k_block_edges_bit_match_naive() {
    let mut rng = StdRng::seed_from_u64(0x6b1c);
    for k in [255usize, 256, 257, 511, 512, 513] {
        let a = matrix_of(&mut rng, 3, k);
        let b = matrix_of(&mut rng, k, 5);
        assert_eq!(a.matmul(&b), a.matmul_naive(&b), "k={k}");
        let bt = b.transpose();
        assert_eq!(a.matmul_t(&bt), a.matmul_t_naive(&bt), "k={k}");
        let bias = vec![0.25f32; 5];
        assert_eq!(
            a.affine_t(&bt, &bias),
            a.affine_t_naive(&bt, &bias),
            "k={k}"
        );
    }
}
