//! Property-based tests of the matrix algebra underlying every layer.

use eventhit_nn::matrix::Matrix;
use eventhit_rng::testkit::{from_fn, Strategy};
use eventhit_rng::{prop_assert, prop_assert_eq, property, Rng};

const TOL: f32 = 1e-3;

fn close(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x - y).abs() <= TOL * (1.0 + x.abs().max(y.abs())))
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    from_fn(move |rng| {
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-10.0f32..10.0))
            .collect();
        Matrix::from_vec(rows, cols, data)
    })
}

property! {
    #[test]
    fn matmul_distributes_over_addition(
        a in matrix(4, 3),
        b in matrix(3, 5),
        c in matrix(3, 5),
    ) {
        let mut bc = b.clone();
        bc.add_assign(&c);
        let lhs = a.matmul(&bc);
        let mut rhs = a.matmul(&b);
        rhs.add_assign(&a.matmul(&c));
        prop_assert!(close(&lhs, &rhs));
    }

    #[test]
    fn matmul_is_associative(
        a in matrix(3, 4),
        b in matrix(4, 2),
        c in matrix(2, 5),
    ) {
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        prop_assert!(close(&lhs, &rhs));
    }

    #[test]
    fn transpose_product_rule(a in matrix(4, 3), b in matrix(3, 2)) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(close(&lhs, &rhs));
    }

    #[test]
    fn fused_transpose_kernels_agree(a in matrix(5, 3), b in matrix(5, 4)) {
        // A^T B via the fused kernel equals the explicit computation.
        prop_assert!(close(&a.t_matmul(&b), &a.transpose().matmul(&b)));
    }

    #[test]
    fn affine_t_kernel_agrees(a in matrix(4, 3), b in matrix(6, 3)) {
        prop_assert!(close(&a.affine_t(&b, &[0.0; 6]), &a.matmul(&b.transpose())));
    }

    #[test]
    fn hcat_hsplit_roundtrip(a in matrix(3, 2), b in matrix(3, 4)) {
        let cat = a.hcat(&b);
        let (l, r) = cat.hsplit(2);
        prop_assert_eq!(l, a);
        prop_assert_eq!(r, b);
    }

    #[test]
    fn scale_is_linear(a in matrix(3, 3), k in -5.0f32..5.0) {
        let mut scaled = a.clone();
        scaled.scale(k);
        let mut doubled = a.clone();
        doubled.add_assign(&a);
        doubled.scale(k / 2.0);
        // k*(a + a)/2 == k*a
        prop_assert!(close(&scaled, &doubled));
    }

    #[test]
    fn sum_rows_matches_ones_vector_product(a in matrix(4, 3)) {
        let ones = Matrix::filled(4, 1, 1.0);
        let via_matmul = ones.t_matmul(&a); // 1 x 3
        let direct = a.sum_rows();
        for (x, y) in via_matmul.as_slice().iter().zip(&direct) {
            prop_assert!((x - y).abs() < TOL * (1.0 + y.abs()));
        }
    }

    #[test]
    fn hadamard_is_commutative(a in matrix(3, 4), b in matrix(3, 4)) {
        prop_assert!(close(&a.hadamard(&b), &b.hadamard(&a)));
    }

    #[test]
    fn norm_is_subadditive(a in matrix(3, 3), b in matrix(3, 3)) {
        let mut sum = a.clone();
        sum.add_assign(&b);
        prop_assert!(sum.norm() <= a.norm() + b.norm() + TOL);
    }
}
