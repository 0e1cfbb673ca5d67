//! Property test of the determinism substrate: folding a region's
//! outputs, which come back in job order, equals the sequential fold —
//! for random job and worker counts.

use eventhit_parallel::Pool;
use eventhit_rng::testkit::from_fn;
use eventhit_rng::{prop_assert_eq, property, Rng};

fn values(n: usize) -> impl eventhit_rng::testkit::Strategy<Value = Vec<f64>> {
    from_fn(move |rng| (0..n).map(|_| rng.random_range(-1.0e3..1.0e3)).collect())
}

property! {
    #[test]
    fn folding_outputs_equals_sequential_fold(
        n in 0usize..200,
        workers in 1usize..9,
        seed_vals in values(200),
    ) {
        let vals = &seed_vals[..n];
        // Sequential baseline: a plain left fold in index order.
        let want = vals.iter().fold(0.25f64, |acc, &v| acc * 0.5 + v);
        // Parallel: jobs finish in whatever order the scheduler picks;
        // the outputs come back in job order and fold as above.
        let outputs = Pool::new(workers).run((0..n).collect(), |idx: usize| vals[idx]);
        let got = outputs.iter().fold(0.25f64, |acc, &v| acc * 0.5 + v);
        prop_assert_eq!(got.to_bits(), want.to_bits());
    }
}
