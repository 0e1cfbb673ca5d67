//! The two halves of a training step's backward pass, apart.
//!
//! Everything a step computes up to each layer's pre-activation
//! gradient is per row: a block of a batch's rows runs the forward, the
//! head and dense input gradients and the BPTT recursion on its own,
//! through the layers' `&self` `*_trace`, `backward_rows` and `bptt`
//! primitives. What couples the rows is the weight gradient: each is a
//! [`Product`] over the whole batch, an output element per weight, each
//! one chain from `0.0` over ascending batch rows. A layer lists its
//! products (`grad_products`) in the order its `set_grads` folds them,
//! which is the order the one-piece backward added them in, so a step
//! cut into any number of blocks leaves every gradient bit for bit what
//! one block leaves. Where the blocks and the products run is the
//! caller's business: this crate stays single-threaded.

use crate::matrix::Matrix;

/// One weight-gradient product over a whole batch.
#[derive(Clone, Copy, Debug)]
pub enum Product<'a> {
    /// `lhs^T * rhs` ([`Matrix::t_matmul`]): a weight gradient from the
    /// pre-activation gradient `lhs` and the layer input `rhs`.
    TMatmul(&'a Matrix, &'a Matrix),
    /// The column sums of a pre-activation gradient
    /// ([`Matrix::sum_rows`]): a bias gradient.
    SumRows(&'a Matrix),
}

impl Product<'_> {
    /// Multiply–adds (or adds) the product costs: what a caller weighs
    /// when it deals products out in tasks.
    pub fn macs(&self) -> usize {
        match self {
            Product::TMatmul(lhs, rhs) => lhs.len() * rhs.cols(),
            Product::SumRows(m) => m.len(),
        }
    }

    /// Computes the product; a bias gradient comes back as one row.
    pub fn compute(&self) -> Matrix {
        match self {
            Product::TMatmul(lhs, rhs) => lhs.t_matmul(rhs),
            Product::SumRows(m) => Matrix::from_vec(1, m.cols(), m.sum_rows()),
        }
    }
}

/// Takes one step's computed products into a layer's gradient buffers:
/// value `i` goes to `accs[i % accs.len()]`, each buffer `0 + first +
/// second + …` in the order the values come.
///
/// # Panics
/// Panics unless every buffer gets the same number (at least one) of
/// values, each of its shape.
pub(crate) fn fold(accs: &mut [&mut Matrix], values: impl IntoIterator<Item = Matrix>) {
    for acc in accs.iter_mut() {
        acc.fill_zero();
    }
    let mut n = 0;
    for (i, value) in values.into_iter().enumerate() {
        accs[i % accs.len()].add_assign(&value);
        n += 1;
    }
    assert!(
        n > 0 && n % accs.len() == 0,
        "{n} gradient values for {} buffers",
        accs.len()
    );
}

/// What one timestep of a recurrent layer's BPTT hands to its weight
/// gradients, for a block of rows: the gradient at the fused input-side
/// and recurrent-side gate pre-activations, and the two inputs they
/// multiply.
#[derive(Clone, Debug)]
pub struct GateGrad {
    /// Gradient at the input-side pre-activation (`batch x gates`).
    pub(crate) dpx: Matrix,
    /// Gradient at the recurrent-side pre-activation, where it is not
    /// `dpx` itself (the GRU's candidate gate sees `h` through the reset
    /// gate; the LSTM shares one pre-activation).
    pub(crate) dph: Option<Matrix>,
    /// The timestep's input rows.
    pub(crate) x: Matrix,
    /// The hidden state the timestep started from.
    pub(crate) h_prev: Matrix,
}

impl GateGrad {
    /// `dph`, or `dpx` where the two sides share a pre-activation.
    pub(crate) fn dph(&self) -> &Matrix {
        self.dph.as_ref().unwrap_or(&self.dpx)
    }

    /// The blocks' BPTT outputs (`blocks[b][t]`: block `b`, timestep
    /// `t`) regrouped by timestep (`[t][b]`), blocks in order: what
    /// [`GateGrad::stack`] takes, a timestep at a time.
    ///
    /// # Panics
    /// Panics if the blocks ran different numbers of timesteps.
    pub fn by_timestep(blocks: Vec<Vec<GateGrad>>) -> Vec<Vec<GateGrad>> {
        let steps = blocks.first().map_or(0, Vec::len);
        let mut by_step: Vec<Vec<GateGrad>> = (0..steps)
            .map(|_| Vec::with_capacity(blocks.len()))
            .collect();
        for block in blocks {
            assert_eq!(
                block.len(),
                steps,
                "blocks ran different numbers of timesteps"
            );
            for (t, grad) in block.into_iter().enumerate() {
                by_step[t].push(grad);
            }
        }
        by_step
    }

    /// One timestep's BPTT outputs of the blocks, in block order, stacked
    /// into the whole batch's.
    ///
    /// # Panics
    /// Panics if there is no block or the blocks disagree in layout.
    pub fn stack(blocks: Vec<GateGrad>) -> GateGrad {
        let shared = blocks
            .first()
            .expect("GateGrad::stack needs a block")
            .dph
            .is_none();
        let (mut dpx, mut dph, mut x, mut h_prev) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for block in blocks {
            assert_eq!(block.dph.is_none(), shared, "mixed gate layouts");
            dpx.push(block.dpx);
            dph.extend(block.dph);
            x.push(block.x);
            h_prev.push(block.h_prev);
        }
        GateGrad {
            dpx: Matrix::stack_rows(dpx),
            dph: (!shared).then(|| Matrix::stack_rows(dph)),
            x: Matrix::stack_rows(x),
            h_prev: Matrix::stack_rows(h_prev),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_rng::rngs::StdRng;
    use eventhit_rng::SeedableRng;

    #[test]
    fn products_compute_what_their_matrix_calls_do() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::uniform(5, 4, -1.0, 1.0, &mut rng);
        let b = Matrix::uniform(5, 3, -1.0, 1.0, &mut rng);
        let t = Product::TMatmul(&a, &b);
        assert_eq!(t.compute(), a.t_matmul(&b));
        assert_eq!(t.macs(), 5 * 4 * 3);
        let s = Product::SumRows(&a);
        assert_eq!(s.compute().as_slice(), a.sum_rows().as_slice());
        assert_eq!(s.macs(), 20);
    }

    #[test]
    fn fold_deals_values_round_and_adds_from_zero_in_order() {
        let (mut a, mut b) = (Matrix::filled(1, 2, 9.0), Matrix::filled(1, 1, 9.0));
        let row = |v: &[f32]| Matrix::from_vec(1, v.len(), v.to_vec());
        let values = [
            row(&[1e8, 1.0]),
            row(&[5.0]),
            row(&[-1e8, 2.0]),
            row(&[6.0]),
            row(&[1.0, 3.0]),
            row(&[7.0]),
        ];
        fold(&mut [&mut a, &mut b], values);
        // ((0 + 1e8) - 1e8) + 1 = 1: the order is kept.
        assert_eq!(a.as_slice(), &[1.0, 6.0]);
        assert_eq!(b.as_slice(), &[18.0]);
    }

    #[test]
    #[should_panic(expected = "3 gradient values for 2 buffers")]
    fn fold_refuses_a_short_count() {
        let (mut a, mut b) = (Matrix::zeros(1, 1), Matrix::zeros(1, 1));
        fold(&mut [&mut a, &mut b], vec![Matrix::zeros(1, 1); 3]);
    }
}
