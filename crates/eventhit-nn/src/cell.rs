//! Recurrent cell updates on slices, in place.
//!
//! The inference forms of [`crate::lstm::Lstm`] and [`crate::gru::Gru`]
//! — packed `f32` and int8 alike — step one sequence at a time through a
//! reused [`CellState`] instead of building a matrix per gate per step.
//! The element arithmetic here is the training forward's, operation for
//! operation (same products, same order of additions), so a layer stepped
//! through these functions reproduces `forward_inference` bit for bit.
//! Each activation is one slice pass of the branch-free port in
//! [`crate::activation`], the same code the training forward calls per
//! element.

use crate::activation::{sigmoid_slice, tanh_slice};

/// One sequence's recurrent state plus the buffers a step needs, reused
/// across steps and across sequences so stepping allocates nothing.
#[derive(Clone, Debug)]
pub struct CellState {
    pub(crate) h: Vec<f32>,
    /// LSTM cell state (unused by the GRU).
    pub(crate) c: Vec<f32>,
    /// Gate pre-activations: the LSTM's fused `[i|f|g|o]`, or the GRU's
    /// input half `[r|z|n]`.
    pub(crate) pre: Vec<f32>,
    /// The GRU's recurrent half `[r|z|n]` (unused by the LSTM).
    pub(crate) ph: Vec<f32>,
    /// Int8 codes of the input activations, as `f32` (int8 layers only).
    pub(crate) xq: Vec<f32>,
    /// Int8 codes of the hidden activations, as `f32` (int8 layers only).
    pub(crate) hq: Vec<f32>,
}

impl CellState {
    /// Buffers for a layer of `hidden_dim` units, at the zero state.
    pub fn new(hidden_dim: usize) -> Self {
        CellState {
            h: vec![0.0; hidden_dim],
            c: vec![0.0; hidden_dim],
            pre: vec![0.0; 4 * hidden_dim],
            ph: vec![0.0; 3 * hidden_dim],
            xq: Vec::new(),
            hq: Vec::new(),
        }
    }

    /// Back to the zero state a sequence starts from.
    pub fn reset(&mut self) {
        self.h.fill(0.0);
        self.c.fill(0.0);
    }

    /// The hidden state after the steps taken since the last reset.
    pub fn hidden(&self) -> &[f32] {
        &self.h
    }
}

/// LSTM cell update from the fused pre-activation `pre = [i|f|g|o]`,
/// activated in place: `c = σ(f)·c + σ(i)·tanh(g)`, `h = σ(o)·tanh(c)`.
pub(crate) fn lstm_cell(pre: &mut [f32], h: &mut [f32], c: &mut [f32]) {
    let hd = h.len();
    assert_eq!(pre.len(), 4 * hd, "LSTM pre-activation length mismatch");
    let (ifg, o) = pre.split_at_mut(3 * hd);
    let (i_f, g) = ifg.split_at_mut(2 * hd);
    sigmoid_slice(i_f);
    tanh_slice(g);
    sigmoid_slice(o);
    let (i, f) = i_f.split_at(hd);
    for j in 0..hd {
        c[j] = f[j] * c[j] + i[j] * g[j];
    }
    h.copy_from_slice(c);
    tanh_slice(h);
    for (h, o) in h.iter_mut().zip(o.iter()) {
        *h *= o;
    }
}

/// GRU cell update from the two affine halves `px`, `ph` (each
/// `[r|z|n]`), `px` activated in place: `r = σ(px_r + ph_r)`,
/// `z = σ(px_z + ph_z)`, `n = tanh(px_n + r·ph_n)`, `h = (1 - z)·n + z·h`.
pub(crate) fn gru_cell(px: &mut [f32], ph: &[f32], h: &mut [f32]) {
    let hd = h.len();
    assert_eq!(px.len(), 3 * hd, "GRU input pre-activation length mismatch");
    assert_eq!(
        ph.len(),
        3 * hd,
        "GRU hidden pre-activation length mismatch"
    );
    let (rz, n) = px.split_at_mut(2 * hd);
    for (p, q) in rz.iter_mut().zip(&ph[..2 * hd]) {
        *p += q;
    }
    sigmoid_slice(rz);
    let (r, z) = rz.split_at(hd);
    for j in 0..hd {
        n[j] += r[j] * ph[2 * hd + j];
    }
    tanh_slice(n);
    for j in 0..hd {
        h[j] = (1.0 - z[j]) * n[j] + z[j] * h[j];
    }
}

/// Test helper: the final hidden state of batch row `r` of the sequence
/// `xs`, stepped from the zero state through `step`.
#[cfg(test)]
pub(crate) fn final_hidden(
    xs: &[crate::matrix::Matrix],
    r: usize,
    hidden_dim: usize,
    step: impl Fn(&[f32], &mut CellState),
) -> Vec<f32> {
    let mut state = CellState::new(hidden_dim);
    for x in xs {
        step(x.row(r), &mut state);
    }
    state.h
}
