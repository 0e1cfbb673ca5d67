//! # eventhit-nn
//!
//! A small, self-contained neural-network substrate used by the EventHit
//! reproduction: dense row-major `f32` matrices, fully connected and LSTM
//! layers with hand-written backward passes (validated against finite
//! differences), inverted dropout, binary cross-entropy losses, and the Adam
//! optimizer.
//!
//! The layer set is exactly what the paper's architecture (Fig. 3) needs:
//! an LSTM encoder, fully connected layers with sigmoid/tanh/relu
//! activations, and dropout. There is no general autograd — the model graph
//! is fixed. Each layer trains through pure `&self` primitives over a
//! block of a batch's rows (a traced forward, then the per-row backward
//! down to its pre-activation gradients) and whole-batch weight-gradient
//! products it takes back with `set_grads` ([`step`] has the split and
//! why it moves no bit); `params_mut` hands the optimizer the result.
//!
//! One product kernel serves training and inference: the tile sweep over
//! k-major [`packed`] weight panels. Every [`matrix`] product runs on it
//! (the forward packs its weights once per batch, the backward sweeps a
//! row-major operand in place), and inference runs on compiled
//! snapshots, not on the trainable layers: `Dense`/`Lstm`/`Gru` compile
//! once onto the same panels (the exact lane, bit-identical to the
//! [`matrix`] forward) or onto int8 codes of them (the quantized lane,
//! see [`quant::InferenceLane`]). Both lanes step one row at a time
//! through a reused [`cell::CellState`], the exact lane also a block of
//! rows side by side (`step_rows`), and allocate nothing per forward.
//!
//! The two leaf kernels, the tile sweep and the activation slice pass,
//! are each one `#[inline(always)]` body compiled once per instruction
//! set by the crate's CPU dispatch module: baseline x86-64, AVX2 and
//! AVX-512 (for the sweep, only a batched product's row blocks). The
//! CPU picks at run time, and every copy gives the same bits (DESIGN
//! §11). The dispatch module's one `unsafe` block is the only `unsafe`
//! in the workspace's libraries; every other one forbids it.
//!
//! ```
//! use eventhit_nn::activation::Activation;
//! use eventhit_nn::dense::Dense;
//! use eventhit_nn::init::Init;
//! use eventhit_nn::matrix::Matrix;
//! use eventhit_rng::rngs::StdRng;
//! use eventhit_rng::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let layer = Dense::new(4, 2, Activation::Sigmoid, Init::XavierUniform, &mut rng);
//! let x = Matrix::uniform(3, 4, -1.0, 1.0, &mut rng);
//! let probs = layer.forward_inference(&x);
//! assert_eq!(probs.shape(), (3, 2));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod activation;
pub mod cell;
pub mod dense;
mod dispatch;
pub mod dropout;
pub mod gradcheck;
pub mod gru;
pub mod init;
#[cfg(test)]
mod kernel_equivalence;
pub mod loss;
pub mod lstm;
pub mod matrix;
pub mod optimizer;
pub mod packed;
pub mod quant;
pub mod step;

pub use activation::Activation;
pub use cell::CellState;
pub use dense::{Dense, DenseTrace, PackedDense, QuantizedDense};
pub use dropout::Dropout;
pub use gru::{Gru, GruTrace, PackedGru, QuantizedGru};
pub use init::Init;
pub use lstm::{Lstm, LstmTrace, PackedLstm, QuantizedLstm};
pub use matrix::Matrix;
pub use optimizer::{Adam, ParamMut};
pub use quant::{InferenceLane, QuantizedMatrix};
pub use step::{GateGrad, Product};
