//! # eventhit-nn
//!
//! A small, self-contained neural-network substrate used by the EventHit
//! reproduction: dense row-major `f32` matrices, fully connected and LSTM
//! layers with hand-written backward passes (validated against finite
//! differences), inverted dropout, binary cross-entropy losses, and SGD /
//! Adam optimizers.
//!
//! The layer set is exactly what the paper's architecture (Fig. 3) needs:
//! an LSTM encoder, fully connected layers with sigmoid/tanh/relu
//! activations, and dropout. There is no general autograd — the model graph
//! is fixed, and each layer exposes `forward` / `backward` / `params_mut`.
//!
//! One product kernel serves training and inference: the tile sweep over
//! k-major [`packed`] weight panels. Every [`matrix`] product runs on it
//! (the forward packs its weights once per batch, the backward sweeps a
//! row-major operand in place), and inference runs on compiled
//! snapshots, not on the trainable layers: `Dense`/`Lstm`/`Gru` compile
//! once onto the same panels (the exact lane, bit-identical to the
//! [`matrix`] forward) or onto int8 codes of them (the quantized lane,
//! see [`quant::InferenceLane`]). Both lanes step one row at a time
//! through a reused [`cell::CellState`] and allocate nothing per forward.
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
//! let mut layer = Dense::new(4, 2, Activation::Sigmoid, Init::XavierUniform, &mut rng);
//! let x = Matrix::uniform(3, 4, -1.0, 1.0, &mut rng);
//! let probs = layer.forward(&x);
//! assert_eq!(probs.shape(), (3, 2));
//! ```

#![deny(missing_docs)]

pub mod activation;
pub mod cell;
pub mod dense;
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
pub mod schedule;
pub mod weight_decay;

pub use activation::Activation;
pub use cell::CellState;
pub use dense::{Dense, PackedDense, QuantizedDense};
pub use dropout::Dropout;
pub use gru::{Gru, PackedGru, QuantizedGru};
pub use init::Init;
pub use lstm::{Lstm, PackedLstm, QuantizedLstm};
pub use matrix::Matrix;
pub use optimizer::{Adam, Optimizer, ParamMut, Sgd};
pub use quant::{InferenceLane, QuantizedMatrix};
pub use schedule::LrSchedule;
pub use weight_decay::WeightDecay;
