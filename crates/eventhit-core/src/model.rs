//! The EventHit network (paper §III, Fig. 3).
//!
//! A shared sub-network — LSTM encoder over the collection window, a fully
//! connected layer with dropout producing the latent vector `z` — feeds `K`
//! event-specific sub-networks. Each head consumes `z ⊕ X_n` (the latent
//! concatenated with the *last* feature vector of the window) and emits,
//! through a sigmoid, the vector `Θ_k = [b_k, θ_{k,1}, …, θ_{k,H}]`:
//! `b_k` scores the event's occurrence anywhere in the horizon and
//! `θ_{k,v}` scores its occurrence at horizon offset `v`.

use std::sync::{Arc, OnceLock};

use eventhit_rng::rngs::StdRng;
use eventhit_rng::SeedableRng;

use eventhit_nn::activation::Activation;
use eventhit_nn::cell::CellState;
use eventhit_nn::dense::{Dense, PackedDense, QuantizedDense};
use eventhit_nn::dropout::Dropout;
use eventhit_nn::gru::{Gru, PackedGru, QuantizedGru};
use eventhit_nn::init::Init;
use eventhit_nn::lstm::{Lstm, PackedLstm, QuantizedLstm};
use eventhit_nn::matrix::Matrix;
use eventhit_nn::optimizer::ParamMut;
use eventhit_nn::quant::InferenceLane;

use eventhit_video::records::Record;

/// Hyper-parameters of the EventHit network.
#[derive(Debug, Clone, PartialEq)]
pub struct EventHitConfig {
    /// Feature dimensionality `D`.
    pub input_dim: usize,
    /// Collection-window length `M`.
    pub window: usize,
    /// Time-horizon length `H`.
    pub horizon: usize,
    /// Number of event types `K`.
    pub num_events: usize,
    /// LSTM hidden size.
    pub hidden_dim: usize,
    /// Latent dimension of `z` after the shared fully connected layer.
    pub shared_dim: usize,
    /// Dropout probability on `z` during training.
    pub dropout: f32,
}

impl EventHitConfig {
    /// A reasonable default for the synthetic datasets: 48 LSTM units,
    /// 32-dim latent, 20% dropout.
    pub fn new(input_dim: usize, window: usize, horizon: usize, num_events: usize) -> Self {
        EventHitConfig {
            input_dim,
            window,
            horizon,
            num_events,
            hidden_dim: 48,
            shared_dim: 32,
            dropout: 0.2,
        }
    }

    fn validate(&self) {
        assert!(self.input_dim > 0 && self.window > 0 && self.horizon > 0);
        assert!(self.num_events > 0, "at least one event type required");
        assert!(self.hidden_dim > 0 && self.shared_dim > 0);
    }

    /// The trainable parameters a network of this shape holds with a
    /// `kind` encoder: what [`EventHit::param_count`] reports once it is
    /// built, and what a weights file's tensors must add up to before it
    /// is. `None` for a config no network is built from — a zero
    /// dimension, or a count past `usize`.
    pub fn param_count(&self, kind: EncoderKind) -> Option<usize> {
        let (d, h, s) = (self.input_dim, self.hidden_dim, self.shared_dim);
        if [d, self.window, self.horizon, self.num_events, h, s].contains(&0) {
            return None;
        }
        // Gate weights over input and hidden state, plus one bias per gate
        // (LSTM) or two (GRU).
        let (gates, biases) = match kind {
            EncoderKind::Lstm => (4usize, 1),
            EncoderKind::Gru => (3, 2),
        };
        let encoder = gates
            .checked_mul(h)?
            .checked_mul(d.checked_add(h)?.checked_add(biases)?)?;
        let shared = s.checked_mul(h.checked_add(1)?)?;
        let head = (self.horizon.checked_add(1)?).checked_mul(s.checked_add(d)?.checked_add(1)?)?;
        encoder
            .checked_add(shared)?
            .checked_add(self.num_events.checked_mul(head)?)
    }
}

/// Which recurrent encoder the shared sub-network uses. The paper uses an
/// LSTM (§III); GRU is provided for the encoder-choice ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncoderKind {
    /// Long short-term memory (the paper's choice).
    #[default]
    Lstm,
    /// Gated recurrent unit (ablation alternative).
    Gru,
}

/// The recurrent encoder, dispatching on [`EncoderKind`].
#[derive(Clone)]
enum Encoder {
    Lstm(Lstm),
    Gru(Gru),
}

impl Encoder {
    fn forward(&mut self, xs: &[Matrix]) -> Matrix {
        match self {
            Encoder::Lstm(l) => l.forward(xs),
            Encoder::Gru(g) => g.forward(xs),
        }
    }

    fn forward_inference(&self, xs: &[Matrix]) -> Matrix {
        match self {
            Encoder::Lstm(l) => l.forward_inference(xs),
            Encoder::Gru(g) => g.forward_inference(xs),
        }
    }

    fn backward_last(&mut self, dh: &Matrix) {
        match self {
            Encoder::Lstm(l) => {
                l.backward_last(dh);
            }
            Encoder::Gru(g) => {
                g.backward_last(dh);
            }
        }
    }

    fn zero_grad(&mut self) {
        match self {
            Encoder::Lstm(l) => l.zero_grad(),
            Encoder::Gru(g) => g.zero_grad(),
        }
    }

    fn params_mut(&mut self) -> Vec<ParamMut<'_>> {
        match self {
            Encoder::Lstm(l) => l.params_mut(),
            Encoder::Gru(g) => g.params_mut(),
        }
    }

    fn kind(&self) -> EncoderKind {
        match self {
            Encoder::Lstm(_) => EncoderKind::Lstm,
            Encoder::Gru(_) => EncoderKind::Gru,
        }
    }

    fn clear_cache(&mut self) {
        match self {
            Encoder::Lstm(l) => l.clear_cache(),
            Encoder::Gru(g) => g.clear_cache(),
        }
    }

    fn cache_len(&self) -> usize {
        match self {
            Encoder::Lstm(l) => l.cache_len(),
            Encoder::Gru(g) => g.cache_len(),
        }
    }
}

/// The EventHit network, in its trainable form: parameters, gradient
/// accumulators, and (between a `forward` and the end of training) the
/// last batch's activations for backprop.
///
/// Serving does not run this type. [`EventHit::packed`] /
/// [`EventHit::quantized`] compile it into an [`InferencePlan`] (weights
/// only, repacked for row-at-a-time inference) — once per lane for this
/// model *and every clone of it*, however many predictors are then built
/// from those clones — and predictors keep the plan;
/// [`EventHit::forward_inference`] stays as the batched reference the
/// plan is tested against.
#[derive(Clone)]
pub struct EventHit {
    config: EventHitConfig,
    encoder: Encoder,
    shared_fc: Dense,
    dropout: Dropout,
    heads: Vec<Dense>,
    rng: StdRng,
    /// Cache of the last-forward concatenated input (training mode).
    cache_concat: Option<Matrix>,
    /// The plans compiled from the current weights, shared with every
    /// clone (a clone starts with the same weights, so with the same
    /// plans). A stale plan is impossible by construction:
    /// [`EventHit::params_mut`] detaches this model onto an empty memo
    /// before it hands out the weights, and nowhere else needs to — no
    /// other `&mut` path reaches a weight, because `encoder`,
    /// `shared_fc` and `heads` are private to this module and every other
    /// `&mut self` method here touches only gradients, caches, dropout
    /// state or the rng.
    plans: Arc<PlanMemo>,
}

/// One compiled [`InferencePlan`] per lane, each filled on first use.
#[derive(Default)]
struct PlanMemo {
    exact: OnceLock<InferencePlan>,
    quantized: OnceLock<InferencePlan>,
}

impl EventHit {
    /// Creates a network with freshly initialized weights and the paper's
    /// LSTM encoder.
    pub fn new(config: EventHitConfig, seed: u64) -> Self {
        Self::with_encoder(config, EncoderKind::Lstm, seed)
    }

    /// Creates a network with the chosen recurrent encoder.
    pub fn with_encoder(config: EventHitConfig, kind: EncoderKind, seed: u64) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let encoder = match kind {
            EncoderKind::Lstm => {
                Encoder::Lstm(Lstm::new(config.input_dim, config.hidden_dim, &mut rng))
            }
            EncoderKind::Gru => {
                Encoder::Gru(Gru::new(config.input_dim, config.hidden_dim, &mut rng))
            }
        };
        // Tanh keeps the latent bounded and kink-free (the paper does not
        // specify the shared layer's activation).
        let shared_fc = Dense::new(
            config.hidden_dim,
            config.shared_dim,
            Activation::Tanh,
            Init::XavierUniform,
            &mut rng,
        );
        let dropout = Dropout::new(config.dropout);
        let head_in = config.shared_dim + config.input_dim;
        let heads = (0..config.num_events)
            .map(|_| {
                Dense::new(
                    head_in,
                    1 + config.horizon,
                    Activation::Sigmoid,
                    Init::XavierUniform,
                    &mut rng,
                )
            })
            .collect();
        EventHit {
            config,
            encoder,
            shared_fc,
            dropout,
            heads,
            rng,
            cache_concat: None,
            plans: Arc::default(),
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &EventHitConfig {
        &self.config
    }

    /// Which recurrent encoder this network uses.
    pub fn encoder_kind(&self) -> EncoderKind {
        self.encoder.kind()
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        let count = self.config.param_count(self.encoder_kind());
        count.expect("a built network's dimensions are non-zero and its weights fit in memory")
    }

    /// Switches dropout between training and inference behaviour.
    /// Leaving training also drops every layer's backprop cache (the last
    /// batch's activations), so a trained model — and every clone made of
    /// it — carries parameters and gradient buffers only. The next
    /// [`EventHit::forward`] refills the caches.
    pub fn set_training(&mut self, training: bool) {
        self.dropout.set_training(training);
        if !training {
            self.encoder.clear_cache();
            self.shared_fc.clear_cache();
            for head in &mut self.heads {
                head.clear_cache();
            }
            self.cache_concat = None;
        }
    }

    /// Values held in backprop caches across all layers: the last
    /// forward batch's activations, `0` once training has ended.
    pub fn training_cache_len(&self) -> usize {
        self.encoder.cache_len()
            + self.shared_fc.cache_len()
            + self.heads.iter().map(Dense::cache_len).sum::<usize>()
            + self.cache_concat.as_ref().map_or(0, Matrix::len)
    }

    /// Forward pass over a batch of records, caching intermediates for
    /// [`EventHit::backward`]. Returns one `batch x (1 + H)` sigmoid output
    /// per event head.
    pub fn forward(&mut self, records: &[&Record]) -> Vec<Matrix> {
        assert!(!records.is_empty(), "empty batch");
        let xs = batch_sequence(&self.config, records);
        let h = self.encoder.forward(&xs);
        let z = self.shared_fc.forward(&h);
        let z = self.dropout.forward(&z, &mut self.rng);
        let concat = z.hcat(&xs[xs.len() - 1]);
        let outputs = self
            .heads
            .iter_mut()
            .map(|head| head.forward(&concat))
            .collect();
        self.cache_concat = Some(concat);
        outputs
    }

    /// Inference-only forward pass (dropout is never applied, no caching
    /// of the training graph). Pure `&self`, so one trained model can be
    /// shared across threads to score batches in parallel; the arithmetic
    /// matches [`EventHit::forward`] with dropout off, bit for bit.
    pub fn forward_inference(&self, records: &[&Record]) -> Vec<Matrix> {
        assert!(!records.is_empty(), "empty batch");
        let xs = batch_sequence(&self.config, records);
        let h = self.encoder.forward_inference(&xs);
        let z = self.shared_fc.forward_inference(&h);
        let concat = z.hcat(&xs[xs.len() - 1]);
        self.heads
            .iter()
            .map(|head| head.forward_inference(&concat))
            .collect()
    }

    /// Backward pass: `grads[k]` is dL/d(output of head `k`). Accumulates
    /// all parameter gradients.
    pub fn backward(&mut self, grads: &[Matrix]) {
        assert_eq!(
            grads.len(),
            self.heads.len(),
            "one gradient per head required"
        );
        let concat = self
            .cache_concat
            .as_ref()
            .expect("EventHit::backward before forward")
            .clone();
        let mut d_concat = Matrix::zeros(concat.rows(), concat.cols());
        for (head, g) in self.heads.iter_mut().zip(grads) {
            d_concat.add_assign(&head.backward(g));
        }
        let (d_z, _d_xlast) = d_concat.hsplit(self.config.shared_dim);
        let d_z = self.dropout.backward(&d_z);
        let d_h = self.shared_fc.backward(&d_z);
        self.encoder.backward_last(&d_h);
    }

    /// Zeros all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.encoder.zero_grad();
        self.shared_fc.zero_grad();
        for head in &mut self.heads {
            head.zero_grad();
        }
    }

    /// All parameter tensors, read-only, in [`EventHit::params_mut`]'s
    /// order: what serialization and fingerprinting walk.
    pub fn params(&self) -> Vec<&Matrix> {
        let mut params = match &self.encoder {
            Encoder::Lstm(l) => l.params().to_vec(),
            Encoder::Gru(g) => g.params().to_vec(),
        };
        params.extend(self.shared_fc.params());
        for head in &self.heads {
            params.extend(head.params());
        }
        params
    }

    /// All `(parameter, gradient)` pairs, in a stable order. The only
    /// door to the weights: plans compiled so far stay with the clones
    /// that still have the old weights, and this model's next
    /// [`InferencePlan::compile`] starts from what the caller wrote.
    pub fn params_mut(&mut self) -> Vec<ParamMut<'_>> {
        self.plans = Arc::default();
        let mut params = self.encoder.params_mut();
        params.extend(self.shared_fc.params_mut());
        for head in &mut self.heads {
            params.extend(head.params_mut());
        }
        params
    }

    /// The trained network compiled for exact-lane inference: every
    /// weight matrix repacked k-major (see [`eventhit_nn::packed`]).
    /// Compiled on the first call; later calls, on this model or any
    /// clone of it, return the same weights behind an `Arc`. The plan's
    /// forward is bit-identical to [`EventHit::forward_inference`], row
    /// for row.
    pub fn packed(&self) -> InferencePlan {
        let compile = || {
            let encoder = match &self.encoder {
                Encoder::Lstm(l) => PlanEncoder::Lstm(l.packed()),
                Encoder::Gru(g) => PlanEncoder::Gru(g.packed()),
            };
            let dense = |d: &Dense| PlanDense::Packed(d.packed());
            self.plan(InferenceLane::Exact, encoder, dense)
        };
        self.plans.exact.get_or_init(compile).clone()
    }

    /// The trained network on the int8 quantized inference lane (see
    /// [`InferenceLane`]): every weight matrix quantized, memoised like
    /// [`EventHit::packed`]. Scores approximate the exact lane's within
    /// the per-row quantization step; pair with conformal recalibration
    /// on quantized scores (see `TaskRun::state_for_lane`) to keep the
    /// coverage guarantee.
    pub fn quantized(&self) -> InferencePlan {
        let compile = || {
            let encoder = match &self.encoder {
                Encoder::Lstm(l) => PlanEncoder::QuantizedLstm(l.quantized()),
                Encoder::Gru(g) => PlanEncoder::QuantizedGru(g.quantized()),
            };
            let dense = |d: &Dense| PlanDense::Quantized(d.quantized());
            self.plan(InferenceLane::Quantized, encoder, dense)
        };
        self.plans.quantized.get_or_init(compile).clone()
    }

    fn plan(
        &self,
        lane: InferenceLane,
        encoder: PlanEncoder,
        dense: impl Fn(&Dense) -> PlanDense,
    ) -> InferencePlan {
        InferencePlan {
            compiled: Arc::new(Compiled {
                config: self.config.clone(),
                lane,
                encoder,
                shared_fc: dense(&self.shared_fc),
                heads: self.heads.iter().map(dense).collect(),
            }),
        }
    }
}

/// Assembles the encoder input sequence from a batch of records:
/// `xs[t]` is the `batch x D` matrix of the `t`-th window frame.
///
/// The sequence length is taken from the records themselves, not the
/// config: a batch of shrunken `m`-row windows (`1 <= m <= M`, the
/// adaptive-windowing path of `eventhit-core::sampling`) runs the
/// recurrent encoder for `m` steps. All records in one batch must share
/// the same window length; the full-window case (`m == M`) is
/// bit-identical to the historical fixed-shape behaviour.
fn batch_sequence(config: &EventHitConfig, records: &[&Record]) -> Vec<Matrix> {
    let m = records[0].covariates.rows();
    let d = config.input_dim;
    assert!(
        m >= 1 && m <= config.window,
        "window length {m} outside [1, {}]",
        config.window
    );
    let batch = records.len();
    (0..m)
        .map(|t| {
            let mut x = Matrix::zeros(batch, d);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(
                    r.covariates.shape(),
                    (m, d),
                    "record covariates must be {m}x{d} (uniform per batch)"
                );
                x.set_row(i, r.covariates.row(t));
            }
            x
        })
        .collect()
}

/// The plan's recurrent encoder: either lane of either cell.
enum PlanEncoder {
    Lstm(PackedLstm),
    Gru(PackedGru),
    QuantizedLstm(QuantizedLstm),
    QuantizedGru(QuantizedGru),
}

impl PlanEncoder {
    fn step(&self, x: &[f32], state: &mut CellState) {
        match self {
            PlanEncoder::Lstm(l) => l.step(x, state),
            PlanEncoder::Gru(g) => g.step(x, state),
            PlanEncoder::QuantizedLstm(l) => l.step(x, state),
            PlanEncoder::QuantizedGru(g) => g.step(x, state),
        }
    }
}

/// One of the plan's dense layers, on either lane.
enum PlanDense {
    Packed(PackedDense),
    Quantized(QuantizedDense),
}

impl PlanDense {
    fn forward_into(&self, x: &[f32], xq: &mut Vec<f32>, out: &mut [f32]) {
        match self {
            PlanDense::Packed(d) => d.forward_into(x, out),
            PlanDense::Quantized(d) => d.forward_into(x, xq, out),
        }
    }
}

/// Per-lane buffers an [`InferencePlan`] forward works in, sized once
/// from the plan ([`InferencePlan::scratch`]) and reused for every
/// window scored after that.
#[derive(Clone, Debug)]
pub struct InferenceScratch {
    cell: CellState,
    /// The head input `z ⊕ X_n`.
    concat: Vec<f32>,
    /// Int8 codes of the dense layers' activations, as `f32` (int8 lane
    /// only).
    xq: Vec<f32>,
    /// The head outputs, `K x (1 + H)` row-major.
    out: Vec<f32>,
}

/// A trained [`EventHit`] compiled for inference on one
/// [`InferenceLane`]: weights only — no gradients, no caches — laid out
/// for scoring one window at a time. Immutable, `Send + Sync`, and a
/// handle: the weights sit behind an `Arc`, a clone is a pointer copy,
/// and [`InferencePlan::compile`] (or [`EventHit::packed`] /
/// [`EventHit::quantized`]) builds them once per model, not once per
/// call — every predictor made from clones of one served model scores
/// on the same copy.
///
/// The exact lane reproduces [`EventHit::forward_inference`] bit for
/// bit; the quantized lane approximates it within the int8 step.
#[derive(Clone)]
pub struct InferencePlan {
    compiled: Arc<Compiled>,
}

/// What an [`InferencePlan`] points at.
struct Compiled {
    config: EventHitConfig,
    lane: InferenceLane,
    encoder: PlanEncoder,
    shared_fc: PlanDense,
    heads: Vec<PlanDense>,
}

impl InferencePlan {
    /// `model`'s plan for `lane`: compiled if this is the first request
    /// since the model's weights were last opened for writing, a pointer
    /// copy otherwise.
    pub fn compile(model: &EventHit, lane: InferenceLane) -> Self {
        match lane {
            InferenceLane::Exact => model.packed(),
            InferenceLane::Quantized => model.quantized(),
        }
    }

    /// The network configuration (shared with the source model).
    pub fn config(&self) -> &EventHitConfig {
        &self.compiled.config
    }

    /// The lane this plan scores on.
    pub fn lane(&self) -> InferenceLane {
        self.compiled.lane
    }

    /// Output values per event head: `1 + H`.
    pub fn head_len(&self) -> usize {
        1 + self.compiled.config.horizon
    }

    /// Whether `self` and `other` are handles on the same compiled
    /// weights.
    #[cfg(test)]
    pub(crate) fn shares_weights_with(&self, other: &InferencePlan) -> bool {
        Arc::ptr_eq(&self.compiled, &other.compiled)
    }

    /// Buffers for [`InferencePlan::forward`], sized for this plan.
    pub fn scratch(&self) -> InferenceScratch {
        let cfg = self.config();
        InferenceScratch {
            cell: CellState::new(cfg.hidden_dim),
            concat: vec![0.0; cfg.shared_dim + cfg.input_dim],
            xq: Vec::with_capacity(cfg.shared_dim + cfg.input_dim),
            out: vec![0.0; cfg.num_events * self.head_len()],
        }
    }

    /// Scores one collection window. `rows` are its frames' features,
    /// oldest first — between 1 and `M` of them (a shrunken adaptive
    /// window runs the encoder for fewer steps). Returns the sigmoid
    /// outputs of all heads, `K x (1 + H)` row-major, borrowed from
    /// `scratch`. Allocates nothing; sequential, so bit-identical at any
    /// worker count.
    ///
    /// # Panics
    /// Panics if `rows` yields no row, more than `M` rows, or a row that
    /// is not `D` long, or if `scratch` came from a differently shaped
    /// plan.
    pub fn forward<'s, 'a>(
        &self,
        rows: impl IntoIterator<Item = &'a [f32]>,
        scratch: &'s mut InferenceScratch,
    ) -> &'s [f32] {
        let Compiled {
            config: cfg,
            encoder,
            shared_fc,
            heads,
            ..
        } = &*self.compiled;
        let InferenceScratch {
            cell,
            concat,
            xq,
            out,
        } = scratch;
        cell.reset();
        let mut last: Option<&[f32]> = None;
        let mut m = 0;
        for x in rows {
            assert_eq!(x.len(), cfg.input_dim, "window row dimensionality mismatch");
            encoder.step(x, cell);
            last = Some(x);
            m += 1;
        }
        assert!(
            m >= 1 && m <= cfg.window,
            "window length {m} outside [1, {}]",
            cfg.window
        );
        let (z, x_last) = concat.split_at_mut(cfg.shared_dim);
        shared_fc.forward_into(cell.hidden(), xq, z);
        x_last.copy_from_slice(last.expect("at least one row was stepped"));
        for (head, scores) in heads.iter().zip(out.chunks_exact_mut(self.head_len())) {
            head.forward_into(concat, xq, scores);
        }
        out
    }

    /// Scores a batch of records, one `batch x (1 + H)` matrix per event
    /// head — the shape [`EventHit::forward_inference`] returns, for
    /// callers that want matrices and tests that compare the two.
    /// Records may have different window lengths: each is scored on its
    /// own.
    pub fn forward_inference(&self, records: &[&Record]) -> Vec<Matrix> {
        assert!(!records.is_empty(), "empty batch");
        let head_len = self.head_len();
        let mut outputs = vec![Matrix::zeros(records.len(), head_len); self.config().num_events];
        let mut scratch = self.scratch();
        for (i, record) in records.iter().enumerate() {
            let scores = self.forward(window_rows(&record.covariates), &mut scratch);
            for (head, row) in outputs.iter_mut().zip(scores.chunks_exact(head_len)) {
                head.set_row(i, row);
            }
        }
        outputs
    }
}

/// The rows of a covariate matrix, oldest first, as
/// [`InferencePlan::forward`] takes them.
pub fn window_rows(covariates: &Matrix) -> impl Iterator<Item = &[f32]> + Clone {
    (0..covariates.rows()).map(|t| covariates.row(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_video::records::EventLabel;

    fn record(m: usize, d: usize, value: f32) -> Record {
        Record {
            anchor: 0,
            covariates: Matrix::filled(m, d, value),
            labels: vec![EventLabel::absent()],
        }
    }

    fn tiny_config() -> EventHitConfig {
        EventHitConfig {
            input_dim: 4,
            window: 5,
            horizon: 10,
            num_events: 2,
            hidden_dim: 6,
            shared_dim: 5,
            dropout: 0.0,
        }
    }

    #[test]
    fn forward_output_shapes() {
        let mut model = EventHit::new(tiny_config(), 0);
        let r1 = record(5, 4, 0.1);
        let r2 = record(5, 4, 0.9);
        let outs = model.forward(&[&r1, &r2]);
        assert_eq!(outs.len(), 2);
        for o in &outs {
            assert_eq!(o.shape(), (2, 11));
            assert!(o.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn inference_matches_forward_without_dropout() {
        let mut model = EventHit::new(tiny_config(), 1);
        let r = record(5, 4, 0.3);
        let a = model.forward(&[&r]);
        let b = model.forward_inference(&[&r]);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn dropout_only_active_in_training() {
        let mut cfg = tiny_config();
        cfg.dropout = 0.5;
        let mut model = EventHit::new(cfg, 2);
        let r = record(5, 4, 0.5);
        // Training forwards are stochastic: across several passes the
        // sampled masks must produce at least two distinct outputs.
        let passes: Vec<Matrix> = (0..8).map(|_| model.forward(&[&r]).remove(0)).collect();
        assert!(
            passes.iter().any(|p| *p != passes[0]),
            "dropout should perturb training forward passes"
        );
        // Inference passes are deterministic.
        let c = model.forward_inference(&[&r]);
        let d = model.forward_inference(&[&r]);
        assert_eq!(c[0], d[0]);
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let mut model = EventHit::new(tiny_config(), 3);
        let r1 = record(5, 4, 0.2);
        let r2 = record(5, 4, -0.4);
        model.zero_grad();
        let outs = model.forward(&[&r1, &r2]);
        // Loss = sum of outputs; dL/dout = 1.
        let grads: Vec<Matrix> = outs
            .iter()
            .map(|o| Matrix::filled(o.rows(), o.cols(), 1.0))
            .collect();
        model.backward(&grads);
        let mut nonzero_params = 0;
        for p in model.params_mut() {
            if p.grad.max_abs() > 0.0 {
                nonzero_params += 1;
            }
        }
        // LSTM (3) + shared (2) + 2 heads (2 each) = 9 parameter tensors.
        assert_eq!(
            nonzero_params, 9,
            "all parameter tensors should receive gradient"
        );
    }

    #[test]
    fn analytic_gradients_match_finite_differences() {
        use eventhit_nn::gradcheck::check_gradients;
        let mut model = EventHit::new(tiny_config(), 4);
        let r1 = record(5, 4, 0.2);
        let r2 = record(5, 4, 0.7);
        let loss_fn = |m: &mut EventHit| {
            let outs = m.forward(&[&r1, &r2]);
            outs.iter()
                .map(|o| 0.5 * o.as_slice().iter().map(|&v| v * v).sum::<f32>())
                .sum()
        };
        let grad_fn = |m: &mut EventHit| {
            m.zero_grad();
            let outs = m.forward(&[&r1, &r2]);
            m.backward(&outs);
        };
        let err = check_gradients(&mut model, loss_fn, grad_fn, |m| m.params_mut(), 1e-2);
        assert!(err < 5e-2, "max rel err {err}");
    }

    #[test]
    fn inference_accepts_shrunken_windows() {
        // The adaptive-windowing path feeds m < M rows: the encoder runs
        // m steps and the heads consume z ⊕ (last row), so output shapes
        // are unchanged and results are deterministic.
        let model = EventHit::new(tiny_config(), 7);
        for m in 1..=5usize {
            let r = record(m, 4, 0.3);
            let outs = model.forward_inference(&[&r]);
            assert_eq!(outs.len(), 2);
            for o in &outs {
                assert_eq!(o.shape(), (1, 11));
            }
            let again = model.forward_inference(&[&r]);
            assert_eq!(outs, again);
        }
        // The quantized lane accepts the same shrunken windows.
        let q = model.quantized();
        let r = record(2, 4, 0.3);
        let outs = q.forward_inference(&[&r]);
        assert_eq!(outs[0].shape(), (1, 11));
    }

    /// A model of `kind` trained for a few epochs on random windows, and
    /// the windows. Odd layer sizes, so the packed tiles have ragged
    /// edges: 4*7 = 28 / 3*7 = 21 gate outputs, 1 + 10 = 11 head outputs.
    fn trained(kind: EncoderKind) -> (EventHit, Vec<Record>) {
        use crate::train::{train, TrainConfig};
        use eventhit_rng::Rng;
        use eventhit_telemetry::Telemetry;
        let cfg = EventHitConfig {
            hidden_dim: 7,
            dropout: 0.2,
            ..tiny_config()
        };
        let mut rng = StdRng::seed_from_u64(41);
        let records: Vec<Record> = (0..24)
            .map(|i| {
                let present = i % 3 == 0;
                let data = (0..cfg.window * cfg.input_dim)
                    .map(|_| rng.random_range(-1.0f32..1.0) + if present { 0.5 } else { 0.0 })
                    .collect();
                let label = EventLabel {
                    present,
                    start: 2,
                    end: 6,
                    censored: false,
                };
                Record {
                    anchor: i,
                    covariates: Matrix::from_vec(cfg.window, cfg.input_dim, data),
                    labels: vec![if present { label } else { EventLabel::absent() }; 2],
                }
            })
            .collect();
        let mut model = EventHit::with_encoder(cfg, kind, 9);
        let train_cfg = TrainConfig {
            epochs: 3,
            batch_size: 8,
            ..TrainConfig::default()
        };
        train(&mut model, &records, &train_cfg, &Telemetry::disabled());
        (model, records)
    }

    /// `record` cut down to its newest `m` rows.
    fn newest(record: &Record, m: usize) -> Record {
        let rows: Vec<usize> = (record.covariates.rows() - m..record.covariates.rows()).collect();
        Record {
            covariates: record.covariates.select_rows(&rows),
            ..record.clone()
        }
    }

    #[test]
    fn packed_plan_is_bit_identical_to_forward_inference_at_every_window_length() {
        for kind in [EncoderKind::Lstm, EncoderKind::Gru] {
            let (model, records) = trained(kind);
            let plan = model.packed();
            assert_eq!(plan.lane(), InferenceLane::Exact);
            let mut scratch = plan.scratch();
            for m in 1..=model.config().window {
                let cut: Vec<Record> = records.iter().map(|r| newest(r, m)).collect();
                let batch: Vec<&Record> = cut.iter().collect();
                let want = model.forward_inference(&batch);
                assert_eq!(plan.forward_inference(&batch), want, "{kind:?} m={m}");
                // The slice form, one window at a time on a reused scratch.
                for (i, r) in cut.iter().enumerate() {
                    let got = plan.forward(window_rows(&r.covariates), &mut scratch);
                    for (k, head) in got.chunks_exact(plan.head_len()).enumerate() {
                        assert_eq!(head, want[k].row(i), "{kind:?} m={m} record {i} head {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn quantized_plan_tracks_the_exact_one() {
        for kind in [EncoderKind::Lstm, EncoderKind::Gru] {
            let (model, records) = trained(kind);
            let batch: Vec<&Record> = records.iter().collect();
            let exact = model.packed().forward_inference(&batch);
            let plan = model.quantized();
            assert_eq!(plan.lane(), InferenceLane::Quantized);
            let quant = plan.forward_inference(&batch);
            for (e, q) in exact.iter().zip(&quant) {
                for (a, b) in e.as_slice().iter().zip(q.as_slice()) {
                    assert!((a - b).abs() < 0.05, "{kind:?}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn clones_share_one_compiled_plan_per_lane() {
        let (model, _) = trained(EncoderKind::Lstm);
        let clone = model.clone();
        for lane in [InferenceLane::Exact, InferenceLane::Quantized] {
            let first = InferencePlan::compile(&model, lane);
            assert_eq!(first.lane(), lane);
            assert!(first.shares_weights_with(&InferencePlan::compile(&model, lane)));
            assert!(first.shares_weights_with(&InferencePlan::compile(&clone, lane)));
            assert!(first.shares_weights_with(&InferencePlan::compile(&clone.clone(), lane)));
        }
        assert!(!model.packed().shares_weights_with(&model.quantized()));

        fn shared_across_threads<T: Send + Sync>() {}
        shared_across_threads::<InferencePlan>();
        shared_across_threads::<EventHit>();
    }

    #[test]
    fn params_mut_retires_the_plan_and_a_held_plan_keeps_the_old_weights() {
        use eventhit_nn::optimizer::{Optimizer, Sgd};
        for kind in [EncoderKind::Lstm, EncoderKind::Gru] {
            let (mut model, records) = trained(kind);
            let before = model.clone();
            let held = [model.packed(), model.quantized()];

            // One optimizer step on real gradients.
            let batch: Vec<&Record> = records.iter().take(8).collect();
            model.zero_grad();
            let outs = model.forward(&batch);
            model.backward(&outs);
            Sgd::new(0.5, 0.0).step(&mut model.params_mut());

            let fresh = [model.packed(), model.quantized()];
            for (held, fresh) in held.iter().zip(&fresh) {
                assert!(!held.shares_weights_with(fresh), "{kind:?}");
                // The untouched clone still finds the plan it shared.
                assert!(held.shares_weights_with(&InferencePlan::compile(&before, held.lane())));
            }
            for m in 1..=model.config().window {
                let cut: Vec<Record> = records.iter().map(|r| newest(r, m)).collect();
                let batch: Vec<&Record> = cut.iter().collect();
                let new = model.forward_inference(&batch);
                let old = before.forward_inference(&batch);
                assert_ne!(new, old, "{kind:?} m={m}: the step must move the scores");
                assert_eq!(fresh[0].forward_inference(&batch), new, "{kind:?} m={m}");
                assert_eq!(held[0].forward_inference(&batch), old, "{kind:?} m={m}");
                // The int8 plans follow their own weights just as closely.
                let quant = fresh[1].forward_inference(&batch);
                assert_ne!(quant, held[1].forward_inference(&batch));
                for (e, q) in new.iter().zip(&quant) {
                    for (a, b) in e.as_slice().iter().zip(q.as_slice()) {
                        assert!((a - b).abs() < 0.05, "{kind:?} m={m}: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_trained_model_carries_no_backprop_cache() {
        for kind in [EncoderKind::Lstm, EncoderKind::Gru] {
            let (mut model, records) = trained(kind);
            assert_eq!(model.training_cache_len(), 0, "{kind:?}");
            // Inference works without the caches and leaves none behind...
            let batch: Vec<&Record> = records.iter().take(4).collect();
            let outs = model.forward_inference(&batch);
            assert_eq!(model.training_cache_len(), 0);
            // ...and a forward refills them, so backward still works.
            model.zero_grad();
            assert_eq!(model.forward(&batch), outs, "dropout is off after training");
            assert!(model.training_cache_len() > 0);
            model.backward(&outs);
            assert!(model.params_mut().iter().all(|p| p.grad.max_abs() > 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "window length 6 outside [1, 5]")]
    fn plan_rejects_a_window_longer_than_the_model_was_built_for() {
        let plan = EventHit::new(tiny_config(), 9).packed();
        let r = record(6, 4, 0.1);
        plan.forward(window_rows(&r.covariates), &mut plan.scratch());
    }

    #[test]
    #[should_panic(expected = "uniform per batch")]
    fn batch_rejects_mixed_window_lengths() {
        let model = EventHit::new(tiny_config(), 8);
        let a = record(5, 4, 0.1);
        let b = record(3, 4, 0.1);
        let _ = model.forward_inference(&[&a, &b]);
    }

    #[test]
    fn param_count_is_consistent() {
        let model = EventHit::new(tiny_config(), 5);
        // LSTM: 4*6*(4 + 6 + 1) = 264; shared: 5*6 + 5 = 35;
        // heads: 2 * (11 * 9 + 11) = 220.
        assert_eq!(model.param_count(), 264 + 35 + 220);
        // The count from the config alone is what either encoder's tensors
        // actually hold.
        for kind in [EncoderKind::Lstm, EncoderKind::Gru] {
            let model = EventHit::with_encoder(tiny_config(), kind, 5);
            let held: usize = model.params().iter().map(|p| p.len()).sum();
            assert_eq!(tiny_config().param_count(kind), Some(held), "{kind:?}");
        }
        let zero = EventHitConfig {
            shared_dim: 0,
            ..tiny_config()
        };
        assert_eq!(zero.param_count(EncoderKind::Lstm), None);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn forward_rejects_empty_batch() {
        let mut model = EventHit::new(tiny_config(), 6);
        let _ = model.forward(&[]);
    }
}
