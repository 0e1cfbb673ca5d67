//! The EventHit network (paper §III, Fig. 3).
//!
//! A shared sub-network — LSTM encoder over the collection window, a fully
//! connected layer with dropout producing the latent vector `z` — feeds `K`
//! event-specific sub-networks. Each head consumes `z ⊕ X_n` (the latent
//! concatenated with the *last* feature vector of the window) and emits,
//! through a sigmoid, the vector `Θ_k = [b_k, θ_{k,1}, …, θ_{k,H}]`:
//! `b_k` scores the event's occurrence anywhere in the horizon and
//! `θ_{k,v}` scores its occurrence at horizon offset `v`.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use eventhit_rng::rngs::StdRng;
use eventhit_rng::SeedableRng;

use eventhit_nn::activation::Activation;
use eventhit_nn::cell::CellState;
use eventhit_nn::dense::{Dense, DenseTrace, PackedDense, QuantizedDense};
use eventhit_nn::dropout::Dropout;
use eventhit_nn::gru::{Gru, GruTrace, PackedGru, QuantizedGru};
use eventhit_nn::init::Init;
use eventhit_nn::lstm::{Lstm, LstmTrace, PackedLstm, QuantizedLstm};
use eventhit_nn::matrix::Matrix;
use eventhit_nn::optimizer::ParamMut;
use eventhit_nn::quant::InferenceLane;
use eventhit_nn::step::{GateGrad, Product};
use eventhit_parallel::Crew;

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

/// What a training forward of the encoder keeps of a block of rows.
enum EncoderTrace {
    Lstm(LstmTrace),
    Gru(GruTrace),
}

impl Encoder {
    fn forward_trace(&self, xs: &[Matrix]) -> (Matrix, EncoderTrace) {
        match self {
            Encoder::Lstm(l) => {
                let (h, trace) = l.forward_trace(xs);
                (h, EncoderTrace::Lstm(trace))
            }
            Encoder::Gru(g) => {
                let (h, trace) = g.forward_trace(xs);
                (h, EncoderTrace::Gru(trace))
            }
        }
    }

    fn forward_inference(&self, xs: &[Matrix]) -> Matrix {
        match self {
            Encoder::Lstm(l) => l.forward_inference(xs),
            Encoder::Gru(g) => g.forward_inference(xs),
        }
    }

    fn bptt(&self, trace: EncoderTrace, dh: &Matrix) -> Vec<GateGrad> {
        match (self, trace) {
            (Encoder::Lstm(l), EncoderTrace::Lstm(t)) => l.bptt(t, dh),
            (Encoder::Gru(g), EncoderTrace::Gru(t)) => g.bptt(t, dh),
            _ => unreachable!("a trace comes from its own encoder"),
        }
    }

    fn grad_products<'a>(&self, steps: &'a [GateGrad]) -> Vec<Product<'a>> {
        match self {
            Encoder::Lstm(_) => Lstm::grad_products(steps),
            Encoder::Gru(_) => Gru::grad_products(steps),
        }
    }

    fn set_grads(&mut self, values: impl IntoIterator<Item = Matrix>) {
        match self {
            Encoder::Lstm(l) => l.set_grads(values),
            Encoder::Gru(g) => g.set_grads(values),
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
}

/// The EventHit network, in its trainable form: parameters, the last
/// training step's gradients, and the generator its dropout masks come
/// from. A step's activations live in its jobs, never here.
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
    /// The plans compiled from the current weights, shared with every
    /// clone (a clone starts with the same weights, so with the same
    /// plans). A stale plan is impossible by construction:
    /// [`EventHit::params_mut`] detaches this model onto an empty memo
    /// before it hands out the weights, and nowhere else needs to — no
    /// other `&mut` path reaches a weight, because `encoder`,
    /// `shared_fc` and `heads` are private to this module and every other
    /// `&mut self` method here touches only gradients or the rng.
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

    /// The first jobs of a training step over `records`: the rows cut
    /// into `min(workers, rows)` contiguous blocks, one forward job each.
    /// The dropout mask of the whole batch is drawn here, row-major,
    /// before any block runs, so the rng moves as a one-block step moves
    /// it.
    pub(crate) fn forward_jobs<'r>(
        &mut self,
        records: &[&'r Record],
        workers: usize,
    ) -> Vec<StepJob<'r>> {
        assert!(!records.is_empty(), "empty batch");
        window_len(&self.config, records);
        let mask = self
            .dropout
            .mask(records.len(), self.config.shared_dim, &mut self.rng);
        let blocks = workers.clamp(1, records.len());
        (0..blocks)
            .map(|b| {
                let rows = b * records.len() / blocks..(b + 1) * records.len() / blocks;
                StepJob::Forward {
                    records: records[rows.clone()].to_vec(),
                    mask: mask.as_ref().map(|m| m.row_range(rows.clone())),
                    rows,
                }
            })
            .collect()
    }

    /// Runs one job of a training step. Pure `&self`: the jobs of a step
    /// run on any threads, and each computes what it would on this one.
    pub(crate) fn run_job(&self, job: StepJob<'_>) -> StepDone {
        match job {
            StepJob::Forward {
                records,
                rows,
                mask,
            } => StepDone::Forward(self.forward_block(&records, rows, mask)),
            StepJob::Backward { block, grads } => {
                StepDone::Backward(self.backward_block(*block, &grads))
            }
            StepJob::Products(groups) => StepDone::Products(
                groups
                    .into_iter()
                    .flat_map(|group| group.compute(&self.encoder))
                    .collect(),
            ),
        }
    }

    /// Grain 1, forward: the whole network over one block's rows.
    fn forward_block(
        &self,
        records: &[&Record],
        rows: Range<usize>,
        mask: Option<Matrix>,
    ) -> BlockTrace {
        let xs = batch_sequence(&self.config, records);
        let (h, encoder) = self.encoder.forward_trace(&xs);
        let shared = self.shared_fc.forward_trace(&h);
        let z = match &mask {
            Some(mask) => shared.output().hadamard(mask),
            None => shared.output().clone(),
        };
        let concat = z.hcat(&xs[xs.len() - 1]);
        let heads = self
            .heads
            .iter()
            .map(|head| head.forward_trace(&concat))
            .collect();
        BlockTrace {
            rows,
            encoder,
            h,
            shared,
            mask,
            concat,
            heads,
        }
    }

    /// Grain 1, backward: the per-row half over one block — head and
    /// dense input gradients, dropout, and the BPTT recursion down to
    /// each timestep's gate pre-activation gradient. `grads[k]` is
    /// dL/d(output of head `k`) for the block's rows.
    fn backward_block(&self, block: BlockTrace, grads: &[Matrix]) -> BlockGrads {
        let BlockTrace {
            encoder,
            h,
            shared,
            mask,
            concat,
            heads,
            ..
        } = block;
        let mut d_concat = Matrix::zeros(concat.rows(), concat.cols());
        let heads_dpre = self
            .heads
            .iter()
            .zip(&heads)
            .zip(grads)
            .map(|((head, trace), g)| {
                let (dpre, dx) = head.backward_rows(trace, g);
                d_concat.add_assign(&dx);
                dpre
            })
            .collect();
        let (d_z, _d_xlast) = d_concat.hsplit(self.config.shared_dim);
        let d_z = match &mask {
            Some(mask) => d_z.hadamard(mask),
            None => d_z,
        };
        let (shared_dpre, d_h) = self.shared_fc.backward_rows(&shared, &d_z);
        BlockGrads {
            heads_dpre,
            concat,
            shared_dpre,
            h,
            steps: self.encoder.bptt(encoder, &d_h),
        }
    }

    /// Grain 2: the weight-gradient products of the whole batch, dealt
    /// out in jobs of at least [`PRODUCT_TASK_MACS`] multiply–adds. A
    /// job takes whole layers' (and whole encoder timesteps') products,
    /// in [`EventHit::set_grads`] order, with each block's rows of their
    /// inputs; it stacks those rows back into the batch and computes
    /// each product whole, one chain over ascending rows per output.
    pub(crate) fn product_jobs(&self, blocks: Vec<BlockGrads>) -> Vec<StepJob<'static>> {
        let mut heads: Vec<(Vec<Matrix>, Vec<Matrix>)> = vec![Default::default(); self.heads.len()];
        let (mut shared_dpre, mut h, mut steps) = (Vec::new(), Vec::new(), Vec::new());
        for block in blocks {
            for ((dpre, x), block_dpre) in heads.iter_mut().zip(block.heads_dpre) {
                dpre.push(block_dpre);
                x.push(block.concat.clone());
            }
            shared_dpre.push(block.shared_dpre);
            h.push(block.h);
            steps.push(block.steps);
        }
        let groups = heads
            .into_iter()
            .map(|(dpre, x)| GradInputs::Dense { dpre, x })
            .chain([GradInputs::Dense {
                dpre: shared_dpre,
                x: h,
            }])
            .chain(
                GateGrad::by_timestep(steps)
                    .into_iter()
                    .rev()
                    .map(GradInputs::Step),
            );

        let mut jobs = Vec::new();
        let (mut job, mut macs) = (Vec::new(), 0);
        for group in groups {
            macs += group.macs(&self.encoder);
            job.push(group);
            if macs >= PRODUCT_TASK_MACS {
                jobs.push(StepJob::Products(std::mem::take(&mut job)));
                macs = 0;
            }
        }
        if !job.is_empty() {
            jobs.push(StepJob::Products(job));
        }
        jobs
    }

    /// Sets every parameter gradient from a step's computed products:
    /// each head's, the shared layer's, then the encoder's, timesteps
    /// descending, as [`EventHit::product_jobs`] deals them. Each layer
    /// folds its own in the order a one-block step adds them.
    pub(crate) fn set_grads(&mut self, values: Vec<Matrix>) {
        let mut values = values.into_iter();
        for head in &mut self.heads {
            head.set_grads(values.by_ref().take(2));
        }
        self.shared_fc.set_grads(values.by_ref().take(2));
        self.encoder.set_grads(values);
    }

    /// Inference-only forward pass (dropout is never applied, no trace
    /// of the training graph). Pure `&self`, so one trained model can be
    /// shared across threads to score batches in parallel; the arithmetic
    /// matches a training step's forward with dropout off, bit for bit.
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

/// Multiply–adds a job of weight-gradient products gathers before it
/// closes: ~100 µs of tile sweep at reference speed (a 2.36 M
/// multiply–add product takes ~260 µs there, DESIGN §9). One LSTM
/// timestep of the benchmark's TA10 model at batch 64 is ~0.65 M.
const PRODUCT_TASK_MACS: usize = 1 << 20;

/// One job of a training step's parallel work, for
/// [`EventHit::run_job`]. Each carries what it reads, so a crew of
/// resident workers can run it.
pub(crate) enum StepJob<'r> {
    /// The whole forward over one block of the batch's rows.
    Forward {
        records: Vec<&'r Record>,
        rows: Range<usize>,
        /// The block's rows of the batch's dropout mask.
        mask: Option<Matrix>,
    },
    /// The per-row half of the backward over a block: its trace, and
    /// its rows of each head's output gradient.
    Backward {
        block: Box<BlockTrace>,
        grads: Vec<Matrix>,
    },
    /// Whole layers' (or encoder timesteps') weight-gradient products.
    Products(Vec<GradInputs>),
}

/// The resident workers a training run's steps share.
pub(crate) type StepCrew<'c, 'r> = Crew<'c, StepJob<'r>, StepDone>;

/// What a [`StepJob`] produces, variant for variant.
pub(crate) enum StepDone {
    Forward(BlockTrace),
    Backward(BlockGrads),
    Products(Vec<Matrix>),
}

/// What a block's forward keeps for its backward.
pub(crate) struct BlockTrace {
    /// The batch rows the block holds.
    pub(crate) rows: Range<usize>,
    encoder: EncoderTrace,
    /// The encoder's final hidden state: the shared layer's input.
    h: Matrix,
    shared: DenseTrace,
    /// The block's rows of the batch's dropout mask.
    mask: Option<Matrix>,
    /// The heads' input `z ⊕ X_n`.
    concat: Matrix,
    heads: Vec<DenseTrace>,
}

impl BlockTrace {
    /// The number of event heads.
    pub(crate) fn heads(&self) -> usize {
        self.heads.len()
    }

    /// Head `k`'s output rows.
    pub(crate) fn output(&self, k: usize) -> &Matrix {
        self.heads[k].output()
    }
}

/// What a block's backward hands to the whole-batch products: its rows
/// of every pre-activation gradient and of the inputs they multiply.
pub(crate) struct BlockGrads {
    heads_dpre: Vec<Matrix>,
    concat: Matrix,
    shared_dpre: Matrix,
    h: Matrix,
    steps: Vec<GateGrad>,
}

/// The inputs of one layer's weight-gradient products, or of one
/// encoder timestep's, as the blocks hand them over: each block's rows,
/// in block order.
pub(crate) enum GradInputs {
    /// A dense layer's pre-activation gradient and input.
    Dense { dpre: Vec<Matrix>, x: Vec<Matrix> },
    /// One encoder timestep's BPTT output.
    Step(Vec<GateGrad>),
}

impl GradInputs {
    /// The multiply–adds of the products: those of each block's rows.
    fn macs(&self, encoder: &Encoder) -> usize {
        let products: Vec<Product<'_>> = match self {
            GradInputs::Dense { dpre, x } => dpre
                .iter()
                .zip(x)
                .flat_map(|(dpre, x)| Dense::grad_products(dpre, x))
                .collect(),
            GradInputs::Step(blocks) => blocks
                .iter()
                .flat_map(|block| encoder.grad_products(std::slice::from_ref(block)))
                .collect(),
        };
        products.iter().map(Product::macs).sum()
    }

    /// Stacks the blocks' rows and computes the products whole, in the
    /// layer's `grad_products` order.
    fn compute(self, encoder: &Encoder) -> Vec<Matrix> {
        match self {
            GradInputs::Dense { dpre, x } => {
                let (dpre, x) = (Matrix::stack_rows(dpre), Matrix::stack_rows(x));
                Dense::grad_products(&dpre, &x).map(|p| p.compute()).into()
            }
            GradInputs::Step(blocks) => {
                let step = [GateGrad::stack(blocks)];
                encoder
                    .grad_products(&step)
                    .iter()
                    .map(Product::compute)
                    .collect()
            }
        }
    }
}

/// The window length `m` every record of a batch shares.
///
/// # Panics
/// Panics if `m` is outside `[1, M]` or a record's covariates are not
/// `m x D`.
fn window_len(config: &EventHitConfig, records: &[&Record]) -> usize {
    let m = records[0].covariates.rows();
    let d = config.input_dim;
    assert!(
        m >= 1 && m <= config.window,
        "window length {m} outside [1, {}]",
        config.window
    );
    for r in records {
        assert_eq!(
            r.covariates.shape(),
            (m, d),
            "record covariates must be {m}x{d} (uniform per batch)"
        );
    }
    m
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
    let m = window_len(config, records);
    (0..m)
        .map(|t| {
            let mut x = Matrix::zeros(records.len(), config.input_dim);
            for (i, r) in records.iter().enumerate() {
                x.set_row(i, r.covariates.row(t));
            }
            x
        })
        .collect()
}

/// The most windows the batch callers hand one
/// [`InferencePlan::forward_rows`] call. Four already fill a row block,
/// and past that a window costs no less (8.70, 8.39 and 8.41 µs at 4, 8
/// and 16 windows, DESIGN §11), while the scratch grows with the batch:
/// this bound keeps it in the tens of kilobytes.
pub(crate) const BATCH_WINDOWS: usize = 16;

/// The plan's recurrent encoder: either lane of either cell.
enum PlanEncoder {
    Lstm(PackedLstm),
    Gru(PackedGru),
    QuantizedLstm(QuantizedLstm),
    QuantizedGru(QuantizedGru),
}

impl PlanEncoder {
    /// Advances the sequences of `state`, one input row each in `x`: all
    /// of them in one step on the exact lane, the one sequence an int8
    /// state holds on the quantized lane.
    fn step_rows(&self, x: &[f32], state: &mut CellState) {
        match self {
            PlanEncoder::Lstm(l) => l.step_rows(x, state),
            PlanEncoder::Gru(g) => g.step_rows(x, state),
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
    /// `rows` rows of `x` into as many of `out`; the int8 lane takes one.
    fn forward_rows_into(&self, rows: usize, x: &[f32], xq: &mut Vec<f32>, out: &mut [f32]) {
        match self {
            PlanDense::Packed(d) => d.forward_rows_into(rows, x, out),
            PlanDense::Quantized(d) => d.forward_into(x, xq, out),
        }
    }
}

/// The buffers an [`InferencePlan`] forward works in, reused for every
/// batch scored after that: a buffer grows to the largest batch it has
/// held and then allocates nothing. Any plan's forward may use any
/// scratch.
#[derive(Clone, Debug, Default)]
pub struct InferenceScratch {
    cell: CellState,
    /// The batch's window rows, time-major: row `t` of window `i` of `b`
    /// starts at `(t * b + i) * D`.
    xs: Vec<f32>,
    /// The shared layer's outputs `z`, one row per window of a block.
    z: Vec<f32>,
    /// The head input `z ⊕ X_n`, one row per window of a block.
    concat: Vec<f32>,
    /// Int8 codes of the dense layers' activations, as `f32` (int8 lane
    /// only).
    xq: Vec<f32>,
    /// One head's outputs, one row per window of a block.
    head: Vec<f32>,
    /// The head outputs, `b x K x (1 + H)` row-major.
    out: Vec<f32>,
}

impl InferenceScratch {
    /// Copies `b` windows of `d`-wide rows, each between 1 and
    /// `window` rows long, into [`InferenceScratch::xs`], time-major, and
    /// returns the length they share.
    ///
    /// # Panics
    /// Panics if there is no window, a window is empty or longer than
    /// `window` rows, a row is not `d` long, or two windows differ in
    /// length.
    fn gather<'a, W>(
        &mut self,
        windows: impl ExactSizeIterator<Item = W>,
        d: usize,
        window: usize,
    ) -> usize
    where
        W: IntoIterator<Item = &'a [f32]>,
    {
        let b = windows.len();
        if self.xs.len() < window * b * d {
            self.xs.resize(window * b * d, 0.0);
        }
        let mut len = None;
        for (i, rows) in windows.enumerate() {
            let mut t = 0;
            for x in rows {
                assert!(t < window, "window length {} outside [1, {window}]", t + 1);
                assert_eq!(x.len(), d, "window row dimensionality mismatch");
                self.xs[(t * b + i) * d..][..d].copy_from_slice(x);
                t += 1;
            }
            assert!(t >= 1, "window length 0 outside [1, {window}]");
            assert_eq!(
                *len.get_or_insert(t),
                t,
                "the windows of a batch share one length"
            );
        }
        len.expect("empty batch")
    }
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
    pub(crate) fn shares_weights_with(&self, other: &InferencePlan) -> bool {
        Arc::ptr_eq(&self.compiled, &other.compiled)
    }

    /// Buffers sized for one full window of this plan, so that not even
    /// the first [`InferencePlan::forward`] allocates: what a predictor
    /// takes at construction.
    pub fn scratch(&self) -> InferenceScratch {
        let cfg = self.config();
        let (d, s) = (cfg.input_dim, cfg.shared_dim);
        let mut scratch = InferenceScratch {
            xs: vec![0.0; cfg.window * d],
            z: vec![0.0; s],
            concat: vec![0.0; s + d],
            xq: Vec::with_capacity(s + d),
            out: vec![0.0; cfg.num_events * self.head_len()],
            ..InferenceScratch::default()
        };
        scratch.cell.start(cfg.hidden_dim, 1);
        scratch
    }

    /// Scores one collection window: [`InferencePlan::forward_rows`] with
    /// a batch of one. `rows` are its frames' features, oldest first —
    /// between 1 and `M` of them (a shrunken adaptive window runs the
    /// encoder for fewer steps). Returns the sigmoid outputs of all
    /// heads, `K x (1 + H)` row-major, borrowed from `scratch`.
    ///
    /// # Panics
    /// As [`InferencePlan::forward_rows`].
    pub fn forward<'s, 'a>(
        &self,
        rows: impl IntoIterator<Item = &'a [f32]>,
        scratch: &'s mut InferenceScratch,
    ) -> &'s [f32] {
        self.forward_rows(std::iter::once(rows), scratch)
    }

    /// Scores a batch of `b` collection windows that share one length
    /// `m`, each given as its frames' features, oldest first. Returns the
    /// sigmoid outputs of all heads, `b x K x (1 + H)` row-major (window
    /// `i`'s `K x (1 + H)` scores first at `i * K * (1 + H)`), borrowed
    /// from `scratch`.
    ///
    /// On the exact lane the windows run side by side: every product
    /// serves the whole batch, its rows sharing each weight load, and
    /// each output is still the one chain over ascending `k` a window
    /// scored alone computes, so every window's scores are its
    /// [`InferencePlan::forward`] scores, bit for bit, whatever batch it
    /// rides in. The int8 lane scores the windows one at a time.
    /// Allocates nothing once `scratch` has held a batch this large;
    /// sequential, so bit-identical at any worker count.
    ///
    /// # Panics
    /// Panics if there is no window, the windows differ in length, `m`
    /// is outside `[1, M]`, or a row is not `D` long.
    pub fn forward_rows<'s, 'a, W>(
        &self,
        windows: impl IntoIterator<Item = W, IntoIter: ExactSizeIterator>,
        scratch: &'s mut InferenceScratch,
    ) -> &'s [f32]
    where
        W: IntoIterator<Item = &'a [f32]>,
    {
        let Compiled {
            config: cfg,
            lane,
            encoder,
            shared_fc,
            heads,
        } = &*self.compiled;
        let windows = windows.into_iter();
        let (b, d, s) = (windows.len(), cfg.input_dim, cfg.shared_dim);
        let m = scratch.gather(windows, d, cfg.window);
        let InferenceScratch {
            cell,
            xs,
            z,
            concat,
            xq,
            head,
            out,
        } = scratch;
        let (n, k) = (self.head_len(), heads.len());
        out.resize(b * k * n, 0.0);
        let block = match lane {
            InferenceLane::Exact => b,
            InferenceLane::Quantized => 1,
        };
        for first in (0..b).step_by(block) {
            let rows = |t: usize| &xs[(t * b + first) * d..][..block * d];
            cell.start(cfg.hidden_dim, block);
            for t in 0..m {
                encoder.step_rows(rows(t), cell);
            }
            z.resize(block * s, 0.0);
            shared_fc.forward_rows_into(block, cell.hidden(), xq, z);
            concat.resize(block * (s + d), 0.0);
            let inputs = z.chunks_exact(s).zip(rows(m - 1).chunks_exact(d));
            for (row, (z, x)) in concat.chunks_exact_mut(s + d).zip(inputs) {
                row[..s].copy_from_slice(z);
                row[s..].copy_from_slice(x);
            }
            for (kk, layer) in heads.iter().enumerate() {
                if block == 1 {
                    // One window's head outputs are one run of `out`.
                    let scores = &mut out[(first * k + kk) * n..][..n];
                    layer.forward_rows_into(1, concat, xq, scores);
                    continue;
                }
                head.resize(block * n, 0.0);
                layer.forward_rows_into(block, concat, xq, head);
                for (i, scores) in head.chunks_exact(n).enumerate() {
                    out[((first + i) * k + kk) * n..][..n].copy_from_slice(scores);
                }
            }
        }
        out
    }

    /// Scores a batch of records, one `batch x (1 + H)` matrix per event
    /// head — the shape [`EventHit::forward_inference`] returns, for
    /// callers that want matrices and tests that compare the two.
    /// Records may have different window lengths: each run of equal
    /// lengths is scored in [`InferencePlan::forward_rows`] batches.
    pub fn forward_inference(&self, records: &[&Record]) -> Vec<Matrix> {
        assert!(!records.is_empty(), "empty batch");
        let n = self.head_len();
        let mut outputs = vec![Matrix::zeros(records.len(), n); self.config().num_events];
        let mut scratch = InferenceScratch::default();
        let mut i = 0;
        let runs = records.chunk_by(|a, b| a.covariates.rows() == b.covariates.rows());
        for run in runs.flat_map(|run| run.chunks(BATCH_WINDOWS)) {
            let windows = run.iter().map(|r| window_rows(&r.covariates));
            let scores = self.forward_rows(windows, &mut scratch);
            for window in scores.chunks_exact(n * outputs.len()) {
                for (head, row) in outputs.iter_mut().zip(window.chunks_exact(n)) {
                    head.set_row(i, row);
                }
                i += 1;
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

    /// One training step of `model` over `batch` on `workers` workers,
    /// with dL/d(output) = `grad(output)`: returns the head outputs.
    fn step(
        model: &mut EventHit,
        batch: &[&Record],
        workers: usize,
        grad: impl Fn(&Matrix) -> Matrix,
    ) -> Vec<Matrix> {
        use crate::train::train_step;
        use eventhit_parallel::Pool;
        use std::sync::RwLock;
        let model = RwLock::new(model);
        Pool::new(workers).crew(
            |job| model.read().unwrap().run_job(job),
            |crew| {
                let mut outputs = Vec::new();
                train_step(&model, crew, batch, |outs| {
                    outputs = outs.to_vec();
                    (0.0, outs.iter().map(&grad).collect())
                });
                outputs
            },
        )
    }

    /// dL/d(output) of `0.5 * sum(output^2)`.
    fn half_square(out: &Matrix) -> Matrix {
        out.clone()
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
        let outs = step(&mut model, &[&r1, &r2], 1, half_square);
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
        let before = model.clone();
        let a = step(&mut model, &[&r], 1, half_square);
        let model = before;
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
        let passes: Vec<Matrix> = (0..8)
            .map(|_| step(&mut model, &[&r], 1, half_square).remove(0))
            .collect();
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
        // Loss = sum of outputs; dL/dout = 1.
        step(&mut model, &[&r1, &r2], 1, |o| {
            Matrix::filled(o.rows(), o.cols(), 1.0)
        });
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
            let outs = m.forward_inference(&[&r1, &r2]);
            outs.iter()
                .map(|o| 0.5 * o.as_slice().iter().map(|&v| v * v).sum::<f32>())
                .sum()
        };
        let grad_fn = |m: &mut EventHit| {
            step(m, &[&r1, &r2], 2, half_square);
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

    /// `forward_rows` over batches on both sides of every row block, at
    /// the shortest, a middle and the full window, equals one `forward`
    /// per window, by bit pattern — on both lanes of both encoders, with
    /// one scratch that grows and shrinks between batches.
    #[test]
    fn batched_equivalence_forward_rows_matches_single_windows_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for kind in [EncoderKind::Lstm, EncoderKind::Gru] {
            let (model, records) = trained(kind);
            let window = model.config().window;
            for plan in [model.packed(), model.quantized()] {
                let (mut batched, mut single) = Default::default();
                for m in [1, window / 2, window] {
                    let cut: Vec<Record> = records.iter().map(|r| newest(r, m)).collect();
                    for b in [1, 2, 3, 4, 5, 7, 8, 9, 16, 17] {
                        // Distinct windows, wrapping past the 24 records.
                        let batch: Vec<&Record> =
                            (0..b).map(|i| &cut[(i * 5) % cut.len()]).collect();
                        let windows = batch.iter().map(|r| window_rows(&r.covariates));
                        let got = bits(plan.forward_rows(windows, &mut batched));
                        let want: Vec<u32> = batch
                            .iter()
                            .flat_map(|r| {
                                bits(plan.forward(window_rows(&r.covariates), &mut single))
                            })
                            .collect();
                        assert_eq!(got, want, "{kind:?} {:?} m={m} b={b}", plan.lane());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "share one length")]
    fn a_batch_rejects_windows_of_different_lengths() {
        let plan = EventHit::new(tiny_config(), 9).packed();
        let (a, b) = (record(5, 4, 0.1), record(3, 4, 0.1));
        let windows = [&a, &b].map(|r| window_rows(&r.covariates));
        plan.forward_rows(windows, &mut InferenceScratch::default());
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
        use eventhit_nn::optimizer::Adam;
        for kind in [EncoderKind::Lstm, EncoderKind::Gru] {
            let (mut model, records) = trained(kind);
            let before = model.clone();
            let held = [model.packed(), model.quantized()];

            // One optimizer step on real gradients.
            let batch: Vec<&Record> = records.iter().take(8).collect();
            step(&mut model, &batch, 1, half_square);
            Adam::new(0.5).step(&mut model.params_mut());

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
    fn a_step_sets_the_same_bits_at_any_worker_count() {
        use eventhit_rng::Rng;
        for kind in [EncoderKind::Lstm, EncoderKind::Gru] {
            let (trained, records) = trained(kind);
            // Batches no worker count divides, and ones with fewer rows
            // than workers.
            for rows in [1, 3, 7, 24] {
                let batch: Vec<&Record> = records.iter().take(rows).collect();
                let run = |workers| {
                    let mut model = trained.clone();
                    let outputs = step(&mut model, &batch, workers, half_square);
                    let grads: Vec<Vec<u32>> = model
                        .params_mut()
                        .iter()
                        .map(|p| p.grad.as_slice().iter().map(|g| g.to_bits()).collect())
                        .collect();
                    // The rng drew the same dropout mask.
                    (outputs, grads, model.rng.random::<u64>())
                };
                let one = run(1);
                assert!(one.1.iter().flatten().any(|&g| g != 0), "{kind:?}");
                for workers in [2, 3, 8] {
                    assert!(
                        run(workers) == one,
                        "{kind:?} rows={rows} workers={workers}"
                    );
                }
            }
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
    fn a_step_rejects_an_empty_batch() {
        let mut model = EventHit::new(tiny_config(), 6);
        step(&mut model, &[], 2, half_square);
    }

    #[test]
    #[should_panic(expected = "uniform per batch")]
    fn a_step_rejects_mixed_window_lengths_across_its_blocks() {
        let mut model = EventHit::new(tiny_config(), 8);
        let (a, b) = (record(5, 4, 0.1), record(3, 4, 0.1));
        step(&mut model, &[&a, &a, &b, &b], 2, half_square);
    }
}
