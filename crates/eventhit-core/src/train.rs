//! End-to-end training of EventHit with the paper's losses (§III).
//!
//! The total loss is `L_Total = L1 + L2`:
//!
//! * `L1` — per-event binary cross-entropy between the existence score
//!   `b_k` and the ground-truth indicator `1[E_k ∈ L_n]`, weighted by
//!   `β_k`.
//! * `L2` — per-frame cross-entropy between `θ_{k,v}` and the indicator
//!   that offset `v` falls inside the occurrence interval, computed only on
//!   records where the event occurs, weighted by `γ_k`, with the in-interval
//!   terms normalized by the interval length and the out-of-interval terms
//!   by the remaining horizon length (the paper's exact normalization).

use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use eventhit_rng::rngs::StdRng;
use eventhit_rng::seq::SliceRandom;
use eventhit_rng::SeedableRng;
use eventhit_telemetry::Telemetry;

use eventhit_nn::loss::{bce_scalar, bce_scalar_grad};
use eventhit_nn::matrix::Matrix;
use eventhit_nn::optimizer::Adam;
use eventhit_parallel::Pool;

use eventhit_video::records::Record;

use crate::model::{BlockTrace, EventHit, StepCrew, StepDone, StepJob};

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the (possibly rebalanced) training pool.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Per-event classification-loss weights `β_k` (empty = all 1).
    pub beta: Vec<f32>,
    /// Per-event occurrence-loss weights `γ_k` (empty = all 1).
    pub gamma: Vec<f32>,
    /// RNG seed for shuffling and dropout.
    pub seed: u64,
}

/// Global gradient-norm clip; steps whose gradient norm exceeds this are
/// scaled down (implemented as learning-rate scaling).
const CLIP_NORM: f32 = 5.0;

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            batch_size: 64,
            lr: 3e-3,
            beta: Vec::new(),
            gamma: Vec::new(),
            seed: 7,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean total loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Loss of the final epoch.
    pub final_loss: f32,
}

/// Computes `L_Total` for a batch of head outputs and the gradient
/// `dL/d(output)` per head. `outputs[k]` has shape `batch x (1 + H)`.
pub fn event_losses(
    outputs: &[Matrix],
    records: &[&Record],
    beta: &[f32],
    gamma: &[f32],
    horizon: usize,
) -> (f32, Vec<Matrix>) {
    let batch = records.len();
    let k_events = outputs.len();
    assert!(batch > 0, "empty batch");
    let mut total = 0.0f32;
    let mut grads = Vec::with_capacity(k_events);
    let inv_batch = 1.0 / batch as f32;

    for (k, out) in outputs.iter().enumerate() {
        assert_eq!(
            out.shape(),
            (batch, 1 + horizon),
            "head output shape mismatch"
        );
        let beta_k = beta.get(k).copied().unwrap_or(1.0);
        let gamma_k = gamma.get(k).copied().unwrap_or(1.0);
        let mut grad = Matrix::zeros(batch, 1 + horizon);

        for (i, record) in records.iter().enumerate() {
            let label = &record.labels[k];
            let y_exist = if label.present { 1.0 } else { 0.0 };
            let b = out[(i, 0)];
            total += beta_k * bce_scalar(b, y_exist) * inv_batch;
            grad[(i, 0)] = beta_k * bce_scalar_grad(b, y_exist) * inv_batch;

            if !label.present {
                continue;
            }
            let dur = label.duration().max(1) as f32;
            let out_frames = (horizon as u32).saturating_sub(label.duration()).max(1) as f32;
            for v in 1..=horizon {
                let inside = (label.start..=label.end).contains(&(v as u32));
                let (y, w) = if inside {
                    (1.0, gamma_k / dur)
                } else {
                    (0.0, gamma_k / out_frames)
                };
                let p = out[(i, v)];
                total += w * bce_scalar(p, y) * inv_batch;
                grad[(i, v)] = w * bce_scalar_grad(p, y) * inv_batch;
            }
        }
        grads.push(grad);
    }
    (total, grads)
}

/// Builds the positive-balanced index pool for one epoch: records whose
/// horizon contains at least one event are oversampled so minibatches are
/// roughly class-balanced. The paper's real datasets have positive-anchor
/// rates of a few percent; balancing is the standard remedy and does not
/// change the conformal guarantees (C-CLASSIFY is rank-based).
fn index_pool(records: &[Record]) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..records.len()).collect();
    let positives: Vec<usize> = (0..records.len())
        .filter(|&i| records[i].labels.iter().any(|l| l.present))
        .collect();
    if positives.is_empty() {
        return pool;
    }
    let negatives = records.len() - positives.len();
    // Duplicate positives until they make up roughly half the pool.
    let dup = (negatives / positives.len()).saturating_sub(1).min(20);
    for _ in 0..dup {
        pool.extend_from_slice(&positives);
    }
    pool
}

/// Trains the model in place and returns per-epoch losses.
///
/// Every step runs on the ambient [`Pool::current`]'s workers, resident
/// for the whole run (a [`Pool::crew`]), in two grains: the batch's rows
/// cut into one contiguous block per worker for the forward and the
/// per-row half of the backward, then the weight gradients as whole
/// products over the batch (see `train_step`). The loss, the gradient
/// norm and the Adam update stay on this thread. No product is split, so
/// the trained weights are the same bits at any worker count.
///
/// `tel` (pass [`Telemetry::disabled`] for none) receives a `train` span
/// nesting one `train.epoch` span per epoch, per-step timing in
/// `train.step_seconds`, the example throughput in `train.examples` /
/// `train.examples_per_sec`, and the running loss in the
/// `train.epoch_loss` gauge.
pub fn train(
    model: &mut EventHit,
    records: &[Record],
    cfg: &TrainConfig,
    tel: &Telemetry,
) -> TrainReport {
    assert!(!records.is_empty(), "no training records");
    assert!(cfg.epochs > 0 && cfg.batch_size > 0);
    let model = RwLock::new(model);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr);

    let _run = tel.span("train");
    let epoch_losses: Vec<f32> = Pool::current().crew(
        |job| read(&model).run_job(job),
        |crew| {
            (0..cfg.epochs)
                .map(|_| epoch(&model, crew, records, cfg, &mut rng, &mut opt, tel))
                .collect()
        },
    );

    let final_loss = *epoch_losses.last().expect("at least one epoch");
    TrainReport {
        epoch_losses,
        final_loss,
    }
}

/// One pass over the rebalanced, shuffled training pool: returns its
/// mean loss.
fn epoch<'r>(
    model: &RwLock<&mut EventHit>,
    crew: &StepCrew<'_, 'r>,
    records: &'r [Record],
    cfg: &TrainConfig,
    rng: &mut StdRng,
    opt: &mut Adam,
    tel: &Telemetry,
) -> f32 {
    let _epoch = tel.span("train.epoch");
    let epoch_start = tel.now();
    let horizon = read(model).config().horizon;
    let mut pool = index_pool(records);
    pool.shuffle(rng);
    let mut epoch_loss = 0.0f32;
    let mut batches = 0usize;
    let mut examples = 0u64;

    for chunk in pool.chunks(cfg.batch_size) {
        let step_start = tel.now();
        let batch: Vec<&Record> = chunk.iter().map(|&i| &records[i]).collect();
        let loss = train_step(model, crew, &batch, |outputs| {
            event_losses(outputs, &batch, &cfg.beta, &cfg.gamma, horizon)
        });

        // Gradient clipping via learning-rate scaling: Adam's per-step
        // update is already magnitude-normalized, so scaling the step
        // for an over-norm gradient is equivalent in effect to clipping.
        let mut weights = write(model);
        let norm: f32 = weights
            .params_mut()
            .iter()
            .map(|p| p.grad.as_slice().iter().map(|&g| g * g).sum::<f32>())
            .sum::<f32>()
            .sqrt();
        let scale = if norm > CLIP_NORM {
            CLIP_NORM / norm
        } else {
            1.0
        };
        opt.set_learning_rate(cfg.lr * scale);
        opt.step(&mut weights.params_mut());

        epoch_loss += loss;
        batches += 1;
        examples += batch.len() as u64;
        tel.observe("train.step_seconds", tel.now() - step_start);
    }
    let mean_loss = epoch_loss / batches.max(1) as f32;
    tel.add("train.examples", examples);
    tel.gauge_set("train.epoch_loss", mean_loss as f64);
    let dt = tel.now() - epoch_start;
    if dt > 0.0 {
        tel.gauge_set("train.examples_per_sec", examples as f64 / dt);
    }
    mean_loss
}

/// One training step over `batch`, up to the optimizer: sets every
/// parameter gradient and returns the loss, which `loss` computes (with
/// dL/d(output) per head) from the head outputs over the whole batch.
///
/// The crew runs it in three rounds of jobs (see [`EventHit::run_job`]):
/// one forward job per block of rows; one backward job per block, down
/// to every pre-activation gradient; then runs of whole weight-gradient
/// products over the stacked batch. The loss runs on this thread
/// between the first two, and the gradients are set after the third.
/// Each round returns its outputs in job order, and a block's rows are
/// computed as a one-block step computes them, so the gradients are the
/// same bits at any worker count.
pub(crate) fn train_step<'r>(
    model: &RwLock<&mut EventHit>,
    crew: &StepCrew<'_, 'r>,
    batch: &[&'r Record],
    loss: impl FnOnce(&[Matrix]) -> (f32, Vec<Matrix>),
) -> f32 {
    let jobs = write(model).forward_jobs(batch, crew.workers());
    let blocks: Vec<BlockTrace> = crew
        .run(jobs)
        .into_iter()
        .map(|done| match done {
            StepDone::Forward(block) => block,
            _ => unreachable!("a forward job returns its block"),
        })
        .collect();
    let heads = blocks[0].heads();
    let outputs: Vec<Matrix> = (0..heads)
        .map(|k| Matrix::stack_rows(blocks.iter().map(|b| b.output(k).clone()).collect()))
        .collect();
    let (loss, grads) = loss(&outputs);

    let jobs = blocks
        .into_iter()
        .map(|block| StepJob::Backward {
            grads: grads
                .iter()
                .map(|g| g.row_range(block.rows.clone()))
                .collect(),
            block: Box::new(block),
        })
        .collect();
    let blocks = crew
        .run(jobs)
        .into_iter()
        .map(|done| match done {
            StepDone::Backward(grads) => grads,
            _ => unreachable!("a backward job returns its gradients"),
        })
        .collect();

    let jobs = read(model).product_jobs(blocks);
    let values = crew
        .run(jobs)
        .into_iter()
        .flat_map(|done| match done {
            StepDone::Products(values) => values,
            _ => unreachable!("a products job returns its values"),
        })
        .collect();
    write(model).set_grads(values);
    loss
}

fn read<'a, 'm>(model: &'a RwLock<&'m mut EventHit>) -> RwLockReadGuard<'a, &'m mut EventHit> {
    model
        .read()
        .expect("no training step panicked while it updated the model")
}

fn write<'a, 'm>(model: &'a RwLock<&'m mut EventHit>) -> RwLockWriteGuard<'a, &'m mut EventHit> {
    model
        .write()
        .expect("no training step panicked while it updated the model")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EventHitConfig;
    use eventhit_rng::Rng;
    use eventhit_video::records::EventLabel;

    fn labelled_record(m: usize, d: usize, fill: f32, label: EventLabel) -> Record {
        Record {
            anchor: 0,
            covariates: Matrix::filled(m, d, fill),
            labels: vec![label],
        }
    }

    #[test]
    fn loss_hand_computed_existence_only() {
        // One record, event absent: only the b term contributes.
        // out b = 0.5 -> loss = ln 2.
        let out = Matrix::from_vec(1, 3, vec![0.5, 0.9, 0.1]);
        let rec = labelled_record(1, 1, 0.0, EventLabel::absent());
        let (loss, grads) = event_losses(&[out], &[&rec], &[], &[], 2);
        assert!((loss - std::f32::consts::LN_2).abs() < 1e-5);
        // Theta gradients are zero for absent events.
        assert_eq!(grads[0][(0, 1)], 0.0);
        assert_eq!(grads[0][(0, 2)], 0.0);
        assert!(grads[0][(0, 0)] > 0.0); // pushes b down
    }

    #[test]
    fn loss_hand_computed_with_interval() {
        // H = 4, event present at [2, 3]; perfect predictions give ~0 loss.
        let out = Matrix::from_vec(1, 5, vec![1.0 - 1e-6, 1e-6, 1.0 - 1e-6, 1.0 - 1e-6, 1e-6]);
        let label = EventLabel {
            present: true,
            start: 2,
            end: 3,
            censored: false,
        };
        let rec = labelled_record(1, 1, 0.0, label);
        let (loss, _) = event_losses(&[out], &[&rec], &[], &[], 4);
        assert!(loss < 1e-4, "loss={loss}");
    }

    #[test]
    fn loss_normalizes_by_interval_length() {
        // Per the paper, each in-interval frame term carries weight 1/dur;
        // a uniform wrong prediction then contributes the same total
        // regardless of interval length.
        let h = 10;
        let mk = |start: u32, end: u32| {
            let mut v = vec![0.5f32; 1 + h];
            v[0] = 1.0 - 1e-6; // perfect existence
            let out = Matrix::from_vec(1, 1 + h, v);
            let rec = labelled_record(
                1,
                1,
                0.0,
                EventLabel {
                    present: true,
                    start,
                    end,
                    censored: false,
                },
            );
            let (loss, _) = event_losses(&[out], &[&rec], &[], &[], h);
            loss
        };
        let short = mk(3, 4); // dur 2
        let long = mk(2, 9); // dur 8
        assert!((short - long).abs() < 1e-4, "short={short} long={long}");
    }

    #[test]
    fn beta_gamma_scale_their_terms() {
        let out = Matrix::from_vec(1, 3, vec![0.5, 0.5, 0.5]);
        let label = EventLabel {
            present: true,
            start: 1,
            end: 1,
            censored: false,
        };
        let rec = labelled_record(1, 1, 0.0, label);
        let (base, _) = event_losses(std::slice::from_ref(&out), &[&rec], &[1.0], &[1.0], 2);
        let (scaled, _) = event_losses(&[out], &[&rec], &[2.0], &[3.0], 2);
        // base = ln2 (b) + ln2 (in, w=1) + ln2 (out, w=1) = 3 ln2.
        assert!((base - 3.0 * std::f32::consts::LN_2).abs() < 1e-5);
        // scaled = 2 ln2 + 3 ln2 + 3 ln2 = 8 ln2.
        assert!((scaled - 8.0 * std::f32::consts::LN_2).abs() < 1e-5);
    }

    #[test]
    fn gradient_matches_finite_difference_of_loss() {
        let h = 5;
        let label = EventLabel {
            present: true,
            start: 2,
            end: 3,
            censored: false,
        };
        let rec = labelled_record(1, 1, 0.0, label);
        let vals: Vec<f32> = (0..6).map(|i| 0.2 + 0.1 * i as f32).collect();
        let out = Matrix::from_vec(1, 6, vals.clone());
        let (_, grads) = event_losses(&[out], &[&rec], &[], &[], h);
        let eps = 1e-3f32;
        for e in 0..6 {
            let mut vp = vals.clone();
            vp[e] += eps;
            let (lp, _) = event_losses(&[Matrix::from_vec(1, 6, vp.clone())], &[&rec], &[], &[], h);
            vp[e] -= 2.0 * eps;
            let (lm, _) = event_losses(&[Matrix::from_vec(1, 6, vp)], &[&rec], &[], &[], h);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads[0].as_slice()[e];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "e={e}: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn instrumented_training_records_epochs_and_steps() {
        let records: Vec<Record> = (0..40)
            .map(|i| {
                labelled_record(
                    2,
                    2,
                    0.1 * (i % 10) as f32,
                    if i % 2 == 0 {
                        EventLabel {
                            present: true,
                            start: 1,
                            end: 2,
                            censored: false,
                        }
                    } else {
                        EventLabel::absent()
                    },
                )
            })
            .collect();
        let cfg = EventHitConfig {
            input_dim: 2,
            window: 2,
            horizon: 4,
            num_events: 1,
            hidden_dim: 4,
            shared_dim: 4,
            dropout: 0.0,
        };
        let mut model = EventHit::new(cfg, 3);
        let tcfg = TrainConfig {
            epochs: 3,
            batch_size: 16,
            ..Default::default()
        };
        let tel = Telemetry::new();
        let report = train(&mut model, &records, &tcfg, &tel);
        assert_eq!(report.epoch_losses.len(), 3);

        let snap = tel.snapshot();
        let stats = snap.span_stats();
        let train_span = stats.iter().find(|s| s.path == "train").unwrap();
        let epoch_span = stats
            .iter()
            .find(|s| s.path == "train/train.epoch")
            .unwrap();
        assert_eq!(train_span.calls, 1);
        assert_eq!(epoch_span.calls, 3);
        let steps = snap.histogram("train.step_seconds").unwrap();
        assert!(steps.count() >= 3, "at least one step per epoch");
        assert!(snap.counter("train.examples").unwrap() >= 40 * 3);
        assert!(snap.gauge("train.epoch_loss").is_some());

        // A disabled recorder trains identically (telemetry never
        // touches the RNG or the optimizer).
        let mut model2 = EventHit::new(
            EventHitConfig {
                input_dim: 2,
                window: 2,
                horizon: 4,
                num_events: 1,
                hidden_dim: 4,
                shared_dim: 4,
                dropout: 0.0,
            },
            3,
        );
        let report2 = train(&mut model2, &records, &tcfg, &Telemetry::disabled());
        assert_eq!(report.epoch_losses, report2.epoch_losses);
    }

    #[test]
    fn index_pool_balances_positives() {
        let pos = labelled_record(
            1,
            1,
            0.0,
            EventLabel {
                present: true,
                start: 1,
                end: 1,
                censored: false,
            },
        );
        let neg = labelled_record(1, 1, 0.0, EventLabel::absent());
        let mut records = vec![pos];
        for _ in 0..9 {
            records.push(neg.clone());
        }
        let pool = index_pool(&records);
        let pos_count = pool.iter().filter(|&&i| i == 0).count();
        // 1 positive duplicated ~9x against 9 negatives.
        assert!(pos_count >= 5, "positives={pos_count} pool={}", pool.len());
    }

    #[test]
    fn training_reduces_loss_on_learnable_task() {
        // Synthetic: feature value directly encodes whether/when the event
        // happens. Records with fill > 0 have the event at a fixed interval.
        let mut rng = StdRng::seed_from_u64(3);
        let m = 4;
        let d = 3;
        let h = 8;
        let records: Vec<Record> = (0..240)
            .map(|_| {
                let positive = rng.random::<f32>() < 0.5;
                let fill = if positive { 0.9 } else { 0.1 };
                let noise: f32 = rng.random_range(-0.05..0.05);
                let label = if positive {
                    EventLabel {
                        present: true,
                        start: 3,
                        end: 5,
                        censored: false,
                    }
                } else {
                    EventLabel::absent()
                };
                labelled_record(m, d, fill + noise, label)
            })
            .collect();

        let cfg = EventHitConfig {
            input_dim: d,
            window: m,
            horizon: h,
            num_events: 1,
            hidden_dim: 8,
            shared_dim: 6,
            dropout: 0.0,
        };
        let mut model = EventHit::new(cfg, 11);
        let report = train(
            &mut model,
            &records,
            &TrainConfig {
                epochs: 30,
                batch_size: 32,
                lr: 0.01,
                ..Default::default()
            },
            &Telemetry::disabled(),
        );
        assert!(
            report.final_loss < report.epoch_losses[0] * 0.5,
            "loss did not halve: {:?}",
            report.epoch_losses
        );

        // The trained model separates positives from negatives on b and
        // puts high theta inside the interval.
        let pos = labelled_record(
            m,
            d,
            0.9,
            EventLabel {
                present: true,
                start: 3,
                end: 5,
                censored: false,
            },
        );
        let neg = labelled_record(m, d, 0.1, EventLabel::absent());
        let outs = model.forward_inference(&[&pos, &neg]);
        let b_pos = outs[0][(0, 0)];
        let b_neg = outs[0][(1, 0)];
        assert!(b_pos > 0.7 && b_neg < 0.3, "b_pos={b_pos} b_neg={b_neg}");
        assert!(
            outs[0][(0, 4)] > outs[0][(0, 8)],
            "theta should peak inside interval"
        );
    }
}
