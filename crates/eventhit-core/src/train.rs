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

use eventhit_rng::rngs::StdRng;
use eventhit_rng::seq::SliceRandom;
use eventhit_rng::SeedableRng;
use eventhit_telemetry::Telemetry;

use eventhit_nn::loss::{bce_scalar, bce_scalar_grad};
use eventhit_nn::matrix::Matrix;
use eventhit_nn::optimizer::{Adam, Optimizer};
use eventhit_nn::schedule::LrSchedule;
use eventhit_nn::weight_decay::WeightDecay;

use eventhit_video::records::Record;

use crate::model::EventHit;

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
    /// Global gradient-norm clip; steps whose gradient norm exceeds this
    /// are scaled down (implemented as learning-rate scaling).
    pub clip_norm: f32,
    /// RNG seed for shuffling and dropout.
    pub seed: u64,
    /// Oversample records whose horizon contains at least one event so
    /// minibatches are roughly class-balanced. The paper's real datasets
    /// have positive-anchor rates of a few percent; balancing is the
    /// standard remedy and does not change the conformal guarantees
    /// (C-CLASSIFY is rank-based).
    pub balance_positives: bool,
    /// Optional learning-rate schedule; overrides `lr` per step when set.
    pub schedule: Option<LrSchedule>,
    /// Decoupled weight decay (AdamW-style); 0 disables it. Biases are
    /// excluded.
    pub weight_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            batch_size: 64,
            lr: 3e-3,
            beta: Vec::new(),
            gamma: Vec::new(),
            clip_norm: 5.0,
            seed: 7,
            balance_positives: true,
            schedule: None,
            weight_decay: 0.0,
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

/// Builds the (optionally positive-balanced) index pool for one epoch.
fn index_pool(records: &[Record], balance: bool) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..records.len()).collect();
    if !balance {
        return pool;
    }
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
    let horizon = model.config().horizon;
    model.set_training(true);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let decay = WeightDecay::new(cfg.weight_decay);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut step = 0usize;

    let _run = tel.span("train");
    for _ in 0..cfg.epochs {
        let _epoch = tel.span("train.epoch");
        let epoch_start = tel.now();
        let mut pool = index_pool(records, cfg.balance_positives);
        pool.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        let mut examples = 0u64;

        for chunk in pool.chunks(cfg.batch_size) {
            let step_start = tel.now();
            let batch: Vec<&Record> = chunk.iter().map(|&i| &records[i]).collect();
            model.zero_grad();
            let outputs = model.forward(&batch);
            let (loss, grads) = event_losses(&outputs, &batch, &cfg.beta, &cfg.gamma, horizon);
            model.backward(&grads);

            // Gradient clipping via learning-rate scaling: Adam's per-step
            // update is already magnitude-normalized, so scaling the step
            // for an over-norm gradient is equivalent in effect to clipping.
            let norm: f32 = model
                .params_mut()
                .iter()
                .map(|p| p.grad.as_slice().iter().map(|&g| g * g).sum::<f32>())
                .sum::<f32>()
                .sqrt();
            let scale = if norm > cfg.clip_norm {
                cfg.clip_norm / norm
            } else {
                1.0
            };
            let lr_base = cfg.schedule.as_ref().map_or(cfg.lr, |s| s.at(step));
            decay.apply(&mut model.params_mut(), lr_base, false);
            opt.set_learning_rate(lr_base * scale);
            opt.step(&mut model.params_mut());

            epoch_loss += loss;
            batches += 1;
            step += 1;
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
        epoch_losses.push(mean_loss);
    }

    model.set_training(false);
    let final_loss = *epoch_losses.last().expect("at least one epoch");
    TrainReport {
        epoch_losses,
        final_loss,
    }
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
    fn schedule_and_weight_decay_still_learn() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = 4;
        let d = 3;
        let h = 8;
        let records: Vec<Record> = (0..160)
            .map(|_| {
                let positive = rng.random::<f32>() < 0.5;
                let fill = if positive { 0.9 } else { 0.1 };
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
                labelled_record(m, d, fill, label)
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
        let mut model = EventHit::new(cfg, 13);
        let report = train(
            &mut model,
            &records,
            &TrainConfig {
                epochs: 25,
                batch_size: 32,
                lr: 0.02,
                schedule: Some(eventhit_nn::schedule::LrSchedule::WarmupCosine {
                    lr: 0.02,
                    warmup: 10,
                    total: 150,
                    floor: 0.1,
                }),
                weight_decay: 1e-3,
                ..Default::default()
            },
            &Telemetry::disabled(),
        );
        assert!(
            report.final_loss < report.epoch_losses[0] * 0.6,
            "losses: {:?}",
            report.epoch_losses
        );
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
        let pool = index_pool(&records, true);
        let pos_count = pool.iter().filter(|&&i| i == 0).count();
        // 1 positive duplicated ~9x against 9 negatives.
        assert!(pos_count >= 5, "positives={pos_count} pool={}", pool.len());
        let plain = index_pool(&records, false);
        assert_eq!(plain.len(), 10);
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
