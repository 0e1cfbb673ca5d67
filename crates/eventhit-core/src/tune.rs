//! Hyper-parameter search for the loss weights and optimizer settings.
//!
//! The paper tunes `β_k` and `γ_k` "by grid search" (§III, refs 23–24) and
//! selects `M` experimentally (§VI.F). This module provides both classic
//! grid search and Bergstra–Bengio random search over a candidate space,
//! scoring each candidate by training on a training split and evaluating
//! the plain EHO decision on a held-out validation split (never the test
//! split).

use eventhit_parallel::Pool;
use eventhit_rng::rngs::StdRng;
use eventhit_rng::{mix64, Rng, SeedableRng};
use eventhit_telemetry::Telemetry;
use eventhit_video::records::Record;

use crate::infer::{eho_predict, score_records};
use crate::metrics::{evaluate, EvalOutcome};
use crate::model::{EventHit, EventHitConfig};
use crate::train::{train, TrainConfig};

/// One hyper-parameter candidate (uniform `β`/`γ` across events; per-event
/// weights can be tuned by composing searches per event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Classification-loss weight `β`.
    pub beta: f32,
    /// Occurrence-loss weight `γ`.
    pub gamma: f32,
    /// Learning rate.
    pub lr: f32,
    /// Training epochs.
    pub epochs: usize,
}

/// The candidate space searched.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// Candidate `β` values.
    pub beta: Vec<f32>,
    /// Candidate `γ` values.
    pub gamma: Vec<f32>,
    /// Candidate learning rates.
    pub lr: Vec<f32>,
    /// Candidate epoch counts.
    pub epochs: Vec<usize>,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            beta: vec![0.5, 1.0, 2.0],
            gamma: vec![0.5, 1.0, 2.0],
            lr: vec![1e-3, 3e-3],
            epochs: vec![8],
        }
    }
}

impl SearchSpace {
    /// Enumerates the full grid.
    pub fn grid(&self) -> Vec<Candidate> {
        let mut out = Vec::new();
        for &beta in &self.beta {
            for &gamma in &self.gamma {
                for &lr in &self.lr {
                    for &epochs in &self.epochs {
                        out.push(Candidate {
                            beta,
                            gamma,
                            lr,
                            epochs,
                        });
                    }
                }
            }
        }
        out
    }

    /// Samples `n` random candidates (with replacement) — random search
    /// often beats the grid at equal budget (Bergstra & Bengio, 2012).
    pub fn sample(&self, n: usize, seed: u64) -> Vec<Candidate> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pick = |v: &Vec<f32>, rng: &mut StdRng| v[rng.random_range(0..v.len())];
        (0..n)
            .map(|_| Candidate {
                beta: pick(&self.beta, &mut rng),
                gamma: pick(&self.gamma, &mut rng),
                lr: pick(&self.lr, &mut rng),
                epochs: self.epochs[rng.random_range(0..self.epochs.len())],
            })
            .collect()
    }
}

/// What the search optimizes on the validation split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Maximize `REC − λ·SPL`.
    RecMinusSpl {
        /// Spillage penalty weight.
        lambda: f64,
    },
    /// Maximize REC outright (cost-insensitive).
    Rec,
}

impl Objective {
    /// Scores an outcome (higher is better).
    pub fn score(&self, o: &EvalOutcome) -> f64 {
        match *self {
            Objective::RecMinusSpl { lambda } => o.rec - lambda * o.spl,
            Objective::Rec => o.rec,
        }
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialResult {
    /// The hyper-parameters tried.
    pub candidate: Candidate,
    /// Validation outcome under EHO (τ1 = τ2 = 0.5).
    pub outcome: EvalOutcome,
    /// Objective value (higher is better).
    pub score: f64,
}

/// Trains one candidate and evaluates EHO on the validation split.
pub fn evaluate_candidate(
    candidate: &Candidate,
    model_cfg: &EventHitConfig,
    train_records: &[Record],
    val_records: &[Record],
    seed: u64,
    objective: &Objective,
) -> TrialResult {
    let mut cfg = model_cfg.clone();
    cfg.num_events = train_records[0].labels.len();
    let mut model = EventHit::new(cfg, seed);
    let tc = TrainConfig {
        epochs: candidate.epochs,
        lr: candidate.lr,
        beta: vec![candidate.beta; model.config().num_events],
        gamma: vec![candidate.gamma; model.config().num_events],
        seed: seed.wrapping_add(1),
        ..Default::default()
    };
    train(&mut model, train_records, &tc, &Telemetry::disabled());

    let scored = score_records(&model, val_records, 128);
    let preds: Vec<_> = scored
        .iter()
        .map(|r| {
            r.scores
                .iter()
                .map(|s| eho_predict(s, 0.5, 0.5))
                .collect::<Vec<_>>()
        })
        .collect();
    let outcome = evaluate(&preds, &scored, model.config().horizon as u32);
    TrialResult {
        candidate: *candidate,
        outcome,
        score: objective.score(&outcome),
    }
}

/// The model/training seed of grid cell `index` under master seed
/// `seed`: a SplitMix64 substream. Deriving the seed from the cell's
/// *position* (never from evaluation order or shared RNG state) is what
/// lets cells train in parallel and still reproduce the sequential
/// search bit for bit.
pub fn substream_seed(seed: u64, index: usize) -> u64 {
    mix64(seed ^ mix64(index as u64 + 1))
}

/// Runs a search over explicit candidates on `pool`: one task per
/// candidate, each training its model on its own [`substream_seed`].
/// Results come back sorted best first; the ranking sorts by score with
/// a stable tiebreak on grid order, so it is deterministic for any
/// worker count.
pub fn search(
    candidates: &[Candidate],
    model_cfg: &EventHitConfig,
    train_records: &[Record],
    val_records: &[Record],
    seed: u64,
    objective: Objective,
    pool: &Pool,
) -> Vec<TrialResult> {
    assert!(!candidates.is_empty(), "no candidates to search");
    assert!(!train_records.is_empty() && !val_records.is_empty());
    let mut results: Vec<TrialResult> = pool.map_chunked(candidates.len(), 1, |i| {
        evaluate_candidate(
            &candidates[i],
            model_cfg,
            train_records,
            val_records,
            substream_seed(seed, i),
            &objective,
        )
    });
    results.sort_by(|a, b| b.score.total_cmp(&a.score));
    results
}

/// Splits records temporally into (train, validation) at `val_frac`.
pub fn holdout_split(records: &[Record], val_frac: f64) -> (Vec<Record>, Vec<Record>) {
    assert!((0.0..1.0).contains(&val_frac) && val_frac > 0.0);
    let n_val = ((records.len() as f64) * val_frac).ceil() as usize;
    let split = records.len().saturating_sub(n_val);
    (records[..split].to_vec(), records[split..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_nn::matrix::Matrix;
    use eventhit_video::records::EventLabel;

    fn learnable_records(n: usize, seed: u64) -> Vec<Record> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
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
                Record {
                    anchor: 0,
                    covariates: Matrix::filled(4, 3, fill + noise),
                    labels: vec![label],
                }
            })
            .collect()
    }

    fn tiny_cfg() -> EventHitConfig {
        EventHitConfig {
            input_dim: 3,
            window: 4,
            horizon: 8,
            num_events: 1,
            hidden_dim: 8,
            shared_dim: 6,
            dropout: 0.0,
        }
    }

    #[test]
    fn grid_enumerates_product() {
        let space = SearchSpace {
            beta: vec![1.0, 2.0],
            gamma: vec![1.0],
            lr: vec![0.01, 0.003],
            epochs: vec![5, 10],
        };
        assert_eq!(space.grid().len(), 8);
    }

    #[test]
    fn random_sample_is_deterministic_and_in_space() {
        let space = SearchSpace::default();
        let a = space.sample(10, 42);
        let b = space.sample(10, 42);
        assert_eq!(a, b);
        for c in &a {
            assert!(space.beta.contains(&c.beta));
            assert!(space.gamma.contains(&c.gamma));
            assert!(space.lr.contains(&c.lr));
            assert!(space.epochs.contains(&c.epochs));
        }
    }

    #[test]
    fn holdout_split_is_temporal() {
        let records = learnable_records(10, 0);
        let (train, val) = holdout_split(&records, 0.3);
        assert_eq!(train.len(), 7);
        assert_eq!(val.len(), 3);
    }

    #[test]
    fn objective_scoring() {
        let o = EvalOutcome {
            rec: 0.8,
            spl: 0.2,
            rec_c: 0.8,
            rec_r: 0.8,
            frames_relayed: 0,
            true_frames: 0,
            positives: 1,
            records: 1,
        };
        assert!((Objective::Rec.score(&o) - 0.8).abs() < 1e-12);
        assert!((Objective::RecMinusSpl { lambda: 1.0 }.score(&o) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn search_orders_results_and_finds_learnable_config() {
        let records = learnable_records(200, 1);
        let (train, val) = holdout_split(&records, 0.25);
        let candidates = vec![
            // A degenerate candidate that cannot learn (lr far too small,
            // 1 epoch) vs a reasonable one.
            Candidate {
                beta: 1.0,
                gamma: 1.0,
                lr: 1e-7,
                epochs: 1,
            },
            Candidate {
                beta: 1.0,
                gamma: 1.0,
                lr: 0.01,
                epochs: 25,
            },
        ];
        let results = search(
            &candidates,
            &tiny_cfg(),
            &train,
            &val,
            9,
            Objective::RecMinusSpl { lambda: 1.0 },
            &Pool::current(),
        );
        assert_eq!(results.len(), 2);
        assert!(results[0].score >= results[1].score);
        assert_eq!(
            results[0].candidate.lr, 0.01,
            "trained candidate should win"
        );
        assert!(results[0].outcome.rec > 0.5);
    }
}
