//! The online marshaller: walks a live stream horizon by horizon, predicts
//! with a trained model + conformal state, relays only the predicted
//! occurrence intervals to the (simulated) CI, and reports what the CI
//! detected and what it cost — the deployment loop of Fig. 1.

use std::sync::Arc;

use eventhit_telemetry::Telemetry;
use eventhit_video::records::extract_record;
use eventhit_video::stream::VideoStream;

use eventhit_nn::matrix::Matrix;

use crate::ci::{CiConfig, CostReport};
use crate::error::CoreError;
use crate::infer::score_record;
use crate::model::{EventHit, InferencePlan, InferenceScratch};
use crate::pipeline::{ConformalState, Strategy};

/// A contiguous run of absolute stream frames relayed to the CI for one
/// event type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelaySegment {
    /// Event index within the task.
    pub event: usize,
    /// First absolute frame relayed.
    pub start: u64,
    /// Last absolute frame relayed (inclusive).
    pub end: u64,
}

/// A CI detection: the portion of a true event instance that was covered by
/// relayed frames (the CI is an oracle on the frames it receives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Event index within the task.
    pub event: usize,
    /// First detected frame.
    pub start: u64,
    /// Last detected frame (inclusive).
    pub end: u64,
}

/// Outcome of marshalling a stream region.
#[derive(Debug, Clone)]
pub struct MarshalResult {
    /// Segments relayed to the CI, in stream order.
    pub segments: Vec<RelaySegment>,
    /// Event frames the CI detected.
    pub detections: Vec<Detection>,
    /// True event instances in the walked region, per event
    /// `(event, start, end)`.
    pub ground_truth: Vec<(usize, u64, u64)>,
    /// Number of prediction episodes (horizons walked).
    pub horizons: usize,
    /// Cost accounting.
    pub cost: CostReport,
}

impl MarshalResult {
    /// Fraction of true event frames the CI received (end-to-end recall of
    /// the deployment loop).
    pub fn frame_recall(&self) -> f64 {
        let total: u64 = self.ground_truth.iter().map(|&(_, s, e)| e - s + 1).sum();
        if total == 0 {
            return 1.0;
        }
        let detected: u64 = self.detections.iter().map(|d| d.end - d.start + 1).sum();
        detected as f64 / total as f64
    }

    /// Fraction of event *instances* with at least one detected frame.
    pub fn instance_recall(&self) -> f64 {
        if self.ground_truth.is_empty() {
            return 1.0;
        }
        let found = self
            .ground_truth
            .iter()
            .filter(|&&(k, s, e)| {
                self.detections
                    .iter()
                    .any(|d| d.event == k && d.start <= e && d.end >= s)
            })
            .count();
        found as f64 / self.ground_truth.len() as f64
    }
}

/// The online marshaller. Owns the trained model — compiled once for
/// exact-lane inference — and the calibration state.
pub struct Marshaller {
    plan: InferencePlan,
    scratch: InferenceScratch,
    state: ConformalState,
    strategy: Strategy,
    window: usize,
    horizon: usize,
    ci: CiConfig,
    telemetry: Option<Arc<Telemetry>>,
}

impl Marshaller {
    /// Assembles a marshaller from trained components. The collection
    /// window and horizon are the model's own.
    pub fn new(model: EventHit, state: ConformalState, strategy: Strategy, ci: CiConfig) -> Self {
        let (window, horizon) = (model.config().window, model.config().horizon);
        let plan = model.packed();
        Marshaller {
            scratch: plan.scratch(),
            plan,
            state,
            strategy,
            window,
            horizon,
            ci,
            telemetry: None,
        }
    }

    /// Changes the operating strategy (e.g. to retune `c`/`α` online).
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.strategy = strategy;
    }

    /// Attaches a telemetry recorder: runs record a `marshal.run` span
    /// and horizon and relayed-frame counters. Share the same recorder
    /// with [`crate::ci_queue::simulate`] to see the CI queue on the same
    /// timeline.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    fn check_range(&self, stream: &VideoStream, from: u64, to: u64) -> Result<(), CoreError> {
        if from < self.window as u64 {
            return Err(CoreError::WindowUnderflow {
                from,
                window: self.window,
            });
        }
        if to > stream.len {
            return Err(CoreError::StreamBounds {
                to,
                len: stream.len,
            });
        }
        Ok(())
    }

    /// Walks `[from, to)` of the stream with non-overlapping horizons,
    /// predicting at each anchor and relaying predicted intervals. A
    /// range that does not leave room for the collection window, or that
    /// runs past the stream end, surfaces as a typed [`CoreError`].
    ///
    /// The decision uses only the covariates (features of the collection
    /// window); ground truth is consulted solely to simulate the oracle CI
    /// and to report recall.
    pub fn try_run(
        &mut self,
        stream: &VideoStream,
        features: &Matrix,
        from: u64,
        to: u64,
    ) -> Result<MarshalResult, CoreError> {
        self.check_range(stream, from, to)?;
        let tel = self.telemetry.as_deref();
        let _run = tel.map(|t| t.span("marshal.run"));

        let mut segments = Vec::new();
        let mut detections = Vec::new();
        let mut ground_truth = Vec::new();
        let mut horizons = 0usize;
        let mut frames_relayed = 0u64;

        let mut next = from;
        while next + self.horizon as u64 <= to {
            let anchor = next;
            next += self.horizon as u64;
            horizons += 1;
            let record = extract_record(stream, features, anchor, self.window, self.horizon);
            let scored = score_record(&self.plan, &record, &mut self.scratch);
            let preds = self.state.predict(&scored, &self.strategy);

            for (k, label) in record.labels.iter().enumerate() {
                if label.present {
                    ground_truth.push((k, anchor + label.start as u64, anchor + label.end as u64));
                }
            }
            let relay_from = segments.len();
            segments.extend(
                preds
                    .iter()
                    .enumerate()
                    .filter(|(_, pred)| pred.present)
                    .map(|(k, pred)| RelaySegment {
                        event: k,
                        start: anchor + pred.start as u64,
                        end: anchor + pred.end as u64,
                    }),
            );
            // A relayed frame is paid for once even when several events'
            // intervals overlap: the CI call covers all event models.
            frames_relayed += crate::metrics::union_frames(&preds);
            // Oracle CI: detects the overlap with true instances.
            for seg in &segments[relay_from..] {
                for inst in stream.all_intersecting(seg.event, seg.start, seg.end) {
                    detections.push(Detection {
                        event: seg.event,
                        start: inst.interval.start.max(seg.start),
                        end: inst.interval.end.min(seg.end),
                    });
                }
            }
        }

        if let Some(t) = tel {
            t.add("marshal.horizons", horizons as u64);
            t.add("marshal.frames_relayed", frames_relayed);
        }
        let cost = self.ci.account(
            horizons,
            self.window,
            self.horizon,
            frames_relayed,
            // Online per-horizon predictor cost is negligible relative to
            // the CI; account a conservative 1 ms per horizon.
            horizons as f64 * 1e-3,
        );

        Ok(MarshalResult {
            segments,
            detections,
            ground_truth,
            horizons,
            cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentConfig, TaskRun};
    use crate::tasks::task;

    fn build_marshaller() -> (Marshaller, TaskRun) {
        let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(5));
        let m = Marshaller::new(
            // Re-create a model? The run's model is moved out here.
            // We clone conformal state and reuse the trained model.
            EventHit::new(run.model.config().clone(), 99),
            run.state.clone(),
            Strategy::Ehcr {
                c: 0.95,
                alpha: 0.9,
            },
            CiConfig::default(),
        );
        (m, run)
    }

    #[test]
    fn walks_expected_number_of_horizons() {
        let (mut m, run) = build_marshaller();
        let from = run.window as u64;
        let to = from + (run.horizon as u64) * 5 + 10;
        let result = m
            .try_run(&run.stream, &run.features, from, to)
            .expect("range inside the stream");
        assert_eq!(result.horizons, 5);
        assert!(result.cost.frames_covered == (run.horizon as u64) * 5);
    }

    #[test]
    fn trained_marshaller_detects_events() {
        let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(6));
        let stream = run.stream.clone();
        let features = run.features.clone();
        let mut m = Marshaller::new(
            run.model,
            run.state,
            Strategy::Ehcr { c: 0.9, alpha: 0.5 },
            CiConfig::default(),
        );
        let from = (stream.len * 3) / 4; // marshal the test region
        let result = m
            .try_run(&stream, &features, from, stream.len)
            .expect("range inside the stream");
        // The walked region should contain some events and the high-recall
        // strategy should find a decent share of them.
        if !result.ground_truth.is_empty() {
            assert!(
                result.instance_recall() > 0.3,
                "instance recall {}",
                result.instance_recall()
            );
        }
        // Relaying can never exceed brute force.
        assert!(result.cost.frames_relayed <= result.cost.frames_covered);
    }

    #[test]
    fn recall_helpers_handle_empty_truth() {
        let empty = MarshalResult {
            segments: vec![],
            detections: vec![],
            ground_truth: vec![],
            horizons: 0,
            cost: CiConfig::default().account(0, 10, 100, 0, 0.0),
        };
        assert_eq!(empty.frame_recall(), 1.0);
        assert_eq!(empty.instance_recall(), 1.0);
    }

    #[test]
    fn strategy_can_be_retuned() {
        let (mut m, _) = build_marshaller();
        m.set_strategy(Strategy::Eho { tau1: 0.5 });
    }

    #[test]
    fn bad_ranges_surface_as_typed_errors() {
        let (mut m, run) = build_marshaller();
        let err = m
            .try_run(&run.stream, &run.features, 0, run.stream.len)
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::CoreError::WindowUnderflow { .. }
        ));
        let err = m
            .try_run(
                &run.stream,
                &run.features,
                run.window as u64,
                run.stream.len + 1,
            )
            .unwrap_err();
        assert!(matches!(err, crate::error::CoreError::StreamBounds { .. }));
    }
}
