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
use crate::metrics::MissAttribution;
use crate::model::{EventHit, InferencePlan, InferenceScratch};
use crate::pipeline::{ConformalState, Strategy};
use crate::resilient::{
    DegradationMode, DegradationTag, FailReason, ResilienceStats, ResilientCiClient,
    SubmissionOutcome,
};

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

/// Stable label for a degradation tag (counter label on
/// `marshal.degradation`).
fn tag_label(tag: DegradationTag) -> &'static str {
    match tag {
        DegradationTag::None => "none",
        DegradationTag::Retried { .. } => "retried",
        DegradationTag::Dropped => "dropped",
        DegradationTag::Deferred => "deferred",
        DegradationTag::LocalOnly => "local_only",
    }
}

impl Marshaller {
    /// Assembles a marshaller from trained components.
    pub fn new(
        model: EventHit,
        state: ConformalState,
        strategy: Strategy,
        window: usize,
        horizon: usize,
        ci: CiConfig,
    ) -> Self {
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

    /// Attaches a telemetry recorder: runs record a `marshal.run` /
    /// `marshal.run_resilient` span, horizon and relayed-frame counters,
    /// and (on the resilient path) per-horizon degradation tags as the
    /// labeled `marshal.degradation` counter. Share the same recorder
    /// with the [`ResilientCiClient`] to see retries and breaker
    /// transitions on the same timeline.
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
        let walk = self.walk(stream, features, from, to, None)?;
        Ok(MarshalResult {
            segments: walk.segments,
            detections: walk.detections,
            ground_truth: walk.ground_truth,
            horizons: walk.horizons,
            cost: walk.cost,
        })
    }

    /// Walks `[from, to)` like [`Marshaller::try_run`], but every
    /// horizon's relay passes through the resilient CI client: faults,
    /// retries, the circuit breaker, and the configured degradation
    /// policy all apply. One submission is issued per horizon (the union
    /// of the predicted intervals — a CI call covers all event models),
    /// timed on the simulated clock at `stream_fps`.
    ///
    /// Every ground-truth instance in the walked region is attributed to
    /// exactly one bucket of the returned [`MissAttribution`].
    pub fn run_resilient(
        &mut self,
        stream: &VideoStream,
        features: &Matrix,
        from: u64,
        to: u64,
        stream_fps: f64,
        client: &mut ResilientCiClient,
    ) -> Result<ResilientMarshalResult, CoreError> {
        let walk = self.walk(stream, features, from, to, Some((&mut *client, stream_fps)))?;

        // Attribute every ground-truth instance to exactly one bucket,
        // in confirmation-strength order: CI-confirmed, locally covered,
        // relayed-but-lost, never relayed.
        let overlaps = |segs: &[RelaySegment], k: usize, s: u64, e: u64| {
            segs.iter()
                .any(|seg| seg.event == k && seg.start <= e && seg.end >= s)
        };
        let mut attribution = MissAttribution::default();
        for &(k, s, e) in &walk.ground_truth {
            let confirmed = walk
                .detections
                .iter()
                .any(|d| d.event == k && d.start <= e && d.end >= s);
            if confirmed {
                attribution.detected += 1;
            } else if overlaps(&walk.local_cover, k, s, e) {
                attribution.local_unconfirmed += 1;
            } else if overlaps(&walk.lost_segments, k, s, e) {
                attribution.dropped_by_faults += 1;
            } else {
                attribution.filtered_by_predictor += 1;
            }
        }

        Ok(ResilientMarshalResult {
            detections: walk.detections,
            ground_truth: walk.ground_truth,
            horizon_tags: walk.horizon_tags,
            attribution,
            horizons: walk.horizons,
            cost: walk.cost,
            stats: client.stats.clone(),
            fault_fingerprint: client.fault_trace().fingerprint(),
        })
    }

    /// The one horizon walk. Without a `client` every horizon's relay is
    /// delivered as predicted — what a client on a reliable channel
    /// reports, so the two entries agree field for field there. With
    /// `(client, stream_fps)` each horizon is one submission on the
    /// simulated clock and the degradation policy decides what a failed
    /// one becomes.
    fn walk(
        &mut self,
        stream: &VideoStream,
        features: &Matrix,
        from: u64,
        to: u64,
        mut client: Option<(&mut ResilientCiClient, f64)>,
    ) -> Result<Walk, CoreError> {
        self.check_range(stream, from, to)?;
        if let Some((_, stream_fps)) = &client {
            if !(*stream_fps > 0.0 && stream_fps.is_finite()) {
                return Err(CoreError::InvalidConfig(format!(
                    "stream_fps = {stream_fps} must be finite and positive"
                )));
            }
        }

        let tel = self.telemetry.clone();
        let _run = tel.as_deref().map(|t| {
            t.span(match client {
                Some(_) => "marshal.run_resilient",
                None => "marshal.run",
            })
        });

        let mut segments = Vec::new();
        let mut detections = Vec::new();
        let mut local_cover = Vec::new();
        let mut lost_segments = Vec::new();
        let mut ground_truth = Vec::new();
        let mut horizon_tags = Vec::new();
        let mut horizons = 0usize;
        let mut frames_relayed = 0u64;
        // Frames deferred by DeferNextHorizon, with the segments they
        // covered, awaiting one redelivery attempt.
        let mut deferred: Option<(u64, Vec<RelaySegment>)> = None;

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
            // This horizon's relay, then whatever the last one deferred.
            let mut relay: Vec<RelaySegment> = preds
                .iter()
                .enumerate()
                .filter(|(_, pred)| pred.present)
                .map(|(k, pred)| RelaySegment {
                    event: k,
                    start: anchor + pred.start as u64,
                    end: anchor + pred.end as u64,
                })
                .collect();
            segments.extend_from_slice(&relay);
            // A relayed frame is paid for once even when several events'
            // intervals overlap: the CI call covers all event models.
            let mut submit_frames = crate::metrics::union_frames(&preds);

            if let Some((client, stream_fps)) = client.as_mut() {
                // The submission clock: the decision fires when the last
                // window frame has been captured.
                let now = anchor as f64 / *stream_fps;
                let own = relay.len();
                if let Some((frames, segs)) = deferred.take() {
                    // Redeliver last horizon's deferred frames alongside
                    // this submission (one extra chance).
                    submit_frames += frames;
                    relay.extend(segs);
                }
                // Keep the simulated timeline moving even when the client
                // has no recorder of its own (the client sets the time
                // again before its span when it does).
                if let Some(t) = tel.as_deref() {
                    t.set_time(now);
                }
                let outcome = client.submit(submit_frames, now);
                let tag = outcome.tag();
                horizon_tags.push((anchor, tag));
                if let Some(t) = tel.as_deref() {
                    t.add_labeled("marshal.degradation", tag_label(tag), 1);
                }
                if let SubmissionOutcome::Degraded { mode, reason, .. } = outcome {
                    match mode {
                        DegradationMode::DropDeadLetter => lost_segments.append(&mut relay),
                        DegradationMode::DeferNextHorizon if relay.len() == own => {
                            deferred = Some((submit_frames, relay));
                        }
                        DegradationMode::DeferNextHorizon => {
                            // Second failure: give up on both loads.
                            client.dead_letter(submit_frames, now, reason);
                            lost_segments.append(&mut relay);
                        }
                        // Trust the C-REGRESS interval without the CI:
                        // coverage is claimed, not confirmed.
                        DegradationMode::LocalOnly => local_cover.append(&mut relay),
                    }
                    continue;
                }
            }

            // Delivered. Oracle CI: detects the overlap with true
            // instances.
            frames_relayed += submit_frames;
            for seg in &relay {
                for inst in stream.all_intersecting(seg.event, seg.start, seg.end) {
                    detections.push(Detection {
                        event: seg.event,
                        start: inst.interval.start.max(seg.start),
                        end: inst.interval.end.min(seg.end),
                    });
                }
            }
        }

        // Anything still deferred at the end of the walk is lost.
        if let (Some((frames, segs)), Some((client, stream_fps))) = (deferred, client) {
            client.dead_letter(frames, to as f64 / stream_fps, FailReason::RetriesExhausted);
            lost_segments.extend(segs);
        }

        if let Some(t) = tel.as_deref() {
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

        Ok(Walk {
            segments,
            detections,
            local_cover,
            lost_segments,
            ground_truth,
            horizon_tags,
            horizons,
            cost,
        })
    }
}

/// What `Marshaller::walk` produces; each public entry keeps the fields
/// its result type carries.
struct Walk {
    /// Every predicted segment, in stream order (delivered or not).
    segments: Vec<RelaySegment>,
    detections: Vec<Detection>,
    /// Segments covered by `LocalOnly` degradation.
    local_cover: Vec<RelaySegment>,
    /// Segments whose submission was abandoned.
    lost_segments: Vec<RelaySegment>,
    ground_truth: Vec<(usize, u64, u64)>,
    horizon_tags: Vec<(u64, DegradationTag)>,
    horizons: usize,
    cost: CostReport,
}

/// Outcome of a faulted (resilient) marshalling run.
#[derive(Debug, Clone)]
pub struct ResilientMarshalResult {
    /// CI-confirmed detections.
    pub detections: Vec<Detection>,
    /// True event instances in the walked region, `(event, start, end)`.
    pub ground_truth: Vec<(usize, u64, u64)>,
    /// Per-horizon degradation tag, `(anchor, tag)` in walk order.
    pub horizon_tags: Vec<(u64, DegradationTag)>,
    /// Every ground-truth instance attributed to one bucket.
    pub attribution: MissAttribution,
    /// Number of prediction episodes walked.
    pub horizons: usize,
    /// Cost accounting (only frames actually delivered are billed).
    pub cost: CostReport,
    /// Snapshot of the client's counters after the walk.
    pub stats: ResilienceStats,
    /// Fingerprint of the fault trace (bit-reproducible from the seed).
    pub fault_fingerprint: u64,
}

impl ResilientMarshalResult {
    /// Fraction of submissions delivered during the walk.
    pub fn availability(&self) -> f64 {
        self.stats.availability()
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
            run.window,
            run.horizon,
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
        let window = run.window;
        let horizon = run.horizon;
        let stream = run.stream.clone();
        let features = run.features.clone();
        let mut m = Marshaller::new(
            run.model,
            run.state,
            Strategy::Ehcr { c: 0.9, alpha: 0.5 },
            window,
            horizon,
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

    mod resilient {
        use super::*;
        use crate::faults::FaultConfig;
        use crate::resilient::{
            DegradationMode, DegradationTag, ResilienceConfig, ResilientCiClient, RetryPolicy,
        };
        use eventhit_video::detector::StageModel;

        struct Fixture {
            stream: eventhit_video::stream::VideoStream,
            features: eventhit_nn::matrix::Matrix,
            window: usize,
        }

        fn trained() -> (Marshaller, Fixture) {
            let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(6));
            let fx = Fixture {
                stream: run.stream.clone(),
                features: run.features.clone(),
                window: run.window,
            };
            let m = Marshaller::new(
                run.model,
                run.state,
                Strategy::Ehcr { c: 0.9, alpha: 0.5 },
                run.window,
                run.horizon,
                CiConfig::default(),
            );
            (m, fx)
        }

        fn make_client(faults: FaultConfig, mode: DegradationMode, seed: u64) -> ResilientCiClient {
            ResilientCiClient::new(
                faults,
                ResilienceConfig {
                    degradation: mode,
                    retry: RetryPolicy {
                        max_attempts: 3,
                        ..RetryPolicy::default()
                    },
                    ..ResilienceConfig::default()
                },
                // Fast CI so deadlines don't dominate the test.
                StageModel::new("ci", 1000.0),
                seed,
            )
            .unwrap()
        }

        #[test]
        fn reliable_client_matches_plain_run() {
            let (mut m, fx) = trained();
            let from = (fx.stream.len * 3) / 4;
            let plain = m
                .try_run(&fx.stream, &fx.features, from, fx.stream.len)
                .unwrap();
            let mut client =
                make_client(FaultConfig::reliable(), DegradationMode::DropDeadLetter, 99);
            let res = m
                .run_resilient(
                    &fx.stream,
                    &fx.features,
                    from,
                    fx.stream.len,
                    30.0,
                    &mut client,
                )
                .unwrap();
            assert_eq!(res.availability(), 1.0);
            assert_eq!(res.attribution.dropped_by_faults, 0);
            assert_eq!(res.horizons, plain.horizons);
            assert_eq!(res.detections, plain.detections);
            assert_eq!(res.ground_truth, plain.ground_truth);
            assert_eq!(res.cost, plain.cost);
            assert!(res
                .horizon_tags
                .iter()
                .all(|&(_, t)| t == DegradationTag::None));
        }

        #[test]
        fn faulted_run_attributes_every_instance_and_replays() {
            let (mut m, fx) = trained();
            let from = fx.window as u64;
            let faults = FaultConfig {
                p_good_to_bad: 0.3,
                p_bad_to_good: 0.3,
                bad_loss: 1.0,
                transient_prob: 0.1,
                ..FaultConfig::reliable()
            };
            let go = |m: &mut Marshaller| {
                let mut client = make_client(faults.clone(), DegradationMode::DropDeadLetter, 123);
                m.run_resilient(
                    &fx.stream,
                    &fx.features,
                    from,
                    fx.stream.len,
                    30.0,
                    &mut client,
                )
                .unwrap()
            };
            let a = go(&mut m);
            assert_eq!(
                a.attribution.total(),
                a.ground_truth.len(),
                "every instance lands in exactly one bucket"
            );
            assert!(a.availability() < 1.0, "outages must show up");
            // Replay: bit-identical trace and attribution.
            let b = go(&mut m);
            assert_eq!(a.fault_fingerprint, b.fault_fingerprint);
            assert_eq!(a.attribution, b.attribution);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.horizon_tags, b.horizon_tags);
        }

        #[test]
        fn local_only_covers_without_confirmation() {
            let (mut m, fx) = trained();
            let from = fx.window as u64;
            // Total outage: nothing is ever delivered.
            let faults = FaultConfig {
                p_good_to_bad: 1.0,
                p_bad_to_good: 0.0,
                bad_loss: 1.0,
                ..FaultConfig::reliable()
            };
            let mut client = make_client(faults, DegradationMode::LocalOnly, 7);
            let res = m
                .run_resilient(
                    &fx.stream,
                    &fx.features,
                    from,
                    fx.stream.len,
                    30.0,
                    &mut client,
                )
                .unwrap();
            assert_eq!(res.attribution.detected, 0, "no CI confirmations");
            assert_eq!(
                res.attribution.dropped_by_faults, 0,
                "local mode never drops"
            );
            assert!(res.detections.is_empty());
            assert_eq!(
                res.attribution.local_unconfirmed + res.attribution.filtered_by_predictor,
                res.ground_truth.len()
            );
            assert!(res.attribution.effective_recall() >= res.attribution.confirmed_recall());
        }

        #[test]
        fn shared_recorder_sees_marshal_and_client_metrics() {
            use eventhit_telemetry::Telemetry;
            use std::sync::Arc;

            let (mut m, fx) = trained();
            let from = fx.window as u64;
            let faults = FaultConfig {
                p_good_to_bad: 0.3,
                p_bad_to_good: 0.3,
                bad_loss: 1.0,
                transient_prob: 0.1,
                ..FaultConfig::reliable()
            };
            let tel = Arc::new(Telemetry::with_manual_clock());
            m.set_telemetry(Arc::clone(&tel));
            let mut client = make_client(faults, DegradationMode::DropDeadLetter, 123);
            client.set_telemetry(Arc::clone(&tel));
            let res = m
                .run_resilient(
                    &fx.stream,
                    &fx.features,
                    from,
                    fx.stream.len,
                    30.0,
                    &mut client,
                )
                .unwrap();

            let snap = tel.snapshot();
            assert_eq!(snap.counter("marshal.horizons"), Some(res.horizons as u64));
            // One degradation tag per horizon, and the submission counter
            // matches the client's stats on the same recorder.
            assert_eq!(
                snap.counter_total("marshal.degradation"),
                res.horizons as u64
            );
            assert_eq!(snap.counter("ci.submissions"), Some(res.stats.submissions));
            // The ci.submit spans nest under the marshal.run_resilient span.
            let stats = snap.span_stats();
            let sub = stats
                .iter()
                .find(|s| s.path == "marshal.run_resilient/ci.submit")
                .expect("nested submit span");
            assert_eq!(sub.calls, res.stats.submissions);
        }

        #[test]
        fn deferred_mode_gives_one_second_chance() {
            let (mut m, fx) = trained();
            let from = fx.window as u64;
            // Deterministic alternating failure is hard to arrange; use a
            // bursty profile and just check conservation: every degraded
            // horizon is Deferred-tagged and dropped frames only come
            // from double failures or end-of-walk.
            let faults = FaultConfig {
                p_good_to_bad: 0.4,
                p_bad_to_good: 0.4,
                bad_loss: 1.0,
                ..FaultConfig::reliable()
            };
            let mut client = make_client(faults, DegradationMode::DeferNextHorizon, 15);
            let res = m
                .run_resilient(
                    &fx.stream,
                    &fx.features,
                    from,
                    fx.stream.len,
                    30.0,
                    &mut client,
                )
                .unwrap();
            for (_, tag) in &res.horizon_tags {
                assert!(
                    matches!(
                        tag,
                        DegradationTag::None
                            | DegradationTag::Retried { .. }
                            | DegradationTag::Deferred
                    ),
                    "unexpected tag {tag:?}"
                );
            }
            assert_eq!(res.attribution.total(), res.ground_truth.len());
        }
    }
}
