//! Discrete-event simulation of the CI's request queue.
//!
//! The paper's FPS measure (§VI.C) is a throughput average; a deployment
//! also cares about *detection latency* — how long after a segment is
//! relayed does the CI's verdict come back? Relays are bursty (whole
//! predicted intervals at horizon boundaries), so when the offered load
//! approaches the CI's service rate, queueing delay dominates. This module
//! simulates a FIFO single-server queue (the paper's i.i.d./Poisson
//! arrival framing, §I, cites Kleinrock for exactly this machinery) fed by
//! relay segments and reports latency percentiles and backlog.

use eventhit_telemetry::{percentile, Telemetry};
use eventhit_video::detector::StageModel;

use crate::resilient::{ResilientCiClient, SubmissionOutcome};

/// A relay request: `frames` frames submitted when stream frame
/// `arrival_frame` has been captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// Stream frame index at which the request is issued.
    pub arrival_frame: u64,
    /// Number of frames to process.
    pub frames: u64,
}

/// Queue configuration: the camera's capture rate and the CI's service
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueConfig {
    /// Stream capture rate (frames per second of wall clock).
    pub stream_fps: f64,
    /// The CI service model.
    pub ci: StageModel,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            stream_fps: 30.0,
            ci: StageModel::i3d_ci(),
        }
    }
}

/// Simulation results.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueReport {
    /// Number of requests served.
    pub completed: usize,
    /// Server utilization over the busy horizon, in [0, 1].
    pub utilization: f64,
    /// Mean seconds from submission to completion.
    pub mean_latency: f64,
    /// Median latency (seconds).
    pub p50_latency: f64,
    /// 95th-percentile latency (seconds).
    pub p95_latency: f64,
    /// 99th-percentile latency (seconds).
    pub p99_latency: f64,
    /// Maximum latency (seconds).
    pub max_latency: f64,
    /// Largest backlog observed at any arrival, in frames awaiting service.
    pub max_backlog_frames: u64,
}

impl QueueReport {
    /// The single construction path for a latency profile, so the plain
    /// and resilient reports stay field-for-field comparable. Sorts
    /// `latencies` in place; with nothing served (an all-degraded run)
    /// every field but the backlog is zero rather than a division by
    /// zero.
    fn from_latencies(
        latencies: &mut [f64],
        busy: f64,
        span: f64,
        max_backlog_frames: u64,
    ) -> Self {
        latencies.sort_by(f64::total_cmp);
        let n = latencies.len();
        let span = span.max(f64::MIN_POSITIVE);
        QueueReport {
            completed: n,
            utilization: (busy / span).min(1.0),
            mean_latency: latencies.iter().sum::<f64>() / n.max(1) as f64,
            p50_latency: percentile(latencies, 0.50).unwrap_or(0.0),
            p95_latency: percentile(latencies, 0.95).unwrap_or(0.0),
            p99_latency: percentile(latencies, 0.99).unwrap_or(0.0),
            max_latency: latencies.last().copied().unwrap_or(0.0),
            max_backlog_frames,
        }
    }
}

/// Simulates the FIFO queue over submissions (must be sorted by
/// `arrival_frame`). Returns `None` for an empty submission list or a
/// non-positive capture rate (a dead camera offers no load — nothing to
/// simulate, not a panic).
///
/// `tel` (pass [`Telemetry::disabled`] for none) is expected to be on the
/// manual clock: the simulator advances it to each arrival time, so the
/// `ciq.simulate` span, the backlog gauge and the per-submission latency
/// histogram live on the simulated timeline and are bit-deterministic.
pub fn simulate(
    submissions: &[Submission],
    cfg: &QueueConfig,
    tel: &Telemetry,
) -> Option<QueueReport> {
    run_queue(submissions, cfg, None, tel).map(|report| report.queue)
}

/// [`QueueReport`] plus the resilience counters of a faulted run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientQueueReport {
    /// Queue metrics over *delivered* submissions only.
    pub queue: QueueReport,
    /// Submissions degraded (never served).
    pub degraded: usize,
    /// Frames belonging to degraded submissions.
    pub degraded_frames: u64,
    /// Fraction of submissions that were served.
    pub availability: f64,
}

/// Simulates the FIFO queue with every submission passing through the
/// resilient client first. Retries re-enter the discrete-event timeline:
/// a submission delivered after `wasted` seconds of failed attempts and
/// backoff effectively *arrives* that much later, so outages and retry
/// storms grow the backlog exactly as they would in a deployment.
/// Degraded submissions never occupy the server but are counted.
///
/// Returns `None` under the same conditions as [`simulate`]. `tel`
/// receives the queue metrics of [`simulate`] under a
/// `ciq.simulate_resilient` span, beside the resilient client's own
/// counters (faults, retries, breaker transitions) when the client
/// carries the same recorder.
pub fn simulate_resilient(
    submissions: &[Submission],
    cfg: &QueueConfig,
    client: &mut ResilientCiClient,
    tel: &Telemetry,
) -> Option<ResilientQueueReport> {
    run_queue(submissions, cfg, Some(client), tel)
}

/// The one queue loop. Without a `client` every submission is delivered
/// at its arrival with no time wasted and the configured service time —
/// what a client on a reliable channel reports, so the two modes agree
/// field for field there.
fn run_queue(
    submissions: &[Submission],
    cfg: &QueueConfig,
    mut client: Option<&mut ResilientCiClient>,
    tel: &Telemetry,
) -> Option<ResilientQueueReport> {
    if submissions.is_empty() || !cfg.stream_fps.is_finite() || cfg.stream_fps <= 0.0 {
        return None;
    }
    debug_assert!(
        submissions
            .windows(2)
            .all(|w| w[0].arrival_frame <= w[1].arrival_frame),
        "submissions must be sorted by arrival"
    );

    let mut free_at = 0.0f64;
    let mut latencies = Vec::with_capacity(submissions.len());
    let mut busy = 0.0f64;
    let mut max_backlog = 0u64;
    let mut backlog_until: Vec<(f64, u64)> = Vec::new(); // (finish_time, frames)
    let mut degraded = 0usize;
    let mut degraded_frames = 0u64;

    let _sim = tel.span(match client {
        Some(_) => "ciq.simulate_resilient",
        None => "ciq.simulate",
    });
    let first_arrival = submissions[0].arrival_frame as f64 / cfg.stream_fps;
    let mut last_finish = first_arrival;
    for sub in submissions {
        let arrival = sub.arrival_frame as f64 / cfg.stream_fps;
        // Backlog at this arrival: frames of requests not yet finished.
        backlog_until.retain(|&(finish, _)| finish > arrival);
        let backlog: u64 = backlog_until.iter().map(|&(_, f)| f).sum::<u64>() + sub.frames;
        max_backlog = max_backlog.max(backlog);
        tel.set_time(arrival);
        tel.add("ciq.submissions", 1);
        tel.add("ciq.frames", sub.frames);
        tel.gauge_set("ciq.backlog_frames", backlog as f64);

        // `Ok((wasted, service))` when delivered, `Err(deadline)` when the
        // client gave the submission up.
        let delivery = match client.as_deref_mut() {
            None => Ok((0.0, cfg.ci.seconds_for(sub.frames))),
            Some(client) => match client.submit(sub.frames, arrival) {
                SubmissionOutcome::Delivered {
                    wasted, service, ..
                } => Ok((wasted, service)),
                SubmissionOutcome::Degraded { .. } => Err(client.config_deadline()),
            },
        };
        match delivery {
            Ok((wasted, service)) => {
                let start = free_at.max(arrival + wasted);
                let finish = start + service;
                busy += service;
                let latency = finish - arrival;
                latencies.push(latency);
                backlog_until.push((finish, sub.frames));
                free_at = finish;
                last_finish = last_finish.max(finish);
                tel.observe("ciq.latency_seconds", latency);
            }
            Err(deadline) => {
                degraded += 1;
                degraded_frames += sub.frames;
                // The frames linger as backlog until the client abandons
                // them: pending from arrival until its deadline passes.
                backlog_until.push((arrival + deadline, sub.frames));
                tel.add("ciq.degraded", 1);
            }
        }
    }
    tel.set_time(last_finish);
    tel.add("ciq.completed", latencies.len() as u64);

    // `span` covers both degenerate shapes: a single instantaneous burst
    // (all arrivals equal, zero-frame requests => span 0) and offered
    // load at or above the service rate (span = busy time, utilization
    // exactly 1, never a negative residual).
    let n = latencies.len();
    let span = last_finish - first_arrival;
    Some(ResilientQueueReport {
        queue: QueueReport::from_latencies(&mut latencies, busy, span, max_backlog),
        degraded,
        degraded_frames,
        availability: n as f64 / (n + degraded) as f64,
    })
}

/// Builds submissions from marshalled relay segments: each segment is
/// submitted when its last frame has been captured. Inverted segments
/// (`end < start`) contribute zero frames instead of wrapping around.
pub fn submissions_from_segments(segments: &[(u64, u64)]) -> Vec<Submission> {
    let mut subs: Vec<Submission> = segments
        .iter()
        .map(|&(start, end)| Submission {
            arrival_frame: end,
            frames: (end + 1).saturating_sub(start),
        })
        .collect();
    subs.sort_by_key(|s| s.arrival_frame);
    subs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(stream_fps: f64, ci_fps: f64) -> QueueConfig {
        QueueConfig {
            stream_fps,
            ci: StageModel::new("ci", ci_fps),
        }
    }

    #[test]
    fn empty_submissions_yield_none() {
        assert!(simulate(&[], &QueueConfig::default(), &Telemetry::disabled()).is_none());
    }

    #[test]
    fn underloaded_queue_latency_is_service_time() {
        // One 80-frame request every 1000 frames (33 s) with 10 fps CI:
        // service = 8 s < inter-arrival, so no queueing.
        let subs: Vec<Submission> = (1..=10)
            .map(|i| Submission {
                arrival_frame: i * 1000,
                frames: 80,
            })
            .collect();
        let r = simulate(&subs, &cfg(30.0, 10.0), &Telemetry::disabled()).unwrap();
        assert_eq!(r.completed, 10);
        assert!(
            (r.mean_latency - 8.0).abs() < 1e-9,
            "mean={}",
            r.mean_latency
        );
        assert!((r.max_latency - 8.0).abs() < 1e-9);
        assert!(r.utilization < 0.5);
        assert_eq!(r.max_backlog_frames, 80);
    }

    #[test]
    fn overloaded_queue_latency_grows() {
        // 300-frame requests every 300 frames (10 s) with CI 10 fps:
        // service = 30 s per request — queue grows linearly.
        let subs: Vec<Submission> = (1..=10)
            .map(|i| Submission {
                arrival_frame: i * 300,
                frames: 300,
            })
            .collect();
        let r = simulate(&subs, &cfg(30.0, 10.0), &Telemetry::disabled()).unwrap();
        // Latencies ramp linearly (30, 50, …, 210 s): max ≈ 1.75× mean.
        assert!(r.max_latency > 1.5 * r.mean_latency, "latency should grow");
        assert!(r.utilization > 0.95);
        assert!(r.max_backlog_frames > 300);
        // Last request waits behind ~9 predecessors: ~(9*30 - 90) + 30 s.
        assert!(r.max_latency > 150.0, "max={}", r.max_latency);
    }

    #[test]
    fn latencies_are_fifo_ordered() {
        let subs = vec![
            Submission {
                arrival_frame: 0,
                frames: 100,
            },
            Submission {
                arrival_frame: 1,
                frames: 10,
            },
        ];
        let r = simulate(&subs, &cfg(30.0, 10.0), &Telemetry::disabled()).unwrap();
        // Second request waits for the first: latency ≈ 10 + 1 ≈ 11 s.
        assert!(r.max_latency > 10.0);
    }

    #[test]
    fn submissions_from_segments_sorted_by_arrival() {
        let subs = submissions_from_segments(&[(50, 80), (10, 20)]);
        assert_eq!(
            subs[0],
            Submission {
                arrival_frame: 20,
                frames: 11
            }
        );
        assert_eq!(
            subs[1],
            Submission {
                arrival_frame: 80,
                frames: 31
            }
        );
    }

    #[test]
    fn lighter_relay_load_means_lower_latency() {
        // The marshalling argument in queue form: EHCR-style sparse relays
        // vs BF-style full-horizon relays at the same service rate.
        let bf: Vec<Submission> = (1..=20)
            .map(|i| Submission {
                arrival_frame: i * 500,
                frames: 500,
            })
            .collect();
        let ehcr: Vec<Submission> = (1..=20)
            .map(|i| Submission {
                arrival_frame: i * 500,
                frames: 100,
            })
            .collect();
        let c = cfg(30.0, 8.0);
        let r_bf = simulate(&bf, &c, &Telemetry::disabled()).unwrap();
        let r_ehcr = simulate(&ehcr, &c, &Telemetry::disabled()).unwrap();
        assert!(r_ehcr.mean_latency < r_bf.mean_latency / 2.0);
        assert!(r_ehcr.p95_latency < r_bf.p95_latency);
    }

    #[test]
    fn zero_frame_submissions_do_not_divide_by_zero() {
        // Regression: an all-zero burst at a single arrival frame used to
        // make the busy span zero; the report must stay finite.
        let subs = vec![
            Submission {
                arrival_frame: 100,
                frames: 0,
            };
            5
        ];
        let r = simulate(&subs, &cfg(30.0, 10.0), &Telemetry::disabled()).unwrap();
        assert_eq!(r.completed, 5);
        assert_eq!(r.mean_latency, 0.0);
        assert!(r.utilization.is_finite() && r.utilization >= 0.0);
        assert_eq!(r.max_backlog_frames, 0);
    }

    #[test]
    fn dead_camera_yields_none_not_panic() {
        // Regression: stream_fps = 0 used to assert.
        let subs = vec![Submission {
            arrival_frame: 1,
            frames: 10,
        }];
        assert!(simulate(&subs, &cfg(0.0, 10.0), &Telemetry::disabled()).is_none());
        assert!(simulate(&subs, &cfg(f64::NAN, 10.0), &Telemetry::disabled()).is_none());
    }

    #[test]
    fn saturated_load_caps_utilization_at_one() {
        // Offered load far above the service rate: utilization must be
        // exactly 1 (never > 1 from the span guard) and backlog must be
        // non-negative (u64) and growing.
        let subs: Vec<Submission> = (0..50)
            .map(|i| Submission {
                arrival_frame: i, // one huge request per captured frame
                frames: 1000,
            })
            .collect();
        let r = simulate(&subs, &cfg(30.0, 1.0), &Telemetry::disabled()).unwrap();
        assert!(r.utilization <= 1.0 && r.utilization > 0.999);
        assert!(r.max_backlog_frames >= 1000);
    }

    #[test]
    fn inverted_segments_become_zero_frames() {
        // Regression: (start > end) used to underflow u64.
        let subs = submissions_from_segments(&[(80, 50), (10, 20)]);
        assert_eq!(subs[1].frames, 0);
        assert_eq!(subs[0].frames, 11);
    }

    #[test]
    fn resilient_queue_reliable_channel_matches_plain_simulation() {
        use crate::faults::FaultConfig;
        use crate::resilient::{ResilienceConfig, ResilientCiClient};
        let subs: Vec<Submission> = (1..=10)
            .map(|i| Submission {
                arrival_frame: i * 1000,
                frames: 80,
            })
            .collect();
        let c = cfg(30.0, 10.0);
        let plain = simulate(&subs, &c, &Telemetry::disabled()).unwrap();
        let mut client = ResilientCiClient::new(
            FaultConfig::reliable(),
            ResilienceConfig::default(),
            c.ci.clone(),
            1,
        )
        .unwrap();
        let res = simulate_resilient(&subs, &c, &mut client, &Telemetry::disabled()).unwrap();
        assert_eq!(res.availability, 1.0);
        assert_eq!(res.degraded, 0);
        assert_eq!(res.queue, plain, "no faults => identical queue profile");
    }

    #[test]
    fn outages_grow_backlog_and_cut_availability() {
        use crate::faults::FaultConfig;
        use crate::resilient::{ResilienceConfig, ResilientCiClient};
        let subs: Vec<Submission> = (1..=60)
            .map(|i| Submission {
                arrival_frame: i * 600,
                frames: 100,
            })
            .collect();
        let c = cfg(30.0, 10.0);
        let clean = simulate(&subs, &c, &Telemetry::disabled()).unwrap();
        let faults = FaultConfig {
            p_good_to_bad: 0.15,
            p_bad_to_good: 0.25,
            bad_loss: 1.0,
            transient_prob: 0.1,
            ..FaultConfig::reliable()
        };
        let mut client =
            ResilientCiClient::new(faults, ResilienceConfig::default(), c.ci.clone(), 5).unwrap();
        let res = simulate_resilient(&subs, &c, &mut client, &Telemetry::disabled()).unwrap();
        assert!(res.availability < 1.0, "outages must cost availability");
        assert!(res.degraded > 0);
        assert!(
            res.queue.max_backlog_frames >= clean.max_backlog_frames,
            "outages cannot shrink the backlog: {} vs {}",
            res.queue.max_backlog_frames,
            clean.max_backlog_frames
        );
        assert_eq!(res.queue.completed + res.degraded, subs.len());
    }

    #[test]
    fn fully_dead_service_reports_zero_availability() {
        use crate::faults::FaultConfig;
        use crate::resilient::{ResilienceConfig, ResilientCiClient};
        let subs: Vec<Submission> = (1..=5)
            .map(|i| Submission {
                arrival_frame: i * 100,
                frames: 10,
            })
            .collect();
        let c = cfg(30.0, 10.0);
        let faults = FaultConfig {
            p_good_to_bad: 1.0,
            p_bad_to_good: 0.0,
            bad_loss: 1.0,
            ..FaultConfig::reliable()
        };
        let mut client =
            ResilientCiClient::new(faults, ResilienceConfig::default(), c.ci.clone(), 2).unwrap();
        let res = simulate_resilient(&subs, &c, &mut client, &Telemetry::disabled()).unwrap();
        assert_eq!(res.availability, 0.0);
        assert_eq!(res.queue.completed, 0);
        assert_eq!(res.degraded, 5);
        assert!(res.queue.mean_latency == 0.0 && res.queue.utilization == 0.0);
    }

    #[test]
    fn percentiles_are_consistent() {
        let subs: Vec<Submission> = (0..100)
            .map(|i| Submission {
                arrival_frame: i * 100,
                frames: 50,
            })
            .collect();
        let r = simulate(&subs, &cfg(30.0, 20.0), &Telemetry::disabled()).unwrap();
        assert!(r.p50_latency <= r.mean_latency + 1e-12 || r.p50_latency <= r.p95_latency);
        assert!(r.mean_latency <= r.p95_latency + 1e-12);
        assert!(r.p95_latency <= r.p99_latency + 1e-12);
        assert!(r.p99_latency <= r.max_latency + 1e-12);
    }

    #[test]
    fn simulation_records_queue_metrics() {
        let subs: Vec<Submission> = (1..=10)
            .map(|i| Submission {
                arrival_frame: i * 1000,
                frames: 80,
            })
            .collect();
        let c = cfg(30.0, 10.0);
        let tel = Telemetry::with_manual_clock();
        let instrumented = simulate(&subs, &c, &tel).unwrap();
        assert_eq!(
            instrumented,
            simulate(&subs, &c, &Telemetry::disabled()).unwrap()
        );
        let snap = tel.snapshot();
        assert_eq!(snap.counter("ciq.submissions"), Some(10));
        assert_eq!(snap.counter("ciq.completed"), Some(10));
        assert_eq!(snap.counter("ciq.frames"), Some(800));
        let h = snap.histogram("ciq.latency_seconds").unwrap();
        assert_eq!(h.count(), 10);
        // Underloaded queue: every latency is the 8 s service time, and
        // clamped bucket midpoints make the quantile exact.
        assert_eq!(h.quantile(0.5), Some(8.0));
        let depth = snap.gauge("ciq.backlog_frames").unwrap();
        assert_eq!(depth.max, 80.0);
        // The simulator drove the manual clock to the last finish time.
        assert!(tel.now() > 300.0);
    }
}
