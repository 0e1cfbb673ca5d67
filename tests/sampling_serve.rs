//! Gate edge cases and serving integration for content-adaptive
//! sampling (`eventhit-core::sampling`).
//!
//! The claims pinned here:
//!
//! - a zero-motion stream is gated after warmup but for one forced
//!   refresh per `MAX_RUN + 1` frames, and its anchors duplicate-carry
//!   the first scored decision, force-rescoring every `MAX_CARRY + 1`
//!   anchors;
//! - a `DeltaGate` at threshold `0` is a structural no-op: it never
//!   skips or carries, and its decision stream is bit-identical to the
//!   `Fixed` policy's;
//! - the adaptive window stays inside `[m_min, M]` and actually visits
//!   both bounds over a real stream;
//! - gated serving over the wire is bit-identical to the in-process
//!   `run_lanes` path at 1 and 4 workers;
//! - durable serving rejects non-`Fixed` policies at bind time (gate
//!   state is not captured by snapshots).

use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::model::EventHit;
use eventhit::core::multi::{run_lanes, LaneDecision, StreamLane};
use eventhit::core::pipeline::{ConformalState, Strategy};
use eventhit::core::sampling::{SamplingPolicy, MAX_CARRY, MAX_RUN};
use eventhit::core::streaming::OnlinePredictor;
use eventhit::core::tasks::task;
use eventhit::core::InferenceLane;
use eventhit::nn::matrix::Matrix;
use eventhit::parallel::{with_workers, Pool};
use eventhit::serve::convert::decision_from_wire;
use eventhit::serve::{DurableOptions, ServeClient, ServeConfig, Server};
use eventhit::telemetry::Telemetry;

struct Trained {
    model: EventHit,
    state: ConformalState,
    features: Matrix,
    window: usize,
    horizon: usize,
}

fn trained() -> &'static Trained {
    static RUN: OnceLock<Trained> = OnceLock::new();
    RUN.get_or_init(|| {
        let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(77));
        Trained {
            model: run.model,
            state: run.state,
            features: run.features,
            window: run.window,
            horizon: run.horizon,
        }
    })
}

const STRATEGY: Strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };

fn predictor(policy: SamplingPolicy) -> OnlinePredictor {
    let t = trained();
    OnlinePredictor::with_policy(
        t.model.clone(),
        t.state.clone(),
        STRATEGY,
        InferenceLane::Exact,
        policy,
    )
}

#[test]
fn zero_motion_stream_gates_everything_and_carries_decisions() {
    let t = trained();
    let mut p = predictor(SamplingPolicy::DeltaGate { threshold: 0.05 });
    let telemetry = Arc::new(Telemetry::new());
    p.set_telemetry(Arc::clone(&telemetry));

    let frame = t.features.row(0).to_vec();
    let total = t.window + t.horizon * 12;
    let mut decisions = Vec::new();
    for _ in 0..total {
        if let Some(d) = p.push_frame(frame.clone()) {
            decisions.push(d);
        }
    }
    // Warmup admits exactly the first window; after it, every run of
    // `MAX_RUN` skips ends in one forced refresh.
    let gated = (total - t.window) as u64;
    assert_eq!(
        p.frames_skipped(),
        gated - gated / (u64::from(MAX_RUN) + 1),
        "a zero-motion stream must gate every post-warmup frame but the forced refreshes"
    );
    // The cadence is unchanged: one decision per horizon.
    assert_eq!(decisions.len(), 13);
    // Every decision carries the same predictions (the window content
    // never changes, so re-scores reproduce the carried scores exactly).
    for d in &decisions[1..] {
        assert_eq!(d.predictions, decisions[0].predictions);
    }
    // Scored at anchors 0, 5, 10, ... (every `MAX_CARRY + 1`), carried
    // in between.
    let n = decisions.len() as u64;
    let cycle = u64::from(MAX_CARRY) + 1;
    let expected_carried = n - n.div_ceil(cycle);
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter_total("stream.decisions"), n);
    assert_eq!(
        snap.counter_total("stream.decisions_carried"),
        expected_carried,
        "anchors between forced re-scores must duplicate-carry"
    );
    assert_eq!(
        snap.counter_total("stream.frames_skipped"),
        p.frames_skipped(),
        "batched skip telemetry must match the sampler at decision time"
    );
}

#[test]
fn threshold_zero_delta_gate_is_bit_identical_to_fixed() {
    let t = trained();
    let mut fixed = predictor(SamplingPolicy::Fixed);
    let mut gated = predictor(SamplingPolicy::DeltaGate { threshold: 0.0 });
    let a = fixed.run_over(&t.features, 0);
    let b = gated.run_over(&t.features, 0);
    assert!(!a.is_empty());
    assert_eq!(a, b, "threshold 0 must never skip or carry");
    assert_eq!(gated.frames_skipped(), 0);
}

#[test]
fn adaptive_window_visits_both_bounds_and_never_leaves_them() {
    let t = trained();
    let m_min = 2usize;
    let policy = SamplingPolicy::Adaptive {
        threshold: 0.0, // pure windowing: isolate the m-trajectory
        m_min,
    };
    let mut p = predictor(policy);
    let (mut lo, mut hi) = (usize::MAX, 0usize);
    for r in 0..t.features.rows() {
        p.push_frame(t.features.row(r));
        let m = p.window_len();
        lo = lo.min(m);
        hi = hi.max(m);
        assert!(
            (m_min..=t.window).contains(&m),
            "window length {m} escaped [{m_min}, {}]",
            t.window
        );
    }
    assert_eq!(hi, t.window, "busy stretches must grow the window to M");
    assert_eq!(lo, m_min, "quiet stretches must shrink the window to m_min");
}

fn spawn_server(
    cfg: ServeConfig,
    factory: Box<dyn Fn(u32) -> OnlinePredictor + Send + Sync>,
    sessions: usize,
) -> (SocketAddr, JoinHandle<()>) {
    let server = Server::bind(cfg, factory).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        server.serve_sessions(sessions, &Pool::new(1));
    });
    (addr, handle)
}

#[test]
fn gated_serve_is_bit_identical_to_run_lanes_at_1_and_4_workers() {
    let t = trained();
    let dim = t.features.cols() as u32;
    let policy = SamplingPolicy::DeltaGate { threshold: 0.02 };
    let froms = [0usize, 11];

    let lanes = |policy: &SamplingPolicy| -> Vec<StreamLane> {
        froms
            .iter()
            .enumerate()
            .map(|(i, &from)| StreamLane {
                stream_id: i,
                predictor: predictor(policy.clone()),
                features: t.features.clone(),
                from,
            })
            .collect()
    };
    let baseline1 = with_workers(1, || run_lanes(lanes(&policy), &Pool::current()));
    let baseline4 = with_workers(4, || run_lanes(lanes(&policy), &Pool::current()));
    assert_eq!(
        baseline1, baseline4,
        "gated run_lanes must be worker-invariant"
    );
    assert!(!baseline1.is_empty(), "gated baseline had no decisions");

    // Served path: the factory builds Fixed predictors and the server
    // applies `cfg.sampling` at stream-open, exactly like
    // `eventhit-cli serve --sampling`.
    let cfg = ServeConfig {
        sampling: policy.clone(),
        ..ServeConfig::default()
    };
    let (addr, handle) = spawn_server(cfg, Box::new(|_| predictor(SamplingPolicy::Fixed)), 1);
    let mut client = ServeClient::connect(addr).expect("connect");
    for s in 0..froms.len() as u32 {
        client
            .open_stream(s)
            .expect("open I/O")
            .expect_ok("open_stream");
    }
    let mut served: Vec<LaneDecision> = Vec::new();
    let rows = t.features.rows();
    let batch = 101; // unaligned with window/horizon
    let mut cursors = froms;
    loop {
        let mut progressed = false;
        for (i, cursor) in cursors.iter_mut().enumerate() {
            if *cursor >= rows {
                continue;
            }
            progressed = true;
            let hi = (*cursor + batch).min(rows);
            let mut data = Vec::with_capacity((hi - *cursor) * dim as usize);
            for r in *cursor..hi {
                data.extend_from_slice(t.features.row(r));
            }
            let decisions = client
                .submit(i as u32, dim, data)
                .expect("submit I/O")
                .expect_ok("submit");
            served.extend(decisions.iter().map(|d| LaneDecision {
                stream_id: i,
                decision: decision_from_wire(d),
            }));
            *cursor = hi;
        }
        if !progressed {
            break;
        }
    }
    for s in 0..froms.len() as u32 {
        client
            .close_stream(s)
            .expect("close I/O")
            .expect_ok("close_stream");
    }
    drop(client);
    handle.join().expect("server thread");

    served.sort_by_key(|d| (d.decision.anchor, d.stream_id));
    assert_eq!(served, baseline1);
}

#[test]
fn durable_serving_rejects_gated_policies_at_bind() {
    let dir = std::env::temp_dir().join(format!("evht-sampling-durable-{}", std::process::id()));
    let cfg = ServeConfig {
        durable: Some(DurableOptions::new(&dir)),
        sampling: SamplingPolicy::DeltaGate { threshold: 0.1 },
        ..ServeConfig::default()
    };
    let err = Server::bind(cfg, Box::new(|_| predictor(SamplingPolicy::Fixed)))
        .err()
        .expect("durable + gated must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let _ = std::fs::remove_dir_all(&dir);
}
