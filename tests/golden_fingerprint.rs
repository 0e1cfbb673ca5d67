//! Golden end-to-end fingerprint: a quickstart-like pipeline run under
//! the manual telemetry clock is pinned to a constant FNV-1a fingerprint
//! of its JSONL trace. Any change to the RNG, training order, scoring
//! arithmetic, marshalling decisions, or telemetry emission shows up
//! here as a one-number diff — and because every parallel path folds in
//! submission order, the constant holds for any worker count. The
//! benchmark's full-size fixture model is pinned the same way, by the
//! fingerprint of its trained weights.

use std::sync::Arc;

use eventhit::core::ci::CiConfig;
use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::marshal::Marshaller;
use eventhit::core::model_io;
use eventhit::core::multi::{run_lanes, StreamLane};
use eventhit::core::pipeline::Strategy;
use eventhit::core::streaming::OnlinePredictor;
use eventhit::core::tasks::task;
use eventhit::core::InferenceLane;
use eventhit::parallel::{with_workers, Pool};
use eventhit::telemetry::Telemetry;

/// Pinned against the in-repo xoshiro256++ generator and the manual
/// telemetry clock. Recompute only for a deliberate pipeline change, and
/// call the change out in review.
const GOLDEN_FINGERPRINT: u64 = 0x578f_f497_86f2_f4c6;

/// FNV-1a over the quantized-lane multi-stream decision timeline of the
/// same quickstart run: int8 scoring plus the conformal state refitted on
/// quantized calibration scores. Pinned separately from the exact lane —
/// a quantizer change moves this constant and only this constant.
const GOLDEN_QUANTIZED_FINGERPRINT: u64 = 0x3a32_fc70_d8c1_e148;

/// `model_io::fingerprint` of the benchmark's fixture model (TA10, scale
/// 0.3, seed 7, default config; final training loss 0.41688442). The
/// quickstart runs above train 16 hidden units; this one trains the
/// full-size network — a 192-wide LSTM gate and a 201-wide head — so
/// every training product's bits at those widths are pinned here.
const GOLDEN_FIXTURE_MODEL: u64 = 0xf8e6_9b63_c292_da9b;

fn pipeline_trace() -> (String, u64) {
    let cfg = ExperimentConfig {
        scale: 0.08,
        ..ExperimentConfig::quick(40)
    };
    let run = TaskRun::execute(&task("TA10").unwrap(), &cfg);
    let stream = run.stream.clone();
    let features = run.features.clone();
    let from = run.window as u64;
    let to = stream.len;

    let tel = Arc::new(Telemetry::with_manual_clock());
    let mut m = Marshaller::new(
        run.model,
        run.state,
        Strategy::Ehcr { c: 0.9, alpha: 0.5 },
        run.window,
        run.horizon,
        CiConfig::default(),
    );
    m.set_telemetry(Arc::clone(&tel));
    m.try_run(&stream, &features, from, to)
        .expect("range inside the stream");

    let snap = tel.snapshot();
    (snap.to_jsonl(), snap.fingerprint())
}

#[test]
fn pipeline_fingerprint_matches_golden_constant() {
    let (jsonl, fp) = pipeline_trace();
    assert!(jsonl.contains("\"clock\":\"manual\""));
    assert_eq!(
        fp, GOLDEN_FINGERPRINT,
        "pipeline trace fingerprint drifted: got {fp:#018x}"
    );
}

#[test]
fn pipeline_fingerprint_replays_identically_across_worker_counts() {
    let (jsonl_1, fp_1) = with_workers(1, pipeline_trace);
    assert_eq!(fp_1, GOLDEN_FINGERPRINT, "got {fp_1:#018x}");
    for w in [2usize, 4, 8] {
        let (jsonl_w, fp_w) = with_workers(w, pipeline_trace);
        assert_eq!(jsonl_w, jsonl_1, "trace diverged at {w} workers");
        assert_eq!(fp_w, GOLDEN_FINGERPRINT);
    }
}

#[test]
fn fixture_model_fingerprint_matches_golden_constant_at_1_and_4_workers() {
    let cfg = ExperimentConfig {
        scale: 0.3,
        seed: 7,
        ..ExperimentConfig::default()
    };
    for workers in [1usize, 4] {
        let run = with_workers(workers, || TaskRun::execute(&task("TA10").unwrap(), &cfg));
        let fp = model_io::fingerprint(&run.model);
        assert_eq!(
            fp, GOLDEN_FIXTURE_MODEL,
            "fixture model drifted at {workers} workers: got {fp:#018x}"
        );
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The quantized-lane counterpart of [`pipeline_trace`]: two stream lanes
/// on int8 predictors over the quickstart run's features, decisions
/// merged by [`run_lanes`] and hashed in full (anchors, per-event
/// intervals, degradation tags).
fn quantized_trace(workers: usize) -> (String, u64) {
    let cfg = ExperimentConfig {
        scale: 0.08,
        ..ExperimentConfig::quick(40)
    };
    let run = TaskRun::execute(&task("TA10").unwrap(), &cfg);
    let state = run.state_for_lane(InferenceLane::Quantized);
    let lanes: Vec<StreamLane> = [0usize, 11]
        .iter()
        .enumerate()
        .map(|(i, &from)| StreamLane {
            stream_id: i,
            predictor: OnlinePredictor::with_lane(
                run.model.clone(),
                state.clone(),
                Strategy::Ehcr { c: 0.9, alpha: 0.5 },
                InferenceLane::Quantized,
            ),
            features: run.features.clone(),
            from,
        })
        .collect();
    let decisions = run_lanes(lanes, &Pool::new(workers));
    let mut text = String::new();
    for d in &decisions {
        text.push_str(&format!(
            "{} {}:{:?}\n",
            d.stream_id, d.decision.anchor, d.decision.predictions
        ));
    }
    let fp = fnv1a(text.as_bytes());
    (text, fp)
}

/// The same two quantized lanes as [`quantized_trace`], but served over
/// a loopback TCP server partitioned into `shards` shards, decisions
/// rebuilt into the identical text form. Sharding is stream *ownership*
/// partitioning — it must never move a pinned fingerprint.
fn served_quantized_trace(shards: u32) -> (String, u64) {
    use eventhit::serve::convert::decision_from_wire;
    use eventhit::serve::{ServeConfig, Server};

    let cfg = ExperimentConfig {
        scale: 0.08,
        ..ExperimentConfig::quick(40)
    };
    let run = TaskRun::execute(&task("TA10").unwrap(), &cfg);
    let state = run.state_for_lane(InferenceLane::Quantized);
    let (model, features) = (run.model, run.features);
    let factory_state = state.clone();
    let server = Server::bind(
        ServeConfig {
            shards,
            ..ServeConfig::default()
        },
        Box::new(move |_| {
            OnlinePredictor::with_lane(
                model.clone(),
                factory_state.clone(),
                Strategy::Ehcr { c: 0.9, alpha: 0.5 },
                InferenceLane::Quantized,
            )
        }),
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.serve_sessions(1, &Pool::new(2)));

    let froms = [0usize, 11];
    let dim = features.cols() as u32;
    let rows = features.rows();
    let mut client = eventhit::serve::ServeClient::connect(addr).expect("connect");
    for s in 0..froms.len() as u32 {
        client.open_stream(s).unwrap().expect_ok("open_stream");
    }
    let mut decisions: Vec<(usize, _)> = Vec::new();
    let batch = 97; // deliberately unaligned with window/horizon
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
                data.extend_from_slice(features.row(r));
            }
            let ds = client
                .submit(i as u32, dim, data)
                .unwrap()
                .expect_ok("submit");
            decisions.extend(ds.iter().map(|d| (i, decision_from_wire(d))));
            *cursor = hi;
        }
        if !progressed {
            break;
        }
    }
    for s in 0..froms.len() as u32 {
        client.close_stream(s).unwrap().expect_ok("close_stream");
    }
    drop(client);
    handle.join().expect("server thread");

    // run_lanes' global merge order, then the exact trace text.
    decisions.sort_by_key(|(stream, d)| (d.anchor, *stream));
    let mut text = String::new();
    for (stream, d) in &decisions {
        text.push_str(&format!("{} {}:{:?}\n", stream, d.anchor, d.predictions));
    }
    let fp = fnv1a(text.as_bytes());
    (text, fp)
}

#[test]
fn quantized_fingerprint_is_unchanged_when_served_at_1_2_and_4_shards() {
    for shards in [1u32, 2, 4] {
        let (text, fp) = served_quantized_trace(shards);
        assert!(
            !text.is_empty(),
            "{shards}-shard serve produced no decisions"
        );
        assert_eq!(
            fp, GOLDEN_QUANTIZED_FINGERPRINT,
            "{shards}-shard serving moved the pinned quantized \
             fingerprint: got {fp:#018x}"
        );
    }
}

#[test]
fn quantized_fingerprint_matches_golden_constant_at_any_worker_count() {
    let (text_1, fp_1) = quantized_trace(1);
    assert!(!text_1.is_empty(), "quantized trace produced no decisions");
    assert_eq!(
        fp_1, GOLDEN_QUANTIZED_FINGERPRINT,
        "quantized decision fingerprint drifted: got {fp_1:#018x}"
    );
    for w in [2usize, 4, 8] {
        let (text_w, fp_w) = quantized_trace(w);
        assert_eq!(text_w, text_1, "quantized trace diverged at {w} workers");
        assert_eq!(fp_w, GOLDEN_QUANTIZED_FINGERPRINT);
    }
}
