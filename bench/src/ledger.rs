//! The ledger pass: the workload's first frames replayed through each
//! layer's public functions *alone*, on one thread, with a harness span
//! around every batch of calls — so every layer gets a cost in the same
//! unit (nanoseconds per frame), and the layer costs can be added up and
//! held against what the end-to-end run measured.
//!
//! Calls that take tens of nanoseconds are timed in batches (a span per
//! batch, the call count kept beside it); two clock reads around each
//! one would cost as much as the call. CPU costs are restated at the
//! reference host speed (see `calib`), as the end-to-end timings are, so
//! the two sides of the reconciliation are in the same units; the spans
//! written out stay as the clock read them.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use eventhit_core::infer::{score_records, scored_from_outputs};
use eventhit_core::sampling::{window_drift, Sampler};
use eventhit_core::streaming::{HorizonDecision, OnlinePredictor};
use eventhit_core::{DegradationTag, InferenceLane, SamplingPolicy};
use eventhit_durable::{DurableStore, LaneSnapshot, SessionEvent, Snapshot};
use eventhit_nn::matrix::Matrix;
use eventhit_serve::admission::{AdmissionController, FrameQueue};
use eventhit_serve::convert::decision_to_wire;
use eventhit_serve::fleet::stream_row;
use eventhit_serve::protocol::{decode_payload, encode, Message};
use eventhit_serve::ShardRouter;
use eventhit_telemetry::Telemetry;
use eventhit_video::online::WindowBuffer;
use eventhit_video::records::{EventLabel, Record};

use crate::calib;
use crate::fixture::{Fixture, FAST_POLICY};
use crate::pace::{Clock, WallClock};
use crate::span::SpanLog;

/// Anchors (horizons of frames) a full ledger pass replays.
pub const ANCHORS: usize = 1000;
/// `FramesPushed` appends the durable part times (each one an fsync).
const DURABLE_FRAME_APPENDS: usize = 400;
/// `DecisionEmitted` appends the durable part times.
const DURABLE_DECISION_APPENDS: usize = 200;

/// Every timed span, the suffix that completes its metric's name, and
/// the divisor from nanoseconds per call to the metric's unit.
const TIMED: [(&str, &str, f64); 24] = [
    ("core.sampling.admit.fixed", "ns_per_frame", 1.0),
    ("core.sampling.admit.gated", "ns_per_frame", 1.0),
    ("core.sampling.window_drift", "ns_per_call", 1.0),
    ("video.online.window_push", "ns_per_frame", 1.0),
    ("video.online.covariates_last", "ns_per_anchor", 1.0),
    ("core.streaming.push_frame.nonanchor", "ns_per_frame", 1.0),
    ("core.streaming.push_frame.anchor", "us", 1e3),
    ("core.infer.score_one.exact", "us_per_anchor", 1e3),
    ("core.infer.score_one.int8", "us_per_anchor", 1e3),
    ("core.infer.score_one.int8_adaptive", "us_per_anchor", 1e3),
    ("conformal.predict", "ns_per_decision", 1.0),
    ("serve.protocol.encode_submit.b64", "ns_per_frame", 1.0),
    ("serve.protocol.decode_submit.b64", "ns_per_frame", 1.0),
    ("serve.protocol.encode_submit.b1", "ns_per_frame", 1.0),
    ("serve.protocol.decode_submit.b1", "ns_per_frame", 1.0),
    ("serve.protocol.encode_decisions", "ns_per_decision", 1.0),
    ("serve.protocol.decode_decisions", "ns_per_decision", 1.0),
    ("serve.admission.try_admit_release", "ns_per_call", 1.0),
    ("serve.admission.frame_queue", "ns_per_frame", 1.0),
    ("serve.router.route", "ns_per_call", 1.0),
    ("serve.convert.decision_to_wire", "ns_per_decision", 1.0),
    ("durable.append.frames_pushed", "us_per_call", 1e3),
    ("durable.append.decision", "us_per_call", 1e3),
    ("durable.snapshot_write", "ms", 1e6),
];

/// How a workload uses the layers — what the ledger adds up for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Usage {
    /// Int8 lane and the gating policy instead of exact and fixed.
    pub fast: bool,
    /// Frames per submit over the wire; `None` for in-process workloads.
    pub batch: Option<usize>,
    /// Whether sessions are journaled.
    pub durable: bool,
}

/// Times batches of calls and keeps the call count beside the spans.
/// Between batches it samples the host's speed, so the pass's costs can
/// be restated at the reference speed like the end-to-end timings.
struct Meter<'a> {
    clock: WallClock,
    spans: &'a mut SpanLog,
    root: u32,
    calls: BTreeMap<&'static str, u64>,
    calibrated_at: u64,
    calib: Vec<f64>,
}

impl Meter<'_> {
    /// Runs `f`, which makes `calls` calls into the layer, inside one
    /// span named `name`.
    fn time<R>(&mut self, name: &'static str, trace: u64, calls: u64, f: impl FnOnce() -> R) -> R {
        if self.clock.now_ns() >= self.calibrated_at + calib::PERIOD_NS {
            self.calib.push(calib::kernel());
            self.calibrated_at = self.clock.now_ns();
        }
        let t0 = self.clock.now_ns();
        let out = std::hint::black_box(f());
        let t1 = self.clock.now_ns();
        self.spans.record(name, Some(self.root), trace, t0, t1);
        *self.calls.entry(name).or_default() += calls;
        out
    }
}

/// The ledger's result: per-layer metrics by name.
pub type Layer = BTreeMap<String, f64>;

/// Replays `anchors` horizons of the run's first stream through every
/// layer. `durable_dir` set means the durable layer is exercised too,
/// in that directory (created and removed here).
pub fn pass(
    fix: &Fixture,
    stream: u32,
    anchors: usize,
    usage: Usage,
    durable_dir: Option<&Path>,
    spans: &mut SpanLog,
) -> Result<Layer, String> {
    let (m, h, d) = (fix.window, fix.horizon, fix.dim);
    let frames = anchors * h;
    let row = |r: usize| stream_row(&fix.rows, stream, r);
    let clock = WallClock::start();
    let root = spans.open("ledger", None, 0, clock.now_ns());
    let mut meter = Meter {
        clock,
        spans,
        root,
        calls: BTreeMap::new(),
        calibrated_at: 0,
        calib: vec![calib::kernel()],
    };
    let fast_policy = SamplingPolicy::parse(FAST_POLICY).expect("the fast policy parses");

    // core.sampling: the gate in front of the window, both policies.
    for (name, policy) in [
        ("core.sampling.admit.fixed", SamplingPolicy::Fixed),
        ("core.sampling.admit.gated", fast_policy.clone()),
    ] {
        let mut sampler = Sampler::new(policy, m);
        for a in 0..anchors {
            meter.time(name, a as u64, h as u64, || {
                for r in a * h..(a + 1) * h {
                    std::hint::black_box(sampler.admit(row(r), true));
                }
            });
        }
    }

    // video.online: window assembly. `push` takes an owned row, so the
    // per-frame allocation it forces on every caller is part of its cost.
    let mut buffer = WindowBuffer::new(m, d);
    for r in 0..m {
        buffer.push(row(r).to_vec());
    }
    let mut windows: Vec<Matrix> = Vec::with_capacity(anchors);
    for a in 0..anchors {
        meter.time("video.online.window_push", a as u64, h as u64, || {
            for r in m + a * h..m + (a + 1) * h {
                buffer.push(row(r).to_vec());
            }
        });
        windows.push(meter.time("video.online.covariates_last", a as u64, 1, || {
            buffer.covariates_last(m)
        }));
    }

    // core.sampling: the anchor-level carry test between scored windows.
    for (a, pair) in windows.windows(2).enumerate() {
        meter.time("core.sampling.window_drift", a as u64, 1, || {
            window_drift(&pair[0], &pair[1])
        });
    }

    // core.infer + nn: one model forward per anchor, on each lane.
    let records: Vec<Record> = windows
        .into_iter()
        .enumerate()
        .map(|(a, covariates)| Record {
            anchor: (m + (a + 1) * h - 1) as u64,
            covariates,
            labels: vec![EventLabel::absent(); fix.state.num_events()],
        })
        .collect();
    let mut scored = Vec::with_capacity(anchors);
    for (a, record) in records.iter().enumerate() {
        scored.push(meter.time("core.infer.score_one.exact", a as u64, 1, || {
            score_records(&fix.model, std::slice::from_ref(record), 1).remove(0)
        }));
    }
    let quantized = fix.model.quantized();
    for (a, record) in records.iter().enumerate() {
        meter.time("core.infer.score_one.int8", a as u64, 1, || {
            scored_from_outputs(&quantized.forward_inference(&[record]), 0, record)
        });
    }

    // conformal: scores to the relay decision.
    let decisions: Vec<HorizonDecision> = scored
        .iter()
        .enumerate()
        .map(|(a, s)| HorizonDecision {
            anchor: s.anchor,
            predictions: meter.time("conformal.predict", a as u64, 1, || {
                fix.state.predict(s, &fix.strategy)
            }),
            degradation: DegradationTag::None,
        })
        .collect();

    // core.streaming: the same frames through the assembled predictor —
    // the cross-check for the rows above. Costs do not depend on which
    // calibration the state came from, so the workload's own is used.
    let mut online = OnlinePredictor::with_policy(
        fix.model.clone(),
        fix.state.clone(),
        fix.strategy,
        InferenceLane::Exact,
        SamplingPolicy::Fixed,
    );
    let is_anchor = |r: usize| r + 1 >= m && (r + 1 - m).is_multiple_of(h);
    let mut r = 0;
    while r < frames {
        let run_end = (r..frames).find(|&q| is_anchor(q)).unwrap_or(frames);
        if run_end > r {
            meter.time(
                "core.streaming.push_frame.nonanchor",
                r as u64,
                (run_end - r) as u64,
                || {
                    for q in r..run_end {
                        std::hint::black_box(online.push_frame(row(q).to_vec()));
                    }
                },
            );
        }
        if run_end < frames {
            meter.time(
                "core.streaming.push_frame.anchor",
                run_end as u64,
                1,
                || online.push_frame(row(run_end).to_vec()),
            );
        }
        r = run_end + 1;
    }

    // core.sampling counts: what the fast policy skips and carries.
    let recorder = Arc::new(Telemetry::new());
    let mut gated = OnlinePredictor::with_policy(
        fix.model.clone(),
        fix.state.clone(),
        fix.strategy,
        InferenceLane::Quantized,
        fast_policy,
    );
    gated.set_telemetry(Arc::clone(&recorder));
    let mut window_lens: Vec<usize> = Vec::with_capacity(anchors);
    for r in 0..frames {
        // The window the policy hands the encoder at the next anchor.
        let len = gated.window_len();
        if gated.push_frame(row(r).to_vec()).is_some() {
            window_lens.push(len);
        }
    }
    let gated_decisions = window_lens.len() as u64;
    let carried = recorder
        .snapshot()
        .counter_total("stream.decisions_carried");

    // core.infer again, the way the fast policy runs it: the int8 forward
    // over only the newest rows the adaptive window asked for.
    for (a, (record, &len)) in records.iter().zip(&window_lens).enumerate() {
        let mut covariates = Matrix::zeros(len, d);
        for i in 0..len {
            covariates.set_row(i, record.covariates.row(m - len + i));
        }
        let short = Record {
            anchor: record.anchor,
            covariates,
            labels: record.labels.clone(),
        };
        meter.time("core.infer.score_one.int8_adaptive", a as u64, 1, || {
            scored_from_outputs(&quantized.forward_inference(&[&short]), 0, &short)
        });
    }

    // serve.protocol: the pure codec at both message sizes.
    let dim = d as u32;
    let mut wire_len = BTreeMap::new();
    for (label, batch, per_span, enc, dec) in [
        (
            "b64",
            64usize,
            16usize,
            "serve.protocol.encode_submit.b64",
            "serve.protocol.decode_submit.b64",
        ),
        (
            "b1",
            1,
            256,
            "serve.protocol.encode_submit.b1",
            "serve.protocol.decode_submit.b1",
        ),
    ] {
        let messages: Vec<Message> = (0..per_span)
            .map(|k| {
                let mut data = Vec::with_capacity(batch * d);
                fix.fill_rows(stream, k * batch, batch, &mut data);
                Message::SubmitFrames {
                    stream_id: stream,
                    dim,
                    data,
                }
            })
            .collect();
        let rounds = (frames / (batch * per_span)).max(1);
        let frames_per_span = (batch * per_span) as u64;
        let mut encoded: Vec<Vec<u8>> = Vec::new();
        for k in 0..rounds {
            encoded = meter.time(enc, k as u64, frames_per_span, || {
                messages.iter().map(encode).collect()
            });
            meter.time(dec, k as u64, frames_per_span, || {
                for bytes in &encoded {
                    std::hint::black_box(
                        decode_payload(&bytes[4..]).expect("own encoding decodes"),
                    );
                }
            });
        }
        wire_len.insert(label, encoded[0].len());
    }
    let reply = |decisions: Vec<_>| Message::Decisions {
        stream_id: stream,
        decisions,
    };
    let empty_reply_len = encode(&reply(Vec::new())).len();
    let mut one_reply_len = empty_reply_len;
    for (a, decision) in decisions.iter().enumerate() {
        let wire = meter.time("serve.convert.decision_to_wire", a as u64, 1, || {
            decision_to_wire(decision)
        });
        let message = reply(vec![wire]);
        let bytes = meter.time("serve.protocol.encode_decisions", a as u64, 1, || {
            encode(&message)
        });
        meter.time("serve.protocol.decode_decisions", a as u64, 1, || {
            decode_payload(&bytes[4..]).expect("own encoding decodes")
        });
        one_reply_len = bytes.len();
    }

    // serve.admission / serve.router.
    let admission = AdmissionController::new(16);
    let router = ShardRouter::new(1);
    let mut queue = FrameQueue::new(8192);
    for a in 0..anchors {
        meter.time("serve.admission.try_admit_release", a as u64, 64, || {
            for _ in 0..64 {
                std::hint::black_box(admission.try_admit());
                admission.release();
            }
        });
        meter.time("serve.router.route", a as u64, 64, || {
            for s in 0..64 {
                std::hint::black_box(router.route(stream.wrapping_add(s)));
            }
        });
        // One 64-frame batch the way the server queues it: split into
        // owned rows, enqueued whole, popped one by one.
        let mut data = Vec::with_capacity(64 * d);
        fix.fill_rows(stream, a * 64, 64, &mut data);
        meter.time("serve.admission.frame_queue", a as u64, 64, || {
            let batch: Vec<Vec<f32>> = data.chunks(d).map(<[f32]>::to_vec).collect();
            queue.try_enqueue(batch).expect("the queue was drained");
            while let Some(row) = queue.pop() {
                std::hint::black_box(row);
            }
        });
    }

    // durable: appends (each one write + sync_data) and a snapshot.
    if let Some(dir) = durable_dir {
        let _ = std::fs::remove_dir_all(dir);
        let (mut store, _) =
            DurableStore::open(dir).map_err(|e| format!("ledger durable dir: {e}"))?;
        for k in 0..DURABLE_FRAME_APPENDS {
            let mut data = Vec::with_capacity(64 * d);
            fix.fill_rows(stream, k * 64, 64, &mut data);
            let event = SessionEvent::FramesPushed {
                stream_id: stream,
                dim,
                data,
            };
            meter
                .time("durable.append.frames_pushed", k as u64, 1, || {
                    store.append(&event)
                })
                .map_err(|e| format!("ledger append: {e}"))?;
        }
        for k in 0..DURABLE_DECISION_APPENDS {
            let event = SessionEvent::DecisionEmitted {
                stream_id: stream,
                anchor: k as u64,
                fingerprint: k as u64,
            };
            meter
                .time("durable.append.decision", k as u64, 1, || {
                    store.append(&event)
                })
                .map_err(|e| format!("ledger append: {e}"))?;
        }
        // A checkpoint the size the workload writes: eight full lanes.
        let lanes = (0..8)
            .map(|i| {
                let st = online.export_state();
                LaneSnapshot {
                    stream_id: stream + i,
                    dim,
                    frames: st.frames_seen,
                    decisions: anchors as u64,
                    frames_seen: st.frames_seen,
                    countdown: st.countdown,
                    state_fingerprint: st.fingerprint(),
                    rows: st.rows,
                }
            })
            .collect();
        let snapshot = Snapshot {
            events_applied: store.events_applied(),
            reload_fingerprint: None,
            lanes,
        };
        for k in 0..5 {
            meter
                .time("durable.snapshot_write", k, 1, || {
                    store.write_snapshot(&snapshot)
                })
                .map_err(|e| format!("ledger snapshot: {e}"))?;
        }
        drop(store);
        let _ = std::fs::remove_dir_all(dir);
    }

    let Meter {
        clock,
        calls,
        calib: kernel_runs,
        ..
    } = meter;
    spans.close(root, clock.now_ns());
    let totals = spans.self_times();
    let speed = calib::speed_index(&kernel_runs);
    // Nanoseconds per call of one timed name, restated at the reference
    // host speed; 0 when it never ran. The durable appends are waits on
    // the disk, not CPU time, and stay as the clock read them.
    let per_call = |name: &str| -> f64 {
        match (totals.get(name), calls.get(name)) {
            (Some(t), Some(&n)) if n > 0 => {
                let raw = t.total_ns as f64 / n as f64;
                if name.starts_with("durable.") {
                    raw
                } else {
                    raw * speed
                }
            }
            _ => 0.0,
        }
    };

    let mut out = Layer::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    let hf = h as f64;
    for (span, suffix, per) in TIMED {
        put(&format!("{span}.{suffix}"), per_call(span) / per);
    }
    put(
        "core.sampling.skip_share",
        gated.frames_skipped() as f64 / frames as f64,
    );
    put(
        "core.sampling.carried_share",
        carried as f64 / gated_decisions.max(1) as f64,
    );
    let mut lens: Vec<f64> = window_lens.iter().map(|&l| l as f64).collect();
    crate::stats::sort(&mut lens);
    put(
        "core.sampling.window_len.median",
        crate::stats::quantile_sorted(&lens, 0.5),
    );
    // Request plus reply bytes per frame; the decision's own bytes are
    // spread over the horizon it covers. Computed from message lengths.
    let decision_bytes = (one_reply_len - empty_reply_len) as f64 / hf;
    put(
        "serve.protocol.wire_bytes_per_frame.b64",
        (wire_len["b64"] + empty_reply_len) as f64 / 64.0 + decision_bytes,
    );
    put(
        "serve.protocol.wire_bytes_per_frame.b1",
        (wire_len["b1"] + empty_reply_len) as f64 + decision_bytes,
    );
    // Computed from the model's shapes, not measured: multiply-adds of
    // one forward (LSTM over M steps, shared layer, K heads) and the
    // bytes of its f32 weights.
    let cfg = fix.model.config();
    let lstm = 4 * cfg.hidden_dim * (cfg.input_dim + cfg.hidden_dim) * cfg.window;
    let shared = cfg.hidden_dim * cfg.shared_dim;
    let heads = cfg.num_events * (cfg.shared_dim + cfg.input_dim) * (1 + cfg.horizon);
    put("core.infer.macs_per_anchor", (lstm + shared + heads) as f64);
    put(
        "core.infer.weight_bytes",
        (fix.model.param_count() * 4) as f64,
    );

    // The composition: what this workload pays per frame in each layer.
    let score = if usage.fast {
        per_call("core.infer.score_one.int8_adaptive")
    } else {
        per_call("core.infer.score_one.exact")
    };
    let sampling = if usage.fast {
        per_call("core.sampling.admit.gated") + per_call("core.sampling.window_drift") / hf
    } else {
        per_call("core.sampling.admit.fixed")
    };
    let video =
        per_call("video.online.window_push") + per_call("video.online.covariates_last") / hf;
    let infer = score / hf;
    let conformal = per_call("conformal.predict") / hf;
    let (protocol, admission_cost, durable) = match usage.batch {
        None => (0.0, 0.0, 0.0),
        Some(batch) => {
            let label = if batch == 1 { "b1" } else { "b64" };
            let bf = batch as f64;
            (
                per_call(&format!("serve.protocol.encode_submit.{label}"))
                    + per_call(&format!("serve.protocol.decode_submit.{label}"))
                    + (per_call("serve.protocol.encode_decisions")
                        + per_call("serve.protocol.decode_decisions"))
                        / hf,
                per_call("serve.admission.frame_queue")
                    + per_call("serve.router.route") / bf
                    + per_call("serve.convert.decision_to_wire") / hf,
                if usage.durable {
                    per_call("durable.append.frames_pushed") / bf
                        + per_call("durable.append.decision") / hf
                } else {
                    0.0
                },
            )
        }
    };
    let parts = [
        ("core_sampling", sampling),
        ("video_online", video),
        ("core_infer", infer),
        ("conformal", conformal),
        ("serve_protocol", protocol),
        ("serve_admission", admission_cost),
        ("durable", durable),
    ];
    let sum: f64 = parts.iter().map(|(_, v)| v).sum();
    put(
        "ledger.predictor_sum_ns_per_frame",
        sampling + video + infer + conformal,
    );
    put(
        "ledger.push_frame_ns_per_frame",
        (per_call("core.streaming.push_frame.nonanchor") * (hf - 1.0)
            + per_call("core.streaming.push_frame.anchor"))
            / hf,
    );
    put("ledger.sum_ns_per_frame", sum);
    put("ledger.host_speed", speed);
    for (layer, value) in parts {
        put(
            &format!("ledger.share.{layer}"),
            if sum > 0.0 { value / sum } else { 0.0 },
        );
    }
    Ok(out)
}
