//! Loopback tests of the serving frontend: the soak test proving wire
//! decisions are bit-identical to the in-process `run_lanes` path, plus
//! admission, backpressure, disconnect-recovery, version negotiation,
//! and degradation-tag propagation over a real TCP socket.

use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::thread::JoinHandle;

use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::model::EventHit;
use eventhit::core::multi::{run_lanes, LaneDecision, StreamLane};
use eventhit::core::pipeline::{ConformalState, Strategy};
use eventhit::core::streaming::OnlinePredictor;
use eventhit::core::tasks::task;
use eventhit::core::InferenceLane;
use eventhit::nn::matrix::Matrix;
use eventhit::parallel::{with_workers, Pool};
use eventhit::serve::convert::decision_from_wire;
use eventhit::serve::protocol::{read_message, write_message, Message, RejectCode, PROTOCOL_MAJOR};
use eventhit::serve::{fleet, FleetSpec, Response, ServeClient, ServeConfig, Server};

/// One quick training run shared by every test in this file.
struct Trained {
    model: EventHit,
    state: ConformalState,
    /// Conformal state refitted from calibration scores on the int8 lane,
    /// the pairing `serve --lane quantized` deploys.
    quant_state: ConformalState,
    features: Matrix,
}

fn trained() -> &'static Trained {
    static RUN: OnceLock<Trained> = OnceLock::new();
    RUN.get_or_init(|| {
        let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(77));
        let quant_state = run.state_for_lane(InferenceLane::Quantized);
        Trained {
            model: run.model,
            state: run.state,
            quant_state,
            features: run.features,
        }
    })
}

const STRATEGY: Strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };

fn predictor() -> OnlinePredictor {
    let t = trained();
    OnlinePredictor::new(t.model.clone(), t.state.clone(), STRATEGY)
}

fn quantized_predictor() -> OnlinePredictor {
    let t = trained();
    OnlinePredictor::with_lane(
        t.model.clone(),
        t.quant_state.clone(),
        STRATEGY,
        InferenceLane::Quantized,
    )
}

/// Binds a server on a free port and serves exactly `sessions` sessions
/// on a background thread.
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
fn loopback_soak_bit_identical_to_run_lanes_at_1_and_4_workers() {
    let t = trained();
    let dim = t.features.cols() as u32;
    // Three streams over the same stream's features at different start
    // offsets, so every lane produces a distinct decision sequence.
    let froms = [0usize, 7, 19];

    // In-process baseline, at both worker counts (which must agree).
    let lanes = |_| -> Vec<StreamLane> {
        froms
            .iter()
            .enumerate()
            .map(|(i, &from)| StreamLane {
                stream_id: i,
                predictor: predictor(),
                features: t.features.clone(),
                from,
            })
            .collect()
    };
    let baseline1 = with_workers(1, || run_lanes(lanes(()), &Pool::current()));
    let baseline4 = with_workers(4, || run_lanes(lanes(()), &Pool::current()));
    assert_eq!(baseline1, baseline4, "run_lanes must be worker-invariant");
    assert!(!baseline1.is_empty(), "soak baseline produced no decisions");

    // Served path: one session, three interleaved streams, batched rows.
    let (addr, handle) = spawn_server(ServeConfig::default(), Box::new(|_| predictor()), 1);
    let mut client = ServeClient::connect(addr).expect("connect");
    for s in 0..froms.len() as u32 {
        client
            .open_stream(s)
            .expect("open I/O")
            .expect_ok("open_stream");
    }
    let mut served: Vec<LaneDecision> = Vec::new();
    let rows = t.features.rows();
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

    // Same merge key as run_lanes, then bit-for-bit equality.
    served.sort_by_key(|d| (d.decision.anchor, d.stream_id));
    assert_eq!(served, baseline1);
}

#[test]
fn quantized_lane_server_bit_identical_to_in_process_run_lanes() {
    let t = trained();
    let dim = t.features.cols() as u32;
    let froms = [0usize, 13];

    // In-process quantized baseline at 1 and 4 workers (must agree: the
    // int8 kernels are sequential, so worker count cannot matter).
    let lanes = || -> Vec<StreamLane> {
        froms
            .iter()
            .enumerate()
            .map(|(i, &from)| StreamLane {
                stream_id: i,
                predictor: quantized_predictor(),
                features: t.features.clone(),
                from,
            })
            .collect()
    };
    let baseline1 = with_workers(1, || run_lanes(lanes(), &Pool::current()));
    let baseline4 = with_workers(4, || run_lanes(lanes(), &Pool::current()));
    assert_eq!(
        baseline1, baseline4,
        "quantized run_lanes must be worker-invariant"
    );
    assert!(!baseline1.is_empty(), "quantized baseline had no decisions");

    // Served path: a server whose lane factory builds quantized
    // predictors, exactly like `eventhit-cli serve --lane quantized`.
    let (addr, handle) = spawn_server(
        ServeConfig::default(),
        Box::new(|_| quantized_predictor()),
        1,
    );
    let mut client = ServeClient::connect(addr).expect("connect");
    for s in 0..froms.len() as u32 {
        client
            .open_stream(s)
            .expect("open I/O")
            .expect_ok("open_stream");
    }
    let mut served: Vec<LaneDecision> = Vec::new();
    let rows = t.features.rows();
    let batch = 113; // unaligned with window/horizon
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
fn admission_caps_streams_and_recovers_on_close() {
    let cfg = ServeConfig {
        max_streams: 2,
        retry_after_ms: 250,
        ..ServeConfig::default()
    };
    let (addr, handle) = spawn_server(cfg, Box::new(|_| predictor()), 1);
    let mut client = ServeClient::connect(addr).expect("connect");
    assert_eq!(client.negotiated().max_streams, 2);

    client.open_stream(0).unwrap().expect_ok("first");
    client.open_stream(1).unwrap().expect_ok("second");
    match client.open_stream(2).unwrap() {
        Response::Rejected(r) => {
            assert_eq!(r.code, RejectCode::TooManyStreams);
            assert_eq!(r.retry_after_ms, 250, "retry-after hint must propagate");
        }
        Response::Ok(()) => panic!("third stream must be refused"),
    }
    // Duplicate ids are refused without consuming a slot.
    match client.open_stream(1).unwrap() {
        Response::Rejected(r) => assert_eq!(r.code, RejectCode::DuplicateStream),
        Response::Ok(()) => panic!("duplicate stream must be refused"),
    }
    // Closing frees the slot for the previously refused stream.
    client.close_stream(1).unwrap().expect_ok("close");
    client.open_stream(2).unwrap().expect_ok("after release");
    drop(client);
    handle.join().unwrap();
}

#[test]
fn queue_full_and_batch_too_large_backpressure() {
    let t = trained();
    let dim = t.features.cols() as u32;
    let cfg = ServeConfig {
        max_batch_frames: 64,
        max_queue_frames: 8,
        retry_after_ms: 40,
        ..ServeConfig::default()
    };
    let (addr, handle) = spawn_server(cfg, Box::new(|_| predictor()), 1);
    let mut client = ServeClient::connect(addr).expect("connect");
    client.open_stream(0).unwrap().expect_ok("open");

    let rows_of = |n: usize| {
        let mut data = Vec::with_capacity(n * dim as usize);
        for r in 0..n {
            data.extend_from_slice(t.features.row(r));
        }
        data
    };
    // Over the batch cap: permanent rejection (retry cannot help).
    match client.submit(0, dim, rows_of(65)).unwrap() {
        Response::Rejected(r) => {
            assert_eq!(r.code, RejectCode::BatchTooLarge);
            assert_eq!(r.retry_after_ms, 0);
        }
        Response::Ok(_) => panic!("oversized batch must be refused"),
    }
    // Under the batch cap but over the queue bound: a size check too, so
    // just as permanent; batch untouched.
    match client.submit(0, dim, rows_of(16)).unwrap() {
        Response::Rejected(r) => {
            assert_eq!(r.code, RejectCode::QueueFull);
            assert_eq!(r.retry_after_ms, 0);
        }
        Response::Ok(_) => panic!("overflowing batch must be refused"),
    }
    // A fitting batch sails through on the same stream afterwards.
    client
        .submit(0, dim, rows_of(8))
        .unwrap()
        .expect_ok("fitting batch");
    // Submitting to a stream that was never opened is refused.
    match client.submit(9, dim, rows_of(1)).unwrap() {
        Response::Rejected(r) => assert_eq!(r.code, RejectCode::UnknownStream),
        Response::Ok(_) => panic!("unknown stream must be refused"),
    }
    drop(client);
    handle.join().unwrap();
}

#[test]
fn fleet_drive_fails_on_a_batch_the_server_can_never_take() {
    let t = trained();
    let rows: Vec<Vec<f32>> = (0..t.features.rows())
        .map(|r| t.features.row(r).to_vec())
        .collect();
    let cfg = ServeConfig {
        max_queue_frames: 8,
        ..ServeConfig::default()
    };
    let (addr, handle) = spawn_server(cfg, Box::new(|_| predictor()), 1);
    let spec = FleetSpec {
        streams: 1,
        sessions: 1,
        window: 1,
        batch: 16,
        rounds: 1,
        ..FleetSpec::default()
    };
    // The drive runs on a thread of its own so that a driver resending
    // the refused batch forever fails this test instead of hanging it.
    let (done, outcome) = std::sync::mpsc::channel();
    let driver = std::thread::spawn(move || {
        let _ = done.send(fleet::drive(&addr.to_string(), &rows, &spec));
    });
    let outcome = outcome
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the drive must give up on a permanent rejection");
    driver.join().unwrap();
    let err = outcome.expect_err("a 16-frame batch cannot pass an 8-frame bound");
    assert!(err.to_string().contains("queue_full"), "{err}");
    handle.join().unwrap();
}

#[test]
fn mid_session_disconnect_leaves_lanes_reusable() {
    let t = trained();
    let dim = t.features.cols() as u32;
    let cfg = ServeConfig {
        max_streams: 1,
        ..ServeConfig::default()
    };
    // Two sequential sessions on a 1-worker pool: the second accept only
    // happens after the first session's cleanup ran.
    let (addr, handle) = spawn_server(cfg, Box::new(|_| predictor()), 2);

    // Session A claims the only slot, feeds some frames, then vanishes
    // without closing the stream.
    {
        let mut a = ServeClient::connect(addr).expect("connect A");
        a.open_stream(0).unwrap().expect_ok("A open");
        let mut data = Vec::new();
        for r in 0..10 {
            data.extend_from_slice(t.features.row(r));
        }
        a.submit(0, dim, data).unwrap().expect_ok("A submit");
    } // dropped: TCP FIN mid-session

    // Session B must get the slot back.
    let mut b = ServeClient::connect(addr).expect("connect B");
    b.open_stream(0).unwrap().expect_ok("B open after A died");
    let health = b.health().expect("health");
    assert_eq!(health.active_streams, 1, "only B's stream may be open");
    assert_eq!(health.sessions, 2);
    drop(b);
    handle.join().unwrap();
}

#[test]
fn version_mismatch_and_premature_requests_are_rejected() {
    // Two raw sessions: one with a wrong major version, one skipping the
    // handshake entirely.
    let (addr, handle) = spawn_server(ServeConfig::default(), Box::new(|_| predictor()), 2);

    let sock = TcpStream::connect(addr).expect("connect");
    let mut chan = &sock;
    write_message(
        &mut chan,
        &Message::Hello {
            major: PROTOCOL_MAJOR + 1,
            minor: 0,
        },
    )
    .unwrap();
    match read_message(&mut chan).unwrap() {
        Some(Message::Rejected {
            code,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(code, RejectCode::VersionUnsupported);
            assert_eq!(retry_after_ms, 0);
        }
        other => panic!("expected version rejection, got {other:?}"),
    }
    assert_eq!(read_message(&mut chan).unwrap(), None, "server hangs up");
    drop(sock);

    let sock = TcpStream::connect(addr).expect("connect");
    let mut chan = &sock;
    write_message(&mut chan, &Message::Health).unwrap();
    match read_message(&mut chan).unwrap() {
        Some(Message::Rejected { code, .. }) => assert_eq!(code, RejectCode::NotReady),
        other => panic!("expected NotReady, got {other:?}"),
    }
    drop(sock);
    handle.join().unwrap();
}

#[test]
fn resume_on_a_plain_server_is_unknown_stream_and_not_fatal() {
    let (addr, handle) = spawn_server(ServeConfig::default(), Box::new(|_| predictor()), 1);
    let mut client = ServeClient::connect(addr).expect("connect");
    // No session log, so no durable state for any id (docs/PROTOCOL.md):
    // a non-fatal UnknownStream, not the catch-all's fatal Malformed.
    match client.resume_stream(3, 0).unwrap() {
        Response::Rejected(r) => assert_eq!(r.code, RejectCode::UnknownStream),
        Response::Ok(_) => panic!("a plain server has nothing to resume"),
    }
    client
        .open_stream(3)
        .unwrap()
        .expect_ok("the session survives the rejected Resume");
    drop(client);
    handle.join().unwrap();
}

#[test]
fn an_invalid_resilience_spec_fails_at_bind() {
    use eventhit::core::faults::FaultConfig;
    use eventhit::core::resilient::ResilienceConfig;
    use eventhit::serve::ResilienceSpec;

    let cfg = ServeConfig {
        resilience: Some(ResilienceSpec {
            faults: FaultConfig {
                transient_prob: 1.5,
                ..FaultConfig::reliable()
            },
            resilience: ResilienceConfig::default(),
            ci_fps: 100.0,
            stream_fps: 30.0,
            seed: 7,
        }),
        ..ServeConfig::default()
    };
    let err = match Server::bind(cfg, Box::new(|_| predictor())) {
        Err(err) => err,
        Ok(_) => panic!("an out-of-range fault probability must not bind"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("transient_prob"), "{err}");
}

#[test]
fn degradation_tags_propagate_to_clients_over_the_wire() {
    use eventhit::core::faults::FaultConfig;
    use eventhit::core::resilient::{DegradationTag, ResilienceConfig};
    use eventhit::serve::ResilienceSpec;

    let t = trained();
    let dim = t.features.cols() as u32;
    // A dead CI channel: every submission fails, so early decisions come
    // back Dropped (dead-lettered) and, once the breaker trips, LocalOnly.
    let cfg = ServeConfig {
        resilience: Some(ResilienceSpec {
            faults: FaultConfig {
                p_good_to_bad: 1.0,
                p_bad_to_good: 0.0,
                bad_loss: 1.0,
                ..FaultConfig::reliable()
            },
            resilience: ResilienceConfig::default(),
            ci_fps: 100.0,
            stream_fps: 30.0,
            seed: 7,
        }),
        ..ServeConfig::default()
    };
    // A strategy that always relays guarantees every decision submits.
    let factory = Box::new(|_| {
        let t = trained();
        OnlinePredictor::new(
            t.model.clone(),
            t.state.clone(),
            Strategy::Eho { tau1: 0.0 },
        )
    });
    let (addr, handle) = spawn_server(cfg, factory, 1);
    let mut client = ServeClient::connect(addr).expect("connect");
    client.open_stream(0).unwrap().expect_ok("open");

    let mut tags = Vec::new();
    let rows = t.features.rows().min(4000);
    let mut at = 0;
    while at < rows {
        let hi = (at + 500).min(rows);
        let mut data = Vec::with_capacity((hi - at) * dim as usize);
        for r in at..hi {
            data.extend_from_slice(t.features.row(r));
        }
        let decisions = client.submit(0, dim, data).unwrap().expect_ok("submit");
        tags.extend(decisions.iter().map(|d| decision_from_wire(d).degradation));
        at = hi;
    }
    drop(client);
    handle.join().unwrap();

    assert!(!tags.is_empty(), "no decisions produced");
    assert!(
        tags.iter().all(|&tag| tag != DegradationTag::None),
        "a dead CI channel must degrade every relaying decision: {tags:?}"
    );
    assert!(
        tags.contains(&DegradationTag::LocalOnly),
        "the open breaker must force local-only decisions: {tags:?}"
    );
}

#[test]
fn health_and_telemetry_travel_the_wire() {
    use eventhit::telemetry::Telemetry;
    use std::sync::Arc;

    let t = trained();
    let dim = t.features.cols() as u32;
    let telemetry = Arc::new(Telemetry::new());
    let server = Server::bind_with_telemetry(
        ServeConfig::default(),
        Box::new(|_| predictor()),
        Arc::clone(&telemetry),
    )
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve_sessions(1, &Pool::new(1)));

    let mut client = ServeClient::connect(addr).expect("connect");
    client.open_stream(0).unwrap().expect_ok("open");
    let mut data = Vec::new();
    for r in 0..200 {
        data.extend_from_slice(t.features.row(r));
    }
    client.submit(0, dim, data).unwrap().expect_ok("submit");

    let health = client.health().expect("health");
    assert_eq!(health.active_streams, 1);
    assert_eq!(health.sessions, 1);
    assert_eq!(health.frames, 200);

    let jsonl = client.telemetry_jsonl().expect("telemetry");
    assert!(jsonl.contains("serve.frames"), "snapshot: {jsonl}");
    assert!(jsonl.contains("serve.streams_opened"), "snapshot: {jsonl}");
    drop(client);
    handle.join().unwrap();

    // The server-side recorder agrees with what was served.
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("serve.frames"), Some(200));
    assert_eq!(snap.counter("serve.sessions"), Some(1));
    assert_eq!(snap.counter("serve.streams_opened"), Some(1));
    assert_eq!(snap.counter_labeled("serve.rejected", "queue_full"), None);
    // Even a single-shard server scopes its metrics: shard 0 carries the
    // whole load, and the cross-shard aggregate gauge (what `eventhit-cli
    // top` and the Health endpoint report) agrees with it.
    assert_eq!(snap.counter("serve.shard0.frames"), Some(200));
    assert_eq!(snap.counter("serve.shard0.streams_opened"), Some(1));
    let aggregate = snap.gauge("serve.active_streams").expect("aggregate gauge");
    let shard0 = snap
        .gauge("serve.shard0.active_streams")
        .expect("shard gauge");
    assert_eq!((aggregate.last, aggregate.max), (0.0, 1.0));
    assert_eq!((shard0.last, shard0.max), (0.0, 1.0));
}

#[test]
fn sharded_telemetry_scopes_per_shard_and_keeps_the_aggregate() {
    use eventhit::serve::ShardRouter;
    use eventhit::telemetry::Telemetry;
    use std::sync::Arc;

    let t = trained();
    let dim = t.features.cols() as u32;
    let shards = 4u32;
    let telemetry = Arc::new(Telemetry::new());
    let server = Server::bind_with_telemetry(
        ServeConfig {
            shards,
            ..ServeConfig::default()
        },
        Box::new(|_| predictor()),
        Arc::clone(&telemetry),
    )
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve_sessions(1, &Pool::new(1)));

    // One stream per shard, so every shard's scope sees traffic.
    let router = ShardRouter::new(shards);
    let streams: Vec<u32> = (0..shards)
        .map(|i| (0..64).find(|s| router.route(*s) == i).expect("owned id"))
        .collect();
    let mut client = ServeClient::connect(addr).expect("connect");
    for &s in &streams {
        client.open_stream(s).unwrap().expect_ok("open");
    }
    let mut data = Vec::new();
    for r in 0..100 {
        data.extend_from_slice(t.features.row(r));
    }
    for &s in &streams {
        client
            .submit(s, dim, data.clone())
            .unwrap()
            .expect_ok("submit");
    }
    let health = client.health().expect("health");
    assert_eq!(
        health.active_streams, shards,
        "the Health aggregate must span all shards"
    );
    assert_eq!(health.frames, 100 * shards as u64);
    drop(client);
    handle.join().unwrap();

    let snap = telemetry.snapshot();
    // Per-shard scopes each saw exactly their own stream...
    for i in 0..shards {
        let scope = |m: &str| format!("serve.shard{i}.{m}");
        assert_eq!(snap.counter(&scope("streams_opened")), Some(1), "shard {i}");
        assert_eq!(snap.counter(&scope("frames")), Some(100), "shard {i}");
        let g = snap.gauge(&scope("active_streams")).expect("shard gauge");
        assert_eq!((g.last, g.max), (0.0, 1.0), "shard {i} gauge");
    }
    // ...and the cross-shard aggregates are their sums, so `top` and
    // existing dashboards keep reading the same global names.
    assert_eq!(snap.counter("serve.streams_opened"), Some(shards as u64));
    assert_eq!(snap.counter("serve.frames"), Some(100 * shards as u64));
    let aggregate = snap.gauge("serve.active_streams").expect("aggregate gauge");
    assert_eq!(
        (aggregate.last, aggregate.max),
        (0.0, shards as f64),
        "aggregate gauge must peak at one active stream per shard"
    );
}
