//! Kill-and-recover soak tests for durable serving: a server is killed at
//! a fault-injector-chosen point mid-serve, restarted over the same
//! durable directory, and clients reconnect with `Resume` — the combined
//! decision stream must be bit-identical to an uninterrupted in-process
//! `run_lanes` pass, at 1 and 4 workers. Plus model hot-reload across a
//! crash, an injected log-sync failure (the shard must stop without ever
//! acknowledging the failed commit), durable-specific admission rules,
//! and the client's typed `Disconnected` error.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::faults::{FaultConfig, FaultInjector};
use eventhit::core::model::EventHit;
use eventhit::core::multi::{run_lanes, LaneDecision, StreamLane};
use eventhit::core::pipeline::{ConformalState, Strategy};
use eventhit::core::streaming::OnlinePredictor;
use eventhit::core::tasks::task;
use eventhit::core::InferenceLane;
use eventhit::nn::matrix::Matrix;
use eventhit::parallel::{with_workers, Pool};
use eventhit::serve::convert::decision_from_wire;
use eventhit::serve::protocol::{read_message, write_message, Message, RejectCode};
use eventhit::serve::{
    is_disconnected, DurableOptions, Response, ServeClient, ServeConfig, Server,
};

/// Primary model plus a second, independently trained model for the
/// hot-reload test (same task and scale, different seed — identical
/// shapes, different weights).
struct Trained {
    model: EventHit,
    state: ConformalState,
    reload_model: EventHit,
    reload_state: ConformalState,
    features: Matrix,
}

fn trained() -> &'static Trained {
    static RUN: OnceLock<Trained> = OnceLock::new();
    RUN.get_or_init(|| {
        let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(77));
        let alt = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(78));
        // The replacement state must be refitted for the replacement
        // weights against *this* run's calibration split.
        let reload_state = run.state_for_model(&alt.model, InferenceLane::Exact);
        Trained {
            model: run.model,
            state: run.state,
            reload_model: alt.model,
            reload_state,
            features: run.features,
        }
    })
}

const STRATEGY: Strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };

fn predictor() -> OnlinePredictor {
    let t = trained();
    OnlinePredictor::new(t.model.clone(), t.state.clone(), STRATEGY)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("evdur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_cfg(dir: &PathBuf, snapshot_every: u64) -> ServeConfig {
    let mut opts = DurableOptions::new(dir);
    opts.snapshot_every = snapshot_every;
    ServeConfig {
        durable: Some(opts),
        ..ServeConfig::default()
    }
}

/// Binds a durable server on a free port and serves exactly `sessions`
/// sessions on a `workers`-wide pool.
fn spawn_server(cfg: ServeConfig, sessions: usize, workers: usize) -> (SocketAddr, JoinHandle<()>) {
    let server = Server::bind(cfg, Box::new(|_| predictor())).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        server.serve_sessions(sessions, &Pool::new(workers));
    });
    (addr, handle)
}

/// Submits `features[at..hi]` on `stream`, appending the returned
/// decisions, and returns the new cursor.
fn feed(
    client: &mut ServeClient,
    stream: u32,
    features: &Matrix,
    at: usize,
    hi: usize,
    out: &mut Vec<LaneDecision>,
) {
    let dim = features.cols() as u32;
    let mut data = Vec::with_capacity((hi - at) * dim as usize);
    for r in at..hi {
        data.extend_from_slice(features.row(r));
    }
    let decisions = client
        .submit(stream, dim, data)
        .expect("submit I/O")
        .expect_ok("submit");
    out.extend(decisions.iter().map(|d| LaneDecision {
        stream_id: stream as usize,
        decision: decision_from_wire(d),
    }));
}

/// The tentpole scenario at one worker count: serve, kill at a
/// fault-injector-chosen batch, restart over the same directory, resume,
/// finish — then demand bit-identity with the uninterrupted baseline.
fn kill_and_recover_scenario(workers: usize) {
    let t = trained();
    let rows = t.features.rows();
    let froms = [0usize, 11];
    let batch = 97; // deliberately unaligned with window/horizon

    // Uninterrupted in-process baseline at this worker count.
    let lanes: Vec<StreamLane> = froms
        .iter()
        .enumerate()
        .map(|(i, &from)| StreamLane {
            stream_id: i,
            predictor: predictor(),
            features: t.features.clone(),
            from,
        })
        .collect();
    let baseline = with_workers(workers, || run_lanes(lanes, &Pool::current()));
    assert!(!baseline.is_empty(), "baseline produced no decisions");

    // The kill point: the round of the fault injector's first fault on a
    // lossy channel, clamped to fall strictly mid-serve. Deterministic
    // per (seed), different per worker count so the two scenarios kill
    // at different places.
    let rounds = rows.div_ceil(batch);
    let mut injector = FaultInjector::new(FaultConfig::lossy(), 9000 + workers as u64);
    let mut kill_round = rounds / 2;
    for i in 0..rounds {
        if !injector.attempt(0.01).is_success() {
            kill_round = i;
            break;
        }
    }
    let kill_round = kill_round.clamp(1, rounds - 1);

    let dir = fresh_dir(&format!("soak{workers}"));
    // A small snapshot cadence so recovery exercises snapshot + log tail,
    // not just a full-log replay.
    let cfg = durable_cfg(&dir, 24);

    // Phase A: serve until the kill round, then vanish without closing.
    let mut served: Vec<LaneDecision> = Vec::new();
    let mut cursors = froms;
    let mut acked = [0u64; 2];
    let (addr, handle) = spawn_server(cfg.clone(), 1, workers);
    {
        let mut client = ServeClient::connect(addr).expect("connect A");
        for s in 0..froms.len() as u32 {
            client.open_stream(s).unwrap().expect_ok("open");
        }
        for _round in 0..kill_round {
            for (i, cursor) in cursors.iter_mut().enumerate() {
                if *cursor >= rows {
                    continue;
                }
                let hi = (*cursor + batch).min(rows);
                feed(&mut client, i as u32, &t.features, *cursor, hi, &mut served);
                acked[i] += (hi - *cursor) as u64;
                *cursor = hi;
            }
        }
    } // dropped: abrupt TCP FIN, streams left open — the "kill"
    handle.join().expect("server A thread");

    // Phase B: a new server over the same directory must recover the
    // lanes from disk; the client resumes and finishes the streams.
    let (addr, handle) = spawn_server(cfg, 1, workers);
    let mut client = ServeClient::connect(addr).expect("connect B");
    for (i, &last) in acked.iter().enumerate() {
        let next = client
            .resume_stream(i as u32, last)
            .expect("resume I/O")
            .expect_ok("resume");
        assert_eq!(
            next, last,
            "stream {i}: every batch was acked, so next_seq must equal \
             the client's count"
        );
    }
    loop {
        let mut progressed = false;
        for (i, cursor) in cursors.iter_mut().enumerate() {
            if *cursor >= rows {
                continue;
            }
            progressed = true;
            let hi = (*cursor + batch).min(rows);
            feed(&mut client, i as u32, &t.features, *cursor, hi, &mut served);
            *cursor = hi;
        }
        if !progressed {
            break;
        }
    }
    for (i, &from) in froms.iter().enumerate() {
        let summary = client
            .close_stream(i as u32)
            .unwrap()
            .expect_ok("close_stream");
        assert_eq!(
            summary.frames,
            (rows - from) as u64,
            "stream {i}: lifetime frame count must span both servers"
        );
    }
    drop(client);
    handle.join().expect("server B thread");

    served.sort_by_key(|d| (d.decision.anchor, d.stream_id));
    assert_eq!(
        served, baseline,
        "decisions across the kill must be bit-identical to the \
         uninterrupted baseline at {workers} workers"
    );
}

#[test]
fn kill_and_recover_soak_bit_identical_at_1_worker() {
    kill_and_recover_scenario(1);
}

#[test]
fn kill_and_recover_soak_bit_identical_at_4_workers() {
    kill_and_recover_scenario(4);
}

#[test]
fn hot_reload_mid_serve_survives_kill_and_recover() {
    let t = trained();
    let rows = t.features.rows().min(2000);
    let batch = 64;
    let reload_at = batch * 8; // on a batch boundary, mid-stream
    let kill_at = batch * 12; // after the reload, before the end
    assert!(kill_at < rows);

    // In-process reference: same feed, same mid-stream swap, no crash.
    let mut reference = Vec::new();
    let mut p = predictor();
    for r in 0..rows {
        if r == reload_at {
            p.reload_model(t.reload_model.clone(), t.reload_state.clone())
                .expect("reference reload");
        }
        if let Some(d) = p.push_frame(t.features.row(r)) {
            reference.push(d);
        }
    }
    assert!(
        reference.iter().any(|d| d.anchor >= reload_at as u64),
        "reference must decide after the reload point"
    );

    let dir = fresh_dir("reload");
    let cfg = durable_cfg(&dir, 16);

    // Phase A: feed to the reload point, hot-swap the model through the
    // server handle, feed a little more, then vanish.
    let mut served = Vec::new();
    let server = Arc::new(Server::bind(cfg.clone(), Box::new(|_| predictor())).expect("bind"));
    let addr = server.local_addr().unwrap();
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_sessions(1, &Pool::new(1)))
    };
    {
        let mut client = ServeClient::connect(addr).expect("connect A");
        client.open_stream(0).unwrap().expect_ok("open");
        let mut at = 0;
        while at < reload_at {
            feed(&mut client, 0, &t.features, at, at + batch, &mut served);
            at += batch;
        }
        // Every pre-reload batch is acked, so the swap lands exactly at
        // `reload_at` in the lane's frame order.
        server
            .reload_model(t.reload_model.clone(), t.reload_state.clone())
            .expect("server reload");
        while at < kill_at {
            feed(&mut client, 0, &t.features, at, at + batch, &mut served);
            at += batch;
        }
    } // kill
    handle.join().expect("server A thread");
    drop(server);

    // Phase B: recovery must replay through the journaled reload (loading
    // the persisted weights/state pair from the durable directory).
    let server = Server::bind(cfg, Box::new(|_| predictor())).expect("rebind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve_sessions(1, &Pool::new(1)));
    let mut client = ServeClient::connect(addr).expect("connect B");
    let next = client
        .resume_stream(0, kill_at as u64)
        .unwrap()
        .expect_ok("resume");
    assert_eq!(next as usize, kill_at);
    let mut at = kill_at;
    while at < rows {
        let hi = (at + batch).min(rows);
        feed(&mut client, 0, &t.features, at, hi, &mut served);
        at = hi;
    }
    client.close_stream(0).unwrap().expect_ok("close");
    drop(client);
    handle.join().expect("server B thread");

    let served: Vec<_> = served.into_iter().map(|d| d.decision).collect();
    assert_eq!(
        served, reference,
        "post-crash decisions must match the uninterrupted hot-reload \
         reference bit for bit"
    );
}

/// Snapshot files in `dir`, as the event counts their names carry.
fn snapshot_event_counts(dir: &PathBuf) -> Vec<u64> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|entry| {
            let name = entry.unwrap().file_name().into_string().unwrap();
            let events = name.strip_prefix("snap-")?.strip_suffix(".evsn")?;
            Some(
                events
                    .parse()
                    .expect("snapshot name carries its event count"),
            )
        })
        .collect()
}

/// A log sync fails mid-serve. The commit rule under test: the client
/// whose commit failed is disconnected and never sees a reply; the
/// failure is sticky for every session of the shard; no snapshot claims
/// more than the last good sync; and a new server over the directory
/// resumes at or past everything that was ever acknowledged, deciding
/// bit-identically to an uninterrupted `run_lanes` pass from there.
///
/// `snapshot_every == 1` puts the failing sync inside the snapshot
/// barrier (under the hub mutex), `0` in the session's own wait after it
/// left the mutex. With more than one worker a second session is
/// attached to the shard while the sync fails; with one it connects after.
fn sync_fault_scenario(workers: usize, snapshot_every: u64) {
    let t = trained();
    let rows = t.features.rows().min(1500);
    let batch = 97;
    let fault_round = 4;
    let dim = t.features.cols() as u32;
    let concurrent = workers > 1;

    let lanes: Vec<StreamLane> = (0..2)
        .map(|i| StreamLane {
            stream_id: i,
            predictor: predictor(),
            features: t.features.clone(),
            from: 0,
        })
        .collect();
    let baseline: Vec<LaneDecision> = with_workers(workers, || run_lanes(lanes, &Pool::current()))
        .into_iter()
        .filter(|d| d.decision.anchor < rows as u64)
        .collect();

    let dir = fresh_dir(&format!("syncfault{workers}-{snapshot_every}"));
    let cfg = durable_cfg(&dir, snapshot_every);
    let server = Arc::new(Server::bind(cfg.clone(), Box::new(|_| predictor())).expect("bind"));
    let addr = server.local_addr().unwrap();
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_sessions(2, &Pool::new(workers)))
    };

    // Phase A: both streams served and acknowledged up to the fault.
    let mut served: Vec<LaneDecision> = Vec::new();
    let mut acked = [0usize; 2];
    // Log events behind those acknowledgements: one per open, one per
    // batch, one per decision — the sequence the last good sync covered.
    let mut acked_events = 0u64;
    let mut victim = ServeClient::connect(addr).expect("connect victim");
    victim.open_stream(0).unwrap().expect_ok("open 0");
    acked_events += 1;
    let mut bystander = concurrent.then(|| {
        let mut c = ServeClient::connect(addr).expect("connect bystander");
        c.open_stream(1).unwrap().expect_ok("open 1");
        c
    });
    acked_events += bystander.is_some() as u64;
    for _ in 0..fault_round {
        let clients = std::iter::once(&mut victim).chain(bystander.as_mut());
        for (i, client) in clients.enumerate() {
            let before = served.len();
            feed(
                client,
                i as u32,
                &t.features,
                acked[i],
                acked[i] + batch,
                &mut served,
            );
            acked[i] += batch;
            acked_events += 1 + (served.len() - before) as u64;
        }
    }

    // The next sync on the shard fails.
    server.fail_durable_sync_at(0, 1).unwrap();
    let row_data = |at: usize| {
        let mut data = Vec::new();
        for r in at..at + batch {
            data.extend_from_slice(t.features.row(r));
        }
        data
    };
    let err = victim
        .submit(0, dim, row_data(acked[0]))
        .expect_err("a failed commit must never be acknowledged");
    assert!(
        is_disconnected(&err),
        "victim must read a disconnect, got {err:?}"
    );
    drop(victim);

    // Sticky: the shard's other session fails on its next state change.
    let err = match bystander.take() {
        Some(mut c) => c.submit(1, dim, row_data(acked[1])).map(|_| ()),
        None => {
            let mut c = ServeClient::connect(addr).expect("connect after the fault");
            // Neither a fresh stream nor the parked one (whose memory is
            // ahead of the disk) can be had from this server any more.
            c.resume_stream(0, acked[0] as u64).map(|_| ())
        }
    }
    .expect_err("a stopped shard must not acknowledge anything");
    assert!(
        is_disconnected(&err),
        "bystander must read a disconnect, got {err:?}"
    );
    handle.join().expect("server thread");
    drop(server);

    let newest = snapshot_event_counts(&dir).into_iter().max();
    assert!(
        newest.unwrap_or(0) <= acked_events,
        "snapshot at {newest:?} events, but the last good sync covered {acked_events}"
    );
    if snapshot_every == 1 {
        assert_eq!(
            newest,
            Some(acked_events),
            "the last acked batch did snapshot"
        );
    }

    // Phase B: a new process over the same directory.
    let streams = if concurrent { 2 } else { 1 };
    let (addr, handle) = spawn_server(cfg, 1, workers);
    let mut client = ServeClient::connect(addr).expect("connect B");
    let mut resumed = Vec::new();
    for (i, &acked) in acked.iter().enumerate().take(streams) {
        let next = client
            .resume_stream(i as u32, acked as u64)
            .expect("resume I/O")
            .expect_ok("resume") as usize;
        assert!(
            next >= acked,
            "stream {i}: next_seq {next} below acked {acked}"
        );
        // Frames the log kept beyond the last acknowledgement were decided
        // in the dead server's memory; those decisions are the documented
        // at-most-once gap.
        let mut at = next;
        while at < rows {
            let hi = (at + batch).min(rows);
            feed(&mut client, i as u32, &t.features, at, hi, &mut served);
            at = hi;
        }
        client.close_stream(i as u32).unwrap().expect_ok("close");
        resumed.push(next);
    }
    drop(client);
    handle.join().expect("server B thread");

    served.sort_by_key(|d| (d.decision.anchor, d.stream_id));
    let expected: Vec<LaneDecision> = baseline
        .into_iter()
        .filter(|d| {
            d.stream_id < streams
                && !(acked[d.stream_id]..resumed[d.stream_id])
                    .contains(&(d.decision.anchor as usize))
        })
        .collect();
    assert_eq!(
        served, expected,
        "decisions around the failed sync must match run_lanes bit for bit"
    );
}

#[test]
fn an_acknowledged_request_costs_at_most_one_sync() {
    let t = trained();
    let dir = fresh_dir("onesync");
    // Snapshots every other event: some submits meet the flush inside the
    // snapshot barrier, and must not flush again on the way out.
    let cfg = durable_cfg(&dir, 2);
    let telemetry = Arc::new(eventhit::telemetry::Telemetry::new());
    let server =
        Server::bind_with_telemetry(cfg, Box::new(|_| predictor()), Arc::clone(&telemetry))
            .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve_sessions(1, &Pool::new(1)));

    let mut client = ServeClient::connect(addr).expect("connect");
    client.open_stream(0).unwrap().expect_ok("open");
    let mut served = Vec::new();
    let batch = 64;
    let submits = 12;
    for k in 0..submits {
        feed(
            &mut client,
            0,
            &t.features,
            k * batch,
            (k + 1) * batch,
            &mut served,
        );
    }
    client.close_stream(0).unwrap().expect_ok("close");
    drop(client);
    handle.join().expect("server thread");

    assert!(!served.is_empty(), "the run must emit decisions");
    let snap = telemetry.snapshot();
    let requests = 2 + submits as u64; // open + submits + close
    assert_eq!(
        snap.counter("durable.appends"),
        Some(requests + served.len() as u64),
        "one record per open, batch, decision and close"
    );
    let syncs = snap.counter("durable.syncs").expect("syncs are counted");
    assert!(
        syncs <= requests,
        "{syncs} syncs for {requests} acknowledged requests"
    );
}

#[test]
fn sync_fault_is_fail_stop_at_1_worker() {
    sync_fault_scenario(1, 0);
    sync_fault_scenario(1, 1);
}

#[test]
fn sync_fault_is_fail_stop_at_4_workers() {
    sync_fault_scenario(4, 0);
    sync_fault_scenario(4, 1);
}

#[test]
fn durable_admission_rules_open_resume_and_bad_seq() {
    let t = trained();
    let dir = fresh_dir("admission");
    let cfg = durable_cfg(&dir, 0); // snapshots off: log-only recovery

    // Session 1: open a stream, feed a bit, vanish.
    let (addr, handle) = spawn_server(cfg.clone(), 1, 1);
    {
        let mut client = ServeClient::connect(addr).expect("connect");
        client.open_stream(0).unwrap().expect_ok("open");
        let mut out = Vec::new();
        feed(&mut client, 0, &t.features, 0, 50, &mut out);
    }
    handle.join().unwrap();

    // Session 2 on a recovered server: the stream exists durably, so a
    // plain open is refused with a hint to resume; resuming a stream the
    // directory has never seen is UnknownStream; claiming more acked
    // frames than the log holds is a fatal lie.
    // Two pool workers: session 3 below needs the client and the thief
    // connected at the same time.
    let (addr, handle) = spawn_server(cfg, 3, 2);
    let mut client = ServeClient::connect(addr).expect("connect");
    match client.open_stream(0).unwrap() {
        Response::Rejected(r) => {
            assert_eq!(r.code, RejectCode::DuplicateStream);
            assert!(r.detail.contains("Resume"), "detail: {}", r.detail);
        }
        Response::Ok(()) => panic!("re-opening a durable stream must be refused"),
    }
    match client.resume_stream(7, 0).unwrap() {
        Response::Rejected(r) => assert_eq!(r.code, RejectCode::UnknownStream),
        Response::Ok(_) => panic!("resuming an unknown stream must be refused"),
    }
    match client.resume_stream(0, 51).unwrap() {
        Response::Rejected(r) => assert_eq!(r.code, RejectCode::Malformed),
        Response::Ok(_) => panic!("claiming unlogged acks must be refused"),
    }
    drop(client); // the Malformed rejection was fatal: session 2 is over

    // Session 3: an honest resume re-attaches, and a second session
    // cannot steal the attached stream.
    let mut client = ServeClient::connect(addr).expect("connect 3");
    let next = client.resume_stream(0, 50).unwrap().expect_ok("resume");
    assert_eq!(next, 50);
    let mut out = Vec::new();
    feed(&mut client, 0, &t.features, 50, 80, &mut out);
    let mut thief = ServeClient::connect(addr).expect("connect thief");
    match thief.resume_stream(0, 50).unwrap() {
        Response::Rejected(r) => assert_eq!(r.code, RejectCode::DuplicateStream),
        Response::Ok(_) => panic!("an attached stream must not be stealable"),
    }
    let summary = client.close_stream(0).unwrap().expect_ok("close");
    assert_eq!(summary.frames, 80);
    drop(thief);
    drop(client);
    handle.join().unwrap();
}

#[test]
fn unexpected_eof_surfaces_the_typed_disconnected_error() {
    // A raw fake server: handshake, then hang up before replying.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (sock, _) = listener.accept().unwrap();
        let mut chan = &sock;
        let hello = read_message(&mut chan).unwrap();
        assert!(matches!(hello, Some(Message::Hello { .. })));
        write_message(
            &mut chan,
            &Message::HelloAck {
                major: 1,
                minor: 1,
                max_streams: 4,
                max_batch_frames: 512,
                max_queue_frames: 4096,
            },
        )
        .unwrap();
        let _request = read_message(&mut chan).unwrap();
        // dropped: the client's pending read sees EOF
    });

    let mut client = ServeClient::connect(addr).expect("connect");
    let err = client.health().expect_err("the server hung up");
    assert!(
        is_disconnected(&err),
        "EOF mid-call must surface the typed Disconnected error, got {err:?}"
    );
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);
    assert!(err.to_string().contains("disconnected"), "err: {err}");
    fake.join().unwrap();
}
