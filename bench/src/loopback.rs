//! The closed-loop serving workloads (`steady`, `durable`): client
//! threads in this process drive an in-process [`Server`] over real
//! loopback sockets, each sending its next submit only when the previous
//! reply has arrived. Also the pieces the open-loop workload shares:
//! binding and serving, the per-stream decision log, and the oracle.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use eventhit_core::multi::{run_lanes, LaneDecision};
use eventhit_parallel::Pool;
use eventhit_serve::convert::decision_from_wire;
use eventhit_serve::protocol::WireDecision;
use eventhit_serve::{DurableOptions, MetricsInfo, Response, ServeClient, ServeConfig, Server};
use eventhit_telemetry::Telemetry;

use crate::calib;
use crate::fixture::{Fixture, StreamIds};
use crate::host;
use crate::json::Json;
use crate::pace::{Clock, WallClock};
use crate::report::{Phase, Plan, RunReport};
use crate::span::SpanLog;
use crate::spec::SERVER_STAGES;
use crate::stats::{self, Sample};

/// Snapshot cadence of the durable workload, in log events.
pub const SNAPSHOT_EVERY: u64 = 256;
/// Frames submitted to every resumed stream after the durable re-bind:
/// more than one horizon, so each resumed lane decides at least once.
pub const RESUME_FRAMES: usize = 256;
/// Lanes the oracle scores per `run_lanes` call.
const ORACLE_GROUP: usize = 8;

/// Shape of one closed-loop workload.
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    /// Streams each connection keeps open at once.
    pub open_per_conn: usize,
    /// Frames per submit.
    pub batch: usize,
    /// Frames a stream is fed before it is closed and the next opened.
    pub frames_per_stream: usize,
    /// Journal sessions under this directory and finish with a re-bind.
    pub durable_dir: Option<PathBuf>,
}

/// Connections (and client threads) a loopback workload uses: two, but
/// never more than the host has cores.
pub fn connections() -> usize {
    host::nproc().min(2)
}

/// Where the benchmark writes: `bench/out` of the tree it was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Binds the workload's server (durable recovery included) without
/// serving yet — the last step of set-up. `telemetry` live means the
/// traced run; `None` binds with the recorder disabled.
pub fn bind(
    fix: &Fixture,
    max_streams: u32,
    durable_dir: Option<&Path>,
    telemetry: Option<Arc<Telemetry>>,
) -> io::Result<Server> {
    let (model, state, strategy, lane) =
        (fix.model.clone(), fix.state.clone(), fix.strategy, fix.lane);
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 1,
        max_streams,
        durable: durable_dir.map(|dir| DurableOptions {
            dir: dir.to_path_buf(),
            snapshot_every: SNAPSHOT_EVERY,
        }),
        ..ServeConfig::default()
    };
    Server::bind_with_telemetry(
        cfg,
        Box::new(move |_stream| {
            eventhit_core::streaming::OnlinePredictor::with_lane(
                model.clone(),
                state.clone(),
                strategy,
                lane,
            )
        }),
        telemetry.unwrap_or_else(|| Arc::new(Telemetry::disabled())),
    )
}

/// A bound server serving `sessions` sessions on its own thread, one
/// pool worker per session.
pub struct Serving {
    /// Address clients connect to.
    pub addr: SocketAddr,
    thread: JoinHandle<()>,
}

impl Serving {
    /// Starts serving; the thread ends (and drops the server) once every
    /// session has disconnected.
    pub fn start(server: Server, sessions: usize) -> io::Result<Serving> {
        let addr = server.local_addr()?;
        let thread = std::thread::spawn(move || {
            server.serve_sessions(sessions, &Pool::new(sessions));
        });
        Ok(Serving { addr, thread })
    }

    /// Waits for the last session to end and the server to drop.
    pub fn finish(self) -> Result<(), String> {
        self.thread
            .join()
            .map_err(|_| "the server thread panicked".to_string())
    }
}

/// Everything served on one stream, for the oracle.
#[derive(Debug, Clone)]
pub struct StreamLog {
    /// Generated stream id.
    pub id: u32,
    /// Frames the server acknowledged.
    pub frames: usize,
    /// Every decision it returned, in arrival order.
    pub decisions: Vec<WireDecision>,
    /// Whether the stream was closed (durable streams left open at the
    /// end of the run are resumed after the re-bind).
    pub closed: bool,
}

/// Compares every served decision with `run_lanes` over the identical
/// rows, in `(anchor, stream)` order. Returns the number of decisions
/// checked, or the first divergence.
pub fn verify(fix: &Fixture, streams: &[StreamLog]) -> Result<u64, String> {
    let pool = Pool::new(host::nproc());
    let mut checked = 0;
    for group in streams.chunks(ORACLE_GROUP) {
        let lanes = group.iter().map(|s| fix.lane_of(s.id, s.frames)).collect();
        let baseline = run_lanes(lanes, &pool);
        let mut served: Vec<LaneDecision> = group
            .iter()
            .flat_map(|s| {
                s.decisions.iter().map(|d| LaneDecision {
                    stream_id: s.id as usize,
                    decision: decision_from_wire(d),
                })
            })
            .collect();
        served.sort_by_key(|d| (d.decision.anchor, d.stream_id));
        if served != baseline {
            let at = served
                .iter()
                .zip(&baseline)
                .position(|(a, b)| a != b)
                .unwrap_or(served.len().min(baseline.len()));
            return Err(format!(
                "served decisions diverge from run_lanes: {} served, {} expected, first difference at \
                 position {at} of the group starting with stream {}",
                served.len(),
                baseline.len(),
                group[0].id
            ));
        }
        checked += baseline.len() as u64;
    }
    Ok(checked)
}

/// Unwraps a reply the workload is built never to have rejected.
pub fn accepted<T>(what: &str, reply: io::Result<Response<T>>) -> Result<T, String> {
    match reply {
        Ok(Response::Ok(v)) => Ok(v),
        Ok(Response::Rejected(r)) => Err(format!("{what} rejected: {r}")),
        Err(e) => Err(format!("{what} failed: {e}")),
    }
}

/// What the server's own metrics plane said at the end of a traced run.
pub struct ServerView {
    /// The reply to `MetricsQuery`.
    pub info: MetricsInfo,
    /// How long the query took, milliseconds.
    pub query_ms: f64,
}

impl ServerView {
    /// Asks the server for its metrics over `client`, timing the query.
    pub fn ask(client: &mut ServeClient, clock: &WallClock) -> Result<ServerView, String> {
        let t = clock.now_ns();
        let info = client.metrics().map_err(|e| format!("metrics: {e}"))?;
        Ok(ServerView {
            info,
            query_ms: (clock.now_ns() - t) as f64 / 1e6,
        })
    }
}

/// What the client threads time about their own calls into `ServeClient`,
/// gathered over all connections.
#[derive(Default)]
pub struct ClientCalls {
    /// One connect (handshake included) per connection, microseconds.
    pub connect_us: Vec<f64>,
    /// Every `open_stream`, microseconds.
    pub open_us: Vec<f64>,
    /// Every `close_stream`, microseconds.
    pub close_us: Vec<f64>,
    /// The server's metrics plane, asked once at the end of a traced run.
    pub server: Option<ServerView>,
}

impl ClientCalls {
    /// Adds another connection's timings.
    pub fn absorb(&mut self, other: ClientCalls) {
        self.connect_us.extend(other.connect_us);
        self.open_us.extend(other.open_us);
        self.close_us.extend(other.close_us);
        self.server = self.server.take().or(other.server);
    }

    /// The `serve.client.*` metrics, and `serve.server.*` / `durable.*`
    /// when the server was asked.
    pub fn layer_metrics(&self, frames: u64) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::from([
            (
                "serve.client.connect.us".to_string(),
                stats::median(&self.connect_us),
            ),
            (
                "serve.client.open_stream.p50_us".to_string(),
                stats::median(&self.open_us),
            ),
            (
                "serve.client.close_stream.p50_us".to_string(),
                stats::median(&self.close_us),
            ),
        ]);
        if let Some(view) = &self.server {
            out.extend(server_layer_metrics(view, frames));
        }
        out
    }
}

/// The detail-line facts every loopback run reports.
pub fn serving_detail(
    conns: usize,
    frames: u64,
    streams: usize,
    checked: u64,
) -> Vec<(String, Json)> {
    vec![
        ("connections".to_string(), Json::Num(conns as f64)),
        ("server_workers".to_string(), Json::Num(conns as f64)),
        ("frames".to_string(), Json::Num(frames as f64)),
        ("streams".to_string(), Json::Num(streams as f64)),
        ("decisions_verified".to_string(), Json::Num(checked as f64)),
    ]
}

/// Reduces a `MetricsReply` to the `serve.server.*` and `durable.*`
/// per-layer metrics. A stage's p50/p99 is the median over its
/// non-empty one-second windows of the window's own p50/p99.
pub fn server_layer_metrics(view: &ServerView, frames: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut io_seconds = 0.0;
    for stage in SERVER_STAGES {
        let series = match stage {
            "decision" => view.info.series_for("serve.decision_seconds", ""),
            _ => view.info.series_for("serve.stage_seconds", stage),
        };
        let windows: Vec<_> = series
            .map(|s| s.windows.iter().filter(|w| w.count > 0).collect())
            .unwrap_or_default();
        let count: u64 = windows.iter().map(|w| w.count).sum();
        let sum: f64 = windows.iter().map(|w| w.sum).sum();
        let p50: Vec<f64> = windows.iter().map(|w| w.p50).collect();
        let p99: Vec<f64> = windows.iter().map(|w| w.p99).collect();
        if matches!(stage, "session_read" | "reply_write") {
            io_seconds += sum;
        }
        out.insert(format!("serve.server.{stage}.count"), count as f64);
        out.insert(format!("serve.server.{stage}.sum_s"), sum);
        out.insert(
            format!("serve.server.{stage}.p50_us"),
            stats::median(&p50) * 1e6,
        );
        out.insert(
            format!("serve.server.{stage}.p99_us"),
            stats::median(&p99) * 1e6,
        );
    }
    let counter = |name: &str| -> f64 {
        view.info
            .counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value as f64)
            .sum()
    };
    let per_frame = |v: f64| if frames > 0 { v / frames as f64 } else { 0.0 };
    out.insert("serve.server.frames".into(), counter("serve.frames"));
    out.insert("serve.server.decisions".into(), counter("serve.decisions"));
    out.insert("serve.server.rejected".into(), counter("serve.rejected"));
    out.insert(
        "serve.server.io_ns_per_frame".into(),
        per_frame(io_seconds * 1e9),
    );
    out.insert(
        "durable.appends_per_frame".into(),
        per_frame(counter("durable.appends")),
    );
    out.insert(
        "durable.log_bytes_per_frame".into(),
        per_frame(counter("durable.append_bytes")),
    );
    out.insert("telemetry.metrics_query.ms".into(), view.query_ms);
    out
}

/// State shared between the sampling main thread and the clients.
pub struct Shared {
    /// Origin of every timestamp of the run.
    pub origin: Instant,
    /// Set by the main thread when the measured time is over.
    pub stop: AtomicBool,
    /// Frames acknowledged so far, all connections.
    pub frames_done: AtomicU64,
    /// Open loop only: the first due time, set once every stream is open.
    pub start_ns: AtomicU64,
}

impl Shared {
    /// Fresh shared state with its origin now.
    pub fn new() -> Shared {
        Shared {
            origin: Instant::now(),
            stop: AtomicBool::new(false),
            frames_done: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
        }
    }
}

/// Sleeps from boundary to boundary (offsets from `start_ns`, the first
/// closing the warm-up), sampling work done and CPU time at each, then
/// reads the peak RSS and raises `stop`. `calibrate` also has it sample
/// the host's speed in between — for the open loop, whose generator
/// threads are on a schedule, and for `durable`, whose clients nap on
/// the disk; the clients of `steady` sample it themselves, on the cores
/// they keep busy. Runs on the main thread, which is otherwise
/// idle while the clients drive.
pub fn sample_run(
    shared: &Shared,
    start_ns: u64,
    boundaries: &[u64],
    calibrate: bool,
    report: &mut RunReport,
) {
    let clock = WallClock::from_origin(shared.origin);
    for &at in boundaries {
        let boundary = start_ns + at;
        // Until the boundary, when asked to: the host-speed kernel every
        // few milliseconds (about 1% of one core), asleep otherwise.
        if calibrate {
            loop {
                let next = clock.now_ns() + calib::PERIOD_NS;
                if next >= boundary {
                    break;
                }
                clock.sleep_until(next);
                report.calib.push((clock.now_ns(), calib::kernel()));
            }
        }
        clock.sleep_until(boundary);
        report.samples.push(Sample {
            at_ns: clock.now_ns(),
            frames: shared.frames_done.load(Ordering::SeqCst),
            cpu_ns: host::process_cpu_ns(),
        });
    }
    report.peak_rss_mb = host::peak_rss_mib();
    shared.stop.store(true, Ordering::SeqCst);
}

/// What one closed-loop client thread brings home.
struct ClientOutcome {
    streams: Vec<StreamLog>,
    /// `(start_ns, latency_ns)` of every submit.
    ops: Vec<(u64, u64)>,
    /// `(at_ns, duration_ns)` of every host-speed kernel run.
    calib: Vec<(u64, f64)>,
    spans: SpanLog,
    calls: ClientCalls,
}

/// One stream a client currently drives.
struct OpenStream {
    log: StreamLog,
    seq: u64,
}

#[allow(clippy::too_many_arguments)] // one call site; the arguments are the thread's whole world
fn drive_connection(
    fix: &Fixture,
    ids: StreamIds,
    shape: &ClosedLoop,
    addr: SocketAddr,
    conn: usize,
    conns: usize,
    traced: bool,
    shared: &Shared,
) -> Result<ClientOutcome, String> {
    let clock = WallClock::from_origin(shared.origin);
    let dim = fix.dim as u32;
    let t0 = clock.now_ns();
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut out = ClientOutcome {
        streams: Vec::new(),
        ops: Vec::with_capacity(1 << 18),
        calib: Vec::new(),
        spans: SpanLog::default(),
        calls: ClientCalls {
            connect_us: vec![(clock.now_ns() - t0) as f64 / 1e3],
            ..ClientCalls::default()
        },
    };
    // Connection `conn` owns the run's streams conn, conn + conns, …
    let mut next_stream = conn as u32;
    let mut open_one =
        |client: &mut ServeClient, out: &mut ClientOutcome| -> Result<OpenStream, String> {
            let id = ids.id(next_stream);
            next_stream += conns as u32;
            let t = clock.now_ns();
            accepted("open_stream", client.open_stream(id))?;
            out.calls.open_us.push((clock.now_ns() - t) as f64 / 1e3);
            Ok(OpenStream {
                log: StreamLog {
                    id,
                    frames: 0,
                    decisions: Vec::new(),
                    closed: false,
                },
                seq: 0,
            })
        };
    let close_one = |client: &mut ServeClient,
                     out: &mut ClientOutcome,
                     mut s: OpenStream|
     -> Result<(), String> {
        let t = clock.now_ns();
        let summary = accepted("close_stream", client.close_stream(s.log.id))?;
        out.calls.close_us.push((clock.now_ns() - t) as f64 / 1e3);
        if summary.frames != s.log.frames as u64
            || summary.decisions != s.log.decisions.len() as u64
        {
            return Err(format!(
                "stream {}: server counted {} frames / {} decisions, client {} / {}",
                s.log.id,
                summary.frames,
                summary.decisions,
                s.log.frames,
                s.log.decisions.len()
            ));
        }
        s.log.closed = true;
        out.streams.push(s.log);
        Ok(())
    };

    let mut open = Vec::with_capacity(shape.open_per_conn);
    for _ in 0..shape.open_per_conn {
        open.push(open_one(&mut client, &mut out)?);
    }
    let mut slot = 0;
    let mut calibrate_at = 0;
    while !shared.stop.load(Ordering::Relaxed) {
        // Between operations, every few milliseconds: the speed of the
        // core this connection keeps busy. (`durable` naps on the disk
        // instead; the sampling thread reads the host's speed for it.)
        let now = clock.now_ns();
        if now >= calibrate_at && shape.durable_dir.is_none() {
            out.calib.push((now, calib::kernel()));
            calibrate_at = now + calib::PERIOD_NS;
        }
        let s = &mut open[slot];
        let trace = (u64::from(s.log.id) << 32) | s.seq;
        let t_op = clock.now_ns();
        let mut data = Vec::with_capacity(shape.batch * fix.dim);
        fix.fill_rows(s.log.id, s.log.frames, shape.batch, &mut data);
        let t_send = clock.now_ns();
        let reply = if traced {
            client.submit_traced(s.log.id, trace, dim, data)
        } else {
            client.submit(s.log.id, dim, data)
        };
        let t_done = clock.now_ns();
        let decisions = accepted("submit", reply)?;
        out.ops.push((t_send, t_done - t_send));
        s.log.frames += shape.batch;
        s.seq += 1;
        s.log.decisions.extend(decisions);
        shared
            .frames_done
            .fetch_add(shape.batch as u64, Ordering::Relaxed);
        if s.log.frames >= shape.frames_per_stream {
            let done = std::mem::replace(s, open_one(&mut client, &mut out)?);
            close_one(&mut client, &mut out, done)?;
        }
        if traced {
            let end = clock.now_ns();
            let op = out.spans.record("op", None, trace, t_op, end);
            out.spans
                .record("serve.client.gen_rows", Some(op), trace, t_op, t_send);
            out.spans
                .record("serve.client.submit", Some(op), trace, t_send, t_done);
        }
        slot = (slot + 1) % open.len();
    }
    if traced && conn == 0 {
        out.calls.server = Some(ServerView::ask(&mut client, &clock)?);
    }
    for s in open {
        if shape.durable_dir.is_some() {
            // Left open on purpose: the session ends, the server parks
            // the lane, and the re-bound server must resume it.
            out.streams.push(s.log);
        } else {
            close_one(&mut client, &mut out, s)?;
        }
    }
    Ok(out)
}

/// After the durable run: re-bind a server over the same directory
/// (timed: that is the log being read back), resume every stream the
/// run left open, feed each [`RESUME_FRAMES`] more frames, and close it.
fn rebind_and_resume(
    fix: &Fixture,
    dir: &Path,
    streams: &mut [StreamLog],
    report: &mut RunReport,
) -> Result<(), String> {
    let t0 = Instant::now();
    let server = bind(fix, 64, Some(dir), None).map_err(|e| format!("re-bind: {e}"))?;
    let recovery_s = t0.elapsed().as_secs_f64();
    let serving = Serving::start(server, 1).map_err(|e| format!("re-bind serve: {e}"))?;
    let mut client = ServeClient::connect(serving.addr).map_err(|e| format!("reconnect: {e}"))?;
    let dim = fix.dim as u32;
    let mut resumed = 0;
    for s in streams.iter_mut().filter(|s| !s.closed) {
        let next = accepted("resume", client.resume_stream(s.id, s.frames as u64))?;
        if next != s.frames as u64 {
            return Err(format!(
                "stream {}: resumed at frame {next}, but {} were acknowledged",
                s.id, s.frames
            ));
        }
        let mut data = Vec::with_capacity(RESUME_FRAMES * fix.dim);
        fix.fill_rows(s.id, s.frames, RESUME_FRAMES, &mut data);
        s.decisions.extend(accepted(
            "submit after resume",
            client.submit(s.id, dim, data),
        )?);
        s.frames += RESUME_FRAMES;
        accepted("close after resume", client.close_stream(s.id))?;
        s.closed = true;
        resumed += 1;
    }
    drop(client);
    serving.finish()?;
    report.phases.push(Phase {
        name: "re-bind",
        attempted: resumed,
        failed: 0,
    });
    let dir_bytes: u64 = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    report.layer.insert("durable.recovery_s".into(), recovery_s);
    report.detail.extend([
        ("durable_fs_type".to_string(), Json::Str(host::fs_type(dir))),
        ("durable_recovery_s".to_string(), Json::Num(recovery_s)),
        ("durable_dir_bytes".to_string(), Json::Num(dir_bytes as f64)),
        (
            "durable_streams_resumed".to_string(),
            Json::Num(resumed as f64),
        ),
    ]);
    Ok(())
}

/// Runs a closed-loop workload against `server` (bound during set-up)
/// and checks every served decision against the oracle.
pub fn run(
    fix: &Fixture,
    ids: StreamIds,
    plan: &Plan,
    traced: bool,
    shape: &ClosedLoop,
    server: Server,
) -> Result<RunReport, String> {
    let conns = connections();
    let serving = Serving::start(server, conns).map_err(|e| format!("serve: {e}"))?;
    let shared = Shared::new();
    // `durable` naps on the disk between operations, and a kernel run
    // straight after a nap of a few hundred microseconds read the same
    // whatever state the host was in; the sampling thread, asleep for
    // milliseconds in between like any other process, sees the state.
    let durable = shape.durable_dir.is_some();
    let mut report = RunReport {
        cores: conns as f64,
        waits_on_host: durable,
        ..RunReport::default()
    };
    let outcomes: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                let (shared, addr) = (&shared, serving.addr);
                scope.spawn(move || {
                    let out = drive_connection(fix, ids, shape, addr, conn, conns, traced, shared);
                    // A failed client must not leave the others driving forever.
                    if out.is_err() {
                        shared.stop.store(true, Ordering::SeqCst);
                    }
                    out
                })
            })
            .collect();
        sample_run(&shared, 0, &plan.boundaries(), durable, &mut report);
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect()
    });
    serving.finish()?;

    // Operations started before the first sample are warm-up.
    let measured_from = report.samples.first().map_or(u64::MAX, |s| s.at_ns);
    let mut streams = Vec::new();
    let (mut warm, mut measured) = (0u64, 0u64);
    let mut calls = ClientCalls::default();
    for outcome in outcomes {
        let o = outcome?;
        for (start, latency) in o.ops {
            if start >= measured_from {
                measured += 1;
                report.ops.push((start, latency as f64));
            } else {
                warm += 1;
            }
        }
        streams.extend(o.streams);
        report.calib.extend(o.calib);
        report.spans.absorb(o.spans);
        calls.absorb(o.calls);
    }
    report.phases.extend([
        Phase {
            name: "warm-up",
            attempted: warm,
            failed: 0,
        },
        Phase {
            name: "measured",
            attempted: measured,
            failed: 0,
        },
    ]);
    if let Some(dir) = &shape.durable_dir {
        rebind_and_resume(fix, dir, &mut streams, &mut report)?;
    }
    let checked = verify(fix, &streams)?;
    report.phases.push(Phase {
        name: "verify",
        attempted: checked,
        failed: 0,
    });

    let frames = shared.frames_done.load(Ordering::SeqCst);
    report.layer.extend(calls.layer_metrics(frames));
    if let (Some(view), Some(recovery_s)) = (&calls.server, report.layer.get("durable.recovery_s"))
    {
        // Every event the run appended is one the re-bind read back.
        let events: f64 = view
            .info
            .counters
            .iter()
            .filter(|c| c.name == "durable.appends")
            .map(|c| c.value as f64)
            .sum();
        let rate = events / recovery_s.max(1e-9);
        report
            .layer
            .insert("durable.replay.events_per_s".into(), rate);
    }
    report
        .detail
        .extend(serving_detail(conns, frames, streams.len(), checked));
    Ok(report)
}
