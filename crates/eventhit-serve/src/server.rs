//! The TCP serving frontend: sessions multiplexed onto a [`Pool`], one
//! `OnlinePredictor` lane per admitted stream, streams partitioned across
//! shards by a deterministic router.
//!
//! # Determinism
//!
//! Each admitted stream gets its own predictor from the [`LaneFactory`]
//! — no state is shared between streams, and a session feeds each
//! accepted batch through the lane synchronously before replying. A
//! stream's decision sequence is therefore a pure function of its own
//! frame sequence, exactly as in the in-process `run_lanes` path,
//! regardless of how many sessions run concurrently, how many workers the
//! pool has, or how many shards the server runs. The loopback soak tests
//! in `tests/serve.rs` and `tests/fleet_serve.rs` check this bit-for-bit.
//! Plain and durable servers run the same request loop; `DESIGN.md` §10
//! lists the four points where it branches for durability.
//!
//! # Sharding
//!
//! With [`ServeConfig::shards`] > 1 the server partitions *stream
//! ownership* — admission slots, predictor lanes, durable directories,
//! and `serve.shard{N}.*` telemetry — across shards using the
//! [`ShardRouter`] (`DESIGN.md` §16). Sharding is invisible on the wire:
//! one listener, one protocol, and a session may drive streams on any
//! mix of shards; only the owning shard's capacity, journal, and metrics
//! are touched for each stream. [`ServeConfig::max_streams`] stays the
//! fleet-wide cap, partitioned evenly across shards.
//!
//! # Backpressure
//!
//! The server never buffers without bound. Streams beyond the owning
//! shard's slice of [`ServeConfig::max_streams`] are refused
//! (`TooManyStreams`, with a `retry_after_ms` hint), batches beyond
//! [`ServeConfig::max_batch_frames`] are refused (`BatchTooLarge`), and
//! batches beyond [`ServeConfig::max_queue_frames`] are refused whole
//! (`QueueFull`; a size check, so no hint: resending the same batch
//! cannot succeed) — the client keeps the data; the server's
//! memory stays bounded by its configuration. That last bound is a
//! per-batch one, not a standing queue: an accepted batch is fed row by
//! row straight from the receive buffer and the reply is written before
//! the next request is read, so nothing is ever queued between requests.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use eventhit_core::codec::F32Run;
use eventhit_core::faults::FaultConfig;
use eventhit_core::resilient::{DegradationTag, ResilienceConfig, ResilientCiClient};
use eventhit_core::streaming::{HorizonDecision, OnlinePredictor};
use eventhit_core::SamplingPolicy;
use eventhit_core::{ConformalState, EventHit};
use eventhit_durable::{
    decision_fingerprint, replay, CommitHandle, DurableError, DurableStore, LaneSnapshot,
    SessionEvent, Snapshot,
};
use eventhit_parallel::Pool;
use eventhit_telemetry::{SlowDecision, Telemetry};
use eventhit_video::detector::StageModel;

use crate::admission::{AdmissionController, ServeTotals, SlotGuard};
use crate::convert::decision_to_wire;
use crate::protocol::{
    decode_payload, send_message, FrameBuf, Message, ProtocolError, RejectCode, StreamSummary,
    Submit, WireCounter, WireDecision, WireSeries, WireSlo, WireWindow, PROTOCOL_MAJOR,
    PROTOCOL_MINOR,
};
use crate::router::ShardRouter;

/// Per-stream resilient-CI wiring: when set, every decision's relayed
/// frames are submitted through a [`ResilientCiClient`] (seeded
/// `seed + stream_id`, so streams draw independent fault sequences) and
/// the resulting degradation tag travels to the client on the wire.
#[derive(Debug, Clone)]
pub struct ResilienceSpec {
    /// Fault profile of the simulated CI channel.
    pub faults: FaultConfig,
    /// Retry / breaker / degradation policy.
    pub resilience: ResilienceConfig,
    /// CI service throughput rating, frames per second.
    pub ci_fps: f64,
    /// Stream frame rate, used to convert anchors to submission times.
    pub stream_fps: f64,
    /// Base seed; stream `s` uses `seed + s`.
    pub seed: u64,
}

/// Durable-serving wiring: where the session log lives and how often the
/// hub checkpoints (see `DESIGN.md` §14).
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Session directory: log, snapshots, and persisted reloads. A
    /// single-shard server uses `dir` itself (the PR 7 layout); a
    /// sharded server journals each shard under `dir/shard-{i:03}`, so
    /// shards commit and recover independently.
    pub dir: PathBuf,
    /// Snapshot after this many new log events (0 disables snapshots;
    /// recovery then replays the whole log).
    pub snapshot_every: u64,
}

impl DurableOptions {
    /// Durable serving in `dir` with the default snapshot cadence (256
    /// events).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableOptions {
            dir: dir.into(),
            snapshot_every: 256,
        }
    }
}

/// Server configuration: bind address plus the admission limits echoed to
/// every client in `HelloAck`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Number of shards stream ownership is partitioned across (minimum
    /// 1). Shard membership is decided by the deterministic
    /// [`ShardRouter`], so it is stable across sessions and restarts;
    /// a durable directory must keep the shard count it was created
    /// with, or per-shard journals end up on the wrong shard.
    pub shards: u32,
    /// Workers per shard pool when serving with more than one shard
    /// (`0` resolves the ambient `eventhit-parallel` worker count).
    /// Ignored at `shards == 1`, where the caller's pool serves alone.
    pub workers_per_shard: usize,
    /// Cap on concurrently open streams, across all sessions and shards.
    /// Partitioned evenly across shards (shard `i` gets
    /// `max_streams / shards`, the first `max_streams % shards` shards
    /// one more); a stream is refused when its *owning* shard is full,
    /// even if other shards still have room.
    pub max_streams: u32,
    /// Largest accepted `SubmitFrames` batch, in frames.
    pub max_batch_frames: u32,
    /// Per-stream ingest bound, in frames: a batch of more rows is
    /// refused `QueueFull` (the wire keeps the name; the server holds no
    /// queue between requests).
    pub max_queue_frames: u32,
    /// Backpressure hint attached to `TooManyStreams` rejections, in
    /// milliseconds.
    pub retry_after_ms: u32,
    /// Optional resilient-CI wiring (see [`ResilienceSpec`]). `None`
    /// serves every decision untagged, which is what the determinism
    /// soak test uses.
    pub resilience: Option<ResilienceSpec>,
    /// Optional durable-serving wiring (see [`DurableOptions`]). When
    /// set, every state-changing request is committed to the session log
    /// before it is acknowledged, lanes survive disconnects and crashes,
    /// and clients re-attach with `Resume`. Mutually exclusive with
    /// `resilience` — the resilient CI client carries breaker state the
    /// snapshots do not capture.
    pub durable: Option<DurableOptions>,
    /// When set, the bounded slow-decision log is rewritten to this file
    /// as JSONL (one `{"type":"slow",…}` object per retained decision,
    /// slowest first) at the end of every session. Requires an enabled
    /// telemetry recorder (see [`Server::bind_with_telemetry`]).
    pub slow_log: Option<PathBuf>,
    /// Content-adaptive sampling applied to every admitted stream (see
    /// [`SamplingPolicy`]). Gated frames are acknowledged and counted
    /// (`stream.frames_skipped`) but not encoded; decisions stay
    /// bit-identical across worker counts under every policy. Mutually
    /// exclusive with `durable` for non-`Fixed` policies — gate and
    /// window state is not captured by snapshots.
    pub sampling: SamplingPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 1,
            workers_per_shard: 0,
            max_streams: 16,
            max_batch_frames: 4096,
            max_queue_frames: 8192,
            retry_after_ms: 100,
            resilience: None,
            durable: None,
            slow_log: None,
            sampling: SamplingPolicy::Fixed,
        }
    }
}

/// Builds one lane's predictor for an admitted stream id. The factory is
/// called once per `OpenStream`; cloning one trained model and conformal
/// state per lane (as `run_lanes` does) keeps lanes independent.
pub type LaneFactory = dyn Fn(u32) -> OnlinePredictor + Send + Sync;

/// One admitted stream: a predictor plus its counters. Non-durable lanes
/// live inside their session and always hold their admission
/// [`SlotGuard`]; durable lanes live in the [`DurableHub`] and hold a
/// guard exactly while a live session drives them — a parked lane
/// (`slot: None`) has released its slot and waits for a `Resume` to claim
/// a fresh one.
struct Lane {
    predictor: OnlinePredictor,
    resilient: Option<ResilientCiClient>,
    stream_fps: f64,
    frames: u64,
    decisions: u64,
    slot: Option<SlotGuard>,
    /// The one row being fed, decoded out of the receive buffer.
    row: Vec<f32>,
}

impl Lane {
    /// A lane at the start of its stream, without resilient-CI wiring.
    fn new(predictor: OnlinePredictor, slot: Option<SlotGuard>) -> Self {
        Lane {
            row: Vec::with_capacity(predictor.input_dim()),
            predictor,
            resilient: None,
            stream_fps: 30.0,
            frames: 0,
            decisions: 0,
            slot,
        }
    }

    /// Feeds one frame through the lane's predictor; with resilient
    /// wiring, relayed segments are submitted through the CI client and
    /// the submission's degradation tag replaces the decision's.
    fn push(&mut self, row: &[f32]) -> Option<HorizonDecision> {
        match &mut self.resilient {
            None => self.predictor.push_frame(row),
            Some(client) => {
                let mut d = self
                    .predictor
                    .push_frame_resilient(row, client, self.stream_fps)?;
                if d.degradation == DegradationTag::None {
                    let relayed: u64 = d
                        .segments()
                        .iter()
                        .map(|&(_, s, e)| e.saturating_sub(s) + 1)
                        .sum();
                    if relayed > 0 {
                        let now = d.anchor as f64 / self.stream_fps.max(f64::MIN_POSITIVE);
                        d.degradation = client.submit(relayed, now).tag();
                    }
                }
                Some(d)
            }
        }
    }

    /// Feeds a batch of `dim`-wide rows, each decoded straight out of
    /// the receive buffer into the lane's one row, with the batch's trace
    /// attached, so the predictor's inference / conformal stage samples
    /// carry the client's trace id as exemplars. Allocates only for the
    /// decisions it returns.
    fn feed(&mut self, data: F32Run<'_>, dim: usize, trace: Option<u64>) -> Vec<HorizonDecision> {
        self.predictor.set_trace(trace);
        let mut row = std::mem::take(&mut self.row);
        let out = data
            .rows(dim)
            .filter_map(|wire| {
                row.clear();
                row.extend(wire.iter());
                self.push(&row)
            })
            .collect();
        self.row = row;
        self.predictor.set_trace(None);
        out
    }
}

/// The active hot-reload: weights, refitted conformal state, and the
/// fingerprint the pair is persisted under.
struct ActiveReload {
    model: EventHit,
    state: ConformalState,
    fingerprint: u64,
}

/// A shard's durable state. A single mutex serializes every
/// state-changing request across sessions — records are written to the
/// log in application order, which is exactly the order replay re-applies
/// them. Writes happen under the mutex; the flush that makes them durable
/// does not (see [`DurableShard`]).
struct DurableHub {
    store: DurableStore,
    lanes: BTreeMap<u32, Lane>,
    reload: Option<ActiveReload>,
    snapshot_every: u64,
    events_at_last_snapshot: u64,
}

impl DurableHub {
    /// Checkpoints the hub if enough events accumulated since the last
    /// snapshot. Lane iteration order (ascending stream id) makes the
    /// snapshot bytes deterministic for a given state. Cadence checks
    /// that decide not to snapshot count under `durable.snapshot_skips`.
    /// The store syncs the log up to `events` before it publishes the
    /// file, so a snapshot never claims events the disk does not hold.
    fn maybe_snapshot(&mut self, t: &Telemetry) -> Result<(), DurableError> {
        if self.snapshot_every == 0 {
            return Ok(());
        }
        let events = self.store.events_applied();
        if events - self.events_at_last_snapshot < self.snapshot_every {
            t.add("durable.snapshot_skips", 1);
            return Ok(());
        }
        let lanes = self
            .lanes
            .iter()
            .map(|(&stream_id, lane)| {
                let st = lane.predictor.export_state();
                LaneSnapshot {
                    stream_id,
                    dim: lane.predictor.input_dim() as u32,
                    frames: lane.frames,
                    decisions: lane.decisions,
                    frames_seen: st.frames_seen,
                    countdown: st.countdown,
                    state_fingerprint: st.fingerprint(),
                    rows: st.rows,
                }
            })
            .collect();
        self.store.write_snapshot(&Snapshot {
            events_applied: events,
            reload_fingerprint: self.reload.as_ref().map(|r| r.fingerprint),
            lanes,
        })?;
        self.events_at_last_snapshot = events;
        Ok(())
    }
}

/// Interned per-shard metric names. Telemetry metric names are
/// `&'static str`; shard-scoped names are built once per `(shard, metric)`
/// pair and leaked through a global intern table, so repeated binds (test
/// suites construct many servers) reuse the same allocation instead of
/// leaking per bind.
fn intern_metric(name: String) -> &'static str {
    static TABLE: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut table = TABLE
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .expect("metric intern table poisoned");
    if let Some(&existing) = table.get(name.as_str()) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    table.insert(leaked);
    leaked
}

/// The `serve.shard{N}.*` telemetry scope for one shard.
#[derive(Clone, Copy)]
struct ShardNames {
    active_streams: &'static str,
    streams_opened: &'static str,
    frames: &'static str,
    decisions: &'static str,
    rejected: &'static str,
}

impl ShardNames {
    fn new(shard: u32) -> Self {
        let name = |metric: &str| intern_metric(format!("serve.shard{shard}.{metric}"));
        ShardNames {
            active_streams: name("active_streams"),
            streams_opened: name("streams_opened"),
            frames: name("frames"),
            decisions: name("decisions"),
            rejected: name("rejected"),
        }
    }
}

/// One shard: the unit of stream ownership. Every stream id resolves to
/// exactly one shard (via the [`ShardRouter`]), and only that shard's
/// admission slice, durable journal, and telemetry scope are touched on
/// its behalf. Shards share the listener and the wire — sessions are not
/// shard-bound.
struct Shard {
    admission: Arc<AdmissionController>,
    durable: Option<DurableShard>,
    names: ShardNames,
}

impl Shard {
    /// Locks the shard's hub on a durable server; `None` on a plain one,
    /// whose lanes are session-local and behind no lock. A session that
    /// panicked mid-update poisoned the hub and left lanes possibly ahead
    /// of the log: every later session of the shard ends with this error
    /// instead of panicking in turn.
    fn lock_hub(&self) -> io::Result<Option<MutexGuard<'_, DurableHub>>> {
        let Some(durable) = &self.durable else {
            return Ok(None);
        };
        durable.hub.lock().map(Some).map_err(|_| {
            io::Error::other("durable hub poisoned by a panicked session; the shard is stopped")
        })
    }

    /// Blocks until every record up to `seq` is on disk — the gate in
    /// front of every reply that acknowledges a state change. `None` is a
    /// plain server's "nothing was written".
    fn wait_durable(&self, seq: Option<u64>) -> io::Result<()> {
        match (&self.durable, seq) {
            (Some(durable), Some(seq)) => durable.commit.wait_durable(seq).map_err(durable_io),
            _ => Ok(()),
        }
    }
}

/// The durable half of a shard: the hub its sessions mutate under one
/// mutex, and the log's commit handle they wait on *after* leaving it —
/// so one session's flush overlaps the other sessions' decode, predictor
/// work and replies instead of queueing them behind the disk.
struct DurableShard {
    hub: Mutex<DurableHub>,
    commit: Arc<CommitHandle>,
}

struct Shared {
    cfg: ServeConfig,
    factory: Box<LaneFactory>,
    router: ShardRouter,
    shards: Vec<Shard>,
    totals: Arc<ServeTotals>,
    telemetry: Arc<Telemetry>,
}

impl Shared {
    /// The shard owning `stream_id`.
    fn shard_of(&self, stream_id: u32) -> &Shard {
        &self.shards[self.router.route(stream_id) as usize]
    }
}

/// Maps a durable-layer failure onto the session's `io::Result` plumbing.
fn durable_io(e: DurableError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Shard `i`'s slice of the fleet-wide stream cap: an even partition of
/// `max_streams` whose slices sum exactly to `max_streams`.
fn shard_cap(max_streams: u32, shards: u32, i: u32) -> u32 {
    max_streams / shards + u32::from(i < max_streams % shards)
}

/// The serving frontend. Bind once, then push session-serving work onto
/// a [`Pool`] with [`Server::serve_sessions`] or [`Server::serve_forever`].
pub struct Server {
    shared: Arc<Shared>,
    /// `None` on a [`Server::unbound`] server, which is handed its
    /// transports through [`Server::serve_on`].
    listener: Option<TcpListener>,
}

impl Server {
    /// Binds the listener and prepares shared state; telemetry disabled.
    pub fn bind(cfg: ServeConfig, factory: Box<LaneFactory>) -> io::Result<Server> {
        Self::bind_with_telemetry(cfg, factory, Arc::new(Telemetry::disabled()))
    }

    /// [`Server::bind`] with a telemetry recorder: sessions, stream
    /// opens/closes, frames, decisions, rejections (labelled by reject
    /// code), an `serve.active_streams` gauge, and a `serve.session`
    /// span per connection.
    ///
    /// With an *enabled* recorder the server also runs the full
    /// observability plane (`DESIGN.md` §15): per-decision stage
    /// histograms (`serve.stage_seconds` labelled `session_read` /
    /// `queue_wait` / `durable_commit` / `reply_write`, plus the
    /// predictor's `stream.stage_seconds`), the `serve.decision_seconds`
    /// series with a registered 50 ms / 99% SLO, per-stream
    /// `serve.stream_frames` rates, trace exemplars for `SubmitTraced`
    /// batches, the bounded slow-decision log, and `durable.*` commit /
    /// snapshot / recovery instrumentation — all queryable live over the
    /// wire with `MetricsQuery`.
    pub fn bind_with_telemetry(
        cfg: ServeConfig,
        factory: Box<LaneFactory>,
        telemetry: Arc<Telemetry>,
    ) -> io::Result<Server> {
        let mut server = Self::unbound(cfg, factory, telemetry)?;
        let addrs: Vec<SocketAddr> = server.shared.cfg.addr.to_socket_addrs()?.collect();
        server.listener = Some(TcpListener::bind(&addrs[..])?);
        Ok(server)
    }

    /// Everything [`Server::bind_with_telemetry`] prepares (durable
    /// recovery included) except the listener: `cfg.addr` is ignored and
    /// the server serves only the transports [`Server::serve_on`] is
    /// handed — an in-memory [`pipe`](crate::testkit::pipe), say.
    pub fn unbound(
        cfg: ServeConfig,
        factory: Box<LaneFactory>,
        telemetry: Arc<Telemetry>,
    ) -> io::Result<Server> {
        if cfg.durable.is_some() && cfg.resilience.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "durable serving cannot be combined with resilient-CI wiring: \
                 breaker state is not captured by snapshots",
            ));
        }
        if cfg.durable.is_some() && !cfg.sampling.is_fixed() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "durable serving requires the Fixed sampling policy: \
                 gate and window state is not captured by snapshots",
            ));
        }
        if cfg.shards == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a server needs at least one shard",
            ));
        }
        // A bad spec fails here, not at every session's first OpenStream.
        if let Some(spec) = &cfg.resilience {
            let checked = spec.faults.validate().and(spec.resilience.validate());
            checked.map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        }
        let router = ShardRouter::new(cfg.shards);
        let mut shards = Vec::with_capacity(cfg.shards as usize);
        for i in 0..cfg.shards {
            // Durable recovery happens before the listener accepts
            // anything: replay each shard's log through factory-built
            // predictors and park every recovered lane until its client
            // resumes. Shards recover independently — one directory per
            // shard (the single-shard layout is `dir` itself, unchanged
            // from PR 7).
            let durable = match &cfg.durable {
                None => None,
                Some(opts) => {
                    let dir = if cfg.shards == 1 {
                        opts.dir.clone()
                    } else {
                        let d = opts.dir.join(format!("shard-{i:03}"));
                        std::fs::create_dir_all(&d)?;
                        d
                    };
                    let (store, recovery) =
                        DurableStore::open_with_telemetry(&dir, Arc::clone(&telemetry))
                            .map_err(durable_io)?;
                    let replayed = replay(&dir, &recovery, &mut |stream_id| (factory)(stream_id))
                        .map_err(durable_io)?;
                    let lanes: BTreeMap<u32, Lane> = replayed
                        .lanes
                        .into_iter()
                        .map(|(stream_id, rl)| {
                            debug_assert_eq!(
                                router.route(stream_id),
                                i,
                                "shard {i} recovered a stream it does not own; \
                                 was the directory created with a different --shards?"
                            );
                            // Telemetry attaches only after replay
                            // finished: recovery must not pollute the
                            // live stream metrics with replayed frames.
                            let mut predictor = rl.predictor;
                            predictor.set_telemetry(Arc::clone(&telemetry));
                            (
                                stream_id,
                                Lane {
                                    frames: rl.frames,
                                    decisions: rl.decisions,
                                    ..Lane::new(predictor, None)
                                },
                            )
                        })
                        .collect();
                    let reload = replayed.reload.map(|r| ActiveReload {
                        model: r.model,
                        state: r.state,
                        fingerprint: r.fingerprint,
                    });
                    let events = store.events_applied();
                    Some(DurableShard {
                        commit: store.commit_handle(),
                        hub: Mutex::new(DurableHub {
                            store,
                            lanes,
                            reload,
                            snapshot_every: opts.snapshot_every,
                            events_at_last_snapshot: events,
                        }),
                    })
                }
            };
            shards.push(Shard {
                admission: Arc::new(AdmissionController::new(shard_cap(
                    cfg.max_streams,
                    cfg.shards,
                    i,
                ))),
                durable,
                names: ShardNames::new(i),
            });
        }
        // The serving SLO the `serve.decision_seconds` series burns
        // against: p99 of decision latency under 50 ms.
        telemetry.set_slo("serve.decision_seconds", "", 0.050, 0.99);
        Ok(Server {
            shared: Arc::new(Shared {
                cfg,
                factory,
                router,
                shards,
                totals: Arc::new(ServeTotals::new()),
                telemetry,
            }),
            listener: None,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        let unbound = || io::Error::new(io::ErrorKind::NotConnected, "the server has no listener");
        self.listener.as_ref().ok_or_else(unbound)?.local_addr()
    }

    /// The next connection, or `None` when the listener failed or the
    /// server has none.
    fn accept(&self) -> Option<TcpStream> {
        let (sock, _peer) = self.listener.as_ref()?.accept().ok()?;
        Some(sock)
    }

    /// Serves one session over `io` — any transport, no listener involved
    /// — on the calling thread, and returns how it ended: `Ok(())` for a
    /// hang-up between frames or after a fatal rejection, `Err` for an
    /// I/O failure, EOF inside a frame, or a frame that does not decode.
    pub fn serve_on(&self, io: impl Read + Write) -> io::Result<()> {
        serve_session(&self.shared, io)
    }

    /// Accepts and serves exactly `n` sessions. Returns when all `n`
    /// sessions have ended.
    ///
    /// A single-shard server multiplexes sessions onto the caller's
    /// `pool` (up to `pool.workers()` concurrently), exactly as before
    /// sharding existed. A sharded server gives every shard its own
    /// [`Pool`] of [`ServeConfig::workers_per_shard`] workers (falling
    /// back to `pool.workers()`) and deals the `n` sessions round-robin
    /// across the shard pools — total session concurrency scales with
    /// the shard count.
    pub fn serve_sessions(&self, n: usize, pool: &Pool) {
        let shared = &self.shared;
        let shards = shared.cfg.shards as usize;
        self.dispatch(
            pool,
            |i, _| n / shards + usize::from(i < n % shards),
            |_, ()| {
                if let Some(sock) = self.accept() {
                    // Counted under `serve.session_errors`; the next
                    // session is served regardless.
                    let _ = serve_session(shared, sock);
                }
            },
        );
    }

    /// Runs `task` on the session pools: the caller's `pool` alone on an
    /// unsharded server, otherwise one pool per shard — each of
    /// `workers_per_shard` workers, falling back to `pool`'s width when
    /// unset. `tasks(i, pool)` is how many tasks shard `i`'s pool runs.
    fn dispatch(
        &self,
        pool: &Pool,
        tasks: impl Fn(usize, &Pool) -> usize + Sync,
        task: impl Fn(usize, ()) + Sync,
    ) {
        let cfg = &self.shared.cfg;
        if cfg.shards <= 1 {
            pool.run_tasks(vec![(); tasks(0, pool)], task);
            return;
        }
        let w = cfg.workers_per_shard;
        let shard_pool = Pool::new(if w > 0 { w } else { pool.workers() });
        std::thread::scope(|scope| {
            for i in 0..cfg.shards as usize {
                let (shard_pool, tasks, task) = (shard_pool.clone(), &tasks, &task);
                scope.spawn(move || shard_pool.run_tasks(vec![(); tasks(i, &shard_pool)], task));
            }
        });
    }

    /// Hot-swaps the serving model mid-serve (durable servers only).
    ///
    /// The new weights and their *refitted* conformal state (see
    /// `TaskRun::state_for_model` — reusing the old state would void the
    /// coverage guarantees) are persisted beside the session log, a
    /// `ModelReloaded` event is written, and every live lane swaps in
    /// place keeping its window and anchor cadence. Returns — once the
    /// event is durable on every shard — the weight fingerprint the
    /// reload is journaled under; replay after a crash reproduces pre-
    /// and post-reload decisions exactly. A persisted pair is never
    /// replaced: weights already reloaded with a different state are
    /// refused (`DurableError::ReloadConflict`) before anything is
    /// journaled.
    pub fn reload_model(&self, model: EventHit, state: ConformalState) -> io::Result<u64> {
        // Every shard journals the reload in its own log (replay of any
        // one shard's directory must be self-contained); the fingerprint
        // is a pure function of the weights, so all shards agree on it.
        let mut fingerprint = 0;
        for shard in &self.shared.shards {
            let Some(mut hub) = shard.lock_hub()? else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "model hot-reload requires durable serving (the swap must be journaled)",
                ));
            };
            fingerprint = hub.store.save_reload(&model, &state).map_err(durable_io)?;
            let seq = hub
                .store
                .write(&[SessionEvent::ModelReloaded { fingerprint }])
                .map_err(durable_io)?;
            for lane in hub.lanes.values_mut() {
                lane.predictor
                    .reload_model(model.clone(), state.clone())
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            }
            hub.reload = Some(ActiveReload {
                model: model.clone(),
                state: state.clone(),
                fingerprint,
            });
            drop(hub);
            shard.wait_durable(Some(seq))?;
        }
        self.shared.telemetry.add("serve.model_reloads", 1);
        Ok(fingerprint)
    }

    /// Test hook: makes the `nth` log sync from now on `shard` fail (see
    /// `CommitHandle::fail_sync_at`), to drive the fail-stop path.
    #[doc(hidden)]
    pub fn fail_durable_sync_at(&self, shard: u32, nth: u64) -> io::Result<()> {
        let durable = (self.shared.shards.get(shard as usize))
            .and_then(|shard| shard.durable.as_ref())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no such durable shard"))?;
        durable.commit.fail_sync_at(nth);
        Ok(())
    }

    /// Serves sessions until the process exits: every pool worker loops
    /// on accept. Intended for the `eventhit-cli serve` command; tests
    /// use [`Server::serve_sessions`] so the server can wind down.
    pub fn serve_forever(&self, pool: &Pool) {
        let shared = &self.shared;
        self.dispatch(
            pool,
            |_, pool| pool.workers().max(1),
            |_, ()| {
                while let Some(sock) = self.accept() {
                    let _ = serve_session(shared, sock);
                }
            },
        );
    }
}

/// Serves one connection to completion. Any I/O error or protocol
/// violation ends the session; cleanup releases every stream slot the
/// session still holds, so lanes freed by a mid-session disconnect are
/// immediately reusable by new sessions.
fn serve_session(shared: &Shared, io: impl Read + Write) -> io::Result<()> {
    let t = &shared.telemetry;
    let _span = t.span("serve.session");
    shared.totals.session_started();
    t.add("serve.sessions", 1);

    let mut session = Session {
        shared,
        io,
        reply: Vec::new(),
        lanes: BTreeMap::new(),
        owned: BTreeSet::new(),
    };
    let outcome = session.run(&mut FrameBuf::new());
    session.end();
    if outcome.is_err() {
        t.add("serve.session_errors", 1);
    }
    // The slow-decision export is rewritten whole at every session end:
    // the in-memory log is bounded and totally ordered, so the file is a
    // pure function of the decisions served so far.
    if let Some(path) = &shared.cfg.slow_log {
        if t.is_enabled() && std::fs::write(path, t.snapshot().slow_jsonl()).is_err() {
            t.add("serve.slow_log_errors", 1);
        }
    }
    outcome
}

/// One connection and the streams it drives. Plain and durable servers
/// run the same request loop; durability shows at four points only:
/// *where a lane is looked up* (the session's own map, or the owning
/// shard's [`DurableHub`] under its mutex), *records written under that
/// mutex* after the lane was fed, *[`Shard::wait_durable`] after leaving
/// it* and before any reply, and *session end parking lanes* instead of
/// dropping them. A failed write or sync ends the session with no reply
/// (and stops the shard: see [`CommitHandle`]).
///
/// Handlers return `Ok(true)` to keep serving and `Ok(false)` after a
/// fatal rejection.
struct Session<'a, C> {
    shared: &'a Shared,
    /// The transport, and the one buffer every reply is encoded into and
    /// sent from with a single write. The receive buffer is not here but
    /// a local of [`Session::run`]: a submit's rows are fed while still
    /// borrowed from it.
    io: C,
    reply: Vec<u8>,
    /// Plain server: the session's own lanes — session-scoped ids, touched
    /// by no other thread, dropped when the session ends.
    lanes: BTreeMap<u32, Lane>,
    /// Durable server: server-global ids of the hub lanes this session
    /// drives; they must survive it, so session end parks them.
    owned: BTreeSet<u32>,
}

impl<C: Read + Write> Session<'_, C> {
    /// One reply, one write.
    fn send(&mut self, msg: &Message) -> io::Result<()> {
        send_message(&mut self.io, &mut self.reply, msg)
    }

    /// Runs the handshake and then the request loop. `Ok(())` is a clean
    /// disconnect (EOF between frames) or a fatal rejection; `Err` is an
    /// I/O failure or a frame that does not decode — answered `Malformed`
    /// first (`docs/PROTOCOL.md` §2) — after which the transport is
    /// abandoned.
    fn run(&mut self, rx: &mut FrameBuf) -> io::Result<()> {
        let served = self.serve(rx);
        if let Err(e) = &served {
            if e.get_ref().is_some_and(|inner| inner.is::<ProtocolError>()) {
                self.reject(RejectCode::Malformed, 0, e.to_string())?;
            }
        }
        served
    }

    /// Performs the `Hello`/`HelloAck` handshake. Returns `Ok(false)` when
    /// the session should end without entering the request loop (immediate
    /// EOF, or a version rejection already written). Whatever the peer
    /// pipelined behind its `Hello` stays in `rx` for the request loop.
    fn handshake(&mut self, rx: &mut FrameBuf) -> io::Result<bool> {
        let cfg = &self.shared.cfg;
        let Some(hello) = rx.next_frame(&mut self.io)? else {
            return Ok(false); // connected and left; fine
        };
        match decode_payload(hello)? {
            Message::Hello { major, minor } if major == PROTOCOL_MAJOR => {
                // Minor negotiation: run at min(client, server).
                self.send(&Message::HelloAck {
                    major: PROTOCOL_MAJOR,
                    minor: minor.min(PROTOCOL_MINOR),
                    max_streams: cfg.max_streams,
                    max_batch_frames: cfg.max_batch_frames,
                    max_queue_frames: cfg.max_queue_frames,
                })?;
                Ok(true)
            }
            Message::Hello { major, .. } => {
                let detail = format!("server speaks major {PROTOCOL_MAJOR}, client sent {major}");
                self.reject(RejectCode::VersionUnsupported, 0, detail)?;
                Ok(false)
            }
            other => {
                let detail = format!("expected Hello, got tag 0x{:02x}", other.tag());
                self.reject(RejectCode::NotReady, 0, detail)?;
                Ok(false)
            }
        }
    }

    fn serve(&mut self, rx: &mut FrameBuf) -> io::Result<()> {
        let shared = self.shared;
        let t = &shared.telemetry;
        if !self.handshake(rx)? {
            return Ok(());
        }
        loop {
            let read_start = t.now();
            let Some(frame) = rx.next_frame(&mut self.io)? else {
                return Ok(()); // clean disconnect
            };
            observe_stage(t, "session_read", t.now() - read_start, None);
            // A submit is served from the frame it arrived in; every
            // other request is small and decoded whole.
            let keep_serving = match Submit::decode(frame)? {
                Some(submit) => self.submit(submit)?,
                None => self.request(decode_payload(frame)?)?,
            };
            if !keep_serving {
                return Ok(());
            }
        }
    }

    /// Every request but the two submits.
    fn request(&mut self, msg: Message) -> io::Result<bool> {
        let shared = self.shared;
        let t = &shared.telemetry;
        let reply = match msg {
            Message::OpenStream { stream_id } => return self.open(stream_id),
            Message::Resume {
                stream_id,
                last_seq,
            } => return self.resume(stream_id, last_seq),
            Message::CloseStream { stream_id } => return self.close(stream_id),
            Message::Health => {
                let (sessions, frames, decisions) = shared.totals.totals();
                Message::HealthReport {
                    active_streams: shared.totals.active(),
                    sessions,
                    frames,
                    decisions,
                }
            }
            Message::TelemetryQuery => Message::TelemetryReport {
                jsonl: if t.is_enabled() {
                    t.snapshot().to_jsonl()
                } else {
                    String::new()
                },
            },
            Message::MetricsQuery => metrics_reply(t),
            other => {
                // Server-bound sessions must not receive server-to-client
                // messages (or a second Hello); that is a fatal violation.
                let detail = format!("unexpected message tag 0x{:02x}", other.tag());
                self.refuse(None, RejectCode::Malformed, 0, detail)?;
                return Ok(false);
            }
        };
        self.send(&reply)?;
        Ok(true)
    }

    /// Writes a non-fatal `Rejected` — after releasing `hub` when the
    /// caller holds it: a peer that stops reading must never stall a
    /// shard from under its mutex.
    fn refuse(
        &mut self,
        hub: Option<MutexGuard<'_, DurableHub>>,
        code: RejectCode,
        retry_after_ms: u32,
        detail: String,
    ) -> io::Result<bool> {
        drop(hub);
        self.reject(code, retry_after_ms, detail)?;
        Ok(true)
    }

    /// Writes a `Rejected` reply and counts it under `serve.rejected` with
    /// the code's stable label.
    fn reject(&mut self, code: RejectCode, retry_after_ms: u32, detail: String) -> io::Result<()> {
        let t = &self.shared.telemetry;
        t.add_labeled("serve.rejected", code.label(), 1);
        self.send(&Message::Rejected {
            code,
            retry_after_ms,
            detail,
        })
    }

    /// Claims an admission slot on `stream_id`'s shard. At capacity the
    /// refusal is counted on the shard and its detail returned, for the
    /// caller to [`refuse`](Session::refuse) as `TooManyStreams` with the
    /// retry hint.
    fn claim_slot(&self, stream_id: u32) -> Result<SlotGuard, String> {
        let shared = self.shared;
        let shard = shared.shard_of(stream_id);
        let admission = &shard.admission;
        let gauge = shard.names.active_streams;
        SlotGuard::claim(admission, &shared.totals, &shared.telemetry, gauge).ok_or_else(|| {
            shared.telemetry.add(shard.names.rejected, 1);
            format!(
                "at capacity: {} of {} streams open on stream {stream_id}'s shard",
                admission.active(),
                admission.max_streams()
            )
        })
    }

    fn open(&mut self, stream_id: u32) -> io::Result<bool> {
        let shared = self.shared;
        let (cfg, t) = (&shared.cfg, &shared.telemetry);
        let shard = shared.shard_of(stream_id);
        let mut hub = shard.lock_hub()?;
        // Plain ids are session-scoped. Durable ids are global: the stream
        // exists (maybe parked by a dead session); opening would fork its
        // history, so the client must Resume instead.
        let (lanes, hint) = match &hub {
            None => (&self.lanes, "is already open in this session"),
            Some(hub) => (&hub.lanes, "exists in durable state; send Resume"),
        };
        if lanes.contains_key(&stream_id) {
            let detail = format!("stream {stream_id} {hint}");
            return self.refuse(hub, RejectCode::DuplicateStream, 0, detail);
        }
        let slot = match self.claim_slot(stream_id) {
            Ok(slot) => slot,
            Err(full) => {
                return self.refuse(hub, RejectCode::TooManyStreams, cfg.retry_after_ms, full)
            }
        };
        // From here on the guard owns the slot: any early return releases
        // it.
        let mut predictor = (shared.factory)(stream_id);
        if let Some(r) = hub.as_deref().and_then(|hub| hub.reload.as_ref()) {
            predictor
                .reload_model(r.model.clone(), r.state.clone())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        }
        predictor.set_telemetry(Arc::clone(t));
        predictor.set_policy(cfg.sampling.clone());
        let mut lane = Lane::new(predictor, Some(slot));
        if let Some(spec) = &cfg.resilience {
            let client = ResilientCiClient::new(
                spec.faults.clone(),
                spec.resilience.clone(),
                StageModel::new("ci", spec.ci_fps),
                spec.seed.wrapping_add(stream_id as u64),
            )
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            lane.resilient = Some(client);
            lane.stream_fps = spec.stream_fps;
        }
        let seq = match hub.as_deref_mut() {
            None => {
                self.lanes.insert(stream_id, lane);
                None
            }
            Some(hub) => {
                let dim = lane.predictor.input_dim() as u32;
                let admitted = SessionEvent::StreamAdmitted { stream_id, dim };
                let seq = hub.store.write(&[admitted]).map_err(durable_io)?;
                hub.lanes.insert(stream_id, lane);
                self.owned.insert(stream_id);
                Some(seq)
            }
        };
        drop(hub);
        shard.wait_durable(seq)?;
        t.add("serve.streams_opened", 1);
        t.add(shard.names.streams_opened, 1);
        self.send(&Message::StreamOpened { stream_id })?;
        Ok(true)
    }

    fn resume(&mut self, stream_id: u32, last_seq: u64) -> io::Result<bool> {
        let shard = self.shared.shard_of(stream_id);
        let mut hub = shard.lock_hub()?;
        // A shard without a session log holds durable state for no id.
        let hub_lanes = hub.as_deref_mut().map(|hub| &mut hub.lanes);
        let Some(lane) = hub_lanes.and_then(|lanes| lanes.get_mut(&stream_id)) else {
            let detail = format!("stream {stream_id} has no durable state");
            return self.refuse(hub, RejectCode::UnknownStream, 0, detail);
        };
        if lane.slot.is_some() {
            let detail = format!("stream {stream_id} is attached to a live session");
            return self.refuse(hub, RejectCode::DuplicateStream, 0, detail);
        }
        let next_seq = lane.frames;
        if last_seq > next_seq {
            // Fatal: the client claims acknowledgements the log never
            // committed — it is talking to the wrong server or the wrong
            // directory.
            let detail = format!(
                "stream {stream_id}: client claims {last_seq} accepted \
                 frames, durable state holds {next_seq}"
            );
            self.refuse(hub, RejectCode::Malformed, 0, detail)?;
            return Ok(false);
        }
        let retry_after_ms = self.shared.cfg.retry_after_ms;
        match self.claim_slot(stream_id) {
            Ok(slot) => lane.slot = Some(slot),
            Err(full) => return self.refuse(hub, RejectCode::TooManyStreams, retry_after_ms, full),
        }
        // `next_seq` may count a batch a dead session wrote and never
        // synced: wait for everything written on the shard.
        let seq = hub.as_deref().map(|hub| hub.store.events_applied());
        drop(hub);
        self.owned.insert(stream_id);
        shard.wait_durable(seq)?;
        self.shared.telemetry.add("serve.streams_resumed", 1);
        let resumed = Message::Resumed {
            stream_id,
            next_seq,
        };
        self.send(&resumed)?;
        Ok(true)
    }

    fn close(&mut self, stream_id: u32) -> io::Result<bool> {
        let t = &self.shared.telemetry;
        let shard = self.shared.shard_of(stream_id);
        let mut hub = shard.lock_hub()?;
        let lane = match hub.as_deref_mut() {
            None => self.lanes.remove(&stream_id),
            Some(hub) if self.owned.contains(&stream_id) => hub.lanes.remove(&stream_id),
            Some(_) => None,
        };
        let Some(lane) = lane else {
            let detail = format!("stream {stream_id} is not open in this session");
            return self.refuse(hub, RejectCode::UnknownStream, 0, detail);
        };
        self.owned.remove(&stream_id);
        let mut seq = None;
        if let Some(hub) = hub.as_deref_mut() {
            let closed = SessionEvent::StreamClosed { stream_id };
            seq = Some(hub.store.write(&[closed]).map_err(durable_io)?);
            hub.maybe_snapshot(t).map_err(durable_io)?;
        }
        drop(hub);
        shard.wait_durable(seq)?;
        t.add("serve.streams_closed", 1);
        let closed = Message::StreamClosed {
            stream_id,
            summary: StreamSummary {
                frames: lane.frames,
                decisions: lane.decisions,
            },
        };
        self.send(&closed)?;
        Ok(true)
    }

    /// `SubmitFrames` / `SubmitTraced`: admission checks, the synchronous
    /// feed with stage timing, and the (traced) decisions reply. On a
    /// durable server the batch is fed and then written to the session
    /// log as one record batch (`FramesPushed` followed by a
    /// `DecisionEmitted` per decision — one `write_all`) under the hub
    /// mutex; outside it the session waits for the one flush that makes
    /// the batch durable, and only then replies. Write plus wait is the
    /// `durable_commit` stage.
    fn submit(&mut self, submit: Submit<'_>) -> io::Result<bool> {
        let Submit {
            trace_id: trace,
            stream_id,
            dim,
            data,
        } = submit;
        let shared = self.shared;
        let (cfg, t) = (&shared.cfg, &shared.telemetry);
        let batch_start = t.now();
        let shard = shared.shard_of(stream_id);
        let mut hub = shard.lock_hub()?;
        let lane = match hub.as_deref_mut() {
            None => self.lanes.get_mut(&stream_id),
            Some(hub) if self.owned.contains(&stream_id) => hub.lanes.get_mut(&stream_id),
            Some(_) => None,
        };
        let Some(lane) = lane else {
            let detail = format!("stream {stream_id} is not open in this session");
            return self.refuse(hub, RejectCode::UnknownStream, 0, detail);
        };
        let expected = lane.predictor.input_dim() as u32;
        if dim != expected {
            // Fatal: the peer disagrees about the feature space.
            let detail = format!("stream {stream_id} expects dim {expected}, got {dim}");
            self.refuse(hub, RejectCode::Malformed, 0, detail)?;
            return Ok(false);
        }
        let width = dim.max(1) as usize;
        let rows = data.len() / width;
        if rows > cfg.max_batch_frames as usize {
            let detail = format!(
                "batch of {rows} frames exceeds the {} cap; split it",
                cfg.max_batch_frames
            );
            return self.refuse(hub, RejectCode::BatchTooLarge, 0, detail);
        }
        if rows > cfg.max_queue_frames as usize {
            let detail = format!(
                "batch of {rows} frames exceeds stream {stream_id}'s bound of {} frames",
                cfg.max_queue_frames
            );
            return self.refuse(hub, RejectCode::QueueFull, 0, detail);
        }
        // `queue_wait`: batch accepted → feed start. Lane lookup,
        // validation and, on a durable server, the wait for the hub mutex.
        let feed_start = t.now();
        let drained = lane.feed(data, width, trace);
        let drained_at = t.now();
        lane.frames += rows as u64;
        lane.decisions += drained.len() as u64;
        // Fed, then written, all under the mutex: the log holds the batch
        // and its decisions in application order, contiguously — and never
        // a batch that panicked the predictor. Nothing is acknowledged
        // until the flush below covers `seq`, so a crash in between loses
        // only work no client ever saw.
        let mut seq = None;
        if let Some(hub) = hub.as_deref_mut() {
            let mut events = Vec::with_capacity(1 + drained.len());
            // The one copy of the rows: the event must own them.
            events.push(SessionEvent::FramesPushed {
                stream_id,
                dim,
                data: data.iter().collect(),
            });
            events.extend(drained.iter().map(|d| SessionEvent::DecisionEmitted {
                stream_id,
                anchor: d.anchor,
                fingerprint: decision_fingerprint(d),
            }));
            seq = Some(hub.store.write(&events).map_err(durable_io)?);
            hub.maybe_snapshot(t).map_err(durable_io)?;
        }
        drop(hub);
        shard.wait_durable(seq)?;
        let queue_wait = feed_start - batch_start;
        observe_stage(t, "queue_wait", queue_wait, trace);
        let mut stages = [
            ("queue_wait", queue_wait),
            ("drain", drained_at - feed_start),
            ("durable_commit", 0.0),
        ];
        // A plain server has no commit stage.
        let stages = if seq.is_some() {
            stages[2].1 = t.now() - drained_at;
            observe_stage(t, "durable_commit", stages[2].1, trace);
            &stages[..]
        } else {
            &stages[..2]
        };
        let decisions: Vec<WireDecision> = drained.iter().map(decision_to_wire).collect();
        count_batch(shared, stream_id, rows, decisions.len());
        let elapsed = stages.iter().map(|&(_, seconds)| seconds).sum();
        record_decisions(t, trace, stream_id, &drained, elapsed, stages);
        let write_start = t.now();
        let reply = decisions_reply(trace, stream_id, decisions);
        self.send(&reply)?;
        observe_stage(t, "reply_write", t.now() - write_start, trace);
        Ok(true)
    }

    /// Session end. Dropping the plain lanes drops their slot guards,
    /// returning every stream the session still held to the pool. Durable
    /// lanes survive the session: park whatever it still drives — dropping
    /// the slot guard releases the admission slot and refreshes the gauges
    /// — so a future `Resume` (possibly after a server restart) picks up
    /// exactly where this connection stopped. Each stream parks in its
    /// owning shard's hub.
    fn end(self) {
        let t = &self.shared.telemetry;
        if !self.lanes.is_empty() {
            t.add("serve.streams_aborted", self.lanes.len() as u64);
        }
        // A hub that cannot be locked (poisoned) keeps its lanes attached:
        // they may be ahead of the log and must never be resumed.
        for id in &self.owned {
            if let Ok(Some(mut hub)) = self.shared.shard_of(*id).lock_hub() {
                if let Some(lane) = hub.lanes.get_mut(id) {
                    lane.slot = None;
                }
                t.add("serve.streams_parked", 1);
            }
        }
    }
}

/// Records one `serve.stage_seconds` sample, attaching the batch's trace
/// id as a histogram exemplar when the request carried one.
fn observe_stage(t: &Telemetry, stage: &'static str, seconds: f64, trace: Option<u64>) {
    match trace {
        Some(id) => t.observe_traced("serve.stage_seconds", stage, seconds, id),
        None => t.observe_labeled("serve.stage_seconds", stage, seconds),
    }
}

/// Per-decision observability: the `serve.decision_seconds` series the
/// registered SLO burns against (traced when the batch carried a trace
/// id), plus one bounded slow-log entry per decision carrying the stage
/// breakdown.
fn record_decisions(
    t: &Telemetry,
    trace: Option<u64>,
    stream_id: u32,
    drained: &[HorizonDecision],
    elapsed: f64,
    stages: &[(&'static str, f64)],
) {
    if !t.is_enabled() {
        return;
    }
    for d in drained {
        match trace {
            Some(id) => t.observe_traced("serve.decision_seconds", "", elapsed, id),
            None => t.observe("serve.decision_seconds", elapsed),
        }
        t.slow_decision(SlowDecision {
            duration_seconds: elapsed,
            stream_id,
            anchor: d.anchor,
            trace_id: trace.unwrap_or(0),
            stages: stages.to_vec(),
        });
    }
}

/// Counts an accepted batch: the fleet-wide totals behind `Health`, the
/// global serve counters, the owning shard's `serve.shard{N}.*` scope,
/// and the per-stream `serve.stream_frames` rate series.
fn count_batch(shared: &Shared, stream_id: u32, rows: usize, decisions: usize) {
    let t = &shared.telemetry;
    let names = shared.shard_of(stream_id).names;
    shared.totals.add_frames(rows as u64);
    shared.totals.add_decisions(decisions as u64);
    t.add("serve.frames", rows as u64);
    t.add("serve.decisions", decisions as u64);
    t.add(names.frames, rows as u64);
    t.add(names.decisions, decisions as u64);
    if t.is_enabled() && rows > 0 {
        t.observe_labeled("serve.stream_frames", &stream_id.to_string(), rows as f64);
    }
}

/// `Decisions` or `TracedDecisions` depending on whether the submit
/// carried a trace id — traced pushes get the id echoed back verbatim.
fn decisions_reply(trace: Option<u64>, stream_id: u32, decisions: Vec<WireDecision>) -> Message {
    match trace {
        Some(trace_id) => Message::TracedDecisions {
            trace_id,
            stream_id,
            decisions,
        },
        None => Message::Decisions {
            stream_id,
            decisions,
        },
    }
}

/// Builds a `MetricsReply` from the live recorder: every counter, the
/// windowed time-series ring behind every histogram, and the registered
/// SLOs, all in deterministic `(name, label)` order.
fn metrics_reply(t: &Telemetry) -> Message {
    let snap = t.snapshot();
    Message::MetricsReply {
        clock_now: t.now(),
        window_secs: snap.window_secs,
        counters: snap
            .counters
            .iter()
            .map(|(name, label, value)| WireCounter {
                name: name.clone(),
                label: label.clone(),
                value: *value,
            })
            .collect(),
        series: snap
            .windows
            .iter()
            .map(|(name, label, ws)| WireSeries {
                name: name.clone(),
                label: label.clone(),
                windows: ws
                    .iter()
                    .map(|w| WireWindow {
                        index: w.index,
                        count: w.count,
                        sum: w.sum,
                        p50: w.p50,
                        p99: w.p99,
                    })
                    .collect(),
            })
            .collect(),
        slos: snap
            .slos
            .iter()
            .map(|(name, label, s)| WireSlo {
                name: name.clone(),
                label: label.clone(),
                threshold: s.threshold,
                objective: s.objective,
                total: s.total,
                violations: s.violations,
            })
            .collect(),
    }
}
