//! The TCP serving frontend: sessions multiplexed onto a [`Pool`], one
//! `OnlinePredictor` lane per admitted stream, streams partitioned across
//! shards by a deterministic router.
//!
//! # Determinism
//!
//! Each admitted stream gets its own predictor from the [`LaneFactory`]
//! and its own bounded queue — no state is shared between streams, and a
//! session drains each accepted batch through the lane synchronously
//! before replying. A stream's decision sequence is therefore a pure
//! function of its own frame sequence, exactly as in the in-process
//! `run_lanes` path, regardless of how many sessions run concurrently,
//! how many workers the pool has, or how many shards the server runs.
//! The loopback soak tests in `tests/serve.rs` and `tests/fleet_serve.rs`
//! check this bit-for-bit.
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
//! (`TooManyStreams`), batches beyond [`ServeConfig::max_batch_frames`]
//! are refused (`BatchTooLarge`), and batches that do not fit the
//! per-stream queue are refused whole (`QueueFull`) with a
//! `retry_after_ms` hint — the client keeps the data and retries; the
//! server's memory stays bounded by its configuration.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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

use crate::admission::{AdmissionController, FrameQueue, ServeTotals, SlotGuard};
use crate::convert::decision_to_wire;
use crate::protocol::{
    read_message, write_message, Message, RejectCode, StreamSummary, WireCounter, WireDecision,
    WireSeries, WireSlo, WireWindow, PROTOCOL_MAJOR, PROTOCOL_MINOR,
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
    /// Per-stream ingest-queue bound, in frames.
    pub max_queue_frames: u32,
    /// Backpressure hint attached to `TooManyStreams` / `QueueFull`
    /// rejections, in milliseconds.
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

/// One admitted stream. Non-durable lanes live inside their session and
/// always hold their admission [`SlotGuard`]; durable lanes live in the
/// [`DurableHub`] and hold a guard exactly while a live session drives
/// them — a parked lane (`slot: None`) has released its slot and waits
/// for a `Resume` to claim a fresh one.
struct Lane {
    predictor: OnlinePredictor,
    queue: FrameQueue,
    resilient: Option<ResilientCiClient>,
    stream_fps: f64,
    frames: u64,
    decisions: u64,
    slot: Option<SlotGuard>,
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

/// The durable half of a shard: the hub its sessions mutate under one
/// mutex, and the log's commit handle they wait on *after* leaving it —
/// so one session's flush overlaps the other sessions' decode, predictor
/// work and replies instead of queueing them behind the disk.
struct DurableShard {
    hub: Mutex<DurableHub>,
    commit: Arc<CommitHandle>,
}

impl DurableShard {
    /// Locks the hub. A session that panicked mid-update poisoned it and
    /// left lanes possibly ahead of the log: every later session of the
    /// shard ends with this error instead of panicking in turn.
    fn lock(&self) -> io::Result<MutexGuard<'_, DurableHub>> {
        self.hub.lock().map_err(|_| {
            io::Error::other("durable hub poisoned by a panicked session; the shard is stopped")
        })
    }

    /// Blocks until every record up to `seq` is on disk — the gate in
    /// front of every reply that acknowledges a state change.
    fn wait_durable(&self, seq: u64) -> io::Result<()> {
        self.commit.wait_durable(seq).map_err(durable_io)
    }
}

struct Shared {
    listener: TcpListener,
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

    /// True iff the server journals durably (all shards do, or none).
    fn is_durable(&self) -> bool {
        self.shards[0].durable.is_some()
    }
}

/// Maps a durable-layer failure onto the session's `io::Result` plumbing.
fn durable_io(e: DurableError) -> io::Error {
    io::Error::other(e.to_string())
}

/// The shard's durable half; an error on a server bound without one.
fn durable_of(shard: &Shard) -> io::Result<&DurableShard> {
    shard
        .durable
        .as_ref()
        .ok_or_else(|| io::Error::other("durable request on a shard without a session log"))
}

/// The session drives `stream_id` but its shard's hub holds no such lane.
fn lane_missing(stream_id: u32) -> io::Error {
    io::Error::other(format!(
        "stream {stream_id} is owned by this session but missing from its shard's hub"
    ))
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
                                    predictor,
                                    queue: FrameQueue::new(cfg.max_queue_frames as usize),
                                    resilient: None,
                                    stream_fps: 30.0,
                                    frames: rl.frames,
                                    decisions: rl.decisions,
                                    slot: None,
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
        let addrs: Vec<SocketAddr> = cfg.addr.to_socket_addrs()?.collect();
        let listener = TcpListener::bind(&addrs[..])?;
        // The serving SLO the `serve.decision_seconds` series burns
        // against: p99 of decision latency under 50 ms.
        telemetry.set_slo("serve.decision_seconds", "", 0.050, 0.99);
        Ok(Server {
            shared: Arc::new(Shared {
                listener,
                cfg,
                factory,
                router,
                shards,
                totals: Arc::new(ServeTotals::new()),
                telemetry,
            }),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.shared.listener.local_addr()
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
        let serve_one = |_i: usize, ()| {
            if let Ok((sock, _peer)) = shared.listener.accept() {
                serve_session(shared, sock);
            }
        };
        let shards = shared.cfg.shards as usize;
        if shards <= 1 {
            pool.run_tasks(vec![(); n], serve_one);
            return;
        }
        let shard_pool = self.shard_pool(pool.workers());
        std::thread::scope(|scope| {
            for i in 0..shards {
                let quota = n / shards + usize::from(i < n % shards);
                if quota == 0 {
                    continue;
                }
                let shard_pool = shard_pool.clone();
                let serve_one = &serve_one;
                scope.spawn(move || shard_pool.run_tasks(vec![(); quota], serve_one));
            }
        });
    }

    /// The per-shard session pool: `workers_per_shard` workers, falling
    /// back to the caller's pool width when unset.
    fn shard_pool(&self, fallback_workers: usize) -> Pool {
        let w = self.shared.cfg.workers_per_shard;
        Pool::new(if w > 0 { w } else { fallback_workers })
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
    /// and post-reload decisions exactly.
    pub fn reload_model(&self, mut model: EventHit, state: ConformalState) -> io::Result<u64> {
        if !self.shared.is_durable() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "model hot-reload requires durable serving (the swap must be journaled)",
            ));
        }
        // Every shard journals the reload in its own log (replay of any
        // one shard's directory must be self-contained); the fingerprint
        // is a pure function of the weights, so all shards agree on it.
        let mut fingerprint = 0;
        for shard in &self.shared.shards {
            let durable = durable_of(shard)?;
            let mut hub = durable.lock()?;
            fingerprint = hub
                .store
                .save_reload(&mut model, &state)
                .map_err(durable_io)?;
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
            durable.wait_durable(seq)?;
        }
        self.shared.telemetry.add("serve.model_reloads", 1);
        Ok(fingerprint)
    }

    /// Test hook: makes the `nth` log sync from now on `shard` fail (see
    /// `CommitHandle::fail_sync_at`), to drive the fail-stop path.
    #[doc(hidden)]
    pub fn fail_durable_sync_at(&self, shard: u32, nth: u64) -> io::Result<()> {
        let shard = self
            .shared
            .shards
            .get(shard as usize)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no such shard"))?;
        durable_of(shard)?.commit.fail_sync_at(nth);
        Ok(())
    }

    /// Serves sessions until the process exits: every pool worker loops
    /// on accept. Intended for the `eventhit-cli serve` command; tests
    /// use [`Server::serve_sessions`] so the server can wind down.
    pub fn serve_forever(&self, pool: &Pool) {
        let shared = &self.shared;
        let accept_loop = |_i: usize, ()| loop {
            match shared.listener.accept() {
                Ok((sock, _peer)) => serve_session(shared, sock),
                Err(_) => return,
            }
        };
        let shards = shared.cfg.shards as usize;
        if shards <= 1 {
            pool.run_tasks(vec![(); pool.workers().max(1)], accept_loop);
            return;
        }
        let shard_pool = self.shard_pool(pool.workers());
        std::thread::scope(|scope| {
            for _ in 0..shards {
                let shard_pool = shard_pool.clone();
                let accept_loop = &accept_loop;
                scope.spawn(move || {
                    shard_pool.run_tasks(vec![(); shard_pool.workers().max(1)], accept_loop)
                });
            }
        });
    }
}

/// Serves one connection to completion. Any I/O error or protocol
/// violation ends the session; cleanup releases every stream slot the
/// session still holds, so lanes freed by a mid-session disconnect are
/// immediately reusable by new sessions.
fn serve_session(shared: &Shared, sock: TcpStream) {
    let t = &shared.telemetry;
    let _span = t.span("serve.session");
    shared.totals.session_started();
    t.add("serve.sessions", 1);

    let outcome = if shared.is_durable() {
        let mut owned: BTreeSet<u32> = BTreeSet::new();
        let outcome = durable_session_loop(shared, &sock, &mut owned);
        // Durable cleanup: lanes survive the session. Park whatever the
        // session still drives — dropping the slot guard releases the
        // admission slot and refreshes the gauges — so a future `Resume`
        // (possibly after a server restart) picks up exactly where this
        // connection stopped. Each stream parks in its owning shard's
        // hub.
        // A hub that cannot be locked (poisoned) keeps its lanes attached:
        // they may be ahead of the log and must never be resumed.
        for id in &owned {
            if let Ok(mut hub) = durable_of(shared.shard_of(*id)).and_then(DurableShard::lock) {
                if let Some(lane) = hub.lanes.get_mut(id) {
                    lane.slot = None;
                }
                t.add("serve.streams_parked", 1);
            }
        }
        outcome
    } else {
        let mut lanes: BTreeMap<u32, Lane> = BTreeMap::new();
        let outcome = session_loop(shared, &sock, &mut lanes);
        // Cleanup: dropping the lanes drops their slot guards, returning
        // every stream the session still held to the pool.
        if !lanes.is_empty() {
            t.add("serve.streams_aborted", lanes.len() as u64);
        }
        drop(lanes);
        outcome
    };
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
}

/// Performs the `Hello`/`HelloAck` handshake. Returns `Ok(false)` when
/// the session should end without entering the request loop (immediate
/// EOF, or a version rejection already written).
fn handshake(shared: &Shared, chan: &mut &TcpStream) -> io::Result<bool> {
    let cfg = &shared.cfg;
    let t = &shared.telemetry;
    let hello = match read_message(chan)? {
        Some(m) => m,
        None => return Ok(false), // connected and left; fine
    };
    match hello {
        Message::Hello { major, minor } if major == PROTOCOL_MAJOR => {
            write_message(
                chan,
                // Minor negotiation: run at min(client, server).
                &Message::HelloAck {
                    major: PROTOCOL_MAJOR,
                    minor: minor.min(PROTOCOL_MINOR),
                    max_streams: cfg.max_streams,
                    max_batch_frames: cfg.max_batch_frames,
                    max_queue_frames: cfg.max_queue_frames,
                },
            )?;
            Ok(true)
        }
        Message::Hello { major, .. } => {
            reject(
                chan,
                t,
                RejectCode::VersionUnsupported,
                0,
                format!("server speaks major {PROTOCOL_MAJOR}, client sent {major}"),
            )?;
            Ok(false)
        }
        other => {
            reject(
                chan,
                t,
                RejectCode::NotReady,
                0,
                format!("expected Hello, got tag 0x{:02x}", other.tag()),
            )?;
            Ok(false)
        }
    }
}

/// Runs the handshake and then the request loop. `Ok(())` is a clean
/// disconnect (EOF between frames); `Err` is an I/O failure or a fatal
/// protocol violation after which the socket is abandoned.
fn session_loop(
    shared: &Shared,
    sock: &TcpStream,
    lanes: &mut BTreeMap<u32, Lane>,
) -> io::Result<()> {
    let cfg = &shared.cfg;
    let t = &shared.telemetry;
    let mut chan = sock;

    if !handshake(shared, &mut chan)? {
        return Ok(());
    }

    // --- Request loop.
    loop {
        let read_start = t.now();
        let msg = match read_message(&mut chan) {
            Ok(Some(m)) => m,
            Ok(None) => return Ok(()), // clean disconnect
            Err(e) => return Err(e),
        };
        observe_stage(t, "session_read", t.now() - read_start, None);
        match msg {
            Message::OpenStream { stream_id } => {
                if lanes.contains_key(&stream_id) {
                    reject(
                        &mut chan,
                        t,
                        RejectCode::DuplicateStream,
                        0,
                        format!("stream {stream_id} is already open in this session"),
                    )?;
                    continue;
                }
                let shard = shared.shard_of(stream_id);
                let Some(slot) = SlotGuard::claim(
                    &shard.admission,
                    &shared.totals,
                    t,
                    shard.names.active_streams,
                ) else {
                    t.add(shard.names.rejected, 1);
                    reject(
                        &mut chan,
                        t,
                        RejectCode::TooManyStreams,
                        cfg.retry_after_ms,
                        format!(
                            "at capacity: {} of {} streams open on stream {stream_id}'s shard",
                            shard.admission.active(),
                            shard.admission.max_streams()
                        ),
                    )?;
                    continue;
                };
                // From here on the guard owns the slot: any early return
                // (like a resilient-wiring failure) releases it.
                let mut predictor = (shared.factory)(stream_id);
                predictor.set_telemetry(Arc::clone(t));
                predictor.set_policy(cfg.sampling.clone());
                let resilient = match &cfg.resilience {
                    None => None,
                    Some(spec) => {
                        let client = ResilientCiClient::new(
                            spec.faults.clone(),
                            spec.resilience.clone(),
                            StageModel::new("ci", spec.ci_fps),
                            spec.seed.wrapping_add(stream_id as u64),
                        )
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
                        Some(client)
                    }
                };
                lanes.insert(
                    stream_id,
                    Lane {
                        predictor,
                        queue: FrameQueue::new(cfg.max_queue_frames as usize),
                        resilient,
                        stream_fps: cfg
                            .resilience
                            .as_ref()
                            .map(|s| s.stream_fps)
                            .unwrap_or(30.0),
                        frames: 0,
                        decisions: 0,
                        slot: Some(slot),
                    },
                );
                t.add("serve.streams_opened", 1);
                t.add(shard.names.streams_opened, 1);
                write_message(&mut chan, &Message::StreamOpened { stream_id })?;
            }

            Message::SubmitFrames {
                stream_id,
                dim,
                data,
            } => {
                if !submit_plain(shared, &mut chan, lanes, None, stream_id, dim, data)? {
                    return Ok(());
                }
            }

            Message::SubmitTraced {
                trace_id,
                stream_id,
                dim,
                data,
            } => {
                if !submit_plain(
                    shared,
                    &mut chan,
                    lanes,
                    Some(trace_id),
                    stream_id,
                    dim,
                    data,
                )? {
                    return Ok(());
                }
            }

            Message::CloseStream { stream_id } => {
                let Some(lane) = lanes.remove(&stream_id) else {
                    reject(
                        &mut chan,
                        t,
                        RejectCode::UnknownStream,
                        0,
                        format!("stream {stream_id} is not open"),
                    )?;
                    continue;
                };
                t.add("serve.streams_closed", 1);
                write_message(
                    &mut chan,
                    &Message::StreamClosed {
                        stream_id,
                        summary: StreamSummary {
                            frames: lane.frames,
                            decisions: lane.decisions,
                        },
                    },
                )?;
            }

            Message::Health => {
                let (sessions, frames, decisions) = shared.totals.totals();
                write_message(
                    &mut chan,
                    &Message::HealthReport {
                        active_streams: shared.totals.active(),
                        sessions,
                        frames,
                        decisions,
                    },
                )?;
            }

            Message::TelemetryQuery => {
                let jsonl = if t.is_enabled() {
                    t.snapshot().to_jsonl()
                } else {
                    String::new()
                };
                write_message(&mut chan, &Message::TelemetryReport { jsonl })?;
            }

            Message::MetricsQuery => {
                write_message(&mut chan, &metrics_reply(t))?;
            }

            other => {
                // Server-bound sessions must not receive server-to-client
                // messages (or a second Hello); that is a fatal violation.
                reject(
                    &mut chan,
                    t,
                    RejectCode::Malformed,
                    0,
                    format!("unexpected message tag 0x{:02x}", other.tag()),
                )?;
                return Ok(());
            }
        }
    }
}

/// The request loop for durable servers. Lanes live in their shard's
/// [`DurableHub`] (they must survive the session); this session drives
/// the subset in `owned`. Every state change is written to the log under
/// the hub mutex and synced *before* the reply is written, so anything a
/// client ever observed is recoverable after a crash. A failed write or
/// sync ends the session with no reply (and stops the shard: see
/// [`CommitHandle`]).
fn durable_session_loop(
    shared: &Shared,
    sock: &TcpStream,
    owned: &mut BTreeSet<u32>,
) -> io::Result<()> {
    let cfg = &shared.cfg;
    let t = &shared.telemetry;
    let mut chan = sock;

    if !handshake(shared, &mut chan)? {
        return Ok(());
    }

    loop {
        let read_start = t.now();
        let msg = match read_message(&mut chan) {
            Ok(Some(m)) => m,
            Ok(None) => return Ok(()), // clean disconnect; lanes get parked
            Err(e) => return Err(e),
        };
        observe_stage(t, "session_read", t.now() - read_start, None);
        match msg {
            Message::OpenStream { stream_id } => {
                let shard = shared.shard_of(stream_id);
                let durable = durable_of(shard)?;
                let mut hub = durable.lock()?;
                if hub.lanes.contains_key(&stream_id) {
                    // Durable ids are global: the stream exists (maybe
                    // parked by a dead session). Opening would fork its
                    // history; the client must Resume instead.
                    drop(hub);
                    reject(
                        &mut chan,
                        t,
                        RejectCode::DuplicateStream,
                        0,
                        format!("stream {stream_id} exists in durable state; send Resume"),
                    )?;
                    continue;
                }
                let Some(slot) = SlotGuard::claim(
                    &shard.admission,
                    &shared.totals,
                    t,
                    shard.names.active_streams,
                ) else {
                    drop(hub);
                    t.add(shard.names.rejected, 1);
                    reject(
                        &mut chan,
                        t,
                        RejectCode::TooManyStreams,
                        cfg.retry_after_ms,
                        format!(
                            "at capacity: {} of {} streams open on stream {stream_id}'s shard",
                            shard.admission.active(),
                            shard.admission.max_streams()
                        ),
                    )?;
                    continue;
                };
                let mut predictor = (shared.factory)(stream_id);
                if let Some(r) = &hub.reload {
                    predictor
                        .reload_model(r.model.clone(), r.state.clone())
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                }
                predictor.set_telemetry(Arc::clone(t));
                let dim = predictor.input_dim() as u32;
                let seq = hub
                    .store
                    .write(&[SessionEvent::StreamAdmitted { stream_id, dim }])
                    .map_err(durable_io)?;
                hub.lanes.insert(
                    stream_id,
                    Lane {
                        predictor,
                        queue: FrameQueue::new(cfg.max_queue_frames as usize),
                        resilient: None,
                        stream_fps: 30.0,
                        frames: 0,
                        decisions: 0,
                        slot: Some(slot),
                    },
                );
                drop(hub);
                owned.insert(stream_id);
                durable.wait_durable(seq)?;
                t.add("serve.streams_opened", 1);
                t.add(shard.names.streams_opened, 1);
                write_message(&mut chan, &Message::StreamOpened { stream_id })?;
            }

            Message::Resume {
                stream_id,
                last_seq,
            } => {
                let shard = shared.shard_of(stream_id);
                let durable = durable_of(shard)?;
                let mut hub = durable.lock()?;
                let Some(lane) = hub.lanes.get_mut(&stream_id) else {
                    drop(hub);
                    reject(
                        &mut chan,
                        t,
                        RejectCode::UnknownStream,
                        0,
                        format!("stream {stream_id} has no durable state"),
                    )?;
                    continue;
                };
                if lane.slot.is_some() {
                    drop(hub);
                    reject(
                        &mut chan,
                        t,
                        RejectCode::DuplicateStream,
                        0,
                        format!("stream {stream_id} is attached to a live session"),
                    )?;
                    continue;
                }
                if last_seq > lane.frames {
                    // Fatal: the client claims acknowledgements the log
                    // never committed — it is talking to the wrong server
                    // or the wrong directory.
                    let have = lane.frames;
                    drop(hub);
                    reject(
                        &mut chan,
                        t,
                        RejectCode::Malformed,
                        0,
                        format!(
                            "stream {stream_id}: client claims {last_seq} accepted \
                             frames, durable state holds {have}"
                        ),
                    )?;
                    return Ok(());
                }
                let Some(slot) = SlotGuard::claim(
                    &shard.admission,
                    &shared.totals,
                    t,
                    shard.names.active_streams,
                ) else {
                    drop(hub);
                    t.add(shard.names.rejected, 1);
                    reject(
                        &mut chan,
                        t,
                        RejectCode::TooManyStreams,
                        cfg.retry_after_ms,
                        format!(
                            "at capacity: {} of {} streams open on stream {stream_id}'s shard",
                            shard.admission.active(),
                            shard.admission.max_streams()
                        ),
                    )?;
                    continue;
                };
                lane.slot = Some(slot);
                let next_seq = lane.frames;
                // `next_seq` may count a batch a dead session wrote and
                // never synced: wait for everything written on the shard.
                let seq = hub.store.events_applied();
                drop(hub);
                owned.insert(stream_id);
                durable.wait_durable(seq)?;
                t.add("serve.streams_resumed", 1);
                write_message(
                    &mut chan,
                    &Message::Resumed {
                        stream_id,
                        next_seq,
                    },
                )?;
            }

            Message::SubmitFrames {
                stream_id,
                dim,
                data,
            } => {
                if !submit_durable(shared, &mut chan, owned, None, stream_id, dim, data)? {
                    return Ok(());
                }
            }

            Message::SubmitTraced {
                trace_id,
                stream_id,
                dim,
                data,
            } => {
                if !submit_durable(
                    shared,
                    &mut chan,
                    owned,
                    Some(trace_id),
                    stream_id,
                    dim,
                    data,
                )? {
                    return Ok(());
                }
            }

            Message::CloseStream { stream_id } => {
                if !owned.contains(&stream_id) {
                    reject(
                        &mut chan,
                        t,
                        RejectCode::UnknownStream,
                        0,
                        format!("stream {stream_id} is not open in this session"),
                    )?;
                    continue;
                }
                let durable = durable_of(shared.shard_of(stream_id))?;
                let mut hub = durable.lock()?;
                let lane = hub
                    .lanes
                    .remove(&stream_id)
                    .ok_or_else(|| lane_missing(stream_id))?;
                let seq = hub
                    .store
                    .write(&[SessionEvent::StreamClosed { stream_id }])
                    .map_err(durable_io)?;
                hub.maybe_snapshot(t).map_err(durable_io)?;
                drop(hub);
                owned.remove(&stream_id);
                durable.wait_durable(seq)?;
                t.add("serve.streams_closed", 1);
                write_message(
                    &mut chan,
                    &Message::StreamClosed {
                        stream_id,
                        summary: StreamSummary {
                            frames: lane.frames,
                            decisions: lane.decisions,
                        },
                    },
                )?;
            }

            Message::Health => {
                let (sessions, frames, decisions) = shared.totals.totals();
                write_message(
                    &mut chan,
                    &Message::HealthReport {
                        active_streams: shared.totals.active(),
                        sessions,
                        frames,
                        decisions,
                    },
                )?;
            }

            Message::TelemetryQuery => {
                let jsonl = if t.is_enabled() {
                    t.snapshot().to_jsonl()
                } else {
                    String::new()
                };
                write_message(&mut chan, &Message::TelemetryReport { jsonl })?;
            }

            Message::MetricsQuery => {
                write_message(&mut chan, &metrics_reply(t))?;
            }

            other => {
                reject(
                    &mut chan,
                    t,
                    RejectCode::Malformed,
                    0,
                    format!("unexpected message tag 0x{:02x}", other.tag()),
                )?;
                return Ok(());
            }
        }
    }
}

impl Lane {
    /// Feeds one frame through the lane's predictor; with resilient
    /// wiring, relayed segments are submitted through the CI client and
    /// the submission's degradation tag replaces the decision's.
    fn push(&mut self, row: &[f32]) -> Option<eventhit_core::streaming::HorizonDecision> {
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
}

/// Writes a `Rejected` reply and counts it under `serve.rejected` with
/// the code's stable label.
fn reject(
    io: &mut impl io::Write,
    t: &Telemetry,
    code: RejectCode,
    retry_after_ms: u32,
    detail: String,
) -> io::Result<()> {
    t.add_labeled("serve.rejected", code.label(), 1);
    write_message(
        io,
        &Message::Rejected {
            code,
            retry_after_ms,
            detail,
        },
    )
}

/// Records one `serve.stage_seconds` sample, attaching the batch's trace
/// id as a histogram exemplar when the request carried one.
fn observe_stage(t: &Telemetry, stage: &'static str, seconds: f64, trace: Option<u64>) {
    match trace {
        Some(id) => t.observe_traced("serve.stage_seconds", stage, seconds, id),
        None => t.observe_labeled("serve.stage_seconds", stage, seconds),
    }
}

/// Drains everything queued on `lane` through its predictor with the
/// batch's trace attached, so the predictor's inference / conformal
/// stage samples carry the client's trace id as exemplars.
fn drain_lane(lane: &mut Lane, trace: Option<u64>) -> Vec<HorizonDecision> {
    lane.predictor.set_trace(trace);
    let mut out = Vec::new();
    while let Some(row) = lane.queue.pop() {
        if let Some(d) = lane.push(&row) {
            out.push(d);
        }
    }
    lane.predictor.set_trace(None);
    out
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

/// Shared `SubmitFrames` / `SubmitTraced` handling for non-durable
/// sessions: admission checks, the synchronous drain with stage timing,
/// and the (traced) decisions reply. `Ok(false)` means the violation was
/// fatal and the session must end.
#[allow(clippy::too_many_arguments)]
fn submit_plain(
    shared: &Shared,
    chan: &mut &TcpStream,
    lanes: &mut BTreeMap<u32, Lane>,
    trace: Option<u64>,
    stream_id: u32,
    dim: u32,
    data: Vec<f32>,
) -> io::Result<bool> {
    let cfg = &shared.cfg;
    let t = &shared.telemetry;
    let batch_start = t.now();
    let Some(lane) = lanes.get_mut(&stream_id) else {
        reject(
            chan,
            t,
            RejectCode::UnknownStream,
            0,
            format!("stream {stream_id} is not open"),
        )?;
        return Ok(true);
    };
    let expected = lane.predictor.input_dim() as u32;
    if dim != expected {
        // Fatal: the peer disagrees about the feature space.
        reject(
            chan,
            t,
            RejectCode::Malformed,
            0,
            format!("stream {stream_id} expects dim {expected}, got {dim}"),
        )?;
        return Ok(false);
    }
    let rows = if dim == 0 {
        0
    } else {
        data.len() / dim as usize
    };
    if rows as u32 > cfg.max_batch_frames {
        reject(
            chan,
            t,
            RejectCode::BatchTooLarge,
            0,
            format!(
                "batch of {rows} frames exceeds the {} cap; split it",
                cfg.max_batch_frames
            ),
        )?;
        return Ok(true);
    }
    if rows > lane.queue.free() {
        reject(
            chan,
            t,
            RejectCode::QueueFull,
            cfg.retry_after_ms,
            format!(
                "stream {stream_id} queue has {} of {} frames free",
                lane.queue.free(),
                cfg.max_queue_frames
            ),
        )?;
        return Ok(true);
    }
    let batch: Vec<Vec<f32>> = data
        .chunks(dim.max(1) as usize)
        .map(<[f32]>::to_vec)
        .collect();
    lane.queue
        .try_enqueue(batch)
        .expect("free space was checked");
    let enqueued_at = t.now();
    let drain_start = t.now();
    let drained = drain_lane(lane, trace);
    let drained_at = t.now();
    observe_stage(t, "queue_wait", drain_start - enqueued_at, trace);
    lane.frames += rows as u64;
    lane.decisions += drained.len() as u64;
    let decisions: Vec<WireDecision> = drained.iter().map(decision_to_wire).collect();
    count_batch(shared, stream_id, rows, decisions.len());
    record_decisions(
        t,
        trace,
        stream_id,
        &drained,
        drained_at - batch_start,
        &[
            ("queue_wait", drain_start - enqueued_at),
            ("drain", drained_at - drain_start),
        ],
    );
    let write_start = t.now();
    write_message(chan, &decisions_reply(trace, stream_id, decisions))?;
    observe_stage(t, "reply_write", t.now() - write_start, trace);
    Ok(true)
}

/// Shared `SubmitFrames` / `SubmitTraced` handling for durable sessions.
/// Under the hub mutex the batch is fed and then written to the session
/// log as one record batch (`FramesPushed` followed by a
/// `DecisionEmitted` per decision — one `write_all`); outside it the
/// session waits for the one flush that makes the batch durable, and
/// only then replies. Write plus wait is the `durable_commit` stage.
/// `Ok(false)` ends the session.
#[allow(clippy::too_many_arguments)]
fn submit_durable(
    shared: &Shared,
    chan: &mut &TcpStream,
    owned: &BTreeSet<u32>,
    trace: Option<u64>,
    stream_id: u32,
    dim: u32,
    data: Vec<f32>,
) -> io::Result<bool> {
    let cfg = &shared.cfg;
    let t = &shared.telemetry;
    let batch_start = t.now();
    if !owned.contains(&stream_id) {
        reject(
            chan,
            t,
            RejectCode::UnknownStream,
            0,
            format!("stream {stream_id} is not open in this session"),
        )?;
        return Ok(true);
    }
    let durable = durable_of(shared.shard_of(stream_id))?;
    let mut hub = durable.lock()?;
    let lane = hub
        .lanes
        .get_mut(&stream_id)
        .ok_or_else(|| lane_missing(stream_id))?;
    let expected = lane.predictor.input_dim() as u32;
    if dim != expected {
        drop(hub);
        reject(
            chan,
            t,
            RejectCode::Malformed,
            0,
            format!("stream {stream_id} expects dim {expected}, got {dim}"),
        )?;
        return Ok(false);
    }
    let rows = data.len() / dim.max(1) as usize;
    if rows as u32 > cfg.max_batch_frames {
        drop(hub);
        reject(
            chan,
            t,
            RejectCode::BatchTooLarge,
            0,
            format!(
                "batch of {rows} frames exceeds the {} cap; split it",
                cfg.max_batch_frames
            ),
        )?;
        return Ok(true);
    }
    if rows > lane.queue.free() {
        let free = lane.queue.free();
        drop(hub);
        reject(
            chan,
            t,
            RejectCode::QueueFull,
            cfg.retry_after_ms,
            format!(
                "stream {stream_id} queue has {free} of {} frames free",
                cfg.max_queue_frames
            ),
        )?;
        return Ok(true);
    }
    let batch: Vec<Vec<f32>> = data
        .chunks(dim.max(1) as usize)
        .map(<[f32]>::to_vec)
        .collect();
    lane.queue
        .try_enqueue(batch)
        .map_err(|_| io::Error::other("frame queue refused a batch it had room for"))?;
    let enqueued_at = t.now();
    let drain_start = t.now();
    let drained = drain_lane(lane, trace);
    let drained_at = t.now();
    observe_stage(t, "queue_wait", drain_start - enqueued_at, trace);
    lane.frames += rows as u64;
    lane.decisions += drained.len() as u64;
    // Fed, then written, all under the mutex: the log holds the batch and
    // its decisions in application order, contiguously. Nothing is
    // acknowledged until the flush below covers `seq`, so a crash in
    // between loses only work no client ever saw.
    let commit_start = t.now();
    let mut events = Vec::with_capacity(1 + drained.len());
    events.push(SessionEvent::FramesPushed {
        stream_id,
        dim,
        data,
    });
    events.extend(drained.iter().map(|d| SessionEvent::DecisionEmitted {
        stream_id,
        anchor: d.anchor,
        fingerprint: decision_fingerprint(d),
    }));
    let seq = hub.store.write(&events).map_err(durable_io)?;
    hub.maybe_snapshot(t).map_err(durable_io)?;
    drop(hub);
    durable.wait_durable(seq)?;
    let commit = t.now() - commit_start;
    observe_stage(t, "durable_commit", commit, trace);
    let decisions: Vec<WireDecision> = drained.iter().map(decision_to_wire).collect();
    count_batch(shared, stream_id, rows, decisions.len());
    record_decisions(
        t,
        trace,
        stream_id,
        &drained,
        drained_at - batch_start + commit,
        &[
            ("queue_wait", drain_start - enqueued_at),
            ("drain", drained_at - drain_start),
            ("durable_commit", commit),
        ],
    );
    let write_start = t.now();
    write_message(chan, &decisions_reply(trace, stream_id, decisions))?;
    observe_stage(t, "reply_write", t.now() - write_start, trace);
    Ok(true)
}
