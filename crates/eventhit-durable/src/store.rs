//! The durable store: log lifecycle, crash recovery, and replay.
//!
//! [`DurableStore::open`] owns the session directory:
//!
//! ```text
//! <dir>/session.evlog          event log, written only at its end
//! <dir>/snap-<events>.evsn     newest checkpoint (older ones pruned)
//! <dir>/model-<fp>.evht        weights persisted by a hot-reload
//! <dir>/state-<fp>.evcs        conformal state persisted by a hot-reload
//! ```
//!
//! Opening scans the log, truncates a torn final record (the footprint of
//! a crash mid-write) and any zero fill, loads the newest valid snapshot,
//! and hands back a [`Recovery`] describing exactly what must be
//! replayed. [`replay`] then rebuilds live predictors: snapshot lanes are
//! restored directly (and verified by fingerprint), tail events are
//! re-fed through the real model — every recomputed decision checked
//! against the fingerprint logged before the crash, so a drifted
//! environment fails with [`DurableError::ReplayDiverged`] instead of
//! silently emitting different decisions.

use crate::event::SessionEvent;
use crate::log::{frame_into, scan, Tail};
use crate::snapshot::Snapshot;
use crate::state_io;
use crate::{decision_fingerprint, DurableError, DurableResult};
use eventhit_core::streaming::{HorizonDecision, OnlinePredictor, PredictorState};
use eventhit_core::{ConformalState, EventHit};
use eventhit_telemetry::Telemetry;
use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const LOG_FILE: &str = "session.evlog";

/// The log file grows in zero-filled chunks of this many bytes, written
/// and synced once each, so the commits that fill a chunk find its size
/// and blocks already on disk and their `sync_data` flushes data only.
const CHUNK_BYTES: u64 = 1 << 20;

/// What a chunk is written from, a slice at a time: growing the log
/// allocates nothing.
static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];

/// An open durable session directory with a write handle on its log.
///
/// Committing is two steps. [`DurableStore::write`] frames a batch of
/// events into one buffer and hands it to the file with one positional
/// `write_all_at` at the log's logical end — the caller holds whatever
/// lock orders its state changes, so log order is application order.
/// [`CommitHandle::wait_durable`] then makes a sequence number
/// crash-safe, *outside* that lock: one `sync_data` covers every record
/// written before it started, whoever wrote it. [`DurableStore::append`]
/// is the two back to back.
///
/// The file length runs ahead of the logical end in zero-filled 1 MiB
/// chunks; [`crate::log::scan`] reads the zeros as fill, not records.
/// Opening truncates the fill away, and so does a clean drop, so a
/// closed log holds its records and nothing else.
///
/// Opened with [`DurableStore::open_with_telemetry`], the store reports
/// its own health: `durable.appends` / `durable.append_bytes` count
/// records written, `durable.syncs` / `durable.commit_seconds` the
/// flushes that made them durable, `durable.snapshot_builds` /
/// `durable.snapshot_prunes` checkpoints, and `durable.replay_records` /
/// `durable.torn_bytes_truncated` what recovery found on disk.
pub struct DurableStore {
    dir: PathBuf,
    commit: Arc<CommitHandle>,
    /// Framing buffer, reused across writes.
    buf: Vec<u8>,
    /// The logical end: bytes of the log the records written so far fill.
    end: u64,
    /// The file length: `end` plus the zero fill ahead of it.
    len: u64,
}

/// The log file and how much of it is crash-safe, shared by everyone who
/// must wait for a commit.
///
/// Sequence numbers are event counts: record `n` is the `n`-th event of
/// the log's lifetime ([`DurableStore::events_applied`] after it was
/// written). The handle is fail-stop: the first failed write or sync
/// marks it failed, and every later [`DurableStore::write`] and
/// [`CommitHandle::wait_durable`] returns [`DurableError::LogFailed`] —
/// after a failed `fsync` the kernel may have dropped the dirty pages, so
/// retrying would report bytes durable that are not.
pub struct CommitHandle {
    log: fs::File,
    /// Sequence of the last record whose `write_all_at` returned.
    written: AtomicU64,
    /// The commit lock: whoever holds it is the one flushing.
    state: Mutex<CommitState>,
    failed: AtomicBool,
    telemetry: Arc<Telemetry>,
}

struct CommitState {
    /// Sequence covered by the last successful `sync_data`.
    durable: u64,
    /// Fault injection: syncs left until one fails (0 = unarmed).
    sync_fault_in: u64,
}

impl CommitHandle {
    /// Returns once every record up to `seq` is on disk. Returns at once
    /// if a flush already covered `seq`; otherwise takes the commit lock
    /// and flushes everything written so far — so sessions that queued
    /// behind a flush usually find their records covered by it.
    pub fn wait_durable(&self, seq: u64) -> DurableResult<()> {
        let Ok(mut state) = self.state.lock() else {
            self.failed.store(true, Ordering::SeqCst);
            return Err(DurableError::LogFailed);
        };
        if self.failed.load(Ordering::SeqCst) {
            return Err(DurableError::LogFailed);
        }
        if state.durable >= seq {
            return Ok(());
        }
        // Read before the flush starts: every record up to `target` had
        // its `write_all_at` return before this load, so the flush covers it.
        let target = self.written.load(Ordering::SeqCst);
        debug_assert!(seq <= target, "waiting for a record nobody wrote");
        let sync_start = self.telemetry.now();
        let synced = match state.sync_fault_in {
            1 => Err(io::Error::other("injected sync fault")),
            _ => self.log.sync_data(),
        };
        state.sync_fault_in = state.sync_fault_in.saturating_sub(1);
        if let Err(e) = synced {
            self.failed.store(true, Ordering::SeqCst);
            return Err(e.into());
        }
        self.telemetry
            .observe("durable.commit_seconds", self.telemetry.now() - sync_start);
        self.telemetry.add("durable.syncs", 1);
        state.durable = target;
        Ok(())
    }

    /// Test hook: the `nth` sync from now fails (1 = the next one), as a
    /// full or dying disk would make it.
    #[doc(hidden)]
    pub fn fail_sync_at(&self, nth: u64) {
        if let Ok(mut state) = self.state.lock() {
            state.sync_fault_in = nth;
        }
    }
}

/// What [`DurableStore::open`] found on disk — the inputs to [`replay`].
#[derive(Debug)]
pub struct Recovery {
    /// Newest valid snapshot, if any.
    pub snapshot: Option<Snapshot>,
    /// Committed events logged *after* the snapshot (all events when
    /// there is no snapshot), in append order.
    pub tail: Vec<SessionEvent>,
    /// Whether the log ended mid-record and was truncated back to its
    /// last committed boundary. Zero fill after the last record is not a
    /// torn tail.
    pub torn_tail: bool,
    /// Total committed events in the log after truncation.
    pub events_applied: u64,
}

impl DurableStore {
    /// Opens (or creates) a durable session directory. Scans the log,
    /// truncates a torn tail and any fill, loads the newest valid
    /// snapshot, and returns the store plus everything recovery needs.
    pub fn open(dir: impl AsRef<Path>) -> DurableResult<(DurableStore, Recovery)> {
        Self::open_with_telemetry(dir, Arc::new(Telemetry::disabled()))
    }

    /// [`DurableStore::open`] with a telemetry recorder. Recovery facts
    /// are recorded immediately (`durable.replay_records` events pending
    /// replay, `durable.torn_bytes_truncated` bytes of a torn record
    /// dropped, fill not counted); the write, sync and snapshot paths
    /// report through the same recorder for the store's lifetime.
    pub fn open_with_telemetry(
        dir: impl AsRef<Path>,
        telemetry: Arc<Telemetry>,
    ) -> DurableResult<(DurableStore, Recovery)> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let log_path = dir.join(LOG_FILE);

        let bytes = match fs::read(&log_path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        // Every record is checksummed; payloads stay borrowed from the
        // file image, and only the tail the snapshot does not cover is
        // decoded into events.
        let scanned = scan(&bytes)?;
        let torn_tail = scanned.tail == Tail::Torn;
        let events_applied = scanned.payloads.len() as u64;

        // Not `append`: on Linux a positional write to an `O_APPEND` file
        // lands at the file's end, which is past the fill.
        let log = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&log_path)?;
        let end = scanned.valid_bytes;
        if bytes.len() as u64 != end {
            // Drop the torn record and the fill, durably, so the next
            // write starts on a committed boundary and no stale byte past
            // it outlives this open to be misread after the next crash.
            log.set_len(end)?;
            log.sync_data()?;
        }

        let snapshot = Snapshot::load_latest(&dir)?;
        let skip = snapshot.as_ref().map_or(0, |s| s.events_applied);
        if skip > events_applied {
            return Err(DurableError::Format(
                "snapshot claims more events than the log holds",
            ));
        }
        let tail = scanned.payloads[skip as usize..]
            .iter()
            .map(|payload| SessionEvent::decode(payload))
            .collect::<DurableResult<Vec<_>>>()?;

        if !tail.is_empty() {
            telemetry.add("durable.replay_records", tail.len() as u64);
        }
        if torn_tail {
            telemetry.add("durable.torn_bytes_truncated", scanned.torn_bytes);
        }

        Ok((
            DurableStore {
                dir,
                commit: Arc::new(CommitHandle {
                    log,
                    written: AtomicU64::new(events_applied),
                    // What `open` read back is what the disk holds.
                    state: Mutex::new(CommitState {
                        durable: events_applied,
                        sync_fault_in: 0,
                    }),
                    failed: AtomicBool::new(false),
                    telemetry,
                }),
                buf: Vec::new(),
                end,
                len: end,
            },
            Recovery {
                snapshot,
                tail,
                torn_tail,
                events_applied,
            },
        ))
    }

    /// Writes `events` to the log as one batch — framed into one buffer,
    /// one `write_all_at` at the logical end, after growing the file in
    /// zero-filled chunks if the batch would run past it — and returns the
    /// sequence number of the last one. Nothing is durable yet: pass the
    /// number to [`CommitHandle::wait_durable`] before acting on the
    /// write. Each record counts under `durable.appends` /
    /// `durable.append_bytes`.
    ///
    /// Any error (an oversized record included) marks the log failed: the
    /// caller's state may already be ahead of the file.
    pub fn write(&mut self, events: &[SessionEvent]) -> DurableResult<u64> {
        if self.commit.failed.load(Ordering::SeqCst) {
            return Err(DurableError::LogFailed);
        }
        self.buf.clear();
        let framed = events
            .iter()
            .try_for_each(|event| frame_into(&mut self.buf, |buf| event.encode_into(buf)));
        let written = framed.and_then(|()| Ok(self.write_buf()?));
        if let Err(e) = written {
            self.commit.failed.store(true, Ordering::SeqCst);
            return Err(e);
        }
        // Published only now: a flush that reads `written` must find every
        // record up to it already handed to the file.
        let seq = self.events_applied() + events.len() as u64;
        self.commit.written.store(seq, Ordering::SeqCst);
        let telemetry = &self.commit.telemetry;
        telemetry.add("durable.appends", events.len() as u64);
        telemetry.add("durable.append_bytes", self.buf.len() as u64);
        Ok(seq)
    }

    /// Puts the framed batch at the logical end, growing the file first
    /// if it would not fit: the new chunk's zeros are written and synced
    /// before any record lands in it.
    fn write_buf(&mut self) -> io::Result<()> {
        let log = &self.commit.log;
        let end = self.end + self.buf.len() as u64;
        if end > self.len {
            let len = end.next_multiple_of(CHUNK_BYTES);
            let mut at = self.len;
            while at < len {
                let n = (len - at).min(ZEROS.len() as u64);
                log.write_all_at(&ZEROS[..n as usize], at)?;
                at += n;
            }
            log.sync_data()?;
            self.len = len;
        }
        log.write_all_at(&self.buf, self.end)?;
        self.end = end;
        Ok(())
    }

    /// Writes one event and waits for it to be durable — after `append`
    /// returns, the event survives a crash.
    pub fn append(&mut self, event: &SessionEvent) -> DurableResult<()> {
        let seq = self.write(std::slice::from_ref(event))?;
        self.commit.wait_durable(seq)
    }

    /// The handle to wait for commits on, shareable across threads.
    pub fn commit_handle(&self) -> Arc<CommitHandle> {
        Arc::clone(&self.commit)
    }

    /// Total events written to the log (snapshot-covered + written since
    /// open); the sequence number of the newest record.
    pub fn events_applied(&self) -> u64 {
        self.commit.written.load(Ordering::SeqCst)
    }

    /// The session directory this store owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Publishes a checkpoint (atomically; older snapshots pruned), after
    /// making sure the log on disk holds every event the snapshot covers
    /// — a snapshot ahead of the log is a directory recovery refuses.
    /// Builds count under `durable.snapshot_builds`, pruned older files
    /// under `durable.snapshot_prunes`.
    pub fn write_snapshot(&self, snapshot: &Snapshot) -> DurableResult<PathBuf> {
        if snapshot.events_applied > self.events_applied() {
            return Err(DurableError::Format(
                "snapshot claims more events than the log holds",
            ));
        }
        self.commit.wait_durable(snapshot.events_applied)?;
        let (path, pruned) = snapshot.write_with_prune_count(&self.dir)?;
        let telemetry = &self.commit.telemetry;
        telemetry.add("durable.snapshot_builds", 1);
        if pruned > 0 {
            telemetry.add("durable.snapshot_prunes", pruned);
        }
        Ok(path)
    }

    /// Persists a hot-reload's weights and conformal state beside the
    /// log, never replacing a pair already there (see
    /// [`state_io::save_reload`]); returns the fingerprint to record in
    /// the [`SessionEvent::ModelReloaded`] event.
    pub fn save_reload(&self, model: &EventHit, state: &ConformalState) -> DurableResult<u64> {
        state_io::save_reload(&self.dir, model, state)
    }

    /// Loads a persisted reload pair by fingerprint.
    pub fn load_reload(&self, fingerprint: u64) -> DurableResult<(EventHit, ConformalState)> {
        state_io::load_reload(&self.dir, fingerprint)
    }
}

/// A clean close trims the fill, so the file is the records alone. A
/// failed log is left as it is for the next open to repair.
impl Drop for DurableStore {
    fn drop(&mut self) {
        if self.len > self.end && !self.commit.failed.load(Ordering::SeqCst) {
            // Nothing to report to: a fill left behind is still read as
            // fill, and the next open truncates it.
            let _ = self.commit.log.set_len(self.end);
        }
    }
}

/// A lane rebuilt by [`replay`], ready to continue serving.
pub struct ReplayedLane {
    /// The live predictor, restored to its pre-crash state.
    pub predictor: OnlinePredictor,
    /// Feature dimension of the lane's frames.
    pub dim: u32,
    /// Total frames the lane has accepted — the stream's `next_seq`.
    pub frames: u64,
    /// Total decisions whose emission was committed to the log.
    pub decisions: u64,
}

/// The hot-reloaded model active at the crash, rebuilt from disk.
pub struct ReloadedModel {
    /// The reloaded weights.
    pub model: EventHit,
    /// The conformal state refitted for those weights.
    pub state: ConformalState,
    /// The weight fingerprint the pair is keyed by.
    pub fingerprint: u64,
}

/// Everything [`replay`] rebuilds.
pub struct Replayed {
    /// Live lanes keyed by stream id.
    pub lanes: BTreeMap<u32, ReplayedLane>,
    /// The active hot-reload, if one happened before the crash.
    pub reload: Option<ReloadedModel>,
}

/// Rebuilds live lane state from a [`Recovery`].
///
/// `make_lane` constructs a fresh boot predictor for a stream id — the
/// same factory the serving layer uses. Snapshot lanes are restored
/// directly and verified against their recorded state fingerprint; tail
/// events are re-applied through the real model, each recomputed
/// decision checked against its logged fingerprint.
///
/// Decisions recomputed during replay whose emission was never committed
/// (a crash can keep a batch's `FramesPushed` record and lose some of its
/// `DecisionEmitted` records) are *discarded*: the frames count toward
/// `next_seq`, but the decision is not retransmitted. Clients observe an
/// at-most-once decision stream across a crash; see DESIGN.md §14.
pub fn replay(
    dir: &Path,
    recovery: &Recovery,
    make_lane: &mut dyn FnMut(u32) -> OnlinePredictor,
) -> DurableResult<Replayed> {
    let mut reload: Option<ReloadedModel> = None;
    let mut lanes: BTreeMap<u32, ReplayedLane> = BTreeMap::new();
    let mut pending: BTreeMap<u32, VecDeque<HorizonDecision>> = BTreeMap::new();

    if let Some(snap) = &recovery.snapshot {
        if let Some(fp) = snap.reload_fingerprint {
            let (model, state) = state_io::load_reload(dir, fp)?;
            reload = Some(ReloadedModel {
                model,
                state,
                fingerprint: fp,
            });
        }
        for ls in &snap.lanes {
            let mut predictor = make_lane(ls.stream_id);
            if let Some(r) = &reload {
                predictor.reload_model(r.model.clone(), r.state.clone())?;
            }
            let st = PredictorState {
                rows: ls.rows.clone(),
                frames_seen: ls.frames_seen,
                countdown: ls.countdown,
            };
            predictor.restore_state(&st)?;
            if predictor.export_state().fingerprint() != ls.state_fingerprint {
                return Err(DurableError::SnapshotDiverged {
                    stream_id: ls.stream_id,
                });
            }
            lanes.insert(
                ls.stream_id,
                ReplayedLane {
                    predictor,
                    dim: ls.dim,
                    frames: ls.frames,
                    decisions: ls.decisions,
                },
            );
        }
    }

    for event in &recovery.tail {
        match event {
            SessionEvent::StreamAdmitted { stream_id, dim } => {
                let mut predictor = make_lane(*stream_id);
                if let Some(r) = &reload {
                    predictor.reload_model(r.model.clone(), r.state.clone())?;
                }
                lanes.insert(
                    *stream_id,
                    ReplayedLane {
                        predictor,
                        dim: *dim,
                        frames: 0,
                        decisions: 0,
                    },
                );
            }
            SessionEvent::FramesPushed {
                stream_id,
                dim,
                data,
            } => {
                let lane = lanes
                    .get_mut(stream_id)
                    .ok_or(DurableError::Format("frames logged for unknown stream"))?;
                if *dim != lane.dim {
                    return Err(DurableError::Format(
                        "frame batch dimension differs from its stream's",
                    ));
                }
                let rows = data.chunks_exact(*dim as usize);
                lane.frames += rows.len() as u64;
                let pending = pending.entry(*stream_id).or_default();
                lane.predictor.push_frames(rows, |d| pending.push_back(d));
            }
            SessionEvent::DecisionEmitted {
                stream_id,
                anchor,
                fingerprint,
            } => {
                let diverged = DurableError::ReplayDiverged {
                    stream_id: *stream_id,
                    anchor: *anchor,
                };
                let lane = lanes
                    .get_mut(stream_id)
                    .ok_or(DurableError::Format("decision logged for unknown stream"))?;
                let recomputed = pending
                    .get_mut(stream_id)
                    .and_then(VecDeque::pop_front)
                    .ok_or(diverged)?;
                if recomputed.anchor != *anchor || decision_fingerprint(&recomputed) != *fingerprint
                {
                    return Err(DurableError::ReplayDiverged {
                        stream_id: *stream_id,
                        anchor: *anchor,
                    });
                }
                lane.decisions += 1;
            }
            SessionEvent::ModelReloaded { fingerprint } => {
                let (model, state) = state_io::load_reload(dir, *fingerprint)?;
                for lane in lanes.values_mut() {
                    lane.predictor.reload_model(model.clone(), state.clone())?;
                }
                reload = Some(ReloadedModel {
                    model,
                    state,
                    fingerprint: *fingerprint,
                });
            }
            SessionEvent::StreamClosed { stream_id } => {
                lanes.remove(stream_id);
                pending.remove(stream_id);
            }
        }
    }

    Ok(Replayed { lanes, reload })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::frame_record;
    use crate::snapshot::LaneSnapshot;
    use eventhit_core::{task, CoreError, ExperimentConfig, Strategy, TaskRun};
    use std::io::Write;
    use std::os::unix::fs::MetadataExt;
    use std::sync::OnceLock;

    const STRATEGY: Strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };

    fn trained() -> &'static TaskRun {
        static RUN: OnceLock<TaskRun> = OnceLock::new();
        RUN.get_or_init(|| TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(71)))
    }

    fn boot_lane(_stream_id: u32) -> OnlinePredictor {
        let run = trained();
        OnlinePredictor::new(run.model.clone(), run.state.clone(), STRATEGY)
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("evstore-{tag}-{}", std::process::id()))
    }

    /// Feeds `rows` into the store + a live predictor, one durable event
    /// at a time: log the batch, feed it, log each decision.
    fn serve_rows(
        store: &mut DurableStore,
        lane: &mut ReplayedLane,
        stream_id: u32,
        rows: &[Vec<f32>],
    ) -> Vec<HorizonDecision> {
        let dim = rows[0].len() as u32;
        let data: Vec<f32> = rows.iter().flatten().copied().collect();
        store
            .append(&SessionEvent::FramesPushed {
                stream_id,
                dim,
                data,
            })
            .unwrap();
        let mut out = Vec::new();
        for row in rows {
            if let Some(d) = lane.predictor.push_frame(row) {
                store
                    .append(&SessionEvent::DecisionEmitted {
                        stream_id,
                        anchor: d.anchor,
                        fingerprint: decision_fingerprint(&d),
                    })
                    .unwrap();
                lane.decisions += 1;
                out.push(d);
            }
            lane.frames += 1;
        }
        out
    }

    #[test]
    fn empty_dir_opens_clean() {
        let dir = tmp("empty");
        let (store, recovery) = DurableStore::open(&dir).unwrap();
        assert!(recovery.snapshot.is_none());
        assert!(recovery.tail.is_empty());
        assert!(!recovery.torn_tail);
        assert_eq!(store.events_applied(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn events_survive_reopen_and_torn_tail_is_truncated() {
        let dir = tmp("torn");
        let _ = fs::remove_dir_all(&dir);
        {
            let (mut store, _) = DurableStore::open(&dir).unwrap();
            store
                .append(&SessionEvent::StreamAdmitted {
                    stream_id: 3,
                    dim: 2,
                })
                .unwrap();
            store
                .append(&SessionEvent::StreamClosed { stream_id: 3 })
                .unwrap();
        }
        // Simulate a crash mid-append: half a record at the tail.
        let log_path = dir.join(LOG_FILE);
        let committed = fs::metadata(&log_path).unwrap().len();
        let half = frame_record(&SessionEvent::StreamClosed { stream_id: 9 }.encode());
        let mut f = fs::OpenOptions::new().append(true).open(&log_path).unwrap();
        f.write_all(&half[..half.len() - 3]).unwrap();
        drop(f);

        let (mut store, recovery) = DurableStore::open(&dir).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.tail.len(), 2);
        assert_eq!(fs::metadata(&log_path).unwrap().len(), committed);
        // The log is append-ready again.
        store
            .append(&SessionEvent::StreamAdmitted {
                stream_id: 4,
                dim: 2,
            })
            .unwrap();
        let (_, recovery) = DurableStore::open(&dir).unwrap();
        assert_eq!(recovery.tail.len(), 3);
        assert!(!recovery.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_share_flushes_and_never_return_early() {
        const THREADS: u32 = 8;
        const WRITES: u64 = 500;
        let dir = tmp("group");
        let _ = fs::remove_dir_all(&dir);
        let telemetry = Arc::new(Telemetry::new());
        let (store, _) = DurableStore::open_with_telemetry(&dir, Arc::clone(&telemetry)).unwrap();
        let commit = store.commit_handle();
        // The store behind a mutex, as the serving hub keeps it: write
        // under the lock, wait for the flush outside it.
        let store = Mutex::new(store);
        let start = std::sync::Barrier::new(THREADS as usize);
        let written: Vec<(u64, SessionEvent)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let (store, commit, start) = (&store, &commit, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..WRITES)
                            .map(|i| {
                                let event = SessionEvent::DecisionEmitted {
                                    stream_id: thread,
                                    anchor: i,
                                    fingerprint: i ^ 0xA5A5,
                                };
                                let seq = store
                                    .lock()
                                    .unwrap()
                                    .write(std::slice::from_ref(&event))
                                    .unwrap();
                                commit.wait_durable(seq).unwrap();
                                let durable = commit.state.lock().unwrap().durable;
                                assert!(durable >= seq, "returned at {durable}, before {seq}");
                                (seq, event)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("writer thread"))
                .collect()
        });
        drop(store);

        let snap = telemetry.snapshot();
        let total = THREADS as u64 * WRITES;
        assert_eq!(snap.counter("durable.appends"), Some(total));
        let syncs = snap.counter("durable.syncs").unwrap();
        assert!(
            (1..=total).contains(&syncs),
            "{syncs} syncs for {total} records"
        );

        // Dense, and ordered as written: sequence number n is the n-th
        // record of the log.
        let (_, recovery) = DurableStore::open(&dir).unwrap();
        assert_eq!(recovery.tail.len() as u64, total);
        let mut seqs: Vec<u64> = written.iter().map(|(seq, _)| *seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=total).collect::<Vec<_>>());
        for (seq, event) in &written {
            assert_eq!(&recovery.tail[*seq as usize - 1], event);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_sync_stops_the_store_for_good() {
        let dir = tmp("failstop");
        let _ = fs::remove_dir_all(&dir);
        let closed = |stream_id| SessionEvent::StreamClosed { stream_id };
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        let commit = store.commit_handle();
        commit.fail_sync_at(2);
        store.append(&closed(1)).unwrap();
        // The injected fault surfaces as the I/O error it stands for...
        assert!(matches!(store.append(&closed(2)), Err(DurableError::Io(_))));
        // ...and from then on nothing is written, synced or snapshotted,
        // not even what an earlier flush already covered.
        assert!(matches!(
            store.write(&[closed(3)]),
            Err(DurableError::LogFailed)
        ));
        assert!(matches!(
            commit.wait_durable(1),
            Err(DurableError::LogFailed)
        ));
        let snapshot = Snapshot {
            events_applied: 1,
            reload_fingerprint: None,
            lanes: Vec::new(),
        };
        assert!(matches!(
            store.write_snapshot(&snapshot),
            Err(DurableError::LogFailed)
        ));
        assert_eq!(store.events_applied(), 2);
        drop(store);
        assert!(Snapshot::load_latest(&dir).unwrap().is_none());
        // A new process reopens the directory and carries on.
        let (mut store, recovery) = DurableStore::open(&dir).unwrap();
        assert_eq!(recovery.tail[0], closed(1));
        store.append(&closed(4)).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_oversized_record_fails_the_write_without_touching_the_file() {
        let dir = tmp("oversized");
        let _ = fs::remove_dir_all(&dir);
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        store
            .append(&SessionEvent::StreamClosed { stream_id: 1 })
            .unwrap();
        let huge = SessionEvent::FramesPushed {
            stream_id: 1,
            dim: 1,
            data: vec![0.0; crate::log::MAX_RECORD_BYTES as usize / 4],
        };
        assert!(matches!(
            store.write(&[SessionEvent::StreamClosed { stream_id: 2 }, huge]),
            Err(DurableError::Format(_))
        ));
        drop(store);
        let (_, recovery) = DurableStore::open(&dir).unwrap();
        assert_eq!(recovery.tail, [SessionEvent::StreamClosed { stream_id: 1 }]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_snapshot_ahead_of_the_store_is_refused() {
        let dir = tmp("ahead");
        let _ = fs::remove_dir_all(&dir);
        let (store, _) = DurableStore::open(&dir).unwrap();
        let snapshot = Snapshot {
            events_applied: 1,
            reload_fingerprint: None,
            lanes: Vec::new(),
        };
        assert!(matches!(
            store.write_snapshot(&snapshot),
            Err(DurableError::Format(_))
        ));
        assert!(Snapshot::load_latest(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_restores_bit_identical_decisions() {
        let dir = tmp("replay");
        let _ = fs::remove_dir_all(&dir);
        let run = trained();
        let n = run.window + run.horizon * 4;
        let rows: Vec<Vec<f32>> = (0..n).map(|r| run.features.row(r).to_vec()).collect();
        let dim = rows[0].len() as u32;
        let cut = run.window + run.horizon + 2;

        // Uninterrupted reference.
        let mut reference = boot_lane(0);
        let expected: Vec<_> = rows
            .iter()
            .filter_map(|r| reference.push_frame(r))
            .collect();

        // Serve the prefix durably, snapshotting part-way, then "crash".
        {
            let (mut store, _) = DurableStore::open(&dir).unwrap();
            store
                .append(&SessionEvent::StreamAdmitted { stream_id: 0, dim })
                .unwrap();
            let mut lane = ReplayedLane {
                predictor: boot_lane(0),
                dim,
                frames: 0,
                decisions: 0,
            };
            let mut got = serve_rows(&mut store, &mut lane, 0, &rows[..run.window + 1]);
            // Checkpoint here: recovery must replay only the tail after it.
            let st = lane.predictor.export_state();
            store
                .write_snapshot(&Snapshot {
                    events_applied: store.events_applied(),
                    reload_fingerprint: None,
                    lanes: vec![LaneSnapshot {
                        stream_id: 0,
                        dim,
                        frames: lane.frames,
                        decisions: lane.decisions,
                        frames_seen: st.frames_seen,
                        countdown: st.countdown,
                        rows: st.rows.clone(),
                        state_fingerprint: st.fingerprint(),
                    }],
                })
                .unwrap();
            got.extend(serve_rows(
                &mut store,
                &mut lane,
                0,
                &rows[run.window + 1..cut],
            ));
            assert!(!got.is_empty());
            assert_eq!(got, expected[..got.len()].to_vec());
        } // crash: store dropped without closing streams

        // Recover and finish the stream.
        let (mut store, recovery) = DurableStore::open(&dir).unwrap();
        assert!(recovery.snapshot.is_some());
        let replayed = replay(&dir, &recovery, &mut boot_lane).unwrap();
        let mut lane = replayed.lanes.into_values().next().unwrap();
        assert_eq!(lane.frames, cut as u64);
        let done_before = expected
            .iter()
            .take_while(|d| d.anchor < cut as u64)
            .count();
        assert_eq!(lane.decisions, done_before as u64);
        let after = serve_rows(&mut store, &mut lane, 0, &rows[cut..]);
        assert_eq!(after, expected[done_before..].to_vec());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_refuses_a_snapshot_off_its_cadence() {
        let run = trained();
        let dim = run.features.cols() as u32;
        let rows: Vec<Vec<f32>> = (0..run.window + 5)
            .map(|r| run.features.row(r).to_vec())
            .collect();
        type Tamper = fn(&mut PredictorState);
        let tampers: [(&str, &str, Tamper); 2] = [
            ("cadence-countdown", "restored countdown", |st| {
                st.countdown -= 1
            }),
            ("cadence-rows", "restored window rows", |st| {
                drop(st.rows.pop())
            }),
        ];
        for (tag, what, tamper) in tampers {
            let dir = tmp(tag);
            let _ = fs::remove_dir_all(&dir);
            let (mut store, _) = DurableStore::open(&dir).unwrap();
            store
                .append(&SessionEvent::StreamAdmitted { stream_id: 0, dim })
                .unwrap();
            let mut lane = ReplayedLane {
                predictor: boot_lane(0),
                dim,
                frames: 0,
                decisions: 0,
            };
            serve_rows(&mut store, &mut lane, 0, &rows);
            // A snapshot whose lane claims a countdown, or a row count,
            // its frames_seen cannot leave; its fingerprint is its own.
            let mut st = lane.predictor.export_state();
            tamper(&mut st);
            store
                .write_snapshot(&Snapshot {
                    events_applied: store.events_applied(),
                    reload_fingerprint: None,
                    lanes: vec![LaneSnapshot {
                        stream_id: 0,
                        dim,
                        frames: lane.frames,
                        decisions: lane.decisions,
                        frames_seen: st.frames_seen,
                        countdown: st.countdown,
                        state_fingerprint: st.fingerprint(),
                        rows: st.rows,
                    }],
                })
                .unwrap();
            drop(store);
            let (_, recovery) = DurableStore::open(&dir).unwrap();
            assert!(recovery.snapshot.is_some());
            match replay(&dir, &recovery, &mut boot_lane) {
                Err(DurableError::Core(CoreError::CadenceMismatch { what: got, .. })) => {
                    assert_eq!(got, what)
                }
                Err(e) => panic!("{tag}: {e}"),
                Ok(_) => panic!("{tag}: a snapshot off its cadence was restored"),
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn replay_detects_divergence() {
        let dir = tmp("diverge");
        let _ = fs::remove_dir_all(&dir);
        let run = trained();
        let dim = run.features.cols() as u32;
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        store
            .append(&SessionEvent::StreamAdmitted { stream_id: 0, dim })
            .unwrap();
        let mut lane = ReplayedLane {
            predictor: boot_lane(0),
            dim,
            frames: 0,
            decisions: 0,
        };
        let rows: Vec<Vec<f32>> = (0..run.window + 1)
            .map(|r| run.features.row(r).to_vec())
            .collect();
        let got = serve_rows(&mut store, &mut lane, 0, &rows);
        assert_eq!(got.len(), 1);
        // Tamper: log a decision that never happened.
        store
            .append(&SessionEvent::DecisionEmitted {
                stream_id: 0,
                anchor: 999,
                fingerprint: 0x1234,
            })
            .unwrap();
        let (_, recovery) = DurableStore::open(&dir).unwrap();
        assert!(matches!(
            replay(&dir, &recovery, &mut boot_lane),
            Err(DurableError::ReplayDiverged {
                stream_id: 0,
                anchor: 999
            })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_applies_model_reload_from_disk() {
        let dir = tmp("reload");
        let _ = fs::remove_dir_all(&dir);
        let run = trained();
        let other = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(72));
        let dim = run.features.cols() as u32;
        let n = run.window + run.horizon * 3;
        let rows: Vec<Vec<f32>> = (0..n).map(|r| run.features.row(r).to_vec()).collect();
        let swap_at = run.window + 1;

        // Reference: same swap applied in-process, no durability.
        let mut reference = boot_lane(0);
        let mut expected = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            if i == swap_at {
                reference
                    .reload_model(other.model.clone(), other.state.clone())
                    .unwrap();
            }
            if let Some(d) = reference.push_frame(row) {
                expected.push(d);
            }
        }

        // Durable run: crash right after the reload is logged.
        {
            let (mut store, _) = DurableStore::open(&dir).unwrap();
            store
                .append(&SessionEvent::StreamAdmitted { stream_id: 0, dim })
                .unwrap();
            let mut lane = ReplayedLane {
                predictor: boot_lane(0),
                dim,
                frames: 0,
                decisions: 0,
            };
            serve_rows(&mut store, &mut lane, 0, &rows[..swap_at]);
            let fp = store.save_reload(&other.model, &other.state).unwrap();
            store
                .append(&SessionEvent::ModelReloaded { fingerprint: fp })
                .unwrap();

            // The journaled pair is never replaced: other state under the
            // same weights is refused, the same pair again touches nothing.
            let on_disk = || {
                [state_io::model_file_name(fp), state_io::state_file_name(fp)].map(|name| {
                    let path = dir.join(name);
                    (fs::read(&path).unwrap(), fs::metadata(&path).unwrap().ino())
                })
            };
            let before = on_disk();
            assert!(matches!(
                store.save_reload(&other.model, &run.state),
                Err(DurableError::ReloadConflict { fingerprint }) if fingerprint == fp
            ));
            assert_eq!(store.save_reload(&other.model, &other.state).unwrap(), fp);
            assert_eq!(on_disk(), before);
        }

        let (mut store, recovery) = DurableStore::open(&dir).unwrap();
        let replayed = replay(&dir, &recovery, &mut boot_lane).unwrap();
        assert!(replayed.reload.is_some());
        let mut lane = replayed.lanes.into_values().next().unwrap();
        let done = expected
            .iter()
            .take_while(|d| d.anchor < swap_at as u64)
            .count();
        let after = serve_rows(&mut store, &mut lane, 0, &rows[swap_at..]);
        assert_eq!(after, expected[done..].to_vec());
        fs::remove_dir_all(&dir).unwrap();
    }
}
