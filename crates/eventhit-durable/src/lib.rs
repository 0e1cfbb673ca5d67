//! Durable event-sourced state for EventHit serving.
//!
//! The serving frontend (`eventhit-serve`) keeps per-stream lane state —
//! the predictor's frame window, anchor countdown, and counters — entirely
//! in memory. A crash loses every admitted stream. This crate makes that
//! state *durable* without giving up the repo's bit-determinism guarantee:
//!
//! - [`log`]: an append-only session event log. Every state-changing
//!   serving operation (stream admitted, frames pushed, decision emitted,
//!   model reloaded, stream closed) is framed as
//!   `[payload_len u32][crc32 u32][payload]`, written in application
//!   order, and synced before it is acknowledged.
//! - [`snapshot`]: periodic checkpoints of the complete dynamic lane
//!   state, so recovery replays a bounded log tail instead of the whole
//!   session history. Snapshots are sealed files of
//!   [`eventhit_core::codec`], written atomically (temp file, sync,
//!   rename, directory sync) and carrying their own checksum.
//! - [`store`]: the recovery path. [`store::DurableStore::open`] loads
//!   the newest valid snapshot, scans the log tail, *truncates a torn
//!   final record* (the expected artifact of a crash mid-write), and
//!   [`store::replay`] re-feeds the tail through real predictors —
//!   verifying along the way that every recomputed decision matches the
//!   fingerprint logged before the crash.
//! - [`state_io`]: serialization for the fitted conformal state and
//!   reloaded model weights, so a model hot-reload mid-serve is itself
//!   replayable without access to the original calibration split.
//!
//! Because an [`eventhit_core::streaming::OnlinePredictor`] rescores its
//! full window at every anchor (no recurrent state is carried between
//! anchors), the event log plus the snapshot is a *complete* description
//! of lane state: replay is bit-identical, and the crate proves it with
//! FNV-1a fingerprints at every seam.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod log;
pub mod snapshot;
pub mod state_io;
pub mod store;

pub use event::{decision_fingerprint, SessionEvent};
pub use log::{scan, Scan, Tail};
pub use snapshot::{LaneSnapshot, Snapshot};
pub use store::{replay, CommitHandle, DurableStore, Recovery, Replayed, ReplayedLane};

use eventhit_core::codec::{CodecError, SEALED_HEADER_BYTES};
use std::fmt;

/// Everything that can go wrong opening, writing to, or replaying a
/// durable session directory.
#[derive(Debug)]
pub enum DurableError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A file or record is structurally malformed (bad magic, impossible
    /// length, unknown tag). Unlike [`DurableError::Corrupt`] this means
    /// the bytes were never valid, not that valid bytes were damaged.
    Format(&'static str),
    /// A fully-present record failed its CRC — bit damage, not a torn
    /// append. Recovery refuses to guess and reports the byte offset.
    Corrupt {
        /// Byte offset of the damaged record within the log file, or of
        /// the payload within a sealed file.
        offset: u64,
    },
    /// Replaying the log recomputed a decision whose fingerprint differs
    /// from the one logged before the crash — the environment is not
    /// bit-identical (different weights, lane, or strategy).
    ReplayDiverged {
        /// Stream whose replayed decision diverged.
        stream_id: u32,
        /// Anchor frame of the diverging decision.
        anchor: u64,
    },
    /// A snapshot restored into a predictor whose state fingerprint does
    /// not match the one recorded at snapshot time.
    SnapshotDiverged {
        /// Stream whose restored lane state diverged.
        stream_id: u32,
    },
    /// A core-layer operation (model load, state restore) failed.
    Core(eventhit_core::CoreError),
    /// An earlier write or sync of this log failed. The store is
    /// fail-stop: nothing more is written or reported durable until the
    /// directory is reopened (and its tail repaired) by a new process.
    LogFailed,
    /// A hot-reload of weights already persisted here came with a
    /// different conformal state. A persisted pair may be named by a
    /// journaled `ModelReloaded` event, so it is never replaced.
    ReloadConflict {
        /// The weight fingerprint both pairs are keyed by.
        fingerprint: u64,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable I/O error: {e}"),
            DurableError::Format(what) => write!(f, "malformed durable file: {what}"),
            DurableError::Corrupt { offset } => {
                write!(f, "log record at byte {offset} failed its checksum")
            }
            DurableError::ReplayDiverged { stream_id, anchor } => write!(
                f,
                "replay diverged: stream {stream_id} anchor {anchor} recomputed a \
                 different decision than was logged"
            ),
            DurableError::SnapshotDiverged { stream_id } => write!(
                f,
                "snapshot diverged: restored lane state for stream {stream_id} does \
                 not match its recorded fingerprint"
            ),
            DurableError::Core(e) => write!(f, "durable core error: {e}"),
            DurableError::LogFailed => write!(
                f,
                "the session log failed an earlier write or sync; the store is stopped"
            ),
            DurableError::ReloadConflict { fingerprint } => write!(
                f,
                "weights {fingerprint:016x} are already persisted with a different \
                 conformal state; a persisted reload pair is never replaced"
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

/// A damaged checksum can only be a sealed file's, whose payload starts
/// after its header; everything else the codec reports is a malformed file.
impl From<CodecError> for DurableError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Checksum { .. } => DurableError::Corrupt {
                offset: SEALED_HEADER_BYTES as u64,
            },
            other => DurableError::Format(other.what()),
        }
    }
}

impl From<eventhit_core::CoreError> for DurableError {
    fn from(e: eventhit_core::CoreError) -> Self {
        DurableError::Core(e)
    }
}

/// Crate-wide result alias.
pub type DurableResult<T> = Result<T, DurableError>;
