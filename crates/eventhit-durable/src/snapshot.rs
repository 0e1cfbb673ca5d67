//! Periodic checkpoints of the complete dynamic lane state.
//!
//! A snapshot bounds recovery time: instead of replaying the whole log,
//! recovery restores the newest valid snapshot and replays only the
//! events logged after it ([`Snapshot::events_applied`] marks the
//! boundary).
//!
//! Snapshot files are named `snap-<events_applied:020>.evsn` (zero-padded
//! so lexicographic order is numeric order). Each is a sealed file of
//! [`eventhit_core::codec`] (magic `EVSN`, version 1) published by
//! [`codec::write_atomic`], so a crash mid-snapshot leaves either the
//! previous snapshot or a `.tmp` file that loading ignores — never a
//! half-visible checkpoint.

use crate::{DurableError, DurableResult};
use eventhit_core::codec::{self, Reader, Writer};
use std::fs;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"EVSN";
const VERSION: u32 = 1;

/// The complete dynamic state of one serving lane at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSnapshot {
    /// The stream this lane serves.
    pub stream_id: u32,
    /// Feature dimension of the lane's frames.
    pub dim: u32,
    /// Total frames accepted by the lane (the stream's `next_seq`).
    pub frames: u64,
    /// Total decisions the lane has emitted.
    pub decisions: u64,
    /// Frames the predictor has consumed (`PredictorState::frames_seen`).
    pub frames_seen: u64,
    /// Anchor countdown (`PredictorState::countdown`).
    pub countdown: u64,
    /// Buffered window rows, oldest first (`PredictorState::rows`).
    pub rows: Vec<Vec<f32>>,
    /// Fingerprint of the predictor state these fields restore to —
    /// verified after restore so a drifted environment fails loudly.
    pub state_fingerprint: u64,
}

/// A full checkpoint: every live lane plus the log position it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Number of log events already folded into this snapshot. Replay
    /// starts from the event at this index.
    pub events_applied: u64,
    /// Fingerprint of the hot-reloaded model active at snapshot time,
    /// or `None` when the boot model (the one the serving factory
    /// produces) is still active.
    pub reload_fingerprint: Option<u64>,
    /// Per-stream lane state, ascending by `stream_id`.
    pub lanes: Vec<LaneSnapshot>,
}

impl Snapshot {
    /// Writes the snapshot payload (the bytes inside the sealed file).
    fn put(&self, w: &mut Writer) {
        w.u64(self.events_applied);
        match self.reload_fingerprint {
            Some(fp) => {
                w.u8(1);
                w.u64(fp);
            }
            None => w.u8(0),
        }
        w.count(self.lanes.len());
        for lane in &self.lanes {
            w.u32(lane.stream_id);
            w.u32(lane.dim);
            w.u64(lane.frames);
            w.u64(lane.decisions);
            w.u64(lane.frames_seen);
            w.u64(lane.countdown);
            w.count(lane.rows.len());
            for row in &lane.rows {
                debug_assert_eq!(row.len(), lane.dim as usize);
                w.f32s(row);
            }
            w.u64(lane.state_fingerprint);
        }
    }

    /// Deserializes a snapshot payload (see [`codec::unseal`]).
    pub fn decode(payload: &[u8]) -> DurableResult<Snapshot> {
        let mut r = Reader::new(payload);
        let events_applied = r.u64()?;
        let reload_fingerprint = match r.u8()? {
            0 => None,
            1 => Some(r.u64()?),
            _ => return Err(DurableError::Format("bad reload-fingerprint marker")),
        };
        let lanes = r.counted(|r| {
            let stream_id = r.u32()?;
            let dim = r.u32()?;
            if dim == 0 {
                return Err(DurableError::Format("lane snapshot with zero dimension"));
            }
            Ok(LaneSnapshot {
                stream_id,
                dim,
                frames: r.u64()?,
                decisions: r.u64()?,
                frames_seen: r.u64()?,
                countdown: r.u64()?,
                rows: r.counted(|r| r.f32s(dim as usize).map(|row| row.iter().collect()))?,
                state_fingerprint: r.u64()?,
            })
        })?;
        r.finish()?;
        Ok(Snapshot {
            events_applied,
            reload_fingerprint,
            lanes,
        })
    }

    /// The file name this snapshot is published under.
    pub fn file_name(&self) -> String {
        format!("snap-{:020}.evsn", self.events_applied)
    }

    /// The sealed file this snapshot is published as.
    fn sealed(&self) -> Vec<u8> {
        codec::seal(MAGIC, VERSION, |w| self.put(w))
    }

    /// Publishes the snapshot into `dir` with [`codec::write_atomic`],
    /// then prunes every older snapshot. Returns the published path and
    /// how many older snapshot files (including stale `.tmp` leftovers)
    /// the prune removed, so the durable store can count them.
    pub fn write_with_prune_count(&self, dir: &Path) -> DurableResult<(PathBuf, u64)> {
        let final_path = dir.join(self.file_name());
        codec::write_atomic(&final_path, &self.sealed())?;

        // Older snapshots are now redundant; best-effort prune.
        let mut pruned = 0u64;
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path == final_path {
                continue;
            }
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                if name.starts_with("snap-")
                    && (name.ends_with(".evsn") || name.ends_with(".tmp"))
                    && fs::remove_file(&path).is_ok()
                {
                    pruned += 1;
                }
            }
        }
        Ok((final_path, pruned))
    }

    /// Reads one snapshot file, validating shell and checksum.
    pub fn read(path: &Path) -> DurableResult<Snapshot> {
        let file = fs::read(path)?;
        Snapshot::decode(codec::unseal(&file, MAGIC, VERSION)?)
    }

    /// Loads the newest *valid* snapshot in `dir`, skipping unreadable or
    /// damaged ones (a crash mid-write leaves `.tmp` files that are
    /// ignored entirely). Returns `None` when no usable snapshot exists.
    pub fn load_latest(dir: &Path) -> DurableResult<Option<Snapshot>> {
        let mut candidates: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".evsn"))
            })
            .collect();
        candidates.sort();
        for path in candidates.iter().rev() {
            if let Ok(snap) = Snapshot::read(path) {
                return Ok(Some(snap));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            events_applied: 42,
            reload_fingerprint: Some(0xFEED_F00D_1234_5678),
            lanes: vec![
                LaneSnapshot {
                    stream_id: 0,
                    dim: 3,
                    frames: 17,
                    decisions: 2,
                    frames_seen: 17,
                    countdown: 4,
                    rows: vec![vec![1.0, 2.0, 3.0], vec![-0.5, 0.0, 0.5]],
                    state_fingerprint: 0xAA,
                },
                LaneSnapshot {
                    stream_id: 9,
                    dim: 1,
                    frames: 0,
                    decisions: 0,
                    frames_seen: 0,
                    countdown: 0,
                    rows: vec![],
                    state_fingerprint: 0xBB,
                },
            ],
        }
    }

    fn payload(snap: &Snapshot) -> Vec<u8> {
        let file = snap.sealed();
        codec::unseal(&file, MAGIC, VERSION).unwrap().to_vec()
    }

    #[test]
    fn payload_round_trips() {
        let snap = sample();
        assert_eq!(Snapshot::decode(&payload(&snap)).unwrap(), snap);
        let boot = Snapshot {
            reload_fingerprint: None,
            ..sample()
        };
        assert_eq!(Snapshot::decode(&payload(&boot)).unwrap(), boot);
    }

    #[test]
    fn snapshot_file_matches_its_golden_image() {
        // FNV-1a of the published file, pinned before the sealed shell moved
        // into `eventhit-core::codec`.
        let dir = std::env::temp_dir().join(format!("evsn-golden-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let (path, _) = sample().write_with_prune_count(&dir).unwrap();
        let bytes = fs::read(path).unwrap();
        assert_eq!(eventhit_telemetry::fnv1a(&bytes), 0xb2eb_c10d_8188_54b6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_round_trips_and_prunes_older() {
        let dir = std::env::temp_dir().join(format!("evsn-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let old = Snapshot {
            events_applied: 10,
            ..sample()
        };
        let new = Snapshot {
            events_applied: 42,
            ..sample()
        };
        let (old_path, _) = old.write_with_prune_count(&dir).unwrap();
        let (new_path, pruned) = new.write_with_prune_count(&dir).unwrap();
        assert!(!old_path.exists(), "older snapshot should be pruned");
        assert_eq!(pruned, 1);
        assert!(new_path.exists());
        assert_eq!(Snapshot::load_latest(&dir).unwrap().unwrap(), new);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_snapshot_is_skipped_by_load_latest() {
        let dir = std::env::temp_dir().join(format!("evsn-dmg-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let good = Snapshot {
            events_applied: 5,
            ..sample()
        };
        good.write_with_prune_count(&dir).unwrap();
        // A newer snapshot that was bit-damaged after publication — built
        // by hand so the write's pruning doesn't remove the good one.
        let bad = Snapshot {
            events_applied: 50,
            ..sample()
        };
        let mut bytes = bad.sealed();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(dir.join(bad.file_name()), &bytes).unwrap();

        let latest = Snapshot::load_latest(&dir).unwrap().unwrap();
        assert_eq!(latest.events_applied, 5, "damaged newer snapshot skipped");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_snapshot_is_a_format_error() {
        let payload = payload(&sample());
        for cut in 0..payload.len() {
            assert!(Snapshot::decode(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }
}
