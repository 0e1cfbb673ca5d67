//! Serialization for fitted conformal state, plus the model/state pair a
//! hot-reload persists beside the log.
//!
//! A mid-serve model reload changes every future decision, so replay must
//! be able to reproduce it *without* the original calibration records.
//! [`save_reload`] therefore persists both halves next to the session
//! log — the weights as `model-<fp:016x>.evht` (the `model_io` v2 format)
//! and the refitted conformal state as `state-<fp:016x>.evcs` — keyed by
//! the weight fingerprint the [`crate::SessionEvent::ModelReloaded`]
//! event records. [`load_reload`] is the inverse used during recovery.
//!
//! The `.evcs` body is `"EVCS" | version u32 | payload_len u64 |
//! crc32 u32 | payload`; the payload stores the calibrated scores and
//! residuals verbatim (f64 bits), so a loaded state is bit-identical to
//! the one saved.

use crate::event::Cursor;
use crate::{DurableError, DurableResult};
use eventhit_conformal::{ConformalClassifier, IntervalCalibration, Nonconformity};
use eventhit_core::model_io;
use eventhit_core::{ConformalState, EventHit};
use eventhit_telemetry::crc32;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"EVCS";
const VERSION: u32 = 1;
/// Upper bound on a conformal-state payload (256 MiB).
const MAX_PAYLOAD_BYTES: u64 = 1 << 28;

fn measure_code(m: Nonconformity) -> u8 {
    match m {
        Nonconformity::OneMinusScore => 0,
        Nonconformity::NegLogScore => 1,
        Nonconformity::Margin => 2,
    }
}

fn measure_from_code(code: u8) -> DurableResult<Nonconformity> {
    Ok(match code {
        0 => Nonconformity::OneMinusScore,
        1 => Nonconformity::NegLogScore,
        2 => Nonconformity::Margin,
        _ => return Err(DurableError::Format("unknown non-conformity code")),
    })
}

/// Serializes a fitted conformal state to its payload bytes.
pub fn encode_state(state: &ConformalState) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&state.tau2().to_le_bytes());
    out.extend_from_slice(&state.horizon().to_le_bytes());
    out.extend_from_slice(&(state.num_events() as u32).to_le_bytes());
    for k in 0..state.num_events() {
        let cc = state.classifier(k);
        out.push(measure_code(cc.measure()));
        let scores = cc.calibration_scores();
        out.extend_from_slice(&(scores.len() as u32).to_le_bytes());
        for &s in scores {
            out.extend_from_slice(&s.to_le_bytes());
        }
        let cal = state.interval_calibration(k);
        for residuals in [cal.start().residuals(), cal.end().residuals()] {
            out.extend_from_slice(&(residuals.len() as u32).to_le_bytes());
            for &r in residuals {
                out.extend_from_slice(&r.to_le_bytes());
            }
        }
    }
    out
}

/// Deserializes a conformal state from its payload bytes.
pub fn decode_state(payload: &[u8]) -> DurableResult<ConformalState> {
    let mut cur = Cursor {
        bytes: payload,
        pos: 0,
    };
    let tau2 = cur.f32()?;
    let horizon = cur.u32()?;
    let num_events = cur.u32()? as usize;
    let mut classifiers = Vec::with_capacity(num_events);
    let mut intervals = Vec::with_capacity(num_events);
    for _ in 0..num_events {
        let measure = measure_from_code(cur.u8()?)?;
        let n = cur.u32()? as usize;
        let mut scores = Vec::with_capacity(n);
        for _ in 0..n {
            scores.push(cur.f64()?);
        }
        classifiers.push(ConformalClassifier::from_parts(measure, scores));
        let mut halves = Vec::with_capacity(2);
        for _ in 0..2 {
            let n = cur.u32()? as usize;
            let mut residuals = Vec::with_capacity(n);
            for _ in 0..n {
                let r = cur.f64()?;
                // `ConformalRegressor::fit` asserts non-negativity; turn a
                // damaged-but-checksum-passing file into an error instead
                // of a panic.
                if r.is_nan() || r < 0.0 {
                    return Err(DurableError::Format(
                        "negative or NaN residual in conformal state",
                    ));
                }
                residuals.push(r);
            }
            halves.push(residuals);
        }
        let end = halves.pop().unwrap();
        let start = halves.pop().unwrap();
        intervals.push(IntervalCalibration::fit(start, end));
    }
    cur.finish()?;
    ConformalState::from_parts(classifiers, intervals, tau2, horizon).map_err(DurableError::Core)
}

/// Writes a conformal state to `path` inside the checksummed shell.
pub fn save_state(state: &ConformalState, path: &Path) -> DurableResult<()> {
    let payload = encode_state(state);
    let mut bytes = Vec::with_capacity(20 + payload.len());
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    let mut f = fs::File::create(path)?;
    f.write_all(&bytes)?;
    f.sync_all()?;
    Ok(())
}

/// Reads a conformal state from `path`, validating shell and checksum.
pub fn load_state(path: &Path) -> DurableResult<ConformalState> {
    let bytes = fs::read(path)?;
    if bytes.len() < 20 || &bytes[0..4] != MAGIC {
        return Err(DurableError::Format("not a conformal-state file"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(DurableError::Format("unsupported conformal-state version"));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if len > MAX_PAYLOAD_BYTES {
        return Err(DurableError::Format("conformal-state length is absurd"));
    }
    let expected = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
    let payload = &bytes[20..];
    if (payload.len() as u64) < len {
        return Err(DurableError::Format("conformal-state payload truncated"));
    }
    let payload = &payload[..len as usize];
    if crc32(payload) != expected {
        return Err(DurableError::Corrupt { offset: 20 });
    }
    decode_state(payload)
}

/// File name of the persisted weights for a reload fingerprint.
pub fn model_file_name(fingerprint: u64) -> String {
    format!("model-{fingerprint:016x}.evht")
}

/// File name of the persisted conformal state for a reload fingerprint.
pub fn state_file_name(fingerprint: u64) -> String {
    format!("state-{fingerprint:016x}.evcs")
}

/// Persists a hot-reloaded model and its refitted conformal state into
/// `dir`, keyed by the weight fingerprint. Returns the fingerprint for
/// the caller to record in a [`crate::SessionEvent::ModelReloaded`]
/// event.
pub fn save_reload(dir: &Path, model: &EventHit, state: &ConformalState) -> DurableResult<u64> {
    let fingerprint = model_io::fingerprint(model);
    model_io::save_to_path(model, dir.join(model_file_name(fingerprint)))?;
    save_state(state, &dir.join(state_file_name(fingerprint)))?;
    Ok(fingerprint)
}

/// Loads the model/state pair persisted under `fingerprint`, verifying
/// the weights hash back to it.
pub fn load_reload(dir: &Path, fingerprint: u64) -> DurableResult<(EventHit, ConformalState)> {
    let model = model_io::load_from_path(dir.join(model_file_name(fingerprint)))?;
    let got = model_io::fingerprint(&model);
    if got != fingerprint {
        return Err(DurableError::Format(
            "reloaded weights do not hash to their file name's fingerprint",
        ));
    }
    let state = load_state(&dir.join(state_file_name(fingerprint)))?;
    Ok((model, state))
}

/// Convenience for snapshots/recovery: the path of a reload's weights.
pub fn model_path(dir: &Path, fingerprint: u64) -> PathBuf {
    dir.join(model_file_name(fingerprint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_core::{task, ExperimentConfig, TaskRun};

    fn fitted_state() -> ConformalState {
        TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(31)).state
    }

    #[test]
    fn state_round_trips_bit_identically() {
        let state = fitted_state();
        let decoded = decode_state(&encode_state(&state)).unwrap();
        assert_eq!(decoded.num_events(), state.num_events());
        assert_eq!(decoded.tau2(), state.tau2());
        assert_eq!(decoded.horizon(), state.horizon());
        for k in 0..state.num_events() {
            assert_eq!(
                decoded.classifier(k).calibration_scores(),
                state.classifier(k).calibration_scores(),
                "event {k} classifier scores"
            );
            assert_eq!(
                decoded.interval_calibration(k).start().residuals(),
                state.interval_calibration(k).start().residuals(),
                "event {k} start residuals"
            );
            assert_eq!(
                decoded.interval_calibration(k).end().residuals(),
                state.interval_calibration(k).end().residuals(),
                "event {k} end residuals"
            );
        }
    }

    #[test]
    fn reload_pair_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("evcs-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(32));
        let fp = save_reload(&dir, &run.model, &run.state).unwrap();
        let (loaded, state) = load_reload(&dir, fp).unwrap();
        assert_eq!(model_io::fingerprint(&loaded), fp);
        assert_eq!(state.num_events(), run.state.num_events());
        assert!(load_reload(&dir, fp ^ 1).is_err(), "missing pair must fail");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_state_payload_is_an_error() {
        let payload = encode_state(&fitted_state());
        for cut in (0..payload.len()).step_by(7) {
            assert!(decode_state(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }
}
