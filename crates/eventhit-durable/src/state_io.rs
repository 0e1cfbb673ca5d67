//! Serialization for fitted conformal state, plus the model/state pair a
//! hot-reload persists beside the log.
//!
//! A mid-serve model reload changes every future decision, so replay must
//! be able to reproduce it *without* the original calibration records.
//! [`save_reload`] therefore persists both halves next to the session
//! log — the weights as `model-<fp:016x>.evht` (the `model_io` v2 format)
//! and the refitted conformal state as `state-<fp:016x>.evcs` — keyed by
//! the weight fingerprint the [`crate::SessionEvent::ModelReloaded`]
//! event records, and never replaces a pair once it is there.
//! [`load_reload`] is the inverse used during recovery.
//!
//! The `.evcs` file is a sealed file of [`eventhit_core::codec`] (magic
//! `EVCS`, version 1); the payload stores the calibrated scores and
//! residuals verbatim (f64 bits), so a loaded state is bit-identical to
//! the one saved.

use crate::{DurableError, DurableResult};
use eventhit_conformal::{ConformalClassifier, IntervalCalibration, Nonconformity};
use eventhit_core::codec::{self, Reader, Writer};
use eventhit_core::model_io;
use eventhit_core::{ConformalState, EventHit};
use eventhit_telemetry::fnv1a;
use std::fs;
use std::io;
use std::path::Path;

const MAGIC: &[u8; 4] = b"EVCS";
const VERSION: u32 = 1;

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

fn put_state(state: &ConformalState, w: &mut Writer) {
    w.f32(state.tau2());
    w.u32(state.horizon());
    w.count(state.num_events());
    for k in 0..state.num_events() {
        let cc = state.classifier(k);
        w.u8(measure_code(cc.measure()));
        let cal = state.interval_calibration(k);
        for run in [
            cc.calibration_scores(),
            cal.start().residuals(),
            cal.end().residuals(),
        ] {
            w.count(run.len());
            for &v in run {
                w.f64(v);
            }
        }
    }
}

/// Deserializes a conformal state from its payload bytes.
pub fn decode_state(payload: &[u8]) -> DurableResult<ConformalState> {
    let mut r = Reader::new(payload);
    let tau2 = r.f32()?;
    let horizon = r.u32()?;
    // `ConformalRegressor::fit` asserts non-negativity; a damaged but
    // checksum-passing file is an error instead of a panic.
    let residuals = |r: &mut Reader| {
        r.counted(|r| match r.f64()? {
            v if v >= 0.0 => Ok(v),
            _ => Err(DurableError::Format(
                "negative or NaN residual in conformal state",
            )),
        })
    };
    let events = r.counted(|r| {
        let measure = measure_from_code(r.u8()?)?;
        let classifier = ConformalClassifier::from_parts(measure, r.counted(Reader::f64)?);
        let interval = IntervalCalibration::fit(residuals(r)?, residuals(r)?);
        Ok::<_, DurableError>((classifier, interval))
    })?;
    r.finish()?;
    let (classifiers, intervals) = events.into_iter().unzip();
    ConformalState::from_parts(classifiers, intervals, tau2, horizon).map_err(DurableError::Core)
}

/// A conformal state as the sealed file [`load_state`] reads.
fn seal_state(state: &ConformalState) -> Vec<u8> {
    codec::seal(MAGIC, VERSION, |w| put_state(state, w))
}

/// Reads a conformal state from `path`, validating shell and checksum.
pub fn load_state(path: &Path) -> DurableResult<ConformalState> {
    let file = fs::read(path)?;
    decode_state(codec::unseal(&file, MAGIC, VERSION)?)
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
///
/// A pair is never replaced: a file already holding the same bytes is
/// left untouched, and weights already persisted with a different state
/// are [`DurableError::ReloadConflict`] before anything is written — an
/// earlier `ModelReloaded` event may name the pair on disk.
pub fn save_reload(dir: &Path, model: &EventHit, state: &ConformalState) -> DurableResult<u64> {
    let mut weights = Vec::new();
    model_io::save(model, &mut weights)?;
    // What `model_io::fingerprint` hashes, without sealing the model twice.
    let fingerprint = fnv1a(&weights);
    let pair = [
        (dir.join(model_file_name(fingerprint)), weights),
        (dir.join(state_file_name(fingerprint)), seal_state(state)),
    ];
    let mut missing = Vec::new();
    for (path, bytes) in &pair {
        match fs::read(path) {
            Ok(on_disk) if on_disk == *bytes => {}
            Ok(_) => return Err(DurableError::ReloadConflict { fingerprint }),
            Err(e) if e.kind() == io::ErrorKind::NotFound => missing.push((path, bytes)),
            Err(e) => return Err(e.into()),
        }
    }
    for (path, bytes) in missing {
        codec::write_atomic(path, bytes)?;
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_core::{task, ExperimentConfig, TaskRun};

    fn fitted_state() -> ConformalState {
        TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(31)).state
    }

    fn payload(state: &ConformalState) -> Vec<u8> {
        let file = seal_state(state);
        codec::unseal(&file, MAGIC, VERSION).unwrap().to_vec()
    }

    #[test]
    fn state_round_trips_bit_identically() {
        let state = fitted_state();
        let decoded = decode_state(&payload(&state)).unwrap();
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
    fn state_file_matches_its_golden_image() {
        // FNV-1a of the file bytes, pinned before the sealed shell moved
        // into `eventhit-core::codec`.
        let file = seal_state(&fitted_state());
        assert_eq!(fnv1a(&file), 0x5b8a_e93d_93bd_50e7);
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
        let payload = payload(&fitted_state());
        for cut in (0..payload.len()).step_by(7) {
            assert!(decode_state(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }
}
