//! Model persistence: save and load trained EventHit weights.
//!
//! Training happens once (against CI-labelled data, §I); the deployed
//! marshaller then needs the weights without retraining. The format is a
//! small versioned binary layout written with plain `std::io`, no
//! serialization framework:
//!
//! ```text
//! +-------+-------------+------------------+------------+---------+
//! | magic | version u32 | payload_len u64  | crc32 u32  | payload |
//! +-------+-------------+------------------+------------+---------+
//! ```
//!
//! The payload holds the config fields, the encoder kind, and each
//! parameter tensor in the model's stable parameter order. Version 2
//! added the `payload_len` + CRC-32 header so a truncated or corrupted
//! weights file fails loudly with a typed [`CoreError`] — under version 1
//! a short read could end *between* fields and mis-deserialize silently.
//! Version-1 files (no length/checksum header) still load.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use eventhit_telemetry::{crc32, fnv1a};

use crate::error::{CoreError, CoreResult};
use crate::model::{EncoderKind, EventHit, EventHitConfig};

const MAGIC: &[u8; 4] = b"EVHT";
const VERSION: u32 = 2;
/// Most permissive payload the loader will allocate for — far above any
/// real EventHit (hidden dims are two digits), it only guards against a
/// corrupted length field requesting gigabytes.
const MAX_PAYLOAD_BYTES: u64 = 1 << 31;

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f32(w: &mut impl Write, v: f32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_f32(r: &mut impl Read) -> io::Result<f32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(f32::from_le_bytes(buf))
}

fn bad(msg: &'static str) -> CoreError {
    CoreError::ModelFormat(msg)
}

/// Serializes the version-agnostic payload: config, encoder kind, params.
fn write_payload(model: &EventHit, w: &mut impl Write) -> CoreResult<()> {
    let cfg = model.config().clone();
    write_u32(w, cfg.input_dim as u32)?;
    write_u32(w, cfg.window as u32)?;
    write_u32(w, cfg.horizon as u32)?;
    write_u32(w, cfg.num_events as u32)?;
    write_u32(w, cfg.hidden_dim as u32)?;
    write_u32(w, cfg.shared_dim as u32)?;
    write_f32(w, cfg.dropout)?;
    write_u32(
        w,
        match model.encoder_kind() {
            EncoderKind::Lstm => 0,
            EncoderKind::Gru => 1,
        },
    )?;

    let params = model.params();
    write_u32(w, params.len() as u32)?;
    for p in params {
        write_u32(w, p.rows() as u32)?;
        write_u32(w, p.cols() as u32)?;
        for &x in p.as_slice() {
            write_f32(w, x)?;
        }
    }
    Ok(())
}

/// Deserializes the payload written by [`write_payload`].
fn read_payload(r: &mut impl Read) -> CoreResult<EventHit> {
    let cfg = EventHitConfig {
        input_dim: read_u32(r)? as usize,
        window: read_u32(r)? as usize,
        horizon: read_u32(r)? as usize,
        num_events: read_u32(r)? as usize,
        hidden_dim: read_u32(r)? as usize,
        shared_dim: read_u32(r)? as usize,
        dropout: read_f32(r)?,
    };
    let kind = match read_u32(r)? {
        0 => EncoderKind::Lstm,
        1 => EncoderKind::Gru,
        _ => return Err(bad("unknown encoder kind")),
    };
    let mut model = EventHit::with_encoder(cfg, kind, 0);

    let n_params = read_u32(r)? as usize;
    let mut params = model.params_mut();
    if n_params != params.len() {
        return Err(bad("parameter count mismatch"));
    }
    for p in params.iter_mut() {
        let rows = read_u32(r)? as usize;
        let cols = read_u32(r)? as usize;
        if (rows, cols) != p.value.shape() {
            return Err(bad("parameter shape mismatch"));
        }
        for x in p.value.as_mut_slice() {
            *x = read_f32(r)?;
        }
    }
    drop(params);
    Ok(model)
}

/// Serializes a trained model (version 2: length + CRC-32 header).
pub fn save(model: &EventHit, w: &mut impl Write) -> CoreResult<()> {
    let mut payload = Vec::new();
    write_payload(model, &mut payload)?;
    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    write_u32(w, crc32(&payload))?;
    w.write_all(&payload)?;
    Ok(())
}

/// Deserializes a model saved with [`save`].
///
/// Accepts version 2 (checksummed) and legacy version 1 (bare payload).
/// A version-2 file that is shorter than its declared payload fails with
/// [`CoreError::ModelFormat`]; one whose payload bytes do not hash to the
/// recorded CRC-32 fails with [`CoreError::ChecksumMismatch`] — either
/// way, corrupted weights never deserialize silently.
pub fn load(r: &mut impl Read) -> CoreResult<EventHit> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not an EventHit model file (bad magic)"));
    }
    match read_u32(r)? {
        1 => read_payload(r),
        2 => {
            let declared = read_u64(r)?;
            if declared > MAX_PAYLOAD_BYTES {
                return Err(bad("declared payload length is implausibly large"));
            }
            let expected = read_u32(r)?;
            let mut payload = vec![0u8; declared as usize];
            r.read_exact(&mut payload)
                .map_err(|_| bad("model payload truncated (shorter than its header declares)"))?;
            let got = crc32(&payload);
            if got != expected {
                return Err(CoreError::ChecksumMismatch { expected, got });
            }
            read_payload(&mut payload.as_slice())
        }
        _ => Err(bad("unsupported model file version")),
    }
}

/// Saves to a file path.
pub fn save_to_path(model: &EventHit, path: impl AsRef<Path>) -> CoreResult<()> {
    let mut w = BufWriter::new(File::create(path)?);
    save(model, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Loads from a file path.
pub fn load_from_path(path: impl AsRef<Path>) -> CoreResult<EventHit> {
    let mut r = BufReader::new(File::open(path)?);
    load(&mut r)
}

/// FNV-1a fingerprint of the model's serialized bytes: two models
/// fingerprint equal iff they serialize bit-identically (same config,
/// encoder, and every weight bit). This is the identity the durable
/// serving layer logs with `ModelReloaded` events and snapshot headers.
pub fn fingerprint(model: &EventHit) -> u64 {
    let mut bytes = Vec::new();
    save(model, &mut bytes).expect("in-memory serialization cannot fail");
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_nn::matrix::Matrix;
    use eventhit_video::records::{EventLabel, Record};

    fn tiny_model(seed: u64) -> EventHit {
        EventHit::new(
            EventHitConfig {
                input_dim: 4,
                window: 3,
                horizon: 8,
                num_events: 2,
                hidden_dim: 6,
                shared_dim: 5,
                dropout: 0.1,
            },
            seed,
        )
    }

    fn probe_record() -> Record {
        Record {
            anchor: 0,
            covariates: Matrix::from_vec(3, 4, (0..12).map(|i| (i as f32) / 12.0 - 0.4).collect()),
            labels: vec![EventLabel::absent(); 2],
        }
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let model = tiny_model(1);
        let rec = probe_record();
        let before = model.forward_inference(&[&rec]);

        let mut buf = Vec::new();
        save(&model, &mut buf).unwrap();
        let restored = load(&mut buf.as_slice()).unwrap();
        let after = restored.forward_inference(&[&rec]);

        assert_eq!(before, after, "loaded model must predict identically");
        assert_eq!(restored.config(), model.config());
    }

    #[test]
    fn round_trip_via_file() {
        let model = tiny_model(2);
        let path = std::env::temp_dir().join("eventhit_model_io_test.evht");
        save_to_path(&model, &path).unwrap();
        let restored = load_from_path(&path).unwrap();
        let rec = probe_record();
        assert_eq!(
            model.forward_inference(&[&rec]),
            restored.forward_inference(&[&rec])
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = Vec::new();
        save(&tiny_model(3), &mut buf).unwrap();
        buf[0] = b'X';
        let err = load(&mut buf.as_slice()).err().expect("must fail");
        assert!(matches!(err, CoreError::ModelFormat(_)), "{err}");
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        save(&tiny_model(4), &mut buf).unwrap();
        buf[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(load(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncation_is_a_typed_format_error() {
        // Any truncation inside the payload must surface as a typed
        // ModelFormat error — never as silently mis-deserialized weights,
        // and never as a bare Io error that hides what happened.
        let mut buf = Vec::new();
        save(&tiny_model(5), &mut buf).unwrap();
        for cut in [buf.len() / 2, buf.len() - 1, 17] {
            let mut short = buf.clone();
            short.truncate(cut);
            let err = load(&mut short.as_slice()).err().expect("must fail");
            assert!(
                matches!(err, CoreError::ModelFormat(_) | CoreError::Io(_)),
                "cut at {cut}: {err}"
            );
        }
        // A cut inside the payload proper (past the 20-byte header) is
        // always the typed ModelFormat truncation error.
        let mut short = buf.clone();
        short.truncate(buf.len() - 1);
        let err = load(&mut short.as_slice()).err().expect("must fail");
        assert!(matches!(err, CoreError::ModelFormat(_)), "{err}");
    }

    #[test]
    fn corruption_is_a_checksum_mismatch() {
        let mut buf = Vec::new();
        save(&tiny_model(6), &mut buf).unwrap();
        // Flip one bit deep inside a weight tensor.
        let at = buf.len() - 9;
        buf[at] ^= 0x40;
        let err = load(&mut buf.as_slice()).err().expect("must fail");
        assert!(matches!(err, CoreError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn legacy_version_1_files_still_load() {
        // A v1 file is magic + version + bare payload (no length, no CRC).
        let model = tiny_model(7);
        let mut payload = Vec::new();
        write_payload(&model, &mut payload).unwrap();
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&payload);
        let restored = load(&mut v1.as_slice()).unwrap();
        let rec = probe_record();
        assert_eq!(
            model.forward_inference(&[&rec]),
            restored.forward_inference(&[&rec])
        );
    }

    #[test]
    fn gru_round_trip_preserves_encoder_and_predictions() {
        let cfg = EventHitConfig {
            input_dim: 4,
            window: 3,
            horizon: 8,
            num_events: 1,
            hidden_dim: 6,
            shared_dim: 5,
            dropout: 0.0,
        };
        let model = EventHit::with_encoder(cfg, EncoderKind::Gru, 11);
        let rec = probe_record();
        let before = model.forward_inference(&[&rec]);
        let mut buf = Vec::new();
        save(&model, &mut buf).unwrap();
        let restored = load(&mut buf.as_slice()).unwrap();
        assert_eq!(restored.encoder_kind(), EncoderKind::Gru);
        assert_eq!(before, restored.forward_inference(&[&rec]));
    }

    #[test]
    fn different_models_serialize_differently() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        save(&tiny_model(8), &mut a).unwrap();
        save(&tiny_model(9), &mut b).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len(), "same architecture, same file size");
    }

    #[test]
    fn fingerprint_tracks_weight_identity() {
        let fp_a = fingerprint(&tiny_model(10));
        let fp_a2 = fingerprint(&tiny_model(10));
        let fp_b = fingerprint(&tiny_model(11));
        assert_eq!(fp_a, fp_a2, "same seed, same weights, same fingerprint");
        assert_ne!(fp_a, fp_b, "different weights must fingerprint apart");
    }
}
