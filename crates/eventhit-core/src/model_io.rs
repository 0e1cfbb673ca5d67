//! Model persistence: save and load trained EventHit weights.
//!
//! Training happens once (against CI-labelled data, §I); the deployed
//! marshaller then needs the weights without retraining. A model file is a
//! sealed file of [`crate::codec`] with magic `EVHT`, version 2:
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
//! Version-1 files (no length/checksum header) still load. Either way the
//! loader reads no more than the bytes present and builds nothing until
//! the config's dimensions are non-zero and its tensors fill them.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use eventhit_telemetry::fnv1a;

use crate::codec::{self, CodecError, Reader};
use crate::error::{CoreError, CoreResult};
use crate::model::{EncoderKind, EventHit, EventHitConfig};

const MAGIC: &[u8; 4] = b"EVHT";
const VERSION: u32 = 2;
/// Most payload the loader reads — far above any real EventHit (hidden
/// dims are two digits), it only bounds a length field or a stream that
/// never ends. Nothing is allocated for it before the bytes arrive.
const MAX_PAYLOAD_BYTES: u64 = 1 << 31;

fn bad(msg: &'static str) -> CoreError {
    CoreError::ModelFormat(msg)
}

impl From<CodecError> for CoreError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Checksum { expected, got } => CoreError::ChecksumMismatch { expected, got },
            other => bad(other.what()),
        }
    }
}

/// The sealed file: config, encoder kind, then every parameter tensor.
fn encode(model: &EventHit) -> Vec<u8> {
    codec::seal(MAGIC, VERSION, |w| {
        let cfg = model.config();
        let dims = [
            cfg.input_dim,
            cfg.window,
            cfg.horizon,
            cfg.num_events,
            cfg.hidden_dim,
            cfg.shared_dim,
        ];
        for dim in dims {
            w.u32(dim as u32);
        }
        w.f32(cfg.dropout);
        w.u32(match model.encoder_kind() {
            EncoderKind::Lstm => 0,
            EncoderKind::Gru => 1,
        });
        let params = model.params();
        w.count(params.len());
        for p in params {
            w.u32(p.rows() as u32);
            w.u32(p.cols() as u32);
            w.f32s(p.as_slice());
        }
    })
}

/// Deserializes the payload [`encode`] seals.
fn decode(r: &mut Reader) -> CoreResult<EventHit> {
    let cfg = EventHitConfig {
        input_dim: r.u32()? as usize,
        window: r.u32()? as usize,
        horizon: r.u32()? as usize,
        num_events: r.u32()? as usize,
        hidden_dim: r.u32()? as usize,
        shared_dim: r.u32()? as usize,
        dropout: r.f32()?,
    };
    if !(0.0..1.0).contains(&cfg.dropout) {
        return Err(bad("dropout outside [0, 1)"));
    }
    let kind = match r.u32()? {
        0 => EncoderKind::Lstm,
        1 => EncoderKind::Gru,
        _ => return Err(bad("unknown encoder kind")),
    };
    let tensors = r.counted(|r| {
        let shape = (r.u32()? as usize, r.u32()? as usize);
        let len = (shape.0).checked_mul(shape.1);
        let len = len.ok_or(CodecError::Invalid("tensor size overflows"))?;
        Ok::<_, CodecError>((shape, r.f32s(len)?))
    })?;
    // Before anything is built: a zero dimension would panic the build,
    // and dimensions the tensors do not fill would allocate for floats the
    // file does not hold.
    let floats: usize = tensors.iter().map(|(_, run)| run.len()).sum();
    if cfg.param_count(kind) != Some(floats) {
        return Err(bad("model dimensions are zero or do not match its tensors"));
    }

    let mut model = EventHit::with_encoder(cfg, kind, 0);
    let mut params = model.params_mut();
    if tensors.len() != params.len() {
        return Err(bad("parameter count mismatch"));
    }
    for (p, (shape, run)) in params.iter_mut().zip(tensors) {
        if shape != p.value.shape() {
            return Err(bad("parameter shape mismatch"));
        }
        for (x, v) in p.value.as_mut_slice().iter_mut().zip(run.iter()) {
            *x = v;
        }
    }
    drop(params);
    Ok(model)
}

/// Serializes a trained model (version 2: length + CRC-32 header).
pub fn save(model: &EventHit, w: &mut impl Write) -> CoreResult<()> {
    w.write_all(&encode(model))?;
    Ok(())
}

/// Deserializes a model saved with [`save`], reading the one model at the
/// front of `r` and not a byte past it — except a legacy version-1 file,
/// whose payload has no length, so `r` is read to its end.
///
/// Accepts version 2 (checksummed) and legacy version 1 (bare payload).
/// A file shorter than its fields, a zero dimension, or dimensions its
/// tensors do not fill fail with [`CoreError::ModelFormat`]; payload bytes
/// that do not hash to the recorded CRC-32 fail with
/// [`CoreError::ChecksumMismatch`] — either way, corrupted weights never
/// deserialize silently.
pub fn load(r: &mut impl Read) -> CoreResult<EventHit> {
    let mut file = vec![0; codec::SEALED_HEADER_BYTES];
    r.read_exact(&mut file[..8])?;
    let v1 = file[4..8] == 1u32.to_le_bytes();
    let len = if v1 {
        file.truncate(8);
        MAX_PAYLOAD_BYTES
    } else {
        r.read_exact(&mut file[8..])?;
        Reader::new(&file[8..16]).u64()?.min(MAX_PAYLOAD_BYTES)
    };
    r.take(len).read_to_end(&mut file)?;
    let payload = match codec::unseal(&file, MAGIC, VERSION) {
        Err(CodecError::Version(1)) => &file[8..],
        sealed => sealed?,
    };
    let mut r = Reader::new(payload);
    let model = decode(&mut r)?;
    // A v1 payload ends where its last tensor does; what follows in the
    // stream was never part of the model.
    if !v1 {
        r.finish()?;
    }
    Ok(model)
}

/// Saves to a file path atomically (see [`codec::write_atomic`]).
pub fn save_to_path(model: &EventHit, path: impl AsRef<Path>) -> CoreResult<()> {
    codec::write_atomic(path.as_ref(), &encode(model))?;
    Ok(())
}

/// Loads from a file path (see [`load`]).
pub fn load_from_path(path: impl AsRef<Path>) -> CoreResult<EventHit> {
    load(&mut File::open(path)?)
}

/// FNV-1a fingerprint of the model's serialized bytes: two models
/// fingerprint equal iff they serialize bit-identically (same config,
/// encoder, and every weight bit). This is the identity the durable
/// serving layer logs with `ModelReloaded` events and snapshot headers.
pub fn fingerprint(model: &EventHit) -> u64 {
    fnv1a(&encode(model))
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
        // Both images are pinned by the FNV-1a taken before the sealed
        // shell moved into `crate::codec`.
        let model = tiny_model(7);
        let mut v2 = Vec::new();
        save(&model, &mut v2).unwrap();
        let v1 = [&MAGIC[..], &1u32.to_le_bytes(), &v2[20..]].concat();
        assert_eq!(
            (fnv1a(&v2), fnv1a(&v1)),
            (0x4cd4_f55a_4575_f0f3, 0xb40f_0677_884f_b308)
        );
        let restored = load(&mut v1.as_slice()).unwrap();
        let rec = probe_record();
        assert_eq!(
            model.forward_inference(&[&rec]),
            restored.forward_inference(&[&rec])
        );
    }

    #[test]
    fn load_reads_one_model_and_leaves_the_rest_of_the_stream() {
        let model = tiny_model(13);
        let mut v2 = Vec::new();
        save(&model, &mut v2).unwrap();
        let stream = [&v2[..], b"next"].concat();
        let mut r = stream.as_slice();
        load(&mut r).unwrap();
        assert_eq!(r, b"next", "a v2 load stops at its payload's end");
        // v1 has no length: the stream is read to its end, and bytes after
        // the model's last tensor are not an error.
        let v1 = [&MAGIC[..], &1u32.to_le_bytes(), &v2[20..], b"next"].concat();
        let restored = load(&mut v1.as_slice()).unwrap();
        assert_eq!(fingerprint(&restored), fingerprint(&model));
    }

    #[test]
    fn a_config_its_tensors_cannot_fill_is_refused_before_building() {
        let mut file = Vec::new();
        save(&tiny_model(12), &mut file).unwrap();
        // input_dim (the payload's first field) 0, then 2^20, and a dropout
        // of 1: each resealed, so only the check on the fields can refuse.
        let payload = &file[20..];
        for (at, field) in [(0, 0u32), (0, 1 << 20), (24, 1.0f32.to_bits())] {
            let mut bad = payload.to_vec();
            bad[at..at + 4].copy_from_slice(&field.to_le_bytes());
            let resealed = codec::seal(MAGIC, VERSION, |w| w.bytes(&bad));
            let err = load(&mut resealed.as_slice()).err().expect("must fail");
            assert!(matches!(err, CoreError::ModelFormat(_)), "{err}");
        }
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
