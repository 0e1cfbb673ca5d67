//! The session event vocabulary and its wire encoding.
//!
//! Every state-changing serving operation is one [`SessionEvent`]. The
//! log stores them in application order, and replaying them in that order
//! through real predictors reconstructs lane state bit-identically.
//!
//! Decisions are logged as *fingerprints*, not full payloads: replay
//! recomputes each decision from the model and compares fingerprints, so
//! a divergence (wrong weights, wrong lane, wrong strategy) is detected
//! instead of silently absorbed.

use crate::{DurableError, DurableResult};
use eventhit_core::resilient::DegradationTag;
use eventhit_core::streaming::HorizonDecision;
use eventhit_telemetry::fnv1a;

const TAG_STREAM_ADMITTED: u8 = 1;
const TAG_FRAMES_PUSHED: u8 = 2;
const TAG_DECISION_EMITTED: u8 = 3;
const TAG_MODEL_RELOADED: u8 = 4;
const TAG_STREAM_CLOSED: u8 = 5;

/// One state-changing serving operation, as persisted in the session log.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// A stream was admitted and a fresh lane created for it.
    StreamAdmitted {
        /// Server-assigned stream id.
        stream_id: u32,
        /// Feature dimension of the stream's frames.
        dim: u32,
    },
    /// A batch of frames was accepted into the stream's lane. Written
    /// ahead of the batch's `DecisionEmitted` records and durable before
    /// the batch is acknowledged, so the log never under-counts state the
    /// client may have observed.
    FramesPushed {
        /// The stream the frames belong to.
        stream_id: u32,
        /// Feature dimension (row stride into `data`).
        dim: u32,
        /// Row-major frame data, `data.len() % dim == 0`.
        data: Vec<f32>,
    },
    /// A decision fired at an anchor. Only the fingerprint is stored;
    /// replay recomputes the decision and verifies it.
    DecisionEmitted {
        /// The stream that produced the decision.
        stream_id: u32,
        /// Anchor frame of the decision.
        anchor: u64,
        /// [`decision_fingerprint`] of the emitted decision.
        fingerprint: u64,
    },
    /// The serving model (and its refitted conformal state) was swapped.
    /// The weights and state live beside the log under this fingerprint
    /// (see [`crate::state_io`]), so replay is self-contained.
    ModelReloaded {
        /// [`eventhit_core::model_io::fingerprint`] of the new weights.
        fingerprint: u64,
    },
    /// A stream was closed and its lane retired.
    StreamClosed {
        /// The closed stream.
        stream_id: u32,
    },
}

impl SessionEvent {
    /// Serializes the event to its log payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the event's log payload to `out` — what the store's write
    /// path frames in place, so a batch's floats are copied once.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            SessionEvent::StreamAdmitted { stream_id, dim } => {
                out.push(TAG_STREAM_ADMITTED);
                out.extend_from_slice(&stream_id.to_le_bytes());
                out.extend_from_slice(&dim.to_le_bytes());
            }
            SessionEvent::FramesPushed {
                stream_id,
                dim,
                data,
            } => {
                out.push(TAG_FRAMES_PUSHED);
                out.extend_from_slice(&stream_id.to_le_bytes());
                out.extend_from_slice(&dim.to_le_bytes());
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.reserve(data.len() * 4);
                for &v in data {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            SessionEvent::DecisionEmitted {
                stream_id,
                anchor,
                fingerprint,
            } => {
                out.push(TAG_DECISION_EMITTED);
                out.extend_from_slice(&stream_id.to_le_bytes());
                out.extend_from_slice(&anchor.to_le_bytes());
                out.extend_from_slice(&fingerprint.to_le_bytes());
            }
            SessionEvent::ModelReloaded { fingerprint } => {
                out.push(TAG_MODEL_RELOADED);
                out.extend_from_slice(&fingerprint.to_le_bytes());
            }
            SessionEvent::StreamClosed { stream_id } => {
                out.push(TAG_STREAM_CLOSED);
                out.extend_from_slice(&stream_id.to_le_bytes());
            }
        }
    }

    /// Deserializes an event from a log payload.
    pub fn decode(payload: &[u8]) -> DurableResult<SessionEvent> {
        let mut cur = Cursor {
            bytes: payload,
            pos: 0,
        };
        let tag = cur.u8()?;
        let ev = match tag {
            TAG_STREAM_ADMITTED => SessionEvent::StreamAdmitted {
                stream_id: cur.u32()?,
                dim: cur.u32()?,
            },
            TAG_FRAMES_PUSHED => {
                let stream_id = cur.u32()?;
                let dim = cur.u32()?;
                let n = cur.u32()? as usize;
                if dim == 0 || !n.is_multiple_of(dim as usize) {
                    return Err(DurableError::Format(
                        "frame batch length is not a multiple of its dimension",
                    ));
                }
                // Bounds-check the whole run once (so a lying count
                // allocates nothing), then convert it in one pass.
                let raw = cur.take(
                    n.checked_mul(4)
                        .ok_or(DurableError::Format("frame batch length overflows"))?,
                )?;
                let data = raw
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                SessionEvent::FramesPushed {
                    stream_id,
                    dim,
                    data,
                }
            }
            TAG_DECISION_EMITTED => SessionEvent::DecisionEmitted {
                stream_id: cur.u32()?,
                anchor: cur.u64()?,
                fingerprint: cur.u64()?,
            },
            TAG_MODEL_RELOADED => SessionEvent::ModelReloaded {
                fingerprint: cur.u64()?,
            },
            TAG_STREAM_CLOSED => SessionEvent::StreamClosed {
                stream_id: cur.u32()?,
            },
            _ => return Err(DurableError::Format("unknown session event tag")),
        };
        cur.finish()?;
        Ok(ev)
    }
}

/// FNV-1a fingerprint of a decision's observable content: the anchor,
/// the degradation tag, and every predicted interval. Two decisions
/// fingerprint equal iff a downstream consumer could not tell them apart.
pub fn decision_fingerprint(d: &HorizonDecision) -> u64 {
    let mut bytes = Vec::with_capacity(16 + d.predictions.len() * 9);
    bytes.extend_from_slice(&d.anchor.to_le_bytes());
    match d.degradation {
        DegradationTag::None => bytes.push(0),
        DegradationTag::Retried { retries } => {
            bytes.push(1);
            bytes.extend_from_slice(&retries.to_le_bytes());
        }
        DegradationTag::Dropped => bytes.push(2),
        DegradationTag::Deferred => bytes.push(3),
        DegradationTag::LocalOnly => bytes.push(4),
    }
    bytes.extend_from_slice(&(d.predictions.len() as u32).to_le_bytes());
    for p in &d.predictions {
        bytes.push(p.present as u8);
        bytes.extend_from_slice(&p.start.to_le_bytes());
        bytes.extend_from_slice(&p.end.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Bounds-checked little-endian reader over a payload. Shared by every
/// payload decoder in the crate.
pub(crate) struct Cursor<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl Cursor<'_> {
    pub(crate) fn take(&mut self, n: usize) -> DurableResult<&[u8]> {
        if self.bytes.len() - self.pos < n {
            return Err(DurableError::Format("payload truncated"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> DurableResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> DurableResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> DurableResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f32(&mut self) -> DurableResult<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> DurableResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn finish(&self) -> DurableResult<()> {
        if self.pos != self.bytes.len() {
            return Err(DurableError::Format("trailing bytes after payload"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_core::IntervalPrediction;

    fn all_events() -> Vec<SessionEvent> {
        vec![
            SessionEvent::StreamAdmitted {
                stream_id: 7,
                dim: 34,
            },
            SessionEvent::FramesPushed {
                stream_id: 7,
                dim: 2,
                data: vec![0.5, -1.25, 3.0, f32::MIN_POSITIVE],
            },
            SessionEvent::DecisionEmitted {
                stream_id: 7,
                anchor: 119,
                fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            },
            SessionEvent::ModelReloaded {
                fingerprint: 0x0123_4567_89AB_CDEF,
            },
            SessionEvent::StreamClosed { stream_id: 7 },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for ev in all_events() {
            let decoded = SessionEvent::decode(&ev.encode()).unwrap();
            assert_eq!(decoded, ev);
        }
    }

    #[test]
    fn every_truncation_is_a_format_error() {
        for ev in all_events() {
            let bytes = ev.encode();
            for cut in 0..bytes.len() {
                assert!(
                    SessionEvent::decode(&bytes[..cut]).is_err(),
                    "{ev:?} truncated at {cut} should not decode"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = SessionEvent::StreamClosed { stream_id: 1 }.encode();
        bytes.push(0xFF);
        assert!(SessionEvent::decode(&bytes).is_err());
    }

    #[test]
    fn ragged_frame_batch_is_rejected() {
        // 3 floats declared with dim 2 — not a whole number of rows.
        let ev = SessionEvent::FramesPushed {
            stream_id: 1,
            dim: 2,
            data: vec![1.0, 2.0, 3.0],
        };
        assert!(SessionEvent::decode(&ev.encode()).is_err());
    }

    #[test]
    fn decision_fingerprint_tracks_content() {
        let base = HorizonDecision {
            anchor: 63,
            predictions: vec![
                IntervalPrediction {
                    present: true,
                    start: 2,
                    end: 9,
                },
                IntervalPrediction::absent(),
            ],
            degradation: DegradationTag::None,
        };
        let fp = decision_fingerprint(&base);
        assert_eq!(fp, decision_fingerprint(&base.clone()));

        let mut moved = base.clone();
        moved.anchor += 1;
        assert_ne!(fp, decision_fingerprint(&moved));

        let mut widened = base.clone();
        widened.predictions[0].end = 10;
        assert_ne!(fp, decision_fingerprint(&widened));

        let mut degraded = base;
        degraded.degradation = DegradationTag::Retried { retries: 1 };
        assert_ne!(fp, decision_fingerprint(&degraded));
    }
}
