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
use eventhit_core::codec::{Reader, Writer};
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
        let mut w = Writer::new(out);
        match self {
            SessionEvent::StreamAdmitted { stream_id, dim } => {
                w.u8(TAG_STREAM_ADMITTED);
                w.u32(*stream_id);
                w.u32(*dim);
            }
            SessionEvent::FramesPushed {
                stream_id,
                dim,
                data,
            } => {
                w.u8(TAG_FRAMES_PUSHED);
                w.u32(*stream_id);
                w.u32(*dim);
                w.count(data.len());
                w.f32s(data);
            }
            SessionEvent::DecisionEmitted {
                stream_id,
                anchor,
                fingerprint,
            } => {
                w.u8(TAG_DECISION_EMITTED);
                w.u32(*stream_id);
                w.u64(*anchor);
                w.u64(*fingerprint);
            }
            SessionEvent::ModelReloaded { fingerprint } => {
                w.u8(TAG_MODEL_RELOADED);
                w.u64(*fingerprint);
            }
            SessionEvent::StreamClosed { stream_id } => {
                w.u8(TAG_STREAM_CLOSED);
                w.u32(*stream_id);
            }
        }
    }

    /// Deserializes an event from a log payload.
    pub fn decode(payload: &[u8]) -> DurableResult<SessionEvent> {
        let mut r = Reader::new(payload);
        let ev = match r.u8()? {
            TAG_STREAM_ADMITTED => SessionEvent::StreamAdmitted {
                stream_id: r.u32()?,
                dim: r.u32()?,
            },
            TAG_FRAMES_PUSHED => {
                let stream_id = r.u32()?;
                let dim = r.u32()?;
                let n = r.u32()? as usize;
                if dim == 0 || !n.is_multiple_of(dim as usize) {
                    return Err(DurableError::Format(
                        "frame batch length is not a multiple of its dimension",
                    ));
                }
                SessionEvent::FramesPushed {
                    stream_id,
                    dim,
                    data: r.f32s(n)?.iter().collect(),
                }
            }
            TAG_DECISION_EMITTED => SessionEvent::DecisionEmitted {
                stream_id: r.u32()?,
                anchor: r.u64()?,
                fingerprint: r.u64()?,
            },
            TAG_MODEL_RELOADED => SessionEvent::ModelReloaded {
                fingerprint: r.u64()?,
            },
            TAG_STREAM_CLOSED => SessionEvent::StreamClosed {
                stream_id: r.u32()?,
            },
            _ => return Err(DurableError::Format("unknown session event tag")),
        };
        r.finish()?;
        Ok(ev)
    }
}

/// FNV-1a fingerprint of a decision's observable content: the anchor,
/// the degradation tag, and every predicted interval. Two decisions
/// fingerprint equal iff a downstream consumer could not tell them apart.
pub fn decision_fingerprint(d: &HorizonDecision) -> u64 {
    let mut bytes = Vec::with_capacity(16 + d.predictions.len() * 9);
    let mut w = Writer::new(&mut bytes);
    w.u64(d.anchor);
    match d.degradation {
        DegradationTag::None => w.u8(0),
        DegradationTag::Retried { retries } => {
            w.u8(1);
            w.u32(retries);
        }
        DegradationTag::Dropped => w.u8(2),
        DegradationTag::Deferred => w.u8(3),
        DegradationTag::LocalOnly => w.u8(4),
    }
    w.count(d.predictions.len());
    for p in &d.predictions {
        w.u8(p.present as u8);
        w.u32(p.start);
        w.u32(p.end);
    }
    fnv1a(&bytes)
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
    fn log_records_match_their_golden_image() {
        // FNV-1a of every event framed as a log record, back to back, pinned
        // before the codec moved into `eventhit-core::codec`.
        let log: Vec<u8> = all_events()
            .iter()
            .flat_map(|ev| crate::log::frame_record(&ev.encode()))
            .collect();
        assert_eq!(fnv1a(&log), 0xccec_e2b2_1de9_d234);
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
