//! The EventHit wire protocol: a length-prefixed, versioned binary
//! framing with a pure, deterministic codec.
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! +----------------+---------+------------------------+
//! | length: u32 LE | tag: u8 | body (length - 1 bytes)|
//! +----------------+---------+------------------------+
//! ```
//!
//! `length` counts the tag byte plus the body, never itself. All
//! integers are little-endian; `f32`/`f64` travel as their IEEE-754 bit
//! patterns via `to_le_bytes`, so feature values and scores survive the
//! wire bit-exactly — the property the loopback soak test relies on when
//! it compares served decisions against the in-process
//! `run_lanes` output.
//!
//! The codec here is *pure*: [`encode_into`] and [`try_decode`] touch no
//! sockets, no clocks, and no global state, so round-tripping is
//! deterministic and testable byte-for-byte. Both ends of a session move
//! frames through the same *framed channel*: a [`FrameBuf`] that hands out
//! every complete frame one `read` delivered before reading again, and
//! [`send_message`], which encodes into one reused buffer and sends it
//! with one `write_all`. Frames may arrive split or back to back at any
//! byte. [`write_message`] / [`read_message`] are one-shot wrappers over
//! the same two for callers that hold no buffers.
//!
//! The full grammar, the version-negotiation rules, and a worked hex
//! example live in `docs/PROTOCOL.md`.
//!
//! # Round-trip example
//!
//! ```
//! use eventhit_serve::protocol::{encode, try_decode, Message};
//!
//! let msg = Message::SubmitFrames {
//!     stream_id: 7,
//!     dim: 2,
//!     data: vec![1.0, -0.5, 0.25, 3.5],
//! };
//! let bytes = encode(&msg);
//! let (decoded, consumed) = try_decode(&bytes).unwrap().unwrap();
//! assert_eq!(decoded, msg);
//! assert_eq!(consumed, bytes.len());
//!
//! // A truncated frame is "not yet", never an error:
//! assert!(try_decode(&bytes[..bytes.len() - 1]).unwrap().is_none());
//! ```

use std::io::{self, Read, Write};

use eventhit_core::codec::{CodecError, F32Run, Reader, Writer};

/// Protocol major version. A server rejects any `Hello` whose major
/// version differs from its own: majors gate incompatible framing.
pub const PROTOCOL_MAJOR: u16 = 2;

/// Protocol minor version. Minors are negotiated down: the session runs
/// at `min(client_minor, server_minor)` of a shared major. Major 2 starts
/// at minor 0 with every message of [`Message`].
pub const PROTOCOL_MINOR: u16 = 0;

/// Hard cap on a single frame's payload (tag + body), in bytes. The
/// decoder refuses larger length prefixes outright instead of trusting a
/// corrupt or hostile peer with an allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 24;

/// Everything that can go wrong while decoding a frame.
///
/// Note that an *incomplete* frame is not an error — [`try_decode`]
/// returns `Ok(None)` for those, because more bytes may still arrive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame's tag byte does not name any known message.
    UnknownTag(u8),
    /// The body ended before the fields the tag promises were read.
    Truncated {
        /// Tag of the message being decoded.
        tag: u8,
        /// Bytes the decoder still needed when the body ran out.
        needed: usize,
    },
    /// The body is longer than the fields the tag defines.
    TrailingBytes {
        /// Tag of the message being decoded.
        tag: u8,
        /// Bytes left over after all fields were read.
        extra: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The offending length-prefix value.
        declared: usize,
    },
    /// A declared length of zero (a frame must carry at least a tag).
    EmptyFrame,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A field value outside its domain (e.g. an unknown enum code).
    BadValue(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::UnknownTag(t) => write!(f, "unknown message tag 0x{t:02x}"),
            ProtocolError::Truncated { tag, needed } => {
                write!(
                    f,
                    "truncated body for tag 0x{tag:02x}: {needed} bytes short"
                )
            }
            ProtocolError::TrailingBytes { tag, extra } => {
                write!(f, "{extra} trailing bytes after tag 0x{tag:02x} body")
            }
            ProtocolError::Oversized { declared } => write!(
                f,
                "declared frame of {declared} bytes exceeds cap {MAX_FRAME_BYTES}"
            ),
            ProtocolError::EmptyFrame => write!(f, "zero-length frame (no tag byte)"),
            ProtocolError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtocolError::BadValue(what) => write!(f, "field out of domain: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A protocol violation read off a transport is `InvalidData`, with the
/// [`ProtocolError`] as its source.
impl From<ProtocolError> for io::Error {
    fn from(e: ProtocolError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Why the server refused a request, carried on [`Message::Rejected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectCode {
    /// The client's protocol major version is not served here.
    VersionUnsupported = 0,
    /// Admission control: the server is at its stream capacity.
    TooManyStreams = 1,
    /// The submitted batch exceeds the negotiated `max_batch_frames`.
    BatchTooLarge = 2,
    /// The referenced stream id was never opened (or already closed).
    UnknownStream = 4,
    /// The stream id is already open in this session.
    DuplicateStream = 5,
    /// The peer broke the protocol (bad frame, wrong state).
    Malformed = 6,
    /// A request arrived before the `Hello`/`HelloAck` handshake.
    NotReady = 7,
}

impl RejectCode {
    /// Decodes a wire byte back into a code.
    pub fn from_u8(v: u8) -> Result<Self, ProtocolError> {
        Ok(match v {
            0 => RejectCode::VersionUnsupported,
            1 => RejectCode::TooManyStreams,
            2 => RejectCode::BatchTooLarge,
            4 => RejectCode::UnknownStream,
            5 => RejectCode::DuplicateStream,
            6 => RejectCode::Malformed,
            7 => RejectCode::NotReady,
            _ => return Err(ProtocolError::BadValue("reject code")),
        })
    }

    /// Stable lower-snake label (used as a telemetry counter label).
    pub fn label(&self) -> &'static str {
        match self {
            RejectCode::VersionUnsupported => "version_unsupported",
            RejectCode::TooManyStreams => "too_many_streams",
            RejectCode::BatchTooLarge => "batch_too_large",
            RejectCode::UnknownStream => "unknown_stream",
            RejectCode::DuplicateStream => "duplicate_stream",
            RejectCode::Malformed => "malformed",
            RejectCode::NotReady => "not_ready",
        }
    }
}

/// One predicted interval of one event, as served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePrediction {
    /// True iff the event is predicted to occur in the horizon.
    pub present: bool,
    /// Predicted start offset in `[1, H]` (0 when absent).
    pub start: u32,
    /// Predicted end offset in `[1, H]` (0 when absent).
    pub end: u32,
}

/// One relay decision for one stream at one anchor, as served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDecision {
    /// Anchor frame (0-based index of the last window frame).
    pub anchor: u64,
    /// Per-event predictions, in event order.
    pub predictions: WirePredictions,
}

/// A decision's per-event predictions, as a slice: held inline when there
/// is exactly one (a single-event task), on the heap otherwise. A decoded
/// one-event decision so allocates nothing of its own. Equality, `Debug`
/// and the wire image are the slice's, whichever form holds it.
///
/// Any other count sits behind a thin pointer, a boxed `Vec`, so the
/// whole value is 16 B and a [`WireDecision`] 24 B: one `Vec` inline
/// would make them 24 B and 32 B, and a boxed slice is a fat pointer that
/// leaves no room for the inline prediction beside its niche. The price
/// is one more 24 B allocation per multi-event decision.
#[derive(Clone, Eq)]
pub enum WirePredictions {
    /// Exactly one prediction.
    One(WirePrediction),
    /// Any other number of predictions (none included).
    Many(Box<Vec<WirePrediction>>),
}

impl std::ops::Deref for WirePredictions {
    type Target = [WirePrediction];

    #[inline]
    fn deref(&self) -> &[WirePrediction] {
        match self {
            WirePredictions::One(p) => std::slice::from_ref(p),
            WirePredictions::Many(v) => v,
        }
    }
}

impl PartialEq for WirePredictions {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for WirePredictions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<Vec<WirePrediction>> for WirePredictions {
    fn from(v: Vec<WirePrediction>) -> Self {
        match v[..] {
            [one] => WirePredictions::One(one),
            _ => WirePredictions::Many(Box::new(v)),
        }
    }
}

impl FromIterator<WirePrediction> for WirePredictions {
    fn from_iter<I: IntoIterator<Item = WirePrediction>>(iter: I) -> Self {
        let mut iter = iter.into_iter().fuse();
        match (iter.next(), iter.next()) {
            (Some(one), None) => WirePredictions::One(one),
            (first, second) => {
                let all = first.into_iter().chain(second).chain(iter).collect();
                WirePredictions::Many(Box::new(all))
            }
        }
    }
}

/// A summary returned when a stream closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Frames the server consumed on this stream.
    pub frames: u64,
    /// Decisions the server emitted on this stream.
    pub decisions: u64,
}

/// One time window of a metric's windowed series, as served on
/// [`Message::MetricsReply`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireWindow {
    /// Window index (`floor(clock_seconds / window_secs)`).
    pub index: u64,
    /// Samples observed in the window.
    pub count: u64,
    /// Sum of the observed values in the window.
    pub sum: f64,
    /// Median of the window's samples.
    pub p50: f64,
    /// 99th percentile of the window's samples.
    pub p99: f64,
}

/// One metric's windowed time-series, as served.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSeries {
    /// Metric name (e.g. `serve.stage_seconds`).
    pub name: String,
    /// Series label (e.g. `inference`; empty for the unlabeled series).
    pub label: String,
    /// Per-window stats, oldest first.
    pub windows: Vec<WireWindow>,
}

/// One SLO tracker's state, as served.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSlo {
    /// Metric name the SLO is registered on.
    pub name: String,
    /// Series label the SLO is registered on.
    pub label: String,
    /// Latency threshold in seconds a sample must not exceed.
    pub threshold: f64,
    /// Target fraction of compliant samples (e.g. 0.99).
    pub objective: f64,
    /// Total samples observed against the SLO.
    pub total: u64,
    /// Samples that exceeded the threshold.
    pub violations: u64,
}

impl WireSlo {
    /// Error-budget burn rate: observed violation fraction over the
    /// allowed fraction `1 - objective` (0 when no samples yet).
    pub fn burn_rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let budget = (1.0 - self.objective).max(1e-9);
        (self.violations as f64 / self.total as f64) / budget
    }
}

/// One counter value, as served on [`Message::MetricsReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCounter {
    /// Counter name (e.g. `serve.rejected`).
    pub name: String,
    /// Counter label (e.g. a reject-code label; may be empty).
    pub label: String,
    /// Accumulated value.
    pub value: u64,
}

/// Every message of protocol major 2.
///
/// Client → server: `Hello`, `OpenStream`, `SubmitFrames`,
/// `SubmitTraced`, `CloseStream`, `Health`, `MetricsQuery`, `Resume`.
/// Server → client: everything else.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client handshake: the protocol version the client speaks.
    Hello {
        /// Client protocol major version.
        major: u16,
        /// Client protocol minor version.
        minor: u16,
    },
    /// Server handshake reply: the negotiated version plus the admission
    /// limits the client must respect.
    HelloAck {
        /// Negotiated major version (equals the client's).
        major: u16,
        /// Negotiated minor version (`min(client, server)`).
        minor: u16,
        /// Server-wide cap on concurrently open streams.
        max_streams: u32,
        /// Largest number of frames accepted in one `SubmitFrames`.
        max_batch_frames: u32,
    },
    /// Opens a stream lane under a client-chosen id.
    OpenStream {
        /// Client-chosen stream identifier, unique within the session.
        stream_id: u32,
    },
    /// Server confirmation that the lane is admitted and running.
    StreamOpened {
        /// Echo of the admitted stream id.
        stream_id: u32,
    },
    /// A batch of per-frame feature rows for one stream, row-major.
    SubmitFrames {
        /// Target stream id.
        stream_id: u32,
        /// Feature dimensionality of each row.
        dim: u32,
        /// `rows * dim` feature values, row-major. `rows` is implied
        /// (`data.len() / dim`) and checked on decode.
        data: Vec<f32>,
    },
    /// Decisions produced by the batch that was just consumed (possibly
    /// empty — decisions only fire once per horizon).
    Decisions {
        /// Stream the decisions belong to.
        stream_id: u32,
        /// The decisions, in anchor order.
        decisions: Vec<WireDecision>,
    },
    /// Closes a stream lane.
    CloseStream {
        /// Stream id to close.
        stream_id: u32,
    },
    /// Server confirmation of a close, with lifetime totals.
    StreamClosed {
        /// Echo of the closed stream id.
        stream_id: u32,
        /// Totals for the stream's lifetime.
        summary: StreamSummary,
    },
    /// Liveness / load probe.
    Health,
    /// Reply to [`Message::Health`].
    HealthReport {
        /// Streams currently open across all sessions.
        active_streams: u32,
        /// Sessions served so far (including the asking one).
        sessions: u64,
        /// Frames consumed so far, all streams.
        frames: u64,
        /// Decisions emitted so far, all streams.
        decisions: u64,
    },
    /// Re-attaches to a stream that survives in the server's durable
    /// state. `last_seq` is the client's count of frames it believes the
    /// server accepted; the server replies with the authoritative
    /// [`Message::Resumed`] so the client knows where to continue
    /// submitting.
    Resume {
        /// The durable stream to re-attach.
        stream_id: u32,
        /// Frames the client believes were accepted (its own count of
        /// acknowledged submissions). Must not exceed the server's.
        last_seq: u64,
    },
    /// Server confirmation of a [`Message::Resume`].
    Resumed {
        /// Echo of the resumed stream id.
        stream_id: u32,
        /// The server-authoritative frame count: the client submits the
        /// stream's rows from this absolute index onward. May exceed the
        /// client's `last_seq` when a crash cut the acknowledgement (the
        /// frames were logged; their decisions are not retransmitted).
        next_seq: u64,
    },
    /// The server refused a request; the session stays usable unless the
    /// code is fatal ([`RejectCode::VersionUnsupported`],
    /// [`RejectCode::Malformed`]).
    Rejected {
        /// Why the request was refused.
        code: RejectCode,
        /// Backpressure hint: milliseconds to wait before retrying
        /// (0 when retrying cannot help, e.g. version mismatch).
        retry_after_ms: u32,
        /// Human-readable detail.
        detail: String,
    },
    /// Like [`Message::SubmitFrames`] but carrying a client-assigned
    /// trace id. The server threads the id through every stage of the
    /// decision path (histogram exemplars, slow-log entries) and echoes
    /// it on the [`Message::TracedDecisions`] reply.
    SubmitTraced {
        /// Client-assigned trace id, opaque to the server.
        trace_id: u64,
        /// Target stream id.
        stream_id: u32,
        /// Feature dimensionality of each row.
        dim: u32,
        /// `rows * dim` feature values, row-major.
        data: Vec<f32>,
    },
    /// Reply to [`Message::SubmitTraced`]: the same decisions a
    /// [`Message::Decisions`] would carry, plus the echoed trace id of
    /// the push that produced them.
    TracedDecisions {
        /// Bit-exact echo of the submitting push's trace id.
        trace_id: u64,
        /// Stream the decisions belong to.
        stream_id: u32,
        /// The decisions, in anchor order.
        decisions: Vec<WireDecision>,
    },
    /// Asks the server for its counters, windowed time-series and SLO
    /// state: a compact typed reply sized for a polling dashboard.
    MetricsQuery,
    /// Reply to [`Message::MetricsQuery`].
    MetricsReply {
        /// Server clock reading in seconds when the reply was built.
        clock_now: f64,
        /// Width in clock seconds of each series window.
        window_secs: f64,
        /// Every counter the recorder holds, sorted by `(name, label)`.
        counters: Vec<WireCounter>,
        /// Every windowed series, sorted by `(name, label)`.
        series: Vec<WireSeries>,
        /// Every registered SLO tracker, sorted by `(name, label)`.
        slos: Vec<WireSlo>,
    },
}

// Wire tags. Changing any of these is a major-version break.
const TAG_HELLO: u8 = 0x01;
const TAG_HELLO_ACK: u8 = 0x02;
const TAG_OPEN_STREAM: u8 = 0x03;
const TAG_STREAM_OPENED: u8 = 0x04;
const TAG_SUBMIT_FRAMES: u8 = 0x05;
const TAG_DECISIONS: u8 = 0x06;
const TAG_CLOSE_STREAM: u8 = 0x07;
const TAG_STREAM_CLOSED: u8 = 0x08;
const TAG_HEALTH: u8 = 0x09;
const TAG_HEALTH_REPORT: u8 = 0x0A;
// 0x0B and 0x0C are unassigned: major 1's telemetry pair held them.
const TAG_REJECTED: u8 = 0x0D;
const TAG_RESUME: u8 = 0x0E;
const TAG_RESUMED: u8 = 0x0F;
const TAG_SUBMIT_TRACED: u8 = 0x10;
const TAG_TRACED_DECISIONS: u8 = 0x11;
const TAG_METRICS_QUERY: u8 = 0x12;
const TAG_METRICS_REPLY: u8 = 0x13;

impl Message {
    /// The message's wire tag byte.
    pub fn tag(&self) -> u8 {
        match self {
            Message::Hello { .. } => TAG_HELLO,
            Message::HelloAck { .. } => TAG_HELLO_ACK,
            Message::OpenStream { .. } => TAG_OPEN_STREAM,
            Message::StreamOpened { .. } => TAG_STREAM_OPENED,
            Message::SubmitFrames { .. } => TAG_SUBMIT_FRAMES,
            Message::Decisions { .. } => TAG_DECISIONS,
            Message::CloseStream { .. } => TAG_CLOSE_STREAM,
            Message::StreamClosed { .. } => TAG_STREAM_CLOSED,
            Message::Health => TAG_HEALTH,
            Message::HealthReport { .. } => TAG_HEALTH_REPORT,
            Message::Rejected { .. } => TAG_REJECTED,
            Message::Resume { .. } => TAG_RESUME,
            Message::Resumed { .. } => TAG_RESUMED,
            Message::SubmitTraced { .. } => TAG_SUBMIT_TRACED,
            Message::TracedDecisions { .. } => TAG_TRACED_DECISIONS,
            Message::MetricsQuery => TAG_METRICS_QUERY,
            Message::MetricsReply { .. } => TAG_METRICS_REPLY,
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_decisions(w: &mut Writer, stream_id: u32, decisions: &[WireDecision]) {
    w.u32(stream_id);
    w.count(decisions.len());
    for d in decisions {
        w.u64(d.anchor);
        w.count(d.predictions.len());
        for p in d.predictions.iter() {
            w.u8(p.present as u8);
            w.u32(p.start);
            w.u32(p.end);
        }
    }
}

fn put_submit(w: &mut Writer, stream_id: u32, dim: u32, data: &[f32]) {
    w.u32(stream_id);
    w.u32(dim);
    w.count(data.len());
    w.f32s(data);
}

/// Encodes `msg` into one complete frame (length prefix included).
///
/// Deterministic: the same message always yields the same bytes, which is
/// what lets tests fingerprint served traffic.
pub fn encode(msg: &Message) -> Vec<u8> {
    // Most messages fit; a submit reserves its float run in one step.
    let mut frame = Vec::with_capacity(64);
    encode_into(&mut frame, msg);
    frame
}

/// Appends `msg`'s complete frame to `out`: the prefix is reserved, the
/// payload written behind it, and the length patched in — no second
/// buffer, so a caller that reuses `out` encodes without allocating.
pub fn encode_into(out: &mut Vec<u8>, msg: &Message) {
    let prefix_at = out.len();
    let mut w = Writer::new(out);
    w.u32(0);
    w.u8(msg.tag());
    match msg {
        Message::Hello { major, minor } => {
            w.u16(*major);
            w.u16(*minor);
        }
        Message::HelloAck {
            major,
            minor,
            max_streams,
            max_batch_frames,
        } => {
            w.u16(*major);
            w.u16(*minor);
            w.u32(*max_streams);
            w.u32(*max_batch_frames);
        }
        Message::OpenStream { stream_id }
        | Message::StreamOpened { stream_id }
        | Message::CloseStream { stream_id } => w.u32(*stream_id),
        Message::SubmitFrames {
            stream_id,
            dim,
            data,
        } => put_submit(&mut w, *stream_id, *dim, data),
        Message::Decisions {
            stream_id,
            decisions,
        } => put_decisions(&mut w, *stream_id, decisions),
        Message::StreamClosed { stream_id, summary } => {
            w.u32(*stream_id);
            w.u64(summary.frames);
            w.u64(summary.decisions);
        }
        Message::Health | Message::MetricsQuery => {}
        Message::HealthReport {
            active_streams,
            sessions,
            frames,
            decisions,
        } => {
            w.u32(*active_streams);
            w.u64(*sessions);
            w.u64(*frames);
            w.u64(*decisions);
        }
        Message::Rejected {
            code,
            retry_after_ms,
            detail,
        } => {
            w.u8(*code as u8);
            w.u32(*retry_after_ms);
            w.str(detail);
        }
        Message::Resume {
            stream_id,
            last_seq: seq,
        }
        | Message::Resumed {
            stream_id,
            next_seq: seq,
        } => {
            w.u32(*stream_id);
            w.u64(*seq);
        }
        Message::SubmitTraced {
            trace_id,
            stream_id,
            dim,
            data,
        } => {
            w.u64(*trace_id);
            put_submit(&mut w, *stream_id, *dim, data);
        }
        Message::TracedDecisions {
            trace_id,
            stream_id,
            decisions,
        } => {
            w.u64(*trace_id);
            put_decisions(&mut w, *stream_id, decisions);
        }
        Message::MetricsReply {
            clock_now,
            window_secs,
            counters,
            series,
            slos,
        } => {
            w.f64(*clock_now);
            w.f64(*window_secs);
            w.count(counters.len());
            for c in counters {
                w.str(&c.name);
                w.str(&c.label);
                w.u64(c.value);
            }
            w.count(series.len());
            for s in series {
                w.str(&s.name);
                w.str(&s.label);
                w.count(s.windows.len());
                for win in &s.windows {
                    w.u64(win.index);
                    w.u64(win.count);
                    w.f64(win.sum);
                    w.f64(win.p50);
                    w.f64(win.p99);
                }
            }
            w.count(slos.len());
            for s in slos {
                w.str(&s.name);
                w.str(&s.label);
                w.f64(s.threshold);
                w.f64(s.objective);
                w.u64(s.total);
                w.u64(s.violations);
            }
        }
    }
    let payload = out.len() - prefix_at - 4;
    Writer::new(out).set_u32(prefix_at, payload as u32);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// How a codec error met in the body of a `tag` frame is reported.
fn at(tag: u8) -> impl Fn(CodecError) -> ProtocolError {
    move |e| match e {
        CodecError::Truncated { needed } => ProtocolError::Truncated { tag, needed },
        CodecError::Trailing { extra } => ProtocolError::TrailingBytes { tag, extra },
        CodecError::BadUtf8 => ProtocolError::BadUtf8,
        other => ProtocolError::BadValue(other.what()),
    }
}

// Out of line, decoding a one-decision reply cost ~20 ns more.
#[inline]
fn decision(r: &mut Reader) -> Result<WireDecision, CodecError> {
    Ok(WireDecision {
        anchor: r.u64()?,
        predictions: match r.u32()? {
            1 => WirePredictions::One(prediction(r)?),
            n => WirePredictions::Many(Box::new(r.items(n as usize, prediction)?)),
        },
    })
}

#[inline]
fn prediction(r: &mut Reader) -> Result<WirePrediction, CodecError> {
    let present = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Invalid("prediction presence")),
    };
    Ok(WirePrediction {
        present,
        start: r.u32()?,
        end: r.u32()?,
    })
}

/// A [`Message::SubmitFrames`] / [`Message::SubmitTraced`] decoded in
/// place: the header by value, the rows still lying in the frame. This is
/// the form a session feeds a lane from, so a served submit copies no
/// float it does not have to own.
#[derive(Debug, Clone, Copy)]
pub struct Submit<'a> {
    /// The client's trace id; `None` for a plain `SubmitFrames`.
    pub trace_id: Option<u64>,
    /// Target stream id.
    pub stream_id: u32,
    /// Feature dimensionality of each row.
    pub dim: u32,
    /// `rows * dim` feature values, row-major (checked on decode).
    pub data: F32Run<'a>,
}

impl<'a> Submit<'a> {
    /// Decodes `payload` (tag byte + body) if its tag is one of the two
    /// submits; `Ok(None)` leaves every other tag to [`decode_payload`].
    pub fn decode(payload: &'a [u8]) -> Result<Option<Self>, ProtocolError> {
        let (&tag, body) = payload.split_first().ok_or(ProtocolError::EmptyFrame)?;
        if tag != TAG_SUBMIT_FRAMES && tag != TAG_SUBMIT_TRACED {
            return Ok(None);
        }
        let mut r = Reader::new(body);
        let submit = Self::parse(tag, &mut r).map_err(at(tag))?;
        r.finish().map_err(at(tag))?;
        Ok(Some(submit))
    }

    /// The one parser of both submit bodies (`tag` tells them apart).
    fn parse(tag: u8, r: &mut Reader<'a>) -> Result<Self, CodecError> {
        let trace_id = match tag {
            TAG_SUBMIT_TRACED => Some(r.u64()?),
            _ => None,
        };
        let stream_id = r.u32()?;
        let dim = r.u32()?;
        let len = r.u32()? as usize;
        if dim > 0 && !len.is_multiple_of(dim as usize) {
            return Err(CodecError::Invalid("data length not a multiple of dim"));
        }
        Ok(Submit {
            trace_id,
            stream_id,
            dim,
            data: r.f32s(len)?,
        })
    }

    /// The owned message this submit is the borrowed form of.
    fn to_message(self) -> Message {
        let (stream_id, dim, data) = (self.stream_id, self.dim, self.data.iter().collect());
        match self.trace_id {
            Some(trace_id) => Message::SubmitTraced {
                trace_id,
                stream_id,
                dim,
                data,
            },
            None => Message::SubmitFrames {
                stream_id,
                dim,
                data,
            },
        }
    }
}

/// The message a `tag` frame's body holds; `None` for an unknown tag.
fn message(tag: u8, r: &mut Reader) -> Result<Option<Message>, CodecError> {
    Ok(Some(match tag {
        TAG_HELLO => Message::Hello {
            major: r.u16()?,
            minor: r.u16()?,
        },
        TAG_HELLO_ACK => Message::HelloAck {
            major: r.u16()?,
            minor: r.u16()?,
            max_streams: r.u32()?,
            max_batch_frames: r.u32()?,
        },
        TAG_OPEN_STREAM => Message::OpenStream {
            stream_id: r.u32()?,
        },
        TAG_STREAM_OPENED => Message::StreamOpened {
            stream_id: r.u32()?,
        },
        TAG_SUBMIT_FRAMES | TAG_SUBMIT_TRACED => Submit::parse(tag, r)?.to_message(),
        TAG_DECISIONS => Message::Decisions {
            stream_id: r.u32()?,
            decisions: r.counted(decision)?,
        },
        TAG_CLOSE_STREAM => Message::CloseStream {
            stream_id: r.u32()?,
        },
        TAG_STREAM_CLOSED => Message::StreamClosed {
            stream_id: r.u32()?,
            summary: StreamSummary {
                frames: r.u64()?,
                decisions: r.u64()?,
            },
        },
        TAG_HEALTH => Message::Health,
        TAG_HEALTH_REPORT => Message::HealthReport {
            active_streams: r.u32()?,
            sessions: r.u64()?,
            frames: r.u64()?,
            decisions: r.u64()?,
        },
        TAG_REJECTED => Message::Rejected {
            code: RejectCode::from_u8(r.u8()?).map_err(|_| CodecError::Invalid("reject code"))?,
            retry_after_ms: r.u32()?,
            detail: r.str()?.into(),
        },
        TAG_RESUME => Message::Resume {
            stream_id: r.u32()?,
            last_seq: r.u64()?,
        },
        TAG_RESUMED => Message::Resumed {
            stream_id: r.u32()?,
            next_seq: r.u64()?,
        },
        TAG_TRACED_DECISIONS => Message::TracedDecisions {
            trace_id: r.u64()?,
            stream_id: r.u32()?,
            decisions: r.counted(decision)?,
        },
        TAG_METRICS_QUERY => Message::MetricsQuery,
        TAG_METRICS_REPLY => Message::MetricsReply {
            clock_now: r.f64()?,
            window_secs: r.f64()?,
            counters: r.counted(|r| {
                Ok::<_, CodecError>(WireCounter {
                    name: r.str()?.into(),
                    label: r.str()?.into(),
                    value: r.u64()?,
                })
            })?,
            series: r.counted(|r| {
                Ok::<_, CodecError>(WireSeries {
                    name: r.str()?.into(),
                    label: r.str()?.into(),
                    windows: r.counted(|r| {
                        Ok::<_, CodecError>(WireWindow {
                            index: r.u64()?,
                            count: r.u64()?,
                            sum: r.f64()?,
                            p50: r.f64()?,
                            p99: r.f64()?,
                        })
                    })?,
                })
            })?,
            slos: r.counted(|r| {
                Ok::<_, CodecError>(WireSlo {
                    name: r.str()?.into(),
                    label: r.str()?.into(),
                    threshold: r.f64()?,
                    objective: r.f64()?,
                    total: r.u64()?,
                    violations: r.u64()?,
                })
            })?,
        },
        _ => return Ok(None),
    }))
}

/// Decodes one frame's payload (tag byte + body, no length prefix).
pub fn decode_payload(payload: &[u8]) -> Result<Message, ProtocolError> {
    let (&tag, body) = payload.split_first().ok_or(ProtocolError::EmptyFrame)?;
    let mut r = Reader::new(body);
    let msg = message(tag, &mut r).map_err(at(tag))?;
    let msg = msg.ok_or(ProtocolError::UnknownTag(tag))?;
    r.finish().map_err(at(tag))?;
    Ok(msg)
}

/// The length prefix at the front of `buf`: `Ok(None)` until all four
/// bytes are there, then the payload length it declares — the one place a
/// declared length is checked, for buffers and transports alike.
fn declared_len(buf: &[u8]) -> Result<Option<usize>, ProtocolError> {
    let Ok(declared) = Reader::new(buf).u32() else {
        return Ok(None);
    };
    match declared as usize {
        0 => Err(ProtocolError::EmptyFrame),
        declared if declared > MAX_FRAME_BYTES => Err(ProtocolError::Oversized { declared }),
        declared => Ok(Some(declared)),
    }
}

/// Attempts to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` does not yet hold a complete frame
/// (keep reading), or `Ok(Some((message, consumed)))` where `consumed`
/// bytes should be drained from the front of the buffer.
pub fn try_decode(buf: &[u8]) -> Result<Option<(Message, usize)>, ProtocolError> {
    match declared_len(buf)? {
        Some(declared) if buf.len() >= 4 + declared => {
            let msg = decode_payload(&buf[4..4 + declared])?;
            Ok(Some((msg, 4 + declared)))
        }
        _ => Ok(None),
    }
}

// ---------------------------------------------------------------------------
// The framed channel: blocking I/O over any transport
// ---------------------------------------------------------------------------

/// The size a connection's receive and send buffers start at and return
/// to: several times a 64-frame submit, so steady traffic never grows
/// them.
const BUF_BASE: usize = 32 * 1024;

/// A connection's receive buffer. It takes whatever one `read` returns —
/// part of a frame, or many — and hands out every complete frame already
/// in it before reading again.
///
/// The buffer grows only on evidence: it doubles when it is *full of
/// received bytes* of one unfinished frame, never because a length prefix
/// says so, and it returns to its base size as soon as it drains. A peer
/// that declares 16 MiB and sends nothing costs the 32 KiB every
/// connection costs.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// `buf[start..end]` holds the received bytes not yet handed out.
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// An empty buffer; the first read allocates it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next frame's payload (tag byte + body), reading from `r` only
    /// when no complete frame is buffered.
    ///
    /// `Ok(None)` is a clean EOF on a frame boundary (the peer hung up
    /// between messages); EOF inside a frame is `UnexpectedEof`, and a
    /// length prefix of zero or above [`MAX_FRAME_BYTES`] is
    /// `InvalidData` carrying the [`ProtocolError`].
    pub fn next_frame(&mut self, r: &mut impl Read) -> io::Result<Option<&[u8]>> {
        self.next(r, false)
    }

    /// [`FrameBuf::next_frame`]; with `exact`, no read asks for a byte
    /// beyond the frame being completed (for a caller that will not be
    /// back for what lies behind it).
    fn next(&mut self, r: &mut impl Read, exact: bool) -> io::Result<Option<&[u8]>> {
        loop {
            let have = self.end - self.start;
            let declared = declared_len(&self.buf[self.start..self.end])?;
            // What the frame in progress is known to need so far.
            let want = 4 + declared.unwrap_or(0);
            if declared.is_some() && have >= want {
                let payload = self.start + 4..self.start + want;
                self.start = payload.end;
                return Ok(Some(&self.buf[payload]));
            }
            // The unfinished frame moves to the front; an empty buffer
            // gives back what a large frame made it grow by.
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, have);
            }
            if have == 0 && self.buf.len() > BUF_BASE {
                self.buf.truncate(BUF_BASE);
                self.buf.shrink_to_fit();
            }
            if have == self.buf.len() {
                let grown = (have * 2).clamp(BUF_BASE, 4 + MAX_FRAME_BYTES);
                self.buf.resize(grown, 0);
            }
            let room = self.buf.len();
            let upto = if exact { want.min(room) } else { room };
            match r.read(&mut self.buf[have..upto]) {
                Ok(0) if have == 0 => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("EOF {have} bytes into a frame"),
                    ))
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Encodes `msg` into `out` — cleared first, and trimmed if a large
/// message left it above its base size — and sends the frame with one
/// `write_all`.
pub fn send_message(w: &mut impl Write, out: &mut Vec<u8>, msg: &Message) -> io::Result<()> {
    out.clear();
    out.shrink_to(BUF_BASE);
    encode_into(out, msg);
    w.write_all(out)?;
    w.flush()
}

/// Writes one complete frame for `msg` to `w` and flushes.
pub fn write_message(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    send_message(w, &mut Vec::new(), msg)
}

/// Reads exactly one frame from `r` — not a byte of the next — and
/// decodes it.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer hung
/// up between messages); mid-frame EOF and protocol violations surface
/// as `io::Error` (`UnexpectedEof` / `InvalidData`).
pub fn read_message(r: &mut impl Read) -> io::Result<Option<Message>> {
    match FrameBuf::new().next(r, true)? {
        Some(payload) => Ok(Some(decode_payload(payload)?)),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<Message> {
        vec![
            Message::Hello {
                major: PROTOCOL_MAJOR,
                minor: PROTOCOL_MINOR,
            },
            Message::HelloAck {
                major: 2,
                minor: 0,
                max_streams: 64,
                max_batch_frames: 4096,
            },
            Message::OpenStream { stream_id: 3 },
            Message::StreamOpened { stream_id: 3 },
            Message::SubmitFrames {
                stream_id: 3,
                dim: 3,
                data: vec![0.0, -1.5, f32::MAX, f32::MIN_POSITIVE, 2.5e-7, 1.0],
            },
            Message::Decisions {
                stream_id: 3,
                decisions: vec![
                    WireDecision {
                        anchor: 99,
                        predictions: vec![
                            WirePrediction {
                                present: true,
                                start: 4,
                                end: 17,
                            },
                            WirePrediction {
                                present: false,
                                start: 0,
                                end: 0,
                            },
                        ]
                        .into(),
                    },
                    WireDecision {
                        anchor: 199,
                        predictions: vec![].into(),
                    },
                    WireDecision {
                        anchor: 299,
                        predictions: vec![WirePrediction {
                            present: true,
                            start: 1,
                            end: 1,
                        }]
                        .into(),
                    },
                ],
            },
            Message::CloseStream { stream_id: 3 },
            Message::StreamClosed {
                stream_id: 3,
                summary: StreamSummary {
                    frames: 1_000_000,
                    decisions: 2_000,
                },
            },
            Message::Health,
            Message::HealthReport {
                active_streams: 5,
                sessions: 17,
                frames: 123_456,
                decisions: 789,
            },
            Message::Rejected {
                code: RejectCode::TooManyStreams,
                retry_after_ms: 100,
                detail: "at capacity: 64 of 64 streams open on stream 3's shard".into(),
            },
            Message::Resume {
                stream_id: 3,
                last_seq: 12_345,
            },
            Message::Resumed {
                stream_id: 3,
                next_seq: 12_349,
            },
            Message::SubmitTraced {
                trace_id: 0xDEAD_BEEF_0123_4567,
                stream_id: 3,
                dim: 2,
                data: vec![0.5, -0.5, f32::MAX, 1.0],
            },
            Message::TracedDecisions {
                trace_id: 0xDEAD_BEEF_0123_4567,
                stream_id: 3,
                decisions: vec![WireDecision {
                    anchor: 63,
                    predictions: vec![WirePrediction {
                        present: true,
                        start: 2,
                        end: 9,
                    }]
                    .into(),
                }],
            },
            Message::MetricsQuery,
            Message::MetricsReply {
                clock_now: 12.75,
                window_secs: 1.0,
                counters: vec![
                    WireCounter {
                        name: "serve.frames".into(),
                        label: String::new(),
                        value: 4096,
                    },
                    WireCounter {
                        name: "serve.rejected".into(),
                        label: "queue_full".into(),
                        value: 3,
                    },
                ],
                series: vec![WireSeries {
                    name: "serve.stage_seconds".into(),
                    label: "inference".into(),
                    windows: vec![
                        WireWindow {
                            index: 11,
                            count: 128,
                            sum: 0.25,
                            p50: 1.5e-3,
                            p99: 9.0e-3,
                        },
                        WireWindow {
                            index: 12,
                            count: 64,
                            sum: 0.125,
                            p50: 1.5e-3,
                            p99: 4.0e-3,
                        },
                    ],
                }],
                slos: vec![WireSlo {
                    name: "serve.decision_seconds".into(),
                    label: String::new(),
                    threshold: 0.050,
                    objective: 0.99,
                    total: 10_000,
                    violations: 17,
                }],
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in all_messages() {
            let bytes = encode(&msg);
            let (decoded, consumed) = try_decode(&bytes)
                .unwrap_or_else(|e| panic!("{msg:?}: {e}"))
                .expect("complete frame");
            assert_eq!(decoded, msg);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn wire_bytes_match_their_golden_image() {
        // FNV-1a of every message's frame, back to back, pinned at
        // protocol major 2: not one byte may move within a major.
        let wire: Vec<u8> = all_messages().iter().flat_map(encode).collect();
        assert_eq!(eventhit_telemetry::fnv1a(&wire), 0x760e_05d6_5004_4f47);
    }

    #[test]
    fn each_message_matches_its_golden_image() {
        // FNV-1a of each `all_messages()` frame alone, in order, so a wire
        // change names the messages it moved.
        let pins = [
            ("Hello", 0xd1aa_6280_0e6d_4ca1),
            ("HelloAck", 0xa3f5_d8df_690b_10ac),
            ("OpenStream", 0xcaf8_2cee_0bad_571a),
            ("StreamOpened", 0x179c_6829_3568_3a9f),
            ("SubmitFrames", 0x4133_e399_cbc9_aa7b),
            ("Decisions", 0xcae4_86fd_1607_af9b),
            ("CloseStream", 0xfdb3_b998_00eb_00a6),
            ("StreamClosed", 0xe1e1_36ef_8d14_6967),
            ("Health", 0xd80d_75ae_a7dc_8e37),
            ("HealthReport", 0x621d_d77f_d18a_8ed1),
            ("Rejected", 0x4af8_ccc7_f95e_3958),
            ("Resume", 0x0e00_0af2_1a2b_46a8),
            ("Resumed", 0xf5e3_fc06_915e_c1cb),
            ("SubmitTraced", 0xcd68_aa50_6614_3896),
            ("TracedDecisions", 0xf08d_cf91_69cc_6b54),
            ("MetricsQuery", 0xd80d_7eae_a7dc_9d82),
            ("MetricsReply", 0x2de1_1167_b8b3_b445),
        ];
        let messages = all_messages();
        assert_eq!(messages.len(), pins.len());
        for (msg, (name, pin)) in messages.iter().zip(pins) {
            let debug = format!("{msg:?}");
            assert_eq!(debug.split([' ', '{']).next(), Some(name), "pin order");
            let got = eventhit_telemetry::fnv1a(&encode(msg));
            assert_eq!(got, pin, "{name}: {got:#018x}");
        }
    }

    #[test]
    fn one_prediction_is_held_inline_in_every_form() {
        assert_eq!(std::mem::size_of::<WirePredictions>(), 16);
        assert_eq!(std::mem::size_of::<WireDecision>(), 24);
        let p = WirePrediction {
            present: true,
            start: 3,
            end: 8,
        };
        let d = WireDecision {
            anchor: 7,
            predictions: vec![p].into(),
        };
        let msg = Message::Decisions {
            stream_id: 1,
            decisions: vec![d.clone()],
        };
        let Ok(Message::Decisions { decisions, .. }) = decode_payload(&encode(&msg)[4..]) else {
            panic!("a Decisions frame decodes");
        };
        for held in [
            &d.predictions,
            &decisions[0].predictions,
            &[p].into_iter().collect(),
        ] {
            assert!(
                matches!(held, WirePredictions::One(q) if *q == p),
                "{held:?}"
            );
        }
        // The form is not part of equality or of the Debug text.
        let many = WirePredictions::Many(Box::new(vec![p]));
        assert_eq!(many, d.predictions);
        assert_eq!(format!("{many:?}"), format!("{:?}", vec![p]));
        assert_eq!(format!("{:?}", d.predictions), format!("{:?}", vec![p]));
    }

    #[test]
    fn encoding_is_deterministic() {
        for msg in all_messages() {
            assert_eq!(encode(&msg), encode(&msg));
        }
    }

    #[test]
    fn f32_bits_survive_the_wire() {
        let data = vec![f32::NAN, -0.0, 1.0 + f32::EPSILON, 3.5e-39];
        let msg = Message::SubmitFrames {
            stream_id: 0,
            dim: 1,
            data: data.clone(),
        };
        let (decoded, _) = try_decode(&encode(&msg)).unwrap().unwrap();
        let Message::SubmitFrames { data: got, .. } = decoded else {
            panic!("wrong variant");
        };
        for (a, b) in data.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn every_truncation_is_incomplete_not_error() {
        // Chopping a complete frame anywhere must yield Ok(None): the
        // decoder can never misread a prefix as a shorter valid frame.
        for msg in all_messages() {
            let bytes = encode(&msg);
            for cut in 0..bytes.len() {
                assert_eq!(
                    try_decode(&bytes[..cut]).unwrap_or_else(|e| panic!("{msg:?}@{cut}: {e}")),
                    None,
                    "{msg:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn truncated_payload_inside_frame_is_an_error() {
        // A frame whose declared length is too short for its fields.
        let mut bytes = encode(&Message::OpenStream { stream_id: 9 });
        // Shrink the declared payload to tag + 2 bytes (body needs 4).
        bytes[0] = 3;
        bytes.truncate(4 + 3);
        let err = try_decode(&bytes).unwrap_err();
        assert!(matches!(err, ProtocolError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn a_lying_float_count_is_truncation_not_an_allocation() {
        // 17-byte (SubmitFrames) and 25-byte (SubmitTraced) payloads whose
        // count field claims u32::MAX floats: the run is bounds-checked
        // whole before a single float is converted, so the answer is
        // `Truncated` by exactly the bytes that are missing — not a 16 GiB
        // reservation followed by a bounds error.
        let lying = u32::MAX; // a multiple of the dim, 5
        for honest in [
            Message::SubmitFrames {
                stream_id: 3,
                dim: 5,
                data: vec![0.25; 5],
            },
            Message::SubmitTraced {
                trace_id: 0xABCD,
                stream_id: 3,
                dim: 5,
                data: vec![0.25; 5],
            },
        ] {
            let mut payload = encode(&honest)[4..].to_vec();
            let count_at = payload.len() - 5 * 4 - 4;
            payload[count_at..count_at + 4].copy_from_slice(&lying.to_le_bytes());
            payload.truncate(count_at + 4 + 4); // one float where 4 billion are claimed
            match decode_payload(&payload) {
                Err(ProtocolError::Truncated { tag, needed }) => {
                    assert_eq!(tag, honest.tag());
                    assert_eq!(needed, lying as usize * 4 - 4);
                }
                other => panic!("expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let frame = [1u8, 0, 0, 0, 0xEE];
        assert_eq!(
            try_decode(&frame).unwrap_err(),
            ProtocolError::UnknownTag(0xEE)
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&Message::Health);
        // Declare one extra byte and append it.
        bytes[0] = 2;
        bytes.push(0xFF);
        let err = try_decode(&bytes).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::TrailingBytes {
                tag: TAG_HEALTH,
                extra: 1
            }
        );
    }

    #[test]
    fn oversized_and_empty_frames_are_rejected() {
        // One header check behind both entry points: the buffer decoder
        // and the transport reader name the same violation.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        let oversized = ProtocolError::Oversized {
            declared: MAX_FRAME_BYTES + 1,
        };
        for (prefix, violation) in [(huge, oversized), ([0; 4], ProtocolError::EmptyFrame)] {
            assert_eq!(try_decode(&prefix).unwrap_err(), violation);
            let err = read_message(&mut &prefix[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let inner = err
                .get_ref()
                .and_then(|e| e.downcast_ref::<ProtocolError>());
            assert_eq!(inner, Some(&violation));
        }
    }

    #[test]
    fn bad_enum_codes_are_rejected() {
        let mut bytes = encode(&Message::Rejected {
            code: RejectCode::Malformed,
            retry_after_ms: 0,
            detail: String::new(),
        });
        bytes[5] = 99; // first body byte = reject code
        assert_eq!(
            try_decode(&bytes).unwrap_err(),
            ProtocolError::BadValue("reject code")
        );
    }

    #[test]
    fn submit_dim_mismatch_is_rejected() {
        let mut payload = vec![TAG_SUBMIT_FRAMES];
        payload.extend_from_slice(&7u32.to_le_bytes()); // stream
        payload.extend_from_slice(&3u32.to_le_bytes()); // dim
        payload.extend_from_slice(&4u32.to_le_bytes()); // len not divisible by 3
        payload.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            decode_payload(&payload).unwrap_err(),
            ProtocolError::BadValue("data length not a multiple of dim")
        );
    }

    #[test]
    fn io_helpers_move_frames_and_signal_clean_eof() {
        let mut wire = Vec::new();
        for msg in all_messages() {
            write_message(&mut wire, &msg).unwrap();
        }
        let mut r = wire.as_slice();
        for msg in all_messages() {
            assert_eq!(read_message(&mut r).unwrap(), Some(msg));
        }
        assert_eq!(read_message(&mut r).unwrap(), None, "clean EOF");

        // Mid-frame EOF is an error, not a clean end.
        let partial = &encode(&Message::Health)[..2];
        let mut r = partial;
        assert!(read_message(&mut r).is_err());
    }

    #[test]
    fn frame_buf_hands_out_every_frame_one_read_delivered() {
        use crate::testkit::pipe;
        let (mut tx, mut rx) = pipe();
        let messages = all_messages();
        let wire: Vec<u8> = messages.iter().flat_map(encode).collect();
        // One write: the first read delivers every frame. Then the same
        // frames again, each cut in two mid-prefix or mid-body.
        tx.write_all(&wire).unwrap();
        for (i, msg) in messages.iter().enumerate() {
            let frame = encode(msg);
            let cut = 1 + i % (frame.len() - 1);
            tx.write_all(&frame[..cut]).unwrap();
            tx.write_all(&frame[cut..]).unwrap();
        }
        tx.shutdown_write();
        let mut buf = FrameBuf::new();
        for msg in messages.iter().chain(&messages) {
            let payload = buf.next_frame(&mut rx).unwrap().expect("a frame");
            assert_eq!(&decode_payload(payload).unwrap(), msg);
        }
        assert!(buf.next_frame(&mut rx).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn frame_buf_grows_with_the_bytes_received_and_returns_to_base() {
        use crate::testkit::pipe;
        let big = encode(&Message::SubmitFrames {
            stream_id: 1,
            dim: 4,
            data: vec![0.5; 100_000],
        });
        let (mut tx, mut rx) = pipe();
        for piece in big.chunks(1000) {
            tx.write_all(piece).unwrap();
        }
        tx.write_all(&encode(&Message::Health)).unwrap();
        tx.shutdown_write();

        let mut buf = FrameBuf::new();
        let payload = buf.next_frame(&mut rx).unwrap().expect("the big frame");
        assert_eq!(payload.len(), big.len() - 4);
        // Doubled its way up: never twice what had arrived.
        assert!((big.len()..2 * big.len()).contains(&buf.buf.len()));
        // Drained: the next read starts from a base-sized buffer again.
        let payload = buf.next_frame(&mut rx).unwrap().expect("the small frame");
        assert_eq!(decode_payload(payload).unwrap(), Message::Health);
        assert_eq!(buf.buf.len(), BUF_BASE);
        assert!(buf.buf.capacity() < 2 * BUF_BASE);

        // A prefix alone moves nothing: 16 MiB announced, 1 KiB sent.
        let (mut tx, mut rx) = pipe();
        tx.write_all(&(MAX_FRAME_BYTES as u32).to_le_bytes())
            .unwrap();
        tx.write_all(&[0; 1024]).unwrap();
        tx.shutdown_write();
        let mut buf = FrameBuf::new();
        let err = buf.next_frame(&mut rx).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(buf.buf.len(), BUF_BASE);
    }

    #[test]
    fn back_to_back_frames_decode_in_sequence() {
        let a = Message::OpenStream { stream_id: 1 };
        let b = Message::Health;
        let mut buf = encode(&a);
        buf.extend_from_slice(&encode(&b));
        let (first, used) = try_decode(&buf).unwrap().unwrap();
        assert_eq!(first, a);
        let (second, used2) = try_decode(&buf[used..]).unwrap().unwrap();
        assert_eq!(second, b);
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn trace_ids_survive_the_wire_bit_exactly() {
        for trace_id in [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF] {
            let msg = Message::SubmitTraced {
                trace_id,
                stream_id: 1,
                dim: 1,
                data: vec![1.0],
            };
            let (decoded, _) = try_decode(&encode(&msg)).unwrap().unwrap();
            let Message::SubmitTraced { trace_id: got, .. } = decoded else {
                panic!("wrong variant");
            };
            assert_eq!(got, trace_id);
        }
    }

    #[test]
    fn wire_slo_burn_rate() {
        let mut slo = WireSlo {
            name: "x".into(),
            label: String::new(),
            threshold: 0.05,
            objective: 0.99,
            total: 0,
            violations: 0,
        };
        assert_eq!(slo.burn_rate(), 0.0);
        slo.total = 100;
        slo.violations = 1;
        assert!((slo.burn_rate() - 1.0).abs() < 1e-9);
        slo.violations = 5;
        assert!((slo.burn_rate() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn traced_submit_dim_mismatch_is_rejected() {
        let mut payload = vec![TAG_SUBMIT_TRACED];
        payload.extend_from_slice(&9u64.to_le_bytes()); // trace
        payload.extend_from_slice(&7u32.to_le_bytes()); // stream
        payload.extend_from_slice(&3u32.to_le_bytes()); // dim
        payload.extend_from_slice(&4u32.to_le_bytes()); // len not divisible by 3
        payload.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            decode_payload(&payload).unwrap_err(),
            ProtocolError::BadValue("data length not a multiple of dim")
        );
    }

    #[test]
    fn reject_codes_round_trip() {
        for v in (0u8..8).filter(|&v| v != 3) {
            let code = RejectCode::from_u8(v).unwrap();
            assert_eq!(code as u8, v);
            assert!(!code.label().is_empty());
        }
        // Code 3 (major 1's queue-full refusal) is retired, not reused.
        for retired in [3, 8] {
            assert!(RejectCode::from_u8(retired).is_err());
        }
    }
}
