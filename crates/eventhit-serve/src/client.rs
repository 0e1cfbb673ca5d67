//! The matching client library: a blocking, request/response view of one
//! serving session.
//!
//! [`ServeClient::connect`] performs the `Hello`/`HelloAck` handshake and
//! exposes the negotiated limits; every call then maps one request to one
//! reply. Server rejections are ordinary values ([`Response::Rejected`]),
//! not errors — backpressure (`QueueFull`, `TooManyStreams`) is part of
//! the protocol, and the caller decides whether to wait out the
//! `retry_after_ms` hint or give up. Only transport failures and protocol
//! violations surface as `io::Error`.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    decode_payload, send_message, FrameBuf, Message, RejectCode, StreamSummary, WireCounter,
    WireDecision, WireSeries, WireSlo, PROTOCOL_MAJOR, PROTOCOL_MINOR,
};

/// The admission limits granted by the server at handshake time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Negotiated {
    /// Protocol minor version both ends agreed on.
    pub minor: u16,
    /// Server-wide cap on concurrently open streams.
    pub max_streams: u32,
    /// Largest batch one `SubmitFrames` may carry, in frames.
    pub max_batch_frames: u32,
    /// Per-stream ingest-queue bound, in frames.
    pub max_queue_frames: u32,
}

/// A server rejection, carried through [`Response::Rejected`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Why the request was refused.
    pub code: RejectCode,
    /// Backpressure hint: milliseconds to wait before retrying (0 when a
    /// retry cannot succeed).
    pub retry_after_ms: u32,
    /// Human-readable detail from the server.
    pub detail: String,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rejected ({}): {} [retry after {} ms]",
            self.code.label(),
            self.detail,
            self.retry_after_ms
        )
    }
}

/// Either the requested result or an in-protocol rejection.
#[derive(Debug, Clone, PartialEq)]
pub enum Response<T> {
    /// The request was served.
    Ok(T),
    /// The server refused the request; the session remains usable for
    /// non-fatal codes.
    Rejected(Rejection),
}

impl<T> Response<T> {
    /// Unwraps the served value, panicking on a rejection — convenient in
    /// tests and examples where a rejection is a bug.
    pub fn expect_ok(self, what: &str) -> T {
        match self {
            Response::Ok(v) => v,
            Response::Rejected(r) => panic!("{what}: {r}"),
        }
    }
}

/// The server's answer to a `Health` probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthInfo {
    /// Streams currently open across all sessions.
    pub active_streams: u32,
    /// Sessions served so far.
    pub sessions: u64,
    /// Frames consumed so far, all streams.
    pub frames: u64,
    /// Decisions emitted so far, all streams.
    pub decisions: u64,
}

/// The server's answer to a `MetricsQuery` (protocol minor ≥ 2): the
/// windowed time-series, counters, and SLO state a live dashboard polls.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsInfo {
    /// Server clock reading in seconds when the reply was built.
    pub clock_now: f64,
    /// Width in clock seconds of each series window.
    pub window_secs: f64,
    /// Every counter the server's recorder holds, sorted by
    /// `(name, label)`.
    pub counters: Vec<WireCounter>,
    /// Every windowed series, sorted by `(name, label)`.
    pub series: Vec<WireSeries>,
    /// Every registered SLO tracker, sorted by `(name, label)`.
    pub slos: Vec<WireSlo>,
}

impl MetricsInfo {
    /// The windowed series for the `label` series of `name`.
    pub fn series_for(&self, name: &str, label: &str) -> Option<&WireSeries> {
        self.series
            .iter()
            .find(|s| s.name == name && s.label == label)
    }
}

/// Typed payload of the `io::Error` a [`ServeClient`] returns when the
/// server vanishes mid-session (socket closed, reset, or broken pipe).
///
/// Carried as the error's source so callers can distinguish "the server
/// died — reconnect and [`ServeClient::resume_stream`]" from a protocol
/// violation; test with [`is_disconnected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server disconnected mid-session")
    }
}

impl std::error::Error for Disconnected {}

/// True iff `err` is the typed disconnect a [`ServeClient`] raises when
/// the server drops the connection mid-session.
pub fn is_disconnected(err: &io::Error) -> bool {
    err.get_ref()
        .is_some_and(|inner| inner.downcast_ref::<Disconnected>().is_some())
}

fn disconnected() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionAborted, Disconnected)
}

/// One blocking client session, over a TCP socket unless told otherwise
/// ([`ServeClient::over`] takes any transport).
pub struct ServeClient<C = TcpStream> {
    io: C,
    /// Replies are read through `rx`; requests are encoded into `request`
    /// and sent with one write. Both are reused, so a warm call allocates
    /// only the reply it returns.
    rx: FrameBuf,
    request: Vec<u8>,
    negotiated: Negotiated,
}

impl ServeClient {
    /// Connects and performs the handshake. Fails with
    /// `io::ErrorKind::ConnectionRefused` if the server rejects the
    /// protocol version.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        Self::over(TcpStream::connect(addr)?)
    }
}

impl<C: Read + Write> ServeClient<C> {
    /// Performs the handshake over an already connected transport (see
    /// [`ServeClient::connect`] for the failure modes).
    pub fn over(mut io: C) -> io::Result<Self> {
        let (mut rx, mut request) = (FrameBuf::new(), Vec::new());
        let hello = Message::Hello {
            major: PROTOCOL_MAJOR,
            minor: PROTOCOL_MINOR,
        };
        match exchange(&mut io, &mut rx, &mut request, &hello)? {
            Some(Message::HelloAck {
                minor,
                max_streams,
                max_batch_frames,
                max_queue_frames,
                ..
            }) => {
                let negotiated = Negotiated {
                    minor,
                    max_streams,
                    max_batch_frames,
                    max_queue_frames,
                };
                Ok(ServeClient {
                    io,
                    rx,
                    request,
                    negotiated,
                })
            }
            Some(Message::Rejected { code, detail, .. }) => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("handshake rejected ({}): {detail}", code.label()),
            )),
            other => Err(unexpected(other)),
        }
    }

    /// The limits granted at handshake time.
    pub fn negotiated(&self) -> Negotiated {
        self.negotiated
    }

    /// One request, one reply. A transport-level failure (EOF, reset,
    /// broken pipe) is normalized into the typed [`Disconnected`] error;
    /// protocol violations pass through unchanged.
    fn call(&mut self, msg: &Message) -> io::Result<Message> {
        use io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset, UnexpectedEof};
        match exchange(&mut self.io, &mut self.rx, &mut self.request, msg) {
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err(disconnected()),
            Err(e) => Err(match e.kind() {
                UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe => disconnected(),
                _ => e,
            }),
        }
    }

    /// A call the server may refuse in-protocol: `pick` takes the reply it
    /// was waiting for and hands anything else back.
    fn served<T>(
        &mut self,
        msg: &Message,
        pick: impl FnOnce(Message) -> Result<T, Message>,
    ) -> io::Result<Response<T>> {
        match pick(self.call(msg)?) {
            Ok(served) => Ok(Response::Ok(served)),
            Err(Message::Rejected {
                code,
                retry_after_ms,
                detail,
            }) => Ok(Response::Rejected(Rejection {
                code,
                retry_after_ms,
                detail,
            })),
            Err(other) => Err(unexpected(Some(other))),
        }
    }

    /// Opens a stream under a client-chosen id.
    pub fn open_stream(&mut self, stream_id: u32) -> io::Result<Response<()>> {
        self.served(&Message::OpenStream { stream_id }, |reply| match reply {
            Message::StreamOpened { stream_id: sid } if sid == stream_id => Ok(()),
            other => Err(other),
        })
    }

    /// Submits a row-major batch of feature rows (`data.len()` must be a
    /// multiple of `dim`) and returns the decisions it produced — possibly
    /// none, since decisions fire once per horizon.
    pub fn submit(
        &mut self,
        stream_id: u32,
        dim: u32,
        data: Vec<f32>,
    ) -> io::Result<Response<Vec<WireDecision>>> {
        let submit = Message::SubmitFrames {
            stream_id,
            dim,
            data,
        };
        self.served(&submit, |reply| match reply {
            Message::Decisions {
                stream_id: sid,
                decisions,
            } if sid == stream_id => Ok(decisions),
            other => Err(other),
        })
    }

    /// Like [`ServeClient::submit`], but stamping the batch with a
    /// client-assigned trace id (protocol minor ≥ 2). The server threads
    /// the id through its stage histograms and slow-decision log, and
    /// must echo it bit-exactly on the reply; an echo mismatch is a
    /// protocol violation and surfaces as `io::ErrorKind::InvalidData`.
    pub fn submit_traced(
        &mut self,
        stream_id: u32,
        trace_id: u64,
        dim: u32,
        data: Vec<f32>,
    ) -> io::Result<Response<Vec<WireDecision>>> {
        let submit = Message::SubmitTraced {
            trace_id,
            stream_id,
            dim,
            data,
        };
        let mut echoed = trace_id;
        let served = self.served(&submit, |reply| match reply {
            Message::TracedDecisions {
                trace_id: echo,
                stream_id: sid,
                decisions,
            } if sid == stream_id => {
                echoed = echo;
                Ok(decisions)
            }
            other => Err(other),
        })?;
        if echoed != trace_id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trace id echo mismatch: sent {trace_id:#x}, got {echoed:#x}"),
            ));
        }
        Ok(served)
    }

    /// Fetches the server's windowed time-series, counters, and SLO
    /// state (protocol minor ≥ 2) — the typed feed behind
    /// `eventhit-cli top`.
    pub fn metrics(&mut self) -> io::Result<MetricsInfo> {
        match self.call(&Message::MetricsQuery)? {
            Message::MetricsReply {
                clock_now,
                window_secs,
                counters,
                series,
                slos,
            } => Ok(MetricsInfo {
                clock_now,
                window_secs,
                counters,
                series,
                slos,
            }),
            other => Err(unexpected(Some(other))),
        }
    }

    /// Re-attaches to a stream held in the server's durable state
    /// (protocol minor ≥ 1). `last_seq` is the number of frames this
    /// client believes were accepted; on success the server returns the
    /// authoritative `next_seq` — continue submitting the stream's rows
    /// from that absolute index.
    pub fn resume_stream(&mut self, stream_id: u32, last_seq: u64) -> io::Result<Response<u64>> {
        let resume = Message::Resume {
            stream_id,
            last_seq,
        };
        self.served(&resume, |reply| match reply {
            Message::Resumed {
                stream_id: sid,
                next_seq,
            } if sid == stream_id => Ok(next_seq),
            other => Err(other),
        })
    }

    /// Closes a stream, returning its lifetime totals.
    pub fn close_stream(&mut self, stream_id: u32) -> io::Result<Response<StreamSummary>> {
        self.served(&Message::CloseStream { stream_id }, |reply| match reply {
            Message::StreamClosed {
                stream_id: sid,
                summary,
            } if sid == stream_id => Ok(summary),
            other => Err(other),
        })
    }

    /// Probes server liveness and load.
    pub fn health(&mut self) -> io::Result<HealthInfo> {
        match self.call(&Message::Health)? {
            Message::HealthReport {
                active_streams,
                sessions,
                frames,
                decisions,
            } => Ok(HealthInfo {
                active_streams,
                sessions,
                frames,
                decisions,
            }),
            other => Err(unexpected(Some(other))),
        }
    }

    /// Fetches the server's telemetry snapshot as canonical JSONL (empty
    /// when the server runs without a recorder).
    pub fn telemetry_jsonl(&mut self) -> io::Result<String> {
        match self.call(&Message::TelemetryQuery)? {
            Message::TelemetryReport { jsonl } => Ok(jsonl),
            other => Err(unexpected(Some(other))),
        }
    }
}

/// One write, then reads until one reply is whole; `None` is the server
/// hanging up instead of replying.
fn exchange(
    io: &mut (impl Read + Write),
    rx: &mut FrameBuf,
    request: &mut Vec<u8>,
    msg: &Message,
) -> io::Result<Option<Message>> {
    send_message(io, request, msg)?;
    match rx.next_frame(io)? {
        Some(reply) => Ok(Some(decode_payload(reply)?)),
        None => Ok(None),
    }
}

fn unexpected(msg: Option<Message>) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        match msg {
            Some(m) => format!("unexpected reply tag 0x{:02x}", m.tag()),
            None => "connection closed during handshake".into(),
        },
    )
}
