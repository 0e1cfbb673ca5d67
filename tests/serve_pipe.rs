//! Sessions driven over the in-memory pipe — no listener, no port. The
//! pipe never merges two writes into one read, so every test here
//! *chooses* how the session's reads are cut: a conversation delivered
//! cut at every byte, whole in one write, or a byte at a time must draw
//! the byte-identical reply stream that message-at-a-time delivery draws;
//! EOF and garbage end the session the way `docs/PROTOCOL.md` says; and a
//! call-counting transport shows what a message costs either end — one
//! read and one write.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::pipeline::Strategy;
use eventhit::core::streaming::OnlinePredictor;
use eventhit::core::tasks::task;
use eventhit::serve::protocol::{
    encode, try_decode, Message, ProtocolError, RejectCode, MAX_FRAME_BYTES, PROTOCOL_MAJOR,
    PROTOCOL_MINOR,
};
use eventhit::serve::testkit::pipe;
use eventhit::serve::{ServeClient, ServeConfig, Server};
use eventhit::telemetry::Telemetry;

fn trained() -> &'static TaskRun {
    static RUN: OnceLock<TaskRun> = OnceLock::new();
    RUN.get_or_init(|| TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(77)))
}

/// A listener-less server. Fresh per conversation: `Health` reports
/// server-lifetime totals, which would tell two deliveries apart.
fn server(cfg: ServeConfig, telemetry: Telemetry) -> Server {
    let factory = Box::new(|_| {
        let run = trained();
        let strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };
        OnlinePredictor::new(run.model.clone(), run.state.clone(), strategy)
    });
    Server::unbound(cfg, factory, Arc::new(telemetry)).expect("server")
}

fn plain_server() -> Server {
    server(ServeConfig::default(), Telemetry::disabled())
}

/// A `SubmitFrames` of `n` feature rows from row `from`, for stream 0.
fn submit(from: usize, n: usize) -> Message {
    let features = &trained().features;
    Message::SubmitFrames {
        stream_id: 0,
        dim: features.cols() as u32,
        data: (from..from + n)
            .flat_map(|r| features.row(r).iter().copied())
            .collect(),
    }
}

const HELLO: Message = Message::Hello {
    major: PROTOCOL_MAJOR,
    minor: PROTOCOL_MINOR,
};

/// Hands `chunks` to one session of `server` — each chunk is what one of
/// its reads returns — then EOF. Returns how the session ended and every
/// byte it wrote.
fn deliver<T: AsRef<[u8]>>(server: &Server, chunks: &[T]) -> (io::Result<()>, Vec<u8>) {
    let (mut client, session) = pipe();
    for chunk in chunks {
        client.write_all(chunk.as_ref()).expect("the pipe takes it");
    }
    client.shutdown_write();
    let outcome = server.serve_on(session);
    let mut replies = Vec::new();
    client.read_to_end(&mut replies).expect("drain replies");
    (outcome, replies)
}

fn decode_all(mut bytes: &[u8]) -> Vec<Message> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let (msg, used) = try_decode(bytes).expect("a reply decodes").expect("whole");
        out.push(msg);
        bytes = &bytes[used..];
    }
    out
}

/// The recorded conversation: handshake, one stream, three submits that
/// cross the first anchor between them, a probe, a close.
fn recorded() -> Vec<Vec<u8>> {
    let window = trained().window;
    [
        HELLO,
        Message::OpenStream { stream_id: 0 },
        submit(0, window / 2),
        submit(window / 2, window - window / 2 + 1),
        submit(window + 1, 2),
        Message::Health,
        Message::CloseStream { stream_id: 0 },
    ]
    .iter()
    .map(encode)
    .collect()
}

#[test]
fn any_cut_of_the_byte_stream_draws_the_same_replies() {
    let frames = recorded();
    let (outcome, expected) = deliver(&plain_server(), &frames);
    outcome.expect("message-at-a-time session");
    let replies = decode_all(&expected);
    assert_eq!(replies.len(), frames.len(), "one reply per request");
    assert!(
        replies
            .iter()
            .any(|m| matches!(m, Message::Decisions { decisions, .. } if !decisions.is_empty())),
        "the submits must cross an anchor: {replies:?}"
    );
    assert!(matches!(replies[6], Message::StreamClosed { .. }));

    let whole = frames.concat();
    let check = |how: &str, chunks: &[&[u8]]| {
        let (outcome, got) = deliver(&plain_server(), chunks);
        outcome.unwrap_or_else(|e| panic!("{how}: {e}"));
        assert!(got == expected, "{how}: the reply stream differs");
    };
    check("whole in one write", &[&whole[..]]);
    for cut in 1..whole.len() {
        check(
            &format!("cut at byte {cut}"),
            &[&whole[..cut], &whole[cut..]],
        );
    }
    let bytes: Vec<&[u8]> = whole.chunks(1).collect();
    check("a byte at a time", &bytes);
}

#[test]
fn eof_on_a_boundary_is_clean_and_inside_a_frame_is_not() {
    // One admission slot: a session that dies without giving its stream
    // back would starve the next.
    let one_slot = ServeConfig {
        max_streams: 1,
        ..ServeConfig::default()
    };
    let server = server(one_slot, Telemetry::disabled());
    let opened = [
        encode(&HELLO),
        encode(&Message::OpenStream { stream_id: 0 }),
    ]
    .concat();
    let next = encode(&submit(0, 1));

    let (outcome, replies) = deliver(&server, &[&opened]);
    outcome.expect("EOF between frames is a clean hang-up");
    assert!(matches!(
        decode_all(&replies)[..],
        [
            Message::HelloAck { .. },
            Message::StreamOpened { stream_id: 0 }
        ]
    ));

    // One byte into a length prefix; one byte into a payload.
    for torn in [1, 5] {
        let (outcome, replies) = deliver(&server, &[&opened[..], &next[..torn]]);
        let err = outcome.expect_err("EOF inside a frame");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{torn}: {err}");
        assert_eq!(decode_all(&replies).len(), 2, "no reply to half a frame");
    }

    // Each of the three sessions above opened the one stream there is
    // room for — so each found the slot its predecessor died holding.
    let (outcome, replies) = deliver(&server, &[&opened[..], &encode(&Message::Health)[..]]);
    outcome.expect("probe session");
    assert!(
        matches!(
            decode_all(&replies)[..],
            [
                Message::HelloAck { .. },
                Message::StreamOpened { .. },
                Message::HealthReport {
                    active_streams: 1,
                    sessions: 4,
                    ..
                }
            ]
        ),
        "{:?}",
        decode_all(&replies)
    );
}

#[test]
fn garbage_mid_burst_is_answered_malformed_after_the_replies_before_it() {
    let burst = [
        encode(&HELLO),
        encode(&Message::OpenStream { stream_id: 0 }),
        encode(&submit(0, 3)),
        vec![1, 0, 0, 0, 0xEE], // a well-framed tag nobody defined
        encode(&Message::Health),
    ]
    .concat();
    let (outcome, replies) = deliver(&plain_server(), &[&burst]);
    let err = outcome.expect_err("a frame that does not decode ends the session");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    let violation = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<ProtocolError>());
    assert_eq!(violation, Some(&ProtocolError::UnknownTag(0xEE)));
    let replies = decode_all(&replies);
    assert!(
        matches!(
            &replies[..],
            [
                Message::HelloAck { .. },
                Message::StreamOpened { stream_id: 0 },
                Message::Decisions { .. },
                Message::Rejected {
                    code: RejectCode::Malformed,
                    ..
                }
            ]
        ),
        "the Health behind the garbage is never served: {replies:?}"
    );

    // A length prefix no frame may declare is refused the same way,
    // before a byte of its payload is awaited.
    for (prefix, violation) in [
        (0u32, ProtocolError::EmptyFrame),
        (
            MAX_FRAME_BYTES as u32 + 1,
            ProtocolError::Oversized {
                declared: MAX_FRAME_BYTES + 1,
            },
        ),
    ] {
        let bytes = [encode(&HELLO), prefix.to_le_bytes().to_vec()].concat();
        let (outcome, replies) = deliver(&plain_server(), &[&bytes]);
        let err = outcome.expect_err("bad prefix");
        let got = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<ProtocolError>());
        assert_eq!(got, Some(&violation));
        assert!(matches!(
            decode_all(&replies)[..],
            [
                Message::HelloAck { .. },
                Message::Rejected {
                    code: RejectCode::Malformed,
                    ..
                }
            ]
        ));
    }
}

/// A transport that counts the `read` and `write` calls made on it.
struct Counted<C> {
    inner: C,
    calls: Arc<Calls>,
}

#[derive(Default)]
struct Calls {
    reads: AtomicUsize,
    writes: AtomicUsize,
}

impl Calls {
    fn get(&self) -> (usize, usize) {
        let (reads, writes) = (&self.reads, &self.writes);
        (reads.load(Ordering::SeqCst), writes.load(Ordering::SeqCst))
    }
}

impl<C: Read> Read for Counted<C> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls.reads.fetch_add(1, Ordering::SeqCst);
        self.inner.read(buf)
    }
}

impl<C: Write> Write for Counted<C> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.calls.writes.fetch_add(1, Ordering::SeqCst);
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[test]
fn a_message_costs_each_end_one_read_and_one_write() {
    let dim = trained().features.cols() as u32;
    let rows = |from: usize, n: usize| match submit(from, n) {
        Message::SubmitFrames { data, .. } => data,
        _ => unreachable!(),
    };
    let server = server(ServeConfig::default(), Telemetry::new());
    let (client_end, session_end) = pipe();
    let (client_calls, session_calls) = (Arc::<Calls>::default(), Arc::<Calls>::default());
    let session = Counted {
        inner: session_end,
        calls: Arc::clone(&session_calls),
    };

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_on(session));
        let transport = Counted {
            inner: client_end,
            calls: Arc::clone(&client_calls),
        };
        let mut client = ServeClient::over(transport).expect("handshake");
        assert_eq!(client_calls.get(), (1, 1), "Hello out, HelloAck in");
        client.open_stream(0).unwrap().expect_ok("open");
        let mut messages = 2; // Hello, OpenStream
        let mut at = 0;
        for n in [1, 64, 1, 7] {
            client
                .submit(0, dim, rows(at, n))
                .unwrap()
                .expect_ok("submit");
            at += n;
            messages += 1;
            // The reply is in hand, so the session has made every call
            // this message costs it but the read it now blocks in — which
            // is the next message's.
            assert_eq!(client_calls.get(), (messages, messages), "client, {n} rows");
            let (reads, writes) = session_calls.get();
            assert!(
                (messages..=messages + 1).contains(&reads) && writes == messages,
                "session after {messages} messages ({n} rows): {reads} reads, {writes} writes"
            );
        }

        // The per-layer rows the benchmark reads keep their meaning: one
        // `session_read` per message of the request loop (so not the
        // `Hello`, but this query), one `reply_write` per submit.
        let metrics = client.metrics().expect("metrics");
        let samples = |stage: &str| -> u64 {
            let series = metrics.series_for("serve.stage_seconds", stage);
            series.map_or(0, |s| s.windows.iter().map(|w| w.count).sum())
        };
        assert_eq!(samples("session_read"), messages as u64);
        assert_eq!(samples("reply_write"), 4);

        drop(client);
        serving.join().expect("session thread").expect("clean end");
    });
    // Seven messages (the metrics query too) and the EOF.
    assert_eq!(session_calls.get(), (8, 7));
}
