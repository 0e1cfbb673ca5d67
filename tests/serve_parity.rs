//! One request loop, same answers in both modes: a scripted conversation
//! run against a plain server and against a durable one must draw the same
//! reply, message for message — rejections, decisions, summaries and the
//! fatal dim mismatch included.

use std::net::TcpStream;
use std::sync::OnceLock;

use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::pipeline::Strategy;
use eventhit::core::streaming::OnlinePredictor;
use eventhit::core::tasks::task;
use eventhit::parallel::Pool;
use eventhit::serve::protocol::{
    read_message, write_message, Message, RejectCode, PROTOCOL_MAJOR, PROTOCOL_MINOR,
};
use eventhit::serve::{DurableOptions, ServeConfig, Server};

fn trained() -> &'static TaskRun {
    static RUN: OnceLock<TaskRun> = OnceLock::new();
    RUN.get_or_init(|| TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(77)))
}

/// `n` feature rows starting at row `from`, flattened.
fn rows(from: usize, n: usize) -> Vec<f32> {
    let features = &trained().features;
    (from..from + n)
        .flat_map(|r| features.row(r).iter().copied())
        .collect()
}

/// Sends `script` over one raw connection and returns each reply. The
/// script must end on a fatal violation: the server has to hang up after
/// its last reply.
fn converse(cfg: ServeConfig, script: &[(&str, Message)]) -> Vec<Option<Message>> {
    let factory = Box::new(|_| {
        let run = trained();
        let strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };
        OnlinePredictor::new(run.model.clone(), run.state.clone(), strategy)
    });
    let server = Server::bind(cfg, factory).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.serve_sessions(1, &Pool::new(1)));
    let sock = TcpStream::connect(addr).expect("connect");
    let mut chan = &sock;
    let replies = script
        .iter()
        .map(|(_, request)| {
            write_message(&mut chan, request).expect("send");
            read_message(&mut chan).expect("receive")
        })
        .collect();
    assert_eq!(read_message(&mut chan).expect("EOF"), None, "hang-up");
    drop(sock);
    handle.join().expect("server thread");
    replies
}

/// The reject code of a reply, if it is a rejection.
fn rejected(reply: &Option<Message>) -> Option<RejectCode> {
    match reply {
        Some(Message::Rejected { code, .. }) => Some(*code),
        _ => None,
    }
}

#[test]
fn plain_and_durable_servers_give_the_same_replies() {
    let run = trained();
    let dim = run.features.cols() as u32;
    // Enough rows in one fitting batch to cross the first anchor.
    let fitting = run.window + run.horizon;
    let limits = ServeConfig {
        max_batch_frames: 2 * fitting as u32,
        max_queue_frames: fitting as u32,
        retry_after_ms: 40,
        ..ServeConfig::default()
    };
    let submit = |stream_id, dim, data| Message::SubmitFrames {
        stream_id,
        dim,
        data,
    };
    let script = [
        (
            "hello",
            Message::Hello {
                major: PROTOCOL_MAJOR,
                minor: PROTOCOL_MINOR,
            },
        ),
        ("open", Message::OpenStream { stream_id: 0 }),
        ("duplicate open", Message::OpenStream { stream_id: 0 }),
        ("submit to an unopened id", submit(9, dim, rows(0, 1))),
        ("batch too large", submit(0, dim, rows(0, 2 * fitting + 1))),
        ("queue full", submit(0, dim, rows(0, fitting + 1))),
        (
            "fitting batch over an anchor",
            submit(0, dim, rows(0, fitting)),
        ),
        (
            "traced submit",
            Message::SubmitTraced {
                trace_id: 0xfeed,
                stream_id: 0,
                dim,
                data: rows(fitting, run.horizon),
            },
        ),
        ("close", Message::CloseStream { stream_id: 0 }),
        ("close again", Message::CloseStream { stream_id: 0 }),
        ("health", Message::Health),
        ("open another", Message::OpenStream { stream_id: 1 }),
        (
            "dim mismatch",
            submit(1, dim + 1, vec![0.0; dim as usize + 1]),
        ),
    ];

    let dir = std::env::temp_dir().join(format!("evparity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let plain = converse(limits.clone(), &script);
    let durable = converse(
        ServeConfig {
            durable: Some(DurableOptions::new(&dir)),
            ..limits
        },
        &script,
    );
    let _ = std::fs::remove_dir_all(&dir);

    for (((step, _), plain), durable) in script.iter().zip(&plain).zip(&durable) {
        // The one reply worded per mode: a durable duplicate names Resume.
        if *step == "duplicate open" {
            assert_eq!(rejected(plain), Some(RejectCode::DuplicateStream));
            assert_eq!(rejected(durable), Some(RejectCode::DuplicateStream));
        } else {
            assert_eq!(plain, durable, "step `{step}`");
        }
    }

    // ...and the shared answers are the ones the protocol promises.
    use RejectCode::*;
    let codes: Vec<_> = plain.iter().map(rejected).collect();
    let expected = [
        None,
        None,
        Some(DuplicateStream),
        Some(UnknownStream),
        Some(BatchTooLarge),
        Some(QueueFull),
        None,
        None,
        None,
        Some(UnknownStream),
        None,
        None,
        Some(Malformed),
    ];
    assert_eq!(codes, expected);
    assert!(
        matches!(&plain[6], Some(Message::Decisions { decisions, .. }) if !decisions.is_empty()),
        "the fitting batch must cross an anchor: {:?}",
        plain[6]
    );
    assert!(
        matches!(&plain[7], Some(Message::TracedDecisions { trace_id: 0xfeed, decisions, .. }) if !decisions.is_empty()),
        "{:?}",
        plain[7]
    );
    let frames = (fitting + run.horizon) as u64;
    assert!(
        matches!(&plain[8], Some(Message::StreamClosed { summary, .. }) if summary.frames == frames),
        "{:?}",
        plain[8]
    );
}
