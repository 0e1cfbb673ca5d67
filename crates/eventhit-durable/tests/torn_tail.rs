//! Property tests for crash-tail recovery: truncating the session log at
//! EVERY byte offset of the final record — or of a final multi-record
//! batch written by one `DurableStore::write` — must recover exactly the
//! longest whole-record prefix: never panic, never lose a whole record,
//! never report bit damage for a pure truncation.

use eventhit_core::streaming::OnlinePredictor;
use eventhit_core::{task, ExperimentConfig, Strategy, TaskRun};
use eventhit_durable::event::{decision_fingerprint, SessionEvent};
use eventhit_durable::log::{frame_record, scan, Tail};
use eventhit_durable::store::{replay, DurableStore};
use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// A varied-size event mix: empty-ish, small, and multi-kilobyte records.
fn events() -> Vec<SessionEvent> {
    let mut evs = vec![
        SessionEvent::StreamAdmitted {
            stream_id: 0,
            dim: 4,
        },
        SessionEvent::FramesPushed {
            stream_id: 0,
            dim: 4,
            data: (0..4 * 97).map(|i| i as f32 * 0.25 - 7.0).collect(),
        },
        SessionEvent::DecisionEmitted {
            stream_id: 0,
            anchor: 31,
            fingerprint: 0x9E37_79B9_7F4A_7C15,
        },
        SessionEvent::ModelReloaded {
            fingerprint: 0x0123_4567_89AB_CDEF,
        },
        SessionEvent::FramesPushed {
            stream_id: 0,
            dim: 4,
            data: (0..4 * 113).map(|i| (i as f32).sin()).collect(),
        },
        SessionEvent::StreamClosed { stream_id: 0 },
    ];
    // A second stream so the final record sits on a multi-stream log.
    evs.push(SessionEvent::StreamAdmitted {
        stream_id: 1,
        dim: 2,
    });
    evs
}

fn image_of(evs: &[SessionEvent]) -> Vec<u8> {
    let mut image = Vec::new();
    for ev in evs {
        image.extend_from_slice(&frame_record(&ev.encode()));
    }
    image
}

#[test]
fn every_truncation_offset_of_the_final_record_recovers_the_prefix() {
    let evs = events();
    let image = image_of(&evs);
    let prefix_len = image_of(&evs[..evs.len() - 1]).len();

    for cut in prefix_len..=image.len() {
        let scanned = scan(&image[..cut]).unwrap_or_else(|e| {
            panic!("cut at {cut}: pure truncation must never be an error, got {e}")
        });
        if cut == prefix_len {
            assert_eq!(scanned.tail, Tail::Clean, "cut at committed boundary");
            assert_eq!(scanned.payloads.len(), evs.len() - 1);
        } else if cut == image.len() {
            assert_eq!(scanned.tail, Tail::Clean, "full image is clean");
            assert_eq!(scanned.payloads.len(), evs.len());
        } else {
            assert_eq!(scanned.tail, Tail::Torn, "cut at {cut}");
            assert_eq!(scanned.payloads.len(), evs.len() - 1, "cut at {cut}");
        }
        let expect_valid = if cut == image.len() { cut } else { prefix_len };
        assert_eq!(scanned.valid_bytes, expect_valid as u64);
        // Every committed payload survives intact and still decodes.
        for (payload, ev) in scanned.payloads.iter().zip(&evs) {
            assert_eq!(&SessionEvent::decode(payload).unwrap(), ev);
        }
    }
}

#[test]
fn store_reopens_and_appends_after_every_tail_truncation() {
    let evs = events();
    let image = image_of(&evs);
    let prefix_len = image_of(&evs[..evs.len() - 1]).len();
    let dir: PathBuf = std::env::temp_dir().join(format!("evtorn-reopen-{}", std::process::id()));

    // Exhaustive at the store level too: for each truncation offset,
    // opening must truncate back to the committed prefix and accept a
    // fresh append on the repaired boundary.
    for cut in prefix_len..image.len() {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("session.evlog");
        let mut f = fs::File::create(&log_path).unwrap();
        f.write_all(&image[..cut]).unwrap();
        drop(f);

        let (mut store, recovery) = DurableStore::open(&dir).unwrap();
        assert_eq!(recovery.torn_tail, cut != prefix_len, "cut at {cut}");
        assert_eq!(recovery.tail.len(), evs.len() - 1, "cut at {cut}");
        assert_eq!(
            fs::metadata(&log_path).unwrap().len(),
            prefix_len as u64,
            "cut at {cut}: torn bytes must be truncated away"
        );

        store
            .append(&SessionEvent::StreamClosed { stream_id: 1 })
            .unwrap();
        let (_, again) = DurableStore::open(&dir).unwrap();
        assert!(!again.torn_tail);
        assert_eq!(again.tail.len(), evs.len(), "cut at {cut}");
        assert_eq!(
            again.tail.last(),
            Some(&SessionEvent::StreamClosed { stream_id: 1 })
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A crash can cut a batched write anywhere: one `write` call puts a
/// `FramesPushed` and its `DecisionEmitted` records into the file with a
/// single `write_all`, and nothing says the disk kept all of it.
#[test]
fn every_truncation_offset_of_a_final_batch_recovers_the_whole_record_prefix() {
    let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(71));
    let boot = |_stream: u32| {
        OnlinePredictor::new(
            run.model.clone(),
            run.state.clone(),
            Strategy::Ehcr { c: 0.9, alpha: 0.5 },
        )
    };
    // Enough frames in one batch for two decisions.
    let frames = run.window + run.horizon + 1;
    let dim = run.features.cols() as u32;
    let mut lane = boot(0);
    let mut data = Vec::new();
    let mut decided = Vec::new();
    for r in 0..frames {
        data.extend_from_slice(run.features.row(r));
        decided.extend(lane.push_frame(run.features.row(r)));
    }
    assert_eq!(decided.len(), 2, "the batch must carry two decisions");
    let mut batch = vec![SessionEvent::FramesPushed {
        stream_id: 0,
        dim,
        data,
    }];
    batch.extend(decided.iter().map(|d| SessionEvent::DecisionEmitted {
        stream_id: 0,
        anchor: d.anchor,
        fingerprint: decision_fingerprint(d),
    }));

    // The image under test: a committed record, then the batch as one
    // `write` put it in the file.
    let dir: PathBuf = std::env::temp_dir().join(format!("evtorn-batch-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let log_path = dir.join("session.evlog");
    let admitted = SessionEvent::StreamAdmitted { stream_id: 0, dim };
    {
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        store.append(&admitted).unwrap();
        let seq = store.write(&batch).unwrap();
        assert_eq!(seq, 4, "the sequence number of the batch's last record");
    }
    let image = fs::read(&log_path).unwrap();
    let mut evs = vec![admitted];
    evs.extend(batch);
    assert_eq!(
        image,
        image_of(&evs),
        "a batched write must produce the bytes record-at-a-time framing does"
    );
    // Byte offsets at which each record ends.
    let ends: Vec<usize> = (1..=evs.len()).map(|n| image_of(&evs[..n]).len()).collect();

    for cut in ends[0]..=image.len() {
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        let on_boundary = ends.contains(&cut);
        let scanned = scan(&image[..cut]).unwrap_or_else(|e| {
            panic!("cut at {cut}: pure truncation must never be an error, got {e}")
        });
        let expect_tail = if on_boundary { Tail::Clean } else { Tail::Torn };
        assert_eq!(scanned.tail, expect_tail, "cut at {cut}");
        assert_eq!(scanned.payloads.len(), whole, "cut at {cut}");
        assert_eq!(scanned.valid_bytes, ends[whole - 1] as u64, "cut at {cut}");

        // The store level costs a replay through the real model: every
        // offset from the end of the frames record on, a sample before.
        if cut < ends[1] && cut % 257 != 0 {
            continue;
        }
        fs::write(&log_path, &image[..cut]).unwrap();
        let (mut store, recovery) = DurableStore::open(&dir).unwrap();
        assert_eq!(recovery.torn_tail, !on_boundary, "cut at {cut}");
        assert_eq!(recovery.tail, evs[..whole], "cut at {cut}");
        assert_eq!(
            fs::metadata(&log_path).unwrap().len(),
            ends[whole - 1] as u64
        );

        // Frames kept, decision lost: the lane is rebuilt with the frames
        // counted and the lost decision not (the at-most-once gap).
        let replayed = replay(&dir, &recovery, &mut |stream| boot(stream)).unwrap();
        let lane = &replayed.lanes[&0];
        let (want_frames, want_decisions) = match whole {
            1 => (0, 0),
            n => (frames as u64, n as u64 - 2),
        };
        assert_eq!(lane.frames, want_frames, "cut at {cut}");
        assert_eq!(lane.decisions, want_decisions, "cut at {cut}");

        // Repaired: the log takes new writes on the whole-record boundary.
        store
            .append(&SessionEvent::StreamClosed { stream_id: 0 })
            .unwrap();
        let (_, again) = DurableStore::open(&dir).unwrap();
        assert!(!again.torn_tail);
        assert_eq!(again.tail.len(), whole + 1, "cut at {cut}");
    }
    let _ = fs::remove_dir_all(&dir);
}
