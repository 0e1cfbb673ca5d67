//! Property tests for crash-tail recovery: truncating the session log at
//! EVERY byte offset of the final record — or of a final multi-record
//! batch written by one `DurableStore::write` — must recover exactly the
//! longest whole-record prefix: never panic, never lose a whole record,
//! never report bit damage for a pure truncation.
//!
//! The `fill_*` tests do the same for a log the store preallocated: a
//! crash leaves the unwritten part of the final record as the zero fill
//! that was there before it, and the file runs on past it.

use eventhit_core::streaming::OnlinePredictor;
use eventhit_core::{task, ExperimentConfig, Strategy, TaskRun};
use eventhit_durable::event::{decision_fingerprint, SessionEvent};
use eventhit_durable::log::{frame_record, scan, Tail};
use eventhit_durable::store::{replay, DurableStore};
use eventhit_durable::DurableError;
use eventhit_telemetry::Telemetry;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("evtorn-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Byte offsets at which each record of `evs` ends.
fn record_ends(evs: &[SessionEvent]) -> Vec<usize> {
    (1..=evs.len()).map(|n| image_of(&evs[..n]).len()).collect()
}

/// Writes each batch through a store, durably, then dies with the store
/// open: nothing trims the fill, so the file is what the disk holds.
/// Returns that image after checking it is the records, then zeros.
fn crashed_image(dir: &Path, batches: &[&[SessionEvent]]) -> Vec<u8> {
    let (mut store, _) = DurableStore::open(dir).unwrap();
    for batch in batches {
        let seq = store.write(batch).unwrap();
        store.commit_handle().wait_durable(seq).unwrap();
    }
    std::mem::forget(store);
    let disk = fs::read(dir.join("session.evlog")).unwrap();
    let image = image_of(&batches.concat());
    assert!(disk.len() > image.len(), "the store must preallocate");
    assert_eq!(disk[..image.len()], image);
    assert!(disk[image.len()..].iter().all(|&b| b == 0), "fill is zeros");
    disk
}

/// Every cut from `first_cut` to the end of `evs`' image, followed by the
/// fill `disk` has there: the scan recovers the records the fill left as
/// they were (a cut that removed only zeros leaves a record whole), and
/// the tail is torn exactly when non-zero bytes remain past them. At the
/// cuts `at_store` picks, `open` must agree, trim the fill, count only
/// the torn record's bytes, and take the next write at the logical end.
fn assert_every_cut_then_fill(
    dir: &Path,
    disk: &[u8],
    evs: &[SessionEvent],
    first_cut: usize,
    at_store: impl Fn(usize) -> bool,
) {
    let log_path = dir.join("session.evlog");
    let image = image_of(evs);
    let ends = record_ends(evs);
    let closed = SessionEvent::StreamClosed { stream_id: 9 };
    let mut filled = disk.to_vec();
    for cut in first_cut..=image.len() {
        filled[..image.len()].copy_from_slice(&image);
        filled[cut..image.len()].fill(0);
        let whole = ends
            .iter()
            .take_while(|&&end| image[cut.min(end)..end].iter().all(|&b| b == 0))
            .count();
        let valid = ends[whole - 1];
        let torn_bytes = image
            .get(valid..cut)
            .and_then(|rest| rest.iter().rposition(|&b| b != 0))
            .map_or(0, |last| last + 1);
        let torn = torn_bytes > 0;

        let scanned = scan(&filled).unwrap_or_else(|e| {
            panic!("cut at {cut}: a cut followed by fill must never be an error, got {e}")
        });
        let expect_tail = if torn { Tail::Torn } else { Tail::Clean };
        assert_eq!(scanned.tail, expect_tail, "cut at {cut}");
        assert_eq!(scanned.payloads.len(), whole, "cut at {cut}");
        assert_eq!(scanned.valid_bytes, valid as u64, "cut at {cut}");
        assert_eq!(scanned.torn_bytes, torn_bytes as u64, "cut at {cut}");

        if !at_store(cut) {
            continue;
        }
        fs::write(&log_path, &filled).unwrap();
        let telemetry = Arc::new(Telemetry::new());
        let (mut store, recovery) =
            DurableStore::open_with_telemetry(dir, Arc::clone(&telemetry)).unwrap();
        assert_eq!(recovery.torn_tail, torn, "cut at {cut}");
        assert_eq!(recovery.tail, evs[..whole], "cut at {cut}");
        assert_eq!(
            fs::metadata(&log_path).unwrap().len(),
            valid as u64,
            "cut at {cut}: open must truncate the torn record and the fill"
        );
        assert_eq!(
            telemetry.snapshot().counter("durable.torn_bytes_truncated"),
            torn.then_some(torn_bytes as u64),
            "cut at {cut}: the torn record's bytes, and not the fill"
        );
        store.append(&closed).unwrap();
        drop(store);
        let mut want = image[..valid].to_vec();
        want.extend_from_slice(&frame_record(&closed.encode()));
        assert_eq!(fs::read(&log_path).unwrap(), want, "cut at {cut}");
    }
}

#[test]
fn fill_after_every_cut_of_the_final_record_is_a_torn_tail() {
    let evs = events();
    let dir = fresh_dir("fill-record");
    let batches: Vec<&[SessionEvent]> = evs.chunks(1).collect();
    let disk = crashed_image(&dir, &batches);
    let prefix_len = image_of(&evs[..evs.len() - 1]).len();
    assert_every_cut_then_fill(&dir, &disk, &evs, prefix_len, |_| true);
    let _ = fs::remove_dir_all(&dir);
}

/// The batch as one `write` put it in the file: frames and two decisions.
#[test]
fn fill_after_every_cut_of_a_final_batch_is_a_torn_tail() {
    let admitted = SessionEvent::StreamAdmitted {
        stream_id: 0,
        dim: 4,
    };
    let batch = [
        SessionEvent::FramesPushed {
            stream_id: 0,
            dim: 4,
            data: (0..4 * 61).map(|i| (i as f32 * 0.37).cos()).collect(),
        },
        SessionEvent::DecisionEmitted {
            stream_id: 0,
            anchor: 30,
            fingerprint: 0x0123_4567_89AB_CDEF,
        },
        SessionEvent::DecisionEmitted {
            stream_id: 0,
            anchor: 60,
            fingerprint: 0x9E37_79B9_7F4A_7C15,
        },
    ];
    let dir = fresh_dir("fill-batch");
    let disk = crashed_image(&dir, &[std::slice::from_ref(&admitted), &batch]);
    let mut evs = vec![admitted];
    evs.extend(batch);
    let ends = record_ends(&evs);
    // The store level at every offset from the end of the frames record
    // on, a sample before.
    let at_store = |cut: usize| cut >= ends[1] || cut.is_multiple_of(61);
    assert_every_cut_then_fill(&dir, &disk, &evs, ends[0], at_store);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fill_after_a_record_ending_in_zero_bytes_is_whole_and_clean() {
    let evs = [
        SessionEvent::StreamAdmitted {
            stream_id: 1,
            dim: 2,
        },
        SessionEvent::StreamClosed { stream_id: 1 },
    ];
    assert_eq!(
        evs[1].encode().last(),
        Some(&0),
        "the payload ends in zeros"
    );
    let dir = fresh_dir("fill-zeros");
    let disk = crashed_image(&dir, &[&evs[..1], &evs[1..]]);
    let image = image_of(&evs);

    let scanned = scan(&disk).unwrap();
    assert_eq!(scanned.tail, Tail::Clean);
    assert_eq!(scanned.payloads.len(), 2);
    assert_eq!(scanned.valid_bytes, image.len() as u64);
    assert_eq!(scanned.torn_bytes, 0);

    // A filled log that reopens cleanly is not torn and counts nothing.
    let telemetry = Arc::new(Telemetry::new());
    let (store, recovery) =
        DurableStore::open_with_telemetry(&dir, Arc::clone(&telemetry)).unwrap();
    assert!(!recovery.torn_tail);
    assert_eq!(recovery.tail, evs);
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("durable.torn_bytes_truncated"), None);
    drop(store);
    assert_eq!(fs::read(dir.join("session.evlog")).unwrap(), image);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fill_after_a_damaged_whole_record_is_corrupt() {
    let evs = [
        SessionEvent::StreamAdmitted {
            stream_id: 0,
            dim: 4,
        },
        SessionEvent::DecisionEmitted {
            stream_id: 0,
            anchor: 31,
            fingerprint: 0x9E37_79B9_7F4A_7C15,
        },
    ];
    assert_ne!(
        evs[1].encode().last(),
        Some(&0),
        "the record ends before the fill"
    );
    let dir = fresh_dir("fill-corrupt");
    let disk = crashed_image(&dir, &[&evs]);
    let start = image_of(&evs[..1]).len();
    let end = image_of(&evs).len();

    // Every byte of the final record's checksum and payload. (A damaged
    // length moves where the record ends instead.)
    let mut damaged = disk.clone();
    for at in start + 4..end {
        damaged[at] ^= 0x01;
        match scan(&damaged) {
            Err(DurableError::Corrupt { offset }) => assert_eq!(offset, start as u64, "at {at}"),
            other => panic!("damage at {at}: expected Corrupt, got {other:?}"),
        }
        damaged[at] ^= 0x01;
    }
    damaged[end - 1] ^= 0x01;
    fs::write(dir.join("session.evlog"), &damaged).unwrap();
    assert!(matches!(
        DurableStore::open(&dir),
        Err(DurableError::Corrupt { offset }) if offset == start as u64
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fill_never_brings_back_a_stale_record_across_two_crashes() {
    let dir = fresh_dir("fill-stale");
    let log_path = dir.join("session.evlog");

    // First life: the last record, a 2 MiB frames batch, is torn by the
    // crash: the disk kept its first three quarters, the rest is still
    // fill. What was kept runs past the chunk the next write grows into.
    let mut evs = events()[..4].to_vec();
    let rows = 1 << 17;
    evs.push(SessionEvent::FramesPushed {
        stream_id: 0,
        dim: 4,
        data: (0..4 * rows).map(|i| i as f32 + 0.5).collect(),
    });
    let batches: Vec<&[SessionEvent]> = evs.chunks(1).collect();
    let mut disk = crashed_image(&dir, &batches);
    let start = image_of(&evs[..4]).len();
    let end = image_of(&evs).len();
    disk[start + (end - start) * 3 / 4..end].fill(0);
    fs::write(&log_path, &disk).unwrap();

    // Second life: recovers the prefix, writes one short record over the
    // torn one's place, and crashes too.
    let (mut store, recovery) = DurableStore::open(&dir).unwrap();
    assert!(recovery.torn_tail);
    assert_eq!(recovery.tail, evs[..4]);
    let closed = SessionEvent::StreamClosed { stream_id: 0 };
    store.append(&closed).unwrap();
    std::mem::forget(store);

    // Third life: the short record and fill after it, nothing of the
    // torn one's stale bytes.
    let disk = fs::read(&log_path).unwrap();
    let mut want = evs[..4].to_vec();
    want.push(closed);
    let image = image_of(&want);
    assert!(disk[image.len()..].iter().all(|&b| b == 0));
    let (store, recovery) = DurableStore::open(&dir).unwrap();
    assert!(!recovery.torn_tail);
    assert_eq!(recovery.tail, want);
    drop(store);
    assert_eq!(fs::read(&log_path).unwrap(), image);
    let _ = fs::remove_dir_all(&dir);
}

/// A cleanly closed log is exactly the framed records, no trailing zeros,
/// so a reader that knows nothing of fill reads it; and a log with no
/// fill opens, and closes, unchanged.
#[test]
fn fill_is_gone_after_a_clean_drop_and_a_log_without_fill_opens_unchanged() {
    let evs = events();
    let dir = fresh_dir("fill-downgrade");
    let log_path = dir.join("session.evlog");
    let image = image_of(&evs);
    {
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        for ev in &evs[..3] {
            store.append(ev).unwrap();
        }
        let seq = store.write(&evs[3..]).unwrap();
        store.commit_handle().wait_durable(seq).unwrap();
    }
    assert_eq!(fs::read(&log_path).unwrap(), image);

    fs::remove_file(&log_path).unwrap();
    fs::write(&log_path, &image).unwrap();
    let (store, recovery) = DurableStore::open(&dir).unwrap();
    assert!(!recovery.torn_tail);
    assert_eq!(recovery.tail, evs);
    assert_eq!(fs::read(&log_path).unwrap(), image);
    drop(store);
    assert_eq!(fs::read(&log_path).unwrap(), image);
    let _ = fs::remove_dir_all(&dir);
}
