//! Allocation budget of the serving hot path, held by a counting
//! allocator so it cannot rot silently: once a predictor is warm, a
//! non-anchor frame allocates nothing, and a `Fixed`-policy anchor
//! allocates only the decision it returns — no `Matrix`, no `Record`, no
//! per-frame `Vec`. The same counter shows that a wire message lying
//! about its float count is refused before anything is reserved for it,
//! and one lying about its item count reserves at most 64 KiB, that a
//! warm `SubmitFrames` returning no decision allocates nothing at
//! either end of the session, whatever its row count, that a decoded
//! reply of one-event decisions allocates only its decision list, that a length
//! prefix promising 16 MiB buys no more buffer than the bytes that
//! follow it, and that a second predictor built from a clone of a served
//! model keeps no compiled weights of its own. Counts and sizes read from
//! disk are held to the same rule: a snapshot, conformal state or model
//! file that declares more than it holds is a typed error that allocates
//! next to nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eventhit::core::codec::{seal, Writer};
use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::model_io;
use eventhit::core::pipeline::Strategy;
use eventhit::core::streaming::OnlinePredictor;
use eventhit::core::tasks::task;
use eventhit::core::{CoreError, EventHit, EventHitConfig, InferenceLane};
use eventhit::durable::state_io::decode_state;
use eventhit::durable::{DurableError, DurableStore, SessionEvent, Snapshot};
use eventhit::parallel::Pool;
use eventhit::serve::protocol::{
    decode_payload, encode, Message, ProtocolError, WireDecision, WireDegradation, WirePrediction,
    MAX_FRAME_BYTES, PROTOCOL_MAJOR, PROTOCOL_MINOR,
};
use eventhit::serve::testkit::pipe;
use eventhit::serve::{ServeClient, ServeConfig, Server};
use eventhit::telemetry::Telemetry;

thread_local! {
    /// (allocations, bytes requested) made by this thread. Per thread, so
    /// tests running beside each other do not see one another.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Bytes this thread has allocated and not freed (negative if it
    /// freed what another thread allocated).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Set on the one thread whose allocations `SESSION_ALLOCATIONS`
    /// mirrors.
    static IS_SESSION: Cell<bool> = const { Cell::new(false) };
}

/// Allocations made by the `IS_SESSION` thread, readable from its client's
/// thread between requests.
static SESSION_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// `System`, counting every allocation and reallocation per thread.
struct Counting;

fn count(bytes: usize) {
    // `try_with`: a thread's last frees can run after its locals are gone.
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
    live(bytes as i64);
    if IS_SESSION.try_with(Cell::get).unwrap_or(false) {
        SESSION_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

fn live(delta: i64) {
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state and (a const-initialised `Cell` without a destructor) never
// allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        live(-(layout.size() as i64));
        // SAFETY: `ptr` and `layout` are the caller's, from this allocator
        // (which is `System` underneath).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the (allocations, bytes) this
/// thread made meanwhile.
fn counted<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let before = COUNTS.with(Cell::get);
    let out = f();
    let after = COUNTS.with(Cell::get);
    (out, (after.0 - before.0, after.1 - before.1))
}

/// Runs `f` and returns its result with the bytes this thread allocated
/// meanwhile and had not freed when `f` returned.
fn retained<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}

/// What a `Fixed`-policy anchor may allocate: the `predictions` vector of
/// the `HorizonDecision` it returns, and nothing else.
const ANCHOR_ALLOCATIONS: u64 = 1;

#[test]
fn warm_predictor_allocates_only_the_decisions_it_returns() {
    let cfg = ExperimentConfig {
        scale: 0.15,
        ..ExperimentConfig::quick(93)
    };
    let run = TaskRun::execute(&task("TA10").unwrap(), &cfg);
    let strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };
    let warm_up = run.window + 2 * run.horizon;
    let frames = warm_up + 3 * run.horizon;
    assert!(run.features.rows() >= frames);

    for lane in [InferenceLane::Exact, InferenceLane::Quantized] {
        let mut online =
            OnlinePredictor::with_lane(run.model.clone(), run.state_for_lane(lane), strategy, lane);
        for r in 0..warm_up {
            online.push_frame(run.features.row(r));
        }
        let (mut anchors, mut quiet) = (0, 0);
        for r in warm_up..frames {
            let row = run.features.row(r);
            let (decision, (allocations, _)) = counted(|| online.push_frame(row));
            match decision {
                None => {
                    assert_eq!(allocations, 0, "{lane} lane, non-anchor frame {r}");
                    quiet += 1;
                }
                Some(d) => {
                    assert!(
                        allocations <= ANCHOR_ALLOCATIONS,
                        "{lane} lane, anchor {}: {allocations} allocations",
                        d.anchor
                    );
                    anchors += 1;
                }
            }
        }
        assert_eq!((anchors, quiet), (3, 3 * run.horizon - 3));
    }
}

#[test]
fn a_second_predictor_keeps_no_compiled_weights_of_its_own() {
    // The served model's layer sizes, so a plan is its real ~78 KB.
    let served_size = ExperimentConfig::default();
    let cfg = ExperimentConfig {
        scale: 0.15,
        hidden_dim: served_size.hidden_dim,
        shared_dim: served_size.shared_dim,
        ..ExperimentConfig::quick(93)
    };
    let run = TaskRun::execute(&task("TA10").unwrap(), &cfg);
    let strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };
    let weight_bytes = (run.model.param_count() * 4) as i64;
    assert!(
        weight_bytes > 64 * 1024,
        "the margin below needs a real model"
    );

    for lane in [InferenceLane::Exact, InferenceLane::Quantized] {
        let state = run.state_for_lane(lane);
        // A model whose weights were just opened for writing has no plan
        // yet (calibration above compiled `run.model`'s).
        let mut served = run.model.clone();
        drop(served.params_mut());
        let build = || OnlinePredictor::with_lane(served.clone(), state.clone(), strategy, lane);

        let (first, compiled) = retained(build);
        let (second, shared) = retained(build);
        assert!(
            compiled >= weight_bytes,
            "{lane} lane: the first predictor retained {compiled} B, a plan is {weight_bytes} B"
        );
        assert!(
            shared < 16 * 1024,
            "{lane} lane: the second predictor retained {shared} B"
        );
        drop((first, second));
    }
}

#[test]
fn a_lying_float_count_reserves_nothing() {
    for honest in [
        Message::SubmitFrames {
            stream_id: 3,
            dim: 5,
            data: vec![0.25; 5],
        },
        Message::SubmitTraced {
            trace_id: 7,
            stream_id: 3,
            dim: 5,
            data: vec![0.25; 5],
        },
    ] {
        let mut payload = encode(&honest)[4..].to_vec();
        let count_at = payload.len() - 5 * 4 - 4;
        let lying = u32::MAX; // a multiple of the dim, 5
        payload[count_at..count_at + 4].copy_from_slice(&lying.to_le_bytes());
        let (result, (allocations, bytes)) = counted(|| decode_payload(&payload));
        assert!(
            matches!(result, Err(ProtocolError::Truncated { .. })),
            "{result:?}"
        );
        assert_eq!((allocations, bytes), (0, 0));
    }
}

#[test]
fn a_lying_item_count_reserves_at_most_64_kib() {
    // The largest frames the protocol allows, each declaring u32::MAX items
    // of a kind 40 to 80 B wide in memory, then bytes that fail the first
    // item. One item per byte left would still be 16.7M items (~1 GB).
    let reply = Message::MetricsReply {
        clock_now: 0.0,
        window_secs: 1.0,
        counters: vec![],
        series: vec![],
        slos: vec![],
    };
    let decisions = Message::Decisions {
        stream_id: 1,
        decisions: vec![],
    };
    // Counters, series and SLOs of the reply; the decisions of the other.
    for (msg, count_at) in [(&reply, 17), (&reply, 21), (&reply, 25), (&decisions, 5)] {
        let mut payload = encode(msg)[4..][..count_at + 4].to_vec();
        payload[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        payload.resize(MAX_FRAME_BYTES, 0xFF);
        let (result, (_, bytes)) = counted(|| decode_payload(&payload));
        assert!(
            matches!(
                result,
                Err(ProtocolError::Truncated { .. } | ProtocolError::BadValue(_))
            ),
            "{result:?}"
        );
        assert!(
            bytes <= 64 * 1024,
            "a {MAX_FRAME_BYTES} B frame reserved {bytes} B for a count at {count_at}"
        );
    }
}

#[test]
fn one_event_decisions_decode_into_their_list_alone() {
    let decisions = (0..64u32)
        .map(|i| WireDecision {
            anchor: 100 + u64::from(i),
            degradation: WireDegradation::None,
            predictions: vec![WirePrediction {
                present: i % 3 != 0,
                start: i % 7,
                end: i % 11,
            }]
            .into(),
        })
        .collect();
    let reply = Message::Decisions {
        stream_id: 2,
        decisions,
    };
    let payload = encode(&reply)[4..].to_vec();
    let (decoded, (allocations, _)) = counted(|| decode_payload(&payload));
    assert_eq!(decoded.as_ref(), Ok(&reply));
    assert_eq!(allocations, 1, "64 one-event decisions");
}

#[test]
fn served_submit_allocations_do_not_scale_with_rows() {
    let run = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(93));
    let (model, state) = (run.model.clone(), run.state.clone());
    let strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };
    let factory = Box::new(move |_| OnlinePredictor::new(model.clone(), state.clone(), strategy));
    let server = Server::bind(ServeConfig::default(), factory).expect("bind");
    let addr = server.local_addr().expect("local addr");
    // Past the first anchor, with the next one further off than the two
    // measured batches: neither returns a decision. And no smaller than
    // either, so both ends' buffers have reached their working size.
    let warm_up = run.window + 64;
    assert!(run.horizon > 64 + 1 + 64 && run.features.rows() >= warm_up + 65);

    let dim = run.features.cols() as u32;
    let features = run.features.clone();
    let client = std::thread::spawn(move || {
        let rows = |from: usize, n: usize| -> Vec<f32> {
            (from..from + n)
                .flat_map(|r| features.row(r).iter().copied())
                .collect()
        };
        let mut client = ServeClient::connect(addr).expect("connect");
        client.open_stream(0).unwrap().expect_ok("open");
        client
            .submit(0, dim, rows(0, warm_up))
            .unwrap()
            .expect_ok("warm-up");
        // Each reply is read before the count: the session thread is back
        // in its blocking read, allocating nothing, when it is sampled.
        let mut costs = Vec::new();
        let mut at = warm_up;
        for n in [1, 64] {
            let data = rows(at, n);
            let before = SESSION_ALLOCATIONS.load(Ordering::Relaxed);
            let (reply, (client_cost, _)) = counted(|| client.submit(0, dim, data));
            let decisions = reply.unwrap().expect_ok("submit");
            assert!(decisions.is_empty(), "{n}-row batch crossed an anchor");
            let session_cost = SESSION_ALLOCATIONS.load(Ordering::Relaxed) - before;
            costs.push((n, session_cost, client_cost));
            at += n;
        }
        costs
    });
    // A one-worker pool runs the session on the calling thread.
    IS_SESSION.with(|s| s.set(true));
    server.serve_sessions(1, &Pool::new(1));
    IS_SESSION.with(|s| s.set(false));

    // Nothing to return, so nothing to allocate: the frame is read into
    // the session's receive buffer, its rows are fed from there, and both
    // ends encode into the buffer they sent the last message from.
    for (n, session_cost, client_cost) in client.join().expect("client thread") {
        assert_eq!(
            (session_cost, client_cost),
            (0, 0),
            "(session, client) allocations of a warm {n}-row submit"
        );
    }
}

#[test]
fn a_length_prefix_buys_no_buffer_the_payload_does_not_fill() {
    let factory = Box::new(|_| -> OnlinePredictor { unreachable!("no stream is opened") });
    let telemetry = Arc::new(Telemetry::disabled());
    let server = Server::unbound(ServeConfig::default(), factory, telemetry).expect("server");
    let (mut peer, session) = pipe();
    let hello = Message::Hello {
        major: PROTOCOL_MAJOR,
        minor: PROTOCOL_MINOR,
    };
    peer.write_all(&encode(&hello)).unwrap();
    // The largest frame the protocol allows, announced — then 1 KiB of it
    // and a hang-up.
    peer.write_all(&(MAX_FRAME_BYTES as u32).to_le_bytes())
        .unwrap();
    peer.write_all(&[0x05; 1024]).unwrap();
    peer.shutdown_write();

    let ((outcome, kept), (_, bytes)) = counted(|| retained(|| server.serve_on(session)));
    let err = outcome.expect_err("EOF inside the announced frame");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    assert!(
        bytes < 64 * 1024 && kept < 64 * 1024,
        "the session allocated {bytes} B and kept {kept} B for a frame that sent 1 KiB"
    );
}

#[test]
fn counts_read_from_disk_size_nothing_before_the_bytes_back_them() {
    const BUDGET: u64 = 64 * 1024;

    // A checksum-valid snapshot declaring u32::MAX lanes: refused, and
    // recovery falls back to the log.
    let dir = std::env::temp_dir().join(format!("alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let closed = SessionEvent::StreamClosed { stream_id: 1 };
    DurableStore::open(&dir).unwrap().0.append(&closed).unwrap();
    let snapshot = dir.join("snap-00000000000000000000.evsn");
    let lanes = seal(b"EVSN", 1, |w| {
        w.u64(0);
        w.u8(0);
        w.u32(u32::MAX);
    });
    std::fs::write(&snapshot, lanes).unwrap();
    let ((read, opened), (_, bytes)) =
        counted(|| (Snapshot::read(&snapshot), DurableStore::open(&dir)));
    assert!(matches!(read, Err(DurableError::Format(_))), "{read:?}");
    let (_, recovery) = opened.expect("the log still opens");
    assert!(recovery.snapshot.is_none());
    assert_eq!(recovery.tail, [closed]);
    assert!(bytes < BUDGET, "recovery allocated {bytes} B");
    std::fs::remove_dir_all(&dir).unwrap();

    // A conformal-state payload declaring u32::MAX events.
    let mut state = Vec::new();
    let mut w = Writer::new(&mut state);
    w.f32(0.5);
    w.u32(16);
    w.u32(u32::MAX);
    let (decoded, (_, bytes)) = counted(|| decode_state(&state).err());
    assert!(
        matches!(decoded, Some(DurableError::Format(_))),
        "{decoded:?}"
    );
    assert!(bytes < BUDGET, "the state decoder allocated {bytes} B");

    // A 20-byte model file declaring a 2 GiB payload, and a sealed one
    // whose input_dim is 0.
    let mut huge = Vec::new();
    let mut w = Writer::new(&mut huge);
    w.bytes(b"EVHT");
    w.u32(2);
    w.u64(1 << 31);
    w.u32(0);
    let mut model = Vec::new();
    let cfg = EventHitConfig {
        hidden_dim: 6,
        shared_dim: 5,
        ..EventHitConfig::new(4, 3, 8, 2)
    };
    model_io::save(&EventHit::new(cfg, 1), &mut model).unwrap();
    let payload = [&[0; 4], &model[24..]].concat();
    let zero_dim = seal(b"EVHT", 2, |w| w.bytes(&payload));
    for (what, file) in [("20-byte", huge), ("zero-dim", zero_dim)] {
        let (loaded, (_, bytes)) = counted(|| model_io::load(&mut file.as_slice()).err());
        assert!(
            matches!(loaded, Some(CoreError::ModelFormat(_))),
            "{what} model file: {loaded:?}"
        );
        assert!(bytes < BUDGET, "the {what} model file cost {bytes} B");
    }
}
