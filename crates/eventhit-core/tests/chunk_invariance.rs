//! Chunk invariance of the batch ingestion path: feeding a stream
//! through `OnlinePredictor::push_frames` in chunks of any size gives the
//! decisions, the exported state after every chunk, and the
//! `stream.frames` total that `push_frame` gives one row at a time.
//!
//! Under a policy whose gate cannot close (`fixed`, `delta:0`,
//! `adaptive:0:2`) a batch passes over the frames no read sees, so the
//! chunk sizes straddle every edge of that rule: the collection window
//! `M`, the horizon `H` and the batch end. Each size runs under those
//! three policies and two gates that can close, on a fresh predictor,
//! on one restored from a mid-stream export, and across a policy switch
//! and a model reload between chunks, with and without a telemetry
//! recorder.

use std::sync::{Arc, OnceLock};

use eventhit_core::streaming::{HorizonDecision, OnlinePredictor, PredictorState};
use eventhit_core::{
    task, ExperimentConfig, InferenceLane, SamplingPolicy, Strategy, TaskRun, Telemetry,
};

const STRATEGY: Strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };

/// The served model, and a second one of the same shape to reload.
fn runs() -> &'static (TaskRun, TaskRun) {
    static RUNS: OnceLock<(TaskRun, TaskRun)> = OnceLock::new();
    RUNS.get_or_init(|| {
        let run = |seed| TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(seed));
        (run(81), run(82))
    })
}

fn policies() -> [SamplingPolicy; 5] {
    [
        "fixed",
        "delta:0",
        "adaptive:0:2",
        "delta:0.1",
        "adaptive:0.1:3",
    ]
    .map(|spec| SamplingPolicy::parse(spec).unwrap())
}

/// What happens to both predictors between two chunks.
#[derive(Debug, Clone, Copy)]
enum Case {
    /// Nothing: a fresh predictor fed straight through.
    Fresh,
    /// Both predictors start from one `export_state` taken after this
    /// many frames.
    Restored(usize),
    /// The policy is switched, and later the model reloaded.
    Switched,
}

/// One predictor fed in chunks and one fed frame by frame.
struct Pair {
    chunked: OnlinePredictor,
    single: OnlinePredictor,
    telemetry: Option<[Arc<Telemetry>; 2]>,
}

impl Pair {
    fn new(policy: &SamplingPolicy, traced: bool) -> Pair {
        let (run, _) = runs();
        let build = || {
            OnlinePredictor::with_policy(
                run.model.clone(),
                run.state.clone(),
                STRATEGY,
                InferenceLane::Exact,
                policy.clone(),
            )
        };
        let (mut chunked, mut single) = (build(), build());
        let telemetry = traced.then(|| {
            let t = [Arc::new(Telemetry::new()), Arc::new(Telemetry::new())];
            chunked.set_telemetry(Arc::clone(&t[0]));
            single.set_telemetry(Arc::clone(&t[1]));
            t
        });
        Pair {
            chunked,
            single,
            telemetry,
        }
    }

    fn restore(&mut self, st: &PredictorState) {
        self.chunked.restore_state(st).unwrap();
        self.single.restore_state(st).unwrap();
    }

    /// Feeds `rows` to both and checks they agree, decisions and state.
    fn feed(&mut self, rows: &[&[f32]], what: &str) {
        let mut batch = Vec::new();
        self.chunked
            .push_frames(rows.iter().copied(), |d| batch.push(d));
        let one_by_one: Vec<HorizonDecision> = rows
            .iter()
            .filter_map(|row| self.single.push_frame(row))
            .collect();
        assert_eq!(batch, one_by_one, "{what}: decisions");
        let (a, b) = (self.chunked.export_state(), self.single.export_state());
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "{what}: state fingerprint"
        );
        assert_eq!(a, b, "{what}: state");
    }

    fn check_telemetry(&self, what: &str) {
        if let Some([a, b]) = &self.telemetry {
            let (a, b) = (a.snapshot(), b.snapshot());
            for counter in ["stream.frames", "stream.decisions", "stream.frames_skipped"] {
                assert_eq!(a.counter(counter), b.counter(counter), "{what}: {counter}");
            }
        }
    }
}

fn run_case(case: Case, policy: &SamplingPolicy, chunk: usize, traced: bool) {
    let (run, other) = runs();
    let n = stream_len();
    let rows: Vec<&[f32]> = (0..n).map(|r| run.features.row(r)).collect();
    let what = format!(
        "{case:?}, {}, chunk {chunk}, traced {traced}",
        policy.label()
    );

    let mut pair = Pair::new(policy, traced);
    let mut at = 0;
    if let Case::Restored(cut) = case {
        at = cut;
        let mut source = Pair::new(policy, false).single;
        rows[..at].iter().for_each(|row| {
            source.push_frame(row);
        });
        pair.restore(&source.export_state());
    }
    let mut switched = policies().iter().position(|p| p == policy).unwrap();
    for (k, chunk_rows) in rows[at..].chunks(chunk).enumerate() {
        if let Case::Switched = case {
            if k == 2 {
                switched = (switched + 1) % policies().len();
                let next = &policies()[switched];
                pair.chunked.set_policy(next.clone());
                pair.single.set_policy(next.clone());
            }
            if k == 4 {
                for p in [&mut pair.chunked, &mut pair.single] {
                    p.reload_model(other.model.clone(), other.state.clone())
                        .unwrap();
                }
            }
        }
        pair.feed(chunk_rows, &format!("{what}, chunk #{k}"));
    }
    pair.check_telemetry(&what);
    if let Some([t, _]) = &pair.telemetry {
        let frames = t.snapshot().counter("stream.frames");
        assert_eq!(frames, Some((n - at) as u64), "{what}: stream.frames");
    }
}

/// Frames fed per case: six horizons after the first anchor, ending
/// mid-horizon.
fn stream_len() -> usize {
    let (run, _) = runs();
    run.window + 6 * run.horizon + 17
}

/// The chunk sizes: both sides of `M`, of `H` and of the batch end.
fn chunk_sizes() -> Vec<usize> {
    let (run, _) = runs();
    let (m, h) = (run.window, run.horizon);
    let mut sizes = vec![
        1,
        2,
        m - 1,
        m,
        m + 1,
        64,
        h - 1,
        h,
        h + 1,
        2 * h + 3,
        usize::MAX,
    ];
    sizes.retain(|&s| s > 0);
    sizes
}

fn every_chunk_size(case: Case) {
    for policy in policies() {
        for chunk in chunk_sizes() {
            for traced in [false, true] {
                run_case(case, &policy, chunk, traced);
            }
        }
    }
}

#[test]
fn a_fresh_predictor_decides_alike_in_chunks_of_any_size() {
    every_chunk_size(Case::Fresh);
}

#[test]
fn a_restored_predictor_decides_alike_in_chunks_of_any_size() {
    let (run, _) = runs();
    let (m, h) = (run.window, run.horizon);
    // A ring still filling, and a full one mid-horizon.
    for cut in [m / 2, m + h + h / 3] {
        every_chunk_size(Case::Restored(cut));
    }
}

#[test]
fn a_policy_switch_and_a_reload_between_chunks_keep_chunks_alike() {
    every_chunk_size(Case::Switched);
}

#[test]
fn the_fixture_spans_several_horizons() {
    // Otherwise the chunk sizes above would not reach an anchor edge.
    let (run, _) = runs();
    assert!(run.features.rows() >= stream_len());
    assert!(run.window >= 2 && run.horizon > run.window);
}
