//! The in-process workloads (`inproc-exact`, `inproc-fast`): the same
//! `run_lanes` job the paper's predictor-FPS figure describes, on one
//! worker and with no sockets. One operation is one `run_lanes` call
//! over [`LANES`] freshly opened lanes of [`FRAMES_PER_LANE`] frames.

use std::sync::Arc;

use eventhit_core::multi::{run_lanes, LaneDecision, StreamLane};
use eventhit_parallel::Pool;
use eventhit_telemetry::Telemetry;

use crate::calib;
use crate::fixture::{Fixture, StreamIds};
use crate::host;
use crate::pace::{Clock, WallClock};
use crate::report::{Phase, Plan, RunReport};
use crate::stats::Sample;

/// Lanes per `run_lanes` call.
pub const LANES: u32 = 16;
/// Frames each lane is fed per call: thirty horizons, so every call
/// scores exactly thirty anchors per lane (frames 9, 209, …), the anchor
/// density is the steady-state 1 in 200, and opening a lane (a model
/// clone, an int8 snapshot) stays the small share it is on a long stream.
pub const FRAMES_PER_LANE: usize = 6000;

fn slab(
    fix: &Fixture,
    ids: StreamIds,
    index: u32,
    telemetry: Option<&Arc<Telemetry>>,
) -> Vec<StreamLane> {
    (0..LANES)
        .map(|i| {
            let mut lane = fix.lane_of(ids.id(index * LANES + i), FRAMES_PER_LANE);
            if let Some(t) = telemetry {
                lane.predictor.set_telemetry(Arc::clone(t));
            }
            lane
        })
        .collect()
}

/// Whether a slab's decisions have the shape the cadence dictates: every
/// lane decides at frame `M-1` and then once per horizon, and the merged
/// timeline is ordered by `(anchor, stream)`.
fn well_formed(fix: &Fixture, decisions: &[LaneDecision]) -> bool {
    let per_lane = fix.decisions_in(FRAMES_PER_LANE);
    decisions.len() == per_lane * LANES as usize
        && decisions
            .chunks(LANES as usize)
            .enumerate()
            .all(|(k, row)| {
                let anchor = (fix.window - 1 + k * fix.horizon) as u64;
                row.iter().all(|d| d.decision.anchor == anchor)
                    && row.windows(2).all(|w| w[0].stream_id < w[1].stream_id)
            })
}

/// Runs slabs back to back for the plan's duration on one worker.
/// `traced` attaches a live telemetry recorder to every lane.
pub fn run(fix: &Fixture, ids: StreamIds, plan: &Plan, traced: bool) -> Result<RunReport, String> {
    let pool = Pool::new(1);
    let telemetry = traced.then(|| Arc::new(Telemetry::new()));
    let clock = WallClock::start();
    let bounds = plan.boundaries();
    let mut next = 0;
    let mut report = RunReport {
        cores: 1.0,
        ..RunReport::default()
    };
    let (mut frames, mut index) = (0u64, 0u32);
    let (mut warm, mut measured) = (0u64, 0u64);
    let mut malformed = 0u64;
    let mut first: Option<Vec<LaneDecision>> = None;
    let mut last: (u32, Vec<LaneDecision>) = (0, Vec::new());

    while next < bounds.len() {
        let lanes = slab(fix, ids, index, telemetry.as_ref());
        let t0 = clock.now_ns();
        let decisions = std::hint::black_box(run_lanes(lanes, &pool));
        let t1 = clock.now_ns();
        frames += u64::from(LANES) * FRAMES_PER_LANE as u64;
        if !well_formed(fix, &decisions) {
            malformed += 1;
        }
        if next == 0 {
            warm += 1;
        } else {
            measured += 1;
            report.ops.push((t0, (t1 - t0) as f64));
        }
        if first.is_none() {
            first = Some(decisions.clone());
        }
        last = (index, decisions);
        // Between operations: the host's speed right now.
        report.calib.push((clock.now_ns(), calib::kernel()));
        if t1 >= bounds[next] {
            report.samples.push(Sample {
                at_ns: t1,
                frames,
                cpu_ns: host::process_cpu_ns(),
            });
            // A slab that outlasts a whole segment closes them all.
            while next < bounds.len() && t1 >= bounds[next] {
                next += 1;
            }
        }
        index += 1;
    }
    report.peak_rss_mb = host::peak_rss_mib();

    // Output check: the first and the last slab again, at the host's
    // full worker count, must come out bit-identical — the decisions
    // are a pure function of the frames, whatever ran in between.
    let wide = Pool::new(host::nproc());
    let mut diverged = 0u64;
    for (slab_index, served) in [(0, first.unwrap_or_default()), last] {
        let again = run_lanes(slab(fix, ids, slab_index, None), &wide);
        if again != served {
            diverged += 1;
        }
    }
    report.phases = vec![
        Phase {
            name: "warm-up",
            attempted: warm,
            failed: 0,
        },
        Phase {
            name: "measured",
            attempted: measured,
            failed: malformed,
        },
        Phase {
            name: "verify",
            attempted: 2,
            failed: diverged,
        },
    ];
    if malformed + diverged > 0 {
        return Err(format!(
            "{malformed} slab(s) off the decision cadence, {diverged} of 2 re-run slabs diverged"
        ));
    }
    Ok(report)
}

/// `parallel.run_lanes.scaling`: `run_lanes` speed at the host's worker
/// count over its speed at one worker, lane construction excluded. The
/// two worker counts alternate slab by slab, so a change of host speed
/// mid-way lands on both sides of the ratio.
pub fn scaling(fix: &Fixture, ids: StreamIds, slabs: u32) -> f64 {
    let pools = [Pool::new(1), Pool::new(host::nproc())];
    let mut busy_ns = [0u64; 2];
    for index in 0..slabs {
        for (pool, busy) in pools.iter().zip(&mut busy_ns) {
            let lanes = slab(fix, ids, index, None);
            let t0 = std::time::Instant::now();
            std::hint::black_box(run_lanes(lanes, pool));
            *busy += t0.elapsed().as_nanos() as u64;
        }
    }
    busy_ns[0] as f64 / busy_ns[1].max(1) as f64
}
