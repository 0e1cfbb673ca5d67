//! The open-loop workload (`paced`): 256 open streams multiplexed over
//! the connections, one frame per submit, every submit due on a fixed
//! schedule and timed from its due time. The untraced run holds one
//! offered rate for the whole run; the traced run climbs the ladder of
//! rates and reports the highest one the system sustains.

use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Barrier;

use eventhit_serve::{ServeClient, Server};

use crate::fixture::{Fixture, StreamIds};
use crate::host;
use crate::json::Json;
use crate::loopback::{
    accepted, connections, sample_run, serving_detail, verify, ClientCalls, ServerView, Serving,
    Shared, StreamLog,
};
use crate::pace::{run_schedule, tighten_timer_slack, Clock, OpTiming, Schedule, WallClock};
use crate::report::{Phase, Plan, RunReport};
use crate::span::SpanLog;
use crate::spec::{PACED_BASE_RATE, PACED_RATES};
use crate::stats;

/// Streams held open across all connections: a working set well past L2.
pub const STREAMS: u32 = 256;
/// A step is sustained when its p99 from due time stays within this.
pub const SUSTAINED_P99_NS: u64 = 5_000_000;
/// … and the generator's own p99 lateness within this.
pub const SUSTAINED_LATENESS_NS: u64 = 1_000_000;
/// How long after a step's last due time the generator keeps trying to
/// send what it still owes; whatever is left then counts as unsent.
pub const GRACE_NS: u64 = 1_000_000_000;
/// Pause between the streams being open and the first due time.
const LEAD_IN_NS: u64 = 5_000_000;

/// One step of offered load.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Total offered rate over all connections, frames per second.
    rate: u32,
    /// How long the step offers load.
    duration_ns: u64,
    /// How long after the last due time the generator keeps catching up.
    grace_ns: u64,
    /// Whether harness spans are recorded for this step's submits.
    spans: bool,
}

impl Step {
    /// A step filling a slot of `slot_ns`: load for the first part, the
    /// last quarter (at most [`GRACE_NS`]) left for catching up, so the
    /// next step starts on an idle system.
    fn in_slot(rate: u32, slot_ns: u64, spans: bool) -> Step {
        let grace_ns = GRACE_NS.min(slot_ns / 4);
        Step {
            rate,
            duration_ns: slot_ns - grace_ns,
            grace_ns,
            spans,
        }
    }

    fn slot_ns(&self) -> u64 {
        self.duration_ns + self.grace_ns
    }
}

/// What one step did on one connection.
struct StepOutcome {
    ops: Vec<OpTiming>,
    scheduled: u64,
}

struct ClientOutcome {
    streams: Vec<StreamLog>,
    steps: Vec<StepOutcome>,
    spans: SpanLog,
    calls: ClientCalls,
}

#[allow(clippy::too_many_arguments)] // one call site; the arguments are the thread's whole world
fn drive_connection(
    fix: &Fixture,
    ids: StreamIds,
    steps: &[Step],
    addr: SocketAddr,
    conn: usize,
    conns: usize,
    traced: bool,
    shared: &Shared,
    opened: &Barrier,
) -> Result<ClientOutcome, String> {
    let clock = WallClock::from_origin(shared.origin);
    let dim = fix.dim as u32;
    let t0 = clock.now_ns();
    let connected = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"));
    let mut calls = ClientCalls {
        connect_us: vec![(clock.now_ns() - t0) as f64 / 1e3],
        ..ClientCalls::default()
    };
    let opened_streams = connected.and_then(|mut client| {
        let mut streams = Vec::new();
        for i in (conn as u32..STREAMS).step_by(conns) {
            let id = ids.id(i);
            let t = clock.now_ns();
            accepted("open_stream", client.open_stream(id))?;
            calls.open_us.push((clock.now_ns() - t) as f64 / 1e3);
            streams.push(StreamLog {
                id,
                frames: 0,
                decisions: Vec::new(),
                closed: false,
            });
        }
        // Independent cameras are not in phase. Fed in lockstep from frame
        // 0, every stream would reach its anchor in the same round and the
        // schedule would stall once per horizon; a pre-feed of j*H/n frames
        // spreads the anchors evenly over the horizon instead.
        let n = streams.len();
        for (j, s) in streams.iter_mut().enumerate() {
            let lead = j * fix.horizon / n;
            if lead > 0 {
                let mut data = Vec::with_capacity(lead * fix.dim);
                fix.fill_rows(s.id, 0, lead, &mut data);
                s.decisions
                    .extend(accepted("pre-feed", client.submit(s.id, dim, data))?);
                s.frames = lead;
            }
        }
        Ok((client, streams))
    });
    // Both sides of the barrier must be reached even on failure, or the
    // main thread would wait forever for a client that already gave up.
    opened.wait();
    opened.wait();
    let (mut client, mut streams) = opened_streams?;
    let start_ns = shared.start_ns.load(Ordering::SeqCst);

    let mut out = ClientOutcome {
        streams: Vec::new(),
        steps: Vec::new(),
        spans: SpanLog::default(),
        calls,
    };
    let mut sent = 0u64;
    let mut step_start = start_ns;
    let mut failure = None;
    for (k, step) in steps.iter().enumerate() {
        // The connections take turns: connection c is due c gaps of the
        // total rate after connection 0, so the frames of all of them
        // together arrive evenly spaced, not in bursts of one per
        // connection.
        let turn_ns = (conn as f64 * 1e9 / f64::from(step.rate)) as u64;
        let schedule = Schedule::at_rate(
            step_start + turn_ns,
            f64::from(step.rate) / conns as f64,
            step.duration_ns,
            step.grace_ns,
        );
        let ops = run_schedule(&clock, &schedule, |_| {
            if failure.is_some() {
                return;
            }
            let slot = (sent % streams.len() as u64) as usize;
            let s = &mut streams[slot];
            let trace = (u64::from(s.id) << 32) | s.frames as u64;
            let t_op = clock.now_ns();
            let mut data = Vec::with_capacity(fix.dim);
            fix.fill_rows(s.id, s.frames, 1, &mut data);
            let t_send = clock.now_ns();
            let reply = if traced {
                client.submit_traced(s.id, trace, dim, data)
            } else {
                client.submit(s.id, dim, data)
            };
            let t_done = clock.now_ns();
            match accepted("submit", reply) {
                Ok(decisions) => s.decisions.extend(decisions),
                Err(e) => {
                    failure = Some(e);
                    return;
                }
            }
            s.frames += 1;
            sent += 1;
            shared.frames_done.fetch_add(1, Ordering::Relaxed);
            if step.spans {
                let op = out.spans.record("op", None, trace, t_op, clock.now_ns());
                out.spans
                    .record("serve.client.gen_rows", Some(op), trace, t_op, t_send);
                out.spans
                    .record("serve.client.submit", Some(op), trace, t_send, t_done);
            }
        });
        if let Some(e) = failure.take() {
            return Err(e);
        }
        out.steps.push(StepOutcome {
            ops,
            scheduled: schedule.count,
        });
        // Every connection derives the same step boundaries from the
        // shared start, so the steps stay aligned across connections.
        step_start += step.slot_ns();
        if k + 1 < steps.len() {
            clock.sleep_until(step_start);
        }
    }
    if traced && conn == 0 {
        out.calls.server = Some(ServerView::ask(&mut client, &clock)?);
    }
    for mut s in streams {
        let t = clock.now_ns();
        accepted("close_stream", client.close_stream(s.id))?;
        out.calls.close_us.push((clock.now_ns() - t) as f64 / 1e3);
        s.closed = true;
        out.streams.push(s);
    }
    Ok(out)
}

/// Percentile of a latency sample in microseconds.
fn percentile_us(values_ns: &mut [f64], q: f64) -> f64 {
    stats::sort(values_ns);
    stats::quantile_sorted(values_ns, q) / 1e3
}

/// Runs the workload against `server` (bound during set-up), all of it
/// on one core. Between messages every thread of an open loop is asleep,
/// and left alone the scheduler puts a generator and its session thread
/// now on one core (a context switch per message) and now on two (an
/// inter-processor interrupt and an idle exit per message, tens of
/// microseconds on a virtual machine): the median latency read 33 or 45
/// or 60 us from run to run and flipped inside runs. On one core it is
/// the software's own per-message cost and repeats within 2%.
pub fn run(
    fix: &Fixture,
    ids: StreamIds,
    plan: &Plan,
    traced: bool,
    server: Server,
) -> Result<RunReport, String> {
    // On the main thread, before any other is spawned: threads inherit
    // the slack of the thread that spawns them.
    let tight_timers = tighten_timer_slack();
    // Counted before the pin, under which the process sees one core.
    let conns = connections();
    // A thread of its own takes the pin and hands it to every thread the
    // run spawns; the caller's thread keeps the whole machine.
    std::thread::scope(|scope| {
        scope
            .spawn(move || {
                let pinned = host::pin_to_first_cpu();
                let mut report = run_here(fix, ids, plan, traced, server, conns)?;
                report.detail.extend([
                    ("pinned_to_one_core".to_string(), Json::Bool(pinned)),
                    (
                        "generator_timer_slack_tightened".to_string(),
                        Json::Bool(tight_timers),
                    ),
                ]);
                Ok(report)
            })
            .join()
            .unwrap_or_else(|_| Err("the paced run panicked".into()))
    })
}

fn run_here(
    fix: &Fixture,
    ids: StreamIds,
    plan: &Plan,
    traced: bool,
    server: Server,
    conns: usize,
) -> Result<RunReport, String> {
    // Untraced: one step at the base rate covering warm-up and measured
    // time. Traced: the ladder, the measured time split evenly into one
    // slot per rate, behind a warm-up slot at the base rate.
    let steps: Vec<Step> = if traced {
        std::iter::once(Step::in_slot(PACED_BASE_RATE, plan.warmup_ns, false))
            .chain(PACED_RATES.iter().enumerate().map(|(k, &rate)| {
                Step::in_slot(rate, plan.measure_ns / PACED_RATES.len() as u64, k == 0)
            }))
            .collect()
    } else {
        vec![Step {
            rate: PACED_BASE_RATE,
            duration_ns: plan.warmup_ns + plan.measure_ns,
            grace_ns: GRACE_NS,
            spans: false,
        }]
    };
    // Sample boundaries, relative to the first due time. Untraced: the
    // plan's segments. Traced: the two ends of the base-rate step, so the
    // traced frames/s and CPU describe the same load as the untraced run.
    let boundaries = if traced {
        vec![
            steps[0].slot_ns(),
            steps[0].slot_ns() + steps[1].duration_ns,
        ]
    } else {
        plan.boundaries()
    };

    let serving = Serving::start(server, conns).map_err(|e| format!("serve: {e}"))?;
    let shared = Shared::new();
    let opened = Barrier::new(conns + 1);
    let mut report = RunReport {
        cores: 1.0,
        rate_is_offered: true,
        ..RunReport::default()
    };
    let outcomes: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                let (shared, opened, steps, addr) = (&shared, &opened, &steps, serving.addr);
                scope.spawn(move || {
                    drive_connection(fix, ids, steps, addr, conn, conns, traced, shared, opened)
                })
            })
            .collect();
        // Streams open first; the schedule starts only once all are.
        opened.wait();
        let clock = WallClock::from_origin(shared.origin);
        let start_ns = clock.now_ns() + LEAD_IN_NS;
        shared.start_ns.store(start_ns, Ordering::SeqCst);
        opened.wait();
        sample_run(&shared, start_ns, &boundaries, true, &mut report);
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect()
    });
    serving.finish()?;

    let measured_from = report.samples.first().map_or(0, |s| s.at_ns);
    let mut streams = Vec::new();
    let mut per_step: Vec<(Vec<OpTiming>, u64)> = steps.iter().map(|_| (Vec::new(), 0)).collect();
    let mut calls = ClientCalls::default();
    for outcome in outcomes {
        let o = outcome?;
        for (k, step) in o.steps.into_iter().enumerate() {
            per_step[k].0.extend(step.ops);
            per_step[k].1 += step.scheduled;
        }
        streams.extend(o.streams);
        report.spans.absorb(o.spans);
        calls.absorb(o.calls);
    }

    // The measured sample: for the untraced run, every operation due
    // after the warm-up; for the ladder, the base-rate step.
    let base_step = usize::from(traced);
    let base: Vec<&OpTiming> = per_step[base_step]
        .0
        .iter()
        .filter(|op| traced || op.due_ns >= measured_from)
        .collect();
    report.ops = base
        .iter()
        .map(|op| (op.due_ns, op.latency_from_due_ns() as f64))
        .collect();
    let mut lateness: Vec<f64> = base.iter().map(|op| op.lateness_ns() as f64).collect();
    let lateness_p50 = percentile_us(&mut lateness, 0.5);
    let lateness_p99 = percentile_us(&mut lateness, 0.99);
    let mut from_due: Vec<f64> = report.ops.iter().map(|&(_, l)| l).collect();
    let p999 = percentile_us(&mut from_due, 0.999);

    let mut sustained = 0u32;
    let mut still_sustaining = true;
    for (k, step) in steps.iter().enumerate() {
        let (ops, scheduled) = &per_step[k];
        let unsent = scheduled - ops.len() as u64;
        let warm_up = traced && k == 0;
        report.phases.push(Phase {
            name: if warm_up {
                "warm-up"
            } else if traced {
                "ladder step"
            } else {
                "paced"
            },
            attempted: *scheduled,
            // Overload on the upper ladder steps is the measurement, not
            // a failure, and a cold start may cost the ladder's warm-up
            // step a few frames; at the base rate otherwise nothing may
            // be left unsent.
            failed: if step.rate == PACED_BASE_RATE && !warm_up {
                unsent
            } else {
                0
            },
        });
        if !traced || warm_up {
            continue;
        }
        let mut lat: Vec<f64> = ops
            .iter()
            .map(|op| op.latency_from_due_ns() as f64)
            .collect();
        let mut late: Vec<f64> = ops.iter().map(|op| op.lateness_ns() as f64).collect();
        let p99_us = percentile_us(&mut lat, 0.99);
        let late_p99_us = percentile_us(&mut late, 0.99);
        let ok = unsent == 0
            && p99_us * 1e3 <= SUSTAINED_P99_NS as f64
            && late_p99_us * 1e3 <= SUSTAINED_LATENESS_NS as f64;
        // The sustained rate is the top of the unbroken run of good
        // steps: a higher step passing by luck after a failed one does
        // not count.
        still_sustaining &= ok;
        if still_sustaining {
            sustained = step.rate;
        }
        let name = step.rate / 1000;
        report
            .layer
            .insert(format!("paced.step{name}k.p99_us"), p99_us);
        report
            .layer
            .insert(format!("paced.step{name}k.unsent"), unsent as f64);
    }
    if report.failed() > 0 {
        return Err(format!(
            "{} frame(s) never sent at the base rate of {PACED_BASE_RATE} frames/s",
            report.failed()
        ));
    }
    let checked = verify(fix, &streams)?;
    report.phases.push(Phase {
        name: "verify",
        attempted: checked,
        failed: 0,
    });

    let frames = shared.frames_done.load(Ordering::SeqCst);
    report.layer.extend([
        ("paced.sustained_rate".to_string(), f64::from(sustained)),
        ("paced.latency_p999_us".to_string(), p999),
        ("paced.lateness_p50_us".to_string(), lateness_p50),
        ("paced.lateness_p99_us".to_string(), lateness_p99),
    ]);
    report.layer.extend(calls.layer_metrics(frames));
    report
        .detail
        .extend(serving_detail(conns, frames, streams.len(), checked));
    report.detail.extend([
        (
            "offered_rate".to_string(),
            Json::Num(f64::from(PACED_BASE_RATE)),
        ),
        (
            "generator_lateness_p50_us".to_string(),
            Json::Num(lateness_p50),
        ),
        (
            "generator_lateness_p99_us".to_string(),
            Json::Num(lateness_p99),
        ),
    ]);
    Ok(report)
}
