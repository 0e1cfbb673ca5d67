//! `eventhit-cli` — train, persist, evaluate, and marshal from the shell.
//!
//! ```text
//! eventhit-cli tasks
//! eventhit-cli train    --task TA10 --scale 0.3 --seed 7 --out model.evht
//! eventhit-cli evaluate --task TA10 --scale 0.3 --seed 7 --model model.evht \
//!                       [--c 0.95] [--alpha 0.9]
//! eventhit-cli marshal  --task TA10 --scale 0.3 --seed 7 --model model.evht \
//!                       [--c 0.95] [--alpha 0.9]
//! eventhit-cli serve        --task TA10 --scale 0.1 --seed 7 --addr 127.0.0.1:7077 \
//!                           [--shards 4] [--workers-per-shard 2] \
//!                           [--lane exact|quantized] [--durable DIR] [--snapshot-every N] \
//!                           [--slow-log FILE] [--sampling fixed|delta:THR|adaptive:THR:MMIN]
//! eventhit-cli run-lanes    --task TA10 --scale 0.1 --seed 7 [--streams 8] \
//!                           [--lane exact|quantized] [--sampling SPEC]
//! eventhit-cli sweep-sampling --task TA10 --seed 7 [--streams 8] [--lane exact|quantized] \
//!                           [--smoke]
//! eventhit-cli bench-client --task TA10 --scale 0.1 --seed 7 --addr 127.0.0.1:7077 \
//!                           [--streams 2] [--batch 64] [--frames 2000]
//! eventhit-cli bench-fleet  --task TA10 --seed 7 [--streams 1024] [--shards 4] \
//!                           [--sessions 16] [--window 4] [--rounds 4] [--batch 64] \
//!                           [--pattern uniform|bursty] [--cap N] [--smoke]
//! eventhit-cli top          --addr 127.0.0.1:7077 [--interval-ms 1000] [--iters 0]
//! ```
//!
//! The synthetic stream is a pure function of `(task, scale, seed)`, so
//! `evaluate`/`marshal` regenerate exactly the stream the model was trained
//! against and calibrate on its calibration split. The same property makes
//! `bench-client` self-sufficient: given the server's `(task, scale, seed)`
//! it regenerates bit-identical feature rows to feed over the wire.

use std::process::exit;

use eventhit::core::ci::CiConfig;
use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::infer::score_records;
use eventhit::core::marshal::Marshaller;
use eventhit::core::metrics::miss_counts;
use eventhit::core::model_io;
use eventhit::core::pipeline::{ConformalState, Strategy};
use eventhit::core::streaming::OnlinePredictor;
use eventhit::core::tasks::{all_tasks, task};
use eventhit::core::{InferenceLane, SamplingPolicy};
use eventhit::parallel::Pool;
use eventhit::serve::{
    fleet, is_disconnected, ArrivalPattern, DurableOptions, FleetSpec, MetricsInfo, Response,
    ServeClient, ServeConfig, Server,
};
use eventhit::telemetry::Telemetry;
use std::sync::Arc;

#[derive(Debug, Clone)]
struct Args {
    task: String,
    scale: f64,
    seed: u64,
    model: Option<String>,
    out: Option<String>,
    c: f64,
    alpha: f64,
    addr: String,
    streams: u32,
    batch: usize,
    frames: usize,
    sessions: usize,
    lane: InferenceLane,
    durable: Option<String>,
    snapshot_every: u64,
    slow_log: Option<String>,
    interval_ms: u64,
    iters: u64,
    shards: u32,
    workers_per_shard: usize,
    pattern: ArrivalPattern,
    rounds: usize,
    window: usize,
    cap: u32,
    smoke: bool,
    sampling: SamplingPolicy,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            task: "TA10".into(),
            scale: 0.3,
            seed: 7,
            model: None,
            out: None,
            c: 0.95,
            alpha: 0.9,
            addr: "127.0.0.1:7077".into(),
            streams: 2,
            batch: 64,
            frames: 0,
            sessions: 0,
            lane: InferenceLane::Exact,
            durable: None,
            snapshot_every: 256,
            slow_log: None,
            interval_ms: 1000,
            iters: 0,
            shards: 1,
            workers_per_shard: 0,
            pattern: ArrivalPattern::Uniform,
            rounds: 4,
            window: 4,
            cap: 0,
            smoke: false,
            sampling: SamplingPolicy::Fixed,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: eventhit-cli <tasks|train|evaluate|marshal|serve|bench-client|bench-fleet|\
         run-lanes|sweep-sampling|top> \
         [--task TAi] [--scale F] [--seed N] [--model PATH] [--out PATH] \
         [--c F] [--alpha F] [--addr HOST:PORT] [--streams N] [--batch N] \
         [--frames N] [--sessions N] [--lane exact|quantized] \
         [--shards N] [--workers-per-shard N] \
         [--durable DIR] [--snapshot-every N] [--slow-log FILE] \
         [--interval-ms N] [--iters N] \
         [--pattern uniform|bursty] [--rounds N] [--window N] [--cap N] [--smoke] \
         [--sampling fixed|delta:THR[:HYST[:RUN]]|adaptive:THR:MMIN[:MMAX[:BETA]]]"
    );
    exit(2)
}

fn parse(it: impl Iterator<Item = String>) -> Args {
    parse_from(Args::default(), it)
}

/// Parses flags on top of `base`, letting each subcommand pick its own
/// defaults (e.g. `bench-fleet` starts from a 1024-stream fleet).
fn parse_from(base: Args, mut it: impl Iterator<Item = String>) -> Args {
    let mut args = base;
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--task" => args.task = value(),
            "--scale" => args.scale = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--model" => args.model = Some(value()),
            "--out" => args.out = Some(value()),
            "--c" => args.c = value().parse().unwrap_or_else(|_| usage()),
            "--alpha" => args.alpha = value().parse().unwrap_or_else(|_| usage()),
            "--addr" => args.addr = value(),
            "--streams" => args.streams = value().parse().unwrap_or_else(|_| usage()),
            "--batch" => args.batch = value().parse().unwrap_or_else(|_| usage()),
            "--frames" => args.frames = value().parse().unwrap_or_else(|_| usage()),
            "--sessions" => args.sessions = value().parse().unwrap_or_else(|_| usage()),
            "--lane" => args.lane = value().parse().unwrap_or_else(|_| usage()),
            "--durable" => args.durable = Some(value()),
            "--snapshot-every" => args.snapshot_every = value().parse().unwrap_or_else(|_| usage()),
            "--slow-log" => args.slow_log = Some(value()),
            "--interval-ms" => args.interval_ms = value().parse().unwrap_or_else(|_| usage()),
            "--iters" => args.iters = value().parse().unwrap_or_else(|_| usage()),
            "--shards" => args.shards = value().parse().unwrap_or_else(|_| usage()),
            "--workers-per-shard" => {
                args.workers_per_shard = value().parse().unwrap_or_else(|_| usage())
            }
            "--pattern" => {
                args.pattern = match value().as_str() {
                    "uniform" => ArrivalPattern::Uniform,
                    "bursty" => ArrivalPattern::Bursty,
                    _ => usage(),
                }
            }
            "--rounds" => args.rounds = value().parse().unwrap_or_else(|_| usage()),
            "--window" => args.window = value().parse().unwrap_or_else(|_| usage()),
            "--cap" => args.cap = value().parse().unwrap_or_else(|_| usage()),
            "--smoke" => args.smoke = true,
            "--sampling" => {
                args.sampling = SamplingPolicy::parse(&value()).unwrap_or_else(|e| {
                    eprintln!("invalid --sampling: {e}");
                    usage()
                })
            }
            _ => usage(),
        }
    }
    args
}

fn config(args: &Args) -> ExperimentConfig {
    ExperimentConfig {
        scale: args.scale,
        seed: args.seed,
        ..Default::default()
    }
}

fn cmd_tasks() {
    println!("task\tdataset\tevents\tM\tH");
    for t in all_tasks() {
        let p = t.profile();
        println!(
            "{}\t{:?}\t{}\t{}\t{}",
            t.id,
            t.dataset,
            t.events.join(","),
            p.collection_window,
            p.horizon
        );
    }
}

fn cmd_train(args: &Args) {
    let t = task(&args.task).unwrap_or_else(|| {
        eprintln!("unknown task {}", args.task);
        exit(2)
    });
    eprintln!(
        "training {} at scale {} (seed {}) ...",
        t.id, args.scale, args.seed
    );
    let run = TaskRun::execute(&t, &config(args));
    eprintln!(
        "  {} train records, final loss {:.4}, {} parameters",
        run.train_records.len(),
        run.train_report.final_loss,
        run.model.param_count()
    );
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{}.evht", t.id.to_lowercase()));
    model_io::save_to_path(&run.model, &out).unwrap_or_else(|e| {
        eprintln!("failed to write {out}: {e}");
        exit(1)
    });
    println!("model written to {out}");
}

/// Rebuilds the deterministic task context and calibrates the loaded model.
fn load_context(args: &Args) -> (TaskRun, Strategy) {
    let t = task(&args.task).unwrap_or_else(|| {
        eprintln!("unknown task {}", args.task);
        exit(2)
    });
    let model_path = args.model.clone().unwrap_or_else(|| usage());
    eprintln!(
        "regenerating {} stream (scale {}, seed {}) ...",
        t.id, args.scale, args.seed
    );
    let mut run = TaskRun::execute(&t, &config(args));
    // Replace the freshly trained model with the persisted one and
    // recalibrate against the calibration split.
    let model = model_io::load_from_path(&model_path).unwrap_or_else(|e| {
        eprintln!("failed to read {model_path}: {e}");
        exit(1)
    });
    let calib = score_records(&model, &run.calib_records, 128);
    let test = score_records(&model, &run.test_records, 128);
    run.state = ConformalState::fit(&calib, t.num_events(), 0.5, run.horizon);
    run.calib = calib;
    run.test = test;
    run.model = model;
    (
        run,
        Strategy::Ehcr {
            c: args.c,
            alpha: args.alpha,
        },
    )
}

fn cmd_evaluate(args: &Args) {
    let (run, strategy) = load_context(args);
    let o = run.evaluate(&strategy);
    let cost = run.cost(&o, &CiConfig::default());
    println!("strategy: {strategy:?}");
    println!("REC      {:.4}", o.rec);
    println!("SPL      {:.4}", o.spl);
    println!("REC_c    {:.4}", o.rec_c);
    println!("REC_r    {:.4}", o.rec_r);
    println!("frames   {}", o.frames_relayed);
    println!("expense  ${:.2}", cost.expense);
    println!("fps      {:.1}", cost.fps());
}

fn cmd_marshal(args: &Args) {
    let (run, strategy) = load_context(args);
    let stream = run.stream.clone();
    let features = run.features.clone();
    let mut m = Marshaller::new(
        run.model,
        run.state,
        strategy,
        run.window,
        run.horizon,
        CiConfig::default(),
    );
    let from = (stream.len * 3) / 4;
    let result = m
        .try_run(&stream, &features, from, stream.len)
        .expect("marshal run failed");
    println!("horizons         {}", result.horizons);
    println!("segments relayed {}", result.segments.len());
    println!("frames relayed   {}", result.cost.frames_relayed);
    println!("frame recall     {:.3}", result.frame_recall());
    println!("instance recall  {:.3}", result.instance_recall());
    println!("expense          ${:.2}", result.cost.expense);
    let (fe, pr, ci) = result.cost.stage_fractions();
    println!(
        "time split       {:.1}% features / {:.1}% predictor / {:.1}% CI",
        fe * 100.0,
        pr * 100.0,
        ci * 100.0
    );
}

/// Trains (or loads) a model and serves it over TCP: one stream lane per
/// admitted client stream, every lane cloning the same trained model and
/// conformal state.
fn cmd_serve(args: &Args) {
    let t = task(&args.task).unwrap_or_else(|| {
        eprintln!("unknown task {}", args.task);
        exit(2)
    });
    eprintln!(
        "training {} at scale {} (seed {}) before serving ...",
        t.id, args.scale, args.seed
    );
    let mut run = TaskRun::execute(&t, &config(args));
    if let Some(path) = &args.model {
        // Serve the persisted weights, recalibrated against this run's
        // calibration split — pairing a loaded model with another
        // model's conformal state would void the coverage guarantees.
        let model = model_io::load_from_path(path).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            exit(1)
        });
        let calib = score_records(&model, &run.calib_records, 128);
        run.state = ConformalState::fit(&calib, t.num_events(), 0.5, run.horizon);
        run.model = model;
    }
    // Calibrate against the scores the served lane actually produces —
    // for the quantized lane this refits the conformal quantiles on int8
    // calibration scores, and for a gating policy on the gated
    // trajectories, so the coverage guarantee transfers either way.
    let state = run.state_for_sampling(&args.sampling, args.lane);
    let (model, lane) = (run.model, args.lane);
    let strategy = Strategy::Ehcr {
        c: args.c,
        alpha: args.alpha,
    };
    let cfg = ServeConfig {
        addr: args.addr.clone(),
        shards: args.shards.max(1),
        workers_per_shard: args.workers_per_shard,
        durable: args.durable.as_ref().map(|dir| {
            let mut opts = DurableOptions::new(dir);
            opts.snapshot_every = args.snapshot_every;
            opts
        }),
        slow_log: args.slow_log.as_ref().map(Into::into),
        sampling: args.sampling.clone(),
        ..ServeConfig::default()
    };
    // A live (wall-clock) recorder so `eventhit-cli top` has windowed
    // rates, stage p99s, and SLO burn to render via MetricsQuery.
    let server = Server::bind_with_telemetry(
        cfg,
        Box::new(move |_stream_id| {
            OnlinePredictor::with_lane(model.clone(), state.clone(), strategy, lane)
        }),
        Arc::new(Telemetry::new()),
    )
    .unwrap_or_else(|e| {
        eprintln!("failed to bind {}: {e}", args.addr);
        exit(1)
    });
    let addr = server.local_addr().expect("bound listener has an address");
    println!(
        "serving {} on {addr} (dim {}, {lane} lane, {} shard{})",
        t.id,
        run.features.cols(),
        args.shards.max(1),
        if args.shards.max(1) == 1 { "" } else { "s" }
    );
    if let Some(dir) = &args.durable {
        println!(
            "durable: event-sourcing sessions into {dir} \
             (snapshot every {} events)",
            args.snapshot_every
        );
    }
    if let Some(path) = &args.slow_log {
        println!("slow log: rewriting {path} at every session end");
    }
    if !args.sampling.is_fixed() {
        println!(
            "sampling: {} (gated frames acknowledged but not encoded)",
            args.sampling.label()
        );
    }
    let pool = Pool::current();
    if args.sessions == 0 {
        server.serve_forever(&pool);
    } else {
        server.serve_sessions(args.sessions, &pool);
    }
}

/// Feeds deterministically regenerated feature rows to a running server
/// over one session with `--streams` interleaved streams, honouring
/// retry-after backpressure, and prints totals.
fn cmd_bench_client(args: &Args) {
    use eventhit::video::features::{extract, FeatureConfig};
    use eventhit::video::stream::VideoStream;

    let t = task(&args.task).unwrap_or_else(|| {
        eprintln!("unknown task {}", args.task);
        exit(2)
    });
    // The same sub-seed derivation as TaskRun::execute, so the rows match
    // the stream the server trained on without training anything here.
    let profile = t.profile().scaled(args.scale);
    let stream = VideoStream::generate(&profile, args.seed.wrapping_mul(31).wrapping_add(1));
    let features = extract(
        &stream,
        &FeatureConfig::default(),
        args.seed.wrapping_mul(37).wrapping_add(2),
    );
    let dim = features.cols() as u32;
    let rows = if args.frames == 0 {
        features.rows()
    } else {
        args.frames.min(features.rows())
    };

    let mut client = ServeClient::connect(&args.addr).unwrap_or_else(|e| {
        eprintln!("failed to connect to {}: {e}", args.addr);
        exit(1)
    });
    let limits = client.negotiated();
    eprintln!(
        "connected to {} (batch cap {}, queue cap {})",
        args.addr, limits.max_batch_frames, limits.max_queue_frames
    );
    for s in 0..args.streams {
        client
            .open_stream(s)
            .expect("open_stream I/O")
            .expect_ok("open_stream");
    }

    let mut decisions = 0u64;
    let mut retries = 0u64;
    let batch = args.batch.max(1).min(limits.max_batch_frames as usize);
    let mut at = 0usize;
    while at < rows {
        let hi = (at + batch).min(rows);
        let mut data = Vec::with_capacity((hi - at) * dim as usize);
        for r in at..hi {
            data.extend_from_slice(features.row(r));
        }
        for s in 0..args.streams {
            loop {
                let reply = client.submit(s, dim, data.clone()).unwrap_or_else(|e| {
                    if is_disconnected(&e) {
                        eprintln!(
                            "server disconnected mid-session; if it serves with \
                             --durable, restart it and resume from frame {at}"
                        );
                    } else {
                        eprintln!("submit failed: {e}");
                    }
                    exit(1)
                });
                match reply {
                    Response::Ok(ds) => {
                        decisions += ds.len() as u64;
                        break;
                    }
                    Response::Rejected(r) if r.retry_after_ms > 0 => {
                        retries += 1;
                        std::thread::sleep(std::time::Duration::from_millis(
                            r.retry_after_ms as u64,
                        ));
                    }
                    // No hint: the same batch can never succeed.
                    Response::Rejected(r) => {
                        eprintln!("submit to stream {s}: {r}");
                        exit(1)
                    }
                }
            }
        }
        at = hi;
    }
    let health = client.health().expect("health I/O");
    for s in 0..args.streams {
        let summary = client
            .close_stream(s)
            .expect("close_stream I/O")
            .expect_ok("close_stream");
        println!(
            "stream {s}: {} frames in, {} decisions out",
            summary.frames, summary.decisions
        );
    }
    println!(
        "fed {} frames x {} streams, {decisions} decisions, {retries} backpressure retries",
        rows, args.streams,
    );
    println!(
        "server totals: {} sessions, {} frames, {} decisions",
        health.sessions, health.frames, health.decisions
    );
}

/// Trains a model, binds a sharded server in-process, and drives a
/// deterministic synthetic fleet of `--streams` streams against it:
/// seeded arrival schedule (uniform or Gilbert–Elliott bursty), sliding
/// per-session admission windows, retry-after honored under a cap. After
/// the drive it re-runs every stream through the in-process `run_lanes`
/// baseline and exits non-zero if any served decision diverges. It
/// writes no file; `--smoke` shrinks training and pacing for CI.
fn cmd_bench_fleet(args: &Args) {
    use eventhit::core::multi::{run_lanes, LaneDecision, StreamLane};
    use eventhit::nn::matrix::Matrix;
    use eventhit::serve::convert::decision_from_wire;

    let t = task(&args.task).unwrap_or_else(|| {
        eprintln!("unknown task {}", args.task);
        exit(2)
    });
    let exp = if args.smoke {
        ExperimentConfig::quick(args.seed)
    } else {
        config(args)
    };
    eprintln!(
        "training {} at scale {} (seed {}) before the fleet drive ...",
        t.id, exp.scale, exp.seed
    );
    let run = TaskRun::execute(&t, &exp);
    let state = run.state_for_lane(args.lane);
    let (model, lane) = (run.model.clone(), args.lane);
    let strategy = Strategy::Ehcr {
        c: args.c,
        alpha: args.alpha,
    };
    // The shared feature pool every synthetic stream draws its rows from
    // (each stream wraps the pool from its own deterministic offset).
    let rows: Vec<Vec<f32>> = (0..run.features.rows())
        .map(|r| run.features.row(r).to_vec())
        .collect();

    let shards = args.shards.max(1);
    let spec = FleetSpec {
        streams: args.streams,
        sessions: args.sessions.max(1),
        window: args.window.max(1),
        batch: args.batch.max(1),
        rounds: if args.smoke {
            args.rounds.clamp(1, 2)
        } else {
            args.rounds.max(1)
        },
        pattern: args.pattern,
        seed: args.seed,
        slot_micros: if args.smoke { 20 } else { 100 },
        retry_cap_ms: 2,
    };
    // Undersize the cap against offered concurrency so admission rejects
    // are observable, but never below the shard count — a shard with a
    // zero-stream slice could never admit its streams.
    let cap = if args.cap > 0 {
        args.cap.max(shards)
    } else {
        ((spec.sessions * spec.window * 3 / 4) as u32).max(shards)
    };

    let (model_f, state_f) = (model.clone(), state.clone());
    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards,
            workers_per_shard: args.workers_per_shard,
            max_streams: cap,
            ..ServeConfig::default()
        },
        Box::new(move |_stream_id| {
            OnlinePredictor::with_lane(model_f.clone(), state_f.clone(), strategy, lane)
        }),
    )
    .unwrap_or_else(|e| {
        eprintln!("failed to bind fleet server: {e}");
        exit(1)
    });
    let addr = server.local_addr().expect("bound listener has an address");
    let driver_sessions = spec.sessions;
    let server_thread = std::thread::spawn(move || {
        server.serve_sessions(driver_sessions, &Pool::current());
    });

    eprintln!(
        "driving {} streams x {} frames over {} sessions \
         ({:?} arrivals, {} shard(s), cap {} streams) ...",
        spec.streams,
        spec.frames_per_stream(),
        spec.sessions,
        spec.pattern,
        shards,
        cap
    );
    let report = fleet::drive(&addr.to_string(), &rows, &spec).unwrap_or_else(|e| {
        eprintln!("fleet drive failed: {e}");
        exit(1)
    });
    server_thread.join().expect("server thread");

    // Decision-divergence check: every stream, re-run through the
    // in-process run_lanes path from identical rows. The fleet report is
    // already in run_lanes' global (anchor, stream_id) order.
    eprintln!("verifying decisions against the in-process run_lanes baseline ...");
    let frames = spec.frames_per_stream();
    let lanes: Vec<StreamLane> = (0..spec.streams)
        .map(|s| StreamLane {
            stream_id: s as usize,
            predictor: OnlinePredictor::with_lane(model.clone(), state.clone(), strategy, lane),
            features: Matrix::from_rows(
                &(0..frames)
                    .map(|r| fleet::stream_row(&rows, s, r).to_vec())
                    .collect::<Vec<_>>(),
            ),
            from: 0,
        })
        .collect();
    let baseline = run_lanes(lanes, &Pool::current());
    let served: Vec<LaneDecision> = report
        .decisions
        .iter()
        .map(|(s, d)| LaneDecision {
            stream_id: *s as usize,
            decision: decision_from_wire(d),
        })
        .collect();

    println!(
        "totals: streams_driven={} frames_sent={} decisions={} admission_rejects={} \
         retry_waited_ms={}",
        report.streams_driven,
        report.frames_sent,
        report.decisions.len(),
        report.admission_rejects,
        report.retry_waited_ms,
    );
    if served != baseline {
        eprintln!(
            "DECISION DIVERGENCE: served {} decisions, baseline {} — \
             sharded serving must be bit-identical to run_lanes",
            served.len(),
            baseline.len()
        );
        exit(1);
    }
    println!(
        "decision divergence: none ({} decisions bit-identical to run_lanes)",
        baseline.len()
    );
}

/// One in-process `run_lanes` drive: `streams` lanes over the task's
/// full feature matrix, every lane gating with `policy`.
struct LaneDrive {
    decisions: usize,
    frames: u64,
    skipped: u64,
    carried: u64,
}

impl LaneDrive {
    fn skip_rate(&self) -> f64 {
        self.skipped as f64 / self.frames.max(1) as f64
    }
}

fn drive_lanes(
    run: &TaskRun,
    state: &ConformalState,
    strategy: Strategy,
    lane: InferenceLane,
    policy: &SamplingPolicy,
    streams: u32,
    pool: &Pool,
) -> LaneDrive {
    use eventhit::core::multi::{run_lanes, StreamLane};
    let telemetry = Arc::new(Telemetry::new());
    let lanes: Vec<StreamLane> = (0..streams)
        .map(|s| {
            let mut predictor = OnlinePredictor::with_policy(
                run.model.clone(),
                state.clone(),
                strategy,
                lane,
                policy.clone(),
            );
            predictor.set_telemetry(Arc::clone(&telemetry));
            StreamLane {
                stream_id: s as usize,
                predictor,
                features: run.features.clone(),
                from: 0,
            }
        })
        .collect();
    let decisions = run_lanes(lanes, pool);
    let snap = telemetry.snapshot();
    LaneDrive {
        decisions: decisions.len(),
        frames: run.features.rows() as u64 * streams as u64,
        skipped: snap.counter_total("stream.frames_skipped"),
        carried: snap.counter_total("stream.decisions_carried"),
    }
}

/// Trains once and drives `--streams` gated lanes through the in-process
/// `run_lanes` path, printing decision and gate counts. The offline
/// twin of `serve --sampling`: same predictors, same policy, no sockets.
fn cmd_run_lanes(args: &Args) {
    let t = task(&args.task).unwrap_or_else(|| {
        eprintln!("unknown task {}", args.task);
        exit(2)
    });
    eprintln!(
        "training {} at scale {} (seed {}) before the lane drive ...",
        t.id, args.scale, args.seed
    );
    let run = TaskRun::execute(&t, &config(args));
    // Calibrate on the gated trajectories the lanes will actually see.
    let state = run.state_for_sampling(&args.sampling, args.lane);
    let strategy = Strategy::Ehcr {
        c: args.c,
        alpha: args.alpha,
    };
    let pool = Pool::current();
    let d = drive_lanes(
        &run,
        &state,
        strategy,
        args.lane,
        &args.sampling,
        args.streams,
        &pool,
    );
    println!(
        "policy {}: {} streams x {} frames on {} workers",
        args.sampling.label(),
        args.streams,
        run.features.rows(),
        pool.workers()
    );
    println!("decisions        {}", d.decisions);
    println!(
        "frames skipped   {} ({:.1}% of fed)",
        d.skipped,
        d.skip_rate() * 100.0
    );
    println!("carried          {}", d.carried);
}

/// The sampling ablation frontier, printed as a TSV on stdout: one row
/// per policy, each with the conformal state refitted on that policy's
/// gated calibration trajectories, quality evaluated on the gated test
/// split, and the gate's skip rate and carried anchors counted over a
/// `run_lanes` drive. Every column is a pure function of the arguments;
/// what a policy buys in wall-clock time is the benchmark's to say
/// (`inproc-fast` against `inproc-exact`). `--smoke` shrinks the grid
/// and the training.
fn cmd_sweep_sampling(args: &Args) {
    use eventhit::core::evaluate;
    use eventhit::core::infer::IntervalPrediction;

    let t = task(&args.task).unwrap_or_else(|| {
        eprintln!("unknown task {}", args.task);
        exit(2)
    });
    // Quality and coverage are pooled over several seeds: each seed is a
    // full train/calibrate/test run and the miss counts are summed before
    // the rate is taken, exactly as the quantized-coverage suite pools
    // its lane runs. The gate counters come from the first seed only.
    const POOLED_SEEDS: u64 = 3;
    let exps: Vec<ExperimentConfig> = (0..POOLED_SEEDS)
        .map(|i| {
            if args.smoke {
                ExperimentConfig {
                    scale: 0.4,
                    ..ExperimentConfig::quick(args.seed + i)
                }
            } else {
                ExperimentConfig {
                    seed: args.seed + i,
                    ..config(args)
                }
            }
        })
        .collect();
    eprintln!(
        "training {} at scale {} over {} seeds ({}..={}) before the sampling sweep ...",
        t.id,
        exps[0].scale,
        POOLED_SEEDS,
        args.seed,
        args.seed + POOLED_SEEDS - 1
    );
    let runs: Vec<TaskRun> = exps.iter().map(|e| TaskRun::execute(&t, e)).collect();
    let strategy = Strategy::Ehcr {
        c: args.c,
        alpha: args.alpha,
    };
    let pool = Pool::current();
    // `adaptive:0:N` is the pure query-aware-windowing point: threshold 0
    // never gates a frame or carries an anchor, so the whole effect is the
    // recurrent encoder running `m` steps instead of `M` while the stream
    // is quiet. The delta cells then chart how far the gate can be pushed
    // before coverage drifts.
    let specs: &[&str] = if args.smoke {
        &["fixed", "delta:0.01", "adaptive:0:4"]
    } else {
        &[
            "fixed",
            "delta:0.01",
            "delta:0.02",
            "delta:0.05",
            "delta:0.1",
            "delta:0.2",
            "adaptive:0:2",
            "adaptive:0:4",
            "adaptive:0.02:4",
            "adaptive:0.05:4",
        ]
    };
    let (base_misses, base_positives) = runs.iter().fold((0usize, 0usize), |(m, p), r| {
        let (mi, pi) = miss_counts(&r.state, &r.test, 0.9);
        (m + mi, p + pi)
    });
    let base_miss = base_misses as f64 / base_positives.max(1) as f64;

    println!(
        "# sweep-sampling task={} scale={} seeds={}..={} lane={} streams={} c=0.9 smoke={}",
        t.id,
        exps[0].scale,
        args.seed,
        args.seed + POOLED_SEEDS - 1,
        args.lane,
        args.streams,
        args.smoke
    );
    println!("# ungated miss@0.9={base_miss:.4} positives={base_positives}");
    println!("policy\trec\tspl\tmiss_at_0.9\tmiss_delta\tpositives\tskip_rate\tcarried");
    for spec in specs {
        let policy = SamplingPolicy::parse(spec).expect("grid specs are valid");
        // Pool quality over every seed: refit the conformal state on each
        // seed's gated calibration split, score its gated test split, and
        // sum the miss counts before taking the rate.
        let states: Vec<ConformalState> = runs
            .iter()
            .map(|r| r.state_for_sampling(&policy, args.lane))
            .collect();
        let mut misses = 0usize;
        let mut positives = 0usize;
        let mut rec_sum = 0f64;
        let mut spl_sum = 0f64;
        for (r, state) in runs.iter().zip(&states) {
            let test = r.sampled_test(&policy, args.lane);
            let preds: Vec<Vec<IntervalPrediction>> = test
                .iter()
                .map(|rec| state.predict(rec, &strategy))
                .collect();
            let outcome = evaluate(&preds, &test, r.horizon as u32);
            rec_sum += outcome.rec;
            spl_sum += outcome.spl;
            let (mi, pi) = miss_counts(state, &test, 0.9);
            misses += mi;
            positives += pi;
        }
        let miss = misses as f64 / positives.max(1) as f64;
        let d = drive_lanes(
            &runs[0],
            &states[0],
            strategy,
            args.lane,
            &policy,
            args.streams,
            &pool,
        );
        println!(
            "{}\t{:.4}\t{:.4}\t{:.4}\t{:+.4}\t{}\t{:.4}\t{}",
            policy.label(),
            rec_sum / POOLED_SEEDS as f64,
            spl_sum / POOLED_SEEDS as f64,
            miss,
            miss - base_miss,
            positives,
            d.skip_rate(),
            d.carried
        );
    }
}

/// Polls a running server's `MetricsQuery` endpoint and renders a live
/// terminal dashboard: SLO burn, per-stage p99s, per-stream ingest
/// rates, and reject counters. `--iters 0` (the default) polls until
/// interrupted; a positive `--iters` renders that many frames and exits
/// (useful for scripting and smoke tests).
fn cmd_top(args: &Args) {
    let mut client = ServeClient::connect(&args.addr).unwrap_or_else(|e| {
        eprintln!("failed to connect to {}: {e}", args.addr);
        exit(1)
    });
    let mut rendered = 0u64;
    loop {
        let m = client.metrics().unwrap_or_else(|e| {
            if is_disconnected(&e) {
                eprintln!("server disconnected");
            } else {
                eprintln!("metrics query failed: {e}");
            }
            exit(1)
        });
        render_top(&args.addr, &m);
        rendered += 1;
        if args.iters != 0 && rendered >= args.iters {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(args.interval_ms.max(1)));
    }
}

/// One `top` frame: clear the terminal and redraw from a `MetricsReply`.
fn render_top(addr: &str, m: &MetricsInfo) {
    print!("\x1b[2J\x1b[H");
    println!(
        "eventhit top — {addr} @ clock {:.1}s (windows of {:.0} ms)",
        m.clock_now,
        m.window_secs * 1000.0
    );
    println!();
    if m.slos.is_empty() {
        println!("SLOs: none registered (server running without telemetry?)");
    }
    for slo in &m.slos {
        let label = if slo.label.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", slo.label)
        };
        println!(
            "SLO {}{}: p99 < {:.0} ms @ {:.1}% — {} served, {} violations, burn {:.2}x",
            slo.name,
            label,
            slo.threshold * 1000.0,
            slo.objective * 100.0,
            slo.total,
            slo.violations,
            slo.burn_rate()
        );
    }
    println!();
    println!("stage p99 (latest window):");
    let mut any_stage = false;
    for series in &m.series {
        if series.name != "serve.stage_seconds" && series.name != "stream.stage_seconds" {
            continue;
        }
        if let Some(w) = series.windows.last() {
            any_stage = true;
            println!(
                "  {:<14} {:>10.1} us  ({} samples)",
                series.label,
                w.p99 * 1e6,
                w.count
            );
        }
    }
    if !any_stage {
        println!("  (no decisions yet)");
    }
    println!();
    println!("streams (latest-window ingest):");
    let mut any_stream = false;
    for series in &m.series {
        if series.name != "serve.stream_frames" {
            continue;
        }
        if let Some(w) = series.windows.last() {
            any_stream = true;
            println!(
                "  stream {:<6} {:>9.1} frames/s  ({} batches)",
                series.label,
                w.sum / m.window_secs.max(1e-9),
                w.count
            );
        }
    }
    if !any_stream {
        println!("  (no frames yet)");
    }
    println!();
    let rejects: Vec<_> = m
        .counters
        .iter()
        .filter(|c| c.name == "serve.rejected")
        .collect();
    if rejects.is_empty() {
        println!("rejects: none");
    } else {
        println!("rejects:");
        for c in rejects {
            println!("  {:<16} {}", c.label, c.value);
        }
    }
    let total = |name: &str| {
        m.counters
            .iter()
            .find(|c| c.name == name && c.label.is_empty())
            .map_or(0, |c| c.value)
    };
    println!();
    println!(
        "totals: {} sessions, {} frames, {} decisions",
        total("serve.sessions"),
        total("serve.frames"),
        total("serve.decisions")
    );
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else { usage() };
    match cmd.as_str() {
        "tasks" => cmd_tasks(),
        "train" => cmd_train(&parse(argv)),
        "evaluate" => cmd_evaluate(&parse(argv)),
        "marshal" => cmd_marshal(&parse(argv)),
        "serve" => cmd_serve(&parse(argv)),
        "bench-client" => cmd_bench_client(&parse(argv)),
        "bench-fleet" => cmd_bench_fleet(&parse_from(
            Args {
                streams: 1024,
                sessions: 16,
                ..Args::default()
            },
            argv,
        )),
        "run-lanes" => cmd_run_lanes(&parse_from(
            Args {
                streams: 8,
                ..Args::default()
            },
            argv,
        )),
        "sweep-sampling" => cmd_sweep_sampling(&parse_from(
            Args {
                streams: 8,
                scale: 0.2,
                ..Args::default()
            },
            argv,
        )),
        "top" => cmd_top(&parse(argv)),
        "--help" | "-h" | "help" => usage(),
        _ => usage(),
    }
}
