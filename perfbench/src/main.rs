//! The repository benchmark: one workload per invocation.
//!
//! ```text
//! lahd-perfbench --workload NAME --seed N --seconds S --trace 0|1 --lahd PATH
//!                [--source ID] [--commit REV]
//! ```
//!
//! Runs in a scratch working directory (`run.py` builds both binaries and
//! switches there). Every invocation first builds the serve bundle with the
//! short-budget pipeline in-process, then drives a separate `lahd serve`
//! process over its Unix socket through warm-up, a low-rate open-loop
//! phase, half of the closed-loop capacity phase, a high-rate open-loop
//! phase, the other half, and an untimed verification phase of walks
//! through the machine; every answer is checked against an in-process
//! replay. The last stdout line is the JSON result: end-to-end metrics with
//! `--trace 0`, per-layer metrics from the traced run with `--trace 1`.

mod client;
mod layers;
mod pipeline;
mod stats;
mod traffic;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lahd_core::{load_artifacts_checked, save_artifacts, Args, PipelineConfig};
use lahd_guard::out_of_band;
use lahd_serve::persist::recover_shard;
use lahd_serve::{
    shard_of, write_frame, CompactStream, Request, ServeBundle, REC_BYTES, TIER_BASELINE, TIER_FSM,
};

use client::{closed_loop, open_loop, vm_hwm_mb, Daemon, PhaseResult, Stats, Stop};
use stats::{median, p50_p99, window_rates, windowed_p99, Quantile, Tally};
use traffic::{Pattern, Traffic, Zipf};

const ARTS: &str = "arts";
/// Where a daemon keeps its socket, its log and, on serve-fleet, its state.
struct Place {
    socket: &'static str,
    log: &'static str,
    state: &'static str,
}
/// The daemon that serves the run.
const MAIN: Place = Place {
    socket: "serve.sock",
    log: "daemon.log",
    state: "state",
};
/// Daemons spawned only to time set-up, while the serving one idles.
const SIDE: Place = Place {
    socket: "setup.sock",
    log: "setup-daemon.log",
    state: "setup-state",
};
/// Set-up rounds per run: at the start, after warm-up and after each timed
/// phase, and at the end. `setup_s` is the median over all of them, so it
/// stands for the whole run, not for one moment of a shared host.
const SETUP_ROUNDS: usize = 7;
/// First stream key of the verification phase's walks, outside every
/// workload's keys and the set-up probe's.
const CHECK_STREAMS_FROM: u64 = 1 << 42;
/// Verification walks and their length: below the first audit of a
/// stream at the default `--audit-every`, so every walk stays compact.
const CHECK_STREAMS: usize = 16;
const CHECK_STEPS: usize = 512;
/// The out-of-band test's Tukey fence, as the daemon's triage uses it.
const TUKEY_K: f64 = 3.0;
/// Streams of the round-robin workloads.
const STREAMS: u64 = 1024;
/// Streams of serve-fleet.
const FLEET: u64 = 1_000_000;
const ZIPF_S: f64 = 0.9;
/// Observation seed of the fleet fixture (fixed: the population is the
/// same for every run seed).
const FIXTURE_SEED: u64 = 0xF1EE7;
/// Requests outstanding in closed-loop phases: below the daemon's queue
/// slots, so admission cannot shed by construction.
const WINDOW: usize = 64;
/// serve-fleet: shard ticks between checkpoints, so that several land in
/// the timed phases while stalls stay under a third of the capacity
/// phases' windows.
const FLEET_CHECKPOINT_EVERY: &str = "32768";
/// Window of the closed-loop throughput median.
const CAPACITY_WINDOW_NS: u64 = 100_000_000;
/// Queue slots per shard on every serve workload: deep enough that a
/// host scheduling stall of a few milliseconds, or a serve-fleet
/// checkpoint, shows as latency instead of shedding (the default 64 sheds
/// at 25k/s on a 2-vCPU virtual machine).
const QUEUE: &str = "8192";
/// serve-fleet: the table must hold the whole recovered population.
const FLEET_MAX_STREAMS: &str = "1048576";
/// Shares of `--seconds` spent in the low, high and capacity phases (the
/// capacity share split in two halves).
const PHASE_SHARE: [f64; 3] = [0.4, 0.3, 0.3];

/// Per-layer metrics: name, unit, the end-to-end metric it should move,
/// and where it should show.
const LAYERS: &[(&str, &str, &str, &str)] = &[
    (
        "client.gen_lag_p50_us",
        "us",
        "validity only",
        "well below p50_us.low on every serve workload",
    ),
    (
        "client.gen_lag_p99_us",
        "us",
        "validity only",
        "well below p99_us.low on every serve workload",
    ),
    (
        "protocol.codec_ns",
        "ns",
        "p50_us.low, capacity_dps",
        "serve-steady; negligible share of serve-drift",
    ),
    (
        "protocol.hop_us",
        "us",
        "p50_us.low, capacity_dps",
        "serve-steady; negligible share of serve-drift",
    ),
    (
        "daemon.outside_shard_us",
        "us",
        "p50_us.*, p99_us.high",
        "serve-steady first",
    ),
    (
        "daemon.queue_full_per_k",
        "1/1000",
        "p99_us.high, failed",
        "serve-steady first",
    ),
    (
        "daemon.shed_per_k",
        "1/1000",
        "failed",
        "serve-steady first",
    ),
    (
        "shard.p50_us",
        "us",
        "p50_us.*, capacity_dps",
        "all serve workloads (bucketed, cumulative)",
    ),
    (
        "shard.p99_us",
        "us",
        "p99_us.*",
        "all serve workloads (bucketed, cumulative)",
    ),
    (
        "shard.tier_share.fsm",
        "fraction",
        "p50_us.*, capacity_dps",
        "all serve workloads",
    ),
    (
        "shard.tier_share.quant",
        "fraction",
        "p50_us.*, capacity_dps",
        "all serve workloads",
    ),
    (
        "shard.tier_share.exact",
        "fraction",
        "p50_us.*, capacity_dps",
        "all serve workloads",
    ),
    (
        "shard.tier_share.baseline",
        "fraction",
        "p50_us.*, capacity_dps",
        "all serve workloads",
    ),
    (
        "shard.materializations_per_k",
        "1/1000",
        "p50_us.*, capacity_dps",
        "all serve workloads",
    ),
    (
        "fsm.step_batch_ns",
        "ns",
        "capacity_dps",
        "serve-steady, under 1% of p50_us.low",
    ),
    (
        "fsm.unseen_share",
        "fraction",
        "capacity_dps",
        "serve-steady",
    ),
    (
        "guard.act_ns",
        "ns",
        "capacity_dps, p99_us.high",
        "serve-drift; no change on serve-steady",
    ),
    (
        "rl.infer_quant_ns",
        "ns",
        "capacity_dps, p99_us.high",
        "serve-drift; no change on serve-steady",
    ),
    (
        "rl.infer_exact_ns",
        "ns",
        "capacity_dps, p99_us.high",
        "serve-drift; no change on serve-steady",
    ),
    (
        "stream_table.lookup_ns",
        "ns",
        "p50_us.*, capacity_dps",
        "serve-fleet; no change on serve-steady",
    ),
    (
        "compact.wake_ns",
        "ns",
        "p50_us.*, capacity_dps",
        "serve-fleet; no change on serve-steady",
    ),
    (
        "compact.hibernate_ns",
        "ns",
        "p50_us.*, capacity_dps",
        "serve-fleet; no change on serve-steady",
    ),
    (
        "shard.wakes_per_k",
        "1/1000",
        "p50_us.*, capacity_dps",
        "serve-fleet; no change on serve-steady",
    ),
    (
        "shard.hibernates_per_k",
        "1/1000",
        "p50_us.*, capacity_dps",
        "serve-fleet; no change on serve-steady",
    ),
    (
        "persist.checkpoint_ms",
        "ms",
        "p99_us.*, failed",
        "serve-fleet only (the only state dir)",
    ),
    (
        "persist.recover_ms",
        "ms",
        "setup_s",
        "serve-fleet only (the only state dir)",
    ),
    (
        "persist.checkpoints_per_phase",
        "count",
        "p99_us.*, failed",
        "serve-fleet only (the only state dir)",
    ),
    (
        "bundle.load_ms",
        "ms",
        "setup_s",
        "serve-steady, serve-drift",
    ),
    (
        "pipeline.traces_s",
        "s",
        "pipeline_s",
        "pipeline; no change on serve metrics",
    ),
    (
        "pipeline.train_s",
        "s",
        "pipeline_s",
        "pipeline; no change on serve metrics",
    ),
    (
        "pipeline.collect_s",
        "s",
        "pipeline_s",
        "pipeline; no change on serve metrics",
    ),
    (
        "pipeline.qbn_fit_s",
        "s",
        "pipeline_s",
        "pipeline; no change on serve metrics",
    ),
    (
        "pipeline.finetune_s",
        "s",
        "pipeline_s",
        "pipeline; no change on serve metrics",
    ),
    (
        "pipeline.qcollect_s",
        "s",
        "pipeline_s",
        "pipeline; no change on serve metrics",
    ),
    (
        "pipeline.extract_s",
        "s",
        "pipeline_s",
        "pipeline; no change on serve metrics",
    ),
    ("pipeline.fsm_states", "count", "pipeline_s", "pipeline"),
    ("pipeline.dataset_rows", "count", "pipeline_s", "pipeline"),
];

/// End-to-end metrics the result line carries, every workload: name and
/// unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_us.low", "us"),
    ("capacity_dps", "1/s"),
    ("rss_mb", "MiB"),
    ("pipeline_s", "s"),
];

/// End-to-end figures printed but left out of the result line. On a
/// 2-vCPU shared virtual machine their spread over ten seeds (quartile
/// distance over median) reached 0.45 (`p50_us.high`) and 0.9
/// (`p99_us.high`, serve-drift), beyond the largest bound a gated metric
/// may have; `p99_us.low` is set by the host's scheduling stalls.
const PRINTED_ONLY: &[(&str, &str)] = &[
    ("p99_us.low", "us"),
    ("p50_us.high", "us"),
    ("p99_us.high", "us"),
];

/// Which traffic and which checks a workload runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Steady,
    Drift,
    Fleet,
    /// Measures the pipeline itself, then serves its bundle with
    /// serve-steady traffic.
    Pipeline,
}

/// What distinguishes the workloads.
struct Spec {
    name: &'static str,
    kind: Kind,
    /// Open-loop rates, requests per second.
    low: f64,
    high: f64,
    /// Set-ups timed per round for `setup_s`: daemon spawns, or on the
    /// pipeline workload its in-process set-up.
    setups: usize,
    /// Extra `lahd serve` flags.
    flags: &'static [&'static str],
}

const SPECS: &[Spec] = &[
    Spec {
        name: "serve-steady",
        kind: Kind::Steady,
        low: 10_000.0,
        high: 50_000.0,
        setups: 3,
        flags: &["--audit-every", "0"],
    },
    Spec {
        name: "serve-drift",
        kind: Kind::Drift,
        low: 10_000.0,
        high: 25_000.0,
        setups: 3,
        flags: &[],
    },
    Spec {
        name: "serve-fleet",
        kind: Kind::Fleet,
        low: 10_000.0,
        high: 25_000.0,
        setups: 2,
        // Plus `--state-dir <dir> --recover`, per daemon.
        flags: &[
            "--audit-every",
            "0",
            "--max-streams",
            FLEET_MAX_STREAMS,
            "--checkpoint-every",
            FLEET_CHECKPOINT_EVERY,
        ],
    },
    // The pipeline workload's serve phases run the daemon at its defaults
    // (but for the deep queue) over the bundle the pipeline just built,
    // with serve-steady traffic.
    Spec {
        name: "pipeline",
        kind: Kind::Pipeline,
        low: 10_000.0,
        high: 50_000.0,
        setups: 15,
        flags: &[],
    },
];

fn main() {
    let args = Args::from_env();
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Metric values and the problems that make a run incorrect.
#[derive(Default)]
struct Report {
    values: HashMap<&'static str, f64>,
    problems: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            println!("CHECK FAILED: {msg}");
            self.problems.push(msg);
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let spec = SPECS.iter().find(|s| s.name == name).ok_or_else(|| {
        let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let seed = args.get_u64("seed", 1);
    let seconds = args.get_f64("seconds", 10.0);
    let trace = args.get_u64("trace", 0) == 1;
    let lahd = PathBuf::from(args.get("lahd").ok_or("--lahd is required")?);
    let source: String = args
        .get("source")
        .unwrap_or("unknown")
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '-')
        .collect();
    println!(
        "run: workload={} seed={seed} seconds={seconds} trace={} commit={} source={source} \
         cpu={:?} nproc={}",
        spec.name,
        trace as u8,
        args.get("commit").unwrap_or("none"),
        cpu_model(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut rep = Report::default();

    // The serve bundle: the short-budget pipeline, built in-process.
    let cfg = pipeline::short_budget();
    let built = if trace {
        pipeline::run_staged(&cfg)
    } else {
        pipeline::run_timed(&cfg)
    };
    let pipeline_rss = vm_hwm_mb("/proc/self/status");
    save_artifacts(&built.artifacts, Path::new(ARTS)).map_err(|e| format!("save: {e}"))?;
    let serve_cfg = PipelineConfig::paper();
    load_artifacts_checked(&serve_cfg, Path::new(ARTS))
        .map_err(|e| format!("artifacts do not reload: {e}"))?;
    let bundle = ServeBundle::load(&serve_cfg, Path::new(ARTS))?;
    rep.check(bundle.compiled.is_some(), || {
        "the extracted machine did not lower to the compiled tier".into()
    });
    let digest = artifact_digest(Path::new(ARTS))?;
    check_digest(&source, digest, &mut rep);
    println!(
        "pipeline: {:.3} s, {} states ({} raw), {} dataset rows, artifact digest {digest:016x}",
        built.total_s,
        built.artifacts.fsm.num_states(),
        built.artifacts.raw_states,
        built.artifacts.dataset_len
    );
    rep.set("pipeline_s", built.total_s);
    if let Some(stages) = built.stages {
        for (name, s) in pipeline::STAGES.into_iter().zip(stages) {
            rep.set(name, s);
        }
    }
    rep.set(
        "pipeline.fsm_states",
        built.artifacts.fsm.num_states() as f64,
    );
    rep.set("pipeline.dataset_rows", built.artifacts.dataset_len as f64);
    if spec.kind == Kind::Pipeline {
        rep.set("rss_mb", pipeline_rss);
    }
    let pool = pipeline::dataset_observations(&cfg, &built.artifacts);
    drop(built);
    let checks = check_walks(&bundle, pool, seed);

    let run = Run {
        spec,
        seed,
        seconds,
        trace,
        lahd: &lahd,
        cfg: &cfg,
        serve_cfg: &serve_cfg,
        bundle: &bundle,
        fixture_key: format!("{source}-{digest:016x}"),
    };
    serve(&run, checks, &mut rep)?;
    finish(spec, trace, rep)
}

/// Verification traffic: walks through the served machine over the
/// observations of its own dataset (empty without a compiled machine; the
/// run then fails its compiled-tier check).
fn check_walks(bundle: &ServeBundle, pool: Vec<Vec<f32>>, seed: u64) -> Vec<(u64, Vec<f32>)> {
    let Some(compiled) = bundle.compiled.as_deref() else {
        return Vec::new();
    };
    let band = bundle.baseline.tukey_band(TUKEY_K);
    let oob: Vec<bool> = pool.iter().map(|o| out_of_band(o, &band)).collect();
    traffic::machine_walks(
        compiled,
        &pool,
        &oob,
        seed,
        CHECK_STREAMS,
        CHECK_STEPS,
        CHECK_STREAMS_FROM,
    )
}

/// One invocation's fixed inputs.
struct Run<'a> {
    spec: &'a Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    lahd: &'a Path,
    /// The short-budget pipeline configuration (the pipeline's set-up).
    cfg: &'a PipelineConfig,
    /// The configuration the daemon serves with.
    serve_cfg: &'a PipelineConfig,
    bundle: &'a ServeBundle,
    /// Names the serve-fleet fixture: the sources that built the daemon
    /// and the benchmark, and the artifacts it was checkpointed with.
    fixture_key: String,
}

/// Spawns a daemon at `place` (restoring the fleet fixture into its state
/// directory first) and times spawn → first answered decision on every
/// shard.
fn set_up(
    run: &Run,
    flags: &[String],
    fixture: Option<&Fixture>,
    place: &Place,
    traffic: &Traffic,
) -> Result<(f64, Daemon, Conn), String> {
    let mut flags = flags.to_vec();
    if let Some(f) = fixture {
        restore_state(&f.dir, Path::new(place.state))?;
        flags.extend(["--state-dir", place.state, "--recover"].map(String::from));
    }
    let t = Instant::now();
    let mut d = Daemon::spawn(
        run.lahd,
        &flags,
        Path::new(place.socket),
        Path::new(place.log),
    )?;
    let mut conn = d.connect()?;
    probe(&mut conn, traffic)?;
    Ok((t.elapsed().as_secs_f64(), d, conn))
}

type Conn = (BufReader<UnixStream>, UnixStream);

fn serve(run: &Run, checks: Vec<(u64, Vec<f32>)>, rep: &mut Report) -> Result<(), String> {
    let Run {
        spec,
        seed,
        seconds,
        trace,
        bundle,
        ..
    } = *run;
    let round_robin = || Traffic::new(seed, &bundle.baseline, Pattern::RoundRobin(STREAMS));
    let traffic = match spec.kind {
        Kind::Fleet => {
            let zipf = Zipf::new(FLEET as usize, ZIPF_S);
            Traffic::new(seed, &bundle.baseline, Pattern::Zipf(zipf))
        }
        Kind::Drift => round_robin().with_drifted_half(),
        Kind::Steady | Kind::Pipeline => round_robin(),
    };
    let flags: Vec<String> = [
        "--scale",
        "paper",
        "--artifacts",
        ARTS,
        "--queue-capacity",
        QUEUE,
    ]
    .iter()
    .chain(spec.flags)
    .map(|s| s.to_string())
    .collect();
    let fixture = if spec.kind == Kind::Fleet {
        Some(fleet_fixture(run.lahd, bundle, &run.fixture_key)?)
    } else {
        None
    };

    // Set-up rounds: timed daemon spawns beside the idle serving daemon,
    // or on the pipeline workload its in-process set-up.
    let mut setup_s = Vec::new();
    let setup_round = |setup_s: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..spec.setups {
            setup_s.push(match spec.kind {
                Kind::Pipeline => pipeline::setup_s(run.cfg),
                _ => set_up(run, &flags, fixture.as_ref(), &SIDE, &traffic)?.0,
            });
        }
        Ok(())
    };
    setup_round(&mut setup_s)?;
    let (main_setup, mut daemon, mut conn) =
        set_up(run, &flags, fixture.as_ref(), &MAIN, &traffic)?;
    if spec.kind != Kind::Pipeline {
        setup_s.push(main_setup);
    }
    let booted = daemon.stats()?;
    rep.check(booted.m.persist_errors == 0, || {
        format!(
            "{} durable-state errors at start-up",
            booted.m.persist_errors
        )
    });
    if let Some(f) = &fixture {
        println!(
            "fleet: fixture admitted {} streams; the daemon recovered {}",
            f.admitted, booted.m.recovered_streams
        );
        rep.check(booted.m.recovered_streams >= f.admitted, || {
            format!(
                "serve-fleet recovered {} streams, fewer than the {} its fixture admitted",
                booted.m.recovered_streams, f.admitted
            )
        });
    }

    // Warm-up (untimed, but verified like every other reply).
    let mut phases: Vec<(&str, PhaseResult)> = Vec::new();
    let mut next = 0u64;
    let push = |phases: &mut Vec<(&str, PhaseResult)>, name, r: PhaseResult, next: &mut u64| {
        *next += r.replies.len() as u64;
        phases.push((name, r));
    };
    match spec.kind {
        Kind::Fleet => {
            let r = closed_loop(&mut conn, &traffic, next, WINDOW, Stop::Count(20_000));
            push(&mut phases, "warm-up", r, &mut next);
        }
        Kind::Drift => {
            let in_band = Stop::Count(traffic::DRIFT_FROM * STREAMS);
            let r = closed_loop(&mut conn, &traffic, next, WINDOW, in_band);
            push(&mut phases, "warm-up", r, &mut next);
            // Carry every drifted stream through promotion and demotion.
            let mut settled = false;
            for _ in 0..192 {
                let r = closed_loop(&mut conn, &traffic, next, WINDOW, Stop::Count(4 * STREAMS));
                settled = drift_settled(&traffic, &r);
                push(&mut phases, "warm-up", r, &mut next);
                if settled {
                    break;
                }
            }
            rep.check(settled, || {
                "serve-drift warm-up never moved the drifted half to the baseline tier".into()
            });
        }
        Kind::Steady | Kind::Pipeline => {
            let r = closed_loop(&mut conn, &traffic, next, WINDOW, Stop::Count(8 * STREAMS));
            push(&mut phases, "warm-up", r, &mut next);
        }
    }
    let warm_phases = phases.len();
    setup_round(&mut setup_s)?;
    // Peak resident set through start-up, recovery and warm-up. Read before
    // the timed phases: on serve-fleet the later peak depends on whether
    // the two shards' checkpoint buffers happen to overlap.
    let daemon_rss = daemon.vm_hwm_mb();

    // Timed phases, with a Stats snapshot at every boundary. Open-loop
    // latency is the daemon's only if the sender wakes on time. Capacity
    // runs in two halves, apart in time, so that its windows sample more
    // of the host's moods.
    let mut snaps = vec![daemon.stats()?];
    let cap_s = seconds * PHASE_SHARE[2] / 2.0;
    for (name, rate, share) in [
        ("low", Some(spec.low), PHASE_SHARE[0]),
        ("capacity", None, PHASE_SHARE[2] / 2.0),
        ("high", Some(spec.high), PHASE_SHARE[1]),
        ("capacity", None, PHASE_SHARE[2] / 2.0),
    ] {
        let r = match rate {
            Some(rate) => {
                let n = (rate * seconds * share) as usize;
                let r = open_loop(&mut conn, &traffic, next, n, rate, trace);
                rep.check(r.slack_ok, || {
                    format!("{name}: the sender could not lower its timer slack to 1 ns")
                });
                r
            }
            None => closed_loop(&mut conn, &traffic, next, WINDOW, Stop::Seconds(cap_s)),
        };
        push(&mut phases, name, r, &mut next);
        snaps.push(daemon.stats()?);
        setup_round(&mut setup_s)?;
    }

    // Verification phase (untimed, after the last snapshot): walks through
    // the machine, one new stream each.
    let n_checks = checks.len() as u64;
    let checks = Traffic::recorded(next, checks);
    let checked = [(
        "verify",
        closed_loop(&mut conn, &checks, next, WINDOW, Stop::Count(n_checks)),
    )];
    println!(
        "daemon VmHWM: {daemon_rss:.1} MiB after warm-up, {:.1} MiB at the end",
        daemon.vm_hwm_mb()
    );
    drop(conn);
    let clean = daemon.shutdown()?;
    rep.check(clean, || {
        "the daemon did not exit cleanly on shutdown".into()
    });
    setup_round(&mut setup_s)?;
    rep.set("setup_s", median(&mut setup_s));
    println!(
        "setup: median of {} set-ups, {SETUP_ROUNDS} rounds through the run",
        setup_s.len()
    );
    if spec.kind != Kind::Pipeline {
        rep.set("rss_mb", daemon_rss);
    }

    // End-to-end figures and failure accounting.
    let timed = &phases[warm_phases..];
    let mut total = Tally::default();
    println!(
        "phase      sent     answered shed  deadline errors missing dup   p50/p99 from due (us, n)"
    );
    for (name, r) in phases.iter().chain(&checked) {
        let t = Tally::of(&r.replies, r.errors);
        let lat = if r.due_ns.is_empty() {
            String::from("-")
        } else {
            fmt_p50_p99(&mut r.latency_from_due_us())
        };
        println!(
            "{name:<10} {:<8} {:<8} {:<5} {:<8} {:<6} {:<7} {:<5} {lat}",
            t.sent, t.answered, t.shed, t.deadline, t.errors, t.missing, t.duplicated
        );
        rep.check(t.duplicated == 0, || {
            format!("{name}: {} requests answered twice", t.duplicated)
        });
    }
    let mut untimed = Tally::default();
    for (_, r) in phases[..warm_phases].iter().chain(&checked) {
        untimed.add(&Tally::of(&r.replies, r.errors));
    }
    rep.check(untimed.failed() == 0, || {
        format!(
            "{} warm-up or verification requests failed",
            untimed.failed()
        )
    });
    for (_, r) in timed {
        total.add(&Tally::of(&r.replies, r.errors));
    }
    for (phase, (p50, p99)) in [
        ("low", ("p50_us.low", "p99_us.low")),
        ("high", ("p50_us.high", "p99_us.high")),
    ] {
        let r = &timed
            .iter()
            .find(|(n, _)| *n == phase)
            .expect("phase ran")
            .1;
        let lat = r.latency_from_due_us();
        let (tail, windows) = windowed_p99(&lat).ok_or_else(|| format!("no {phase} replies"))?;
        let mut sorted = lat;
        let (a, b) = p50_p99(&mut sorted).ok_or_else(|| format!("no {phase} replies"))?;
        let p999 = stats::quantile(&sorted, 0.999).expect("non-empty").value;
        rep.check(a.samples >= 10_000, || {
            format!("{phase}: only {} latency samples", a.samples)
        });
        println!(
            "{phase}: p50 {:.1} us (n={}); p99 {tail:.1} us (median of {windows} windows of {}); \
             phase-wide p99 {:.1} us, p99.9 {p999:.1} us",
            a.value,
            a.samples,
            stats::TAIL_WINDOW,
            b.value
        );
        rep.set(p50, a.value);
        rep.set(p99, tail);
    }
    let (mut rates, mut replies, mut span) = (Vec::new(), 0, 0.0);
    for (_, cap) in timed.iter().filter(|(n, _)| *n == "capacity") {
        let answered_at: Vec<u64> = (cap.replies.iter().zip(&cap.reply_ns))
            .filter(|(r, _)| r.count > 0)
            .map(|(_, &t)| t)
            .collect();
        let span_ns = (cap.window_s * 1e9) as u64;
        rates.extend(window_rates(&answered_at, span_ns, CAPACITY_WINDOW_NS));
        replies += cap.window_replies;
        span += cap.window_s;
    }
    let windows = rates.len();
    if windows == 0 {
        return Err("capacity phases shorter than one window".into());
    }
    let capacity = median(&mut rates);
    rep.set("capacity_dps", capacity);
    println!(
        "capacity: {capacity:.0} decisions/s with {WINDOW} outstanding (median of {windows} \
         windows of {} ms); phase-wide {replies} replies in {span:.3} s = {:.0}/s",
        CAPACITY_WINDOW_NS / 1_000_000,
        replies as f64 / span
    );
    println!(
        "failed: {} of {} decide requests in timed phases (failed_frac {:.6})",
        total.failed(),
        total.sent,
        total.failed() as f64 / total.sent.max(1) as f64
    );
    rep.values.insert("attempted", total.sent as f64);
    rep.values.insert("failed", total.failed() as f64);

    // Outputs, not just timing.
    let start = fixture.as_ref().map(|f| &f.start_states);
    verify(
        bundle,
        &[(&traffic, &phases[..]), (&checks, &checked[..])],
        start,
        rep,
    );
    check_walk_phase(&checked[0].1, rep);
    check_workload(spec, &traffic, timed, &snaps, rep);

    if trace {
        traced(run, &traffic, &phases, warm_phases, &snaps, &total, rep)?;
    }
    Ok(())
}

/// One Decide per shard on a probe stream outside the workload's keys;
/// returns once both are answered.
fn probe(conn: &mut Conn, traffic: &Traffic) -> Result<(), String> {
    let mut obs = Vec::new();
    traffic.request(0, &mut obs);
    let mut out = Vec::new();
    for shard in 0..2 {
        let stream = (1u64 << 40..)
            .find(|&k| shard_of(k, 2) == shard)
            .expect("keys cover shards");
        let payload = Request::Decide {
            req_id: u64::MAX - shard as u64,
            stream,
            deadline_us: 0,
            obs: obs.clone(),
        }
        .encode();
        write_frame(&mut out, &payload).map_err(|e| e.to_string())?;
    }
    conn.1
        .write_all(&out)
        .map_err(|e| format!("probe write: {e}"))?;
    let mut buf = Vec::new();
    for _ in 0..2 {
        match client::read_frame_into(&mut conn.0, &mut buf) {
            Ok(true) => {}
            _ => return Err("the daemon never answered its probe".into()),
        }
        match lahd_serve::Response::decode(&buf) {
            Ok(lahd_serve::Response::Decision { .. }) => {}
            other => return Err(format!("unexpected probe reply {other:?}")),
        }
    }
    Ok(())
}

/// Whether every drifted stream's last answer in `r` came from the
/// baseline tier and every other stream's from the FSM tier.
fn drift_settled(traffic: &Traffic, r: &PhaseResult) -> bool {
    let n = r.replies.len() as u64;
    (n.saturating_sub(STREAMS)..n).all(|k| {
        let reply = r.replies[k as usize];
        let want = if traffic.is_drifted(traffic.stream(r.first + k)) {
            TIER_BASELINE
        } else {
            TIER_FSM
        };
        reply.count == 1 && reply.guarded() && reply.tier as usize == want
    })
}

/// Replays every answered request in send order through an in-process
/// compiled-FSM cursor per stream. FSM-tier answers must equal the
/// replayed action, baseline-tier, shed and deadline answers the scenario
/// baseline's. Shed and deadline answers do not advance the cursor, as in
/// the daemon; net-tier answers are counted, not checked. Each run pairs
/// a traffic with the phases it generated; their streams are disjoint.
fn verify(
    bundle: &ServeBundle,
    runs: &[(&Traffic, &[(&str, PhaseResult)])],
    start: Option<&HashMap<u64, u16>>,
    rep: &mut Report,
) {
    let Some(compiled) = bundle.compiled.as_deref() else {
        return;
    };
    let mut baseline = bundle
        .scenario()
        .baselines(&bundle.cfg.sim)
        .into_iter()
        .next()
        .expect("every scenario registers a baseline");
    let mut scratch = compiled.make_scratch();
    let mut states: HashMap<u64, u16> = HashMap::new();
    let (mut fsm_ok, mut base_ok, mut net, mut bad) = (0u64, 0u64, 0u64, 0u64);
    let mut actions = vec![0u64; bundle.num_actions()];
    let mut obs = Vec::new();
    for &(traffic, phases) in runs {
        for (_, r) in phases {
            for (k, reply) in r.replies.iter().enumerate() {
                if reply.count == 0 {
                    continue;
                }
                let stream = traffic.request(r.first + k as u64, &mut obs);
                if let Some(n) = actions.get_mut(reply.action as usize) {
                    *n += 1;
                }
                if !reply.guarded() {
                    if reply.action as usize == baseline.act_vec(&obs) {
                        base_ok += 1;
                    } else {
                        bad += 1;
                    }
                    continue;
                }
                let state = states.entry(stream).or_insert_with(|| {
                    start
                        .and_then(|m| m.get(&stream).copied())
                        .unwrap_or(compiled.initial_state())
                });
                let outcome = compiled.step(&obs, *state, &mut scratch);
                *state = outcome.next_state;
                match reply.tier as usize {
                    TIER_FSM if reply.action == outcome.action => fsm_ok += 1,
                    TIER_BASELINE if reply.action as usize == baseline.act_vec(&obs) => {
                        base_ok += 1
                    }
                    TIER_FSM | TIER_BASELINE => bad += 1,
                    _ => net += 1,
                }
            }
        }
    }
    let checksums: Vec<String> = runs
        .iter()
        .map(|(_, phases)| format!("{:016x}", action_checksum(phases)))
        .collect();
    println!(
        "verify: {fsm_ok} FSM-tier and {base_ok} baseline/shed answers match the replay, \
         {net} net-tier answers unchecked, {bad} mismatches; action checksums {checksums:?}; \
         answers per action {actions:?}"
    );
    rep.check(bad == 0, || {
        format!("{bad} answers differ from the in-process replay")
    });
}

/// The verification phase must exercise the machine: most answers from
/// the FSM tier, and more than one action among them. In-band i.i.d.
/// traffic cannot show a cursor bug, because the machine answers it with
/// one action.
fn check_walk_phase(r: &PhaseResult, rep: &mut Report) {
    let fsm: Vec<u16> = r
        .replies
        .iter()
        .filter(|x| x.count > 0 && x.guarded() && x.tier as usize == TIER_FSM)
        .map(|x| x.action)
        .collect();
    let mut distinct = fsm.clone();
    distinct.sort_unstable();
    distinct.dedup();
    println!(
        "verify phase: {} walk steps, {} answered from the FSM tier with actions {distinct:?}",
        r.replies.len(),
        fsm.len()
    );
    rep.check(2 * fsm.len() >= r.replies.len(), || {
        format!(
            "only {} of {} walk steps were answered from the FSM tier",
            fsm.len(),
            r.replies.len()
        )
    });
    rep.check(distinct.len() >= 2, || {
        format!("the verification walks reached only the actions {distinct:?}")
    });
}

/// FNV-1a over `(request id, tier, action)` of every answered request.
fn action_checksum(phases: &[(&str, PhaseResult)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (_, r) in phases {
        for (k, reply) in r.replies.iter().enumerate().filter(|(_, r)| r.count > 0) {
            h = fold(
                fold(h, r.first + k as u64),
                (reply.tier as u64) << 16 | reply.action as u64,
            );
        }
    }
    h
}

fn fold(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Fails a run whose traffic is no longer what its workload claims.
fn check_workload(
    spec: &Spec,
    traffic: &Traffic,
    timed: &[(&str, PhaseResult)],
    snaps: &[Stats],
    rep: &mut Report,
) {
    let (first, last) = (&snaps[0].m, &snaps[snaps.len() - 1].m);
    let mut tiers = [0u64; 4];
    let mut drifted_on_fsm = 0u64;
    for (_, r) in timed {
        for (k, reply) in r.replies.iter().enumerate() {
            if reply.count == 0 || !reply.guarded() {
                continue;
            }
            tiers[(reply.tier as usize).min(3)] += 1;
            if traffic.is_drifted(traffic.stream(r.first + k as u64))
                && reply.tier as usize == TIER_FSM
            {
                drifted_on_fsm += 1;
            }
        }
    }
    let answered: u64 = tiers.iter().sum();
    let fsm_share = tiers[TIER_FSM] as f64 / answered.max(1) as f64;
    println!(
        "tiers (timed, guarded answers): fsm {} quant {} exact {} baseline {}",
        tiers[0], tiers[1], tiers[2], tiers[3]
    );
    match spec.kind {
        Kind::Steady => {
            let mats = last.materializations - first.materializations;
            rep.check(mats == 0, || {
                format!("serve-steady materialized {mats} streams while timed")
            });
            rep.check(fsm_share >= 0.999, || {
                format!(
                    "serve-steady served only {:.4} of timed answers from the FSM tier",
                    fsm_share
                )
            });
        }
        Kind::Drift => {
            rep.check(drifted_on_fsm == 0, || {
                format!("{drifted_on_fsm} timed answers for drifted streams came from the FSM tier")
            });
            rep.check(last.streams_resident >= STREAMS / 2, || {
                format!(
                    "only {} streams resident; the drifted half is {}",
                    last.streams_resident,
                    STREAMS / 2
                )
            });
        }
        _ => {}
    }
}

/// Largest generator lag p50, as a share of p50 from due, at which the
/// open-loop latency still is the daemon's (measured: about 0.2).
const MAX_LAG_SHARE: f64 = 1.0 / 3.0;

/// The per-layer numbers of a traced run.
fn traced(
    run: &Run,
    traffic: &Traffic,
    phases: &[(&str, PhaseResult)],
    warm_phases: usize,
    snaps: &[Stats],
    total: &Tally,
    rep: &mut Report,
) -> Result<(), String> {
    let (spec, bundle) = (run.spec, run.bundle);
    let low = &phases[warm_phases].1;
    let (lag50, lag99) = p50_p99(&mut low.gen_lag_us()).ok_or("no low-phase spans")?;
    let (send50, _) = p50_p99(&mut low.latency_from_send_us()).ok_or("no low-phase replies")?;
    let (due50, _) = p50_p99(&mut low.latency_from_due_us()).ok_or("no low-phase replies")?;
    rep.check(lag50.value < MAX_LAG_SHARE * due50.value, || {
        format!(
            "generator lag p50 {:.1} us is over {MAX_LAG_SHARE:.2} of p50 from due {:.1} us",
            lag50.value, due50.value
        )
    });
    rep.set("client.gen_lag_p50_us", lag50.value);
    rep.set("client.gen_lag_p99_us", lag99.value);
    println!(
        "stats at phase boundaries (cumulative since daemon start; shard quantiles bucketed):"
    );
    for (b, s) in [
        "before low",
        "after low",
        "after capacity 1",
        "after high",
        "after capacity 2",
    ]
    .iter()
    .zip(snaps)
    {
        println!(
            "  {b:<15} served {} shed {} queue_full {} tiers {:?} shard p50 {:.1} us p99 {:.1} us \
             compact {} resident {} hibernated {} checkpoints {}",
            s.m.served,
            s.m.shed,
            s.queue_full,
            s.tier_decisions,
            s.p50_ns as f64 / 1e3,
            s.p99_ns as f64 / 1e3,
            s.m.streams_compact,
            s.m.streams_resident,
            s.m.streams_hibernated,
            s.m.checkpoints
        );
    }
    let after_low = &snaps[1];
    let shard50 = after_low.p50_ns as f64 / 1e3;
    rep.set("shard.p50_us", shard50);
    rep.set("shard.p99_us", after_low.p99_ns as f64 / 1e3);
    rep.set("daemon.outside_shard_us", send50.value - shard50);
    let (first, last) = (&snaps[0], &snaps[snaps.len() - 1]);
    let per_k = |d: u64| d as f64 * 1e3 / total.sent.max(1) as f64;
    rep.set(
        "daemon.queue_full_per_k",
        per_k(last.queue_full - first.queue_full),
    );
    let (first, last) = (&first.m, &last.m);
    rep.set("daemon.shed_per_k", per_k(last.shed - first.shed));
    rep.set(
        "shard.materializations_per_k",
        per_k(last.materializations - first.materializations),
    );
    rep.set("shard.wakes_per_k", per_k(last.wakes - first.wakes));
    rep.set(
        "shard.hibernates_per_k",
        per_k(last.hibernates - first.hibernates),
    );
    rep.set(
        "persist.checkpoints_per_phase",
        (last.checkpoints - first.checkpoints) as f64 / (snaps.len() - 1) as f64,
    );
    let mut tiers = [0u64; 4];
    for (_, r) in &phases[warm_phases..] {
        for reply in r.replies.iter().filter(|r| r.count > 0) {
            tiers[(reply.tier as usize).min(3)] += 1;
        }
    }
    let answered = tiers.iter().sum::<u64>().max(1) as f64;
    for (name, t) in [
        ("shard.tier_share.fsm", tiers[0]),
        ("shard.tier_share.quant", tiers[1]),
        ("shard.tier_share.exact", tiers[2]),
        ("shard.tier_share.baseline", tiers[3]),
    ] {
        rep.set(name, t as f64 / answered);
    }

    let guard_stream = (0..STREAMS).find(|&s| traffic.is_drifted(s)).unwrap_or(0);
    let replay = layers::Replay {
        cfg: run.serve_cfg,
        bundle,
        artifacts_dir: Path::new(ARTS),
        traffic,
        requests: low.first..low.first + low.replies.len() as u64,
        guard_stream,
        scratch_dir: Path::new("layer-scratch"),
    };
    for (name, v) in replay.run()? {
        rep.set(name, v);
    }

    // The low-rate decomposition: generator lag + shard-side + the rest.
    // Stats quantiles are cumulative since daemon start, so they stand for
    // the low phase only where it holds most of the decisions served.
    let low_share = low.replies.len() as f64 / after_low.m.served.max(1) as f64;
    if low_share < 0.75 {
        println!(
            "{}: shard-side Stats quantiles are {:.0}% warm-up decisions; no low-rate decomposition",
            spec.name,
            (1.0 - low_share) * 100.0
        );
    } else {
        let v = |n: &str| rep.values.get(n).copied().unwrap_or(f64::NAN);
        let (codec_us, hop, step_us) = (
            v("protocol.codec_ns") / 1e3,
            v("protocol.hop_us"),
            v("fsm.step_batch_ns") / 1e3,
        );
        let outside = send50.value - shard50;
        println!(
            "{} low-rate decomposition (client p50 from due = {:.1} us, n={}):",
            spec.name, due50.value, due50.samples
        );
        println!("  generator lag p50        {:>8.1} us", lag50.value);
        println!("  shard-side p50 (Stats)   {shard50:>8.1} us   (in-process: FSM step {step_us:.2} us per decision)");
        println!(
            "  outside the shard        {outside:>8.1} us   (client p50 from send - shard p50)"
        );
        println!("    codec Decide+Decision  {codec_us:>8.2} us");
        println!("    2 socket hops          {:>8.1} us", 2.0 * hop);
        println!(
            "    unexplained residue    {:>8.1} us",
            outside - codec_us - 2.0 * hop
        );
        println!(
            "  lag + from-send p50      {:>8.1} us   (vs p50 from due {:.1} us)",
            lag50.value + send50.value,
            due50.value
        );
    }
    write_spans(spec.name, phases).map_err(|e| format!("spans: {e}"))?;
    Ok(())
}

/// Writes the traced open-loop spans (`due, wake, write done, reply read`
/// per request id, ns from the phase start).
fn write_spans(workload: &str, phases: &[(&str, PhaseResult)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(format!("spans-{workload}.csv"))?);
    writeln!(out, "phase,req_id,due_ns,wake_ns,write_ns,reply_ns")?;
    for (name, r) in phases.iter().filter(|(_, r)| !r.wake_ns.is_empty()) {
        for k in 0..r.replies.len() {
            writeln!(
                out,
                "{name},{},{},{},{},{}",
                r.first + k as u64,
                r.due_ns[k],
                r.wake_ns[k],
                r.write_ns[k],
                r.reply_ns[k]
            )?;
        }
    }
    out.flush()
}

fn fmt_p50_p99(values: &mut [f64]) -> String {
    match p50_p99(values) {
        Some((Quantile { value: a, samples }, Quantile { value: b, .. })) => {
            format!("{a:.1} / {b:.1} (n={samples})")
        }
        None => "-".into(),
    }
}

/// The pristine serve-fleet population: a daemon admitted every stream
/// once and checkpointed it on shutdown. Built once per source tree and
/// artifact digest, so a change to the daemon's checkpoint format,
/// recovery or admission, or to the benchmark's traffic, builds a new one.
struct Fixture {
    dir: PathBuf,
    admitted: u64,
    /// Each stream's compiled-FSM state in the checkpoint.
    start_states: HashMap<u64, u16>,
}

fn fleet_fixture(lahd: &Path, bundle: &ServeBundle, key: &str) -> Result<Fixture, String> {
    let dir = PathBuf::from(format!("fleet-{key}"));
    if !dir.join("admitted").exists() {
        let t = Instant::now();
        // Fixtures of other sources are stale: drop them.
        for entry in std::fs::read_dir(".").map_err(|e| e.to_string())?.flatten() {
            if entry.file_name().to_string_lossy().starts_with("fleet-") {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let tmp = PathBuf::from("fleet.tmp");
        let _ = std::fs::remove_dir_all(&tmp);
        let flags: Vec<String> = [
            "--scale",
            "paper",
            "--artifacts",
            ARTS,
            "--audit-every",
            "0",
            "--max-streams",
            FLEET_MAX_STREAMS,
            "--state-dir",
            "fleet.tmp",
            "--checkpoint-every",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut d = Daemon::spawn(lahd, &flags, Path::new(MAIN.socket), Path::new(MAIN.log))?;
        let mut conn = d.connect()?;
        let population = Traffic::new(FIXTURE_SEED, &bundle.baseline, Pattern::RoundRobin(FLEET));
        let r = closed_loop(&mut conn, &population, 0, WINDOW, Stop::Count(FLEET));
        let t_ = Tally::of(&r.replies, r.errors);
        if t_.failed() > 0 || t_.answered != FLEET {
            return Err(format!(
                "fleet fixture: {} of {FLEET} admissions failed",
                t_.failed()
            ));
        }
        let admitted = d.stats()?.m.streams_total();
        drop(conn);
        if !d.shutdown()? {
            return Err("fleet fixture daemon did not exit cleanly".into());
        }
        std::fs::write(tmp.join("admitted"), admitted.to_string()).map_err(|e| e.to_string())?;
        std::fs::rename(&tmp, &dir).map_err(|e| e.to_string())?;
        println!(
            "fleet: built fixture of {admitted} streams in {:.1} s",
            t.elapsed().as_secs_f64()
        );
    }
    let admitted = std::fs::read_to_string(dir.join("admitted"))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .ok_or("fleet fixture has no admitted count")?;
    let mut start_states = HashMap::with_capacity(FLEET as usize);
    for shard in 0..2 {
        let rec = recover_shard(&dir, shard);
        for chunk in rec
            .table
            .chunks_exact(REC_BYTES)
            .chain(rec.arena.chunks_exact(REC_BYTES))
        {
            let (key, stream) = CompactStream::deserialize(chunk);
            start_states.insert(key, stream.cursor.state());
        }
    }
    Ok(Fixture {
        dir,
        admitted,
        start_states,
    })
}

/// Replaces the state directory `state` with the fixture. Checkpoints are
/// hard-linked: the daemon only reads them and replaces them by rename, so
/// the fixture stays pristine without rewriting ~100 MB per set-up. The
/// journals, which the daemon appends to in place, are copied.
fn restore_state(fixture: &Path, state: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(state);
    std::fs::create_dir_all(state).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(fixture).map_err(|e| e.to_string())? {
        let from = entry.map_err(|e| e.to_string())?.path();
        let to = state.join(from.file_name().expect("directory entries have names"));
        let done = if from.extension().is_some_and(|x| x == "ckpt") {
            std::fs::hard_link(&from, &to)
        } else {
            std::fs::copy(&from, &to).map(|_| ())
        };
        done.map_err(|e| format!("restore {}: {e}", from.display()))?;
    }
    Ok(())
}

/// FNV-1a over the artifact files, in name order.
fn artifact_digest(dir: &Path) -> Result<u64, String> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    names.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for path in names {
        let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        for b in name.bytes().chain(bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    Ok(h)
}

/// The artifact digest must be identical across runs of one source tree.
fn check_digest(source: &str, digest: u64, rep: &mut Report) {
    let path = Path::new("digest");
    let line = format!("{source} {digest:016x}");
    if let Ok(prev) = std::fs::read_to_string(path) {
        if let Some((s, d)) = prev.trim().split_once(' ') {
            if s == source {
                rep.check(d == format!("{digest:016x}"), || {
                    format!("artifact digest {digest:016x} differs from an earlier run's {d}")
                });
            }
        }
    }
    let _ = std::fs::write(path, line);
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default()
}

/// Prints the metric tables and the JSON result line. Both runs print
/// the end-to-end table (the traced run's copy gives the tracing
/// overhead); the JSON carries the end-to-end metrics untraced and the
/// per-layer metrics traced.
fn finish(spec: &Spec, trace: bool, mut rep: Report) -> Result<(), String> {
    let attempted = rep.values.remove("attempted").unwrap_or(0.0) as u64;
    let failed = rep.values.remove("failed").unwrap_or(0.0) as u64;
    let (mut e2e, mut layers) = (String::new(), String::new());
    let mut missing = Vec::new();
    println!(
        "end-to-end ({}{}):",
        spec.name,
        if trace { ", traced run" } else { "" }
    );
    for &(name, unit) in END_TO_END {
        let v = rep.values.get(name).copied();
        println!("  {name:<14} {:>14.4} {unit}", v.unwrap_or(f64::NAN));
        push_metric(&mut e2e, name, v, unit, &mut missing);
    }
    for &(name, unit) in PRINTED_ONLY {
        let v = rep.values.get(name).copied().unwrap_or(f64::NAN);
        println!("  {name:<14} {v:>14.4} {unit} (printed only)");
    }
    println!(
        "  failed_frac    {:>14.6} fraction ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    println!("e2e-json: {{{e2e}}}");
    if trace {
        println!("per-layer ({}; traced run):", spec.name);
        println!(
            "  {:<30} {:>14} {:<9} {:<26} where it should show",
            "metric", "value", "unit", "should move"
        );
        for &(name, unit, target, place) in LAYERS {
            let v = rep.values.get(name).copied();
            println!(
                "  {name:<30} {:>14.4} {unit:<9} {target:<26} {place}",
                v.unwrap_or(f64::NAN)
            );
            push_metric(&mut layers, name, v, unit, &mut missing);
        }
    }
    for name in missing {
        rep.check(false, || format!("metric {name} was not measured"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        rep.problems.is_empty(),
        if trace { layers } else { e2e }
    );
    Ok(())
}

fn push_metric(
    json: &mut String,
    name: &'static str,
    v: Option<f64>,
    unit: &str,
    missing: &mut Vec<&'static str>,
) {
    let value = match v {
        Some(v) if v.is_finite() => v,
        _ => {
            missing.push(name);
            0.0
        }
    };
    if !json.is_empty() {
        json.push_str(", ");
    }
    let _ = write!(
        json,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahd_serve::{serve, Response, ServeConfig};

    /// Drives serve-steady traffic, then `checks`, through a fresh
    /// in-process daemon over `dir`'s bundle; returns the serve-steady
    /// action checksum, the verifier's problems and the verification phase.
    fn steady_run(
        dir: &Path,
        cfg: &PipelineConfig,
        seed: u64,
        checks: &[(u64, Vec<f32>)],
        tag: &str,
    ) -> (u64, Vec<String>, PhaseResult) {
        let bundle = ServeBundle::load(cfg, dir).expect("bundle loads");
        let traffic = Traffic::new(seed, &bundle.baseline, Pattern::RoundRobin(64));
        let socket =
            std::env::temp_dir().join(format!("perfbench-{}-{tag}.sock", std::process::id()));
        let daemon_cfg = ServeConfig {
            audit_every: 0,
            ..ServeConfig::default()
        };
        let handle = serve(bundle, cfg.clone(), daemon_cfg, &socket).expect("daemon binds");
        let s = UnixStream::connect(&socket).expect("daemon accepts");
        let mut conn = (BufReader::new(s.try_clone().expect("clone")), s);
        let r = closed_loop(&mut conn, &traffic, 0, WINDOW, Stop::Count(4096));
        let walks = Traffic::recorded(4096, checks.to_vec());
        let n = checks.len() as u64;
        let c = closed_loop(&mut conn, &walks, 4096, WINDOW, Stop::Count(n));
        write_frame(&mut conn.1, &Request::Shutdown.encode()).expect("shutdown");
        let mut buf = Vec::new();
        assert!(client::read_frame_into(&mut conn.0, &mut buf).expect("shutdown ack"));
        assert_eq!(Response::decode(&buf), Ok(Response::Ok));
        drop(conn);
        handle.wait();
        for p in [&r, &c] {
            let t = Tally::of(&p.replies, p.errors);
            assert_eq!((t.answered, t.failed()), (t.sent, 0));
        }
        let phases = [("steady", r)];
        let checked = [("verify", c)];
        let bundle = ServeBundle::load(cfg, dir).expect("bundle loads");
        let mut rep = Report::default();
        verify(
            &bundle,
            &[(&traffic, &phases[..]), (&walks, &checked[..])],
            None,
            &mut rep,
        );
        let [(_, c)] = checked;
        (action_checksum(&phases), rep.problems, c)
    }

    #[test]
    fn one_seed_gives_one_serve_steady_action_checksum() {
        // The benchmark's own bundle. The checksum covers every request's
        // tier and action, but the machine answers in-band traffic with one
        // action, so the verification walks must also match the replay and
        // reach more than one action.
        let dir = std::env::temp_dir().join(format!("perfbench-arts-{}", std::process::id()));
        let short = pipeline::short_budget();
        let built = pipeline::run_timed(&short);
        save_artifacts(&built.artifacts, &dir).expect("save");
        let pool = pipeline::dataset_observations(&short, &built.artifacts);
        let cfg = PipelineConfig::paper();
        let checks = check_walks(&ServeBundle::load(&cfg, &dir).expect("loads"), pool, 7);
        let (a, pa, ca) = steady_run(&dir, &cfg, 7, &checks, "a");
        let (b, pb, _) = steady_run(&dir, &cfg, 7, &checks, "b");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            pa.is_empty() && pb.is_empty(),
            "replay mismatches: {pa:?} {pb:?}"
        );
        assert_eq!(a, b, "one seed, one action checksum");
        let mut rep = Report::default();
        check_walk_phase(&ca, &mut rep);
        assert!(rep.problems.is_empty(), "{:?}", rep.problems);
    }
}
