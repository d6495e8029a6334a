//! Subcommand dispatch and implementations.

use std::fs;
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};

use lahd_core::{
    best_static_allocation, explain_fsm, guard_eval, load_artifacts, save_artifacts, Args,
    Comparison, GruPolicy, GruVecPolicy, GuardEvalConfig, Pipeline, PipelineArtifacts,
    PipelineConfig, Precision, ScenarioId, Table,
};
use lahd_fsm::{DefaultPolicy, HandcraftedFsm, Policy, VecPolicy};
use lahd_serve::{
    persist, prepare_corrupt_candidate, run_bench, run_restart_drill, run_streams_sweep, serve_dir,
    BenchConfig, ChaosPlan, DrillConfig, HostedDaemon, Request, ServeClient, ServeConfig,
    REC_BYTES,
};
use lahd_sim::{DiskFault, Fault, FaultPlan, SimConfig, StorageSim};
use lahd_workload::{
    read_trace, real_trace_set, standard_trace_set, summarize, write_trace, WorkloadTrace,
};

/// CLI failure: message already formatted for the user.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("io error: {e}"))
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Entry point: dispatches on the first positional argument.
pub fn run(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    match args.positional(0) {
        Some("pipeline") => cmd_pipeline(args, out),
        Some("evaluate") => cmd_evaluate(args, out),
        Some("guard-eval") => cmd_guard_eval(args, out),
        Some("serve") => cmd_serve(args, out),
        Some("serve-bench") => cmd_serve_bench(args, out),
        Some("serve-drill") => cmd_serve_drill(args, out),
        Some("explain") => cmd_explain(args, out),
        Some("traces") => cmd_traces(args, out),
        Some("simulate") => cmd_simulate(args, out),
        Some("scenarios") => cmd_scenarios(args, out),
        Some("help") | None => {
            write!(out, "{}", usage())?;
            Ok(())
        }
        Some(other) => Err(err(format!("unknown subcommand {other:?}\n\n{}", usage()))),
    }
}

fn usage() -> String {
    "lahd — learning-aided heuristics design for storage systems\n\
     \n\
     USAGE: lahd <SUBCOMMAND> [OPTIONS]\n\
     \n\
     SUBCOMMANDS\n\
     \x20 pipeline   train the DRL agent, extract the FSM, save artifacts\n\
     \x20            --scale tiny|demo|paper   (default demo)\n\
     \x20            --scenario NAME           (default dorado-migration)\n\
     \x20            --out DIR                 (default lahd-artifacts)\n\
     \x20            --infer-precision exact|quantized  (default exact)\n\
     \x20            --seed N, --hidden N, --std-epochs N, --real-epochs N\n\
     \x20 evaluate   Figure-4 comparison over saved artifacts\n\
     \x20            --artifacts DIR [--scale …] [--scenario …] [--oracle] [--heldout]\n\
     \x20            [--infer-precision exact|quantized]\n\
     \x20 guard-eval run saved artifacts behind the guardrail harness and\n\
     \x20            report shadow divergence, drift, and tier fallbacks\n\
     \x20            --artifacts DIR [--scale …] [--scenario …]\n\
     \x20            [--fault none|drift|noise|corrupt|stuck|delay|drop]\n\
     \x20            [--fault-from N] [--fault-to N] [--factor F] [--amplitude F]\n\
     \x20            [--prob F] [--delay-steps N] [--episodes N]\n\
     \x20            [--workload-scale F] [--no-counterfactuals]\n\
     \x20            [--report FILE] [--json FILE]\n\
     \x20            [--infer-precision exact|quantized]\n\
     \x20 serve      run the fault-tolerant decision-serving daemon over a\n\
     \x20            Unix socket until a shutdown request arrives\n\
     \x20            --artifacts DIR [--socket FILE] [--shards N]\n\
     \x20            [--queue-capacity N] [--batch-max N] [--max-streams N]\n\
     \x20            [--audit-every N] [--audit-budget N] [--hibernate-after N]\n\
     \x20            [--sweep-every N] [--max-hibernated N]\n\
     \x20            [--state-dir DIR (durable checkpoints + journal)]\n\
     \x20            [--checkpoint-every N (ticks; 0 = drain-only)] [--recover]\n\
     \x20            [--allow-chaos] [--scale …] [--scenario …]\n\
     \x20            [--infer-precision exact|quantized]\n\
     \x20 serve-bench deterministic load + chaos harness for the daemon\n\
     \x20            --artifacts DIR [--socket FILE (external daemon)]\n\
     \x20            [--streams N] [--rounds N] [--requests N] [--rate R]\n\
     \x20            [--bench-seed N] [--chaos]\n\
     \x20            [--streams-sweep N,N,… (memory-scaling sweep)]\n\
     \x20            [--json FILE] [--bench-json FILE] [--shutdown-daemon]\n\
     \x20            [--scale …]\n\
     \x20 serve-drill crash-restart drill: SIGKILL a durable daemon mid-load,\n\
     \x20            restart it with --recover, and compare actions against\n\
     \x20            an uninterrupted reference daemon\n\
     \x20            --artifacts DIR [--streams N] [--rounds-before N]\n\
     \x20            [--rounds-after N] [--drill-seed N] [--shards N]\n\
     \x20            [--corrupt (inject seeded disk faults before restart)]\n\
     \x20            [--work-dir DIR] [--json FILE] [--scale …]\n\
     \x20 explain    Markdown interpretation report for a saved machine\n\
     \x20            --artifacts DIR [--out FILE] [--scale …]\n\
     \x20 traces     summarise the synthetic workloads\n\
     \x20            [--len N] [--seed N] [--export DIR]\n\
     \x20 simulate   run default|handcrafted over a trace file\n\
     \x20            --trace FILE [--policy default|handcrafted] [--seed N]\n\
     \x20 scenarios  list the registered storage scenarios\n\
     \x20            [--names]\n\
     \x20 help       this message\n"
        .to_string()
}

/// Every flag [`scale_config`] reads. A `lahd serve` child must be given
/// all of them to rebuild the configuration its artifacts were trained
/// under.
const SCALE_FLAGS: [&str; 7] = [
    "scale",
    "scenario",
    "infer-precision",
    "hidden",
    "std-epochs",
    "real-epochs",
    "seed",
];

fn scale_config(args: &Args) -> Result<PipelineConfig, CliError> {
    let mut cfg = match args.get("scale").unwrap_or("demo") {
        "tiny" => PipelineConfig::tiny(),
        "demo" => PipelineConfig::demo(),
        "paper" => PipelineConfig::paper(),
        other => return Err(err(format!("unknown --scale {other:?} (tiny|demo|paper)"))),
    };
    if let Some(name) = args.get("scenario") {
        cfg.scenario = ScenarioId::parse(name).ok_or_else(|| {
            let known: Vec<&str> = ScenarioId::ALL.iter().map(|s| s.name()).collect();
            err(format!(
                "unknown --scenario {name:?} (known: {})",
                known.join("|")
            ))
        })?;
    }
    if let Some(name) = args.get("infer-precision") {
        cfg.infer_precision = Precision::parse(name).ok_or_else(|| {
            let known: Vec<&str> = Precision::ALL.iter().map(|p| p.name()).collect();
            err(format!(
                "unknown --infer-precision {name:?} (known: {})",
                known.join("|")
            ))
        })?;
    }
    cfg.hidden_dim = args.get_usize("hidden", cfg.hidden_dim);
    cfg.std_epochs = args.get_usize("std-epochs", cfg.std_epochs);
    cfg.real_epochs = args.get_usize("real-epochs", cfg.real_epochs);
    cfg.seed = args.get_u64("seed", cfg.seed);
    Ok(cfg)
}

fn artifacts_dir(args: &Args) -> PathBuf {
    PathBuf::from(
        args.get("artifacts")
            .or(args.get("out"))
            .unwrap_or("lahd-artifacts"),
    )
}

fn load(args: &Args) -> Result<(PipelineConfig, PipelineArtifacts), CliError> {
    let cfg = scale_config(args)?;
    let dir = artifacts_dir(args);
    let artifacts = load_artifacts(&cfg, &dir).ok_or_else(|| {
        err(format!(
            "no artifacts for this configuration (scenario {}) in {} — run `lahd pipeline` \
             first (the --scenario/--scale/--hidden/--seed options must match)",
            cfg.scenario,
            dir.display()
        ))
    })?;
    Ok((cfg, artifacts))
}

fn cmd_pipeline(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let cfg = scale_config(args)?;
    let dir = artifacts_dir(args);
    writeln!(
        out,
        "training (hidden={}, epochs={}+{}, traces={}×{})…",
        cfg.hidden_dim, cfg.std_epochs, cfg.real_epochs, cfg.num_real_traces, cfg.trace_len
    )?;
    let started = std::time::Instant::now();
    let artifacts = Pipeline::new(cfg).run();
    save_artifacts(&artifacts, &dir)?;
    writeln!(
        out,
        "done in {:.1}s: {} raw states → FSM with {} states / {} symbols / {} transitions",
        started.elapsed().as_secs_f64(),
        artifacts.raw_states,
        artifacts.fsm.num_states(),
        artifacts.fsm.num_symbols(),
        artifacts.fsm.num_transitions()
    )?;
    writeln!(out, "artifacts saved to {}", dir.display())?;
    Ok(())
}

fn cmd_evaluate(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let (cfg, artifacts) = load(args)?;
    let traces = if args.has_flag("heldout") {
        real_trace_set(10, cfg.trace_len, cfg.seed.wrapping_add(777_000))
    } else {
        artifacts.real_traces.clone()
    };
    if cfg.scenario != ScenarioId::DoradoMigration {
        return evaluate_generic(args, &cfg, &artifacts, &traces, out);
    }

    let mut default_policy = DefaultPolicy;
    let mut handcrafted = HandcraftedFsm::tuned();
    // The default stays on the historical (bit-stable) unpacked path; a
    // non-default precision runs the packed engine tier under test.
    let mut gru = if cfg.infer_precision == Precision::Exact {
        artifacts.gru_policy(cfg.sim.clone())
    } else {
        GruPolicy::packed(
            artifacts.agent.clone(),
            cfg.sim.clone(),
            cfg.infer_precision,
        )
    };
    let mut fsm = artifacts.fsm_policy(cfg.sim.clone(), cfg.metric, cfg.nn_matching);
    let mut policies: Vec<&mut dyn Policy> =
        vec![&mut default_policy, &mut handcrafted, &mut gru, &mut fsm];
    let c = Comparison::run(&mut policies, &cfg.sim, &traces, 999);

    let with_oracle = args.has_flag("oracle");
    let mut headers = vec![
        "workload",
        "default",
        "handcrafted",
        "gru-drl",
        "extracted-fsm",
    ];
    if with_oracle {
        headers.push("static-oracle");
    }
    let mut table = Table::new("makespan comparison", &headers);
    let mut oracle_sum = 0.0;
    for (row, trace) in traces.iter().enumerate() {
        let mut cells = vec![
            c.trace_names[row].clone(),
            c.makespans[row][0].to_string(),
            c.makespans[row][1].to_string(),
            c.makespans[row][2].to_string(),
            c.makespans[row][3].to_string(),
        ];
        if with_oracle {
            let oracle = best_static_allocation(&cfg.sim, trace, 999 + row as u64);
            oracle_sum += oracle.makespan as f64;
            cells.push(format!("{} {:?}", oracle.makespan, oracle.allocation));
        }
        table.push_row(cells);
    }
    let mut mean_cells = vec![
        "MEAN".to_string(),
        format!("{:.1}", c.mean_makespan(0)),
        format!("{:.1}", c.mean_makespan(1)),
        format!("{:.1}", c.mean_makespan(2)),
        format!("{:.1}", c.mean_makespan(3)),
    ];
    if with_oracle {
        mean_cells.push(format!("{:.1}", oracle_sum / traces.len() as f64));
    }
    table.push_row(mean_cells);
    write!(out, "{}", table.render())?;
    writeln!(
        out,
        "reductions: handcrafted {:.1}% vs default; gru {:.1}% vs handcrafted; \
         fsm {:+.1}% vs gru",
        c.reduction_vs(1, 0) * 100.0,
        c.reduction_vs(2, 1) * 100.0,
        -c.reduction_vs(3, 2) * 100.0
    )?;
    Ok(())
}

/// Scenario-generic evaluation: the scenario's baselines, the greedy GRU
/// teacher and the extracted FSM, compared over the vector-policy path.
fn evaluate_generic(
    args: &Args,
    cfg: &PipelineConfig,
    artifacts: &PipelineArtifacts,
    traces: &[WorkloadTrace],
    out: &mut impl Write,
) -> Result<(), CliError> {
    if args.has_flag("oracle") {
        return Err(err(format!(
            "--oracle enumerates static core allocations and only applies to \
             dorado-migration, not {}",
            cfg.scenario
        )));
    }
    let scenario = cfg.scenario.get();
    let mut baselines = scenario.baselines(&cfg.sim);
    let mut gru = if cfg.infer_precision == Precision::Exact {
        GruVecPolicy::new(artifacts.agent.clone())
    } else {
        GruVecPolicy::packed(artifacts.agent.clone(), cfg.infer_precision)
    };
    let mut fsm = artifacts.fsm_executor(cfg.metric, cfg.nn_matching);
    let mut policies: Vec<&mut dyn VecPolicy> = baselines
        .iter_mut()
        .map(|b| b.as_mut() as &mut dyn VecPolicy)
        .collect();
    policies.push(&mut gru);
    policies.push(&mut fsm);
    let c = Comparison::run_vec(scenario, &cfg.sim, &mut policies, traces, 999);

    let mut headers = vec!["workload".to_string()];
    headers.extend(c.policy_names.iter().cloned());
    let mut table = Table::new(
        format!("makespan comparison ({})", scenario.name()),
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for (row, name) in c.trace_names.iter().enumerate() {
        let mut cells = vec![name.clone()];
        cells.extend(c.makespans[row].iter().map(usize::to_string));
        table.push_row(cells);
    }
    let mut mean_cells = vec!["MEAN".to_string()];
    mean_cells.extend((0..c.policy_names.len()).map(|col| format!("{:.1}", c.mean_makespan(col))));
    table.push_row(mean_cells);
    write!(out, "{}", table.render())?;

    let gru_col = c.column("gru-drl").expect("gru column exists");
    let fsm_col = c.column("extracted-fsm").expect("fsm column exists");
    let best_baseline = (0..c.policy_names.len())
        .filter(|&col| col != gru_col && col != fsm_col)
        .min_by(|&a, &b| {
            c.mean_makespan(a)
                .partial_cmp(&c.mean_makespan(b))
                .expect("finite means")
        });
    match best_baseline {
        Some(col) => writeln!(
            out,
            "reductions: gru {:.1}% vs best baseline ({}); fsm {:+.1}% vs gru",
            c.reduction_vs(gru_col, col) * 100.0,
            c.policy_names[col],
            -c.reduction_vs(fsm_col, gru_col) * 100.0
        )?,
        // A scenario is free to register no baselines.
        None => writeln!(
            out,
            "reductions: fsm {:+.1}% vs gru",
            -c.reduction_vs(fsm_col, gru_col) * 100.0
        )?,
    }
    Ok(())
}

/// Parses the `--fault` family of flags into a [`FaultPlan`]. The fault
/// seed derives from the pipeline seed so identical invocations are
/// bit-reproducible without a separate knob.
fn fault_plan(args: &Args, seed: u64) -> Result<FaultPlan, CliError> {
    let kind = args.get("fault").unwrap_or("none");
    let fault = match kind {
        "none" => return Ok(FaultPlan::none()),
        // Observation-level distribution shift: the sensor's scale slips.
        "drift" => Fault::Rescale {
            factor: args.get_f64("factor", 3.0) as f32,
        },
        "noise" => Fault::Noise {
            amplitude: args.get_f64("amplitude", 0.5) as f32,
        },
        "corrupt" => Fault::Corrupt {
            prob: args.get_f64("prob", 0.5),
        },
        "stuck" => Fault::Stuck,
        // Observations arrive late by a fixed lag.
        "delay" => Fault::Delay {
            steps: args.get_u64("delay-steps", 8),
        },
        // Observations are lost and the last delivered one repeats.
        "drop" => Fault::Drop {
            prob: args.get_f64("prob", 0.5),
        },
        other => {
            return Err(err(format!(
                "unknown --fault {other:?} (none|drift|noise|corrupt|stuck|delay|drop)"
            )))
        }
    };
    let from = args.get_u64("fault-from", 0);
    let to = args.get_u64("fault-to", u64::MAX);
    if to <= from {
        return Err(err(format!(
            "--fault-to ({to}) must be greater than --fault-from ({from})"
        )));
    }
    Ok(FaultPlan::single(seed.wrapping_add(13), fault, from, to))
}

fn cmd_guard_eval(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let cfg = scale_config(args)?;
    // Unlike the other artifact consumers, --out here names the Markdown
    // report, so the artifact directory comes from --artifacts alone.
    let dir = PathBuf::from(args.get("artifacts").unwrap_or("lahd-artifacts"));
    let artifacts = load_artifacts(&cfg, &dir).ok_or_else(|| {
        err(format!(
            "no artifacts for this configuration (scenario {}) in {} — run `lahd pipeline` \
             first (the --scenario/--scale/--hidden/--seed options must match)",
            cfg.scenario,
            dir.display()
        ))
    })?;

    let episodes = args.get_usize("episodes", 0);
    let mut eval = GuardEvalConfig {
        fault: fault_plan(args, cfg.seed)?,
        max_episodes: (episodes > 0).then_some(episodes),
        workload_scale: args.get_f64("workload-scale", 1.0),
        counterfactuals: !args.has_flag("no-counterfactuals"),
        ..GuardEvalConfig::default()
    };
    eval.guard.seed = cfg.seed;

    let report = guard_eval(&cfg, &artifacts, eval);
    let s = &report.snapshot;
    writeln!(
        out,
        "guard-eval {} (fault {}): {} steps, {} shadow comparisons ({} diverged), \
         drift peak {:.2}",
        report.scenario, report.fault, s.steps, s.compared, s.diverged, s.drift_peak
    )?;
    for t in &s.transitions {
        writeln!(
            out,
            "  step {:>5}: {} -> {} (tier {} -> {}, {})",
            t.step, t.from, t.to, t.from_tier, t.to_tier, t.reason
        )?;
    }
    writeln!(
        out,
        "final state {}, serving tier {} ({}); tier steps {:?}",
        s.state, s.active_tier, s.tier_names[s.active_tier], s.tier_steps
    )?;
    if let Some(path) = args.get("report") {
        fs::write(path, report.to_markdown())?;
        writeln!(out, "incident report written to {path}")?;
    }
    if let Some(path) = args.get("json") {
        fs::write(path, report.to_json())?;
        writeln!(out, "json report written to {path}")?;
    }
    Ok(())
}

/// Parses the daemon-shape flags shared by `serve` and self-hosted
/// `serve-bench`.
fn serve_config(args: &Args) -> ServeConfig {
    let d = ServeConfig::default();
    ServeConfig {
        shards: args.get_usize("shards", d.shards),
        queue_capacity: args.get_usize("queue-capacity", d.queue_capacity),
        batch_max: args.get_usize("batch-max", d.batch_max),
        max_streams: args.get_usize("max-streams", d.max_streams),
        allow_chaos: args.has_flag("allow-chaos"),
        audit_every: args.get_u64("audit-every", d.audit_every),
        audit_budget: args.get_usize("audit-budget", d.audit_budget),
        hibernate_after: args.get_u64("hibernate-after", d.hibernate_after),
        sweep_every: args.get_u64("sweep-every", d.sweep_every),
        max_hibernated: args.get_usize("max-hibernated", d.max_hibernated),
        state_dir: args.get("state-dir").map(PathBuf::from),
        checkpoint_every: args.get_u64("checkpoint-every", d.checkpoint_every),
        recover: args.has_flag("recover"),
    }
}

fn cmd_serve(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let cfg = scale_config(args)?;
    let dir = PathBuf::from(args.get("artifacts").unwrap_or("lahd-artifacts"));
    let socket = PathBuf::from(args.get("socket").unwrap_or("lahd-serve.sock"));
    let serve_cfg = serve_config(args);
    let handle = serve_dir(&cfg, &dir, serve_cfg.clone(), &socket).map_err(err)?;
    writeln!(
        out,
        "serving {} ({} precision) from {} on {} — {} shards, queue {}, batch {}; \
         send a shutdown request to stop",
        cfg.scenario,
        cfg.infer_precision.name(),
        dir.display(),
        socket.display(),
        serve_cfg.shards,
        serve_cfg.queue_capacity,
        serve_cfg.batch_max,
    )?;
    out.flush()?;
    handle.wait();
    writeln!(out, "daemon stopped")?;
    Ok(())
}

fn cmd_serve_bench(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let cfg = scale_config(args)?;
    let dir = PathBuf::from(args.get("artifacts").unwrap_or("lahd-artifacts"));

    // --streams-sweep N,N,… replaces the load/chaos phases with the
    // memory-scaling sweep: one self-hosted daemon per size, measured
    // bytes/stream + closed-loop decisions/sec.
    if let Some(spec) = args.get("streams-sweep") {
        if args.get("socket").is_some() {
            return Err(err(
                "--streams-sweep self-hosts one daemon per size and measures \
                 in-process memory; it cannot target an external --socket",
            ));
        }
        if args.has_flag("chaos") {
            return Err(err(
                "--streams-sweep runs without the chaos plan; drop --chaos \
                 (run a separate serve-bench for it)",
            ));
        }
        let mut sizes = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let n: u64 = part.parse().map_err(|_| {
                err(format!(
                    "--streams-sweep wants comma-separated stream counts, got {part:?}"
                ))
            })?;
            sizes.push(n);
        }
        if sizes.is_empty() {
            return Err(err("--streams-sweep needs at least one stream count"));
        }
        let seed = args.get_u64("bench-seed", BenchConfig::default().seed);
        let sweep =
            run_streams_sweep(&cfg, &dir, &serve_config(args), &sizes, seed).map_err(err)?;
        for p in &sweep.points {
            writeln!(
                out,
                "streams {}: admitted {}, {:.0} decisions/s, {} live B/stream \
                 ({} rss B/stream), shed {}; tiers compact={} resident={} hibernated={}",
                p.streams,
                p.admitted,
                p.decisions_per_sec,
                p.live_bytes_per_stream,
                p.rss_bytes_per_stream,
                p.shed,
                p.compact,
                p.resident,
                p.hibernated
            )?;
        }
        if let Some(path) = args.get("json") {
            fs::write(path, sweep.to_json())?;
            writeln!(out, "json summary written to {path}")?;
        }
        if let Some(path) = args.get("bench-json") {
            let mut rows = sweep.bench_rows().join("\n");
            rows.push('\n');
            fs::write(path, rows)?;
            writeln!(out, "bench rows written to {path}")?;
        }
        return Ok(());
    }

    let defaults = BenchConfig::default();
    let mut bench = BenchConfig {
        streams: args.get_u64("streams", defaults.streams),
        rounds: args.get_u64("rounds", defaults.rounds),
        requests: args.get_u64("requests", defaults.requests),
        rate: args.get_f64("rate", defaults.rate),
        seed: args.get_u64("bench-seed", defaults.seed),
        chaos: None,
    };
    let with_chaos = args.has_flag("chaos");
    let corrupt = if with_chaos {
        if bench.rounds == 0 {
            return Err(err(
                "--chaos needs --rounds > 0 (the plan runs in the lockstep phase)",
            ));
        }
        let corrupt =
            std::env::temp_dir().join(format!("lahd-serve-bench-corrupt-{}", std::process::id()));
        prepare_corrupt_candidate(&dir, &corrupt)?;
        bench.chaos = Some(ChaosPlan::standard(bench.rounds, corrupt.clone()));
        Some(corrupt)
    } else {
        None
    };

    // --socket points the harness at an external daemon; otherwise a
    // daemon is self-hosted for the duration of the run (with chaos
    // injection enabled iff the plan needs it).
    let (socket, hosted) = match args.get("socket") {
        Some(path) => (PathBuf::from(path), None),
        None => {
            let socket =
                std::env::temp_dir().join(format!("lahd-serve-bench-{}.sock", std::process::id()));
            let serve_cfg = ServeConfig {
                allow_chaos: with_chaos,
                ..serve_config(args)
            };
            let daemon = HostedDaemon::in_process(&cfg, &dir, serve_cfg, &socket).map_err(err)?;
            (socket, Some(daemon))
        }
    };

    let result = run_bench(&socket, &dir, &bench);
    if let Some(daemon) = hosted {
        daemon.shutdown().map_err(err)?;
    } else if args.has_flag("shutdown-daemon") {
        // Ask the external daemon to exit once the run is over (CI smoke
        // gates wait on its process and assert a clean exit).
        let mut client = ServeClient::connect_retry(&socket, std::time::Duration::from_secs(5))?;
        client.call(&Request::Shutdown)?;
    }
    if let Some(corrupt) = corrupt {
        let _ = fs::remove_dir_all(&corrupt);
    }
    let summary = result.map_err(err)?;

    if let Some(chaos) = &summary.chaos {
        writeln!(out, "chaos: {}", chaos.to_json())?;
        if with_chaos {
            writeln!(
                out,
                "chaos plan {}",
                if chaos.all_good() {
                    "SURVIVED"
                } else {
                    "FAILED"
                }
            )?;
        }
    }
    if let Some(perf) = &summary.perf {
        writeln!(
            out,
            "perf: {:.0} decisions/s over {} requests; latency p50 {}ns, p99 {}ns, \
             p999 {}ns; shed {}, deadline misses {}; tiers fsm={} quant={} exact={} \
             baseline={}",
            perf.decisions_per_sec,
            perf.requests,
            perf.p50_ns,
            perf.p99_ns,
            perf.p999_ns,
            perf.shed,
            perf.deadline_misses,
            perf.tier_decisions[0],
            perf.tier_decisions[1],
            perf.tier_decisions[2],
            perf.tier_decisions[3]
        )?;
    }
    if let Some(path) = args.get("json") {
        fs::write(path, summary.to_json())?;
        writeln!(out, "json summary written to {path}")?;
    }
    if let Some(path) = args.get("bench-json") {
        let mut rows = summary.bench_rows().join("\n");
        rows.push('\n');
        fs::write(path, rows)?;
        writeln!(out, "bench rows written to {path}")?;
    }
    if with_chaos && summary.chaos.as_ref().is_some_and(|c| !c.all_good()) {
        return Err(err("chaos plan FAILED — see the summary above"));
    }
    Ok(())
}

/// Damages a killed daemon's state directory with seeded disk faults:
/// a torn tail on the most populated checkpoint (provably loses its last
/// record), a bit flip inside another checkpoint's first record payload,
/// and a duplicated journal record (which replay must absorb
/// idempotently). Returns a deterministic description of what was done.
fn inject_disk_faults(state_dir: &Path, seed: u64) -> Result<String, String> {
    let infos = persist::inspect(state_dir);
    let target = infos
        .iter()
        .max_by_key(|c| (c.records, std::cmp::Reverse(c.shard)))
        .filter(|c| c.records > 0)
        .ok_or("no populated checkpoint to corrupt")?;
    let frame = persist::FRAME_OVERHEAD + REC_BYTES;
    let mut applied = Vec::new();

    let ckpt = persist::ckpt_path(state_dir, target.shard);
    let len = fs::metadata(&ckpt)
        .map_err(|e| format!("stat {} failed: {e}", ckpt.display()))?
        .len() as usize;
    let torn = DiskFault::TornWrite {
        keep: len - 1 - (seed as usize % (frame / 2)),
    };
    torn.apply_to_file(&ckpt)
        .map_err(|e| format!("torn write failed: {e}"))?;
    applied.push(format!("shard-{}.ckpt {}", target.shard, torn.describe()));

    if let Some(other) = infos
        .iter()
        .filter(|c| c.records > 0 && c.shard != target.shard)
        .max_by_key(|c| c.records)
    {
        let path = persist::ckpt_path(state_dir, other.shard);
        let flip = DiskFault::BitFlip {
            at: persist::CKPT_HEADER_BYTES + persist::FRAME_OVERHEAD + (seed as usize % REC_BYTES),
            mask: 0x40,
        };
        flip.apply_to_file(&path)
            .map_err(|e| format!("bit flip failed: {e}"))?;
        applied.push(format!("shard-{}.ckpt {}", other.shard, flip.describe()));
    }

    // Journal: append one evict for a key that cannot exist (replaying it
    // is a no-op) and duplicate it — the duplicate-record fault proper.
    let wal = persist::wal_path(state_dir, target.shard);
    let rec = persist::encode_wal_record(persist::WAL_EVICT, (1u64 << 60) | seed);
    let mut bytes = fs::read(&wal).map_err(|e| format!("read {} failed: {e}", wal.display()))?;
    let at = bytes.len();
    bytes.extend_from_slice(&rec);
    fs::write(&wal, bytes).map_err(|e| format!("extend journal failed: {e}"))?;
    let dup = DiskFault::DuplicateRecord {
        at,
        len: persist::WAL_REC_BYTES,
    };
    dup.apply_to_file(&wal)
        .map_err(|e| format!("journal duplication failed: {e}"))?;
    applied.push(format!("shard-{}.wal {}", target.shard, dup.describe()));

    Ok(applied.join("; "))
}

fn cmd_serve_drill(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let cfg = scale_config(args)?;
    let dir = PathBuf::from(args.get("artifacts").unwrap_or("lahd-artifacts"));
    load_artifacts(&cfg, &dir).ok_or_else(|| {
        err(format!(
            "no artifacts for this configuration in {} — run `lahd pipeline` first",
            dir.display()
        ))
    })?;
    let exe =
        std::env::current_exe().map_err(|e| err(format!("cannot locate the lahd binary: {e}")))?;
    let work = args.get("work-dir").map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("lahd-serve-drill-{}", std::process::id()))
    });
    fs::create_dir_all(&work)?;

    // The child daemons re-parse the artifact configuration, so every
    // flag it is parsed from is forwarded verbatim. Audits stay off:
    // resident ladders are not persisted, and the drill pins bit-identical
    // resume.
    let mut serve_args: Vec<String> = vec![
        "--artifacts".into(),
        dir.display().to_string(),
        "--audit-every".into(),
        "0".into(),
    ];
    for flag in SCALE_FLAGS.iter().chain(&["shards"]) {
        if let Some(v) = args.get(flag) {
            serve_args.push(format!("--{flag}"));
            serve_args.push(v.to_string());
        }
    }
    let d = DrillConfig::default();
    let drill = DrillConfig {
        streams: args.get_u64("streams", d.streams),
        rounds_before: args.get_u64("rounds-before", d.rounds_before),
        rounds_after: args.get_u64("rounds-after", d.rounds_after),
        seed: args.get_u64("drill-seed", d.seed),
        serve_args,
    };
    let with_faults = args.has_flag("corrupt");
    let seed = drill.seed;
    let inject = move |state: &Path| inject_disk_faults(state, seed);
    let hook: Option<&dyn Fn(&Path) -> Result<String, String>> =
        if with_faults { Some(&inject) } else { None };

    let outcome = run_restart_drill(&exe, &dir, &work, &drill, hook).map_err(err)?;
    writeln!(out, "drill: {}", outcome.to_json())?;
    if let Some(path) = args.get("json") {
        fs::write(path, outcome.to_json())?;
        writeln!(out, "json summary written to {path}")?;
    }
    if args.get("work-dir").is_none() {
        let _ = fs::remove_dir_all(&work);
    }
    // Gates: the clean drill must resume everything bit-identically; the
    // corrupt drill must quarantine the damage and still exit cleanly
    // (losing the damaged streams' cursors is expected, lockstep is not).
    if with_faults {
        if outcome.quarantined == 0 || !outcome.clean_exit {
            return Err(err(format!(
                "corrupt drill FAILED: quarantined={} clean_exit={} (want quarantined>0 \
                 and a clean exit)",
                outcome.quarantined, outcome.clean_exit
            )));
        }
        writeln!(
            out,
            "corrupt drill SURVIVED: quarantined {} record(s), resumed {}/{} streams",
            outcome.quarantined, outcome.recovered, outcome.admitted
        )?;
    } else {
        if !outcome.all_good() {
            return Err(err(format!(
                "clean drill FAILED: resumed_pct={} lockstep={} distinct_actions={} \
                 clean_exit={} (want >=99, true, >=2, true)",
                outcome.resumed_pct, outcome.lockstep, outcome.distinct_actions, outcome.clean_exit
            )));
        }
        writeln!(
            out,
            "clean drill SURVIVED: resumed {}/{} streams, action checksums identical \
             over {} distinct actions",
            outcome.recovered, outcome.admitted, outcome.distinct_actions
        )?;
    }
    Ok(())
}

fn cmd_explain(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let (cfg, artifacts) = load(args)?;
    if cfg.scenario != ScenarioId::DoradoMigration {
        return Err(err(format!(
            "explain's narrative report reads the Dorado observation layout and \
             does not yet support {}; inspect the machine via the saved fsm.txt \
             or `lahd_fsm::to_dot` with the scenario's action names",
            cfg.scenario
        )));
    }
    let mut policy = artifacts.fsm_policy(cfg.sim.clone(), cfg.metric, cfg.nn_matching);
    policy.record_trajectory(true);
    let mut trajectory = lahd_fsm::Trajectory::default();
    for (i, trace) in artifacts.real_traces.iter().enumerate() {
        policy.reset();
        let mut sim = StorageSim::new(cfg.sim.clone(), trace.clone(), 6000 + i as u64);
        sim.run_with(|obs| policy.act(obs));
        trajectory.steps.extend(policy.take_trajectory().steps);
    }
    let report = explain_fsm(&artifacts.fsm, &trajectory, &cfg.sim);
    match args.get("out") {
        Some(path) => {
            fs::write(path, &report)?;
            writeln!(out, "report written to {path}")?;
        }
        None => write!(out, "{report}")?,
    }
    Ok(())
}

fn cmd_traces(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let len = args.get_usize("len", 96);
    let seed = args.get_u64("seed", 2021);
    let standard = standard_trace_set(len, seed);
    let real = real_trace_set(10, len, seed);

    let mut table = Table::new(
        format!("synthetic traces ({len} intervals, seed {seed})"),
        &[
            "trace",
            "mean Q",
            "volume MiB/interval",
            "write %",
            "rate cv",
        ],
    );
    for trace in standard.iter().chain(&real) {
        let s = summarize(trace);
        table.push_row(vec![
            s.name.clone(),
            format!("{:.0}", s.mean_requests),
            format!("{:.0}", s.mean_volume_mib),
            format!("{:.0}%", s.write_volume_share * 100.0),
            format!("{:.2}", s.rate_cv),
        ]);
    }
    write!(out, "{}", table.render())?;

    if let Some(dir) = args.get("export") {
        let dir = Path::new(dir);
        fs::create_dir_all(dir)?;
        let mut count = 0;
        for trace in standard.iter().chain(&real) {
            let file_name = format!("{}.trace", trace.name.replace('/', "_"));
            let mut buf = Vec::new();
            write_trace(trace, &mut buf)?;
            fs::write(dir.join(&file_name), buf)?;
            count += 1;
        }
        writeln!(out, "exported {count} traces to {}", dir.display())?;
    }
    Ok(())
}

fn cmd_simulate(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let path = args
        .get("trace")
        .ok_or_else(|| err("--trace FILE is required"))?;
    let file = fs::File::open(path).map_err(|e| err(format!("cannot open {path}: {e}")))?;
    let trace: WorkloadTrace = read_trace(&mut BufReader::new(file))
        .map_err(|e| err(format!("cannot parse {path}: {e}")))?;
    let seed = args.get_u64("seed", 0);
    let cfg = SimConfig {
        record_history: true,
        ..SimConfig::default()
    };

    let policy_name = args.get("policy").unwrap_or("handcrafted");
    let mut default_policy = DefaultPolicy;
    let mut handcrafted = HandcraftedFsm::tuned();
    let policy: &mut dyn Policy = match policy_name {
        "default" => &mut default_policy,
        "handcrafted" => &mut handcrafted,
        other => {
            return Err(err(format!(
                "unknown --policy {other:?} (default|handcrafted)"
            )))
        }
    };

    policy.reset();
    let mut sim = StorageSim::new(cfg, trace.clone(), seed);
    let metrics = sim.run_with(|obs| policy.act(obs));
    let u = metrics.mean_utilization();
    writeln!(out, "trace {} ({} intervals)", trace.name, trace.len())?;
    writeln!(
        out,
        "policy {policy_name}: makespan {} (slowdown {:.2}), migrations {}, \
         mean utilisation N/K/R = {:.2}/{:.2}/{:.2}",
        metrics.makespan,
        metrics.slowdown().unwrap_or(0.0),
        metrics.migrations,
        u[0],
        u[1],
        u[2]
    )?;
    if metrics.truncated {
        writeln!(out, "warning: episode truncated at the interval cap")?;
    }
    Ok(())
}

fn cmd_scenarios(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    if args.has_flag("names") {
        for id in ScenarioId::ALL {
            writeln!(out, "{}", id.name())?;
        }
        return Ok(());
    }
    let mut table = Table::new(
        "registered scenarios",
        &["name", "obs dim", "actions", "description"],
    );
    for id in ScenarioId::ALL {
        let sc = id.get();
        table.push_row(vec![
            sc.name().to_string(),
            sc.obs_dim().to_string(),
            format!("{} ({})", sc.num_actions(), sc.action_names().join(", ")),
            sc.description().to_string(),
        ]);
    }
    write!(out, "{}", table.render())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(tokens: &[&str]) -> Result<String, CliError> {
        let args = Args::parse(tokens.iter().map(|s| s.to_string()));
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lahd-cli-{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn help_lists_all_subcommands() {
        let text = run_cli(&["help"]).unwrap();
        for sub in [
            "pipeline",
            "evaluate",
            "guard-eval",
            "serve",
            "serve-bench",
            "serve-drill",
            "explain",
            "traces",
            "simulate",
            "scenarios",
        ] {
            assert!(text.contains(sub), "usage missing {sub}");
        }
        // No arguments behaves like help.
        assert_eq!(run_cli(&[]).unwrap(), text);
    }

    #[test]
    fn scenarios_lists_the_registry() {
        let text = run_cli(&["scenarios"]).unwrap();
        assert!(text.contains("dorado-migration"));
        assert!(text.contains("readahead"));
        let names = run_cli(&["scenarios", "--names"]).unwrap();
        assert_eq!(names.lines().count(), ScenarioId::ALL.len());
        assert!(names.lines().any(|l| l == "readahead"));
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        let e = run_cli(&["pipeline", "--scenario", "warp-drive"]).unwrap_err();
        assert!(e.0.contains("unknown --scenario"));
        assert!(
            e.0.contains("readahead"),
            "error should list known scenarios"
        );
    }

    #[test]
    fn unknown_infer_precision_is_an_error() {
        let e = run_cli(&["pipeline", "--infer-precision", "fp64"]).unwrap_err();
        assert!(e.0.contains("unknown --infer-precision"));
        assert!(
            e.0.contains("exact") && e.0.contains("quantized"),
            "error should list known precisions: {}",
            e.0
        );
    }

    #[test]
    fn readahead_pipeline_then_evaluate_at_tiny_scale() {
        let dir = temp_dir("readahead");
        let out_flag = dir.to_str().unwrap();
        let text = run_cli(&[
            "pipeline",
            "--scenario",
            "readahead",
            "--scale",
            "tiny",
            "--out",
            out_flag,
        ])
        .unwrap();
        assert!(text.contains("artifacts saved"));

        let text = run_cli(&[
            "evaluate",
            "--scenario",
            "readahead",
            "--scale",
            "tiny",
            "--artifacts",
            out_flag,
        ])
        .unwrap();
        assert!(text.contains("makespan comparison (readahead)"));
        assert!(text.contains("ra-off"));
        assert!(text.contains("seq-share"));
        assert!(text.contains("MEAN"));

        // The Dorado-layout narrative report must refuse gracefully.
        let e = run_cli(&[
            "explain",
            "--scenario",
            "readahead",
            "--scale",
            "tiny",
            "--artifacts",
            out_flag,
        ])
        .unwrap_err();
        assert!(e.0.contains("does not yet support readahead"));

        // Loading under the default scenario must be rejected, not mixed
        // up — and the error must point at the scenario option.
        let e = run_cli(&["evaluate", "--scale", "tiny", "--artifacts", out_flag]).unwrap_err();
        assert!(e.0.contains("scenario dorado-migration"));
        assert!(e.0.contains("--scenario"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        let e = run_cli(&["frobnicate"]).unwrap_err();
        assert!(e.0.contains("unknown subcommand"));
    }

    #[test]
    fn traces_summary_and_export() {
        let dir = temp_dir("traces");
        let text = run_cli(&["traces", "--len", "16", "--export", dir.to_str().unwrap()]).unwrap();
        assert!(text.contains("std/oltp-database"));
        assert!(text.contains("exported 22 traces"));
        assert!(dir.join("std_video-streaming.trace").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_runs_an_exported_trace() {
        let dir = temp_dir("simulate");
        run_cli(&["traces", "--len", "16", "--export", dir.to_str().unwrap()]).unwrap();
        let trace_path = dir.join("std_web-server.trace");
        let text = run_cli(&[
            "simulate",
            "--trace",
            trace_path.to_str().unwrap(),
            "--policy",
            "default",
        ])
        .unwrap();
        assert!(text.contains("policy default: makespan"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_rejects_unknown_policy() {
        let dir = temp_dir("simulate-bad");
        run_cli(&["traces", "--len", "8", "--export", dir.to_str().unwrap()]).unwrap();
        let trace_path = dir.join("std_vdi.trace");
        let e = run_cli(&[
            "simulate",
            "--trace",
            trace_path.to_str().unwrap(),
            "--policy",
            "wizard",
        ])
        .unwrap_err();
        assert!(e.0.contains("unknown --policy"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipeline_then_evaluate_then_explain_at_tiny_scale() {
        let dir = temp_dir("full");
        let out_flag = dir.to_str().unwrap();
        let text = run_cli(&["pipeline", "--scale", "tiny", "--out", out_flag]).unwrap();
        assert!(text.contains("artifacts saved"));

        let text = run_cli(&["evaluate", "--scale", "tiny", "--artifacts", out_flag]).unwrap();
        assert!(text.contains("MEAN"));
        assert!(text.contains("reductions:"));

        // The same artifacts evaluated through the quantized fast tier
        // (i8 packed engine + polynomial activations) must also complete.
        let text = run_cli(&[
            "evaluate",
            "--scale",
            "tiny",
            "--artifacts",
            out_flag,
            "--infer-precision",
            "quantized",
        ])
        .unwrap();
        assert!(text.contains("MEAN"));
        assert!(text.contains("gru-drl"));

        let report_path = dir.join("report.md");
        let text = run_cli(&[
            "explain",
            "--scale",
            "tiny",
            "--artifacts",
            out_flag,
            "--out",
            report_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(text.contains("report written"));
        let report = fs::read_to_string(&report_path).unwrap();
        assert!(report.starts_with("# Extracted storage-tuning strategy"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn guard_eval_clean_and_faulted_at_tiny_scale() {
        let dir = temp_dir("guard-eval");
        let out_flag = dir.to_str().unwrap();
        run_cli(&["pipeline", "--scale", "tiny", "--out", out_flag]).unwrap();

        // Clean run: healthy end state, primary tier serving.
        let text = run_cli(&[
            "guard-eval",
            "--scale",
            "tiny",
            "--artifacts",
            out_flag,
            "--episodes",
            "2",
            "--no-counterfactuals",
        ])
        .unwrap();
        assert!(text.contains("guard-eval dorado-migration (fault none)"));
        assert!(text.contains("final state healthy, serving tier 0"));

        // Injected drift: the guard must report a fallback transition, and
        // the Markdown + JSON reports must land on disk.
        let md_path = dir.join("incident.md");
        let json_path = dir.join("incident.json");
        let text = run_cli(&[
            "guard-eval",
            "--scale",
            "tiny",
            "--artifacts",
            out_flag,
            "--episodes",
            "2",
            "--fault",
            "drift",
            "--fault-from",
            "32",
            "--no-counterfactuals",
            "--report",
            md_path.to_str().unwrap(),
            "--json",
            json_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(text.contains("fallen-back"), "no fallback in:\n{text}");
        let md = fs::read_to_string(&md_path).unwrap();
        assert!(md.starts_with("# Guard incident report"), "header: {md}");
        let json = fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"fallen-back\""), "json states: {json}");

        // Same flags again: the JSON report is bit-reproducible.
        let json_path2 = dir.join("incident2.json");
        run_cli(&[
            "guard-eval",
            "--scale",
            "tiny",
            "--artifacts",
            out_flag,
            "--episodes",
            "2",
            "--fault",
            "drift",
            "--fault-from",
            "32",
            "--no-counterfactuals",
            "--json",
            json_path2.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(json, fs::read_to_string(&json_path2).unwrap());

        let e = run_cli(&[
            "guard-eval",
            "--scale",
            "tiny",
            "--artifacts",
            out_flag,
            "--fault",
            "gremlins",
        ])
        .unwrap_err();
        assert!(e.0.contains("unknown --fault"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn guard_eval_runs_the_new_fault_kinds() {
        let dir = temp_dir("guard-eval-faults");
        let out_flag = dir.to_str().unwrap();
        run_cli(&["pipeline", "--scale", "tiny", "--out", out_flag]).unwrap();
        for fault in ["delay", "drop"] {
            let text = run_cli(&[
                "guard-eval",
                "--scale",
                "tiny",
                "--artifacts",
                out_flag,
                "--episodes",
                "1",
                "--fault",
                fault,
                "--fault-from",
                "16",
                "--no-counterfactuals",
            ])
            .unwrap();
            assert!(
                text.contains(&format!("(fault {fault}")),
                "{fault} missing from:\n{text}"
            );
        }
        // The error for an unknown kind advertises them.
        let e = run_cli(&[
            "guard-eval",
            "--scale",
            "tiny",
            "--artifacts",
            out_flag,
            "--fault",
            "gremlins",
        ])
        .unwrap_err();
        assert!(e.0.contains("delay") && e.0.contains("drop"), "{}", e.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_rejects_unknown_infer_precision_listing_choices() {
        // The precision flag is validated before any socket is bound, for
        // both daemon-side subcommands and guard-eval.
        for sub in ["serve", "serve-bench", "guard-eval"] {
            let e = run_cli(&[sub, "--infer-precision", "fp64"]).unwrap_err();
            assert!(e.0.contains("unknown --infer-precision"), "{sub}: {}", e.0);
            assert!(
                e.0.contains("exact") && e.0.contains("quantized"),
                "{sub} error should list known precisions: {}",
                e.0
            );
        }
    }

    #[test]
    fn serve_bench_self_hosts_a_chaos_run_and_writes_reports() {
        let dir = temp_dir("serve-bench");
        let out_flag = dir.to_str().unwrap();
        run_cli(&["pipeline", "--scale", "tiny", "--out", out_flag]).unwrap();

        let json_path = dir.join("summary.json");
        let rows_path = dir.join("rows.json");
        let text = run_cli(&[
            "serve-bench",
            "--scale",
            "tiny",
            "--artifacts",
            out_flag,
            "--streams",
            "4",
            "--rounds",
            "12",
            "--requests",
            "200",
            "--chaos",
            "--shards",
            "2",
            "--queue-capacity",
            "16",
            "--json",
            json_path.to_str().unwrap(),
            "--bench-json",
            rows_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(text.contains("chaos plan SURVIVED"), "{text}");
        assert!(text.contains("perf:"), "{text}");
        assert!(
            text.contains("tiers fsm="),
            "perf summary must report per-tier decision counts: {text}"
        );

        let json = fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"shard_recovered\":true"), "{json}");
        assert!(json.contains("\"reload_rejected\":true"), "{json}");
        assert!(json.contains("\"tier_decisions\":{\"fsm\":"), "{json}");
        let rows = fs::read_to_string(&rows_path).unwrap();
        assert!(
            rows.contains("serve_throughput/decisions_per_sec"),
            "{rows}"
        );
        assert!(rows.contains("serve_latency/p99_ns"), "{rows}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_daemon_answers_and_stops_on_shutdown() {
        let dir = temp_dir("serve-daemon");
        let out_flag = dir.to_str().unwrap();
        run_cli(&["pipeline", "--scale", "tiny", "--out", out_flag]).unwrap();
        let socket = dir.join("daemon.sock");

        let tokens: Vec<String> = [
            "serve",
            "--scale",
            "tiny",
            "--artifacts",
            out_flag,
            "--socket",
            socket.to_str().unwrap(),
            "--shards",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let daemon = std::thread::spawn(move || {
            let args = Args::parse(tokens.into_iter());
            let mut out = Vec::new();
            run(&args, &mut out).map(|()| String::from_utf8(out).expect("utf8 output"))
        });

        let mut client =
            ServeClient::connect_retry(&socket, std::time::Duration::from_secs(10)).unwrap();
        let profile = lahd_serve::load_profile(Path::new(out_flag)).unwrap();
        let obs: Vec<f32> = profile.dims.iter().map(|d| d.p50 as f32).collect();
        let resp = client
            .call(&Request::Decide {
                req_id: 42,
                stream: 0,
                deadline_us: 0,
                obs,
            })
            .unwrap();
        assert!(
            matches!(resp, lahd_serve::Response::Decision { req_id: 42, .. }),
            "{resp:?}"
        );
        // Chaos injection is off unless --allow-chaos is passed.
        match client.call(&Request::Crash { shard: 0 }).unwrap() {
            lahd_serve::Response::Err(msg) => assert!(msg.contains("disabled"), "{msg}"),
            other => panic!("chaos must be refused: {other:?}"),
        }
        client.call(&Request::Shutdown).unwrap();

        let text = daemon.join().expect("daemon thread").unwrap();
        assert!(text.contains("serving dorado-migration"), "{text}");
        assert!(text.contains("daemon stopped"), "{text}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn evaluate_without_artifacts_fails_clearly() {
        let e = run_cli(&[
            "evaluate",
            "--scale",
            "tiny",
            "--artifacts",
            "/nonexistent/lahd-artifacts",
        ])
        .unwrap_err();
        assert!(e.0.contains("run `lahd pipeline` first"));
    }
}
