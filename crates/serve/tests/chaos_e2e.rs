//! End-to-end acceptance tests for the serving daemon.
//!
//! The headline test is the ISSUE's chaos acceptance criterion: under the
//! seeded chaos plan (shard kill + 10× burst + corrupt hot reload) the
//! daemon never exits, sheds to fallback tiers with labelled responses,
//! recovers the killed shard, keeps serving the old artifact after the
//! corrupt reload — and a same-seed re-run against a fresh daemon
//! produces a byte-identical chaos JSON summary.

mod common;

use std::path::{Path, PathBuf};

use common::artifacts;
use lahd_serve::{
    prepare_corrupt_candidate, run_bench, BenchConfig, ChaosPlan, HostedDaemon, Request, Response,
    ServeConfig,
};

fn chaos_serve_cfg() -> ServeConfig {
    ServeConfig {
        shards: 2,
        // Small enough that a held shard's queue genuinely fills during
        // the 10× burst, making shedding deterministic.
        queue_capacity: 16,
        allow_chaos: true,
        ..ServeConfig::default()
    }
}

fn start_daemon(socket: &Path) -> HostedDaemon {
    let (cfg, dir) = artifacts();
    HostedDaemon::in_process(cfg, dir, chaos_serve_cfg(), socket).expect("daemon must start")
}

fn chaos_bench_cfg(corrupt_dir: PathBuf) -> BenchConfig {
    let rounds = 24;
    BenchConfig {
        streams: 8,
        rounds,
        requests: 0, // chaos phase only; perf is covered separately
        seed: 7,
        chaos: Some(ChaosPlan::standard(rounds, corrupt_dir)),
        ..BenchConfig::default()
    }
}

#[test]
fn chaos_plan_is_survived_and_reproducible() {
    let (_, dir) = artifacts();
    let corrupt = std::env::temp_dir().join("lahd_serve_e2e_corrupt");
    prepare_corrupt_candidate(dir, &corrupt).unwrap();
    let bench = chaos_bench_cfg(corrupt);

    let mut jsons = Vec::new();
    for run in 0..2 {
        let socket = std::env::temp_dir().join(format!("lahd_serve_e2e_chaos_{run}.sock"));
        let daemon = start_daemon(&socket);
        let summary = run_bench(&socket, dir, &bench).expect("bench must complete");
        let chaos = summary.chaos.expect("chaos phase ran");
        assert!(
            chaos.prechaos_distinct_actions >= 2,
            "a one-action pre-chaos window pins nothing: {}",
            chaos.to_json()
        );

        assert_eq!(
            chaos.requests, chaos.responses,
            "shedding degrades, it never drops"
        );
        assert!(chaos.daemon_alive, "daemon answered stats after the plan");
        assert!(chaos.shard_recovered, "killed shard restarted and served");
        assert!(chaos.reload_rejected, "corrupt bundle rejected");
        assert!(
            chaos.generation_unchanged,
            "old artifact still serving after corrupt reload"
        );
        assert!(chaos.shed_observed, "burst produced labelled shed answers");
        assert!(
            chaos.deadline_fallback,
            "expired work answered from fallback"
        );

        let stats = daemon.stats().unwrap();
        assert!(stats.panics >= 1, "the injected crash was caught");
        assert!(stats.restarts >= 1, "the worker restarted");
        assert!(stats.reloads_rejected >= 1);
        assert_eq!(stats.reloads_ok, 0);
        assert!(stats.shed >= 1);
        assert!(stats.deadline_misses >= 1);

        jsons.push(chaos.to_json());
        assert!(daemon.shutdown().unwrap());
    }
    assert_eq!(
        jsons[0], jsons[1],
        "same-seed chaos runs must produce identical JSON summaries"
    );
}

#[test]
fn healthy_lockstep_runs_are_deterministic_and_fully_guarded() {
    let (_, dir) = artifacts();
    let bench = BenchConfig {
        streams: 6,
        rounds: 16,
        requests: 0,
        seed: 21,
        chaos: None,
        ..BenchConfig::default()
    };
    let mut jsons = Vec::new();
    for run in 0..2 {
        let socket = std::env::temp_dir().join(format!("lahd_serve_e2e_clean_{run}.sock"));
        let daemon = start_daemon(&socket);
        let summary = run_bench(&socket, dir, &bench).unwrap();
        let chaos = summary.chaos.unwrap();
        assert_eq!(chaos.requests, 6 * 16);
        assert_eq!(chaos.responses, chaos.requests);
        assert!(chaos.prechaos_distinct_actions >= 2, "{}", chaos.to_json());
        let stats = daemon.stats().unwrap();
        assert_eq!(stats.shed, 0, "no shedding under lockstep load");
        assert_eq!(stats.panics, 0);
        assert_eq!(stats.served, chaos.requests);
        jsons.push(chaos.to_json());
        assert!(daemon.shutdown().unwrap());
    }
    assert_eq!(jsons[0], jsons[1]);
}

#[test]
fn open_loop_perf_phase_reports_latency_and_throughput() {
    let (_, dir) = artifacts();
    let socket = std::env::temp_dir().join("lahd_serve_e2e_perf.sock");
    let daemon = start_daemon(&socket);
    let bench = BenchConfig {
        streams: 4,
        rounds: 0,
        requests: 400,
        seed: 3,
        chaos: None,
        ..BenchConfig::default()
    };
    let summary = run_bench(&socket, dir, &bench).unwrap();
    assert!(summary.chaos.is_none());
    let perf = summary.perf.as_ref().expect("perf phase ran");
    assert_eq!(perf.requests, 400);
    assert!(perf.decisions_per_sec > 0.0);
    assert!(perf.p50_ns > 0 && perf.p50_ns <= perf.p99_ns);
    assert!(perf.p99_ns <= perf.p999_ns);
    assert_eq!(summary.bench_rows().len(), 4);
    assert!(daemon.shutdown().unwrap());
}

#[test]
fn sound_hot_reload_swaps_the_generation_and_keeps_serving() {
    let (_, dir) = artifacts();
    let socket = std::env::temp_dir().join("lahd_serve_e2e_reload.sock");
    let daemon = start_daemon(&socket);
    let mut client = daemon.connect().unwrap();

    // A valid candidate (the serving directory itself) must be accepted.
    match client
        .call(&Request::Reload {
            dir: dir.to_string_lossy().into_owned(),
        })
        .unwrap()
    {
        Response::ReloadOk { generation } => assert_eq!(generation, 2),
        other => panic!("sound reload refused: {other:?}"),
    }

    // And decisions keep flowing on the new generation.
    let profile = lahd_serve::load_profile(dir).unwrap();
    let obs: Vec<f32> = profile.dims.iter().map(|d| d.p50 as f32).collect();
    let resp = client
        .call(&Request::Decide {
            req_id: 1,
            stream: 0,
            deadline_us: 0,
            obs,
        })
        .unwrap();
    assert!(
        matches!(resp, Response::Decision { req_id: 1, .. }),
        "got {resp:?}"
    );

    let stats = daemon.stats().unwrap();
    assert_eq!(stats.generation, 2);
    assert_eq!(stats.reloads_ok, 1);
    assert!(daemon.shutdown().unwrap());
}

#[test]
fn malformed_and_chaos_requests_get_typed_errors() {
    let (cfg, dir) = artifacts();
    let socket = std::env::temp_dir().join("lahd_serve_e2e_errors.sock");
    // Chaos disabled here: injection must be refused.
    let daemon = HostedDaemon::in_process(cfg, dir, ServeConfig::default(), &socket).unwrap();
    let mut client = daemon.connect().unwrap();

    match client.call(&Request::Crash { shard: 0 }).unwrap() {
        Response::Err(msg) => assert!(msg.contains("disabled"), "{msg}"),
        other => panic!("chaos injection must be refused: {other:?}"),
    }
    // Wrong observation width comes back as an error, not a panic.
    match client
        .call(&Request::Decide {
            req_id: 9,
            stream: 0,
            deadline_us: 0,
            obs: vec![0.0; 2],
        })
        .unwrap()
    {
        Response::Err(msg) => assert!(msg.contains("width"), "{msg}"),
        other => panic!("bad width must error: {other:?}"),
    }
    // Reload from a missing directory is rejected, daemon stays up.
    match client
        .call(&Request::Reload {
            dir: "/nonexistent/lahd".to_string(),
        })
        .unwrap()
    {
        Response::Err(msg) => assert!(msg.contains("rejected"), "{msg}"),
        other => panic!("missing dir must be rejected: {other:?}"),
    }
    let stats = daemon.stats().unwrap();
    assert_eq!(stats.generation, 1);
    assert_eq!(stats.reloads_rejected, 1);
    assert!(daemon.shutdown().unwrap());
}
