//! Stream-lifecycle acceptance pins for the tiered serving path.
//!
//! The hibernation guarantee is *exact equivalence*: a stream that gets
//! compacted into the arena and rehydrated later must emit byte-identical
//! actions and `FsmRunStats` versus one that stayed resident the whole
//! time. Pinned three ways: a proptest over random observation sequences
//! and split points against the real compiled machine; a daemon-level
//! lockstep comparison between a default daemon and one forced to
//! hibernate every idle stream every tick; and a full chaos plan on the
//! hibernating daemon whose same-seed summary stays byte-identical.

mod common;

use std::sync::OnceLock;

use common::artifacts;
use lahd_fsm::CompiledCursor;
use lahd_serve::{
    load_profile, lockstep_round, prepare_corrupt_candidate, run_bench, run_streams_sweep,
    BenchConfig, ChaosPlan, CompactStream, HibernationArena, HostedDaemon, ServeBundle,
    ServeConfig,
};
use proptest::collection;
use proptest::prelude::*;

fn bundle() -> &'static ServeBundle {
    static BUNDLE: OnceLock<ServeBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let (cfg, dir) = artifacts();
        ServeBundle::load(cfg, dir).expect("tiny artifacts must load")
    })
}

/// A daemon config that hibernates any stream idle for one tick and
/// sweeps on every tick — every inter-round gap parks streams, so the
/// lockstep load exercises hibernate/wake on nearly every round.
fn hibernating_cfg(allow_chaos: bool) -> ServeConfig {
    ServeConfig {
        shards: 2,
        queue_capacity: 16,
        hibernate_after: 1,
        sweep_every: 1,
        allow_chaos,
        ..ServeConfig::default()
    }
}

proptest! {
    /// Arena round-trip mid-run is invisible: same actions, same stats.
    #[test]
    fn hibernated_cursor_resumes_bit_identically(
        raw in collection::vec(collection::vec(-2.0f32..2.0, 1..8), 2..40),
        split_frac in 0.0f64..1.0,
    ) {
        let bundle = bundle();
        let compiled = bundle.compiled.as_deref().expect("tiny bundle compiles its FSM");
        let width = bundle.baseline.dims.len();
        // Map the raw vectors onto the bundle's observation width.
        let obs: Vec<Vec<f32>> = raw
            .iter()
            .map(|r| (0..width).map(|i| r[i % r.len()]).collect())
            .collect();
        let split = ((obs.len() as f64) * split_frac) as usize;

        let mut scratch = compiled.make_scratch();
        let mut resident = CompiledCursor::new(compiled);
        let mut resident_actions = Vec::new();
        for o in &obs {
            let outcome = compiled.step(o, resident.state(), &mut scratch);
            resident_actions.push(resident.apply(outcome));
        }

        let mut arena = HibernationArena::new(16);
        let mut roaming = CompiledCursor::new(compiled);
        let mut roaming_actions = Vec::new();
        for (i, o) in obs.iter().enumerate() {
            if i == split {
                // Park through the real serialize/deserialize path.
                arena.hibernate(7, &CompactStream::new(roaming.clone(), 4096));
                roaming = arena.wake(7).expect("just parked").cursor;
            }
            let outcome = compiled.step(o, roaming.state(), &mut scratch);
            roaming_actions.push(roaming.apply(outcome));
        }

        prop_assert_eq!(roaming_actions, resident_actions);
        prop_assert_eq!(roaming.save(), resident.save());
    }
}

#[test]
fn forced_hibernation_is_action_identical_to_default_daemon() {
    let (_, dir) = artifacts();
    let bench = BenchConfig {
        streams: 6,
        rounds: 16,
        requests: 0,
        seed: 33,
        chaos: None,
        ..BenchConfig::default()
    };
    let mut jsons = Vec::new();
    for (name, cfg) in [
        (
            "default",
            ServeConfig {
                shards: 2,
                queue_capacity: 16,
                ..ServeConfig::default()
            },
        ),
        ("hibernating", hibernating_cfg(false)),
    ] {
        let socket = std::env::temp_dir().join(format!("lahd_lifecycle_{name}.sock"));
        let (pcfg, _) = artifacts();
        let daemon = HostedDaemon::in_process(pcfg, dir, cfg, &socket).unwrap();
        let summary = run_bench(&socket, dir, &bench).unwrap();
        let chaos = summary.chaos.expect("lockstep phase ran");
        assert_eq!(
            chaos.responses, chaos.requests,
            "{name} answered everything"
        );
        assert!(chaos.prechaos_distinct_actions >= 2, "{}", chaos.to_json());
        jsons.push(chaos.to_json());
        assert!(daemon.shutdown().unwrap());
    }
    // The summary folds an FNV checksum over every served action, so this
    // equality is the hibernate/wake action-equivalence pin.
    assert_eq!(
        jsons[0], jsons[1],
        "hibernating daemon must serve byte-identical decisions"
    );
}

#[test]
fn chaos_plan_on_hibernating_daemon_is_survived_and_reproducible() {
    let (pcfg, dir) = artifacts();
    let corrupt = std::env::temp_dir().join("lahd_lifecycle_corrupt");
    prepare_corrupt_candidate(dir, &corrupt).unwrap();
    let rounds = 24;
    let bench = BenchConfig {
        streams: 8,
        rounds,
        requests: 0,
        seed: 7,
        chaos: Some(ChaosPlan::standard(rounds, corrupt)),
        ..BenchConfig::default()
    };
    let mut jsons = Vec::new();
    for run in 0..2 {
        let socket = std::env::temp_dir().join(format!("lahd_lifecycle_chaos_{run}.sock"));
        let daemon = HostedDaemon::in_process(pcfg, dir, hibernating_cfg(true), &socket).unwrap();
        let summary = run_bench(&socket, dir, &bench).unwrap();
        let chaos = summary.chaos.expect("chaos phase ran");
        assert!(chaos.all_good(), "plan survived with hibernation forced");
        assert!(chaos.prechaos_distinct_actions >= 2, "{}", chaos.to_json());
        jsons.push(chaos.to_json());
        assert!(daemon.shutdown().unwrap());
    }
    assert_eq!(
        jsons[0], jsons[1],
        "same-seed chaos JSON stays byte-identical"
    );
}

/// Graceful-restart lockstep: a durable daemon drained mid-load and
/// restarted with `recover` must serve the remaining rounds byte-
/// identically to a daemon that never stopped. This is the library-level
/// half of the recovery pin; the SIGKILL half runs through the real
/// binary in the CLI's `serve-drill` end-to-end test.
#[test]
fn durable_restart_resumes_streams_bit_identically() {
    let (pcfg, dir) = artifacts();
    let profile = load_profile(dir).unwrap();
    let (streams, seed) = (12u64, 5u64);
    let (warm_rounds, probe_rounds) = (5u64, 5u64);
    // One lockstep window; returns every action in (round, stream) order.
    let drive = |daemon: &HostedDaemon, rounds: std::ops::Range<u64>| -> Vec<u16> {
        let mut client = daemon.connect().unwrap();
        rounds
            .flat_map(|round| {
                lockstep_round(&mut client, &profile, seed, streams, round, streams).unwrap()
            })
            .map(|(action, _, _)| action)
            .collect()
    };
    let start = |name: &str, cfg: ServeConfig| {
        let socket = std::env::temp_dir().join(format!("lahd_lifecycle_durable_{name}.sock"));
        HostedDaemon::in_process(pcfg, dir, cfg, &socket).unwrap()
    };

    // Reference: one daemon, no persistence, never interrupted.
    let expected = {
        let cfg = ServeConfig {
            shards: 2,
            audit_every: 0,
            ..ServeConfig::default()
        };
        let daemon = start("ref", cfg);
        drive(&daemon, 0..warm_rounds);
        let expected = drive(&daemon, warm_rounds..warm_rounds + probe_rounds);
        assert!(daemon.shutdown().unwrap());
        expected
    };
    let mut distinct = expected.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(
        distinct.len() >= 2,
        "a one-action probe window pins nothing: {distinct:?}"
    );

    // Durable daemon in drain-only mode (checkpoint_every 0): the only
    // checkpoint is the one graceful shutdown writes.
    let state = std::env::temp_dir().join("lahd_lifecycle_durable_state");
    let _ = std::fs::remove_dir_all(&state);
    std::fs::create_dir_all(&state).unwrap();
    let durable = ServeConfig {
        shards: 2,
        audit_every: 0,
        state_dir: Some(state.clone()),
        checkpoint_every: 0,
        ..ServeConfig::default()
    };
    let daemon = start("warm", durable.clone());
    drive(&daemon, 0..warm_rounds);
    assert!(daemon.shutdown().unwrap());
    // Restart over the drained state and serve the probe window.
    let daemon = start(
        "recover",
        ServeConfig {
            recover: true,
            ..durable
        },
    );
    let resumed = drive(&daemon, warm_rounds..warm_rounds + probe_rounds);
    let snap = daemon.stats().unwrap();
    assert_eq!(
        snap.recovered_streams, streams,
        "every warm stream must come back from durable state"
    );
    assert_eq!(snap.quarantined_records, 0, "clean shutdown, clean scan");
    assert!(daemon.shutdown().unwrap());
    assert_eq!(
        resumed, expected,
        "recovered streams must serve byte-identical actions"
    );
}

#[test]
fn streams_sweep_admits_everyone_and_reports_rates() {
    let (pcfg, dir) = artifacts();
    let base = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let sweep = run_streams_sweep(pcfg, dir, &base, &[48, 96], 11).unwrap();
    assert_eq!(sweep.points.len(), 2);
    for p in &sweep.points {
        assert_eq!(
            p.admitted, p.streams,
            "closed-loop warm admits every stream"
        );
        assert_eq!(p.shed, 0, "windowed load never overruns the queues");
        assert!(p.decisions_per_sec > 0.0);
        assert_eq!(p.hibernated, 0, "the sweep disables the cold tier");
        assert_eq!(p.compact + p.resident, p.admitted);
    }
    let rows = sweep.bench_rows();
    assert!(rows.iter().any(|r| r.contains("serve_streams/48_per_sec")));
    // Unit tests run without the counting allocator installed: the live
    // measurement reads 0 and its rows must be omitted, not emitted as 0.
    assert!(!rows.iter().any(|r| r.contains("live_bytes_per_stream")));
    let json = sweep.to_json();
    assert!(json.contains("\"streams\":48") && json.contains("\"streams\":96"));
}
