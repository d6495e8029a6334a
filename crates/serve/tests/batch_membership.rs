//! Repeat requests for one stream inside one shard drain.
//!
//! A stream's first request in a drain joins the batched FSM lane; its
//! repeats must take the scalar path in arrival order, each stepping from
//! the state the one before it left. One shard is held while ten pipelined
//! decisions for one stream queue up behind it, so all ten land in one
//! drain, and every FSM-tier reply must equal a sequential replay of the
//! compiled machine. Stream `u64::MAX` is a valid wire id and must be
//! deduplicated like any other.

mod common;

use common::artifacts;
use lahd_fsm::CompiledCursor;
use lahd_guard::BaselineProfile;
use lahd_serve::{HostedDaemon, Request, Response, ServeBundle, ServeConfig, TIER_FSM};

/// Decisions per held drain; below `BATCH_MAX`, so one drain takes them all.
const REPEATS: usize = 10;

/// An in-band observation for `round`: each dimension sits at a
/// deterministic point of its interquartile band.
fn obs(profile: &BaselineProfile, round: usize) -> Vec<f32> {
    profile
        .dims
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let frac = ((round * 3 + i * 7) % 10) as f64 / 10.0;
            (d.p25 + (d.p75 - d.p25) * frac) as f32
        })
        .collect()
}

#[test]
fn repeats_in_one_drain_step_from_their_predecessors_state() {
    let (pcfg, dir) = artifacts();
    let bundle = ServeBundle::load(pcfg, dir).unwrap();
    let compiled = bundle.compiled.clone().expect("the seed-22 machine lowers");
    let socket = std::env::temp_dir().join("lahd_batch_membership.sock");
    let cfg = ServeConfig {
        shards: 1,
        allow_chaos: true,
        audit_every: 0,
        ..ServeConfig::default()
    };
    let daemon = HostedDaemon::in_process(pcfg, dir, cfg, &socket).unwrap();
    let mut client = daemon.connect().unwrap();
    let observations: Vec<Vec<f32>> = (0..REPEATS).map(|r| obs(&bundle.baseline, r)).collect();
    for stream in [5, u64::MAX] {
        let hold = Request::Hold { shard: 0, ms: 300 };
        assert_eq!(client.call(&hold).unwrap(), Response::Ok);
        for (req_id, o) in (0u64..).zip(&observations) {
            let decide = Request::Decide {
                req_id,
                stream,
                deadline_us: 0,
                obs: o.clone(),
            };
            client.send(&decide).unwrap();
        }
        let mut answers = vec![None; REPEATS];
        for _ in 0..REPEATS {
            match client.recv().unwrap() {
                Response::Decision {
                    req_id,
                    action,
                    tier,
                    ..
                } => answers[req_id as usize] = Some((action as usize, tier as usize)),
                other => panic!("stream {stream}: unexpected response {other:?}"),
            }
        }

        let mut cursor = CompiledCursor::new(&compiled);
        let mut scratch = compiled.make_scratch();
        let mut wrong = Vec::new();
        for (step, (o, answer)) in observations.iter().zip(answers).enumerate() {
            let expected = cursor.apply(compiled.step(o, cursor.state(), &mut scratch));
            let (action, tier) = answer.expect("every request answered once");
            assert_eq!(
                tier, TIER_FSM,
                "stream {stream}: step {step} left the FSM tier"
            );
            if action != expected {
                wrong.push((step, action, expected));
            }
        }
        assert!(
            wrong.is_empty(),
            "stream {stream}: {} of {REPEATS} replies differ from the sequential replay \
             as (step, served, replayed): {wrong:?}",
            wrong.len()
        );
    }
    assert!(daemon.shutdown().unwrap());
}
