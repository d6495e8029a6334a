//! A client's non-finite observation must be refused, not crash a shard.
//!
//! Only the observation width used to be checked, so a NaN reached the
//! guard's drift scorer once its stream was promoted and panicked the
//! worker: the request that tripped it was never answered, and every
//! stream on the shard restarted fresh. Every non-finite value is now
//! rejected at the shard's door with a typed error. Replies are read with
//! a timeout, so a regression fails instead of hanging.

mod common;

use std::time::Duration;

use common::artifacts;
use lahd_fsm::CompiledCursor;
use lahd_guard::BaselineProfile;
use lahd_serve::{HostedDaemon, Request, Response, ServeBundle, ServeConfig, TIER_FSM};

/// Bad requests sent for the poisoned stream (each followed by one healthy
/// request for a neighbour on the same shard).
const ROUNDS: usize = 64;

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
fn non_finite_observations_are_refused_and_the_shard_keeps_serving() {
    let (pcfg, dir) = artifacts();
    let bundle = ServeBundle::load(pcfg, dir).unwrap();
    let compiled = bundle.compiled.clone().expect("the seed-22 machine lowers");
    let socket = std::env::temp_dir().join("lahd_non_finite_obs.sock");
    let cfg = ServeConfig {
        shards: 1,
        audit_every: 0,
        ..ServeConfig::default()
    };
    let daemon = HostedDaemon::in_process(pcfg, dir, cfg, &socket).unwrap();
    let mut client = daemon.connect().unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let (bad_stream, good_stream) = (9u64, 5u64);
    let mut cursor = CompiledCursor::new(&compiled);
    let mut scratch = compiled.make_scratch();
    for round in 0..ROUNDS {
        let mut bad = obs(&bundle.baseline, round);
        let dim = round % bad.len();
        bad[dim] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][round % 3];
        let req_id = 2 * round as u64;
        let reply = client.call(&Request::Decide {
            req_id,
            stream: bad_stream,
            deadline_us: 0,
            obs: bad,
        });
        match reply {
            Ok(Response::Err(msg)) => assert!(msg.contains("non-finite"), "{msg}"),
            other => panic!("round {round}: a non-finite observation got {other:?}"),
        }

        let good = obs(&bundle.baseline, round);
        let reply = client.call(&Request::Decide {
            req_id: req_id + 1,
            stream: good_stream,
            deadline_us: 0,
            obs: good.clone(),
        });
        let expected = cursor.apply(compiled.step(&good, cursor.state(), &mut scratch));
        match reply {
            Ok(Response::Decision {
                req_id: id,
                action,
                tier,
                ..
            }) => {
                assert_eq!(id, req_id + 1);
                assert_eq!(
                    tier as usize, TIER_FSM,
                    "round {round}: healthy stream left the FSM"
                );
                assert_eq!(
                    action as usize, expected,
                    "round {round}: healthy stream diverged from the sequential replay"
                );
            }
            other => panic!("round {round}: healthy request got {other:?}"),
        }
    }

    let stats = client.stats().unwrap();
    assert_eq!(
        stats.panics, 0,
        "a non-finite observation panicked the shard"
    );
    assert_eq!(stats.restarts, 0);
    assert_eq!(
        stats.served, ROUNDS as u64,
        "only the healthy requests are served"
    );
    assert!(daemon.shutdown().unwrap());
}
