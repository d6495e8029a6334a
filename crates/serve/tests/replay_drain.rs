//! The batched shadow replay must not depend on drain composition.
//!
//! A shard replays together the guard windows that close in one drain.
//! Here six streams whose observations spread several interquartile
//! ranges around the training band walk down the ladder to the
//! last-resort tier (their nets answer several actions on the way), beside
//! two in-band streams that stay compact; one stream also sends a repeat
//! request each round. The same request sequence runs twice: once with
//! every request alone in its drain, once with each round held behind
//! `Request::Hold` so that its requests, the window-closing ones included,
//! share one drain. Every reply, the Stats tier counts and the resident
//! gauge must agree.

mod common;

use common::artifacts;
use lahd_guard::BaselineProfile;
use lahd_serve::{
    HostedDaemon, Request, Response, ServeConfig, TIER_BASELINE, TIER_EXACT, TIER_QUANT,
};

/// How far each demoted stream's observations spread around the band, in
/// interquartile ranges; the count is the number of such streams.
const SPREADS: [f64; 6] = [2.0, 4.0, 6.0, 8.0, 12.0, 3.0];
/// Streams in all: the demoted ones, then two in-band ones.
const STREAMS: u64 = SPREADS.len() as u64 + 2;
/// Lockstep rounds: enough to walk the spread streams down to the
/// last-resort tier and close several windows there.
const ROUNDS: usize = 180;

/// An observation for `stream` at `round`: inside each dimension's
/// interquartile band, plus the stream's spread around it.
fn obs(profile: &BaselineProfile, stream: u64, round: usize) -> Vec<f32> {
    let spread = SPREADS.get(stream as usize).copied().unwrap_or(0.0);
    profile
        .dims
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let frac = ((round * 3 + i * 7 + stream as usize * 5) % 10) as f64 / 10.0;
            let iqr = d.p75 - d.p25;
            (d.p25 + iqr * frac + (iqr + 0.1) * (frac - 0.5) * 2.0 * spread) as f32
        })
        .collect()
}

/// One round's requests: every stream once, and stream 0 twice (its
/// repeat takes the scalar lane behind the batched rows).
fn round_requests(profile: &BaselineProfile, round: usize) -> Vec<Request> {
    let first = (0..STREAMS).map(|stream| (stream, round));
    let repeat = (0, round + 5);
    first
        .chain([repeat])
        .enumerate()
        .map(|(k, (stream, at))| Request::Decide {
            req_id: (round * 16 + k) as u64,
            stream,
            deadline_us: 0,
            obs: obs(profile, stream, at),
        })
        .collect()
}

/// Replies in request order, as `(req_id, action, tier)`, plus the final
/// Stats tier counts and resident gauge.
type Run = (Vec<(u64, u16, u8)>, [u64; 4], u64);

fn run(shared_drains: bool) -> Run {
    let (pcfg, dir) = artifacts();
    let profile = lahd_serve::ServeBundle::load(pcfg, dir).unwrap().baseline;
    let socket = std::env::temp_dir().join(format!("lahd_replay_drain_{shared_drains}.sock"));
    let cfg = ServeConfig {
        shards: 1,
        allow_chaos: true,
        audit_every: 0,
        hibernate_after: 0,
        ..ServeConfig::default()
    };
    let daemon = HostedDaemon::in_process(pcfg, dir, cfg, &socket).unwrap();
    let mut client = daemon.connect().unwrap();
    let mut replies = Vec::new();
    for round in 0..ROUNDS {
        let requests = round_requests(&profile, round);
        let mut got = Vec::with_capacity(requests.len());
        if shared_drains {
            let hold = Request::Hold { shard: 0, ms: 30 };
            assert_eq!(client.call(&hold).unwrap(), Response::Ok);
            for req in &requests {
                client.send(req).unwrap();
            }
            for _ in &requests {
                got.push(client.recv().unwrap());
            }
        } else {
            for req in &requests {
                got.push(client.call(req).unwrap());
            }
        }
        let mut round_replies: Vec<(u64, u16, u8)> = got
            .into_iter()
            .map(|resp| match resp {
                Response::Decision {
                    req_id,
                    action,
                    tier,
                    ..
                } => (req_id, action, tier),
                other => panic!("round {round}: unexpected response {other:?}"),
            })
            .collect();
        round_replies.sort_unstable();
        replies.extend(round_replies);
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.panics, 0);
    assert!(daemon.shutdown().unwrap());
    (replies, stats.tier_decisions, stats.streams_resident)
}

#[test]
fn batched_window_replay_matches_one_request_per_drain() {
    let alone = run(false);
    let shared = run(true);
    // The run must reach what it tests: at least four streams answer
    // their last round from the last-resort tier, and the net tiers served
    // more than one action on the way down.
    let last_round = &alone.0[alone.0.len() - (STREAMS + 1) as usize..];
    let on_baseline = last_round
        .iter()
        .filter(|&&(_, _, tier)| tier as usize == TIER_BASELINE)
        .count();
    assert!(
        on_baseline >= 4,
        "only {on_baseline} streams reached the last-resort tier"
    );
    let mut net_actions: Vec<u16> = alone
        .0
        .iter()
        .filter(|&&(_, _, tier)| matches!(tier as usize, TIER_QUANT | TIER_EXACT))
        .map(|&(_, action, _)| action)
        .collect();
    net_actions.sort_unstable();
    net_actions.dedup();
    assert!(
        net_actions.len() >= 2,
        "the net tiers answered only {net_actions:?}"
    );
    assert_eq!(alone.1, shared.1, "tier counts differ");
    assert_eq!(alone.2, shared.2, "resident streams differ");
    let differing: Vec<_> = alone
        .0
        .iter()
        .zip(&shared.0)
        .filter(|(a, b)| a != b)
        .take(8)
        .collect();
    assert!(
        differing.is_empty(),
        "replies differ between one-request drains and shared drains \
         as (alone, shared): {differing:?}"
    );
    assert_eq!(alone.0.len(), shared.0.len());
}
