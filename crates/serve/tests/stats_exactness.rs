//! Stats exactness under concurrent bursts.
//!
//! [`ServeClient::stats`] promises that every decision a client already
//! holds a reply for is counted. Four connections burst one decision per
//! stream over disjoint stream ranges into eight small shard queues, so
//! admission sheds part of every burst, and each connection reads `Stats`
//! the moment its last reply arrives, with no settling sleep. Every read
//! must count every reply any connection had received before it, and the
//! read by the last connection to finish must balance exactly.

mod common;

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use common::artifacts;
use lahd_guard::BaselineProfile;
use lahd_serve::{
    load_profile, HostedDaemon, MetricsSnapshot, Request, Response, ServeClient, ServeConfig,
    Source,
};

const CONNECTIONS: u64 = 4;
const STREAMS_PER_CONNECTION: u64 = 48;
const ROUNDS: u64 = 16;

/// An in-band observation for `(stream, round)`: each dimension sits at a
/// deterministic point of its interquartile band.
fn obs(profile: &BaselineProfile, stream: u64, round: u64) -> Vec<f32> {
    (0u64..)
        .zip(&profile.dims)
        .map(|(i, d)| {
            let frac = ((stream * 7 + round * 3 + i) % 10) as f64 / 10.0;
            (d.p25 + (d.p75 - d.p25) * frac) as f32
        })
        .collect()
}

/// Sends one decision per stream of `streams` for `round` before reading
/// any reply, then returns each reply's `(stream, source)`. Every reply
/// bumps `answered` as it arrives.
fn burst(
    client: &mut ServeClient,
    profile: &BaselineProfile,
    streams: Range<u64>,
    round: u64,
    answered: &AtomicU64,
) -> Vec<(u64, u8)> {
    for stream in streams.clone() {
        client
            .send(&Request::Decide {
                req_id: stream,
                stream,
                deadline_us: 0,
                obs: obs(profile, stream, round),
            })
            .unwrap();
    }
    streams
        .map(|_| match client.recv().unwrap() {
            Response::Decision { req_id, source, .. } => {
                answered.fetch_add(1, Ordering::SeqCst);
                (req_id, source)
            }
            other => panic!("unexpected response {other:?}"),
        })
        .collect()
}

/// One `Stats` answer: the parsed counters plus the per-tier decision
/// counts read straight from the document.
fn read_stats(client: &mut ServeClient) -> (MetricsSnapshot, Vec<u64>) {
    let Response::StatsJson(json) = client.call(&Request::Stats).unwrap() else {
        panic!("stats answered with something else");
    };
    let key = "\"tier_decisions\":[";
    let list = &json[json.find(key).expect("stats carry tier_decisions") + key.len()..];
    let tiers = list[..list.find(']').unwrap()]
        .split(',')
        .map(|v| v.parse().unwrap())
        .collect();
    (MetricsSnapshot::from_json(&json), tiers)
}

/// What one connection saw when it read `Stats`.
struct Read {
    /// Whether every other connection had already finished.
    last: bool,
    /// Replies received by all connections before the read was sent.
    answered: u64,
    snap: MetricsSnapshot,
    tiers: Vec<u64>,
    /// Streams of this connection that got at least one guarded answer.
    guarded: BTreeSet<u64>,
}

#[test]
fn stats_right_after_the_last_reply_count_every_answered_decision() {
    let (pcfg, dir) = artifacts();
    let profile = load_profile(dir).unwrap();
    let socket = std::env::temp_dir().join("lahd_stats_exactness.sock");
    let cfg = ServeConfig {
        shards: 8,
        queue_capacity: 16,
        ..ServeConfig::default()
    };
    let daemon = HostedDaemon::in_process(pcfg, dir, cfg, &socket).unwrap();
    let answered = AtomicU64::new(0);
    let finished = AtomicU64::new(0);
    let reads: Vec<Read> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (daemon, profile) = (&daemon, &profile);
                let (answered, finished) = (&answered, &finished);
                s.spawn(move || {
                    let mut client = daemon.connect().unwrap();
                    let range = c * STREAMS_PER_CONNECTION..(c + 1) * STREAMS_PER_CONNECTION;
                    let mut guarded = BTreeSet::new();
                    for round in 0..ROUNDS {
                        for (stream, source) in
                            burst(&mut client, profile, range.clone(), round, answered)
                        {
                            if source == Source::Guarded as u8 {
                                guarded.insert(stream);
                            }
                        }
                    }
                    let last = finished.fetch_add(1, Ordering::SeqCst) + 1 == CONNECTIONS;
                    let answered = answered.load(Ordering::SeqCst);
                    let (snap, tiers) = read_stats(&mut client);
                    Read {
                        last,
                        answered,
                        snap,
                        tiers,
                        guarded,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(daemon.shutdown().unwrap());

    let sent = CONNECTIONS * STREAMS_PER_CONNECTION * ROUNDS;
    for r in &reads {
        assert_eq!(
            r.tiers.iter().sum::<u64>(),
            r.snap.served,
            "per-tier decisions must sum to served: {:?}",
            r.snap
        );
        assert!(
            r.snap.served + r.snap.shed >= r.answered,
            "a read counted {} decisions after {} replies: {:?}",
            r.snap.served + r.snap.shed,
            r.answered,
            r.snap
        );
    }
    let last = reads
        .iter()
        .find(|r| r.last)
        .expect("one connection ends last");
    assert_eq!(
        last.snap.served + last.snap.shed,
        sent,
        "the last read must count every decision: {:?}",
        last.snap
    );
    let guarded = reads.iter().flat_map(|r| &r.guarded).count() as u64;
    assert_eq!(
        last.snap.streams_total(),
        guarded,
        "every stream with a guarded answer is live in exactly one tier: {:?}",
        last.snap
    );
}
