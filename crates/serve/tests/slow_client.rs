//! A client that stops reading.
//!
//! Shards write replies straight into each connection's socket, and one
//! write may block for at most the daemon's one-second write timeout. A
//! client that pipelines decisions and never reads therefore fills its
//! socket, holds its shard for that long at most, and is then disconnected
//! with its later replies dropped. Another connection on the same shard
//! keeps completing its rounds meanwhile (shed answers count), and `Stats`
//! still answers.

mod common;

use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use common::artifacts;
use lahd_serve::{
    load_profile, lockstep_round, read_frame, write_frame, HostedDaemon, Request, Response,
    ServeConfig,
};

/// Decisions the silent client pipelines.
const FLOOD: u64 = 50_000;
/// First stream id of the silent client, clear of the lockstep streams.
const FLOOD_STREAM_BASE: u64 = 1 << 20;
/// Lockstep streams and rounds of the reading client.
const STREAMS: u64 = 8;
const ROUNDS: u64 = 50;
/// The daemon's one-second write timeout plus slack for a loaded box.
const ROUNDS_BOUND: Duration = Duration::from_secs(1 + 5);
/// How long the silent client waits for a reply before it stops reading.
/// It only matters if the daemon never disconnects it.
const READ_BACK_TIMEOUT: Duration = Duration::from_secs(10);

#[test]
fn a_client_that_stops_reading_is_cut_off_and_others_keep_being_served() {
    let (pcfg, dir) = artifacts();
    let profile = load_profile(dir).unwrap();
    let socket = std::env::temp_dir().join("lahd_slow_client.sock");
    let cfg = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let daemon = HostedDaemon::in_process(pcfg, dir, cfg, &socket).unwrap();
    let silent = UnixStream::connect(&socket).unwrap();
    silent.set_read_timeout(Some(READ_BACK_TIMEOUT)).unwrap();
    let obs: Vec<f32> = profile
        .dims
        .iter()
        .map(|d| ((d.p25 + d.p75) / 2.0) as f32)
        .collect();
    let sent = AtomicU64::new(0);

    std::thread::scope(|s| {
        let mut writer = silent.try_clone().unwrap();
        let (sent, obs) = (&sent, &obs);
        let flood = s.spawn(move || {
            for i in 0..FLOOD {
                let decide = Request::Decide {
                    req_id: i,
                    stream: FLOOD_STREAM_BASE + i % 64,
                    deadline_us: 0,
                    obs: obs.clone(),
                };
                if write_frame(&mut writer, &decide.encode()).is_err() {
                    break;
                }
                sent.fetch_add(1, Ordering::SeqCst);
            }
        });
        while sent.load(Ordering::SeqCst) < 1_000 && !flood.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }

        let mut reader = daemon.connect().unwrap();
        let start = Instant::now();
        for round in 0..ROUNDS {
            let answers = lockstep_round(&mut reader, &profile, 22, STREAMS, round, STREAMS)
                .unwrap_or_else(|e| panic!("lockstep round failed beside a silent client: {e}"));
            assert_eq!(answers.len() as u64, STREAMS);
        }
        let took = start.elapsed();
        assert!(
            took < ROUNDS_BOUND,
            "{ROUNDS} lockstep rounds took {took:?} beside a silent client"
        );
        let snap = daemon.stats().expect("stats answer on a third connection");
        assert!(snap.served + snap.shed > 0, "{snap:?}");
        flood.join().unwrap();
    });

    let mut replies = BufReader::new(silent);
    let mut received = 0u64;
    while let Ok(Some(frame)) = read_frame(&mut replies) {
        if let Ok(Response::Decision { .. }) = Response::decode(&frame) {
            received += 1;
        }
    }
    let sent = sent.load(Ordering::SeqCst);
    assert!(
        received < sent,
        "the silent client got all {sent} replies; it should have been disconnected"
    );
    assert!(daemon.shutdown().unwrap());
}
