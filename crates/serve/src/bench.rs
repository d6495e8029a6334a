//! The deterministic load + chaos harness behind `lahd serve-bench`, the
//! streams sweep, and the crash-restart drill behind `lahd serve-drill`.
//!
//! Two phases against a running daemon:
//!
//! 1. **Chaos phase** (lockstep): `rounds` rounds of one decision per
//!    stream, collected round-by-round, with an optional [`ChaosPlan`]
//!    firing mid-run — kill a shard worker, hold a shard while bursting
//!    `burst_factor ×` load at it (exercising admission control and a
//!    deadline miss deterministically), and offer a corrupt artifact
//!    bundle for hot reload. The phase's summary contains only
//!    run-invariant facts (request/response totals, recovery booleans, a
//!    checksum of every pre-chaos action), so a same-seed re-run against a
//!    fresh daemon produces a byte-identical chaos JSON — the property the
//!    acceptance test pins.
//! 2. **Perf phase** (open loop): `requests` decisions sent on schedule at
//!    `rate` requests/second (0 = as fast as possible) regardless of
//!    response progress, latencies recorded client-side into a log-bucket
//!    histogram. Reported decisions/sec and p50/p99/p999 feed the bench
//!    snapshot rows (`serve_throughput/…`, `serve_latency/…`).
//!
//! Every one-decision-per-stream round — the chaos phase's ordinary
//! rounds, the sweep's warm and timed rounds, the drill's windows — goes
//! through one function, [`lockstep_round`]; only the chaos burst round is
//! bespoke. Every daemon a harness hosts itself is a [`HostedDaemon`],
//! in-process or as a `lahd serve` child. A checksummed window also
//! reports how many distinct actions it held: a window answering one
//! action everywhere would checksum the same for a daemon that lost every
//! cursor, so the pins require at least two.
//!
//! Observations are synthesised per `(stream, round)` from the artifact
//! directory's `baseline.profile` (uniform inside each dimension's
//! interquartile band), so the traffic looks healthy to the guards and is
//! a pure function of the bench seed.

use std::collections::{BTreeSet, HashMap};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use lahd_core::PipelineConfig;
use lahd_guard::BaselineProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::client::ServeClient;
use crate::daemon::{serve_dir, shard_of, ServeConfig, ServeHandle};
use crate::metrics::{LatencyHistogram, MetricsSnapshot};
use crate::persist;
use crate::protocol::{Request, Response, Source};

/// When chaos events fire, relative to the lockstep round counter.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// Round at which the target shard's worker is crashed.
    pub kill_round: u64,
    /// Shard whose worker is crashed (also the shard held during the
    /// burst).
    pub kill_shard: u32,
    /// Round at which the 10×-style burst fires.
    pub burst_round: u64,
    /// Load multiplier during the burst round.
    pub burst_factor: u64,
    /// How long the target shard is held (asleep) during the burst,
    /// milliseconds — this is what makes shedding deterministic.
    pub hold_ms: u32,
    /// Round at which the corrupt reload candidate is offered.
    pub reload_round: u64,
    /// Artifact directory of the (deliberately corrupt) reload candidate.
    pub corrupt_dir: PathBuf,
}

impl ChaosPlan {
    /// The standard plan: kill at ¼, burst 10× at ½, corrupt reload at ¾.
    pub fn standard(rounds: u64, corrupt_dir: PathBuf) -> Self {
        Self {
            kill_round: (rounds / 4).max(1),
            kill_shard: 0,
            burst_round: (rounds / 2).max(2),
            burst_factor: 10,
            hold_ms: 100,
            reload_round: (3 * rounds / 4).max(3),
            corrupt_dir,
        }
    }

    /// First round at which any chaos fires (the checksum covers rounds
    /// strictly before it).
    pub fn first_round(&self) -> u64 {
        self.kill_round.min(self.burst_round).min(self.reload_round)
    }

    fn describe(&self) -> String {
        format!(
            "kill shard {}@r{}, burst x{}@r{} (hold {}ms), corrupt-reload@r{}",
            self.kill_shard,
            self.kill_round,
            self.burst_factor,
            self.burst_round,
            self.hold_ms,
            self.reload_round
        )
    }
}

/// Harness parameters.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Number of concurrent streams.
    pub streams: u64,
    /// Lockstep rounds in the chaos phase (0 skips the phase).
    pub rounds: u64,
    /// Open-loop requests in the perf phase (0 skips the phase).
    pub requests: u64,
    /// Open-loop target rate, requests/second (0 = maximum).
    pub rate: f64,
    /// Seed for observation synthesis.
    pub seed: u64,
    /// Optional chaos plan for the lockstep phase.
    pub chaos: Option<ChaosPlan>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            streams: 8,
            rounds: 40,
            requests: 2000,
            rate: 0.0,
            seed: 7,
            chaos: None,
        }
    }
}

/// Run-invariant chaos-phase outcome; [`ChaosOutcome::to_json`] is the
/// byte-reproducible summary the acceptance test compares.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosOutcome {
    /// Echo of the bench seed.
    pub seed: u64,
    /// Echo of the stream count.
    pub streams: u64,
    /// Echo of the round count.
    pub rounds: u64,
    /// Human-readable plan description ("none" without a plan).
    pub plan: String,
    /// Requests sent in the phase.
    pub requests: u64,
    /// Responses received (must equal `requests`: shedding degrades, it
    /// never drops).
    pub responses: u64,
    /// FNV-1a over every pre-chaos `(round, stream, action)` triple.
    pub prechaos_checksum: u64,
    /// Distinct actions among those pre-chaos answers; below 2 the
    /// checksum cannot tell a working daemon from one that lost every
    /// cursor.
    pub prechaos_distinct_actions: u64,
    /// The daemon still answered a stats request after the phase.
    pub daemon_alive: bool,
    /// The killed shard's worker restarted and served guarded decisions
    /// again afterwards (vacuously true without a plan).
    pub shard_recovered: bool,
    /// The corrupt reload candidate was rejected (vacuously true without a
    /// plan).
    pub reload_rejected: bool,
    /// The bundle generation did not change across the phase.
    pub generation_unchanged: bool,
    /// At least one burst request was shed to the fallback tier.
    pub shed_observed: bool,
    /// The deliberately-delayed request was answered from the fallback
    /// tier with the deadline label.
    pub deadline_fallback: bool,
}

impl ChaosOutcome {
    /// Stable-order JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"seed\":{},\"streams\":{},\"rounds\":{},\"plan\":\"{}\",",
                "\"requests\":{},\"responses\":{},\"prechaos_checksum\":\"{:#018x}\",",
                "\"prechaos_distinct_actions\":{},",
                "\"daemon_alive\":{},\"shard_recovered\":{},\"reload_rejected\":{},",
                "\"generation_unchanged\":{},\"shed_observed\":{},\"deadline_fallback\":{}}}"
            ),
            self.seed,
            self.streams,
            self.rounds,
            self.plan,
            self.requests,
            self.responses,
            self.prechaos_checksum,
            self.prechaos_distinct_actions,
            self.daemon_alive,
            self.shard_recovered,
            self.reload_rejected,
            self.generation_unchanged,
            self.shed_observed,
            self.deadline_fallback
        )
    }

    /// Whether every robustness property held.
    pub fn all_good(&self) -> bool {
        self.responses == self.requests
            && self.daemon_alive
            && self.shard_recovered
            && self.reload_rejected
            && self.generation_unchanged
    }
}

/// Perf-phase outcome (wall-clock, not pinned).
#[derive(Clone, Debug)]
pub struct PerfOutcome {
    /// Requests driven.
    pub requests: u64,
    /// End-to-end decisions per second.
    pub decisions_per_sec: f64,
    /// Latency bucket upper bounds, nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile bucket, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile bucket, nanoseconds.
    pub p999_ns: u64,
    /// Requests shed during the phase.
    pub shed: u64,
    /// Requests answered from the deadline fallback during the phase.
    pub deadline_misses: u64,
    /// Decisions answered by each ladder tier, indexed `[fsm, quant,
    /// exact, baseline]` — tallied client-side from the `tier` byte on
    /// every [`Response::Decision`], so it reflects what the daemon
    /// actually served (the compiled FSM tier should dominate under
    /// healthy traffic).
    pub tier_decisions: [u64; 4],
}

impl PerfOutcome {
    /// Stable-order JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"requests\":{},\"decisions_per_sec\":{:.1},\"p50_ns\":{},",
                "\"p99_ns\":{},\"p999_ns\":{},\"shed\":{},\"deadline_misses\":{},",
                "\"tier_decisions\":{{\"fsm\":{},\"quant\":{},\"exact\":{},\"baseline\":{}}}}}"
            ),
            self.requests,
            self.decisions_per_sec,
            self.p50_ns,
            self.p99_ns,
            self.p999_ns,
            self.shed,
            self.deadline_misses,
            self.tier_decisions[0],
            self.tier_decisions[1],
            self.tier_decisions[2],
            self.tier_decisions[3]
        )
    }
}

/// Everything one `serve-bench` run produced.
pub struct BenchSummary {
    /// Lockstep chaos-phase outcome (None when `rounds == 0`).
    pub chaos: Option<ChaosOutcome>,
    /// Open-loop perf-phase outcome (None when `requests == 0`).
    pub perf: Option<PerfOutcome>,
}

impl BenchSummary {
    /// Combined JSON document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"chaos\":{},\"perf\":{}}}",
            self.chaos
                .as_ref()
                .map_or("null".to_string(), ChaosOutcome::to_json),
            self.perf
                .as_ref()
                .map_or("null".to_string(), PerfOutcome::to_json)
        )
    }

    /// Criterion-shim-style rows for `bench_snapshot.sh` folding. The
    /// throughput row stores decisions/sec (higher is better — the compare
    /// gate keys off the `per_sec` suffix); latency rows store
    /// nanoseconds.
    pub fn bench_rows(&self) -> Vec<String> {
        let Some(perf) = &self.perf else {
            return Vec::new();
        };
        vec![
            format!(
                "{{\"bench\":\"serve_throughput/decisions_per_sec\",\"median_ns\":{:.1}}}",
                perf.decisions_per_sec
            ),
            format!(
                "{{\"bench\":\"serve_latency/p50_ns\",\"median_ns\":{}}}",
                perf.p50_ns
            ),
            format!(
                "{{\"bench\":\"serve_latency/p99_ns\",\"median_ns\":{}}}",
                perf.p99_ns
            ),
            format!(
                "{{\"bench\":\"serve_latency/p999_ns\",\"median_ns\":{}}}",
                perf.p999_ns
            ),
        ]
    }
}

/// One measured point of the streams sweep: a self-hosted daemon sized for
/// `streams`, warmed with one decision per stream, then measured.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Requested concurrent stream count.
    pub streams: u64,
    /// Streams actually admitted (compact + resident + hibernated, from
    /// the daemon's sync-barriered gauges).
    pub admitted: u64,
    /// Closed-loop decisions/second over the timed round.
    pub decisions_per_sec: f64,
    /// Measured live heap bytes per admitted stream (counting allocator;
    /// 0 when the allocator is not installed — see [`crate::live_bytes`]).
    pub live_bytes_per_stream: u64,
    /// RSS growth across the warm, bytes (page-granular, informational).
    pub rss_delta_bytes: u64,
    /// RSS growth per admitted stream (informational).
    pub rss_bytes_per_stream: u64,
    /// Requests shed during the sweep (labelled answers, not errors).
    pub shed: u64,
    /// Gauge after warm: compact streams.
    pub compact: u64,
    /// Gauge after warm: resident (full-ladder) streams.
    pub resident: u64,
    /// Gauge after warm: hibernated streams.
    pub hibernated: u64,
}

/// The streams sweep a `lahd serve-bench --streams-sweep …` run produced.
#[derive(Clone, Debug, Default)]
pub struct StreamsSweep {
    /// One point per requested size, in request order.
    pub points: Vec<SweepPoint>,
}

/// Human row label for a stream count (1000 → "1k", 100000 → "100k").
fn size_label(n: u64) -> String {
    if n >= 1_000_000 && n % 1_000_000 == 0 {
        format!("{}m", n / 1_000_000)
    } else if n >= 1_000 && n % 1_000 == 0 {
        format!("{}k", n / 1_000)
    } else {
        n.to_string()
    }
}

impl StreamsSweep {
    /// Stable-order JSON rendering.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    concat!(
                        "{{\"streams\":{},\"admitted\":{},\"decisions_per_sec\":{:.1},",
                        "\"live_bytes_per_stream\":{},\"rss_delta_bytes\":{},",
                        "\"rss_bytes_per_stream\":{},\"shed\":{},",
                        "\"compact\":{},\"resident\":{},\"hibernated\":{}}}"
                    ),
                    p.streams,
                    p.admitted,
                    p.decisions_per_sec,
                    p.live_bytes_per_stream,
                    p.rss_delta_bytes,
                    p.rss_bytes_per_stream,
                    p.shed,
                    p.compact,
                    p.resident,
                    p.hibernated
                )
            })
            .collect();
        format!("{{\"points\":[{}]}}", points.join(","))
    }

    /// Criterion-shim-style rows for `bench_snapshot.sh`. Rate rows carry
    /// the `per_sec` suffix (compare gate: higher is better); bytes rows
    /// are plain values (lower is better). Unavailable measurements
    /// (reading 0) are omitted rather than folded as zeros.
    pub fn bench_rows(&self) -> Vec<String> {
        let mut rows = Vec::new();
        for p in &self.points {
            let label = size_label(p.streams);
            rows.push(format!(
                "{{\"bench\":\"serve_streams/{label}_per_sec\",\"median_ns\":{:.1}}}",
                p.decisions_per_sec
            ));
            if p.live_bytes_per_stream > 0 {
                rows.push(format!(
                    "{{\"bench\":\"serve_streams/{label}_live_bytes_per_stream\",\"median_ns\":{}}}",
                    p.live_bytes_per_stream
                ));
            }
            if p.rss_bytes_per_stream > 0 {
                rows.push(format!(
                    "{{\"bench\":\"serve_streams/{label}_rss_bytes_per_stream\",\"median_ns\":{}}}",
                    p.rss_bytes_per_stream
                ));
            }
        }
        rows
    }
}

/// How long a spawned daemon may take to bind its socket.
const BIND_TIMEOUT: Duration = Duration::from_secs(10);

/// A daemon a harness hosts for the length of a run, in one of two forms:
/// in-process ([`serve_dir`] threads — what the sweep's allocator
/// measurement needs) or a `lahd serve` child process (what a real SIGKILL
/// needs). Dropping it stops the daemon: a child is SIGKILLed and reaped,
/// an in-process daemon is told to shut down and joined.
pub struct HostedDaemon {
    socket: PathBuf,
    host: Host,
}

enum Host {
    InProcess(Option<ServeHandle>),
    Child(Child),
}

impl HostedDaemon {
    /// Loads the bundle in `artifacts` and serves it from this process.
    pub fn in_process(
        pipeline_cfg: &PipelineConfig,
        artifacts: &Path,
        cfg: ServeConfig,
        socket: &Path,
    ) -> Result<Self, String> {
        let handle = serve_dir(pipeline_cfg, artifacts, cfg, socket)?;
        Ok(Self {
            socket: socket.to_path_buf(),
            host: Host::InProcess(Some(handle)),
        })
    }

    /// Spawns `<exe> serve <serve_args> --socket <socket>` and returns once
    /// the child accepts connections. The child's stderr is written beside
    /// the socket (extension `stderr`); a child that exits before binding
    /// is reported at once, with that stderr.
    pub fn spawn(exe: &Path, serve_args: &[String], socket: &Path) -> Result<Self, String> {
        let stderr_path = socket.with_extension("stderr");
        let stderr = std::fs::File::create(&stderr_path)
            .map_err(|e| format!("create {} failed: {e}", stderr_path.display()))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .args(serve_args)
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("failed to spawn {}: {e}", exe.display()))?;
        let deadline = Instant::now() + BIND_TIMEOUT;
        while UnixStream::connect(socket).is_err() {
            let failure = match child.try_wait() {
                Ok(Some(status)) => Some(format!(
                    "daemon exited ({status}) before binding {}: {}",
                    socket.display(),
                    std::fs::read_to_string(&stderr_path)
                        .unwrap_or_default()
                        .trim()
                )),
                Ok(None) if Instant::now() >= deadline => Some(format!(
                    "daemon did not bind {} within {BIND_TIMEOUT:?}",
                    socket.display()
                )),
                Ok(None) => None,
                Err(e) => Some(format!("wait failed: {e}")),
            };
            if let Some(failure) = failure {
                let _ = child.kill();
                let _ = child.wait();
                return Err(failure);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(Self {
            socket: socket.to_path_buf(),
            host: Host::Child(child),
        })
    }

    /// A fresh connection to the daemon.
    pub fn connect(&self) -> Result<ServeClient, String> {
        ServeClient::connect(&self.socket)
            .map_err(|e| format!("connect to {} failed: {e}", self.socket.display()))
    }

    /// The daemon's counters, read over a fresh connection.
    pub fn stats(&self) -> Result<MetricsSnapshot, String> {
        stats(&mut self.connect()?)
    }

    /// Asks the daemon to drain and exit, then waits for it. Returns
    /// whether it exited cleanly: a child's exit status, or `true` once an
    /// in-process daemon's threads have joined.
    pub fn shutdown(mut self) -> Result<bool, String> {
        match self.connect()?.call(&Request::Shutdown) {
            Ok(Response::Ok) => {}
            Ok(other) => return Err(format!("unexpected shutdown response {other:?}")),
            Err(e) => return Err(format!("shutdown request failed: {e}")),
        }
        match &mut self.host {
            Host::InProcess(handle) => {
                if let Some(handle) = handle.take() {
                    handle.wait();
                }
                Ok(true)
            }
            Host::Child(child) => child
                .wait()
                .map(|status| status.success())
                .map_err(|e| format!("wait failed: {e}")),
        }
    }
}

impl Drop for HostedDaemon {
    fn drop(&mut self) {
        match &mut self.host {
            Host::InProcess(handle) => {
                if let Some(handle) = handle.take() {
                    handle.shutdown();
                    handle.wait();
                }
            }
            Host::Child(child) => {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// The one lockstep round: sends one [`Request::Decide`] per stream
/// `0..streams` for `round` (observations from the harness's synthesiser),
/// keeping at most `window` requests outstanding, and returns each
/// stream's `(action, tier, source)` in stream order. A `window` of at
/// least `streams` sends the whole round before reading; a smaller one
/// trades queue sheds for backpressure.
pub fn lockstep_round(
    client: &mut ServeClient,
    profile: &BaselineProfile,
    seed: u64,
    streams: u64,
    round: u64,
    window: u64,
) -> Result<Vec<(u16, u8, u8)>, String> {
    // Request ids carry the round above the stream index, so a reply that
    // does not belong to this round cannot be mistaken for one that does.
    let tag = round << 32;
    let mut answers = vec![None; streams as usize];
    let (mut sent, mut received) = (0u64, 0u64);
    while received < streams {
        while sent < streams && sent - received < window {
            client
                .send(&Request::Decide {
                    req_id: tag | sent,
                    stream: sent,
                    deadline_us: 0,
                    obs: synth_obs(profile, seed, sent, round),
                })
                .map_err(|e| format!("round {round}: send failed: {e}"))?;
            sent += 1;
        }
        match client.recv() {
            Ok(Response::Decision {
                req_id,
                action,
                tier,
                source,
            }) => {
                let Some(slot) = req_id
                    .checked_sub(tag)
                    .and_then(|stream| answers.get_mut(stream as usize))
                    .filter(|slot| slot.is_none())
                else {
                    return Err(format!("round {round}: unexpected reply id {req_id:#x}"));
                };
                *slot = Some((action, tier, source));
                received += 1;
            }
            Ok(other) => return Err(format!("round {round}: unexpected response {other:?}")),
            Err(e) => return Err(format!("round {round}: receive failed: {e}")),
        }
    }
    Ok(answers.into_iter().flatten().collect())
}

/// A checksummed lockstep window: FNV-1a over every `(round, stream,
/// action)` in order, plus the distinct actions seen.
struct WindowDigest {
    checksum: u64,
    actions: BTreeSet<u16>,
}

impl WindowDigest {
    fn new() -> Self {
        Self {
            checksum: 0xcbf2_9ce4_8422_2325,
            actions: BTreeSet::new(),
        }
    }

    /// Folds one round's answers, as [`lockstep_round`] returns them.
    fn fold(&mut self, round: u64, answers: &[(u16, u8, u8)]) {
        for (stream, &(action, _, _)) in (0u64..).zip(answers) {
            for v in [round, stream, action as u64] {
                self.checksum = fnv_fold(self.checksum, v);
            }
            self.actions.insert(action);
        }
    }

    fn distinct_actions(&self) -> u64 {
        self.actions.len() as u64
    }
}

/// Runs the streams sweep: for each size, self-host a daemon sized for it
/// (hibernation off, so the measurement reflects the live compact tier),
/// admit every stream with a windowed warm round, read the memory deltas,
/// time a second windowed round for decisions/sec, and shut down. Memory
/// numbers are process-wide deltas, so the sweep must run with no other
/// daemon in-process.
pub fn run_streams_sweep(
    pipeline_cfg: &PipelineConfig,
    artifacts: &Path,
    base: &ServeConfig,
    sizes: &[u64],
    seed: u64,
) -> Result<StreamsSweep, String> {
    let profile = load_profile(artifacts)?;
    let mut points = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let n = n.max(1);
        // Sized so hash imbalance across shards cannot shed, and with the
        // cold tier disabled: every admitted stream stays live in its
        // table, which is the bytes/stream story the sweep reports.
        let cfg = ServeConfig {
            max_streams: n as usize,
            hibernate_after: 0,
            allow_chaos: false,
            ..base.clone()
        };
        let window = (cfg.queue_capacity as u64).clamp(16, 256);
        let socket =
            std::env::temp_dir().join(format!("lahd-sweep-{}-{n}.sock", std::process::id()));
        // On a failed measurement the daemon drops (and stops) before the
        // error returns, so no later size measures beside it.
        let daemon = HostedDaemon::in_process(pipeline_cfg, artifacts, cfg, &socket)?;
        let mut control = daemon.connect()?;
        let mut load = daemon.connect()?;
        // Counted as each round returns, so the harness's own answer
        // buffer is freed before the live-heap reading.
        let mut shed_in_round = |round: u64| {
            lockstep_round(&mut load, &profile, seed, n, round, window).map(|answers| {
                answers
                    .iter()
                    .filter(|&&(_, _, source)| source == Source::Shed as u8)
                    .count() as u64
            })
        };
        stats(&mut control)?; // settle: daemon up, control connection open
        let live0 = crate::live_bytes();
        let rss0 = crate::rss_bytes();
        let shed_warm = shed_in_round(0)?;
        let snap = stats(&mut control)?; // exact: the round's replies are in
        let live1 = crate::live_bytes();
        let rss1 = crate::rss_bytes();
        let start = Instant::now();
        let shed_timed = shed_in_round(1)?;
        let elapsed = start.elapsed();
        daemon.shutdown()?;
        let admitted = snap.streams_total().max(1);
        let live_delta = live1.saturating_sub(live0);
        let rss_delta = rss1.saturating_sub(rss0);
        points.push(SweepPoint {
            streams: n,
            admitted: snap.streams_total(),
            decisions_per_sec: n as f64 / elapsed.as_secs_f64().max(1e-9),
            live_bytes_per_stream: live_delta / admitted,
            rss_delta_bytes: rss_delta,
            rss_bytes_per_stream: rss_delta / admitted,
            shed: shed_warm + shed_timed,
            compact: snap.streams_compact,
            resident: snap.streams_resident,
            hibernated: snap.streams_hibernated,
        });
    }
    Ok(StreamsSweep { points })
}

/// Copies the artifact directory to `out` and flips one bit in the middle
/// of `agent.params` — the hot-reload candidate that must be rejected.
pub fn prepare_corrupt_candidate(artifacts: &Path, out: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(out);
    std::fs::create_dir_all(out)?;
    for entry in std::fs::read_dir(artifacts)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), out.join(entry.file_name()))?;
        }
    }
    let target = out.join("agent.params");
    let mut bytes = std::fs::read(&target)?;
    let at = bytes.len() / 2;
    bytes[at] ^= 0x10;
    std::fs::write(&target, bytes)
}

/// Deterministic healthy-looking observation for `(stream, round)`:
/// uniform inside each dimension's interquartile band.
fn synth_obs(profile: &BaselineProfile, seed: u64, stream: u64, round: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    profile
        .dims
        .iter()
        .map(|d| {
            let (lo, hi) = (d.p25 as f32, d.p75 as f32);
            if hi > lo {
                rng.gen_range(lo..hi)
            } else {
                lo
            }
        })
        .collect()
}

fn fnv_fold(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn stats(client: &mut ServeClient) -> Result<MetricsSnapshot, String> {
    client
        .stats()
        .map_err(|e| format!("stats request failed: {e}"))
}

/// Loads the baseline profile the bench synthesises observations from.
pub fn load_profile(artifacts: &Path) -> Result<BaselineProfile, String> {
    let file = std::fs::File::open(artifacts.join("baseline.profile"))
        .map_err(|e| format!("baseline.profile unreadable: {e}"))?;
    let mut reader = std::io::BufReader::new(file);
    lahd_guard::read_profile(&mut reader).map_err(|e| format!("baseline.profile corrupt: {e}"))
}

/// Drives the daemon at `socket` per `cfg`, synthesising observations from
/// `artifacts/baseline.profile`.
pub fn run_bench(
    socket: &Path,
    artifacts: &Path,
    cfg: &BenchConfig,
) -> Result<BenchSummary, String> {
    let profile = load_profile(artifacts)?;
    let mut client = ServeClient::connect_retry(socket, Duration::from_secs(5))
        .map_err(|e| format!("connect failed: {e}"))?;
    let chaos = if cfg.rounds > 0 {
        Some(chaos_phase(&mut client, &profile, cfg)?)
    } else {
        None
    };
    let perf = if cfg.requests > 0 {
        Some(perf_phase(socket, &profile, cfg)?)
    } else {
        None
    };
    Ok(BenchSummary { chaos, perf })
}

fn expect_decisions(
    client: &mut ServeClient,
    expected: usize,
) -> Result<HashMap<u64, (u16, u8, u8)>, String> {
    let mut got = HashMap::with_capacity(expected);
    while got.len() < expected {
        match client.recv() {
            Ok(Response::Decision {
                req_id,
                action,
                tier,
                source,
            }) => {
                got.insert(req_id, (action, tier, source));
            }
            Ok(other) => return Err(format!("unexpected mid-round response {other:?}")),
            Err(e) => return Err(format!("decision receive failed: {e}")),
        }
    }
    Ok(got)
}

fn chaos_phase(
    client: &mut ServeClient,
    profile: &BaselineProfile,
    cfg: &BenchConfig,
) -> Result<ChaosOutcome, String> {
    let before = stats(client)?;
    let shards = before.shards as usize;
    let plan = cfg.chaos.as_ref();
    let first_chaos = plan.map_or(cfg.rounds, ChaosPlan::first_round);

    let mut requests = 0u64;
    let mut responses = 0u64;
    let mut prechaos = WindowDigest::new();
    let mut reload_rejected = plan.is_none();
    let mut shed_observed = plan.is_none();
    let mut deadline_fallback = plan.is_none();
    let mut post_kill_guarded = plan.is_none();

    for round in 0..cfg.rounds {
        if let Some(plan) = plan {
            if round == plan.kill_round {
                match client
                    .call(&Request::Crash {
                        shard: plan.kill_shard,
                    })
                    .map_err(|e| e.to_string())?
                {
                    Response::Ok => {}
                    other => return Err(format!("crash injection refused: {other:?}")),
                }
            }
            if round == plan.reload_round {
                match client
                    .call(&Request::Reload {
                        dir: plan.corrupt_dir.to_string_lossy().into_owned(),
                    })
                    .map_err(|e| e.to_string())?
                {
                    Response::Err(_) => reload_rejected = true,
                    other => return Err(format!("corrupt reload was not rejected: {other:?}")),
                }
            }
        }
        let answers = match plan {
            Some(plan) if round == plan.burst_round => {
                let burst = burst_round(client, profile, cfg, plan, round, shards)?;
                requests += burst.requests;
                responses += burst.responses;
                shed_observed |= burst.shed;
                deadline_fallback |= burst.deadline_fallback;
                burst.answers
            }
            _ => {
                let answers =
                    lockstep_round(client, profile, cfg.seed, cfg.streams, round, cfg.streams)?;
                requests += cfg.streams;
                responses += answers.len() as u64;
                answers
            }
        };
        if round < first_chaos {
            prechaos.fold(round, &answers);
        }
        if let Some(plan) = plan {
            shed_observed |= answers
                .iter()
                .any(|&(_, _, source)| source == Source::Shed as u8);
            if round > plan.kill_round {
                post_kill_guarded |= (0u64..).zip(&answers).any(|(stream, &(_, _, source))| {
                    shard_of(stream, shards) == plan.kill_shard as usize
                        && source == Source::Guarded as u8
                });
            }
        }
    }

    let after = stats(client)?;
    let shard_recovered = post_kill_guarded && (plan.is_none() || after.restarts > before.restarts);
    Ok(ChaosOutcome {
        seed: cfg.seed,
        streams: cfg.streams,
        rounds: cfg.rounds,
        plan: plan.map_or("none".to_string(), ChaosPlan::describe),
        requests,
        responses,
        prechaos_checksum: prechaos.checksum,
        prechaos_distinct_actions: prechaos.distinct_actions(),
        daemon_alive: true,
        shard_recovered,
        reload_rejected,
        generation_unchanged: after.generation == before.generation,
        shed_observed,
        deadline_fallback,
    })
}

/// What the chaos plan's burst round sent and saw.
struct Burst {
    requests: u64,
    responses: u64,
    /// The first copy's answers, in stream order.
    answers: Vec<(u16, u8, u8)>,
    /// Some answer came back shed-labelled.
    shed: bool,
    /// The deliberately-delayed request came back from the deadline
    /// fallback.
    deadline_fallback: bool,
}

/// The bespoke burst round: hold the plan's shard, send one request with a
/// 1 ms budget against it (the budget expires during the hold, so it must
/// come back from the deadline fallback), then `burst_factor` copies of
/// the round back to back.
fn burst_round(
    client: &mut ServeClient,
    profile: &BaselineProfile,
    cfg: &BenchConfig,
    plan: &ChaosPlan,
    round: u64,
    shards: usize,
) -> Result<Burst, String> {
    match client
        .call(&Request::Hold {
            shard: plan.kill_shard,
            ms: plan.hold_ms,
        })
        .map_err(|e| e.to_string())?
    {
        Response::Ok => {}
        other => return Err(format!("hold injection refused: {other:?}")),
    }
    let req_id = |rep: u64, stream: u64| (round << 40) | (rep << 24) | stream;
    let mut decide = |req_id: u64, stream: u64, deadline_us: u64| {
        client
            .send(&Request::Decide {
                req_id,
                stream,
                deadline_us,
                obs: synth_obs(profile, cfg.seed, stream, round),
            })
            .map_err(|e| e.to_string())
    };
    let victim = (0..cfg.streams)
        .find(|&s| shard_of(s, shards) == plan.kill_shard as usize)
        .unwrap_or(0);
    let delayed = req_id(plan.burst_factor, victim);
    decide(delayed, victim, 1000)?;
    for rep in 0..plan.burst_factor {
        for stream in 0..cfg.streams {
            decide(req_id(rep, stream), stream, 0)?;
        }
    }
    let requests = 1 + plan.burst_factor * cfg.streams;
    let got = expect_decisions(client, requests as usize)?;
    Ok(Burst {
        requests,
        responses: got.len() as u64,
        answers: (0..cfg.streams)
            .filter_map(|stream| got.get(&req_id(0, stream)).copied())
            .collect(),
        shed: got
            .values()
            .any(|&(_, _, source)| source == Source::Shed as u8),
        deadline_fallback: got.get(&delayed).map(|&(_, _, source)| source)
            == Some(Source::Deadline as u8),
    })
}

fn perf_phase(
    socket: &Path,
    profile: &BaselineProfile,
    cfg: &BenchConfig,
) -> Result<PerfOutcome, String> {
    use crate::protocol::{read_frame, write_frame};

    let stream = std::os::unix::net::UnixStream::connect(socket)
        .map_err(|e| format!("perf connect failed: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("stream clone failed: {e}"))?;
    let total = cfg.requests;
    let streams = cfg.streams.max(1);
    // Perf req-ids live above every chaos-phase id.
    let base = 1u64 << 62;
    let sent = std::sync::Mutex::new(HashMap::<u64, Instant>::with_capacity(total as usize));

    let outcome = std::thread::scope(|scope| -> Result<PerfOutcome, String> {
        let sent_ref = &sent;
        let collector = scope.spawn(
            move || -> Result<(LatencyHistogram, u64, u64, [u64; 4], Instant), String> {
                let mut reader = std::io::BufReader::new(stream);
                let mut hist = LatencyHistogram::default();
                let (mut shed, mut deadline) = (0u64, 0u64);
                let mut tiers = [0u64; 4];
                let mut got = 0u64;
                while got < total {
                    let frame = read_frame(&mut reader)
                        .map_err(|e| format!("perf receive failed: {e}"))?
                        .ok_or("daemon closed connection mid-bench")?;
                    match Response::decode(&frame) {
                        Ok(Response::Decision {
                            req_id,
                            tier,
                            source,
                            ..
                        }) => {
                            got += 1;
                            if let Some(at) = sent_ref.lock().unwrap().remove(&req_id) {
                                hist.record(at.elapsed().as_nanos() as u64);
                            }
                            if let Some(slot) = tiers.get_mut(tier as usize) {
                                *slot += 1;
                            }
                            if source == Source::Shed as u8 {
                                shed += 1;
                            } else if source == Source::Deadline as u8 {
                                deadline += 1;
                            }
                        }
                        Ok(other) => return Err(format!("unexpected perf response {other:?}")),
                        Err(e) => return Err(format!("perf decode failed: {e}")),
                    }
                }
                Ok((hist, shed, deadline, tiers, Instant::now()))
            },
        );

        let start = Instant::now();
        for i in 0..total {
            if cfg.rate > 0.0 {
                let due = start + Duration::from_secs_f64(i as f64 / cfg.rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            let stream_id = i % streams;
            let round = (i / streams).wrapping_add(0x5EE0_0000_0000);
            let req_id = base | i;
            sent_ref.lock().unwrap().insert(req_id, Instant::now());
            let req = Request::Decide {
                req_id,
                stream: stream_id,
                deadline_us: 0,
                obs: synth_obs(profile, cfg.seed, stream_id, round),
            };
            write_frame(&mut writer, &req.encode())
                .map_err(|e| format!("perf send failed: {e}"))?;
        }
        let (hist, shed, deadline, tiers, done_at) = collector
            .join()
            .map_err(|_| "perf collector panicked".to_string())??;
        let elapsed = (done_at - start).as_secs_f64().max(1e-9);
        Ok(PerfOutcome {
            requests: total,
            decisions_per_sec: total as f64 / elapsed,
            p50_ns: hist.quantile(0.5),
            p99_ns: hist.quantile(0.99),
            p999_ns: hist.quantile(0.999),
            shed,
            deadline_misses: deadline,
            tier_decisions: tiers,
        })
    })?;
    Ok(outcome)
}

/// Parameters of the supervisor-style crash-restart drill.
#[derive(Clone, Debug)]
pub struct DrillConfig {
    /// Concurrent streams admitted during the warm phase.
    pub streams: u64,
    /// Lockstep rounds driven before the SIGKILL.
    pub rounds_before: u64,
    /// Lockstep rounds driven after recovery — the checksummed window
    /// compared against the uninterrupted reference daemon.
    pub rounds_after: u64,
    /// Seed for observation synthesis (shared by both daemons).
    pub seed: u64,
    /// Arguments appended verbatim to every `<exe> serve` spawn: the
    /// artifact dir, every flag the artifacts' configuration is parsed
    /// from, shard count, audit cadence, … The drill adds its own
    /// `--socket`, `--state-dir`, `--checkpoint-every` and `--recover`.
    pub serve_args: Vec<String>,
}

impl Default for DrillConfig {
    fn default() -> Self {
        Self {
            streams: 32,
            rounds_before: 6,
            rounds_after: 6,
            seed: 7,
            serve_args: Vec::new(),
        }
    }
}

/// What one crash-restart drill produced. Every field is a pure function
/// of the drill parameters and the injected faults, so
/// [`DrillOutcome::to_json`] is byte-reproducible across same-seed runs.
#[derive(Clone, Debug, PartialEq)]
pub struct DrillOutcome {
    /// Echo of the drill seed.
    pub seed: u64,
    /// Echo of the stream count.
    pub streams: u64,
    /// Echo of the pre-kill round count.
    pub rounds_before: u64,
    /// Echo of the post-recovery round count.
    pub rounds_after: u64,
    /// Description of the disk faults injected between kill and restart
    /// ("none" for the clean drill).
    pub faults: String,
    /// Streams admitted before the kill.
    pub admitted: u64,
    /// Streams the restarted daemon resumed from durable state.
    pub recovered: u64,
    /// Records recovery had to quarantine (checksum failures + torn-tail
    /// losses) — zero on the clean drill, positive under injected faults.
    pub quarantined: u64,
    /// Journal operations replayed over the checkpoint at recovery.
    pub journal_ops: u64,
    /// `recovered * 100 / admitted`, integer percent.
    pub resumed_pct: u64,
    /// FNV-1a over every post-window `(round, stream, action)` of the
    /// uninterrupted reference daemon.
    pub baseline_checksum: u64,
    /// The same fold over the killed-and-recovered daemon's answers.
    pub recovered_checksum: u64,
    /// Distinct actions in the reference daemon's post-window; below 2 the
    /// checksums cannot tell a recovered daemon from one that lost every
    /// cursor.
    pub distinct_actions: u64,
    /// The two checksums agree — recovery was action-identical.
    pub lockstep: bool,
    /// Both daemons (reference, and the recovered one after its drill
    /// window) drained and exited with status 0.
    pub clean_exit: bool,
}

impl DrillOutcome {
    /// Stable-order JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"seed\":{},\"streams\":{},\"rounds_before\":{},\"rounds_after\":{},",
                "\"faults\":\"{}\",\"admitted\":{},\"recovered\":{},\"quarantined\":{},",
                "\"journal_ops\":{},\"resumed_pct\":{},",
                "\"baseline_checksum\":\"{:#018x}\",\"recovered_checksum\":\"{:#018x}\",",
                "\"distinct_actions\":{},\"lockstep\":{},\"clean_exit\":{}}}"
            ),
            self.seed,
            self.streams,
            self.rounds_before,
            self.rounds_after,
            self.faults,
            self.admitted,
            self.recovered,
            self.quarantined,
            self.journal_ops,
            self.resumed_pct,
            self.baseline_checksum,
            self.recovered_checksum,
            self.distinct_actions,
            self.lockstep,
            self.clean_exit
        )
    }

    /// The clean-drill gate: ≥99% of streams resumed, bit-identical
    /// post-recovery actions over a window of at least two distinct
    /// actions, graceful exits throughout.
    pub fn all_good(&self) -> bool {
        self.resumed_pct >= 99 && self.lockstep && self.distinct_actions >= 2 && self.clean_exit
    }
}

/// Blocks until every shard has written a checkpoint strictly newer than
/// its tick at entry. Called after the last reply of the warm phase, any
/// such checkpoint postdates that reply's batch, so it holds every
/// stream's final cursor — the precondition for a lossless SIGKILL.
fn await_quiescent_checkpoint(state_dir: &Path, shards: usize) -> Result<(), String> {
    let t0: HashMap<usize, u64> = persist::inspect(state_dir)
        .into_iter()
        .map(|c| (c.shard, c.tick))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let infos = persist::inspect(state_dir);
        if infos.len() >= shards
            && infos
                .iter()
                .all(|c| c.tick > t0.get(&c.shard).copied().unwrap_or(0))
        {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err("timed out waiting for a quiescent checkpoint".to_string());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The supervisor-style crash-restart drill behind `lahd serve-drill`.
///
/// Two daemon lineages run the same seeded lockstep load:
///
/// 1. A **reference** daemon serves every round uninterrupted; its
///    post-window actions are checksummed.
/// 2. A **victim** daemon serves the warm rounds, is held until a
///    quiescent checkpoint lands, then is SIGKILLed mid-flight. An
///    optional `corrupt` hook damages the state directory (the CLI wires
///    seeded [`lahd-sim` disk faults](DrillOutcome::faults) through it).
///    A third spawn restarts on the damaged directory with `--recover`
///    and serves the same post-window rounds.
///
/// Daemons are spawned as real child processes of `exe` (the `lahd`
/// binary), so the kill is a genuine `SIGKILL` against a separate address
/// space — no in-process shortcuts. The returned [`DrillOutcome`] is
/// byte-reproducible for fixed parameters and faults.
pub fn run_restart_drill(
    exe: &Path,
    artifacts: &Path,
    work_dir: &Path,
    cfg: &DrillConfig,
    corrupt: Option<&dyn Fn(&Path) -> Result<String, String>>,
) -> Result<DrillOutcome, String> {
    let profile = load_profile(artifacts)?;
    let total = cfg.rounds_before + cfg.rounds_after;
    let pid = std::process::id();
    // Stale state from an earlier drill would poison both recovery and
    // the quiesce poll (old checkpoints carry ticks a fresh daemon never
    // reaches), so each lineage starts from an empty directory.
    let mkdir = |p: &Path| {
        let _ = std::fs::remove_dir_all(p);
        std::fs::create_dir_all(p).map_err(|e| format!("create {} failed: {e}", p.display()))
    };
    let spawn = |socket: &Path, state_dir: &Path, recover: bool| {
        let mut args = cfg.serve_args.clone();
        args.extend([
            "--state-dir".to_string(),
            state_dir.display().to_string(),
            "--checkpoint-every".to_string(),
            "1".to_string(),
        ]);
        if recover {
            args.push("--recover".to_string());
        }
        HostedDaemon::spawn(exe, &args, socket)
    };
    let drive = |daemon: &HostedDaemon, rounds: std::ops::Range<u64>| {
        let mut client = daemon.connect()?;
        let mut digest = WindowDigest::new();
        for round in rounds {
            let answers = lockstep_round(
                &mut client,
                &profile,
                cfg.seed,
                cfg.streams,
                round,
                cfg.streams,
            )?;
            digest.fold(round, &answers);
        }
        Ok::<_, String>(digest)
    };

    // Reference lineage: never interrupted.
    let base_state = work_dir.join("baseline-state");
    mkdir(&base_state)?;
    let base = spawn(
        &work_dir.join(format!("drill-base-{pid}.sock")),
        &base_state,
        false,
    )?;
    drive(&base, 0..cfg.rounds_before)?;
    let baseline = drive(&base, cfg.rounds_before..total)?;
    let base_clean = base.shutdown()?;

    // Victim lineage: warm, quiesce, SIGKILL.
    let crash_state = work_dir.join("crash-state");
    let crash_sock = work_dir.join(format!("drill-crash-{pid}.sock"));
    mkdir(&crash_state)?;
    let victim = spawn(&crash_sock, &crash_state, false)?;
    let shards = victim.stats()?.shards as usize;
    drive(&victim, 0..cfg.rounds_before)?;
    await_quiescent_checkpoint(&crash_state, shards)?;
    // Dropping the fixture SIGKILLs the child: no drain, no flush — the
    // crash the drill is about.
    drop(victim);

    let faults = match corrupt {
        Some(inject) => inject(&crash_state)?,
        None => "none".to_string(),
    };

    // Recovery lineage: restart on the (possibly damaged) state directory.
    let revived = spawn(&crash_sock, &crash_state, true)?;
    let recovered = drive(&revived, cfg.rounds_before..total)?;
    let snap = revived.stats()?;
    let revived_clean = revived.shutdown()?;

    let admitted = cfg.streams;
    Ok(DrillOutcome {
        seed: cfg.seed,
        streams: cfg.streams,
        rounds_before: cfg.rounds_before,
        rounds_after: cfg.rounds_after,
        faults,
        admitted,
        recovered: snap.recovered_streams,
        quarantined: snap.quarantined_records,
        journal_ops: snap.journal_ops,
        resumed_pct: snap.recovered_streams * 100 / admitted.max(1),
        baseline_checksum: baseline.checksum,
        recovered_checksum: recovered.checksum,
        distinct_actions: baseline.distinct_actions(),
        lockstep: recovered.checksum == baseline.checksum,
        clean_exit: base_clean && revived_clean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_obs_is_deterministic_and_in_band() {
        let mut sp = lahd_guard::StreamingProfile::new(3);
        for i in 0..100 {
            sp.push(&[i as f32 * 0.01, 1.0, -(i as f32) * 0.02]);
        }
        let profile = sp.profile();
        let a = synth_obs(&profile, 11, 2, 5);
        let b = synth_obs(&profile, 11, 2, 5);
        assert_eq!(a, b);
        let c = synth_obs(&profile, 11, 2, 6);
        assert_ne!(a, c);
        for (d, v) in profile.dims.iter().zip(&a) {
            assert!(
                (*v as f64) >= d.p25 - 1e-6 && (*v as f64) <= d.p75 + 1e-6,
                "obs outside interquartile band"
            );
        }
    }

    #[test]
    fn chaos_outcome_json_is_stable() {
        let outcome = ChaosOutcome {
            seed: 7,
            streams: 8,
            rounds: 40,
            plan: "none".to_string(),
            requests: 320,
            responses: 320,
            prechaos_checksum: 0xdead_beef,
            prechaos_distinct_actions: 3,
            daemon_alive: true,
            shard_recovered: true,
            reload_rejected: true,
            generation_unchanged: true,
            shed_observed: true,
            deadline_fallback: true,
        };
        assert_eq!(outcome.to_json(), outcome.clone().to_json());
        assert!(outcome.all_good());
        assert!(outcome.to_json().contains(
            "\"prechaos_checksum\":\"0x00000000deadbeef\",\"prechaos_distinct_actions\":3,"
        ));
    }

    #[test]
    fn drill_outcome_json_is_stable_and_gates_correctly() {
        let outcome = DrillOutcome {
            seed: 7,
            streams: 32,
            rounds_before: 6,
            rounds_after: 6,
            faults: "none".to_string(),
            admitted: 32,
            recovered: 32,
            quarantined: 0,
            journal_ops: 0,
            resumed_pct: 100,
            baseline_checksum: 0xdead_beef,
            recovered_checksum: 0xdead_beef,
            distinct_actions: 2,
            lockstep: true,
            clean_exit: true,
        };
        assert_eq!(outcome.to_json(), outcome.clone().to_json());
        assert!(outcome.all_good());
        let json = outcome.to_json();
        assert!(json.contains("\"baseline_checksum\":\"0x00000000deadbeef\""));
        assert!(json.contains("\"resumed_pct\":100"));
        assert!(json.contains("\"distinct_actions\":2,"));
        let vacuous = DrillOutcome {
            distinct_actions: 1,
            ..outcome.clone()
        };
        assert!(
            !vacuous.all_good(),
            "a one-action window cannot show recovery"
        );
        let torn = DrillOutcome {
            recovered: 20,
            resumed_pct: 62,
            quarantined: 12,
            lockstep: false,
            recovered_checksum: 0xbad,
            faults: "torn-write keep=100".to_string(),
            ..outcome
        };
        assert!(!torn.all_good(), "lossy recovery must fail the clean gate");
    }

    #[test]
    fn standard_plan_orders_its_events() {
        let plan = ChaosPlan::standard(40, PathBuf::from("/tmp/x"));
        assert!(plan.kill_round < plan.burst_round);
        assert!(plan.burst_round < plan.reload_round);
        assert!(plan.reload_round < 40);
        assert_eq!(plan.first_round(), plan.kill_round);
    }

    #[test]
    fn bench_rows_cover_throughput_and_latency() {
        let summary = BenchSummary {
            chaos: None,
            perf: Some(PerfOutcome {
                requests: 100,
                decisions_per_sec: 1234.5,
                p50_ns: 1024,
                p99_ns: 4096,
                p999_ns: 8192,
                shed: 0,
                deadline_misses: 0,
                tier_decisions: [90, 6, 3, 1],
            }),
        };
        let rows = summary.bench_rows();
        assert_eq!(rows.len(), 4);
        assert!(rows[0].contains("serve_throughput/decisions_per_sec"));
        assert!(rows[1].contains("serve_latency/p50_ns"));
        for row in &rows {
            assert!(row.starts_with("{\"bench\":\"") && row.ends_with('}'));
        }
        let json = summary.perf.as_ref().unwrap().to_json();
        assert!(
            json.contains("\"tier_decisions\":{\"fsm\":90,\"quant\":6,\"exact\":3,\"baseline\":1}"),
            "per-tier counts missing from the perf summary: {json}"
        );
    }
}
