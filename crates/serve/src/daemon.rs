//! The serving daemon: Unix-socket listener, connection routing, admission
//! control, and crash-safe hot reload.
//!
//! Topology: one acceptor thread, one thread per connection, and `shards`
//! worker threads (see [`crate::shard`]) behind bounded queues. Streams are
//! hashed to shards ([`shard_of`]), so one stream's requests are always
//! ordered through one worker. Whoever answers a request, its connection
//! thread or a shard, writes the reply straight into the connection's
//! socket through the connection's one [`ReplySink`].
//!
//! Admission control: enqueue uses `try_send` against the bounded shard
//! queue, retrying [`ADMISSION_RETRIES`] times with a short backoff on
//! transient fullness; persistent fullness *sheds* the request — it is
//! answered inline from the scenario-baseline fallback policy (labelled
//! [`crate::Source::Shed`]) instead of being rejected, and counted.
//!
//! Hot reload: a [`Request::Reload`] validates the candidate bundle
//! off-path on the connection thread ([`ServeBundle::load`]: checked
//! artifact parsing plus an inference probe). Only a sound bundle is
//! published — the generation counter bumps and every shard swaps at its
//! next batch boundary. A corrupt candidate is rejected with the old
//! bundle untouched; there is nothing to roll back because nothing was
//! swapped. (There is no portable signal handling in std, so reload is
//! command-triggered over the socket rather than via SIGHUP.)

use std::io::{BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lahd_core::PipelineConfig;
use lahd_fsm::VecPolicy;

use crate::bundle::ServeBundle;
use crate::metrics::{MetricsSnapshot, ServeMetrics, ShardStats};
use crate::protocol::{push_frame, read_frame, Request, Response, Source};
use crate::shard::{run_shard, ShardMsg, TIER_BASELINE};

/// `try_send` retries before a request is shed.
const ADMISSION_RETRIES: u32 = 2;

/// Sleep between admission retries.
const ADMISSION_BACKOFF: Duration = Duration::from_micros(100);

/// The longest one write to a client may block. A client that stops
/// reading is disconnected once its socket buffer is full for this long.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Daemon tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of shard worker threads.
    pub shards: usize,
    /// Bounded per-shard queue capacity (admission control trips beyond).
    pub queue_capacity: usize,
    /// Maximum live streams per shard; excess streams are shed.
    pub max_streams: usize,
    /// Whether chaos requests ([`Request::Crash`], [`Request::Hold`]) are
    /// honoured. Off by default; the chaos harness turns it on.
    pub allow_chaos: bool,
    /// Decisions between periodic full-guard audits of a compact stream
    /// (staggered per stream; 0 disables audits).
    pub audit_every: u64,
    /// Idle shard ticks (batches or 20 ms idle intervals) before a compact
    /// stream hibernates into the arena (0 disables hibernation).
    pub hibernate_after: u64,
    /// Shard ticks between clock-sweep invocations.
    pub sweep_every: u64,
    /// Directory for durable per-shard state (checkpoints + journals);
    /// `None` disables persistence entirely.
    pub state_dir: Option<PathBuf>,
    /// Shard ticks between periodic checkpoints (0 = checkpoint only on
    /// graceful drain). Ignored without a `state_dir`.
    pub checkpoint_every: u64,
    /// Whether shards load their checkpoint + journal on first boot (a
    /// one-shot latch: panic restarts and bundle swaps never reload).
    pub recover: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            queue_capacity: 64,
            max_streams: 1024,
            allow_chaos: false,
            audit_every: 4096,
            hibernate_after: 512,
            sweep_every: 32,
            state_dir: None,
            checkpoint_every: 0,
            recover: false,
        }
    }
}

impl ServeConfig {
    /// Clamps fields into their safe ranges (at least one shard, non-zero
    /// queue).
    pub fn sanitized(mut self) -> Self {
        self.shards = self.shards.clamp(1, 256);
        self.queue_capacity = self.queue_capacity.max(1);
        self.max_streams = self.max_streams.max(1);
        self.sweep_every = self.sweep_every.max(1);
        self
    }
}

/// State shared by every daemon thread.
pub struct SharedState {
    /// Daemon knobs.
    pub cfg: ServeConfig,
    /// Pipeline configuration reload candidates are validated under.
    pub pipeline_cfg: PipelineConfig,
    /// The currently published bundle.
    pub bundle: Mutex<Arc<ServeBundle>>,
    /// Bundle generation; bumps on every accepted reload.
    pub generation: AtomicU64,
    /// The counters connection threads write.
    pub metrics: ServeMetrics,
    /// One stats slot per shard, written only by that shard.
    pub(crate) stats: Vec<Mutex<ShardStats>>,
    /// Set once; every loop drains and exits.
    pub shutdown: AtomicBool,
    /// Per-shard one-shot recovery latches: `true` until the shard's first
    /// boot consumes it via [`SharedState::take_recover`].
    pub recover_shards: Vec<AtomicBool>,
}

impl SharedState {
    /// Consumes shard `i`'s recovery latch. Returns `true` exactly once
    /// per daemon lifetime — a panic restart or bundle swap rebuilds the
    /// shard fresh instead of resurrecting a checkpoint that is now stale
    /// against the live daemon's state.
    pub fn take_recover(&self, shard: usize) -> bool {
        self.recover_shards
            .get(shard)
            .is_some_and(|latch| latch.swap(false, Ordering::AcqRel))
    }

    /// Locks shard `shard`'s stats slot. A slot holds plain counters, so a
    /// lock poisoned by a panicking holder is still read and written.
    pub(crate) fn slot(&self, shard: usize) -> MutexGuard<'_, ShardStats> {
        self.stats[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Sums every shard slot, locking one at a time, with the connection
    /// counters. A shard folds a batch's counts into its slot before it
    /// sends that batch's replies, so the snapshot counts every decision
    /// whose reply any client received before this call.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut totals = ShardStats::default();
        for shard in 0..self.stats.len() {
            totals.add(&self.slot(shard));
        }
        MetricsSnapshot::new(
            self.generation.load(Ordering::Acquire),
            self.stats.len(),
            &self.metrics,
            &totals,
        )
    }
}

/// Hashes a stream id to its shard (FNV-1a over the id bytes).
pub fn shard_of(stream: u64, shards: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in stream.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// A running daemon; drop order is handled by [`ServeHandle::wait`].
pub struct ServeHandle {
    shared: Arc<SharedState>,
    socket: PathBuf,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// Shared state (metrics, generation) for in-process harnesses.
    pub fn shared(&self) -> &Arc<SharedState> {
        &self.shared
    }

    /// Requests shutdown without waiting (clients normally send
    /// [`Request::Shutdown`] instead).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Blocks until the acceptor and every shard worker have exited, then
    /// removes the socket file.
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for handle in self.shards.drain(..) {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Starts the daemon over an already-validated bundle.
pub fn serve(
    bundle: ServeBundle,
    pipeline_cfg: PipelineConfig,
    cfg: ServeConfig,
    socket: &Path,
) -> std::io::Result<ServeHandle> {
    let cfg = cfg.sanitized();
    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket)?;
    listener.set_nonblocking(true)?;

    let recover = cfg.recover && cfg.state_dir.is_some();
    let shared = Arc::new(SharedState {
        recover_shards: (0..cfg.shards).map(|_| AtomicBool::new(recover)).collect(),
        stats: (0..cfg.shards).map(|_| Mutex::default()).collect(),
        cfg: cfg.clone(),
        pipeline_cfg,
        bundle: Mutex::new(Arc::new(bundle)),
        generation: AtomicU64::new(1),
        metrics: ServeMetrics::default(),
        shutdown: AtomicBool::new(false),
    });

    let mut senders = Vec::with_capacity(cfg.shards);
    let mut shards = Vec::with_capacity(cfg.shards);
    for i in 0..cfg.shards {
        let (tx, rx) = mpsc::sync_channel::<ShardMsg>(cfg.queue_capacity);
        senders.push(tx);
        let shared = shared.clone();
        shards.push(
            std::thread::Builder::new()
                .name(format!("lahd-shard-{i}"))
                .spawn(move || run_shard(i, rx, shared))?,
        );
    }

    let acceptor = {
        let shared = shared.clone();
        let senders = senders.clone();
        std::thread::Builder::new()
            .name("lahd-accept".to_string())
            .spawn(move || accept_loop(listener, shared, senders))?
    };

    Ok(ServeHandle {
        shared,
        socket: socket.to_path_buf(),
        acceptor: Some(acceptor),
        shards,
    })
}

/// Loads + validates the bundle in `dir`, then starts the daemon.
pub fn serve_dir(
    pipeline_cfg: &PipelineConfig,
    dir: &Path,
    cfg: ServeConfig,
    socket: &Path,
) -> Result<ServeHandle, String> {
    let bundle = ServeBundle::load(pipeline_cfg, dir)?;
    serve(bundle, pipeline_cfg.clone(), cfg, socket).map_err(|e| format!("bind failed: {e}"))
}

fn accept_loop(
    listener: UnixListener,
    shared: Arc<SharedState>,
    senders: Vec<SyncSender<ShardMsg>>,
) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = shared.clone();
                let senders = senders.clone();
                let _ = std::thread::Builder::new()
                    .name("lahd-conn".to_string())
                    .spawn(move || handle_conn(stream, shared, senders));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(_) => break,
        }
    }
    // Stop the workers; queued requests drain first (FIFO).
    for tx in &senders {
        let _ = tx.send(ShardMsg::Shutdown);
    }
}

/// A connection's write half, shared by its connection thread and by every
/// request of it that a shard holds. Each write carries whole frames under
/// the lock, so frames of different writers never interleave. The first
/// write that fails or outlasts [`WRITE_TIMEOUT`] shuts the connection down,
/// which also ends its connection thread's read loop, and every later write
/// is dropped.
pub(crate) struct ReplySink(Mutex<Option<UnixStream>>);

impl ReplySink {
    /// Writes `frames`, one or more whole frames, in one `write_all`.
    pub(crate) fn write(&self, frames: &[u8]) {
        let mut sink = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(stream) = sink.as_mut() else {
            return;
        };
        if stream.write_all(frames).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            *sink = None;
        }
    }

    /// Writes one response as one frame.
    fn send(&self, resp: &Response) {
        let mut frame = Vec::new();
        push_frame(&mut frame, &resp.encode());
        self.write(&frame);
    }
}

fn handle_conn(stream: UnixStream, shared: Arc<SharedState>, senders: Vec<SyncSender<ShardMsg>>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let sink = Arc::new(ReplySink(Mutex::new(Some(write_half))));
    let mut reader = BufReader::new(stream);
    // Built lazily from the current bundle; depends only on the scenario,
    // so it survives reloads.
    let mut shed_policy: Option<Box<dyn VecPolicy>> = None;
    while let Ok(Some(frame)) = read_frame(&mut reader) {
        let req = match Request::decode(&frame) {
            Ok(req) => req,
            Err(e) => {
                sink.send(&Response::Err(e.to_string()));
                continue;
            }
        };
        match req {
            Request::Decide {
                req_id,
                stream: stream_id,
                deadline_us,
                obs,
            } => route_decide(
                &shared,
                &senders,
                &sink,
                &mut shed_policy,
                req_id,
                stream_id,
                deadline_us,
                obs,
            ),
            Request::Stats => sink.send(&Response::StatsJson(shared.snapshot().to_json())),
            Request::Reload { dir } => {
                match ServeBundle::load(&shared.pipeline_cfg, Path::new(&dir)) {
                    Ok(bundle) => {
                        *shared.bundle.lock().unwrap() = Arc::new(bundle);
                        let gen = shared.generation.fetch_add(1, Ordering::AcqRel) + 1;
                        ServeMetrics::bump(&shared.metrics.reloads_ok);
                        sink.send(&Response::ReloadOk { generation: gen });
                    }
                    Err(e) => {
                        ServeMetrics::bump(&shared.metrics.reloads_rejected);
                        sink.send(&Response::Err(format!("reload rejected: {e}")));
                    }
                }
            }
            Request::Shutdown => {
                // Every write is synchronous, so the acknowledgement is in
                // the socket before the flag rises: once the shards drain,
                // a `lahd serve` process exits. Shards write the replies
                // still queued before they drain.
                sink.send(&Response::Ok);
                shared.shutdown.store(true, Ordering::Release);
                break;
            }
            Request::Ping => {
                // Liveness probe: answered inline on the connection thread,
                // so it works even while every shard queue is saturated.
                sink.send(&Response::Ok);
            }
            Request::Crash { shard } => {
                sink.send(&chaos_send(&shared, &senders, shard, ShardMsg::Crash));
            }
            Request::Hold { shard, ms } => {
                sink.send(&chaos_send(
                    &shared,
                    &senders,
                    shard,
                    ShardMsg::Hold { ms: ms.min(10_000) },
                ));
            }
        }
    }
}

fn chaos_send(
    shared: &SharedState,
    senders: &[SyncSender<ShardMsg>],
    shard: u32,
    msg: ShardMsg,
) -> Response {
    if !shared.cfg.allow_chaos {
        return Response::Err("chaos requests are disabled".to_string());
    }
    let Some(tx) = senders.get(shard as usize) else {
        return Response::Err(format!("no such shard {shard}"));
    };
    match tx.try_send(msg) {
        Ok(()) => Response::Ok,
        Err(_) => Response::Err(format!("shard {shard} queue full")),
    }
}

#[allow(clippy::too_many_arguments)]
fn route_decide(
    shared: &SharedState,
    senders: &[SyncSender<ShardMsg>],
    sink: &Arc<ReplySink>,
    shed_policy: &mut Option<Box<dyn VecPolicy>>,
    req_id: u64,
    stream_id: u64,
    deadline_us: u64,
    obs: Vec<f32>,
) {
    let shard = shard_of(stream_id, senders.len());
    let enqueued = Instant::now();
    let deadline = (deadline_us > 0).then(|| enqueued + Duration::from_micros(deadline_us));
    let mut msg = ShardMsg::Decide {
        req_id,
        stream: stream_id,
        deadline,
        enqueued,
        obs,
        reply: sink.clone(),
    };
    for attempt in 0..=ADMISSION_RETRIES {
        match senders[shard].try_send(msg) {
            Ok(()) => return,
            Err(TrySendError::Full(back)) => {
                ServeMetrics::bump(&shared.metrics.queue_full);
                msg = back;
                if attempt < ADMISSION_RETRIES {
                    std::thread::sleep(ADMISSION_BACKOFF);
                }
            }
            Err(TrySendError::Disconnected(back)) => {
                msg = back;
                break;
            }
        }
    }
    // Persistent backpressure: degrade gracefully by answering from the
    // cheap scenario-baseline fallback instead of erroring.
    let ShardMsg::Decide { req_id, obs, .. } = msg else {
        unreachable!("decide admission only routes decide messages");
    };
    let policy = shed_policy.get_or_insert_with(|| {
        let bundle = shared.bundle.lock().unwrap().clone();
        bundle
            .scenario()
            .baselines(&bundle.cfg.sim)
            .into_iter()
            .next()
            .expect("every scenario registers at least one baseline")
    });
    let action = policy.act_vec(&obs) as u16;
    ServeMetrics::bump(&shared.metrics.shed);
    sink.send(&Response::Decision {
        req_id,
        action,
        tier: TIER_BASELINE as u8,
        source: Source::Shed as u8,
    });
}
