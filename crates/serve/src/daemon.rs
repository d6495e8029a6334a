//! The serving daemon: Unix-socket listener, connection routing, admission
//! control, the shard threads, and crash-safe hot reload.
//!
//! Topology: one acceptor thread, one thread per connection, and `shards`
//! shard threads behind bounded queues. Streams are hashed to shards
//! ([`shard_of`]), so one stream's requests are always ordered through one
//! shard. Whoever answers a request, its connection thread or a shard,
//! writes the reply straight into the connection's socket through the
//! connection's one [`ReplySink`].
//!
//! Admission control: enqueue uses `try_send` against the bounded shard
//! queue, retrying [`ADMISSION_RETRIES`] times with a short backoff on
//! transient fullness; persistent fullness *sheds* the request — it is
//! answered inline from the scenario-baseline fallback policy (labelled
//! [`crate::Source::Shed`]) instead of being rejected, and counted.
//!
//! Shard threads: each drives one [`ShardCore`], which decides with no I/O
//! (see [`crate::shard`]), and does all of its I/O. It drains up to
//! [`BATCH_MAX`] queued requests into a batch (20 ms without one is an
//! idle tick) and carries out what the core returns in the order
//! [`Effects`] names: a batch's stats are in the shard's slot and its
//! journal records on disk before any of its replies is written. A panic
//! (a bug, or an injected [`Request::Crash`]) is caught, counted, and the
//! thread restarts around a fresh core with exponential backoff; the queue
//! outlives the restart, so queued requests are still served. With
//! recovery on, the thread reads its durable state once, before its
//! restart loop, and the first core takes it. Every other start (a boot
//! without recovery, a panic restart, a bundle swap) first writes the
//! fresh core's empty checkpoint, so a later recovery cannot resurrect
//! streams from an earlier lineage.
//!
//! Hot reload: a [`Request::Reload`] validates the candidate bundle
//! off-path on the connection thread ([`ServeBundle::load`]: checked
//! artifact parsing plus an inference probe). Only a sound bundle is
//! published — the generation counter bumps and every shard thread swaps
//! to a fresh core at its next batch boundary. A corrupt candidate is
//! rejected with the old bundle untouched; there is nothing to roll back
//! because nothing was swapped. (There is no portable signal handling in
//! std, so reload is command-triggered over the socket rather than via
//! SIGHUP.)

use std::io::{BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lahd_core::PipelineConfig;
use lahd_fsm::VecPolicy;

use crate::bundle::ServeBundle;
use crate::metrics::{MetricsSnapshot, ServeMetrics, ShardStats};
use crate::persist::{self, RecoveredShard, ShardPersist};
use crate::protocol::{push_frame, read_frame, Request, Response, Source};
use crate::shard::{CheckpointImage, Decide, Effects, ShardCore, BATCH_MAX, TIER_BASELINE};

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
    /// Whether each shard loads its checkpoint + journal when the daemon
    /// starts. Panic restarts and bundle swaps never reload.
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
struct SharedState {
    /// Daemon knobs.
    cfg: ServeConfig,
    /// Pipeline configuration reload candidates are validated under.
    pipeline_cfg: PipelineConfig,
    /// The currently published bundle.
    bundle: Mutex<Arc<ServeBundle>>,
    /// Bundle generation; bumps on every accepted reload, while the
    /// `bundle` lock is held.
    generation: AtomicU64,
    /// The counters connection threads write.
    metrics: ServeMetrics,
    /// One stats slot per shard, written only by that shard's thread.
    stats: Vec<Mutex<ShardStats>>,
    /// Set once; every loop drains and exits.
    shutdown: AtomicBool,
}

impl SharedState {
    /// Locks shard `shard`'s stats slot. A slot holds plain counters, so a
    /// lock poisoned by a panicking holder is still read and written.
    fn slot(&self, shard: usize) -> MutexGuard<'_, ShardStats> {
        self.stats[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Sums every shard slot, locking one at a time, with the connection
    /// counters. A shard folds a batch's counts into its slot before it
    /// sends that batch's replies, so the snapshot counts every decision
    /// whose reply any client received before this call.
    fn snapshot(&self) -> MetricsSnapshot {
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

    let shared = Arc::new(SharedState {
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
                        // Published under the bundle lock, with the
                        // generation, so a shard start reads a matching pair.
                        let gen = {
                            let mut published = shared
                                .bundle
                                .lock()
                                .expect("no thread panics holding the bundle");
                            *published = Arc::new(bundle);
                            shared.generation.fetch_add(1, Ordering::AcqRel) + 1
                        };
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
    let req = Decide {
        req_id,
        stream: stream_id,
        deadline,
        obs,
    };
    let mut msg = ShardMsg::Decide(req, (enqueued, sink.clone()));
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
    let ShardMsg::Decide(req, _) = msg else {
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
    let action = policy.act_vec(&req.obs) as u16;
    ServeMetrics::bump(&shared.metrics.shed);
    sink.send(&Response::Decision {
        req_id: req.req_id,
        action,
        tier: TIER_BASELINE as u8,
        source: Source::Shed as u8,
    });
}

/// A message on a shard's queue.
enum ShardMsg {
    /// One decision request, and where it came from.
    Decide(Decide, Route),
    /// Chaos: panic the serving loop (exercises the restart path).
    Crash,
    /// Chaos: sleep `ms` milliseconds, letting the queue fill so admission
    /// control is exercised deterministically.
    Hold {
        /// Sleep duration in milliseconds.
        ms: u32,
    },
    /// Clean shard exit.
    Shutdown,
}

/// Where a request came from: when admission accepted it (the latency
/// histogram's origin), and the connection to answer.
type Route = (Instant, Arc<ReplySink>);

/// Restart backoff after the first panic, milliseconds; doubles per
/// consecutive panic.
const RESTART_BACKOFF_MS: u64 = 10;

/// Restart backoff ceiling, milliseconds.
const RESTART_BACKOFF_CAP_MS: u64 = 500;

/// The shard thread body: serve until shutdown, restarting the serving
/// loop with exponential backoff whenever it panics. The queue receiver
/// outlives the panic, so in-flight requests survive shard crashes. With
/// recovery on, the durable state is read here, once, and moved into the
/// first core.
fn run_shard(index: usize, rx: Receiver<ShardMsg>, shared: Arc<SharedState>) {
    let mut recovered = match &shared.cfg.state_dir {
        Some(dir) if shared.cfg.recover => Some(persist::recover_shard(dir, index)),
        _ => None,
    };
    let mut backoff_ms = RESTART_BACKOFF_MS;
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve_loop(index, &rx, &shared, recovered.take())
        }));
        match outcome {
            Ok(()) => return,
            Err(_) => {
                shared.slot(index).panics += 1;
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(backoff_ms));
                backoff_ms = (backoff_ms * 2).min(RESTART_BACKOFF_CAP_MS);
                shared.slot(index).restarts += 1;
            }
        }
    }
}

/// Drives one core at a time: drains the queue into batches, checks the
/// bundle generation at every batch boundary, and carries out what the
/// core returns.
fn serve_loop(
    index: usize,
    rx: &Receiver<ShardMsg>,
    shared: &SharedState,
    recovered: Option<RecoveredShard>,
) {
    let (mut io, mut core) = ShardIo::start(index, shared, recovered);
    let mut batch: Vec<Decide> = Vec::with_capacity(BATCH_MAX);
    let mut routes: Vec<Route> = Vec::with_capacity(BATCH_MAX);
    loop {
        if shared.generation.load(Ordering::Acquire) != io.generation {
            // A newer bundle: a fresh core, arena included, since saved
            // cursor states mean nothing to the new machine.
            io.fold(&core.fold());
            (io, core) = ShardIo::start(index, shared, None);
        }
        let mut next = match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) if !shared.shutdown.load(Ordering::Acquire) => {
                io.carry_out(core.tick(true), &[]);
                continue;
            }
            Err(_) => return io.drain(&mut core),
        };
        let mut control = None;
        while let Some(msg) = next.take() {
            match msg {
                ShardMsg::Decide(req, route) => {
                    batch.push(req);
                    routes.push(route);
                    if batch.len() < BATCH_MAX {
                        next = rx.try_recv().ok();
                    }
                }
                other => control = Some(other),
            }
        }
        if !batch.is_empty() {
            io.carry_out(core.decide(&batch, Instant::now()), &routes);
            io.carry_out(core.tick(false), &[]);
            batch.clear();
            routes.clear();
        }
        match control {
            Some(ShardMsg::Shutdown) => return io.drain(&mut core),
            Some(ShardMsg::Crash) => panic!("injected chaos crash"),
            Some(ShardMsg::Hold { ms }) => std::thread::sleep(Duration::from_millis(ms as u64)),
            Some(ShardMsg::Decide(..)) | None => {}
        }
    }
}

/// A shard thread's I/O around one core: the bundle generation the core
/// serves, the checkpoint and journal files, and the stats slot.
struct ShardIo<'a> {
    index: usize,
    shared: &'a SharedState,
    generation: u64,
    /// Durable-state writer; `None` when the daemon runs without a state
    /// directory or its creation failed.
    persist: Option<ShardPersist>,
}

impl<'a> ShardIo<'a> {
    /// Starts a core over the published bundle. A start with `recovered`
    /// state moves it into the core; every other start writes the fresh
    /// core's empty checkpoint first, so a later recovery cannot resurrect
    /// streams from an earlier lineage.
    fn start(
        index: usize,
        shared: &'a SharedState,
        recovered: Option<RecoveredShard>,
    ) -> (Self, ShardCore) {
        // A reload bumps the generation under this lock, so the pair
        // matches: a start never serves an old bundle under a new number.
        let (bundle, generation) = {
            let published = shared
                .bundle
                .lock()
                .expect("no thread panics holding the bundle");
            (published.clone(), shared.generation.load(Ordering::Acquire))
        };
        let persist = shared.cfg.state_dir.as_deref().and_then(|dir| {
            match ShardPersist::create(dir, index) {
                Ok(p) => Some(p),
                Err(_) => {
                    shared.slot(index).persist_errors += 1;
                    None
                }
            }
        });
        let mut core = ShardCore::new(bundle, &shared.cfg, persist.is_some());
        let mut io = Self {
            index,
            shared,
            generation,
            persist,
        };
        match recovered {
            Some(rec) => shared.slot(index).add(&core.recover(rec)),
            None => io.write_checkpoint(core.checkpoint()),
        }
        (io, core)
    }

    /// Carries out a core's effects in the order [`Effects`] names, timing
    /// the replies for the latency histogram as their stats fold. Each run
    /// of consecutive replies to one connection goes out in one write.
    fn carry_out(&mut self, fx: &mut Effects, routes: &[Route]) {
        if let Some(p) = &mut self.persist {
            for &(op, key) in &fx.journal {
                if op == persist::WAL_ADMIT {
                    p.log_admit(key);
                } else {
                    p.log_evict(key);
                }
            }
        }
        if let Some(delta) = &mut fx.stats {
            if !fx.replies.is_empty() {
                let end = Instant::now();
                for reply in &fx.replies {
                    if let Some(tier) = reply.served {
                        let waited = end.duration_since(routes[reply.at].0);
                        delta.record_served(tier, waited.as_nanos() as u64);
                    }
                }
            }
            self.fold(delta);
            if let Some(p) = &mut self.persist {
                if p.flush_wal().is_err() {
                    self.shared.slot(self.index).persist_errors += 1;
                }
            }
        }
        let mut frames = Vec::new();
        let mut replies = fx.replies.iter().peekable();
        while let Some(reply) = replies.next() {
            push_frame(&mut frames, &reply.resp.encode());
            let to = &routes[reply.at].1;
            if !replies
                .peek()
                .is_some_and(|next| Arc::ptr_eq(&routes[next.at].1, to))
            {
                to.write(&frames);
                frames.clear();
            }
        }
        self.write_checkpoint(fx.checkpoint.take());
    }

    /// Folds a stats delta into this shard's slot: counters add, gauges
    /// replace.
    fn fold(&self, delta: &ShardStats) {
        self.shared.slot(self.index).absorb(delta);
    }

    /// Writes a checkpoint image (atomic tmp + rename; resets the journal)
    /// and counts the outcome. The image is dropped here, once written.
    fn write_checkpoint(&mut self, image: Option<CheckpointImage>) {
        let (Some(p), Some(image)) = (&mut self.persist, image) else {
            return;
        };
        let written = p.write_checkpoint(image.tick, &image.table, &image.arena);
        let mut slot = self.shared.slot(self.index);
        match written {
            Ok(()) => slot.checkpoints += 1,
            Err(_) => slot.persist_errors += 1,
        }
    }

    /// Graceful-drain epilogue: final stats fold + final checkpoint. Runs
    /// on every clean exit, so a daemon stopped by a shutdown command
    /// leaves a complete durable image behind.
    fn drain(&mut self, core: &mut ShardCore) {
        self.fold(&core.fold());
        self.write_checkpoint(core.checkpoint());
    }
}
