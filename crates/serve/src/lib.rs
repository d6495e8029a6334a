//! Fault-tolerant decision serving for extracted LAHD policies.
//!
//! The paper's deliverable — an FSM distilled from a learned storage
//! heuristic, with the teacher net as fallback — is a *production*
//! artifact; this crate is the always-on service around it. A daemon
//! ([`serve`]/[`serve_dir`]) loads a validated artifact bundle
//! ([`ServeBundle`]) and answers decision requests for many concurrent
//! streams over a length-prefixed Unix-socket protocol ([`Request`] and
//! [`Response`] frames), sharded across per-core worker threads — no
//! async runtime, just bounded queues and `std` threads.
//!
//! Each stream runs behind its own guarded tier ladder (extracted FSM →
//! quantized-i8 net → exact net → scenario baseline, `lahd-guard`'s
//! hysteresis machine deciding who serves); streams on a net tier are
//! answered through one batched inference call per shard drain. The
//! robustness layer covers every failure tier:
//!
//! - **panic isolation** — a shard worker that panics is caught, counted,
//!   and restarted with exponential backoff; its queue (and therefore its
//!   in-flight requests) survives, its streams are re-admitted with reset
//!   state, and the daemon never exits.
//! - **admission control** — bounded per-shard queues with retry/backoff;
//!   persistent overload *sheds* requests to the scenario-baseline
//!   fallback (labelled, counted) instead of erroring.
//! - **deadline budgets** — per-request deadlines; work that expires in
//!   the queue is answered from the fallback tier at dequeue.
//! - **crash-safe hot reload** — a reload request validates the candidate
//!   bundle off-path (checked parsing + an inference probe) and only then
//!   publishes it; shards swap at batch boundaries; a corrupt candidate is
//!   rejected with the old bundle still serving.
//! - **durable state** — with a state directory configured, each shard
//!   checkpoints its compact streams + hibernation arena into checksummed
//!   segment files (atomic tmp+rename) and journals admits/evictions in
//!   between ([`persist`]); `--recover` resumes surviving streams
//!   bit-identically after a crash, truncating torn tails and
//!   quarantining corrupt records instead of panicking.
//!
//! Every counter has one writer: each shard folds its counts into its own
//! stats slot before it replies, connection threads bump [`ServeMetrics`],
//! and a `Stats` request sums both into one typed [`MetricsSnapshot`],
//! rendered and parsed by the same type.
//!
//! [`run_bench`] is the deterministic load + chaos harness behind
//! `lahd serve-bench` (kill a shard, burst 10× load, offer a corrupt
//! reload), whose chaos summary is byte-reproducible under a fixed seed;
//! [`run_restart_drill`] is the supervisor-style crash-restart drill
//! behind `lahd serve-drill` (SIGKILL mid-load → restart with recovery →
//! action-checksum lockstep against an uninterrupted daemon). Both drive
//! their rounds through [`lockstep_round`] and host their daemons as
//! [`HostedDaemon`]s.

mod alloc;
mod bench;
mod bundle;
mod client;
mod compact;
mod daemon;
mod metrics;
pub mod persist;
mod protocol;
mod shard;
mod stream_table;

pub use alloc::{live_bytes, rss_bytes, CountingAllocator};
pub use bench::{
    load_profile, lockstep_round, prepare_corrupt_candidate, run_bench, run_restart_drill,
    run_streams_sweep, BenchConfig, BenchSummary, ChaosOutcome, ChaosPlan, DrillConfig,
    DrillOutcome, HostedDaemon, PerfOutcome, StreamsSweep, SweepPoint,
};
pub use bundle::ServeBundle;
pub use client::ServeClient;
pub use compact::{CompactStream, HibernationArena, REC_BYTES};
pub use daemon::{serve, serve_dir, shard_of, ServeConfig, ServeHandle, SharedState};
pub use metrics::{LatencyHistogram, MetricsSnapshot, ServeMetrics};
pub use protocol::{
    read_frame, write_frame, ProtoError, Request, Response, Source, MAGIC, MAX_FRAME,
};
pub use shard::{ShardMsg, TIER_BASELINE, TIER_EXACT, TIER_FSM, TIER_QUANT};
pub use stream_table::{StreamRef, StreamSet, StreamTable};
