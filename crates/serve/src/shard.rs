//! Shard workers: per-core serving threads with tiered per-stream state.
//!
//! Each shard owns the streams hashed to it, kept in a generation-stamped
//! [`StreamTable`] in one of two representations:
//!
//! - **Compact** ([`CompactStream`], ~96 B): a healthy FSM-tier stream
//!   stores only its compiled cursor plus [`MicroHealth`] triage counters.
//!   Decisions run through the shared compiled machine (batched SoA
//!   `step_batch`, bit-identical to the scalar path); a tripped triage
//!   signal or a periodic audit *materializes* the full ladder.
//! - **Resident** (boxed, kB-scale): the full [`GuardedPolicy`] ladder —
//!   shadow replay, drift windows, hysteresis — exactly the pre-tiered
//!   per-stream state. A resident stream that serves healthily from the
//!   FSM tier long enough is *released* back to a compact record
//!   (discarding up to `flush_every` pending shadow comparisons — the
//!   stream just proved itself healthy, so the trade is deliberate).
//!
//! Cold streams go a tier further down: a clock sweep hibernates compact
//! streams idle past a threshold into the shard's serialized
//! [`HibernationArena`]; they rehydrate bit-identically on their next
//! request (the round-trip property [`CompactStream`] pins).
//!
//! Stats stay off the decision path: the shard counts into a plain local
//! [`ShardStats`] and folds it into its own slot in [`SharedState`] at
//! batch boundaries, *before* writing the batch's replies, so any response
//! a client observes is already counted when it asks for `Stats` (see
//! [`crate::metrics`]). Gauges are stamped as absolute levels at every
//! fold; rare events (recovery, checkpoints, persist errors, panics,
//! restarts) go straight to the slot.
//!
//! Replies go straight into each connection's socket through its shared
//! [`ReplySink`], one write per run of consecutive replies to one
//! connection; a client that stops reading holds the shard for at most
//! the daemon's write timeout.
//!
//! Batches are capped *below* the blocked-GEMM row cutoff, where the
//! packed layers run multi-row GEMV kernels whose every row is
//! bit-identical to a one-row call (the FSM evaluator chunks its encode the
//! same way internally) — so an action never depends on which other
//! streams happened to share its batch, and chaos summaries stay
//! bit-reproducible. Only a stream's first request in a drain joins a
//! batched lane; its repeats take the scalar path in arrival order, so each
//! steps from the state its predecessor left. Membership is a `contains`
//! over the at most [`BATCH_MAX`] keys seen so far in the drain.
//!
//! A resident stream's guard closes a shadow window every eighth decision
//! and replays it through the rungs that did not serve. The shard does
//! that replay for all the first-in-drain rows whose windows close in the
//! drain at once, before any lane serves: per window step, one
//! `step_batch` for the FSM rung and one `infer_batch_into` per net rung
//! over the rows that rung does not serve. The guards take the staged
//! actions through [`GuardedPolicy::record_replayed`] (the same
//! compare-and-evaluate step as their own replay) and replay only the
//! last-resort rung themselves. Streams on the last-resort tier, which
//! take the scalar lane, are replayed with the rest.
//!
//! A request whose observation has the wrong width or any non-finite
//! value is answered with [`Response::Err`] before its stream is touched.
//!
//! Robustness: the worker body runs under `catch_unwind`; a panic (a bug,
//! or an injected [`ShardMsg::Crash`]) is counted, the thread restarts
//! with exponential backoff, and the shard's streams are re-admitted with
//! reset state (what it counted since its last fold into the slot is
//! lost, but every batch is folded before its replies go out). The
//! queue lives *outside* the restart loop, so requests enqueued while the
//! worker was down are served after recovery instead of being dropped.
//! Expired deadlines are answered from the shard's fallback policy at
//! dequeue time. Hot reload is observed at batch boundaries: the worker
//! compares the daemon's bundle generation and rebuilds everything —
//! table *and* arena, since saved state ids are meaningless across
//! machines — between batches.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lahd_core::SHADOW_TIER;
use lahd_fsm::{
    BatchScratch, CompiledCursor, CompiledFsm, CompiledScratch, StepOutcome, VecPolicy,
};
use lahd_guard::{
    obs_hash, out_of_band, GuardConfig, GuardedPolicy, HealthState, MicroConfig, MicroVerdict,
};
use lahd_rl::InferScratch;
use lahd_tensor::Matrix;

use crate::bundle::ServeBundle;
use crate::compact::{CompactStream, HibernationArena, REC_BYTES};
use crate::daemon::{ReplySink, SharedState};
use crate::metrics::ShardStats;
use crate::persist::{self, ShardPersist};
use crate::protocol::{push_frame, Response, Source};
use crate::stream_table::{StreamRef, StreamTable};

/// Maximum requests a shard drains into one batch. Strictly below the
/// blocked-GEMM row cutoff, so every batch stays on the multi-row GEMV
/// path and batching never changes a row's result.
pub const BATCH_MAX: usize = 12;
const _: () = assert!(BATCH_MAX < lahd_tensor::gemm::BLOCK_MIN_ROWS);

/// Maximum concurrently materialized audits per shard; further due audits
/// are deferred, not skipped.
const AUDIT_BUDGET: usize = 8;

/// Ladder tier indices, matching `lahd_core::build_ladder`.
pub const TIER_FSM: usize = 0;
/// Quantized-i8 net tier.
pub const TIER_QUANT: usize = 1;
/// Exact net tier (also the shadow reference).
pub const TIER_EXACT: usize = 2;
/// Scenario-baseline last resort (also the shed/deadline fallback).
pub const TIER_BASELINE: usize = 3;

/// Healthy FSM-tier decisions a resident stream must serve before it is
/// released back to a compact record.
const RELEASE_AFTER: u64 = 64;

/// Slots the clock sweep examines per invocation (bounds sweep latency at
/// large tables; the hand wraps, so coverage is eventual and fair).
const SWEEP_CHUNK: usize = 1024;

/// Hibernation-arena capacity per shard; clock/second-chance eviction
/// beyond (an evicted stream re-admits fresh).
const MAX_HIBERNATED: usize = 1 << 20;

/// A message on a shard's queue.
pub(crate) enum ShardMsg {
    /// One decision request.
    Decide {
        /// Correlation id echoed back.
        req_id: u64,
        /// Stream identity.
        stream: u64,
        /// Absolute deadline; expired work is answered from the fallback.
        deadline: Option<Instant>,
        /// When admission accepted the request (latency histogram origin).
        enqueued: Instant,
        /// The observation.
        obs: Vec<f32>,
        /// The connection to write the [`Response::Decision`] to.
        reply: Arc<ReplySink>,
    },
    /// Chaos: panic the worker (exercises the restart path).
    Crash,
    /// Chaos: sleep `ms` milliseconds, letting the queue fill so admission
    /// control is exercised deterministically.
    Hold {
        /// Sleep duration in milliseconds.
        ms: u32,
    },
    /// Clean worker exit.
    Shutdown,
}

/// Recurrent state one net tier keeps per stream, shared between the
/// tier's scalar [`VecPolicy`] wrapper and the shard's batched path.
struct NetState {
    hidden: Matrix,
    scratch: InferScratch,
}

impl NetState {
    fn new(bundle: &ServeBundle) -> Self {
        Self {
            hidden: bundle.artifacts.agent.initial_state(),
            scratch: InferScratch::default(),
        }
    }
}

/// Scalar [`VecPolicy`] over a packed engine with externally shared state —
/// the guard's deferred shadow replay and tier fallbacks drive this; the
/// hot batched path updates the same cell directly.
struct EnginePolicy {
    bundle: Arc<ServeBundle>,
    quant: bool,
    cell: Rc<RefCell<NetState>>,
}

impl EnginePolicy {
    fn engine(&self) -> &lahd_rl::InferEngine {
        if self.quant {
            &self.bundle.quant
        } else {
            &self.bundle.exact
        }
    }
}

impl VecPolicy for EnginePolicy {
    fn reset(&mut self) {
        let st = &mut *self.cell.borrow_mut();
        st.hidden = self.bundle.artifacts.agent.initial_state();
    }

    fn act_vec(&mut self, obs: &[f32]) -> usize {
        let st = &mut *self.cell.borrow_mut();
        let agent = &self.bundle.artifacts.agent;
        self.engine()
            .infer_into(agent, obs, &st.hidden, &mut st.scratch);
        std::mem::swap(&mut st.hidden, &mut st.scratch.hidden);
        lahd_tensor::argmax(st.scratch.logits.row(0))
    }

    fn name(&self) -> &str {
        if self.quant {
            "serve-quant"
        } else {
            "serve-exact"
        }
    }
}

/// Cursor + scratch one *resident* stream keeps on the compiled FSM tier,
/// shared between the rung-0 [`VecPolicy`] wrapper and the shard's batched
/// FSM path — the FSM analogue of [`NetState`]. (Compact streams hold a
/// bare cursor instead and share the shard-wide scratch.)
struct FsmCell {
    cursor: CompiledCursor,
    scratch: CompiledScratch,
}

/// Rung-0 scalar [`VecPolicy`] over the bundle's shared compiled machine.
/// The guard's fallback ladder drives this on the scalar path; the shard's
/// batched FSM path advances the same cell directly.
struct FsmTierPolicy {
    compiled: Arc<CompiledFsm>,
    cell: Rc<RefCell<FsmCell>>,
}

impl VecPolicy for FsmTierPolicy {
    fn reset(&mut self) {
        self.cell.borrow_mut().cursor.reset(&self.compiled);
    }

    fn act_vec(&mut self, obs: &[f32]) -> usize {
        let cell = &mut *self.cell.borrow_mut();
        let outcome = self
            .compiled
            .step(obs, cell.cursor.state(), &mut cell.scratch);
        cell.cursor.apply(outcome)
    }

    fn name(&self) -> &str {
        "extracted-fsm"
    }
}

/// A stream holding the full materialized ladder.
struct ResidentStream {
    guard: GuardedPolicy,
    /// Shared recurrent cells for [`TIER_QUANT`] and [`TIER_EXACT`].
    cells: [Rc<RefCell<NetState>>; 2],
    /// Shared compiled-FSM cursor for [`TIER_FSM`]; `None` when the
    /// bundle's machine didn't lower (rung 0 then runs the interpreter,
    /// scalar only — and no stream is ever compact).
    fsm_cell: Option<Rc<RefCell<FsmCell>>>,
    /// Lifetime decisions (carried across compact ⇄ resident).
    decisions: u64,
    /// Decisions served since this materialization.
    resident_decisions: u64,
    /// Shard tick of the last served decision.
    last_tick: u64,
    /// Whether this materialization was a periodic audit (holds one slot
    /// of the shard's audit budget until release).
    is_audit: bool,
}

/// One stream's table entry: compact record or full ladder.
enum StreamEntry {
    Compact(CompactStream),
    Resident(Box<ResidentStream>),
}

/// The resident ladder behind a handle the caller routed as resident.
fn resident(streams: &StreamTable<StreamEntry>, r: StreamRef) -> &ResidentStream {
    match streams.get(r) {
        Some(StreamEntry::Resident(resident)) => resident,
        _ => unreachable!("replay rows are resident streams"),
    }
}

/// Rungs the shard replays itself: the FSM and both nets. The
/// last-resort rung is left to each guard's own replay.
const REPLAY_RUNGS: usize = 3;

/// Shard-owned staging for one drain's batched shadow replay (see
/// [`ShardState::replay_windows`]): the replayed rows and their actions,
/// plus reusable per-step buffers.
#[derive(Default)]
struct ReplayStaging {
    /// Live-batch index of each replayed row.
    rows: Vec<usize>,
    /// Window length shared by every row (all of a shard's guards run one
    /// configuration): the buffered observations plus the closing one.
    width: usize,
    /// `[row][rung][step]` actions, flattened.
    actions: Vec<usize>,
    /// Rows (indices into `rows`) that step the current rung.
    members: Vec<usize>,
    obs: Matrix,
    hidden: Matrix,
    states: Vec<u16>,
    outcomes: Vec<StepOutcome>,
}

impl ReplayStaging {
    /// The replayed window actions for live-batch row `i`, one entry per
    /// replayed rung: `None` for the serving rung, and for every rung
    /// when the row was not replayed.
    fn handed(&self, i: usize, active: usize) -> [Option<&[usize]>; REPLAY_RUNGS] {
        let row = self.rows.iter().position(|&j| j == i);
        std::array::from_fn(|rung| {
            let row = row.filter(|_| rung != active)?;
            let at = (row * REPLAY_RUNGS + rung) * self.width;
            Some(&self.actions[at..at + self.width])
        })
    }
}

/// Builds a full ladder; `cursor` seeds the FSM tier mid-run when a
/// compact stream materializes (so rung 0 continues the same trajectory).
fn make_resident(
    bundle: &Arc<ServeBundle>,
    stream: u64,
    cursor: Option<CompiledCursor>,
) -> ResidentStream {
    let quant_cell = Rc::new(RefCell::new(NetState::new(bundle)));
    let exact_cell = Rc::new(RefCell::new(NetState::new(bundle)));
    let fsm_cell = bundle.compiled.as_ref().map(|compiled| {
        Rc::new(RefCell::new(FsmCell {
            cursor: cursor
                .clone()
                .unwrap_or_else(|| CompiledCursor::new(compiled)),
            scratch: compiled.make_scratch(),
        }))
    });
    let rung0: Box<dyn VecPolicy> = match (&bundle.compiled, &fsm_cell) {
        (Some(compiled), Some(cell)) => Box::new(FsmTierPolicy {
            compiled: compiled.clone(),
            cell: cell.clone(),
        }),
        _ => Box::new(bundle.fsm_executor()),
    };
    let last_resort = bundle
        .scenario()
        .baselines(&bundle.cfg.sim)
        .into_iter()
        .next()
        .expect("every scenario registers at least one baseline");
    let tiers: Vec<Box<dyn VecPolicy>> = vec![
        rung0,
        Box::new(EnginePolicy {
            bundle: bundle.clone(),
            quant: true,
            cell: quant_cell.clone(),
        }),
        Box::new(EnginePolicy {
            bundle: bundle.clone(),
            quant: false,
            cell: exact_cell.clone(),
        }),
        last_resort,
    ];
    let guard_cfg = GuardConfig {
        seed: bundle
            .cfg
            .seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ..GuardConfig::default()
    };
    ResidentStream {
        guard: GuardedPolicy::new(tiers, SHADOW_TIER, bundle.baseline.clone(), guard_cfg),
        cells: [quant_cell, exact_cell],
        fsm_cell,
        decisions: 0,
        resident_decisions: 0,
        last_tick: 0,
        is_audit: false,
    }
}

/// A reply staged until the batch's counts are in the shard's stats slot.
struct Reply {
    to: Arc<ReplySink>,
    resp: Response,
    /// `(tier, enqueued)` for served decisions (feeds the latency
    /// histogram); `None` for errors/deadline/shed answers.
    served: Option<(usize, Instant)>,
}

/// First-audit schedule: staggered per stream so a cohort admitted
/// together doesn't audit together (a synchronized audit wave would blow
/// the audit budget and defer most of the cohort).
fn first_audit(audit_every: u64, key: u64) -> u64 {
    if audit_every == 0 {
        return u64::MAX;
    }
    audit_every / 2 + (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % audit_every
}

/// One shard's mutable serving state; rebuilt from scratch after a panic
/// restart or a bundle swap.
struct ShardState {
    shard_index: usize,
    bundle: Arc<ServeBundle>,
    generation: u64,
    streams: StreamTable<StreamEntry>,
    arena: HibernationArena,
    /// Shard-local fallback for expired deadlines and over-capacity
    /// streams (the scenario baseline, same policy as [`TIER_BASELINE`]).
    fallback: Box<dyn VecPolicy>,
    batch_scratch: InferScratch,
    /// Staging for the batched shadow replay of windows closing in a drain.
    replay: ReplayStaging,
    /// SoA staging for the batched FSM tier (`None` when the bundle's
    /// machine didn't lower), plus reusable per-batch buffers.
    fsm_scratch: Option<BatchScratch>,
    /// Scalar compiled-step scratch for compact streams off the batch path
    /// (repeat requests for a stream already in the batch).
    fsm_scalar: Option<CompiledScratch>,
    fsm_states: Vec<u16>,
    fsm_outcomes: Vec<StepOutcome>,
    micro_cfg: MicroConfig,
    /// Shard-local logical clock: one tick per drained batch or idle
    /// interval. Hibernation idleness is measured in ticks.
    tick: u64,
    /// Clock-sweep hand over the table's slot span.
    clock_hand: usize,
    /// Materialized audits currently holding a budget slot.
    audits_active: usize,
    /// Gauge: compact entries in the table.
    compact_count: u64,
    /// Gauge: resident entries in the table.
    resident_count: u64,
    /// Counts since the last fold into this shard's stats slot.
    stats: ShardStats,
    /// Replies staged during the batch, written after the stats fold.
    replies: Vec<Reply>,
    /// Durable-state writer (checkpoints + journal); `None` when the
    /// daemon runs without a state directory or its creation failed.
    persist: Option<ShardPersist>,
}

impl ShardState {
    fn fresh(shard_index: usize, shared: &SharedState) -> Self {
        let bundle = shared.bundle.lock().unwrap().clone();
        let generation = shared.generation.load(Ordering::Acquire);
        let fallback = bundle
            .scenario()
            .baselines(&bundle.cfg.sim)
            .into_iter()
            .next()
            .expect("every scenario registers at least one baseline");
        let fsm_scratch = bundle
            .compiled
            .as_deref()
            .map(CompiledFsm::make_batch_scratch);
        let fsm_scalar = bundle.compiled.as_deref().map(CompiledFsm::make_scratch);
        let persist = shared.cfg.state_dir.as_deref().and_then(|dir| {
            match ShardPersist::create(dir, shard_index) {
                Ok(p) => Some(p),
                Err(_) => {
                    shared.slot(shard_index).persist_errors += 1;
                    None
                }
            }
        });
        let mut state = Self {
            shard_index,
            bundle,
            generation,
            streams: StreamTable::with_capacity(1024),
            arena: HibernationArena::new(MAX_HIBERNATED),
            fallback,
            batch_scratch: InferScratch::default(),
            replay: ReplayStaging::default(),
            fsm_scratch,
            fsm_scalar,
            fsm_states: Vec::new(),
            fsm_outcomes: Vec::new(),
            micro_cfg: MicroConfig::default(),
            tick: 0,
            clock_hand: 0,
            audits_active: 0,
            compact_count: 0,
            resident_count: 0,
            stats: ShardStats::default(),
            replies: Vec::new(),
            persist,
        };
        // One-shot recovery latch: only the first boot with `--recover`
        // loads the checkpoint — a panic restart or bundle swap must NOT
        // resurrect durable state that is stale against the live daemon.
        if state.persist.is_some() && shared.take_recover(shard_index) {
            state.recover(shared);
        }
        state
    }

    /// Rebuilds this shard's streams from the latest checkpoint segment +
    /// journal tail. Checkpointed records come back bit-identically (same
    /// cursor, same health triage); journal-only admits come back as
    /// deterministic fresh compact streams (membership survives, cursor
    /// state does not — the journal records membership, not trajectories).
    fn recover(&mut self, shared: &SharedState) {
        let Some(dir) = shared.cfg.state_dir.as_deref() else {
            return;
        };
        let rec = persist::recover_shard(dir, self.shard_index);
        for chunk in rec.table.chunks_exact(REC_BYTES) {
            let (key, stream) = CompactStream::deserialize(chunk);
            if self.streams.lookup(key).is_some() {
                continue;
            }
            self.streams.insert(key, StreamEntry::Compact(stream));
            self.compact_count += 1;
        }
        for chunk in rec.arena.chunks_exact(REC_BYTES) {
            self.arena.restore_record(chunk);
        }
        let mut journal_ops = 0u64;
        for &(op, key) in &rec.wal_ops {
            journal_ops += 1;
            match op {
                persist::WAL_ADMIT => {
                    let Some(compiled) = self.bundle.compiled.as_ref() else {
                        continue;
                    };
                    if self.streams.lookup(key).is_some() || self.arena.contains(key) {
                        continue;
                    }
                    let compact = CompactStream::new(
                        CompiledCursor::new(compiled),
                        first_audit(shared.cfg.audit_every, key),
                    );
                    self.streams.insert(key, StreamEntry::Compact(compact));
                    self.compact_count += 1;
                }
                persist::WAL_EVICT => {
                    if let Some(r) = self.streams.lookup(key) {
                        if matches!(self.streams.get(r), Some(StreamEntry::Compact(_))) {
                            self.streams.remove(key);
                            self.compact_count -= 1;
                        }
                    } else {
                        self.arena.forget(key);
                    }
                }
                _ => {}
            }
        }
        // Recovery-internal evictions (capacity trims) are not journal
        // events; drop them so the next load's journal stays clean.
        self.arena.drain_evicted();
        let mut slot = shared.slot(self.shard_index);
        slot.recovered_streams += self.streams.len() as u64 + self.arena.len() as u64;
        slot.quarantined_records += rec.quarantined;
        slot.journal_ops += journal_ops;
    }

    /// Batch-boundary reload check: when the daemon has published a newer
    /// bundle generation, swap to it atomically (from this shard's point
    /// of view) and re-admit streams with reset state. The hibernation
    /// arena drops too — saved cursors are meaningless against the new
    /// machine's state ids.
    fn maybe_swap_bundle(&mut self, shared: &SharedState) {
        let gen = shared.generation.load(Ordering::Acquire);
        if gen == self.generation {
            return;
        }
        self.flush_stats(shared);
        *self = Self::fresh(self.shard_index, shared);
        // The old checkpoint's cursor state ids are meaningless against
        // the new machine: replace it with the (empty) post-swap truth so
        // a later `--recover` cannot resurrect cross-bundle state.
        self.checkpoint(shared);
    }

    /// Resolves `stream` to a live table entry, admitting it if needed:
    /// wake from the arena first, else a fresh compact record (when the
    /// machine lowered) or a fresh full ladder. `None` means the table is
    /// at capacity and the request must shed. Hibernated streams do not
    /// count against `max_streams`.
    fn admit(&mut self, shared: &SharedState, stream: u64) -> Option<StreamRef> {
        if let Some(r) = self.streams.lookup(stream) {
            return Some(r);
        }
        if self.streams.len() >= shared.cfg.max_streams {
            return None;
        }
        if let Some(compact) = self.arena.wake(stream) {
            self.stats.wakes += 1;
            self.compact_count += 1;
            return Some(self.streams.insert(stream, StreamEntry::Compact(compact)));
        }
        if self.fsm_scratch.is_some() {
            let compiled = self
                .bundle
                .compiled
                .as_ref()
                .expect("batch scratch implies a compiled machine");
            let compact = CompactStream::new(
                CompiledCursor::new(compiled),
                first_audit(shared.cfg.audit_every, stream),
            );
            self.compact_count += 1;
            if let Some(p) = &mut self.persist {
                p.log_admit(stream);
            }
            Some(self.streams.insert(stream, StreamEntry::Compact(compact)))
        } else {
            self.resident_count += 1;
            if let Some(p) = &mut self.persist {
                p.log_admit(stream);
            }
            let resident = make_resident(&self.bundle, stream, None);
            Some(
                self.streams
                    .insert(stream, StreamEntry::Resident(Box::new(resident))),
            )
        }
    }

    /// Promotes a compact stream to the full ladder, seeding the new
    /// guard's bookkeeping with the decision just served. In-place entry
    /// replacement: the slot generation is untouched, so handles minted
    /// this batch stay valid.
    fn materialize(&mut self, r: StreamRef, obs: &[f32], served_action: usize, is_audit: bool) {
        let Some(key) = self.streams.key_of(r) else {
            return;
        };
        let Some(entry) = self.streams.get_mut(r) else {
            return;
        };
        let StreamEntry::Compact(compact) = entry else {
            return;
        };
        let cursor = compact.cursor.clone();
        let decisions = compact.decisions;
        let last_tick = compact.last_tick;
        let mut resident = make_resident(&self.bundle, key, Some(cursor));
        resident.decisions = decisions;
        resident.last_tick = last_tick;
        resident.is_audit = is_audit;
        resident.guard.record_served(obs, served_action);
        *entry = StreamEntry::Resident(Box::new(resident));
        self.compact_count -= 1;
        self.resident_count += 1;
        self.stats.materializations += 1;
        if is_audit {
            self.stats.audits += 1;
            self.audits_active += 1;
        }
    }

    /// Releases a resident stream back to a compact record when it has
    /// proven healthy on the FSM tier — `min_decisions` served since
    /// materialization (0 for the idle sweep), guard fully healthy, rung 0
    /// active. Up to `flush_every` pending shadow comparisons are
    /// discarded with the ladder (see module docs).
    fn try_release(&mut self, shared: &SharedState, r: StreamRef, min_decisions: u64) {
        let Some(entry) = self.streams.get_mut(r) else {
            return;
        };
        let StreamEntry::Resident(resident) = entry else {
            return;
        };
        if resident.resident_decisions < min_decisions
            || resident.guard.state() != HealthState::Healthy
            || resident.guard.active_tier() != TIER_FSM
        {
            return;
        }
        let Some(cell) = &resident.fsm_cell else {
            return;
        };
        let cursor = cell.borrow().cursor.clone();
        let was_audit = resident.is_audit;
        let decisions = resident.decisions;
        let last_tick = resident.last_tick;
        let next_audit = if shared.cfg.audit_every == 0 {
            u64::MAX
        } else {
            decisions + shared.cfg.audit_every
        };
        let mut compact = CompactStream::new(cursor, next_audit);
        compact.decisions = decisions;
        compact.last_tick = last_tick;
        *entry = StreamEntry::Compact(compact);
        self.resident_count -= 1;
        self.compact_count += 1;
        if was_audit {
            self.audits_active = self.audits_active.saturating_sub(1);
        }
        self.stats.releases += 1;
    }

    /// Finishes one FSM-tier decision (batched or scalar): applies the
    /// outcome, stages the reply, and runs the per-kind bookkeeping —
    /// triage + audit scheduling for compact streams, guard feeding +
    /// release check for resident ones.
    fn serve_fsm_row(
        &mut self,
        shared: &SharedState,
        i: usize,
        req: &DecideReq,
        r: StreamRef,
        outcome: StepOutcome,
    ) {
        let tick = self.tick;
        let Some(entry) = self.streams.get_mut(r) else {
            return;
        };
        match entry {
            StreamEntry::Compact(compact) => {
                let action = compact.cursor.apply(outcome);
                compact.decisions += 1;
                compact.last_tick = tick;
                let oob = out_of_band(&req.obs, &self.bundle.band);
                let verdict = compact.health.observe(
                    &self.micro_cfg,
                    obs_hash(&req.obs),
                    outcome.unseen,
                    oob,
                );
                let decisions = compact.decisions;
                let audit_due = decisions >= compact.next_audit;
                self.replies.push(Reply {
                    to: req.reply.clone(),
                    resp: Response::Decision {
                        req_id: req.req_id,
                        action: action as u16,
                        tier: TIER_FSM as u8,
                        source: Source::Guarded as u8,
                    },
                    served: Some((TIER_FSM, req.enqueued)),
                });
                match verdict {
                    MicroVerdict::Promote(_reason) => {
                        self.materialize(r, &req.obs, action, false);
                    }
                    MicroVerdict::Healthy if audit_due => {
                        if self.audits_active < AUDIT_BUDGET {
                            self.materialize(r, &req.obs, action, true);
                        } else if let Some(StreamEntry::Compact(compact)) = self.streams.get_mut(r)
                        {
                            // Budget exhausted: defer rather than skip, so
                            // the audit still happens soon.
                            compact.next_audit = decisions + shared.cfg.audit_every / 4 + 1;
                        }
                    }
                    MicroVerdict::Healthy => {}
                }
            }
            StreamEntry::Resident(resident) => {
                let action = resident
                    .fsm_cell
                    .as_ref()
                    .expect("FSM rows only routed with a cell")
                    .borrow_mut()
                    .cursor
                    .apply(outcome);
                let handed = self.replay.handed(i, TIER_FSM);
                resident.guard.record_replayed(&req.obs, action, &handed);
                resident.decisions += 1;
                resident.resident_decisions += 1;
                resident.last_tick = tick;
                self.replies.push(Reply {
                    to: req.reply.clone(),
                    resp: Response::Decision {
                        req_id: req.req_id,
                        action: action as u16,
                        tier: TIER_FSM as u8,
                        source: Source::Guarded as u8,
                    },
                    served: Some((TIER_FSM, req.enqueued)),
                });
                self.try_release(shared, r, RELEASE_AFTER);
            }
        }
    }

    /// Serves one drained batch. Resident streams whose guard window
    /// closes with their first request in the drain first replay that
    /// window together ([`ShardState::replay_windows`]). Then compact
    /// streams and resident FSM-tier streams share one SoA `step_batch`
    /// call; resident net-tier streams go through one batched inference
    /// call per tier; everything else (the last-resort tier, repeat
    /// requests for a stream already in the batch, expired deadlines) takes
    /// the scalar path, in arrival order per stream. Replies are staged and
    /// written only after the batch's counts are folded into the shard's
    /// stats slot.
    fn process_batch(&mut self, shared: &SharedState, batch: Vec<DecideReq>) {
        let now = Instant::now();
        let obs_dim = self.bundle.obs_dim();
        self.replies.clear();

        let mut live: Vec<DecideReq> = Vec::with_capacity(batch.len());
        for req in batch {
            if req.obs.len() != obs_dim {
                self.replies.push(Reply {
                    to: req.reply.clone(),
                    resp: Response::Err(format!(
                        "observation width {} does not match bundle {obs_dim}",
                        req.obs.len()
                    )),
                    served: None,
                });
                continue;
            }
            if req.obs.iter().any(|v| !v.is_finite()) {
                self.replies.push(Reply {
                    to: req.reply.clone(),
                    resp: Response::Err("observation holds a non-finite value".to_string()),
                    served: None,
                });
                continue;
            }
            if req.deadline.is_some_and(|d| now > d) {
                let action = self.fallback.act_vec(&req.obs) as u16;
                self.stats.deadline_misses += 1;
                self.replies.push(Reply {
                    to: req.reply.clone(),
                    resp: Response::Decision {
                        req_id: req.req_id,
                        action,
                        tier: TIER_BASELINE as u8,
                        source: Source::Deadline as u8,
                    },
                    served: None,
                });
                continue;
            }
            live.push(req);
        }

        // Partition by entry kind and active tier; first request per
        // batchable stream goes to that tier's batch, the rest stay
        // scalar.
        let mut batched: Vec<u64> = Vec::with_capacity(BATCH_MAX);
        let fsm_batchable = self.fsm_scratch.is_some();
        let mut fsm_rows: Vec<(usize, StreamRef)> = Vec::new();
        let mut net_batches: [Vec<(usize, StreamRef)>; 2] = [Vec::new(), Vec::new()];
        let mut scalar: Vec<(usize, StreamRef)> = Vec::new();
        let mut replay_rows: Vec<(usize, StreamRef, &[f32])> = Vec::new();
        for (i, req) in live.iter().enumerate() {
            let Some(r) = self.admit(shared, req.stream) else {
                let action = self.fallback.act_vec(&req.obs) as u16;
                self.stats.shed += 1;
                self.replies.push(Reply {
                    to: req.reply.clone(),
                    resp: Response::Decision {
                        req_id: req.req_id,
                        action,
                        tier: TIER_BASELINE as u8,
                        source: Source::Shed as u8,
                    },
                    served: None,
                });
                continue;
            };
            let first = !batched.contains(&req.stream);
            if first {
                batched.push(req.stream);
            }
            match self.streams.get(r).expect("freshly admitted handle") {
                StreamEntry::Compact(_) => {
                    if first && fsm_batchable {
                        fsm_rows.push((i, r));
                    } else {
                        scalar.push((i, r));
                    }
                }
                StreamEntry::Resident(resident) => {
                    let tier = resident.guard.active_tier();
                    if first
                        && fsm_batchable
                        && resident.fsm_cell.is_some()
                        && resident.guard.closes_window_next()
                    {
                        replay_rows.push((i, r, &req.obs));
                    }
                    if tier == TIER_FSM && first && fsm_batchable && resident.fsm_cell.is_some() {
                        fsm_rows.push((i, r));
                    } else if (tier == TIER_QUANT || tier == TIER_EXACT) && first {
                        net_batches[tier - TIER_QUANT].push((i, r));
                    } else {
                        scalar.push((i, r));
                    }
                }
            }
        }

        self.replay_windows(&replay_rows);

        // Batched FSM tier: one SoA step_batch call over all FSM-tier
        // rows — compact and resident mixed, each row against its own
        // cursor state. Bit-identical to the scalar rung-0 path, so guard
        // bookkeeping and chaos summaries are unchanged.
        if !fsm_rows.is_empty() {
            let compiled = self
                .bundle
                .compiled
                .clone()
                .expect("FSM batch only built when the machine lowered");
            self.fsm_states.clear();
            for &(_, r) in &fsm_rows {
                let state = match self.streams.get(r).expect("routed handle") {
                    StreamEntry::Compact(compact) => compact.cursor.state(),
                    StreamEntry::Resident(resident) => resident
                        .fsm_cell
                        .as_ref()
                        .expect("FSM rows only routed with a cell")
                        .borrow()
                        .cursor
                        .state(),
                };
                self.fsm_states.push(state);
            }
            self.fsm_outcomes.clear();
            let scratch = self
                .fsm_scratch
                .as_mut()
                .expect("FSM batch only built with a scratch");
            compiled.step_batch(
                fsm_rows.iter().map(|&(i, _)| live[i].obs.as_slice()),
                &self.fsm_states,
                scratch,
                &mut self.fsm_outcomes,
            );
            for (row, &(i, r)) in fsm_rows.iter().enumerate() {
                let outcome = self.fsm_outcomes[row];
                self.serve_fsm_row(shared, i, &live[i], r, outcome);
            }
        }

        let tick = self.tick;
        for (which, idxs) in net_batches.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let tier = TIER_QUANT + which;
            let agent = &self.bundle.artifacts.agent;
            let rows = idxs.len();
            let mut obs_m = Matrix::zeros(rows, obs_dim);
            let mut hidden_m = Matrix::zeros(rows, agent.hidden_dim());
            for (row, &(i, r)) in idxs.iter().enumerate() {
                obs_m.row_mut(row).copy_from_slice(&live[i].obs);
                let StreamEntry::Resident(resident) = self.streams.get(r).expect("routed handle")
                else {
                    unreachable!("net batches only route resident streams");
                };
                hidden_m
                    .row_mut(row)
                    .copy_from_slice(resident.cells[which].borrow().hidden.row(0));
            }
            let engine = if tier == TIER_QUANT {
                &self.bundle.quant
            } else {
                &self.bundle.exact
            };
            engine.infer_batch_into(agent, &obs_m, &hidden_m, &mut self.batch_scratch);
            for (row, &(i, r)) in idxs.iter().enumerate() {
                let req = &live[i];
                let action = self.batch_scratch.logits.argmax_row(row);
                let StreamEntry::Resident(resident) =
                    self.streams.get_mut(r).expect("routed handle")
                else {
                    unreachable!("net batches only route resident streams");
                };
                resident.cells[which]
                    .borrow_mut()
                    .hidden
                    .row_mut(0)
                    .copy_from_slice(self.batch_scratch.hidden.row(row));
                let handed = self.replay.handed(i, tier);
                resident.guard.record_replayed(&req.obs, action, &handed);
                resident.decisions += 1;
                resident.resident_decisions += 1;
                resident.last_tick = tick;
                self.replies.push(Reply {
                    to: req.reply.clone(),
                    resp: Response::Decision {
                        req_id: req.req_id,
                        action: action as u16,
                        tier: tier as u8,
                        source: Source::Guarded as u8,
                    },
                    served: Some((tier, req.enqueued)),
                });
            }
        }

        for &(i, r) in &scalar {
            let req = &live[i];
            // Re-match the entry kind now: an earlier row of this batch may
            // have materialized (or released) this stream.
            let is_compact = matches!(self.streams.get(r), Some(StreamEntry::Compact(_)));
            if is_compact {
                let compiled = self
                    .bundle
                    .compiled
                    .clone()
                    .expect("compact entries only exist with a compiled machine");
                let state = {
                    let Some(StreamEntry::Compact(compact)) = self.streams.get(r) else {
                        continue;
                    };
                    compact.cursor.state()
                };
                let scratch = self
                    .fsm_scalar
                    .as_mut()
                    .expect("compact entries only exist with a scalar scratch");
                let outcome = compiled.step(&req.obs, state, scratch);
                self.serve_fsm_row(shared, i, req, r, outcome);
                continue;
            }
            let Some(StreamEntry::Resident(resident)) = self.streams.get_mut(r) else {
                continue;
            };
            let tier = resident.guard.active_tier();
            let action = resident
                .guard
                .act_replayed(&req.obs, &self.replay.handed(i, tier))
                as u16;
            resident.decisions += 1;
            resident.resident_decisions += 1;
            resident.last_tick = tick;
            self.replies.push(Reply {
                to: req.reply.clone(),
                resp: Response::Decision {
                    req_id: req.req_id,
                    action,
                    tier: tier as u8,
                    source: Source::Guarded as u8,
                },
                served: Some((tier, req.enqueued)),
            });
            if tier == TIER_FSM {
                self.try_release(shared, r, RELEASE_AFTER);
            }
        }

        self.finish_replies(shared);
    }

    /// Replays, all rows together, the guard windows that close with these
    /// rows' decisions, given as `(live-batch index, handle, closing
    /// observation)`: for each window step, one `step_batch` for the FSM
    /// rung and one multi-row `infer_batch_into` per net rung, each over the
    /// rows that rung does not serve. The window is the guard's buffered
    /// observations followed by the closing one; the serving tier does not
    /// read the other rungs' state, so stepping them before it serves
    /// changes nothing. The actions are staged for the guards'
    /// `record_replayed`, which leaves each guard exactly where its own
    /// scalar replay would (batched FSM steps and below-cutoff net batches
    /// are bit-identical per row), and the last-resort rung to each guard.
    fn replay_windows(&mut self, rows: &[(usize, StreamRef, &[f32])]) {
        let Self {
            bundle,
            streams,
            replay,
            fsm_scratch,
            batch_scratch,
            ..
        } = self;
        replay.rows.clear();
        let Some(&(_, first, _)) = rows.first() else {
            return;
        };
        let width = resident(streams, first).guard.window().len() + 1;
        for &(i, r, _) in rows {
            assert_eq!(
                resident(streams, r).guard.window().len() + 1,
                width,
                "a shard's guards share one window length"
            );
            replay.rows.push(i);
        }
        replay.width = width;
        replay.actions.clear();
        replay.actions.resize(rows.len() * REPLAY_RUNGS * width, 0);
        let obs_at = |row: usize, s: usize| -> &[f32] {
            let (_, r, closing) = rows[row];
            resident(streams, r)
                .guard
                .window()
                .nth(s)
                .unwrap_or(closing)
        };
        let compiled = bundle
            .compiled
            .as_ref()
            .expect("replay rows only routed when the machine lowered");
        let scratch = fsm_scratch
            .as_mut()
            .expect("replay rows only routed with a batch scratch");
        let agent = &bundle.artifacts.agent;
        for s in 0..width {
            for rung in 0..REPLAY_RUNGS {
                replay.members.clear();
                for (row, &(_, r, _)) in rows.iter().enumerate() {
                    if resident(streams, r).guard.active_tier() != rung {
                        replay.members.push(row);
                    }
                }
                let members = replay.members.len();
                if members == 0 {
                    continue;
                }
                if rung == TIER_FSM {
                    replay.states.clear();
                    for &row in &replay.members {
                        let cell = resident(streams, rows[row].1).fsm_cell.as_ref();
                        let cell = cell.expect("replay rows carry an FSM cell");
                        replay.states.push(cell.borrow().cursor.state());
                    }
                    replay.outcomes.clear();
                    compiled.step_batch(
                        replay.members.iter().map(|&row| obs_at(row, s)),
                        &replay.states,
                        scratch,
                        &mut replay.outcomes,
                    );
                    for (m, &row) in replay.members.iter().enumerate() {
                        let cell = resident(streams, rows[row].1).fsm_cell.as_ref();
                        let mut cell = cell.expect("replay rows carry an FSM cell").borrow_mut();
                        let action = cell.cursor.apply(replay.outcomes[m]);
                        replay.actions[(row * REPLAY_RUNGS + rung) * width + s] = action;
                    }
                    continue;
                }
                let which = rung - TIER_QUANT;
                if replay.obs.shape() != (members, agent.obs_dim()) {
                    replay.obs.reshape_zeroed(members, agent.obs_dim());
                }
                if replay.hidden.shape() != (members, agent.hidden_dim()) {
                    replay.hidden.reshape_zeroed(members, agent.hidden_dim());
                }
                for (m, &row) in replay.members.iter().enumerate() {
                    replay.obs.row_mut(m).copy_from_slice(obs_at(row, s));
                    let cell = resident(streams, rows[row].1).cells[which].borrow();
                    replay.hidden.row_mut(m).copy_from_slice(cell.hidden.row(0));
                }
                let engine = if rung == TIER_QUANT {
                    &bundle.quant
                } else {
                    &bundle.exact
                };
                engine.infer_batch_into(agent, &replay.obs, &replay.hidden, batch_scratch);
                for (m, &row) in replay.members.iter().enumerate() {
                    let mut cell = resident(streams, rows[row].1).cells[which].borrow_mut();
                    cell.hidden
                        .row_mut(0)
                        .copy_from_slice(batch_scratch.hidden.row(m));
                    replay.actions[(row * REPLAY_RUNGS + rung) * width + s] =
                        batch_scratch.logits.argmax_row(m);
                }
            }
        }
    }

    /// Records latencies, folds the batch's counts into the stats slot, and
    /// only then writes the staged replies, each run of consecutive replies
    /// to one connection in one write: the ordering that makes a `Stats`
    /// answer count every reply a client already holds.
    fn finish_replies(&mut self, shared: &SharedState) {
        let end = Instant::now();
        for reply in &self.replies {
            if let Some((tier, enqueued)) = reply.served {
                self.stats
                    .record_served(tier, end.duration_since(enqueued).as_nanos() as u64);
            }
        }
        self.flush_stats(shared);
        // Same ordering argument for durability: admits/evictions in this
        // batch hit the journal before any of its replies are observable.
        self.flush_persist(shared);
        let mut frames = Vec::new();
        let mut replies = self.replies.drain(..).peekable();
        while let Some(reply) = replies.next() {
            push_frame(&mut frames, &reply.resp.encode());
            let same_conn = |next: &Reply| Arc::ptr_eq(&next.to, &reply.to);
            if !replies.peek().is_some_and(same_conn) {
                reply.to.write(&frames);
                frames.clear();
            }
        }
    }

    /// Stamps the current gauges and folds the local counts into this
    /// shard's stats slot (counters add, gauges replace), then starts a
    /// fresh accumulator.
    fn flush_stats(&mut self, shared: &SharedState) {
        let local = &mut self.stats;
        local.compact = self.compact_count;
        local.resident = self.resident_count;
        local.hibernated = self.arena.len() as u64;
        local.arena_bytes = self.arena.arena_bytes();
        shared.slot(self.shard_index).absorb(local);
        *local = ShardStats::default();
    }

    /// Clock sweep: examine up to [`SWEEP_CHUNK`] slots and push idle
    /// streams down the state ladder — resident → compact (idle release),
    /// compact → arena (hibernate). Two sweep passes therefore take a
    /// long-idle resident stream all the way to the arena.
    fn sweep(&mut self, shared: &SharedState) {
        if shared.cfg.hibernate_after == 0 {
            return;
        }
        let span = self.streams.slot_span();
        if span == 0 {
            return;
        }
        for _ in 0..SWEEP_CHUNK.min(span) {
            let pos = self.clock_hand % span;
            self.clock_hand = self.clock_hand.wrapping_add(1);
            let Some(key) = self.streams.key_at_clock(pos) else {
                continue;
            };
            let Some(r) = self.streams.lookup(key) else {
                continue;
            };
            match self.streams.get(r) {
                Some(StreamEntry::Compact(compact)) => {
                    if self.tick.saturating_sub(compact.last_tick) >= shared.cfg.hibernate_after {
                        self.hibernate_stream(key);
                    }
                }
                Some(StreamEntry::Resident(resident)) => {
                    if self.tick.saturating_sub(resident.last_tick) >= shared.cfg.hibernate_after {
                        self.try_release(shared, r, 0);
                    }
                }
                None => {}
            }
        }
    }

    /// Moves a compact stream from the table into the arena.
    fn hibernate_stream(&mut self, key: u64) {
        let Some(StreamEntry::Compact(compact)) = self.streams.remove(key) else {
            return;
        };
        let evicted_before = self.arena.evicted();
        self.arena.hibernate(key, &compact);
        self.stats.hibernates += 1;
        self.stats.evictions += self.arena.evicted() - evicted_before;
        for victim in self.arena.drain_evicted() {
            if let Some(p) = &mut self.persist {
                p.log_evict(victim);
            }
        }
        self.compact_count -= 1;
    }

    /// Flushes buffered journal records to disk (batch boundaries and
    /// idle ticks — the durability analogue of the stats fold).
    fn flush_persist(&mut self, shared: &SharedState) {
        if let Some(p) = &mut self.persist {
            if p.flush_wal().is_err() {
                shared.slot(self.shard_index).persist_errors += 1;
            }
        }
    }

    /// Serializes the compact table + arena into this shard's checkpoint
    /// segment (atomic tmp + rename; resets the journal). Resident
    /// streams are deliberately not captured — their net hidden state and
    /// guard windows are not serializable — so they re-admit fresh after
    /// recovery, exactly like a stream the daemon never saw.
    fn checkpoint(&mut self, shared: &SharedState) {
        if self.persist.is_none() {
            return;
        }
        let mut table = Vec::with_capacity(self.compact_count as usize * REC_BYTES);
        let mut buf = [0u8; REC_BYTES];
        for pos in 0..self.streams.slot_span() {
            let Some(key) = self.streams.key_at_clock(pos) else {
                continue;
            };
            let Some(r) = self.streams.lookup(key) else {
                continue;
            };
            if let Some(StreamEntry::Compact(compact)) = self.streams.get(r) {
                compact.serialize_into(key, &mut buf);
                table.extend_from_slice(&buf);
            }
        }
        let mut arena = Vec::with_capacity(self.arena.len() * REC_BYTES);
        self.arena.snapshot_into(&mut arena);
        let p = self.persist.as_mut().expect("checked above");
        let written = p.write_checkpoint(self.tick, &table, &arena);
        let mut slot = shared.slot(self.shard_index);
        match written {
            Ok(()) => slot.checkpoints += 1,
            Err(_) => slot.persist_errors += 1,
        }
    }

    /// Graceful-drain epilogue: final stats fold + final checkpoint.
    /// Runs on every clean `serve_loop` exit, so a daemon stopped by a
    /// shutdown command leaves a complete durable image behind.
    fn drain(&mut self, shared: &SharedState) {
        self.flush_stats(shared);
        self.checkpoint(shared);
    }
}

/// A [`ShardMsg::Decide`] unpacked for batch processing.
struct DecideReq {
    req_id: u64,
    stream: u64,
    deadline: Option<Instant>,
    enqueued: Instant,
    obs: Vec<f32>,
    reply: Arc<ReplySink>,
}

/// Worker restart backoff after the first panic, milliseconds; doubles per
/// consecutive panic.
const RESTART_BACKOFF_MS: u64 = 10;

/// Restart backoff ceiling, milliseconds.
const RESTART_BACKOFF_CAP_MS: u64 = 500;

/// The shard thread body: serve until shutdown, restarting the serving
/// loop with exponential backoff whenever it panics. The queue receiver
/// outlives the panic, so in-flight requests survive worker crashes.
pub(crate) fn run_shard(index: usize, rx: Receiver<ShardMsg>, shared: Arc<SharedState>) {
    let mut backoff_ms = RESTART_BACKOFF_MS;
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| serve_loop(index, &rx, &shared)));
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

fn serve_loop(index: usize, rx: &Receiver<ShardMsg>, shared: &SharedState) {
    let mut state = ShardState::fresh(index, shared);
    let sweep_every = shared.cfg.sweep_every.max(1);
    let checkpoint_every = shared.cfg.checkpoint_every;
    loop {
        state.maybe_swap_bundle(shared);
        let first = match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    state.drain(shared);
                    return;
                }
                // Idle interval: advance the clock, sweep, and publish what
                // the sweep changed and any buffered journal records.
                state.tick += 1;
                if state.tick % sweep_every == 0 {
                    state.sweep(shared);
                }
                state.flush_stats(shared);
                state.flush_persist(shared);
                if checkpoint_every > 0 && state.tick % checkpoint_every == 0 {
                    state.checkpoint(shared);
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => {
                state.drain(shared);
                return;
            }
        };
        let mut batch: Vec<DecideReq> = Vec::with_capacity(BATCH_MAX);
        let mut control: Option<ShardMsg> = None;
        match first {
            ShardMsg::Decide {
                req_id,
                stream,
                deadline,
                enqueued,
                obs,
                reply,
            } => batch.push(DecideReq {
                req_id,
                stream,
                deadline,
                enqueued,
                obs,
                reply,
            }),
            other => control = Some(other),
        }
        while control.is_none() && batch.len() < BATCH_MAX {
            match rx.try_recv() {
                Ok(ShardMsg::Decide {
                    req_id,
                    stream,
                    deadline,
                    enqueued,
                    obs,
                    reply,
                }) => batch.push(DecideReq {
                    req_id,
                    stream,
                    deadline,
                    enqueued,
                    obs,
                    reply,
                }),
                Ok(other) => control = Some(other),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
            }
        }
        if !batch.is_empty() {
            state.tick += 1;
            state.process_batch(shared, batch);
            if state.tick % sweep_every == 0 {
                state.sweep(shared);
            }
            if checkpoint_every > 0 && state.tick % checkpoint_every == 0 {
                state.checkpoint(shared);
            }
        }
        match control {
            Some(ShardMsg::Shutdown) => {
                state.drain(shared);
                return;
            }
            Some(ShardMsg::Crash) => panic!("injected chaos crash"),
            Some(ShardMsg::Hold { ms }) => {
                std::thread::sleep(Duration::from_millis(ms as u64));
            }
            Some(ShardMsg::Decide { .. }) | None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::ServeConfig;
    use crate::metrics::ServeMetrics;
    use lahd_guard::BaselineProfile;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Mutex;

    fn shared() -> SharedState {
        let (cfg, dir) = crate::bundle::tests::tiny();
        let bundle = ServeBundle::load(cfg, dir).expect("tiny artifacts serve");
        SharedState {
            cfg: ServeConfig::default(),
            pipeline_cfg: cfg.clone(),
            bundle: Mutex::new(Arc::new(bundle)),
            generation: AtomicU64::new(0),
            metrics: ServeMetrics::default(),
            stats: vec![Mutex::new(ShardStats::default())],
            shutdown: AtomicBool::new(false),
            recover_shards: Vec::new(),
        }
    }

    /// Observations spread `spread` interquartile ranges around each
    /// dimension's band: wide enough that the tiny nets answer several
    /// actions and the guards walk down the ladder, at a pace set by
    /// `spread`.
    fn obs(profile: &BaselineProfile, stream: u64, step: usize, spread: f64) -> Vec<f32> {
        profile
            .dims
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let frac = ((step * 3 + i * 7 + stream as usize * 5) % 10) as f64 / 10.0;
                let iqr = d.p75 - d.p25;
                (d.p25 + iqr * frac + (iqr + 0.1) * (frac - 0.5) * 2.0 * spread) as f32
            })
            .collect()
    }

    /// The shard's batched window replay must leave every guard exactly
    /// where the guard's own scalar replay leaves an identical ladder: same
    /// served actions, tiers, comparisons and transitions, step by step,
    /// with rows at different serving tiers sharing each replay.
    #[test]
    fn batched_window_replay_matches_each_guards_own_replay() {
        let shared = shared();
        let mut shard = ShardState::fresh(0, &shared);
        let bundle = shard.bundle.clone();
        let spreads = [2.0, 4.0, 6.0, 8.0, 12.0, 3.0];
        let mut own: Vec<ResidentStream> = (0..spreads.len() as u64)
            .map(|k| make_resident(&bundle, k, None))
            .collect();
        let handles: Vec<StreamRef> = (0..spreads.len() as u64)
            .map(|k| {
                let ladder = make_resident(&bundle, k, None);
                shard
                    .streams
                    .insert(k, StreamEntry::Resident(Box::new(ladder)))
            })
            .collect();
        let mut tiers_replayed = [false; TIER_BASELINE + 1];
        let mut widest = 0;
        for step in 0..400 {
            let step_obs: Vec<Vec<f32>> = (0..spreads.len())
                .map(|k| obs(&bundle.baseline, k as u64, step, spreads[k]))
                .collect();
            let closing: Vec<(usize, StreamRef, &[f32])> = handles
                .iter()
                .enumerate()
                .filter(|&(_, &r)| resident(&shard.streams, r).guard.closes_window_next())
                .map(|(k, &r)| (k, r, step_obs[k].as_slice()))
                .collect();
            widest = widest.max(closing.len());
            shard.replay_windows(&closing);
            for (k, o) in step_obs.iter().enumerate() {
                let want = own[k].guard.act_vec(o);
                let Some(StreamEntry::Resident(batched)) = shard.streams.get_mut(handles[k]) else {
                    unreachable!("the test only inserts resident streams");
                };
                let tier = batched.guard.active_tier();
                if closing.iter().any(|&(i, _, _)| i == k) {
                    tiers_replayed[tier] = true;
                }
                let got = batched.guard.act_replayed(o, &shard.replay.handed(k, tier));
                assert_eq!(got, want, "stream {k}, step {step}: served action");
                assert_eq!(
                    batched.guard.active_tier(),
                    own[k].guard.active_tier(),
                    "stream {k}, step {step}: serving tier"
                );
            }
        }
        assert_eq!(
            widest,
            spreads.len(),
            "every window closed in one shared replay"
        );
        assert!(
            tiers_replayed.iter().all(|&t| t),
            "replays should cover rows serving from every tier: {tiers_replayed:?}"
        );
        for (k, reference) in own.iter_mut().enumerate() {
            let Some(StreamEntry::Resident(batched)) = shard.streams.get_mut(handles[k]) else {
                unreachable!("the test only inserts resident streams");
            };
            let (a, b) = (reference.guard.snapshot(), batched.guard.snapshot());
            assert_eq!(a.tier_steps, b.tier_steps, "stream {k}");
            assert_eq!(
                (a.compared, a.diverged),
                (b.compared, b.diverged),
                "stream {k}"
            );
            assert_eq!(a.samples, b.samples, "stream {k}");
            let steps = |s: &lahd_guard::GuardSnapshot| -> Vec<_> {
                s.transitions
                    .iter()
                    .map(|t| (t.step, t.from_tier, t.to_tier, t.reason))
                    .collect()
            };
            assert_eq!(steps(&a), steps(&b), "stream {k}");
        }
    }
}
