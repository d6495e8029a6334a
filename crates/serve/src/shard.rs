//! The shard core: one shard's serving state and decisions, with no I/O.
//!
//! A [`ShardCore`] owns the streams hashed to one shard, kept in a
//! generation-stamped [`StreamTable`] in one of two representations:
//!
//! - **Compact** ([`CompactStream`], ~96 B): a healthy FSM-tier stream
//!   stores only its compiled cursor plus `MicroHealth` triage counters.
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
//! The core makes no socket, file, lock or clock call. [`ShardCore::decide`]
//! serves one drained batch at the time the caller passes in, and
//! [`ShardCore::tick`] ends a tick: one tick of the core's logical clock
//! passes per batch or idle interval, and hibernation idleness and the
//! sweep and checkpoint cadences count ticks. Each call returns the
//! [`Effects`] that the shard thread in [`crate::daemon`] carries out: the
//! replies, each naming its request by batch position; the
//! journal records; the stats delta, a plain local [`ShardStats`] with the
//! gauges stamped (see [`crate::metrics`]); and, when one is due, a
//! checkpoint image.
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

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

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
use crate::daemon::ServeConfig;
use crate::metrics::ShardStats;
use crate::persist::{RecoveredShard, WAL_ADMIT, WAL_EVICT};
use crate::protocol::{Response, Source};
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

/// One decision request, as the core sees it.
pub(crate) struct Decide {
    /// Correlation id echoed back.
    pub req_id: u64,
    /// Stream identity.
    pub stream: u64,
    /// Absolute deadline; expired work is answered from the fallback.
    pub deadline: Option<Instant>,
    /// The observation.
    pub obs: Vec<f32>,
}

/// One answer to a request of the batch passed to [`ShardCore::decide`].
pub(crate) struct Reply {
    /// The answered request's position in the batch.
    pub at: usize,
    /// The response frame's body.
    pub resp: Response,
    /// The tier that served a guarded decision (timed for the latency
    /// histogram); `None` for errors and deadline or shed answers.
    pub served: Option<usize>,
}

/// A checkpoint image: the compact table's and the arena's records, flat
/// slabs of [`REC_BYTES`] each, captured at shard tick `tick`.
pub(crate) struct CheckpointImage {
    /// The tick the image was captured at.
    pub tick: u64,
    /// Compact table records.
    pub table: Vec<u8>,
    /// Hibernation arena records.
    pub arena: Vec<u8>,
}

/// What the shard thread carries out after a [`ShardCore`] call, in order:
/// append the journal records; with a stats delta, fold it into the
/// shard's slot and flush the journal; write the replies; write the image.
#[derive(Default)]
pub(crate) struct Effects {
    /// Answers in the order they go out.
    pub replies: Vec<Reply>,
    /// Membership changes, as `(op, key)` with [`crate::persist`]'s ops.
    pub journal: Vec<(u8, u64)>,
    /// The counts since the last fold, gauges stamped (batches, idle ticks).
    pub stats: Option<ShardStats>,
    /// A checkpoint image, when the cadence made one due.
    pub checkpoint: Option<CheckpointImage>,
}

impl Effects {
    /// Empties every effect, keeping the buffers.
    fn clear(&mut self) {
        self.replies.clear();
        self.journal.clear();
        self.stats = None;
        self.checkpoint = None;
    }
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
/// [`ShardCore::replay_windows`]): the replayed rows and their actions,
/// plus reusable per-step buffers.
#[derive(Default)]
struct ReplayStaging {
    /// Batch position of each replayed row.
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
    /// The replayed window actions for the row at batch position `i`, one
    /// entry per replayed rung: `None` for the serving rung, and for every
    /// rung when the row was not replayed.
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

/// The [`Response::Decision`] answering `req`.
fn decision(req: &Decide, action: usize, tier: usize, source: Source) -> Response {
    Response::Decision {
        req_id: req.req_id,
        action: action as u16,
        tier: tier as u8,
        source: source as u8,
    }
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

/// One shard's serving state and decision logic, with no I/O (see the
/// module docs). The shard thread builds a fresh core after a panic
/// restart or a bundle swap.
pub(crate) struct ShardCore {
    /// The daemon's knobs.
    cfg: ServeConfig,
    /// Whether the shard thread keeps durable state: only then does the
    /// core journal membership changes and build checkpoint images.
    durable: bool,
    bundle: Arc<ServeBundle>,
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
    /// Counts since the last fold.
    stats: ShardStats,
    /// What the current call hands the shard thread.
    fx: Effects,
}

impl ShardCore {
    /// An empty core serving `bundle` under `cfg`; `durable` says whether
    /// the shard thread persists (see [`ShardCore::checkpoint`]).
    pub(crate) fn new(bundle: Arc<ServeBundle>, cfg: &ServeConfig, durable: bool) -> Self {
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
        Self {
            cfg: cfg.clone(),
            durable,
            bundle,
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
            fx: Effects::default(),
        }
    }

    /// Rebuilds this shard's streams from a checkpoint image and the
    /// journal since it, consuming `rec`, and returns the recovery counts
    /// for the shard thread to put straight into the stats slot.
    /// Checkpointed records come back bit-identically (same cursor, same
    /// health triage); journal-only admits come back as deterministic
    /// fresh compact streams (membership survives, cursor state does not —
    /// the journal records membership, not trajectories).
    pub(crate) fn recover(&mut self, rec: RecoveredShard) -> ShardStats {
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
        for &(op, key) in &rec.wal_ops {
            match op {
                WAL_ADMIT => {
                    let Some(compiled) = self.bundle.compiled.as_ref() else {
                        continue;
                    };
                    if self.streams.lookup(key).is_some() || self.arena.contains(key) {
                        continue;
                    }
                    let compact = CompactStream::new(
                        CompiledCursor::new(compiled),
                        first_audit(self.cfg.audit_every, key),
                    );
                    self.streams.insert(key, StreamEntry::Compact(compact));
                    self.compact_count += 1;
                }
                WAL_EVICT => {
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
        ShardStats {
            recovered_streams: self.streams.len() as u64 + self.arena.len() as u64,
            quarantined_records: rec.quarantined,
            journal_ops: rec.wal_ops.len() as u64,
            ..ShardStats::default()
        }
    }

    /// Serves one drained batch as the next tick, at time `now` (deadlines
    /// before it have expired). Returns a reply per request, the journal
    /// records and the stats delta. Resident streams whose guard window
    /// closes with their first request in the drain first replay that
    /// window together ([`ShardCore::replay_windows`]). Then compact
    /// streams and resident FSM-tier streams share one SoA `step_batch`
    /// call; resident net-tier streams go through one batched inference
    /// call per tier; everything else (the last-resort tier, repeat
    /// requests for a stream already in the batch) takes the scalar path,
    /// in arrival order per stream. The shard thread ends the tick with
    /// [`ShardCore::tick`] once it has carried these effects out.
    pub(crate) fn decide(&mut self, batch: &[Decide], now: Instant) -> &mut Effects {
        self.fx.clear();
        self.tick += 1;
        self.serve(batch, now);
        self.fx.stats = Some(self.fold());
        &mut self.fx
    }

    /// Ends the current tick: runs the clock sweep when its cadence is due
    /// and returns a checkpoint image when that cadence is due. An `idle`
    /// tick, one without a batch, first advances the clock itself and
    /// hands over the stats delta after its sweep; after a batch, the
    /// sweep's counts wait for the next fold.
    pub(crate) fn tick(&mut self, idle: bool) -> &mut Effects {
        self.fx.clear();
        if idle {
            self.tick += 1;
        }
        if self.tick.is_multiple_of(self.cfg.sweep_every.max(1)) {
            self.sweep();
        }
        if idle {
            self.fx.stats = Some(self.fold());
        }
        if self.cfg.checkpoint_every > 0 && self.tick.is_multiple_of(self.cfg.checkpoint_every) {
            self.fx.checkpoint = self.checkpoint();
        }
        &mut self.fx
    }

    /// Takes the counts since the last fold, with the gauges stamped at
    /// their current levels: the stats delta of a batch or an idle tick,
    /// and the shard thread's last fold before a drain or a bundle swap.
    pub(crate) fn fold(&mut self) -> ShardStats {
        let mut delta = std::mem::take(&mut self.stats);
        delta.compact = self.compact_count;
        delta.resident = self.resident_count;
        delta.hibernated = self.arena.len() as u64;
        delta.arena_bytes = self.arena.arena_bytes();
        delta
    }

    /// Serializes the compact table + arena into a checkpoint image, or
    /// `None` when the shard thread keeps no durable state. Resident
    /// streams are deliberately not captured — their net hidden state and
    /// guard windows are not serializable — so they re-admit fresh after
    /// recovery, exactly like a stream the daemon never saw.
    pub(crate) fn checkpoint(&self) -> Option<CheckpointImage> {
        if !self.durable {
            return None;
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
        Some(CheckpointImage {
            tick: self.tick,
            table,
            arena,
        })
    }

    /// Stages the reply to request `at`, a decision `tier` served.
    fn answer(&mut self, at: usize, req: &Decide, action: usize, tier: usize) {
        self.fx.replies.push(Reply {
            at,
            resp: decision(req, action, tier, Source::Guarded),
            served: Some(tier),
        });
    }

    /// Resolves `stream` to a live table entry, admitting it if needed:
    /// wake from the arena first, else a fresh compact record (when the
    /// machine lowered) or a fresh full ladder. `None` means the table is
    /// at capacity and the request must shed. Hibernated streams do not
    /// count against `max_streams`.
    fn admit(&mut self, stream: u64) -> Option<StreamRef> {
        if let Some(r) = self.streams.lookup(stream) {
            return Some(r);
        }
        if self.streams.len() >= self.cfg.max_streams {
            return None;
        }
        if let Some(compact) = self.arena.wake(stream) {
            self.stats.wakes += 1;
            self.compact_count += 1;
            return Some(self.streams.insert(stream, StreamEntry::Compact(compact)));
        }
        if self.durable {
            self.fx.journal.push((WAL_ADMIT, stream));
        }
        if self.fsm_scratch.is_some() {
            let compiled = self
                .bundle
                .compiled
                .as_ref()
                .expect("batch scratch implies a compiled machine");
            let compact = CompactStream::new(
                CompiledCursor::new(compiled),
                first_audit(self.cfg.audit_every, stream),
            );
            self.compact_count += 1;
            Some(self.streams.insert(stream, StreamEntry::Compact(compact)))
        } else {
            self.resident_count += 1;
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
    fn try_release(&mut self, r: StreamRef, min_decisions: u64) {
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
        let next_audit = if self.cfg.audit_every == 0 {
            u64::MAX
        } else {
            decisions + self.cfg.audit_every
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
    fn serve_fsm_row(&mut self, at: usize, req: &Decide, r: StreamRef, outcome: StepOutcome) {
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
                self.answer(at, req, action, TIER_FSM);
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
                            compact.next_audit = decisions + self.cfg.audit_every / 4 + 1;
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
                let handed = self.replay.handed(at, TIER_FSM);
                resident.guard.record_replayed(&req.obs, action, &handed);
                resident.decisions += 1;
                resident.resident_decisions += 1;
                resident.last_tick = tick;
                self.answer(at, req, action, TIER_FSM);
                self.try_release(r, RELEASE_AFTER);
            }
        }
    }

    /// Stages the answers to one batch (see [`ShardCore::decide`]).
    fn serve(&mut self, batch: &[Decide], now: Instant) {
        let obs_dim = self.bundle.obs_dim();
        let mut live: Vec<usize> = Vec::with_capacity(batch.len());
        for (at, req) in batch.iter().enumerate() {
            let resp = if req.obs.len() != obs_dim {
                Response::Err(format!(
                    "observation width {} does not match bundle {obs_dim}",
                    req.obs.len()
                ))
            } else if req.obs.iter().any(|v| !v.is_finite()) {
                Response::Err("observation holds a non-finite value".to_string())
            } else if req.deadline.is_some_and(|d| now > d) {
                let action = self.fallback.act_vec(&req.obs);
                self.stats.deadline_misses += 1;
                decision(req, action, TIER_BASELINE, Source::Deadline)
            } else {
                live.push(at);
                continue;
            };
            self.fx.replies.push(Reply {
                at,
                resp,
                served: None,
            });
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
        for &at in &live {
            let req = &batch[at];
            let Some(r) = self.admit(req.stream) else {
                let action = self.fallback.act_vec(&req.obs);
                self.stats.shed += 1;
                self.fx.replies.push(Reply {
                    at,
                    resp: decision(req, action, TIER_BASELINE, Source::Shed),
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
                        fsm_rows.push((at, r));
                    } else {
                        scalar.push((at, r));
                    }
                }
                StreamEntry::Resident(resident) => {
                    let tier = resident.guard.active_tier();
                    if first
                        && fsm_batchable
                        && resident.fsm_cell.is_some()
                        && resident.guard.closes_window_next()
                    {
                        replay_rows.push((at, r, &req.obs));
                    }
                    if tier == TIER_FSM && first && fsm_batchable && resident.fsm_cell.is_some() {
                        fsm_rows.push((at, r));
                    } else if (tier == TIER_QUANT || tier == TIER_EXACT) && first {
                        net_batches[tier - TIER_QUANT].push((at, r));
                    } else {
                        scalar.push((at, r));
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
                fsm_rows.iter().map(|&(at, _)| batch[at].obs.as_slice()),
                &self.fsm_states,
                scratch,
                &mut self.fsm_outcomes,
            );
            for (row, &(at, r)) in fsm_rows.iter().enumerate() {
                let outcome = self.fsm_outcomes[row];
                self.serve_fsm_row(at, &batch[at], r, outcome);
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
            for (row, &(at, r)) in idxs.iter().enumerate() {
                obs_m.row_mut(row).copy_from_slice(&batch[at].obs);
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
            for (row, &(at, r)) in idxs.iter().enumerate() {
                let req = &batch[at];
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
                let handed = self.replay.handed(at, tier);
                resident.guard.record_replayed(&req.obs, action, &handed);
                resident.decisions += 1;
                resident.resident_decisions += 1;
                resident.last_tick = tick;
                self.answer(at, req, action, tier);
            }
        }

        for &(at, r) in &scalar {
            let req = &batch[at];
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
                self.serve_fsm_row(at, req, r, outcome);
                continue;
            }
            let Some(StreamEntry::Resident(resident)) = self.streams.get_mut(r) else {
                continue;
            };
            let tier = resident.guard.active_tier();
            let action = resident
                .guard
                .act_replayed(&req.obs, &self.replay.handed(at, tier));
            resident.decisions += 1;
            resident.resident_decisions += 1;
            resident.last_tick = tick;
            self.answer(at, req, action, tier);
            if tier == TIER_FSM {
                self.try_release(r, RELEASE_AFTER);
            }
        }
    }

    /// Replays, all rows together, the guard windows that close with these
    /// rows' decisions, given as `(batch position, handle, closing
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

    /// Clock sweep: examine up to [`SWEEP_CHUNK`] slots and push idle
    /// streams down the state ladder — resident → compact (idle release),
    /// compact → arena (hibernate). Two sweep passes therefore take a
    /// long-idle resident stream all the way to the arena.
    fn sweep(&mut self) {
        if self.cfg.hibernate_after == 0 {
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
                    if self.tick.saturating_sub(compact.last_tick) >= self.cfg.hibernate_after {
                        self.hibernate_stream(key);
                    }
                }
                Some(StreamEntry::Resident(resident)) => {
                    if self.tick.saturating_sub(resident.last_tick) >= self.cfg.hibernate_after {
                        self.try_release(r, 0);
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
        let evicted = self.arena.drain_evicted();
        if self.durable {
            self.fx.journal.extend(evicted.map(|key| (WAL_EVICT, key)));
        }
        self.compact_count -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahd_core::{Pipeline, PipelineConfig};
    use lahd_guard::BaselineProfile;
    use rand::prelude::*;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::OnceLock;
    use std::time::Duration;

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
        let (cfg, dir) = crate::bundle::tests::tiny();
        let bundle = ServeBundle::load(cfg, dir).expect("tiny artifacts serve");
        let mut shard = ShardCore::new(Arc::new(bundle), &ServeConfig::default(), false);
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

    /// The seed-22 tiny bundle, trained once per test binary and built in
    /// memory. Its machine answers several actions, so a core that lost a
    /// cursor cannot match the reference by chance.
    fn bundle22() -> Arc<ServeBundle> {
        static BUNDLE: OnceLock<Arc<ServeBundle>> = OnceLock::new();
        BUNDLE
            .get_or_init(|| {
                let cfg = PipelineConfig {
                    seed: 22,
                    ..PipelineConfig::tiny()
                };
                let artifacts = Pipeline::new(cfg.clone()).run();
                let bundle = ServeBundle::from_artifacts(cfg, artifacts);
                Arc::new(bundle.expect("seed-22 tiny artifacts serve"))
            })
            .clone()
    }

    /// Streams the simulation draws requests for: more than the table
    /// holds, so admission sheds while the arena is short.
    const SIM_STREAMS: u64 = 24;
    const SIM_MAX_STREAMS: usize = 12;
    const SIM_SEEDS: usize = 64;
    const SIM_OPS: u64 = 300;

    /// One slot per simulated stream: `Some` for each stream held.
    type Cursors = Vec<Option<CompiledCursor>>;

    /// The reference model: one always-resident cursor per stream the core
    /// holds, stepped on every observation the core served to that stream.
    struct Reference {
        compiled: Arc<CompiledFsm>,
        scratch: CompiledScratch,
        cursors: Cursors,
    }

    impl Reference {
        /// Steps `stream`'s cursor, starting it fresh if the core did not
        /// hold the stream, and returns its action.
        fn step(&mut self, stream: u64, obs: &[f32]) -> usize {
            let compiled = &self.compiled;
            let cursor =
                self.cursors[stream as usize].get_or_insert_with(|| CompiledCursor::new(compiled));
            cursor.apply(compiled.step(obs, cursor.state(), &mut self.scratch))
        }
    }

    /// What a crash leaves behind: the last checkpoint image and the
    /// journal records since it, with the reference cursors at the image.
    struct Disk {
        image: CheckpointImage,
        journal: Vec<(u8, u64)>,
        at_image: Cursors,
    }

    impl Disk {
        /// Appends `fx`'s journal records, as the shard thread does, and
        /// takes its checkpoint image.
        fn log(&mut self, fx: &mut Effects) -> Option<CheckpointImage> {
            self.journal.extend_from_slice(&fx.journal);
            fx.checkpoint.take()
        }

        /// Keeps a new image in place of the last one and its journal. It
        /// must hold each stream the core holds but not resident, once, at
        /// its reference cursor, and no other.
        fn keep(&mut self, image: CheckpointImage, core: &ShardCore, reference: &Reference) {
            self.at_image = vec![None; SIM_STREAMS as usize];
            let records = image.table.chunks_exact(REC_BYTES);
            for rec in records.chain(image.arena.chunks_exact(REC_BYTES)) {
                let (key, stream) = CompactStream::deserialize(rec);
                let cursor = reference.cursors[key as usize].as_ref();
                let cursor = cursor.expect("an imaged stream is held");
                assert_eq!(stream.cursor.save(), cursor.save(), "stream {key} imaged");
                let twice = self.at_image[key as usize].replace(cursor.clone());
                assert!(twice.is_none(), "stream {key} imaged twice");
            }
            for (key, held) in reference.cursors.iter().enumerate() {
                let resident = where_is(core, key as u64).starts_with("resident");
                let imaged = self.at_image[key].is_some();
                assert_eq!(imaged, held.is_some() && !resident, "stream {key} imaged");
            }
            self.image = image;
            self.journal.clear();
        }

        /// Restores the image and the journal since it into `core`, a fresh
        /// core, and rolls the reference back with it: an imaged stream to
        /// its cursor at the image, a journaled admit to a fresh cursor.
        fn recover(&self, core: &mut ShardCore, reference: &mut Reference) -> ShardStats {
            let counts = core.recover(RecoveredShard {
                tick: self.image.tick,
                table: self.image.table.clone(),
                arena: self.image.arena.clone(),
                wal_ops: self.journal.clone(),
                ..RecoveredShard::default()
            });
            reference.cursors = self.at_image.clone();
            for &(op, key) in &self.journal {
                let cursor = &mut reference.cursors[key as usize];
                if op == WAL_ADMIT {
                    cursor.get_or_insert_with(|| CompiledCursor::new(&reference.compiled));
                } else {
                    *cursor = None;
                }
            }
            let held = reference.cursors.iter().flatten().count();
            assert_eq!(counts.recovered_streams, held as u64);
            assert_eq!(counts.journal_ops, self.journal.len() as u64);
            counts
        }
    }

    /// A request for one of [`SIM_STREAMS`] streams. Observations sit in
    /// the baseline's interquartile band, except that every third stream
    /// leaves the band often enough for triage to promote it; now and then
    /// a request is malformed, non-finite, or expired before `now`.
    fn request(bundle: &ServeBundle, rng: &mut SmallRng, req_id: u64, now: Instant) -> Decide {
        let stream = if rng.gen_bool(0.4) {
            3 * rng.gen_range(0..2)
        } else {
            rng.gen_range(0..SIM_STREAMS)
        };
        let mut obs: Vec<f32> = (bundle.baseline.dims.iter())
            .map(|d| (d.p25 + (d.p75 - d.p25) * rng.gen::<f64>()) as f32)
            .collect();
        if stream % 3 == 0 && rng.gen_bool(0.5) {
            let dim = rng.gen_range(0..obs.len());
            let hi = bundle.band[dim].1;
            obs[dim] = hi + 1.0 + hi.abs();
        }
        let mut deadline = None;
        match rng.gen_range(0..32) {
            0 => drop(obs.pop()),
            1 => obs[0] = f32::NAN,
            2 => deadline = Some(now - Duration::from_micros(1)),
            3 => deadline = Some(now + Duration::from_secs(1)),
            _ => {}
        }
        Decide {
            req_id,
            stream,
            deadline,
            obs,
        }
    }

    /// Where `key` lives in `core`, with its whole state there.
    fn where_is(core: &ShardCore, key: u64) -> String {
        match core.streams.lookup(key).and_then(|r| core.streams.get(r)) {
            Some(StreamEntry::Compact(c)) => format!("compact {c:?} at {}", c.last_tick),
            Some(StreamEntry::Resident(r)) => format!(
                "resident {} {} {} {}",
                r.decisions,
                r.resident_decisions,
                r.last_tick,
                r.guard.steps()
            ),
            None if core.arena.contains(key) => "hibernated".to_string(),
            None => "absent".to_string(),
        }
    }

    /// Each stream the reference holds is in exactly one of compact,
    /// resident or hibernated, the core holds no other, and the gauges
    /// equal the table and arena counts.
    fn check_membership(core: &mut ShardCore, reference: &Reference) {
        let (mut compact, mut resident) = (0, 0);
        let mut places = vec![0u8; SIM_STREAMS as usize];
        for pos in 0..core.streams.slot_span() {
            let Some(key) = core.streams.key_at_clock(pos) else {
                continue;
            };
            match core.streams.lookup(key).and_then(|r| core.streams.get(r)) {
                Some(StreamEntry::Compact(_)) => compact += 1,
                Some(StreamEntry::Resident(_)) => resident += 1,
                None => unreachable!("a clock position names a live key"),
            }
            places[key as usize] += 1;
        }
        let mut parked = Vec::new();
        core.arena.snapshot_into(&mut parked);
        for rec in parked.chunks_exact(REC_BYTES) {
            places[u64::from_le_bytes(rec[..8].try_into().unwrap()) as usize] += 1;
        }
        for (key, cursor) in reference.cursors.iter().enumerate() {
            assert_eq!(places[key], cursor.is_some() as u8, "stream {key}: places");
        }
        let gauges = core.fold();
        assert_eq!(
            (gauges.compact, gauges.resident, gauges.hibernated),
            (compact, resident, (parked.len() / REC_BYTES) as u64),
            "gauges"
        );
    }

    /// Serves `batch` and checks its replies: one per request, echoing
    /// its id; every FSM-tier answer equal to the reference, which steps
    /// on every guarded decision; sheds only at a full table; shed,
    /// deadline and error answers leaving their stream untouched. Returns
    /// the number of error replies.
    fn decide(
        core: &mut ShardCore,
        reference: &mut Reference,
        disk: &mut Disk,
        batch: &[Decide],
        now: Instant,
        seen: &mut ShardStats,
    ) -> u64 {
        let before: Vec<String> = batch.iter().map(|r| where_is(core, r.stream)).collect();
        let fx = core.decide(batch, now);
        assert_eq!(fx.replies.len(), batch.len(), "a reply per request");
        let mut answers: Vec<Option<&Reply>> = vec![None; batch.len()];
        for reply in &fx.replies {
            assert!(answers[reply.at].replace(reply).is_none(), "one reply");
        }
        let (mut served, mut errors) = (vec![false; SIM_STREAMS as usize], 0);
        let mut shed = false;
        for (req, reply) in batch.iter().zip(answers) {
            let reply = reply.expect("every request answered");
            let Response::Decision {
                req_id,
                action,
                tier,
                source,
            } = reply.resp
            else {
                assert!(matches!(reply.resp, Response::Err(_)));
                assert_eq!(reply.served, None);
                errors += 1;
                continue;
            };
            assert_eq!(req_id, req.req_id);
            if source != Source::Guarded as u8 {
                assert_eq!((reply.served, tier as usize), (None, TIER_BASELINE));
                shed |= source == Source::Shed as u8;
                continue;
            }
            assert_eq!(reply.served, Some(tier as usize));
            served[req.stream as usize] = true;
            let want = reference.step(req.stream, &req.obs);
            if tier as usize == TIER_FSM {
                assert_eq!(action as usize, want, "stream {}", req.stream);
            }
            seen.tier_decisions[tier as usize] += 1;
        }
        seen.add(fx.stats.as_ref().expect("a batch folds"));
        assert!(disk.log(fx).is_none(), "a batch makes no image");
        if shed {
            assert_eq!(core.streams.len(), SIM_MAX_STREAMS, "shed below capacity");
        }
        for (req, was) in batch.iter().zip(&before) {
            if !served[req.stream as usize] {
                assert_eq!(&where_is(core, req.stream), was, "untouched");
            }
        }
        errors
    }

    /// One seeded run of [`SIM_OPS`] operations: decided batches, idle
    /// ticks, and crashes recovered from the last image and its journal.
    /// Returns every count the cores folded, with the guarded decisions
    /// per tier and crashes as restarts, and the error replies, for the
    /// coverage check.
    fn simulate(seed: u64, audits: bool) -> (ShardStats, u64) {
        let bundle = bundle22();
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = ServeConfig {
            max_streams: SIM_MAX_STREAMS,
            audit_every: if audits { 32 } else { 0 },
            hibernate_after: rng.gen_range(1..=2),
            sweep_every: 1,
            checkpoint_every: rng.gen_range(2..=6),
            ..ServeConfig::default()
        };
        let mut core = ShardCore::new(bundle.clone(), &cfg, true);
        let compiled = bundle.compiled.clone().expect("the tiny machine lowers");
        let mut reference = Reference {
            scratch: compiled.make_scratch(),
            compiled,
            cursors: vec![None; SIM_STREAMS as usize],
        };
        let mut disk = Disk {
            image: core.checkpoint().expect("a durable core images"),
            journal: Vec::new(),
            at_image: vec![None; SIM_STREAMS as usize],
        };
        let (mut seen, mut errors) = (ShardStats::default(), 0);
        let t0 = Instant::now();
        for op in 0..SIM_OPS {
            let now = t0 + Duration::from_millis(op + 1);
            let image = match rng.gen_range(0..60) {
                0..=23 => {
                    let n = rng.gen_range(1..=BATCH_MAX);
                    let batch: Vec<Decide> = (0..n as u64)
                        .map(|i| request(&bundle, &mut rng, op * 16 + i, now))
                        .collect();
                    let (c, r, d) = (&mut core, &mut reference, &mut disk);
                    errors += decide(c, r, d, &batch, now, &mut seen);
                    disk.log(core.tick(false))
                }
                24..=58 => {
                    let fx = core.tick(true);
                    seen.add(fx.stats.as_ref().expect("an idle tick folds"));
                    disk.log(fx)
                }
                _ => {
                    core = ShardCore::new(bundle.clone(), &cfg, true);
                    seen.add(&disk.recover(&mut core, &mut reference));
                    seen.restarts += 1;
                    None
                }
            };
            if let Some(image) = image {
                disk.keep(image, &core, &reference);
            }
            check_membership(&mut core, &reference);
        }
        (seen, errors)
    }

    /// Deterministic simulation of one core against the reference model,
    /// with no daemon, socket or file: seeded runs of batches (repeats in
    /// a drain, out-of-band streams that triage promotes, malformed,
    /// non-finite and expired requests, sheds at a full table), idle ticks
    /// that hibernate and wake streams, and crashes recovered from the
    /// last checkpoint image plus its journal, with audits off for half the
    /// seeds and on for the other half. After every operation: each
    /// FSM-tier answer equals the reference, a reply answers each request,
    /// shed, deadline and error answers leave their stream untouched, each
    /// stream is in exactly one of compact, resident or hibernated, and
    /// the gauges equal the table and arena counts.
    #[test]
    fn shard_core_matches_the_reference_model() {
        let mut seeds = proptest::test_runner::deterministic_rng("shard_core_simulation");
        let (mut seen, mut errors) = (ShardStats::default(), 0);
        for case in 0..SIM_SEEDS {
            let seed = seeds.next_u64();
            match catch_unwind(AssertUnwindSafe(|| simulate(seed, case % 2 == 1))) {
                Ok((counts, errs)) => {
                    seen.add(&counts);
                    errors += errs;
                }
                Err(payload) => {
                    eprintln!("simulation seed {seed:#x} (case {case}) failed");
                    resume_unwind(payload);
                }
            }
        }
        // The op mix reached every transition it is meant to.
        let coverage = [
            ("fsm answers", seen.tier_decisions[TIER_FSM]),
            (
                "net answers",
                seen.tier_decisions[TIER_QUANT] + seen.tier_decisions[TIER_EXACT],
            ),
            ("errors", errors),
            ("deadlines", seen.deadline_misses),
            ("sheds", seen.shed),
            ("materializations", seen.materializations),
            ("audits", seen.audits),
            ("releases", seen.releases),
            ("hibernates", seen.hibernates),
            ("wakes", seen.wakes),
            ("crashes", seen.restarts),
            ("recovered streams", seen.recovered_streams),
            ("journal ops", seen.journal_ops),
        ];
        for (what, n) in coverage {
            assert!(n > 0, "no {what} in {SIM_SEEDS} seeds");
        }
    }
}
