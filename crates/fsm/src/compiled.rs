//! The compiled FSM decision tier: the runtime counterpart of the
//! [`crate::compile`] lowering pass.
//!
//! Where the interpreted [`crate::FsmExecutor`] resolves each observation
//! through `Qbn::encode` (heap-allocated [`lahd_qbn::Code`]), a
//! `HashMap<Code, usize>` probe and, on fallback, fresh nearest-neighbour
//! scans, a [`CompiledFsm`] runs the per-decision loop over flat
//! precomputed arrays:
//!
//! * encode: the QBN's two GEMVs into a caller-owned scratch (zero
//!   allocation), then two-compare threshold quantization instead of libm
//!   `tanh` chains;
//! * symbol lookup: one `u128` pack + one multiply-shift probe over two
//!   flat arrays;
//! * transition: a single read from a dense `state × symbol` table whose
//!   slots already contain the nearest-neighbour fallback answers, so the
//!   match path is two array indexes with no per-step branching on
//!   transition presence.
//!
//! Every step also reports *why* its slot answered (observed / missing /
//! stuck) plus whether the code was unseen, so callers reconstruct the
//! interpreter's [`crate::FsmRunStats`] exactly — the compiled ≡
//! interpreted equivalence pins check actions *and* stats.

use lahd_qbn::{EncodeScratch, Qbn};
use lahd_tensor::Matrix;

use crate::compile::{LatentQuantizer, SymbolTable};
use crate::matching::CentroidIndex;
use crate::policy::FsmRunStats;

/// Rows per encode chunk in [`CompiledFsm::step_batch`]. Must stay below
/// `lahd_tensor::gemm::BLOCK_MIN_ROWS` so the batched encode takes the
/// per-row GEMV path and stays bit-identical to single-step encoding; 8
/// matches the GEMM micro-kernel row block.
const BATCH_CHUNK: usize = 8;

/// Provenance of a dense-table slot (or runtime outcome): how the
/// transition for a `(state, symbol)` pair was resolved at compile time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SlotTag {
    /// The pair was observed at extraction time; the slot is the recorded
    /// successor.
    Observed = 0,
    /// No recorded transition; the slot holds the precomputed §3.2.2
    /// nearest-neighbour fallback answer.
    Missing = 1,
    /// No fallback possible (NN matching off, or the state has no outgoing
    /// transitions): the slot holds the state itself.
    Stuck = 2,
}

impl SlotTag {
    #[inline]
    fn from_u8(v: u8) -> Self {
        match v {
            0 => SlotTag::Observed,
            1 => SlotTag::Missing,
            _ => SlotTag::Stuck,
        }
    }
}

/// The result of one compiled step: everything a caller needs to advance
/// its cursor and maintain interpreter-identical statistics.
#[derive(Clone, Copy, Debug)]
pub struct StepOutcome {
    /// State after the transition.
    pub next_state: u16,
    /// Action index emitted by the new state.
    pub action: u16,
    /// Whether the quantized code missed the symbol table (the
    /// interpreter's `unseen_observations` event).
    pub unseen: bool,
    /// How the transition was resolved.
    pub tag: SlotTag,
}

/// Caller-owned scratch for [`CompiledFsm::step`]: the QBN encode staging,
/// so the steady-state step allocates nothing.
pub struct CompiledScratch {
    enc: EncodeScratch,
}

/// Caller-owned scratch for [`CompiledFsm::step_batch`]: fixed
/// `BATCH_CHUNK`-row (8-row) staging matrices for the SoA batched encode.
pub struct BatchScratch {
    x: Matrix,
    h: Matrix,
    pre: Matrix,
}

/// An [`crate::Fsm`] lowered by [`crate::compile_fsm`] into flat tables:
/// threshold quantizer, packed symbol table, shared centroid index and a
/// dense transition table with fallbacks precomputed into every slot.
///
/// The struct is immutable after compilation — episode state lives in a
/// [`CompiledCursor`] (or the caller's own `u16`), so one compiled machine
/// is freely shared across streams and threads (`Arc<CompiledFsm>`).
pub struct CompiledFsm {
    qbn: Qbn,
    quantizer: LatentQuantizer,
    sym_table: SymbolTable,
    centroids: CentroidIndex,
    /// Dense `state × symbol` successor table, row-major by state.
    next: Vec<u16>,
    /// Provenance tag per slot (`SlotTag` as `u8`).
    tags: Vec<u8>,
    /// Action index per state.
    actions: Vec<u16>,
    num_symbols: usize,
    initial_state: u16,
    nn_matching: bool,
}

impl CompiledFsm {
    /// Assembles a compiled machine from the lowering pass's artifacts.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        qbn: Qbn,
        quantizer: LatentQuantizer,
        sym_table: SymbolTable,
        centroids: CentroidIndex,
        next: Vec<u16>,
        tags: Vec<u8>,
        actions: Vec<u16>,
        num_symbols: usize,
        initial_state: u16,
        nn_matching: bool,
    ) -> Self {
        debug_assert_eq!(next.len(), actions.len() * num_symbols);
        debug_assert_eq!(tags.len(), next.len());
        Self {
            qbn,
            quantizer,
            sym_table,
            centroids,
            next,
            tags,
            actions,
            num_symbols,
            initial_state,
            nn_matching,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.actions.len()
    }

    /// Number of observation symbols.
    pub fn num_symbols(&self) -> usize {
        self.num_symbols
    }

    /// Observation width the embedded QBN encodes.
    pub fn input_dim(&self) -> usize {
        self.qbn.config().input_dim
    }

    /// Start state.
    pub fn initial_state(&self) -> u16 {
        self.initial_state
    }

    /// Whether the §3.2.2 nearest-neighbour fallback is active.
    pub fn nn_matching(&self) -> bool {
        self.nn_matching
    }

    /// Number of dense-table slots carrying each provenance tag
    /// `(observed, missing, stuck)` — compile-time generalisation shape of
    /// the machine, reported by eval tooling.
    pub fn slot_counts(&self) -> (usize, usize, usize) {
        let mut counts = [0usize; 3];
        for &t in &self.tags {
            counts[SlotTag::from_u8(t) as usize] += 1;
        }
        (counts[0], counts[1], counts[2])
    }

    /// A scratch sized for this machine's single-step path.
    pub fn make_scratch(&self) -> CompiledScratch {
        CompiledScratch {
            enc: self.qbn.make_encode_scratch(),
        }
    }

    /// A scratch sized for this machine's batched path.
    pub fn make_batch_scratch(&self) -> BatchScratch {
        let cfg = self.qbn.config();
        BatchScratch {
            x: Matrix::zeros(BATCH_CHUNK, cfg.input_dim),
            h: Matrix::zeros(BATCH_CHUNK, cfg.hidden_dim),
            pre: Matrix::zeros(BATCH_CHUNK, cfg.latent_dim),
        }
    }

    /// Quantizes latent pre-activations and packs the digits into a symbol
    /// key in one pass — no i8 staging buffer between the quantizer and
    /// the table probe. Identical to `SymbolTable::pack(quantize(pre))`:
    /// quantizer digits are always in `{−1, 0, 1}` and the compile
    /// envelope caps `latent_dim` at 64, so the validating pack can never
    /// reject what this produces.
    #[inline]
    fn quantize_key(&self, pre: &[f32]) -> u128 {
        // Accumulate in u64 halves (≤ 32 digits each): every shift/or stays
        // a single-register op, and machines with latent_dim ≤ 32 — all of
        // them in practice — never touch the high half.
        let (lo_digits, hi_digits) = pre.split_at(pre.len().min(32));
        let mut lo: u64 = 0;
        for (i, &p) in lo_digits.iter().enumerate() {
            let d = self.quantizer.quantize(p);
            lo |= ((d as i32 + 1) as u64) << (2 * i);
        }
        let mut hi: u64 = 0;
        for (i, &p) in hi_digits.iter().enumerate() {
            let d = self.quantizer.quantize(p);
            hi |= ((d as i32 + 1) as u64) << (2 * i);
        }
        ((hi as u128) << 64) | lo as u128
    }

    /// Resolves a packed code key (with `v` for the unseen fallback) from
    /// `state` through the dense table.
    #[inline]
    fn resolve(&self, v: &[f32], key: u128, state: u16) -> StepOutcome {
        let (symbol, unseen) = match self.sym_table.lookup_key(key) {
            Some(sym) => (Some(sym), false),
            None => {
                // Unseen code: nearest centroid to the *continuous*
                // observation, exactly like the interpreter (§3.2.2).
                let sym = if self.nn_matching {
                    self.centroids.closest(v).map(|i| i as u16)
                } else {
                    None
                };
                (sym, true)
            }
        };
        match symbol {
            Some(sym) => {
                let slot = state as usize * self.num_symbols + sym as usize;
                let next_state = self.next[slot];
                StepOutcome {
                    next_state,
                    action: self.actions[next_state as usize],
                    unseen,
                    tag: SlotTag::from_u8(self.tags[slot]),
                }
            }
            None => StepOutcome {
                next_state: state,
                action: self.actions[state as usize],
                unseen,
                tag: SlotTag::Stuck,
            },
        }
    }

    /// One decision: encodes `v`, resolves the symbol and reads the dense
    /// table. Allocation-free; `&self`, so shared machines step
    /// concurrently with per-caller scratches.
    ///
    /// # Panics
    /// Panics if `v` is not the machine's input width or the scratch was
    /// built for another machine.
    #[inline]
    pub fn step(&self, v: &[f32], state: u16, scratch: &mut CompiledScratch) -> StepOutcome {
        let pre = self.qbn.latent_preact_into(v, &mut scratch.enc);
        let key = self.quantize_key(pre);
        self.resolve(v, key, state)
    }

    /// Batched decisions: runs the QBN encode over `BATCH_CHUNK`-row SoA
    /// chunks (amortising weight traffic across streams) and resolves each
    /// row against its own cursor state from `states`. Appends one outcome
    /// per observation to `out` in order. Results are bit-identical to
    /// calling [`CompiledFsm::step`] per row: the chunked encode stays on
    /// the per-row GEMV path and the quantizer/table logic is shared.
    ///
    /// # Panics
    /// Panics if the observation count differs from `states.len()` or any
    /// row is not the machine's input width.
    pub fn step_batch<'a>(
        &self,
        obs: impl IntoIterator<Item = &'a [f32]>,
        states: &[u16],
        scratch: &mut BatchScratch,
        out: &mut Vec<StepOutcome>,
    ) {
        let mut it = obs.into_iter();
        let mut base = 0usize;
        loop {
            // Stage up to BATCH_CHUNK rows. Rows past the staged count keep
            // stale values; the per-row encode makes them harmless.
            let mut k = 0;
            while k < BATCH_CHUNK {
                let Some(v) = it.next() else { break };
                scratch.x.row_mut(k).copy_from_slice(v);
                k += 1;
            }
            if k == 0 {
                break;
            }
            assert!(
                base + k <= states.len(),
                "more observations than cursor states"
            );
            self.qbn
                .latent_preact_rows_into(&scratch.x, &mut scratch.h, &mut scratch.pre);
            for i in 0..k {
                let key = self.quantize_key(scratch.pre.row(i));
                out.push(self.resolve(scratch.x.row(i), key, states[base + i]));
            }
            base += k;
            if k < BATCH_CHUNK {
                break;
            }
        }
        assert_eq!(base, states.len(), "observation/state count mismatch");
    }
}

/// A [`CompiledCursor`] flattened to plain-old-data fields, the exact
/// round-trippable image `save`/`restore` exchange. Everything a stream's
/// FSM execution needs to resume is these four words — the property the
/// serving layer's cold-stream hibernation leans on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SavedCursor {
    /// Current state id.
    pub state: u16,
    /// Per-episode statistics.
    pub stats: FsmRunStats,
    /// Lifetime unseen-observation count.
    pub unseen_total: u64,
}

/// Episode state over a shared [`CompiledFsm`]: current state plus the
/// interpreter-compatible statistics, reconstructed from [`StepOutcome`]s.
#[derive(Clone, Debug)]
pub struct CompiledCursor {
    state: u16,
    stats: FsmRunStats,
    unseen_total: u64,
}

impl CompiledCursor {
    /// A cursor at the machine's start state.
    pub fn new(fsm: &CompiledFsm) -> Self {
        Self {
            state: fsm.initial_state(),
            stats: FsmRunStats::default(),
            unseen_total: 0,
        }
    }

    /// Resets for a new episode: back to the start state, per-episode stats
    /// cleared. The lifetime unseen counter survives, mirroring
    /// [`crate::FsmExecutor::unseen_count`].
    pub fn reset(&mut self, fsm: &CompiledFsm) {
        self.state = fsm.initial_state();
        self.stats = FsmRunStats::default();
    }

    /// Current state id (feed this to the next step).
    pub fn state(&self) -> u16 {
        self.state
    }

    /// Per-episode statistics, identical in meaning to
    /// [`crate::FsmExecutor::stats`].
    pub fn stats(&self) -> FsmRunStats {
        self.stats
    }

    /// Lifetime unseen-observation count (survives [`CompiledCursor::reset`]).
    pub fn unseen_count(&self) -> u64 {
        self.unseen_total
    }

    /// Captures the cursor as plain-old-data for external storage (a
    /// hibernation arena, a checkpoint file). `restore` round-trips
    /// exactly, so a saved-and-restored cursor continues the run with
    /// byte-identical actions and statistics.
    pub fn save(&self) -> SavedCursor {
        SavedCursor {
            state: self.state,
            stats: self.stats,
            unseen_total: self.unseen_total,
        }
    }

    /// Rebuilds a cursor from [`CompiledCursor::save`] output. The caller
    /// is responsible for pairing it with the same machine: state ids are
    /// meaningless across machines (hot reload must drop saved cursors).
    pub fn restore(saved: SavedCursor) -> Self {
        Self {
            state: saved.state,
            stats: saved.stats,
            unseen_total: saved.unseen_total,
        }
    }

    /// Folds a step outcome into the cursor; returns the action index.
    #[inline]
    pub fn apply(&mut self, outcome: StepOutcome) -> usize {
        self.stats.steps += 1;
        if outcome.unseen {
            self.stats.unseen_observations += 1;
            self.unseen_total += 1;
        }
        match outcome.tag {
            SlotTag::Observed => {}
            SlotTag::Missing => self.stats.missing_transitions += 1,
            SlotTag::Stuck => self.stats.stuck_steps += 1,
        }
        self.state = outcome.next_state;
        outcome.action as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_fsm;
    use crate::machine::testutil::two_state_fsm;
    use crate::matching::Metric;
    use lahd_qbn::{Code, QbnConfig};

    fn toy_compiled(nn: bool) -> (CompiledFsm, Qbn) {
        let qbn = Qbn::new(QbnConfig::with_dims(2, 1), 5);
        let mut fsm = two_state_fsm();
        // Align symbol 0's code with a real encoder output so the exact
        // path fires for at least one input, and keep symbol 1 distinct so
        // the duplicate-code tie-break doesn't shadow symbol 0.
        fsm.symbols[0].code = qbn.encode(&[0.9, -0.4]);
        let other = if fsm.symbols[0].code.0[0] == 0 { 1 } else { 0 };
        fsm.symbols[1].code = Code(vec![other]);
        let compiled = compile_fsm(&fsm, &qbn, Metric::Euclidean, nn).unwrap();
        (compiled, qbn)
    }

    #[test]
    fn exact_match_follows_the_recorded_transition() {
        let (compiled, _qbn) = toy_compiled(true);
        let mut scratch = compiled.make_scratch();
        let out = compiled.step(&[0.9, -0.4], 0, &mut scratch);
        assert_eq!(out.next_state, 1, "state 0 + symbol 0 goes to state 1");
        assert_eq!(out.action, 1);
        assert!(!out.unseen);
        assert_eq!(out.tag, SlotTag::Observed);
    }

    #[test]
    fn cursor_reconstructs_interpreter_stats() {
        let (compiled, _qbn) = toy_compiled(true);
        let mut scratch = compiled.make_scratch();
        let mut cursor = CompiledCursor::new(&compiled);
        for v in [[0.9f32, -0.4], [0.1, 0.1], [-0.8, 0.7], [0.9, -0.4]] {
            let out = compiled.step(&v, cursor.state(), &mut scratch);
            cursor.apply(out);
        }
        let stats = cursor.stats();
        assert_eq!(stats.steps, 4);
        assert_eq!(
            stats.unseen_observations as u64,
            cursor.unseen_count(),
            "first episode: lifetime and episode counters agree"
        );
        cursor.reset(&compiled);
        assert_eq!(cursor.stats().steps, 0);
        assert_eq!(cursor.state(), compiled.initial_state());
    }

    #[test]
    fn saved_cursor_roundtrips_and_resumes_identically() {
        let (compiled, _qbn) = toy_compiled(true);
        let mut scratch = compiled.make_scratch();
        let inputs = [[0.9f32, -0.4], [0.1, 0.1], [-0.8, 0.7], [0.9, -0.4]];
        let mut live = CompiledCursor::new(&compiled);
        for v in &inputs[..2] {
            let out = compiled.step(v, live.state(), &mut scratch);
            live.apply(out);
        }
        // Park the cursor mid-run, then resume the restored copy alongside
        // the live one: actions, stats, and lifetime counters must match
        // at every remaining step.
        let mut restored = CompiledCursor::restore(live.save());
        assert_eq!(restored.save(), live.save());
        for v in &inputs[2..] {
            let a = compiled.step(v, live.state(), &mut scratch);
            let b = compiled.step(v, restored.state(), &mut scratch);
            assert_eq!(live.apply(a), restored.apply(b));
        }
        assert_eq!(restored.save(), live.save());
        assert_eq!(restored.stats(), live.stats());
        assert_eq!(restored.unseen_count(), live.unseen_count());
    }

    #[test]
    fn step_batch_is_bit_identical_to_scalar_steps() {
        for nn in [false, true] {
            let (compiled, _qbn) = toy_compiled(nn);
            let mut scratch = compiled.make_scratch();
            let mut batch_scratch = compiled.make_batch_scratch();
            // 19 rows: crosses two full chunks plus a partial tail.
            let rows: Vec<Vec<f32>> = (0..19)
                .map(|i| vec![(i as f32) * 0.17 - 1.5, 0.9 - (i as f32) * 0.11])
                .collect();
            let states: Vec<u16> = (0..19).map(|i| (i % 2) as u16).collect();
            let mut batched = Vec::new();
            compiled.step_batch(
                rows.iter().map(Vec::as_slice),
                &states,
                &mut batch_scratch,
                &mut batched,
            );
            assert_eq!(batched.len(), rows.len());
            for (i, (v, &s)) in rows.iter().zip(&states).enumerate() {
                let scalar = compiled.step(v, s, &mut scratch);
                assert_eq!(batched[i].next_state, scalar.next_state, "row {i}");
                assert_eq!(batched[i].action, scalar.action, "row {i}");
                assert_eq!(batched[i].unseen, scalar.unseen, "row {i}");
                assert_eq!(batched[i].tag, scalar.tag, "row {i}");
            }
        }
    }

    #[test]
    fn unseen_without_nn_holds_state_as_stuck() {
        // Codes the encoder can never emit: every observation is unseen.
        let qbn = Qbn::new(QbnConfig::with_dims(2, 1), 5);
        let mut fsm = two_state_fsm();
        fsm.symbols[0].code = Code(vec![100]);
        fsm.symbols[1].code = Code(vec![101]);
        let compiled = compile_fsm(&fsm, &qbn, Metric::Euclidean, false).unwrap();
        let mut scratch = compiled.make_scratch();
        let out = compiled.step(&[0.3, 0.3], 1, &mut scratch);
        assert!(out.unseen);
        assert_eq!(out.tag, SlotTag::Stuck);
        assert_eq!(out.next_state, 1, "holds its state");
    }

    #[test]
    fn slot_counts_cover_the_dense_table() {
        let (compiled, _qbn) = toy_compiled(true);
        let (observed, missing, stuck) = compiled.slot_counts();
        assert_eq!(
            observed + missing + stuck,
            compiled.num_states() * compiled.num_symbols()
        );
        assert_eq!(observed, 4, "the toy machine records all four pairs");
    }
}
