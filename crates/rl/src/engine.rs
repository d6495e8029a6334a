//! Packed per-decision inference engine for [`RecurrentActorCritic`].
//!
//! The deployed policy sits on the storage I/O path, so single-decision
//! (`1×D`) latency — not training GEMM — is the production floor. The
//! engine packs the model's weights once into the column-panel GEMV layout
//! of `lahd_tensor::gemv` ([`lahd_nn::PackedGru`] fuses the three gate
//! matvecs per operand, [`lahd_nn::PackedLinear`] covers the heads) and
//! reuses the pack across every decision; the owner calls
//! [`InferEngine::repack`] after each optimiser step, and the pack asserts
//! its own freshness via `ParamStore::version`, so a train-then-infer loop
//! that forgets to repack fails loudly instead of acting on stale weights.
//!
//! The engine carries a [`Precision`] chosen at construction:
//!
//! * [`Precision::Exact`] (the default): the engine is **bit-identical** to
//!   the unpacked [`RecurrentActorCritic::infer_into`] /
//!   [`RecurrentActorCritic::infer_batch_into`] paths for every batch size
//!   (`tests/equivalence.rs` pins this across a training run).
//! * [`Precision::QuantizedFast`]: i8 packed weights (4× less weight
//!   streaming) and vectorized polynomial activations — the sub-bit-identity
//!   fast tier for deployment decision paths. Its contract is **measured
//!   accuracy**: kernel-level error bounds in lahd-tensor/lahd-nn, a
//!   ≥99.5% rollout action-agreement pin against the exact engine in this
//!   crate's tests, and per-scenario full-rollout agreement pins in the
//!   workspace `quantized_agreement` suite. Repack hooks and the stale-pack
//!   version panics work identically in both modes.

use lahd_nn::{PackedGru, PackedLinear, Precision};
use lahd_tensor::Matrix;

use crate::agent::{InferScratch, InferStep, RecurrentActorCritic};

thread_local! {
    /// Shared workspace behind the allocating [`InferEngine::infer`]
    /// convenience path — the same pattern as
    /// `RecurrentActorCritic::infer`'s thread-local scratch. Holds the
    /// packed-GRU staging rows of **both** precisions (the quantized
    /// tier's activation/dequant scratch lives inside
    /// [`InferScratch`]), so mixed-precision engines on one thread simply
    /// re-warm it.
    static THREAD_ENGINE_SCRATCH: std::cell::RefCell<InferScratch> =
        std::cell::RefCell::new(InferScratch::default());
}

/// Packed weights for one agent: GRU torso plus the two linear heads.
///
/// Cheap to clone (it is plain data) and `Sync`, so rollout workers can
/// share one engine immutably. Keep it paired with the agent it was packed
/// from; using it with a different agent whose store happens to share a
/// version count is not detected.
#[derive(Clone, Debug)]
pub struct InferEngine {
    gru: PackedGru,
    policy: PackedLinear,
    value: PackedLinear,
}

impl InferEngine {
    /// Packs `agent`'s current parameters in the default (bit-identical)
    /// [`Precision::Exact`] mode.
    pub fn new(agent: &RecurrentActorCritic) -> Self {
        Self::with_precision(agent, Precision::Exact)
    }

    /// Packs `agent`'s current parameters in the given precision.
    pub fn with_precision(agent: &RecurrentActorCritic, precision: Precision) -> Self {
        Self {
            gru: PackedGru::with_precision(agent.gru(), &agent.store, precision),
            policy: PackedLinear::with_precision(agent.policy_head(), &agent.store, precision),
            value: PackedLinear::with_precision(agent.value_head(), &agent.store, precision),
        }
    }

    /// The precision the engine's weights are packed in.
    pub fn precision(&self) -> Precision {
        self.gru.precision()
    }

    /// Re-packs after a parameter update (allocation-free in steady state).
    /// The A2C trainer calls this after every optimiser step.
    pub fn repack(&mut self, agent: &RecurrentActorCritic) {
        self.gru.repack(&agent.store);
        self.policy.repack(&agent.store);
        self.value.repack(&agent.store);
    }

    /// Allocating convenience wrapper over [`InferEngine::infer_into`],
    /// backed by a thread-local [`InferScratch`]: the only steady-state
    /// allocations are the returned [`InferStep`]'s own buffers, in either
    /// precision. Hot loops that can reuse the outputs should still hold
    /// an [`InferScratch`] and call `infer_into` directly (that path is
    /// pinned fully allocation-free by `tests/no_alloc.rs`).
    ///
    /// # Panics
    /// Panics on width mismatches or if `agent`'s parameters changed since
    /// the last [`InferEngine::repack`].
    pub fn infer(&self, agent: &RecurrentActorCritic, obs: &[f32], hidden: &Matrix) -> InferStep {
        THREAD_ENGINE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            self.infer_into(agent, obs, hidden, scratch);
            InferStep {
                logits: scratch.logits.row(0).to_vec(),
                value: scratch.values[(0, 0)],
                hidden: scratch.hidden.clone(),
            }
        })
    }

    /// Packed counterpart of [`RecurrentActorCritic::infer_into`]: one
    /// decision through the fused GRU step and the packed heads. Results
    /// land in `scratch.hidden`, `scratch.logits` (row 0) and
    /// `scratch.values[(0, 0)]`.
    ///
    /// # Panics
    /// Panics on width mismatches or if `agent`'s parameters changed since
    /// the last [`InferEngine::repack`].
    pub fn infer_into(
        &self,
        agent: &RecurrentActorCritic,
        obs: &[f32],
        hidden: &Matrix,
        scratch: &mut InferScratch,
    ) {
        assert_eq!(obs.len(), agent.obs_dim(), "observation width mismatch");
        scratch.ensure_outputs(1, agent.hidden_dim(), agent.num_actions());
        if scratch.x.shape() != (1, agent.obs_dim()) {
            scratch.x.reshape_zeroed(1, agent.obs_dim());
        }
        scratch.x.row_mut(0).copy_from_slice(obs);
        self.gru.infer_step_into(
            &agent.store,
            &scratch.x,
            hidden,
            &mut scratch.packed_gru,
            &mut scratch.hidden,
        );
        self.policy
            .infer_into(&agent.store, &scratch.hidden, &mut scratch.logits);
        self.value
            .infer_into(&agent.store, &scratch.hidden, &mut scratch.values);
    }

    /// Packed counterpart of [`RecurrentActorCritic::infer_batch_into`]:
    /// below the blocked-GEMM cutoff each environment row runs the fused
    /// GEMV step (faster than the `B × D` axpy kernels), above it the
    /// packed layers fall back to the blocked-GEMM batch path.
    ///
    /// # Panics
    /// Panics on shape mismatches or if `agent`'s parameters changed since
    /// the last [`InferEngine::repack`].
    pub fn infer_batch_into(
        &self,
        agent: &RecurrentActorCritic,
        obs: &Matrix,
        hidden: &Matrix,
        scratch: &mut InferScratch,
    ) {
        assert_eq!(obs.cols(), agent.obs_dim(), "observation width mismatch");
        assert_eq!(hidden.cols(), agent.hidden_dim(), "hidden width mismatch");
        assert_eq!(obs.rows(), hidden.rows(), "batch row-count mismatch");
        scratch.ensure_outputs(obs.rows(), agent.hidden_dim(), agent.num_actions());
        self.gru.infer_step_into(
            &agent.store,
            obs,
            hidden,
            &mut scratch.packed_gru,
            &mut scratch.hidden,
        );
        self.policy
            .infer_into(&agent.store, &scratch.hidden, &mut scratch.logits);
        self.value
            .infer_into(&agent.store, &scratch.hidden, &mut scratch.values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_matches_unpacked_single_step() {
        let agent = RecurrentActorCritic::new(5, 8, 7, 3);
        let engine = InferEngine::new(&agent);
        let obs = [0.1, -0.4, 0.7, 0.0, 0.9];
        let h0 = agent.initial_state();
        let mut packed = InferScratch::default();
        let mut unpacked = InferScratch::default();
        engine.infer_into(&agent, &obs, &h0, &mut packed);
        agent.infer_into(&obs, &h0, &mut unpacked);
        let diff = packed
            .hidden
            .max_abs_diff(&unpacked.hidden)
            .max(packed.logits.max_abs_diff(&unpacked.logits))
            .max(packed.values.max_abs_diff(&unpacked.values));
        assert_eq!(diff, 0.0, "packed engine must be bit-identical");
    }

    /// The quantized tier's in-crate accuracy pin at paper scale: driven by
    /// the same observation stream, the quantized engine's greedy actions
    /// must agree with the exact engine's ≥99.5% of the time over a long
    /// recurrent rollout (each engine carrying its own hidden state, so
    /// quantization drift accumulates realistically), and the logits must
    /// stay close in absolute terms.
    #[test]
    fn quantized_engine_agrees_with_exact_on_rollouts() {
        let agent = RecurrentActorCritic::new(35, 128, 7, 9);
        let exact = InferEngine::new(&agent);
        let quant = InferEngine::with_precision(&agent, lahd_nn::Precision::QuantizedFast);
        assert_eq!(quant.precision(), lahd_nn::Precision::QuantizedFast);
        let mut h_e = agent.initial_state();
        let mut h_q = agent.initial_state();
        let mut s_e = InferScratch::default();
        let mut s_q = InferScratch::default();
        let mut obs = vec![0.0f32; 35];
        let (mut matches, total) = (0usize, 400usize);
        let mut max_logit_diff = 0.0f32;
        for t in 0..total {
            for (j, o) in obs.iter_mut().enumerate() {
                *o = (((t * 35 + j * 13) % 97) as f32 / 48.5 - 1.0).sin();
            }
            exact.infer_into(&agent, &obs, &h_e, &mut s_e);
            quant.infer_into(&agent, &obs, &h_q, &mut s_q);
            std::mem::swap(&mut h_e, &mut s_e.hidden);
            std::mem::swap(&mut h_q, &mut s_q.hidden);
            let a_e = lahd_tensor::argmax(s_e.logits.row(0));
            let a_q = lahd_tensor::argmax(s_q.logits.row(0));
            matches += usize::from(a_e == a_q);
            for (a, b) in s_e.logits.row(0).iter().zip(s_q.logits.row(0)) {
                max_logit_diff = max_logit_diff.max((a - b).abs());
            }
        }
        assert!(
            matches as f64 >= 0.995 * total as f64,
            "action agreement {matches}/{total}"
        );
        assert!(
            max_logit_diff < 0.05,
            "quantized logits drifted by {max_logit_diff}"
        );
    }

    /// The thread-local-scratch convenience path must agree with the
    /// caller-owned-scratch path in both precisions.
    #[test]
    fn convenience_infer_matches_infer_into() {
        let agent = RecurrentActorCritic::new(5, 8, 7, 3);
        for precision in lahd_nn::Precision::ALL {
            let engine = InferEngine::with_precision(&agent, precision);
            let obs = [0.1, -0.4, 0.7, 0.0, 0.9];
            let h0 = agent.initial_state();
            let step = engine.infer(&agent, &obs, &h0);
            let mut scratch = InferScratch::default();
            engine.infer_into(&agent, &obs, &h0, &mut scratch);
            assert_eq!(step.logits, scratch.logits.row(0).to_vec(), "{precision}");
            assert_eq!(step.value, scratch.values[(0, 0)], "{precision}");
            assert_eq!(
                step.hidden.max_abs_diff(&scratch.hidden),
                0.0,
                "{precision}"
            );
        }
    }

    /// Repack in quantized mode must track parameter updates like the exact
    /// engine does (the A2C trainer relies on this after every step).
    #[test]
    fn quantized_engine_repacks_after_update() {
        let mut agent = RecurrentActorCritic::new(3, 4, 2, 1);
        let mut engine = InferEngine::with_precision(&agent, lahd_nn::Precision::QuantizedFast);
        let ids = agent.store.ids();
        agent.store.value_mut(ids[0])[(0, 0)] += 0.5;
        engine.repack(&agent);
        let mut scratch = InferScratch::default();
        engine.infer_into(
            &agent,
            &[0.1, -0.2, 0.3],
            &agent.initial_state(),
            &mut scratch,
        );
        assert!(scratch.logits.row(0).iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn quantized_engine_detects_stale_pack() {
        let mut agent = RecurrentActorCritic::new(3, 4, 2, 1);
        let engine = InferEngine::with_precision(&agent, lahd_nn::Precision::QuantizedFast);
        let ids = agent.store.ids();
        agent.store.value_mut(ids[0])[(0, 0)] += 0.5;
        let mut scratch = InferScratch::default();
        engine.infer_into(
            &agent,
            &[0.0, 0.0, 0.0],
            &agent.initial_state(),
            &mut scratch,
        );
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn engine_detects_stale_pack() {
        let mut agent = RecurrentActorCritic::new(3, 4, 2, 1);
        let engine = InferEngine::new(&agent);
        let ids = agent.store.ids();
        agent.store.value_mut(ids[0])[(0, 0)] += 0.5;
        let mut scratch = InferScratch::default();
        engine.infer_into(
            &agent,
            &[0.0, 0.0, 0.0],
            &agent.initial_state(),
            &mut scratch,
        );
    }
}
