//! The policy abstractions and the extracted-FSM executor.
//!
//! Two levels of abstraction coexist here:
//!
//! * [`VecPolicy`] — the scenario-generic controller: consumes normalised
//!   observation *vectors* and emits action *indices*. FSM execution,
//!   neural policies and generic baselines all speak this language, which
//!   is what lets the extraction pipeline run over any storage scenario.
//! * [`Policy`] — the Dorado-typed controller over
//!   [`lahd_sim::Observation`] / [`lahd_sim::Action`], the interface of the
//!   expert baselines, which read the simulator's unrounded utilisations.
//!
//! [`FsmExecutor`] executes an extracted machine as a [`VecPolicy`].

use std::sync::Arc;

use lahd_qbn::{EncodeScratch, Qbn};
use lahd_sim::{Action, Observation};

use crate::compile::compile_fsm;
use crate::compiled::{CompiledFsm, CompiledScratch};
use crate::machine::{Fsm, FsmIndex};
use crate::matching::{CentroidIndex, Metric};

/// A controller for the Dorado storage simulator: one action per interval.
pub trait Policy {
    /// Resets internal state for a new episode.
    fn reset(&mut self);
    /// Chooses the action for the upcoming interval.
    fn act(&mut self, obs: &Observation) -> Action;
    /// Policy name for reports.
    fn name(&self) -> &str;
}

/// A scenario-generic controller: normalised observation vectors in, action
/// indices out. The meaning of the indices is defined by the scenario's
/// action table.
pub trait VecPolicy {
    /// Resets internal state for a new episode.
    fn reset(&mut self);
    /// Chooses the action index for the upcoming interval.
    fn act_vec(&mut self, obs: &[f32]) -> usize;
    /// Policy name for reports.
    fn name(&self) -> &str;
}

/// One step of an FSM execution, recorded for interpretation.
#[derive(Clone, Debug)]
pub struct TrajStep {
    /// Step index within the episode.
    pub t: usize,
    /// State before consuming the observation.
    pub from_state: usize,
    /// Matched observation symbol (`None` when no transition fired and the
    /// machine stayed put without a symbol).
    pub symbol: Option<usize>,
    /// State after the transition.
    pub to_state: usize,
    /// The continuous observation vector.
    pub obs: Vec<f32>,
    /// Action emitted (the new state's action).
    pub action: usize,
}

/// A recorded FSM execution.
#[derive(Clone, Debug, Default)]
pub struct Trajectory {
    /// Steps in order.
    pub steps: Vec<TrajStep>,
}

/// Execution statistics of an FSM run (generalisation diagnostics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsmRunStats {
    /// Steps taken.
    pub steps: usize,
    /// Observations whose quantized code was never seen at extraction time
    /// and had to be matched by nearest-neighbour.
    pub unseen_observations: usize,
    /// `(state, symbol)` pairs with no recorded transition that fell back to
    /// nearest-neighbour among the state's known symbols.
    pub missing_transitions: usize,
    /// Steps where no fallback was possible and the machine held its state.
    pub stuck_steps: usize,
}

/// Executes an extracted [`Fsm`] over observation vectors, with the paper's
/// nearest-neighbour fallback for unseen observations. Scenario-agnostic:
/// the vectors must simply use the normalisation the machine was extracted
/// under.
///
/// Two execution paths coexist behind [`FsmExecutor::step_vec`]:
///
/// * the **compiled fast path** — when the machine lowered cleanly through
///   [`compile_fsm`] and no trajectory is being recorded, each step runs
///   the flat-table [`CompiledFsm`] (threshold quantizer, packed symbol
///   probe, dense transition table);
/// * the **interpreter** — the reference semantics, also used whenever a
///   trajectory is recorded (the compiled tables don't track *which*
///   symbol a fallback resolved to, only the outcome).
///
/// The two are action- and stats-identical by construction (shared QBN
/// GEMVs, verified quantizer thresholds, shared [`CentroidIndex`] argmin,
/// fallbacks precomputed from the same queries); the
/// `compiled_equivalence` suite pins that property.
pub struct FsmExecutor {
    fsm: Fsm,
    obs_qbn: Qbn,
    metric: Metric,
    nn_matching: bool,
    name: String,
    // Caches.
    index: FsmIndex,
    centroids: CentroidIndex,
    compiled: Option<Arc<CompiledFsm>>,
    compiled_scratch: Option<CompiledScratch>,
    enc_scratch: EncodeScratch,
    code_buf: Vec<i8>,
    // Episode state.
    state: usize,
    t: usize,
    stats: FsmRunStats,
    trajectory: Option<Trajectory>,
    /// Lifetime count of unseen observations, across episode resets — the
    /// guard layer's long-horizon generalisation signal.
    unseen_total: u64,
}

impl FsmExecutor {
    /// Wraps an extracted machine with its observation quantizer, lowering
    /// it through the compile pass when possible (machines outside the
    /// compiled envelope silently run interpreted).
    ///
    /// `nn_matching` toggles the paper's nearest-neighbour generalisation
    /// (§3.2.2); with it off the machine holds its state on unseen input
    /// (ablation baseline).
    pub fn new(fsm: Fsm, obs_qbn: Qbn, metric: Metric, nn_matching: bool) -> Self {
        let compiled = compile_fsm(&fsm, &obs_qbn, metric, nn_matching)
            .ok()
            .map(Arc::new);
        Self::with_compiled(fsm, obs_qbn, metric, nn_matching, compiled)
    }

    /// Like [`FsmExecutor::new`], but never compiles: every step runs the
    /// reference interpreter. Used by the equivalence pins and available as
    /// a diagnostic escape hatch.
    pub fn interpreted(fsm: Fsm, obs_qbn: Qbn, metric: Metric, nn_matching: bool) -> Self {
        Self::with_compiled(fsm, obs_qbn, metric, nn_matching, None)
    }

    /// Like [`FsmExecutor::new`], but reuses an already-compiled machine
    /// (e.g. one `Arc<CompiledFsm>` shared across serving streams) instead
    /// of lowering again.
    pub fn with_compiled(
        fsm: Fsm,
        obs_qbn: Qbn,
        metric: Metric,
        nn_matching: bool,
        compiled: Option<Arc<CompiledFsm>>,
    ) -> Self {
        fsm.validate().expect("extracted FSM must be consistent");
        let index = fsm.index();
        let centroids =
            CentroidIndex::new(metric, fsm.symbols.iter().map(|s| s.centroid.as_slice()));
        let state = fsm.initial_state;
        let enc_scratch = obs_qbn.make_encode_scratch();
        let code_buf = vec![0; obs_qbn.config().latent_dim];
        let compiled_scratch = compiled.as_deref().map(CompiledFsm::make_scratch);
        Self {
            fsm,
            obs_qbn,
            metric,
            nn_matching,
            name: "extracted-fsm".to_string(),
            index,
            centroids,
            compiled,
            compiled_scratch,
            enc_scratch,
            code_buf,
            state,
            t: 0,
            stats: FsmRunStats::default(),
            trajectory: None,
            unseen_total: 0,
        }
    }

    /// The compiled lowering of this machine, when it compiled cleanly —
    /// shareable across other executors or the serving tier.
    pub fn compiled(&self) -> Option<&Arc<CompiledFsm>> {
        self.compiled.as_ref()
    }

    /// Enables trajectory recording (needed for interpretation).
    pub fn record_trajectory(&mut self, on: bool) {
        self.trajectory = if on {
            Some(Trajectory::default())
        } else {
            None
        };
    }

    /// Takes the recorded trajectory, leaving recording enabled.
    pub fn take_trajectory(&mut self) -> Trajectory {
        match &mut self.trajectory {
            Some(t) => std::mem::take(t),
            None => Trajectory::default(),
        }
    }

    /// Execution statistics since the last [`FsmExecutor::reset`].
    pub fn stats(&self) -> FsmRunStats {
        self.stats
    }

    /// Lifetime count of observations whose quantized code was never seen
    /// at extraction time. Unlike [`FsmExecutor::stats`], this counter
    /// survives [`FsmExecutor::reset`]: a deployed machine accumulates it
    /// across episodes, and a climbing rate is an early sign the input
    /// distribution has left the training support.
    pub fn unseen_count(&self) -> u64 {
        self.unseen_total
    }

    /// The wrapped machine.
    pub fn fsm(&self) -> &Fsm {
        &self.fsm
    }

    /// Current FSM state id.
    pub fn current_state(&self) -> usize {
        self.state
    }

    /// The similarity metric the nearest-neighbour fallbacks run under.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Resolves an observation vector to a symbol id, using exact code
    /// lookup first and nearest-neighbour on the centroids otherwise.
    /// Allocation-free: encodes through the executor-owned scratch and
    /// probes the index by raw digit slice.
    fn resolve_symbol(&mut self, v: &[f32]) -> Option<usize> {
        self.obs_qbn
            .encode_into(v, &mut self.enc_scratch, &mut self.code_buf);
        if let Some(sym) = self.index.symbol_by_digits(&self.code_buf) {
            return Some(sym);
        }
        self.stats.unseen_observations += 1;
        self.unseen_total += 1;
        if !self.nn_matching {
            return None;
        }
        self.centroids.closest(v)
    }

    /// One step of the reference interpreter (see the type-level docs for
    /// when this runs instead of the compiled fast path).
    fn step_interpreted(&mut self, v: &[f32]) -> usize {
        let mut symbol = self.resolve_symbol(v);

        // If the exact/NN-matched symbol has no transition from the current
        // state, fall back to the nearest symbol that does (§3.2.2: the
        // unseen observation "can therefore trigger a transition"). The
        // query point is the resolved symbol's *centroid*: a pure function
        // of the discrete `(state, symbol)` pair, which is what lets the
        // compile pass burn this fallback into the dense table.
        let mut next = symbol.and_then(|sym| self.fsm.next_state(self.state, sym));
        if next.is_none() && self.nn_matching {
            if let Some(sym) = symbol {
                let outgoing = self.index.symbols_from(self.state);
                if !outgoing.is_empty() {
                    self.stats.missing_transitions += 1;
                    let query = self.centroids.centroid(sym);
                    if let Some(fallback) = self.centroids.closest_among(query, outgoing) {
                        symbol = Some(fallback);
                        next = self.fsm.next_state(self.state, fallback);
                    }
                }
            }
        }
        let to_state = match next {
            Some(s) => s,
            None => {
                self.stats.stuck_steps += 1;
                self.state
            }
        };

        let action_idx = self.fsm.action_of(to_state);
        if let Some(traj) = &mut self.trajectory {
            traj.steps.push(TrajStep {
                t: self.t,
                from_state: self.state,
                symbol,
                to_state,
                obs: v.to_vec(),
                action: action_idx,
            });
        }
        self.state = to_state;
        self.t += 1;
        self.stats.steps += 1;
        action_idx
    }

    /// One step of the machine: consumes the observation vector, fires a
    /// transition (with the §3.2.2 fallbacks) and returns the action index
    /// of the resulting state. Dispatches to the compiled fast path when
    /// available and no trajectory is being recorded.
    pub fn step_vec(&mut self, v: &[f32]) -> usize {
        if self.trajectory.is_none() {
            // Split borrows: the compiled machine and its scratch are
            // disjoint fields.
            if let (Some(compiled), Some(scratch)) =
                (self.compiled.as_deref(), self.compiled_scratch.as_mut())
            {
                let outcome = compiled.step(v, self.state as u16, scratch);
                self.stats.steps += 1;
                if outcome.unseen {
                    self.stats.unseen_observations += 1;
                    self.unseen_total += 1;
                }
                match outcome.tag {
                    crate::compiled::SlotTag::Observed => {}
                    crate::compiled::SlotTag::Missing => self.stats.missing_transitions += 1,
                    crate::compiled::SlotTag::Stuck => self.stats.stuck_steps += 1,
                }
                self.state = outcome.next_state as usize;
                self.t += 1;
                return outcome.action as usize;
            }
        }
        self.step_interpreted(v)
    }
}

impl VecPolicy for FsmExecutor {
    fn reset(&mut self) {
        self.state = self.fsm.initial_state;
        self.t = 0;
        self.stats = FsmRunStats::default();
        if let Some(t) = &mut self.trajectory {
            t.steps.clear();
        }
    }

    fn act_vec(&mut self, obs: &[f32]) -> usize {
        self.step_vec(obs)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::testutil::two_state_fsm;
    use lahd_qbn::QbnConfig;
    use lahd_sim::{canonical_io_classes, IntervalWorkload, SimConfig, NUM_IO_CLASSES};

    /// A normalised Dorado observation vector carrying `requests` requests.
    fn obs(requests: f64) -> Vec<f32> {
        let mut mix = [0.0; NUM_IO_CLASSES];
        mix[0] = 1.0;
        Observation::new(
            [16, 8, 8],
            [0.5, 0.5, 0.5],
            &canonical_io_classes(),
            &IntervalWorkload::new(mix, requests),
        )
        .to_vector(&SimConfig::default())
    }

    fn policy(nn: bool) -> FsmExecutor {
        // The toy FSM uses 1-entry codes; build a matching QBN over the
        // 35-dim observation space with latent width 1.
        let qbn = Qbn::new(QbnConfig::with_dims(Observation::DIM, 1), 5);
        let mut fsm = two_state_fsm();
        // Make symbol centroids live in observation space.
        let dim = Observation::DIM;
        fsm.symbols[0].centroid = vec![0.0; dim];
        fsm.symbols[1].centroid = vec![0.5; dim];
        // Align symbol codes with what the QBN actually produces so exact
        // lookup can fire for at least one input.
        fsm.symbols[0].code = qbn.encode(&obs(100.0));
        FsmExecutor::new(fsm, qbn, Metric::Euclidean, nn)
    }

    #[test]
    fn starts_in_initial_state_and_resets() {
        let mut p = policy(true);
        assert_eq!(p.current_state(), 0);
        p.act_vec(&obs(100.0));
        p.reset();
        assert_eq!(p.current_state(), 0);
        assert_eq!(p.stats().steps, 0);
    }

    #[test]
    fn exact_symbol_match_fires_transition() {
        let mut p = policy(true);
        let a = p.act_vec(&obs(100.0));
        // Symbol 0 from state 0 goes to state 1, which emits action 1.
        assert_eq!(p.current_state(), 1);
        assert_eq!(a, 1);
        assert_eq!(p.stats().unseen_observations, 0);
    }

    #[test]
    fn unseen_observation_uses_nearest_neighbour_when_enabled() {
        let mut p = policy(true);
        // A very different observation: unlikely to hit the aligned code.
        let weird = obs(8000.0);
        p.act_vec(&weird);
        let stats = p.stats();
        assert_eq!(stats.steps, 1);
        // Either the code happened to collide (fine) or NN matching was
        // used; in both cases the machine must not be stuck.
        assert_eq!(stats.stuck_steps, 0);
    }

    #[test]
    fn without_nn_matching_machine_can_stick() {
        let mut p = policy(false);
        let weird = obs(8000.0);
        let before = p.current_state();
        p.act_vec(&weird);
        let stats = p.stats();
        if stats.unseen_observations > 0 {
            assert_eq!(
                p.current_state(),
                before,
                "must hold state without NN fallback"
            );
            assert_eq!(stats.stuck_steps, 1);
        }
    }

    #[test]
    fn unseen_count_survives_reset_while_stats_do_not() {
        // Give both symbols codes the QBN can never emit, so every
        // observation is guaranteed unseen.
        let qbn = Qbn::new(QbnConfig::with_dims(4, 1), 5);
        let mut fsm = two_state_fsm();
        fsm.symbols[0].centroid = vec![0.0; 4];
        fsm.symbols[1].centroid = vec![0.5; 4];
        fsm.symbols[0].code = lahd_qbn::Code(vec![100]);
        fsm.symbols[1].code = lahd_qbn::Code(vec![101]);
        let mut exec = FsmExecutor::new(fsm, qbn, Metric::Euclidean, true);
        for i in 0..3 {
            exec.act_vec(&[i as f32 * 0.1; 4]);
        }
        assert_eq!(exec.unseen_count(), 3);
        assert_eq!(exec.stats().unseen_observations, 3);
        VecPolicy::reset(&mut exec);
        assert_eq!(
            exec.stats().unseen_observations,
            0,
            "per-episode stats reset"
        );
        assert_eq!(exec.unseen_count(), 3, "lifetime counter survives reset");
        exec.act_vec(&[0.9; 4]);
        assert_eq!(exec.unseen_count(), 4, "keeps accumulating");
    }

    #[test]
    fn trajectory_records_steps() {
        let mut p = policy(true);
        p.record_trajectory(true);
        p.act_vec(&obs(100.0));
        p.act_vec(&obs(100.0));
        let traj = p.take_trajectory();
        assert_eq!(traj.steps.len(), 2);
        assert_eq!(traj.steps[0].from_state, 0);
        assert_eq!(traj.steps[0].to_state, 1);
        assert_eq!(traj.steps[0].obs.len(), Observation::DIM);
    }
}
