//! Policy evaluation harness (the machinery behind Figure 4).
//!
//! Two parallel paths exist: the Dorado-typed [`Policy`] path the paper's
//! evaluation was built on, and the scenario-generic [`VecPolicy`] path
//! ([`evaluate_vec_policy`], [`Comparison::run_vec`]) that works for every
//! registered [`Scenario`].

use lahd_fsm::{Policy, VecPolicy};
use lahd_rl::{Precision, RecurrentActorCritic};
use lahd_sim::{Action, EpisodeMetrics, Observation, SimConfig, StorageSim};
use lahd_tensor::Matrix;
use lahd_workload::WorkloadTrace;

use crate::scenario::{run_rollout, RolloutOutcome, Scenario};

/// Wraps the trained GRU agent as a greedy Dorado simulator [`Policy`]:
/// the Dorado observation normalisation in front of a [`GruVecPolicy`]
/// (the same adapter pattern as `FsmPolicy` over `FsmExecutor`).
pub struct GruPolicy {
    inner: GruVecPolicy,
    sim_cfg: SimConfig,
}

impl GruPolicy {
    /// Creates the policy; `sim_cfg` must match the training normalisation.
    pub fn new(agent: RecurrentActorCritic, sim_cfg: SimConfig) -> Self {
        Self {
            inner: GruVecPolicy::new(agent),
            sim_cfg,
        }
    }

    /// Engine-backed variant: inference runs through a packed
    /// [`lahd_rl::InferEngine`] in the given precision (see
    /// [`GruVecPolicy::packed`]).
    pub fn packed(agent: RecurrentActorCritic, sim_cfg: SimConfig, precision: Precision) -> Self {
        Self {
            inner: GruVecPolicy::packed(agent, precision),
            sim_cfg,
        }
    }

    /// Access to the wrapped agent.
    pub fn agent(&self) -> &RecurrentActorCritic {
        self.inner.agent()
    }
}

impl Policy for GruPolicy {
    fn reset(&mut self) {
        VecPolicy::reset(&mut self.inner);
    }

    fn act(&mut self, obs: &Observation) -> Action {
        let v = obs.to_vector(&self.sim_cfg);
        Action::from_index(self.inner.act_vec(&v))
    }

    fn name(&self) -> &str {
        VecPolicy::name(&self.inner)
    }
}

/// Wraps a trained agent as a greedy scenario-generic [`VecPolicy`]: the
/// observation vector comes straight from the scenario rollout, so one
/// implementation serves every scenario.
///
/// Two backings exist: [`GruVecPolicy::new`] runs the historical unpacked
/// inference path (kept so default evaluation output is byte-stable across
/// builds), and [`GruVecPolicy::packed`] runs a packed
/// [`lahd_rl::InferEngine`] in a chosen [`Precision`] — the deployment
/// decision path, and the policy the quantized-agreement harness compares
/// across precisions.
pub struct GruVecPolicy {
    agent: RecurrentActorCritic,
    engine: Option<lahd_rl::InferEngine>,
    scratch: lahd_rl::InferScratch,
    hidden: Matrix,
    name: String,
}

impl GruVecPolicy {
    /// Creates the policy over a trained agent (unpacked inference path).
    pub fn new(agent: RecurrentActorCritic) -> Self {
        let hidden = agent.initial_state();
        Self {
            agent,
            engine: None,
            scratch: lahd_rl::InferScratch::default(),
            hidden,
            name: "gru-drl".to_string(),
        }
    }

    /// Engine-backed variant: packs the agent's weights once and infers
    /// through the packed engine in the given precision. With
    /// [`Precision::Exact`] this is bit-identical to [`GruVecPolicy::new`]
    /// on the default build; [`Precision::QuantizedFast`] runs the i8 fast
    /// tier under its accuracy contract.
    pub fn packed(agent: RecurrentActorCritic, precision: Precision) -> Self {
        let engine = lahd_rl::InferEngine::with_precision(&agent, precision);
        let hidden = agent.initial_state();
        Self {
            agent,
            engine: Some(engine),
            scratch: lahd_rl::InferScratch::default(),
            hidden,
            name: "gru-drl".to_string(),
        }
    }

    /// Access to the wrapped agent.
    pub fn agent(&self) -> &RecurrentActorCritic {
        &self.agent
    }
}

impl VecPolicy for GruVecPolicy {
    fn reset(&mut self) {
        self.hidden = self.agent.initial_state();
    }

    fn act_vec(&mut self, obs: &[f32]) -> usize {
        match &self.engine {
            Some(engine) => {
                engine.infer_into(&self.agent, obs, &self.hidden, &mut self.scratch);
                std::mem::swap(&mut self.hidden, &mut self.scratch.hidden);
                lahd_tensor::argmax(self.scratch.logits.row(0))
            }
            None => {
                let step = self.agent.infer(obs, &self.hidden);
                self.hidden = step.hidden;
                lahd_tensor::argmax(&step.logits)
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Scenario-generic policy evaluation: runs `policy` over every trace;
/// trace `i` uses seed `base_seed + i` so all policies face identical
/// noise realisations.
pub fn evaluate_vec_policy(
    scenario: &dyn Scenario,
    sim_cfg: &SimConfig,
    policy: &mut dyn VecPolicy,
    traces: &[WorkloadTrace],
    base_seed: u64,
) -> Vec<RolloutOutcome> {
    traces
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            let rollout =
                scenario.make_rollout(sim_cfg, trace.clone(), base_seed.wrapping_add(i as u64));
            run_rollout(rollout, policy)
        })
        .collect()
}

/// Evaluates `policy` on every trace; trace `i` uses seed `base_seed + i` so
/// all policies face identical idle-noise realisations.
pub fn evaluate_policy(
    policy: &mut dyn Policy,
    cfg: &SimConfig,
    traces: &[WorkloadTrace],
    base_seed: u64,
) -> Vec<EpisodeMetrics> {
    traces
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            policy.reset();
            let mut sim =
                StorageSim::new(cfg.clone(), trace.clone(), base_seed.wrapping_add(i as u64));
            sim.run_with(|obs| policy.act(obs))
        })
        .collect()
}

/// The Figure 4 comparison: per-trace makespans for a set of policies.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Policy names, in column order.
    pub policy_names: Vec<String>,
    /// Trace names, in row order.
    pub trace_names: Vec<String>,
    /// `makespans[row][col]` = makespan of policy `col` on trace `row`.
    pub makespans: Vec<Vec<usize>>,
}

impl Comparison {
    /// Runs every policy over every trace with matched noise seeds.
    pub fn run(
        policies: &mut [&mut dyn Policy],
        cfg: &SimConfig,
        traces: &[WorkloadTrace],
        base_seed: u64,
    ) -> Self {
        let mut makespans = vec![vec![0usize; policies.len()]; traces.len()];
        for (col, policy) in policies.iter_mut().enumerate() {
            let metrics = evaluate_policy(*policy, cfg, traces, base_seed);
            for (row, m) in metrics.iter().enumerate() {
                makespans[row][col] = m.makespan;
            }
        }
        Self {
            policy_names: policies.iter().map(|p| p.name().to_string()).collect(),
            trace_names: traces.iter().map(|t| t.name.clone()).collect(),
            makespans,
        }
    }

    /// Scenario-generic counterpart of [`Comparison::run`]: every
    /// [`VecPolicy`] over every trace with matched noise seeds, scored by
    /// the scenario's rollout (makespan for all registered scenarios).
    pub fn run_vec(
        scenario: &dyn Scenario,
        sim_cfg: &SimConfig,
        policies: &mut [&mut dyn VecPolicy],
        traces: &[WorkloadTrace],
        base_seed: u64,
    ) -> Self {
        let mut makespans = vec![vec![0usize; policies.len()]; traces.len()];
        for (col, policy) in policies.iter_mut().enumerate() {
            let outcomes = evaluate_vec_policy(scenario, sim_cfg, *policy, traces, base_seed);
            for (row, o) in outcomes.iter().enumerate() {
                makespans[row][col] = o.score;
            }
        }
        Self {
            policy_names: policies.iter().map(|p| p.name().to_string()).collect(),
            trace_names: traces.iter().map(|t| t.name.clone()).collect(),
            makespans,
        }
    }

    /// Mean makespan of policy column `col`.
    pub fn mean_makespan(&self, col: usize) -> f64 {
        if self.makespans.is_empty() {
            return 0.0;
        }
        self.makespans
            .iter()
            .map(|row| row[col] as f64)
            .sum::<f64>()
            / self.makespans.len() as f64
    }

    /// Relative makespan reduction of policy `a` versus policy `b`
    /// (positive = `a` is faster), as a fraction.
    pub fn reduction_vs(&self, a: usize, b: usize) -> f64 {
        let (ma, mb) = (self.mean_makespan(a), self.mean_makespan(b));
        if mb == 0.0 {
            0.0
        } else {
            (mb - ma) / mb
        }
    }

    /// Column index of a policy by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.policy_names.iter().position(|n| n == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioId;
    use lahd_fsm::{DefaultPolicy, HandcraftedFsm};
    use lahd_workload::{IntervalWorkload, NUM_IO_CLASSES};

    fn traces() -> Vec<WorkloadTrace> {
        // Two phases: read-heavy then write-heavy; gives the handcrafted
        // policy something to rebalance.
        let mut read_mix = [0.0; NUM_IO_CLASSES];
        read_mix[4] = 1.0;
        let mut write_mix = [0.0; NUM_IO_CLASSES];
        write_mix[11] = 1.0;
        let mut intervals = vec![IntervalWorkload::new(read_mix, 2600.0); 10];
        intervals.extend(vec![IntervalWorkload::new(write_mix, 1500.0); 10]);
        vec![WorkloadTrace::new("phased", intervals)]
    }

    fn cfg() -> SimConfig {
        SimConfig {
            idle_lambda: 0.0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn gru_policy_is_deterministic_after_reset() {
        let agent = RecurrentActorCritic::new(Observation::DIM, 8, Action::COUNT, 0);
        let mut p = GruPolicy::new(agent, cfg());
        let m1 = evaluate_policy(&mut p, &cfg(), &traces(), 0);
        let m2 = evaluate_policy(&mut p, &cfg(), &traces(), 0);
        assert_eq!(m1[0].makespan, m2[0].makespan);
    }

    #[test]
    fn comparison_matrix_has_expected_shape() {
        let mut d = DefaultPolicy;
        let mut h = HandcraftedFsm::tuned();
        let mut policies: Vec<&mut dyn Policy> = vec![&mut d, &mut h];
        let c = Comparison::run(&mut policies, &cfg(), &traces(), 0);
        assert_eq!(c.policy_names, vec!["default", "handcrafted"]);
        assert_eq!(c.makespans.len(), 1);
        assert_eq!(c.makespans[0].len(), 2);
        assert!(c.makespans[0][0] >= 20);
    }

    #[test]
    fn handcrafted_beats_default_on_phased_load() {
        let mut d = DefaultPolicy;
        let mut h = HandcraftedFsm::tuned();
        let mut policies: Vec<&mut dyn Policy> = vec![&mut d, &mut h];
        let c = Comparison::run(&mut policies, &cfg(), &traces(), 0);
        let dd = c.column("default").unwrap();
        let hh = c.column("handcrafted").unwrap();
        assert!(
            c.mean_makespan(hh) <= c.mean_makespan(dd),
            "handcrafted {} should not lose to default {}",
            c.mean_makespan(hh),
            c.mean_makespan(dd)
        );
    }

    #[test]
    fn vec_path_matches_typed_path_on_dorado() {
        // The scenario-generic rollout normalises observations exactly like
        // the typed GruPolicy, so the two evaluation paths must agree
        // makespan-for-makespan.
        let scenario = ScenarioId::DoradoMigration.get();
        let agent = RecurrentActorCritic::new(Observation::DIM, 8, Action::COUNT, 3);
        let mut typed = GruPolicy::new(agent.clone(), cfg());
        let typed_metrics = evaluate_policy(&mut typed, &cfg(), &traces(), 11);
        let mut vec_policy = GruVecPolicy::new(agent);
        let outcomes = evaluate_vec_policy(scenario, &cfg(), &mut vec_policy, &traces(), 11);
        assert_eq!(typed_metrics.len(), outcomes.len());
        for (m, o) in typed_metrics.iter().zip(&outcomes) {
            assert_eq!(m.makespan, o.score);
            assert_eq!(m.truncated, o.truncated);
        }
    }

    #[test]
    fn run_vec_builds_comparison_over_baselines() {
        let scenario = ScenarioId::Readahead.get();
        let mut baselines = scenario.baselines(&cfg());
        let mut policies: Vec<&mut dyn VecPolicy> = baselines
            .iter_mut()
            .map(|b| b.as_mut() as &mut dyn VecPolicy)
            .collect();
        let c = Comparison::run_vec(scenario, &cfg(), &mut policies, &traces(), 0);
        assert_eq!(c.policy_names, vec!["ra-off", "ra-max", "seq-share"]);
        assert_eq!(c.makespans.len(), 1);
        assert!(c.makespans[0].iter().all(|&k| k >= 20));
    }

    #[test]
    fn reduction_vs_is_signed_fraction() {
        let c = Comparison {
            policy_names: vec!["a".into(), "b".into()],
            trace_names: vec!["t".into()],
            makespans: vec![vec![80, 100]],
        };
        assert!((c.reduction_vs(0, 1) - 0.2).abs() < 1e-12);
        assert!((c.reduction_vs(1, 0) + 0.25).abs() < 1e-12);
    }
}
