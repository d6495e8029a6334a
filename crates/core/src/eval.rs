//! Policy evaluation harness (the machinery behind Figure 4).
//!
//! Learned policies and the generic baselines are [`VecPolicy`]s, evaluated
//! over any registered [`Scenario`] by [`evaluate_vec_policy`].
//! [`compare_policies`] builds the Figure-4 comparison for a trained
//! pipeline. The Dorado expert baselines read structured observations and
//! run through [`evaluate_policy`] over the typed [`Policy`] interface.

use lahd_fsm::{HandcraftedFsm, Policy, VecPolicy};
use lahd_rl::{Precision, RecurrentActorCritic};
use lahd_sim::{EpisodeMetrics, SimConfig, StorageSim};
use lahd_tensor::Matrix;
use lahd_workload::WorkloadTrace;

use crate::pipeline::{PipelineArtifacts, PipelineConfig};
use crate::scenario::{run_rollout, RolloutOutcome, Scenario, ScenarioId};

/// Wraps a trained agent as a greedy scenario-generic [`VecPolicy`]: the
/// observation vector comes straight from the scenario rollout, so one
/// implementation serves every scenario.
///
/// Decisions run through a packed [`lahd_rl::InferEngine`] in the chosen
/// [`Precision`] — the deployment decision path. Under
/// [`Precision::Exact`] it is bit-identical to the unpacked
/// [`RecurrentActorCritic::infer`] path; [`Precision::QuantizedFast`] runs
/// the i8 fast tier under its accuracy contract.
pub struct GruVecPolicy {
    agent: RecurrentActorCritic,
    engine: lahd_rl::InferEngine,
    scratch: lahd_rl::InferScratch,
    hidden: Matrix,
}

impl GruVecPolicy {
    /// Packs the agent's weights once for inference in `precision`.
    pub fn new(agent: RecurrentActorCritic, precision: Precision) -> Self {
        let engine = lahd_rl::InferEngine::with_precision(&agent, precision);
        let hidden = agent.initial_state();
        Self {
            agent,
            engine,
            scratch: lahd_rl::InferScratch::default(),
            hidden,
        }
    }
}

impl VecPolicy for GruVecPolicy {
    fn reset(&mut self) {
        self.hidden = self.agent.initial_state();
    }

    fn act_vec(&mut self, obs: &[f32]) -> usize {
        self.engine
            .infer_into(&self.agent, obs, &self.hidden, &mut self.scratch);
        std::mem::swap(&mut self.hidden, &mut self.scratch.hidden);
        lahd_tensor::argmax(self.scratch.logits.row(0))
    }

    fn name(&self) -> &str {
        "gru-drl"
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

/// Evaluates a Dorado-typed `policy` on every trace; trace `i` uses seed
/// `base_seed + i` so all policies face identical idle-noise realisations.
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

/// One [`Comparison`] column: `policy`'s name and its per-trace scores.
fn vec_column(
    scenario: &dyn Scenario,
    sim_cfg: &SimConfig,
    policy: &mut dyn VecPolicy,
    traces: &[WorkloadTrace],
    base_seed: u64,
) -> (String, Vec<usize>) {
    let outcomes = evaluate_vec_policy(scenario, sim_cfg, policy, traces, base_seed);
    let scores = outcomes.iter().map(|o| o.score).collect();
    (policy.name().to_string(), scores)
}

/// The Figure 4 comparison for trained `artifacts`, over `traces` with
/// matched noise seeds from `base_seed`. Columns, in order:
///
/// 1. the scenario's [`Scenario::baselines`];
/// 2. for `dorado-migration` only, the expert [`HandcraftedFsm`] — typed,
///    because it must break utilisation ties on the simulator's unrounded
///    `f64` values, which the `f32` observation vector loses;
/// 3. `gru-drl`, the greedy trained agent, in `cfg.infer_precision`;
/// 4. `extracted-fsm`, the extracted machine.
pub fn compare_policies(
    cfg: &PipelineConfig,
    artifacts: &PipelineArtifacts,
    traces: &[WorkloadTrace],
    base_seed: u64,
) -> Comparison {
    assert_eq!(
        cfg.scenario, artifacts.scenario,
        "artifacts were trained for another scenario"
    );
    let scenario = cfg.scenario.get();
    let mut columns: Vec<(String, Vec<usize>)> = scenario
        .baselines(&cfg.sim)
        .iter_mut()
        .map(|b| vec_column(scenario, &cfg.sim, b.as_mut(), traces, base_seed))
        .collect();
    if cfg.scenario == ScenarioId::DoradoMigration {
        let mut expert = HandcraftedFsm::tuned();
        let metrics = evaluate_policy(&mut expert, &cfg.sim, traces, base_seed);
        let makespans = metrics.iter().map(|m| m.makespan).collect();
        columns.push((expert.name().to_string(), makespans));
    }
    let mut gru = GruVecPolicy::new(artifacts.agent.clone(), cfg.infer_precision);
    let mut fsm = artifacts.fsm_executor(cfg.metric, cfg.nn_matching);
    columns.push(vec_column(scenario, &cfg.sim, &mut gru, traces, base_seed));
    columns.push(vec_column(scenario, &cfg.sim, &mut fsm, traces, base_seed));
    Comparison::from_columns(traces, columns)
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
    /// Runs every Dorado-typed policy over every trace with matched noise
    /// seeds.
    pub fn run(
        policies: &mut [&mut dyn Policy],
        cfg: &SimConfig,
        traces: &[WorkloadTrace],
        base_seed: u64,
    ) -> Self {
        let columns = policies
            .iter_mut()
            .map(|policy| {
                let metrics = evaluate_policy(*policy, cfg, traces, base_seed);
                let makespans = metrics.iter().map(|m| m.makespan).collect();
                (policy.name().to_string(), makespans)
            })
            .collect();
        Self::from_columns(traces, columns)
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
        let columns = policies
            .iter_mut()
            .map(|policy| vec_column(scenario, sim_cfg, *policy, traces, base_seed))
            .collect();
        Self::from_columns(traces, columns)
    }

    /// Assembles the table from `(policy name, per-trace makespans)`
    /// columns in column order.
    fn from_columns(traces: &[WorkloadTrace], columns: Vec<(String, Vec<usize>)>) -> Self {
        let makespans = (0..traces.len())
            .map(|row| columns.iter().map(|(_, col)| col[row]).collect())
            .collect();
        Self {
            policy_names: columns.into_iter().map(|(name, _)| name).collect(),
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
    use crate::pipeline::Pipeline;
    use lahd_fsm::DefaultPolicy;
    use lahd_sim::{Action, Observation};
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
        let scenario = ScenarioId::DoradoMigration.get();
        let agent = RecurrentActorCritic::new(Observation::DIM, 8, Action::COUNT, 0);
        let mut p = GruVecPolicy::new(agent, Precision::Exact);
        let m1 = evaluate_vec_policy(scenario, &cfg(), &mut p, &traces(), 0);
        let m2 = evaluate_vec_policy(scenario, &cfg(), &mut p, &traces(), 0);
        assert_eq!(m1, m2);
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
    fn compare_policies_shares_one_table_between_typed_and_vector_columns() {
        // Dorado's Figure-4 set mixes the typed expert with vector policies;
        // the vector `default` column (ConstantPolicy 0) must equal the
        // typed DefaultPolicy under the same seed, which shows every column
        // faces the same noise realisations.
        let mut config = PipelineConfig::tiny();
        let artifacts = Pipeline::new(config.clone()).run();
        // Idle noise on, so matched seeds are what makes the columns agree.
        config.sim.idle_lambda = 1.5;
        let traces = &artifacts.real_traces;
        let c = compare_policies(&config, &artifacts, traces, 11);
        assert_eq!(
            c.policy_names,
            ["default", "handcrafted", "gru-drl", "extracted-fsm"]
        );
        let typed = evaluate_policy(&mut DefaultPolicy, &config.sim, traces, 11);
        let col = c.column("default").unwrap();
        let vector: Vec<usize> = c.makespans.iter().map(|row| row[col]).collect();
        let typed: Vec<usize> = typed.iter().map(|m| m.makespan).collect();
        assert_eq!(vector, typed);
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
