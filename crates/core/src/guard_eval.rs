//! Guarded evaluation: run saved artifacts behind the `lahd-guard` harness
//! over a scenario's traces, optionally under an injected fault plan, and
//! produce an incident report.
//!
//! This module wires the policy-agnostic guard machinery to real pipeline
//! artifacts. The deployment ladder it builds mirrors the cost/fidelity
//! spectrum the repo's earlier PRs established:
//!
//! | tier | policy | role |
//! |---|---|---|
//! | 0 | extracted FSM | primary (the deployed white-box heuristic) |
//! | 1 | quantized-i8 net | first fallback (fast, near-teacher) |
//! | 2 | exact net | second fallback and **shadow reference** |
//! | 3 | scenario default baseline | last resort (handcrafted, net-free) |
//!
//! The drift baseline comes from the `baseline.profile` stamped into the
//! artifact directory at training time; artifacts that predate the guard
//! layer get a baseline recomputed from a clean rollout of the primary over
//! the evaluation traces (deterministic, and honest: it is the distribution
//! the machine actually sees when healthy).
//!
//! Everything — fault draws, shadow sampling, rollouts — is a pure function
//! of the configured seeds, so two identical invocations produce
//! byte-identical reports (the property `tests/guard_e2e.rs` pins).

use lahd_fsm::VecPolicy;
use lahd_guard::{
    BaselineProfile, CounterfactualScore, EpisodeOutcome, GuardConfig, GuardedPolicy,
    IncidentReport, StreamingProfile,
};
use lahd_rl::Precision;
use lahd_sim::{rescale_trace, FaultPlan};
use lahd_workload::WorkloadTrace;

use crate::eval::GruVecPolicy;
use crate::pipeline::{PipelineArtifacts, PipelineConfig};
use crate::scenario::run_rollout;

/// What a guarded evaluation run should do.
#[derive(Clone, Debug)]
pub struct GuardEvalConfig {
    /// Fault schedule injected into the observation stream (see
    /// [`FaultPlan`]); [`FaultPlan::none`] for a clean run.
    pub fault: FaultPlan,
    /// Guard thresholds and cadences.
    pub guard: GuardConfig,
    /// Evaluate at most this many traces (None = all real traces).
    pub max_episodes: Option<usize>,
    /// Multiply every trace's request volume by this factor before
    /// evaluation — distribution shift at the *workload* level (the
    /// simulator genuinely runs hotter), as opposed to observation-level
    /// faults. 1.0 is a no-op.
    pub workload_scale: f64,
    /// Also run each tier standalone over the same (clean) traces for the
    /// report's counterfactual table. Costs one full evaluation per tier.
    pub counterfactuals: bool,
}

impl Default for GuardEvalConfig {
    fn default() -> Self {
        Self {
            fault: FaultPlan::none(),
            guard: GuardConfig::default(),
            max_episodes: None,
            workload_scale: 1.0,
            counterfactuals: true,
        }
    }
}

/// Index of the shadow-reference tier (the exact net) in the ladder built
/// by [`build_ladder`].
pub const SHADOW_TIER: usize = 2;

/// Builds the standard four-tier deployment ladder from saved artifacts:
/// extracted FSM → quantized-i8 net → exact net → scenario default
/// baseline. Rung 0 rides the compiled FSM tier whenever the machine
/// lowers through `lahd_fsm::compile_fsm` (pipeline-extracted machines
/// always do), falling back to the reference interpreter otherwise — the
/// two are action- and stats-identical by the equivalence pins.
pub fn build_ladder(
    cfg: &PipelineConfig,
    artifacts: &PipelineArtifacts,
) -> Vec<Box<dyn VecPolicy>> {
    let scenario = cfg.scenario.get();
    let last_resort = scenario
        .baselines(&cfg.sim)
        .into_iter()
        .next()
        .expect("every scenario registers at least one baseline");
    vec![
        Box::new(artifacts.fsm_executor(cfg.metric, cfg.nn_matching)),
        Box::new(GruVecPolicy::new(
            artifacts.agent.clone(),
            Precision::QuantizedFast,
        )),
        Box::new(GruVecPolicy::new(artifacts.agent.clone(), Precision::Exact)),
        last_resort,
    ]
}

/// The drift baseline for a guarded run: the artifact's stamped profile, or
/// (for pre-guard artifacts) one recomputed from a clean rollout of the
/// primary policy over `traces`.
pub fn resolve_baseline(
    cfg: &PipelineConfig,
    artifacts: &PipelineArtifacts,
    traces: &[WorkloadTrace],
) -> BaselineProfile {
    if let Some(profile) = &artifacts.baseline {
        return profile.clone();
    }
    let scenario = cfg.scenario.get();
    let mut primary = artifacts.fsm_executor(cfg.metric, cfg.nn_matching);
    let mut sp = StreamingProfile::new(scenario.obs_dim());
    for (i, trace) in traces.iter().enumerate() {
        let mut rollout =
            scenario.make_rollout(&cfg.sim, trace.clone(), cfg.seed.wrapping_add(i as u64));
        VecPolicy::reset(&mut primary);
        while !rollout.is_done() {
            let obs = rollout.observe();
            sp.push(&obs);
            let action = primary.act_vec(&obs);
            rollout.step(action);
        }
    }
    sp.profile()
}

/// Runs the guarded ladder over the scenario's real traces under the given
/// fault plan and returns the incident report.
///
/// The fault plan's step index is the guard's *global* decision counter, so
/// a schedule like "steps 100–300" can span episode boundaries — the guard,
/// like a deployment, outlives episodes.
pub fn guard_eval(
    cfg: &PipelineConfig,
    artifacts: &PipelineArtifacts,
    eval: GuardEvalConfig,
) -> IncidentReport {
    let scenario = cfg.scenario.get();
    let mut traces: Vec<WorkloadTrace> = artifacts.real_traces.clone();
    if let Some(n) = eval.max_episodes {
        traces.truncate(n.max(1));
    }
    if eval.workload_scale != 1.0 {
        traces = traces
            .iter()
            .map(|t| rescale_trace(t, eval.workload_scale))
            .collect();
    }

    let baseline = resolve_baseline(cfg, artifacts, &traces);
    let tiers = build_ladder(cfg, artifacts);
    let mut guard = GuardedPolicy::new(tiers, SHADOW_TIER, baseline, eval.guard.clone());
    let mut fault = eval.fault.clone();

    let mut episodes = Vec::with_capacity(traces.len());
    for (i, trace) in traces.iter().enumerate() {
        let mut rollout =
            scenario.make_rollout(&cfg.sim, trace.clone(), cfg.seed.wrapping_add(i as u64));
        let start_steps = guard.steps();
        guard.reset();
        while !rollout.is_done() {
            let mut obs = rollout.observe();
            fault.apply(guard.steps(), &mut obs);
            let action = guard.act_vec(&obs);
            rollout.step(action);
        }
        episodes.push(EpisodeOutcome {
            trace: trace.name.clone(),
            score: rollout.makespan() as f64,
            steps: guard.steps() - start_steps,
            end_state: guard.state().name().to_string(),
        });
    }

    let counterfactuals = if eval.counterfactuals {
        let mut rows = Vec::new();
        for mut tier in build_ladder(cfg, artifacts) {
            let mut sum = 0.0f64;
            for (i, trace) in traces.iter().enumerate() {
                let rollout =
                    scenario.make_rollout(&cfg.sim, trace.clone(), cfg.seed.wrapping_add(i as u64));
                sum += run_rollout(rollout, tier.as_mut()).score as f64;
            }
            rows.push(CounterfactualScore {
                policy: tier.name().to_string(),
                score: sum / traces.len().max(1) as f64,
            });
        }
        rows
    } else {
        Vec::new()
    };

    IncidentReport {
        scenario: scenario.name().to_string(),
        fault: eval.fault.describe(),
        seed: eval.guard.seed,
        snapshot: guard.snapshot(),
        episodes,
        counterfactuals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahd_guard::HealthState;
    use lahd_sim::Fault;

    fn artifacts() -> (PipelineConfig, PipelineArtifacts) {
        let cfg = PipelineConfig::tiny();
        let artifacts = crate::pipeline::Pipeline::new(cfg.clone()).run();
        (cfg, artifacts)
    }

    #[test]
    fn clean_run_never_reports_drift_and_ends_healthy() {
        let (cfg, artifacts) = artifacts();
        let report = guard_eval(
            &cfg,
            &artifacts,
            GuardEvalConfig {
                max_episodes: Some(2),
                counterfactuals: false,
                ..GuardEvalConfig::default()
            },
        );
        let s = &report.snapshot;
        // A tiny-scale FSM can transiently diverge from its teacher enough
        // to trip the guard and heal (that is the harness working), but a
        // clean observation stream must never look like *drift*.
        assert!(
            s.transitions.iter().all(|t| t.reason != "drift"),
            "clean stream flagged as drift: {:?}",
            s.transitions
        );
        assert_eq!(s.state, HealthState::Healthy, "{:?}", s.transitions);
        assert_eq!(s.active_tier, 0, "primary restored by the end");
        assert!(
            s.tier_steps[0] * 2 > s.steps,
            "primary served the majority: {:?} of {}",
            s.tier_steps,
            s.steps
        );
        assert!(s.compared > 0, "shadow comparisons happened");
    }

    #[test]
    fn corrupt_fault_trips_the_guard_into_fallback() {
        let (cfg, artifacts) = artifacts();
        let report = guard_eval(
            &cfg,
            &artifacts,
            GuardEvalConfig {
                // Heavy corruption from step 16 onwards.
                fault: FaultPlan::single(9, Fault::Corrupt { prob: 0.8 }, 16, u64::MAX),
                max_episodes: Some(2),
                counterfactuals: false,
                ..GuardEvalConfig::default()
            },
        );
        let s = &report.snapshot;
        assert!(
            s.transitions
                .iter()
                .any(|t| t.to == HealthState::FallenBack),
            "expected a fallback transition, got {:?}",
            s.transitions
        );
        assert!(s.tier_steps[1..].iter().sum::<u64>() > 0, "fallback served");
    }

    #[test]
    fn ladder_shape_matches_the_documented_tiers() {
        let (cfg, artifacts) = artifacts();
        let ladder = build_ladder(&cfg, &artifacts);
        assert_eq!(ladder.len(), 4);
        assert_eq!(ladder[0].name(), "extracted-fsm");
        assert!(SHADOW_TIER < ladder.len() && SHADOW_TIER != 0);
    }
}
