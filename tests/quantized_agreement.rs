//! End-to-end contracts of the packed `gru-drl` decision path, for **every
//! registered scenario**.
//!
//! At `Precision::Exact` the packed engine is bit-identical to the unpacked
//! `RecurrentActorCritic::infer` path, so a pipeline-trained agent picks
//! exactly the same action at every rollout step through either.
//!
//! The quantized fast tier (`Precision::QuantizedFast`: i8 packed GEMV
//! weights + vectorized polynomial activations) deliberately leaves that
//! bit-identity contract; what it promises instead is *behavioural*
//! fidelity: the quantized engine must pick the same action as the exact
//! f32 engine on ≥ 99.5% of full-rollout decisions — with both engines
//! facing the identical trajectory and each carrying its own recurrent
//! state, so quantization drift accumulates exactly as it would in
//! deployment.

mod common;

use common::rollout_agreement_traces;
use lahd::core::{GruVecPolicy, Pipeline, PipelineConfig, Precision, ScenarioId};
use lahd::fsm::VecPolicy;
use lahd::rl::RecurrentActorCritic;
use lahd::tensor::{argmax, Matrix};

fn agreement_for(scenario: ScenarioId) -> f64 {
    let mut config = PipelineConfig::tiny();
    config.scenario = scenario;
    // The tiny config's 4+4 epochs leave the policy's logits near-uniform —
    // argmax then flips on ties far smaller than any arithmetic contract
    // could promise. The agreement pin is about *deployed* (trained)
    // policies, so train long enough for decisive logits while staying in
    // test-scale seconds.
    config.std_epochs = 48;
    config.real_epochs = 48;
    let pipeline = Pipeline::new(config.clone());
    let (std_traces, real_traces) = pipeline.make_traces();
    let (agent, _) = pipeline.train_with_curriculum(&std_traces, &real_traces);

    let mut exact = GruVecPolicy::new(agent.clone(), Precision::Exact);
    let mut quant = GruVecPolicy::new(agent, Precision::QuantizedFast);
    let agreement = rollout_agreement_traces(
        pipeline.scenario(),
        &config.sim,
        &real_traces,
        config.seed,
        &mut exact,
        &mut quant,
    );
    assert!(
        agreement.total >= config.trace_len * real_traces.len(),
        "rollouts too short to be meaningful: {} steps",
        agreement.total
    );
    eprintln!(
        "{scenario}: {}/{} steps agree ({:.4})",
        agreement.matches,
        agreement.total,
        agreement.ratio()
    );
    agreement.ratio()
}

#[test]
fn quantized_engine_agrees_on_dorado_migration_rollouts() {
    let ratio = agreement_for(ScenarioId::DoradoMigration);
    assert!(
        ratio >= 0.995,
        "dorado-migration action agreement {ratio:.4} < 0.995"
    );
}

#[test]
fn quantized_engine_agrees_on_readahead_rollouts() {
    let ratio = agreement_for(ScenarioId::Readahead);
    assert!(
        ratio >= 0.995,
        "readahead action agreement {ratio:.4} < 0.995"
    );
}

/// Greedy decisions through the unpacked `RecurrentActorCritic::infer`
/// path: the reference the packed exact engine is pinned against.
struct UnpackedPolicy {
    agent: RecurrentActorCritic,
    hidden: Matrix,
}

impl VecPolicy for UnpackedPolicy {
    fn reset(&mut self) {
        self.hidden = self.agent.initial_state();
    }

    fn act_vec(&mut self, obs: &[f32]) -> usize {
        let step = self.agent.infer(obs, &self.hidden);
        self.hidden = step.hidden;
        argmax(&step.logits)
    }

    fn name(&self) -> &str {
        "gru-drl-unpacked"
    }
}

/// The exact-precision packed policy — every scenario's `gru-drl` column —
/// must be bit-identical to the unpacked path: the sanity anchor that
/// makes the quantized comparison above meaningful.
#[test]
fn exact_packed_policy_matches_unpacked_policy() {
    for scenario in ScenarioId::ALL {
        let mut config = PipelineConfig::tiny();
        config.scenario = scenario;
        let pipeline = Pipeline::new(config.clone());
        let (std_traces, real_traces) = pipeline.make_traces();
        let (agent, _) = pipeline.train_with_curriculum(&std_traces, &real_traces);

        let mut unpacked = UnpackedPolicy {
            hidden: agent.initial_state(),
            agent: agent.clone(),
        };
        let mut packed = GruVecPolicy::new(agent, Precision::Exact);
        let agreement = rollout_agreement_traces(
            pipeline.scenario(),
            &config.sim,
            &real_traces,
            config.seed,
            &mut unpacked,
            &mut packed,
        );
        eprintln!(
            "{scenario}: {}/{} exact decisions agree",
            agreement.matches, agreement.total
        );
        assert_eq!(
            agreement.matches, agreement.total,
            "{scenario}: exact packed engine diverged from the unpacked path"
        );
    }
}
