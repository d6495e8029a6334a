//! End-to-end integration test of the full pipeline across all crates.

use lahd::core::{compare_policies, Pipeline, PipelineConfig};
use lahd::sim::Action;

#[test]
fn tiny_pipeline_produces_usable_artifacts() {
    let config = PipelineConfig::tiny();
    let pipeline = Pipeline::new(config.clone());
    let artifacts = pipeline.run();

    // Structural validity.
    artifacts
        .fsm
        .validate()
        .expect("extracted FSM is consistent");
    assert!(artifacts.fsm.num_states() >= 1);
    assert!(artifacts.fsm.num_states() <= artifacts.raw_states);
    assert!(artifacts.dataset_len > 0);
    assert_eq!(
        artifacts.convergence.len(),
        config.std_epochs + config.real_epochs
    );

    // Every state's action index is valid.
    assert!(artifacts
        .fsm
        .states
        .iter()
        .all(|s| s.action < Action::COUNT));

    // All four policies complete every training trace without truncation.
    let comparison = compare_policies(&config, &artifacts, &artifacts.real_traces, 5);
    assert_eq!(comparison.policy_names.len(), 4);
    for row in &comparison.makespans {
        for (&k, name) in row.iter().zip(&comparison.policy_names) {
            assert!(
                k < config.sim.max_intervals,
                "{name} was truncated (makespan {k})"
            );
            assert!(k >= config.trace_len, "{name} finished before the horizon?");
        }
    }
}

#[test]
fn pipeline_is_deterministic_in_its_seed() {
    let config = PipelineConfig::tiny();
    let a = Pipeline::new(config.clone()).run();
    let b = Pipeline::new(config).run();
    assert_eq!(a.fsm.num_states(), b.fsm.num_states());
    assert_eq!(a.fsm.num_symbols(), b.fsm.num_symbols());
    assert_eq!(a.dataset_len, b.dataset_len);
    let last_a = a.convergence.last().expect("log");
    let last_b = b.convergence.last().expect("log");
    assert_eq!(last_a.total_steps, last_b.total_steps);
}

#[test]
fn different_seeds_train_different_agents() {
    let mut config = PipelineConfig::tiny();
    let a = Pipeline::new(config.clone()).run();
    config.seed = 123_456;
    let b = Pipeline::new(config).run();
    let obs = vec![0.2f32; lahd::sim::Observation::DIM];
    let ia = a.agent.infer(&obs, &a.agent.initial_state());
    let ib = b.agent.infer(&obs, &b.agent.initial_state());
    assert_ne!(ia.logits, ib.logits);
}
