//! The core extraction guarantee: executed on the traces and noise seeds it
//! was extracted from, the FSM replays the quantized network *exactly* —
//! same actions, same makespans, no unseen observations, no missing
//! transitions. (Minimisation merges only action-identical, transition-
//! compatible states, so recorded trajectories survive it unchanged.)

use lahd::core::{run_rollout, Pipeline, PipelineConfig};
use lahd::fsm::FsmExecutor;

fn deterministic_config() -> PipelineConfig {
    let mut config = PipelineConfig::tiny();
    // Kill every stochastic element of dataset collection so replay is
    // perfectly aligned: greedy actions and no idle noise.
    config.dataset_epsilon = 0.0;
    config.sim.idle_lambda = 0.0;
    // One collection episode per trace, in order, so episode seeds line up
    // with evaluation seeds below.
    config.dataset_episodes = config.num_real_traces;
    config
}

#[test]
fn extracted_fsm_replays_quantized_network_exactly() {
    let config = deterministic_config();
    let pipeline = Pipeline::new(config.clone());
    let (std_traces, real_traces) = pipeline.make_traces();
    let (agent, _) = pipeline.train_with_curriculum(&std_traces, &real_traces);
    let raw = pipeline.collect_dataset(&agent, &real_traces);
    let (mut obs_qbn, mut hidden_qbn) = pipeline.fit_qbns(&raw);
    pipeline.fine_tune_quantized(&agent, &mut obs_qbn, &mut hidden_qbn, &real_traces);

    // The quantized network's own episodes (greedy, deterministic).
    let quantized = pipeline.collect_quantized_dataset(&agent, &obs_qbn, &hidden_qbn, &real_traces);
    let (fsm, _) = pipeline.extract(&quantized, &obs_qbn, &hidden_qbn);

    // Per-episode makespans of the quantized net, reconstructed from the
    // dataset's episode column.
    let mut quantized_lengths = vec![0usize; real_traces.len()];
    for row in quantized.rows() {
        quantized_lengths[row.episode] += 1;
    }

    // Replay each trace through the FSM with the same sim seeds.
    let mut policy = FsmExecutor::new(fsm, obs_qbn, config.metric, config.nn_matching);
    for (i, trace) in real_traces.iter().enumerate() {
        let seed = config.seed.wrapping_add(i as u64);
        let rollout = pipeline
            .scenario()
            .make_rollout(&config.sim, trace.clone(), seed);
        let outcome = run_rollout(rollout, &mut policy);
        let stats = policy.stats();
        assert_eq!(
            outcome.score, quantized_lengths[i],
            "trace {i}: FSM diverged from the quantized network"
        );
        assert_eq!(
            stats.unseen_observations, 0,
            "trace {i}: unseen observation on replay"
        );
        assert_eq!(
            stats.missing_transitions, 0,
            "trace {i}: missing transition on replay"
        );
        assert_eq!(
            stats.stuck_steps, 0,
            "trace {i}: machine got stuck on replay"
        );
    }
}

#[test]
fn fsm_policy_survives_unseen_noise_seeds() {
    // Under fresh idle noise the machine must still complete every episode
    // (generalisation via nearest-neighbour matching), even if makespans
    // differ from the replay.
    let mut config = deterministic_config();
    config.sim.idle_lambda = 1.0;
    let pipeline = Pipeline::new(config.clone());
    let artifacts = pipeline.run();
    let mut policy = artifacts.fsm_executor(config.metric, config.nn_matching);
    for (i, trace) in artifacts.real_traces.iter().enumerate() {
        let rollout =
            pipeline
                .scenario()
                .make_rollout(&config.sim, trace.clone(), 777_000 + i as u64);
        let outcome = run_rollout(rollout, &mut policy);
        assert!(!outcome.truncated, "trace {i} truncated under fresh noise");
    }
}
