//! Extract a finite state machine from a trained recurrent policy and
//! interpret its states — the paper's §3.2–3.3 as a runnable walkthrough.
//!
//! Steps printed as they happen: curriculum training, raw ⟨h, h′, o, a⟩
//! dataset collection, QBN fitting, quantized-loop fine-tuning, extraction,
//! minimisation, fan-in/fan-out interpretation, and a DOT rendering you can
//! feed to Graphviz.
//!
//! ```text
//! cargo run --release --example extract_and_interpret
//! ```

use lahd::core::{action_names, run_rollout, Pipeline, PipelineConfig};
use lahd::fsm::{interpret_states, to_dot, FsmExecutor};

fn main() {
    let config = PipelineConfig::tiny();
    let pipeline = Pipeline::new(config.clone());

    println!("[1/6] synthesising workloads…");
    let (std_traces, real_traces) = pipeline.make_traces();
    println!(
        "      {} standard traces, {} real traces, {} intervals each",
        std_traces.len(),
        real_traces.len(),
        config.trace_len
    );

    println!(
        "[2/6] curriculum training ({} + {} epochs)…",
        config.std_epochs, config.real_epochs
    );
    let (agent, log) = pipeline.train_with_curriculum(&std_traces, &real_traces);
    println!(
        "      final epoch total makespan: {}",
        log.last().expect("log").total_steps
    );

    println!("[3/6] collecting the ⟨h, h', o, a⟩ dataset…");
    let raw = pipeline.collect_dataset(&agent, &real_traces);
    println!(
        "      {} transitions over {} episodes",
        raw.len(),
        raw.num_episodes()
    );

    println!("[4/6] fitting + fine-tuning the quantized bottleneck networks…");
    let (mut obs_qbn, mut hidden_qbn) = pipeline.fit_qbns(&raw);
    let losses = pipeline.fine_tune_quantized(&agent, &mut obs_qbn, &mut hidden_qbn, &real_traces);
    println!(
        "      imitation loss {:.4} → {:.4} over {} fine-tune epochs",
        losses.first().copied().unwrap_or(0.0),
        losses.last().copied().unwrap_or(0.0),
        losses.len()
    );

    println!("[5/6] extracting and minimising the FSM…");
    let quantized = pipeline.collect_quantized_dataset(&agent, &obs_qbn, &hidden_qbn, &real_traces);
    let (fsm, raw_states) = pipeline.extract(&quantized, &obs_qbn, &hidden_qbn);
    println!(
        "      {} raw quantized states → {} states after minimisation; {} symbols",
        raw_states,
        fsm.num_states(),
        fsm.num_symbols()
    );

    println!("[6/6] interpreting the machine on one real workload…");
    let names = action_names();
    let mut policy = FsmExecutor::new(fsm.clone(), obs_qbn, config.metric, config.nn_matching);
    policy.record_trajectory(true);
    let rollout = pipeline
        .scenario()
        .make_rollout(&config.sim, real_traces[0].clone(), 99);
    let outcome = run_rollout(rollout, &mut policy);
    let trajectory = policy.take_trajectory();
    println!(
        "      executed on {}: makespan {}",
        real_traces[0].name, outcome.score
    );

    let actions: Vec<usize> = fsm.states.iter().map(|s| s.action).collect();
    let interps = interpret_states(&trajectory, fsm.num_states(), &actions);
    for interp in interps.iter().filter(|i| i.visits > 0) {
        println!(
            "      S{}: action={} visits={} entries={} exits={}",
            interp.state, names[interp.action], interp.visits, interp.entries, interp.exits
        );
    }

    println!("\nGraphviz source (render with `dot -Tpng`):\n");
    println!("{}", to_dot(&fsm, &names));
}
