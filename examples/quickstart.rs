//! Quickstart: the full learning-aided heuristics pipeline in one file.
//!
//! Trains a small GRU agent on the storage simulator, extracts a finite
//! state machine from it through quantized bottleneck networks, and compares
//! the four policies of the paper's Figure 4 on the training traces.
//!
//! Uses the test-scale configuration so it finishes in well under a minute:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lahd::core::{action_names, compare_policies, Pipeline, PipelineConfig};

fn main() {
    // `tiny()` runs in seconds; swap for `PipelineConfig::demo()` (minutes)
    // or `PipelineConfig::paper()` (hours) for stronger policies.
    let config = PipelineConfig::tiny();
    println!("running the LAHD pipeline at test scale…");

    let pipeline = Pipeline::new(config.clone());
    let artifacts = pipeline.run();

    println!(
        "trained GRU-{} agent over {} epochs; extracted FSM has {} states, \
         {} observation symbols, {} transitions (raw states before minimisation: {})",
        config.hidden_dim,
        artifacts.convergence.len(),
        artifacts.fsm.num_states(),
        artifacts.fsm.num_symbols(),
        artifacts.fsm.num_transitions(),
        artifacts.raw_states,
    );

    // The white-box deliverable: every state is one action.
    let names = action_names();
    for (i, state) in artifacts.fsm.states.iter().enumerate().take(8) {
        println!(
            "  S{i}: action={} support={} code={}",
            names[state.action], state.support, state.code
        );
    }

    // Figure-4-style comparison on the training traces with fresh noise.
    let comparison = compare_policies(&config, &artifacts, &artifacts.real_traces, 12345);

    println!("\nmakespan per policy (lower is better):");
    for (col, name) in comparison.policy_names.iter().enumerate() {
        println!("  {name:<14} mean K = {:.1}", comparison.mean_makespan(col));
    }
    println!(
        "\nNote: at test scale the agent barely trains; run the fig4_performance \
         bench (demo scale) to reproduce the paper's ordering."
    );
}
