//! **Figure 5 — Visualisation and fan-in/fan-out statistics of the
//! extracted FSM.**
//!
//! Reproduces the paper's state-level analysis: the extracted machine is
//! executed over a real workload while recording its trajectory; each state
//! is reported with its action, visit count (the paper draws circle
//! thickness from this), and the fan-in/fan-out averages of the continuous
//! observations on entry/exit transitions (§3.3, self-transitions excluded).
//! The paper's qualitative findings checked here: the Noop state dominates,
//! and migration states move cores from low-utilisation toward
//! high-utilisation levels.
//!
//! Run: `cargo bench -p lahd-bench --bench fig5_fsm_extraction [-- --paper]`
//! Output: state table + Graphviz DOT (`target/experiments/fig5_fsm.dot`).

use lahd_bench::{banner, cached_artifacts, configure, experiments_dir};
use lahd_core::{action_names, run_rollout, Args, Table};
use lahd_fsm::{interpret_states, to_dot};
use lahd_sim::{Observation, SimConfig};

/// Pulls the named summary features out of a mean observation vector.
fn summarise_obs(v: &[f32], cfg: &SimConfig) -> (f64, f64, f64, f64, f64) {
    // Layout (Observation::to_vector): 3 core fractions, 3 utilisations,
    // 14 signed sizes, 14 mix ratios, 1 request count.
    let u = (f64::from(v[3]), f64::from(v[4]), f64::from(v[5]));
    let mix = &v[6 + 14..6 + 28];
    let sizes = &v[6..6 + 14];
    let q = f64::from(v[34]) * cfg.requests_norm;
    let write_share: f64 = mix
        .iter()
        .zip(sizes)
        .filter(|(_, &s)| s < 0.0)
        .map(|(&m, _)| f64::from(m))
        .sum();
    (u.0, u.1, u.2, write_share, q)
}

fn main() {
    let args = Args::from_env();
    let cfg = configure(&args);
    banner(
        "Figure 5 — extracted FSM visualisation & fan-in/fan-out",
        &cfg,
    );
    let artifacts = cached_artifacts(&cfg);
    let fsm = &artifacts.fsm;
    let names = action_names();

    // Execute the FSM over one real workload, recording the trajectory.
    let trace = artifacts.real_traces[0].clone();
    let mut policy = artifacts.fsm_executor(cfg.metric, cfg.nn_matching);
    policy.record_trajectory(true);
    let rollout = cfg
        .scenario
        .get()
        .make_rollout(&cfg.sim, trace.clone(), 4242);
    let outcome = run_rollout(rollout, &mut policy);
    let trajectory = policy.take_trajectory();
    println!(
        "executed FSM on {}: makespan {} over horizon {}",
        trace.name, outcome.score, outcome.horizon
    );

    let state_actions: Vec<usize> = fsm.states.iter().map(|s| s.action).collect();
    let interps = interpret_states(&trajectory, fsm.num_states(), &state_actions);

    let mut table = Table::new(
        "Figure 5 — FSM states with fan-in/fan-out statistics",
        &[
            "state",
            "action",
            "visits",
            "entries",
            "exits",
            "in uN/uK/uR",
            "out uN/uK/uR",
            "in wshare",
            "out wshare",
        ],
    );
    let mut visited: Vec<&lahd_fsm::StateInterpretation> =
        interps.iter().filter(|i| i.visits > 0).collect();
    visited.sort_by_key(|i| std::cmp::Reverse(i.visits));
    for interp in &visited {
        let fan_in = if interp.fan_in_mean.is_empty() {
            ("-".to_string(), "-".to_string())
        } else {
            let (a, b, c, w, _) = summarise_obs(&interp.fan_in_mean, &cfg.sim);
            (format!("{a:.2}/{b:.2}/{c:.2}"), format!("{w:.2}"))
        };
        let fan_out = if interp.fan_out_mean.is_empty() {
            ("-".to_string(), "-".to_string())
        } else {
            let (a, b, c, w, _) = summarise_obs(&interp.fan_out_mean, &cfg.sim);
            (format!("{a:.2}/{b:.2}/{c:.2}"), format!("{w:.2}"))
        };
        table.push_row(vec![
            format!("S{}", interp.state),
            names[interp.action].clone(),
            interp.visits.to_string(),
            interp.entries.to_string(),
            interp.exits.to_string(),
            fan_in.0,
            fan_out.0,
            fan_in.1,
            fan_out.1,
        ]);
    }
    print!("{}", table.render());
    let csv = experiments_dir().join("fig5_states.csv");
    table.save_csv(&csv).expect("csv written");

    // Paper shape checks.
    let most_visited = visited.first().expect("at least one visited state");
    println!();
    println!("== Figure 5 shape checks ==");
    println!(
        "most-visited state is S{} with action {} (paper: S0 'Noop' is the most frequent): {}",
        most_visited.state,
        names[most_visited.action],
        names[most_visited.action] == "Noop"
    );
    let distinct_actions: std::collections::HashSet<usize> =
        visited.iter().map(|i| i.action).collect();
    println!(
        "visited states: {} covering {} distinct actions (paper shows 5 states)",
        visited.len(),
        distinct_actions.len()
    );

    // DOT export (visited-state subgraph would need filtering; export all).
    let dot = to_dot(fsm, &names);
    let dot_path = experiments_dir().join("fig5_fsm.dot");
    std::fs::create_dir_all(experiments_dir()).expect("dir");
    std::fs::write(&dot_path, &dot).expect("dot written");
    println!(
        "Graphviz source written to {} ({} bytes)",
        dot_path.display(),
        dot.len()
    );
    println!("rows written to {}", csv.display());

    // The machine itself, in the persistence format, for the appendix.
    let mut fsm_text = Vec::new();
    lahd_fsm::write_fsm(fsm, &mut fsm_text).expect("serialise");
    let fsm_path = experiments_dir().join("fig5_fsm.txt");
    std::fs::write(&fsm_path, fsm_text).expect("fsm written");
    println!("machine written to {}", fsm_path.display());

    let _ = Observation::DIM; // layout documented in summarise_obs
}
