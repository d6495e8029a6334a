//! **Ablation — nearest-neighbour observation matching (§3.2.2).**
//!
//! The paper's second generalisation enhancement classifies unseen
//! observations as their closest known observation so they can still
//! trigger a transition. This harness compares the extracted FSM with the
//! fallback on (Euclidean and cosine, the two metrics the paper names)
//! against the machine with the fallback disabled (which simply holds its
//! state on unseen input).
//!
//! Run: `cargo bench -p lahd-bench --bench ablation_nn_matching`

use lahd_bench::{banner, cached_artifacts, configure, experiments_dir};
use lahd_core::{run_rollout, Args, Table};
use lahd_fsm::Metric;

fn main() {
    let args = Args::from_env();
    let cfg = configure(&args);
    banner(
        "Ablation — nearest-neighbour matching of unseen observations",
        &cfg,
    );
    let artifacts = cached_artifacts(&cfg);

    let mut table = Table::new(
        "unseen-observation handling",
        &[
            "variant",
            "mean_makespan",
            "unseen_obs%",
            "missing_trans%",
            "stuck%",
        ],
    );
    for (label, metric, matching) in [
        ("euclidean NN", Metric::Euclidean, true),
        ("cosine NN", Metric::Cosine, true),
        ("disabled (hold state)", Metric::Euclidean, false),
    ] {
        let mut policy = artifacts.fsm_executor(metric, matching);
        let mut total_k = 0usize;
        let mut unseen = 0usize;
        let mut missing = 0usize;
        let mut stuck = 0usize;
        let mut steps = 0usize;
        for (i, trace) in artifacts.real_traces.iter().enumerate() {
            let rollout = cfg
                .scenario
                .get()
                .make_rollout(&cfg.sim, trace.clone(), 999 + i as u64);
            total_k += run_rollout(rollout, &mut policy).score;
            let stats = policy.stats();
            unseen += stats.unseen_observations;
            missing += stats.missing_transitions;
            stuck += stats.stuck_steps;
            steps += stats.steps;
        }
        let n = artifacts.real_traces.len() as f64;
        table.push_row(vec![
            label.to_string(),
            format!("{:.1}", total_k as f64 / n),
            format!("{:.1}", 100.0 * unseen as f64 / steps as f64),
            format!("{:.1}", 100.0 * missing as f64 / steps as f64),
            format!("{:.1}", 100.0 * stuck as f64 / steps as f64),
        ]);
    }
    print!("{}", table.render());
    let csv = experiments_dir().join("ablation_nn_matching.csv");
    table.save_csv(&csv).expect("csv written");
    println!("rows written to {}", csv.display());
}
