//! **Ablation — QBN latent width.**
//!
//! The paper fixes `k = 3, L = 64` without exploring the trade-off. This
//! harness sweeps the hidden-QBN latent width and reports machine size,
//! transition-table coverage and makespan: small latents collapse the
//! policy (too little recurrent bandwidth through the bottleneck), large
//! latents fragment the state space and generalise worse per state.
//!
//! Reuses one trained agent; only the QBN fitting, fine-tuning and
//! extraction rerun per configuration.
//!
//! Run: `cargo bench -p lahd-bench --bench ablation_qbn_size`

use lahd_bench::{banner, cached_artifacts, configure, experiments_dir};
use lahd_core::{
    evaluate_vec_policy, Args, GruVecPolicy, Pipeline, Precision, RolloutOutcome, Table,
};
use lahd_fsm::FsmExecutor;

fn main() {
    let args = Args::from_env();
    let cfg = configure(&args);
    banner("Ablation — hidden-QBN latent width", &cfg);
    let artifacts = cached_artifacts(&cfg);
    let pipeline = Pipeline::new(cfg.clone());
    let raw_dataset = pipeline.collect_dataset(&artifacts.agent, &artifacts.real_traces);
    let scenario = pipeline.scenario();

    // GRU reference row.
    let mut gru = GruVecPolicy::new(artifacts.agent.clone(), Precision::Exact);
    let gru_mean = mean_makespan(evaluate_vec_policy(
        scenario,
        &cfg.sim,
        &mut gru,
        &artifacts.real_traces,
        999,
    ));

    let mut table = Table::new(
        "hidden-QBN latent sweep (k = 3 throughout)",
        &[
            "L_h",
            "raw_states",
            "fsm_states",
            "symbols",
            "transitions",
            "mean_makespan",
            "vs_gru",
        ],
    );
    for latent in [4usize, 8, 16, 32] {
        let mut variant = cfg.clone();
        variant.hidden_latent = latent;
        let vp = Pipeline::new(variant.clone());
        let (mut obs_qbn, mut hidden_qbn) = vp.fit_qbns(&raw_dataset);
        vp.fine_tune_quantized(
            &artifacts.agent,
            &mut obs_qbn,
            &mut hidden_qbn,
            &artifacts.real_traces,
        );
        let quantized = vp.collect_quantized_dataset(
            &artifacts.agent,
            &obs_qbn,
            &hidden_qbn,
            &artifacts.real_traces,
        );
        let (fsm, raw_states) = vp.extract(&quantized, &obs_qbn, &hidden_qbn);
        let mut policy =
            FsmExecutor::new(fsm.clone(), obs_qbn, variant.metric, variant.nn_matching);
        let mean = mean_makespan(evaluate_vec_policy(
            scenario,
            &cfg.sim,
            &mut policy,
            &artifacts.real_traces,
            999,
        ));
        table.push_row(vec![
            latent.to_string(),
            raw_states.to_string(),
            fsm.num_states().to_string(),
            fsm.num_symbols().to_string(),
            fsm.num_transitions().to_string(),
            format!("{mean:.1}"),
            format!("{:+.1}%", (mean / gru_mean - 1.0) * 100.0),
        ]);
    }
    table.push_row(vec![
        "(gru)".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{gru_mean:.1}"),
        "+0.0%".into(),
    ]);
    print!("{}", table.render());
    let csv = experiments_dir().join("ablation_qbn_size.csv");
    table.save_csv(&csv).expect("csv written");
    println!("rows written to {}", csv.display());
}

fn mean_makespan(outcomes: Vec<RolloutOutcome>) -> f64 {
    outcomes.iter().map(|o| o.score as f64).sum::<f64>() / outcomes.len() as f64
}
