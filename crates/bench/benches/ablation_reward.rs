//! **Ablation — reward design.**
//!
//! The paper's reward is the sparse terminal `1/K`. DESIGN.md documents a
//! scale-free shaped variant (per-interval time+backlog penalty plus the
//! same terminal bonus) used at demo scale. This harness trains one agent
//! per reward under an identical, reduced epoch budget and compares the
//! resulting greedy policies, quantifying how much the dense signal buys at
//! small budgets.
//!
//! Run: `cargo bench -p lahd-bench --bench ablation_reward`

use lahd_bench::{banner, configure, experiments_dir};
use lahd_core::{evaluate_vec_policy, Args, GruVecPolicy, Pipeline, Precision, RewardMode, Table};

fn main() {
    let args = Args::from_env();
    let mut cfg = configure(&args);
    // A reduced budget keeps the double training affordable; override with
    // --std-epochs/--real-epochs as usual.
    if !args.has_flag("paper") {
        cfg.std_epochs = args.get_usize("std-epochs", 200);
        cfg.real_epochs = args.get_usize("real-epochs", 200);
    }
    banner("Ablation — sparse 1/K vs shaped reward", &cfg);

    let mut table = Table::new(
        "reward ablation (same epoch budget, same seeds)",
        &["reward", "mean_makespan", "train_seconds"],
    );
    for (label, reward) in [
        ("inverse-makespan (paper)", RewardMode::paper()),
        ("shaped backlog (ours)", RewardMode::shaped()),
    ] {
        let mut variant = cfg.clone();
        variant.reward = reward;
        let pipeline = Pipeline::new(variant.clone());
        let (std_traces, real_traces) = pipeline.make_traces();
        let t0 = std::time::Instant::now();
        let (agent, _) = pipeline.train_with_curriculum(&std_traces, &real_traces);
        let secs = t0.elapsed().as_secs_f64();
        let mut policy = GruVecPolicy::new(agent, Precision::Exact);
        let outcomes = evaluate_vec_policy(
            pipeline.scenario(),
            &variant.sim,
            &mut policy,
            &real_traces,
            999,
        );
        let mean = outcomes.iter().map(|o| o.score as f64).sum::<f64>() / outcomes.len() as f64;
        table.push_row(vec![
            label.into(),
            format!("{mean:.1}"),
            format!("{secs:.1}"),
        ]);
    }
    print!("{}", table.render());
    let csv = experiments_dir().join("ablation_reward.csv");
    table.save_csv(&csv).expect("csv written");
    println!("rows written to {}", csv.display());
}
