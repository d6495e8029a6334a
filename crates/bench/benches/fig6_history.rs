//! **Figure 6 — History information of an anticipatory state.**
//!
//! Reproduces the paper's deepest interpretability claim: state S2 migrates
//! cores *toward the back-end levels* (KV/RV) even though the basic
//! min→max-utilisation rule would not — because the history of the last 10
//! observations before entering it shows **rising write intensity with
//! reads near zero and a rising NORMAL/(KV+RV) capacity ratio**: the policy
//! first front-loaded NORMAL, and re-adjusts so "the write-back phase of
//! write requests could be satisfied quickly" (§4.4).
//!
//! The harness finds the most-entered state whose action moves a core from
//! NORMAL toward KV or RV and prints its 10-step average history window.
//!
//! Run: `cargo bench -p lahd-bench --bench fig6_history [-- --paper]`

use lahd_bench::{banner, cached_artifacts, configure, experiments_dir};
use lahd_core::{action_names, run_rollout, Args, Table};
use lahd_fsm::{history_window, interpret_states};
use lahd_sim::{Action, Level};

const WINDOW: usize = 10;

fn main() {
    let args = Args::from_env();
    let cfg = configure(&args);
    banner(
        "Figure 6 — pre-transition history of the S2-like state",
        &cfg,
    );
    let artifacts = cached_artifacts(&cfg);
    let names = action_names();

    // Record a trajectory over every real trace to gather enough entries.
    let mut policy = artifacts.fsm_executor(cfg.metric, cfg.nn_matching);
    policy.record_trajectory(true);
    let mut trajectory = lahd_fsm::Trajectory::default();
    for (i, trace) in artifacts.real_traces.iter().enumerate() {
        let rollout = cfg
            .scenario
            .get()
            .make_rollout(&cfg.sim, trace.clone(), 6000 + i as u64);
        run_rollout(rollout, &mut policy);
        trajectory.steps.extend(policy.take_trajectory().steps);
    }

    // S2-like: most-entered state migrating a core out of NORMAL toward the
    // back-end levels (the anticipatory write-back move).
    let state_actions: Vec<usize> = artifacts.fsm.states.iter().map(|s| s.action).collect();
    let interps = interpret_states(&trajectory, artifacts.fsm.num_states(), &state_actions);
    let is_backend_move = |a: usize| {
        matches!(
            Action::from_index(a),
            Action::Migrate {
                from: Level::Normal,
                to: Level::Kv
            } | Action::Migrate {
                from: Level::Normal,
                to: Level::Rv
            }
        )
    };
    let Some(s2) = interps
        .iter()
        .filter(|i| is_backend_move(i.action) && i.entries > 0)
        .max_by_key(|i| i.entries)
    else {
        println!(
            "No NORMAL→KV/RV state was entered on these traces; the extracted policy \
             satisfies write-back pressure through other moves. Re-run with --paper \
             scale for a richer machine."
        );
        return;
    };
    println!(
        "S2-like state: S{} action {} with {} entries",
        s2.state, names[s2.action], s2.entries
    );

    let history = history_window(&trajectory, s2.state, WINDOW);
    assert!(
        !history.is_empty(),
        "state has entries, so the window must exist"
    );

    let mut table = Table::new(
        format!(
            "Figure 6 — last {WINDOW} average observations before entering S{}",
            s2.state
        ),
        &[
            "offset",
            "read_intensity",
            "write_intensity",
            "capacity_ratio",
            "uN",
            "uK",
            "uR",
        ],
    );
    let mut write_series = Vec::new();
    let mut ratio_series = Vec::new();
    let mut read_series = Vec::new();
    for (w, obs) in history.iter().enumerate() {
        // Vector layout: 3 core fractions, 3 utilisations, 14 sizes,
        // 14 mix ratios, 1 requests.
        let cores: Vec<f64> = obs[..3].iter().map(|&c| f64::from(c)).collect();
        let backend = cores[1] + cores[2];
        let ratio = if backend > 0.0 {
            cores[0] / backend
        } else {
            f64::INFINITY
        };
        let sizes = &obs[6..20];
        let mix = &obs[20..34];
        let q = f64::from(obs[34]) * cfg.sim.requests_norm;
        let write_share: f64 = mix
            .iter()
            .zip(sizes)
            .filter(|(_, &s)| s < 0.0)
            .map(|(&m, _)| f64::from(m))
            .sum();
        let read_intensity = (1.0 - write_share) * q;
        let write_intensity = write_share * q;
        write_series.push(write_intensity);
        read_series.push(read_intensity);
        ratio_series.push(ratio);
        table.push_row(vec![
            format!("-{}", WINDOW - w),
            format!("{read_intensity:.0}"),
            format!("{write_intensity:.0}"),
            format!("{ratio:.3}"),
            format!("{:.3}", obs[3]),
            format!("{:.3}", obs[4]),
            format!("{:.3}", obs[5]),
        ]);
    }
    print!("{}", table.render());
    let csv = experiments_dir().join("fig6_history.csv");
    table.save_csv(&csv).expect("csv written");

    // Paper shape checks: write intensity rising into the transition,
    // reads low relative to writes, capacity ratio not falling.
    let half = WINDOW / 2;
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let early_w = mean(&write_series[..half]);
    let late_w = mean(&write_series[half..]);
    let early_r = mean(&ratio_series[..half]);
    let late_r = mean(&ratio_series[half..]);
    let early_reads = mean(&read_series[..half]);
    let late_reads = mean(&read_series[half..]);
    // Write *share* of traffic: robust when reads never reach exactly 0
    // (the paper's synthetic phases do, our spliced workloads do not).
    let early_share = early_w / (early_w + early_reads).max(1e-9);
    let late_share = late_w / (late_w + late_reads).max(1e-9);
    println!();
    println!("== Figure 6 shape checks (paper §4.4) ==");
    println!(
        "write intensity before entry: {early_w:.0} → {late_w:.0} (rising: {})",
        late_w > early_w
    );
    println!(
        "read intensity before entry: {early_reads:.0} → {late_reads:.0} (falling: {})",
        late_reads < early_reads
    );
    println!(
        "write share of traffic before entry: {:.3} → {:.3} (rising: {})",
        early_share,
        late_share,
        late_share > early_share
    );
    println!(
        "capacity ratio N/(K+R) before entry: {early_r:.3} → {late_r:.3} (rising: {})",
        late_r > early_r
    );
    println!("rows written to {}", csv.display());
}
