//! **Figure 4 — Performance comparison.**
//!
//! Reproduces the paper's headline evaluation: makespan of four policies on
//! ten real workloads — the production default (no migration), the
//! expert-handcrafted FSM, the GRU-based DRL model, and the FSM extracted
//! from it. Paper shape: every policy beats the default; the handcrafted
//! FSM reduces makespan by ≈20 %; DRL and the extracted FSM beat the
//! handcrafted FSM (≈11.5 % in the paper); the extracted FSM is slightly
//! (≈0.88 %) worse than its DRL teacher.
//!
//! Two evaluation sets are reported: the training traces under fresh idle
//! noise, and ten *held-out* spliced traces the agent never saw.
//!
//! Run: `cargo bench -p lahd-bench --bench fig4_performance [-- --paper]`

use lahd_bench::{banner, cached_artifacts, configure, experiments_dir};
use lahd_core::{compare_policies, fmt_pct, Args, Comparison, Table};
use lahd_workload::real_trace_set;

fn main() {
    let args = Args::from_env();
    let cfg = configure(&args);
    banner("Figure 4 — makespan comparison over real workloads", &cfg);
    let artifacts = cached_artifacts(&cfg);

    let held_out = real_trace_set(10, cfg.trace_len, cfg.seed.wrapping_add(777_000));

    for (set_name, traces, noise_seed) in [
        (
            "training traces, fresh noise",
            artifacts.real_traces.clone(),
            999u64,
        ),
        ("held-out traces", held_out, 31_337u64),
    ] {
        let comparison = compare_policies(&cfg, &artifacts, &traces, noise_seed);
        report(&comparison, set_name);
    }
    println!(
        "extracted FSM: {} states / {} symbols / {} transitions (raw states before minimisation: {})",
        artifacts.fsm.num_states(),
        artifacts.fsm.num_symbols(),
        artifacts.fsm.num_transitions(),
        artifacts.raw_states
    );
}

fn report(c: &Comparison, set_name: &str) {
    let mut headers = vec!["workload"];
    headers.extend(c.policy_names.iter().map(String::as_str));
    let mut table = Table::new(format!("Figure 4 — {set_name}"), &headers);
    for (row, trace) in c.trace_names.iter().enumerate() {
        let mut cells = vec![trace.clone()];
        cells.extend(c.makespans[row].iter().map(usize::to_string));
        table.push_row(cells);
    }
    let mut mean_cells = vec!["MEAN".to_string()];
    mean_cells.extend((0..c.policy_names.len()).map(|col| format!("{:.1}", c.mean_makespan(col))));
    table.push_row(mean_cells);
    print!("{}", table.render());

    let d = c.column("default").expect("default column");
    let h = c.column("handcrafted").expect("handcrafted column");
    let g = c.column("gru-drl").expect("gru column");
    let f = c.column("extracted-fsm").expect("fsm column");
    println!("§4.3.2 headline numbers ({set_name}):");
    println!(
        "  handcrafted vs default:   {} reduction (paper: ≈20%)",
        fmt_pct(c.reduction_vs(h, d))
    );
    println!(
        "  gru-drl    vs handcrafted: {} reduction (paper: ≈11.5%)",
        fmt_pct(c.reduction_vs(g, h))
    );
    println!(
        "  extracted  vs handcrafted: {} reduction",
        fmt_pct(c.reduction_vs(f, h))
    );
    println!(
        "  extracted  vs gru-drl:     {} increase (paper: ≈0.88%)",
        fmt_pct(-c.reduction_vs(f, g))
    );
    let all_beat_default = (0..c.makespans[0].len())
        .skip(1)
        .all(|col| c.mean_makespan(col) <= c.mean_makespan(d));
    println!("  all policies beat default on average: {all_beat_default}");
    println!();

    let slug = if set_name.starts_with("training") {
        "training"
    } else {
        "heldout"
    };
    let path = experiments_dir().join(format!("fig4_performance_{slug}.csv"));
    table.save_csv(&path).expect("csv written");
    println!("rows written to {}", path.display());
    println!();
}
