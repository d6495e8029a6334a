//! Markdown explanation reports for extracted machines.
//!
//! The paper's stated goal is "to facilitate domain experts to devise more
//! sophisticated heuristics": the artifact a domain expert actually reviews
//! is not a transition table but a narrative — which states exist, what
//! each one does, what drives its transitions, and what was happening
//! before the interesting ones fired. [`explain_fsm`] generates that
//! narrative as a self-contained Markdown document from an executed
//! trajectory.

use std::fmt::Write as _;

use lahd_fsm::{edge_profiles, history_window, interpret_states, Fsm, Trajectory};
use lahd_sim::SimConfig;

use crate::pipeline::action_names;

/// Observation-vector layout constants (see `Observation::to_vector`).
const UTIL_OFFSET: usize = 3;
const SIZES_OFFSET: usize = 6;
const MIX_OFFSET: usize = 20;
const REQUESTS_OFFSET: usize = 34;

/// Summary features pulled from a mean observation vector.
struct ObsSummary {
    utilization: [f64; 3],
    write_share: f64,
    requests: f64,
}

fn summarise(v: &[f32], cfg: &SimConfig) -> ObsSummary {
    let utilization = [
        f64::from(v[UTIL_OFFSET]),
        f64::from(v[UTIL_OFFSET + 1]),
        f64::from(v[UTIL_OFFSET + 2]),
    ];
    let sizes = &v[SIZES_OFFSET..SIZES_OFFSET + 14];
    let mix = &v[MIX_OFFSET..MIX_OFFSET + 14];
    let write_share = mix
        .iter()
        .zip(sizes)
        .filter(|(_, &s)| s < 0.0)
        .map(|(&m, _)| f64::from(m))
        .sum();
    let requests = f64::from(v[REQUESTS_OFFSET]) * cfg.requests_norm;
    ObsSummary {
        utilization,
        write_share,
        requests,
    }
}

/// Renders a Markdown report explaining `fsm` from a recorded `trajectory`.
///
/// Sections: machine overview, per-state table (sorted by visits),
/// narrative interpretation of the busiest states (fan-in vs fan-out per
/// §3.3), and history windows for states whose action moves capacity toward
/// the back-end levels (the paper's Figure 6 analysis).
pub fn explain_fsm(fsm: &Fsm, trajectory: &Trajectory, cfg: &SimConfig) -> String {
    let names = action_names();
    let actions: Vec<usize> = fsm.states.iter().map(|s| s.action).collect();
    let interps = interpret_states(trajectory, fsm.num_states(), &actions);
    let mut visited: Vec<_> = interps.iter().filter(|i| i.visits > 0).collect();
    visited.sort_by_key(|i| std::cmp::Reverse(i.visits));
    let total_steps = trajectory.steps.len();

    let mut out = String::new();
    let _ = writeln!(out, "# Extracted storage-tuning strategy\n");
    let _ = writeln!(
        out,
        "The machine has **{} states**, **{} observation symbols** and **{} \
         transitions**; the analysed execution covers **{} intervals** and \
         visited **{} states**.\n",
        fsm.num_states(),
        fsm.num_symbols(),
        fsm.num_transitions(),
        total_steps,
        visited.len()
    );

    // State table.
    let _ = writeln!(out, "## States by time spent\n");
    let _ = writeln!(out, "| state | action | visits | share | entries | exits |");
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for interp in visited.iter().take(20) {
        let _ = writeln!(
            out,
            "| S{} | `{}` | {} | {:.1}% | {} | {} |",
            interp.state,
            names[interp.action],
            interp.visits,
            100.0 * interp.visits as f64 / total_steps.max(1) as f64,
            interp.entries,
            interp.exits
        );
    }
    if visited.len() > 20 {
        let _ = writeln!(out, "\n…and {} more states.", visited.len() - 20);
    }

    // Narrative for the busiest states.
    let _ = writeln!(out, "\n## What the busiest states react to\n");
    for interp in visited.iter().take(6) {
        let _ = writeln!(out, "### S{} — `{}`\n", interp.state, names[interp.action]);
        if interp.fan_in_mean.is_empty() || interp.fan_out_mean.is_empty() {
            let _ = writeln!(
                out,
                "Only self-transitions were observed, so fan-in/fan-out \
                 statistics are not available for this execution.\n"
            );
            continue;
        }
        let fan_in = summarise(&interp.fan_in_mean, cfg);
        let fan_out = summarise(&interp.fan_out_mean, cfg);
        let _ = writeln!(
            out,
            "- entered when utilisation (N/K/R) averages \
             {:.2}/{:.2}/{:.2}, write share {:.0}% at ≈{:.0} req/interval",
            fan_in.utilization[0],
            fan_in.utilization[1],
            fan_in.utilization[2],
            fan_in.write_share * 100.0,
            fan_in.requests
        );
        let _ = writeln!(
            out,
            "- left with utilisation {:.2}/{:.2}/{:.2}, write share {:.0}%",
            fan_out.utilization[0],
            fan_out.utilization[1],
            fan_out.utilization[2],
            fan_out.write_share * 100.0
        );
        let du: Vec<f64> = fan_out
            .utilization
            .iter()
            .zip(&fan_in.utilization)
            .map(|(o, i)| o - i)
            .collect();
        let _ = writeln!(
            out,
            "- the action's net effect while active: ΔuN {:+.2}, ΔuK {:+.2}, ΔuR {:+.2}\n",
            du[0], du[1], du[2]
        );
    }

    // The thickest arrows of the machine (Figure 5's edges).
    let _ = writeln!(out, "## Busiest transitions\n");
    let _ = writeln!(out, "| edge | firings | trigger: uN/uK/uR | write share |");
    let _ = writeln!(out, "|---|---|---|---|");
    for edge in edge_profiles(trajectory).iter().take(10) {
        let trigger = summarise(&edge.mean_obs, cfg);
        let _ = writeln!(
            out,
            "| S{} → S{} | {} | {:.2}/{:.2}/{:.2} | {:.0}% |",
            edge.from,
            edge.to,
            edge.count,
            trigger.utilization[0],
            trigger.utilization[1],
            trigger.utilization[2],
            trigger.write_share * 100.0
        );
    }
    let _ = writeln!(out);

    // Figure-6-style history for back-end-directed states.
    let _ = writeln!(out, "## Anticipatory states (history before entry)\n");
    let mut wrote_any = false;
    for interp in visited.iter().filter(|i| {
        let name = &names[i.action];
        name.starts_with("N=>") && i.entries >= 2
    }) {
        let history = history_window(trajectory, interp.state, 10);
        if history.is_empty() {
            continue;
        }
        wrote_any = true;
        let first = summarise(&history[0], cfg);
        let last = summarise(history.last().expect("non-empty"), cfg);
        let _ = writeln!(
            out,
            "- **S{}** (`{}`): over the 10 intervals before entry, write \
             share moved {:.0}% → {:.0}% and NORMAL utilisation {:.2} → {:.2} \
             — the machine re-allocates toward the back-end levels as the \
             write-back phase builds (paper §4.4).",
            interp.state,
            names[interp.action],
            first.write_share * 100.0,
            last.write_share * 100.0,
            first.utilization[0],
            last.utilization[0],
        );
    }
    if !wrote_any {
        let _ = writeln!(
            out,
            "No NORMAL→back-end state accumulated enough entries in this \
             execution for a history analysis."
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use crate::scenario::run_rollout;

    fn report_for_tiny_pipeline() -> (String, usize) {
        let config = PipelineConfig::tiny();
        let pipeline = Pipeline::new(config.clone());
        let artifacts = pipeline.run();
        let mut policy = artifacts.fsm_executor(config.metric, config.nn_matching);
        policy.record_trajectory(true);
        let rollout =
            pipeline
                .scenario()
                .make_rollout(&config.sim, artifacts.real_traces[0].clone(), 1);
        run_rollout(rollout, &mut policy);
        let trajectory = policy.take_trajectory();
        let report = explain_fsm(&artifacts.fsm, &trajectory, &config.sim);
        (report, artifacts.fsm.num_states())
    }

    #[test]
    fn report_contains_expected_sections() {
        let (report, num_states) = report_for_tiny_pipeline();
        assert!(report.starts_with("# Extracted storage-tuning strategy"));
        assert!(report.contains("## States by time spent"));
        assert!(report.contains("## What the busiest states react to"));
        assert!(report.contains("## Busiest transitions"));
        assert!(report.contains("## Anticipatory states"));
        assert!(report.contains(&format!("**{num_states} states**")));
    }

    #[test]
    fn report_handles_empty_trajectory() {
        let config = PipelineConfig::tiny();
        let artifacts = Pipeline::new(config.clone()).run();
        let report = explain_fsm(&artifacts.fsm, &Trajectory::default(), &config.sim);
        assert!(report.contains("**0 intervals**"));
    }
}
