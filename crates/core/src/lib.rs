//! The LAHD pipeline — *Learning-Aided Heuristics Design for Storage
//! System* (SIGMOD 2021) — end to end:
//!
//! 1. model a storage decision problem as an MDP over a [`lahd_sim`]
//!    simulator (a registered [`Scenario`]; the default
//!    [`ScenarioId::DoradoMigration`] is the paper's core-allocation
//!    problem via [`StorageEnv`] and [`RewardMode`], and
//!    [`ScenarioId::Readahead`] is learned readahead sizing);
//! 2. train a GRU-based A2C agent with curriculum learning
//!    ([`Pipeline::train_with_curriculum`]);
//! 3. roll the trained agent out to collect the `⟨h, h′, o, a⟩` transition
//!    dataset ([`Pipeline::collect_dataset`]);
//! 4. fit quantized bottleneck networks over observations and hidden states
//!    ([`Pipeline::fit_qbns`]);
//! 5. extract and minimise the finite state machine
//!    ([`Pipeline::extract`]);
//! 6. evaluate the white-box FSM against the DRL teacher and the paper's
//!    baselines ([`Comparison`]), and interpret its states (via
//!    [`lahd_fsm::interpret_states`]).
//!
//! # Quickstart
//!
//! ```no_run
//! use lahd_core::{Pipeline, PipelineConfig};
//!
//! let pipeline = Pipeline::new(PipelineConfig::demo());
//! let artifacts = pipeline.run();
//! println!("extracted FSM with {} states", artifacts.fsm.num_states());
//! ```

mod args;
mod artifacts;
mod env;
mod eval;
mod explain;
mod guard_eval;
mod oracle;
mod pipeline;
mod report;
mod scenario;

pub use args::Args;
pub use artifacts::{load_artifacts, load_artifacts_checked, save_artifacts, ArtifactError};
pub use env::{RewardMode, StorageEnv};
pub use eval::{evaluate_policy, evaluate_vec_policy, Comparison, GruPolicy, GruVecPolicy};
pub use explain::explain_fsm;
pub use guard_eval::{build_ladder, guard_eval, resolve_baseline, GuardEvalConfig, SHADOW_TIER};
pub use oracle::{best_static_allocation, OracleResult};
pub use pipeline::{action_names, Pipeline, PipelineArtifacts, PipelineConfig};
// Re-exported so the CLI (and downstream users) can name an inference
// precision without depending on lahd-nn directly.
pub use lahd_rl::Precision;
pub use report::{fmt_f, fmt_pct, Table};
pub use scenario::{
    run_rollout, RolloutEnv, RolloutOutcome, Scenario, ScenarioId, ScenarioRollout,
};
