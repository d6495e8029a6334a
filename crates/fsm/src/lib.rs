//! Finite state machines extracted from recurrent storage-tuning policies —
//! the white-box deliverable of *Learning-Aided Heuristics Design for
//! Storage System* (SIGMOD 2021).
//!
//! The crate covers §3.2–3.3 of the paper plus the evaluation baselines:
//!
//! * [`Fsm`] — the Moore machine over quantized hidden-state codes (states)
//!   and quantized observation codes (symbols);
//! * [`extract_fsm`] — builds the machine from a QBN-quantized transition
//!   dataset;
//! * [`minimize`] — partition-refinement minimisation (merging
//!   behaviourally equivalent states, as in Koul et al.);
//! * [`FsmExecutor`] — executes the machine over observation vectors, with
//!   the paper's nearest-neighbour fallback ([`Metric`]) for unseen
//!   observations;
//! * [`DefaultPolicy`] / [`HandcraftedFsm`] — the paper's comparison
//!   baselines (no migration; min-util → max-util migration);
//! * [`interpret_states`] / [`history_window`] — the fan-in/fan-out and
//!   history analyses of §3.3 (Figures 5 and 6);
//! * [`to_dot`] — Graphviz export; [`write_fsm`]/[`read_fsm`] — the
//!   human-reviewable text persistence format;
//! * [`compile_fsm`] / [`CompiledFsm`] — the load-time lowering pass and
//!   its flat-table runtime: threshold quantization, packed symbol lookup
//!   and a dense transition table with §3.2.2 fallbacks precomputed into
//!   every slot, plus an SoA batch evaluator for the serving tier.

mod baselines;
mod compile;
mod compiled;
mod dot;
mod extract;
mod interpret;
mod machine;
mod matching;
mod minimize;
mod persist;
mod policy;

pub use baselines::{ConstantPolicy, DefaultPolicy, HandcraftedFsm};
pub use compile::{compile_fsm, CompileError};
pub use compiled::{
    BatchScratch, CompiledCursor, CompiledFsm, CompiledScratch, SavedCursor, SlotTag, StepOutcome,
};
pub use dot::to_dot;
pub use extract::extract_fsm;
pub use interpret::{
    edge_profiles, history_window, interpret_states, EdgeProfile, StateInterpretation,
};
pub use machine::{Fsm, FsmIndex, FsmState, ObsSymbol};
pub use matching::{CentroidIndex, Metric};
pub use minimize::{merge_compatible, minimize};
pub use persist::{read_fsm, write_fsm, FsmPersistError};
pub use policy::{FsmExecutor, FsmRunStats, Policy, TrajStep, Trajectory, VecPolicy};

// Re-exported so downstream crates that build executors (the serving
// daemon, eval harnesses) can name the observation encoder's type without
// depending on lahd-qbn directly.
pub use lahd_qbn::Qbn;
