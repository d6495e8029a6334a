//! A validated, servable artifact bundle.
//!
//! [`ServeBundle`] is everything one daemon generation serves from: the
//! checked pipeline artifacts, both packed inference engines (quantized i8
//! fast tier and exact reference), and the drift baseline the per-stream
//! guards score against. Construction is the *off-path validation* step of
//! hot reload: [`ServeBundle::load`] runs `load_artifacts_checked` plus an
//! end-to-end inference probe, so a corrupt candidate is rejected before
//! any shard sees it and the previous bundle keeps serving.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

use lahd_core::{
    load_artifacts_checked, resolve_baseline, PipelineArtifacts, PipelineConfig, Scenario,
};
use lahd_fsm::{compile_fsm, CompiledCursor, CompiledFsm, FsmExecutor, VecPolicy};
use lahd_guard::BaselineProfile;
use lahd_rl::{InferEngine, InferScratch, Precision};
use lahd_tensor::Matrix;

/// One loadable generation of serving state.
pub struct ServeBundle {
    /// The pipeline configuration the artifacts were loaded under.
    pub cfg: PipelineConfig,
    /// The checked artifacts (agent, QBNs, FSM, traces).
    pub artifacts: PipelineArtifacts,
    /// Packed i8 fast-tier engine.
    pub quant: InferEngine,
    /// Packed exact reference engine.
    pub exact: InferEngine,
    /// Drift baseline for the per-stream guards (the stamped profile, or
    /// one recomputed from a clean rollout for pre-guard artifacts).
    pub baseline: BaselineProfile,
    /// Per-dimension Tukey fences precomputed from `baseline` — the
    /// compact tier's out-of-band test is an interval check per served
    /// observation, so the fences are derived once per bundle generation.
    pub band: Vec<(f32, f32)>,
    /// The FSM lowered once at load time and shared by every stream's
    /// rung-0 tier (and the shard's batched FSM path). `None` when the
    /// machine is outside the compiled envelope — streams then run the
    /// reference interpreter, scalar only.
    ///
    /// Like the net fast tier, the serving FSM tier encodes observations
    /// through the *quantized-fast* obs QBN (i8 packed weights, polynomial
    /// activations) rather than the exact one: the encoder's scalar libm
    /// `tanh` chain dominates the compiled step otherwise (~2× latency),
    /// and the same measured-accuracy contract applies — borderline latent
    /// digits may flip, which the symbol table resolves like any other
    /// near-centroid code, and the exact net stays the shadow reference.
    pub compiled: Option<Arc<CompiledFsm>>,
}

/// The obs QBN as the serving FSM tier runs it: switched onto the
/// quantized fast-inference path (see [`ServeBundle::compiled`]).
fn obs_qbn_fast(artifacts: &PipelineArtifacts) -> lahd_fsm::Qbn {
    let mut qbn = artifacts.obs_qbn.clone();
    qbn.set_precision(Precision::QuantizedFast);
    qbn
}

impl ServeBundle {
    /// Loads and validates the bundle in `dir`. Any failure — I/O, corrupt
    /// or mismatched artifact files, non-finite probe outputs, a panic in
    /// the probe — comes back as `Err`, leaving the caller free to keep
    /// serving its current bundle.
    pub fn load(cfg: &PipelineConfig, dir: &Path) -> Result<Self, String> {
        let artifacts = load_artifacts_checked(cfg, dir)
            .map_err(|e| format!("artifact validation failed: {e}"))?;
        Self::from_artifacts(cfg.clone(), artifacts)
    }

    /// Wraps already-loaded artifacts (in-process daemons and tests),
    /// running the same inference probe as [`ServeBundle::load`].
    pub fn from_artifacts(
        cfg: PipelineConfig,
        artifacts: PipelineArtifacts,
    ) -> Result<Self, String> {
        let quant = InferEngine::with_precision(&artifacts.agent, Precision::QuantizedFast);
        let exact = InferEngine::with_precision(&artifacts.agent, Precision::Exact);
        let baseline = resolve_baseline(&cfg, &artifacts, &artifacts.real_traces);
        let band = baseline.tukey_band(3.0);
        let compiled = compile_fsm(
            &artifacts.fsm,
            &obs_qbn_fast(&artifacts),
            cfg.metric,
            cfg.nn_matching,
        )
        .ok()
        .map(Arc::new);
        let bundle = Self {
            cfg,
            artifacts,
            quant,
            exact,
            baseline,
            band,
            compiled,
        };
        bundle.probe()?;
        Ok(bundle)
    }

    /// A fresh rung-0 FSM executor sharing this bundle's compiled machine
    /// (no per-stream recompilation). The embedded QBN matches the
    /// compiled machine's quantized-fast encode, so the interpreter
    /// fallback stays action-identical to the compiled path.
    pub fn fsm_executor(&self) -> FsmExecutor {
        FsmExecutor::with_compiled(
            self.artifacts.fsm.clone(),
            obs_qbn_fast(&self.artifacts),
            self.cfg.metric,
            self.cfg.nn_matching,
            self.compiled.clone(),
        )
    }

    /// The scenario the bundle serves.
    pub fn scenario(&self) -> &'static dyn Scenario {
        self.cfg.scenario.get()
    }

    /// Observation width a [`crate::Request::Decide`] must carry.
    pub fn obs_dim(&self) -> usize {
        self.artifacts.agent.obs_dim()
    }

    /// Number of valid action indices.
    pub fn num_actions(&self) -> usize {
        self.artifacts.agent.num_actions()
    }

    /// Drives a handful of decisions through every tier — batched and
    /// scalar net inference, the FSM executor, the scenario baseline — and
    /// rejects the bundle on any panic, non-finite output, or out-of-range
    /// action. This is the last line of the hot-reload validation: corrupt
    /// parameter *values* that still parse must not reach the serving path.
    fn probe(&self) -> Result<(), String> {
        catch_unwind(AssertUnwindSafe(|| self.probe_inner()))
            .map_err(|_| "bundle probe panicked".to_string())?
    }

    fn probe_inner(&self) -> Result<(), String> {
        let dim = self.obs_dim();
        if self.baseline.dim() != dim {
            return Err(format!(
                "baseline dimensionality {} does not match observations {dim}",
                self.baseline.dim()
            ));
        }
        let rows = 3usize;
        let mut obs = Matrix::zeros(rows, dim);
        for r in 0..rows {
            for (d, v) in obs.row_mut(r).iter_mut().enumerate() {
                // Spread the probe rows across the baseline's typical band.
                let p = &self.baseline.dims[d];
                *v = match r {
                    0 => p.p50,
                    1 => p.p25,
                    _ => p.p75,
                } as f32;
            }
        }
        let agent = &self.artifacts.agent;
        let hidden = Matrix::zeros(rows, agent.hidden_dim());
        let mut scratch = InferScratch::default();
        for (name, engine) in [("quant", &self.quant), ("exact", &self.exact)] {
            engine.infer_batch_into(agent, &obs, &hidden, &mut scratch);
            for r in 0..rows {
                let logits = scratch.logits.row(r);
                if !logits.iter().all(|v| v.is_finite()) {
                    return Err(format!("{name} engine produced non-finite logits"));
                }
                if lahd_tensor::argmax(logits) >= self.num_actions() {
                    return Err(format!("{name} engine action out of range"));
                }
            }
            // Scalar path too: the shard's guard fallbacks use it.
            let mut h1 = Matrix::zeros(1, agent.hidden_dim());
            h1.row_mut(0).copy_from_slice(scratch.hidden.row(0));
            engine.infer_into(agent, obs.row(0), &h1, &mut scratch);
            if !scratch.logits.row(0).iter().all(|v| v.is_finite()) {
                return Err(format!("{name} engine scalar path non-finite"));
            }
        }
        let mut fsm = self.fsm_executor();
        let mut last_resort = self
            .scenario()
            .baselines(&self.cfg.sim)
            .into_iter()
            .next()
            .ok_or("scenario registers no baseline policy")?;
        for policy in [&mut fsm as &mut dyn VecPolicy, last_resort.as_mut()] {
            policy.reset();
            for r in 0..rows {
                let action = policy.act_vec(obs.row(r));
                if action >= self.num_actions() {
                    return Err(format!("{} action {action} out of range", policy.name()));
                }
            }
        }
        // The shard's batched FSM path, when the machine lowered: same
        // probe rows, one cursor per row.
        if let Some(compiled) = &self.compiled {
            let mut scratch = compiled.make_batch_scratch();
            let mut cursors: Vec<CompiledCursor> =
                (0..rows).map(|_| CompiledCursor::new(compiled)).collect();
            let states: Vec<u16> = cursors.iter().map(CompiledCursor::state).collect();
            let mut outcomes = Vec::new();
            compiled.step_batch(
                (0..rows).map(|r| obs.row(r)),
                &states,
                &mut scratch,
                &mut outcomes,
            );
            for (cursor, &outcome) in cursors.iter_mut().zip(&outcomes) {
                let action = cursor.apply(outcome);
                if action >= self.num_actions() {
                    return Err(format!("compiled FSM batch action {action} out of range"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lahd_core::Pipeline;
    use std::sync::OnceLock;

    /// The tiny pipeline's artifacts, trained once per test binary.
    pub(crate) fn tiny() -> &'static (PipelineConfig, std::path::PathBuf) {
        static ARTIFACTS: OnceLock<(PipelineConfig, std::path::PathBuf)> = OnceLock::new();
        ARTIFACTS.get_or_init(|| {
            let cfg = PipelineConfig::tiny();
            let artifacts = Pipeline::new(cfg.clone()).run();
            let dir = std::env::temp_dir().join("lahd_serve_bundle_test");
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            lahd_core::save_artifacts(&artifacts, &dir).unwrap();
            (cfg, dir)
        })
    }

    #[test]
    fn sound_artifacts_load_and_probe() {
        let (cfg, dir) = tiny();
        let bundle = ServeBundle::load(cfg, dir).expect("tiny artifacts must serve");
        assert!(bundle.obs_dim() > 0);
        assert!(bundle.num_actions() > 1);
        assert_eq!(bundle.baseline.dim(), bundle.obs_dim());
        // Pipeline-extracted machines sit well inside the compiled
        // envelope, so the load must produce the shared compiled tier and
        // executors must pick it up.
        let compiled = bundle.compiled.as_ref().expect("tiny FSM must lower");
        let exec = bundle.fsm_executor();
        assert!(
            exec.compiled()
                .is_some_and(|c| Arc::ptr_eq(c, bundle.compiled.as_ref().unwrap())),
            "executors must share the bundle's compiled machine"
        );
        assert_eq!(compiled.input_dim(), bundle.obs_dim());
    }

    #[test]
    fn bit_flipped_candidate_is_rejected_not_panicked() {
        let (cfg, dir) = tiny();
        let corrupt = std::env::temp_dir().join("lahd_serve_bundle_corrupt");
        let _ = std::fs::remove_dir_all(&corrupt);
        std::fs::create_dir_all(&corrupt).unwrap();
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), corrupt.join(entry.file_name())).unwrap();
        }
        let target = corrupt.join("agent.params");
        let mut bytes = std::fs::read(&target).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x10;
        std::fs::write(&target, bytes).unwrap();
        assert!(
            ServeBundle::load(cfg, &corrupt).is_err(),
            "corrupt bundle must be rejected"
        );
    }

    #[test]
    fn missing_directory_is_an_error() {
        let (cfg, _) = tiny();
        let missing = std::env::temp_dir().join("lahd_serve_bundle_missing");
        let _ = std::fs::remove_dir_all(&missing);
        assert!(ServeBundle::load(cfg, &missing).is_err());
    }
}
