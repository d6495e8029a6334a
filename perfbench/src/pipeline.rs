//! The offline pipeline at paper widths on a short training budget: the
//! artifacts every serve workload serves, and the `pipeline` workload's
//! own subject.

use std::time::Instant;

use lahd_core::{Pipeline, PipelineArtifacts, PipelineConfig};
use lahd_rl::{A2cTrainer, Env, RecurrentActorCritic};

/// `PipelineConfig::paper()` widths (GRU-128, latents 12/64, 192-interval
/// traces) with a budget short enough to run on every invocation.
pub fn short_budget() -> PipelineConfig {
    let mut cfg = PipelineConfig::paper();
    cfg.std_epochs = 4;
    cfg.real_epochs = 4;
    cfg.num_real_traces = 6;
    cfg.dataset_episodes = 8;
    cfg.qbn_train.epochs = 5;
    cfg.finetune_epochs = 2;
    cfg.seed = 2021;
    cfg
}

/// Per-layer metric of each `Pipeline::run` stage's wall clock, in run
/// order.
pub const STAGES: [&str; 7] = [
    "pipeline.traces_s",
    "pipeline.train_s",
    "pipeline.collect_s",
    "pipeline.qbn_fit_s",
    "pipeline.finetune_s",
    "pipeline.qcollect_s",
    "pipeline.extract_s",
];

pub struct Built {
    pub artifacts: PipelineArtifacts,
    /// Wall clock of the whole stage sequence.
    pub total_s: f64,
    /// Per-stage wall clock (traced runs only), [`STAGES`] order.
    pub stages: Option<[f64; 7]>,
}

/// Runs `Pipeline::run` as one timed call.
pub fn run_timed(cfg: &PipelineConfig) -> Built {
    let t = Instant::now();
    let artifacts = Pipeline::new(cfg.clone()).run();
    Built {
        artifacts,
        total_s: t.elapsed().as_secs_f64(),
        stages: None,
    }
}

/// Runs the stage methods one by one in `Pipeline::run` order, timing
/// each. The artifacts are the same as [`run_timed`]'s; the caller checks
/// that through the artifact digest.
pub fn run_staged(cfg: &PipelineConfig) -> Built {
    let p = Pipeline::new(cfg.clone());
    let mut stages = [0.0f64; 7];
    let start = Instant::now();
    let mut lap = Instant::now();
    let mut split = |i: usize| {
        stages[i] = lap.elapsed().as_secs_f64();
        lap = Instant::now();
    };
    let (std_traces, real_traces) = p.make_traces();
    split(0);
    let (agent, convergence) = p.train_with_curriculum(&std_traces, &real_traces);
    split(1);
    let raw = p.collect_dataset(&agent, &real_traces);
    split(2);
    let (mut obs_qbn, mut hidden_qbn) = p.fit_qbns(&raw);
    split(3);
    p.fine_tune_quantized(&agent, &mut obs_qbn, &mut hidden_qbn, &real_traces);
    split(4);
    let quantized = p.collect_quantized_dataset(&agent, &obs_qbn, &hidden_qbn, &real_traces);
    split(5);
    let (fsm, raw_states) = p.extract(&quantized, &obs_qbn, &hidden_qbn);
    let mut profile = lahd_guard::StreamingProfile::new(quantized.obs_dim());
    for row in quantized.rows() {
        profile.push(&row.obs);
    }
    split(6);
    let total_s = start.elapsed().as_secs_f64();
    Built {
        artifacts: PipelineArtifacts {
            scenario: cfg.scenario,
            agent,
            convergence,
            obs_qbn,
            hidden_qbn,
            fsm,
            raw_states,
            dataset_len: quantized.len(),
            baseline: Some(profile.profile()),
            std_traces,
            real_traces,
        },
        total_s,
        stages: Some(stages),
    }
}

/// The observations of the quantized dataset the machine was extracted
/// from, re-collected from `artifacts`.
pub fn dataset_observations(cfg: &PipelineConfig, artifacts: &PipelineArtifacts) -> Vec<Vec<f32>> {
    Pipeline::new(cfg.clone())
        .collect_quantized_dataset(
            &artifacts.agent,
            &artifacts.obs_qbn,
            &artifacts.hidden_qbn,
            &artifacts.real_traces,
        )
        .observations()
}

/// The pipeline's set-up, timed: trace synthesis plus the trainer and
/// environment construction `train_with_curriculum` does before its first
/// epoch (mirroring the pipeline's private `make_trainer`/`make_envs`).
pub fn setup_s(cfg: &PipelineConfig) -> f64 {
    let t = Instant::now();
    let p = Pipeline::new(cfg.clone());
    let (std_traces, real_traces) = p.make_traces();
    let scenario = p.scenario();
    let agent = RecurrentActorCritic::new(
        scenario.obs_dim(),
        cfg.hidden_dim,
        scenario.num_actions(),
        cfg.seed,
    );
    let mut a2c = cfg.a2c.clone();
    a2c.infer_precision = cfg.infer_precision;
    let trainer = A2cTrainer::new(agent, a2c, cfg.seed.wrapping_add(1));
    let make_envs = |traces: &[lahd_workload::WorkloadTrace]| -> Vec<Box<dyn Env>> {
        traces
            .iter()
            .enumerate()
            .map(|(i, tr)| {
                scenario.make_env(
                    &cfg.sim,
                    tr.clone(),
                    cfg.reward,
                    cfg.seed.wrapping_add(100 + i as u64),
                )
            })
            .collect()
    };
    let envs = (make_envs(&std_traces), make_envs(&real_traces));
    let elapsed = t.elapsed().as_secs_f64();
    std::hint::black_box((trainer, envs));
    elapsed
}
