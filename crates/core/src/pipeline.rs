//! The integrated LAHD pipeline (paper Figure 2): train an RNN-based DRL
//! agent → collect its transition dataset → fit quantized bottleneck
//! networks → extract and minimise a finite state machine → wrap it as a
//! deployable white-box policy.

use lahd_fsm::{extract_fsm, merge_compatible, minimize, Fsm, FsmExecutor, FsmPolicy, Metric};
use lahd_nn::Graph;
use lahd_qbn::{Qbn, QbnConfig, QbnTrainConfig, TransitionDataset, TransitionRow};
use lahd_rl::{train_curriculum, A2cConfig, A2cTrainer, EpochLog, Phase, RecurrentActorCritic};
use lahd_sim::{Action, SimConfig};
use lahd_tensor::{seeded_rng, Matrix};
use lahd_workload::{real_trace_set, standard_trace_set, WorkloadTrace};

use crate::env::RewardMode;
use crate::eval::GruPolicy;
use crate::scenario::{Scenario, ScenarioId};

/// Everything the pipeline needs to run end-to-end.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Which decision problem to run the methodology on (see
    /// [`ScenarioId`]); the default everywhere is the paper's
    /// [`ScenarioId::DoradoMigration`].
    pub scenario: ScenarioId,
    /// Simulator parameters (shared by training and evaluation).
    pub sim: SimConfig,
    /// GRU width (paper: 128).
    pub hidden_dim: usize,
    /// A2C hyper-parameters (paper defaults in [`A2cConfig::default`]).
    pub a2c: A2cConfig,
    /// Reward definition.
    pub reward: RewardMode,
    /// Intervals per trace.
    pub trace_len: usize,
    /// Number of spliced "real" traces (paper: 50).
    pub num_real_traces: usize,
    /// Curriculum phase 1: epochs on the 12 standard traces (paper: 1000).
    pub std_epochs: usize,
    /// Curriculum phase 2: epochs on the real traces (paper: 1000).
    pub real_epochs: usize,
    /// Greedy episodes rolled out to build the QBN dataset.
    pub dataset_episodes: usize,
    /// Exploration ε during dataset collection (broadens state coverage).
    pub dataset_epsilon: f32,
    /// Latent width of the observation QBN.
    pub obs_latent: usize,
    /// Latent width of the hidden-state QBN (paper: L = 64).
    pub hidden_latent: usize,
    /// QBN supervised-training parameters.
    pub qbn_train: QbnTrainConfig,
    /// Epochs of quantized-architecture fine-tuning (imitation of the
    /// continuous teacher; 0 disables the retraining step).
    pub finetune_epochs: usize,
    /// Adam learning rate for the fine-tuning pass.
    pub finetune_lr: f32,
    /// Nearest-neighbour metric for unseen observations.
    pub metric: Metric,
    /// Whether the extracted policy uses nearest-neighbour fallback.
    pub nn_matching: bool,
    /// Whether to minimise the raw machine.
    pub minimize: bool,
    /// Precision of the packed inference engines on the decision paths:
    /// training rollouts (`A2cTrainer`'s engine) and the deployed QBN
    /// encode/decode packs in the produced artifacts. The default
    /// [`Precision::Exact`](lahd_nn::Precision::Exact) keeps every path
    /// bit-identical to the unpacked arithmetic;
    /// [`Precision::QuantizedFast`](lahd_nn::Precision::QuantizedFast) runs
    /// the i8 fast tier under its measured accuracy contract (CLI:
    /// `--infer-precision`).
    pub infer_precision: lahd_nn::Precision,
    /// Master seed.
    pub seed: u64,
}

impl PipelineConfig {
    /// Full paper scale: GRU-128, 1000 + 1000 epochs, 50 real traces,
    /// hidden-QBN L = 64. Hours of CPU time — used by `--paper` runs.
    pub fn paper() -> Self {
        let trace_len = 192;
        Self {
            scenario: ScenarioId::DoradoMigration,
            sim: SimConfig {
                max_intervals: trace_len * 8,
                ..SimConfig::default()
            },
            hidden_dim: 128,
            a2c: A2cConfig::default(),
            reward: RewardMode::paper(),
            trace_len,
            num_real_traces: 50,
            std_epochs: 1000,
            real_epochs: 1000,
            dataset_episodes: 200,
            dataset_epsilon: 0.05,
            obs_latent: 12,
            hidden_latent: 64,
            qbn_train: QbnTrainConfig {
                epochs: 60,
                ..QbnTrainConfig::default()
            },
            finetune_epochs: 100,
            finetune_lr: 1e-3,
            metric: Metric::Euclidean,
            nn_matching: true,
            minimize: true,
            infer_precision: lahd_nn::Precision::Exact,
            seed: 2021,
        }
    }

    /// Laptop scale: minutes of CPU. The default for examples and benches.
    pub fn demo() -> Self {
        let trace_len = 96;
        Self {
            scenario: ScenarioId::DoradoMigration,
            sim: SimConfig {
                max_intervals: trace_len * 8,
                ..SimConfig::default()
            },
            hidden_dim: 48,
            // The batched synchronous updates at demo scale tolerate (and
            // need) a larger learning rate than the paper's 3e-4, which is
            // tuned for 2000-epoch runs.
            a2c: A2cConfig {
                learning_rate: 2e-3,
                ..A2cConfig::default()
            },
            reward: RewardMode::shaped(),
            trace_len,
            num_real_traces: 10,
            std_epochs: 400,
            real_epochs: 400,
            dataset_episodes: 160,
            dataset_epsilon: 0.05,
            obs_latent: 8,
            hidden_latent: 16,
            qbn_train: QbnTrainConfig {
                epochs: 30,
                ..QbnTrainConfig::default()
            },
            finetune_epochs: 150,
            finetune_lr: 1e-3,
            metric: Metric::Euclidean,
            nn_matching: true,
            minimize: true,
            infer_precision: lahd_nn::Precision::Exact,
            seed: 2021,
        }
    }

    /// Test scale: seconds of CPU.
    pub fn tiny() -> Self {
        let trace_len = 32;
        Self {
            scenario: ScenarioId::DoradoMigration,
            sim: SimConfig {
                max_intervals: trace_len * 8,
                idle_lambda: 0.0,
                ..SimConfig::default()
            },
            hidden_dim: 12,
            a2c: A2cConfig::default(),
            reward: RewardMode::shaped(),
            trace_len,
            num_real_traces: 3,
            std_epochs: 4,
            real_epochs: 4,
            dataset_episodes: 3,
            dataset_epsilon: 0.05,
            obs_latent: 6,
            hidden_latent: 10,
            qbn_train: QbnTrainConfig {
                epochs: 10,
                batch_size: 16,
                ..QbnTrainConfig::default()
            },
            finetune_epochs: 3,
            finetune_lr: 1e-3,
            metric: Metric::Euclidean,
            nn_matching: true,
            minimize: true,
            infer_precision: lahd_nn::Precision::Exact,
            // Chosen so the tiny-scale lottery (a 4+4-epoch agent is barely
            // trained) yields an FSM that survives the fidelity suite under
            // the workspace RNG; see tests/fsm_fidelity.rs.
            seed: 19,
        }
    }
}

/// Everything the pipeline produced.
pub struct PipelineArtifacts {
    /// The scenario the artifacts were trained for.
    pub scenario: ScenarioId,
    /// The trained GRU actor-critic.
    pub agent: RecurrentActorCritic,
    /// Epoch-by-epoch training log (Figure 3's series).
    pub convergence: Vec<EpochLog>,
    /// Observation quantizer.
    pub obs_qbn: Qbn,
    /// Hidden-state quantizer.
    pub hidden_qbn: Qbn,
    /// The extracted (and optionally minimised) machine.
    pub fsm: Fsm,
    /// State count before minimisation.
    pub raw_states: usize,
    /// Transition-dataset size the QBNs were fitted on.
    pub dataset_len: usize,
    /// Training-time observation profile (per-dimension streaming stats
    /// over the quantized dataset's observations) — the reference the guard
    /// layer's drift detector scores live traffic against. `None` for
    /// artifacts written before the guard layer existed.
    pub baseline: Option<lahd_guard::BaselineProfile>,
    /// The 12 standard traces used for phase 1.
    pub std_traces: Vec<WorkloadTrace>,
    /// The spliced real traces used for phase 2.
    pub real_traces: Vec<WorkloadTrace>,
}

impl PipelineArtifacts {
    /// A fresh greedy GRU policy over the trained agent.
    pub fn gru_policy(&self, sim_cfg: SimConfig) -> GruPolicy {
        GruPolicy::new(self.agent.clone(), sim_cfg)
    }

    /// A fresh extracted-FSM policy (Dorado-typed evaluation interface).
    pub fn fsm_policy(&self, sim_cfg: SimConfig, metric: Metric, nn_matching: bool) -> FsmPolicy {
        FsmPolicy::new(
            self.fsm.clone(),
            self.obs_qbn.clone(),
            sim_cfg,
            metric,
            nn_matching,
        )
    }

    /// A fresh scenario-generic FSM executor over observation vectors.
    pub fn fsm_executor(&self, metric: Metric, nn_matching: bool) -> FsmExecutor {
        FsmExecutor::new(self.fsm.clone(), self.obs_qbn.clone(), metric, nn_matching)
    }
}

/// Orchestrates the full learning-aided heuristics design flow.
pub struct Pipeline {
    /// Active configuration.
    pub config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline.
    pub fn new(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// The scenario this pipeline instantiates the methodology for.
    pub fn scenario(&self) -> &'static dyn Scenario {
        self.config.scenario.get()
    }

    /// Synthesises the standard and real trace sets.
    pub fn make_traces(&self) -> (Vec<WorkloadTrace>, Vec<WorkloadTrace>) {
        let c = &self.config;
        (
            standard_trace_set(c.trace_len, c.seed),
            real_trace_set(c.num_real_traces, c.trace_len, c.seed),
        )
    }

    /// Curriculum training (paper §3.2.2): `std_epochs` on the standard
    /// traces, then `real_epochs` on the real traces.
    pub fn train_with_curriculum(
        &self,
        std_traces: &[WorkloadTrace],
        real_traces: &[WorkloadTrace],
    ) -> (RecurrentActorCritic, Vec<EpochLog>) {
        let c = &self.config;
        let mut trainer = self.make_trainer();
        let mut std_envs = self.make_envs(std_traces);
        let mut real_envs = self.make_envs(real_traces);
        let log = train_curriculum(
            &mut trainer,
            vec![
                Phase {
                    name: "standard",
                    envs: std_envs
                        .iter_mut()
                        .map(|e| e.as_mut() as &mut dyn lahd_rl::Env)
                        .collect(),
                    epochs: c.std_epochs,
                },
                Phase {
                    name: "real",
                    envs: real_envs
                        .iter_mut()
                        .map(|e| e.as_mut() as &mut dyn lahd_rl::Env)
                        .collect(),
                    epochs: c.real_epochs,
                },
            ],
        );
        (trainer.into_agent(), log)
    }

    /// From-scratch training on the real traces only (Figure 3's blue
    /// curve): same total epoch budget unless overridden.
    pub fn train_from_scratch(
        &self,
        real_traces: &[WorkloadTrace],
        epochs: usize,
    ) -> (RecurrentActorCritic, Vec<EpochLog>) {
        let mut trainer = self.make_trainer();
        let mut envs = self.make_envs(real_traces);
        let log = train_curriculum(
            &mut trainer,
            vec![Phase {
                name: "from-scratch",
                envs: envs
                    .iter_mut()
                    .map(|e| e.as_mut() as &mut dyn lahd_rl::Env)
                    .collect(),
                epochs,
            }],
        );
        (trainer.into_agent(), log)
    }

    /// Rolls out the trained agent and records `⟨h_t, h_{t+1}, o_t, a_t⟩`
    /// (paper §3.2.1). Episodes cycle through `traces`. This *raw* dataset
    /// is the supervised training set for the QBNs.
    pub fn collect_dataset(
        &self,
        agent: &RecurrentActorCritic,
        traces: &[WorkloadTrace],
    ) -> TransitionDataset {
        assert!(
            !traces.is_empty(),
            "dataset collection needs at least one trace"
        );
        let c = &self.config;
        let scenario = self.scenario();
        let mut rng = seeded_rng(c.seed.wrapping_add(0xDA7A));
        let mut dataset = TransitionDataset::new();
        for episode in 0..c.dataset_episodes {
            let trace = &traces[episode % traces.len()];
            let mut sim =
                scenario.make_rollout(&c.sim, trace.clone(), c.seed.wrapping_add(episode as u64));
            let mut hidden = agent.initial_state();
            let mut step_idx = 0usize;
            while !sim.is_done() {
                let obs = sim.observe();
                let infer = agent.infer(&obs, &hidden);
                let action = agent.sample_action(&infer.logits, c.dataset_epsilon, &mut rng);
                sim.step(action);
                dataset.push(TransitionRow {
                    obs,
                    hidden: hidden.row(0).to_vec(),
                    next_hidden: infer.hidden.row(0).to_vec(),
                    action,
                    episode,
                    step: step_idx,
                });
                hidden = infer.hidden;
                step_idx += 1;
            }
        }
        dataset
    }

    /// Rolls the agent out **with the QBNs inserted into the loop** (the
    /// "insert quantization auto-encoders" step of the paper's Figure 2):
    /// before every GRU step the hidden state passes through the hidden QBN
    /// (`h ← D_h(E_h(h))`) and the observation through the observation QBN.
    /// The quantized system's next hidden code is then a *deterministic
    /// function* of `(b_h, b_o)`, so the transition table extracted from
    /// this dataset is exactly the reachable part of the quantized network —
    /// the FSM executes the same dynamics it was extracted from instead of
    /// approximating the continuous ones.
    pub fn collect_quantized_dataset(
        &self,
        agent: &RecurrentActorCritic,
        obs_qbn: &Qbn,
        hidden_qbn: &Qbn,
        traces: &[WorkloadTrace],
    ) -> TransitionDataset {
        assert!(
            !traces.is_empty(),
            "dataset collection needs at least one trace"
        );
        let c = &self.config;
        let scenario = self.scenario();
        let num_actions = scenario.num_actions();
        let mut rng = seeded_rng(c.seed.wrapping_add(0xF5A));
        let mut dataset = TransitionDataset::new();
        for episode in 0..c.dataset_episodes {
            let trace = &traces[episode % traces.len()];
            let mut sim =
                scenario.make_rollout(&c.sim, trace.clone(), c.seed.wrapping_add(episode as u64));
            // Raw hidden carried across steps; every use goes through the
            // QBN, so the raw value's *code* is the true loop state and
            // `encode(recorded hidden)` reproduces it exactly.
            let mut hidden_raw = agent.initial_state();
            let mut step_idx = 0usize;
            while !sim.is_done() {
                let obs = sim.observe();
                let obs_recon = obs_qbn.decode(&obs_qbn.encode(&obs));
                let hidden_recon =
                    Matrix::row_vector(&hidden_qbn.decode(&hidden_qbn.encode(hidden_raw.row(0))));
                let infer = agent.infer(&obs_recon, &hidden_recon);
                // The action is read from the *reconstruction* of the
                // successor code, making it a pure function of that code —
                // exactly what "each state corresponds to one unique
                // action" (§3.3) requires.
                let next_recon =
                    Matrix::row_vector(&hidden_qbn.decode(&hidden_qbn.encode(infer.hidden.row(0))));
                let action = agent.greedy_action_for_hidden(&next_recon);
                // Exploration drives the *simulator* into more diverse
                // states (densifying the transition table), but the recorded
                // action and hidden transition are always the quantized
                // network's own — the recurrent state depends only on the
                // observation stream, so every recorded triple stays exact.
                let applied = if c.dataset_epsilon > 0.0
                    && rand::Rng::gen::<f32>(&mut rng) < c.dataset_epsilon
                {
                    rand::Rng::gen_range(&mut rng, 0..num_actions)
                } else {
                    action
                };
                sim.step(applied);
                dataset.push(TransitionRow {
                    obs,
                    hidden: hidden_raw.row(0).to_vec(),
                    next_hidden: infer.hidden.row(0).to_vec(),
                    action,
                    episode,
                    step: step_idx,
                });
                hidden_raw = infer.hidden;
                step_idx += 1;
            }
        }
        dataset
    }

    /// Fine-tunes the QBNs inside the quantized architecture ("insert two
    /// quantization auto-encoders and retrain", paper Figure 2 step 2).
    ///
    /// Pure reconstruction training leaves enough error in `D_h(E_h(h))` to
    /// change actions, and the error compounds through the recurrent loop.
    /// This pass repairs behaviour by imitation: the quantized student runs
    /// in the simulator (so it visits its *own* drifted states,
    /// DAgger-style) while the continuous agent — the teacher — consumes
    /// the same observation stream. The QBN parameters minimise, via BPTT
    /// with straight-through gradients across the quantizers,
    ///
    /// * cross-entropy between the quantized system's logits and the
    ///   teacher's greedy actions (flowing *through* the frozen GRU/heads),
    /// * plus reconstruction anchors that stop the codes from collapsing
    ///   onto a single majority-action region.
    ///
    /// The policy network itself stays frozen: it is both the teacher and
    /// the "original DRL model" column of Figure 4, so mutating it would
    /// invalidate the comparison.
    ///
    /// Returns the per-epoch combined losses.
    pub fn fine_tune_quantized(
        &self,
        agent: &RecurrentActorCritic,
        obs_qbn: &mut Qbn,
        hidden_qbn: &mut Qbn,
        traces: &[WorkloadTrace],
    ) -> Vec<f32> {
        const ANCHOR_WEIGHT: f32 = 1.0;
        let c = &self.config;
        let scenario = self.scenario();
        let mut adam_obs = lahd_nn::Adam::new(c.finetune_lr);
        let mut adam_hid = lahd_nn::Adam::new(c.finetune_lr);
        let mut losses = Vec::with_capacity(c.finetune_epochs);

        for epoch in 0..c.finetune_epochs {
            // 1. On-policy collection: student acts, teacher labels.
            let mut episodes: Vec<(Vec<Vec<f32>>, Vec<usize>)> = Vec::new();
            for (i, trace) in traces.iter().enumerate() {
                let seed = c.seed.wrapping_add((epoch * traces.len() + i) as u64);
                let mut sim = scenario.make_rollout(&c.sim, trace.clone(), seed);
                let mut h_student = agent.initial_state();
                let mut h_teacher = agent.initial_state();
                let mut obs_seq = Vec::new();
                let mut labels = Vec::new();
                while !sim.is_done() {
                    let obs = sim.observe();
                    let t_infer = agent.infer(&obs, &h_teacher);
                    labels.push(lahd_tensor::argmax(&t_infer.logits));

                    let obs_recon = obs_qbn.decode(&obs_qbn.encode(&obs));
                    let h_recon = Matrix::row_vector(
                        &hidden_qbn.decode(&hidden_qbn.encode(h_student.row(0))),
                    );
                    let s_infer = agent.infer(&obs_recon, &h_recon);
                    let s_next_recon = Matrix::row_vector(
                        &hidden_qbn.decode(&hidden_qbn.encode(s_infer.hidden.row(0))),
                    );
                    let action = agent.greedy_action_for_hidden(&s_next_recon);
                    sim.step(action);

                    obs_seq.push(obs);
                    h_teacher = t_infer.hidden;
                    h_student = s_infer.hidden;
                }
                episodes.push((obs_seq, labels));
            }

            // 2. One joint BPTT update of the two QBN stores.
            obs_qbn.store.zero_grads();
            hidden_qbn.store.zero_grads();
            let mut g = Graph::new();
            let mut loss_acc: Option<lahd_nn::Var> = None;
            let mut steps = 0usize;
            for (obs_seq, labels) in &episodes {
                let mut h = g.constant(agent.initial_state());
                for (obs, &label) in obs_seq.iter().zip(labels) {
                    let x_const = Matrix::row_vector(obs);
                    let x = g.constant(x_const.clone());
                    let (_, x_recon) = obs_qbn.forward_tape(&mut g, x);
                    let (_, h_recon) = hidden_qbn.forward_tape(&mut g, h);
                    let h_anchor_target = g.value(h).clone();
                    let h_next = agent.gru().step(&mut g, &agent.store, x_recon, h_recon);
                    let (_, h_next_recon) = hidden_qbn.forward_tape(&mut g, h_next);
                    let logits = agent
                        .policy_head()
                        .forward(&mut g, &agent.store, h_next_recon);

                    let ce = g.cross_entropy_logits(logits, label, 1.0);
                    let obs_anchor = g.mse_against(x_recon, x_const);
                    let h_anchor = g.mse_against(h_recon, h_anchor_target);
                    let anchors = g.add(obs_anchor, h_anchor);
                    let anchors = g.scale(anchors, ANCHOR_WEIGHT);
                    let step_loss = g.add(ce, anchors);
                    loss_acc = Some(match loss_acc {
                        None => step_loss,
                        Some(acc) => g.add(acc, step_loss),
                    });
                    h = h_next;
                    steps += 1;
                }
            }
            let total = loss_acc.expect("traces are non-empty");
            let loss = g.scale(total, 1.0 / steps.max(1) as f32);
            let loss_value = g.scalar(loss);
            g.backward(loss);
            g.accumulate_param_grads(&mut obs_qbn.store);
            g.accumulate_param_grads(&mut hidden_qbn.store);
            lahd_nn::clip_global_norm_multi(&mut [&mut obs_qbn.store, &mut hidden_qbn.store], 5.0);
            adam_obs.step(&mut obs_qbn.store);
            adam_hid.step(&mut hidden_qbn.store);
            // Next epoch's rollouts encode/decode through the packed QBN
            // inference weights, which the Adam steps just invalidated.
            obs_qbn.repack();
            hidden_qbn.repack();
            losses.push(loss_value);
        }
        losses
    }

    /// Fits the observation and hidden-state QBNs on the dataset.
    pub fn fit_qbns(&self, dataset: &TransitionDataset) -> (Qbn, Qbn) {
        let c = &self.config;
        let mut obs_qbn = Qbn::new(
            QbnConfig::with_dims(dataset.obs_dim(), c.obs_latent),
            c.seed ^ 0x0B5,
        );
        let mut hid_qbn = Qbn::new(
            QbnConfig::with_dims(dataset.hidden_dim(), c.hidden_latent),
            c.seed ^ 0x41D,
        );
        obs_qbn.train(&dataset.observations(), &c.qbn_train);
        hid_qbn.train(&dataset.hidden_states(), &c.qbn_train);
        (obs_qbn, hid_qbn)
    }

    /// Extracts (and optionally minimises) the FSM; returns the machine and
    /// the pre-minimisation state count.
    pub fn extract(
        &self,
        dataset: &TransitionDataset,
        obs_qbn: &Qbn,
        hidden_qbn: &Qbn,
    ) -> (Fsm, usize) {
        let initial = vec![0.0f32; dataset.hidden_dim()];
        let raw = extract_fsm(dataset, obs_qbn, hidden_qbn, &initial);
        let raw_states = raw.num_states();
        let fsm = if self.config.minimize {
            merge_compatible(&minimize(&raw))
        } else {
            raw
        };
        (fsm, raw_states)
    }

    /// Runs the complete pipeline end-to-end: curriculum training, raw
    /// dataset collection, QBN fitting, a second QBN-in-the-loop pass, and
    /// FSM extraction/minimisation.
    pub fn run(&self) -> PipelineArtifacts {
        let (std_traces, real_traces) = self.make_traces();
        let (agent, convergence) = self.train_with_curriculum(&std_traces, &real_traces);
        let raw_dataset = self.collect_dataset(&agent, &real_traces);
        let (mut obs_qbn, mut hidden_qbn) = self.fit_qbns(&raw_dataset);
        self.fine_tune_quantized(&agent, &mut obs_qbn, &mut hidden_qbn, &real_traces);
        let quantized = self.collect_quantized_dataset(&agent, &obs_qbn, &hidden_qbn, &real_traces);
        let (fsm, raw_states) = self.extract(&quantized, &obs_qbn, &hidden_qbn);
        if self.config.infer_precision != lahd_nn::Precision::Exact {
            // Extraction ran on the exact codes above; the *deployed*
            // encode path (FsmExecutor's per-decision QBN encode) rides the
            // requested fast tier. `set_precision` is a no-op for Exact, so
            // the default pipeline's artifacts are untouched.
            obs_qbn.set_precision(self.config.infer_precision);
            hidden_qbn.set_precision(self.config.infer_precision);
        }
        // Stamp the training-time observation distribution for the guard
        // layer: exactly the observations the deployed FSM was extracted
        // over, so runtime drift is measured against the machine's actual
        // training support.
        let mut profile = lahd_guard::StreamingProfile::new(quantized.obs_dim());
        for row in quantized.rows() {
            profile.push(&row.obs);
        }
        PipelineArtifacts {
            scenario: self.config.scenario,
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
        }
    }

    // ----- internals --------------------------------------------------

    fn make_trainer(&self) -> A2cTrainer {
        let c = &self.config;
        let scenario = self.scenario();
        let agent = RecurrentActorCritic::new(
            scenario.obs_dim(),
            c.hidden_dim,
            scenario.num_actions(),
            c.seed,
        );
        // The pipeline-level precision setting wins over whatever the A2C
        // sub-config carries, so `--infer-precision` reaches the trainer's
        // rollout engine.
        let mut a2c = c.a2c.clone();
        a2c.infer_precision = c.infer_precision;
        A2cTrainer::new(agent, a2c, c.seed.wrapping_add(1))
    }

    fn make_envs(&self, traces: &[WorkloadTrace]) -> Vec<Box<dyn lahd_rl::Env>> {
        let c = &self.config;
        let scenario = self.scenario();
        traces
            .iter()
            .enumerate()
            .map(|(i, t)| {
                scenario.make_env(
                    &c.sim,
                    t.clone(),
                    c.reward,
                    c.seed.wrapping_add(100 + i as u64),
                )
            })
            .collect()
    }
}

/// Action display names in index order (`Noop`, `N=>K`, …), for reports and
/// DOT export.
pub fn action_names() -> Vec<String> {
    Action::ALL.iter().map(|a| a.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahd_fsm::Policy as _;
    use lahd_sim::{Observation, StorageSim};

    #[test]
    fn tiny_pipeline_runs_end_to_end() {
        let pipeline = Pipeline::new(PipelineConfig::tiny());
        let artifacts = pipeline.run();
        assert!(artifacts.fsm.validate().is_ok());
        assert!(artifacts.fsm.num_states() >= 1);
        assert!(artifacts.raw_states >= artifacts.fsm.num_states());
        assert!(artifacts.dataset_len > 0);
        assert_eq!(artifacts.std_traces.len(), 12);
        assert_eq!(artifacts.real_traces.len(), 3);
        assert_eq!(
            artifacts.convergence.len(),
            pipeline.config.std_epochs + pipeline.config.real_epochs
        );

        // The extracted policy must run on a real trace without panicking.
        let cfg = pipeline.config.sim.clone();
        let mut policy = artifacts.fsm_policy(cfg.clone(), Metric::Euclidean, true);
        policy.reset();
        let mut sim = StorageSim::new(cfg, artifacts.real_traces[0].clone(), 0);
        let metrics = sim.run_with(|obs| policy.act(obs));
        assert!(!metrics.truncated);
    }

    #[test]
    fn dataset_rows_have_simulator_dimensions() {
        let pipeline = Pipeline::new(PipelineConfig::tiny());
        let (_, real) = pipeline.make_traces();
        let agent = RecurrentActorCritic::new(Observation::DIM, 12, Action::COUNT, 0);
        let ds = pipeline.collect_dataset(&agent, &real[..1]);
        assert_eq!(ds.obs_dim(), Observation::DIM);
        assert_eq!(ds.hidden_dim(), 12);
        assert!(ds.len() >= pipeline.config.trace_len);
    }

    #[test]
    fn readahead_dataset_rows_have_scenario_dimensions() {
        let mut config = PipelineConfig::tiny();
        config.scenario = ScenarioId::Readahead;
        let pipeline = Pipeline::new(config);
        let (_, real) = pipeline.make_traces();
        let sc = pipeline.scenario();
        let agent = RecurrentActorCritic::new(sc.obs_dim(), 12, sc.num_actions(), 0);
        let ds = pipeline.collect_dataset(&agent, &real[..1]);
        assert_eq!(ds.obs_dim(), sc.obs_dim());
        assert_eq!(ds.hidden_dim(), 12);
        assert!(ds.rows().iter().all(|r| r.action < sc.num_actions()));
    }

    #[test]
    fn action_names_match_paper_notation() {
        let names = action_names();
        assert_eq!(names.len(), 7);
        assert_eq!(names[0], "Noop");
        assert!(names.contains(&"N=>R".to_string()));
    }
}
