//! Advantage actor-critic training (paper §4.2).
//!
//! "The loss design follows the Advantage Actor-Critic method (A2C). We use
//! Adam with an initial learning rate 0.0003 and clip the norm of gradients
//! to be under 2. The RL learning follows the Epsilon greedy exploration
//! with 0.1 as the probability of random action selection."

use lahd_nn::{clip_global_norm, Adam, Graph, ParamId, Precision};
use lahd_tensor::{seeded_rng, Matrix, Rng};
use rand::Rng as _;

use crate::agent::{InferScratch, RecurrentActorCritic};
use crate::engine::InferEngine;
use crate::env::Env;
use crate::rollout::{advantages, discounted_returns, Episode};

/// Hyper-parameters of the A2C trainer. Defaults follow the paper.
#[derive(Clone, Debug)]
pub struct A2cConfig {
    /// Adam learning rate (paper: 3e-4).
    pub learning_rate: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Weight of the value-regression term.
    pub value_coef: f32,
    /// Weight of the entropy bonus.
    pub entropy_coef: f32,
    /// Global gradient-norm clip (paper: 2).
    pub grad_clip: f32,
    /// ε-greedy exploration probability (paper: 0.1).
    pub epsilon: f32,
    /// Whether to normalise advantages per episode.
    pub normalize_advantages: bool,
    /// Worker-pool size for batched rollouts and sharded episode replay
    /// (and, through [`A2cConfig::pool_size`], the pipeline's QBN
    /// fine-tuning). `0` (the default) sizes the pool to
    /// `std::thread::available_parallelism`; `1` runs everything on the
    /// caller's thread. The pool never exceeds the number of
    /// environments/episodes; work is sharded contiguously across workers. Each environment draws from its own
    /// deterministically-seeded RNG and gradients reduce in fixed episode
    /// order, so results are bit-identical for every pool size (see
    /// `tests/equivalence.rs`).
    pub num_workers: usize,
    /// Precision of the packed [`InferEngine`] the rollout/evaluation paths
    /// run on. The default [`Precision::Exact`] keeps rollouts bit-identical
    /// to the unpacked path; [`Precision::QuantizedFast`] trades that for
    /// per-decision latency (exploration then samples from the quantized
    /// logits, so training trajectories — though still deterministic —
    /// differ from exact-mode runs). BPTT replay always uses the exact f32
    /// parameters either way.
    pub infer_precision: Precision,
}

impl A2cConfig {
    /// Resolved worker-pool size for `jobs` independent work items: the
    /// configured (or auto-detected) pool, clamped to the job count.
    pub fn pool_size(&self, jobs: usize) -> usize {
        if jobs <= 1 {
            return 1;
        }
        let cap = if self.num_workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.num_workers
        };
        cap.clamp(1, jobs)
    }
}

impl Default for A2cConfig {
    fn default() -> Self {
        Self {
            learning_rate: 3e-4,
            gamma: 0.99,
            value_coef: 0.5,
            entropy_coef: 0.01,
            grad_clip: 2.0,
            epsilon: 0.1,
            normalize_advantages: true,
            num_workers: 0,
            infer_precision: Precision::Exact,
        }
    }
}

/// Outcome of one training episode.
#[derive(Clone, Debug)]
pub struct EpisodeReport {
    /// Steps taken.
    pub steps: usize,
    /// Undiscounted reward sum.
    pub total_reward: f32,
    /// Combined loss value.
    pub loss: f32,
    /// Pre-clip global gradient norm.
    pub grad_norm: f32,
}

/// Per-episode replay output: the episode's share of the batch loss plus
/// its exported parameter gradients. Retained across updates so the
/// steady-state replay allocates nothing.
#[derive(Default)]
struct EpisodeGrads {
    loss: f32,
    grads: Vec<(ParamId, Matrix)>,
}

/// A2C trainer owning the model, optimiser, exploration RNG, and the
/// retained per-worker tapes + per-episode gradient buffers its hot loops
/// reuse across updates.
pub struct A2cTrainer {
    /// The model being trained.
    pub agent: RecurrentActorCritic,
    /// Hyper-parameters.
    pub config: A2cConfig,
    optimizer: Adam,
    /// Packed inference engine the rollout/evaluation paths run on;
    /// re-packed after every optimiser step so it always reflects the
    /// current parameters (and asserts as much on every use).
    engine: InferEngine,
    rng: Rng,
    /// One retained tape per replay worker (arena allocation; see
    /// [`Graph::reset`]). `graphs[0]` doubles as the serial-path tape.
    graphs: Vec<Graph>,
    /// Per-episode replay outputs, indexed by episode position in the
    /// batch; reduced in index order after the parallel phase.
    episode_grads: Vec<EpisodeGrads>,
}

/// Rolls out one ε-greedy episode of `agent` on `env` through the packed
/// inference `engine`, drawing exploration from `rng`. Free function so
/// parallel rollout threads can share the agent and engine immutably.
fn rollout_episode(
    agent: &RecurrentActorCritic,
    engine: &InferEngine,
    env: &mut dyn Env,
    epsilon: f32,
    rng: &mut Rng,
) -> Episode {
    let mut episode = Episode::default();
    let mut obs = env.reset();
    let mut hidden = agent.initial_state();
    let mut scratch = InferScratch::default();
    loop {
        engine.infer_into(agent, &obs, &hidden, &mut scratch);
        let action = agent.sample_action(scratch.logits.row(0), epsilon, rng);
        let tr = env.step(action);
        episode.push(obs, action, tr.reward, scratch.values[(0, 0)]);
        std::mem::swap(&mut hidden, &mut scratch.hidden);
        if tr.done {
            break;
        }
        obs = tr.obs;
    }
    episode
}

/// Replays one recorded episode through a private tape — full BPTT over the
/// GRU — leaving the parameter gradients on the tape, and returns the
/// episode's share of the batch loss.
///
/// Free function so replay workers can run it concurrently, one episode per
/// call, each on its own [`Graph`]. The episode's loss is
/// `Σ_t [−A_t·log π(a_t|h_t) + c_v·(V(h_t) − R_t)² − c_e·H(π(·|h_t))] / K`
/// with `K` the *batch-wide* step count (`inv_steps = 1/K`), so summing the
/// per-episode losses reproduces the batch mean-over-steps loss. The caller
/// harvests the gradients either by flushing them straight into the store
/// (serial path) or via `Graph::export_param_grads_into` (worker threads,
/// which must not touch the shared store).
fn replay_episode(
    agent: &RecurrentActorCritic,
    graph: &mut Graph,
    episode: &Episode,
    returns: &[f32],
    advs: &[f32],
    inv_steps: f32,
    config: &A2cConfig,
) -> f32 {
    graph.reset();
    if episode.is_empty() {
        return 0.0;
    }
    let g = graph;
    let mut hidden = g.constant(agent.initial_state());
    let mut loss_acc = None;
    for (t, &ret) in returns.iter().enumerate() {
        let (logits, value, h_next) = agent.tape_step(g, &episode.observations[t], hidden);
        hidden = h_next;

        let policy_term = g.cross_entropy_logits(logits, episode.actions[t], advs[t]);
        let value_term = g.squared_error(value, ret);
        let value_term = g.scale(value_term, config.value_coef);
        let entropy_term = g.entropy_from_logits(logits);
        let entropy_term = g.scale(entropy_term, -config.entropy_coef);

        let step_loss = g.add(policy_term, value_term);
        let step_loss = g.add(step_loss, entropy_term);
        loss_acc = Some(match loss_acc {
            None => step_loss,
            Some(acc) => g.add(acc, step_loss),
        });
    }
    let total = loss_acc.expect("non-empty episode accumulates a loss");
    let loss = g.scale(total, inv_steps);
    let loss_value = g.scalar(loss);
    g.backward(loss);
    loss_value
}

impl A2cTrainer {
    /// Creates a trainer for `agent`.
    pub fn new(agent: RecurrentActorCritic, config: A2cConfig, seed: u64) -> Self {
        let optimizer = Adam::new(config.learning_rate);
        let engine = InferEngine::with_precision(&agent, config.infer_precision);
        Self {
            agent,
            config,
            optimizer,
            engine,
            rng: seeded_rng(seed),
            graphs: vec![Graph::new()],
            episode_grads: Vec::new(),
        }
    }

    /// The packed inference engine backing rollouts and evaluation.
    pub fn engine(&self) -> &InferEngine {
        &self.engine
    }

    /// Re-packs the engine from the current parameters. Only needed after
    /// mutating [`A2cTrainer::agent`]'s store *outside* the trainer (e.g.
    /// loading persisted parameters); the trainer's own updates repack
    /// automatically.
    pub fn repack_engine(&mut self) {
        self.engine.repack(&self.agent);
    }

    /// Consumes the trainer, returning the trained agent.
    pub fn into_agent(self) -> RecurrentActorCritic {
        self.agent
    }

    /// Rolls out one episode with ε-greedy sampling (no learning).
    pub fn collect_episode(&mut self, env: &mut dyn Env) -> Episode {
        rollout_episode(
            &self.agent,
            &self.engine,
            env,
            self.config.epsilon,
            &mut self.rng,
        )
    }

    /// Rolls out one episode per environment on the fixed worker pool
    /// (replacing the earlier thread-per-env scheme, which does not scale
    /// past ~16 environments). Environments are sharded contiguously:
    /// worker `w` owns envs `[w·c, (w+1)·c)` with `c = ⌈E/W⌉`. Each
    /// environment samples exploration from its own RNG seeded
    /// deterministically off the trainer's stream *in environment order*,
    /// so the collected batch is identical for every pool size and
    /// schedule.
    pub fn collect_batch(&mut self, envs: &mut [&mut dyn Env]) -> Vec<Episode> {
        let seeds: Vec<u64> = envs.iter().map(|_| self.rng.gen()).collect();
        let agent = &self.agent;
        let engine = &self.engine;
        let epsilon = self.config.epsilon;
        let workers = self.config.pool_size(envs.len());
        if workers > 1 {
            let chunk = envs.len().div_ceil(workers);
            let mut episodes: Vec<Episode> = Vec::with_capacity(envs.len());
            episodes.resize_with(envs.len(), Episode::default);
            std::thread::scope(|scope| {
                for ((env_shard, seed_shard), out_shard) in envs
                    .chunks_mut(chunk)
                    .zip(seeds.chunks(chunk))
                    .zip(episodes.chunks_mut(chunk))
                {
                    scope.spawn(move || {
                        for ((env, &seed), out) in
                            env_shard.iter_mut().zip(seed_shard).zip(out_shard)
                        {
                            *out = rollout_episode(
                                agent,
                                engine,
                                &mut **env,
                                epsilon,
                                &mut seeded_rng(seed),
                            );
                        }
                    });
                }
            });
            episodes
        } else {
            envs.iter_mut()
                .zip(&seeds)
                .map(|(env, &seed)| {
                    rollout_episode(agent, engine, *env, epsilon, &mut seeded_rng(seed))
                })
                .collect()
        }
    }

    /// Runs one episode and applies one A2C update. Returns the report.
    pub fn train_episode(&mut self, env: &mut dyn Env) -> EpisodeReport {
        let episode = self.collect_episode(env);
        self.update_batch(std::slice::from_ref(&episode))
    }

    /// Collects one episode from every environment (in parallel unless
    /// configured otherwise) and applies a single synchronous update — the
    /// "A2C" in advantage actor-critic: batching across parallel
    /// environments is what tames the per-episode gradient noise.
    pub fn train_batch(&mut self, envs: &mut [&mut dyn Env]) -> EpisodeReport {
        let episodes = self.collect_batch(envs);
        self.update_batch(&episodes)
    }

    /// Applies one A2C update from a batch of recorded episodes, with the
    /// BPTT replay sharded across the worker pool.
    ///
    /// Each trajectory is replayed through its own tape (full
    /// backpropagation through time over the GRU), building its share of
    /// `Σ_e Σ_t [−log π(a_t|h_t)·A_t + c_v·(V(h_t) − R_t)² − c_e·H(π(·|h_t))] / K`
    /// (`K` = total step count); advantages are normalised across the whole
    /// batch when `normalize_advantages` is set. Episodes are independent
    /// until the gradient sum, so workers replay their shard concurrently
    /// and the trainer reduces the exported per-episode gradients **in
    /// fixed episode order** before the single optimiser step — losses,
    /// gradients and parameters are bit-identical for every pool size,
    /// including the serial pool of one (pinned in `tests/equivalence.rs`).
    pub fn update_batch(&mut self, episodes: &[Episode]) -> EpisodeReport {
        assert!(
            episodes.iter().any(|e| !e.is_empty()),
            "cannot update from an empty episode batch"
        );
        // Per-episode returns; batch-wide advantage normalisation.
        let returns_per_ep: Vec<Vec<f32>> = episodes
            .iter()
            .map(|e| discounted_returns(&e.rewards, self.config.gamma))
            .collect();
        let mut flat_returns = Vec::new();
        let mut flat_values = Vec::new();
        for (e, r) in episodes.iter().zip(&returns_per_ep) {
            flat_returns.extend_from_slice(r);
            flat_values.extend_from_slice(&e.values);
        }
        let flat_advs = advantages(
            &flat_returns,
            &flat_values,
            self.config.normalize_advantages,
        );
        let total_steps = flat_returns.len();
        let inv_steps = 1.0 / total_steps as f32;
        // Re-slice the flat advantages per episode for the replay workers.
        let mut advs_per_ep: Vec<&[f32]> = Vec::with_capacity(episodes.len());
        let mut offset = 0;
        for e in episodes {
            advs_per_ep.push(&flat_advs[offset..offset + e.len()]);
            offset += e.len();
        }

        self.agent.store.zero_grads();
        let workers = self.config.pool_size(episodes.len());
        while self.graphs.len() < workers {
            self.graphs.push(Graph::new());
        }

        let mut loss_value = 0.0;
        if workers > 1 {
            while self.episode_grads.len() < episodes.len() {
                self.episode_grads.push(EpisodeGrads::default());
            }
            let agent = &self.agent;
            let config = &self.config;
            let outputs = &mut self.episode_grads[..episodes.len()];
            let chunk = episodes.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for (((ep_shard, ret_shard), adv_shard), (graph, out_shard)) in episodes
                    .chunks(chunk)
                    .zip(returns_per_ep.chunks(chunk))
                    .zip(advs_per_ep.chunks(chunk))
                    .zip(self.graphs.iter_mut().zip(outputs.chunks_mut(chunk)))
                {
                    scope.spawn(move || {
                        for (((episode, returns), advs), out) in
                            ep_shard.iter().zip(ret_shard).zip(adv_shard).zip(out_shard)
                        {
                            out.loss = replay_episode(
                                agent, graph, episode, returns, advs, inv_steps, config,
                            );
                            graph.export_param_grads_into(&agent.store, &mut out.grads);
                        }
                    });
                }
            });
            // Deterministic reduction: fold losses and gradients in episode
            // order, independent of which worker produced them.
            for out in self.episode_grads[..episodes.len()].iter() {
                loss_value += out.loss;
                self.agent.store.add_grads(&out.grads);
            }
            // Bound retained memory to the live batch: without this, one
            // large batch would pin a model-sized gradient set per episode
            // for the trainer's lifetime.
            self.episode_grads.truncate(episodes.len());
        } else {
            // Serial path: flush each episode's gradients straight into the
            // store after its backward pass. This performs the same
            // `add_assign`s in the same episode order as the export/merge
            // reduction above, so the two paths are bit-identical — minus
            // the export copy the worker threads need.
            let graph = &mut self.graphs[0];
            for ((episode, returns), advs) in episodes.iter().zip(&returns_per_ep).zip(&advs_per_ep)
            {
                loss_value += replay_episode(
                    &self.agent,
                    graph,
                    episode,
                    returns,
                    advs,
                    inv_steps,
                    &self.config,
                );
                graph.accumulate_param_grads(&mut self.agent.store);
            }
        }
        let grad_norm = clip_global_norm(&mut self.agent.store, self.config.grad_clip);
        self.optimizer.step(&mut self.agent.store);
        // The optimiser just rewrote the weights: refresh the packed engine
        // so the next rollout/evaluation infers from the new parameters.
        self.engine.repack(&self.agent);

        EpisodeReport {
            steps: total_steps,
            total_reward: episodes.iter().map(Episode::total_reward).sum(),
            loss: loss_value,
            grad_norm,
        }
    }

    /// Greedy (argmax, ε = 0) evaluation rollout through the packed
    /// engine; returns the total reward and step count. Bit-identical to
    /// [`evaluate_greedy`] at [`Precision::Exact`].
    pub fn evaluate(&self, env: &mut dyn Env) -> (f32, usize) {
        greedy_rollout(env, self.agent.initial_state(), |obs, hidden, scratch| {
            self.engine.infer_into(&self.agent, obs, hidden, scratch)
        })
    }
}

/// The greedy (argmax) rollout loop, parameterised over the inference
/// call so the packed-engine and unpacked entry points cannot diverge.
fn greedy_rollout(
    env: &mut dyn Env,
    initial_state: Matrix,
    mut infer: impl FnMut(&[f32], &Matrix, &mut InferScratch),
) -> (f32, usize) {
    let mut obs = env.reset();
    let mut hidden = initial_state;
    let mut scratch = InferScratch::default();
    let mut total = 0.0;
    let mut steps = 0;
    loop {
        infer(&obs, &hidden, &mut scratch);
        let action = lahd_tensor::argmax(scratch.logits.row(0));
        let tr = env.step(action);
        total += tr.reward;
        steps += 1;
        std::mem::swap(&mut hidden, &mut scratch.hidden);
        if tr.done {
            return (total, steps);
        }
        obs = tr.obs;
    }
}

/// Greedy rollout of `agent` on `env` without exploration (unpacked path).
pub fn evaluate_greedy(agent: &RecurrentActorCritic, env: &mut dyn Env) -> (f32, usize) {
    greedy_rollout(env, agent.initial_state(), |obs, hidden, scratch| {
        agent.infer_into(obs, hidden, scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{BanditEnv, MemoryEnv};

    #[test]
    fn a2c_solves_a_bandit() {
        let agent = RecurrentActorCritic::new(1, 8, 3, 7);
        let mut trainer = A2cTrainer::new(
            agent,
            A2cConfig {
                learning_rate: 0.02,
                epsilon: 0.2,
                normalize_advantages: false,
                ..A2cConfig::default()
            },
            1,
        );
        let mut env = BanditEnv {
            rewards: vec![0.0, 1.0, 0.2],
        };
        for _ in 0..300 {
            trainer.train_episode(&mut env);
        }
        let step = trainer.agent.infer(&[1.0], &trainer.agent.initial_state());
        assert_eq!(
            lahd_tensor::argmax(&step.logits),
            1,
            "logits {:?}",
            step.logits
        );
    }

    #[test]
    fn a2c_learns_memory_task_through_gru() {
        let agent = RecurrentActorCritic::new(1, 16, 2, 3);
        let mut trainer = A2cTrainer::new(
            agent,
            A2cConfig {
                learning_rate: 0.01,
                epsilon: 0.15,
                gamma: 0.95,
                normalize_advantages: false,
                ..A2cConfig::default()
            },
            2,
        );
        let mut env = MemoryEnv::new(3);
        for _ in 0..600 {
            trainer.train_episode(&mut env);
        }
        // Greedy evaluation over both cue values (MemoryEnv alternates).
        let (r1, _) = evaluate_greedy(&trainer.agent, &mut env);
        let (r2, _) = evaluate_greedy(&trainer.agent, &mut env);
        assert!(
            r1 + r2 > 1.0,
            "agent failed the recall task: rewards {r1} and {r2}"
        );
    }

    #[test]
    fn update_reports_finite_values() {
        let agent = RecurrentActorCritic::new(1, 4, 2, 11);
        let mut trainer = A2cTrainer::new(agent, A2cConfig::default(), 3);
        let mut env = BanditEnv {
            rewards: vec![0.5, -0.5],
        };
        let report = trainer.train_episode(&mut env);
        assert_eq!(report.steps, 1);
        assert!(report.loss.is_finite());
        assert!(report.grad_norm.is_finite());
        assert!(!trainer.agent.store.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "empty episode batch")]
    fn updating_from_empty_batch_panics() {
        let agent = RecurrentActorCritic::new(1, 4, 2, 11);
        let mut trainer = A2cTrainer::new(agent, A2cConfig::default(), 3);
        trainer.update_batch(&[Episode::default()]);
    }

    #[test]
    fn batched_update_combines_environments() {
        let agent = RecurrentActorCritic::new(1, 8, 2, 21);
        let mut trainer = A2cTrainer::new(
            agent,
            A2cConfig {
                learning_rate: 0.02,
                normalize_advantages: false,
                ..Default::default()
            },
            4,
        );
        let mut a = BanditEnv {
            rewards: vec![0.0, 1.0],
        };
        let mut b = BanditEnv {
            rewards: vec![0.0, 1.0],
        };
        for _ in 0..200 {
            let mut envs: Vec<&mut dyn Env> = vec![&mut a, &mut b];
            let report = trainer.train_batch(&mut envs);
            assert_eq!(report.steps, 2);
        }
        let step = trainer.agent.infer(&[1.0], &trainer.agent.initial_state());
        assert_eq!(lahd_tensor::argmax(&step.logits), 1);
    }
}
