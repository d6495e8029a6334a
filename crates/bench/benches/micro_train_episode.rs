//! Criterion micro-benchmark: end-to-end A2C episode training throughput,
//! and one epoch of the pipeline's QBN fine-tuning.
//!
//! One `train_episode` call is a full rollout (GRU inference per step)
//! plus one BPTT update through the episode's tape — the unit of work the
//! whole training pipeline repeats tens of thousands of times. The
//! environment here is a fixed-horizon synthetic MDP at paper-scale
//! dimensions (35-wide observations, 7 actions, GRU-128), so the harness
//! times the *learner*, not the storage simulator.
//!
//! The `finetune/*` rows time one `fine_tune_quantized` epoch of the
//! short-budget paper-width pipeline (GRU-128, QBN latents 12/64, its six
//! real traces): the student/teacher rollouts, each episode's BPTT and the
//! fold of the QBN gradients, starting every iteration from the cached
//! pipeline's QBNs. `_pool1` pins the worker pool to one thread; the other
//! row uses the automatic pool.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lahd_core::Pipeline;
use lahd_rl::{A2cConfig, A2cTrainer, Env, RecurrentActorCritic, Transition};
use lahd_sim::Observation;

const HORIZON: usize = 32;

/// Deterministic fixed-horizon environment at paper-scale dimensions.
struct SyntheticEnv {
    t: usize,
}

impl SyntheticEnv {
    fn obs(&self) -> Vec<f32> {
        (0..Observation::DIM)
            .map(|j| ((self.t * 7 + j * 3) % 11) as f32 / 11.0)
            .collect()
    }
}

impl Env for SyntheticEnv {
    fn obs_dim(&self) -> usize {
        Observation::DIM
    }

    fn num_actions(&self) -> usize {
        7
    }

    fn reset(&mut self) -> Vec<f32> {
        self.t = 0;
        self.obs()
    }

    fn step(&mut self, action: usize) -> Transition {
        self.t += 1;
        Transition {
            obs: self.obs(),
            reward: if action == self.t % 7 { 1.0 } else { 0.0 },
            done: self.t >= HORIZON,
        }
    }

    fn name(&self) -> &str {
        "synthetic"
    }
}

fn trainer(hidden: usize) -> A2cTrainer {
    let agent = RecurrentActorCritic::new(Observation::DIM, hidden, 7, 0);
    A2cTrainer::new(agent, A2cConfig::default(), 1)
}

fn bench_train(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_episode");
    group.sample_size(20);

    // Paper scale: GRU-128, 32-step horizon, rollout + BPTT update.
    let mut t128 = trainer(128);
    let mut env = SyntheticEnv { t: 0 };
    group.bench_function("gru128_rollout_and_update", |b| {
        b.iter(|| std::hint::black_box(t128.train_episode(&mut env).loss))
    });

    // Demo scale for the trajectory.
    let mut t48 = trainer(48);
    group.bench_function("gru48_rollout_and_update", |b| {
        b.iter(|| std::hint::black_box(t48.train_episode(&mut env).loss))
    });

    // Batched update across 4 environments (single synchronous step).
    let mut tb = trainer(128);
    let mut envs = [
        SyntheticEnv { t: 0 },
        SyntheticEnv { t: 0 },
        SyntheticEnv { t: 0 },
        SyntheticEnv { t: 0 },
    ];
    group.bench_function("gru128_train_batch4", |b| {
        b.iter(|| {
            let mut refs: Vec<&mut dyn Env> = envs.iter_mut().map(|e| e as &mut dyn Env).collect();
            std::hint::black_box(tb.train_batch(&mut refs).loss)
        })
    });

    // Worker-pool scaling: the same 4-env batch with the rollout + sharded
    // BPTT pool pinned to 1/2/4 workers. All three are bit-identical (see
    // crates/rl/tests/equivalence.rs); the deltas here isolate what the
    // pool buys (or costs) on this machine's core count.
    for workers in [1usize, 2, 4] {
        let agent = RecurrentActorCritic::new(Observation::DIM, 128, 7, 0);
        let mut tp = A2cTrainer::new(
            agent,
            A2cConfig {
                num_workers: workers,
                ..A2cConfig::default()
            },
            1,
        );
        let mut envs = [
            SyntheticEnv { t: 0 },
            SyntheticEnv { t: 0 },
            SyntheticEnv { t: 0 },
            SyntheticEnv { t: 0 },
        ];
        group.bench_function(format!("gru128_train_batch4_pool{workers}"), |b| {
            b.iter(|| {
                let mut refs: Vec<&mut dyn Env> =
                    envs.iter_mut().map(|e| e as &mut dyn Env).collect();
                std::hint::black_box(tp.train_batch(&mut refs).loss)
            })
        });
    }

    group.finish();
}

fn bench_finetune(c: &mut Criterion) {
    let mut group = c.benchmark_group("finetune");
    group.sample_size(3);
    let cached = lahd_bench::paper_short_budget();
    let artifacts = lahd_bench::cached_artifacts(&cached);
    for (name, workers) in [
        ("gru128_epoch_6traces", 0),
        ("gru128_epoch_6traces_pool1", 1),
    ] {
        let mut cfg = cached.clone();
        cfg.finetune_epochs = 1;
        cfg.a2c.num_workers = workers;
        let pipeline = Pipeline::new(cfg);
        group.bench_function(name, |b| {
            b.iter_batched(
                || (artifacts.obs_qbn.clone(), artifacts.hidden_qbn.clone()),
                |(mut obs_qbn, mut hidden_qbn)| {
                    pipeline.fine_tune_quantized(
                        &artifacts.agent,
                        &mut obs_qbn,
                        &mut hidden_qbn,
                        &artifacts.real_traces,
                    )
                },
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_train, bench_finetune);
criterion_main!(benches);
