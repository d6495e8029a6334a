//! Equivalence pins for the batched/scratch/sharded/packed fast paths.
//!
//! Batched inference (`infer_batch`), scratch-based single-step inference
//! (`infer_into`) and the packed `InferEngine` must be indistinguishable
//! from the original path: same logits, same values, same hidden states.
//! Sharded training must give bit-identical losses, gradients and
//! parameters for every worker-pool size. (Tape reuse across updates is
//! pinned against fresh tapes in lahd-nn's `Graph` tests.)

use lahd_rl::toy::MemoryEnv;
use lahd_rl::{A2cConfig, A2cTrainer, Env, InferEngine, InferScratch, RecurrentActorCritic};
use lahd_tensor::Matrix;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `infer_batch` over B stacked environments ≡ per-row `infer`,
    /// bit for bit.
    #[test]
    fn infer_batch_matches_per_row_infer(
        (batch, obs_dim, hidden_dim, actions, seed, data) in
            (1usize..7, 1usize..9, 2usize..24, 2usize..8, 0u64..500)
                .prop_flat_map(|(b, o, h, a, s)| {
                    (
                        Just(b),
                        Just(o),
                        Just(h),
                        Just(a),
                        Just(s),
                        proptest::collection::vec(-2.0f32..2.0, b * (o + h)),
                    )
                }),
    ) {
        let agent = RecurrentActorCritic::new(obs_dim, hidden_dim, actions, seed);
        let obs = Matrix::from_vec(batch, obs_dim, data[..batch * obs_dim].to_vec());
        let hidden = Matrix::from_vec(batch, hidden_dim, data[batch * obs_dim..].to_vec());

        let (logits, values, next_hidden) = agent.infer_batch(&obs, &hidden);
        prop_assert_eq!(logits.shape(), (batch, actions));
        prop_assert_eq!(values.shape(), (batch, 1));
        prop_assert_eq!(next_hidden.shape(), (batch, hidden_dim));

        for row in 0..batch {
            let h_row = Matrix::row_vector(hidden.row(row));
            let step = agent.infer(obs.row(row), &h_row);
            prop_assert_eq!(logits.row(row), &step.logits[..], "logits row {} diverged", row);
            prop_assert_eq!(values[(row, 0)].to_bits(), step.value.to_bits());
            prop_assert_eq!(next_hidden.row(row), step.hidden.row(0), "hidden row {}", row);
        }
    }

    /// The scratch-based single step ≡ the allocating wrapper, and a warm
    /// scratch carried across an episode changes nothing.
    #[test]
    fn infer_into_matches_infer_across_an_episode(
        obs_seq in proptest::collection::vec(
            proptest::collection::vec(-1.5f32..1.5, 4),
            1..12,
        ),
        seed in 0u64..500,
    ) {
        let agent = RecurrentActorCritic::new(4, 12, 5, seed);
        let mut scratch = InferScratch::default();
        let mut h_scratch = agent.initial_state();
        let mut h_alloc = agent.initial_state();
        for obs in &obs_seq {
            agent.infer_into(obs, &h_scratch, &mut scratch);
            let step = agent.infer(obs, &h_alloc);
            prop_assert_eq!(scratch.logits.row(0), &step.logits[..]);
            prop_assert_eq!(scratch.values[(0, 0)].to_bits(), step.value.to_bits());
            prop_assert_eq!(&scratch.hidden, &step.hidden);
            std::mem::swap(&mut h_scratch, &mut scratch.hidden);
            h_alloc = step.hidden;
        }
    }
}

/// Bit-exact parameter comparison between two stores.
fn assert_stores_identical(a: &RecurrentActorCritic, b: &RecurrentActorCritic, after: &str) {
    for ((_, pa), (_, pb)) in a.store.iter().zip(b.store.iter()) {
        assert_eq!(pa.name, pb.name);
        let va = pa.value.as_slice();
        let vb = pb.value.as_slice();
        let ga = pa.grad.as_slice();
        let gb = pb.grad.as_slice();
        for i in 0..va.len() {
            assert_eq!(
                va[i].to_bits(),
                vb[i].to_bits(),
                "param {} value[{i}] diverged {after}: {} vs {}",
                pa.name,
                va[i],
                vb[i]
            );
            assert_eq!(
                ga[i].to_bits(),
                gb[i].to_bits(),
                "param {} grad[{i}] diverged {after}",
                pa.name
            );
        }
    }
}

/// Sharded `train_batch` — rollouts *and* BPTT replay on a fixed worker
/// pool, per-episode tapes, gradients reduced in episode order — must be
/// bit-identical to the serial path for every pool size. Five environments
/// across pools of 2/4 exercise uneven shards (2+2+1) and a pool smaller
/// than the batch.
#[test]
fn sharded_train_batch_is_bit_identical_across_pool_sizes() {
    let make_trainer = |num_workers: usize| {
        let config = A2cConfig {
            learning_rate: 0.01,
            num_workers,
            ..A2cConfig::default()
        };
        A2cTrainer::new(RecurrentActorCritic::new(1, 12, 2, 33), config, 9)
    };
    // Varying delays give every episode a different length, so the flat
    // advantage slices and shard boundaries are all uneven.
    let make_envs = || -> Vec<MemoryEnv> { (1..=5).map(MemoryEnv::new).collect() };

    // Reference: a pool of one (pure serial caller-thread path), with the
    // agent snapshotted after every update.
    let mut serial = make_trainer(1);
    let mut serial_envs = make_envs();
    let mut reports = Vec::new();
    let mut snapshots = Vec::new();
    for _ in 0..3 {
        let mut refs: Vec<&mut dyn Env> =
            serial_envs.iter_mut().map(|e| e as &mut dyn Env).collect();
        reports.push(serial.train_batch(&mut refs));
        snapshots.push(serial.agent.clone());
    }

    for pool in [2usize, 4] {
        let mut sharded = make_trainer(pool);
        let mut envs = make_envs();
        for (update, (serial_report, snapshot)) in reports.iter().zip(&snapshots).enumerate() {
            let mut refs: Vec<&mut dyn Env> = envs.iter_mut().map(|e| e as &mut dyn Env).collect();
            let report = sharded.train_batch(&mut refs);
            assert_eq!(
                report.steps, serial_report.steps,
                "pool {pool} update {update}: steps"
            );
            assert_eq!(
                report.loss.to_bits(),
                serial_report.loss.to_bits(),
                "pool {pool} update {update}: loss diverged ({} vs {})",
                report.loss,
                serial_report.loss
            );
            assert_eq!(
                report.grad_norm.to_bits(),
                serial_report.grad_norm.to_bits(),
                "pool {pool} update {update}: grad norm diverged"
            );
            assert_stores_identical(
                snapshot,
                &sharded.agent,
                &format!("pool {pool} after update {update}"),
            );
        }
    }
}

/// Packed-vs-unpacked check: bit-exact.
fn assert_step_matches(label: &str, packed: &InferScratch, unpacked: &InferScratch) {
    let diff = packed
        .hidden
        .max_abs_diff(&unpacked.hidden)
        .max(packed.logits.max_abs_diff(&unpacked.logits))
        .max(packed.values.max_abs_diff(&unpacked.values));
    assert_eq!(diff, 0.0, "{label}: packed engine must be bit-identical");
}

/// The packed `InferEngine` must be indistinguishable from the unpacked
/// `infer_into` across a 100-step rollout **that spans a training update**:
/// at step 50 the trainer runs a real A2C episode (optimiser step +
/// automatic engine repack), and the trainer's engine must keep matching
/// the unpacked path on the updated weights. This is the train-then-infer
/// loop the repack hook exists for.
#[test]
fn infer_engine_matches_unpacked_across_a_training_update() {
    let agent = RecurrentActorCritic::new(1, 24, 2, 17);
    let mut trainer = A2cTrainer::new(agent, A2cConfig::default(), 3);
    let mut env = MemoryEnv::new(4);

    let mut packed = InferScratch::default();
    let mut unpacked = InferScratch::default();
    let mut h_p = trainer.agent.initial_state();
    let mut h_u = trainer.agent.initial_state();

    for t in 0..100 {
        if t == 50 {
            // Mid-rollout parameter update; the trainer repacks its engine
            // internally after the optimiser step.
            trainer.train_episode(&mut env);
        }
        let obs = [((t as f32) * 0.37).sin()];
        trainer
            .engine()
            .infer_into(&trainer.agent, &obs, &h_p, &mut packed);
        trainer.agent.infer_into(&obs, &h_u, &mut unpacked);
        assert_step_matches(&format!("step {t}"), &packed, &unpacked);
        std::mem::swap(&mut h_p, &mut packed.hidden);
        std::mem::swap(&mut h_u, &mut unpacked.hidden);
    }
}

/// The engine's batch path ≡ the unpacked batch path, both below the
/// blocked-GEMM cutoff (row-wise fused GEMV) and above it (fallback).
#[test]
fn infer_engine_batch_matches_unpacked_batch() {
    let agent = RecurrentActorCritic::new(5, 32, 4, 23);
    let engine = InferEngine::new(&agent);
    for batch in [1usize, 3, 8, 16, 24] {
        let obs = Matrix::from_fn(batch, 5, |i, j| ((i * 7 + j * 3) as f32 * 0.1).sin());
        let hidden = Matrix::from_fn(batch, 32, |i, j| ((i + j * 5) as f32 * 0.05).cos() * 0.5);
        let mut packed = InferScratch::default();
        let mut unpacked = InferScratch::default();
        engine.infer_batch_into(&agent, &obs, &hidden, &mut packed);
        agent.infer_batch_into(&obs, &hidden, &mut unpacked);
        assert_step_matches(&format!("batch {batch}"), &packed, &unpacked);
    }
}

/// Runs `batch` rows through `engine.infer_batch_into` and each row alone
/// through `engine.infer_into`, and asserts equal bits for every hidden
/// state, logit and value.
fn assert_batch_rows_match_single_steps(
    agent: &RecurrentActorCritic,
    engine: &InferEngine,
    obs: &Matrix,
    hidden: &Matrix,
) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let label = format!("{} rows, {}", obs.rows(), engine.precision());
    let mut batched = InferScratch::default();
    engine.infer_batch_into(agent, obs, hidden, &mut batched);
    let mut single = InferScratch::default();
    for row in 0..obs.rows() {
        let h_row = Matrix::row_vector(hidden.row(row));
        engine.infer_into(agent, obs.row(row), &h_row, &mut single);
        assert_eq!(
            bits(batched.hidden.row(row)),
            bits(single.hidden.row(0)),
            "{label}: hidden row {row}"
        );
        assert_eq!(
            bits(batched.logits.row(row)),
            bits(single.logits.row(0)),
            "{label}: logits row {row}"
        );
        assert_eq!(
            batched.values[(row, 0)].to_bits(),
            single.values[(0, 0)].to_bits(),
            "{label}: value row {row}"
        );
    }
}

/// The engine's multi-row batch path ≡ one `infer_into` per row, bit for
/// bit, in both precisions, for every row count below the blocked-GEMM
/// cutoff — at paper width, where every gate panel is 64 wide and takes
/// the multi-row kernels, and at a narrow width made of 16/8/tail panels.
#[test]
fn infer_engine_batch_rows_match_single_steps_in_both_precisions() {
    for (obs_dim, hidden_dim, actions) in [(35, 128, 7), (5, 24, 3)] {
        let agent = RecurrentActorCritic::new(obs_dim, hidden_dim, actions, 41);
        for precision in lahd_rl::Precision::ALL {
            let engine = InferEngine::with_precision(&agent, precision);
            for batch in 1..lahd_tensor::gemm::BLOCK_MIN_ROWS {
                let obs = Matrix::from_fn(batch, obs_dim, |i, j| {
                    ((i * 13 + j * 7) as f32 * 0.11).sin() * 1.5
                });
                let hidden = Matrix::from_fn(batch, hidden_dim, |i, j| {
                    ((i * 5 + j * 3) as f32 * 0.07).cos() * 0.8
                });
                assert_batch_rows_match_single_steps(&agent, &engine, &obs, &hidden);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random observations and hidden states at paper width, random row
    /// counts: batched rows ≡ single steps in both precisions.
    #[test]
    fn infer_engine_batch_rows_match_single_steps_on_random_inputs(
        (batch, data) in (1usize..lahd_tensor::gemm::BLOCK_MIN_ROWS).prop_flat_map(|b| {
            (Just(b), proptest::collection::vec(-2.0f32..2.0, b * (35 + 128)))
        }),
    ) {
        let agent = RecurrentActorCritic::new(35, 128, 7, 5);
        let obs = Matrix::from_vec(batch, 35, data[..batch * 35].to_vec());
        let hidden = Matrix::from_vec(batch, 128, data[batch * 35..].to_vec());
        for precision in lahd_rl::Precision::ALL {
            let engine = InferEngine::with_precision(&agent, precision);
            assert_batch_rows_match_single_steps(&agent, &engine, &obs, &hidden);
        }
    }
}
