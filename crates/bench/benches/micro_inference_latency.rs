//! Criterion micro-benchmark: per-decision inference latency.
//!
//! The paper's core motivation for extraction is that the deployed
//! controller must be a "lightweight white-box approach": the storage array
//! cannot afford a neural network in its per-interval control path. This
//! benchmark quantifies the claim at paper scale — one GRU-128 forward pass
//! versus one extracted-FSM step (quantize + table lookup) versus the
//! handcrafted rule.

use criterion::{criterion_group, criterion_main, Criterion};
use lahd_fsm::{Fsm, FsmExecutor, FsmState, HandcraftedFsm, Metric, ObsSymbol, Policy};
use lahd_qbn::{Code, Qbn, QbnConfig};
use lahd_rl::RecurrentActorCritic;
use lahd_sim::{
    canonical_io_classes, Action, IntervalWorkload, Observation, ReadaheadConfig, ReadaheadSim,
    SimConfig, WorkloadTrace, NUM_IO_CLASSES,
};

/// A short mixed read trace so the readahead observation carries live
/// sequential-share and buffer features.
fn ra_trace() -> WorkloadTrace {
    let mut mix = [0.0; NUM_IO_CLASSES];
    mix[1] = 0.3; // 8 KiB read (random)
    mix[5] = 0.5; // 128 KiB read (sequential)
    mix[9] = 0.2; // 8 KiB write
    WorkloadTrace::new("bench-ra", vec![IntervalWorkload::new(mix, 2000.0); 8])
}

fn observation() -> Observation {
    let mut mix = [0.0; NUM_IO_CLASSES];
    mix[1] = 0.5;
    mix[9] = 0.5;
    Observation::new(
        [18, 7, 7],
        [0.8, 0.95, 0.6],
        &canonical_io_classes(),
        &IntervalWorkload::new(mix, 2500.0),
    )
}

/// A synthetic machine with realistic size (12 states, 64 symbols): FSM
/// latency depends on structure, not on learned weights.
fn synthetic_fsm(obs_qbn: &Qbn, cfg: &SimConfig) -> FsmExecutor {
    let num_states = 12;
    let num_symbols = 64;
    let obs_dim = Observation::DIM;
    let states = (0..num_states)
        .map(|i| FsmState {
            code: Code(vec![if i % 2 == 0 { 1 } else { -1 }; 4]),
            action: i % Action::COUNT,
            support: 10,
        })
        .collect();
    let base = observation().to_vector(cfg);
    let symbols = (0..num_symbols)
        .map(|i| {
            let mut centroid = base.clone();
            centroid[0] += i as f32 * 0.01;
            ObsSymbol {
                code: Code(vec![(i % 3) as i8 - 1; 8]),
                centroid,
                support: 5,
            }
        })
        .collect();
    let mut transitions = std::collections::HashMap::new();
    for s in 0..num_states {
        for o in 0..num_symbols {
            if (s + o) % 3 != 0 {
                transitions.insert((s, o), ((s + o) % num_states, 3));
            }
        }
    }
    let fsm = Fsm {
        states,
        symbols,
        transitions,
        initial_state: 0,
    };
    let _ = obs_dim;
    FsmExecutor::new(fsm, obs_qbn.clone(), Metric::Euclidean, true)
}

fn bench_inference(c: &mut Criterion) {
    let cfg = SimConfig::default();
    let obs = observation();
    let obs_vec = obs.to_vector(&cfg);

    let mut group = c.benchmark_group("inference_latency");

    // GRU at the paper's width — allocating path (kept for the trajectory).
    let agent = RecurrentActorCritic::new(Observation::DIM, 128, Action::COUNT, 0);
    let h0 = agent.initial_state();
    group.bench_function("gru128_forward", |b| {
        b.iter(|| std::hint::black_box(agent.infer(&obs_vec, &h0)))
    });

    // Zero-allocation path: caller-owned scratch, the deployment hot loop.
    let mut scratch = lahd_rl::InferScratch::default();
    group.bench_function("gru128_forward_scratch", |b| {
        b.iter(|| {
            agent.infer_into(&obs_vec, &h0, &mut scratch);
            std::hint::black_box(scratch.values[(0, 0)])
        })
    });

    // Packed inference engine: pre-packed GEMV weights, fused gate
    // matvecs — the per-decision deployment path the A2C trainer runs.
    let engine = lahd_rl::InferEngine::new(&agent);
    let mut scratch_packed = lahd_rl::InferScratch::default();
    group.bench_function("gru128_forward_packed", |b| {
        b.iter(|| {
            engine.infer_into(&agent, &obs_vec, &h0, &mut scratch_packed);
            std::hint::black_box(scratch_packed.values[(0, 0)])
        })
    });

    // The quantized fast tier: i8 packed weights (4× less streaming) +
    // vectorized polynomial activations, under the accuracy contract pinned
    // by the quantized_agreement suite (PERF.md has the cost model).
    let engine_quant =
        lahd_rl::InferEngine::with_precision(&agent, lahd_rl::Precision::QuantizedFast);
    let mut scratch_quant = lahd_rl::InferScratch::default();
    group.bench_function("gru128_forward_quant", |b| {
        b.iter(|| {
            engine_quant.infer_into(&agent, &obs_vec, &h0, &mut scratch_quant);
            std::hint::black_box(scratch_quant.values[(0, 0)])
        })
    });

    // Batched inference: 8 environments through one B×D matmul set. The
    // reported time is per *batch*; divide by 8 for per-decision cost.
    let obs8 = {
        let mut m = lahd_tensor::Matrix::zeros(8, Observation::DIM);
        for r in 0..8 {
            m.row_mut(r).copy_from_slice(&obs_vec);
        }
        m
    };
    let h8 = lahd_tensor::Matrix::zeros(8, 128);
    let mut scratch8 = lahd_rl::InferScratch::default();
    group.bench_function("gru128_infer_batch8", |b| {
        b.iter(|| {
            agent.infer_batch_into(&obs8, &h8, &mut scratch8);
            std::hint::black_box(scratch8.values[(0, 0)])
        })
    });

    // The same 8-environment batch through the packed engine (row-wise
    // fused GEMV below the blocked cutoff).
    let mut scratch8_packed = lahd_rl::InferScratch::default();
    group.bench_function("gru128_infer_batch8_packed", |b| {
        b.iter(|| {
            engine.infer_batch_into(&agent, &obs8, &h8, &mut scratch8_packed);
            std::hint::black_box(scratch8_packed.values[(0, 0)])
        })
    });

    // Six rows through the packed engine's multi-row GEMV kernels, the
    // shape of a serving shard's batched shadow replay. Reported per row:
    // one 6-row batch every sixth call, amortised.
    let obs6 = {
        let mut m = lahd_tensor::Matrix::zeros(6, Observation::DIM);
        for r in 0..6 {
            m.row_mut(r).copy_from_slice(&obs_vec);
        }
        m
    };
    let h6 = lahd_tensor::Matrix::zeros(6, 128);
    for (name, row_engine) in [
        ("gru128_infer_batch6_packed", &engine),
        ("gru128_infer_batch6_quant", &engine_quant),
    ] {
        let mut scratch6 = lahd_rl::InferScratch::default();
        let mut call = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                call += 1;
                if call.is_multiple_of(6) {
                    row_engine.infer_batch_into(&agent, &obs6, &h6, &mut scratch6);
                }
                std::hint::black_box(scratch6.values.as_slice().first().copied())
            })
        });
    }

    // Demo-scale GRU for reference.
    let small = RecurrentActorCritic::new(Observation::DIM, 48, Action::COUNT, 0);
    let hs = small.initial_state();
    group.bench_function("gru48_forward", |b| {
        b.iter(|| std::hint::black_box(small.infer(&obs_vec, &hs)))
    });

    // The second registered scenario's decision shapes (obs 22, 5 actions):
    // readahead sizing runs the same GRU-128 torso over a narrower input,
    // so its per-decision floor gets its own trajectory rows.
    {
        let ra_cfg = ReadaheadConfig::from_base(cfg.clone());
        let ra_sim = ReadaheadSim::new(ra_cfg.clone(), ra_trace(), 0);
        let ra_obs = ra_sim.observation();
        let ra_agent =
            RecurrentActorCritic::new(ReadaheadSim::OBS_DIM, 128, ra_cfg.num_actions(), 0);
        let ra_h0 = ra_agent.initial_state();
        let ra_engine = lahd_rl::InferEngine::new(&ra_agent);
        let mut ra_scratch = lahd_rl::InferScratch::default();
        group.bench_function("gru128_forward_packed_readahead", |b| {
            b.iter(|| {
                ra_engine.infer_into(&ra_agent, &ra_obs, &ra_h0, &mut ra_scratch);
                std::hint::black_box(ra_scratch.values[(0, 0)])
            })
        });
        let ra_engine_quant =
            lahd_rl::InferEngine::with_precision(&ra_agent, lahd_rl::Precision::QuantizedFast);
        let mut ra_scratch_quant = lahd_rl::InferScratch::default();
        group.bench_function("gru128_forward_quant_readahead", |b| {
            b.iter(|| {
                ra_engine_quant.infer_into(&ra_agent, &ra_obs, &ra_h0, &mut ra_scratch_quant);
                std::hint::black_box(ra_scratch_quant.values[(0, 0)])
            })
        });
    }

    // Extracted FSM: normalise the observation, then QBN encode + table
    // lookup.
    let obs_qbn = Qbn::new(QbnConfig::with_dims(Observation::DIM, 8), 1);
    let mut fsm = synthetic_fsm(&obs_qbn, &cfg);
    group.bench_function("extracted_fsm_step", |b| {
        b.iter(|| {
            let v = std::hint::black_box(&obs).to_vector(&cfg);
            std::hint::black_box(fsm.step_vec(&v))
        })
    });

    // QBN encode alone (the dominant FSM-step cost).
    group.bench_function("obs_qbn_encode", |b| {
        b.iter(|| std::hint::black_box(obs_qbn.encode(&obs_vec)))
    });

    // One 128-wide row of exact tanh, as every exact GRU-128 candidate
    // gate evaluates it: the vectorised kernel against libm's scalar
    // `tanhf`, which it matches bit for bit.
    let pre: Vec<f32> = (0..128).map(|i| (i as f32 * 0.731).sin() * 3.0).collect();
    let mut row = pre.clone();
    group.bench_function("tanh_exact_row128", |b| {
        b.iter(|| {
            row.copy_from_slice(std::hint::black_box(&pre));
            lahd_nn::tanh_exact_slice(&mut row);
            std::hint::black_box(&row);
        })
    });
    group.bench_function("tanh_libm_row128", |b| {
        b.iter(|| {
            row.copy_from_slice(std::hint::black_box(&pre));
            for v in &mut row {
                *v = v.tanh();
            }
            std::hint::black_box(&row);
        })
    });

    // Handcrafted rule: a handful of comparisons.
    let mut handcrafted = HandcraftedFsm::tuned();
    group.bench_function("handcrafted_rule", |b| {
        b.iter(|| std::hint::black_box(handcrafted.act(std::hint::black_box(&obs))))
    });

    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
