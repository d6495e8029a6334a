//! Criterion micro-benchmark: what a guarded stream costs per decision.
//!
//! A resident stream on the serving daemon runs the full guard ladder
//! (extracted FSM → quantized net → exact net → scenario baseline): every
//! eighth decision closes a window, which replays the buffered observations
//! through the non-serving rungs and scores the window for drift. Two rows:
//!
//! - `guard/drift_score_35x64`: one `DriftDetector::score` over a full
//!   64-observation window of the paper's 35 observation dimensions — one
//!   health evaluation.
//! - `guard/baseline_tier_decision`: one decision of a paper-width
//!   `build_ladder` guard serving from the last-resort tier, the guard's own
//!   window replay (FSM, quantized and exact rungs, one row at a time) and
//!   its health evaluation amortised over the window's decisions.

use criterion::{criterion_group, criterion_main, Criterion};
use lahd_core::{build_ladder, resolve_baseline, PipelineConfig, SHADOW_TIER};
use lahd_fsm::VecPolicy;
use lahd_guard::{BaselineProfile, DriftDetector, GuardConfig, GuardedPolicy, StreamingProfile};
use lahd_sim::Observation;

/// The paper's observation width and the guard's default window.
const DIM: usize = Observation::DIM;
const WINDOW: usize = 64;

/// Deterministic observations: a low-discrepancy walk per dimension.
fn walk(i: usize, d: usize) -> f32 {
    (((i + 1) * (d + 3)) as f64 * 0.618_033_988_749_895).fract() as f32
}

/// Observations far above every dimension's interquartile band (and never
/// repeating), which drive a guard down to its last-resort tier.
fn drifted(profile: &BaselineProfile, i: usize) -> Vec<f32> {
    profile
        .dims
        .iter()
        .enumerate()
        .map(|(d, p)| (p.p75 + (p.p75 - p.p25 + 1.0) * (4.0 + walk(i, d) as f64)) as f32)
        .collect()
}

/// The short-budget paper-width pipeline (GRU-128, latents 12/64): the
/// serving benchmark's artifacts, cached across harness runs.
fn paper_short_budget() -> PipelineConfig {
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

fn bench_guard(c: &mut Criterion) {
    let mut group = c.benchmark_group("guard");

    let mut profile = StreamingProfile::new(DIM);
    for i in 0..4096 {
        let obs: Vec<f32> = (0..DIM).map(|d| walk(i, d)).collect();
        profile.push(&obs);
    }
    let mut detector = DriftDetector::new(profile.profile(), WINDOW);
    for i in 0..WINDOW {
        let obs: Vec<f32> = (0..DIM).map(|d| walk(i * 7 + 3, d) * 1.5).collect();
        detector.observe(&obs);
    }
    group.bench_function("drift_score_35x64", |b| {
        b.iter(|| std::hint::black_box(detector.score()))
    });

    let cfg = paper_short_budget();
    let artifacts = lahd_bench::cached_artifacts(&cfg);
    let baseline = resolve_baseline(&cfg, &artifacts, &[]);
    let ladder = build_ladder(&cfg, &artifacts);
    let last = ladder.len() - 1;
    let observations: Vec<Vec<f32>> = (0..256).map(|i| drifted(&baseline, i)).collect();
    let mut guard = GuardedPolicy::new(ladder, SHADOW_TIER, baseline, GuardConfig::default());
    let mut i = 0usize;
    while guard.active_tier() != last {
        guard.act_vec(&observations[i % observations.len()]);
        i += 1;
        assert!(
            i < 10_000,
            "drifted observations never reached the last tier"
        );
    }
    group.bench_function("baseline_tier_decision", |b| {
        b.iter(|| {
            let action = guard.act_vec(&observations[i % observations.len()]);
            i += 1;
            std::hint::black_box(action)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_guard);
criterion_main!(benches);
