//! Shared infrastructure for the LAHD experiment harnesses.
//!
//! Every figure of the paper has a `cargo bench` target (see
//! `crates/bench/benches/`); this library provides the pieces they share:
//! scale selection (`--paper` vs demo), pipeline-artifact caching so that
//! Figures 4–6 reuse one trained pipeline, and output-file conventions.

use std::path::{Path, PathBuf};

use lahd_core::{Args, Pipeline, PipelineArtifacts, PipelineConfig};
use lahd_sim::{Action, Observation};

/// Directory where harnesses drop CSVs, DOT files and the artifact cache:
/// `<workspace>/target/experiments`. Bench binaries run with the *package*
/// root as their working directory, so a relative path would land inside
/// `crates/bench`; anchoring on `CARGO_MANIFEST_DIR` keeps every harness
/// writing to the workspace-level target directory the README documents.
pub fn experiments_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join("target/experiments")
}

/// Resolves the pipeline configuration for a harness run: demo scale by
/// default, full paper scale with `--paper`, with individual overrides via
/// `--hidden`, `--std-epochs`, `--real-epochs`, `--traces`, `--trace-len`
/// and `--seed`.
pub fn configure(args: &Args) -> PipelineConfig {
    let mut cfg = if args.has_flag("paper") {
        PipelineConfig::paper()
    } else {
        PipelineConfig::demo()
    };
    cfg.hidden_dim = args.get_usize("hidden", cfg.hidden_dim);
    cfg.std_epochs = args.get_usize("std-epochs", cfg.std_epochs);
    cfg.real_epochs = args.get_usize("real-epochs", cfg.real_epochs);
    cfg.num_real_traces = args.get_usize("traces", cfg.num_real_traces);
    cfg.trace_len = args.get_usize("trace-len", cfg.trace_len);
    cfg.seed = args.get_u64("seed", cfg.seed);
    cfg.sim.max_intervals = cfg.trace_len * 8;
    cfg
}

/// `PipelineConfig::paper()` widths (GRU-128, latents 12/64, 192-interval
/// traces) on a short training budget: the serving benchmark's pipeline,
/// which the micro benches train once and cache (see [`cached_artifacts`]).
pub fn paper_short_budget() -> PipelineConfig {
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

/// Prints the standard harness banner.
pub fn banner(name: &str, cfg: &PipelineConfig) {
    println!("================================================================");
    println!("LAHD experiment: {name}");
    println!(
        "scale: hidden={} epochs={}+{} traces={}x{} seed={}",
        cfg.hidden_dim,
        cfg.std_epochs,
        cfg.real_epochs,
        cfg.num_real_traces,
        cfg.trace_len,
        cfg.seed
    );
    println!("================================================================");
}

/// FNV-1a hash of the config's debug rendering — the artifact-cache key.
fn config_fingerprint(cfg: &PipelineConfig) -> u64 {
    let text = format!(
        "{cfg:?}|obsdim={}|actions={}",
        Observation::DIM,
        Action::COUNT
    );
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Runs the full pipeline, or loads identical artifacts produced by an
/// earlier harness run (cache key = config fingerprint). Training logs are
/// cached alongside the model files.
pub fn cached_artifacts(cfg: &PipelineConfig) -> PipelineArtifacts {
    let dir = experiments_dir().join(format!("cache/{:016x}", config_fingerprint(cfg)));
    match lahd_core::load_artifacts_checked(cfg, &dir).ok() {
        Some(artifacts) => {
            println!("[cache] reusing trained pipeline from {}", dir.display());
            artifacts
        }
        None => {
            let artifacts = Pipeline::new(cfg.clone()).run();
            if let Err(e) = lahd_core::save_artifacts(&artifacts, &dir) {
                eprintln!("[cache] warning: could not persist artifacts: {e}");
            }
            artifacts
        }
    }
}

/// Moving average used to smooth the noisy per-epoch training series when
/// summarising convergence behaviour.
pub fn moving_average(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    xs.iter()
        .enumerate()
        .map(|(i, _)| {
            let lo = i.saturating_sub(window / 2);
            let hi = (i + window / 2 + 1).min(xs.len());
            xs[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_config_sensitive() {
        let a = PipelineConfig::tiny();
        let mut b = PipelineConfig::tiny();
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
        b.hidden_dim += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }

    #[test]
    fn moving_average_smooths_but_preserves_length() {
        let xs = vec![0.0, 10.0, 0.0, 10.0, 0.0, 10.0];
        let sm = moving_average(&xs, 3);
        assert_eq!(sm.len(), xs.len());
        assert!((sm[2] - 20.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn artifact_roundtrip_through_cache_dir() {
        let cfg = PipelineConfig::tiny();
        let artifacts = Pipeline::new(cfg.clone()).run();
        let dir = std::env::temp_dir().join("lahd-bench-cache-test");
        let _ = std::fs::remove_dir_all(&dir);
        lahd_core::save_artifacts(&artifacts, &dir).unwrap();
        let loaded = lahd_core::load_artifacts_checked(&cfg, &dir).expect("cache loads");
        assert_eq!(loaded.fsm.num_states(), artifacts.fsm.num_states());
        assert_eq!(loaded.convergence.len(), artifacts.convergence.len());
        assert_eq!(loaded.raw_states, artifacts.raw_states);
        // The reloaded agent reproduces the original's behaviour bit-exactly.
        let obs = vec![0.1f32; Observation::DIM];
        let a = artifacts
            .agent
            .infer(&obs, &artifacts.agent.initial_state());
        let b = loaded.agent.infer(&obs, &loaded.agent.initial_state());
        assert_eq!(a.logits, b.logits);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
