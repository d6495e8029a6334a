//! The trained artifacts every serve integration test serves from.

use std::path::PathBuf;
use std::sync::OnceLock;

use lahd_core::{save_artifacts, Pipeline, PipelineConfig};

/// Trains the tiny pipeline once per test binary and stamps its artifacts
/// into a directory of its own. Seed 22 rather than the `tiny()` default:
/// its machine answers at least two distinct actions in every lockstep
/// window these tests checksum, so a daemon that lost its cursors cannot
/// pass a pin by answering one action everywhere.
pub fn artifacts() -> &'static (PipelineConfig, PathBuf) {
    static ARTIFACTS: OnceLock<(PipelineConfig, PathBuf)> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let cfg = PipelineConfig {
            seed: 22,
            ..PipelineConfig::tiny()
        };
        let produced = Pipeline::new(cfg.clone()).run();
        let dir = std::env::temp_dir().join(concat!(
            "lahd_serve_",
            env!("CARGO_CRATE_NAME"),
            "_artifacts"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        save_artifacts(&produced, &dir).unwrap();
        (cfg, dir)
    })
}
