//! Byte pins on the offline pipeline's saved artifacts.
//!
//! Every artifact file the tiny pipeline writes (parameters, machine,
//! convergence log, baseline profile, meta) is folded into one FNV-1a
//! digest, in file-name order, the same fold perfbench applies to its
//! paper-width artifacts. A change that moves any trained bit, from the
//! tape's gradient fold to the fine-tuning schedule, changes the digest.
//! A deliberate behaviour change regenerates these constants and says why.

use std::path::Path;

use lahd::core::{save_artifacts, Pipeline, PipelineConfig};

/// FNV-1a over the files in `dir`, in name order, each prefixed by its
/// name.
fn artifact_digest(dir: &Path) -> u64 {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("artifact dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    paths.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for path in paths {
        let name = path
            .file_name()
            .expect("file name")
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&path).expect("artifact file");
        for b in name.bytes().chain(bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn tiny_digest(seed: u64) -> u64 {
    let mut config = PipelineConfig::tiny();
    config.seed = seed;
    let artifacts = Pipeline::new(config).run();
    let dir = std::env::temp_dir().join(format!("lahd-it-digest-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_artifacts(&artifacts, &dir).expect("save artifacts");
    let digest = artifact_digest(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    digest
}

/// The default tiny configuration (seed 19), the artifacts the tier-1
/// suites train.
#[test]
fn tiny_pipeline_artifacts_are_pinned() {
    assert_eq!(format!("{:016x}", tiny_digest(19)), "cc0399b439801b63");
}

/// Seed 22, the serving smoke artifacts the chaos and drill harnesses run.
#[test]
fn tiny_seed22_pipeline_artifacts_are_pinned() {
    assert_eq!(format!("{:016x}", tiny_digest(22)), "32cedbaef51b837d");
}
