//! Saving and loading trained pipeline artifacts.
//!
//! A trained pipeline is four files in a directory — the agent's parameters,
//! the two QBNs' parameters and the extracted machine — plus the convergence
//! log, a small metadata file and (since the guard layer) the training-time
//! observation baseline profile. All formats are the line-oriented text
//! formats of `lahd-nn`, `lahd-fsm` and `lahd-guard`, so a deployed
//! artifact remains human-reviewable (the paper's white-box requirement).
//!
//! Loading is *checked*: [`load_artifacts_checked`] validates lengths,
//! shapes and cross-file consistency and reports what is wrong with which
//! file as a typed [`ArtifactError`] — a corrupted artifact directory must
//! never panic a deployment, it must fail loudly and legibly.

use std::fs;
use std::io::BufReader;
use std::path::Path;

use lahd_fsm::{read_fsm, write_fsm};
use lahd_guard::{read_profile, write_profile, BaselineProfile};
use lahd_nn::{read_params, write_params, ParamStore};
use lahd_qbn::{Qbn, QbnConfig};
use lahd_rl::{EpochLog, RecurrentActorCritic};

use crate::pipeline::{Pipeline, PipelineArtifacts, PipelineConfig};

/// Why an artifact directory could not be loaded.
#[derive(Debug)]
pub enum ArtifactError {
    /// A file could not be read at all.
    Io {
        /// File name within the artifact directory.
        file: &'static str,
        /// The underlying filesystem error.
        source: std::io::Error,
    },
    /// A file was read but its contents are malformed.
    Corrupt {
        /// File name within the artifact directory.
        file: &'static str,
        /// What exactly is wrong.
        detail: String,
    },
    /// Every file parsed, but the artifacts do not fit the requested
    /// configuration (wrong dimensions, wrong scenario, …).
    Mismatch {
        /// What exactly does not fit.
        detail: String,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io { file, source } => {
                write!(f, "artifact file {file}: {source}")
            }
            ArtifactError::Corrupt { file, detail } => {
                write!(f, "artifact file {file} is corrupt: {detail}")
            }
            ArtifactError::Mismatch { detail } => {
                write!(f, "artifacts do not match the configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Writes all artifacts into `dir` (created if missing).
///
/// # Errors
/// Propagates filesystem errors.
pub fn save_artifacts(artifacts: &PipelineArtifacts, dir: &Path) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let write_store = |name: &str, store: &ParamStore| -> std::io::Result<()> {
        let mut buf = Vec::new();
        write_params(store, &mut buf)?;
        fs::write(dir.join(name), buf)
    };
    write_store("agent.params", &artifacts.agent.store)?;
    write_store("obs_qbn.params", &artifacts.obs_qbn.store)?;
    write_store("hidden_qbn.params", &artifacts.hidden_qbn.store)?;

    let mut fsm = Vec::new();
    write_fsm(&artifacts.fsm, &mut fsm)?;
    fs::write(dir.join("fsm.txt"), fsm)?;

    let mut log = String::from("epoch,phase,total_steps,total_reward,mean_loss\n");
    for l in &artifacts.convergence {
        log.push_str(&format!(
            "{},{},{},{},{}\n",
            l.epoch, l.phase, l.total_steps, l.total_reward, l.mean_loss
        ));
    }
    fs::write(dir.join("convergence.csv"), log)?;
    if let Some(baseline) = &artifacts.baseline {
        let mut buf = Vec::new();
        write_profile(baseline, &mut buf)?;
        fs::write(dir.join("baseline.profile"), buf)?;
    }
    fs::write(
        dir.join("meta.txt"),
        format!(
            "raw_states {}\ndataset_len {}\nscenario {}\n",
            artifacts.raw_states,
            artifacts.dataset_len,
            artifacts.scenario.name()
        ),
    )?;
    Ok(())
}

/// Loads artifacts saved by [`save_artifacts`], validating every file and
/// reporting exactly what is wrong on failure. Never panics on malformed
/// input: a truncated, bit-flipped or foreign file surfaces as a typed
/// [`ArtifactError`] naming the file and the problem.
///
/// # Errors
/// [`ArtifactError::Io`] when a required file cannot be read,
/// [`ArtifactError::Corrupt`] when a file fails to parse, and
/// [`ArtifactError::Mismatch`] when the parsed artifacts do not fit `cfg`
/// (wrong tensor shapes, wrong scenario, baseline of the wrong width).
pub fn load_artifacts_checked(
    cfg: &PipelineConfig,
    dir: &Path,
) -> Result<PipelineArtifacts, ArtifactError> {
    let read_store = |name: &'static str| -> Result<ParamStore, ArtifactError> {
        let file = fs::File::open(dir.join(name))
            .map_err(|source| ArtifactError::Io { file: name, source })?;
        read_params(&mut BufReader::new(file)).map_err(|e| ArtifactError::Corrupt {
            file: name,
            detail: e.to_string(),
        })
    };

    let agent_store = read_store("agent.params")?;
    let obs_store = read_store("obs_qbn.params")?;
    let hid_store = read_store("hidden_qbn.params")?;
    let fsm_file = fs::File::open(dir.join("fsm.txt")).map_err(|source| ArtifactError::Io {
        file: "fsm.txt",
        source,
    })?;
    let fsm = read_fsm(&mut BufReader::new(fsm_file)).map_err(|e| ArtifactError::Corrupt {
        file: "fsm.txt",
        detail: e.to_string(),
    })?;
    fsm.validate().map_err(|e| ArtifactError::Corrupt {
        file: "fsm.txt",
        detail: format!("machine is inconsistent: {e}"),
    })?;
    let meta = fs::read_to_string(dir.join("meta.txt")).map_err(|source| ArtifactError::Io {
        file: "meta.txt",
        source,
    })?;
    let convergence = load_convergence(&dir.join("convergence.csv"))?;

    let scenario = cfg.scenario.get();
    let mut agent = RecurrentActorCritic::new(
        scenario.obs_dim(),
        cfg.hidden_dim,
        scenario.num_actions(),
        cfg.seed,
    );
    check_layout("agent.params", &agent.store, &agent_store)?;
    agent.store.copy_values_from(&agent_store);

    let mut obs_qbn = Qbn::new(QbnConfig::with_dims(scenario.obs_dim(), cfg.obs_latent), 0);
    check_layout("obs_qbn.params", &obs_qbn.store, &obs_store)?;
    obs_qbn.store.copy_values_from(&obs_store);
    obs_qbn.repack();
    // Deployment precision is a runtime property of the loaded artifacts,
    // not of the persisted values: stamp the requested tier onto the packed
    // encode/decode paths (a no-op for the default Exact).
    obs_qbn.set_precision(cfg.infer_precision);

    let mut hidden_qbn = Qbn::new(QbnConfig::with_dims(cfg.hidden_dim, cfg.hidden_latent), 0);
    check_layout("hidden_qbn.params", &hidden_qbn.store, &hid_store)?;
    hidden_qbn.store.copy_values_from(&hid_store);
    hidden_qbn.repack();
    hidden_qbn.set_precision(cfg.infer_precision);

    let mut raw_states = 0;
    let mut dataset_len = 0;
    // Artifacts written before the scenario layer carry no scenario line;
    // they are Dorado by construction.
    let mut saved_scenario = crate::scenario::ScenarioId::DoradoMigration;
    for line in meta.lines() {
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some("raw_states"), Some(v)) => {
                raw_states = v.parse().map_err(|_| ArtifactError::Corrupt {
                    file: "meta.txt",
                    detail: format!("raw_states is not a number: {v:?}"),
                })?;
            }
            (Some("dataset_len"), Some(v)) => {
                dataset_len = v.parse().map_err(|_| ArtifactError::Corrupt {
                    file: "meta.txt",
                    detail: format!("dataset_len is not a number: {v:?}"),
                })?;
            }
            (Some("scenario"), Some(v)) => {
                saved_scenario =
                    crate::scenario::ScenarioId::parse(v).ok_or(ArtifactError::Corrupt {
                        file: "meta.txt",
                        detail: format!("unknown scenario {v:?}"),
                    })?;
            }
            _ => {}
        }
    }
    if saved_scenario != cfg.scenario {
        return Err(ArtifactError::Mismatch {
            detail: format!(
                "artifacts were trained for scenario '{}', configuration asks for '{}'",
                saved_scenario.name(),
                cfg.scenario.name()
            ),
        });
    }

    // The baseline profile is optional (older artifacts predate the guard
    // layer) — but when present it must parse and match the scenario.
    let baseline = load_baseline(dir, scenario.obs_dim())?;

    let (std_traces, real_traces) = Pipeline::new(cfg.clone()).make_traces();
    Ok(PipelineArtifacts {
        scenario: saved_scenario,
        agent,
        convergence,
        obs_qbn,
        hidden_qbn,
        fsm,
        raw_states,
        dataset_len,
        baseline,
        std_traces,
        real_traces,
    })
}

fn load_baseline(dir: &Path, obs_dim: usize) -> Result<Option<BaselineProfile>, ArtifactError> {
    let path = dir.join("baseline.profile");
    let file = match fs::File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(source) => {
            return Err(ArtifactError::Io {
                file: "baseline.profile",
                source,
            })
        }
    };
    let profile = read_profile(&mut BufReader::new(file)).map_err(|e| ArtifactError::Corrupt {
        file: "baseline.profile",
        detail: e.to_string(),
    })?;
    if profile.dim() != obs_dim {
        return Err(ArtifactError::Mismatch {
            detail: format!(
                "baseline profile covers {} dimensions, scenario observations have {}",
                profile.dim(),
                obs_dim
            ),
        });
    }
    Ok(Some(profile))
}

/// Validates that `loaded` has pairwise identical parameter names and shapes
/// to `expected` (a non-panicking precondition of
/// `ParamStore::copy_values_from`), reporting the first discrepancy.
fn check_layout(
    file: &'static str,
    expected: &ParamStore,
    loaded: &ParamStore,
) -> Result<(), ArtifactError> {
    if expected.len() != loaded.len() {
        return Err(ArtifactError::Mismatch {
            detail: format!(
                "{file}: expected {} parameter tensors, found {}",
                expected.len(),
                loaded.len()
            ),
        });
    }
    for ((_, a), (_, b)) in expected.iter().zip(loaded.iter()) {
        if a.name != b.name {
            return Err(ArtifactError::Mismatch {
                detail: format!(
                    "{file}: expected parameter '{}', found '{}'",
                    a.name, b.name
                ),
            });
        }
        if a.value.shape() != b.value.shape() {
            return Err(ArtifactError::Mismatch {
                detail: format!(
                    "{file}: parameter '{}' has shape {:?}, expected {:?}",
                    a.name,
                    b.value.shape(),
                    a.value.shape()
                ),
            });
        }
    }
    Ok(())
}

fn load_convergence(path: &Path) -> Result<Vec<EpochLog>, ArtifactError> {
    let text = fs::read_to_string(path).map_err(|source| ArtifactError::Io {
        file: "convergence.csv",
        source,
    })?;
    let corrupt = |detail: String| ArtifactError::Corrupt {
        file: "convergence.csv",
        detail,
    };
    let mut out = Vec::new();
    for (i, line) in text.lines().skip(1).enumerate() {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != 5 {
            return Err(corrupt(format!(
                "line {} has {} fields, expected 5",
                i + 2,
                cells.len()
            )));
        }
        fn num<T: std::str::FromStr>(cell: &str, line: usize, what: &str) -> Result<T, String> {
            cell.parse()
                .map_err(|_| format!("line {line}: {what} is not a number"))
        }
        let line_no = i + 2;
        out.push(EpochLog {
            epoch: num(cells[0], line_no, "epoch").map_err(&corrupt)?,
            phase: cells[1].to_string(),
            total_steps: num(cells[2], line_no, "total_steps").map_err(&corrupt)?,
            total_reward: num(cells[3], line_no, "total_reward").map_err(&corrupt)?,
            mean_loss: num(cells[4], line_no, "mean_loss").map_err(&corrupt)?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioId;
    use lahd_sim::Observation;

    fn expect_err(r: Result<PipelineArtifacts, ArtifactError>) -> ArtifactError {
        match r {
            Ok(_) => panic!("expected a load error"),
            Err(e) => e,
        }
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lahd-artifacts-{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_preserves_machine_and_agent() {
        let cfg = PipelineConfig::tiny();
        let artifacts = Pipeline::new(cfg.clone()).run();
        let dir = temp_dir("roundtrip");
        save_artifacts(&artifacts, &dir).unwrap();
        let loaded = load_artifacts_checked(&cfg, &dir).expect("loads");
        assert_eq!(loaded.fsm.num_states(), artifacts.fsm.num_states());
        assert_eq!(loaded.raw_states, artifacts.raw_states);
        assert_eq!(loaded.convergence.len(), artifacts.convergence.len());
        let obs = vec![0.25f32; Observation::DIM];
        let a = artifacts
            .agent
            .infer(&obs, &artifacts.agent.initial_state());
        let b = loaded.agent.infer(&obs, &loaded.agent.initial_state());
        assert_eq!(a.logits, b.logits);
        // The baseline profile roundtrips exactly.
        assert_eq!(loaded.baseline, artifacts.baseline);
        assert!(loaded.baseline.is_some(), "pipeline stamps a baseline");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_loads_none() {
        let cfg = PipelineConfig::tiny();
        let err = expect_err(load_artifacts_checked(&cfg, Path::new("/nonexistent/lahd")));
        assert!(matches!(err, ArtifactError::Io { .. }), "{err}");
        assert!(err.to_string().contains("agent.params"), "{err}");
    }

    #[test]
    fn dimension_mismatch_loads_none() {
        let cfg = PipelineConfig::tiny();
        let artifacts = Pipeline::new(cfg.clone()).run();
        let dir = temp_dir("mismatch");
        save_artifacts(&artifacts, &dir).unwrap();
        let mut other = cfg.clone();
        other.hidden_dim += 4;
        let err = expect_err(load_artifacts_checked(&other, &dir));
        assert!(matches!(err, ArtifactError::Mismatch { .. }), "{err}");
        assert!(
            err.to_string().contains("shape"),
            "names the problem: {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_mismatch_loads_none() {
        let cfg = PipelineConfig::tiny();
        let artifacts = Pipeline::new(cfg.clone()).run();
        let dir = temp_dir("scenario-mismatch");
        save_artifacts(&artifacts, &dir).unwrap();
        let mut other = cfg.clone();
        other.scenario = ScenarioId::Readahead;
        let err = expect_err(load_artifacts_checked(&other, &dir));
        // Readahead has different observation dimensions, so the shape check
        // trips before the scenario line is even compared.
        assert!(matches!(err, ArtifactError::Mismatch { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_fsm_is_a_clear_error() {
        let cfg = PipelineConfig::tiny();
        let artifacts = Pipeline::new(cfg.clone()).run();
        let dir = temp_dir("corrupt");
        save_artifacts(&artifacts, &dir).unwrap();
        fs::write(dir.join("fsm.txt"), "garbage").unwrap();
        let err = expect_err(load_artifacts_checked(&cfg, &dir));
        assert!(
            matches!(
                err,
                ArtifactError::Corrupt {
                    file: "fsm.txt",
                    ..
                }
            ),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_params_never_panic() {
        let cfg = PipelineConfig::tiny();
        let artifacts = Pipeline::new(cfg.clone()).run();
        let dir = temp_dir("bitflip");
        save_artifacts(&artifacts, &dir).unwrap();
        for name in [
            "agent.params",
            "obs_qbn.params",
            "hidden_qbn.params",
            "fsm.txt",
            "convergence.csv",
            "baseline.profile",
            "meta.txt",
        ] {
            let path = dir.join(name);
            let original = fs::read(&path).unwrap();
            // Flip a bit in several positions spread through the file; every
            // outcome must be Ok (benign flip, e.g. inside a float's
            // mantissa digits) or a typed error — never a panic.
            for frac in [3, 5, 7] {
                let mut bytes = original.clone();
                let pos = bytes.len() * frac / 10;
                bytes[pos] ^= 0x10;
                fs::write(&path, &bytes).unwrap();
                match load_artifacts_checked(&cfg, &dir) {
                    Ok(_) => {}
                    Err(e) => {
                        assert!(!e.to_string().is_empty());
                    }
                }
            }
            fs::write(&path, &original).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_baseline_is_a_clear_error_and_missing_is_fine() {
        let cfg = PipelineConfig::tiny();
        let artifacts = Pipeline::new(cfg.clone()).run();
        let dir = temp_dir("baseline");
        save_artifacts(&artifacts, &dir).unwrap();
        fs::write(dir.join("baseline.profile"), "not a profile").unwrap();
        let err = expect_err(load_artifacts_checked(&cfg, &dir));
        assert!(
            matches!(
                err,
                ArtifactError::Corrupt {
                    file: "baseline.profile",
                    ..
                }
            ),
            "{err}"
        );
        // Pre-guard artifacts have no baseline at all: still loadable.
        fs::remove_file(dir.join("baseline.profile")).unwrap();
        let loaded = load_artifacts_checked(&cfg, &dir).expect("loads without baseline");
        assert!(loaded.baseline.is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
