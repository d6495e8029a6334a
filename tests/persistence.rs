//! Cross-crate persistence: models and machines survive a disk round-trip
//! and reproduce behaviour exactly.

use std::fs;
use std::io::BufReader;

use lahd::fsm::{read_fsm, write_fsm, FsmExecutor, Metric, VecPolicy};
use lahd::nn::{read_params, write_params};
use lahd::rl::RecurrentActorCritic;
use lahd::sim::{Action, Observation, StorageSim};

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lahd-it-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn agent_roundtrip_preserves_behaviour_bit_exactly() {
    let dir = temp_dir("agent");
    let agent = RecurrentActorCritic::new(Observation::DIM, 24, Action::COUNT, 99);

    let path = dir.join("agent.params");
    let mut buf = Vec::new();
    write_params(&agent.store, &mut buf).expect("serialise");
    fs::write(&path, &buf).expect("write file");

    let file = fs::File::open(&path).expect("open");
    let loaded_store = read_params(&mut BufReader::new(file)).expect("parse");
    let mut restored = RecurrentActorCritic::new(Observation::DIM, 24, Action::COUNT, 0);
    restored.store.copy_values_from(&loaded_store);

    let mut h_a = agent.initial_state();
    let mut h_b = restored.initial_state();
    for t in 0..20 {
        let obs = vec![0.01 * t as f32; Observation::DIM];
        let ia = agent.infer(&obs, &h_a);
        let ib = restored.infer(&obs, &h_b);
        assert_eq!(ia.logits, ib.logits, "diverged at step {t}");
        h_a = ia.hidden;
        h_b = ib.hidden;
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fsm_roundtrip_preserves_policy_decisions() {
    // Build a pipeline at test scale, persist its FSM, reload, and verify
    // the reloaded policy takes identical decisions on a fresh episode.
    let config = lahd::core::PipelineConfig::tiny();
    let artifacts = lahd::core::Pipeline::new(config.clone()).run();

    let dir = temp_dir("fsm");
    let path = dir.join("machine.fsm");
    let mut buf = Vec::new();
    write_fsm(&artifacts.fsm, &mut buf).expect("serialise");
    fs::write(&path, &buf).expect("write");

    let file = fs::File::open(&path).expect("open");
    let restored = read_fsm(&mut BufReader::new(file)).expect("parse");

    let mut original = FsmExecutor::new(
        artifacts.fsm.clone(),
        artifacts.obs_qbn.clone(),
        Metric::Euclidean,
        true,
    );
    let mut reloaded =
        FsmExecutor::new(restored, artifacts.obs_qbn.clone(), Metric::Euclidean, true);

    // Typed simulator runs, so the migration counts compare too.
    let cfg = &config.sim;
    let trace = artifacts.real_traces[0].clone();
    original.reset();
    reloaded.reset();
    let mut sim_a = StorageSim::new(cfg.clone(), trace.clone(), 5);
    let mut sim_b = StorageSim::new(cfg.clone(), trace, 5);
    let a = sim_a.run_with(|obs| Action::from_index(original.act_vec(&obs.to_vector(cfg))));
    let b = sim_b.run_with(|obs| Action::from_index(reloaded.act_vec(&obs.to_vector(cfg))));
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.migrations, b.migrations);
    let _ = fs::remove_dir_all(&dir);
}
