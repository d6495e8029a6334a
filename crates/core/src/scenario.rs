//! The scenario abstraction: what makes the train → QBN → FSM pipeline
//! generic over storage decision problems.
//!
//! The paper's methodology — train a recurrent DRL agent, quantize its
//! bottlenecks, extract an interpretable FSM — is not specific to the
//! Dorado core-migration case study it demonstrates. A [`Scenario`] bundles
//! everything the pipeline needs to know about one decision problem:
//!
//! * the observation dimensionality and the discrete action set (with
//!   display names for reports and DOT export);
//! * a rollout factory for training, dataset collection, fine-tuning and
//!   evaluation ([`Scenario::make_rollout`]; training wraps it in a
//!   [`RolloutEnv`] via `make_env`);
//! * the evaluation baselines domain experts would compare against
//!   ([`Scenario::baselines`]).
//!
//! Registered scenarios are enumerated by [`ScenarioId`]; the default
//! [`ScenarioId::DoradoMigration`] reproduces the paper bit-for-bit, and
//! [`ScenarioId::Readahead`] is the learned readahead/prefetch-sizing
//! problem over the same traces. Adding a scenario means implementing the
//! trait (typically well under 100 lines over an existing simulator) and
//! listing it in [`ScenarioId::ALL`].

use lahd_fsm::{ConstantPolicy, VecPolicy};
use lahd_rl::Env;
use lahd_sim::{
    Action, Observation, ReadaheadConfig, ReadaheadSim, SimConfig, StorageSim, WorkloadTrace,
};

use crate::env::RewardMode;

/// A single policy rollout of a scenario simulator: the minimal surface the
/// pipeline needs to collect transition datasets, fine-tune QBNs in the
/// loop, evaluate policies, and (via [`RolloutEnv`]) train. One instance is
/// one episode. (`Send` so training environments built over rollouts can be
/// stepped on worker threads.)
pub trait ScenarioRollout: Send {
    /// The current normalised observation vector.
    fn observe(&self) -> Vec<f32>;
    /// Applies the action index for the upcoming interval.
    fn step(&mut self, action: usize);
    /// Whether the episode has ended.
    fn is_done(&self) -> bool;
    /// Intervals simulated so far (the makespan once done).
    fn makespan(&self) -> usize;
    /// Arrival horizon `T` of the trace.
    fn horizon(&self) -> usize;
    /// Whether the episode hit the interval cap before draining.
    fn truncated(&self) -> bool;
    /// Total remaining work (KiB) across all stages — drives the shaped
    /// backlog reward.
    fn backlog_kib(&self) -> f64;
}

/// Outcome of one completed rollout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RolloutOutcome {
    /// Episode score — the makespan `K` (lower is better in every
    /// registered scenario).
    pub score: usize,
    /// Arrival horizon `T`.
    pub horizon: usize,
    /// Whether the episode was truncated at the interval cap.
    pub truncated: bool,
}

/// One storage decision problem the pipeline can run end-to-end.
pub trait Scenario: Send + Sync {
    /// Stable identifier (CLI `--scenario` value, artifact metadata).
    fn name(&self) -> &'static str;
    /// One-line description for listings.
    fn description(&self) -> &'static str;
    /// Observation-vector dimensionality.
    fn obs_dim(&self) -> usize;
    /// Number of discrete actions.
    fn num_actions(&self) -> usize;
    /// Action display names in index order.
    fn action_names(&self) -> Vec<String>;
    /// Builds a fresh single-episode rollout over one trace.
    fn make_rollout(
        &self,
        sim: &SimConfig,
        trace: WorkloadTrace,
        seed: u64,
    ) -> Box<dyn ScenarioRollout>;
    /// The scenario's handcrafted/default evaluation baselines.
    fn baselines(&self, sim: &SimConfig) -> Vec<Box<dyn VecPolicy>>;
}

/// Runs `policy` over a fresh rollout to completion.
pub fn run_rollout(
    mut rollout: Box<dyn ScenarioRollout>,
    policy: &mut dyn VecPolicy,
) -> RolloutOutcome {
    policy.reset();
    while !rollout.is_done() {
        let obs = rollout.observe();
        let action = policy.act_vec(&obs);
        rollout.step(action);
    }
    RolloutOutcome {
        score: rollout.makespan(),
        horizon: rollout.horizon(),
        truncated: rollout.truncated(),
    }
}

impl dyn Scenario {
    /// Builds the training environment over one trace: a [`RolloutEnv`]
    /// over this scenario's rollout factory. Every scenario trains on it.
    pub fn make_env(
        &'static self,
        sim: &SimConfig,
        trace: WorkloadTrace,
        reward: RewardMode,
        seed: u64,
    ) -> Box<dyn Env> {
        Box::new(RolloutEnv::new(self, sim.clone(), trace, reward, seed))
    }
}

/// The training [`Env`] over a scenario's rollout factory. Each reset builds
/// a fresh rollout whose noise seed advances by a golden-ratio stride from
/// the base seed, so training sees varied noise while staying reproducible
/// end to end; each step is rewarded by the configured [`RewardMode`].
pub struct RolloutEnv {
    scenario: &'static dyn Scenario,
    sim: SimConfig,
    trace: WorkloadTrace,
    reward: RewardMode,
    base_seed: u64,
    episode: u64,
    rollout: Option<Box<dyn ScenarioRollout>>,
    name: String,
}

impl RolloutEnv {
    /// Creates the environment over one trace.
    pub fn new(
        scenario: &'static dyn Scenario,
        sim: SimConfig,
        trace: WorkloadTrace,
        reward: RewardMode,
        seed: u64,
    ) -> Self {
        let name = format!("{}:{}", scenario.name(), trace.name);
        Self {
            scenario,
            sim,
            trace,
            reward,
            base_seed: seed,
            episode: 0,
            rollout: None,
            name,
        }
    }

    /// Makespan of the episode in progress (or just finished).
    pub fn makespan(&self) -> usize {
        self.rollout.as_ref().map_or(0, |r| r.makespan())
    }
}

impl Env for RolloutEnv {
    fn obs_dim(&self) -> usize {
        self.scenario.obs_dim()
    }

    fn num_actions(&self) -> usize {
        self.scenario.num_actions()
    }

    fn reset(&mut self) -> Vec<f32> {
        let seed = self
            .base_seed
            .wrapping_add(self.episode.wrapping_mul(0x9E37_79B9));
        self.episode += 1;
        let rollout = self
            .scenario
            .make_rollout(&self.sim, self.trace.clone(), seed);
        let obs = rollout.observe();
        self.rollout = Some(rollout);
        obs
    }

    fn step(&mut self, action: usize) -> lahd_rl::Transition {
        let ideal = self.sim.ideal_capability_kib();
        let horizon = self.trace.len() as f32;
        let rollout = self
            .rollout
            .as_mut()
            .expect("reset() must be called before step()");
        rollout.step(action);
        let done = rollout.is_done();

        let mut reward = self
            .reward
            .step_reward(rollout.backlog_kib(), ideal, horizon);
        if done {
            let k = rollout.makespan() as f32;
            reward += self.reward.terminal_reward(horizon, k);
        }

        lahd_rl::Transition {
            obs: rollout.observe(),
            reward,
            done,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

// ----- registry ---------------------------------------------------------

/// Identifier of a registered scenario. `Copy` so it can live in
/// configuration structs; resolve the behaviour with [`ScenarioId::get`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioId {
    /// The paper's Dorado V6 three-level core-migration case study
    /// (the default; numerically identical to the pre-scenario pipeline).
    DoradoMigration,
    /// Learned readahead/prefetch sizing for the NORMAL cache front-end.
    Readahead,
}

impl ScenarioId {
    /// All registered scenarios, in listing order.
    pub const ALL: [ScenarioId; 2] = [ScenarioId::DoradoMigration, ScenarioId::Readahead];

    /// The scenario's stable name.
    pub fn name(self) -> &'static str {
        self.get().name()
    }

    /// Looks a scenario up by its stable name.
    pub fn parse(name: &str) -> Option<ScenarioId> {
        ScenarioId::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Resolves the identifier to its behaviour.
    pub fn get(self) -> &'static dyn Scenario {
        match self {
            ScenarioId::DoradoMigration => &DoradoMigration,
            ScenarioId::Readahead => &ReadaheadScenario,
        }
    }
}

impl std::fmt::Display for ScenarioId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

// ----- Dorado migration (the paper's case study) ------------------------

/// The original case study: migrate one CPU core per interval between the
/// NORMAL/KV/RV levels.
pub struct DoradoMigration;

struct DoradoRollout {
    sim: StorageSim,
}

impl ScenarioRollout for DoradoRollout {
    fn observe(&self) -> Vec<f32> {
        self.sim.observation().to_vector(self.sim.config())
    }

    fn step(&mut self, action: usize) {
        self.sim.step(Action::from_index(action));
    }

    fn is_done(&self) -> bool {
        self.sim.is_done()
    }

    fn makespan(&self) -> usize {
        self.sim.makespan()
    }

    fn horizon(&self) -> usize {
        self.sim.trace().len()
    }

    fn truncated(&self) -> bool {
        self.sim.is_truncated()
    }

    fn backlog_kib(&self) -> f64 {
        self.sim.backlog_kib()
    }
}

impl Scenario for DoradoMigration {
    fn name(&self) -> &'static str {
        "dorado-migration"
    }

    fn description(&self) -> &'static str {
        "Dorado V6 three-level CPU-core migration (the paper's case study)"
    }

    fn obs_dim(&self) -> usize {
        Observation::DIM
    }

    fn num_actions(&self) -> usize {
        Action::COUNT
    }

    fn action_names(&self) -> Vec<String> {
        Action::ALL.iter().map(|a| a.to_string()).collect()
    }

    fn make_rollout(
        &self,
        sim: &SimConfig,
        trace: WorkloadTrace,
        seed: u64,
    ) -> Box<dyn ScenarioRollout> {
        Box::new(DoradoRollout {
            sim: StorageSim::new(sim.clone(), trace, seed),
        })
    }

    fn baselines(&self, _sim: &SimConfig) -> Vec<Box<dyn VecPolicy>> {
        // The production default ("no migration"). The utilisation-driven
        // handcrafted FSM remains available through the typed evaluation
        // path (`lahd_fsm::HandcraftedFsm`), which consumes structured
        // observations rather than vectors.
        vec![Box::new(ConstantPolicy::new(0, "default"))]
    }
}

// ----- learned readahead ------------------------------------------------

/// Learned readahead/prefetch sizing (KML-style) for the NORMAL cache
/// front-end: per-interval choice of the readahead window over the same
/// workload traces, cache-miss model and Poisson idleness.
pub struct ReadaheadScenario;

struct ReadaheadRollout {
    sim: ReadaheadSim,
}

impl ScenarioRollout for ReadaheadRollout {
    fn observe(&self) -> Vec<f32> {
        self.sim.observation()
    }

    fn step(&mut self, action: usize) {
        self.sim.step(action);
    }

    fn is_done(&self) -> bool {
        self.sim.is_done()
    }

    fn makespan(&self) -> usize {
        self.sim.makespan()
    }

    fn horizon(&self) -> usize {
        self.sim.horizon()
    }

    fn truncated(&self) -> bool {
        self.sim.is_truncated()
    }

    fn backlog_kib(&self) -> f64 {
        self.sim.backlog_kib()
    }
}

/// The handcrafted readahead heuristic an expert would ship: scale the
/// window with the observed sequentiality of the incoming read stream
/// (the classic OS readahead rule KML sets out to replace).
struct SeqShareReadahead {
    num_windows: usize,
    name: String,
}

impl SeqShareReadahead {
    /// Index of the sequential-share feature in the readahead observation
    /// (see `ReadaheadSim::observation`).
    const SEQ_SHARE: usize = 3;
}

impl VecPolicy for SeqShareReadahead {
    fn reset(&mut self) {}

    fn act_vec(&mut self, obs: &[f32]) -> usize {
        let seq = obs
            .get(Self::SEQ_SHARE)
            .copied()
            .unwrap_or(0.0)
            .clamp(0.0, 1.0);
        // Map sequentiality linearly onto the window ladder.
        ((seq * self.num_windows as f32) as usize).min(self.num_windows - 1)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl ReadaheadScenario {
    /// The single source of the scenario's readahead configuration: every
    /// trait method (action space, rollout, baselines) derives from this
    /// constructor, so the registered scenario's window ladder — pinned to
    /// [`ReadaheadConfig::DEFAULT_WINDOWS`] by `from_base` — cannot diverge
    /// between the trained agent and the environments. (Custom window
    /// ladders are a `ReadaheadSim` library affair, outside the registry.)
    fn config(sim: &SimConfig) -> ReadaheadConfig {
        ReadaheadConfig::from_base(sim.clone())
    }
}

impl Scenario for ReadaheadScenario {
    fn name(&self) -> &'static str {
        "readahead"
    }

    fn description(&self) -> &'static str {
        "learned readahead/prefetch sizing for the NORMAL cache front-end"
    }

    fn obs_dim(&self) -> usize {
        ReadaheadSim::OBS_DIM
    }

    fn num_actions(&self) -> usize {
        Self::config(&SimConfig::default()).num_actions()
    }

    fn action_names(&self) -> Vec<String> {
        Self::config(&SimConfig::default()).action_names()
    }

    fn make_rollout(
        &self,
        sim: &SimConfig,
        trace: WorkloadTrace,
        seed: u64,
    ) -> Box<dyn ScenarioRollout> {
        Box::new(ReadaheadRollout {
            sim: ReadaheadSim::new(Self::config(sim), trace, seed),
        })
    }

    fn baselines(&self, sim: &SimConfig) -> Vec<Box<dyn VecPolicy>> {
        let n = Self::config(sim).num_actions();
        vec![
            Box::new(ConstantPolicy::new(0, "ra-off")),
            Box::new(ConstantPolicy::new(n - 1, "ra-max")),
            Box::new(SeqShareReadahead {
                num_windows: n,
                name: "seq-share".to_string(),
            }),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahd_workload::{standard_trace_set, IntervalWorkload, NUM_IO_CLASSES};

    fn quiet_cfg() -> SimConfig {
        SimConfig {
            idle_lambda: 0.0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn registry_names_are_stable_and_parseable() {
        assert_eq!(ScenarioId::ALL.len(), 2);
        for id in ScenarioId::ALL {
            assert_eq!(ScenarioId::parse(id.name()), Some(id));
            let sc = id.get();
            assert!(sc.obs_dim() > 0);
            assert_eq!(sc.action_names().len(), sc.num_actions());
            assert!(!sc.description().is_empty());
        }
        assert_eq!(
            ScenarioId::parse("dorado-migration"),
            Some(ScenarioId::DoradoMigration)
        );
        assert_eq!(ScenarioId::parse("readahead"), Some(ScenarioId::Readahead));
        assert_eq!(ScenarioId::parse("unknown"), None);
    }

    #[test]
    fn dorado_scenario_matches_paper_dimensions() {
        let sc = ScenarioId::DoradoMigration.get();
        assert_eq!(sc.obs_dim(), 35);
        assert_eq!(sc.num_actions(), 7);
        assert_eq!(sc.action_names()[0], "Noop");
    }

    #[test]
    fn env_dimensions_agree_with_scenario() {
        let trace = standard_trace_set(8, 0).remove(0);
        for id in ScenarioId::ALL {
            let sc = id.get();
            let mut env = sc.make_env(&quiet_cfg(), trace.clone(), RewardMode::shaped(), 0);
            assert_eq!(env.obs_dim(), sc.obs_dim(), "{id}");
            assert_eq!(env.num_actions(), sc.num_actions(), "{id}");
            let obs = env.reset();
            assert_eq!(obs.len(), sc.obs_dim(), "{id}");
        }
    }

    #[test]
    fn dorado_env_matches_a_hand_stepped_storage_sim() {
        // The Dorado training env is the generic RolloutEnv; pin it to the
        // simulator stepped by hand with the per-episode seed stride and the
        // RewardMode arithmetic, bit for bit, over noisy episodes.
        let cfg = SimConfig {
            idle_lambda: 2.0,
            ..SimConfig::default()
        };
        let trace = standard_trace_set(12, 0).remove(0);
        let horizon = trace.len() as f32;
        let base_seed = 41u64;
        for reward in [RewardMode::paper(), RewardMode::shaped()] {
            let mut env =
                ScenarioId::DoradoMigration
                    .get()
                    .make_env(&cfg, trace.clone(), reward, base_seed);
            for episode in 0..2u64 {
                let seed = base_seed.wrapping_add(episode.wrapping_mul(0x9E37_79B9));
                let mut sim = StorageSim::new(cfg.clone(), trace.clone(), seed);
                assert_eq!(env.reset(), sim.observation().to_vector(&cfg));
                let mut t = 0usize;
                loop {
                    let action = (t * 3 + episode as usize) % Action::COUNT;
                    let result = sim.step(Action::from_index(action));
                    let mut expected =
                        reward.step_reward(result.backlog_kib, cfg.ideal_capability_kib(), horizon);
                    if result.done {
                        expected += reward.terminal_reward(horizon, sim.makespan() as f32);
                    }
                    let tr = env.step(action);
                    assert_eq!(
                        tr.obs,
                        sim.observation().to_vector(&cfg),
                        "{reward:?} t={t}"
                    );
                    assert_eq!(tr.reward.to_bits(), expected.to_bits(), "{reward:?} t={t}");
                    assert_eq!(tr.done, result.done, "{reward:?} t={t}");
                    t += 1;
                    if tr.done {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn rollouts_complete_under_every_baseline() {
        let trace = standard_trace_set(8, 0).remove(0);
        for id in ScenarioId::ALL {
            let sc = id.get();
            for mut baseline in sc.baselines(&quiet_cfg()) {
                let rollout = sc.make_rollout(&quiet_cfg(), trace.clone(), 0);
                let outcome = run_rollout(rollout, baseline.as_mut());
                assert!(!outcome.truncated, "{id}/{}", baseline.name());
                assert!(outcome.score >= outcome.horizon, "{id}/{}", baseline.name());
            }
        }
    }

    #[test]
    fn readahead_paper_reward_is_terminal_only() {
        let trace = standard_trace_set(6, 0).remove(0);
        let mut env =
            ScenarioId::Readahead
                .get()
                .make_env(&quiet_cfg(), trace, RewardMode::paper(), 0);
        env.reset();
        let mut rewards = Vec::new();
        loop {
            let tr = env.step(0);
            rewards.push(tr.reward);
            if tr.done {
                break;
            }
        }
        let (last, rest) = rewards.split_last().unwrap();
        assert!(rest.iter().all(|&r| r == 0.0));
        assert!(*last > 0.0, "terminal reward must be positive, got {last}");
    }

    #[test]
    fn rollout_env_episodes_are_reproducible_per_seed() {
        let noisy = SimConfig {
            idle_lambda: 2.0,
            ..SimConfig::default()
        };
        let trace = standard_trace_set(10, 0).remove(0);
        for id in ScenarioId::ALL {
            let run = || {
                let mut env = id
                    .get()
                    .make_env(&noisy, trace.clone(), RewardMode::shaped(), 3);
                let mut rewards = Vec::new();
                for _ in 0..2 {
                    env.reset();
                    loop {
                        let tr = env.step(2);
                        rewards.push(tr.reward);
                        if tr.done {
                            break;
                        }
                    }
                }
                rewards
            };
            assert_eq!(run(), run(), "{id}");
        }
    }

    #[test]
    fn dorado_rollout_observation_matches_typed_path() {
        let trace = standard_trace_set(8, 0).remove(0);
        let cfg = quiet_cfg();
        let rollout = ScenarioId::DoradoMigration
            .get()
            .make_rollout(&cfg, trace.clone(), 7);
        let sim = StorageSim::new(cfg.clone(), trace, 7);
        assert_eq!(rollout.observe(), sim.observation().to_vector(&cfg));
    }

    #[test]
    fn seq_share_heuristic_scales_with_sequentiality() {
        let mut p = SeqShareReadahead {
            num_windows: 5,
            name: "t".into(),
        };
        let mut obs = vec![0.0f32; ReadaheadSim::OBS_DIM];
        obs[SeqShareReadahead::SEQ_SHARE] = 0.0;
        assert_eq!(p.act_vec(&obs), 0);
        obs[SeqShareReadahead::SEQ_SHARE] = 1.0;
        assert_eq!(p.act_vec(&obs), 4);
        obs[SeqShareReadahead::SEQ_SHARE] = 0.5;
        let mid = p.act_vec(&obs);
        assert!(mid >= 1 && mid <= 3, "mid sequentiality picked {mid}");
    }

    #[test]
    fn readahead_observation_seq_share_feature_is_live() {
        // The heuristic's feature index must match the simulator layout: a
        // pure sequential trace must present seq_share 1.0 at that index.
        let mut mix = [0.0; NUM_IO_CLASSES];
        mix[5] = 1.0; // 128 KiB reads
        let trace =
            lahd_workload::WorkloadTrace::new("seq", vec![IntervalWorkload::new(mix, 100.0); 4]);
        let rollout = ScenarioId::Readahead
            .get()
            .make_rollout(&quiet_cfg(), trace, 0);
        let obs = rollout.observe();
        assert_eq!(obs[SeqShareReadahead::SEQ_SHARE], 1.0);
    }
}
