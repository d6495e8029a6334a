//! The guarded execution harness: a [`VecPolicy`] wrapper that serves
//! decisions from a ladder of policy tiers and demotes/restores the serving
//! tier through a hysteresis state machine driven by shadow divergence and
//! observation drift.
//!
//! # Tier ladder
//!
//! Tier 0 is the **primary** (the deployed extracted FSM); later tiers are
//! progressively more conservative fallbacks (quantized net → exact net →
//! constant baseline in the standard deployment, see
//! `lahd_core::guard_eval`). One tier — the `shadow_tier` — is designated
//! the *reference*: the teacher the primary is supposed to be faithful to.
//!
//! # Execution model
//!
//! Every decision is served synchronously by the active tier alone; the
//! observation is buffered, and every `flush_every` steps the buffered
//! stream is replayed through the *other* tiers in one deferred batch (the
//! shadow-mode of the paper's deployment story: the FSM answers on the hot
//! path, the nets replay asynchronously). Because every tier consumes the
//! full observation stream, recurrent fallbacks keep warm hidden state and
//! a tier switch at a flush boundary is seamless. Primary-vs-reference
//! actions are compared on a seeded sample of steps and health is
//! re-evaluated at each flush.
//!
//! # Health state machine
//!
//! ```text
//!            bad×suspect_after        bad×trip_after
//!  Healthy ───────────────────▶ Suspect ─────────────▶ FallenBack ─┐
//!     ▲                            │ good×clear_after      │  ▲    │ bad×escalate_after
//!     │                            ▼                       │  └────┘ (demote one tier)
//!     │                         Healthy    good×recover_after
//!     │                                                    ▼
//!     └───────────── good×heal_after ─────────────── Recovering
//!                   (restore primary)                      │ bad
//!                                                          ▼
//!                                                     FallenBack
//! ```
//!
//! "bad" / "good" are hysteresis bands around the divergence and drift trip
//! thresholds (`clear_margin` < 1 separates them), so the machine cannot
//! flap on a score hovering at the threshold. Every transition is recorded
//! with the scores that caused it.
//!
//! All of it is deterministic under a fixed seed: sampling is a pure
//! function of `(seed, step)`, thresholds are fixed, and replay order is
//! the tier order.

use lahd_fsm::VecPolicy;

use crate::drift::{DriftDetector, DriftScore};
use crate::shadow::{ShadowSample, ShadowTracker};
use crate::stats::BaselineProfile;

/// Health of the guarded policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Serving the primary tier; all signals nominal.
    Healthy,
    /// Serving the primary tier; signals elevated, watching closely.
    Suspect,
    /// Serving a fallback tier.
    FallenBack,
    /// Signals recovered; still serving the fallback while confirming.
    Recovering,
}

impl HealthState {
    /// Stable lower-case name (reports, logs, JSON).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::FallenBack => "fallen-back",
            HealthState::Recovering => "recovering",
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Thresholds and cadences of the guard state machine. All counts are in
/// health evaluations (one per `flush_every` decisions).
#[derive(Clone, Debug)]
pub struct GuardConfig {
    /// Sliding window, in decision steps, for drift statistics and the
    /// divergence rate.
    pub window: usize,
    /// Deferred-replay / health-evaluation cadence in decision steps.
    pub flush_every: usize,
    /// Shadow comparisons sample ~1 in this many steps.
    pub sample_period: usize,
    /// Divergence rate at/above which an evaluation counts as bad.
    pub divergence_trip: f64,
    /// Drift score (see [`DriftScore::score`]) at/above which an evaluation
    /// counts as bad.
    pub drift_trip: f64,
    /// Hysteresis: an evaluation counts as good only when every signal is
    /// below `trip × clear_margin`.
    pub clear_margin: f64,
    /// Minimum sampled comparisons in the window before the divergence rate
    /// is acted on.
    pub min_div_samples: usize,
    /// Minimum observations in the drift window before the drift score is
    /// acted on — a handful of samples cannot be compared against a
    /// training-scale baseline without false alarms.
    pub min_drift_samples: usize,
    /// Consecutive bad evaluations before Healthy → Suspect.
    pub suspect_after: usize,
    /// Consecutive bad evaluations before Suspect → FallenBack.
    pub trip_after: usize,
    /// Consecutive good evaluations before Suspect → Healthy.
    pub clear_after: usize,
    /// Consecutive good evaluations before FallenBack → Recovering.
    pub recover_after: usize,
    /// Consecutive good evaluations before Recovering → Healthy.
    pub heal_after: usize,
    /// Consecutive bad evaluations while FallenBack before demoting one
    /// more tier down the ladder.
    pub escalate_after: usize,
    /// A run of this many identical consecutive observations counts as a
    /// stuck input (bad), whatever the distributional scores say.
    pub stuck_after: usize,
    /// Capacity of the shadow-sample ring log.
    pub log_capacity: usize,
    /// Seed for the sampled-comparison selection.
    pub seed: u64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            window: 64,
            flush_every: 8,
            sample_period: 2,
            divergence_trip: 0.5,
            // Clean observation streams score up to ~5.5 against a
            // training-time baseline (partial windows dominated by episode
            // warmup, and trajectories steered by a *fallback* tier rather
            // than the trained policy), while injected sensor faults score
            // in the hundreds. The trip and the clear threshold
            // (trip × clear_margin = 6.0) both sit above that clean band so
            // a healthy stream neither trips nor blocks recovery.
            drift_trip: 12.0,
            clear_margin: 0.5,
            min_div_samples: 4,
            min_drift_samples: 32,
            suspect_after: 1,
            trip_after: 2,
            clear_after: 2,
            recover_after: 2,
            heal_after: 2,
            escalate_after: 6,
            stuck_after: 48,
            log_capacity: 256,
            seed: 0,
        }
    }
}

/// One recorded health/tier transition.
#[derive(Clone, Debug)]
pub struct TransitionRecord {
    /// Global decision step of the evaluation that triggered it.
    pub step: u64,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// Serving tier before.
    pub from_tier: usize,
    /// Serving tier after.
    pub to_tier: usize,
    /// Divergence rate at the evaluation (0 when below `min_div_samples`).
    pub divergence: f64,
    /// Drift score at the evaluation.
    pub drift: f64,
    /// Stuck-input run length at the evaluation.
    pub stuck_run: usize,
    /// Dominant signal ("divergence", "drift", "stuck-input", "cleared").
    pub reason: &'static str,
}

/// Read-only snapshot of a guard's accumulated evidence, for reporting.
#[derive(Clone, Debug)]
pub struct GuardSnapshot {
    /// Current health.
    pub state: HealthState,
    /// Currently serving tier.
    pub active_tier: usize,
    /// Tier names, ladder order.
    pub tier_names: Vec<String>,
    /// Decisions served by each tier.
    pub tier_steps: Vec<u64>,
    /// Total decisions served.
    pub steps: u64,
    /// All recorded transitions, in order.
    pub transitions: Vec<TransitionRecord>,
    /// Lifetime sampled comparisons.
    pub compared: u64,
    /// Lifetime diverged comparisons.
    pub diverged: u64,
    /// Highest drift score observed at any evaluation.
    pub drift_peak: f64,
    /// Scores at the most recent evaluation.
    pub last_divergence: f64,
    /// Drift score at the most recent evaluation.
    pub last_drift: f64,
    /// Ring-logged shadow samples, oldest first.
    pub samples: Vec<ShadowSample>,
}

struct PendingStep {
    step: u64,
    obs: Vec<f32>,
    served: usize,
}

/// A [`VecPolicy`] that wraps a tier ladder in the guarded execution
/// harness. See the module docs for the execution model.
pub struct GuardedPolicy {
    tiers: Vec<Box<dyn VecPolicy>>,
    tier_names: Vec<String>,
    shadow_tier: usize,
    cfg: GuardConfig,
    drift: DriftDetector,
    shadow: ShadowTracker,
    pending: Vec<PendingStep>,
    state: HealthState,
    active: usize,
    step: u64,
    tier_steps: Vec<u64>,
    transitions: Vec<TransitionRecord>,
    bad_evals: usize,
    good_evals: usize,
    drift_peak: f64,
    last_divergence: f64,
    last_drift: f64,
    name: String,
}

impl GuardedPolicy {
    /// Wraps `tiers` (ladder order: primary first, most conservative last)
    /// with the guard. `shadow_tier` selects the reference tier the primary
    /// is compared against and must not be tier 0.
    ///
    /// # Panics
    /// Panics if the ladder has fewer than two tiers, `shadow_tier` is out
    /// of range or zero, or the baseline dimensionality is zero.
    pub fn new(
        tiers: Vec<Box<dyn VecPolicy>>,
        shadow_tier: usize,
        baseline: BaselineProfile,
        cfg: GuardConfig,
    ) -> Self {
        assert!(tiers.len() >= 2, "a guard needs at least one fallback tier");
        assert!(
            shadow_tier > 0 && shadow_tier < tiers.len(),
            "shadow tier must be a fallback tier index"
        );
        assert!(baseline.dim() > 0, "baseline profile is empty");
        let tier_names = tiers.iter().map(|t| t.name().to_string()).collect();
        let drift = DriftDetector::new(baseline, cfg.window);
        let shadow = ShadowTracker::new(cfg.sample_period, cfg.window, cfg.log_capacity, cfg.seed);
        let n = tiers.len();
        Self {
            tiers,
            tier_names,
            shadow_tier,
            cfg,
            drift,
            shadow,
            pending: Vec::new(),
            state: HealthState::Healthy,
            active: 0,
            step: 0,
            tier_steps: vec![0; n],
            transitions: Vec::new(),
            bad_evals: 0,
            good_evals: 0,
            drift_peak: 0.0,
            last_divergence: 0.0,
            last_drift: 0.0,
            name: "guarded".to_string(),
        }
    }

    /// Current health.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Index of the currently serving tier.
    pub fn active_tier(&self) -> usize {
        self.active
    }

    /// Decisions served so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// All recorded transitions so far.
    pub fn transitions(&self) -> &[TransitionRecord] {
        &self.transitions
    }

    /// Snapshot of everything the guard has accumulated (flushes pending
    /// shadow replay first so the evidence is complete).
    pub fn snapshot(&mut self) -> GuardSnapshot {
        self.flush();
        let (compared, diverged) = self.shadow.totals();
        GuardSnapshot {
            state: self.state,
            active_tier: self.active,
            tier_names: self.tier_names.clone(),
            tier_steps: self.tier_steps.clone(),
            steps: self.step,
            transitions: self.transitions.clone(),
            compared,
            diverged,
            drift_peak: self.drift_peak,
            last_divergence: self.last_divergence,
            last_drift: self.last_drift,
            samples: self.shadow.samples().copied().collect(),
        }
    }

    /// Replays the buffered observation stream through every non-serving
    /// tier and records sampled primary-vs-reference comparisons.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut primary: Vec<usize> = Vec::new();
        let mut reference: Vec<usize> = Vec::new();
        for (t, tier) in self.tiers.iter_mut().enumerate() {
            if t == self.active {
                continue;
            }
            if t != 0 && t != self.shadow_tier {
                // Keep non-compared fallbacks warm without collecting.
                for p in &self.pending {
                    tier.act_vec(&p.obs);
                }
                continue;
            }
            let actions: Vec<usize> = self.pending.iter().map(|p| tier.act_vec(&p.obs)).collect();
            if t == 0 {
                primary = actions;
            } else {
                reference = actions;
            }
        }
        // The serving tier already produced its actions on the hot path.
        if self.active == 0 {
            primary = self.pending.iter().map(|p| p.served).collect();
        }
        if self.active == self.shadow_tier {
            reference = self.pending.iter().map(|p| p.served).collect();
        }
        for (i, p) in self.pending.iter().enumerate() {
            if self.shadow.is_sampled(p.step) {
                self.shadow.record(ShadowSample {
                    step: p.step,
                    primary_action: primary[i],
                    shadow_action: reference[i],
                    diverged: primary[i] != reference[i],
                });
            }
        }
        self.pending.clear();
    }

    /// One health evaluation at a flush boundary.
    fn evaluate(&mut self) {
        let mut drift = self.drift.score();
        if drift.samples < self.cfg.min_drift_samples {
            // Too few observations to compare against a training-scale
            // baseline — treat the distributional score as no evidence.
            // The stuck-input run is exact and stays live.
            drift.score = 0.0;
        }
        let divergence = self
            .shadow
            .rate(self.step, self.cfg.min_div_samples)
            .unwrap_or(0.0);
        self.last_divergence = divergence;
        self.last_drift = drift.score;
        self.drift_peak = self.drift_peak.max(drift.score);

        let stuck = drift.stuck_run >= self.cfg.stuck_after;
        let bad =
            stuck || divergence >= self.cfg.divergence_trip || drift.score >= self.cfg.drift_trip;
        let good = !stuck
            && divergence <= self.cfg.divergence_trip * self.cfg.clear_margin
            && drift.score <= self.cfg.drift_trip * self.cfg.clear_margin;
        if bad {
            self.bad_evals += 1;
            self.good_evals = 0;
        } else if good {
            self.good_evals += 1;
            self.bad_evals = 0;
        } else {
            // Ambiguous band between clear and trip: hold, requiring the
            // consecutive runs to restart.
            self.bad_evals = 0;
            self.good_evals = 0;
        }

        let bad_reason = if stuck {
            "stuck-input"
        } else if drift.score >= self.cfg.drift_trip {
            "drift"
        } else {
            "divergence"
        };

        match self.state {
            HealthState::Healthy => {
                if bad && self.bad_evals >= self.cfg.suspect_after {
                    self.transition(
                        HealthState::Suspect,
                        self.active,
                        &drift,
                        divergence,
                        bad_reason,
                    );
                }
            }
            HealthState::Suspect => {
                if bad && self.bad_evals >= self.cfg.trip_after {
                    let to_tier = (self.active + 1).min(self.tiers.len() - 1);
                    self.transition(
                        HealthState::FallenBack,
                        to_tier,
                        &drift,
                        divergence,
                        bad_reason,
                    );
                } else if good && self.good_evals >= self.cfg.clear_after {
                    self.transition(
                        HealthState::Healthy,
                        self.active,
                        &drift,
                        divergence,
                        "cleared",
                    );
                }
            }
            HealthState::FallenBack => {
                if good && self.good_evals >= self.cfg.recover_after {
                    self.transition(
                        HealthState::Recovering,
                        self.active,
                        &drift,
                        divergence,
                        "cleared",
                    );
                } else if bad
                    && self.bad_evals >= self.cfg.escalate_after
                    && self.active + 1 < self.tiers.len()
                {
                    let to_tier = self.active + 1;
                    self.transition(
                        HealthState::FallenBack,
                        to_tier,
                        &drift,
                        divergence,
                        bad_reason,
                    );
                }
            }
            HealthState::Recovering => {
                if bad {
                    self.transition(
                        HealthState::FallenBack,
                        self.active,
                        &drift,
                        divergence,
                        bad_reason,
                    );
                } else if good && self.good_evals >= self.cfg.heal_after {
                    self.transition(HealthState::Healthy, 0, &drift, divergence, "cleared");
                }
            }
        }
    }

    /// Serving-daemon integration hook: records one decision whose action
    /// the caller computed *externally* for the active tier — e.g. a shard
    /// worker that batched many streams' active-tier inferences through one
    /// `infer_batch` call. Bookkeeping is identical to
    /// [`VecPolicy::act_vec`] (drift observation, pending buffer, flush
    /// cadence, tier accounting) except that the active tier is not
    /// invoked; the caller is responsible for having advanced the active
    /// tier's recurrent state with this observation.
    pub fn record_served(&mut self, obs: &[f32], action: usize) {
        self.drift.observe(obs);
        self.tier_steps[self.active] += 1;
        self.pending.push(PendingStep {
            step: self.step,
            obs: obs.to_vec(),
            served: action,
        });
        self.step += 1;
        if self.step % self.cfg.flush_every as u64 == 0 {
            self.flush();
            self.evaluate();
        }
    }

    fn transition(
        &mut self,
        to: HealthState,
        to_tier: usize,
        drift: &DriftScore,
        divergence: f64,
        reason: &'static str,
    ) {
        self.transitions.push(TransitionRecord {
            step: self.step,
            from: self.state,
            to,
            from_tier: self.active,
            to_tier,
            divergence,
            drift: drift.score,
            stuck_run: drift.stuck_run,
            reason,
        });
        self.state = to;
        self.active = to_tier;
        self.bad_evals = 0;
        self.good_evals = 0;
    }
}

impl VecPolicy for GuardedPolicy {
    /// Episode reset: finishes the deferred replay so no evidence is lost,
    /// then resets every tier's episode state. Health, the serving tier and
    /// the accumulated statistics deliberately survive — a deployed guard
    /// outlives episodes.
    fn reset(&mut self) {
        self.flush();
        for tier in &mut self.tiers {
            tier.reset();
        }
    }

    fn act_vec(&mut self, obs: &[f32]) -> usize {
        let action = self.tiers[self.active].act_vec(obs);
        self.record_served(obs, action);
        action
    }

    fn name(&self) -> &str {
        &self.name
    }
}
