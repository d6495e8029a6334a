//! End-to-end behaviour of the guard state machine over synthetic tier
//! ladders, where divergence and drift are under the test's direct control:
//! trip, fallback-only serving while degraded, escalation down the ladder,
//! stuck-input detection, and full recovery.

use lahd_fsm::VecPolicy;
use lahd_guard::{BaselineProfile, GuardConfig, GuardedPolicy, HealthState, StreamingProfile};

/// Chooses action 1 when `obs[0] > 0.5`, else 0 — the "primary" whose
/// agreement with the constant shadow is decided by the observation stream.
struct Threshold;

impl VecPolicy for Threshold {
    fn reset(&mut self) {}

    fn act_vec(&mut self, obs: &[f32]) -> usize {
        usize::from(obs[0] > 0.5)
    }

    fn name(&self) -> &str {
        "threshold"
    }
}

/// Always chooses `action`.
struct Constant(usize, &'static str);

impl VecPolicy for Constant {
    fn reset(&mut self) {}

    fn act_vec(&mut self, _obs: &[f32]) -> usize {
        self.0
    }

    fn name(&self) -> &str {
        self.1
    }
}

/// A 2-dim baseline covering the unit interval, so any observation in
/// [0, 1] is in-distribution and drift never interferes with the
/// divergence-driven tests.
fn unit_baseline() -> BaselineProfile {
    let mut sp = StreamingProfile::new(2);
    for i in 0..256 {
        let x = (i % 32) as f32 / 31.0;
        sp.push(&[x, 1.0 - x]);
    }
    sp.profile()
}

/// An in-distribution observation near `base`, wobbled so consecutive
/// observations are never identical (the stuck detector must stay quiet).
fn obs(i: u64, base: f32) -> Vec<f32> {
    let w = (i % 7) as f32 * 0.01;
    vec![base + w, 1.0 - base - w]
}

fn cfg() -> GuardConfig {
    GuardConfig::default()
}

#[test]
fn divergence_trips_fallback_serves_and_recovery_restores_primary() {
    let tiers: Vec<Box<dyn VecPolicy>> = vec![
        Box::new(Threshold),
        Box::new(Constant(0, "shadow-net")),
        Box::new(Constant(0, "last-resort")),
    ];
    let mut guard = GuardedPolicy::new(tiers, 1, unit_baseline(), cfg());

    // Disagreeing regime: primary says 1, shadow says 0, on every step.
    for _ in 0..32 {
        // Tier switches happen at flush boundaries inside act_vec, so the
        // tier that serves this step is the one active *before* the call.
        let serving = guard.active_tier();
        let action = guard.act_vec(&obs(guard.steps(), 0.8));
        if serving > 0 {
            assert_eq!(action, 0, "fallback tiers always answer 0");
        }
    }
    assert_eq!(
        guard.state(),
        HealthState::FallenBack,
        "tripped on divergence"
    );
    assert!(guard.active_tier() > 0, "a fallback tier is serving");

    // While degraded, only fallback tiers serve.
    let primary_steps_when_tripped = guard.snapshot().tier_steps[0];
    for _ in 0..64 {
        assert!(
            guard.active_tier() > 0,
            "degraded guard must not serve tier 0"
        );
        let action = guard.act_vec(&obs(guard.steps(), 0.8));
        assert_eq!(action, 0);
    }
    assert_eq!(
        guard.snapshot().tier_steps[0],
        primary_steps_when_tripped,
        "tier 0 served nothing while degraded"
    );

    // Agreeing regime: divergence decays as the window slides, and the
    // guard walks FallenBack -> Recovering -> Healthy back onto tier 0.
    for _ in 0..400 {
        guard.act_vec(&obs(guard.steps(), 0.2));
        if guard.state() == HealthState::Healthy {
            break;
        }
    }
    assert_eq!(guard.state(), HealthState::Healthy, "recovered");
    assert_eq!(guard.active_tier(), 0, "primary restored");
    let states: Vec<HealthState> = guard.transitions().iter().map(|t| t.to).collect();
    assert!(states.contains(&HealthState::Recovering), "{states:?}");
    // A few more healthy steps: the restored primary is really serving.
    for _ in 0..8 {
        guard.act_vec(&obs(guard.steps(), 0.2));
    }
    let snap = guard.snapshot();
    assert!(
        snap.tier_steps[0] > primary_steps_when_tripped,
        "primary serves again"
    );
}

#[test]
fn persistent_badness_escalates_to_the_last_resort_and_stays_in_range() {
    let tiers: Vec<Box<dyn VecPolicy>> = vec![
        Box::new(Threshold),
        Box::new(Constant(0, "shadow-net")),
        Box::new(Constant(2, "mid-tier")),
        Box::new(Constant(3, "last-resort")),
    ];
    let mut guard = GuardedPolicy::new(tiers, 1, unit_baseline(), cfg());

    let mut served_last_resort = false;
    for _ in 0..400 {
        let action = guard.act_vec(&obs(guard.steps(), 0.8));
        assert!(guard.active_tier() < 4);
        served_last_resort |= action == 3;
    }
    assert_eq!(
        guard.active_tier(),
        3,
        "sustained badness escalates to the bottom of the ladder: {:?}",
        guard.transitions()
    );
    assert!(served_last_resort, "the last resort actually served");

    // Demotions were recorded one tier at a time, monotonically.
    let demotions: Vec<(usize, usize)> = guard
        .transitions()
        .iter()
        .filter(|t| t.to_tier > t.from_tier)
        .map(|t| (t.from_tier, t.to_tier))
        .collect();
    assert!(demotions.len() >= 3, "{demotions:?}");
    for (from, to) in demotions {
        assert_eq!(to, from + 1, "ladder is walked one rung at a time");
    }
}

#[test]
fn stuck_input_trips_even_when_all_tiers_agree() {
    // Primary and shadow are identical: divergence is structurally zero,
    // and the frozen observation sits at the centre of the baseline, so
    // only the stuck detector can notice the fault.
    let tiers: Vec<Box<dyn VecPolicy>> = vec![
        Box::new(Constant(0, "primary")),
        Box::new(Constant(0, "shadow-net")),
    ];
    let mut guard = GuardedPolicy::new(tiers, 1, unit_baseline(), cfg());

    let frozen = vec![0.5f32, 0.5];
    for _ in 0..96 {
        guard.act_vec(&frozen);
    }
    assert_ne!(guard.state(), HealthState::Healthy, "stuck input noticed");
    assert!(
        guard
            .transitions()
            .iter()
            .any(|t| t.reason == "stuck-input"),
        "transition blamed on the stuck input: {:?}",
        guard.transitions()
    );
}

/// Flapping pin: a stream that alternates short fault episodes with clean
/// recovery windows must not oscillate Healthy ↔ FallenBack faster than
/// the hysteresis windows allow. Every threshold in the default config is
/// expressed in health evaluations (one per `flush_every` steps), so the
/// pacing bounds below are exact consequences of the configuration:
///
/// - Suspect → FallenBack needs `trip_after` consecutive bad evaluations
///   after entering Suspect;
/// - FallenBack → Recovering needs `recover_after` consecutive good ones;
/// - Recovering → Healthy needs `heal_after` more;
/// - two successive falls are therefore separated by at least
///   `trip_after + recover_after + heal_after + suspect_after` evaluations
///   (the machine must walk FallenBack → Recovering → Healthy → Suspect →
///   FallenBack in between).
#[test]
fn repeated_short_fault_episodes_cannot_flap_faster_than_hysteresis() {
    let cfg = cfg();
    let tiers: Vec<Box<dyn VecPolicy>> = vec![
        Box::new(Threshold),
        Box::new(Constant(0, "shadow-net")),
        Box::new(Constant(0, "last-resort")),
    ];
    let mut guard = GuardedPolicy::new(tiers, 1, unit_baseline(), cfg.clone());

    // Seeded flapping trace: 16 diverging steps, then 64 agreeing steps
    // (long enough for the divergence window to fully drain), repeated.
    let total_steps: u64 = 1600;
    for _ in 0..total_steps {
        let base = if guard.steps() % 80 < 16 { 0.8 } else { 0.2 };
        guard.act_vec(&obs(guard.steps(), base));
    }

    let transitions = guard.transitions().to_vec();
    assert!(
        transitions.iter().any(|t| t.to == HealthState::FallenBack),
        "the flapping trace genuinely trips the guard: {transitions:?}"
    );

    let flush = cfg.flush_every as u64;
    let evals = (total_steps / flush) as usize;

    // Per-transition pacing: each hysteresis-gated edge arrives no earlier
    // than its configured number of evaluations after the previous edge.
    let mut last_step = 0u64;
    let mut last_to = HealthState::Healthy;
    for t in &transitions {
        let gap_evals = ((t.step - last_step) / flush) as usize;
        let needed = match (t.from, t.to) {
            (HealthState::Healthy, HealthState::Suspect) => cfg.suspect_after,
            (HealthState::Suspect, HealthState::FallenBack) => cfg.trip_after,
            (HealthState::Suspect, HealthState::Healthy) => cfg.clear_after,
            (HealthState::FallenBack, HealthState::Recovering) => cfg.recover_after,
            (HealthState::FallenBack, HealthState::FallenBack) => cfg.escalate_after,
            (HealthState::Recovering, HealthState::Healthy) => cfg.heal_after,
            // Recovering falls straight back on one bad evaluation.
            (HealthState::Recovering, HealthState::FallenBack) => 1,
            other => panic!("unexpected transition {other:?}"),
        };
        assert!(
            gap_evals >= needed,
            "transition {:?}->{:?} at step {} arrived after {gap_evals} evaluations, \
             hysteresis requires {needed} (previous transition to {last_to:?} at {last_step})",
            t.from,
            t.to,
            t.step
        );
        last_step = t.step;
        last_to = t.to;
    }

    // Cycle bound: successive Suspect → FallenBack falls are at least
    // trip+recover+heal+suspect evaluations apart.
    let falls = transitions
        .iter()
        .filter(|t| t.from == HealthState::Suspect && t.to == HealthState::FallenBack)
        .count();
    let min_cycle = cfg.trip_after + cfg.recover_after + cfg.heal_after + cfg.suspect_after;
    assert!(
        falls <= 1 + evals / min_cycle,
        "{falls} falls over {evals} evaluations beats the {min_cycle}-evaluation cycle floor"
    );

    // And the same trace replayed is bit-identical (the seeded pin).
    let tiers2: Vec<Box<dyn VecPolicy>> = vec![
        Box::new(Threshold),
        Box::new(Constant(0, "shadow-net")),
        Box::new(Constant(0, "last-resort")),
    ];
    let mut guard2 = GuardedPolicy::new(tiers2, 1, unit_baseline(), cfg);
    for _ in 0..total_steps {
        let base = if guard2.steps() % 80 < 16 { 0.8 } else { 0.2 };
        guard2.act_vec(&obs(guard2.steps(), base));
    }
    assert_eq!(transitions.len(), guard2.transitions().len());
    for (a, b) in transitions.iter().zip(guard2.transitions()) {
        assert_eq!((a.step, a.from, a.to), (b.step, b.from, b.to));
    }
}

/// The serving daemon's batched-inference hook: `record_served` must do
/// exactly the bookkeeping of `act_vec` minus invoking the active tier.
#[test]
fn record_served_matches_act_vec_bookkeeping() {
    let mk = || -> GuardedPolicy {
        let tiers: Vec<Box<dyn VecPolicy>> =
            vec![Box::new(Threshold), Box::new(Constant(0, "shadow-net"))];
        GuardedPolicy::new(tiers, 1, unit_baseline(), cfg())
    };
    let mut via_act = mk();
    let mut via_hook = mk();
    // The hook caller computes the active tier's action externally — here
    // by evaluating the same (stateless) tier functions out-of-band.
    let tier_action = |tier: usize, o: &[f32]| {
        if tier == 0 {
            usize::from(o[0] > 0.5)
        } else {
            0
        }
    };
    for i in 0..256u64 {
        let base = if i % 40 < 12 { 0.8 } else { 0.2 };
        let o = obs(i, base);
        let action = via_act.act_vec(&o);
        let external = tier_action(via_hook.active_tier(), &o);
        assert_eq!(action, external, "lockstep guards serve the same tier");
        via_hook.record_served(&o, external);
        assert_eq!(via_act.state(), via_hook.state());
        assert_eq!(via_act.active_tier(), via_hook.active_tier());
        assert_eq!(via_act.steps(), via_hook.steps());
    }
    let a = via_act.snapshot();
    let b = via_hook.snapshot();
    assert_eq!(a.tier_steps, b.tier_steps);
    assert_eq!(a.compared, b.compared);
    assert_eq!(a.diverged, b.diverged);
    assert_eq!(a.transitions.len(), b.transitions.len());
}

/// A recurrent tier whose state lives in a cell the test shares, the way
/// a serving shard shares its net tiers' hidden state.
struct Walker(std::rc::Rc<std::cell::Cell<u64>>, &'static str);

/// One step of a [`Walker`]'s state: a seeded LCG fed by the observation;
/// the action is one state bit, so two walkers disagree about half the
/// time.
fn walk(state: &std::cell::Cell<u64>, o: &[f32]) -> usize {
    let next = state
        .get()
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add((o[0] * 1000.0) as u64);
    state.set(next);
    ((next >> 33) & 1) as usize
}

impl VecPolicy for Walker {
    fn reset(&mut self) {}

    fn act_vec(&mut self, obs: &[f32]) -> usize {
        walk(&self.0, obs)
    }

    fn name(&self) -> &str {
        self.1
    }
}

/// The serving daemon's batched shadow replay: a caller that steps the
/// non-serving tiers itself over `window()` plus the closing observation
/// and hands their actions to `act_replayed` must leave the guard exactly
/// where its own replay would — same actions, states, tiers, comparisons
/// and transitions — whichever tier serves, with the last-resort tier
/// left for the guard to replay.
#[test]
fn caller_replayed_windows_match_the_guard_replay() {
    use std::cell::Cell;
    use std::rc::Rc;
    let mk = || -> (GuardedPolicy, Vec<Rc<Cell<u64>>>) {
        let cells: Vec<Rc<Cell<u64>>> = (1..=3).map(|s| Rc::new(Cell::new(s))).collect();
        let tiers: Vec<Box<dyn VecPolicy>> = vec![
            Box::new(Walker(cells[0].clone(), "fsm")),
            Box::new(Walker(cells[1].clone(), "quant")),
            Box::new(Walker(cells[2].clone(), "exact")),
            Box::new(Constant(0, "last-resort")),
        ];
        (GuardedPolicy::new(tiers, 2, unit_baseline(), cfg()), cells)
    };
    let (mut own, _) = mk();
    let (mut handed, cells) = mk();
    let mut replays = 0;
    let mut tiers_seen = [false; 4];
    for i in 0..600u64 {
        let o = obs(i, if i % 96 < 48 { 0.3 } else { 0.7 });
        let want = own.act_vec(&o);
        let got = if handed.closes_window_next() {
            let active = handed.active_tier();
            let window: Vec<Vec<f32>> = handed
                .window()
                .map(<[f32]>::to_vec)
                .chain([o.clone()])
                .collect();
            let actions: Vec<Vec<usize>> = cells
                .iter()
                .enumerate()
                .map(|(t, cell)| {
                    if t == active {
                        Vec::new()
                    } else {
                        window.iter().map(|w| walk(cell, w)).collect()
                    }
                })
                .collect();
            let replayed: Vec<Option<&[usize]>> = (0..4)
                .map(|t| (t < 3 && t != active).then(|| actions[t].as_slice()))
                .collect();
            replays += 1;
            handed.act_replayed(&o, &replayed)
        } else {
            handed.act_vec(&o)
        };
        assert_eq!(got, want, "step {i}");
        assert_eq!(handed.state(), own.state(), "step {i}");
        assert_eq!(handed.active_tier(), own.active_tier(), "step {i}");
        tiers_seen[own.active_tier()] = true;
    }
    assert_eq!(replays, 600 / cfg().flush_every);
    assert!(
        tiers_seen.iter().filter(|&&t| t).count() >= 3,
        "the run should visit several serving tiers: {tiers_seen:?}"
    );
    let (a, b) = (own.snapshot(), handed.snapshot());
    assert_eq!(a.tier_steps, b.tier_steps);
    assert_eq!((a.compared, a.diverged), (b.compared, b.diverged));
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.transitions.len(), b.transitions.len());
    for (x, y) in a.transitions.iter().zip(&b.transitions) {
        assert_eq!(
            (x.step, x.from, x.to, x.from_tier, x.to_tier, x.reason),
            (y.step, y.from, y.to, y.from_tier, y.to_tier, y.reason)
        );
        assert_eq!(x.divergence.to_bits(), y.divergence.to_bits());
        assert_eq!(x.drift.to_bits(), y.drift.to_bits());
    }
}

#[test]
#[should_panic(expected = "mid-window")]
fn replayed_actions_mid_window_are_rejected() {
    let tiers: Vec<Box<dyn VecPolicy>> =
        vec![Box::new(Threshold), Box::new(Constant(0, "shadow-net"))];
    let mut guard = GuardedPolicy::new(tiers, 1, unit_baseline(), cfg());
    assert!(!guard.closes_window_next());
    guard.act_replayed(&obs(0, 0.2), &[None, Some(&[0])]);
}

#[test]
fn healthy_agreeing_stream_never_transitions() {
    let tiers: Vec<Box<dyn VecPolicy>> =
        vec![Box::new(Threshold), Box::new(Constant(0, "shadow-net"))];
    let mut guard = GuardedPolicy::new(tiers, 1, unit_baseline(), cfg());
    for _ in 0..256 {
        guard.act_vec(&obs(guard.steps(), 0.2));
    }
    assert_eq!(guard.state(), HealthState::Healthy);
    assert_eq!(guard.active_tier(), 0);
    assert!(guard.transitions().is_empty(), "{:?}", guard.transitions());
    let snap = guard.snapshot();
    assert_eq!(snap.tier_steps[0], 256, "primary served every step");
    assert!(snap.compared > 0 && snap.diverged == 0);
}
