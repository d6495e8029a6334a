//! Seeded fault injection for guardrail evaluation.
//!
//! A [`FaultPlan`] perturbs the *observation stream* a policy sees (and,
//! for distribution shift, the workload itself) over a scheduled step
//! range, deterministically under a fixed seed: every per-step random draw
//! is seeded from `(plan seed, step)` alone, so two same-seed runs inject
//! byte-identical faults regardless of call interleaving.
//!
//! The fault vocabulary mirrors the failure modes the guard layer is built
//! to catch:
//!
//! - [`Fault::Noise`] — additive bounded noise on every observation
//!   element (sensor degradation; trips the drift detector's std
//!   component).
//! - [`Fault::Corrupt`] — each element independently replaced by a random
//!   out-of-range value with some probability (bit rot / bad telemetry).
//! - [`Fault::Rescale`] — every element multiplied by a factor
//!   (distribution shift, e.g. a workload running at 3× the trained
//!   volume; see [`rescale_trace`] for shifting the workload itself).
//! - [`Fault::Stuck`] — the observation freezes at its value on the first
//!   faulted step (a wedged collector; caught by the guard's stuck-input
//!   run counter, invisible to distributional statistics).
//! - [`Fault::Delay`] — observations arrive late: the stream sees the
//!   observation from `steps` decisions ago (a lagging telemetry pipeline;
//!   the policy acts on stale state).
//! - [`Fault::Drop`] — each observation is lost independently with some
//!   probability and the last delivered one is served in its place (a
//!   lossy collector; long loss runs look like a stuck input).
//!
//! The same plan vocabulary drives both `guard-eval` fault injection and
//! the serving daemon's chaos harness (`lahd serve-bench`), so incidents
//! reproduce across harnesses from one description.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One kind of observation perturbation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Add uniform noise in `[-amplitude, amplitude]` to every element.
    Noise {
        /// Noise amplitude.
        amplitude: f32,
    },
    /// Replace each element, independently with probability `prob`, by a
    /// uniform random value in `[-10, 10]` (far outside any normalised
    /// observation range).
    Corrupt {
        /// Per-element corruption probability in `[0, 1]`.
        prob: f64,
    },
    /// Multiply every element by `factor`.
    Rescale {
        /// Scale factor.
        factor: f32,
    },
    /// Freeze the observation at its value on the first faulted step.
    Stuck,
    /// Observations arrive late: serve the observation from `steps`
    /// decisions ago (clamped to `MAX_DELAY_STEPS`, 1024). Until that much
    /// history has accumulated inside the fault window, the current
    /// observation passes through.
    Delay {
        /// How many steps late the stream runs.
        steps: u64,
    },
    /// Each observation is lost independently with probability `prob`; the
    /// last successfully delivered observation is served in its place (the
    /// first observation can never be lost — there is nothing to repeat).
    Drop {
        /// Per-step loss probability in `[0, 1]`.
        prob: f64,
    },
}

/// Upper bound on [`Fault::Delay`] lag, bounding the history buffer.
pub const MAX_DELAY_STEPS: u64 = 1024;

/// A fault active on steps in `[from, to)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduledFault {
    /// The perturbation.
    pub fault: Fault,
    /// First step (inclusive) the fault applies to.
    pub from: u64,
    /// First step (exclusive) after which the fault stops.
    pub to: u64,
}

/// A seeded schedule of observation faults.
///
/// Plans containing the stateful kinds ([`Fault::Stuck`], [`Fault::Delay`],
/// [`Fault::Drop`]) assume [`FaultPlan::apply`] is called once per
/// consecutive step, the way every evaluation loop in this workspace drives
/// it; the purely per-step kinds are order-independent.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<ScheduledFault>,
    /// Captured observation for an active [`Fault::Stuck`]; cleared when no
    /// stuck fault is active so a later window re-captures.
    held: Option<Vec<f32>>,
    /// Recent pristine observations, newest last, kept only while a
    /// [`Fault::Delay`] is scheduled (capacity: the largest delay + 1).
    history: std::collections::VecDeque<Vec<f32>>,
    /// The previous step's delivered observation, kept only while a
    /// [`Fault::Drop`] is scheduled.
    last_delivered: Option<Vec<f32>>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with the given seed and schedule.
    pub fn new(seed: u64, faults: Vec<ScheduledFault>) -> Self {
        Self {
            seed,
            faults,
            ..Self::default()
        }
    }

    /// Convenience: one fault over `[from, to)`.
    pub fn single(seed: u64, fault: Fault, from: u64, to: u64) -> Self {
        Self::new(seed, vec![ScheduledFault { fault, from, to }])
    }

    /// Whether any fault is scheduled at all.
    pub fn is_active(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Whether some fault applies at `step`.
    pub fn applies_at(&self, step: u64) -> bool {
        self.faults.iter().any(|f| f.from <= step && step < f.to)
    }

    /// Human-readable schedule summary for reports.
    pub fn describe(&self) -> String {
        if self.faults.is_empty() {
            return "none".to_string();
        }
        let parts: Vec<String> = self
            .faults
            .iter()
            .map(|f| {
                let kind = match f.fault {
                    Fault::Noise { amplitude } => format!("noise±{amplitude}"),
                    Fault::Corrupt { prob } => format!("corrupt p={prob}"),
                    Fault::Rescale { factor } => format!("rescale×{factor}"),
                    Fault::Stuck => "stuck".to_string(),
                    Fault::Delay { steps } => format!("delay-{steps}"),
                    Fault::Drop { prob } => format!("drop p={prob}"),
                };
                format!("{kind}@[{},{})", f.from, f.to)
            })
            .collect();
        parts.join(", ")
    }

    /// Perturbs `obs` in place according to the schedule at `step`.
    /// Random draws depend only on `(seed, step)`.
    pub fn apply(&mut self, step: u64, obs: &mut [f32]) {
        // Keep the delay history warm whenever a delay is scheduled at all,
        // so a fault window that opens later can serve genuinely old
        // observations from its first step.
        let max_delay = self
            .faults
            .iter()
            .filter_map(|f| match f.fault {
                Fault::Delay { steps } => Some(steps.min(MAX_DELAY_STEPS)),
                _ => None,
            })
            .max();
        if let Some(max_delay) = max_delay {
            self.history.push_back(obs.to_vec());
            while self.history.len() as u64 > max_delay + 1 {
                self.history.pop_front();
            }
        }

        let mut stuck_active = false;
        for sched in &self.faults {
            if !(sched.from <= step && step < sched.to) {
                continue;
            }
            match sched.fault {
                Fault::Noise { amplitude } => {
                    let mut rng = self.step_rng(step, 1);
                    for x in obs.iter_mut() {
                        *x += rng.gen_range(-amplitude..amplitude);
                    }
                }
                Fault::Corrupt { prob } => {
                    let mut rng = self.step_rng(step, 2);
                    for x in obs.iter_mut() {
                        if rng.gen::<f64>() < prob {
                            *x = rng.gen_range(-10.0f32..10.0);
                        }
                    }
                }
                Fault::Rescale { factor } => {
                    for x in obs.iter_mut() {
                        *x *= factor;
                    }
                }
                Fault::Stuck => {
                    stuck_active = true;
                    match &self.held {
                        Some(held) if held.len() == obs.len() => {
                            obs.copy_from_slice(held);
                        }
                        _ => {
                            self.held = Some(obs.to_vec());
                        }
                    }
                }
                Fault::Delay { steps } => {
                    let lag = steps.min(MAX_DELAY_STEPS) as usize;
                    // history.back() is this step's pristine observation, so
                    // the element `lag` before it is the one from `lag`
                    // steps ago. Until enough history exists, pass through.
                    let len = self.history.len();
                    if lag > 0 && len > lag {
                        let old = &self.history[len - 1 - lag];
                        if old.len() == obs.len() {
                            obs.copy_from_slice(old);
                        }
                    }
                }
                Fault::Drop { prob } => {
                    let mut rng = self.step_rng(step, 3);
                    if rng.gen::<f64>() < prob {
                        if let Some(prev) = &self.last_delivered {
                            if prev.len() == obs.len() {
                                obs.copy_from_slice(prev);
                            }
                        }
                    }
                }
            }
        }
        if !stuck_active {
            self.held = None;
        }
        if self
            .faults
            .iter()
            .any(|f| matches!(f.fault, Fault::Drop { .. }))
        {
            self.last_delivered = Some(obs.to_vec());
        } else {
            self.last_delivered = None;
        }
    }

    /// A fresh RNG that is a pure function of `(seed, step, salt)` — the
    /// salt separates fault kinds sharing a step.
    fn step_rng(&self, step: u64, salt: u64) -> SmallRng {
        SmallRng::seed_from_u64(
            self.seed
                ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03),
        )
    }
}

/// One kind of durable-state corruption, applied to an on-disk byte image
/// (a checkpoint segment or write-ahead journal) rather than to the
/// observation stream.
///
/// These model the disk failure modes the serving layer's recovery path
/// must survive: a torn write (crash mid-`write`), silent bit rot, and a
/// journal record replayed twice (crash between append and ack). All three
/// are pure functions of their parameters, so a drill seeded from the
/// chaos seed injects byte-identical damage on every run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DiskFault {
    /// Truncate the image to `keep` bytes — everything past the torn
    /// frontier is lost, as after a crash mid-append.
    TornWrite {
        /// Bytes to keep; images shorter than this are left untouched.
        keep: usize,
    },
    /// XOR one byte at `at` with `mask` (silent corruption; a checksummed
    /// reader must quarantine the damaged record, not panic).
    BitFlip {
        /// Byte offset to flip; out-of-range offsets are a no-op.
        at: usize,
        /// XOR mask; a zero mask is a no-op by construction.
        mask: u8,
    },
    /// Append a copy of the `len` bytes starting at `at` to the end of the
    /// image (a journal record applied twice; replay must be idempotent).
    DuplicateRecord {
        /// Offset of the record to duplicate.
        at: usize,
        /// Record length in bytes; clamped to what the image holds.
        len: usize,
    },
}

impl DiskFault {
    /// Applies the fault to an in-memory byte image.
    pub fn apply(&self, bytes: &mut Vec<u8>) {
        match *self {
            DiskFault::TornWrite { keep } => {
                if keep < bytes.len() {
                    bytes.truncate(keep);
                }
            }
            DiskFault::BitFlip { at, mask } => {
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= mask;
                }
            }
            DiskFault::DuplicateRecord { at, len } => {
                let end = at.saturating_add(len).min(bytes.len());
                if at < end {
                    bytes.extend_from_within(at..end);
                }
            }
        }
    }

    /// Reads `path`, applies the fault, and writes the damaged image back.
    pub fn apply_to_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut bytes = std::fs::read(path)?;
        self.apply(&mut bytes);
        std::fs::write(path, bytes)
    }

    /// Human-readable description for drill reports.
    pub fn describe(&self) -> String {
        match *self {
            DiskFault::TornWrite { keep } => format!("torn-write keep={keep}"),
            DiskFault::BitFlip { at, mask } => format!("bit-flip at={at} mask={mask:#04x}"),
            DiskFault::DuplicateRecord { at, len } => {
                format!("dup-record at={at} len={len}")
            }
        }
    }
}

/// A copy of `trace` with every interval's request count multiplied by
/// `factor` — distribution shift at the workload level rather than the
/// observation level (the simulator genuinely runs hotter, not just the
/// telemetry).
///
/// # Panics
/// Panics if `factor` is negative or non-finite.
pub fn rescale_trace(trace: &crate::WorkloadTrace, factor: f64) -> crate::WorkloadTrace {
    assert!(
        factor.is_finite() && factor >= 0.0,
        "rescale factor must be ≥ 0"
    );
    let mut out = trace.clone();
    out.name = format!("{}~x{factor}", out.name);
    for w in &mut out.intervals {
        w.requests *= factor;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IntervalWorkload, WorkloadTrace, NUM_IO_CLASSES};

    fn obs() -> Vec<f32> {
        (0..8).map(|i| i as f32 * 0.1).collect()
    }

    #[test]
    fn empty_plan_is_identity() {
        let mut plan = FaultPlan::none();
        let mut o = obs();
        plan.apply(5, &mut o);
        assert_eq!(o, obs());
        assert!(!plan.is_active());
        assert_eq!(plan.describe(), "none");
    }

    #[test]
    fn faults_respect_their_schedule() {
        let mut plan = FaultPlan::single(1, Fault::Rescale { factor: 2.0 }, 10, 20);
        let mut o = obs();
        plan.apply(9, &mut o);
        assert_eq!(o, obs());
        plan.apply(10, &mut o);
        assert_eq!(o[5], obs()[5] * 2.0);
        let mut o2 = obs();
        plan.apply(20, &mut o2);
        assert_eq!(o2, obs());
        assert!(plan.applies_at(19) && !plan.applies_at(20));
    }

    #[test]
    fn noise_is_bounded_and_deterministic_per_step() {
        let mut a = FaultPlan::single(7, Fault::Noise { amplitude: 0.5 }, 0, 100);
        let mut b = a.clone();
        let mut oa = obs();
        let mut ob = obs();
        a.apply(3, &mut oa);
        b.apply(3, &mut ob);
        assert_eq!(oa, ob);
        assert_ne!(oa, obs());
        for (x, y) in oa.iter().zip(obs()) {
            assert!((x - y).abs() <= 0.5, "noise exceeded amplitude");
        }
        // A different step draws different noise.
        let mut oc = obs();
        a.apply(4, &mut oc);
        assert_ne!(oa, oc);
    }

    #[test]
    fn corruption_probability_is_roughly_honoured() {
        let mut plan = FaultPlan::single(11, Fault::Corrupt { prob: 0.25 }, 0, u64::MAX);
        let mut corrupted = 0usize;
        let mut total = 0usize;
        for step in 0..400u64 {
            let mut o = obs();
            plan.apply(step, &mut o);
            corrupted += o.iter().zip(obs()).filter(|(a, b)| **a != *b).count();
            total += o.len();
        }
        let rate = corrupted as f64 / total as f64;
        assert!(
            (0.15..0.35).contains(&rate),
            "expected ~0.25 corruption, got {rate}"
        );
    }

    #[test]
    fn stuck_freezes_at_first_faulted_step_and_releases() {
        let mut plan = FaultPlan::single(0, Fault::Stuck, 5, 10);
        let mut first = vec![1.0f32, 2.0, 3.0];
        plan.apply(5, &mut first);
        assert_eq!(first, vec![1.0, 2.0, 3.0]); // capture step passes through
        let mut later = vec![9.0f32, 9.0, 9.0];
        plan.apply(7, &mut later);
        assert_eq!(later, first); // frozen
        let mut after = vec![4.0f32, 5.0, 6.0];
        plan.apply(10, &mut after);
        assert_eq!(after, vec![4.0, 5.0, 6.0]); // released
    }

    #[test]
    fn delay_serves_stale_observations_after_warmup() {
        let mut plan = FaultPlan::single(3, Fault::Delay { steps: 2 }, 4, 10);
        // Feed distinguishable observations: obs at step s is [s, s].
        let feed = |s: u64| vec![s as f32, s as f32];
        for s in 0..4u64 {
            let mut o = feed(s);
            plan.apply(s, &mut o);
            assert_eq!(o, feed(s), "outside the window obs passes through");
        }
        // History now holds steps 0..=3; at step 4 the 2-old obs is step 2's.
        let mut o = feed(4);
        plan.apply(4, &mut o);
        assert_eq!(o, feed(2));
        let mut o = feed(5);
        plan.apply(5, &mut o);
        assert_eq!(o, feed(3));
        // After the window closes the stream is current again.
        let mut o = feed(10);
        plan.apply(10, &mut o);
        assert_eq!(o, feed(10));
    }

    #[test]
    fn delay_passes_through_during_warmup() {
        let mut plan = FaultPlan::single(3, Fault::Delay { steps: 5 }, 0, 10);
        for s in 0..5u64 {
            let mut o = vec![s as f32; 3];
            plan.apply(s, &mut o);
            assert_eq!(o, vec![s as f32; 3], "not enough history yet at {s}");
        }
        let mut o = vec![5.0f32; 3];
        plan.apply(5, &mut o);
        assert_eq!(o, vec![0.0f32; 3]);
    }

    #[test]
    fn drop_repeats_last_delivered_and_is_deterministic() {
        let mut a = FaultPlan::single(21, Fault::Drop { prob: 0.4 }, 0, u64::MAX);
        let mut b = a.clone();
        let feed = |s: u64| vec![s as f32, -(s as f32)];
        let mut dropped = 0usize;
        let mut prev_delivered = None::<Vec<f32>>;
        for s in 0..400u64 {
            let mut oa = feed(s);
            let mut ob = feed(s);
            a.apply(s, &mut oa);
            b.apply(s, &mut ob);
            assert_eq!(oa, ob, "same seed, same step must agree");
            if oa != feed(s) {
                dropped += 1;
                assert_eq!(
                    Some(&oa),
                    prev_delivered.as_ref(),
                    "a dropped step repeats the previous delivered obs"
                );
            }
            prev_delivered = Some(oa);
        }
        assert!(
            (100..220).contains(&dropped),
            "expected ~40% of 400 steps dropped, got {dropped}"
        );
        // The first observation can never be lost (nothing to repeat).
        let mut fresh = FaultPlan::single(21, Fault::Drop { prob: 1.0 }, 0, 10);
        let mut o = feed(0);
        fresh.apply(0, &mut o);
        assert_eq!(o, feed(0));
        let mut o1 = feed(1);
        fresh.apply(1, &mut o1);
        assert_eq!(o1, feed(0), "p=1 repeats forever after the first");
    }

    #[test]
    fn new_fault_kinds_describe_themselves() {
        let plan = FaultPlan::new(
            0,
            vec![
                ScheduledFault {
                    fault: Fault::Delay { steps: 8 },
                    from: 0,
                    to: 5,
                },
                ScheduledFault {
                    fault: Fault::Drop { prob: 0.1 },
                    from: 5,
                    to: 9,
                },
            ],
        );
        let d = plan.describe();
        assert!(d.contains("delay-8@[0,5)"), "{d}");
        assert!(d.contains("drop p=0.1@[5,9)"), "{d}");
    }

    #[test]
    fn disk_faults_damage_byte_images_deterministically() {
        let image: Vec<u8> = (0..32u8).collect();

        let mut torn = image.clone();
        DiskFault::TornWrite { keep: 10 }.apply(&mut torn);
        assert_eq!(torn, &image[..10]);
        let mut untouched = image.clone();
        DiskFault::TornWrite { keep: 100 }.apply(&mut untouched);
        assert_eq!(untouched, image, "keep past EOF leaves the image alone");

        let mut flipped = image.clone();
        DiskFault::BitFlip { at: 3, mask: 0xFF }.apply(&mut flipped);
        assert_eq!(flipped[3], image[3] ^ 0xFF);
        assert_eq!(&flipped[..3], &image[..3]);
        assert_eq!(&flipped[4..], &image[4..]);
        let mut oob = image.clone();
        DiskFault::BitFlip {
            at: 999,
            mask: 0xFF,
        }
        .apply(&mut oob);
        assert_eq!(oob, image, "out-of-range flip is a no-op");

        let mut duped = image.clone();
        DiskFault::DuplicateRecord { at: 8, len: 4 }.apply(&mut duped);
        assert_eq!(duped.len(), image.len() + 4);
        assert_eq!(&duped[image.len()..], &image[8..12]);
        let mut clamped = image.clone();
        DiskFault::DuplicateRecord { at: 30, len: 10 }.apply(&mut clamped);
        assert_eq!(&clamped[image.len()..], &image[30..32], "len clamps to EOF");
    }

    #[test]
    fn disk_faults_round_trip_through_files_and_describe_themselves() {
        let dir = std::env::temp_dir().join("lahd_disk_fault_test");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("image.bin");
        std::fs::write(&path, (0..16u8).collect::<Vec<u8>>()).expect("seed image");
        DiskFault::TornWrite { keep: 5 }
            .apply_to_file(&path)
            .expect("apply to file");
        assert_eq!(std::fs::read(&path).unwrap(), vec![0, 1, 2, 3, 4]);
        let _ = std::fs::remove_file(&path);

        assert_eq!(
            DiskFault::TornWrite { keep: 5 }.describe(),
            "torn-write keep=5"
        );
        assert_eq!(
            DiskFault::BitFlip { at: 7, mask: 0x80 }.describe(),
            "bit-flip at=7 mask=0x80"
        );
        assert_eq!(
            DiskFault::DuplicateRecord { at: 8, len: 17 }.describe(),
            "dup-record at=8 len=17"
        );
    }

    #[test]
    fn rescale_trace_scales_requests_only() {
        let mut mix = [0.0; NUM_IO_CLASSES];
        mix[0] = 1.0;
        let trace = WorkloadTrace::new("t", vec![IntervalWorkload::new(mix, 100.0); 3]);
        let scaled = rescale_trace(&trace, 2.5);
        assert_eq!(scaled.intervals.len(), 3);
        for w in &scaled.intervals {
            assert_eq!(w.requests, 250.0);
            assert_eq!(w.mix, trace.intervals[0].mix);
        }
        assert!(scaled.name.contains("x2.5"));
    }
}
