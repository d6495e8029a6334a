//! Runtime drift detection: a sliding observation window scored against a
//! training-time [`BaselineProfile`].
//!
//! The detector keeps the last `window` observations in a ring buffer and,
//! on demand, computes per-dimension shift scores in units of the baseline's
//! normalisation denominator ([`DimProfile::denom`]): shift of the window
//! mean, shift of the window standard deviation (catches zero-mean noise
//! injection), and shift of the window median against the baseline median
//! normalised by the inter-quartile range (robust to single outliers). The
//! reported [`DriftScore`] is the maximum over dimensions and components —
//! one number the guard state machine thresholds with hysteresis.
//!
//! A separate stuck-input signal counts consecutive *identical* observation
//! vectors: a frozen sensor keeps every window statistic plausible, so no
//! distributional score can see it, but exact repetition at vector
//! granularity is vanishingly unlikely under any live workload.

#[cfg(doc)]
use crate::stats::exact_quantile;
use crate::stats::BaselineProfile;

/// Result of scoring the current window against the baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriftScore {
    /// Max over dimensions of all shift components (the thresholded value).
    pub score: f64,
    /// Dimension index attaining the maximum.
    pub worst_dim: usize,
    /// Max mean-shift component.
    pub mean_shift: f64,
    /// Max std-shift component.
    pub std_shift: f64,
    /// Max median-shift component.
    pub median_shift: f64,
    /// Observations currently in the window.
    pub samples: usize,
    /// Length of the current run of identical consecutive observations.
    pub stuck_run: usize,
}

/// Sliding-window drift detector over observation vectors.
#[derive(Clone, Debug)]
pub struct DriftDetector {
    baseline: BaselineProfile,
    window: usize,
    /// Ring buffer of the last `window` observations, flattened.
    ring: Vec<f32>,
    head: usize,
    filled: usize,
    last_obs: Vec<f32>,
    stuck_run: usize,
    total: u64,
}

impl DriftDetector {
    /// Detector comparing windows of `window` observations against
    /// `baseline`.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(baseline: BaselineProfile, window: usize) -> Self {
        assert!(window > 0, "drift window must be non-empty");
        let dim = baseline.dim();
        Self {
            baseline,
            window,
            ring: vec![0.0; window * dim],
            head: 0,
            filled: 0,
            last_obs: Vec::new(),
            stuck_run: 0,
            total: 0,
        }
    }

    /// The baseline being compared against.
    pub fn baseline(&self) -> &BaselineProfile {
        &self.baseline
    }

    /// Consumes one observation.
    ///
    /// # Panics
    /// Panics if `obs` does not match the baseline dimensionality.
    pub fn observe(&mut self, obs: &[f32]) {
        let dim = self.baseline.dim();
        assert_eq!(obs.len(), dim, "observation dimension changed");
        if self.last_obs.as_slice() == obs {
            self.stuck_run += 1;
        } else {
            self.stuck_run = 0;
            self.last_obs.clear();
            self.last_obs.extend_from_slice(obs);
        }
        self.ring[self.head * dim..(self.head + 1) * dim].copy_from_slice(obs);
        self.head = (self.head + 1) % self.window;
        self.filled = (self.filled + 1).min(self.window);
        self.total += 1;
    }

    /// Total observations consumed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Scores the current window.
    ///
    /// Cheap enough for every health evaluation of every resident stream:
    /// one pass over the window accumulates all dimensions' sums (each
    /// dimension's f64 additions in ring-slot order, starting from `-0.0`
    /// as `Iterator::sum` does), a second pass their squared deviations,
    /// and each median comes from a selection over order-preserving integer
    /// keys rather than a sort. The result has the same bits as sorting a
    /// copy of each dimension and taking [`exact_quantile`] at 0.5 (the
    /// drift tests keep that scorer as the reference). Scratch lives on
    /// the call, not in the detector.
    ///
    /// # Panics
    /// Panics if the window holds a NaN (observations must be finite; the
    /// serving daemon rejects non-finite ones at its boundary).
    pub fn score(&self) -> DriftScore {
        let dim = self.baseline.dim();
        let mut out = DriftScore {
            samples: self.filled,
            stuck_run: self.stuck_run,
            ..DriftScore::default()
        };
        if self.filled < 2 {
            return out;
        }
        let n = self.filled;
        let window = &self.ring[..n * dim];
        let mut means = vec![-0.0f64; dim];
        for row in window.chunks_exact(dim) {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v as f64;
            }
        }
        for m in &mut means {
            *m /= n as f64;
        }
        let mut sq = vec![-0.0f64; dim];
        for row in window.chunks_exact(dim) {
            for ((s, &v), &mean) in sq.iter_mut().zip(row).zip(&means) {
                *s += (v as f64 - mean).powi(2);
            }
        }
        // The median of a sorted window, `exact_quantile(sorted, 0.5)`,
        // reads the order statistics at `floor(rank)` and `ceil(rank)`.
        let rank = 0.5 * (n - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        let frac = rank - lo as f64;
        let mut keys = vec![0i32; n];
        for d in 0..dim {
            let mean = means[d];
            if mean.is_nan() {
                // NaN in the window, or both infinities: only the first is
                // an error (an infinite window still scores).
                let column = window.iter().skip(d).step_by(dim);
                assert!(column.clone().all(|v| !v.is_nan()), "finite observations");
            }
            for (key, &v) in keys.iter_mut().zip(window.iter().skip(d).step_by(dim)) {
                *key = order_key(v);
            }
            let (_, &mut lo_key, above) = keys.select_nth_unstable(lo);
            let hi_key = if hi == lo {
                lo_key
            } else {
                *above.iter().min().expect("hi rank lies above lo")
            };
            let (lo_v, hi_v) = (from_order_key(lo_key) as f64, from_order_key(hi_key) as f64);
            let median = lo_v + (hi_v - lo_v) * frac;

            let base = &self.baseline.dims[d];
            let denom = base.denom();
            let var = sq[d] / n as f64;
            let mean_shift = (mean - base.mean).abs() / denom;
            let std_shift = (var.sqrt() - base.std).abs() / denom;
            let iqr_denom = (base.p75 - base.p25).max(denom);
            let median_shift = (median - base.p50).abs() / iqr_denom;

            out.mean_shift = out.mean_shift.max(mean_shift);
            out.std_shift = out.std_shift.max(std_shift);
            out.median_shift = out.median_shift.max(median_shift);
            let dim_score = mean_shift.max(std_shift).max(median_shift);
            if dim_score > out.score {
                out.score = dim_score;
                out.worst_dim = d;
            }
        }
        out
    }
}

/// An `i32` whose integer order is `f32::total_cmp` order. It differs
/// from the float order only in putting `-0.0` below `+0.0`, and a median
/// read as `lo + (hi − lo)·frac` then measured as `|median − p50|` cannot
/// tell the two zeros apart, so selecting on keys gives a sort's bits.
#[inline]
fn order_key(v: f32) -> i32 {
    let bits = v.to_bits() as i32;
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// Inverse of [`order_key`] (the mapping is an involution).
#[inline]
fn from_order_key(key: i32) -> f32 {
    f32::from_bits((key ^ (((key >> 31) as u32) >> 1) as i32) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{exact_quantile, DimProfile, StreamingProfile};
    use proptest::prelude::*;

    /// The sort-based scorer `score` replaced, kept verbatim as its
    /// reference: per dimension, copy the window, sum it, sort it and read
    /// the median with `exact_quantile`.
    fn reference_score(det: &DriftDetector) -> DriftScore {
        let dim = det.baseline.dim();
        let mut out = DriftScore {
            samples: det.filled,
            stuck_run: det.stuck_run,
            ..DriftScore::default()
        };
        if det.filled < 2 {
            return out;
        }
        let n = det.filled;
        let mut scratch = vec![0.0f64; n];
        for d in 0..dim {
            for (slot, row) in scratch.iter_mut().zip(0..n) {
                *slot = det.ring[row * dim + d] as f64;
            }
            let base = &det.baseline.dims[d];
            let denom = base.denom();

            let mean = scratch.iter().sum::<f64>() / n as f64;
            let var = scratch.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            let mean_shift = (mean - base.mean).abs() / denom;
            let std_shift = (var.sqrt() - base.std).abs() / denom;

            scratch.sort_by(|a, b| a.partial_cmp(b).expect("finite observations"));
            let median = exact_quantile(&scratch, 0.5);
            let iqr_denom = (base.p75 - base.p25).max(denom);
            let median_shift = (median - base.p50).abs() / iqr_denom;

            out.mean_shift = out.mean_shift.max(mean_shift);
            out.std_shift = out.std_shift.max(std_shift);
            out.median_shift = out.median_shift.max(median_shift);
            let dim_score = mean_shift.max(std_shift).max(median_shift);
            if dim_score > out.score {
                out.score = dim_score;
                out.worst_dim = d;
            }
        }
        out
    }

    fn assert_same_bits(got: DriftScore, want: DriftScore) {
        let f = |v: f64| v.to_bits();
        assert_eq!(f(got.score), f(want.score), "score: {got:?} vs {want:?}");
        assert_eq!(got.worst_dim, want.worst_dim, "worst_dim");
        assert_eq!(f(got.mean_shift), f(want.mean_shift), "mean_shift");
        assert_eq!(f(got.std_shift), f(want.std_shift), "std_shift");
        assert_eq!(f(got.median_shift), f(want.median_shift), "median_shift");
        assert_eq!(got.samples, want.samples, "samples");
        assert_eq!(got.stuck_run, want.stuck_run, "stuck_run");
    }

    /// Values that make ties, signed zeros and wide magnitudes likely.
    const POOL: [f32; 10] = [-0.0, 0.0, 1.0, -1.0, 0.5, 0.5, 2.5, -3.25, 1e-3, 100.0];

    fn profile(d: usize, p50: f64) -> DimProfile {
        let spread = 0.25 * d as f64;
        DimProfile {
            mean: p50 + 0.1,
            std: spread,
            min: p50 - 1.0,
            max: p50 + 1.0,
            p25: p50 - spread,
            p50,
            p75: p50 + spread,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every field of the selection scorer equals the sort-based
        /// reference bit for bit, over partial and full (wrapped) windows,
        /// tied and signed-zero values, constant dimensions and a zero
        /// baseline median, checked after every observation.
        #[test]
        fn selection_scorer_matches_the_sort_reference(
            window in 1usize..40,
            dim in 1usize..5,
            picks in proptest::collection::vec((0usize..10, -4.0f32..4.0, 0u8..3), 0..120),
            p50_zero in 0u8..2,
        ) {
            let dims = (0..dim)
                .map(|d| profile(d, if p50_zero == 0 { 0.0 } else { d as f64 * 0.5 - 0.5 }))
                .collect();
            let mut det = DriftDetector::new(BaselineProfile { dims, count: 100 }, window);
            let mut obs = vec![0.0f32; dim];
            for (i, &(pick, random, kind)) in picks.iter().enumerate() {
                for (d, o) in obs.iter_mut().enumerate() {
                    *o = match (d, kind) {
                        // Dimension 0 stays constant; repeats are stuck runs.
                        (0, _) => 1.5,
                        (_, 0) => POOL[(pick + d) % POOL.len()],
                        (_, 1) => random,
                        _ => POOL[(pick + i) % 2],
                    };
                }
                det.observe(&obs);
                assert_same_bits(det.score(), reference_score(&det));
            }
        }
    }

    #[test]
    fn infinite_windows_score_like_the_reference() {
        let dims = (0..2).map(|d| profile(d, 0.0)).collect();
        let mut det = DriftDetector::new(BaselineProfile { dims, count: 10 }, 8);
        for obs in [[f32::INFINITY, 1.0], [f32::NEG_INFINITY, 2.0], [0.0, -0.0]] {
            det.observe(&obs);
            assert_same_bits(det.score(), reference_score(&det));
        }
    }

    #[test]
    #[should_panic(expected = "finite observations")]
    fn a_nan_in_the_window_is_a_loud_failure() {
        let mut det = DriftDetector::new(baseline(2), 8);
        det.observe(&[0.5, 0.5]);
        det.observe(&[f32::NAN, 0.5]);
        let _ = det.score();
    }

    /// Deterministic in-distribution generator: a low-discrepancy walk.
    fn sample(i: u64, d: usize) -> f32 {
        let x = ((i as f64 + 1.0) * (d as f64 + 1.0) * 0.618_033_988_749_895).fract();
        (x * 0.2 + 0.4) as f32 // values in [0.4, 0.6)
    }

    fn baseline(dim: usize) -> BaselineProfile {
        let mut sp = StreamingProfile::new(dim);
        for i in 0..4096u64 {
            let obs: Vec<f32> = (0..dim).map(|d| sample(i, d)).collect();
            sp.push(&obs);
        }
        sp.profile()
    }

    #[test]
    fn in_distribution_window_scores_low() {
        let mut det = DriftDetector::new(baseline(4), 64);
        for i in 0..256u64 {
            let obs: Vec<f32> = (0..4).map(|d| sample(i, d)).collect();
            det.observe(&obs);
        }
        let s = det.score();
        assert!(s.score < 1.0, "clean stream scored {s:?}");
        assert_eq!(s.stuck_run, 0);
    }

    #[test]
    fn shifted_window_scores_high() {
        let mut det = DriftDetector::new(baseline(4), 64);
        for i in 0..256u64 {
            let obs: Vec<f32> = (0..4).map(|d| sample(i, d) * 3.0).collect();
            det.observe(&obs);
        }
        let s = det.score();
        assert!(s.score > 3.0, "shifted stream scored only {s:?}");
        assert!(s.mean_shift > 3.0);
    }

    #[test]
    fn zero_mean_noise_trips_the_std_component() {
        let mut det = DriftDetector::new(baseline(4), 64);
        for i in 0..256u64 {
            // Symmetric ±0.5 contamination: window mean barely moves.
            let noise = if i % 2 == 0 { 0.5 } else { -0.5 };
            let obs: Vec<f32> = (0..4).map(|d| sample(i, d) + noise).collect();
            det.observe(&obs);
        }
        let s = det.score();
        assert!(s.std_shift > 3.0, "noise scored only {s:?}");
    }

    #[test]
    fn stuck_run_counts_identical_vectors() {
        let mut det = DriftDetector::new(baseline(4), 64);
        let frozen: Vec<f32> = (0..4).map(|d| sample(7, d)).collect();
        for _ in 0..10 {
            det.observe(&frozen);
        }
        assert_eq!(det.score().stuck_run, 9);
        det.observe(&[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(det.score().stuck_run, 0);
    }

    #[test]
    fn recovery_drains_with_the_window() {
        let mut det = DriftDetector::new(baseline(4), 32);
        for i in 0..64u64 {
            let obs: Vec<f32> = (0..4).map(|d| sample(i, d) * 3.0).collect();
            det.observe(&obs);
        }
        assert!(det.score().score > 3.0);
        for i in 0..32u64 {
            let obs: Vec<f32> = (0..4).map(|d| sample(i, d)).collect();
            det.observe(&obs);
        }
        assert!(
            det.score().score < 1.0,
            "window should forget the fault: {:?}",
            det.score()
        );
    }
}
