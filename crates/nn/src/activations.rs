//! Activation kernels: an exact `tanh` for the bit-identical path and
//! vectorized polynomial approximations for the quantized fast tier.
//!
//! # Exact tanh
//!
//! [`tanh_exact_slice`] and [`ternary_tanh_slice`] return, for every f32
//! input (±0, subnormals, ±inf and NaN payloads included), the bits of the
//! platform libm's `tanhf`: they are a port of glibc 2.36's fdlibm-derived
//! `tanhf`/`expm1f` (`sysdeps/ieee754/flt-32/s_tanhf.c`, `s_expm1f.c`) with
//! every branch evaluated and the result chosen per lane. With no branch
//! left, a 16-wide chunk of straight-line f32 and integer code
//! autovectorises under the workspace's `target-cpu=native` (on an AVX-512
//! host LLVM keeps 256-bit vectors: two registers per value); a shorter
//! tail runs as one zero-padded chunk, since the select form costs a full
//! chunk whatever the length. This path serves every exact activation
//! over a row: the tape's `tanh` and ternary tanh, the GRU candidate gate,
//! and the QBN hidden layers and quantizer. The tests compare it with
//! `f32::tanh` bit for bit over 2²⁴ spread patterns, every threshold of
//! the port and the special values; an ignored test sweeps all 2³²
//! patterns (`scripts/verify.sh` runs it in release).
//!
//! # Approximation and error budget
//!
//! The polynomial kernels replace libm in
//! [`Precision::QuantizedFast`](crate::Precision) mode with a branch-free
//! rational (minimax) approximation evaluated slice-at-a-time, which the
//! autovectoriser turns into straight vector polynomial code (clamp →
//! Horner ladders → one division).
//!
//! [`tanh_approx`] uses the classic 13/6-degree odd/even rational minimax
//! fit of `tanh` on `[-7.9, 7.9]` (the same fit Eigen and XNNPACK ship),
//! with inputs clamped to ±[`TANH_CLAMP`] — beyond the clamp `|tanh(x)|`
//! is 1 to within one f32 ULP. Measured against `f64::tanh` on a dense
//! 10⁶-point grid over `[-20, 20]` the maximum absolute error is
//! **< 4·10⁻⁷** (≈ 3 ULP at |y| ≈ 1; `tests in this module` and the
//! proptest suite in `tests/activation_bounds.rs` pin ≤ 1e-6).
//! [`sigmoid_approx`] is derived via `σ(x) = ½·(1 + tanh(x/2))`, halving
//! the absolute error bound (< 2·10⁻⁷ measured). For the downstream
//! contract this error is negligible next to the i8 weight quantization
//! (~10⁻³ per pre-activation); the end-to-end pin is rollout action
//! agreement, see `lahd_rl::InferEngine`.
//!
//! Results are deterministic for a given binary (pure f32 arithmetic, no
//! fast-math), but are **not** bit-equal to libm — these kernels are only
//! reachable from `Precision::QuantizedFast`, never from the default
//! bit-identical path.

/// Lanes per chunk of the exact kernels: 16 f32, one 512-bit or two
/// 256-bit vectors.
const LANES: usize = 16;

// glibc 2.36 `s_expm1f.c` constants, by their bit patterns.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// glibc's `expm1f` on the arguments `tanhf` passes it: `2|x| ∈ [2, 44)`
/// and `−2|x| ∈ (−2, −2⁻⁵⁴]`. The reduction `x = k·ln2 + r` then gives
/// `k ∈ 3..=63` or `k ∈ −3..=0`; every branch for those `k` is evaluated
/// and one is selected. Lanes outside both ranges get an unspecified
/// value; the integer arithmetic wraps so they never trip an overflow
/// check.
#[inline(always)]
fn expm1_lane(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x < 0.0;
    // Argument reduction: below 1.5·ln2 (negative arguments only) k = −1,
    // above it k = trunc(x/ln2 ± ½), and below ½·ln2 no reduction (k = 0).
    let near = hx < 0x3f85_1592;
    let kf = (INV_LN2 * x + if neg { -0.5 } else { 0.5 }).trunc();
    // `kf` is a small integer: read it from the mantissa of `kf + 1.5·2²³`
    // rather than through a saturating `as i32`, which does not vectorise.
    let k_far = (kf + 12_582_912.0).to_bits().wrapping_sub(0x4b40_0000) as i32;
    let hi = if near { x + LN2_HI } else { x - kf * LN2_HI };
    let lo = if near { -LN2_LO } else { kf * LN2_LO };
    let reduced = hx > 0x3eb1_7218;
    let tiny = hx < 0x3300_0000;
    let k = if !reduced {
        0
    } else if near {
        -1
    } else {
        k_far
    };
    // A tiny lane's answer is `x` itself; it evaluates the polynomial at 0,
    // whose squares cannot underflow to subnormals (see `tanh_lane`).
    let r = if reduced {
        hi - lo
    } else if tiny {
        0.0
    } else {
        x
    };
    let c = if reduced { (hi - r) - lo } else { 0.0 };

    // expm1 of the reduced argument.
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let y_k0 = r - (r * e - hxs);

    // Scale back by 2^k, one form per range of k.
    let e = (r * (e - c) - c) - hxs;
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k as u32) << 23));
    let y_km1 = 0.5 * (r - e) - 0.5;
    let y_wide = scale(1.0 - (e - r)) - 1.0;
    let one_minus_2_pow_minus_k =
        f32::from_bits(0x3f80_0000u32.wrapping_sub(0x0100_0000u32.wrapping_shr(k as u32)));
    let y_mid = scale(one_minus_2_pow_minus_k - (e - r));
    let two_pow_minus_k = f32::from_bits((0x7f_i32.wrapping_sub(k) as u32) << 23);
    let y_top = scale((r - (e + two_pow_minus_k)) + 1.0);
    let y = if k == 0 {
        y_k0
    } else if k == -1 {
        y_km1
    } else if k <= -2 || k > 56 {
        y_wide
    } else if k < 23 {
        y_mid
    } else {
        y_top
    };
    // |x| < 2⁻²⁵: expm1(x) = x.
    if tiny {
        x
    } else {
        y
    }
}

/// glibc's `tanhf` for one lane, every branch evaluated.
///
/// A subnormal operand anywhere in a vector instruction sends the whole
/// instruction through the CPU's slow microcode path (tens of
/// nanoseconds a lane), so a lane whose answer does not come from
/// `expm1` (|x| < 2⁻⁵⁵, |x| ≥ 22, NaN) evaluates it at |x| = 1 instead,
/// and `expm1_lane` keeps its tiny lanes off the polynomial.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let bits = x.to_bits();
    let ix = bits & 0x7fff_ffff;
    let ax = if (0x2400_0000..0x41b0_0000).contains(&ix) {
        f32::from_bits(ix)
    } else {
        1.0
    };
    let big = ix >= 0x3f80_0000;
    let t = expm1_lane(if big { 2.0 * ax } else { -2.0 * ax });
    // |x| ≥ 1: 1 − 2/(t + 2); |x| < 1: −t/(t + 2). One division serves
    // both.
    let q = if big { 2.0 } else { -t } / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    // |x| ≥ 22, infinities included: ±1.
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    let z = if bits >> 31 != 0 { -z } else { z };
    // |x| < 2⁻⁵⁵, ±0 included: x·(1 + x), which is x.
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    // NaN: `1/x ± 1` returns x quieted, sign and payload kept.
    if ix > 0x7f80_0000 {
        f32::from_bits(bits | 0x0040_0000)
    } else {
        z
    }
}

/// Applies `lane` to every element, [`LANES`] at a time; a shorter tail
/// runs as one zero-padded chunk. Callers pass an `#[inline(always)]`
/// closure: a lane body is large enough that the inliner would otherwise
/// keep one call per lane, and the chunk would not vectorise.
#[inline(always)]
fn map_lanes(xs: &mut [f32], lane: impl Fn(f32) -> f32) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        let chunk: &mut [f32; LANES] = chunk.try_into().expect("chunks are LANES wide");
        for v in chunk {
            *v = lane(*v);
        }
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let mut pad = [0.0f32; LANES];
        pad[..tail.len()].copy_from_slice(tail);
        for v in &mut pad {
            *v = lane(*v);
        }
        tail.copy_from_slice(&pad[..tail.len()]);
    }
}

/// Replaces every element with its `tanh`, bit-identical to `f32::tanh`
/// (see the module docs).
// The closure carries `#[inline(always)]`; the fn item would not.
#[allow(clippy::redundant_closure)]
pub fn tanh_exact_slice(xs: &mut [f32]) {
    map_lanes(
        xs,
        #[inline(always)]
        |x| tanh_lane(x),
    );
}

/// Replaces every element with Koul et al.'s ternary activation
/// `1.5·tanh(x) + 0.5·tanh(−3x)`, bit-identical to
/// [`ternary_tanh`](crate::ternary_tanh).
pub fn ternary_tanh_slice(xs: &mut [f32]) {
    map_lanes(
        xs,
        #[inline(always)]
        |x| 1.5 * tanh_lane(x) + 0.5 * tanh_lane(-3.0 * x),
    );
}

/// Replaces every element `x` with `tanh(3x)² − tanh(x)²`, the ternary
/// activation's slope over 1.5, as the tape's backward computes it.
pub(crate) fn ternary_tanh_slope_slice(xs: &mut [f32]) {
    map_lanes(
        xs,
        #[inline(always)]
        |x| {
            let t1 = tanh_lane(x);
            let t3 = tanh_lane(3.0 * x);
            t3 * t3 - t1 * t1
        },
    );
}

/// Clamp limit for the rational tanh fit: `tanh(7.90531)` rounds to 1.0 − 1
/// ULP in f32, so clamping loses nothing representable.
pub const TANH_CLAMP: f32 = 7.905_311_5;

// Odd numerator coefficients (x¹, x³, …, x¹³) of the rational fit.
const A1: f32 = 4.893_525e-3;
const A3: f32 = 6.372_619e-4;
const A5: f32 = 1.485_722_4e-5;
const A7: f32 = 5.122_297e-8;
const A9: f32 = -8.604_672e-11;
const A11: f32 = 2.000_188e-13;
const A13: f32 = -2.760_768_5e-16;
// Even denominator coefficients (x⁰, x², x⁴, x⁶).
const B0: f32 = 4.893_525_3e-3;
const B2: f32 = 2.268_434_7e-3;
const B4: f32 = 1.185_347e-4;
const B6: f32 = 1.198_258_4e-6;

/// Branch-free rational approximation of `tanh` (max abs error < 4e-7; see
/// the `activations` module docs).
#[inline]
pub fn tanh_approx(x: f32) -> f32 {
    let x = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let x2 = x * x;
    let p = ((((((A13 * x2 + A11) * x2 + A9) * x2 + A7) * x2 + A5) * x2 + A3) * x2 + A1) * x;
    let q = ((B6 * x2 + B4) * x2 + B2) * x2 + B0;
    p / q
}

/// Branch-free approximation of the logistic sigmoid via
/// `σ(x) = ½·(1 + tanh(x/2))` (max abs error < 2e-7).
#[inline]
pub fn sigmoid_approx(x: f32) -> f32 {
    0.5 + 0.5 * tanh_approx(0.5 * x)
}

/// Applies [`tanh_approx`] to every element. The loop body is straight-line
/// math, so the autovectoriser processes a full vector register per
/// iteration instead of one libm call per element.
#[inline]
pub fn tanh_slice(xs: &mut [f32]) {
    for v in xs {
        *v = tanh_approx(*v);
    }
}

/// Applies [`sigmoid_approx`] to every element (vectorised like
/// [`tanh_slice`]).
#[inline]
pub fn sigmoid_slice(xs: &mut [f32]) {
    for v in xs {
        *v = sigmoid_approx(*v);
    }
}

/// Which arithmetic the packed inference wrappers use.
///
/// * [`Precision::Exact`] (the default everywhere) keeps the bit-identity
///   contract: f32 packed weights, the exact tanh kernel and libm's `expf`
///   sigmoid — bit-identical to the unpacked inference path.
/// * [`Precision::QuantizedFast`] trades bit-identity for latency: i8
///   packed weights with per-panel dequantization scales
///   (`lahd_tensor::PackedGemvWeightsI8`) and the vectorized polynomial
///   activations above. Its contract is *measured accuracy* — kernel-level
///   error bounds plus end-to-end rollout action-agreement pins against
///   the exact engine (see the workspace `quantized_agreement` suite).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Precision {
    /// Bit-identical f32 inference (the default).
    #[default]
    Exact,
    /// i8 packed weights + polynomial activations under an accuracy
    /// contract.
    QuantizedFast,
}

impl Precision {
    /// All modes, in listing order.
    pub const ALL: [Precision; 2] = [Precision::Exact, Precision::QuantizedFast];

    /// Stable name (CLI `--infer-precision` value).
    pub fn name(self) -> &'static str {
        match self {
            Precision::Exact => "exact",
            Precision::QuantizedFast => "quantized",
        }
    }

    /// Looks a mode up by its stable name.
    pub fn parse(name: &str) -> Option<Precision> {
        match name {
            "exact" | "f32" => Some(Precision::Exact),
            "quantized" | "quantized-fast" | "i8" => Some(Precision::QuantizedFast),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ternary_tanh;

    /// Runs `xs` through [`tanh_exact_slice`] and asserts each output has
    /// `f32::tanh`'s bits.
    fn assert_tanh_matches_libm(xs: &[f32]) {
        let mut got = xs.to_vec();
        tanh_exact_slice(&mut got);
        for (&x, &y) in xs.iter().zip(&got) {
            assert_eq!(
                y.to_bits(),
                x.tanh().to_bits(),
                "tanh({x:e}) for bits {:#010x}",
                x.to_bits()
            );
        }
    }

    /// The `±` patterns within `radius` ULPs of `|x|`'s pattern `center`.
    fn window(center: u32, radius: u32) -> Vec<f32> {
        let lo = center.saturating_sub(radius);
        let hi = center.saturating_add(radius).min(0x7fff_ffff);
        (lo..=hi)
            .flat_map(|b| [f32::from_bits(b), f32::from_bits(b | 0x8000_0000)])
            .collect()
    }

    /// `2²⁴` patterns, one in every 256 and its low byte varied, so every
    /// exponent of both signs is hit hundreds of thousands of times.
    #[test]
    fn tanh_exact_matches_libm_on_spread_patterns() {
        let mut xs = Vec::with_capacity(1 << 16);
        for block in 0u32..256 {
            xs.clear();
            xs.extend((0u32..1 << 16).map(|i| {
                let hi = (block << 16) | i;
                f32::from_bits(hi << 8 | (hi.wrapping_mul(0x9e37_79b9) >> 24))
            }));
            assert_tanh_matches_libm(&xs);
        }
    }

    /// Each threshold of the port, its ±1-ULP neighbours and a wider
    /// window; each boundary of the reduction's `k`; ±0, subnormals,
    /// infinities and NaNs of both signs, quiet and signalling, with
    /// payloads.
    #[test]
    fn tanh_exact_matches_libm_at_thresholds_and_special_values() {
        // `|x|` where the port changes branch: `tanhf`'s 2⁻⁵⁵, 1, 22 and
        // infinity, then `expm1f`'s 2⁻²⁵, ½·ln2 and 1.5·ln2 on the `−2|x|`
        // that `tanhf` passes it, halved.
        let thresholds = [
            0x2400_0000,
            0x3f80_0000,
            0x41b0_0000,
            0x7f80_0000,
            0x3280_0000,
            0x3e31_7218,
            0x3f05_1592,
        ];
        for t in thresholds {
            for b in [t - 1, t, t + 1] {
                let x = f32::from_bits(b);
                assert_tanh_matches_libm(&[x, -x]);
            }
            assert_tanh_matches_libm(&window(t, 4096));
        }
        // `k = trunc(2|x|/ln2 + ½)` steps at |x| = (k − ½)·ln2/2 and, for
        // `−2|x|`, at (m + ½)·ln2/2.
        for half_steps in 2..=128u32 {
            let x = (f64::from(half_steps) * 0.5 * std::f64::consts::LN_2 / 2.0) as f32;
            assert_tanh_matches_libm(&window(x.to_bits(), 256));
        }
        let mut specials = vec![
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::EPSILON,
        ];
        for b in [
            1,
            2,
            3,
            0x0000_ffff,
            0x0040_0000,
            0x007f_ffff,
            0x7f80_0001,
            0x7fa0_0000,
            0x7fbf_ffff,
            0x7fc0_0000,
            0x7fc0_0001,
            0x7fd5_5555,
            0x7fff_ffff,
        ] {
            specials.push(f32::from_bits(b));
            specials.push(f32::from_bits(b | 0x8000_0000));
        }
        assert_tanh_matches_libm(&specials);
        // Every subnormal one in 64.
        let subnormals: Vec<f32> = (0..0x0080_0000u32 >> 6)
            .flat_map(|i| {
                let b = i << 6 | (i & 63);
                [f32::from_bits(b), f32::from_bits(b | 0x8000_0000)]
            })
            .collect();
        assert_tanh_matches_libm(&subnormals);
    }

    /// Every length from 0 to 40, so the padded tail runs alone, after
    /// whole chunks and not at all; each slice form against its scalar.
    #[test]
    fn exact_slices_match_the_scalar_at_every_length() {
        for len in 0..=40usize {
            let xs: Vec<f32> = (0..len)
                .map(|i| ((i * 7 + len) as f32 * 0.377).sin() * (1.0 + len as f32 * 0.2))
                .collect();
            assert_tanh_matches_libm(&xs);
            let mut ternary = xs.clone();
            ternary_tanh_slice(&mut ternary);
            let mut slope = xs.clone();
            ternary_tanh_slope_slice(&mut slope);
            for (i, &x) in xs.iter().enumerate() {
                assert_eq!(ternary[i].to_bits(), ternary_tanh(x).to_bits(), "len {len}");
                let (t1, t3) = (x.tanh(), (3.0 * x).tanh());
                assert_eq!(
                    slope[i].to_bits(),
                    (t3 * t3 - t1 * t1).to_bits(),
                    "len {len}"
                );
            }
        }
    }

    /// All 2³² patterns against `f32::tanh`. About a minute in release on
    /// two cores; `scripts/verify.sh` runs it.
    #[test]
    #[ignore = "sweeps all 2^32 patterns; run in release"]
    fn tanh_exact_matches_libm_on_every_pattern() {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u64;
        let span = (1u64 << 32).div_ceil(workers).next_multiple_of(1 << 12);
        let mismatches: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let (lo, hi) = (w * span, ((w + 1) * span).min(1 << 32));
                        let mut xs = vec![0.0f32; 1 << 12];
                        let mut ys = xs.clone();
                        let mut bad = 0u64;
                        for start in (lo..hi).step_by(xs.len()) {
                            for (i, x) in xs.iter_mut().enumerate() {
                                *x = f32::from_bits((start + i as u64) as u32);
                            }
                            ys.copy_from_slice(&xs);
                            tanh_exact_slice(&mut ys);
                            bad += xs
                                .iter()
                                .zip(&ys)
                                .filter(|(x, y)| x.tanh().to_bits() != y.to_bits())
                                .count() as u64;
                        }
                        bad
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .sum()
        });
        assert_eq!(mismatches, 0, "patterns whose tanh differs from libm's");
    }

    /// Dense-grid scan of the documented error budget: the fit must stay
    /// under 4e-7 absolute error against the f64 reference everywhere,
    /// including far outside the clamp.
    #[test]
    fn tanh_error_budget_holds_on_dense_grid() {
        let mut max_err = 0.0f64;
        let mut at = 0.0f64;
        for i in 0..=1_000_000u32 {
            let x = -20.0 + f64::from(i) * 4e-5;
            let err = (f64::from(tanh_approx(x as f32)) - x.tanh()).abs();
            if err > max_err {
                max_err = err;
                at = x;
            }
        }
        assert!(
            max_err < 4e-7,
            "tanh max abs error {max_err:.3e} at x = {at}"
        );
    }

    #[test]
    fn sigmoid_error_budget_holds_on_dense_grid() {
        let mut max_err = 0.0f64;
        for i in 0..=1_000_000u32 {
            let x = -30.0 + f64::from(i) * 6e-5;
            let reference = 1.0 / (1.0 + (-x).exp());
            let err = (f64::from(sigmoid_approx(x as f32)) - reference).abs();
            max_err = max_err.max(err);
        }
        assert!(max_err < 2.5e-7, "sigmoid max abs error {max_err:.3e}");
    }

    #[test]
    fn saturation_and_symmetry() {
        assert_eq!(tanh_approx(0.0), 0.0);
        assert_eq!(sigmoid_approx(0.0), 0.5);
        for x in [0.5f32, 1.0, 3.0, 7.0, 20.0, f32::MAX] {
            assert_eq!(tanh_approx(-x), -tanh_approx(x), "odd symmetry at {x}");
            assert!(tanh_approx(x) <= 1.0 && tanh_approx(x) > 0.0);
        }
        assert!(tanh_approx(20.0) > 0.999_999);
        assert!(sigmoid_approx(30.0) > 0.999_999);
        assert!(sigmoid_approx(-30.0) < 1e-6);
    }

    #[test]
    fn slice_kernels_match_scalar_kernels() {
        let xs: Vec<f32> = (0..257).map(|i| (i as f32 - 128.0) * 0.07).collect();
        let mut t = xs.clone();
        tanh_slice(&mut t);
        let mut s = xs.clone();
        sigmoid_slice(&mut s);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(t[i], tanh_approx(x));
            assert_eq!(s[i], sigmoid_approx(x));
        }
    }

    #[test]
    fn precision_names_round_trip() {
        for p in Precision::ALL {
            assert_eq!(Precision::parse(p.name()), Some(p));
        }
        assert_eq!(Precision::parse("f32"), Some(Precision::Exact));
        assert_eq!(Precision::parse("i8"), Some(Precision::QuantizedFast));
        assert_eq!(Precision::parse("fp64"), None);
        assert_eq!(Precision::default(), Precision::Exact);
    }
}
