//! Vectorized polynomial activations for the quantized fast-inference tier.
//!
//! The bit-identical packed inference path computes its gates with scalar
//! libm `expf`/`tanhf` — at GRU-128 scale that is 384 serial libm calls per
//! decision, ~45% of the packed step (see PERF.md). These kernels replace
//! them in [`Precision::QuantizedFast`](crate::Precision) mode with a
//! branch-free rational (minimax) approximation evaluated slice-at-a-time,
//! which the autovectoriser turns into straight vector polynomial code
//! (clamp → Horner ladders → one division).
//!
//! # Approximation and error budget
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
///   contract: f32 packed weights, libm activations — bit-identical to the
///   unpacked inference path on the default build.
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
