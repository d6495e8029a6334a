//! Dense linear algebra for the LAHD neural substrate.
//!
//! This crate provides [`Matrix`], a row-major dense `f32` matrix, together
//! with the small set of kernels the rest of the workspace needs: GEMM in the
//! three orientations used by reverse-mode autodiff (`A·B`, `Aᵀ·B`, `A·Bᵀ`),
//! element-wise maps, row-broadcast operations, stable softmax, reductions,
//! and seeded random initialisation.
//!
//! Small vector-matrix shapes run branch-free, eight-wide-unrolled loops
//! written for the autovectoriser; above a size cutoff every orientation
//! routes through the packed, cache-blocked, register-tiled GEMM in
//! [`gemm`]. Repeated `1×K` inference products should pack their weights
//! once into [`gemv::PackedGemvWeights`], whose column-panel kernels keep
//! the accumulators in registers for the whole reduction (bit-identical to
//! `matmul_into`). Every orientation has an `_into`/`_acc` variant writing
//! into caller-owned scratch, and `transpose` walks 32×32 cache blocks. For
//! decision paths that can trade bit-identity for latency,
//! [`gemv_i8::PackedGemvWeightsI8`] packs the same column panels as
//! quantized `i8` with per-panel dequantization scales (4× less weight
//! streaming, explicit error bound, runtime-dispatched widen kernels). See
//! `PERF.md` at the workspace root for measurements and the blocked-GEMM /
//! packed-GEMV design notes.
//!
//! # Example
//!
//! ```
//! use lahd_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::eye(2);
//! assert_eq!(a.matmul(&b), a);
//! ```

pub mod gemm;
pub mod gemv;
pub mod gemv_i8;
mod init;
mod matrix;
mod ops;
mod stats;

pub use gemm::PackBuffers;
pub use gemv::PackedGemvWeights;
pub use gemv_i8::PackedGemvWeightsI8;
pub use init::{xavier_normal, xavier_uniform, Initializer};
pub use matrix::Matrix;
pub use ops::{log_softmax_row, softmax_row};
pub use stats::{argmax, mean, percentile, std_dev, variance};

/// Convenience alias used throughout the workspace for seeded randomness.
pub type Rng = rand::rngs::SmallRng;

/// Creates the workspace-standard RNG from a `u64` seed.
///
/// Every stochastic component in LAHD threads an explicit seed so that
/// experiments are reproducible; this is the single place that picks the
/// generator.
pub fn seeded_rng(seed: u64) -> Rng {
    use rand::SeedableRng;
    Rng::seed_from_u64(seed)
}
