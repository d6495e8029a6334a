//! Numerical pins for the packed GEMV inference kernels.
//!
//! The packed layout must be a pure layout optimisation: `gemv_into` —
//! including its runtime AVX-512 mul+add path — is **bit-identical** to
//! `Matrix::matmul_into` on `1×K · K×N` for every shape, aligned or odd,
//! and for any concatenation of sources.

use lahd_tensor::{Matrix, PackedGemvWeights};
use proptest::prelude::*;

fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let x = (i * 131 + j * 31 + seed as usize * 17 + 3) % 251;
        x as f32 / 125.5 - 1.0
    })
}

fn assert_matches(label: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label}: length mismatch");
    let diff = got
        .iter()
        .zip(want)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert_eq!(
        diff, 0.0,
        "{label}: packed gemv must be bit-identical to mm_into"
    );
}

fn check_shape(k: usize, n: usize, seed: u64) {
    let x = dense(1, k, seed);
    let w = dense(k, n, seed + 1);
    let mut want = Matrix::zeros(1, n);
    x.matmul_into(&w, &mut want);
    let packed = PackedGemvWeights::pack(&w);
    assert_eq!((packed.rows(), packed.cols()), (k, n));
    let mut y = vec![f32::NAN; n]; // gemv_into must overwrite
    packed.gemv_into(x.row(0), &mut y);
    assert_matches(&format!("1x{k} · {k}x{n}"), &y, want.row(0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes spanning sub-panel, straddling, and multi-panel
    /// widths with odd remainders in both dimensions.
    #[test]
    fn packed_gemv_matches_mm_into(
        k in 1usize..200,
        n in 1usize..200,
        seed in 0u64..1000,
    ) {
        check_shape(k, n, seed);
    }
}

/// Deterministic shapes: every monomorphised panel width (64/32/16/8 and
/// each sub-8 tail), the paper's inference shapes, and panel-boundary
/// straddlers.
#[test]
fn panel_width_edge_shapes_match() {
    for &n in &[
        1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 384,
    ] {
        for &k in &[1, 7, 35, 128, 129] {
            check_shape(k, n, (n * 1000 + k) as u64);
        }
    }
}

/// Packing `[A | B | C]` side by side must equal packing each matrix alone
/// — bit-for-bit, since concatenated sources keep their own
/// panels and therefore their exact per-column arithmetic.
#[test]
fn concat_pack_matches_individual_packs() {
    let k = 57;
    let sources = [dense(k, 128, 1), dense(k, 33, 2), dense(k, 7, 3)];
    let x = dense(1, k, 4);
    let concat = PackedGemvWeights::pack_concat(&[&sources[0], &sources[1], &sources[2]]);
    let mut fused = vec![0.0f32; 168];
    concat.gemv_into(x.row(0), &mut fused);

    let mut offset = 0;
    for (i, w) in sources.iter().enumerate() {
        let single = PackedGemvWeights::pack(w);
        let mut y = vec![0.0f32; w.cols()];
        single.gemv_into(x.row(0), &mut y);
        assert_eq!(
            y,
            fused[offset..offset + w.cols()],
            "source {i}: concatenated pack changed the arithmetic"
        );
        offset += w.cols();
    }
}

/// Re-packing differently shaped weights into one buffer must not leak
/// state between packs.
#[test]
fn repack_reuse_is_stateless() {
    let mut packed = PackedGemvWeights::default();
    for (round, &(k, n)) in [(128usize, 128usize), (35, 384), (9, 5), (64, 200)]
        .iter()
        .enumerate()
    {
        let w = dense(k, n, round as u64);
        let x = dense(1, k, round as u64 + 10);
        packed.repack(&w);
        let mut warm = vec![0.0f32; n];
        packed.gemv_into(x.row(0), &mut warm);
        let mut cold = vec![0.0f32; n];
        PackedGemvWeights::pack(&w).gemv_into(x.row(0), &mut cold);
        assert_eq!(
            warm, cold,
            "round {round}: reused pack buffers changed the result"
        );
    }
}

/// The packed layout must agree with the ascending-`k` reference fold (the
/// ground truth the whole GEMM stack is pinned to), not just with the
/// unblocked kernel that happens to share it.
#[test]
fn packed_gemv_matches_reference_fold() {
    let k = 100;
    let n = 77;
    let x = dense(1, k, 11);
    let w = dense(k, n, 12);
    let mut reference = Matrix::zeros(1, n);
    lahd_tensor::gemm::reference::nn_acc(&x, &w, &mut reference);
    let mut y = vec![0.0f32; n];
    PackedGemvWeights::pack(&w).gemv_into(x.row(0), &mut y);
    assert_matches("reference fold", &y, reference.row(0));
}
