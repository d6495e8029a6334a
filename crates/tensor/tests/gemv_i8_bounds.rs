//! Accuracy pins for the quantized (i8) packed GEMV tier.
//!
//! Unlike the f32 pack, the i8 layout has no bit-identity contract — its
//! contract is a *bound*: round-to-nearest quantization caps the element
//! error at `0.5 · scale · Σ|x|` (see `lahd_tensor::gemv_i8`). These tests
//! pin that bound across random shapes/values, and pin the structural
//! properties (concat ≡ individual packs, repack statelessness) the fused
//! GRU path relies on.

use lahd_tensor::{Matrix, PackedGemvWeightsI8};
use proptest::prelude::*;

fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let x = (i * 131 + j * 31 + seed as usize * 17 + 3) % 251;
        x as f32 / 125.5 - 1.0
    })
}

/// The quantized product must stay within the a-priori quantization bound
/// of the f32 product (plus a sliver for the f32 fold noise both share).
fn check_shape(k: usize, n: usize, seed: u64, amplitude: f32) {
    let x = dense(1, k, seed);
    let mut w = dense(k, n, seed + 1);
    w.map_inplace(|v| v * amplitude);
    let mut want = Matrix::zeros(1, n);
    x.matmul_into(&w, &mut want);
    let packed = PackedGemvWeightsI8::pack(&w);
    assert_eq!((packed.rows(), packed.cols()), (k, n));
    let mut y = vec![f32::NAN; n]; // gemv_into must overwrite
    packed.gemv_into(x.row(0), &mut y);
    let bound = packed.error_bound(x.row(0)) * 1.001 + 1e-4 * amplitude.max(1.0);
    for (j, (got, wanted)) in y.iter().zip(want.row(0)).enumerate() {
        let diff = (got - wanted).abs();
        assert!(
            diff <= bound,
            "1x{k} · {k}x{n} col {j}: |{got} − {wanted}| = {diff} > bound {bound}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes spanning sub-panel, straddling, and multi-panel
    /// widths, with weight magnitudes from tiny to large (the scale is
    /// relative, so the bound must hold at every amplitude).
    #[test]
    fn quantized_gemv_respects_error_bound(
        k in 1usize..200,
        n in 1usize..200,
        seed in 0u64..1000,
        amp_log in -6i32..6,
    ) {
        check_shape(k, n, seed, 2.0f32.powi(amp_log));
    }
}

/// Deterministic shapes: every monomorphised panel width (64/32/16/8 and
/// each sub-8 tail), the paper's inference shapes, and panel-boundary
/// straddlers.
#[test]
fn panel_width_edge_shapes_respect_bound() {
    for &n in &[
        1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 384,
    ] {
        for &k in &[1, 7, 35, 128, 129] {
            check_shape(k, n, (n * 1000 + k) as u64, 1.0);
        }
    }
}

/// Packing `[A | B | C]` side by side must equal packing each matrix alone
/// — bit-for-bit, since concatenated sources keep their own
/// panels (and scales) and therefore their exact per-column arithmetic.
#[test]
fn concat_pack_matches_individual_packs() {
    let k = 57;
    let sources = [dense(k, 128, 1), dense(k, 33, 2), dense(k, 7, 3)];
    let x = dense(1, k, 4);
    let concat = PackedGemvWeightsI8::pack_concat(&[&sources[0], &sources[1], &sources[2]]);
    let mut fused = vec![0.0f32; 168];
    concat.gemv_into(x.row(0), &mut fused);

    let mut offset = 0;
    for (i, w) in sources.iter().enumerate() {
        let single = PackedGemvWeightsI8::pack(w);
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

/// Re-quantizing differently shaped weights into one buffer must not leak
/// state (data, panels, or scales) between packs.
#[test]
fn repack_reuse_is_stateless() {
    let mut packed = PackedGemvWeightsI8::default();
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
        PackedGemvWeightsI8::pack(&w).gemv_into(x.row(0), &mut cold);
        assert_eq!(
            warm, cold,
            "round {round}: reused pack buffers changed the result"
        );
    }
}
