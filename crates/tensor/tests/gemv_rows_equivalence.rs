//! Numerical pins for the multi-row packed GEMV kernels.
//!
//! `gemv_rows_into` is a batching optimisation only: for every row count
//! below `BLOCK_MIN_ROWS` (and the blocks beyond it), and for column counts
//! that exercise every panel kind — fused 64-pairs, single 64/32/16/8
//! panels and each sub-8 tail — every output row must equal one
//! `gemv_into` on that row, bit for bit, in both the f32 and the i8 tier.

use lahd_tensor::gemm::BLOCK_MIN_ROWS;
use lahd_tensor::{Matrix, PackedGemvWeights, PackedGemvWeightsI8};
use proptest::prelude::*;

fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let x = (i * 131 + j * 31 + seed as usize * 17 + 3) % 251;
        x as f32 / 125.5 - 1.0
    })
}

/// Column counts covering every panel kind: each sub-8 tail, each single
/// power-of-two panel, a 64-pair, and mixed decompositions that chain a
/// pair, every narrower panel and a tail.
const WIDTHS: [usize; 15] = [1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64, 128, 135, 255, 384];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `rows` rows through `multi` and through `single` row by row, and
/// asserts equal bits.
fn check_rows(
    label: &str,
    rows: usize,
    k: usize,
    n: usize,
    seed: u64,
    multi: impl Fn(usize, &[f32], &mut [f32]),
    single: impl Fn(&[f32], &mut [f32]),
) {
    let x = dense(rows, k, seed);
    let mut got = vec![f32::NAN; rows * n]; // must be overwritten
    multi(rows, x.as_slice(), &mut got);
    for r in 0..rows {
        let mut want = vec![f32::NAN; n];
        single(x.row(r), &mut want);
        assert_eq!(
            bits(&got[r * n..(r + 1) * n]),
            bits(&want),
            "{label}: row {r} of {rows} at {k}x{n} differs from gemv_into"
        );
    }
}

fn check_f32(rows: usize, k: usize, n: usize, seed: u64) {
    let packed = PackedGemvWeights::pack(&dense(k, n, seed + 1));
    check_rows(
        "f32",
        rows,
        k,
        n,
        seed,
        |rows, x, y| packed.gemv_rows_into(rows, x, y),
        |x, y| packed.gemv_into(x, y),
    );
}

fn check_i8(rows: usize, k: usize, n: usize, seed: u64) {
    let packed = PackedGemvWeightsI8::pack(&dense(k, n, seed + 1));
    check_rows(
        "i8",
        rows,
        k,
        n,
        seed,
        |rows, x, y| packed.gemv_rows_into(rows, x, y),
        |x, y| packed.gemv_into(x, y),
    );
}

#[test]
fn every_row_count_and_panel_kind_matches_single_rows() {
    for rows in 1..BLOCK_MIN_ROWS {
        for (i, &n) in WIDTHS.iter().enumerate() {
            for k in [1, 35, 128] {
                check_f32(rows, k, n, (rows * 31 + i) as u64);
                check_i8(rows, k, n, (rows * 31 + i) as u64);
            }
        }
    }
}

#[test]
fn concatenated_packs_match_single_rows() {
    // The GRU's fused gate packs: `[Wz | Wr | Wn]` at paper width.
    let ws: Vec<Matrix> = (0..3).map(|s| dense(35, 128, s)).collect();
    let refs: Vec<&Matrix> = ws.iter().collect();
    let f32_pack = PackedGemvWeights::pack_concat(&refs);
    let i8_pack = PackedGemvWeightsI8::pack_concat(&refs);
    for rows in 1..BLOCK_MIN_ROWS {
        check_rows(
            "f32 concat",
            rows,
            35,
            384,
            rows as u64,
            |r, x, y| f32_pack.gemv_rows_into(r, x, y),
            |x, y| f32_pack.gemv_into(x, y),
        );
        check_rows(
            "i8 concat",
            rows,
            35,
            384,
            rows as u64,
            |r, x, y| i8_pack.gemv_rows_into(r, x, y),
            |x, y| i8_pack.gemv_into(x, y),
        );
    }
}

#[test]
fn row_counts_past_one_block_split_into_blocks() {
    for rows in [BLOCK_MIN_ROWS, BLOCK_MIN_ROWS + 1, 2 * BLOCK_MIN_ROWS + 3] {
        check_f32(rows, 40, 135, rows as u64);
        check_i8(rows, 40, 135, rows as u64);
    }
}

#[test]
fn zero_rows_and_empty_operands_are_harmless() {
    let packed = PackedGemvWeights::pack(&dense(4, 9, 0));
    packed.gemv_rows_into(0, &[], &mut []);
    let empty = PackedGemvWeightsI8::pack(&Matrix::zeros(0, 0));
    empty.gemv_rows_into(3, &[], &mut []);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes with odd remainders in both dimensions, random row
    /// counts below the blocked cutoff, both tiers.
    #[test]
    fn random_shapes_match_single_rows(
        rows in 1usize..BLOCK_MIN_ROWS,
        k in 1usize..150,
        n in 1usize..300,
        seed in 0u64..1000,
    ) {
        check_f32(rows, k, n, seed);
        check_i8(rows, k, n, seed);
    }
}
