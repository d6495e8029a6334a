//! Numerical pins for the packed/blocked GEMM.
//!
//! The blocked path must be a pure layout optimisation: it is
//! **bit-identical** to the ascending-`k` reference fold for every
//! orientation and every shape — including odd, rectangular, and
//! non-multiple-of-tile dimensions — and therefore also bit-identical to
//! the unblocked `A·B` / `Aᵀ·B` kernels, which perform the same fold.
//! (The unblocked `A·Bᵀ` kernel uses an eight-lane dot-product reduction
//! tree, so it is pinned against the reference with a tolerance instead;
//! see the `gemm` module docs.)

use lahd_tensor::gemm::{self, PackBuffers};
use lahd_tensor::Matrix;
use proptest::prelude::*;

fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let x = (i * 131 + j * 31 + seed as usize * 17 + 3) % 251;
        x as f32 / 125.5 - 1.0
    })
}

fn assert_matches(label: &str, got: &Matrix, want: &Matrix) {
    let diff = got.max_abs_diff(want);
    assert_eq!(diff, 0.0, "{label}: blocked path must be bit-identical");
}

/// Runs all three orientations through blocked / unblocked / reference on
/// the same operands and cross-checks them.
fn check_all_orientations(m: usize, n: usize, k: usize, seed: u64) {
    let mut packs = PackBuffers::new();

    // A·B
    let a = dense(m, k, seed);
    let b = dense(k, n, seed + 1);
    let seed_out = dense(m, n, seed + 2); // accumulate into a non-zero C
    let mut blocked = seed_out.clone();
    let mut unblocked = seed_out.clone();
    let mut reference = seed_out.clone();
    gemm::blocked_nn(&a, &b, &mut blocked, &mut packs);
    gemm::unblocked::nn_acc(&a, &b, &mut unblocked);
    gemm::reference::nn_acc(&a, &b, &mut reference);
    assert_matches("nn blocked vs reference", &blocked, &reference);
    assert_eq!(
        unblocked.max_abs_diff(&reference),
        0.0,
        "nn unblocked kernel must share the reference fold"
    );

    // Aᵀ·B (A stored k×m)
    let at = dense(k, m, seed + 3);
    let mut blocked = seed_out.clone();
    let mut unblocked = seed_out.clone();
    let mut reference = seed_out.clone();
    gemm::blocked_tn(&at, &b, &mut blocked, &mut packs);
    gemm::unblocked::tn_acc(&at, &b, &mut unblocked);
    gemm::reference::tn_acc(&at, &b, &mut reference);
    assert_matches("tn blocked vs reference", &blocked, &reference);
    assert_eq!(
        unblocked.max_abs_diff(&reference),
        0.0,
        "tn unblocked kernel must share the reference fold"
    );

    // A·Bᵀ (B stored n×k)
    let bt = dense(n, k, seed + 4);
    let mut blocked = seed_out.clone();
    let mut unblocked = seed_out;
    let mut reference = blocked.clone();
    gemm::blocked_nt(&a, &bt, &mut blocked, &mut packs);
    gemm::unblocked::nt_acc(&a, &bt, &mut unblocked);
    gemm::reference::nt_acc(&a, &bt, &mut reference);
    assert_matches("nt blocked vs reference", &blocked, &reference);
    // The unblocked nt kernel's lane-split dot product rounds differently;
    // it is close, not bit-equal.
    let k_scale = (k as f32).max(1.0);
    assert!(
        unblocked.max_abs_diff(&reference) <= 1e-5 * k_scale,
        "nt unblocked kernel drifted beyond rounding noise"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random odd/rectangular shapes, including dimensions below one tile
    /// and ones that straddle tile boundaries.
    #[test]
    fn blocked_matches_unblocked_and_reference(
        m in 1usize..41,
        n in 1usize..41,
        k in 1usize..41,
        seed in 0u64..1000,
    ) {
        check_all_orientations(m, n, k, seed);
    }
}

/// Deterministic shapes chosen to cross every panel boundary (`MC`=64,
/// `KC`=`NC`=256) with non-multiple-of-tile remainders in each dimension.
#[test]
fn panel_boundary_shapes_match() {
    for &(m, n, k) in &[
        (1, 9, 300),
        (66, 259, 258),
        (8, 8, 8),
        (13, 7, 260),
        (70, 9, 17),
    ] {
        check_all_orientations(m, n, k, 99);
    }
}

/// The public `Matrix` entry points dispatch above the cutoff; the result
/// must match the reference fold no matter which path was taken.
#[test]
fn dispatching_entry_points_match_reference() {
    // Above the cutoff for all three orientations.
    let a = dense(128, 128, 7);
    let b = dense(128, 128, 8);
    let mut reference = Matrix::zeros(128, 128);
    gemm::reference::nn_acc(&a, &b, &mut reference);
    assert_matches("matmul dispatch", &a.matmul(&b), &reference);

    let mut reference_tn = Matrix::zeros(128, 128);
    gemm::reference::tn_acc(&a, &b, &mut reference_tn);
    assert_matches("matmul_tn dispatch", &a.matmul_tn(&b), &reference_tn);

    let mut reference_nt = Matrix::zeros(128, 128);
    gemm::reference::nt_acc(&a, &b, &mut reference_nt);
    assert_matches("matmul_nt dispatch", &a.matmul_nt(&b), &reference_nt);
}

/// Reusing one `PackBuffers` across differently shaped products must not
/// leak state between calls.
#[test]
fn pack_buffer_reuse_is_stateless() {
    let mut packs = PackBuffers::new();
    let shapes = [(40, 24, 33), (9, 40, 40), (33, 17, 26)];
    for (round, &(m, n, k)) in shapes.iter().enumerate() {
        let a = dense(m, k, round as u64);
        let b = dense(k, n, round as u64 + 10);
        let mut warm = Matrix::zeros(m, n);
        gemm::blocked_nn(&a, &b, &mut warm, &mut packs);
        let mut cold = Matrix::zeros(m, n);
        gemm::blocked_nn(&a, &b, &mut cold, &mut PackBuffers::new());
        assert_eq!(
            warm.max_abs_diff(&cold),
            0.0,
            "round {round}: reused buffers changed the result"
        );
    }
}

/// `_with` variants (caller-owned scratch) agree with the thread-local
/// entry points bit for bit.
#[test]
fn with_variants_match_default_entry_points() {
    let a = dense(96, 80, 1);
    let b = dense(80, 72, 2);
    let bt = dense(72, 80, 3);
    let at = dense(80, 96, 4);
    let mut packs = PackBuffers::new();

    let mut nn = Matrix::zeros(96, 72);
    a.matmul_acc_with(&b, &mut nn, &mut packs);
    assert_eq!(nn.max_abs_diff(&a.matmul(&b)), 0.0);

    let mut tn = Matrix::zeros(96, 72);
    at.matmul_tn_acc_with(&b, &mut tn, &mut packs);
    assert_eq!(tn.max_abs_diff(&at.matmul_tn(&b)), 0.0);

    let mut nt = Matrix::zeros(96, 72);
    a.matmul_nt_acc_with(&bt, &mut nt, &mut packs);
    assert_eq!(nt.max_abs_diff(&a.matmul_nt(&bt)), 0.0);
}
