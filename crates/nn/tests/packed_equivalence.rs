//! Numerical pins for the packed inference fast paths.
//!
//! `PackedLinear` / `PackedGru` must be pure layout optimisations: their
//! outputs are **bit-identical** to the unpacked `Linear::infer_into` /
//! `GruCell::infer_step_into` for every batch size (single row, small
//! batches on the GEMV path, and large batches on the blocked-GEMM
//! fallback), across repacks after parameter updates.

use lahd_nn::{
    GruCell, GruScratch, Linear, PackedGru, PackedGruScratch, PackedLinear, ParamStore, Sgd,
};
use lahd_tensor::{seeded_rng, Matrix};

fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let x = (i * 131 + j * 31 + seed as usize * 17 + 3) % 251;
        x as f32 / 125.5 - 1.0
    })
}

fn assert_matches(label: &str, got: &Matrix, want: &Matrix) {
    let diff = got.max_abs_diff(want);
    assert_eq!(diff, 0.0, "{label}: packed path must be bit-identical");
}

#[test]
fn packed_linear_matches_unpacked_across_batch_sizes() {
    let mut rng = seeded_rng(41);
    let mut store = ParamStore::new();
    // 128→7 mirrors the policy head (tail panel); 35→128 the input side.
    for (li, (ind, outd)) in [(128usize, 7usize), (35, 128), (6, 1), (64, 64)]
        .iter()
        .enumerate()
    {
        let layer = Linear::new(&mut store, &format!("fc{li}"), *ind, *outd, &mut rng);
        let packed = PackedLinear::new(&layer, &store);
        // 1 row (GEMV), 15 rows (row-wise GEMV), 16/24 rows (fallback).
        for rows in [1usize, 2, 15, 16, 24] {
            let x = dense(rows, *ind, (li * 100 + rows) as u64);
            let mut want = Matrix::zeros(rows, *outd);
            layer.infer_into(&store, &x, &mut want);
            let mut got = Matrix::filled(rows, *outd, f32::NAN);
            packed.infer_into(&store, &x, &mut got);
            assert_matches(&format!("linear {ind}->{outd} rows={rows}"), &got, &want);
        }
    }
}

fn check_gru(input_dim: usize, hidden_dim: usize, rows: usize, seed: u64) {
    let mut rng = seeded_rng(seed);
    let mut store = ParamStore::new();
    let cell = GruCell::new(&mut store, "gru", input_dim, hidden_dim, &mut rng);
    let packed = PackedGru::new(&cell, &store);
    let x = dense(rows, input_dim, seed + 1);
    let h = dense(rows, hidden_dim, seed + 2).map(|v| v * 0.7);

    let mut want = Matrix::zeros(rows, hidden_dim);
    cell.infer_step_into(&store, &x, &h, &mut GruScratch::default(), &mut want);
    let mut got = Matrix::filled(rows, hidden_dim, f32::NAN);
    packed.infer_step_into(&store, &x, &h, &mut PackedGruScratch::default(), &mut got);
    assert_matches(
        &format!("gru {input_dim}x{hidden_dim} rows={rows}"),
        &got,
        &want,
    );
}

#[test]
fn packed_gru_matches_unpacked_across_shapes() {
    // Paper scale, demo scale, odd hidden widths, and the batch fallback.
    for &(input_dim, hidden_dim) in &[(35, 128), (4, 6), (35, 48), (7, 33)] {
        for &rows in &[1usize, 3, 15, 16, 20] {
            check_gru(
                input_dim,
                hidden_dim,
                rows,
                (input_dim * 1000 + hidden_dim) as u64,
            );
        }
    }
}

/// A packed cell must track parameter updates through `repack` — and must
/// refuse to run on stale weights.
#[test]
fn repack_tracks_an_optimiser_step() {
    let mut rng = seeded_rng(7);
    let mut store = ParamStore::new();
    let cell = GruCell::new(&mut store, "gru", 5, 12, &mut rng);
    let mut packed = PackedGru::new(&cell, &store);

    // Fake a gradient step: perturb every parameter via the optimiser API.
    for id in store.ids() {
        store.add_grad(
            id,
            &Matrix::filled(store.value(id).rows(), store.value(id).cols(), 0.05),
        );
    }
    Sgd::new(0.1).step(&mut store);
    packed.repack(&store);

    let x = dense(1, 5, 1);
    let h = dense(1, 12, 2);
    let mut want = Matrix::zeros(1, 12);
    cell.infer_step_into(&store, &x, &h, &mut GruScratch::default(), &mut want);
    let mut got = Matrix::zeros(1, 12);
    packed.infer_step_into(&store, &x, &h, &mut PackedGruScratch::default(), &mut got);
    assert_matches("post-update gru", &got, &want);
}

#[test]
#[should_panic(expected = "stale PackedGru")]
fn stale_packed_gru_is_a_loud_failure() {
    let mut rng = seeded_rng(7);
    let mut store = ParamStore::new();
    let cell = GruCell::new(&mut store, "gru", 3, 4, &mut rng);
    let packed = PackedGru::new(&cell, &store);
    let ids = store.ids();
    store.value_mut(ids[0])[(0, 0)] += 1.0;
    let mut out = Matrix::zeros(1, 4);
    packed.infer_step_into(
        &store,
        &Matrix::zeros(1, 3),
        &Matrix::zeros(1, 4),
        &mut PackedGruScratch::default(),
        &mut out,
    );
}

/// A 100-step recurrent rollout with an optimiser step (and repack) in the
/// middle: packed and unpacked hidden trajectories stay identical, i.e.
/// divergence cannot accumulate across steps or survive a repack.
#[test]
fn hundred_step_rollout_with_mid_rollout_update_stays_identical() {
    let mut rng = seeded_rng(99);
    let mut store = ParamStore::new();
    let cell = GruCell::new(&mut store, "gru", 8, 24, &mut rng);
    let mut packed = PackedGru::new(&cell, &store);

    let mut scratch_u = GruScratch::default();
    let mut scratch_p = PackedGruScratch::default();
    let mut h_u = cell.initial_state();
    let mut h_p = cell.initial_state();
    let mut next_u = Matrix::zeros(1, 24);
    let mut next_p = Matrix::zeros(1, 24);

    for t in 0..100u64 {
        if t == 50 {
            // Mid-rollout training step, as the A2C loop performs between
            // episodes: mutate, repack, keep going.
            for id in store.ids() {
                let g = dense(store.value(id).rows(), store.value(id).cols(), t).scaled(0.02);
                store.add_grad(id, &g);
            }
            Sgd::new(0.05).step(&mut store);
            packed.repack(&store);
        }
        let x = dense(1, 8, 1000 + t);
        cell.infer_step_into(&store, &x, &h_u, &mut scratch_u, &mut next_u);
        packed.infer_step_into(&store, &x, &h_p, &mut scratch_p, &mut next_p);
        assert_matches(&format!("step {t}"), &next_p, &next_u);
        std::mem::swap(&mut h_u, &mut next_u);
        std::mem::swap(&mut h_p, &mut next_p);
    }
}
