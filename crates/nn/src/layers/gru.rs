//! Gated recurrent unit cell.

use lahd_tensor::{Initializer, Matrix, Rng};

use crate::activations::tanh_exact_slice;
use crate::graph::{Graph, Var};
use crate::params::{ParamId, ParamStore};

/// A GRU cell with the standard update/reset/candidate gating:
///
/// ```text
/// z  = σ(x·Wz + h·Uz + bz)          (update gate)
/// r  = σ(x·Wr + h·Ur + br)          (reset gate)
/// n  = tanh(x·Wn + (r ∘ h)·Un + bn) (candidate)
/// h' = (1 - z) ∘ n + z ∘ h
/// ```
///
/// The same cell exposes a differentiable [`GruCell::step`] for training with
/// backpropagation-through-time and an allocation-light [`GruCell::infer_step`]
/// for rollouts and deployment.
#[derive(Clone, Debug)]
pub struct GruCell {
    pub(crate) wz: ParamId,
    pub(crate) uz: ParamId,
    pub(crate) bz: ParamId,
    pub(crate) wr: ParamId,
    pub(crate) ur: ParamId,
    pub(crate) br: ParamId,
    pub(crate) wn: ParamId,
    pub(crate) un: ParamId,
    pub(crate) bn: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Allocates a GRU cell in `store`; parameter names are prefixed with
    /// `name` (e.g. `gru.wz`).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        let mut w = |suffix: &str, rows: usize| {
            store.alloc(
                format!("{name}.{suffix}"),
                rows,
                hidden_dim,
                Initializer::XavierUniform,
                rng,
            )
        };
        let wz = w("wz", input_dim);
        let uz = w("uz", hidden_dim);
        let wr = w("wr", input_dim);
        let ur = w("ur", hidden_dim);
        let wn = w("wn", input_dim);
        let un = w("un", hidden_dim);
        let mut b = |suffix: &str| {
            store.alloc(
                format!("{name}.{suffix}"),
                1,
                hidden_dim,
                Initializer::Zeros,
                rng,
            )
        };
        let bz = b("bz");
        let br = b("br");
        let bn = b("bn");
        Self {
            wz,
            uz,
            bz,
            wr,
            ur,
            br,
            wn,
            un,
            bn,
            input_dim,
            hidden_dim,
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// The all-zeros initial hidden state.
    pub fn initial_state(&self) -> Matrix {
        Matrix::zeros(1, self.hidden_dim)
    }

    /// One differentiable step on the tape: `(x_t, h_{t-1}) → h_t`.
    pub fn step(&self, g: &mut Graph, store: &ParamStore, x: Var, h: Var) -> Var {
        let wz = g.param(store, self.wz);
        let uz = g.param(store, self.uz);
        let bz = g.param(store, self.bz);
        let wr = g.param(store, self.wr);
        let ur = g.param(store, self.ur);
        let br = g.param(store, self.br);
        let wn = g.param(store, self.wn);
        let un = g.param(store, self.un);
        let bn = g.param(store, self.bn);

        let z = {
            let xw = g.matmul(x, wz);
            let hu = g.matmul(h, uz);
            let s = g.add(xw, hu);
            let s = g.add_bias(s, bz);
            g.sigmoid(s)
        };
        let r = {
            let xw = g.matmul(x, wr);
            let hu = g.matmul(h, ur);
            let s = g.add(xw, hu);
            let s = g.add_bias(s, br);
            g.sigmoid(s)
        };
        let n = {
            let xw = g.matmul(x, wn);
            let rh = g.mul(r, h);
            let rhu = g.matmul(rh, un);
            let s = g.add(xw, rhu);
            let s = g.add_bias(s, bn);
            g.tanh(s)
        };
        let one_minus_z = g.one_minus(z);
        let a = g.mul(one_minus_z, n);
        let b = g.mul(z, h);
        g.add(a, b)
    }

    /// One inference step without the tape: `(x_t, h_{t-1}) → h_t`.
    ///
    /// Allocating convenience wrapper over [`GruCell::infer_step_into`];
    /// accepts a batch (`B × input_dim` with `B × hidden_dim` state).
    pub fn infer_step(&self, store: &ParamStore, x: &Matrix, h: &Matrix) -> Matrix {
        let mut scratch = GruScratch::default();
        let mut out = Matrix::zeros(x.rows(), self.hidden_dim);
        self.infer_step_into(store, x, h, &mut scratch, &mut out);
        out
    }

    /// One inference step writing into caller-owned state: zero heap
    /// allocations once `scratch` and `out` have warmed up.
    ///
    /// `x` is `B × input_dim`, `h` is `B × hidden_dim`, and `out` receives
    /// the next `B × hidden_dim` hidden state; all `B` rows step in one set
    /// of `B × D` matmuls. `out` must not alias `h`.
    ///
    /// # Panics
    /// Panics if `x`, `h` and `out` disagree on widths or row counts.
    pub fn infer_step_into(
        &self,
        store: &ParamStore,
        x: &Matrix,
        h: &Matrix,
        scratch: &mut GruScratch,
        out: &mut Matrix,
    ) {
        let rows = x.rows();
        assert_eq!(x.cols(), self.input_dim, "GRU input width mismatch");
        assert_eq!(h.cols(), self.hidden_dim, "GRU hidden width mismatch");
        assert_eq!(h.rows(), rows, "GRU state row-count mismatch");
        assert_eq!(
            out.shape(),
            (rows, self.hidden_dim),
            "GRU output shape mismatch"
        );
        scratch.ensure(rows, self.hidden_dim);
        let GruScratch { z, r, n, rh, tmp } = scratch;

        // z = σ(x·Wz + h·Uz + bz)
        x.matmul_into(store.value(self.wz), z);
        h.matmul_into(store.value(self.uz), tmp);
        z.add_assign(tmp);
        z.add_row_broadcast(store.value(self.bz));
        z.map_inplace(|v| 1.0 / (1.0 + (-v).exp()));

        // r = σ(x·Wr + h·Ur + br)
        x.matmul_into(store.value(self.wr), r);
        h.matmul_into(store.value(self.ur), tmp);
        r.add_assign(tmp);
        r.add_row_broadcast(store.value(self.br));
        r.map_inplace(|v| 1.0 / (1.0 + (-v).exp()));

        // n = tanh(x·Wn + (r ∘ h)·Un + bn)
        rh.copy_from(r);
        rh.mul_assign(h);
        x.matmul_into(store.value(self.wn), n);
        rh.matmul_into(store.value(self.un), tmp);
        n.add_assign(tmp);
        n.add_row_broadcast(store.value(self.bn));
        tanh_exact_slice(n.as_mut_slice());

        // h' = (1 - z) ∘ n + z ∘ h
        for ((o, &zv), (&nv, &hv)) in out
            .as_mut_slice()
            .iter_mut()
            .zip(z.as_slice())
            .zip(n.as_slice().iter().zip(h.as_slice()))
        {
            *o = (1.0 - zv) * nv + zv * hv;
        }
    }
}

/// Caller-owned workspace for [`GruCell::infer_step_into`]: the five
/// intermediate `B × hidden` matrices a GRU step needs. Reusing one scratch
/// across steps makes per-decision inference allocation-free.
#[derive(Clone, Debug, Default)]
pub struct GruScratch {
    z: Matrix,
    r: Matrix,
    n: Matrix,
    rh: Matrix,
    tmp: Matrix,
}

impl GruScratch {
    /// Resizes every buffer to `rows × hidden`, keeping allocations when
    /// the capacity suffices.
    fn ensure(&mut self, rows: usize, hidden: usize) {
        for m in [
            &mut self.z,
            &mut self.r,
            &mut self.n,
            &mut self.rh,
            &mut self.tmp,
        ] {
            if m.shape() != (rows, hidden) {
                m.reshape_zeroed(rows, hidden);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahd_tensor::seeded_rng;

    fn cell() -> (ParamStore, GruCell) {
        let mut rng = seeded_rng(9);
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 4, 6, &mut rng);
        (store, cell)
    }

    #[test]
    fn tape_and_inference_paths_agree() {
        let (store, cell) = cell();
        let x = Matrix::row_vector(&[0.1, -0.5, 0.7, 0.2]);
        let h0 = cell.initial_state();

        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let hv = g.constant(h0.clone());
        let h1_tape = cell.step(&mut g, &store, xv, hv);
        let h1_infer = cell.infer_step(&store, &x, &h0);
        assert!(g.value(h1_tape).max_abs_diff(&h1_infer) < 1e-6);
    }

    #[test]
    fn hidden_state_stays_bounded() {
        let (store, cell) = cell();
        let mut h = cell.initial_state();
        let x = Matrix::row_vector(&[10.0, -10.0, 10.0, -10.0]);
        for _ in 0..100 {
            h = cell.infer_step(&store, &x, &h);
        }
        // GRU output is a convex combination of tanh candidates and previous
        // state, so every coordinate stays in (-1, 1).
        assert!(h.as_slice().iter().all(|&v| v.abs() <= 1.0));
        assert!(!h.has_non_finite());
    }

    #[test]
    fn zero_input_zero_state_is_fixed_by_zero_biases_only_if_gates_balance() {
        let (store, cell) = cell();
        let h0 = cell.initial_state();
        let x = Matrix::zeros(1, 4);
        let h1 = cell.infer_step(&store, &x, &h0);
        // With zero input, zero state and zero biases the candidate is
        // tanh(0) = 0, so the state remains exactly zero.
        assert!(h1.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn different_inputs_move_the_state_differently() {
        let (store, cell) = cell();
        let h0 = cell.initial_state();
        let ha = cell.infer_step(&store, &Matrix::row_vector(&[1.0, 0.0, 0.0, 0.0]), &h0);
        let hb = cell.infer_step(&store, &Matrix::row_vector(&[0.0, 1.0, 0.0, 0.0]), &h0);
        assert!(ha.max_abs_diff(&hb) > 1e-4);
    }

    #[test]
    fn sequence_gradient_reaches_all_parameters() {
        let (mut store, cell) = cell();
        let mut g = Graph::new();
        let mut h = g.constant(cell.initial_state());
        for t in 0..5 {
            let x = g.constant(Matrix::filled(1, 4, 0.1 * (t as f32 + 1.0)));
            h = cell.step(&mut g, &store, x, h);
        }
        let loss = g.sum_all(h);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        for (_, p) in store.iter() {
            assert!(
                p.grad.frobenius_norm() > 0.0,
                "parameter {} received no gradient through BPTT",
                p.name
            );
        }
    }
}
