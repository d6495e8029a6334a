//! Packed inference fast paths for [`Linear`] and [`GruCell`].
//!
//! Per-decision deployment runs `1×D` products, which the blocked GEMM
//! deliberately leaves on the unblocked axpy kernels; packing the weights
//! into the column-panel layout of [`lahd_tensor::gemv`] once and reusing
//! the pack across decisions removes both the per-`k` output-row traffic
//! and (for the GRU) two of the three gate traversals: the gate weight
//! matrices that share an operand are packed side by side, so one
//! [`PackedGemvWeights::gemv_rows_into`] pass produces every gate's
//! pre-activation for every row of a small batch, loading each weight
//! once for all of them.
//!
//! # Freshness
//!
//! A pack is a cache of parameter values. Both wrappers record
//! [`ParamStore::version`] at pack time and assert it on every inference
//! call: after an optimiser step (or any other value mutation) the owner
//! must call `repack` before inferring again, and forgetting to do so is a
//! loud panic instead of silently stale logits. Equal versions across
//! *different* store instances are not proof of equality — keep each packed
//! wrapper paired with the store it was packed from (the trainer and QBN
//! types in this workspace do exactly that).
//!
//! # Numerical contract
//!
//! Both wrappers carry a [`Precision`] chosen at pack time:
//!
//! * [`Precision::Exact`] (the default): every packed path is
//!   **bit-identical** to its unpacked counterpart ([`Linear::infer_into`],
//!   [`GruCell::infer_step_into`]) for every batch size — below the blocked
//!   cutoff both sides perform the same ascending-`k` folds and identical
//!   element-wise arithmetic, and at [`BLOCK_MIN_ROWS`] rows and above the
//!   packed wrappers fall back to the unpacked methods outright (batches
//!   that large are better served by the blocked GEMM than by multi-row
//!   GEMV).
//! * [`Precision::QuantizedFast`]: weights ride the i8 column panels of
//!   [`PackedGemvWeightsI8`] (4× less weight streaming, per-panel
//!   dequantization scales) and the gates use the vectorized polynomial
//!   activations of [`crate::activations`] instead of scalar libm. This
//!   tier leaves bit-identity for a *measured accuracy contract*: kernel
//!   error bounds plus end-to-end rollout action-agreement pins (see the
//!   tensor/nn test suites and the workspace `quantized_agreement` tests).
//!   The ≥[`BLOCK_MIN_ROWS`] batch fallback still runs the exact unpacked
//!   path — quantization is a per-decision latency lever, and batches that
//!   large are GEMM-bound, not weight-streaming-bound.
//!
//! `tests/packed_equivalence.rs` pins all of this.

use lahd_tensor::gemm::BLOCK_MIN_ROWS;
use lahd_tensor::{Matrix, PackedGemvWeights, PackedGemvWeightsI8};

use super::gru::{GruCell, GruScratch};
use super::linear::Linear;
use crate::activations::{sigmoid_slice, tanh_slice, Precision};
use crate::params::ParamStore;

/// Logistic sigmoid, written exactly as the unpacked GRU path computes it
/// so the two stay bit-identical.
#[inline]
fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

#[inline]
fn assert_fresh(kind: &str, packed_version: u64, store: &ParamStore) {
    assert_eq!(
        packed_version,
        store.version(),
        "stale {kind}: parameter values changed since packing; call repack()"
    );
}

/// A [`Linear`] layer with its weight matrix packed for `1×D` inference,
/// in the precision chosen at construction (see the `packed` module docs).
#[derive(Clone, Debug)]
pub struct PackedLinear {
    layer: Linear,
    /// Populated in [`Precision::Exact`] mode.
    weights: PackedGemvWeights,
    /// Populated in [`Precision::QuantizedFast`] mode.
    weights_i8: PackedGemvWeightsI8,
    /// The bias row copied out of the store at pack time (always exact
    /// f32), so the single-row path folds it without touching the store's
    /// matrix plumbing per call.
    bias: Vec<f32>,
    precision: Precision,
    version: u64,
}

impl PackedLinear {
    /// Packs `layer`'s current weights from `store` in the default
    /// (bit-identical) [`Precision::Exact`] mode.
    pub fn new(layer: &Linear, store: &ParamStore) -> Self {
        Self::with_precision(layer, store, Precision::Exact)
    }

    /// Packs `layer`'s current weights from `store` in the given precision.
    pub fn with_precision(layer: &Linear, store: &ParamStore, precision: Precision) -> Self {
        let mut packed = Self {
            layer: layer.clone(),
            weights: PackedGemvWeights::default(),
            weights_i8: PackedGemvWeightsI8::default(),
            bias: Vec::new(),
            precision,
            version: 0,
        };
        packed.repack(store);
        packed
    }

    /// Re-packs after a parameter update (allocation-free in steady state).
    /// Only the active precision's representation is refreshed — the other
    /// stays empty.
    pub fn repack(&mut self, store: &ParamStore) {
        match self.precision {
            Precision::Exact => self.weights.repack(store.value(self.layer.w)),
            Precision::QuantizedFast => self.weights_i8.repack(store.value(self.layer.w)),
        }
        self.bias.clear();
        self.bias
            .extend_from_slice(store.value(self.layer.b).row(0));
        self.version = store.version();
    }

    /// The wrapped layer description.
    pub fn layer(&self) -> &Linear {
        &self.layer
    }

    /// The precision the weights are packed in.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Packed counterpart of [`Linear::infer_into`]; bit-identical at
    /// [`Precision::Exact`] (see the `packed` module docs).
    ///
    /// # Panics
    /// Panics on shape mismatches or if the store's values changed since
    /// the last `repack`.
    pub fn infer_into(&self, store: &ParamStore, x: &Matrix, out: &mut Matrix) {
        assert_fresh("PackedLinear", self.version, store);
        if x.rows() >= BLOCK_MIN_ROWS {
            // Large batches belong to the blocked GEMM, not row-wise GEMV.
            self.layer.infer_into(store, x, out);
            return;
        }
        assert_eq!(
            x.cols(),
            self.layer.in_dim(),
            "packed linear input width mismatch"
        );
        assert_eq!(
            out.shape(),
            (x.rows(), self.layer.out_dim()),
            "packed linear output shape mismatch"
        );
        let rows = x.rows();
        match self.precision {
            Precision::Exact => self
                .weights
                .gemv_rows_into(rows, x.as_slice(), out.as_mut_slice()),
            Precision::QuantizedFast => {
                self.weights_i8
                    .gemv_rows_into(rows, x.as_slice(), out.as_mut_slice())
            }
        }
        out.add_row_broadcast(store.value(self.layer.b));
    }

    /// Single-row counterpart of [`PackedLinear::infer_into`] on bare
    /// slices: the same GEMV kernels and the same elementwise bias fold
    /// (so results are bit-identical to a one-row `infer_into`), without
    /// staging the input through a `Matrix`. This is the per-decision
    /// latency path — the compiled-FSM tier's encode budget is tight
    /// enough that the row-copy and shape plumbing of the matrix wrapper
    /// are measurable.
    ///
    /// # Panics
    /// Panics on width mismatches or if the store's values changed since
    /// the last `repack`.
    #[inline]
    pub fn infer_row_into(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        assert_fresh("PackedLinear", self.version, store);
        assert_eq!(
            x.len(),
            self.layer.in_dim(),
            "packed linear input width mismatch"
        );
        assert_eq!(
            out.len(),
            self.layer.out_dim(),
            "packed linear output width mismatch"
        );
        match self.precision {
            Precision::Exact => self.weights.gemv_into(x, out),
            Precision::QuantizedFast => self.weights_i8.gemv_into(x, out),
        }
        // Same elementwise `+=` fold as `add_row_broadcast`, from the copy
        // of the bias stamped at pack time (identical values — freshness is
        // asserted above).
        for (o, b) in out.iter_mut().zip(&self.bias) {
            *o += *b;
        }
    }

    /// Allocating convenience wrapper over [`PackedLinear::infer_into`].
    pub fn infer(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.layer.out_dim());
        self.infer_into(store, x, &mut out);
        out
    }
}

/// A [`GruCell`] with its six gate weight matrices packed for fused `1×D`
/// inference: `[Wz|Wr|Wn]` share the `x` operand and `[Uz|Ur]` share `h`,
/// so a step costs three GEMV traversals instead of six (the candidate's
/// `Un` takes `r ∘ h`, which only exists after the reset gate).
#[derive(Clone, Debug)]
pub struct PackedGru {
    cell: GruCell,
    /// `input_dim × 3H`: `x`-side gate weights `[Wz | Wr | Wn]`.
    wzrn: PackedGemvWeights,
    /// `H × 2H`: `h`-side gate weights `[Uz | Ur]`.
    uzr: PackedGemvWeights,
    /// `H × H`: candidate weights applied to `r ∘ h`.
    un: PackedGemvWeights,
    /// Quantized counterparts, populated in [`Precision::QuantizedFast`].
    wzrn_i8: PackedGemvWeightsI8,
    uzr_i8: PackedGemvWeightsI8,
    un_i8: PackedGemvWeightsI8,
    precision: Precision,
    version: u64,
}

impl PackedGru {
    /// Packs `cell`'s current weights from `store` in the default
    /// (bit-identical) [`Precision::Exact`] mode.
    pub fn new(cell: &GruCell, store: &ParamStore) -> Self {
        Self::with_precision(cell, store, Precision::Exact)
    }

    /// Packs `cell`'s current weights from `store` in the given precision.
    pub fn with_precision(cell: &GruCell, store: &ParamStore, precision: Precision) -> Self {
        let mut packed = Self {
            cell: cell.clone(),
            wzrn: PackedGemvWeights::default(),
            uzr: PackedGemvWeights::default(),
            un: PackedGemvWeights::default(),
            wzrn_i8: PackedGemvWeightsI8::default(),
            uzr_i8: PackedGemvWeightsI8::default(),
            un_i8: PackedGemvWeightsI8::default(),
            precision,
            version: 0,
        };
        packed.repack(store);
        packed
    }

    /// Re-packs after a parameter update (allocation-free in steady state).
    /// Only the active precision's representation is refreshed — the other
    /// stays empty.
    pub fn repack(&mut self, store: &ParamStore) {
        let c = &self.cell;
        match self.precision {
            Precision::Exact => {
                self.wzrn
                    .repack_concat(&[store.value(c.wz), store.value(c.wr), store.value(c.wn)]);
                self.uzr
                    .repack_concat(&[store.value(c.uz), store.value(c.ur)]);
                self.un.repack(store.value(c.un));
            }
            Precision::QuantizedFast => {
                self.wzrn_i8.repack_concat(&[
                    store.value(c.wz),
                    store.value(c.wr),
                    store.value(c.wn),
                ]);
                self.uzr_i8
                    .repack_concat(&[store.value(c.uz), store.value(c.ur)]);
                self.un_i8.repack(store.value(c.un));
            }
        }
        self.version = store.version();
    }

    /// The wrapped cell description.
    pub fn cell(&self) -> &GruCell {
        &self.cell
    }

    /// The precision the weights are packed in.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Packed counterpart of [`GruCell::infer_step_into`]; bit-identical at
    /// [`Precision::Exact`] for every batch size (see the `packed` module
    /// docs).
    ///
    /// # Panics
    /// Panics on shape mismatches or if the store's values changed since
    /// the last `repack`.
    pub fn infer_step_into(
        &self,
        store: &ParamStore,
        x: &Matrix,
        h: &Matrix,
        scratch: &mut PackedGruScratch,
        out: &mut Matrix,
    ) {
        assert_fresh("PackedGru", self.version, store);
        let rows = x.rows();
        let hd = self.cell.hidden_dim();
        assert_eq!(x.cols(), self.cell.input_dim(), "GRU input width mismatch");
        assert_eq!(h.cols(), hd, "GRU hidden width mismatch");
        assert_eq!(h.rows(), rows, "GRU state row-count mismatch");
        assert_eq!(out.shape(), (rows, hd), "GRU output shape mismatch");
        if rows >= BLOCK_MIN_ROWS {
            self.cell
                .infer_step_into(store, x, h, &mut scratch.fallback, out);
            return;
        }
        scratch.ensure(rows, hd, self.precision);
        match self.precision {
            Precision::Exact => self.infer_rows_exact(store, x, h, scratch, out),
            Precision::QuantizedFast => self.infer_rows_quantized(store, x, h, scratch, out),
        }
    }

    /// The bit-identical path: one multi-row product per fused gate pack,
    /// then scalar libm gates per row in exactly the unpacked path's
    /// association order.
    fn infer_rows_exact(
        &self,
        store: &ParamStore,
        x: &Matrix,
        h: &Matrix,
        scratch: &mut PackedGruScratch,
        out: &mut Matrix,
    ) {
        let hd = self.cell.hidden_dim();
        let rows = x.rows();
        let bz = store.value(self.cell.bz).row(0);
        let br = store.value(self.cell.br).row(0);
        let bn = store.value(self.cell.bn).row(0);

        // One fused pass per operand over every row: all three x-side
        // gates, then both h-side gates that read the raw state.
        self.wzrn
            .gemv_rows_into(rows, x.as_slice(), scratch.xw.as_mut_slice());
        self.uzr
            .gemv_rows_into(rows, h.as_slice(), scratch.hu.as_mut_slice());
        for r in 0..rows {
            let hr = h.row(r);
            let xw = scratch.xw.row(r);
            let (xwz, xwr) = (&xw[..hd], &xw[hd..2 * hd]);
            let hu = scratch.hu.row(r);
            let (huz, hur) = (&hu[..hd], &hu[hd..]);
            let z_row = scratch.z.row_mut(r);
            let rh_row = scratch.rh.row_mut(r);
            for j in 0..hd {
                // z = σ(x·Wz + h·Uz + bz), r = σ(x·Wr + h·Ur + br) —
                // the same association order as the unpacked path.
                z_row[j] = sigmoid((xwz[j] + huz[j]) + bz[j]);
                rh_row[j] = sigmoid((xwr[j] + hur[j]) + br[j]) * hr[j];
            }
        }
        self.un
            .gemv_rows_into(rows, scratch.rh.as_slice(), scratch.nu.as_mut_slice());
        for r in 0..rows {
            let hr = h.row(r);
            let xwn = &scratch.xw.row(r)[2 * hd..];
            let nu = scratch.nu.row(r);
            let z_row = scratch.z.row(r);
            let out_row = out.row_mut(r);
            for j in 0..hd {
                // n = tanh(x·Wn + (r∘h)·Un + bn); h' = (1−z)∘n + z∘h.
                let nv = ((xwn[j] + nu[j]) + bn[j]).tanh();
                let zv = z_row[j];
                out_row[j] = (1.0 - zv) * nv + zv * hr[j];
            }
        }
    }

    /// The quantized fast path: multi-row products over the i8 panels with
    /// dequant-on-load, and the sigmoid/tanh evaluated slice-at-a-time by
    /// the vectorized polynomial kernels — both gate sigmoids run as
    /// **one** `2H`-wide pass over a row's contiguous pre-activations
    /// instead of `2H` scalar libm calls.
    fn infer_rows_quantized(
        &self,
        store: &ParamStore,
        x: &Matrix,
        h: &Matrix,
        scratch: &mut PackedGruScratch,
        out: &mut Matrix,
    ) {
        let hd = self.cell.hidden_dim();
        let rows = x.rows();
        let bz = store.value(self.cell.bz).row(0);
        let br = store.value(self.cell.br).row(0);
        let bn = store.value(self.cell.bn).row(0);

        self.wzrn_i8
            .gemv_rows_into(rows, x.as_slice(), scratch.xw.as_mut_slice());
        self.uzr_i8
            .gemv_rows_into(rows, h.as_slice(), scratch.hu.as_mut_slice());
        for r in 0..rows {
            // Stage [z_pre | r_pre] contiguously, one sigmoid pass for both
            // gates, then gate the state for the candidate matvec.
            let hr = h.row(r);
            let xw = scratch.xw.row(r);
            let hu = scratch.hu.row(r);
            let zr = scratch.zr.row_mut(r);
            for j in 0..hd {
                zr[j] = (xw[j] + hu[j]) + bz[j];
                zr[hd + j] = (xw[hd + j] + hu[hd + j]) + br[j];
            }
            sigmoid_slice(zr);
            let rh_row = scratch.rh.row_mut(r);
            for j in 0..hd {
                rh_row[j] = zr[hd + j] * hr[j];
            }
        }
        self.un_i8
            .gemv_rows_into(rows, scratch.rh.as_slice(), scratch.nu.as_mut_slice());
        for r in 0..rows {
            let hr = h.row(r);
            let xwn = &scratch.xw.row(r)[2 * hd..];
            let nu = scratch.nu.row(r);
            let n_row = scratch.n.row_mut(r);
            for j in 0..hd {
                n_row[j] = (xwn[j] + nu[j]) + bn[j];
            }
            tanh_slice(n_row);
            let z_row = &scratch.zr.row(r)[..hd];
            let out_row = out.row_mut(r);
            for j in 0..hd {
                let zv = z_row[j];
                out_row[j] = (1.0 - zv) * n_row[j] + zv * hr[j];
            }
        }
    }
}

/// Caller-owned workspace for [`PackedGru::infer_step_into`]: the fused
/// gate pre-activation rows plus the unpacked scratch the large-batch
/// fallback uses. Reusing one instance keeps per-decision inference
/// allocation-free.
#[derive(Clone, Debug, Default)]
pub struct PackedGruScratch {
    /// `B × 3H` fused x-side pre-activations `[x·Wz | x·Wr | x·Wn]`.
    xw: Matrix,
    /// `B × 2H` fused h-side pre-activations `[h·Uz | h·Ur]`.
    hu: Matrix,
    /// `B × H` update gate (kept across the candidate matvec).
    z: Matrix,
    /// `B × H` reset-gated state `r ∘ h`.
    rh: Matrix,
    /// `B × H` candidate contribution `(r ∘ h)·Un`.
    nu: Matrix,
    /// `B × 2H` contiguous `[z_pre | r_pre]` staging rows for the quantized
    /// path's single slice-sigmoid pass over both gates.
    zr: Matrix,
    /// `B × H` candidate pre-activation/value rows for the quantized path's
    /// slice-tanh pass.
    n: Matrix,
    fallback: GruScratch,
}

impl PackedGruScratch {
    /// Sizes the buffers the given precision's row loop actually reads —
    /// the staging rows unique to the other tier stay empty, so an
    /// exact-precision scratch (the default everywhere) carries no
    /// quantized-only dead weight and vice versa.
    fn ensure(&mut self, rows: usize, hidden: usize, precision: Precision) {
        if self.xw.shape() != (rows, 3 * hidden) {
            self.xw.reshape_zeroed(rows, 3 * hidden);
        }
        if self.hu.shape() != (rows, 2 * hidden) {
            self.hu.reshape_zeroed(rows, 2 * hidden);
        }
        for m in [&mut self.rh, &mut self.nu] {
            if m.shape() != (rows, hidden) {
                m.reshape_zeroed(rows, hidden);
            }
        }
        match precision {
            Precision::Exact => {
                if self.z.shape() != (rows, hidden) {
                    self.z.reshape_zeroed(rows, hidden);
                }
            }
            Precision::QuantizedFast => {
                if self.zr.shape() != (rows, 2 * hidden) {
                    self.zr.reshape_zeroed(rows, 2 * hidden);
                }
                if self.n.shape() != (rows, hidden) {
                    self.n.reshape_zeroed(rows, hidden);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahd_tensor::seeded_rng;

    #[test]
    fn packed_linear_matches_unpacked_single_row() {
        let mut rng = seeded_rng(11);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 5, 7, &mut rng);
        let packed = PackedLinear::new(&layer, &store);
        let x = Matrix::row_vector(&[0.3, -0.8, 0.1, 0.9, -0.2]);
        let want = layer.infer(&store, &x);
        let got = packed.infer(&store, &x);
        assert_eq!(got.max_abs_diff(&want), 0.0);
    }

    #[test]
    #[should_panic(expected = "stale PackedLinear")]
    fn stale_pack_is_a_loud_failure() {
        let mut rng = seeded_rng(11);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 3, 3, &mut rng);
        let packed = PackedLinear::new(&layer, &store);
        store.value_mut(layer.w)[(0, 0)] += 1.0;
        let _ = packed.infer(&store, &Matrix::row_vector(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn repack_picks_up_new_values() {
        let mut rng = seeded_rng(11);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 3, 3, &mut rng);
        let mut packed = PackedLinear::new(&layer, &store);
        store.value_mut(layer.w)[(0, 0)] += 1.0;
        packed.repack(&store);
        let x = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let want = layer.infer(&store, &x);
        assert_eq!(packed.infer(&store, &x).max_abs_diff(&want), 0.0);
    }

    #[test]
    fn quantized_linear_tracks_exact_within_tolerance() {
        let mut rng = seeded_rng(11);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 24, 48, &mut rng);
        let quantized = PackedLinear::with_precision(&layer, &store, Precision::QuantizedFast);
        assert_eq!(quantized.precision(), Precision::QuantizedFast);
        let x = Matrix::from_fn(1, 24, |_, j| (j as f32 * 0.37).sin());
        let want = layer.infer(&store, &x);
        let got = quantized.infer(&store, &x);
        // Xavier weights at this fan-in keep the per-panel quantization
        // step tiny; 1e-2 is ~10× the a-priori bound.
        assert!(got.max_abs_diff(&want) < 1e-2);
        assert!(
            got.max_abs_diff(&want) > 0.0,
            "quantization should not be a no-op"
        );
    }

    #[test]
    #[should_panic(expected = "stale PackedLinear")]
    fn quantized_stale_pack_is_a_loud_failure() {
        let mut rng = seeded_rng(11);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 3, 3, &mut rng);
        let packed = PackedLinear::with_precision(&layer, &store, Precision::QuantizedFast);
        store.value_mut(layer.w)[(0, 0)] += 1.0;
        let _ = packed.infer(&store, &Matrix::row_vector(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn quantized_repack_picks_up_new_values() {
        let mut rng = seeded_rng(11);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 3, 3, &mut rng);
        let mut packed = PackedLinear::with_precision(&layer, &store, Precision::QuantizedFast);
        let x = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let before = packed.infer(&store, &x);
        store.value_mut(layer.w)[(0, 0)] += 1.0;
        packed.repack(&store);
        let after = packed.infer(&store, &x);
        // The (0,0) weight bump must flow through the re-quantized pack:
        // out[0] grows by ~x[0]·1.0.
        assert!((after[(0, 0)] - before[(0, 0)] - 1.0).abs() < 0.05);
    }

    #[test]
    fn quantized_gru_step_tracks_exact_within_tolerance() {
        let mut rng = seeded_rng(3);
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 10, 16, &mut rng);
        let exact = PackedGru::new(&cell, &store);
        let quant = PackedGru::with_precision(&cell, &store, Precision::QuantizedFast);
        let x = Matrix::from_fn(1, 10, |_, j| ((j * 7) as f32 * 0.21).cos());
        let mut h = Matrix::zeros(1, 16);
        let mut h_q = Matrix::zeros(1, 16);
        let mut scratch = PackedGruScratch::default();
        let mut scratch_q = PackedGruScratch::default();
        // 50 recurrent steps: quantization error must stay bounded through
        // the contracting gates, not compound.
        for _ in 0..50 {
            let mut next = Matrix::zeros(1, 16);
            exact.infer_step_into(&store, &x, &h, &mut scratch, &mut next);
            let mut next_q = Matrix::zeros(1, 16);
            quant.infer_step_into(&store, &x, &h_q, &mut scratch_q, &mut next_q);
            h = next;
            h_q = next_q;
        }
        assert!(
            h.max_abs_diff(&h_q) < 0.05,
            "drift {}",
            h.max_abs_diff(&h_q)
        );
        assert!(h_q.as_slice().iter().all(|v| v.is_finite()));
    }
}
