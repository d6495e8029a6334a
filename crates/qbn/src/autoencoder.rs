//! Quantized bottleneck autoencoders (Koul et al. 2018, as used in §3.2.1).
//!
//! A QBN is an autoencoder whose latent layer is quantized to `k` discrete
//! levels per dimension; training uses a straight-through gradient across
//! the rounding. Two QBNs are fitted over a trained recurrent policy — one
//! for observations (`b_o`) and one for hidden states (`b_h`) — and the
//! discrete codes define the extracted finite state machine.

use lahd_nn::{
    quantize3, tanh_exact_slice, ternary_tanh, ternary_tanh_slice, Graph, Linear, PackedLinear,
    ParamStore, Precision, Var,
};
use lahd_tensor::{seeded_rng, Matrix};
use rand::seq::SliceRandom;

/// Number of quantization levels per latent entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantLevels {
    /// Binary {−1, 1}.
    Two,
    /// Ternary {−1, 0, 1} — the paper's `k = 3`.
    Three,
}

impl QuantLevels {
    /// Number of levels `k`.
    pub fn k(self) -> usize {
        match self {
            QuantLevels::Two => 2,
            QuantLevels::Three => 3,
        }
    }

    /// Quantizes one latent pre-activation value to a discrete level.
    ///
    /// Public because the compiled-FSM lowering pass (`lahd-fsm`) derives
    /// per-level pre-activation thresholds from this exact function and
    /// must be able to verify them against it value-for-value.
    pub fn quantize(self, x: f32) -> i8 {
        match self {
            QuantLevels::Two => {
                if x.tanh() >= 0.0 {
                    1
                } else {
                    -1
                }
            }
            QuantLevels::Three => quantize3(ternary_tanh(x)) as i8,
        }
    }

    /// Quantizes a row of latent pre-activations into `out`: per entry the
    /// digit [`QuantLevels::quantize`] gives, with the activation computed
    /// by lahd-nn's exact slice kernels. `pre` is left holding the
    /// activations.
    fn quantize_row(self, pre: &mut [f32], out: &mut [i8]) {
        match self {
            QuantLevels::Two => {
                tanh_exact_slice(pre);
                for (o, &a) in out.iter_mut().zip(pre.iter()) {
                    *o = if a >= 0.0 { 1 } else { -1 };
                }
            }
            QuantLevels::Three => {
                ternary_tanh_slice(pre);
                for (o, &a) in out.iter_mut().zip(pre.iter()) {
                    *o = quantize3(a) as i8;
                }
            }
        }
    }
}

/// QBN architecture description.
#[derive(Clone, Debug)]
pub struct QbnConfig {
    /// Input (reconstruction target) width.
    pub input_dim: usize,
    /// Width of the encoder/decoder hidden layer.
    pub hidden_dim: usize,
    /// Latent width `L` (paper: 64 for the hidden-state QBN).
    pub latent_dim: usize,
    /// Quantization levels `k` (paper: 3).
    pub levels: QuantLevels,
}

impl QbnConfig {
    /// A conventional configuration: hidden layer of `4·L`, ternary levels.
    pub fn with_dims(input_dim: usize, latent_dim: usize) -> Self {
        Self {
            input_dim,
            hidden_dim: latent_dim * 4,
            latent_dim,
            levels: QuantLevels::Three,
        }
    }

    /// Size of the discrete code space `k^L` (saturates at `usize::MAX`).
    pub fn code_space(&self) -> usize {
        (self.levels.k() as u128)
            .checked_pow(self.latent_dim as u32)
            .map_or(usize::MAX, |v| v.min(usize::MAX as u128) as usize)
    }
}

/// Training hyper-parameters for [`Qbn::train`].
#[derive(Clone, Debug)]
pub struct QbnTrainConfig {
    /// Passes over the dataset.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for QbnTrainConfig {
    fn default() -> Self {
        Self {
            epochs: 40,
            batch_size: 32,
            learning_rate: 1e-3,
            seed: 0,
        }
    }
}

/// Caller-owned staging buffers for the zero-allocation encode path
/// ([`Qbn::latent_preact_into`] / [`Qbn::encode_into`]): the hidden
/// activation row and the latent pre-activation row, as bare vectors (the
/// single-row path never needs matrix shape plumbing). Build one with
/// [`Qbn::make_encode_scratch`] and reuse it across steps.
#[derive(Clone, Debug)]
pub struct EncodeScratch {
    h: Vec<f32>,
    pre: Vec<f32>,
}

/// A quantized bottleneck autoencoder.
///
/// The inference paths ([`Qbn::encode`], [`Qbn::decode`]) run on packed
/// GEMV weights (see `lahd_nn::PackedLinear`); [`Qbn::train`] refreshes the
/// pack when it finishes, and any *external* mutation of [`Qbn::store`]
/// (loading persisted values, joint fine-tuning) must be followed by
/// [`Qbn::repack`] — the packed layers assert freshness, so forgetting is a
/// panic, not a silent wrong code.
///
/// [`Qbn::set_precision`] switches the encode/decode path onto the
/// quantized fast tier (`Precision::QuantizedFast`: i8 packed weights +
/// vectorized polynomial tanh) for deployment decision paths; training and
/// the tape forward always use the exact f32 parameters, and the default
/// stays [`Precision::Exact`] so extraction-time codes are untouched.
#[derive(Clone)]
pub struct Qbn {
    /// Trainable parameters.
    pub store: ParamStore,
    cfg: QbnConfig,
    precision: Precision,
    enc_in: Linear,
    enc_lat: Linear,
    dec_hid: Linear,
    dec_out: Linear,
    packed_enc_in: PackedLinear,
    packed_enc_lat: PackedLinear,
    packed_dec_hid: PackedLinear,
    packed_dec_out: PackedLinear,
}

impl Qbn {
    /// Creates a QBN with Xavier-initialised weights.
    pub fn new(cfg: QbnConfig, seed: u64) -> Self {
        assert!(cfg.input_dim > 0 && cfg.latent_dim > 0 && cfg.hidden_dim > 0);
        let mut rng = seeded_rng(seed);
        let mut store = ParamStore::new();
        let enc_in = Linear::new(
            &mut store,
            "qbn.enc_in",
            cfg.input_dim,
            cfg.hidden_dim,
            &mut rng,
        );
        let enc_lat = Linear::new(
            &mut store,
            "qbn.enc_lat",
            cfg.hidden_dim,
            cfg.latent_dim,
            &mut rng,
        );
        let dec_hid = Linear::new(
            &mut store,
            "qbn.dec_hid",
            cfg.latent_dim,
            cfg.hidden_dim,
            &mut rng,
        );
        let dec_out = Linear::new(
            &mut store,
            "qbn.dec_out",
            cfg.hidden_dim,
            cfg.input_dim,
            &mut rng,
        );
        let packed_enc_in = PackedLinear::new(&enc_in, &store);
        let packed_enc_lat = PackedLinear::new(&enc_lat, &store);
        let packed_dec_hid = PackedLinear::new(&dec_hid, &store);
        let packed_dec_out = PackedLinear::new(&dec_out, &store);
        Self {
            store,
            cfg,
            precision: Precision::Exact,
            enc_in,
            enc_lat,
            dec_hid,
            dec_out,
            packed_enc_in,
            packed_enc_lat,
            packed_dec_hid,
            packed_dec_out,
        }
    }

    /// The architecture description.
    pub fn config(&self) -> &QbnConfig {
        &self.cfg
    }

    /// The precision of the packed encode/decode path.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Switches the packed encode/decode path to `precision`, rebuilding
    /// the packs from the current store values (the freshness stamps and
    /// stale-pack panics carry over unchanged). Training always uses the
    /// exact parameters regardless of this setting.
    pub fn set_precision(&mut self, precision: Precision) {
        if precision == self.precision {
            return;
        }
        self.precision = precision;
        self.packed_enc_in = PackedLinear::with_precision(&self.enc_in, &self.store, precision);
        self.packed_enc_lat = PackedLinear::with_precision(&self.enc_lat, &self.store, precision);
        self.packed_dec_hid = PackedLinear::with_precision(&self.dec_hid, &self.store, precision);
        self.packed_dec_out = PackedLinear::with_precision(&self.dec_out, &self.store, precision);
    }

    /// Re-packs the inference weights from [`Qbn::store`]. Call after any
    /// external mutation of the store (persisted-value loads, joint
    /// fine-tuning); [`Qbn::train`] calls it automatically.
    pub fn repack(&mut self) {
        self.packed_enc_in.repack(&self.store);
        self.packed_enc_lat.repack(&self.store);
        self.packed_dec_hid.repack(&self.store);
        self.packed_dec_out.repack(&self.store);
    }

    /// The hidden-layer activation of the packed inference path: the exact
    /// tanh kernel (libm's bits) by default, the vectorized polynomial
    /// kernel on the quantized fast tier.
    #[inline]
    fn hidden_activation(&self, h: &mut [f32]) {
        match self.precision {
            Precision::Exact => tanh_exact_slice(h),
            Precision::QuantizedFast => lahd_nn::tanh_slice(h),
        }
    }

    /// Pre-quantization latent activations for a batch (rows = samples).
    fn latent_preact(&self, x: &Matrix) -> Matrix {
        let mut h = self.packed_enc_in.infer(&self.store, x);
        self.hidden_activation(h.as_mut_slice());
        self.packed_enc_lat.infer(&self.store, &h)
    }

    /// A scratch sized for this QBN's encoder, for the zero-allocation
    /// [`Qbn::latent_preact_into`] / [`Qbn::encode_into`] paths.
    pub fn make_encode_scratch(&self) -> EncodeScratch {
        EncodeScratch {
            h: vec![0.0; self.cfg.hidden_dim],
            pre: vec![0.0; self.cfg.latent_dim],
        }
    }

    /// Pre-quantization latent activations for one sample, staged through a
    /// caller-owned scratch — same values as [`Qbn::encode`]'s internal
    /// pre-activations, with no allocation. Returns the `latent_dim`-wide
    /// pre-activation row (borrowed from the scratch).
    ///
    /// # Panics
    /// Panics on input-width mismatch or a scratch built for another
    /// architecture.
    #[inline]
    pub fn latent_preact_into<'s>(&self, x: &[f32], scratch: &'s mut EncodeScratch) -> &'s [f32] {
        assert_eq!(x.len(), self.cfg.input_dim, "QBN input width mismatch");
        // Bare-slice GEMVs straight from the caller's row: same kernels and
        // fold order as the matrix-staged path (bit-identical), minus the
        // input copy and shape plumbing — the compiled FSM tier spends its
        // whole budget here, so the wrapper overhead is measurable.
        self.packed_enc_in
            .infer_row_into(&self.store, x, &mut scratch.h);
        self.hidden_activation(&mut scratch.h);
        self.packed_enc_lat
            .infer_row_into(&self.store, &scratch.h, &mut scratch.pre);
        &scratch.pre
    }

    /// Latent pre-activations for a small row batch, staged through
    /// caller-owned matrices — the compiled-FSM batch evaluator's encode
    /// kernel. Each row gets the same per-row GEMV treatment as
    /// [`Qbn::latent_preact_into`], so results are bit-identical row-for-row
    /// with the scalar path.
    ///
    /// # Panics
    /// Panics on shape mismatches, or if `x` has enough rows to hit the
    /// blocked-GEMM fallback (which would break the bit-identity contract);
    /// callers chunk below `lahd_tensor::gemm::BLOCK_MIN_ROWS`.
    pub fn latent_preact_rows_into(&self, x: &Matrix, h: &mut Matrix, pre: &mut Matrix) {
        assert!(
            x.rows() < lahd_tensor::gemm::BLOCK_MIN_ROWS,
            "latent_preact_rows_into batches must stay below the blocked-GEMM cutoff"
        );
        assert_eq!(x.cols(), self.cfg.input_dim, "QBN input width mismatch");
        self.packed_enc_in.infer_into(&self.store, x, h);
        self.hidden_activation(h.as_mut_slice());
        self.packed_enc_lat.infer_into(&self.store, h, pre);
    }

    /// Encodes an input into its discrete latent code.
    pub fn encode(&self, x: &[f32]) -> crate::codes::Code {
        assert_eq!(x.len(), self.cfg.input_dim, "QBN input width mismatch");
        let mut pre = self.latent_preact(&Matrix::row_vector(x));
        let mut code = vec![0; self.cfg.latent_dim];
        self.cfg.levels.quantize_row(pre.row_mut(0), &mut code);
        crate::codes::Code(code)
    }

    /// Quantizes an input into a caller-owned code buffer — the same digits
    /// as [`Qbn::encode`] with zero allocations.
    ///
    /// # Panics
    /// Panics on input-width mismatch or if `out` is not `latent_dim` wide.
    pub fn encode_into(&self, x: &[f32], scratch: &mut EncodeScratch, out: &mut [i8]) {
        assert_eq!(out.len(), self.cfg.latent_dim, "QBN code width mismatch");
        self.latent_preact_into(x, scratch);
        self.cfg.levels.quantize_row(&mut scratch.pre, out);
    }

    /// Decodes a discrete code back to input space.
    pub fn decode(&self, code: &crate::codes::Code) -> Vec<f32> {
        assert_eq!(code.len(), self.cfg.latent_dim, "QBN code width mismatch");
        let z = Matrix::row_vector(&code.to_f32());
        let mut h = self.packed_dec_hid.infer(&self.store, &z);
        self.hidden_activation(h.as_mut_slice());
        self.packed_dec_out.infer(&self.store, &h).row(0).to_vec()
    }

    /// Encode-then-decode reconstruction (the value the FSM will see).
    pub fn reconstruct(&self, x: &[f32]) -> Vec<f32> {
        self.decode(&self.encode(x))
    }

    /// Differentiable forward pass for a batch; returns the quantized latent
    /// node and the reconstruction node.
    pub fn forward_tape(&self, g: &mut Graph, x: Var) -> (Var, Var) {
        let h = self.enc_in.forward(g, &self.store, x);
        let h = g.tanh(h);
        let pre = self.enc_lat.forward(g, &self.store, h);
        let act = match self.cfg.levels {
            QuantLevels::Two => g.tanh(pre),
            QuantLevels::Three => g.ternary_tanh(pre),
        };
        let code = g.quantize_ste(act);
        let dh = self.dec_hid.forward(g, &self.store, code);
        let dh = g.tanh(dh);
        let recon = self.dec_out.forward(g, &self.store, dh);
        (code, recon)
    }

    /// Trains the autoencoder on `data` (each row `input_dim` wide) by
    /// minimising reconstruction MSE with Adam; returns the mean loss per
    /// epoch.
    ///
    /// # Panics
    /// Panics if `data` is empty or rows have the wrong width.
    pub fn train(&mut self, data: &[Vec<f32>], tc: &QbnTrainConfig) -> Vec<f32> {
        assert!(!data.is_empty(), "cannot train a QBN on an empty dataset");
        assert!(
            data.iter().all(|r| r.len() == self.cfg.input_dim),
            "QBN training rows must match input_dim"
        );
        let mut adam = lahd_nn::Adam::new(tc.learning_rate);
        let mut rng = seeded_rng(tc.seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut epoch_losses = Vec::with_capacity(tc.epochs);

        for _ in 0..tc.epochs {
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(tc.batch_size.max(1)) {
                let mut batch = Matrix::zeros(chunk.len(), self.cfg.input_dim);
                for (r, &idx) in chunk.iter().enumerate() {
                    batch.row_mut(r).copy_from_slice(&data[idx]);
                }
                self.store.zero_grads();
                let mut g = Graph::new();
                let x = g.constant(batch.clone());
                let (_, recon) = self.forward_tape(&mut g, x);
                let loss = g.mse_against(recon, batch);
                loss_sum += g.scalar(loss);
                batches += 1;
                g.backward(loss);
                g.accumulate_param_grads(&mut self.store);
                lahd_nn::clip_global_norm(&mut self.store, 5.0);
                adam.step(&mut self.store);
            }
            epoch_losses.push(loss_sum / batches as f32);
        }
        // Training rewrote the weights; bring the packed inference path
        // back in sync before anyone encodes.
        self.repack();
        epoch_losses
    }

    /// Mean reconstruction MSE over a dataset (inference path, i.e. through
    /// the *rounded* code, which is what the FSM consumes).
    pub fn reconstruction_error(&self, data: &[Vec<f32>]) -> f32 {
        assert!(!data.is_empty());
        let mut total = 0.0;
        for row in data {
            let recon = self.reconstruct(row);
            let mse: f32 = row
                .iter()
                .zip(&recon)
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f32>()
                / row.len() as f32;
            total += mse;
        }
        total / data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn clustered_data(n: usize, seed: u64) -> Vec<Vec<f32>> {
        // Four well-separated cluster centres in 6-D with small jitter: a
        // QBN should compress these to distinct codes and reconstruct well.
        let centres: [[f32; 6]; 4] = [
            [1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0],
            [1.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ];
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|i| {
                let c = centres[i % centres.len()];
                c.iter().map(|&v| v + rng.gen_range(-0.05..0.05)).collect()
            })
            .collect()
    }

    #[test]
    fn encode_produces_valid_ternary_levels() {
        let qbn = Qbn::new(QbnConfig::with_dims(6, 8), 0);
        let code = qbn.encode(&[0.5, -0.5, 1.0, -1.0, 0.0, 0.25]);
        assert_eq!(code.len(), 8);
        assert!(code.0.iter().all(|&v| v == -1 || v == 0 || v == 1));
    }

    #[test]
    fn binary_levels_exclude_zero() {
        let cfg = QbnConfig {
            levels: QuantLevels::Two,
            ..QbnConfig::with_dims(6, 8)
        };
        let qbn = Qbn::new(cfg, 0);
        let code = qbn.encode(&[0.1; 6]);
        assert!(code.0.iter().all(|&v| v == -1 || v == 1));
    }

    #[test]
    fn encoding_is_deterministic() {
        let qbn = Qbn::new(QbnConfig::with_dims(4, 6), 1);
        let x = [0.3, -0.7, 0.2, 0.9];
        assert_eq!(qbn.encode(&x), qbn.encode(&x));
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let data = clustered_data(120, 2);
        let mut qbn = Qbn::new(QbnConfig::with_dims(6, 12), 3);
        let before = qbn.reconstruction_error(&data);
        let losses = qbn.train(
            &data,
            &QbnTrainConfig {
                epochs: 60,
                batch_size: 16,
                learning_rate: 2e-3,
                seed: 4,
            },
        );
        let after = qbn.reconstruction_error(&data);
        assert!(after < before, "training did not help: {before} -> {after}");
        assert!(
            losses.last().unwrap() < &0.05,
            "final training loss too high: {:?}",
            losses.last()
        );
        assert!(
            after < 0.06,
            "post-training inference error too high: {after}"
        );
    }

    #[test]
    fn distinct_clusters_map_to_distinct_codes_after_training() {
        let data = clustered_data(120, 5);
        let mut qbn = Qbn::new(QbnConfig::with_dims(6, 12), 6);
        qbn.train(
            &data,
            &QbnTrainConfig {
                epochs: 60,
                batch_size: 16,
                learning_rate: 2e-3,
                seed: 7,
            },
        );
        let codes: std::collections::HashSet<_> =
            data[..4].iter().map(|row| qbn.encode(row)).collect();
        assert!(codes.len() >= 2, "all clusters collapsed to one code");
    }

    #[test]
    fn code_space_is_k_pow_l() {
        assert_eq!(QbnConfig::with_dims(4, 3).code_space(), 27);
        let two = QbnConfig {
            levels: QuantLevels::Two,
            ..QbnConfig::with_dims(4, 10)
        };
        assert_eq!(two.code_space(), 1024);
    }

    #[test]
    fn decode_of_encode_has_input_width() {
        let qbn = Qbn::new(QbnConfig::with_dims(5, 4), 8);
        let out = qbn.reconstruct(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        assert_eq!(out.len(), 5);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn encode_rejects_wrong_width() {
        let qbn = Qbn::new(QbnConfig::with_dims(5, 4), 8);
        let _ = qbn.encode(&[0.0; 3]);
    }

    #[test]
    fn quantized_precision_codes_track_exact_codes() {
        let data = clustered_data(120, 2);
        let mut qbn = Qbn::new(QbnConfig::with_dims(6, 12), 3);
        qbn.train(
            &data,
            &QbnTrainConfig {
                epochs: 60,
                batch_size: 16,
                learning_rate: 2e-3,
                seed: 4,
            },
        );
        let mut quant = qbn.clone();
        quant.set_precision(Precision::QuantizedFast);
        assert_eq!(quant.precision(), Precision::QuantizedFast);
        assert_eq!(qbn.precision(), Precision::Exact);

        // Per-dimension latent agreement: a ternary level flips only when a
        // pre-activation sits within quantization error of a threshold.
        let (mut agree, mut total) = (0usize, 0usize);
        for row in &data {
            for (a, b) in qbn.encode(row).0.iter().zip(&quant.encode(row).0) {
                agree += usize::from(a == b);
                total += 1;
            }
        }
        assert!(
            agree * 100 >= total * 98,
            "latent-level agreement {agree}/{total}"
        );
        // And the decode side stays an equally good reconstructor.
        let exact_err = qbn.reconstruction_error(&data);
        let quant_err = quant.reconstruction_error(&data);
        assert!(
            (quant_err - exact_err).abs() < 0.02,
            "reconstruction error moved {exact_err} -> {quant_err}"
        );
    }

    #[test]
    fn set_precision_round_trip_restores_exact_codes() {
        let qbn = Qbn::new(QbnConfig::with_dims(6, 8), 5);
        let x = [0.4, -0.2, 0.9, 0.0, -0.7, 0.3];
        let want = qbn.encode(&x);
        let mut toggled = qbn.clone();
        toggled.set_precision(Precision::QuantizedFast);
        toggled.set_precision(Precision::Exact);
        assert_eq!(toggled.encode(&x), want);
    }

    #[test]
    fn encode_into_matches_encode() {
        for precision in [Precision::Exact, Precision::QuantizedFast] {
            let mut qbn = Qbn::new(QbnConfig::with_dims(6, 8), 9);
            qbn.set_precision(precision);
            let mut scratch = qbn.make_encode_scratch();
            let mut buf = vec![0i8; 8];
            for seed in 0..20 {
                let x: Vec<f32> = (0..6)
                    .map(|j| ((seed * 6 + j) as f32 * 0.37).sin())
                    .collect();
                qbn.encode_into(&x, &mut scratch, &mut buf);
                assert_eq!(buf, qbn.encode(&x).0, "precision {precision:?}");
            }
        }
    }

    #[test]
    fn latent_preact_into_is_bitwise_stable() {
        let qbn = Qbn::new(QbnConfig::with_dims(5, 4), 3);
        let mut scratch = qbn.make_encode_scratch();
        let x = [0.3, -0.1, 0.7, 0.0, -0.9];
        let a: Vec<f32> = qbn.latent_preact_into(&x, &mut scratch).to_vec();
        let b: Vec<f32> = qbn.latent_preact_into(&x, &mut scratch).to_vec();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn quantized_precision_preserves_stale_pack_panic() {
        let mut qbn = Qbn::new(QbnConfig::with_dims(6, 8), 5);
        qbn.set_precision(Precision::QuantizedFast);
        let ids = qbn.store.ids();
        qbn.store.value_mut(ids[0])[(0, 0)] += 1.0;
        let _ = qbn.encode(&[0.0; 6]);
    }
}
