//! Quantized (i8) packed GEMV: the fast-inference tier of [`crate::gemv`].
//!
//! The f32 packed layout already streams the weights exactly once per
//! decision, so its remaining cost at `1×128 · 128×384`-class shapes is the
//! *bytes themselves*: ~40% of the packed GRU step is weight traffic
//! (measured on the trajectory box; see PERF.md). [`PackedGemvWeightsI8`]
//! attacks that directly — the same column-panel decomposition as
//! [`crate::gemv::PackedGemvWeights`] (64/32/16/8 widths plus monomorphised
//! sub-8 tails, cache-line-aligned panel starts), but each panel stores its
//! weights as `i8` with **one f32 scale per panel**:
//!
//! ```text
//! q[k,j] = round(w[k,j] / scale),   scale = max|w| over the panel / 127
//! ```
//!
//! The kernel accumulates `acc[j] += x[k] · widen(q[k,j])` with the quantized
//! weights widened to f32 **in registers** (dequant-on-load: no dequantized
//! copy of the panel ever exists in memory), and applies the panel scale once
//! per output at the end: `y[j] = scale · acc[j]`. Weight traffic drops 4×
//! versus the f32 panels; the extra arithmetic is one widening convert per
//! product and one multiply per output.
//!
//! # Numerical contract
//!
//! This tier **deliberately leaves the bit-identity contract** of the f32
//! path. Round-to-nearest quantization bounds the element error by
//! `0.5 · scale`, so for any input `x`
//!
//! ```text
//! |y_q[j] − y[j]| ≤ 0.5 · scale(panel of j) · Σ_k |x[k]|  (+ f32 fold noise)
//! ```
//!
//! — the bound [`PackedGemvWeightsI8::error_bound`] computes and
//! `tests/gemv_i8_bounds.rs` pins via proptest. Whether that error is
//! acceptable is an *accuracy contract*, not an equivalence contract: the
//! workspace pins it end-to-end as rollout action-agreement between the
//! quantized and f32 inference engines (see `lahd_rl::InferEngine` and the
//! `quantized_agreement` suite). Per-row or per-column scales were
//! considered and rejected for now — per-panel already clears the ≥99.5%
//! agreement pin with margin, and finer scales buy accuracy the contract
//! does not need at the cost of a second streamed array (notes in PERF.md).
//!
//! Because no bit-identity contract constrains this tier, the explicit
//! widen-multiply kernels (AVX-512 where the CPU has it, AVX2/FMA
//! otherwise) are **runtime-dispatched** — the same policy as the f32
//! layout's runtime AVX-512 module, and the difference between
//! a ~1.1 µs and a ~0.6 µs kernel at the `128×128` decision shape (the
//! autovectoriser interleaves the widening converts poorly). The scalar
//! widen loop remains the portable fallback and the kernels' reference
//! semantics. Results are deterministic for a given binary and machine.
//!
//! [`PackedGemvWeightsI8::gemv_rows_into`] runs a handful of rows through
//! the same weights: on AVX-512 machines each quantized weight of a
//! 16/32/64-wide panel is loaded and widened once for all rows below
//! [`BLOCK_MIN_ROWS`], with the same fused multiply-add per element and the
//! same scale multiply per output as the single-row kernel — so each row is
//! bit-identical to one `gemv_into` on that row, on the same machine.

use crate::gemm::BLOCK_MIN_ROWS;
use crate::gemv::panel_width;
use crate::matrix::Matrix;

/// `i8`s per cache line; panel starts are padded to this so streaming loads
/// do not straddle lines (purely a bandwidth hint — kernels never assume
/// alignment).
const CACHE_LINE_I8: usize = 64;

/// One quantized column panel: `width` consecutive output columns starting
/// at `col`, stored row-major (`k × width`) at `data_off`, dequantized by
/// `scale`.
#[derive(Clone, Copy, Debug)]
struct PanelI8 {
    width: usize,
    data_off: usize,
    col: usize,
    scale: f32,
}

/// A `K × N` weight matrix packed into contiguous `i8` column panels with
/// per-panel f32 scales, for repeated `y = x·W` products (`x: 1×K`,
/// `y: 1×N`).
///
/// Pack once (at model load, or after an optimiser step), then call
/// [`PackedGemvWeightsI8::gemv_into`] per decision; the steady state
/// performs zero allocations and streams one quarter of the bytes the f32
/// pack would. See the [module docs](self) for the layout and the accuracy
/// contract.
#[derive(Clone, Debug, Default)]
pub struct PackedGemvWeightsI8 {
    k: usize,
    n: usize,
    data: Vec<i8>,
    panels: Vec<PanelI8>,
}

impl PackedGemvWeightsI8 {
    /// Quantizes and packs a single weight matrix.
    pub fn pack(w: &Matrix) -> Self {
        Self::pack_concat(&[w])
    }

    /// Packs several matrices of equal height side by side: the logical
    /// product is `x · [W₀ | W₁ | …]`, with `Wᵢ`'s outputs landing at
    /// column offset `Σ_{j<i} cols(Wⱼ)`. Each source matrix gets its own
    /// panels (and therefore its own scales), so the arithmetic per output
    /// column is identical to packing that matrix alone.
    ///
    /// # Panics
    /// Panics if the matrices disagree on row count.
    pub fn pack_concat(ws: &[&Matrix]) -> Self {
        let mut packed = Self::default();
        packed.repack_concat(ws);
        packed
    }

    /// Re-quantizes a single matrix in place, reusing the existing buffers
    /// (allocation-free once shapes have stabilised).
    pub fn repack(&mut self, w: &Matrix) {
        self.repack_concat(&[w]);
    }

    /// [`PackedGemvWeightsI8::pack_concat`] into existing buffers.
    ///
    /// # Panics
    /// Panics if the matrices disagree on row count.
    pub fn repack_concat(&mut self, ws: &[&Matrix]) {
        let k = ws.first().map_or(0, |w| w.rows());
        assert!(
            ws.iter().all(|w| w.rows() == k),
            "pack_concat requires equal row counts, got {:?}",
            ws.iter().map(|w| w.rows()).collect::<Vec<_>>()
        );
        self.k = k;
        self.n = ws.iter().map(|w| w.cols()).sum();
        self.panels.clear();
        self.data.clear();
        self.data
            .reserve(self.k * self.n + CACHE_LINE_I8 * (self.n / 8 + 2));
        let mut col_base = 0;
        for w in ws {
            let mut col = 0;
            while col < w.cols() {
                let width = panel_width(w.cols() - col);
                let aligned = self.data.len().next_multiple_of(CACHE_LINE_I8);
                // Pass 1: the panel's dynamic range fixes the scale. The
                // scan runs in the integer domain — for finite IEEE floats
                // `|a| ≤ |b|` iff their sign-cleared bit patterns compare
                // the same way, and integer max-reductions vectorise where
                // float `max` (NaN semantics) does not.
                let mut max_bits = 0u32;
                for r in 0..k {
                    for &v in &w.row(r)[col..col + width] {
                        max_bits = max_bits.max(v.to_bits() & 0x7fff_ffff);
                    }
                }
                let max_abs = f32::from_bits(max_bits);
                let mut scale = if max_abs > 0.0 { max_abs / 127.0 } else { 0.0 };
                let mut inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
                if !inv.is_finite() {
                    // Sub-normal panel maxima (max|w| ≲ 3.7e-37): 1/scale
                    // overflows, and an infinite `inv` would drive the
                    // vector quantizer to ±saturation instead of ±127
                    // (sign-flipping positives) — far outside the error
                    // bound. Weights that tiny contribute nothing a
                    // quantized tier could represent; zero the panel.
                    scale = 0.0;
                    inv = 0.0;
                }
                // Pass 2: round-to-nearest(-even) quantization — the
                // hardware rounding of `cvtps2dq`, so the vector kernel
                // and the scalar fallback agree (a libm `round()` call per
                // weight made repack ~20× slower than the f32 pack).
                // `|v·inv| ≤ 127` by construction; saturation only guards
                // the one-ULP edge of the reciprocal multiply.
                self.data.resize(aligned + k * width, 0);
                let dst = &mut self.data[aligned..];
                for r in 0..k {
                    let src = &w.row(r)[col..col + width];
                    quantize_slice(src, inv, &mut dst[r * width..(r + 1) * width]);
                }
                self.panels.push(PanelI8 {
                    width,
                    data_off: aligned,
                    col: col_base + col,
                    scale,
                });
                col += width;
            }
            col_base += w.cols();
        }
    }

    /// Height `K` of the packed matrix (input width).
    #[inline]
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Width `N` of the packed matrix (output width; summed over sources
    /// for concatenated packs).
    #[inline]
    pub fn cols(&self) -> usize {
        self.n
    }

    /// The largest per-panel dequantization scale: one quantization step of
    /// the coarsest panel is `max_scale()`, i.e. the worst per-weight error
    /// is `0.5 · max_scale()`.
    pub fn max_scale(&self) -> f32 {
        self.panels.iter().map(|p| p.scale).fold(0.0, f32::max)
    }

    /// A priori bound on `max_j |y_q[j] − y[j]|` for input `x`, from the
    /// round-to-nearest error of the quantized weights (excludes the — much
    /// smaller — f32 accumulation noise both paths share). See the
    /// [module docs](self).
    pub fn error_bound(&self, x: &[f32]) -> f32 {
        let sum_abs: f32 = x.iter().map(|v| v.abs()).sum();
        0.5 * self.max_scale() * sum_abs
    }

    /// `y = x · W_q`, overwriting `y` with the dequantized product.
    ///
    /// # Panics
    /// Panics unless `x.len() == rows()` and `y.len() == cols()`.
    pub fn gemv_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.k, "gemv input width mismatch");
        assert_eq!(y.len(), self.n, "gemv output width mismatch");
        for p in &self.panels {
            let panel = &self.data[p.data_off..p.data_off + self.k * p.width];
            panel_into_i8(p, x, panel, &mut y[p.col..p.col + p.width]);
        }
    }

    /// `y_r = x_r · W_q` for each of `rows` rows, overwriting `y`: `x` is
    /// `rows × K` and `y` is `rows × N`, both row-major.
    ///
    /// On AVX-512 machines each quantized weight of a 16/32/64-wide panel
    /// is loaded and widened once per block of up to `BLOCK_MIN_ROWS - 1`
    /// rows; one row, narrower panels and other machines run the
    /// single-row kernels row by row. Every row is bit-identical to one
    /// [`PackedGemvWeightsI8::gemv_into`] on that row (see the
    /// [module docs](self)).
    ///
    /// # Panics
    /// Panics unless `x.len() == rows · rows()` and
    /// `y.len() == rows · cols()`.
    pub fn gemv_rows_into(&self, rows: usize, x: &[f32], y: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        assert_eq!(x.len(), rows * k, "gemv input shape mismatch");
        assert_eq!(y.len(), rows * n, "gemv output shape mismatch");
        let mut r0 = 0;
        while r0 < rows {
            let block = (rows - r0).min(BLOCK_MIN_ROWS - 1);
            let xb = &x[r0 * k..(r0 + block) * k];
            let yb = &mut y[r0 * n..(r0 + block) * n];
            if block == 1 {
                self.gemv_into(xb, yb);
            } else {
                self.block_into(block, xb, yb);
            }
            r0 += block;
        }
    }

    /// One block of `2..BLOCK_MIN_ROWS` rows, panel by panel.
    fn block_into(&self, rows: usize, x: &[f32], y: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        for p in &self.panels {
            let panel = &self.data[p.data_off..p.data_off + k * p.width];
            #[cfg(target_arch = "x86_64")]
            if p.width >= 16 && widen::wide_rows_available() {
                widen::panel_rows(rows, x, panel, p.width, p.scale, &mut y[p.col..], n);
                continue;
            }
            for r in 0..rows {
                let out = &mut y[r * n + p.col..r * n + p.col + p.width];
                panel_into_i8(p, &x[r * k..(r + 1) * k], panel, out);
            }
        }
    }
}

/// One quantized panel's single-row product into its output columns.
/// Monomorphised widths, like the f32 tier: a runtime-bounded inner loop
/// would spill the accumulators.
#[inline]
fn panel_into_i8(p: &PanelI8, x: &[f32], panel: &[i8], out: &mut [f32]) {
    match p.width {
        64 => panel_kernel_i8::<64>(x, panel, p.scale, out),
        32 => panel_kernel_i8::<32>(x, panel, p.scale, out),
        16 => panel_kernel_i8::<16>(x, panel, p.scale, out),
        8 => panel_kernel_i8::<8>(x, panel, p.scale, out),
        7 => panel_scalar_i8::<7>(x, panel, p.scale, out),
        6 => panel_scalar_i8::<6>(x, panel, p.scale, out),
        5 => panel_scalar_i8::<5>(x, panel, p.scale, out),
        4 => panel_scalar_i8::<4>(x, panel, p.scale, out),
        3 => panel_scalar_i8::<3>(x, panel, p.scale, out),
        2 => panel_scalar_i8::<2>(x, panel, p.scale, out),
        1 => panel_scalar_i8::<1>(x, panel, p.scale, out),
        w => unreachable!("panel decomposition produced width {w}"),
    }
}

/// Panel kernel entry: the explicit widen-multiply kernels when the CPU
/// supports them (runtime-detected on **every** build — this tier has no
/// bit-identity contract to preserve, see the [module docs](self)),
/// otherwise the scalar widen loop.
#[inline]
fn panel_kernel_i8<const W: usize>(x: &[f32], panel: &[i8], scale: f32, y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if widen::available() {
        widen::panel::<W>(x, panel, scale, y);
        return;
    }
    panel_scalar_i8::<W>(x, panel, scale, y);
}

/// Quantizes one row slice: `dst[i] = round_ties_even(src[i] · inv)`,
/// saturating-narrowed to i8. Runtime-dispatched to the vector kernels on
/// x86-64 (the `as i8` saturating cast defeats the autovectoriser), scalar
/// otherwise. Non-finite inputs land on an arbitrary level (0 scalar, −128
/// vector); weights are finite by the training-side contract.
#[inline]
fn quantize_slice(src: &[f32], inv: f32, dst: &mut [i8]) {
    #[cfg(target_arch = "x86_64")]
    if widen::available() {
        widen::quantize_slice(src, inv, dst);
        return;
    }
    quantize_slice_scalar(src, inv, dst);
}

/// Portable reference semantics of [`quantize_slice`].
#[inline]
fn quantize_slice_scalar(src: &[f32], inv: f32, dst: &mut [i8]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = (v * inv).round_ties_even() as i8;
    }
}

/// Scalar quantized panel kernel: `W` f32 accumulators in a fixed-size
/// array the compiler keeps in vector registers, weights widened i8→f32 in
/// the loop body, one scale multiply per output at the end.
#[inline]
fn panel_scalar_i8<const W: usize>(x: &[f32], panel: &[i8], scale: f32, y: &mut [f32]) {
    debug_assert_eq!(panel.len(), x.len() * W);
    let mut acc = [0.0f32; W];
    for (row, &xv) in panel.chunks_exact(W).zip(x) {
        for (a, &wv) in acc.iter_mut().zip(row) {
            *a += xv * f32::from(wv);
        }
    }
    for (o, &a) in y.iter_mut().zip(acc.iter()) {
        *o = a * scale;
    }
}

/// Explicit widen-multiply panel kernels: 512-bit where the CPU has
/// AVX-512F, 256-bit AVX2/FMA otherwise, runtime-detected (the quantized
/// tier has no bit-identity contract, so its kernels may fuse the
/// multiply-add; the f32 `wide` module sets the precedent for runtime
/// dispatch).
///
/// The workspace denies `unsafe_code`; like the f32 GEMV kernels this
/// module is an audited exception — `std::arch` intrinsics are unsafe by
/// signature. Safety rests on runtime feature detection plus the length
/// checks in the safe wrapper.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod widen {
    use std::arch::x86_64::{
        __m128i, _mm256_castsi256_si128, _mm256_cvtepi32_ps, _mm256_cvtepi8_epi32,
        _mm256_cvtps_epi32, _mm256_extracti128_si256, _mm256_fmadd_ps, _mm256_loadu_ps,
        _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps, _mm512_cvtepi32_ps,
        _mm512_cvtepi8_epi32, _mm512_cvtps_epi32, _mm512_cvtsepi32_epi8, _mm512_fmadd_ps,
        _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
        _mm_loadl_epi64, _mm_loadu_si128, _mm_packs_epi16, _mm_packs_epi32, _mm_storel_epi64,
        _mm_storeu_si128,
    };
    use std::sync::OnceLock;

    /// Runtime AVX2+FMA detection, cached after the first call.
    pub(super) fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE
            .get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }

    /// Runtime AVX-512F detection, cached after the first call.
    fn wide_available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| is_x86_feature_detected!("avx512f"))
    }

    /// Safe wrapper: validates lengths, then dispatches to the
    /// lane-monomorphised target-feature kernel.
    pub(super) fn panel<const W: usize>(x: &[f32], panel: &[i8], scale: f32, y: &mut [f32]) {
        assert!(
            panel.len() >= x.len() * W,
            "packed panel shorter than k rows"
        );
        assert_eq!(y.len(), W, "panel output width mismatch");
        debug_assert!(available());
        // SAFETY: `available()`/`wide_available()` gate on runtime CPU
        // support; the asserts above guarantee every `k`-indexed panel load
        // (8 or 16 bytes) and every output store stays in bounds.
        unsafe {
            if W >= 16 && wide_available() {
                match W {
                    64 => panel_512::<4>(x, panel, scale, y),
                    32 => panel_512::<2>(x, panel, scale, y),
                    16 => panel_512::<1>(x, panel, scale, y),
                    _ => unreachable!("unsupported wide panel width {W}"),
                }
                return;
            }
            match W {
                64 => panel_fma::<8>(x, panel, scale, y),
                32 => panel_fma::<4>(x, panel, scale, y),
                16 => panel_fma::<2>(x, panel, scale, y),
                8 => panel_fma::<1>(x, panel, scale, y),
                _ => unreachable!("unsupported panel width {W}"),
            }
        }
    }

    /// Whether the single-row kernel takes its 512-bit path for panels of
    /// 16 columns and up — exactly when the multi-row kernels may run.
    pub(super) fn wide_rows_available() -> bool {
        available() && wide_available()
    }

    /// Safe wrapper for the multi-row kernels: `rows` rows of `x`
    /// (`rows × k`, with `k = panel.len() / width`) through one quantized
    /// `width`-wide panel into `y`, whose row `r` starts at `r · n` (the
    /// caller offsets `y` to the panel's first column). Strips of 16·L
    /// columns keep `R × L` accumulators in registers, as in the f32 tier;
    /// each weight vector is widened once and feeds every row.
    pub(super) fn panel_rows(
        rows: usize,
        x: &[f32],
        panel: &[i8],
        width: usize,
        scale: f32,
        y: &mut [f32],
        n: usize,
    ) {
        let k = panel.len() / width;
        assert!(
            matches!(width, 16 | 32 | 64),
            "unsupported wide panel width {width}"
        );
        assert!(
            (2..super::BLOCK_MIN_ROWS).contains(&rows),
            "row block out of range"
        );
        assert_eq!(x.len(), rows * k, "multi-row input shape mismatch");
        assert!(
            y.len() >= (rows - 1) * n + width,
            "multi-row output too short"
        );
        debug_assert!(wide_rows_available());
        let strips = if rows <= 5 {
            4
        } else if rows <= 10 {
            2
        } else {
            1
        };
        let l = strips.min(width / 16);
        let (x, p, y) = (x.as_ptr(), panel.as_ptr(), y.as_mut_ptr());
        macro_rules! dispatch {
            ($l:literal; $($r:literal)*) => {
                match rows {
                    $($r => rows_512::<$l, $r>(k, x, p, width, scale, y, n),)*
                    _ => unreachable!("{rows} rows with {} strips", $l),
                }
            };
        }
        // SAFETY: `wide_rows_available()` gates on runtime avx2, fma and
        // avx512f support; the asserts above bound every input load
        // (`rows · k` floats), every panel load (`k · width` bytes, strips
        // dividing `width`) and every output store (row `r` writes `width`
        // floats at `r · n`).
        unsafe {
            match l {
                4 => dispatch!(4; 2 3 4 5),
                2 => dispatch!(2; 2 3 4 5 6 7 8 9 10),
                _ => dispatch!(1; 2 3 4 5 6 7 8 9 10 11 12 13 14 15),
            }
        }
    }

    /// `R` rows × one strip of `L` 512-bit columns per pass over `k`:
    /// the same widen, FMA and final scale multiply per element as
    /// `panel_512`, with each widened weight vector shared by every row.
    ///
    /// # Safety
    /// The CPU must support AVX-512F; `x` must hold `R · k` floats, `panel`
    /// `k · width` bytes, and `y` `(R − 1) · n + width` floats; `16 · L`
    /// must divide `width`.
    #[target_feature(enable = "avx512f")]
    unsafe fn rows_512<const L: usize, const R: usize>(
        k: usize,
        x: *const f32,
        panel: *const i8,
        width: usize,
        scale: f32,
        y: *mut f32,
        n: usize,
    ) {
        let s_v = _mm512_set1_ps(scale);
        let mut s = 0;
        while s < width {
            let mut acc = [[_mm512_setzero_ps(); L]; R];
            for kk in 0..k {
                let row = panel.add(kk * width + s);
                let mut w = [_mm512_setzero_ps(); L];
                for (l, wl) in w.iter_mut().enumerate() {
                    let q = _mm_loadu_si128(row.add(l * 16).cast::<__m128i>());
                    *wl = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(q));
                }
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let xb = _mm512_set1_ps(*x.add(r * k + kk));
                    for (a, &wl) in acc_r.iter_mut().zip(&w) {
                        *a = _mm512_fmadd_ps(xb, wl, *a);
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                for (l, a) in acc_r.iter().enumerate() {
                    _mm512_storeu_ps(y.add(r * n + s + l * 16), _mm512_mul_ps(*a, s_v));
                }
            }
            s += L * 16;
        }
    }

    /// Vector quantization of one row slice: multiply by the reciprocal
    /// scale, `cvtps2dq` (round-to-nearest-even, the scalar fallback's
    /// `round_ties_even`), saturating-narrow to i8. 512-bit where the CPU
    /// has AVX-512F, 256-bit otherwise, scalar tail either way.
    pub(super) fn quantize_slice(src: &[f32], inv: f32, dst: &mut [i8]) {
        assert!(dst.len() >= src.len(), "quantize destination too short");
        debug_assert!(available());
        // SAFETY: `available()`/`wide_available()` gate on runtime CPU
        // support; both kernels stop `16`/`8` elements before the length
        // checked above and finish with a scalar tail.
        unsafe {
            if wide_available() {
                quantize_512(src, inv, dst);
            } else {
                quantize_256(src, inv, dst);
            }
        }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn quantize_512(src: &[f32], inv: f32, dst: &mut [i8]) {
        let vinv = _mm512_set1_ps(inv);
        let n = src.len();
        let mut i = 0;
        while i + 16 <= n {
            let x = _mm512_mul_ps(_mm512_loadu_ps(src.as_ptr().add(i)), vinv);
            let q = _mm512_cvtps_epi32(x);
            let b = _mm512_cvtsepi32_epi8(q);
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast::<__m128i>(), b);
            i += 16;
        }
        super::quantize_slice_scalar(&src[i..], inv, &mut dst[i..n]);
    }

    #[target_feature(enable = "avx2")]
    unsafe fn quantize_256(src: &[f32], inv: f32, dst: &mut [i8]) {
        let vinv = _mm256_set1_ps(inv);
        let n = src.len();
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_mul_ps(_mm256_loadu_ps(src.as_ptr().add(i)), vinv);
            let q = _mm256_cvtps_epi32(x);
            let w16 = _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
            let b8 = _mm_packs_epi16(w16, w16);
            _mm_storel_epi64(dst.as_mut_ptr().add(i).cast::<__m128i>(), b8);
            i += 8;
        }
        super::quantize_slice_scalar(&src[i..], inv, &mut dst[i..n]);
    }

    /// `L` 256-bit accumulators (8·L panel columns) in registers across the
    /// whole `k` loop: widen 8 quantized weights i8→i32→f32, broadcast
    /// `x[k]`, one FMA per lane; the panel scale is applied once per lane at
    /// the end.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn panel_fma<const L: usize>(x: &[f32], panel: &[i8], scale: f32, y: &mut [f32]) {
        let p = panel.as_ptr();
        let mut acc = [_mm256_setzero_ps(); L];
        for (kk, &xv) in x.iter().enumerate() {
            let xb = _mm256_set1_ps(xv);
            let row = p.add(kk * L * 8);
            for (l, a) in acc.iter_mut().enumerate() {
                let q = _mm_loadl_epi64(row.add(l * 8).cast::<__m128i>());
                let w = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(q));
                *a = _mm256_fmadd_ps(xb, w, *a);
            }
        }
        let s = _mm256_set1_ps(scale);
        for (l, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(y.as_mut_ptr().add(l * 8), _mm256_mul_ps(*a, s));
        }
    }

    /// `L` 512-bit accumulators (16·L panel columns): widen 16 quantized
    /// weights per lane per `k`, FMA against the broadcast input, scale
    /// once at the end.
    #[target_feature(enable = "avx512f")]
    unsafe fn panel_512<const L: usize>(x: &[f32], panel: &[i8], scale: f32, y: &mut [f32]) {
        let p = panel.as_ptr();
        let mut acc = [_mm512_setzero_ps(); L];
        for (kk, &xv) in x.iter().enumerate() {
            let xb = _mm512_set1_ps(xv);
            let row = p.add(kk * L * 16);
            for (l, a) in acc.iter_mut().enumerate() {
                let q = _mm_loadu_si128(row.add(l * 16).cast::<__m128i>());
                let w = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(q));
                *a = _mm512_fmadd_ps(xb, w, *a);
            }
        }
        let s = _mm512_set1_ps(scale);
        for (l, a) in acc.iter().enumerate() {
            _mm512_storeu_ps(y.as_mut_ptr().add(l * 16), _mm512_mul_ps(*a, s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: usize, cols: usize, seed: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            ((i * 31 + j * 17 + seed * 13 + 7) % 97) as f32 / 48.5 - 1.0
        })
    }

    #[test]
    fn panel_decomposition_covers_all_columns() {
        for n in [1, 7, 8, 9, 15, 16, 31, 33, 63, 64, 65, 127, 128, 384] {
            let w = dense(3, n, n);
            let packed = PackedGemvWeightsI8::pack(&w);
            assert_eq!(packed.cols(), n);
            let mut covered = vec![false; n];
            for p in &packed.panels {
                for c in p.col..p.col + p.width {
                    assert!(!covered[c], "column {c} packed twice (n={n})");
                    covered[c] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "columns uncovered at n={n}");
        }
    }

    #[test]
    fn quantized_gemv_stays_within_its_error_bound() {
        let x = dense(1, 128, 0);
        let w = dense(128, 128, 1);
        let mut want = Matrix::zeros(1, 128);
        x.matmul_into(&w, &mut want);
        let packed = PackedGemvWeightsI8::pack(&w);
        let mut y = vec![f32::NAN; 128];
        packed.gemv_into(x.row(0), &mut y);
        let bound = packed.error_bound(x.row(0)) * 1.001 + 1e-5;
        for (j, (got, wanted)) in y.iter().zip(want.row(0)).enumerate() {
            let diff = (got - wanted).abs();
            assert!(diff <= bound, "column {j}: |{got} − {wanted}| > {bound}");
        }
    }

    #[test]
    fn exactly_representable_weights_round_trip() {
        // With max|w| = 1 the scale is exactly 1/127, so weights on the
        // q/127 integer grid quantize without error and the product differs
        // from f32 only by fold noise.
        let k = 16;
        let w = Matrix::from_fn(k, 8, |i, j| ((i * 8 + j) as f32 - 127.0) / 127.0);
        let x = dense(1, k, 3);
        let mut want = Matrix::zeros(1, 8);
        x.matmul_into(&w, &mut want);
        let packed = PackedGemvWeightsI8::pack(&w);
        let mut y = vec![0.0f32; 8];
        packed.gemv_into(x.row(0), &mut y);
        for (got, wanted) in y.iter().zip(want.row(0)) {
            assert!(
                (got - wanted).abs() < 1e-5,
                "lossless panel drifted: {got} vs {wanted}"
            );
        }
    }

    #[test]
    fn subnormal_scale_panels_quantize_to_zero_not_saturation() {
        // max|w| small enough that 1/scale overflows f32: the panel must
        // degrade to all-zero output (error ≪ any other panel's bound),
        // not to sign-flipped ±saturation from an infinite reciprocal.
        let w = Matrix::from_fn(16, 64, |i, j| {
            1.0e-38 * (1.0 + ((i * 64 + j) % 7) as f32) * if j % 2 == 0 { 1.0 } else { -1.0 }
        });
        let packed = PackedGemvWeightsI8::pack(&w);
        assert_eq!(packed.max_scale(), 0.0);
        let x = dense(1, 16, 9);
        let mut y = vec![f32::NAN; 64];
        packed.gemv_into(x.row(0), &mut y);
        assert!(y.iter().all(|&v| v == 0.0), "saturated output: {y:?}");
    }

    #[test]
    fn all_zero_panel_yields_zero_scale_and_zero_output() {
        let w = Matrix::zeros(12, 40);
        let packed = PackedGemvWeightsI8::pack(&w);
        assert_eq!(packed.max_scale(), 0.0);
        let x = dense(1, 12, 5);
        let mut y = vec![f32::NAN; 40];
        packed.gemv_into(x.row(0), &mut y);
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_operands_are_harmless() {
        let w = Matrix::zeros(0, 0);
        let packed = PackedGemvWeightsI8::pack(&w);
        let mut y: Vec<f32> = Vec::new();
        packed.gemv_into(&[], &mut y);
        assert_eq!(packed.rows(), 0);
        assert_eq!(packed.cols(), 0);
    }

    #[test]
    #[should_panic(expected = "equal row counts")]
    fn concat_rejects_ragged_heights() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(2, 4);
        let _ = PackedGemvWeightsI8::pack_concat(&[&a, &b]);
    }
}
