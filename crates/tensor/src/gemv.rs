//! Packed GEMV: the `1×K · K×N` inference engine behind per-decision latency.
//!
//! The blocked GEMM in [`crate::gemm`] deliberately excludes vector–matrix
//! shapes (`should_block` requires ≥ two row strips), so single-decision
//! inference — one observation row through the GRU torso and heads — runs
//! the unblocked `ikj` axpy loop. That loop is optimal for *streaming* `W`
//! but pays a hidden tax on `1×K` inputs: the output row is re-loaded and
//! re-stored for **every** value of `k`, because `N` accumulators do not fit
//! in the register file next to the broadcast and the weight row. At
//! `1×128 · 128×128` that is 128 extra round trips of a 512-byte row
//! through L1 — measurably more than half the kernel's time.
//!
//! [`PackedGemvWeights`] removes the tax with a pack-once/reuse-forever
//! layout: the weight matrix is cut into **column panels** of register-tile
//! width (64/32/16/8 columns), each panel stored row-major and contiguous.
//! The panel kernel keeps one accumulator per panel column — at most 64
//! floats, i.e. 8 AVX2 registers — for the *entire* `k` loop: weights
//! stream linearly exactly once, the input row stays in L1, and the output
//! is stored exactly once at the end. This is what a column-major /
//! pre-transposed layout buys for `1×K` shapes, without the transposed
//! dot-product form's drawback of reordering the reduction (see below).
//! Packing costs one pass over `W`, so it amortises after a single matvec;
//! the intended pattern is pack at load (or after each optimiser step via
//! `repack*`) and reuse across every decision in between.
//!
//! A handful of rows through the same weights (a shard's batch of
//! streams, a few environments) run [`PackedGemvWeights::gemv_rows_into`]:
//! on AVX-512 machines its kernels keep one accumulator tile per row and
//! load each weight of a 16/32/64-wide panel once for all rows below
//! [`BLOCK_MIN_ROWS`], instead of streaming the panel once per row.
//!
//! Several same-height matrices can be packed side by side with
//! [`PackedGemvWeights::pack_concat`]; one [`PackedGemvWeights::gemv_into`]
//! call then computes all their products in a single traversal. The GRU
//! inference path uses this to fuse the three gate matvecs per operand
//! (`x·[Wz|Wr|Wn]`, `h·[Uz|Ur]`): one pass, one set of register
//! accumulators per panel, three gate pre-activations out.
//!
//! # Numerical contract
//!
//! Each output element is an ascending-`k` fold `y[j] = Σ_k x[k]·W[k,j]`
//! accumulated from zero with one `mul` + one `add` per product — exactly
//! the fold `Matrix::matmul_into` performs on these shapes through the
//! unblocked `A·B` kernel. The packed GEMV is therefore **bit-identical**
//! to `mm_into` for every `1×K` product, for any panel decomposition
//! (`tests/gemv_equivalence.rs` pins this) — *including* its
//! runtime-detected AVX-512 path, which widens the vectors but keeps the
//! separate `mul`/`add` roundings (see the `wide` module). A fully transposed
//! dot-product layout was rejected for exactly this reason: fast dot
//! kernels need lane-split accumulators, which reorder the reduction and
//! break the bit-identity the train-then-infer equivalence tests rely on.
//! The multi-row kernels perform the same per-element fold, so each row of
//! a `gemv_rows_into` is bit-identical to one `gemv_into` on that row
//! (`tests/gemv_rows_equivalence.rs`).

use crate::gemm::BLOCK_MIN_ROWS;
use crate::matrix::Matrix;

/// Widest panel (and register tile) the kernels use: 64 columns = 8 AVX2
/// vectors of accumulators, leaving room for the broadcast and weight rows.
pub const GEMV_MAX_PANEL: usize = 64;

/// `f32`s per cache line; panel starts are padded to this so streaming
/// loads do not straddle lines.
const CACHE_LINE_F32: usize = 16;

/// One column panel of the packed weights: `width` consecutive output
/// columns starting at `col`, stored row-major (`k × width`) at `data_off`.
#[derive(Clone, Copy, Debug)]
struct Panel {
    width: usize,
    data_off: usize,
    col: usize,
}

/// Greedy register-tile decomposition of a remaining column count. Powers
/// of two down to 8 keep every panel on a monomorphised kernel with full
/// vector accumulators; a final sub-8 remainder runs the scalar tail.
/// Shared with the quantized layout in [`crate::gemv_i8`], so the two tiers
/// always agree on the panel geometry.
#[inline]
pub(crate) fn panel_width(remaining: usize) -> usize {
    match remaining {
        r if r >= 64 => 64,
        r if r >= 32 => 32,
        r if r >= 16 => 16,
        r if r >= 8 => 8,
        r => r,
    }
}

/// A `K × N` weight matrix packed into contiguous column panels for
/// repeated `y = x·W` products (`x: 1×K`, `y: 1×N`).
///
/// Pack once (at model load, or after an optimiser step), then call
/// [`PackedGemvWeights::gemv_into`] per decision; the steady state performs
/// zero allocations and streams the weights exactly once per product. See
/// the [module docs](self) for the layout and the numerical contract.
#[derive(Clone, Debug, Default)]
pub struct PackedGemvWeights {
    k: usize,
    n: usize,
    data: Vec<f32>,
    panels: Vec<Panel>,
}

impl PackedGemvWeights {
    /// Packs a single weight matrix.
    pub fn pack(w: &Matrix) -> Self {
        Self::pack_concat(&[w])
    }

    /// Packs several matrices of equal height side by side: the logical
    /// product is `x · [W₀ | W₁ | …]`, with `Wᵢ`'s outputs landing at
    /// column offset `Σ_{j<i} cols(Wⱼ)`.
    ///
    /// Each source matrix gets its own panels, so the arithmetic per output
    /// column is identical to packing that matrix alone.
    ///
    /// # Panics
    /// Panics if the matrices disagree on row count.
    pub fn pack_concat(ws: &[&Matrix]) -> Self {
        let mut packed = Self::default();
        packed.repack_concat(ws);
        packed
    }

    /// Re-packs a single matrix in place, reusing the existing buffers
    /// (allocation-free once shapes have stabilised).
    pub fn repack(&mut self, w: &Matrix) {
        self.repack_concat(&[w]);
    }

    /// [`PackedGemvWeights::pack_concat`] into existing buffers.
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
            .reserve(self.k * self.n + CACHE_LINE_F32 * (self.n / 8 + 2));
        let mut col_base = 0;
        for w in ws {
            let mut col = 0;
            while col < w.cols() {
                let width = panel_width(w.cols() - col);
                // Start every panel on a cache-line boundary (relative to
                // the buffer base, which the allocator aligns to ≥16 bytes;
                // absolute 64-byte alignment additionally depends on the
                // allocation): line-split vector loads cost double on the
                // streaming side, and the kernels never assume alignment,
                // so this is purely a bandwidth hint.
                let aligned = self.data.len().next_multiple_of(CACHE_LINE_F32);
                self.data.resize(aligned, 0.0);
                self.panels.push(Panel {
                    width,
                    data_off: aligned,
                    col: col_base + col,
                });
                for r in 0..k {
                    self.data.extend_from_slice(&w.row(r)[col..col + width]);
                }
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

    /// `y = x · W`, overwriting `y`.
    ///
    /// Bit-identical to `Matrix::matmul_into` on the same operands; see the
    /// [module docs](self).
    ///
    /// # Panics
    /// Panics unless `x.len() == rows()` and `y.len() == cols()`.
    pub fn gemv_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.k, "gemv input width mismatch");
        assert_eq!(y.len(), self.n, "gemv output width mismatch");
        let mut i = 0;
        while i < self.panels.len() {
            let p = self.panels[i];
            // Adjacent full-width panels fuse into one AVX-512 pass: one
            // broadcast of `x[k]` feeds eight accumulator registers, so
            // loop control and the broadcast amortise over 128 columns.
            // Output columns of consecutive panels are always contiguous.
            #[cfg(target_arch = "x86_64")]
            if p.width == 64
                && i + 1 < self.panels.len()
                && self.panels[i + 1].width == 64
                && wide::available()
            {
                let q = self.panels[i + 1];
                debug_assert_eq!(q.col, p.col + 64);
                let pa = &self.data[p.data_off..p.data_off + self.k * 64];
                let pb = &self.data[q.data_off..q.data_off + self.k * 64];
                let (ya, yb) = y[p.col..p.col + 128].split_at_mut(64);
                wide::panel_pair64(x, pa, pb, ya, yb);
                i += 2;
                continue;
            }
            let panel = &self.data[p.data_off..p.data_off + self.k * p.width];
            panel_into(p.width, x, panel, &mut y[p.col..p.col + p.width]);
            i += 1;
        }
    }

    /// `y_r = x_r · W` for each of `rows` rows, overwriting `y`: `x` is
    /// `rows × K` and `y` is `rows × N`, both row-major.
    ///
    /// On AVX-512 machines each weight of a 16/32/64-wide panel is loaded
    /// once per block of up to `BLOCK_MIN_ROWS - 1` rows; one row, narrower
    /// panels and other machines run the single-row kernels row by row.
    /// Either way each element is the same ascending-`k` fold, so every
    /// output row is bit-identical to one [`PackedGemvWeights::gemv_into`]
    /// on that row.
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
            if p.width >= 16 && wide::available() {
                wide::panel_rows(rows, x, panel, p.width, &mut y[p.col..], n);
                continue;
            }
            for r in 0..rows {
                let out = &mut y[r * n + p.col..r * n + p.col + p.width];
                panel_into(p.width, &x[r * k..(r + 1) * k], panel, out);
            }
        }
    }
}

/// One panel's single-row product into its `width` output columns. Every
/// width is monomorphised: a runtime-bounded inner loop would stop the
/// compiler from keeping the accumulators in registers, which is the whole
/// point of the layout.
#[inline]
fn panel_into(width: usize, x: &[f32], panel: &[f32], out: &mut [f32]) {
    match width {
        64 => panel_kernel::<64>(x, panel, out),
        32 => panel_kernel::<32>(x, panel, out),
        16 => panel_kernel::<16>(x, panel, out),
        8 => panel_kernel::<8>(x, panel, out),
        7 => panel_scalar::<7>(x, panel, out),
        6 => panel_scalar::<6>(x, panel, out),
        5 => panel_scalar::<5>(x, panel, out),
        4 => panel_scalar::<4>(x, panel, out),
        3 => panel_scalar::<3>(x, panel, out),
        2 => panel_scalar::<2>(x, panel, out),
        1 => panel_scalar::<1>(x, panel, out),
        w => unreachable!("panel decomposition produced width {w}"),
    }
}

/// Panel kernel entry: runtime AVX-512F when the CPU has it — 512-bit
/// `mul` + `add`, **the same two-rounding per-element arithmetic as the
/// scalar fold**, so this path stays bit-identical to `mm_into`; it is pure
/// vectorisation, the compiler just will not pick 512-bit lanes on its own
/// — and otherwise the scalar loop (which the autovectoriser turns into
/// 256-bit mul+add).
#[inline]
fn panel_kernel<const W: usize>(x: &[f32], panel: &[f32], y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if W >= 16 && wide::available() {
        wide::panel::<W>(x, panel, y);
        return;
    }
    panel_scalar::<W>(x, panel, y);
}

/// Scalar panel kernel: `W` accumulators held in a fixed-size array the
/// compiler keeps in vector registers (the same trick as the GEMM
/// microkernel), ascending-`k` mul+add fold, one store per output at the
/// end. `chunks_exact` removes the bounds checks from the hot loop.
#[inline]
fn panel_scalar<const W: usize>(x: &[f32], panel: &[f32], y: &mut [f32]) {
    debug_assert_eq!(panel.len(), x.len() * W);
    let mut acc = [0.0f32; W];
    for (row, &xv) in panel.chunks_exact(W).zip(x) {
        for (a, &wv) in acc.iter_mut().zip(row) {
            *a += xv * wv;
        }
    }
    y.copy_from_slice(&acc);
}

/// Runtime-detected AVX-512F panel kernels.
///
/// These do not change the numerical contract: each lane performs the same
/// `mul` followed by the same `add` (two roundings, ascending `k`) as the
/// scalar fold, so the results are bit-identical — the intrinsics only
/// widen the vectors beyond what the autovectoriser is willing to emit
/// (LLVM prefers 256-bit lanes on current x86 targets).
/// `tests/gemv_equivalence.rs` exercises this path with exact equality on
/// any AVX-512 machine.
///
/// Like the quantized kernels in [`crate::gemv_i8`], this module is an
/// audited exception to the workspace-wide `unsafe_code` denial:
/// `std::arch` intrinsics are unsafe by signature, and safety rests on the
/// runtime `avx512f` check plus the length validation in the safe wrapper.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod wide {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    use std::sync::OnceLock;

    /// Runtime AVX-512F detection, cached after the first call.
    pub(super) fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| is_x86_feature_detected!("avx512f"))
    }

    /// Safe wrapper: validates lengths, then dispatches to the
    /// lane-monomorphised target-feature kernel.
    pub(super) fn panel<const W: usize>(x: &[f32], panel: &[f32], y: &mut [f32]) {
        assert!(
            panel.len() >= x.len() * W,
            "packed panel shorter than k rows"
        );
        assert_eq!(y.len(), W, "panel output width mismatch");
        debug_assert!(available());
        // SAFETY: `available()` gates on runtime avx512f support; the
        // asserts above guarantee every `k`-indexed panel load and every
        // 16-float output store below stays in bounds.
        unsafe {
            match W {
                64 => panel_512::<4>(x, panel, y),
                32 => panel_512::<2>(x, panel, y),
                16 => panel_512::<1>(x, panel, y),
                _ => unreachable!("unsupported wide panel width {W}"),
            }
        }
    }

    /// Fused pass over two adjacent 64-wide panels: one broadcast of
    /// `x[k]` feeds all eight accumulators, halving loop/broadcast
    /// overhead per column.
    pub(super) fn panel_pair64(x: &[f32], pa: &[f32], pb: &[f32], ya: &mut [f32], yb: &mut [f32]) {
        assert!(pa.len() >= x.len() * 64 && pb.len() >= x.len() * 64);
        assert!(ya.len() == 64 && yb.len() == 64);
        debug_assert!(available());
        // SAFETY: as for `panel`, plus the pair-length asserts above.
        unsafe { pair_512(x, pa, pb, ya, yb) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn pair_512(x: &[f32], pa: &[f32], pb: &[f32], ya: &mut [f32], yb: &mut [f32]) {
        let a = pa.as_ptr();
        let b = pb.as_ptr();
        let mut acc_a = [_mm512_setzero_ps(); 4];
        let mut acc_b = [_mm512_setzero_ps(); 4];
        for (kk, &xv) in x.iter().enumerate() {
            let xb = _mm512_set1_ps(xv);
            let ra = a.add(kk * 64);
            let rb = b.add(kk * 64);
            for l in 0..4 {
                let wa = _mm512_loadu_ps(ra.add(l * 16));
                let wb = _mm512_loadu_ps(rb.add(l * 16));
                acc_a[l] = _mm512_add_ps(acc_a[l], _mm512_mul_ps(xb, wa));
                acc_b[l] = _mm512_add_ps(acc_b[l], _mm512_mul_ps(xb, wb));
            }
        }
        for l in 0..4 {
            _mm512_storeu_ps(ya.as_mut_ptr().add(l * 16), acc_a[l]);
            _mm512_storeu_ps(yb.as_mut_ptr().add(l * 16), acc_b[l]);
        }
    }

    /// Safe wrapper for the multi-row kernels: `rows` rows of `x`
    /// (`rows × k`, with `k = panel.len() / width`) through one `width`-wide
    /// panel into `y`, whose row `r` starts at `r · n` (the caller offsets
    /// `y` to the panel's first column).
    ///
    /// The panel is cut into column strips of 16·L; a strip's `R × L`
    /// accumulators stay in registers across the whole `k` loop, so each
    /// weight is loaded once for every row. `L` shrinks as rows grow so the
    /// tile fits the 32 vector registers while keeping at least eight
    /// independent add chains in flight.
    pub(super) fn panel_rows(
        rows: usize,
        x: &[f32],
        panel: &[f32],
        width: usize,
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
        debug_assert!(available());
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
                    $($r => rows_512::<$l, $r>(k, x, p, width, y, n),)*
                    _ => unreachable!("{rows} rows with {} strips", $l),
                }
            };
        }
        // SAFETY: `available()` gates on runtime avx512f support; the
        // asserts above bound every input load (`rows · k` floats), every
        // panel load (`k · width`, strips dividing `width`) and every
        // output store (row `r` writes `width` floats at `r · n`).
        unsafe {
            match l {
                4 => dispatch!(4; 2 3 4 5),
                2 => dispatch!(2; 2 3 4 5 6 7 8 9 10),
                _ => dispatch!(1; 2 3 4 5 6 7 8 9 10 11 12 13 14 15),
            }
        }
    }

    /// `R` rows × one strip of `L` 512-bit columns per pass over `k`: the
    /// strip's weights are loaded once and feed every row's accumulators,
    /// with the same `mul` then `add` per element as `panel_512`.
    ///
    /// # Safety
    /// The CPU must support AVX-512F; `x` must hold `R · k` floats, `panel`
    /// `k · width` floats, and `y` `(R − 1) · n + width` floats; `16 · L`
    /// must divide `width`.
    #[target_feature(enable = "avx512f")]
    unsafe fn rows_512<const L: usize, const R: usize>(
        k: usize,
        x: *const f32,
        panel: *const f32,
        width: usize,
        y: *mut f32,
        n: usize,
    ) {
        let mut s = 0;
        while s < width {
            let mut acc = [[_mm512_setzero_ps(); L]; R];
            for kk in 0..k {
                let row = panel.add(kk * width + s);
                let mut w = [_mm512_setzero_ps(); L];
                for (l, wl) in w.iter_mut().enumerate() {
                    *wl = _mm512_loadu_ps(row.add(l * 16));
                }
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let xb = _mm512_set1_ps(*x.add(r * k + kk));
                    for (a, &wl) in acc_r.iter_mut().zip(&w) {
                        *a = _mm512_add_ps(*a, _mm512_mul_ps(xb, wl));
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                for (l, a) in acc_r.iter().enumerate() {
                    _mm512_storeu_ps(y.add(r * n + s + l * 16), *a);
                }
            }
            s += L * 16;
        }
    }

    /// `L` 512-bit accumulators (16·L panel columns) in registers across
    /// the whole `k` loop. (Software prefetch was measured here and lost
    /// ~4% — the extra load port pressure outweighs what the hardware
    /// streamer misses.)
    #[target_feature(enable = "avx512f")]
    unsafe fn panel_512<const L: usize>(x: &[f32], panel: &[f32], y: &mut [f32]) {
        let p = panel.as_ptr();
        let mut acc = [_mm512_setzero_ps(); L];
        for (kk, &xv) in x.iter().enumerate() {
            let xb = _mm512_set1_ps(xv);
            let row = p.add(kk * L * 16);
            for (l, a) in acc.iter_mut().enumerate() {
                *a = _mm512_add_ps(*a, _mm512_mul_ps(xb, _mm512_loadu_ps(row.add(l * 16))));
            }
        }
        for (l, a) in acc.iter().enumerate() {
            _mm512_storeu_ps(y.as_mut_ptr().add(l * 16), *a);
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
            let packed = PackedGemvWeights::pack(&w);
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
    fn gemv_matches_matmul_on_the_paper_shape() {
        let x = dense(1, 128, 0);
        let w = dense(128, 128, 1);
        let mut want = Matrix::zeros(1, 128);
        x.matmul_into(&w, &mut want);
        let packed = PackedGemvWeights::pack(&w);
        let mut y = vec![0.0f32; 128];
        packed.gemv_into(x.row(0), &mut y);
        let diff = y
            .iter()
            .zip(want.row(0))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert_eq!(diff, 0.0, "packed gemv must be bit-identical to mm_into");
    }

    #[test]
    fn empty_operands_are_harmless() {
        let w = Matrix::zeros(0, 0);
        let packed = PackedGemvWeights::pack(&w);
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
        let _ = PackedGemvWeights::pack_concat(&[&a, &b]);
    }
}
