//! Packed, cache-blocked GEMM with an 8×8 register-tiled microkernel.
//!
//! The unblocked kernels in [`unblocked`] are fine for the vector-matrix
//! shapes the inference hot path runs (`1×D · D×H`), but the large square
//! shapes of QBN training (`128×128 · 128×128` and up) are memory-layout
//! bound: the `ikj` axpy loop re-streams the whole `B` matrix and the output
//! row through L1 for every row of `A`. This module implements the standard
//! GotoBLAS-style decomposition instead:
//!
//! - `B` is packed into `KC × NC` panels of contiguous `NR`-wide column
//!   strips, `A` into `MC × KC` panels of `MR`-tall row strips, so the
//!   microkernel streams both operands linearly;
//! - an `MR × NR = 8×8` register-tiled microkernel keeps the 64 output
//!   accumulators in registers across the whole `KC` depth, turning the
//!   inner loop into 8 independent 8-wide FMA chains with **zero** loads or
//!   stores of `C`;
//! - panel buffers live in a reusable [`PackBuffers`] scratch (a
//!   thread-local instance backs the `Matrix::matmul*` entry points, so the
//!   steady state allocates nothing).
//!
//! All three orientations used by reverse-mode autodiff (`A·B`, `Aᵀ·B`,
//! `A·Bᵀ`) route through the same driver; only the packing routines differ.
//!
//! # Numerical contract
//!
//! For every output element the blocked path adds products in ascending-`k`
//! order, one `mul`+`add` per product, starting from the existing value of
//! `C` — exactly the fold the unblocked `A·B` / `Aᵀ·B` kernels and the
//! naïve [`reference`](mod@reference) kernels perform. The default (scalar) build is
//! therefore **bit-identical** to those paths for any tile/panel geometry;
//! `tests/gemm_equivalence.rs` pins this across odd and rectangular shapes.
//! The one historical exception is the unblocked `A·Bᵀ` kernel, whose
//! eight-lane dot-product reduction tree rounds differently; the blocked
//! `A·Bᵀ` path matches the ascending-`k` reference instead.
//!
//! With the `simd` cargo feature the microkernel uses AVX2/FMA intrinsics
//! when the CPU supports them. Fused multiply-add rounds once instead of
//! twice, so the `simd` build is *not* bit-equal to the scalar build (it is
//! slightly more accurate); it is still deterministic for a given binary,
//! and the scalar fallback (older CPUs, other architectures) remains
//! bit-equal to the unblocked kernels.

use crate::matrix::Matrix;
use std::cell::RefCell;

/// Microkernel tile height (rows of `C` kept in registers).
pub const MR: usize = 8;
/// Microkernel tile width (columns of `C` kept in registers).
pub const NR: usize = 8;
/// Rows of `A` per packed panel (panel size `MC × KC` ≈ 64 KiB, L2-resident).
const MC: usize = 64;
/// Shared depth per packed panel.
const KC: usize = 256;
/// Columns of `B` per packed panel (panel size `KC × NC` ≈ 256 KiB).
const NC: usize = 256;

/// Minimum multiply count (`m·n·k`) before packing pays for itself; below
/// this the unblocked kernels win on packing overhead. Tuned on the
/// `BENCH_*.json` trajectory machine; see PERF.md.
pub const BLOCK_CUTOFF_FLOPS: usize = 1 << 16;

/// Minimum output rows before the blocked path is competitive: packing `B`
/// costs one pass over the panel, amortised across row strips, so row-thin
/// products (measured: `8×128 · 128×128` is ~1.9× slower blocked) stay on
/// the unblocked kernels. From two strips up the packed path wins.
pub const BLOCK_MIN_ROWS: usize = 2 * MR;

/// Whether the blocked path is used for an `m×k · k×n` product.
#[inline]
pub fn should_block(m: usize, n: usize, k: usize) -> bool {
    m >= BLOCK_MIN_ROWS
        && n >= NR
        && k >= 8
        && m.saturating_mul(n).saturating_mul(k) >= BLOCK_CUTOFF_FLOPS
}

/// Reusable packing scratch for the blocked GEMM.
///
/// Holds the packed `A` and `B` panels; reusing one instance across calls
/// (as the thread-local behind `Matrix::matmul*` does) makes the blocked
/// path allocation-free in the steady state.
#[derive(Default)]
pub struct PackBuffers {
    a: Vec<f32>,
    b: Vec<f32>,
}

impl PackBuffers {
    /// Creates empty buffers; they grow to panel size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static THREAD_PACK: RefCell<PackBuffers> = RefCell::new(PackBuffers::new());
}

/// Runs `f` with the calling thread's shared [`PackBuffers`].
pub fn with_thread_pack<R>(f: impl FnOnce(&mut PackBuffers) -> R) -> R {
    THREAD_PACK.with(|p| f(&mut p.borrow_mut()))
}

/// GEMM orientation: which operand is logically transposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Orient {
    /// `C += A · B`.
    Nn,
    /// `C += Aᵀ · B` (weight gradients).
    Tn,
    /// `C += A · Bᵀ` (input gradients).
    Nt,
}

impl Orient {
    /// `(m, n, k)` of the logical product for stored operand shapes.
    fn dims(self, a: &Matrix, b: &Matrix) -> (usize, usize, usize) {
        match self {
            Orient::Nn => (a.rows(), b.cols(), a.cols()),
            Orient::Tn => (a.cols(), b.cols(), a.rows()),
            Orient::Nt => (a.rows(), b.rows(), a.cols()),
        }
    }
}

/// The single blocked/unblocked dispatch point for every orientation and
/// entry style: `packs: None` draws the thread-local buffers (and only
/// touches TLS when actually blocking), `Some` uses caller-owned scratch.
/// Keeping one site means a cutoff-policy retune cannot leave the two
/// entry styles on different policies.
#[inline]
fn dispatch(
    orient: Orient,
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    packs: Option<&mut PackBuffers>,
) {
    let (m, n, k) = orient.dims(a, b);
    if should_block(m, n, k) {
        match packs {
            Some(p) => gemm_blocked(orient, a, b, out, p),
            None => with_thread_pack(|p| gemm_blocked(orient, a, b, out, p)),
        }
    } else {
        match orient {
            Orient::Nn => unblocked::nn_acc(a, b, out),
            Orient::Tn => unblocked::tn_acc(a, b, out),
            Orient::Nt => unblocked::nt_acc(a, b, out),
        }
    }
}

/// `out += self · other` with automatic blocked/unblocked dispatch.
#[inline]
pub(crate) fn auto_nn(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    dispatch(Orient::Nn, a, b, out, None);
}

/// `out += selfᵀ · other` with automatic blocked/unblocked dispatch.
#[inline]
pub(crate) fn auto_tn(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    dispatch(Orient::Tn, a, b, out, None);
}

/// `out += self · otherᵀ` with automatic blocked/unblocked dispatch.
#[inline]
pub(crate) fn auto_nt(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    dispatch(Orient::Nt, a, b, out, None);
}

/// [`auto_nn`] with caller-owned packing scratch.
#[inline]
pub(crate) fn auto_nn_with(a: &Matrix, b: &Matrix, out: &mut Matrix, packs: &mut PackBuffers) {
    dispatch(Orient::Nn, a, b, out, Some(packs));
}

/// [`auto_tn`] with caller-owned packing scratch.
#[inline]
pub(crate) fn auto_tn_with(a: &Matrix, b: &Matrix, out: &mut Matrix, packs: &mut PackBuffers) {
    dispatch(Orient::Tn, a, b, out, Some(packs));
}

/// [`auto_nt`] with caller-owned packing scratch.
#[inline]
pub(crate) fn auto_nt_with(a: &Matrix, b: &Matrix, out: &mut Matrix, packs: &mut PackBuffers) {
    dispatch(Orient::Nt, a, b, out, Some(packs));
}

/// `out += a · b` through the packed/blocked path, regardless of size.
pub fn blocked_nn(a: &Matrix, b: &Matrix, out: &mut Matrix, packs: &mut PackBuffers) {
    gemm_blocked(Orient::Nn, a, b, out, packs);
}

/// `out += aᵀ · b` through the packed/blocked path, regardless of size.
pub fn blocked_tn(a: &Matrix, b: &Matrix, out: &mut Matrix, packs: &mut PackBuffers) {
    gemm_blocked(Orient::Tn, a, b, out, packs);
}

/// `out += a · bᵀ` through the packed/blocked path, regardless of size.
pub fn blocked_nt(a: &Matrix, b: &Matrix, out: &mut Matrix, packs: &mut PackBuffers) {
    gemm_blocked(Orient::Nt, a, b, out, packs);
}

/// The five-loop blocked driver (GotoBLAS decomposition): `NC` column
/// panels × `KC` depth panels × `MC` row panels, then the packed macro
/// kernel over `NR`/`MR` register tiles.
///
/// Depth panels are visited in ascending `k` order and the microkernel
/// folds each panel in ascending `k` from the loaded `C` value, so the
/// per-element summation order is independent of the panel geometry — this
/// is what makes the blocked path bit-equal to the unblocked fold.
fn gemm_blocked(orient: Orient, a: &Matrix, b: &Matrix, out: &mut Matrix, packs: &mut PackBuffers) {
    let (m, n, k) = orient.dims(a, b);
    debug_assert_eq!(out.shape(), (m, n), "blocked gemm output shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(orient, b, pc, kc, jc, nc, &mut packs.b);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(orient, a, ic, mc, pc, kc, &mut packs.a);
                macro_kernel(&packs.a, &packs.b, mc, nc, kc, ic, jc, out);
            }
        }
    }
}

/// Packs an `mc × kc` panel of the logical `A` operand into `MR`-tall
/// strips: `strip[k·MR + r] = A'[ic+ir+r, pc+k]`, zero-padded to full
/// strips so the microkernel never branches on the row count.
fn pack_a(
    orient: Orient,
    a: &Matrix,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    buf: &mut Vec<f32>,
) {
    let strips = mc.div_ceil(MR);
    buf.clear();
    buf.resize(strips * MR * kc, 0.0);
    match orient {
        // A' = A: rows of the panel are rows of `a`; reads stride `a.cols()`.
        Orient::Nn | Orient::Nt => {
            for (s, ir) in (0..mc).step_by(MR).enumerate() {
                let strip = &mut buf[s * MR * kc..(s + 1) * MR * kc];
                for r in 0..MR.min(mc - ir) {
                    let row = &a.row(ic + ir + r)[pc..pc + kc];
                    for (k, &v) in row.iter().enumerate() {
                        strip[k * MR + r] = v;
                    }
                }
            }
        }
        // A' = Aᵀ: `A'[i, k] = a[k, i]`, so each depth step copies a
        // contiguous run of `a`'s row `pc + k`.
        Orient::Tn => {
            for (s, ir) in (0..mc).step_by(MR).enumerate() {
                let strip = &mut buf[s * MR * kc..(s + 1) * MR * kc];
                let cols = MR.min(mc - ir);
                for k in 0..kc {
                    let src = &a.row(pc + k)[ic + ir..ic + ir + cols];
                    strip[k * MR..k * MR + cols].copy_from_slice(src);
                }
            }
        }
    }
}

/// Packs a `kc × nc` panel of the logical `B` operand into `NR`-wide
/// strips: `strip[k·NR + j] = B'[pc+k, jc+jr+j]`, zero-padded like
/// [`pack_a`].
fn pack_b(
    orient: Orient,
    b: &Matrix,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    buf: &mut Vec<f32>,
) {
    let strips = nc.div_ceil(NR);
    buf.clear();
    buf.resize(strips * NR * kc, 0.0);
    match orient {
        // B' = B: each depth step is a contiguous run of `b`'s row `pc+k`.
        Orient::Nn | Orient::Tn => {
            for k in 0..kc {
                let row = &b.row(pc + k)[jc..jc + nc];
                for (s, chunk) in row.chunks(NR).enumerate() {
                    buf[s * NR * kc + k * NR..][..chunk.len()].copy_from_slice(chunk);
                }
            }
        }
        // B' = Bᵀ: `B'[k, j] = b[j, k]`, so each panel column is a
        // contiguous run of a row of `b`, scattered with stride `NR`.
        Orient::Nt => {
            for (s, jr) in (0..nc).step_by(NR).enumerate() {
                let strip = &mut buf[s * NR * kc..(s + 1) * NR * kc];
                for j in 0..NR.min(nc - jr) {
                    let src = &b.row(jc + jr + j)[pc..pc + kc];
                    for (k, &v) in src.iter().enumerate() {
                        strip[k * NR + j] = v;
                    }
                }
            }
        }
    }
}

/// Runs the register-tiled microkernel over every `MR × NR` tile of an
/// `mc × nc` block of `C`, loading each tile's live region into the
/// accumulator, folding the packed panels, and storing it back. Tiles on
/// the right/bottom edge simply ignore the zero-padded lanes.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    pa: &[f32],
    pb: &[f32],
    mc: usize,
    nc: usize,
    kc: usize,
    ic: usize,
    jc: usize,
    out: &mut Matrix,
) {
    for (bs, jr) in (0..nc).step_by(NR).enumerate() {
        let nr = NR.min(nc - jr);
        let b_strip = &pb[bs * NR * kc..(bs + 1) * NR * kc];
        for (asx, ir) in (0..mc).step_by(MR).enumerate() {
            let mr = MR.min(mc - ir);
            let a_strip = &pa[asx * MR * kc..(asx + 1) * MR * kc];
            let mut acc = [[0.0f32; NR]; MR];
            for (r, acc_row) in acc.iter_mut().enumerate().take(mr) {
                let src = &out.row(ic + ir + r)[jc + jr..jc + jr + nr];
                acc_row[..nr].copy_from_slice(src);
            }
            kernel_8x8(kc, a_strip, b_strip, &mut acc);
            for (r, acc_row) in acc.iter().enumerate().take(mr) {
                let dst = &mut out.row_mut(ic + ir + r)[jc + jr..jc + jr + nr];
                dst.copy_from_slice(&acc_row[..nr]);
            }
        }
    }
}

/// Microkernel entry: AVX2/FMA when the `simd` feature is on and the CPU
/// supports it, scalar (autovectorised, mul+add) otherwise.
#[inline]
fn kernel_8x8(kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::available() {
        simd::kernel_8x8(kc, a, b, acc);
        return;
    }
    kernel_8x8_scalar(kc, a, b, acc);
}

/// Scalar 8×8 microkernel: 64 register accumulators, one broadcast-FMA-
/// shaped statement per (row, lane). The `chunks_exact` pair removes all
/// bounds checks; the compiler keeps `acc` in 8 vector registers and emits
/// an 8-wide mul+add per row per depth step.
#[inline]
fn kernel_8x8_scalar(kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    let a = &a[..kc * MR];
    let b = &b[..kc * NR];
    for (ac, bc) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let ar = ac[r];
            for (j, c) in acc_row.iter_mut().enumerate() {
                *c += ar * bc[j];
            }
        }
    }
}

/// Explicit AVX2/FMA microkernel, gated behind the `simd` cargo feature.
///
/// The workspace denies `unsafe_code`; this module is the single, audited
/// exception — `std::arch` intrinsics are unsafe by signature. Safety rests
/// on two invariants, both checked before the unsafe call: the CPU reports
/// `avx2`+`fma` at runtime, and the packed panels hold at least `kc` full
/// strips.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod simd {
    use super::{MR, NR};
    use std::arch::x86_64::{
        __m256, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    use std::sync::OnceLock;

    /// Runtime AVX2+FMA detection, cached after the first call.
    pub(super) fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE
            .get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }

    /// Safe wrapper: validates panel lengths, then dispatches to the
    /// target-feature kernel.
    pub(super) fn kernel_8x8(kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
        assert!(a.len() >= kc * MR, "packed A panel shorter than kc strips");
        assert!(b.len() >= kc * NR, "packed B panel shorter than kc strips");
        debug_assert!(available());
        // SAFETY: `available()` gates on runtime avx2+fma support, and the
        // asserts above guarantee every `k`-indexed load below is in
        // bounds. `acc` rows are 8 floats, matching the 256-bit stores.
        unsafe { kernel_8x8_fma(kc, a.as_ptr(), b.as_ptr(), acc) }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn kernel_8x8_fma(kc: usize, a: *const f32, b: *const f32, acc: &mut [[f32; NR]; MR]) {
        let mut c: [__m256; MR] = [
            _mm256_loadu_ps(acc[0].as_ptr()),
            _mm256_loadu_ps(acc[1].as_ptr()),
            _mm256_loadu_ps(acc[2].as_ptr()),
            _mm256_loadu_ps(acc[3].as_ptr()),
            _mm256_loadu_ps(acc[4].as_ptr()),
            _mm256_loadu_ps(acc[5].as_ptr()),
            _mm256_loadu_ps(acc[6].as_ptr()),
            _mm256_loadu_ps(acc[7].as_ptr()),
        ];
        for k in 0..kc {
            let bv = _mm256_loadu_ps(b.add(k * NR));
            for (r, cr) in c.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*a.add(k * MR + r));
                *cr = _mm256_fmadd_ps(av, bv, *cr);
            }
        }
        for (r, cr) in c.iter().enumerate() {
            _mm256_storeu_ps(acc[r].as_mut_ptr(), *cr);
        }
    }
}

/// The unblocked kernels: branch-free, eight-wide-unrolled loops shaped for
/// the autovectoriser. These remain the dispatch target below
/// [`BLOCK_CUTOFF_FLOPS`], where packing overhead would dominate — chiefly
/// the `1×D` vector-matrix shapes of single-decision inference.
pub mod unblocked {
    use crate::matrix::Matrix;

    /// `out += a · b` with the cache-friendly `ikj` loop order.
    ///
    /// The inner `j` loop is branch-free and unrolled eight-wide: the hot
    /// path's inputs (activations, gradients) are dense, so a per-element
    /// zero test costs a mispredicted branch per multiply and blocks
    /// autovectorisation.
    #[inline]
    pub fn nn_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        let n = b.cols();
        for i in 0..a.rows() {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for (k, &av) in a_row.iter().enumerate() {
                axpy_row(out_row, av, &b.as_slice()[k * n..(k + 1) * n]);
            }
        }
    }

    /// `out += aᵀ · b`.
    #[inline]
    pub fn tn_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        let n = b.cols();
        for k in 0..a.rows() {
            let a_row = a.row(k);
            let b_row = &b.as_slice()[k * n..(k + 1) * n];
            for (i, &av) in a_row.iter().enumerate() {
                axpy_row(out.row_mut(i), av, b_row);
            }
        }
    }

    /// `out += a · bᵀ`.
    ///
    /// Note: the eight-lane dot-product reduction rounds differently from
    /// the ascending-`k` fold the blocked path and [`super::reference`]
    /// use; see the module docs.
    #[inline]
    pub fn nt_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        for i in 0..a.rows() {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for (j, o) in out_row.iter_mut().enumerate() {
                *o += dot_unrolled(a_row, b.row(j));
            }
        }
    }

    /// `out[j] += a * b[j]`, unrolled eight-wide over fixed-size array
    /// chunks so the compiler emits branch-free vector code (no zero-skip
    /// test, no bounds checks inside the loop).
    #[inline]
    pub(crate) fn axpy_row(out: &mut [f32], a: f32, b: &[f32]) {
        debug_assert_eq!(out.len(), b.len());
        let (o_main, o_tail) = out.as_chunks_mut::<8>();
        let (b_main, b_tail) = b.as_chunks::<8>();
        for (oc, bc) in o_main.iter_mut().zip(b_main) {
            for j in 0..8 {
                oc[j] += a * bc[j];
            }
        }
        for (o, &bv) in o_tail.iter_mut().zip(b_tail) {
            *o += a * bv;
        }
    }

    /// Dot product with eight independent accumulator lanes (breaks the add
    /// latency chain; the compiler turns the lanes into vector FMAs).
    #[inline]
    pub(crate) fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let (a_main, a_tail) = a.as_chunks::<8>();
        let (b_main, b_tail) = b.as_chunks::<8>();
        let mut acc = [0.0f32; 8];
        for (ac, bc) in a_main.iter().zip(b_main) {
            for j in 0..8 {
                acc[j] += ac[j] * bc[j];
            }
        }
        let mut tail = 0.0;
        for (&av, &bv) in a_tail.iter().zip(b_tail) {
            tail += av * bv;
        }
        let halves = [
            acc[0] + acc[4],
            acc[1] + acc[5],
            acc[2] + acc[6],
            acc[3] + acc[7],
        ];
        (halves[0] + halves[1]) + (halves[2] + halves[3]) + tail
    }
}

/// Naïve triple-loop kernels that fold products in ascending-`k` order —
/// the numerical ground truth the blocked and unblocked (`A·B`, `Aᵀ·B`)
/// paths are pinned against, bit for bit. Test/verification use only.
pub mod reference {
    use crate::matrix::Matrix;

    /// `out += a · b`, ascending-`k` fold per element.
    pub fn nn_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut c = out[(i, j)];
                for k in 0..a.cols() {
                    c += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = c;
            }
        }
    }

    /// `out += aᵀ · b`, ascending-`k` fold per element.
    pub fn tn_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        for i in 0..a.cols() {
            for j in 0..b.cols() {
                let mut c = out[(i, j)];
                for k in 0..a.rows() {
                    c += a[(k, i)] * b[(k, j)];
                }
                out[(i, j)] = c;
            }
        }
    }

    /// `out += a · bᵀ`, ascending-`k` fold per element.
    #[inline]
    pub fn nt_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut c = out[(i, j)];
                for k in 0..a.cols() {
                    c += a[(i, k)] * b[(j, k)];
                }
                out[(i, j)] = c;
            }
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

    /// Bit-exact on the scalar build; tolerance under `simd`, where FMA
    /// legitimately rounds once per product instead of twice.
    fn assert_matches_reference(blocked: &Matrix, reference: &Matrix) {
        let diff = blocked.max_abs_diff(reference);
        #[cfg(not(feature = "simd"))]
        assert_eq!(diff, 0.0, "scalar blocked path must be bit-identical");
        #[cfg(feature = "simd")]
        assert!(diff < 1e-4, "simd blocked path drifted: {diff}");
    }

    #[test]
    fn blocked_nn_crosses_every_panel_boundary() {
        // m crosses MC, k crosses KC, n crosses NC, none a tile multiple.
        let a = dense(MC + 5, KC + 9, 1);
        let b = dense(KC + 9, NC + 3, 2);
        let mut blocked = Matrix::zeros(a.rows(), b.cols());
        let mut reference = blocked.clone();
        with_thread_pack(|p| blocked_nn(&a, &b, &mut blocked, p));
        reference::nn_acc(&a, &b, &mut reference);
        assert_matches_reference(&blocked, &reference);
    }

    #[test]
    fn blocked_accumulates_into_existing_output() {
        let a = dense(16, 24, 3);
        let b = dense(24, 16, 4);
        let mut blocked = dense(16, 16, 5);
        let mut reference = blocked.clone();
        with_thread_pack(|p| blocked_nn(&a, &b, &mut blocked, p));
        reference::nn_acc(&a, &b, &mut reference);
        assert_matches_reference(&blocked, &reference);
    }

    #[test]
    fn cutoff_keeps_vector_matrix_on_the_unblocked_path() {
        assert!(!should_block(1, 128, 128), "GEMV must stay unblocked");
        assert!(should_block(128, 128, 128), "QBN training shape must block");
    }
}
