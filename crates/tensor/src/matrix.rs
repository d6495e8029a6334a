//! The dense row-major matrix type used across the workspace.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::gemm::{self, PackBuffers};

/// A dense, row-major `f32` matrix.
///
/// Vectors are represented as `1 × n` matrices throughout the workspace, so a
/// single type covers parameters, activations and gradients.
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer of {} elements cannot back a {rows}x{cols} matrix",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    /// Panics if the rows are ragged or empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "row {i} has length {} (expected {cols})",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a `1 × n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into `dst` without allocating.
    ///
    /// # Panics
    /// Panics if `c` is out of bounds or `dst.len() != rows`.
    pub fn copy_col_into(&self, c: usize, dst: &mut [f32]) {
        assert!(
            c < self.cols,
            "column {c} out of bounds ({} cols)",
            self.cols
        );
        assert_eq!(
            dst.len(),
            self.rows,
            "destination holds {} values, need {}",
            dst.len(),
            self.rows
        );
        for (d, row) in dst.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            *d = row[c];
        }
    }

    /// Copies every element from `src` (same shape), keeping this matrix's
    /// allocation.
    pub fn copy_from(&mut self, src: &Self) {
        self.assert_same_shape(src, "copy_from");
        self.data.copy_from_slice(&src.data);
    }

    /// Returns a new matrix with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two equally shaped matrices.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        self.assert_same_shape(other, "zip_map");
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `out = f(self, other)` element-wise, writing into caller-owned
    /// scratch (no allocation).
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub fn zip_map_into(&self, other: &Self, out: &mut Self, f: impl Fn(f32, f32) -> f32) {
        self.assert_same_shape(other, "zip_map_into");
        self.assert_same_shape(out, "zip_map_into (output)");
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = f(a, b);
        }
    }

    /// `self ∘= other`, element-wise (in-place Hadamard product).
    pub fn mul_assign(&mut self, other: &Self) {
        self.assert_same_shape(other, "mul_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= *b;
        }
    }

    /// Reshapes in place to `rows × cols` filled with zeros, keeping the
    /// allocation when the capacity suffices (scratch-buffer reuse).
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// `self += other`, element-wise.
    pub fn add_assign(&mut self, other: &Self) {
        self.assert_same_shape(other, "add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// `self -= other`, element-wise.
    pub fn sub_assign(&mut self, other: &Self) {
        self.assert_same_shape(other, "sub_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= *b;
        }
    }

    /// `self += alpha * other` (AXPY), element-wise.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        self.assert_same_shape(other, "axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * *b;
        }
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a + b)
    }

    /// Returns `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a - b)
    }

    /// Returns the element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Returns `alpha * self`.
    pub fn scaled(&self, alpha: f32) -> Self {
        self.map(|x| alpha * x)
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Adds the `1 × cols` row vector `bias` to every row.
    ///
    /// # Panics
    /// Panics if `bias` is not a row vector of matching width.
    pub fn add_row_broadcast(&mut self, bias: &Self) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(
            bias.cols, self.cols,
            "bias width {} != matrix width {}",
            bias.cols, self.cols
        );
        for r in 0..self.rows {
            for (x, b) in self.row_mut(r).iter_mut().zip(&bias.data) {
                *x += *b;
            }
        }
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    #[inline]
    pub fn matmul(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.rows, other.cols);
        self.matmul_acc(other, &mut out);
        out
    }

    /// `out = self · other`, overwriting caller-owned scratch (no
    /// allocation).
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    #[inline]
    pub fn matmul_into(&self, other: &Self, out: &mut Self) {
        out.fill_zero();
        self.matmul_acc(other, out);
    }

    /// `out += self · other`.
    ///
    /// Below the blocked-GEMM cutoff this runs the branch-free, eight-wide
    /// unrolled `ikj` loop; above it the product routes through the packed,
    /// register-tiled kernel in [`crate::gemm`] (bit-identical fold, see the
    /// module docs) using the calling thread's shared [`PackBuffers`].
    #[inline]
    pub fn matmul_acc(&self, other: &Self, out: &mut Self) {
        self.assert_matmul_shapes(other, out);
        gemm::auto_nn(self, other, out);
    }

    /// [`Matrix::matmul_acc`] with caller-owned packing scratch instead of
    /// the thread-local buffers.
    pub fn matmul_acc_with(&self, other: &Self, out: &mut Self, packs: &mut PackBuffers) {
        self.assert_matmul_shapes(other, out);
        gemm::auto_nn_with(self, other, out, packs);
    }

    #[inline]
    fn assert_matmul_shapes(&self, other: &Self, out: &Self) {
        assert_eq!(
            self.cols, other.rows,
            "matmul inner dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
    }

    /// Matrix product `selfᵀ · other` (used for weight gradients).
    pub fn matmul_tn(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.cols, other.cols);
        self.matmul_tn_acc(other, &mut out);
        out
    }

    /// `out = selfᵀ · other`, overwriting caller-owned scratch.
    #[inline]
    pub fn matmul_tn_into(&self, other: &Self, out: &mut Self) {
        out.fill_zero();
        self.matmul_tn_acc(other, out);
    }

    /// `out += selfᵀ · other`; dispatches like [`Matrix::matmul_acc`].
    #[inline]
    pub fn matmul_tn_acc(&self, other: &Self, out: &mut Self) {
        self.assert_matmul_tn_shapes(other, out);
        gemm::auto_tn(self, other, out);
    }

    /// [`Matrix::matmul_tn_acc`] with caller-owned packing scratch.
    pub fn matmul_tn_acc_with(&self, other: &Self, out: &mut Self, packs: &mut PackBuffers) {
        self.assert_matmul_tn_shapes(other, out);
        gemm::auto_tn_with(self, other, out, packs);
    }

    #[inline]
    fn assert_matmul_tn_shapes(&self, other: &Self, out: &Self) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn dimension mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.cols, other.cols),
            "matmul_tn output shape mismatch"
        );
    }

    /// Matrix product `self · otherᵀ` (used for input gradients).
    pub fn matmul_nt(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.rows, other.rows);
        self.matmul_nt_acc(other, &mut out);
        out
    }

    /// `out = self · otherᵀ`, overwriting caller-owned scratch.
    #[inline]
    pub fn matmul_nt_into(&self, other: &Self, out: &mut Self) {
        out.fill_zero();
        self.matmul_nt_acc(other, out);
    }

    /// `out += self · otherᵀ`; dispatches like [`Matrix::matmul_acc`].
    #[inline]
    pub fn matmul_nt_acc(&self, other: &Self, out: &mut Self) {
        self.assert_matmul_nt_shapes(other, out);
        gemm::auto_nt(self, other, out);
    }

    /// [`Matrix::matmul_nt_acc`] with caller-owned packing scratch.
    pub fn matmul_nt_acc_with(&self, other: &Self, out: &mut Self, packs: &mut PackBuffers) {
        self.assert_matmul_nt_shapes(other, out);
        gemm::auto_nt_with(self, other, out, packs);
    }

    #[inline]
    fn assert_matmul_nt_shapes(&self, other: &Self, out: &Self) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt dimension mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "matmul_nt output shape mismatch"
        );
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// `out = selfᵀ`, overwriting caller-owned scratch.
    ///
    /// Walks 32×32 blocks so both the read and the write stream stay inside
    /// the cache; a naive row-major read / column-major write misses on
    /// every store once a column of the output no longer fits in L1.
    pub fn transpose_into(&self, out: &mut Self) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose output shape mismatch"
        );
        const BLOCK: usize = 32;
        for ib in (0..self.rows).step_by(BLOCK) {
            let i_end = (ib + BLOCK).min(self.rows);
            for jb in (0..self.cols).step_by(BLOCK) {
                let j_end = (jb + BLOCK).min(self.cols);
                for i in ib..i_end {
                    let row = &self.data[i * self.cols..(i + 1) * self.cols];
                    for (j, &v) in row[jb..j_end].iter().enumerate() {
                        out.data[(jb + j) * self.rows + i] = v;
                    }
                }
            }
        }
    }

    /// Dot product of two equally shaped matrices viewed as flat vectors.
    pub fn dot(&self, other: &Self) -> f32 {
        self.assert_same_shape(other, "dot");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Index of the maximum element of row `r` (first on ties).
    pub fn argmax_row(&self, r: usize) -> usize {
        crate::stats::argmax(self.row(r))
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Maximum absolute difference against another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        self.assert_same_shape(other, "max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    #[inline]
    fn assert_same_shape(&self, other: &Self, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(12) {
                write!(f, "{:>9.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(12) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 12 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[3.0, 4.0, -1.0]]);
        assert_eq!(a.matmul(&Matrix::eye(3)), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let b = Matrix::from_rows(&[&[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_panics_on_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_every_row() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&Matrix::row_vector(&[1.0, -1.0]));
        for r in 0..3 {
            assert_eq!(m.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn axpy_accumulates_scaled_values() {
        let mut a = Matrix::filled(1, 3, 1.0);
        let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        a.axpy(0.5, &b);
        assert_eq!(a.row(0), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn hadamard_multiplies_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 0.5], &[1.0, -1.0]]);
        assert_eq!(
            a.hadamard(&b),
            Matrix::from_rows(&[&[2.0, 1.0], &[3.0, -4.0]])
        );
    }

    #[test]
    fn reductions_and_norms() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(m.sum(), 7.0);
        assert_eq!(m.mean(), 3.5);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_row_breaks_ties_toward_first() {
        let m = Matrix::from_rows(&[&[1.0, 5.0, 5.0, 0.0]]);
        assert_eq!(m.argmax_row(0), 1);
    }

    #[test]
    fn copy_col_into_extracts_column() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut buf = [0.0; 3];
        m.copy_col_into(1, &mut buf);
        assert_eq!(buf, [2.0, 4.0, 6.0]);
    }

    #[test]
    fn transpose_into_handles_non_square_and_block_edges() {
        // 33×65 exercises partial blocks on both axes of the 32×32 tiling.
        let m = Matrix::from_fn(33, 65, |i, j| (i * 1000 + j) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (65, 33));
        for i in 0..33 {
            for j in 0..65 {
                assert_eq!(t[(j, i)], m[(i, j)]);
            }
        }
    }

    #[test]
    fn matmul_into_variants_match_allocating_paths() {
        let a = Matrix::from_fn(5, 7, |i, j| (i as f32 - j as f32) * 0.3);
        let b = Matrix::from_fn(7, 4, |i, j| (i * j) as f32 * 0.1 - 1.0);
        let bt = b.transpose();
        let mut out = Matrix::filled(5, 4, f32::NAN); // _into must overwrite
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        let c = Matrix::from_fn(5, 4, |i, j| (i + j) as f32);
        let mut out_tn = Matrix::filled(7, 4, f32::NAN);
        a.matmul_tn_into(&c, &mut out_tn);
        assert_eq!(out_tn, a.matmul_tn(&c));

        let mut out_nt = Matrix::filled(5, 4, f32::NAN);
        a.matmul_nt_into(&bt, &mut out_nt);
        assert_eq!(out_nt, a.matmul_nt(&bt));
    }

    #[test]
    fn has_non_finite_detects_nan() {
        let mut m = Matrix::zeros(1, 2);
        assert!(!m.has_non_finite());
        m[(0, 1)] = f32::NAN;
        assert!(m.has_non_finite());
    }

    #[test]
    fn from_fn_evaluates_positionally() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f32);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }
}
