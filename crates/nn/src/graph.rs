//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every forward operation as a node on a tape; calling
//! [`Graph::backward`] on a scalar node walks the tape in reverse and
//! accumulates gradients. Parameters are bound once per graph (repeated use —
//! e.g. the same GRU weights at every timestep of an episode — accumulates
//! into a single gradient), and [`Graph::accumulate_param_grads`] flushes the
//! result into the [`ParamStore`].

use std::collections::HashMap;

use lahd_tensor::{softmax_row, Matrix};

use crate::params::{ParamId, ParamStore};

/// Handle to a node on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

/// Recorded operation; inputs always precede outputs on the tape.
enum Op {
    /// Constant or parameter leaf.
    Leaf,
    /// `A · B`.
    MatMul(Var, Var),
    /// `A + B` (same shape).
    Add(Var, Var),
    /// `A - B` (same shape).
    Sub(Var, Var),
    /// Element-wise `A ∘ B`.
    Mul(Var, Var),
    /// `k·X + c` applied element-wise (only `k` matters for the gradient).
    Affine(Var, f32),
    /// `X + 𝟙·b`: adds a `1 × cols` bias to every row of `X`.
    AddBias(Var, Var),
    /// Logistic sigmoid.
    Sigmoid(Var),
    /// Hyperbolic tangent.
    Tanh(Var),
    /// Rectified linear unit.
    Relu(Var),
    /// Koul et al.'s ternary activation `1.5·tanh(x) + 0.5·tanh(-3x)`.
    TernaryTanh(Var),
    /// Rounds to the nearest of {-1, 0, 1}; gradient is passed straight
    /// through (identity), as in quantized bottleneck networks.
    QuantizeSte(Var),
    /// Concatenates two matrices with equal row counts along columns.
    ConcatCols(Var, Var),
    /// Scalar `-w·log softmax(logits)[target]`; `logits` must be `1 × n`.
    CrossEntropyLogits {
        logits: Var,
        target: usize,
        weight: f32,
    },
    /// Scalar entropy `H(softmax(logits))`; `logits` must be `1 × n`.
    EntropyFromLogits { logits: Var },
    /// Scalar `(x₀ - target)²`; input must be `1 × 1`.
    SquaredError { input: Var, target: f32 },
    /// Scalar mean of element-wise squared differences against a constant
    /// target of the same shape.
    MseAgainst { pred: Var, target: Matrix },
    /// Scalar sum of all elements.
    SumAll(Var),
}

/// The autodiff tape.
#[derive(Default)]
pub struct Graph {
    ops: Vec<Op>,
    values: Vec<Matrix>,
    grads: Vec<Option<Matrix>>,
    /// `(store address, id, node)` for every bound parameter. Parameters
    /// from *different* stores (e.g. a policy net plus two QBNs trained
    /// jointly) are distinguished by the store's address, so the same
    /// numeric `ParamId` in two stores cannot collide. The store must not
    /// move between [`Graph::param`] and [`Graph::accumulate_param_grads`].
    bound_params: Vec<(usize, ParamId, Var)>,
    param_cache: HashMap<(usize, ParamId), Var>,
    /// Recycled matrix buffers, bucketed by length. [`Graph::reset`] drains
    /// every value and gradient into these free lists, and the `alloc_*`
    /// helpers draw exact-size buffers back out, so a tape that is reset
    /// between updates reaches a steady state where no node value or
    /// gradient matrix is heap-allocated. (Bucketing matters: a single
    /// mixed-size list hands large needs small buffers, which turns every
    /// draw into a realloc and scatters the tape across cold memory.) The
    /// remaining per-step allocations are the small `Vec`s inside
    /// `softmax_row`/`log_softmax_row` in the scalar loss ops.
    free: HashMap<usize, Vec<Vec<f32>>>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Clears the tape for the next update while keeping every allocation:
    /// the node/value/grad arenas retain their capacity and all matrix
    /// buffers move to the internal free list for reuse.
    ///
    /// A reused tape is numerically indistinguishable from a fresh one —
    /// the recycled buffers are fully overwritten before use.
    pub fn reset(&mut self) {
        self.ops.clear();
        for m in self.values.drain(..) {
            let buf = m.into_vec();
            self.free.entry(buf.len()).or_default().push(buf);
        }
        for g in self.grads.drain(..) {
            if let Some(m) = g {
                let buf = m.into_vec();
                self.free.entry(buf.len()).or_default().push(buf);
            }
        }
        self.bound_params.clear();
        self.param_cache.clear();
    }

    /// A zeroed `rows × cols` matrix, recycled from the free list when
    /// possible. Use when the caller accumulates into the result.
    fn alloc_matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        let n = rows * cols;
        match self.free.get_mut(&n).and_then(Vec::pop) {
            Some(mut buf) => {
                buf.fill(0.0);
                Matrix::from_vec(rows, cols, buf)
            }
            None => Matrix::zeros(rows, cols),
        }
    }

    /// A recycled `rows × cols` matrix with **unspecified contents** (stale
    /// data from a previous node). Only for callers that overwrite every
    /// element before the value is observable; skips the zero-fill pass
    /// `alloc_matrix` pays.
    fn alloc_matrix_full(&mut self, rows: usize, cols: usize) -> Matrix {
        let n = rows * cols;
        match self.free.get_mut(&n).and_then(Vec::pop) {
            Some(buf) => Matrix::from_vec(rows, cols, buf),
            None => Matrix::zeros(rows, cols),
        }
    }

    /// A recycled `1 × 1` scalar node value.
    fn alloc_scalar(&mut self, value: f32) -> Matrix {
        let mut m = self.alloc_matrix_full(1, 1);
        m.as_mut_slice()[0] = value;
        m
    }

    /// A recycled matrix holding a copy of node `v`'s value.
    fn alloc_copy_of(&mut self, v: Var) -> Matrix {
        let (rows, cols) = self.values[v.0].shape();
        let mut m = self.alloc_matrix_full(rows, cols);
        m.copy_from(&self.values[v.0]);
        m
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        self.ops.push(op);
        self.values.push(value);
        self.grads.push(None);
        Var(self.ops.len() - 1)
    }

    /// Adds a constant leaf (gradient is tracked but never read back).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(Op::Leaf, value)
    }

    /// Binds a parameter as a leaf. Repeated calls with the same store and
    /// id return the same node, so a weight used at every timestep of an
    /// episode is copied onto the tape **once** and its gradients from
    /// every use accumulate together. On a [`Graph::reset`]-reused tape
    /// even that one copy lands in a recycled buffer.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let key = (store_addr(store), id);
        if let Some(&v) = self.param_cache.get(&key) {
            return v;
        }
        let src = store.value(id);
        let mut value = self.alloc_matrix_full(src.rows(), src.cols());
        value.copy_from(src);
        let v = self.push(Op::Leaf, value);
        self.param_cache.insert(key, v);
        self.bound_params.push((key.0, id, v));
        v
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.values[v.0]
    }

    /// Scalar value of a `1 × 1` node.
    ///
    /// # Panics
    /// Panics if the node is not `1 × 1`.
    pub fn scalar(&self, v: Var) -> f32 {
        let m = &self.values[v.0];
        assert_eq!(
            m.shape(),
            (1, 1),
            "scalar() called on a {:?} node",
            m.shape()
        );
        m[(0, 0)]
    }

    /// Gradient of a node after [`Graph::backward`]; zero if the node did not
    /// influence the loss.
    pub fn grad(&self, v: Var) -> Matrix {
        match &self.grads[v.0] {
            Some(g) => g.clone(),
            None => Matrix::zeros(self.values[v.0].rows(), self.values[v.0].cols()),
        }
    }

    // ----- forward ops ------------------------------------------------

    /// `A · B`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let rows = self.values[a.0].rows();
        let cols = self.values[b.0].cols();
        let mut value = self.alloc_matrix(rows, cols);
        self.values[a.0].matmul_acc(&self.values[b.0], &mut value);
        self.push(Op::MatMul(a, b), value)
    }

    /// `A + B` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.alloc_copy_of(a);
        value.add_assign(&self.values[b.0]);
        self.push(Op::Add(a, b), value)
    }

    /// `A - B` (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.alloc_copy_of(a);
        value.sub_assign(&self.values[b.0]);
        self.push(Op::Sub(a, b), value)
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.alloc_copy_of(a);
        value.mul_assign(&self.values[b.0]);
        self.push(Op::Mul(a, b), value)
    }

    /// `k·X + c`, element-wise.
    pub fn affine(&mut self, x: Var, k: f32, c: f32) -> Var {
        let mut value = self.alloc_copy_of(x);
        value.map_inplace(|v| k * v + c);
        self.push(Op::Affine(x, k), value)
    }

    /// `k·X`.
    pub fn scale(&mut self, x: Var, k: f32) -> Var {
        self.affine(x, k, 0.0)
    }

    /// `1 - X`, the GRU update-gate complement.
    pub fn one_minus(&mut self, x: Var) -> Var {
        self.affine(x, -1.0, 1.0)
    }

    /// Adds a `1 × cols` bias row-broadcast to `x`.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let mut value = self.alloc_copy_of(x);
        value.add_row_broadcast(&self.values[bias.0]);
        self.push(Op::AddBias(x, bias), value)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let mut value = self.alloc_copy_of(x);
        value.map_inplace(|v| 1.0 / (1.0 + (-v).exp()));
        self.push(Op::Sigmoid(x), value)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        let mut value = self.alloc_copy_of(x);
        value.map_inplace(f32::tanh);
        self.push(Op::Tanh(x), value)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        let mut value = self.alloc_copy_of(x);
        value.map_inplace(|v| v.max(0.0));
        self.push(Op::Relu(x), value)
    }

    /// Ternary tanh `1.5·tanh(x) + 0.5·tanh(-3x)` (saturates near {-1,0,1}).
    pub fn ternary_tanh(&mut self, x: Var) -> Var {
        let mut value = self.alloc_copy_of(x);
        value.map_inplace(ternary_tanh);
        self.push(Op::TernaryTanh(x), value)
    }

    /// Rounds to the nearest of {-1, 0, 1} with a straight-through gradient.
    pub fn quantize_ste(&mut self, x: Var) -> Var {
        let mut value = self.alloc_copy_of(x);
        value.map_inplace(quantize3);
        self.push(Op::QuantizeSte(x), value)
    }

    /// Concatenates along columns (row counts must match).
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (ma, mb) = (&self.values[a.0], &self.values[b.0]);
        assert_eq!(ma.rows(), mb.rows(), "concat_cols row mismatch");
        let rows = ma.rows();
        let (ca, cb) = (ma.cols(), mb.cols());
        let mut out = self.alloc_matrix_full(rows, ca + cb);
        let (ma, mb) = (&self.values[a.0], &self.values[b.0]);
        for r in 0..rows {
            out.row_mut(r)[..ca].copy_from_slice(ma.row(r));
            out.row_mut(r)[ca..].copy_from_slice(mb.row(r));
        }
        self.push(Op::ConcatCols(a, b), out)
    }

    /// Negative log-likelihood `-w·log softmax(logits)[target]` as a scalar.
    pub fn cross_entropy_logits(&mut self, logits: Var, target: usize, weight: f32) -> Var {
        let m = &self.values[logits.0];
        assert_eq!(m.rows(), 1, "cross_entropy_logits expects a 1×n logits row");
        assert!(
            target < m.cols(),
            "target {target} out of range for {} actions",
            m.cols()
        );
        let log_probs = lahd_tensor::log_softmax_row(m.row(0));
        let value = self.alloc_scalar(-weight * log_probs[target]);
        self.push(
            Op::CrossEntropyLogits {
                logits,
                target,
                weight,
            },
            value,
        )
    }

    /// Entropy of `softmax(logits)` as a scalar.
    pub fn entropy_from_logits(&mut self, logits: Var) -> Var {
        let m = &self.values[logits.0];
        assert_eq!(m.rows(), 1, "entropy_from_logits expects a 1×n logits row");
        let p = softmax_row(m.row(0));
        let h: f32 = -p
            .iter()
            .filter(|&&x| x > 0.0)
            .map(|&x| x * x.ln())
            .sum::<f32>();
        let value = self.alloc_scalar(h);
        self.push(Op::EntropyFromLogits { logits }, value)
    }

    /// `(x₀ - target)²` for a `1 × 1` input.
    pub fn squared_error(&mut self, input: Var, target: f32) -> Var {
        let m = &self.values[input.0];
        assert_eq!(m.shape(), (1, 1), "squared_error expects a scalar input");
        let d = m[(0, 0)] - target;
        let value = self.alloc_scalar(d * d);
        self.push(Op::SquaredError { input, target }, value)
    }

    /// Mean squared error of `pred` against a constant `target`.
    pub fn mse_against(&mut self, pred: Var, target: Matrix) -> Var {
        let m = &self.values[pred.0];
        assert_eq!(m.shape(), target.shape(), "mse_against shape mismatch");
        let n = m.len() as f32;
        let sum: f32 = m
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum();
        let value = self.alloc_scalar(sum / n);
        self.push(Op::MseAgainst { pred, target }, value)
    }

    /// Sum of all elements as a scalar.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let value = self.alloc_scalar(self.values[x.0].sum());
        self.push(Op::SumAll(x), value)
    }

    // ----- backward ---------------------------------------------------

    /// Runs reverse-mode differentiation from the scalar node `root`.
    ///
    /// # Panics
    /// Panics if `root` is not `1 × 1`.
    pub fn backward(&mut self, root: Var) {
        assert_eq!(
            self.values[root.0].shape(),
            (1, 1),
            "backward() must start from a scalar loss"
        );
        self.grads[root.0] = Some(Matrix::row_vector(&[1.0]));

        for i in (0..=root.0).rev() {
            let Some(gy) = self.grads[i].take() else {
                continue;
            };
            match &self.ops[i] {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    let mut da = self.alloc_matrix(gy.rows(), self.values[b.0].rows());
                    gy.matmul_nt_acc(&self.values[b.0], &mut da);
                    let mut db = self.alloc_matrix(self.values[a.0].cols(), gy.cols());
                    self.values[a.0].matmul_tn_acc(&gy, &mut db);
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    self.accumulate_ref(a, &gy);
                    self.accumulate_ref(b, &gy);
                }
                Op::Sub(a, b) => {
                    let (a, b) = (*a, *b);
                    self.accumulate_ref(a, &gy);
                    self.accumulate_scaled(b, &gy, -1.0);
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    let mut da = self.alloc_matrix_full(gy.rows(), gy.cols());
                    gy.zip_map_into(&self.values[b.0], &mut da, |g, v| g * v);
                    let mut db = self.alloc_matrix_full(gy.rows(), gy.cols());
                    gy.zip_map_into(&self.values[a.0], &mut db, |g, v| g * v);
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::Affine(x, k) => {
                    let (x, k) = (*x, *k);
                    self.accumulate_scaled(x, &gy, k);
                }
                Op::AddBias(x, bias) => {
                    let (x, bias) = (*x, *bias);
                    // Bias gradient is the column-sum of the upstream grad.
                    let mut db = self.alloc_matrix(1, gy.cols());
                    for r in 0..gy.rows() {
                        for (d, &g) in db.row_mut(0).iter_mut().zip(gy.row(r)) {
                            *d += g;
                        }
                    }
                    self.accumulate_ref(x, &gy);
                    self.accumulate(bias, db);
                }
                Op::Sigmoid(x) => {
                    let x = *x;
                    let mut dx = self.alloc_matrix_full(gy.rows(), gy.cols());
                    gy.zip_map_into(&self.values[i], &mut dx, |g, s| g * s * (1.0 - s));
                    self.accumulate(x, dx);
                }
                Op::Tanh(x) => {
                    let x = *x;
                    let mut dx = self.alloc_matrix_full(gy.rows(), gy.cols());
                    gy.zip_map_into(&self.values[i], &mut dx, |g, t| g * (1.0 - t * t));
                    self.accumulate(x, dx);
                }
                Op::Relu(x) => {
                    let x = *x;
                    let mut dx = self.alloc_matrix_full(gy.rows(), gy.cols());
                    gy.zip_map_into(
                        &self.values[x.0],
                        &mut dx,
                        |g, v| {
                            if v > 0.0 {
                                g
                            } else {
                                0.0
                            }
                        },
                    );
                    self.accumulate(x, dx);
                }
                Op::TernaryTanh(x) => {
                    let x = *x;
                    let mut dx = self.alloc_matrix_full(gy.rows(), gy.cols());
                    gy.zip_map_into(&self.values[x.0], &mut dx, |g, v| {
                        let t1 = v.tanh();
                        let t3 = (3.0 * v).tanh();
                        g * 1.5 * (t3 * t3 - t1 * t1)
                    });
                    self.accumulate(x, dx);
                }
                Op::QuantizeSte(x) => {
                    let x = *x;
                    self.accumulate_ref(x, &gy); // straight-through estimator
                }
                Op::ConcatCols(a, b) => {
                    let (a, b) = (*a, *b);
                    let ca = self.values[a.0].cols();
                    let rows = gy.rows();
                    let mut da = self.alloc_matrix_full(rows, ca);
                    let mut db = self.alloc_matrix_full(rows, gy.cols() - ca);
                    for r in 0..rows {
                        da.row_mut(r).copy_from_slice(&gy.row(r)[..ca]);
                        db.row_mut(r).copy_from_slice(&gy.row(r)[ca..]);
                    }
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::CrossEntropyLogits {
                    logits,
                    target,
                    weight,
                } => {
                    let (logits, target, weight) = (*logits, *target, *weight);
                    let g = gy[(0, 0)];
                    let p = softmax_row(self.values[logits.0].row(0));
                    let mut dl = self.alloc_matrix_full(1, p.len());
                    dl.row_mut(0).copy_from_slice(&p);
                    dl.row_mut(0)[target] -= 1.0;
                    dl.scale(g * weight);
                    self.accumulate(logits, dl);
                }
                Op::EntropyFromLogits { logits } => {
                    let logits = *logits;
                    let g = gy[(0, 0)];
                    let p = softmax_row(self.values[logits.0].row(0));
                    let h: f32 = -p
                        .iter()
                        .filter(|&&x| x > 0.0)
                        .map(|&x| x * x.ln())
                        .sum::<f32>();
                    let mut dl = self.alloc_matrix_full(1, p.len());
                    for (d, &pi) in dl.row_mut(0).iter_mut().zip(&p) {
                        *d = if pi > 0.0 {
                            -g * pi * (pi.ln() + h)
                        } else {
                            0.0
                        };
                    }
                    self.accumulate(logits, dl);
                }
                Op::SquaredError { input, target } => {
                    let (input, target) = (*input, *target);
                    let g = gy[(0, 0)];
                    let d = self.values[input.0][(0, 0)] - target;
                    let dx = self.alloc_scalar(2.0 * g * d);
                    self.accumulate(input, dx);
                }
                Op::MseAgainst { pred, target } => {
                    let pred = *pred;
                    let g = gy[(0, 0)];
                    let n = target.len() as f32;
                    let dp = self.values[pred.0].zip_map(target, |a, b| 2.0 * g * (a - b) / n);
                    self.accumulate(pred, dp);
                }
                Op::SumAll(x) => {
                    let x = *x;
                    let g = gy[(0, 0)];
                    let shape = self.values[x.0].shape();
                    let mut dx = self.alloc_matrix_full(shape.0, shape.1);
                    dx.as_mut_slice().fill(g);
                    self.accumulate(x, dx);
                }
            }
            self.grads[i] = Some(gy);
        }
    }

    /// Accumulates an owned delta; its buffer is recycled when the slot is
    /// already occupied.
    fn accumulate(&mut self, v: Var, delta: Matrix) {
        if let Some(g) = &mut self.grads[v.0] {
            g.add_assign(&delta);
            let buf = delta.into_vec();
            self.free.entry(buf.len()).or_default().push(buf);
        } else {
            self.grads[v.0] = Some(delta);
        }
    }

    /// Accumulates a borrowed delta without cloning it: fan-out nodes (Add,
    /// AddBias, straight-through) add the upstream gradient into each input
    /// slot directly, copying only when a slot is still empty — and that
    /// copy lands in a recycled buffer.
    fn accumulate_ref(&mut self, v: Var, delta: &Matrix) {
        if let Some(g) = &mut self.grads[v.0] {
            g.add_assign(delta);
        } else {
            let mut m = self.alloc_matrix_full(delta.rows(), delta.cols());
            m.copy_from(delta);
            self.grads[v.0] = Some(m);
        }
    }

    /// Accumulates `k · delta` without materialising the scaled matrix.
    fn accumulate_scaled(&mut self, v: Var, delta: &Matrix, k: f32) {
        if let Some(g) = &mut self.grads[v.0] {
            g.axpy(k, delta);
        } else {
            let mut m = self.alloc_matrix(delta.rows(), delta.cols());
            m.axpy(k, delta);
            self.grads[v.0] = Some(m);
        }
    }

    /// Copies the gradient of every parameter bound *from this store* into
    /// `out` as `(id, grad)` pairs, in binding order, after
    /// [`Graph::backward`]. Parameters that did not influence the loss
    /// export a zero gradient.
    ///
    /// This is the sharded-training export path: worker threads replay
    /// independent episodes on private tapes, export their per-episode
    /// gradients with this method, and the trainer merges them in a fixed
    /// order with [`ParamStore::add_grads`] — giving bit-identical results
    /// regardless of worker count. `out`'s allocations are reused when
    /// shapes match (the steady state for a model replayed every update),
    /// so the export is allocation-free after warm-up.
    pub fn export_param_grads_into(&self, store: &ParamStore, out: &mut Vec<(ParamId, Matrix)>) {
        let addr = store_addr(store);
        let mut filled = 0;
        for &(a, id, var) in &self.bound_params {
            if a != addr {
                continue;
            }
            let (rows, cols) = self.values[var.0].shape();
            if filled == out.len() {
                out.push((id, Matrix::zeros(rows, cols)));
            }
            let slot = &mut out[filled];
            slot.0 = id;
            if slot.1.shape() != (rows, cols) {
                slot.1 = Matrix::zeros(rows, cols);
            }
            match &self.grads[var.0] {
                Some(g) => slot.1.copy_from(g),
                None => slot.1.fill_zero(),
            }
            filled += 1;
        }
        out.truncate(filled);
    }

    /// Flushes the gradients of every parameter bound *from this store*
    /// into it; returns the number of parameters flushed. Call once per
    /// participating store after [`Graph::backward`].
    pub fn accumulate_param_grads(&self, store: &mut ParamStore) -> usize {
        let addr = store_addr(store);
        let mut flushed = 0;
        for &(a, id, var) in &self.bound_params {
            if a != addr {
                continue;
            }
            flushed += 1;
            if let Some(g) = &self.grads[var.0] {
                store.add_grad(id, g);
            }
        }
        flushed
    }
}

#[inline]
fn store_addr(store: &ParamStore) -> usize {
    store as *const ParamStore as usize
}

/// Ternary tanh used by QBN encoders: saturates near {-1, 0, 1}.
pub fn ternary_tanh(x: f32) -> f32 {
    1.5 * x.tanh() + 0.5 * (-3.0 * x).tanh()
}

/// Rounds to the nearest of {-1, 0, 1} (thresholds at ±0.5).
pub fn quantize3(x: f32) -> f32 {
    if x > 0.5 {
        1.0
    } else if x < -0.5 {
        -1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahd_tensor::{seeded_rng, Initializer};

    fn store_with(name: &str, value: Matrix) -> (ParamStore, ParamId) {
        let mut store = ParamStore::new();
        let id = store.alloc_with_value(name, value);
        (store, id)
    }

    #[test]
    fn matmul_gradients_match_hand_derivation() {
        // loss = sum(A·B); dA = 1·Bᵀ, dB = Aᵀ·1.
        let (mut store, wa) = store_with("a", Matrix::from_rows(&[&[1.0, 2.0]]));
        let wb = store.alloc_with_value("b", Matrix::from_rows(&[&[3.0], &[4.0]]));
        let mut g = Graph::new();
        let a = g.param(&store, wa);
        let b = g.param(&store, wb);
        let y = g.matmul(a, b);
        let loss = g.sum_all(y);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        assert_eq!(store.grad(wa).row(0), &[3.0, 4.0]);
        let mut col = [0.0; 2];
        store.grad(wb).copy_col_into(0, &mut col);
        assert_eq!(col, [1.0, 2.0]);
    }

    #[test]
    fn sigmoid_gradient_is_s_times_one_minus_s() {
        let (mut store, w) = store_with("w", Matrix::row_vector(&[0.0]));
        let mut g = Graph::new();
        let x = g.param(&store, w);
        let s = g.sigmoid(x);
        let loss = g.sum_all(s);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        assert!((store.grad(w)[(0, 0)] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn parameter_reuse_accumulates_gradients() {
        // loss = sum(x + x) → dx = 2.
        let (mut store, w) = store_with("w", Matrix::row_vector(&[5.0]));
        let mut g = Graph::new();
        let x = g.param(&store, w);
        let y = g.add(x, x);
        let loss = g.sum_all(y);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        assert_eq!(store.grad(w)[(0, 0)], 2.0);
    }

    #[test]
    fn cross_entropy_gradient_is_p_minus_onehot() {
        let (mut store, w) = store_with("logits", Matrix::row_vector(&[0.0, 0.0, 0.0]));
        let mut g = Graph::new();
        let l = g.param(&store, w);
        let loss = g.cross_entropy_logits(l, 1, 1.0);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        let grad = store.grad(w);
        let third = 1.0 / 3.0;
        assert!((grad[(0, 0)] - third).abs() < 1e-5);
        assert!((grad[(0, 1)] - (third - 1.0)).abs() < 1e-5);
        assert!((grad[(0, 2)] - third).abs() < 1e-5);
    }

    #[test]
    fn entropy_of_uniform_logits_is_maximal_with_zero_gradient() {
        let (mut store, w) = store_with("logits", Matrix::row_vector(&[0.3, 0.3, 0.3]));
        let mut g = Graph::new();
        let l = g.param(&store, w);
        let h = g.entropy_from_logits(l);
        assert!((g.scalar(h) - 3.0_f32.ln()).abs() < 1e-5);
        g.backward(h);
        g.accumulate_param_grads(&mut store);
        // Uniform distribution sits at the entropy maximum → gradient ≈ 0.
        assert!(store.grad(w).frobenius_norm() < 1e-5);
    }

    #[test]
    fn quantize_ste_rounds_but_passes_gradient() {
        let (mut store, w) = store_with("w", Matrix::row_vector(&[0.9, -0.2, -0.8]));
        let mut g = Graph::new();
        let x = g.param(&store, w);
        let q = g.quantize_ste(x);
        assert_eq!(g.value(q).row(0), &[1.0, 0.0, -1.0]);
        let loss = g.sum_all(q);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        assert_eq!(store.grad(w).row(0), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn concat_cols_splits_gradient() {
        let (mut store, wa) = store_with("a", Matrix::row_vector(&[1.0, 2.0]));
        let wb = store.alloc_with_value("b", Matrix::row_vector(&[3.0]));
        let mut g = Graph::new();
        let a = g.param(&store, wa);
        let b = g.param(&store, wb);
        let c = g.concat_cols(a, b);
        assert_eq!(g.value(c).row(0), &[1.0, 2.0, 3.0]);
        let scaled = g.scale(c, 2.0);
        let loss = g.sum_all(scaled);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        assert_eq!(store.grad(wa).row(0), &[2.0, 2.0]);
        assert_eq!(store.grad(wb).row(0), &[2.0]);
    }

    #[test]
    fn mse_against_gradient_points_toward_target() {
        let (mut store, w) = store_with("w", Matrix::row_vector(&[1.0, 3.0]));
        let mut g = Graph::new();
        let x = g.param(&store, w);
        let loss = g.mse_against(x, Matrix::row_vector(&[0.0, 0.0]));
        assert!((g.scalar(loss) - 5.0).abs() < 1e-6);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        // d/dx mean((x-0)²) = 2x/n = x for n=2.
        assert_eq!(store.grad(w).row(0), &[1.0, 3.0]);
    }

    #[test]
    fn exported_grads_match_direct_accumulation() {
        let build = |store: &ParamStore, w1: ParamId, w2: ParamId| {
            let mut g = Graph::new();
            let x = g.constant(Matrix::filled(1, 2, 0.5));
            let p1 = g.param(store, w1);
            let p2 = g.param(store, w2);
            let h = g.matmul(x, p1);
            let h = g.tanh(h);
            let y = g.matmul(h, p2);
            let loss = g.squared_error(y, 1.0);
            g.backward(loss);
            g
        };
        let mut rng = seeded_rng(7);
        let mut store = ParamStore::new();
        let w1 = store.alloc("w1", 2, 3, Initializer::XavierUniform, &mut rng);
        let w2 = store.alloc("w2", 3, 1, Initializer::XavierUniform, &mut rng);

        let g = build(&store, w1, w2);

        // Path 1: export, then merge into a clone — and a second export
        // must reuse the warm buffers without changing anything.
        let mut exported = Vec::new();
        g.export_param_grads_into(&store, &mut exported);
        assert_eq!(exported.len(), 2, "both bound parameters export");
        g.export_param_grads_into(&store, &mut exported);
        let mut merged = store.clone();
        merged.add_grads(&exported);

        // Path 2: flush straight into the store the graph was bound from.
        g.accumulate_param_grads(&mut store);

        for id in [w1, w2] {
            assert_eq!(
                store.grad(id),
                merged.grad(id),
                "param {:?}",
                store.name(id)
            );
        }
    }

    #[test]
    fn backward_requires_scalar_root() {
        let mut g = Graph::new();
        let x = g.constant(Matrix::zeros(1, 2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g2 = Graph::new();
            let y = g2.constant(Matrix::zeros(1, 2));
            g2.backward(y);
            let _ = x;
        }));
        assert!(result.is_err());
    }

    #[test]
    fn parameters_from_two_stores_do_not_collide() {
        // Both stores have a ParamId(0); the graph must keep them apart.
        let mut store_a = ParamStore::new();
        let mut store_b = ParamStore::new();
        let wa = store_a.alloc_with_value("a", Matrix::row_vector(&[2.0]));
        let wb = store_b.alloc_with_value("b", Matrix::row_vector(&[5.0]));
        let mut g = Graph::new();
        let a = g.param(&store_a, wa);
        let b = g.param(&store_b, wb);
        let prod = g.mul(a, b); // d/da = b = 5, d/db = a = 2
        let loss = g.sum_all(prod);
        g.backward(loss);
        assert_eq!(g.accumulate_param_grads(&mut store_a), 1);
        assert_eq!(g.accumulate_param_grads(&mut store_b), 1);
        assert_eq!(store_a.grad(wa)[(0, 0)], 5.0);
        assert_eq!(store_b.grad(wb)[(0, 0)], 2.0);
    }

    #[test]
    fn xavier_params_flow_through_deep_chain() {
        let mut rng = seeded_rng(11);
        let mut store = ParamStore::new();
        let w1 = store.alloc("w1", 4, 8, Initializer::XavierUniform, &mut rng);
        let w2 = store.alloc("w2", 8, 1, Initializer::XavierUniform, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Matrix::filled(1, 4, 0.5));
        let p1 = g.param(&store, w1);
        let p2 = g.param(&store, w2);
        let h = g.matmul(x, p1);
        let h = g.tanh(h);
        let y = g.matmul(h, p2);
        let loss = g.squared_error(y, 1.0);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        assert!(store.grad(w1).frobenius_norm() > 0.0);
        assert!(store.grad(w2).frobenius_norm() > 0.0);
        assert!(!store.has_non_finite());
    }

    /// `reset()` recycles every buffer of the computation before it, and
    /// none of those stale values may leak into the next one. Over three
    /// reset cycles — each after a *different* computation on the reused
    /// tape, and each on parameters an optimiser step has moved — the loss
    /// and every parameter gradient must be bit-identical to a fresh
    /// `Graph::new()` running the same computation.
    #[test]
    fn reset_tape_is_bit_identical_to_fresh_tapes() {
        use crate::{GruCell, Linear, Sgd};

        let mut rng = seeded_rng(5);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "gru", 3, 16, &mut rng);
        let head = Linear::new(&mut store, "head", 16, 4, &mut rng);
        // An unrolled GRU episode under an A2C-shaped loss; returns the
        // loss value and the exported parameter gradients.
        let episode = |g: &mut Graph, store: &ParamStore, steps: usize, seed: usize| {
            let mut h = g.constant(gru.initial_state());
            let mut total = None;
            for t in 0..steps {
                let x = Matrix::from_fn(1, 3, |_, j| ((seed * 7 + t * 3 + j) as f32).sin());
                let x = g.constant(x);
                h = gru.step(g, store, x, h);
                let logits = head.forward(g, store, h);
                let policy = g.cross_entropy_logits(logits, (seed + t) % 4, 0.5);
                let entropy = g.entropy_from_logits(logits);
                let entropy = g.scale(entropy, -0.01);
                let step = g.add(policy, entropy);
                total = Some(match total {
                    None => step,
                    Some(acc) => g.add(acc, step),
                });
            }
            let loss = total.expect("at least one step");
            let value = g.scalar(loss);
            g.backward(loss);
            let mut grads = Vec::new();
            g.export_param_grads_into(store, &mut grads);
            (value, grads)
        };

        let bits = |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        let mut reused = Graph::new();
        for cycle in 0..3 {
            episode(&mut reused, &store, 2 + cycle, 100 + cycle);
            reused.reset();
            let (loss, grads) = episode(&mut reused, &store, 6, cycle);
            let (want_loss, want_grads) = episode(&mut Graph::new(), &store, 6, cycle);
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "cycle {cycle}: loss");
            assert_eq!(grads.len(), want_grads.len(), "cycle {cycle}: bound params");
            for ((id, g), (want_id, want)) in grads.iter().zip(&want_grads) {
                assert_eq!(id, want_id, "cycle {cycle}: binding order");
                assert_eq!(
                    bits(g),
                    bits(want),
                    "cycle {cycle}: grad {}",
                    store.name(*id)
                );
            }
            store.add_grads(&want_grads);
            Sgd::new(0.05).step(&mut store);
            store.zero_grads();
            reused.reset();
        }
    }
}
