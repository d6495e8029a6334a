//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every forward operation as a node on a tape; calling
//! [`Graph::backward`] on a scalar node walks the tape in reverse and
//! accumulates gradients. Parameters are bound once per graph (repeated use —
//! e.g. the same GRU weights at every timestep of an episode — accumulates
//! into a single gradient), and [`Graph::accumulate_param_grads`] flushes the
//! result into the [`ParamStore`].
//!
//! # Staged weight gradients
//!
//! A parameter that the tape uses only as the right operand of single-row
//! products (`x · W` with `x` one row) or only as the bias of single-row
//! [`Graph::add_bias`]es is *staged*: backward notes each use (its input
//! node and its product node, whose upstream row the tape keeps anyway),
//! in backward order, instead of adding one rank-1 `xᵀ·g` delta per use.
//! Its gradient is formed only when it is read: the input rows `X` and
//! upstream rows `G` are gathered and folded by one `Xᵀ·G` (lahd-tensor's
//! `Aᵀ·B` GEMM, whose ascending-`k` fold is pinned to the reference
//! kernel) or, for a bias, by the ascending column sum of `G`.
//!
//! That is the eager sum bit for bit: each eager delta is `0.0 + x·g`,
//! and an accumulator that starts at `+0.0` never becomes `−0.0`, so
//! adding `x·g` or `0.0 + x·g` to it gives the same bits. A parameter
//! whose gradient is never read (a frozen network's) costs one note per
//! use. Every other parameter, and every non-parameter node, accumulates
//! eagerly.
//!
//! Because a fold is an ascending sum from its starting value, folding
//! several tapes' staged rows one tape after another equals folding their
//! concatenation: [`Graph::fold_param_grad_into`] uses this to give
//! per-episode tapes, replayed on separate threads, the gradients of the
//! single tape that recorded the episodes back to back.

use std::cell::RefCell;
use std::collections::HashMap;

use lahd_tensor::{softmax_row, Matrix};

use crate::activations::{tanh_exact_slice, ternary_tanh_slice, ternary_tanh_slope_slice};
use crate::params::{ParamId, ParamStore};

/// Handle to a node on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

/// Recorded operation; inputs always precede outputs on the tape.
enum Op {
    /// Constant leaf.
    Leaf,
    /// Bound parameter leaf; the index into `Graph::bound`.
    Param(usize),
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

impl Op {
    /// The nodes this op reads.
    fn inputs(&self) -> [Option<Var>; 2] {
        match *self {
            Op::Leaf | Op::Param(_) => [None, None],
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::AddBias(a, b)
            | Op::ConcatCols(a, b) => [Some(a), Some(b)],
            Op::Affine(x, _)
            | Op::Sigmoid(x)
            | Op::Tanh(x)
            | Op::Relu(x)
            | Op::TernaryTanh(x)
            | Op::QuantizeSte(x)
            | Op::SumAll(x)
            | Op::CrossEntropyLogits { logits: x, .. }
            | Op::EntropyFromLogits { logits: x }
            | Op::SquaredError { input: x, .. }
            | Op::MseAgainst { pred: x, .. } => [Some(x), None],
        }
    }
}

/// How the uses recorded so far let a bound parameter's gradient form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Uses {
    /// No op has used the parameter yet.
    None,
    /// Only ever the right operand of single-row `matmul`s: staged.
    Weight,
    /// Only ever the bias of single-row `add_bias`es: staged.
    Bias,
    /// Used any other way: accumulated eagerly, like every other node.
    Eager,
}

/// A parameter bound onto the tape.
struct Bound {
    /// Address of the store the parameter came from (see [`Graph::param`]).
    store: usize,
    id: ParamId,
    var: Var,
    uses: Uses,
    /// A staged parameter's uses in backward order: the product's left
    /// operand (a weight's input row; unused for a bias) and the product
    /// node, whose gradient is the use's upstream row.
    notes: Vec<(Var, Var)>,
}

impl Bound {
    fn staged(&self) -> bool {
        matches!(self.uses, Uses::Weight | Uses::Bias)
    }
}

thread_local! {
    /// Gather buffers for [`Graph::fold_staged`]'s `Xᵀ·G`, reused across
    /// folds on a thread (the pattern of lahd-tensor's pack buffers).
    static GATHER: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The autodiff tape.
#[derive(Default)]
pub struct Graph {
    ops: Vec<Op>,
    values: Vec<Matrix>,
    grads: Vec<Option<Matrix>>,
    /// Every bound parameter, in binding order. Parameters from
    /// *different* stores (e.g. a policy net plus two QBNs trained jointly)
    /// are distinguished by the store's address, so the same numeric
    /// `ParamId` in two stores cannot collide. The store must not move
    /// between [`Graph::param`] and [`Graph::accumulate_param_grads`].
    bound: Vec<Bound>,
    param_cache: HashMap<(usize, ParamId), Var>,
    /// The use notes of the parameters bound before the last
    /// [`Graph::reset`], by binding position: a model that binds the same
    /// parameters in the same order every update reuses each one's list.
    notes_free: Vec<Vec<(Var, Var)>>,
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
    /// Test-only: accumulate every parameter eagerly, the reference the
    /// staged folds are pinned against.
    #[cfg(test)]
    eager_only: bool,
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
            recycle(&mut self.free, m);
        }
        for m in self.grads.drain(..).flatten() {
            recycle(&mut self.free, m);
        }
        for (slot, b) in self.bound.drain(..).enumerate() {
            let mut notes = b.notes;
            notes.clear();
            match self.notes_free.get_mut(slot) {
                Some(list) => *list = notes,
                None => self.notes_free.push(notes),
            }
        }
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
        self.note_uses(&op);
        self.ops.push(op);
        self.values.push(value);
        self.grads.push(None);
        Var(self.ops.len() - 1)
    }

    /// Records how `op` uses the bound parameters among its inputs: a
    /// parameter stays staged while every use is the right operand of a
    /// single-row product, or while every use is the bias of a single-row
    /// `add_bias`.
    fn note_uses(&mut self, op: &Op) {
        match *op {
            Op::MatMul(a, b) => {
                let single_row = self.values[a.0].rows() == 1;
                self.note_use(a, Uses::Eager);
                self.note_use(
                    b,
                    if single_row {
                        Uses::Weight
                    } else {
                        Uses::Eager
                    },
                );
            }
            Op::AddBias(x, bias) => {
                let single_row = self.values[x.0].rows() == 1;
                self.note_use(x, Uses::Eager);
                self.note_use(bias, if single_row { Uses::Bias } else { Uses::Eager });
            }
            _ => {
                for v in op.inputs().into_iter().flatten() {
                    self.note_use(v, Uses::Eager);
                }
            }
        }
    }

    fn note_use(&mut self, v: Var, how: Uses) {
        let Op::Param(slot) = self.ops[v.0] else {
            return;
        };
        #[cfg(test)]
        let how = if self.eager_only { Uses::Eager } else { how };
        let b = &mut self.bound[slot];
        b.uses = match b.uses {
            Uses::None => how,
            uses if uses == how => uses,
            _ => Uses::Eager,
        };
    }

    /// The binding slot of `v` when it is a staged parameter.
    fn staged_slot(&self, v: Var) -> Option<usize> {
        match self.ops[v.0] {
            Op::Param(slot) if self.bound[slot].staged() => Some(slot),
            _ => None,
        }
    }

    /// Adds a constant leaf. Backward forms no gradient for it, so
    /// [`Graph::grad`] reads zero there.
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
        let slot = self.bound.len();
        let v = self.push(Op::Param(slot), value);
        let notes = self
            .notes_free
            .get_mut(slot)
            .map(std::mem::take)
            .unwrap_or_default();
        self.bound.push(Bound {
            store: key.0,
            id,
            var: v,
            uses: Uses::None,
            notes,
        });
        self.param_cache.insert(key, v);
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
    /// influence the loss. A staged parameter's gradient is folded here.
    pub fn grad(&self, v: Var) -> Matrix {
        let (rows, cols) = self.values[v.0].shape();
        if let Some(slot) = self.staged_slot(v) {
            let mut g = Matrix::zeros(rows, cols);
            self.fold_staged(slot, &mut g);
            return g;
        }
        match &self.grads[v.0] {
            Some(g) => g.clone(),
            None => Matrix::zeros(rows, cols),
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

    /// Hyperbolic tangent (the exact kernel: `f32::tanh`'s bits).
    pub fn tanh(&mut self, x: Var) -> Var {
        let mut value = self.alloc_copy_of(x);
        tanh_exact_slice(value.as_mut_slice());
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
        ternary_tanh_slice(value.as_mut_slice());
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
    /// Staged parameters (see the module docs) only note their uses here;
    /// their gradients are folded when read. Run it once per recording:
    /// [`Graph::reset`] before recording the next computation.
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
                Op::Leaf | Op::Param(_) => {}
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    if !self.is_constant(a) {
                        let mut da = self.alloc_matrix(gy.rows(), self.values[b.0].rows());
                        gy.matmul_nt_acc(&self.values[b.0], &mut da);
                        self.accumulate(a, da);
                    }
                    if let Some(slot) = self.staged_slot(b) {
                        self.bound[slot].notes.push((a, Var(i)));
                    } else if !self.is_constant(b) {
                        let mut db = self.alloc_matrix(self.values[a.0].cols(), gy.cols());
                        self.values[a.0].matmul_tn_acc(&gy, &mut db);
                        self.accumulate(b, db);
                    }
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
                    self.accumulate_ref(x, &gy);
                    if let Some(slot) = self.staged_slot(bias) {
                        self.bound[slot].notes.push((x, Var(i)));
                    } else {
                        // Bias gradient is the column-sum of the upstream grad.
                        let mut db = self.alloc_matrix(1, gy.cols());
                        for r in 0..gy.rows() {
                            for (d, &g) in db.row_mut(0).iter_mut().zip(gy.row(r)) {
                                *d += g;
                            }
                        }
                        self.accumulate(bias, db);
                    }
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
                    // dx = g·1.5·(tanh(3v)² − tanh(v)²).
                    let x = *x;
                    let mut dx = self.alloc_copy_of(x);
                    ternary_tanh_slope_slice(dx.as_mut_slice());
                    for (d, &g) in dx.as_mut_slice().iter_mut().zip(gy.as_slice()) {
                        *d *= g * 1.5;
                    }
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

    /// Whether `v` is a constant leaf, whose gradient nothing reads.
    fn is_constant(&self, v: Var) -> bool {
        matches!(self.ops[v.0], Op::Leaf)
    }

    /// Accumulates an owned delta; its buffer is recycled when the slot is
    /// already occupied or `v` is a constant.
    fn accumulate(&mut self, v: Var, delta: Matrix) {
        if self.is_constant(v) {
            recycle(&mut self.free, delta);
        } else if let Some(g) = &mut self.grads[v.0] {
            g.add_assign(&delta);
            recycle(&mut self.free, delta);
        } else {
            self.grads[v.0] = Some(delta);
        }
    }

    /// Accumulates a borrowed delta without cloning it: fan-out nodes (Add,
    /// AddBias, straight-through) add the upstream gradient into each input
    /// slot directly, copying only when a slot is still empty — and that
    /// copy lands in a recycled buffer.
    fn accumulate_ref(&mut self, v: Var, delta: &Matrix) {
        if self.is_constant(v) {
            return;
        }
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
        if self.is_constant(v) {
            return;
        }
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
        for (i, b) in self
            .bound
            .iter()
            .enumerate()
            .filter(|(_, b)| b.store == addr)
        {
            let (rows, cols) = self.values[b.var.0].shape();
            if filled == out.len() {
                out.push((b.id, Matrix::zeros(rows, cols)));
            }
            let slot = &mut out[filled];
            slot.0 = b.id;
            if slot.1.shape() != (rows, cols) {
                slot.1 = Matrix::zeros(rows, cols);
            }
            if b.staged() {
                slot.1.fill_zero();
                self.fold_staged(i, &mut slot.1);
            } else {
                match &self.grads[b.var.0] {
                    Some(g) => slot.1.copy_from(g),
                    None => slot.1.fill_zero(),
                }
            }
            filled += 1;
        }
        out.truncate(filled);
    }

    /// Flushes the gradients of every parameter bound *from this store*
    /// into it; returns the number of parameters flushed. Call once per
    /// participating store after [`Graph::backward`]. A staged parameter's
    /// gradient is folded into a recycled buffer first, so the store gains
    /// exactly the tape's total, as it would from an eager accumulator.
    pub fn accumulate_param_grads(&mut self, store: &mut ParamStore) -> usize {
        let addr = store_addr(store);
        let mut flushed = 0;
        for slot in 0..self.bound.len() {
            let (id, var, staged) = {
                let b = &self.bound[slot];
                if b.store != addr {
                    continue;
                }
                (b.id, b.var, b.staged())
            };
            flushed += 1;
            if staged {
                let (rows, cols) = self.values[var.0].shape();
                let mut g = self.alloc_matrix(rows, cols);
                self.fold_staged(slot, &mut g);
                store.add_grad(id, &g);
                recycle(&mut self.free, g);
            } else if let Some(g) = &self.grads[var.0] {
                store.add_grad(id, g);
            }
        }
        flushed
    }

    /// Adds this tape's gradient of parameter `id` of `store` into `acc`,
    /// continuing a fold across tapes; a tape that never bound the
    /// parameter adds nothing.
    ///
    /// A staged parameter's rows are folded onto `acc`'s running sum. So
    /// calling this on several tapes in backward order (the tape that
    /// would have been recorded last goes first), starting from zeros,
    /// gives, for a parameter every tape stages, the bits of one tape
    /// holding all the forward passes back to back, provided each tape's
    /// root was seeded the way the single tape's gradient reached it. A
    /// parameter this tape accumulates eagerly adds its total instead: the
    /// same sum, rounded per tape. Parameters fold independently, so
    /// different parameters may fold on different threads.
    pub fn fold_param_grad_into(&self, store: &ParamStore, id: ParamId, acc: &mut Matrix) {
        let Some(&var) = self.param_cache.get(&(store_addr(store), id)) else {
            return;
        };
        let Op::Param(slot) = self.ops[var.0] else {
            unreachable!("the parameter cache maps to parameter leaves")
        };
        if self.bound[slot].staged() {
            self.fold_staged(slot, acc);
        } else if let Some(eager) = &self.grads[var.0] {
            acc.add_assign(eager);
        }
    }

    /// Folds staged parameter `slot`'s uses into `out`, in backward order:
    /// `out += Xᵀ·G` over the gathered input and upstream rows for a
    /// weight, `out += Σ_r G[r]` for a bias.
    fn fold_staged(&self, slot: usize, out: &mut Matrix) {
        let b = &self.bound[slot];
        let upstream = |y: Var| {
            self.grads[y.0]
                .as_ref()
                .expect("a staged use has its upstream gradient")
                .row(0)
        };
        match b.uses {
            Uses::Weight => GATHER.with(|cell| {
                let (xs, gs) = &mut *cell.borrow_mut();
                xs.clear();
                gs.clear();
                for &(x, y) in &b.notes {
                    xs.extend_from_slice(self.values[x.0].row(0));
                    gs.extend_from_slice(upstream(y));
                }
                let rows = b.notes.len();
                let x = Matrix::from_vec(rows, out.rows(), std::mem::take(xs));
                let g = Matrix::from_vec(rows, out.cols(), std::mem::take(gs));
                x.matmul_tn_acc(&g, out);
                *xs = x.into_vec();
                *gs = g.into_vec();
            }),
            Uses::Bias => {
                for &(_, y) in &b.notes {
                    for (o, &g) in out.row_mut(0).iter_mut().zip(upstream(y)) {
                        *o += g;
                    }
                }
            }
            Uses::None | Uses::Eager => unreachable!("only staged parameters fold"),
        }
    }

    /// A tape that accumulates every parameter eagerly, one rank-1 delta
    /// per single-row product: the reference the staged folds are pinned
    /// against.
    #[cfg(test)]
    pub(crate) fn eager_reference() -> Self {
        Self {
            eager_only: true,
            ..Self::default()
        }
    }
}

/// Returns a matrix's buffer to a tape's free list.
fn recycle(free: &mut HashMap<usize, Vec<Vec<f32>>>, m: Matrix) {
    let buf = m.into_vec();
    free.entry(buf.len()).or_default().push(buf);
}

#[inline]
fn store_addr(store: &ParamStore) -> usize {
    store as *const ParamStore as usize
}

/// Ternary tanh used by QBN encoders: saturates near {-1, 0, 1}. The
/// scalar reference; rows go through
/// [`ternary_tanh_slice`](crate::ternary_tanh_slice), which has its bits.
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

        let mut g = build(&store, w1, w2);

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

/// Staged weight gradients against the eager reference, bit for bit.
#[cfg(test)]
mod staged_tests {
    use super::*;
    use proptest::prelude::*;

    /// A deterministic value stream for random tapes: mostly values in
    /// (-2, 2), salted with ±0.0 and ±(smallest subnormal), whose products
    /// with ordinary gradients underflow to ±0.0.
    struct Values(u64);

    impl Values {
        fn next(&mut self) -> f32 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let bits = (self.0 >> 33) as u32;
            let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
            match (bits >> 1) % 8 {
                0 => sign * 0.0,
                1 => sign * f32::from_bits(1),
                _ => sign * ((bits >> 4) % 2000) as f32 / 1000.0,
            }
        }

        fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
            Matrix::from_fn(rows, cols, |_, _| self.next())
        }
    }

    /// A recurrent cell: `v` reads the input, `w` is applied twice per
    /// step (as the hidden QBN is), `b` is a bias added twice per step and
    /// `c` once. `m` and `e` exercise the eager fallback: `m` also feeds a
    /// multi-row product, `e` is also an element-wise factor.
    struct Net {
        store: ParamStore,
        ids: [ParamId; 6],
    }

    const V: usize = 0;
    const W: usize = 1;
    const B: usize = 2;
    const C: usize = 3;
    const M: usize = 4;
    const E: usize = 5;

    fn net(seed: u64, k: usize, d: usize) -> Net {
        let mut vals = Values(seed);
        let mut store = ParamStore::new();
        let shapes = [(k, d), (d, d), (1, d), (1, d), (d, d), (1, d)];
        let names = ["v", "w", "b", "c", "m", "e"];
        let ids = std::array::from_fn(|i| {
            store.alloc_with_value(names[i], vals.matrix(shapes[i].0, shapes[i].1))
        });
        Net { store, ids }
    }

    /// Records one episode of `steps` steps; returns its step losses in
    /// forward order.
    fn episode(
        g: &mut Graph,
        net: &Net,
        vals: &mut Values,
        steps: usize,
        fallbacks: bool,
    ) -> Vec<Var> {
        let p = |g: &mut Graph, i: usize| g.param(&net.store, net.ids[i]);
        let (k, d) = net.store.value(net.ids[V]).shape();
        let mut h = g.constant(vals.matrix(1, d));
        let mut losses = Vec::new();
        for _ in 0..steps {
            let (v, w, b, c) = (p(g, V), p(g, W), p(g, B), p(g, C));
            let x = g.constant(vals.matrix(1, k));
            let xv = g.matmul(x, v);
            let hw = g.matmul(h, w);
            let s = g.add(xv, hw);
            let s = g.add_bias(s, b);
            let a = g.tanh(s);
            let aw = g.matmul(a, w);
            let aw = g.add_bias(aw, c);
            let mut t = g.add_bias(aw, b);
            if fallbacks {
                let (m, e) = (p(g, M), p(g, E));
                let hm = g.matmul(h, m);
                t = g.add(t, hm);
                t = g.add_bias(t, e);
                t = g.mul(t, e);
            }
            h = g.tanh(t);
            losses.push(g.mse_against(h, vals.matrix(1, d)));
        }
        if fallbacks {
            let m = p(g, M);
            let rows = g.constant(vals.matrix(3, d));
            let y = g.matmul(rows, m);
            let y = g.tanh(y);
            losses.push(g.mse_against(y, vals.matrix(3, d)));
        }
        losses
    }

    /// `k · Σ losses` through an accumulator chain, and its backward pass.
    fn backward_mean(g: &mut Graph, losses: &[Var], k: f32) {
        let mut total = losses[0];
        for &l in &losses[1..] {
            total = g.add(total, l);
        }
        let root = g.scale(total, k);
        g.backward(root);
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn uses_of(g: &Graph, net: &Net, i: usize) -> Uses {
        let addr = store_addr(&net.store);
        g.bound
            .iter()
            .find(|b| b.store == addr && b.id == net.ids[i])
            .map(|b| b.uses)
            .expect("bound parameter")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every gradient read path of the staged tape (export, flush into
        /// a store holding earlier gradients, `grad`) gives the eager
        /// reference's bits.
        #[test]
        fn staged_gradients_equal_the_eager_reference(
            seed in 0u64..1 << 40,
            k in 1usize..5,
            d in 1usize..7,
            steps in 1usize..6,
        ) {
            let mut net = net(seed, k, d);
            let record = |mut g: Graph| {
                let losses = episode(&mut g, &net, &mut Values(seed ^ 0x5eed), steps, true);
                backward_mean(&mut g, &losses, 0.37);
                g
            };
            let mut staged = record(Graph::new());
            let mut eager = record(Graph::eager_reference());
            for (i, want) in [Uses::Weight, Uses::Weight, Uses::Bias, Uses::Bias, Uses::Eager, Uses::Eager]
                .into_iter()
                .enumerate()
            {
                prop_assert_eq!(uses_of(&staged, &net, i), want);
                prop_assert_eq!(uses_of(&eager, &net, i), Uses::Eager);
            }

            let (mut got, mut want) = (Vec::new(), Vec::new());
            staged.export_param_grads_into(&net.store, &mut got);
            eager.export_param_grads_into(&net.store, &mut want);
            prop_assert_eq!(got.len(), 6);
            for ((id, g), (want_id, w)) in got.iter().zip(&want) {
                prop_assert_eq!(id, want_id);
                prop_assert_eq!(bits(g), bits(w), "export of {}", net.store.name(*id));
            }
            for &id in &net.ids {
                let var = staged.param_cache[&(store_addr(&net.store), id)];
                let want_var = eager.param_cache[&(store_addr(&net.store), id)];
                prop_assert_eq!(bits(&staged.grad(var)), bits(&eager.grad(want_var)));
            }

            // Flushing adds the tape's total to what the store holds.
            let prior = want.clone();
            let mut flushed = Vec::new();
            for tape in [&mut staged, &mut eager] {
                net.store.zero_grads();
                net.store.add_grads(&prior);
                prop_assert_eq!(tape.accumulate_param_grads(&mut net.store), 6);
                flushed.push(net.ids.map(|id| bits(net.store.grad(id))));
            }
            prop_assert_eq!(&flushed[0], &flushed[1]);
        }

        /// Episodes recorded on their own tapes, each seeded with the one
        /// tape's `k`, fold last episode first to the one tape's bits.
        #[test]
        fn per_episode_tapes_fold_to_the_single_tape(
            seed in 0u64..1 << 40,
            k in 1usize..5,
            d in 1usize..7,
            lens in proptest::collection::vec(1usize..6, 1..5),
        ) {
            let mut net = net(seed, k, d);
            let scale = 1.0 / lens.iter().sum::<usize>() as f32;

            let mut single = Graph::new();
            let mut vals = Values(seed ^ 0xe915);
            let mut losses = Vec::new();
            for &len in &lens {
                losses.extend(episode(&mut single, &net, &mut vals, len, false));
            }
            backward_mean(&mut single, &losses, scale);

            let mut vals = Values(seed ^ 0xe915);
            let tapes: Vec<Graph> = lens
                .iter()
                .map(|&len| {
                    let mut g = Graph::new();
                    let losses = episode(&mut g, &net, &mut vals, len, false);
                    backward_mean(&mut g, &losses, scale);
                    g
                })
                .collect();

            net.store.zero_grads();
            prop_assert_eq!(single.accumulate_param_grads(&mut net.store), 4);
            let want = net.ids.map(|id| bits(net.store.grad(id)));
            let mut acc: Vec<(ParamId, Matrix)> = net
                .ids
                .iter()
                .map(|&id| {
                    let (rows, cols) = net.store.value(id).shape();
                    (id, Matrix::zeros(rows, cols))
                })
                .collect();
            for (id, g) in &mut acc {
                for tape in tapes.iter().rev() {
                    tape.fold_param_grad_into(&net.store, *id, g);
                }
            }
            net.store.zero_grads();
            net.store.add_grads(&acc);
            let got = net.ids.map(|id| bits(net.store.grad(id)));
            prop_assert_eq!(got, want);
        }
    }

    /// A reset tape reuses each parameter's use notes and starts its
    /// fold from nothing.
    #[test]
    fn reset_starts_staged_folds_afresh() {
        let mut net = net(3, 2, 4);
        let mut reused = Graph::new();
        let losses = episode(&mut reused, &net, &mut Values(1), 5, false);
        backward_mean(&mut reused, &losses, 0.2);
        reused.reset();
        let losses = episode(&mut reused, &net, &mut Values(2), 3, false);
        backward_mean(&mut reused, &losses, 0.5);
        let mut fresh = Graph::new();
        let losses = episode(&mut fresh, &net, &mut Values(2), 3, false);
        backward_mean(&mut fresh, &losses, 0.5);

        let mut grads = Vec::new();
        for tape in [&mut reused, &mut fresh] {
            net.store.zero_grads();
            tape.accumulate_param_grads(&mut net.store);
            grads.push(net.ids.map(|id| bits(net.store.grad(id))));
        }
        assert_eq!(grads[0], grads[1]);
    }
}
