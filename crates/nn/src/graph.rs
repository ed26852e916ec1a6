//! Reverse-mode automatic differentiation on a per-batch tape.
//!
//! A [`Graph`] is rebuilt for every forward pass. QPSeeker encodes *trees* of
//! variable shape (one LSTM cell per plan node), so a static computation
//! graph is impossible; instead each batch records the exact ops it ran and
//! [`Graph::backward`] replays them in reverse. Parameters live in a
//! [`ParamStore`] the graph borrows: a parameter leaf is an id whose value
//! is read from the store, never copied onto the tape, and its gradient
//! comes back in a [`GradBuffer`] keyed by that id. A tape holds at most one
//! leaf per parameter.
//!
//! Every op's gradient rule is verified against central finite differences in
//! the unit tests below and in the crate's proptest suite.

use crate::layers::Activation;
use crate::pack::{gemm_packed, PackedGemm};
use crate::params::{GradBuffer, ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Leaf holding a constant input (no gradient).
    Constant,
    /// Leaf reading a parameter from the borrowed store; its gradient goes
    /// to the [`GradBuffer`] under the same id.
    Param(ParamId),
    MatMul(Var, Var),
    Add(Var, Var),
    /// `[r,c] + [1,c]` row-broadcast (bias add).
    AddRowBroadcast(Var, Var),
    /// `[r,c] ⊙ [r,1]` column-broadcast (per-row scaling, e.g. set masks).
    MulColBroadcast(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var, f32),
    Relu(Var),
    Tanh(Var),
    Sigmoid(Var),
    Exp(Var),
    SoftmaxRows(Var),
    ConcatCols(Var, Var),
    StackRows(Vec<Var>),
    SumRows(Var),
    SumAll(Var),
    SliceCols(Var, usize, usize),
    Transpose(Var),
    /// Output row `r` is row `.1` of var `.0` of entry `r`.
    GatherRows(Vec<(Var, usize)>),
    /// Output row `s` sums the next `lens[s]` input rows.
    SegmentSum(Var, Vec<usize>),
}

impl Op {
    /// Call `f` on every input of the op.
    fn for_each_input(&self, mut f: impl FnMut(Var)) {
        match self {
            Op::Constant | Op::Param(_) => {}
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::MulColBroadcast(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::ConcatCols(a, b) => {
                f(*a);
                f(*b);
            }
            Op::Scale(a, _)
            | Op::AddScalar(a, _)
            | Op::Relu(a)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::Exp(a)
            | Op::SoftmaxRows(a)
            | Op::SumRows(a)
            | Op::SumAll(a)
            | Op::SliceCols(a, ..)
            | Op::Transpose(a)
            | Op::SegmentSum(a, _) => f(*a),
            Op::StackRows(parts) => parts.iter().copied().for_each(f),
            Op::GatherRows(rows) => rows.iter().for_each(|&(v, _)| f(v)),
        }
    }
}

struct Node {
    op: Op,
    /// Empty for a `Param` leaf, whose value [`Graph::value`] reads from
    /// the store.
    value: Tensor,
    /// Whether a parameter is upstream, so [`Graph::backward`] must reach
    /// this node. A constant's subgraph gets no gradient computed.
    grad: bool,
}

/// A tape of tensor operations supporting reverse-mode differentiation,
/// over the parameters of one [`ParamStore`].
pub struct Graph<'s> {
    store: &'s ParamStore,
    nodes: Vec<Node>,
    /// The leaf of each parameter already on the tape, by `ParamId`.
    leaves: Vec<Option<Var>>,
}

impl<'s> Graph<'s> {
    pub fn new(store: &'s ParamStore) -> Self {
        Self { store, nodes: Vec::with_capacity(256), leaves: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        debug_assert!(value.all_finite(), "non-finite value produced by {op:?}");
        let mut grad = matches!(op, Op::Param(_));
        op.for_each_input(|v| grad |= self.nodes[v.0].grad);
        self.nodes.push(Node { op, value, grad });
        Var(self.nodes.len() - 1)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        match self.nodes[v.0].op {
            Op::Param(id) => self.store.value(id),
            _ => &self.nodes[v.0].value,
        }
    }

    // ---- leaves -----------------------------------------------------------

    /// Record a constant (non-differentiable) input.
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(Op::Constant, t)
    }

    /// Record a scalar constant.
    pub fn scalar(&mut self, v: f32) -> Var {
        self.constant(Tensor::scalar(v))
    }

    /// The leaf of parameter `id`. Its value stays in the store. The first
    /// call records the leaf; later calls return the same [`Var`], so every
    /// use of a weight sums into one gradient slot, which reaches the
    /// [`GradBuffer`] once.
    pub fn param(&mut self, id: ParamId) -> Var {
        if let Some(Some(v)) = self.leaves.get(id.index()) {
            return *v;
        }
        let v = self.push(Op::Param(id), Tensor::zeros(0, 0));
        if self.leaves.len() <= id.index() {
            self.leaves.resize(id.index() + 1, None);
        }
        self.leaves[id.index()] = Some(v);
        v
    }

    // ---- binary ops -------------------------------------------------------

    /// `a·b` through the packed GEMM: a parameter `b` as the store's packed
    /// copy, built once per optimizer step; any other `b` packed on the spot.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let ta = self.value(a);
        let v = match self.nodes[b.0].op {
            Op::Param(id) => ta.matmul_packed(self.store.packed(id)),
            _ => ta.matmul(self.value(b)),
        };
        self.push(Op::MatMul(a, b), v)
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.shape(), tb.shape(), "add shape mismatch");
        let mut v = ta.clone();
        v.add_assign(tb);
        self.push(Op::Add(a, b), v)
    }

    /// `a [r,c] + bias [1,c]`, broadcasting the bias over rows.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(bias));
        assert_eq!(tb.rows(), 1, "bias must be a row vector");
        assert_eq!(ta.cols(), tb.cols(), "bias width mismatch");
        let mut v = ta.clone();
        for r in 0..v.rows() {
            for (x, b) in v.row_slice_mut(r).iter_mut().zip(tb.data()) {
                *x += b;
            }
        }
        self.push(Op::AddRowBroadcast(a, bias), v)
    }

    /// `a [r,c] ⊙ m [r,1]`, scaling each row of `a` by the matching entry of `m`.
    pub fn mul_col_broadcast(&mut self, a: Var, m: Var) -> Var {
        let (ta, tm) = (self.value(a), self.value(m));
        assert_eq!(tm.cols(), 1, "mask must be a column vector");
        assert_eq!(ta.rows(), tm.rows(), "mask height mismatch");
        let mut v = ta.clone();
        for r in 0..v.rows() {
            let s = tm.get(r, 0);
            for x in v.row_slice_mut(r) {
                *x *= s;
            }
        }
        self.push(Op::MulColBroadcast(a, m), v)
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.shape(), tb.shape(), "sub shape mismatch");
        let mut v = ta.clone();
        v.add_scaled_assign(tb, -1.0);
        self.push(Op::Sub(a, b), v)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.shape(), tb.shape(), "mul shape mismatch");
        let mut v = ta.clone();
        for (x, y) in v.data_mut().iter_mut().zip(tb.data().iter()) {
            *x *= y;
        }
        self.push(Op::Mul(a, b), v)
    }

    // ---- unary ops --------------------------------------------------------

    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).map(|x| x * c);
        self.push(Op::Scale(a, c), v)
    }

    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).map(|x| x + c);
        self.push(Op::AddScalar(a, c), v)
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(Op::Relu(a), v)
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::tanh);
        self.push(Op::Tanh(a), v)
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(Op::Sigmoid(a), v)
    }

    /// Elementwise `exp`, with inputs clamped to ±30 to avoid overflow in the
    /// VAE's `exp(logvar)` term early in training. Past the clamp the output
    /// is constant, so the gradient there is zero.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.clamp(-30.0, 30.0).exp());
        self.push(Op::Exp(a), v)
    }

    /// Row-wise softmax with max-subtraction for numerical stability.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let ta = self.value(a);
        let mut v = ta.clone();
        for r in 0..v.rows() {
            let row = v.row_slice_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
        self.push(Op::SoftmaxRows(a), v)
    }

    // ---- shape ops --------------------------------------------------------

    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).concat_cols(self.value(b));
        self.push(Op::ConcatCols(a, b), v)
    }

    /// Concatenate an arbitrary list column-wise (left fold).
    pub fn concat_cols_all(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols_all needs at least one part");
        let mut acc = parts[0];
        for &p in &parts[1..] {
            acc = self.concat_cols(acc, p);
        }
        acc
    }

    /// Stack tensors vertically (used to batch per-sample encodings).
    pub fn stack_rows(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Tensor::stack_rows(&tensors);
        self.push(Op::StackRows(parts.to_vec()), v)
    }

    /// Column sums: `[r,c] -> [1,c]`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let ta = self.value(a);
        let mut v = Tensor::zeros(1, ta.cols());
        for r in 0..ta.rows() {
            for c in 0..ta.cols() {
                v.set(0, c, v.get(0, c) + ta.get(r, c));
            }
        }
        self.push(Op::SumRows(a), v)
    }

    /// Column means: `[r,c] -> [1,c]`.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let rows = self.value(a).rows().max(1) as f32;
        let s = self.sum_rows(a);
        self.scale(s, 1.0 / rows)
    }

    /// Sum of every element: `[r,c] -> [1,1]`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum());
        self.push(Op::SumAll(a), v)
    }

    /// Mean of every element: `[r,c] -> [1,1]`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let n = self.value(a).len().max(1) as f32;
        let s = self.sum_all(a);
        self.scale(s, 1.0 / n)
    }

    /// Column slice `[r, from..to)`.
    pub fn slice_cols(&mut self, a: Var, from: usize, to: usize) -> Var {
        let ta = self.value(a);
        assert!(from < to && to <= ta.cols(), "slice_cols out of range");
        let mut v = Tensor::zeros(ta.rows(), to - from);
        for r in 0..ta.rows() {
            v.row_slice_mut(r).copy_from_slice(&ta.row_slice(r)[from..to]);
        }
        self.push(Op::SliceCols(a, from, to), v)
    }

    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transposed();
        self.push(Op::Transpose(a), v)
    }

    /// Rows picked from any vars of one width: output row `r` is row
    /// `rows[r].1` of `rows[r].0`. A row may be picked more than once; the
    /// backward scatter-adds each output row's gradient into its source row,
    /// in output row order.
    ///
    /// # Panics
    /// Panics if `rows` is empty, a row is out of range or widths differ.
    pub fn gather_rows(&mut self, rows: &[(Var, usize)]) -> Var {
        assert!(!rows.is_empty(), "gather_rows needs at least one row");
        let cols = self.value(rows[0].0).cols();
        let mut v = Tensor::zeros(rows.len(), cols);
        for (r, &(src, row)) in rows.iter().enumerate() {
            let t = self.value(src);
            assert_eq!(t.cols(), cols, "gather_rows width mismatch");
            v.row_slice_mut(r).copy_from_slice(t.row_slice(row));
        }
        self.push(Op::GatherRows(rows.to_vec()), v)
    }

    /// Per-segment column sums: the rows of `a` cut into consecutive
    /// segments of `lens` rows, `[Σ lens, c] -> [lens.len(), c]`. Each sum
    /// starts at zero and adds its rows in order, as [`Self::sum_rows`]
    /// does; an empty segment sums to zero.
    ///
    /// # Panics
    /// Panics if `lens` does not sum to the rows of `a`.
    pub fn segment_sum(&mut self, a: Var, lens: &[usize]) -> Var {
        let ta = self.value(a);
        assert_eq!(lens.iter().sum::<usize>(), ta.rows(), "segment lengths must cover a");
        let mut v = Tensor::zeros(lens.len(), ta.cols());
        let mut row = 0;
        for (s, &len) in lens.iter().enumerate() {
            for r in row..row + len {
                for (o, x) in v.row_slice_mut(s).iter_mut().zip(ta.row_slice(r)) {
                    *o += x;
                }
            }
            row += len;
        }
        self.push(Op::SegmentSum(a, lens.to_vec()), v)
    }

    /// Per-segment column means: [`Self::segment_sum`] with each sum scaled
    /// by `1 / len` (an empty segment stays zero).
    pub fn segment_mean(&mut self, a: Var, lens: &[usize]) -> Var {
        let s = self.segment_sum(a, lens);
        let inv = lens.iter().map(|&n| 1.0 / n.max(1) as f32).collect();
        let inv = self.constant(Tensor::from_vec(lens.len(), 1, inv));
        self.mul_col_broadcast(s, inv)
    }

    // ---- composed helpers ---------------------------------------------------

    /// Mean squared error between `pred` and a constant `target`.
    pub fn mse(&mut self, pred: Var, target: Var) -> Var {
        let d = self.sub(pred, target);
        let sq = self.mul(d, d);
        self.mean_all(sq)
    }

    /// KL( N(mu, exp(logvar)) ‖ N(0, 1) ), summed over latent dims and
    /// averaged over the batch: `-0.5 * Σ (1 + logvar - mu² - exp(logvar))`.
    pub fn kl_standard_normal(&mut self, mu: Var, logvar: Var) -> Var {
        let batch = self.value(mu).rows().max(1) as f32;
        let mu2 = self.mul(mu, mu);
        let var = self.exp(logvar);
        let one_plus = self.add_scalar(logvar, 1.0);
        let t = self.sub(one_plus, mu2);
        let t = self.sub(t, var);
        let s = self.sum_all(t);
        self.scale(s, -0.5 / batch)
    }

    /// Reparameterization trick: `mu + eps ⊙ exp(logvar / 2)` with `eps`
    /// passed in as a constant noise tensor.
    pub fn reparameterize(&mut self, mu: Var, logvar: Var, eps: Var) -> Var {
        let half = self.scale(logvar, 0.5);
        let std = self.exp(half);
        let noise = self.mul(eps, std);
        self.add(mu, noise)
    }

    // ---- backward -----------------------------------------------------------

    /// Backpropagate from scalar `loss`. Returns the loss value and every
    /// parameter's gradient; add those to the store with
    /// [`GradBuffer::merge_into`] once the graph is dropped.
    ///
    /// Only nodes with a parameter upstream get a gradient. A parameter's
    /// one leaf sums the contributions of every use in reverse tape order,
    /// then joins the buffer. Both products of a matmul's backward run the
    /// packed GEMM: the input gradient `g·Bᵀ` over the store's packed
    /// transpose (built once per optimizer step) when `B` is a parameter,
    /// else over a transpose packed on the spot; the weight gradient `aᵀ·g`
    /// is summed apart, then added into `B`'s slot.
    ///
    /// # Panics
    /// Panics if `loss` is not `1x1`.
    pub fn backward(&self, loss: Var) -> (f32, GradBuffer) {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        let mut params = GradBuffer::new();
        let mut grads = Grads { slots: vec![None; self.nodes.len()], nodes: &self.nodes };
        grads.add(loss, Tensor::scalar(1.0));

        for i in (0..self.nodes.len()).rev() {
            let g = match grads.slots[i].take() {
                Some(g) => g,
                None => continue,
            };
            match &self.nodes[i].op {
                Op::Constant => {}
                Op::Param(id) => params.accumulate(*id, g),
                Op::MatMul(a, b) => {
                    if grads.wants(*a) {
                        let ga = match self.nodes[b.0].op {
                            Op::Param(id) => g.matmul_packed(self.store.packed_t(id)),
                            _ => g.matmul(&self.value(*b).transposed()),
                        };
                        grads.add(*a, ga);
                    }
                    if grads.wants(*b) {
                        grads.add_product(*b, &self.value(*a).transposed(), &PackedGemm::pack(&g));
                    }
                }
                Op::Add(a, b) => {
                    grads.add(*a, g.clone());
                    grads.add(*b, g);
                }
                Op::AddRowBroadcast(a, bias) => {
                    if grads.wants(*bias) {
                        let mut gb = Tensor::zeros(1, g.cols());
                        for r in 0..g.rows() {
                            for (o, x) in gb.data_mut().iter_mut().zip(g.row_slice(r)) {
                                *o += x;
                            }
                        }
                        grads.add(*bias, gb);
                    }
                    grads.add(*a, g);
                }
                Op::MulColBroadcast(a, m) => {
                    let (ta, tm) = (self.value(*a), self.value(*m));
                    if grads.wants(*m) {
                        let mut gm = Tensor::zeros(tm.rows(), 1);
                        for r in 0..g.rows() {
                            let mut dot = 0.0;
                            for c in 0..g.cols() {
                                dot += g.get(r, c) * ta.get(r, c);
                            }
                            gm.set(r, 0, dot);
                        }
                        grads.add(*m, gm);
                    }
                    let mut ga = g;
                    for r in 0..ga.rows() {
                        let s = tm.get(r, 0);
                        for x in ga.row_slice_mut(r) {
                            *x *= s;
                        }
                    }
                    grads.add(*a, ga);
                }
                Op::Sub(a, b) => {
                    let neg = grads.wants(*b).then(|| g.map(|x| -x));
                    grads.add(*a, g);
                    if let Some(gb) = neg {
                        grads.add(*b, gb);
                    }
                }
                Op::Mul(a, b) => {
                    let mut ga = g.clone();
                    for (x, y) in ga.data_mut().iter_mut().zip(self.value(*b).data()) {
                        *x *= y;
                    }
                    let mut gb = g;
                    for (x, y) in gb.data_mut().iter_mut().zip(self.value(*a).data()) {
                        *x *= y;
                    }
                    grads.add(*a, ga);
                    grads.add(*b, gb);
                }
                Op::Scale(a, c) => grads.add(*a, g.map(|x| x * c)),
                Op::AddScalar(a, c) => {
                    debug_assert!(c.is_finite());
                    grads.add(*a, g);
                }
                Op::Relu(a) => {
                    let mut ga = g;
                    for (x, y) in ga.data_mut().iter_mut().zip(self.value(*a).data()) {
                        if *y <= 0.0 {
                            *x = 0.0;
                        }
                    }
                    grads.add(*a, ga);
                }
                Op::Tanh(a) => {
                    let mut ga = g;
                    for (x, y) in ga.data_mut().iter_mut().zip(self.nodes[i].value.data()) {
                        *x *= 1.0 - y * y;
                    }
                    grads.add(*a, ga);
                }
                Op::Sigmoid(a) => {
                    let mut ga = g;
                    for (x, y) in ga.data_mut().iter_mut().zip(self.nodes[i].value.data()) {
                        *x *= y * (1.0 - y);
                    }
                    grads.add(*a, ga);
                }
                Op::Exp(a) => {
                    let mut ga = g;
                    let (xs, ys) = (self.value(*a).data(), self.nodes[i].value.data());
                    for ((gx, &x), y) in ga.data_mut().iter_mut().zip(xs).zip(ys) {
                        *gx = if x.abs() > 30.0 { 0.0 } else { *gx * y };
                    }
                    grads.add(*a, ga);
                }
                Op::SoftmaxRows(a) => {
                    let y = &self.nodes[i].value;
                    let mut ga = Tensor::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let dot: f32 = (0..y.cols()).map(|c| g.get(r, c) * y.get(r, c)).sum();
                        for c in 0..y.cols() {
                            ga.set(r, c, y.get(r, c) * (g.get(r, c) - dot));
                        }
                    }
                    grads.add(*a, ga);
                }
                Op::ConcatCols(a, b) => {
                    let ca = self.value(*a).cols();
                    let mut ga = Tensor::zeros(g.rows(), ca);
                    let mut gb = Tensor::zeros(g.rows(), g.cols() - ca);
                    for r in 0..g.rows() {
                        ga.row_slice_mut(r).copy_from_slice(&g.row_slice(r)[..ca]);
                        gb.row_slice_mut(r).copy_from_slice(&g.row_slice(r)[ca..]);
                    }
                    grads.add(*a, ga);
                    grads.add(*b, gb);
                }
                Op::StackRows(parts) => {
                    let mut row = 0;
                    for p in parts {
                        let pr = self.value(*p).rows();
                        if grads.wants(*p) {
                            let at = row * g.cols();
                            let gp = g.data()[at..at + pr * g.cols()].to_vec();
                            grads.add(*p, Tensor::from_vec(pr, g.cols(), gp));
                        }
                        row += pr;
                    }
                }
                Op::SumRows(a) => {
                    let rows = self.value(*a).rows();
                    let mut ga = Tensor::zeros(rows, g.cols());
                    for r in 0..rows {
                        ga.row_slice_mut(r).copy_from_slice(g.row_slice(0));
                    }
                    grads.add(*a, ga);
                }
                Op::SumAll(a) => {
                    let ta = self.value(*a);
                    let ga = Tensor::filled(ta.rows(), ta.cols(), g.get(0, 0));
                    grads.add(*a, ga);
                }
                Op::SliceCols(a, from, to) => {
                    // Added into the slot's columns in place: a gate slice
                    // of the LSTM touches a quarter of its input.
                    if grads.wants(*a) {
                        let (rows, cols) = self.value(*a).shape();
                        let slot =
                            grads.slots[a.0].get_or_insert_with(|| Tensor::zeros(rows, cols));
                        for r in 0..rows {
                            let dst = &mut slot.row_slice_mut(r)[*from..*to];
                            for (o, x) in dst.iter_mut().zip(g.row_slice(r)) {
                                *o += x;
                            }
                        }
                    }
                }
                Op::Transpose(a) => grads.add(*a, g.transposed()),
                Op::GatherRows(rows) => {
                    for (r, &(src, row)) in rows.iter().enumerate() {
                        if grads.wants(src) {
                            let shape = self.value(src).shape();
                            let slot = grads.slots[src.0]
                                .get_or_insert_with(|| Tensor::zeros(shape.0, shape.1));
                            for (o, x) in slot.row_slice_mut(row).iter_mut().zip(g.row_slice(r)) {
                                *o += x;
                            }
                        }
                    }
                }
                Op::SegmentSum(a, lens) => {
                    let mut ga = Tensor::zeros(self.value(*a).rows(), g.cols());
                    let mut row = 0;
                    for (s, &len) in lens.iter().enumerate() {
                        for r in row..row + len {
                            ga.row_slice_mut(r).copy_from_slice(g.row_slice(s));
                        }
                        row += len;
                    }
                    grads.add(*a, ga);
                }
            }
        }
        (self.value(loss).get(0, 0), params)
    }
}

/// The pending gradient of every node during [`Graph::backward`].
struct Grads<'n> {
    slots: Vec<Option<Tensor>>,
    nodes: &'n [Node],
}

impl Grads<'_> {
    /// Whether `v` takes a gradient (a parameter is upstream of it).
    fn wants(&self, v: Var) -> bool {
        self.nodes[v.0].grad
    }

    /// Add the product `at·w` to `v`'s gradient: summed apart, then added,
    /// by the GEMM's accumulating epilogue.
    fn add_product(&mut self, v: Var, at: &Tensor, w: &PackedGemm) {
        let accumulate = self.slots[v.0].is_some();
        let out = self.slots[v.0].get_or_insert_with(|| Tensor::zeros(at.rows(), w.n()));
        assert_eq!((at.cols(), out.shape()), (w.k(), (at.rows(), w.n())), "matmul grad shape");
        gemm_packed(
            at.rows(),
            at.data(),
            w,
            accumulate,
            None,
            Activation::Identity,
            out.data_mut(),
        );
    }

    /// Add `g` to `v`'s gradient; the first one is kept as is. Dropped when
    /// `v` takes none.
    fn add(&mut self, v: Var, g: Tensor) {
        if !self.wants(v) {
            return;
        }
        match &mut self.slots[v.0] {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;

    /// Finite-difference check of d(loss)/d(param) for a closure recording
    /// a scalar loss, to relative tolerance `tol`.
    fn check_gradient(
        store: &mut ParamStore,
        id: ParamId,
        build: impl FnMut(&mut Graph) -> Var,
        tol: f32,
    ) {
        let report = crate::gradcheck::check_gradient(store, id, 1e-2, build);
        assert!(report.passes(tol), "grad mismatch: {report:?}");
    }

    fn seeded_param(store: &mut ParamStore, rows: usize, cols: usize, seed: f32) -> ParamId {
        let data: Vec<f32> =
            (0..rows * cols).map(|i| ((i as f32 + seed) * 0.7).sin() * 0.5).collect();
        store.register("p", Tensor::from_vec(rows, cols, data))
    }

    #[test]
    fn forward_values_are_recorded() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let a = g.constant(Tensor::row(vec![1.0, 2.0]));
        let b = g.scale(a, 3.0);
        assert_eq!(g.value(b).data(), &[3.0, 6.0]);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn matmul_gradient() {
        let mut store = ParamStore::new();
        let w = seeded_param(&mut store, 3, 2, 0.0);
        check_gradient(
            &mut store,
            w,
            |g| {
                let x = g.constant(Tensor::from_vec(2, 3, vec![0.1, -0.4, 0.3, 0.7, 0.2, -0.9]));
                let wv = g.param(w);
                let y = g.matmul(x, wv);
                g.sum_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn deep_chain_gradient() {
        let mut store = ParamStore::new();
        let w = seeded_param(&mut store, 2, 2, 3.0);
        check_gradient(
            &mut store,
            w,
            |g| {
                let x = g.constant(Tensor::row(vec![0.3, -0.6]));
                let wv = g.param(w);
                let h = g.matmul(x, wv);
                let h = g.tanh(h);
                let h = g.matmul(h, wv);
                let h = g.sigmoid(h);
                g.sum_all(h)
            },
            2e-2,
        );
    }

    #[test]
    fn softmax_gradient() {
        let mut store = ParamStore::new();
        let w = seeded_param(&mut store, 1, 4, 1.0);
        check_gradient(
            &mut store,
            w,
            |g| {
                let wv = g.param(w);
                let sm = g.softmax_rows(wv);
                let weights = g.constant(Tensor::row(vec![1.0, -2.0, 0.5, 3.0]));
                let y = g.mul(sm, weights);
                g.sum_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn broadcast_ops_gradient() {
        let mut store = ParamStore::new();
        let b = seeded_param(&mut store, 1, 3, 2.0);
        check_gradient(
            &mut store,
            b,
            |g| {
                let x = g.constant(Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
                let bv = g.param(b);
                let y = g.add_row_broadcast(x, bv);
                let mask = g.constant(Tensor::from_vec(2, 1, vec![1.0, 0.5]));
                let y = g.mul_col_broadcast(y, mask);
                let y = g.relu(y);
                g.mean_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn mask_gradient_flows_into_mask() {
        let mut store = ParamStore::new();
        let m = store.register("m", Tensor::from_vec(2, 1, vec![0.7, -0.2]));
        check_gradient(
            &mut store,
            m,
            |g| {
                let x = g.constant(Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]));
                let mv = g.param(m);
                let y = g.mul_col_broadcast(x, mv);
                g.sum_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn concat_slice_stack_gradients() {
        let mut store = ParamStore::new();
        let w = seeded_param(&mut store, 1, 4, 5.0);
        check_gradient(
            &mut store,
            w,
            |g| {
                let wv = g.param(w);
                let left = g.slice_cols(wv, 0, 2);
                let right = g.slice_cols(wv, 2, 4);
                let cat = g.concat_cols(right, left);
                let stacked = g.stack_rows(&[cat, wv]);
                let scaled = g.scale(stacked, 1.5);
                g.sum_all(scaled)
            },
            1e-2,
        );
    }

    #[test]
    fn transpose_and_mean_rows_gradient() {
        let mut store = ParamStore::new();
        let w = seeded_param(&mut store, 2, 3, 7.0);
        check_gradient(
            &mut store,
            w,
            |g| {
                let wv = g.param(w);
                let t = g.transpose(wv);
                let m = g.mean_rows(t);
                let sq = g.mul(m, m);
                g.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn kl_gradient() {
        let mut store = ParamStore::new();
        let mu = seeded_param(&mut store, 1, 3, 0.0);
        let lv = seeded_param(&mut store, 1, 3, 11.0);
        check_gradient(
            &mut store,
            mu,
            |g| {
                let m = g.param(mu);
                let l = g.param(lv);
                g.kl_standard_normal(m, l)
            },
            1e-2,
        );
        check_gradient(
            &mut store,
            lv,
            |g| {
                let m = g.param(mu);
                let l = g.param(lv);
                g.kl_standard_normal(m, l)
            },
            1e-2,
        );
    }

    #[test]
    fn kl_is_zero_at_standard_normal() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let mu = g.constant(Tensor::zeros(4, 8));
        let lv = g.constant(Tensor::zeros(4, 8));
        let kl = g.kl_standard_normal(mu, lv);
        assert!(g.value(kl).get(0, 0).abs() < 1e-6);
    }

    #[test]
    fn kl_positive_away_from_prior() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let mu = g.constant(Tensor::filled(2, 4, 1.5));
        let lv = g.constant(Tensor::filled(2, 4, -1.0));
        let kl = g.kl_standard_normal(mu, lv);
        assert!(g.value(kl).get(0, 0) > 0.0);
    }

    /// Past the ±30 clamp `exp` is constant, so its gradient is zero there
    /// (the finite difference sees a flat function); inside it is `exp`.
    #[test]
    fn exp_gradient_is_zero_past_the_clamp() {
        // One point per store: e^30 would swamp the others' differences.
        for at in [-35.0, 0.5, 35.0] {
            let mut store = ParamStore::new();
            let x = store.register("x", Tensor::scalar(at));
            check_gradient(
                &mut store,
                x,
                |g| {
                    let xv = g.param(x);
                    g.exp(xv)
                },
                1e-2,
            );
        }
    }

    #[test]
    fn mse_gradient_and_value() {
        let mut store = ParamStore::new();
        let w = seeded_param(&mut store, 1, 2, 4.0);
        check_gradient(
            &mut store,
            w,
            |g| {
                let wv = g.param(w);
                let target = g.constant(Tensor::row(vec![1.0, -1.0]));
                g.mse(wv, target)
            },
            1e-2,
        );
    }

    #[test]
    fn reparameterize_with_zero_noise_is_identity_on_mu() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let mu = g.constant(Tensor::row(vec![0.3, -0.7]));
        let lv = g.constant(Tensor::row(vec![0.1, 0.2]));
        let eps = g.constant(Tensor::zeros(1, 2));
        let z = g.reparameterize(mu, lv, eps);
        assert_eq!(g.value(z).data(), &[0.3, -0.7]);
    }

    #[test]
    fn param_used_twice_accumulates_gradient() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(2.0));
        let mut g = Graph::new(&store);
        let wv = g.param(w);
        let y = g.mul(wv, wv); // y = w², dy/dw = 2w = 4
        let (_, grads) = g.backward(y);
        grads.merge_into(&mut store);
        assert!((store.grad(w).get(0, 0) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn a_parameter_has_one_leaf_per_tape() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(2.0));
        let mut g = Graph::new(&store);
        let (a, b) = (g.param(w), g.param(w));
        assert_eq!(a, b);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn backward_returns_loss_value() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let c = g.constant(Tensor::scalar(42.0));
        let loss = g.scale(c, 0.5);
        assert_eq!(g.backward(loss).0, 21.0);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_rejects_non_scalar_loss() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let c = g.constant(Tensor::row(vec![1.0, 2.0]));
        g.backward(c);
    }
}
