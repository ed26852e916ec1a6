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
//! The graph is one of the two [`Exec`]utors a model forward runs on: its
//! fused ops (`linear`, `heads`, `lstm_step`, `merge`, ...) compute their values
//! with the serving kernels of [`crate::infer`] and keep what their
//! hand-written backward needs.
//!
//! Every op's gradient rule is verified against central finite differences in
//! the unit tests below and in the crate's proptest suite.

use crate::act::Kid;
use crate::infer::{self, Exec, Row};
use crate::layers::{Activation, Fold, LevelStates, LstmCell, LstmState};
use crate::pack::{gemm_packed, PackedGemm};
use crate::params::{GradBuffer, ParamId, ParamStore};
use crate::tensor::Tensor;
use std::ops::Range;

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
    Add(Var, Var),
    /// `[r,c] ⊙ [r,1]` column-broadcast (per-row scaling, e.g. set masks).
    MulColBroadcast(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var, f32),
    Tanh(Var),
    Exp(Var),
    SumAll(Var),
    /// Column ranges of vars, side by side.
    Concat(Vec<(Var, Range<usize>)>),
    /// [`infer::pool_into`] of (rows, weights, segment lengths, scales); a
    /// row is row `.1` of var `.0`, or a constant. A gather is a pool of one
    /// row per segment, unscaled.
    Pool(Vec<Option<(Var, usize)>>, Option<Vec<f32>>, Vec<usize>, Vec<f32>),
    /// `act(x·W + b)` of (x, W, b, act) ([`infer::linear_into`]).
    Linear(Var, Var, Option<Var>, Activation),
    /// An LSTM cell's own term ([`infer::lstm_own_into`]) of (own input,
    /// W_ih, bias, cell).
    LstmOwn(Var, Var, Var, LstmCell),
    /// `[h' | c']` of one folded LSTM step ([`infer::lstm_into`]) from (own
    /// term, h, c, W_ih, W_hh), with its gate pre-activations and its cell.
    Lstm([Var; 5], Tensor, LstmCell),
    /// `x·[W_0 | … | W_{H-1}]` ([`infer::heads_into`]) of (x, per-head W).
    Heads(Var, Vec<Var>),
    /// `q·[W_0ᵀ | … | W_{H-1}ᵀ]` ([`infer::heads_t_into`]) of (q, per-head
    /// W).
    HeadsT(Var, Vec<Var>),
    /// Attention logits ([`infer::logits_into`]) of (query rows, x, scale).
    Logits(Vec<Option<(Var, usize)>>, Var, f32),
    /// Subtree states ([`crate::act::merge_states`]) of (logits, values,
    /// each kid's row — `None` for a constant — and each row's kid count).
    Merge(Var, Var, Vec<Option<usize>>, Vec<usize>),
    /// Contexts ([`infer::context_into`]) of (state rows, heads).
    Context(Vec<Option<(Var, usize)>>, usize),
    /// VAE draws ([`infer::sample_into`]) from (h, latent); `eps` row `r` is
    /// output row `r`'s noise.
    Sample(Var, usize, Tensor),
}

impl Op {
    /// Call `f` on every input of the op.
    fn for_each_input(&self, mut f: impl FnMut(Var)) {
        match self {
            Op::Constant | Op::Param(_) => {}
            Op::Add(a, b) | Op::MulColBroadcast(a, b) | Op::Sub(a, b) | Op::Mul(a, b) => {
                f(*a);
                f(*b);
            }
            Op::Scale(a, _)
            | Op::AddScalar(a, _)
            | Op::Tanh(a)
            | Op::Exp(a)
            | Op::SumAll(a)
            | Op::Sample(a, ..) => f(*a),
            Op::Concat(parts) => parts.iter().for_each(|(v, _)| f(*v)),
            Op::Pool(rows, ..) => rows.iter().flatten().for_each(|&(v, _)| f(v)),
            Op::Linear(x, w, b, _) => [*x, *w].into_iter().chain(*b).for_each(f),
            Op::LstmOwn(x, w, b, _) => [*x, *w, *b].into_iter().for_each(f),
            Op::Lstm(vars, ..) => vars.iter().copied().for_each(f),
            Op::Heads(x, ws) => [x].into_iter().chain(ws).copied().for_each(f),
            Op::HeadsT(q, ws) => [q].into_iter().chain(ws).copied().for_each(f),
            Op::Logits(q, x, _) => q.iter().flatten().map(|&(v, _)| v).chain([*x]).for_each(f),
            Op::Merge(s, v, ..) => [*s, *v].into_iter().for_each(f),
            Op::Context(rows, _) => rows.iter().flatten().for_each(|&(v, _)| f(v)),
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

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.shape(), tb.shape(), "add shape mismatch");
        let mut v = ta.clone();
        v.add_assign(tb);
        self.push(Op::Add(a, b), v)
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

    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::tanh);
        self.push(Op::Tanh(a), v)
    }

    /// Elementwise `exp`, with inputs clamped to ±30 to avoid overflow in the
    /// VAE's `exp(logvar)` term early in training. Past the clamp the output
    /// is constant, so the gradient there is zero.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.clamp(-30.0, 30.0).exp());
        self.push(Op::Exp(a), v)
    }

    // ---- shape ops --------------------------------------------------------

    /// Column means: `[r,c] -> [1,c]`.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let (rows, cols) = self.value(a).shape();
        let all = (0..rows).map(|r| Row::Of(&a, r));
        Exec::pool(self, all, None, &[rows], &[1.0 / rows.max(1) as f32], cols)
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

    // ---- backward -----------------------------------------------------------

    /// Backpropagate from scalar `loss`. Returns the loss value and every
    /// parameter's gradient; add those to the store with
    /// [`GradBuffer::merge_into`] once the graph is dropped.
    ///
    /// Only nodes with a parameter upstream get a gradient. A parameter's
    /// one leaf sums the contributions of every use in reverse tape order,
    /// then joins the buffer. Both products of a `linear` or `lstm_step`
    /// backward run the packed GEMM: the input gradient `g·Wᵀ` over the
    /// store's packed transpose (built once per optimizer step), and the
    /// weight gradient `xᵀ·g` summed apart, then added into `W`'s slot.
    ///
    /// # Panics
    /// Panics if `loss` is not `1x1`.
    pub fn backward(&self, loss: Var) -> (f32, GradBuffer) {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        let mut params = GradBuffer::new();
        let mut grads =
            Grads { slots: vec![None; self.nodes.len()], nodes: &self.nodes, folds: Vec::new() };
        grads.add(loss, Tensor::scalar(1.0));

        for i in (0..self.nodes.len()).rev() {
            // A cell's pending `W_fold` gradient reaches `W_hh` and `W_ih`
            // before an own term of the cell adds to `W_ih`, and before
            // either leaf hands its slot on.
            match &self.nodes[i].op {
                Op::LstmOwn(_, w_ih, ..) => grads.hand_folds(|f| f.w_ih == *w_ih),
                Op::Param(_) => grads.hand_folds(|f| f.w_ih.0 == i || f.w_hh.0 == i),
                _ => {}
            }
            let g = match grads.slots[i].take() {
                Some(g) => g,
                None => continue,
            };
            match &self.nodes[i].op {
                Op::Constant => {}
                Op::Param(id) => params.accumulate(*id, g),
                Op::Add(a, b) => {
                    grads.add(*a, g.clone());
                    grads.add(*b, g);
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
                Op::Tanh(a) => {
                    let mut ga = g;
                    for (x, y) in ga.data_mut().iter_mut().zip(self.nodes[i].value.data()) {
                        *x *= 1.0 - y * y;
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
                Op::SumAll(a) => {
                    let ta = self.value(*a);
                    let ga = Tensor::filled(ta.rows(), ta.cols(), g.get(0, 0));
                    grads.add(*a, ga);
                }
                Op::Concat(parts) => {
                    // Added into the slot's columns in place: a gate slice
                    // of the LSTM touches a quarter of its input.
                    let mut at = 0;
                    for (a, cols) in parts {
                        if grads.wants(*a) {
                            let slot = grads.slot(*a, self.value(*a).shape());
                            for r in 0..g.rows() {
                                let src = &g.row_slice(r)[at..at + cols.len()];
                                let dst = &mut slot.row_slice_mut(r)[cols.clone()];
                                dst.iter_mut().zip(src).for_each(|(o, x)| *o += x);
                            }
                        }
                        at += cols.len();
                    }
                }
                Op::Pool(rows, weights, lens, scales) => {
                    let mut at = 0;
                    for (s, &len) in lens.iter().enumerate() {
                        for r in at..at + len {
                            let w = weights.as_ref().map_or(1.0, |w| w[r]);
                            let Some((src, row)) = rows[r] else { continue };
                            if w == 0.0 || !grads.wants(src) {
                                continue;
                            }
                            let slot = grads.slot(src, self.value(src).shape());
                            axpy(slot.row_slice_mut(row), w * scales[s], g.row_slice(s));
                        }
                        at += len;
                    }
                }
                Op::Linear(x, w, b, act) => {
                    let gp = act_grad(g, &self.nodes[i].value, *act);
                    if let Some(b) = b {
                        grads.add(*b, col_sums(&gp));
                    }
                    grads.add_linear(*x, *w, self.value(*x), &gp, self.store);
                }
                Op::LstmOwn(x, w_ih, bias, cell) => {
                    assert!(!grads.wants(*x), "an LSTM own input is a constant");
                    grads.add(*bias, col_sums(&g));
                    // `W_own` is `W_ih`'s rows `child..`.
                    let (shape, gp) = (self.value(*w_ih).shape(), PackedGemm::pack(&g));
                    let xt = self.value(*x).transposed();
                    grads.add_product(*w_ih, shape, cell.child_dim, &xt, &gp);
                }
                Op::Lstm([own, h, c, w_ih, w_hh], gates, cell) => {
                    let (rows, d) = (gates.rows(), gates.cols() / 4);
                    let hc = &self.nodes[i].value;
                    // The activated gates and tanh(c') by the tier's lane
                    // functions: the bits the kernel computed.
                    let mut gates = gates.clone();
                    for (k, seg) in gates.data_mut().chunks_mut(d).enumerate() {
                        let act = if k % 4 == 2 { Activation::Tanh } else { Activation::Sigmoid };
                        crate::act::activate(act, seg);
                    }
                    let mut tc: Vec<f32> =
                        (0..rows).flat_map(|r| hc.row_slice(r)[d..].to_vec()).collect();
                    crate::act::activate(Activation::Tanh, &mut tc);
                    let c_prev = self.value(*c);
                    let mut dg = Tensor::zeros(rows, 4 * d);
                    let mut dc_prev = Tensor::zeros(rows, d);
                    for r in 0..rows {
                        let (a, gr) = (gates.row_slice(r), g.row_slice(r));
                        let dgr = dg.row_slice_mut(r);
                        for j in 0..d {
                            let (ig, fg, gg, og) = (a[j], a[d + j], a[2 * d + j], a[3 * d + j]);
                            let (t, gh) = (tc[r * d + j], gr[j]);
                            let dc = gr[d + j] + gh * og * (1.0 - t * t);
                            dgr[j] = dc * gg * ig * (1.0 - ig);
                            dgr[d + j] = dc * c_prev.get(r, j) * fg * (1.0 - fg);
                            dgr[2 * d + j] = dc * ig * (1.0 - gg * gg);
                            dgr[3 * d + j] = gh * t * og * (1.0 - og);
                            dc_prev.set(r, j, dc * fg);
                        }
                    }
                    grads.add(*c, dc_prev);
                    if grads.wants(*h) {
                        grads.add(*h, dg.matmul_packed(self.store.lstm_fold_t(cell)));
                    }
                    // `W_fold`'s gradient `hᵀ·dg`, summed over the cell's
                    // steps into one slot ([`Grads::hand_folds`] passes it
                    // on).
                    let ht = self.value(*h).transposed();
                    grads.add_fold(*w_ih, *w_hh, cell, &ht, &PackedGemm::pack(&dg));
                    grads.add(*own, dg);
                }
                Op::Heads(x, ws) => {
                    // Each head as the linear it is, last head first: its
                    // columns' gradient into its weight, and its input
                    // gradient added head by head.
                    let (xv, mut at) = (self.value(*x), g.cols());
                    for &w in ws.iter().rev() {
                        let d = self.value(w).cols();
                        at -= d;
                        let mut gp = Tensor::zeros(g.rows(), d);
                        for r in 0..g.rows() {
                            gp.row_slice_mut(r).copy_from_slice(&g.row_slice(r)[at..at + d]);
                        }
                        grads.add_linear(*x, w, xv, &gp, self.store);
                    }
                }
                Op::HeadsT(q, ws) => {
                    // Head `h`: `q_h·W_hᵀ`, so `q_h` takes `g_h·W_h` and `W_h`
                    // takes `g_hᵀ·q_h`.
                    let qv = self.value(*q);
                    let d = qv.cols() / ws.len();
                    let mut gq = Tensor::zeros(qv.rows(), qv.cols());
                    for (h, &w) in ws.iter().enumerate() {
                        let wv = self.value(w);
                        let k = wv.rows();
                        let mut gw = Tensor::zeros(k, d);
                        for r in 0..g.rows() {
                            let gr = &g.row_slice(r)[h * k..(h + 1) * k];
                            let qh = &qv.row_slice(r)[h * d..(h + 1) * d];
                            for (j, &gj) in gr.iter().enumerate() {
                                axpy(
                                    &mut gq.row_slice_mut(r)[h * d..(h + 1) * d],
                                    gj,
                                    wv.row_slice(j),
                                );
                                axpy(gw.row_slice_mut(j), gj, qh);
                            }
                        }
                        grads.add(w, gw);
                    }
                    grads.add(*q, gq);
                }
                Op::Logits(q, x, scale) => {
                    let xv = self.value(*x);
                    let k = xv.cols();
                    let mut gx = Tensor::zeros(xv.rows(), k);
                    for (i, src) in q.iter().enumerate() {
                        let Some((qv, qr)) = *src else { continue };
                        let qi = self.value(qv).row_slice(qr);
                        for (h, &gs) in g.row_slice(i).iter().enumerate() {
                            let gs = gs * scale;
                            axpy(gx.row_slice_mut(i), gs, &qi[h * k..(h + 1) * k]);
                            if grads.wants(qv) {
                                let slot = grads.slot(qv, self.value(qv).shape());
                                axpy(
                                    &mut slot.row_slice_mut(qr)[h * k..(h + 1) * k],
                                    gs,
                                    xv.row_slice(i),
                                );
                            }
                        }
                    }
                    grads.add(*x, gx);
                }
                Op::Merge(s, v, kids, lens) => {
                    // The states' `m` are held fixed: `U / Z` does not depend
                    // on them, and each `Z` and `U` is then a sum of
                    // `e^{s_i − m}` terms. Parents come after their kids, so
                    // a reverse walk has each row's gradient whole before it
                    // passes `e^{m_kid − m}` of it down.
                    let (sv, vv, st) = (self.value(*s), self.value(*v), &self.nodes[i].value);
                    let (heads, w) = (sv.cols(), st.cols());
                    let d = vv.cols() / heads.max(1);
                    let (mut gs, mut gv, mut gst) =
                        (Tensor::zeros(sv.rows(), heads), Tensor::zeros(vv.rows(), vv.cols()), g);
                    let mut end = kids.len();
                    for (r, &n) in lens.iter().enumerate().rev() {
                        let mine = &kids[end - n..end];
                        end -= n;
                        let (done, rest) = gst.data_mut().split_at_mut(r * w);
                        let gr = &rest[..w];
                        for h in 0..heads {
                            let (m, gz) = (st.get(r, h), gr[heads + h]);
                            let gu = &gr[2 * heads + h * d..][..d];
                            let a = crate::act::exp_nan(sv.get(r, h) - m);
                            let vh = &vv.row_slice(r)[h * d..(h + 1) * d];
                            let gu_v: f32 = gu.iter().zip(vh).map(|(x, y)| x * y).sum();
                            gs.set(r, h, a * (gz + gu_v));
                            axpy(&mut gv.row_slice_mut(r)[h * d..(h + 1) * d], a, gu);
                            for j in mine.iter().flatten() {
                                let a = crate::act::exp_nan(st.get(*j, h) - m);
                                let kid = &mut done[j * w..(j + 1) * w];
                                kid[heads + h] += a * gz;
                                axpy(&mut kid[2 * heads + h * d..][..d], a, gu);
                            }
                        }
                    }
                    grads.add(*s, gs);
                    grads.add(*v, gv);
                }
                Op::Context(rows, heads) => {
                    // `ctx = U / Z`: `U` takes `g / Z`, `Z` takes `−g·ctx / Z`.
                    let (ctx, heads) = (&self.nodes[i].value, *heads);
                    let d = ctx.cols() / heads;
                    for (r, src) in rows.iter().enumerate() {
                        let Some((sv, sr)) = *src else { continue };
                        if !grads.wants(sv) {
                            continue;
                        }
                        let z: Vec<f32> = self.value(sv).row_slice(sr)[heads..2 * heads].to_vec();
                        let slot = grads.slot(sv, self.value(sv).shape()).row_slice_mut(sr);
                        for (h, &zh) in z.iter().enumerate() {
                            let span = h * d..(h + 1) * d;
                            let (gh, ch) =
                                (&g.row_slice(r)[span.clone()], &ctx.row_slice(r)[span.clone()]);
                            let g_c: f32 = gh.iter().zip(ch).map(|(x, y)| x * y).sum();
                            slot[heads + h] -= g_c / zh;
                            axpy(&mut slot[2 * heads + h * d..][..d], 1.0 / zh, gh);
                        }
                    }
                }
                Op::Sample(h, latent, eps) => {
                    let (hv, l) = (self.value(*h), *latent);
                    let mut gh = Tensor::zeros(hv.rows(), 2 * l);
                    for row in 0..g.rows() {
                        let r = row % hv.rows();
                        for j in 0..l {
                            let (gz, t) = (g.get(row, j), hv.get(r, l + j).tanh());
                            let std = (0.5 * (8.0 * t)).exp();
                            let gr = gh.row_slice_mut(r);
                            gr[j] += gz;
                            gr[l + j] += gz * eps.get(row, j) * std * 4.0 * (1.0 - t * t);
                        }
                    }
                    grads.add(*h, gh);
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
    /// Each LSTM cell's `W_fold` gradient summed over its steps since the
    /// last hand-over.
    folds: Vec<FoldGrad>,
}

/// One cell's pending `W_fold` gradient, `[hidden, 4·hidden]`.
struct FoldGrad {
    w_ih: Var,
    w_hh: Var,
    cell: LstmCell,
    sum: Tensor,
}

impl Grads<'_> {
    /// Whether `v` takes a gradient (a parameter is upstream of it).
    fn wants(&self, v: Var) -> bool {
        self.nodes[v.0].grad
    }

    /// Add the product `at·w` to rows `row0..` of `v`'s gradient (`shape`):
    /// summed apart, then added, by the GEMM's accumulating epilogue.
    fn add_product(
        &mut self,
        v: Var,
        shape: (usize, usize),
        row0: usize,
        at: &Tensor,
        w: &PackedGemm,
    ) {
        let accumulate = self.slots[v.0].is_some();
        let out = self.slot(v, shape);
        let fits = row0 + at.rows() <= shape.0 && shape.1 == w.n();
        assert!(at.cols() == w.k() && fits, "matmul grad shape");
        let block = &mut out.data_mut()[row0 * w.n()..(row0 + at.rows()) * w.n()];
        gemm_packed(at.rows(), at.data(), w, accumulate, None, Activation::Identity, block);
    }

    /// Add one step's `W_fold` gradient `at·w` (`hᵀ·dg`) to its cell's
    /// pending sum: summed apart, then added, by the GEMM's accumulating
    /// epilogue; the first step's product starts the sum.
    fn add_fold(&mut self, w_ih: Var, w_hh: Var, cell: &LstmCell, at: &Tensor, w: &PackedGemm) {
        let at_fold = self.folds.iter().position(|f| f.w_ih == w_ih);
        let (f, accumulate) = match at_fold {
            Some(k) => (&mut self.folds[k], true),
            None => {
                let sum = Tensor::zeros(at.rows(), w.n());
                self.folds.push(FoldGrad { w_ih, w_hh, cell: cell.clone(), sum });
                (self.folds.last_mut().expect("just pushed"), false)
            }
        };
        assert!(at.cols() == w.k() && f.sum.shape() == (at.rows(), w.n()), "W_fold grad shape");
        let out = f.sum.data_mut();
        gemm_packed(at.rows(), at.data(), w, accumulate, None, Activation::Identity, out);
    }

    /// Hand every pending `W_fold` sum that `pick` selects to the weights the
    /// fold sums: all of `W_hh`, and `W_ih`'s child-slot rows (its estimate
    /// rows also take the own term's share, added after).
    fn hand_folds(&mut self, pick: impl Fn(&FoldGrad) -> bool) {
        while let Some(k) = self.folds.iter().position(&pick) {
            let FoldGrad { w_ih, w_hh, cell, sum } = self.folds.swap_remove(k);
            let (ih, n) = ((cell.input_dim, 4 * cell.hidden_dim), 4 * cell.hidden_dim);
            let (child, tail) = (cell.child_dim, cell.input_dim - cell.hidden_dim);
            self.add_rows(w_ih, ih, 0, &sum.data()[..child * n]);
            self.add_rows(w_ih, ih, tail + child, &sum.data()[child * n..]);
            self.add(w_hh, sum);
        }
    }

    /// Add `block` (whole rows) to rows `row0..` of `v`'s gradient
    /// (`shape`).
    fn add_rows(&mut self, v: Var, shape: (usize, usize), row0: usize, block: &[f32]) {
        if !self.wants(v) || block.is_empty() {
            return;
        }
        let at = row0 * shape.1;
        let slot = &mut self.slot(v, shape).data_mut()[at..at + block.len()];
        slot.iter_mut().zip(block).for_each(|(o, x)| *o += x);
    }

    /// `v`'s gradient slot, zeros of `shape` until something is added.
    fn slot(&mut self, v: Var, shape: (usize, usize)) -> &mut Tensor {
        self.slots[v.0].get_or_insert_with(|| Tensor::zeros(shape.0, shape.1))
    }

    /// The gradients of `x·W` given `gp`, the gradient of the product: `gp·Wᵀ`
    /// over the store's packed transpose into `x`, `xᵀ·gp` into `W` (a
    /// parameter leaf).
    fn add_linear(&mut self, x: Var, w: Var, xv: &Tensor, gp: &Tensor, store: &ParamStore) {
        let Op::Param(id) = self.nodes[w.0].op else {
            unreachable!("a linear weight is a parameter")
        };
        if self.wants(x) {
            self.add(x, gp.matmul_packed(store.packed_t(id)));
        }
        let shape = store.value(id).shape();
        self.add_product(w, shape, 0, &xv.transposed(), &PackedGemm::pack(gp));
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

/// `y += a·x`, elementwise.
fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    y.iter_mut().zip(x).for_each(|(y, x)| *y += a * x);
}

/// The gradient `g` of an activation's output `y` taken back through it.
fn act_grad(mut g: Tensor, y: &Tensor, act: Activation) -> Tensor {
    for (gx, &y) in g.data_mut().iter_mut().zip(y.data()) {
        *gx *= match act {
            Activation::Identity => 1.0,
            Activation::Relu => f32::from(u8::from(y > 0.0)),
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
        };
    }
    g
}

/// Column sums of `g`: a row-broadcast bias's gradient.
fn col_sums(g: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(1, g.cols());
    for r in 0..g.rows() {
        out.data_mut().iter_mut().zip(g.row_slice(r)).for_each(|(o, x)| *o += x);
    }
    out
}

/// A picked row as the tape records it: constant rows take no gradient.
fn picked(rows: &[Row<Var>]) -> Vec<Option<(Var, usize)>> {
    rows.iter()
        .map(|r| match *r {
            Row::Of(v, i) => Some((*v, i)),
            Row::Const(_) => None,
        })
        .collect()
}

/// The tape: every op is recorded with its value from the serving kernel.
impl Exec for Graph<'_> {
    type T = Var;

    fn value<'a>(&'a self, t: &'a Var) -> &'a Tensor {
        Graph::value(self, *t)
    }

    fn constant(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut Tensor)) -> Var {
        let mut t = Tensor::zeros(rows, cols);
        fill(&mut t);
        Graph::constant(self, t)
    }

    fn linear(&mut self, x: &Var, w: ParamId, b: Option<ParamId>, act: Activation) -> Var {
        let mut y = Tensor::zeros(Graph::value(self, *x).rows(), self.store.value(w).cols());
        infer::linear_into(self.store, Graph::value(self, *x), w, b, act, &mut y);
        let (w, b) = (self.param(w), b.map(|b| self.param(b)));
        self.push(Op::Linear(*x, w, b, act), y)
    }

    /// The folded map's value, recorded as `b` over the middle rows.
    fn fold(&mut self, x: &Var, mid: Option<&Var>, fold: &Fold, act: Activation) -> Var {
        let mut y = Tensor::zeros(Graph::value(self, *x).rows(), fold.b.out_dim);
        infer::fold_into(self.store, Graph::value(self, *x), fold, act, &mut y);
        let mid = match mid {
            Some(mid) => *mid,
            None => self.linear(x, fold.a.w, Some(fold.a.b), Activation::Identity),
        };
        let mid = match fold.cols == fold.a.out_dim {
            true => mid,
            false => self.concat(&[(&mid, 0..fold.cols)]),
        };
        let (w, b) = (self.param(fold.b.w), self.param(fold.b.b));
        self.push(Op::Linear(mid, w, Some(b), act), y)
    }

    fn lstm_own(&mut self, cell: &LstmCell, own: &Var) -> Var {
        let mut y = Tensor::zeros(Graph::value(self, *own).rows(), 4 * cell.hidden_dim);
        infer::lstm_own_into(self.store, cell, Graph::value(self, *own), &mut y);
        let (w_ih, bias) = (self.param(cell.w_ih), self.param(cell.bias));
        self.push(Op::LstmOwn(*own, w_ih, bias, cell.clone()), y)
    }

    fn levels(&mut self, _rows: usize, _d: usize) -> LevelStates<Var> {
        LevelStates::Split { parts: Vec::new(), filled: 0 }
    }

    /// The own rows gathered into a tensor of their own, then the step
    /// over it, each level its own pair.
    fn lstm_step<'a>(
        &mut self,
        cell: &LstmCell,
        own: impl IntoIterator<Item = Row<'a, Var>>,
        h: &Var,
        c: &Var,
        out: &mut LevelStates<Var>,
    ) {
        let LevelStates::Split { parts, filled } = out else {
            unreachable!("the tape steps into one pair per level")
        };
        let (rows, d) = (Graph::value(self, *h).rows(), cell.hidden_dim);
        let own = Exec::gather(self, rows, 4 * d, own);
        let mut gates = Graph::value(self, own).clone();
        let (mut h_out, mut c_out) = (Tensor::zeros(rows, d), Tensor::zeros(rows, d));
        let (hv, cv) = (Graph::value(self, *h), Graph::value(self, *c));
        infer::lstm_into(self.store, cell, hv, cv, &mut gates, h_out.data_mut(), c_out.data_mut());
        let (w_ih, w_hh) = (self.param(cell.w_ih), self.param(cell.w_hh));
        let hc = self.push(
            Op::Lstm([own, *h, *c, w_ih, w_hh], gates, cell.clone()),
            h_out.concat_cols(&c_out),
        );
        let state = LstmState {
            h: Exec::concat(self, &[(&hc, 0..d)]),
            c: Exec::concat(self, &[(&hc, d..2 * d)]),
        };
        parts.push((*filled, state));
        *filled += rows;
    }

    /// The levels' rows gathered into one pair.
    fn stacked(&mut self, levels: LevelStates<Var>) -> LstmState<Var> {
        let LevelStates::Split { parts, filled } = levels else {
            unreachable!("the tape steps into one pair per level")
        };
        let ends = parts.iter().skip(1).map(|&(s, _)| s).chain([filled]);
        let spans: Vec<(&LstmState<Var>, usize)> =
            parts.iter().zip(ends).map(|((s, p), e)| (p, e - s)).collect();
        let d = parts.first().map_or(0, |(_, p)| Graph::value(self, p.h).cols());
        let all = |of: fn(&LstmState<Var>) -> &Var| -> Vec<Row<Var>> {
            spans.iter().flat_map(|&(p, n)| (0..n).map(move |i| Row::Of(of(p), i))).collect()
        };
        let (h, c) = (all(|p| &p.h), all(|p| &p.c));
        LstmState { h: Exec::gather(self, filled, d, h), c: Exec::gather(self, filled, d, c) }
    }

    fn heads(&mut self, x: &Var, w: &[ParamId]) -> Var {
        let rows = Graph::value(self, *x).rows();
        let mut y = Tensor::zeros(rows, w.iter().map(|&w| self.store.value(w).cols()).sum());
        infer::heads_into(self.store, Graph::value(self, *x), w, &mut y);
        let ws = w.iter().map(|&w| self.param(w)).collect();
        self.push(Op::Heads(*x, ws), y)
    }

    fn heads_t(&mut self, q: &Var, w: &[ParamId]) -> Var {
        let rows = Graph::value(self, *q).rows();
        let mut y = Tensor::zeros(rows, w.len() * self.store.value(w[0]).rows());
        infer::heads_t_into(self.store, Graph::value(self, *q), w, &mut y);
        let ws = w.iter().map(|&w| self.param(w)).collect();
        self.push(Op::HeadsT(*q, ws), y)
    }

    fn logits<'a>(
        &mut self,
        q: impl IntoIterator<Item = Row<'a, Var>>,
        x: &Var,
        heads: usize,
        scale: f32,
    ) -> Var {
        let q: Vec<Row<Var>> = q.into_iter().collect();
        let mut out = Tensor::zeros(Graph::value(self, *x).rows(), heads);
        infer::logits_into(q.iter().map(|&r| self.row(r)), Graph::value(self, *x), scale, &mut out);
        self.push(Op::Logits(picked(&q), *x, scale), out)
    }

    fn merge(&mut self, logits: &Var, values: &Var, kids: &[Kid], lens: &[usize]) -> Var {
        let (sv, vv) = (Graph::value(self, *logits), Graph::value(self, *values));
        let mut out = Tensor::zeros(sv.rows(), vv.cols() + 2 * sv.cols());
        crate::act::merge_states(sv.data(), vv.data(), kids, lens, out.data_mut());
        let rows = kids.iter().map(|k| match *k {
            Kid::Row(j) => Some(j),
            Kid::Const(_) => None,
        });
        self.push(Op::Merge(*logits, *values, rows.collect(), lens.to_vec()), out)
    }

    fn context<'a>(&mut self, heads: usize, rows: impl IntoIterator<Item = Row<'a, Var>>) -> Var {
        let rows: Vec<Row<Var>> = rows.into_iter().collect();
        let states: Vec<&[f32]> = rows.iter().map(|&r| self.row(r)).collect();
        let d = states.first().map_or(0, |r| r.len() / heads - 2);
        let mut out = Tensor::zeros(rows.len(), heads * d);
        infer::context_into(states, heads, &mut out);
        self.push(Op::Context(picked(&rows), heads), out)
    }

    fn gather<'a>(
        &mut self,
        n: usize,
        cols: usize,
        rows: impl IntoIterator<Item = Row<'a, Var>>,
    ) -> Var {
        let rows: Vec<Row<Var>> = rows.into_iter().collect();
        let mut out = Tensor::zeros(n, cols);
        infer::gather_into(rows.iter().map(|&r| self.row(r)), &mut out);
        let (lens, scales) = (vec![1; n], vec![1.0; n]);
        self.push(Op::Pool(picked(&rows), None, lens, scales), out)
    }

    fn pool<'a>(
        &mut self,
        rows: impl IntoIterator<Item = Row<'a, Var>>,
        weights: Option<&[f32]>,
        lens: &[usize],
        scales: &[f32],
        cols: usize,
    ) -> Var {
        let rows: Vec<Row<Var>> = rows.into_iter().collect();
        let mut out = Tensor::zeros(lens.len(), cols);
        infer::pool_into(rows.iter().map(|&r| self.row(r)), weights, lens, scales, &mut out);
        let (weights, lens, scales) =
            (weights.map(<[f32]>::to_vec), lens.to_vec(), scales.to_vec());
        self.push(Op::Pool(picked(&rows), weights, lens, scales), out)
    }

    fn concat(&mut self, parts: &[(&Var, Range<usize>)]) -> Var {
        let cols = parts.iter().map(|(_, r)| r.len()).sum();
        let mut out = Tensor::zeros(Graph::value(self, *parts[0].0).rows(), cols);
        infer::concat_into(
            parts.iter().map(|(v, r)| (Graph::value(self, **v), r.clone())),
            &mut out,
        );
        self.push(Op::Concat(parts.iter().map(|(v, r)| (**v, r.clone())).collect()), out)
    }

    fn sample(&mut self, h: &Var, latent: usize, eps: &[&[f32]]) -> Var {
        let k = eps.len();
        let samples = eps.first().map_or(0, |e| e.len() / latent);
        let mut out = Tensor::zeros(samples * k, latent);
        infer::sample_into(Graph::value(self, *h), latent, eps, &mut out);
        let mut noise = Tensor::zeros(samples * k, latent);
        for (r, e) in eps.iter().enumerate() {
            for (s, row) in e.chunks(latent).enumerate() {
                noise.row_slice_mut(s * k + r).copy_from_slice(row);
            }
        }
        self.push(Op::Sample(*h, latent, noise), out)
    }

    fn recycle(&mut self, _: Var) {}
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
    fn linear_gradient() {
        let mut store = ParamStore::new();
        let w = seeded_param(&mut store, 3, 2, 0.0);
        check_gradient(
            &mut store,
            w,
            |g| {
                let x = g.constant(Tensor::from_vec(2, 3, vec![0.1, -0.4, 0.3, 0.7, 0.2, -0.9]));
                let y = g.linear(&x, w, None, Activation::Identity);
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
                let h = g.linear(&x, w, None, Activation::Tanh);
                let h = g.linear(&h, w, None, Activation::Sigmoid);
                g.sum_all(h)
            },
            2e-2,
        );
    }

    #[test]
    fn broadcast_ops_gradient() {
        let mut store = ParamStore::new();
        let w = seeded_param(&mut store, 3, 3, 1.0);
        let b = seeded_param(&mut store, 1, 3, 2.0);
        check_gradient(
            &mut store,
            b,
            |g| {
                let x = g.constant(Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
                let y = g.linear(&x, w, Some(b), Activation::Relu);
                let mask = g.constant(Tensor::from_vec(2, 1, vec![1.0, 0.5]));
                let y = g.mul_col_broadcast(y, mask);
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
                let cat = g.concat(&[(&wv, 2..4), (&wv, 0..2)]);
                let stacked = g.gather(2, 4, [Row::Of(&cat, 0), Row::Of(&wv, 0)]);
                let scaled = g.scale(stacked, 1.5);
                g.sum_all(scaled)
            },
            1e-2,
        );
    }

    #[test]
    fn mean_rows_gradient() {
        let mut store = ParamStore::new();
        let w = seeded_param(&mut store, 3, 2, 7.0);
        check_gradient(
            &mut store,
            w,
            |g| {
                let wv = g.param(w);
                let m = g.mean_rows(wv);
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
    fn sample_with_zero_noise_is_identity_on_mu() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let h = g.constant(Tensor::row(vec![0.3, -0.7, 0.1, 0.2]));
        let z = Exec::sample(&mut g, &h, 2, &[&[0.0, 0.0]]);
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
