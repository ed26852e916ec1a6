//! Reverse-mode automatic differentiation on a per-batch tape.
//!
//! A [`Graph`] is rebuilt for every forward pass. QPSeeker encodes *trees* of
//! variable shape (one LSTM cell per plan node), so a static computation
//! graph is impossible; instead each batch records the exact ops it ran and
//! [`Graph::backward`] replays them in reverse. Parameters live in a
//! [`ParamStore`] and are referenced by id, which
//! keeps gradients flowing into persistent storage across batches.
//!
//! Every op's gradient rule is verified against central finite differences in
//! the unit tests below and in the crate's proptest suite.

use crate::params::{GradAccumulator, ParamId, ParamStore};
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
    /// Leaf mirroring a parameter; gradient is written back to the store.
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
}

struct Node {
    op: Op,
    value: Tensor,
}

/// A tape of tensor operations supporting reverse-mode differentiation.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    pub fn new() -> Self {
        Self { nodes: Vec::with_capacity(256) }
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
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
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

    /// Record a parameter leaf; its gradient is accumulated into the store.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let value = store.value(id).clone();
        self.push(Op::Param(id), value)
    }

    // ---- binary ops -------------------------------------------------------

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(Op::MatMul(a, b), v)
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(ta.shape(), tb.shape(), "add shape mismatch");
        let mut v = ta.clone();
        v.add_assign(tb);
        self.push(Op::Add(a, b), v)
    }

    /// `a [r,c] + bias [1,c]`, broadcasting the bias over rows.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[bias.0].value);
        assert_eq!(tb.rows(), 1, "bias must be a row vector");
        assert_eq!(ta.cols(), tb.cols(), "bias width mismatch");
        let mut v = ta.clone();
        for r in 0..v.rows() {
            for c in 0..v.cols() {
                let x = v.get(r, c) + tb.get(0, c);
                v.set(r, c, x);
            }
        }
        self.push(Op::AddRowBroadcast(a, bias), v)
    }

    /// `a [r,c] ⊙ m [r,1]`, scaling each row of `a` by the matching entry of `m`.
    pub fn mul_col_broadcast(&mut self, a: Var, m: Var) -> Var {
        let (ta, tm) = (&self.nodes[a.0].value, &self.nodes[m.0].value);
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
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(ta.shape(), tb.shape(), "sub shape mismatch");
        let mut v = ta.clone();
        v.add_scaled_assign(tb, -1.0);
        self.push(Op::Sub(a, b), v)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(ta.shape(), tb.shape(), "mul shape mismatch");
        let mut v = ta.clone();
        for (x, y) in v.data_mut().iter_mut().zip(tb.data().iter()) {
            *x *= y;
        }
        self.push(Op::Mul(a, b), v)
    }

    // ---- unary ops --------------------------------------------------------

    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.nodes[a.0].value.map(|x| x * c);
        self.push(Op::Scale(a, c), v)
    }

    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = self.nodes[a.0].value.map(|x| x + c);
        self.push(Op::AddScalar(a, c), v)
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| x.max(0.0));
        self.push(Op::Relu(a), v)
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f32::tanh);
        self.push(Op::Tanh(a), v)
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(Op::Sigmoid(a), v)
    }

    /// Elementwise `exp`, with inputs clamped to ±30 to avoid overflow in the
    /// VAE's `exp(logvar)` term early in training.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| x.clamp(-30.0, 30.0).exp());
        self.push(Op::Exp(a), v)
    }

    /// Row-wise softmax with max-subtraction for numerical stability.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let ta = &self.nodes[a.0].value;
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
        let v = self.nodes[a.0].value.concat_cols(&self.nodes[b.0].value);
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
        let tensors: Vec<&Tensor> = parts.iter().map(|p| &self.nodes[p.0].value).collect();
        let v = Tensor::stack_rows(&tensors);
        self.push(Op::StackRows(parts.to_vec()), v)
    }

    /// Column sums: `[r,c] -> [1,c]`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let ta = &self.nodes[a.0].value;
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
        let rows = self.nodes[a.0].value.rows().max(1) as f32;
        let s = self.sum_rows(a);
        self.scale(s, 1.0 / rows)
    }

    /// Sum of every element: `[r,c] -> [1,1]`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.nodes[a.0].value.sum());
        self.push(Op::SumAll(a), v)
    }

    /// Mean of every element: `[r,c] -> [1,1]`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let n = self.nodes[a.0].value.len().max(1) as f32;
        let s = self.sum_all(a);
        self.scale(s, 1.0 / n)
    }

    /// Column slice `[r, from..to)`.
    pub fn slice_cols(&mut self, a: Var, from: usize, to: usize) -> Var {
        let ta = &self.nodes[a.0].value;
        assert!(from < to && to <= ta.cols(), "slice_cols out of range");
        let mut v = Tensor::zeros(ta.rows(), to - from);
        for r in 0..ta.rows() {
            v.row_slice_mut(r).copy_from_slice(&ta.row_slice(r)[from..to]);
        }
        self.push(Op::SliceCols(a, from, to), v)
    }

    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.transposed();
        self.push(Op::Transpose(a), v)
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

    /// Backpropagate from scalar `loss`, accumulating parameter gradients
    /// into `store` — either the shared [`ParamStore`] (serial training) or a
    /// thread-local [`GradBuffer`](crate::params::GradBuffer) (data-parallel
    /// training). Returns the loss value.
    ///
    /// # Panics
    /// Panics if `loss` is not `1x1`.
    pub fn backward<A: GradAccumulator>(&self, loss: Var, store: &mut A) -> f32 {
        assert_eq!(self.nodes[loss.0].value.shape(), (1, 1), "loss must be scalar");
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Tensor::scalar(1.0));

        for i in (0..self.nodes.len()).rev() {
            let g = match grads[i].take() {
                Some(g) => g,
                None => continue,
            };
            match &self.nodes[i].op {
                Op::Constant => {}
                Op::Param(id) => store.accumulate(*id, &g),
                Op::MatMul(a, b) => {
                    let ga = g.matmul_nt(&self.nodes[b.0].value);
                    let gb = self.nodes[a.0].value.matmul_tn(&g);
                    accumulate(&mut grads, a.0, ga);
                    accumulate(&mut grads, b.0, gb);
                }
                Op::Add(a, b) => {
                    accumulate(&mut grads, a.0, g.clone());
                    accumulate(&mut grads, b.0, g);
                }
                Op::AddRowBroadcast(a, bias) => {
                    let mut gb = Tensor::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            gb.set(0, c, gb.get(0, c) + g.get(r, c));
                        }
                    }
                    accumulate(&mut grads, a.0, g);
                    accumulate(&mut grads, bias.0, gb);
                }
                Op::MulColBroadcast(a, m) => {
                    let (ta, tm) = (&self.nodes[a.0].value, &self.nodes[m.0].value);
                    let mut ga = g.clone();
                    let mut gm = Tensor::zeros(tm.rows(), 1);
                    for r in 0..g.rows() {
                        let s = tm.get(r, 0);
                        let mut dot = 0.0;
                        for c in 0..g.cols() {
                            dot += g.get(r, c) * ta.get(r, c);
                        }
                        gm.set(r, 0, dot);
                        for x in ga.row_slice_mut(r) {
                            *x *= s;
                        }
                    }
                    accumulate(&mut grads, a.0, ga);
                    accumulate(&mut grads, m.0, gm);
                }
                Op::Sub(a, b) => {
                    accumulate(&mut grads, a.0, g.clone());
                    accumulate(&mut grads, b.0, g.map(|x| -x));
                }
                Op::Mul(a, b) => {
                    let mut ga = g.clone();
                    for (x, y) in ga.data_mut().iter_mut().zip(self.nodes[b.0].value.data()) {
                        *x *= y;
                    }
                    let mut gb = g;
                    for (x, y) in gb.data_mut().iter_mut().zip(self.nodes[a.0].value.data()) {
                        *x *= y;
                    }
                    accumulate(&mut grads, a.0, ga);
                    accumulate(&mut grads, b.0, gb);
                }
                Op::Scale(a, c) => accumulate(&mut grads, a.0, g.map(|x| x * c)),
                Op::AddScalar(a, c) => {
                    debug_assert!(c.is_finite());
                    accumulate(&mut grads, a.0, g);
                }
                Op::Relu(a) => {
                    let mut ga = g;
                    for (x, y) in ga.data_mut().iter_mut().zip(self.nodes[a.0].value.data()) {
                        if *y <= 0.0 {
                            *x = 0.0;
                        }
                    }
                    accumulate(&mut grads, a.0, ga);
                }
                Op::Tanh(a) => {
                    let mut ga = g;
                    for (x, y) in ga.data_mut().iter_mut().zip(self.nodes[i].value.data()) {
                        *x *= 1.0 - y * y;
                    }
                    accumulate(&mut grads, a.0, ga);
                }
                Op::Sigmoid(a) => {
                    let mut ga = g;
                    for (x, y) in ga.data_mut().iter_mut().zip(self.nodes[i].value.data()) {
                        *x *= y * (1.0 - y);
                    }
                    accumulate(&mut grads, a.0, ga);
                }
                Op::Exp(a) => {
                    let mut ga = g;
                    for (x, y) in ga.data_mut().iter_mut().zip(self.nodes[i].value.data()) {
                        *x *= y;
                    }
                    accumulate(&mut grads, a.0, ga);
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
                    accumulate(&mut grads, a.0, ga);
                }
                Op::ConcatCols(a, b) => {
                    let ca = self.nodes[a.0].value.cols();
                    let mut ga = Tensor::zeros(g.rows(), ca);
                    let mut gb = Tensor::zeros(g.rows(), g.cols() - ca);
                    for r in 0..g.rows() {
                        ga.row_slice_mut(r).copy_from_slice(&g.row_slice(r)[..ca]);
                        gb.row_slice_mut(r).copy_from_slice(&g.row_slice(r)[ca..]);
                    }
                    accumulate(&mut grads, a.0, ga);
                    accumulate(&mut grads, b.0, gb);
                }
                Op::StackRows(parts) => {
                    let mut row = 0;
                    for p in parts {
                        let pr = self.nodes[p.0].value.rows();
                        let mut gp = Tensor::zeros(pr, g.cols());
                        for r in 0..pr {
                            gp.row_slice_mut(r).copy_from_slice(g.row_slice(row + r));
                        }
                        row += pr;
                        accumulate(&mut grads, p.0, gp);
                    }
                }
                Op::SumRows(a) => {
                    let rows = self.nodes[a.0].value.rows();
                    let mut ga = Tensor::zeros(rows, g.cols());
                    for r in 0..rows {
                        ga.row_slice_mut(r).copy_from_slice(g.row_slice(0));
                    }
                    accumulate(&mut grads, a.0, ga);
                }
                Op::SumAll(a) => {
                    let ta = &self.nodes[a.0].value;
                    let ga = Tensor::filled(ta.rows(), ta.cols(), g.get(0, 0));
                    accumulate(&mut grads, a.0, ga);
                }
                Op::SliceCols(a, from, _to) => {
                    let ta = &self.nodes[a.0].value;
                    let mut ga = Tensor::zeros(ta.rows(), ta.cols());
                    for r in 0..g.rows() {
                        ga.row_slice_mut(r)[*from..from + g.cols()].copy_from_slice(g.row_slice(r));
                    }
                    accumulate(&mut grads, a.0, ga);
                }
                Op::Transpose(a) => {
                    accumulate(&mut grads, a.0, g.transposed());
                }
            }
        }
        self.nodes[loss.0].value.get(0, 0)
    }
}

fn accumulate(grads: &mut [Option<Tensor>], idx: usize, g: Tensor) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;

    /// Central finite-difference check of d(loss)/d(param) for an arbitrary
    /// scalar-valued builder.
    fn check_gradient(
        store: &mut ParamStore,
        id: ParamId,
        build: impl Fn(&mut Graph, &ParamStore) -> Var,
        tol: f32,
    ) {
        store.zero_grads();
        let mut g = Graph::new();
        let loss = build(&mut g, store);
        g.backward(loss, store);
        let analytic = store.grad(id).clone();

        let eps = 1e-2f32;
        for i in 0..store.value(id).len() {
            let orig = store.value(id).data()[i];
            store.value_mut(id).data_mut()[i] = orig + eps;
            let mut gp = Graph::new();
            let vp = build(&mut gp, store);
            let lp = gp.value(vp).get(0, 0);
            store.value_mut(id).data_mut()[i] = orig - eps;
            let mut gm = Graph::new();
            let vm = build(&mut gm, store);
            let lm = gm.value(vm).get(0, 0);
            store.value_mut(id).data_mut()[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "grad mismatch at {i}: analytic={a}, numeric={numeric}"
            );
        }
    }

    fn seeded_param(store: &mut ParamStore, rows: usize, cols: usize, seed: f32) -> ParamId {
        let data: Vec<f32> =
            (0..rows * cols).map(|i| ((i as f32 + seed) * 0.7).sin() * 0.5).collect();
        store.register("p", Tensor::from_vec(rows, cols, data))
    }

    #[test]
    fn forward_values_are_recorded() {
        let mut g = Graph::new();
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
            |g, s| {
                let x = g.constant(Tensor::from_vec(2, 3, vec![0.1, -0.4, 0.3, 0.7, 0.2, -0.9]));
                let wv = g.param(s, w);
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
            |g, s| {
                let x = g.constant(Tensor::row(vec![0.3, -0.6]));
                let wv = g.param(s, w);
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
            |g, s| {
                let wv = g.param(s, w);
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
            |g, s| {
                let x = g.constant(Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
                let bv = g.param(s, b);
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
            |g, s| {
                let x = g.constant(Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]));
                let mv = g.param(s, m);
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
            |g, s| {
                let wv = g.param(s, w);
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
            |g, s| {
                let wv = g.param(s, w);
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
            |g, s| {
                let m = g.param(s, mu);
                let l = g.param(s, lv);
                g.kl_standard_normal(m, l)
            },
            1e-2,
        );
        check_gradient(
            &mut store,
            lv,
            |g, s| {
                let m = g.param(s, mu);
                let l = g.param(s, lv);
                g.kl_standard_normal(m, l)
            },
            1e-2,
        );
    }

    #[test]
    fn kl_is_zero_at_standard_normal() {
        let mut g = Graph::new();
        let mu = g.constant(Tensor::zeros(4, 8));
        let lv = g.constant(Tensor::zeros(4, 8));
        let kl = g.kl_standard_normal(mu, lv);
        assert!(g.value(kl).get(0, 0).abs() < 1e-6);
    }

    #[test]
    fn kl_positive_away_from_prior() {
        let mut g = Graph::new();
        let mu = g.constant(Tensor::filled(2, 4, 1.5));
        let lv = g.constant(Tensor::filled(2, 4, -1.0));
        let kl = g.kl_standard_normal(mu, lv);
        assert!(g.value(kl).get(0, 0) > 0.0);
    }

    #[test]
    fn mse_gradient_and_value() {
        let mut store = ParamStore::new();
        let w = seeded_param(&mut store, 1, 2, 4.0);
        check_gradient(
            &mut store,
            w,
            |g, s| {
                let wv = g.param(s, w);
                let target = g.constant(Tensor::row(vec![1.0, -1.0]));
                g.mse(wv, target)
            },
            1e-2,
        );
    }

    #[test]
    fn reparameterize_with_zero_noise_is_identity_on_mu() {
        let mut g = Graph::new();
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
        let mut g = Graph::new();
        let wv = g.param(&store, w);
        let y = g.mul(wv, wv); // y = w², dy/dw = 2w = 4
        g.backward(y, &mut store);
        assert!((store.grad(w).get(0, 0) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn backward_returns_loss_value() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let c = g.constant(Tensor::scalar(42.0));
        let loss = g.scale(c, 0.5);
        assert_eq!(g.backward(loss, &mut store), 21.0);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_rejects_non_scalar_loss() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let c = g.constant(Tensor::row(vec![1.0, 2.0]));
        g.backward(c, &mut store);
    }
}
