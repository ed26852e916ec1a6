//! Reusable layers: linear, MLP, LSTM cell, multi-head cross-attention.
//!
//! A layer owns only [`ParamId`]s; the actual weights live in the shared
//! [`ParamStore`]. `forward` records ops onto the caller's [`Graph`], which
//! reads them from the store it borrows.

use crate::graph::{Graph, Var};
use crate::init::Initializer;
use crate::params::{ParamId, ParamStore};
use serde::{Deserialize, Serialize};

/// Activation functions available to [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    Relu,
    Tanh,
    Sigmoid,
    /// No activation (identity); used for final regression layers.
    Identity,
}

impl Activation {
    pub fn apply(self, g: &mut Graph, x: Var) -> Var {
        match self {
            Activation::Relu => g.relu(x),
            Activation::Tanh => g.tanh(x),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::Identity => x,
        }
    }
}

/// Fully-connected layer `y = x·W + b` with `W: [in, out]`, `b: [1, out]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    pub fn new(
        store: &mut ParamStore,
        init: &mut Initializer,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = store.register(format!("{name}.weight"), init.xavier(in_dim, out_dim));
        let b = store.register(format!("{name}.bias"), crate::tensor::Tensor::zeros(1, out_dim));
        Self { w, b, in_dim, out_dim }
    }

    /// `x: [batch, in_dim] -> [batch, out_dim]`.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        assert_eq!(
            g.value(x).cols(),
            self.in_dim,
            "linear layer expects {} input features, got {}",
            self.in_dim,
            g.value(x).cols()
        );
        let w = g.param(self.w);
        let b = g.param(self.b);
        let y = g.matmul(x, w);
        g.add_row_broadcast(y, b)
    }
}

/// Multi-layer perceptron: a stack of [`Linear`] layers with a shared hidden
/// activation and a configurable output activation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    pub layers: Vec<Linear>,
    pub hidden_activation: Activation,
    pub output_activation: Activation,
}

impl Mlp {
    /// `dims` is the full chain `[in, h1, ..., out]` (so `dims.len() >= 2`).
    pub fn new(
        store: &mut ParamStore,
        init: &mut Initializer,
        name: &str,
        dims: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
    ) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, init, &format!("{name}.{i}"), w[0], w[1]))
            .collect();
        Self { layers, hidden_activation, output_activation }
    }

    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("MLP has layers").in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("MLP has layers").out_dim
    }

    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        let last = self.layers.len() - 1;
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(g, h);
            h = if i == last {
                self.output_activation.apply(g, h)
            } else {
                self.hidden_activation.apply(g, h)
            };
        }
        h
    }
}

/// A single LSTM cell, used by the plan encoder (one cell application per
/// plan node, paper §4.2).
///
/// Gates follow the standard formulation:
/// `i,f,g,o = split(x·W_ih + h·W_hh + b)`;
/// `c' = σ(f)⊙c + σ(i)⊙tanh(g)`; `h' = σ(o)⊙tanh(c')`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmCell {
    pub w_ih: ParamId,
    pub w_hh: ParamId,
    pub bias: ParamId,
    pub input_dim: usize,
    pub hidden_dim: usize,
}

/// Hidden and cell state handles for one LSTM step.
#[derive(Debug, Clone, Copy)]
pub struct LstmState {
    pub h: Var,
    pub c: Var,
}

impl LstmCell {
    pub fn new(
        store: &mut ParamStore,
        init: &mut Initializer,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
    ) -> Self {
        let w_ih = store.register(format!("{name}.w_ih"), init.xavier(input_dim, 4 * hidden_dim));
        let w_hh = store.register(format!("{name}.w_hh"), init.xavier(hidden_dim, 4 * hidden_dim));
        // Forget-gate bias starts at 1.0 (standard trick: do not forget early).
        let mut b = crate::tensor::Tensor::zeros(1, 4 * hidden_dim);
        for i in hidden_dim..2 * hidden_dim {
            b.set(0, i, 1.0);
        }
        let bias = store.register(format!("{name}.bias"), b);
        Self { w_ih, w_hh, bias, input_dim, hidden_dim }
    }

    /// Zero initial state for a batch of `rows` sequences.
    pub fn zero_state(&self, g: &mut Graph, rows: usize) -> LstmState {
        let h = g.constant(crate::tensor::Tensor::zeros(rows, self.hidden_dim));
        let c = g.constant(crate::tensor::Tensor::zeros(rows, self.hidden_dim));
        LstmState { h, c }
    }

    /// One step: `x: [batch, input_dim]`, returns updated state.
    pub fn step(&self, g: &mut Graph, x: Var, state: LstmState) -> LstmState {
        assert_eq!(g.value(x).cols(), self.input_dim, "LSTM input width mismatch");
        let w_ih = g.param(self.w_ih);
        let w_hh = g.param(self.w_hh);
        let b = g.param(self.bias);
        let xw = g.matmul(x, w_ih);
        let hw = g.matmul(state.h, w_hh);
        let gates = g.add(xw, hw);
        let gates = g.add_row_broadcast(gates, b);
        let d = self.hidden_dim;
        let i_g = g.slice_cols(gates, 0, d);
        let f_g = g.slice_cols(gates, d, 2 * d);
        let g_g = g.slice_cols(gates, 2 * d, 3 * d);
        let o_g = g.slice_cols(gates, 3 * d, 4 * d);
        let i_g = g.sigmoid(i_g);
        let f_g = g.sigmoid(f_g);
        let g_g = g.tanh(g_g);
        let o_g = g.sigmoid(o_g);
        let fc = g.mul(f_g, state.c);
        let ig = g.mul(i_g, g_g);
        let c = g.add(fc, ig);
        let ct = g.tanh(c);
        let h = g.mul(o_g, ct);
        LstmState { h, c }
    }
}

/// Multi-head cross-attention (paper §4.3, "QPAttention").
///
/// Projects a `[1, q_dim]` query embedding and `[n, kv_dim]` plan-node
/// embeddings into a shared `head_dim` latent space per head, computes
/// `softmax(QKᵀ/√d)·V`, concatenates heads and maps through a dense output
/// layer of width `out_dim`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiHeadCrossAttention {
    pub wq: Vec<ParamId>,
    pub wk: Vec<ParamId>,
    pub wv: Vec<ParamId>,
    pub out: Linear,
    pub heads: usize,
    pub head_dim: usize,
    pub q_dim: usize,
    pub kv_dim: usize,
}

impl MultiHeadCrossAttention {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        init: &mut Initializer,
        name: &str,
        q_dim: usize,
        kv_dim: usize,
        heads: usize,
        head_dim: usize,
        out_dim: usize,
    ) -> Self {
        let mut wq = Vec::with_capacity(heads);
        let mut wk = Vec::with_capacity(heads);
        let mut wv = Vec::with_capacity(heads);
        for h in 0..heads {
            wq.push(store.register(format!("{name}.h{h}.wq"), init.xavier(q_dim, head_dim)));
            wk.push(store.register(format!("{name}.h{h}.wk"), init.xavier(kv_dim, head_dim)));
            wv.push(store.register(format!("{name}.h{h}.wv"), init.xavier(kv_dim, head_dim)));
        }
        let out = Linear::new(store, init, &format!("{name}.out"), heads * head_dim, out_dim);
        Self { wq, wk, wv, out, heads, head_dim, q_dim, kv_dim }
    }

    /// `queries: [P, q_dim]`, `kv: [N, kv_dim]` → `[P, out_dim]`, query `p`
    /// attending over the kv rows `members[p]`, in that order. Each head
    /// projects every query, key and value row in one matmul; only the
    /// score, softmax and context ops run per query. Every op is
    /// row-independent, so row `p` is bitwise the same for any other
    /// queries alongside it.
    ///
    /// Also returns each query's per-head score rows (`[1, members[p].len()]`).
    ///
    /// # Panics
    /// Panics if `members` does not hold one non-empty row list per query.
    pub fn forward_rows(
        &self,
        g: &mut Graph,
        queries: Var,
        kv: Var,
        members: &[Vec<usize>],
    ) -> (Var, Vec<Vec<Var>>) {
        assert_eq!(g.value(queries).rows(), members.len(), "one member list per query");
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut heads: Vec<Vec<Var>> = vec![Vec::with_capacity(self.heads); members.len()];
        let mut scores: Vec<Vec<Var>> = vec![Vec::with_capacity(self.heads); members.len()];
        for h in 0..self.heads {
            let wq = g.param(self.wq[h]);
            let wk = g.param(self.wk[h]);
            let wv = g.param(self.wv[h]);
            let q_all = g.matmul(queries, wq); // [P, d]
            let k_all = g.matmul(kv, wk); // [N, d]
            let v_all = g.matmul(kv, wv); // [N, d]
            for (p, rows) in members.iter().enumerate() {
                assert!(!rows.is_empty(), "query {p} attends over no rows");
                let q = g.gather_rows(&[(q_all, p)]); // [1, d]
                let k_rows: Vec<(Var, usize)> = rows.iter().map(|&r| (k_all, r)).collect();
                let v_rows: Vec<(Var, usize)> = rows.iter().map(|&r| (v_all, r)).collect();
                let k = g.gather_rows(&k_rows); // [n, d]
                let v = g.gather_rows(&v_rows); // [n, d]
                let kt = g.transpose(k); // [d, n]
                let s = g.matmul(q, kt); // [1, n]
                let s = g.scale(s, scale);
                let attn = g.softmax_rows(s); // [1, n]
                heads[p].push(g.matmul(attn, v)); // [1, d]
                scores[p].push(attn);
            }
        }
        let cats: Vec<Var> = heads.iter().map(|hs| g.concat_cols_all(hs)).collect();
        let cat = g.stack_rows(&cats);
        (self.out.forward(g, cat), scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn setup() -> (ParamStore, Initializer) {
        (ParamStore::new(), Initializer::new(42))
    }

    #[test]
    fn linear_shapes() {
        let (mut store, mut init) = setup();
        let l = Linear::new(&mut store, &mut init, "l", 3, 5);
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::zeros(4, 3));
        let y = l.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (4, 5));
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn linear_rejects_wrong_width() {
        let (mut store, mut init) = setup();
        let l = Linear::new(&mut store, &mut init, "l", 3, 5);
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::zeros(4, 2));
        l.forward(&mut g, x);
    }

    #[test]
    fn mlp_five_hidden_layers_matches_paper_config_shape() {
        let (mut store, mut init) = setup();
        // Query-encoder style: 5 hidden layers of 256, output 256.
        let m = Mlp::new(
            &mut store,
            &mut init,
            "enc",
            &[16, 256, 256, 256, 256, 256, 256],
            Activation::Relu,
            Activation::Relu,
        );
        assert_eq!(m.layers.len(), 6);
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::zeros(2, 16));
        let y = m.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (2, 256));
    }

    #[test]
    fn mlp_trains_xor() {
        // End-to-end sanity: a tiny MLP must be able to fit XOR.
        use crate::optim::Adam;
        let (mut store, mut init) = setup();
        let m = Mlp::new(
            &mut store,
            &mut init,
            "xor",
            &[2, 8, 1],
            Activation::Tanh,
            Activation::Sigmoid,
        );
        let xs = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = Tensor::from_vec(4, 1, vec![0., 1., 1., 0.]);
        let mut opt = Adam::new(0.05);
        let mut last = f32::MAX;
        for _ in 0..400 {
            store.zero_grads();
            let mut g = Graph::new(&store);
            let x = g.constant(xs.clone());
            let t = g.constant(ys.clone());
            let p = m.forward(&mut g, x);
            let loss = g.mse(p, t);
            let (loss, grads) = g.backward(loss);
            last = loss;
            grads.merge_into(&mut store);
            opt.step(&mut store);
        }
        assert!(last < 0.03, "XOR did not converge: loss {last}");
    }

    #[test]
    fn lstm_step_shapes_and_state_evolution() {
        let (mut store, mut init) = setup();
        let cell = LstmCell::new(&mut store, &mut init, "lstm", 6, 4);
        let mut g = Graph::new(&store);
        let s0 = cell.zero_state(&mut g, 2);
        let x = g.constant(Tensor::ones(2, 6));
        let s1 = cell.step(&mut g, x, s0);
        assert_eq!(g.value(s1.h).shape(), (2, 4));
        assert_eq!(g.value(s1.c).shape(), (2, 4));
        // State must actually change.
        assert!(g.value(s1.h).norm() > 0.0);
        let x2 = g.constant(Tensor::ones(2, 6));
        let s2 = cell.step(&mut g, x2, s1);
        assert_ne!(g.value(s1.h).data(), g.value(s2.h).data());
    }

    #[test]
    fn lstm_gradient_flows_to_all_weights() {
        let (mut store, mut init) = setup();
        let cell = LstmCell::new(&mut store, &mut init, "lstm", 3, 2);
        store.zero_grads();
        let mut g = Graph::new(&store);
        let s0 = cell.zero_state(&mut g, 1);
        let x = g.constant(Tensor::row(vec![0.5, -0.3, 0.8]));
        let s1 = cell.step(&mut g, x, s0);
        let x2 = g.constant(Tensor::row(vec![-0.1, 0.4, 0.2]));
        let s2 = cell.step(&mut g, x2, s1);
        let loss = g.sum_all(s2.h);
        let (_, grads) = g.backward(loss);
        grads.merge_into(&mut store);
        assert!(store.grad(cell.w_ih).norm() > 0.0);
        assert!(store.grad(cell.w_hh).norm() > 0.0);
        assert!(store.grad(cell.bias).norm() > 0.0);
    }

    #[test]
    fn attention_shapes_and_scores_sum_to_one() {
        let (mut store, mut init) = setup();
        let attn = MultiHeadCrossAttention::new(&mut store, &mut init, "qp", 8, 6, 4, 5, 10);
        let mut g = Graph::new(&store);
        let q = g.constant(Initializer::new(1).normal(1, 8, 1.0));
        let kv = g.constant(Initializer::new(2).normal(3, 6, 1.0));
        let (out, mut scores) = attn.forward_rows(&mut g, q, kv, &[vec![0, 1, 2]]);
        assert_eq!(g.value(out).shape(), (1, 10));
        let scores = scores.pop().expect("one query");
        assert_eq!(scores.len(), 4);
        for s in scores {
            let row = g.value(s);
            assert_eq!(row.shape(), (1, 3));
            assert!((row.sum() - 1.0).abs() < 1e-5);
        }
    }

    /// Queries attending over their own kv rows in one call get bitwise
    /// what each gets alone over just its rows, and their gradients pass
    /// finite differences.
    #[test]
    fn attention_rows_are_bitwise_one_query_calls() {
        let (mut store, mut init) = setup();
        let attn = MultiHeadCrossAttention::new(&mut store, &mut init, "qp", 4, 5, 2, 3, 6);
        let q = Initializer::new(5).normal(3, 4, 1.0);
        let kv = Initializer::new(6).normal(6, 5, 1.0);
        let members = vec![vec![0, 1, 2], vec![3], vec![5, 4, 0]];
        let mut g = Graph::new(&store);
        let (qv, kvv) = (g.constant(q.clone()), g.constant(kv.clone()));
        let (all, _) = attn.forward_rows(&mut g, qv, kvv, &members);
        for (p, rows) in members.iter().enumerate() {
            let mut one = Graph::new(&store);
            let qp = one.constant(Tensor::row(q.row_slice(p).to_vec()));
            let picked: Vec<f32> = rows.iter().flat_map(|&r| kv.row_slice(r).to_vec()).collect();
            let kvp = one.constant(Tensor::from_vec(rows.len(), 5, picked));
            let (out, _) = attn.forward_rows(&mut one, qp, kvp, &[(0..rows.len()).collect()]);
            assert_eq!(g.value(all).row_slice(p), one.value(out).data(), "query {p}");
        }
        for id in [attn.wq[1], attn.wk[0], attn.wv[1], attn.out.w] {
            let report = crate::gradcheck::check_gradient(&mut store, id, 1e-2, |g| {
                let (qv, kvv) = (g.constant(q.clone()), g.constant(kv.clone()));
                let (out, _) = attn.forward_rows(g, qv, kvv, &members);
                let sq = g.mul(out, out);
                g.sum_all(sq)
            });
            assert!(report.passes(2e-2), "{}: {report:?}", store.get(id).name);
        }
    }

    #[test]
    fn attention_gradient_reaches_projections() {
        let (mut store, mut init) = setup();
        let attn = MultiHeadCrossAttention::new(&mut store, &mut init, "qp", 4, 4, 2, 3, 6);
        store.zero_grads();
        let mut g = Graph::new(&store);
        let q = g.constant(Initializer::new(3).normal(1, 4, 1.0));
        let kv = g.constant(Initializer::new(4).normal(5, 4, 1.0));
        let (out, _) = attn.forward_rows(&mut g, q, kv, &[(0..5).collect()]);
        let loss = g.sum_all(out);
        let (_, grads) = g.backward(loss);
        grads.merge_into(&mut store);
        for h in 0..2 {
            assert!(store.grad(attn.wq[h]).norm() > 0.0, "wq[{h}] got no gradient");
            assert!(store.grad(attn.wk[h]).norm() > 0.0, "wk[{h}] got no gradient");
            assert!(store.grad(attn.wv[h]).norm() > 0.0, "wv[{h}] got no gradient");
        }
    }
}
