//! Reusable layers: linear, MLP, LSTM cell, multi-head cross-attention.
//!
//! A layer owns only [`ParamId`]s; the actual weights live in the shared
//! [`ParamStore`]. Its one forward is generic over an [`Exec`]: the
//! training tape records it, the serving scratch executor just computes it,
//! with the same kernels.

use crate::graph::Var;
use crate::infer::Exec;
use crate::init::Initializer;
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
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

/// Fully-connected layer `y = act(x·W + b)` with `W: [in, out]`,
/// `b: [1, out]`.
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
        let b = store.register(format!("{name}.bias"), Tensor::zeros(1, out_dim));
        store.serve_packed(w);
        Self { w, b, in_dim, out_dim }
    }

    /// `x: [batch, in_dim] -> act(x·W + b): [batch, out_dim]`.
    pub fn forward<E: Exec>(&self, e: &mut E, x: &E::T, act: Activation) -> E::T {
        e.linear(x, self.w, Some(self.b), act)
    }
}

/// Two linears that meet at an Identity activation — `a`'s leading `cols`
/// outputs are `b`'s input — served as the one linear map they are:
///
/// `(x·W_a[.., ..cols] + b_a[..cols])·W_b + b_b = x·W + c`,
///
/// with `W = W_a[.., ..cols]·W_b` and `c = b_a[..cols]·W_b + b_b`. The
/// [`ParamStore`] derives `W` (packed) and `c` by the packed GEMM, next to
/// its packed copies, so every tier has the same bits; the parameters stay
/// `a`'s and `b`'s, and the tape routes the folded map's gradient into both
/// factors through the middle rows `x·W_a + b_a`. `a`'s other columns (a
/// VAE encoder's log-variance half) are not part of the map.
#[derive(Debug, Clone)]
pub struct Fold {
    pub a: Linear,
    pub cols: usize,
    pub b: Linear,
}

impl Fold {
    /// Fold `a`'s leading `cols` outputs into `b`, and record that serving
    /// reads the folded map.
    ///
    /// # Panics
    /// If `cols` exceeds `a`'s width or is not `b`'s input width.
    pub fn new(store: &mut ParamStore, a: &Linear, cols: usize, b: &Linear) -> Self {
        assert!(cols <= a.out_dim && cols == b.in_dim, "fold of {cols} columns into {}", b.in_dim);
        let fold = Self { a: a.clone(), cols, b: b.clone() };
        store.serve_fold(&fold);
        fold
    }

    /// `x: [batch, a.in_dim] -> act(x·W + c): [batch, b.out_dim]`. `mid`
    /// is `a`'s output `x·W_a + b_a` when the caller holds it: the tape's
    /// backward runs through it (serving ignores it).
    pub fn forward<E: Exec>(
        &self,
        e: &mut E,
        x: &E::T,
        mid: Option<&E::T>,
        act: Activation,
    ) -> E::T {
        e.fold(x, mid, self, act)
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

    /// Each layer one fused GEMM + bias + activation; the intermediate
    /// activations go back to the executor.
    pub fn forward<E: Exec>(&self, e: &mut E, x: &E::T) -> E::T {
        let last = self.layers.len() - 1;
        let mut h: Option<E::T> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i == last { self.output_activation } else { self.hidden_activation };
            let y = layer.forward(e, h.as_ref().unwrap_or(x), act);
            if let Some(prev) = h.replace(y) {
                e.recycle(prev);
            }
        }
        h.expect("MLP has layers")
    }
}

/// A single LSTM cell, used by the plan encoder (one cell application per
/// plan node, paper §4.2).
///
/// Gates follow the standard formulation:
/// `i,f,g,o = split(x·W_ih + h·W_hh + b)`;
/// `c' = σ(f)⊙c + σ(i)⊙tanh(g)`; `h' = σ(o)⊙tanh(c')`.
///
/// The input of a tree node carries its children's pooled state: `x = [h[..
/// child] | mid | h[child..] + est]`, where `own = [mid | est]` is the
/// node's own input (`own_dim = input_dim - child` wide; its last `hidden -
/// child` floats, `est`, overlap the state's tail). `x` is linear in `h`, so
/// the cell computes the step folded:
///
/// `x·W_ih + h·W_hh + b = h·W_fold + (own·W_own + b)`,
///
/// with `W_own = W_ih[child..]` and `W_fold = W_hh` plus `W_ih`'s child-slot
/// rows: rows `..child` onto rows `..child`, the last `hidden - child` rows
/// onto rows `child..`. [`Self::project`] computes the own term, which
/// depends on the node alone and can be cached; [`Self::step`] adds `h·
/// W_fold`, one `K = hidden` GEMM. The [`ParamStore`] derives and packs
/// both weights, next to its packed copies; the parameters are `W_ih`,
/// `W_hh` and `b`, and gradients flow into them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmCell {
    pub w_ih: ParamId,
    pub w_hh: ParamId,
    pub bias: ParamId,
    pub input_dim: usize,
    pub hidden_dim: usize,
    /// Width of the input's leading child-state slot.
    pub child_dim: usize,
}

/// Hidden and cell state of one LSTM step, as tape nodes or tensors.
#[derive(Debug, Clone, Copy)]
pub struct LstmState<T = Var> {
    pub h: T,
    pub c: T,
}

impl LstmCell {
    /// # Panics
    /// If the child slots (`hidden_dim` floats in all) do not fit the
    /// input: `child_dim > hidden_dim` or `hidden_dim > input_dim`.
    pub fn new(
        store: &mut ParamStore,
        init: &mut Initializer,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        child_dim: usize,
    ) -> Self {
        assert!(
            child_dim <= hidden_dim && hidden_dim <= input_dim,
            "LSTM child slots ({child_dim} + {}) do not fit an input of {input_dim}",
            hidden_dim.saturating_sub(child_dim)
        );
        let w_ih = store.register(format!("{name}.w_ih"), init.xavier(input_dim, 4 * hidden_dim));
        let w_hh = store.register(format!("{name}.w_hh"), init.xavier(hidden_dim, 4 * hidden_dim));
        // Forget-gate bias starts at 1.0 (standard trick: do not forget early).
        let mut b = Tensor::zeros(1, 4 * hidden_dim);
        for i in hidden_dim..2 * hidden_dim {
            b.set(0, i, 1.0);
        }
        let bias = store.register(format!("{name}.bias"), b);
        let cell = Self { w_ih, w_hh, bias, input_dim, hidden_dim, child_dim };
        store.serve_lstm(&cell);
        cell
    }

    /// Width of a node's own input `[mid | est]`.
    pub fn own_dim(&self) -> usize {
        self.input_dim - self.child_dim
    }

    /// Zero initial state for a batch of `rows` sequences.
    pub fn zero_state<E: Exec>(&self, e: &mut E, rows: usize) -> LstmState<E::T> {
        let h = e.constant(rows, self.hidden_dim, |_| {});
        let c = e.constant(rows, self.hidden_dim, |_| {});
        LstmState { h, c }
    }

    /// The own term `own·W_own + b` of `own: [batch, own_dim]`:
    /// `[batch, 4·hidden]`, each row a function of its input row alone.
    pub fn project<E: Exec>(&self, e: &mut E, own: &E::T) -> E::T {
        e.lstm_own(self, own)
    }

    /// One step from `state` on the projected own term `own: [batch,
    /// 4·hidden]` ([`Self::project`]); returns the updated state.
    pub fn step<E: Exec>(&self, e: &mut E, own: &E::T, state: &LstmState<E::T>) -> LstmState<E::T> {
        let (h, c) = e.lstm_step(self, own, &state.h, &state.c);
        LstmState { h, c }
    }
}

/// Multi-head cross-attention (paper §4.3, "QPAttention").
///
/// Projects query embeddings (`q_dim` wide) and plan-node embeddings
/// (`kv_dim` wide), the widths [`Self::new`] takes, into a shared
/// `head_dim` latent space per head, computes `softmax(QKᵀ/√d)·V`,
/// concatenates heads and maps through a dense output layer of width
/// `out_dim`.
///
/// Each projection is one GEMM over every head's weight side by side
/// ([`Exec::heads`]), head `h` in columns `h·head_dim..`; a projected row
/// depends on its input row alone (the GEMM's FP-order contract), so a
/// query's `Q` row and a plan node's `K` and `V` rows can be projected
/// once and reused by every candidate that reads them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiHeadCrossAttention {
    pub wq: Vec<ParamId>,
    pub wk: Vec<ParamId>,
    pub wv: Vec<ParamId>,
    pub out: Linear,
    pub heads: usize,
    pub head_dim: usize,
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
        for w in [&wq, &wk, &wv] {
            store.serve_heads(w);
        }
        Self { wq, wk, wv, out, heads, head_dim }
    }

    /// The query projections of `query [rows, q_dim]`, every head's side by
    /// side: `[rows, heads·head_dim]`, one GEMM.
    pub fn query<E: Exec>(&self, e: &mut E, query: &E::T) -> E::T {
        e.heads(query, &self.wq)
    }

    /// The key and value projections of `kv [rows, kv_dim]`, every head's
    /// side by side: `[rows, heads·head_dim]` each, one GEMM each.
    pub fn project<E: Exec>(&self, e: &mut E, kv: &E::T) -> (E::T, E::T) {
        (e.heads(kv, &self.wk), e.heads(kv, &self.wv))
    }

    /// `kn` projected queries ([`Self::query`]), `[kn, heads·head_dim]`,
    /// over `kn` plans of `n` nodes each, whose keys and values are
    /// projected ([`Self::project`]) and gathered, `[kn·n, heads·head_dim]`
    /// with plan `p`'s rows at `p·n..` → `[kn, out_dim]`. Row `p` is bitwise
    /// the same for every `kn` and every partition of the plans into calls
    /// — the contract the batched scoring path and the eval broker rely on.
    pub fn forward<E: Exec>(
        &self,
        e: &mut E,
        queries: &E::T,
        keys: &E::T,
        values: &E::T,
        n: usize,
    ) -> E::T {
        let cat = self.context(e, queries, keys, values, n);
        let out = self.out.forward(e, &cat, Activation::Identity);
        e.recycle(cat);
        out
    }

    /// [`Self::forward`] short of the output layer: every head's context,
    /// side by side, `[kn, heads·head_dim]` — the input of `out`, or of a
    /// [`Fold`] of it into the next layer.
    pub fn context<E: Exec>(
        &self,
        e: &mut E,
        queries: &E::T,
        keys: &E::T,
        values: &E::T,
        n: usize,
    ) -> E::T {
        e.attend(queries, keys, values, self.heads, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::infer::Row;

    fn setup() -> (ParamStore, Initializer) {
        (ParamStore::new(), Initializer::new(42))
    }

    #[test]
    fn linear_shapes() {
        let (mut store, mut init) = setup();
        let l = Linear::new(&mut store, &mut init, "l", 3, 5);
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::zeros(4, 3));
        let y = l.forward(&mut g, &x, Activation::Identity);
        assert_eq!(g.value(y).shape(), (4, 5));
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn linear_rejects_wrong_width() {
        let (mut store, mut init) = setup();
        let l = Linear::new(&mut store, &mut init, "l", 3, 5);
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::zeros(4, 2));
        l.forward(&mut g, &x, Activation::Identity);
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
        let y = m.forward(&mut g, &x);
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
            let p = m.forward(&mut g, &x);
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
        let cell = LstmCell::new(&mut store, &mut init, "lstm", 6, 4, 2);
        let mut g = Graph::new(&store);
        let s0 = cell.zero_state(&mut g, 2);
        let x = g.constant(Tensor::ones(2, cell.own_dim()));
        let own = cell.project(&mut g, &x);
        assert_eq!(g.value(own).shape(), (2, 16));
        let s1 = cell.step(&mut g, &own, &s0);
        assert_eq!(g.value(s1.h).shape(), (2, 4));
        assert_eq!(g.value(s1.c).shape(), (2, 4));
        // State must actually change.
        assert!(g.value(s1.h).norm() > 0.0);
        let s2 = cell.step(&mut g, &own, &s1);
        assert_ne!(g.value(s1.h).data(), g.value(s2.h).data());
    }

    #[test]
    fn lstm_gradient_flows_to_all_weights() {
        let (mut store, mut init) = setup();
        let cell = LstmCell::new(&mut store, &mut init, "lstm", 3, 2, 1);
        store.zero_grads();
        let mut g = Graph::new(&store);
        let s0 = cell.zero_state(&mut g, 1);
        let x = g.constant(Tensor::row(vec![0.5, -0.3]));
        let own = cell.project(&mut g, &x);
        let s1 = cell.step(&mut g, &own, &s0);
        let x2 = g.constant(Tensor::row(vec![-0.1, 0.4]));
        let own2 = cell.project(&mut g, &x2);
        let s2 = cell.step(&mut g, &own2, &s1);
        let loss = g.sum_all(s2.h);
        let (_, grads) = g.backward(loss);
        grads.merge_into(&mut store);
        assert!(store.grad(cell.w_ih).norm() > 0.0);
        assert!(store.grad(cell.w_hh).norm() > 0.0);
        assert!(store.grad(cell.bias).norm() > 0.0);
    }

    /// `attn` over `q` (one row per plan), plan `p` attending over the kv
    /// rows `members[p]` (all of one length), on the tape.
    fn attend(
        attn: &MultiHeadCrossAttention,
        g: &mut Graph,
        q: &Tensor,
        kv: &Tensor,
        members: &[Vec<usize>],
    ) -> Var {
        let (qv, kvv) = (g.constant(q.clone()), g.constant(kv.clone()));
        let (keys, values) = attn.project(g, &kvv);
        let pick = |g: &mut Graph, t: &Var| -> Var {
            let rows = members.iter().flatten().map(|&r| Row::Of(t, r));
            g.gather(members.iter().flatten().count(), attn.heads * attn.head_dim, rows)
        };
        let (keys, values) = (pick(g, &keys), pick(g, &values));
        let queries = attn.query(g, &qv);
        attn.forward(g, &queries, &keys, &values, members[0].len())
    }

    #[test]
    fn attention_shapes() {
        let (mut store, mut init) = setup();
        let attn = MultiHeadCrossAttention::new(&mut store, &mut init, "qp", 8, 6, 4, 5, 10);
        let mut g = Graph::new(&store);
        let q = Initializer::new(1).normal(1, 8, 1.0);
        let kv = Initializer::new(2).normal(3, 6, 1.0);
        let out = attend(&attn, &mut g, &q, &kv, &[vec![0, 1, 2]]);
        assert_eq!(g.value(out).shape(), (1, 10));
    }

    /// Queries attending over their own kv rows in one call get bitwise
    /// what each gets alone over just its rows, and their gradients pass
    /// finite differences; for three-node and for single-node members (one
    /// call groups members of one length).
    #[test]
    fn attention_rows_are_bitwise_one_query_calls() {
        let (mut store, mut init) = setup();
        let attn = MultiHeadCrossAttention::new(&mut store, &mut init, "qp", 4, 5, 2, 3, 6);
        let q = Initializer::new(5).normal(3, 4, 1.0);
        let kv = Initializer::new(6).normal(6, 5, 1.0);
        for members in
            [vec![vec![0, 1, 2], vec![3, 3, 1], vec![5, 4, 0]], vec![vec![3], vec![1], vec![4]]]
        {
            let mut g = Graph::new(&store);
            let all = attend(&attn, &mut g, &q, &kv, &members);
            for (p, rows) in members.iter().enumerate() {
                let mut one = Graph::new(&store);
                let qp = Tensor::row(q.row_slice(p).to_vec());
                let picked: Vec<f32> =
                    rows.iter().flat_map(|&r| kv.row_slice(r).to_vec()).collect();
                let kvp = Tensor::from_vec(rows.len(), 5, picked);
                let out = attend(&attn, &mut one, &qp, &kvp, &[(0..rows.len()).collect()]);
                assert_eq!(g.value(all).row_slice(p), one.value(out).data(), "query {p}");
            }
            for id in [attn.wq[1], attn.wk[0], attn.wv[1], attn.out.w] {
                let report = crate::gradcheck::check_gradient(&mut store, id, 1e-2, |g| {
                    let out = attend(&attn, g, &q, &kv, &members);
                    let sq = g.mul(out, out);
                    g.sum_all(sq)
                });
                assert!(report.passes(2e-2), "{}: {report:?}", store.get(id).name);
            }
        }
    }

    /// `warm_packed` builds what the layers record serving reads — a
    /// linear's packed weight, an LSTM cell's folded and own-input weights,
    /// each attention projection's heads side by side, a fold's weight and
    /// bias — so a serving forward packs nothing more, and no panel of the
    /// cell's `W_ih` or `W_hh`, of a single head, or of a layer a fold
    /// replaces exists. A deserialized store has no record; loaded into a
    /// built one, it keeps the built one's.
    #[test]
    fn warm_packed_builds_exactly_what_serving_reads() {
        use crate::infer::{Scratch, ScratchArena};
        let (mut store, mut init) = setup();
        let lin = Linear::new(&mut store, &mut init, "l", 5, 7);
        let cell = LstmCell::new(&mut store, &mut init, "c", 6, 4, 2);
        let attn = MultiHeadCrossAttention::new(&mut store, &mut init, "a", 8, 6, 2, 3, 5);
        // As the model serves attention: its output layer folded into the
        // next one, which the concatenation fallback reads unfolded.
        let next = Linear::new(&mut store, &mut init, "n", 5, 4);
        let enter = Fold::new(&mut store, &attn.out, 5, &next);
        store.unserve_packed(attn.out.w);
        store.warm_packed();
        // The linear, the fold and own weights, three head sets, `next`,
        // the fold's weight and bias.
        let served = 1 + 2 + 3 + 1 + 2;
        assert_eq!(store.derived_copies(), served);
        let mut sc = ScratchArena::new();
        let e = &mut Scratch { store: &store, arena: &mut sc };
        lin.forward(e, &Tensor::ones(2, 5), Activation::Relu);
        let own = cell.project(e, &Tensor::ones(3, cell.own_dim()));
        let state = cell.zero_state(e, 3);
        cell.step(e, &own, &state);
        let (k, v) = attn.project(e, &Tensor::ones(4, 6));
        let q = attn.query(e, &Tensor::ones(2, 8));
        let cat = attn.context(e, &q, &k, &v, 2);
        enter.forward(e, &cat, None, Activation::Relu);
        next.forward(e, &Tensor::ones(1, 5), Activation::Relu);
        assert_eq!(store.derived_copies(), served, "a served forward packed something");
        assert!(!store.is_packed(attn.out.w), "the folded-away `out` was packed");

        let saved = ParamStore::from_json(&store.to_json()).expect("round trip");
        saved.warm_packed();
        assert_eq!(saved.derived_copies(), 0, "a deserialized store records nothing");
        assert!(store.load(saved));
        assert_eq!(store.derived_copies(), 0, "loading drops the derived copies");
        store.warm_packed();
        assert_eq!(store.derived_copies(), served);
        assert!(!store.load(ParamStore::new()), "another layout is refused");
    }

    /// A fold's gradient reaches both factors: each weight and each bias
    /// of both linears passes finite differences through the folded map,
    /// used twice on one tape, when the fold takes all of the first
    /// linear's outputs and when it takes a leading part; and it is, to
    /// rounding, the gradient of the two linears unfolded, whether the tape
    /// computes the middle rows or the caller hands them in.
    #[test]
    fn fold_gradients_reach_both_factors() {
        for (mid, cols) in [(6, 6), (8, 5)] {
            let (mut store, mut init) = setup();
            let a = Linear::new(&mut store, &mut init, "a", 4, mid);
            let b = Linear::new(&mut store, &mut init, "b", cols, 3);
            *store.value_mut(a.b) = init.normal(1, mid, 0.5);
            *store.value_mut(b.b) = init.normal(1, 3, 0.5);
            let fold = Fold::new(&mut store, &a, cols, &b);
            let (x1, x2) = (init.normal(3, 4, 1.0), init.normal(2, 4, 1.0));
            let coef = init.normal(3, 3, 1.0);
            // 0: unfolded, 1: folded, 2: folded over the caller's middle rows.
            let loss = |g: &mut Graph, way: u8| {
                let mut total = None;
                for x in [&x1, &x2] {
                    let xv = g.constant(x.clone());
                    let y = if way == 0 {
                        let h = a.forward(g, &xv, Activation::Identity);
                        let h = g.concat(&[(&h, 0..cols)]);
                        b.forward(g, &h, Activation::Tanh)
                    } else {
                        let h = (way == 2).then(|| a.forward(g, &xv, Activation::Identity));
                        fold.forward(g, &xv, h.as_ref(), Activation::Tanh)
                    };
                    let c = g.constant(Tensor::from_vec(
                        x.rows(),
                        3,
                        coef.data()[..x.rows() * 3].to_vec(),
                    ));
                    let weighted = g.mul(y, c);
                    let s = g.sum_all(weighted);
                    total = Some(match total {
                        None => s,
                        Some(t) => g.add(t, s),
                    });
                }
                total.expect("two uses")
            };
            for id in [a.w, a.b, b.w, b.b] {
                let report = crate::gradcheck::check_gradient(&mut store, id, 1e-2, |g| loss(g, 1));
                assert!(report.passes(2e-2), "{mid}/{cols} {}: {report:?}", store.get(id).name);
            }
            let grads = |way: u8| {
                let mut g = Graph::new(&store);
                let l = loss(&mut g, way);
                g.backward(l).1
            };
            let u = grads(0);
            for f in [grads(1), grads(2)] {
                for id in [a.w, a.b, b.w, b.b] {
                    let (gf, gu) = (f.get(id).expect("folded grad"), u.get(id).expect("grad"));
                    let scale = gu.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
                    for (x, y) in gf.data().iter().zip(gu.data()) {
                        assert!((x - y).abs() <= 1e-5 * (1.0 + scale), "{mid}/{cols}: {x} vs {y}");
                    }
                }
            }
        }
    }

    #[test]
    fn attention_gradient_reaches_projections() {
        let (mut store, mut init) = setup();
        let attn = MultiHeadCrossAttention::new(&mut store, &mut init, "qp", 4, 4, 2, 3, 6);
        store.zero_grads();
        let mut g = Graph::new(&store);
        let q = Initializer::new(3).normal(1, 4, 1.0);
        let kv = Initializer::new(4).normal(5, 4, 1.0);
        let out = attend(&attn, &mut g, &q, &kv, &[(0..5).collect()]);
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
