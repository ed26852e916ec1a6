//! Reusable layers: linear, MLP, LSTM cell, multi-head cross-attention.
//!
//! A layer owns only [`ParamId`]s; the actual weights live in the shared
//! [`ParamStore`]. Its one forward is generic over an [`Exec`]: the
//! training tape records it, the serving scratch executor just computes it,
//! with the same kernels.

use crate::graph::Var;
use crate::infer::{Exec, Row};
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

/// LSTM states stepped level by level ([`Exec::lstm_step`]), each level's
/// rows after the last's: row `r` is the `r`-th row stepped, of `filled`
/// so far. Made by [`Exec::levels`], read back whole by [`Exec::stacked`].
pub enum LevelStates<T> {
    /// One pass-wide `(h, c)` each level writes its rows of: the serving
    /// executor's, so a row is written once, where it is read.
    Wide { state: LstmState<T>, filled: usize },
    /// One `(h, c)` per level, after its first row: the tape's, whose ops
    /// are immutable.
    Split { parts: Vec<(usize, LstmState<T>)>, filled: usize },
}

impl<T> LevelStates<T> {
    /// Row `r`'s hidden state.
    pub fn h(&self, r: usize) -> Row<'_, T> {
        let (state, i) = self.at(r);
        Row::Of(&state.h, i)
    }

    /// Row `r`'s cell state.
    pub fn c(&self, r: usize) -> Row<'_, T> {
        let (state, i) = self.at(r);
        Row::Of(&state.c, i)
    }

    /// The pair holding row `r`, and its row there.
    fn at(&self, r: usize) -> (&LstmState<T>, usize) {
        match self {
            Self::Wide { state, filled } => {
                assert!(r < *filled, "row {r} is not stepped yet");
                (state, r)
            }
            Self::Split { parts, filled } => {
                assert!(r < *filled, "row {r} is not stepped yet");
                let (start, state) = &parts[parts.partition_point(|&(s, _)| s <= r) - 1];
                (state, r - start)
            }
        }
    }
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
        let h = e.constant(rows, self.hidden_dim, Tensor::zero);
        let c = e.constant(rows, self.hidden_dim, Tensor::zero);
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
        let rows = e.value(own).rows();
        let mut out = e.levels(rows, self.hidden_dim);
        e.lstm_step(self, (0..rows).map(|r| Row::Of(own, r)), &state.h, &state.c, &mut out);
        e.stacked(out)
    }
}

/// Multi-head cross-attention (paper §4.3, "QPAttention") of one query
/// over the nodes of a plan tree.
///
/// A query embedding (`q_dim` wide) attends over plan-node embeddings
/// (`kv_dim` wide), [`Self::new`]'s widths: per head, `softmax(q·Kᵀ/√d)·V`
/// with `q = x·W_q`, `K = h·W_k` and `V = h·W_v` in a `head_dim` space;
/// the heads' contexts side by side, then a dense output layer of width
/// `out_dim`.
///
/// For a fixed query a node's logit and value depend on that node alone,
/// so attention over a plan is a sum over its subtrees, computed bottom-up:
///
/// * [`Self::query`] folds `W_k` into the query once, `q̃_h = q_h·W_k,hᵀ`
///   (`kv_dim` wide), so a node's logit is `q̃_h·h/√d` ([`Self::logits`])
///   and no key is ever projected;
/// * [`Self::values`] projects the nodes' values, one GEMM over every head
///   side by side ([`Exec::heads`]);
/// * [`Exec::merge`] folds each node's logit and value into its children's
///   online-softmax states ([`crate::act::merge_states`]);
/// * [`Self::context`] reads a root's state as the context over its whole
///   tree, `U/Z` per head.
///
/// Every step is row-wise, so a node's state is the same bits however its
/// tree is batched, and a memoized state is what recomputing it gives.
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
        for w in [&wq, &wv] {
            store.serve_heads(w);
        }
        Self { wq, wk, wv, out, heads, head_dim }
    }

    /// The keyed queries of `query [rows, q_dim]`: each head's projection
    /// `q_h = x·W_q,h` through its key weight transposed, `q_h·W_k,hᵀ`,
    /// every head's side by side, `[rows, heads·kv_dim]`.
    pub fn query<E: Exec>(&self, e: &mut E, query: &E::T) -> E::T {
        let q = e.heads(query, &self.wq);
        let keyed = e.heads_t(&q, &self.wk);
        e.recycle(q);
        keyed
    }

    /// The value projections of `nodes [rows, kv_dim]`, every head's side by
    /// side: `[rows, heads·head_dim]`, one GEMM.
    pub fn values<E: Exec>(&self, e: &mut E, nodes: &E::T) -> E::T {
        e.heads(nodes, &self.wv)
    }

    /// The logits `q̃_h·h_i/√d` of `nodes [rows, kv_dim]`, row `i` against
    /// the `i`-th keyed query ([`Self::query`]) `keyed` yields: `[rows,
    /// heads]`.
    pub fn logits<'a, E: Exec>(
        &self,
        e: &mut E,
        keyed: impl IntoIterator<Item = Row<'a, E::T>>,
        nodes: &E::T,
    ) -> E::T
    where
        E::T: 'a,
    {
        e.logits(keyed, nodes, self.heads, 1.0 / (self.head_dim as f32).sqrt())
    }

    /// The heads' contexts over the trees whose root states `roots` yields,
    /// side by side, `[roots, heads·head_dim]` — the input of `out`, or of
    /// a [`Fold`] of it into the next layer.
    pub fn context<'a, E: Exec>(
        &self,
        e: &mut E,
        roots: impl IntoIterator<Item = Row<'a, E::T>>,
    ) -> E::T
    where
        E::T: 'a,
    {
        e.context(self.heads, roots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::act::Kid;
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

    /// Trees over node rows, children before parents: `kids[r]` are row
    /// `r`'s children, `owner[r]` its tree, `roots[t]` tree `t`'s root.
    struct Forest {
        kids: Vec<Vec<usize>>,
        owner: Vec<usize>,
        roots: Vec<usize>,
    }

    /// Full binary trees of `leaves[t]` leaves each, trees back to back:
    /// each tree's leaves, then its joins, two subtrees picked by `seed`.
    fn forest(leaves: &[usize], mut seed: u64) -> Forest {
        let mut pick = |n: usize| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize % n
        };
        let (mut kids, mut owner, mut roots) = (Vec::new(), Vec::new(), Vec::new());
        for (t, &n) in leaves.iter().enumerate() {
            let mut open: Vec<usize> = (kids.len()..kids.len() + n).collect();
            kids.extend(std::iter::repeat_n(Vec::new(), n));
            owner.extend(std::iter::repeat_n(t, n));
            while open.len() > 1 {
                let a = open.swap_remove(pick(open.len()));
                let b = open.swap_remove(pick(open.len()));
                open.push(kids.len());
                kids.push(vec![a, b]);
                owner.push(t);
            }
            roots.push(open[0]);
        }
        Forest { kids, owner, roots }
    }

    /// Tree `t` attends over its nodes: the queries' `t`-th row keyed, every
    /// row's state merged, the roots' contexts `[trees, heads·head_dim]`.
    fn tree_attention<E: Exec>(
        attn: &MultiHeadCrossAttention,
        e: &mut E,
        queries: &E::T,
        nodes: &E::T,
        f: &Forest,
    ) -> E::T {
        let keyed = attn.query(e, queries);
        let values = attn.values(e, nodes);
        let logits = attn.logits(e, f.owner.iter().map(|&t| Row::Of(&keyed, t)), nodes);
        let kids: Vec<Kid> = f.kids.iter().flatten().map(|&j| Kid::Row(j)).collect();
        let lens: Vec<usize> = f.kids.iter().map(Vec::len).collect();
        let states = e.merge(&logits, &values, &kids, &lens);
        attn.context(e, f.roots.iter().map(|&r| Row::Of(&states, r)))
    }

    #[test]
    fn attention_shapes() {
        let (mut store, mut init) = setup();
        let attn = MultiHeadCrossAttention::new(&mut store, &mut init, "qp", 8, 6, 4, 5, 10);
        let mut g = Graph::new(&store);
        let q = g.constant(Initializer::new(1).normal(2, 8, 1.0));
        let f = forest(&[2, 1], 3);
        let nodes = g.constant(Initializer::new(2).normal(f.kids.len(), 6, 1.0));
        let ctx = tree_attention(&attn, &mut g, &q, &nodes, &f);
        assert_eq!(g.value(ctx).shape(), (2, 20));
        let out = attn.out.forward(&mut g, &ctx, Activation::Identity);
        assert_eq!(g.value(out).shape(), (2, 10));
    }

    /// A forest in one call ≡ each tree alone ≡ a root merged over its
    /// children's states handed in from an earlier call (a memo), bit for
    /// bit, and the tape records the serving executor's bits.
    #[test]
    fn attention_rows_are_bitwise_one_tree_calls() {
        use crate::infer::{Scratch, ScratchArena};
        let (mut store, mut init) = setup();
        let attn = MultiHeadCrossAttention::new(&mut store, &mut init, "qp", 4, 5, 2, 3, 6);
        let f = forest(&[3, 1, 5, 2], 9);
        let q = Initializer::new(5).normal(4, 4, 1.0);
        let nodes = Initializer::new(6).normal(f.kids.len(), 5, 1.0);
        let mut sc = ScratchArena::new();
        let e = &mut Scratch { store: &store, arena: &mut sc };
        let all = tree_attention(&attn, e, &q, &nodes, &f);
        let mut g = Graph::new(&store);
        let (qv, nv) = (g.constant(q.clone()), g.constant(nodes.clone()));
        let tape = tree_attention(&attn, &mut g, &qv, &nv, &f);
        assert_eq!(g.value(tape).data(), all.data(), "the tape's bits differ from serving's");
        for (t, &root) in f.roots.iter().enumerate() {
            let rows: Vec<usize> = (0..f.kids.len()).filter(|&r| f.owner[r] == t).collect();
            let at = |r: usize| rows.iter().position(|&x| x == r).expect("a row of the tree");
            let one = Forest {
                kids: rows.iter().map(|&r| f.kids[r].iter().map(|&k| at(k)).collect()).collect(),
                owner: vec![0; rows.len()],
                roots: vec![at(root)],
            };
            let pick = |m: &Tensor, rows: &[usize]| {
                let data = rows.iter().flat_map(|&r| m.row_slice(r).to_vec()).collect();
                Tensor::from_vec(rows.len(), m.cols(), data)
            };
            let alone = tree_attention(&attn, e, &pick(&q, &[t]), &pick(&nodes, &rows), &one);
            assert_eq!(alone.data(), all.row_slice(t), "tree {t} differs alone");
        }
        // Every state once, then each join's root again over its children's
        // states as constants.
        let keyed = attn.query(e, &q);
        let values = attn.values(e, &nodes);
        let logits = attn.logits(e, f.owner.iter().map(|&t| Row::Of(&keyed, t)), &nodes);
        let kids: Vec<Kid> = f.kids.iter().flatten().map(|&j| Kid::Row(j)).collect();
        let lens: Vec<usize> = f.kids.iter().map(Vec::len).collect();
        let states = e.merge(&logits, &values, &kids, &lens);
        for r in (0..f.kids.len()).filter(|&r| !f.kids[r].is_empty()) {
            let row = |m: &Tensor| Tensor::from_vec(1, m.cols(), m.row_slice(r).to_vec());
            let memo: Vec<Kid> =
                f.kids[r].iter().map(|&k| Kid::Const(states.row_slice(k))).collect();
            let again = e.merge(&row(&logits), &row(&values), &memo, &[2]);
            assert_eq!(again.data(), states.row_slice(r), "row {r} differs over memoized kids");
        }
    }

    /// The subtree ops' gradients into `W_q`, `W_k`, `W_v` and the node
    /// embeddings pass finite differences, through the output layer, over
    /// a forest of single-node, small and deep trees.
    #[test]
    fn attention_gradients_pass_finite_differences() {
        let (mut store, mut init) = setup();
        let attn = MultiHeadCrossAttention::new(&mut store, &mut init, "qp", 4, 5, 2, 3, 6);
        let f = forest(&[1, 3, 6], 4);
        let nodes = store.register("h", Initializer::new(8).normal(f.kids.len(), 5, 1.0));
        let q = Initializer::new(7).normal(3, 4, 1.0);
        let coef = Initializer::new(9).normal(3, 6, 1.0);
        let loss = |g: &mut Graph| {
            let (qv, nv) = (g.constant(q.clone()), g.param(nodes));
            let ctx = tree_attention(&attn, g, &qv, &nv, &f);
            let out = attn.out.forward(g, &ctx, Activation::Identity);
            let c = g.constant(coef.clone());
            let t = g.tanh(out);
            let y = g.mul(t, c);
            g.sum_all(y)
        };
        let ids = [attn.wq[0], attn.wq[1], attn.wk[0], attn.wk[1], attn.wv[1], nodes];
        let mut g = Graph::new(&store);
        let l = loss(&mut g);
        let grads = g.backward(l).1;
        for id in ids {
            assert!(grads.get(id).is_some_and(|t| t.norm() > 0.0), "{} took no gradient", id.0);
        }
        for id in ids {
            let report = crate::gradcheck::check_gradient(&mut store, id, 1e-2, loss);
            assert!(report.passes(2e-2), "{}: {report:?}", store.get(id).name);
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
        // The linear, the fold and own weights, the query and value head
        // sets, `next`, the fold's weight and bias.
        let served = 1 + 2 + 2 + 1 + 2;
        assert_eq!(store.derived_copies(), served);
        let mut sc = ScratchArena::new();
        let e = &mut Scratch { store: &store, arena: &mut sc };
        lin.forward(e, &Tensor::ones(2, 5), Activation::Relu);
        let own = cell.project(e, &Tensor::ones(3, cell.own_dim()));
        let state = cell.zero_state(e, 3);
        cell.step(e, &own, &state);
        let nodes = Tensor::ones(3, 6);
        let v = attn.values(e, &nodes);
        let q = attn.query(e, &Tensor::ones(1, 8));
        let s = attn.logits(e, [Row::Const(q.data()); 3], &nodes);
        let states = e.merge(&s, &v, &[Kid::Row(0), Kid::Row(1)], &[0, 0, 2]);
        let cat = attn.context(e, [Row::Of(&states, 2)]);
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
}
