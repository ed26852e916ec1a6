//! Persistent parameter storage.
//!
//! A [`crate::graph::Graph`] is a per-batch tape that is rebuilt for every
//! forward pass (plan trees have variable shape, so the graph cannot be
//! static). Learnable parameters therefore live *outside* the graph, in a
//! [`ParamStore`], addressed by stable [`ParamId`]s. After `backward`, the
//! graph accumulates gradients back into the store; the optimizer then reads
//! value/grad pairs from here.

use crate::layers::{Activation, Fold, LstmCell};
use crate::pack::{gemm_packed, PackedGemm};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Stable handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    pub fn index(self) -> usize {
        self.0
    }
}

/// One learnable tensor with its accumulated gradient.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Human-readable name ("query_encoder.rel_mlp.0.weight" style).
    pub name: String,
    pub value: Tensor,
    pub grad: Tensor,
    /// When false the optimizer skips this parameter (used for frozen
    /// embeddings, mirroring the paper freezing TaBERT weights).
    pub trainable: bool,
}

/// The set of all parameters of a model.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    params: Vec<Param>,
    /// What serving reads derived, recorded by the layers as they are
    /// built: [`Self::warm_packed`] builds exactly these. A property of the
    /// architecture, never serialized; [`Self::load`] keeps it.
    served: Vec<Served>,
    /// Lazily built copies of parameter values, one [`Derived`] per
    /// parameter. The outer lock sizes the table on first use
    /// (post-deserialize stores start empty), the inner locks build each
    /// copy the first time something reads it. Every `&mut` access to a
    /// value (`value_mut`, `params_mut`, `register`) drops the whole table,
    /// so training, checkpoint loads, and hot-swaps can never read a stale
    /// copy; gradient writes leave it alone. Never serialized.
    derived: OnceLock<Vec<Derived>>,
}

/// What [`ParamStore`] derives from one parameter's value.
#[derive(Debug, Clone, Default)]
struct Derived {
    /// Panel-packed for the GEMM (`crate::pack`): inference's and the
    /// tape's `x·W`.
    packed: OnceLock<PackedGemm>,
    /// Transposed, then panel-packed: the tape's `g·Wᵀ`. Training mutates
    /// the store once per optimizer step, so in training both copies live
    /// for exactly one step.
    packed_t: OnceLock<PackedGemm>,
    /// On an LSTM cell's `W_ih`: the cell's folded recurrent weight
    /// `W_fold`, packed, and its packed transpose (the tape's `g·W_foldᵀ`).
    /// On the first weight `W_a` of a [`Fold`]: the folded weight `W_a[..,
    /// ..cols]·W_b`, packed.
    fold: OnceLock<PackedGemm>,
    fold_t: OnceLock<PackedGemm>,
    /// On the first weight of a [`Fold`]: the folded bias `b_a[..cols]·W_b
    /// + b_b`.
    fold_b: OnceLock<Tensor>,
    /// On an LSTM cell's `W_ih`: its own-input rows `W_ih[child..]`, packed.
    own: OnceLock<PackedGemm>,
    /// On the first of a set of per-head weights: all of them side by side,
    /// `[W_0 | … | W_{H-1}]`, packed.
    heads: OnceLock<PackedGemm>,
}

/// One derived weight serving reads.
#[derive(Debug, Clone)]
enum Served {
    /// A parameter's packed value ([`ParamStore::packed`]).
    Packed(ParamId),
    /// An LSTM cell's folded and own-input weights.
    Lstm(LstmCell),
    /// Per-head weights side by side ([`ParamStore::packed_heads`]).
    Heads(Vec<ParamId>),
    /// Two linears folded into one ([`ParamStore::fold_w`],
    /// [`ParamStore::fold_b`]).
    Fold(Fold),
}

// Hand-written (de)serialization: only `params` is persisted; the derived
// copies are rebuilt lazily after load.
impl Serialize for ParamStore {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![("params".to_string(), self.params.to_value())])
    }
}

impl Deserialize for ParamStore {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj =
            v.as_obj().ok_or_else(|| serde::Error::type_mismatch("ParamStore", "object", v))?;
        let params = Vec::<Param>::from_value(serde::obj_field(obj, "params"))
            .map_err(|e| e.in_field("ParamStore", "params"))?;
        Ok(ParamStore { params, served: Vec::new(), derived: OnceLock::new() })
    }
}

impl ParamStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new trainable parameter and return its id.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let grad = Tensor::zeros(value.rows(), value.cols());
        self.params.push(Param { name: name.into(), value, grad, trainable: true });
        self.derived = OnceLock::new();
        ParamId(self.params.len() - 1)
    }

    /// Register a frozen (non-trainable) parameter.
    pub fn register_frozen(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = self.register(name, value);
        self.params[id.0].trainable = false;
        id
    }

    pub fn len(&self) -> usize {
        self.params.len()
    }

    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights (the paper quotes ~10.8M for the full model).
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    pub fn get(&self, id: ParamId) -> &Param {
        &self.params[id.0]
    }

    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        self.derived = OnceLock::new();
        &mut self.params[id.0].value
    }

    /// Panel-packed copy of parameter `id`'s value for the GEMM (inference
    /// and the tape's `x·W`), built on first use and shared across threads
    /// (the pack is deterministic, so concurrent initialization races are
    /// benign).
    pub fn packed(&self, id: ParamId) -> &PackedGemm {
        self.derived(id).packed.get_or_init(|| PackedGemm::pack(&self.params[id.0].value))
    }

    /// Panel-packed transpose of parameter `id`'s value, built on first use
    /// and shared across threads like [`Self::packed`]: the backward pass's
    /// `g·Wᵀ` multiplies it.
    pub(crate) fn packed_t(&self, id: ParamId) -> &PackedGemm {
        self.derived(id)
            .packed_t
            .get_or_init(|| PackedGemm::pack(&self.params[id.0].value.transposed()))
    }

    /// `cell`'s folded recurrent weight `W_fold` ([`LstmCell`]), packed:
    /// `W_hh` plus `W_ih`'s child-slot rows, built on first use and shared
    /// like [`Self::packed`]. Kept with `W_ih`, which belongs to one cell.
    pub(crate) fn lstm_fold(&self, cell: &LstmCell) -> &PackedGemm {
        self.derived(cell.w_ih).fold.get_or_init(|| PackedGemm::pack(&self.fold(cell)))
    }

    /// [`Self::lstm_fold`] transposed: the tape's `g·W_foldᵀ`.
    pub(crate) fn lstm_fold_t(&self, cell: &LstmCell) -> &PackedGemm {
        let d = self.derived(cell.w_ih);
        d.fold_t.get_or_init(|| PackedGemm::pack(&self.fold(cell).transposed()))
    }

    /// `cell`'s own-input weight `W_own = W_ih[child..]` ([`LstmCell`]),
    /// packed, built on first use and shared like [`Self::packed`].
    pub(crate) fn lstm_own(&self, cell: &LstmCell) -> &PackedGemm {
        self.derived(cell.w_ih).own.get_or_init(|| {
            let (w_ih, n) = (&self.params[cell.w_ih.0].value, 4 * cell.hidden_dim);
            PackedGemm::pack(&Tensor::from_vec(
                cell.own_dim(),
                n,
                w_ih.data()[cell.child_dim * n..].to_vec(),
            ))
        })
    }

    /// The per-head weights `ws` (each `[k, d_h]`) side by side, `[W_0 | … |
    /// W_{H-1}]`, packed: one GEMM projects every head, and head `h`'s
    /// columns are bitwise its own GEMM's (the FP-order contract of
    /// [`crate::pack`]). Built on first use and shared like
    /// [`Self::packed`]; kept with `ws[0]`, which belongs to one set.
    ///
    /// # Panics
    /// If `ws` is empty or its weights differ in height.
    pub(crate) fn packed_heads(&self, ws: &[ParamId]) -> &PackedGemm {
        self.derived(ws[0]).heads.get_or_init(|| {
            let value = |w: &ParamId| &self.params[w.0].value;
            let all = ws[1..].iter().fold(value(&ws[0]).clone(), |a, w| a.concat_cols(value(w)));
            PackedGemm::pack(&all)
        })
    }

    /// `fold`'s weight `W_a[.., ..cols]·W_b` ([`Fold`]), packed: the product
    /// by the packed GEMM, so it has the same bits on every tier. Built on
    /// first use and shared like [`Self::packed`]; kept with `W_a`, which
    /// belongs to one fold.
    pub(crate) fn fold_w(&self, fold: &Fold) -> &PackedGemm {
        self.derived(fold.a.w).fold.get_or_init(|| PackedGemm::pack(&self.fold_product(fold)))
    }

    /// `fold`'s bias `b_a[..cols]·W_b + b_b` ([`Fold`]): one 1-row packed
    /// GEMM with `b_b` in its epilogue. Built on first use and shared like
    /// [`Self::packed`]; it and [`Self::fold_w`] read `W_b`'s one pack.
    pub(crate) fn fold_b(&self, fold: &Fold) -> &Tensor {
        self.derived(fold.a.w).fold_b.get_or_init(|| {
            let (b_a, b_b) = (self.value(fold.a.b), self.value(fold.b.b));
            let (mut c, w_b) = (Tensor::zeros(1, fold.b.out_dim), self.packed(fold.b.w));
            let (a, id) = (&b_a.data()[..fold.cols], Activation::Identity);
            gemm_packed(1, a, w_b, false, Some(b_b.data()), id, c.data_mut());
            c
        })
    }

    /// `W_a[.., ..cols]·W_b` of `fold`, `[a.in_dim, b.out_dim]`.
    fn fold_product(&self, fold: &Fold) -> Tensor {
        let w_a = self.value(fold.a.w);
        let mut lead = Vec::with_capacity(w_a.rows() * fold.cols);
        (0..w_a.rows()).for_each(|r| lead.extend_from_slice(&w_a.row_slice(r)[..fold.cols]));
        let lead = Tensor::from_vec(w_a.rows(), fold.cols, lead);
        lead.matmul_packed(self.packed(fold.b.w))
    }

    /// Record that serving multiplies by parameter `id` packed
    /// ([`Self::packed`]).
    pub(crate) fn serve_packed(&mut self, id: ParamId) {
        self.served.push(Served::Packed(id));
    }

    /// Record that serving no longer multiplies by parameter `id` packed:
    /// the [`Fold`]s that replace its layer read it, through their folded
    /// weights, and the tape, through its transient packed copies.
    pub fn unserve_packed(&mut self, id: ParamId) {
        self.served.retain(|s| !matches!(s, Served::Packed(p) if *p == id));
    }

    /// Record that serving multiplies by `fold`'s folded weight and bias.
    pub(crate) fn serve_fold(&mut self, fold: &Fold) {
        self.served.push(Served::Fold(fold.clone()));
    }

    /// Record that serving steps LSTM `cell` folded (its `W_fold` and
    /// `W_own`).
    pub(crate) fn serve_lstm(&mut self, cell: &LstmCell) {
        self.served.push(Served::Lstm(cell.clone()));
    }

    /// Record that serving projects by the per-head weights `ws` side by
    /// side ([`Self::packed_heads`]).
    pub(crate) fn serve_heads(&mut self, ws: &[ParamId]) {
        self.served.push(Served::Heads(ws.to_vec()));
    }

    /// `W_fold` of `cell`: row `j` of `W_hh` plus row `j` of `W_ih` for `j <
    /// child`, else plus row `input - hidden + j`.
    fn fold(&self, cell: &LstmCell) -> Tensor {
        let (w_ih, mut fold) =
            (&self.params[cell.w_ih.0].value, self.params[cell.w_hh.0].value.clone());
        let tail = cell.input_dim - cell.hidden_dim;
        for j in 0..cell.hidden_dim {
            let src = w_ih.row_slice(if j < cell.child_dim { j } else { tail + j });
            fold.row_slice_mut(j).iter_mut().zip(src).for_each(|(f, w)| *f += w);
        }
        fold
    }

    fn derived(&self, id: ParamId) -> &Derived {
        let table =
            self.derived.get_or_init(|| self.params.iter().map(|_| Derived::default()).collect());
        &table[id.0]
    }

    /// Eagerly build every derived weight serving reads — packed linear
    /// weights, LSTM fold and own-input weights, per-head projections side
    /// by side, folded linears, as the layers recorded them — and nothing
    /// else, so a
    /// freshly loaded model pays the packing at load time instead of in its
    /// first request, and holds no panels serving never reads.
    pub fn warm_packed(&self) {
        for s in &self.served {
            match s {
                Served::Packed(id) => {
                    self.packed(*id);
                }
                Served::Lstm(cell) => {
                    self.lstm_fold(cell);
                    self.lstm_own(cell);
                }
                Served::Heads(ws) => {
                    self.packed_heads(ws);
                }
                Served::Fold(fold) => {
                    self.fold_w(fold);
                    self.fold_b(fold);
                }
            }
        }
    }

    /// Derived copies built so far (packed, transposed, folded, side by
    /// side, folded biases): what the store holds beyond its parameters.
    pub fn derived_copies(&self) -> usize {
        let Some(table) = self.derived.get() else { return 0 };
        table
            .iter()
            .map(|d| {
                let packs = [&d.packed, &d.packed_t, &d.fold, &d.fold_t, &d.own, &d.heads];
                packs.iter().filter(|c| c.get().is_some()).count()
                    + usize::from(d.fold_b.get().is_some())
            })
            .sum()
    }

    /// Whether parameter `id`'s packed copy ([`Self::packed`]) is built.
    #[cfg(test)]
    pub(crate) fn is_packed(&self, id: ParamId) -> bool {
        self.derived.get().is_some_and(|table| table[id.0].packed.get().is_some())
    }

    /// Take `saved`'s parameters — names, values, gradients, flags — into
    /// this store, keeping its record of what serving reads (a deserialized
    /// store has none: the record comes from building the layers). Returns
    /// false, changing nothing, when `saved` is not this store's layout:
    /// another parameter count, or any parameter of another shape.
    #[must_use]
    pub fn load(&mut self, saved: ParamStore) -> bool {
        let fits = saved.params.len() == self.params.len()
            && saved
                .params
                .iter()
                .zip(&self.params)
                .all(|(s, p)| s.value.shape() == p.value.shape());
        if fits {
            self.params = saved.params;
            self.derived = OnceLock::new();
        }
        fits
    }

    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].grad
    }

    /// Accumulate `g` into the gradient of `id`.
    ///
    /// # Panics
    /// If the gradient buffers are released ([`Self::release_grads`]), or
    /// `g` is not the parameter's shape.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Tensor) {
        let p = &mut self.params[id.0];
        assert_eq!(p.grad.shape(), p.value.shape(), "{}: gradient released, zero it first", p.name);
        p.grad.add_assign(g);
    }

    /// Reset all gradients to zero (call before each batch), giving back
    /// the buffers [`Self::release_grads`] dropped.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            if p.grad.shape() == p.value.shape() {
                p.grad.zero();
            } else {
                p.grad = Tensor::zeros(p.value.rows(), p.value.cols());
            }
        }
    }

    /// Drop every gradient buffer: a fitted model serves, and checkpoints,
    /// without them (as many floats as its parameters). The next
    /// [`Self::zero_grads`] brings them back.
    pub fn release_grads(&mut self) {
        for p in &mut self.params {
            p.grad = Tensor::zeros(0, 0);
        }
    }

    /// Iterate over `(index, param)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Param)> {
        self.params.iter().enumerate().map(|(i, p)| (ParamId(i), p))
    }

    /// Mutable access for optimizers.
    pub(crate) fn params_mut(&mut self) -> &mut [Param] {
        self.derived = OnceLock::new();
        &mut self.params
    }

    /// Global gradient L2 norm over trainable parameters (for clipping).
    /// Non-finite gradient elements are excluded — a single NaN must not
    /// poison the norm and silently disable clipping for every parameter.
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .filter(|p| p.trainable)
            .map(|p| p.grad.data().iter().filter(|x| x.is_finite()).map(|x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scale all trainable gradients so the global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in self.params_mut() {
                if p.trainable {
                    for g in p.grad.data_mut() {
                        *g *= scale;
                    }
                }
            }
        }
    }

    /// Serialize to JSON (model checkpointing).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ParamStore is always serializable")
    }

    /// Bitwise equality of parameter values (determinism tests).
    pub fn values_bitwise_eq(&self, other: &ParamStore) -> bool {
        self.params.len() == other.params.len()
            && self.params.iter().zip(&other.params).all(|(a, b)| {
                a.value.shape() == b.value.shape()
                    && a.value
                        .data()
                        .iter()
                        .zip(b.value.data())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            })
    }

    /// Deserialize from JSON produced by [`Self::to_json`].
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// The parameter gradients of one backward pass, sparse: only parameters
/// the tape touched get an entry, so short plans don't pay for the full
/// model. [`crate::graph::Graph::backward`] fills it while the graph still
/// borrows the store; [`Self::merge_into`] adds it to the store after.
///
/// Data-parallel training computes one `GradBuffer` per *tape group* and
/// merges them into the [`ParamStore`] in group order — never thread order —
/// which makes the summed gradient bit-identical for any thread count.
#[derive(Debug, Default)]
pub struct GradBuffer {
    grads: Vec<Option<Tensor>>,
}

impl GradBuffer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `g` to parameter `id`'s gradient; the first one is kept as is.
    pub(crate) fn accumulate(&mut self, id: ParamId, g: Tensor) {
        if self.grads.len() <= id.0 {
            self.grads.resize(id.0 + 1, None);
        }
        match &mut self.grads[id.0] {
            Some(t) => t.add_assign(&g),
            slot => *slot = Some(g),
        }
    }

    /// Parameter `id`'s gradient, if the backward pass reached it.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.grads.get(id.0).and_then(Option::as_ref)
    }

    /// Add every buffered gradient into the store, in `ParamId` order.
    pub fn merge_into(&self, store: &mut ParamStore) {
        for (i, g) in self.grads.iter().enumerate() {
            if let Some(g) = g {
                store.accumulate_grad(ParamId(i), g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::ones(2, 3));
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_scalars(), 6);
        assert_eq!(store.value(id).shape(), (2, 3));
        assert_eq!(store.get(id).name, "w");
        assert!(store.get(id).trainable);
    }

    #[test]
    fn frozen_params_marked() {
        let mut store = ParamStore::new();
        let id = store.register_frozen("emb", Tensor::ones(1, 4));
        assert!(!store.get(id).trainable);
    }

    #[test]
    fn grad_accumulation_and_zeroing() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::zeros(1, 2));
        store.accumulate_grad(id, &Tensor::row(vec![1.0, 2.0]));
        store.accumulate_grad(id, &Tensor::row(vec![1.0, 2.0]));
        assert_eq!(store.grad(id).data(), &[2.0, 4.0]);
        store.zero_grads();
        assert_eq!(store.grad(id).data(), &[0.0, 0.0]);
    }

    #[test]
    fn released_grads_come_back_zeroed() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::zeros(2, 3));
        store.accumulate_grad(id, &Tensor::ones(2, 3));
        store.release_grads();
        assert_eq!(store.grad(id).len(), 0);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.accumulate_grad(id, &Tensor::ones(2, 3));
        }));
        assert!(refused.is_err(), "a released gradient took an accumulation");
        store.zero_grads();
        assert_eq!(store.grad(id).shape(), (2, 3));
        assert!(store.grad(id).data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn grad_clipping_scales_to_max_norm() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::zeros(1, 2));
        store.accumulate_grad(id, &Tensor::row(vec![3.0, 4.0])); // norm 5
        store.clip_grad_norm(1.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-6);
        assert!((store.grad(id).data()[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn nan_gradient_does_not_disable_clipping() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::zeros(1, 1));
        let b = store.register("b", Tensor::zeros(1, 2));
        store.accumulate_grad(a, &Tensor::scalar(f32::NAN));
        store.accumulate_grad(b, &Tensor::row(vec![3.0, 4.0])); // norm 5
        assert!((store.grad_norm() - 5.0).abs() < 1e-6, "NaN poisoned the norm");
        store.clip_grad_norm(1.0);
        assert!((store.grad(b).data()[0] - 0.6).abs() < 1e-6, "clipping was skipped");
    }

    #[test]
    fn clipping_ignores_frozen() {
        let mut store = ParamStore::new();
        let f = store.register_frozen("emb", Tensor::zeros(1, 1));
        let t = store.register("w", Tensor::zeros(1, 1));
        store.accumulate_grad(f, &Tensor::scalar(100.0));
        store.accumulate_grad(t, &Tensor::scalar(3.0));
        store.clip_grad_norm(1.0);
        assert_eq!(store.grad(f).data()[0], 100.0);
        assert!((store.grad(t).data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn json_round_trip() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::from_vec(1, 2, vec![0.5, -0.25]));
        let json = store.to_json();
        let back = ParamStore::from_json(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.value(ParamId(0)).data(), &[0.5, -0.25]);
    }
}
