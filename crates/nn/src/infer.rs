//! One forward per model module, run by either of two executors.
//!
//! A layer's forward is written once, generic over [`Exec`]: the training
//! tape ([`crate::graph::Graph`], which records [`crate::graph::Var`]s for
//! its backward) and the serving [`Scratch`] executor (which computes
//! values only, into tensors recycled through a [`ScratchArena`], so a
//! steady-state scoring loop allocates no tensor). Every op's value is one
//! kernel function below, called by both executors: the packed GEMM with
//! bias and activation in its epilogue, the LSTM gates of [`crate::act`],
//! attention logits by the dispatched [`dot`] and subtree states by
//! [`crate::act::merge_states`]. So a forward gives the same
//! bits on the tape and off it, on every ISA tier, and training fits the
//! function that serving computes.
//!
//! The one deliberate difference: the scratch executor runs no finiteness
//! asserts. A NaN produced while serving (injected faults, corrupted
//! weights) flows through to the caller's `is_finite()` check and triggers
//! graceful degradation instead of a panic.

use crate::act::{lstm_gates, merge_states, Kid};
use crate::layers::{Activation, Fold, LevelStates, LstmCell, LstmState};
use crate::pack::gemm_packed;
use crate::params::{ParamId, ParamStore};
use crate::tensor::{dot, Tensor};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A pool of `Tensor` allocations reused across inference calls.
///
/// `take` hands out a `rows x cols` tensor, recycling a previous allocation
/// when one is available; `recycle` returns a tensor to the pool. That is
/// enough that the steady-state inference loop allocates no tensor. A
/// buffer never shrinks, so `take` picks the smallest idle buffer that
/// fits, or grows the largest: handing out the last one recycled instead
/// lets every buffer grow to the widest tensor any call asked of it (7.1 MB
/// against 1.9 MB for `deep_join`'s 25 buffers).
///
/// A recycled buffer is handed out as it is, not zeroed: every kernel of
/// the serving executor writes each element of its output, so no stale
/// float is read. Debug builds fill it with NaN instead, so a reader of
/// stale data fails the bitwise tests.
///
/// Buffers that outlive a call — a node memo keeps its scoring calls'
/// outputs until its query ends — come back through [`Self::release`] to
/// one pool every thread's arena shares, which `take` searches when its
/// own holds no buffer that fits: the thread that ends a query is not
/// always the one whose arena lent them (a broker's flush leader scores
/// for every member). An arena dropped with its thread hands its idle
/// buffers to that pool too, for the next thread.
#[derive(Default)]
pub struct ScratchArena {
    pool: Vec<Tensor>,
}

/// The most idle buffers a [`ScratchArena`] keeps; more go to the shared
/// pool, which keeps as many again and drops the rest.
pub const MAX_IDLE: usize = 128;

/// Idle buffers every thread's arena may take ([`ScratchArena::release`]).
static SHARED: Mutex<Vec<Tensor>> = Mutex::new(Vec::new());

/// The smallest buffer of `pool` that holds `need` floats, taken out.
fn take_fit(pool: &mut Vec<Tensor>, need: usize) -> Option<Tensor> {
    let fit = pool.iter().enumerate().filter(|(_, t)| t.capacity() >= need);
    let (i, _) = fit.min_by_key(|(_, t)| t.capacity())?;
    Some(pool.swap_remove(i))
}

impl ScratchArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pooled buffers currently idle.
    pub fn idle(&self) -> usize {
        self.pool.len()
    }

    /// A `rows x cols` tensor, recycled when possible, its contents stale
    /// (NaN in debug builds).
    pub fn take(&mut self, rows: usize, cols: usize) -> Tensor {
        let need = rows * cols;
        let largest = |pool: &mut Vec<Tensor>| {
            let (i, _) = pool.iter().enumerate().max_by_key(|(_, t)| t.capacity())?;
            Some(pool.swap_remove(i))
        };
        let pick = take_fit(&mut self.pool, need)
            .or_else(|| take_fit(&mut shared(), need))
            .or_else(|| largest(&mut self.pool));
        let mut t = match pick {
            Some(mut t) => {
                t.reshape_stale(rows, cols);
                t
            }
            None => Tensor::zeros(rows, cols),
        };
        if cfg!(debug_assertions) {
            t.data_mut().fill(f32::NAN);
        }
        t
    }

    /// Return a tensor's allocation to the pool (to the shared pool if this
    /// one holds [`MAX_IDLE`] already).
    pub fn recycle(&mut self, t: Tensor) {
        if self.pool.len() < MAX_IDLE {
            self.pool.push(t);
        } else {
            Self::release([t]);
        }
    }

    /// Return tensors' allocations to the pool every thread's arena shares
    /// (dropped past [`MAX_IDLE`]).
    pub fn release(tensors: impl IntoIterator<Item = Tensor>) {
        let mut pool = shared();
        let room = MAX_IDLE.saturating_sub(pool.len());
        pool.extend(tensors.into_iter().take(room));
    }
}

impl Drop for ScratchArena {
    fn drop(&mut self) {
        Self::release(self.pool.drain(..));
    }
}

/// The shared pool, whatever a thread that panicked holding it left.
fn shared() -> MutexGuard<'static, Vec<Tensor>> {
    SHARED.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static SCRATCH: RefCell<ScratchArena> = RefCell::new(ScratchArena::new());
}

/// Run `f` with this thread's shared [`ScratchArena`].
///
/// Top-level inference entry points use this so repeated predictions on one
/// thread reuse the same buffers; nested calls must instead thread the arena
/// explicitly (the closure holds the `RefCell` borrow).
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut ScratchArena) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// One input row of [`Exec::gather`] or [`Exec::pool`]: row `.1` of a
/// tensor of the forward, or a constant row from outside it (a memo
/// entry), which takes no gradient.
pub enum Row<'a, T> {
    Of(&'a T, usize),
    Const(&'a [f32]),
}

impl<T> Clone for Row<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Row<'_, T> {}

/// The ops a model forward is written in. `T` is the executor's tensor
/// handle; every op's value is computed by the same kernel in both
/// executors, so a forward's bits do not depend on which one runs it.
pub trait Exec {
    /// A tensor of the forward: a tape node, or a scratch tensor.
    type T;

    /// The value behind a handle.
    fn value<'a>(&'a self, t: &'a Self::T) -> &'a Tensor;

    /// A constant input: a `rows x cols` tensor that `fill` writes whole
    /// (the serving executor's starts with stale floats).
    fn constant(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut Tensor)) -> Self::T;

    /// `act(x·W + b)`: one packed GEMM with the bias and activation in its
    /// epilogue.
    ///
    /// # Panics
    /// If `x` is not as wide as `W` is tall.
    fn linear(&mut self, x: &Self::T, w: ParamId, b: Option<ParamId>, act: Activation) -> Self::T;

    /// `act(x·W + c)` of the folded linear `fold` ([`Fold`]): one packed
    /// GEMM over the store's folded weight, its bias in the epilogue. `mid`
    /// is the first linear's output when the caller holds it: the tape
    /// records the product as the second linear over it, so the backward is
    /// the two linears' chain rule (the tape computes it when `None`).
    ///
    /// # Panics
    /// If `x` is not as wide as the fold's first linear.
    fn fold(&mut self, x: &Self::T, mid: Option<&Self::T>, fold: &Fold, act: Activation)
        -> Self::T;

    /// The own term `own·W_own + b` of LSTM `cell` ([`LstmCell`]): one
    /// packed GEMM with the bias in its epilogue, `[rows, 4·hidden]`. The
    /// own input is a constant of the forward (node features).
    ///
    /// # Panics
    /// If `own` is not `cell.own_dim()` wide; on the tape's backward, if
    /// `own` takes a gradient.
    fn lstm_own(&mut self, cell: &LstmCell, own: &Self::T) -> Self::T;

    /// Room for `rows` LSTM states `d` wide, stepped level by level by
    /// [`Self::lstm_step`].
    fn levels(&mut self, rows: usize, d: usize) -> LevelStates<Self::T>;

    /// One folded step of LSTM `cell` from state `(h, c)`, whose row `i`
    /// takes the `i`-th projected own term `own` yields
    /// ([`Self::lstm_own`]'s rows, or a memo's): `gates = own + h·W_fold`,
    /// one packed GEMM accumulating onto the gathered own terms, then
    /// [`crate::act::lstm_gates`]. Appends the new `(h, c)` to `out` as its
    /// next level.
    ///
    /// # Panics
    /// If `own` does not yield one `4·hidden`-wide row per row of `h`.
    fn lstm_step<'a>(
        &mut self,
        cell: &LstmCell,
        own: impl IntoIterator<Item = Row<'a, Self::T>>,
        h: &Self::T,
        c: &Self::T,
        out: &mut LevelStates<Self::T>,
    ) where
        Self::T: 'a;

    /// Every row of `levels`, in step order: `[rows, d]` each.
    fn stacked(&mut self, levels: LevelStates<Self::T>) -> LstmState<Self::T>;

    /// `x·[W_0 | … | W_{H-1}]`: every per-head weight of `w` at once, one
    /// packed GEMM over the store's side-by-side pack, `[rows, Σ d_h]` with
    /// head `h` in its own columns, each bitwise `x·W_h` alone.
    ///
    /// # Panics
    /// If `x` is not as wide as the weights are tall.
    fn heads(&mut self, x: &Self::T, w: &[ParamId]) -> Self::T;

    /// `q·[W_0ᵀ | … | W_{H-1}ᵀ]`, head by head: `q` is `[rows, H·d]` with
    /// head `h` in columns `h·d..`, each `W_h` of `w` is `[k, d]`, and row
    /// `r`'s head-`h` block is `dot(q[r][h·d..(h + 1)·d], W_h[j])` for `j <
    /// k` (the dispatched [`dot`]): `[rows, H·k]`.
    ///
    /// # Panics
    /// If `q` is not as wide as the weights' rows times their count.
    fn heads_t(&mut self, q: &Self::T, w: &[ParamId]) -> Self::T;

    /// Attention logits of the rows of `x` (`[rows, k]`): row `i`'s head-`h`
    /// logit is `dot(q_i[h·k..(h + 1)·k], x[i]) · scale`, `q_i` the `i`-th
    /// row `q` yields, `heads·k` wide: `[rows, heads]`.
    fn logits<'a>(
        &mut self,
        q: impl IntoIterator<Item = Row<'a, Self::T>>,
        x: &Self::T,
        heads: usize,
        scale: f32,
    ) -> Self::T
    where
        Self::T: 'a;

    /// Subtree softmax states ([`merge_states`]): row `r` merges its own
    /// `logits` and `values` rows with its `lens[r]` children from `kids`,
    /// `[rows, heads·(2 + d)]`.
    fn merge(
        &mut self,
        logits: &Self::T,
        values: &Self::T,
        kids: &[Kid],
        lens: &[usize],
    ) -> Self::T;

    /// The attention contexts `U_h / Z_h` of the subtree states `rows`
    /// yields ([`merge_states`]'s layout): `[rows, heads·d]`.
    fn context<'a>(
        &mut self,
        heads: usize,
        rows: impl IntoIterator<Item = Row<'a, Self::T>>,
    ) -> Self::T
    where
        Self::T: 'a;

    /// The `n` rows `rows` yields, `cols` wide, stacked.
    fn gather<'a>(
        &mut self,
        n: usize,
        cols: usize,
        rows: impl IntoIterator<Item = Row<'a, Self::T>>,
    ) -> Self::T
    where
        Self::T: 'a;

    /// Weighted segment sums, scaled: output row `s` (of `[lens.len(),
    /// cols]`) sums the next `lens[s]` rows `rows` yields, in order from
    /// zero, each times its weight (a row of weight 0 is skipped; no weights
    /// is weight 1), then multiplies by `scales[s]`.
    fn pool<'a>(
        &mut self,
        rows: impl IntoIterator<Item = Row<'a, Self::T>>,
        weights: Option<&[f32]>,
        lens: &[usize],
        scales: &[f32],
        cols: usize,
    ) -> Self::T
    where
        Self::T: 'a;

    /// The column ranges of equally tall tensors, side by side.
    fn concat(&mut self, parts: &[(&Self::T, Range<usize>)]) -> Self::T;

    /// The VAE's reparameterized draws from `h = [mu | raw logvar]`:
    /// `eps[r]` holds row `r`'s draws, and output row `s·K + r` is
    /// `mu + exp(0.5 · 8 · tanh(raw)) · eps_s`.
    fn sample(&mut self, h: &Self::T, latent: usize, eps: &[&[f32]]) -> Self::T;

    /// Hand back a tensor the forward no longer reads.
    fn recycle(&mut self, t: Self::T);

    /// The floats of `row`.
    fn row<'a>(&'a self, row: Row<'a, Self::T>) -> &'a [f32] {
        match row {
            Row::Of(t, r) => self.value(t).row_slice(r),
            Row::Const(data) => data,
        }
    }
}

/// The serving executor: values only, every tensor from `arena`.
pub struct Scratch<'a> {
    pub store: &'a ParamStore,
    pub arena: &'a mut ScratchArena,
}

impl Exec for Scratch<'_> {
    type T = Tensor;

    fn value<'a>(&'a self, t: &'a Tensor) -> &'a Tensor {
        t
    }

    fn constant(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut Tensor)) -> Tensor {
        let mut t = self.arena.take(rows, cols);
        fill(&mut t);
        t
    }

    fn linear(&mut self, x: &Tensor, w: ParamId, b: Option<ParamId>, act: Activation) -> Tensor {
        let mut y = self.arena.take(x.rows(), self.store.value(w).cols());
        linear_into(self.store, x, w, b, act, &mut y);
        y
    }

    fn fold(&mut self, x: &Tensor, _mid: Option<&Tensor>, fold: &Fold, act: Activation) -> Tensor {
        let mut y = self.arena.take(x.rows(), fold.b.out_dim);
        fold_into(self.store, x, fold, act, &mut y);
        y
    }

    fn lstm_own(&mut self, cell: &LstmCell, own: &Tensor) -> Tensor {
        let mut y = self.arena.take(own.rows(), 4 * cell.hidden_dim);
        lstm_own_into(self.store, cell, own, &mut y);
        y
    }

    fn levels(&mut self, rows: usize, d: usize) -> LevelStates<Tensor> {
        let state = LstmState { h: self.arena.take(rows, d), c: self.arena.take(rows, d) };
        LevelStates::Wide { state, filled: 0 }
    }

    fn lstm_step<'a>(
        &mut self,
        cell: &LstmCell,
        own: impl IntoIterator<Item = Row<'a, Tensor>>,
        h: &Tensor,
        c: &Tensor,
        out: &mut LevelStates<Tensor>,
    ) {
        let LevelStates::Wide { state, filled } = out else {
            unreachable!("the serving executor steps into one pass-wide state")
        };
        let (rows, d) = (h.rows(), cell.hidden_dim);
        let mut gates = self.arena.take(rows, 4 * d);
        gather_into(own.into_iter().map(|r| self.row(r)), &mut gates);
        let span = *filled * d..(*filled + rows) * d;
        let (h_out, c_out) = (&mut state.h.data_mut()[span.clone()], &mut state.c.data_mut()[span]);
        lstm_into(self.store, cell, h, c, &mut gates, h_out, c_out);
        *filled += rows;
        self.arena.recycle(gates);
    }

    fn stacked(&mut self, levels: LevelStates<Tensor>) -> LstmState<Tensor> {
        let LevelStates::Wide { state, filled } = levels else {
            unreachable!("the serving executor steps into one pass-wide state")
        };
        assert_eq!(filled, state.h.rows(), "every row is stepped");
        state
    }

    fn heads(&mut self, x: &Tensor, w: &[ParamId]) -> Tensor {
        let mut y = self.arena.take(x.rows(), self.store.packed_heads(w).n());
        heads_into(self.store, x, w, &mut y);
        y
    }

    fn heads_t(&mut self, q: &Tensor, w: &[ParamId]) -> Tensor {
        let mut y = self.arena.take(q.rows(), w.len() * self.store.value(w[0]).rows());
        heads_t_into(self.store, q, w, &mut y);
        y
    }

    fn logits<'a>(
        &mut self,
        q: impl IntoIterator<Item = Row<'a, Tensor>>,
        x: &Tensor,
        heads: usize,
        scale: f32,
    ) -> Tensor {
        let mut out = self.arena.take(x.rows(), heads);
        logits_into(q.into_iter().map(|r| self.row(r)), x, scale, &mut out);
        out
    }

    fn merge(&mut self, logits: &Tensor, values: &Tensor, kids: &[Kid], lens: &[usize]) -> Tensor {
        let heads = logits.cols();
        let mut out = self.arena.take(logits.rows(), values.cols() + 2 * heads);
        merge_states(logits.data(), values.data(), kids, lens, out.data_mut());
        out
    }

    fn context<'a>(
        &mut self,
        heads: usize,
        rows: impl IntoIterator<Item = Row<'a, Tensor>>,
    ) -> Tensor {
        let row = |r| match r {
            Row::Of(t, i) => Tensor::row_slice(t, i),
            Row::Const(data) => data,
        };
        let rows: Vec<&[f32]> = rows.into_iter().map(row).collect();
        let d = rows.first().map_or(0, |r| r.len() / heads - 2);
        let mut out = self.arena.take(rows.len(), heads * d);
        context_into(rows, heads, &mut out);
        out
    }

    fn gather<'a>(
        &mut self,
        n: usize,
        cols: usize,
        rows: impl IntoIterator<Item = Row<'a, Tensor>>,
    ) -> Tensor {
        let mut out = self.arena.take(n, cols);
        gather_into(rows.into_iter().map(|r| self.row(r)), &mut out);
        out
    }

    fn pool<'a>(
        &mut self,
        rows: impl IntoIterator<Item = Row<'a, Tensor>>,
        weights: Option<&[f32]>,
        lens: &[usize],
        scales: &[f32],
        cols: usize,
    ) -> Tensor {
        let mut out = self.arena.take(lens.len(), cols);
        pool_into(rows.into_iter().map(|r| self.row(r)), weights, lens, scales, &mut out);
        out
    }

    fn concat(&mut self, parts: &[(&Tensor, Range<usize>)]) -> Tensor {
        let cols = parts.iter().map(|(_, r)| r.len()).sum();
        let mut out = self.arena.take(parts[0].0.rows(), cols);
        concat_into(parts.iter().map(|(t, r)| (*t, r.clone())), &mut out);
        out
    }

    fn sample(&mut self, h: &Tensor, latent: usize, eps: &[&[f32]]) -> Tensor {
        let mut out = self.arena.take(eps.iter().map(|e| e.len()).sum::<usize>() / latent, latent);
        sample_into(h, latent, eps, &mut out);
        out
    }

    fn recycle(&mut self, t: Tensor) {
        self.arena.recycle(t);
    }
}

/// `act(x·W + b)` into `out` (`[x.rows, W.cols]`) through the packed GEMM,
/// bias and activation applied in its epilogue.
pub(crate) fn linear_into(
    store: &ParamStore,
    x: &Tensor,
    w: ParamId,
    b: Option<ParamId>,
    act: Activation,
    out: &mut Tensor,
) {
    let packed = store.packed(w);
    assert_eq!(
        x.cols(),
        packed.k(),
        "linear layer expects {} input features, got {}",
        packed.k(),
        x.cols()
    );
    let bias = b.map(|b| store.value(b).data());
    gemm_packed(x.rows(), x.data(), packed, false, bias, act, out.data_mut());
}

/// `act(x·W + c)` of `fold` into `out` (`[x.rows, b.out_dim]`): one packed
/// GEMM over the store's folded weight, the folded bias in its epilogue.
pub(crate) fn fold_into(
    store: &ParamStore,
    x: &Tensor,
    fold: &Fold,
    act: Activation,
    out: &mut Tensor,
) {
    let packed = store.fold_w(fold);
    assert_eq!(x.cols(), packed.k(), "folded linear expects {} input features", packed.k());
    let bias = Some(store.fold_b(fold).data());
    gemm_packed(x.rows(), x.data(), packed, false, bias, act, out.data_mut());
}

/// The own term `own·W_own + b` of LSTM `cell` into `out` (`[own.rows,
/// 4·hidden]`): one packed GEMM over the store's `W_own`, the bias in its
/// epilogue.
pub(crate) fn lstm_own_into(store: &ParamStore, cell: &LstmCell, own: &Tensor, out: &mut Tensor) {
    assert_eq!(own.cols(), cell.own_dim(), "LSTM own-input width mismatch");
    let bias = Some(store.value(cell.bias).data());
    let id = Activation::Identity;
    gemm_packed(own.rows(), own.data(), store.lstm_own(cell), false, bias, id, out.data_mut());
}

/// One folded LSTM step: `gates` (`[rows, 4·d]`) holds the rows' own terms
/// on entry, and becomes `own + h·W_fold` by one packed GEMM accumulating
/// onto them; then [`lstm_gates`] writes `h_out` and `c_out` (`rows·d`
/// floats each).
pub(crate) fn lstm_into(
    store: &ParamStore,
    cell: &LstmCell,
    h: &Tensor,
    c: &Tensor,
    gates: &mut Tensor,
    h_out: &mut [f32],
    c_out: &mut [f32],
) {
    let (rows, d) = (h.rows(), cell.hidden_dim);
    assert_eq!(gates.shape(), (rows, 4 * d), "LSTM gates are not [rows, 4·hidden]");
    let (fold, id) = (store.lstm_fold(cell), Activation::Identity);
    gemm_packed(rows, h.data(), fold, true, None, id, gates.data_mut());
    lstm_gates(rows, d, gates.data(), c.data(), c_out, h_out);
}

/// `x·[W_0 | … | W_{H-1}]` into `out` (`[x.rows, Σ d_h]`): one packed GEMM
/// over the store's side-by-side pack of the per-head weights `w`.
pub(crate) fn heads_into(store: &ParamStore, x: &Tensor, w: &[ParamId], out: &mut Tensor) {
    let packed = store.packed_heads(w);
    assert_eq!(x.cols(), packed.k(), "head projection expects {} input features", packed.k());
    gemm_packed(x.rows(), x.data(), packed, false, None, Activation::Identity, out.data_mut());
}

/// `q·[W_0ᵀ | … | W_{H-1}ᵀ]` head by head into `out` (`[q.rows, H·k]`):
/// every element one dispatched [`dot`] of a query head and a weight row.
pub(crate) fn heads_t_into(store: &ParamStore, q: &Tensor, w: &[ParamId], out: &mut Tensor) {
    let k = store.value(w[0]).rows();
    let d = q.cols() / w.len();
    assert_eq!(d * w.len(), q.cols(), "queries must hold one d-wide block per head");
    for r in 0..q.rows() {
        for (h, &wh) in w.iter().enumerate() {
            let wt = store.value(wh);
            assert_eq!(wt.shape(), (k, d), "every head's weight is [k, d]");
            let qh = &q.row_slice(r)[h * d..(h + 1) * d];
            let o = &mut out.row_slice_mut(r)[h * k..(h + 1) * k];
            o.iter_mut().enumerate().for_each(|(j, o)| *o = dot(qh, wt.row_slice(j)));
        }
    }
}

/// Row `i`'s head-`h` logit `dot(q_i[h·k..], x[i]) · scale` into `out`
/// (`[x.rows, heads]`), `q_i` the `i`-th of `q`.
///
/// # Panics
/// If `q` does not yield one `heads·k`-wide row per row of `x`.
pub(crate) fn logits_into<'r>(
    q: impl IntoIterator<Item = &'r [f32]>,
    x: &Tensor,
    scale: f32,
    out: &mut Tensor,
) {
    let (k, mut n) = (x.cols(), 0);
    for (i, qi) in q.into_iter().enumerate() {
        assert_eq!(qi.len(), out.cols() * k, "a query row holds heads·k floats");
        let xi = x.row_slice(i);
        let o = out.row_slice_mut(i);
        o.iter_mut().zip(qi.chunks(k)).for_each(|(o, qh)| *o = dot(qh, xi) * scale);
        n += 1;
    }
    assert_eq!(n, x.rows(), "logits: one query row per row");
}

/// The contexts `U_h / Z_h` of the subtree states `rows` into `out`
/// (`[rows, heads·d]`), each element one division.
pub(crate) fn context_into(rows: Vec<&[f32]>, heads: usize, out: &mut Tensor) {
    assert_eq!(rows.len(), out.rows(), "context: one state per output row");
    let d = out.cols() / heads;
    for (i, st) in rows.into_iter().enumerate() {
        assert_eq!(st.len(), heads * (2 + d), "a state holds heads·(2 + d) floats");
        let (z, u) = (&st[heads..2 * heads], &st[2 * heads..]);
        let o = out.row_slice_mut(i);
        for (h, &zh) in z.iter().enumerate() {
            let span = h * d..(h + 1) * d;
            o[span.clone()].iter_mut().zip(&u[span]).for_each(|(o, &uh)| *o = uh / zh);
        }
    }
}

/// Row `i` of `out` is the `i`-th of `rows`.
///
/// # Panics
/// If `rows` does not yield one row per row of `out`.
pub(crate) fn gather_into<'r>(rows: impl IntoIterator<Item = &'r [f32]>, out: &mut Tensor) {
    let mut n = 0;
    for (i, row) in rows.into_iter().enumerate() {
        out.row_slice_mut(i).copy_from_slice(row);
        n += 1;
    }
    assert_eq!(n, out.rows(), "gather: one row per output row");
}

/// Output row `s` sums the next `lens[s]` input rows in order from zero,
/// each times its weight (a row of weight 0 is skipped; no weights is
/// weight 1), then scales the sum by `scales[s]`. An empty segment is zero.
/// Every element of `out` is written; none is read first.
///
/// # Panics
/// If `rows` yields fewer rows than `lens` counts.
pub(crate) fn pool_into<'r>(
    rows: impl IntoIterator<Item = &'r [f32]>,
    weights: Option<&[f32]>,
    lens: &[usize],
    scales: &[f32],
    out: &mut Tensor,
) {
    let mut rows = rows.into_iter();
    let mut at = 0;
    for (s, &len) in lens.iter().enumerate() {
        let o = out.row_slice_mut(s);
        // The first summed row writes `0 + v` over the output's stale
        // floats: the bits of a sum from zero, `-0.0` made `+0.0`.
        let mut first = true;
        for r in at..at + len {
            let row = rows.next().expect("pool: one row per counted row");
            let w = match weights.map(|w| w[r]) {
                Some(0.0) => continue,
                w => w,
            };
            match (w, std::mem::take(&mut first)) {
                (None, true) => o.iter_mut().zip(row).for_each(|(a, v)| *a = 0.0 + v),
                (None, false) => o.iter_mut().zip(row).for_each(|(a, v)| *a += v),
                (Some(w), true) => o.iter_mut().zip(row).for_each(|(a, v)| *a = 0.0 + v * w),
                (Some(w), false) => o.iter_mut().zip(row).for_each(|(a, v)| *a += v * w),
            }
        }
        if first {
            o.fill(0.0);
        }
        o.iter_mut().for_each(|a| *a *= scales[s]);
        at += len;
    }
}

/// The column ranges of `parts`, side by side, into `out`.
pub(crate) fn concat_into<'t>(
    parts: impl Iterator<Item = (&'t Tensor, Range<usize>)>,
    out: &mut Tensor,
) {
    let mut at = 0;
    for (t, cols) in parts {
        let w = cols.len();
        for r in 0..out.rows() {
            out.row_slice_mut(r)[at..at + w].copy_from_slice(&t.row_slice(r)[cols.clone()]);
        }
        at += w;
    }
}

/// The VAE's reparameterization: `h [K, 2·latent]` holds each row's mean
/// and raw log-variance, and `eps[r]` row `r`'s `S` standard-normal draws
/// (`S·latent` floats, the same `S` for every row). Output row `s·K + r`
/// (sample-major) is `mu + exp(0.5 · logvar) · eps_s` with the soft-bounded
/// `logvar = 8 · tanh(raw)`. A row's scale `exp(0.5 · logvar)` is computed
/// once, then read by each of its draws.
pub(crate) fn sample_into(h: &Tensor, latent: usize, eps: &[&[f32]], out: &mut Tensor) {
    let k = h.rows();
    assert_eq!(eps.len(), k, "one eps block per row");
    let mut sigma = Vec::with_capacity(latent);
    for (r, eps_r) in eps.iter().enumerate() {
        assert_eq!(eps_r.len() * k, out.len(), "eps blocks must agree on sample count");
        let (mu, raw) = h.row_slice(r).split_at(latent);
        sigma.clear();
        sigma.extend(raw.iter().map(|v| (0.5 * (8.0 * v.tanh())).exp()));
        for (si, er) in eps_r.chunks(latent).enumerate() {
            let zr = out.row_slice_mut(si * k + r);
            for j in 0..latent {
                zr[j] = mu[j] + sigma[j] * er[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, Var};
    use crate::init::Initializer;
    use crate::layers::{Fold, Linear, Mlp};
    use crate::pack::PackedGemm;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Whether `t` is what a debug build's `take` hands out: all NaN.
    fn poisoned(t: &Tensor) -> bool {
        !cfg!(debug_assertions) || t.data().iter().all(|x| x.is_nan())
    }

    #[test]
    fn arena_recycles_allocations() {
        let mut sc = ScratchArena::new();
        let t = sc.take(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert!(poisoned(&t));
        sc.recycle(t);
        assert_eq!(sc.idle(), 1);
        let t2 = sc.take(2, 2); // reshaped reuse
        assert_eq!(sc.idle(), 0);
        assert_eq!(t2.shape(), (2, 2));
        assert!(poisoned(&t2));
        for _ in 0..MAX_IDLE + 3 {
            sc.recycle(Tensor::zeros(1, 1));
        }
        assert_eq!(sc.idle(), MAX_IDLE, "the pool keeps at most MAX_IDLE buffers");
    }

    /// `take` recycles the smallest idle buffer that fits, else grows the
    /// largest, and hands out stale floats (NaN in a debug build).
    #[test]
    fn arena_takes_the_smallest_buffer_that_fits() {
        let mut sc = ScratchArena::new();
        let (small, big) = (sc.take(1, 8), sc.take(4, 100));
        let mut mid = sc.take(2, 10);
        mid.data_mut().fill(3.0);
        for t in [big, small, mid] {
            sc.recycle(t);
        }
        let t = sc.take(3, 5);
        assert_eq!((t.capacity(), sc.idle()), (20, 2), "the 20-float buffer fits 15");
        assert!(poisoned(&t));
        let wide = sc.take(5, 100);
        assert!(wide.capacity() >= 500, "no buffer fits: the largest grows");
        assert_eq!(sc.take(1, 8).capacity(), 8);
    }

    /// `kernel` run into an output of `len` floats filled with NaN and
    /// into one filled with zeros: the two results' bits, which must be
    /// equal if it writes every element.
    fn written_whole(what: &str, len: usize, mut kernel: impl FnMut(&mut [f32])) {
        let [stale, zeroed] = [f32::NAN, 0.0].map(|fill| {
            let mut out = vec![fill; len];
            kernel(&mut out);
            bits_of(&out)
        });
        assert_eq!(stale, zeroed, "{what} leaves an element of its output unwritten");
    }

    /// Every kernel the serving executor runs writes each element of its
    /// output, so an output buffer's stale contents are never read, and
    /// [`ScratchArena::take`] need not zero it: into a NaN-filled output
    /// and into a zeroed one, each gives the same bits. The GEMM with
    /// `accumulate = false` (with and without bias, over inputs with an
    /// all-zero row block and all-zero k steps, which it skips) and the
    /// subtree merge on every tier; the gate math on the process's tier
    /// (`QPS_FORCE_ISA` picks it); row gathers, column concatenation,
    /// pooling (which zeroes its rows itself) and the VAE's draws.
    #[test]
    fn kernels_write_every_element_they_own() {
        let mut init = Initializer::new(23);
        for (m, k, n) in [(1, 7, 5), (9, 33, 31), (16, 96, 384), (5, 64, 40)] {
            let w = PackedGemm::pack(&init.normal(k, n, 1.0));
            let bias = init.normal(1, n, 1.0);
            let mut a = init.normal(m, k, 1.0);
            for (i, v) in a.data_mut().iter_mut().enumerate() {
                if i < k.min(4) * k || (i % k) % 3 == 0 {
                    *v = 0.0;
                }
            }
            for isa in crate::isa::Isa::supported() {
                for (b, act) in
                    [(None, Activation::Identity), (Some(bias.data()), Activation::Relu)]
                {
                    written_whole(&format!("{isa:?} gemm {m}x{k}x{n}"), m * n, |out| {
                        crate::pack::gemm_packed_force(isa, m, a.data(), &w, false, b, act, out)
                    });
                }
            }
        }
        let (heads, d) = (3, 5);
        let logits = init.normal(4, heads, 1.0);
        let values = init.normal(4, heads * d, 1.0);
        let memo = init.normal(1, heads * (2 + d), 1.0);
        let kids = [Kid::Row(0), Kid::Row(1), Kid::Const(memo.data()), Kid::Row(2)];
        let lens = [0, 0, 2, 2];
        for isa in crate::isa::Isa::supported() {
            written_whole(&format!("{isa:?} merge"), 4 * heads * (2 + d), |out| {
                crate::act::merge_states_force(isa, logits.data(), values.data(), &kids, &lens, out)
            });
        }
        let (rows, d) = (3, 8);
        let (gates, c) = (init.normal(rows, 4 * d, 2.0), init.normal(rows, d, 1.0));
        written_whole("lstm_gates c", rows * d, |c_out| {
            lstm_gates(rows, d, gates.data(), c.data(), c_out, &mut vec![0.0; rows * d])
        });
        written_whole("lstm_gates h", rows * d, |h_out| {
            lstm_gates(rows, d, gates.data(), c.data(), &mut vec![0.0; rows * d], h_out)
        });
        // The tensor kernels, on a `[rows, cols]` output over `out`'s floats.
        let shaped = |rows: usize, cols: usize, out: &mut [f32], f: &dyn Fn(&mut Tensor)| {
            let mut t = Tensor::from_vec(rows, cols, out.to_vec());
            f(&mut t);
            out.copy_from_slice(t.data());
        };
        let x = init.normal(4, 6, 1.0);
        written_whole("gather", 3 * 6, |out| {
            let rows = [x.row_slice(2), x.row_slice(0), memo.data()[..6].as_ref()];
            shaped(3, 6, out, &|t| gather_into(rows, t))
        });
        written_whole("concat", 4 * 5, |out| {
            shaped(4, 5, out, &|t| concat_into([(&x, 1..3), (&x, 3..6)].into_iter(), t))
        });
        for weights in [None, Some([1.0, 0.0, -0.5, 2.0].as_slice())] {
            written_whole("pool", 3 * 6, |out| {
                let rows = (0..4).map(|r| x.row_slice(r));
                shaped(3, 6, out, &|t| {
                    pool_into(rows.clone(), weights, &[1, 0, 3], &[1.0, 1.0, 0.5], t)
                })
            });
        }
        let (latent, draws) = (3, 2);
        let h = init.normal(2, 2 * latent, 1.0);
        let eps = [init.normal(1, draws * latent, 1.0), init.normal(1, draws * latent, 1.0)];
        let eps: Vec<&[f32]> = eps.iter().map(Tensor::data).collect();
        written_whole("sample", draws * 2 * latent, |out| {
            shaped(draws * 2, latent, out, &|t| sample_into(&h, latent, &eps, t))
        });
    }

    /// The VAE's draws read each row's scale, computed once, and are bit
    /// for bit the per-draw formula `mu + exp(0.5 · 8 · tanh(raw)) · eps`:
    /// on 1 and 8 draws, latent widths 16, 32 and 64, raw log-variances of
    /// ±0, beyond `tanh`'s saturation, ±inf and NaN, through the serving
    /// executor and the tape, which run the one kernel.
    #[test]
    fn draws_read_each_rows_scale_bitwise_the_per_draw_formula() {
        let specials = [0.0, -0.0, 9.5, -9.5, 40.0, -40.0, f32::INFINITY, f32::NEG_INFINITY];
        let store = ParamStore::new();
        let mut init = Initializer::new(41);
        for latent in [16, 32, 64] {
            for draws in [1, 8] {
                let k = 3;
                let mut h = init.normal(k, 2 * latent, 2.0);
                for (i, v) in
                    h.data_mut().chunks_mut(latent).skip(1).step_by(2).flatten().enumerate()
                {
                    *v = match i % 11 {
                        s @ 0..=7 => specials[s],
                        8 => f32::NAN,
                        _ => *v,
                    };
                }
                let blocks: Vec<Tensor> =
                    (0..k).map(|_| init.standard_normal(1, draws * latent)).collect();
                let eps: Vec<&[f32]> = blocks.iter().map(Tensor::data).collect();
                let mut want = Vec::with_capacity(draws * k * latent);
                for si in 0..draws {
                    for (r, e) in eps.iter().enumerate() {
                        let hr = h.row_slice(r);
                        want.extend((0..latent).map(|j| {
                            let logvar = 8.0 * hr[latent + j].tanh();
                            hr[j] + (0.5 * logvar).exp() * e[si * latent + j]
                        }));
                    }
                }
                let mut sc = ScratchArena::new();
                let served = Scratch { store: &store, arena: &mut sc }.sample(&h, latent, &eps);
                let mut g = Graph::new(&store);
                let hv = g.constant(h.clone());
                let taped = g.sample(&hv, latent, &eps);
                for (what, got) in [("serving", &served), ("tape", g.value(taped))] {
                    assert_eq!(got.shape(), (draws * k, latent));
                    assert_eq!(bits(got), bits_of(&want), "{what}: latent {latent}, {draws} draws");
                }
            }
        }
    }

    #[test]
    fn mlp_inference_matches_tape() {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(7);
        let m =
            Mlp::new(&mut store, &mut init, "m", &[5, 8, 3], Activation::Relu, Activation::Tanh);
        let x = Initializer::new(9).normal(4, 5, 1.0);

        let mut g = Graph::new(&store);
        let xv = g.constant(x.clone());
        let tape = m.forward(&mut g, &xv);

        let mut sc = ScratchArena::new();
        let fast = m.forward(&mut Scratch { store: &store, arena: &mut sc }, &x);
        assert_eq!(bits(&fast), bits(g.value(tape)));
    }

    /// A `Linear` runs one packed GEMM with bias and activation in its
    /// epilogue on both executors — across row-tile, panel and column-tail
    /// remainders, with planted zeros for the sparse skip — and the tape's
    /// value is bitwise the unfused `x·W`, then `+ b`.
    #[test]
    fn tape_linear_is_bitwise_the_fast_path() {
        for (m, k, n) in [(1, 7, 5), (3, 33, 31), (5, 64, 40), (9, 17, 96), (16, 182, 384)] {
            let mut store = ParamStore::new();
            let l = Linear::new(&mut store, &mut Initializer::new(m as u64), "l", k, n);
            *store.value_mut(l.b) = Initializer::new(7).normal(1, n, 1.0);
            let mut x = Initializer::new(k as u64).normal(m, k, 1.0);
            for (i, v) in x.data_mut().iter_mut().enumerate() {
                if i % 3 == 0 || (i % k) / 4 == 1 {
                    *v = 0.0;
                }
            }

            let mut g = Graph::new(&store);
            let xv = g.constant(x.clone());
            let tape = l.forward(&mut g, &xv, Activation::Identity);
            let mut unfused = x.matmul(store.value(l.w));
            for r in 0..m {
                unfused
                    .row_slice_mut(r)
                    .iter_mut()
                    .zip(store.value(l.b).data())
                    .for_each(|(y, b)| *y += b);
            }
            let mut sc = ScratchArena::new();
            let fast =
                l.forward(&mut Scratch { store: &store, arena: &mut sc }, &x, Activation::Identity);
            assert_eq!(bits(g.value(tape)), bits(&fast), "{m}x{k}x{n}");
            assert_eq!(bits(&unfused), bits(&fast), "{m}x{k}x{n} unfused");
        }
    }

    #[test]
    fn lstm_inference_matches_tape_over_two_steps() {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(11);
        let cell = LstmCell::new(&mut store, &mut init, "l", 6, 4, 1);
        let x1 = Initializer::new(1).normal(2, cell.own_dim(), 1.0);
        let x2 = Initializer::new(2).normal(2, cell.own_dim(), 1.0);

        let mut g = Graph::new(&store);
        let s0 = cell.zero_state(&mut g, 2);
        let x1v = g.constant(x1.clone());
        let o1 = cell.project(&mut g, &x1v);
        let s1 = cell.step(&mut g, &o1, &s0);
        let x2v = g.constant(x2.clone());
        let o2 = cell.project(&mut g, &x2v);
        let s2 = cell.step(&mut g, &o2, &s1);

        let mut sc = ScratchArena::new();
        let e = &mut Scratch { store: &store, arena: &mut sc };
        let b0 = cell.zero_state(e, 2);
        let p1 = cell.project(e, &x1);
        let b1 = cell.step(e, &p1, &b0);
        let p2 = cell.project(e, &x2);
        let b2: LstmState<Tensor> = cell.step(e, &p2, &b1);
        assert_eq!(bits(&b2.h), bits(g.value(s2.h)));
        assert_eq!(bits(&b2.c), bits(g.value(s2.c)));
    }

    /// The fold's identity against an independent oracle: for random cell
    /// weights and random rows, the folded gates `own·W_own + b + h·W_fold`
    /// equal `x·W_ih + h·W_hh + b` on the assembled input `x = [h[..child] |
    /// mid | h[child..] + est]`, computed in f64, within 1e-5 of the terms'
    /// magnitude — on leaf rows (`h = 0`, `est ≠ 0`), join rows (`est = 0`)
    /// and a level mixing both, at a toy and at the bench preset's shape,
    /// on every tier.
    #[test]
    fn folded_gates_match_an_f64_oracle_on_the_assembled_input() {
        for (input, d, child) in [(7, 4, 2), (5, 3, 0), (6, 3, 3), (182, 96, 93)] {
            let mut store = ParamStore::new();
            let mut init = Initializer::new(input as u64);
            let cell = LstmCell::new(&mut store, &mut init, "l", input, d, child);
            *store.value_mut(cell.bias) = init.normal(1, 4 * d, 0.5);
            let (w_ih, w_hh, b) =
                (store.value(cell.w_ih), store.value(cell.w_hh), store.value(cell.bias));
            let rows = 6;
            let mut h = init.normal(rows, d, 0.8);
            let mut own = init.normal(rows, cell.own_dim(), 1.0);
            let c = init.normal(rows, d, 1.0);
            // Rows 0 and 3 are leaves, rows 1 and 4 joins, 2 and 5 neither.
            for r in [0, 3] {
                h.row_slice_mut(r).fill(0.0);
            }
            for r in [1, 4] {
                own.row_slice_mut(r)[input - d..].fill(0.0);
            }
            for isa in crate::isa::Isa::supported() {
                for level in [0..rows, 0..1, 1..2, 0..3] {
                    let m = level.len();
                    let pick = |t: &Tensor| {
                        let w = t.cols();
                        Tensor::from_vec(m, w, t.data()[level.start * w..level.end * w].to_vec())
                    };
                    let (hm, om, cm) = (pick(&h), pick(&own), pick(&c));
                    let mut proj = Tensor::zeros(m, 4 * d);
                    let mut gates = Tensor::zeros(m, 4 * d);
                    let bias = Some(b.data());
                    let id = Activation::Identity;
                    let (w_own, fold) = (store.lstm_own(&cell), store.lstm_fold(&cell));
                    crate::pack::gemm_packed_force(
                        isa,
                        m,
                        om.data(),
                        w_own,
                        false,
                        bias,
                        id,
                        proj.data_mut(),
                    );
                    gates.data_mut().copy_from_slice(proj.data());
                    crate::pack::gemm_packed_force(
                        isa,
                        m,
                        hm.data(),
                        fold,
                        true,
                        None,
                        id,
                        gates.data_mut(),
                    );
                    for r in 0..m {
                        let (hr, or) = (hm.row_slice(r), om.row_slice(r));
                        let x: Vec<f64> = (0..input)
                            .map(|k| {
                                if k < child {
                                    hr[k] as f64
                                } else if k < input - d + child {
                                    or[k - child] as f64
                                } else {
                                    (hr[k - (input - d)] + or[k - child]) as f64
                                }
                            })
                            .collect();
                        for j in 0..4 * d {
                            let mut want = b.get(0, j) as f64;
                            let mut scale = want.abs();
                            for (k, &xk) in x.iter().enumerate() {
                                let t = xk * w_ih.get(k, j) as f64;
                                want += t;
                                scale += t.abs();
                            }
                            for (k, &hk) in hr.iter().enumerate() {
                                let t = hk as f64 * w_hh.get(k, j) as f64;
                                want += t;
                                scale += t.abs();
                            }
                            let got = gates.get(r, j) as f64;
                            assert!(
                                (got - want).abs() <= 1e-5 * (1.0 + scale),
                                "{isa:?} {input}x{d}/{child} level {level:?} row {r} gate {j}: \
                                 {got} vs {want}"
                            );
                        }
                    }
                    // The step's kernel is these gates, then `lstm_gates`.
                    if isa == crate::isa::active() {
                        let (mut g2, mut ho, mut co) =
                            (proj.clone(), Tensor::zeros(m, d), Tensor::zeros(m, d));
                        lstm_into(&store, &cell, &hm, &cm, &mut g2, ho.data_mut(), co.data_mut());
                        assert_eq!(bits(&g2), bits(&gates));
                    }
                }
            }
        }
    }

    /// Each fold's weight and bias against an f64 oracle, on every tier:
    /// `W_a[.., ..cols]·W_b` and `b_a[..cols]·W_b + b_b` by the packed GEMM
    /// forced to the tier are the same bits on every tier, within 1e-5 of
    /// the terms' magnitude of the sums in f64, and the store's copies;
    /// and a served fold's rows are, to rounding, the two linears it
    /// replaces computed in f64. At the bench preset's three folds (the
    /// attention output into `enc₁`, the encoder's mean into `dec₁`, the
    /// reconstruction into the head) and at toy shapes.
    #[test]
    fn folded_linears_match_an_f64_oracle() {
        let id = Activation::Identity;
        for (k, mid, cols, n) in [
            (128, 224, 224, 112),
            (64, 64, 32, 64),
            (112, 224, 224, 3),
            (5, 6, 4, 7),
            (9, 3, 3, 33),
        ] {
            let mut store = ParamStore::new();
            let mut init = Initializer::new((k * n) as u64);
            let a = Linear::new(&mut store, &mut init, "a", k, mid);
            let b = Linear::new(&mut store, &mut init, "b", cols, n);
            *store.value_mut(a.b) = init.normal(1, mid, 0.5);
            *store.value_mut(b.b) = init.normal(1, n, 0.5);
            let fold = Fold::new(&mut store, &a, cols, &b);
            let (wa, ba) = (store.value(a.w), store.value(a.b).data());
            let (wb, bb) = (store.value(b.w), store.value(b.b).data());
            let lead: Vec<f32> = (0..k).flat_map(|r| wa.row_slice(r)[..cols].to_vec()).collect();
            let wbp = PackedGemm::pack(wb);
            let mut tiers: Vec<(Vec<f32>, Vec<f32>)> = Vec::new();
            for isa in crate::isa::Isa::supported() {
                let (mut w, mut c) = (vec![0.0; k * n], vec![0.0; n]);
                crate::pack::gemm_packed_force(isa, k, &lead, &wbp, false, None, id, &mut w);
                crate::pack::gemm_packed_force(
                    isa,
                    1,
                    &ba[..cols],
                    &wbp,
                    false,
                    Some(bb),
                    id,
                    &mut c,
                );
                for j in 0..n {
                    let sum = |row: &[f32], init: f64| {
                        let terms = (0..cols).map(|l| row[l] as f64 * wb.get(l, j) as f64);
                        terms.fold((init, init.abs()), |(s, m), t| (s + t, m + t.abs()))
                    };
                    for i in 0..=k {
                        let (want, scale, got) = match i {
                            i if i < k => {
                                let (s, m) = sum(wa.row_slice(i), 0.0);
                                (s, m, w[i * n + j])
                            }
                            _ => {
                                let (s, m) = sum(ba, bb[j] as f64);
                                (s, m, c[j])
                            }
                        };
                        assert!(
                            (got as f64 - want).abs() <= 1e-5 * (1.0 + scale),
                            "{isa:?} {k}x{mid}[..{cols}]x{n} row {i} col {j}: {got} vs {want}"
                        );
                    }
                }
                if let Some((w0, c0)) = tiers.first() {
                    assert_eq!((bits_of(&w), bits_of(&c)), (bits_of(w0), bits_of(c0)), "{isa:?}");
                }
                tiers.push((w, c));
            }
            let (w0, c0) = &tiers[0];
            assert_eq!(bits(store.fold_b(&fold)), bits_of(c0), "the store's folded bias");
            let x = init.normal(4, k, 1.0);
            let mut sc = ScratchArena::new();
            let y = fold.forward(&mut Scratch { store: &store, arena: &mut sc }, &x, None, id);
            let mut direct = vec![0.0; 4 * n];
            let w0 = PackedGemm::pack(&Tensor::from_vec(k, n, w0.clone()));
            crate::pack::gemm_packed(4, x.data(), &w0, false, Some(c0), id, &mut direct);
            assert_eq!(bits(&y), bits_of(&direct), "the store's folded weight");
            for r in 0..4 {
                let xr = x.row_slice(r);
                let hidden: Vec<(f64, f64)> = (0..cols)
                    .map(|l| {
                        let terms = (0..k).map(|i| xr[i] as f64 * wa.get(i, l) as f64);
                        let init = (ba[l] as f64, (ba[l] as f64).abs());
                        terms.fold(init, |(s, m), t| (s + t, m + t.abs()))
                    })
                    .collect();
                for (j, &bj) in bb.iter().enumerate() {
                    let (mut want, mut scale) = (bj as f64, (bj as f64).abs());
                    for (l, &(h, m)) in hidden.iter().enumerate() {
                        let wlj = wb.get(l, j) as f64;
                        want += h * wlj;
                        scale += m * wlj.abs();
                    }
                    let got = y.get(r, j) as f64;
                    assert!(
                        (got - want).abs() <= 1e-5 * (1.0 + scale),
                        "{k}x{mid}[..{cols}]x{n} served row {r} col {j}: {got} vs {want}"
                    );
                }
            }
        }
    }

    fn bits_of(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One GEMM over every head's weight side by side is, head for head,
    /// bitwise that head's own GEMM, on every tier, with head widths that
    /// fill a panel and widths that do not; and on the tape the `heads` op
    /// has that value and gives every weight and the input bitwise the
    /// gradients of one linear per head whose outputs are concatenated.
    #[test]
    fn side_by_side_heads_are_bitwise_per_head_projections() {
        let id = Activation::Identity;
        for (k, d, heads) in [(96, 32, 4), (6, 5, 4), (33, 8, 3)] {
            let mut store = ParamStore::new();
            let mut init = Initializer::new(k as u64);
            let ws: Vec<ParamId> =
                (0..heads).map(|h| store.register(format!("w{h}"), init.xavier(k, d))).collect();
            let mut xt = init.normal(7, k, 1.0);
            xt.data_mut().iter_mut().step_by(3).for_each(|v| *v = 0.0);
            let x = store.register("x", xt);
            let coef = init.normal(7, heads * d, 1.0);
            let xd = store.value(x).data();
            for isa in crate::isa::Isa::supported() {
                let mut all = vec![0.0; 7 * heads * d];
                let side = store.packed_heads(&ws);
                crate::pack::gemm_packed_force(isa, 7, xd, side, false, None, id, &mut all);
                for (h, &w) in ws.iter().enumerate() {
                    let mut one = vec![0.0; 7 * d];
                    let packed = store.packed(w);
                    crate::pack::gemm_packed_force(isa, 7, xd, packed, false, None, id, &mut one);
                    for r in 0..7 {
                        let got = &all[r * heads * d + h * d..][..d];
                        assert_eq!(got, &one[r * d..][..d], "{isa:?} {k}x{d} head {h} row {r}");
                    }
                }
            }
            let run = |split: bool| {
                let mut g = Graph::new(&store);
                let xv = g.param(x);
                let y = if split {
                    let parts: Vec<Var> = ws.iter().map(|&w| g.linear(&xv, w, None, id)).collect();
                    let parts: Vec<(&Var, Range<usize>)> =
                        parts.iter().map(|p| (p, 0..d)).collect();
                    g.concat(&parts)
                } else {
                    g.heads(&xv, &ws)
                };
                let c = g.constant(coef.clone());
                let weighted = g.mul(y, c);
                let loss = g.sum_all(weighted);
                let value = bits(g.value(y));
                let (_, grads) = g.backward(loss);
                let grad_bits = ws.iter().chain([&x]).map(|&p| bits(grads.get(p).expect("grad")));
                (value, grad_bits.collect::<Vec<_>>())
            };
            assert_eq!(run(false), run(true), "{k}x{d}x{heads}: the heads op differs from linears");
        }
    }

    #[test]
    fn nan_weights_flow_through_without_panic() {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(17);
        let m = Mlp::new(
            &mut store,
            &mut init,
            "m",
            &[3, 4, 2],
            Activation::Relu,
            Activation::Identity,
        );
        // Poison the output layer: the hidden ReLU would absorb a NaN
        // (max(NaN, 0) == 0), which is also the tape path's behavior.
        let wid = m.layers[1].w;
        store.value_mut(wid).data_mut()[0] = f32::NAN;
        let x = Tensor::ones(1, 3);
        let mut sc = ScratchArena::new();
        let y = m.forward(&mut Scratch { store: &store, arena: &mut sc }, &x);
        assert!(y.data().iter().any(|v| v.is_nan()), "NaN should propagate, not panic");
    }
}
