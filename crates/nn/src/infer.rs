//! Tape-free inference fast path.
//!
//! Training needs the autodiff tape in [`crate::graph`]; inference does not.
//! MCTS planning calls the cost model hundreds of times per query inside a
//! 200 ms budget, and on that path the tape is pure overhead: every op clones
//! its output tensor into a graph node, allocates, and (in debug builds) runs
//! finiteness asserts. This module gives each layer a `forward_inference`
//! counterpart that computes values only, writing into tensors recycled
//! through a [`ScratchArena`].
//!
//! Two deliberate differences from the tape path:
//!
//! * **No finiteness asserts.** A NaN produced here (e.g. by injected faults
//!   or corrupted weights) flows through to the caller's `is_finite()` check
//!   and triggers graceful degradation instead of a panic.
//! * **Fused kernels.** Products run the tape's GEMM, [`gemm_packed`], but
//!   with bias and activation fused into its epilogue; attention scores use
//!   the dispatched [`dot`], and the SIMD tiers' activations are
//!   polynomials. A `Linear` is bitwise the tape; a whole forward is
//!   guaranteed to match it within 1e-5, not bitwise.

use crate::layers::{Activation, Linear, LstmCell, Mlp, MultiHeadCrossAttention};
use crate::pack::{gemm_packed, PackedGemm};
use crate::params::ParamStore;
use crate::tensor::{dot, Tensor};
use std::cell::RefCell;

/// A pool of `Tensor` allocations reused across inference calls.
///
/// `take` hands out a zeroed tensor of the requested shape (recycling a
/// previous allocation when one is available); `recycle` returns a tensor to
/// the pool. The arena is deliberately dumb — a LIFO stack of buffers — which
/// is enough to make the steady-state inference loop allocation-free.
#[derive(Default)]
pub struct ScratchArena {
    pool: Vec<Tensor>,
}

impl ScratchArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pooled buffers currently idle.
    pub fn idle(&self) -> usize {
        self.pool.len()
    }

    /// A zeroed `rows x cols` tensor, recycled when possible.
    pub fn take(&mut self, rows: usize, cols: usize) -> Tensor {
        match self.pool.pop() {
            Some(mut t) => {
                t.reshape_for(rows, cols);
                t
            }
            None => Tensor::zeros(rows, cols),
        }
    }

    /// Return a tensor's allocation to the pool.
    pub fn recycle(&mut self, t: Tensor) {
        self.pool.push(t);
    }
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

/// Row-wise softmax with max-subtraction, in place. NaN inputs produce NaN
/// outputs (no panic) so faults degrade gracefully downstream.
pub fn softmax_rows_inplace(x: &mut Tensor) {
    for r in 0..x.rows() {
        let row = x.row_slice_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

impl Linear {
    /// Tape-free `x·W + b` into a scratch tensor.
    pub fn forward_inference(
        &self,
        store: &ParamStore,
        x: &Tensor,
        sc: &mut ScratchArena,
    ) -> Tensor {
        self.forward_inference_act(store, x, Activation::Identity, sc)
    }

    /// Tape-free `act(x·W + b)` through the panel-packed GEMM: bias and
    /// activation are applied to the accumulator registers in the epilogue,
    /// so the output is written exactly once.
    pub fn forward_inference_act(
        &self,
        store: &ParamStore,
        x: &Tensor,
        act: Activation,
        sc: &mut ScratchArena,
    ) -> Tensor {
        let mut y = sc.take(x.rows(), self.out_dim);
        gemm_packed(
            x.rows(),
            x.data(),
            store.packed(self.w),
            false,
            Some(store.value(self.b).data()),
            act,
            y.data_mut(),
        );
        y
    }
}

impl Mlp {
    /// Tape-free MLP forward; each layer runs as a single fused
    /// GEMM+bias+activation pass, intermediate activations are recycled.
    pub fn forward_inference(
        &self,
        store: &ParamStore,
        x: &Tensor,
        sc: &mut ScratchArena,
    ) -> Tensor {
        let last = self.layers.len() - 1;
        let mut h: Option<Tensor> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i == last { self.output_activation } else { self.hidden_activation };
            let y = layer.forward_inference_act(store, h.as_ref().unwrap_or(x), act, sc);
            if let Some(prev) = h.replace(y) {
                sc.recycle(prev);
            }
        }
        h.expect("MLP has layers")
    }
}

/// Owned hidden/cell state for tape-free LSTM steps.
pub struct LstmStateBuf {
    pub h: Tensor,
    pub c: Tensor,
}

impl LstmStateBuf {
    /// Return both state tensors to the arena.
    pub fn recycle(self, sc: &mut ScratchArena) {
        sc.recycle(self.h);
        sc.recycle(self.c);
    }
}

impl LstmCell {
    /// Zero initial state for `rows` sequences, drawn from the arena.
    pub fn zero_state_buf(&self, rows: usize, sc: &mut ScratchArena) -> LstmStateBuf {
        LstmStateBuf { h: sc.take(rows, self.hidden_dim), c: sc.take(rows, self.hidden_dim) }
    }

    /// One tape-free step. Gate math mirrors [`LstmCell::step`] exactly:
    /// `i,f,g,o = split(x·W_ih + h·W_hh + b)`, `c' = σ(f)⊙c + σ(i)⊙tanh(g)`,
    /// `h' = σ(o)⊙tanh(c')`.
    pub fn step_inference(
        &self,
        store: &ParamStore,
        x: &Tensor,
        state: &LstmStateBuf,
        sc: &mut ScratchArena,
    ) -> LstmStateBuf {
        debug_assert_eq!(x.cols(), self.input_dim, "LSTM input width mismatch");
        let rows = x.rows();
        let d = self.hidden_dim;
        // Two packed GEMMs replace the old four passes (two products, an
        // add, a bias broadcast): the second GEMM accumulates onto the first
        // and folds the bias in through the epilogue.
        let mut gates = sc.take(rows, 4 * d);
        gemm_packed(
            rows,
            x.data(),
            store.packed(self.w_ih),
            false,
            None,
            Activation::Identity,
            gates.data_mut(),
        );
        gemm_packed(
            rows,
            state.h.data(),
            store.packed(self.w_hh),
            true,
            Some(store.value(self.bias).data()),
            Activation::Identity,
            gates.data_mut(),
        );
        let mut c = sc.take(rows, d);
        let mut h = sc.take(rows, d);
        crate::act::lstm_gates(rows, d, gates.data(), state.c.data(), c.data_mut(), h.data_mut());
        sc.recycle(gates);
        LstmStateBuf { h, c }
    }
}

impl MultiHeadCrossAttention {
    /// Tape-free key and value projections of `kv [rows, kv_dim]`, one GEMM
    /// per head and side, **head-major**: row `h * rows + r` of each result
    /// is row `r`'s head-`h` projection, `[heads * rows, head_dim]`.
    ///
    /// A projected row depends on its input row alone (the GEMM FP-order
    /// contract), so the rows of one node can be projected once and reused
    /// by every plan that contains the node.
    pub fn project_kv_inference(
        &self,
        store: &ParamStore,
        kv: &Tensor,
        sc: &mut ScratchArena,
    ) -> (Tensor, Tensor) {
        let (rows, d) = (kv.rows(), self.head_dim);
        let mut keys = sc.take(self.heads * rows, d);
        let mut values = sc.take(self.heads * rows, d);
        let id = Activation::Identity;
        for h in 0..self.heads {
            let span = h * rows * d..(h + 1) * rows * d;
            let kp = &mut keys.data_mut()[span.clone()];
            gemm_packed(rows, kv.data(), store.packed(self.wk[h]), false, None, id, kp);
            let vp = &mut values.data_mut()[span];
            gemm_packed(rows, kv.data(), store.packed(self.wv[h]), false, None, id, vp);
        }
        (keys, values)
    }

    /// Tape-free attention over `kn` independent (query, kv-block) pairs
    /// whose keys and values are already projected: `query [kn, q_dim]`,
    /// `keys`/`values [heads * kn * n, head_dim]` head-major, plan `p`'s
    /// head-`h` block at rows `(h * kn + p) * n ..` (the layout
    /// [`Self::project_kv_inference`] returns for `kn * n` rows) →
    /// `[kn, out_dim]`. One plan is `kn = 1`.
    ///
    /// The query projection runs as one GEMM over all plans; the per-plan
    /// score/softmax/context ops are row-independent ([`dot`] for scores,
    /// a one-row GEMM over the packed value block for the context), so row
    /// `p` of the result is **bitwise identical** for every `kn` and every
    /// partition of the plans into calls — the contract the batched scoring
    /// path and the eval broker rely on.
    pub fn forward_inference_kv(
        &self,
        store: &ParamStore,
        query: &Tensor,
        keys: &Tensor,
        values: &Tensor,
        n: usize,
        sc: &mut ScratchArena,
    ) -> Tensor {
        let kn = query.rows();
        let d = self.head_dim;
        debug_assert_eq!(
            keys.rows(),
            self.heads * kn * n,
            "keys must hold n rows per plan and head"
        );
        debug_assert_eq!(values.rows(), keys.rows(), "one value row per key row");
        let scale = 1.0 / (d as f32).sqrt();
        let mut cat = sc.take(kn, self.heads * d);
        let mut q = sc.take(kn, d);
        let mut scores = sc.take(kn, n);
        let mut v_block = PackedGemm::default();
        let id = Activation::Identity;
        for h in 0..self.heads {
            gemm_packed(kn, query.data(), store.packed(self.wq[h]), false, None, id, q.data_mut());
            for p in 0..kn {
                // scores[p][i] = (q_p · k_{p,i}) * scale.
                let q_row = q.row_slice(p);
                for i in 0..n {
                    let s = dot(q_row, keys.row_slice((h * kn + p) * n + i)) * scale;
                    scores.set(p, i, s);
                }
            }
            softmax_rows_inplace(&mut scores);
            for p in 0..kn {
                // ctx_p = scores_p [1 x n] · v-block_p [n x d], written
                // straight into this head's slice of `cat`.
                let at = (h * kn + p) * n * d;
                v_block.repack(n, d, &values.data()[at..at + n * d]);
                let cat_seg = &mut cat.row_slice_mut(p)[h * d..(h + 1) * d];
                gemm_packed(1, scores.row_slice(p), &v_block, false, None, id, cat_seg);
            }
        }
        sc.recycle(q);
        sc.recycle(scores);
        let out = self.out.forward_inference(store, &cat, sc);
        sc.recycle(cat);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::init::Initializer;

    fn close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "fast path diverged: {x} vs {y}");
        }
    }

    #[test]
    fn arena_recycles_allocations() {
        let mut sc = ScratchArena::new();
        let t = sc.take(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert!(t.data().iter().all(|&x| x == 0.0));
        sc.recycle(t);
        assert_eq!(sc.idle(), 1);
        let t2 = sc.take(2, 2); // reshaped reuse
        assert_eq!(sc.idle(), 0);
        assert_eq!(t2.shape(), (2, 2));
        assert!(t2.data().iter().all(|&x| x == 0.0));
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
        let tape = m.forward(&mut g, xv);

        let mut sc = ScratchArena::new();
        let fast = m.forward_inference(&store, &x, &mut sc);
        close(fast.data(), g.value(tape).data(), 1e-5);
    }

    /// The tape's `x·W` and the fast path's run the same packed GEMM over
    /// the same packed weight, and both add the bias once after it, so a
    /// `Linear` agrees bit for bit on every tier — across row-tile, panel
    /// and column-tail remainders, with planted zeros for the sparse skip.
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
            let tape = l.forward(&mut g, xv);
            let fast = l.forward_inference(&store, &x, &mut ScratchArena::new());
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g.value(tape)), bits(&fast), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn lstm_inference_matches_tape_over_two_steps() {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(11);
        let cell = LstmCell::new(&mut store, &mut init, "l", 6, 4);
        let x1 = Initializer::new(1).normal(2, 6, 1.0);
        let x2 = Initializer::new(2).normal(2, 6, 1.0);

        let mut g = Graph::new(&store);
        let s0 = cell.zero_state(&mut g, 2);
        let x1v = g.constant(x1.clone());
        let s1 = cell.step(&mut g, x1v, s0);
        let x2v = g.constant(x2.clone());
        let s2 = cell.step(&mut g, x2v, s1);

        let mut sc = ScratchArena::new();
        let b0 = cell.zero_state_buf(2, &mut sc);
        let b1 = cell.step_inference(&store, &x1, &b0, &mut sc);
        let b2 = cell.step_inference(&store, &x2, &b1, &mut sc);
        close(b2.h.data(), g.value(s2.h).data(), 1e-5);
        close(b2.c.data(), g.value(s2.c).data(), 1e-5);
    }

    #[test]
    fn attention_inference_matches_tape() {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(13);
        let attn = MultiHeadCrossAttention::new(&mut store, &mut init, "a", 8, 6, 4, 5, 10);
        let q = Initializer::new(3).normal(1, 8, 1.0);
        let kv = Initializer::new(4).normal(3, 6, 1.0);

        let mut g = Graph::new(&store);
        let qv = g.constant(q.clone());
        let kvv = g.constant(kv.clone());
        let (tape, _scores) = attn.forward_rows(&mut g, qv, kvv, &[vec![0, 1, 2]]);

        let mut sc = ScratchArena::new();
        let (keys, values) = attn.project_kv_inference(&store, &kv, &mut sc);
        let fast = attn.forward_inference_kv(&store, &q, &keys, &values, 3, &mut sc);
        close(fast.data(), g.value(tape).data(), 1e-5);
    }

    /// The head-major rows of plans `lo..hi` out of a `[heads * kn * n, d]`
    /// projection: what a caller gathers for a sub-batch.
    fn gather(all: &Tensor, heads: usize, kn: usize, n: usize, lo: usize, hi: usize) -> Tensor {
        let d = all.cols();
        let mut out = Vec::with_capacity(heads * (hi - lo) * n * d);
        for h in 0..heads {
            out.extend_from_slice(&all.data()[(h * kn + lo) * n * d..(h * kn + hi) * n * d]);
        }
        Tensor::from_vec(heads * (hi - lo) * n, d, out)
    }

    /// K plans in one call ≡ K one-plan calls ≡ any partition into calls,
    /// row for row, bit for bit — whether a partition's K/V rows are
    /// gathered from one projection of every node or projected on their
    /// own.
    #[test]
    fn attention_rows_bitwise_equal_under_any_partition() {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(13);
        let attn = MultiHeadCrossAttention::new(&mut store, &mut init, "a", 8, 6, 4, 5, 10);
        let n = 3; // kv rows per plan
        for kn in [1usize, 2, 5, 7] {
            let query = Initializer::new(kn as u64).normal(kn, 8, 1.0);
            let kv_all = Initializer::new(100 + kn as u64).normal(kn * n, 6, 1.0);
            let mut sc = ScratchArena::new();
            let (keys, values) = attn.project_kv_inference(&store, &kv_all, &mut sc);
            assert_eq!(keys.shape(), (4 * kn * n, 5));
            let whole = attn.forward_inference_kv(&store, &query, &keys, &values, n, &mut sc);
            assert_eq!(whole.shape(), (kn, 10));
            // Chunk sizes 1 (one-plan calls) and 2 (a ragged partition).
            for chunk in [1usize, 2] {
                for lo in (0..kn).step_by(chunk) {
                    let hi = (lo + chunk).min(kn);
                    let q = Tensor::from_vec(hi - lo, 8, query.data()[lo * 8..hi * 8].to_vec());
                    let (k, v) =
                        (gather(&keys, 4, kn, n, lo, hi), gather(&values, 4, kn, n, lo, hi));
                    let kv = Tensor::from_vec(
                        (hi - lo) * n,
                        6,
                        kv_all.data()[lo * n * 6..hi * n * 6].to_vec(),
                    );
                    let (k_own, v_own) = attn.project_kv_inference(&store, &kv, &mut sc);
                    assert_eq!(k.data(), k_own.data(), "a projected key row depends on its batch");
                    assert_eq!(
                        v.data(),
                        v_own.data(),
                        "a projected value row depends on its batch"
                    );
                    let part = attn.forward_inference_kv(&store, &q, &k, &v, n, &mut sc);
                    for p in lo..hi {
                        assert_eq!(
                            whole.row_slice(p),
                            part.row_slice(p - lo),
                            "plan {p} of {kn} differs when scored in chunks of {chunk}"
                        );
                    }
                    sc.recycle(part);
                }
            }
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
        let y = m.forward_inference(&store, &x, &mut sc);
        assert!(y.data().iter().any(|v| v.is_nan()), "NaN should propagate, not panic");
    }
}
