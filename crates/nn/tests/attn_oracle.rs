//! Subtree attention against an f64 oracle. For random plan-shaped trees
//! of 1–19 nodes, the context a root's merged softmax state holds
//! ([`MultiHeadCrossAttention`]: the keyed query, each node's logit and
//! value, the states merged bottom-up, `U/Z` read at the root) equals the
//! flat attention `softmax(q·(h·W_k)ᵀ/√d)·h·W_v` over the tree's nodes,
//! computed in f64 from the same weights, within 1e-5 of the magnitude of
//! the terms its values sum.
//!
//! Each tree is merged twice: in one pass over every node, and in two
//! passes, the first over some of its subtrees (a memo) and the second over
//! the rest, whose children are fresh rows or the first pass's states. The
//! two give the same bits. Every tier's `dot` and merge kernel give the
//! bits the active tier gave, and the contexts' fingerprint is one constant:
//! the inputs come from an integer generator and every kernel on the path
//! is correctly rounded step by step (no libm), so it holds on every tier
//! and platform.

use qpseeker_nn::act::{merge_states_force, Kid};
use qpseeker_nn::prelude::*;
use qpseeker_nn::tensor::dot_force;

const Q_DIM: usize = 24;
const OUT: usize = 96;
const HEADS: usize = 4;
const D: usize = 32;

/// Uniform floats in `[-1, 1)` from a 64-bit LCG.
struct Lcg(u64);

impl Lcg {
    fn step(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn uniform(&mut self) -> f32 {
        (self.step() >> 7) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
    }

    fn below(&mut self, n: usize) -> usize {
        self.step() as usize % n
    }

    fn tensor(&mut self, rows: usize, cols: usize, scale: f32) -> Tensor {
        Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| self.uniform() * scale).collect())
    }
}

/// A full binary tree of `leaves` leaves, rows in postorder: `kids[r]` are
/// row `r`'s children, the last row is the root.
fn tree(rng: &mut Lcg, leaves: usize) -> Vec<Vec<usize>> {
    // Build by joining two random open subtrees, then renumber in postorder.
    let mut built: Vec<Vec<usize>> = vec![Vec::new(); leaves];
    let mut open: Vec<usize> = (0..leaves).collect();
    while open.len() > 1 {
        let a = open.swap_remove(rng.below(open.len()));
        let b = open.swap_remove(rng.below(open.len()));
        open.push(built.len());
        built.push(vec![a, b]);
    }
    fn post(built: &[Vec<usize>], r: usize, order: &mut Vec<usize>) {
        built[r].iter().for_each(|&k| post(built, k, order));
        order.push(r);
    }
    let mut order = Vec::new();
    post(&built, open[0], &mut order);
    let mut at = vec![0; built.len()];
    order.iter().enumerate().for_each(|(i, &r)| at[r] = i);
    order.iter().map(|&r| built[r].iter().map(|&k| at[k]).collect()).collect()
}

/// The rows of `t` listed in `rows`.
fn pick(t: &Tensor, rows: &[usize]) -> Tensor {
    let data = rows.iter().flat_map(|&r| t.row_slice(r).to_vec()).collect();
    Tensor::from_vec(rows.len(), t.cols(), data)
}

/// One merge pass over the tree's rows `rows` (in postorder) through the
/// serving executor: the states `[rows, HEADS·(2 + D)]` and the logits. A
/// child in `rows` is a kid row of this pass; any other child's state is
/// row `held[child]` of `memo`. Every tier's merge kernel gives the
/// states' bits.
fn merge_pass(
    attn: &MultiHeadCrossAttention,
    e: &mut Scratch,
    keyed: &Tensor,
    h: &Tensor,
    kids: &[Vec<usize>],
    rows: &[usize],
    memo: Option<(&Tensor, &[Option<usize>])>,
) -> (Tensor, Tensor) {
    let nodes = pick(h, rows);
    let values = attn.values(e, &nodes);
    let logits = attn.logits(e, rows.iter().map(|_| Row::Const(keyed.data())), &nodes);
    let here = |k: usize| rows.iter().position(|&r| r == k);
    let (mut kid_rows, mut lens) = (Vec::new(), Vec::new());
    for &r in rows {
        lens.push(kids[r].len());
        kid_rows.extend(kids[r].iter().map(|&k| here(k).ok_or(k)));
    }
    let kid_list: Vec<Kid> = kid_rows
        .iter()
        .map(|&k| match k {
            Ok(j) => Kid::Row(j),
            Err(k) => {
                let (states, held) = memo.expect("a child outside the pass is held");
                Kid::Const(states.row_slice(held[k].expect("held")))
            }
        })
        .collect();
    let states = e.merge(&logits, &values, &kid_list, &lens);
    for isa in Isa::supported() {
        let mut other = vec![f32::NAN; states.len()];
        merge_states_force(isa, logits.data(), values.data(), &kid_list, &lens, &mut other);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&other), bits(states.data()), "{isa:?}: the merge's bits differ");
    }
    (states, logits)
}

#[test]
fn tree_merged_context_matches_flat_softmax_in_f64() {
    let mut rng = Lcg(0x5eed);
    let mut store = ParamStore::new();
    let mut init = Initializer::new(1);
    let attn = MultiHeadCrossAttention::new(&mut store, &mut init, "a", Q_DIM, OUT, HEADS, D, 8);
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for case in 0..60 {
        // Weights from the generator (a sharp case every fifth tree).
        let sharp = if case % 5 == 4 { 6.0 } else { 1.0 };
        for h in 0..HEADS {
            *store.value_mut(attn.wq[h]) = rng.tensor(Q_DIM, D, 0.3 * sharp);
            *store.value_mut(attn.wk[h]) = rng.tensor(OUT, D, 0.4);
            *store.value_mut(attn.wv[h]) = rng.tensor(OUT, D, 0.5);
        }
        let x = rng.tensor(1, Q_DIM, 1.0);
        let leaves = 1 + case % 10;
        let kids = tree(&mut rng, leaves);
        let n = kids.len();
        let h = rng.tensor(n, OUT, 1.0);
        let mut arena = ScratchArena::new();
        let e = &mut Scratch { store: &store, arena: &mut arena };
        let keyed = attn.query(e, &x);
        // The keyed query and the logits are each one `dot`, the same bits
        // on every tier.
        for isa in Isa::supported() {
            for head in 0..HEADS {
                let wk = store.value(attn.wk[head]);
                let qh = attn_query_head(&store, &attn, &x, head);
                for j in 0..OUT {
                    let want = dot_force(isa, &qh, wk.row_slice(j));
                    assert_eq!(want.to_bits(), keyed.get(0, head * OUT + j).to_bits(), "{isa:?}");
                }
            }
        }

        // One pass over every node.
        let all: Vec<usize> = (0..n).collect();
        let (whole, logits) = merge_pass(&attn, e, &keyed, &h, &kids, &all, None);
        let scale = 1.0 / (D as f32).sqrt();
        for isa in Isa::supported() {
            for (i, hi) in (0..n).map(|i| (i, h.row_slice(i))) {
                for head in 0..HEADS {
                    let s = dot_force(isa, &keyed.row_slice(0)[head * OUT..][..OUT], hi) * scale;
                    assert_eq!(s.to_bits(), logits.get(i, head).to_bits(), "{isa:?} logit");
                }
            }
        }

        // Two passes: subtrees picked at random (closed under subtrees)
        // first, then the rest over their states.
        let mut held = vec![false; n];
        for r in (0..n).rev() {
            if rng.below(10) < 3 {
                mark(&kids, r, &mut held);
            }
        }
        let first: Vec<usize> = (0..n).filter(|&r| held[r]).collect();
        let rest: Vec<usize> = (0..n).filter(|&r| !held[r]).collect();
        let mut row_of = vec![None; n];
        first.iter().enumerate().for_each(|(i, &r)| row_of[r] = Some(i));
        let (memo, _) = merge_pass(&attn, e, &keyed, &h, &kids, &first, None);
        let root_state = if rest.is_empty() {
            memo.row_slice(first.len() - 1).to_vec()
        } else {
            let memo = Some((&memo, &row_of[..]));
            let (states, _) = merge_pass(&attn, e, &keyed, &h, &kids, &rest, memo);
            states.row_slice(rest.len() - 1).to_vec()
        };
        assert_eq!(root_state, whole.row_slice(n - 1), "case {case}: a memo split moved the root");
        let ctx = attn.context(e, [Row::Const(&root_state)]);

        // The f64 oracle: flat attention over every node of the tree.
        for head in 0..HEADS {
            let wq = store.value(attn.wq[head]);
            let (wk, wv) = (store.value(attn.wk[head]), store.value(attn.wv[head]));
            let qh: Vec<f64> = (0..D)
                .map(|l| (0..Q_DIM).map(|k| x.get(0, k) as f64 * wq.get(k, l) as f64).sum())
                .collect();
            let proj = |w: &Tensor, i: usize, l: usize| -> f64 {
                (0..OUT).map(|k| h.get(i, k) as f64 * w.get(k, l) as f64).sum()
            };
            // The magnitude of the terms a value sums.
            let mag = |i: usize, l: usize| -> f64 {
                (0..OUT).map(|k| (h.get(i, k) as f64 * wv.get(k, l) as f64).abs()).sum()
            };
            let s: Vec<f64> = (0..n)
                .map(|i| (0..D).map(|l| qh[l] * proj(wk, i, l)).sum::<f64>() / (D as f64).sqrt())
                .collect();
            let m = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let z: f64 = s.iter().map(|si| (si - m).exp()).sum();
            for l in 0..D {
                let vs: Vec<f64> = (0..n).map(|i| proj(wv, i, l)).collect();
                let want: f64 = (0..n).map(|i| (s[i] - m).exp() / z * vs[i]).sum();
                let bound = 1e-5 * (0..n).map(|i| mag(i, l)).fold(0.0, f64::max);
                let got = ctx.get(0, head * D + l) as f64;
                assert!(
                    (got - want).abs() <= bound,
                    "case {case} ({n} nodes) head {head} col {l}: {got} vs {want}"
                );
            }
        }
        for v in ctx.data() {
            fingerprint = (fingerprint ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
        }
    }
    assert_eq!(fingerprint, 0xc6d7_f429_18d8_82e7, "the contexts moved: {fingerprint:#018x}");
}

/// Mark `r` and its whole subtree held.
fn mark(kids: &[Vec<usize>], r: usize, held: &mut [bool]) {
    held[r] = true;
    kids[r].iter().for_each(|&k| mark(kids, k, held));
}

/// Head `head`'s query `x·W_q,head` through the serving executor's GEMM.
fn attn_query_head(
    store: &ParamStore,
    attn: &MultiHeadCrossAttention,
    x: &Tensor,
    head: usize,
) -> Vec<f32> {
    let mut arena = ScratchArena::new();
    let e = &mut Scratch { store, arena: &mut arena };
    let q = e.heads(x, &attn.wq);
    q.row_slice(0)[head * D..(head + 1) * D].to_vec()
}
