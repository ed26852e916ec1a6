//! The Query Encoder (§4.1) and Plan Encoder (§4.2).

use crate::config::ModelConfig;
use crate::featurize::{FeatNode, QueryFeatures};
use qpseeker_nn::prelude::*;

/// MSCN-style set encoder: relations and joins each go through an MLP
/// applied row-wise, masked mean pooling collapses each set, and the two
/// pooled vectors are concatenated into the query embedding.
#[derive(Debug, Clone)]
pub(crate) struct QueryEncoder {
    pub rel_mlp: Mlp,
    pub join_mlp: Mlp,
    out_dim: usize,
}

impl QueryEncoder {
    pub(crate) fn new(
        store: &mut ParamStore,
        init: &mut Initializer,
        cfg: &ModelConfig,
        n_tables: usize,
        n_joins: usize,
    ) -> Self {
        let mut rel_dims = vec![n_tables.max(1)];
        rel_dims.extend(std::iter::repeat_n(cfg.set_mlp_hidden, cfg.set_mlp_layers));
        rel_dims.push(cfg.set_mlp_out);
        let mut join_dims = vec![n_joins.max(1)];
        join_dims.extend(std::iter::repeat_n(cfg.set_mlp_hidden, cfg.set_mlp_layers));
        join_dims.push(cfg.set_mlp_out);
        Self {
            rel_mlp: Mlp::new(
                store,
                init,
                "query_enc.rel",
                &rel_dims,
                Activation::Relu,
                Activation::Relu,
            ),
            join_mlp: Mlp::new(
                store,
                init,
                "query_enc.join",
                &join_dims,
                Activation::Relu,
                Activation::Relu,
            ),
            out_dim: cfg.query_dim(),
        }
    }

    pub(crate) fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Encode one query's set features → `[1, query_dim]`.
    pub(crate) fn forward(&self, g: &mut Graph, store: &ParamStore, feats: &QueryFeatures) -> Var {
        let rel = self.encode_set(g, store, &self.rel_mlp, &feats.rel_matrix, &feats.rel_mask);
        let join = self.encode_set(g, store, &self.join_mlp, &feats.join_matrix, &feats.join_mask);
        g.concat_cols(rel, join)
    }

    fn encode_set(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        mlp: &Mlp,
        matrix: &qpseeker_nn::tensor::Tensor,
        mask: &qpseeker_nn::tensor::Tensor,
    ) -> Var {
        let x = g.constant(matrix.clone());
        let m = g.constant(mask.clone());
        let h = mlp.forward(g, store, x); // [rows, out]
        let masked = g.mul_col_broadcast(h, m);
        let summed = g.sum_rows(masked); // [1, out]
        let count = mask.sum().max(1.0);
        g.scale(summed, 1.0 / count)
    }

    /// Tape-free [`Self::forward`]: identical math, scratch buffers instead
    /// of graph nodes. The result comes from `sc` — recycle it when done.
    pub(crate) fn forward_inference(
        &self,
        store: &ParamStore,
        feats: &QueryFeatures,
        sc: &mut ScratchArena,
    ) -> Tensor {
        let rel = self.set_inference(store, &self.rel_mlp, &feats.rel_matrix, &feats.rel_mask, sc);
        let join =
            self.set_inference(store, &self.join_mlp, &feats.join_matrix, &feats.join_mask, sc);
        let mut out = sc.take(1, rel.cols() + join.cols());
        out.data_mut()[..rel.cols()].copy_from_slice(rel.data());
        out.data_mut()[rel.cols()..].copy_from_slice(join.data());
        sc.recycle(rel);
        sc.recycle(join);
        out
    }

    fn set_inference(
        &self,
        store: &ParamStore,
        mlp: &Mlp,
        matrix: &Tensor,
        mask: &Tensor,
        sc: &mut ScratchArena,
    ) -> Tensor {
        let h = mlp.forward_inference(store, matrix, sc); // [rows, out]
        let mut pooled = sc.take(1, h.cols());
        for r in 0..h.rows() {
            let m = mask.get(r, 0);
            if m != 0.0 {
                for (p, v) in pooled.data_mut().iter_mut().zip(h.row_slice(r)) {
                    *p += v * m;
                }
            }
        }
        let inv = 1.0 / mask.sum().max(1.0);
        for p in pooled.data_mut() {
            *p *= inv;
        }
        sc.recycle(h);
        pooled
    }
}

/// Bottom-up LSTM-cell plan encoder. Each plan node is one LSTM step whose
/// input concatenates `[child data vectors | relation encoding | TaBERT |
/// op one-hot | estimates]`; children pass both their hidden/cell state
/// (averaged) and their output vectors (pooled into the parent's input).
#[derive(Debug, Clone)]
pub(crate) struct PlanEncoder {
    pub cell: LstmCell,
    data_dim: usize,
    out_dim: usize,
}

/// The encoder's result for one plan.
pub(crate) struct EncodedPlan {
    /// `[n_nodes, out_dim]` stacked node outputs, postorder.
    pub nodes: Var,
    /// The root node's output `[1, out_dim]`.
    pub root: Var,
    /// Per-node output vars in postorder (for the auxiliary node loss).
    pub node_vars: Vec<Var>,
}

impl PlanEncoder {
    pub(crate) fn new(
        store: &mut ParamStore,
        init: &mut Initializer,
        cfg: &ModelConfig,
        n_tables: usize,
    ) -> Self {
        let input_dim = cfg.node_input_dim(n_tables);
        Self {
            cell: LstmCell::new(store, init, "plan_enc.cell", input_dim, cfg.plan_node_out),
            data_dim: cfg.data_vec_dim(),
            out_dim: cfg.plan_node_out,
        }
    }

    pub(crate) fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Encode a featurized plan tree.
    pub(crate) fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        plan: &FeatNode,
    ) -> EncodedPlan {
        let mut node_vars = Vec::with_capacity(plan.count());
        let (root_state, _root_h) = self.encode_node(g, store, plan, &mut node_vars);
        let root = root_state.h;
        let nodes = g.stack_rows(&node_vars);
        EncodedPlan { nodes, root, node_vars }
    }

    fn encode_node(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        node: &FeatNode,
        out: &mut Vec<Var>,
    ) -> (LstmState, Var) {
        let (input, state_in) = if node.children.is_empty() {
            // Leaf: zero padding for the child-data slot, EXPLAIN estimates
            // in the estimate slot, zero initial LSTM state.
            let zeros = g.constant(Tensor::zeros(1, self.data_dim));
            let mid = g.constant(node.mid.clone());
            let est =
                g.constant(node.leaf_est.clone().expect("leaf featurization includes estimates"));
            let input = g.concat_cols_all(&[zeros, mid, est]);
            (input, self.cell.zero_state(g, 1))
        } else {
            let mut child_states = Vec::with_capacity(node.children.len());
            let mut child_hs = Vec::with_capacity(node.children.len());
            for c in &node.children {
                let (s, h) = self.encode_node(g, store, c, out);
                child_states.push(s);
                child_hs.push(h);
            }
            // Mean-pool children outputs: data part and estimate part.
            let stacked = g.stack_rows(&child_hs);
            let pooled = g.mean_rows(stacked); // [1, out_dim]
            let child_data = g.slice_cols(pooled, 0, self.data_dim);
            let child_est = g.slice_cols(pooled, self.data_dim, self.out_dim);
            let mid = g.constant(node.mid.clone());
            let input = g.concat_cols_all(&[child_data, mid, child_est]);
            // Averaged child state feeds the parent cell.
            let state = average_states(g, &child_states);
            (input, state)
        };
        let state_out = self.cell.step(g, store, input, state_in);
        out.push(state_out.h);
        (state_out, state_out.h)
    }

    /// Tape-free [`Self::forward`] over every fresh node of a
    /// [`LevelPass`]: one `rows = m` LSTM step per level, children before
    /// parents, across every plan and submission in the pass. Returns the
    /// fresh rows' `(h, c)`, `[F, out_dim]` each in pass row order, from
    /// scratch buffers — recycle them when done. A child that is not fresh
    /// is read from its submission's memo in `memos`.
    ///
    /// Row `r` is bitwise identical to encoding its subtree alone: the
    /// matmul kernel guarantees per-row reduction order, and every other op
    /// here (state pooling in child order, gate math, input assembly) is
    /// row-independent. So a level can mix leaves and joins of any plans,
    /// and a memoized state is exactly what recomputing it would give.
    pub(crate) fn encode_pass(
        &self,
        store: &ParamStore,
        pass: &LevelPass,
        memos: &[&mut NodeMemo],
        sc: &mut ScratchArena,
    ) -> LstmStateBuf {
        let f = pass.fresh.len();
        let mut fresh = LstmStateBuf { h: sc.take(f, self.out_dim), c: sc.take(f, self.out_dim) };
        let mut rows: Vec<usize> = Vec::new();
        for level in 0..pass.levels {
            rows.clear();
            rows.extend((0..f).filter(|&r| pass.fresh[r].level == level));
            let m = rows.len();
            let mid_cols = pass.fresh[rows[0]].node.mid.cols();
            // The estimate slot is always out_dim - data_dim = 3 wide.
            let input_dim = self.data_dim + mid_cols + (self.out_dim - self.data_dim);
            let mut input = sc.take(m, input_dim);
            // Leaves keep the zero initial state and zero child-data slot.
            let mut state = self.cell.zero_state_buf(m, sc);
            for (i, &row) in rows.iter().enumerate() {
                let FreshRow { node, sub, kids, .. } = &pass.fresh[row];
                let d = input.row_slice_mut(i);
                d[self.data_dim..self.data_dim + mid_cols].copy_from_slice(node.mid.data());
                if node.children.is_empty() {
                    let est =
                        node.leaf_est.as_ref().expect("leaf featurization includes estimates");
                    d[self.data_dim + mid_cols..].copy_from_slice(est.data());
                    continue;
                }
                // Sum child h/c states in child order (matching the tape's
                // stack_rows + mean_rows accumulation), then scale to the
                // mean. The pooled h doubles as the child-data/estimate input.
                let (hsum, csum) = (state.h.row_slice_mut(i), state.c.row_slice_mut(i));
                for &kid in &kids[..node.children.len()] {
                    let (h, c) = match kid {
                        NodeRef::Memo { entry, .. } => {
                            let memo = &memos[*sub as usize];
                            (memo.h(entry), memo.c(entry))
                        }
                        NodeRef::Fresh(r) => {
                            (fresh.h.row_slice(r as usize), fresh.c.row_slice(r as usize))
                        }
                    };
                    for (a, v) in hsum.iter_mut().zip(h) {
                        *a += v;
                    }
                    for (a, v) in csum.iter_mut().zip(c) {
                        *a += v;
                    }
                }
                let inv = 1.0 / node.children.len() as f32;
                for a in hsum.iter_mut().chain(csum.iter_mut()) {
                    *a *= inv;
                }
                d[..self.data_dim].copy_from_slice(&hsum[..self.data_dim]);
                d[self.data_dim + mid_cols..].copy_from_slice(&hsum[self.data_dim..]);
            }
            let out = self.cell.step_inference(store, &input, &state, sc);
            for (i, &row) in rows.iter().enumerate() {
                fresh.h.row_slice_mut(row).copy_from_slice(out.h.row_slice(i));
                fresh.c.row_slice_mut(row).copy_from_slice(out.c.row_slice(i));
            }
            sc.recycle(input);
            state.recycle(sc);
            out.recycle(sc);
        }
        fresh
    }
}

/// Bytes one query's `NodeMemo` may hold. An entry is `2·out + 2·heads·
/// head_dim` floats: 1,792 B at the bench preset (out 96, 4 × 32), so the
/// budget holds 4,681 entries — deep_join's worst query at an eval cap of
/// 256 needs at most 30 leaves + 256 × 9 joins = 2,334. At the paper's size
/// (15,792 B per entry) it holds 531.
pub const MEMO_BUDGET_BYTES: usize = 8 << 20;

/// A memo slot not holding an entry.
const ABSENT: u32 = u32::MAX;
/// Slot tag of a node a [`LevelPass`] is encoding: `FRESH | row`.
const FRESH: u32 = 1 << 31;

/// What a memo entry holds, in floats: `[h | c | K_0..K_heads |
/// V_0..V_heads]`, with `heads = 0` when attention is off.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntryLayout {
    pub(crate) out: usize,
    pub(crate) heads: usize,
    pub(crate) head_dim: usize,
}

impl EntryLayout {
    fn width(&self) -> usize {
        2 * self.out + 2 * self.heads * self.head_dim
    }
}

/// Per-query memo of encoded subtrees: node id (dense, assigned by the
/// query's [`crate::featurize::PlanFeatCache`]) → the subtree's LSTM `h`
/// and `c` and its per-head attention K/V rows. One lives in each
/// [`crate::model::QueryContext`], travels inside its submissions (so
/// broker-on and broker-off run the same code) and dies with it; its
/// storage is recycled through the planner session.
///
/// Fixed budget, no eviction: leaves are always kept (at most
/// `ScanOp::ALL.len()` per relation, reserved up front), joins are added
/// while [`MEMO_BUDGET_BYTES`] has room and encoded directly after that. A
/// join is added only after its children, so the memo is closed under
/// subtrees, and what it holds is a pure function of the scoring calls
/// made through the context.
#[derive(Debug, Default)]
pub(crate) struct NodeMemo {
    /// Node id → entry index, [`ABSENT`], or `FRESH | row` inside a pass.
    slots: Vec<u32>,
    /// Entries back to back, `layout.width()` floats each.
    data: Vec<f32>,
    /// `None` until [`Self::init`]: a new or recycled memo holds nothing.
    layout: Option<EntryLayout>,
    /// Entries still reserved for leaves not yet stored.
    leaf_room: usize,
    /// Node rows encoded for this query, memoized or not.
    encoded: usize,
}

impl NodeMemo {
    /// Forget every entry, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.data.clear();
        self.layout = None;
        self.encoded = 0;
    }

    pub(crate) fn is_init(&self) -> bool {
        self.layout.is_some()
    }

    /// Start an empty memo for entries of `layout`, reserving `leaves`
    /// entries for leaves.
    pub(crate) fn init(&mut self, layout: EntryLayout, leaves: usize) {
        self.clear();
        self.layout = Some(layout);
        self.leaf_room = leaves;
    }

    fn width(&self) -> usize {
        self.layout.map_or(0, |l| l.width())
    }

    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.data.len().checked_div(self.width()).unwrap_or(0)
    }

    /// Bytes the entries take.
    pub(crate) fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Node rows encoded since [`Self::init`], memoized or not.
    pub(crate) fn encoded(&self) -> usize {
        self.encoded
    }

    fn entry(&self, e: u32) -> &[f32] {
        let w = self.width();
        &self.data[e as usize * w..(e as usize + 1) * w]
    }

    pub(crate) fn h(&self, e: u32) -> &[f32] {
        let out = self.layout.map_or(0, |l| l.out);
        &self.entry(e)[..out]
    }

    fn c(&self, e: u32) -> &[f32] {
        let out = self.layout.map_or(0, |l| l.out);
        &self.entry(e)[out..2 * out]
    }

    /// Head `head`'s key (`value = false`) or value row of entry `e`.
    pub(crate) fn kv(&self, e: u32, head: usize, value: bool) -> &[f32] {
        let l = self.layout.expect("an entry implies a layout");
        let at = 2 * l.out + (usize::from(value) * l.heads + head) * l.head_dim;
        &self.entry(e)[at..at + l.head_dim]
    }

    fn slot(&mut self, id: u32) -> &mut u32 {
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, ABSENT);
        }
        &mut self.slots[i]
    }

    /// Whether the budget admits one more entry: a leaf always, a join
    /// only if it leaves room for every leaf not yet stored.
    fn admit(&mut self, leaf: bool) -> bool {
        if leaf {
            self.leaf_room = self.leaf_room.saturating_sub(1);
            return true;
        }
        let cap = MEMO_BUDGET_BYTES / (self.width() * std::mem::size_of::<f32>()).max(1);
        self.len() + 1 + self.leaf_room <= cap
    }
}

/// Where one plan node's encoder state lives during a [`LevelPass`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum NodeRef {
    /// Entry `entry` of the memo of the node's own submission.
    Memo { sub: u32, entry: u32 },
    /// Row of the pass's freshly encoded states.
    Fresh(u32),
}

/// A node the pass encodes: `level` is 0 when no child is fresh, else one
/// more than its highest fresh child.
struct FreshRow<'a> {
    node: &'a FeatNode,
    sub: u32,
    kids: [NodeRef; 2],
    level: u32,
}

/// One scoring call's plan-encoder work, across every submission in it:
/// which nodes need encoding (each distinct id once per submission; nodes
/// without an id always) and, per candidate, where every node's state
/// will be read from.
#[derive(Default)]
pub(crate) struct LevelPass<'a> {
    fresh: Vec<FreshRow<'a>>,
    /// Every candidate's nodes in postorder, candidates back to back.
    pub(crate) refs: Vec<NodeRef>,
    /// `refs[spans[c]]` are candidate `c`'s nodes; the last is its root.
    pub(crate) spans: Vec<std::ops::Range<usize>>,
    levels: u32,
}

impl<'a> LevelPass<'a> {
    /// Fresh rows: the node rows this pass encodes.
    pub(crate) fn fresh_rows(&self) -> usize {
        self.fresh.len()
    }

    /// Add one candidate plan of submission `sub`, whose memo is `memo`.
    /// Marks the nodes it encodes in the memo until [`Self::commit`].
    pub(crate) fn add(&mut self, sub: usize, plan: &'a FeatNode, memo: &mut NodeMemo) {
        let start = self.refs.len();
        self.visit(sub as u32, plan, memo);
        self.spans.push(start..self.refs.len());
    }

    fn visit(
        &mut self,
        sub: u32,
        node: &'a FeatNode,
        memo: &mut NodeMemo,
    ) -> (NodeRef, Option<u32>) {
        assert!(node.children.len() <= 2, "plan nodes have at most two children");
        let mut kids = [NodeRef::Fresh(0); 2];
        let mut level = 0;
        for (k, child) in node.children.iter().enumerate() {
            let (kid, kid_level) = self.visit(sub, child, memo);
            kids[k] = kid;
            if let Some(l) = kid_level {
                level = level.max(l + 1);
            }
        }
        let slot = match node.id {
            Some(id) => *memo.slot(id),
            None => ABSENT,
        };
        let found = if slot == ABSENT {
            let row = self.fresh.len() as u32;
            if let Some(id) = node.id {
                *memo.slot(id) = FRESH | row;
            }
            self.fresh.push(FreshRow { node, sub, kids, level });
            self.levels = self.levels.max(level + 1);
            (NodeRef::Fresh(row), Some(level))
        } else if slot & FRESH != 0 {
            let row = slot & !FRESH;
            (NodeRef::Fresh(row), Some(self.fresh[row as usize].level))
        } else {
            (NodeRef::Memo { sub, entry: slot }, None)
        };
        self.refs.push(found.0);
        found
    }

    /// Write the fresh rows (their states from [`PlanEncoder::encode_pass`],
    /// their head-major K/V from `MultiHeadCrossAttention::
    /// project_kv_inference` when attention is on) into their memos, in
    /// pass order, as far as each budget admits; clear every `FRESH` mark.
    pub(crate) fn commit(
        &self,
        memos: &mut [&mut NodeMemo],
        fresh: &LstmStateBuf,
        kv: Option<(&Tensor, &Tensor)>,
    ) {
        let f = self.fresh.len();
        for (row, FreshRow { node, sub, .. }) in self.fresh.iter().enumerate() {
            let memo = &mut *memos[*sub as usize];
            memo.encoded += 1;
            let Some(id) = node.id else { continue };
            let slot = if memo.admit(node.children.is_empty()) {
                let entry = memo.len() as u32;
                memo.data.extend_from_slice(fresh.h.row_slice(row));
                memo.data.extend_from_slice(fresh.c.row_slice(row));
                if let Some((keys, values)) = kv {
                    let heads = keys.rows() / f;
                    for t in [keys, values] {
                        for h in 0..heads {
                            memo.data.extend_from_slice(t.row_slice(h * f + row));
                        }
                    }
                }
                entry
            } else {
                ABSENT
            };
            *memo.slot(id) = slot;
        }
    }
}

fn average_states(g: &mut Graph, states: &[LstmState]) -> LstmState {
    assert!(!states.is_empty());
    if states.len() == 1 {
        return states[0];
    }
    let hs: Vec<Var> = states.iter().map(|s| s.h).collect();
    let cs: Vec<Var> = states.iter().map(|s| s.c).collect();
    let hstack = g.stack_rows(&hs);
    let cstack = g.stack_rows(&cs);
    LstmState { h: g.mean_rows(hstack), c: g.mean_rows(cstack) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::Featurizer;
    use crate::normalize::TargetNormalizer;
    use qpseeker_engine::executor::Executor;
    use qpseeker_engine::plan::{JoinOp, PlanNode, ScanOp};
    use qpseeker_engine::query::{ColRef, JoinPred, Query, RelRef};
    use qpseeker_storage::datagen::imdb;
    use qpseeker_tabert::{TabSim, TabertConfig};

    fn setup() -> (std::sync::Arc<qpseeker_storage::Database>, Query, PlanNode) {
        let db = std::sync::Arc::new(imdb::generate(0.05, 4));
        let mut q = Query::new("q");
        q.relations =
            vec![RelRef::new("title"), RelRef::new("movie_info"), RelRef::new("movie_keyword")];
        q.joins = vec![
            JoinPred {
                left: ColRef::new("movie_info", "movie_id"),
                right: ColRef::new("title", "id"),
            },
            JoinPred {
                left: ColRef::new("movie_keyword", "movie_id"),
                right: ColRef::new("title", "id"),
            },
        ];
        let plan = PlanNode::join(
            &q,
            JoinOp::HashJoin,
            PlanNode::join(
                &q,
                JoinOp::HashJoin,
                PlanNode::scan(&q, "title", ScanOp::SeqScan),
                PlanNode::scan(&q, "movie_info", ScanOp::SeqScan),
            ),
            PlanNode::scan(&q, "movie_keyword", ScanOp::SeqScan),
        );
        (db, q, plan)
    }

    #[test]
    fn query_encoder_output_shape() {
        let (db, q, _) = setup();
        let cfg = ModelConfig::small();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let enc = QueryEncoder::new(
            &mut store,
            &mut init,
            &cfg,
            db.catalog.num_tables(),
            db.catalog.num_joins(),
        );
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let qf = f.query_features(&q);
        let mut g = Graph::new();
        let v = enc.forward(&mut g, &store, &qf);
        assert_eq!(g.value(v).shape(), (1, cfg.query_dim()));
        assert!(g.value(v).norm() > 0.0);
    }

    #[test]
    fn query_encoder_is_permutation_invariant() {
        // Set semantics: shuffling the relation order must not change the
        // embedding (mean pooling over one-hot rows).
        let (db, q, _) = setup();
        let cfg = ModelConfig::small();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let enc = QueryEncoder::new(
            &mut store,
            &mut init,
            &cfg,
            db.catalog.num_tables(),
            db.catalog.num_joins(),
        );
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let qf1 = f.query_features(&q);
        let mut q2 = q.clone();
        q2.relations.reverse();
        let qf2 = f.query_features(&q2);
        let mut g = Graph::new();
        let v1 = enc.forward(&mut g, &store, &qf1);
        let v2 = enc.forward(&mut g, &store, &qf2);
        let (a, b) = (g.value(v1).clone(), g.value(v2).clone());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn plan_encoder_shapes_and_node_count() {
        let (db, q, plan) = setup();
        let cfg = ModelConfig::small();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let penc = PlanEncoder::new(&mut store, &mut init, &cfg, db.catalog.num_tables());
        let truth = Executor::new(&db).execute(&plan);
        let norm = TargetNormalizer::fit(&[[1.0, 1.0, 1.0], [100.0, 50.0, 10.0]]);
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let mut sess = crate::featurize::FeatSession::new();
        let fq = f.featurize(&mut sess, &q, &plan, Some(&truth), &norm);
        let mut g = Graph::new();
        let enc = penc.forward(&mut g, &store, &fq.plan);
        assert_eq!(g.value(enc.nodes).shape(), (5, cfg.plan_node_out));
        assert_eq!(g.value(enc.root).shape(), (1, cfg.plan_node_out));
        assert_eq!(enc.node_vars.len(), 5);
    }

    #[test]
    fn different_operators_give_different_encodings() {
        let (db, q, _) = setup();
        let cfg = ModelConfig::small();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let penc = PlanEncoder::new(&mut store, &mut init, &cfg, db.catalog.num_tables());
        let norm = TargetNormalizer::fit(&[[1.0, 1.0, 1.0], [100.0, 50.0, 10.0]]);
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let mut sess = crate::featurize::FeatSession::new();
        let mk = |op| {
            PlanNode::join(
                &q,
                op,
                PlanNode::join(
                    &q,
                    JoinOp::HashJoin,
                    PlanNode::scan(&q, "title", ScanOp::SeqScan),
                    PlanNode::scan(&q, "movie_info", ScanOp::SeqScan),
                ),
                PlanNode::scan(&q, "movie_keyword", ScanOp::SeqScan),
            )
        };
        let fa = f.featurize(&mut sess, &q, &mk(JoinOp::HashJoin), None, &norm);
        let fb = f.featurize(&mut sess, &q, &mk(JoinOp::NestedLoopJoin), None, &norm);
        let mut g = Graph::new();
        let ea = penc.forward(&mut g, &store, &fa.plan);
        let eb = penc.forward(&mut g, &store, &fb.plan);
        assert_ne!(g.value(ea.root).data(), g.value(eb.root).data());
    }

    /// Level-wise encode of `plans` (all of one query) through `memo`: every
    /// node's `h`, per plan in postorder, plus the rows this pass encoded.
    fn encode(
        penc: &PlanEncoder,
        store: &ParamStore,
        plans: &[&FeatNode],
        memo: &mut NodeMemo,
        sc: &mut ScratchArena,
    ) -> (Vec<Vec<Vec<f32>>>, usize) {
        let mut pass = LevelPass::default();
        for plan in plans {
            pass.add(0, plan, memo);
        }
        let mut memos = vec![memo];
        let fresh = penc.encode_pass(store, &pass, &memos, sc);
        pass.commit(&mut memos, &fresh, None);
        let h = |r: NodeRef| match r {
            NodeRef::Memo { entry, .. } => memos[0].h(entry).to_vec(),
            NodeRef::Fresh(row) => fresh.h.row_slice(row as usize).to_vec(),
        };
        let rows = pass.spans.iter().map(|s| pass.refs[s.clone()].iter().map(|&r| h(r)).collect());
        let out = (rows.collect(), pass.fresh_rows());
        fresh.recycle(sc);
        out
    }

    /// K plans in one pass ≡ K one-plan passes ≡ any partition into passes
    /// ≡ a warm memo ≡ the uncached featurizer's trees (no node ids), node
    /// for node, bit for bit — with plans of different heights sharing
    /// levels.
    #[test]
    fn plan_encoding_rows_bitwise_equal_under_any_partition() {
        let (db, q, _) = setup();
        let cfg = ModelConfig::small();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let penc = PlanEncoder::new(&mut store, &mut init, &cfg, db.catalog.num_tables());
        let norm = TargetNormalizer::fit(&[[1.0, 1.0, 1.0], [100.0, 50.0, 10.0]]);
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let mut sess = crate::featurize::FeatSession::new();
        // Left-deep candidates sharing prefixes, plus a lone scan.
        let mk = |a: &str, b: &str, c: &str, op| {
            PlanNode::join(
                &q,
                op,
                PlanNode::join(
                    &q,
                    JoinOp::HashJoin,
                    PlanNode::scan(&q, a, ScanOp::SeqScan),
                    PlanNode::scan(&q, b, ScanOp::SeqScan),
                ),
                PlanNode::scan(&q, c, ScanOp::SeqScan),
            )
        };
        let plans = [
            mk("title", "movie_info", "movie_keyword", JoinOp::HashJoin),
            mk("title", "movie_info", "movie_keyword", JoinOp::NestedLoopJoin),
            mk("movie_keyword", "title", "movie_info", JoinOp::MergeJoin),
            PlanNode::scan(&q, "movie_info", ScanOp::SeqScan),
        ];
        let plan_refs: Vec<&PlanNode> = plans.iter().collect();
        let mut cache = crate::featurize::PlanFeatCache::new(&q);
        let mut feats = Vec::new();
        f.featurize_batch_into(&mut sess, &q, &plan_refs, &norm, &mut cache, &mut feats);
        let refs: Vec<&FeatNode> = feats.iter().collect();
        let layout = EntryLayout { out: cfg.plan_node_out, heads: 0, head_dim: 0 };
        let fresh_memo = || {
            let mut memo = NodeMemo::default();
            memo.init(layout, 3 * q.relations.len());
            memo
        };
        let mut sc = ScratchArena::new();
        let (whole, encoded) = encode(&penc, &store, &refs, &mut fresh_memo(), &mut sc);
        // Three leaves, and the joins (t⋈mi), its two parents, (mk⋈t) and
        // its parent: 16 nodes, 8 distinct subtrees.
        assert_eq!(encoded, 8, "each distinct subtree is encoded once");
        assert_eq!(whole.iter().map(Vec::len).collect::<Vec<_>>(), [5, 5, 5, 1]);
        // Partitions {0},{1},{2},{3} on fresh memos, and {0,1},{2,3} then
        // all four again on one warm memo.
        for p in 0..refs.len() {
            let (one, _) = encode(&penc, &store, &refs[p..p + 1], &mut fresh_memo(), &mut sc);
            assert_eq!(one[0], whole[p], "plan {p}: encoding depends on batch composition");
        }
        let mut warm = fresh_memo();
        let (a, _) = encode(&penc, &store, &refs[..2], &mut warm, &mut sc);
        let (b, _) = encode(&penc, &store, &refs[2..], &mut warm, &mut sc);
        assert_eq!([a, b].concat(), whole, "a memo hit differs from encoding the node");
        let (again, encoded) = encode(&penc, &store, &refs, &mut warm, &mut sc);
        assert_eq!((again, encoded), (whole.clone(), 0), "a warm memo encodes nothing");
        assert_eq!(warm.encoded(), 8);
        // The uncached featurizer assigns no ids: every node is encoded.
        let general: Vec<FeatNode> =
            plans.iter().map(|p| f.featurize(&mut sess, &q, p, None, &norm).plan).collect();
        let general_refs: Vec<&FeatNode> = general.iter().collect();
        let (plain, encoded) = encode(&penc, &store, &general_refs, &mut fresh_memo(), &mut sc);
        assert_eq!((plain, encoded), (whole, 16));
    }

    /// Joins stop entering the memo when its budget is full, leaves never
    /// do, and an entry is never evicted.
    #[test]
    fn memo_admits_joins_within_budget_and_leaves_always() {
        let layout = EntryLayout { out: 4, heads: 0, head_dim: 0 };
        let cap = MEMO_BUDGET_BYTES / (8 * 4);
        let mut memo = NodeMemo::default();
        memo.init(layout, 2);
        let row = vec![0.5f32; 8];
        for _ in 0..cap - 2 {
            assert!(memo.admit(false));
            memo.data.extend_from_slice(&row);
        }
        assert!(!memo.admit(false), "the last two entries are reserved for leaves");
        for _ in 0..3 {
            assert!(memo.admit(true), "a leaf is always admitted");
            memo.data.extend_from_slice(&row);
        }
        assert!(!memo.admit(false));
        assert_eq!(memo.len(), cap + 1, "a third leaf goes past the reservation");
    }

    #[test]
    fn gradients_flow_to_both_encoders() {
        let (db, q, plan) = setup();
        let cfg = ModelConfig::small();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let qenc = QueryEncoder::new(
            &mut store,
            &mut init,
            &cfg,
            db.catalog.num_tables(),
            db.catalog.num_joins(),
        );
        let penc = PlanEncoder::new(&mut store, &mut init, &cfg, db.catalog.num_tables());
        let norm = TargetNormalizer::fit(&[[1.0, 1.0, 1.0], [100.0, 50.0, 10.0]]);
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let mut sess = crate::featurize::FeatSession::new();
        let fq = f.featurize(&mut sess, &q, &plan, None, &norm);
        store.zero_grads();
        let mut g = Graph::new();
        let qv = qenc.forward(&mut g, &store, &fq.query);
        let pv = penc.forward(&mut g, &store, &fq.plan);
        let cat = g.concat_cols(qv, pv.root);
        let loss = g.sum_all(cat);
        g.backward(loss, &mut store);
        assert!(store.grad(qenc.rel_mlp.layers[0].w).norm() > 0.0);
        assert!(store.grad(qenc.join_mlp.layers[0].w).norm() > 0.0);
        assert!(store.grad(penc.cell.w_ih).norm() > 0.0);
        assert!(store.grad(penc.cell.w_hh).norm() > 0.0);
    }
}
