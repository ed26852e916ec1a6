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

    /// Encode several queries' set features → `[queries, query_dim]`, row
    /// `i` for `feats[i]`. Each set's MLP runs once over every query's rows
    /// stacked; pooling stays per query, summing its rows in order.
    pub(crate) fn forward<E: Exec>(&self, e: &mut E, feats: &[&QueryFeatures]) -> E::T {
        let rel = Self::encode_sets(
            e,
            &self.rel_mlp,
            feats.iter().map(|f| (&f.rel_matrix, &f.rel_mask)).collect(),
        );
        let join = Self::encode_sets(
            e,
            &self.join_mlp,
            feats.iter().map(|f| (&f.join_matrix, &f.join_mask)).collect(),
        );
        let (rw, jw) = (self.rel_mlp.out_dim(), self.join_mlp.out_dim());
        let out = e.concat(&[(&rel, 0..rw), (&join, 0..jw)]);
        e.recycle(rel);
        e.recycle(join);
        out
    }

    /// Masked mean pooling of one set per query: `[queries, out]`.
    fn encode_sets<E: Exec>(e: &mut E, mlp: &Mlp, sets: Vec<(&Tensor, &Tensor)>) -> E::T {
        let rows = sets.iter().map(|s| s.0.rows()).sum();
        let x = e.constant(rows, sets[0].0.cols(), |t| {
            let mut at = 0;
            for (m, _) in &sets {
                t.data_mut()[at..at + m.len()].copy_from_slice(m.data());
                at += m.len();
            }
        });
        let h = mlp.forward(e, &x); // [Σ rows, out]
        e.recycle(x);
        let mask: Vec<f32> = sets.iter().flat_map(|s| s.1.data().iter().copied()).collect();
        let lens: Vec<usize> = sets.iter().map(|s| s.0.rows()).collect();
        let inv: Vec<f32> = sets.iter().map(|s| 1.0 / s.1.sum().max(1.0)).collect();
        let all: Vec<Row<E::T>> = (0..rows).map(|r| Row::Of(&h, r)).collect();
        let pooled = e.pool(&all, Some(&mask), &lens, &inv, mlp.out_dim());
        e.recycle(h);
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

    /// Encode every fresh row of a [`LevelPass`] level by level, children
    /// before parents: one `rows = m` LSTM step per level of
    /// [`LevelPass::order`], across every plan and submission in the pass.
    /// A child that is not fresh is read from its submission's memo in
    /// `memos` (the tape's passes start from empty memos, and pass none).
    /// Returns the fresh rows' `(h, c)`, `[F, out_dim]` each, level by level
    /// ([`LevelPass::pos`] finds a row).
    ///
    /// Row `r` is bitwise identical to encoding its subtree alone: the
    /// matmul kernel guarantees per-row reduction order, and every other op
    /// here (state pooling in child order, gate math, input assembly) is
    /// row-independent. So a level can mix leaves and joins of any plans,
    /// and a memoized state is exactly what recomputing it would give.
    pub(crate) fn forward<E: Exec>(
        &self,
        e: &mut E,
        pass: &LevelPass,
        memos: &[&mut NodeMemo],
    ) -> LstmState<E::T> {
        let order = pass.order();
        let (dd, out) = (self.data_dim, self.out_dim);
        let mut levels: Vec<LstmState<E::T>> = Vec::with_capacity(order.levels());
        for level in 0..order.levels() {
            let rows = order.level(level);
            let node_of = |i: usize| pass.fresh[rows[i] as usize].node;
            let (mut kid_h, mut kid_c, mut lens) = (Vec::new(), Vec::new(), Vec::new());
            for &r in rows {
                let FreshRow { node, sub, kids, .. } = &pass.fresh[r as usize];
                for kid in &kids[..node.children.len()] {
                    let (h, c) = match *kid {
                        NodeRef::Memo { entry, .. } => {
                            let memo = &memos[*sub as usize];
                            (Row::Const(memo.h(entry)), Row::Const(memo.c(entry)))
                        }
                        NodeRef::Fresh(k) => {
                            let (l, i) = order.at(k, pass.fresh[k as usize].level);
                            (Row::Of(&levels[l].h, i), Row::Of(&levels[l].c, i))
                        }
                    };
                    kid_h.push(h);
                    kid_c.push(c);
                }
                lens.push(node.children.len());
            }
            // Children's h and c mean-pooled in child order; a leaf's are
            // zero, its initial state.
            let inv: Vec<f32> = lens.iter().map(|&n| 1.0 / n.max(1) as f32).collect();
            let h = e.pool(&kid_h, None, &lens, &inv, out);
            let c = e.pool(&kid_c, None, &lens, &inv, out);
            // The input `[child data | own features | estimates]`: a join's
            // pooled h fills the first and last slots; a leaf's h is zero,
            // and its EXPLAIN estimates are added to the last.
            let m = rows.len();
            let mid_cols = node_of(0).mid.cols();
            let mids = e.constant(m, mid_cols, |t| {
                (0..m).for_each(|i| t.row_slice_mut(i).copy_from_slice(node_of(i).mid.data()))
            });
            let leaves: Vec<usize> = (0..m).filter(|&i| node_of(i).children.is_empty()).collect();
            let with_est = (!leaves.is_empty()).then(|| {
                let ests = e.constant(m, out, |t| {
                    for &i in &leaves {
                        let est = node_of(i).leaf_est.as_ref();
                        let est = est.expect("leaf featurization includes estimates");
                        t.row_slice_mut(i)[dd..].copy_from_slice(est.data());
                    }
                });
                let sum = e.add(&h, &ests);
                e.recycle(ests);
                sum
            });
            let est = with_est.as_ref().unwrap_or(&h);
            let input = e.concat(&[(&h, 0..dd), (&mids, 0..mid_cols), (est, dd..out)]);
            e.recycle(mids);
            with_est.into_iter().for_each(|t| e.recycle(t));
            let state = LstmState { h, c };
            levels.push(self.cell.step(e, &input, &state));
            [input, state.h, state.c].into_iter().for_each(|t| e.recycle(t));
        }
        let stack = |e: &mut E, of: fn(&LstmState<E::T>) -> &E::T| {
            let rows =
                (0..levels.len()).flat_map(|l| (0..order.level(l).len()).map(move |i| (l, i)));
            e.gather(pass.fresh.len(), out, rows.map(|(l, i)| Row::Of(of(&levels[l]), i)))
        };
        let fresh = LstmState { h: stack(e, |s| &s.h), c: stack(e, |s| &s.c) };
        for s in levels {
            e.recycle(s.h);
            e.recycle(s.c);
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
    /// Start an empty memo for entries of `layout`, reserving `leaves`
    /// entries for leaves, on the allocations of any earlier entries.
    pub(crate) fn init(&mut self, layout: EntryLayout, leaves: usize) {
        self.slots.clear();
        self.data.clear();
        self.layout = Some(layout);
        self.leaf_room = leaves;
        self.encoded = 0;
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

    /// Entry `e`'s keys (`value = false`) or values, every head's side by
    /// side.
    pub(crate) fn kv(&self, e: u32, value: bool) -> &[f32] {
        let l = self.layout.expect("an entry implies a layout");
        let w = l.heads * l.head_dim;
        let at = 2 * l.out + usize::from(value) * w;
        &self.entry(e)[at..at + w]
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

/// A pass's fresh rows grouped by level, each level in pass order: the one
/// schedule the plan LSTM steps, on the tape and off it.
struct LevelOrder {
    /// Fresh rows, level-major.
    rows: Vec<u32>,
    /// `rows[starts[l]..starts[l + 1]]` are level `l`'s rows.
    starts: Vec<usize>,
    /// Fresh row → its index in `rows`.
    pos: Vec<u32>,
}

impl LevelOrder {
    fn new(fresh: &[FreshRow], levels: u32) -> Self {
        let level = |r: &u32| fresh[*r as usize].level;
        // Stable: pass order inside a level.
        let mut rows: Vec<u32> = (0..fresh.len() as u32).collect();
        rows.sort_by_key(level);
        let starts = (0..=levels).map(|l| rows.partition_point(|r| level(r) < l)).collect();
        let mut pos = vec![0; fresh.len()];
        for (i, &r) in rows.iter().enumerate() {
            pos[r as usize] = i as u32;
        }
        Self { rows, starts, pos }
    }

    fn levels(&self) -> usize {
        self.starts.len() - 1
    }

    /// Level `l`'s fresh rows, in pass order; never empty.
    fn level(&self, l: usize) -> &[u32] {
        &self.rows[self.starts[l]..self.starts[l + 1]]
    }

    /// Fresh row `r`, of level `level`: its level and its index there.
    fn at(&self, r: u32, level: u32) -> (usize, usize) {
        let l = level as usize;
        (l, self.pos[r as usize] as usize - self.starts[l])
    }
}

/// One scoring call's plan-encoder work, across every submission in it:
/// which nodes need encoding (each distinct id once per submission) and,
/// per candidate, where every node's state will be read from. Training
/// builds one over a tape group, with an empty memo per sample.
#[derive(Default)]
pub(crate) struct LevelPass<'a> {
    fresh: Vec<FreshRow<'a>>,
    /// Every candidate's nodes in postorder, candidates back to back.
    pub(crate) refs: Vec<NodeRef>,
    /// `refs[spans[c]]` are candidate `c`'s nodes; the last is its root.
    pub(crate) spans: Vec<std::ops::Range<usize>>,
    levels: u32,
    /// The fresh rows by level, built on first use after the last add.
    order: std::cell::OnceCell<LevelOrder>,
}

impl<'a> LevelPass<'a> {
    /// The fresh rows grouped by level.
    fn order(&self) -> &LevelOrder {
        self.order.get_or_init(|| LevelOrder::new(&self.fresh, self.levels))
    }

    /// Fresh row `row`'s row of [`PlanEncoder::forward`]'s output.
    pub(crate) fn pos(&self, row: u32) -> usize {
        self.order().pos[row as usize] as usize
    }

    /// Where node `r` of a pass over empty memos (the tape's) sits in
    /// [`PlanEncoder::forward`]'s output.
    ///
    /// # Panics
    /// If `r` is a memo hit.
    pub(crate) fn tape_row(&self, r: NodeRef) -> usize {
        match r {
            NodeRef::Fresh(row) => self.pos(row),
            NodeRef::Memo { .. } => unreachable!("the tape's memos start empty"),
        }
    }

    /// Candidate `c`'s nodes in postorder as rows of a tape pass's
    /// [`PlanEncoder::forward`] output; the last is its root.
    pub(crate) fn tape_rows(&self, c: usize) -> Vec<usize> {
        self.refs[self.spans[c].clone()].iter().map(|&r| self.tape_row(r)).collect()
    }

    /// Add one candidate plan of submission `sub`, whose memo is `memo`.
    /// Marks the nodes it encodes in the memo until [`Self::commit`].
    pub(crate) fn add(&mut self, sub: usize, plan: &'a FeatNode, memo: &mut NodeMemo) {
        self.order.take();
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
        let slot = memo.slot(node.id);
        let found = if *slot == ABSENT {
            let row = self.fresh.len() as u32;
            *slot = FRESH | row;
            self.fresh.push(FreshRow { node, sub, kids, level });
            self.levels = self.levels.max(level + 1);
            (NodeRef::Fresh(row), Some(level))
        } else if *slot & FRESH != 0 {
            let row = *slot & !FRESH;
            (NodeRef::Fresh(row), Some(self.fresh[row as usize].level))
        } else {
            (NodeRef::Memo { sub, entry: *slot }, None)
        };
        self.refs.push(found.0);
        found
    }

    /// Write the fresh rows (their states from [`PlanEncoder::forward`],
    /// their keys and values from `MultiHeadCrossAttention::project` when
    /// attention is on, all in its row order) into their memos, in pass
    /// order, as far as each budget admits; clear every `FRESH` mark.
    pub(crate) fn commit(
        &self,
        memos: &mut [&mut NodeMemo],
        fresh: &LstmState<Tensor>,
        kv: Option<(&Tensor, &Tensor)>,
    ) {
        for (row, FreshRow { node, sub, .. }) in self.fresh.iter().enumerate() {
            let memo = &mut *memos[*sub as usize];
            memo.encoded += 1;
            let slot = if memo.admit(node.children.is_empty()) {
                let (entry, at) = (memo.len() as u32, self.pos(row as u32));
                memo.data.extend_from_slice(fresh.h.row_slice(at));
                memo.data.extend_from_slice(fresh.c.row_slice(at));
                for t in kv.iter().flat_map(|&(keys, values)| [keys, values]) {
                    memo.data.extend_from_slice(t.row_slice(at));
                }
                entry
            } else {
                ABSENT
            };
            *memo.slot(node.id) = slot;
        }
    }
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
        let mut g = Graph::new(&store);
        let v = enc.forward(&mut g, &[&qf, &qf]);
        assert_eq!(g.value(v).shape(), (2, cfg.query_dim()));
        assert!(g.value(v).norm() > 0.0);
        // Each query's row is bitwise what it gets alone.
        let one = enc.forward(&mut g, &[&qf]);
        assert_eq!(g.value(v).row_slice(1), g.value(one).data());
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
        let mut g = Graph::new(&store);
        let v = enc.forward(&mut g, &[&qf1, &qf2]);
        let (a, b) = (g.value(v).row_slice(0), g.value(v).row_slice(1));
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    /// The tape over `plans` as `QPSeeker::encode_group` runs it: one pass,
    /// an empty memo per plan. Returns the node rows and each plan's rows.
    fn tape(penc: &PlanEncoder, g: &mut Graph, plans: &[&FeatNode]) -> (Var, Vec<Vec<usize>>) {
        let mut pass = LevelPass::default();
        for (s, plan) in plans.iter().enumerate() {
            pass.add(s, plan, &mut NodeMemo::default());
        }
        let nodes = penc.forward(g, &pass, &[]).h;
        (nodes, (0..plans.len()).map(|s| pass.tape_rows(s)).collect())
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
        let mut g = Graph::new(&store);
        let (nodes, rows) = tape(&penc, &mut g, &[&fq.plan, &fq.plan]);
        assert_eq!(g.value(nodes).shape(), (10, cfg.plan_node_out));
        assert_eq!(rows.iter().map(Vec::len).collect::<Vec<_>>(), [5, 5]);
        // Three leaves per plan share level 0, then one join per level.
        assert_eq!(rows[0], [0, 1, 6, 2, 8]);
        assert_eq!(rows[1], [3, 4, 7, 5, 9]);
    }

    /// One tape group mixing a single scan, a left-deep 3-way plan and a
    /// bushy 4-way plan: the level-major row layout and every plan's
    /// postorder rows.
    #[test]
    fn tape_rows_of_a_scan_a_left_deep_and_a_bushy_plan() {
        let (db, mut q, _) = setup();
        q.relations.push(RelRef::new("cast_info"));
        q.joins.push(JoinPred {
            left: ColRef::new("cast_info", "movie_id"),
            right: ColRef::new("movie_keyword", "movie_id"),
        });
        let cfg = ModelConfig::small();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let penc = PlanEncoder::new(&mut store, &mut init, &cfg, db.catalog.num_tables());
        let norm = TargetNormalizer::fit(&[[1.0, 1.0, 1.0], [100.0, 50.0, 10.0]]);
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let mut sess = crate::featurize::FeatSession::new();
        let scan = |t| PlanNode::scan(&q, t, ScanOp::SeqScan);
        let join = |l, r| PlanNode::join(&q, JoinOp::HashJoin, l, r);
        let plans = [
            scan("movie_info"),
            join(join(scan("title"), scan("movie_info")), scan("movie_keyword")),
            join(
                join(scan("title"), scan("movie_info")),
                join(scan("movie_keyword"), scan("cast_info")),
            ),
        ];
        let feats: Vec<_> =
            plans.iter().map(|p| f.featurize(&mut sess, &q, p, None, &norm)).collect();
        let mut g = Graph::new(&store);
        let (nodes, rows) = tape(&penc, &mut g, &feats.iter().map(|f| &f.plan).collect::<Vec<_>>());
        assert_eq!(g.value(nodes).shape(), (13, cfg.plan_node_out));
        // Level 0: the eight leaves in plan order; level 1: the left-deep
        // plan's first join, then the bushy plan's two; level 2: both roots.
        assert_eq!(rows[0], [0]);
        assert_eq!(rows[1], [1, 2, 8, 3, 11]);
        assert_eq!(rows[2], [4, 5, 9, 6, 7, 10, 12]);
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
        let mut g = Graph::new(&store);
        let (nodes, rows) = tape(&penc, &mut g, &[&fa.plan, &fb.plan]);
        let root = |p: usize| g.value(nodes).row_slice(rows[p][4]);
        assert_ne!(root(0), root(1));
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
        let e = &mut Scratch { store, arena: sc };
        let fresh = penc.forward(e, &pass, &memos);
        pass.commit(&mut memos, &fresh, None);
        let h = |r: NodeRef| match r {
            NodeRef::Memo { entry, .. } => memos[0].h(entry).to_vec(),
            NodeRef::Fresh(row) => fresh.h.row_slice(pass.pos(row)).to_vec(),
        };
        let rows = pass.spans.iter().map(|s| pass.refs[s.clone()].iter().map(|&r| h(r)).collect());
        let out = (rows.collect(), pass.fresh.len());
        e.recycle(fresh.h);
        e.recycle(fresh.c);
        out
    }

    /// K plans in one pass ≡ K one-plan passes ≡ any partition into passes
    /// ≡ a warm memo, node for node, bit for bit — with plans of different
    /// heights sharing levels.
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
        assert_eq!((again, encoded), (whole, 0), "a warm memo encodes nothing");
        assert_eq!(warm.encoded(), 8);
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
        let mut g = Graph::new(&store);
        let qv = qenc.forward(&mut g, &[&fq.query]);
        let (nodes, rows) = tape(&penc, &mut g, &[&fq.plan]);
        let root = g.gather(1, cfg.plan_node_out, [Row::Of(&nodes, rows[0][4])]);
        let cat = g.concat(&[(&qv, 0..qenc.out_dim()), (&root, 0..cfg.plan_node_out)]);
        let loss = g.sum_all(cat);
        let (_, grads) = g.backward(loss);
        let norm = |id| grads.get(id).map_or(0.0, Tensor::norm);
        assert!(norm(qenc.rel_mlp.layers[0].w) > 0.0);
        assert!(norm(qenc.join_mlp.layers[0].w) > 0.0);
        assert!(norm(penc.cell.w_ih) > 0.0);
        assert!(norm(penc.cell.w_hh) > 0.0);
    }
}
