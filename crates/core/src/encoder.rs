//! The Query Encoder (§4.1) and Plan Encoder (§4.2).

use crate::config::ModelConfig;
use crate::featurize::{FeatNode, QueryFeatures};
use qpseeker_nn::prelude::*;
use std::sync::Arc;

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
        let rel = Self::encode_sets(e, &self.rel_mlp, feats, |f| (&f.rel_matrix, &f.rel_mask));
        let join = Self::encode_sets(e, &self.join_mlp, feats, |f| (&f.join_matrix, &f.join_mask));
        let (rw, jw) = (self.rel_mlp.out_dim(), self.join_mlp.out_dim());
        let out = e.concat(&[(&rel, 0..rw), (&join, 0..jw)]);
        e.recycle(rel);
        e.recycle(join);
        out
    }

    /// Masked mean pooling of one set per query, `set(f)` being query
    /// `f`'s `(matrix, mask)`: `[queries, out]`. A mask is 0 or 1, so the
    /// mean sums the rows it keeps, unweighted.
    fn encode_sets<E: Exec>(
        e: &mut E,
        mlp: &Mlp,
        feats: &[&QueryFeatures],
        set: fn(&QueryFeatures) -> (&Tensor, &Tensor),
    ) -> E::T {
        let rows = feats.iter().map(|f| set(f).0.rows()).sum();
        let x = e.constant(rows, set(feats[0]).0.cols(), |t| {
            let mut at = 0;
            for f in feats {
                let m = set(f).0;
                t.data_mut()[at..at + m.len()].copy_from_slice(m.data());
                at += m.len();
            }
        });
        let h = mlp.forward(e, &x); // [Σ rows, out]
        e.recycle(x);
        let masks = feats.iter().flat_map(|f| set(f).1.data());
        let kept = masks.enumerate().filter(|&(_, &m)| m != 0.0).map(|(r, _)| Row::Of(&h, r));
        let lens: Vec<usize> = feats.iter().map(|f| set(f).1.sum() as usize).collect();
        let inv: Vec<f32> = lens.iter().map(|&n| 1.0 / n.max(1) as f32).collect();
        let pooled = e.pool(kept, None, &lens, &inv, mlp.out_dim());
        e.recycle(h);
        pooled
    }
}

/// A row of [`LevelStates`]: [`LevelStates::h`] or [`LevelStates::c`].
type LevelRow<T> = for<'a> fn(&'a LevelStates<T>, usize) -> Row<'a, T>;

/// Bottom-up LSTM-cell plan encoder. Each plan node is one LSTM step whose
/// input concatenates `[child data vectors | relation encoding | TaBERT |
/// op one-hot | estimates]`; children pass both their hidden/cell state
/// (averaged) and their output vectors (pooled into the parent's input).
///
/// The step runs folded ([`LstmCell`]): the children's pooled `h` fills the
/// child-data and estimate slots, so `x·W_ih + h·W_hh` is `h·W_fold` plus
/// the node's own term `[mid | estimates]·W_own + b`, which depends only on
/// the node's (alias set, operator) — its own id.
#[derive(Debug, Clone)]
pub(crate) struct PlanEncoder {
    pub cell: LstmCell,
    out_dim: usize,
}

impl PlanEncoder {
    pub(crate) fn new(
        store: &mut ParamStore,
        init: &mut Initializer,
        cfg: &ModelConfig,
        n_tables: usize,
    ) -> Self {
        let (input_dim, out) = (cfg.node_input_dim(n_tables), cfg.plan_node_out);
        let cell = LstmCell::new(store, init, "plan_enc.cell", input_dim, out, cfg.data_vec_dim());
        Self { cell, out_dim: out }
    }

    pub(crate) fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Encode every fresh row of a [`LevelPass`] level by level, children
    /// before parents: the own terms of the pass's new own ids in one GEMM,
    /// then one `rows = m` LSTM step per level of [`LevelPass::order`],
    /// across every plan and submission in the pass. A child or an own term
    /// the pass does not compute is read from its submission's memo in
    /// `memos` (the tape's passes start from empty memos, and pass none).
    /// Returns the fresh rows' `(h, c)`, `[F, out_dim]` each, level by level
    /// ([`LevelPass::pos`] finds a row), and the new own terms in
    /// [`LevelPass::commit`]'s order (`None` when the pass has none). On the
    /// serving executor each level's step writes its rows of the returned
    /// `(h, c)` directly ([`Exec::levels`]), and its gates start as its own
    /// terms gathered; the tape stacks a pair per level.
    ///
    /// Row `r` is bitwise identical to encoding its subtree alone: the
    /// matmul kernel guarantees per-row reduction order, and every other op
    /// here (state pooling in child order, gate math, row gathers) is
    /// row-independent. So a level can mix leaves and joins of any plans,
    /// and a memoized state or own term is exactly what recomputing it
    /// would give.
    pub(crate) fn forward<E: Exec>(
        &self,
        e: &mut E,
        pass: &LevelPass,
        memos: &[&mut NodeMemo],
    ) -> (LstmState<E::T>, Option<E::T>) {
        let order = pass.order();
        let out = self.out_dim;
        // The own inputs `[mid | estimates]` (zero estimates on a join).
        let own = (!pass.owns.is_empty()).then(|| {
            let x = e.constant(pass.owns.len(), self.cell.own_dim(), |t| {
                for (i, &(node, _)) in pass.owns.iter().enumerate() {
                    t.row_slice_mut(i).copy_from_slice(&node.input);
                }
            });
            let own = self.cell.project(e, &x);
            e.recycle(x);
            own
        });
        let mut levels = e.levels(pass.fresh.len(), out);
        for level in 0..order.levels() {
            let (rows, span) = (order.level(level), order.span(level));
            // Children's h and c mean-pooled in child order; a leaf's are
            // zero, its initial state.
            let kids = |of: LevelRow<E::T>, memo_row: fn(&NodeMemo, u32) -> &[f32]| {
                let levels = &levels;
                rows.iter().flat_map(move |&r| {
                    let FreshRow { node, sub, kids, .. } = &pass.fresh[r as usize];
                    kids[..node.children().len()].iter().map(move |kid| match *kid {
                        NodeRef::Memo { entry, .. } => {
                            Row::Const(memo_row(memos[*sub as usize], entry))
                        }
                        NodeRef::Fresh(k) => of(levels, pass.pos(k)),
                    })
                })
            };
            let (lens, inv) = (&order.lens[span.clone()], &order.inv[span]);
            let h = e.pool(kids(LevelStates::h, NodeMemo::h), None, lens, inv, out);
            let c = e.pool(kids(LevelStates::c, NodeMemo::c), None, lens, inv, out);
            let own_rows = rows.iter().map(|&r| match pass.fresh[r as usize].own {
                NodeRef::Memo { sub, entry } => Row::Const(memos[sub as usize].own(entry)),
                NodeRef::Fresh(k) => Row::Of(own.as_ref().expect("a fresh own term"), k as usize),
            });
            e.lstm_step(&self.cell, own_rows, &h, &c, &mut levels);
            e.recycle(h);
            e.recycle(c);
        }
        (e.stacked(levels), own)
    }
}

/// Bytes of entries one query's `NodeMemo` may admit, node entries and own
/// entries together. A node entry names a row of `2·out + heads·(2 +
/// head_dim)` floats: 1,312 B at the bench preset (out 96, 4 × 32), so the
/// budget admits 6,393 of them — deep_join's worst query at an eval cap of
/// 256 needs at most 30 leaves and 256 × 9 joins, 2,334. An own entry names
/// a join's own term, `4·out` floats: 1,536 B at the bench preset; a query
/// has at most one per (alias set, join operator) it scores. At the paper's
/// size (out 950, 4 × 256) a node entry is 11,728 B and an own entry
/// 15,200 B: 715 node entries alone.
///
/// The budget counts the rows entries name. An entry names its row of the
/// scoring call's outputs that computed it, and the memo keeps those
/// outputs whole, so the rows of a kept call's outputs that no entry names
/// — a leaf's own term, a row past the budget, another submission's rows in
/// a fused pass — stay allocated with them until the memo starts its next
/// query or is dropped.
pub const MEMO_BUDGET_BYTES: usize = 8 << 20;

/// A memo slot not holding an entry.
const ABSENT: u32 = u32::MAX;
/// Slot tag of a node or own term a [`LevelPass`] is computing: `FRESH |
/// row`.
const FRESH: u32 = 1 << 31;

/// What a memo entry names, in floats: `[h | c | state]`, the state being
/// the subtree's attention softmax state, `heads·(2 + head_dim)` floats
/// ([`qpseeker_nn::act::merge_states`]), with `heads = 0` when attention is
/// off. An own entry is `4·out` floats.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntryLayout {
    pub(crate) out: usize,
    pub(crate) heads: usize,
    pub(crate) head_dim: usize,
}

impl EntryLayout {
    fn width(&self) -> usize {
        2 * self.out + self.heads * (2 + self.head_dim)
    }
}

/// One scoring call's outputs, which memo entries name by row: its fresh
/// rows' LSTM `h` and `c` and, with attention on, their attention states
/// ([`PlanEncoder::forward`]'s row order, `[F, ·]` each); and its new own
/// terms ([`LevelPass`]'s own order, `[O, 4·out]`). Each state is written
/// once, by the kernel that computes it, and read from here by the call
/// itself and by every later call through the memos that keep the block.
#[derive(Debug)]
pub(crate) struct Block {
    pub(crate) h: Tensor,
    pub(crate) c: Tensor,
    pub(crate) states: Option<Tensor>,
    pub(crate) own: Option<Tensor>,
}

impl Block {
    /// Bytes the block's tensors hold allocated.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        let tensors = [&self.h, &self.c].into_iter().chain(&self.states).chain(&self.own);
        tensors.map(|t| t.capacity() * std::mem::size_of::<f32>()).sum()
    }

    /// The block's tensors, to hand back to an arena.
    pub(crate) fn into_tensors(self) -> impl Iterator<Item = Tensor> {
        let Self { h, c, states, own } = self;
        [h, c].into_iter().chain(states).chain(own)
    }
}

/// Per-query memo of encoded subtrees: node id (dense, assigned by the
/// query's [`crate::featurize::PlanFeatCache`]) → the subtree's LSTM `h`
/// and `c` and its attention state (the query's softmax over the subtree's
/// nodes, per head); and own id → a join's own term. An entry is a (block,
/// row): a row of the [`Block`] of the scoring call that computed it, which
/// [`LevelPass::commit`] hands to the memo (shared, through an `Arc`, by
/// every memo of a fused pass that admits one of its rows) instead of a
/// copy. One memo lives in each [`crate::model::QueryContext`], travels
/// inside its submissions (so broker-on and broker-off run the same code)
/// and dies with it; its blocks go back to the arenas' shared pool
/// ([`ScratchArena::release`]) when the memo that holds their last
/// reference starts its next query ([`Self::init`]) or is dropped.
///
/// Fixed budget, no eviction: leaves are always kept (at most
/// `ScanOp::ALL.len()` per relation, reserved up front), joins and own
/// terms are added while [`MEMO_BUDGET_BYTES`] has room, and encoded or
/// projected directly after that. A join is added only after its children,
/// so the memo is closed under subtrees, and what it holds is a pure
/// function of the scoring calls made through the context. A leaf's own
/// term is never entered: its node entry always is, so no later pass needs
/// it.
#[derive(Debug, Default)]
pub(crate) struct NodeMemo {
    /// Node id → entry index, [`ABSENT`], or `FRESH | row` inside a pass.
    slots: Vec<u32>,
    /// Node entry → `(block, row)`: row `row` of `blocks[block]`'s `h`, `c`
    /// and states.
    entries: Vec<(u32, u32)>,
    /// Own id → own entry index, [`ABSENT`], or `FRESH | row` inside a
    /// pass.
    own_slots: Vec<u32>,
    /// Own entry → `(block, row)` of the block's own terms.
    own_entries: Vec<(u32, u32)>,
    /// Every block an entry names, each once.
    blocks: Vec<Arc<Block>>,
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
        self.release();
        self.slots.clear();
        self.entries.clear();
        self.own_slots.clear();
        self.own_entries.clear();
        self.layout = Some(layout);
        self.leaf_room = leaves;
        self.encoded = 0;
    }

    fn width(&self) -> usize {
        self.layout.map_or(0, |l| l.width())
    }

    fn own_width(&self) -> usize {
        self.layout.map_or(0, |l| 4 * l.out)
    }

    /// Drop every block, handing each this memo held the last reference to
    /// back to the arenas' shared pool.
    fn release(&mut self) {
        let last = self.blocks.drain(..).filter_map(|b| Arc::try_unwrap(b).ok());
        ScratchArena::release(last.flat_map(Block::into_tensors));
    }

    /// Node entries held.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Bytes the memo keeps allocated for its entries: every block it holds
    /// a reference to, whole.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.bytes()).sum()
    }

    /// The blocks the entries name, each once.
    #[cfg(test)]
    pub(crate) fn blocks(&self) -> &[Arc<Block>] {
        &self.blocks
    }

    /// Node rows encoded since [`Self::init`], memoized or not.
    pub(crate) fn encoded(&self) -> usize {
        self.encoded
    }

    /// Bytes of the rows the entries name: what the budget counts.
    pub(crate) fn named_bytes(&self) -> usize {
        let floats = self.entries.len() * self.width() + self.own_entries.len() * self.own_width();
        floats * std::mem::size_of::<f32>()
    }

    /// Node entry `e`'s block and row.
    fn entry(&self, e: u32) -> (&Block, usize) {
        let (block, row) = self.entries[e as usize];
        (&self.blocks[block as usize], row as usize)
    }

    pub(crate) fn h(&self, e: u32) -> &[f32] {
        let (block, row) = self.entry(e);
        block.h.row_slice(row)
    }

    fn c(&self, e: u32) -> &[f32] {
        let (block, row) = self.entry(e);
        block.c.row_slice(row)
    }

    /// Own entry `e`'s own term.
    fn own(&self, e: u32) -> &[f32] {
        let (block, row) = self.own_entries[e as usize];
        let own = self.blocks[block as usize].own.as_ref().expect("a block with own terms");
        own.row_slice(row as usize)
    }

    /// Entry `e`'s attention state: the query's softmax over the subtree,
    /// every head's.
    pub(crate) fn state(&self, e: u32) -> &[f32] {
        let (block, row) = self.entry(e);
        block.states.as_ref().expect("attention merged the states").row_slice(row)
    }

    /// The index of `block` among the memo's blocks, added if new: a pass
    /// commits one block, so it is the last one or not yet held.
    fn hold(&mut self, block: &Arc<Block>) -> u32 {
        if !self.blocks.last().is_some_and(|b| Arc::ptr_eq(b, block)) {
            self.blocks.push(Arc::clone(block));
        }
        (self.blocks.len() - 1) as u32
    }

    fn slot(&mut self, id: u32) -> &mut u32 {
        grow(&mut self.slots, id)
    }

    fn own_slot(&mut self, own: u32) -> &mut u32 {
        grow(&mut self.own_slots, own)
    }

    /// Whether the budget admits one more entry of `floats` floats: a
    /// leaf's node entry always, anything else only if it leaves room for
    /// every leaf not yet stored.
    fn admit(&mut self, leaf: bool, floats: usize) -> bool {
        if leaf {
            self.leaf_room = self.leaf_room.saturating_sub(1);
            return true;
        }
        let reserved = (self.leaf_room * self.width() + floats) * std::mem::size_of::<f32>();
        self.named_bytes() + reserved <= MEMO_BUDGET_BYTES
    }
}

impl Drop for NodeMemo {
    fn drop(&mut self) {
        self.release();
    }
}

/// Slot `id` of `slots`, grown with [`ABSENT`] slots to reach it.
fn grow(slots: &mut Vec<u32>, id: u32) -> &mut u32 {
    let i = id as usize;
    if i >= slots.len() {
        slots.resize(i + 1, ABSENT);
    }
    &mut slots[i]
}

/// Where one plan node's encoder state, or its own term, lives during a
/// [`LevelPass`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum NodeRef {
    /// Entry `entry` of the memo of the node's own submission.
    Memo { sub: u32, entry: u32 },
    /// Row of the pass's freshly encoded states (or own terms).
    Fresh(u32),
}

/// A node the pass encodes: `level` is 0 when no child is fresh, else one
/// more than its highest fresh child; `own` is where its own term lives.
struct FreshRow<'a> {
    node: &'a FeatNode,
    sub: u32,
    kids: [NodeRef; 2],
    own: NodeRef,
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
    /// Per entry of `rows`: its child count, and the mean's scale.
    lens: Vec<usize>,
    inv: Vec<f32>,
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
        let lens: Vec<usize> =
            rows.iter().map(|&r| fresh[r as usize].node.children().len()).collect();
        let inv = lens.iter().map(|&n| 1.0 / n.max(1) as f32).collect();
        Self { rows, starts, pos, lens, inv }
    }

    fn levels(&self) -> usize {
        self.starts.len() - 1
    }

    /// Level `l`'s entries of `rows`.
    fn span(&self, l: usize) -> std::ops::Range<usize> {
        self.starts[l]..self.starts[l + 1]
    }

    /// Level `l`'s fresh rows, in pass order; never empty.
    fn level(&self, l: usize) -> &[u32] {
        &self.rows[self.span(l)]
    }
}

/// One scoring call's plan-encoder work, across every submission in it:
/// which nodes need encoding (each distinct id once per submission), which
/// own terms need projecting (each own id once per submission) and, per
/// candidate, where its root's state will be read from. Training builds
/// one over a tape group, with an empty memo per sample.
#[derive(Default)]
pub(crate) struct LevelPass<'a> {
    fresh: Vec<FreshRow<'a>>,
    /// The nodes whose own term the pass projects, with their submission:
    /// the first fresh node of each own id no memo holds, in pass order.
    owns: Vec<(&'a FeatNode, u32)>,
    /// The nodes each candidate's walk reached, in postorder, candidates
    /// back to back: its fresh nodes no earlier candidate of the pass
    /// reached, and the memoized or earlier fresh subtrees it stopped at.
    /// Over empty memos (the tape's) that is every node of the plan.
    refs: Vec<NodeRef>,
    /// `refs[spans[c]]` are candidate `c`'s; the last is its root.
    spans: Vec<std::ops::Range<usize>>,
    /// Every candidate's plan.
    plans: Vec<&'a FeatNode>,
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

    /// Candidates added.
    pub(crate) fn len(&self) -> usize {
        self.plans.len()
    }

    /// Where candidate `c`'s root state lives.
    pub(crate) fn root(&self, c: usize) -> NodeRef {
        self.refs[self.spans[c].end - 1]
    }

    /// Every candidate's plan, in order.
    pub(crate) fn plans(&self) -> &[&'a FeatNode] {
        &self.plans
    }

    /// Each fresh row's submission, in [`PlanEncoder::forward`]'s row
    /// order.
    pub(crate) fn subs(&self) -> impl Iterator<Item = u32> + '_ {
        self.order().rows.iter().map(|&r| self.fresh[r as usize].sub)
    }

    /// Every fresh row's children, in [`PlanEncoder::forward`]'s row order,
    /// as kids of a merge over those rows — a fresh child its row there, a
    /// memoized one its state in `memos` — and each row's child count.
    pub(crate) fn kids<'m>(&self, memos: &'m [&mut NodeMemo]) -> (Vec<Kid<'m>>, &[usize]) {
        let order = self.order();
        let kids = order.rows.iter().flat_map(|&r| {
            let FreshRow { node, kids, .. } = &self.fresh[r as usize];
            kids[..node.children().len()].iter().map(|kid| match *kid {
                NodeRef::Memo { sub, entry } => Kid::Const(memos[sub as usize].state(entry)),
                NodeRef::Fresh(k) => Kid::Row(self.pos(k)),
            })
        });
        (kids.collect(), &order.lens)
    }

    /// Add one candidate plan of submission `sub`, whose memo is `memo`.
    /// Marks the nodes it encodes and the own terms it projects in the memo
    /// until [`Self::commit`].
    pub(crate) fn add(&mut self, sub: usize, plan: &'a FeatNode, memo: &mut NodeMemo) {
        self.order.take();
        let start = self.refs.len();
        self.visit(sub as u32, plan, memo);
        self.spans.push(start..self.refs.len());
        self.plans.push(plan);
    }

    /// Walk `node`'s subtree, stopping at a node the memo holds or the
    /// pass already encodes: the memo is closed under subtrees, and a fresh
    /// node's children were walked when it was marked.
    fn visit(
        &mut self,
        sub: u32,
        node: &'a FeatNode,
        memo: &mut NodeMemo,
    ) -> (NodeRef, Option<u32>) {
        let slot = *memo.slot(node.id);
        let found = if slot == ABSENT {
            let mut kids = [NodeRef::Fresh(0); 2];
            let mut level = 0;
            for (k, child) in node.children().iter().enumerate() {
                let (kid, kid_level) = self.visit(sub, child, memo);
                kids[k] = kid;
                if let Some(l) = kid_level {
                    level = level.max(l + 1);
                }
            }
            let row = self.fresh.len() as u32;
            *memo.slot(node.id) = FRESH | row;
            let own = match *memo.own_slot(node.own) {
                ABSENT => {
                    let k = self.owns.len() as u32;
                    *memo.own_slot(node.own) = FRESH | k;
                    self.owns.push((node, sub));
                    NodeRef::Fresh(k)
                }
                s if s & FRESH != 0 => NodeRef::Fresh(s & !FRESH),
                entry => NodeRef::Memo { sub, entry },
            };
            self.fresh.push(FreshRow { node, sub, kids, own, level });
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

    /// Enter the fresh rows into their memos, in pass order, as far as
    /// each budget admits, then the joins' new own terms, in pass order;
    /// clear every `FRESH` mark. An entry names its row of `block`, the
    /// pass's outputs ([`Block`]), which each memo that admits a row keeps:
    /// nothing is copied.
    pub(crate) fn commit(&self, memos: &mut [&mut NodeMemo], block: &Arc<Block>) {
        for (row, FreshRow { node, sub, .. }) in self.fresh.iter().enumerate() {
            let memo = &mut *memos[*sub as usize];
            memo.encoded += 1;
            let slot = if memo.admit(node.is_leaf(), memo.width()) {
                let at = memo.hold(block);
                memo.entries.push((at, self.pos(row as u32) as u32));
                (memo.entries.len() - 1) as u32
            } else {
                ABSENT
            };
            *memo.slot(node.id) = slot;
        }
        for (k, &(node, sub)) in self.owns.iter().enumerate() {
            let memo = &mut *memos[sub as usize];
            let join = !node.is_leaf();
            let slot = if join && memo.admit(false, memo.own_width()) {
                let at = memo.hold(block);
                memo.own_entries.push((at, k as u32));
                (memo.own_entries.len() - 1) as u32
            } else {
                ABSENT
            };
            *memo.own_slot(node.own) = slot;
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
        let nodes = penc.forward(g, &pass, &[]).0.h;
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

    /// One scoring pass over `plans`, each `(submission, plan)` of the setup
    /// query, through `memos` (one per submission), as `QPSeeker::score`
    /// runs it: the forward, then its outputs committed as one block.
    /// Returns every node's `[h | c]` bits per plan in postorder — read from
    /// its memo when the memo holds the node after the commit, else from
    /// the block's fresh row — the block, and the rows this pass encoded
    /// and the own terms it projected.
    #[allow(clippy::type_complexity)] // rows per plan per node, and counts
    fn encode(
        penc: &PlanEncoder,
        store: &ParamStore,
        plans: &[(usize, &FeatNode)],
        memos: &mut [&mut NodeMemo],
        sc: &mut ScratchArena,
    ) -> (Vec<Vec<Vec<u32>>>, Arc<Block>, usize, usize) {
        let mut pass = LevelPass::default();
        for &(sub, plan) in plans {
            pass.add(sub, plan, memos[sub]);
        }
        // The block row of each node the pass encodes, read before the
        // commit clears the marks.
        let fresh_at: Vec<Vec<Option<usize>>> = plans
            .iter()
            .map(|&(sub, plan)| {
                let slot = |n: &FeatNode| memos[sub].slots[n.id as usize];
                let at = |n| (slot(n) & FRESH != 0 && slot(n) != ABSENT).then(|| slot(n) & !FRESH);
                postorder(plan).into_iter().map(|n| at(n).map(|r| pass.pos(r))).collect()
            })
            .collect();
        let e = &mut Scratch { store, arena: sc };
        let (fresh, own) = penc.forward(e, &pass, memos);
        let block = Arc::new(Block { h: fresh.h, c: fresh.c, states: None, own });
        pass.commit(memos, &block);
        let bits = |rows: [&[f32]; 2]| rows.concat().iter().map(|v| v.to_bits()).collect();
        let rows = plans.iter().zip(&fresh_at).map(|(&(sub, plan), at)| {
            let memo = &memos[sub];
            let node = |(n, at): (&FeatNode, &Option<usize>)| match memo.slots[n.id as usize] {
                ABSENT => {
                    let r = at.expect("a node its memo lacks is encoded by the pass");
                    bits([block.h.row_slice(r), block.c.row_slice(r)])
                }
                entry => bits([memo.h(entry), memo.c(entry)]),
            };
            postorder(plan).into_iter().zip(at).map(node).collect()
        });
        (rows.collect(), Arc::clone(&block), pass.fresh.len(), pass.owns.len())
    }

    /// `plans` as submission 0's.
    fn sub0<'a>(plans: &[&'a FeatNode]) -> Vec<(usize, &'a FeatNode)> {
        plans.iter().map(|&p| (0, p)).collect()
    }

    /// Fill `memo`'s budget with entries nothing reads, up to room for
    /// `joins` more join entries past the leaves' reservation.
    fn spend_budget(memo: &mut NodeMemo, joins: usize) {
        let w = memo.width();
        let room = MEMO_BUDGET_BYTES / 4 - memo.leaf_room * w;
        memo.entries.resize(room / w - joins, (u32::MAX, u32::MAX));
    }

    /// `plan`'s nodes in postorder.
    fn postorder(plan: &FeatNode) -> Vec<&FeatNode> {
        let mut nodes: Vec<&FeatNode> = plan.children().iter().flat_map(|c| postorder(c)).collect();
        nodes.push(plan);
        nodes
    }

    /// The node ids and own ids a pass over `plans` encodes and projects,
    /// by a walk that descends every node: a node no memo entry holds is
    /// fresh the first time the walk reaches it, in postorder, and so is an
    /// own id no entry holds the first time a fresh node carries it.
    fn full_walk(plans: &[&FeatNode], memo: &NodeMemo) -> (Vec<u32>, Vec<u32>) {
        let held = |slots: &[u32], id: u32| slots.get(id as usize).is_some_and(|&s| s != ABSENT);
        let (mut fresh, mut owns) = (Vec::new(), Vec::new());
        for node in plans.iter().flat_map(|p| postorder(p)) {
            if !held(&memo.slots, node.id) && !fresh.contains(&node.id) {
                fresh.push(node.id);
                if !held(&memo.own_slots, node.own) && !owns.contains(&node.own) {
                    owns.push(node.own);
                }
            }
        }
        (fresh, owns)
    }

    /// The walk stops at memo hits and at nodes its pass already encodes,
    /// and still finds what a walk over every node finds: the same fresh
    /// rows and own terms in the same order, so the same rows encoded — on
    /// a cold memo, a warm one, one whose budget admits only leaves (so
    /// later passes re-encode joins over memoized leaves), one whose budget
    /// runs out in the first pass, and over two submissions' memos in one
    /// pass (the broker's fused shape), each walked as its own. A candidate
    /// whose root the memo holds reaches that root alone.
    #[test]
    fn the_walk_stops_at_memo_hits_and_finds_what_a_full_walk_finds() {
        let (db, q, _) = setup();
        let cfg = ModelConfig::small();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let penc = PlanEncoder::new(&mut store, &mut init, &cfg, db.catalog.num_tables());
        let feats = left_deep(
            &db,
            &q,
            &[
                ("title", "movie_info", "movie_keyword", JoinOp::HashJoin),
                ("title", "movie_info", "movie_keyword", JoinOp::NestedLoopJoin),
                ("movie_keyword", "title", "movie_info", JoinOp::MergeJoin),
                ("movie_info", "movie_keyword", "title", JoinOp::HashJoin),
                ("movie_info", "title", "movie_keyword", JoinOp::HashJoin),
            ],
        );
        let refs: Vec<&FeatNode> = feats.iter().collect();
        let mut sc = ScratchArena::new();
        // One pass of `batches` (submission, plans), each submission's
        // plans after the last's: the walk's fresh rows and own terms are
        // each submission's full walk over its own memo, back to back.
        let mut walk = |batches: &[(usize, &[&FeatNode])], memos: &mut [&mut NodeMemo]| {
            let (mut want_fresh, mut want_owns) = (Vec::new(), Vec::new());
            let mut pass = LevelPass::default();
            for &(sub, plans) in batches {
                let (fresh, owns) = full_walk(plans, memos[sub]);
                want_fresh.extend(fresh);
                want_owns.extend(owns);
                plans.iter().for_each(|plan| pass.add(sub, plan, memos[sub]));
            }
            let fresh: Vec<u32> = pass.fresh.iter().map(|r| r.node.id).collect();
            let owns: Vec<u32> = pass.owns.iter().map(|(n, _)| n.own).collect();
            assert_eq!((fresh, owns), (want_fresh, want_owns));
            let before: Vec<usize> = memos.iter().map(|m| m.encoded()).collect();
            let e = &mut Scratch { store: &store, arena: &mut sc };
            let (states, own) = penc.forward(e, &pass, memos);
            pass.commit(memos, &Arc::new(Block { h: states.h, c: states.c, states: None, own }));
            for (sub, memo) in memos.iter().enumerate() {
                let rows = pass.fresh.iter().filter(|r| r.sub as usize == sub).count();
                assert_eq!(memo.encoded(), before[sub] + rows);
            }
            (pass.fresh.is_empty(), pass.spans.iter().all(|s| s.len() == 1))
        };
        for joins in [None, Some(0), Some(2)] {
            let mut memo = fresh_memo(&cfg, &q);
            if let Some(joins) = joins {
                spend_budget(&mut memo, joins);
            }
            for batch in [&refs[..2], &refs[2..], &refs[..]] {
                let (nothing_fresh, roots_alone) = walk(&[(0, batch)], &mut [&mut memo]);
                if joins.is_none() && batch.len() == refs.len() {
                    assert!(nothing_fresh, "a warm memo holds every subtree");
                    assert!(roots_alone, "a held root is read alone");
                }
            }
        }
        let (mut a, mut b) = (fresh_memo(&cfg, &q), fresh_memo(&cfg, &q));
        for (x, y) in [(&refs[..3], &refs[1..]), (&refs[..], &refs[..])] {
            walk(&[(0, x), (1, y)], &mut [&mut a, &mut b]);
        }
        let distinct = full_walk(&refs, &fresh_memo(&cfg, &q)).0.len();
        assert_eq!((a.encoded(), b.encoded()), (distinct, distinct), "each memo its own subtrees");
    }

    /// Left-deep candidates of the setup query — `(a ⋈ b) ⋈op c`, the inner
    /// join a hash join — featurized through one cache.
    fn left_deep(
        db: &std::sync::Arc<qpseeker_storage::Database>,
        q: &Query,
        shapes: &[(&str, &str, &str, JoinOp)],
    ) -> Vec<FeatNode> {
        let norm = TargetNormalizer::fit(&[[1.0, 1.0, 1.0], [100.0, 50.0, 10.0]]);
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let scan = |t| PlanNode::scan(q, t, ScanOp::SeqScan);
        let plans: Vec<PlanNode> = shapes
            .iter()
            .map(|&(a, b, c, op)| {
                PlanNode::join(
                    q,
                    op,
                    PlanNode::join(q, JoinOp::HashJoin, scan(a), scan(b)),
                    scan(c),
                )
            })
            .chain([scan("movie_info")])
            .collect();
        let plan_refs: Vec<&PlanNode> = plans.iter().collect();
        let mut cache = crate::featurize::PlanFeatCache::new(q);
        let mut feats = Vec::new();
        let mut sess = crate::featurize::FeatSession::new();
        f.featurize_batch_into(&mut sess, q, &plan_refs, &norm, &mut cache, &mut feats);
        feats
    }

    fn fresh_memo(cfg: &ModelConfig, q: &Query) -> NodeMemo {
        let layout = EntryLayout { out: cfg.plan_node_out, heads: 0, head_dim: 0 };
        let mut memo = NodeMemo::default();
        memo.init(layout, 3 * q.relations.len());
        memo
    }

    /// K plans in one pass ≡ K one-plan passes ≡ any partition into passes
    /// ≡ a warm memo ≡ one pass over two submissions' memos (the broker's
    /// fused shape) ≡ a memo whose budget runs out mid-pass, own terms
    /// included, node for node, bit for bit, every row read where the pass
    /// left it (the block, or a memo naming its row of a block) — with
    /// plans of different heights sharing levels.
    #[test]
    fn plan_encoding_rows_bitwise_equal_under_any_partition() {
        let (db, q, _) = setup();
        let cfg = ModelConfig::small();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let penc = PlanEncoder::new(&mut store, &mut init, &cfg, db.catalog.num_tables());
        // Left-deep candidates sharing prefixes and root own terms, plus a
        // lone scan (the last plan).
        let feats = left_deep(
            &db,
            &q,
            &[
                ("title", "movie_info", "movie_keyword", JoinOp::HashJoin),
                ("title", "movie_info", "movie_keyword", JoinOp::NestedLoopJoin),
                ("movie_keyword", "title", "movie_info", JoinOp::MergeJoin),
                ("movie_info", "movie_keyword", "title", JoinOp::HashJoin),
            ],
        );
        let refs: Vec<&FeatNode> = feats.iter().collect();
        let mut sc = ScratchArena::new();
        let mut run = |plans: &[(usize, &FeatNode)], memos: &mut [&mut NodeMemo]| {
            encode(&penc, &store, plans, memos, &mut sc)
        };
        let (whole, _, encoded, projected) = run(&sub0(&refs), &mut [&mut fresh_memo(&cfg, &q)]);
        // Three leaves, and the joins (t⋈mi), its two parents, (mk⋈t) and
        // its parent, (mi⋈mk) and its parent: 20 nodes, 10 distinct
        // subtrees, 9 distinct (alias set, operator) own terms — the first
        // and the last join plan's roots share one.
        assert_eq!((encoded, projected), (10, 9), "each subtree and own term is done once");
        assert_eq!(whole.iter().map(Vec::len).collect::<Vec<_>>(), [5, 5, 5, 5, 1]);
        // Partitions {0},{1},{2},{3},{4} on fresh memos, and {0,1},{2,3,4}
        // then all five again on one warm memo: the second pass reads the
        // first's root own term for plan 3's root.
        for p in 0..refs.len() {
            let (one, ..) = run(&sub0(&refs[p..p + 1]), &mut [&mut fresh_memo(&cfg, &q)]);
            assert_eq!(one[0], whole[p], "plan {p}: encoding depends on batch composition");
        }
        let mut warm = fresh_memo(&cfg, &q);
        let (a, ..) = run(&sub0(&refs[..2]), &mut [&mut warm]);
        let (b, _, encoded, projected) = run(&sub0(&refs[2..]), &mut [&mut warm]);
        assert_eq!((encoded, projected), (4, 3), "the warm pass projects only new own ids");
        assert_eq!([a, b].concat(), whole, "a memo hit differs from encoding the node");
        let (again, _, encoded, projected) = run(&sub0(&refs), &mut [&mut warm]);
        assert_eq!(
            (again, encoded, projected),
            (whole.clone(), 0, 0),
            "a warm memo encodes nothing"
        );
        assert_eq!(warm.encoded(), 10);
        assert_eq!(warm.blocks.len(), 2, "a pass that admits nothing leaves no block");

        // One pass over two submissions' memos, their plans overlapping,
        // so each memo encodes its own copy of the shared subtrees: both
        // keep the pass's one block, and count it whole.
        let (mut a, mut b) = (fresh_memo(&cfg, &q), fresh_memo(&cfg, &q));
        let fused: Vec<(usize, &FeatNode)> =
            refs[..3].iter().map(|&p| (0, p)).chain(refs[1..].iter().map(|&p| (1, p))).collect();
        let want: Vec<_> = (0..3).chain(1..5).map(|p| whole[p].clone()).collect();
        let (rows, block, encoded, _) = run(&fused, &mut [&mut a, &mut b]);
        assert_eq!(rows, want, "a fused pass differs from each plan alone");
        assert_eq!(encoded, 8 + 9, "each submission encodes its own subtrees");
        assert_eq!(Arc::strong_count(&block), 3, "both memos hold the pass's block");
        assert!(a.blocks.len() == 1 && Arc::ptr_eq(&a.blocks[0], &b.blocks[0]));
        assert_eq!((a.bytes(), b.bytes()), (block.bytes(), block.bytes()));
        let floats = block.h.len() + block.c.len() + block.own.as_ref().map_or(0, Tensor::len);
        assert!(block.bytes() >= 4 * floats, "a block counts every row it holds");
        drop(block);
        let (again, block, encoded, _) = run(&fused, &mut [&mut a, &mut b]);
        assert_eq!((again, encoded), (want, 0), "the memos read back differ from the pass");
        assert_eq!(Arc::strong_count(&block), 1, "a pass that admits nothing is not kept");

        // A budget that runs out mid-pass: past the leaves' reservation it
        // has room for two joins, the pass's first two (t⋈mi and plan 0's
        // root), and no own term; the next pass encodes the other five
        // joins again, over memoized children.
        let mut tight = fresh_memo(&cfg, &q);
        spend_budget(&mut tight, 2);
        let spent = tight.len();
        let (rows, block, encoded, _) = run(&sub0(&refs), &mut [&mut tight]);
        assert_eq!(rows, whole, "rows past the budget differ from a cold pass");
        assert_eq!((encoded, tight.len() - spent), (10, 3 + 2), "three leaves, two joins");
        assert!(tight.own_entries.is_empty(), "an own term is wider than the room left");
        assert_eq!(tight.bytes(), block.bytes(), "the block is kept whole");
        let (rows, _, encoded, projected) = run(&sub0(&refs), &mut [&mut tight]);
        assert_eq!(rows, whole, "re-encoded rows differ from a cold pass");
        assert_eq!((encoded, projected), (5, 5), "the joins the budget left out, again");
        assert_eq!(tight.len() - spent, 5, "nothing more is admitted");
    }

    /// Two joins with an equal (alias set, operator) and different children
    /// share one own term: one pass projects exactly its new distinct own
    /// ids, and both roots read the same projected row.
    #[test]
    fn joins_of_one_alias_set_and_operator_share_one_own_term() {
        let (db, q, _) = setup();
        let cfg = ModelConfig::small();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let penc = PlanEncoder::new(&mut store, &mut init, &cfg, db.catalog.num_tables());
        let feats = left_deep(
            &db,
            &q,
            &[
                ("title", "movie_info", "movie_keyword", JoinOp::HashJoin),
                ("movie_info", "movie_keyword", "title", JoinOp::HashJoin),
            ],
        );
        let (a, b) = (&feats[0], &feats[1]);
        assert_ne!(a.id, b.id);
        assert_eq!(a.own, b.own, "equal alias set and operator, one own id");
        assert_ne!(a.children()[0].own, b.children()[0].own);
        let mut memo = fresh_memo(&cfg, &q);
        let mut pass = LevelPass::default();
        pass.add(0, a, &mut memo);
        pass.add(0, b, &mut memo);
        // Leaves t, mi, mk; inner joins {t,mi} and {mi,mk}; one root term.
        assert_eq!((pass.fresh.len(), pass.owns.len()), (7, 6));
        let root_own = |c: usize| {
            let NodeRef::Fresh(row) = pass.refs[pass.spans[c].end - 1] else { panic!("fresh") };
            match pass.fresh[row as usize].own {
                NodeRef::Fresh(k) => k,
                NodeRef::Memo { .. } => panic!("an empty memo holds no own term"),
            }
        };
        assert_eq!(root_own(0), root_own(1));
        let mut sc = ScratchArena::new();
        let e = &mut Scratch { store: &store, arena: &mut sc };
        let mut memos = [&mut memo];
        let (fresh, own) = penc.forward(e, &pass, &memos);
        let block = Arc::new(Block { h: fresh.h, c: fresh.c, states: None, own });
        pass.commit(&mut memos, &block);
        // The joins' three own terms are memoized, the leaves' are not: the
        // entries name 7 node rows and 3 own rows of the one block.
        assert_eq!(memo.own_entries.len(), 3);
        assert_eq!(memo.named_bytes(), 4 * (7 * memo.width() + 3 * memo.own_width()));
        assert_eq!(block.own.as_ref().map(Tensor::rows), Some(6));
        assert_eq!(memo.bytes(), block.bytes());
    }

    /// Joins and own terms stop entering the memo when its budget is full,
    /// leaves never do, and an entry is never evicted.
    #[test]
    fn memo_admits_joins_within_budget_and_leaves_always() {
        let layout = EntryLayout { out: 4, heads: 0, head_dim: 0 };
        let cap = MEMO_BUDGET_BYTES / (8 * 4);
        let mut memo = NodeMemo::default();
        memo.init(layout, 2);
        for _ in 0..cap - 4 {
            assert!(memo.admit(false, 8));
            memo.entries.push((0, 0));
        }
        // An own term is 16 floats here: two node entries' room.
        assert!(memo.admit(false, 16));
        memo.own_entries.push((0, 0));
        assert!(!memo.admit(false, 8), "the last two entries are reserved for leaves");
        for _ in 0..3 {
            assert!(memo.admit(true, 8), "a leaf is always admitted");
            memo.entries.push((0, 0));
        }
        assert!(!memo.admit(false, 8));
        assert_eq!(memo.len(), cap - 1, "a third leaf goes past the reservation");
        assert_eq!(memo.named_bytes(), MEMO_BUDGET_BYTES + 8 * 4);
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
