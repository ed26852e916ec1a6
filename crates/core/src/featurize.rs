//! QEP featurization: turning (query, plan, database) into the constant
//! tensors the encoders consume.
//!
//! Everything that does not depend on model weights is computed once per QEP
//! here — MSCN-style set matrices for the query encoder (§4.1), and per-node
//! constant input segments for the plan encoder (§4.2): relation one-hot
//! sums, TaBERT representations, operator one-hots, and (for leaves) the
//! EXPLAIN estimates.

use crate::normalize::TargetNormalizer;
use qpseeker_engine::explain::Explain;
use qpseeker_engine::plan::{PhysicalOp, PlanNode};
use qpseeker_engine::query::{CmpOp, Filter, Query};
use qpseeker_nn::tensor::Tensor;
use qpseeker_storage::fnv::{self, FnvBuild};
use qpseeker_storage::Database;
use qpseeker_tabert::{TabSim, TabertCache};
use std::collections::HashMap;
use std::sync::Arc;

/// Scale applied to normalized (z-scored) estimate values wherever they
/// travel through plan-node vectors. Node outputs are LSTM hidden states,
/// bounded to (-1, 1) by tanh; z-scores span roughly ±4, so estimates are
/// carried as `z * ESTIMATE_SCALE` to stay representable, and read back with
/// the inverse factor.
pub(crate) const ESTIMATE_SCALE: f32 = 0.2;

/// MSCN-style set features of a query.
#[derive(Debug, Clone)]
pub(crate) struct QueryFeatures {
    /// `[N, N]` matrix: first `|T_q|` rows are relation one-hots, rest zero.
    pub rel_matrix: Tensor,
    /// `[N, 1]` mask of valid rows.
    pub rel_mask: Tensor,
    /// `[M, M]` matrix of join one-hots.
    pub join_matrix: Tensor,
    /// `[M, 1]` mask of valid rows.
    pub join_mask: Tensor,
}

/// Featurized plan node (tree mirrors the physical plan).
#[derive(Debug, Clone)]
pub struct FeatNode {
    /// Constant middle segment `[1, N + tabert_dim + 6]`:
    /// relation one-hot sum ‖ TaBERT representation ‖ operator one-hot.
    pub mid: Tensor,
    /// For leaves: normalized EXPLAIN estimates `[1, 3]`.
    pub leaf_est: Option<Tensor>,
    /// Normalized ground-truth (card, cost, time) of this node, when known
    /// (training QEPs); drives the auxiliary per-node loss.
    pub truth: Option<[f32; 3]>,
    /// The subtree's node id in its query's [`PlanFeatCache`]: equal ids
    /// are equal subtrees, so their encodings are too. `None` off the
    /// cached path (training, queries over 64 relations).
    pub id: Option<u32>,
    /// Shared, so the cached path hands every plan containing a subtree the
    /// one node it built for it.
    pub children: Vec<Arc<FeatNode>>,
}

impl FeatNode {
    pub(crate) fn count(&self) -> usize {
        1 + self.children.iter().map(|c| c.count()).sum::<usize>()
    }
}

/// A fully featurized QEP ready for the encoders.
#[derive(Debug, Clone)]
pub(crate) struct FeaturizedQep {
    pub query: QueryFeatures,
    pub plan: FeatNode,
    /// Normalized root targets (training only).
    pub target: Option<[f32; 3]>,
}

/// Per-query featurization cache for the search hot loop: it hash-conses
/// while it featurizes.
///
/// Candidate plans of one query share almost all their subtrees, and a
/// subtree's features are a function of few things: a leaf's of `(alias,
/// scan op)` — scan estimates are context-independent — and a join's of
/// `(join op, left subtree, right subtree)`. So every distinct subtree gets
/// a dense node id ([`FeatNode::id`]) under exactly that key, is featurized
/// once, and is shared by every later plan containing it: featurizing a
/// plan whose subtrees are all known costs one id lookup per node. The
/// scoring path keys its memo of encoded subtrees by the same ids. The
/// `[rel one-hot sum ‖ TaBERT repr]` prefix of a node depends only on the
/// *set* of aliases under it and is memoized too, keyed by a `u64` alias
/// bitmask (bit = index of the alias in `query.relations`).
///
/// Only exact for queries with at most 64 relations, and for plans whose
/// every scan is a relation of the query; the model's scoring path falls
/// back to the general, uncached featurizer otherwise.
pub struct PlanFeatCache {
    sql: String,
    /// alias → bit index, in `query.relations` order.
    alias_bits: HashMap<String, u32, FnvBuild>,
    /// bit index → (alias, table) (for mask iteration).
    aliases: Vec<(String, String)>,
    /// subtree alias-bitmask → `[rel one-hot sum ‖ TaBERT repr]` prefix.
    mid_prefix: HashMap<u64, Vec<f32>, FnvBuild>,
    /// bit index → the table's TaBERT `[CLS]`, pooled into join prefixes.
    cls: Vec<Option<Vec<f32>>>,
    /// `(op one-hot index, alias bit | left id, 0 | right id)` → node id.
    /// Scan and join one-hot indices are disjoint, so leaves and joins
    /// never collide.
    ids: HashMap<(usize, u32, u32), u32, FnvBuild>,
    /// Node id → its featurized subtree.
    nodes: Vec<Arc<FeatNode>>,
}

impl PlanFeatCache {
    pub fn new(query: &Query) -> Self {
        let mut alias_bits = HashMap::default();
        let mut aliases = Vec::with_capacity(query.relations.len());
        for (i, rel) in query.relations.iter().enumerate() {
            alias_bits.insert(rel.alias.clone(), i as u32);
            aliases.push((rel.alias.clone(), rel.table.clone()));
        }
        Self {
            sql: query.to_sql(),
            alias_bits,
            aliases,
            mid_prefix: HashMap::default(),
            cls: vec![None; query.relations.len()],
            ids: HashMap::default(),
            nodes: Vec::new(),
        }
    }

    /// Whether the bitmask representation is exact for `query`.
    pub(crate) fn supports(query: &Query) -> bool {
        query.relations.len() <= 64
    }

    /// Whether every scan of `plan` reads a relation of this cache's query
    /// under its own alias. A foreign leaf would otherwise alias a cached
    /// relation's features (and node id).
    pub(crate) fn binds(&self, plan: &PlanNode) -> bool {
        match plan {
            PlanNode::Scan { alias, table, .. } => self
                .alias_bits
                .get(alias)
                .is_some_and(|&bit| self.aliases[bit as usize].1 == *table),
            PlanNode::Join { left, right, .. } => self.binds(left) && self.binds(right),
        }
    }

    /// The known subtree of `key`, if any.
    fn node(&self, key: (usize, u32, u32)) -> Option<Arc<FeatNode>> {
        self.ids.get(&key).map(|&id| Arc::clone(&self.nodes[id as usize]))
    }

    /// Number `node` as the subtree of `key` (ids in first-seen order).
    fn intern(&mut self, key: (usize, u32, u32), mut node: FeatNode) -> Arc<FeatNode> {
        let id = self.nodes.len() as u32;
        node.id = Some(id);
        self.ids.insert(key, id);
        self.nodes.push(Arc::new(node));
        Arc::clone(&self.nodes[id as usize])
    }
}

/// Per-session featurization state: the TaBERT encoding cache and the
/// filtered-column cache. Owned by exactly one thread at a time (a worker's
/// [`crate::session::PlannerSession`], or a local one a fit or evaluation
/// loop builds), so no locks are needed on the featurization hot path.
#[derive(Default)]
pub struct FeatSession {
    /// (table, query-bucket) → TaBERT encoding.
    pub tabert: TabertCache,
    /// Filtered-column representations keyed by `table.col:op:value`.
    filtered: HashMap<String, Vec<f32>, FnvBuild>,
}

impl FeatSession {
    pub fn new() -> Self {
        Self::default()
    }
}

/// The featurizer. Shares the read-only [`Database`] via `Arc` and owns the
/// immutable TabSim instance; all mutable caches live in a caller-owned
/// [`FeatSession`], so the featurizer itself is `Send + Sync` and a fitted
/// model can serve predictions from many threads at once.
pub struct Featurizer {
    pub db: Arc<Database>,
    pub tabert: TabSim,
}

impl Featurizer {
    pub fn new(db: Arc<Database>, tabert: TabSim) -> Self {
        Self { db, tabert }
    }

    /// The cost/cardinality estimator over the shared database. `Explain` is
    /// a thin borrow wrapper, so building one per call is free.
    fn explain(&self) -> Explain<'_> {
        Explain::new(&self.db)
    }

    /// Total simulated TaBERT time spent so far (Fig. 8 right).
    pub(crate) fn tabert_ms(&self) -> f64 {
        self.tabert.simulated_ms()
    }

    /// Build the MSCN set features of a query.
    pub(crate) fn query_features(&self, query: &Query) -> QueryFeatures {
        let n = self.db.catalog.num_tables().max(1);
        let m = self.db.catalog.num_joins().max(1);
        let mut rel_matrix = Tensor::zeros(n, n);
        let mut rel_mask = Tensor::zeros(n, 1);
        for (row, rel) in query.relations.iter().take(n).enumerate() {
            if let Some(idx) = self.db.catalog.table_idx(&rel.table) {
                rel_matrix.set(row, idx, 1.0);
                rel_mask.set(row, 0, 1.0);
            }
        }
        let mut join_matrix = Tensor::zeros(m, m);
        let mut join_mask = Tensor::zeros(m, 1);
        for (row, j) in query.joins.iter().take(m).enumerate() {
            let idx = self.join_one_hot(query, j);
            join_matrix.set(row, idx, 1.0);
            join_mask.set(row, 0, 1.0);
        }
        QueryFeatures { rel_matrix, rel_mask, join_matrix, join_mask }
    }

    /// One-hot id of a join predicate: the FK-edge index when the predicate
    /// is a schema edge, otherwise a stable hash bucket.
    fn join_one_hot(&self, query: &Query, j: &qpseeker_engine::query::JoinPred) -> usize {
        let m = self.db.catalog.num_joins().max(1);
        let lt = query.table_of(&j.left.alias).unwrap_or(&j.left.alias);
        let rt = query.table_of(&j.right.alias).unwrap_or(&j.right.alias);
        match self.db.catalog.join_idx(lt, &j.left.column, rt, &j.right.column) {
            Some(i) => i,
            None => {
                let key = format!("{lt}.{}={rt}.{}", j.left.column, j.right.column);
                (fnv::bytes(key.as_bytes()) % m as u64) as usize
            }
        }
    }

    /// Featurize a full QEP. `truths` supplies the per-node ground truth in
    /// postorder (from execution) for training; pass `None` at inference.
    pub(crate) fn featurize(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plan: &PlanNode,
        truths: Option<&qpseeker_engine::executor::ExecutionResult>,
        norm: &TargetNormalizer,
    ) -> FeaturizedQep {
        if let Some(t) = truths {
            assert!(
                !t.timed_out && t.nodes.len() == plan.len(),
                "cannot featurize a timed-out execution (query {}): per-node \
                 ground truth is incomplete; filter such QEPs from the workload",
                query.id
            );
        }
        let query_feats = self.query_features(query);
        let estimates = self.explain().explain(query, plan);
        let sql = query.to_sql();
        let mut postorder_idx = 0usize;
        let plan_feats =
            self.feat_node(sess, query, plan, &estimates, truths, norm, &sql, &mut postorder_idx);
        let target = truths.map(|t| norm.encode([t.rows as f64, t.cost, t.time_ms]));
        FeaturizedQep { query: query_feats, plan: plan_feats, target }
    }

    #[allow(clippy::too_many_arguments)]
    fn feat_node(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        node: &PlanNode,
        estimates: &[qpseeker_engine::explain::NodeEstimate],
        truths: Option<&qpseeker_engine::executor::ExecutionResult>,
        norm: &TargetNormalizer,
        sql: &str,
        postorder_idx: &mut usize,
    ) -> FeatNode {
        // Children first (postorder indexing must match Explain/Executor).
        let children: Vec<Arc<FeatNode>> = match node {
            PlanNode::Scan { .. } => Vec::new(),
            PlanNode::Join { left, right, .. } => [left, right]
                .map(|c| {
                    let child =
                        self.feat_node(sess, query, c, estimates, truths, norm, sql, postorder_idx);
                    Arc::new(child)
                })
                .into(),
        };
        let my_idx = *postorder_idx;
        *postorder_idx += 1;

        let n_tables = self.db.catalog.num_tables().max(1);
        let tdim = self.tabert.dim();

        // (d) relation one-hot sum over the subtree.
        let mut rel_enc = vec![0.0f32; n_tables];
        for alias in node.aliases() {
            let table = query.table_of(&alias).unwrap_or(&alias);
            if let Some(idx) = self.db.catalog.table_idx(table) {
                rel_enc[idx] += 1.0;
            }
        }

        // (c) TaBERT representation.
        let data_repr: Vec<f32> = match node {
            PlanNode::Scan { alias, table, filters, .. } => {
                let _ = alias;
                match filters.first() {
                    Some(f) => self.filtered_column_repr(sess, table, f),
                    None => self.tabert.encode_table(&mut sess.tabert, &self.db, table, sql).cls,
                }
            }
            PlanNode::Join { .. } => {
                // Mean pooling over the [CLS] of each joined relation.
                let mut acc = vec![0.0f32; tdim];
                let aliases = node.aliases();
                for alias in &aliases {
                    let table = query.table_of(alias).unwrap_or(alias).to_string();
                    let cls = self.tabert.encode_table(&mut sess.tabert, &self.db, &table, sql).cls;
                    for (a, c) in acc.iter_mut().zip(&cls) {
                        *a += c / aliases.len() as f32;
                    }
                }
                acc
            }
        };

        // (b) operator one-hot.
        let mut op_one_hot = vec![0.0f32; PhysicalOp::COUNT];
        op_one_hot[node.physical_op().one_hot_index()] = 1.0;

        let mut mid = Vec::with_capacity(n_tables + tdim + PhysicalOp::COUNT);
        mid.extend_from_slice(&rel_enc);
        mid.extend_from_slice(&data_repr);
        mid.extend_from_slice(&op_one_hot);

        // (a) leaf estimates from EXPLAIN, normalized like the targets.
        let leaf_est = if children.is_empty() {
            let e = estimates[my_idx];
            let enc = norm.encode([e.rows, e.cost, e.time_ms]);
            Some(Tensor::row(enc.iter().map(|v| v * ESTIMATE_SCALE).collect()))
        } else {
            None
        };

        let truth = truths.map(|t| {
            let p = &t.nodes[my_idx];
            norm.encode([p.rows as f64, p.cost, p.time_ms])
        });

        FeatNode { mid: Tensor::row(mid), leaf_est, truth, id: None, children }
    }

    /// Representation of a filtered column (paper §4.2(c)): TabSim encoding
    /// of the column restricted to the rows matching the predicate. Cached
    /// per session.
    fn filtered_column_repr(&self, sess: &mut FeatSession, table: &str, f: &Filter) -> Vec<f32> {
        let key = format!("{table}.{}:{:?}:{}", f.col.column, f.op, f.value);
        if let Some(hit) = sess.filtered.get(&key) {
            return hit.clone();
        }
        let t = self.db.table(table).expect("table exists");
        let col = &t.col(&f.col.column).data;
        let matching: Vec<u32> = (0..t.n_rows() as u32)
            .filter(|&i| eval_filter(f.op, col.num(i as usize), f.value))
            .collect();
        let repr =
            self.tabert.encode_column_filtered(&self.db, table, &f.col.column, &matching).vector;
        sess.filtered.insert(key, repr.clone());
        repr
    }

    /// Featurize a batch of candidate plans of one query into `out`
    /// (cleared first), sharing the [`PlanFeatCache`] across all of them and
    /// every earlier batch of the same query: each subtree and `[rel ‖
    /// TaBERT]` prefix is featurized once. A plan whose subtrees are all
    /// known costs one id lookup per node and a shallow copy of its root.
    /// The trees are numerically identical to the general featurizer's
    /// (with no truth labels — this is an inference-only path), plus node
    /// ids, and a plan's tree does not depend on what it is batched with,
    /// so batched scoring stays bitwise equal to scalar scoring.
    ///
    /// # Panics
    /// When a scan's alias is not a relation of `query`; the model's
    /// scoring path sends such plans through the general featurizer.
    pub fn featurize_batch_into(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plans: &[&PlanNode],
        norm: &TargetNormalizer,
        cache: &mut PlanFeatCache,
        out: &mut Vec<FeatNode>,
    ) {
        out.clear();
        out.reserve(plans.len());
        debug_assert!(PlanFeatCache::supports(query), "fall back to featurize() beyond 64 rels");
        for plan in plans {
            out.push(FeatNode::clone(&self.fast_node(sess, query, plan, norm, cache).0));
        }
    }

    fn fast_node(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        node: &PlanNode,
        norm: &TargetNormalizer,
        cache: &mut PlanFeatCache,
    ) -> (Arc<FeatNode>, u64) {
        let n_tables = self.db.catalog.num_tables().max(1);
        let op_idx = node.physical_op().one_hot_index();
        match node {
            PlanNode::Scan { alias, table, filters, .. } => {
                let bit = *cache.alias_bits.get(alias).unwrap_or_else(|| {
                    panic!("scan alias {alias:?} is not a relation of query {}", query.id)
                });
                let mask = 1u64 << bit;
                let key = (op_idx, bit, 0);
                if let Some(leaf) = cache.node(key) {
                    return (leaf, mask);
                }
                if !cache.mid_prefix.contains_key(&mask) {
                    let mut prefix = Vec::with_capacity(n_tables + self.tabert.dim());
                    prefix.resize(n_tables, 0.0);
                    if let Some(idx) = self.db.catalog.table_idx(table) {
                        prefix[idx] += 1.0;
                    }
                    let repr = match filters.first() {
                        Some(f) => self.filtered_column_repr(sess, table, f),
                        None => self.tabert.encode_table_cls(
                            &mut sess.tabert,
                            &self.db,
                            table,
                            &cache.sql,
                        ),
                    };
                    prefix.extend_from_slice(&repr);
                    cache.mid_prefix.insert(mask, prefix);
                }
                // Scan estimates are context-independent, so the single-node
                // plan yields the same NodeEstimate the full-plan EXPLAIN
                // would.
                let e = self.explain().explain(query, node)[0];
                let enc = norm.encode([e.rows, e.cost, e.time_ms]);
                let est = Tensor::row(enc.iter().map(|v| v * ESTIMATE_SCALE).collect());
                let mid = self.finish_mid(&cache.mid_prefix[&mask], op_idx);
                let leaf =
                    FeatNode { mid, leaf_est: Some(est), truth: None, id: None, children: vec![] };
                (cache.intern(key, leaf), mask)
            }
            PlanNode::Join { left, right, .. } => {
                let (lf, lm) = self.fast_node(sess, query, left, norm, cache);
                let (rf, rm) = self.fast_node(sess, query, right, norm, cache);
                let mask = lm | rm;
                let id = |n: &FeatNode| n.id.expect("cached subtrees carry ids");
                let key = (op_idx, id(&lf), id(&rf));
                if let Some(join) = cache.node(key) {
                    return (join, mask);
                }
                if !cache.mid_prefix.contains_key(&mask) {
                    // Aliases in sorted order, matching PlanNode::aliases()'
                    // BTreeSet iteration so float accumulation is identical.
                    let mut bits: Vec<usize> =
                        (0..cache.aliases.len()).filter(|&b| mask >> b & 1 == 1).collect();
                    bits.sort_unstable_by(|&a, &b| cache.aliases[a].0.cmp(&cache.aliases[b].0));
                    let mut prefix = Vec::with_capacity(n_tables + self.tabert.dim());
                    prefix.resize(n_tables, 0.0);
                    let mut acc = vec![0.0f32; self.tabert.dim()];
                    for &b in &bits {
                        let table = &cache.aliases[b].1;
                        if let Some(idx) = self.db.catalog.table_idx(table) {
                            prefix[idx] += 1.0;
                        }
                        let cls = cache.cls[b].get_or_insert_with(|| {
                            self.tabert.encode_table_cls(
                                &mut sess.tabert,
                                &self.db,
                                table,
                                &cache.sql,
                            )
                        });
                        for (a, c) in acc.iter_mut().zip(cls.iter()) {
                            *a += c / bits.len() as f32;
                        }
                    }
                    prefix.extend_from_slice(&acc);
                    cache.mid_prefix.insert(mask, prefix);
                }
                let mid = self.finish_mid(&cache.mid_prefix[&mask], op_idx);
                let join =
                    FeatNode { mid, leaf_est: None, truth: None, id: None, children: vec![lf, rf] };
                (cache.intern(key, join), mask)
            }
        }
    }

    /// Append the operator one-hot to a cached `[rel ‖ TaBERT]` prefix.
    fn finish_mid(&self, prefix: &[f32], op_idx: usize) -> Tensor {
        let mut mid = Vec::with_capacity(prefix.len() + PhysicalOp::COUNT);
        mid.extend_from_slice(prefix);
        let start = mid.len();
        mid.resize(start + PhysicalOp::COUNT, 0.0);
        mid[start + op_idx] = 1.0;
        Tensor::row(mid)
    }
}

#[inline]
fn eval_filter(op: CmpOp, lhs: f64, rhs: f64) -> bool {
    op.eval(lhs, rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_engine::executor::Executor;
    use qpseeker_engine::plan::{JoinOp, ScanOp};
    use qpseeker_engine::query::{ColRef, JoinPred, RelRef};
    use qpseeker_storage::datagen::imdb;
    use qpseeker_tabert::TabertConfig;

    fn setup() -> (Arc<Database>, Query, PlanNode) {
        let db = Arc::new(imdb::generate(0.05, 4));
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("title"), RelRef::new("movie_info")];
        q.joins = vec![JoinPred {
            left: ColRef::new("movie_info", "movie_id"),
            right: ColRef::new("title", "id"),
        }];
        q.filters = vec![Filter {
            col: ColRef::new("title", "production_year"),
            op: CmpOp::Gt,
            value: 2000.0,
        }];
        let plan = PlanNode::join(
            &q,
            JoinOp::HashJoin,
            PlanNode::scan(&q, "title", ScanOp::SeqScan),
            PlanNode::scan(&q, "movie_info", ScanOp::SeqScan),
        );
        (db, q, plan)
    }

    fn norm() -> TargetNormalizer {
        TargetNormalizer::fit(&[[10.0, 5.0, 1.0], [1000.0, 80.0, 9.0], [50.0, 20.0, 3.0]])
    }

    #[test]
    fn query_features_shapes_and_masks() {
        let (db, q, _) = setup();
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let qf = f.query_features(&q);
        let n = db.catalog.num_tables();
        let m = db.catalog.num_joins();
        assert_eq!(qf.rel_matrix.shape(), (n, n));
        assert_eq!(qf.join_matrix.shape(), (m, m));
        assert_eq!(qf.rel_mask.sum(), 2.0); // two relations
        assert_eq!(qf.join_mask.sum(), 1.0); // one join
                                             // Each valid row is a one-hot.
        assert_eq!(qf.rel_matrix.row_slice(0).iter().sum::<f32>(), 1.0);
        assert_eq!(qf.rel_matrix.row_slice(1).iter().sum::<f32>(), 1.0);
        assert_eq!(qf.rel_matrix.row_slice(2).iter().sum::<f32>(), 0.0);
    }

    #[test]
    fn fk_join_gets_schema_one_hot() {
        let (db, q, _) = setup();
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let qf = f.query_features(&q);
        // movie_info.movie_id = title.id is FK edge 0 in the imdb catalog.
        let expected = db.catalog.join_idx("movie_info", "movie_id", "title", "id").unwrap();
        assert_eq!(qf.join_matrix.get(0, expected), 1.0);
    }

    #[test]
    fn featurized_plan_structure_mirrors_plan() {
        let (db, q, plan) = setup();
        let truth = Executor::new(&db).execute(&plan);
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let n = norm();
        let mut sess = FeatSession::new();
        let fq = f.featurize(&mut sess, &q, &plan, Some(&truth), &n);
        assert_eq!(fq.plan.count(), 3);
        assert_eq!(fq.plan.children.len(), 2);
        // Leaves carry EXPLAIN estimates; the join does not.
        assert!(fq.plan.children[0].leaf_est.is_some());
        assert!(fq.plan.children[1].leaf_est.is_some());
        assert!(fq.plan.leaf_est.is_none());
        // Every node carries normalized truth.
        assert!(fq.plan.truth.is_some());
        assert!(fq.target.is_some());
        // Mid width = N + tabert + 6.
        let expect = db.catalog.num_tables() + 64 + 6;
        assert_eq!(fq.plan.mid.cols(), expect);
    }

    #[test]
    fn join_node_relation_encoding_sums_subtree() {
        let (db, q, plan) = setup();
        let truth = Executor::new(&db).execute(&plan);
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let n = norm();
        let mut sess = FeatSession::new();
        let fq = f.featurize(&mut sess, &q, &plan, Some(&truth), &n);
        let n_tables = db.catalog.num_tables();
        let rel_part: f32 = fq.plan.mid.data()[..n_tables].iter().sum();
        assert_eq!(rel_part, 2.0, "join node should encode both relations");
        let leaf_rel: f32 = fq.plan.children[0].mid.data()[..n_tables].iter().sum();
        assert_eq!(leaf_rel, 1.0);
    }

    #[test]
    fn filtered_leaf_differs_from_unfiltered() {
        let (db, q, plan) = setup();
        let truth = Executor::new(&db).execute(&plan);
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let n = norm();
        let mut sess = FeatSession::new();
        let fq = f.featurize(&mut sess, &q, &plan, Some(&truth), &n);
        // title leaf has a filter, movie_info leaf does not; their TaBERT
        // segments must differ (different tables anyway) — stronger: same
        // table with vs without filter.
        let mut q2 = q.clone();
        q2.filters.clear();
        let plan2 = PlanNode::join(
            &q2,
            JoinOp::HashJoin,
            PlanNode::scan(&q2, "title", ScanOp::SeqScan),
            PlanNode::scan(&q2, "movie_info", ScanOp::SeqScan),
        );
        let truth2 = Executor::new(&db).execute(&plan2);
        let fq2 = f.featurize(&mut sess, &q2, &plan2, Some(&truth2), &n);
        let n_tables = db.catalog.num_tables();
        let seg =
            |fqx: &FeaturizedQep| fqx.plan.children[0].mid.data()[n_tables..n_tables + 64].to_vec();
        assert_ne!(seg(&fq), seg(&fq2));
    }

    #[test]
    fn inference_featurization_needs_no_truth() {
        let (db, q, plan) = setup();
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let n = norm();
        let mut sess = FeatSession::new();
        let fq = f.featurize(&mut sess, &q, &plan, None, &n);
        assert!(fq.target.is_none());
        assert!(fq.plan.truth.is_none());
        assert!(fq.plan.children[0].leaf_est.is_some(), "EXPLAIN estimates still available");
    }

    #[test]
    fn operator_one_hot_is_set() {
        let (db, q, plan) = setup();
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let n = norm();
        let mut sess = FeatSession::new();
        let fq = f.featurize(&mut sess, &q, &plan, None, &n);
        let n_tables = db.catalog.num_tables();
        let op_seg = &fq.plan.mid.data()[n_tables + 64..];
        assert_eq!(op_seg.len(), 6);
        assert_eq!(op_seg.iter().sum::<f32>(), 1.0);
        assert_eq!(op_seg[PhysicalOp::Join(JoinOp::HashJoin).one_hot_index()], 1.0);
    }
}
