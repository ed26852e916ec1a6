//! QEP featurization: turning (query, plan, database) into the constant
//! tensors the encoders consume.
//!
//! Everything that does not depend on model weights is computed here —
//! MSCN-style set matrices for the query encoder (§4.1), and per-node
//! constant input segments for the plan encoder (§4.2): relation one-hot
//! sums, TaBERT representations, operator one-hots, and (for leaves) the
//! EXPLAIN estimates. Plan nodes have one featurizer, [`PlanFeatCache`]:
//! serving shares one per query across every candidate plan, and training
//! and the tape oracle run a fresh one per QEP (`Featurizer::featurize`).

use crate::normalize::TargetNormalizer;
use qpseeker_engine::executor::ExecutionResult;
use qpseeker_engine::explain::Explain;
use qpseeker_engine::plan::{JoinOp, PhysicalOp, PlanNode, ScanOp};
use qpseeker_engine::query::{Filter, Query};
use qpseeker_nn::tensor::Tensor;
use qpseeker_storage::fnv::{self, FnvBuild};
use qpseeker_storage::Database;
use qpseeker_tabert::{TabSim, TabertCache, TabertQuery, TableIndex};
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
    /// The node's own input `[mid | estimates]`, `N + tabert_dim + 6 + 3`
    /// floats: the constant middle segment (relation one-hot sum ‖ TaBERT
    /// representation ‖ operator one-hot), then a leaf's normalized EXPLAIN
    /// estimates (zero on a join). One allocation per own id, shared by
    /// every node of it.
    pub(crate) input: Arc<[f32]>,
    /// The subtree's node id in its query's [`PlanFeatCache`]: equal ids
    /// are equal subtrees, so their encodings are too.
    pub(crate) id: u32,
    /// The node's own id in the same cache, dense per (alias set, operator):
    /// nodes with equal own ids have equal own inputs (a leaf's alias set is
    /// its one relation, so its own id is its own).
    pub(crate) own: u32,
    /// A join's two subtrees; shared, so the cache hands every plan
    /// containing a subtree the one node it built for it.
    pub(crate) kids: Option<[Arc<FeatNode>; 2]>,
}

impl FeatNode {
    /// The node's children: none for a leaf, left and right for a join.
    pub(crate) fn children(&self) -> &[Arc<FeatNode>] {
        self.kids.as_ref().map_or(&[], |k| k.as_slice())
    }

    pub(crate) fn is_leaf(&self) -> bool {
        self.kids.is_none()
    }
}

/// A fully featurized QEP ready for the encoders.
#[derive(Debug, Clone)]
pub(crate) struct FeaturizedQep {
    pub query: QueryFeatures,
    pub plan: FeatNode,
    /// Normalized ground-truth (card, cost, time) of every plan node, in
    /// postorder (training only); drives the auxiliary per-node loss.
    pub truths: Option<Vec<[f32; 3]>>,
    /// Normalized root targets (training only).
    pub target: Option<[f32; 3]>,
}

/// A relation of the query: the table and filters [`PlanNode::scan`] gives
/// its scans, and the table's TaBERT `[CLS]` once a join prefix pooled it.
struct Relation {
    table: Arc<str>,
    filters: Vec<Filter>,
    cls: Option<Vec<f32>>,
}

/// The plan featurizer's per-query state: it hash-conses while it
/// featurizes.
///
/// Candidate plans of one query share almost all their subtrees, and a
/// subtree's features are a function of few things: a leaf's of `(query
/// relation, scan op)` — scan estimates are context-independent, and every
/// scan of a relation reads the same table under the same filters — and a
/// join's of `(join op, left subtree, right subtree)`. So every distinct
/// subtree gets a dense node id (`FeatNode::id`) under exactly that key, is
/// featurized once, and is shared by every later plan containing it. The id
/// is the one plan identity of the crate: the searches name, memoize and
/// score candidates by it (`Interner::scan`, `Interner::join`),
/// and the scoring path keys its memo of encoded subtrees by it.
///
/// The `[rel one-hot sum ‖ TaBERT repr]` prefix of a node depends only on
/// the *set* of aliases under it and is memoized too. Each node's set is
/// recorded once, when the node is interned, as a `⌈n/64⌉`-word bitset in
/// one arena indexed by node id; bits are assigned in alias-name order, so
/// ascending bits are [`PlanNode::aliases`] order. Exact for any number of
/// relations.
///
/// A node's own input — `[prefix ‖ op one-hot ‖ estimates]`, the part of
/// its plan-encoder input that does not come from its children — is then a
/// function of (operator, alias set) alone, so every node also gets a
/// dense *own id* under that key (`FeatNode::own`): the input is built once
/// per own id and shared by every node of it, and the scoring path projects
/// each own input once per query, however many subtrees share it. A new
/// join allocates only its node.
pub struct PlanFeatCache {
    /// The query's TaBERT cache key and trigram set.
    tabert: TabertQuery,
    /// alias → its index in `query.relations`.
    rel_of: HashMap<Arc<str>, u32, FnvBuild>,
    /// Query relation index → its alias bit.
    bits: Vec<u32>,
    /// bit index → the relation the alias binds.
    relations: Vec<Relation>,
    /// Words per alias set.
    words: usize,
    /// Node id → its alias set, `words` words each.
    sets: Vec<u64>,
    /// Alias set → its index in `prefixes`.
    set_ids: HashMap<Box<[u64]>, u32, FnvBuild>,
    /// Per distinct alias set: its `[rel one-hot sum ‖ TaBERT repr]` prefix.
    prefixes: Vec<Vec<f32>>,
    /// `(op one-hot index, alias set index)` → own id.
    owns: HashMap<(usize, u32), u32, FnvBuild>,
    /// Own id → its own input.
    inputs: Vec<Arc<[f32]>>,
    /// `(op one-hot index, relation index | left id, 0 | right id)` → node
    /// id. Scan and join one-hot indices are disjoint, so leaves and joins
    /// never collide.
    ids: HashMap<(usize, u32, u32), u32, FnvBuild>,
    /// Node id → its featurized subtree.
    nodes: Vec<Arc<FeatNode>>,
}

impl PlanFeatCache {
    pub fn new(query: &Query) -> Self {
        let mut order: Vec<usize> = (0..query.relations.len()).collect();
        order.sort_by(|&a, &b| query.relations[a].alias.cmp(&query.relations[b].alias));
        let mut bits = vec![0; order.len()];
        let mut relations = Vec::with_capacity(order.len());
        for (bit, &r) in order.iter().enumerate() {
            bits[r] = bit as u32;
            let rel = &query.relations[r];
            let filters = query.filters_of(&rel.alias).into_iter().cloned().collect();
            relations.push(Relation { table: rel.table.clone(), filters, cls: None });
        }
        let rel_of = query.relations.iter().enumerate();
        Self {
            tabert: TabertQuery::new(&query.to_sql()),
            rel_of: rel_of.map(|(i, r)| (r.alias.clone(), i as u32)).collect(),
            bits,
            words: relations.len().div_ceil(64),
            relations,
            sets: Vec::new(),
            set_ids: HashMap::default(),
            prefixes: Vec::new(),
            owns: HashMap::default(),
            inputs: Vec::new(),
            ids: HashMap::default(),
            nodes: Vec::new(),
        }
    }

    /// Node `id`'s alias set.
    fn set(&self, id: u32) -> &[u64] {
        &self.sets[id as usize * self.words..(id as usize + 1) * self.words]
    }

    /// Node `id`'s featurized subtree.
    pub(crate) fn node(&self, id: u32) -> &Arc<FeatNode> {
        &self.nodes[id as usize]
    }
}

/// Per-session featurization state: the TaBERT encoding cache and the
/// filtered-column cache. Owned by exactly one thread at a time (a worker's
/// [`crate::session::PlannerSession`], or a local one a fit or evaluation
/// loop builds), so no locks are needed on the featurization hot path.
#[derive(Default)]
pub struct FeatSession {
    /// (table, SQL text) → TaBERT encoding.
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
/// immutable TabSim instance and one TaBERT [`TableIndex`] per table; all
/// mutable caches live in a caller-owned [`FeatSession`], so the featurizer
/// itself is `Send + Sync` and a fitted model can serve predictions from
/// many threads at once.
pub struct Featurizer {
    pub db: Arc<Database>,
    pub tabert: TabSim,
    /// One TaBERT index per table of `db`.
    indexes: Vec<TableIndex>,
}

impl Featurizer {
    pub fn new(db: Arc<Database>, tabert: TabSim) -> Self {
        let indexes = db.tables.iter().map(TableIndex::build).collect();
        Self { db, tabert, indexes }
    }

    /// The TaBERT `[CLS]` vector of `table` for `query`.
    fn table_cls(&self, sess: &mut FeatSession, table: &str, query: &TabertQuery) -> Vec<f32> {
        let index = self
            .indexes
            .iter()
            .find(|i| i.name() == table)
            .unwrap_or_else(|| panic!("unknown table {table}"));
        self.tabert.encode_table_cls(&mut sess.tabert, index, query)
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

    /// Featurize a full QEP through a fresh [`PlanFeatCache`]. `truths`
    /// supplies the per-node ground truth (from execution) for training;
    /// pass `None` at inference.
    ///
    /// # Panics
    /// As [`Self::featurize_batch_into`] does, and on a timed-out `truths`.
    pub(crate) fn featurize(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plan: &PlanNode,
        truths: Option<&ExecutionResult>,
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
        let mut cache = PlanFeatCache::new(query);
        let id = Interner { feat: self, sess, query, norm, cache: &mut cache }.plan(plan);
        let plan_feats = FeatNode::clone(cache.node(id));
        let encode = |rows: u64, cost: f64, time_ms: f64| norm.encode([rows as f64, cost, time_ms]);
        FeaturizedQep {
            query: self.query_features(query),
            plan: plan_feats,
            truths: truths
                .map(|t| t.nodes.iter().map(|p| encode(p.rows, p.cost, p.time_ms)).collect()),
            target: truths.map(|t| encode(t.rows, t.cost, t.time_ms)),
        }
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
        let matching: Vec<u32> =
            (0..t.n_rows() as u32).filter(|&i| f.op.eval(col.num(i as usize), f.value)).collect();
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
    /// A plan's tree does not depend on what it is batched with or what the
    /// cache saw before, so batched scoring stays bitwise equal to scalar
    /// scoring.
    ///
    /// # Panics
    /// When a scan is not a relation of `query`: an alias it does not bind,
    /// another table, or other filters than the query's on that alias.
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
        let mut int = Interner { feat: self, sess, query, norm, cache };
        for plan in plans {
            let id = int.plan(plan);
            out.push(FeatNode::clone(int.cache.node(id)));
        }
    }
}

/// The plan featurizer bound to one query: the session's caches, the fitted
/// target normalizer and the query's [`PlanFeatCache`]. Its two interning
/// calls, [`Self::scan`] and [`Self::join`], are how every plan node gets
/// its id; [`Self::plan`] walks a [`PlanNode`] through them.
pub(crate) struct Interner<'a> {
    pub(crate) feat: &'a Featurizer,
    pub(crate) sess: &'a mut FeatSession,
    pub(crate) query: &'a Query,
    pub(crate) norm: &'a TargetNormalizer,
    pub(crate) cache: &'a mut PlanFeatCache,
}

impl Interner<'_> {
    /// The node id of `plan`: its scans and joins interned in postorder —
    /// left, right, join.
    ///
    /// # Panics
    /// As [`Featurizer::featurize_batch_into`] does.
    pub(crate) fn plan(&mut self, plan: &PlanNode) -> u32 {
        match plan {
            PlanNode::Scan { alias, table, op, filters } => {
                // A scan must be a relation of the query — its alias bound,
                // over the same table, under exactly the query's filters on
                // it — or it would alias a relation's features and node id.
                let cache = &self.cache;
                let rel = cache.rel_of.get(alias).copied().filter(|&rel| {
                    let r = &cache.relations[cache.bits[rel as usize] as usize];
                    r.table == *table && *r.filters == **filters
                });
                let rel = rel.unwrap_or_else(|| {
                    panic!("scan {plan:?} is not a relation of query {}", self.query.id)
                });
                self.scan(rel, *op)
            }
            PlanNode::Join { op, left, right, .. } => {
                let (l, r) = (self.plan(left), self.plan(right));
                self.join(*op, l, r)
            }
        }
    }

    /// The node id of the scan of `query.relations[rel]` under `op`
    /// (filters pushed down), featurized the first time.
    pub(crate) fn scan(&mut self, rel: u32, op: ScanOp) -> u32 {
        let key = (PhysicalOp::Scan(op).one_hot_index(), rel, 0);
        if let Some(&id) = self.cache.ids.get(&key) {
            return id;
        }
        let (bit, words) = (self.cache.bits[rel as usize], self.cache.words);
        let at = self.cache.sets.len();
        self.cache.sets.resize(at + words, 0);
        self.cache.sets[at + bit as usize / 64] = 1 << (bit % 64);
        // Scan estimates are context-independent, so the single-node plan
        // yields the same NodeEstimate a full-plan EXPLAIN would.
        let scan = PlanNode::scan(self.query, &self.query.relations[rel as usize].alias, op);
        let e = Explain::new(&self.feat.db).explain(self.query, &scan)[0];
        let est = self.norm.encode([e.rows, e.cost, e.time_ms]).map(|v| v * ESTIMATE_SCALE);
        self.number(key, est, None)
    }

    /// The node id of `left ⋈op right` over node ids, featurized the first
    /// time.
    pub(crate) fn join(&mut self, op: JoinOp, left: u32, right: u32) -> u32 {
        let key = (PhysicalOp::Join(op).one_hot_index(), left, right);
        if let Some(&id) = self.cache.ids.get(&key) {
            return id;
        }
        for w in 0..self.cache.words {
            let word = self.cache.set(left)[w] | self.cache.set(right)[w];
            self.cache.sets.push(word);
        }
        let kids = [left, right].map(|c| Arc::clone(self.cache.node(c)));
        self.number(key, [0.0; 3], Some(kids))
    }

    /// Number a new node of `key`, whose alias set is the last one pushed
    /// onto the arena: ids go in first-seen order. `est` is a leaf's scaled
    /// estimates (zero for a join).
    fn number(
        &mut self,
        key: (usize, u32, u32),
        est: [f32; 3],
        kids: Option<[Arc<FeatNode>; 2]>,
    ) -> u32 {
        let id = self.cache.nodes.len() as u32;
        let set_id = match self.cache.set_ids.get(self.cache.set(id)) {
            Some(&set_id) => set_id,
            None => {
                let set: Box<[u64]> = self.cache.set(id).into();
                let prefix = self.prefix_of(kids.is_none().then_some(key.1), &set);
                let set_id = self.cache.prefixes.len() as u32;
                self.cache.prefixes.push(prefix);
                self.cache.set_ids.insert(set, set_id);
                set_id
            }
        };
        let next_own = self.cache.owns.len() as u32;
        let own = *self.cache.owns.entry((key.0, set_id)).or_insert(next_own);
        if own == next_own {
            // `[rel ‖ TaBERT]` prefix ‖ operator one-hot ‖ estimates.
            let prefix = &self.cache.prefixes[set_id as usize];
            let mut input = Vec::with_capacity(prefix.len() + PhysicalOp::COUNT + est.len());
            input.extend_from_slice(prefix);
            input.resize(prefix.len() + PhysicalOp::COUNT, 0.0);
            input[prefix.len() + key.0] = 1.0;
            input.extend_from_slice(&est);
            self.cache.inputs.push(input.into());
        }
        let input = Arc::clone(&self.cache.inputs[own as usize]);
        let node = FeatNode { input, id, own, kids };
        self.cache.ids.insert(key, id);
        self.cache.nodes.push(Arc::new(node));
        id
    }

    /// The `[rel one-hot sum ‖ TaBERT repr]` prefix of a node whose alias
    /// set `set` no earlier node had: the scan of query relation `leaf`'s
    /// table and its filtered column (or its `[CLS]`), or a join's relations
    /// and their mean-pooled `[CLS]`, in ascending bit — alias-name — order.
    fn prefix_of(&mut self, leaf: Option<u32>, set: &[u64]) -> Vec<f32> {
        let Self { feat, sess, cache, .. } = self;
        let n_tables = feat.db.catalog.num_tables().max(1);
        let mut prefix = Vec::with_capacity(n_tables + feat.tabert.dim());
        prefix.resize(n_tables, 0.0);
        if let Some(rel) = leaf {
            let Relation { table, filters, .. } =
                &cache.relations[cache.bits[rel as usize] as usize];
            if let Some(idx) = feat.db.catalog.table_idx(table) {
                prefix[idx] += 1.0;
            }
            let repr = match filters.first() {
                Some(f) => feat.filtered_column_repr(sess, table, f),
                None => feat.table_cls(sess, table, &cache.tabert),
            };
            prefix.extend_from_slice(&repr);
            return prefix;
        }
        let n = set.iter().map(|w| w.count_ones()).sum::<u32>() as f32;
        let mut acc = vec![0.0f32; feat.tabert.dim()];
        for (w, &word) in set.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let bit = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let rel = &mut cache.relations[bit];
                if let Some(idx) = feat.db.catalog.table_idx(&rel.table) {
                    prefix[idx] += 1.0;
                }
                let cls =
                    rel.cls.get_or_insert_with(|| feat.table_cls(sess, &rel.table, &cache.tabert));
                for (a, c) in acc.iter_mut().zip(cls.iter()) {
                    *a += c / n;
                }
            }
        }
        prefix.extend_from_slice(&acc);
        prefix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_engine::executor::Executor;
    use qpseeker_engine::query::{CmpOp, ColRef, JoinPred, RelRef};
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
        fn count(node: &FeatNode) -> usize {
            1 + node.children().iter().map(|c| count(c)).sum::<usize>()
        }
        assert_eq!(count(&fq.plan), 3);
        assert_eq!(fq.plan.children().len(), 2);
        // Leaves carry EXPLAIN estimates; the join's slots are zero.
        let est = |node: &FeatNode| node.input[node.input.len() - 3..].to_vec();
        assert!(fq.plan.children().iter().all(|c| c.is_leaf() && est(c) != [0.0; 3]));
        assert!(!fq.plan.is_leaf());
        assert_eq!(est(&fq.plan), [0.0; 3]);
        // Every node carries normalized truth, in postorder.
        let truths = fq.truths.as_ref().expect("labelled");
        assert_eq!(truths.len(), 3);
        assert_eq!(truths[2], n.encode([truth.rows as f64, truth.cost, truth.time_ms]));
        assert!(fq.target.is_some());
        // Own input width = N + tabert + 6, then 3 estimates.
        let expect = db.catalog.num_tables() + 64 + 6 + 3;
        assert_eq!(fq.plan.input.len(), expect);
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
        let rel_part: f32 = fq.plan.input[..n_tables].iter().sum();
        assert_eq!(rel_part, 2.0, "join node should encode both relations");
        let leaf_rel: f32 = fq.plan.children()[0].input[..n_tables].iter().sum();
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
            |fqx: &FeaturizedQep| fqx.plan.children()[0].input[n_tables..n_tables + 64].to_vec();
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
        assert!(fq.truths.is_none());
        let leaf = &fq.plan.children()[0].input;
        assert_ne!(leaf[leaf.len() - 3..], [0.0; 3], "EXPLAIN estimates still available");
    }

    #[test]
    fn operator_one_hot_is_set() {
        let (db, q, plan) = setup();
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let n = norm();
        let mut sess = FeatSession::new();
        let fq = f.featurize(&mut sess, &q, &plan, None, &n);
        let n_tables = db.catalog.num_tables();
        let op_seg = &fq.plan.input[n_tables + 64..n_tables + 70];
        assert_eq!(fq.plan.input.len(), n_tables + 73);
        assert_eq!(op_seg.iter().sum::<f32>(), 1.0);
        assert_eq!(op_seg[PhysicalOp::Join(JoinOp::HashJoin).one_hot_index()], 1.0);
    }

    /// Joins of one (alias set, operator) share one own-input allocation,
    /// whatever their children; a join of another operator over the same
    /// set, and a leaf, have their own. A join's children are the cache's
    /// nodes of its subtrees, not copies.
    #[test]
    fn joins_with_equal_own_ids_share_one_own_input() {
        let (db, mut q, _) = setup();
        q.relations.push(RelRef::new("movie_keyword"));
        q.joins.push(JoinPred {
            left: ColRef::new("movie_keyword", "movie_id"),
            right: ColRef::new("title", "id"),
        });
        let f = Featurizer::new(db, TabSim::new(TabertConfig::paper_default()));
        let scan = |a| PlanNode::scan(&q, a, ScanOp::SeqScan);
        let join = |op, l, r| PlanNode::join(&q, op, l, r);
        let hash = JoinOp::HashJoin;
        let plans = [
            join(hash, join(hash, scan("title"), scan("movie_info")), scan("movie_keyword")),
            join(hash, join(hash, scan("movie_keyword"), scan("title")), scan("movie_info")),
            join(
                JoinOp::MergeJoin,
                join(hash, scan("title"), scan("movie_info")),
                scan("movie_keyword"),
            ),
        ];
        let (mut sess, mut cache, mut out) =
            (FeatSession::new(), PlanFeatCache::new(&q), Vec::new());
        let refs: Vec<&PlanNode> = plans.iter().collect();
        f.featurize_batch_into(&mut sess, &q, &refs, &norm(), &mut cache, &mut out);
        let [a, b, m] = [&out[0], &out[1], &out[2]];
        assert_ne!(a.id, b.id);
        assert_eq!(a.own, b.own);
        assert!(Arc::ptr_eq(&a.input, &b.input), "one own input per own id");
        assert_ne!(a.own, m.own);
        assert!(!Arc::ptr_eq(&a.input, &m.input));
        assert_ne!(a.input[..], m.input[..], "the operator one-hot differs");
        assert!(Arc::ptr_eq(&a.children()[0], &m.children()[0]), "a shared subtree is one node");
        assert!(Arc::ptr_eq(&a.children()[0], cache.node(a.children()[0].id)));
        let leaf = &a.children()[1];
        assert!(leaf.is_leaf() && !Arc::ptr_eq(&leaf.input, &a.input));
    }
}
