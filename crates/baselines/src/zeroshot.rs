//! Zero-Shot cost model (Hilprecht & Binnig): the paper's cost-estimation
//! competitor (Table 3).
//!
//! The premise: pretrain a cost model on *many different databases* using
//! only transferable features (no schema one-hots), then estimate plan costs
//! on an unseen database without retraining. The paper trains it on the
//! authors' 19 databases / 77 workloads; here it pretrains on a family of
//! random synthetic schemas (DESIGN.md §5) generated by
//! `qpseeker_storage::datagen::synthdb`.

use crate::common::{fit_mse, node_features, LogNormalizer, NODE_FEAT_DIM};
use qpseeker_engine::optimizer::PgOptimizer;
use qpseeker_engine::plan::PlanNode;
use qpseeker_engine::query::{ColRef, JoinPred, Query, RelRef};
use qpseeker_nn::prelude::*;
use qpseeker_storage::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Zero-shot configuration.
#[derive(Debug, Clone)]
pub struct ZeroShotConfig {
    /// Pretraining databases.
    pub n_databases: usize,
    /// Queries generated per pretraining database.
    pub queries_per_db: usize,
    pub hidden: usize,
    pub data_dim: usize,
    pub epochs: usize,
    pub learning_rate: f64,
    pub seed: u64,
}

impl Default for ZeroShotConfig {
    fn default() -> Self {
        Self {
            n_databases: 8,
            queries_per_db: 60,
            hidden: 48,
            data_dim: 16,
            epochs: 20,
            learning_rate: 1e-3,
            seed: 0x2e05,
        }
    }
}

/// The zero-shot cost estimator: a shared (operator-agnostic) node MLP with
/// recursive child pooling — every feature is database-independent, so the
/// same weights apply to any schema.
pub struct ZeroShot {
    cfg: ZeroShotConfig,
    store: ParamStore,
    node_mlp: Mlp,
    head: Linear,
    norm: LogNormalizer,
    trained: bool,
}

impl ZeroShot {
    pub fn new(cfg: ZeroShotConfig) -> Self {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(cfg.seed);
        let in_dim = NODE_FEAT_DIM + cfg.data_dim;
        let node_mlp = Mlp::new(
            &mut store,
            &mut init,
            "zeroshot.node",
            &[in_dim, cfg.hidden, cfg.hidden, cfg.data_dim],
            Activation::Relu,
            Activation::Relu,
        );
        let head = Linear::new(&mut store, &mut init, "zeroshot.head", cfg.data_dim, 1);
        Self {
            cfg,
            store,
            node_mlp,
            head,
            norm: LogNormalizer { mean: 0.0, std: 1.0 },
            trained: false,
        }
    }

    /// Pretrain on the synthetic database family. This is the *only*
    /// training the model ever receives; target databases are unseen.
    pub fn pretrain(&mut self) {
        let dbs = qpseeker_storage::datagen::synthdb::training_family(
            self.cfg.n_databases,
            400,
            self.cfg.seed,
        );
        let mut samples: Vec<(Vec<Vec<f32>>, ChildIndex, f64)> = Vec::new();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x1122);
        for db in &dbs {
            let opt = PgOptimizer::new(db);
            for qi in 0..self.cfg.queries_per_db {
                let Some(q) = random_query(db, &mut rng, qi) else { continue };
                let plan = opt.plan(&q);
                // Target: the engine's PG cost units of the actual execution.
                let res = qpseeker_engine::executor::Executor::new(db).execute(&plan);
                let feats = node_features(db, &q, &plan);
                samples.push((feats, ChildIndex::of(&plan), res.cost));
            }
        }
        assert!(!samples.is_empty(), "zero-shot pretraining produced no samples");
        self.norm = LogNormalizer::fit(&samples.iter().map(|s| s.2).collect::<Vec<_>>());
        // The shuffles continue the RNG that drew the queries.
        let mut store = std::mem::take(&mut self.store);
        fit_mse(
            &mut store,
            self.cfg.learning_rate as f32,
            self.cfg.epochs,
            16,
            samples.len(),
            &mut rng,
            |g, i| {
                let (feats, idx, cost) = &samples[i];
                (self.forward(g, feats, idx), self.norm.encode(*cost))
            },
        );
        self.store = store;
        self.trained = true;
    }

    fn forward(&self, g: &mut Graph, feats: &[Vec<f32>], idx: &ChildIndex) -> Var {
        let data = self.forward_node(g, feats, idx, idx.root);
        self.head.forward(g, &data, Activation::Identity)
    }

    fn forward_node(
        &self,
        g: &mut Graph,
        feats: &[Vec<f32>],
        idx: &ChildIndex,
        node: usize,
    ) -> Var {
        let children = &idx.children[node];
        let child_data = if children.is_empty() {
            g.constant(Tensor::zeros(1, self.cfg.data_dim))
        } else {
            let hs: Vec<Var> =
                children.iter().map(|&c| self.forward_node(g, feats, idx, c)).collect();
            let n = hs.len();
            g.pool(
                hs.iter().map(|h| Row::Of(h, 0)),
                None,
                &[n],
                &[1.0 / n as f32],
                self.cfg.data_dim,
            )
        };
        let f = g.constant(Tensor::row(feats[node].clone()));
        let input = g.concat(&[(&f, 0..feats[node].len()), (&child_data, 0..self.cfg.data_dim)]);
        self.node_mlp.forward(g, &input)
    }

    /// Estimate the cost of a plan on an *unseen* database (zero-shot).
    pub fn predict(&self, db: &Database, query: &Query, plan: &PlanNode) -> f64 {
        assert!(self.trained, "ZeroShot must be pretrained first");
        let feats = node_features(db, query, plan);
        let idx = ChildIndex::of(plan);
        let mut g = Graph::new(&self.store);
        let out = self.forward(&mut g, &feats, &idx);
        self.norm.decode(g.value(out).get(0, 0))
    }
}

/// Postorder child index of a plan tree.
struct ChildIndex {
    root: usize,
    children: Vec<Vec<usize>>,
}

impl ChildIndex {
    fn of(plan: &PlanNode) -> Self {
        fn walk(node: &PlanNode, children: &mut Vec<Vec<usize>>) -> usize {
            let kids = match node {
                PlanNode::Scan { .. } => Vec::new(),
                PlanNode::Join { left, right, .. } => {
                    vec![walk(left, children), walk(right, children)]
                }
            };
            children.push(kids);
            children.len() - 1
        }
        let mut children = Vec::new();
        let root = walk(plan, &mut children);
        Self { root, children }
    }
}

/// A random connected query over an arbitrary database (pretraining data).
fn random_query(db: &Database, rng: &mut StdRng, id: usize) -> Option<Query> {
    let tables: Vec<&str> = db.catalog.tables.iter().map(|t| t.name.as_str()).collect();
    if tables.is_empty() {
        return None;
    }
    let start = tables[rng.gen_range(0..tables.len())];
    let mut q = Query::new(format!("{}-{id}", db.name));
    q.relations.push(RelRef::new(start));
    let n_rels = rng.gen_range(1..=4usize.min(tables.len()));
    let mut guard = 0;
    while q.relations.len() < n_rels && guard < 40 {
        guard += 1;
        let anchor = q.relations[rng.gen_range(0..q.relations.len())].table.clone();
        let edges = db.catalog.joins_of(&anchor);
        if edges.is_empty() {
            break;
        }
        let e = edges[rng.gen_range(0..edges.len())];
        let (other, other_col, anchor_col) = if *e.from_table == *anchor {
            (&e.to_table, &e.to_col, &e.from_col)
        } else {
            (&e.from_table, &e.from_col, &e.to_col)
        };
        if q.relations.iter().any(|r| *r.table == **other) {
            continue;
        }
        q.joins.push(JoinPred {
            left: ColRef::new(anchor.clone(), anchor_col.clone()),
            right: ColRef::new(other.clone(), other_col.clone()),
        });
        q.relations.push(RelRef::new(other.clone()));
    }
    Some(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_engine::executor::Executor;
    use qpseeker_storage::datagen::imdb;
    use qpseeker_workloads::{synthetic, SyntheticConfig};

    fn tiny_cfg() -> ZeroShotConfig {
        ZeroShotConfig { n_databases: 3, queries_per_db: 20, epochs: 8, ..Default::default() }
    }

    #[test]
    fn pretrains_and_transfers_to_imdb() {
        let mut zs = ZeroShot::new(tiny_cfg());
        zs.pretrain();
        // Transfer: predict on IMDb, which was never seen in pretraining.
        let db = imdb::generate(0.05, 9);
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 20, seed: 9 });
        let ex = Executor::new(&db);
        let mut errs = Vec::new();
        for qep in &w.qeps {
            let pred = zs.predict(&db, &qep.query, &qep.plan);
            assert!(pred.is_finite() && pred >= 0.0);
            let truth = ex.execute(&qep.plan).cost.max(1.0);
            errs.push((pred.max(1.0) / truth).max(truth / pred.max(1.0)));
        }
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Zero-shot transfer is rough, but it must be in the right ballpark
        // (a constant predictor lands orders of magnitude off).
        assert!(errs[errs.len() / 2] < 100.0, "median transfer q-error {}", errs[errs.len() / 2]);
    }

    /// Zero-shot pretrained for 2 epochs over 2 databases × 12 queries; the
    /// shuffles continue the RNG that drew the queries.
    #[test]
    #[cfg_attr(
        not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")),
        ignore = "golden constants are for x86_64 Linux glibc: init's Box-Muller and the \
                  log-scaled features and targets call libm"
    )]
    fn trained_weights_match_the_golden_fingerprint() {
        let cfg =
            ZeroShotConfig { n_databases: 2, queries_per_db: 12, epochs: 2, ..Default::default() };
        let mut zs = ZeroShot::new(cfg);
        zs.pretrain();
        crate::common::assert_weights_golden(&zs.store, "zero-shot", 0x5f4f_8634_2c1b_ddf9);
    }

    #[test]
    #[should_panic(expected = "pretrained first")]
    fn predict_before_pretrain_panics() {
        let zs = ZeroShot::new(tiny_cfg());
        let db = imdb::generate(0.02, 1);
        let mut q = Query::new("q");
        q.relations.push(RelRef::new("title"));
        let plan = PgOptimizer::new(&db).plan(&q);
        zs.predict(&db, &q, &plan);
    }

    #[test]
    fn child_index_matches_postorder() {
        let db = imdb::generate(0.02, 1);
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("title"), RelRef::new("movie_info")];
        q.joins = vec![JoinPred {
            left: ColRef::new("movie_info", "movie_id"),
            right: ColRef::new("title", "id"),
        }];
        let plan = PgOptimizer::new(&db).plan(&q);
        let idx = ChildIndex::of(&plan);
        assert_eq!(idx.root, 2);
        assert_eq!(idx.children[2], vec![0, 1]);
        assert!(idx.children[0].is_empty());
    }
}
