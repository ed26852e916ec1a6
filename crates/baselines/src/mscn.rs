//! MSCN (Kipf et al.): the multi-set convolutional cardinality estimator —
//! the paper's cardinality-estimation competitor (Table 4).
//!
//! Three set modules (relations, joins, predicates) encode each set element
//! with a shared MLP, average over the set, concatenate, and regress the
//! (log-normalized) query cardinality. As in the paper's setup, only
//! *numeric* predicates are supported ("we had to remove any alphanumerical
//! filters per query").

use crate::common::{fit_mse, LogNormalizer};
use qpseeker_engine::query::{CmpOp, Query};
use qpseeker_nn::prelude::*;
use qpseeker_storage::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// MSCN hyperparameters (defaults follow the original paper's small config).
#[derive(Debug, Clone)]
pub struct MscnConfig {
    pub hidden: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f64,
    pub seed: u64,
}

impl Default for MscnConfig {
    fn default() -> Self {
        Self { hidden: 64, epochs: 30, batch_size: 32, learning_rate: 1e-3, seed: 0x35c4 }
    }
}

/// Featurized query (three padded set matrices with masks).
struct MscnFeatures {
    rels: Tensor,
    rel_mask: Tensor,
    joins: Tensor,
    join_mask: Tensor,
    preds: Tensor,
    pred_mask: Tensor,
}

/// The MSCN estimator bound to one database schema.
pub struct Mscn<'a> {
    db: &'a Database,
    cfg: MscnConfig,
    store: ParamStore,
    rel_mlp: Mlp,
    join_mlp: Mlp,
    pred_mlp: Mlp,
    out_mlp: Mlp,
    col_index: HashMap<(String, String), usize>,
    col_ranges: Vec<(f64, f64)>,
    n_cols: usize,
    max_preds: usize,
    norm: Option<LogNormalizer>,
}

impl<'a> Mscn<'a> {
    pub fn new(db: &'a Database, cfg: MscnConfig) -> Self {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(cfg.seed);
        let n = db.catalog.num_tables().max(1);
        let m = db.catalog.num_joins().max(1);
        // Global column index (for predicate one-hots) + value ranges.
        let mut col_index = HashMap::new();
        let mut col_ranges = Vec::new();
        for t in &db.catalog.tables {
            for c in &t.columns {
                let stats = db
                    .table_stats(&t.name)
                    .and_then(|s| s.col(&c.name))
                    .map(|cs| (cs.histogram.min(), cs.histogram.max()))
                    .unwrap_or((0.0, 1.0));
                col_index.insert((t.name.clone(), c.name.clone()), col_ranges.len());
                col_ranges.push(stats);
            }
        }
        let n_cols = col_ranges.len();
        let pred_dim = n_cols + CmpOp::ALL.len() + 1;
        let h = cfg.hidden;
        let rel_mlp = Mlp::new(
            &mut store,
            &mut init,
            "mscn.rel",
            &[n, h, h],
            Activation::Relu,
            Activation::Relu,
        );
        let join_mlp = Mlp::new(
            &mut store,
            &mut init,
            "mscn.join",
            &[m, h, h],
            Activation::Relu,
            Activation::Relu,
        );
        let pred_mlp = Mlp::new(
            &mut store,
            &mut init,
            "mscn.pred",
            &[pred_dim, h, h],
            Activation::Relu,
            Activation::Relu,
        );
        let out_mlp = Mlp::new(
            &mut store,
            &mut init,
            "mscn.out",
            &[3 * h, h, 1],
            Activation::Relu,
            Activation::Identity,
        );
        Self {
            db,
            cfg,
            store,
            rel_mlp,
            join_mlp,
            pred_mlp,
            out_mlp,
            col_index,
            col_ranges,
            n_cols,
            max_preds: 8,
            norm: None,
        }
    }

    fn featurize(&self, query: &Query) -> MscnFeatures {
        let n = self.db.catalog.num_tables().max(1);
        let m = self.db.catalog.num_joins().max(1);
        let mut rels = Tensor::zeros(n, n);
        let mut rel_mask = Tensor::zeros(n, 1);
        for (row, r) in query.relations.iter().take(n).enumerate() {
            if let Some(i) = self.db.catalog.table_idx(&r.table) {
                rels.set(row, i, 1.0);
                rel_mask.set(row, 0, 1.0);
            }
        }
        let mut joins = Tensor::zeros(m, m);
        let mut join_mask = Tensor::zeros(m, 1);
        for (row, j) in query.joins.iter().take(m).enumerate() {
            let lt = query.table_of(&j.left.alias).unwrap_or(&j.left.alias);
            let rt = query.table_of(&j.right.alias).unwrap_or(&j.right.alias);
            if let Some(i) = self.db.catalog.join_idx(lt, &j.left.column, rt, &j.right.column) {
                joins.set(row, i, 1.0);
            }
            join_mask.set(row, 0, 1.0);
        }
        let pred_dim = self.n_cols + CmpOp::ALL.len() + 1;
        let mut preds = Tensor::zeros(self.max_preds, pred_dim);
        let mut pred_mask = Tensor::zeros(self.max_preds, 1);
        for (row, f) in query.filters.iter().take(self.max_preds).enumerate() {
            let table = query.table_of(&f.col.alias).unwrap_or(&f.col.alias);
            if let Some(&ci) = self.col_index.get(&(table.to_string(), f.col.column.to_string())) {
                preds.set(row, ci, 1.0);
                let (lo, hi) = self.col_ranges[ci];
                let norm_v =
                    if hi > lo { ((f.value - lo) / (hi - lo)).clamp(0.0, 1.0) } else { 0.5 };
                preds.set(row, pred_dim - 1, norm_v as f32);
            }
            let op_i = CmpOp::ALL.iter().position(|&o| o == f.op).expect("known op");
            preds.set(row, self.n_cols + op_i, 1.0);
            pred_mask.set(row, 0, 1.0);
        }
        MscnFeatures { rels, rel_mask, joins, join_mask, preds, pred_mask }
    }

    fn encode(&self, g: &mut Graph, f: &MscnFeatures) -> Var {
        let set = |g: &mut Graph, mlp: &Mlp, m: &Tensor, mask: &Tensor| -> Var {
            let x = g.constant(m.clone());
            let mk = g.constant(mask.clone());
            let h = mlp.forward(g, &x);
            let masked = g.mul_col_broadcast(h, mk);
            let rows = (0..m.rows()).map(|r| Row::Of(&masked, r));
            g.pool(rows, None, &[m.rows()], &[1.0 / mask.sum().max(1.0)], mlp.out_dim())
        };
        let r = set(g, &self.rel_mlp, &f.rels, &f.rel_mask);
        let j = set(g, &self.join_mlp, &f.joins, &f.join_mask);
        let p = set(g, &self.pred_mlp, &f.preds, &f.pred_mask);
        let width = |mlp: &Mlp| 0..mlp.out_dim();
        let cat = g.concat(&[
            (&r, width(&self.rel_mlp)),
            (&j, width(&self.join_mlp)),
            (&p, width(&self.pred_mlp)),
        ]);
        self.out_mlp.forward(g, &cat)
    }

    /// Train on (query, true cardinality) pairs.
    pub fn fit(&mut self, train: &[(&Query, f64)]) {
        assert!(!train.is_empty(), "MSCN training set is empty");
        let cards: Vec<f64> = train.iter().map(|&(_, c)| c).collect();
        self.norm = Some(LogNormalizer::fit(&cards));
        let norm = self.norm.clone().expect("just set");
        let feats: Vec<(MscnFeatures, f32)> =
            train.iter().map(|&(q, c)| (self.featurize(q), norm.encode(c))).collect();
        let mut store = std::mem::take(&mut self.store);
        fit_mse(
            &mut store,
            self.cfg.learning_rate as f32,
            self.cfg.epochs,
            self.cfg.batch_size,
            feats.len(),
            &mut StdRng::seed_from_u64(self.cfg.seed),
            |g, i| (self.encode(g, &feats[i].0), feats[i].1),
        );
        self.store = store;
    }

    /// Predict the cardinality of a query.
    pub fn predict(&self, query: &Query) -> f64 {
        let norm = self.norm.as_ref().expect("MSCN must be fitted first");
        let f = self.featurize(query);
        let mut g = Graph::new(&self.store);
        let out = self.encode(&mut g, &f);
        norm.decode(g.value(out).get(0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_storage::datagen::imdb;
    use qpseeker_workloads::{synthetic, Qep, SyntheticConfig};

    #[test]
    fn mscn_learns_synthetic_cardinalities() {
        let db = imdb::generate(0.1, 1);
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 120, seed: 5 });
        let (train, eval): (Vec<&Qep>, Vec<&Qep>) = w.split(0.8, false);
        let mut mscn = Mscn::new(&db, MscnConfig { epochs: 25, ..Default::default() });
        let pairs: Vec<(&qpseeker_engine::query::Query, f64)> =
            train.iter().map(|q| (&q.query, q.cardinality())).collect();
        mscn.fit(&pairs);
        // Median q-error on eval should beat a constant predictor by a lot.
        let mut errs: Vec<f64> = eval
            .iter()
            .map(|q| {
                let p = mscn.predict(&q.query);
                qpseeker_core_qerr(p, q.cardinality())
            })
            .collect();
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = errs[errs.len() / 2];
        assert!(median < 20.0, "MSCN median q-error {median}");
    }

    fn qpseeker_core_qerr(p: f64, t: f64) -> f64 {
        let p = p.max(1.0);
        let t = t.max(1.0);
        (p / t).max(t / p)
    }

    #[test]
    fn prediction_is_deterministic_and_positive() {
        let db = imdb::generate(0.05, 1);
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 20, seed: 5 });
        let mut mscn = Mscn::new(&db, MscnConfig { epochs: 3, ..Default::default() });
        let pairs: Vec<(&qpseeker_engine::query::Query, f64)> =
            w.qeps.iter().map(|q| (&q.query, q.cardinality())).collect();
        mscn.fit(&pairs);
        let a = mscn.predict(&w.qeps[0].query);
        let b = mscn.predict(&w.qeps[0].query);
        assert_eq!(a, b);
        assert!(a >= 0.0 && a.is_finite());
    }

    /// MSCN fit for 2 epochs in batches of 8 on 20 synthetic queries (three
    /// chunks an epoch, the last one short).
    #[test]
    #[cfg_attr(
        not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")),
        ignore = "golden constants are for x86_64 Linux glibc: init's Box-Muller and the \
                  log-scaled features and targets call libm"
    )]
    fn trained_weights_match_the_golden_fingerprint() {
        let db = imdb::generate(0.05, 1);
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 20, seed: 5 });
        let cfg = MscnConfig { epochs: 2, batch_size: 8, ..Default::default() };
        let mut mscn = Mscn::new(&db, cfg);
        let pairs: Vec<(&qpseeker_engine::query::Query, f64)> =
            w.qeps.iter().map(|q| (&q.query, q.cardinality())).collect();
        mscn.fit(&pairs);
        crate::common::assert_weights_golden(&mscn.store, "MSCN", 0xe56d_a045_afa2_df72);
    }

    #[test]
    #[should_panic(expected = "fitted first")]
    fn predict_before_fit_panics() {
        let db = imdb::generate(0.02, 1);
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 2, seed: 5 });
        let mscn = Mscn::new(&db, MscnConfig::default());
        mscn.predict(&w.qeps[0].query);
    }
}
