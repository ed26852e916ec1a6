//! Bao (Marcus et al.): the hint-set advisor — the paper's query-
//! optimization competitor (§7.2, Figs. 9 & 10).
//!
//! Bao does not plan from scratch; it steers the existing cost-based
//! optimizer by choosing a *hint set* (operator classes to disable) per
//! query, using a learned value model over the resulting plans. Training
//! gains experience by executing the plans its arms produce on the training
//! workload (the paper: "we trained Bao by letting it gain experience
//! through the execution of the training set").
//!
//! Simplification vs. the original: the value network is a pooled
//! per-node MLP rather than a tree convolution, and arm selection during
//! training is round-robin experience collection rather than Thompson
//! sampling (documented in DESIGN.md §5; the evaluated behaviour — pick the
//! arm whose plan the value model predicts fastest — is the same).

use crate::common::{fit_mse, node_features, LogNormalizer, NODE_FEAT_DIM};
use qpseeker_engine::executor::Executor;
use qpseeker_engine::optimizer::{Hints, PgOptimizer};
use qpseeker_engine::plan::PlanNode;
use qpseeker_engine::query::Query;
use qpseeker_nn::prelude::*;
use qpseeker_storage::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Bao hyperparameters.
#[derive(Debug, Clone)]
pub struct BaoConfig {
    pub hidden: usize,
    pub epochs: usize,
    pub learning_rate: f64,
    pub seed: u64,
    /// Executions collected per training query (arms sampled round-robin).
    pub experiences_per_query: usize,
}

impl Default for BaoConfig {
    fn default() -> Self {
        Self { hidden: 48, epochs: 25, learning_rate: 1e-3, seed: 0xba0, experiences_per_query: 3 }
    }
}

/// The Bao advisor bound to one database.
pub struct Bao<'a> {
    db: &'a Database,
    cfg: BaoConfig,
    store: ParamStore,
    node_mlp: Mlp,
    value_head: Mlp,
    norm: Option<LogNormalizer>,
    hint_sets: Vec<Hints>,
}

impl<'a> Bao<'a> {
    pub fn new(db: &'a Database, cfg: BaoConfig) -> Self {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(cfg.seed);
        let node_mlp = Mlp::new(
            &mut store,
            &mut init,
            "bao.node",
            &[NODE_FEAT_DIM, cfg.hidden, cfg.hidden],
            Activation::Relu,
            Activation::Relu,
        );
        // Mean- and max-pooled node embeddings → value.
        let value_head = Mlp::new(
            &mut store,
            &mut init,
            "bao.value",
            &[cfg.hidden, cfg.hidden, 1],
            Activation::Relu,
            Activation::Identity,
        );
        Self { db, cfg, store, node_mlp, value_head, norm: None, hint_sets: Hints::bao_hint_sets() }
    }

    pub fn num_arms(&self) -> usize {
        self.hint_sets.len()
    }

    fn plan_value(&self, g: &mut Graph, query: &Query, plan: &PlanNode) -> Var {
        let feats = node_features(self.db, query, plan);
        let rows: Vec<Tensor> = feats.into_iter().map(Tensor::row).collect();
        let refs: Vec<&Tensor> = rows.iter().collect();
        let x = g.constant(Tensor::stack_rows(&refs));
        let h = self.node_mlp.forward(g, &x); // [n, hidden]
        let pooled = g.mean_rows(h);
        self.value_head.forward(g, &pooled)
    }

    /// Gain experience on a training workload: execute the plans produced by
    /// a rotating subset of arms and regress their runtimes.
    pub fn train(&mut self, queries: &[&Query]) {
        assert!(!queries.is_empty(), "Bao training set is empty");
        let ex = Executor::new(self.db);
        let mut experiences: Vec<(Query, PlanNode, f64)> = Vec::new();
        for (qi, q) in queries.iter().enumerate() {
            for a in 0..self.cfg.experiences_per_query.min(self.hint_sets.len()) {
                let arm = (qi + a) % self.hint_sets.len();
                let opt = PgOptimizer::with_hints(self.db, self.hint_sets[arm].clone());
                let plan = opt.plan(q);
                let res = ex.execute(&plan);
                experiences.push(((*q).clone(), plan, res.time_ms));
            }
        }
        self.norm = Some(LogNormalizer::fit(&experiences.iter().map(|e| e.2).collect::<Vec<_>>()));
        let norm = self.norm.clone().expect("just set");
        let mut store = std::mem::take(&mut self.store);
        fit_mse(
            &mut store,
            self.cfg.learning_rate as f32,
            self.cfg.epochs,
            16,
            experiences.len(),
            &mut StdRng::seed_from_u64(self.cfg.seed),
            |g, i| {
                let (q, p, t) = &experiences[i];
                (self.plan_value(g, q, p), norm.encode(*t))
            },
        );
        self.store = store;
    }

    /// Advise: produce every arm's plan, score each with the value model and
    /// return the plan of the best arm (plus the arm index).
    pub fn plan(&self, query: &Query) -> (PlanNode, usize) {
        assert!(self.norm.is_some(), "Bao must be trained first");
        let mut best: Option<(f64, PlanNode, usize)> = None;
        for (arm, hints) in self.hint_sets.iter().enumerate() {
            let opt = PgOptimizer::with_hints(self.db, hints.clone());
            let plan = opt.plan(query);
            let mut g = Graph::new(&self.store);
            let v = self.plan_value(&mut g, query, &plan);
            let score = g.value(v).get(0, 0) as f64;
            if best.as_ref().map(|(s, _, _)| score < *s).unwrap_or(true) {
                best = Some((score, plan, arm));
            }
        }
        let (_, plan, arm) = best.expect("at least one arm");
        (plan, arm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_storage::datagen::imdb;
    use qpseeker_workloads::{synthetic, SyntheticConfig};

    fn setup() -> (Database, Vec<Query>) {
        let db = imdb::generate(0.05, 8);
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 20, seed: 8 });
        let queries = w.qeps.into_iter().map(|q| q.query).collect();
        (db, queries)
    }

    #[test]
    fn trains_and_advises_valid_plans() {
        let (db, queries) = setup();
        let mut bao = Bao::new(&db, BaoConfig { epochs: 4, ..Default::default() });
        let refs: Vec<&Query> = queries.iter().collect();
        bao.train(&refs);
        for q in queries.iter().take(5) {
            let (plan, arm) = bao.plan(q);
            assert!(plan.validate(q).is_ok());
            assert!(arm < bao.num_arms());
        }
    }

    #[test]
    fn arm_choice_is_deterministic_after_training() {
        let (db, queries) = setup();
        let mut bao = Bao::new(&db, BaoConfig { epochs: 3, ..Default::default() });
        let refs: Vec<&Query> = queries.iter().collect();
        bao.train(&refs);
        let (p1, a1) = bao.plan(&queries[0]);
        let (p2, a2) = bao.plan(&queries[0]);
        assert_eq!(a1, a2);
        assert_eq!(p1, p2);
    }

    /// Bao trained for 2 epochs on 20 synthetic queries' experiences.
    #[test]
    #[cfg_attr(
        not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")),
        ignore = "golden constants are for x86_64 Linux glibc: init's Box-Muller and the \
                  log-scaled features and targets call libm"
    )]
    fn trained_weights_match_the_golden_fingerprint() {
        let (db, queries) = setup();
        let mut bao = Bao::new(&db, BaoConfig { epochs: 2, ..Default::default() });
        let refs: Vec<&Query> = queries.iter().collect();
        bao.train(&refs);
        crate::common::assert_weights_golden(&bao.store, "Bao", 0x9170_b077_93c3_bf64);
    }

    #[test]
    fn has_multiple_hint_arms() {
        let (db, _) = setup();
        let bao = Bao::new(&db, BaoConfig::default());
        assert!(bao.num_arms() >= 4);
    }

    #[test]
    #[should_panic(expected = "trained first")]
    fn plan_before_train_panics() {
        let (db, queries) = setup();
        let bao = Bao::new(&db, BaoConfig::default());
        bao.plan(&queries[0]);
    }
}
