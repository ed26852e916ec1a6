//! QPPNet (Marcus & Papaemmanouil): the plan-structured runtime predictor —
//! the paper's execution-time competitor (Table 5).
//!
//! One small MLP ("neural unit") per physical operator type; units are
//! assembled dynamically into a network isomorphic to the plan tree. Each
//! unit consumes its node's features plus the pooled data vectors of its
//! children and emits `[data vector ‖ latency]`; the root's latency output
//! is the prediction.

use crate::common::{fit_mse, node_features, LogNormalizer, NODE_FEAT_DIM};
use qpseeker_engine::plan::{PhysicalOp, PlanNode};
use qpseeker_engine::query::Query;
use qpseeker_nn::prelude::*;
use qpseeker_storage::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// QPPNet hyperparameters.
#[derive(Debug, Clone)]
pub struct QppNetConfig {
    /// Data-vector width passed between units.
    pub data_dim: usize,
    pub hidden: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f64,
    pub seed: u64,
}

impl Default for QppNetConfig {
    fn default() -> Self {
        Self {
            data_dim: 16,
            hidden: 48,
            epochs: 30,
            batch_size: 16,
            learning_rate: 1e-3,
            seed: 0x9909,
        }
    }
}

/// Featurized plan mirror.
struct FeatTree {
    feats: Tensor,
    children: Vec<FeatTree>,
}

/// The QPPNet model.
pub struct QppNet<'a> {
    db: &'a Database,
    cfg: QppNetConfig,
    store: ParamStore,
    /// One unit per operator type, indexed by `PhysicalOp::one_hot_index`.
    units: Vec<Mlp>,
    norm: Option<LogNormalizer>,
}

impl<'a> QppNet<'a> {
    pub fn new(db: &'a Database, cfg: QppNetConfig) -> Self {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(cfg.seed);
        let in_dim = NODE_FEAT_DIM + cfg.data_dim;
        let out_dim = cfg.data_dim + 1;
        let units = (0..PhysicalOp::COUNT)
            .map(|i| {
                Mlp::new(
                    &mut store,
                    &mut init,
                    &format!("qppnet.unit{i}"),
                    &[in_dim, cfg.hidden, cfg.hidden, out_dim],
                    Activation::Relu,
                    Activation::Identity,
                )
            })
            .collect();
        Self { db, cfg, store, units, norm: None }
    }

    fn featurize(&self, query: &Query, plan: &PlanNode) -> FeatTree {
        let flat = node_features(self.db, query, plan);
        let mut idx = 0usize;
        fn build(node: &PlanNode, flat: &[Vec<f32>], idx: &mut usize) -> FeatTree {
            let children = match node {
                PlanNode::Scan { .. } => Vec::new(),
                PlanNode::Join { left, right, .. } => {
                    vec![build(left, flat, idx), build(right, flat, idx)]
                }
            };
            let f = Tensor::row(flat[*idx].clone());
            *idx += 1;
            FeatTree { feats: f, children }
        }
        let mut tree = build(plan, &flat, &mut idx);
        attach_ops(&mut tree, plan);
        tree
    }

    fn forward_node(&self, g: &mut Graph, node: &FeatTree, op_idx: &OpTree) -> Var {
        let child_data = if node.children.is_empty() {
            g.constant(Tensor::zeros(1, self.cfg.data_dim))
        } else {
            let hs: Vec<Var> = node
                .children
                .iter()
                .zip(&op_idx.children)
                .map(|(c, o)| {
                    let out = self.forward_node(g, c, o);
                    g.concat(&[(&out, 0..self.cfg.data_dim)])
                })
                .collect();
            let n = hs.len();
            g.pool(
                hs.iter().map(|h| Row::Of(h, 0)),
                None,
                &[n],
                &[1.0 / n as f32],
                self.cfg.data_dim,
            )
        };
        let f = g.constant(node.feats.clone());
        let input = g.concat(&[(&f, 0..node.feats.cols()), (&child_data, 0..self.cfg.data_dim)]);
        self.units[op_idx.op].forward(g, &input)
    }

    /// Train on (query, plan, true runtime) triples.
    pub fn fit(&mut self, train: &[(&Query, &PlanNode, f64)]) {
        assert!(!train.is_empty(), "QPPNet training set is empty");
        let times: Vec<f64> = train.iter().map(|&(_, _, t)| t).collect();
        self.norm = Some(LogNormalizer::fit(&times));
        let norm = self.norm.clone().expect("just set");
        let feats: Vec<(FeatTree, OpTree, f32)> = train
            .iter()
            .map(|&(q, p, t)| (self.featurize(q, p), OpTree::of(p), norm.encode(t)))
            .collect();
        let mut store = std::mem::take(&mut self.store);
        fit_mse(
            &mut store,
            self.cfg.learning_rate as f32,
            self.cfg.epochs,
            self.cfg.batch_size,
            feats.len(),
            &mut StdRng::seed_from_u64(self.cfg.seed),
            |g, i| {
                let (tree, ops, t) = &feats[i];
                let out = self.forward_node(g, tree, ops);
                (g.concat(&[(&out, self.cfg.data_dim..self.cfg.data_dim + 1)]), *t)
            },
        );
        self.store = store;
    }

    /// Predict the runtime (ms) of a plan.
    pub fn predict(&self, query: &Query, plan: &PlanNode) -> f64 {
        let norm = self.norm.as_ref().expect("QPPNet must be fitted first");
        let tree = self.featurize(query, plan);
        let ops = OpTree::of(plan);
        let mut g = Graph::new(&self.store);
        let out = self.forward_node(&mut g, &tree, &ops);
        norm.decode(g.value(out).get(0, self.cfg.data_dim))
    }
}

/// Operator-type mirror of a plan tree (selects the unit per node).
struct OpTree {
    op: usize,
    children: Vec<OpTree>,
}

impl OpTree {
    fn of(plan: &PlanNode) -> Self {
        let children = match plan {
            PlanNode::Scan { .. } => Vec::new(),
            PlanNode::Join { left, right, .. } => vec![OpTree::of(left), OpTree::of(right)],
        };
        Self { op: plan.physical_op().one_hot_index(), children }
    }
}

fn attach_ops(_tree: &mut FeatTree, _plan: &PlanNode) {
    // FeatTree carries features only; operator routing lives in OpTree.
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_storage::datagen::imdb;
    use qpseeker_workloads::{synthetic, Qep, SyntheticConfig};

    #[test]
    fn qppnet_learns_runtimes() {
        let db = imdb::generate(0.1, 1);
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 100, seed: 6 });
        let (train, eval): (Vec<&Qep>, Vec<&Qep>) = w.split(0.8, false);
        let mut net = QppNet::new(&db, QppNetConfig { epochs: 25, ..Default::default() });
        let triples: Vec<(&Query, &PlanNode, f64)> =
            train.iter().map(|q| (&q.query, &q.plan, q.runtime_ms())).collect();
        net.fit(&triples);
        let mut errs: Vec<f64> = eval
            .iter()
            .map(|q| {
                let p = net.predict(&q.query, &q.plan).max(1e-3);
                let t = q.runtime_ms().max(1e-3);
                (p / t).max(t / p)
            })
            .collect();
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = errs[errs.len() / 2];
        assert!(median < 10.0, "QPPNet median q-error {median}");
    }

    #[test]
    fn per_operator_units_are_distinct() {
        let db = imdb::generate(0.05, 1);
        let net = QppNet::new(&db, QppNetConfig::default());
        assert_eq!(net.units.len(), PhysicalOp::COUNT);
        // Separate parameters per unit.
        assert_ne!(net.units[0].layers[0].w, net.units[1].layers[0].w);
    }

    /// QPPNet fit for 2 epochs in batches of 16 on 20 synthetic QEPs.
    #[test]
    #[cfg_attr(
        not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")),
        ignore = "golden constants are for x86_64 Linux glibc: init's Box-Muller and the \
                  log-scaled features and targets call libm"
    )]
    fn trained_weights_match_the_golden_fingerprint() {
        let db = imdb::generate(0.05, 1);
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 20, seed: 6 });
        let mut net = QppNet::new(&db, QppNetConfig { epochs: 2, ..Default::default() });
        let triples: Vec<(&Query, &PlanNode, f64)> =
            w.qeps.iter().map(|q| (&q.query, &q.plan, q.runtime_ms())).collect();
        net.fit(&triples);
        crate::common::assert_weights_golden(&net.store, "QPPNet", 0x6380_cb0a_cc50_5c02);
    }

    #[test]
    fn deeper_plans_run_through_more_units() {
        let db = imdb::generate(0.05, 1);
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 30, seed: 6 });
        let mut net = QppNet::new(&db, QppNetConfig { epochs: 2, ..Default::default() });
        let triples: Vec<(&Query, &PlanNode, f64)> =
            w.qeps.iter().map(|q| (&q.query, &q.plan, q.runtime_ms())).collect();
        net.fit(&triples);
        for q in w.qeps.iter().take(5) {
            let p = net.predict(&q.query, &q.plan);
            assert!(p.is_finite() && p >= 0.0);
        }
    }
}
