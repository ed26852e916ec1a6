//! Shared helpers for the competitor systems: single-target log
//! normalization, transferable per-plan-node features and the regression
//! fit every model trains with.

use qpseeker_engine::explain::Explain;
use qpseeker_engine::plan::{PhysicalOp, PlanNode};
use qpseeker_engine::query::Query;
use qpseeker_nn::prelude::*;
use qpseeker_storage::Database;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// `ln(1+x)` z-score normalizer for one scalar target.
#[derive(Debug, Clone)]
pub struct LogNormalizer {
    pub mean: f64,
    pub std: f64,
}

impl LogNormalizer {
    /// # Panics
    /// Panics on empty input.
    pub fn fit(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot fit on empty values");
        let logs: Vec<f64> = values.iter().map(|v| v.max(0.0).ln_1p()).collect();
        let mean = logs.iter().sum::<f64>() / logs.len() as f64;
        let var = logs.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / logs.len() as f64;
        Self { mean, std: var.sqrt().max(1e-6) }
    }

    pub fn encode(&self, v: f64) -> f32 {
        ((v.max(0.0).ln_1p() - self.mean) / self.std) as f32
    }

    pub fn decode(&self, n: f32) -> f64 {
        ((n as f64 * self.std + self.mean).clamp(-10.0, 60.0).exp() - 1.0).max(0.0)
    }
}

/// The baselines' regression fit: `epochs` passes over samples `0..n`, each
/// in an order shuffled from `rng`, in chunks of `batch`. A chunk is one
/// tape: `sample(g, i)` gives sample `i`'s `[1, 1]` prediction and its
/// normalized target; the chunk's MSE is backpropagated, the gradient
/// clipped to norm 5, and Adam at `learning_rate` takes one step. Callers
/// move their store out (`std::mem::take`) so that `sample` can borrow the
/// rest of the model.
pub(crate) fn fit_mse(
    store: &mut ParamStore,
    learning_rate: f32,
    epochs: usize,
    batch: usize,
    n: usize,
    rng: &mut StdRng,
    mut sample: impl FnMut(&mut Graph, usize) -> (Var, f32),
) {
    let mut opt = Adam::new(learning_rate);
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..epochs {
        order.shuffle(rng);
        for chunk in order.chunks(batch) {
            store.zero_grads();
            let mut g = Graph::new(store);
            let (preds, targets): (Vec<Var>, Vec<f32>) =
                chunk.iter().map(|&i| sample(&mut g, i)).unzip();
            let pred = g.gather(preds.len(), 1, preds.iter().map(|p| Row::Of(p, 0)));
            let t = g.constant(Tensor::from_vec(targets.len(), 1, targets));
            let loss = g.mse(pred, t);
            let (_, grads) = g.backward(loss);
            grads.merge_into(store);
            store.clip_grad_norm(5.0);
            opt.step(store);
        }
    }
}

/// Number of transferable per-node features (see [`node_features`]).
pub const NODE_FEAT_DIM: usize = PhysicalOp::COUNT + 7;

/// Schema-agnostic ("zero-shot transferable") features of every plan node,
/// postorder. Only quantities that exist in any database appear: operator
/// one-hot, log-scaled EXPLAIN estimates, base-table size/blocks for scans,
/// predicate counts and estimated selectivity.
pub fn node_features(db: &Database, query: &Query, plan: &PlanNode) -> Vec<Vec<f32>> {
    let explain = Explain::new(db);
    let estimates = explain.explain(query, plan);
    let nodes = plan.postorder();
    nodes
        .iter()
        .zip(&estimates)
        .map(|(node, est)| {
            let mut f = vec![0.0f32; NODE_FEAT_DIM];
            f[node.physical_op().one_hot_index()] = 1.0;
            let base = PhysicalOp::COUNT;
            f[base] = (est.rows.max(0.0).ln_1p() / 20.0) as f32;
            f[base + 1] = (est.cost.max(0.0).ln_1p() / 20.0) as f32;
            f[base + 2] = (est.time_ms.max(0.0).ln_1p() / 15.0) as f32;
            match node {
                PlanNode::Scan { table, filters, .. } => {
                    let stats = db.table_stats(table).expect("stats exist");
                    f[base + 3] = ((stats.n_rows as f64).ln_1p() / 20.0) as f32;
                    f[base + 4] = ((stats.n_blocks as f64).ln_1p() / 15.0) as f32;
                    f[base + 5] = filters.len() as f32 / 8.0;
                    f[base + 6] = (est.rows / stats.n_rows.max(1) as f64) as f32;
                    // selectivity
                }
                PlanNode::Join { preds, .. } => {
                    f[base + 5] = preds.len() as f32 / 8.0;
                }
            }
            f
        })
        .collect()
}

/// Assert that `store`'s trained weights match a golden fingerprint: FNV-1a
/// over every parameter's `to_bits()` in `ParamStore::iter` order. Every
/// kernel tier computes the same bits, so one constant holds on all.
#[cfg(test)]
pub(crate) fn assert_weights_golden(store: &ParamStore, what: &str, want: u64) {
    let bits: Vec<u64> = store
        .iter()
        .flat_map(|(_, p)| p.value.data().iter().map(|x| u64::from(x.to_bits())))
        .collect();
    let got = qpseeker_storage::fnv::words(&bits);
    assert_eq!(
        got,
        want,
        "{what}'s trained weights moved (kernel tier {}): {got:#018x}",
        qpseeker_nn::isa::active().name()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_engine::plan::{JoinOp, ScanOp};
    use qpseeker_engine::query::{ColRef, JoinPred, RelRef};
    use qpseeker_storage::datagen::imdb;

    #[test]
    fn log_normalizer_round_trip() {
        let n = LogNormalizer::fit(&[1.0, 10.0, 100.0, 1000.0]);
        for v in [2.0, 50.0, 800.0] {
            let d = n.decode(n.encode(v));
            assert!((d - v).abs() < 0.01 * (1.0 + v), "{d} vs {v}");
        }
    }

    #[test]
    fn node_features_shape_and_content() {
        let db = imdb::generate(0.05, 1);
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("title"), RelRef::new("movie_info")];
        q.joins = vec![JoinPred {
            left: ColRef::new("movie_info", "movie_id"),
            right: ColRef::new("title", "id"),
        }];
        let plan = PlanNode::join(
            &q,
            JoinOp::HashJoin,
            PlanNode::scan(&q, "title", ScanOp::SeqScan),
            PlanNode::scan(&q, "movie_info", ScanOp::SeqScan),
        );
        let feats = node_features(&db, &q, &plan);
        assert_eq!(feats.len(), 3);
        for f in &feats {
            assert_eq!(f.len(), NODE_FEAT_DIM);
            assert!(f.iter().all(|v| v.is_finite()));
            // Exactly one operator bit set.
            assert_eq!(f[..PhysicalOp::COUNT].iter().filter(|&&v| v == 1.0).count(), 1);
        }
        // Scans carry table-size features, joins do not.
        assert!(feats[0][PhysicalOp::COUNT + 3] > 0.0);
        assert_eq!(feats[2][PhysicalOp::COUNT + 3], 0.0);
    }

    #[test]
    fn features_are_schema_agnostic_across_databases() {
        // The same code path must produce features on a totally different
        // schema (the zero-shot premise).
        let db = qpseeker_storage::datagen::synthdb::generate("z", 4, 200, 1);
        let t0 = "z_t1".to_string();
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new(t0.clone())];
        let plan = PlanNode::scan(&q, &t0, ScanOp::SeqScan);
        let feats = node_features(&db, &q, &plan);
        assert_eq!(feats.len(), 1);
        assert_eq!(feats[0].len(), NODE_FEAT_DIM);
    }
}
