//! The Query Encoder (§4.1) and Plan Encoder (§4.2).

use crate::config::ModelConfig;
use crate::featurize::{FeatNode, QueryFeatures};
use qpseeker_nn::prelude::*;

/// MSCN-style set encoder: relations and joins each go through an MLP
/// applied row-wise, masked mean pooling collapses each set, and the two
/// pooled vectors are concatenated into the query embedding.
#[derive(Debug, Clone)]
pub struct QueryEncoder {
    pub rel_mlp: Mlp,
    pub join_mlp: Mlp,
    out_dim: usize,
}

impl QueryEncoder {
    pub fn new(
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

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Encode one query's set features → `[1, query_dim]`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, feats: &QueryFeatures) -> Var {
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
    pub fn forward_inference(
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
pub struct PlanEncoder {
    pub cell: LstmCell,
    data_dim: usize,
    out_dim: usize,
}

/// The encoder's result for one plan.
pub struct EncodedPlan {
    /// `[n_nodes, out_dim]` stacked node outputs, postorder.
    pub nodes: Var,
    /// The root node's output `[1, out_dim]`.
    pub root: Var,
    /// Per-node output vars in postorder (for the auxiliary node loss).
    pub node_vars: Vec<Var>,
}

impl PlanEncoder {
    pub fn new(
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

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Encode a featurized plan tree.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, plan: &FeatNode) -> EncodedPlan {
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

    /// Tape-free [`Self::forward`] over `K` **shape-congruent** plans (same
    /// tree structure and feature widths — e.g. left-deep MCTS candidates
    /// for one query; a single plan is `K = 1`). Returns
    /// `[K * n_nodes, out_dim]` with plan `p`'s postorder rows at
    /// `p * n_nodes ..` (root = last row of the block), built entirely from
    /// scratch buffers — recycle it when done — or `None` when the trees are
    /// not congruent.
    ///
    /// Each tree position is ONE `rows = K` LSTM step, so the cell's GEMMs
    /// amortize weight traffic across the whole batch. Row `p` is bitwise
    /// identical for every `K` and every partition of the plans into calls:
    /// the matmul kernel guarantees per-row reduction order, and every other
    /// op here (state pooling, gate math, input assembly) is
    /// row-independent.
    pub fn forward_inference(
        &self,
        store: &ParamStore,
        plans: &[&FeatNode],
        sc: &mut ScratchArena,
    ) -> Option<Tensor> {
        let (first, rest) = plans.split_first()?;
        if !rest.iter().all(|p| congruent(first, p)) {
            return None;
        }
        let n_nodes = first.count();
        let mut out = sc.take(plans.len() * n_nodes, self.out_dim);
        let mut pos = 0usize;
        let root = self.node_inference(store, plans, &mut out, n_nodes, &mut pos, sc);
        root.recycle(sc);
        Some(out)
    }

    /// One tree position for all K plans at once: `nodes_at[p]` is plan `p`'s
    /// node at this position.
    fn node_inference(
        &self,
        store: &ParamStore,
        nodes_at: &[&FeatNode],
        out: &mut Tensor,
        n_nodes: usize,
        pos: &mut usize,
        sc: &mut ScratchArena,
    ) -> LstmStateBuf {
        let kn = nodes_at.len();
        let node0 = nodes_at[0];
        let mid_cols = node0.mid.cols();
        // The estimate slot is always out_dim - data_dim = 3 wide.
        let input_dim = self.data_dim + mid_cols + (self.out_dim - self.data_dim);
        let (input, state_in) = if node0.children.is_empty() {
            // Leaf: zero padding for the child-data slot, EXPLAIN estimates
            // in the estimate slot, zero initial LSTM state.
            let mut input = sc.take(kn, input_dim);
            for (r, nd) in nodes_at.iter().enumerate() {
                let est = nd.leaf_est.as_ref().expect("leaf featurization includes estimates");
                let d = input.row_slice_mut(r);
                d[self.data_dim..self.data_dim + mid_cols].copy_from_slice(nd.mid.data());
                d[self.data_dim + mid_cols..].copy_from_slice(est.data());
            }
            (input, self.cell.zero_state_buf(kn, sc))
        } else {
            // Sum child h/c states in child order (matching the tape's
            // stack_rows + mean_rows accumulation), then scale to the mean.
            // The pooled h doubles as the parent's child-data/estimate input.
            let mut hsum = sc.take(kn, self.out_dim);
            let mut csum = sc.take(kn, self.out_dim);
            let mut child_col: Vec<&FeatNode> = Vec::with_capacity(kn);
            for ci in 0..node0.children.len() {
                child_col.clear();
                child_col.extend(nodes_at.iter().map(|nd| &nd.children[ci]));
                let s = self.node_inference(store, &child_col, out, n_nodes, pos, sc);
                for (a, v) in hsum.data_mut().iter_mut().zip(s.h.data()) {
                    *a += v;
                }
                for (a, v) in csum.data_mut().iter_mut().zip(s.c.data()) {
                    *a += v;
                }
                s.recycle(sc);
            }
            let inv = 1.0 / node0.children.len().max(1) as f32;
            for a in hsum.data_mut() {
                *a *= inv;
            }
            for a in csum.data_mut() {
                *a *= inv;
            }
            let mut input = sc.take(kn, input_dim);
            for (r, nd) in nodes_at.iter().enumerate() {
                let d = input.row_slice_mut(r);
                let pooled = hsum.row_slice(r);
                d[..self.data_dim].copy_from_slice(&pooled[..self.data_dim]);
                d[self.data_dim..self.data_dim + mid_cols].copy_from_slice(nd.mid.data());
                d[self.data_dim + mid_cols..].copy_from_slice(&pooled[self.data_dim..]);
            }
            (input, LstmStateBuf { h: hsum, c: csum })
        };
        let out_state = self.cell.step_inference(store, &input, &state_in, sc);
        sc.recycle(input);
        state_in.recycle(sc);
        for r in 0..kn {
            out.row_slice_mut(r * n_nodes + *pos).copy_from_slice(out_state.h.row_slice(r));
        }
        *pos += 1;
        out_state
    }
}

/// Structural congruence: same tree shape and per-node feature widths, so the
/// K plans can share one batched LSTM step per tree position.
pub(crate) fn congruent(a: &FeatNode, b: &FeatNode) -> bool {
    a.children.len() == b.children.len()
        && a.mid.cols() == b.mid.cols()
        && a.leaf_est.is_some() == b.leaf_est.is_some()
        && a.children.iter().zip(&b.children).all(|(x, y)| congruent(x, y))
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
        let fq = f.featurize(&mut sess, &q, &plan, Some(&truth), &norm, "t");
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
        let fa = f.featurize(&mut sess, &q, &mk(JoinOp::HashJoin), None, &norm, "t");
        let fb = f.featurize(&mut sess, &q, &mk(JoinOp::NestedLoopJoin), None, &norm, "t");
        let mut g = Graph::new();
        let ea = penc.forward(&mut g, &store, &fa.plan);
        let eb = penc.forward(&mut g, &store, &fb.plan);
        assert_ne!(g.value(ea.root).data(), g.value(eb.root).data());
    }

    /// K plans in one call ≡ K one-plan calls ≡ any partition into calls,
    /// node for node, bit for bit.
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
        // Three congruent left-deep candidates: different join orders and ops.
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
        let feats: Vec<_> = [
            mk("title", "movie_info", "movie_keyword", JoinOp::HashJoin),
            mk("movie_info", "title", "movie_keyword", JoinOp::NestedLoopJoin),
            mk("movie_keyword", "title", "movie_info", JoinOp::MergeJoin),
        ]
        .iter()
        .map(|p| f.featurize(&mut sess, &q, p, None, &norm, "t").plan)
        .collect();
        let refs: Vec<&FeatNode> = feats.iter().collect();
        let mut sc = ScratchArena::new();
        let whole = penc
            .forward_inference(&store, &refs, &mut sc)
            .expect("left-deep candidates are congruent");
        let n = feats[0].count();
        assert_eq!(whole.shape(), (3 * n, cfg.plan_node_out));
        // Partitions {0},{1},{2} (one-plan calls) and {0,1},{2}.
        for parts in [vec![0..1, 1..2, 2..3], vec![0..2, 2..3]] {
            for part in parts {
                let enc = penc
                    .forward_inference(&store, &refs[part.clone()], &mut sc)
                    .expect("a sub-batch of congruent plans is congruent");
                for p in part.clone() {
                    for r in 0..n {
                        assert_eq!(
                            whole.row_slice(p * n + r),
                            enc.row_slice((p - part.start) * n + r),
                            "plan {p} node {r}: encoding depends on batch composition"
                        );
                    }
                }
                sc.recycle(enc);
            }
        }
        // Non-congruent input (different node count) is refused.
        let bushy = PlanNode::scan(&q, "title", ScanOp::SeqScan);
        let fb = f.featurize(&mut sess, &q, &bushy, None, &norm, "t").plan;
        assert!(penc.forward_inference(&store, &[&feats[0], &fb], &mut sc).is_none());
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
        let fq = f.featurize(&mut sess, &q, &plan, None, &norm, "t");
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
