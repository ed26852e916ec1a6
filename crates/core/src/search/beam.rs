//! Deterministic beam search over the bushy plan space, with
//! rollout-completed scoring.
//!
//! Level-synchronous: level 0 realizes every relation as a leaf subtree
//! (scan operators picked by one coordinate-descent pass), and each
//! following level merges two connected subtrees in every kept state, so
//! after `n - 1` levels every surviving state is one complete — possibly
//! bushy — plan. Per level the search enumerates, for each of the
//! `beam_width` kept states, every connected subtree pair × both
//! orientations × all join operators, and dedupes resulting forests by
//! hashed signature (neurdb's `Fringe`-style closed set).
//!
//! **Scoring.** The cost model is trained on *complete* plans only, so
//! partial-forest scores are out-of-distribution noise. Every candidate
//! state is therefore scored by greedily completing its forest to a full
//! plan (first joinable pair, hash join) and evaluating that completion
//! through the shared `Evaluator` (batched, memoized by the completion's
//! postorder signature). Ranking thus directly minimizes the same
//! objective left-deep MCTS optimizes, and the search returns the
//! best-scoring complete plan seen anywhere — at the final level the
//! completions are the states themselves.
//!
//! The search is RNG-free: enumeration orders are fixed (states by rank,
//! pairs by position, operators in `JoinOp::ALL` order), selection is a
//! stable sort with `f64::total_cmp`, and ties keep enumeration order —
//! so results are identical across runs, worker counts, and batch
//! layouts (batched scoring is row-wise bitwise equal to scalar).
//!
//! Compared to left-deep MCTS, beam search spends its evaluation budget
//! systematically near the greedy frontier instead of sampling the
//! factorially large order space, which wins on large (≥ 8 relation)
//! queries where MCTS coverage is necessarily sparse — and it can emit
//! bushy shapes MCTS cannot represent at all.

use super::bushy::{joinable, BushyAssembler, SubTree};
use super::mcts::{MctsConfig, MctsResult};
use super::strategy::{Evaluator, RiskParams};
use super::{op_idx_join, op_idx_scan, QueryIndex};
use crate::featurize::FeatSession;
use crate::model::{QPSeeker, QueryContext};
use crate::session::PlannerSession;
use qpseeker_engine::plan::{JoinOp, PlanNode, ScanOp};
use qpseeker_engine::query::Query;
use qpseeker_storage::fnv::{self, FnvBuild};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Reusable beam-search state, cleared per query: the completed-plan
/// evaluation cache (keyed by exact postorder signature), the forest
/// closed set, and the scoring buffers. Lives in a
/// [`crate::session::SearchScratch`] so a serving worker reuses
/// allocations across queries.
#[derive(Default)]
pub(crate) struct BeamScratch {
    /// Greedy-completion signature → evaluator score.
    eval_cache: HashMap<Vec<u64>, f64, FnvBuild>,
    /// Hashes of forests already enqueued as candidates. A collision can
    /// only drop a duplicate-looking state, never corrupt a score.
    seen: HashSet<u64, FnvBuild>,
    scores_buf: Vec<f64>,
}

/// One beam state: a forest of realized subtrees with disjoint masks,
/// kept sorted by mask for canonical identity. States carry no score of
/// their own — candidates are ranked by their greedy completion's score.
struct BeamState {
    trees: Vec<SubTree>,
}

/// One candidate merge: join `trees[left] ⋈op trees[right]` of
/// `beam[parent]`. `comp_sig` identifies the greedy completion of the
/// resulting forest; `score` is that completion's evaluator score.
struct Candidate {
    parent: usize,
    left: usize,
    right: usize,
    op: JoinOp,
    sig: Vec<u64>,
    comp_sig: Vec<u64>,
    score: f64,
}

/// Greedily complete a forest to one tree: repeatedly join the first
/// joinable pair (first pair at all when none is joinable — a cross join
/// on a disconnected query) with the first join operator. Deterministic,
/// evaluation-free; the result is what a candidate state is scored on.
fn greedy_complete(qi: &QueryIndex, asm: &BushyAssembler, state: &[SubTree]) -> SubTree {
    if state.len() == 1 {
        return state[0].clone();
    }
    let mut trees: Vec<SubTree> = state.to_vec();
    while trees.len() > 1 {
        let mut pick = (0usize, 1usize);
        'outer: for i in 0..trees.len() {
            for j in i + 1..trees.len() {
                if joinable(qi, trees[i].mask, trees[j].mask) {
                    pick = (i, j);
                    break 'outer;
                }
            }
        }
        let (i, j) = pick;
        let merged = SubTree {
            mask: trees[i].mask | trees[j].mask,
            sig: SubTree::joined_sig(&trees[i], &trees[j], JoinOp::ALL[0]),
            plan: asm.join(JoinOp::ALL[0], &trees[i], &trees[j]),
        };
        trees.remove(j);
        trees.remove(i);
        trees.push(merged);
        trees.sort_by_key(|t| t.mask);
    }
    trees.pop().expect("one tree remains")
}

/// Nodes in `plan`, for postorder indexing.
fn node_count(plan: &PlanNode) -> usize {
    match plan {
        PlanNode::Scan { .. } => 1,
        PlanNode::Join { left, right, .. } => node_count(left) + node_count(right) + 1,
    }
}

/// Replace the operator of postorder node `target` with the `k`-th of its
/// kind (`ScanOp::ALL` for scans, `JoinOp::ALL` for joins). Returns the
/// index of the operator previously there.
fn set_node_op(plan: &mut PlanNode, target: usize, k: usize, counter: &mut usize) -> Option<usize> {
    match plan {
        PlanNode::Scan { op, .. } => {
            let here = *counter;
            *counter += 1;
            (here == target).then(|| {
                let old = op_idx_scan(*op) as usize;
                *op = ScanOp::ALL[k];
                old
            })
        }
        PlanNode::Join { op, left, right, .. } => {
            if let Some(old) = set_node_op(left, target, k, counter) {
                return Some(old);
            }
            if let Some(old) = set_node_op(right, target, k, counter) {
                return Some(old);
            }
            let here = *counter;
            *counter += 1;
            (here == target).then(|| {
                let old = op_idx_join(*op) as usize;
                *op = JoinOp::ALL[k];
                old
            })
        }
    }
}

/// The beam-search planner over the bushy action space.
pub struct BeamPlanner {
    /// The search budget shared with the left-deep planner: `budget_ms`
    /// (wall clock) and `max_simulations` (a soft cap on cost-model
    /// evaluations) are both checked per level; `seed` feeds the risk-aware
    /// latent sampler only (the search itself is RNG-free).
    cfg: MctsConfig,
    /// States kept per level.
    width: usize,
    risk: Option<RiskParams>,
}

impl BeamPlanner {
    /// Beam search keeping `beam_width` states per level, ranking
    /// candidates by `mean + λ·σ` over seeded VAE latent samples, or by the
    /// mean alone when `risk` is disabled.
    pub(crate) fn with_risk(cfg: MctsConfig, beam_width: usize, risk: RiskParams) -> Self {
        Self { cfg, width: beam_width.max(1), risk: risk.enabled().then_some(risk) }
    }

    /// Plan `query` with all mutable state in `sess`.
    pub(crate) fn plan_with_session(
        &self,
        model: &QPSeeker,
        query: &Query,
        sess: &mut PlannerSession,
    ) -> MctsResult {
        assert!(!query.relations.is_empty(), "cannot plan an empty query");
        let start = Instant::now();
        let PlannerSession { feat, search, broker, memo } = sess;
        let ev = Evaluator::new(model, query, self.risk.as_ref(), self.cfg.seed, broker.as_ref());
        let mut ctx = model.query_context_reusing(query, std::mem::take(memo));
        let qi = QueryIndex::new(query);
        let asm = BushyAssembler::new(query);
        let scratch = search.beam();
        scratch.eval_cache.clear();
        scratch.seen.clear();
        let width = self.width;
        let n = qi.n;

        // ---- Single relation: evaluate the three scans directly ----
        if n == 1 {
            let scan_plans: Vec<PlanNode> = ScanOp::ALL.iter().map(|&op| asm.scan(0, op)).collect();
            let scan_refs: Vec<&PlanNode> = scan_plans.iter().collect();
            ev.score(feat, query, &scan_refs, &mut ctx, &mut scratch.scores_buf);
            let mut best = (0usize, scratch.scores_buf[0]);
            for (k, &s) in scratch.scores_buf.iter().enumerate().skip(1) {
                if s < best.1 {
                    best = (k, s);
                }
            }
            let nodes_encoded = ctx.finish(memo);
            return MctsResult {
                plan: scan_plans[best.0].clone(),
                predicted_ms: best.1,
                simulations: 3,
                plans_evaluated: 3,
                nodes_encoded,
                budget_exhausted: false,
            };
        }

        // ---- Level 0: pick each relation's scan by coordinate descent
        // on greedy completions (every evaluation is a complete plan) ----
        let mut best: Option<(f64, SubTree)> = None;
        let mut evals = 0usize;
        let mut scan_choice = vec![0usize; n];
        for rel in 0..n {
            let mut comps: Vec<SubTree> = Vec::with_capacity(3);
            for k in 0..3 {
                let leaves: Vec<SubTree> = (0..n)
                    .map(|r| {
                        let op = ScanOp::ALL[if r == rel { k } else { scan_choice[r] }];
                        SubTree::leaf(&asm, r as u32, op)
                    })
                    .collect();
                comps.push(greedy_complete(&qi, &asm, &leaves));
            }
            let scores = self.score_completions(
                &ev, feat, query, &comps, &mut ctx, scratch, &mut evals, &mut best,
            );
            let mut pick = (0usize, scores[0]);
            for (k, &s) in scores.iter().enumerate().skip(1) {
                if s < pick.1 {
                    pick = (k, s);
                }
            }
            scan_choice[rel] = pick.0;
        }
        let trees: Vec<SubTree> =
            (0..n).map(|r| SubTree::leaf(&asm, r as u32, ScanOp::ALL[scan_choice[r]])).collect();

        let mut beam = vec![BeamState { trees }];
        let mut simulations = 0usize;
        let mut budget_exhausted = false;

        // ---- Levels 1..n-1: merge two subtrees per kept state ----
        for _level in 1..n {
            if start.elapsed().as_secs_f64() * 1000.0 > self.cfg.budget_ms
                || evals >= self.cfg.max_simulations
            {
                budget_exhausted = true;
                break;
            }

            // Enumerate candidate merges in fixed order.
            let mut cands: Vec<Candidate> = Vec::new();
            for (pi, state) in beam.iter().enumerate() {
                let k = state.trees.len();
                // On a disconnected query a state can reach a point where
                // no pair shares a predicate; only then are cross joins
                // admitted, mirroring the engine's validation rule.
                let any_joinable = (0..k).any(|i| {
                    (i + 1..k).any(|j| joinable(&qi, state.trees[i].mask, state.trees[j].mask))
                });
                for i in 0..k {
                    for j in i + 1..k {
                        let connected = joinable(&qi, state.trees[i].mask, state.trees[j].mask);
                        if any_joinable && !connected {
                            continue;
                        }
                        for (l, r) in [(i, j), (j, i)] {
                            for op in JoinOp::ALL {
                                let sig = SubTree::joined_sig(&state.trees[l], &state.trees[r], op);
                                let mut forest: Vec<u64> = state
                                    .trees
                                    .iter()
                                    .enumerate()
                                    .filter(|&(t, _)| t != i && t != j)
                                    .map(|(_, t)| fnv::words(&t.sig))
                                    .collect();
                                forest.push(fnv::words(&sig));
                                forest.sort_unstable();
                                if !scratch.seen.insert(fnv::words(&forest)) {
                                    continue;
                                }
                                cands.push(Candidate {
                                    parent: pi,
                                    left: l,
                                    right: r,
                                    op,
                                    sig,
                                    comp_sig: Vec::new(),
                                    score: 0.0,
                                });
                            }
                        }
                    }
                }
            }
            simulations += cands.len();
            if cands.is_empty() {
                break;
            }

            // Complete each candidate's forest greedily and score the
            // completions — full plans — memoized by completion signature.
            let mut comps: Vec<SubTree> = Vec::with_capacity(cands.len());
            for c in &mut cands {
                let parent = &beam[c.parent];
                let merged = SubTree {
                    mask: parent.trees[c.left].mask | parent.trees[c.right].mask,
                    sig: c.sig.clone(),
                    plan: asm.join(c.op, &parent.trees[c.left], &parent.trees[c.right]),
                };
                let mut forest: Vec<SubTree> = parent
                    .trees
                    .iter()
                    .enumerate()
                    .filter(|&(t, _)| t != c.left && t != c.right)
                    .map(|(_, t)| t.clone())
                    .collect();
                forest.push(merged);
                forest.sort_by_key(|t| t.mask);
                let comp = greedy_complete(&qi, &asm, &forest);
                c.comp_sig = comp.sig.clone();
                comps.push(comp);
            }
            let scores = self.score_completions(
                &ev, feat, query, &comps, &mut ctx, scratch, &mut evals, &mut best,
            );
            for (c, s) in cands.iter_mut().zip(&scores) {
                c.score = *s;
            }

            // Stable selection: score ascending, ties keep enumeration
            // order.
            let mut order: Vec<usize> = (0..cands.len()).collect();
            order.sort_by(|&a, &b| cands[a].score.total_cmp(&cands[b].score));
            order.truncate(width);

            let mut next = Vec::with_capacity(order.len());
            for &ci in &order {
                let c = &cands[ci];
                let parent = &beam[c.parent];
                let merged = SubTree {
                    mask: parent.trees[c.left].mask | parent.trees[c.right].mask,
                    sig: c.sig.clone(),
                    plan: asm.join(c.op, &parent.trees[c.left], &parent.trees[c.right]),
                };
                let mut trees: Vec<SubTree> = parent
                    .trees
                    .iter()
                    .enumerate()
                    .filter(|&(t, _)| t != c.left && t != c.right)
                    .map(|(_, t)| t.clone())
                    .collect();
                trees.push(merged);
                trees.sort_by_key(|t| t.mask);
                next.push(BeamState { trees });
            }
            beam = next;
        }

        // Best complete plan scored anywhere in the search — at the final
        // level the candidate completions are the states themselves, and
        // under a budget cut-off this is the best rollout seen so far.
        let (mut best_score, best_tree) = best.expect("scored at least one complete plan");
        let mut plan = best_tree.plan;

        // ---- Operator polish: coordinate descent over scan and join
        // operators on the winning structure. The beam commits operators
        // level by level; this pass re-selects each one against the final
        // plan (the jointly-optimal choice MCTS searches for), keeping a
        // variant only when it strictly improves the score.
        let total = node_count(&plan);
        for target in 0..total {
            if start.elapsed().as_secs_f64() * 1000.0 > self.cfg.budget_ms
                || evals >= self.cfg.max_simulations
            {
                budget_exhausted = true;
                break;
            }
            for k in 0..3 {
                let mut cand = plan.clone();
                let mut counter = 0usize;
                let old = set_node_op(&mut cand, target, k, &mut counter).expect("target in range");
                if old == k {
                    continue;
                }
                ev.score(feat, query, &[&cand], &mut ctx, &mut scratch.scores_buf);
                let s = scratch.scores_buf[0];
                evals += 1;
                if s < best_score {
                    best_score = s;
                    plan = cand;
                }
            }
        }

        let nodes_encoded = ctx.finish(memo);
        MctsResult {
            plan,
            predicted_ms: best_score,
            simulations,
            plans_evaluated: evals,
            nodes_encoded,
            budget_exhausted,
        }
    }

    /// Score the greedy completions in `comps`, memoizing by completion
    /// signature, charging only fresh evaluations to `evals`, and folding
    /// each fresh score into `best`. Returns the per-completion scores.
    #[allow(clippy::too_many_arguments)]
    fn score_completions(
        &self,
        ev: &Evaluator,
        feat: &mut FeatSession,
        query: &Query,
        comps: &[SubTree],
        ctx: &mut QueryContext,
        scratch: &mut BeamScratch,
        evals: &mut usize,
        best: &mut Option<(f64, SubTree)>,
    ) -> Vec<f64> {
        let mut miss_index: HashMap<Vec<u64>, usize, FnvBuild> = HashMap::default();
        let mut miss: Vec<&SubTree> = Vec::new();
        for c in comps {
            if scratch.eval_cache.contains_key(&c.sig) || miss_index.contains_key(&c.sig) {
                continue;
            }
            miss_index.insert(c.sig.clone(), miss.len());
            miss.push(c);
        }
        if !miss.is_empty() {
            let refs: Vec<&PlanNode> = miss.iter().map(|t| &t.plan).collect();
            ev.score(feat, query, &refs, ctx, &mut scratch.scores_buf);
            *evals += miss.len();
            for (i, t) in miss.iter().enumerate() {
                let s = scratch.scores_buf[i];
                scratch.eval_cache.insert(t.sig.clone(), s);
                let better = match best {
                    Some((b, _)) => s < *b,
                    None => true,
                };
                if better {
                    *best = Some((s, (*t).clone()));
                }
            }
        }
        comps.iter().map(|c| scratch.eval_cache[&c.sig]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use qpseeker_engine::query::{ColRef, JoinPred, RelRef};
    use qpseeker_storage::datagen::imdb;
    use qpseeker_workloads::{synthetic, Qep, SyntheticConfig};

    fn fitted_model(db: &std::sync::Arc<qpseeker_storage::Database>) -> QPSeeker {
        let w = synthetic::generate(db, &SyntheticConfig { n_queries: 16, seed: 3 });
        let refs: Vec<&Qep> = w.qeps.iter().collect();
        let mut m = QPSeeker::new(db, ModelConfig::small());
        m.fit(&refs).expect("training succeeds");
        m
    }

    /// Mean-scored beam search of width 8 on a fresh session.
    fn plan(model: &QPSeeker, q: &Query, cfg: MctsConfig) -> MctsResult {
        let mean_only = RiskParams { lambda: 0.0, samples: 0 };
        BeamPlanner::with_risk(cfg, 8, mean_only).plan_with_session(
            model,
            q,
            &mut PlannerSession::new(),
        )
    }

    fn three_way(db: &qpseeker_storage::Database) -> Query {
        let _ = db;
        let mut q = Query::new("beam-q");
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
        q
    }

    #[test]
    fn produces_valid_plan_over_bushy_space() {
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let model = fitted_model(&db);
        let q = three_way(&db);
        let res = plan(&model, &q, MctsConfig { budget_ms: 1e9, ..Default::default() });
        assert!(res.plan.validate(&q).is_ok());
        assert!(res.plans_evaluated > 0);
        assert!(res.predicted_ms.is_finite());
        assert!(!res.budget_exhausted);
    }

    #[test]
    fn deterministic_across_runs_and_batch_layouts() {
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let model = fitted_model(&db);
        let q = three_way(&db);
        use crate::search::strategy::{StrategyConfig, StrategyKind, StrategyPlanner};
        let plan_at = |batch_eval| {
            let strat =
                StrategyConfig { kind: StrategyKind::Beam, batch_eval, ..Default::default() };
            let shared = MctsConfig { budget_ms: 1e9, ..Default::default() };
            StrategyPlanner::from_config(&strat, shared).plan_with_session(
                &model,
                &q,
                &mut PlannerSession::new(),
            )
        };
        let (a, b, scalar) = (plan_at(None), plan_at(None), plan_at(Some(1)));
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.predicted_ms.to_bits(), b.predicted_ms.to_bits());
        assert_eq!(a.plan, scalar.plan);
        assert_eq!(a.predicted_ms.to_bits(), scalar.predicted_ms.to_bits());
        assert_eq!(a.plans_evaluated, scalar.plans_evaluated);
    }

    #[test]
    fn beam_explores_bushy_shapes_on_star_query() {
        // Four relations joined star-style through `title`: the bushy
        // space admits shapes like (t ⋈ mi) ⋈ (t? ..) that left-deep
        // search cannot represent. The chosen plan must still validate;
        // whether it ends up bushy is the model's call, but the search
        // must at least have enumerated such states (candidate count
        // strictly exceeds the left-deep orientation count).
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let model = fitted_model(&db);
        let mut q = three_way(&db);
        q.relations.push(RelRef::new("cast_info"));
        q.joins.push(JoinPred {
            left: ColRef::new("cast_info", "movie_id"),
            right: ColRef::new("title", "id"),
        });
        let res = plan(&model, &q, MctsConfig { budget_ms: 1e9, ..Default::default() });
        assert!(res.plan.validate(&q).is_ok());
        assert!(res.predicted_ms.is_finite());
        assert!(res.simulations > 0);
    }

    #[test]
    fn single_relation_query_picks_a_scan() {
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let model = fitted_model(&db);
        let mut q = Query::new("single-beam");
        q.relations = vec![RelRef::new("title")];
        let res = plan(&model, &q, MctsConfig::default());
        assert!(matches!(res.plan, PlanNode::Scan { .. }));
        assert_eq!(res.plans_evaluated, 3);
    }
}
