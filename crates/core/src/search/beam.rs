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

use super::bushy::{joinable, SubTree};
use super::mcts::MctsConfig;
use super::strategy::{Evaluator, Found};
use super::{op_idx_join, op_idx_scan, QueryIndex};
use qpseeker_engine::plan::{JoinOp, PlanNode, ScanOp};
use qpseeker_storage::fnv::{self, FnvBuild};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Reusable beam-search state, cleared per query: the completed-plan
/// evaluation cache (keyed by exact postorder signature), the forest
/// closed set, and the scoring buffers. Lives in a
/// [`crate::session::PlannerSession`] so a serving worker reuses
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

impl BeamState {
    /// The forest after joining `trees[left] ⋈op trees[right]`, kept
    /// sorted by mask.
    fn merged(&self, qi: &QueryIndex, left: usize, right: usize, op: JoinOp) -> Vec<SubTree> {
        let mut trees: Vec<SubTree> = self
            .trees
            .iter()
            .enumerate()
            .filter(|&(t, _)| t != left && t != right)
            .map(|(_, t)| t.clone())
            .collect();
        trees.push(SubTree::join(qi, op, &self.trees[left], &self.trees[right]));
        trees.sort_by_key(|t| t.mask);
        trees
    }
}

/// One candidate merge: join `trees[left] ⋈op trees[right]` of
/// `beam[parent]`. `score` is the evaluator score of the resulting
/// forest's greedy completion.
struct Candidate {
    parent: usize,
    left: usize,
    right: usize,
    op: JoinOp,
    score: f64,
}

/// Greedily complete a forest to one tree: repeatedly join the first
/// joinable pair (first pair at all when none is joinable — a cross join
/// on a disconnected query) with the first join operator. Deterministic,
/// evaluation-free; the result is what a candidate state is scored on.
fn greedy_complete(qi: &QueryIndex, state: &[SubTree]) -> SubTree {
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
        let merged = SubTree::join(qi, JoinOp::ALL[0], &trees[i], &trees[j]);
        trees.remove(j);
        trees.remove(i);
        trees.push(merged);
        trees.sort_by_key(|t| t.mask);
    }
    trees.pop().expect("one tree remains")
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

/// Beam search over the bushy space of the query `qi` indexes, keeping
/// `width` states per level. It shares the left-deep search's budget:
/// `budget_ms` (wall clock) and `max_simulations` (a soft cap on cost-model
/// evaluations) are both checked per level; `cfg.seed` feeds the risk-aware
/// latent sampler only (the search itself is RNG-free).
pub(crate) fn search(
    cfg: &MctsConfig,
    width: usize,
    qi: &QueryIndex,
    ev: &mut Evaluator,
    scratch: &mut BeamScratch,
    start: Instant,
) -> Found {
    scratch.eval_cache.clear();
    scratch.seen.clear();
    let n = qi.n;
    let spent = |evals: usize| cfg.past_budget(start) || evals >= cfg.max_simulations;

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
                    SubTree::leaf(qi, r as u32, op)
                })
                .collect();
            comps.push(greedy_complete(qi, &leaves));
        }
        let scores = score_completions(ev, &comps, scratch, &mut evals, &mut best);
        let mut pick = (0usize, scores[0]);
        for (k, &s) in scores.iter().enumerate().skip(1) {
            if s < pick.1 {
                pick = (k, s);
            }
        }
        scan_choice[rel] = pick.0;
    }
    let trees: Vec<SubTree> =
        (0..n).map(|r| SubTree::leaf(qi, r as u32, ScanOp::ALL[scan_choice[r]])).collect();

    let mut beam = vec![BeamState { trees }];
    let mut simulations = 0usize;
    let mut budget_exhausted = false;

    // ---- Levels 1..n-1: merge two subtrees per kept state ----
    for _level in 1..n {
        if spent(evals) {
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
                (i + 1..k).any(|j| joinable(qi, state.trees[i].mask, state.trees[j].mask))
            });
            for i in 0..k {
                for j in i + 1..k {
                    let connected = joinable(qi, state.trees[i].mask, state.trees[j].mask);
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
                            cands.push(Candidate { parent: pi, left: l, right: r, op, score: 0.0 });
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
        let comps: Vec<SubTree> = cands
            .iter()
            .map(|c| greedy_complete(qi, &beam[c.parent].merged(qi, c.left, c.right, c.op)))
            .collect();
        let scores = score_completions(ev, &comps, scratch, &mut evals, &mut best);
        for (c, s) in cands.iter_mut().zip(&scores) {
            c.score = *s;
        }

        // Stable selection: score ascending, ties keep enumeration
        // order.
        let mut order: Vec<usize> = (0..cands.len()).collect();
        order.sort_by(|&a, &b| cands[a].score.total_cmp(&cands[b].score));
        order.truncate(width);
        beam = order
            .iter()
            .map(|&ci| {
                let c = &cands[ci];
                BeamState { trees: beam[c.parent].merged(qi, c.left, c.right, c.op) }
            })
            .collect();
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
    for target in 0..plan.len() {
        if spent(evals) {
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
            ev.score(&[&cand], &mut scratch.scores_buf);
            let s = scratch.scores_buf[0];
            evals += 1;
            if s < best_score {
                best_score = s;
                plan = cand;
            }
        }
    }

    Found { plan, score: best_score, simulations, evals, budget_exhausted }
}

/// Score the greedy completions in `comps`, memoizing by completion
/// signature, charging only fresh evaluations to `evals`, and folding
/// each fresh score into `best`. Returns the per-completion scores.
fn score_completions(
    ev: &mut Evaluator,
    comps: &[SubTree],
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
        ev.score(&refs, &mut scratch.scores_buf);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QPSeeker;
    use crate::search::mcts::MctsResult;
    use crate::search::strategy::{StrategyConfig, StrategyKind, StrategyPlanner};
    use crate::search::tests::{fitted_model, three_way};
    use qpseeker_engine::query::{ColRef, JoinPred, Query, RelRef};
    use qpseeker_storage::datagen::imdb;

    /// Beam search over `cfg` at `batch_eval`, width 8, mean-scored, on a
    /// fresh session.
    fn plan_at(model: &QPSeeker, q: &Query, batch_eval: Option<usize>) -> MctsResult {
        let strat = StrategyConfig { kind: StrategyKind::Beam, batch_eval, ..Default::default() };
        let cfg = MctsConfig { budget_ms: 1e9, ..Default::default() };
        StrategyPlanner::from_config(&strat, cfg).plan(model, q)
    }

    #[test]
    fn produces_valid_plan_over_bushy_space() {
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let model = fitted_model(&db);
        let q = three_way();
        let res = plan_at(&model, &q, None);
        assert!(res.plan.validate(&q).is_ok());
        assert!(res.plans_evaluated > 0);
        assert!(res.predicted_ms.is_finite());
        assert!(!res.budget_exhausted);
    }

    #[test]
    fn deterministic_across_runs_and_batch_layouts() {
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let model = fitted_model(&db);
        let q = three_way();
        let (a, b) = (plan_at(&model, &q, None), plan_at(&model, &q, None));
        let scalar = plan_at(&model, &q, Some(1));
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
        let mut q = three_way();
        q.relations.push(RelRef::new("cast_info"));
        q.joins.push(JoinPred {
            left: ColRef::new("cast_info", "movie_id"),
            right: ColRef::new("title", "id"),
        });
        let res = plan_at(&model, &q, None);
        assert!(res.plan.validate(&q).is_ok());
        assert!(res.predicted_ms.is_finite());
        assert!(res.simulations > 0);
    }
}
