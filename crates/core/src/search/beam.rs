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
//! their root node ids (a `Fringe`-style closed set, as in neurdb, but on
//! exact ids rather than rendered plans).
//!
//! **Scoring.** The cost model is trained on *complete* plans only, so
//! partial-forest scores are out-of-distribution noise. Every candidate
//! state is therefore scored by greedily completing its forest to a full
//! plan (first joinable pair, hash join) and evaluating that completion
//! through the shared `Evaluator` (batched, memoized by node id). Ranking
//! thus directly minimizes the same objective left-deep MCTS optimizes,
//! and the search returns the best-scoring complete plan seen anywhere —
//! at the final level the completions are the states themselves. A
//! completion is built from subtree masks and ids alone; only the
//! best-scoring forest is completed again as plans, for the result.
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
use super::QueryIndex;
use qpseeker_engine::plan::{JoinOp, PlanNode, ScanOp};
use qpseeker_storage::fnv::FnvBuild;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Reusable beam-search state, cleared per query: the forest closed set
/// and the scoring buffers. Lives in a [`crate::session::PlannerSession`]
/// so a serving worker reuses allocations across queries.
#[derive(Default)]
pub(crate) struct BeamScratch {
    /// Forests already enqueued as candidates, by their root ids in mask
    /// order.
    seen: HashSet<Vec<u32>, FnvBuild>,
    ids_buf: Vec<u32>,
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
    fn merged(
        &self,
        qi: &QueryIndex,
        ev: &mut Evaluator,
        left: usize,
        right: usize,
        op: JoinOp,
    ) -> Vec<SubTree> {
        let mut trees: Vec<SubTree> = self
            .trees
            .iter()
            .enumerate()
            .filter(|&(t, _)| t != left && t != right)
            .map(|(_, t)| t.clone())
            .collect();
        trees.push(SubTree::join(qi, ev, op, &self.trees[left], &self.trees[right]));
        trees.sort_by_key(|t| t.mask);
        trees
    }
}

/// One candidate merge: join `trees[left] ⋈op trees[right]` of
/// `beam[parent]`, giving `forest`: each tree's `(mask, id)`, sorted by
/// mask.
struct Candidate {
    parent: usize,
    left: usize,
    right: usize,
    op: JoinOp,
    forest: Vec<(u64, u32)>,
}

/// Greedily complete a forest, sorted by `mask`, to one tree: repeatedly
/// join the first joinable pair (first pair at all when none is joinable —
/// a cross join on a disconnected query) with `join`, which applies the
/// first join operator. Deterministic, evaluation-free; a candidate state
/// is scored on the `(mask, id)` completion, and the winner's plan is the
/// [`SubTree`] completion of the same forest.
fn greedy_complete<T>(
    qi: &QueryIndex,
    mut trees: Vec<T>,
    mask: fn(&T) -> u64,
    mut join: impl FnMut(&T, &T) -> T,
) -> T {
    while trees.len() > 1 {
        let mut pick = (0usize, 1usize);
        'outer: for i in 0..trees.len() {
            for j in i + 1..trees.len() {
                if joinable(qi, mask(&trees[i]), mask(&trees[j])) {
                    pick = (i, j);
                    break 'outer;
                }
            }
        }
        let (i, j) = pick;
        let merged = join(&trees[i], &trees[j]);
        trees.remove(j);
        trees.remove(i);
        trees.push(merged);
        trees.sort_by_key(mask);
    }
    trees.pop().expect("one tree remains")
}

/// The node id of a forest's greedy completion; `forest` holds each
/// tree's `(mask, id)`, sorted by mask.
fn completion_id(qi: &QueryIndex, ev: &mut Evaluator, forest: Vec<(u64, u32)>) -> u32 {
    let join = |a: &(u64, u32), b: &(u64, u32)| (a.0 | b.0, ev.join(JoinOp::ALL[0], a.1, b.1));
    greedy_complete(qi, forest, |t| t.0, join).1
}

/// Replace the operator of postorder node `target` with the `k`-th of its
/// kind (`ScanOp::ALL` for scans, `JoinOp::ALL` for joins). Returns the
/// index of the operator previously there, or `None` past the last node.
/// Copy on write: only the nodes on the path to `target` that another
/// plan shares are copied ([`Arc::make_mut`]), so a plan cloned from this
/// one keeps its operators.
fn set_node_op(plan: &mut PlanNode, target: usize, k: usize) -> Option<usize> {
    match plan {
        PlanNode::Scan { op, .. } => (target == 0).then(|| {
            let old = ScanOp::ALL.iter().position(|o| o == op).expect("one of ALL");
            *op = ScanOp::ALL[k];
            old
        }),
        PlanNode::Join { op, left, right, .. } => {
            let (l, r) = (left.len(), right.len());
            if target < l {
                return set_node_op(Arc::make_mut(left), target, k);
            }
            if target < l + r {
                return set_node_op(Arc::make_mut(right), target - l, k);
            }
            (target == l + r).then(|| {
                let old = JoinOp::ALL.iter().position(|o| o == op).expect("one of ALL");
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
    scratch.seen.clear();
    let n = qi.n;
    let spent = |evals: usize| cfg.past_budget(start) || evals >= cfg.max_simulations;

    // ---- Level 0: pick each relation's scan by coordinate descent
    // on greedy completions (every evaluation is a complete plan). `best`
    // is the forest whose completion scored lowest, and that score ----
    let mut best: Option<(f64, Vec<SubTree>)> = None;
    let mut scan_choice = vec![0usize; n];
    for rel in 0..n {
        let op = |k: usize, choice: &[usize], r: usize| {
            ScanOp::ALL[if r == rel { k } else { choice[r] }]
        };
        scratch.ids_buf.clear();
        for k in 0..3 {
            let forest = (0..n).map(|r| (1 << r, ev.scan(r as u32, op(k, &scan_choice, r))));
            let forest = forest.collect();
            let id = completion_id(qi, ev, forest);
            scratch.ids_buf.push(id);
        }
        let scores = score_completions(ev, scratch);
        for (k, &s) in scores.iter().enumerate() {
            if best.as_ref().is_none_or(|(b, _)| s < *b) {
                let leaves =
                    (0..n).map(|r| SubTree::leaf(qi, ev, r as u32, op(k, &scan_choice, r)));
                best = Some((s, leaves.collect()));
            }
        }
        scan_choice[rel] = (1..3).fold(0, |b, k| if scores[k] < scores[b] { k } else { b });
    }
    let trees: Vec<SubTree> =
        (0..n).map(|r| SubTree::leaf(qi, ev, r as u32, ScanOp::ALL[scan_choice[r]])).collect();

    let mut beam = vec![BeamState { trees }];
    let mut simulations = 0usize;
    let mut budget_exhausted = false;

    // ---- Levels 1..n-1: merge two subtrees per kept state ----
    for _level in 1..n {
        if spent(ev.evals) {
            budget_exhausted = true;
            break;
        }

        // Enumerate candidate merges in fixed order, each forest once.
        // Interning a dropped duplicate's merge adds no node: the equal
        // forest enqueued first holds that subtree already.
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
                            let id = ev.join(op, state.trees[l].id, state.trees[r].id);
                            let mut forest: Vec<(u64, u32)> = (state.trees.iter().enumerate())
                                .filter(|&(t, _)| t != i && t != j)
                                .map(|(_, t)| (t.mask, t.id))
                                .collect();
                            forest.push((state.trees[i].mask | state.trees[j].mask, id));
                            forest.sort_unstable_by_key(|t| t.0);
                            if scratch.seen.insert(forest.iter().map(|t| t.1).collect()) {
                                cands.push(Candidate { parent: pi, left: l, right: r, op, forest });
                            }
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
        // completions — full plans — memoized by node id.
        scratch.ids_buf.clear();
        for c in &mut cands {
            let id = completion_id(qi, ev, std::mem::take(&mut c.forest));
            scratch.ids_buf.push(id);
        }
        let scores = score_completions(ev, scratch);
        for (c, &s) in cands.iter().zip(&scores) {
            if best.as_ref().is_none_or(|(b, _)| s < *b) {
                best = Some((s, beam[c.parent].merged(qi, ev, c.left, c.right, c.op)));
            }
        }

        // Stable selection: score ascending, ties keep enumeration
        // order.
        let mut order: Vec<usize> = (0..cands.len()).collect();
        order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
        order.truncate(width);
        beam = order
            .iter()
            .map(|&ci| {
                let c = &cands[ci];
                BeamState { trees: beam[c.parent].merged(qi, ev, c.left, c.right, c.op) }
            })
            .collect();
    }

    // Best complete plan scored anywhere in the search — at the final
    // level the candidate completions are the states themselves, and
    // under a budget cut-off this is the best rollout seen so far.
    let (mut best_score, forest) = best.expect("scored at least one complete plan");
    let join = |a: &SubTree, b: &SubTree| SubTree::join(qi, ev, JoinOp::ALL[0], a, b);
    let mut plan = greedy_complete(qi, forest, |t| t.mask, join).plan;

    // ---- Operator polish: coordinate descent over scan and join
    // operators on the winning structure. The beam commits operators
    // level by level; this pass re-selects each one against the final
    // plan (the jointly-optimal choice MCTS searches for), keeping a
    // variant only when it strictly improves the score. Variants are
    // scored as they come, without the memo.
    for target in 0..plan.len() {
        if spent(ev.evals) {
            budget_exhausted = true;
            break;
        }
        for k in 0..3 {
            let old = set_node_op(&mut plan, target, k).expect("target in range");
            if old == k {
                continue;
            }
            let id = ev.intern(&plan);
            ev.score(&[id], &mut scratch.scores_buf);
            if scratch.scores_buf[0] < best_score {
                best_score = scratch.scores_buf[0];
            } else {
                set_node_op(&mut plan, target, old);
            }
        }
    }

    Found { plan, score: best_score, simulations, budget_exhausted }
}

/// Score the greedy completions in `scratch.ids_buf`, scoring each id not
/// yet known once, and return the per-completion scores.
fn score_completions(ev: &mut Evaluator, scratch: &mut BeamScratch) -> Vec<f64> {
    let mut queued: HashSet<u32, FnvBuild> = HashSet::default();
    let fresh: Vec<u32> = (scratch.ids_buf.iter().copied())
        .filter(|&id| ev.known(id).is_none() && queued.insert(id))
        .collect();
    ev.score(&fresh, &mut scratch.scores_buf);
    scratch.ids_buf.iter().map(|&id| ev.known(id).expect("scored above")).collect()
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

    /// Setting an operator in a plan whose subtrees a clone shares copies
    /// only the path to the node: the clone keeps every operator, and the
    /// subtree off the path stays shared.
    #[test]
    fn set_node_op_on_a_shared_plan_leaves_the_other_holder_unchanged() {
        let q = three_way();
        let scan = |a| PlanNode::scan(&q, a, ScanOp::SeqScan);
        let inner = PlanNode::join(&q, JoinOp::HashJoin, scan("title"), scan("movie_info"));
        let plan = PlanNode::join(&q, JoinOp::HashJoin, inner, scan("movie_keyword"));
        let original = plan.clone();
        let mut edited = plan.clone();
        // Postorder: title, movie_info, their join, movie_keyword, the root.
        assert_eq!(set_node_op(&mut edited, 1, 2), Some(0));
        assert_eq!(set_node_op(&mut edited, 4, 1), Some(0));
        assert_eq!(set_node_op(&mut edited, 5, 0), None, "past the last node");
        assert_eq!(plan, original, "the other holder changed");
        let (
            PlanNode::Join { left: el, right: er, op, .. },
            PlanNode::Join { left: pl, right: pr, .. },
        ) = (&edited, &plan)
        else {
            panic!("joins")
        };
        assert_eq!(*op, JoinOp::MergeJoin);
        assert!(!Arc::ptr_eq(el, pl), "the path to the edit is copied");
        assert!(Arc::ptr_eq(er, pr), "the subtree off the path stays shared");
        let PlanNode::Join { right, .. } = &**el else { panic!("a join") };
        assert!(matches!(**right, PlanNode::Scan { op: ScanOp::BitmapIndexScan, .. }));
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
