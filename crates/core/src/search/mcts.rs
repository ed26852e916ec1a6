//! Monte Carlo Tree Search planning (§5.2).
//!
//! Vanilla MCTS over the left-deep plan space, bottom-up: start from a base
//! relation and apply one join at a time until every relation is present.
//! Nodes are scored with UCT (`r/n + C·sqrt(ln t / n)`), where a node's
//! reward counts how often it lies on the best plan found so far; rollouts
//! complete the plan randomly, and completed plans are evaluated with
//! QPSeeker's learned cost model (least predicted execution time wins).
//! Planning stops at a wall-clock budget (paper: 200 ms) or a simulation
//! cap, whichever comes first.
//!
//! A completed rollout is named by its plan's node id, a fold of the
//! evaluator's interning calls over its actions: equal ids are equal
//! plans, so the id keys both the evaluator's score memo and the dedup of
//! the rollouts queued for one batched forward. Only the returned plan is
//! built as a `PlanNode`.

use super::strategy::{Evaluator, Found};
use super::QueryIndex;
use qpseeker_engine::plan::{JoinOp, PlanNode, ScanOp};
use qpseeker_storage::fnv;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// One plan-construction step: add relation `rel` (an index into
/// `query.relations`) under scan operator `scan`, joined onto the prefix by
/// `join` — `None` for the relation that opens the sequence. `Copy`, so the
/// hot loop never touches a `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Action {
    rel: u32,
    scan: ScanOp,
    join: Option<JoinOp>,
}

/// The node id of a complete action sequence's plan: a fold of interning
/// calls, each step joining the new relation's scan onto the prefix.
fn rollout_id(ev: &mut Evaluator, actions: &[Action]) -> u32 {
    let (first, rest) = actions.split_first().expect("non-empty action sequence");
    rest.iter().fold(ev.scan(first.rel, first.scan), |prefix, a| {
        let scan = ev.scan(a.rel, a.scan);
        ev.join(a.join.expect("only the first action opens a sequence"), prefix, scan)
    })
}

/// The left-deep plan of a complete action sequence: a fold of joins over
/// the query index, each join carrying the predicates that cross into the
/// new relation, in `query.joins` order — structurally identical to
/// `LeftDeepSpec::compile` on the equivalent spec. Validation is skipped
/// because the search only emits duplicate-free sequences that join
/// through a predicate whenever one is left. Built once per search, for
/// the returned plan; candidates are scored by [`rollout_id`].
fn left_deep(qi: &QueryIndex, actions: &[Action]) -> PlanNode {
    let (first, rest) = actions.split_first().expect("non-empty action sequence");
    let mut plan = qi.scan(first.rel, first.scan);
    let mut joined = 1u64 << first.rel;
    for a in rest {
        plan = PlanNode::Join {
            op: a.join.expect("only the first action opens a sequence"),
            left: Arc::new(plan),
            right: Arc::new(qi.scan(a.rel, a.scan)),
            preds: qi.crossing_preds(joined, 1 << a.rel).into(),
        };
        joined |= 1 << a.rel;
    }
    plan
}

/// MCTS configuration.
#[derive(Debug, Clone)]
pub struct MctsConfig {
    /// Wall-clock planning budget in milliseconds (paper: 200 ms).
    pub budget_ms: f64,
    /// Hard cap on simulations (determinism for tests; usize::MAX to disable).
    pub max_simulations: usize,
    /// UCT exploration coefficient `C ∈ [0, 1]` (paper: 0.5).
    pub exploration: f64,
    pub seed: u64,
}

impl Default for MctsConfig {
    fn default() -> Self {
        Self { budget_ms: 200.0, max_simulations: 10_000, exploration: 0.5, seed: 0xacc5 }
    }
}

impl MctsConfig {
    /// The wall-clock budget is spent.
    pub(crate) fn past_budget(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() * 1000.0 > self.budget_ms
    }
}

/// Planning outcome.
#[derive(Debug)]
pub struct MctsResult {
    pub plan: PlanNode,
    /// Model-predicted runtime of the chosen plan.
    pub predicted_ms: f64,
    pub simulations: usize,
    /// Distinct complete plans evaluated by the cost model.
    pub plans_evaluated: usize,
    /// Plan-node rows the plan encoder ran for this search: one per
    /// distinct subtree of the evaluated plans, until the query's node memo
    /// fills (see `encoder::MEMO_BUDGET_BYTES`).
    pub nodes_encoded: usize,
    /// True when the search consumed its full time budget.
    pub budget_exhausted: bool,
}

struct TreeNode {
    visits: f64,
    reward: f64,
    /// Insertion-ordered so UCT tie-breaking is deterministic.
    children: Vec<(Action, usize)>,
    untried: Vec<Action>,
    expanded: bool,
    /// The subtree below this node is fully enumerated (every reachable
    /// complete plan has been evaluated), so descending into it again can
    /// never surface a new plan. UCT skips exhausted children, which keeps
    /// the simulation budget pointed at plans the cost model has not scored
    /// yet instead of re-walking the incumbent best path.
    exhausted: bool,
}

impl TreeNode {
    /// A fresh node drawing its (empty) vectors from the scratch pools, so
    /// a steady stream of simulations re-uses the previous query's node
    /// allocations instead of growing new ones.
    fn fresh(
        untried_pool: &mut Vec<Vec<Action>>,
        children_pool: &mut Vec<Vec<(Action, usize)>>,
    ) -> Self {
        Self {
            visits: 0.0,
            reward: 0.0,
            children: children_pool.pop().unwrap_or_default(),
            untried: untried_pool.pop().unwrap_or_default(),
            expanded: false,
            exhausted: false,
        }
    }
}

/// A completed rollout waiting in the batched-evaluation queue: the tree
/// path to back up once the score lands, and the full action sequence. The
/// in-tree prefix `actions` is always a prefix of `rollout`
/// (`path.len() == actions.len() + 1`), so deferred backpropagation needs
/// no separate copy of `actions`.
#[derive(Default)]
struct Waiter {
    path: Vec<usize>,
    rollout: Vec<Action>,
}

/// Reusable MCTS search state, cleared at the start of every [`search`]:
/// the tree arena, the incumbent, and the hot-loop buffers. Lives in a
/// [`crate::session::PlannerSession`] so a serving worker reuses the
/// allocations across every query it handles.
#[derive(Default)]
pub(crate) struct MctsScratch {
    nodes: Vec<TreeNode>,
    path: Vec<usize>,
    actions: Vec<Action>,
    rollout: Vec<Action>,
    acts_buf: Vec<Action>,
    /// The distinct plans queued for the next batched evaluation, by id in
    /// first-queued order, so a flush never scores a plan twice; and every
    /// queued rollout with the index of its plan there.
    queued: Vec<u32>,
    waiters: Vec<(usize, Waiter)>,
    /// Recycled `Waiter`/tree-node allocations. The node pools are refilled
    /// from the previous query's drained tree, so a steady stream of
    /// queries allocates no new node vectors.
    waiter_pool: Vec<Waiter>,
    untried_pool: Vec<Vec<Action>>,
    children_pool: Vec<Vec<(Action, usize)>>,
    /// Best complete action sequence found so far and its score (`None`
    /// until a rollout is scored).
    best_seq: Vec<Action>,
    best_t: Option<f64>,
    scores_buf: Vec<f64>,
}

/// Search the left-deep space of the query `qi` indexes with MCTS,
/// queueing `batch` distinct completed rollouts (deduped by node id,
/// carrying virtual loss) per forward. Scores do not depend on
/// the batch, but *when* UCT backups land does, so under a simulation cap
/// the chosen plan depends on `batch` — see
/// [`StrategyConfig::batch_eval`](super::strategy::StrategyConfig::batch_eval).
/// All mutable state lives in `s` (cleared on entry, allocations
/// recycled).
pub(crate) fn search(
    cfg: &MctsConfig,
    batch: usize,
    qi: &QueryIndex,
    ev: &mut Evaluator,
    s: &mut MctsScratch,
    start: Instant,
) -> Found {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ fnv::bytes(ev.query.id.as_bytes()));
    // Drain (not clear) the previous tree so its node vectors feed this
    // search's expansions.
    for mut n in s.nodes.drain(..) {
        n.untried.clear();
        s.untried_pool.push(n.untried);
        n.children.clear();
        s.children_pool.push(n.children);
    }
    s.nodes.push(TreeNode::fresh(&mut s.untried_pool, &mut s.children_pool));
    s.queued.clear();
    s.waiters.clear();
    s.best_seq.clear();
    s.best_t = None;
    let mut simulations = 0usize;
    let mut budget_exhausted = false;

    while simulations < cfg.max_simulations {
        if cfg.past_budget(start) {
            budget_exhausted = true;
            break;
        }
        simulations += 1;

        // ---- Selection + Expansion ----
        s.path.clear();
        s.path.push(0);
        s.actions.clear();
        let mut joined = 0u64;
        loop {
            let node_idx = *s.path.last().expect("path non-empty");
            if !s.nodes[node_idx].expanded {
                legal_actions_into(qi, &s.actions, joined, &mut s.nodes[node_idx].untried);
                s.nodes[node_idx].expanded = true;
            }
            if s.actions.len() == qi.n {
                break; // complete plan reached inside the tree
            }
            if !s.nodes[node_idx].untried.is_empty() {
                // Expansion: take one untried action at random.
                let i = rng.gen_range(0..s.nodes[node_idx].untried.len());
                let action = s.nodes[node_idx].untried.swap_remove(i);
                let child = s.nodes.len();
                s.nodes.push(TreeNode::fresh(&mut s.untried_pool, &mut s.children_pool));
                s.nodes[node_idx].children.push((action, child));
                s.actions.push(action);
                joined |= 1 << action.rel;
                s.path.push(child);
                break;
            }
            // Fully expanded: UCT descent over child indices; `Action`
            // is `Copy`, so no per-step clone of the child list.
            // Exhausted subtrees hold no unevaluated plans and are
            // skipped.
            let parent_visits = s.nodes[node_idx].visits.max(1.0);
            let mut best_child: Option<(f64, Action, usize)> = None;
            for &(a, c) in &s.nodes[node_idx].children {
                let child = &s.nodes[c];
                if child.exhausted {
                    continue;
                }
                let score = if child.visits == 0.0 {
                    f64::INFINITY
                } else {
                    child.reward / child.visits
                        + cfg.exploration * (parent_visits.ln() / child.visits).sqrt()
                };
                if best_child.as_ref().map(|(s, _, _)| score > *s).unwrap_or(true) {
                    best_child = Some((score, a, c));
                }
            }
            match best_child {
                Some((_, a, c)) => {
                    s.actions.push(a);
                    joined |= 1 << a.rel;
                    s.path.push(c);
                }
                None => break, // fully enumerated subtree
            }
        }

        // ---- Rollout ----
        // Uniform random completion, sampled directly from the bitmask of
        // relations that may come next. Each contributes exactly 3 scans x
        // 3 joins in the flat legal-action list, so drawing one index in
        // `0..popcount * 9` and decoding it picks the same action — with
        // the same RNG draw — as indexing the materialized list, without
        // building it.
        s.rollout.clear();
        s.rollout.extend_from_slice(&s.actions);
        let mut roll_joined = joined;
        while s.rollout.len() < qi.n {
            let a = if s.rollout.is_empty() {
                let i = rng.gen_range(0..qi.n * 3);
                Action { rel: (i / 3) as u32, scan: ScanOp::ALL[i % 3], join: None }
            } else {
                let next = qi.next_rels(roll_joined);
                let i = rng.gen_range(0..next.count_ones() as usize * 9);
                let mut rest = next;
                for _ in 0..i / 9 {
                    rest &= rest - 1;
                }
                let (scan, join) = (ScanOp::ALL[i % 9 / 3], JoinOp::ALL[i % 3]);
                Action { rel: rest.trailing_zeros(), scan, join: Some(join) }
            };
            roll_joined |= 1 << a.rel;
            s.rollout.push(a);
        }

        // ---- Evaluation ----
        // The visit is counted now. For a queued plan that is a virtual
        // loss (the reward comes at flush time), so UCT stops re-selecting
        // a path whose score is already in flight — without it a large
        // fraction of the simulations between flushes duplicate queued
        // rollouts. A scored plan backs up at once; a new one joins the
        // queue (deduped by id) and backs up when the queue flushes through
        // one forward — at once when `batch` is 1.
        for &ni in &s.path {
            s.nodes[ni].visits += 1.0;
        }
        let id = rollout_id(ev, &s.rollout);
        if let Some(t) = ev.known(id) {
            apply_eval(&mut s.nodes, &mut s.best_seq, &mut s.best_t, &s.rollout, &s.path, t);
        } else {
            let mut w = s.waiter_pool.pop().unwrap_or_default();
            w.path.clear();
            w.path.extend_from_slice(&s.path);
            w.rollout.clear();
            w.rollout.extend_from_slice(&s.rollout);
            let at = s.queued.iter().position(|&q| q == id).unwrap_or(s.queued.len());
            if at == s.queued.len() {
                s.queued.push(id);
            }
            s.waiters.push((at, w));
            if s.queued.len() >= batch {
                s.flush(ev);
            }
        }

        // ---- Exhaustion propagation (bottom-up along the path) ----
        // A terminal node has an empty `untried` and no children; an
        // interior node becomes exhausted once every child is.
        for &node_idx in s.path.iter().rev() {
            let n = &s.nodes[node_idx];
            if n.expanded
                && n.untried.is_empty()
                && n.children.iter().all(|&(_, c)| s.nodes[c].exhausted)
            {
                s.nodes[node_idx].exhausted = true;
            } else {
                break;
            }
        }
        if s.nodes[0].exhausted {
            // The whole reachable plan space has been scored; further
            // simulations cannot find anything new.
            break;
        }
    }

    // Score whatever is still queued (budget cut-offs and exhaustion
    // exits land here with a partial batch).
    s.flush(ev);
    if s.best_t.is_none() {
        // Budget hit before any complete rollout: greedy completion.
        greedy_complete(qi, &mut s.best_seq, &mut s.acts_buf);
    }
    Found {
        plan: left_deep(qi, &s.best_seq),
        score: s.best_t.unwrap_or(f64::INFINITY),
        simulations,
        budget_exhausted,
    }
}

impl MctsScratch {
    /// Score every queued plan in one [`Evaluator::score`] call (which
    /// memoizes the scores) and run the deferred backups plan by plan, in
    /// queue order. Waiters are recycled into their pool.
    fn flush(&mut self, ev: &mut Evaluator) {
        if self.queued.is_empty() {
            return;
        }
        ev.score(&self.queued, &mut self.scores_buf);
        self.queued.clear();
        // Stable: each plan's rollouts back up in the order they came.
        self.waiters.sort_by_key(|&(at, _)| at);
        for (at, w) in self.waiters.drain(..) {
            let t = self.scores_buf[at];
            apply_eval(
                &mut self.nodes,
                &mut self.best_seq,
                &mut self.best_t,
                &w.rollout,
                &w.path,
                t,
            );
            self.waiter_pool.push(w);
        }
    }
}

/// Deterministic greedy plan completion for budget cut-offs that land
/// before any rollout finished: always take the first legal action.
fn greedy_complete(qi: &QueryIndex, best_seq: &mut Vec<Action>, acts_buf: &mut Vec<Action>) {
    best_seq.clear();
    let mut joined = 0u64;
    while best_seq.len() < qi.n {
        legal_actions_into(qi, best_seq, joined, acts_buf);
        let a = acts_buf[0];
        joined |= 1 << a.rel;
        best_seq.push(a);
    }
}

/// Record one scored rollout whose visit is already counted: update the
/// incumbent best, then back the score up the tree path. Reward = 1 when
/// the node's action prefix lies on the best plan; the in-tree prefix
/// equals `rollout[..depth]` for every depth on `path`, so the waiter
/// needs no separate `actions` copy.
fn apply_eval(
    nodes: &mut [TreeNode],
    best_seq: &mut Vec<Action>,
    best_t: &mut Option<f64>,
    rollout: &[Action],
    path: &[usize],
    t: f64,
) {
    if best_t.map(|bt| t < bt).unwrap_or(true) {
        *best_t = Some(t);
        best_seq.clear();
        best_seq.extend_from_slice(rollout);
    }
    for (depth, &node_idx) in path.iter().enumerate() {
        if depth <= best_seq.len() && rollout[..depth] == best_seq[..depth.min(best_seq.len())] {
            nodes[node_idx].reward += 1.0;
        }
    }
}

/// Legal actions from a partial action sequence into `out` (cleared first),
/// in relation-index order so the search is deterministic: any opening
/// relation, then the relations [`QueryIndex::next_rels`] admits.
fn legal_actions_into(qi: &QueryIndex, actions: &[Action], joined: u64, out: &mut Vec<Action>) {
    out.clear();
    if actions.is_empty() {
        for rel in 0..qi.n as u32 {
            for scan in ScanOp::ALL {
                out.push(Action { rel, scan, join: None });
            }
        }
        return;
    }
    let mut next = qi.next_rels(joined);
    while next != 0 {
        let rel = next.trailing_zeros();
        next &= next - 1;
        for scan in ScanOp::ALL {
            for join in JoinOp::ALL {
                out.push(Action { rel, scan, join: Some(join) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::strategy::{StrategyConfig, StrategyPlanner};
    use crate::search::tests::{fitted_model, three_way};
    use crate::session::PlannerSession;
    use qpseeker_engine::query::{ColRef, JoinPred, Query, RelRef};
    use qpseeker_storage::datagen::imdb;

    /// Mean-scored MCTS at the default rollout batch.
    fn mcts(cfg: MctsConfig) -> StrategyPlanner {
        StrategyPlanner::from_config(&StrategyConfig::default(), cfg)
    }

    fn opening(rel: u32, scan: ScanOp) -> Action {
        Action { rel, scan, join: None }
    }

    fn joining(rel: u32, scan: ScanOp, join: JoinOp) -> Action {
        Action { rel, scan, join: Some(join) }
    }

    #[test]
    fn produces_valid_left_deep_plan() {
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let model = fitted_model(&db);
        let q = three_way();
        let res = mcts(MctsConfig { budget_ms: 500.0, max_simulations: 60, ..Default::default() })
            .plan(&model, &q);
        assert!(res.plan.validate(&q).is_ok());
        assert!(res.plan.is_left_deep());
        assert!(res.simulations > 0);
        assert!(res.plans_evaluated > 0);
        assert!(res.predicted_ms.is_finite());
    }

    #[test]
    fn deterministic_with_simulation_cap() {
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let q = three_way();
        let cfg = MctsConfig { budget_ms: 1e9, max_simulations: 40, ..Default::default() };
        let m1 = fitted_model(&db);
        let r1 = mcts(cfg.clone()).plan(&m1, &q);
        let m2 = fitted_model(&db);
        let r2 = mcts(cfg).plan(&m2, &q);
        assert_eq!(r1.plan, r2.plan);
        assert_eq!(r1.simulations, r2.simulations);
    }

    #[test]
    fn budget_cuts_off_search() {
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let model = fitted_model(&db);
        let q = three_way();
        let planner = mcts(MctsConfig {
            budget_ms: 1.0, // 1ms: will be exhausted almost immediately
            max_simulations: usize::MAX,
            ..Default::default()
        });
        let res = planner.plan(&model, &q);
        assert!(res.budget_exhausted);
        assert!(res.plan.validate(&q).is_ok(), "still returns the best plan found so far");
    }

    #[test]
    fn more_simulations_never_worsen_predicted_time() {
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let q = three_way();
        let m1 = fitted_model(&db);
        let few = mcts(MctsConfig { budget_ms: 1e9, max_simulations: 5, ..Default::default() })
            .plan(&m1, &q);
        let m2 = fitted_model(&db);
        let many = mcts(MctsConfig { budget_ms: 1e9, max_simulations: 100, ..Default::default() })
            .plan(&m2, &q);
        assert!(many.predicted_ms <= few.predicted_ms + 1e-9);
    }

    #[test]
    fn batched_and_scalar_eval_agree_on_exhausted_space() {
        // Two relations: 54 left-deep plans, so both runs fully enumerate
        // the space. Batching changes evaluation *timing*, never scores,
        // so the argmin (and its bitwise predicted time) must match.
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let mut q = Query::new("two-way");
        q.relations = vec![RelRef::new("title"), RelRef::new("movie_info")];
        q.joins = vec![JoinPred {
            left: ColRef::new("movie_info", "movie_id"),
            right: ColRef::new("title", "id"),
        }];
        let cfg = MctsConfig { budget_ms: 1e9, max_simulations: 10_000, ..Default::default() };
        let with_batch = |batch_eval| {
            let strat = StrategyConfig { batch_eval: Some(batch_eval), ..Default::default() };
            StrategyPlanner::from_config(&strat, cfg.clone())
        };
        let m1 = fitted_model(&db);
        let scalar = with_batch(1).plan_with_session(&m1, &q, &mut PlannerSession::new());
        let m2 = fitted_model(&db);
        let batched = with_batch(8).plan_with_session(&m2, &q, &mut PlannerSession::new());
        assert_eq!(scalar.plans_evaluated, 54);
        assert_eq!(batched.plans_evaluated, 54);
        assert_eq!(scalar.plan, batched.plan);
        assert_eq!(scalar.predicted_ms.to_bits(), batched.predicted_ms.to_bits());
    }

    #[test]
    fn left_deep_build_matches_compiled_spec() {
        // The fold over the query index must produce exactly what
        // `LeftDeepSpec::compile` produces for the same action sequence —
        // same tree, same pushed filters, same join-predicate order — since
        // every bitwise determinism guarantee is stated in terms of the
        // emitted plan.
        use qpseeker_engine::inject::LeftDeepSpec;
        let q = three_way();
        let qi = QueryIndex::new(&q);
        let seqs: Vec<Vec<Action>> = vec![
            vec![
                opening(0, ScanOp::SeqScan),
                joining(1, ScanOp::IndexScan, JoinOp::HashJoin),
                joining(2, ScanOp::BitmapIndexScan, JoinOp::MergeJoin),
            ],
            vec![
                opening(2, ScanOp::IndexScan),
                joining(0, ScanOp::SeqScan, JoinOp::NestedLoopJoin),
                joining(1, ScanOp::SeqScan, JoinOp::HashJoin),
            ],
        ];
        for actions in &seqs {
            let spec = LeftDeepSpec {
                scans: actions
                    .iter()
                    .map(|a| (q.relations[a.rel as usize].alias.clone(), a.scan))
                    .collect(),
                joins: actions.iter().filter_map(|a| a.join).collect(),
            };
            let compiled = spec.compile(&q).expect("sequence compiles");
            assert_eq!(left_deep(&qi, actions), compiled);
        }
    }

    #[test]
    fn legal_actions_respect_connectivity() {
        let q = three_way();
        let qi = QueryIndex::new(&q);
        let mut acts = Vec::new();
        legal_actions_into(&qi, &[], 0, &mut acts);
        assert_eq!(acts.len(), 3 * 3, "3 relations x 3 scan ops");
        // movie_info is relation index 1; title (index 0) is its only neighbor.
        let start = opening(1, ScanOp::SeqScan);
        legal_actions_into(&qi, &[start], 1 << 1, &mut acts);
        assert!(acts.iter().all(|a| a.rel == 0 && a.join.is_some()));
        assert_eq!(acts.len(), 3 * 3, "1 relation x 3 scans x 3 joins");
    }
}
