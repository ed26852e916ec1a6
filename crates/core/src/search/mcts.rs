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

use super::strategy::{Evaluator, RiskParams, DEFAULT_BATCH_EVAL};
use super::{op_idx_join, op_idx_scan, QueryIndex};
use crate::featurize::FeatSession;
use crate::model::{QPSeeker, QueryContext};
use crate::session::PlannerSession;
use qpseeker_engine::plan::{JoinOp, PlanNode, ScanOp};
use qpseeker_engine::query::{JoinPred, Query};
use qpseeker_storage::fnv::{self, FnvBuild};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

/// One plan-construction step. Relations are interned as indices into
/// `query.relations`, so actions are `Copy` and the hot loop never touches a
/// `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Action {
    /// Choose the first relation and its scan operator.
    Start { rel: u32, scan: ScanOp },
    /// Join one more relation onto the prefix.
    Extend { rel: u32, scan: ScanOp, join: JoinOp },
}

impl Action {
    fn rel(self) -> u32 {
        match self {
            Action::Start { rel, .. } | Action::Extend { rel, .. } => rel,
        }
    }

    /// Compact signature: `rel << 4 | scan << 2 | join`. Used to key the
    /// evaluation cache with a `Vec<u64>` instead of owned `String`s. The
    /// join field is 0..=2 for `Extend` and 3 for `Start`, so the packing is
    /// injective.
    fn pack(self) -> u64 {
        match self {
            Action::Start { rel, scan } => (rel as u64) << 4 | (op_idx_scan(scan) as u64) << 2 | 3,
            Action::Extend { rel, scan, join } => {
                (rel as u64) << 4 | (op_idx_scan(scan) as u64) << 2 | op_idx_join(join) as u64
            }
        }
    }
}

/// Per-query prebuilt plan pieces. The search evaluates thousands of
/// complete plans per query, and materializing each one through
/// `LeftDeepSpec::compile` re-derived aliases, tables, filters, and join
/// predicates from strings every time (dozens of heap allocations plus a
/// full validation walk per plan). This assembler does that derivation once
/// per query — one ready-to-clone scan leaf per (relation, scan op), and
/// per relation the join predicates touching it in `query.joins` order —
/// so assembling a plan is one clone per node plus a bitmask filter.
///
/// Output is structurally identical to `compile` on the equivalent spec
/// (same predicate order, same pushed-down filters); validation is skipped
/// because the search only emits connected, duplicate-free sequences.
struct PlanAssembler {
    /// `scans[rel][op_idx_scan(op)]` — prebuilt scan leaf to clone.
    scans: Vec<[PlanNode; 3]>,
    /// `preds[rel]` — `(other_rel, predicate)` for every join predicate
    /// touching `rel`, in `query.joins` order.
    preds: Vec<Vec<(u32, JoinPred)>>,
}

impl PlanAssembler {
    fn new(query: &Query) -> Self {
        let scans = query
            .relations
            .iter()
            .map(|r| {
                ScanOp::ALL.map(|op| {
                    PlanNode::try_scan(query, &r.alias, op).expect("query relation has a table")
                })
            })
            .collect();
        let idx_of = |alias: &str| query.relations.iter().position(|r| r.alias == alias);
        let mut preds: Vec<Vec<(u32, JoinPred)>> = vec![Vec::new(); query.relations.len()];
        for j in &query.joins {
            if let (Some(l), Some(r)) = (idx_of(&j.left.alias), idx_of(&j.right.alias)) {
                if l != r {
                    preds[l].push((r as u32, j.clone()));
                    preds[r].push((l as u32, j.clone()));
                }
            }
        }
        Self { scans, preds }
    }

    /// Assemble the left-deep plan for a complete action sequence.
    fn build(&self, actions: &[Action]) -> PlanNode {
        self.assemble(actions, true)
    }

    /// Assemble a plan for **evaluation only**: identical tree, operators,
    /// aliases, and pushed-down filters, but empty join predicate lists.
    /// Featurization ([`crate::featurize::Featurizer::featurize_batch_into`]
    /// — the one every query this search can index takes, see
    /// [`QueryIndex`]) reads node shape, operators, scan aliases/tables, and
    /// leaf filters — never `preds` — so predictions are bitwise identical
    /// to the full build while skipping roughly half its allocations (every
    /// `JoinPred` is four `String` clones). Guarded by the
    /// `eval_plan_scores_match_full_build` test.
    fn build_for_eval(&self, actions: &[Action]) -> PlanNode {
        self.assemble(actions, false)
    }

    fn assemble(&self, actions: &[Action], with_preds: bool) -> PlanNode {
        let scan = |a: Action| {
            let (rel, op) = match a {
                Action::Start { rel, scan } | Action::Extend { rel, scan, .. } => (rel, scan),
            };
            self.scans[rel as usize][op_idx_scan(op) as usize].clone()
        };
        let first = *actions.first().expect("non-empty action sequence");
        let mut plan = scan(first);
        let mut joined = 1u64 << first.rel();
        for &a in &actions[1..] {
            let (rel, join) = match a {
                Action::Extend { rel, join, .. } => (rel, join),
                Action::Start { .. } => unreachable!("Start actions only open a sequence"),
            };
            let preds = if with_preds {
                self.preds[rel as usize]
                    .iter()
                    .filter(|&&(other, _)| joined >> other & 1 == 1)
                    .map(|(_, p)| p.clone())
                    .collect()
            } else {
                Vec::new()
            };
            plan =
                PlanNode::Join { op: join, left: Box::new(plan), right: Box::new(scan(a)), preds };
            joined |= 1 << rel;
        }
        plan
    }
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

/// One distinct plan awaiting batched evaluation, with every rollout that
/// produced it. Queued plans are deduped by packed action signature so a
/// flush never scores the same plan twice.
#[derive(Default)]
struct Pending {
    key: Vec<u64>,
    waiters: Vec<Waiter>,
}

/// Reusable MCTS search state, cleared at the start of every
/// [`MctsPlanner::plan_with_session`] call: the tree arena, the per-query
/// evaluation cache, and the hot-loop buffers. Lives in a
/// [`PlannerSession`] so a serving worker reuses the allocations across
/// every query it handles.
#[derive(Default)]
pub(crate) struct MctsScratch {
    nodes: Vec<TreeNode>,
    eval_cache: HashMap<Vec<u64>, f64, FnvBuild>,
    path: Vec<usize>,
    actions: Vec<Action>,
    rollout: Vec<Action>,
    acts_buf: Vec<Action>,
    key_buf: Vec<u64>,
    /// Rollouts queued for the next batched evaluation, deduped by key.
    pending: Vec<Pending>,
    /// Recycled `Pending`/`Waiter`/cache-key/tree-node allocations.
    /// `key_pool` is refilled from the previous query's drained eval cache
    /// and the node pools from its drained tree, so a steady stream of
    /// queries allocates no new key or node vectors.
    pending_pool: Vec<Pending>,
    waiter_pool: Vec<Waiter>,
    key_pool: Vec<Vec<u64>>,
    untried_pool: Vec<Vec<Action>>,
    children_pool: Vec<Vec<(Action, usize)>>,
    /// Best complete action sequence found so far (scratch for what used to
    /// be a per-improvement `rollout.clone()`).
    best_seq: Vec<Action>,
    plans_buf: Vec<PlanNode>,
    scores_buf: Vec<f64>,
}

/// The MCTS planner. Owns the search tree for one query.
pub struct MctsPlanner {
    cfg: MctsConfig,
    /// Risk-aware scoring (`mean + λ·σ` over seeded latent samples); `None`
    /// is mean-only scoring.
    risk: Option<RiskParams>,
    /// Distinct completed rollouts queued (deduped by packed action
    /// signature, carrying virtual loss) before one forward scores them
    /// all; `1` scores and backs up every rollout immediately. Scores are
    /// bitwise identical either way, but *when* UCT backups land is not, so
    /// under a simulation cap the chosen plan depends on this value — see
    /// [`StrategyConfig::batch_eval`](super::strategy::StrategyConfig::batch_eval).
    batch: usize,
}

impl MctsPlanner {
    /// Mean-only scoring at the default rollout-batch size.
    pub fn new(cfg: MctsConfig) -> Self {
        Self { cfg, risk: None, batch: DEFAULT_BATCH_EVAL }
    }

    /// An MCTS planner whose rollout evaluations rank plans by
    /// `mean + λ·σ` over seeded VAE latent samples (see
    /// [`super::strategy::Evaluator`]) and which queues `batch` rollouts
    /// per forward. With `risk.lambda == 0` and the default batch this is
    /// exactly [`Self::new`].
    pub(crate) fn with_risk(cfg: MctsConfig, risk: RiskParams, batch: usize) -> Self {
        let risk = if risk.enabled() { Some(risk) } else { None };
        Self { cfg, risk, batch: batch.max(1) }
    }

    /// One-shot [`Self::plan_with_session`] on a fresh [`PlannerSession`]
    /// built for this call (cold featurization caches every time): for
    /// examples and experiments; anything planning in a loop keeps its own
    /// session.
    pub fn plan(&self, model: &QPSeeker, query: &Query) -> MctsResult {
        self.plan_with_session(model, query, &mut PlannerSession::new())
    }

    /// Plan `query` using `model` as the evaluation function, with all
    /// mutable state in `sess`. The query is encoded exactly once (via
    /// [`QPSeeker::query_context`]); every rollout evaluation reuses that
    /// embedding and only pays for the plan side.
    pub fn plan_with_session(
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

        // Single relation: score the three scan choices in one call; the
        // first of the cheapest wins.
        if query.relations.len() == 1 {
            let alias = &query.relations[0].alias;
            let plans = ScanOp::ALL.map(|op| PlanNode::scan(query, alias, op));
            let refs: Vec<&PlanNode> = plans.iter().collect();
            let mut scores = Vec::with_capacity(plans.len());
            ev.score(feat, query, &refs, &mut ctx, &mut scores);
            let mut best = 0;
            for (k, &t) in scores.iter().enumerate() {
                if t < scores[best] {
                    best = k;
                }
            }
            let nodes_encoded = ctx.finish(memo);
            return MctsResult {
                plan: plans[best].clone(),
                predicted_ms: scores[best],
                simulations: plans.len(),
                plans_evaluated: plans.len(),
                nodes_encoded,
                budget_exhausted: false,
            };
        }

        let qi = QueryIndex::new(query);
        let asm = PlanAssembler::new(query);
        let mut best_t: Option<f64> = None;
        let scratch = search.mcts();
        let (simulations, budget_exhausted) = run_search(
            &self.cfg,
            self.batch,
            &ev,
            query,
            &qi,
            &asm,
            feat,
            &mut ctx,
            scratch,
            start,
            &mut best_t,
        );
        let MctsScratch { eval_cache, acts_buf, best_seq, .. } = scratch;
        if best_t.is_none() {
            // Budget hit before any complete rollout: greedy completion.
            greedy_complete(&qi, best_seq, acts_buf);
        }
        let plan = asm.build(best_seq);
        let nodes_encoded = ctx.finish(memo);
        MctsResult {
            plan,
            predicted_ms: best_t.unwrap_or(f64::INFINITY),
            simulations,
            plans_evaluated: eval_cache.len(),
            nodes_encoded,
            budget_exhausted,
        }
    }
}

/// Grow the query's search tree to completion. All mutable state lives in
/// `scratch` (cleared on entry, allocations recycled); on return `scratch.best_seq` holds the best complete action
/// sequence found (empty if no rollout finished) and `scratch.eval_cache`
/// exactly the distinct plans this search scored. Returns
/// `(simulations, budget_exhausted)`.
#[allow(clippy::too_many_arguments)]
fn run_search(
    cfg: &MctsConfig,
    batch: usize,
    ev: &Evaluator,
    query: &Query,
    qi: &QueryIndex,
    asm: &PlanAssembler,
    feat_sess: &mut FeatSession,
    ctx: &mut QueryContext,
    scratch: &mut MctsScratch,
    start: Instant,
    best_t: &mut Option<f64>,
) -> (usize, bool) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ fnv::bytes(query.id.as_bytes()));
    // Per-query state cleared on entry; allocations carry over between
    // queries handled by the same session.
    let MctsScratch {
        nodes,
        eval_cache,
        path,
        actions,
        rollout,
        acts_buf: _,
        key_buf,
        pending,
        pending_pool,
        waiter_pool,
        key_pool,
        best_seq,
        plans_buf,
        scores_buf,
        untried_pool,
        children_pool,
    } = scratch;
    // Drain (not clear) the previous tree so its node vectors feed this
    // search's expansions.
    for mut n in nodes.drain(..) {
        n.untried.clear();
        untried_pool.push(n.untried);
        n.children.clear();
        children_pool.push(n.children);
    }
    nodes.push(TreeNode::fresh(untried_pool, children_pool));
    // Drain (not clear) so the previous search's key allocations feed
    // this search's cache inserts.
    key_pool.extend(eval_cache.drain().map(|(k, _)| k));
    pending.clear();
    best_seq.clear();
    let mut simulations = 0usize;
    let mut budget_exhausted = false;

    while simulations < cfg.max_simulations {
        if start.elapsed().as_secs_f64() * 1000.0 > cfg.budget_ms {
            budget_exhausted = true;
            break;
        }
        simulations += 1;

        // ---- Selection + Expansion ----
        path.clear();
        path.push(0);
        actions.clear();
        let mut joined = 0u64;
        loop {
            let node_idx = *path.last().expect("path non-empty");
            if !nodes[node_idx].expanded {
                legal_actions_into(qi, actions, joined, &mut nodes[node_idx].untried);
                nodes[node_idx].expanded = true;
            }
            if actions.len() == qi.n {
                break; // complete plan reached inside the tree
            }
            if !nodes[node_idx].untried.is_empty() {
                // Expansion: take one untried action at random.
                let i = rng.gen_range(0..nodes[node_idx].untried.len());
                let action = nodes[node_idx].untried.swap_remove(i);
                let child = nodes.len();
                nodes.push(TreeNode::fresh(untried_pool, children_pool));
                nodes[node_idx].children.push((action, child));
                actions.push(action);
                joined |= 1 << action.rel();
                path.push(child);
                break;
            }
            // Fully expanded: UCT descent over child indices; `Action`
            // is `Copy`, so no per-step clone of the child list.
            // Exhausted subtrees hold no unevaluated plans and are
            // skipped.
            let parent_visits = nodes[node_idx].visits.max(1.0);
            let mut best_child: Option<(f64, Action, usize)> = None;
            for &(a, c) in &nodes[node_idx].children {
                let child = &nodes[c];
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
                    actions.push(a);
                    joined |= 1 << a.rel();
                    path.push(c);
                }
                None => break, // dead end or fully enumerated subtree
            }
        }

        // ---- Rollout ----
        // Uniform random completion, sampled directly from the frontier
        // bitmask. Each frontier relation contributes exactly 3 scans x 3
        // joins in the flat legal-action list, so drawing one index in
        // `0..popcount * 9` and decoding it picks the same action — with
        // the same RNG draw — as indexing the materialized list, without
        // building it.
        rollout.clear();
        rollout.extend_from_slice(actions);
        let mut roll_joined = joined;
        while rollout.len() < qi.n {
            let a = if rollout.is_empty() {
                let i = rng.gen_range(0..qi.n * 3);
                Action::Start { rel: (i / 3) as u32, scan: ScanOp::ALL[i % 3] }
            } else {
                let frontier = qi.frontier(roll_joined);
                if frontier == 0 {
                    break;
                }
                let i = rng.gen_range(0..frontier.count_ones() as usize * 9);
                let mut rest = frontier;
                for _ in 0..i / 9 {
                    rest &= rest - 1;
                }
                let rel = rest.trailing_zeros();
                Action::Extend { rel, scan: ScanOp::ALL[i % 9 / 3], join: JoinOp::ALL[i % 3] }
            };
            roll_joined |= 1 << a.rel();
            rollout.push(a);
        }
        if rollout.len() != qi.n {
            continue; // disconnected: cannot finish from here
        }

        // ---- Evaluation ----
        // A cache hit backs up immediately. With batching enabled, a
        // miss joins the pending queue (deduped by packed signature)
        // and its backup is deferred until the queue flushes through
        // one forward pass; a plan's score is bitwise identical either
        // way, but the tree the next simulation descends is not.
        key_buf.clear();
        key_buf.extend(rollout.iter().map(|a| a.pack()));
        if let Some(&t) = eval_cache.get(key_buf.as_slice()) {
            apply_eval(nodes, best_seq, best_t, rollout, path, t, true);
        } else if batch <= 1 {
            ev.score(feat_sess, query, &[&asm.build_for_eval(rollout)], ctx, scores_buf);
            let t = scores_buf[0];
            let mut key = key_pool.pop().unwrap_or_default();
            key.clear();
            key.extend_from_slice(key_buf);
            eval_cache.insert(key, t);
            apply_eval(nodes, best_seq, best_t, rollout, path, t, true);
        } else {
            // Virtual loss: count the visit now (reward comes at flush
            // time) so UCT stops re-selecting a path whose score is
            // already in flight — without it a large fraction of the
            // simulations between flushes duplicate queued rollouts.
            for &ni in path.iter() {
                nodes[ni].visits += 1.0;
            }
            let mut w = waiter_pool.pop().unwrap_or_default();
            w.path.clear();
            w.path.extend_from_slice(path);
            w.rollout.clear();
            w.rollout.extend_from_slice(rollout);
            match pending.iter_mut().find(|p| p.key == *key_buf) {
                Some(p) => p.waiters.push(w),
                None => {
                    let mut p = pending_pool.pop().unwrap_or_default();
                    let mut key = key_pool.pop().unwrap_or_default();
                    key.clear();
                    key.extend_from_slice(key_buf);
                    p.key = key;
                    p.waiters.push(w);
                    pending.push(p);
                }
            }
            if pending.len() >= batch {
                flush_pending(
                    ev,
                    query,
                    asm,
                    feat_sess,
                    ctx,
                    pending,
                    pending_pool,
                    waiter_pool,
                    eval_cache,
                    nodes,
                    best_seq,
                    best_t,
                    plans_buf,
                    scores_buf,
                );
            }
        }

        // ---- Exhaustion propagation (bottom-up along the path) ----
        // A terminal node and a dead end both have an empty `untried`
        // and no unexhausted children; an interior node becomes
        // exhausted once every child is.
        for &node_idx in path.iter().rev() {
            let n = &nodes[node_idx];
            if n.expanded
                && n.untried.is_empty()
                && n.children.iter().all(|&(_, c)| nodes[c].exhausted)
            {
                nodes[node_idx].exhausted = true;
            } else {
                break;
            }
        }
        if nodes[0].exhausted {
            // The whole reachable plan space has been scored; further
            // simulations cannot find anything new.
            break;
        }
    }

    // Score whatever is still queued (budget cut-offs and exhaustion
    // exits land here with a partial batch).
    flush_pending(
        ev,
        query,
        asm,
        feat_sess,
        ctx,
        pending,
        pending_pool,
        waiter_pool,
        eval_cache,
        nodes,
        best_seq,
        best_t,
        plans_buf,
        scores_buf,
    );
    (simulations, budget_exhausted)
}

/// Deterministic greedy plan completion for budget cut-offs that land
/// before any rollout finished: always take the first legal action.
fn greedy_complete(qi: &QueryIndex, best_seq: &mut Vec<Action>, acts_buf: &mut Vec<Action>) {
    best_seq.clear();
    let mut joined = 0u64;
    while best_seq.len() < qi.n {
        legal_actions_into(qi, best_seq, joined, acts_buf);
        let a = *acts_buf.first().expect("connected query");
        joined |= 1 << a.rel();
        best_seq.push(a);
    }
}

/// Record one scored rollout: update the incumbent best, then back the
/// score up the tree path. Reward = 1 when the node's action prefix lies
/// on the best plan; the in-tree prefix equals `rollout[..depth]` for every
/// depth on `path`, so the waiter needs no separate `actions` copy. `count_visit` is false for deferred (batched)
/// backups, whose visit was already recorded as a virtual loss at enqueue
/// time.
#[allow(clippy::too_many_arguments)]
fn apply_eval(
    nodes: &mut [TreeNode],
    best_seq: &mut Vec<Action>,
    best_t: &mut Option<f64>,
    rollout: &[Action],
    path: &[usize],
    t: f64,
    count_visit: bool,
) {
    if best_t.map(|bt| t < bt).unwrap_or(true) {
        *best_t = Some(t);
        best_seq.clear();
        best_seq.extend_from_slice(rollout);
    }
    for (depth, &node_idx) in path.iter().enumerate() {
        if count_visit {
            nodes[node_idx].visits += 1.0;
        }
        if depth <= best_seq.len() && rollout[..depth] == best_seq[..depth.min(best_seq.len())] {
            nodes[node_idx].reward += 1.0;
        }
    }
}

/// Compile every queued plan, score them all in one [`Evaluator::score`]
/// call, scatter the results into the eval cache, and run the deferred
/// backups in queue order. All
/// allocations (pendings, waiters, cache keys) are recycled into pools.
#[allow(clippy::too_many_arguments)]
fn flush_pending(
    ev: &Evaluator,
    query: &Query,
    asm: &PlanAssembler,
    feat_sess: &mut FeatSession,
    ctx: &mut QueryContext,
    pending: &mut Vec<Pending>,
    pending_pool: &mut Vec<Pending>,
    waiter_pool: &mut Vec<Waiter>,
    eval_cache: &mut HashMap<Vec<u64>, f64, FnvBuild>,
    nodes: &mut [TreeNode],
    best_seq: &mut Vec<Action>,
    best_t: &mut Option<f64>,
    plans_buf: &mut Vec<PlanNode>,
    scores_buf: &mut Vec<f64>,
) {
    if pending.is_empty() {
        return;
    }
    plans_buf.clear();
    plans_buf.extend(pending.iter().map(|p| asm.build_for_eval(&p.waiters[0].rollout)));
    let plan_refs: Vec<&PlanNode> = plans_buf.iter().collect();
    ev.score(feat_sess, query, &plan_refs, ctx, scores_buf);
    debug_assert_eq!(scores_buf.len(), pending.len());
    for (p, &t) in pending.iter_mut().zip(scores_buf.iter()) {
        eval_cache.insert(std::mem::take(&mut p.key), t);
        for w in p.waiters.drain(..) {
            apply_eval(nodes, best_seq, best_t, &w.rollout, &w.path, t, false);
            waiter_pool.push(w);
        }
    }
    pending_pool.append(pending);
}

/// Legal actions from a partial action sequence into `out` (cleared first):
/// connected extensions only, in relation-index order so the search is
/// deterministic.
fn legal_actions_into(qi: &QueryIndex, actions: &[Action], joined: u64, out: &mut Vec<Action>) {
    out.clear();
    if actions.is_empty() {
        for rel in 0..qi.n as u32 {
            for scan in ScanOp::ALL {
                out.push(Action::Start { rel, scan });
            }
        }
        return;
    }
    let mut frontier = qi.frontier(joined);
    while frontier != 0 {
        let rel = frontier.trailing_zeros();
        frontier &= frontier - 1;
        for scan in ScanOp::ALL {
            for join in JoinOp::ALL {
                out.push(Action::Extend { rel, scan, join });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::search::strategy::{StrategyConfig, StrategyPlanner};
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

    fn three_way(db: &qpseeker_storage::Database) -> Query {
        let _ = db;
        let mut q = Query::new("mcts-q");
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
    fn produces_valid_left_deep_plan() {
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let model = fitted_model(&db);
        let q = three_way(&db);
        let planner = MctsPlanner::new(MctsConfig {
            budget_ms: 500.0,
            max_simulations: 60,
            ..Default::default()
        });
        let res = planner.plan(&model, &q);
        assert!(res.plan.validate(&q).is_ok());
        assert!(res.plan.is_left_deep());
        assert!(res.simulations > 0);
        assert!(res.plans_evaluated > 0);
        assert!(res.predicted_ms.is_finite());
    }

    #[test]
    fn deterministic_with_simulation_cap() {
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let q = three_way(&db);
        let cfg = MctsConfig { budget_ms: 1e9, max_simulations: 40, ..Default::default() };
        let m1 = fitted_model(&db);
        let r1 = MctsPlanner::new(cfg.clone()).plan(&m1, &q);
        let m2 = fitted_model(&db);
        let r2 = MctsPlanner::new(cfg).plan(&m2, &q);
        assert_eq!(r1.plan, r2.plan);
        assert_eq!(r1.simulations, r2.simulations);
    }

    #[test]
    fn single_relation_query_picks_a_scan() {
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let model = fitted_model(&db);
        let mut q = Query::new("single");
        q.relations = vec![RelRef::new("title")];
        let res = MctsPlanner::new(MctsConfig::default()).plan(&model, &q);
        assert!(matches!(res.plan, PlanNode::Scan { .. }));
        assert_eq!(res.plans_evaluated, 3);
    }

    #[test]
    fn budget_cuts_off_search() {
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let model = fitted_model(&db);
        let q = three_way(&db);
        let planner = MctsPlanner::new(MctsConfig {
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
        let q = three_way(&db);
        let m1 = fitted_model(&db);
        let few = MctsPlanner::new(MctsConfig {
            budget_ms: 1e9,
            max_simulations: 5,
            ..Default::default()
        })
        .plan(&m1, &q);
        let m2 = fitted_model(&db);
        let many = MctsPlanner::new(MctsConfig {
            budget_ms: 1e9,
            max_simulations: 100,
            ..Default::default()
        })
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
    fn plan_assembler_matches_compiled_spec() {
        // The assembler must produce exactly what `LeftDeepSpec::compile`
        // produced for the same action sequence — same tree, same pushed
        // filters, same join-predicate order — since every bitwise
        // determinism guarantee is stated in terms of the emitted plan.
        use qpseeker_engine::inject::LeftDeepSpec;
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let q = three_way(&db);
        let asm = PlanAssembler::new(&q);
        let seqs: Vec<Vec<Action>> = vec![
            vec![
                Action::Start { rel: 0, scan: ScanOp::SeqScan },
                Action::Extend { rel: 1, scan: ScanOp::IndexScan, join: JoinOp::HashJoin },
                Action::Extend { rel: 2, scan: ScanOp::BitmapIndexScan, join: JoinOp::MergeJoin },
            ],
            vec![
                Action::Start { rel: 2, scan: ScanOp::IndexScan },
                Action::Extend { rel: 0, scan: ScanOp::SeqScan, join: JoinOp::NestedLoopJoin },
                Action::Extend { rel: 1, scan: ScanOp::SeqScan, join: JoinOp::HashJoin },
            ],
        ];
        for actions in &seqs {
            let spec = LeftDeepSpec {
                scans: actions
                    .iter()
                    .map(|a| {
                        let scan = match *a {
                            Action::Start { scan, .. } | Action::Extend { scan, .. } => scan,
                        };
                        (q.relations[a.rel() as usize].alias.clone(), scan)
                    })
                    .collect(),
                joins: actions
                    .iter()
                    .filter_map(|a| match *a {
                        Action::Extend { join, .. } => Some(join),
                        Action::Start { .. } => None,
                    })
                    .collect(),
            };
            let compiled = spec.compile(&q).expect("sequence compiles");
            assert_eq!(asm.build(actions), compiled);
        }
    }

    #[test]
    fn eval_plan_scores_match_full_build() {
        // The search scores `build_for_eval` plans (no join predicates)
        // but returns and reports `build` plans. That is only sound while
        // the fast featurization path ignores `preds`; this test turns the
        // invariant into a loud failure if featurization ever starts
        // reading them.
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let model = fitted_model(&db);
        let q = three_way(&db);
        let asm = PlanAssembler::new(&q);
        let actions = [
            Action::Start { rel: 0, scan: ScanOp::SeqScan },
            Action::Extend { rel: 1, scan: ScanOp::IndexScan, join: JoinOp::HashJoin },
            Action::Extend { rel: 2, scan: ScanOp::SeqScan, join: JoinOp::MergeJoin },
        ];
        let mut feat = FeatSession::new();
        let mut ctx = model.query_context(&q);
        let full =
            model.predict_with_context_in(&mut feat, &q, &asm.build(&actions), &mut ctx).runtime_ms;
        let eval = model
            .predict_with_context_in(&mut feat, &q, &asm.build_for_eval(&actions), &mut ctx)
            .runtime_ms;
        assert_eq!(full.to_bits(), eval.to_bits());
    }

    #[test]
    fn legal_actions_respect_connectivity() {
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let q = three_way(&db);
        let qi = QueryIndex::new(&q);
        let mut acts = Vec::new();
        legal_actions_into(&qi, &[], 0, &mut acts);
        assert_eq!(acts.len(), 3 * 3); // 3 relations x 3 scan ops
                                       // movie_info is relation index 1; title (index 0) is its only neighbor.
        let start = Action::Start { rel: 1, scan: ScanOp::SeqScan };
        legal_actions_into(&qi, &[start], 1 << 1, &mut acts);
        assert!(acts.iter().all(|a| matches!(a, Action::Extend { rel: 0, .. })));
        assert_eq!(acts.len(), 3 * 3); // 1 relation x 3 scans x 3 joins
    }

    #[test]
    fn action_pack_is_injective_over_ops() {
        let mut seen = std::collections::HashSet::new();
        for rel in 0..4u32 {
            for scan in ScanOp::ALL {
                assert!(seen.insert(Action::Start { rel, scan }.pack()));
                for join in JoinOp::ALL {
                    assert!(seen.insert(Action::Extend { rel, scan, join }.pack()));
                }
            }
        }
    }
}
