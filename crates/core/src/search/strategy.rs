//! The strategy layer: which search runs, and how candidates are scored.
//!
//! [`StrategyConfig`] is the serializable request-level knob (carried per
//! request by `serve` and per tenant by `tenant`): search kind (left-deep
//! MCTS or bushy beam), the risk weight λ, the latent sample count, the
//! beam width, and the MCTS rollout-batch size.
//! [`StrategyPlanner::from_config`] turns it plus the session's
//! [`MctsConfig`] (budget, evaluation cap, seed — shared by both
//! strategies) into the planner, which owns everything the searches share:
//! the empty-query check, the scoring function, the per-query index, the
//! single-relation plan and the result.
//!
//! # Risk-aware scoring
//!
//! The paper's cost modeler is a VAE: the encoder yields a latent mean μ(x)
//! *and* log-variance; mean-only inference (`eps = 0`) collapses that
//! distribution to a point. Risk-aware scoring draws `S` standard-normal
//! latent samples `eps_1..eps_S` from a **seeded** generator (a pure
//! function of the planner seed and the query id — never of thread or
//! worker count), decodes all of them, and summarizes a candidate plan by
//!
//! ```text
//! score = mean_s(runtime_s) + λ · σ_s(runtime_s)
//! ```
//!
//! so a plan whose cost the model is *unsure* about is penalized in
//! proportion to λ (per the robust-cost-model argument in Reqo). Risk is a
//! different *read-out* of the one scoring forward (rows carry an eps
//! block), not a different forward; λ = 0 submits rows without eps, which
//! is mean-only scoring.

use super::mcts::{MctsConfig, MctsResult};
use super::{beam, mcts, QueryIndex};
use crate::encoder::NodeMemo;
use crate::evalbroker::BrokerMember;
use crate::featurize::FeatSession;
use crate::model::{QPSeeker, QueryContext};
use crate::session::PlannerSession;
use qpseeker_engine::plan::{JoinOp, PlanNode, ScanOp};
use qpseeker_engine::query::Query;
use qpseeker_nn::prelude::Tensor;
use std::sync::Arc;
use std::time::Instant;

/// Which search algorithm a planning request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Left-deep Monte Carlo Tree Search (§5.2) — the original planner.
    Mcts,
    /// Deterministic beam search over the bushy plan space.
    Beam,
}

impl StrategyKind {
    /// Parse a CLI token (`"mcts"` / `"beam"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "mcts" => Some(Self::Mcts),
            "beam" => Some(Self::Beam),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Self::Mcts => "mcts",
            Self::Beam => "beam",
        }
    }
}

/// Per-request (or per-tenant) search-strategy selection. Defaults
/// reproduce the pre-strategy-layer planner exactly: left-deep MCTS,
/// mean-only scoring.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyConfig {
    pub kind: StrategyKind,
    /// Risk weight λ ≥ 0: candidates are ranked by `mean + λ·σ` over the
    /// latent samples. `0` disables sampling (mean-only scoring).
    pub risk_lambda: f64,
    /// Latent samples `S` drawn per evaluation when `risk_lambda > 0`;
    /// `0` is mean-only scoring whatever λ is.
    pub risk_samples: usize,
    /// States kept per level by the beam strategy.
    pub beam_width: usize,
    /// How many distinct completed rollouts an MCTS session queues before
    /// scoring them in one forward; `None` is [`DEFAULT_BATCH_EVAL`], `<= 1`
    /// scores every rollout as soon as it completes (a queue of one). A plan's *score* does not depend on
    /// what it is batched with, but the MCTS *trajectory* does — queued
    /// rollouts carry virtual loss and back up later, so the tree visits
    /// different plans under a simulation cap — hence the resolved size is
    /// **plan-affecting** and part of [`Self::cache_stamp`]. Beam search is
    /// RNG-free and level-synchronous: it always scores a level's fresh
    /// completions in one call and ignores this field.
    pub batch_eval: Option<usize>,
}

/// The MCTS rollout-batch size used when [`StrategyConfig::batch_eval`] is
/// `None`.
pub const DEFAULT_BATCH_EVAL: usize = 16;

impl Default for StrategyConfig {
    fn default() -> Self {
        Self {
            kind: StrategyKind::Mcts,
            risk_lambda: 0.0,
            risk_samples: 8,
            beam_width: 8,
            batch_eval: None,
        }
    }
}

impl StrategyConfig {
    pub(crate) fn risk(&self) -> RiskParams {
        RiskParams { lambda: self.risk_lambda, samples: self.risk_samples }
    }

    /// The MCTS rollout-batch size in effect: `None` resolved, and every
    /// "immediate backup" setting folded to 1.
    fn mcts_batch(&self) -> usize {
        self.batch_eval.unwrap_or(DEFAULT_BATCH_EVAL).max(1)
    }

    /// Compact stamp of every knob that can change the emitted plan, for
    /// the plan cache: a cached plan may only be served to a request whose
    /// strategy stamp matches the one it was planned under. Irrelevant
    /// knobs are normalized out (beam width under MCTS, rollout-batch size
    /// under beam, λ and sample count whenever either makes scoring
    /// mean-only) so equivalent configurations share entries.
    pub fn cache_stamp(&self) -> u64 {
        let (bw, batch) = match self.kind {
            StrategyKind::Mcts => (0, self.mcts_batch() as u64),
            StrategyKind::Beam => (self.beam_width as u64, 0),
        };
        let (lambda_bits, samples) = if self.risk().enabled() {
            (self.risk_lambda.to_bits(), self.risk_samples as u64)
        } else {
            (0, 0)
        };
        qpseeker_storage::fnv::words(&[self.kind as u64, lambda_bits, samples, bw, batch])
    }
}

/// Risk-scoring parameters handed to a planner: `mean + λ·σ` over
/// `samples` seeded latent draws. Disabled (mean-only) when λ = 0 or
/// `samples` = 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RiskParams {
    pub lambda: f64,
    pub samples: usize,
}

impl RiskParams {
    pub(crate) fn enabled(&self) -> bool {
        self.lambda > 0.0 && self.samples > 0
    }
}

/// The planner. It runs the search a [`StrategyConfig`] selects under the
/// wall-clock budget, evaluation cap (`max_simulations`) and seed of an
/// [`MctsConfig`], with all mutable state in the caller's
/// [`PlannerSession`]. Every search reports through [`MctsResult`];
/// `predicted_ms` is the selection score — the model's mean predicted
/// runtime, or `mean + λ·σ` under risk scoring.
#[derive(Debug, Clone)]
pub struct StrategyPlanner {
    strategy: StrategyConfig,
    mcts: MctsConfig,
}

impl StrategyPlanner {
    /// Build the planner a request asked for. `mcts` carries the knobs
    /// shared by both strategies exactly as serving derives them per
    /// attempt.
    pub fn from_config(strategy: &StrategyConfig, mcts: MctsConfig) -> Self {
        Self { strategy: strategy.clone(), mcts }
    }

    /// One-shot [`Self::plan_with_session`] on a fresh [`PlannerSession`]
    /// built for this call (cold featurization caches every time): for
    /// examples and experiments; anything planning in a loop keeps its own
    /// session.
    pub fn plan(&self, model: &QPSeeker, query: &Query) -> MctsResult {
        self.plan_with_session(model, query, &mut PlannerSession::new())
    }

    /// Plan `query` using `model` as the evaluation function, with all
    /// mutable state in `sess`. The query is encoded exactly once (its
    /// [`QueryContext`]); every candidate reuses that embedding and only
    /// pays for the plan side.
    pub fn plan_with_session(
        &self,
        model: &QPSeeker,
        query: &Query,
        sess: &mut PlannerSession,
    ) -> MctsResult {
        assert!(!query.relations.is_empty(), "cannot plan an empty query");
        let start = Instant::now();
        let PlannerSession { feat, search, broker, memo } = sess;
        let risk = self.strategy.risk();
        let ctx = model.query_context_reusing(query, std::mem::take(memo));
        let mut ev = Evaluator::new(model, query, feat, ctx, risk, self.mcts.seed, broker.as_ref());
        let qi = QueryIndex::new(query);
        let found = match self.strategy.kind {
            _ if qi.n == 1 => best_scan(&qi, &mut ev),
            StrategyKind::Mcts => {
                let batch = self.strategy.mcts_batch();
                mcts::search(&self.mcts, batch, &qi, &mut ev, &mut search.mcts, start)
            }
            StrategyKind::Beam => {
                let width = self.strategy.beam_width.max(1);
                beam::search(&self.mcts, width, &qi, &mut ev, &mut search.beam, start)
            }
        };
        MctsResult {
            plan: found.plan,
            predicted_ms: found.score,
            simulations: found.simulations,
            plans_evaluated: ev.evals,
            nodes_encoded: ev.finish(memo),
            budget_exhausted: found.budget_exhausted,
        }
    }
}

/// What a search returns to the front end: the chosen plan, its selection
/// score, the search steps taken, and whether the wall-clock budget cut the
/// search short. The candidates scored are the evaluator's count.
pub(crate) struct Found {
    pub(crate) plan: PlanNode,
    pub(crate) score: f64,
    pub(crate) simulations: usize,
    pub(crate) budget_exhausted: bool,
}

/// A single relation: score its three scans in one call; the first of the
/// cheapest wins.
fn best_scan(qi: &QueryIndex, ev: &mut Evaluator) -> Found {
    let ids = ScanOp::ALL.map(|op| ev.scan(0, op));
    let mut scores = Vec::with_capacity(ids.len());
    ev.score(&ids, &mut scores);
    let best = (1..ids.len()).fold(0, |b, k| if scores[k] < scores[b] { k } else { b });
    Found {
        plan: qi.scan(0, ScanOp::ALL[best]),
        score: scores[best],
        simulations: ids.len(),
        budget_exhausted: false,
    }
}

/// The scoring function every search evaluates candidates through, over
/// one query. Candidates are named by node ids of the query's
/// [`PlanFeatCache`](crate::featurize::PlanFeatCache): a search interns a
/// plan bottom-up through [`Self::scan`] and [`Self::join`] (featurizing
/// each subtree the first time it is seen), and equal ids are equal plans
/// apart from join predicates, which no score reads. [`Self::score`] runs
/// root ids through the model's single forward — on this thread, or fused
/// with other sessions' rows by the broker — and memoizes each score by
/// its id ([`Self::known`]). It holds the query's [`QueryContext`]
/// (embedding, featurization cache, node memo) for the whole search.
/// Mean-only scoring reads out the runtime column; risk-aware scoring ranks
/// by `mean + λ·σ` over the seeded latent batch.
///
/// The `eps` tensor is derived from `(seed, query.id)` alone, so every
/// worker and batch layout scores a given plan identically.
pub(crate) struct Evaluator<'a> {
    model: &'a QPSeeker,
    pub(crate) query: &'a Query,
    feat: &'a mut FeatSession,
    ctx: QueryContext,
    risk: Option<RiskCtx>,
    /// Seat on a shared [`crate::evalbroker::EvalBroker`]: when present,
    /// submissions park there to fuse with other sessions' rows instead of
    /// running a private forward. A row's score does not depend on what it
    /// is fused with, so attachment never changes a plan.
    broker: Option<&'a BrokerMember>,
    /// Root id → its score, once scored.
    scores: Vec<Option<f64>>,
    /// Candidate rows scored so far.
    pub(crate) evals: usize,
}

struct RiskCtx {
    lambda: f64,
    /// `[samples, latent]` seeded standard-normal draws, shared with every
    /// submission of the query.
    eps: Arc<Tensor>,
}

/// Salt separating the risk-eps stream from the MCTS rollout RNG, which is
/// seeded from the same `(seed, query.id)` pair.
const RISK_EPS_SALT: u64 = 0x7a3d_91b4_c65f_20e7;

impl<'a> Evaluator<'a> {
    /// `broker` is the planning session's seat, if it has one. Risk
    /// scoring is on only when `risk` is enabled.
    pub(crate) fn new(
        model: &'a QPSeeker,
        query: &'a Query,
        feat: &'a mut FeatSession,
        ctx: QueryContext,
        risk: RiskParams,
        seed: u64,
        broker: Option<&'a BrokerMember>,
    ) -> Self {
        let risk = risk.enabled().then(|| RiskCtx {
            lambda: risk.lambda,
            eps: model.risk_eps(
                risk.samples,
                seed ^ qpseeker_storage::fnv::bytes(query.id.as_bytes()) ^ RISK_EPS_SALT,
            ),
        });
        Self { model, query, feat, ctx, risk, broker, scores: Vec::new(), evals: 0 }
    }

    /// The node id of relation `rel`'s scan under `op`.
    pub(crate) fn scan(&mut self, rel: u32, op: ScanOp) -> u32 {
        self.ctx.interner(self.model, self.feat, self.query).scan(rel, op)
    }

    /// The node id of `left ⋈op right`.
    pub(crate) fn join(&mut self, op: JoinOp, left: u32, right: u32) -> u32 {
        self.ctx.interner(self.model, self.feat, self.query).join(op, left, right)
    }

    /// The node id of a plan of the query.
    pub(crate) fn intern(&mut self, plan: &PlanNode) -> u32 {
        self.ctx.interner(self.model, self.feat, self.query).plan(plan)
    }

    /// The score of root `id`, if it was scored.
    pub(crate) fn known(&self, id: u32) -> Option<f64> {
        self.scores.get(id as usize).copied().flatten()
    }

    /// Score the candidates rooted at `roots` into `scores`, cleared first,
    /// in order, and memoize each by its id. The only fork is where the
    /// plan-encoder phase runs: fused in a broker round, or here. The VAE
    /// head always runs on this thread.
    pub(crate) fn score(&mut self, roots: &[u32], scores: &mut Vec<f64>) {
        scores.clear();
        if roots.is_empty() {
            return;
        }
        let eps = self.risk.as_ref().map(|r| &r.eps);
        let sub = self.model.submission(&mut self.ctx, roots, eps);
        let (encoded, sub) = match self.broker {
            Some(member) => member.submit(sub),
            None => self.model.encode_local(sub),
        };
        let outcome = self.model.head(&sub, encoded);
        self.ctx.reclaim(sub);
        match &self.risk {
            None => scores.extend(outcome.mean().iter().map(|p| p.runtime_ms)),
            Some(r) => {
                scores.extend(outcome.risk().iter().map(|&(mean, sigma)| mean + r.lambda * sigma))
            }
        }
        self.evals += roots.len();
        for (&id, &s) in roots.iter().zip(scores.iter()) {
            let at = id as usize;
            self.scores.resize(self.scores.len().max(at + 1), None);
            self.scores[at] = Some(s);
        }
    }

    /// End the query: hand the node memo back to the session's `slot` and
    /// return the plan-node rows encoded for it.
    fn finish(self, slot: &mut NodeMemo) -> usize {
        self.ctx.finish(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::tests::fitted_model;
    use qpseeker_engine::query::RelRef;
    use qpseeker_storage::datagen::imdb;

    #[test]
    fn single_relation_query_picks_a_scan() {
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let model = fitted_model(&db);
        let mut q = Query::new("single");
        q.relations = vec![RelRef::new("title")];
        for kind in [StrategyKind::Mcts, StrategyKind::Beam] {
            let strat = StrategyConfig { kind, ..Default::default() };
            let res = StrategyPlanner::from_config(&strat, MctsConfig::default()).plan(&model, &q);
            assert!(matches!(res.plan, PlanNode::Scan { .. }), "{}", kind.as_str());
            assert_eq!(res.plans_evaluated, 3, "{}", kind.as_str());
        }
    }
}
