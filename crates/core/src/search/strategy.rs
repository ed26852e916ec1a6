//! The strategy layer: which search runs, and how candidates are scored.
//!
//! [`StrategyConfig`] is the serializable request-level knob (carried per
//! request by `serve` and per tenant by `tenant`): search kind (left-deep
//! MCTS or bushy beam), the risk weight λ, the latent sample count, the
//! beam width, and the MCTS rollout-batch size. [`StrategyPlanner::from_config`] turns it plus the session's
//! [`MctsConfig`] (budget, evaluation cap, seed — shared by both
//! strategies) into a runnable planner.
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

use super::beam::BeamPlanner;
use super::mcts::{MctsConfig, MctsPlanner, MctsResult};
use crate::featurize::FeatSession;
use crate::model::{QPSeeker, QueryContext};
use qpseeker_engine::plan::PlanNode;
use qpseeker_engine::query::Query;
use qpseeker_nn::prelude::Tensor;

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
    /// Latent samples `S` drawn per evaluation when `risk_lambda > 0`.
    pub risk_samples: usize,
    /// States kept per level by the beam strategy.
    pub beam_width: usize,
    /// How many distinct completed rollouts an MCTS session queues before
    /// scoring them in one forward; `None` is [`DEFAULT_BATCH_EVAL`], `<= 1`
    /// scores every rollout immediately. A plan's *score* does not depend on
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
    /// under beam, sample count at λ = 0) so equivalent configurations
    /// share entries.
    pub fn cache_stamp(&self) -> u64 {
        let (bw, batch) = match self.kind {
            StrategyKind::Mcts => (0, self.mcts_batch() as u64),
            StrategyKind::Beam => (self.beam_width as u64, 0),
        };
        let (lambda_bits, samples) = if self.risk_lambda > 0.0 {
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

/// Strategy dispatch: the concrete planner chosen by a [`StrategyConfig`].
/// Both strategies plan one query with all mutable state in the caller's
/// session and report through [`MctsResult`] (plan, predicted score, work
/// counters); `predicted_ms` is the selection score — the model's mean
/// predicted runtime, or `mean + λ·σ` under risk scoring.
pub enum StrategyPlanner {
    Mcts(MctsPlanner),
    Beam(BeamPlanner),
}

impl StrategyPlanner {
    /// Build the planner a request asked for. `mcts` carries the knobs
    /// shared by both strategies — wall-clock budget, evaluation cap
    /// (`max_simulations`) and seed — exactly as serving already derives
    /// them per attempt.
    pub fn from_config(strat: &StrategyConfig, mcts: MctsConfig) -> Self {
        let risk = strat.risk();
        match strat.kind {
            StrategyKind::Mcts => {
                Self::Mcts(MctsPlanner::with_risk(mcts, risk, strat.mcts_batch()))
            }
            StrategyKind::Beam => Self::Beam(BeamPlanner::with_risk(mcts, strat.beam_width, risk)),
        }
    }

    pub fn plan_with_session(
        &self,
        model: &QPSeeker,
        query: &Query,
        sess: &mut crate::session::PlannerSession,
    ) -> MctsResult {
        match self {
            Self::Mcts(p) => p.plan_with_session(model, query, sess),
            Self::Beam(p) => p.plan_with_session(model, query, sess),
        }
    }
}

/// The scoring function both strategies evaluate candidates through: one
/// method, [`Self::score`], which featurizes the candidates into a
/// [`Submission`](crate::evalbroker::Submission) and runs it through the
/// model's single forward — on this thread, or fused with other sessions'
/// rows by the broker. Mean-only (`risk: None`) reads out the runtime
/// column; risk-aware scoring ranks by `mean + λ·σ` over the seeded latent
/// batch.
///
/// The `eps` tensor is derived from `(seed, query.id)` alone, so every
/// worker and batch layout scores a given plan identically.
pub(crate) struct Evaluator<'a> {
    model: &'a QPSeeker,
    risk: Option<RiskCtx>,
    /// Seat on a shared [`crate::evalbroker::EvalBroker`]: when present,
    /// submissions park there to fuse with other sessions' rows instead of
    /// running a private forward. A row's score does not depend on what it
    /// is fused with, so attachment never changes a plan.
    broker: Option<&'a crate::evalbroker::BrokerMember>,
}

struct RiskCtx {
    lambda: f64,
    /// `[samples, latent]` seeded standard-normal draws.
    eps: Tensor,
}

/// Salt separating the risk-eps stream from the MCTS rollout RNG, which is
/// seeded from the same `(seed, query.id)` pair.
const RISK_EPS_SALT: u64 = 0x7a3d_91b4_c65f_20e7;

impl<'a> Evaluator<'a> {
    /// `broker` is the planning session's seat, if it has one.
    pub(crate) fn new(
        model: &'a QPSeeker,
        query: &Query,
        risk: Option<&RiskParams>,
        seed: u64,
        broker: Option<&'a crate::evalbroker::BrokerMember>,
    ) -> Self {
        let risk = risk.filter(|r| r.enabled()).map(|r| RiskCtx {
            lambda: r.lambda,
            eps: model.risk_eps(
                r.samples,
                seed ^ qpseeker_storage::fnv::bytes(query.id.as_bytes()) ^ RISK_EPS_SALT,
            ),
        });
        Self { model, risk, broker }
    }

    /// Score `plans` (candidates of `query`) into `scores`, cleared first,
    /// in order. The only fork is where the forward runs.
    pub(crate) fn score(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plans: &[&PlanNode],
        ctx: &mut QueryContext,
        scores: &mut Vec<f64>,
    ) {
        scores.clear();
        if plans.is_empty() {
            return;
        }
        let eps = self.risk.as_ref().map(|r| &r.eps);
        let sub = self.model.submission(sess, query, plans, ctx, eps);
        let (outcome, sub) = match self.broker {
            Some(member) => member.submit(sub),
            None => self.model.score_local(sub),
        };
        ctx.reclaim(sub);
        match &self.risk {
            None => scores.extend(outcome.mean().iter().map(|p| p.runtime_ms)),
            Some(r) => {
                scores.extend(outcome.risk().iter().map(|&(mean, sigma)| mean + r.lambda * sigma))
            }
        }
    }
}
