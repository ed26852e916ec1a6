//! Strategy-layer suite: pluggable search (left-deep MCTS / bushy beam)
//! and risk-aware scoring under the serving loop.
//!
//! Four guarantees are exercised here, end to end:
//! 1. seeded latent sampling is deterministic: the same seed produces
//!    bitwise-identical (mean, σ) risk statistics across independent
//!    sessions ("workers") and across scalar vs batched evaluation;
//! 2. λ = 0 short-circuits to the exact mean-only code path — the plan and
//!    its prediction are bitwise equal to the plain MCTS planner's;
//! 3. worker count stays invisible under every strategy × λ × batch
//!    combination (PR4's invariant extended to the strategy layer);
//! 4. the serving loop conserves accounting under chaos for every strategy
//!    combination, and the plan cache never serves one strategy's plan to
//!    another (the strategy stamp keys entries).
//!
//! CI matrix hooks: `QPS_CHAOS_SEED` varies fault schedules;
//! `QPS_STRATEGY` (`mcts`|`beam`) and `QPS_RISK_LAMBDA` pin the matrix to
//! one combination per job.

mod common;

use common::OneLane;
use qpseeker_repro::core::prelude::*;
use qpseeker_repro::engine::prelude::*;
use qpseeker_repro::storage::{Database, FaultConfig};
use qpseeker_repro::workloads::{synthetic, Qep, SyntheticConfig};
use std::sync::{Arc, OnceLock};

fn shared_db() -> &'static Arc<Database> {
    static DB: OnceLock<Arc<Database>> = OnceLock::new();
    DB.get_or_init(|| Arc::new(qpseeker_repro::storage::datagen::imdb::generate(0.04, 2)))
}

/// One fitted model shared by every test (training is the slow part).
fn shared_model() -> &'static Arc<QPSeeker> {
    static MODEL: OnceLock<Arc<QPSeeker>> = OnceLock::new();
    MODEL.get_or_init(|| {
        let db = shared_db();
        let w = synthetic::generate(db, &SyntheticConfig { n_queries: 12, seed: 3 });
        let refs: Vec<&Qep> = w.qeps.iter().collect();
        let mut model = QPSeeker::new(db, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        Arc::new(model)
    })
}

fn chaos_seed() -> u64 {
    std::env::var("QPS_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

fn queries(n: usize, seed: u64) -> Vec<Query> {
    synthetic::generate_queries(shared_db(), &SyntheticConfig { n_queries: n, seed })
        .into_iter()
        .map(|(q, _sql)| q)
        .collect()
}

/// The strategy × λ combinations under test. `QPS_STRATEGY` and
/// `QPS_RISK_LAMBDA` (set by the CI matrix) pin the sweep to one entry;
/// unset, the full 2×2 matrix runs.
fn strategy_matrix() -> Vec<StrategyConfig> {
    let kinds: Vec<StrategyKind> = match std::env::var("QPS_STRATEGY") {
        Ok(s) => vec![StrategyKind::parse(&s).expect("QPS_STRATEGY must be mcts|beam")],
        Err(_) => vec![StrategyKind::Mcts, StrategyKind::Beam],
    };
    let lambdas: Vec<f64> = match std::env::var("QPS_RISK_LAMBDA") {
        Ok(l) => vec![l.parse().expect("QPS_RISK_LAMBDA must be a float")],
        Err(_) => vec![0.0, 0.5],
    };
    let mut out = Vec::new();
    for &kind in &kinds {
        for &risk_lambda in &lambdas {
            out.push(StrategyConfig { kind, risk_lambda, ..StrategyConfig::default() });
        }
    }
    out
}

/// Left-deep chain plan over `query.relations` in declaration order, one
/// scan op for every leaf — candidates of the same tree shape, so the
/// batched evaluation path engages.
fn chain_plan(q: &Query, scan: ScanOp) -> PlanNode {
    let mut node = PlanNode::scan(q, &q.relations[0].alias, scan);
    for r in &q.relations[1..] {
        node = PlanNode::Join {
            op: JoinOp::HashJoin,
            left: Box::new(node),
            right: Box::new(PlanNode::scan(q, &r.alias, scan)),
            preds: q.joins.iter().filter(|j| j.touches(&r.alias)).cloned().collect(),
        };
    }
    node
}

/// Guarantee 1: same seed ⇒ bitwise-identical (mean, σ), across fresh
/// sessions standing in for workers, and across scalar vs batched scoring.
#[test]
fn seeded_risk_stats_are_bitwise_identical_across_sessions_and_batches() {
    let model = shared_model();
    let qs = queries(6, 0x5a11 ^ chaos_seed());
    let q = qs.iter().find(|q| q.relations.len() >= 3).expect("a multi-join query");

    // The draw itself is a pure function of (samples, seed).
    let e1 = model.risk_eps(8, 0xfeed);
    let e2 = model.risk_eps(8, 0xfeed);
    assert_eq!(e1.data(), e2.data(), "risk_eps must be deterministic");
    let e3 = model.risk_eps(8, 0xfeed ^ 1);
    assert_ne!(e1.data(), e3.data(), "a different seed must draw differently");

    let plans: Vec<PlanNode> = ScanOp::ALL.iter().map(|&s| chain_plan(q, s)).collect();
    let plan_refs: Vec<&PlanNode> = plans.iter().collect();

    // "Workers" 1, 2, 4: independent sessions and contexts over the shared
    // model, scalar path.
    let mut reference: Option<Vec<(u64, u64)>> = None;
    for _worker_pool in [1usize, 2, 4] {
        let mut sess = model.new_session();
        let mut ctx = model.query_context(q);
        let mut one = Vec::new();
        let stats: Vec<(u64, u64)> = plans
            .iter()
            .map(|p| {
                model.predict_risk_batch_with_context_in(
                    &mut sess.feat,
                    q,
                    &[p],
                    &mut ctx,
                    &e1,
                    &mut one,
                );
                let (m, s) = one[0];
                assert!(m.is_finite() && s.is_finite() && s >= 0.0);
                (m.to_bits(), s.to_bits())
            })
            .collect();
        match &reference {
            None => reference = Some(stats),
            Some(r) => assert_eq!(r, &stats, "risk stats diverged across sessions"),
        }
    }

    // Batch on: one sampled pass over all candidates, bitwise equal per row.
    let mut sess = model.new_session();
    let mut ctx = model.query_context(q);
    let mut batched = Vec::new();
    model.predict_risk_batch_with_context_in(
        &mut sess.feat,
        q,
        &plan_refs,
        &mut ctx,
        &e1,
        &mut batched,
    );
    let batched_bits: Vec<(u64, u64)> =
        batched.iter().map(|(m, s)| (m.to_bits(), s.to_bits())).collect();
    assert_eq!(reference.unwrap(), batched_bits, "batched risk stats diverged from scalar");
}

/// Guarantee 2: λ = 0 is not "approximately" the old planner — it takes the
/// identical code path, so the chosen plan and its predicted runtime are
/// bitwise equal to the plain `MctsPlanner`'s on every query.
#[test]
fn lambda_zero_plans_bitwise_equal_the_mean_only_path() {
    let model = shared_model();
    let mcts_cfg = MctsConfig { budget_ms: 1e9, max_simulations: 40, ..MctsConfig::default() };
    let strat = StrategyConfig { risk_lambda: 0.0, ..StrategyConfig::default() };
    for q in &queries(8, 0x10ad ^ chaos_seed()) {
        let mut s1 = model.new_session();
        let r1 = MctsPlanner::new(mcts_cfg.clone()).plan_with_session(model, q, &mut s1);
        let mut s2 = model.new_session();
        let r2 = StrategyPlanner::from_config(&strat, mcts_cfg.clone())
            .plan_with_session(model, q, &mut s2);
        assert_eq!(r1.plan, r2.plan, "query {}: λ=0 changed the plan", q.id);
        assert_eq!(
            r1.predicted_ms.to_bits(),
            r2.predicted_ms.to_bits(),
            "query {}: λ=0 changed the prediction",
            q.id
        );
        assert_eq!(r1.plans_evaluated, r2.plans_evaluated, "query {}", q.id);
    }
}

/// A supervisor config in which nothing is timing- or worker-count-
/// dependent (simulation-capped search, breaker that cannot trip, no
/// shedding), parameterized by strategy and batch mode.
fn deterministic_cfg(
    workers: usize,
    strat: &StrategyConfig,
    batch_eval: usize,
) -> SupervisorConfig {
    SupervisorConfig {
        serve: ServeConfig {
            mcts: MctsConfig { budget_ms: 1e9, max_simulations: 16, ..MctsConfig::default() },
            strategy: StrategyConfig { batch_eval: Some(batch_eval), ..strat.clone() },
            deadline_ms: 1e12,
            max_retries: 1,
            backoff_base_ms: 0.0,
            faults: None,
        },
        window: 16,
        min_samples: 8,
        failure_threshold: 2.0,
        cooldown_queries: 8,
        probe_successes: 3,
        queue_capacity: 4096,
        service_ms: 5.0,
        workers,
        broker: None,
    }
}

fn gentle_requests(n: usize, qseed: u64) -> Vec<QueryRequest> {
    queries(n, qseed)
        .into_iter()
        .enumerate()
        .map(|(i, query)| {
            let arrival_ms = i as f64;
            QueryRequest { query, arrival_ms, deadline_ms: 1e12 }
        })
        .collect()
}

/// Guarantee 3: under every strategy × λ × batch combination, 1 and 4
/// workers choose bitwise-identical plans with bitwise-identical
/// predictions — seeded risk sampling must be a function of the query, not
/// of which worker scores it.
#[test]
fn every_strategy_is_identical_across_worker_counts() {
    let db = shared_db();
    let model = shared_model();
    for strat in strategy_matrix() {
        for batch_eval in [1usize, 16] {
            let stream = gentle_requests(8, 0x3a7e ^ chaos_seed());
            let run = |workers: usize| {
                let cfg = deterministic_cfg(workers, &strat, batch_eval);
                let mut sup = OneLane::new(cfg, db, Some(model));
                let outcomes = sup.run(&stream);
                (outcomes, sup.counters())
            };
            let (ref_outcomes, ref_counters) = run(1);
            assert!(ref_counters.conservation_holds(), "{ref_counters}");
            let (outcomes, counters) = run(4);
            assert_eq!(
                counters,
                ref_counters,
                "{}/λ={}/batch={batch_eval}: counters diverged",
                strat.kind.as_str(),
                strat.risk_lambda
            );
            for (a, b) in ref_outcomes.iter().zip(&outcomes) {
                let (ra, rb) = match (&a.disposition, &b.disposition) {
                    (Disposition::Served(ra), Disposition::Served(rb)) => (ra, rb),
                    other => panic!("non-served disposition in deterministic stream: {other:?}"),
                };
                assert_eq!(
                    ra.plan,
                    rb.plan,
                    "query {}: {}/λ={}/batch={batch_eval} plan diverged at 4 workers",
                    a.query_id,
                    strat.kind.as_str(),
                    strat.risk_lambda
                );
                assert_eq!(
                    ra.predicted_ms.map(f64::to_bits),
                    rb.predicted_ms.map(f64::to_bits),
                    "query {}: {}/λ={}/batch={batch_eval} prediction diverged at 4 workers",
                    a.query_id,
                    strat.kind.as_str(),
                    strat.risk_lambda
                );
            }
        }
    }
}

/// Guarantee 4a: accounting is conserved under chaos for every strategy
/// combination — admitted = served_neural + served_classical + failed, and
/// every served plan validates.
#[test]
fn chaos_stream_conserves_accounting_under_every_strategy() {
    let db = shared_db();
    let model = shared_model();
    for strat in strategy_matrix() {
        let mut cfg = deterministic_cfg(2, &strat, 16);
        cfg.serve.mcts =
            MctsConfig { budget_ms: 10.0, max_simulations: 8, ..MctsConfig::default() };
        cfg.serve.deadline_ms = 10_000.0;
        cfg.serve.faults = Some(FaultConfig::chaos(0xc4a0 ^ chaos_seed(), 0.1));
        let stream = gentle_requests(40, 0x5eed ^ chaos_seed());
        let mut sup = OneLane::new(cfg, db, Some(model));
        let outcomes = sup.run(&stream);
        let c = sup.counters();
        assert!(c.conservation_holds(), "{}/λ={}: {c}", strat.kind.as_str(), strat.risk_lambda);
        assert_eq!(outcomes.len(), stream.len());
        for (req, o) in stream.iter().zip(&outcomes) {
            if let Disposition::Served(r) = &o.disposition {
                let q = &req.query;
                r.plan.validate(q).unwrap_or_else(|e| {
                    panic!(
                        "query {}: {}/λ={} served invalid plan: {e}",
                        o.query_id,
                        strat.kind.as_str(),
                        strat.risk_lambda
                    )
                });
            }
        }
    }
}

/// Guarantee 4b, end to end through the serving loop: a shared plan cache
/// across a strategy switch never serves a foreign plan. The first pass
/// under each strategy must get zero cache hits (the other strategy's
/// entries carry a different stamp), and a repeat pass under the same
/// strategy hits and reproduces the identical plans.
#[test]
fn plan_cache_is_isolated_per_strategy_end_to_end() {
    let db = shared_db();
    let model = shared_model();
    let cache = Arc::new(PlanCache::new(4, 64));
    let stream = gentle_requests(6, 0xcace ^ chaos_seed());

    // The MCTS rollout-batch size changes the search trajectory, hence the
    // plan: it sits right after the default so its first pass faces entries
    // that differ from it in nothing else.
    let strategies = [
        StrategyConfig::default(),
        StrategyConfig { batch_eval: Some(1), ..StrategyConfig::default() },
        StrategyConfig { kind: StrategyKind::Beam, ..StrategyConfig::default() },
        StrategyConfig { risk_lambda: 0.5, ..StrategyConfig::default() },
    ];
    let run = |strat: &StrategyConfig| {
        let cfg = deterministic_cfg(1, strat, strat.batch_eval.unwrap_or(16));
        let mut sup = OneLane::with_cache(cfg, db, Some(model), Some(Arc::clone(&cache)));
        let outcomes = sup.run(&stream);
        (outcomes, sup.counters())
    };

    // Each strategy plans the stream, then repeats it. The repeat must be
    // all hits reproducing the identical plans; the *next* strategy's first
    // pass must get zero hits — the resident entries carry the previous
    // strategy's stamp, so its lookups stale-reject (and eagerly evict)
    // them rather than serve a foreign plan.
    for strat in &strategies {
        let (first, counters) = run(strat);
        assert_eq!(
            counters.cache_hits,
            0,
            "{}/λ={}: first pass must not hit another strategy's entries",
            strat.kind.as_str(),
            strat.risk_lambda
        );
        let (outcomes, counters) = run(strat);
        assert_eq!(
            counters.cache_hits,
            stream.len(),
            "{}/λ={}: repeat pass must be all cache hits",
            strat.kind.as_str(),
            strat.risk_lambda
        );
        for (a, b) in first.iter().zip(&outcomes) {
            let (ra, rb) = match (&a.disposition, &b.disposition) {
                (Disposition::Served(ra), Disposition::Served(rb)) => (ra, rb),
                other => panic!("non-served disposition: {other:?}"),
            };
            assert!(rb.cache_hit, "query {}: expected a cache hit", a.query_id);
            assert_eq!(ra.plan, rb.plan, "query {}: cache returned a foreign plan", a.query_id);
        }
    }
}
