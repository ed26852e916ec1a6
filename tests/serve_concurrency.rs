//! Concurrency suite for the supervised serving loop.
//!
//! Three guarantees are exercised here:
//! 1. worker count is invisible in results: `--workers 1` and `--workers 4`
//!    over the same request stream choose bitwise-identical plans and report
//!    identical per-outcome counter totals;
//! 2. a pool of real worker threads under full chaos (injected NaNs, stalls
//!    and panics) never deadlocks and never loses a request — accounting is
//!    conserved exactly: admitted = served_neural + served_classical + failed;
//! 3. an injected planner panic on one worker is contained by the per-request
//!    boundary: the worker stays alive and keeps serving the rest of the
//!    stream.
//!
//! Set `QPS_CHAOS_SEED` to vary every fault schedule (CI sweeps seeds).

mod common;

use common::{chaos_seed, shared_db, shared_model, OneLane};
use qpseeker_repro::core::prelude::*;
use qpseeker_repro::engine::prelude::*;
use qpseeker_repro::storage::FaultConfig;
use qpseeker_repro::workloads::{synthetic, SyntheticConfig};
use std::sync::Arc;

fn queries(n: usize, seed: u64) -> Vec<Query> {
    synthetic::generate_queries(shared_db(), &SyntheticConfig { n_queries: n, seed })
        .into_iter()
        .map(|(q, _sql)| q)
        .collect()
}

/// The model type shared across worker threads must be `Send + Sync`; this
/// is a compile-time assertion, not a runtime check.
#[test]
fn planner_model_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PlannerModel>();
    assert_send_sync::<QPSeeker>();
    assert_send_sync::<Arc<PlannerModel>>();
}

/// A supervisor config in which nothing is timing- or worker-count-
/// dependent: simulation-capped MCTS (never wall-clock), a breaker that can
/// never trip (threshold above 1.0), and deadlines/queue bounds generous
/// enough that no request is ever shed.
fn deterministic_cfg(workers: usize) -> SupervisorConfig {
    SupervisorConfig {
        serve: ServeConfig {
            mcts: MctsConfig { budget_ms: 1e9, max_simulations: 16, ..MctsConfig::default() },
            strategy: Default::default(),
            deadline_ms: 1e12,
            max_retries: 1,
            backoff_base_ms: 0.0,
            faults: None,
        },
        window: 16,
        min_samples: 8,
        failure_threshold: 2.0, // a rate can never exceed 1.0: breaker never opens
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

/// Acceptance: the same request stream through 1 worker and through 4
/// workers produces bitwise-identical plan choices (MCTS is seeded per
/// query, caches change warmth but never values) and identical counter
/// totals — order-independent, since tallies are merged exactly.
#[test]
fn worker_counts_produce_identical_plans_and_counters() {
    let db = shared_db();
    let model = shared_model();
    let stream = gentle_requests(14, 0xd17e ^ chaos_seed());

    let run = |workers: usize| {
        let mut sup = OneLane::new(deterministic_cfg(workers), db, Some(model));
        let outcomes = sup.run(&stream);
        (outcomes, sup.counters())
    };
    let (ref_outcomes, ref_counters) = run(1);
    assert_eq!(ref_counters.admitted, stream.len(), "generous bounds must admit everything");
    assert!(ref_counters.conservation_holds(), "{ref_counters}");

    for workers in [2usize, 4] {
        let (outcomes, counters) = run(workers);
        assert_eq!(counters, ref_counters, "counters diverged at {workers} workers");
        assert_eq!(outcomes.len(), ref_outcomes.len());
        for (a, b) in ref_outcomes.iter().zip(&outcomes) {
            assert_eq!(a.query_id, b.query_id, "outcome order must follow arrival order");
            let (ra, rb) = match (&a.disposition, &b.disposition) {
                (Disposition::Served(ra), Disposition::Served(rb)) => (ra, rb),
                other => panic!("non-served disposition in deterministic stream: {other:?}"),
            };
            assert_eq!(ra.served_by, rb.served_by, "query {}", a.query_id);
            assert_eq!(
                ra.plan, rb.plan,
                "query {}: plan choice diverged at {workers} workers",
                a.query_id
            );
            // Bitwise, not approximate: the same model over the same seeded
            // search must produce the same float.
            assert_eq!(
                ra.predicted_ms.map(f64::to_bits),
                rb.predicted_ms.map(f64::to_bits),
                "query {}: prediction diverged at {workers} workers",
                a.query_id
            );
        }
    }
}

/// Seed matrix for batched evaluation: with `batch_eval` explicitly on (the
/// default 16) and explicitly off (1), every worker count must pick
/// bitwise-identical plans *within* that mode. Batching defers backups, so
/// it may legally explore a budget-capped search differently from the
/// scalar schedule — but it must never make results depend on the worker
/// count, which is PR4's cross-worker invariant extended to batches.
#[test]
fn batched_eval_is_identical_across_worker_counts() {
    let db = shared_db();
    let model = shared_model();

    for batch_eval in [1usize, 16] {
        let stream = gentle_requests(10, 0xba7c ^ chaos_seed());
        let run = |workers: usize| {
            let mut cfg = deterministic_cfg(workers);
            cfg.serve.strategy.batch_eval = Some(batch_eval);
            OneLane::new(cfg, db, Some(model)).run(&stream)
        };
        let reference = run(1);
        for workers in [2usize, 4] {
            let outcomes = run(workers);
            assert_eq!(outcomes.len(), reference.len());
            for (a, b) in reference.iter().zip(&outcomes) {
                let (ra, rb) = match (&a.disposition, &b.disposition) {
                    (Disposition::Served(ra), Disposition::Served(rb)) => (ra, rb),
                    other => panic!("non-served disposition in deterministic stream: {other:?}"),
                };
                assert_eq!(
                    ra.plan, rb.plan,
                    "query {}: batch_eval={batch_eval} plan diverged at {workers} workers",
                    a.query_id
                );
                assert_eq!(
                    ra.predicted_ms.map(f64::to_bits),
                    rb.predicted_ms.map(f64::to_bits),
                    "query {}: batch_eval={batch_eval} prediction diverged at {workers} workers",
                    a.query_id
                );
            }
        }
    }
}

/// Stress: 4 workers × 500 queries under every fault class at once
/// (NaNs, stalls, panics, storage faults). The run must terminate (no
/// deadlock, no dead worker), return one outcome per request, and conserve
/// accounting exactly.
#[test]
fn stress_pool_under_chaos_conserves_accounting() {
    let db = shared_db();
    let model = shared_model();
    let n = 500;
    let qs = queries(n, 0x57e55 ^ chaos_seed());
    // Tight spacing against a bounded queue and finite deadlines: some
    // requests shed, which the conservation law must also account for.
    let stream: Vec<QueryRequest> = qs
        .into_iter()
        .enumerate()
        .map(|(i, query)| {
            let arrival_ms = i as f64 * 1.5;
            QueryRequest { query, arrival_ms, deadline_ms: arrival_ms + 60.0 }
        })
        .collect();

    let cfg = SupervisorConfig {
        serve: ServeConfig {
            mcts: MctsConfig { budget_ms: 10.0, max_simulations: 6, ..MctsConfig::default() },
            strategy: Default::default(),
            deadline_ms: 10_000.0,
            max_retries: 1,
            backoff_base_ms: 0.0,
            faults: Some(FaultConfig::chaos(0xc0de ^ chaos_seed(), 0.1)),
        },
        window: 16,
        min_samples: 8,
        failure_threshold: 0.9,
        cooldown_queries: 8,
        probe_successes: 3,
        queue_capacity: 16,
        service_ms: 5.0,
        workers: 4,
        broker: None,
    };
    let mut sup = OneLane::new(cfg, db, Some(model));
    let outcomes = sup.run(&stream);

    assert_eq!(outcomes.len(), stream.len(), "every request must get a disposition");
    let c = sup.counters();
    assert_eq!(c.total_seen(), stream.len());
    assert!(c.conservation_holds(), "accounting not conserved: {c}");
    // The chaos mix must actually exercise both served paths.
    assert!(c.served_neural > 0, "no query served neurally under p=0.1 chaos");
    assert!(c.served_classical > 0, "no query degraded under p=0.1 chaos");
    // Dispositions and counters must tell the same story.
    let (mut served, mut shed, mut failed) = (0usize, 0usize, 0usize);
    for o in &outcomes {
        match &o.disposition {
            Disposition::Served(r) => {
                served += 1;
                r.plan
                    .validate(&stream.iter().find(|q| q.query.id == o.query_id).unwrap().query)
                    .unwrap_or_else(|e| panic!("query {}: invalid served plan: {e}", o.query_id));
            }
            Disposition::Shed(_) => shed += 1,
            Disposition::Failed(_) => failed += 1,
        }
    }
    assert_eq!(served, c.served_neural + c.served_classical);
    assert_eq!(shed, c.total_shed());
    assert_eq!(failed, c.failed);
}

/// A planner panic on one worker must not take the pool down: with panics
/// injected into every neural attempt, all four workers survive the whole
/// stream, every admitted request is still served (classically), and every
/// degradation records `PlannerPanicked`.
#[test]
fn injected_panics_never_kill_workers() {
    let db = shared_db();
    let model = shared_model();
    let stream = gentle_requests(24, 0x9a71c ^ chaos_seed());

    let mut cfg = deterministic_cfg(4);
    cfg.serve.faults = Some(FaultConfig {
        seed: 0xdead ^ chaos_seed(),
        inference_panic_p: 1.0,
        ..FaultConfig::default()
    });
    let mut sup = OneLane::new(cfg, db, Some(model));
    let outcomes = sup.run(&stream);

    assert_eq!(outcomes.len(), stream.len());
    let c = sup.counters();
    assert!(c.conservation_holds(), "{c}");
    assert_eq!(c.admitted, stream.len());
    assert_eq!(c.failed, 0, "panics inside the planner must degrade, not fail, the request");
    assert_eq!(c.served_classical, stream.len());
    for o in &outcomes {
        match &o.disposition {
            Disposition::Served(r) => {
                assert_eq!(r.served_by, ServedBy::Classical);
                assert!(
                    r.attempt_failures
                        .iter()
                        .all(|f| matches!(f, FallbackReason::PlannerPanicked(_))),
                    "query {}: expected only PlannerPanicked, got {:?}",
                    o.query_id,
                    r.attempt_failures
                );
            }
            other => panic!("query {}: unexpected disposition {other:?}", o.query_id),
        }
    }
}
