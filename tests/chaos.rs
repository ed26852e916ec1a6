//! Chaos suite: deterministic fault injection across the whole stack.
//!
//! Three guarantees are exercised here, end to end:
//! 1. the executor under any fault schedule either completes or returns a
//!    typed error — it never panics;
//! 2. `plan_with_fallback_in` always produces a valid, executable plan, and
//!    records why whenever it degrades to the classical optimizer;
//! 3. corrupted checkpoints are rejected at load with a typed error.

mod common;

use common::{chaos_seed, shared_db, shared_model, OneLane};
use proptest::prelude::*;
use qpseeker_repro::core::prelude::*;
use qpseeker_repro::engine::prelude::*;
use qpseeker_repro::storage::FaultConfig;
use qpseeker_repro::workloads::{synthetic, Qep, SyntheticConfig};

fn chaos_queries(n: usize, seed: u64) -> Vec<Query> {
    synthetic::generate_queries(shared_db(), &SyntheticConfig { n_queries: n, seed })
        .into_iter()
        .map(|(q, _sql)| q)
        .collect()
}

fn quick_serve_cfg(faults: Option<FaultConfig>) -> ServeConfig {
    ServeConfig {
        mcts: MctsConfig { budget_ms: 10.0, max_simulations: 25, ..MctsConfig::default() },
        strategy: Default::default(),
        deadline_ms: 10_000.0,
        max_retries: 1,
        backoff_base_ms: 0.0,
        faults,
    }
}

/// The acceptance sweep: every fault class armed at p = 0.1 over 200 seeded
/// queries. Zero panics, a valid executable plan for every query, and a
/// recorded reason for every degradation.
#[test]
fn chaos_sweep_200_queries_at_p_10() {
    let db = shared_db();
    let queries = chaos_queries(200, 0xc4a05);
    assert!(queries.len() >= 200, "sweep needs at least 200 queries");
    let model = shared_model();
    let mut served_neural = 0usize;
    let mut served_classical = 0usize;
    for (i, q) in queries.iter().enumerate() {
        let faults = FaultConfig::chaos(0x5eed ^ i as u64, 0.1);
        let cfg = quick_serve_cfg(Some(faults.clone()));
        let r =
            plan_with_fallback_in(db, q, Some(model.as_ref()), &cfg, &mut PlannerSession::new());
        r.plan.validate(q).unwrap_or_else(|e| panic!("query {i}: served plan invalid: {e}"));
        match r.served_by {
            ServedBy::Neural => {
                served_neural += 1;
                assert!(r.fallback_reason().is_none());
                assert!(r.predicted_ms.is_some());
            }
            ServedBy::Classical => {
                served_classical += 1;
                assert!(
                    r.fallback_reason().is_some(),
                    "query {i}: degraded without a recorded reason"
                );
                assert_eq!(
                    r.attempt_failures().len(),
                    cfg.max_retries + 1,
                    "query {i}: every failed attempt must be recorded"
                );
            }
        }
        // The served plan must also execute under the same fault schedule
        // (or fail with a typed error — never a panic).
        let exec = Executor::try_new(db).expect("executor builds").with_faults(faults);
        match exec.try_execute(&r.plan) {
            Ok(res) => assert!(res.rows > 0 || !res.nodes.is_empty()),
            Err(e) => assert!(!e.to_string().is_empty()),
        }
    }
    assert_eq!(served_neural + served_classical, queries.len());
    // At p = 0.1 per class with one retry, both paths must actually occur —
    // otherwise the sweep is not exercising degradation at all.
    assert!(served_neural > 0, "no query was served neurally");
    assert!(served_classical > 0, "no query degraded to the classical path");
}

/// NaN-poisoned weights on the tape-free fast path never panic: the fast
/// path (unlike the debug-asserting tape) propagates the NaN to the
/// prediction, the watchdog flags it as non-finite, and the query degrades
/// to the classical optimizer with a recorded reason.
#[test]
fn chaos_nan_weights_degrade_gracefully_on_fast_path() {
    let db = shared_db();
    let w = synthetic::generate(db, &SyntheticConfig { n_queries: 6, seed: 17 });
    let refs: Vec<&Qep> = w.qeps.iter().collect();
    let mut model = QPSeeker::new(db, ModelConfig::small());
    model.fit(&refs).expect("training succeeds");
    // Poison every parameter tensor so any forward pass yields NaN.
    let ids: Vec<_> = model.store.iter().map(|(id, _)| id).collect();
    for id in ids {
        for v in model.store.value_mut(id).data_mut() {
            *v = f32::NAN;
        }
    }
    let cfg = quick_serve_cfg(None);
    for q in chaos_queries(4, 0xfa57).iter() {
        let r = plan_with_fallback_in(db, q, Some(&model), &cfg, &mut PlannerSession::new());
        assert_eq!(r.served_by, ServedBy::Classical, "NaN model must not serve neurally");
        assert!(
            r.attempt_failures().iter().all(|f| matches!(f, FallbackReason::NonFinitePrediction)),
            "expected non-finite prediction failures, got {:?}",
            r.attempt_failures()
        );
        r.plan.validate(q).expect("classical fallback plan is valid");
    }
}

/// Corrupted checkpoints (bit flips anywhere in the payload) are rejected
/// at load with a typed corruption error; truncations are malformed.
#[test]
fn chaos_checkpoint_corruption_is_detected() {
    let db = shared_db();
    let model = shared_model();
    let json = Checkpoint::capture(model, db).to_json().unwrap();

    let start = json.find("payload").unwrap();
    let digit_positions: Vec<usize> = json
        .char_indices()
        .skip(start)
        .filter(|(_, c)| ('1'..='8').contains(c))
        .map(|(i, _)| i)
        .collect();
    // Flip digits spread across the payload.
    for k in 0..20 {
        let pos = digit_positions[(k * digit_positions.len()) / 20];
        let mut bytes = json.clone().into_bytes();
        bytes[pos] += 1;
        let tampered = String::from_utf8(bytes).unwrap();
        match Checkpoint::from_json(&tampered) {
            Err(CoreError::CheckpointCorrupted { .. }) => {}
            Err(other) => panic!("flip at {pos}: expected corruption error, got {other}"),
            Ok(_) => panic!("flip at {pos}: tampered checkpoint was accepted"),
        }
    }
    for frac in [1, 2, 3] {
        let truncated = &json[..json.len() * frac / 4];
        assert!(Checkpoint::from_json(truncated).is_err(), "truncation to {frac}/4 was accepted");
    }
}

fn breaker_cfg(faults: Option<FaultConfig>) -> SupervisorConfig {
    SupervisorConfig {
        serve: quick_serve_cfg(faults),
        window: 8,
        min_samples: 4,
        failure_threshold: 0.5,
        cooldown_queries: 4,
        probe_successes: 2,
        queue_capacity: 64,
        service_ms: 5.0,
        workers: 1,
        broker: None,
    }
}

/// Requests spaced widely enough that admission never interferes: the only
/// variable under test is the breaker.
fn spaced_requests(n: usize, qseed: u64, start_ms: f64) -> Vec<QueryRequest> {
    chaos_queries(n, qseed)
        .into_iter()
        .enumerate()
        .map(|(i, query)| {
            let arrival_ms = start_ms + i as f64 * 10.0;
            QueryRequest { query, arrival_ms, deadline_ms: arrival_ms + 1_000.0 }
        })
        .collect()
}

/// Acceptance: under a fault seed forcing 100% neural failures the
/// supervisor trips to classical-only within the window while continuing to
/// serve every admitted query; once the faults clear, half-open probes close
/// the breaker again and neural serving resumes.
#[test]
fn chaos_supervisor_trips_to_classical_and_recovers_when_faults_clear() {
    let db = shared_db();
    let model = shared_model();
    let faults = FaultConfig {
        seed: 0xb4ea ^ chaos_seed(),
        inference_nan_p: 1.0, // every neural attempt fails
        ..FaultConfig::default()
    };
    let mut sup = OneLane::new(breaker_cfg(Some(faults)), db, Some(model));

    // Faulted batch: the breaker must trip, yet every query is still served.
    let batch = spaced_requests(20, 0xb0e ^ chaos_seed(), 0.0);
    let outcomes = sup.run(&batch);
    assert!(
        outcomes.iter().all(|o| matches!(o.disposition, Disposition::Served(_))),
        "a tripped breaker must degrade, never drop, admitted queries"
    );
    let c = sup.counters();
    assert!(c.conservation_holds(), "{c}");
    assert_eq!(c.admitted, 20);
    assert_eq!(c.total_shed(), 0);
    assert_eq!(c.served_neural, 0, "100% NaN faults must never serve neurally");
    assert_eq!(c.served_classical, 20);
    assert!(c.breaker_trips >= 1, "breaker never tripped under 100% neural failures");
    assert_ne!(
        sup.breaker_state(),
        BreakerState::Closed,
        "breaker cannot be closed while every probe fails"
    );
    // While open, degradations are marked with the breaker itself as the
    // recorded reason (not re-attempted inference).
    let breaker_open = outcomes
        .iter()
        .filter_map(|o| match &o.disposition {
            Disposition::Served(r) => r.fallback_reason(),
            Disposition::Shed(_) | Disposition::Failed(_) => None,
        })
        .filter(|r| matches!(r, FallbackReason::BreakerOpen))
        .count();
    assert!(breaker_open >= 1, "open-breaker degradations must record BreakerOpen");

    // Clean batch: cooldown elapses, probes succeed, the breaker closes and
    // neural serving resumes.
    sup.set_faults(None);
    let batch2 = spaced_requests(20, 0xc1ea2 ^ chaos_seed(), 10_000.0);
    let outcomes2 = sup.run(&batch2);
    assert!(outcomes2.iter().all(|o| matches!(o.disposition, Disposition::Served(_))));
    let c = sup.counters();
    assert!(c.conservation_holds(), "{c}");
    assert_eq!(c.admitted, 40, "every spaced query is admitted across both batches");
    assert!(c.breaker_recoveries >= 1, "breaker never recovered after faults cleared");
    assert!(c.probes >= 1, "recovery must go through half-open probes");
    assert_eq!(sup.breaker_state(), BreakerState::Closed);
    assert!(c.served_neural > 0, "neural serving must resume after recovery");
    // The last queries of the clean batch run with a closed breaker.
    let last = outcomes2.last().expect("non-empty batch");
    match &last.disposition {
        Disposition::Served(r) => assert_eq!(
            r.served_by,
            ServedBy::Neural,
            "final clean query should be served neurally, got {:?}",
            r.fallback_reason()
        ),
        Disposition::Shed(reason) => panic!("final clean query shed: {reason}"),
        Disposition::Failed(why) => panic!("final clean query failed: {why}"),
    }
}

/// Acceptance: a burst beyond queue capacity sheds with a recorded reason
/// instead of blocking — and the queries that were admitted are all served.
#[test]
fn chaos_supervisor_sheds_queue_overflow_with_recorded_reason() {
    let db = shared_db();
    let model = shared_model();
    let mut cfg = breaker_cfg(None);
    cfg.queue_capacity = 2;
    cfg.service_ms = 10.0;
    let mut sup = OneLane::new(cfg, db, Some(model));

    // Six queries arriving at the same instant against a queue of 2.
    let burst: Vec<QueryRequest> = chaos_queries(6, 0xb1257 ^ chaos_seed())
        .into_iter()
        .map(|query| QueryRequest { query, arrival_ms: 0.0, deadline_ms: 1e9 })
        .collect();
    let outcomes = sup.run(&burst);

    let mut served = 0usize;
    let mut shed_full = 0usize;
    for o in &outcomes {
        match &o.disposition {
            Disposition::Served(_) => served += 1,
            Disposition::Shed(ShedReason::QueueFull { depth }) => {
                assert_eq!(*depth, 2, "shed must record the depth that rejected it");
                shed_full += 1;
            }
            Disposition::Shed(other) => panic!("expected QueueFull, got {other}"),
            Disposition::Failed(why) => panic!("request failed past the panic boundary: {why}"),
        }
    }
    assert_eq!(served, 2, "exactly the queue capacity is admitted from a burst");
    assert_eq!(shed_full, 4);
    let c = sup.counters();
    assert_eq!(c.admitted, 2);
    assert_eq!(c.shed_queue_full, 4);
    assert_eq!(c.admitted, c.served_neural + c.served_classical);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under an arbitrary fault schedule the executor completes or returns
    /// a typed error; it never panics. With faults off it must agree with
    /// the fault-free executor.
    #[test]
    fn executor_returns_err_never_panics(
        seed in 0u64..1_000_000,
        page_p in 0.0f64..0.4,
        spike_p in 0.0f64..0.4,
        stats_p in 0.0f64..0.4,
        budget_raw in 0u64..5_000,
        qseed in 0u64..1_000,
    ) {
        let db = shared_db();
        let queries = chaos_queries(3, qseed);
        let faults = FaultConfig {
            seed,
            page_read_p: page_p,
            latency_spike_p: spike_p,
            latency_spike_ms: 25.0,
            corrupt_stats_p: stats_p,
            // 0 means "no budget" so the schedule space covers both modes.
            row_budget: (budget_raw > 0).then_some(budget_raw),
            ..FaultConfig::default()
        };
        for q in &queries {
            let plan = PgOptimizer::new(db).plan(q);
            let exec = Executor::try_new(db).expect("executor builds").with_faults(faults.clone());
            match exec.try_execute(&plan) {
                Ok(res) => {
                    prop_assert!(res.time_ms.is_finite());
                    prop_assert!(res.cost.is_finite());
                }
                Err(e) => {
                    // Typed, displayable, and classified for retry policy.
                    prop_assert!(!e.to_string().is_empty());
                    let _ = e.is_transient();
                }
            }
            // A fault-free executor over the same plan must succeed.
            let clean = Executor::try_new(db).expect("executor builds");
            let res = clean.try_execute(&plan);
            prop_assert!(res.is_ok(), "fault-free execution failed: {}", res.err().map(|e| e.to_string()).unwrap_or_default());
        }
    }

    /// `plan_with_fallback_in` serves a valid plan under any inference-fault
    /// schedule, and records a reason whenever it degrades.
    #[test]
    fn fallback_always_serves_valid_plan(
        seed in 0u64..1_000_000,
        nan_p in 0.0f64..1.0,
        stall_p in 0.0f64..1.0,
        qseed in 0u64..1_000,
    ) {
        let db = shared_db();
        let queries = chaos_queries(2, qseed);
        let faults = FaultConfig {
            seed,
            inference_nan_p: nan_p,
            inference_stall_p: stall_p,
            ..FaultConfig::default()
        };
        let cfg = quick_serve_cfg(Some(faults));
        for q in &queries {
            let r = plan_with_fallback_in(db, q, Some(shared_model().as_ref()), &cfg, &mut PlannerSession::new());
            prop_assert!(r.plan.validate(q).is_ok(), "served plan invalid");
            match r.served_by {
                ServedBy::Neural => prop_assert!(r.fallback_reason().is_none()),
                ServedBy::Classical => prop_assert!(r.fallback_reason().is_some()),
            }
            prop_assert!(r.attempts <= cfg.max_retries + 1);
        }
    }
}
