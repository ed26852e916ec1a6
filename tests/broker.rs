//! Cross-request continuous batching: the shared `EvalBroker` must be
//! *invisible* in every observable output.
//!
//! Three guarantees are exercised here:
//! 1. broker on/off over the same stream at 1, 2 and 4 workers chooses
//!    bitwise-identical plans and reports identical counters (after
//!    zeroing the broker-only fusion gauges) — including the eval-candidate
//!    total, which counts *work*, not batches — also when the stream is
//!    shorter than the pool or shed whole;
//! 2. a mixed multi-tenant stream — several lanes sharing one model `Arc`,
//!    one lane running the risk-aware strategy — serves identical plans
//!    with the broker fusing rows across tenant lanes;
//! 3. an injected stall that lands on a request inside a fused batch
//!    burns only *that* request's retry budget: every disposition and
//!    per-request failure trace is identical to the broker-off run.
//!
//! Set `QPS_CHAOS_SEED` to vary the fault schedules (CI sweeps seeds).

mod common;

use common::{chaos_seed, shared_db, shared_model, OneLane};
use qpseeker_repro::core::prelude::*;
use qpseeker_repro::engine::plan::PlanNode;
use qpseeker_repro::storage::FaultConfig;
use qpseeker_repro::workloads::{
    synthetic, tenants, SyntheticConfig, TenantStreamConfig, TenantStreamItem,
};
use std::sync::Arc;

fn deterministic_cfg(workers: usize, broker: Option<BrokerConfig>) -> SupervisorConfig {
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
        broker,
    }
}

fn gentle_requests(n: usize, qseed: u64) -> Vec<QueryRequest> {
    synthetic::generate_queries(shared_db(), &SyntheticConfig { n_queries: n, seed: qseed })
        .into_iter()
        .enumerate()
        .map(|(i, (query, _sql))| QueryRequest { query, arrival_ms: i as f64, deadline_ms: 1e12 })
        .collect()
}

/// Counters with the broker-only fusion gauges zeroed: everything else —
/// admission, outcomes, probes and the eval-candidate total — must be
/// bit-for-bit independent of whether scoring went through the broker.
fn normalized(mut c: ServeCounters) -> ServeCounters {
    c.fused_batches = 0;
    c.fused_rows = 0;
    c.fused_occupancy_max = 0;
    c.broker_flush_size = 0;
    c.broker_flush_deadline = 0;
    c
}

/// What must not depend on pool shape or broker mode, per request: the
/// shed reason, or the served plan, prediction bits and eval count.
type Fate<'a> = Result<(&'a PlanNode, Option<u64>, usize), &'a ShedReason>;

fn fates(outcomes: &[SupervisedOutcome]) -> Vec<Fate<'_>> {
    outcomes
        .iter()
        .map(|o| match &o.disposition {
            Disposition::Served(r) => Ok((&r.plan, r.predicted_ms.map(f64::to_bits), r.evals)),
            Disposition::Shed(reason) => Err(reason),
            other => panic!("query {}: unexpected disposition {other:?}", o.query_id),
        })
        .collect()
}

/// Acceptance: for every worker count, broker-on serves bitwise-identical
/// plans and predictions to broker-off, with identical normalized counters
/// and the *same* candidate-eval total — fusion changes how rows reach the
/// GEMM, never which rows exist or what they score. Besides an ordinary
/// stream, two pool-edge batches the worker loop must survive (a hang here
/// is a seat that never retired): fewer requests than workers, so idle
/// seats must leave without holding a round, and a batch shed whole, so
/// seats are registered and no job ever arrives.
#[test]
fn broker_is_invisible_in_plans_counters_and_eval_totals() {
    let db = shared_db();
    let model = Arc::clone(shared_model());
    let all_shed: Vec<QueryRequest> = gentle_requests(6, 0x5ed ^ chaos_seed())
        .into_iter()
        // service_ms is 5: no request can finish 1 ms after it arrives.
        .map(|r| QueryRequest { deadline_ms: r.arrival_ms + 1.0, ..r })
        .collect();
    // (stream, whether admission lets it through)
    let streams = [
        (gentle_requests(14, 0xb40c ^ chaos_seed()), true),
        (gentle_requests(3, 0x3b0c ^ chaos_seed()), true),
        (all_shed, false),
    ];

    for (si, (stream, admitted)) in streams.iter().enumerate() {
        let run = |workers: usize, broker: Option<BrokerConfig>| {
            let mut sup = OneLane::new(deterministic_cfg(workers, broker), db, Some(&model));
            let outcomes = sup.run(stream);
            (outcomes, sup.counters())
        };

        let (ref_outcomes, ref_counters) = run(1, None);
        let shed_whole = !admitted;
        assert_eq!(ref_counters.admitted, if shed_whole { 0 } else { stream.len() });
        assert_eq!(ref_counters.total_seen(), stream.len());
        assert!(ref_counters.conservation_holds(), "{ref_counters}");
        assert_eq!(
            ref_counters.eval_candidates > 0,
            !shed_whole,
            "an admitted stream must exercise neural scoring"
        );
        let ref_fates = fates(&ref_outcomes);

        for workers in [1usize, 2, 4] {
            for broker in [None, Some(BrokerConfig::default())] {
                let at = format!("stream {si}, {workers} workers, broker {}", broker.is_some());
                let (outcomes, counters) = run(workers, broker);
                assert!(counters.conservation_holds(), "{at}: {counters}");
                assert_eq!(normalized(counters), normalized(ref_counters), "{at}: counters");
                assert_eq!(
                    counters.eval_candidates, ref_counters.eval_candidates,
                    "{at}: the amount of scoring work changed"
                );
                if broker.is_some() {
                    assert_eq!(counters.fused_batches > 0, !shed_whole, "{at}: fusing");
                    assert_eq!(
                        counters.fused_rows, counters.eval_candidates,
                        "{at}: every candidate row flows through the broker"
                    );
                }
                assert_eq!(fates(&outcomes), ref_fates, "{at}: plans, predictions or evals");
            }
        }
    }
}

fn to_requests(items: &[TenantStreamItem]) -> Vec<TenantRequest> {
    items
        .iter()
        .map(|i| TenantRequest {
            tenant: i.tenant.clone(),
            req: QueryRequest {
                query: i.query.clone(),
                arrival_ms: i.arrival_ms,
                deadline_ms: i.deadline_ms,
            },
        })
        .collect()
}

fn plans_of(outcomes: &[TenantOutcome], tenant: &str) -> Vec<PlanNode> {
    outcomes
        .iter()
        .filter(|o| o.tenant == tenant)
        .filter_map(|o| match &o.outcome.disposition {
            Disposition::Served(r) => Some(r.plan.clone()),
            _ => None,
        })
        .collect()
}

/// A mixed-tenant stream — three lanes over one model `Arc`, one lane on
/// the risk-aware strategy — must serve identical plans broker-on vs
/// broker-off, while the broker fuses rows *across* lane boundaries (the
/// fused-row total exceeds what any single lane contributed).
#[test]
fn tenant_lanes_fuse_across_boundaries_without_changing_plans() {
    let db = shared_db();
    let model = Arc::clone(shared_model());
    let registry = ModelRegistry::new(usize::MAX);
    for t in ["alpha", "beta", "gamma"] {
        registry.register(t, Arc::clone(db), Arc::clone(&model));
    }
    let items = tenants::generate_stream(
        &[("alpha", db), ("beta", db), ("gamma", db)],
        &TenantStreamConfig {
            n_requests: 45,
            seed: 0x7e4a ^ chaos_seed(),
            mean_interarrival_ms: 10.0,
            repeat_p: 0.0,
            deadline_slack_ms: 1e9,
            pool_size: 15,
        },
    );
    let stream = to_requests(&items);

    let specs = || {
        vec![
            TenantSpec::new("alpha", Arc::clone(db)),
            TenantSpec::new("beta", Arc::clone(db))
                .with_strategy(StrategyConfig { risk_lambda: 0.5, ..StrategyConfig::default() }),
            TenantSpec::new("gamma", Arc::clone(db)).with_weight(2.0),
        ]
    };
    let run = |broker: Option<BrokerConfig>| {
        let mut base = deterministic_cfg(2, broker);
        base.serve.mcts.max_simulations = 12;
        let mut sup = MultiTenantSupervisor::new(MultiTenantConfig { base, cache: None }, specs());
        let outcomes = sup.run(&registry, &stream);
        let merged = sup.merged_counters();
        assert!(merged.conservation_holds(), "{merged}");
        (outcomes, merged)
    };

    let (off_outcomes, off_counters) = run(None);
    let (on_outcomes, on_counters) = run(Some(BrokerConfig::default()));

    assert_eq!(on_outcomes.len(), stream.len());
    for (o, r) in on_outcomes.iter().zip(&stream) {
        assert_eq!(o.tenant, r.tenant, "outcomes stay in input order under the broker");
    }
    for t in ["alpha", "beta", "gamma"] {
        let a = plans_of(&off_outcomes, t);
        let b = plans_of(&on_outcomes, t);
        assert!(!a.is_empty(), "tenant {t} served nothing");
        assert_eq!(a, b, "tenant {t}: plans differ broker-on vs broker-off");
    }
    assert_eq!(
        normalized(on_counters),
        normalized(off_counters),
        "merged counters diverged under the broker"
    );
    assert!(on_counters.fused_batches > 0, "the tenant run must fuse");
    assert_eq!(
        on_counters.fused_rows, on_counters.eval_candidates,
        "every candidate row crossed the shared broker"
    );
    // Rows per fused batch beat any single lane's per-session batching: the
    // max observed occupancy can only exceed the per-session `batch_eval`
    // ceiling if rows from different submitters landed in one forward.
    let per_session = DEFAULT_BATCH_EVAL;
    assert!(
        on_counters.fused_occupancy_max > per_session,
        "max fused occupancy {} never exceeded one session's batch_eval {per_session}: \
         no cross-session fusion happened",
        on_counters.fused_occupancy_max
    );
}

/// Fate isolation: a stall injected into a request whose rows were scored
/// inside a *shared* fused batch must burn only that request's retry
/// budget. Every disposition, attempt count and failure trace is identical
/// to the broker-off run — neighbours in the batch never observe the fault.
#[test]
fn stalls_inside_fused_batches_fail_only_their_own_requests() {
    let db = shared_db();
    let model = Arc::clone(shared_model());
    let stream = gentle_requests(24, 0x57a11 ^ chaos_seed());

    let run = |broker: Option<BrokerConfig>| {
        let mut cfg = deterministic_cfg(2, broker);
        cfg.serve.faults = Some(FaultConfig {
            seed: 0xfa7e ^ chaos_seed(),
            inference_stall_p: 0.4,
            ..FaultConfig::default()
        });
        let mut sup = OneLane::new(cfg, db, Some(&model));
        let outcomes = sup.run(&stream);
        (outcomes, sup.counters())
    };

    let (off, off_counters) = run(None);
    let (on, on_counters) = run(Some(BrokerConfig::default()));
    assert!(off_counters.conservation_holds(), "{off_counters}");
    assert!(on_counters.conservation_holds(), "{on_counters}");
    assert_eq!(
        normalized(on_counters),
        normalized(off_counters),
        "stall accounting diverged under the broker"
    );
    // The schedule must actually stall something, and something must survive
    // on the neural path — otherwise fate isolation is vacuous.
    assert!(off_counters.served_classical > 0, "p=0.4 stalls must degrade some requests");
    assert!(off_counters.served_neural > 0, "most requests must survive their fused batches");

    assert_eq!(on.len(), off.len());
    for (a, b) in off.iter().zip(&on) {
        assert_eq!(a.query_id, b.query_id);
        let (ra, rb) = match (&a.disposition, &b.disposition) {
            (Disposition::Served(ra), Disposition::Served(rb)) => (ra, rb),
            other => panic!("query {}: unexpected dispositions {other:?}", a.query_id),
        };
        assert_eq!(ra.served_by, rb.served_by, "query {}: fate diverged", a.query_id);
        assert_eq!(ra.attempts, rb.attempts, "query {}: retry budget diverged", a.query_id);
        // Compare failure *kinds*, not payloads: `DeadlineExceeded` carries
        // genuinely measured planning milliseconds, which vary run to run
        // with or without the broker. Which attempts failed, and why, must
        // not.
        let kinds = |r: &ServeResult| {
            r.attempt_failures().iter().map(std::mem::discriminant).collect::<Vec<_>>()
        };
        assert_eq!(
            kinds(ra),
            kinds(rb),
            "query {}: failure trace diverged — a neighbour's stall leaked",
            a.query_id
        );
        assert_eq!(ra.plan, rb.plan, "query {}: plan diverged under faults", a.query_id);
    }
}
