//! Multi-tenant serving with fault containment — the tenant bulkheads.
//!
//! One process serves many tenants (databases), each with its own model in
//! the [`crate::registry::ModelRegistry`]. The [`MultiTenantSupervisor`]
//! gives every tenant a **lane**: a private bounded admission queue,
//! deadline shedding, retry/backoff budget, circuit breaker and counters.
//! A single-tenant stream is this supervisor with one lane; a fixed model is
//! a registry entry nobody publishes to.
//!
//! # Weighted-fair admission, deterministically
//!
//! Capacity is shared by the fluid (GPS) limit of weighted fair queueing:
//! a tenant with weight `w` owns a virtual server of rate `w`, i.e. its
//! effective per-query service time is `base.service_ms / w` on its own
//! admission clock. Two properties follow by construction:
//!
//! * **fairness** — over any interval, admitted throughput per tenant is
//!   proportional to its weight (a weight-2 tenant's clock advances twice
//!   as fast, so it absorbs twice the arrival rate before shedding);
//! * **isolation / determinism** — a lane's admit/shed decisions are a pure
//!   function of *its own* arrival sequence and the virtual clock. No other
//!   tenant's queue depth, faults, breaker state or even existence enters
//!   the decision, which is exactly the bulkhead property: chaos aimed at
//!   tenant A cannot change a single disposition, plan or counter of
//!   tenant B. The chaos suite asserts this bitwise.
//!
//! # Fault containment
//!
//! Faults ([`FaultConfig`]) are configured per lane, so NaN poisoning,
//! inference panics or stalls aimed at one tenant trip only that tenant's
//! breaker; the other lanes keep their neural path. Models are read through
//! each tenant's [`crate::registry::ModelCell`], so online promotions,
//! rollbacks and registry evictions stay per-tenant too. A tenant whose
//! model is not resident (evicted and not yet reloaded) degrades to
//! classical planning on its own database — never to an error.
//!
//! # Plan cache
//!
//! When a shared [`PlanCache`] is attached, each lane serves through it
//! scoped to `(tenant, stats_version)`; epoch stamping (see
//! [`crate::plancache`]) guarantees a hit was planned under exactly the
//! model epoch the request resolved.

use crate::evalbroker::{BrokerMember, EvalBroker};
use crate::metrics::ServeCounters;
use crate::plancache::{PlanCache, PlanCacheCtx};
use crate::registry::{ModelRegistry, TenantHandle};
use crate::search::strategy::StrategyConfig;
use crate::serve::{
    BreakerState, Disposition, QueryRequest, SupervisedOutcome, Supervisor, SupervisorConfig,
};
use qpseeker_storage::{Database, FaultConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Static description of one tenant's lane.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant identity (registry key, cache scope, metrics label).
    pub id: String,
    /// The tenant's database — always available for classical planning,
    /// even while the tenant's model is evicted.
    pub db: Arc<Database>,
    /// Service-rate weight (floored at 1e-3). The lane's effective
    /// per-query service time is `base.service_ms / weight`.
    pub weight: f64,
    /// Override of the base admission-queue depth.
    pub queue_capacity: Option<usize>,
    /// Override of the base per-query retry budget.
    pub max_retries: Option<usize>,
    /// Override of the base fault injection: faults aimed at this lane only
    /// (chaos: aim at one tenant).
    pub faults: Option<FaultConfig>,
    /// Override of the base search strategy: kind, risk λ, sample count,
    /// beam width. A latency-SLO tenant can run risk-averse (λ > 0) while
    /// its neighbors stay on the default mean-only planner; the per-tenant
    /// stamp keeps their plan-cache entries disjoint.
    pub strategy: Option<StrategyConfig>,
}

impl TenantSpec {
    pub fn new(id: impl Into<String>, db: Arc<Database>) -> Self {
        Self {
            id: id.into(),
            db,
            weight: 1.0,
            queue_capacity: None,
            max_retries: None,
            faults: None,
            strategy: None,
        }
    }

    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    pub fn with_strategy(mut self, strategy: StrategyConfig) -> Self {
        self.strategy = Some(strategy);
        self
    }
}

/// Multi-tenant serving configuration.
#[derive(Debug, Clone, Default)]
pub struct MultiTenantConfig {
    /// Template for every lane: queue depth, breaker knobs, `service_ms`
    /// (scaled per tenant by weight), worker count, per-query serving
    /// settings. Per-lane overrides come from [`TenantSpec`].
    pub base: SupervisorConfig,
    /// Shared fingerprint plan cache; `None` disables caching.
    pub cache: Option<Arc<PlanCache>>,
}

/// One query of a mixed-tenant stream.
#[derive(Debug, Clone)]
pub struct TenantRequest {
    pub tenant: String,
    pub req: QueryRequest,
}

/// One request's outcome, tagged with its tenant.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    pub tenant: String,
    pub outcome: SupervisedOutcome,
}

struct Lane {
    /// The tenant's database, for classical planning while its model is
    /// not resident.
    db: Arc<Database>,
    sup: Supervisor,
}

fn lane_config(base: &SupervisorConfig, spec: &TenantSpec) -> SupervisorConfig {
    let mut cfg = base.clone();
    cfg.service_ms = base.service_ms / spec.weight.max(1e-3);
    if let Some(q) = spec.queue_capacity {
        cfg.queue_capacity = q;
    }
    if let Some(r) = spec.max_retries {
        cfg.serve.max_retries = r;
    }
    if let Some(f) = &spec.faults {
        cfg.serve.faults = Some(f.clone());
    }
    if let Some(s) = &spec.strategy {
        cfg.serve.strategy = s.clone();
    }
    cfg
}

/// Per-tenant lanes over a shared model registry (see module docs).
///
/// Lane state — breaker, counters, virtual clock — persists across
/// [`MultiTenantSupervisor::run`] calls, so a faulted batch can trip a
/// lane's breaker and a later clean batch can show its half-open recovery.
pub struct MultiTenantSupervisor {
    cfg: MultiTenantConfig,
    lanes: BTreeMap<String, Lane>,
    /// Accumulated stats of the cross-lane eval broker (zero when
    /// `cfg.base.broker` is off). The broker is shared by every lane, so
    /// its occupancy accounting belongs to the supervisor, not any lane.
    broker_stats: ServeCounters,
}

impl MultiTenantSupervisor {
    pub fn new(cfg: MultiTenantConfig, specs: Vec<TenantSpec>) -> Self {
        let lanes = specs
            .into_iter()
            .map(|spec| {
                let sup = Supervisor::new(lane_config(&cfg.base, &spec));
                (spec.id, Lane { db: spec.db, sup })
            })
            .collect();
        Self { cfg, lanes, broker_stats: ServeCounters::default() }
    }

    /// Swap one lane's fault injection between batches (chaos tests);
    /// `None` clears it, whether it came from the base or the lane's spec.
    /// Returns false when the tenant has no lane.
    pub fn set_tenant_faults(&mut self, tenant: &str, faults: Option<FaultConfig>) -> bool {
        match self.lanes.get_mut(tenant) {
            Some(lane) => {
                lane.sup.set_faults(faults);
                true
            }
            None => false,
        }
    }

    /// Current breaker state per tenant.
    pub fn breaker_states(&self) -> BTreeMap<String, BreakerState> {
        self.lanes.iter().map(|(t, l)| (t.clone(), l.sup.breaker_state())).collect()
    }

    /// Per-tenant counters (each lane's own sharded tally).
    pub fn counters(&self) -> BTreeMap<String, ServeCounters> {
        self.lanes.iter().map(|(t, l)| (t.clone(), l.sup.counters())).collect()
    }

    /// All lanes merged into one total. Conservation holds per tenant and
    /// here: merged admitted = merged neural + classical + failed.
    pub fn merged_counters(&self) -> ServeCounters {
        // The shared broker's fused-batch accounting lands in the merged
        // totals only — no single lane owns a cross-tenant forward pass.
        // Lanes merge last, so the total carries their ISA tag.
        let mut total = self.broker_stats;
        for lane in self.lanes.values() {
            total.merge(&lane.sup.counters());
        }
        total
    }

    /// Serve a mixed-tenant batch ordered by arrival time. Each tenant's
    /// requests run through its own lane against the model currently
    /// resident in `registry` (classical-on-own-database when evicted);
    /// outcomes come back in input order. Requests naming a tenant with no
    /// lane are failed with a recorded message — an operator error, not a
    /// planning outcome, so it never touches any lane's counters.
    ///
    /// Without a broker (`base.broker = None`) lanes run one after another
    /// on the calling thread, in tenant order. With one, every lane with
    /// requests this batch runs on its own thread (a lone such lane on the
    /// calling thread) and all of their workers
    /// score through one shared `EvalBroker`, fusing candidate evaluation
    /// *across tenants* — per-lane dispositions, plans and counters are
    /// bitwise identical either way (admission is a pure function of each
    /// lane's own clock; fused scoring matches per-session scoring row for
    /// row).
    pub fn run(
        &mut self,
        registry: &ModelRegistry,
        stream: &[TenantRequest],
    ) -> Vec<TenantOutcome> {
        let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, tr) in stream.iter().enumerate() {
            groups.entry(tr.tenant.as_str()).or_default().push(i);
        }

        let mut out: Vec<Option<TenantOutcome>> = stream.iter().map(|_| None).collect();
        // Unknown tenants fail up front.
        groups.retain(|tenant, idxs| {
            if self.lanes.contains_key(*tenant) {
                return true;
            }
            for &i in idxs.iter() {
                out[i] = Some(TenantOutcome {
                    tenant: tenant.to_string(),
                    outcome: SupervisedOutcome {
                        query_id: stream[i].req.query.id.clone(),
                        disposition: Disposition::Failed(format!("unknown tenant '{tenant}'")),
                    },
                });
            }
            false
        });

        // Lane preparation, in lane (BTreeMap) order — the deterministic
        // member-id assignment the broker's flush tiebreaks key on: gather
        // the lane's requests, resolve its registry handle, scope the plan
        // cache to its current stats version, and register its workers'
        // seats. Lanes with no requests this batch register nothing, so
        // they never hold up a round.
        let broker = self.cfg.base.broker.map(EvalBroker::new);
        let workers_per_lane = self.cfg.base.workers.max(1);
        let cache = &self.cfg.cache;
        let prepared = self.lanes.iter_mut().filter_map(|(tenant, lane)| {
            let idxs = groups.get(tenant.as_str())?;
            let reqs: Vec<QueryRequest> = idxs.iter().map(|&i| stream[i].req.clone()).collect();
            let handle = registry.get(tenant);
            let cache = cache.as_ref().zip(handle.as_ref()).map(|(cache, h)| PlanCacheCtx {
                cache: Arc::clone(cache),
                tenant: tenant.clone(),
                stats_version: h.stats_version,
            });
            let seats = broker.as_ref().map(|b| b.register_members(workers_per_lane));
            Some(LaneWork { tenant, lane, reqs, handle, cache, idxs, seats })
        });
        let scatter = |(tenant, idxs, outcomes): LaneOutcomes<'_>| {
            for (&i, outcome) in idxs.iter().zip(outcomes) {
                out[i] = Some(TenantOutcome { tenant: tenant.clone(), outcome });
            }
        };
        match &broker {
            None => prepared.map(serve_lane).for_each(scatter),
            Some(broker) => {
                // Membership must be complete before any lane thread starts
                // (round accounting is only schedule-independent over a
                // static member set), so every lane is prepared first.
                let work: Vec<LaneWork<'_>> = prepared.collect();
                // A lone lane has no other lane to wait for: it runs here,
                // on a warm thread, through the seats registered above.
                let results: Vec<LaneOutcomes<'_>> = if work.len() == 1 {
                    work.into_iter().map(serve_lane).collect()
                } else {
                    std::thread::scope(|s| {
                        let handles: Vec<_> =
                            work.into_iter().map(|w| s.spawn(move || serve_lane(w))).collect();
                        handles
                            .into_iter()
                            .map(|h| {
                                h.join().expect("lane exited through its per-request boundaries")
                            })
                            .collect()
                    })
                };
                results.into_iter().for_each(scatter);
                self.broker_stats.merge(&broker.take_stats());
            }
        }
        out.into_iter().map(|o| o.expect("every request received a disposition")).collect()
    }
}

/// One lane's share of a batch, prepared: its requests, registry handle,
/// plan-cache scope, positions in the input stream, and broker seats when
/// brokered.
struct LaneWork<'a> {
    tenant: &'a String,
    lane: &'a mut Lane,
    reqs: Vec<QueryRequest>,
    handle: Option<TenantHandle>,
    cache: Option<PlanCacheCtx>,
    idxs: &'a Vec<usize>,
    seats: Option<Vec<BrokerMember>>,
}

/// One lane's outcomes, with the stream positions they scatter back to.
type LaneOutcomes<'a> = (&'a String, &'a Vec<usize>, Vec<SupervisedOutcome>);

/// Serve one prepared lane against the model currently resident for its
/// tenant (classical-on-own-database when evicted).
fn serve_lane<'a>(w: LaneWork<'a>) -> LaneOutcomes<'a> {
    let (db, cell) = match &w.handle {
        Some(h) => (&*h.db, Some(&*h.cell)),
        None => (&*w.lane.db, None),
    };
    (w.tenant, w.idxs, w.lane.sup.run(db, cell, w.cache.as_ref(), w.seats, &w.reqs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_engine::query::Query;
    use qpseeker_workloads::{synthetic, SyntheticConfig};

    fn db_and_queries() -> (Arc<Database>, Vec<Query>) {
        let db = Arc::new(qpseeker_storage::datagen::imdb::generate(0.04, 2));
        let w = synthetic::generate_queries(&db, &SyntheticConfig { n_queries: 8, seed: 7 });
        (db, w.into_iter().map(|(q, _)| q).collect())
    }

    fn req(tenant: &str, q: &Query, arrival: f64, deadline: f64) -> TenantRequest {
        TenantRequest {
            tenant: tenant.to_string(),
            req: QueryRequest { query: q.clone(), arrival_ms: arrival, deadline_ms: deadline },
        }
    }

    #[test]
    fn lanes_are_independent_and_outcomes_keep_input_order() {
        let (db, queries) = db_and_queries();
        let registry = ModelRegistry::new(usize::MAX);
        let base = SupervisorConfig { queue_capacity: 1, service_ms: 10.0, ..Default::default() };
        let mut sup = MultiTenantSupervisor::new(
            MultiTenantConfig { base, cache: None },
            vec![TenantSpec::new("a", Arc::clone(&db)), TenantSpec::new("b", Arc::clone(&db))],
        );
        // Two simultaneous arrivals per tenant at capacity 1: the second of
        // each is shed — but tenant b's overload never touches tenant a.
        let stream = vec![
            req("a", &queries[0], 0.0, 1e9),
            req("b", &queries[1], 0.0, 1e9),
            req("b", &queries[2], 1.0, 1e9),
            req("a", &queries[3], 20.0, 1e9),
        ];
        let outcomes = sup.run(&registry, &stream);
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0].tenant, "a");
        assert!(matches!(outcomes[0].outcome.disposition, Disposition::Served(_)));
        assert!(matches!(outcomes[1].outcome.disposition, Disposition::Served(_)));
        assert!(
            matches!(outcomes[2].outcome.disposition, Disposition::Shed(_)),
            "b's second simultaneous arrival sheds at queue capacity 1"
        );
        assert!(
            matches!(outcomes[3].outcome.disposition, Disposition::Served(_)),
            "a's lane had drained; b's congestion is invisible to it"
        );
        let per = sup.counters();
        for (tenant, c) in &per {
            assert!(c.conservation_holds(), "conservation for tenant {tenant}: {c}");
        }
        assert_eq!(per["a"].admitted, 2);
        assert_eq!(per["b"].admitted, 1);
        assert_eq!(per["b"].shed_queue_full, 1);
        let merged = sup.merged_counters();
        assert!(merged.conservation_holds());
        assert_eq!(merged.total_seen(), 4);
    }

    /// `MultiTenantConfig::base` is the template for every lane, faults
    /// included: a lane whose spec names none inherits them, and
    /// `set_tenant_faults(t, None)` still clears them.
    #[test]
    fn base_faults_reach_a_lane_without_its_own_until_cleared() {
        use crate::serve::{FallbackReason, ServedBy};
        let (db, queries) = db_and_queries();
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 12, seed: 3 });
        let mut model = crate::model::QPSeeker::new(&db, crate::config::ModelConfig::small());
        model.fit(&w.qeps.iter().collect::<Vec<_>>()).expect("training succeeds");
        let registry = ModelRegistry::new(usize::MAX);
        registry.register("a", Arc::clone(&db), Arc::new(model));

        let mut base = SupervisorConfig::default();
        base.serve.mcts.max_simulations = 8;
        base.serve.faults = Some(FaultConfig { inference_nan_p: 1.0, ..FaultConfig::default() });
        let mut sup = MultiTenantSupervisor::new(
            MultiTenantConfig { base, cache: None },
            vec![TenantSpec::new("a", Arc::clone(&db))],
        );
        let served = |out: Vec<TenantOutcome>| match out.into_iter().next().map(|o| o.outcome) {
            Some(SupervisedOutcome { disposition: Disposition::Served(r), .. }) => r,
            other => panic!("expected one served request, got {other:?}"),
        };

        let r = served(sup.run(&registry, &[req("a", &queries[0], 0.0, 1e9)]));
        assert_eq!(r.served_by, ServedBy::Classical, "p = 1 NaN faults from the base must fire");
        assert_eq!(r.fallback_reason, Some(FallbackReason::NonFinitePrediction));

        assert!(sup.set_tenant_faults("a", None));
        let r = served(sup.run(&registry, &[req("a", &queries[1], 100.0, 1e9)]));
        assert_eq!(r.served_by, ServedBy::Neural, "cleared faults must stay cleared");
    }

    /// With a broker, a batch whose requests all name one lane serves that
    /// lane on the calling thread, through the seats it registered: every
    /// scoring call is still a broker round (a lone member's forced flush),
    /// and plans, dispositions and counters equal the broker-off run's.
    #[test]
    fn a_lone_brokered_lane_is_served_on_the_calling_thread() {
        use crate::evalbroker::BrokerConfig;
        use qpseeker_nn::prelude::with_thread_scratch;
        let (db, queries) = db_and_queries();
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 12, seed: 3 });
        let mut model = crate::model::QPSeeker::new(&db, crate::config::ModelConfig::small());
        model.fit(&w.qeps.iter().collect::<Vec<_>>()).expect("training succeeds");
        let registry = ModelRegistry::new(usize::MAX);
        registry.register("a", Arc::clone(&db), Arc::new(model));
        let stream: Vec<TenantRequest> =
            queries.iter().enumerate().map(|(i, q)| req("a", q, 100.0 * i as f64, 1e9)).collect();
        let run = |broker: Option<BrokerConfig>| {
            let mut base = SupervisorConfig { broker, ..Default::default() };
            base.serve.mcts.max_simulations = 16;
            let mut sup = MultiTenantSupervisor::new(
                MultiTenantConfig { base, cache: None },
                vec![TenantSpec::new("a", Arc::clone(&db)), TenantSpec::new("b", Arc::clone(&db))],
            );
            // A fresh thread, whose scratch arena is empty until it scores.
            std::thread::scope(|s| {
                s.spawn(|| {
                    let out = sup.run(&registry, &stream);
                    let plans: Vec<qpseeker_engine::plan::PlanNode> = out
                        .into_iter()
                        .map(|o| match o.outcome.disposition {
                            Disposition::Served(r) => r.plan,
                            other => panic!("expected a served request, got {other:?}"),
                        })
                        .collect();
                    (plans, sup.merged_counters(), with_thread_scratch(|a| a.idle()))
                })
                .join()
                .expect("the run returns")
            })
        };
        let (off_plans, off, _) = run(None);
        let (on_plans, on, idle) = run(Some(BrokerConfig::default()));
        assert!(idle > 0, "the lane scored on the calling thread");
        assert_eq!(on_plans, off_plans);
        assert!(off.eval_candidates > 0 && on.fused_batches > 0);
        assert_eq!(on.fused_rows, on.eval_candidates, "every row crossed the broker");
        assert_eq!(on.broker_flush_size, 0, "a lone member's rounds are forced flushes");
        let unfused = ServeCounters {
            fused_batches: 0,
            fused_rows: 0,
            fused_occupancy_max: 0,
            broker_flush_deadline: 0,
            ..on
        };
        assert_eq!(unfused, off);
    }

    #[test]
    fn weight_scales_the_admission_rate() {
        let (db, queries) = db_and_queries();
        let registry = ModelRegistry::new(usize::MAX);
        let base = SupervisorConfig { queue_capacity: 1, service_ms: 10.0, ..Default::default() };
        let mut sup = MultiTenantSupervisor::new(
            MultiTenantConfig { base, cache: None },
            vec![
                TenantSpec::new("slow", Arc::clone(&db)).with_weight(1.0),
                TenantSpec::new("fast", Arc::clone(&db)).with_weight(2.0),
            ],
        );
        // Identical arrival patterns: every 6 ms. At service 10 ms the
        // weight-1 lane sheds every other arrival; at effective 5 ms the
        // weight-2 lane admits them all.
        let mut stream = Vec::new();
        for i in 0..6 {
            let t = i as f64 * 6.0;
            stream.push(req("slow", &queries[i % queries.len()], t, 1e9));
            stream.push(req("fast", &queries[i % queries.len()], t, 1e9));
        }
        stream.sort_by(|x, y| x.req.arrival_ms.total_cmp(&y.req.arrival_ms));
        sup.run(&registry, &stream);
        let per = sup.counters();
        assert_eq!(per["fast"].admitted, 6, "weight-2 lane absorbs the full rate");
        assert!(per["slow"].shed_queue_full > 0, "weight-1 lane sheds under the same arrival rate");
        for c in per.values() {
            assert!(c.conservation_holds());
        }
    }

    #[test]
    fn unknown_tenant_fails_cleanly_without_touching_lane_counters() {
        let (db, queries) = db_and_queries();
        let registry = ModelRegistry::new(usize::MAX);
        let mut sup = MultiTenantSupervisor::new(
            MultiTenantConfig::default(),
            vec![TenantSpec::new("a", Arc::clone(&db))],
        );
        let stream = vec![req("ghost", &queries[0], 0.0, 1e9), req("a", &queries[1], 0.0, 1e9)];
        let outcomes = sup.run(&registry, &stream);
        match &outcomes[0].outcome.disposition {
            Disposition::Failed(msg) => assert!(msg.contains("unknown tenant")),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(matches!(outcomes[1].outcome.disposition, Disposition::Served(_)));
        let merged = sup.merged_counters();
        assert_eq!(merged.total_seen(), 1, "the ghost request never entered a lane");
        assert!(merged.conservation_holds());
    }
}
