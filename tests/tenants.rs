//! Tenant bulkheads, end to end: multi-tenant registry + weighted-fair
//! lanes + per-tenant breakers + the fingerprint plan cache, chaos-tested.
//!
//! The two load-bearing guarantees:
//!
//! 1. **Bulkhead containment** — faults aimed at exactly one tenant trip
//!    only that tenant's breaker, and the healthy tenants' served plans are
//!    bitwise identical to a run in which the faulting tenant never existed.
//! 2. **Cache safety** — a plan-cache hit is bitwise identical to the plan
//!    a cache-miss MCTS run would produce, and no request ever observes a
//!    mixed (old-plan, new-model) state across hot swaps, stats refreshes,
//!    or evict/reload cycles.
//!
//! The CI chaos job sweeps this file over seeds {1,2,3} via
//! `QPS_CHAOS_SEED` (see .github/workflows).

mod common;

use common::{chaos_seed, shared_db, shared_model};
use qpseeker_repro::core::prelude::*;
use qpseeker_repro::engine::optimizer::PgOptimizer;
use qpseeker_repro::engine::plan::PlanNode;
use qpseeker_repro::storage::{Database, FaultConfig};
use qpseeker_repro::workloads::{
    synthetic, tenants, Qep, SyntheticConfig, TenantStreamConfig, TenantStreamItem,
};
use std::sync::{Arc, OnceLock};

fn stack_db() -> &'static Arc<Database> {
    static DB: OnceLock<Arc<Database>> = OnceLock::new();
    DB.get_or_init(|| Arc::new(qpseeker_repro::storage::datagen::stack::generate(0.03, 2)))
}

/// A second, distinct model (one extra fit step) for hot-swap tests.
fn swapped_model() -> Arc<QPSeeker> {
    static MODEL: OnceLock<Arc<QPSeeker>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let db = shared_db();
        let w = synthetic::generate(db, &SyntheticConfig { n_queries: 12, seed: 21 });
        let refs: Vec<&Qep> = w.qeps.iter().collect();
        let mut model = QPSeeker::new(db, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        Arc::new(model)
    }))
}

fn base_cfg() -> SupervisorConfig {
    SupervisorConfig {
        serve: ServeConfig {
            mcts: MctsConfig { budget_ms: 1e9, max_simulations: 12, ..MctsConfig::default() },
            strategy: Default::default(),
            deadline_ms: 1e12,
            max_retries: 1,
            backoff_base_ms: 0.0,
            faults: None,
        },
        window: 8,
        min_samples: 4,
        failure_threshold: 0.5,
        cooldown_queries: 4,
        probe_successes: 2,
        queue_capacity: 4096,
        service_ms: 5.0,
        workers: 1,
        broker: None,
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

/// Served plans of one tenant, in stream order.
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

fn assert_all_conserved(sup: &MultiTenantSupervisor) {
    for (tenant, c) in sup.counters() {
        assert!(c.conservation_holds(), "conservation broken for tenant {tenant}: {c}");
    }
    assert!(sup.merged_counters().conservation_holds(), "merged conservation broken");
}

/// A stream over two healthy tenants plus one chaos target, every tenant
/// drawing from the same seeded pool so the healthy traffic is identical
/// with and without the chaos tenant present.
fn three_tenant_stream(seed: u64, n: usize) -> Vec<TenantRequest> {
    let db = shared_db();
    let items = tenants::generate_stream(
        &[("alpha", db), ("beta", db), ("chaos", db)],
        &TenantStreamConfig {
            n_requests: n,
            seed,
            mean_interarrival_ms: 20.0,
            repeat_p: 0.3,
            deadline_slack_ms: 1e9,
            pool_size: 10,
        },
    );
    to_requests(&items)
}

/// Satellite: one tenant under p=1 inference panics and NaN poisoning —
/// only its breaker opens, and the healthy tenants' plans are bitwise
/// identical to a run where the faulty tenant's traffic never existed.
#[test]
fn faults_on_one_tenant_never_leak_into_another() {
    let db = shared_db();
    let model = Arc::clone(shared_model());
    let registry = ModelRegistry::new(usize::MAX);
    for t in ["alpha", "beta", "chaos"] {
        registry.register(t, Arc::clone(db), Arc::clone(&model));
    }
    let stream = three_tenant_stream(0xb01d ^ chaos_seed(), 90);

    let chaos_faults = FaultConfig {
        seed: 0xdead ^ chaos_seed(),
        inference_panic_p: 1.0,
        inference_nan_p: 1.0,
        ..FaultConfig::default()
    };
    let specs = |with_chaos: bool| {
        let mut v = vec![
            TenantSpec::new("alpha", Arc::clone(db)),
            TenantSpec::new("beta", Arc::clone(db)).with_weight(2.0),
        ];
        if with_chaos {
            v.push(TenantSpec::new("chaos", Arc::clone(db)).with_faults(chaos_faults.clone()));
        }
        v
    };

    // Run A: all three tenants, chaos tenant fully faulted.
    let mut sup_a = MultiTenantSupervisor::new(
        MultiTenantConfig { base: base_cfg(), cache: None },
        specs(true),
    );
    let outcomes_a = sup_a.run(&registry, &stream);
    assert_all_conserved(&sup_a);

    let breakers = sup_a.breaker_states();
    assert_eq!(breakers["chaos"], BreakerState::Open, "p=1 faults must trip the breaker");
    assert_eq!(breakers["alpha"], BreakerState::Closed, "alpha's breaker must stay closed");
    assert_eq!(breakers["beta"], BreakerState::Closed, "beta's breaker must stay closed");

    let per = sup_a.counters();
    assert!(per["chaos"].breaker_trips >= 1);
    assert!(per["chaos"].served_classical > 0, "chaos tenant degrades, never errors out");
    assert_eq!(per["alpha"].breaker_trips, 0);
    assert_eq!(per["beta"].breaker_trips, 0);
    assert_eq!(
        per["alpha"].served_classical + per["beta"].served_classical,
        0,
        "healthy tenants keep the neural path throughout"
    );

    // Run B: the chaos tenant never existed; its traffic is filtered out.
    let healthy: Vec<TenantRequest> =
        stream.iter().filter(|r| r.tenant != "chaos").cloned().collect();
    let mut sup_b = MultiTenantSupervisor::new(
        MultiTenantConfig { base: base_cfg(), cache: None },
        specs(false),
    );
    let outcomes_b = sup_b.run(&registry, &healthy);
    assert_all_conserved(&sup_b);

    for t in ["alpha", "beta"] {
        let a = plans_of(&outcomes_a, t);
        let b = plans_of(&outcomes_b, t);
        assert!(!a.is_empty(), "tenant {t} served nothing");
        assert_eq!(a, b, "tenant {t}: plans differ with/without the faulty neighbour");
    }
}

/// Plan-cache acceptance: on a fault-free stream with verbatim re-issues,
/// the cached run produces bitwise-identical plans to the uncached run and
/// actually hits.
#[test]
fn cache_hits_are_bitwise_identical_to_mcts() {
    let db = shared_db();
    let model = Arc::clone(shared_model());
    let registry = ModelRegistry::new(usize::MAX);
    registry.register("alpha", Arc::clone(db), Arc::clone(&model));
    registry.register("beta", Arc::clone(db), Arc::clone(&model));

    let items = tenants::generate_stream(
        &[("alpha", db), ("beta", db)],
        &TenantStreamConfig {
            n_requests: 70,
            seed: 0xcace ^ chaos_seed(),
            mean_interarrival_ms: 20.0,
            repeat_p: 0.5,
            deadline_slack_ms: 1e9,
            pool_size: 8,
        },
    );
    let stream = to_requests(&items);
    let specs =
        || vec![TenantSpec::new("alpha", Arc::clone(db)), TenantSpec::new("beta", Arc::clone(db))];

    let cache = Arc::new(PlanCache::new(8, 256));
    let mut cached = MultiTenantSupervisor::new(
        MultiTenantConfig { base: base_cfg(), cache: Some(Arc::clone(&cache)) },
        specs(),
    );
    let outcomes_cached = cached.run(&registry, &stream);
    assert_all_conserved(&cached);
    let merged = cached.merged_counters();
    assert!(merged.cache_hits > 0, "repeat_p=0.5 over 70 requests must hit: {merged}");
    assert!(cache.stats().hits > 0);

    let mut uncached =
        MultiTenantSupervisor::new(MultiTenantConfig { base: base_cfg(), cache: None }, specs());
    let outcomes_plain = uncached.run(&registry, &stream);
    assert_all_conserved(&uncached);
    assert_eq!(uncached.merged_counters().cache_hits, 0);

    for t in ["alpha", "beta"] {
        assert_eq!(
            plans_of(&outcomes_cached, t),
            plans_of(&outcomes_plain, t),
            "tenant {t}: cache on/off must serve identical plans"
        );
    }
}

/// A plan-cache hit shares the cached entry's tree: its subtrees are the
/// entry's own (`Arc::ptr_eq`), so serving a hit copies only the root's node
/// and predicates. End to end, every served copy of a cached plan — the
/// miss that planned it and each hit — holds the one tree.
#[test]
fn cache_hits_share_the_cached_plan_tree() {
    let db = shared_db();
    let model = Arc::clone(shared_model());
    let children = |p: &PlanNode| match p {
        PlanNode::Join { left, right, .. } => Some((Arc::clone(left), Arc::clone(right))),
        PlanNode::Scan { .. } => None,
    };
    let shares = |a: &PlanNode, b: &PlanNode| match (children(a), children(b)) {
        (Some((al, ar)), Some((bl, br))) => Arc::ptr_eq(&al, &bl) && Arc::ptr_eq(&ar, &br),
        _ => a == b,
    };

    let queries = synthetic::generate_queries(db, &SyntheticConfig { n_queries: 12, seed: 5 });
    let (q, _) = queries.iter().find(|(q, _)| q.relations.len() > 1).expect("a join query");
    let plan = PgOptimizer::new(db).plan(q);
    let cache = PlanCache::new(1, 4);
    let fp = query_fingerprint(q);
    let entry = CachedPlan { plan, predicted_ms: 1.0, epoch: 3, stats_version: 0, strategy: 0 };
    cache.insert("t", q, fp, entry.clone());
    let hit = cache.lookup("t", q, fp, 3, 0, 0).expect("a hit");
    assert!(children(&hit.plan).is_some() && shares(&hit.plan, &entry.plan));
    assert_eq!(hit.plan, entry.plan);

    let registry = ModelRegistry::new(usize::MAX);
    registry.register("alpha", Arc::clone(db), Arc::clone(&model));
    let items = tenants::generate_stream(
        &[("alpha", db)],
        &TenantStreamConfig {
            n_requests: 40,
            seed: 0x5a4e ^ chaos_seed(),
            mean_interarrival_ms: 20.0,
            repeat_p: 0.6,
            deadline_slack_ms: 1e9,
            pool_size: 6,
        },
    );
    let cache = Arc::new(PlanCache::new(4, 256));
    let mut sup = MultiTenantSupervisor::new(
        MultiTenantConfig { base: base_cfg(), cache: Some(Arc::clone(&cache)) },
        vec![TenantSpec::new("alpha", Arc::clone(db))],
    );
    let outcomes = sup.run(&registry, &to_requests(&items));
    let mut first: std::collections::HashMap<&str, &PlanNode> = Default::default();
    let mut joined_hits = 0;
    for o in &outcomes {
        let Disposition::Served(r) = &o.outcome.disposition else { continue };
        let Some(cached) = first.get(o.outcome.query_id.as_str()) else {
            first.insert(&o.outcome.query_id, &r.plan);
            continue;
        };
        if r.cache_hit {
            assert!(shares(&r.plan, cached), "query {}: a hit copied the tree", o.outcome.query_id);
            joined_hits += usize::from(children(&r.plan).is_some());
        }
    }
    assert!(joined_hits > 0, "the stream must hit a cached join plan");
}

/// Satellite regression: across a mid-run hot swap, no request observes a
/// mixed (old-plan, new-model) state — every entry cached under the old
/// epoch is rejected stale after the publish, and the post-swap plans equal
/// a cache-off run under the new model.
#[test]
fn hot_swap_never_serves_a_stale_cached_plan() {
    let db = shared_db();
    let registry = ModelRegistry::new(usize::MAX);
    registry.register("alpha", Arc::clone(db), Arc::clone(shared_model()));

    let items = tenants::generate_stream(
        &[("alpha", db)],
        &TenantStreamConfig {
            n_requests: 24,
            seed: 0x5a9 ^ chaos_seed(),
            mean_interarrival_ms: 30.0,
            repeat_p: 0.0,
            deadline_slack_ms: 1e9,
            pool_size: 24,
        },
    );
    let stream = to_requests(&items);

    let cache = Arc::new(PlanCache::new(4, 256));
    let mut sup = MultiTenantSupervisor::new(
        MultiTenantConfig { base: base_cfg(), cache: Some(Arc::clone(&cache)) },
        vec![TenantSpec::new("alpha", Arc::clone(db))],
    );

    // Warm: populate the cache under epoch 0, then replay to prove it hits.
    sup.run(&registry, &stream);
    sup.run(&registry, &stream);
    let hits_before = cache.stats().hits;
    assert!(hits_before > 0, "verbatim replay must hit the warm cache");

    // Hot-swap the tenant's model mid-run (the online loop's promotion).
    registry.publish("alpha", swapped_model()).expect("tenant is resident");

    // Replay once more: every lookup must reject or miss — zero new hits.
    let outcomes_after = sup.run(&registry, &stream);
    assert_eq!(
        cache.stats().hits,
        hits_before,
        "a plan cached under the old epoch was served after the swap"
    );
    assert_all_conserved(&sup);

    // And the post-swap plans are exactly what the new model plans cold.
    let mut cold = MultiTenantSupervisor::new(
        MultiTenantConfig { base: base_cfg(), cache: None },
        vec![TenantSpec::new("alpha", Arc::clone(db))],
    );
    let outcomes_cold = cold.run(&registry, &stream);
    assert_eq!(
        plans_of(&outcomes_after, "alpha"),
        plans_of(&outcomes_cold, "alpha"),
        "post-swap serving must reflect the new model only"
    );
}

/// A stats refresh (ANALYZE) is the other invalidation edge: same model,
/// same epoch, new statistics version — the warm cache must stop hitting.
#[test]
fn stats_refresh_invalidates_without_an_epoch_change() {
    let db = shared_db();
    let cache = Arc::new(PlanCache::new(4, 256));
    let registry = ModelRegistry::new(usize::MAX).attach_plan_cache(Arc::clone(&cache));
    registry.register("alpha", Arc::clone(db), Arc::clone(shared_model()));

    let items = tenants::generate_stream(
        &[("alpha", db)],
        &TenantStreamConfig {
            n_requests: 16,
            seed: 0xa7a ^ chaos_seed(),
            mean_interarrival_ms: 30.0,
            repeat_p: 0.0,
            deadline_slack_ms: 1e9,
            pool_size: 16,
        },
    );
    let stream = to_requests(&items);
    let mut sup = MultiTenantSupervisor::new(
        MultiTenantConfig { base: base_cfg(), cache: Some(Arc::clone(&cache)) },
        vec![TenantSpec::new("alpha", Arc::clone(db))],
    );

    sup.run(&registry, &stream);
    sup.run(&registry, &stream);
    let hits_before = cache.stats().hits;
    assert!(hits_before > 0);

    registry.refresh_stats("alpha");
    assert!(cache.is_empty(), "an attached registry purges the tenant's shards eagerly");

    sup.run(&registry, &stream);
    assert_eq!(
        cache.stats().hits,
        hits_before,
        "plans cached under the old statistics were served after the refresh"
    );
    assert_all_conserved(&sup);
}

/// Evict/reload cycle: after the registry drops a tenant under memory
/// pressure and reloads it on demand, the reloaded cell's epoch has moved
/// on, so neither the plan cache nor any pinned session state can serve
/// artifacts of the dropped instance.
#[test]
fn evicted_tenant_reloads_with_a_cold_cache_and_fresh_epoch() {
    let db = shared_db();
    let model = Arc::clone(shared_model());
    let cache = Arc::new(PlanCache::new(4, 256));
    // Budget fits exactly one model: registering the second evicts the first.
    let budget = model.num_parameters() * std::mem::size_of::<f32>() + 1;
    let registry = ModelRegistry::new(budget).attach_plan_cache(Arc::clone(&cache));
    let h0 = registry.register("alpha", Arc::clone(db), Arc::clone(&model));
    let epoch0 = h0.cell.epoch();

    let items = tenants::generate_stream(
        &[("alpha", db)],
        &TenantStreamConfig {
            n_requests: 12,
            seed: 0xe71c ^ chaos_seed(),
            mean_interarrival_ms: 30.0,
            repeat_p: 0.0,
            deadline_slack_ms: 1e9,
            pool_size: 12,
        },
    );
    let stream = to_requests(&items);
    let mut sup = MultiTenantSupervisor::new(
        MultiTenantConfig { base: base_cfg(), cache: Some(Arc::clone(&cache)) },
        vec![TenantSpec::new("alpha", Arc::clone(db))],
    );
    sup.run(&registry, &stream);
    assert!(!cache.is_empty(), "warm run populates the cache");

    // Pressure: a second tenant arrives; alpha is the LRU victim.
    registry.register("beta", Arc::clone(db), Arc::clone(&model));
    assert_eq!(registry.resident_tenants(), vec!["beta".to_string()]);
    assert!(cache.is_empty(), "eviction purges the tenant's cache shards");

    // While evicted, alpha still serves — classically, on its own database.
    let outcomes = sup.run(&registry, &stream);
    assert!(outcomes
        .iter()
        .all(|o| matches!(&o.outcome.disposition, Disposition::Served(r) if r.served_by == ServedBy::Classical)));

    // Reload on miss: the epoch sequence resumes past the evicted cell's.
    let reloaded = registry
        .get_or_load("alpha", || {
            Ok::<_, std::convert::Infallible>((Arc::clone(db), Arc::clone(&model)))
        })
        .unwrap();
    assert!(
        reloaded.cell.epoch() > epoch0,
        "reload must advance the epoch so pinned sessions and cached plans reset"
    );
    let hits_before = cache.stats().hits;
    sup.run(&registry, &stream);
    assert_eq!(cache.stats().hits, hits_before, "nothing stale survived the evict/reload");
    assert_all_conserved(&sup);
}

/// The online loop's promotions flow through the same cell its lane reads,
/// so a cache attached to the loop honours mid-run swaps too.
#[test]
fn online_loop_promotion_invalidates_the_attached_cache() {
    let db = shared_db();
    let cache = Arc::new(PlanCache::new(4, 128));
    let tmp = std::env::temp_dir().join(format!("qps-tenants-online-{}", std::process::id()));
    let mut cfg = OnlineConfig::new(&tmp);
    cfg.supervisor = base_cfg();
    cfg.cache =
        Some(PlanCacheCtx { cache: Arc::clone(&cache), tenant: "online".into(), stats_version: 0 });
    cfg.retrain_every = usize::MAX; // drive promotion by hand below
    let mut planner =
        OnlinePlanner::new(cfg, Arc::clone(shared_model()), db).expect("planner builds");

    let items = tenants::generate_stream(
        &[("online", db)],
        &TenantStreamConfig {
            n_requests: 10,
            seed: 0x0a11 ^ chaos_seed(),
            mean_interarrival_ms: 40.0,
            repeat_p: 0.0,
            deadline_slack_ms: 1e9,
            pool_size: 10,
        },
    );
    let reqs: Vec<QueryRequest> = to_requests(&items).into_iter().map(|t| t.req).collect();

    planner.run_batch(db, &reqs).expect("first batch serves");
    planner.run_batch(db, &reqs).expect("replay batch serves");
    let hits_before = cache.stats().hits;
    assert!(hits_before > 0, "verbatim replay hits the warm cache");

    // A promotion publishes through the planner's cell — new epoch.
    planner.publish_unchecked(swapped_model());

    planner.run_batch(db, &reqs).expect("post-promotion batch serves");
    assert_eq!(
        cache.stats().hits,
        hits_before,
        "a plan cached before the promotion was served after it"
    );
    assert!(planner.serve_counters().conservation_holds());
    let _ = std::fs::remove_dir_all(&tmp);
}

/// A genuinely mixed stream — an IMDb-shaped tenant next to a Stack-shaped
/// one — flows through the lanes with per-tenant and merged conservation,
/// even with no model resident at all (classical degradation everywhere).
#[test]
fn mixed_imdb_and_stack_stream_conserves_per_tenant() {
    let imdb = shared_db();
    let stack = stack_db();
    let registry = ModelRegistry::new(usize::MAX);
    let items = tenants::generate_stream(
        &[("movies", imdb), ("forum", stack)],
        &TenantStreamConfig {
            n_requests: 60,
            seed: 0x31f ^ chaos_seed(),
            mean_interarrival_ms: 10.0,
            repeat_p: 0.25,
            deadline_slack_ms: 1e9,
            pool_size: 16,
        },
    );
    let stream = to_requests(&items);
    let mut sup = MultiTenantSupervisor::new(
        MultiTenantConfig { base: base_cfg(), cache: None },
        vec![
            TenantSpec::new("movies", Arc::clone(imdb)),
            TenantSpec::new("forum", Arc::clone(stack)).with_weight(2.0),
        ],
    );
    let outcomes = sup.run(&registry, &stream);
    assert_eq!(outcomes.len(), stream.len());
    for (o, r) in outcomes.iter().zip(&stream) {
        assert_eq!(o.tenant, r.tenant, "outcomes stay in input order");
        assert_eq!(o.outcome.query_id, r.req.query.id);
    }
    assert_all_conserved(&sup);
    let per = sup.counters();
    assert!(per["movies"].admitted > 0 && per["forum"].admitted > 0);
    let merged = sup.merged_counters();
    assert_eq!(merged.total_seen(), stream.len());
    assert_eq!(merged.served_neural, 0, "no model registered: everything degrades");
}

// ---------------------------------------------------------------------------
// Fingerprint normalization properties (satellite: proptest over generated
// workloads).

use proptest::prelude::*;

/// Deterministic xorshift for in-test shuffles (keeps proptest shrinking
/// meaningful: the whole transformation is a function of one u64).
struct XorShift(u64);
impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut XorShift) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// Reorder relations/joins/filters, flip join orientations and
/// consistently rename every alias — all fingerprint-neutral.
fn scramble(
    q: &qpseeker_repro::engine::query::Query,
    seed: u64,
) -> qpseeker_repro::engine::query::Query {
    let mut rng = XorShift(seed | 1);
    let mut out = q.clone();
    shuffle(&mut out.relations, &mut rng);
    shuffle(&mut out.joins, &mut rng);
    shuffle(&mut out.filters, &mut rng);
    for j in &mut out.joins {
        if rng.next().is_multiple_of(2) {
            std::mem::swap(&mut j.left, &mut j.right);
        }
    }
    // Consistent alias renaming keyed off the *original* relation order so
    // the map is stable regardless of the shuffle above.
    let map: Vec<(String, String)> = q
        .relations
        .iter()
        .enumerate()
        .map(|(i, r)| (r.alias.to_string(), format!("x{i}_{}", seed % 7)))
        .collect();
    let sub = |a: &str| -> String {
        map.iter().find(|(from, _)| from == a).map(|(_, to)| to.clone()).unwrap_or_else(|| a.into())
    };
    for r in &mut out.relations {
        r.alias = sub(&r.alias).into();
    }
    for j in &mut out.joins {
        j.left.alias = sub(&j.left.alias).into();
        j.right.alias = sub(&j.right.alias).into();
    }
    for f in &mut out.filters {
        f.col.alias = sub(&f.col.alias).into();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fingerprint is invariant under every normalization the cache
    /// promises: join-predicate order and orientation, relation and filter
    /// order, and consistent alias renaming.
    #[test]
    fn prop_fingerprint_invariant_under_normalization(qseed in 0u64..400, scramble_seed in 1u64..1_000_000_000) {
        let pool = synthetic::generate_queries(
            shared_db(),
            &SyntheticConfig { n_queries: 1, seed: 0xf1d0 ^ qseed },
        );
        let (q, _) = &pool[0];
        let fp = query_fingerprint(q);
        let scrambled = scramble(q, scramble_seed);
        prop_assert_eq!(
            query_fingerprint(&scrambled), fp,
            "scramble({}) changed the fingerprint of {:?}", scramble_seed, q.id
        );
    }
}

/// Distinct query graphs across both generated workloads do not collide:
/// whenever two generated queries share a fingerprint, their alias-free
/// structure (table multiset, join shape, filter signature) is identical —
/// i.e. the collision is between genuinely isomorphic graphs, never between
/// different ones.
#[test]
fn generated_workloads_do_not_collide_fingerprints() {
    use std::collections::HashMap;
    let mut queries: Vec<qpseeker_repro::engine::query::Query> = Vec::new();
    queries.extend(
        synthetic::generate_queries(shared_db(), &SyntheticConfig { n_queries: 64, seed: 0xabc })
            .into_iter()
            .map(|(q, _)| q),
    );
    queries.extend(
        qpseeker_repro::workloads::stack::generate_queries(
            stack_db(),
            &qpseeker_repro::workloads::StackConfig { n_queries: 64, seed: 0xdef },
        )
        .into_iter()
        .map(|(q, _)| q),
    );

    // Alias-free structural signature: collisions are only legal between
    // queries this signature cannot tell apart either.
    let signature = |q: &qpseeker_repro::engine::query::Query| {
        let table_of = |alias: &str| {
            q.relations
                .iter()
                .find(|r| *r.alias == *alias)
                .map(|r| r.table.to_string())
                .unwrap_or_else(|| alias.to_string())
        };
        let mut tables: Vec<String> = q.relations.iter().map(|r| r.table.to_string()).collect();
        tables.sort();
        let mut joins: Vec<String> = q
            .joins
            .iter()
            .map(|j| {
                let mut ends = [
                    format!("{}.{}", table_of(&j.left.alias), j.left.column),
                    format!("{}.{}", table_of(&j.right.alias), j.right.column),
                ];
                ends.sort();
                ends.join("=")
            })
            .collect();
        joins.sort();
        let mut filters: Vec<String> = q
            .filters
            .iter()
            .map(|f| format!("{}.{} {:?} {}", table_of(&f.col.alias), f.col.column, f.op, f.value))
            .collect();
        filters.sort();
        format!("{tables:?}|{joins:?}|{filters:?}")
    };

    let mut by_fp: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, q) in queries.iter().enumerate() {
        by_fp.entry(query_fingerprint(q)).or_default().push(i);
    }
    let mut distinct_fps = 0usize;
    for (fp, members) in &by_fp {
        distinct_fps += 1;
        let sig0 = signature(&queries[members[0]]);
        for &m in &members[1..] {
            assert_eq!(
                signature(&queries[m]),
                sig0,
                "fingerprint {fp:#x} collides across structurally different queries \
                 ({} vs {})",
                queries[members[0]].id,
                queries[m].id,
            );
        }
    }
    assert!(
        distinct_fps >= queries.len() / 2,
        "generators should produce mostly-distinct graphs: {distinct_fps} fps for {} queries",
        queries.len()
    );
}
