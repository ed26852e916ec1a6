//! The four workloads: their request lists (a pure function of `--seed`)
//! and the serving configuration each one drives.
//!
//! The shapes are fixed; only the request counts scale (`Sizes::scaled`),
//! which is how the in-crate smoke test runs all four at 1/100 length.

use qpseeker_core::prelude::*;
use qpseeker_engine::query::Query;
use qpseeker_storage::Database;
use qpseeker_workloads::gen::QueryBuilder;
use qpseeker_workloads::{synthetic, tenants, SyntheticConfig, TenantStreamConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointSmall,
    DeepJoin,
    StreamCached,
    TenantsBrokered,
}

/// How requests reach the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// One client calls `plan_with_fallback_in` and waits for each reply.
    Closed,
    /// The whole list is handed to `MultiTenantSupervisor::run` at t = 0.
    Stream,
}

/// Request counts of one workload. `requests` is one timed pass; `warmup`
/// requests run untimed before the first pass; `probe` is the number of
/// stream requests re-served one per `run` call to observe a per-request
/// latency the stream API cannot give (0 on closed loops, which time every
/// request anyway).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub requests: usize,
    pub warmup: usize,
    pub probe: usize,
    /// Requests per `run` call on a stream (0 on closed loops).
    pub chunk: usize,
    /// Requests of lane `a` the one-worker-against-two ablation serves.
    pub scaling: usize,
    /// Distinct queries the stream draws from (stream_cached only).
    pub pool: usize,
    /// Plan-cache entries per shard, 8 shards (stream_cached only). Smaller
    /// than the pool, so the cache evicts.
    pub cache_per_shard: usize,
}

impl Sizes {
    #[cfg(test)]
    pub fn scaled(self, f: f64) -> Self {
        let s = |n: usize| if n == 0 { 0 } else { ((n as f64 * f).round() as usize).max(2) };
        Self {
            requests: s(self.requests),
            warmup: s(self.warmup),
            probe: s(self.probe),
            chunk: s(self.chunk),
            scaling: s(self.scaling),
            pool: s(self.pool),
            cache_per_shard: s(self.cache_per_shard),
        }
    }
}

pub const CACHE_SHARDS: usize = 8;

/// Evaluation cap of every search in every workload. Searches are capped
/// by evaluations, never by wall time, so plans and eval counts are a pure
/// function of (seed, query).
pub const EVAL_CAP: usize = 256;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointSmall,
        Workload::DeepJoin,
        Workload::StreamCached,
        Workload::TenantsBrokered,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointSmall => "point_small",
            Workload::DeepJoin => "deep_join",
            Workload::StreamCached => "stream_cached",
            Workload::TenantsBrokered => "tenants_brokered",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn kind(self) -> Loop {
        match self {
            Workload::PointSmall | Workload::DeepJoin => Loop::Closed,
            Workload::StreamCached | Workload::TenantsBrokered => Loop::Stream,
        }
    }

    /// Reference sizes: one pass is 1.5–3 s on the 2-core reference box, so
    /// a 10 s run measures three to six passes. Every list times at least
    /// 200 requests one by one, which is what a p95 needs.
    pub fn sizes(self) -> Sizes {
        let none = Sizes {
            requests: 0,
            warmup: 0,
            probe: 0,
            chunk: 0,
            scaling: 0,
            pool: 0,
            cache_per_shard: 0,
        };
        match self {
            Workload::PointSmall => Sizes { requests: 500, warmup: 100, scaling: 150, ..none },
            Workload::DeepJoin => Sizes { requests: 200, warmup: 10, scaling: 48, ..none },
            Workload::StreamCached => Sizes {
                requests: 4000,
                warmup: 200,
                probe: 400,
                chunk: 200,
                scaling: 200,
                pool: 300,
                cache_per_shard: 28,
            },
            Workload::TenantsBrokered => {
                Sizes { requests: 300, warmup: 20, probe: 200, chunk: 30, scaling: 100, ..none }
            }
        }
    }

    /// Planner threads the workload runs (workers × lanes).
    pub fn threads(self) -> usize {
        match self {
            Workload::PointSmall | Workload::DeepJoin => 1,
            Workload::StreamCached | Workload::TenantsBrokered => 2,
        }
    }

    /// Strategy of each tenant lane, in lane order.
    pub fn lanes(self) -> Vec<(&'static str, StrategyConfig)> {
        let risk = |kind| StrategyConfig {
            kind,
            risk_lambda: 0.5,
            risk_samples: 8,
            beam_width: 8,
            batch_eval: None,
        };
        match self {
            Workload::TenantsBrokered => {
                vec![("a", risk(StrategyKind::Mcts)), ("b", risk(StrategyKind::Beam))]
            }
            _ => vec![("a", StrategyConfig::default())],
        }
    }

    /// Per-request serving settings: MCTS under the eval cap,
    /// no wall budget, no deadline, one retry, no faults.
    pub fn serve_config(self) -> ServeConfig {
        ServeConfig {
            mcts: MctsConfig { budget_ms: 1e9, max_simulations: EVAL_CAP, ..MctsConfig::default() },
            strategy: self.lanes()[0].1.clone(),
            deadline_ms: 1e12,
            max_retries: 1,
            backoff_base_ms: 0.0,
            faults: None,
        }
    }

    /// Workers of each lane.
    pub fn workers(self) -> usize {
        self.threads() / self.lanes().len()
    }

    /// A fresh supervisor with `workers` per lane (and, for `stream_cached`,
    /// a fresh plan cache) for one pass of a stream workload.
    pub fn supervisor(
        self,
        sizes: &Sizes,
        db: &Arc<Database>,
        workers: usize,
    ) -> (MultiTenantSupervisor, Option<Arc<PlanCache>>) {
        let cache = (self == Workload::StreamCached)
            .then(|| Arc::new(PlanCache::new(CACHE_SHARDS, sizes.cache_per_shard)));
        (self.supervisor_with(db, workers, cache.clone(), true), cache)
    }

    /// The workload's supervisor with the worker count, cache and broker
    /// switch overridden — what the per-layer ablations (one worker, no
    /// broker, oversized cache) are built from.
    pub fn supervisor_with(
        self,
        db: &Arc<Database>,
        workers: usize,
        cache: Option<Arc<PlanCache>>,
        broker: bool,
    ) -> MultiTenantSupervisor {
        let broker = (broker && self == Workload::TenantsBrokered)
            .then_some(BrokerConfig { batch_target: 64, batch_window_us: 1000 });
        let base = SupervisorConfig {
            serve: self.serve_config(),
            // Throughput, not degradation, is under test: the breaker never
            // trips and the saturated stream is never shed.
            failure_threshold: 2.0,
            queue_capacity: usize::MAX,
            service_ms: 1.0,
            workers,
            broker,
            ..SupervisorConfig::default()
        };
        let specs = self
            .lanes()
            .into_iter()
            .map(|(id, strategy)| TenantSpec::new(id, Arc::clone(db)).with_strategy(strategy))
            .collect();
        MultiTenantSupervisor::new(MultiTenantConfig { base, cache }, specs)
    }
}

/// Build the request list of `workload` from `seed`. Every request arrives
/// at t = 0 with no deadline: the stream is saturated and nothing is shed.
pub fn requests(workload: Workload, sizes: &Sizes, db: &Database, seed: u64) -> Vec<TenantRequest> {
    let wrap = |tenant: &str, query: Query| TenantRequest {
        tenant: tenant.to_string(),
        req: QueryRequest { query, arrival_ms: 0.0, deadline_ms: f64::MAX },
    };
    let list: Vec<TenantRequest> = match workload {
        Workload::PointSmall => {
            point_queries(db, sizes.requests, seed).into_iter().map(|q| wrap("a", q)).collect()
        }
        Workload::DeepJoin => {
            deep_queries(db, sizes.requests, seed).into_iter().map(|q| wrap("a", q)).collect()
        }
        Workload::StreamCached | Workload::TenantsBrokered => {
            let cached = workload == Workload::StreamCached;
            let lanes = workload.lanes();
            let tenants: Vec<(&str, &Database)> = lanes.iter().map(|(id, _)| (*id, db)).collect();
            tenants::generate_stream(
                &tenants,
                &TenantStreamConfig {
                    n_requests: sizes.requests,
                    seed,
                    mean_interarrival_ms: 1.0,
                    repeat_p: if cached { 0.8 } else { 0.0 },
                    deadline_slack_ms: 0.0,
                    // Without repeats every draw must be fresh, so each
                    // lane's pool covers the whole stream.
                    pool_size: if cached { sizes.pool } else { sizes.requests },
                },
            )
            .into_iter()
            .map(|item| wrap(&item.tenant, item.query))
            .collect()
        }
    };
    one_id_per_cache_key(list)
}

/// Two queries of one tenant with the same plan-cache fingerprint share one
/// cache entry, yet each seeds its own search with its id: which of them a
/// worker plans first is a race, and with it the plan both are served (and
/// a fingerprint collision between unequal queries makes them evict each
/// other). Re-issue the first such query verbatim instead, so that one id
/// is one cache key and the served plans stay a pure function of the seed,
/// with or without a cache and at any worker count.
fn one_id_per_cache_key(mut stream: Vec<TenantRequest>) -> Vec<TenantRequest> {
    let mut first: HashMap<(String, u64), Query> = HashMap::new();
    for r in &mut stream {
        let key = (r.tenant.clone(), query_fingerprint(&r.req.query));
        let canonical = first.entry(key).or_insert_with(|| r.req.query.clone());
        if canonical.id != r.req.query.id {
            r.req.query = canonical.clone();
        }
    }
    stream
}

/// Relation counts of `point_small`, one period of the mix: a fifth
/// single-table, a fifth two-way, three fifths three-way. The generator's
/// own mix (a quarter, a quarter, a half) varies with the seed and puts the
/// median request on the edge between two- and three-way joins; a fixed mix
/// keeps the same work in every seed's list and the median inside a mode.
const POINT_MIX: [usize; 5] = [3, 1, 3, 2, 3];

/// Relation counts of `deep_join`, one period: six of ten have 5–6
/// relations, four have 8–10.
const DEEP_MIX: [usize; 10] = [5, 8, 6, 5, 9, 6, 10, 5, 6, 9];

/// `synthetic` (MSCN-shaped) queries in the generator's order, thinned to
/// the fixed relation-count mix.
fn point_queries(db: &Database, n: usize, seed: u64) -> Vec<Query> {
    // The rarest class is a quarter of the generator's draws and at most a
    // fifth of the mix, so three times the list always holds enough.
    let pool = synthetic::generate_queries(db, &SyntheticConfig { n_queries: 3 * n + 30, seed });
    let mut by_rels: [std::collections::VecDeque<Query>; 4] = Default::default();
    for (q, _) in pool {
        by_rels[q.num_relations()].push_back(q);
    }
    (0..n)
        .map(|i| {
            let mut q = by_rels[POINT_MIX[i % POINT_MIX.len()]]
                .pop_front()
                .expect("the pool holds enough queries of every relation count");
            q.id = format!("point-{i}");
            q
        })
        .collect()
}

/// Join-heavy queries grown over the FK graph with self-join aliases and
/// two filters each, in the fixed relation-count mix.
fn deep_queries(db: &Database, n: usize, seed: u64) -> Vec<Query> {
    let qb = QueryBuilder::new(db);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while out.len() < n {
        attempts += 1;
        assert!(attempts < 400 * (n + 1), "FK graph too small to grow {n} deep-join queries");
        let want = DEEP_MIX[out.len() % DEEP_MIX.len()];
        let (relations, joins) = qb.grow(&mut rng, "title", want, true);
        if relations.len() != want {
            continue;
        }
        let mut q = Query::new(format!("deep-{}", out.len()));
        q.relations = relations;
        q.joins = joins;
        qb.add_filters(&mut rng, &mut q, 2);
        if q.validate(db).is_ok() && q.is_connected() {
            out.push(q);
        }
    }
    out
}

/// Fingerprint of a request list: tenants and queries, in order.
pub fn requests_fingerprint(requests: &[TenantRequest]) -> u64 {
    crate::stats::fingerprint(requests.iter().map(|r| (&r.tenant, &r.req.query)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lists_are_a_pure_function_of_the_seed() {
        let db = qpseeker_storage::datagen::imdb::generate(0.05, crate::fixture::REFERENCE_SEED);
        for w in Workload::ALL {
            let sizes = w.sizes().scaled(0.05);
            let a = requests_fingerprint(&requests(w, &sizes, &db, 7));
            let b = requests_fingerprint(&requests(w, &sizes, &db, 7));
            let c = requests_fingerprint(&requests(w, &sizes, &db, 8));
            assert_eq!(a, b, "{}: same seed, same requests", w.name());
            assert_ne!(a, c, "{}: another seed, other requests", w.name());
        }
    }

    #[test]
    fn closed_loop_lists_have_the_fixed_relation_mix() {
        let db = qpseeker_storage::datagen::imdb::generate(0.05, crate::fixture::REFERENCE_SEED);
        let rels = |qs: Vec<Query>| qs.iter().map(|q| q.num_relations()).collect::<Vec<_>>();
        assert_eq!(rels(deep_queries(&db, 20, 3)), [DEEP_MIX, DEEP_MIX].concat());
        assert_eq!(rels(point_queries(&db, 10, 3)), [POINT_MIX, POINT_MIX].concat());
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
