//! Fingerprinted plan cache — the prepared-statement fast path.
//!
//! Repeated traffic is the norm in production planners: the same query
//! template arrives thousands of times with identical structure. The cache
//! maps a **normalized query-graph fingerprint** to the plan MCTS chose and
//! the runtime it predicted, so a repeat skips the search entirely. The
//! fingerprint ([`query_fingerprint`]) is a Weisfeiler–Lehman-style hash of
//! the join graph: invariant to join-predicate ordering, filter ordering and
//! consistent alias renaming, but sensitive to any structural change (an
//! extra filter, a different join column, another relation).
//!
//! Safety over speed:
//!
//! * a fingerprint hit is confirmed against the stored query's actual
//!   relation/join/filter sets before the plan is served, so a hash
//!   collision (or an alias-renamed twin whose stored plan would not
//!   validate verbatim) degrades to a miss, never to a wrong plan;
//! * every entry is stamped with the **publication epoch** of the model that
//!   produced it, the tenant's **stats version**, and the **search-strategy
//!   stamp** (strategy kind, beam width, risk λ and sample count) it was
//!   planned under. A lookup passes the epoch the request resolved from the
//!   [`crate::registry::ModelCell`], the current stats version and the
//!   request's strategy stamp; any mismatch is a miss. Model hot-swaps,
//!   rollbacks, registry evictions (which keep epochs monotonic per tenant),
//!   stats refreshes and strategy or λ changes therefore invalidate stale
//!   entries *implicitly* — there is no purge to order against the swap,
//!   hence no window in which an old plan can be served against a new model
//!   (or a risk-neutral plan against a risk-averse request).
//!
//! The map is sharded by key hash; each shard is an independently locked
//! LRU. Lock hold times are a hash probe or an O(capacity) eviction scan.

use qpseeker_engine::plan::PlanNode;
use qpseeker_engine::query::Query;
use qpseeker_storage::fnv::{self, FnvBuild};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Combine a multiset of hash words order-independently (sort, then fold).
fn combine_sorted(mut words: Vec<u64>) -> u64 {
    words.sort_unstable();
    fnv::words(&words)
}

/// Weisfeiler–Lehman refinement rounds. Three rounds separate every
/// non-isomorphic join graph in the ≤ 18-relation regime the workloads
/// generate; symmetric graphs that survive refinement are disambiguated by
/// the exact-match confirmation on lookup, never served wrongly.
const WL_ROUNDS: usize = 3;

/// Normalized fingerprint of a query's join graph.
///
/// Aliases never enter the hash — each relation's label is grown from its
/// base table, its filter multiset, and (per refinement round) the labels of
/// its join neighbors with the join columns on both ends. Join predicates
/// hash commutatively (left/right swap is the same edge) and all multisets
/// are sorted before folding, so the fingerprint is invariant to:
///
/// * the order of `query.joins`, `query.filters` and `query.relations`,
/// * the orientation of each join predicate,
/// * consistently renaming aliases (`t1`→`x`, `t2`→`y`, ...).
pub fn query_fingerprint(query: &Query) -> u64 {
    let n = query.relations.len();
    // Round-0 label: base table + this alias's filter multiset.
    let mut labels: Vec<u64> = query
        .relations
        .iter()
        .map(|r| {
            let filters = combine_sorted(
                query
                    .filters
                    .iter()
                    .filter(|f| f.col.alias == r.alias)
                    .map(|f| {
                        fnv::words(&[
                            fnv::bytes(f.col.column.as_bytes()),
                            f.op as u64,
                            f.value.to_bits(),
                        ])
                    })
                    .collect(),
            );
            fnv::words(&[fnv::bytes(r.table.as_bytes()), filters])
        })
        .collect();

    let idx_of = |alias: &str| query.relations.iter().position(|r| r.alias == alias);
    for _ in 0..WL_ROUNDS {
        let next: Vec<u64> = query
            .relations
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut edges: Vec<u64> = Vec::new();
                for j in &query.joins {
                    let (local, remote) = if j.left.alias == r.alias {
                        (&j.left, &j.right)
                    } else if j.right.alias == r.alias {
                        (&j.right, &j.left)
                    } else {
                        continue;
                    };
                    let Some(k) = idx_of(&remote.alias) else { continue };
                    edges.push(fnv::words(&[
                        fnv::bytes(local.column.as_bytes()),
                        fnv::bytes(remote.column.as_bytes()),
                        labels[k],
                    ]));
                }
                fnv::words(&[labels[i], combine_sorted(edges)])
            })
            .collect();
        labels = next;
    }

    // Fold: relation-label multiset + commutative edge multiset.
    let rel_part = combine_sorted(labels.clone());
    let edge_part = combine_sorted(
        query
            .joins
            .iter()
            .filter_map(|j| {
                let (l, r) = (idx_of(&j.left.alias)?, idx_of(&j.right.alias)?);
                let mut ends = [
                    fnv::words(&[labels[l], fnv::bytes(j.left.column.as_bytes())]),
                    fnv::words(&[labels[r], fnv::bytes(j.right.column.as_bytes())]),
                ];
                ends.sort_unstable();
                Some(fnv::words(&ends))
            })
            .collect(),
    );
    fnv::words(&[n as u64, rel_part, edge_part])
}

/// One cached planning result.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    pub plan: PlanNode,
    /// The model's runtime prediction for the plan, exactly as MCTS
    /// reported it on the caching run.
    pub predicted_ms: f64,
    /// Publication epoch of the model that produced the plan.
    pub epoch: u64,
    /// Tenant stats version the plan was costed under.
    pub stats_version: u64,
    /// Search-strategy stamp ([`crate::search::strategy::StrategyConfig::
    /// cache_stamp`]) the plan was found under: strategy kind, beam width
    /// and risk (λ, samples). A λ = 0.5 plan is a different artifact than
    /// the λ = 0 plan of the same query — a lookup under a different
    /// strategy must miss, never serve the foreign plan.
    pub strategy: u64,
}

struct Entry {
    /// Exact query the entry was built from; a fingerprint hit must match
    /// it structurally before the plan is served (collision/rename guard).
    query: Query,
    cached: CachedPlan,
    last_used: u64,
}

/// True when `a` and `b` are the same query for plan-reuse purposes: same
/// relation list (order included — MCTS action numbering follows it), same
/// join-predicate multiset, same filter multiset. Predicate *ordering* is
/// deliberately ignored: the stored plan embeds its own predicate order and
/// remains valid, and MCTS plan choice does not depend on predicate order.
fn same_query(a: &Query, b: &Query) -> bool {
    if a.relations != b.relations
        || a.joins.len() != b.joins.len()
        || a.filters.len() != b.filters.len()
    {
        return false;
    }
    let mut bj: Vec<&qpseeker_engine::query::JoinPred> = b.joins.iter().collect();
    for j in &a.joins {
        match bj.iter().position(|x| *x == j) {
            Some(k) => {
                bj.swap_remove(k);
            }
            None => return false,
        }
    }
    let mut bf: Vec<&qpseeker_engine::query::Filter> = b.filters.iter().collect();
    for f in &a.filters {
        match bf.iter().position(|x| *x == f) {
            Some(k) => {
                bf.swap_remove(k);
            }
            None => return false,
        }
    }
    true
}

/// Monotonic cache statistics (atomics: shards update them lock-free).
#[derive(Debug, Default)]
struct CacheStatsInner {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    /// Fingerprint matched but the epoch or stats version was stale.
    stale_rejects: AtomicU64,
    /// Fingerprint matched but the structural confirmation failed.
    mismatch_rejects: AtomicU64,
}

/// Snapshot of [`PlanCache`] statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub invalidations: u64,
    pub stale_rejects: u64,
    pub mismatch_rejects: u64,
}

impl CacheStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} (rate {:.1}%) inserted={} evicted={} invalidated={} stale={} mismatched={}",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.insertions,
            self.evictions,
            self.invalidations,
            self.stale_rejects,
            self.mismatch_rejects,
        )
    }
}

/// One shard's table: `(tenant hash, fingerprint)` → entry.
type Shard = HashMap<(u64, u64), Entry, FnvBuild>;

/// Sharded fingerprint → plan cache (see module docs for the invalidation
/// protocol). Keys are `(tenant, fingerprint)`; shard choice hashes both so
/// one tenant's hot templates spread across locks.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    tick: AtomicU64,
    stats: CacheStatsInner,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("shards", &self.shards.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl PlanCache {
    /// A cache of `shards` independently locked maps, each holding at most
    /// `per_shard_capacity` entries (LRU within the shard). Both floors at 1.
    pub fn new(shards: usize, per_shard_capacity: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(HashMap::default())).collect(),
            per_shard_capacity: per_shard_capacity.max(1),
            tick: AtomicU64::new(0),
            stats: CacheStatsInner::default(),
        }
    }

    fn key(&self, tenant: &str, fp: u64) -> (u64, u64) {
        (fnv::bytes(tenant.as_bytes()), fp)
    }

    fn shard(&self, key: (u64, u64)) -> &Mutex<HashMap<(u64, u64), Entry, FnvBuild>> {
        let h = fnv::words(&[key.0, key.1]);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    fn lock<'a>(
        m: &'a Mutex<HashMap<(u64, u64), Entry, FnvBuild>>,
    ) -> MutexGuard<'a, HashMap<(u64, u64), Entry, FnvBuild>> {
        // Entries are replaced whole under the lock; a panicking inserter
        // cannot leave a torn entry, so poison recovery is safe.
        match m.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Look up `query` for `tenant`. `epoch` is the publication epoch of the
    /// model the caller resolved for this request; `stats_version` the
    /// tenant's current statistics version; `strategy` the request's search
    /// strategy stamp. Returns the cached plan only if it was produced at
    /// exactly that `(epoch, stats_version, strategy)` and the stored query
    /// matches structurally.
    pub fn lookup(
        &self,
        tenant: &str,
        query: &Query,
        fp: u64,
        epoch: u64,
        stats_version: u64,
        strategy: u64,
    ) -> Option<CachedPlan> {
        let key = self.key(tenant, fp);
        let mut map = Self::lock(self.shard(key));
        let Some(entry) = map.get_mut(&key) else {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        if entry.cached.epoch != epoch
            || entry.cached.stats_version != stats_version
            || entry.cached.strategy != strategy
        {
            // Stale: drop it now so the slot is free for the fresh plan.
            map.remove(&key);
            self.stats.stale_rejects.fetch_add(1, Ordering::Relaxed);
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if !same_query(&entry.query, query) {
            self.stats.mismatch_rejects.fetch_add(1, Ordering::Relaxed);
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        Some(entry.cached.clone())
    }

    /// Insert a freshly planned result. The entry is stamped with the epoch
    /// and stats version the *request* planned under; if a swap landed since,
    /// the entry is already stale and every future lookup rejects it.
    pub fn insert(&self, tenant: &str, query: &Query, fp: u64, cached: CachedPlan) {
        let key = self.key(tenant, fp);
        let mut map = Self::lock(self.shard(key));
        if map.len() >= self.per_shard_capacity && !map.contains_key(&key) {
            // Evict the shard's least-recently-used entry.
            if let Some(&victim) = map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k) {
                map.remove(&victim);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        map.insert(key, Entry { query: query.clone(), cached, last_used });
        self.stats.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every entry belonging to `tenant`. Epoch stamping already makes
    /// stale entries unservable; this frees their memory eagerly (registry
    /// eviction calls it so an evicted tenant holds no cache residue).
    pub(crate) fn invalidate_tenant(&self, tenant: &str) {
        let t = fnv::bytes(tenant.as_bytes());
        for shard in &self.shards {
            let mut map = Self::lock(shard);
            let before = map.len();
            map.retain(|k, _| k.0 != t);
            let dropped = (before - map.len()) as u64;
            if dropped > 0 {
                self.stats.invalidations.fetch_add(dropped, Ordering::Relaxed);
            }
        }
    }

    /// Resident entries across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            insertions: self.stats.insertions.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            invalidations: self.stats.invalidations.load(Ordering::Relaxed),
            stale_rejects: self.stats.stale_rejects.load(Ordering::Relaxed),
            mismatch_rejects: self.stats.mismatch_rejects.load(Ordering::Relaxed),
        }
    }
}

/// Cache context one serving lane carries: the shared cache plus the
/// tenant identity and stats version its lookups are scoped to.
#[derive(Debug, Clone)]
pub struct PlanCacheCtx {
    pub cache: std::sync::Arc<PlanCache>,
    pub tenant: String,
    pub stats_version: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_engine::plan::ScanOp;
    use qpseeker_engine::query::{CmpOp, ColRef, Filter, JoinPred, Query, RelRef};

    fn three_way() -> Query {
        let mut q = Query::new("q");
        q.relations =
            vec![RelRef::new("title"), RelRef::new("movie_info"), RelRef::new("cast_info")];
        q.joins = vec![
            JoinPred {
                left: ColRef::new("movie_info", "movie_id"),
                right: ColRef::new("title", "id"),
            },
            JoinPred {
                left: ColRef::new("cast_info", "movie_id"),
                right: ColRef::new("title", "id"),
            },
        ];
        q.filters = vec![Filter {
            col: ColRef::new("title", "production_year"),
            op: CmpOp::Gt,
            value: 2000.0,
        }];
        q
    }

    fn rename(q: &Query, map: &[(&str, &str)]) -> Query {
        let sub = |a: &str| -> String {
            map.iter()
                .find(|(from, _)| *from == a)
                .map(|(_, to)| to.to_string())
                .unwrap_or_else(|| a.to_string())
        };
        let mut out = q.clone();
        for r in &mut out.relations {
            r.alias = sub(&r.alias);
        }
        for j in &mut out.joins {
            j.left.alias = sub(&j.left.alias);
            j.right.alias = sub(&j.right.alias);
        }
        for f in &mut out.filters {
            f.col.alias = sub(&f.col.alias);
        }
        out
    }

    #[test]
    fn fingerprint_invariant_to_predicate_order_and_orientation() {
        let q = three_way();
        let fp = query_fingerprint(&q);
        let mut shuffled = q.clone();
        shuffled.joins.reverse();
        assert_eq!(query_fingerprint(&shuffled), fp, "join order must not matter");
        let mut flipped = q.clone();
        let j = &mut flipped.joins[0];
        std::mem::swap(&mut j.left, &mut j.right);
        assert_eq!(query_fingerprint(&flipped), fp, "join orientation must not matter");
        let mut rels = q.clone();
        rels.relations.rotate_left(1);
        assert_eq!(query_fingerprint(&rels), fp, "relation order must not matter");
    }

    #[test]
    fn fingerprint_invariant_to_alias_renaming() {
        let q = three_way();
        let renamed = rename(&q, &[("title", "t"), ("movie_info", "mi"), ("cast_info", "ci")]);
        assert_eq!(query_fingerprint(&renamed), query_fingerprint(&q));
    }

    #[test]
    fn fingerprint_separates_structural_changes() {
        let q = three_way();
        let fp = query_fingerprint(&q);
        let mut extra_filter = q.clone();
        extra_filter.filters.push(Filter {
            col: ColRef::new("movie_info", "info_type_id"),
            op: CmpOp::Eq,
            value: 3.0,
        });
        assert_ne!(query_fingerprint(&extra_filter), fp);
        let mut other_value = q.clone();
        other_value.filters[0].value = 1990.0;
        assert_ne!(query_fingerprint(&other_value), fp);
        let mut other_col = q.clone();
        other_col.joins[0].left.column = "info_type_id".into();
        assert_ne!(query_fingerprint(&other_col), fp);
        let mut fewer = q.clone();
        fewer.joins.pop();
        fewer.relations.pop();
        assert_ne!(query_fingerprint(&fewer), fp);
    }

    fn plan_for(q: &Query) -> PlanNode {
        let mut node = PlanNode::scan(q, &q.relations[0].alias, ScanOp::SeqScan);
        for r in &q.relations[1..] {
            node = PlanNode::Join {
                op: qpseeker_engine::plan::JoinOp::HashJoin,
                left: Box::new(node),
                right: Box::new(PlanNode::scan(q, &r.alias, ScanOp::SeqScan)),
                preds: q.joins.iter().filter(|j| j.touches(&r.alias)).cloned().collect(),
            };
        }
        node
    }

    #[test]
    fn hit_requires_matching_epoch_and_stats_version() {
        let cache = PlanCache::new(4, 16);
        let q = three_way();
        let fp = query_fingerprint(&q);
        let cached = CachedPlan {
            plan: plan_for(&q),
            predicted_ms: 1.5,
            epoch: 3,
            stats_version: 1,
            strategy: 0,
        };
        cache.insert("tenant-a", &q, fp, cached);
        assert!(cache.lookup("tenant-a", &q, fp, 3, 1, 0).is_some());
        assert!(cache.lookup("tenant-a", &q, fp, 4, 1, 0).is_none(), "new epoch: stale");
        // The stale probe evicted the entry; re-insert to test stats skew.
        let cached = CachedPlan {
            plan: plan_for(&q),
            predicted_ms: 1.5,
            epoch: 3,
            stats_version: 1,
            strategy: 0,
        };
        cache.insert("tenant-a", &q, fp, cached);
        assert!(cache.lookup("tenant-a", &q, fp, 3, 2, 0).is_none(), "stats refresh: stale");
        let s = cache.stats();
        assert_eq!(s.stale_rejects, 2);
    }

    #[test]
    fn strategy_switch_never_returns_a_foreign_plan() {
        use crate::search::strategy::{StrategyConfig, StrategyKind};
        let cache = PlanCache::new(4, 16);
        let q = three_way();
        let fp = query_fingerprint(&q);
        let mcts = StrategyConfig::default().cache_stamp();
        let beam = StrategyConfig { kind: StrategyKind::Beam, ..Default::default() }.cache_stamp();
        let risky = StrategyConfig { risk_lambda: 0.5, ..Default::default() }.cache_stamp();
        assert_ne!(mcts, beam);
        assert_ne!(mcts, risky);
        cache.insert(
            "a",
            &q,
            fp,
            CachedPlan {
                plan: plan_for(&q),
                predicted_ms: 1.0,
                epoch: 0,
                stats_version: 0,
                strategy: mcts,
            },
        );
        // Same (tenant, epoch, stats) under a different strategy or λ must
        // miss — the cached plan belongs to the other strategy's search.
        assert!(cache.lookup("a", &q, fp, 0, 0, beam).is_none(), "beam must not see mcts plan");
        let s = cache.stats();
        assert_eq!(s.stale_rejects, 1);
        // The stale probe evicted the entry; re-insert under λ = 0.5 and
        // confirm the λ = 0 request misses too.
        cache.insert(
            "a",
            &q,
            fp,
            CachedPlan {
                plan: plan_for(&q),
                predicted_ms: 1.0,
                epoch: 0,
                stats_version: 0,
                strategy: risky,
            },
        );
        assert!(cache.lookup("a", &q, fp, 0, 0, mcts).is_none(), "λ=0 must not see λ=0.5 plan");
        cache.insert(
            "a",
            &q,
            fp,
            CachedPlan {
                plan: plan_for(&q),
                predicted_ms: 1.0,
                epoch: 0,
                stats_version: 0,
                strategy: risky,
            },
        );
        assert!(cache.lookup("a", &q, fp, 0, 0, risky).is_some(), "matching stamp still hits");
    }

    #[test]
    fn tenants_do_not_share_entries() {
        let cache = PlanCache::new(4, 16);
        let q = three_way();
        let fp = query_fingerprint(&q);
        cache.insert(
            "a",
            &q,
            fp,
            CachedPlan {
                plan: plan_for(&q),
                predicted_ms: 1.0,
                epoch: 0,
                stats_version: 0,
                strategy: 0,
            },
        );
        assert!(cache.lookup("b", &q, fp, 0, 0, 0).is_none());
        assert!(cache.lookup("a", &q, fp, 0, 0, 0).is_some());
        cache.invalidate_tenant("a");
        assert!(cache.lookup("a", &q, fp, 0, 0, 0).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn structural_mismatch_on_fingerprint_hit_degrades_to_miss() {
        let cache = PlanCache::new(1, 16);
        let q = three_way();
        let fp = query_fingerprint(&q);
        cache.insert(
            "a",
            &q,
            fp,
            CachedPlan {
                plan: plan_for(&q),
                predicted_ms: 1.0,
                epoch: 0,
                stats_version: 0,
                strategy: 0,
            },
        );
        // An alias-renamed twin shares the fingerprint but its stored plan
        // names the old aliases — must degrade to a miss, not a wrong plan.
        let renamed = rename(&q, &[("title", "t")]);
        assert_eq!(query_fingerprint(&renamed), fp);
        assert!(cache.lookup("a", &renamed, fp, 0, 0, 0).is_none());
        assert_eq!(cache.stats().mismatch_rejects, 1);
    }

    #[test]
    fn lru_eviction_respects_per_shard_capacity() {
        let cache = PlanCache::new(1, 2);
        let mk = |year: f64| {
            let mut q = three_way();
            q.filters[0].value = year;
            q
        };
        for year in [1990.0, 1991.0, 1992.0] {
            let q = mk(year);
            let fp = query_fingerprint(&q);
            cache.insert(
                "a",
                &q,
                fp,
                CachedPlan {
                    plan: plan_for(&q),
                    predicted_ms: 1.0,
                    epoch: 0,
                    stats_version: 0,
                    strategy: 0,
                },
            );
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The oldest entry (1990) was the LRU victim.
        let q0 = mk(1990.0);
        assert!(cache.lookup("a", &q0, query_fingerprint(&q0), 0, 0, 0).is_none());
        let q2 = mk(1992.0);
        assert!(cache.lookup("a", &q2, query_fingerprint(&q2), 0, 0, 0).is_some());
    }
}
