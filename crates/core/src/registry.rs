//! Zero-downtime model publication: the epoch-stamped cell serving workers
//! read the model through, plus the sliding-window regression monitor that
//! rolls a bad promotion back automatically.
//!
//! [`ModelCell`] is an ArcSwap-style publication point implemented over a
//! short critical section: readers take a clone of the current
//! `Arc<PlannerModel>` plus the publication epoch, so an in-flight request
//! finishes on the model it started with no matter how many swaps land
//! mid-request, and a worker detects a swap by comparing epochs — its cue to
//! drop its [`crate::session::PlannerSession`] caches, which hold
//! predictions from the old weights. The previous model stays resident so
//! [`ModelCell::rollback`] is instant and allocation-free.
//!
//! `RegressionMonitor` watches observed executor runtimes. A promotion
//! arms it with the pre-swap baseline window; once enough post-swap
//! observations accumulate, a mean regression beyond the configured factor
//! yields a rollback verdict. One rollback consumes the resident previous
//! model — a flapping candidate cannot ping-pong traffic.

use crate::model::QPSeeker;
use crate::plancache::PlanCache;
use qpseeker_storage::Database;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

struct CellInner {
    current: Arc<QPSeeker>,
    previous: Option<Arc<QPSeeker>>,
}

/// Epoch-stamped publication cell for the serving model.
pub struct ModelCell {
    inner: Mutex<CellInner>,
    epoch: AtomicU64,
}

impl ModelCell {
    pub fn new(model: Arc<QPSeeker>) -> Self {
        Self::with_base_epoch(model, 0)
    }

    /// A cell whose publication epoch starts at `epoch` instead of 0. The
    /// [`ModelRegistry`] uses this on reload-after-eviction so a tenant's
    /// epochs stay monotonic across its cell's whole lifetime: sessions and
    /// plan-cache entries stamped under the evicted cell can never alias an
    /// epoch the reloaded cell will publish.
    pub(crate) fn with_base_epoch(model: Arc<QPSeeker>, epoch: u64) -> Self {
        Self {
            inner: Mutex::new(CellInner { current: model, previous: None }),
            epoch: AtomicU64::new(epoch),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CellInner> {
        // A panicking publisher cannot leave the cell half-written: both
        // fields are swapped under the lock with no intermediate state, so
        // poison recovery is safe.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The current model and its publication epoch, read atomically. The
    /// returned `Arc` keeps the model alive for as long as the caller's
    /// request runs, regardless of later swaps.
    pub fn load(&self) -> (Arc<QPSeeker>, u64) {
        let g = self.lock();
        let arc = Arc::clone(&g.current);
        // Epoch is read under the lock so (model, epoch) pairs are always
        // consistent.
        let epoch = self.epoch.load(Ordering::Acquire);
        (arc, epoch)
    }

    /// Publication epoch (bumps on every publish and rollback).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publish `model`, keeping the displaced one resident for rollback.
    /// Returns the new epoch.
    pub fn publish(&self, model: Arc<QPSeeker>) -> u64 {
        let mut g = self.lock();
        let old = std::mem::replace(&mut g.current, model);
        g.previous = Some(old);
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Swap the resident previous model back in, dropping the regressed one.
    /// Returns the new epoch, or `None` when no previous model is resident
    /// (fresh cell, or the rollback budget was already spent).
    pub fn rollback(&self) -> Option<u64> {
        let mut g = self.lock();
        let prev = g.previous.take()?;
        g.current = prev;
        Some(self.epoch.fetch_add(1, Ordering::AcqRel) + 1)
    }
}

/// Verdict of one post-swap observation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SwapVerdict {
    /// Post-swap runtimes are within the allowed factor of the baseline.
    Healthy { baseline_ms: f64, post_ms: f64 },
    /// Post-swap runtimes regressed beyond the threshold: roll back.
    Regressed { baseline_ms: f64, post_ms: f64 },
}

/// Sliding-window regression monitor over observed plan runtimes.
///
/// Feed every observed runtime through [`RegressionMonitor::observe`]. While
/// disarmed, observations maintain a rolling baseline window. Arming (on
/// promotion) freezes the baseline mean; the next `min_samples` observations
/// form the post-swap window, after which [`RegressionMonitor::verdict`]
/// fires exactly once.
#[derive(Debug, Clone)]
pub(crate) struct RegressionMonitor {
    window: usize,
    min_samples: usize,
    /// Post/pre mean runtime ratio above which the swap is a regression.
    threshold: f64,
    baseline: VecDeque<f64>,
    baseline_mean: f64,
    post: Vec<f64>,
    armed: bool,
}

impl RegressionMonitor {
    pub(crate) fn new(window: usize, min_samples: usize, threshold: f64) -> Self {
        Self {
            window: window.max(1),
            min_samples: min_samples.max(1),
            threshold: threshold.max(1.0),
            baseline: VecDeque::new(),
            baseline_mean: 0.0,
            post: Vec::new(),
            armed: false,
        }
    }

    /// Record one observed plan runtime (virtual milliseconds).
    pub(crate) fn observe(&mut self, runtime_ms: f64) {
        if !runtime_ms.is_finite() {
            return;
        }
        if self.armed {
            self.post.push(runtime_ms);
        } else {
            if self.baseline.len() == self.window {
                self.baseline.pop_front();
            }
            self.baseline.push_back(runtime_ms);
        }
    }

    /// Arm the monitor at a swap point: the rolling window becomes the
    /// frozen pre-swap baseline. With an empty baseline (swap before any
    /// traffic) the monitor stays disarmed — there is nothing to compare.
    pub(crate) fn arm(&mut self) {
        if self.baseline.is_empty() {
            return;
        }
        self.baseline_mean = self.baseline.iter().sum::<f64>() / self.baseline.len() as f64;
        self.post.clear();
        self.armed = true;
    }

    /// Once the post-swap window is full, return the verdict and disarm.
    /// Returns `None` while disarmed or still collecting. On a healthy
    /// verdict the post-swap window seeds the new rolling baseline, so a
    /// later swap is judged against the promoted model's own steady state.
    pub(crate) fn verdict(&mut self) -> Option<SwapVerdict> {
        if !self.armed || self.post.len() < self.min_samples {
            return None;
        }
        let post_ms = self.post.iter().sum::<f64>() / self.post.len() as f64;
        let baseline_ms = self.baseline_mean;
        self.armed = false;
        if post_ms > baseline_ms * self.threshold {
            self.post.clear();
            Some(SwapVerdict::Regressed { baseline_ms, post_ms })
        } else {
            self.baseline.clear();
            for &v in self.post.iter().rev().take(self.window) {
                self.baseline.push_front(v);
            }
            self.post.clear();
            Some(SwapVerdict::Healthy { baseline_ms, post_ms })
        }
    }
}

/// What a caller needs to serve one tenant: its database, its publication
/// cell, and the stats version plan-cache lookups must be scoped to.
#[derive(Clone)]
pub struct TenantHandle {
    pub db: Arc<Database>,
    pub cell: Arc<ModelCell>,
    pub stats_version: u64,
}

struct TenantEntry {
    db: Arc<Database>,
    cell: Arc<ModelCell>,
    bytes: usize,
    last_used: u64,
}

/// Per-tenant state that must survive eviction: the next epoch a reloaded
/// cell starts at (monotonicity across the evict/reload boundary is what
/// makes session and plan-cache invalidation automatic) and the tenant's
/// statistics version.
#[derive(Clone, Copy, Default)]
struct TenantPersist {
    next_epoch: u64,
    stats_version: u64,
}

struct RegistryInner {
    resident: HashMap<String, TenantEntry>,
    persist: HashMap<String, TenantPersist>,
    tick: u64,
    evictions: u64,
}

/// Multi-tenant model registry: tenant → versioned `Arc<QPSeeker>` behind a
/// [`ModelCell`], with LRU eviction under a configurable memory budget and
/// graceful reload-on-miss ([`ModelRegistry::get_or_load`]).
///
/// Invalidation contract — the property the tenant bulkheads rest on:
///
/// * a tenant's publication epochs are **monotonic for the registry's whole
///   lifetime**, across any number of evictions and reloads (an evicted
///   tenant's `next_epoch` is recorded before the cell is dropped, and the
///   reloaded cell starts there). A worker [`crate::session::PlannerSession`]
///   that pinned `(model, epoch)` detects any swap *or* evict/reload cycle as
///   an epoch change and resets, so no featurization or eval-cache entry
///   computed against dropped weights survives;
/// * plan-cache entries are stamped with the epoch they were planned under
///   and rejected on mismatch at lookup, so the same monotonicity argument
///   invalidates them implicitly; eviction and stats refresh additionally
///   purge the tenant's shards eagerly when a cache is attached
///   ([`ModelRegistry::attach_plan_cache`]) to free the memory now.
///
/// Both invalidations key off the one epoch counter, so there is no ordering
/// window in which a request could observe a mixed (old-plan, new-model)
/// state: whichever epoch a request resolves, both its model and any cache
/// entry it accepts carry that same epoch.
pub struct ModelRegistry {
    inner: Mutex<RegistryInner>,
    mem_budget_bytes: usize,
    cache: Option<Arc<PlanCache>>,
}

/// Resident bytes charged for one model (f32 parameters).
fn model_bytes(model: &QPSeeker) -> usize {
    model.num_parameters() * std::mem::size_of::<f32>()
}

impl ModelRegistry {
    /// A registry evicting least-recently-used tenants once resident models
    /// exceed `mem_budget_bytes`. The budget floors at one model: the most
    /// recent tenant is never evicted, however large.
    pub fn new(mem_budget_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(RegistryInner {
                resident: HashMap::new(),
                persist: HashMap::new(),
                tick: 0,
                evictions: 0,
            }),
            mem_budget_bytes,
            cache: None,
        }
    }

    /// Attach the shared plan cache so eviction and stats refresh purge the
    /// tenant's cache shards eagerly (correctness never depends on this —
    /// epoch/stats stamping already rejects stale entries at lookup).
    pub fn attach_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        // Every mutation below is a whole-entry insert/remove under the
        // lock; a panicking caller cannot leave a half-written tenant.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Register (or replace) `tenant`, evicting LRU tenants as needed to
    /// respect the memory budget. Returns the tenant's serving handle.
    pub fn register(&self, tenant: &str, db: Arc<Database>, model: Arc<QPSeeker>) -> TenantHandle {
        let bytes = model_bytes(&model);
        let mut g = self.lock();
        if let Some(old) = g.resident.remove(tenant) {
            // Replacing a resident tenant is a publication event too.
            let next = old.cell.epoch() + 1;
            g.persist.entry(tenant.to_string()).or_default().next_epoch = next;
        }
        let persist = *g.persist.entry(tenant.to_string()).or_default();
        let cell = Arc::new(ModelCell::with_base_epoch(model, persist.next_epoch));
        g.tick += 1;
        let tick = g.tick;
        g.resident.insert(
            tenant.to_string(),
            TenantEntry { db: Arc::clone(&db), cell: Arc::clone(&cell), bytes, last_used: tick },
        );
        self.enforce_budget(&mut g, tenant);
        TenantHandle { db, cell, stats_version: persist.stats_version }
    }

    /// The tenant's handle, bumping its LRU recency. `None` when evicted or
    /// never registered — callers recover with [`ModelRegistry::get_or_load`].
    pub fn get(&self, tenant: &str) -> Option<TenantHandle> {
        let mut g = self.lock();
        g.tick += 1;
        let tick = g.tick;
        let stats_version = g.persist.get(tenant).map(|p| p.stats_version).unwrap_or(0);
        let entry = g.resident.get_mut(tenant)?;
        entry.last_used = tick;
        Some(TenantHandle {
            db: Arc::clone(&entry.db),
            cell: Arc::clone(&entry.cell),
            stats_version,
        })
    }

    /// The tenant's handle, reloading it through `loader` on a miss
    /// (graceful reload after eviction). The reloaded cell resumes the
    /// tenant's epoch sequence where the evicted one left off.
    pub fn get_or_load<E>(
        &self,
        tenant: &str,
        loader: impl FnOnce() -> Result<(Arc<Database>, Arc<QPSeeker>), E>,
    ) -> Result<TenantHandle, E> {
        if let Some(h) = self.get(tenant) {
            return Ok(h);
        }
        let (db, model) = loader()?;
        Ok(self.register(tenant, db, model))
    }

    /// Publish a new model for a resident tenant through its cell. Returns
    /// the new epoch, or `None` when the tenant is not resident.
    pub fn publish(&self, tenant: &str, model: Arc<QPSeeker>) -> Option<u64> {
        let (cell, delta) = {
            let mut g = self.lock();
            let entry = g.resident.get_mut(tenant)?;
            let delta = model_bytes(&model) as isize - entry.bytes as isize;
            entry.bytes = (entry.bytes as isize + delta).max(0) as usize;
            (Arc::clone(&entry.cell), delta)
        };
        let epoch = cell.publish(model);
        if delta > 0 {
            let mut g = self.lock();
            self.enforce_budget(&mut g, tenant);
        }
        if let Some(cache) = &self.cache {
            cache.invalidate_tenant(tenant);
        }
        Some(epoch)
    }

    /// Bump the tenant's statistics version (an ANALYZE-style refresh):
    /// every plan cached under the old statistics becomes unservable.
    /// Returns the new version.
    pub fn refresh_stats(&self, tenant: &str) -> u64 {
        let v = {
            let mut g = self.lock();
            let p = g.persist.entry(tenant.to_string()).or_default();
            p.stats_version += 1;
            p.stats_version
        };
        if let Some(cache) = &self.cache {
            cache.invalidate_tenant(tenant);
        }
        v
    }

    /// Resident tenants, sorted (deterministic iteration for tests/CLI).
    pub fn resident_tenants(&self) -> Vec<String> {
        let g = self.lock();
        let mut out: Vec<String> = g.resident.keys().cloned().collect();
        out.sort();
        out
    }

    /// Bytes currently charged against the memory budget.
    pub fn mem_used_bytes(&self) -> usize {
        self.lock().resident.values().map(|e| e.bytes).sum()
    }

    pub fn mem_budget_bytes(&self) -> usize {
        self.mem_budget_bytes
    }

    /// LRU evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Evict LRU tenants (never `keep`) until within budget or only `keep`
    /// remains. Cache purges for the victims run after the lock drops.
    fn enforce_budget(&self, g: &mut MutexGuard<'_, RegistryInner>, keep: &str) {
        let mut victims: Vec<String> = Vec::new();
        loop {
            let used: usize = g.resident.values().map(|e| e.bytes).sum();
            if used <= self.mem_budget_bytes || g.resident.len() <= 1 {
                break;
            }
            let Some(victim) = g
                .resident
                .iter()
                .filter(|(name, _)| name.as_str() != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(name, _)| name.clone())
            else {
                break;
            };
            let entry = g.resident.remove(&victim).expect("victim chosen from resident set");
            let next = entry.cell.epoch() + 1;
            g.persist.entry(victim.clone()).or_default().next_epoch = next;
            g.evictions += 1;
            victims.push(victim);
        }
        if let Some(cache) = &self.cache {
            for v in victims {
                cache.invalidate_tenant(&v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use qpseeker_storage::datagen::imdb;

    fn tiny_model() -> Arc<QPSeeker> {
        let db = Arc::new(imdb::generate(0.02, 1));
        Arc::new(QPSeeker::new(&db, ModelConfig::small()))
    }

    #[test]
    fn publish_bumps_epoch_and_keeps_previous_resident() {
        let a = tiny_model();
        let b = tiny_model();
        let cell = ModelCell::new(Arc::clone(&a));
        let (got, e0) = cell.load();
        assert_eq!(e0, 0);
        assert!(Arc::ptr_eq(&got, &a));
        assert!(cell.lock().previous.is_none());
        let e1 = cell.publish(Arc::clone(&b));
        assert_eq!(e1, 1);
        let (got, e) = cell.load();
        assert_eq!(e, 1);
        assert!(Arc::ptr_eq(&got, &b));
        assert!(cell.lock().previous.is_some());
    }

    #[test]
    fn in_flight_arc_outlives_a_swap_and_a_rollback() {
        let a = tiny_model();
        let b = tiny_model();
        let cell = ModelCell::new(Arc::clone(&a));
        let (held, _) = cell.load(); // "in-flight request"
        cell.publish(Arc::clone(&b));
        cell.rollback();
        // The in-flight request still holds a live model either way.
        assert!(Arc::ptr_eq(&held, &a));
        assert!(held.num_parameters() > 0);
    }

    #[test]
    fn rollback_restores_previous_exactly_once() {
        let a = tiny_model();
        let b = tiny_model();
        let cell = ModelCell::new(Arc::clone(&a));
        assert!(cell.rollback().is_none(), "nothing to roll back to yet");
        cell.publish(Arc::clone(&b));
        let e = cell.rollback().expect("previous resident");
        assert_eq!(e, 2, "rollback is itself a publication");
        let (got, _) = cell.load();
        assert!(Arc::ptr_eq(&got, &a));
        assert!(cell.rollback().is_none(), "rollback budget is one");
    }

    #[test]
    fn monitor_flags_a_regression_and_spares_a_healthy_swap() {
        let mut m = RegressionMonitor::new(8, 4, 1.5);
        for _ in 0..8 {
            m.observe(10.0);
        }
        m.arm();
        assert!(m.armed);
        for _ in 0..4 {
            m.observe(30.0); // 3x the baseline
        }
        match m.verdict() {
            Some(SwapVerdict::Regressed { baseline_ms, post_ms }) => {
                assert!((baseline_ms - 10.0).abs() < 1e-9);
                assert!((post_ms - 30.0).abs() < 1e-9);
            }
            other => panic!("expected regression, got {other:?}"),
        }
        assert!(!m.armed, "verdict disarms");

        // Healthy swap: post within threshold.
        let mut m = RegressionMonitor::new(8, 4, 1.5);
        for _ in 0..8 {
            m.observe(10.0);
        }
        m.arm();
        for _ in 0..4 {
            m.observe(12.0);
        }
        assert!(matches!(m.verdict(), Some(SwapVerdict::Healthy { .. })));
        // The post window seeded the new baseline.
        m.arm();
        for _ in 0..4 {
            m.observe(30.0);
        }
        match m.verdict() {
            Some(SwapVerdict::Regressed { baseline_ms, .. }) => {
                assert!((baseline_ms - 12.0).abs() < 1e-9, "baseline re-seeded at 12");
            }
            other => panic!("expected regression vs re-seeded baseline, got {other:?}"),
        }
    }

    #[test]
    fn monitor_with_no_baseline_never_arms() {
        let mut m = RegressionMonitor::new(8, 2, 1.2);
        m.arm();
        assert!(!m.armed);
        m.observe(5.0);
        m.observe(5.0);
        assert!(m.verdict().is_none());
    }

    fn tiny_db() -> Arc<Database> {
        Arc::new(imdb::generate(0.02, 1))
    }

    #[test]
    fn registry_evicts_lru_under_memory_budget() {
        let db = tiny_db();
        let one = model_bytes(&QPSeeker::new(&db, ModelConfig::small()));
        // Room for two models, not three.
        let reg = ModelRegistry::new(2 * one + one / 2);
        reg.register("a", Arc::clone(&db), tiny_model());
        reg.register("b", Arc::clone(&db), tiny_model());
        assert_eq!(reg.resident_tenants(), vec!["a", "b"]);
        // Touch "a" so "b" is the LRU victim when "c" arrives.
        assert!(reg.get("a").is_some());
        reg.register("c", Arc::clone(&db), tiny_model());
        assert_eq!(reg.resident_tenants(), vec!["a", "c"]);
        assert_eq!(reg.evictions(), 1);
        assert!(reg.get("b").is_none(), "evicted tenant misses");
        assert!(reg.mem_used_bytes() <= reg.mem_budget_bytes());
    }

    #[test]
    fn epochs_stay_monotonic_across_evict_and_reload() {
        let db = tiny_db();
        // Room for one model: registering "b" evicts "a".
        let reg = ModelRegistry::new(model_bytes(&tiny_model()));
        let h = reg.register("a", Arc::clone(&db), tiny_model());
        assert_eq!(h.cell.epoch(), 0);
        h.cell.publish(tiny_model());
        h.cell.publish(tiny_model());
        assert_eq!(h.cell.epoch(), 2);
        reg.register("b", Arc::clone(&db), tiny_model());
        assert_eq!(reg.resident_tenants(), vec!["b"]);
        let reloaded = reg
            .get_or_load("a", || Ok::<_, CoreErrNever>((Arc::clone(&db), tiny_model())))
            .unwrap();
        assert_eq!(
            reloaded.cell.epoch(),
            3,
            "reloaded cell resumes after the evicted cell's last epoch"
        );
        // A session that pinned epoch 2 sees 3 as a change and resets; a
        // plan-cache entry stamped 2 can never match a lookup at 3.
        assert!(reloaded.cell.epoch() > 2);
    }

    /// Infallible loader error type for tests.
    #[derive(Debug)]
    enum CoreErrNever {}

    #[test]
    fn reregistering_a_resident_tenant_also_bumps_the_epoch() {
        let db = tiny_db();
        let reg = ModelRegistry::new(usize::MAX);
        let h1 = reg.register("a", Arc::clone(&db), tiny_model());
        assert_eq!(h1.cell.epoch(), 0);
        let h2 = reg.register("a", Arc::clone(&db), tiny_model());
        assert_eq!(h2.cell.epoch(), 1, "replacement is a publication event");
    }

    #[test]
    fn eviction_and_stats_refresh_purge_the_attached_plan_cache() {
        use crate::plancache::{query_fingerprint, CachedPlan, PlanCache};
        use qpseeker_engine::plan::{PlanNode, ScanOp};
        use qpseeker_engine::query::{Query, RelRef};

        let db = tiny_db();
        let cache = Arc::new(PlanCache::new(2, 16));
        // Room for two models: a third registration evicts the LRU one.
        let one = model_bytes(&tiny_model());
        let reg = ModelRegistry::new(2 * one + one / 2).attach_plan_cache(Arc::clone(&cache));
        reg.register("a", Arc::clone(&db), tiny_model());
        reg.register("b", Arc::clone(&db), tiny_model());

        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("title")];
        let fp = query_fingerprint(&q);
        let plan = PlanNode::scan(&q, "title", ScanOp::SeqScan);
        for t in ["a", "b"] {
            cache.insert(
                t,
                &q,
                fp,
                CachedPlan {
                    plan: plan.clone(),
                    predicted_ms: 1.0,
                    epoch: 0,
                    stats_version: 0,
                    strategy: 0,
                },
            );
        }
        assert_eq!(cache.len(), 2);
        reg.register("c", Arc::clone(&db), tiny_model());
        assert_eq!(reg.resident_tenants(), vec!["b", "c"]);
        assert_eq!(cache.len(), 1, "eviction purged only tenant a's shard entries");
        assert!(cache.lookup("b", &q, fp, 0, 0, 0).is_some());

        let v = reg.refresh_stats("b");
        assert_eq!(v, 1);
        assert_eq!(reg.get("b").expect("resident").stats_version, 1);
        assert_eq!(cache.len(), 0, "stats refresh purged tenant b");
    }

    #[test]
    fn publish_through_registry_invalidates_the_cache_and_bumps_epoch() {
        use crate::plancache::PlanCache;
        let db = tiny_db();
        let cache = Arc::new(PlanCache::new(2, 16));
        let reg = ModelRegistry::new(usize::MAX).attach_plan_cache(Arc::clone(&cache));
        let h = reg.register("a", Arc::clone(&db), tiny_model());
        assert_eq!(reg.publish("a", tiny_model()), Some(1));
        assert_eq!(h.cell.epoch(), 1, "handle and registry share the cell");
        assert_eq!(reg.publish("missing", tiny_model()), None);
    }

    #[test]
    fn concurrent_loads_see_consistent_pairs() {
        let a = tiny_model();
        let cell = Arc::new(ModelCell::new(a));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let cell = Arc::clone(&cell);
                    let stop = Arc::clone(&stop);
                    s.spawn(move || {
                        let mut seen = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let (_m, e) = cell.load();
                            assert!(e >= seen, "epoch went backwards: {e} < {seen}");
                            seen = e;
                        }
                    })
                })
                .collect();
            for _ in 0..50 {
                cell.publish(tiny_model());
            }
            stop.store(true, Ordering::Relaxed);
            for r in readers {
                r.join().unwrap();
            }
        });
        assert_eq!(cell.epoch(), 50);
    }
}
