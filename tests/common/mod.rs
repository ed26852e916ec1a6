//! What the integration suites share: the CI chaos seed, one database and
//! one fitted model per test binary, and one-lane serving — a single-tenant
//! stream is a [`MultiTenantSupervisor`] with one lane, and a fixed model is
//! a registry entry nobody publishes to.

// Each test binary uses its own subset.
#![allow(dead_code)]

use qpseeker_repro::core::prelude::*;
use qpseeker_repro::storage::{Database, FaultConfig};
use qpseeker_repro::workloads::{synthetic, Qep, SyntheticConfig};
use std::sync::{Arc, OnceLock};

/// `QPS_CHAOS_SEED`, which CI sweeps to vary every fault schedule; 0 unset.
pub fn chaos_seed() -> u64 {
    std::env::var("QPS_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// The IMDb database at scale 0.04, seed 2.
pub fn shared_db() -> &'static Arc<Database> {
    static DB: OnceLock<Arc<Database>> = OnceLock::new();
    DB.get_or_init(|| Arc::new(qpseeker_repro::storage::datagen::imdb::generate(0.04, 2)))
}

/// The small model fitted on 12 synthetic queries (seed 3) over
/// [`shared_db`]: one instance per test binary, since training is the slow
/// part. A fitted model is `Send + Sync`, so every worker pool and tenant
/// lane of the binary can serve from it.
pub fn shared_model() -> &'static Arc<QPSeeker> {
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

/// The one lane's tenant id (also its plan-cache scope).
pub const LANE: &str = "t0";

pub struct OneLane {
    sup: MultiTenantSupervisor,
    registry: ModelRegistry,
}

impl OneLane {
    /// A lane configured by `cfg` over `db`; `model: None` leaves nothing
    /// resident, so everything admitted serves classically.
    pub fn new(cfg: SupervisorConfig, db: &Arc<Database>, model: Option<&Arc<QPSeeker>>) -> Self {
        Self::with_cache(cfg, db, model, None)
    }

    pub fn with_cache(
        cfg: SupervisorConfig,
        db: &Arc<Database>,
        model: Option<&Arc<QPSeeker>>,
        cache: Option<Arc<PlanCache>>,
    ) -> Self {
        let registry = ModelRegistry::new(usize::MAX);
        if let Some(model) = model {
            registry.register(LANE, Arc::clone(db), Arc::clone(model));
        }
        let sup = MultiTenantSupervisor::new(
            MultiTenantConfig { base: cfg, cache },
            vec![TenantSpec::new(LANE, Arc::clone(db))],
        );
        Self { sup, registry }
    }

    pub fn run(&mut self, requests: &[QueryRequest]) -> Vec<SupervisedOutcome> {
        let stream: Vec<TenantRequest> = requests
            .iter()
            .map(|req| TenantRequest { tenant: LANE.into(), req: req.clone() })
            .collect();
        self.sup.run(&self.registry, &stream).into_iter().map(|o| o.outcome).collect()
    }

    /// The lane's counters, broker gauges included.
    pub fn counters(&self) -> ServeCounters {
        self.sup.merged_counters()
    }

    pub fn breaker_state(&self) -> BreakerState {
        self.sup.breaker_states()[LANE]
    }

    pub fn set_faults(&mut self, faults: Option<FaultConfig>) {
        assert!(self.sup.set_tenant_faults(LANE, faults));
    }

    /// The publication cell the lane reads its model through.
    pub fn cell(&self) -> Arc<ModelCell> {
        self.registry.get(LANE).expect("a model is resident").cell
    }
}
