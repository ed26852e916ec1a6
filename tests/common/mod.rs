//! One-lane serving for the integration suites: a single-tenant stream is a
//! [`MultiTenantSupervisor`] with one lane, and a fixed model is a registry
//! entry nobody publishes to.

// Each test binary uses its own subset.
#![allow(dead_code)]

use qpseeker_repro::core::prelude::*;
use qpseeker_repro::storage::{Database, FaultConfig};
use std::sync::Arc;

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
