//! `qpseeker-core` — the QPSeeker neural database planner (the paper's
//! primary contribution).
//!
//! Pipeline (paper Fig. 1), assembled and trained as one
//! [`model::QPSeeker`]:
//!
//! 1. [`featurize`] extracts the three query sets (relations, joins,
//!    predicates) and per-plan-node features (EXPLAIN estimates, operator
//!    one-hots, TaBERT data representations);
//! 2. a query encoder — MSCN-style set encoder (§4.1);
//! 3. a plan encoder — bottom-up LSTM-cell tree encoder (§4.2);
//! 4. `QPAttention` — multi-head cross-attention between the query embedding
//!    and every plan-node output (§4.3);
//! 5. a cost modeler — a β-VAE that learns the joint distributions of
//!    cardinality, cost and runtime over the workload's QEPs (§4.4);
//! 6. [`search::mcts::MctsPlanner`] — inference-time Monte Carlo Tree Search
//!    over the plan space, scored by the learned cost model (§5.2);
//!    [`search::strategy::StrategyPlanner`] runs it or a bushy beam search.
//!
//! [`metrics`] provides Q-error summaries (Tables 2-5) and [`viz`] the
//! t-SNE/silhouette tooling for the latent-space analysis (Fig. 5).
//! [`serve`], [`tenant`] and [`online`] put the planner behind a supervised,
//! multi-tenant, self-retraining stream server.
//!
//! # Example
//!
//! Train on a sampled workload (paper §5.1), plan a query the model was not
//! trained on with MCTS, and execute the chosen plan next to the classical
//! optimizer's:
//!
//! ```no_run
//! use qpseeker_core::prelude::*;
//! use qpseeker_engine::{executor::Executor, optimizer::PgOptimizer};
//! use qpseeker_workloads::{job, JobConfig};
//!
//! let db = std::sync::Arc::new(qpseeker_storage::datagen::imdb::generate(0.1, 42));
//! let workload = job::generate(
//!     &db,
//!     &JobConfig { n_queries: 24, n_templates: 8, target_qeps: 400, ..Default::default() },
//! );
//! let (train, eval) = workload.split(0.8, true);
//! let mut model = QPSeeker::new(&db, ModelConfig::small());
//! let report = model.fit(&train).expect("training succeeds");
//! let final_loss = report.epoch_losses.last().unwrap();
//! println!("{} parameters, final loss {final_loss:.3}", model.num_parameters());
//!
//! let query = &eval[0].query;
//! let chosen = MctsPlanner::new(MctsConfig::default()).plan(&model, query);
//! println!("{} plans scored; chosen:\n{}", chosen.plans_evaluated, chosen.plan.pretty());
//! let ex = Executor::new(&db);
//! let neural_ms = ex.execute(&chosen.plan).time_ms;
//! let classical_ms = ex.execute(&PgOptimizer::new(&db).plan(query)).time_ms;
//! println!("executed: QPSeeker {neural_ms:.3} ms | PostgreSQL-style {classical_ms:.3} ms");
//! ```

pub mod checkpoint;
pub mod config;
pub mod durable;
pub mod encoder;
pub mod error;
pub mod evalbroker;
pub mod experience;
pub mod featurize;
pub mod metrics;
pub mod model;
pub mod normalize;
pub mod online;
pub mod plancache;
pub mod registry;
pub mod search;
pub mod serve;
pub mod session;
pub mod tenant;
mod vae;
pub mod viz;

/// Convenient glob import.
pub mod prelude {
    pub use crate::checkpoint::Checkpoint;
    pub use crate::config::ModelConfig;
    pub use crate::durable::{fsync_dir, write_atomic, SnapshotStore};
    pub use crate::error::CoreError;
    pub use crate::evalbroker::BrokerConfig;
    pub use crate::experience::{ExperienceDisposition, ExperienceWal};
    pub use crate::featurize::{FeatSession, Featurizer};
    pub use crate::metrics::{q_error, QErrorSummary, ServeCounters};
    pub use crate::model::{PlannerModel, Prediction, QPSeeker};
    pub use crate::normalize::TargetNormalizer;
    pub use crate::online::{OnlineConfig, OnlinePlanner};
    pub use crate::plancache::{
        query_fingerprint, CacheStats, CachedPlan, PlanCache, PlanCacheCtx,
    };
    pub use crate::registry::{ModelCell, ModelRegistry};
    pub use crate::search::mcts::{MctsConfig, MctsPlanner};
    pub use crate::search::strategy::{
        StrategyConfig, StrategyKind, StrategyPlanner, DEFAULT_BATCH_EVAL,
    };
    pub use crate::serve::{
        plan_with_fallback_in, BreakerState, Disposition, FallbackReason, QueryRequest,
        ServeConfig, ServeResult, ServedBy, ShedReason, SupervisedOutcome, SupervisorConfig,
    };
    pub use crate::session::PlannerSession;
    pub use crate::tenant::{
        MultiTenantConfig, MultiTenantSupervisor, TenantOutcome, TenantRequest, TenantSpec,
    };
    pub use crate::viz::{silhouette, tsne, TsneConfig};
}
