//! `qpseeker-core` — the QPSeeker neural database planner (the paper's
//! primary contribution).
//!
//! Pipeline (paper Fig. 1):
//!
//! 1. [`featurize`] extracts the three query sets (relations, joins,
//!    predicates) and per-plan-node features (EXPLAIN estimates, operator
//!    one-hots, TaBERT data representations);
//! 2. [`encoder::QueryEncoder`] — MSCN-style set encoder (§4.1);
//! 3. [`encoder::PlanEncoder`] — bottom-up LSTM-cell tree encoder (§4.2);
//! 4. `QPAttention` — multi-head cross-attention between the query embedding
//!    and every plan-node output (§4.3);
//! 5. [`vae::CostModeler`] — a β-VAE that learns the joint distributions of
//!    cardinality, cost and runtime over the workload's QEPs (§4.4);
//! 6. [`mcts::MctsPlanner`] — inference-time Monte Carlo Tree Search over
//!    the plan space, scored by the learned cost model (§5.2).
//!
//! [`metrics`] provides Q-error summaries (Tables 2-5) and [`viz`] the
//! t-SNE/silhouette tooling for the latent-space analysis (Fig. 5).
//!
//! # Example
//!
//! ```no_run
//! use qpseeker_core::prelude::*;
//! use qpseeker_workloads::{synthetic, SyntheticConfig, Qep};
//!
//! let db = std::sync::Arc::new(qpseeker_storage::datagen::imdb::generate(0.05, 1));
//! let workload = synthetic::generate(&db, &SyntheticConfig { n_queries: 64, seed: 1 });
//! let refs: Vec<&Qep> = workload.qeps.iter().collect();
//! let mut model = QPSeeker::new(&db, ModelConfig::small());
//! model.fit(&refs).expect("training succeeds");
//! let planner = MctsPlanner::new(MctsConfig::default());
//! let chosen = planner.plan(&model, &workload.qeps[0].query);
//! println!("{}", chosen.plan.pretty());
//! ```

pub mod checkpoint;
pub mod config;
pub mod durable;
pub mod encoder;
pub mod error;
pub mod evalbroker;
pub mod experience;
pub mod featurize;
pub(crate) mod fnv;
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
pub mod vae;
pub mod viz;

// The left-deep MCTS planner predates the strategy layer; keep its
// historical `crate::mcts` path as an alias of `crate::search::mcts`.
pub use search::mcts;

/// Convenient glob import.
pub mod prelude {
    pub use crate::checkpoint::Checkpoint;
    pub use crate::config::ModelConfig;
    pub use crate::durable::{fsync_dir, write_atomic, RecoveredSnapshot, SnapshotStore};
    pub use crate::error::CoreError;
    pub use crate::evalbroker::{BrokerConfig, BrokerStats, EvalBroker, ROUND_TICK_US};
    pub use crate::experience::{ExperienceDisposition, ExperienceRecord, ExperienceWal};
    pub use crate::featurize::{FeatNode, FeatSession, FeaturizedQep, Featurizer, QueryFeatures};
    pub use crate::mcts::{Action, MctsConfig, MctsPlanner, MctsResult, MctsScratch};
    pub use crate::metrics::{q_error, OnlineCounters, QErrorSummary, ServeCounters};
    pub use crate::model::{
        PlannerModel, Prediction, QPSeeker, QueryContext, TrainReport, TrainSnapshot,
    };
    pub use crate::normalize::TargetNormalizer;
    pub use crate::online::{BatchReport, OnlineConfig, OnlinePlanner, PromotionDecision};
    pub use crate::plancache::{
        query_fingerprint, CacheStats, CachedPlan, PlanCache, PlanCacheCtx,
    };
    pub use crate::registry::{
        ModelCell, ModelRegistry, RegressionMonitor, SwapVerdict, TenantHandle,
    };
    pub use crate::search::beam::{BeamPlanner, BeamScratch};
    pub use crate::search::strategy::{
        RiskParams, StrategyConfig, StrategyKind, StrategyPlanner, DEFAULT_BATCH_EVAL,
    };
    pub use crate::serve::{
        plan_with_fallback_in, BreakerState, CircuitBreaker, Disposition, FallbackReason,
        QueryRequest, ServeConfig, ServeResult, ServedBy, ShedReason, SupervisedOutcome,
        SupervisorConfig,
    };
    pub use crate::session::{PlannerSession, SearchScratch};
    pub use crate::tenant::{
        MultiTenantConfig, MultiTenantSupervisor, TenantOutcome, TenantRequest, TenantSpec,
    };
    pub use crate::viz::{silhouette, tsne, TsneConfig};
}
