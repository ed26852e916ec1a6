//! The online adaptation loop: plan → execute → observe → retrain →
//! gate → hot-swap, with automatic rollback.
//!
//! [`OnlinePlanner`] wires the pieces together around one serving lane (the
//! same lane a [`crate::tenant::MultiTenantSupervisor`] tenant runs on):
//!
//! 1. every served plan is **executed** and the observation appended to the
//!    durable [`ExperienceWal`] (crash at any point recovers the exact
//!    acknowledged prefix);
//! 2. once enough new experience accumulates, a **fine-tune round** clones
//!    the serving model (checkpoint capture/restore) and trains it on the
//!    drained records through `fit_resumable` — the round journals every
//!    epoch, so a kill mid-round resumes bitwise-identically;
//! 3. the candidate faces the **promotion gate**: non-finite parameters are
//!    an automatic reject, and its plan-cost prediction error on a held-out
//!    slice of the freshest experience must be no worse than the serving
//!    model's (within a small tolerance). Rejected candidates never touch
//!    traffic;
//! 4. a promoted candidate is persisted durably, then **published** through
//!    the [`ModelCell`] — in-flight requests finish on the model they
//!    started with, worker sessions reset on the epoch change;
//! 5. the `RegressionMonitor` watches observed runtimes after the swap
//!    and **rolls back** to the resident previous model if they regress
//!    beyond the configured factor.
//!
//! Everything runs on the supervisor's deterministic virtual clock, so the
//! whole loop — including drift recovery — is exactly reproducible in tests.

use crate::checkpoint::Checkpoint;
use crate::durable::SnapshotStore;
use crate::error::CoreError;
use crate::evalbroker::{BrokerStats, EvalBroker};
use crate::experience::{ExperienceDisposition, ExperienceRecord, ExperienceWal};
use crate::featurize::FeatSession;
use crate::metrics::{q_error, OnlineCounters};
use crate::model::QPSeeker;
use crate::plancache::PlanCacheCtx;
use crate::registry::{ModelCell, RegressionMonitor, SwapVerdict};
use crate::serve::{
    Disposition, QueryRequest, ServedBy, SupervisedOutcome, Supervisor, SupervisorConfig,
};
use qpseeker_engine::executor::Executor;
use qpseeker_storage::{Database, FaultInjector};
use qpseeker_workloads::Qep;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;

/// Online-loop configuration on top of the supervisor's serving knobs.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Stream-level serving configuration (queue, breaker, workers, ...).
    /// Its one fault schedule (`serve.faults`) covers the whole loop: the
    /// inference classes fire on the serving path, the durable classes on
    /// WAL appends, journals and promoted checkpoints, and
    /// `finetune_poison_p` on the fine-tune poison hook.
    pub supervisor: SupervisorConfig,
    /// Optional fingerprint plan cache the loop serves through, scoped to
    /// its `(tenant, stats_version)`. Entries are stamped with the cell's
    /// publication epoch, so a promotion or rollback invalidates them.
    pub cache: Option<PlanCacheCtx>,
    /// Directory holding the WAL, fine-tune journals, promoted checkpoints
    /// and trainer state. Everything needed to resume after a kill.
    pub state_dir: PathBuf,
    /// New experience records that trigger a fine-tune round.
    pub retrain_every: usize,
    /// Freshest records of each round held out for the promotion gate
    /// (never trained on).
    pub holdout: usize,
    /// Epochs per fine-tune round.
    pub fine_tune_epochs: usize,
    /// The candidate's held-out error may exceed the serving model's by at
    /// most this fraction.
    pub gate_tolerance: f64,
    /// Rolling baseline window for the regression monitor.
    pub rollback_window: usize,
    /// Post-swap observations required before a verdict.
    pub rollback_min_samples: usize,
    /// Post/pre mean observed-runtime ratio that triggers rollback.
    pub rollback_threshold: f64,
    /// Experience records per WAL segment.
    pub segment_records: usize,
    /// Promoted checkpoints retained on disk.
    pub keep_promoted: usize,
}

impl OnlineConfig {
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        Self {
            supervisor: SupervisorConfig::default(),
            cache: None,
            state_dir: state_dir.into(),
            retrain_every: 16,
            holdout: 4,
            fine_tune_epochs: 4,
            gate_tolerance: 0.05,
            rollback_window: 16,
            rollback_min_samples: 8,
            rollback_threshold: 1.5,
            segment_records: 64,
            keep_promoted: 3,
        }
    }
}

/// Outcome of one fine-tune round's promotion gate.
#[derive(Debug, Clone, PartialEq)]
pub enum PromotionDecision {
    /// The candidate passed and was published at `epoch`.
    Promoted { epoch: u64, candidate_err: f64, serving_err: f64 },
    /// Held-out prediction error was worse than serving; traffic unchanged.
    RejectedWorse { candidate_err: f64, serving_err: f64 },
    /// The candidate carried non-finite parameters; traffic unchanged.
    RejectedNonFinite,
}

impl std::fmt::Display for PromotionDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PromotionDecision::Promoted { epoch, candidate_err, serving_err } => write!(
                f,
                "promoted at epoch {epoch} (holdout q-error {candidate_err:.3} vs serving {serving_err:.3})"
            ),
            PromotionDecision::RejectedWorse { candidate_err, serving_err } => write!(
                f,
                "rejected: holdout q-error {candidate_err:.3} worse than serving {serving_err:.3}"
            ),
            PromotionDecision::RejectedNonFinite => {
                f.write_str("rejected: non-finite parameters")
            }
        }
    }
}

/// What one [`OnlinePlanner::run_batch`] call did beyond serving.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-request dispositions, aligned with the input requests.
    pub outcomes: Vec<SupervisedOutcome>,
    /// The fine-tune round triggered by this batch, if any.
    pub promotion: Option<PromotionDecision>,
    /// Whether the regression monitor rolled the serving model back.
    pub rolled_back: bool,
}

/// Durable trainer cursor: which WAL prefix has fed a completed round.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct TrainerState {
    consumed: u64,
    round: u64,
}

/// The online adaptation loop (see module docs).
pub struct OnlinePlanner {
    cfg: OnlineConfig,
    cell: ModelCell,
    sup: Supervisor,
    wal: ExperienceWal,
    promoted: SnapshotStore,
    trainer_meta: SnapshotStore,
    monitor: RegressionMonitor,
    counters: OnlineCounters,
    /// Accumulated stats of the eval broker each batch scores through
    /// (zero when `supervisor.broker` is off).
    broker_stats: BrokerStats,
    faults: Option<FaultInjector>,
    /// WAL records already consumed by completed rounds.
    consumed: usize,
    round: u64,
}

impl OnlinePlanner {
    /// Open (or recover) the loop's durable state under `cfg.state_dir` and
    /// start serving. `base` is the model to serve when no promoted
    /// checkpoint is recoverable — on a restart after a promotion, the
    /// newest valid promoted checkpoint wins; if every promoted checkpoint
    /// is corrupt the loop degrades to `base` rather than refusing to serve.
    pub fn new(
        cfg: OnlineConfig,
        base: Arc<QPSeeker>,
        db: &Arc<Database>,
    ) -> Result<Self, CoreError> {
        let faults = cfg.supervisor.serve.faults.clone().map(FaultInjector::new);
        let wal = ExperienceWal::open(cfg.state_dir.join("wal"), cfg.segment_records)?
            .with_faults(faults.clone());
        let promoted =
            SnapshotStore::create(cfg.state_dir.join("promoted"), "model", cfg.keep_promoted)?
                .with_faults(faults.clone());
        let trainer_meta = SnapshotStore::create(cfg.state_dir.join("trainer"), "state", 2)?
            .with_faults(faults.clone());

        let serving: Arc<QPSeeker> = match promoted.recover() {
            Ok(Some(rec)) => {
                let ckpt: Checkpoint = serde_json::from_str(&rec.payload)?;
                Arc::new(ckpt.restore(db)?)
            }
            Ok(None) | Err(CoreError::NoValidSnapshot { .. }) => base,
            Err(e) => return Err(e),
        };
        let (consumed, round) = match trainer_meta.recover() {
            Ok(Some(rec)) => {
                let st: TrainerState = serde_json::from_str(&rec.payload)?;
                (st.consumed as usize, st.round)
            }
            Ok(None) | Err(CoreError::NoValidSnapshot { .. }) => (0, 0),
            Err(e) => return Err(e),
        };
        // The cursor can never point past the recovered log (a crash between
        // WAL truncation and state persist cannot happen — the cursor is
        // only advanced over records that were already durable — but clamp
        // defensively).
        let consumed = consumed.min(wal.len());

        let monitor = RegressionMonitor::new(
            cfg.rollback_window,
            cfg.rollback_min_samples,
            cfg.rollback_threshold,
        );
        let sup = Supervisor::new(cfg.supervisor.clone());
        Ok(Self {
            cfg,
            cell: ModelCell::new(serving),
            sup,
            wal,
            promoted,
            trainer_meta,
            monitor,
            counters: OnlineCounters::default(),
            broker_stats: BrokerStats::default(),
            faults,
            consumed,
            round,
        })
    }

    /// The publication cell (for inspection and ad-hoc publishes in tests).
    pub fn cell(&self) -> &ModelCell {
        &self.cell
    }

    /// Online lifecycle counters.
    pub fn counters(&self) -> OnlineCounters {
        self.counters
    }

    /// Serving counters (admission/disposition tallies, broker gauges).
    pub fn serve_counters(&self) -> crate::metrics::ServeCounters {
        let mut c = self.sup.counters();
        self.broker_stats.add_to(&mut c);
        c
    }

    /// The experience log.
    pub fn wal(&self) -> &ExperienceWal {
        &self.wal
    }

    /// Operator override: publish `model` immediately, bypassing the gate,
    /// and arm the regression monitor exactly as a gated promotion would —
    /// an out-of-band deploy gets the same automatic-rollback safety net.
    /// Not persisted: a restart falls back to the last *gated* promotion.
    pub fn publish_unchecked(&mut self, model: Arc<QPSeeker>) -> u64 {
        let epoch = self.cell.publish(model);
        self.monitor.arm();
        epoch
    }

    /// Records logged but not yet consumed by a completed round.
    pub fn pending_experience(&self) -> usize {
        self.wal.len() - self.consumed
    }

    /// Serve one batch of requests through the cell, execute every served
    /// plan to observe ground truth, append the observations to the WAL,
    /// check the rollback monitor, and run a fine-tune round when enough
    /// new experience has accumulated.
    ///
    /// # Errors
    /// Durable-path failures ([`CoreError::Io`]) and injected kills
    /// ([`CoreError::InjectedCrash`], transient) — after either, a new
    /// [`OnlinePlanner`] over the same `state_dir` resumes exactly where
    /// the durable state left off. Requests already served in the dying
    /// batch were answered; only observations past the crash point are
    /// lost, and those were never acknowledged.
    pub fn run_batch(
        &mut self,
        db: &Arc<Database>,
        requests: &[QueryRequest],
    ) -> Result<BatchReport, CoreError> {
        // One broker per batch, every worker seated before any starts, as
        // a multi-tenant supervisor does across its lanes.
        let broker = self.cfg.supervisor.broker.map(EvalBroker::new);
        let seats = broker.as_ref().map(|b| b.register_members(self.cfg.supervisor.workers.max(1)));
        let outcomes = self.sup.run(db, Some(&self.cell), self.cfg.cache.as_ref(), seats, requests);
        if let Some(b) = &broker {
            self.broker_stats.merge(&b.take_stats());
        }

        // Observe: execute each served plan against the live database. The
        // executor's virtual clock makes the observation deterministic.
        for (req, outcome) in requests.iter().zip(&outcomes) {
            let Disposition::Served(r) = &outcome.disposition else { continue };
            let truth = Executor::new(db).execute(&r.plan);
            let observed_ms = truth.time_ms;
            let disposition = match r.served_by {
                ServedBy::Neural => ExperienceDisposition::Neural,
                ServedBy::Classical => ExperienceDisposition::Classical,
            };
            let qep = Qep {
                query: req.query.clone(),
                plan: r.plan.clone(),
                template: "online".into(),
                truth,
            };
            self.wal.log(disposition, r.predicted_ms, qep)?;
            self.counters.records_logged += 1;
            self.monitor.observe(observed_ms);
        }

        // Rollback check before retraining: a regressed swap must not train
        // the next candidate from a poisoned serving model's plans only.
        let mut rolled_back = false;
        if let Some(SwapVerdict::Regressed { .. }) = self.monitor.verdict() {
            if self.cell.rollback().is_some() {
                self.counters.rollbacks += 1;
                rolled_back = true;
            }
        }

        let promotion = self.maybe_retrain(db)?;
        Ok(BatchReport { outcomes, promotion, rolled_back })
    }

    /// Run one fine-tune round if enough unconsumed experience is pending.
    fn maybe_retrain(
        &mut self,
        db: &Arc<Database>,
    ) -> Result<Option<PromotionDecision>, CoreError> {
        let pending = self.wal.len() - self.consumed;
        if pending < self.cfg.retrain_every.max(2) {
            return Ok(None);
        }
        let slice = &self.wal.records()[self.consumed..];
        // Hold out the freshest records for the gate; train on the rest.
        let holdout_n = self.cfg.holdout.clamp(1, slice.len() - 1);
        let (train, holdout) = slice.split_at(slice.len() - holdout_n);

        let serving = self.cell.load().0;
        let mut candidate = Checkpoint::capture(&serving, db).restore(db)?;
        candidate.config.epochs = self.cfg.fine_tune_epochs.max(1);

        // Per-round journal, keyed by the exact record range the round
        // trains on: a kill mid-round resumes this exact round, while a
        // restart whose pending slice grew (more records landed before the
        // crash point) starts a fresh journal instead of tripping the
        // journal's dataset-fingerprint check.
        let journal_dir = self.cfg.state_dir.join(format!(
            "rounds/r{:08}-{:08}",
            self.consumed,
            self.consumed + slice.len()
        ));
        let journal =
            SnapshotStore::create(&journal_dir, "ft", 2)?.with_faults(self.faults.clone());
        let train_refs: Vec<&Qep> = train.iter().map(|r| &r.qep).collect();
        candidate.fit_resumable(&train_refs, &journal)?;
        self.counters.retrain_rounds += 1;

        // Chaos hook: a poisoned gradient step that slipped past the
        // per-batch guards lands here as non-finite weights.
        if let Some(fi) = &self.faults {
            if fi.finetune_poisoned(self.round) {
                poison_first_param(&mut candidate);
            }
        }

        let decision = if !params_finite(&candidate) {
            self.counters.rejected_nonfinite += 1;
            PromotionDecision::RejectedNonFinite
        } else {
            let candidate_err = holdout_error(&candidate, holdout);
            let serving_err = holdout_error(&serving, holdout);
            // NaN candidate_err fails this comparison, so a model that
            // *predicts* non-finitely is rejected too.
            if candidate_err <= serving_err * (1.0 + self.cfg.gate_tolerance) {
                // Durability order matters: checkpoint first, then the
                // cursor, then the in-memory publish. A kill between any
                // two steps recovers to a consistent state (at worst the
                // round is redone from its journal, idempotently).
                let payload = serde_json::to_string(&Checkpoint::capture(&candidate, db))?;
                self.promoted.write(self.round + 1, &payload)?;
                self.advance_cursor(slice.len())?;
                // The round is durably complete; its journal is dead weight.
                let _ = std::fs::remove_dir_all(&journal_dir);
                let epoch = self.cell.publish(Arc::new(candidate));
                self.monitor.arm();
                self.counters.promotions += 1;
                return Ok(Some(PromotionDecision::Promoted { epoch, candidate_err, serving_err }));
            }
            self.counters.rejected_gate += 1;
            PromotionDecision::RejectedWorse { candidate_err, serving_err }
        };
        // Rejected rounds still consume their records: retraining forever on
        // the same bad slice would wedge the loop.
        self.advance_cursor(slice.len())?;
        let _ = std::fs::remove_dir_all(&journal_dir);
        Ok(Some(decision))
    }

    /// Durably advance the trainer cursor past `n` records and bump the
    /// round counter.
    fn advance_cursor(&mut self, n: usize) -> Result<(), CoreError> {
        self.consumed += n;
        self.round += 1;
        let st = TrainerState { consumed: self.consumed as u64, round: self.round };
        self.trainer_meta.write(self.round, &serde_json::to_string(&st)?)?;
        Ok(())
    }
}

/// Mean q-error of the model's runtime prediction over a held-out slice —
/// the gate's measure of plan-cost prediction quality.
fn holdout_error(model: &QPSeeker, holdout: &[ExperienceRecord]) -> f64 {
    if holdout.is_empty() {
        return f64::INFINITY;
    }
    // One featurization session for the whole slice: tables are encoded
    // once per gate evaluation, not once per record.
    let mut feat = FeatSession::new();
    let sum: f64 = holdout
        .iter()
        .map(|r| {
            let (query, plan) = (&r.qep.query, &r.qep.plan);
            let mut ctx = model.query_context(query);
            let pred = model.predict_with_context_in(&mut feat, query, plan, &mut ctx).runtime_ms;
            // Compare in microseconds: virtual runtimes are routinely
            // sub-millisecond, and q_error's floor-at-1 would otherwise
            // flatten every such pair to a perfect score.
            q_error(pred * 1e3, r.qep.truth.time_ms * 1e3)
        })
        .sum();
    sum / holdout.len() as f64
}

/// All parameters finite?
fn params_finite(model: &QPSeeker) -> bool {
    model.store.iter().all(|(_, p)| p.value.data().iter().all(|x| x.is_finite()))
}

/// Set one weight to NaN (the injected poisoned-fine-tune fault).
fn poison_first_param(model: &mut QPSeeker) {
    let first = model.store.iter().next().map(|(id, _)| id);
    if let Some(id) = first {
        if let Some(x) = model.store.value_mut(id).data_mut().first_mut() {
            *x = f32::NAN;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use qpseeker_storage::FaultConfig;
    use qpseeker_workloads::{synthetic, SyntheticConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("qps-online-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn shared_db() -> &'static Arc<Database> {
        static DB: OnceLock<Arc<Database>> = OnceLock::new();
        DB.get_or_init(|| Arc::new(qpseeker_storage::datagen::imdb::generate(0.03, 2)))
    }

    fn fitted_model(db: &Arc<Database>) -> Arc<QPSeeker> {
        static MODEL: OnceLock<Checkpoint> = OnceLock::new();
        let ckpt = MODEL.get_or_init(|| {
            let w = synthetic::generate(db, &SyntheticConfig { n_queries: 12, seed: 3 });
            let refs: Vec<&Qep> = w.qeps.iter().collect();
            let mut m = QPSeeker::new(db, ModelConfig::small());
            m.fit(&refs).expect("training succeeds");
            Checkpoint::capture(&m, db)
        });
        Arc::new(ckpt.clone().restore(db).expect("restore succeeds"))
    }

    fn stream(db: &Arc<Database>, n: usize, seed: u64) -> Vec<QueryRequest> {
        let w = synthetic::generate(db, &SyntheticConfig { n_queries: n, seed });
        w.qeps
            .into_iter()
            .enumerate()
            .map(|(i, q)| QueryRequest {
                query: q.query,
                arrival_ms: i as f64 * 5.0,
                deadline_ms: i as f64 * 5.0 + 1e9,
            })
            .collect()
    }

    fn quick_online_cfg(dir: &PathBuf) -> OnlineConfig {
        let mut cfg = OnlineConfig::new(dir);
        cfg.supervisor.queue_capacity = 256;
        cfg.supervisor.serve.mcts.budget_ms = 20.0;
        cfg.supervisor.serve.mcts.max_simulations = 40;
        cfg.retrain_every = 8;
        cfg.holdout = 2;
        cfg.fine_tune_epochs = 2;
        cfg
    }

    #[test]
    fn loop_serves_observes_and_retrains() {
        let db = shared_db();
        let dir = scratch("loop");
        let cfg = quick_online_cfg(&dir);
        let mut op = OnlinePlanner::new(cfg, fitted_model(db), db).unwrap();
        let reqs = stream(db, 10, 21);
        let report = op.run_batch(db, &reqs).unwrap();
        assert_eq!(report.outcomes.len(), 10);
        let c = op.serve_counters();
        assert_eq!(c.admitted, c.served_neural + c.served_classical + c.failed);
        assert!(op.counters().records_logged >= 8);
        assert_eq!(op.counters().retrain_rounds, 1, "8+ records must trigger a round");
        assert!(report.promotion.is_some());
        // The WAL holds real observations.
        assert!(op.wal().records().iter().all(|r| r.observed_ms() > 0.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_finetune_is_rejected_and_traffic_stays() {
        let db = shared_db();
        let dir = scratch("poison");
        let mut cfg = quick_online_cfg(&dir);
        cfg.supervisor.serve.faults =
            Some(FaultConfig { finetune_poison_p: 1.0, ..FaultConfig::default() });
        let base = fitted_model(db);
        let mut op = OnlinePlanner::new(cfg, Arc::clone(&base), db).unwrap();
        let epoch_before = op.cell().epoch();
        let (held_before, _) = op.cell().load();
        let report = op.run_batch(db, &stream(db, 10, 22)).unwrap();
        assert_eq!(report.promotion, Some(PromotionDecision::RejectedNonFinite));
        assert_eq!(op.counters().rejected_nonfinite, 1);
        assert_eq!(op.counters().promotions, 0);
        assert_eq!(op.cell().epoch(), epoch_before, "no swap happened");
        let (held_after, _) = op.cell().load();
        assert!(Arc::ptr_eq(&held_before, &held_after), "traffic stays on the old model");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promoted_model_survives_restart() {
        let db = shared_db();
        let dir = scratch("restart");
        let cfg = quick_online_cfg(&dir);
        let base = fitted_model(db);
        let mut op = OnlinePlanner::new(cfg.clone(), Arc::clone(&base), db).unwrap();
        let report = op.run_batch(db, &stream(db, 10, 23)).unwrap();
        let promoted = matches!(report.promotion, Some(PromotionDecision::Promoted { .. }));
        let epoch = op.cell().epoch();
        let logged = op.wal().len();
        drop(op);
        // "Restart": recover from the state dir alone.
        let op2 = OnlinePlanner::new(cfg, Arc::clone(&base), db).unwrap();
        assert_eq!(op2.wal().len(), logged, "no experience lost across restart");
        if promoted {
            assert!(epoch >= 1);
            let (m, _) = op2.cell().load();
            assert!(
                !Arc::ptr_eq(&m, &base),
                "restart must serve the promoted checkpoint, not the base model"
            );
            // The completed round consumed its whole slice (train + holdout).
            assert_eq!(op2.pending_experience(), 0, "cursor recovered");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
