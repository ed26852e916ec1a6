//! The assembled QPSeeker model: Query Encoder + Plan Encoder + QPAttention
//! + Cost Modeler, with the training loop (§5) and inference entry points.

use crate::config::ModelConfig;
use crate::durable::SnapshotStore;
use crate::encoder::{EntryLayout, LevelPass, NodeMemo, NodeRef, PlanEncoder, QueryEncoder};
use crate::error::CoreError;
use crate::evalbroker::{BucketKey, FusedOutcome, Submission};
use crate::featurize::{FeatNode, FeatSession, FeaturizedQep, Featurizer, PlanFeatCache};
use crate::normalize::TargetNormalizer;
use crate::vae::CostModeler;
use qpseeker_engine::plan::{PlanNode, ScanOp};
use qpseeker_engine::query::Query;
use qpseeker_nn::prelude::*;
use qpseeker_storage::Database;
use qpseeker_tabert::TabSim;
use qpseeker_workloads::Qep;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Denormalized model prediction for one QEP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    pub cardinality: f64,
    pub cost: f64,
    pub runtime_ms: f64,
}

/// Per-epoch training diagnostics.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean total loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Final-epoch mean prediction (MSE) loss.
    pub final_pred_loss: f64,
    /// Final-epoch mean KL.
    pub final_kl: f64,
    /// Wall-clock training seconds.
    pub train_seconds: f64,
    /// Totals from the optimizer's numerical guards across all steps
    /// (non-finite gradients zeroed, oversized updates clamped, non-finite
    /// parameter values reverted). All-zero for a numerically healthy run.
    pub guards: StepReport,
}

/// The QPSeeker neural planner, bound to one database.
///
/// After training the model is plain shared data: every inference entry
/// point takes `&self`, the database is shared read-only via `Arc`, and all
/// mutable per-query state lives in a caller-owned
/// [`PlannerSession`](crate::session::PlannerSession) (or just its
/// [`FeatSession`]). That makes a fitted model `Send + Sync` (compile-time
/// asserted below): wrap it in an `Arc` and hand one clone to each serving
/// worker.
///
/// The one-shot conveniences that take no session (`predict`,
/// `predict_tape`, `latent_mu`) build a fresh `FeatSession` per call, so
/// each call re-encodes the tables it touches; a loop keeps one session and
/// calls the `*_in` entry points.
pub struct QPSeeker {
    pub config: ModelConfig,
    pub store: ParamStore,
    query_enc: QueryEncoder,
    plan_enc: PlanEncoder,
    attn: MultiHeadCrossAttention,
    vae: CostModeler,
    pub normalizer: Option<TargetNormalizer>,
    feat: Featurizer,
    noise: Initializer,
}

/// The serving-oriented name for a fitted [`QPSeeker`]: the immutable,
/// `Arc`-shareable half of the model/session split.
pub type PlannerModel = QPSeeker;

// A planner model must be shareable across serving workers. Compile-time
// assertion: losing `Send + Sync` (e.g. by reintroducing an `Rc` or a raw
// borrow) is a build error, not a runtime surprise.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QPSeeker>()
};

impl QPSeeker {
    pub fn new(db: &Arc<Database>, config: ModelConfig) -> Self {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(config.seed);
        let n_tables = db.catalog.num_tables();
        let n_joins = db.catalog.num_joins();
        let query_enc = QueryEncoder::new(&mut store, &mut init, &config, n_tables, n_joins);
        let plan_enc = PlanEncoder::new(&mut store, &mut init, &config, n_tables);
        let attn = MultiHeadCrossAttention::new(
            &mut store,
            &mut init,
            "qp_attn",
            config.query_dim(),
            config.plan_node_out,
            config.attn_heads,
            config.attn_head_dim,
            config.joint_dim(),
        );
        let vae = CostModeler::new(&mut store, &mut init, &config);
        let tabert = TabSim::new(config.tabert.clone());
        Self {
            feat: Featurizer::new(Arc::clone(db), tabert),
            config,
            store,
            query_enc,
            plan_enc,
            attn,
            vae,
            normalizer: None,
            noise: init,
        }
    }

    /// Number of scalar parameters (the paper quotes 10.8M for the full
    /// configuration).
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Simulated TaBERT time consumed so far (Fig. 8 right).
    pub fn tabert_ms(&self) -> f64 {
        self.feat.tabert_ms()
    }

    /// Featurize a training QEP (requires a fitted normalizer) against the
    /// caller's featurization caches.
    fn featurize_qep_in(&self, sess: &mut FeatSession, qep: &Qep) -> FeaturizedQep {
        let norm = self.normalizer.as_ref().expect("fit or set a normalizer first");
        self.feat.featurize(sess, &qep.query, &qep.plan, Some(&qep.truth), norm)
    }

    /// Encode one featurized QEP to its joint embedding `[1, joint_dim]`
    /// (QPAttention output; for single-node plans, the paper's
    /// concatenation fallback).
    fn encode_joint(&self, g: &mut Graph, fq: &FeaturizedQep) -> (Var, Vec<(Var, [f32; 3])>) {
        let qv = self.query_enc.forward(g, &self.store, &fq.query);
        let ep = self.plan_enc.forward(g, &self.store, &fq.plan);
        let joint = if fq.plan.count() > 1 && self.config.use_attention {
            let (out, _scores) = self.attn.forward(g, &self.store, qv, ep.nodes);
            out
        } else {
            g.concat_cols(qv, ep.root)
        };
        // Auxiliary supervision pairs: (node output var, normalized truth).
        let mut aux = Vec::new();
        if self.config.node_loss_weight > 0.0 {
            collect_node_truths(
                &fq.plan,
                &mut NodeTruthWalker { vars: &ep.node_vars, pos: 0, out: &mut aux },
            );
        }
        (joint, aux)
    }

    /// Train on a set of QEPs. Fits the target normalizer, featurizes once,
    /// then runs mini-batch Adam for `config.epochs` epochs.
    ///
    /// # Errors
    /// [`CoreError::EmptyTrainingSet`] for an empty `qeps`,
    /// [`CoreError::MissingTarget`] when a QEP carries no ground truth,
    /// [`CoreError::TrainingWorkerPanicked`] when a data-parallel worker
    /// panics (contained at the shard boundary).
    pub fn fit(&mut self, qeps: &[&Qep]) -> Result<TrainReport, CoreError> {
        let start = std::time::Instant::now();
        let feats = self.featurize_training_set(qeps, true)?;
        let report = self.fit_featurized_run(&feats, None, None)?;
        Ok(TrainReport { train_seconds: start.elapsed().as_secs_f64(), ..report })
    }

    /// [`Self::fit`] with crash-safe journaling: after every epoch a
    /// snapshot (parameters, optimizer moments, RNG/noise cursor,
    /// normalizer) is written atomically to `journal`, and training resumes
    /// from the newest valid snapshot found there.
    ///
    /// Determinism guarantee: a run killed at any epoch boundary and resumed
    /// through this entry point produces **bitwise-identical** parameters to
    /// an uninterrupted run, because (a) the optimizer's moments and step
    /// counter round-trip exactly through JSON, and (b) the shuffle RNG and
    /// latent-noise stream are fast-forwarded by replaying the completed
    /// epochs' draws (their consumption depends only on dataset size and
    /// batch size, both validated against the snapshot).
    ///
    /// # Errors
    /// Everything [`Self::fit`] raises, plus [`CoreError::SnapshotMismatch`]
    /// when the journal belongs to a different config or dataset,
    /// [`CoreError::NoValidSnapshot`] when snapshots exist but all are
    /// corrupt, and durable-write failures ([`CoreError::Io`] /
    /// [`CoreError::InjectedCrash`]) from the snapshot path.
    pub fn fit_resumable(
        &mut self,
        qeps: &[&Qep],
        journal: &SnapshotStore,
    ) -> Result<TrainReport, CoreError> {
        let start = std::time::Instant::now();
        let resume = match journal.recover()? {
            None => None,
            Some(rec) => {
                let snap: TrainSnapshot = serde_json::from_str(&rec.payload)?;
                Some(self.restore_snapshot(snap, qeps.len())?)
            }
        };
        // A snapshot restored the fitted normalizer; featurize with it.
        let feats = self.featurize_training_set(qeps, resume.is_none())?;
        let report = self.fit_featurized_run(&feats, Some(journal), resume)?;
        Ok(TrainReport { train_seconds: start.elapsed().as_secs_f64(), ..report })
    }

    /// Featurize the whole training set through one [`FeatSession`] (every
    /// table is encoded once per fit), first fitting the target normalizer
    /// on it unless a resumed snapshot already restored one.
    fn featurize_training_set(
        &mut self,
        qeps: &[&Qep],
        fit_normalizer: bool,
    ) -> Result<Vec<FeaturizedQep>, CoreError> {
        if qeps.is_empty() {
            return Err(CoreError::EmptyTrainingSet);
        }
        if fit_normalizer {
            let targets: Vec<[f64; 3]> =
                qeps.iter().map(|q| [q.cardinality(), q.cost(), q.runtime_ms()]).collect();
            self.normalizer = Some(TargetNormalizer::fit(&targets));
        }
        let mut sess = FeatSession::new();
        Ok(qeps.iter().map(|q| self.featurize_qep_in(&mut sess, q)).collect())
    }

    /// Validate a recovered snapshot against this run and restore the model
    /// state it carries. Returns the optimizer/progress for the epoch loop.
    fn restore_snapshot(
        &mut self,
        snap: TrainSnapshot,
        n_samples: usize,
    ) -> Result<ResumePoint, CoreError> {
        let fp = self.config.fingerprint();
        if snap.config_fingerprint != fp {
            return Err(CoreError::SnapshotMismatch {
                field: "config",
                snapshot: format!("fingerprint {:016x}", snap.config_fingerprint),
                current: format!("fingerprint {fp:016x}"),
            });
        }
        if snap.n_samples != n_samples {
            return Err(CoreError::SnapshotMismatch {
                field: "dataset size",
                snapshot: format!("{} QEPs", snap.n_samples),
                current: format!("{n_samples} QEPs"),
            });
        }
        if self.store.len() != snap.store.len()
            || self.store.num_scalars() != snap.store.num_scalars()
        {
            return Err(CoreError::ParamLayout {
                built_params: self.store.len(),
                built_scalars: self.store.num_scalars(),
                saved_params: snap.store.len(),
                saved_scalars: snap.store.num_scalars(),
            });
        }
        self.store = snap.store;
        self.normalizer = snap.normalizer;
        Ok(ResumePoint {
            opt: snap.optimizer,
            start_epoch: snap.epochs_done,
            epoch_losses: snap.epoch_losses,
            final_pred: snap.final_pred,
            final_kl: snap.final_kl,
            guards: snap.guards,
        })
    }

    /// The epoch loop, shared by the plain and journaled entry points.
    ///
    /// On resume the shuffle RNG and the latent-noise stream are
    /// fast-forwarded by replaying each completed epoch's draws: one shuffle
    /// of the `n`-element order, then one `[chunk, latent]` noise draw per
    /// batch. Both consume amounts that depend only on `n` and the batch
    /// size, so the replay leaves the generators exactly where the
    /// uninterrupted run would have them.
    fn fit_featurized_run(
        &mut self,
        feats: &[FeaturizedQep],
        journal: Option<&SnapshotStore>,
        resume: Option<ResumePoint>,
    ) -> Result<TrainReport, CoreError> {
        if feats.is_empty() {
            return Err(CoreError::EmptyTrainingSet);
        }
        let n = feats.len();
        let (mut opt, start_epoch, mut epoch_losses, mut final_pred, mut final_kl, mut guards) =
            match resume {
                Some(r) => {
                    (r.opt, r.start_epoch, r.epoch_losses, r.final_pred, r.final_kl, r.guards)
                }
                None => (
                    Adam::new(self.config.learning_rate as f32),
                    0,
                    Vec::with_capacity(self.config.epochs),
                    0.0,
                    0.0,
                    StepReport::default(),
                ),
            };
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xf17);
        let mut order: Vec<usize> = (0..n).collect();
        let batch_size = self.config.batch_size.max(1);
        for _done in 0..start_epoch {
            order.shuffle(&mut rng);
            for chunk in order.chunks(batch_size) {
                let _ = self.noise.standard_normal(chunk.len(), self.config.vae_latent);
            }
        }
        for epoch in start_epoch..self.config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_total = 0.0;
            let mut epoch_pred = 0.0;
            let mut epoch_kl = 0.0;
            let mut batches = 0.0;
            for chunk in order.chunks(batch_size) {
                let batch: Vec<&FeaturizedQep> = chunk.iter().map(|&i| &feats[i]).collect();
                let (total, pred, kl, step_guards) = self.train_batch(&batch, &mut opt)?;
                guards.absorb(step_guards);
                epoch_total += total;
                epoch_pred += pred;
                epoch_kl += kl;
                batches += 1.0;
            }
            epoch_losses.push(epoch_total / batches);
            final_pred = epoch_pred / batches;
            final_kl = epoch_kl / batches;
            if let Some(store) = journal {
                let snap = TrainSnapshot {
                    config_fingerprint: self.config.fingerprint(),
                    n_samples: n,
                    epochs_done: epoch + 1,
                    total_epochs: self.config.epochs,
                    optimizer: opt.clone(),
                    store: self.store.clone(),
                    normalizer: self.normalizer.clone(),
                    epoch_losses: epoch_losses.clone(),
                    final_pred,
                    final_kl,
                    guards,
                };
                store.write((epoch + 1) as u64, &serde_json::to_string(&snap)?)?;
            }
        }
        Ok(TrainReport {
            epoch_losses,
            final_pred_loss: final_pred,
            final_kl,
            train_seconds: 0.0,
            guards,
        })
    }

    /// One optimizer step over `batch`, data-parallel across
    /// `config.train_threads` crossbeam-scoped workers.
    ///
    /// Each sample's tape forward/backward runs independently into a
    /// thread-local [`GradBuffer`]; buffers are then merged into the shared
    /// store in *sample-index* order (never shard order) and the loss terms
    /// are summed in the same order. Latent noise is drawn for the whole
    /// batch upfront from the model's single RNG stream. Together these make
    /// a seeded run bit-identical for every `train_threads` value.
    fn train_batch(
        &mut self,
        batch: &[&FeaturizedQep],
        opt: &mut Adam,
    ) -> Result<(f64, f64, f64, StepReport), CoreError> {
        self.store.zero_grads();
        let b = batch.len();
        let eps_all = self.noise.standard_normal(b, self.config.vae_latent);
        // Auxiliary-loss rows across the whole batch: each sample's node
        // loss is scaled by its share so the sum equals the batch MSE.
        let total_aux: usize = if self.config.node_loss_weight > 0.0 {
            batch.iter().map(|fq| count_truth_nodes(&fq.plan)).sum()
        } else {
            0
        };
        let shards = self.config.train_threads.max(1).min(b.max(1));
        let results: Vec<SampleGrad> = if shards <= 1 {
            batch
                .iter()
                .enumerate()
                .map(|(i, fq)| self.train_sample(fq, eps_row(&eps_all, i), b, total_aux, i))
                .collect::<Result<_, _>>()?
        } else {
            let chunk = b.div_ceil(shards);
            let this = &*self;
            let eps_ref = &eps_all;
            let scoped = crossbeam::scope(|s| {
                let handles: Vec<_> = batch
                    .chunks(chunk)
                    .enumerate()
                    .map(|(ci, samples)| {
                        s.spawn(move |_| {
                            samples
                                .iter()
                                .enumerate()
                                .map(|(j, fq)| {
                                    let i = ci * chunk + j;
                                    this.train_sample(fq, eps_row(eps_ref, i), b, total_aux, i)
                                })
                                .collect::<Result<Vec<SampleGrad>, CoreError>>()
                        })
                    })
                    .collect();
                // Join every shard, containing panics at the shard boundary
                // as typed errors instead of poisoning the whole process.
                let mut all = Vec::with_capacity(b);
                for (shard, h) in handles.into_iter().enumerate() {
                    match h.join() {
                        Ok(Ok(grads)) => all.extend(grads),
                        Ok(Err(e)) => return Err(e),
                        Err(payload) => {
                            return Err(CoreError::TrainingWorkerPanicked {
                                shard,
                                cause: crate::error::panic_message(payload),
                            })
                        }
                    }
                }
                Ok(all)
            });
            match scoped {
                Ok(inner) => inner?,
                // A shard that panicked after its handle was consumed still
                // surfaces through the scope result; attribute it there.
                Err(payload) => {
                    return Err(CoreError::TrainingWorkerPanicked {
                        shard: 0,
                        cause: crate::error::panic_message(payload),
                    })
                }
            }
        };
        let (mut loss, mut pred, mut kl) = (0.0, 0.0, 0.0);
        for r in &results {
            r.buf.merge_into(&mut self.store);
            loss += r.loss;
            pred += r.pred;
            kl += r.kl;
        }
        self.store.clip_grad_norm(5.0);
        let guards = opt.step(&mut self.store);
        Ok((loss, pred / b as f64, kl / b as f64, guards))
    }

    /// Forward/backward for one sample on its own tape, gradients into a
    /// private buffer. The per-sample loss is scaled `1/batch` (and the aux
    /// node loss by its row share) so the merged batch matches a joint pass.
    fn train_sample(
        &self,
        fq: &FeaturizedQep,
        eps: Tensor,
        batch_size: usize,
        total_aux: usize,
        index: usize,
    ) -> Result<SampleGrad, CoreError> {
        let mut g = Graph::new();
        let (joint, aux) = self.encode_joint(&mut g, fq);
        let t = fq.target.ok_or(CoreError::MissingTarget { index })?;
        let targets = g.constant(Tensor::row(t.to_vec()));
        let out = self.vae.forward(&mut g, &self.store, joint, eps);
        let (sample_total, _recon, pred, kl) =
            self.vae.loss(&mut g, &out, joint, targets, self.config.beta);
        let mut total = g.scale(sample_total, 1.0 / batch_size as f32);
        if !aux.is_empty() && total_aux > 0 {
            let d = self.config.data_vec_dim();
            let node_vars: Vec<Var> = aux.iter().map(|(v, _)| g.slice_cols(*v, d, d + 3)).collect();
            let stacked_raw = g.stack_rows(&node_vars);
            // Node estimate slots carry z/5 (see featurize::ESTIMATE_SCALE);
            // rescale before comparing against raw z-scored truths.
            let stacked = g.scale(stacked_raw, 1.0 / crate::featurize::ESTIMATE_SCALE);
            let truth_rows: Vec<Tensor> =
                aux.iter().map(|(_, t)| Tensor::row(t.to_vec())).collect();
            let truth_refs: Vec<&Tensor> = truth_rows.iter().collect();
            let truths = g.constant(Tensor::stack_rows(&truth_refs));
            let node_loss = g.mse(stacked, truths);
            // This sample's mean over aux.len() rows, reweighted to its
            // share of the batch-wide mean over total_aux rows.
            let share = aux.len() as f32 / total_aux as f32;
            let weighted = g.scale(node_loss, self.config.node_loss_weight as f32 * share);
            total = g.add(total, weighted);
        }
        let pred_v = g.value(pred).get(0, 0) as f64;
        let kl_v = g.value(kl).get(0, 0) as f64;
        let mut buf = GradBuffer::new();
        let loss = g.backward(total, &mut buf) as f64;
        Ok(SampleGrad { buf, loss, pred: pred_v, kl: kl_v })
    }

    /// Predict (cardinality, cost, runtime) for an arbitrary plan of a
    /// query. Deterministic (zero latent noise). One-shot: builds a fresh
    /// [`FeatSession`] and [`QueryContext`] for this call; loops and serving
    /// workers use [`Self::predict_with_context_in`] with their own.
    pub fn predict(&self, query: &Query, plan: &PlanNode) -> Prediction {
        let mut ctx = self.query_context(query);
        self.predict_with_context_in(&mut FeatSession::new(), query, plan, &mut ctx)
    }

    /// Build the per-query state every scoring entry point takes. The query
    /// encoder runs once here, tape-free; each candidate plan then only pays
    /// for the plan-encoder rows of subtrees no earlier candidate had, and
    /// for attention and the VAE head — a search builds one context per
    /// query and scores every candidate through it.
    pub fn query_context(&self, query: &Query) -> QueryContext {
        self.query_context_reusing(query, NodeMemo::default())
    }

    /// [`Self::query_context`] on a recycled memo allocation (a planner
    /// session's); [`QueryContext::finish`] hands it back.
    pub(crate) fn query_context_reusing(&self, query: &Query, mut memo: NodeMemo) -> QueryContext {
        let qf = self.feat.query_features(query);
        let qemb = with_thread_scratch(|sc| {
            let e = self.query_enc.forward_inference(&self.store, &qf, sc);
            let owned = e.clone();
            sc.recycle(e);
            owned
        });
        memo.clear();
        QueryContext {
            qemb,
            query_key: query_key(query),
            plan_cache: PlanFeatCache::new(query),
            feat_batch: Vec::new(),
            memo,
        }
    }

    /// What a [`NodeMemo`] entry of this model holds.
    fn memo_layout(&self) -> EntryLayout {
        let heads = if self.config.use_attention { self.attn.heads } else { 0 };
        EntryLayout { out: self.plan_enc.out_dim(), heads, head_dim: self.attn.head_dim }
    }

    /// [`Self::predict`] with caller-owned featurization caches and a
    /// reusable [`QueryContext`] — the serving entry: one row through the
    /// model's one tape-free scoring forward.
    pub fn predict_with_context_in(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plan: &PlanNode,
        ctx: &mut QueryContext,
    ) -> Prediction {
        self.score_plans(sess, query, &[plan], ctx, None).mean()[0]
    }

    /// Batched [`Self::predict_with_context_in`]: fills `out` (cleared
    /// first) with one [`Prediction`] per plan, in order — one scoring
    /// call, each distinct subtree encoded once, one attention pass per node
    /// count, one `[K, d]` VAE pass.
    ///
    /// `out[p]` is **bitwise identical** to
    /// `self.predict_with_context_in(sess, query, plans[p], ctx)` — both are
    /// rows of the same forward, whose layers preserve per-row reduction
    /// order (see `qpseeker_nn::tensor::matmul_kernel`'s FP-order contract),
    /// so MCTS can defer rollouts into batches without changing any score.
    pub fn predict_batch_with_context_in(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plans: &[&PlanNode],
        ctx: &mut QueryContext,
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        out.extend(self.score_plans(sess, query, plans, ctx, None).mean());
    }

    /// Seeded standard-normal latent draws for risk-aware scoring:
    /// `[samples, vae_latent]`, a pure function of `seed`. Every candidate
    /// of a query is scored against the *same* draw batch, so risk ranking
    /// is deterministic for any worker count or batch layout.
    pub fn risk_eps(&self, samples: usize, seed: u64) -> Tensor {
        Initializer::new(seed).standard_normal(samples, self.config.vae_latent)
    }

    /// Runtime mean and population standard deviation of each plan over the
    /// latent draws `eps` (`[S, latent]`): the §5 latent distribution,
    /// actually sampled at serving time instead of collapsed to `eps = 0`.
    /// Fills `out` (cleared first) with one `(mean, sigma)` per plan, in
    /// order. Samples decode in ascending row order and accumulate in
    /// `f64`, and the sampled VAE pass is row-wise bitwise equal at any
    /// batch size, so each pair is bitwise reproducible and equal to the
    /// pair of the same plan scored alone.
    pub fn predict_risk_batch_with_context_in(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plans: &[&PlanNode],
        ctx: &mut QueryContext,
        eps: &Tensor,
        out: &mut Vec<(f64, f64)>,
    ) {
        out.clear();
        out.extend(self.score_plans(sess, query, plans, ctx, Some(eps)).risk());
    }

    /// Featurize → [`Self::score`] → outcome, on this thread: what every
    /// public `predict*` wrapper is a column pick of.
    fn score_plans(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plans: &[&PlanNode],
        ctx: &mut QueryContext,
        eps: Option<&Tensor>,
    ) -> FusedOutcome {
        let sub = self.submission(sess, query, plans, ctx, eps);
        let (outcome, sub) = self.score_local(sub);
        ctx.reclaim(sub);
        outcome
    }

    /// Featurize candidate plans of one query into the scoring row
    /// contract: one [`FeatNode`] tree per plan, the query embedding, the
    /// context's node memo, and — for risk scoring — the seeded eps block.
    /// Featurization runs here, against the caller's own caches; only the
    /// tensor pipeline sits behind [`Self::score`]. The row buffer and the
    /// memo come from `ctx` and go back through [`QueryContext::reclaim`]
    /// once scored, so a steady stream of calls allocates no new
    /// `Vec<FeatNode>`s and encodes no subtree twice.
    ///
    /// This is the one place the limits of the cached featurizer show (at
    /// most 64 relations, every scan a relation of `query`): it picks which
    /// featurizer builds the rows. Both produce numerically identical
    /// trees; only the cached one assigns node ids, so only its rows reach
    /// the memo.
    ///
    /// # Panics
    /// When `ctx` was built for another query.
    pub(crate) fn submission(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plans: &[&PlanNode],
        ctx: &mut QueryContext,
        eps: Option<&Tensor>,
    ) -> Submission {
        let norm = self.normalizer.as_ref().expect("model must be fitted before predict");
        assert!(
            ctx.query_key == query_key(query),
            "query {:?} scored through a QueryContext built for another query",
            query.id
        );
        let mut nodes = std::mem::take(&mut ctx.feat_batch);
        let cache = &mut ctx.plan_cache;
        if PlanFeatCache::supports(query) && plans.iter().all(|plan| cache.binds(plan)) {
            self.feat.featurize_batch_into(sess, query, plans, norm, cache, &mut nodes);
        } else {
            nodes.clear();
            for plan in plans {
                nodes.push(self.feat.featurize(sess, query, plan, None, norm).plan);
            }
        }
        let mut memo = std::mem::take(&mut ctx.memo);
        if !memo.is_init() {
            memo.init(self.memo_layout(), ScanOp::ALL.len() * query.relations.len());
        }
        let key = BucketKey {
            model: self as *const QPSeeker as usize,
            samples: eps.map_or(0, Tensor::rows),
        };
        Submission { key, nodes, qemb: ctx.qemb.clone(), eps: eps.cloned(), memo }
    }

    /// Score one submission on the calling thread — exactly what a
    /// one-member [`EvalBroker`](crate::evalbroker::EvalBroker) flush would
    /// run. Returns the outcome and the submission, for
    /// [`QueryContext::reclaim`].
    pub(crate) fn score_local(&self, mut sub: Submission) -> (FusedOutcome, Submission) {
        let mut outcomes = self.score(std::slice::from_mut(&mut sub));
        (outcomes.pop().expect("one outcome per submission"), sub)
    }

    /// **The** tape-free scoring path: every candidate plan the system ever
    /// scores — one `predict`, a search's batch, a broker bucket fused from
    /// many sessions — is a row here. A row is (featurized tree, its
    /// query's embedding, its query's memo, optionally its query's eps
    /// block), and one call runs, across every submission:
    ///
    /// 1. the plan LSTM over the nodes no memo holds, each node id once per
    ///    submission, one `rows = m` step per level, children first
    ///    ([`PlanEncoder::encode_pass`]); then the new rows' per-head K/V,
    ///    and both into the memos as far as their budgets admit;
    /// 2. QPAttention once per group of plans with equal node count, over
    ///    K/V gathered from memo entries and new rows — or, for single-node
    ///    plans and the no-attention ablation, the paper's concatenation
    ///    fallback query ‖ root node;
    /// 3. the VAE head once over every row.
    ///
    /// Every layer preserves per-row FP reduction order, so a row's result
    /// does not depend on what it is scored with, nor on whether its nodes
    /// were encoded now or by an earlier call: scalar is one row, a batch is
    /// K rows sharing one `qemb`, mean scoring is "no eps".
    ///
    /// All submissions must agree on the scoring kind (`key.samples`).
    /// Returns one outcome per submission, in order.
    pub(crate) fn score(&self, subs: &mut [Submission]) -> Vec<FusedOutcome> {
        let norm = self.normalizer.as_ref().expect("model must be fitted before predict");
        let samples = subs.first().map_or(0, |s| s.key.samples);
        let layout = self.memo_layout();
        let (qd, d) = (self.query_enc.out_dim(), self.attn.head_dim);
        // Split every submission into its read-only rows and its memo.
        let mut pass = LevelPass::default();
        let mut memos: Vec<&mut NodeMemo> = Vec::with_capacity(subs.len());
        let mut rows: Vec<(&Tensor, Option<&Tensor>)> = Vec::new();
        let mut counts = Vec::with_capacity(subs.len());
        for (si, sub) in subs.iter_mut().enumerate() {
            debug_assert_eq!(sub.key.samples, samples, "one scoring kind per call");
            let Submission { nodes, qemb, eps, memo, .. } = sub;
            for node in nodes.iter() {
                pass.add(si, node, memo);
                rows.push((&*qemb, eps.as_ref()));
            }
            counts.push(nodes.len());
            memos.push(memo);
        }
        let n_rows = rows.len();
        with_thread_scratch(|sc| {
            let fresh = self.plan_enc.encode_pass(&self.store, &pass, &memos, sc);
            let kv = (layout.heads > 0)
                .then(|| self.attn.project_kv_inference(&self.store, &fresh.h, sc));
            pass.commit(&mut memos, &fresh, kv.as_ref().map(|(k, v)| (k, v)));
            let f = pass.fresh_rows();
            let h_of = |r: NodeRef| match r {
                NodeRef::Memo { sub, entry } => memos[sub as usize].h(entry),
                NodeRef::Fresh(row) => fresh.h.row_slice(row as usize),
            };
            let kv_of = |r: NodeRef, head: usize, value: bool| match (r, &kv) {
                (NodeRef::Memo { sub, entry }, _) => memos[sub as usize].kv(entry, head, value),
                (NodeRef::Fresh(row), Some((keys, values))) => {
                    let t = if value { values } else { keys };
                    t.row_slice(head * f + row as usize)
                }
                (NodeRef::Fresh(_), None) => unreachable!("attention implies projected rows"),
            };
            let mut joint = sc.take(n_rows, qd + self.plan_enc.out_dim());
            let mut attend = Vec::new();
            for (c, span) in pass.spans.iter().enumerate() {
                if span.len() > 1 && layout.heads > 0 {
                    attend.push(c);
                } else {
                    let row = joint.row_slice_mut(c);
                    row[..qd].copy_from_slice(rows[c].0.data());
                    row[qd..].copy_from_slice(h_of(pass.refs[span.end - 1]));
                }
            }
            attend.sort_by_key(|&c| pass.spans[c].len());
            for group in attend.chunk_by(|&a, &b| pass.spans[a].len() == pass.spans[b].len()) {
                let (kn, n) = (group.len(), pass.spans[group[0]].len());
                let mut qb = sc.take(kn, qd);
                let mut keys = sc.take(layout.heads * kn * n, d);
                let mut values = sc.take(layout.heads * kn * n, d);
                for (p, &c) in group.iter().enumerate() {
                    qb.row_slice_mut(p).copy_from_slice(rows[c].0.data());
                    for (i, &r) in pass.refs[pass.spans[c].clone()].iter().enumerate() {
                        for head in 0..layout.heads {
                            let at = (head * kn + p) * n + i;
                            keys.row_slice_mut(at).copy_from_slice(kv_of(r, head, false));
                            values.row_slice_mut(at).copy_from_slice(kv_of(r, head, true));
                        }
                    }
                }
                let j = self.attn.forward_inference_kv(&self.store, &qb, &keys, &values, n, sc);
                for (p, &c) in group.iter().enumerate() {
                    joint.row_slice_mut(c).copy_from_slice(j.row_slice(p));
                }
                for t in [qb, keys, values, j] {
                    sc.recycle(t);
                }
            }
            fresh.recycle(sc);
            if let Some((keys, values)) = kv {
                sc.recycle(keys);
                sc.recycle(values);
            }
            let eps_refs: Option<Vec<&Tensor>> = (samples > 0)
                .then(|| rows.iter().map(|(_, eps)| eps.expect("risk rows carry eps")).collect());
            // `[R, 3]`; under sampling sample-major `[S*R, 3]`, row r's
            // sample si at `si*R + r`.
            let p = self.vae.forward_inference(&self.store, &joint, eps_refs.as_deref(), sc);
            sc.recycle(joint);
            let decode = |r: usize| {
                let raw = norm.decode([p.get(r, 0), p.get(r, 1), p.get(r, 2)]);
                Prediction { cardinality: raw[0], cost: raw[1], runtime_ms: raw[2] }
            };
            let mut at = 0;
            let mut times = Vec::with_capacity(samples);
            let outcomes = counts
                .iter()
                .map(|&count| {
                    let span = at..at + count;
                    at = span.end;
                    if samples == 0 {
                        return FusedOutcome::Mean(span.map(decode).collect());
                    }
                    FusedOutcome::Risk(
                        span.map(|r| {
                            times.clear();
                            times.extend((0..samples).map(|si| decode(si * n_rows + r).runtime_ms));
                            mean_sigma(&times)
                        })
                        .collect(),
                    )
                })
                .collect();
            sc.recycle(p);
            outcomes
        })
    }

    /// Reference prediction through the autodiff tape (the training-path
    /// forward): the independent oracle the tape-free scoring forward is
    /// property-tested against within 1e-5. Never a serving path;
    /// featurizes through a fresh [`FeatSession`] per call, as does
    /// [`Self::latent_mu`].
    pub fn predict_tape(&self, query: &Query, plan: &PlanNode) -> Prediction {
        let (preds, _mu) = self.forward_tape(&self.featurize_reference(query, plan));
        let raw = self.normalizer.as_ref().expect("fitted: featurized above").decode(preds);
        Prediction { cardinality: raw[0], cost: raw[1], runtime_ms: raw[2] }
    }

    /// The 32-d latent mean of a QEP (Fig. 5's latent space).
    pub fn latent_mu(&self, query: &Query, plan: &PlanNode) -> Vec<f32> {
        self.forward_tape(&self.featurize_reference(query, plan)).1
    }

    /// Featurize an unlabeled QEP for the tape reference paths.
    fn featurize_reference(&self, query: &Query, plan: &PlanNode) -> FeaturizedQep {
        let norm = self.normalizer.as_ref().expect("model must be fitted before predict");
        self.feat.featurize(&mut FeatSession::new(), query, plan, None, norm)
    }

    fn forward_tape(&self, fq: &FeaturizedQep) -> ([f32; 3], Vec<f32>) {
        let mut g = Graph::new();
        let (joint, _aux) = self.encode_joint(&mut g, fq);
        let eps = Tensor::zeros(1, self.config.vae_latent);
        let out = self.vae.forward(&mut g, &self.store, joint, eps);
        let p = g.value(out.predictions);
        let preds = [p.get(0, 0), p.get(0, 1), p.get(0, 2)];
        let mu = g.value(out.mu).data().to_vec();
        (preds, mu)
    }
}

/// Cached per-query inference state: the tape-free query embedding, the
/// plan featurization cache (which numbers the query's distinct subtrees)
/// and the memo of subtrees encoded so far, all shared by every candidate
/// plan of one query. Built by [`QPSeeker::query_context`]; bound to that
/// query — scoring another one through it panics.
pub struct QueryContext {
    qemb: Tensor,
    /// [`query_key`] of the query the context was built for.
    query_key: u64,
    plan_cache: PlanFeatCache,
    /// Reusable row buffer for [`QPSeeker::submission`], so a steady stream
    /// of scoring calls allocates no new `Vec<FeatNode>`s.
    feat_batch: Vec<FeatNode>,
    /// Encoded subtrees, keyed by the ids `plan_cache` assigns. Lent to
    /// each submission and handed back with its rows.
    memo: NodeMemo,
}

impl QueryContext {
    /// Take back a scored submission's row buffer and memo.
    pub(crate) fn reclaim(&mut self, sub: Submission) {
        self.feat_batch = sub.nodes;
        self.memo = sub.memo;
    }

    /// End the context's query: hand the memo's storage back to `slot` (a
    /// planner session's, for the next context) and return the plan-node
    /// rows the LSTM encoded for the query — one per distinct subtree
    /// scored, while the memo's budget lasted.
    pub(crate) fn finish(self, slot: &mut NodeMemo) -> usize {
        let encoded = self.memo.encoded();
        *slot = self.memo;
        encoded
    }
}

/// A cheap identity of `query`: everything its embedding and plan features
/// are a function of, hashed.
fn query_key(query: &Query) -> u64 {
    use std::hash::{BuildHasher, Hash, Hasher};
    let mut h = qpseeker_storage::fnv::FnvBuild.build_hasher();
    query.id.hash(&mut h);
    for rel in &query.relations {
        rel.alias.hash(&mut h);
        rel.table.hash(&mut h);
    }
    query.joins.hash(&mut h);
    for f in &query.filters {
        f.col.hash(&mut h);
        std::mem::discriminant(&f.op).hash(&mut h);
        f.value.to_bits().hash(&mut h);
    }
    h.finish()
}

/// One epoch boundary of a journaled training run, as persisted by
/// [`QPSeeker::fit_resumable`]: everything needed to continue the run and
/// land on bitwise-identical parameters.
///
/// The RNG/noise cursor is implicit: it is a pure function of
/// (`epochs_done`, `n_samples`, batch size), so resume replays the
/// completed epochs' draws instead of serializing generator internals —
/// both of which are validated before any state is restored.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct TrainSnapshot {
    /// [`ModelConfig::fingerprint`] of the run that wrote the snapshot.
    pub config_fingerprint: u64,
    /// Training-set size the epoch plan was built from.
    pub n_samples: usize,
    /// Completed epochs (also the snapshot's sequence number).
    pub epochs_done: usize,
    /// The run's total epoch budget.
    pub total_epochs: usize,
    /// Optimizer moments and step counter, exact.
    pub optimizer: Adam,
    /// Every parameter tensor at the epoch boundary.
    pub store: ParamStore,
    /// The fitted target normalizer.
    pub normalizer: Option<TargetNormalizer>,
    /// Per-epoch mean losses so far (the eventual [`TrainReport`] prefix).
    pub epoch_losses: Vec<f64>,
    /// Last completed epoch's mean prediction loss.
    pub final_pred: f64,
    /// Last completed epoch's mean KL.
    pub final_kl: f64,
    /// Accumulated numerical-guard counters.
    pub guards: StepReport,
}

/// Where the epoch loop picks up after a snapshot restore.
struct ResumePoint {
    opt: Adam,
    start_epoch: usize,
    epoch_losses: Vec<f64>,
    final_pred: f64,
    final_kl: f64,
    guards: StepReport,
}

/// One sample's contribution to a training step.
struct SampleGrad {
    buf: GradBuffer,
    /// Per-sample total loss, pre-scaled by `1/batch` (sums to batch loss).
    loss: f64,
    /// Per-sample prediction MSE (batch value = mean over samples).
    pred: f64,
    /// Per-sample KL (batch value = mean over samples).
    kl: f64,
}

/// Row `i` of the batch noise tensor as a standalone `[1, latent]` tensor.
fn eps_row(eps_all: &Tensor, i: usize) -> Tensor {
    Tensor::row(eps_all.row_slice(i).to_vec())
}

/// Mean and population standard deviation, accumulated in `f64` in slice
/// order — a fixed reduction order, so the result is bitwise reproducible
/// for a fixed sample sequence.
fn mean_sigma(times: &[f64]) -> (f64, f64) {
    let n = times.len() as f64;
    let mut mean = 0.0;
    for &t in times {
        mean += t;
    }
    mean /= n;
    let mut var = 0.0;
    for &t in times {
        let d = t - mean;
        var += d * d;
    }
    var /= n;
    (mean, var.sqrt())
}

/// Number of nodes carrying ground truth (the auxiliary-loss rows).
fn count_truth_nodes(node: &crate::featurize::FeatNode) -> usize {
    usize::from(node.truth.is_some())
        + node.children.iter().map(|c| count_truth_nodes(c)).sum::<usize>()
}

/// Walker pairing postorder node vars with featurized truths.
struct NodeTruthWalker<'v, 'o> {
    vars: &'v [Var],
    pos: usize,
    out: &'o mut Vec<(Var, [f32; 3])>,
}

fn collect_node_truths(node: &crate::featurize::FeatNode, w: &mut NodeTruthWalker) {
    for c in &node.children {
        collect_node_truths(c, w);
    }
    let var = w.vars[w.pos];
    w.pos += 1;
    if let Some(t) = node.truth {
        w.out.push((var, t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_engine::optimizer::PgOptimizer;
    use qpseeker_engine::query::{ColRef, JoinPred, RelRef};
    use qpseeker_storage::datagen::imdb;
    use qpseeker_workloads::{synthetic, SyntheticConfig};

    fn tiny_qeps(db: &Database, n: usize) -> Vec<Qep> {
        let w = synthetic::generate(db, &SyntheticConfig { n_queries: n, seed: 3 });
        w.qeps
    }

    #[test]
    fn model_constructs_with_paper_scale_parameter_count() {
        let db = Arc::new(imdb::generate(0.02, 1));
        let model = QPSeeker::new(&db, ModelConfig::paper());
        let params = model.num_parameters();
        // The paper quotes 10.8M; our schema dims land in the same regime.
        assert!((8_000_000..16_000_000).contains(&params), "paper-config parameter count {params}");
    }

    #[test]
    fn training_reduces_loss_and_predicts_finite() {
        let db = Arc::new(imdb::generate(0.05, 1));
        let qeps = tiny_qeps(&db, 24);
        let refs: Vec<&Qep> = qeps.iter().collect();
        let mut model = QPSeeker::new(&db, ModelConfig::small());
        let report = model.fit(&refs).expect("training succeeds");
        assert_eq!(report.epoch_losses.len(), ModelConfig::small().epochs);
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
        assert!(last < first, "loss should drop: {first} -> {last}");
        let p = model.predict(&qeps[0].query, &qeps[0].plan);
        assert!(p.cardinality.is_finite() && p.cardinality >= 0.0);
        assert!(p.runtime_ms.is_finite() && p.runtime_ms >= 0.0);
    }

    #[test]
    fn prediction_is_deterministic() {
        let db = Arc::new(imdb::generate(0.05, 1));
        let qeps = tiny_qeps(&db, 10);
        let refs: Vec<&Qep> = qeps.iter().collect();
        let mut model = QPSeeker::new(&db, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        let a = model.predict(&qeps[0].query, &qeps[0].plan);
        let b = model.predict(&qeps[0].query, &qeps[0].plan);
        assert_eq!(a, b);
    }

    #[test]
    fn latent_dimension_matches_config() {
        let db = Arc::new(imdb::generate(0.05, 1));
        let qeps = tiny_qeps(&db, 8);
        let refs: Vec<&Qep> = qeps.iter().collect();
        let cfg = ModelConfig::small();
        let latent = cfg.vae_latent;
        let mut model = QPSeeker::new(&db, cfg);
        model.fit(&refs).expect("training succeeds");
        let mu = model.latent_mu(&qeps[0].query, &qeps[0].plan);
        assert_eq!(mu.len(), latent);
        assert!(mu.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn different_plans_of_same_query_get_different_predictions() {
        let db = Arc::new(imdb::generate(0.05, 1));
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("title"), RelRef::new("cast_info")];
        q.joins = vec![JoinPred {
            left: ColRef::new("cast_info", "movie_id"),
            right: ColRef::new("title", "id"),
        }];
        let qeps = tiny_qeps(&db, 12);
        let refs: Vec<&Qep> = qeps.iter().collect();
        let mut model = QPSeeker::new(&db, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        use qpseeker_engine::plan::{JoinOp, ScanOp};
        let mk = |op| {
            PlanNode::join(
                &q,
                op,
                PlanNode::scan(&q, "title", ScanOp::SeqScan),
                PlanNode::scan(&q, "cast_info", ScanOp::SeqScan),
            )
        };
        let a = model.predict(&q, &mk(JoinOp::HashJoin));
        let b = model.predict(&q, &mk(JoinOp::NestedLoopJoin));
        assert_ne!(a.runtime_ms, b.runtime_ms);
    }

    #[test]
    fn batched_predictions_bitwise_equal_scalar_fast_path() {
        let db = Arc::new(imdb::generate(0.05, 1));
        let mut q = Query::new("q");
        q.relations =
            vec![RelRef::new("title"), RelRef::new("cast_info"), RelRef::new("movie_info")];
        q.joins = vec![
            JoinPred {
                left: ColRef::new("cast_info", "movie_id"),
                right: ColRef::new("title", "id"),
            },
            JoinPred {
                left: ColRef::new("movie_info", "movie_id"),
                right: ColRef::new("title", "id"),
            },
        ];
        let qeps = tiny_qeps(&db, 12);
        let refs: Vec<&Qep> = qeps.iter().collect();
        let mut model = QPSeeker::new(&db, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        use qpseeker_engine::plan::{JoinOp, ScanOp};
        let mk = |a: &str, b: &str, c: &str, j1, j2| {
            PlanNode::join(
                &q,
                j2,
                PlanNode::join(
                    &q,
                    j1,
                    PlanNode::scan(&q, a, ScanOp::SeqScan),
                    PlanNode::scan(&q, b, ScanOp::IndexScan),
                ),
                PlanNode::scan(&q, c, ScanOp::SeqScan),
            )
        };
        let plans = [
            mk("title", "cast_info", "movie_info", JoinOp::HashJoin, JoinOp::HashJoin),
            mk("cast_info", "title", "movie_info", JoinOp::MergeJoin, JoinOp::NestedLoopJoin),
            mk("movie_info", "title", "cast_info", JoinOp::NestedLoopJoin, JoinOp::HashJoin),
            mk("title", "movie_info", "cast_info", JoinOp::HashJoin, JoinOp::MergeJoin),
            mk("title", "cast_info", "movie_info", JoinOp::MergeJoin, JoinOp::MergeJoin),
        ];
        let plan_refs: Vec<&PlanNode> = plans.iter().collect();
        let mut ctx = model.query_context(&q);
        let batched = model.score_plans(&mut FeatSession::new(), &q, &plan_refs, &mut ctx, None);
        let batched = batched.mean();
        assert_eq!(batched.len(), plans.len());
        for (p, plan) in plans.iter().enumerate() {
            let single = model.predict(&q, plan);
            assert_eq!(batched[p], single, "plan {p}: batched != scalar");
        }
    }

    /// A scan that is not a relation of the query — an alias the query does
    /// not bind, or a bound alias over another table — must neither read
    /// nor write a query relation's cached features. On a warm context it
    /// scores exactly as the uncached featurizer does (which refuses an
    /// unbound alias outright), and scoring it first leaves relation 0's
    /// predictions untouched.
    #[test]
    fn foreign_leaf_never_aliases_a_query_relation() {
        let db = Arc::new(imdb::generate(0.05, 1));
        let qeps = tiny_qeps(&db, 12);
        let refs: Vec<&Qep> = qeps.iter().collect();
        let mut model = QPSeeker::new(&db, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("title"), RelRef::new("movie_info")];
        q.joins = vec![JoinPred {
            left: ColRef::new("movie_info", "movie_id"),
            right: ColRef::new("title", "id"),
        }];
        use qpseeker_engine::plan::{JoinOp, ScanOp};
        let own = PlanNode::join(
            &q,
            JoinOp::HashJoin,
            PlanNode::scan(&q, "title", ScanOp::SeqScan),
            PlanNode::scan(&q, "movie_info", ScanOp::SeqScan),
        );
        let scan = |alias: &str, table: &str| PlanNode::Scan {
            alias: alias.into(),
            table: table.into(),
            op: ScanOp::SeqScan,
            filters: Vec::new(),
        };
        let with_mi = |leaf: PlanNode| PlanNode::Join {
            op: JoinOp::HashJoin,
            left: Box::new(PlanNode::scan(&q, "movie_info", ScanOp::SeqScan)),
            right: Box::new(leaf),
            preds: Vec::new(),
        };
        let (unbound, mistyped) =
            (with_mi(scan("cast_info", "cast_info")), with_mi(scan("title", "cast_info")));
        let mut feat = FeatSession::new();
        let bits = |p: Prediction| [p.cardinality, p.cost, p.runtime_ms].map(f64::to_bits);

        // The uncached featurizer's answer, scored as a one-row submission.
        let norm = model.normalizer.as_ref().expect("fitted");
        let mut ctx = model.query_context(&q);
        let mut sub = model.submission(&mut feat, &q, &[], &mut ctx, None);
        sub.nodes.push(model.feat.featurize(&mut feat, &q, &mistyped, None, norm).plan);
        let general = model.score_local(sub).0.mean()[0];

        let mut warm = model.query_context(&q);
        let own_fresh = model.predict_with_context_in(&mut feat, &q, &own, &mut warm);
        let got = model.predict_with_context_in(&mut feat, &q, &mistyped, &mut warm);
        assert_eq!(bits(got), bits(general), "a foreign leaf scored as a cached relation");

        let mut first = model.query_context(&q);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            model.predict_with_context_in(&mut feat, &q, &unbound, &mut first)
        }));
        assert!(refused.is_err(), "an unbound alias has no estimate to score with");
        model.predict_with_context_in(&mut feat, &q, &mistyped, &mut first);
        let own_after = model.predict_with_context_in(&mut feat, &q, &own, &mut first);
        assert_eq!(bits(own_after), bits(own_fresh), "a foreign leaf rewrote relation 0");
    }

    #[test]
    #[should_panic(expected = "built for another query")]
    fn scoring_another_query_through_a_context_panics() {
        let db = Arc::new(imdb::generate(0.05, 1));
        let qeps = tiny_qeps(&db, 8);
        let refs: Vec<&Qep> = qeps.iter().collect();
        let mut model = QPSeeker::new(&db, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        let (a, b) = (&qeps[0], qeps.iter().find(|q| q.query.id != qeps[0].query.id).unwrap());
        let mut ctx = model.query_context(&a.query);
        model.predict_with_context_in(&mut FeatSession::new(), &b.query, &b.plan, &mut ctx);
    }

    #[test]
    #[should_panic(expected = "must be fitted")]
    fn predict_before_fit_panics() {
        let db = Arc::new(imdb::generate(0.02, 1));
        let model = QPSeeker::new(&db, ModelConfig::small());
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("title")];
        let plan = PgOptimizer::new(&db).plan(&q);
        model.predict(&q, &plan);
    }

    #[test]
    fn fit_on_empty_is_a_typed_error() {
        let db = Arc::new(imdb::generate(0.02, 1));
        let mut model = QPSeeker::new(&db, ModelConfig::small());
        let err = model.fit(&[]).unwrap_err();
        assert_eq!(err, CoreError::EmptyTrainingSet);
        assert!(err.to_string().contains("empty QEP set"));
    }
}
