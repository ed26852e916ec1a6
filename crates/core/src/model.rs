//! The assembled QPSeeker model: Query Encoder + Plan Encoder + QPAttention
//! + Cost Modeler, with the training loop (§5) and inference entry points.

use crate::config::ModelConfig;
use crate::durable::SnapshotStore;
use crate::encoder::{Block, EntryLayout, LevelPass, NodeMemo, NodeRef, PlanEncoder, QueryEncoder};
use crate::error::CoreError;
use crate::evalbroker::{BucketKey, FusedOutcome, Submission};
use crate::featurize::{FeatNode, FeatSession, FeaturizedQep, Featurizer, Interner, PlanFeatCache};
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
    /// Attention's output layer folded into the VAE's first: what an
    /// attending candidate's context runs through.
    enter: Fold,
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
        let enter = Fold::new(&mut store, &attn.out, attn.out.out_dim, &vae.encoder.layers[0]);
        // Serving reads attention's output layer only through `enter`.
        store.unserve_packed(attn.out.w);
        let tabert = TabSim::new(config.tabert.clone());
        Self {
            feat: Featurizer::new(Arc::clone(db), tabert),
            config,
            store,
            query_enc,
            plan_enc,
            attn,
            enter,
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
        self.feat.tabert.simulated_ms()
    }

    /// Featurize a training QEP (requires a fitted normalizer) against the
    /// caller's featurization caches.
    fn featurize_qep_in(&self, sess: &mut FeatSession, qep: &Qep) -> FeaturizedQep {
        let norm = self.normalizer.as_ref().expect("fit or set a normalizer first");
        self.feat.featurize(sess, &qep.query, &qep.plan, Some(&qep.truth), norm)
    }

    /// Encode a group of featurized QEPs on one tape to their first VAE
    /// encoder layer and their joint embeddings, `[samples, enc₁]` and
    /// `[samples, joint_dim]` ([`Self::embed`]), plus the plan encoder's
    /// node rows and the [`LevelPass`] that places them: one pass over the
    /// group, an empty memo per sample (a QEP's node ids never repeat
    /// inside its plan, so every node is fresh). Every op is
    /// row-independent, so a sample's rows are bitwise the same in any
    /// group.
    fn encode_group<'a>(
        &self,
        g: &mut Graph,
        samples: &[&'a FeaturizedQep],
    ) -> (Var, Var, Var, LevelPass<'a>) {
        let qv = self.query_enc.forward(g, &samples.iter().map(|s| &s.query).collect::<Vec<_>>());
        let mut pass = LevelPass::default();
        for (s, sample) in samples.iter().enumerate() {
            pass.add(s, &sample.plan, &mut NodeMemo::default());
        }
        let (nodes, _own) = self.plan_enc.forward(g, &pass, &[]);
        let states = self.config.use_attention.then(|| {
            let keyed = self.attn.query(g, &qv);
            self.subtree_states(g, &pass, &nodes.h, |s| Row::Of(&keyed, s as usize), &[])
        });
        let states = states.as_ref();
        let (h1, joint) = self.embed(
            g,
            pass.plans(),
            true,
            |s| Row::Of(&qv, s),
            |c| Row::Of(&nodes.h, pass.tape_row(pass.root(c))),
            |c| Row::Of(states.expect("attention merged the states"), pass.tape_row(pass.root(c))),
        );
        (h1, joint.expect("the tape keeps the joint embeddings"), nodes.h, pass)
    }

    /// The attention state of every fresh row of `pass` (rows of `h`, its
    /// hidden states, in [`PlanEncoder::forward`]'s order): its logit and
    /// value merged with its children's states, level by level, `[F,
    /// heads·(2 + head_dim)]`. `keyed(sub)` is submission `sub`'s keyed
    /// query ([`MultiHeadCrossAttention::query`]); a memoized child's
    /// state is read from `memos`.
    fn subtree_states<'t, E: Exec>(
        &self,
        e: &mut E,
        pass: &LevelPass,
        h: &E::T,
        keyed: impl Fn(u32) -> Row<'t, E::T>,
        memos: &[&mut NodeMemo],
    ) -> E::T
    where
        E::T: 't,
    {
        let values = self.attn.values(e, h);
        let logits = self.attn.logits(e, pass.subs().map(keyed), h);
        let (kids, lens) = pass.kids(memos);
        let states = e.merge(&logits, &values, &kids, lens);
        e.recycle(logits);
        e.recycle(values);
        states
    }

    /// Every candidate's first VAE encoder layer `[candidates, enc₁]`, in
    /// pass order, and — with `keep_joint`, on the tape — its joint
    /// embedding `[candidates, joint_dim]`, which only the reconstruction
    /// loss reads. The joint embedding is QPAttention of the candidate's
    /// query over its nodes — the context its root's state holds — or, for
    /// single-node plans and the no-attention ablation, the paper's
    /// concatenation fallback query ‖ root node.
    ///
    /// An attending candidate's heads' context runs through `enter`,
    /// attention's output layer folded into `enc₁`; a fallback candidate's
    /// joint row runs through `enc₁` itself. `plans` are the candidates'
    /// plans, `q(c)` is candidate `c`'s query embedding, `root(c)` its
    /// root's plan-encoder row and `state(c)` its root's attention state:
    /// training and serving differ only in where those rows live.
    fn embed<'t, E: Exec>(
        &self,
        e: &mut E,
        plans: &[&FeatNode],
        keep_joint: bool,
        q: impl Fn(usize) -> Row<'t, E::T>,
        root: impl Fn(usize) -> Row<'t, E::T>,
        state: impl Fn(usize) -> Row<'t, E::T>,
    ) -> (E::T, Option<E::T>)
    where
        E::T: 't,
    {
        let attention = self.config.use_attention;
        let (attend, concat): (Vec<usize>, Vec<usize>) =
            (0..plans.len()).partition(|&c| attention && !plans[c].is_leaf());
        let enc1 = &self.vae.encoder.layers[0];
        // Candidate → (part, row of the part).
        let mut at = vec![(0, 0); plans.len()];
        let (mut parts, mut joints) = (Vec::new(), Vec::new());
        if !concat.is_empty() {
            let (qd, od) = (self.query_enc.out_dim(), self.plan_enc.out_dim());
            let qc = e.gather(concat.len(), qd, concat.iter().map(|&c| q(c)));
            let roots = e.gather(concat.len(), od, concat.iter().map(|&c| root(c)));
            let joint = e.concat(&[(&qc, 0..qd), (&roots, 0..od)]);
            e.recycle(qc);
            e.recycle(roots);
            parts.push(enc1.forward(e, &joint, self.vae.enc1_act()));
            if keep_joint {
                joints.push(joint);
            } else {
                e.recycle(joint);
            }
            concat.iter().enumerate().for_each(|(i, &c)| at[c] = (parts.len() - 1, i));
        }
        if !attend.is_empty() {
            let roots = attend.iter().map(|&c| state(c));
            let cat = self.attn.context(e, roots);
            let joint = keep_joint.then(|| self.attn.out.forward(e, &cat, Activation::Identity));
            parts.push(self.enter.forward(e, &cat, joint.as_ref(), self.vae.enc1_act()));
            joints.extend(joint);
            e.recycle(cat);
            attend.iter().enumerate().for_each(|(i, &c)| at[c] = (parts.len() - 1, i));
        }
        let stack = |e: &mut E, parts: Vec<E::T>, cols: usize| {
            let rows = at.iter().map(|&(p, i)| Row::Of(&parts[p], i));
            let all = e.gather(at.len(), cols, rows);
            parts.into_iter().for_each(|t| e.recycle(t));
            all
        };
        let h1 = stack(e, parts, enc1.out_dim);
        let joint = keep_joint.then(|| stack(e, joints, self.config.joint_dim()));
        (h1, joint)
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
        let layout = CoreError::ParamLayout {
            built_params: self.store.len(),
            built_scalars: self.store.num_scalars(),
            saved_params: snap.store.len(),
            saved_scalars: snap.store.num_scalars(),
        };
        if !self.store.load(snap.store) {
            return Err(layout);
        }
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
        // Serving reads no gradient; the next fit's first step brings the
        // buffers back.
        self.store.release_grads();
        Ok(TrainReport {
            epoch_losses,
            final_pred_loss: final_pred,
            final_kl,
            train_seconds: 0.0,
            guards,
        })
    }

    /// One optimizer step over `batch`: its [`tape_groups`] run on up to
    /// `config.train_threads` crossbeam-scoped workers, each on one tape
    /// ([`Self::train_group`]). Latent noise is drawn for the whole batch
    /// upfront from the model's single RNG stream, and the groups'
    /// [`GradBuffer`]s merge into the store in group order (never thread
    /// order), so a seeded run is bit-identical for every `train_threads`
    /// value.
    fn train_batch(
        &mut self,
        batch: &[&FeaturizedQep],
        opt: &mut Adam,
    ) -> Result<(f64, f64, f64, StepReport), CoreError> {
        self.store.zero_grads();
        let b = batch.len();
        let eps_all = self.noise.standard_normal(b, self.config.vae_latent);
        let groups = self.group_grads(batch, &eps_all, &tape_groups(b))?;
        let (loss, pred, kl) = merge_groups(&groups, &mut self.store);
        self.store.clip_grad_norm(5.0);
        let guards = opt.step(&mut self.store);
        Ok((loss, pred / b as f64, kl / b as f64, guards))
    }

    /// Forward and backward of every tape group of one minibatch: `batch`
    /// cut into consecutive groups of `lens` samples, each group with its
    /// rows of `eps_all`, run on up to `config.train_threads` workers.
    /// Results come back in group order.
    fn group_grads(
        &self,
        batch: &[&FeaturizedQep],
        eps_all: &Tensor,
        lens: &[usize],
    ) -> Result<Vec<GroupGrad>, CoreError> {
        let b = batch.len();
        assert_eq!(lens.iter().sum::<usize>(), b, "tape groups must cover the batch");
        // Auxiliary-loss rows across the whole batch: each group's node
        // loss is scaled by its share so the sum equals the batch MSE.
        let total_aux: usize = if self.config.node_loss_weight > 0.0 {
            batch.iter().filter_map(|fq| fq.truths.as_ref()).map(Vec::len).sum()
        } else {
            0
        };
        let mut spans = Vec::with_capacity(lens.len());
        let mut at = 0;
        for &len in lens {
            spans.push(at..at + len);
            at += len;
        }
        let run = |span: &std::ops::Range<usize>| {
            let eps = Tensor::from_vec(
                span.len(),
                eps_all.cols(),
                eps_all.data()[span.start * eps_all.cols()..span.end * eps_all.cols()].to_vec(),
            );
            self.train_group(&batch[span.clone()], span.start, eps, b, total_aux)
        };
        let threads = self.config.train_threads.max(1).min(spans.len());
        if threads <= 1 {
            return spans.iter().map(run).collect();
        }
        let chunk = spans.len().div_ceil(threads);
        let run = &run;
        let scoped = crossbeam::scope(|s| {
            let handles: Vec<_> = spans
                .chunks(chunk)
                .map(|mine| s.spawn(move |_| mine.iter().map(run).collect::<Result<Vec<_>, _>>()))
                .collect();
            // Join every worker, containing panics at the shard boundary
            // as typed errors instead of poisoning the whole process.
            let mut all = Vec::with_capacity(spans.len());
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
            Ok(inner) => inner,
            // A shard that panicked after its handle was consumed still
            // surfaces through the scope result; attribute it there.
            Err(payload) => Err(CoreError::TrainingWorkerPanicked {
                shard: 0,
                cause: crate::error::panic_message(payload),
            }),
        }
    }

    /// Forward and backward of one tape group — `samples`, the minibatch's
    /// samples `first..` — gradients into a private buffer. The VAE loss is
    /// the group's rows' mean scaled by `samples / batch`, and the node loss
    /// the group's node rows' mean scaled by `node rows / total_aux`, so the
    /// merged groups give the minibatch's losses: the mean over its `batch`
    /// samples and over its `total_aux` node rows.
    fn train_group(
        &self,
        samples: &[&FeaturizedQep],
        first: usize,
        eps: Tensor,
        batch: usize,
        total_aux: usize,
    ) -> Result<GroupGrad, CoreError> {
        let n = samples.len();
        let mut targets = Vec::with_capacity(3 * n);
        for (j, fq) in samples.iter().enumerate() {
            targets.extend(fq.target.ok_or(CoreError::MissingTarget { index: first + j })?);
        }
        let mut g = Graph::new(&self.store);
        let (h1, joint, nodes, pass) = self.encode_group(&mut g, samples);
        let targets = g.constant(Tensor::from_vec(n, 3, targets));
        let eps: Vec<&[f32]> = (0..n).map(|r| eps.row_slice(r)).collect();
        let out = self.vae.forward(&mut g, &h1, Some(&eps), true);
        let (mean_total, _recon, pred, kl) =
            self.vae.loss(&mut g, &out, joint, targets, self.config.beta);
        let mut total = g.scale(mean_total, n as f32 / batch as f32);
        if self.config.node_loss_weight > 0.0 && total_aux > 0 {
            let mut truths: Vec<(usize, [f32; 3])> = Vec::new();
            for (s, fq) in samples.iter().enumerate() {
                let Some(fq_truths) = &fq.truths else { continue };
                truths.extend(pass.tape_rows(s).into_iter().zip(fq_truths.iter().copied()));
            }
            if !truths.is_empty() {
                let d = self.config.data_vec_dim();
                let rows = truths.iter().map(|&(r, _)| Row::Of(&nodes, r));
                let rows = g.gather(truths.len(), self.plan_enc.out_dim(), rows);
                let est = g.concat(&[(&rows, d..d + 3)]);
                // Node estimate slots carry z/5 (see featurize::ESTIMATE_SCALE);
                // rescale before comparing against raw z-scored truths.
                let est = g.scale(est, 1.0 / crate::featurize::ESTIMATE_SCALE);
                let t: Vec<f32> = truths.iter().flat_map(|&(_, t)| t).collect();
                let t = g.constant(Tensor::from_vec(truths.len(), 3, t));
                let node_loss = g.mse(est, t);
                let share = truths.len() as f32 / total_aux as f32;
                let weighted = g.scale(node_loss, self.config.node_loss_weight as f32 * share);
                total = g.add(total, weighted);
            }
        }
        let p = g.value(out.predictions);
        let predictions = (0..n).map(|r| [p.get(r, 0), p.get(r, 1), p.get(r, 2)]).collect();
        // `vae.loss` means over the group's rows; report per-sample sums.
        let pred = g.value(pred).get(0, 0) as f64 * n as f64;
        let kl = g.value(kl).get(0, 0) as f64 * n as f64;
        let (loss, buf) = g.backward(total);
        Ok(GroupGrad { buf, loss: loss as f64, pred, kl, predictions })
    }

    /// Every tape group's loss, gradients and predictions for the minibatch
    /// `qeps`, cut into consecutive groups of `lens` samples, sample `i`
    /// drawing latent noise row `i` of `eps`: what one training step runs
    /// before [`merge_groups`], with `lens` in place of the minibatch's
    /// two halves. Featurizes through a fresh [`FeatSession`].
    ///
    /// # Errors
    /// [`CoreError::MissingTarget`] when a QEP carries no ground truth.
    ///
    /// # Panics
    /// Before a fit (no normalizer), or when `lens` does not cover `qeps`.
    pub fn minibatch_groups(
        &self,
        qeps: &[&Qep],
        eps: &Tensor,
        lens: &[usize],
    ) -> Result<Vec<GroupGrad>, CoreError> {
        let mut sess = FeatSession::new();
        let feats: Vec<FeaturizedQep> =
            qeps.iter().map(|q| self.featurize_qep_in(&mut sess, q)).collect();
        let refs: Vec<&FeaturizedQep> = feats.iter().collect();
        self.group_grads(&refs, eps, lens)
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
    /// encoder and the attention's keyed query (`W_q`, then `W_k`
    /// transposed) run once here, on the serving executor; each candidate
    /// plan then only pays for the plan-encoder rows and attention states
    /// of subtrees no earlier candidate had, for reading its root's
    /// context, and for the VAE head — a search builds one context per
    /// query and scores every candidate through it.
    pub fn query_context(&self, query: &Query) -> QueryContext {
        self.query_context_reusing(query, NodeMemo::default())
    }

    /// [`Self::query_context`] on a recycled memo allocation (a planner
    /// session's); [`QueryContext::finish`] hands it back.
    pub(crate) fn query_context_reusing(&self, query: &Query, mut memo: NodeMemo) -> QueryContext {
        let qf = self.feat.query_features(query);
        let rows = with_thread_scratch(|arena| {
            let e = &mut Scratch { store: &self.store, arena };
            let emb = self.query_enc.forward(e, &[&qf]);
            let keyed = self.config.use_attention.then(|| {
                let keyed = self.attn.query(e, &emb);
                let owned = keyed.clone();
                e.recycle(keyed);
                owned
            });
            let owned = emb.clone();
            e.recycle(emb);
            QueryRows { emb: owned, keyed }
        });
        memo.init(self.memo_layout(), ScanOp::ALL.len() * query.relations.len());
        QueryContext {
            rows: Arc::new(rows),
            query_key: query_key(query),
            plan_cache: PlanFeatCache::new(query),
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
    /// model's one scoring call.
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
    /// call, each distinct subtree encoded and merged once, one `[K, d]`
    /// VAE pass.
    ///
    /// `out[p]` is **bitwise identical** to
    /// `self.predict_with_context_in(sess, query, plans[p], ctx)` — both are
    /// rows of the same forward, whose layers preserve per-row reduction
    /// order (see the FP-order contract of `qpseeker_nn::pack`),
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
    pub fn risk_eps(&self, samples: usize, seed: u64) -> Arc<Tensor> {
        Arc::new(Initializer::new(seed).standard_normal(samples, self.config.vae_latent))
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
        eps: &Arc<Tensor>,
        out: &mut Vec<(f64, f64)>,
    ) {
        out.clear();
        out.extend(self.score_plans(sess, query, plans, ctx, Some(eps)).risk());
    }

    /// Featurize → [`Self::encode`] → [`Self::head`], on this thread: what
    /// every public `predict*` wrapper is a column pick of.
    ///
    /// # Panics
    /// When `ctx` was built for another query, or a scan of a plan is not a
    /// relation of `query` ([`Featurizer::featurize_batch_into`]).
    fn score_plans(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plans: &[&PlanNode],
        ctx: &mut QueryContext,
        eps: Option<&Arc<Tensor>>,
    ) -> FusedOutcome {
        assert!(
            ctx.query_key == query_key(query),
            "query {:?} scored through a QueryContext built for another query",
            query.id
        );
        let mut int = ctx.interner(self, sess, query);
        let roots: Vec<u32> = plans.iter().map(|p| int.plan(p)).collect();
        let (encoded, sub) = self.encode_local(self.submission(ctx, &roots, eps));
        let outcome = self.head(&sub, encoded);
        ctx.reclaim(sub);
        outcome
    }

    /// The fitted target normalizer.
    pub(crate) fn norm(&self) -> &TargetNormalizer {
        self.normalizer.as_ref().expect("model must be fitted before predict")
    }

    /// Candidate plans of one query, named by their root node ids in `ctx`,
    /// in the scoring row contract: one featurized tree per plan, the
    /// query's rows (embedding and projected `Q`), the context's node memo,
    /// and — for risk scoring — the seeded eps block. Featurization ran
    /// when the ids were interned, against the caller's own caches; only
    /// the tensor pipeline sits behind [`Self::encode`] and [`Self::head`].
    /// The memo comes from `ctx` and goes back through
    /// [`QueryContext::reclaim`] once scored, so no subtree is encoded
    /// twice.
    pub(crate) fn submission(
        &self,
        ctx: &mut QueryContext,
        roots: &[u32],
        eps: Option<&Arc<Tensor>>,
    ) -> Submission {
        let nodes = roots.iter().map(|&id| Arc::clone(ctx.plan_cache.node(id))).collect();
        let key = BucketKey {
            model: self as *const QPSeeker as usize,
            samples: eps.map_or(0, |e| e.rows()),
        };
        let memo = std::mem::take(&mut ctx.memo);
        Submission { key, nodes, query: Arc::clone(&ctx.rows), eps: eps.cloned(), memo }
    }

    /// Encode one submission on the calling thread — exactly what a
    /// one-member [`EvalBroker`](crate::evalbroker::EvalBroker) flush would
    /// run. Returns its encoded roots, for [`Self::head`], and the
    /// submission, for [`QueryContext::reclaim`].
    pub(crate) fn encode_local(&self, mut sub: Submission) -> (Encoded, Submission) {
        let mut encoded = self.encode(std::slice::from_mut(&mut sub));
        (encoded.pop().expect("one encoding per submission"), sub)
    }

    /// **The** serving path, first phase: every candidate plan the system
    /// ever scores — one `predict`, a search's batch, a broker bucket fused
    /// from many sessions — is a row here. A row is (featurized tree, its
    /// query's rows, its query's memo), and one call runs, on the scratch
    /// executor and across every submission, the part of the forward whose
    /// GEMMs fusion widens and which writes the memos:
    ///
    /// 1. the plan LSTM over the nodes no memo holds, each node id once per
    ///    submission, one `rows = m` step per level, children first
    ///    ([`PlanEncoder::forward`]);
    /// 2. the new rows' attention states — one value GEMM, each row's logit
    ///    against its query's keyed row (computed once, by
    ///    [`Self::query_context`]), merged with its children's states in
    ///    level order ([`Self::subtree_states`]);
    /// 3. both into the memos as far as their budgets admit
    ///    ([`LevelPass::commit`]).
    ///
    /// Returns, per submission in order, where each candidate's root now
    /// lives — its memo, or the call's shared [`Block`] — for
    /// [`Self::head`], which runs the rest of the forward on the thread of
    /// the submission's owner. A broker's flush runs only this phase under
    /// its lock.
    pub(crate) fn encode(&self, subs: &mut [Submission]) -> Vec<Encoded> {
        let layout = self.memo_layout();
        // Split every submission into its read-only rows and its memo.
        let mut pass = LevelPass::default();
        let mut memos: Vec<&mut NodeMemo> = Vec::with_capacity(subs.len());
        let mut queries: Vec<&QueryRows> = Vec::with_capacity(subs.len());
        let mut counts = Vec::with_capacity(subs.len());
        for (si, sub) in subs.iter_mut().enumerate() {
            let Submission { nodes, query, memo, .. } = sub;
            for node in nodes.iter() {
                pass.add(si, node, memo);
            }
            queries.push(query);
            counts.push(nodes.len());
            memos.push(memo);
        }
        let block = with_thread_scratch(|arena| {
            let e = &mut Scratch { store: &self.store, arena };
            let (fresh, own) = self.plan_enc.forward(e, &pass, &memos);
            let states = (layout.heads > 0).then(|| {
                let keyed = |s: u32| {
                    Row::Const(queries[s as usize].keyed.as_ref().expect("attention keys Q").data())
                };
                self.subtree_states(e, &pass, &fresh.h, keyed, &memos)
            });
            Arc::new(Block { h: fresh.h, c: fresh.c, states, own })
        });
        pass.commit(&mut memos, &block);
        let mut roots = (0..pass.len()).map(|c| match pass.root(c) {
            NodeRef::Memo { entry, .. } => Root::Memo(entry),
            NodeRef::Fresh(row) => Root::Block(pass.pos(row)),
        });
        counts
            .iter()
            .map(|&count| Encoded {
                block: Arc::clone(&block),
                roots: roots.by_ref().take(count).collect(),
            })
            .collect()
    }

    /// **The** serving path, second phase: one submission's candidates from
    /// their roots, which [`Self::encode`] placed in the submission's memo
    /// or in `encoded`'s block — each row's first VAE encoder layer
    /// ([`Self::embed`]: its root's context through attention's output
    /// layer folded into `enc₁`), the rest of the VAE over every row
    /// through its folds, and the decoded predictions, or each row's
    /// `(mean, sigma)` over the submission's eps block.
    ///
    /// Every layer of both phases preserves per-row FP reduction order, so
    /// a row's result does not depend on what it is scored with, nor on
    /// whether its nodes were encoded now or by an earlier call: scalar is
    /// one row, a batch is K rows sharing one query's rows, mean scoring is
    /// "no eps".
    ///
    /// A block no memo admitted a row of goes back to the arena of the
    /// thread whose head reads its roots last.
    pub(crate) fn head(&self, sub: &Submission, encoded: Encoded) -> FusedOutcome {
        let norm = self.norm();
        let samples = sub.key.samples;
        let Encoded { block, roots } = encoded;
        let (memo, n) = (&sub.memo, roots.len());
        let plans: Vec<&FeatNode> = sub.nodes.iter().map(|n| &**n).collect();
        with_thread_scratch(|arena| {
            let e = &mut Scratch { store: &self.store, arena };
            let (h1, _) = self.embed(
                e,
                &plans,
                false,
                |_| Row::Const(sub.query.emb.data()),
                |c| match roots[c] {
                    Root::Memo(entry) => Row::Const(memo.h(entry)),
                    Root::Block(row) => Row::Of(&block.h, row),
                },
                |c| match (roots[c], &block.states) {
                    (Root::Memo(entry), _) => Row::Const(memo.state(entry)),
                    (Root::Block(row), Some(states)) => Row::Of(states, row),
                    (Root::Block(_), None) => unreachable!("attention implies merged states"),
                },
            );
            // Every root is read: a block no memo admitted a row of and no
            // other head holds is scratch again.
            if let Some(block) = Arc::into_inner(block) {
                block.into_tensors().for_each(|t| e.recycle(t));
            }
            let eps = sub.eps.as_ref().map(|eps| vec![eps.data(); n]);
            // `[n, 3]`; under sampling sample-major `[S*n, 3]`, row r's
            // sample si at `si*n + r`.
            let out = self.vae.forward(e, &h1, eps.as_deref(), false);
            [h1].into_iter().chain(out.h).for_each(|t| e.recycle(t));
            let p = out.predictions;
            let decode = |r: usize| {
                let raw = norm.decode([p.get(r, 0), p.get(r, 1), p.get(r, 2)]);
                Prediction { cardinality: raw[0], cost: raw[1], runtime_ms: raw[2] }
            };
            let outcome = if samples == 0 {
                FusedOutcome::Mean((0..n).map(decode).collect())
            } else {
                let mut times = Vec::with_capacity(samples);
                FusedOutcome::Risk(
                    (0..n)
                        .map(|r| {
                            times.clear();
                            times.extend((0..samples).map(|si| decode(si * n + r).runtime_ms));
                            mean_sigma(&times)
                        })
                        .collect(),
                )
            };
            e.recycle(p);
            outcome
        })
    }

    /// Prediction through the training path: the model's one forward,
    /// recorded on the autodiff tape over fresh rows only (no memo, no
    /// batching across queries). Bitwise equal to [`Self::predict`] on
    /// every tier, which checks the serving path's memo, batching and
    /// attention-state reuse against it. Never a serving path; featurizes through a fresh
    /// [`FeatSession`] per call, as does [`Self::latent_mu`].
    pub fn predict_tape(&self, query: &Query, plan: &PlanNode) -> Prediction {
        let (preds, _mu) = self.forward_tape(query, plan);
        let raw = self.normalizer.as_ref().expect("fitted: featurized above").decode(preds);
        Prediction { cardinality: raw[0], cost: raw[1], runtime_ms: raw[2] }
    }

    /// The 32-d latent mean of a QEP (Fig. 5's latent space).
    pub fn latent_mu(&self, query: &Query, plan: &PlanNode) -> Vec<f32> {
        self.forward_tape(query, plan).1
    }

    /// The tape forward of one unlabeled QEP as a one-sample group, with
    /// zero latent noise: normalized predictions and the latent mean.
    fn forward_tape(&self, query: &Query, plan: &PlanNode) -> ([f32; 3], Vec<f32>) {
        let norm = self.norm();
        let fq = self.feat.featurize(&mut FeatSession::new(), query, plan, None, norm);
        let mut g = Graph::new(&self.store);
        let (h1, ..) = self.encode_group(&mut g, &[&fq]);
        let out = self.vae.forward(&mut g, &h1, None, false);
        let p = g.value(out.predictions);
        let preds = [p.get(0, 0), p.get(0, 1), p.get(0, 2)];
        let h = self.vae.encode(&mut g, &h1);
        let mu = g.value(h).row_slice(0)[..self.config.vae_latent].to_vec();
        (preds, mu)
    }
}

/// A query's rows every candidate plan of it reads: its embedding `[1,
/// query_dim]` (the concatenation fallback's query half), and with
/// attention on its keyed query `[1, heads·plan_node_out]`
/// ([`MultiHeadCrossAttention::query`]), every head's side by side.
/// Computed once per query, shared by its submissions.
pub(crate) struct QueryRows {
    emb: Tensor,
    keyed: Option<Tensor>,
}

/// What [`QPSeeker::encode`] leaves one submission for [`QPSeeker::head`]:
/// the encoding call's outputs, shared by every submission of the call, and
/// where each candidate's root lives.
pub(crate) struct Encoded {
    block: Arc<Block>,
    /// Per candidate, in order.
    roots: Vec<Root>,
}

/// Where a candidate's root `h` and attention state are, once encoded.
#[derive(Clone, Copy)]
enum Root {
    /// An entry of its submission's memo.
    Memo(u32),
    /// A row of the encoding call's [`Block`].
    Block(usize),
}

/// Cached per-query inference state: the query's rows, the plan
/// featurization cache (which numbers the query's distinct subtrees) and
/// the memo of subtrees encoded so far, all shared by every candidate plan
/// of one query. Built by [`QPSeeker::query_context`]; bound to that query
/// — scoring another one through it panics.
pub struct QueryContext {
    rows: Arc<QueryRows>,
    /// [`query_key`] of the query the context was built for.
    query_key: u64,
    plan_cache: PlanFeatCache,
    /// Encoded subtrees, keyed by the ids `plan_cache` assigns. Lent to
    /// each submission and handed back with its rows.
    memo: NodeMemo,
}

impl QueryContext {
    /// `model`'s featurizer bound to the context's query and cache.
    pub(crate) fn interner<'a>(
        &'a mut self,
        model: &'a QPSeeker,
        sess: &'a mut FeatSession,
        query: &'a Query,
    ) -> Interner<'a> {
        let norm = model.norm();
        Interner { feat: &model.feat, sess, query, norm, cache: &mut self.plan_cache }
    }

    /// Take back a scored submission's memo.
    pub(crate) fn reclaim(&mut self, sub: Submission) {
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

/// The tape groups of a minibatch of `b` samples: its first `⌈b/2⌉`
/// samples, then the other `⌊b/2⌋` (none when `b` is 1). A function of `b`
/// alone, so the training FP order does not depend on `train_threads`; two
/// threads run one group each.
fn tape_groups(b: usize) -> Vec<usize> {
    let first = b.div_ceil(2);
    [first, b - first].into_iter().filter(|&n| n > 0).collect()
}

/// One tape group's share of a training step: one tape's forward and
/// backward over some of a minibatch's samples
/// ([`QPSeeker::minibatch_groups`]).
#[derive(Debug)]
pub struct GroupGrad {
    /// The group's parameter gradients.
    pub buf: GradBuffer,
    /// The group's part of the minibatch loss (the parts sum to it).
    pub loss: f64,
    /// Prediction MSE, summed over the group's samples.
    pub pred: f64,
    /// KL, summed over the group's samples.
    pub kl: f64,
    /// Normalized (cardinality, cost, runtime) prediction of each sample,
    /// under its latent noise.
    pub predictions: Vec<[f32; 3]>,
}

/// Add every group's gradients into `store`, in group order, and sum the
/// groups' loss, prediction MSE and KL in the same order.
pub fn merge_groups(groups: &[GroupGrad], store: &mut ParamStore) -> (f64, f64, f64) {
    let (mut loss, mut pred, mut kl) = (0.0, 0.0, 0.0);
    for group in groups {
        group.buf.merge_into(store);
        loss += group.loss;
        pred += group.pred;
        kl += group.kl;
    }
    (loss, pred, kl)
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

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_engine::optimizer::PgOptimizer;
    use qpseeker_engine::query::{CmpOp, ColRef, Filter, JoinPred, RelRef};
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

    /// `predict_tape` ≡ `predict`, bit for bit, for mean scoring and for
    /// risk scoring: the tape's sampled forward of each plan alone, its
    /// runtimes reduced as serving reduces them, is the pair serving's
    /// batch gives — through the folds on both sides, and through the
    /// concatenation fallback (single-node plans, and every plan with
    /// attention off), and with a one-layer VAE (`vae_layers = 0`).
    #[test]
    fn tape_scores_bitwise_equal_serving_for_mean_and_risk() {
        let db = Arc::new(imdb::generate(0.05, 1));
        let qeps = tiny_qeps(&db, 12);
        let refs: Vec<&Qep> = qeps.iter().collect();
        assert!(qeps.iter().any(|q| q.plan.len() == 1), "no single-node plan");
        for (use_attention, vae_layers) in [(true, 2), (false, 2), (true, 0)] {
            let config = ModelConfig { use_attention, vae_layers, ..ModelConfig::small() };
            let mut model = QPSeeker::new(&db, config);
            model.fit(&refs).expect("training succeeds");
            tape_scores_equal_serving(&model, &qeps);
        }
    }

    fn tape_scores_equal_serving(model: &QPSeeker, qeps: &[Qep]) {
        let eps = model.risk_eps(4, 0x5eed);
        let bits = |p: Prediction| [p.cardinality, p.cost, p.runtime_ms].map(f64::to_bits);
        for qep in qeps {
            let (query, plan) = (&qep.query, &qep.plan);
            assert_eq!(bits(model.predict_tape(query, plan)), bits(model.predict(query, plan)));
            let mut served = Vec::new();
            let mut ctx = model.query_context(query);
            let mut sess = FeatSession::new();
            model.predict_risk_batch_with_context_in(
                &mut sess,
                query,
                &[plan],
                &mut ctx,
                &eps,
                &mut served,
            );
            let fq = model.feat.featurize(&mut FeatSession::new(), query, plan, None, model.norm());
            let mut g = Graph::new(&model.store);
            let (h1, ..) = model.encode_group(&mut g, &[&fq]);
            let out = model.vae.forward(&mut g, &h1, Some(&[eps.data()]), false);
            let p = g.value(out.predictions);
            let times: Vec<f64> = (0..eps.rows())
                .map(|s| model.norm().decode([p.get(s, 0), p.get(s, 1), p.get(s, 2)])[2])
                .collect();
            let (mean, sigma) = mean_sigma(&times);
            assert_eq!(
                (served[0].0.to_bits(), served[0].1.to_bits()),
                (mean.to_bits(), sigma.to_bits()),
                "query {}",
                query.id
            );
        }
    }

    /// A scan that is not a relation of the query — an alias the query does
    /// not bind, a bound alias over another table, or a bound alias under
    /// other filters than the query's — would read or write a relation's
    /// cached features, so it is refused, on a cold context and on a warm
    /// one alike, and the refusal leaves the context scoring the query's own
    /// plan bitwise as before.
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
        q.filters = vec![Filter {
            col: ColRef::new("title", "production_year"),
            op: CmpOp::Gt,
            value: 2000.0,
        }];
        use qpseeker_engine::plan::{JoinOp, ScanOp};
        let own = PlanNode::join(
            &q,
            JoinOp::HashJoin,
            PlanNode::scan(&q, "title", ScanOp::SeqScan),
            PlanNode::scan(&q, "movie_info", ScanOp::SeqScan),
        );
        let scan = |alias: &str, table: &str, filters: &[Filter]| PlanNode::Scan {
            alias: alias.into(),
            table: table.into(),
            op: ScanOp::SeqScan,
            filters: filters.to_vec(),
        };
        let with_mi = |leaf: PlanNode| PlanNode::Join {
            op: JoinOp::HashJoin,
            left: Arc::new(PlanNode::scan(&q, "movie_info", ScanOp::SeqScan)),
            right: Arc::new(leaf),
            preds: Default::default(),
        };
        let foreign = [
            ("unbound", with_mi(scan("cast_info", "cast_info", &[]))),
            ("mistyped", with_mi(scan("title", "cast_info", &q.filters))),
            ("re-filtered", scan("title", "title", &[])),
        ];
        let mut feat = FeatSession::new();
        let bits = |p: Prediction| [p.cardinality, p.cost, p.runtime_ms].map(f64::to_bits);
        let want = bits(model.predict(&q, &own));
        let mut warm = model.query_context(&q);
        assert_eq!(bits(model.predict_with_context_in(&mut feat, &q, &own, &mut warm)), want);
        for (what, plan) in &foreign {
            let mut cold = model.query_context(&q);
            for (state, ctx) in [("cold", &mut cold), ("warm", &mut warm)] {
                let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    model.predict_with_context_in(&mut feat, &q, plan, ctx)
                }));
                let cause = crate::error::panic_message(refused.expect_err(what));
                assert!(cause.contains("is not a relation of query q"), "{what}: {cause}");
                let again = bits(model.predict_with_context_in(&mut feat, &q, &own, ctx));
                assert_eq!(again, want, "a refused {what} leaf moved a {state} context's scores");
            }
        }
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
