//! Cross-request continuous batching: a shared candidate-eval broker.
//!
//! Every serving worker scores candidate plans in tiny private batches
//! (`batch_eval` rollouts, beam completions, risk-sample blocks), which
//! leaves the wide GEMM tiles of the fused kernels mostly empty under
//! concurrent load. The `EvalBroker` is a shared scoring service: worker
//! sessions — every worker of a lane's pool, across every tenant lane of a
//! [`crate::tenant::MultiTenantSupervisor`] — submit
//! their candidate batches to the broker, which packs rows from *different*
//! requests into one large fused plan-encoder pass.
//!
//! # Why fusing is plan-safe
//!
//! There is one scoring forward, `QPSeeker::encode` then `QPSeeker::head`,
//! and every row of it is bitwise independent of the rows it is grouped
//! with (the per-row FP reduction-order contract in `qpseeker_nn`), so
//! batch composition cannot change any score, and therefore cannot change
//! any plan. Broker-off, a session runs both phases on its own submission;
//! broker-on, the flush leader runs `encode` — the plan encoder and the
//! attention states, whose level GEMMs fusion widens, and the memo writes —
//! on a bucket of them, and each member then runs `head` (the VAE over its
//! own candidates) on its own thread. Broker-on serving is bitwise
//! identical to broker-off serving by construction — the broker moves
//! *where* the encoding runs, never *what* it computes, and
//! `EvalBroker::submit` is synchronous, so it also never moves *when* a
//! result is observed by the search.
//!
//! # Determinism of batch composition
//!
//! Counters (fused batches, occupancy, flush reasons) must also be
//! schedule-independent. Three rules make the broker's behaviour a pure
//! function of its inputs:
//!
//! 1. **Static membership.** Every member is registered up front, before
//!    any worker thread starts, and stays live until its run completes
//!    (members retire through a `Drop` guard, so a panic cannot leak
//!    liveness). With the supervisor's static round-robin job partition,
//!    each member's *sequence* of submissions is deterministic.
//! 2. **Rounds as global sequence points.** A flush round fires exactly
//!    when every live member is either parked inside `submit` or done —
//!    the transition into that state is serialized under the broker lock,
//!    and the pending set at that point is `{next submission of each
//!    unreleased live member}`, an invariant of the partial order rather
//!    than of the thread schedule. Members computing locally (featurizing,
//!    expanding the search tree, serving a cache hit) are neither parked
//!    nor done; rounds simply wait for them, and since all such work
//!    terminates there is no deadlock.
//! 3. **Deterministic flush policy.** At each round, buckets at or above
//!    `batch_target` rows flush (reason *size*); smaller buckets are held
//!    up to `batch_window_us / ROUND_TICK_US` rounds — the virtual
//!    micro-batch window — then flush (reason *deadline*). If nothing else
//!    flushed, the oldest bucket flushes so every round releases at least
//!    one member (forced progress, counted as a deadline flush). Ties
//!    break on `(birth round, lowest member id)` — never on arrival order.
//!
//! # Bucketing
//!
//! Rows fuse when they can share one encoding call: same model (same epoch —
//! hot-swapped models never share a bucket) and same scoring kind (mean vs
//! `S`-sample risk). Tree shape does not matter: the plan encoder runs
//! level-wise over whatever nodes the bucket's memos lack, and attention
//! merges those nodes' subtree states in the same levels. Each submission
//! carries its own query's node memo, so the flush leader encodes only
//! subtrees no submitter has seen, and hands every memo back with its
//! rows; the memos that admit rows of the fused call share its one block
//! of outputs.
//!
//! # Backpressure and fault containment
//!
//! Each member has at most one submission in flight and blocks until it is
//! encoded, so total pending work is bounded by the member count — a
//! stalled submitter holds back at most the buckets it belongs to, and the
//! forced-progress rule keeps every other bucket draining. The member that
//! completes a round runs the fused encodings itself (there is no broker
//! thread); each bucket's encoding runs inside a panic boundary, and a
//! panic poisons only that bucket's submissions — the affected members
//! re-raise inside their own per-attempt boundaries and burn only their
//! own retry budgets. A panic in a member's `head` unwinds on that
//! member's own thread, inside its own attempt boundary, and touches no
//! other member. No cross-request fate-sharing beyond the batch.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::encoder::NodeMemo;
use crate::featurize::FeatNode;
use crate::metrics::ServeCounters;
use crate::model::{Encoded, Prediction, QPSeeker, QueryRows};
use qpseeker_nn::prelude::Tensor;

/// Virtual duration of one flush round, in microseconds. The broker has no
/// real timer — rounds are its clock — so `batch_window_us` is quantized
/// to `batch_window_us / ROUND_TICK_US` hold rounds.
pub(crate) const ROUND_TICK_US: u64 = 50;

/// Micro-batch window configuration for the `EvalBroker`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerConfig {
    /// Rows at which a bucket flushes immediately (a *size* flush).
    pub batch_target: usize,
    /// Micro-batch deadline on the virtual round clock: a sub-target
    /// bucket is held at most `batch_window_us / ROUND_TICK_US` rounds
    /// before it flushes anyway (a *deadline* flush).
    pub batch_window_us: u64,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        Self { batch_target: 64, batch_window_us: 200 }
    }
}

/// What may share a fused encoding: same model instance (pointer identity —
/// distinct epochs are distinct allocations) and same scoring kind
/// (`samples == 0` is mean scoring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct BucketKey {
    pub(crate) model: usize,
    pub(crate) samples: usize,
}

/// One candidate-scoring request — the row contract of `QPSeeker::encode`
/// and `QPSeeker::head`, built by `QPSeeker::submission`: pre-featurized
/// plans, the per-query rows the forward needs (shared, not copied), and
/// the query's node memo.
/// Featurization stays submitter-side (it uses the session's own caches),
/// so scoring — local or brokered — only ever runs the tensor pipeline.
/// The whole submission goes back to its submitter, which returns the row
/// buffer and the (now larger) memo to its `QueryContext`.
pub(crate) struct Submission {
    pub(crate) key: BucketKey,
    /// One featurized tree per candidate plan.
    pub(crate) nodes: Vec<Arc<FeatNode>>,
    /// The submitting query's embedding and projected `Q`, shared with its
    /// `QueryContext`.
    pub(crate) query: Arc<QueryRows>,
    /// Seeded latent draws `[samples, latent]` when risk scoring, shared
    /// with the submitter.
    pub(crate) eps: Option<Arc<Tensor>>,
    /// The submitting query's encoded subtrees, keyed by the node ids in
    /// `nodes`.
    pub(crate) memo: NodeMemo,
}

/// Result of one submission, in candidate order.
pub(crate) enum FusedOutcome {
    Mean(Vec<Prediction>),
    /// `(mean, sigma)` per candidate.
    Risk(Vec<(f64, f64)>),
}

impl FusedOutcome {
    /// The per-candidate predictions of a mean-scoring submission.
    pub(crate) fn mean(self) -> Vec<Prediction> {
        match self {
            Self::Mean(preds) => preds,
            Self::Risk(_) => unreachable!("mean submission answered with risk result"),
        }
    }

    /// The per-candidate `(mean, sigma)` of a risk-scoring submission.
    pub(crate) fn risk(self) -> Vec<(f64, f64)> {
        match self {
            Self::Risk(stats) => stats,
            Self::Mean(_) => unreachable!("risk submission answered with mean result"),
        }
    }
}

struct Slot {
    pending: Option<Submission>,
    /// The submission's encoded roots, or the message of the panic that
    /// poisoned its bucket's encoding, with the submission.
    outcome: Option<(Result<Encoded, String>, Submission)>,
    /// This member's private wakeup: a flush notifies exactly the members
    /// it released. A shared condvar would wake every parked member per
    /// round (a thundering herd that, on few cores, costs more in context
    /// switches than fusion saves in GEMM fixed cost).
    cv: Arc<Condvar>,
}

struct BrokerState {
    slots: Vec<Slot>,
    /// Registered members not yet retired.
    live: usize,
    /// Members parked in [`EvalBroker::submit`] whose outcome is unset.
    blocked: usize,
    /// Completed flush rounds — the broker's virtual micro-batch clock.
    round: u64,
    /// Birth round of every bucket with pending rows.
    buckets: BTreeMap<BucketKey, u64>,
    /// Occupancy and flush accounting: the `fused_*` and `broker_flush_*`
    /// fields, drained by the broker's owner into its serving tally.
    stats: ServeCounters,
}

/// The shared scoring service. Passive: there is no broker thread — the
/// member whose submit (or retire) completes a round runs that round's
/// fused encodings (`QPSeeker::encode`) under the broker lock, while every
/// other pending member is parked on its condvar. Each released member
/// then runs its own `QPSeeker::head` on its own thread, outside the lock
/// and alongside the leader's.
pub(crate) struct EvalBroker {
    cfg: BrokerConfig,
    hold_rounds: u64,
    state: Mutex<BrokerState>,
}

/// A registered seat on the broker. Held by one worker session at a time;
/// dropping the handle retires the seat (so a panicking worker can never
/// wedge the pool by leaking liveness). Not `Clone` — seat identity is
/// what makes the flush rounds deterministic.
pub(crate) struct BrokerMember {
    broker: Arc<EvalBroker>,
    id: usize,
}

impl Drop for BrokerMember {
    fn drop(&mut self) {
        self.broker.retire(self.id);
    }
}

impl std::fmt::Debug for BrokerMember {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerMember").field("id", &self.id).finish()
    }
}

impl BrokerMember {
    /// Park `sub` until a round encodes its bucket
    /// (`QPSeeker::encode`), and return its encoded roots, for the
    /// caller's own `QPSeeker::head`, and the submission.
    ///
    /// # Panics
    /// Re-raises a poisoned bucket's failure — inside the submitter's own
    /// attempt boundary, so only its retry budget burns.
    pub(crate) fn submit(&self, sub: Submission) -> (Encoded, Submission) {
        match self.broker.submit(self.id, sub) {
            (Ok(encoded), sub) => (encoded, sub),
            (Err(msg), _) => panic!("fused candidate evaluation failed: {msg}"),
        }
    }
}

impl EvalBroker {
    pub(crate) fn new(cfg: BrokerConfig) -> Arc<Self> {
        let hold_rounds = (cfg.batch_window_us / ROUND_TICK_US).max(1);
        Arc::new(Self {
            cfg,
            hold_rounds,
            state: Mutex::new(BrokerState {
                slots: Vec::new(),
                live: 0,
                blocked: 0,
                round: 0,
                buckets: BTreeMap::new(),
                stats: ServeCounters::default(),
            }),
        })
    }

    /// Register `n` member seats. Must be called for *every* participating
    /// worker before any of them starts planning — dynamic registration
    /// would make round membership depend on thread scheduling.
    pub(crate) fn register_members(self: &Arc<Self>, n: usize) -> Vec<BrokerMember> {
        let mut st = self.lock();
        debug_assert_eq!(st.blocked, 0, "register members before workers start");
        let base = st.slots.len();
        st.slots.extend((0..n).map(|_| Slot {
            pending: None,
            outcome: None,
            cv: Arc::new(Condvar::new()),
        }));
        st.live += n;
        drop(st);
        (0..n).map(|i| BrokerMember { broker: Arc::clone(self), id: base + i }).collect()
    }

    /// Drain the accumulated occupancy/flush stats.
    pub(crate) fn take_stats(&self) -> ServeCounters {
        std::mem::take(&mut self.lock().stats)
    }

    fn lock(&self) -> MutexGuard<'_, BrokerState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn submit(&self, id: usize, sub: Submission) -> (Result<Encoded, String>, Submission) {
        let mut st = self.lock();
        debug_assert!(st.slots[id].pending.is_none() && st.slots[id].outcome.is_none());
        let round = st.round;
        st.buckets.entry(sub.key).or_insert(round);
        st.slots[id].pending = Some(sub);
        st.blocked += 1;
        // This submit may be the transition into "every live member is
        // parked or done" — if so, this member leads the round.
        if st.blocked == st.live {
            self.run_round(&mut st);
        }
        let cv = Arc::clone(&st.slots[id].cv);
        while st.slots[id].outcome.is_none() {
            st = match cv.wait(st) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        let answered = st.slots[id].outcome.take().expect("checked above");
        drop(st);
        answered
    }

    fn retire(&self, id: usize) {
        let mut st = self.lock();
        debug_assert!(st.slots[id].pending.is_none(), "retired mid-submit");
        st.live -= 1;
        // Retirement can complete the round condition for the remaining
        // members; the departing member leads that round on its way out.
        if st.live > 0 && st.blocked == st.live {
            self.run_round(&mut st);
        }
    }

    /// One flush round: decide which buckets flush, encode each one's rows
    /// in one fused call, release their submitters. Runs with the broker
    /// lock held —
    /// every pending member is parked on the condvar, so nothing else can
    /// touch the state, and released members only resume once we notify.
    fn run_round(&self, st: &mut BrokerState) {
        st.round += 1;
        // Pending rows and lowest member id per bucket, in key order.
        let mut pending: BTreeMap<BucketKey, (usize, usize)> = BTreeMap::new();
        for (id, slot) in st.slots.iter().enumerate() {
            if let Some(sub) = &slot.pending {
                let e = pending.entry(sub.key).or_insert((0, id));
                e.0 += sub.nodes.len();
            }
        }
        debug_assert!(!pending.is_empty(), "round fired with no pending work");
        let mut to_flush: Vec<(u64, usize, BucketKey, FlushReason)> = Vec::new();
        for (&key, &(rows, min_id)) in &pending {
            let birth = st.buckets[&key];
            if rows >= self.cfg.batch_target {
                to_flush.push((birth, min_id, key, FlushReason::Size));
            } else if st.round - birth >= self.hold_rounds {
                to_flush.push((birth, min_id, key, FlushReason::Deadline));
            }
        }
        if to_flush.is_empty() {
            // Forced progress: nothing is ripe, but every live member is
            // waiting — flush the oldest bucket (lowest member id breaks
            // ties) so the round always releases someone.
            let (&key, &(_, min_id)) = pending
                .iter()
                .min_by_key(|(key, (_, min_id))| (st.buckets[*key], *min_id, **key))
                .expect("pending non-empty");
            to_flush.push((st.buckets[&key], min_id, key, FlushReason::Deadline));
        }
        // Deterministic execution order: oldest bucket first.
        to_flush.sort_unstable();
        for (_, _, key, reason) in to_flush {
            self.flush_bucket(st, key, reason);
        }
    }

    fn flush_bucket(&self, st: &mut BrokerState, key: BucketKey, reason: FlushReason) {
        let mut ids = Vec::new();
        let mut subs = Vec::new();
        for (id, slot) in st.slots.iter_mut().enumerate() {
            if slot.pending.as_ref().is_some_and(|s| s.key == key) {
                ids.push(id);
                subs.push(slot.pending.take().expect("checked above"));
            }
        }
        st.buckets.remove(&key);
        match reason {
            FlushReason::Size => st.stats.broker_flush_size += 1,
            FlushReason::Deadline => st.stats.broker_flush_deadline += 1,
        }
        // SAFETY: `key.model` was captured from a `&QPSeeker` inside
        // `QPSeeker::submission`, whose caller is — for every submission in
        // this bucket — still parked inside `submit` and holds that borrow
        // across the park. The model therefore outlives this flush, and the
        // reference is used only for the `encode` below, inside it: each
        // member runs its `head` itself, through its own borrow. A pointer
        // (not a lifetime) is used because different workers pin the model
        // through per-request `Arc`s with no common lifetime.
        let model = unsafe { &*(key.model as *const QPSeeker) };
        let fused = catch_unwind(AssertUnwindSafe(|| model.encode(&mut subs)));
        match fused {
            Ok(encoded) => {
                let rows: usize = subs.iter().map(|s| s.nodes.len()).sum();
                st.stats.fused_batches += 1;
                st.stats.fused_rows += rows;
                st.stats.fused_occupancy_max = st.stats.fused_occupancy_max.max(rows);
                for ((id, encoded), sub) in ids.iter().zip(encoded).zip(subs) {
                    st.slots[*id].outcome = Some((Ok(encoded), sub));
                }
            }
            Err(payload) => {
                // Poison exactly this bucket's submissions; each affected
                // member re-raises inside its own attempt boundary. A
                // memo the failed pass was writing is emptied, not trusted.
                let msg = crate::error::panic_message(payload);
                for (id, mut sub) in ids.iter().zip(subs) {
                    sub.memo = NodeMemo::default();
                    st.slots[*id].outcome = Some((Err(msg.clone()), sub));
                }
            }
        }
        st.blocked -= ids.len();
        for id in &ids {
            st.slots[*id].cv.notify_one();
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FlushReason {
    Size,
    Deadline,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::featurize::FeatSession;
    use proptest::prelude::*;
    use qpseeker_engine::inject::LeftDeepSpec;
    use qpseeker_engine::plan::{JoinOp, PlanNode, ScanOp};
    use qpseeker_engine::query::{ColRef, JoinPred, Query, RelRef};
    use qpseeker_storage::Database;
    use qpseeker_workloads::{synthetic, Qep, SyntheticConfig};
    use std::sync::OnceLock;

    fn shared_db() -> &'static Arc<Database> {
        static DB: OnceLock<Arc<Database>> = OnceLock::new();
        DB.get_or_init(|| Arc::new(qpseeker_storage::datagen::imdb::generate(0.04, 2)))
    }

    fn shared_model() -> &'static QPSeeker {
        static MODEL: OnceLock<QPSeeker> = OnceLock::new();
        MODEL.get_or_init(|| {
            let db = shared_db();
            let w = synthetic::generate(db, &SyntheticConfig { n_queries: 12, seed: 3 });
            let refs: Vec<&Qep> = w.qeps.iter().collect();
            let mut model = QPSeeker::new(db, ModelConfig::small());
            model.fit(&refs).expect("training succeeds");
            model
        })
    }

    /// A 3-relation star over the IMDb FK schema.
    fn star_query(id: &str) -> Query {
        let mut q = Query::new(id);
        for t in ["title", "movie_info", "movie_keyword"] {
            q.relations.push(RelRef::new(t));
        }
        for t in ["movie_info", "movie_keyword"] {
            q.joins.push(JoinPred {
                left: ColRef::new(t, "movie_id"),
                right: ColRef::new("title", "id"),
            });
        }
        q
    }

    const ORDERS: [[&str; 3]; 4] = [
        ["title", "movie_info", "movie_keyword"],
        ["title", "movie_keyword", "movie_info"],
        ["movie_info", "title", "movie_keyword"],
        ["movie_keyword", "title", "movie_info"],
    ];

    fn plan_strategy() -> impl Strategy<Value = LeftDeepSpec> {
        (
            0usize..ORDERS.len(),
            proptest::collection::vec(0usize..ScanOp::ALL.len(), 3),
            proptest::collection::vec(0usize..JoinOp::ALL.len(), 2),
        )
            .prop_map(|(ord, scans, joins)| LeftDeepSpec {
                scans: ORDERS[ord]
                    .iter()
                    .zip(&scans)
                    .map(|(rel, &s)| ((*rel).into(), ScanOp::ALL[s]))
                    .collect(),
                joins: joins.iter().map(|&j| JoinOp::ALL[j]).collect(),
            })
    }

    /// What a brokered search session does per scoring call: featurize into
    /// a submission, park on the broker, run its own head, hand rows and
    /// memo back.
    fn submit_plans(
        model: &QPSeeker,
        member: &BrokerMember,
        feat: &mut FeatSession,
        query: &Query,
        plans: &[&PlanNode],
        ctx: &mut crate::model::QueryContext,
        eps: Option<&Arc<Tensor>>,
    ) -> FusedOutcome {
        let mut int = ctx.interner(model, feat, query);
        let roots: Vec<u32> = plans.iter().map(|p| int.plan(p)).collect();
        let (encoded, sub) = member.submit(model.submission(ctx, &roots, eps));
        let outcome = model.head(&sub, encoded);
        ctx.reclaim(sub);
        outcome
    }

    /// Fuse `chunks` through one broker, each chunk submitted by its own
    /// member thread, and return the predictions in chunk order.
    fn fuse_chunks(
        model: &QPSeeker,
        query: &Query,
        chunks: Vec<Vec<PlanNode>>,
        cfg: BrokerConfig,
    ) -> (Vec<Vec<Prediction>>, ServeCounters) {
        let broker = EvalBroker::new(cfg);
        let members = broker.register_members(chunks.len());
        let preds: Vec<Vec<Prediction>> = std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .into_iter()
                .zip(members)
                .map(|(chunk, member)| {
                    s.spawn(move || {
                        let mut feat = FeatSession::default();
                        let mut ctx = model.query_context(query);
                        let refs: Vec<&PlanNode> = chunk.iter().collect();
                        if refs.is_empty() {
                            return Vec::new();
                        }
                        submit_plans(model, &member, &mut feat, query, &refs, &mut ctx, None).mean()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("member thread")).collect()
        });
        (preds, broker.take_stats())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Any partition of an eval set into member submissions,
        /// fused through the broker, equals per-plan scalar scoring bit for
        /// bit — the invariant that makes broker-on serving plan-identical
        /// to broker-off.
        #[test]
        fn any_partition_fuses_bitwise_equal_to_scalar(
            specs in proptest::collection::vec(plan_strategy(), 2..16),
            assign in proptest::collection::vec(0usize..4, 16),
            target in 1usize..64,
        ) {
            let model = shared_model();
            let query = star_query("broker-partition");
            let plans: Vec<PlanNode> = specs
                .iter()
                .map(|s| s.compile(&query).expect("valid left-deep spec"))
                .collect();
            // Partition the pool over up to 4 members; empty chunks are
            // legal (those members retire without submitting).
            let mut chunks: Vec<Vec<PlanNode>> = vec![Vec::new(); 4];
            for (i, plan) in plans.iter().enumerate() {
                chunks[assign[i]].push(plan.clone());
            }
            let cfg = BrokerConfig { batch_target: target, batch_window_us: 200 };
            let (fused, stats) = fuse_chunks(model, &query, chunks.clone(), cfg);
            prop_assert!(stats.fused_rows == plans.len(), "every row scored exactly once");
            let mut feat = FeatSession::default();
            let mut ctx = model.query_context(&query);
            for (chunk, preds) in chunks.iter().zip(&fused) {
                prop_assert_eq!(chunk.len(), preds.len());
                for (plan, fused_p) in chunk.iter().zip(preds) {
                    let scalar = model.predict_with_context_in(&mut feat, &query, plan, &mut ctx);
                    prop_assert_eq!(fused_p.runtime_ms.to_bits(), scalar.runtime_ms.to_bits());
                    prop_assert_eq!(fused_p.cost.to_bits(), scalar.cost.to_bits());
                    prop_assert_eq!(fused_p.cardinality.to_bits(), scalar.cardinality.to_bits());
                }
            }
        }
    }

    /// `star_query` narrowed by a filter of its own: another query
    /// embedding and another memo for each `year`.
    fn filtered_star(id: &str, year: f64) -> Query {
        let mut q = star_query(id);
        q.filters.push(qpseeker_engine::query::Filter {
            col: qpseeker_engine::query::ColRef::new("title", "production_year"),
            op: qpseeker_engine::query::CmpOp::Gt,
            value: year,
        });
        q
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The risk sibling of `any_partition_fuses_bitwise_equal_to_scalar`:
        /// two to four members, each with its own query and its own eps
        /// block, submit unequal row counts in one or two calls. Each
        /// member's `(mean, sigma)` equals `predict_risk_batch_with_context_in`
        /// over its plans alone, bit for bit, though the members' rows
        /// encode in one fused call and each member runs its own head on its
        /// own thread; and the broker counts what its round rule gives: the
        /// k-th calls of every member still submitting fuse in round k,
        /// flushed for size at `target` rows, else forced.
        #[test]
        fn any_partition_fuses_risk_bitwise_equal_to_each_member_alone(
            specs in proptest::collection::vec(plan_strategy(), 32),
            extra in proptest::collection::vec(0usize..2, 2..5),
            splits in proptest::collection::vec(0usize..9, 4),
            target in 1usize..24,
            samples in 1usize..9,
        ) {
            let model = shared_model();
            // Member m submits m + 1 + 4·extra rows: counts differ mod 4.
            let counts: Vec<usize> = extra.iter().enumerate().map(|(m, x)| m + 1 + 4 * x).collect();
            let members: Vec<(Query, Arc<Tensor>, Vec<PlanNode>, usize)> = counts
                .iter()
                .enumerate()
                .map(|(m, &count)| {
                    let query = filtered_star(&format!("broker-risk-{m}"), 1990.0 + 5.0 * m as f64);
                    let plans = specs[8 * m..8 * m + count]
                        .iter()
                        .map(|s| s.compile(&query).expect("valid left-deep spec"))
                        .collect();
                    let eps = model.risk_eps(samples, 0x5eed + m as u64);
                    (query, eps, plans, splits[m].min(count))
                })
                .collect();
            let cfg = BrokerConfig { batch_target: target, batch_window_us: 200 };
            let broker = EvalBroker::new(cfg);
            let seats = broker.register_members(members.len());
            let fused: Vec<Vec<(f64, f64)>> = std::thread::scope(|s| {
                let handles: Vec<_> = members
                    .iter()
                    .zip(seats)
                    .map(|((query, eps, plans, split), seat)| {
                        s.spawn(move || {
                            let mut feat = FeatSession::default();
                            let mut ctx = model.query_context(query);
                            let refs: Vec<&PlanNode> = plans.iter().collect();
                            let (first, second) = refs.split_at(*split);
                            let mut out = Vec::new();
                            for part in [first, second].into_iter().filter(|p| !p.is_empty()) {
                                let e = Some(eps);
                                out.extend(
                                    submit_plans(model, &seat, &mut feat, query, part, &mut ctx, e)
                                        .risk(),
                                );
                            }
                            out
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("member thread")).collect()
            });
            for ((query, eps, plans, _), fused) in members.iter().zip(&fused) {
                let mut alone = Vec::new();
                let refs: Vec<&PlanNode> = plans.iter().collect();
                let mut ctx = model.query_context(query);
                let mut feat = FeatSession::default();
                model.predict_risk_batch_with_context_in(
                    &mut feat, query, &refs, &mut ctx, eps, &mut alone,
                );
                let bits = |v: &[(f64, f64)]| -> Vec<(u64, u64)> {
                    v.iter().map(|(m, s)| (m.to_bits(), s.to_bits())).collect()
                };
                prop_assert_eq!(bits(fused), bits(&alone), "query {}", query.id);
            }
            // Round k fuses the k-th call of every member that makes one; a
            // member's first call is its first `split` rows, or all of them.
            let total: usize = counts.iter().sum();
            let first: usize = members
                .iter()
                .map(|(.., plans, split)| if *split > 0 { *split } else { plans.len() })
                .sum();
            let rounds: Vec<usize> =
                [first, total - first].into_iter().filter(|&rows| rows > 0).collect();
            let stats = broker.take_stats();
            let size = rounds.iter().filter(|&&rows| rows >= target).count();
            prop_assert_eq!(stats.fused_batches, rounds.len());
            prop_assert_eq!(stats.fused_rows, total);
            prop_assert_eq!(stats.fused_occupancy_max, rounds.iter().copied().max().unwrap_or(0));
            prop_assert_eq!(stats.broker_flush_size, size);
            prop_assert_eq!(stats.broker_flush_deadline, rounds.len() - size);
        }
    }

    /// Submissions from *different queries* fuse into one forward pass —
    /// the cross-request case the broker exists for — and still score
    /// bitwise equal to per-query scalar runs.
    #[test]
    fn cross_query_submissions_fuse_into_one_forward() {
        let model = shared_model();
        let qa = star_query("broker-cross-a");
        let qb = star_query("broker-cross-b");
        let mk = |q: &Query, ord: usize| -> Vec<PlanNode> {
            ORDERS
                .iter()
                .cycle()
                .skip(ord)
                .take(3)
                .map(|o| {
                    LeftDeepSpec {
                        scans: o.iter().map(|r| ((*r).into(), ScanOp::SeqScan)).collect(),
                        joins: vec![JoinOp::HashJoin, JoinOp::HashJoin],
                    }
                    .compile(q)
                    .expect("valid spec")
                })
                .collect()
        };
        let (plans_a, plans_b) = (mk(&qa, 0), mk(&qb, 1));

        let broker = EvalBroker::new(BrokerConfig { batch_target: 6, batch_window_us: 200 });
        let members = broker.register_members(2);
        let work = vec![(&qa, &plans_a), (&qb, &plans_b)];
        let fused: Vec<Vec<Prediction>> = std::thread::scope(|s| {
            let handles: Vec<_> = work
                .into_iter()
                .zip(members)
                .map(|((query, plans), member)| {
                    s.spawn(move || {
                        let mut feat = FeatSession::default();
                        let mut ctx = model.query_context(query);
                        let refs: Vec<&PlanNode> = plans.iter().collect();
                        submit_plans(model, &member, &mut feat, query, &refs, &mut ctx, None).mean()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("member thread")).collect()
        });
        let stats = broker.take_stats();
        assert_eq!(stats.fused_batches, 1, "cross-query rows share one forward");
        assert_eq!(stats.fused_rows, 6);
        assert_eq!(stats.fused_occupancy_max, 6);
        assert_eq!(stats.broker_flush_size, 1, "6 rows met the size target of 6");
        for (query, plans, preds) in [(&qa, &plans_a, &fused[0]), (&qb, &plans_b, &fused[1])] {
            let mut feat = FeatSession::default();
            let mut ctx = model.query_context(query);
            for (plan, fused_p) in plans.iter().zip(preds.iter()) {
                let scalar = model.predict_with_context_in(&mut feat, query, plan, &mut ctx);
                assert_eq!(fused_p.runtime_ms.to_bits(), scalar.runtime_ms.to_bits());
            }
        }
    }

    /// Risk submissions ([S, latent] eps blocks) fuse in their own buckets
    /// and return (mean, sigma) pairs bitwise equal to the per-session
    /// sampled path; a concurrent mean submission never lands in the risk
    /// bucket.
    #[test]
    fn risk_and_mean_submissions_bucket_separately_and_match_scalar() {
        let model = shared_model();
        let query = star_query("broker-risk");
        let plans: Vec<PlanNode> = ORDERS
            .iter()
            .map(|o| {
                LeftDeepSpec {
                    scans: o.iter().map(|r| ((*r).into(), ScanOp::SeqScan)).collect(),
                    joins: vec![JoinOp::HashJoin, JoinOp::HashJoin],
                }
                .compile(&query)
                .expect("valid spec")
            })
            .collect();
        let eps = model.risk_eps(4, 0x5eed);

        let broker = EvalBroker::new(BrokerConfig::default());
        let mut members = broker.register_members(2);
        let (risk_member, mean_member) = (members.remove(0), members.remove(0));
        // The seats move *into* their threads: a finished submitter must
        // retire so the round condition can complete for the one still
        // parked (holding a seat open outside the scope would wedge it).
        let (q, ps, e) = (&query, &plans, &eps);
        let (risk_fused, mean_fused) = std::thread::scope(|s| {
            let rh = s.spawn(move || {
                let mut feat = FeatSession::default();
                let mut ctx = model.query_context(q);
                let refs: Vec<&PlanNode> = ps.iter().collect();
                submit_plans(model, &risk_member, &mut feat, q, &refs, &mut ctx, Some(e)).risk()
            });
            let mh = s.spawn(move || {
                let mut feat = FeatSession::default();
                let mut ctx = model.query_context(q);
                let refs: Vec<&PlanNode> = ps.iter().collect();
                submit_plans(model, &mean_member, &mut feat, q, &refs, &mut ctx, None).mean()
            });
            (rh.join().expect("risk member"), mh.join().expect("mean member"))
        });
        let stats = broker.take_stats();
        assert_eq!(stats.fused_batches, 2, "risk and mean kinds never share a fused pass");
        assert_eq!(stats.fused_rows, plans.len() * 2);

        let mut feat = FeatSession::default();
        let mut ctx = model.query_context(&query);
        let refs: Vec<&PlanNode> = plans.iter().collect();
        let mut scalar_risk = Vec::new();
        model.predict_risk_batch_with_context_in(
            &mut feat,
            &query,
            &refs,
            &mut ctx,
            &eps,
            &mut scalar_risk,
        );
        for ((fm, fs), (sm, ss)) in risk_fused.iter().zip(&scalar_risk) {
            assert_eq!(fm.to_bits(), sm.to_bits(), "fused risk mean matches sampled path");
            assert_eq!(fs.to_bits(), ss.to_bits(), "fused risk sigma matches sampled path");
        }
        let mut scalar_mean = Vec::new();
        model.predict_batch_with_context_in(&mut feat, &query, &refs, &mut ctx, &mut scalar_mean);
        for (f, sc) in mean_fused.iter().zip(&scalar_mean) {
            assert_eq!(f.runtime_ms.to_bits(), sc.runtime_ms.to_bits());
        }
    }

    /// A single-member broker degenerates to per-submission forced flushes:
    /// still correct, every flush counted as a deadline flush.
    #[test]
    fn single_member_forces_progress_every_submission() {
        let model = shared_model();
        let query = star_query("broker-solo");
        let plan = LeftDeepSpec {
            scans: ORDERS[0].iter().map(|r| ((*r).into(), ScanOp::SeqScan)).collect(),
            joins: vec![JoinOp::HashJoin, JoinOp::HashJoin],
        }
        .compile(&query)
        .expect("valid spec");

        let broker = EvalBroker::new(BrokerConfig { batch_target: 64, batch_window_us: 200 });
        let member = broker.register_members(1).pop().expect("one seat");
        let mut feat = FeatSession::default();
        let mut ctx = model.query_context(&query);
        for _ in 0..3 {
            let out =
                submit_plans(model, &member, &mut feat, &query, &[&plan], &mut ctx, None).mean();
            assert_eq!(out.len(), 1);
            let scalar = model.predict_with_context_in(&mut feat, &query, &plan, &mut ctx);
            assert_eq!(out[0].runtime_ms.to_bits(), scalar.runtime_ms.to_bits());
        }
        drop(member);
        let stats = broker.take_stats();
        assert_eq!(stats.fused_batches, 3);
        assert_eq!(stats.broker_flush_deadline, 3, "sub-target solo flushes are forced progress");
        assert_eq!(stats.broker_flush_size, 0);
        assert_eq!(stats.fused_occupancy_max, 1);
    }
}
