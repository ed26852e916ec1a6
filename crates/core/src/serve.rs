//! Graceful-degradation serving path.
//!
//! Production neural planners cannot afford to fail a query because the
//! model did: [`plan_with_fallback_in`] runs the chosen search under a deadline
//! watchdog with NaN/Inf prediction checks and bounded retry + exponential
//! backoff for transient faults, and falls back to the classical DP/greedy
//! optimizer whenever the neural path cannot produce a valid plan in time.
//! The [`ServeResult`] records which path served and every failure seen on
//! the way, so chaos tests (and operators) can audit degradation decisions.
//!
//! The crate-private `Supervisor` lifts the single-query path to a query
//! *stream* — it is the lane under every
//! [`crate::tenant::MultiTenantSupervisor`] tenant and under the
//! [`crate::online::OnlinePlanner`]: a bounded admission queue with
//! deadline-aware load-shedding (every rejection carries a [`ShedReason`]),
//! and a sliding-window `CircuitBreaker` that trips to classical-only
//! planning when the neural failure rate crosses a threshold, then recovers
//! through half-open probes. Queue dynamics run on a deterministic virtual
//! clock, so breaker and shedding behavior is exactly reproducible in tests.
//!
//! Admitted requests are served by one worker loop: a worker owns a
//! [`PlannerSession`] over the one shared model and serves the jobs it
//! picks, each inside its own panic boundary (a panicked request records
//! [`Disposition::Failed`] and the worker moves on). `workers <= 1` runs
//! that loop on the calling thread, in order, spawning nothing; a pool runs
//! it on `workers` scoped threads that pull jobs off an atomic cursor — or,
//! when scoring goes through an eval broker, take the fixed stride
//! `w, w+W, …` so fused-batch composition does not depend on scheduling.
//! Admission control stays sequential in arrival order — dispositions
//! depend only on the virtual clock, never on planning results — so
//! shedding is deterministic for a given worker count, and plan choices
//! are deterministic for *any* worker count (search is seeded per query).

use crate::error::panic_message;
use crate::evalbroker::{BrokerConfig, BrokerMember};
use crate::metrics::ServeCounters;
use crate::model::QPSeeker;
use crate::plancache::{query_fingerprint, CachedPlan, PlanCacheCtx};
use crate::registry::ModelCell;
use crate::search::mcts::MctsConfig;
use crate::search::strategy::{StrategyConfig, StrategyPlanner};
use crate::session::PlannerSession;
use qpseeker_engine::optimizer::PgOptimizer;
use qpseeker_engine::plan::PlanNode;
use qpseeker_engine::query::Query;
use qpseeker_storage::{Database, FaultConfig, FaultInjector, InferenceFault};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Serving-path configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// MCTS settings for each neural attempt (the seed is varied per
    /// attempt so a retry explores differently). Budget, evaluation cap
    /// and seed also parameterize the beam strategy.
    pub mcts: MctsConfig,
    /// Which search runs and how candidates are scored: strategy kind
    /// (left-deep MCTS or bushy beam), risk weight λ, latent sample count,
    /// beam width. The default reproduces the pre-strategy-layer planner
    /// bit for bit.
    pub strategy: StrategyConfig,
    /// Wall-clock budget for one neural attempt, in milliseconds. An
    /// attempt that exceeds it is discarded.
    pub deadline_ms: f64,
    /// Retries after the first failed neural attempt.
    pub max_retries: usize,
    /// First backoff pause; doubles per retry. Zero disables sleeping
    /// (virtual backoff is still recorded).
    pub backoff_base_ms: f64,
    /// Optional injected inference faults (chaos testing).
    pub faults: Option<FaultConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            mcts: MctsConfig::default(),
            strategy: StrategyConfig::default(),
            deadline_ms: 1_000.0,
            max_retries: 2,
            backoff_base_ms: 0.0,
            faults: None,
        }
    }
}

/// Which optimizer produced the served plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The QPSeeker MCTS planner.
    Neural,
    /// The classical DP/greedy cost-based optimizer.
    Classical,
}

/// Why a neural attempt was rejected (and, for the last one, why the
/// query fell back to the classical optimizer).
#[derive(Debug, Clone, PartialEq)]
pub enum FallbackReason {
    /// No model was provided (e.g. checkpoint failed to load).
    ModelUnavailable(String),
    /// The cost model predicted NaN or Inf for the chosen plan.
    NonFinitePrediction,
    /// The attempt blew through its deadline.
    DeadlineExceeded { elapsed_ms: f64, deadline_ms: f64 },
    /// MCTS produced a plan that failed validation against the query.
    InvalidPlan(String),
    /// The planner panicked; the panic was contained.
    PlannerPanicked(String),
    /// The supervisor's circuit breaker is open: the neural path was not
    /// even attempted for this query.
    BreakerOpen,
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackReason::ModelUnavailable(why) => write!(f, "model unavailable: {why}"),
            FallbackReason::NonFinitePrediction => f.write_str("non-finite cost prediction"),
            FallbackReason::DeadlineExceeded { elapsed_ms, deadline_ms } => {
                write!(f, "deadline exceeded: {elapsed_ms:.1}ms > {deadline_ms:.1}ms")
            }
            FallbackReason::InvalidPlan(why) => write!(f, "invalid plan: {why}"),
            FallbackReason::PlannerPanicked(why) => write!(f, "planner panicked: {why}"),
            FallbackReason::BreakerOpen => f.write_str("circuit breaker open"),
        }
    }
}

/// Outcome of [`plan_with_fallback_in`]: always carries a valid, executable
/// plan, plus the full degradation audit trail.
#[derive(Debug, Clone)]
pub struct ServeResult {
    pub plan: PlanNode,
    pub served_by: ServedBy,
    /// Neural attempts made (0 when the model was unavailable).
    pub attempts: usize,
    /// Total backoff charged between attempts, in milliseconds.
    pub backoff_ms: f64,
    /// Why the query was served classically (`None` on the neural path).
    pub fallback_reason: Option<FallbackReason>,
    /// Every failed neural attempt, in order.
    pub attempt_failures: Vec<FallbackReason>,
    /// The model's runtime prediction for the served plan (neural path only).
    pub predicted_ms: Option<f64>,
    /// True when the plan came from the fingerprint plan cache (no MCTS
    /// ran; `served_by` is still `Neural` — the cached plan was produced by
    /// the neural path under the same model epoch).
    pub cache_hit: bool,
    /// Candidate plans the successful neural attempt asked the cost model
    /// to score (0 on the classical path and on cache hits). Search is
    /// deterministic per seed and scoring is bitwise identical with or
    /// without a shared eval broker, so this count is invariant across
    /// broker modes and worker counts.
    pub evals: usize,
    /// Plan-node rows the plan encoder ran for those evals
    /// ([`crate::search::mcts::MctsResult::nodes_encoded`]); 0 wherever `evals` is.
    pub nodes_encoded: usize,
}

/// Plan `query`, preferring the neural planner but guaranteeing a valid
/// plan: each neural attempt is guarded by a deadline watchdog, a finite-
/// prediction check, plan validation and a panic boundary; failures retry
/// with exponential backoff (a different search seed each time) up to
/// `cfg.max_retries`, after which the classical optimizer serves the query.
/// All mutable planning state is the caller's [`PlannerSession`]: a serving
/// worker passes the one it owns, a one-off caller a fresh one.
pub fn plan_with_fallback_in(
    db: &Database,
    query: &Query,
    model: Option<&QPSeeker>,
    cfg: &ServeConfig,
    sess: &mut PlannerSession,
) -> ServeResult {
    let injector = cfg.faults.clone().map(FaultInjector::new);
    let mut failures: Vec<FallbackReason> = Vec::new();
    let mut backoff_ms = 0.0;

    let model = match model {
        Some(m) => m,
        None => {
            let reason = FallbackReason::ModelUnavailable("no model loaded".into());
            return classical(db, query, 0, backoff_ms, vec![reason.clone()], reason);
        }
    };

    let attempts = cfg.max_retries + 1;
    for attempt in 0..attempts {
        if attempt > 0 {
            // Doubling in `f64`: an integer shift goes negative at 32
            // retries and overflows at 33. Capped where `2^k` is still
            // finite, so a zero base stays a zero pause.
            let pause = cfg.backoff_base_ms * 2f64.powi((attempt - 1).min(1023) as i32);
            backoff_ms += pause;
            if pause > 0.0 {
                std::thread::sleep(std::time::Duration::from_micros((pause * 1_000.0) as u64));
            }
        }

        let mut mcts = cfg.mcts.clone();
        mcts.seed ^= attempt as u64;
        // Never let one attempt's internal budget exceed the watchdog.
        mcts.budget_ms = mcts.budget_ms.min(cfg.deadline_ms);
        let planner = StrategyPlanner::from_config(&cfg.strategy, mcts);

        // Injected inference faults are decided up front so a Panic fault
        // can fire *inside* the panic boundary — the contained-panic path
        // is exercised end to end, not merely simulated after the fact.
        let fault = injector.as_ref().and_then(|fi| fi.inference_fault(&query.id, attempt));

        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if fault == Some(InferenceFault::Panic) {
                panic!("injected inference panic");
            }
            planner.plan_with_session(model, query, sess)
        }));
        let mut elapsed_ms = started.elapsed().as_secs_f64() * 1_000.0;

        let mut result = match outcome {
            Ok(r) => r,
            Err(payload) => {
                failures.push(FallbackReason::PlannerPanicked(panic_message(payload)));
                continue;
            }
        };

        // Remaining fault classes apply post-hoc: a stall exhausts the
        // deadline, a NaN fault poisons the prediction.
        match fault {
            Some(InferenceFault::Stall) => elapsed_ms += cfg.deadline_ms,
            Some(InferenceFault::NanPrediction) => result.predicted_ms = f64::NAN,
            Some(InferenceFault::Panic) | None => {}
        }

        if !result.predicted_ms.is_finite() {
            failures.push(FallbackReason::NonFinitePrediction);
            continue;
        }
        if elapsed_ms > cfg.deadline_ms {
            failures.push(FallbackReason::DeadlineExceeded {
                elapsed_ms,
                deadline_ms: cfg.deadline_ms,
            });
            continue;
        }
        if let Err(e) = result.plan.validate(query) {
            failures.push(FallbackReason::InvalidPlan(e.to_string()));
            continue;
        }

        return ServeResult {
            plan: result.plan,
            served_by: ServedBy::Neural,
            attempts: attempt + 1,
            backoff_ms,
            fallback_reason: None,
            attempt_failures: failures,
            predicted_ms: Some(result.predicted_ms),
            cache_hit: false,
            evals: result.plans_evaluated,
            nodes_encoded: result.nodes_encoded,
        };
    }

    let reason = failures.last().cloned().unwrap_or(FallbackReason::NonFinitePrediction);
    classical(db, query, attempts, backoff_ms, failures, reason)
}

fn classical(
    db: &Database,
    query: &Query,
    attempts: usize,
    backoff_ms: f64,
    attempt_failures: Vec<FallbackReason>,
    reason: FallbackReason,
) -> ServeResult {
    ServeResult {
        plan: PgOptimizer::new(db).plan(query),
        served_by: ServedBy::Classical,
        attempts,
        backoff_ms,
        fallback_reason: Some(reason),
        attempt_failures,
        predicted_ms: None,
        cache_hit: false,
        evals: 0,
        nodes_encoded: 0,
    }
}

/// Supervised-serving configuration: the per-query [`ServeConfig`] plus the
/// stream-level circuit-breaker and admission-control knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Per-query serving settings (deadline, retries, faults).
    pub serve: ServeConfig,
    /// Sliding-window length for the breaker's failure-rate estimate.
    pub window: usize,
    /// Outcomes required in the window before the breaker may trip.
    pub min_samples: usize,
    /// Neural failure (classical-fallback) rate in the window that opens
    /// the circuit.
    pub failure_threshold: f64,
    /// Queries served classically while open before a half-open probe.
    pub cooldown_queries: usize,
    /// Consecutive successful probes required to close the circuit again.
    pub probe_successes: usize,
    /// Bounded admission-queue depth; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Virtual per-query service time (ms) driving the admission clock.
    pub service_ms: f64,
    /// Serving workers. `<= 1` runs the deterministic single-threaded loop;
    /// larger values spawn that many real threads, each with its own
    /// [`PlannerSession`], and model that many virtual servers on the
    /// admission clock.
    pub workers: usize,
    /// Route candidate scoring through a shared eval broker: every worker
    /// becomes a broker member and scoring requests from all of them fuse
    /// into wide forward passes (across every lane, for a multi-tenant
    /// supervisor). Plans are bitwise identical to broker-off serving (a
    /// row's score does not depend on what it is fused with); only where
    /// the arithmetic runs changes. `None` keeps per-session scoring.
    pub broker: Option<BrokerConfig>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            serve: ServeConfig::default(),
            window: 16,
            min_samples: 8,
            failure_threshold: 0.5,
            cooldown_queries: 8,
            probe_successes: 3,
            queue_capacity: 32,
            service_ms: 10.0,
            workers: 1,
            broker: None,
        }
    }
}

/// Circuit-breaker states (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Neural serving; outcomes feed the sliding window.
    Closed,
    /// Classical-only serving; a cooldown counts down to a probe.
    Open,
    /// Probing: neural attempts allowed, one failure re-opens.
    HalfOpen,
}

/// Sliding-window circuit breaker over neural serving outcomes.
///
/// Closed → Open when the window holds at least `min_samples` outcomes and
/// the failure rate reaches `failure_threshold`; Open → HalfOpen after
/// `cooldown_queries` classical-only queries; HalfOpen → Closed after
/// `probe_successes` consecutive neural successes, or back to Open on any
/// probe failure.
#[derive(Debug, Clone)]
pub(crate) struct CircuitBreaker {
    state: BreakerState,
    window: VecDeque<bool>,
    window_len: usize,
    min_samples: usize,
    threshold: f64,
    cooldown: usize,
    cooldown_left: usize,
    probes_needed: usize,
    probe_streak: usize,
    trips: usize,
    recoveries: usize,
    probes: usize,
}

impl CircuitBreaker {
    fn new(cfg: &SupervisorConfig) -> Self {
        Self {
            state: BreakerState::Closed,
            window: VecDeque::with_capacity(cfg.window),
            window_len: cfg.window.max(1),
            min_samples: cfg.min_samples.max(1),
            threshold: cfg.failure_threshold,
            cooldown: cfg.cooldown_queries,
            cooldown_left: 0,
            probes_needed: cfg.probe_successes.max(1),
            probe_streak: 0,
            trips: 0,
            recoveries: 0,
            probes: 0,
        }
    }

    pub(crate) fn state(&self) -> BreakerState {
        self.state
    }

    /// Decide whether the next query may take the neural path. Open-state
    /// calls count down the cooldown; the call that exhausts it transitions
    /// to half-open and admits a probe.
    fn allow_neural(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => {
                self.probes += 1;
                true
            }
            BreakerState::Open => {
                if self.cooldown_left == 0 {
                    self.state = BreakerState::HalfOpen;
                    self.probe_streak = 0;
                    self.probes += 1;
                    true
                } else {
                    self.cooldown_left -= 1;
                    false
                }
            }
        }
    }

    /// Feed back the outcome of a neural-path query (`true` = served
    /// neurally, `false` = fell back to classical).
    fn record(&mut self, neural_ok: bool) {
        match self.state {
            BreakerState::Closed => {
                if self.window.len() == self.window_len {
                    self.window.pop_front();
                }
                self.window.push_back(neural_ok);
                if self.window.len() >= self.min_samples {
                    let failures = self.window.iter().filter(|ok| !**ok).count();
                    if failures as f64 / self.window.len() as f64 >= self.threshold {
                        self.state = BreakerState::Open;
                        self.cooldown_left = self.cooldown;
                        self.window.clear();
                        self.trips += 1;
                    }
                }
            }
            BreakerState::HalfOpen => {
                if neural_ok {
                    self.probe_streak += 1;
                    if self.probe_streak >= self.probes_needed {
                        self.state = BreakerState::Closed;
                        self.probe_streak = 0;
                        self.recoveries += 1;
                    }
                } else {
                    self.state = BreakerState::Open;
                    self.cooldown_left = self.cooldown;
                    self.probe_streak = 0;
                }
            }
            // Open-state queries never reach the neural path; nothing to
            // record.
            BreakerState::Open => {}
        }
    }
}

/// Lock the shared breaker, recovering from poisoning: a worker that
/// panicked while holding the lock left valid (if mid-transition) breaker
/// state behind, and wedging the whole pool over it would be strictly
/// worse than a possibly-stale failure window.
fn lock_breaker<'a, 'b>(
    m: &'a Mutex<&'b mut CircuitBreaker>,
) -> MutexGuard<'a, &'b mut CircuitBreaker> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One query in a supervised stream, stamped with virtual arrival and
/// deadline times (absolute milliseconds on the supervisor's clock).
#[derive(Debug, Clone)]
pub struct QueryRequest {
    pub query: Query,
    /// Virtual arrival time.
    pub arrival_ms: f64,
    /// Absolute deadline; the answer is useless after this instant.
    pub deadline_ms: f64,
}

/// Why a request was shed instead of served.
#[derive(Debug, Clone, PartialEq)]
pub enum ShedReason {
    /// The bounded admission queue was at capacity when the query arrived.
    QueueFull { depth: usize },
    /// Even served immediately the query could not meet its deadline.
    DeadlineUnmeetable { earliest_finish_ms: f64, deadline_ms: f64 },
    /// Admitted, but queue wait consumed the deadline before service began.
    ExpiredInQueue { would_finish_ms: f64, deadline_ms: f64 },
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull { depth } => write!(f, "queue full (depth {depth})"),
            ShedReason::DeadlineUnmeetable { earliest_finish_ms, deadline_ms } => write!(
                f,
                "deadline unmeetable: earliest finish {earliest_finish_ms:.1}ms > deadline {deadline_ms:.1}ms"
            ),
            ShedReason::ExpiredInQueue { would_finish_ms, deadline_ms } => write!(
                f,
                "expired in queue: would finish {would_finish_ms:.1}ms > deadline {deadline_ms:.1}ms"
            ),
        }
    }
}

/// Final disposition of one supervised request.
#[derive(Debug, Clone)]
pub enum Disposition {
    /// Served (neurally or classically); the full single-query audit trail.
    Served(ServeResult),
    /// Shed without planning, with the recorded reason.
    Shed(ShedReason),
    /// Admitted, but the request panicked outside the neural planner's own
    /// boundary (e.g. in the classical fallback). The worker survived; the
    /// panic message is recorded.
    Failed(String),
}

/// One request's outcome in a served batch.
#[derive(Debug, Clone)]
pub struct SupervisedOutcome {
    /// `query.id` of the request.
    pub query_id: String,
    pub disposition: Disposition,
}

/// One serving lane: the supervised loop over a stream of
/// [`QueryRequest`]s.
///
/// State (breaker, counters, virtual clock) persists across [`Self::run`]
/// calls, so a faulted batch can trip the breaker and a later clean batch
/// can demonstrate half-open recovery.
pub(crate) struct Supervisor {
    cfg: SupervisorConfig,
    breaker: CircuitBreaker,
    counters: ServeCounters,
    /// Virtual completion times of admitted-but-unfinished queries.
    in_flight: VecDeque<f64>,
    /// When each of the `workers` virtual servers frees up.
    server_free: Vec<f64>,
}

impl Supervisor {
    pub(crate) fn new(cfg: SupervisorConfig) -> Self {
        let breaker = CircuitBreaker::new(&cfg);
        let servers = cfg.workers.max(1);
        Self {
            cfg,
            breaker,
            counters: ServeCounters::default(),
            in_flight: VecDeque::new(),
            server_free: vec![0.0; servers],
        }
    }

    /// Current breaker state.
    pub(crate) fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Accumulated per-outcome counters, stamped with the process's active
    /// kernel ISA tier.
    pub(crate) fn counters(&self) -> ServeCounters {
        let mut c = self.counters;
        c.isa = qpseeker_nn::isa::active();
        c.breaker_trips = self.breaker.trips;
        c.breaker_recoveries = self.breaker.recoveries;
        c.probes = self.breaker.probes;
        c
    }

    /// Swap the injected fault configuration between batches (chaos tests:
    /// fault a stream to trip the breaker, clear to watch it recover).
    pub(crate) fn set_faults(&mut self, faults: Option<FaultConfig>) {
        self.cfg.serve.faults = faults;
    }

    /// The one serving entry: process a batch of requests ordered by
    /// arrival time — admission control against the bounded queue,
    /// deadline-aware shedding, then service through the plan cache and the
    /// circuit breaker. Every admitted query is served — neurally when the
    /// breaker allows and the attempt succeeds, classically otherwise — and
    /// every shed carries its reason.
    ///
    /// * `model`: the publication cell to plan against, `None` when no
    ///   model is resident (everything admitted serves classically). Each
    ///   request loads the cell's current `(model, epoch)` pair at the
    ///   moment it starts planning and finishes on that `Arc` even if a
    ///   publish or rollback lands mid-request (zero-downtime hot-swap); a
    ///   worker that observes an epoch change resets its
    ///   [`PlannerSession`] so no cache entry computed against the old
    ///   weights scores a plan for the new ones. A fixed model is a cell
    ///   nobody publishes to.
    /// * `cache`: the fingerprint plan cache scoped to this batch's
    ///   `(tenant, stats_version)`: a lookup hit returns the cached plan
    ///   without searching, and every neural success is inserted, stamped
    ///   with the epoch it planned under (see [`crate::plancache`]).
    /// * `seats`: broker seats, one per worker, when scoring goes through a
    ///   broker. The caller creates the broker, registers every seat before
    ///   any worker starts, and drains its stats afterwards; `None` scores
    ///   per session.
    ///
    /// Admission runs sequentially in arrival order regardless of the
    /// worker count (dispositions depend only on the virtual clock, never
    /// on planning results); admitted requests are then served by the one
    /// worker loop — on the calling thread when `workers <= 1`, on a pool
    /// of scoped threads each owning a [`PlannerSession`] otherwise.
    pub(crate) fn run(
        &mut self,
        db: &Database,
        model: Option<&ModelCell>,
        cache: Option<&PlanCacheCtx>,
        seats: Option<Vec<BrokerMember>>,
        requests: &[QueryRequest],
    ) -> Vec<SupervisedOutcome> {
        // Phase 1: admission, in arrival order.
        let mut dispositions: Vec<Option<Disposition>> = Vec::with_capacity(requests.len());
        let mut jobs: Vec<usize> = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            match self.admit(req) {
                Some(reason) => dispositions.push(Some(Disposition::Shed(reason))),
                None => {
                    dispositions.push(None);
                    jobs.push(i);
                }
            }
        }

        // Phase 2: plan every admitted request. The breaker is shared
        // behind a mutex; per-outcome tallies are sharded per worker and
        // merged after the join, so counter totals are exact regardless of
        // interleaving.
        let workers = self.cfg.workers.max(1);
        let serve_cfg = &self.cfg.serve;
        if let Some(s) = &seats {
            assert_eq!(s.len(), workers, "one broker seat per worker");
        }
        // How a worker picks its next job. Brokered pools take the fixed
        // stride `w, w+W, …`: which requests are in flight together feeds
        // fused-batch composition and the flush policy, and the occupancy
        // counters are part of the deterministic surface, so job→worker
        // assignment must not depend on thread scheduling. (Plan *choices*
        // are schedule-independent either way.) One worker's stride is the
        // job list in order. A broker-less pool balances dynamically off a
        // shared cursor.
        let strided = workers == 1 || seats.is_some();
        let cursor = AtomicUsize::new(0);
        let breaker = Mutex::new(&mut self.breaker);
        let worker = |w: usize, seat: Option<BrokerMember>| {
            let mut sess = PlannerSession::new();
            sess.broker = seat;
            let mut tally = ServeCounters::default();
            // The `(model, epoch)` pair this worker is planning against.
            let mut held: Option<(Arc<QPSeeker>, u64)> = None;
            let mut served = Vec::with_capacity(jobs.len().div_ceil(workers));
            let mut next = w;
            loop {
                let k = if strided {
                    next += workers;
                    next - workers
                } else {
                    cursor.fetch_add(1, Ordering::Relaxed)
                };
                let Some(&i) = jobs.get(k) else { break };
                // Pin the cell's current `Arc` for the request's duration.
                // The epoch read with it is the one this request's plan-
                // cache lookup and insert are stamped with, so the (model,
                // epoch, cache-entry) triple is always consistent — a swap
                // landing after this load cannot mix states.
                if let Some(cell) = model {
                    let (arc, epoch) = cell.load();
                    if held.as_ref().is_none_or(|(_, e)| *e != epoch) {
                        sess.reset();
                        held = Some((arc, epoch));
                    }
                }
                let (resolved, epoch) = match &held {
                    Some((arc, epoch)) => (Some(arc.as_ref()), *epoch),
                    None => (None, 0),
                };
                let d = serve_admitted(
                    db,
                    resolved,
                    epoch,
                    &requests[i].query,
                    serve_cfg,
                    cache,
                    &breaker,
                    &mut sess,
                    &mut tally,
                );
                served.push((i, d));
            }
            // Dropping the session retires the seat: the broker stops
            // waiting on this worker as soon as its share of the job list
            // is done.
            (served, tally)
        };
        let mut seats = seats.into_iter().flatten();
        let shards: Vec<(Vec<(usize, Disposition)>, ServeCounters)> = if workers == 1 {
            vec![worker(0, seats.next())]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let (worker, seat) = (&worker, seats.next());
                        s.spawn(move || worker(w, seat))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker exited through the per-request boundary"))
                    .collect()
            })
        };
        // `breaker` (the Mutex over `&mut self.breaker`) is done; NLL ends
        // its borrow here, so the counters below are accessible again.
        let _ = breaker;
        for (served, tally) in shards {
            self.counters.merge(&tally);
            for (i, d) in served {
                dispositions[i] = Some(d);
            }
        }

        requests
            .iter()
            .zip(dispositions)
            .map(|(req, d)| SupervisedOutcome {
                query_id: req.query.id.clone(),
                disposition: d.expect("every admitted job produced a disposition"),
            })
            .collect()
    }

    /// Admission decision for one arrival against the bounded queue and
    /// the `workers`-server virtual clock. `None` admits (and charges the
    /// earliest-free virtual server); `Some` is the shed reason.
    fn admit(&mut self, req: &QueryRequest) -> Option<ShedReason> {
        // Drain virtually-completed work as of this arrival.
        while self.in_flight.front().is_some_and(|&t| t <= req.arrival_ms) {
            self.in_flight.pop_front();
        }
        // A deadline that cannot be met even on an idle server is rejected
        // before it takes a queue slot.
        let earliest_finish = req.arrival_ms + self.cfg.service_ms;
        if earliest_finish > req.deadline_ms {
            self.counters.shed_deadline += 1;
            return Some(ShedReason::DeadlineUnmeetable {
                earliest_finish_ms: earliest_finish,
                deadline_ms: req.deadline_ms,
            });
        }
        let depth = self.in_flight.len();
        if depth >= self.cfg.queue_capacity {
            self.counters.shed_queue_full += 1;
            return Some(ShedReason::QueueFull { depth });
        }
        let server = self
            .server_free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let start = req.arrival_ms.max(self.server_free[server]);
        let would_finish = start + self.cfg.service_ms;
        if would_finish > req.deadline_ms {
            // Admitted to the queue, but its slack was eaten waiting:
            // dropped at dequeue without charging the server.
            self.counters.expired_in_queue += 1;
            return Some(ShedReason::ExpiredInQueue {
                would_finish_ms: would_finish,
                deadline_ms: req.deadline_ms,
            });
        }
        self.server_free[server] = would_finish;
        self.in_flight.push_back(would_finish);
        self.counters.admitted += 1;
        None
    }
}

/// Serve one admitted request through the plan cache and the breaker,
/// inside a per-request panic boundary. Tallies land in the caller's shard
/// (`served_neural`, `cache_hits`, `served_classical`, `failed` only).
///
/// Cache protocol: the lookup and any insert are stamped with `epoch` — the
/// publication epoch of the model this request resolved — so a hit is
/// guaranteed to have been planned by a model of exactly that epoch, and an
/// insert racing a swap produces an entry that every post-swap lookup
/// rejects. A hit bypasses MCTS *and* the breaker bookkeeping (no neural
/// attempt was made to record). Both sides also carry the request's
/// strategy stamp, so a strategy or λ change can never serve the other
/// configuration's plan.
#[allow(clippy::too_many_arguments)]
fn serve_admitted(
    db: &Database,
    model: Option<&QPSeeker>,
    epoch: u64,
    query: &Query,
    cfg: &ServeConfig,
    cache: Option<&PlanCacheCtx>,
    breaker: &Mutex<&mut CircuitBreaker>,
    sess: &mut PlannerSession,
    tally: &mut ServeCounters,
) -> Disposition {
    let strategy = cfg.strategy.cache_stamp();
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let fp = cache.map(|ctx| (ctx, query_fingerprint(query)));
        if let Some((ctx, fp)) = fp {
            if let Some(hit) =
                ctx.cache.lookup(&ctx.tenant, query, fp, epoch, ctx.stats_version, strategy)
            {
                return ServeResult {
                    plan: hit.plan,
                    served_by: ServedBy::Neural,
                    attempts: 0,
                    backoff_ms: 0.0,
                    fallback_reason: None,
                    attempt_failures: Vec::new(),
                    predicted_ms: Some(hit.predicted_ms),
                    cache_hit: true,
                    evals: 0,
                    nodes_encoded: 0,
                };
            }
        }
        let neural_allowed = model.is_some() && lock_breaker(breaker).allow_neural();
        if neural_allowed {
            let r = plan_with_fallback_in(db, query, model, cfg, sess);
            lock_breaker(breaker).record(r.served_by == ServedBy::Neural);
            if r.served_by == ServedBy::Neural {
                if let (Some((ctx, fp)), Some(predicted_ms)) = (fp, r.predicted_ms) {
                    ctx.cache.insert(
                        &ctx.tenant,
                        query,
                        fp,
                        CachedPlan {
                            plan: r.plan.clone(),
                            predicted_ms,
                            epoch,
                            stats_version: ctx.stats_version,
                            strategy,
                        },
                    );
                }
            }
            r
        } else {
            let reason = if model.is_some() {
                FallbackReason::BreakerOpen
            } else {
                FallbackReason::ModelUnavailable("no model loaded".into())
            };
            classical(db, query, 0, 0.0, vec![reason.clone()], reason)
        }
    }));
    match attempt {
        Ok(result) => {
            tally.eval_candidates += result.evals;
            tally.plan_nodes_encoded += result.nodes_encoded;
            match result.served_by {
                ServedBy::Neural => {
                    tally.served_neural += 1;
                    if result.cache_hit {
                        tally.cache_hits += 1;
                    }
                }
                ServedBy::Classical => tally.served_classical += 1,
            }
            Disposition::Served(result)
        }
        Err(payload) => {
            tally.failed += 1;
            Disposition::Failed(panic_message(payload))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use qpseeker_workloads::{synthetic, Qep, SyntheticConfig};
    use std::sync::Arc;

    fn db_and_workload() -> (Arc<Database>, Vec<Query>) {
        let db = Arc::new(qpseeker_storage::datagen::imdb::generate(0.04, 2));
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 8, seed: 7 });
        let queries = w.qeps.iter().map(|q| q.query.clone()).collect();
        (db, queries)
    }

    fn fitted_model(db: &Arc<Database>) -> QPSeeker {
        let w = synthetic::generate(db, &SyntheticConfig { n_queries: 12, seed: 3 });
        let refs: Vec<&Qep> = w.qeps.iter().collect();
        let mut model = QPSeeker::new(db, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        model
    }

    /// One-off planning on a fresh session.
    fn plan_with_fallback(
        db: &Database,
        query: &Query,
        model: Option<&QPSeeker>,
        cfg: &ServeConfig,
    ) -> ServeResult {
        plan_with_fallback_in(db, query, model, cfg, &mut PlannerSession::new())
    }

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            mcts: MctsConfig { budget_ms: 30.0, max_simulations: 60, ..MctsConfig::default() },
            strategy: Default::default(),
            deadline_ms: 5_000.0,
            max_retries: 1,
            backoff_base_ms: 0.0,
            faults: None,
        }
    }

    #[test]
    fn healthy_model_serves_neurally() {
        let (db, queries) = db_and_workload();
        let model = fitted_model(&db);
        let r = plan_with_fallback(&db, &queries[0], Some(&model), &quick_cfg());
        assert_eq!(r.served_by, ServedBy::Neural);
        assert!(r.fallback_reason.is_none());
        assert!(r.predicted_ms.is_some());
        assert!(r.plan.validate(&queries[0]).is_ok());
    }

    #[test]
    fn missing_model_degrades_to_classical() {
        let (db, queries) = db_and_workload();
        let r = plan_with_fallback(&db, &queries[0], None, &quick_cfg());
        assert_eq!(r.served_by, ServedBy::Classical);
        assert_eq!(r.attempts, 0);
        assert!(matches!(r.fallback_reason, Some(FallbackReason::ModelUnavailable(_))));
        assert!(r.plan.validate(&queries[0]).is_ok());
    }

    #[test]
    fn certain_inference_faults_force_classical_fallback() {
        let (db, queries) = db_and_workload();
        let model = fitted_model(&db);
        let mut cfg = quick_cfg();
        cfg.faults = Some(FaultConfig { inference_nan_p: 1.0, ..FaultConfig::default() });
        let r = plan_with_fallback(&db, &queries[0], Some(&model), &cfg);
        assert_eq!(r.served_by, ServedBy::Classical);
        assert_eq!(r.attempts, 2, "one attempt plus one retry");
        assert_eq!(r.attempt_failures.len(), 2);
        assert!(matches!(r.fallback_reason, Some(FallbackReason::NonFinitePrediction)));
        assert!(r.plan.validate(&queries[0]).is_ok());
    }

    #[test]
    fn injected_panic_is_contained_by_the_attempt_boundary() {
        let (db, queries) = db_and_workload();
        let model = fitted_model(&db);
        let mut cfg = quick_cfg();
        cfg.faults = Some(FaultConfig { inference_panic_p: 1.0, ..FaultConfig::default() });
        let r = plan_with_fallback(&db, &queries[0], Some(&model), &cfg);
        assert_eq!(r.served_by, ServedBy::Classical);
        assert_eq!(r.attempts, 2);
        assert!(matches!(r.fallback_reason, Some(FallbackReason::PlannerPanicked(_))));
        assert!(r.attempt_failures.iter().all(|f| matches!(f, FallbackReason::PlannerPanicked(_))));
        assert!(r.plan.validate(&queries[0]).is_ok());
    }

    #[test]
    fn retry_can_recover_from_a_transient_fault() {
        let (db, queries) = db_and_workload();
        let model = fitted_model(&db);
        // Find a (seed, query) pair where attempt 0 faults but attempt 1
        // does not — the retry must then serve neurally.
        let mut cfg = quick_cfg();
        let mut found = false;
        'outer: for seed in 0..40u64 {
            let faults = FaultConfig { seed, inference_nan_p: 0.5, ..FaultConfig::default() };
            let fi = FaultInjector::new(faults.clone());
            for q in &queries {
                if fi.inference_fault(&q.id, 0).is_some() && fi.inference_fault(&q.id, 1).is_none()
                {
                    cfg.faults = Some(faults);
                    let r = plan_with_fallback(&db, q, Some(&model), &cfg);
                    assert_eq!(r.served_by, ServedBy::Neural, "retry should have recovered");
                    assert_eq!(r.attempts, 2);
                    assert_eq!(r.attempt_failures.len(), 1);
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "no (seed, query) pair with a transient first-attempt fault");
    }

    #[test]
    fn stall_faults_trip_the_deadline_watchdog() {
        let (db, queries) = db_and_workload();
        let model = fitted_model(&db);
        let mut cfg = quick_cfg();
        cfg.max_retries = 0;
        cfg.faults = Some(FaultConfig { inference_stall_p: 1.0, ..FaultConfig::default() });
        let r = plan_with_fallback(&db, &queries[0], Some(&model), &cfg);
        assert_eq!(r.served_by, ServedBy::Classical);
        assert!(matches!(r.fallback_reason, Some(FallbackReason::DeadlineExceeded { .. })));
    }

    /// The virtual instant at which all admitted work completes — the
    /// stream's makespan so far on the admission clock.
    fn makespan(sup: &Supervisor) -> f64 {
        sup.server_free.iter().copied().fold(0.0, f64::max)
    }

    fn tight_breaker_cfg() -> SupervisorConfig {
        SupervisorConfig {
            window: 4,
            min_samples: 4,
            failure_threshold: 0.5,
            cooldown_queries: 2,
            probe_successes: 2,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn breaker_trips_then_recovers_through_half_open_probes() {
        let mut b = CircuitBreaker::new(&tight_breaker_cfg());
        assert_eq!(b.state(), BreakerState::Closed);
        for _ in 0..4 {
            assert!(b.allow_neural());
            b.record(false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 1);
        // Cooldown: two classical-only queries, then a probe is admitted.
        assert!(!b.allow_neural());
        assert!(!b.allow_neural());
        assert!(b.allow_neural(), "cooldown exhausted: probe expected");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(true);
        assert_eq!(b.state(), BreakerState::HalfOpen, "one probe is not enough");
        assert!(b.allow_neural());
        b.record(true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.recoveries, 1);
        assert_eq!(b.probes, 2);
    }

    #[test]
    fn probe_failure_reopens_the_circuit() {
        let mut b = CircuitBreaker::new(&tight_breaker_cfg());
        for _ in 0..4 {
            b.allow_neural();
            b.record(false);
        }
        assert!(!b.allow_neural());
        assert!(!b.allow_neural());
        assert!(b.allow_neural());
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open, "failed probe must re-open");
        // And the cooldown restarts from the top.
        assert!(!b.allow_neural());
        assert!(!b.allow_neural());
        assert!(b.allow_neural());
    }

    #[test]
    fn closed_breaker_tolerates_failures_below_threshold() {
        let mut b = CircuitBreaker::new(&tight_breaker_cfg());
        for i in 0..32 {
            assert!(b.allow_neural());
            b.record(i % 4 != 0); // 25% failures < 50% threshold
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips, 0);
    }

    #[test]
    fn supervisor_sheds_with_recorded_reasons_instead_of_blocking() {
        let (db, queries) = db_and_workload();
        let cfg =
            SupervisorConfig { queue_capacity: 2, service_ms: 10.0, ..SupervisorConfig::default() };
        let mut sup = Supervisor::new(cfg);
        let req = |i: usize, arrival: f64, deadline: f64| QueryRequest {
            query: queries[i % queries.len()].clone(),
            arrival_ms: arrival,
            deadline_ms: deadline,
        };
        let stream = vec![
            req(0, 0.0, 1e9),   // served, finishes at 10
            req(1, 0.0, 1e9),   // served, finishes at 20
            req(2, 0.0, 1e9),   // depth 2 == capacity -> QueueFull
            req(3, 1.0, 5.0),   // cannot finish by 5 even unqueued -> DeadlineUnmeetable
            req(4, 12.0, 25.0), // feasible alone, but queue wait -> ExpiredInQueue
        ];
        let outcomes = sup.run(&db, None, None, None, &stream);
        assert!(matches!(&outcomes[0].disposition, Disposition::Served(_)));
        assert!(matches!(&outcomes[1].disposition, Disposition::Served(_)));
        assert!(matches!(
            &outcomes[2].disposition,
            Disposition::Shed(ShedReason::QueueFull { depth: 2 })
        ));
        assert!(matches!(
            &outcomes[3].disposition,
            Disposition::Shed(ShedReason::DeadlineUnmeetable { .. })
        ));
        assert!(matches!(
            &outcomes[4].disposition,
            Disposition::Shed(ShedReason::ExpiredInQueue { .. })
        ));
        let c = sup.counters();
        assert!(c.conservation_holds(), "{c}");
        assert_eq!(c.admitted, 2);
        assert_eq!(c.served_classical, 2, "no model: everything admitted serves classically");
        assert_eq!(c.shed_queue_full, 1);
        assert_eq!(c.shed_deadline, 1);
        assert_eq!(c.expired_in_queue, 1);
        assert_eq!(c.total_seen(), 5);
        // Every served query still carries a valid plan.
        for o in &outcomes {
            if let Disposition::Served(r) = &o.disposition {
                assert!(r.plan.validate(&queries[0]).is_ok() || r.attempts == 0);
            }
        }
    }

    #[test]
    fn queue_drains_as_virtual_time_advances() {
        let (db, queries) = db_and_workload();
        let cfg =
            SupervisorConfig { queue_capacity: 1, service_ms: 10.0, ..SupervisorConfig::default() };
        let mut sup = Supervisor::new(cfg);
        let req = |arrival: f64| QueryRequest {
            query: queries[0].clone(),
            arrival_ms: arrival,
            deadline_ms: 1e9,
        };
        // Second arrival while the first is in service -> shed; third after
        // the first completes -> admitted again.
        let outcomes = sup.run(&db, None, None, None, &[req(0.0), req(5.0), req(11.0)]);
        assert!(matches!(&outcomes[0].disposition, Disposition::Served(_)));
        assert!(matches!(
            &outcomes[1].disposition,
            Disposition::Shed(ShedReason::QueueFull { .. })
        ));
        assert!(matches!(&outcomes[2].disposition, Disposition::Served(_)));
        assert!(sup.counters().conservation_holds(), "{}", sup.counters());
    }

    #[test]
    fn worker_pool_serves_every_admitted_request() {
        let (db, queries) = db_and_workload();
        // A fixed model is a cell nobody publishes to.
        let cell = ModelCell::new(Arc::new(fitted_model(&db)));
        let cfg = SupervisorConfig {
            serve: quick_cfg(),
            workers: 4,
            queue_capacity: 64,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(cfg);
        let stream: Vec<QueryRequest> = queries
            .iter()
            .map(|q| QueryRequest { query: q.clone(), arrival_ms: 0.0, deadline_ms: 1e9 })
            .collect();
        let outcomes = sup.run(&db, Some(&cell), None, None, &stream);
        assert_eq!(outcomes.len(), stream.len());
        for o in &outcomes {
            assert!(matches!(&o.disposition, Disposition::Served(_)), "{:?}", o.disposition);
        }
        let c = sup.counters();
        assert_eq!(c.admitted, stream.len());
        assert!(c.conservation_holds(), "{c}");
        // Four virtual servers drain eight simultaneous arrivals in two
        // service slots.
        assert!((makespan(&sup) - 20.0).abs() < 1e-9, "{}", makespan(&sup));
    }

    #[test]
    fn multi_server_admission_overlaps_service() {
        let (db, queries) = db_and_workload();
        // One server sheds the second simultaneous arrival at capacity 1;
        // two servers with capacity 2 absorb both.
        let cfg = SupervisorConfig {
            workers: 2,
            queue_capacity: 2,
            service_ms: 10.0,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(cfg);
        let req = |arrival: f64| QueryRequest {
            query: queries[0].clone(),
            arrival_ms: arrival,
            deadline_ms: 15.0 + arrival,
        };
        let outcomes = sup.run(&db, None, None, None, &[req(0.0), req(0.0)]);
        assert!(matches!(&outcomes[0].disposition, Disposition::Served(_)));
        assert!(
            matches!(&outcomes[1].disposition, Disposition::Served(_)),
            "second server should absorb the simultaneous arrival"
        );
        assert!((makespan(&sup) - 10.0).abs() < 1e-9);
        assert!(sup.counters().conservation_holds(), "{}", sup.counters());
    }

    #[test]
    fn backoff_doubles_per_retry() {
        let (db, queries) = db_and_workload();
        let model = fitted_model(&db);
        let mut cfg = quick_cfg();
        cfg.mcts.max_simulations = 4;
        cfg.faults = Some(FaultConfig { inference_nan_p: 1.0, ..FaultConfig::default() });
        // Virtual backoff only (no sleeping in tests beyond a millisecond).
        // 40 retries: an `i32` shift went negative at 32 and overflowed at
        // 33; the total must stay finite and exact.
        let mut last = 0.0;
        for (max_retries, base) in [(3, 0.001), (40, 1e-12)] {
            cfg.max_retries = max_retries;
            cfg.backoff_base_ms = base;
            let r = plan_with_fallback(&db, &queries[0], Some(&model), &cfg);
            assert_eq!(r.attempts, max_retries + 1);
            // base · (1 + 2 + … + 2^(n-1))
            let want = base * (2f64.powi(max_retries as i32) - 1.0);
            assert!(r.backoff_ms.is_finite() && r.backoff_ms > last, "backoff {}", r.backoff_ms);
            assert!((r.backoff_ms - want).abs() < want * 1e-9, "{} != {want}", r.backoff_ms);
            last = r.backoff_ms;
        }
    }
}
