//! End-to-end suite for the online adaptation loop (experience WAL, gated
//! fine-tuning, hot-swap, rollback, drift recovery).
//!
//! Guarantees exercised:
//! 1. a kill at *any* durable write — WAL append, fine-tune journal
//!    snapshot, promoted checkpoint, trainer cursor — recovers to a
//!    consistent state: the WAL holds exactly the acknowledged prefix
//!    (no loss, no duplicates), the serving model is finite and valid, and
//!    the loop keeps serving;
//! 2. a hot-swap landing mid-run never drops an in-flight request:
//!    accounting is conserved exactly across every swap point
//!    (admitted = served_neural + served_classical + failed);
//! 3. a regressed publish is rolled back automatically by the monitor, and
//!    traffic returns to the pre-swap model;
//! 4. under mid-stream data drift, the online loop retrains and recovers
//!    its plan quality while a frozen model degrades.
//!
//! Set `QPS_CHAOS_SEED` to vary every fault schedule (CI sweeps seeds).

mod common;

use common::OneLane;
use qpseeker_repro::core::prelude::*;
use qpseeker_repro::engine::executor::Executor;
use qpseeker_repro::storage::{Database, FaultConfig};
use qpseeker_repro::workloads::{drift, synthetic, Qep, SyntheticConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

fn chaos_seed() -> u64 {
    std::env::var("QPS_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("qps-online-it-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The pre-drift database (stock IMDb shape) shared by every test.
fn pre_db() -> &'static Arc<Database> {
    static DB: OnceLock<Arc<Database>> = OnceLock::new();
    DB.get_or_init(|| Arc::new(drift::pre_db(0.05, 11)))
}

/// The post-drift database: same seed, canonical drift profile applied.
fn post_db() -> &'static Arc<Database> {
    static DB: OnceLock<Arc<Database>> = OnceLock::new();
    DB.get_or_init(|| Arc::new(drift::post_db(0.05, 11)))
}

/// One model fitted on the pre-drift workload, shared via checkpoint so each
/// test gets its own `Arc` (tests mutate cells, never the weights).
fn base_checkpoint() -> &'static Checkpoint {
    static CKPT: OnceLock<Checkpoint> = OnceLock::new();
    CKPT.get_or_init(|| {
        let db = pre_db();
        let w = synthetic::generate(db, &SyntheticConfig { n_queries: 16, seed: 3 });
        let refs: Vec<&Qep> = w.qeps.iter().collect();
        let mut model = QPSeeker::new(db, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        Checkpoint::capture(&model, db)
    })
}

fn base_model() -> Arc<QPSeeker> {
    Arc::new(base_checkpoint().clone().restore(pre_db()).expect("restore succeeds"))
}

/// Nothing timing-dependent: simulation-capped MCTS, breaker that cannot
/// trip, generous queue and deadlines.
fn supervisor_cfg(workers: usize) -> SupervisorConfig {
    SupervisorConfig {
        serve: ServeConfig {
            mcts: MctsConfig { budget_ms: 1e9, max_simulations: 16, ..MctsConfig::default() },
            strategy: Default::default(),
            deadline_ms: 1e12,
            max_retries: 1,
            backoff_base_ms: 0.0,
            faults: None,
        },
        window: 16,
        min_samples: 8,
        failure_threshold: 2.0,
        cooldown_queries: 8,
        probe_successes: 3,
        queue_capacity: 4096,
        service_ms: 5.0,
        workers,
        broker: None,
    }
}

fn online_cfg(dir: &PathBuf) -> OnlineConfig {
    let mut cfg = OnlineConfig::new(dir);
    cfg.supervisor = supervisor_cfg(1);
    cfg.retrain_every = 8;
    cfg.holdout = 2;
    cfg.fine_tune_epochs = 2;
    cfg.segment_records = 16;
    cfg
}

fn requests(db: &Arc<Database>, n: usize, seed: u64) -> Vec<QueryRequest> {
    synthetic::generate_queries(db, &SyntheticConfig { n_queries: n, seed })
        .into_iter()
        .enumerate()
        .map(|(i, (query, _tmpl))| QueryRequest { query, arrival_ms: i as f64, deadline_ms: 1e12 })
        .collect()
}

fn assert_conserved(c: &ServeCounters) {
    assert!(c.conservation_holds(), "request accounting must be conserved: {c}");
}

fn params_finite(model: &QPSeeker) -> bool {
    model.store.iter().all(|(_, p)| p.value.data().iter().all(|v| v.is_finite()))
}

/// Guarantee 1a, WAL path in isolation: kill the loop at every WAL append;
/// a restart over the same state dir recovers exactly the acknowledged
/// records — never one fewer, never a duplicate, never a gap.
#[test]
fn kill_at_every_wal_append_recovers_exact_acknowledged_prefix() {
    let db = pre_db();
    for k in 0..8u64 {
        let dir = scratch(&format!("wal-kill-{k}"));
        let mut cfg = online_cfg(&dir);
        cfg.retrain_every = 10_000; // isolate: the only durable writes are WAL appends
        cfg.supervisor.serve.faults = Some(FaultConfig {
            seed: chaos_seed(),
            crash_after_writes: Some(k),
            ..FaultConfig::default()
        });
        let mut op = OnlinePlanner::new(cfg, base_model(), db).expect("open loop");
        let reqs = requests(db, 10, 0x5eed ^ chaos_seed());
        let err = op.run_batch(db, &reqs).expect_err("crash point must fire");
        assert!(matches!(err, CoreError::InjectedCrash { .. }), "got {err}");
        // Every request was answered before observation began.
        assert_conserved(&op.serve_counters());
        assert_eq!(op.serve_counters().admitted, reqs.len());
        let acked = op.counters().records_logged;
        assert_eq!(acked as u64, k, "exactly k appends were acknowledged");
        drop(op);

        // "Restart": a clean loop over the same directory.
        let mut clean = online_cfg(&dir);
        clean.retrain_every = 10_000;
        let op2 = OnlinePlanner::new(clean, base_model(), db).expect("recovery succeeds");
        assert_eq!(op2.wal().len(), acked, "recovered records == acknowledged records");
        for (i, r) in op2.wal().records().iter().enumerate() {
            assert_eq!(r.seq, i as u64, "sequence numbers must stay contiguous");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Guarantee 1b, the whole round: kill at *any* durable write of a full
/// serve→observe→fine-tune→promote round (WAL appends, journal snapshots,
/// promoted checkpoint, trainer cursor). Whatever the crash point, a restart
/// recovers a contiguous WAL, a finite serving model, and a loop that keeps
/// serving with exact accounting.
#[test]
fn kill_anywhere_in_a_retrain_round_recovers_to_a_consistent_loop() {
    let db = pre_db();
    let mut crashed = 0usize;
    let mut completed = 0usize;
    for k in 0..18u64 {
        let dir = scratch(&format!("round-kill-{k}"));
        let mut cfg = online_cfg(&dir);
        cfg.supervisor.serve.faults = Some(FaultConfig {
            seed: chaos_seed(),
            crash_after_writes: Some(k),
            ..FaultConfig::default()
        });
        let mut op = OnlinePlanner::new(cfg, base_model(), db).expect("open loop");
        let reqs = requests(db, 10, 0xab1e ^ chaos_seed());
        match op.run_batch(db, &reqs) {
            Ok(report) => {
                // k was past the round's last durable write.
                completed += 1;
                assert!(report.promotion.is_some(), "a full round must reach the gate");
            }
            Err(e) => {
                crashed += 1;
                assert!(matches!(e, CoreError::InjectedCrash { .. }), "got {e}");
            }
        }
        drop(op);

        let clean = online_cfg(&dir);
        let mut op2 = OnlinePlanner::new(clean, base_model(), db).expect("recovery succeeds");
        for (i, r) in op2.wal().records().iter().enumerate() {
            assert_eq!(r.seq, i as u64, "k={k}: WAL must recover contiguous");
        }
        let (serving, _) = op2.cell().load();
        assert!(params_finite(&serving), "k={k}: recovered serving model must be finite");
        // The loop keeps working after recovery.
        let report = op2.run_batch(db, &requests(db, 8, 0xbee ^ chaos_seed())).expect("serve on");
        assert_eq!(report.outcomes.len(), 8);
        assert_conserved(&op2.serve_counters());
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(crashed > 0, "sweep never hit a crash point — widen the range");
    assert!(completed > 0, "sweep never completed a round — widen the range");
}

/// Guarantee 2: hot-swaps landing continuously under a 4-worker pool never
/// drop an in-flight request; accounting is conserved across every swap
/// point and every outcome is served.
#[test]
fn hot_swap_storm_mid_run_preserves_every_request() {
    let db = pre_db();
    let a = base_model();
    let b = base_model(); // distinct Arc, same weights
    let stream = requests(db, 24, 0xd00d ^ chaos_seed());
    let mut sup = OneLane::new(supervisor_cfg(4), db, Some(&a));
    let cell = sup.cell();

    let done = AtomicBool::new(false);
    let outcomes = std::thread::scope(|s| {
        let cell_ref = &cell;
        let done_ref = &done;
        let (a, b) = (&a, &b);
        s.spawn(move || {
            let mut i = 0u32;
            while !done_ref.load(Ordering::Relaxed) && i < 500 {
                let m = if i.is_multiple_of(2) { Arc::clone(b) } else { Arc::clone(a) };
                cell_ref.publish(m);
                i += 1;
                std::thread::yield_now();
            }
        });
        let out = sup.run(&stream);
        done.store(true, Ordering::Relaxed);
        out
    });

    let c = sup.counters();
    assert_eq!(c.admitted, stream.len(), "generous bounds must admit everything");
    assert_conserved(&c);
    assert_eq!(c.failed, 0, "a swap must never fail a request");
    for o in &outcomes {
        assert!(
            matches!(o.disposition, Disposition::Served(_)),
            "query {} was dropped across a swap",
            o.query_id
        );
    }
    assert!(cell.epoch() > 0, "at least one swap landed");
}

/// The online loop creates its own eval broker per batch when
/// `supervisor.broker` asks for one. On a `retrain_every` stream at 2
/// workers, broker-on serves every request exactly as broker-off (same
/// disposition, plan, prediction bits and eval count), runs the same
/// retrain rounds, and ends with the same counters once the broker's own
/// gauges are set aside — with conservation and every candidate row fused.
#[test]
fn online_loop_is_identical_with_and_without_a_broker() {
    let db = pre_db();
    let reqs = requests(db, 20, 0xb20c ^ chaos_seed());
    let run = |broker: Option<BrokerConfig>| {
        let dir = scratch(&format!("broker-{}", broker.is_some()));
        let mut cfg = online_cfg(&dir);
        cfg.supervisor = supervisor_cfg(2);
        cfg.supervisor.broker = broker;
        let mut op = OnlinePlanner::new(cfg, base_model(), db).expect("open loop");
        let (mut fates, mut promotions) = (Vec::new(), Vec::new());
        for batch in reqs.chunks(10) {
            let report = op.run_batch(db, batch).expect("clean batch");
            promotions.push(report.promotion);
            for o in report.outcomes {
                let Disposition::Served(r) = o.disposition else {
                    panic!("query {}: not served: {:?}", o.query_id, o.disposition)
                };
                fates.push((o.query_id, r.plan, r.predicted_ms.map(f64::to_bits), r.evals));
            }
        }
        let counters = (op.serve_counters(), op.counters());
        drop(op);
        let _ = std::fs::remove_dir_all(&dir);
        (fates, promotions, counters)
    };
    let (off_fates, off_promotions, (off, off_online)) = run(None);
    let (on_fates, on_promotions, (on, on_online)) = run(Some(BrokerConfig::default()));

    assert_eq!(on_fates, off_fates, "plans, predictions or evals moved with the broker");
    assert_eq!(on_promotions, off_promotions);
    assert_eq!(on_online, off_online);
    assert!(off_online.retrain_rounds >= 1, "the stream must cross a retrain round");
    assert_conserved(&off);
    assert_conserved(&on);
    assert_eq!(off.fused_batches, 0);
    assert!(on.fused_batches > 0, "the loop must score through its broker");
    assert_eq!(on.fused_rows, on.eval_candidates, "every candidate row crossed the broker");
    let normalized = |mut c: ServeCounters| {
        c.fused_batches = 0;
        c.fused_rows = 0;
        c.fused_occupancy_max = 0;
        c.broker_flush_size = 0;
        c.broker_flush_deadline = 0;
        c
    };
    assert_eq!(normalized(on), normalized(off));
}

/// An in-flight holder of the old model keeps a fully usable planner after
/// swap and rollback — publication never invalidates live references.
#[test]
fn in_flight_model_reference_survives_swap_and_rollback() {
    let db = pre_db();
    let a = base_model();
    let cell = ModelCell::new(Arc::clone(&a));
    let (held, epoch0) = cell.load();
    cell.publish(base_model());
    cell.rollback();
    assert!(Arc::ptr_eq(&held, &a));
    assert!(cell.epoch() > epoch0, "both transitions bumped the epoch");
    // The held reference still plans end to end.
    let q = &requests(db, 1, 5)[0].query;
    let planner = MctsPlanner::new(MctsConfig { max_simulations: 8, ..MctsConfig::default() });
    let result = planner.plan(&held, q);
    assert!(Executor::new(db).execute(&result.plan).time_ms > 0.0);
}

/// Guarantee 3: an out-of-band publish of a garbage model regresses observed
/// runtimes; the monitor catches it and traffic rolls back to the good model
/// automatically.
#[test]
fn regressed_publish_is_rolled_back_automatically() {
    let db = pre_db();
    let dir = scratch("rollback");
    let mut cfg = online_cfg(&dir);
    cfg.retrain_every = 10_000; // isolate the rollback path from retraining
    cfg.rollback_window = 16;
    cfg.rollback_min_samples = 6;
    cfg.rollback_threshold = 1.25;
    let mut op = OnlinePlanner::new(cfg, base_model(), db).expect("open loop");

    // A recurring workload: the same batch before and after the swap, so
    // the only variable the monitor sees is the model change.
    let recurring = requests(db, 10, 42);

    // Establish a baseline on the good model.
    op.run_batch(db, &recurring).expect("baseline batch");
    assert_eq!(op.counters().rollbacks, 0);
    let (good, _) = op.cell().load();

    // Deploy a sabotaged model out of band: negated weights make its cost
    // estimates garbage, so MCTS picks plans blind.
    let mut bad = base_checkpoint().clone().restore(db).expect("restore");
    let ids: Vec<_> = bad.store.iter().map(|(id, _)| id).collect();
    for id in ids {
        for v in bad.store.value_mut(id).data_mut() {
            *v = -*v;
        }
    }
    op.publish_unchecked(Arc::new(bad));

    // Post-swap traffic; the monitor needs min_samples observations.
    let mut rolled = false;
    for _ in 0..3 {
        let report = op.run_batch(db, &recurring).expect("post-swap batch");
        if report.rolled_back {
            rolled = true;
            break;
        }
    }
    assert!(rolled, "monitor must detect the regression and roll back");
    assert_eq!(op.counters().rollbacks, 1);
    let (now, _) = op.cell().load();
    assert!(Arc::ptr_eq(&now, &good), "traffic must return to the pre-swap model");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mean observed runtime of the plans a supervisor chooses for `reqs` on
/// `db`, with `model` (None = classical optimizer). The executor's virtual
/// clock makes this deterministic.
fn mean_plan_ms(db: &Arc<Database>, model: Option<&Arc<QPSeeker>>, reqs: &[QueryRequest]) -> f64 {
    let outcomes = OneLane::new(supervisor_cfg(1), db, model).run(reqs);
    mean_served_ms(db, &outcomes)
}

fn mean_served_ms(db: &Arc<Database>, outcomes: &[SupervisedOutcome]) -> f64 {
    let times: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| match &o.disposition {
            Disposition::Served(r) => Some(Executor::new(db).execute(&r.plan).time_ms),
            _ => None,
        })
        .collect();
    assert!(!times.is_empty(), "no served outcomes to measure");
    times.iter().sum::<f64>() / times.len() as f64
}

/// Guarantee 4, the drift scenario: the data shifts mid-stream (fact tables
/// rebalance, fan-out skews flip). The classical optimizer re-plans from
/// fresh statistics, so normalizing by its plan runtimes isolates *model*
/// quality from the raw cost shift. The frozen model's normalized cost
/// degrades post-drift; the online loop retrains on its own observations
/// and recovers to within 10% of its pre-drift ratio.
#[test]
fn online_model_recovers_from_drift_while_frozen_degrades() {
    let pre = pre_db();
    let post = post_db();
    // One fixed query stream, drawn against the pre-drift database so the
    // queries themselves are constant across the drift point; a separate
    // fixed evaluation set measures plan quality outside the serving loop.
    let eval = requests(pre, 20, 7);
    let stream = requests(pre, 50, 7);
    let chunks: Vec<&[QueryRequest]> = stream.chunks(10).collect();

    let dir = scratch("drift");
    let mut cfg = online_cfg(&dir);
    cfg.retrain_every = 8;
    cfg.holdout = 2;
    cfg.fine_tune_epochs = 3;
    cfg.gate_tolerance = 0.10;
    let base = base_model();
    let mut op = OnlinePlanner::new(cfg, Arc::clone(&base), pre).expect("open loop");

    // Pre-drift baseline: how much worse than the classical optimizer the
    // model's plans run, on the same data (ratio 1.0 = parity).
    let r0 = mean_plan_ms(pre, Some(&base), &eval) / mean_plan_ms(pre, None, &eval);
    // The frozen model meets the drift with no adaptation.
    let frozen_post = mean_plan_ms(post, Some(&base), &eval) / mean_plan_ms(post, None, &eval);

    // The online loop serves the same stream: one pre-drift batch, then the
    // data shifts underneath it and it retrains on what it observes.
    op.run_batch(pre, chunks[0]).expect("pre-drift batch");
    for chunk in &chunks[1..] {
        op.run_batch(post, chunk).expect("post-drift batch");
    }
    let (adapted, _) = op.cell().load();
    let online_final = mean_plan_ms(post, Some(&adapted), &eval) / mean_plan_ms(post, None, &eval);

    assert!(
        op.counters().promotions >= 1,
        "the loop must promote at least one fine-tuned model post-drift: {}",
        op.counters()
    );
    assert!(
        frozen_post > r0 * 1.15,
        "the frozen model must degrade under drift: pre {r0:.3} post {frozen_post:.3}"
    );
    assert!(
        online_final <= r0 * 1.10,
        "the online model must recover to within 10% of pre-drift: r0 {r0:.3} final {online_final:.3} (frozen post {frozen_post:.3})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
