//! The traced pass: per-layer metrics, measured from outside.
//!
//! One untraced and one traced pass over the workload's request list give
//! the tracing overhead and the spans of the real calls into the serve
//! layer. The layers below it cannot be cut out of `plan_with_fallback_in`
//! from outside, so after the pass a sample of requests is *replayed*: each
//! layer's public entry point is called on the request's query and served
//! plan, one span per call. Ablations of the serve layer (warm cache,
//! classical only, one worker, broker off) and kernel timings follow.
//!
//! A layer the workload does not run (the plan cache outside
//! `stream_cached`, the broker outside `tenants_brokered`) reports 0.

use crate::fixture::SetupTimes;
use crate::measure::{self, Options};
use crate::report::{Metric, Report, PER_LAYER};
use crate::run::{self, Bench, Pass, SPAN_PLAN, SPAN_PROBE};
use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{Loop, Workload};
use qpseeker_core::featurize::PlanFeatCache;
use qpseeker_core::prelude::*;
use qpseeker_engine::executor::Executor;
use qpseeker_engine::optimizer::PgOptimizer;
use qpseeker_engine::plan::PlanNode;
use qpseeker_engine::query::Query;
use qpseeker_nn::layers::Activation;
use qpseeker_nn::pack::{gemm_packed, PackedGemm};
use qpseeker_nn::tensor::Tensor;
use qpseeker_tabert::encoder::{TabSim, TabertCache};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Requests replayed per traced pass, spread evenly over the list.
const REPLAY_SAMPLE: usize = 48;
/// Candidate plans per replayed batch — the search's default batch size.
const BATCH: usize = 16;
/// Latent draws of the replayed risk scoring, as in `tenants_brokered`.
const RISK_SAMPLES: usize = 8;
/// Eval budgets of the quality-vs-budget curve.
const BUDGETS: [usize; 4] = [64, 256, 1024, 4096];
/// Distinct queries the curve is measured on: one period of the mix.
const CURVE_QUERIES: usize = 10;

/// Named values collected in any order and emitted in `PER_LAYER` order.
#[derive(Default)]
struct Layers(HashMap<String, (f64, usize)>);

impl Layers {
    fn set(&mut self, name: impl Into<String>, value: f64, n: usize) {
        self.0.insert(name.into(), (value, n));
    }

    /// Median of `samples`; an empty sample is a layer that did not run.
    fn median(&mut self, name: &str, samples: &[f64]) {
        let value = if samples.is_empty() { 0.0 } else { stats::median(samples) };
        self.set(name, value, samples.len());
    }
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

pub fn measure(bench: &Bench, opts: &Options, setups: &[SetupTimes], report: &mut Report) {
    let mut rec = Recorder::new();
    let mut l = Layers::default();

    let warmup = opts.sizes.warmup.min(bench.requests.len());
    run::run_pass(bench, &bench.requests[..warmup], None);
    let untraced = run::run_pass(bench, &bench.requests, None);
    let traced = run::run_pass(bench, &bench.requests, Some(&mut rec));
    let passes = [untraced, traced];
    let summaries: Vec<_> = passes.iter().map(|p| run::summarise(p, &bench.requests)).collect();
    (report.attempted, report.failed) = measure::check(&summaries, &passes, &mut report.problems);
    let [untraced, traced] = &passes;
    // Request by request, so that a burst of interference in one of the
    // two passes moves a few ratios and not the median.
    let overhead: Vec<f64> = traced
        .latencies_ms
        .iter()
        .zip(&untraced.latencies_ms)
        .map(|(t, u)| (t / u - 1.0) * 100.0)
        .collect();
    l.median("trace.overhead_pct", &overhead);

    let setup = measure::fastest_setup(setups);
    l.set("storage.dbgen_s", setup.dbgen_s, setups.len());
    l.set("workloads.jobgen_s", setup.jobgen_s, setups.len());
    l.set("model.fit_qeps_per_s", setup.fit_qeps_per_s(), setups.len());

    kernels(bench, &mut l);
    replay(bench, traced, &mut rec, &mut l);
    search(bench, traced, &summaries[1], &rec, &mut l);
    budget_curve(bench, &mut l);
    plancache(bench, traced, &summaries[1], &mut l, &mut report.problems);
    serve(bench, traced, &mut l, &mut report.problems);
    evalbroker(bench, traced, &mut l);

    let quality = run::quality(bench, traced);
    let distinct = quality.per_query.len();
    l.median("engine.execute_wall_ms", &quality.execute_wall_ms);
    l.set("engine.classical_exec_gm_ms", quality.classical_exec_gm_ms(), distinct);
    l.set("plan.exec_virtual_ms_gm", quality.exec_virtual_ms_gm(), distinct);
    l.set("plan.quality_vs_classical", quality.quality_vs_classical(), distinct);
    l.set(
        "plan.query_total_ms_gm",
        run::query_total_ms_gm(bench, &traced.latencies_ms, &quality),
        traced.latencies_ms.len(),
    );
    measure::exact_values(bench, &summaries[1], &quality, report);

    for spec in PER_LAYER {
        match l.0.remove(spec.name) {
            Some((value, n)) => report.metrics.push(Metric {
                name: spec.name.into(),
                unit: spec.unit.into(),
                value,
                n,
                per_pass: vec![value],
            }),
            None => {
                report.problems.push(format!("per-layer metric {} was not measured", spec.name))
            }
        }
    }
    for name in l.0.keys() {
        report.problems.push(format!("measured {name} is not a declared per-layer metric"));
    }

    if let Some(dir) = &opts.out {
        let path = dir.join(format!("trace-{}-seed{}.json", report.workload, report.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, rec.to_json()));
        if let Err(e) = written {
            report.problems.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    eprintln!("perfbench: {} spans recorded", rec.len());
}

/// The two GEMM families at the LSTM gate shape of a 16-plan batch:
/// `[16 × node_input] · [node_input × 4·hidden]`.
fn kernels(bench: &Bench, l: &mut Layers) {
    let cfg = &bench.fixture.model.config;
    let (m, k, n) =
        (BATCH, cfg.node_input_dim(bench.fixture.db.catalog.num_tables()), 4 * cfg.plan_node_out);
    let a = Tensor::from_vec(m, k, (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect());
    let w = Tensor::from_vec(k, n, (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect());
    let packed = PackedGemm::pack(&w);
    let mut out = vec![0.0f32; m * n];
    let time = |f: &mut dyn FnMut()| {
        // 30 samples of 20 calls each; the reported value is their median.
        let samples: Vec<f64> = (0..30)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..20 {
                    f();
                }
                us(t) / 20.0
            })
            .collect();
        stats::median(&samples)
    };
    let packed_us = time(&mut || {
        gemm_packed(m, black_box(a.data()), &packed, false, None, Activation::Identity, &mut out);
        black_box(&mut out);
    });
    let unpacked_us = time(&mut || {
        black_box(black_box(&a).matmul(black_box(&w)));
    });
    l.set("nn.gemm_packed_us", packed_us, 30);
    l.set("nn.matmul_unpacked_us", unpacked_us, 30);
    // Computed, not measured: 2·m·k·n flops; operands and result once each.
    l.set("nn.gemm_flops", (2 * m * k * n) as f64, 1);
    l.set("nn.gemm_bytes", (4 * (m * k + k * n + m * n)) as f64, 1);
}

/// Requests to replay: first occurrences of distinct queries among those
/// whose latency was observed, thinned evenly to `REPLAY_SAMPLE`.
fn replay_sample(bench: &Bench, traced: &Pass) -> Vec<usize> {
    let mut seen = HashSet::new();
    let firsts: Vec<usize> = (0..traced.latencies_ms.len())
        .filter(|&i| seen.insert((&bench.requests[i].tenant, &bench.requests[i].req.query.id)))
        .collect();
    let stride = firsts.len().div_ceil(REPLAY_SAMPLE).max(1);
    firsts.into_iter().step_by(stride).collect()
}

/// Call each layer's entry point on the request's query and served plan.
/// Every call is preceded by an untimed one, so a span is the steady cost
/// inside a search (per-query caches warm), not the first-evaluation cost.
fn replay(bench: &Bench, traced: &Pass, rec: &mut Recorder, l: &mut Layers) {
    let (db, model) = (&bench.fixture.db, &bench.fixture.model);
    let norm = model.normalizer.as_ref().expect("the fixture model is fitted");
    let featurizer = Featurizer::new(Arc::clone(db), TabSim::new(model.config.tabert.clone()));
    let tabsim = TabSim::new(model.config.tabert.clone());
    let eps = model.risk_eps(RISK_SAMPLES, 0x5eed);
    let classical = PgOptimizer::new(db);

    for i in replay_sample(bench, traced) {
        let query = &bench.requests[i].req.query;
        let Some(plan) = run::plan_of(&traced.served[i]) else { continue };
        let plans: Vec<&PlanNode> = vec![plan; BATCH];
        rec.span("replay", i, |rec| {
            let mut ctx = rec.span("featurize.query_context", i, |_| model.query_context(query));
            let mut feat = FeatSession::new();
            let (mut preds, mut risks, mut nodes) = (Vec::new(), Vec::new(), Vec::new());

            model.predict_batch_with_context_in(&mut feat, query, &plans, &mut ctx, &mut preds);
            rec.span("model.score_scalar", i, |_| {
                black_box(model.predict_with_context_in(&mut feat, query, plan, &mut ctx))
            });
            rec.span("model.score_batch16", i, |_| {
                model.predict_batch_with_context_in(&mut feat, query, &plans, &mut ctx, &mut preds)
            });
            model.predict_risk_batch_with_context_in(
                &mut feat, query, &plans, &mut ctx, &eps, &mut risks,
            );
            rec.span("model.score_risk16", i, |_| {
                model.predict_risk_batch_with_context_in(
                    &mut feat, query, &plans, &mut ctx, &eps, &mut risks,
                )
            });

            let mut cache = PlanFeatCache::new(query);
            featurizer.featurize_batch_into(&mut feat, query, &plans, norm, &mut cache, &mut nodes);
            rec.span("featurize.plan_batch16", i, |_| {
                featurizer
                    .featurize_batch_into(&mut feat, query, &plans, norm, &mut cache, &mut nodes)
            });

            // Cold: a fresh cache, as the first request touching the table pays.
            let sql = query.to_sql();
            rec.span("tabert.encode_table", i, |_| {
                black_box(tabsim.encode_table(
                    &mut TabertCache::new(),
                    db,
                    &query.relations[0].table,
                    &sql,
                ))
            });
            rec.span("engine.optimizer", i, |_| black_box(classical.plan(query)));
        });
    }

    let durations = |name: &str, per: f64| -> Vec<f64> {
        rec.durations_us(name).into_iter().map(|(_, d)| d / per).collect()
    };
    l.median("featurize.query_context_us", &durations("featurize.query_context", 1.0));
    l.median("featurize.plan_us_per_plan", &durations("featurize.plan_batch16", BATCH as f64));
    l.median("model.score_scalar_us", &durations("model.score_scalar", 1.0));
    l.median("model.score_batch16_us_per_plan", &durations("model.score_batch16", BATCH as f64));
    l.median("model.score_risk16_us_per_plan", &durations("model.score_risk16", BATCH as f64));
    l.median("tabert.encode_table_us", &durations("tabert.encode_table", 1.0));
    l.median("engine.optimizer_us", &durations("engine.optimizer", 1.0));
}

/// Search cost per request and per evaluation, and the share of a search
/// that is not scoring.
///
/// `search.self_share` is an estimate: 1 − (query context + evals × batched
/// per-plan scoring cost) / search wall, with the replayed costs of the same
/// request. It holds because every complete plan of one query has the same
/// node count, so the served plan's scoring cost stands for every candidate.
fn search(
    bench: &Bench,
    traced: &Pass,
    summary: &run::PassSummary,
    rec: &Recorder,
    l: &mut Layers,
) {
    let searched = summary.requests - summary.cache_hits;
    l.set("search.evals_per_req", summary.evals as f64 / searched.max(1) as f64, searched);

    let real = match bench.workload.kind() {
        Loop::Closed => SPAN_PLAN,
        Loop::Stream => SPAN_PROBE,
    };
    let by_request =
        |name: &str| -> HashMap<usize, f64> { rec.durations_us(name).into_iter().collect() };
    let (wall, ctx) = (by_request(real), by_request("featurize.query_context"));
    let (mean_scoring, risk_scoring) =
        (by_request("model.score_batch16"), by_request("model.score_risk16"));
    let lanes = bench.workload.lanes();
    let mut us_per_eval = Vec::new();
    let mut self_share = Vec::new();
    for (&i, ctx_us) in &ctx {
        let evals = traced.latency_evals[i];
        let (Some(wall_us), true) = (wall.get(&i), evals > 0) else { continue };
        let lane = lanes.iter().find(|(id, _)| *id == bench.requests[i].tenant);
        let risky = lane.is_some_and(|(_, s)| s.risk_lambda > 0.0);
        let batch_us = if risky { risk_scoring[&i] } else { mean_scoring[&i] };
        us_per_eval.push(wall_us / evals as f64);
        self_share.push(1.0 - (ctx_us + evals as f64 * batch_us / BATCH as f64) / wall_us);
    }
    l.median("search.us_per_eval", &us_per_eval);
    l.median("search.self_share", &self_share);
}

/// Executed quality and planning time against the eval budget, per
/// strategy, on the first `CURVE_QUERIES` distinct queries of the list.
fn budget_curve(bench: &Bench, l: &mut Layers) {
    let (db, model) = (&bench.fixture.db, &bench.fixture.model);
    let mut seen = HashSet::new();
    let queries: Vec<&Query> = bench
        .requests
        .iter()
        .map(|r| &r.req.query)
        .filter(|q| seen.insert(&q.id))
        .take(CURVE_QUERIES)
        .collect();
    let exec = Executor::new(db);
    for kind in [StrategyKind::Mcts, StrategyKind::Beam] {
        for budget in BUDGETS {
            let planner = StrategyPlanner::from_config(
                &StrategyConfig { kind, ..StrategyConfig::default() },
                MctsConfig { budget_ms: 1e9, max_simulations: budget, ..MctsConfig::default() },
            );
            let mut sess = PlannerSession::new();
            let (mut wall_ms, mut exec_ms) = (Vec::new(), Vec::new());
            for q in &queries {
                let t = Instant::now();
                let result = planner.plan_with_session(model, q, &mut sess);
                wall_ms.push(us(t) / 1e3);
                exec_ms.push(exec.execute(&result.plan).time_ms);
            }
            let k = kind.as_str();
            l.set(
                format!("search.{k}.exec_gm_ms_at_{budget}"),
                stats::geomean(&exec_ms),
                exec_ms.len(),
            );
            l.median(&format!("search.{k}.plan_ms_p50_at_{budget}"), &wall_ms);
        }
    }
}

/// The plan cache called directly on the workload's distinct queries, and
/// what the cached stream did to it.
fn plancache(
    bench: &Bench,
    traced: &Pass,
    summary: &run::PassSummary,
    l: &mut Layers,
    problems: &mut Vec<String>,
) {
    let mut seen = HashSet::new();
    let distinct: Vec<usize> = (0..bench.requests.len())
        .filter(|&i| seen.insert((&bench.requests[i].tenant, &bench.requests[i].req.query.id)))
        .take(256)
        .collect();
    let cache = PlanCache::new(crate::workloads::CACHE_SHARDS, distinct.len());
    let stamp = StrategyConfig::default().cache_stamp();
    let (mut fp_ns, mut miss_ns, mut insert_ns, mut hit_ns) = (vec![], vec![], vec![], vec![]);
    let mut fps = Vec::with_capacity(distinct.len());
    for &i in &distinct {
        let q = &bench.requests[i].req.query;
        let t = Instant::now();
        let fp = black_box(query_fingerprint(q));
        fp_ns.push(us(t) * 1e3);
        fps.push(fp);
        let t = Instant::now();
        let miss = cache.lookup(&bench.requests[i].tenant, q, fp, 0, 0, stamp);
        miss_ns.push(us(t) * 1e3);
        assert!(miss.is_none(), "an empty cache cannot hit");
    }
    for (&i, &fp) in distinct.iter().zip(&fps) {
        let Some(plan) = run::plan_of(&traced.served[i]) else { continue };
        let entry = CachedPlan {
            plan: plan.clone(),
            predicted_ms: 0.0,
            epoch: 0,
            stats_version: 0,
            strategy: stamp,
        };
        let t = Instant::now();
        let r = &bench.requests[i];
        cache.insert(&r.tenant, &r.req.query, fp, entry);
        insert_ns.push(us(t) * 1e3);
    }
    for (&i, &fp) in distinct.iter().zip(&fps) {
        let t = Instant::now();
        let r = &bench.requests[i];
        let hit = black_box(cache.lookup(&r.tenant, &r.req.query, fp, 0, 0, stamp));
        hit_ns.push(us(t) * 1e3);
        if hit.is_none() {
            problems.push(format!("plan cache lost the entry of request {i}"));
        }
    }
    l.median("plancache.fingerprint_ns", &fp_ns);
    l.median("plancache.lookup_miss_ns", &miss_ns);
    l.median("plancache.insert_ns", &insert_ns);
    l.median("plancache.lookup_hit_ns", &hit_ns);

    let stats = traced.cache.unwrap_or_default();
    l.set("plancache.hit_rate", stats.hit_rate(), (stats.hits + stats.misses) as usize);
    l.set("plancache.evictions", stats.evictions as f64, 1);
    // Two workers can miss the same query at the same time and both search
    // it; one worker cannot. The difference is work the cache did not save.
    let duplicate = if bench.workload == Workload::StreamCached {
        let cache =
            Arc::new(PlanCache::new(crate::workloads::CACHE_SHARDS, bench.sizes.cache_per_shard));
        let mut one = bench.workload.supervisor_with(&bench.fixture.db, 1, Some(cache), false);
        run::serve_chunked(&mut one, bench, &bench.registry, &bench.requests, &mut None);
        summary.evals as f64 - one.merged_counters().eval_candidates as f64
    } else {
        0.0
    };
    l.set("plancache.duplicate_miss_evals", duplicate, 1);
}

/// Serve `requests` through `sup` the way the timed passes do and return
/// the dispositions with the wall µs per request.
fn us_per_request(
    sup: &mut MultiTenantSupervisor,
    bench: &Bench,
    registry: &ModelRegistry,
    requests: &[TenantRequest],
) -> (Vec<Disposition>, f64) {
    let (served, unit_s) = run::serve_chunked(sup, bench, registry, requests, &mut None);
    (served, unit_s.iter().sum::<f64>() * 1e6 / requests.len().max(1) as f64)
}

/// Ablations of the serve layer: every request a cache hit, every request
/// classical, and one worker against two.
fn serve(bench: &Bench, traced: &Pass, l: &mut Layers, problems: &mut Vec<String>) {
    let db = &bench.fixture.db;
    let workers = bench.workload.workers();
    let n = bench.requests.len();

    // A cache that already holds every request's served plan.
    let cache = Arc::new(PlanCache::new(crate::workloads::CACHE_SHARDS, n));
    let stamps: HashMap<&str, u64> =
        bench.workload.lanes().into_iter().map(|(id, s)| (id, s.cache_stamp())).collect();
    for (r, d) in bench.requests.iter().zip(&traced.served) {
        let (Some(handle), Disposition::Served(res)) = (bench.registry.get(&r.tenant), d) else {
            continue;
        };
        let entry = CachedPlan {
            plan: res.plan.clone(),
            predicted_ms: res.predicted_ms.unwrap_or(0.0),
            epoch: handle.cell.epoch(),
            stats_version: handle.stats_version,
            strategy: stamps[r.tenant.as_str()],
        };
        cache.insert(&r.tenant, &r.req.query, query_fingerprint(&r.req.query), entry);
    }
    let mut warm = bench.workload.supervisor_with(db, workers, Some(cache), true);
    let (out, hit_us) = us_per_request(&mut warm, bench, &bench.registry, &bench.requests);
    let hits = warm.merged_counters().cache_hits;
    if hits != n {
        problems.push(format!("warm-cache pass hit {hits} of {n} requests"));
    }
    if !out.iter().zip(&traced.served).all(|(o, d)| run::plan_of(o) == run::plan_of(d)) {
        problems.push("warm-cache pass served other plans than the traced pass".into());
    }
    l.set("serve.hit_only_us_per_req", hit_us, n);

    // No model resident: every lane plans classically on its own database.
    let nobody = ModelRegistry::new(usize::MAX);
    let mut classical = bench.workload.supervisor_with(db, workers, None, false);
    let (_, classical_us) = us_per_request(&mut classical, bench, &nobody, &bench.requests);
    if !classical.merged_counters().conservation_holds() {
        problems.push("classical-only pass breaks conservation".into());
    }
    l.set("serve.classical_only_us_per_req", classical_us, n);

    // One lane, cache and broker off, one worker against two.
    let lane: Vec<TenantRequest> = bench
        .requests
        .iter()
        .filter(|r| r.tenant == "a")
        .take(bench.sizes.scaling)
        .cloned()
        .collect();
    let rps = |workers: usize| {
        let mut sup = bench.workload.supervisor_with(db, workers, None, false);
        1e6 / us_per_request(&mut sup, bench, &bench.registry, &lane).1
    };
    let (one, two) = (rps(1), rps(2));
    l.set("serve.scaling_2w_over_1w", two / one, lane.len());

    let retries: usize = traced
        .served
        .iter()
        .map(|d| match d {
            Disposition::Served(r) => r.attempts.saturating_sub(1),
            _ => 0,
        })
        .sum();
    l.set("serve.retries", retries as f64, n);
    l.set("serve.breaker_opens", traced.counters.breaker_trips as f64, 1);
}

/// What the shared broker fused, and what it costs or buys against the
/// same stream scored per session.
fn evalbroker(bench: &Bench, traced: &Pass, l: &mut Layers) {
    let c = &traced.counters;
    l.set("evalbroker.fused_batches", c.fused_batches as f64, 1);
    l.set("evalbroker.occupancy_mean", c.fused_occupancy_mean(), c.fused_batches);
    let flushes = c.broker_flush_size + c.broker_flush_deadline;
    l.set(
        "evalbroker.flush_size_share",
        c.broker_flush_size as f64 / flushes.max(1) as f64,
        flushes,
    );
    let on_over_off = if bench.workload == Workload::TenantsBrokered {
        let workers = bench.workload.workers();
        let mut off = bench.workload.supervisor_with(&bench.fixture.db, workers, None, false);
        let off_rps = 1e6 / us_per_request(&mut off, bench, &bench.registry, &bench.requests).1;
        traced.rps() / off_rps
    } else {
        0.0
    };
    l.set("evalbroker.rps_on_over_off", on_over_off, 1);
}
