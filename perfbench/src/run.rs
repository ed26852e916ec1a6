//! Timed passes over one request list, the output check, and the
//! executed-quality figures.
//!
//! A pass serves the whole list once, with fresh per-pass state, as a
//! sequence of *timed units*: one request on a closed loop, one `run` call
//! (a chunk of the stream, or one probed request) on a stream. The work of
//! a unit is identical in every pass — the plan fingerprint check shows it —
//! so the passes differ only in how much the host's other tenants
//! interfered, and interference only ever adds time. The reported time of a
//! unit is therefore its fastest serving ([`fastest`]); medians and
//! percentiles are then taken *over the units*, which is where the
//! workload's own latency distribution lives.

use crate::fixture::Fixture;
use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{self, Loop, Sizes, Workload};
use qpseeker_core::prelude::*;
use qpseeker_core::serve::plan_with_fallback_in;
use qpseeker_engine::executor::Executor;
use qpseeker_engine::optimizer::PgOptimizer;
use qpseeker_engine::plan::PlanNode;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Everything a pass needs: the fixture, the registry the supervisors read
/// the model through, and the request list generated from `--seed`.
pub struct Bench {
    pub workload: Workload,
    pub sizes: Sizes,
    pub fixture: Fixture,
    pub registry: ModelRegistry,
    pub requests: Vec<TenantRequest>,
}

impl Bench {
    pub fn new(workload: Workload, sizes: Sizes, fixture: Fixture, seed: u64) -> Self {
        let registry = ModelRegistry::new(usize::MAX);
        for (tenant, _) in workload.lanes() {
            registry.register(tenant, fixture.db.clone(), fixture.model.clone());
        }
        let requests = workloads::requests(workload, &sizes, &fixture.db, seed);
        Self { workload, sizes, fixture, registry, requests }
    }
}

/// One pass over a request list with fresh per-pass state (session, or
/// supervisor and cache).
pub struct Pass {
    /// Wall seconds of each throughput unit, in list order: one request on
    /// a closed loop, one chunk of `sizes.chunk` requests on a stream.
    pub unit_s: Vec<f64>,
    /// Wall ms per request: every request on a closed loop; on a stream,
    /// the first `probe` requests re-served one per `run` call.
    pub latencies_ms: Vec<f64>,
    /// Candidate plans scored by the request behind each latency (0 on a
    /// cache hit).
    pub latency_evals: Vec<usize>,
    /// Final disposition of every request, in list order.
    pub served: Vec<Disposition>,
    /// `conservation_holds()` on every supervisor the pass created.
    pub conservation: bool,
    /// The latency probe chose the same plans as the stream did.
    pub probe_agrees: bool,
    pub counters: ServeCounters,
    pub cache: Option<CacheStats>,
}

impl Pass {
    /// Requests per wall second of this pass alone, interference included.
    pub fn rps(&self) -> f64 {
        self.served.len() as f64 / self.unit_s.iter().sum::<f64>()
    }
}

/// Element-wise minimum over the passes of the series `of` picks: each
/// unit's fastest serving.
pub fn fastest<'a>(passes: &'a [Pass], of: impl Fn(&'a Pass) -> &'a [f64]) -> Vec<f64> {
    let mut best = of(&passes[0]).to_vec();
    for p in &passes[1..] {
        for (b, &v) in best.iter_mut().zip(of(p)) {
            *b = b.min(v);
        }
    }
    best
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

pub fn plan_of(d: &Disposition) -> Option<&PlanNode> {
    match d {
        Disposition::Served(r) => Some(&r.plan),
        _ => None,
    }
}

fn evals_of(d: &Disposition) -> usize {
    match d {
        Disposition::Served(r) => r.evals,
        _ => 0,
    }
}

/// Span names of the real (not replayed) calls into the serve layer.
pub const SPAN_PLAN: &str = "serve.plan_with_fallback";
pub const SPAN_CHUNK: &str = "serve.run";
pub const SPAN_PROBE: &str = "serve.run_one";

/// Call `f`, as a span when a recorder is given, and return its wall ms.
fn timed<R>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    request: usize,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t = Instant::now();
    let out = match rec {
        Some(rec) => rec.span(name, request, |_| f()),
        None => f(),
    };
    (out, ms(t))
}

/// Serve `requests` once with fresh per-pass state. With a recorder, every
/// call into the serve layer is also recorded as a span.
pub fn run_pass(bench: &Bench, requests: &[TenantRequest], rec: Option<&mut Recorder>) -> Pass {
    match bench.workload.kind() {
        Loop::Closed => closed_pass(bench, requests, rec),
        Loop::Stream => stream_pass(bench, requests, rec),
    }
}

fn closed_pass(bench: &Bench, requests: &[TenantRequest], mut rec: Option<&mut Recorder>) -> Pass {
    let cfg = bench.workload.serve_config();
    let (db, model) = (&bench.fixture.db, &bench.fixture.model);
    let mut sess = PlannerSession::new();
    let mut latencies_ms = Vec::with_capacity(requests.len());
    let mut served = Vec::with_capacity(requests.len());
    for (i, r) in requests.iter().enumerate() {
        let (result, wall_ms) = timed(&mut rec, SPAN_PLAN, i, || {
            plan_with_fallback_in(db, &r.req.query, Some(model), &cfg, &mut sess)
        });
        latencies_ms.push(wall_ms);
        served.push(Disposition::Served(result));
    }
    Pass {
        unit_s: latencies_ms.iter().map(|ms| ms / 1e3).collect(),
        latency_evals: served.iter().map(evals_of).collect(),
        latencies_ms,
        served,
        conservation: true,
        probe_agrees: true,
        counters: ServeCounters::default(),
        cache: None,
    }
}

/// Hand `requests` to `sup` in chunks of `sizes.chunk` (the whole list when
/// that is 0), one timed `run` call each. Returns every disposition in list
/// order and the wall seconds of each call.
pub fn serve_chunked(
    sup: &mut MultiTenantSupervisor,
    bench: &Bench,
    registry: &ModelRegistry,
    requests: &[TenantRequest],
    rec: &mut Option<&mut Recorder>,
) -> (Vec<Disposition>, Vec<f64>) {
    let chunk = if bench.sizes.chunk == 0 { requests.len() } else { bench.sizes.chunk };
    let mut unit_s = Vec::new();
    let mut served = Vec::with_capacity(requests.len());
    for (c, chunk) in requests.chunks(chunk.max(1)).enumerate() {
        let (outcomes, wall_ms) = timed(rec, SPAN_CHUNK, c, || sup.run(registry, chunk));
        unit_s.push(wall_ms / 1e3);
        served.extend(outcomes.into_iter().map(|o| o.outcome.disposition));
    }
    (served, unit_s)
}

fn stream_pass(bench: &Bench, requests: &[TenantRequest], mut rec: Option<&mut Recorder>) -> Pass {
    // The stream reaches one supervisor (one cache, one set of lanes) in
    // chunks, one `run` call each: the caller's micro-batches. Lane state
    // and cache persist across calls, so the chunks add up to the stream.
    let (db, workers) = (&bench.fixture.db, bench.workload.workers());
    let (mut sup, cache) = bench.workload.supervisor(&bench.sizes, db, workers);
    let (served, unit_s) = serve_chunked(&mut sup, bench, &bench.registry, requests, &mut rec);
    let counters = sup.merged_counters();

    // `run` returns outcomes only when a whole call ends, so per-request
    // latency is observed separately: the same serving stack, fresh, with
    // one request per call — and one worker per lane, which serves a lone
    // request inline; a pool spawned for one request would make the hit
    // path a measurement of thread start-up.
    let (mut probe_sup, _probe_cache) = bench.workload.supervisor(&bench.sizes, db, 1);
    let probe = bench.sizes.probe.min(requests.len());
    let mut latencies_ms = Vec::with_capacity(probe);
    let mut latency_evals = Vec::with_capacity(probe);
    let mut probe_agrees = true;
    for (i, (r, streamed)) in requests[..probe].iter().zip(&served).enumerate() {
        let (mut out, wall_ms) = timed(&mut rec, SPAN_PROBE, i, || {
            probe_sup.run(&bench.registry, std::slice::from_ref(r))
        });
        latencies_ms.push(wall_ms);
        let d = out.pop().expect("one outcome per request").outcome.disposition;
        latency_evals.push(evals_of(&d));
        probe_agrees &= plan_of(&d) == plan_of(streamed);
    }
    Pass {
        unit_s,
        latencies_ms,
        latency_evals,
        served,
        conservation: counters.conservation_holds()
            && probe_sup.merged_counters().conservation_holds(),
        probe_agrees,
        counters,
        cache: cache.map(|c| c.stats()),
    }
}

/// What the output check and the exact values need from one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PassSummary {
    pub requests: usize,
    /// FNV fingerprint of every served plan, in request order.
    pub plans_fp: u64,
    /// Candidate plans scored, summed over requests.
    pub evals: usize,
    pub cache_hits: usize,
    /// Requests served by the classical optimizer.
    pub fallbacks: usize,
    /// Requests shed or failed.
    pub failed: usize,
    /// Served plans that do not validate against their query.
    pub invalid: usize,
}

pub fn summarise(pass: &Pass, requests: &[TenantRequest]) -> PassSummary {
    let mut s = PassSummary {
        requests: requests.len(),
        plans_fp: stats::fingerprint(pass.served.iter().map(plan_of)),
        evals: 0,
        cache_hits: 0,
        fallbacks: 0,
        failed: 0,
        invalid: 0,
    };
    for (d, r) in pass.served.iter().zip(requests) {
        match d {
            Disposition::Served(res) => {
                s.evals += res.evals;
                s.cache_hits += res.cache_hit as usize;
                s.fallbacks += (res.served_by == ServedBy::Classical) as usize;
                s.invalid += res.plan.validate(&r.req.query).is_err() as usize;
            }
            Disposition::Shed(_) | Disposition::Failed(_) => s.failed += 1,
        }
    }
    s
}

/// Executed virtual runtime of the served plan and of the classical
/// optimizer's plan, once per distinct query, in first-occurrence order.
pub struct Quality {
    /// `(index of the query's first request, served ms, classical ms)`.
    pub per_query: Vec<(usize, f64, f64)>,
    /// Wall ms of each `Executor::execute` call on a served plan.
    pub execute_wall_ms: Vec<f64>,
}

impl Quality {
    fn geomean_of(&self, f: impl Fn(&(usize, f64, f64)) -> f64) -> f64 {
        stats::geomean(&self.per_query.iter().map(f).collect::<Vec<_>>())
    }

    pub fn exec_virtual_ms_gm(&self) -> f64 {
        self.geomean_of(|q| q.1)
    }

    pub fn classical_exec_gm_ms(&self) -> f64 {
        self.geomean_of(|q| q.2)
    }

    pub fn quality_vs_classical(&self) -> f64 {
        self.geomean_of(|q| q.1 / q.2)
    }
}

pub fn quality(bench: &Bench, pass: &Pass) -> Quality {
    let db = &bench.fixture.db;
    let exec = Executor::new(db);
    let classical = PgOptimizer::new(db);
    let mut seen = HashSet::new();
    let mut q = Quality { per_query: Vec::new(), execute_wall_ms: Vec::new() };
    for (i, (r, d)) in bench.requests.iter().zip(&pass.served).enumerate() {
        let Some(plan) = plan_of(d) else { continue };
        if !seen.insert((&r.tenant, &r.req.query.id)) {
            continue;
        }
        let t = Instant::now();
        let served_ms = exec.execute(plan).time_ms;
        q.execute_wall_ms.push(ms(t));
        let classical_ms = exec.execute(&classical.plan(&r.req.query)).time_ms;
        q.per_query.push((i, served_ms, classical_ms));
    }
    q
}

/// Geomean over timed requests of planning wall ms + executed virtual ms
/// of the plan the request was served — the paper's query time.
/// `latencies_ms[k]` is the planning time of request `k`.
pub fn query_total_ms_gm(bench: &Bench, latencies_ms: &[f64], quality: &Quality) -> f64 {
    // A repeated query executes the plan of its first occurrence; the plan
    // fingerprint check guarantees that is the plan every repeat got.
    let mut exec_of = HashMap::new();
    for &(i, served_ms, _) in &quality.per_query {
        let r = &bench.requests[i];
        exec_of.insert((&r.tenant, &r.req.query.id), served_ms);
    }
    let totals: Vec<f64> = latencies_ms
        .iter()
        .zip(&bench.requests)
        .filter_map(|(lat, r)| exec_of.get(&(&r.tenant, &r.req.query.id)).map(|e| lat + e))
        .collect();
    stats::geomean(&totals)
}

/// Process high-water resident set, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
