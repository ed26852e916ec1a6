//! `qpseeker` — command-line interface to the reproduction.
//!
//! ```text
//! qpseeker gen-db    --schema imdb|stack --scale 0.2 --seed 42 --out db.json
//! qpseeker train     --db db.json --workload synthetic|job|stack --queries 200 \
//!                    --config small|bench|paper --out model.json \
//!                    [--resume] [--snapshot-dir dir] [--keep 3]
//! qpseeker explain   --db db.json --sql "SELECT COUNT(*) FROM ..."
//! qpseeker run       --db db.json --sql "SELECT COUNT(*) FROM ..."
//! qpseeker plan      --db db.json --model model.json --sql "..." [--execute]
//! qpseeker serve     --db db.json --sql "..." [--model model.json]
//! qpseeker serve     --db db.json --stream 50 [--tenants 2] [--model model.json]
//!                    [--cache 64] [--broker] [--online --state-dir state/]
//! qpseeker experience show --state-dir state/ [--tail 10]
//! ```
//!
//! Databases and models are plain JSON artifacts, so sessions compose:
//! generate once, train once, plan many times. Training with `--resume`
//! journals a snapshot after every epoch (atomic rename + checksum) and
//! picks up from the newest valid one after a crash, with bitwise-identical
//! final parameters.

use qpseeker_repro::core::prelude::*;
use qpseeker_repro::engine::prelude::*;
use qpseeker_repro::storage::Database;
use qpseeker_repro::workloads::{
    job, stack, synthetic, tenants, JobConfig, Qep, StackConfig, SyntheticConfig,
    TenantStreamConfig,
};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage_error = |e: &str| {
        eprintln!("error: {e}\n\n{USAGE}");
        ExitCode::FAILURE
    };
    let Some((cmd, mut rest)) = args.split_first() else {
        return usage_error("no command given");
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    // `experience` takes a positional action ("show") before its options.
    if cmd == "experience" {
        match rest.split_first() {
            Some((action, tail)) if action == "show" => rest = tail,
            _ => return usage_error("usage: experience show --state-dir <dir> [--tail <n>]"),
        }
    }
    let opts = match parse_opts(rest).and_then(|o| check_flags(cmd, &o).map(|()| o)) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let result = match cmd.as_str() {
        "gen-db" => gen_db(&opts),
        "train" => train(&opts),
        "explain" => explain(&opts),
        "run" => run(&opts),
        "plan" => plan(&opts),
        "serve" => serve(&opts),
        "experience" => experience_show(&opts),
        other => unreachable!("check_flags accepted unknown command '{other}'"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
qpseeker — neural query planner (QPSeeker reproduction)

commands:
  gen-db   --schema imdb|stack --scale <f64> --seed <u64> --out <db.json>
  train    --db <db.json> --workload synthetic|job|stack --queries <n>
           [--config small|bench|paper] [--epochs <n>] --out <model.json>
           [--resume] [--snapshot-dir <dir>] [--keep <n>]
           (--resume journals per-epoch snapshots to <dir> — default
            <out>.snapshots — and continues from the newest valid one;
            a resumed run lands on bitwise-identical parameters)
  explain  --db <db.json> --sql \"SELECT COUNT(*) FROM ...\"
  run      --db <db.json> --sql \"...\"            (optimize + execute)
  plan     --db <db.json> --model <model.json> --sql \"...\" [--execute]
           (neural planning with MCTS)
  serve    --db <db.json> --sql \"...\" [--model <model.json>]
           (one query: neural planning with deadline watchdog, retries and
            classical fallback; no model serves classically)
           per-query options, here and on a stream:
           [--deadline-ms <f64>] [--retries <n>]
           [--chaos <p> --seed <u64>] (deterministic fault injection)
           [--strategy mcts|beam] (left-deep MCTS, the default, or
            deterministic beam search over bushy plan shapes)
           [--beam-width <n>] (states kept per beam level; default 8)
           [--risk-lambda <f64>] (rank candidates by mean + lambda*sigma
            over seeded latent cost samples; 0, the default, is mean-only)
           [--risk-samples <n>] (latent samples per evaluation; default 8)
           [--batch-eval <n>] (MCTS rollouts queued per scoring pass; 1
            backs up every rollout immediately; plan-affecting; default 16)
  serve    --db <db.json> --stream <n> [--tenants <k>] [--model <model.json>]
           (a stream of n generated requests — default 100 — over k tenant
            lanes — default 1 — each with its own bounded admission queue,
            deadline-aware load-shedding, neural/classical circuit breaker
            and fair-share weight; models live in a registry)
           [--queue <n>] [--service-ms <f64>] [--interval-ms <f64>]
           [--workers <n>] (planner threads per lane, each with its own
            session over the shared model; default 1)
           [--cache <per-shard-capacity>] (fingerprint plan cache; hits
            are bitwise identical to cache-miss search)
           [--broker [--batch-target <rows>] [--batch-window-us <us>]]
            (one eval broker shared by every worker of every lane: scoring
             requests fuse into wide forward passes that flush at
             batch-target rows — default 64 — or after batch-window-us on
             the broker's round clock — default 200; plans are unchanged)
           [--weights w0,w1,...] (per-tenant service-rate weights)
           [--risk-lambdas l0,l1,...] (per-tenant risk weights; lane i
            plans with --strategy's settings at lambda = li)
           [--mem-budget <bytes>] (registry memory budget; LRU eviction)
           [--chaos-tenant <id>] (the lane --chaos is aimed at; default t0;
            the other lanes' plans and breakers are unaffected)
           [--online [--state-dir <dir>] [--batch <n>] [--retrain-every <n>]
            [--holdout <n>] [--gate-tol <f64>]]
            (one lane, closed loop; requires --model: executions go to a
             durable experience WAL under --state-dir, a fine-tune runs
             every --retrain-every records, candidates pass a held-out
             promotion gate before a zero-downtime hot-swap, and a
             regression monitor rolls a bad swap back; replaces the
             registry, so not with --weights/--risk-lambdas/--mem-budget/
             --chaos-tenant)
  experience show --state-dir <dir> [--tail <n>]
           (dump the experience WAL an online server accumulated:
            disposition, predicted vs observed runtime per record)";

type Opts = HashMap<String, String>;

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got '{}'", args[i]))?;
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            out.insert(key.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            out.insert(key.to_string(), "true".to_string());
            i += 1;
        }
    }
    Ok(out)
}

/// `serve` runs a request stream rather than one `--sql` query.
fn is_stream(opts: &Opts) -> bool {
    opts.contains_key("stream") || opts.contains_key("tenants")
}

/// The flags `serve` reads, space-separated: the per-query ones every mode
/// shares, then what a stream, its lanes and the online loop add.
const SERVE_QUERY: &str = "db model seed deadline-ms retries chaos \
    strategy beam-width risk-lambda risk-samples batch-eval";
const SERVE_STREAM: &str = "stream tenants queue service-ms interval-ms workers cache online \
    broker batch-target batch-window-us";
const SERVE_LANES: &str = "weights risk-lambdas mem-budget chaos-tenant";
const SERVE_ONLINE: &str = "state-dir batch retrain-every holdout gate-tol";

/// Reject an unknown command, any flag the chosen command (for `serve`: the
/// chosen mode) does not read, and flag combinations with no meaning — a
/// typo must not be silently ignored.
fn check_flags(cmd: &str, opts: &Opts) -> Result<(), String> {
    let online = opts.contains_key("online");
    let (mode, allowed) = match cmd {
        "gen-db" => (cmd, "schema scale seed out".to_string()),
        "train" => {
            (cmd, "db workload queries config epochs out resume snapshot-dir keep".to_string())
        }
        "explain" | "run" => (cmd, "db sql".to_string()),
        "plan" => (cmd, "db model sql execute".to_string()),
        "serve" if !is_stream(opts) => ("serve --sql", format!("{SERVE_QUERY} sql")),
        "serve" if online => {
            ("serve --online", format!("{SERVE_QUERY} {SERVE_STREAM} {SERVE_ONLINE}"))
        }
        "serve" => ("serve --stream", format!("{SERVE_QUERY} {SERVE_STREAM} {SERVE_LANES}")),
        "experience" => ("experience show", "state-dir tail".to_string()),
        other => return Err(format!("unknown command '{other}'")),
    };
    if let Some(key) = opts.keys().filter(|k| !allowed.split_whitespace().any(|a| a == *k)).min() {
        return Err(format!("`{mode}` does not read --{key}"));
    }
    if online && opt::<usize>(opts, "tenants")?.is_some_and(|k| k > 1) {
        return Err("--online closes the loop over one lane: not with --tenants > 1".into());
    }
    Ok(())
}

fn req<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
}

/// `--key` parsed as `T`; `None` when the flag is absent.
fn opt<T: std::str::FromStr>(opts: &Opts, key: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    opts.get(key).map(|s| s.parse().map_err(|e| format!("--{key}: {e}"))).transpose()
}

fn load_model(path: &str, db: &Arc<Database>) -> Result<QPSeeker, String> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let ckpt = Checkpoint::from_json(&data).map_err(|e| e.to_string())?;
    ckpt.restore(db).map_err(|e| e.to_string())
}

fn load_db(opts: &Opts) -> Result<Arc<Database>, String> {
    let path = req(opts, "db")?;
    let data = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&data).map(Arc::new).map_err(|e| format!("parse {path}: {e}"))
}

fn gen_db(opts: &Opts) -> Result<(), String> {
    let schema = req(opts, "schema")?;
    let scale: f64 = opts
        .get("scale")
        .map(|s| s.parse())
        .transpose()
        .map_err(|e| format!("--scale: {e}"))?
        .unwrap_or(0.1);
    let seed: u64 = opts
        .get("seed")
        .map(|s| s.parse())
        .transpose()
        .map_err(|e| format!("--seed: {e}"))?
        .unwrap_or(42);
    let out = req(opts, "out")?;
    let db = match schema {
        "imdb" => qpseeker_repro::storage::datagen::imdb::generate(scale, seed),
        "stack" => qpseeker_repro::storage::datagen::stack::generate(scale, seed),
        other => return Err(format!("unknown schema '{other}' (imdb|stack)")),
    };
    let json = serde_json::to_string(&db).map_err(|e| e.to_string())?;
    write_atomic(std::path::Path::new(out), &json, None).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: schema {schema}, {} tables, {} rows",
        db.catalog.num_tables(),
        db.total_rows()
    );
    Ok(())
}

fn model_config(opts: &Opts) -> Result<ModelConfig, String> {
    let mut cfg = match opts.get("config").map(String::as_str).unwrap_or("small") {
        "small" => ModelConfig::small(),
        "bench" => ModelConfig::bench(),
        "paper" => ModelConfig::paper(),
        other => return Err(format!("unknown config '{other}' (small|bench|paper)")),
    };
    if let Some(e) = opts.get("epochs") {
        cfg.epochs = e.parse().map_err(|e| format!("--epochs: {e}"))?;
    }
    Ok(cfg)
}

fn train(opts: &Opts) -> Result<(), String> {
    let db = load_db(opts)?;
    let kind = req(opts, "workload")?;
    let queries: usize = opts
        .get("queries")
        .map(|s| s.parse())
        .transpose()
        .map_err(|e| format!("--queries: {e}"))?
        .unwrap_or(200);
    let out = req(opts, "out")?;
    eprintln!("generating {kind} workload ({queries} queries)...");
    let workload = match kind {
        "synthetic" => {
            synthetic::generate_sampled(&db, &SyntheticConfig { n_queries: queries, seed: 7 }, 4)
        }
        "job" => job::generate(
            &db,
            &JobConfig {
                n_queries: queries.min(113),
                target_qeps: queries * 8,
                keep_fraction: 1.0,
                ..Default::default()
            },
        ),
        "stack" => stack::generate(&db, &StackConfig { n_queries: queries, seed: 7 }),
        other => return Err(format!("unknown workload '{other}'")),
    };
    eprintln!("training on {} QEPs...", workload.num_qeps());
    let cfg = model_config(opts)?;
    let mut model = QPSeeker::new(&db, cfg);
    let refs: Vec<&Qep> = workload.qeps.iter().collect();
    let report = if opts.contains_key("resume") || opts.contains_key("snapshot-dir") {
        let dir = opts.get("snapshot-dir").cloned().unwrap_or_else(|| format!("{out}.snapshots"));
        let keep: usize = opts
            .get("keep")
            .map(|s| s.parse())
            .transpose()
            .map_err(|e| format!("--keep: {e}"))?
            .unwrap_or(3);
        let journal = SnapshotStore::create(&dir, "epoch", keep).map_err(|e| e.to_string())?;
        eprintln!("journaling per-epoch snapshots to {dir} (keep {keep})...");
        model.fit_resumable(&refs, &journal).map_err(|e| e.to_string())?
    } else {
        model.fit(&refs).map_err(|e| e.to_string())?
    };
    println!(
        "trained {} parameters in {:.1}s (loss {:.3} -> {:.3})",
        model.num_parameters(),
        report.train_seconds,
        report.epoch_losses.first().unwrap_or(&f64::NAN),
        report.epoch_losses.last().unwrap_or(&f64::NAN)
    );
    if !report.guards.is_clean() {
        eprintln!(
            "numerical guards fired: {} non-finite gradients zeroed, {} updates clamped, {} values reverted",
            report.guards.nonfinite_grads,
            report.guards.clipped_updates,
            report.guards.reverted_values
        );
    }
    let ckpt = Checkpoint::capture(&model, &db);
    let json = ckpt.to_json().map_err(|e| e.to_string())?;
    write_atomic(std::path::Path::new(out), &json, None).map_err(|e| e.to_string())?;
    println!("wrote {out}");
    Ok(())
}

fn explain(opts: &Opts) -> Result<(), String> {
    let db = load_db(opts)?;
    let q = parse_sql(&db, req(opts, "sql")?)?;
    let plan = PgOptimizer::new(&db).plan(&q);
    let expl = Explain::new(&db);
    println!("{}", expl.pretty(&q, &plan));
    Ok(())
}

fn run(opts: &Opts) -> Result<(), String> {
    let db = load_db(opts)?;
    let q = parse_sql(&db, req(opts, "sql")?)?;
    let plan = PgOptimizer::new(&db).plan(&q);
    let res = Executor::new(&db).execute(&plan);
    println!("{}", plan.pretty());
    println!("rows: {}  cost: {:.2}  virtual time: {:.3} ms", res.rows, res.cost, res.time_ms);
    Ok(())
}

fn plan(opts: &Opts) -> Result<(), String> {
    let db = load_db(opts)?;
    let q = parse_sql(&db, req(opts, "sql")?)?;
    let model = load_model(req(opts, "model")?, &db)?;
    let res = StrategyPlanner::from_config(&StrategyConfig::default(), MctsConfig::default())
        .plan(&model, &q);
    println!("{}", res.plan.pretty());
    println!(
        "predicted runtime: {:.3} ms ({} plans evaluated in {} simulations)",
        res.predicted_ms, res.plans_evaluated, res.simulations
    );
    if opts.contains_key("execute") {
        let exec = Executor::new(&db).execute(&res.plan);
        let pg_plan = PgOptimizer::new(&db).plan(&q);
        let pg = Executor::new(&db).execute(&pg_plan);
        println!(
            "executed: {} rows in {:.3} ms (PostgreSQL-style plan: {:.3} ms)",
            exec.rows, exec.time_ms, pg.time_ms
        );
    }
    Ok(())
}

/// Apply the `--strategy`, `--risk-lambda`, `--risk-samples`,
/// `--beam-width` and `--batch-eval` flags shared by every serve mode.
fn apply_strategy_opts(opts: &Opts, strat: &mut StrategyConfig) -> Result<(), String> {
    if let Some(s) = opts.get("strategy") {
        strat.kind =
            StrategyKind::parse(s).ok_or_else(|| format!("--strategy: '{s}' (mcts|beam)"))?;
    }
    if let Some(l) = opt(opts, "risk-lambda")? {
        strat.risk_lambda = l;
        if strat.risk_lambda < 0.0 {
            return Err("--risk-lambda must be >= 0".into());
        }
    }
    if let Some(s) = opt(opts, "risk-samples")? {
        strat.risk_samples = s;
    }
    if let Some(w) = opt(opts, "beam-width")? {
        strat.beam_width = w;
        if strat.beam_width == 0 {
            return Err("--beam-width must be at least 1".into());
        }
    }
    if let Some(n) = opt::<usize>(opts, "batch-eval")? {
        if n == 0 {
            return Err("--batch-eval must be at least 1".into());
        }
        strat.batch_eval = Some(n);
    }
    Ok(())
}

/// `--broker [--batch-target <rows>] [--batch-window-us <us>]`: route
/// candidate scoring through a shared eval broker that fuses scoring
/// requests from every worker (and, under `--tenants`, every lane) into
/// wide forward passes. Plans are bitwise identical to broker-off serving.
fn apply_broker_opts(opts: &Opts, broker: &mut Option<BrokerConfig>) -> Result<(), String> {
    if !opts.contains_key("broker") {
        if opts.contains_key("batch-target") || opts.contains_key("batch-window-us") {
            return Err("--batch-target/--batch-window-us require --broker".into());
        }
        return Ok(());
    }
    let mut cfg = BrokerConfig::default();
    if let Some(t) = opt(opts, "batch-target")? {
        cfg.batch_target = t;
        if cfg.batch_target == 0 {
            return Err("--batch-target must be at least 1".into());
        }
    }
    if let Some(w) = opt(opts, "batch-window-us")? {
        cfg.batch_window_us = w;
    }
    *broker = Some(cfg);
    Ok(())
}

/// The per-query flags every serve mode shares — `--deadline-ms`,
/// `--retries`, the strategy flags, and `--chaos <p>` arming every fault
/// class at rate `p` under `seed` — on top of the defaults.
fn serve_config(opts: &Opts, seed: u64) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::default();
    if let Some(d) = opt(opts, "deadline-ms")? {
        cfg.deadline_ms = d;
    }
    if let Some(r) = opt(opts, "retries")? {
        cfg.max_retries = r;
    }
    apply_strategy_opts(opts, &mut cfg.strategy)?;
    if let Some(p) = opt(opts, "chaos")? {
        cfg.faults = Some(qpseeker_repro::storage::FaultConfig::chaos(seed, p));
    }
    Ok(cfg)
}

/// Serve a query through the graceful-degradation path: neural planning
/// guarded by a deadline watchdog with bounded retries, falling back to the
/// classical optimizer. `--chaos <p>` arms every fault class at rate `p`.
/// With `--stream`/`--tenants` a request stream runs through the supervised
/// serving lanes instead (see [`serve_stream`]).
fn serve(opts: &Opts) -> Result<(), String> {
    let db = load_db(opts)?;
    if is_stream(opts) {
        return serve_stream(&db, opts);
    }
    let q = parse_sql(&db, req(opts, "sql")?)?;
    let cfg = serve_config(opts, opt(opts, "seed")?.unwrap_or(42))?;
    let model = opts.get("model").map(|path| load_model(path, &db)).transpose()?;

    let r = plan_with_fallback_in(&db, &q, model.as_ref(), &cfg, &mut PlannerSession::new());
    println!("{}", r.plan.pretty());
    let path = match r.served_by {
        ServedBy::Neural => format!("neural ({})", cfg.strategy.kind.as_str()),
        ServedBy::Classical => "classical (DP/greedy fallback)".into(),
    };
    println!("served by: {path} after {} neural attempt(s)", r.attempts);
    if let Some(p) = r.predicted_ms {
        println!("predicted runtime: {p:.3} ms");
    }
    for (i, f) in r.attempt_failures().iter().enumerate() {
        println!("  attempt {}: {f}", i + 1);
    }
    if let Some(reason) = &r.fallback_reason() {
        println!("fallback reason: {reason}");
    }
    Ok(())
}

/// `--key a,b,...` parsed as one `f64` per tenant lane.
fn per_tenant(opts: &Opts, key: &str, n_tenants: usize) -> Result<Option<Vec<f64>>, String> {
    let Some(list) = opts.get(key) else { return Ok(None) };
    let vals: Result<Vec<f64>, _> = list.split(',').map(str::parse).collect();
    let vals = vals.map_err(|e| format!("--{key}: {e}"))?;
    if vals.len() != n_tenants {
        return Err(format!("--{key} lists {} values for {n_tenants} tenants", vals.len()));
    }
    Ok(Some(vals))
}

/// The one stream path: `--stream <n>` requests over `--tenants <k>` lanes
/// (one by default) of a [`MultiTenantSupervisor`], each lane with its own
/// bounded queue, deadline shedding, circuit breaker and fair-share weight,
/// models in a memory-budgeted registry. Every optional part — plan cache,
/// eval broker, chaos, strategy — attaches here, so it means the same thing
/// at any lane count. `--online` swaps the registry for the closed
/// [`OnlinePlanner`] loop over the same requests and configuration.
fn serve_stream(db: &Arc<Database>, opts: &Opts) -> Result<(), String> {
    let seed = opt(opts, "seed")?.unwrap_or(42);
    let mut cfg = SupervisorConfig { serve: serve_config(opts, seed)?, ..Default::default() };
    apply_broker_opts(opts, &mut cfg.broker)?;
    if let Some(q) = opt(opts, "queue")? {
        cfg.queue_capacity = q;
    }
    if let Some(s) = opt(opts, "service-ms")? {
        cfg.service_ms = s;
    }
    if let Some(w) = opt(opts, "workers")? {
        cfg.workers = w;
    }
    let n: usize = opt(opts, "stream")?.unwrap_or(100);
    let n_tenants: usize = opt(opts, "tenants")?.unwrap_or(1);
    if n_tenants == 0 {
        return Err("--tenants must be at least 1".into());
    }
    let ids: Vec<String> = (0..n_tenants).map(|i| format!("t{i}")).collect();
    let model = opts.get("model").map(|path| load_model(path, db)).transpose()?.map(Arc::new);
    let cache = opt::<usize>(opts, "cache")?.map(|cap| Arc::new(PlanCache::new(8, cap.max(1))));

    // Every request must finish within the per-query serving deadline after
    // the moment it reaches the server, so budget queue wait + service on
    // top of its arrival instant.
    let slack_ms = cfg.serve.deadline_ms.max(cfg.service_ms * 4.0);
    let tenant_dbs: Vec<(&str, &Database)> = ids.iter().map(|id| (id.as_str(), &**db)).collect();
    let stream: Vec<TenantRequest> = tenants::generate_stream(
        &tenant_dbs,
        &TenantStreamConfig {
            n_requests: n,
            seed,
            mean_interarrival_ms: opt(opts, "interval-ms")?.unwrap_or(5.0),
            ..TenantStreamConfig::default()
        },
    )
    .into_iter()
    .map(|i| TenantRequest {
        tenant: i.tenant,
        req: QueryRequest {
            query: i.query,
            arrival_ms: i.arrival_ms,
            deadline_ms: i.arrival_ms + slack_ms,
        },
    })
    .collect();
    eprintln!(
        "streaming {n} queries across {n_tenants} lane(s) (queue {}, service {} ms, {} worker(s) per lane, cache {}, broker {})...",
        cfg.queue_capacity,
        cfg.service_ms,
        cfg.workers.max(1),
        if cache.is_some() { "on" } else { "off" },
        if cfg.broker.is_some() { "on" } else { "off" },
    );

    if opts.contains_key("online") {
        let requests: Vec<QueryRequest> = stream.into_iter().map(|t| t.req).collect();
        serve_online(db, opts, cfg, cache.clone(), model, &requests)?;
    } else {
        let weights = per_tenant(opts, "weights", n_tenants)?;
        // Per-tenant risk weights: lane i runs the shared strategy with its
        // own λ, so one latency-SLO tenant can plan risk-averse while its
        // neighbors stay mean-only.
        let risk_lambdas = per_tenant(opts, "risk-lambdas", n_tenants)?;
        if risk_lambdas.iter().flatten().any(|l| *l < 0.0) {
            return Err("--risk-lambdas must all be >= 0".into());
        }
        // Chaos is aimed at a single lane, which demonstrates the bulkhead:
        // only the targeted tenant's breaker reacts.
        let chaos = cfg.serve.faults.take();
        let chaos_tenant = opts.get("chaos-tenant").map(String::as_str).unwrap_or("t0");
        if !ids.iter().any(|id| id == chaos_tenant) {
            return Err(format!(
                "--chaos-tenant: no lane '{chaos_tenant}' (t0..t{})",
                n_tenants - 1
            ));
        }
        let mem_budget: usize = opt(opts, "mem-budget")?.unwrap_or(usize::MAX);
        let mut registry = ModelRegistry::new(mem_budget);
        if let Some(cache) = &cache {
            registry = registry.attach_plan_cache(Arc::clone(cache));
        }
        let specs: Vec<TenantSpec> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| {
                if let Some(model) = &model {
                    registry.register(id, Arc::clone(db), Arc::clone(model));
                }
                let mut spec = TenantSpec::new(id.clone(), Arc::clone(db));
                if let Some(ws) = &weights {
                    spec = spec.with_weight(ws[i]);
                }
                if let Some(faults) = chaos.as_ref().filter(|_| id == chaos_tenant) {
                    spec = spec.with_faults(faults.clone());
                }
                if let Some(ls) = &risk_lambdas {
                    let strategy =
                        StrategyConfig { risk_lambda: ls[i], ..cfg.serve.strategy.clone() };
                    spec = spec.with_strategy(strategy);
                }
                spec
            })
            .collect();

        let mut sup = MultiTenantSupervisor::new(
            MultiTenantConfig { base: cfg, cache: cache.clone() },
            specs,
        );
        for out in sup.run(&registry, &stream) {
            print_outcome(&out.tenant, &out.outcome);
        }
        for (tenant, c) in sup.counters() {
            println!("{tenant}: {c} breaker={:?}", sup.breaker_states()[&tenant]);
        }
        println!("merged: {}", sup.merged_counters());
        if mem_budget != usize::MAX {
            println!(
                "registry: {} resident, {} B / {} B, {} eviction(s)",
                registry.resident_tenants().len(),
                registry.mem_used_bytes(),
                registry.mem_budget_bytes(),
                registry.evictions(),
            );
        }
    }
    if let Some(cache) = &cache {
        println!("plan cache: {}", cache.stats());
    }
    Ok(())
}

fn print_outcome(tenant: &str, out: &SupervisedOutcome) {
    let what = match &out.disposition {
        Disposition::Served(r) if r.cache_hit => "neural (cached)".to_string(),
        Disposition::Served(r) => match (r.served_by, &r.fallback_reason()) {
            (ServedBy::Neural, _) => "neural".to_string(),
            (ServedBy::Classical, Some(reason)) => format!("classical ({reason})"),
            (ServedBy::Classical, None) => "classical".to_string(),
        },
        Disposition::Shed(reason) => format!("shed — {reason}"),
        Disposition::Failed(why) => format!("failed — {why}"),
    };
    println!("[{tenant}] query {}: {what}", out.query_id);
}

/// The `--online` branch of [`serve_stream`]: the requests run through
/// [`OnlinePlanner`] in batches, so every execution lands in the experience
/// WAL, fine-tune rounds fire as enough records accumulate, and gated
/// promotions hot-swap the serving model mid-stream (with automatic rollback
/// if the swap regresses).
fn serve_online(
    db: &Arc<Database>,
    opts: &Opts,
    sup_cfg: SupervisorConfig,
    cache: Option<Arc<PlanCache>>,
    model: Option<Arc<QPSeeker>>,
    requests: &[QueryRequest],
) -> Result<(), String> {
    let model = model.ok_or("--online requires --model (a fitted base model to fine-tune)")?;
    let state_dir = opts.get("state-dir").cloned().unwrap_or_else(|| "qpseeker-online".to_string());
    let batch: usize = opt(opts, "batch")?.unwrap_or(16);
    let mut cfg = OnlineConfig::new(&state_dir);
    // `--chaos` lands in `serve.faults`: one schedule for the serving path
    // and the durable (WAL/checkpoint/fine-tune) path.
    cfg.supervisor = sup_cfg;
    cfg.cache = cache.map(|cache| PlanCacheCtx { cache, tenant: "t0".into(), stats_version: 0 });
    if let Some(r) = opt(opts, "retrain-every")? {
        cfg.retrain_every = r;
    }
    if let Some(h) = opt(opts, "holdout")? {
        cfg.holdout = h;
    }
    if let Some(g) = opt(opts, "gate-tol")? {
        cfg.gate_tolerance = g;
    }
    let retrain_every = cfg.retrain_every;

    let mut op = OnlinePlanner::new(cfg, model, db).map_err(|e| e.to_string())?;
    eprintln!(
        "online: batches of {}, retrain every {} records, state in {state_dir}, epoch {}",
        batch.max(1),
        retrain_every,
        op.cell().epoch()
    );
    for chunk in requests.chunks(batch.max(1)) {
        let report = op.run_batch(db, chunk).map_err(|e| e.to_string())?;
        for out in &report.outcomes {
            print_outcome("t0", out);
        }
        if let Some(decision) = &report.promotion {
            println!("retrain round: {decision}");
        }
        if report.rolled_back {
            println!("regression detected: rolled back to the previous model");
        }
    }
    println!("merged: {}", op.serve_counters());
    println!("online: {}", op.counters());
    println!(
        "serving epoch: {}  pending experience: {} record(s)",
        op.cell().epoch(),
        op.pending_experience()
    );
    Ok(())
}

/// `experience show --state-dir <dir> [--tail <n>]` — dump the experience
/// WAL an online server accumulated under `<dir>/wal`.
fn experience_show(opts: &Opts) -> Result<(), String> {
    let state_dir = req(opts, "state-dir")?;
    let tail: usize = opts
        .get("tail")
        .map(|s| s.parse())
        .transpose()
        .map_err(|e| format!("--tail: {e}"))?
        .unwrap_or(10);

    let wal_dir = std::path::Path::new(state_dir).join("wal");
    if !wal_dir.is_dir() {
        return Err(format!(
            "no experience WAL at {} (has an online server run with --state-dir {state_dir}?)",
            wal_dir.display()
        ));
    }
    let wal = ExperienceWal::open(wal_dir, 64).map_err(|e| e.to_string())?;
    let recs = wal.records();
    let neural = recs.iter().filter(|r| r.disposition == ExperienceDisposition::Neural).count();
    println!(
        "{} record(s) in {} ({} neural, {} classical)",
        recs.len(),
        wal.dir().display(),
        neural,
        recs.len() - neural
    );
    if wal.tail_dropped() > 0 {
        println!("torn tail: {} trailing record(s) truncated on recovery", wal.tail_dropped());
    }
    if wal.quarantined() > 0 {
        println!("quarantined: {} unreadable segment(s) set aside", wal.quarantined());
    }
    let start = recs.len().saturating_sub(tail.max(1));
    if start > 0 {
        println!("... {start} earlier record(s) elided (raise --tail to show them)");
    }
    for r in &recs[start..] {
        let dispo = match r.disposition {
            ExperienceDisposition::Neural => "neural",
            ExperienceDisposition::Classical => "classical",
        };
        let predicted = match r.predicted_ms {
            Some(p) => format!("{p:9.3}"),
            None => format!("{:>9}", "-"),
        };
        println!(
            "#{:06} {dispo:9} predicted {predicted} ms  observed {:9.3} ms  rows {:6}  query {:016x}",
            r.seq,
            r.observed_ms(),
            r.observed_rows(),
            r.query_fp
        );
    }
    Ok(())
}
