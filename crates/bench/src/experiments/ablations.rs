//! Ablations beyond the paper (DESIGN.md §8):
//!
//! * **QPAttention off** — plain concatenation instead of cross-attention;
//! * **β = 0** — plain autoencoder (no KL regularizer);
//! * **uniform plan sampling** — keep a uniform sample instead of the
//!   cheapest 15% by the user cost model;
//! * **planner comparison** — MCTS vs greedy one-step vs exhaustive
//!   enumeration (small queries), measuring executed plan quality and
//!   planning effort.

use crate::{emit, fmt, markdown_table, runtime_qerrors, train_model, Context};
use qpseeker_core::prelude::*;
use qpseeker_engine::executor::Executor;
use qpseeker_engine::inject::LeftDeepSpec;
use qpseeker_engine::plan::{JoinOp, PlanNode, ScanOp};
use qpseeker_engine::query::Query;
use qpseeker_workloads::{enumerate_orderings, job, JobConfig, Qep};
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
pub struct VariantRow {
    pub variant: String,
    pub runtime_qerr_p50: f64,
    pub runtime_qerr_p95: f64,
}

pub fn run(ctx: &Context) -> Result<(), CoreError> {
    model_ablations(ctx)?;
    sampling_ablation(ctx)?;
    planner_ablation(ctx)
}

/// Attention / β ablations on JOB.
fn model_ablations(ctx: &Context) -> Result<(), CoreError> {
    let w = ctx.job();
    let db = ctx.db_of(&w);
    let mut rows = Vec::new();
    type Patch = Box<dyn Fn(&mut ModelConfig)>;
    let variants: Vec<(&str, Patch)> = vec![
        ("full (attention, beta=100)", Box::new(|_c: &mut ModelConfig| {})),
        ("no attention (concat)", Box::new(|c: &mut ModelConfig| c.use_attention = false)),
        ("beta=0 (plain AE)", Box::new(|c: &mut ModelConfig| c.beta = 0.0)),
        ("no node loss", Box::new(|c: &mut ModelConfig| c.node_loss_weight = 0.0)),
    ];
    for (name, patch) in variants {
        let mut cfg = ctx.scale.model_config();
        patch(&mut cfg);
        let (model, eval) = train_model(db, &w, cfg)?;
        let s = runtime_qerrors(&model, eval.iter().copied());
        rows.push(VariantRow {
            variant: name.into(),
            runtime_qerr_p50: s.p50,
            runtime_qerr_p95: s.p95,
        });
    }
    let md = markdown_table(
        &["variant", "runtime q-err p50", "runtime q-err p95"],
        &rows
            .iter()
            .map(|r| vec![r.variant.clone(), fmt(r.runtime_qerr_p50), fmt(r.runtime_qerr_p95)])
            .collect::<Vec<_>>(),
    );
    emit("ablation_model", &rows, &md)?;
    Ok(())
}

/// Top-15% (paper) vs uniform plan sampling for the training set.
fn sampling_ablation(ctx: &Context) -> Result<(), CoreError> {
    let db = &ctx.imdb;
    let cfg_queries =
        JobConfig { n_queries: 40, target_qeps: ctx.scale.job_qeps / 2, ..Default::default() };
    let queries = job::job_queries(db, &cfg_queries);
    let per_query = (cfg_queries.target_qeps / queries.len().max(1)).max(1);

    let mut rows = Vec::new();
    for (name, keep_fraction) in [("top 15% by user cost model", 0.15), ("uniform sample", 1.0)] {
        let mut items = Vec::new();
        for (q, tpl) in &queries {
            let scfg = qpseeker_workloads::SamplingConfig {
                max_orderings: (per_query * 2).max(30),
                operators_per_ordering: 3,
                keep_fraction,
                seed: ctx.scale.seed,
            };
            let mut plans = qpseeker_workloads::sample_plans(db, q, &scfg);
            if keep_fraction >= 1.0 {
                // Uniform: stride through the full candidate list.
                let stride = (plans.len() / per_query).max(1);
                plans = plans.into_iter().step_by(stride).take(per_query).collect();
            } else {
                plans.truncate(per_query);
            }
            for sp in plans {
                items.push((q.clone(), sp.plan, tpl.clone()));
            }
        }
        let workload = qpseeker_workloads::Workload {
            name: format!("job-{name}"),
            database: "imdb".into(),
            plan_source: qpseeker_workloads::PlanSource::Sampling,
            qeps: qpseeker_workloads::qep::measure_parallel(db, items),
        };
        let (model, eval) = train_model(db, &workload, ctx.scale.model_config())?;
        let s = runtime_qerrors(&model, eval.iter().copied());
        rows.push(VariantRow {
            variant: name.into(),
            runtime_qerr_p50: s.p50,
            runtime_qerr_p95: s.p95,
        });
    }
    let md = markdown_table(
        &["sampling strategy", "runtime q-err p50", "runtime q-err p95"],
        &rows
            .iter()
            .map(|r| vec![r.variant.clone(), fmt(r.runtime_qerr_p50), fmt(r.runtime_qerr_p95)])
            .collect::<Vec<_>>(),
    );
    emit("ablation_sampling", &rows, &md)?;
    Ok(())
}

#[derive(Serialize)]
pub struct PlannerRow {
    pub planner: String,
    pub total_executed_ms: f64,
    pub avg_plans_scored: f64,
}

/// MCTS vs greedy vs exhaustive planning with the same learned model.
fn planner_ablation(ctx: &Context) -> Result<(), CoreError> {
    let w = ctx.synthetic();
    let db = ctx.db_of(&w);
    let refs: Vec<&Qep> = w.qeps.iter().collect();
    let mut model = QPSeeker::new(db, ctx.scale.model_config());
    model.fit(&refs)?;

    // Small JOB queries (exhaustive enumeration must stay tractable).
    let queries: Vec<Query> = job::job_light_queries(db, ctx.scale.seed)
        .into_iter()
        .map(|(q, _)| q)
        .filter(|q| q.num_relations() <= 4)
        .take(20)
        .collect();

    let mut rows = Vec::new();
    let ex = Executor::new(db);
    let run_plan_ms = |plan: &PlanNode| ex.execute(plan).time_ms;

    // MCTS.
    // One session for all three planners: every table is encoded once.
    let mut sess = PlannerSession::new();
    let planner = StrategyPlanner::from_config(&StrategyConfig::default(), MctsConfig::default());
    let mut total = 0.0;
    let mut scored = 0usize;
    for q in &queries {
        let res = planner.plan_with_session(&model, q, &mut sess);
        scored += res.plans_evaluated;
        total += run_plan_ms(&res.plan);
    }
    rows.push(PlannerRow {
        planner: "MCTS (200ms budget)".into(),
        total_executed_ms: total,
        avg_plans_scored: scored as f64 / queries.len() as f64,
    });

    // Greedy one-step: extend with the action whose completed-by-
    // cheapest-scan plan scores best — approximated by evaluating each
    // next-relation choice with HashJoin/SeqScan completion.
    let mut total = 0.0;
    let mut scored = 0usize;
    for q in &queries {
        let (plan, s) = greedy_plan(&model, q, &mut sess.feat);
        scored += s;
        total += run_plan_ms(&plan);
    }
    rows.push(PlannerRow {
        planner: "greedy one-step".into(),
        total_executed_ms: total,
        avg_plans_scored: scored as f64 / queries.len() as f64,
    });

    // Exhaustive: every left-deep ordering with Hash/SeqScan operators
    // plus operator variants on the final join.
    let mut total = 0.0;
    let mut scored = 0usize;
    for q in &queries {
        let mut ctx = model.query_context(q);
        let mut best: Option<(f64, PlanNode)> = None;
        for ordering in enumerate_orderings(q, 500) {
            for join_op in JoinOp::ALL {
                let spec = LeftDeepSpec {
                    scans: ordering.iter().map(|a| (a.clone(), ScanOp::SeqScan)).collect(),
                    joins: vec![join_op; ordering.len().saturating_sub(1)],
                };
                let Ok(plan) = spec.compile(q) else { continue };
                let t =
                    model.predict_with_context_in(&mut sess.feat, q, &plan, &mut ctx).runtime_ms;
                scored += 1;
                if best.as_ref().map(|(bt, _)| t < *bt).unwrap_or(true) {
                    best = Some((t, plan));
                }
            }
        }
        let (_, plan) = best.expect("connected query has orderings");
        total += run_plan_ms(&plan);
    }
    rows.push(PlannerRow {
        planner: "exhaustive (left-deep)".into(),
        total_executed_ms: total,
        avg_plans_scored: scored as f64 / queries.len() as f64,
    });

    let md = markdown_table(
        &["planner", "total executed (ms)", "avg plans scored/query"],
        &rows
            .iter()
            .map(|r| vec![r.planner.clone(), fmt(r.total_executed_ms), fmt(r.avg_plans_scored)])
            .collect::<Vec<_>>(),
    );
    emit("ablation_planner", &rows, &md)?;
    Ok(())
}

/// Greedy: grow the plan one relation at a time, at each step picking the
/// (relation, ops) whose *completed* plan (cheapest completion heuristic)
/// the model scores fastest. Returns (plan, plans scored).
fn greedy_plan(model: &QPSeeker, q: &Query, feat: &mut FeatSession) -> (PlanNode, usize) {
    use std::collections::BTreeSet;
    let mut ctx = model.query_context(q);
    let mut score =
        |plan: &PlanNode| model.predict_with_context_in(feat, q, plan, &mut ctx).runtime_ms;
    let mut scans: Vec<(Arc<str>, ScanOp)> = Vec::new();
    let mut joins: Vec<JoinOp> = Vec::new();
    let mut joined: BTreeSet<Arc<str>> = BTreeSet::new();
    let mut scored = 0usize;
    // Start: best single relation by completing greedily with SeqScans.
    let mut best_start: Option<(f64, Arc<str>, ScanOp)> = None;
    for r in &q.relations {
        for scan in ScanOp::ALL {
            if let Some(plan) = complete(q, &[(r.alias.clone(), scan)], &[]) {
                let t = score(&plan);
                scored += 1;
                if best_start.as_ref().map(|(bt, _, _)| t < *bt).unwrap_or(true) {
                    best_start = Some((t, r.alias.clone(), scan));
                }
            }
        }
    }
    let (_, alias, scan) = best_start.expect("non-empty query");
    joined.insert(alias.clone());
    scans.push((alias, scan));
    while joined.len() < q.relations.len() {
        let mut best: Option<(f64, Arc<str>, ScanOp, JoinOp)> = None;
        for next in q.neighbors(&joined) {
            for scan in ScanOp::ALL {
                for join in JoinOp::ALL {
                    let mut s2 = scans.clone();
                    s2.push((next.clone(), scan));
                    let mut j2 = joins.clone();
                    j2.push(join);
                    if let Some(plan) = complete(q, &s2, &j2) {
                        let t = score(&plan);
                        scored += 1;
                        if best.as_ref().map(|(bt, _, _, _)| t < *bt).unwrap_or(true) {
                            best = Some((t, next.clone(), scan, join));
                        }
                    }
                }
            }
        }
        let (_, alias, scan, join) = best.expect("connected query");
        joined.insert(alias.clone());
        scans.push((alias, scan));
        joins.push(join);
    }
    let plan = LeftDeepSpec { scans, joins }.compile(q).expect("valid greedy plan");
    (plan, scored)
}

/// Complete a partial left-deep prefix with SeqScan/HashJoin steps in
/// neighbor order (heuristic completion for greedy scoring).
fn complete(q: &Query, scans: &[(Arc<str>, ScanOp)], joins: &[JoinOp]) -> Option<PlanNode> {
    use std::collections::BTreeSet;
    let mut scans = scans.to_vec();
    let mut joins = joins.to_vec();
    let mut joined: BTreeSet<Arc<str>> = scans.iter().map(|(a, _)| a.clone()).collect();
    while joined.len() < q.relations.len() {
        let next = q.neighbors(&joined).into_iter().next()?;
        joined.insert(next.clone());
        scans.push((next, ScanOp::SeqScan));
        joins.push(JoinOp::HashJoin);
    }
    LeftDeepSpec { scans, joins }.compile(q).ok()
}
