//! **Fig. 9** — cross-workload planning: train QPSeeker and Bao on the
//! *Synthetic* workload, then plan all 113 JOB queries and compare each
//! produced plan's execution time against the PostgreSQL baseline plan.
//!
//! Paper shape: Bao fails to adapt (slower than PostgreSQL overall, better
//! on only a couple of queries); QPSeeker stays on par with PostgreSQL,
//! better on several queries and worse on only a few.

use crate::{emit, fmt, markdown_table, Context};
use qpseeker_baselines::{Bao, BaoConfig};
use qpseeker_core::prelude::*;
use qpseeker_engine::executor::Executor;
use qpseeker_engine::optimizer::PgOptimizer;
use qpseeker_engine::query::Query;
use qpseeker_workloads::{job, JobConfig, Qep};
use serde::Serialize;

#[derive(Serialize)]
pub struct QueryRow {
    pub query_id: String,
    pub joins: usize,
    pub postgres_ms: f64,
    pub qpseeker_ms: f64,
    pub bao_ms: f64,
    /// Positive = QPSeeker faster than PostgreSQL.
    pub qpseeker_margin_ms: f64,
    pub bao_margin_ms: f64,
}

#[derive(Serialize)]
pub struct Output {
    pub rows: Vec<QueryRow>,
    pub totals: Totals,
}

#[derive(Serialize)]
pub struct Totals {
    pub postgres_total_ms: f64,
    pub qpseeker_total_ms: f64,
    pub bao_total_ms: f64,
    pub qpseeker_better: usize,
    pub qpseeker_worse: usize,
    pub bao_better: usize,
    pub bao_worse: usize,
    pub avg_plans_evaluated: f64,
}

pub fn run(ctx: &Context) -> Result<(), CoreError> {
    let db = &ctx.imdb;
    // Train both learners on Synthetic (the cross-workload setting).
    // QPSeeker trains on the *sampled* variant (§3.1 setting (b)): the cost
    // model needs plan-space coverage to steer MCTS; Bao gains experience by
    // executing its arms' plans for the same queries.
    let synth = ctx.synthetic();
    let sampled = qpseeker_workloads::synthetic::generate_sampled(
        db,
        &qpseeker_workloads::SyntheticConfig {
            n_queries: ctx.scale.synthetic_queries,
            seed: ctx.scale.seed,
        },
        4,
    );
    let train_refs: Vec<&Qep> = sampled.qeps.iter().collect();
    let mut model = QPSeeker::new(db, ctx.scale.model_config());
    model.fit(&train_refs)?;

    let mut bao = Bao::new(db, BaoConfig { epochs: ctx.scale.epochs, ..Default::default() });
    let bao_queries: Vec<&Query> = synth.qeps.iter().map(|q| &q.query).collect();
    // Bao training executes plans; cap the experience set.
    let bao_train: Vec<&Query> = bao_queries.iter().take(120).cloned().collect();
    bao.train(&bao_train);

    let pg = PgOptimizer::new(db);
    let planner = StrategyPlanner::from_config(&StrategyConfig::default(), MctsConfig::default());
    let mut sess = PlannerSession::new();
    let ex = Executor::new(db);

    let queries = job::job_queries(db, &JobConfig::default());
    let mut rows = Vec::with_capacity(queries.len());
    let mut plans_evaluated = 0usize;
    // Margin tolerance: within 5% counts as "on par" (noise floor).
    let tol = 0.05;
    for (q, _tpl) in &queries {
        let pg_ms = ex.execute(&pg.plan(q)).time_ms;
        let res = planner.plan_with_session(&model, q, &mut sess);
        plans_evaluated += res.plans_evaluated;
        let qp_ms = ex.execute(&res.plan).time_ms;
        let (bao_plan, _arm) = bao.plan(q);
        let bao_ms = ex.execute(&bao_plan).time_ms;
        rows.push(QueryRow {
            query_id: q.id.clone(),
            joins: q.num_joins(),
            postgres_ms: pg_ms,
            qpseeker_ms: qp_ms,
            bao_ms,
            qpseeker_margin_ms: pg_ms - qp_ms,
            bao_margin_ms: pg_ms - bao_ms,
        });
    }

    let better = |margin: f64, base: f64| margin > tol * base;
    let worse = |margin: f64, base: f64| margin < -tol * base;
    let totals = Totals {
        postgres_total_ms: rows.iter().map(|r| r.postgres_ms).sum(),
        qpseeker_total_ms: rows.iter().map(|r| r.qpseeker_ms).sum(),
        bao_total_ms: rows.iter().map(|r| r.bao_ms).sum(),
        qpseeker_better: rows
            .iter()
            .filter(|r| better(r.qpseeker_margin_ms, r.postgres_ms))
            .count(),
        qpseeker_worse: rows.iter().filter(|r| worse(r.qpseeker_margin_ms, r.postgres_ms)).count(),
        bao_better: rows.iter().filter(|r| better(r.bao_margin_ms, r.postgres_ms)).count(),
        bao_worse: rows.iter().filter(|r| worse(r.bao_margin_ms, r.postgres_ms)).count(),
        avg_plans_evaluated: plans_evaluated as f64 / rows.len().max(1) as f64,
    };

    let md = markdown_table(
        &["system", "total (ms)", "vs PG", "better on", "worse on"],
        &[
            vec![
                "PostgreSQL".into(),
                fmt(totals.postgres_total_ms),
                "—".into(),
                "—".into(),
                "—".into(),
            ],
            vec![
                "QPSeeker (trained on Synthetic)".into(),
                fmt(totals.qpseeker_total_ms),
                fmt(totals.postgres_total_ms - totals.qpseeker_total_ms),
                totals.qpseeker_better.to_string(),
                totals.qpseeker_worse.to_string(),
            ],
            vec![
                "Bao (trained on Synthetic)".into(),
                fmt(totals.bao_total_ms),
                fmt(totals.postgres_total_ms - totals.bao_total_ms),
                totals.bao_better.to_string(),
                totals.bao_worse.to_string(),
            ],
        ],
    );
    let out = Output { rows, totals };
    emit("fig9_job_margin", &out, &md)?;
    println!("avg plans evaluated per query by MCTS: {:.0}", out.totals.avg_plans_evaluated);
    Ok(())
}
