//! **Fig. 10** — queries executed through time: for each evaluation query
//! set (JOB, JOB-light, JOB-extended, Stack) run the plans chosen by
//! QPSeeker, Bao and PostgreSQL in sequence and record the cumulative
//! completion curve.
//!
//! Paper shape: QPSeeker tracks PostgreSQL closely on Stack and JOB, wins on
//! JOB-extended, and loses badly on JOB-light (a couple of memory-heavy
//! regressions); Bao is the slowest almost everywhere.

use crate::{emit, fmt, markdown_table, Context};
use qpseeker_baselines::{Bao, BaoConfig};
use qpseeker_core::prelude::*;
use qpseeker_engine::executor::Executor;
use qpseeker_engine::optimizer::PgOptimizer;
use qpseeker_engine::query::Query;
use qpseeker_workloads::{job, JobConfig, Qep};
use serde::Serialize;

#[derive(Serialize)]
pub struct Series {
    pub workload: String,
    pub system: String,
    /// Cumulative virtual milliseconds after each completed query.
    pub cumulative_ms: Vec<f64>,
    pub total_ms: f64,
}

pub fn run(ctx: &Context) -> Result<(), CoreError> {
    let mut series: Vec<Series> = Vec::new();

    // --- IMDb-side query sets, planners trained on Synthetic. ---
    {
        let db = &ctx.imdb;
        let synth = ctx.synthetic();
        // QPSeeker trains on the sampled Synthetic variant (plan-space
        // coverage, §3.1 setting (b)).
        let sampled = qpseeker_workloads::synthetic::generate_sampled(
            db,
            &qpseeker_workloads::SyntheticConfig {
                n_queries: ctx.scale.synthetic_queries,
                seed: ctx.scale.seed,
            },
            4,
        );
        let refs: Vec<&Qep> = sampled.qeps.iter().collect();
        let mut model = QPSeeker::new(db, ctx.scale.model_config());
        model.fit(&refs)?;
        let mut bao = Bao::new(db, BaoConfig { epochs: ctx.scale.epochs, ..Default::default() });
        let bao_train: Vec<&Query> = synth.qeps.iter().map(|q| &q.query).take(120).collect();
        bao.train(&bao_train);
        let sets: Vec<(&str, Vec<(Query, String)>)> = vec![
            ("job", job::job_queries(db, &JobConfig::default())),
            ("job-light", job::job_light_queries(db, ctx.scale.seed)),
            ("job-extended", job::job_extended_queries(db, ctx.scale.seed)),
        ];
        for (name, queries) in sets {
            run_set(ctx, db, name, &queries, &model, &bao, &mut series);
        }
    }

    // --- Stack: planners trained on the Stack training split. ---
    {
        let db = &ctx.stack_db;
        let stack = ctx.stack();
        let (train, eval) = stack.split(0.8, false);
        let mut model = QPSeeker::new(db, ctx.scale.model_config());
        model.fit(&train)?;
        let mut bao = Bao::new(db, BaoConfig { epochs: ctx.scale.epochs, ..Default::default() });
        let bao_train: Vec<&Query> = train.iter().map(|q| &q.query).take(120).collect();
        bao.train(&bao_train);
        let queries: Vec<(Query, String)> =
            eval.iter().map(|q| (q.query.clone(), q.template.clone())).collect();
        run_set(ctx, db, "stack", &queries, &model, &bao, &mut series);
    }

    let md_rows: Vec<Vec<String>> = series
        .iter()
        .map(|s| {
            let half = s.cumulative_ms.get(s.cumulative_ms.len() / 2).copied().unwrap_or(0.0);
            vec![
                s.workload.clone(),
                s.system.clone(),
                s.cumulative_ms.len().to_string(),
                fmt(half),
                fmt(s.total_ms),
            ]
        })
        .collect();
    let md = markdown_table(
        &["workload", "system", "queries", "time to 50% (ms)", "total (ms)"],
        &md_rows,
    );
    emit("fig10_queries_through_time", &series, &md)?;
    Ok(())
}

fn run_set(
    _ctx: &Context,
    db: &qpseeker_storage::Database,
    name: &str,
    queries: &[(Query, String)],
    model: &QPSeeker,
    bao: &Bao<'_>,
    series: &mut Vec<Series>,
) {
    eprintln!("[fig10] running {name} ({} queries)...", queries.len());
    let pg = PgOptimizer::new(db);
    let planner = StrategyPlanner::from_config(&StrategyConfig::default(), MctsConfig::default());
    let ex = Executor::new(db);
    let mut pg_times = Vec::with_capacity(queries.len());
    let mut qp_times = Vec::with_capacity(queries.len());
    let mut bao_times = Vec::with_capacity(queries.len());
    for (q, _) in queries {
        pg_times.push(ex.execute(&pg.plan(q)).time_ms);
        let res = planner.plan(model, q);
        qp_times.push(ex.execute(&res.plan).time_ms);
        let (bp, _) = bao.plan(q);
        bao_times.push(ex.execute(&bp).time_ms);
    }
    for (system, times) in [("PostgreSQL", pg_times), ("QPSeeker", qp_times), ("Bao", bao_times)] {
        let mut cum = Vec::with_capacity(times.len());
        let mut acc = 0.0;
        for t in &times {
            acc += t;
            cum.push(acc);
        }
        series.push(Series {
            workload: name.into(),
            system: system.into(),
            total_ms: acc,
            cumulative_ms: cum,
        });
    }
}
