//! **Fig. 8** — (left) impact of the query-sampling fraction and of the
//! TaBERT configuration on plan quality; (right) average time spent inside
//! TaBERT per configuration.
//!
//! Paper shape: a cost model trained on QEPs sampled from only 10% of the
//! Stack queries is not competitive, while 25% and 50% perform like 100%;
//! TaBERT K/size barely moves accuracy but strongly moves encoding time
//! (K=3 pays row-wise attention, Large pays 3× parameters).

use crate::{emit, fmt, markdown_table, runtime_qerrors, Context};
use qpseeker_core::prelude::*;
use qpseeker_engine::executor::Executor;
use qpseeker_engine::query::Query;
use qpseeker_tabert::{ModelSize, TabertConfig};
use qpseeker_workloads::{sample_plans, stack as stack_wl, Qep, SamplingConfig, StackConfig};
use serde::Serialize;

#[derive(Serialize)]
pub struct FractionRow {
    pub query_fraction: f64,
    pub train_qeps: usize,
    /// Total executed runtime of the plans chosen by MCTS on the eval set.
    pub plans_total_ms: f64,
    /// Runtime prediction q-error median on the eval set.
    pub runtime_qerr_p50: f64,
}

#[derive(Serialize)]
pub struct TabertRow {
    pub k: usize,
    pub size: String,
    pub runtime_qerr_p50: f64,
    /// Average simulated TaBERT milliseconds per featurized QEP.
    pub avg_tabert_ms_per_qep: f64,
}

#[derive(Serialize)]
pub struct Output {
    pub fractions: Vec<FractionRow>,
    pub tabert: Vec<TabertRow>,
}

pub fn run(ctx: &Context) -> Result<(), CoreError> {
    let db = &ctx.stack_db;
    // Query pool + sampled QEP pool (the Stack sampling experiment).
    let queries = stack_wl::generate_queries(
        db,
        &StackConfig { n_queries: ctx.scale.stack_queries, seed: ctx.scale.seed },
    );
    let n_eval = (queries.len() / 5).max(5);
    let (eval_queries, train_queries) = queries.split_at(n_eval);

    // Target QEP count shared by every fraction (the paper resamples "until
    // we reach the initial number of available QEPs").
    let target_qeps = (train_queries.len() * 3).min(ctx.scale.job_qeps);

    let ex = Executor::new(db);
    let mut fractions = Vec::new();
    let mut eval_qeps_cache: Option<Vec<Qep>> = None;
    for frac in [0.10, 0.25, 0.50, 1.0] {
        let n_q = ((train_queries.len() as f64) * frac).ceil().max(2.0) as usize;
        let subset = &train_queries[..n_q.min(train_queries.len())];
        let per_query = (target_qeps / subset.len()).max(1);
        let mut items = Vec::new();
        for (q, tpl) in subset {
            let cfg = SamplingConfig {
                max_orderings: (per_query * 2).max(20),
                operators_per_ordering: 3,
                keep_fraction: 0.15,
                seed: ctx.scale.seed,
            };
            let mut plans = sample_plans(db, q, &cfg);
            plans.truncate(per_query);
            for sp in plans {
                items.push((q.clone(), sp.plan, tpl.clone()));
            }
        }
        let qeps = qpseeker_workloads::qep::measure_parallel(db, items);
        let refs: Vec<&Qep> = qeps.iter().collect();
        let mut model = QPSeeker::new(db, ctx.scale.model_config());
        model.fit(&refs)?;

        // Eval 1: plan the held-out queries with MCTS and execute.
        let planner =
            StrategyPlanner::from_config(&StrategyConfig::default(), MctsConfig::default());
        let mut sess = PlannerSession::new();
        let mut total = 0.0;
        for (q, _) in eval_queries {
            let res = planner.plan_with_session(&model, q, &mut sess);
            total += ex.execute(&res.plan).time_ms;
        }
        // Eval 2: runtime q-error on a fixed eval QEP set (optimizer plans).
        let eval_qeps = eval_qeps_cache.get_or_insert_with(|| {
            let opt = qpseeker_engine::optimizer::PgOptimizer::new(db);
            let items: Vec<(Query, qpseeker_engine::plan::PlanNode, String)> =
                eval_queries.iter().map(|(q, t)| (q.clone(), opt.plan(q), t.clone())).collect();
            qpseeker_workloads::qep::measure_parallel(db, items)
        });
        let qerr = runtime_qerrors(&model, eval_qeps.iter());
        fractions.push(FractionRow {
            query_fraction: frac,
            train_qeps: qeps.len(),
            plans_total_ms: total,
            runtime_qerr_p50: qerr.p50,
        });
        eprintln!(
            "[fig8] fraction {frac}: total plan time {total:.1} ms, qerr p50 {:.2}",
            qerr.p50
        );
    }

    // --- TaBERT impact: K and model size. ---
    let mut tabert_rows = Vec::new();
    let stack = ctx.stack();
    let (train, eval) = stack.split(0.8, false);
    for (k, size, label) in [
        (1, ModelSize::Base, "base"),
        (3, ModelSize::Base, "base"),
        (1, ModelSize::Large, "large"),
        (3, ModelSize::Large, "large"),
    ] {
        let mut cfg = ctx.scale.model_config();
        cfg.tabert = TabertConfig { k, size, seed: cfg.tabert.seed };
        let mut model = QPSeeker::new(db, cfg);
        model.fit(&train)?;
        let featurized = train.len();
        let qerr = runtime_qerrors(&model, eval.iter().copied());
        tabert_rows.push(TabertRow {
            k,
            size: label.into(),
            runtime_qerr_p50: qerr.p50,
            avg_tabert_ms_per_qep: model.tabert_ms() / (featurized + eval.len()).max(1) as f64,
        });
    }

    let mut md = String::from("**Sampling fraction (Stack):**\n\n");
    md.push_str(&markdown_table(
        &["query fraction", "train QEPs", "MCTS plans total (ms)", "runtime q-err p50"],
        &fractions
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0}%", r.query_fraction * 100.0),
                    r.train_qeps.to_string(),
                    fmt(r.plans_total_ms),
                    fmt(r.runtime_qerr_p50),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    md.push_str("\n**TaBERT configuration:**\n\n");
    md.push_str(&markdown_table(
        &["K", "size", "runtime q-err p50", "avg TaBERT ms/QEP"],
        &tabert_rows
            .iter()
            .map(|r| {
                vec![
                    r.k.to_string(),
                    r.size.clone(),
                    fmt(r.runtime_qerr_p50),
                    fmt(r.avg_tabert_ms_per_qep),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    let out = Output { fractions, tabert: tabert_rows };
    emit("fig8_sampling_and_tabert", &out, &md)?;
    Ok(())
}
