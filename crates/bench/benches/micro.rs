//! Criterion micro-benchmarks for the substrates and the model's inference
//! path: executor throughput, optimizer planning, TabSim encoding, QPSeeker
//! prediction and one MCTS planning call.

use criterion::{criterion_group, criterion_main, Criterion};
use qpseeker_core::prelude::*;
use qpseeker_engine::prelude::*;
use qpseeker_tabert::{TabSim, TabertCache, TabertConfig};
use qpseeker_workloads::{synthetic, Qep, SyntheticConfig};
use std::hint::black_box;

fn bench_executor(c: &mut Criterion) {
    let db = qpseeker_storage::datagen::imdb::generate(0.3, 1);
    let mut q = Query::new("bench");
    q.relations = vec![RelRef::new("title"), RelRef::new("cast_info")];
    q.joins = vec![JoinPred {
        left: ColRef::new("cast_info", "movie_id"),
        right: ColRef::new("title", "id"),
    }];
    let plan = PlanNode::join(
        &q,
        JoinOp::HashJoin,
        PlanNode::scan(&q, "title", ScanOp::SeqScan),
        PlanNode::scan(&q, "cast_info", ScanOp::SeqScan),
    );
    let ex = Executor::new(&db);
    c.bench_function("executor/hash_join_2way", |b| {
        b.iter(|| black_box(ex.execute(black_box(&plan))))
    });
}

fn bench_optimizer(c: &mut Criterion) {
    let db = qpseeker_storage::datagen::imdb::generate(0.1, 1);
    let mut q = Query::new("bench");
    for t in ["title", "movie_info", "movie_keyword", "cast_info", "movie_companies"] {
        q.relations.push(RelRef::new(t));
    }
    for t in ["movie_info", "movie_keyword", "cast_info", "movie_companies"] {
        q.joins
            .push(JoinPred { left: ColRef::new(t, "movie_id"), right: ColRef::new("title", "id") });
    }
    let opt = PgOptimizer::new(&db);
    c.bench_function("optimizer/dp_5way", |b| b.iter(|| black_box(opt.plan(black_box(&q)))));
}

fn bench_tabert(c: &mut Criterion) {
    let db = qpseeker_storage::datagen::imdb::generate(0.1, 1);
    c.bench_function("tabert/encode_table_uncached", |b| {
        b.iter_with_setup(
            || (TabSim::new(TabertConfig::paper_default()), TabertCache::default()),
            |(ts, mut cache)| {
                black_box(ts.encode_table(&mut cache, &db, "title", "select * from title"))
            },
        )
    });
}

fn bench_matmul_kernel(c: &mut Criterion) {
    use qpseeker_nn::tensor::Tensor;
    // Shapes matched to the small-config VAE encoder hot spot.
    let a = Tensor::from_vec(8, 96, (0..8 * 96).map(|i| (i as f32 * 0.37).sin()).collect());
    let b_ = Tensor::from_vec(96, 96, (0..96 * 96).map(|i| (i as f32 * 0.11).cos()).collect());
    c.bench_function("nn/matmul_8x96x96", |b| {
        b.iter(|| black_box(black_box(&a).matmul(black_box(&b_))))
    });
    let mut out = Tensor::zeros(8, 96);
    c.bench_function("nn/matmul_into_8x96x96", |b| {
        b.iter(|| {
            black_box(&a).matmul_into(black_box(&b_), &mut out);
            black_box(&out);
        })
    });
}

fn bench_model(c: &mut Criterion) {
    let db = std::sync::Arc::new(qpseeker_storage::datagen::imdb::generate(0.06, 1));
    let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 40, seed: 1 });
    let refs: Vec<&Qep> = w.qeps.iter().collect();
    let mut model = QPSeeker::new(&db, ModelConfig::small());
    model.fit(&refs).expect("training succeeds");
    let qep = w.qeps.iter().find(|q| q.query.num_joins() >= 1).expect("join query");
    // The one-shot wrappers (fresh session and query encoding per call):
    // the tape-free scoring forward vs the autodiff-tape reference.
    c.bench_function("qpseeker/predict", |b| {
        b.iter(|| black_box(model.predict(black_box(&qep.query), black_box(&qep.plan))))
    });
    c.bench_function("qpseeker/predict_tape", |b| {
        b.iter(|| black_box(model.predict_tape(black_box(&qep.query), black_box(&qep.plan))))
    });
    // Amortized per-plan cost when the query is encoded once and every
    // candidate reuses the context — the MCTS hot-loop shape.
    c.bench_function("qpseeker/predict_with_context", |b| {
        let mut feat = FeatSession::new();
        let mut ctx = model.query_context(&qep.query);
        b.iter(|| {
            black_box(model.predict_with_context_in(
                &mut feat,
                black_box(&qep.query),
                black_box(&qep.plan),
                &mut ctx,
            ))
        })
    });
    // Batched amortization: 16 candidate plans as 16 rows of one forward
    // vs 16 one-row calls (the MCTS flush shape).
    let pool_refs: Vec<&PlanNode> = vec![&qep.plan; 16];
    c.bench_function("qpseeker/predict_batch_16", |b| {
        let mut feat = FeatSession::new();
        let mut ctx = model.query_context(&qep.query);
        let mut preds = Vec::new();
        b.iter(|| {
            model.predict_batch_with_context_in(
                &mut feat,
                black_box(&qep.query),
                black_box(&pool_refs),
                &mut ctx,
                &mut preds,
            );
            black_box(&preds);
        })
    });
    // One session across iterations, as a serving worker holds it.
    let mut sess = PlannerSession::new();
    let planner =
        MctsPlanner::new(MctsConfig { budget_ms: 1e9, max_simulations: 20, ..Default::default() });
    c.bench_function("qpseeker/mcts_20_simulations", |b| {
        b.iter(|| black_box(planner.plan_with_session(&model, black_box(&qep.query), &mut sess)))
    });
    // Search throughput under the paper's default wall-clock budget, scaled
    // to 100 ms per iteration: plans_evaluated is the figure of merit.
    let budget = MctsPlanner::new(MctsConfig {
        budget_ms: 100.0,
        max_simulations: usize::MAX,
        ..Default::default()
    });
    c.bench_function("qpseeker/mcts_plans_per_100ms", |b| {
        b.iter(|| {
            black_box(budget.plan_with_session(&model, black_box(&qep.query), &mut sess))
                .plans_evaluated
        })
    });
}

fn bench_training_step(c: &mut Criterion) {
    let db = std::sync::Arc::new(qpseeker_storage::datagen::imdb::generate(0.06, 1));
    let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 16, seed: 1 });
    c.bench_function("qpseeker/train_epoch_16qeps", |b| {
        b.iter_with_setup(
            || {
                let mut cfg = ModelConfig::small();
                cfg.epochs = 1;
                QPSeeker::new(&db, cfg)
            },
            |mut model| {
                let refs: Vec<&Qep> = w.qeps.iter().collect();
                black_box(model.fit(&refs).expect("training succeeds"))
            },
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_executor, bench_optimizer, bench_tabert, bench_matmul_kernel, bench_model,
        bench_training_step
}
criterion_main!(benches);
