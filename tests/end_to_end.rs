//! Cross-crate end-to-end tests: the full train → plan → execute loop, and
//! determinism of the entire pipeline from one seed.

use qpseeker_repro::core::prelude::*;
use qpseeker_repro::engine::prelude::*;
use qpseeker_repro::workloads::{job, synthetic, JobConfig, Qep, SyntheticConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn db() -> std::sync::Arc<qpseeker_repro::storage::Database> {
    std::sync::Arc::new(qpseeker_repro::storage::datagen::imdb::generate(0.06, 77))
}

/// Random valid left-deep plan of a query.
fn random_plan(q: &Query, rng: &mut StdRng) -> PlanNode {
    let start = q.relations[rng.gen_range(0..q.relations.len())].alias.clone();
    let mut joined: BTreeSet<std::sync::Arc<str>> = BTreeSet::new();
    joined.insert(start.clone());
    let mut plan = PlanNode::scan(q, &start, ScanOp::ALL[rng.gen_range(0..3)]);
    while joined.len() < q.relations.len() {
        let nbrs = q.neighbors(&joined);
        let next = nbrs[rng.gen_range(0..nbrs.len())].clone();
        let scan = PlanNode::scan(q, &next, ScanOp::ALL[rng.gen_range(0..3)]);
        plan = PlanNode::join(q, JoinOp::ALL[rng.gen_range(0..3)], plan, scan);
        joined.insert(next);
    }
    plan
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "trains a model over a sampled 16-join plan space; minutes in debug builds — run with --release"
)]
fn trained_mcts_planner_beats_random_planning() {
    let db = db();
    // Train on sampled JOB QEPs (the setting where the learned cost model
    // sees many plans per query).
    // keep_fraction 1.0: the cost model must see good *and* catastrophic
    // plans to steer MCTS (the top-15% training set of the paper covers only
    // the good region; see the sampling ablation).
    let workload = job::generate(
        &db,
        &JobConfig {
            n_queries: 16,
            n_templates: 6,
            target_qeps: 320,
            keep_fraction: 1.0,
            ..Default::default()
        },
    );
    let (train, eval) = workload.split(0.75, true);
    assert!(!train.is_empty() && !eval.is_empty());
    let mut cfg = ModelConfig::small();
    cfg.epochs = 25;
    let mut model = QPSeeker::new(&db, cfg);
    model.fit(&train).expect("training succeeds");

    // Held-out queries of moderate size: a tiny training corpus cannot
    // teach 16-level cost propagation, so the CI-scale claim is about the
    // regime the model can learn here (the standard-scale bench covers the
    // heavy queries).
    let mut seen = std::collections::HashSet::new();
    let queries: Vec<&Query> = eval
        .iter()
        .filter(|q| q.query.num_joins() <= 8 && seen.insert(q.query.id.clone()))
        .map(|q| &q.query)
        .take(5)
        .collect();
    assert!(!queries.is_empty(), "eval split must contain moderate queries");

    let ex = Executor::new(&db);
    let planner = StrategyPlanner::from_config(
        &StrategyConfig::default(),
        MctsConfig { budget_ms: 1e9, max_simulations: 200, ..Default::default() },
    );
    let mut rng = StdRng::seed_from_u64(1);
    let mut mcts_total = 0.0;
    let mut random_total = 0.0;
    for q in queries {
        let res = planner.plan(&model, q);
        mcts_total += ex.execute(&res.plan).time_ms;
        // Average of several random plans.
        let mut acc = 0.0;
        for _ in 0..5 {
            acc += ex.execute(&random_plan(q, &mut rng)).time_ms;
        }
        random_total += acc / 5.0;
    }
    assert!(
        mcts_total < random_total,
        "MCTS plans ({mcts_total:.1} ms) must beat average random plans ({random_total:.1} ms)"
    );
}

#[test]
fn pipeline_is_deterministic_from_the_seed() {
    let run = || {
        let db = db();
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 25, seed: 3 });
        let refs: Vec<&Qep> = w.qeps.iter().collect();
        let mut model = QPSeeker::new(&db, ModelConfig::small());
        let report = model.fit(&refs).expect("training succeeds");
        let p = model.predict(&w.qeps[0].query, &w.qeps[0].plan);
        (report.epoch_losses, p.runtime_ms)
    };
    let (l1, p1) = run();
    let (l2, p2) = run();
    assert_eq!(l1, l2, "training losses must be bit-identical across runs");
    assert_eq!(p1, p2, "predictions must be bit-identical across runs");
}

#[test]
fn injected_plans_execute_identically_to_directly_built_plans() {
    let db = db();
    let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 10, seed: 9 });
    let ex = Executor::new(&db);
    for qep in &w.qeps {
        if !qep.plan.is_left_deep() {
            continue;
        }
        let spec = LeftDeepSpec::from_plan(&qep.plan).expect("left-deep");
        let compiled = spec.compile(&qep.query).expect("compiles");
        let a = ex.execute(&qep.plan);
        let b = ex.execute(&compiled);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.time_ms, b.time_ms);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "trains a model over a sampled 16-join plan space; minutes in debug builds — run with --release"
)]
fn model_predictions_differentiate_good_from_catastrophic_plans() {
    let db = db();
    let workload = job::generate(
        &db,
        &JobConfig {
            n_queries: 12,
            n_templates: 5,
            target_qeps: 280,
            keep_fraction: 1.0,
            ..Default::default()
        },
    );
    let refs: Vec<&Qep> = workload.qeps.iter().collect();
    let mut cfg = ModelConfig::small();
    cfg.epochs = 10;
    let mut model = QPSeeker::new(&db, cfg);
    model.fit(&refs).expect("training succeeds");

    // For queries with at least 3 relations, compare the model's prediction
    // for an all-nested-loop plan vs an all-hash plan: across the workload,
    // nested loops over big intermediates must be predicted slower on
    // average (the model has internalized operator costs).
    let mut nl_sum = 0.0;
    let mut hash_sum = 0.0;
    let mut count = 0;
    let mut seen = std::collections::HashSet::new();
    for qep in &workload.qeps {
        if qep.query.num_relations() < 3 || !seen.insert(qep.query.id.clone()) {
            continue;
        }
        let q = &qep.query;
        let ordering: Vec<std::sync::Arc<str>> =
            match qpseeker_repro::workloads::enumerate_orderings(q, 1).into_iter().next() {
                Some(o) => o,
                None => continue,
            };
        let mk = |op: JoinOp| {
            LeftDeepSpec {
                scans: ordering.iter().map(|a| (a.clone(), ScanOp::SeqScan)).collect(),
                joins: vec![op; ordering.len() - 1],
            }
            .compile(q)
            .expect("valid")
        };
        nl_sum += model.predict(q, &mk(JoinOp::NestedLoopJoin)).runtime_ms;
        hash_sum += model.predict(q, &mk(JoinOp::HashJoin)).runtime_ms;
        count += 1;
    }
    assert!(count >= 3, "need enough multi-join queries, got {count}");
    assert!(
        nl_sum > hash_sum,
        "predicted nested-loop total ({nl_sum:.1}) should exceed hash total ({hash_sum:.1})"
    );
}
