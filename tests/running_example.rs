//! The paper's §5 running example (Fig. 6), end-to-end:
//!
//! ```sql
//! select * from a, b, c where a.a1 = b.b1 and b.b2 = c.c1 and a.a2 = 1
//! plan: HashJoin(HashJoin(SeqScan(a), SeqScan(b)), SeqScan(c))
//! ```
//!
//! Steps verified: (1) query encoding, (2) plan encoding of all 5 nodes,
//! (3) QPAttention combination, (4) VAE reconstruction + dense head
//! producing the three estimates.

use qpseeker_repro::core::prelude::*;
use qpseeker_repro::engine::prelude::*;
use qpseeker_repro::storage::{
    Catalog, Column, ColumnData, ColumnMeta, Database, ForeignKey, IndexMeta, Table, TableMeta,
};
use qpseeker_repro::workloads::Qep;

/// Build the running example's 3-table database (a, b, c).
fn example_db() -> std::sync::Arc<Database> {
    let mk_meta = |name: &str, cols: &[&str]| TableMeta {
        name: name.into(),
        columns: cols
            .iter()
            .map(|c| ColumnMeta {
                name: (*c).into(),
                dtype: qpseeker_repro::storage::DataType::Int,
            })
            .collect(),
    };
    let a = Table::new(
        "a",
        vec![
            Column { name: "a1".into(), data: ColumnData::Int((0..40).collect()) },
            Column { name: "a2".into(), data: ColumnData::Int((0..40).map(|i| i % 4).collect()) },
        ],
    );
    let b = Table::new(
        "b",
        vec![
            Column { name: "b1".into(), data: ColumnData::Int((0..60).map(|i| i % 40).collect()) },
            Column { name: "b2".into(), data: ColumnData::Int((0..60).map(|i| i % 20).collect()) },
        ],
    );
    let c = Table::new(
        "c",
        vec![Column { name: "c1".into(), data: ColumnData::Int((0..20).collect()) }],
    );
    let catalog = Catalog {
        tables: vec![
            mk_meta("a", &["a1", "a2"]),
            mk_meta("b", &["b1", "b2"]),
            mk_meta("c", &["c1"]),
        ],
        foreign_keys: vec![
            ForeignKey {
                from_table: "b".into(),
                from_col: "b1".into(),
                to_table: "a".into(),
                to_col: "a1".into(),
            },
            ForeignKey {
                from_table: "b".into(),
                from_col: "b2".into(),
                to_table: "c".into(),
                to_col: "c1".into(),
            },
        ],
        indexes: vec![
            IndexMeta::for_column("a", "a1", 40, true),
            IndexMeta::for_column("b", "b1", 60, false),
            IndexMeta::for_column("c", "c1", 20, true),
        ],
    };
    std::sync::Arc::new(Database::new("example", catalog, vec![a, b, c]))
}

/// The running example's query.
fn example_query() -> Query {
    let mut q = Query::new("fig6");
    q.relations = vec![RelRef::new("a"), RelRef::new("b"), RelRef::new("c")];
    q.joins = vec![
        JoinPred { left: ColRef::new("a", "a1"), right: ColRef::new("b", "b1") },
        JoinPred { left: ColRef::new("b", "b2"), right: ColRef::new("c", "c1") },
    ];
    q.filters = vec![Filter { col: ColRef::new("a", "a2"), op: CmpOp::Eq, value: 1.0 }];
    q
}

/// The running example's plan: 1.SeqScan(a) 2.SeqScan(b) 3.HashJoin(a,b)
/// 4.SeqScan(c) 5.HashJoin(a,b,c).
fn example_plan(q: &Query) -> PlanNode {
    let sa = PlanNode::scan(q, "a", ScanOp::SeqScan);
    let sb = PlanNode::scan(q, "b", ScanOp::SeqScan);
    let ab = PlanNode::join(q, JoinOp::HashJoin, sa, sb);
    let sc = PlanNode::scan(q, "c", ScanOp::SeqScan);
    PlanNode::join(q, JoinOp::HashJoin, ab, sc)
}

#[test]
fn plan_has_the_papers_five_nodes() {
    let q = example_query();
    let plan = example_plan(&q);
    assert_eq!(plan.len(), 5);
    assert_eq!(plan.num_joins(), 2);
    assert!(plan.is_left_deep());
    assert!(plan.validate(&q).is_ok());
}

#[test]
fn executor_produces_per_node_ground_truth() {
    let db = example_db();
    let q = example_query();
    let plan = example_plan(&q);
    let res = Executor::new(&db).execute(&plan);
    assert_eq!(res.nodes.len(), 5);
    // Scan of a with a2=1 matches 10 of 40 rows.
    assert_eq!(res.nodes[0].rows, 10);
    // Everything is measured.
    for n in &res.nodes {
        assert!(n.time_ms > 0.0);
        assert!(n.cost > 0.0);
    }
}

#[test]
fn full_pipeline_trains_and_predicts_on_the_example() {
    let db = example_db();
    let q = example_query();
    let plan = example_plan(&q);

    // Build a small training set: the example QEP plus operator variants
    // (different physical plans of the same query, as sampling would give).
    let mut qeps = Vec::new();
    for join1 in JoinOp::ALL {
        for join2 in JoinOp::ALL {
            let sa = PlanNode::scan(&q, "a", ScanOp::SeqScan);
            let sb = PlanNode::scan(&q, "b", ScanOp::IndexScan);
            let ab = PlanNode::join(&q, join1, sa, sb);
            let sc = PlanNode::scan(&q, "c", ScanOp::SeqScan);
            let p = PlanNode::join(&q, join2, ab, sc);
            qeps.push(Qep::measure(&db, q.clone(), p, "fig6"));
        }
    }
    qeps.push(Qep::measure(&db, q.clone(), plan.clone(), "fig6"));

    let mut cfg = ModelConfig::small();
    cfg.epochs = 15;
    let mut model = QPSeeker::new(&db, cfg);
    let refs: Vec<&Qep> = qeps.iter().collect();
    let report = model.fit(&refs).expect("training succeeds");
    // Training must make progress on this tiny set (VAE noise makes the
    // per-epoch loss non-monotone, so compare best-so-far against epoch 0).
    let first = report.epoch_losses[0];
    let best = report.epoch_losses.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(best < first, "no training progress: first {first}, best {best}");

    // Step 4 of the running example: predictions for the encoded QEP.
    let pred = model.predict(&q, &plan);
    assert!(pred.cardinality.is_finite() && pred.cardinality >= 0.0);
    assert!(pred.cost.is_finite() && pred.cost >= 0.0);
    assert!(pred.runtime_ms.is_finite() && pred.runtime_ms >= 0.0);

    // The latent representation exists and has the configured width.
    let mu = model.latent_mu(&q, &plan);
    assert_eq!(mu.len(), ModelConfig::small().vae_latent);
}

#[test]
fn mcts_plans_the_example_query() {
    let db = example_db();
    let q = example_query();
    let mut qeps = Vec::new();
    for join1 in JoinOp::ALL {
        let sa = PlanNode::scan(&q, "a", ScanOp::SeqScan);
        let sb = PlanNode::scan(&q, "b", ScanOp::SeqScan);
        let ab = PlanNode::join(&q, join1, sa, sb);
        let sc = PlanNode::scan(&q, "c", ScanOp::SeqScan);
        let p = PlanNode::join(&q, JoinOp::HashJoin, ab, sc);
        qeps.push(Qep::measure(&db, q.clone(), p, "fig6"));
    }
    let mut model = QPSeeker::new(&db, ModelConfig::small());
    let refs: Vec<&Qep> = qeps.iter().collect();
    model.fit(&refs).expect("training succeeds");
    let planner = StrategyPlanner::from_config(
        &StrategyConfig::default(),
        MctsConfig { budget_ms: 1e9, max_simulations: 50, ..Default::default() },
    );
    let res = planner.plan(&model, &q);
    assert!(res.plan.validate(&q).is_ok());
    assert_eq!(res.plan.aliases().len(), 3);
}
