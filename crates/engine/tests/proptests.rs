//! Property tests for the engine: executor correctness against brute force,
//! operator equivalence, spec round-trips, estimator bounds, and the row
//! cap / row budget against an uncapped run, on left-deep and bushy plans.
//!
//! The CI chaos job sweeps the row-cap schedule over seeds {1,2,3} via
//! `QPS_CHAOS_SEED` (see .github/workflows).

use proptest::prelude::*;
use qpseeker_engine::prelude::*;
use qpseeker_storage::datagen::imdb;
use qpseeker_storage::{
    Catalog, Column, ColumnData, ColumnMeta, Database, FaultConfig, ForeignKey, IndexMeta, Table,
    TableMeta,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::OnceLock;

fn chaos_seed() -> u64 {
    std::env::var("QPS_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

fn imdb_db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| imdb::generate(0.03, 5))
}

/// A three-fact star around `title` plus one dimension join, and
/// `kind_type` with no predicate: wherever it lands the plan has a cross
/// product.
fn star_with_cross_product() -> Query {
    let mut q = Query::new("capped");
    for t in ["title", "movie_info", "cast_info", "movie_keyword", "keyword", "kind_type"] {
        q.relations.push(RelRef::new(t));
    }
    for fact in ["movie_info", "cast_info", "movie_keyword"] {
        q.joins.push(JoinPred {
            left: ColRef::new(fact, "movie_id"),
            right: ColRef::new("title", "id"),
        });
    }
    q.joins.push(JoinPred {
        left: ColRef::new("movie_keyword", "keyword_id"),
        right: ColRef::new("keyword", "id"),
    });
    q.filters.push(Filter {
        col: ColRef::new("title", "production_year"),
        op: CmpOp::Gt,
        value: 1990.0,
    });
    q
}

/// A random left-deep plan: a connected order of the star, `kind_type`
/// spliced in anywhere, random scan and join operators.
fn random_left_deep(q: &Query, rng: &mut StdRng) -> PlanNode {
    let connected: Vec<&RelRef> = q.relations.iter().filter(|r| r.alias != "kind_type").collect();
    let mut joined = BTreeSet::new();
    let mut order = vec![connected[rng.gen_range(0..connected.len())].alias.clone()];
    joined.insert(order[0].clone());
    while order.len() < connected.len() {
        let next = q.neighbors(&joined);
        let pick = next[rng.gen_range(0..next.len())].clone();
        joined.insert(pick.clone());
        order.push(pick);
    }
    order.insert(rng.gen_range(0..=order.len()), "kind_type".to_string());
    let mut plan = PlanNode::scan(q, &order[0], ScanOp::ALL[rng.gen_range(0..3)]);
    for alias in &order[1..] {
        let right = PlanNode::scan(q, alias, ScanOp::ALL[rng.gen_range(0..3)]);
        plan = PlanNode::join(q, JoinOp::ALL[rng.gen_range(0..3)], plan, right);
    }
    plan
}

/// A random bushy plan: one scan per relation, then join two subplans a
/// predicate links until one is left (either side of a join may itself be
/// a join); `kind_type` joins a random subplan, by cross product, at a
/// random step.
fn random_bushy(q: &Query, rng: &mut StdRng) -> PlanNode {
    let mut parts: Vec<PlanNode> = q
        .relations
        .iter()
        .map(|r| PlanNode::scan(q, &r.alias, ScanOp::ALL[rng.gen_range(0..3)]))
        .collect();
    while parts.len() > 1 {
        let part_of = |alias: &str| parts.iter().position(|p| p.aliases().contains(alias));
        let linked: Vec<(usize, usize)> = q
            .joins
            .iter()
            .filter_map(|j| Some((part_of(&j.left.alias)?, part_of(&j.right.alias)?)))
            .filter(|(a, b)| a != b)
            .collect();
        let lone = parts
            .iter()
            .position(|p| matches!(p, PlanNode::Scan { alias, .. } if alias == "kind_type"));
        let (a, b) = match lone {
            Some(k) if linked.is_empty() || rng.gen_range(0..parts.len()) == 0 => {
                let other = (k + rng.gen_range(1..parts.len())) % parts.len();
                (k, other)
            }
            _ => linked[rng.gen_range(0..linked.len())],
        };
        let (hi, lo) = (parts.remove(a.max(b)), parts.remove(a.min(b)));
        let (l, r) = if rng.gen_bool(0.5) { (hi, lo) } else { (lo, hi) };
        parts.push(PlanNode::join(q, JoinOp::ALL[rng.gen_range(0..3)], l, r));
    }
    parts.pop().expect("one plan")
}

/// Build a 2-table database from arbitrary small column contents.
fn build_db(a_vals: Vec<i64>, b_fk: Vec<i64>) -> Database {
    let a = Table::new(
        "a",
        vec![
            Column { name: "id".into(), data: ColumnData::Int((0..a_vals.len() as i64).collect()) },
            Column { name: "v".into(), data: ColumnData::Int(a_vals) },
        ],
    );
    let b = Table::new(
        "b",
        vec![
            Column { name: "id".into(), data: ColumnData::Int((0..b_fk.len() as i64).collect()) },
            Column { name: "a_id".into(), data: ColumnData::Int(b_fk) },
        ],
    );
    let catalog = Catalog {
        tables: vec![
            TableMeta {
                name: "a".into(),
                columns: vec![
                    ColumnMeta { name: "id".into(), dtype: qpseeker_storage::DataType::Int },
                    ColumnMeta { name: "v".into(), dtype: qpseeker_storage::DataType::Int },
                ],
            },
            TableMeta {
                name: "b".into(),
                columns: vec![
                    ColumnMeta { name: "id".into(), dtype: qpseeker_storage::DataType::Int },
                    ColumnMeta { name: "a_id".into(), dtype: qpseeker_storage::DataType::Int },
                ],
            },
        ],
        foreign_keys: vec![ForeignKey {
            from_table: "b".into(),
            from_col: "a_id".into(),
            to_table: "a".into(),
            to_col: "id".into(),
        }],
        indexes: vec![
            IndexMeta::for_column("a", "id", 8, true),
            IndexMeta::for_column("b", "a_id", 8, false),
        ],
    };
    Database::new("prop", catalog, vec![a, b])
}

fn join_query() -> Query {
    let mut q = Query::new("q");
    q.relations = vec![RelRef::new("a"), RelRef::new("b")];
    q.joins = vec![JoinPred { left: ColRef::new("b", "a_id"), right: ColRef::new("a", "id") }];
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Join cardinality equals the brute-force count for every operator.
    #[test]
    fn join_matches_brute_force(
        a_vals in proptest::collection::vec(-5i64..5, 1..20),
        b_fk_raw in proptest::collection::vec(0i64..30, 1..30),
    ) {
        let n_a = a_vals.len() as i64;
        // Some FKs dangle (point past a): those rows must not join.
        let b_fk: Vec<i64> = b_fk_raw;
        let expected: u64 = b_fk.iter().filter(|&&v| v < n_a).count() as u64;
        let db = build_db(a_vals, b_fk);
        let q = join_query();
        let ex = Executor::new(&db);
        for op in JoinOp::ALL {
            let plan = PlanNode::join(
                &q,
                op,
                PlanNode::scan(&q, "a", ScanOp::SeqScan),
                PlanNode::scan(&q, "b", ScanOp::SeqScan),
            );
            prop_assert_eq!(ex.execute(&plan).rows, expected, "{:?}", op);
        }
    }

    /// All three scan operators return identical row sets for any filter.
    #[test]
    fn scan_operators_agree(
        a_vals in proptest::collection::vec(-10i64..10, 1..40),
        threshold in -10.0f64..10.0,
        op_idx in 0usize..5,
    ) {
        let db = build_db(a_vals.clone(), vec![0]);
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("a")];
        q.filters.push(Filter {
            col: ColRef::new("a", "id"),
            op: CmpOp::ALL[op_idx],
            value: threshold,
        });
        let ex = Executor::new(&db);
        let counts: Vec<u64> = ScanOp::ALL
            .iter()
            .map(|&s| ex.execute(&PlanNode::scan(&q, "a", s)).rows)
            .collect();
        prop_assert_eq!(counts[0], counts[1]);
        prop_assert_eq!(counts[0], counts[2]);
        // And equals the brute-force count over the id column.
        let brute = (0..a_vals.len() as i64)
            .filter(|&i| CmpOp::ALL[op_idx].eval(i as f64, threshold))
            .count() as u64;
        prop_assert_eq!(counts[0], brute);
    }

    /// Left-deep specs round-trip through compilation.
    #[test]
    fn spec_round_trip(seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let q = join_query();
        let spec = LeftDeepSpec {
            scans: vec![
                ("a".into(), ScanOp::ALL[rng.gen_range(0..3)]),
                ("b".into(), ScanOp::ALL[rng.gen_range(0..3)]),
            ],
            joins: vec![JoinOp::ALL[rng.gen_range(0..3)]],
        };
        let plan = spec.compile(&q).unwrap();
        prop_assert_eq!(LeftDeepSpec::from_plan(&plan).unwrap(), spec);
    }

    /// Filter selectivities are always within [0, 1] and estimates ≥ 1 row.
    #[test]
    fn estimator_bounds(
        a_vals in proptest::collection::vec(-100i64..100, 2..50),
        value in -200.0f64..200.0,
        op_idx in 0usize..5,
    ) {
        let db = build_db(a_vals, vec![0]);
        let est = CardEstimator::new(&db);
        let f = Filter { col: ColRef::new("a", "v"), op: CmpOp::ALL[op_idx], value };
        let s = est.filter_selectivity("a", &f);
        prop_assert!((0.0..=1.0).contains(&s), "selectivity {}", s);
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("a")];
        q.filters.push(f);
        prop_assert!(est.scan_rows(&q, "a") >= 1.0);
    }

    /// Virtual time is additive: a plan's total equals the root profile, and
    /// every parent's cumulative time is at least the sum of its children's.
    #[test]
    fn virtual_time_is_monotone(
        a_vals in proptest::collection::vec(-5i64..5, 1..15),
        b_fk in proptest::collection::vec(0i64..15, 1..25),
    ) {
        let db = build_db(a_vals, b_fk);
        let q = join_query();
        let ex = Executor::new(&db);
        let plan = PlanNode::join(
            &q,
            JoinOp::HashJoin,
            PlanNode::scan(&q, "a", ScanOp::SeqScan),
            PlanNode::scan(&q, "b", ScanOp::SeqScan),
        );
        let res = ex.execute(&plan);
        prop_assert_eq!(res.nodes.len(), 3);
        prop_assert!(res.nodes[2].time_ms >= res.nodes[0].time_ms + res.nodes[1].time_ms);
        prop_assert!((res.time_ms - res.nodes[2].time_ms).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Oracle: the same plan with no cap. A capped run times out exactly
    /// when some join's true count exceeds the cap; its profiles are the
    /// uncapped prefix up to the first such join (in postorder), which
    /// reports `min(true, cap + 2)`. An armed row budget aborts at the first
    /// node whose running count of reported rows passes it.
    #[test]
    fn row_cap_and_budget_match_the_uncapped_run(
        seed in 0u64..u64::MAX,
        budgeted in proptest::bool::ANY,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ chaos_seed());
        let plan = random_left_deep(&star_with_cross_product(), &mut rng);
        check_cap_and_budget(&plan, seed, budgeted, &mut rng)?;
    }

    /// The same oracle on bushy plans: a join's right input may be a join,
    /// and an alias may be read several joins above its scan.
    #[test]
    fn row_cap_and_budget_match_the_uncapped_run_on_bushy_plans(
        seed in 0u64..u64::MAX,
        budgeted in proptest::bool::ANY,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ chaos_seed());
        let plan = random_bushy(&star_with_cross_product(), &mut rng);
        check_cap_and_budget(&plan, seed, budgeted, &mut rng)?;
    }

}

/// The row-cap / row-budget oracle for `plan`, with its cap and budget drawn
/// from `rng`.
fn check_cap_and_budget(
    plan: &PlanNode,
    seed: u64,
    budgeted: bool,
    rng: &mut StdRng,
) -> Result<(), String> {
    let db = imdb_db();
    let mut uncapped = Executor::new(db);
    uncapped.max_intermediate = usize::MAX;
    let full = uncapped.execute(plan);
    prop_assert!(!full.timed_out);

    // A third of the caps sit at -3..=+1 around one join's true count,
    // a third anywhere below the largest, a third at or above it.
    let joins: Vec<usize> = full
        .nodes
        .iter()
        .filter(|n| matches!(n.op, PhysicalOp::Join(_)))
        .map(|n| n.rows as usize)
        .collect();
    let largest = *joins.iter().max().expect("the plan has joins");
    let cap = match rng.gen_range(0..3) {
        0 => (joins[rng.gen_range(0..joins.len())] + 1).saturating_sub(rng.gen_range(0..5)),
        1 => rng.gen_range(0..largest),
        _ => largest + rng.gen_range(0..3),
    };

    let trip =
        full.nodes.iter().position(|n| matches!(n.op, PhysicalOp::Join(_)) && n.rows > cap as u64);
    let mut reported: Vec<u64> =
        full.nodes[..=trip.unwrap_or(full.nodes.len() - 1)].iter().map(|n| n.rows).collect();
    if let Some(i) = trip {
        reported[i] = reported[i].min(cap as u64 + 2);
    }
    // About half the budgets abort.
    let total: u64 = reported.iter().sum();
    let budget = budgeted.then(|| rng.gen_range(0..=2 * total));
    let mut processed = 0;
    let abort = budget.and_then(|b| {
        reported.iter().find_map(|&r| {
            processed += r;
            (processed > b).then_some(processed)
        })
    });

    let faults =
        FaultConfig { seed: seed ^ chaos_seed(), row_budget: budget, ..Default::default() };
    let mut ex = Executor::new(db).with_faults(faults);
    ex.max_intermediate = cap;
    match (ex.try_execute(plan), abort) {
        (Err(EngineError::RowBudgetExceeded { processed, budget: b }), Some(sum)) => {
            prop_assert_eq!(processed, sum);
            prop_assert_eq!(Some(b), budget);
        }
        (Ok(res), None) => match trip {
            None => prop_assert_eq!(res, full),
            Some(i) => {
                prop_assert!(res.timed_out, "cap {} < join {}: {:?}", cap, i, full.nodes[i]);
                prop_assert_eq!(res.nodes.len(), i + 1);
                prop_assert_eq!(&res.nodes[..i], &full.nodes[..i]);
                prop_assert_eq!(res.nodes[i].op, full.nodes[i].op);
                prop_assert_eq!(res.nodes[i].rows, reported[i]);
                prop_assert_eq!(res.rows, reported[i]);
            }
        },
        (got, abort) => {
            let got = got.map(|r| r.timed_out);
            prop_assert!(false, "cap {cap}, budget {budget:?}: abort {abort:?}, got {got:?}");
        }
    }
    Ok(())
}
