//! Batched-evaluation equality suite.
//!
//! The batched scoring path (`QPSeeker::predict_batch_with_context_in`)
//! promises that scoring K candidate plans in one forward pass is **bitwise
//! identical** to scoring them one at a time — the invariant that lets the
//! planner defer rollouts into batches without changing any plan choice, and
//! that keeps the cross-worker plan-equality guarantee intact with
//! `batch_eval` on.
//! The same holds across calls: a query context memoizes every subtree it
//! has encoded, and a memo hit must be bitwise what encoding the subtree
//! again would give. This file property-tests both promises, checks the
//! memoized, batched serving path bit for bit against the training
//! path (the same forward on the autodiff tape, over fresh rows only),
//! and checks the memo's byte budget on a long search.

mod common;

use common::{shared_db, shared_model};
use proptest::prelude::*;
use qpseeker_repro::core::encoder::MEMO_BUDGET_BYTES;
use qpseeker_repro::core::prelude::*;
use qpseeker_repro::engine::inject::LeftDeepSpec;
use qpseeker_repro::engine::plan::{JoinOp, PlanNode, ScanOp};
use qpseeker_repro::engine::query::{ColRef, JoinPred, Query, RelRef};
use qpseeker_repro::workloads::gen::QueryBuilder;
use qpseeker_repro::workloads::{synthetic, Qep, SyntheticConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A 3-relation star query over the IMDb FK schema: movie_info and
/// movie_keyword both join title.
fn star_query() -> Query {
    let mut q = Query::new("batched-eval-star");
    for t in ["title", "movie_info", "movie_keyword"] {
        q.relations.push(RelRef::new(t));
    }
    for t in ["movie_info", "movie_keyword"] {
        q.joins
            .push(JoinPred { left: ColRef::new(t, "movie_id"), right: ColRef::new("title", "id") });
    }
    q
}

/// Every connected left-deep relation order for the star (the hub `title`
/// must be joined by the second step at the latest).
const ORDERS: [[&str; 3]; 4] = [
    ["title", "movie_info", "movie_keyword"],
    ["title", "movie_keyword", "movie_info"],
    ["movie_info", "title", "movie_keyword"],
    ["movie_keyword", "title", "movie_info"],
];

/// Strategy: one random left-deep plan — a valid relation order plus
/// independently chosen scan and join operators.
fn plan_strategy() -> impl Strategy<Value = LeftDeepSpec> {
    (
        0usize..ORDERS.len(),
        proptest::collection::vec(0usize..ScanOp::ALL.len(), 3),
        proptest::collection::vec(0usize..JoinOp::ALL.len(), 2),
    )
        .prop_map(|(ord, scans, joins)| LeftDeepSpec {
            scans: ORDERS[ord]
                .iter()
                .zip(&scans)
                .map(|(rel, &s)| (rel.to_string(), ScanOp::ALL[s]))
                .collect(),
            joins: joins.iter().map(|&j| JoinOp::ALL[j]).collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One batched call over a random pool of 2..24 plans equals per-plan
    /// `predict` bit for bit, in all three predicted quantities. Duplicate
    /// plans in the pool are deliberately allowed — the batch path must not
    /// care.
    #[test]
    fn batched_predictions_bitwise_equal_scalar(
        specs in proptest::collection::vec(plan_strategy(), 2..24)
    ) {
        let model = shared_model();
        let query = star_query();
        let plans: Vec<PlanNode> = specs
            .iter()
            .map(|s| s.compile(&query).expect("valid left-deep spec"))
            .collect();
        let refs: Vec<&PlanNode> = plans.iter().collect();
        let (mut ctx, mut batched) = (model.query_context(&query), Vec::new());
        model.predict_batch_with_context_in(
            &mut FeatSession::new(), &query, &refs, &mut ctx, &mut batched,
        );
        prop_assert_eq!(batched.len(), plans.len());
        for (i, plan) in plans.iter().enumerate() {
            let scalar = model.predict(&query, plan);
            prop_assert_eq!(
                batched[i].runtime_ms.to_bits(), scalar.runtime_ms.to_bits(),
                "plan {}: batched runtime {} vs scalar {}",
                i, batched[i].runtime_ms, scalar.runtime_ms);
            prop_assert_eq!(batched[i].cost.to_bits(), scalar.cost.to_bits(), "plan {} cost", i);
            prop_assert_eq!(
                batched[i].cardinality.to_bits(), scalar.cardinality.to_bits(),
                "plan {} cardinality", i);
        }
    }

    /// The memo oracle: one context scores a sequence of overlapping
    /// batches of left-deep and bushy plans, mean and risk (S = 4); every
    /// prediction equals, bit for bit, the same plan scored alone on a fresh
    /// context — so a memo hit is exactly a recomputation.
    #[test]
    fn warm_context_scores_bitwise_equal_a_fresh_one(
        seed in 0u64..1_000_000,
        windows in proptest::collection::vec((0usize..POOL, 1usize..9), 3..7),
    ) {
        let model = shared_model();
        let query = grown_query(6, 0x6e1a);
        let pool = plan_pool(&query, seed);
        let eps = model.risk_eps(4, seed);
        let (mut ctx, mut risk_ctx) = (model.query_context(&query), model.query_context(&query));
        let mut feat = FeatSession::new();
        let (mut means, mut risks) = (Vec::new(), Vec::new());
        for &(start, len) in &windows {
            let batch: Vec<&PlanNode> = (start..start + len).map(|i| &pool[i % POOL]).collect();
            model.predict_batch_with_context_in(&mut feat, &query, &batch, &mut ctx, &mut means);
            model.predict_risk_batch_with_context_in(
                &mut feat, &query, &batch, &mut risk_ctx, &eps, &mut risks,
            );
            for (k, plan) in batch.iter().enumerate() {
                let mut fresh = model.query_context(&query);
                let alone = model.predict_with_context_in(&mut feat, &query, plan, &mut fresh);
                prop_assert_eq!(bits(means[k]), bits(alone), "window {:?} plan {}", (start, len), k);
                let (mut fresh, mut alone) = (model.query_context(&query), Vec::new());
                model.predict_risk_batch_with_context_in(
                    &mut feat, &query, &[*plan], &mut fresh, &eps, &mut alone,
                );
                let (m, s) = alone[0];
                prop_assert_eq!(
                    (risks[k].0.to_bits(), risks[k].1.to_bits()), (m.to_bits(), s.to_bits()),
                    "risk, window {:?} plan {}", (start, len), k);
            }
        }
    }
}

fn bits(p: Prediction) -> [u64; 3] {
    [p.cardinality, p.cost, p.runtime_ms].map(f64::to_bits)
}

/// A connected query of `n` relations grown over the FK graph (self-join
/// aliases allowed) with two filters, as the deep-join workload builds them.
fn grown_query(n: usize, seed: u64) -> Query {
    let db = shared_db();
    let qb = QueryBuilder::new(db);
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let (relations, joins) = qb.grow(&mut rng, "title", n, true);
        if relations.len() != n {
            continue;
        }
        let mut q = Query::new(format!("grown-{n}-{seed}"));
        q.relations = relations;
        q.joins = joins;
        qb.add_filters(&mut rng, &mut q, 2);
        if q.validate(db).is_ok() && q.is_connected() {
            return q;
        }
    }
}

/// A random complete plan: left-deep (one growing tree takes a connected
/// leaf per step) or bushy (any two connected subtrees merge), with random
/// scan and join operators and join orientation.
fn random_plan(q: &Query, rng: &mut StdRng, bushy: bool) -> PlanNode {
    let idx = |alias: &str| q.relations.iter().position(|r| r.alias == alias).expect("bound");
    let mut adj = vec![0u64; q.relations.len()];
    for j in &q.joins {
        let (l, r) = (idx(&j.left.alias), idx(&j.right.alias));
        adj[l] |= 1 << r;
        adj[r] |= 1 << l;
    }
    let reach =
        |mask: u64| (0..adj.len()).filter(|i| mask >> i & 1 == 1).fold(0, |a, i| a | adj[i]);
    let mut trees: Vec<(PlanNode, u64)> = (0..q.relations.len())
        .map(|i| {
            let op = ScanOp::ALL[rng.gen_range(0..3)];
            (PlanNode::scan(q, &q.relations[i].alias, op), 1u64 << i)
        })
        .collect();
    if !bushy {
        let first = rng.gen_range(0..trees.len());
        trees.swap(0, first);
    }
    while trees.len() > 1 {
        let pairs: Vec<(usize, usize)> = (0..trees.len())
            .flat_map(|i| (i + 1..trees.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| (bushy || i == 0) && reach(trees[i].1) & trees[j].1 != 0)
            .collect();
        let (i, j) = pairs[rng.gen_range(0..pairs.len())];
        let (b, a) = (trees.remove(j), trees.remove(i));
        let ((l, lm), (r, rm)) = if bushy && rng.gen_bool(0.5) { (b, a) } else { (a, b) };
        let op = JoinOp::ALL[rng.gen_range(0..3)];
        trees.insert(i, (PlanNode::join(q, op, l, r), lm | rm));
    }
    trees.pop().expect("one tree remains").0
}

/// Plans in the memo oracle's pool.
const POOL: usize = 24;

/// `POOL` plans of `q` that share many subtrees: left-deep and bushy
/// plans, and copies of earlier ones with another root operator.
fn plan_pool(q: &Query, seed: u64) -> Vec<PlanNode> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<PlanNode> = Vec::with_capacity(POOL);
    for k in 0..POOL {
        let plan = match k % 3 {
            2 => match pool[rng.gen_range(0..k)].clone() {
                PlanNode::Join { left, right, preds, .. } => {
                    PlanNode::Join { op: JoinOp::ALL[rng.gen_range(0..3)], left, right, preds }
                }
                scan => scan,
            },
            kind => random_plan(q, &mut rng, kind == 1),
        };
        pool.push(plan);
    }
    pool
}

/// `got` is bitwise what the training path predicts for `plan`.
fn assert_tape_bits(model: &QPSeeker, q: &Query, plan: &PlanNode, got: Prediction, what: &str) {
    let tape = model.predict_tape(q, plan);
    let bits = |p: Prediction| [p.cardinality, p.cost, p.runtime_ms].map(f64::to_bits);
    assert_eq!(bits(got), bits(tape), "{what}: scored {got:?} vs tape {tape:?}");
}

/// The serving path against the training path, which shares its
/// forward but no memo, batching or K/V reuse: on an 8-relation grown
/// query, 64 random candidates scored in batches through one warm context,
/// and the plans MCTS and beam search serve (re-scored through that
/// context), all predict bitwise what the autodiff tape does.
#[test]
fn warm_context_predictions_match_the_tape() {
    let model = shared_model();
    let query = grown_query(8, 0x8e1a);
    let mut rng = StdRng::seed_from_u64(0x7a9e);
    let candidates: Vec<PlanNode> =
        (0..64).map(|k| random_plan(&query, &mut rng, k % 2 == 1)).collect();
    let mut ctx = model.query_context(&query);
    let mut feat = FeatSession::new();
    let mut preds = Vec::new();
    for chunk in candidates.chunks(16) {
        let refs: Vec<&PlanNode> = chunk.iter().collect();
        model.predict_batch_with_context_in(&mut feat, &query, &refs, &mut ctx, &mut preds);
        for (plan, &p) in chunk.iter().zip(&preds) {
            assert_tape_bits(model, &query, plan, p, "candidate");
        }
    }
    let cfg = MctsConfig { budget_ms: 1e9, max_simulations: 256, ..MctsConfig::default() };
    for kind in [StrategyKind::Mcts, StrategyKind::Beam] {
        let planner = StrategyPlanner::from_config(
            &StrategyConfig { kind, ..Default::default() },
            cfg.clone(),
        );
        let served = planner.plan_with_session(model, &query, &mut PlannerSession::new());
        assert!(served.nodes_encoded > 0, "{kind:?} encoded nothing");
        let p = model.predict_with_context_in(&mut feat, &query, &served.plan, &mut ctx);
        assert_eq!(p.runtime_ms.to_bits(), served.predicted_ms.to_bits(), "{kind:?} score");
        assert_tape_bits(model, &query, &served.plan, p, kind.as_str());
    }
}

/// A long search fills the memo: a 10,000-simulation MCTS on a 10-relation
/// query encodes more node rows than the budget holds, yet the memo stays
/// within it. Wide attention heads make a memo entry 3.3 KB, so the
/// search's ~9k distinct subtrees overflow the budget.
#[test]
fn long_search_keeps_the_memo_within_its_budget() {
    let db = shared_db();
    let w = synthetic::generate(db, &SyntheticConfig { n_queries: 6, seed: 3 });
    let refs: Vec<&Qep> = w.qeps.iter().collect();
    let cfg = ModelConfig { attn_heads: 4, attn_head_dim: 96, epochs: 1, ..ModelConfig::small() };
    let entry_bytes = 4 * (2 * cfg.plan_node_out + 2 * cfg.attn_heads * cfg.attn_head_dim);
    let mut model = QPSeeker::new(db, cfg);
    model.fit(&refs).expect("training succeeds");
    let query = grown_query(10, 0x10e1a);
    let planner = StrategyPlanner::from_config(
        &StrategyConfig::default(),
        MctsConfig { budget_ms: 1e9, max_simulations: 10_000, ..MctsConfig::default() },
    );
    let mut sess = PlannerSession::new();
    let res = planner.plan_with_session(&model, &query, &mut sess);
    assert!(
        res.nodes_encoded * entry_bytes > MEMO_BUDGET_BYTES,
        "{} rows of {entry_bytes} B fit the budget: it was never reached",
        res.nodes_encoded
    );
    assert!(sess.memo_bytes() <= MEMO_BUDGET_BYTES, "memo holds {} B", sess.memo_bytes());
    assert!(sess.memo_bytes() + entry_bytes > MEMO_BUDGET_BYTES, "the memo stopped short");
}
