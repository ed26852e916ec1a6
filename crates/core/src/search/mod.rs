//! Plan search behind one front end.
//!
//! [`strategy::StrategyPlanner`] is the only planner. For each request it
//! builds what every search shares — the scoring function
//! (`strategy::Evaluator`, which owns the query's encoded
//! [`QueryContext`](crate::model::QueryContext)) and the per-query index
//! (`QueryIndex`: join connectivity, prebuilt scan leaves, interned join
//! predicates) — plans a single-relation query itself, and otherwise hands
//! both to one crate-private search function:
//!
//! * `mcts::search` — the paper's left-deep Monte Carlo Tree Search (§5.2);
//! * `beam::search` — deterministic beam search over the **bushy** plan
//!   space (`bushy`), where a state is a forest of realized subtrees and
//!   one step joins two connected subtrees.
//!
//! Either search can score candidates **risk-aware**: a seeded batch of VAE
//! latent samples yields a per-plan cost mean and spread, ranked by
//! `mean + λ·σ` instead of the mean alone (see
//! [`strategy::StrategyConfig`]). A new strategy is one search function
//! plus one field in the session's search scratch.

mod beam;
mod bushy;
pub mod mcts;
pub mod strategy;

pub(crate) use beam::BeamScratch;
pub(crate) use mcts::MctsScratch;
use qpseeker_engine::plan::{PlanNode, ScanOp};
use qpseeker_engine::query::{JoinPred, Query};

/// Everything a search needs to know about one query, interned once per
/// request: relations are indices into `query.relations` and relation sets
/// are `u64` bitmasks (up to 64 relations; the IMDb/JOB regime is ≤ 17).
/// MCTS walks it relation by relation, beam search subtree by subtree, and
/// both assemble the plans they return from its pieces — a scan per leaf
/// plus a bitmask filter over the join predicates — instead of re-deriving
/// aliases and predicates from strings.
pub(crate) struct QueryIndex<'q> {
    query: &'q Query,
    pub(crate) n: usize,
    /// `adj[i]`: the relations sharing a join predicate with relation `i`.
    adj: Vec<u64>,
    /// `(left_rel, right_rel, predicate)` per join predicate, in
    /// `query.joins` order. Self-joins on one relation are dropped.
    joins: Vec<(u32, u32, &'q JoinPred)>,
}

impl<'q> QueryIndex<'q> {
    pub(crate) fn new(query: &'q Query) -> Self {
        let n = query.relations.len();
        assert!(n <= 64, "bitmask connectivity supports at most 64 relations");
        let idx_of = |alias: &str| query.relations.iter().position(|r| r.alias == alias);
        let mut adj = vec![0u64; n];
        let mut joins = Vec::with_capacity(query.joins.len());
        for j in &query.joins {
            if let (Some(l), Some(r)) = (idx_of(&j.left.alias), idx_of(&j.right.alias)) {
                if l != r {
                    adj[l] |= 1 << r;
                    adj[r] |= 1 << l;
                    joins.push((l as u32, r as u32, j));
                }
            }
        }
        Self { query, n, adj, joins }
    }

    /// Union of the adjacency masks over every relation in `mask`: all
    /// relations sharing a join predicate with the set (possibly including
    /// members of the set itself).
    pub(crate) fn reach(&self, mask: u64) -> u64 {
        let mut reach = 0u64;
        let mut rest = mask;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            reach |= self.adj[i];
        }
        reach
    }

    /// Relations a left-deep prefix over `joined` may add next: those
    /// sharing a predicate with it or, once none is left on a disconnected
    /// query, every relation not yet joined — a cross join, legal exactly
    /// then (the rule `PlanNode::validate` applies).
    pub(crate) fn next_rels(&self, joined: u64) -> u64 {
        let frontier = self.reach(joined) & !joined;
        if frontier != 0 {
            frontier
        } else {
            (u64::MAX >> (64 - self.n)) & !joined
        }
    }

    /// The scan leaf of relation `rel` under operator `op`, filters pushed
    /// down.
    pub(crate) fn scan(&self, rel: u32, op: ScanOp) -> PlanNode {
        PlanNode::scan(self.query, &self.query.relations[rel as usize].alias, op)
    }

    /// Every join predicate with one endpoint in `a` and the other in `b`,
    /// in `query.joins` order — the order `PlanNode::join` and
    /// `LeftDeepSpec::compile` attach them in. Empty only when the masks
    /// are disconnected (a cross join).
    pub(crate) fn crossing_preds(&self, a: u64, b: u64) -> Vec<JoinPred> {
        self.joins
            .iter()
            .filter(|&&(l, r, _)| {
                let (lm, rm) = (1u64 << l, 1u64 << r);
                (a & lm != 0 && b & rm != 0) || (b & lm != 0 && a & rm != 0)
            })
            .map(|&(_, _, p)| p.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::strategy::{Evaluator, RiskParams};
    use super::*;
    use crate::config::ModelConfig;
    use crate::featurize::FeatSession;
    use crate::model::QPSeeker;
    use crate::normalize::TargetNormalizer;
    use proptest::prelude::*;
    use qpseeker_engine::plan::JoinOp;
    use qpseeker_engine::query::{CmpOp, ColRef, Filter, RelRef};
    use qpseeker_storage::datagen::imdb;
    use qpseeker_storage::Database;
    use qpseeker_workloads::{synthetic, Qep, SyntheticConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::{Arc, OnceLock};

    /// The small model fitted on 16 synthetic queries over `db`.
    pub(crate) fn fitted_model(db: &Arc<Database>) -> QPSeeker {
        let w = synthetic::generate(db, &SyntheticConfig { n_queries: 16, seed: 3 });
        let refs: Vec<&Qep> = w.qeps.iter().collect();
        let mut m = QPSeeker::new(db, ModelConfig::small());
        m.fit(&refs).expect("training succeeds");
        m
    }

    /// The small model, untrained, with a target normalizer: enough to
    /// intern plans, which reads no weight.
    pub(crate) fn interning_model() -> &'static QPSeeker {
        static MODEL: OnceLock<QPSeeker> = OnceLock::new();
        MODEL.get_or_init(|| {
            let db = Arc::new(imdb::generate(0.05, 1));
            let mut m = QPSeeker::new(&db, ModelConfig::small());
            m.normalizer = Some(TargetNormalizer::fit(&[[10.0, 5.0, 1.0], [1e3, 80.0, 9.0]]));
            m
        })
    }

    /// A mean-scoring evaluator of `query` on a fresh context.
    pub(crate) fn evaluator<'a>(
        model: &'a QPSeeker,
        query: &'a Query,
        feat: &'a mut FeatSession,
    ) -> Evaluator<'a> {
        let ctx = model.query_context(query);
        Evaluator::new(model, query, feat, ctx, RiskParams { lambda: 0.0, samples: 0 }, 0, None)
    }

    /// `title` joins `movie_info` and `movie_keyword`, which reach each
    /// other only through it.
    pub(crate) fn three_way() -> Query {
        let mut q = Query::new("three-way");
        q.relations =
            vec![RelRef::new("title"), RelRef::new("movie_info"), RelRef::new("movie_keyword")];
        q.joins = vec![
            JoinPred {
                left: ColRef::new("movie_info", "movie_id"),
                right: ColRef::new("title", "id"),
            },
            JoinPred {
                left: ColRef::new("movie_keyword", "movie_id"),
                right: ColRef::new("title", "id"),
            },
        ];
        q
    }

    fn chaos_seed() -> u64 {
        std::env::var("QPS_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
    }

    /// A star around filtered `title`, over a random non-empty subset of
    /// three fact tables, so small queries repeat plans often.
    fn random_star(rng: &mut StdRng) -> Query {
        let mut q = Query::new("star");
        q.relations.push(RelRef::new("title"));
        q.filters.push(Filter {
            col: ColRef::new("title", "production_year"),
            op: CmpOp::Gt,
            value: 2000.0,
        });
        let facts = ["movie_info", "movie_keyword", "cast_info"];
        let pick = rng.gen_range(1..1u32 << facts.len());
        for (_, &fact) in facts.iter().enumerate().filter(|&(f, _)| pick & 1 << f != 0) {
            q.relations.push(RelRef::new(fact));
            let left = ColRef::new(fact, "movie_id");
            q.joins.push(JoinPred { left, right: ColRef::new("title", "id") });
        }
        q
    }

    /// A random left-deep or bushy plan of `q`, built twice at once: as a
    /// `PlanNode` by the engine's constructors, and as a node id through
    /// `ev`'s interning calls. Each step joins two connected subtrees,
    /// the left one the whole prefix when `left_deep`.
    fn random_plan(
        q: &Query,
        ev: &mut Evaluator,
        rng: &mut StdRng,
        left_deep: bool,
    ) -> (PlanNode, u32) {
        let qi = QueryIndex::new(q);
        let mut parts: Vec<(u64, PlanNode, u32)> = (0..qi.n as u32)
            .map(|r| {
                let op = ScanOp::ALL[rng.gen_range(0..3)];
                (1 << r, PlanNode::scan(q, &q.relations[r as usize].alias, op), ev.scan(r, op))
            })
            .collect();
        if left_deep {
            let first = rng.gen_range(0..parts.len());
            parts.swap(0, first);
        }
        while parts.len() > 1 {
            let pairs: Vec<(usize, usize)> = (0..parts.len())
                .flat_map(|a| (0..parts.len()).map(move |b| (a, b)))
                .filter(|&(a, b)| a != b && qi.reach(parts[a].0) & parts[b].0 != 0)
                .filter(|&(a, _)| !left_deep || a == 0)
                .collect();
            let (a, b) = pairs[rng.gen_range(0..pairs.len())];
            let right = parts.remove(b);
            let left = parts.remove(if a > b { a - 1 } else { a });
            let op = JoinOp::ALL[rng.gen_range(0..3)];
            let id = ev.join(op, left.2, right.2);
            parts.insert(0, (left.0 | right.0, PlanNode::join(q, op, left.1, right.1), id));
        }
        let (_, plan, id) = parts.pop().expect("one plan");
        (plan, id)
    }

    /// `plan` with every join's predicates dropped.
    fn without_preds(plan: &PlanNode) -> PlanNode {
        match plan {
            PlanNode::Scan { .. } => plan.clone(),
            PlanNode::Join { op, left, right, .. } => PlanNode::Join {
                op: *op,
                left: Arc::new(without_preds(left)),
                right: Arc::new(without_preds(right)),
                preds: Default::default(),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The node id is the one plan identity: interning a plan by parts
        /// names it as walking its `PlanNode` does, with or without join
        /// predicates, and two plans of one query share an id exactly when
        /// they are equal apart from join predicates.
        #[test]
        fn node_ids_name_plans_exactly(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed ^ chaos_seed());
            let q = random_star(&mut rng);
            let model = interning_model();
            let mut feat = FeatSession::new();
            let mut ev = evaluator(model, &q, &mut feat);
            let mut plans = Vec::new();
            for p in 0..12 {
                let (plan, id) = random_plan(&q, &mut ev, &mut rng, p % 2 == 0);
                prop_assert!(plan.validate(&q).is_ok());
                prop_assert_eq!(ev.intern(&plan), id);
                let bare = without_preds(&plan);
                prop_assert_eq!(ev.intern(&bare), id);
                plans.push((bare, id));
            }
            for (a, ida) in &plans {
                for (b, idb) in &plans {
                    prop_assert_eq!(a == b, ida == idb, "{:?} / {:?}", a, b);
                }
            }
        }
    }

    #[test]
    fn crossing_preds_attach_in_query_join_order() {
        let q = three_way();
        let qi = QueryIndex::new(&q);
        // {title} x {movie_info}: exactly the first predicate.
        let p = qi.crossing_preds(1 << 0, 1 << 1);
        assert_eq!(p, vec![q.joins[0].clone()]);
        // {title, movie_info} x {movie_keyword}: exactly the second.
        let p = qi.crossing_preds((1 << 0) | (1 << 1), 1 << 2);
        assert_eq!(p, vec![q.joins[1].clone()]);
        // Disconnected masks cross nothing.
        assert!(qi.crossing_preds(1 << 1, 1 << 2).is_empty());
    }

    #[test]
    fn next_rels_admit_cross_joins_only_when_no_neighbour_is_left() {
        let mut q = three_way();
        let qi = QueryIndex::new(&q);
        assert_eq!(qi.next_rels(1 << 1), 1 << 0, "movie_info reaches only title");
        assert_eq!(qi.next_rels(0b111), 0, "nothing is left to join");
        // Without the second predicate, movie_keyword hangs off nothing:
        // {title, movie_info} has no neighbour left, so it may cross join.
        q.joins.pop();
        let qi = QueryIndex::new(&q);
        assert_eq!(qi.next_rels(1 << 1), 1 << 0);
        assert_eq!(qi.next_rels(0b011), 1 << 2);
        assert_eq!(qi.next_rels(1 << 2), 0b011);
    }

    /// A `deep_join`-shaped search — a grown 10-relation query, MCTS at
    /// cap 256, the bench preset's entry size — leaves its memo keeping
    /// each block it names a row of whole, at most the budget plus one
    /// pass's block: the copy the entries replaced is not kept beside them.
    #[test]
    fn a_deep_join_search_keeps_whole_blocks_within_the_budget() {
        use crate::encoder::MEMO_BUDGET_BYTES;
        use crate::session::PlannerSession;
        use mcts::MctsConfig;
        use strategy::{StrategyConfig, StrategyPlanner};
        let db = Arc::new(imdb::generate(0.05, 1));
        let mut model = QPSeeker::new(&db, ModelConfig::bench());
        model.normalizer = Some(TargetNormalizer::fit(&[[10.0, 5.0, 1.0], [1e3, 80.0, 9.0]]));
        let qb = qpseeker_workloads::gen::QueryBuilder::new(&db);
        let mut rng = StdRng::seed_from_u64(1);
        let query = loop {
            let (relations, joins) = qb.grow(&mut rng, "title", 10, true);
            let mut q = Query::new("deep");
            (q.relations, q.joins) = (relations, joins);
            if q.relations.len() == 10 && q.validate(&db).is_ok() && q.is_connected() {
                break q;
            }
        };
        let mcts = MctsConfig { budget_ms: 1e9, max_simulations: 256, ..MctsConfig::default() };
        let planner = StrategyPlanner::from_config(&StrategyConfig::default(), mcts);
        let mut sess = PlannerSession::new();
        let res = planner.plan_with_session(&model, &query, &mut sess);
        let memo = &sess.memo;
        assert!(res.nodes_encoded > 500 && memo.blocks().len() > 8, "a long search");
        let each: Vec<usize> = memo.blocks().iter().map(|b| b.bytes()).collect();
        assert_eq!(memo.bytes(), each.iter().sum::<usize>(), "every block counts whole");
        assert!(memo.bytes() >= memo.named_bytes());
        let largest = each.iter().max().copied().unwrap_or(0);
        assert!(
            memo.bytes() <= MEMO_BUDGET_BYTES + largest,
            "the memo keeps {} B past a budget of {MEMO_BUDGET_BYTES} B and a {largest} B block",
            memo.bytes()
        );
    }
}
