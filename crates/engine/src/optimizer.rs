//! The PostgreSQL-like cost-based optimizer (the paper's baseline system).
//!
//! Dynamic programming over left-deep join orders (System-R style) with the
//! PG cost model and histogram cardinality estimates; a greedy fallback
//! handles queries beyond the DP relation budget (PostgreSQL switches to
//! GEQO similarly). Operator choice (scan and join) is cost-based per step.
//!
//! The optimizer accepts *hints* disabling operator classes — the interface
//! Bao uses to steer it, mirroring `enable_hashjoin = off` & co.

use crate::cardest::CardEstimator;
use crate::executor::{join_charge, scan_charge, CostUnits, ScanShape, TimeWeights};
use crate::plan::{JoinOp, PlanNode, ScanOp};
use crate::query::Query;
use qpseeker_storage::Database;
use std::collections::HashMap;
use std::sync::Arc;

/// Operator-class hints (all enabled by default). Disabling everything in a
/// class is rejected at construction.
#[derive(Debug, Clone)]
pub struct Hints {
    pub join_ops: Vec<JoinOp>,
    pub scan_ops: Vec<ScanOp>,
}

impl Default for Hints {
    fn default() -> Self {
        Self { join_ops: JoinOp::ALL.to_vec(), scan_ops: ScanOp::ALL.to_vec() }
    }
}

impl Hints {
    /// All 2^2·… combinations Bao uses: here, the 5 standard hint sets from
    /// the Bao paper shrunk to our operator vocabulary.
    pub fn bao_hint_sets() -> Vec<Hints> {
        vec![
            Hints::default(),
            Hints { join_ops: vec![JoinOp::HashJoin, JoinOp::MergeJoin], ..Default::default() },
            Hints {
                join_ops: vec![JoinOp::HashJoin, JoinOp::NestedLoopJoin],
                ..Default::default()
            },
            Hints {
                join_ops: vec![JoinOp::MergeJoin, JoinOp::NestedLoopJoin],
                ..Default::default()
            },
            Hints {
                join_ops: vec![JoinOp::HashJoin],
                scan_ops: vec![ScanOp::SeqScan, ScanOp::IndexScan],
            },
            Hints {
                join_ops: vec![JoinOp::HashJoin, JoinOp::MergeJoin],
                scan_ops: vec![ScanOp::SeqScan],
            },
        ]
    }
}

/// Maximum relations handled by exact DP before falling back to greedy.
const DP_LIMIT: usize = 14;

/// The optimizer.
pub struct PgOptimizer<'a> {
    db: &'a Database,
    est: CardEstimator<'a>,
    weights: TimeWeights,
    costs: CostUnits,
    hints: Hints,
}

#[derive(Clone)]
struct DpEntry {
    cost: f64,
    rows: f64,
    plan: PlanNode,
}

impl<'a> PgOptimizer<'a> {
    pub fn new(db: &'a Database) -> Self {
        Self::with_hints(db, Hints::default())
    }

    pub fn with_hints(db: &'a Database, hints: Hints) -> Self {
        assert!(!hints.join_ops.is_empty(), "at least one join operator must stay enabled");
        assert!(!hints.scan_ops.is_empty(), "at least one scan operator must stay enabled");
        Self {
            db,
            est: CardEstimator::new(db),
            weights: TimeWeights::default(),
            costs: CostUnits::default(),
            hints,
        }
    }

    /// Produce the cost-optimal plan for `query` under the active hints.
    ///
    /// # Panics
    /// Panics on an empty query.
    pub fn plan(&self, query: &Query) -> PlanNode {
        assert!(!query.relations.is_empty(), "cannot plan an empty query");
        if query.relations.len() == 1 {
            let alias = &query.relations[0].alias;
            return self.best_scan(query, alias).0;
        }
        if query.relations.len() <= DP_LIMIT {
            self.plan_dp(query)
        } else {
            self.plan_greedy(query)
        }
    }

    /// Best scan operator for an alias (cost, plan, estimated rows).
    fn best_scan(&self, query: &Query, alias: &str) -> (PlanNode, f64, f64) {
        let table = query.table_of(alias).expect("alias resolves");
        let stats = self.db.table_stats(table).expect("stats exist");
        let matched = self.est.scan_rows(query, alias);
        let sel = matched / stats.n_rows.max(1) as f64;
        let filters = query.filters_of(alias);
        let index_filter =
            filters.iter().find(|f| self.db.catalog.index_on(table, &f.col.column).is_some());
        let mut best: Option<(PlanNode, f64)> = None;
        for &op in &self.hints.scan_ops {
            let usable = op != ScanOp::SeqScan && index_filter.is_some();
            let (height, leaf) = match (usable, index_filter) {
                (true, Some(f)) => {
                    let m = self.db.catalog.index_on(table, &f.col.column).expect("exists");
                    (m.height as f64, m.leaf_pages as f64)
                }
                _ => (1.0, 1.0),
            };
            let shape = ScanShape {
                n_rows: stats.n_rows as f64,
                blocks: stats.n_blocks as f64,
                index_height: height,
                index_leaf_pages: leaf,
                index_usable: usable,
                n_filters: filters.len() as f64,
            };
            let (_, cost) = scan_charge(op, &shape, sel, matched, &self.weights, &self.costs);
            if best.as_ref().map(|(_, c)| cost < *c).unwrap_or(true) {
                best = Some((PlanNode::scan(query, alias, op), cost));
            }
        }
        let (plan, cost) = best.expect("at least one scan op enabled");
        (plan, cost, matched)
    }

    /// Best join operator combining two subplans (cost is the operator's own
    /// charge, not cumulative).
    fn best_join(
        &self,
        query: &Query,
        left: &PlanNode,
        right: &PlanNode,
        lrows: f64,
        rrows: f64,
    ) -> Option<(PlanNode, f64, f64)> {
        let candidate = PlanNode::join(query, self.hints.join_ops[0], left.clone(), right.clone());
        let preds = match &candidate {
            PlanNode::Join { preds, .. } if !preds.is_empty() => preds.clone(),
            _ => return None, // refuse cross products
        };
        let sel: f64 = preds.iter().map(|p| self.est.join_selectivity(query, p)).product();
        let out = (lrows * rrows * sel).max(1.0);
        let mut best: Option<(JoinOp, f64)> = None;
        for &op in &self.hints.join_ops {
            let (_, cost) = join_charge(op, lrows, rrows, out, &self.weights, &self.costs);
            if best.map(|(_, c)| cost < c).unwrap_or(true) {
                best = Some((op, cost));
            }
        }
        let (op, cost) = best.expect("at least one join op enabled");
        Some((PlanNode::join(query, op, left.clone(), right.clone()), cost, out))
    }

    /// Exact DP over left-deep orders.
    fn plan_dp(&self, query: &Query) -> PlanNode {
        let aliases: Vec<Arc<str>> = query.relations.iter().map(|r| r.alias.clone()).collect();
        let n = aliases.len();
        let mut dp: HashMap<u64, DpEntry> = HashMap::new();
        for (i, a) in aliases.iter().enumerate() {
            let (plan, cost, rows) = self.best_scan(query, a);
            dp.insert(1 << i, DpEntry { cost, rows, plan });
        }
        // Enumerate subsets by population count (left-deep extension only).
        for size in 2..=n {
            let masks: Vec<u64> =
                (1u64..(1 << n)).filter(|m| m.count_ones() as usize == size).collect();
            for mask in masks {
                let mut best: Option<DpEntry> = None;
                for (i, alias) in aliases.iter().enumerate() {
                    let bit = 1u64 << i;
                    if mask & bit == 0 {
                        continue;
                    }
                    let rest = mask & !bit;
                    let Some(sub) = dp.get(&rest) else { continue };
                    let (scan, scan_cost, scan_rows) = self.best_scan(query, alias);
                    let Some((plan, join_cost, out)) =
                        self.best_join(query, &sub.plan, &scan, sub.rows, scan_rows)
                    else {
                        continue;
                    };
                    let total = sub.cost + scan_cost + join_cost;
                    if best.as_ref().map(|b| total < b.cost).unwrap_or(true) {
                        best = Some(DpEntry { cost: total, rows: out, plan });
                    }
                }
                if let Some(b) = best {
                    dp.insert(mask, b);
                }
            }
        }
        let full = (1u64 << n) - 1;
        match dp.remove(&full) {
            Some(e) => e.plan,
            // Disconnected query graph: fall back to greedy (it permits the
            // cross product as a last resort).
            None => self.plan_greedy(query),
        }
    }

    /// Greedy join ordering for very large queries.
    fn plan_greedy(&self, query: &Query) -> PlanNode {
        let mut remaining: Vec<Arc<str>> =
            query.relations.iter().map(|r| r.alias.clone()).collect();
        // Start with the cheapest (smallest estimated) scan.
        remaining.sort_by(|a, b| {
            self.est.scan_rows(query, a).partial_cmp(&self.est.scan_rows(query, b)).expect("finite")
        });
        let first = remaining.remove(0);
        let (mut plan, _, mut rows) = self.best_scan(query, &first);
        while !remaining.is_empty() {
            let mut best: Option<(usize, PlanNode, f64, f64)> = None;
            for (idx, alias) in remaining.iter().enumerate() {
                let (scan, scan_cost, scan_rows) = self.best_scan(query, alias);
                if let Some((candidate, join_cost, out)) =
                    self.best_join(query, &plan, &scan, rows, scan_rows)
                {
                    let total = scan_cost + join_cost;
                    if best.as_ref().map(|(_, _, c, _)| total < *c).unwrap_or(true) {
                        best = Some((idx, candidate, total, out));
                    }
                }
            }
            match best {
                Some((idx, candidate, _, out)) => {
                    remaining.remove(idx);
                    plan = candidate;
                    rows = out;
                }
                None => {
                    // No connected extension: accept a cross product join to
                    // make progress (disconnected query graph).
                    let alias = remaining.remove(0);
                    let (scan, _, scan_rows) = self.best_scan(query, &alias);
                    plan = PlanNode::join(query, JoinOp::NestedLoopJoin, plan, scan);
                    rows *= scan_rows;
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::query::{ColRef, Filter, JoinPred, RelRef};
    use qpseeker_storage::datagen::imdb;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn chain_query(db: &Database, tables: &[&str]) -> Query {
        // Build a query joining the given tables along catalog FK edges.
        let mut q = Query::new("q");
        for t in tables {
            q.relations.push(RelRef::new(*t));
        }
        for i in 1..tables.len() {
            // find an FK edge between tables[i] and any earlier table
            let fk = db
                .catalog
                .foreign_keys
                .iter()
                .find(|fk| {
                    (fk.from_table == tables[i] && tables[..i].contains(&fk.to_table.as_str()))
                        || (fk.to_table == tables[i]
                            && tables[..i].contains(&fk.from_table.as_str()))
                })
                .unwrap_or_else(|| panic!("no FK edge for {}", tables[i]));
            q.joins.push(JoinPred {
                left: ColRef::new(fk.from_table.clone(), fk.from_col.clone()),
                right: ColRef::new(fk.to_table.clone(), fk.to_col.clone()),
            });
        }
        q
    }

    #[test]
    fn single_relation_plan_is_a_scan() {
        let db = imdb::generate(0.2, 5);
        let opt = PgOptimizer::new(&db);
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("title")];
        let p = opt.plan(&q);
        assert!(matches!(p, PlanNode::Scan { .. }));
    }

    #[test]
    fn plan_is_valid_and_left_deep() {
        let db = imdb::generate(0.2, 5);
        let opt = PgOptimizer::new(&db);
        let q = chain_query(&db, &["title", "movie_info", "movie_keyword", "keyword"]);
        let p = opt.plan(&q);
        assert!(p.validate(&q).is_ok());
        assert!(p.is_left_deep());
    }

    #[test]
    fn optimizer_beats_random_plans() {
        let db = imdb::generate(0.3, 5);
        let opt = PgOptimizer::new(&db);
        let ex = Executor::new(&db);
        let mut q = chain_query(&db, &["title", "movie_info", "cast_info", "movie_keyword"]);
        q.filters.push(Filter {
            col: ColRef::new("title", "production_year"),
            op: crate::query::CmpOp::Gt,
            value: 2010.0,
        });
        let chosen = ex.execute(&opt.plan(&q)).time_ms;

        // Average over random valid left-deep plans.
        let mut rng = StdRng::seed_from_u64(0);
        let mut total = 0.0;
        let mut count = 0;
        for _ in 0..8 {
            // random connected order
            let mut joined = std::collections::BTreeSet::new();
            let start = q.relations[rng.gen_range(0..q.relations.len())].alias.clone();
            joined.insert(start.clone());
            let mut plan = PlanNode::scan(&q, &start, ScanOp::SeqScan);
            while joined.len() < q.relations.len() {
                let nbrs = q.neighbors(&joined);
                let next = nbrs[rng.gen_range(0..nbrs.len())].clone();
                let scan = PlanNode::scan(&q, &next, ScanOp::SeqScan);
                let op = JoinOp::ALL[rng.gen_range(0..3)];
                plan = PlanNode::join(&q, op, plan, scan);
                joined.insert(next);
            }
            total += ex.execute(&plan).time_ms;
            count += 1;
        }
        let avg_random = total / count as f64;
        assert!(
            chosen < avg_random,
            "optimizer plan {chosen}ms should beat avg random {avg_random}ms"
        );
    }

    #[test]
    fn hints_restrict_operators() {
        let db = imdb::generate(0.2, 5);
        let hints =
            Hints { join_ops: vec![JoinOp::NestedLoopJoin], scan_ops: vec![ScanOp::SeqScan] };
        let opt = PgOptimizer::with_hints(&db, hints);
        let q = chain_query(&db, &["title", "movie_info", "movie_keyword"]);
        let p = opt.plan(&q);
        for node in p.postorder() {
            match node {
                PlanNode::Scan { op, .. } => assert_eq!(*op, ScanOp::SeqScan),
                PlanNode::Join { op, .. } => assert_eq!(*op, JoinOp::NestedLoopJoin),
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one join operator")]
    fn empty_hints_rejected() {
        let db = imdb::generate(0.05, 5);
        PgOptimizer::with_hints(&db, Hints { join_ops: vec![], scan_ops: vec![ScanOp::SeqScan] });
    }

    #[test]
    fn greedy_handles_many_relations() {
        let db = imdb::generate(0.1, 5);
        // 15 relations forces the greedy path (DP_LIMIT = 14). Build a star
        // around title plus name-side chains using all FK edges.
        let q = chain_query(
            &db,
            &[
                "title",
                "movie_info",
                "movie_info_idx",
                "cast_info",
                "movie_keyword",
                "movie_companies",
                "name",
                "char_name",
                "company_name",
                "keyword",
                "person_info",
                "aka_name",
                "info_type",
                "kind_type",
                "company_type",
            ],
        );
        assert_eq!(q.num_relations(), 15);
        let opt = PgOptimizer::new(&db);
        let p = opt.plan(&q);
        assert!(p.validate(&q).is_ok());
    }

    #[test]
    fn bao_hint_sets_are_all_valid() {
        let db = imdb::generate(0.05, 5);
        let q = chain_query(&db, &["title", "movie_info"]);
        for hints in Hints::bao_hint_sets() {
            let opt = PgOptimizer::with_hints(&db, hints);
            assert!(opt.plan(&q).validate(&q).is_ok());
        }
    }
}
