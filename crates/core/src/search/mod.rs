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
use qpseeker_engine::plan::{JoinOp, PlanNode, ScanOp};
use qpseeker_engine::query::{JoinPred, Query};

/// Everything a search needs to know about one query, interned once per
/// request: relations are indices into `query.relations` and relation sets
/// are `u64` bitmasks (up to 64 relations; the IMDb/JOB regime is ≤ 17).
/// MCTS walks it relation by relation, beam search subtree by subtree, and
/// both assemble plans from its pieces — one clone per node plus a bitmask
/// filter over the join predicates — instead of re-deriving aliases,
/// tables, filters and predicates from strings per candidate.
pub(crate) struct QueryIndex {
    pub(crate) n: usize,
    /// `adj[i]`: the relations sharing a join predicate with relation `i`.
    adj: Vec<u64>,
    /// `scans[rel][op_idx_scan(op)]`: the scan leaf to clone, filters
    /// pushed down.
    scans: Vec<[PlanNode; 3]>,
    /// `(left_rel, right_rel, predicate)` per join predicate, in
    /// `query.joins` order. Self-joins on one relation are dropped.
    joins: Vec<(u32, u32, JoinPred)>,
}

impl QueryIndex {
    pub(crate) fn new(query: &Query) -> Self {
        let n = query.relations.len();
        assert!(n <= 64, "bitmask connectivity supports at most 64 relations");
        let scans = query
            .relations
            .iter()
            .map(|r| {
                ScanOp::ALL.map(|op| {
                    PlanNode::try_scan(query, &r.alias, op).expect("query relation has a table")
                })
            })
            .collect();
        let idx_of = |alias: &str| query.relations.iter().position(|r| r.alias == alias);
        let mut adj = vec![0u64; n];
        let mut joins = Vec::with_capacity(query.joins.len());
        for j in &query.joins {
            if let (Some(l), Some(r)) = (idx_of(&j.left.alias), idx_of(&j.right.alias)) {
                if l != r {
                    adj[l] |= 1 << r;
                    adj[r] |= 1 << l;
                    joins.push((l as u32, r as u32, j.clone()));
                }
            }
        }
        Self { n, adj, scans, joins }
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

    /// The scan leaf of relation `rel` under operator `op`.
    pub(crate) fn scan(&self, rel: u32, op: ScanOp) -> PlanNode {
        self.scans[rel as usize][op_idx_scan(op) as usize].clone()
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
            .map(|(_, _, p)| p.clone())
            .collect()
    }
}

pub(crate) fn op_idx_scan(s: ScanOp) -> u8 {
    match s {
        ScanOp::SeqScan => 0,
        ScanOp::IndexScan => 1,
        ScanOp::BitmapIndexScan => 2,
    }
}

pub(crate) fn op_idx_join(j: JoinOp) -> u8 {
    match j {
        JoinOp::HashJoin => 0,
        JoinOp::MergeJoin => 1,
        JoinOp::NestedLoopJoin => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::QPSeeker;
    use qpseeker_engine::query::{ColRef, RelRef};
    use qpseeker_storage::Database;
    use qpseeker_workloads::{synthetic, Qep, SyntheticConfig};
    use std::sync::Arc;

    /// The small model fitted on 16 synthetic queries over `db`.
    pub(crate) fn fitted_model(db: &Arc<Database>) -> QPSeeker {
        let w = synthetic::generate(db, &SyntheticConfig { n_queries: 16, seed: 3 });
        let refs: Vec<&Qep> = w.qeps.iter().collect();
        let mut m = QPSeeker::new(db, ModelConfig::small());
        m.fit(&refs).expect("training succeeds");
        m
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
}
