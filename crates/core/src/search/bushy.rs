//! The bushy action space: plans as forests of subtrees over u64 masks.
//!
//! The left-deep search walks *relations*: its state is one growing chain
//! plus the bitmask of relations it may add next. The bushy space
//! generalizes the same u64 machinery from pairs-of-relations to
//! pairs-of-subtrees: a search state is a **forest** of realized subtrees,
//! each summarized by the bitmask of relations it covers, and one action
//! joins two subtrees whose masks are connected through the query graph
//! (`QueryIndex::reach(a) & b != 0`). Starting from one leaf per relation,
//! `n - 1` joins produce a complete — possibly bushy — plan.
//!
//! A subtree's identity is its node id in the query's `PlanFeatCache`,
//! interned through the evaluator as the subtree is built: equal ids are
//! equal subtrees, so the id is the evaluation-memo key and a forest is
//! named exactly by its sorted root ids.

use super::strategy::Evaluator;
use super::QueryIndex;
use qpseeker_engine::plan::{JoinOp, PlanNode, ScanOp};
use std::sync::Arc;

/// One realized subtree in a bushy search state.
#[derive(Clone)]
pub(crate) struct SubTree {
    /// Relations covered, as a bitmask over `query.relations`.
    pub(crate) mask: u64,
    /// Node id — exact structural identity.
    pub(crate) id: u32,
    /// The realized plan, join predicates attached.
    pub(crate) plan: PlanNode,
}

impl SubTree {
    pub(crate) fn leaf(qi: &QueryIndex, ev: &mut Evaluator, rel: u32, scan: ScanOp) -> Self {
        Self { mask: 1 << rel, id: ev.scan(rel, scan), plan: qi.scan(rel, scan) }
    }

    /// `left ⋈op right`, with the predicates crossing the two masks
    /// attached.
    pub(crate) fn join(
        qi: &QueryIndex,
        ev: &mut Evaluator,
        op: JoinOp,
        left: &Self,
        right: &Self,
    ) -> Self {
        Self {
            mask: left.mask | right.mask,
            id: ev.join(op, left.id, right.id),
            plan: PlanNode::Join {
                op,
                left: Arc::new(left.plan.clone()),
                right: Arc::new(right.plan.clone()),
                preds: qi.crossing_preds(left.mask, right.mask).into(),
            },
        }
    }
}

/// Two subtrees are joinable when some relation in `a` shares a join
/// predicate with some relation in `b`.
pub(crate) fn joinable(qi: &QueryIndex, a: u64, b: u64) -> bool {
    qi.reach(a) & b != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::FeatSession;
    use crate::search::tests::{evaluator, interning_model, three_way};

    #[test]
    fn joinable_follows_query_graph() {
        let q = three_way();
        let qi = QueryIndex::new(&q);
        // title(0) joins both; movie_info(1) and movie_keyword(2) only
        // reach each other through title.
        assert!(joinable(&qi, 1 << 0, 1 << 1));
        assert!(joinable(&qi, 1 << 1, 1 << 0));
        assert!(!joinable(&qi, 1 << 1, 1 << 2));
        assert!(joinable(&qi, (1 << 0) | (1 << 1), 1 << 2));
    }

    #[test]
    fn bushy_join_validates_on_connected_query() {
        let q = three_way();
        let qi = QueryIndex::new(&q);
        let mut feat = FeatSession::new();
        let mut ev = evaluator(interning_model(), &q, &mut feat);
        // (title ⋈ movie_info) ⋈ movie_keyword, built bushy-style.
        let t = SubTree::leaf(&qi, &mut ev, 0, ScanOp::SeqScan);
        let mi = SubTree::leaf(&qi, &mut ev, 1, ScanOp::IndexScan);
        assert!(joinable(&qi, t.mask, mi.mask));
        let left = SubTree::join(&qi, &mut ev, JoinOp::HashJoin, &t, &mi);
        assert_eq!(left.id, ev.intern(&left.plan));
        let mk = SubTree::leaf(&qi, &mut ev, 2, ScanOp::SeqScan);
        let full = SubTree::join(&qi, &mut ev, JoinOp::MergeJoin, &left, &mk);
        assert_eq!(full.mask, 0b111);
        assert!(full.plan.validate(&q).is_ok());
    }
}
