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
//! Structural identity is a postorder token signature (`SubTree::sig`):
//! leaves pack `(rel, scan)` exactly like the left-deep `Action` packing,
//! joins contribute a high-bit-tagged operator token. The signature is
//! collision-free (postorder with known arity decodes uniquely), so it
//! doubles as the evaluation-cache key; forest-level dedup hashes the
//! sorted per-tree signatures and may only ever *drop* a duplicate state,
//! never corrupt a score.

use super::{op_idx_scan, QueryIndex};
use qpseeker_engine::plan::{JoinOp, PlanNode, ScanOp};

/// Postorder token for a leaf: identical layout to the left-deep
/// `Action` packing of an opening action (`rel << 4 | scan << 2 | 3`).
pub(crate) fn leaf_token(rel: u32, scan: ScanOp) -> u64 {
    (rel as u64) << 4 | (op_idx_scan(scan) as u64) << 2 | 3
}

/// Postorder token for a join operator. The high tag bit keeps it disjoint
/// from every leaf token, so a token stream decodes unambiguously.
pub(crate) fn join_token(op: JoinOp) -> u64 {
    const TAG: u64 = 1 << 63;
    TAG | match op {
        JoinOp::HashJoin => 0,
        JoinOp::MergeJoin => 1,
        JoinOp::NestedLoopJoin => 2,
    }
}

/// One realized subtree in a bushy search state.
#[derive(Clone)]
pub(crate) struct SubTree {
    /// Relations covered, as a bitmask over `query.relations`.
    pub(crate) mask: u64,
    /// Postorder token signature — exact structural identity.
    pub(crate) sig: Vec<u64>,
    /// The realized plan, join predicates attached.
    pub(crate) plan: PlanNode,
}

impl SubTree {
    pub(crate) fn leaf(qi: &QueryIndex, rel: u32, scan: ScanOp) -> Self {
        Self { mask: 1 << rel, sig: vec![leaf_token(rel, scan)], plan: qi.scan(rel, scan) }
    }

    /// Signature of the subtree that would result from `left ⋈op right`,
    /// without building it.
    pub(crate) fn joined_sig(left: &Self, right: &Self, op: JoinOp) -> Vec<u64> {
        let mut sig = Vec::with_capacity(left.sig.len() + right.sig.len() + 1);
        sig.extend_from_slice(&left.sig);
        sig.extend_from_slice(&right.sig);
        sig.push(join_token(op));
        sig
    }

    /// `left ⋈op right`, with the predicates crossing the two masks
    /// attached.
    pub(crate) fn join(qi: &QueryIndex, op: JoinOp, left: &Self, right: &Self) -> Self {
        Self {
            mask: left.mask | right.mask,
            sig: Self::joined_sig(left, right, op),
            plan: PlanNode::Join {
                op,
                left: Box::new(left.plan.clone()),
                right: Box::new(right.plan.clone()),
                preds: qi.crossing_preds(left.mask, right.mask),
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
    use crate::search::tests::three_way;

    #[test]
    fn tokens_are_disjoint_and_injective() {
        let mut seen = std::collections::HashSet::new();
        for rel in 0..4u32 {
            for scan in ScanOp::ALL {
                assert!(seen.insert(leaf_token(rel, scan)));
            }
        }
        for op in JoinOp::ALL {
            assert!(seen.insert(join_token(op)));
        }
    }

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
        // (title ⋈ movie_info) ⋈ movie_keyword, built bushy-style.
        let t = SubTree::leaf(&qi, 0, ScanOp::SeqScan);
        let mi = SubTree::leaf(&qi, 1, ScanOp::IndexScan);
        assert!(joinable(&qi, t.mask, mi.mask));
        let left = SubTree::join(&qi, JoinOp::HashJoin, &t, &mi);
        assert_eq!(left.sig, SubTree::joined_sig(&t, &mi, JoinOp::HashJoin));
        let mk = SubTree::leaf(&qi, 2, ScanOp::SeqScan);
        let full = SubTree::join(&qi, JoinOp::MergeJoin, &left, &mk);
        assert_eq!(full.mask, 0b111);
        assert!(full.plan.validate(&q).is_ok());
    }
}
