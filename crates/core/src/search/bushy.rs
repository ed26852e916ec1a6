//! The bushy action space: plans as forests of subtrees over u64 masks.
//!
//! The left-deep search walks *relations*: its state is one growing chain
//! plus a frontier bitmask of joinable relations. The bushy space
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
use qpseeker_engine::query::{JoinPred, Query};

/// Postorder token for a leaf: identical layout to the left-deep
/// `Action::Start` packing (`rel << 4 | scan << 2 | 3`).
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
    pub(crate) fn leaf(asm: &BushyAssembler, rel: u32, scan: ScanOp) -> Self {
        Self { mask: 1 << rel, sig: vec![leaf_token(rel, scan)], plan: asm.scan(rel, scan) }
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
}

/// Two subtrees are joinable when some relation in `a` shares a join
/// predicate with some relation in `b`.
pub(crate) fn joinable(qi: &QueryIndex, a: u64, b: u64) -> bool {
    qi.reach(a) & b != 0
}

/// Per-query prebuilt plan pieces for bushy assembly: one ready-to-clone
/// scan leaf per (relation, scan op) — exactly like the left-deep
/// assembler — plus every join predicate with both endpoints interned, so
/// attaching the predicates that cross two masks is a bitmask filter over
/// `query.joins` in declaration order (the same order the left-deep
/// assembler and `PlanNode::join` emit).
pub(crate) struct BushyAssembler {
    scans: Vec<[PlanNode; 3]>,
    /// `(left_rel, right_rel, predicate)` per join predicate, in
    /// `query.joins` order. Self-joins on one relation are dropped, as in
    /// `QueryIndex`.
    joins: Vec<(u32, u32, JoinPred)>,
}

impl BushyAssembler {
    pub(crate) fn new(query: &Query) -> Self {
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
        let mut joins = Vec::with_capacity(query.joins.len());
        for j in &query.joins {
            if let (Some(l), Some(r)) = (idx_of(&j.left.alias), idx_of(&j.right.alias)) {
                if l != r {
                    joins.push((l as u32, r as u32, j.clone()));
                }
            }
        }
        Self { scans, joins }
    }

    pub(crate) fn scan(&self, rel: u32, op: ScanOp) -> PlanNode {
        self.scans[rel as usize][op_idx_scan(op) as usize].clone()
    }

    /// Every join predicate with one endpoint in `a` and the other in `b`,
    /// in `query.joins` order. Empty only when the masks are disconnected
    /// (a cross join — legal exactly when the query itself is
    /// disconnected).
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

    /// `left ⋈op right` with the crossing predicates attached.
    pub(crate) fn join(&self, op: JoinOp, left: &SubTree, right: &SubTree) -> PlanNode {
        PlanNode::Join {
            op,
            left: Box::new(left.plan.clone()),
            right: Box::new(right.plan.clone()),
            preds: self.crossing_preds(left.mask, right.mask),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_engine::query::{ColRef, RelRef};

    fn three_way() -> Query {
        let mut q = Query::new("bushy-q");
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
    fn crossing_preds_attach_in_query_join_order() {
        let q = three_way();
        let asm = BushyAssembler::new(&q);
        // {title} x {movie_info}: exactly the first predicate.
        let p = asm.crossing_preds(1 << 0, 1 << 1);
        assert_eq!(p, vec![q.joins[0].clone()]);
        // {title, movie_info} x {movie_keyword}: exactly the second.
        let p = asm.crossing_preds((1 << 0) | (1 << 1), 1 << 2);
        assert_eq!(p, vec![q.joins[1].clone()]);
        // Disconnected masks cross nothing.
        assert!(asm.crossing_preds(1 << 1, 1 << 2).is_empty());
    }

    #[test]
    fn bushy_join_validates_on_connected_query() {
        let q = three_way();
        let qi = QueryIndex::new(&q);
        let asm = BushyAssembler::new(&q);
        // (title ⋈ movie_info) ⋈ movie_keyword, built bushy-style.
        let t = SubTree::leaf(&asm, 0, ScanOp::SeqScan);
        let mi = SubTree::leaf(&asm, 1, ScanOp::IndexScan);
        assert!(joinable(&qi, t.mask, mi.mask));
        let left = SubTree {
            mask: t.mask | mi.mask,
            sig: SubTree::joined_sig(&t, &mi, JoinOp::HashJoin),
            plan: asm.join(JoinOp::HashJoin, &t, &mi),
        };
        let mk = SubTree::leaf(&asm, 2, ScanOp::SeqScan);
        let full = asm.join(JoinOp::MergeJoin, &left, &mk);
        assert!(full.validate(&q).is_ok());
    }
}
