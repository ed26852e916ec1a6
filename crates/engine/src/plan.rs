//! Physical execution plans.
//!
//! A plan is a binary tree: leaves scan base relations (sequential, index,
//! or bitmap index scans) and internal nodes join two subplans (hash, merge,
//! or nested-loop joins) — the operator vocabulary of §5.1 of the paper.

use crate::error::EngineError;
use crate::query::{Filter, JoinPred, Query};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Scan operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScanOp {
    SeqScan,
    IndexScan,
    BitmapIndexScan,
}

impl ScanOp {
    pub const ALL: [ScanOp; 3] = [ScanOp::SeqScan, ScanOp::IndexScan, ScanOp::BitmapIndexScan];
}

/// Join operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinOp {
    HashJoin,
    MergeJoin,
    NestedLoopJoin,
}

impl JoinOp {
    pub const ALL: [JoinOp; 3] = [JoinOp::HashJoin, JoinOp::MergeJoin, JoinOp::NestedLoopJoin];
}

/// Unified physical-operator tag (the one-hot operator vocabulary used by
/// the plan encoder: 3 scans + 3 joins = 6 physical operators).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhysicalOp {
    Scan(ScanOp),
    Join(JoinOp),
}

impl PhysicalOp {
    /// Stable index into the one-hot operator vocabulary.
    pub fn one_hot_index(self) -> usize {
        match self {
            PhysicalOp::Scan(ScanOp::SeqScan) => 0,
            PhysicalOp::Scan(ScanOp::IndexScan) => 1,
            PhysicalOp::Scan(ScanOp::BitmapIndexScan) => 2,
            PhysicalOp::Join(JoinOp::HashJoin) => 3,
            PhysicalOp::Join(JoinOp::MergeJoin) => 4,
            PhysicalOp::Join(JoinOp::NestedLoopJoin) => 5,
        }
    }

    /// Size of the operator vocabulary.
    pub const COUNT: usize = 6;
}

impl fmt::Display for PhysicalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PhysicalOp::Scan(ScanOp::SeqScan) => "SeqScan",
            PhysicalOp::Scan(ScanOp::IndexScan) => "IndexScan",
            PhysicalOp::Scan(ScanOp::BitmapIndexScan) => "BitmapIndexScan",
            PhysicalOp::Join(JoinOp::HashJoin) => "HashJoin",
            PhysicalOp::Join(JoinOp::MergeJoin) => "MergeJoin",
            PhysicalOp::Join(JoinOp::NestedLoopJoin) => "NestedLoop",
        };
        f.write_str(s)
    }
}

/// A physical plan tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanNode {
    Scan {
        /// The query's own alias and table names, shared.
        alias: Arc<str>,
        table: Arc<str>,
        op: ScanOp,
        /// Filters pushed down to this scan, shared by every clone of it.
        filters: Arc<[Filter]>,
    },
    Join {
        op: JoinOp,
        left: Arc<PlanNode>,
        right: Arc<PlanNode>,
        /// Equi-join predicates evaluated at this node, shared by every
        /// clone of the node (a cached plan's root, served per hit).
        preds: Arc<[JoinPred]>,
    },
}

impl PlanNode {
    /// Build a scan leaf for `alias` of `query`, pushing down its filters.
    ///
    /// # Panics
    /// Panics when `query` has no relation bound to `alias`; use
    /// [`PlanNode::try_scan`] on library paths that must not panic.
    pub fn scan(query: &Query, alias: &str, op: ScanOp) -> PlanNode {
        Self::try_scan(query, alias, op).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`PlanNode::scan`].
    pub fn try_scan(query: &Query, alias: &str, op: ScanOp) -> Result<PlanNode, EngineError> {
        let rel = query.relations.iter().find(|r| &*r.alias == alias).ok_or_else(|| {
            EngineError::UnknownAlias { query: query.id.clone(), alias: alias.to_string() }
        })?;
        Ok(PlanNode::Scan {
            alias: rel.alias.clone(),
            table: rel.table.clone(),
            op,
            filters: query.filters_of(alias).into_iter().cloned().collect(),
        })
    }

    /// Join two subplans, attaching every join predicate of `query` that
    /// connects them.
    pub fn join(query: &Query, op: JoinOp, left: PlanNode, right: PlanNode) -> PlanNode {
        let left_aliases = left.aliases();
        let right_aliases = right.aliases();
        let preds = query
            .joins
            .iter()
            .filter(|j| {
                (left_aliases.contains(&j.left.alias) && right_aliases.contains(&j.right.alias))
                    || (left_aliases.contains(&j.right.alias)
                        && right_aliases.contains(&j.left.alias))
            })
            .cloned()
            .collect();
        PlanNode::Join { op, left: Arc::new(left), right: Arc::new(right), preds }
    }

    pub fn physical_op(&self) -> PhysicalOp {
        match self {
            PlanNode::Scan { op, .. } => PhysicalOp::Scan(*op),
            PlanNode::Join { op, .. } => PhysicalOp::Join(*op),
        }
    }

    /// All aliases under this node.
    pub fn aliases(&self) -> BTreeSet<Arc<str>> {
        let mut out = BTreeSet::new();
        self.collect_aliases(&mut out);
        out
    }

    fn collect_aliases(&self, out: &mut BTreeSet<Arc<str>>) {
        match self {
            PlanNode::Scan { alias, .. } => {
                out.insert(alias.clone());
            }
            PlanNode::Join { left, right, .. } => {
                left.collect_aliases(out);
                right.collect_aliases(out);
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        match self {
            PlanNode::Scan { .. } => 1,
            PlanNode::Join { left, right, .. } => 1 + left.len() + right.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of join nodes.
    pub fn num_joins(&self) -> usize {
        match self {
            PlanNode::Scan { .. } => 0,
            PlanNode::Join { left, right, .. } => 1 + left.num_joins() + right.num_joins(),
        }
    }

    /// Tree height (a single scan has height 1).
    pub fn height(&self) -> usize {
        match self {
            PlanNode::Scan { .. } => 1,
            PlanNode::Join { left, right, .. } => 1 + left.height().max(right.height()),
        }
    }

    /// A plan is left-deep when every right child is a scan.
    pub fn is_left_deep(&self) -> bool {
        match self {
            PlanNode::Scan { .. } => true,
            PlanNode::Join { left, right, .. } => {
                matches!(**right, PlanNode::Scan { .. }) && left.is_left_deep()
            }
        }
    }

    /// Post-order traversal (children before parents) — the evaluation order
    /// of both the executor and the plan encoder.
    pub fn postorder(&self) -> Vec<&PlanNode> {
        let mut out = Vec::with_capacity(self.len());
        self.postorder_into(&mut out);
        out
    }

    fn postorder_into<'a>(&'a self, out: &mut Vec<&'a PlanNode>) {
        if let PlanNode::Join { left, right, .. } = self {
            left.postorder_into(out);
            right.postorder_into(out);
        }
        out.push(self);
    }

    /// Validate this plan implements `query`: every relation appears exactly
    /// once and every join node has at least one predicate (no accidental
    /// cross products) unless the query itself is a cross product.
    pub fn validate(&self, query: &Query) -> Result<(), EngineError> {
        let aliases = self.aliases();
        let expected: BTreeSet<Arc<str>> =
            query.relations.iter().map(|r| r.alias.clone()).collect();
        if aliases != expected {
            return Err(EngineError::PlanCoverage {
                plan: aliases.iter().map(|a| a.to_string()).collect(),
                query: expected.iter().map(|a| a.to_string()).collect(),
            });
        }
        let mut count = 0usize;
        self.count_scans(&mut count);
        if count != query.relations.len() {
            return Err(EngineError::DuplicateRelation);
        }
        if query.is_connected() {
            for node in self.postorder() {
                if let PlanNode::Join { preds, .. } = node {
                    if preds.is_empty() {
                        return Err(EngineError::CrossProduct);
                    }
                }
            }
        }
        Ok(())
    }

    fn count_scans(&self, count: &mut usize) {
        match self {
            PlanNode::Scan { .. } => *count += 1,
            PlanNode::Join { left, right, .. } => {
                left.count_scans(count);
                right.count_scans(count);
            }
        }
    }

    /// Render an EXPLAIN-style indented tree.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        self.pretty_into(0, &mut s);
        s
    }

    fn pretty_into(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            PlanNode::Scan { alias, op, filters, .. } => {
                out.push_str(&format!(
                    "{} on {alias}{}\n",
                    PhysicalOp::Scan(*op),
                    if filters.is_empty() {
                        String::new()
                    } else {
                        format!(" ({} filters)", filters.len())
                    }
                ));
            }
            PlanNode::Join { op, left, right, .. } => {
                out.push_str(&format!("{}\n", PhysicalOp::Join(*op)));
                left.pretty_into(depth + 1, out);
                right.pretty_into(depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{ColRef, RelRef};

    fn query3() -> Query {
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("a"), RelRef::new("b"), RelRef::new("c")];
        q.joins = vec![
            JoinPred { left: ColRef::new("a", "id"), right: ColRef::new("b", "a_id") },
            JoinPred { left: ColRef::new("b", "id"), right: ColRef::new("c", "b_id") },
        ];
        q
    }

    fn left_deep_plan(q: &Query) -> PlanNode {
        let sa = PlanNode::scan(q, "a", ScanOp::SeqScan);
        let sb = PlanNode::scan(q, "b", ScanOp::IndexScan);
        let sc = PlanNode::scan(q, "c", ScanOp::SeqScan);
        let ab = PlanNode::join(q, JoinOp::HashJoin, sa, sb);
        PlanNode::join(q, JoinOp::MergeJoin, ab, sc)
    }

    #[test]
    fn structure_metrics() {
        let q = query3();
        let p = left_deep_plan(&q);
        assert_eq!(p.len(), 5);
        assert_eq!(p.num_joins(), 2);
        assert_eq!(p.height(), 3);
        assert!(p.is_left_deep());
        assert_eq!(p.aliases().len(), 3);
    }

    #[test]
    fn join_builder_attaches_correct_predicates() {
        let q = query3();
        let p = left_deep_plan(&q);
        if let PlanNode::Join { preds, .. } = &p {
            assert_eq!(preds.len(), 1);
            assert!(preds[0].connects("b", "c"));
        } else {
            panic!("root must be a join");
        }
    }

    #[test]
    fn bushy_plan_detected() {
        let mut q = query3();
        q.relations.push(RelRef::new("d"));
        q.joins.push(JoinPred { left: ColRef::new("c", "id"), right: ColRef::new("d", "c_id") });
        let sa = PlanNode::scan(&q, "a", ScanOp::SeqScan);
        let sb = PlanNode::scan(&q, "b", ScanOp::SeqScan);
        let sc = PlanNode::scan(&q, "c", ScanOp::SeqScan);
        let sd = PlanNode::scan(&q, "d", ScanOp::SeqScan);
        let ab = PlanNode::join(&q, JoinOp::HashJoin, sa, sb);
        let cd = PlanNode::join(&q, JoinOp::HashJoin, sc, sd);
        let bushy = PlanNode::join(&q, JoinOp::HashJoin, ab, cd);
        assert!(!bushy.is_left_deep());
        assert!(bushy.validate(&q).is_ok());
    }

    #[test]
    fn postorder_visits_children_first() {
        let q = query3();
        let p = left_deep_plan(&q);
        let order = p.postorder();
        assert_eq!(order.len(), 5);
        // Last is the root.
        assert_eq!(order[4].physical_op(), PhysicalOp::Join(JoinOp::MergeJoin));
        // First two are scans.
        assert!(matches!(order[0], PlanNode::Scan { .. }));
        assert!(matches!(order[1], PlanNode::Scan { .. }));
    }

    #[test]
    fn validation_rejects_missing_relation() {
        let q = query3();
        let sa = PlanNode::scan(&q, "a", ScanOp::SeqScan);
        let sb = PlanNode::scan(&q, "b", ScanOp::SeqScan);
        let ab = PlanNode::join(&q, JoinOp::HashJoin, sa, sb);
        let err = ab.validate(&q).unwrap_err();
        assert!(matches!(err, EngineError::PlanCoverage { .. }));
        assert!(err.to_string().contains("plan covers"));
    }

    #[test]
    fn validation_rejects_cross_product_order() {
        let q = query3();
        // a ⋈ c has no predicate: building that join first is a cross product.
        let sa = PlanNode::scan(&q, "a", ScanOp::SeqScan);
        let sc = PlanNode::scan(&q, "c", ScanOp::SeqScan);
        let sb = PlanNode::scan(&q, "b", ScanOp::SeqScan);
        let ac = PlanNode::join(&q, JoinOp::HashJoin, sa, sc);
        let p = PlanNode::join(&q, JoinOp::HashJoin, ac, sb);
        assert_eq!(p.validate(&q).unwrap_err(), EngineError::CrossProduct);
    }

    #[test]
    fn try_scan_reports_unknown_alias() {
        let q = query3();
        let err = PlanNode::try_scan(&q, "zzz", ScanOp::SeqScan).unwrap_err();
        assert!(matches!(err, EngineError::UnknownAlias { .. }));
        assert!(err.to_string().contains("no alias zzz"));
    }

    #[test]
    fn one_hot_indices_are_unique_and_dense() {
        let mut seen = std::collections::HashSet::new();
        for s in ScanOp::ALL {
            seen.insert(PhysicalOp::Scan(s).one_hot_index());
        }
        for j in JoinOp::ALL {
            seen.insert(PhysicalOp::Join(j).one_hot_index());
        }
        assert_eq!(seen.len(), PhysicalOp::COUNT);
        assert!(seen.iter().all(|&i| i < PhysicalOp::COUNT));
    }

    #[test]
    fn pretty_output_contains_operators() {
        let q = query3();
        let p = left_deep_plan(&q);
        let s = p.pretty();
        assert!(s.contains("MergeJoin"));
        assert!(s.contains("HashJoin"));
        assert!(s.contains("IndexScan on b"));
    }
}
