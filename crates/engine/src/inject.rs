//! Plan injection (the pgCuckoo role).
//!
//! The paper injects externally-constructed plans into PostgreSQL via
//! pgCuckoo, rewriting QPSeeker's output into the executor's plan language.
//! Here the same boundary exists between the neural planner and the engine:
//! a [`LeftDeepSpec`] is the planner-side description of a plan (join order +
//! operator choices) and [`LeftDeepSpec::compile`] turns it into an
//! executable [`PlanNode`], validating it against the query.

use crate::error::EngineError;
use crate::plan::{JoinOp, PlanNode, ScanOp};
use crate::query::Query;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Planner-side left-deep plan description: relations in join order, each
/// with its scan operator; `joins[i]` combines the prefix with `scans[i+1]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeftDeepSpec {
    pub scans: Vec<(Arc<str>, ScanOp)>,
    pub joins: Vec<JoinOp>,
}

impl LeftDeepSpec {
    /// Compile to an executable plan, re-attaching the query's filters and
    /// join predicates.
    pub fn compile(&self, query: &Query) -> Result<PlanNode, EngineError> {
        if self.scans.is_empty() {
            return Err(EngineError::EmptySpec);
        }
        if self.joins.len() + 1 != self.scans.len() {
            return Err(EngineError::SpecShape {
                scans: self.scans.len(),
                joins: self.joins.len(),
            });
        }
        for (alias, _) in &self.scans {
            if query.table_of(alias).is_none() {
                return Err(EngineError::SpecUnknownAlias { alias: alias.to_string() });
            }
        }
        let mut plan = PlanNode::try_scan(query, &self.scans[0].0, self.scans[0].1)?;
        for (i, join_op) in self.joins.iter().enumerate() {
            let (alias, scan_op) = &self.scans[i + 1];
            let scan = PlanNode::try_scan(query, alias, *scan_op)?;
            plan = PlanNode::join(query, *join_op, plan, scan);
        }
        plan.validate(query)?;
        Ok(plan)
    }

    /// Extract the spec back from a left-deep plan (round-trip for tests and
    /// serialization of chosen plans).
    pub fn from_plan(plan: &PlanNode) -> Result<Self, EngineError> {
        if !plan.is_left_deep() {
            return Err(EngineError::NotLeftDeep);
        }
        let mut scans = Vec::new();
        let mut joins = Vec::new();
        fn walk(node: &PlanNode, scans: &mut Vec<(Arc<str>, ScanOp)>, joins: &mut Vec<JoinOp>) {
            match node {
                PlanNode::Scan { alias, op, .. } => scans.push((alias.clone(), *op)),
                PlanNode::Join { op, left, right, .. } => {
                    walk(left, scans, joins);
                    walk(right, scans, joins);
                    joins.push(*op);
                }
            }
        }
        walk(plan, &mut scans, &mut joins);
        Ok(Self { scans, joins })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{ColRef, JoinPred, RelRef};

    fn query3() -> Query {
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("a"), RelRef::new("b"), RelRef::new("c")];
        q.joins = vec![
            JoinPred { left: ColRef::new("a", "id"), right: ColRef::new("b", "a_id") },
            JoinPred { left: ColRef::new("b", "id"), right: ColRef::new("c", "b_id") },
        ];
        q
    }

    #[test]
    fn compile_builds_left_deep_plan() {
        let q = query3();
        let spec = LeftDeepSpec {
            scans: vec![
                ("a".into(), ScanOp::SeqScan),
                ("b".into(), ScanOp::IndexScan),
                ("c".into(), ScanOp::SeqScan),
            ],
            joins: vec![JoinOp::HashJoin, JoinOp::MergeJoin],
        };
        let p = spec.compile(&q).unwrap();
        assert!(p.is_left_deep());
        assert_eq!(p.num_joins(), 2);
        assert!(p.validate(&q).is_ok());
    }

    #[test]
    fn round_trip() {
        let q = query3();
        let spec = LeftDeepSpec {
            scans: vec![
                ("c".into(), ScanOp::BitmapIndexScan),
                ("b".into(), ScanOp::SeqScan),
                ("a".into(), ScanOp::IndexScan),
            ],
            joins: vec![JoinOp::NestedLoopJoin, JoinOp::HashJoin],
        };
        let p = spec.compile(&q).unwrap();
        assert_eq!(LeftDeepSpec::from_plan(&p).unwrap(), spec);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let q = query3();
        let spec = LeftDeepSpec {
            scans: vec![("a".into(), ScanOp::SeqScan), ("b".into(), ScanOp::SeqScan)],
            joins: vec![],
        };
        let err = spec.compile(&q).unwrap_err();
        assert!(matches!(err, EngineError::SpecShape { scans: 2, joins: 0 }));
        assert!(err.to_string().contains("shape mismatch"));
    }

    #[test]
    fn unknown_alias_rejected() {
        let q = query3();
        let spec = LeftDeepSpec { scans: vec![("zzz".into(), ScanOp::SeqScan)], joins: vec![] };
        let err = spec.compile(&q).unwrap_err();
        assert!(matches!(err, EngineError::SpecUnknownAlias { .. }));
        assert!(err.to_string().contains("unknown alias"));
    }

    #[test]
    fn cross_product_order_rejected_by_validation() {
        let q = query3();
        // a then c is not connected (b joins them).
        let spec = LeftDeepSpec {
            scans: vec![
                ("a".into(), ScanOp::SeqScan),
                ("c".into(), ScanOp::SeqScan),
                ("b".into(), ScanOp::SeqScan),
            ],
            joins: vec![JoinOp::HashJoin, JoinOp::HashJoin],
        };
        assert!(spec.compile(&q).is_err());
    }
}
