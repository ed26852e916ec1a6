//! Typed engine errors.
//!
//! Middle link of the workspace error chain: wraps [`StorageError`] from
//! below and is wrapped by `qpseeker-core`'s error above. Display texts
//! keep the exact phrases the original stringly-typed APIs used
//! ("plan covers …", "cross product", "shape mismatch", …) so messages stay
//! stable across the conversion.

use qpseeker_storage::StorageError;
use std::fmt;

/// Errors raised by planning, plan compilation and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A storage-layer failure (unknown table, page read, corrupt stats).
    Storage(StorageError),
    /// A query has no relation bound to `alias`.
    UnknownAlias { query: String, alias: String },
    /// A plan spec references an alias the query does not define.
    SpecUnknownAlias { alias: String },
    /// The plan's relation set differs from the query's.
    PlanCoverage { plan: Vec<String>, query: Vec<String> },
    /// A relation appears more than once in the plan.
    DuplicateRelation,
    /// A join node carries no predicate in a connected query.
    CrossProduct,
    /// A [`crate::inject::LeftDeepSpec`] with no scans.
    EmptySpec,
    /// Scan/join counts of a spec are inconsistent.
    SpecShape { scans: usize, joins: usize },
    /// The plan is not left-deep where a left-deep plan is required.
    NotLeftDeep,
    /// A join predicate names an alias no scan below the join binds.
    UnboundJoinAlias { alias: String },
    /// The plan has more relations than the executor tracks (64).
    TooManyRelations { relations: usize },
    /// An injected row budget was exhausted mid-execution (admission
    /// control abort; transient — a retry may draw a different schedule).
    RowBudgetExceeded { processed: u64, budget: u64 },
}

impl EngineError {
    /// Whether a retry is worthwhile (mirrors [`StorageError::is_transient`]).
    pub fn is_transient(&self) -> bool {
        match self {
            EngineError::Storage(e) => e.is_transient(),
            EngineError::RowBudgetExceeded { .. } => true,
            _ => false,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "{e}"),
            EngineError::UnknownAlias { query, alias } => {
                write!(f, "query {query} has no alias {alias}")
            }
            EngineError::SpecUnknownAlias { alias } => {
                write!(f, "spec references unknown alias {alias}")
            }
            EngineError::PlanCoverage { plan, query } => {
                write!(f, "plan covers {plan:?} but query has {query:?}")
            }
            EngineError::DuplicateRelation => {
                f.write_str("a relation appears more than once in the plan")
            }
            EngineError::CrossProduct => {
                f.write_str("join node without predicates (cross product)")
            }
            EngineError::EmptySpec => f.write_str("empty plan spec"),
            EngineError::SpecShape { scans, joins } => write!(
                f,
                "spec shape mismatch: {scans} scans need {} joins, got {joins}",
                scans.saturating_sub(1)
            ),
            EngineError::NotLeftDeep => f.write_str("plan is not left-deep"),
            EngineError::UnboundJoinAlias { alias } => {
                write!(f, "join predicate names alias {alias}, which no scan below the join binds")
            }
            EngineError::TooManyRelations { relations } => {
                write!(f, "plan has {relations} relations; the executor runs at most 64")
            }
            EngineError::RowBudgetExceeded { processed, budget } => {
                write!(f, "row budget exceeded: processed {processed} rows, budget {budget}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_legacy_message_phrases() {
        let cover = EngineError::PlanCoverage {
            plan: vec!["a".into()],
            query: vec!["a".into(), "b".into()],
        };
        assert!(cover.to_string().contains("plan covers"));
        assert!(EngineError::CrossProduct.to_string().contains("cross product"));
        assert!(EngineError::SpecShape { scans: 2, joins: 0 }
            .to_string()
            .contains("shape mismatch"));
        assert!(EngineError::SpecUnknownAlias { alias: "z".into() }
            .to_string()
            .contains("unknown alias z"));
        assert!(EngineError::NotLeftDeep.to_string().contains("not left-deep"));
    }

    #[test]
    fn storage_errors_lift_with_source() {
        use std::error::Error;
        let e: EngineError = StorageError::UnknownTable("ghost".into()).into();
        assert!(e.to_string().contains("ghost"));
        assert!(e.source().is_some());
    }

    #[test]
    fn transience_follows_the_wrapped_error() {
        let transient: EngineError = StorageError::PageRead { table: "t".into(), page: 1 }.into();
        assert!(transient.is_transient());
        assert!(EngineError::RowBudgetExceeded { processed: 10, budget: 5 }.is_transient());
        assert!(!EngineError::CrossProduct.is_transient());
    }
}
