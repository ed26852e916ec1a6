//! Logical query representation.
//!
//! A query is a conjunctive select-project-join block, which is the query
//! class of every workload the paper evaluates (MSCN Synthetic, JOB, Stack):
//! a set of (aliased) relations `T_q`, a set of equi-join predicates `J_q`
//! and a set of scalar filter predicates `P_q` — exactly the three sets the
//! QPSeeker query encoder consumes.

use qpseeker_storage::Database;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A column of a (possibly aliased) relation. Names are shared strings, so
/// a plan node that copies a query's predicate or filter copies two
/// pointers, not two strings.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColRef {
    /// Alias of the relation inside this query.
    pub alias: Arc<str>,
    pub column: Arc<str>,
}

impl ColRef {
    pub fn new(alias: impl Into<Arc<str>>, column: impl Into<Arc<str>>) -> Self {
        Self { alias: alias.into(), column: column.into() }
    }
}

/// Comparison operators supported by filters (the MSCN feature space).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    #[inline]
    pub fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// All operators (used by workload generators).
    pub const ALL: [CmpOp; 5] = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
}

/// A scalar filter `alias.column OP value`. Text comparisons are expressed
/// against dictionary codes (the workload generator picks codes of real
/// values, so equality semantics are preserved).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Filter {
    pub col: ColRef,
    pub op: CmpOp,
    pub value: f64,
}

/// An equi-join predicate `left = right`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JoinPred {
    pub left: ColRef,
    pub right: ColRef,
}

impl JoinPred {
    /// True when this predicate connects the two aliases (either direction).
    pub fn connects(&self, a: &str, b: &str) -> bool {
        (*self.left.alias == *a && *self.right.alias == *b)
            || (*self.left.alias == *b && *self.right.alias == *a)
    }

    /// True when this predicate touches `alias` on either side.
    pub fn touches(&self, alias: &str) -> bool {
        *self.left.alias == *alias || *self.right.alias == *alias
    }
}

/// A relation reference with its alias; a plan's scan of it shares both
/// names.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelRef {
    pub table: Arc<str>,
    pub alias: Arc<str>,
}

impl RelRef {
    pub fn new(table: impl Into<Arc<str>>) -> Self {
        let t = table.into();
        Self { alias: t.clone(), table: t }
    }

    pub fn aliased(table: impl Into<Arc<str>>, alias: impl Into<Arc<str>>) -> Self {
        Self { table: table.into(), alias: alias.into() }
    }
}

/// A conjunctive SPJ query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Stable identifier (template id + instance id for workload queries).
    pub id: String,
    pub relations: Vec<RelRef>,
    pub joins: Vec<JoinPred>,
    pub filters: Vec<Filter>,
}

impl Query {
    pub fn new(id: impl Into<String>) -> Self {
        Self { id: id.into(), relations: Vec::new(), joins: Vec::new(), filters: Vec::new() }
    }

    pub fn num_joins(&self) -> usize {
        self.joins.len()
    }

    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Base table behind an alias.
    pub fn table_of(&self, alias: &str) -> Option<&str> {
        self.relations.iter().find(|r| *r.alias == *alias).map(|r| &*r.table)
    }

    /// Filters applying to a specific alias.
    pub fn filters_of(&self, alias: &str) -> Vec<&Filter> {
        self.filters.iter().filter(|f| *f.col.alias == *alias).collect()
    }

    /// Join predicates between a set of aliases and one new alias.
    pub fn joins_between(&self, joined: &BTreeSet<Arc<str>>, new_alias: &str) -> Vec<&JoinPred> {
        self.joins
            .iter()
            .filter(|j| {
                (joined.contains(&j.left.alias) && *j.right.alias == *new_alias)
                    || (joined.contains(&j.right.alias) && *j.left.alias == *new_alias)
            })
            .collect()
    }

    /// Aliases adjacent to the given alias set in the join graph.
    pub fn neighbors(&self, joined: &BTreeSet<Arc<str>>) -> Vec<Arc<str>> {
        let mut out: Vec<Arc<str>> = Vec::new();
        for r in &self.relations {
            if joined.contains(&r.alias) {
                continue;
            }
            if self.joins.iter().any(|j| {
                (joined.contains(&j.left.alias) && j.right.alias == r.alias)
                    || (joined.contains(&j.right.alias) && j.left.alias == r.alias)
            }) {
                out.push(r.alias.clone());
            }
        }
        out
    }

    /// True when the join graph spans all relations (no cross products needed).
    pub fn is_connected(&self) -> bool {
        if self.relations.len() <= 1 {
            return true;
        }
        let mut seen: BTreeSet<Arc<str>> = BTreeSet::new();
        seen.insert(self.relations[0].alias.clone());
        loop {
            let next = self.neighbors(&seen);
            if next.is_empty() {
                break;
            }
            for a in next {
                seen.insert(a);
            }
        }
        seen.len() == self.relations.len()
    }

    /// Check referential integrity of the query against a database schema.
    pub fn validate(&self, db: &Database) -> Result<(), String> {
        let mut seen_aliases: HashMap<&str, &str> = HashMap::new();
        for r in &self.relations {
            if db.catalog.table_meta(&r.table).is_none() {
                return Err(format!("unknown table {}", r.table));
            }
            if seen_aliases.insert(&r.alias, &r.table).is_some() {
                return Err(format!("duplicate alias {}", r.alias));
            }
        }
        let col_ok = |c: &ColRef| -> Result<(), String> {
            let table =
                seen_aliases.get(&*c.alias).ok_or_else(|| format!("unknown alias {}", c.alias))?;
            let meta = db.catalog.table_meta(table).expect("validated above");
            if !meta.columns.iter().any(|m| *m.name == *c.column) {
                return Err(format!("unknown column {}.{}", c.alias, c.column));
            }
            Ok(())
        };
        for j in &self.joins {
            col_ok(&j.left)?;
            col_ok(&j.right)?;
        }
        for f in &self.filters {
            col_ok(&f.col)?;
        }
        Ok(())
    }

    /// Render as SQL-ish text (debugging / EXPLAIN output).
    pub fn to_sql(&self) -> String {
        let from: Vec<String> = self
            .relations
            .iter()
            .map(|r| {
                if r.alias == r.table {
                    r.table.to_string()
                } else {
                    format!("{} {}", r.table, r.alias)
                }
            })
            .collect();
        let mut preds: Vec<String> = self
            .joins
            .iter()
            .map(|j| {
                format!("{}.{} = {}.{}", j.left.alias, j.left.column, j.right.alias, j.right.column)
            })
            .collect();
        for f in &self.filters {
            let op = match f.op {
                CmpOp::Eq => "=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            preds.push(format!("{}.{} {} {}", f.col.alias, f.col.column, op, f.value));
        }
        let mut sql = format!("SELECT COUNT(*) FROM {}", from.join(", "));
        if !preds.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&preds.join(" AND "));
        }
        sql
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_storage::datagen::imdb;

    fn two_join_query() -> Query {
        let mut q = Query::new("q1");
        q.relations =
            vec![RelRef::new("title"), RelRef::new("movie_info"), RelRef::new("cast_info")];
        q.joins = vec![
            JoinPred {
                left: ColRef::new("movie_info", "movie_id"),
                right: ColRef::new("title", "id"),
            },
            JoinPred {
                left: ColRef::new("cast_info", "movie_id"),
                right: ColRef::new("title", "id"),
            },
        ];
        q.filters = vec![Filter {
            col: ColRef::new("title", "production_year"),
            op: CmpOp::Gt,
            value: 2000.0,
        }];
        q
    }

    #[test]
    fn accessors() {
        let q = two_join_query();
        assert_eq!(q.num_relations(), 3);
        assert_eq!(q.num_joins(), 2);
        assert_eq!(q.table_of("title"), Some("title"));
        assert_eq!(q.filters_of("title").len(), 1);
        assert_eq!(q.filters_of("movie_info").len(), 0);
    }

    #[test]
    fn join_graph_navigation() {
        let q = two_join_query();
        let mut joined = BTreeSet::new();
        joined.insert("movie_info".into());
        let n = q.neighbors(&joined);
        assert_eq!(n, vec!["title".into()]);
        joined.insert("title".into());
        assert_eq!(q.neighbors(&joined), vec!["cast_info".into()]);
        assert_eq!(q.joins_between(&joined, "cast_info").len(), 1);
    }

    #[test]
    fn connectivity() {
        let mut q = two_join_query();
        assert!(q.is_connected());
        q.joins.pop();
        assert!(!q.is_connected());
        let single = Query::new("s");
        assert!(single.is_connected());
    }

    #[test]
    fn validation_against_imdb() {
        let db = imdb::generate(0.05, 1);
        let q = two_join_query();
        assert!(q.validate(&db).is_ok());

        let mut bad = two_join_query();
        bad.filters[0].col.column = "nonexistent".into();
        assert!(bad.validate(&db).unwrap_err().contains("unknown column"));

        let mut bad2 = two_join_query();
        bad2.relations.push(RelRef::new("not_a_table"));
        assert!(bad2.validate(&db).unwrap_err().contains("unknown table"));

        let mut bad3 = two_join_query();
        bad3.relations.push(RelRef::new("title"));
        assert!(bad3.validate(&db).unwrap_err().contains("duplicate alias"));
    }

    #[test]
    fn self_join_via_aliases_validates() {
        let db = imdb::generate(0.05, 1);
        let mut q = Query::new("self");
        q.relations = vec![RelRef::aliased("title", "t1"), RelRef::aliased("title", "t2")];
        q.joins = vec![JoinPred {
            left: ColRef::new("t1", "kind_id"),
            right: ColRef::new("t2", "kind_id"),
        }];
        assert!(q.validate(&db).is_ok());
        assert!(q.is_connected());
    }

    #[test]
    fn sql_rendering() {
        let q = two_join_query();
        let sql = q.to_sql();
        assert!(sql.starts_with("SELECT COUNT(*) FROM title, movie_info, cast_info"));
        assert!(sql.contains("movie_info.movie_id = title.id"));
        assert!(sql.contains("title.production_year > 2000"));
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Eq.eval(1.0, 1.0));
        assert!(CmpOp::Lt.eval(1.0, 2.0));
        assert!(CmpOp::Le.eval(2.0, 2.0));
        assert!(CmpOp::Gt.eval(3.0, 2.0));
        assert!(CmpOp::Ge.eval(2.0, 2.0));
        assert!(!CmpOp::Gt.eval(2.0, 2.0));
    }
}
