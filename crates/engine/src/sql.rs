//! A minimal SQL parser for the workload query class.
//!
//! Every query the paper evaluates is a conjunctive select-project-join
//! block; this parser accepts exactly that grammar (the same dialect
//! [`Query::to_sql`](crate::query::Query::to_sql) prints):
//!
//! ```text
//! SELECT COUNT(*) | *
//! FROM table [alias] (, table [alias])*
//! [WHERE pred (AND pred)*]
//! pred := qual.col = qual.col      -- equi-join
//!       | qual.col OP literal      -- filter, OP in {=, <, <=, >, >=}
//! ```
//!
//! Text literals are resolved to their dictionary codes against the
//! database, so parsed filters compare on the same domain the executor uses.

use crate::query::{CmpOp, ColRef, Filter, JoinPred, Query, RelRef};
use qpseeker_storage::{ColumnData, Database};

/// Parse a SQL string into a [`Query`], resolving names against `db`.
///
/// # Errors
/// Returns a human-readable message for any lexical, syntactic or semantic
/// (unknown table/column) problem.
pub fn parse(db: &Database, sql: &str) -> Result<Query, String> {
    let lower = sql.trim().trim_end_matches(';');
    let rest = strip_keyword(lower, "select").ok_or("expected SELECT")?;
    // Accept either `count(*)` or `*` as the projection.
    let rest = rest.trim_start();
    let rest = if let Some(r) = strip_keyword(rest, "count(*)") {
        r
    } else if let Some(r) = rest.strip_prefix('*') {
        r
    } else {
        return Err("expected COUNT(*) or * after SELECT".into());
    };
    let rest = strip_keyword(rest.trim_start(), "from").ok_or("expected FROM")?;

    let (from_clause, where_clause) = match split_keyword(rest, "where") {
        Some((f, w)) => (f, Some(w)),
        None => (rest, None),
    };

    let mut query = Query::new("sql");
    for item in from_clause.split(',') {
        let parts: Vec<&str> = item.split_whitespace().collect();
        let rel = match parts.as_slice() {
            [table] => RelRef::new(*table),
            [table, alias] => RelRef::aliased(*table, *alias),
            [table, kw, alias] if kw.eq_ignore_ascii_case("as") => RelRef::aliased(*table, *alias),
            _ => return Err(format!("cannot parse FROM item '{}'", item.trim())),
        };
        query.relations.push(rel);
    }
    if query.relations.is_empty() {
        return Err("FROM clause is empty".into());
    }

    if let Some(w) = where_clause {
        for pred in split_and(w) {
            parse_pred(db, &mut query, pred.trim())?;
        }
    }
    query.validate(db)?;
    Ok(query)
}

fn parse_pred(db: &Database, query: &mut Query, pred: &str) -> Result<(), String> {
    let (lhs, op, rhs) = split_comparison(pred)?;
    let left = parse_colref(lhs)
        .ok_or_else(|| format!("left side of '{pred}' is not a column reference"))?;
    if let Some(right) = parse_colref(rhs) {
        // Column vs column must be an equi-join.
        if op != CmpOp::Eq {
            return Err(format!("join predicates must use '=': '{pred}'"));
        }
        query.joins.push(JoinPred { left, right });
        return Ok(());
    }
    // Literal side: numeric or quoted text.
    let value = parse_literal(db, query, &left, rhs)?;
    query.filters.push(Filter { col: left, op, value });
    Ok(())
}

fn parse_literal(db: &Database, query: &Query, col: &ColRef, raw: &str) -> Result<f64, String> {
    let raw = raw.trim();
    if let Some(text) = raw.strip_prefix('\'').and_then(|r| r.strip_suffix('\'')) {
        // Resolve a text literal to its dictionary code.
        let table =
            query.table_of(&col.alias).ok_or_else(|| format!("unknown alias {}", col.alias))?;
        let t = db.table(table).ok_or_else(|| format!("unknown table {table}"))?;
        let c = t
            .col_idx(&col.column)
            .ok_or_else(|| format!("unknown column {}.{}", col.alias, col.column))?;
        match &t.columns[c].data {
            ColumnData::Text { dict, .. } => {
                dict.iter().position(|d| d == text).map(|code| code as f64).ok_or_else(|| {
                    format!("value '{text}' not present in {}.{}", table, col.column)
                })
            }
            _ => Err(format!("{}.{} is not a text column", col.alias, col.column)),
        }
    } else {
        raw.parse::<f64>().map_err(|_| format!("cannot parse literal '{raw}'"))
    }
}

fn parse_colref(s: &str) -> Option<ColRef> {
    let s = s.trim();
    let (alias, column) = s.split_once('.')?;
    let ident = |x: &str| {
        !x.is_empty()
            && x.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '#')
            && !x.chars().next().expect("non-empty").is_ascii_digit()
    };
    if ident(alias) && ident(column) {
        Some(ColRef::new(alias, column))
    } else {
        None
    }
}

fn split_comparison(pred: &str) -> Result<(&str, CmpOp, &str), String> {
    // Two-char operators first.
    for (tok, op) in
        [("<=", CmpOp::Le), (">=", CmpOp::Ge), ("=", CmpOp::Eq), ("<", CmpOp::Lt), (">", CmpOp::Gt)]
    {
        if let Some(i) = pred.find(tok) {
            let (l, r) = pred.split_at(i);
            return Ok((l, op, &r[tok.len()..]));
        }
    }
    Err(format!("no comparison operator in '{pred}'"))
}

fn strip_keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    let s = s.trim_start();
    if s.len() >= kw.len() && s[..kw.len()].eq_ignore_ascii_case(kw) {
        Some(&s[kw.len()..])
    } else {
        None
    }
}

/// Split `s` at the first occurrence of whole-word `kw` (case-insensitive).
fn split_keyword<'a>(s: &'a str, kw: &str) -> Option<(&'a str, &'a str)> {
    let lower = s.to_ascii_lowercase();
    let mut from = 0;
    while let Some(i) = lower[from..].find(kw) {
        let i = from + i;
        let before_ok = i == 0 || !lower.as_bytes()[i - 1].is_ascii_alphanumeric();
        let after = i + kw.len();
        let after_ok = after >= lower.len() || !lower.as_bytes()[after].is_ascii_alphanumeric();
        if before_ok && after_ok {
            return Some((&s[..i], &s[after..]));
        }
        from = after;
    }
    None
}

/// Split a WHERE clause on top-level ANDs (quotes respected).
fn split_and(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let lower = s.to_ascii_lowercase();
    let bytes = lower.as_bytes();
    let mut start = 0;
    let mut in_quote = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' => in_quote = !in_quote,
            b'a' if !in_quote
                && i + 3 <= bytes.len()
                && &lower[i..i + 3] == "and"
                && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric())
                && (i + 3 == bytes.len() || !bytes[i + 3].is_ascii_alphanumeric()) =>
            {
                out.push(&s[start..i]);
                start = i + 3;
                i += 2;
            }
            _ => {}
        }
        i += 1;
    }
    out.push(&s[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_storage::datagen::imdb;

    fn db() -> Database {
        imdb::generate(0.05, 3)
    }

    #[test]
    fn parses_a_join_query_with_filters() {
        let db = db();
        let q = parse(
            &db,
            "SELECT COUNT(*) FROM title, movie_info \
             WHERE movie_info.movie_id = title.id AND title.production_year > 2000",
        )
        .unwrap();
        assert_eq!(q.num_relations(), 2);
        assert_eq!(q.num_joins(), 1);
        assert_eq!(q.filters.len(), 1);
        assert_eq!(q.filters[0].op, CmpOp::Gt);
        assert_eq!(q.filters[0].value, 2000.0);
    }

    #[test]
    fn round_trips_through_to_sql() {
        let db = db();
        let original = parse(
            &db,
            "select count(*) from title, cast_info where cast_info.movie_id = title.id \
             and title.kind_id = 2",
        )
        .unwrap();
        let reparsed = parse(&db, &original.to_sql()).unwrap();
        assert_eq!(original.relations, reparsed.relations);
        assert_eq!(original.joins, reparsed.joins);
        assert_eq!(original.filters, reparsed.filters);
    }

    #[test]
    fn aliases_supported() {
        let db = db();
        let q =
            parse(&db, "SELECT * FROM title t1, title t2 WHERE t1.kind_id = t2.kind_id").unwrap();
        assert_eq!(&*q.relations[0].alias, "t1");
        assert_eq!(&*q.relations[1].table, "title");
        assert_eq!(q.num_joins(), 1);
    }

    #[test]
    fn text_literals_resolve_to_dictionary_codes() {
        let db = db();
        // Grab a real keyword value from the dictionary.
        let t = db.table("keyword").unwrap();
        let word = match &t.col("keyword").data {
            ColumnData::Text { dict, .. } => dict[3].clone(),
            _ => unreachable!(),
        };
        let q =
            parse(&db, &format!("SELECT COUNT(*) FROM keyword WHERE keyword.keyword = '{word}'"))
                .unwrap();
        assert_eq!(q.filters[0].value, 3.0);
    }

    #[test]
    fn rejects_unknown_names_and_bad_syntax() {
        let db = db();
        assert!(parse(&db, "SELECT COUNT(*) FROM nope").is_err());
        assert!(parse(&db, "SELECT COUNT(*) FROM title WHERE title.nope = 1").is_err());
        assert!(parse(&db, "SELECT COUNT(*) FROM title WHERE title.id ~ 3").is_err());
        assert!(parse(&db, "DELETE FROM title").is_err());
        assert!(
            parse(
                &db,
                "SELECT COUNT(*) FROM title, movie_info WHERE movie_info.movie_id < title.id"
            )
            .is_err(),
            "non-equi joins are rejected"
        );
    }

    #[test]
    fn and_inside_quotes_is_not_a_separator() {
        let parts = split_and("a.x = 'foo and bar' and b.y > 3");
        assert_eq!(parts.len(), 2);
        assert!(parts[0].contains("foo and bar"));
    }

    #[test]
    fn le_ge_operators() {
        let db = db();
        let q = parse(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year >= 1990 \
             AND title.production_year <= 2005",
        )
        .unwrap();
        assert_eq!(q.filters[0].op, CmpOp::Ge);
        assert_eq!(q.filters[1].op, CmpOp::Le);
    }
}
