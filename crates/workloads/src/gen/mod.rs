//! Workload generators: Synthetic (MSCN-style), JOB (+light/+extended) and
//! Stack, over the IMDb- and Stack-shaped databases.

pub mod drift;
pub mod job;
pub mod stack;
pub mod synthetic;
pub mod tenants;

use qpseeker_engine::query::{CmpOp, ColRef, Filter, JoinPred, Query, RelRef};
use qpseeker_storage::Database;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Helper for growing random connected queries over a database's FK graph
/// and drawing realistic filter literals from its statistics.
pub struct QueryBuilder<'a> {
    pub db: &'a Database,
}

impl<'a> QueryBuilder<'a> {
    pub fn new(db: &'a Database) -> Self {
        Self { db }
    }

    /// Grow a connected relation set by random walk over FK edges, starting
    /// from `start`. When `allow_repeat` is set, a table may appear several
    /// times under distinct aliases (`table#2`, `table#3`, ... — JOB-style
    /// self-join templates); otherwise repeats are skipped.
    pub fn grow(
        &self,
        rng: &mut StdRng,
        start: &str,
        n_relations: usize,
        allow_repeat: bool,
    ) -> (Vec<RelRef>, Vec<JoinPred>) {
        let mut relations = vec![RelRef::new(start)];
        let mut joins = Vec::new();
        let mut next_alias_id: usize = 2;
        let mut guard = 0;
        while relations.len() < n_relations && guard < n_relations * 30 {
            guard += 1;
            // Pick a random included alias, then a random FK edge of its table.
            let anchor = &relations[rng.gen_range(0..relations.len())];
            let edges = self.db.catalog.joins_of(&anchor.table);
            if edges.is_empty() {
                continue;
            }
            let e = edges[rng.gen_range(0..edges.len())];
            // The "other" side of the edge relative to the anchor table.
            let (other_table, other_col, anchor_col) = if *e.from_table == *anchor.table {
                (&e.to_table, &e.to_col, &e.from_col)
            } else {
                (&e.from_table, &e.from_col, &e.to_col)
            };
            let already = relations.iter().any(|r| *r.table == **other_table);
            let alias = if already {
                if !allow_repeat || rng.gen_bool(0.6) {
                    continue;
                }
                let a = format!("{other_table}#{next_alias_id}");
                next_alias_id += 1;
                a
            } else {
                other_table.clone()
            };
            joins.push(JoinPred {
                left: ColRef::new(anchor.alias.clone(), anchor_col.clone()),
                right: ColRef::new(alias.clone(), other_col.clone()),
            });
            relations.push(RelRef::aliased(other_table.clone(), alias));
        }
        (relations, joins)
    }

    /// Draw a realistic filter on `alias` (literal sampled from the column's
    /// histogram bounds / MCVs, so selectivities span the real range).
    /// Skips id-like columns, which carry no selectivity semantics.
    pub fn random_filter(&self, rng: &mut StdRng, query: &Query, alias: &str) -> Option<Filter> {
        let table = query.table_of(alias)?;
        let stats = self.db.table_stats(table)?;
        let candidates: Vec<&qpseeker_storage::ColumnStats> = stats
            .columns
            .iter()
            .filter(|c| c.name != "id" && !c.name.ends_with("_id") && c.n_distinct > 1)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let col = candidates[rng.gen_range(0..candidates.len())];
        let op = CmpOp::ALL[rng.gen_range(0..CmpOp::ALL.len())];
        let value = if op == CmpOp::Eq && !col.mcvs.is_empty() && rng.gen_bool(0.5) {
            // Equality on a common value half the time (high selectivity
            // variance, like real workloads).
            col.mcvs[rng.gen_range(0..col.mcvs.len())].0
        } else {
            let b = &col.histogram.bounds;
            b[rng.gen_range(0..b.len())]
        };
        Some(Filter { col: ColRef::new(alias, col.name.clone()), op, value })
    }

    /// Attach `n` random filters to distinct (alias, column) slots of `query`.
    pub fn add_filters(&self, rng: &mut StdRng, query: &mut Query, n: usize) {
        let aliases: Vec<Arc<str>> = query.relations.iter().map(|r| r.alias.clone()).collect();
        let mut guard = 0;
        while query.filters.len() < n && guard < n * 20 {
            guard += 1;
            let alias = &aliases[rng.gen_range(0..aliases.len())];
            if let Some(f) = self.random_filter(rng, query, alias) {
                let dup = query.filters.iter().any(|g| g.col == f.col);
                if !dup {
                    query.filters.push(f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_storage::datagen::imdb;
    use rand::SeedableRng;

    #[test]
    fn grow_produces_connected_valid_queries() {
        let db = imdb::generate(0.05, 2);
        let qb = QueryBuilder::new(&db);
        let mut rng = StdRng::seed_from_u64(1);
        for n in 1..=8 {
            let (rels, joins) = qb.grow(&mut rng, "title", n, false);
            let mut q = Query::new("g");
            q.relations = rels;
            q.joins = joins;
            assert!(q.validate(&db).is_ok(), "n={n}");
            assert!(q.is_connected(), "n={n}");
            assert!(q.num_relations() <= n);
        }
    }

    #[test]
    fn grow_with_repeats_uses_distinct_aliases() {
        let db = imdb::generate(0.05, 2);
        let qb = QueryBuilder::new(&db);
        let mut rng = StdRng::seed_from_u64(3);
        let (rels, joins) = qb.grow(&mut rng, "title", 14, true);
        let mut q = Query::new("g");
        q.relations = rels.clone();
        q.joins = joins;
        assert!(q.validate(&db).is_ok());
        // With 14 relations over 16 tables and repeats allowed, aliases stay
        // unique even if tables repeat.
        let mut aliases: Vec<&str> = rels.iter().map(|r| &*r.alias).collect();
        aliases.sort_unstable();
        let before = aliases.len();
        aliases.dedup();
        assert_eq!(aliases.len(), before);
    }

    #[test]
    fn filters_reference_valid_columns_and_skip_ids() {
        let db = imdb::generate(0.05, 2);
        let qb = QueryBuilder::new(&db);
        let mut rng = StdRng::seed_from_u64(5);
        let (rels, joins) = qb.grow(&mut rng, "title", 3, false);
        let mut q = Query::new("g");
        q.relations = rels;
        q.joins = joins;
        qb.add_filters(&mut rng, &mut q, 4);
        assert!(q.validate(&db).is_ok());
        for f in &q.filters {
            assert!(!f.col.column.ends_with("_id") && &*f.col.column != "id");
        }
        // No duplicate filter slots.
        let mut slots: Vec<(Arc<str>, Arc<str>)> =
            q.filters.iter().map(|f| (f.col.alias.clone(), f.col.column.clone())).collect();
        slots.sort();
        let n = slots.len();
        slots.dedup();
        assert_eq!(slots.len(), n);
    }
}
