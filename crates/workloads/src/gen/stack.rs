//! The Stack workload (Bao's StackExchange workload, paper §6 item 3):
//! 6.2K queries over the Stack-shaped database, one optimizer plan each,
//! joins up to ~12-18 relations deep.

use crate::gen::QueryBuilder;
use crate::qep::{measure_parallel, PlanSource, Workload};
use qpseeker_engine::optimizer::PgOptimizer;
use qpseeker_engine::plan::PlanNode;
use qpseeker_engine::query::Query;
use qpseeker_storage::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration (the paper uses 6.2K queries).
#[derive(Debug, Clone)]
pub struct StackConfig {
    pub n_queries: usize,
    pub seed: u64,
}

impl Default for StackConfig {
    fn default() -> Self {
        Self { n_queries: 600, seed: 0x57ac }
    }
}

const START_TABLES: [&str; 4] = ["question", "answer", "so_user", "site"];

/// Generate queries only.
pub fn generate_queries(db: &Database, cfg: &StackConfig) -> Vec<(Query, String)> {
    let qb = QueryBuilder::new(db);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.n_queries);
    while out.len() < cfg.n_queries {
        let i = out.len();
        // Stack queries are join-heavy: 3-13 relations (up to ~12-18 joins
        // in the paper; our schema supports ~12 with alias repetition).
        let n_rels = rng.gen_range(3..=13);
        let start = START_TABLES[rng.gen_range(0..START_TABLES.len())];
        let (rels, joins) = qb.grow(&mut rng, start, n_rels, n_rels > 6);
        if rels.len() < 3 {
            continue;
        }
        let mut q = Query::new(format!("stack-{i}"));
        q.relations = rels;
        q.joins = joins;
        let n_filters = rng.gen_range(1..=3);
        qb.add_filters(&mut rng, &mut q, n_filters);
        if !q.is_connected() {
            continue;
        }
        let template = format!("stack-t{}", q.num_joins().min(12));
        out.push((q, template));
    }
    out
}

/// Generate and measure the workload (optimizer plans).
pub fn generate(db: &Database, cfg: &StackConfig) -> Workload {
    let queries = generate_queries(db, cfg);
    let opt = PgOptimizer::new(db);
    let items: Vec<(Query, PlanNode, String)> = queries
        .into_iter()
        .map(|(q, t)| {
            let p = opt.plan(&q);
            (q, p, t)
        })
        .collect();
    Workload {
        name: "stack".into(),
        database: db.name.clone(),
        plan_source: PlanSource::DbOptimizer,
        qeps: measure_parallel(db, items),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_storage::datagen::stack;

    #[test]
    fn queries_are_join_heavy_and_valid() {
        let db = stack::generate(0.05, 4);
        let qs = generate_queries(&db, &StackConfig { n_queries: 60, seed: 2 });
        assert_eq!(qs.len(), 60);
        let mut max_joins = 0;
        for (q, _) in &qs {
            assert!(q.validate(&db).is_ok(), "{}", q.id);
            max_joins = max_joins.max(q.num_joins());
        }
        assert!(max_joins >= 8, "max joins {max_joins}");
    }

    #[test]
    fn workload_measures_all_queries() {
        let db = stack::generate(0.05, 4);
        let w = generate(&db, &StackConfig { n_queries: 25, seed: 2 });
        // A few optimizer plans may hit the statement-timeout cap on heavy
        // join templates and be filtered; the vast majority must survive.
        assert!(w.num_qeps() >= 20 && w.num_qeps() <= 25, "qeps {}", w.num_qeps());
        assert!(w.qeps.iter().all(|q| !q.truth.timed_out));
        assert_eq!(w.plan_source, PlanSource::DbOptimizer);
        assert!(w.summary().runtime_ms.p50 > 0.0);
    }
}
