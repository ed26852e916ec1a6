//! The Synthetic workload (the MSCN training workload, paper §6 item 1).
//!
//! 0–2 joins per query over the IMDb schema, one plan per query from the DB
//! optimizer. Roughly a quarter of the queries are single-table scans —
//! which is exactly why the paper finds QPSeeker's set encoding too sparse
//! to learn well here (Table 2 discussion).

use crate::gen::QueryBuilder;
use crate::qep::{measure_parallel, PlanSource, Workload};
use qpseeker_engine::optimizer::PgOptimizer;
use qpseeker_engine::plan::PlanNode;
use qpseeker_engine::query::Query;
use qpseeker_storage::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration (the paper uses 100K queries; scale down as needed).
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    pub n_queries: usize,
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self { n_queries: 1_000, seed: 0x5e17 }
    }
}

/// Start tables for the random walk (MSCN samples over the IMDb fact tables).
const START_TABLES: [&str; 6] =
    ["title", "movie_info", "cast_info", "movie_keyword", "movie_companies", "movie_info_idx"];

/// Generate the queries only (no execution) — used by cross-workload
/// experiments that train elsewhere.
pub fn generate_queries(db: &Database, cfg: &SyntheticConfig) -> Vec<(Query, String)> {
    let qb = QueryBuilder::new(db);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.n_queries);
    let mut rejected = 0usize;
    while out.len() < cfg.n_queries {
        // The walk starts from IMDb fact tables; on a database without
        // them every draw is rejected, so fail loudly instead of spinning.
        assert!(
            rejected < 100 * (cfg.n_queries + 1),
            "synthetic generator made no progress on database '{}' \
             ({} rejected draws): its schema lacks the IMDb start tables",
            db.name,
            rejected,
        );
        let i = out.len();
        // 0-2 joins; ~25% single-table (matches the paper's observation).
        let n_rels = match rng.gen_range(0..4) {
            0 => 1,
            1 => 2,
            _ => 3,
        };
        let start = START_TABLES[rng.gen_range(0..START_TABLES.len())];
        let (rels, joins) = qb.grow(&mut rng, start, n_rels, false);
        let mut q = Query::new(format!("synth-{i}"));
        q.relations = rels;
        q.joins = joins;
        let n_filters = rng.gen_range(1..=3);
        qb.add_filters(&mut rng, &mut q, n_filters);
        if q.filters.is_empty() {
            rejected += 1;
            continue; // MSCN queries always carry at least one predicate
        }
        let template = format!("synth-{}j", q.num_joins());
        out.push((q, template));
    }
    out
}

/// Generate and measure the full workload (one optimizer plan per query).
pub fn generate(db: &Database, cfg: &SyntheticConfig) -> Workload {
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
        name: "synthetic".into(),
        database: db.name.clone(),
        plan_source: PlanSource::DbOptimizer,
        qeps: measure_parallel(db, items),
    }
}

/// Setting (b) of §3.1 applied to the Synthetic queries: instead of the one
/// optimizer plan per query, extract a *sample of execution plans per
/// query*. The planning experiments (paper §7.2) train on this variant so
/// the cost model sees plan-space variety, not only optimizer-chosen plans.
pub fn generate_sampled(db: &Database, cfg: &SyntheticConfig, qeps_per_query: usize) -> Workload {
    use crate::sampling::{sample_plans, SamplingConfig};
    let queries = generate_queries(db, cfg);
    let mut items: Vec<(Query, PlanNode, String)> = Vec::new();
    for (q, tpl) in &queries {
        let scfg = SamplingConfig {
            max_orderings: (qeps_per_query * 2).max(12),
            operators_per_ordering: 4,
            keep_fraction: 1.0,
            seed: cfg.seed,
        };
        let mut plans = sample_plans(db, q, &scfg);
        let stride = (plans.len() / qeps_per_query.max(1)).max(1);
        plans = plans.into_iter().step_by(stride).take(qeps_per_query).collect();
        for sp in plans {
            items.push((q.clone(), sp.plan, tpl.clone()));
        }
    }
    Workload {
        name: "synthetic-sampled".into(),
        database: db.name.clone(),
        plan_source: PlanSource::Sampling,
        qeps: measure_parallel(db, items),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_storage::datagen::imdb;

    #[test]
    fn queries_have_zero_to_two_joins() {
        let db = imdb::generate(0.05, 2);
        let qs = generate_queries(&db, &SyntheticConfig { n_queries: 100, seed: 1 });
        assert_eq!(qs.len(), 100);
        for (q, _) in &qs {
            assert!(q.num_joins() <= 2, "query {} has {} joins", q.id, q.num_joins());
            assert!(!q.filters.is_empty());
            assert!(q.validate(&db).is_ok());
        }
        // A visible share of single-table queries.
        let singles = qs.iter().filter(|(q, _)| q.num_relations() == 1).count();
        assert!(singles >= 10, "only {singles} single-table queries");
    }

    #[test]
    fn workload_is_one_qep_per_query() {
        let db = imdb::generate(0.05, 2);
        let w = generate(&db, &SyntheticConfig { n_queries: 40, seed: 1 });
        assert_eq!(w.num_qeps(), 40);
        assert_eq!(w.num_queries(), 40);
        assert_eq!(w.plan_source, PlanSource::DbOptimizer);
    }

    #[test]
    fn deterministic() {
        let db = imdb::generate(0.05, 2);
        let a = generate_queries(&db, &SyntheticConfig { n_queries: 20, seed: 7 });
        let b = generate_queries(&db, &SyntheticConfig { n_queries: 20, seed: 7 });
        for ((qa, _), (qb, _)) in a.iter().zip(&b) {
            assert_eq!(qa, qb);
        }
    }

    #[test]
    fn sampled_variant_has_many_plans_per_query() {
        let db = imdb::generate(0.05, 2);
        let w = generate_sampled(&db, &SyntheticConfig { n_queries: 15, seed: 1 }, 4);
        assert_eq!(w.plan_source, PlanSource::Sampling);
        assert!(w.num_qeps() > w.num_queries(), "{} vs {}", w.num_qeps(), w.num_queries());
        // Single-table queries contribute up to 3 scan-op plans each.
        for qep in &w.qeps {
            assert!(qep.plan.validate(&qep.query).is_ok());
        }
    }

    #[test]
    fn cardinality_distribution_has_wide_range() {
        // The paper notes Synthetic spans 1-tuple results to huge ones.
        let db = imdb::generate(0.2, 2);
        let w = generate(&db, &SyntheticConfig { n_queries: 150, seed: 3 });
        let s = w.summary();
        assert!(s.cardinality.min <= 10.0, "min {}", s.cardinality.min);
        assert!(s.cardinality.max >= 1000.0, "max {}", s.cardinality.max);
    }
}
