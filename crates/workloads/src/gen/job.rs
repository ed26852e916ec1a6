//! The JOB workload family (Join Order Benchmark shape).
//!
//! * **JOB**: 113 queries instantiated from 33 templates (multi-join, up to
//!   16 joins, correlated filters); the training workload is an
//!   *augmentation* — 50K QEPs sampled from each query's plan space (§5.1).
//! * **JOB-light**: 70 easier queries (≤ 4 joins), evaluation only.
//! * **JOB-extended**: 24 harder queries (many joins), evaluation only.

use crate::gen::QueryBuilder;
use crate::qep::{measure_parallel, on_workers, PlanSource, Workload};
use crate::sampling::{sample_plans, SamplingConfig};
use qpseeker_engine::plan::PlanNode;
use qpseeker_engine::query::Query;
use qpseeker_storage::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the JOB family.
#[derive(Debug, Clone)]
pub struct JobConfig {
    pub n_templates: usize,
    pub n_queries: usize,
    /// Total QEPs produced by plan-space sampling (paper: 50K).
    pub target_qeps: usize,
    /// Fraction of cheapest candidate plans kept per query (paper: 0.15).
    /// `1.0` keeps a uniform spread over the whole sampled plan space,
    /// which gives the cost model coverage of *bad* plans too.
    pub keep_fraction: f64,
    pub seed: u64,
}

impl Default for JobConfig {
    fn default() -> Self {
        Self {
            n_templates: 33,
            n_queries: 113,
            target_qeps: 2_000,
            keep_fraction: 0.15,
            seed: 0x10b,
        }
    }
}

/// One JOB template: a fixed join structure plus filter slots; instances
/// draw different literals.
#[derive(Debug, Clone)]
struct Template {
    id: usize,
    base: Query,
    n_filters: usize,
}

fn build_templates(db: &Database, cfg: &JobConfig) -> Vec<Template> {
    let qb = QueryBuilder::new(db);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.n_templates);
    let mut attempts = 0;
    while out.len() < cfg.n_templates && attempts < cfg.n_templates * 20 {
        attempts += 1;
        let t = out.len();
        // Sizes sweep 3..=17 relations (2..=16 joins), biased to the middle
        // like the real JOB.
        let n_rels = 3 + (t * 7) % 15;
        let (rels, joins) = qb.grow(&mut rng, "title", n_rels, n_rels > 8);
        if rels.len() < 3 {
            continue;
        }
        let mut base = Query::new(format!("job-t{t}"));
        base.relations = rels;
        base.joins = joins;
        if !base.is_connected() {
            continue;
        }
        let n_filters = rng.gen_range(1..=4);
        out.push(Template { id: t, base, n_filters });
    }
    out
}

/// The 113 JOB queries (query, template-label) without plans.
pub fn job_queries(db: &Database, cfg: &JobConfig) -> Vec<(Query, String)> {
    let templates = build_templates(db, cfg);
    let qb = QueryBuilder::new(db);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xbeef);
    let mut out = Vec::with_capacity(cfg.n_queries);
    let mut i = 0;
    while out.len() < cfg.n_queries {
        let t = &templates[i % templates.len()];
        i += 1;
        let mut q = t.base.clone();
        q.id = format!("job-{}", out.len());
        q.filters.clear();
        qb.add_filters(&mut rng, &mut q, t.n_filters);
        out.push((q, format!("job-t{}", t.id)));
    }
    out
}

/// JOB-light: 70 queries, at most 4 joins, single numeric filters.
pub fn job_light_queries(db: &Database, seed: u64) -> Vec<(Query, String)> {
    let qb = QueryBuilder::new(db);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11547);
    let mut out = Vec::with_capacity(70);
    while out.len() < 70 {
        let i = out.len();
        let n_rels = rng.gen_range(2..=5);
        let (rels, joins) = qb.grow(&mut rng, "title", n_rels, false);
        let mut q = Query::new(format!("job-light-{i}"));
        q.relations = rels;
        q.joins = joins;
        qb.add_filters(&mut rng, &mut q, 1);
        if q.num_joins() > 4 || !q.is_connected() {
            continue;
        }
        out.push((q, format!("job-light-t{}", i % 10)));
    }
    out
}

/// JOB-extended: 24 heavier queries (6-12 joins, several filters).
pub fn job_extended_queries(db: &Database, seed: u64) -> Vec<(Query, String)> {
    let qb = QueryBuilder::new(db);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xe87e4d);
    let mut out = Vec::with_capacity(24);
    while out.len() < 24 {
        let i = out.len();
        let n_rels = rng.gen_range(7..=13);
        let (rels, joins) = qb.grow(&mut rng, "title", n_rels, true);
        if rels.len() < 7 {
            continue;
        }
        let mut q = Query::new(format!("job-ext-{i}"));
        q.relations = rels;
        q.joins = joins;
        qb.add_filters(&mut rng, &mut q, 3);
        if !q.is_connected() {
            continue;
        }
        out.push((q, format!("job-ext-t{}", i % 8)));
    }
    out
}

/// The JOB *training* workload: plan-space sampling over the 113 queries,
/// producing ~`target_qeps` measured QEPs (paper: 50K).
///
/// Each query's plans are sampled on the labelling workers
/// ([`measure_parallel`]'s shared-cursor pool), from an RNG seeded by
/// `cfg.seed` and the query's id, then every plan is labelled there; QEPs
/// keep query order.
pub fn generate(db: &Database, cfg: &JobConfig) -> Workload {
    let queries = job_queries(db, cfg);
    let per_query = (cfg.target_qeps / queries.len().max(1)).max(1);
    let scfg = SamplingConfig {
        max_orderings: (per_query * 2).max(40),
        operators_per_ordering: 3,
        keep_fraction: cfg.keep_fraction,
        seed: cfg.seed,
    };
    let sampled = on_workers(
        &queries,
        || (),
        |_, (q, _)| {
            let mut plans = sample_plans(db, q, &scfg);
            if cfg.keep_fraction >= 1.0 {
                // Uniform coverage: stride through the cost-sorted candidates
                // so cheap, medium and catastrophic plans all appear.
                let stride = (plans.len() / per_query).max(1);
                plans = plans.into_iter().step_by(stride).take(per_query).collect();
            } else {
                plans.truncate(per_query);
            }
            plans
        },
    );
    let mut items: Vec<(Query, PlanNode, String)> = Vec::with_capacity(cfg.target_qeps);
    for ((q, template), plans) in queries.iter().zip(sampled) {
        for sp in plans {
            items.push((q.clone(), sp.plan, template.clone()));
        }
    }
    Workload {
        name: "job".into(),
        database: db.name.clone(),
        plan_source: PlanSource::Sampling,
        qeps: measure_parallel(db, items),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_storage::datagen::imdb;

    fn db() -> Database {
        imdb::generate(0.05, 2)
    }

    #[test]
    fn job_queries_shape() {
        let db = db();
        let cfg = JobConfig { n_queries: 30, n_templates: 10, ..Default::default() };
        let qs = job_queries(&db, &cfg);
        assert_eq!(qs.len(), 30);
        let mut max_joins = 0;
        for (q, _) in &qs {
            assert!(q.validate(&db).is_ok(), "{} invalid", q.id);
            assert!(q.is_connected());
            max_joins = max_joins.max(q.num_joins());
        }
        assert!(max_joins >= 8, "JOB must contain many-join queries, max {max_joins}");
    }

    #[test]
    fn templates_share_structure_but_differ_in_literals() {
        let db = db();
        let cfg = JobConfig { n_queries: 20, n_templates: 5, ..Default::default() };
        let qs = job_queries(&db, &cfg);
        // Queries 0 and 5 come from the same template (round-robin).
        let (q0, t0) = &qs[0];
        let (q5, t5) = &qs[5];
        assert_eq!(t0, t5);
        assert_eq!(q0.relations, q5.relations);
        assert_eq!(q0.joins, q5.joins);
        assert_ne!(q0.filters, q5.filters);
    }

    #[test]
    fn job_light_is_light() {
        let db = db();
        let qs = job_light_queries(&db, 0);
        assert_eq!(qs.len(), 70);
        for (q, _) in &qs {
            assert!(q.num_joins() <= 4);
            assert!(q.validate(&db).is_ok());
        }
    }

    #[test]
    fn job_extended_is_heavy() {
        let db = db();
        let qs = job_extended_queries(&db, 0);
        assert_eq!(qs.len(), 24);
        for (q, _) in &qs {
            assert!(q.num_joins() >= 6, "{} joins", q.num_joins());
            assert!(q.validate(&db).is_ok());
        }
    }

    #[test]
    fn sampled_workload_has_many_qeps_per_query() {
        let db = db();
        let cfg = JobConfig { n_templates: 4, n_queries: 8, target_qeps: 80, ..Default::default() };
        let w = generate(&db, &cfg);
        assert_eq!(w.plan_source, PlanSource::Sampling);
        assert!(
            w.num_qeps() > w.num_queries(),
            "{} qeps / {} queries",
            w.num_qeps(),
            w.num_queries()
        );
        // Same query under different plans can have different runtimes but
        // identical cardinality (cardinality is plan-invariant).
        use std::collections::HashMap;
        let mut by_query: HashMap<&str, Vec<&crate::qep::Qep>> = HashMap::new();
        for qep in &w.qeps {
            by_query.entry(qep.query.id.as_str()).or_default().push(qep);
        }
        let mut saw_multi = false;
        for (_, qeps) in by_query {
            if qeps.len() > 1 {
                saw_multi = true;
                let card = qeps[0].truth.rows;
                for q in &qeps {
                    assert!(!q.truth.timed_out, "timed-out plans are dropped");
                    assert_eq!(q.truth.rows, card, "cardinality must be plan-invariant");
                }
            }
        }
        assert!(saw_multi);
    }
}
