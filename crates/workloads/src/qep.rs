//! QEPs (query-execution-plan pairs) and workloads.
//!
//! Each unique pair of query and execution plan is a *QEP* (paper §3.1),
//! characterized by its cardinality, computational cost, and runtime — the
//! three target values QPSeeker learns. A [`Workload`] is a named bag of
//! QEPs plus metadata (plan source, template labels for Fig. 5).

use qpseeker_engine::executor::{ExecutionResult, Executor};
use qpseeker_engine::plan::PlanNode;
use qpseeker_engine::query::Query;
use qpseeker_storage::{fnv, Database};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Where a workload's plans came from (Table 1's "Plan Source" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanSource {
    /// One plan per query, produced by the DB optimizer.
    DbOptimizer,
    /// Many plans per query, sampled from the plan space (§5.1).
    Sampling,
}

/// One (query, plan) pair with its ground-truth measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Qep {
    pub query: Query,
    pub plan: PlanNode,
    /// Template label (queries instantiated from the same template share it;
    /// used for the latent-space clustering of Fig. 5).
    pub template: String,
    /// Ground-truth execution profile (per-node cardinality/cost/time in
    /// postorder; root = whole plan).
    pub truth: ExecutionResult,
}

impl Qep {
    /// Execute `plan` to obtain ground truth and build the QEP.
    pub fn measure(
        db: &Database,
        query: Query,
        plan: PlanNode,
        template: impl Into<String>,
    ) -> Self {
        let truth = Executor::new(db).execute(&plan);
        Self { query, plan, template: template.into(), truth }
    }

    pub fn cardinality(&self) -> f64 {
        self.truth.rows as f64
    }

    pub fn cost(&self) -> f64 {
        self.truth.cost
    }

    pub fn runtime_ms(&self) -> f64 {
        self.truth.time_ms
    }
}

/// A named workload over one database.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Workload {
    pub name: String,
    pub database: String,
    pub plan_source: PlanSource,
    pub qeps: Vec<Qep>,
}

/// Distribution summary of one target value (drives the §6 workload
/// discussion and Fig. 7-style outputs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Distribution {
    pub min: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
    pub mean: f64,
    pub std: f64,
}

impl Distribution {
    pub fn of(mut values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "distribution of empty sample");
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let pct = |p: f64| values[((values.len() - 1) as f64 * p) as usize];
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
        Self {
            min: values[0],
            p50: pct(0.5),
            p90: pct(0.9),
            p99: pct(0.99),
            max: *values.last().expect("non-empty"),
            mean,
            std: var.sqrt(),
        }
    }
}

/// Summary row for Table 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadSummary {
    pub name: String,
    pub database: String,
    pub plan_source: PlanSource,
    pub num_queries: usize,
    pub num_qeps: usize,
    pub max_joins: usize,
    pub cardinality: Distribution,
    pub cost: Distribution,
    pub runtime_ms: Distribution,
}

impl Workload {
    /// Number of distinct queries (a sampled workload has many QEPs per query).
    pub fn num_queries(&self) -> usize {
        let mut ids: Vec<&str> = self.qeps.iter().map(|q| q.query.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    pub fn num_qeps(&self) -> usize {
        self.qeps.len()
    }

    pub fn summary(&self) -> WorkloadSummary {
        WorkloadSummary {
            name: self.name.clone(),
            database: self.database.clone(),
            plan_source: self.plan_source,
            num_queries: self.num_queries(),
            num_qeps: self.num_qeps(),
            max_joins: self.qeps.iter().map(|q| q.query.num_joins()).max().unwrap_or(0),
            cardinality: Distribution::of(self.qeps.iter().map(Qep::cardinality).collect()),
            cost: Distribution::of(self.qeps.iter().map(Qep::cost).collect()),
            runtime_ms: Distribution::of(self.qeps.iter().map(Qep::runtime_ms).collect()),
        }
    }

    /// Deterministic train/eval split. For sampled workloads the split is at
    /// *query* level (paper §6.3: "we split the available QEPs at query
    /// level, thus we evaluate QPSeeker on queries never seen before").
    pub fn split(&self, train_frac: f64, at_query_level: bool) -> (Vec<&Qep>, Vec<&Qep>) {
        assert!((0.0..=1.0).contains(&train_frac));
        if at_query_level {
            let mut ids: Vec<&str> = self.qeps.iter().map(|q| q.query.id.as_str()).collect();
            ids.sort_unstable();
            ids.dedup();
            let cut = ((ids.len() as f64) * train_frac) as usize;
            // Hash-order the ids so the split is stable but not biased by
            // generation order.
            let mut hashed: Vec<(u64, &str)> =
                ids.into_iter().map(|id| (fnv::bytes(id.as_bytes()), id)).collect();
            hashed.sort_unstable();
            let train_ids: std::collections::HashSet<&str> =
                hashed.iter().take(cut).map(|&(_, id)| id).collect();
            self.qeps.iter().partition(|q| train_ids.contains(q.query.id.as_str()))
        } else {
            let cut = ((self.qeps.len() as f64) * train_frac) as usize;
            let mut idx: Vec<(u64, usize)> = (0..self.qeps.len())
                .map(|i| (fnv::bytes(format!("{}:{i}", self.qeps[i].query.id).as_bytes()), i))
                .collect();
            idx.sort_unstable();
            let train: std::collections::HashSet<usize> =
                idx.iter().take(cut).map(|&(_, i)| i).collect();
            let mut tr = Vec::new();
            let mut ev = Vec::new();
            for (i, q) in self.qeps.iter().enumerate() {
                if train.contains(&i) {
                    tr.push(q);
                } else {
                    ev.push(q);
                }
            }
            (tr, ev)
        }
    }
}

/// Execute (query, plan, template) triples to build QEPs, in item order.
///
/// Plans that blow the executor's intermediate-result cap are statement
/// timeouts: they have no usable target values (the paper's runs never
/// completed such plans either), so they are dropped here.
///
/// Workers (up to 8; one below 16 items, which runs on the calling thread)
/// each own an [`Executor`] and pull the next item index from one shared
/// cursor, so a few expensive plans cannot pile up on one worker.
/// [`crate::job::generate`] samples its plans on the same kind of pool
/// before labelling them here.
pub fn measure_parallel(db: &Database, items: Vec<(Query, PlanNode, String)>) -> Vec<Qep> {
    let truths = on_workers(&items, || Executor::new(db), |ex, (_, plan, _)| ex.execute(plan));
    items
        .into_iter()
        .zip(truths)
        .filter(|(_, truth)| !truth.timed_out)
        .map(|((query, plan, template), truth)| Qep { query, plan, template, truth })
        .collect()
}

/// `f` over every item, in item order, on the worker pool
/// [`measure_parallel`] describes; each worker builds its own state with
/// `init`.
pub(crate) fn on_workers<T: Sync, S, R: Send>(
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    let workers = if items.len() < 16 {
        1
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8)
    };
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor hands out indices and publishes no data.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return done };
            done.push((i, f(&mut state, item)));
        }
    };
    let mut out: Vec<(usize, R)> = if workers == 1 {
        work()
    } else {
        crossbeam::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(|_| work())).collect();
            handles.into_iter().flat_map(|h| h.join().expect("workload worker panicked")).collect()
        })
        .expect("crossbeam scope")
    };
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{sample_plans, SamplingConfig};
    use qpseeker_engine::optimizer::PgOptimizer;
    use qpseeker_engine::query::{ColRef, JoinPred, RelRef};
    use qpseeker_storage::datagen::imdb;

    #[test]
    fn split_hash_is_pinned() {
        // Train/eval splits of every experiment follow this order.
        assert_eq!(fnv::bytes(b"q1"), 0x8d21307b572d497);
    }

    fn mk_query(i: usize) -> Query {
        let mut q = Query::new(format!("q{i}"));
        q.relations = vec![RelRef::new("title"), RelRef::new("movie_info")];
        q.joins = vec![JoinPred {
            left: ColRef::new("movie_info", "movie_id"),
            right: ColRef::new("title", "id"),
        }];
        q
    }

    fn tiny_workload(n: usize) -> (Database, Workload) {
        let db = imdb::generate(0.05, 2);
        let opt = PgOptimizer::new(&db);
        let qeps: Vec<Qep> = (0..n)
            .map(|i| {
                let q = mk_query(i);
                let p = opt.plan(&q);
                Qep::measure(&db, q, p, format!("t{}", i % 3))
            })
            .collect();
        let w = Workload {
            name: "tiny".into(),
            database: "imdb".into(),
            plan_source: PlanSource::DbOptimizer,
            qeps,
        };
        (db, w)
    }

    #[test]
    fn qep_measurement_fills_truth() {
        let (_, w) = tiny_workload(2);
        let q = &w.qeps[0];
        assert!(q.cardinality() > 0.0);
        assert!(q.cost() > 0.0);
        assert!(q.runtime_ms() > 0.0);
        assert_eq!(q.truth.nodes.len(), q.plan.len());
    }

    #[test]
    fn summary_counts() {
        let (_, w) = tiny_workload(6);
        let s = w.summary();
        assert_eq!(s.num_qeps, 6);
        assert_eq!(s.num_queries, 6);
        assert_eq!(s.max_joins, 1);
        assert!(s.runtime_ms.p50 > 0.0);
        assert!(s.runtime_ms.max >= s.runtime_ms.p50);
    }

    #[test]
    fn distribution_percentiles_ordered() {
        let d = Distribution::of((1..=100).map(|x| x as f64).collect());
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 100.0);
        assert!(d.p50 <= d.p90 && d.p90 <= d.p99);
        assert!((d.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_distribution_panics() {
        Distribution::of(vec![]);
    }

    #[test]
    fn split_fractions_roughly_respected() {
        let (_, w) = tiny_workload(10);
        let (tr, ev) = w.split(0.8, false);
        assert_eq!(tr.len() + ev.len(), 10);
        assert!(tr.len() >= 7 && tr.len() <= 9, "train {}", tr.len());
    }

    #[test]
    fn query_level_split_keeps_queries_whole() {
        // Same query id on several QEPs must land entirely in one side.
        let db = imdb::generate(0.05, 2);
        let opt = PgOptimizer::new(&db);
        let mut qeps = Vec::new();
        for i in 0..6 {
            for _rep in 0..3 {
                let q = mk_query(i);
                let p = opt.plan(&q);
                qeps.push(Qep::measure(&db, q, p, "t"));
            }
        }
        let w = Workload {
            name: "s".into(),
            database: "imdb".into(),
            plan_source: PlanSource::Sampling,
            qeps,
        };
        let (tr, ev) = w.split(0.5, true);
        let train_ids: std::collections::HashSet<&str> =
            tr.iter().map(|q| q.query.id.as_str()).collect();
        for q in &ev {
            assert!(!train_ids.contains(q.query.id.as_str()), "query leaked across split");
        }
    }

    #[test]
    fn split_is_deterministic() {
        let (_, w) = tiny_workload(10);
        let (a, _) = w.split(0.8, false);
        let (b, _) = w.split(0.8, false);
        let ids_a: Vec<&str> = a.iter().map(|q| q.query.id.as_str()).collect();
        let ids_b: Vec<&str> = b.iter().map(|q| q.query.id.as_str()).collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn parallel_measurement_matches_serial() {
        let db = imdb::generate(0.05, 2);
        let opt = PgOptimizer::new(&db);
        // Expensive many-to-many star plans first, then cheap ones, so the
        // workers pulling from the cursor interleave over both kinds.
        let mut star = Query::new("star");
        star.relations.push(RelRef::new("title"));
        for fact in ["movie_info", "cast_info", "movie_keyword"] {
            star.relations.push(RelRef::new(fact));
            star.joins.push(JoinPred {
                left: ColRef::new(fact, "movie_id"),
                right: ColRef::new("title", "id"),
            });
        }
        let cfg = SamplingConfig { keep_fraction: 1.0, ..Default::default() };
        let mut items: Vec<(Query, PlanNode, String)> = sample_plans(&db, &star, &cfg)
            .into_iter()
            .take(8)
            .map(|s| (star.clone(), s.plan, "star".to_string()))
            .collect();
        items.extend((0..20).map(|i| {
            let q = mk_query(i);
            let p = opt.plan(&q);
            (q, p, "t".to_string())
        }));
        let serial: Vec<Qep> = items
            .iter()
            .cloned()
            .map(|(q, p, t)| Qep::measure(&db, q, p, t))
            .filter(|q| !q.truth.timed_out)
            .collect();
        assert_eq!(serial.len(), 28);
        assert_eq!(measure_parallel(&db, items), serial);
    }
}
