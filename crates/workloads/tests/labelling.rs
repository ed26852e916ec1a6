//! Labelling goldens, each hashing every `ExecutionResult` field (rows,
//! cost and time bits, per-node profiles, `timed_out`, `peak_mem_tuples`):
//!
//! * every sampled plan of one 5-relation IMDb star, at the default row cap
//!   and at caps placed around the true cardinalities of its joins;
//! * bushy plans and left-deep ones over a `<table>#n` self-join, at caps
//!   the same way;
//! * the reference fixture's JOB sample (3–17 relations), QEP order, query
//!   ids and plans included.
//!
//! The star's constant was computed with the executor that materialized
//! every join in full before checking the cap, the other two with the one
//! that wrote every alias of a join a parent reads. They pin that labelling
//! is exactly what those executors produced, including a timed-out plan's
//! truncated count, cost and penalty.

use qpseeker_engine::executor::{ExecutionResult, Executor};
use qpseeker_engine::plan::{JoinOp, PhysicalOp, PlanNode, ScanOp};
use qpseeker_engine::query::{CmpOp, ColRef, Filter, JoinPred, Query, RelRef};
use qpseeker_storage::datagen::imdb;
use qpseeker_storage::fnv;
use qpseeker_workloads::{job, sample_plans, JobConfig, SamplingConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// title ⋈ movie_info ⋈ cast_info ⋈ movie_keyword ⋈ keyword: three fact
/// tables fanning out of `title` (many-to-many through it) plus one
/// dimension join.
fn star_query() -> Query {
    let mut q = Query::new("labelling-golden");
    for t in ["title", "movie_info", "cast_info", "movie_keyword", "keyword"] {
        q.relations.push(RelRef::new(t));
    }
    for fact in ["movie_info", "cast_info", "movie_keyword"] {
        q.joins.push(JoinPred {
            left: ColRef::new(fact, "movie_id"),
            right: ColRef::new("title", "id"),
        });
    }
    q.joins.push(JoinPred {
        left: ColRef::new("movie_keyword", "keyword_id"),
        right: ColRef::new("keyword", "id"),
    });
    q.filters.push(Filter {
        col: ColRef::new("title", "production_year"),
        op: CmpOp::Gt,
        value: 1950.0,
    });
    q
}

fn result_words(r: &ExecutionResult, out: &mut Vec<u64>) {
    out.extend([r.rows, r.cost.to_bits(), r.time_ms.to_bits()]);
    out.extend([r.timed_out as u64, r.peak_mem_tuples, r.nodes.len() as u64]);
    for n in &r.nodes {
        out.push(fnv::bytes(format!("{:?}", n.op).as_bytes()));
        out.extend([n.rows, n.cost.to_bits(), n.time_ms.to_bits()]);
    }
}

#[test]
fn labelling_matches_the_golden_fingerprint() {
    let db = imdb::generate(0.05, 7);
    let q = star_query();
    let cfg = SamplingConfig {
        max_orderings: 40,
        operators_per_ordering: 2,
        keep_fraction: 1.0,
        seed: 3,
    };
    let plans: Vec<_> = sample_plans(&db, &q, &cfg).into_iter().map(|s| s.plan).collect();
    assert!(plans.len() >= 40, "{} plans", plans.len());

    let mut ex = Executor::new(&db);
    let default_cap = ex.max_intermediate;
    let uncapped: Vec<ExecutionResult> = plans.iter().map(|p| ex.execute(p)).collect();
    assert!(uncapped.iter().all(|r| !r.timed_out));

    // Caps around one join's true count n (the median distinct join count),
    // plus a cap low enough to trip most plans at their first join.
    let mut join_counts: Vec<u64> = uncapped
        .iter()
        .flat_map(|r| r.nodes.iter())
        .filter(|n| matches!(n.op, PhysicalOp::Join(_)))
        .map(|n| n.rows)
        .collect();
    join_counts.sort_unstable();
    join_counts.dedup();
    let n = join_counts[join_counts.len() / 2] as usize;
    assert!(n > 8, "median join count {n}");
    let caps = [default_cap, n + 1, n, n - 1, n - 2, n - 3, n / 2, join_counts[0] as usize];

    let mut words = Vec::new();
    let mut trip_sites = std::collections::BTreeSet::new();
    let mut truncated = 0;
    for &cap in &caps {
        ex.max_intermediate = cap;
        for (p, full) in plans.iter().zip(&uncapped) {
            let r = ex.execute(p);
            if r.timed_out {
                // The join that tripped the cap is the last profile.
                let i = r.nodes.len() - 1;
                trip_sites.insert(i);
                truncated += usize::from(r.nodes[i].rows < full.nodes[i].rows);
            }
            result_words(&r, &mut words);
        }
    }
    assert!(trip_sites.len() >= 3, "plans time out at too few nodes: {trip_sites:?}");
    assert!(truncated > 0, "no timed-out plan stopped short of a join's true count");
    assert_eq!(
        fnv::words(&words),
        0xa3e8_25a9_3d9e_861f,
        "{} plans, n = {n}, caps {caps:?}",
        plans.len()
    );
}

/// The JOB sample perfbench fits its reference model on: imdb at scale 0.05
/// and seed 12, 18 queries over 6 templates, 300 QEPs spread uniformly over
/// each query's sampled plans.
#[test]
fn reference_fixture_labelling_matches_the_golden_fingerprint() {
    let db = imdb::generate(0.05, 12);
    let cfg =
        JobConfig { n_templates: 6, n_queries: 18, target_qeps: 300, keep_fraction: 1.0, seed: 12 };
    let w = job::generate(&db, &cfg);
    // 276 sampled plans, two of which time out and are dropped.
    assert_eq!(w.num_qeps(), 274);
    let sizes: Vec<usize> = w.qeps.iter().map(|q| q.query.relations.len()).collect();
    assert_eq!((sizes.iter().min(), sizes.iter().max()), (Some(&3), Some(&17)));

    let mut words = Vec::new();
    for qep in &w.qeps {
        words.push(fnv::bytes(qep.query.id.as_bytes()));
        words.push(fnv::bytes(format!("{:?}", qep.plan).as_bytes()));
        result_words(&qep.truth, &mut words);
    }
    assert_eq!(fnv::words(&words), 0xb459_9b1e_acaa_b97b);
}

/// title ⋈ movie_info, title ⋈ cast_info ⋈ name, title ⋈ movie_keyword ⋈
/// keyword ⋈ movie_keyword#2: three chains out of `title`, one ending in a
/// self-join alias of `movie_keyword`.
fn chains_with_self_join() -> Query {
    let mut q = Query::new("labelling-bushy");
    for t in ["title", "movie_info", "cast_info", "name", "movie_keyword", "keyword"] {
        q.relations.push(RelRef::new(t));
    }
    q.relations.push(RelRef::aliased("movie_keyword", "movie_keyword#2"));
    let pred = |l: &str, lc: &str, r: &str, rc: &str| JoinPred {
        left: ColRef::new(l, lc),
        right: ColRef::new(r, rc),
    };
    q.joins = vec![
        pred("movie_info", "movie_id", "title", "id"),
        pred("cast_info", "movie_id", "title", "id"),
        pred("cast_info", "person_id", "name", "id"),
        pred("movie_keyword", "movie_id", "title", "id"),
        pred("movie_keyword", "keyword_id", "keyword", "id"),
        pred("movie_keyword#2", "keyword_id", "keyword", "id"),
    ];
    q.filters.push(Filter {
        col: ColRef::new("title", "production_year"),
        op: CmpOp::Gt,
        value: 1990.0,
    });
    q
}

/// A random plan of a connected query: start from one scan per relation
/// and join two subplans a predicate links until one is left, so either
/// side of a join may itself be a join.
fn random_bushy(q: &Query, rng: &mut StdRng) -> PlanNode {
    let mut parts: Vec<PlanNode> = q
        .relations
        .iter()
        .map(|r| PlanNode::scan(q, &r.alias, ScanOp::ALL[rng.gen_range(0..3)]))
        .collect();
    while parts.len() > 1 {
        let part_of = |alias: &str| parts.iter().position(|p| p.aliases().contains(alias));
        let linked: Vec<(usize, usize)> = q
            .joins
            .iter()
            .filter_map(|j| Some((part_of(&j.left.alias)?, part_of(&j.right.alias)?)))
            .filter(|(a, b)| a != b)
            .collect();
        let (a, b) = linked[rng.gen_range(0..linked.len())];
        let (hi, lo) = (parts.remove(a.max(b)), parts.remove(a.min(b)));
        let (l, r) = if rng.gen_bool(0.5) { (hi, lo) } else { (lo, hi) };
        parts.push(PlanNode::join(q, JoinOp::ALL[rng.gen_range(0..3)], l, r));
    }
    parts.pop().expect("one plan")
}

/// Bushy plans (a join on either side, an alias read two or more joins
/// above its scan) and left-deep ones over a `<table>#n` self-join, at the
/// default cap and at caps around the true join counts.
#[test]
fn bushy_and_self_join_labelling_matches_the_golden_fingerprint() {
    let db = imdb::generate(0.05, 7);
    let q = chains_with_self_join();
    let cfg = SamplingConfig {
        max_orderings: 12,
        operators_per_ordering: 1,
        keep_fraction: 1.0,
        seed: 5,
    };
    let mut plans: Vec<PlanNode> =
        sample_plans(&db, &q, &cfg).into_iter().map(|s| s.plan).collect();
    let mut rng = StdRng::seed_from_u64(5);
    plans.extend((0..48).map(|_| random_bushy(&q, &mut rng)));
    let bushy = plans
        .iter()
        .filter(|p| matches!(p, PlanNode::Join { right, .. } if matches!(**right, PlanNode::Join { .. })))
        .count();
    assert!(bushy >= 20, "{bushy} of {} plans have a join as the root's right child", plans.len());

    let mut ex = Executor::new(&db);
    let default_cap = ex.max_intermediate;
    let uncapped: Vec<ExecutionResult> = plans.iter().map(|p| ex.execute(p)).collect();
    assert!(uncapped.iter().all(|r| !r.timed_out));
    let mut join_counts: Vec<u64> = uncapped
        .iter()
        .flat_map(|r| r.nodes.iter())
        .filter(|n| matches!(n.op, PhysicalOp::Join(_)))
        .map(|n| n.rows)
        .collect();
    join_counts.sort_unstable();
    join_counts.dedup();
    let n = join_counts[join_counts.len() / 2] as usize;
    let caps = [default_cap, n + 1, n, n - 1, n / 3, join_counts[0] as usize];
    let mut words = Vec::new();
    for &cap in &caps {
        ex.max_intermediate = cap;
        for p in &plans {
            result_words(&ex.execute(p), &mut words);
        }
    }
    assert_eq!(fnv::words(&words), 0x53bb_7ea4_895a_4dbb, "{} plans, caps {caps:?}", plans.len());
}
