//! Labelling golden: every sampled plan of one 5-relation IMDb query,
//! executed at the default row cap and at caps placed around the true
//! cardinalities of its joins, with every `ExecutionResult` field hashed.
//!
//! The constant was computed with the executor that materialized every join
//! in full before checking the cap. It pins that labelling (rows, cost and
//! time bits, per-node profiles, `timed_out`, `peak_mem_tuples`) is exactly
//! what that executor produced, including a timed-out plan's truncated
//! count, cost and penalty.

use qpseeker_engine::executor::{ExecutionResult, Executor};
use qpseeker_engine::plan::PhysicalOp;
use qpseeker_engine::query::{CmpOp, ColRef, Filter, JoinPred, Query, RelRef};
use qpseeker_storage::datagen::imdb;
use qpseeker_storage::fnv;
use qpseeker_workloads::{sample_plans, SamplingConfig};

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
