//! Query-plan-space sampling (paper §5.1).
//!
//! From the query graph we enumerate join orderings (connected, left-deep),
//! assign a random physical operator to every node, rank the candidate plans
//! with the paper's user-defined cost model, and keep the cheapest 15% as
//! the query's plan set. Enumeration is capped (the space is factorial) with
//! seeded random completion beyond the cap.

use qpseeker_engine::inject::LeftDeepSpec;
use qpseeker_engine::paper_cost::PaperCostModel;
use qpseeker_engine::plan::{JoinOp, PlanNode, ScanOp};
use qpseeker_engine::query::Query;
use qpseeker_storage::{fnv, Database};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Sampling configuration.
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Cap on enumerated join orderings per query.
    pub max_orderings: usize,
    /// Operator assignments drawn per ordering.
    pub operators_per_ordering: usize,
    /// Fraction of cheapest plans kept (the paper uses 15%).
    pub keep_fraction: f64,
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self { max_orderings: 200, operators_per_ordering: 4, keep_fraction: 0.15, seed: 0 }
    }
}

/// Enumerate connected left-deep join orderings of `query`, up to `cap`.
/// Orderings are alias sequences; every prefix is connected in the join
/// graph (no cross products).
pub fn enumerate_orderings(query: &Query, cap: usize) -> Vec<Vec<Arc<str>>> {
    let mut out = Vec::new();
    let aliases: Vec<Arc<str>> = query.relations.iter().map(|r| r.alias.clone()).collect();
    if aliases.len() == 1 {
        return vec![aliases];
    }
    for start in &aliases {
        let mut joined = BTreeSet::new();
        joined.insert(start.clone());
        let mut prefix = vec![start.clone()];
        dfs(query, &mut joined, &mut prefix, &mut out, cap);
        if out.len() >= cap {
            break;
        }
    }
    out
}

fn dfs(
    query: &Query,
    joined: &mut BTreeSet<Arc<str>>,
    prefix: &mut Vec<Arc<str>>,
    out: &mut Vec<Vec<Arc<str>>>,
    cap: usize,
) {
    if out.len() >= cap {
        return;
    }
    if prefix.len() == query.relations.len() {
        out.push(prefix.clone());
        return;
    }
    for next in query.neighbors(joined) {
        joined.insert(next.clone());
        prefix.push(next.clone());
        dfs(query, joined, prefix, out, cap);
        prefix.pop();
        joined.remove(&next);
        if out.len() >= cap {
            return;
        }
    }
}

/// A sampled candidate plan with its user-defined-cost rank key.
#[derive(Debug, Clone)]
pub struct SampledPlan {
    pub plan: PlanNode,
    pub paper_cost: f64,
}

/// Sample the plan space of one query per §5.1 and keep the top
/// `keep_fraction` by the paper cost model.
pub fn sample_plans(db: &Database, query: &Query, cfg: &SamplingConfig) -> Vec<SampledPlan> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ fnv::bytes(query.id.as_bytes()));
    let orderings = enumerate_orderings(query, cfg.max_orderings);
    if orderings.is_empty() {
        return Vec::new();
    }
    let model = PaperCostModel::new(db);
    let mut candidates = Vec::new();
    for ordering in &orderings {
        for _ in 0..cfg.operators_per_ordering {
            let scans: Vec<(Arc<str>, ScanOp)> = ordering
                .iter()
                .map(|a| (a.clone(), ScanOp::ALL[rng.gen_range(0..ScanOp::ALL.len())]))
                .collect();
            let joins: Vec<JoinOp> = (1..ordering.len())
                .map(|_| JoinOp::ALL[rng.gen_range(0..JoinOp::ALL.len())])
                .collect();
            let spec = LeftDeepSpec { scans, joins };
            let Ok(plan) = spec.compile(query) else { continue };
            let paper_cost = model.plan_cost(query, &plan);
            candidates.push(SampledPlan { plan, paper_cost });
        }
    }
    // Dedup identical plans (same ordering can draw the same operators).
    candidates.sort_by(|a, b| a.paper_cost.partial_cmp(&b.paper_cost).expect("finite cost"));
    candidates.dedup_by(|a, b| a.plan == b.plan);
    let keep =
        ((candidates.len() as f64 * cfg.keep_fraction).ceil() as usize).clamp(1, candidates.len());
    candidates.truncate(keep);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_engine::query::{ColRef, JoinPred, RelRef};
    use qpseeker_storage::datagen::imdb;

    #[test]
    fn plan_sampling_seed_hash_is_pinned() {
        // Sampled plan spaces (and so every workload) are seeded by it.
        assert_eq!(fnv::bytes(b"x:3"), 0xbf176b197f6aaf7c);
    }

    fn star_query(n_arms: usize) -> Query {
        // title joined with n_arms fact tables (star): orderings = ways to
        // interleave arms after title appears... enumerable.
        let arms = ["movie_info", "movie_keyword", "cast_info", "movie_companies"];
        let mut q = Query::new("star");
        q.relations.push(RelRef::new("title"));
        for arm in arms.iter().take(n_arms) {
            q.relations.push(RelRef::new(*arm));
            q.joins.push(JoinPred {
                left: ColRef::new(*arm, "movie_id"),
                right: ColRef::new("title", "id"),
            });
        }
        q
    }

    #[test]
    fn ordering_count_for_two_relation_query() {
        let q = star_query(1);
        let o = enumerate_orderings(&q, 1000);
        // Two relations, connected: both orders are valid.
        assert_eq!(o.len(), 2);
    }

    #[test]
    fn ordering_count_for_star_query() {
        // Star with center c and arms a1..a3: valid left-deep orders are all
        // permutations where the center comes first or second (every prefix
        // must be connected). Count = 3! (center first) + 3·2! · ... :
        // center in position 1: 3! = 6; center second: 3 choices for first
        // arm, then 2! orders of the rest = 6. Total 12.
        let q = star_query(3);
        let o = enumerate_orderings(&q, 10_000);
        assert_eq!(o.len(), 12);
        // Every prefix of every ordering is connected.
        for ord in &o {
            let mut joined = BTreeSet::new();
            joined.insert(ord[0].clone());
            for a in &ord[1..] {
                assert!(!q.joins_between(&joined, a).is_empty(), "disconnected prefix in {ord:?}");
                joined.insert(a.clone());
            }
        }
    }

    #[test]
    fn enumeration_respects_cap() {
        let q = star_query(4);
        let o = enumerate_orderings(&q, 7);
        assert_eq!(o.len(), 7);
    }

    #[test]
    fn sampled_plans_are_valid_and_ranked() {
        let db = imdb::generate(0.05, 2);
        let q = star_query(3);
        let cfg = SamplingConfig::default();
        let plans = sample_plans(&db, &q, &cfg);
        assert!(!plans.is_empty());
        for p in &plans {
            assert!(p.plan.validate(&q).is_ok());
            assert!(p.plan.is_left_deep());
        }
        // Ranked ascending by paper cost.
        for w in plans.windows(2) {
            assert!(w[0].paper_cost <= w[1].paper_cost);
        }
    }

    #[test]
    fn keep_fraction_limits_output() {
        let db = imdb::generate(0.05, 2);
        let q = star_query(3);
        let all =
            sample_plans(&db, &q, &SamplingConfig { keep_fraction: 1.0, ..Default::default() });
        let kept =
            sample_plans(&db, &q, &SamplingConfig { keep_fraction: 0.15, ..Default::default() });
        assert!(kept.len() < all.len());
        assert!(kept.len() >= all.len() * 10 / 100, "15% floor: {} of {}", kept.len(), all.len());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let db = imdb::generate(0.05, 2);
        let q = star_query(2);
        let a = sample_plans(&db, &q, &SamplingConfig::default());
        let b = sample_plans(&db, &q, &SamplingConfig::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.plan, y.plan);
        }
        let c = sample_plans(&db, &q, &SamplingConfig { seed: 9, ..Default::default() });
        // Different seed gives (almost surely) different operator draws.
        let same = a.len() == c.len() && a.iter().zip(&c).all(|(x, y)| x.plan == y.plan);
        assert!(!same, "different seeds should sample differently");
    }

    #[test]
    fn plans_within_a_set_differ() {
        let db = imdb::generate(0.05, 2);
        let q = star_query(3);
        let plans = sample_plans(&db, &q, &SamplingConfig::default());
        for i in 1..plans.len() {
            assert_ne!(plans[0].plan, plans[i].plan, "sampled plans must be deduped");
        }
    }

    #[test]
    fn single_relation_query_yields_scan_plans() {
        let db = imdb::generate(0.05, 2);
        let mut q = Query::new("single");
        q.relations.push(RelRef::new("title"));
        let plans = sample_plans(&db, &q, &SamplingConfig::default());
        assert!(!plans.is_empty());
        assert!(plans.iter().all(|p| p.plan.num_joins() == 0));
    }
}
