//! Pluggable search strategies over one shared planner core.
//!
//! Before this module existed the planner *was* the left-deep MCTS in
//! [`mcts`]. The strategy layer factors what every search needs — the
//! query's join-connectivity bitmasks (`QueryIndex`), a scoring function
//! over candidate plans (`strategy::Evaluator`), and per-session scratch
//! state — out of the MCTS loop, so a planning request can choose between:
//!
//! * [`mcts::MctsPlanner`] — the original left-deep Monte Carlo Tree
//!   Search (§5.2), byte-for-byte unchanged on its default path;
//! * [`beam::BeamPlanner`] — deterministic beam search over the **bushy**
//!   plan space ([`bushy`]), where a state is a forest of realized
//!   subtrees and one step joins two connected subtrees;
//!
//! and either strategy can score candidates **risk-aware**: a seeded batch
//! of VAE latent samples yields a per-plan cost mean and spread, ranked by
//! `mean + λ·σ` instead of the mean alone (see
//! [`strategy::StrategyConfig`]).
//!
//! The selection is carried by [`strategy::StrategyConfig`] (per request,
//! per tenant) and dispatched by [`strategy::StrategyPlanner`].

pub mod beam;
pub mod bushy;
pub mod mcts;
pub mod strategy;

use qpseeker_engine::plan::{JoinOp, ScanOp};
use qpseeker_engine::query::Query;

/// Precomputed join connectivity of one query: `adj[i]` is the bitmask of
/// relations sharing a join predicate with relation `i`. Supports up to 64
/// relations (the IMDb/JOB regime is ≤ 17). Shared by every strategy: MCTS
/// walks it relation-by-relation, beam search subtree-by-subtree.
pub(crate) struct QueryIndex {
    pub(crate) n: usize,
    pub(crate) adj: Vec<u64>,
}

impl QueryIndex {
    pub(crate) fn new(query: &Query) -> Self {
        let n = query.relations.len();
        assert!(n <= 64, "bitmask connectivity supports at most 64 relations");
        let idx_of = |alias: &str| query.relations.iter().position(|r| r.alias == alias);
        let mut adj = vec![0u64; n];
        for j in &query.joins {
            if let (Some(l), Some(r)) = (idx_of(&j.left.alias), idx_of(&j.right.alias)) {
                if l != r {
                    adj[l] |= 1 << r;
                    adj[r] |= 1 << l;
                }
            }
        }
        Self { n, adj }
    }

    /// Union of the adjacency masks over every relation in `mask`: all
    /// relations sharing a join predicate with the set (possibly including
    /// members of the set itself).
    pub(crate) fn reach(&self, mask: u64) -> u64 {
        let mut reach = 0u64;
        let mut rest = mask;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            reach |= self.adj[i];
        }
        reach
    }

    /// Relations reachable from the joined set but not yet in it.
    pub(crate) fn frontier(&self, joined: u64) -> u64 {
        self.reach(joined) & !joined
    }
}

pub(crate) fn op_idx_scan(s: ScanOp) -> u8 {
    match s {
        ScanOp::SeqScan => 0,
        ScanOp::IndexScan => 1,
        ScanOp::BitmapIndexScan => 2,
    }
}

pub(crate) fn op_idx_join(j: JoinOp) -> u8 {
    match j {
        JoinOp::HashJoin => 0,
        JoinOp::MergeJoin => 1,
        JoinOp::NestedLoopJoin => 2,
    }
}
