//! Per-thread planner state.
//!
//! The model/session split: [`crate::model::QPSeeker`] (alias
//! [`crate::model::PlannerModel`]) is immutable after training and shared
//! across threads behind an `Arc`; everything mutable that planning needs —
//! featurization caches, the search tree/beam and their evaluation caches —
//! lives in a [`PlannerSession`] owned by exactly one thread. A serving
//! worker creates one session at startup and reuses it for every request it
//! handles, so the hot path takes no locks and caches stay warm per worker.
//! The model holds no session of its own: the one-shot conveniences
//! (`predict`, `MctsPlanner::plan`, …) build a fresh one per call.

use crate::encoder::NodeMemo;
use crate::evalbroker::BrokerMember;
use crate::featurize::FeatSession;
use crate::model::QPSeeker;
use crate::search::beam::BeamScratch;
use crate::search::mcts::MctsScratch;

/// Search scratch for whichever strategy the session last ran. One request
/// uses one strategy, so the variants never coexist; switching strategies
/// mid-session simply rebuilds the other variant's (empty) scratch. Epoch
/// hot-swap resets ([`PlannerSession::reset`]) drop the whole enum, so the
/// invariant that no cached evaluation survives a model swap holds for
/// every strategy, not just MCTS.
// One scratch exists per worker thread (never in a collection), so the
// variant size gap costs a few hundred stack bytes once — not worth the
// pointer chase a `Box<MctsScratch>` would put on the search hot path.
#[allow(clippy::large_enum_variant)]
pub(crate) enum SearchScratch {
    /// Left-deep MCTS: tree arena, evaluation cache, rollout buffers.
    Mcts(MctsScratch),
    /// Bushy beam search: subtree evaluation cache, closed set, buffers.
    Beam(BeamScratch),
}

impl Default for SearchScratch {
    fn default() -> Self {
        Self::Mcts(MctsScratch::default())
    }
}

impl SearchScratch {
    /// The MCTS scratch, switching the variant over if the session last
    /// ran beam search (the stale variant's caches are dropped — they are
    /// keyed per strategy and must not leak across).
    pub(crate) fn mcts(&mut self) -> &mut MctsScratch {
        if !matches!(self, Self::Mcts(_)) {
            *self = Self::Mcts(MctsScratch::default());
        }
        match self {
            Self::Mcts(m) => m,
            Self::Beam(_) => unreachable!("variant switched above"),
        }
    }

    /// The beam scratch, switching the variant over if the session last
    /// ran MCTS.
    pub(crate) fn beam(&mut self) -> &mut BeamScratch {
        if !matches!(self, Self::Beam(_)) {
            *self = Self::Beam(BeamScratch::default());
        }
        match self {
            Self::Beam(b) => b,
            Self::Mcts(_) => unreachable!("variant switched above"),
        }
    }
}

/// Mutable per-thread planning state over one shared model: featurization
/// caches (TaBERT encodings, filtered-column representations) plus the
/// search scratch of whichever strategy is running (MCTS tree arena or
/// beam fringe, with their evaluation caches and reusable buffers).
///
/// Cheap to create — all caches start empty and fill on use. `Send` but not
/// shared: pass it `&mut` into the `*_in` / `*_with_session` entry points.
#[derive(Default)]
pub struct PlannerSession {
    /// Featurization caches (see [`FeatSession`]).
    pub feat: FeatSession,
    /// Strategy search scratch (tree/beam arena, evaluation cache,
    /// reusable buffers).
    pub(crate) search: SearchScratch,
    /// Seat on a shared [`crate::evalbroker::EvalBroker`], when this
    /// session's supervisor routes candidate scoring through one. Attached
    /// by the serving layer before the worker's first request; planning
    /// submits through it whenever it is present.
    pub(crate) broker: Option<BrokerMember>,
    /// Storage of the node memo, lent to each search's
    /// [`crate::model::QueryContext`] (which empties it) and handed back,
    /// like the MCTS pools.
    pub(crate) memo: NodeMemo,
}

impl PlannerSession {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes held by the node memo of the last search run on this session:
    /// within [`crate::encoder::MEMO_BUDGET_BYTES`] unless the query's
    /// leaves alone exceed it (leaves are always kept).
    pub fn memo_bytes(&self) -> usize {
        self.memo.bytes()
    }

    /// Drop every cached value. Serving workers call this when the
    /// publication epoch changes under them: featurizations and search
    /// evaluation-cache entries (MCTS or beam alike) computed against the
    /// old model's weights must never score plans for the new one.
    ///
    /// The broker seat survives the reset: membership is per *run*, not
    /// per model epoch, and dropping it here would unregister the worker
    /// from the pool mid-stream (submissions carry model identity, so
    /// cross-epoch rows never fuse anyway).
    pub(crate) fn reset(&mut self) {
        let broker = self.broker.take();
        *self = Self::default();
        self.broker = broker;
    }
}

impl QPSeeker {
    /// A fresh per-thread session over this model. Equivalent to
    /// [`PlannerSession::new`]; provided on the model so worker setup reads
    /// naturally (`let mut sess = model.new_session()`).
    pub fn new_session(&self) -> PlannerSession {
        PlannerSession::new()
    }
}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<PlannerSession>()
};
