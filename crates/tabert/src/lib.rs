//! `qpseeker-tabert` — **TabSim**, a deterministic pretrained-like tabular
//! encoder standing in for TaBERT.
//!
//! The paper uses TaBERT (Yin et al.) as a *frozen* feature extractor: for a
//! query and a table it selects the top-K rows by n-gram overlap with the
//! query, linearizes each column as `(name, datatype, value)` triplets,
//! runs BERT + vertical attention, and exposes per-column vectors plus a
//! `[CLS]` table vector. QPSeeker never fine-tunes it — it only needs a
//! fixed, information-rich map from (query, table data) to vectors.
//!
//! TabSim reproduces that contract without a 110M-parameter language model
//! (see DESIGN.md §5): it hashes the same triplet tokens into a feature
//! space, augments them with *distributional* column statistics (histogram
//! sketch, distinct ratio, moments — the information TaBERT's Masked Column
//! Prediction / Cell Value Recovery pretraining is designed to capture), and
//! projects through a frozen seeded random matrix (the "pretrained
//! weights"). Top-K row selection by character-trigram overlap and
//! overlap-weighted vertical pooling are implemented as in the paper.
//!
//! The `K ∈ {1,2,3}` and Base/Large variants exist with a calibrated
//! latency model so the Fig. 8 (right) experiment — accuracy flat, latency
//! strongly K/size dependent — is reproducible.

pub mod encoder;
pub mod index;
pub mod latency;
pub mod ngram;

pub use encoder::{ColumnEncoding, TabSim, TabertCache, TableEncoding};
pub use index::{TabertQuery, TableIndex};
pub use latency::LatencyModel;

/// BERT instance size. Base and Large differ in embedding width and in the
/// simulated inference cost (Large ≈ 3× the parameters, as the paper notes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ModelSize {
    Base,
    Large,
}

/// TabSim configuration.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TabertConfig {
    /// Number of content snapshot rows (the paper evaluates K = 1 and 3).
    pub k: usize,
    pub size: ModelSize,
    /// Seed of the frozen projection ("pretrained checkpoint id").
    pub seed: u64,
}

impl TabertConfig {
    /// The paper's default: K = 1, Base.
    pub fn paper_default() -> Self {
        Self { k: 1, size: ModelSize::Base, seed: 0x007a_b357 }
    }

    /// Output embedding width (scaled down from BERT's 768/1024).
    pub fn dim(&self) -> usize {
        match self.size {
            ModelSize::Base => 64,
            ModelSize::Large => 96,
        }
    }
}

impl Default for TabertConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}
