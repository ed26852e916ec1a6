//! The one fixture every workload runs against: an IMDb-shaped database,
//! a JOB training sample with plan-space variety, and a fitted model at
//! the repository's paper-proportioned preset, shared behind an `Arc`.
//!
//! The fixture does **not** depend on `--seed`. `job::generate` executes
//! every sampled plan, and templates whose self-joins explode run into the
//! executor's 3M-row statement timeout: across seeds 1–12 the sample the
//! issue sized (24 queries, 8 templates, 480 QEPs) takes 5.6–33 s to
//! generate, which neither fits a run that sets up three times nor gives
//! a set-up time that can be compared between runs. So the database, the
//! training sample and the model are fixed (`REFERENCE_SEED`, chosen as a
//! seed whose sample has no exploding template yet spans 3–17 relations),
//! and `--seed` drives what it should: the request lists.

use qpseeker_core::prelude::*;
use qpseeker_storage::Database;
use qpseeker_workloads::{job, JobConfig, Qep};
use std::sync::Arc;
use std::time::Instant;

/// Seed of the fixed database, training sample and model initialisation.
pub const REFERENCE_SEED: u64 = 12;

/// What to build. `reference()` is what the benchmark measures; `smoke()`
/// is the same pipeline at a size the in-crate tests can afford.
#[derive(Debug, Clone)]
pub struct FixtureSpec {
    pub db_scale: f64,
    pub job: JobConfig,
    pub model: ModelConfig,
}

impl FixtureSpec {
    pub fn reference() -> Self {
        let mut model = ModelConfig::bench();
        model.epochs = 3;
        model.train_threads = 2;
        Self {
            db_scale: 0.05,
            job: JobConfig {
                n_queries: 18,
                n_templates: 6,
                target_qeps: 300,
                keep_fraction: 1.0,
                seed: REFERENCE_SEED,
            },
            model,
        }
    }

    #[cfg(test)]
    pub fn smoke() -> Self {
        let mut model = ModelConfig::small();
        model.epochs = 1;
        Self {
            db_scale: 0.05,
            job: JobConfig {
                n_queries: 4,
                n_templates: 2,
                target_qeps: 24,
                keep_fraction: 1.0,
                seed: REFERENCE_SEED,
            },
            model,
        }
    }
}

/// Wall seconds of the three set-up stages, timed around the calls into
/// `storage`, `workloads` and `core::model`.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub dbgen_s: f64,
    pub jobgen_s: f64,
    pub fit_s: f64,
    /// QEPs the model was fitted on (sampled plans that timed out are
    /// dropped by the generator).
    pub train_qeps: usize,
    pub epochs: usize,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.dbgen_s + self.jobgen_s + self.fit_s
    }

    /// Training throughput: QEP visits per second of `fit`.
    pub fn fit_qeps_per_s(&self) -> f64 {
        (self.train_qeps * self.epochs) as f64 / self.fit_s
    }
}

pub struct Fixture {
    pub db: Arc<Database>,
    pub model: Arc<QPSeeker>,
    pub times: SetupTimes,
}

pub fn build(spec: &FixtureSpec) -> Fixture {
    let t = Instant::now();
    let db = Arc::new(qpseeker_storage::datagen::imdb::generate(spec.db_scale, spec.job.seed));
    let dbgen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let workload = job::generate(&db, &spec.job);
    let jobgen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let refs: Vec<&Qep> = workload.qeps.iter().collect();
    let mut model = QPSeeker::new(&db, spec.model.clone());
    model.fit(&refs).expect("training on the fixed sample succeeds");
    // Serving packs the weights on first use; do it here so the first timed
    // request does not pay for it.
    model.store.warm_packed();
    let fit_s = t.elapsed().as_secs_f64();

    Fixture {
        db,
        model: Arc::new(model),
        times: SetupTimes {
            dbgen_s,
            jobgen_s,
            fit_s,
            train_qeps: refs.len(),
            epochs: spec.model.epochs,
        },
    }
}
