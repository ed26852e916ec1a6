//! `qpseeker-bench` — the experiment harness.
//!
//! One binary per table/figure of the paper (see `DESIGN.md` §4 for the
//! index), plus `all_experiments`, which runs everything and writes the
//! machine-readable rows that `EXPERIMENTS.md` reports. Timing lives in
//! the stand-alone `perfbench/` package, not here.
//!
//! All experiments are seeded and run at a reduced scale (`Scale`), keeping
//! the paper's ratios; the *shapes* of the results (who wins, by what
//! factor) are the reproduction target, not the absolute numbers.

use qpseeker_core::prelude::*;
use qpseeker_engine::explain::Explain;
use qpseeker_storage::Database;
use qpseeker_workloads::{
    job, stack as stack_wl, synthetic, JobConfig, Qep, StackConfig, SyntheticConfig, Workload,
};
use serde::Serialize;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Experiment scale knobs.
#[derive(Debug, Clone)]
pub struct Scale {
    pub db_scale: f64,
    pub synthetic_queries: usize,
    pub job_qeps: usize,
    pub stack_queries: usize,
    pub epochs: usize,
    pub seed: u64,
}

impl Scale {
    /// Fast smoke scale (CI / --quick).
    pub fn quick() -> Self {
        Self {
            db_scale: 0.08,
            synthetic_queries: 120,
            job_qeps: 300,
            stack_queries: 80,
            epochs: 4,
            seed: 0xe5d,
        }
    }

    /// Default bench scale (minutes per experiment).
    pub fn standard() -> Self {
        Self {
            db_scale: 0.25,
            synthetic_queries: 600,
            job_qeps: 1_500,
            stack_queries: 300,
            epochs: 10,
            seed: 0xe5d,
        }
    }

    /// Parse from CLI args: `--quick` or `--standard` (default standard),
    /// with `QPS_*` environment overrides for individual knobs.
    pub fn from_args() -> Self {
        let mut s =
            if std::env::args().any(|a| a == "--quick") { Self::quick() } else { Self::standard() };
        let get = |k: &str| std::env::var(k).ok();
        if let Some(v) = get("QPS_DB_SCALE").and_then(|v| v.parse().ok()) {
            s.db_scale = v;
        }
        if let Some(v) = get("QPS_SYNTH_QUERIES").and_then(|v| v.parse().ok()) {
            s.synthetic_queries = v;
        }
        if let Some(v) = get("QPS_JOB_QEPS").and_then(|v| v.parse().ok()) {
            s.job_qeps = v;
        }
        if let Some(v) = get("QPS_STACK_QUERIES").and_then(|v| v.parse().ok()) {
            s.stack_queries = v;
        }
        if let Some(v) = get("QPS_EPOCHS").and_then(|v| v.parse().ok()) {
            s.epochs = v;
        }
        if let Some(v) = get("QPS_SEED").and_then(|v| v.parse().ok()) {
            s.seed = v;
        }
        s
    }

    pub fn model_config(&self) -> ModelConfig {
        let mut cfg = ModelConfig::bench();
        cfg.epochs = self.epochs;
        cfg
    }
}

/// Lazily built experiment context: databases + workloads.
pub struct Context {
    pub scale: Scale,
    pub imdb: Arc<Database>,
    pub stack_db: Arc<Database>,
}

impl Context {
    pub fn new(scale: Scale) -> Self {
        eprintln!("[ctx] generating databases (scale {})...", scale.db_scale);
        let imdb = Arc::new(qpseeker_storage::datagen::imdb::generate(scale.db_scale, scale.seed));
        let stack_db =
            Arc::new(qpseeker_storage::datagen::stack::generate(scale.db_scale, scale.seed ^ 1));
        Self { scale, imdb, stack_db }
    }

    pub fn synthetic(&self) -> Workload {
        eprintln!("[ctx] generating Synthetic workload...");
        synthetic::generate(
            &self.imdb,
            &SyntheticConfig { n_queries: self.scale.synthetic_queries, seed: self.scale.seed },
        )
    }

    pub fn job(&self) -> Workload {
        eprintln!("[ctx] generating JOB workload (sampled QEPs)...");
        job::generate(
            &self.imdb,
            &JobConfig { target_qeps: self.scale.job_qeps, ..Default::default() },
        )
    }

    pub fn stack(&self) -> Workload {
        eprintln!("[ctx] generating Stack workload...");
        stack_wl::generate(
            &self.stack_db,
            &StackConfig { n_queries: self.scale.stack_queries, seed: self.scale.seed },
        )
    }

    /// Database for a workload by name.
    pub fn db_of(&self, workload: &Workload) -> &Arc<Database> {
        if workload.database == "stack" {
            &self.stack_db
        } else {
            &self.imdb
        }
    }
}

/// Q-error summaries of a trained QPSeeker model on an eval set.
pub struct ModelQErrors {
    pub cardinality: QErrorSummary,
    pub cost: QErrorSummary,
    pub runtime: QErrorSummary,
}

/// The model's prediction for every QEP of an eval set, through one
/// featurization session (each table is encoded once per set, not per QEP).
pub fn predict_all<'a>(
    model: &QPSeeker,
    eval: impl IntoIterator<Item = &'a Qep>,
) -> Vec<(&'a Qep, Prediction)> {
    let mut feat = FeatSession::new();
    eval.into_iter()
        .map(|qep| {
            let mut ctx = model.query_context(&qep.query);
            (qep, model.predict_with_context_in(&mut feat, &qep.query, &qep.plan, &mut ctx))
        })
        .collect()
}

/// Runtime q-error summary (predicted vs measured) over an eval set.
pub fn runtime_qerrors<'a>(
    model: &QPSeeker,
    eval: impl IntoIterator<Item = &'a Qep>,
) -> QErrorSummary {
    let pairs: Vec<(f64, f64)> =
        predict_all(model, eval).iter().map(|(q, p)| (p.runtime_ms, q.runtime_ms())).collect();
    QErrorSummary::from_pairs(&pairs)
}

/// Evaluate a trained model against ground truth.
pub fn eval_qpseeker(model: &QPSeeker, eval: &[&Qep]) -> ModelQErrors {
    let mut card = Vec::new();
    let mut cost = Vec::new();
    let mut time = Vec::new();
    for (qep, p) in predict_all(model, eval.iter().copied()) {
        card.push((p.cardinality, qep.cardinality()));
        cost.push((p.cost, qep.cost()));
        time.push((p.runtime_ms, qep.runtime_ms()));
    }
    ModelQErrors {
        cardinality: QErrorSummary::from_pairs(&card),
        cost: QErrorSummary::from_pairs(&cost),
        runtime: QErrorSummary::from_pairs(&time),
    }
}

/// PostgreSQL-baseline Q-errors: EXPLAIN estimates vs ground truth.
pub fn eval_postgres(db: &Database, eval: &[&Qep]) -> ModelQErrors {
    let explain = Explain::new(db);
    let mut card = Vec::new();
    let mut cost = Vec::new();
    let mut time = Vec::new();
    for qep in eval {
        let e = explain.plan_estimate(&qep.query, &qep.plan);
        card.push((e.rows, qep.cardinality()));
        cost.push((e.cost, qep.cost()));
        time.push((e.time_ms, qep.runtime_ms()));
    }
    ModelQErrors {
        cardinality: QErrorSummary::from_pairs(&card),
        cost: QErrorSummary::from_pairs(&cost),
        runtime: QErrorSummary::from_pairs(&time),
    }
}

/// Train a QPSeeker instance on a workload split and return it with the
/// eval set. JOB (sampled) splits at query level (paper §6.3).
pub fn train_model<'a>(
    db: &Arc<Database>,
    workload: &'a Workload,
    cfg: ModelConfig,
) -> Result<(QPSeeker, Vec<&'a Qep>), CoreError> {
    let at_query_level = workload.plan_source == qpseeker_workloads::PlanSource::Sampling;
    let (train, eval) = workload.split(0.8, at_query_level);
    eprintln!(
        "[train] {}: {} train / {} eval QEPs, beta={}",
        workload.name,
        train.len(),
        eval.len(),
        cfg.beta
    );
    let mut model = QPSeeker::new(db, cfg);
    let report = model.fit(&train)?;
    eprintln!(
        "[train] {}: loss {:.3} -> {:.3} in {:.1}s",
        workload.name,
        report.epoch_losses.first().unwrap_or(&f64::NAN),
        report.epoch_losses.last().unwrap_or(&f64::NAN),
        report.train_seconds
    );
    Ok((model, eval))
}

/// Results directory (`target/experiment-results` by default). Not created
/// until [`emit`] first writes into it.
pub fn results_dir() -> PathBuf {
    std::env::var("QPS_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/experiment-results"))
}

fn io_err(op: &'static str, path: &std::path::Path, e: std::io::Error) -> CoreError {
    CoreError::Io { op, path: path.display().to_string(), message: e.to_string() }
}

/// Write one experiment's rows as pretty JSON (atomic temp-file + rename, so
/// a crash mid-run never leaves a truncated results file), and echo a
/// markdown table.
pub fn emit<T: Serialize>(name: &str, rows: &T, markdown: &str) -> Result<(), CoreError> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| io_err("create_dir", &dir, e))?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(rows)?;
    write_atomic(&path, &json, None)?;
    println!("\n## {name}\n");
    println!("{markdown}");
    let log_path = dir.join("experiments.md");
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log_path)
        .map_err(|e| io_err("open", &log_path, e))?;
    writeln!(log, "\n## {name}\n\n{markdown}").map_err(|e| io_err("append", &log_path, e))?;
    eprintln!("[emit] wrote {}", path.display());
    Ok(())
}

/// Format a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut s = String::new();
    s.push_str(&format!("| {} |\n", headers.join(" | ")));
    s.push_str(&format!("|{}\n", "---|".repeat(headers.len())));
    for r in rows {
        s.push_str(&format!("| {} |\n", r.join(" | ")));
    }
    s
}

/// Format a float compactly for tables.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        "inf".into()
    } else if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.123), "0.12");
        assert_eq!(fmt(12.34), "12.3");
        assert_eq!(fmt(1234.5), "1234");
        assert_eq!(fmt(f64::INFINITY), "inf");
    }

    #[test]
    fn quick_scale_is_smaller_than_standard() {
        let q = Scale::quick();
        let s = Scale::standard();
        assert!(q.synthetic_queries < s.synthetic_queries);
        assert!(q.epochs < s.epochs);
    }
}

pub mod experiments;
