//! `perfbench compare <a> <b>`: is set of runs `b` worse than set `a`?
//!
//! Each side is a result file or a directory of result files (one per
//! workload and seed). Every end-to-end metric is judged per workload
//! against its bound — the one `BENCHMARK.json` records; a test holds the
//! two tables equal — and values that must repeat exactly are compared per
//! (workload, seed).

use crate::report::{Better, Report, END_TO_END};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs of one side disagree among themselves by more than the
    /// bound, so no change within the bound can be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Every result file at `path` (a file, or a directory's `*.json` files
/// that carry a `schema_version`; span traces are skipped).
pub fn load_set(path: &Path) -> Result<Vec<Report>, String> {
    let files: Vec<_> = if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        files
    } else {
        vec![path.to_path_buf()]
    };
    let mut reports = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        if !text.contains("\"schema_version\"") {
            continue;
        }
        reports.push(Report::from_json(&text).map_err(|e| format!("{}: {e}", file.display()))?);
    }
    if reports.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    Ok(reports)
}

/// One side of a comparison: the reported value of every run, and what
/// every single pass of those runs read on its own.
pub struct Side {
    pub values: Vec<f64>,
    pub per_pass: Vec<f64>,
}

/// Judge `a → b` on the medians of the reported values. The spread of the
/// single-pass figures decides whether the sides can be told apart at all.
pub fn verdict(a: &Side, b: &Side, better: Better, bound: f64) -> (Verdict, f64, f64) {
    let (ma, mb) = (stats::median(&a.values), stats::median(&b.values));
    let worse = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = stats::spread(&a.per_pass).max(stats::spread(&b.per_pass));
    let v = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > spread && worse != 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (v, worse, spread)
}

/// `metric` on `workload` across a set's untraced runs.
fn side(set: &[Report], workload: &str, metric: &str) -> Side {
    let metrics: Vec<_> = set
        .iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.metric(metric))
        .collect();
    Side {
        values: metrics.iter().map(|m| m.value).collect(),
        per_pass: metrics.iter().flat_map(|m| m.per_pass.clone()).collect(),
    }
}

/// The run of `set` with the same workload, seed and mode as `run`.
fn twin<'a>(set: &'a [Report], run: &Report) -> Option<&'a Report> {
    set.iter().find(|r| r.workload == run.workload && r.seed == run.seed && r.trace == run.trace)
}

/// Compare the two sets; returns the printed table and whether anything
/// regressed or an exact value changed.
pub fn compare(a: &[Report], b: &[Report]) -> (String, bool) {
    let mut out = String::new();
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    let mut failed = false;

    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort();
    workloads.dedup();
    out.push_str(&format!(
        "{:<18} {:<22} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict\n",
        "workload", "metric", "a", "b", "worse%", "spread%", "bound%"
    ));
    for w in &workloads {
        for spec in END_TO_END {
            let (metric, better) = (spec.name, spec.better);
            let bound = spec.bound.expect("every end-to-end metric has a bound");
            let (sa, sb) = (side(a, w, metric), side(b, w, metric));
            if sa.values.is_empty() || sb.values.is_empty() {
                continue;
            }
            let (v, worse, spread) = verdict(&sa, &sb, better, bound);
            *counts.entry(v.as_str()).or_default() += 1;
            failed |= v == Verdict::Regressed;
            out.push_str(&format!(
                "{w:<18} {metric:<22} {:>12.4} {:>12.4} {:>8.2} {:>7.2} {:>6.1}  {}\n",
                stats::median(&sa.values),
                stats::median(&sb.values),
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                v.as_str()
            ));
        }
    }

    // Exact values: same workload, seed and mode on both sides.
    let mut exact_checked = 0usize;
    for ra in a {
        let Some(rb) = twin(b, ra) else { continue };
        for (key, va) in &ra.exact {
            let Some(vb) = rb.exact(key) else { continue };
            exact_checked += 1;
            if va != vb {
                failed = true;
                *counts.entry("exact-changed").or_default() += 1;
                out.push_str(&format!("exact {key} seed {}: {va} -> {vb}  changed\n", ra.seed));
            }
        }
    }
    out.push_str(&format!("exact values compared: {exact_checked}\n"));
    for (k, n) in &counts {
        out.push_str(&format!("{k}: {n}\n"));
    }
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        Side { values: values.to_vec(), per_pass: values.to_vec() }
    }

    #[test]
    fn verdicts() {
        let lower = |a: &[f64], b: &[f64]| verdict(&side(a), &side(b), Better::Lower, 0.10).0;
        assert_eq!(lower(&[10.0, 10.1, 9.9], &[10.0, 10.05, 9.95]), Verdict::Unchanged);
        assert_eq!(lower(&[10.0, 10.1, 9.9], &[12.0, 12.1, 11.9]), Verdict::Regressed);
        assert_eq!(lower(&[10.0, 10.1, 9.9], &[8.0, 8.1, 7.9]), Verdict::Improved);
        // Within the bound but worse: unchanged, not regressed.
        assert_eq!(lower(&[10.0, 10.1, 9.9], &[10.8, 10.9, 10.7]), Verdict::Unchanged);
        // One side's own passes spread wider than the bound.
        assert_eq!(lower(&[10.0, 14.0, 7.0], &[10.0, 10.1, 9.9]), Verdict::Unresolved);
        // Higher is better: a drop is a regression, a rise an improvement.
        let higher = |a: &[f64], b: &[f64]| verdict(&side(a), &side(b), Better::Higher, 0.10).0;
        assert_eq!(higher(&[100.0], &[80.0]), Verdict::Regressed);
        assert_eq!(higher(&[100.0], &[120.0]), Verdict::Improved);
        assert_eq!(higher(&[100.0], &[100.0]), Verdict::Unchanged);
        // The medians are those of the reported values; the single-pass
        // figures only say how noisy the runs were.
        let a = Side { values: vec![10.0], per_pass: vec![11.0, 11.2, 11.1] };
        let b = Side { values: vec![12.0], per_pass: vec![13.0, 13.1, 13.2] };
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10).0, Verdict::Regressed);
    }
}
