//! One run of one workload: set up, warm up, measure for `--seconds`,
//! check the outputs, and report either the end-to-end metrics (untraced)
//! or the per-layer metrics (traced).

use crate::fixture::{self, FixtureSpec};
use crate::report::{Machine, Metric, Report, END_TO_END};
use crate::run::{self, Bench, Pass, PassSummary};
use crate::stats;
use crate::workloads::{Sizes, Workload};
use std::path::PathBuf;
use std::time::Instant;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory the result file and the span trace are written to.
    pub out: Option<PathBuf>,
    pub fixture: FixtureSpec,
    pub sizes: Sizes,
    /// Fixture builds per run; `setup_s` takes each stage at its fastest.
    pub setups: usize,
    /// Timed passes a run makes at least, however short `seconds` is, so
    /// that every unit has servings to take the fastest of.
    pub min_passes: usize,
}

impl Options {
    pub fn reference(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            out: None,
            fixture: FixtureSpec::reference(),
            sizes: workload.sizes(),
            setups: 3,
            min_passes: 3,
        }
    }
}

fn metric(name: &str, unit: &str, value: f64, n: usize, per_pass: Vec<f64>) -> Metric {
    Metric { name: name.into(), unit: unit.into(), value, n, per_pass }
}

/// Set up `opts.setups` times; the last fixture is the one measured (they
/// are identical — the fixture is deterministic).
fn set_up(opts: &Options) -> (Bench, Vec<fixture::SetupTimes>) {
    let mut times = Vec::with_capacity(opts.setups);
    let mut last = None;
    for _ in 0..opts.setups.max(1) {
        // Drop the previous fixture first: peak memory is one fixture's.
        drop(last.take());
        let f = fixture::build(&opts.fixture);
        times.push(f.times);
        last = Some(f);
    }
    let fixture = last.expect("at least one set-up");
    (Bench::new(opts.workload, opts.sizes, fixture, opts.seed), times)
}

/// Each set-up stage at its fastest over the repeated set-ups — the stages
/// are the timed units of a set-up (see [`crate::run`] for why fastest).
pub fn fastest_setup(setups: &[fixture::SetupTimes]) -> fixture::SetupTimes {
    let min =
        |f: fn(&fixture::SetupTimes) -> f64| setups.iter().map(f).fold(f64::INFINITY, f64::min);
    fixture::SetupTimes {
        dbgen_s: min(|t| t.dbgen_s),
        jobgen_s: min(|t| t.jobgen_s),
        fit_s: min(|t| t.fit_s),
        ..setups[0]
    }
}

/// Untimed warm-up, then fixed-size passes until `seconds` have been
/// measured (and at least `min_passes`).
fn timed_passes(bench: &Bench, opts: &Options) -> Vec<Pass> {
    let warmup = opts.sizes.warmup.min(bench.requests.len());
    run::run_pass(bench, &bench.requests[..warmup], None);
    let mut passes = Vec::new();
    let start = Instant::now();
    loop {
        passes.push(run::run_pass(bench, &bench.requests, None));
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        // Stop when another pass would overshoot by more than it falls short.
        if passes.len() >= opts.min_passes && elapsed + per_pass / 2.0 > opts.seconds {
            return passes;
        }
    }
}

/// The output check shared by both modes: appends what is wrong to
/// `problems` and returns (attempted, failed).
pub fn check(
    summaries: &[PassSummary],
    passes: &[Pass],
    problems: &mut Vec<String>,
) -> (usize, usize) {
    let first = &summaries[0];
    for (i, (s, p)) in summaries.iter().zip(passes).enumerate() {
        if !p.conservation {
            problems.push(format!("pass {i}: supervisor counters break conservation"));
        }
        if !p.probe_agrees {
            problems.push(format!("pass {i}: latency probe chose other plans than the stream"));
        }
        if s.invalid > 0 {
            problems.push(format!("pass {i}: {} served plans do not validate", s.invalid));
        }
        if s.fallbacks > 0 {
            problems.push(format!("pass {i}: {} requests fell back to classical", s.fallbacks));
        }
        if s.failed > 0 {
            problems.push(format!("pass {i}: {} requests shed or failed", s.failed));
        }
        if s.plans_fp != first.plans_fp {
            problems.push(format!(
                "pass {i}: plans fingerprint {:016x} differs from pass 0's {:016x}",
                s.plans_fp, first.plans_fp
            ));
        }
    }
    (summaries.iter().map(|s| s.requests).sum(), summaries.iter().map(|s| s.failed).sum())
}

pub fn run(opts: &Options) -> Report {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    assert!(
        opts.workload.threads() <= nproc,
        "{} runs {} planner threads but only {nproc} are available",
        opts.workload.name(),
        opts.workload.threads()
    );
    let (bench, setups) = set_up(opts);
    let mut report = Report {
        schema_version: crate::report::SCHEMA_VERSION,
        workload: opts.workload.name().into(),
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        machine: Machine::stamp(),
        metrics: Vec::new(),
        exact: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    if opts.trace {
        crate::layers::measure(&bench, opts, &setups, &mut report);
    } else {
        end_to_end(&bench, opts, &setups, &mut report);
    }
    for m in &report.metrics {
        if !m.value.is_finite() {
            report.problems.push(format!("metric {} is not finite", m.name));
        }
    }
    report
}

fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    stats::percentile_sorted(&v, p)
}

fn end_to_end(bench: &Bench, opts: &Options, setups: &[fixture::SetupTimes], report: &mut Report) {
    let passes = timed_passes(bench, opts);
    let summaries: Vec<PassSummary> =
        passes.iter().map(|p| run::summarise(p, &bench.requests)).collect();
    (report.attempted, report.failed) = check(&summaries, &passes, &mut report.problems);

    // Reported values come from each unit's fastest serving; `per_pass`
    // keeps what every single pass read, interference included.
    let unit_s = run::fastest(&passes, |p| &p.unit_s);
    let latencies = run::fastest(&passes, |p| &p.latencies_ms);
    let n = latencies.len();
    if stats::highest_supported_percentile(n).is_none_or(|p| p < 95) {
        report.problems.push(format!("{n} timed requests do not support a p95 (need 200)"));
    }
    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<_>>();

    let m = &mut report.metrics;
    m.push(metric(
        "setup_s",
        "s",
        fastest_setup(setups).total_s(),
        setups.len(),
        setups.iter().map(|t| t.total_s()).collect(),
    ));
    m.push(metric(
        "throughput_rps",
        "1/s",
        bench.requests.len() as f64 / unit_s.iter().sum::<f64>(),
        unit_s.len(),
        per_pass(&|p| p.rps()),
    ));
    for (name, p) in [("plan_ms_p50", 50.0), ("plan_ms_p95", 95.0)] {
        let of_pass = per_pass(&|pass| percentile(&pass.latencies_ms, p));
        m.push(metric(name, "ms", percentile(&latencies, p), n, of_pass));
    }
    let rss = run::peak_rss_mb();
    m.push(metric("peak_rss_mb", "MB", rss, 1, vec![rss]));
    debug_assert!(m.iter().map(|m| m.name.as_str()).eq(END_TO_END.iter().map(|s| s.name)));

    let quality = run::quality(bench, &passes[0]);
    exact_values(bench, &summaries[0], &quality, report);
}

/// Values that are a pure function of (commit, seed): two runs of the same
/// seed must print them identically.
pub fn exact_values(
    bench: &Bench,
    first: &PassSummary,
    quality: &run::Quality,
    report: &mut Report,
) {
    let w = bench.workload.name();
    let e = &mut report.exact;
    e.push((
        format!("requests_fp.{w}"),
        format!("{:016x}", crate::workloads::requests_fingerprint(&bench.requests)),
    ));
    e.push((format!("plans_fp.{w}"), format!("{:016x}", first.plans_fp)));
    // Two stream workers can miss the same query at the same time, so the
    // eval count of the cached stream depends on scheduling.
    if bench.workload != Workload::StreamCached {
        e.push((format!("evals_per_pass.{w}"), first.evals.to_string()));
    }
    e.push((format!("exec_virtual_ms_gm.{w}"), format!("{:?}", quality.exec_virtual_ms_gm())));
    e.push((format!("quality_vs_classical.{w}"), format!("{:?}", quality.quality_vs_classical())));
    e.push((
        format!("fallback_share.{w}"),
        format!("{:?}", first.fallbacks as f64 / first.requests as f64),
    ));
    e.push((
        format!("failed_share.{w}"),
        format!("{:?}", first.failed as f64 / first.requests as f64),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All four workloads at 1/100 length on a small fixture, untraced and
    /// traced: the output check passes and every declared metric is there.
    #[test]
    fn smoke_run_of_every_workload_passes_the_output_check() {
        for workload in Workload::ALL {
            let mut fps = Vec::new();
            for trace in [false, true] {
                let opts = Options {
                    workload,
                    seed: 3,
                    seconds: 0.01,
                    trace,
                    out: None,
                    fixture: FixtureSpec::smoke(),
                    sizes: workload.sizes().scaled(0.01),
                    setups: 1,
                    min_passes: 2,
                };
                let report = run(&opts);
                // The only complaint allowed: a hundredth of the list is too
                // few latency samples for a p95.
                let real: Vec<_> =
                    report.problems.iter().filter(|p| !p.contains("support a p95")).collect();
                assert!(real.is_empty(), "{} trace {trace}: {real:?}", workload.name());
                assert_eq!(report.failed, 0);
                assert!(report.attempted >= 2);
                let table = if trace { crate::report::PER_LAYER } else { END_TO_END };
                let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(names, table.iter().map(|s| s.name).collect::<Vec<_>>());
                fps.push(
                    report.exact(&format!("plans_fp.{}", workload.name())).map(str::to_string),
                );
            }
            assert!(
                fps[0].is_some() && fps[0] == fps[1],
                "traced and untraced plans differ: {fps:?}"
            );
        }
    }
}
