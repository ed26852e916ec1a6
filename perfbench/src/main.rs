//! `perfbench` — one harness, four workloads, end-to-end and per-layer
//! metrics for the QPSeeker planner stack. See `README.md` beside the
//! manifest for the metric glossary and how to run and compare.

mod compare;
mod fixture;
mod layers;
mod measure;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage:
  perfbench --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--out <dir>]
  perfbench compare <a> <b>
workloads: point_small deep_join stream_cached tenants_brokered";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse_run(args: &[String]) -> Result<measure::Options, String> {
    let need = |name: &str| flag(args, name).ok_or(format!("missing {name}"));
    let workload = need("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = need("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = need("--seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
    };
    let mut opts = measure::Options::reference(workload, seed, seconds, trace);
    opts.out = Some(PathBuf::from(flag(args, "--out").unwrap_or(".bench_out")));
    Ok(opts)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let [a, b, ..] = args else {
        return Err("compare needs two result files or directories".into());
    };
    let (a, b) = (compare::load_set(Path::new(a))?, compare::load_set(Path::new(b))?);
    let (table, failed) = compare::compare(&a, &b);
    print!("{table}");
    Ok(failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return match run_compare(&args[1..]) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench compare: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = measure::run(&opts);
    if let Some(dir) = &opts.out {
        let name =
            format!("{}-seed{}-trace{}.json", report.workload, report.seed, report.trace as u8);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(&name), report.to_json() + "\n"));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", dir.join(&name).display());
            return ExitCode::from(2);
        }
    }
    print!("{}", report.human());
    println!("{}", report.driver_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
