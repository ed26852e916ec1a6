//! The metric tables (names, units, direction, bounds — mirrored by
//! `BENCHMARK.json`) and the result of one run: human-readable lines, the
//! one-line JSON the driver reads, and the versioned result file.

use serde::{Deserialize, Serialize};
use serde_json::Value;

pub const SCHEMA_VERSION: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    /// Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// Reported by every workload with `--trace 0`.
///
/// The bounds are what the reference box supports, not what one would wish
/// for: over ten seeds the quartile spread of the timings is 3–8 % of the
/// median (11 % for `throughput_rps` on `stream_cached`, whose hit rate
/// moves with the seed), and a bound has to stay clear of three times that.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_rps", "1/s", Higher, 0.25),
    e2e("plan_ms_p50", "ms", Lower, 0.25),
    e2e("plan_ms_p95", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Reported by every workload with `--trace 1`; a metric whose layer the
/// workload does not run reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("storage.dbgen_s", "s", Lower),
    layer("workloads.jobgen_s", "s", Lower),
    layer("model.fit_qeps_per_s", "1/s", Higher),
    layer("nn.gemm_packed_us", "us", Lower),
    layer("nn.matmul_unpacked_us", "us", Lower),
    layer("nn.gemm_flops", "count", Lower),
    layer("nn.gemm_bytes", "count", Lower),
    layer("tabert.encode_table_us", "us", Lower),
    layer("featurize.query_context_us", "us", Lower),
    layer("featurize.plan_us_per_plan", "us", Lower),
    layer("model.score_scalar_us", "us", Lower),
    layer("model.score_batch16_us_per_plan", "us", Lower),
    layer("model.score_risk16_us_per_plan", "us", Lower),
    layer("search.evals_per_req", "count", Lower),
    layer("search.us_per_eval", "us", Lower),
    layer("search.self_share", "ratio", Lower),
    layer("search.mcts.exec_gm_ms_at_64", "ms", Lower),
    layer("search.mcts.exec_gm_ms_at_256", "ms", Lower),
    layer("search.mcts.exec_gm_ms_at_1024", "ms", Lower),
    layer("search.mcts.exec_gm_ms_at_4096", "ms", Lower),
    layer("search.mcts.plan_ms_p50_at_64", "ms", Lower),
    layer("search.mcts.plan_ms_p50_at_256", "ms", Lower),
    layer("search.mcts.plan_ms_p50_at_1024", "ms", Lower),
    layer("search.mcts.plan_ms_p50_at_4096", "ms", Lower),
    layer("search.beam.exec_gm_ms_at_64", "ms", Lower),
    layer("search.beam.exec_gm_ms_at_256", "ms", Lower),
    layer("search.beam.exec_gm_ms_at_1024", "ms", Lower),
    layer("search.beam.exec_gm_ms_at_4096", "ms", Lower),
    layer("search.beam.plan_ms_p50_at_64", "ms", Lower),
    layer("search.beam.plan_ms_p50_at_256", "ms", Lower),
    layer("search.beam.plan_ms_p50_at_1024", "ms", Lower),
    layer("search.beam.plan_ms_p50_at_4096", "ms", Lower),
    layer("plancache.fingerprint_ns", "ns", Lower),
    layer("plancache.lookup_hit_ns", "ns", Lower),
    layer("plancache.lookup_miss_ns", "ns", Lower),
    layer("plancache.insert_ns", "ns", Lower),
    layer("plancache.hit_rate", "ratio", Higher),
    layer("plancache.evictions", "count", Lower),
    layer("plancache.duplicate_miss_evals", "count", Lower),
    layer("serve.hit_only_us_per_req", "us", Lower),
    layer("serve.classical_only_us_per_req", "us", Lower),
    layer("serve.scaling_2w_over_1w", "ratio", Higher),
    layer("serve.retries", "count", Lower),
    layer("serve.breaker_opens", "count", Lower),
    layer("evalbroker.fused_batches", "count", Higher),
    layer("evalbroker.occupancy_mean", "count", Higher),
    layer("evalbroker.flush_size_share", "ratio", Higher),
    layer("evalbroker.rps_on_over_off", "ratio", Higher),
    layer("plan.exec_virtual_ms_gm", "ms", Lower),
    layer("plan.quality_vs_classical", "ratio", Lower),
    layer("plan.query_total_ms_gm", "ms", Lower),
    layer("engine.optimizer_us", "us", Lower),
    layer("engine.execute_wall_ms", "ms", Lower),
    layer("engine.classical_exec_gm_ms", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// One reported number with the sample count behind it. A timing is taken
/// over each unit's fastest serving (see `run`); `per_pass` keeps what each
/// single pass (or set-up) read on its own, interference included.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Samples behind `value`: timed requests for a percentile, timed units
    /// for a throughput, 1 for a single measurement.
    pub n: usize,
    /// The same figure from every single pass (or set-up) alone.
    pub per_pass: Vec<f64>,
}

/// Where and on what the run was made.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    pub nproc: usize,
    pub isa: String,
    pub commit: String,
    pub rustc: String,
}

impl Machine {
    pub fn stamp() -> Self {
        let run = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".into())
        };
        Self {
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            isa: qpseeker_nn::isa::active().name().to_string(),
            commit: run("git", &["rev-parse", "--short", "HEAD"]),
            rustc: run("rustc", &["--version"]),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// [`SCHEMA_VERSION`] of the binary that wrote the file.
    pub schema_version: u64,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub machine: Machine,
    pub metrics: Vec<Metric>,
    /// Values that must repeat bit for bit for the same seed (plan
    /// fingerprints, eval counts, executed runtimes), as text.
    pub exact: Vec<(String, String)>,
    pub attempted: usize,
    pub failed: usize,
    /// Everything the output check found wrong; empty means correct.
    pub problems: Vec<String>,
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn exact(&self, name: &str) -> Option<&str> {
        self.exact.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each value with all its digits.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let fields = vec![("value", Value::Float(m.value)), ("unit", s(&m.unit))];
                (m.name.clone(), obj(fields))
            })
            .collect();
        let line = obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted as u64)),
            ("failed", Value::UInt(self.failed as u64)),
            ("metrics", Value::Obj(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree serialises")
    }

    /// One line per metric and exact value, for people.
    pub fn human(&self) -> String {
        let mut out = format!(
            "perfbench {} seed {} trace {} | nproc {} isa {} commit {} {}\n",
            self.workload,
            self.seed,
            self.trace as u8,
            self.machine.nproc,
            self.machine.isa,
            self.machine.commit,
            self.machine.rustc
        );
        for m in &self.metrics {
            out.push_str(&format!("{:<44} {:>14.4} {:<6} n={}\n", m.name, m.value, m.unit, m.n));
        }
        for (k, v) in &self.exact {
            out.push_str(&format!("{k:<44} {v}\n"));
        }
        for p in &self.problems {
            out.push_str(&format!("OUTPUT CHECK FAILED: {p}\n"));
        }
        out
    }

    /// The versioned result file `perfbench compare` reads.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("a report serialises")
    }

    pub fn from_json(text: &str) -> Result<Report, String> {
        let version = serde_json::parse(text)
            .map_err(|e| e.to_string())?
            .get("schema_version")
            .and_then(Value::as_u64);
        if version != Some(SCHEMA_VERSION) {
            return Err(format!("schema_version {version:?}, this binary reads {SCHEMA_VERSION}"));
        }
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            schema_version: SCHEMA_VERSION,
            workload: "point_small".into(),
            seed: 7,
            seconds: 10.0,
            trace: false,
            machine: Machine {
                nproc: 2,
                isa: "avx512".into(),
                commit: "abc1234".into(),
                rustc: "rustc 1.95.0".into(),
            },
            metrics: vec![
                Metric {
                    name: "throughput_rps".into(),
                    unit: "1/s".into(),
                    value: 278.2191,
                    n: 3,
                    per_pass: vec![270.5, 278.2191, 281.0],
                },
                Metric {
                    name: "plan_ms_p50".into(),
                    unit: "ms".into(),
                    value: 4.0,
                    n: 1500,
                    per_pass: vec![4.0],
                },
            ],
            exact: vec![("plans_fp.point_small".into(), "47bfa3872e67dd87".into())],
            attempted: 1500,
            failed: 0,
            problems: vec![],
        }
    }

    #[test]
    fn result_file_round_trips() {
        let r = sample();
        assert_eq!(Report::from_json(&r.to_json()).expect("own output parses"), r);
        let mut wrong = sample();
        wrong.problems.push("pass 1: plans fingerprint differs".into());
        assert_eq!(Report::from_json(&wrong.to_json()).expect("parses"), wrong);
        assert!(!wrong.correct());
    }

    #[test]
    fn other_schema_versions_are_refused() {
        let text = sample().to_json().replace("\"schema_version\": 1", "\"schema_version\": 2");
        assert!(Report::from_json(&text).is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = serde_json::parse(&sample().driver_line()).expect("one JSON object");
        let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let rps = line.get("metrics").and_then(|m| m.get("throughput_rps")).unwrap();
        assert_eq!(rps.get("value").and_then(Value::as_f64), Some(278.2191));
        assert_eq!(rps.get("unit").and_then(Value::as_str), Some("1/s"));
    }

    /// `BENCHMARK.json` at the repository root declares what this binary
    /// reports: same names, units, directions and bounds, in the same order.
    #[test]
    fn benchmark_json_mirrors_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json is JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = doc.get(key).and_then(Value::as_arr).expect(key);
            assert_eq!(declared.len(), table.len(), "{key}");
            for (d, spec) in declared.iter().zip(table) {
                assert_eq!(d.get("name").and_then(Value::as_str), Some(spec.name));
                assert_eq!(d.get("unit").and_then(Value::as_str), Some(spec.unit), "{}", spec.name);
                assert_eq!(
                    d.get("better").and_then(Value::as_str),
                    Some(spec.better.as_str()),
                    "{}",
                    spec.name
                );
                assert_eq!(d.get("bound").and_then(Value::as_f64), spec.bound, "{}", spec.name);
            }
        }
        let declared: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, ours);
    }
}
