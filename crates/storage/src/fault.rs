//! Deterministic fault injection.
//!
//! A [`FaultConfig`] describes *which* faults to inject and at what rate; a
//! [`FaultInjector`] decides *where* they fire. Decisions are pure functions
//! of `(seed, site, key)` — hashed, not drawn from a stateful RNG — so the
//! same seed produces the same fault schedule regardless of execution order,
//! which keeps chaos tests reproducible and lets a retry of a *different*
//! attempt see a different outcome while a re-run of the same attempt sees
//! the same one.
//!
//! Fault classes (all off by default):
//! * **page-read failures** — a scan's page fetch errors (transient),
//! * **latency spikes** — extra virtual milliseconds charged to an operator,
//! * **corrupted statistics** — a table's ANALYZE stats are served with NaN
//!   histogram bounds and zeroed distinct counts (permanent),
//! * **row-budget aborts** — execution exceeds an admission-control row cap,
//! * **inference faults** — the serving layer's model produces a non-finite
//!   prediction or stalls past its deadline (exercises graceful degradation),
//! * **durable-path faults** — a durable write is torn (partial bytes reach
//!   the destination, as on a non-atomic filesystem) or the process "dies"
//!   at a crash point mid-protocol (exercises snapshot recovery).
//!
//! Durable-path decisions additionally consume a shared write sequence
//! counter (clones of one injector share it), so "crash at the k-th durable
//! write" is expressible — that is what the kill-at-every-epoch crash-
//! recovery sweep arms.

use crate::error::StorageError;
use crate::fnv::FnvBuild;
use crate::stats::TableStats;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fault-injection configuration. `Default` injects nothing.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Probability a scan's page read fails (transient).
    pub page_read_p: f64,
    /// Probability an operator is charged a latency spike.
    pub latency_spike_p: f64,
    /// Size of one latency spike, in virtual milliseconds.
    pub latency_spike_ms: f64,
    /// Probability a table's statistics are served corrupted.
    pub corrupt_stats_p: f64,
    /// Abort execution once this many rows have been processed.
    pub row_budget: Option<u64>,
    /// Probability one neural-inference attempt yields a NaN prediction.
    pub inference_nan_p: f64,
    /// Probability one neural-inference attempt stalls past its deadline.
    pub inference_stall_p: f64,
    /// Probability one neural-inference attempt panics mid-plan (the
    /// serving layer must contain it and fall back).
    pub inference_panic_p: f64,
    /// Probability a durable write is torn: a truncated prefix reaches the
    /// destination (simulating a crash mid-write on a filesystem without
    /// atomic rename) and the writing process "dies".
    pub torn_write_p: f64,
    /// Simulated process kill: durable write number `n` (0-based, counted
    /// across all clones of the injector) crashes before any bytes reach
    /// disk, as does every write after it.
    pub crash_after_writes: Option<u64>,
    /// Probability one online fine-tune round produces a candidate with
    /// non-finite parameters (a poisoned gradient step slipping past the
    /// per-batch guards). The promotion gate must reject such a candidate.
    pub finetune_poison_p: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            page_read_p: 0.0,
            latency_spike_p: 0.0,
            latency_spike_ms: 0.0,
            corrupt_stats_p: 0.0,
            row_budget: None,
            inference_nan_p: 0.0,
            inference_stall_p: 0.0,
            inference_panic_p: 0.0,
            torn_write_p: 0.0,
            crash_after_writes: None,
            finetune_poison_p: 0.0,
        }
    }
}

impl FaultConfig {
    /// Every fault class armed at probability `p` (the chaos-suite preset).
    pub fn chaos(seed: u64, p: f64) -> Self {
        Self {
            seed,
            page_read_p: p,
            latency_spike_p: p,
            latency_spike_ms: 50.0,
            corrupt_stats_p: p,
            row_budget: None,
            inference_nan_p: p,
            inference_stall_p: p,
            inference_panic_p: p,
            torn_write_p: p,
            crash_after_writes: None,
            finetune_poison_p: p,
        }
    }
}

/// Simulated model-inference faults, decided per `(query, attempt)` so a
/// retry of the same query can succeed where the first attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceFault {
    /// The cost model returned NaN/Inf.
    NanPrediction,
    /// The planner blew through its deadline.
    Stall,
    /// The planner panics mid-attempt; the serving layer's per-attempt
    /// panic boundary must contain it.
    Panic,
}

/// Simulated faults on the durable (snapshot/checkpoint) write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableFault {
    /// Only the first `keep_bytes` of the payload reach the destination
    /// before the process "dies" (non-atomic torn write).
    TornWrite { keep_bytes: usize },
    /// The process "dies" at the crash point, before any bytes are written.
    CrashPoint,
}

/// Decider for an armed [`FaultConfig`]. Stateless except for the durable
/// write sequence counter, which clones share so a crash point fires at the
/// same global write regardless of which clone performs it.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    durable_writes: Arc<AtomicU64>,
}

impl FaultInjector {
    pub fn new(cfg: FaultConfig) -> Self {
        Self { cfg, durable_writes: Arc::new(AtomicU64::new(0)) }
    }

    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Deterministic Bernoulli trial for `(site, key)` at probability `p`.
    fn trips(&self, site: &str, key: &str, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let h = fault_hash(self.cfg.seed, site, key);
        // 53 mantissa bits -> uniform in [0, 1).
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Simulate the page reads backing a scan of `table`. Fails with a
    /// transient [`StorageError::PageRead`] per the configured rate.
    pub fn page_read(&self, table: &str) -> Result<(), StorageError> {
        if self.trips("page_read", table, self.cfg.page_read_p) {
            let page = fault_hash(self.cfg.seed, "page_no", table) % 1024;
            return Err(StorageError::PageRead { table: table.to_string(), page });
        }
        Ok(())
    }

    /// Extra virtual milliseconds charged to the operator identified by
    /// `key` (zero when no spike fires).
    pub fn latency_spike_ms(&self, key: &str) -> f64 {
        if self.trips("latency", key, self.cfg.latency_spike_p) {
            self.cfg.latency_spike_ms
        } else {
            0.0
        }
    }

    /// Whether `table`'s statistics should be served corrupted.
    pub fn corrupts_stats(&self, table: &str) -> bool {
        self.trips("stats", table, self.cfg.corrupt_stats_p)
    }

    /// A corrupted clone of `stats`: NaN histogram bounds and zeroed
    /// distinct counts, as a bit-rotted ANALYZE snapshot would present.
    pub fn corrupted_stats(&self, stats: &TableStats) -> TableStats {
        let mut out = stats.clone();
        for col in &mut out.columns {
            for b in &mut col.histogram.bounds {
                *b = f64::NAN;
            }
            col.n_distinct = 0;
            col.mcvs.clear();
        }
        out
    }

    /// The configured row budget, if any.
    pub fn row_budget(&self) -> Option<u64> {
        self.cfg.row_budget
    }

    /// Fault decision for one durable write of `len` payload bytes at
    /// `site`. Consumes one tick of the shared write sequence; the decision
    /// is a pure function of `(seed, site, sequence)`, so a schedule replays
    /// identically when the same writes happen in the same order.
    pub fn durable_fault(&self, site: &str, len: usize) -> Option<DurableFault> {
        let seq = self.durable_writes.fetch_add(1, Ordering::Relaxed);
        if let Some(n) = self.cfg.crash_after_writes {
            if seq >= n {
                return Some(DurableFault::CrashPoint);
            }
        }
        let key = format!("{site}#{seq}");
        if len > 0 && self.trips("torn_write", &key, self.cfg.torn_write_p) {
            // Deterministic truncation point, strictly shorter than the
            // payload so the write is genuinely torn.
            let keep = (fault_hash(self.cfg.seed, "torn_len", &key) as usize) % len;
            return Some(DurableFault::TornWrite { keep_bytes: keep });
        }
        None
    }

    /// Durable writes attempted so far (shared across clones).
    pub fn durable_writes(&self) -> u64 {
        self.durable_writes.load(Ordering::Relaxed)
    }

    /// Whether fine-tune round `round` produces a NaN-poisoned candidate
    /// (decided per round so a later round can succeed where one failed).
    pub fn finetune_poisoned(&self, round: u64) -> bool {
        self.trips("finetune_poison", &round.to_string(), self.cfg.finetune_poison_p)
    }

    /// Fault decision for one neural-inference attempt.
    pub fn inference_fault(&self, query_id: &str, attempt: usize) -> Option<InferenceFault> {
        let key = format!("{query_id}#{attempt}");
        if self.trips("infer_nan", &key, self.cfg.inference_nan_p) {
            Some(InferenceFault::NanPrediction)
        } else if self.trips("infer_stall", &key, self.cfg.inference_stall_p) {
            Some(InferenceFault::Stall)
        } else if self.trips("infer_panic", &key, self.cfg.inference_panic_p) {
            Some(InferenceFault::Panic)
        } else {
            None
        }
    }
}

/// FNV-1a over `(seed, site, key)` with separators so distinct sites never
/// alias, finished with a splitmix64-style avalanche. The finalizer matters:
/// raw FNV barely moves the high bits when only a trailing byte changes
/// (e.g. the attempt index), and the high bits are what [`FaultInjector`]
/// turns into the uniform draw.
fn fault_hash(seed: u64, site: &str, key: &str) -> u64 {
    let mut fnv = FnvBuild.build_hasher();
    for part in [&seed.to_le_bytes()[..], site.as_bytes(), key.as_bytes()] {
        fnv.write(part);
        fnv.write_u8(0xff);
    }
    let mut h = fnv.finish();
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_hash_is_pinned() {
        // Every chaos replay is a sequence of these draws: the value must
        // never move.
        assert_eq!(fault_hash(7, "inference", "q1:0"), 0xbe808880950e3283);
    }

    #[test]
    fn default_config_injects_nothing() {
        let fi = FaultInjector::new(FaultConfig::default());
        for t in ["title", "cast_info", "movie_info"] {
            assert!(fi.page_read(t).is_ok());
            assert_eq!(fi.latency_spike_ms(t), 0.0);
            assert!(!fi.corrupts_stats(t));
            assert!(fi.inference_fault(t, 0).is_none());
        }
        assert!(fi.row_budget().is_none());
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultInjector::new(FaultConfig::chaos(9, 0.5));
        let b = FaultInjector::new(FaultConfig::chaos(9, 0.5));
        for i in 0..100 {
            let key = format!("t{i}");
            assert_eq!(a.page_read(&key).is_err(), b.page_read(&key).is_err());
            assert_eq!(a.latency_spike_ms(&key), b.latency_spike_ms(&key));
            assert_eq!(a.corrupts_stats(&key), b.corrupts_stats(&key));
            assert_eq!(a.inference_fault(&key, i), b.inference_fault(&key, i));
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultInjector::new(FaultConfig::chaos(1, 0.5));
        let b = FaultInjector::new(FaultConfig::chaos(2, 0.5));
        let diverges = (0..100).any(|i| {
            let key = format!("t{i}");
            a.page_read(&key).is_err() != b.page_read(&key).is_err()
        });
        assert!(diverges, "seeds 1 and 2 produced identical page-read schedules");
    }

    #[test]
    fn trip_rate_tracks_probability() {
        let fi = FaultInjector::new(FaultConfig::chaos(3, 0.1));
        let n = 10_000;
        let hits = (0..n).filter(|i| fi.page_read(&format!("t{i}")).is_err()).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.02, "p=0.1 schedule fired at rate {rate}");
    }

    #[test]
    fn corrupted_stats_fail_validation() {
        use crate::table::{Column, ColumnData, Table};
        let t = Table::new(
            "t",
            vec![Column { name: "x".into(), data: ColumnData::Int(vec![1, 2, 3]) }],
        );
        let stats = TableStats::analyze(&t);
        assert!(stats.validate().is_ok());
        let fi = FaultInjector::new(FaultConfig::chaos(1, 1.0));
        let bad = fi.corrupted_stats(&stats);
        let err = bad.validate().unwrap_err();
        assert!(matches!(err, StorageError::CorruptStats { .. }), "{err}");
    }

    #[test]
    fn durable_faults_default_off() {
        let fi = FaultInjector::new(FaultConfig::default());
        for _ in 0..50 {
            assert!(fi.durable_fault("snap", 1024).is_none());
        }
        assert_eq!(fi.durable_writes(), 50);
    }

    #[test]
    fn crash_point_fires_at_the_configured_write_and_after() {
        let cfg = FaultConfig { crash_after_writes: Some(3), ..FaultConfig::default() };
        let fi = FaultInjector::new(cfg);
        assert!(fi.durable_fault("snap", 10).is_none()); // write 0
        assert!(fi.durable_fault("snap", 10).is_none()); // write 1
        assert!(fi.durable_fault("snap", 10).is_none()); // write 2
        assert_eq!(fi.durable_fault("snap", 10), Some(DurableFault::CrashPoint));
        assert_eq!(fi.durable_fault("snap", 10), Some(DurableFault::CrashPoint));
    }

    #[test]
    fn clones_share_the_write_sequence() {
        let cfg = FaultConfig { crash_after_writes: Some(2), ..FaultConfig::default() };
        let a = FaultInjector::new(cfg);
        let b = a.clone();
        assert!(a.durable_fault("snap", 10).is_none());
        assert!(b.durable_fault("snap", 10).is_none());
        assert_eq!(a.durable_fault("snap", 10), Some(DurableFault::CrashPoint));
    }

    #[test]
    fn torn_writes_truncate_strictly_below_the_payload_length() {
        let cfg = FaultConfig { seed: 11, torn_write_p: 1.0, ..FaultConfig::default() };
        let fi = FaultInjector::new(cfg);
        for _ in 0..100 {
            match fi.durable_fault("snap", 64) {
                Some(DurableFault::TornWrite { keep_bytes }) => assert!(keep_bytes < 64),
                other => panic!("p=1.0 torn write did not fire: {other:?}"),
            }
        }
    }

    #[test]
    fn torn_write_schedule_is_deterministic_per_seed() {
        let mk = || {
            FaultInjector::new(FaultConfig { seed: 7, torn_write_p: 0.3, ..FaultConfig::default() })
        };
        let (a, b) = (mk(), mk());
        for _ in 0..200 {
            assert_eq!(a.durable_fault("snap", 128), b.durable_fault("snap", 128));
        }
    }

    #[test]
    fn retry_can_clear_an_inference_fault() {
        // At p = 0.5 some (query, attempt) pairs fault and others do not;
        // verify the attempt index actually changes the decision.
        let fi = FaultInjector::new(FaultConfig::chaos(4, 0.5));
        let varies = (0..50).any(|i| {
            let q = format!("q{i}");
            fi.inference_fault(&q, 0).is_some() != fi.inference_fault(&q, 1).is_some()
        });
        assert!(varies, "attempt index never changed the fault decision");
    }
}
