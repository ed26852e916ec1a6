//! Evaluation metrics: Q-error and its percentile summaries (the measure
//! used throughout the paper's Tables 2-5), plus the per-outcome counters
//! the supervised serving loop reports.

use qpseeker_nn::isa::Isa;
use serde::{Deserialize, Serialize};

/// Per-outcome counters for one serving lane, or several merged
/// ([`crate::tenant::MultiTenantSupervisor`]). Every admitted or shed query lands in
/// exactly one of the disposition counters, so operators can audit where
/// load went; the breaker counters expose the circuit's history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeCounters {
    /// The kernel ISA tier this process selected at startup (see
    /// [`qpseeker_nn::isa::active`]); surfaced here so serving metrics
    /// record which code path produced the numbers.
    pub isa: Isa,
    /// Queries admitted past the queue and actually served.
    pub admitted: usize,
    /// Admitted queries served by the neural planner.
    pub served_neural: usize,
    /// Of the neurally served queries, those answered from the fingerprint
    /// plan cache without running MCTS (always `<= served_neural`).
    pub cache_hits: usize,
    /// Admitted queries served by the classical optimizer (fallback,
    /// breaker-open, or no model).
    pub served_classical: usize,
    /// Admitted queries that panicked outside the planner's own boundary;
    /// the worker survived and recorded the failure. Always
    /// `admitted = served_neural + served_classical + failed`.
    pub failed: usize,
    /// Rejected at admission: the bounded queue was full.
    pub shed_queue_full: usize,
    /// Rejected at admission: the deadline is unmeetable even unqueued.
    pub shed_deadline: usize,
    /// Admitted but dropped at dequeue: queue wait consumed the deadline.
    pub expired_in_queue: usize,
    /// Times the circuit breaker tripped open (neural → classical-only).
    pub breaker_trips: usize,
    /// Times a half-open probe run closed the breaker again.
    pub breaker_recoveries: usize,
    /// Half-open probe queries sent through the neural path.
    pub probes: usize,
    /// Candidate plans the search layer asked the model to score, summed
    /// over every neurally served query (a cache hit scores nothing).
    /// Counted identically whether scoring ran per-session or through the
    /// shared [`crate::evalbroker::EvalBroker`] — fusing changes *where*
    /// rows are evaluated, never how many.
    pub eval_candidates: usize,
    /// Plan-node rows the plan encoder ran for those candidates: one per
    /// distinct subtree per query while its node memo has budget, so this
    /// is what incremental encoding saves against the candidates' total
    /// node count. Like `eval_candidates`, the same for any worker count
    /// and broker mode.
    pub plan_nodes_encoded: usize,
    /// Fused forward passes the eval broker executed (zero when serving
    /// without a broker).
    pub fused_batches: usize,
    /// Candidate rows carried by those fused passes. `fused_rows /
    /// fused_batches` is the mean occupancy — the whole point of fusing.
    pub fused_rows: usize,
    /// Largest row count any single fused forward pass carried.
    pub fused_occupancy_max: usize,
    /// Broker buckets flushed because they reached the size target.
    pub broker_flush_size: usize,
    /// Broker buckets flushed by the deadline window (including forced
    /// progress flushes), rather than by reaching the size target.
    pub broker_flush_deadline: usize,
}

impl ServeCounters {
    /// Queries that arrived, in any disposition.
    pub fn total_seen(&self) -> usize {
        self.admitted + self.shed_queue_full + self.shed_deadline + self.expired_in_queue
    }

    /// Load-shedding events of any kind.
    pub fn total_shed(&self) -> usize {
        self.shed_queue_full + self.shed_deadline + self.expired_in_queue
    }

    /// The disposition conservation invariant every serving loop must hold,
    /// per tenant and in merged totals: every admitted query lands in
    /// exactly one of neural / classical / failed, and cache hits are a
    /// subset of the neural count.
    pub fn conservation_holds(&self) -> bool {
        self.admitted == self.served_neural + self.served_classical + self.failed
            && self.cache_hits <= self.served_neural
    }

    /// Mean rows per fused forward pass, or 0 when no broker ran. The
    /// fusing win condition: this should sit well above the per-session
    /// `batch_eval` whenever several workers score concurrently.
    pub fn fused_occupancy_mean(&self) -> f64 {
        if self.fused_batches == 0 {
            0.0
        } else {
            self.fused_rows as f64 / self.fused_batches as f64
        }
    }

    /// Accumulate another tally into this one (merging per-tenant or
    /// per-worker shards into totals). The ISA tag is taken from `other`;
    /// shards within one process always agree on it.
    pub fn merge(&mut self, other: &ServeCounters) {
        self.admitted += other.admitted;
        self.served_neural += other.served_neural;
        self.cache_hits += other.cache_hits;
        self.served_classical += other.served_classical;
        self.failed += other.failed;
        self.shed_queue_full += other.shed_queue_full;
        self.shed_deadline += other.shed_deadline;
        self.expired_in_queue += other.expired_in_queue;
        self.breaker_trips += other.breaker_trips;
        self.breaker_recoveries += other.breaker_recoveries;
        self.probes += other.probes;
        self.eval_candidates += other.eval_candidates;
        self.plan_nodes_encoded += other.plan_nodes_encoded;
        self.fused_batches += other.fused_batches;
        self.fused_rows += other.fused_rows;
        self.fused_occupancy_max = self.fused_occupancy_max.max(other.fused_occupancy_max);
        self.broker_flush_size += other.broker_flush_size;
        self.broker_flush_deadline += other.broker_flush_deadline;
        self.isa = other.isa;
    }
}

impl std::fmt::Display for ServeCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "isa={} served={} (neural={} cache_hits={} classical={} failed={}) shed={} (queue_full={} deadline={} expired={}) breaker(trips={} recoveries={} probes={}) eval(candidates={} nodes_encoded={} fused_batches={} occupancy_mean={:.2} occupancy_max={} flush_size={} flush_deadline={})",
            self.isa.name(),
            self.admitted,
            self.served_neural,
            self.cache_hits,
            self.served_classical,
            self.failed,
            self.total_shed(),
            self.shed_queue_full,
            self.shed_deadline,
            self.expired_in_queue,
            self.breaker_trips,
            self.breaker_recoveries,
            self.probes,
            self.eval_candidates,
            self.plan_nodes_encoded,
            self.fused_batches,
            self.fused_occupancy_mean(),
            self.fused_occupancy_max,
            self.broker_flush_size,
            self.broker_flush_deadline,
        )
    }
}

/// Lifecycle counters for the online adaptation loop
/// ([`crate::online::OnlinePlanner`]): how many observations were logged,
/// how retrain rounds resolved, and how often the publication cell swapped
/// or rolled back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OnlineCounters {
    /// Experience records durably appended to the WAL.
    pub records_logged: usize,
    /// Fine-tune rounds started (whatever their outcome).
    pub retrain_rounds: usize,
    /// Candidates that passed the promotion gate and were published.
    pub promotions: usize,
    /// Candidates rejected: held-out prediction error worse than serving.
    pub rejected_gate: usize,
    /// Candidates rejected: non-finite parameters (automatic reject).
    pub rejected_nonfinite: usize,
    /// Published candidates the regression monitor rolled back.
    pub rollbacks: usize,
}

impl std::fmt::Display for OnlineCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "experience={} rounds={} promoted={} rejected(gate={} nonfinite={}) rollbacks={}",
            self.records_logged,
            self.retrain_rounds,
            self.promotions,
            self.rejected_gate,
            self.rejected_nonfinite,
            self.rollbacks,
        )
    }
}

/// Q-error: `max(pred/true, true/pred)`, both floored at 1 (Moerkotte et
/// al.). Always ≥ 1; 1 means a perfect estimate.
pub fn q_error(pred: f64, truth: f64) -> f64 {
    let p = pred.max(1.0);
    let t = truth.max(1.0);
    (p / t).max(t / p)
}

/// Q-error percentile summary (one row of the paper's tables).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QErrorSummary {
    pub p50: f64,
    pub p90: f64,
    pub p95: f64,
    pub p99: f64,
    pub mean: f64,
    pub std: f64,
    pub count: usize,
}

impl QErrorSummary {
    /// Summarize a set of (pred, truth) pairs.
    ///
    /// # Panics
    /// Panics on an empty input.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> Self {
        let errs: Vec<f64> = pairs.iter().map(|&(p, t)| q_error(p, t)).collect();
        Self::from_errors(errs)
    }

    pub fn from_errors(mut errs: Vec<f64>) -> Self {
        assert!(!errs.is_empty(), "q-error summary of empty sample");
        errs.sort_by(|a, b| a.partial_cmp(b).expect("finite q-errors"));
        let pct = |p: f64| errs[((errs.len() - 1) as f64 * p).round() as usize];
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let var = errs.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / errs.len() as f64;
        Self {
            p50: pct(0.50),
            p90: pct(0.90),
            p95: pct(0.95),
            p99: pct(0.99),
            mean,
            std: var.sqrt(),
            count: errs.len(),
        }
    }
}

impl std::fmt::Display for QErrorSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "50%={:.2} 90%={:.2} 95%={:.2} 99%={:.2} std={:.2} (n={})",
            self.p50, self.p90, self.p95, self.p99, self.std, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_basics() {
        assert_eq!(q_error(10.0, 10.0), 1.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(10.0, 100.0), 10.0); // symmetric
        assert!(q_error(0.0, 5.0) >= 1.0); // floored
        assert_eq!(q_error(0.0, 0.0), 1.0);
    }

    #[test]
    fn q_error_always_at_least_one() {
        for p in [0.0, 0.5, 1.0, 7.0, 1e9] {
            for t in [0.0, 0.5, 1.0, 7.0, 1e9] {
                assert!(q_error(p, t) >= 1.0, "q_error({p},{t})");
            }
        }
    }

    #[test]
    fn summary_percentiles() {
        let pairs: Vec<(f64, f64)> = (1..=100).map(|i| (i as f64, 1.0)).collect();
        let s = QErrorSummary::from_pairs(&pairs);
        assert_eq!(s.count, 100);
        assert!((s.p50 - 50.0).abs() <= 1.0);
        assert!((s.p90 - 90.0).abs() <= 1.0);
        assert!((s.p99 - 99.0).abs() <= 1.0);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn perfect_predictions_summarize_to_one() {
        let pairs = vec![(3.0, 3.0); 10];
        let s = QErrorSummary::from_pairs(&pairs);
        assert_eq!(s.p50, 1.0);
        assert_eq!(s.p99, 1.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_summary_panics() {
        QErrorSummary::from_errors(vec![]);
    }

    #[test]
    fn display_is_compact() {
        let s = QErrorSummary::from_pairs(&[(2.0, 1.0), (4.0, 1.0)]);
        let text = format!("{s}");
        assert!(text.contains("50%="));
        assert!(text.contains("n=2"));
    }

    #[test]
    fn serve_counters_partition_the_stream() {
        let c = ServeCounters {
            isa: Isa::default(),
            admitted: 10,
            served_neural: 6,
            cache_hits: 2,
            served_classical: 3,
            failed: 1,
            shed_queue_full: 2,
            shed_deadline: 1,
            expired_in_queue: 1,
            breaker_trips: 1,
            breaker_recoveries: 1,
            probes: 3,
            ..ServeCounters::default()
        };
        assert_eq!(c.total_seen(), 14);
        assert_eq!(c.total_shed(), 4);
        assert!(c.conservation_holds());
        let text = c.to_string();
        assert!(text.contains("queue_full=2") && text.contains("trips=1"));
        assert!(text.contains("failed=1") && text.contains("cache_hits=2"));
    }

    #[test]
    fn merge_sums_every_disposition_and_preserves_conservation() {
        let a = ServeCounters {
            admitted: 5,
            served_neural: 3,
            cache_hits: 1,
            served_classical: 2,
            shed_queue_full: 1,
            breaker_trips: 1,
            ..ServeCounters::default()
        };
        let b = ServeCounters {
            admitted: 4,
            served_neural: 1,
            served_classical: 2,
            failed: 1,
            shed_deadline: 2,
            probes: 3,
            ..ServeCounters::default()
        };
        assert!(a.conservation_holds() && b.conservation_holds());
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.admitted, 9);
        assert_eq!(merged.served_neural, 4);
        assert_eq!(merged.cache_hits, 1);
        assert_eq!(merged.served_classical, 4);
        assert_eq!(merged.failed, 1);
        assert_eq!(merged.total_seen(), 12);
        assert_eq!(merged.breaker_trips, 1);
        assert_eq!(merged.probes, 3);
        assert!(merged.conservation_holds(), "conservation is closed under merge");
    }

    #[test]
    fn fused_counters_merge_exactly() {
        let a = ServeCounters {
            eval_candidates: 40,
            plan_nodes_encoded: 90,
            fused_batches: 3,
            fused_rows: 30,
            fused_occupancy_max: 16,
            broker_flush_size: 2,
            broker_flush_deadline: 1,
            ..ServeCounters::default()
        };
        let b = ServeCounters {
            eval_candidates: 10,
            plan_nodes_encoded: 25,
            fused_batches: 1,
            fused_rows: 10,
            fused_occupancy_max: 10,
            broker_flush_deadline: 1,
            ..ServeCounters::default()
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.eval_candidates, 50);
        assert_eq!(merged.plan_nodes_encoded, 115, "encoded rows merge by sum");
        assert_eq!(merged.fused_batches, 4);
        assert_eq!(merged.fused_rows, 40);
        assert_eq!(merged.fused_occupancy_max, 16, "occupancy max merges by max");
        assert_eq!(merged.broker_flush_size, 2);
        assert_eq!(merged.broker_flush_deadline, 2);
        assert_eq!(merged.fused_occupancy_mean(), 10.0);
        assert_eq!(ServeCounters::default().fused_occupancy_mean(), 0.0);
        let text = merged.to_string();
        assert!(text.contains("candidates=50") && text.contains("occupancy_max=16"));
        assert!(text.contains("nodes_encoded=115"), "{text}");
    }

    #[test]
    fn cache_hits_exceeding_neural_breaks_conservation() {
        let c = ServeCounters {
            admitted: 2,
            served_neural: 1,
            cache_hits: 2,
            served_classical: 1,
            ..ServeCounters::default()
        };
        assert!(!c.conservation_holds());
    }
}
