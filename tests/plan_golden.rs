//! Plan golden: every served plan, its predicted score bits, its eval count
//! and the executed virtual runtime of the plans, for one fixed request
//! stream under every search configuration the serving layer can build —
//! MCTS at rollout batch 16 and 1, and beam — each mean-only and
//! risk-aware, each with the plan cache off and on.
//!
//! The equality suites (`strategies`, `broker`, `serve_concurrency`)
//! compare two paths of the current code against each other; this test
//! compares the current code against pinned constants, so a refactor that
//! moves a plan on every path at once fails here. A change that is meant
//! to move plans updates the constant in the same diff, declared.
//!
//! Scores are computed in floating point, and the model is trained on the
//! same kernels. Every kernel tier computes the same bits, so one constant
//! holds on scalar, AVX2 and AVX-512, as for the trained-weight golden; CI
//! runs this file under `QPS_FORCE_ISA=scalar|avx2` against that constant.
//! The bits also depend on the platform libm, the same on every tier
//! (init's Box–Muller, the VAE's log-variance, the normalizer's `exp` and
//! UCT's `ln`), so the constant is for x86_64 Linux glibc.

mod common;

use common::OneLane;
use qpseeker_repro::core::prelude::*;
use qpseeker_repro::engine::prelude::*;
use qpseeker_repro::nn::isa;
use qpseeker_repro::storage::datagen::imdb;
use qpseeker_repro::storage::{fnv, Database};
use qpseeker_repro::workloads::gen::QueryBuilder;
use qpseeker_repro::workloads::{synthetic, Qep, SyntheticConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The trained-weight golden's fixture: IMDb at scale 0.05, the small
/// model fitted on 12 synthetic queries.
fn fixture() -> (Arc<Database>, Arc<QPSeeker>) {
    let db = Arc::new(imdb::generate(0.05, 1));
    let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 12, seed: 11 });
    let refs: Vec<&Qep> = w.qeps.iter().collect();
    let mut m = QPSeeker::new(&db, ModelConfig::small());
    m.fit(&refs).expect("training succeeds");
    (db, Arc::new(m))
}

/// Eight synthetic 1–3 relation queries and four grown 4–6 relation ones,
/// all connected, then the first six again so the cache-on runs hit.
fn requests(db: &Database) -> Vec<QueryRequest> {
    let mut qs: Vec<Query> =
        synthetic::generate_queries(db, &SyntheticConfig { n_queries: 8, seed: 0x901d })
            .into_iter()
            .map(|(q, _sql)| q)
            .collect();
    let qb = QueryBuilder::new(db);
    let mut rng = StdRng::seed_from_u64(0x901d);
    for want in [4, 5, 6, 5] {
        loop {
            let (relations, joins) = qb.grow(&mut rng, "title", want, true);
            let mut q = Query::new(format!("golden-{}", qs.len()));
            q.relations = relations;
            q.joins = joins;
            qb.add_filters(&mut rng, &mut q, 2);
            if q.relations.len() == want && q.validate(db).is_ok() && q.is_connected() {
                qs.push(q);
                break;
            }
        }
    }
    assert!(qs.iter().all(Query::is_connected));
    let repeats: Vec<Query> = qs[..6].to_vec();
    qs.extend(repeats);
    qs.into_iter()
        .enumerate()
        .map(|(i, query)| QueryRequest { query, arrival_ms: i as f64, deadline_ms: 1e12 })
        .collect()
}

fn supervisor_cfg(strategy: StrategyConfig) -> SupervisorConfig {
    SupervisorConfig {
        serve: ServeConfig {
            mcts: MctsConfig { budget_ms: 1e9, max_simulations: 64, ..MctsConfig::default() },
            strategy,
            deadline_ms: 1e12,
            max_retries: 0,
            backoff_base_ms: 0.0,
            faults: None,
        },
        window: 16,
        min_samples: 8,
        failure_threshold: 2.0,
        cooldown_queries: 8,
        probe_successes: 3,
        queue_capacity: 4096,
        service_ms: 5.0,
        workers: 1,
        broker: None,
    }
}

/// Serve the stream once under `strategy`; return the plans fingerprint
/// (plan, prediction bits and eval count per request) and the bits of the
/// geomean executed virtual runtime over the distinct queries.
fn serve(
    db: &Arc<Database>,
    model: &Arc<QPSeeker>,
    stream: &[QueryRequest],
    strategy: StrategyConfig,
    cache: bool,
) -> (u64, u64) {
    let cache = cache.then(|| Arc::new(PlanCache::new(2, 64)));
    let mut lane = OneLane::with_cache(supervisor_cfg(strategy), db, Some(model), cache);
    let outcomes = lane.run(stream);
    assert!(lane.counters().conservation_holds());
    let exec = Executor::new(db);
    let mut words = Vec::with_capacity(3 * outcomes.len());
    let mut log_ms = Vec::new();
    for (i, (req, o)) in stream.iter().zip(&outcomes).enumerate() {
        let r = match &o.disposition {
            Disposition::Served(r) => r,
            other => panic!("request {i}: not served: {other:?}"),
        };
        assert_eq!(r.served_by, ServedBy::Neural, "request {i}: {:?}", r.fallback_reason());
        words.push(fnv::bytes(format!("{:?}", r.plan).as_bytes()));
        words.push(r.predicted_ms.map_or(0, f64::to_bits));
        words.push(r.evals as u64);
        if stream[..i].iter().all(|s| s.query.id != req.query.id) {
            log_ms.push(exec.execute(&r.plan).time_ms.max(1e-9).ln());
        }
    }
    let gm = (log_ms.iter().sum::<f64>() / log_ms.len() as f64).exp();
    (fnv::words(&words), gm.to_bits())
}

#[test]
#[cfg_attr(
    not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")),
    ignore = "golden constants are for x86_64 Linux glibc: init, the VAE's log-variance, \
              the normalizer and UCT call libm"
)]
fn served_plans_match_the_golden_fingerprint() {
    let (db, model) = fixture();
    let stream = requests(&db);
    let searches = [
        ("mcts/16", StrategyConfig { batch_eval: Some(16), ..StrategyConfig::default() }),
        ("mcts/1", StrategyConfig { batch_eval: Some(1), ..StrategyConfig::default() }),
        ("beam", StrategyConfig { kind: StrategyKind::Beam, ..StrategyConfig::default() }),
    ];
    let mut table = Vec::new();
    let mut words = Vec::new();
    for (name, strategy) in &searches {
        for risk_lambda in [0.0, 0.5] {
            for cache in [false, true] {
                let strategy = StrategyConfig { risk_lambda, ..strategy.clone() };
                let (plans_fp, gm_bits) = serve(&db, &model, &stream, strategy, cache);
                table.push(format!(
                    "{name} λ={risk_lambda} cache={cache}: plans_fp {plans_fp:#018x}, \
                     exec_virtual_ms_gm {}",
                    f64::from_bits(gm_bits)
                ));
                words.extend([plans_fp, gm_bits]);
            }
        }
    }
    let got = fnv::words(&words);
    assert_eq!(
        got,
        0x1ae5_0e71_25f3_8d59,
        "served plans moved (kernel tier {}): {got:#018x}\n{}",
        isa::active().name(),
        table.join("\n")
    );
}
