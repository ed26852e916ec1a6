//! The tape-free scoring forward must be numerically interchangeable with
//! the reference tape forward — through either featurizer — and crossbeam
//! data-parallel training must be bit-reproducible regardless of the shard
//! count.

use proptest::prelude::*;
use qpseeker_core::prelude::*;
use qpseeker_engine::inject::LeftDeepSpec;
use qpseeker_engine::plan::{JoinOp, PlanNode, ScanOp};
use qpseeker_engine::query::{ColRef, JoinPred, Query, RelRef};
use qpseeker_storage::datagen::imdb;
use qpseeker_workloads::{synthetic, Qep, SyntheticConfig};
use std::sync::OnceLock;

fn three_way() -> Query {
    let mut q = Query::new("fastpath-q");
    q.relations =
        vec![RelRef::new("title"), RelRef::new("movie_info"), RelRef::new("movie_keyword")];
    q.joins = vec![
        JoinPred { left: ColRef::new("movie_info", "movie_id"), right: ColRef::new("title", "id") },
        JoinPred {
            left: ColRef::new("movie_keyword", "movie_id"),
            right: ColRef::new("title", "id"),
        },
    ];
    q
}

/// One fitted model shared by every proptest case (fitting is the
/// expensive part; prediction is what's under test).
fn shared_model() -> &'static QPSeeker {
    static MODEL: OnceLock<QPSeeker> = OnceLock::new();
    MODEL.get_or_init(|| {
        let db = std::sync::Arc::new(imdb::generate(0.05, 1));
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 24, seed: 7 });
        let refs: Vec<&Qep> = w.qeps.iter().collect();
        let mut m = QPSeeker::new(&db, ModelConfig::small());
        m.fit(&refs).expect("training succeeds");
        m
    })
}

/// Left-deep join orders of the three-way query that stay connected
/// (title is the hub relation).
const ORDERS: [[&str; 3]; 4] = [
    ["title", "movie_info", "movie_keyword"],
    ["title", "movie_keyword", "movie_info"],
    ["movie_info", "title", "movie_keyword"],
    ["movie_keyword", "title", "movie_info"],
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every (join order, scan ops, join ops) combination predicts the same
    /// targets through the scratch-arena fast path as through the autodiff
    /// tape, within 1e-5 relative.
    #[test]
    fn tape_free_forward_matches_tape(
        order in 0usize..4,
        scan_ops in proptest::collection::vec(0usize..3, 3),
        join_ops in proptest::collection::vec(0usize..3, 2),
    ) {
        let model = shared_model();
        let q = three_way();
        let spec = LeftDeepSpec {
            scans: ORDERS[order]
                .iter()
                .zip(&scan_ops)
                .map(|(a, &s)| (a.to_string(), ScanOp::ALL[s]))
                .collect(),
            joins: join_ops.iter().map(|&j| JoinOp::ALL[j]).collect(),
        };
        let plan = spec.compile(&q).expect("connected left-deep order");
        let fast = model.predict(&q, &plan);
        let tape = model.predict_tape(&q, &plan);
        for (name, a, b) in [
            ("cardinality", fast.cardinality, tape.cardinality),
            ("cost", fast.cost, tape.cost),
            ("runtime_ms", fast.runtime_ms, tape.runtime_ms),
        ] {
            prop_assert!(
                (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
                "{name}: fast {a} vs tape {b}"
            );
        }
    }
}

#[test]
fn tape_free_forward_matches_tape_on_single_scans() {
    let model = shared_model();
    let mut q = Query::new("fastpath-single");
    q.relations = vec![RelRef::new("title")];
    for op in ScanOp::ALL {
        let plan = PlanNode::scan(&q, "title", op);
        let fast = model.predict(&q, &plan);
        let tape = model.predict_tape(&q, &plan);
        assert!(
            (fast.runtime_ms - tape.runtime_ms).abs() <= 1e-5 * (1.0 + tape.runtime_ms.abs()),
            "scan {op:?}: fast {} vs tape {}",
            fast.runtime_ms,
            tape.runtime_ms
        );
    }
}

/// Past 64 relations the alias-bitmask featurization cache is inexact, so
/// rows are built by the general featurizer instead — and still go through
/// the one forward. A 65-alias self-join chain must predict, finitely and
/// within 1e-5 of the tape.
#[test]
fn sixty_five_alias_chain_predicts_through_the_general_featurizer() {
    let model = shared_model();
    let mut q = Query::new("fastpath-65");
    let alias = |i: usize| format!("t{i}");
    q.relations = (0..65).map(|i| RelRef::aliased("title", alias(i))).collect();
    q.joins = (1..65)
        .map(|i| JoinPred {
            left: ColRef::new(alias(i - 1), "id"),
            right: ColRef::new(alias(i), "id"),
        })
        .collect();
    let mut plan = PlanNode::scan(&q, &alias(0), ScanOp::SeqScan);
    for i in 1..65 {
        let right = PlanNode::scan(&q, &alias(i), ScanOp::ALL[i % 3]);
        plan = PlanNode::join(&q, JoinOp::ALL[i % 3], plan, right);
    }
    let fast = model.predict(&q, &plan);
    let tape = model.predict_tape(&q, &plan);
    for (name, a, b) in [
        ("cardinality", fast.cardinality, tape.cardinality),
        ("cost", fast.cost, tape.cost),
        ("runtime_ms", fast.runtime_ms, tape.runtime_ms),
    ] {
        assert!(a.is_finite(), "{name} is not finite: {a}");
        assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "{name}: forward {a} vs tape {b}");
    }
}

#[test]
fn parallel_training_is_bit_identical_across_shard_counts() {
    let db = std::sync::Arc::new(imdb::generate(0.05, 1));
    let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 12, seed: 11 });
    let refs: Vec<&Qep> = w.qeps.iter().collect();
    let train = |threads: usize| {
        let mut cfg = ModelConfig::small();
        cfg.train_threads = threads;
        let mut m = QPSeeker::new(&db, cfg);
        m.fit(&refs).expect("training succeeds");
        m
    };
    let reference = train(1);
    for threads in 2..=4 {
        let sharded = train(threads);
        assert!(
            reference.store.values_bitwise_eq(&sharded.store),
            "train_threads={threads} diverged bitwise from the serial run"
        );
        // And the models they produce are observably identical.
        let q = three_way();
        let plan = LeftDeepSpec {
            scans: vec![
                ("title".into(), ScanOp::SeqScan),
                ("movie_info".into(), ScanOp::IndexScan),
                ("movie_keyword".into(), ScanOp::SeqScan),
            ],
            joins: vec![JoinOp::HashJoin, JoinOp::MergeJoin],
        }
        .compile(&q)
        .expect("valid plan");
        assert_eq!(reference.predict(&q, &plan).runtime_ms, sharded.predict(&q, &plan).runtime_ms);
    }
}

/// Golden fingerprint of trained weights: FNV-1a over every parameter's
/// `to_bits()`, in `ParamStore::iter` order, after fitting
/// `ModelConfig::small()` on the 12-query fixture above. Tiers round
/// differently, so each has its own constant (the AVX2 and AVX-512 GEMMs
/// are both one fused chain per element and agree; the scalar one adds
/// one unfused product per step). A change to
/// training's floating-point order fails here, and must update these
/// constants in the same diff — declared, never silent.
///
/// The bits also depend on the platform libm: the tape's `tanh`, `exp`
/// and `sigmoid` call `f32::tanh`/`f32::exp`. The constants are for
/// x86_64 Linux glibc; elsewhere the test is ignored, and a glibc whose
/// `tanhf`/`expf` round differently moves them with no code change.
#[test]
#[cfg_attr(
    not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")),
    ignore = "golden constants are for x86_64 Linux glibc"
)]
fn trained_weights_match_the_golden_fingerprint() {
    use qpseeker_nn::isa::{self, Isa};
    let db = std::sync::Arc::new(imdb::generate(0.05, 1));
    let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 12, seed: 11 });
    let refs: Vec<&Qep> = w.qeps.iter().collect();
    let mut m = QPSeeker::new(&db, ModelConfig::small());
    m.fit(&refs).expect("training succeeds");
    let bits: Vec<u64> = m
        .store
        .iter()
        .flat_map(|(_, p)| p.value.data().iter().map(|x| u64::from(x.to_bits())))
        .collect();
    let got = qpseeker_storage::fnv::words(&bits);
    let want = match isa::active() {
        Isa::Scalar => 0x5f5e_cb48_8683_7907,
        Isa::Avx2 | Isa::Avx512 => 0x062a_83aa_8e28_b123,
    };
    assert_eq!(
        got,
        want,
        "trained weights moved on the {} tier: {got:#018x} (training's FP order \
         changed, or the libm's tanhf/expf did)",
        isa::active().name()
    );
}
