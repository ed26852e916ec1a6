//! Property-based tests for the tensor and autograd layers.

use proptest::prelude::*;
use qpseeker_nn::act::{activate, lstm_gates};
use qpseeker_nn::isa::Isa;
use qpseeker_nn::pack::{gemm_packed_force, PackedGemm};
use qpseeker_nn::prelude::*;
use qpseeker_nn::tensor::{dot, dot_force};

/// Strategy: a tensor with the given shape and bounded values.
fn tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

fn small_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..5, 1usize..5, 1usize..5)
}

/// Dimensions that straddle the kernel's blocking boundaries (4-row tile,
/// 16- and 32-column panels): 1 (no blocks), 3 (tail only), 7/17 (blocks +
/// tail), 96 (whole blocks, the production hidden size).
fn kernel_dim() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 3, 7, 17, 96])
}

/// A matrix for the kernel tests: random values, but with a random subset of
/// 4-wide k-blocks forced to all-zero so the sparse skip path is exercised
/// (including the "every block zero" and "no block zero" extremes).
fn kernel_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    let blocks = cols.div_ceil(4);
    (
        proptest::collection::vec(-2.0f32..2.0, rows * cols),
        proptest::collection::vec(prop::bool::ANY, rows * blocks),
    )
        .prop_map(move |(mut data, zero_block)| {
            for r in 0..rows {
                for blk in 0..blocks {
                    if zero_block[r * blocks + blk] {
                        for c in (blk * 4..(blk + 1) * 4).take_while(|&c| c < cols) {
                            data[r * cols + c] = 0.0;
                        }
                    }
                }
            }
            Tensor::from_vec(rows, cols, data)
        })
}

/// Scalar triple-loop reference the blocked kernels are checked against.
fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Tensor::matmul` (pack on the spot, then the packed kernel) agrees
    /// with the naive triple loop over every combination of
    /// blocking-boundary shapes, including rows whose k-blocks are entirely
    /// zero (the sparse skip path).
    #[test]
    fn blocked_matmul_matches_naive_reference(
        (a, b) in (kernel_dim(), kernel_dim(), kernel_dim())
            .prop_flat_map(|(m, k, n)| (kernel_matrix(m, k), kernel_matrix(k, n)))
    ) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let fast = a.matmul(&b);
        let slow = matmul_naive(&a, &b);
        // The SIMD tiers fuse each multiply-add, so allow a small
        // accumulation tolerance scaled to k.
        let tol = 1e-5 * (k as f32).sqrt().max(1.0);
        for (idx, (x, y)) in fast.data().iter().zip(slow.data()).enumerate() {
            prop_assert!((x - y).abs() <= tol * (1.0 + y.abs()),
                "({m}x{k}x{n}) idx {idx}: blocked {x} vs naive {y}");
        }
    }

    /// FP-order contract: each row of an m-row product is bitwise identical
    /// to the m=1 product of that row alone. This is what lets MCTS score a
    /// batch of candidate plans and still match the scalar path bit for bit.
    #[test]
    fn batched_matmul_rows_bitwise_equal_scalar(
        (a, b) in (kernel_dim(), kernel_dim(), kernel_dim())
            .prop_flat_map(|(m, k, n)| (kernel_matrix(m, k), kernel_matrix(k, n)))
    ) {
        let batched = a.matmul(&b);
        for i in 0..a.rows() {
            let row = Tensor::from_vec(1, a.cols(), a.row_slice(i).to_vec());
            let single = row.matmul(&b);
            prop_assert_eq!(batched.row_slice(i), single.data(),
                "row {} of {}x{}x{} differs from its m=1 twin",
                i, a.rows(), a.cols(), b.cols());
        }
    }

    /// (A·B)ᵀ == Bᵀ·Aᵀ for all shapes.
    #[test]
    fn matmul_transpose_identity((m, k, n) in small_dims(),
                                 seed in 0u64..1000) {
        let mut init = Initializer::new(seed);
        let a = init.normal(m, k, 1.0);
        let b = init.normal(k, n, 1.0);
        let lhs = a.matmul(&b).transposed();
        let rhs = b.transposed().matmul(&a.transposed());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// matmul distributes over addition: A·(B+C) == A·B + A·C.
    #[test]
    fn matmul_distributive((m, k, n) in small_dims(), seed in 0u64..1000) {
        let mut init = Initializer::new(seed);
        let a = init.normal(m, k, 1.0);
        let b = init.normal(k, n, 1.0);
        let c = init.normal(k, n, 1.0);
        let mut bc = b.clone();
        bc.add_assign(&c);
        let lhs = a.matmul(&bc);
        let mut rhs = a.matmul(&b);
        rhs.add_assign(&a.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// d(sum(x))/dx is exactly 1 everywhere, for any parameter shape.
    #[test]
    fn sum_gradient_is_ones(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(seed);
        let w = store.register("w", init.normal(rows, cols, 1.0));
        let mut g = Graph::new(&store);
        let wv = g.param(w);
        let loss = g.sum_all(wv);
        let (_, grads) = g.backward(loss);
        for &v in grads.get(w).expect("w is on the tape").data() {
            prop_assert!((v - 1.0).abs() < 1e-6);
        }
    }

    /// Linear-layer gradients match finite differences on random shapes.
    #[test]
    fn linear_gradcheck((bi, i, o) in small_dims(), seed in 0u64..200) {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(seed);
        let layer = Linear::new(&mut store, &mut init, "l", i, o);
        let x = init.normal(bi, i, 1.0);

        let mut g = Graph::new(&store);
        let xv = g.constant(x.clone());
        let y = layer.forward(&mut g, &xv, Activation::Identity);
        let sq = g.mul(y, y);
        let loss = g.mean_all(sq);
        let analytic = g.backward(loss).1.get(layer.w).expect("w is on the tape").clone();

        let eps = 1e-2f32;
        for idx in 0..store.value(layer.w).len() {
            let orig = store.value(layer.w).data()[idx];
            let eval = |store: &ParamStore| {
                let mut g = Graph::new(store);
                let xv = g.constant(x.clone());
                let y = layer.forward(&mut g, &xv, Activation::Identity);
                let sq = g.mul(y, y);
                let loss = g.mean_all(sq);
                g.value(loss).get(0, 0)
            };
            store.value_mut(layer.w).data_mut()[idx] = orig + eps;
            let lp = eval(&store);
            store.value_mut(layer.w).data_mut()[idx] = orig - eps;
            let lm = eval(&store);
            store.value_mut(layer.w).data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.data()[idx];
            prop_assert!((a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "idx {}: analytic {} vs numeric {}", idx, a, numeric);
        }
    }

    /// The VAE's draws have roughly the statistics N(mu, sigma²), with the
    /// log-variance soft-bounded as `8 · tanh(raw)`.
    #[test]
    fn reparameterization_statistics(mu in -1.0f32..1.0, logvar in -1.0f32..1.0) {
        let n = 4000;
        let mut init = Initializer::new(99);
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let raw = (logvar / 8.0).atanh();
        let h = g.constant(Tensor::row(vec![mu, raw]));
        let eps = init.standard_normal(n, 1);
        let z = Exec::sample(&mut g, &h, 1, &[eps.data()]);
        let vals = g.value(z);
        let mean = vals.mean();
        let var = vals.data().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        prop_assert!((mean - mu).abs() < 0.1, "mean {} vs mu {}", mean, mu);
        prop_assert!((var - logvar.exp()).abs() < 0.25 * logvar.exp().max(1.0),
            "var {} vs sigma² {}", var, logvar.exp());
    }

    /// Gathering every row of two tensors recovers them (graph shape ops are
    /// lossless).
    #[test]
    fn stack_then_split_roundtrip(a in tensor(2, 3), b in tensor(3, 3)) {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let av = g.constant(a.clone());
        let bv = g.constant(b.clone());
        let rows = (0..2).map(|r| Row::Of(&av, r)).chain((0..3).map(|r| Row::Of(&bv, r)));
        let s = g.gather(5, 3, rows);
        let out = g.value(s);
        prop_assert_eq!(out.rows(), 5);
        for r in 0..2 {
            prop_assert_eq!(out.row_slice(r), a.row_slice(r));
        }
        for r in 0..3 {
            prop_assert_eq!(out.row_slice(2 + r), b.row_slice(r));
        }
    }

    /// MSE is non-negative and zero iff pred == target.
    #[test]
    fn mse_nonnegative(p in tensor(2, 4), t in tensor(2, 4)) {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let pv = g.constant(p.clone());
        let tv = g.constant(t.clone());
        let loss = g.mse(pv, tv);
        let l = g.value(loss).get(0, 0);
        prop_assert!(l >= 0.0);
        let mut g2 = Graph::new(&store);
        let pv2 = g2.constant(p.clone());
        let pv3 = g2.constant(p.clone());
        let loss2 = g2.mse(pv2, pv3);
        prop_assert!(g2.value(loss2).get(0, 0).abs() < 1e-9);
    }

    /// KL divergence to the standard normal is always non-negative.
    #[test]
    fn kl_nonnegative(mu in tensor(2, 4), lv in tensor(2, 4)) {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let m = g.constant(mu);
        let l = g.constant(lv);
        let kl = g.kl_standard_normal(m, l);
        prop_assert!(g.value(kl).get(0, 0) >= -1e-5);
    }
}

/// Scalar reference for the fused epilogue: optional accumulate into the
/// previous output, optional bias row, then the activation via libm.
fn epilogue_naive(
    gemm: &Tensor,
    prev: &[f32],
    accumulate: bool,
    bias: Option<&[f32]>,
    act: Activation,
) -> Vec<f32> {
    let n = gemm.cols();
    gemm.data()
        .iter()
        .enumerate()
        .map(|(idx, &g)| {
            let mut v = g;
            if accumulate {
                v += prev[idx];
            }
            if let Some(b) = bias {
                v += b[idx % n];
            }
            match act {
                Activation::Identity => v,
                Activation::Relu => v.max(0.0),
                Activation::Tanh => v.tanh(),
                Activation::Sigmoid => 1.0 / (1.0 + (-v).exp()),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FP-order contract per tier: row `i` of an m-row packed product is
    /// bitwise identical to the m=1 product of that row alone, with and
    /// without a fused bias + activation epilogue, for every forced ISA over
    /// the 1..33 shape cube — the domain that crosses every lane boundary of
    /// the 32- and 16-wide panel halves and the 4-row tile — with zero blocks
    /// planted to exercise the sparse-skip branches of each tier.
    #[test]
    fn forced_isa_gemm_rows_bitwise_equal_scalar(
        ((a, b), bias_seed) in ((2usize..33, 1usize..33, 1usize..33)
            .prop_flat_map(|(m, k, n)| (kernel_matrix(m, k), kernel_matrix(k, n))), 0u64..1000)
    ) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let w = PackedGemm::pack(&b);
        let bias = Initializer::new(bias_seed).normal(1, n, 1.0);
        let mut batched = vec![0f32; m * n];
        let mut single = vec![0f32; n];
        for isa in Isa::supported() {
            for (act, bias) in [(Activation::Identity, None), (Activation::Tanh, Some(bias.data()))] {
                gemm_packed_force(isa, m, a.data(), &w, false, bias, act, &mut batched);
                for i in 0..m {
                    gemm_packed_force(isa, 1, a.row_slice(i), &w, false, bias, act, &mut single);
                    for (x, y) in batched[i * n..(i + 1) * n].iter().zip(&single) {
                        prop_assert_eq!(x.to_bits(), y.to_bits(),
                            "{:?} {:?} row {} of {}x{}x{} differs from its m=1 twin",
                            isa, act, i, m, k, n);
                    }
                }
            }
        }
    }

    /// Every dot-product tier agrees with a mul_add reference, and bit
    /// for bit with the scalar tier.
    #[test]
    fn forced_isa_dot_matches_reference(
        (a, b) in (1usize..129).prop_flat_map(|k| (kernel_matrix(1, k), kernel_matrix(1, k)))
    ) {
        let reference: f32 =
            a.data().iter().zip(b.data()).fold(0.0f32, |acc, (&x, &y)| x.mul_add(y, acc));
        let tol = 1e-5 * (a.cols() as f32).sqrt().max(1.0);
        for isa in Isa::supported() {
            let got = dot_force(isa, a.data(), b.data());
            prop_assert!((got - reference).abs() <= tol * (1.0 + reference.abs()),
                "{isa:?} k={}: {got} vs {reference}", a.cols());
            let scalar = dot_force(Isa::Scalar, a.data(), b.data());
            prop_assert_eq!(got.to_bits(), scalar.to_bits(), "{:?} k={}", isa, a.cols());
        }
    }

    /// The packed GEMM with fused epilogue (accumulate/bias/activation in
    /// one output pass) matches the unfused scalar reference on every tier,
    /// shape, activation, and epilogue combination. Activations tolerate
    /// the vector tiers' polynomial tanh/sigmoid approximations.
    #[test]
    fn forced_isa_packed_gemm_fused_epilogue_matches_reference(
        ((a, w), prev_seed) in ((1usize..33, 1usize..33, 1usize..33)
            .prop_flat_map(|(m, k, n)| (kernel_matrix(m, k), kernel_matrix(k, n))), 0u64..1000)
    ) {
        let (m, k, n) = (a.rows(), a.cols(), w.cols());
        let packed = PackedGemm::pack(&w);
        let gemm = matmul_naive(&a, &w);
        let mut init = Initializer::new(prev_seed);
        let prev = init.normal(m, n, 1.0);
        let bias = init.normal(1, n, 1.0);
        let mut out = vec![0f32; m * n];
        for isa in Isa::supported() {
            for act in [Activation::Identity, Activation::Relu, Activation::Tanh, Activation::Sigmoid] {
                for accumulate in [false, true] {
                    for with_bias in [false, true] {
                        out.copy_from_slice(prev.data());
                        let b = with_bias.then(|| bias.data());
                        gemm_packed_force(isa, m, a.data(), &packed, accumulate, b, act, &mut out);
                        let reference = epilogue_naive(&gemm, prev.data(), accumulate, b, act);
                        for (idx, (x, y)) in out.iter().zip(&reference).enumerate() {
                            prop_assert!((x - y).abs() <= 2e-5 + 1e-5 * y.abs(),
                                "{isa:?} ({m}x{k}x{n}) {act:?} acc={accumulate} bias={with_bias} idx {idx}: {x} vs {y}");
                        }
                    }
                }
            }
        }
    }

    /// `A·Bᵀ` through the dispatched dot agrees with the naive reference
    /// under whatever tier the process selected (CI re-runs this binary
    /// with `QPS_FORCE_ISA` set to each tier).
    #[test]
    fn dot_matches_reference(
        (a, b) in (1usize..17, 1usize..33, 1usize..17)
            .prop_flat_map(|(m, k, n)| (kernel_matrix(m, k), kernel_matrix(n, k)))
    ) {
        let tol = 1e-5 * (a.cols() as f32).sqrt().max(1.0);
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let got = dot(a.row_slice(i), b.row_slice(j));
                let reference: f32 = a.row_slice(i).iter().zip(b.row_slice(j))
                    .fold(0.0f32, |acc, (&x, &y)| x.mul_add(y, acc));
                prop_assert!((got - reference).abs() <= tol * (1.0 + reference.abs()),
                    "({i},{j}): {got} vs {reference}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tape oracle for a shared weight. One weight read `k` times (as the
    /// plan LSTM reads its cell once per level), under one- and
    /// multi-row left-hand sides, with the first and last use coupled in the
    /// loss, gets bitwise the gradient of the same graph with one parameter
    /// per use, those summed in reverse use order: what the tape computed
    /// when every leaf held its own copy of the weight.
    #[test]
    fn shared_weight_gradient_is_bitwise_the_per_use_sum(
        d in 1usize..6,
        rows in proptest::collection::vec(1usize..4, 1..7),
        seed in 0u64..1000,
    ) {
        let k = rows.len();
        let mut init = Initializer::new(seed);
        let w0 = init.normal(d, d, 0.5);
        let inputs: Vec<Tensor> = rows.iter().map(|&r| init.normal(r, d, 1.0)).collect();
        let coefs: Vec<Tensor> = rows.iter().map(|&r| init.normal(r, d, 1.0)).collect();
        // Use `u` reads `ids[u]`; consecutive uses with equal row counts
        // chain through tanh, like LSTM steps.
        let grads = |store: &ParamStore, ids: &[ParamId]| {
            let mut g = Graph::new(store);
            let mut ys: Vec<Var> = Vec::with_capacity(k);
            let mut loss = g.scalar(0.0);
            for u in 0..k {
                let lhs = match ys.last() {
                    Some(&prev) if rows[u - 1] == rows[u] => g.tanh(prev),
                    _ => g.constant(inputs[u].clone()),
                };
                let y = g.linear(&lhs, ids[u], None, Activation::Identity);
                let c = g.constant(coefs[u].clone());
                let t = g.mul(y, c);
                let t = g.sum_all(t);
                loss = g.add(loss, t);
                ys.push(y);
            }
            let (first, last) = (g.sum_all(ys[0]), g.sum_all(ys[k - 1]));
            let q = g.mul(first, last);
            let loss = g.add(loss, q);
            g.backward(loss).1
        };
        let mut shared = ParamStore::new();
        let w = shared.register("w", w0.clone());
        let got = grads(&shared, &vec![w; k]);
        let got = got.get(w).expect("w is on the tape");
        let mut per_use = ParamStore::new();
        let ids: Vec<ParamId> =
            (0..k).map(|u| per_use.register(format!("w{u}"), w0.clone())).collect();
        let parts = grads(&per_use, &ids);
        let part = |id: &ParamId| parts.get(*id).expect("every use is on the tape");
        let mut want = part(&ids[k - 1]).clone();
        for id in ids[..k - 1].iter().rev() {
            want.add_assign(part(id));
        }
        for (a, b) in got.data().iter().zip(want.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// Trees over node rows, children before parents: `kids[r]` are row `r`'s
/// children, `owner[r]` its tree, `roots[t]` tree `t`'s root.
struct Forest {
    kids: Vec<Vec<usize>>,
    owner: Vec<usize>,
    roots: Vec<usize>,
}

/// Full binary trees of `leaves[t]` leaves each, trees back to back: each
/// tree's leaves, then its joins, two subtrees picked by `seed`.
fn forest(leaves: &[usize], mut seed: u64) -> Forest {
    let mut pick = |n: usize| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (seed >> 33) as usize % n
    };
    let (mut kids, mut owner, mut roots) = (Vec::new(), Vec::new(), Vec::new());
    for (t, &n) in leaves.iter().enumerate() {
        let mut open: Vec<usize> = (kids.len()..kids.len() + n).collect();
        kids.extend(std::iter::repeat_n(Vec::new(), n));
        owner.extend(std::iter::repeat_n(t, n));
        while open.len() > 1 {
            let a = open.swap_remove(pick(open.len()));
            let b = open.swap_remove(pick(open.len()));
            open.push(kids.len());
            kids.push(vec![a, b]);
            owner.push(t);
        }
        roots.push(open[0]);
    }
    Forest { kids, owner, roots }
}

/// Raw row picks for `gather` from two sources and a constant row:
/// `(source, row)` with source 0, 1 or 2 (the constant), the row taken
/// modulo its source's height, repeats allowed.
fn picks() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..3, 0usize..64), 1..9)
}

/// `value` equals `want` bit for bit, on every tier: the references below
/// run the activation polynomial every tier runs.
fn bitwise(value: &Tensor, want: &Tensor) -> Result<(), String> {
    prop_assert_eq!(value.shape(), want.shape());
    for (a, b) in value.data().iter().zip(want.data()) {
        prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
    }
    Ok(())
}

/// `sum(tanh(y) ⊙ coef)`: a loss that weights every output differently.
fn weighted_loss(g: &mut Graph, y: Var, coef: &Tensor) -> Var {
    let t = g.tanh(y);
    let c = g.constant(coef.clone());
    let y = g.mul(t, c);
    g.sum_all(y)
}

const ACTS: [Activation; 4] =
    [Activation::Identity, Activation::Relu, Activation::Tanh, Activation::Sigmoid];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `gather` copies each picked row — a variable's or a constant's —
    /// and its scatter-add backward matches finite differences for both
    /// variables, with rows picked several times or not at all.
    #[test]
    fn gather_values_and_gradcheck(
        (ra, rb, cols) in (1usize..4, 1usize..4, 1usize..5),
        seed in 0u64..1000,
        raw in picks(),
    ) {
        let height = [ra, rb, 1];
        let rows: Vec<(usize, usize)> = raw.iter().map(|&(s, r)| (s, r % height[s])).collect();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(seed);
        let a = store.register("a", init.normal(ra, cols, 1.0));
        let b = store.register("b", init.normal(rb, cols, 1.0));
        let fixed = init.normal(1, cols, 1.0);
        let coef = init.normal(rows.len(), cols, 1.0);
        let gathered = |g: &mut Graph| {
            let (av, bv) = (g.param(a), g.param(b));
            let picked = rows.iter().map(|&pick| match pick {
                (0, r) => Row::Of(&av, r),
                (1, r) => Row::Of(&bv, r),
                _ => Row::Const(fixed.data()),
            });
            g.gather(rows.len(), cols, picked)
        };
        let mut g = Graph::new(&store);
        let x = gathered(&mut g);
        for (i, &(s, r)) in rows.iter().enumerate() {
            let src = [store.value(a), store.value(b), &fixed][s];
            prop_assert_eq!(g.value(x).row_slice(i), src.row_slice(r));
        }
        for id in [a, b] {
            let report = check_gradient(&mut store, id, 1e-2, |g| {
                let x = gathered(g);
                weighted_loss(g, x, &coef)
            });
            prop_assert!(report.passes(2e-2), "{:?}", report);
        }
    }

    /// `pool` row `s` is bitwise a plain loop over segment `s`: the sum of
    /// `w_r·x_r` in row order from zero, then times `scales[s]` (zero for an
    /// empty segment), unweighted and unscaled, as a mean, and weighted and
    /// scaled. The backward matches finite differences.
    #[test]
    fn pool_values_and_gradcheck(
        lens in proptest::collection::vec(0usize..4, 1..5),
        cols in 1usize..5,
        seed in 0u64..1000,
    ) {
        // At least one row; later segments may be empty.
        let mut lens = lens;
        lens[0] += 1;
        let n: usize = lens.iter().sum();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(seed);
        let x = store.register("x", init.normal(n, cols, 1.0));
        let coef = init.normal(lens.len(), cols, 1.0);
        // Every third row weighs nothing.
        let weights: Vec<f32> = (0..n).map(|r| if r % 3 == 2 { 0.0 } else { 0.5 + r as f32 }).collect();
        let scales: Vec<f32> = lens.iter().map(|&l| 1.0 / l.max(1) as f32).collect();
        let ones = vec![1.0; lens.len()];
        let pooled = |g: &mut Graph, w: Option<&[f32]>, scales: &[f32]| {
            let xv = g.param(x);
            let rows = (0..n).map(|r| Row::Of(&xv, r));
            g.pool(rows, w, &lens, scales, cols)
        };
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let xs = store.value(x);
        for (w, sc) in [(None, &ones), (None, &scales), (Some(&weights[..]), &scales)] {
            let mut g = Graph::new(&store);
            let got = pooled(&mut g, w, sc);
            let mut row = 0;
            for (s, &len) in lens.iter().enumerate() {
                let mut want = vec![0.0f32; cols];
                for r in row..row + len {
                    let wr = w.map_or(1.0, |w| w[r]);
                    for (a, v) in want.iter_mut().zip(xs.row_slice(r)) {
                        *a += v * wr;
                    }
                }
                want.iter_mut().for_each(|a| *a *= sc[s]);
                prop_assert_eq!(bits(g.value(got).row_slice(s)), bits(&want), "segment {}", s);
                row += len;
            }
        }
        let report = check_gradient(&mut store, x, 1e-2, |g| {
            let m = pooled(g, Some(&weights), &scales);
            weighted_loss(g, m, &coef)
        });
        prop_assert!(report.passes(2e-2), "{:?}", report);
    }

    /// The fused `linear` against the ops it replaces, `act(x·W + b)` as a
    /// matmul, a bias broadcast and the activation; its gradients against
    /// finite differences.
    #[test]
    fn fused_linear_matches_composition_and_gradcheck(
        (rows, i, o) in small_dims(),
        act in 0usize..4,
        seed in 0u64..500,
    ) {
        let act = ACTS[act];
        let mut store = ParamStore::new();
        let mut init = Initializer::new(seed);
        let layer = Linear::new(&mut store, &mut init, "l", i, o);
        *store.value_mut(layer.b) = init.normal(1, o, 0.5);
        let x = store.register("x", init.normal(rows, i, 1.0));
        let coef = init.normal(rows, o, 1.0);
        let mut g = Graph::new(&store);
        let xv = g.param(x);
        let fused = layer.forward(&mut g, &xv, act);
        let mut y = store.value(x).matmul(store.value(layer.w));
        for r in 0..rows {
            let b = store.value(layer.b).data();
            y.row_slice_mut(r).iter_mut().zip(b).for_each(|(y, b)| *y += b);
        }
        if act == Activation::Relu {
            y.data_mut().iter_mut().for_each(|y| *y = y.max(0.0));
        }
        activate(act, y.data_mut());
        bitwise(g.value(fused), &y)?;
        for id in [layer.w, layer.b, x] {
            let report = check_gradient(&mut store, id, 1e-2, |g| {
                let xv = g.param(x);
                let y = layer.forward(g, &xv, act);
                weighted_loss(g, y, &coef)
            });
            // A relu kink inside the finite difference's step is not a fault.
            prop_assert!(act == Activation::Relu || report.passes(2e-2), "{:?}", report);
        }
    }

    /// Two folded LSTM steps — the own term `own·W_own + b`, then `own +
    /// h·W_fold` and the gates — against the ops they replace: the own
    /// projection as a matmul and a bias broadcast, `W_fold` summed from
    /// `W_hh` and `W_ih`'s child-slot rows, a second matmul, an add, four
    /// gate slices, the activations and the cell update. Gradients into
    /// every weight and the initial state against finite differences. And
    /// `W_ih`'s estimate rows take both gradient paths: on one row and one
    /// step, `W_ih`'s gradient is the outer product of the assembled input
    /// `x = [h[..child] | mid | h[child..] + est]` with the gates' gradient,
    /// so its estimate rows carry `est + h`'s tail.
    #[test]
    fn folded_lstm_step_matches_composition_and_gradcheck(
        (rows, d, child, mid) in (1usize..4, 1usize..5)
            .prop_flat_map(|(rows, d)| (Just(rows), Just(d), 0..=d, 0usize..3)),
        seed in 0u64..500,
    ) {
        let input = d + mid;
        let mut store = ParamStore::new();
        let mut init = Initializer::new(seed);
        let cell = LstmCell::new(&mut store, &mut init, "l", input, d, child);
        let (h0, c0) = (store.register("h0", init.normal(rows, d, 1.0)), store.register("c0", init.normal(rows, d, 1.0)));
        let owns = [init.normal(rows, cell.own_dim(), 1.0), init.normal(rows, cell.own_dim(), 1.0)];
        let coef = init.normal(rows, 2 * d, 1.0);
        let fused = |g: &mut Graph| {
            let mut s = LstmState { h: g.param(h0), c: g.param(c0) };
            for own in &owns {
                let ov = g.constant(own.clone());
                let proj = cell.project(g, &ov);
                s = cell.step(g, &proj, &s);
            }
            s
        };
        let mut g = Graph::new(&store);
        let got = fused(&mut g);
        let (w_ih, n) = (store.value(cell.w_ih), 4 * d);
        let w_own = Tensor::from_vec(cell.own_dim(), n, w_ih.data()[child * n..].to_vec());
        let mut fold = store.value(cell.w_hh).clone();
        for j in 0..d {
            let src = if j < child { j } else { input - d + j };
            for k in 0..n {
                fold.set(j, k, fold.get(j, k) + w_ih.get(src, k));
            }
        }
        let (mut h, mut c) = (store.value(h0).clone(), store.value(c0).clone());
        for own in &owns {
            // gates = h·W_fold + (own·W_own + b), then the gate kernel.
            let mut proj = own.matmul(&w_own);
            for r in 0..rows {
                let b = store.value(cell.bias).data();
                proj.row_slice_mut(r).iter_mut().zip(b).for_each(|(v, b)| *v += b);
            }
            let mut gates = h.matmul(&fold);
            gates.add_assign(&proj);
            let c_prev = c.clone();
            lstm_gates(rows, d, gates.data(), c_prev.data(), c.data_mut(), h.data_mut());
        }
        bitwise(g.value(got.h), &h)?;
        bitwise(g.value(got.c), &c)?;
        for id in [cell.w_ih, cell.w_hh, cell.bias, h0, c0] {
            let report = check_gradient(&mut store, id, 1e-2, |g| {
                let s = fused(g);
                let hc = g.concat(&[(&s.h, 0..d), (&s.c, 0..d)]);
                weighted_loss(g, hc, &coef)
            });
            prop_assert!(report.passes(2e-2), "{}: {:?}", store.get(id).name, report);
        }
        // One row, one step: d(loss)/dW_ih = xᵀ·dg and d(loss)/dW_hh = hᵀ·dg,
        // with dg the bias gradient.
        let row = |t: &Tensor| Tensor::row(t.row_slice(0).to_vec());
        let (h1, c1, own1) = (row(store.value(h0)), row(store.value(c0)), row(&owns[0]));
        let mut g = Graph::new(&store);
        let s = LstmState { h: g.constant(h1.clone()), c: g.constant(c1) };
        let ov = g.constant(own1.clone());
        let proj = cell.project(&mut g, &ov);
        let s = cell.step(&mut g, &proj, &s);
        let hc = g.concat(&[(&s.h, 0..d), (&s.c, 0..d)]);
        let loss = weighted_loss(&mut g, hc, &row(&coef));
        let (_, grads) = g.backward(loss);
        let dg = grads.get(cell.bias).expect("the bias takes a gradient").data().to_vec();
        let (hr, or) = (h1.data(), own1.data());
        let x: Vec<(f32, f32)> = (0..input)
            .map(|k| match k {
                k if k < child => (hr[k], 0.0),
                k if k < input - d + child => (0.0, or[k - child]),
                k => (hr[k - (input - d)], or[k - child]),
            })
            .collect();
        let (gi, gh) = (grads.get(cell.w_ih).expect("W_ih"), grads.get(cell.w_hh).expect("W_hh"));
        for (k, &(from_h, from_own)) in x.iter().enumerate() {
            for (j, &dgj) in dg.iter().enumerate() {
                let want = (from_h + from_own) * dgj;
                let tol = 1e-5 * (1.0 + (from_h * dgj).abs() + (from_own * dgj).abs());
                prop_assert!((gi.get(k, j) - want).abs() <= tol, "W_ih[{}][{}]: {} vs {}", k, j, gi.get(k, j), want);
            }
        }
        for (k, &hk) in hr.iter().enumerate() {
            for (j, &dgj) in dg.iter().enumerate() {
                prop_assert!((gh.get(k, j) - hk * dgj).abs() <= 1e-5 * (1.0 + (hk * dgj).abs()));
            }
        }
    }

    /// Subtree attention — the keyed query `q·Wᵀ` per head, each node's
    /// logit, the states merged bottom-up over a random forest, each root's
    /// context — against the ops it replaces: per tree and head the flat
    /// `softmax(q·Wᵀ·xᵢ/√d)·V` over the tree's nodes as matmuls (within
    /// 1e-4: the sums run in another order, and `exp` is the polynomial);
    /// gradients into the queries, the key weights, the nodes and the
    /// values against finite differences.
    #[test]
    fn fused_subtree_attention_matches_flat_softmax_and_gradcheck(
        (trees, d, k) in small_dims(),
        (heads, dv) in (1usize..3, 1usize..4),
        leaves in proptest::collection::vec(1usize..5, 4),
        seed in 0u64..500,
    ) {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(seed);
        let f = forest(&leaves[..trees], seed);
        let rows = f.kids.len();
        let q = store.register("q", init.normal(trees, heads * d, 1.0));
        let ws: Vec<ParamId> =
            (0..heads).map(|h| store.register(format!("w{h}"), init.normal(k, d, 0.5))).collect();
        let x = store.register("x", init.normal(rows, k, 1.0));
        let v = store.register("v", init.normal(rows, heads * dv, 1.0));
        let coef = init.normal(trees, heads * dv, 1.0);
        let scale = 1.0 / (d as f32).sqrt();
        let fused = |g: &mut Graph| {
            let (qv, xv, vv) = (g.param(q), g.param(x), g.param(v));
            let keyed = g.heads_t(&qv, &ws);
            let logits = g.logits(f.owner.iter().map(|&t| Row::Of(&keyed, t)), &xv, heads, scale);
            let kids: Vec<Kid> = f.kids.iter().flatten().map(|&j| Kid::Row(j)).collect();
            let lens: Vec<usize> = f.kids.iter().map(Vec::len).collect();
            let states = g.merge(&logits, &vv, &kids, &lens);
            g.context(heads, f.roots.iter().map(|&r| Row::Of(&states, r)))
        };
        let mut g = Graph::new(&store);
        let got = fused(&mut g);
        for t in 0..trees {
            let members: Vec<usize> = (0..rows).filter(|&r| f.owner[r] == t).collect();
            for (h, &wh) in ws.iter().enumerate() {
                let qh = Tensor::from_vec(1, d, store.value(q).row_slice(t)[h * d..(h + 1) * d].to_vec());
                let keyed = qh.matmul(&store.value(wh).transposed());
                let pick = |id: ParamId, at: usize, w: usize| {
                    let data = members.iter().flat_map(|&r| store.value(id).row_slice(r)[at..at + w].to_vec());
                    Tensor::from_vec(members.len(), w, data.collect())
                };
                let s = keyed.matmul(&pick(x, 0, k).transposed()).map(|z| z * scale);
                let max = s.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let e = s.map(|z| (z - max).exp());
                let p = e.map(|z| z / e.sum());
                let want = p.matmul(&pick(v, h * dv, dv));
                let row = &g.value(got).row_slice(t)[h * dv..(h + 1) * dv];
                for (a, b) in row.iter().zip(want.data()) {
                    prop_assert!((a - b).abs() <= 1e-4 * (1.0 + b.abs()), "tree {} head {}: {} vs {}", t, h, a, b);
                }
            }
        }
        for id in [q, ws[0], x, v] {
            let report = check_gradient(&mut store, id, 1e-2, |g| {
                let y = fused(g);
                weighted_loss(g, y, &coef)
            });
            prop_assert!(report.passes(2e-2), "{}: {:?}", store.get(id).name, report);
        }
    }

    /// The VAE's `sample` against the ops it replaces, `mu + eps ⊙
    /// exp(0.5 · 8 · tanh(raw))` (bitwise on every tier: both are libm), with
    /// two draws per row, sample-major; its gradient against finite
    /// differences.
    #[test]
    fn fused_sample_matches_composition_and_gradcheck(
        (rows, latent) in (1usize..4, 1usize..4),
        seed in 0u64..500,
    ) {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(seed);
        let h = store.register("h", init.normal(rows, 2 * latent, 1.0));
        let eps: Vec<Tensor> = (0..rows).map(|_| init.standard_normal(2, latent)).collect();
        let coef = init.normal(2 * rows, latent, 1.0);
        let sampled = |g: &mut Graph| {
            let hv = g.param(h);
            let eps: Vec<&[f32]> = eps.iter().map(Tensor::data).collect();
            g.sample(&hv, latent, &eps)
        };
        let mut g = Graph::new(&store);
        let got = sampled(&mut g);
        let hv = g.param(h);
        let mu = g.concat(&[(&hv, 0..latent)]);
        let raw = g.concat(&[(&hv, latent..2 * latent)]);
        let t = g.tanh(raw);
        let logvar = g.scale(t, 8.0);
        let half = g.scale(logvar, 0.5);
        let std = g.exp(half);
        for s in 0..2 {
            let e = eps.iter().flat_map(|t| t.row_slice(s).to_vec()).collect();
            let e = g.constant(Tensor::from_vec(rows, latent, e));
            let noise = g.mul(e, std);
            let z = g.add(mu, noise);
            for r in 0..rows {
                let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(g.value(got).row_slice(s * rows + r)), bits(g.value(z).row_slice(r)));
            }
        }
        let report = check_gradient(&mut store, h, 1e-2, |g| {
            let z = sampled(g);
            weighted_loss(g, z, &coef)
        });
        prop_assert!(report.passes(2e-2), "{:?}", report);
    }
}

/// Finite differences through a 3-step chain of one shared `LstmCell`:
/// each of its weights collects three leaves' contributions.
#[test]
fn lstm_chain_sharing_one_cell_passes_gradcheck() {
    let mut store = ParamStore::new();
    let mut init = Initializer::new(5);
    let cell = LstmCell::new(&mut store, &mut init, "l", 3, 2, 1);
    let xs: Vec<Tensor> = (0..3).map(|t| Initializer::new(10 + t).normal(1, 2, 1.0)).collect();
    for id in [cell.w_ih, cell.w_hh, cell.bias] {
        let report = check_gradient(&mut store, id, 1e-2, |g| {
            let mut s = cell.zero_state(g, 1);
            for x in &xs {
                let xv = g.constant(x.clone());
                let own = cell.project(g, &xv);
                s = cell.step(g, &own, &s);
            }
            let hc = g.concat(&[(&s.h, 0..2), (&s.c, 0..2)]);
            let sq = g.mul(hc, hc);
            g.sum_all(sq)
        });
        assert!(report.passes(2e-2), "{}: {report:?}", store.get(id).name);
    }
}
