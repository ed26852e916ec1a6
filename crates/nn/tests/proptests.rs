//! Property-based tests for the tensor and autograd layers.

use proptest::prelude::*;
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

    /// Softmax rows always sum to 1 and are positive, regardless of input scale.
    #[test]
    fn softmax_rows_is_a_distribution(t in tensor(3, 5), scale in 0.1f32..20.0) {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let x = g.constant(t.map(|v| v * scale));
        let y = g.softmax_rows(x);
        let out = g.value(y);
        for r in 0..out.rows() {
            let row = out.row_slice(r);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| p >= 0.0));
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
        let y = layer.forward(&mut g, xv);
        let sq = g.mul(y, y);
        let loss = g.mean_all(sq);
        let analytic = g.backward(loss).1.get(layer.w).expect("w is on the tape").clone();

        let eps = 1e-2f32;
        for idx in 0..store.value(layer.w).len() {
            let orig = store.value(layer.w).data()[idx];
            let eval = |store: &ParamStore| {
                let mut g = Graph::new(store);
                let xv = g.constant(x.clone());
                let y = layer.forward(&mut g, xv);
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

    /// Reparameterized samples have roughly the statistics N(mu, sigma²).
    #[test]
    fn reparameterization_statistics(mu in -1.0f32..1.0, logvar in -1.0f32..1.0) {
        let n = 4000;
        let mut init = Initializer::new(99);
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let muv = g.constant(Tensor::filled(n, 1, mu));
        let lv = g.constant(Tensor::filled(n, 1, logvar));
        let eps = g.constant(init.standard_normal(n, 1));
        let z = g.reparameterize(muv, lv, eps);
        let vals = g.value(z);
        let mean = vals.mean();
        let var = vals.data().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        prop_assert!((mean - mu).abs() < 0.1, "mean {} vs mu {}", mean, mu);
        prop_assert!((var - logvar.exp()).abs() < 0.25 * logvar.exp().max(1.0),
            "var {} vs sigma² {}", var, logvar.exp());
    }

    /// stack_rows ∘ slice recovers the original parts (graph shape ops are lossless).
    #[test]
    fn stack_then_split_roundtrip(a in tensor(2, 3), b in tensor(3, 3)) {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let av = g.constant(a.clone());
        let bv = g.constant(b.clone());
        let s = g.stack_rows(&[av, bv]);
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

    /// Every dot-product tier agrees with a mul_add reference.
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
    /// multi-row left-hand sides, next to one matmul whose right-hand side
    /// is not a parameter, gets bitwise the gradient of the same graph with
    /// one parameter per use, those summed in reverse use order: what the
    /// tape computed when every leaf held its own copy of the weight.
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
                let wv = g.param(ids[u]);
                let y = g.matmul(lhs, wv);
                let c = g.constant(coefs[u].clone());
                let t = g.mul(y, c);
                let t = g.sum_all(t);
                loss = g.add(loss, t);
                ys.push(y);
            }
            let y0t = g.transpose(ys[0]);
            let q = g.matmul(ys[k - 1], y0t);
            let q = g.sum_all(q);
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

/// Raw row picks for `gather_rows` from two sources: `(from_b, row)`, the
/// row taken modulo its source's height, repeats allowed.
fn picks() -> impl Strategy<Value = Vec<(bool, usize)>> {
    proptest::collection::vec((prop::bool::ANY, 0usize..64), 1..9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `gather_rows` copies each picked source row; its scatter-add
    /// backward matches finite differences for both sources, with rows
    /// picked several times or not at all.
    #[test]
    fn gather_rows_values_and_gradcheck(
        (ra, rb, cols) in (1usize..4, 1usize..4, 1usize..5),
        seed in 0u64..1000,
        raw in picks(),
    ) {
        let rows: Vec<(bool, usize)> =
            raw.iter().map(|&(b, r)| (b, if b { r % rb } else { r % ra })).collect();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(seed);
        let a = store.register("a", init.normal(ra, cols, 1.0));
        let b = store.register("b", init.normal(rb, cols, 1.0));
        let coef = init.normal(rows.len(), cols, 1.0);
        let build = |g: &mut Graph| {
            let (av, bv) = (g.param(a), g.param(b));
            let picked: Vec<(Var, usize)> =
                rows.iter().map(|&(from_b, r)| (if from_b { bv } else { av }, r)).collect();
            let x = g.gather_rows(&picked);
            let t = g.tanh(x);
            let c = g.constant(coef.clone());
            let y = g.mul(t, c);
            g.sum_all(y)
        };
        let mut g = Graph::new(&store);
        let (av, bv) = (g.param(a), g.param(b));
        let picked: Vec<(Var, usize)> =
            rows.iter().map(|&(from_b, r)| (if from_b { bv } else { av }, r)).collect();
        let x = g.gather_rows(&picked);
        for (i, &(from_b, r)) in rows.iter().enumerate() {
            let src = store.value(if from_b { b } else { a });
            prop_assert_eq!(g.value(x).row_slice(i), src.row_slice(r));
        }
        for id in [a, b] {
            let report = check_gradient(&mut store, id, 1e-2, build);
            prop_assert!(report.passes(2e-2), "{:?}", report);
        }
    }

    /// `segment_sum` row `s` is bitwise `sum_rows` of segment `s` alone and
    /// `segment_mean` is that sum scaled by `1 / len` (zero for an empty
    /// segment); both backwards match finite differences.
    #[test]
    fn segment_sum_and_mean_values_and_gradcheck(
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
        let mut g = Graph::new(&store);
        let xv = g.param(x);
        let sum = g.segment_sum(xv, &lens);
        let mean = g.segment_mean(xv, &lens);
        let mut row = 0;
        for (s, &len) in lens.iter().enumerate() {
            let want = if len == 0 {
                Tensor::zeros(1, cols)
            } else {
                let seg = Tensor::from_vec(
                    len,
                    cols,
                    store.value(x).data()[row * cols..(row + len) * cols].to_vec(),
                );
                let mut h = Graph::new(&store);
                let sv = h.constant(seg);
                let sv = h.sum_rows(sv);
                h.value(sv).clone()
            };
            let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(g.value(sum).row_slice(s)), bits(want.data()));
            let inv = 1.0 / len.max(1) as f32;
            let scaled: Vec<f32> = want.data().iter().map(|v| v * inv).collect();
            prop_assert_eq!(bits(g.value(mean).row_slice(s)), bits(&scaled));
            row += len;
        }
        let report = check_gradient(&mut store, x, 1e-2, |g| {
            let xv = g.param(x);
            let m = g.segment_mean(xv, &lens);
            let t = g.tanh(m);
            let c = g.constant(coef.clone());
            let y = g.mul(t, c);
            let s = g.segment_sum(xv, &lens);
            let sq = g.mul(s, s);
            let y = g.add(y, sq);
            g.sum_all(y)
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
    let cell = LstmCell::new(&mut store, &mut init, "l", 3, 2);
    let xs: Vec<Tensor> = (0..3).map(|t| Initializer::new(10 + t).normal(1, 3, 1.0)).collect();
    for id in [cell.w_ih, cell.w_hh, cell.bias] {
        let report = check_gradient(&mut store, id, 1e-2, |g| {
            let mut s = cell.zero_state(g, 1);
            for x in &xs {
                let xv = g.constant(x.clone());
                s = cell.step(g, xv, s);
            }
            let hc = g.concat_cols(s.h, s.c);
            let sq = g.mul(hc, hc);
            g.sum_all(sq)
        });
        assert!(report.passes(2e-2), "{}: {report:?}", store.get(id).name);
    }
}
