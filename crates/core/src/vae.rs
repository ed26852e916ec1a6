//! The Cost Modeler (§4.4): a β-VAE over the joint (query ‖ plan) embedding.
//!
//! The encoder halves the width over `vae_layers` hidden layers down to
//! `2·latent` (first half mean, second half log-variance, Fig. 4); the
//! decoder mirrors it back up; a final linear head maps the reconstruction
//! to the three normalized targets (cardinality, cost, runtime).

use crate::config::ModelConfig;
use qpseeker_nn::prelude::*;

#[derive(Debug, Clone)]
pub(crate) struct CostModeler {
    pub encoder: Mlp,
    pub decoder: Mlp,
    /// Reconstruction → 3 target estimates.
    pub head: Linear,
    pub latent: usize,
}

/// One forward pass through the VAE.
pub(crate) struct VaeOutput<T> {
    /// `[K, 2·latent]`: each row's latent mean, then its raw log-variance.
    pub h: T,
    pub reconstruction: T,
    /// `[K, 3]` normalized target predictions (`[S·K, 3]` when sampled).
    pub predictions: T,
}

impl CostModeler {
    pub(crate) fn new(store: &mut ParamStore, init: &mut Initializer, cfg: &ModelConfig) -> Self {
        let enc_dims = cfg.vae_encoder_dims();
        let dec_dims = cfg.vae_decoder_dims();
        Self {
            encoder: Mlp::new(
                store,
                init,
                "vae.enc",
                &enc_dims,
                Activation::Relu,
                Activation::Identity,
            ),
            decoder: Mlp::new(
                store,
                init,
                "vae.dec",
                &dec_dims,
                Activation::Relu,
                Activation::Identity,
            ),
            head: Linear::new(store, init, "vae.head", *dec_dims.last().expect("dims"), 3),
            latent: cfg.vae_latent,
        }
    }

    /// The VAE over `x [K, joint_dim]` rows.
    ///
    /// `eps = None` is deterministic mean scoring (`z = mu`): the
    /// log-variance head is never evaluated. `eps = Some(blocks)` samples
    /// row `r` against its own standard-normal draws `blocks[r]` (`S` rows
    /// of `latent`, the same `S` for every row — training draws one per
    /// sample, rows fused from different queries carry different draws):
    /// `z = mu + exp(0.5 · logvar) ∘ eps` with the log-variance soft-bounded
    /// to `8 · tanh(raw)`, sample-major (row `s·K + r` is row `r` under
    /// sample `s`).
    ///
    /// Every GEMM is row-wise bitwise equal at any batch size and the
    /// reparameterization is elementwise, so a row's predictions are
    /// bitwise identical whether it is scored alone, in a batch, or in any
    /// partition of a batch — the determinism plan choice relies on.
    pub(crate) fn forward<E: Exec>(
        &self,
        e: &mut E,
        x: &E::T,
        eps: Option<&[&[f32]]>,
    ) -> VaeOutput<E::T> {
        let h = self.encoder.forward(e, x);
        let z = match eps {
            None => e.concat(&[(&h, 0..self.latent)]),
            Some(eps) => e.sample(&h, self.latent, eps),
        };
        let reconstruction = self.decoder.forward(e, &z);
        e.recycle(z);
        let predictions = self.head.forward(e, &reconstruction, Activation::Identity);
        VaeOutput { h, reconstruction, predictions }
    }

    /// The paper's loss (formula 5) plus prediction MSE:
    /// `pred_mse + recon_mse + β · KL` with KL averaged per latent element
    /// so that the paper's β ∈ {100, 200, 300} stays in a workable range.
    pub(crate) fn loss(
        &self,
        g: &mut Graph,
        out: &VaeOutput<Var>,
        x: Var,
        targets: Var,
        beta: f64,
    ) -> (Var, Var, Var, Var) {
        let mu = g.concat(&[(&out.h, 0..self.latent)]);
        let raw = g.concat(&[(&out.h, self.latent..2 * self.latent)]);
        let bounded = g.tanh(raw);
        let logvar = g.scale(bounded, 8.0);
        let recon = g.mse(out.reconstruction, x);
        let pred = g.mse(out.predictions, targets);
        let kl_sum = g.kl_standard_normal(mu, logvar);
        // Per-element KL (divide by latent width) keeps β≈100 comparable to
        // the MSE scale.
        let kl = g.scale(kl_sum, 1.0 / self.latent as f32);
        let weighted_kl = g.scale(kl, beta as f32 * 1e-3);
        let s1 = g.add(recon, pred);
        let total = g.add(s1, weighted_kl);
        (total, recon, pred, kl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(cfg: &ModelConfig) -> (ParamStore, CostModeler) {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(1);
        let vae = CostModeler::new(&mut store, &mut init, cfg);
        (store, vae)
    }

    /// Row `r`'s draws: row `r` of `eps`, one sample per row.
    fn per_row(eps: &Tensor) -> Vec<&[f32]> {
        (0..eps.rows()).map(|r| eps.row_slice(r)).collect()
    }

    /// Predictions of `x` on the serving executor.
    fn serve(vae: &CostModeler, store: &ParamStore, x: &Tensor, eps: Option<&[&[f32]]>) -> Tensor {
        let mut arena = ScratchArena::new();
        vae.forward(&mut Scratch { store, arena: &mut arena }, x, eps).predictions
    }

    #[test]
    fn forward_shapes() {
        let cfg = ModelConfig::small();
        let (store, vae) = setup(&cfg);
        let mut g = Graph::new(&store);
        let mut init = Initializer::new(2);
        let x = g.constant(init.normal(4, cfg.joint_dim(), 1.0));
        let eps = init.standard_normal(4, cfg.vae_latent);
        let out = vae.forward(&mut g, &x, Some(&per_row(&eps)));
        assert_eq!(g.value(out.h).shape(), (4, 2 * cfg.vae_latent));
        assert_eq!(g.value(out.reconstruction).shape(), (4, cfg.joint_dim()));
        assert_eq!(g.value(out.predictions).shape(), (4, 3));
    }

    /// Even from extreme inputs, a draw lies between `e^-4 · |eps|` and
    /// `e^4 · |eps|` from the mean: the log-variance is soft-bounded to
    /// [-8, 8].
    #[test]
    fn logvar_is_bounded() {
        let cfg = ModelConfig::small();
        let (store, vae) = setup(&cfg);
        let mut g = Graph::new(&store);
        let mut init = Initializer::new(3);
        let x = g.constant(init.normal(2, cfg.joint_dim(), 50.0)); // extreme inputs
        let h = vae.encoder.forward(&mut g, &x);
        let ones = vec![1.0; cfg.vae_latent];
        let z = g.sample(&h, cfg.vae_latent, &[&ones, &ones]);
        for r in 0..2 {
            for j in 0..cfg.vae_latent {
                let spread = (g.value(z).get(r, j) - g.value(h).get(r, j)).abs();
                assert!(spread <= 4f32.exp() * 1.0001, "row {r} lane {j}: {spread}");
                assert!(spread >= (-4f32).exp() * 0.9999, "row {r} lane {j}: {spread}");
            }
        }
    }

    #[test]
    fn zero_eps_makes_inference_deterministic() {
        let cfg = ModelConfig::small();
        let (store, vae) = setup(&cfg);
        let mut init = Initializer::new(4);
        let xt = init.normal(1, cfg.joint_dim(), 1.0);
        let run = |store: &ParamStore| {
            let mut g = Graph::new(store);
            let x = g.constant(xt.clone());
            let out = vae.forward(&mut g, &x, None);
            g.value(out.predictions).data().to_vec()
        };
        assert_eq!(run(&store), run(&store));
    }

    /// `x`'s rows `lo..hi` as their own tensor.
    fn rows_of(x: &Tensor, lo: usize, hi: usize) -> Tensor {
        Tensor::from_vec(hi - lo, x.cols(), x.data()[lo * x.cols()..hi * x.cols()].to_vec())
    }

    /// K rows in one call ≡ K one-row calls ≡ any partition into calls.
    #[test]
    fn mean_inference_rows_bitwise_equal_under_any_partition() {
        let cfg = ModelConfig::small();
        let (store, vae) = setup(&cfg);
        let mut init = Initializer::new(8);
        let x = init.normal(5, cfg.joint_dim(), 1.0);
        let whole = serve(&vae, &store, &x, None);
        assert_eq!(whole.shape(), (5, 3));
        for parts in [vec![0..1, 1..2, 2..3, 3..4, 4..5], vec![0..2, 2..5]] {
            for part in parts {
                let got = serve(&vae, &store, &rows_of(&x, part.start, part.end), None);
                for r in part.clone() {
                    assert_eq!(whole.row_slice(r), got.row_slice(r - part.start), "row {r}");
                }
            }
        }
    }

    #[test]
    fn sampled_inference_with_zero_eps_matches_mean_path() {
        let cfg = ModelConfig::small();
        let (store, vae) = setup(&cfg);
        let mut init = Initializer::new(9);
        let x = init.normal(3, cfg.joint_dim(), 1.0);
        let mean = serve(&vae, &store, &x, None);
        let eps = Tensor::zeros(2, cfg.vae_latent);
        let sampled = serve(&vae, &store, &x, Some(&[eps.data(); 3]));
        assert_eq!(sampled.shape(), (2 * 3, 3));
        for s in 0..2 {
            for k in 0..3 {
                assert_eq!(sampled.row_slice(s * 3 + k), mean.row_slice(k), "sample {s} row {k}");
            }
        }
    }

    /// The partition contract under sampling, with a *different* eps block
    /// per row (the cross-query fused case).
    #[test]
    fn sampled_inference_rows_bitwise_equal_under_any_partition() {
        let cfg = ModelConfig::small();
        let (store, vae) = setup(&cfg);
        let mut init = Initializer::new(10);
        let x = init.normal(4, cfg.joint_dim(), 1.0);
        let eps: Vec<Tensor> =
            (0..4).map(|r| Initializer::new(11 + r).standard_normal(3, cfg.vae_latent)).collect();
        let eps_refs: Vec<&[f32]> = eps.iter().map(Tensor::data).collect();
        let whole = serve(&vae, &store, &x, Some(&eps_refs));
        assert_eq!(whole.shape(), (3 * 4, 3));
        for parts in [vec![0..1, 1..2, 2..3, 3..4], vec![0..3, 3..4]] {
            for part in parts {
                let kp = part.len();
                let x_part = rows_of(&x, part.start, part.end);
                let got = serve(&vae, &store, &x_part, Some(&eps_refs[part.clone()]));
                for r in part.clone() {
                    for s in 0..3 {
                        assert_eq!(
                            whole.row_slice(s * 4 + r),
                            got.row_slice(s * kp + r - part.start),
                            "row {r} sample {s} differs"
                        );
                    }
                }
            }
        }
    }

    /// Sampling with non-zero eps on the serving executor is bitwise the
    /// tape's: row `r` under sample `s` equals training's forward fed
    /// `eps[s]` for every row.
    #[test]
    fn sampled_inference_matches_training_forward_with_same_eps() {
        let cfg = ModelConfig::small();
        let (store, vae) = setup(&cfg);
        let x = Initializer::new(12).normal(3, cfg.joint_dim(), 1.0);
        let eps = Initializer::new(13).standard_normal(4, cfg.vae_latent);
        let fast = serve(&vae, &store, &x, Some(&[eps.data(); 3]));
        for s in 0..4 {
            let mut g = Graph::new(&store);
            let xv = g.constant(x.clone());
            let out = vae.forward(&mut g, &xv, Some(&[eps.row_slice(s); 3]));
            let tape = g.value(out.predictions);
            for r in 0..3 {
                let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(fast.row_slice(s * 3 + r)),
                    bits(tape.row_slice(r)),
                    "sample {s} row {r}"
                );
            }
        }
    }

    #[test]
    fn loss_components_nonnegative_and_beta_scales_kl() {
        let cfg = ModelConfig::small();
        let (store, vae) = setup(&cfg);
        let mut init = Initializer::new(5);
        let xt = init.normal(3, cfg.joint_dim(), 1.0);
        let tt = init.normal(3, 3, 1.0);
        let eval = |beta: f64, store: &ParamStore| -> (f32, f32) {
            let mut g = Graph::new(store);
            let x = g.constant(xt.clone());
            let t = g.constant(tt.clone());
            let eps = Initializer::new(6).standard_normal(3, cfg.vae_latent);
            let out = vae.forward(&mut g, &x, Some(&per_row(&eps)));
            let (total, _recon, _pred, kl) = vae.loss(&mut g, &out, x, t, beta);
            (g.value(total).get(0, 0), g.value(kl).get(0, 0))
        };
        let (t100, kl100) = eval(100.0, &store);
        let (t300, kl300) = eval(300.0, &store);
        assert!(t100 > 0.0 && kl100 >= 0.0);
        assert_eq!(kl100, kl300, "raw KL independent of beta");
        assert!(t300 >= t100, "larger beta weights KL more");
    }

    #[test]
    fn vae_trains_to_reduce_loss() {
        let cfg = ModelConfig::small();
        let (mut store, vae) = setup(&cfg);
        let mut init = Initializer::new(7);
        let xt = init.normal(8, cfg.joint_dim(), 1.0);
        let tt = init.normal(8, 3, 1.0);
        let mut opt = Adam::new(1e-3);
        let mut first = None;
        let mut last = 0.0;
        for step in 0..60 {
            store.zero_grads();
            let mut g = Graph::new(&store);
            let x = g.constant(xt.clone());
            let t = g.constant(tt.clone());
            let eps = Initializer::new(100 + step).standard_normal(8, cfg.vae_latent);
            let out = vae.forward(&mut g, &x, Some(&per_row(&eps)));
            let (total, _, _, _) = vae.loss(&mut g, &out, x, t, 100.0);
            let (loss, grads) = g.backward(total);
            last = loss;
            grads.merge_into(&mut store);
            if first.is_none() {
                first = Some(last);
            }
            opt.step(&mut store);
        }
        assert!(
            last < 0.7 * first.unwrap(),
            "VAE loss should drop: {} -> {}",
            first.unwrap(),
            last
        );
    }
}
