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
pub(crate) struct VaeOutput {
    pub mu: Var,
    pub logvar: Var,
    pub reconstruction: Var,
    /// `[batch, 3]` normalized target predictions.
    pub predictions: Var,
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

    /// Forward with explicit noise (`eps`: `[batch, latent]`, standard
    /// normal for training, zeros for deterministic inference).
    pub(crate) fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: Var,
        eps: Tensor,
    ) -> VaeOutput {
        let h = self.encoder.forward(g, store, x);
        let mu = g.slice_cols(h, 0, self.latent);
        let logvar_raw = g.slice_cols(h, self.latent, 2 * self.latent);
        // Soft-bound the log-variance to [-8, 8] for stability.
        let logvar_t = g.tanh(logvar_raw);
        let logvar = g.scale(logvar_t, 8.0);
        let eps_v = g.constant(eps);
        let z = g.reparameterize(mu, logvar, eps_v);
        let reconstruction = self.decoder.forward(g, store, z);
        let predictions = self.head.forward(g, store, reconstruction);
        VaeOutput { mu, logvar, reconstruction, predictions }
    }

    /// Tape-free inference over `x [K, joint_dim]` candidate rows (from
    /// `sc` — recycle the result when done).
    ///
    /// `eps_of = None` is deterministic mean scoring (`eps = 0` ⇒ `z = mu`):
    /// predictions `[K, 3]`. With zero noise the reparameterization is the
    /// identity on `mu`, so the log-variance head is never evaluated.
    ///
    /// `eps_of = Some(blocks)` is sampled scoring for risk-aware ranking: row
    /// `r` is sampled against its own seeded standard-normal block
    /// `blocks[r]` (`[S, latent]`, same `S` for every row — rows fused from
    /// different queries carry different draws) → predictions `[S·K, 3]`,
    /// sample-major (row `s·K + r` is row `r` under sample `s`). Here the
    /// log-variance head *is* evaluated: `z = mu + exp(0.5 · logvar) ∘ eps_s`
    /// with the same tanh-bounded log-variance the training path uses.
    ///
    /// Either way every GEMM is row-wise bitwise equal at any batch size and
    /// the reparameterization is elementwise, so a row's predictions are
    /// bitwise identical whether it is scored alone, in a batch, or in any
    /// partition of a batch — the determinism plan choice relies on.
    pub(crate) fn forward_inference(
        &self,
        store: &ParamStore,
        x: &Tensor,
        eps_of: Option<&[&Tensor]>,
        sc: &mut ScratchArena,
    ) -> Tensor {
        let h = self.encoder.forward_inference(store, x, sc); // [K, 2*latent]
        let k = h.rows();
        let z = match eps_of {
            None => {
                let mut mu = sc.take(k, self.latent);
                for r in 0..k {
                    mu.row_slice_mut(r).copy_from_slice(&h.row_slice(r)[..self.latent]);
                }
                mu
            }
            Some(eps_of) => {
                assert_eq!(eps_of.len(), k, "one eps block per row");
                let s = eps_of[0].rows();
                let mut z = sc.take(s * k, self.latent);
                for (r, eps_r) in eps_of.iter().enumerate() {
                    assert_eq!(eps_r.rows(), s, "eps blocks must agree on sample count");
                    assert_eq!(eps_r.cols(), self.latent, "eps must be [samples, latent]");
                    let hr = h.row_slice(r);
                    for si in 0..s {
                        let er = eps_r.row_slice(si);
                        let zr = z.row_slice_mut(si * k + r);
                        for j in 0..self.latent {
                            let mu = hr[j];
                            let logvar = 8.0 * hr[self.latent + j].tanh();
                            zr[j] = mu + (0.5 * logvar).exp() * er[j];
                        }
                    }
                }
                z
            }
        };
        sc.recycle(h);
        let reconstruction = self.decoder.forward_inference(store, &z, sc);
        sc.recycle(z);
        let predictions = self.head.forward_inference(store, &reconstruction, sc);
        sc.recycle(reconstruction);
        predictions
    }

    /// The paper's loss (formula 5) plus prediction MSE:
    /// `pred_mse + recon_mse + β · KL` with KL averaged per latent element
    /// so that the paper's β ∈ {100, 200, 300} stays in a workable range.
    pub(crate) fn loss(
        &self,
        g: &mut Graph,
        out: &VaeOutput,
        x: Var,
        targets: Var,
        beta: f64,
    ) -> (Var, Var, Var, Var) {
        let recon = g.mse(out.reconstruction, x);
        let pred = g.mse(out.predictions, targets);
        let kl_sum = g.kl_standard_normal(out.mu, out.logvar);
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

    #[test]
    fn forward_shapes() {
        let cfg = ModelConfig::small();
        let (store, vae) = setup(&cfg);
        let mut g = Graph::new();
        let mut init = Initializer::new(2);
        let x = g.constant(init.normal(4, cfg.joint_dim(), 1.0));
        let eps = init.standard_normal(4, cfg.vae_latent);
        let out = vae.forward(&mut g, &store, x, eps);
        assert_eq!(g.value(out.mu).shape(), (4, cfg.vae_latent));
        assert_eq!(g.value(out.logvar).shape(), (4, cfg.vae_latent));
        assert_eq!(g.value(out.reconstruction).shape(), (4, cfg.joint_dim()));
        assert_eq!(g.value(out.predictions).shape(), (4, 3));
    }

    #[test]
    fn logvar_is_bounded() {
        let cfg = ModelConfig::small();
        let (store, vae) = setup(&cfg);
        let mut g = Graph::new();
        let mut init = Initializer::new(3);
        let x = g.constant(init.normal(2, cfg.joint_dim(), 50.0)); // extreme inputs
        let out = vae.forward(&mut g, &store, x, Tensor::zeros(2, cfg.vae_latent));
        for &v in g.value(out.logvar).data() {
            assert!((-8.0..=8.0).contains(&v));
        }
    }

    #[test]
    fn zero_eps_makes_inference_deterministic() {
        let cfg = ModelConfig::small();
        let (store, vae) = setup(&cfg);
        let mut init = Initializer::new(4);
        let xt = init.normal(1, cfg.joint_dim(), 1.0);
        let run = |store: &ParamStore| {
            let mut g = Graph::new();
            let x = g.constant(xt.clone());
            let out = vae.forward(&mut g, store, x, Tensor::zeros(1, cfg.vae_latent));
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
        let mut sc = ScratchArena::new();
        let whole = vae.forward_inference(&store, &x, None, &mut sc);
        assert_eq!(whole.shape(), (5, 3));
        for parts in [vec![0..1, 1..2, 2..3, 3..4, 4..5], vec![0..2, 2..5]] {
            for part in parts {
                let got = vae.forward_inference(
                    &store,
                    &rows_of(&x, part.start, part.end),
                    None,
                    &mut sc,
                );
                for r in part.clone() {
                    assert_eq!(whole.row_slice(r), got.row_slice(r - part.start), "row {r}");
                }
                sc.recycle(got);
            }
        }
    }

    #[test]
    fn sampled_inference_with_zero_eps_matches_mean_path() {
        let cfg = ModelConfig::small();
        let (store, vae) = setup(&cfg);
        let mut init = Initializer::new(9);
        let x = init.normal(3, cfg.joint_dim(), 1.0);
        let mut sc = ScratchArena::new();
        let mean = vae.forward_inference(&store, &x, None, &mut sc);
        let eps = Tensor::zeros(2, cfg.vae_latent);
        let sampled = vae.forward_inference(&store, &x, Some(&[&eps; 3]), &mut sc);
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
        let eps_refs: Vec<&Tensor> = eps.iter().collect();
        let mut sc = ScratchArena::new();
        let whole = vae.forward_inference(&store, &x, Some(&eps_refs), &mut sc);
        assert_eq!(whole.shape(), (3 * 4, 3));
        for parts in [vec![0..1, 1..2, 2..3, 3..4], vec![0..3, 3..4]] {
            for part in parts {
                let kp = part.len();
                let got = vae.forward_inference(
                    &store,
                    &rows_of(&x, part.start, part.end),
                    Some(&eps_refs[part.clone()]),
                    &mut sc,
                );
                for r in part.clone() {
                    for s in 0..3 {
                        assert_eq!(
                            whole.row_slice(s * 4 + r),
                            got.row_slice(s * kp + r - part.start),
                            "row {r} sample {s} differs"
                        );
                    }
                }
                sc.recycle(got);
            }
        }
    }

    /// Tape-free sampling with non-zero eps computes the training-path
    /// reparameterization: row `r` under sample `s` matches
    /// [`CostModeler::forward`] fed `eps[s]`, within the fast path's 1e-5.
    #[test]
    fn sampled_inference_matches_training_forward_with_same_eps() {
        let cfg = ModelConfig::small();
        let (store, vae) = setup(&cfg);
        let x = Initializer::new(12).normal(3, cfg.joint_dim(), 1.0);
        let eps = Initializer::new(13).standard_normal(4, cfg.vae_latent);
        let mut sc = ScratchArena::new();
        let fast = vae.forward_inference(&store, &x, Some(&[&eps; 3]), &mut sc);
        for s in 0..4 {
            let eps_s = rows_of(&eps, s, s + 1);
            let refs = [&eps_s; 3];
            let mut g = Graph::new();
            let xv = g.constant(x.clone());
            let out = vae.forward(&mut g, &store, xv, Tensor::stack_rows(&refs));
            let tape = g.value(out.predictions);
            for r in 0..3 {
                for (a, b) in fast.row_slice(s * 3 + r).iter().zip(tape.row_slice(r)) {
                    assert!((a - b).abs() < 1e-5, "sample {s} row {r}: {a} vs tape {b}");
                }
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
            let mut g = Graph::new();
            let x = g.constant(xt.clone());
            let t = g.constant(tt.clone());
            let eps = Initializer::new(6).standard_normal(3, cfg.vae_latent);
            let out = vae.forward(&mut g, store, x, eps);
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
            let mut g = Graph::new();
            let x = g.constant(xt.clone());
            let t = g.constant(tt.clone());
            let eps = Initializer::new(100 + step).standard_normal(8, cfg.vae_latent);
            let out = vae.forward(&mut g, &store, x, eps);
            let (total, _, _, _) = vae.loss(&mut g, &out, x, t, 100.0);
            last = g.backward(total, &mut store);
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
