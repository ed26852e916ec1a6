//! The Cost Modeler (§4.4): a β-VAE over the joint (query ‖ plan) embedding.
//!
//! The encoder halves the width over `vae_layers` hidden layers down to
//! `2·latent` (first half mean, second half log-variance, Fig. 4); the
//! decoder mirrors it back up; a final linear head maps the reconstruction
//! to the three normalized targets (cardinality, cost, runtime).
//!
//! Scoring never reads the reconstruction, and mean scoring never reads the
//! log-variance, so the layers that meet there at an Identity activation
//! run as the one linear map they are ([`Fold`]): the encoder's mean
//! columns into `dec₁` (mean scoring only: a sampled `z` is not linear in
//! the encoder's output) and `dec_L` into the head (every pass). The
//! training loss still reads the reconstruction, which the tape keeps and
//! runs the head's backward through.

use crate::config::ModelConfig;
use qpseeker_nn::prelude::*;

#[derive(Debug, Clone)]
pub(crate) struct CostModeler {
    pub encoder: Mlp,
    pub decoder: Mlp,
    /// The encoder's mean columns folded into `dec₁`: mean scoring's
    /// `z = μ` step. `None` for a one-layer VAE (`vae_layers = 0`), whose
    /// `dec₁` is `dec_L`, folded into the head instead.
    mean: Option<Fold>,
    /// `dec_L` folded into the head (reconstruction → 3 target estimates):
    /// hidden decoder rows → predictions.
    predict: Fold,
    pub latent: usize,
}

/// One forward pass through the VAE.
pub(crate) struct VaeOutput<T> {
    /// `[K, 2·latent]`: each row's latent mean, then its raw log-variance.
    /// Sampled passes only: mean scoring folds the mean into the decoder.
    pub h: Option<T>,
    /// `[K, joint_dim]` (`[S·K, ..]` when sampled): the reconstruction,
    /// when kept (`keep_recon`; the training loss reads it).
    pub recon: Option<T>,
    /// `[K, 3]` normalized target predictions (`[S·K, 3]` when sampled).
    pub predictions: T,
}

impl CostModeler {
    pub(crate) fn new(store: &mut ParamStore, init: &mut Initializer, cfg: &ModelConfig) -> Self {
        let enc_dims = cfg.vae_encoder_dims();
        let dec_dims = cfg.vae_decoder_dims();
        let encoder =
            Mlp::new(store, init, "vae.enc", &enc_dims, Activation::Relu, Activation::Identity);
        let decoder =
            Mlp::new(store, init, "vae.dec", &dec_dims, Activation::Relu, Activation::Identity);
        let head = Linear::new(store, init, "vae.head", *dec_dims.last().expect("dims"), 3);
        let last = |m: &Mlp| m.layers.last().expect("layers").clone();
        let recon = last(&decoder);
        let mean = (decoder.layers.len() > 1)
            .then(|| Fold::new(store, &last(&encoder), cfg.vae_latent, &decoder.layers[0]));
        let predict = Fold::new(store, &recon, recon.out_dim, &head);
        // Serving reads `dec_L` and the head only through `predict`.
        store.unserve_packed(recon.w);
        store.unserve_packed(head.w);
        Self { encoder, decoder, mean, predict, latent: cfg.vae_latent }
    }

    /// The activation of the encoder's first layer: `Relu` when it is a
    /// hidden layer, `Identity` when it is the encoder's only layer.
    pub(crate) fn enc1_act(&self) -> Activation {
        if self.encoder.layers.len() > 1 {
            Activation::Relu
        } else {
            Activation::Identity
        }
    }

    /// `[K, 2·latent]` latent means and raw log-variances of rows whose
    /// first encoder layer is `h1`.
    pub(crate) fn encode<E: Exec>(&self, e: &mut E, h1: &E::T) -> E::T {
        let Some((last, mid)) = self.encoder.layers[1..].split_last() else {
            // A one-layer encoder: `h1` is its output.
            return e.concat(&[(h1, 0..2 * self.latent)]);
        };
        let pre = chain(e, mid, h1);
        let h = last.forward(e, pre.as_ref().unwrap_or(h1), Activation::Identity);
        pre.into_iter().for_each(|t| e.recycle(t));
        h
    }

    /// The VAE over rows whose first encoder layer is `h1 [K, enc₁]` (`enc₁`
    /// over joint embeddings, or a fold of it, activated by
    /// [`Self::enc1_act`]).
    ///
    /// `eps = None` is deterministic mean scoring (`z = mu`): the
    /// log-variance head is never evaluated, and the mean goes into `dec₁`
    /// folded. `eps = Some(blocks)` samples
    /// row `r` against its own standard-normal draws `blocks[r]` (`S` rows
    /// of `latent`, the same `S` for every row — training draws one per
    /// sample, rows fused from different queries carry different draws):
    /// `z = mu + exp(0.5 · logvar) ∘ eps` with the log-variance soft-bounded
    /// to `8 · tanh(raw)`, sample-major (row `s·K + r` is row `r` under
    /// sample `s`).
    ///
    /// `keep_recon` (the tape) also computes the reconstruction, which the
    /// folded head's backward then runs through.
    ///
    /// Every GEMM is row-wise bitwise equal at any batch size and the
    /// reparameterization is elementwise, so a row's predictions are
    /// bitwise identical whether it is scored alone, in a batch, or in any
    /// partition of a batch — the determinism plan choice relies on.
    pub(crate) fn forward<E: Exec>(
        &self,
        e: &mut E,
        h1: &E::T,
        eps: Option<&[&[f32]]>,
        keep_recon: bool,
    ) -> VaeOutput<E::T> {
        let (enc, dec) = (&self.encoder.layers, &self.decoder.layers);
        // The decoder's hidden layers, all but `dec_L`.
        let hidden = &dec[..dec.len() - 1];
        let (h, first, rest) = match (eps, &self.mean) {
            (None, Some(mean)) => {
                let pre = chain(e, &enc[1..enc.len() - 1], h1);
                let first = mean.forward(e, pre.as_ref().unwrap_or(h1), None, Activation::Relu);
                pre.into_iter().for_each(|t| e.recycle(t));
                (None, first, &hidden[1..])
            }
            // A one-layer VAE: `h1` is `[μ | log σ²]`, and `z = μ` is the
            // decoder's last input.
            (None, None) => (None, e.concat(&[(h1, 0..self.latent)]), hidden),
            (Some(eps), _) => {
                let h = self.encode(e, h1);
                let z = e.sample(&h, self.latent, eps);
                (Some(h), z, hidden)
            }
        };
        let hidden = match chain(e, rest, &first) {
            Some(hidden) => {
                e.recycle(first);
                hidden
            }
            None => first,
        };
        let last = dec.last().expect("layers");
        let recon = keep_recon.then(|| last.forward(e, &hidden, Activation::Identity));
        let predictions = self.predict.forward(e, &hidden, recon.as_ref(), Activation::Identity);
        e.recycle(hidden);
        VaeOutput { h, recon, predictions }
    }

    /// The paper's loss (formula 5) plus prediction MSE:
    /// `pred_mse + recon_mse + β · KL` with KL averaged per latent element
    /// so that the paper's β ∈ {100, 200, 300} stays in a workable range.
    /// `out` is a sampled pass over the joint embeddings `x`.
    pub(crate) fn loss(
        &self,
        g: &mut Graph,
        out: &VaeOutput<Var>,
        x: Var,
        targets: Var,
        beta: f64,
    ) -> (Var, Var, Var, Var) {
        let h = out.h.expect("training samples the latent");
        let mu = g.concat(&[(&h, 0..self.latent)]);
        let raw = g.concat(&[(&h, self.latent..2 * self.latent)]);
        let bounded = g.tanh(raw);
        let logvar = g.scale(bounded, 8.0);
        let reconstruction = out.recon.expect("training keeps the reconstruction");
        let recon = g.mse(reconstruction, x);
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

/// `layers` in turn over `x`, each with `Relu` (the hidden activation of
/// both MLPs), the intermediates recycled; `None` for no layers.
fn chain<E: Exec>(e: &mut E, layers: &[Linear], x: &E::T) -> Option<E::T> {
    let mut h: Option<E::T> = None;
    for layer in layers {
        let y = layer.forward(e, h.as_ref().unwrap_or(x), Activation::Relu);
        if let Some(prev) = h.replace(y) {
            e.recycle(prev);
        }
    }
    h
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

    /// Predictions of joint embeddings `x` on the serving executor.
    fn serve(vae: &CostModeler, store: &ParamStore, x: &Tensor, eps: Option<&[&[f32]]>) -> Tensor {
        let mut arena = ScratchArena::new();
        let e = &mut Scratch { store, arena: &mut arena };
        let h1 = vae.encoder.layers[0].forward(e, x, vae.enc1_act());
        vae.forward(e, &h1, eps, false).predictions
    }

    /// The VAE's pass over joint embeddings `x` on the tape.
    fn tape(vae: &CostModeler, g: &mut Graph, x: &Var, eps: Option<&[&[f32]]>) -> VaeOutput<Var> {
        let h1 = vae.encoder.layers[0].forward(g, x, vae.enc1_act());
        vae.forward(g, &h1, eps, true)
    }

    #[test]
    fn forward_shapes() {
        let cfg = ModelConfig::small();
        let (store, vae) = setup(&cfg);
        let mut g = Graph::new(&store);
        let mut init = Initializer::new(2);
        let x = g.constant(init.normal(4, cfg.joint_dim(), 1.0));
        let eps = init.standard_normal(4, cfg.vae_latent);
        let out = tape(&vae, &mut g, &x, Some(&per_row(&eps)));
        assert_eq!(g.value(out.h.expect("sampled")).shape(), (4, 2 * cfg.vae_latent));
        let recon = out.recon.expect("the tape keeps the reconstruction");
        assert_eq!(g.value(recon).shape(), (4, cfg.joint_dim()));
        assert_eq!(g.value(out.predictions).shape(), (4, 3));
        let mean = tape(&vae, &mut g, &x, None);
        assert!(mean.h.is_none(), "mean scoring folds the mean into the decoder");
        assert_eq!(g.value(mean.predictions).shape(), (4, 3));
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
            let out = tape(&vae, &mut g, &x, None);
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

    /// Zero draws give every sample the same bits, and the mean path's
    /// value to rounding: mean scoring folds μ into `dec₁`, a sampled `z`
    /// runs the encoder's last layer and `dec₁` apart.
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
                assert_eq!(
                    sampled.row_slice(s * 3 + k),
                    sampled.row_slice(k),
                    "sample {s} row {k}"
                );
                for (a, b) in sampled.row_slice(s * 3 + k).iter().zip(mean.row_slice(k)) {
                    assert!(
                        (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
                        "sample {s} row {k}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// A one-layer VAE (`vae_layers = 0`): the encoder's one layer is its
    /// first, and the decoder's one layer folds into the head. Mean scoring
    /// gives the unfolded layers' values to rounding, and a sampled pass
    /// gives the tape's bits on the serving executor.
    #[test]
    fn one_layer_vae_serves_both_paths() {
        let cfg = ModelConfig { vae_layers: 0, ..ModelConfig::small() };
        let (store, vae) = setup(&cfg);
        assert_eq!((vae.encoder.layers.len(), vae.decoder.layers.len()), (1, 1));
        let mut init = Initializer::new(11);
        let x = init.normal(3, cfg.joint_dim(), 1.0);
        let eps = init.standard_normal(2, cfg.vae_latent);
        let mut g = Graph::new(&store);
        let xv = g.constant(x.clone());
        let h = vae.encoder.forward(&mut g, &xv);
        let mu = g.concat(&[(&h, 0..cfg.vae_latent)]);
        let recon = vae.decoder.forward(&mut g, &mu);
        let want = vae.predict.b.forward(&mut g, &recon, Activation::Identity);
        let mean = serve(&vae, &store, &x, None);
        for (a, b) in mean.data().iter().zip(g.value(want).data()) {
            assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "{a} vs {b}");
        }
        let blocks = [eps.data(); 3];
        let sampled = serve(&vae, &store, &x, Some(&blocks));
        let out = tape(&vae, &mut g, &xv, Some(&blocks));
        assert_eq!(sampled.data(), g.value(out.predictions).data());
        assert_eq!(sampled.shape(), (2 * 3, 3));
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
            let out = tape(&vae, &mut g, &xv, Some(&[eps.row_slice(s); 3]));
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
            let out = tape(&vae, &mut g, &x, Some(&per_row(&eps)));
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
            let out = tape(&vae, &mut g, &x, Some(&per_row(&eps)));
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
