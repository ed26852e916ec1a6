//! QPSeeker model configuration.

use qpseeker_tabert::TabertConfig;
use serde::Serialize;

/// Hyperparameters of the full QPSeeker model (paper §6.2).
///
/// `Deserialize` is written by hand (instead of derived) so `train_threads`,
/// added after the first release, falls back to its default when absent,
/// and keys that have since been retired (`fast_inference` — there is one
/// inference path now) are ignored, keeping older checkpoints loadable.
#[derive(Debug, Clone, Serialize)]
pub struct ModelConfig {
    /// Hidden width of the relation/join set MLPs (paper: 256).
    pub set_mlp_hidden: usize,
    /// Output width of each set MLP (paper: 256 ⇒ 512-d query embedding).
    pub set_mlp_out: usize,
    /// Number of hidden layers in each set MLP (paper: 5).
    pub set_mlp_layers: usize,
    /// Plan-node output width, incl. the 3 estimate dims (paper: 950).
    pub plan_node_out: usize,
    /// Cross-attention heads (paper: 4).
    pub attn_heads: usize,
    /// Per-head latent width (paper: 256).
    pub attn_head_dim: usize,
    /// VAE latent features (paper: 32).
    pub vae_latent: usize,
    /// VAE encoder hidden layers, each halving the width (paper: 5).
    pub vae_layers: usize,
    /// β of the KL term (paper sweeps {100, 200, 300}).
    pub beta: f64,
    /// Weight of the auxiliary per-node estimate loss (0 disables; not in
    /// the paper's loss but exposed for the ablation benches).
    pub node_loss_weight: f64,
    /// QPAttention on/off (off = plain concatenation everywhere; ablation).
    pub use_attention: bool,
    pub learning_rate: f64,
    pub batch_size: usize,
    pub epochs: usize,
    pub seed: u64,
    pub tabert: TabertConfig,
    /// Worker threads for data-parallel training (1 = serial). Gradients are
    /// merged in sample order, so every value yields bit-identical parameters
    /// under a fixed seed. Defaults to 1 for checkpoints predating the knob.
    pub train_threads: usize,
}

impl serde::Deserialize for ModelConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj =
            v.as_obj().ok_or_else(|| serde::Error::type_mismatch("ModelConfig", "object", v))?;
        fn req<T: serde::Deserialize>(
            obj: &[(String, serde::Value)],
            name: &str,
        ) -> Result<T, serde::Error> {
            T::from_value(serde::obj_field(obj, name)).map_err(|e| e.in_field("ModelConfig", name))
        }
        fn opt<T: serde::Deserialize>(
            obj: &[(String, serde::Value)],
            name: &str,
            default: T,
        ) -> Result<T, serde::Error> {
            match serde::obj_field(obj, name) {
                serde::Value::Null => Ok(default),
                v => T::from_value(v).map_err(|e| e.in_field("ModelConfig", name)),
            }
        }
        Ok(ModelConfig {
            set_mlp_hidden: req(obj, "set_mlp_hidden")?,
            set_mlp_out: req(obj, "set_mlp_out")?,
            set_mlp_layers: req(obj, "set_mlp_layers")?,
            plan_node_out: req(obj, "plan_node_out")?,
            attn_heads: req(obj, "attn_heads")?,
            attn_head_dim: req(obj, "attn_head_dim")?,
            vae_latent: req(obj, "vae_latent")?,
            vae_layers: req(obj, "vae_layers")?,
            beta: req(obj, "beta")?,
            node_loss_weight: req(obj, "node_loss_weight")?,
            use_attention: req(obj, "use_attention")?,
            learning_rate: req(obj, "learning_rate")?,
            batch_size: req(obj, "batch_size")?,
            epochs: req(obj, "epochs")?,
            seed: req(obj, "seed")?,
            tabert: req(obj, "tabert")?,
            train_threads: opt(obj, "train_threads", 1)?,
        })
    }
}

impl ModelConfig {
    /// The paper's configuration (~10.8M parameters with the IMDb schema).
    pub fn paper() -> Self {
        Self {
            set_mlp_hidden: 256,
            set_mlp_out: 256,
            set_mlp_layers: 5,
            plan_node_out: 950,
            attn_heads: 4,
            attn_head_dim: 256,
            vae_latent: 32,
            vae_layers: 5,
            beta: 100.0,
            node_loss_weight: 0.5,
            use_attention: true,
            learning_rate: 1e-3,
            batch_size: 16,
            epochs: 10,
            seed: 0x9b5,
            tabert: TabertConfig::paper_default(),
            train_threads: 1,
        }
    }

    /// Scaled-down configuration for the experiment harness: same
    /// architecture, ~100× fewer parameters, minutes instead of hours.
    pub fn bench() -> Self {
        Self {
            set_mlp_hidden: 64,
            set_mlp_out: 64,
            set_mlp_layers: 2,
            plan_node_out: 96,
            attn_heads: 4,
            attn_head_dim: 32,
            vae_latent: 32,
            vae_layers: 3,
            beta: 100.0,
            node_loss_weight: 0.5,
            use_attention: true,
            learning_rate: 1e-3,
            batch_size: 16,
            epochs: 12,
            seed: 0x9b5,
            tabert: TabertConfig::paper_default(),
            train_threads: 1,
        }
    }

    /// Tiny configuration for unit tests/CI.
    pub fn small() -> Self {
        Self {
            set_mlp_hidden: 16,
            set_mlp_out: 16,
            set_mlp_layers: 1,
            plan_node_out: 32,
            attn_heads: 2,
            attn_head_dim: 8,
            vae_latent: 16,
            vae_layers: 2,
            beta: 100.0,
            node_loss_weight: 0.5,
            use_attention: true,
            learning_rate: 2e-3,
            batch_size: 8,
            epochs: 6,
            seed: 0x9b5,
            tabert: TabertConfig::paper_default(),
            train_threads: 1,
        }
    }

    /// FNV-64 over the canonical serialization of every knob. Training
    /// snapshots record it so a `--resume` with a different configuration is
    /// rejected (a resumed run must replay the exact epoch plan).
    pub fn fingerprint(&self) -> u64 {
        crate::durable::fnv64(&serde_json::to_string(self).unwrap_or_default())
    }

    /// Query embedding width (both set encodings concatenated).
    pub fn query_dim(&self) -> usize {
        2 * self.set_mlp_out
    }

    /// Width of the "data vector" part of a plan-node output (everything
    /// except the 3 estimate dims).
    pub fn data_vec_dim(&self) -> usize {
        assert!(self.plan_node_out > 3, "plan_node_out must exceed the 3 estimate dims");
        self.plan_node_out - 3
    }

    /// Joint embedding width after QPAttention (query ‖ plan).
    pub fn joint_dim(&self) -> usize {
        self.query_dim() + self.plan_node_out
    }

    /// Plan-node LSTM input width for a schema with `n_tables` relations:
    /// `[child data | relation one-hots | TaBERT | op one-hot | estimates]`.
    pub fn node_input_dim(&self, n_tables: usize) -> usize {
        self.data_vec_dim()
            + n_tables
            + self.tabert.dim()
            + qpseeker_engine::plan::PhysicalOp::COUNT
            + 3
    }

    /// The VAE encoder's layer widths: joint_dim halved `vae_layers` times
    /// down to `2 * latent` (mu ‖ logvar).
    pub fn vae_encoder_dims(&self) -> Vec<usize> {
        let mut dims = vec![self.joint_dim()];
        let mut w = self.joint_dim();
        for _ in 0..self.vae_layers {
            w = (w / 2).max(2 * self.vae_latent);
            dims.push(w);
        }
        dims.push(2 * self.vae_latent);
        dims
    }

    /// The VAE decoder mirrors the encoder back up to joint_dim.
    pub fn vae_decoder_dims(&self) -> Vec<usize> {
        let mut enc = self.vae_encoder_dims();
        enc.pop(); // drop the 2*latent head
        enc.reverse();
        let mut dims = vec![self.vae_latent];
        dims.extend(enc);
        dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_reported_sizes() {
        let c = ModelConfig::paper();
        assert_eq!(c.query_dim(), 512);
        assert_eq!(c.plan_node_out, 950);
        assert_eq!(c.attn_heads, 4);
        assert_eq!(c.vae_latent, 32);
        assert_eq!(c.joint_dim(), 1462);
    }

    #[test]
    fn vae_dims_halve_then_mirror() {
        let c = ModelConfig::small();
        let enc = c.vae_encoder_dims();
        let dec = c.vae_decoder_dims();
        assert_eq!(*enc.first().unwrap(), c.joint_dim());
        assert_eq!(*enc.last().unwrap(), 2 * c.vae_latent);
        assert_eq!(*dec.first().unwrap(), c.vae_latent);
        assert_eq!(*dec.last().unwrap(), c.joint_dim());
        for w in enc.windows(2).take(enc.len() - 2) {
            assert!(w[1] <= w[0], "encoder widths must shrink: {enc:?}");
        }
    }

    #[test]
    fn node_input_dim_composition() {
        let c = ModelConfig::small();
        let d = c.node_input_dim(16);
        assert_eq!(d, (32 - 3) + 16 + 64 + 6 + 3);
    }

    #[test]
    fn paper_parameter_count_is_about_ten_million() {
        // Rough structural count of the dominant matrices; the paper quotes
        // 10.8M total. LSTM: in≈1040, hidden 950 ⇒ (1040+950)·4·950 ≈ 7.6M;
        // set MLPs ≈ 0.7M; attention ≈ 4·(512+950+950)·256 + out ≈ 2.5M…
        let c = ModelConfig::paper();
        let n_tables = 16usize;
        let lstm = (c.node_input_dim(n_tables) + c.plan_node_out) * 4 * c.plan_node_out;
        assert!(lstm > 5_000_000 && lstm < 9_000_000, "lstm params {lstm}");
    }
}
