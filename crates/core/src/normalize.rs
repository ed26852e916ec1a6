//! Target normalization: `ln(1+x)` + z-score per target (cardinality, cost,
//! runtime). The same transform is applied to the EXPLAIN estimates that the
//! plan encoder consumes, so inputs and outputs share one scale.

use serde::{Deserialize, Serialize};

/// Per-target log-space normalizer over (cardinality, cost, runtime), in
/// that index order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TargetNormalizer {
    pub mean: [f64; 3],
    pub std: [f64; 3],
}

impl TargetNormalizer {
    /// Fit from raw (cardinality, cost, runtime) triples.
    ///
    /// # Panics
    /// Panics on an empty training set.
    pub fn fit(targets: &[[f64; 3]]) -> Self {
        assert!(!targets.is_empty(), "cannot fit normalizer on empty targets");
        let n = targets.len() as f64;
        let mut mean = [0.0; 3];
        for t in targets {
            for (m, &v) in mean.iter_mut().zip(t) {
                *m += v.max(0.0).ln_1p() / n;
            }
        }
        let mut var = [0.0; 3];
        for t in targets {
            for i in 0..3 {
                let d = t[i].max(0.0).ln_1p() - mean[i];
                var[i] += d * d / n;
            }
        }
        // Floor the stds: near-constant training targets would otherwise
        // turn slightly-off EXPLAIN estimates into astronomical z-scores.
        let std = var.map(|v| v.sqrt().max(0.05));
        Self { mean, std }
    }

    /// Raw → normalized (f32 for the network). Z-scores are clamped to
    /// ±10: estimates far outside the training distribution must not blow
    /// up the encoder inputs.
    pub fn encode(&self, raw: [f64; 3]) -> [f32; 3] {
        let mut out = [0.0f32; 3];
        for i in 0..3 {
            let z = (raw[i].max(0.0).ln_1p() - self.mean[i]) / self.std[i];
            out[i] = z.clamp(-10.0, 10.0) as f32;
        }
        out
    }

    /// Normalized → raw (clamped to ≥ 0). NaN inputs stay NaN — `max(0.0)`
    /// must not launder a poisoned prediction into a plausible zero, or the
    /// serving watchdog can never catch it.
    pub fn decode(&self, norm: [f32; 3]) -> [f64; 3] {
        let mut out = [0.0f64; 3];
        for i in 0..3 {
            let ln1p = norm[i] as f64 * self.std[i] + self.mean[i];
            out[i] = if ln1p.is_nan() {
                f64::NAN
            } else {
                (ln1p.clamp(-10.0, 60.0).exp() - 1.0).max(0.0)
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<[f64; 3]> {
        (1..100).map(|i| [i as f64 * 10.0, i as f64 * 3.0, i as f64 * 0.5]).collect()
    }

    #[test]
    fn round_trip() {
        let n = TargetNormalizer::fit(&samples());
        for raw in [[5.0, 2.0, 0.1], [1000.0, 300.0, 50.0], [0.0, 0.0, 0.0]] {
            let dec = n.decode(n.encode(raw));
            for i in 0..3 {
                assert!(
                    (dec[i] - raw[i]).abs() < 1e-2 * (1.0 + raw[i]),
                    "target {i}: {} vs {}",
                    dec[i],
                    raw[i]
                );
            }
        }
    }

    #[test]
    fn normalized_training_set_is_standardized() {
        let s = samples();
        let n = TargetNormalizer::fit(&s);
        let encoded: Vec<[f32; 3]> = s.iter().map(|&t| n.encode(t)).collect();
        for i in 0..3 {
            let mean: f32 = encoded.iter().map(|e| e[i]).sum::<f32>() / encoded.len() as f32;
            let var: f32 = encoded.iter().map(|e| (e[i] - mean) * (e[i] - mean)).sum::<f32>()
                / encoded.len() as f32;
            assert!(mean.abs() < 1e-3, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn decode_propagates_nan() {
        let n = TargetNormalizer::fit(&samples());
        let d = n.decode([f32::NAN, 0.0, f32::NAN]);
        assert!(d[0].is_nan(), "NaN must survive decode for watchdog detection");
        assert!(d[1].is_finite());
        assert!(d[2].is_nan());
    }

    #[test]
    fn decode_is_monotone() {
        let n = TargetNormalizer::fit(&samples());
        let lo = n.decode([-1.0, -1.0, -1.0]);
        let mid = n.decode([0.0, 0.0, 0.0]);
        let hi = n.decode([1.0, 1.0, 1.0]);
        for i in 0..3 {
            assert!(lo[i] < mid[i] && mid[i] < hi[i]);
        }
    }

    #[test]
    fn degenerate_constant_targets_do_not_blow_up() {
        let n = TargetNormalizer::fit(&vec![[5.0, 5.0, 5.0]; 10]);
        let e = n.encode([5.0, 5.0, 5.0]);
        assert!(e.iter().all(|v| v.is_finite()));
        let d = n.decode(e);
        assert!((d[0] - 5.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "empty targets")]
    fn empty_fit_panics() {
        TargetNormalizer::fit(&[]);
    }
}
