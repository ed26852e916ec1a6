//! The optimizer: Adam, used by all models, as in the paper.
//!
//! It guards every update: non-finite gradients are zeroed
//! before touching the moment buffers, oversized per-element updates are
//! clamped, and any parameter that would become non-finite is reverted.
//! [`StepReport`] counts what fired, so training loops can surface
//! numerical trouble instead of silently diverging.

use crate::params::ParamStore;
use serde::{Deserialize, Serialize};

/// What the numerical guards did during one optimizer step. All-zero for a
/// healthy step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepReport {
    /// Gradient elements that were NaN/Inf and treated as zero.
    pub nonfinite_grads: usize,
    /// Updates whose magnitude was clamped to the per-element cap.
    pub clipped_updates: usize,
    /// Parameter values that would have become non-finite and were kept at
    /// their previous value instead.
    pub reverted_values: usize,
}

impl StepReport {
    /// No guard fired.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }

    /// Accumulate another step's counters (for per-epoch totals).
    pub fn absorb(&mut self, other: StepReport) {
        self.nonfinite_grads += other.nonfinite_grads;
        self.clipped_updates += other.clipped_updates;
        self.reverted_values += other.reverted_values;
    }
}

/// Adam optimizer with per-parameter first/second-moment state.
///
/// Serializable so a training run can snapshot its optimizer mid-flight:
/// the moment buffers and step counter round-trip exactly (the vendored
/// JSON writer emits shortest-round-trip floats), which is what makes
/// crash+resume bitwise-identical to an uninterrupted run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
    /// Per-element update magnitude cap. Far above any healthy Adam update
    /// (which is ≈ lr); only pathological moment states reach it.
    pub max_update: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with the paper's defaults (lr 0.001 in the paper; pass any lr).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            max_update: 10.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Number of completed steps.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one update from the gradients currently held in `store`.
    ///
    /// # Panics
    /// If a trainable parameter's gradient is released
    /// ([`ParamStore::release_grads`]).
    pub fn step(&mut self, store: &mut ParamStore) -> StepReport {
        let mut report = StepReport::default();
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let n = store.len();
        // Lazily grow moment buffers to match the store (parameters are only
        // ever appended, never removed).
        while self.m.len() < n {
            self.m.push(Vec::new());
            self.v.push(Vec::new());
        }
        let step = AdamStep {
            beta1: self.beta1,
            beta2: self.beta2,
            lr: self.lr,
            eps: self.eps,
            max_update: self.max_update,
            bc1,
            bc2,
        };
        let wd = self.weight_decay;
        for (i, p) in store.params_mut().iter_mut().enumerate() {
            if !p.trainable {
                continue;
            }
            if self.m[i].len() != p.value.len() {
                self.m[i] = vec![0.0; p.value.len()];
                self.v[i] = vec![0.0; p.value.len()];
            }
            assert_eq!(p.grad.len(), p.value.len(), "{}: gradient released", p.name);
            let (m, v) = (&mut self.m[i], &mut self.v[i]);
            let (values, grads) = (p.value.data_mut(), p.grad.data());
            // Weight decay is fixed for the run: branch once, not per element.
            if wd > 0.0 {
                step.apply(values, grads, m, v, |g, x| g + wd * x, &mut report);
            } else {
                step.apply(values, grads, m, v, |g, _| g, &mut report);
            }
        }
        report
    }
}

/// One Adam step's constants, applied to a parameter's elements.
#[derive(Clone, Copy)]
struct AdamStep {
    beta1: f32,
    beta2: f32,
    lr: f32,
    eps: f32,
    max_update: f32,
    bc1: f32,
    bc2: f32,
}

impl AdamStep {
    /// The update of every element, its guards counted with selects instead
    /// of branches so the loop vectorizes. Each result is the IEEE
    /// mul/add/div/sqrt sequence of the branching form (Rust never fuses
    /// them into an FMA), so values and counts are bitwise the same.
    #[inline(always)]
    fn apply(
        self,
        values: &mut [f32],
        grads: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        decay: impl Fn(f32, f32) -> f32,
        report: &mut StepReport,
    ) {
        let (mut nonfinite, mut clipped, mut reverted) = (0u32, 0u32, 0u32);
        let rows = values.iter_mut().zip(grads).zip(m.iter_mut().zip(v.iter_mut()));
        for ((x, &g), (m, v)) in rows {
            // A single exploding sample must not poison the moments.
            let finite = g.is_finite();
            nonfinite += u32::from(!finite);
            let g = decay(if finite { g } else { 0.0 }, *x);
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let mhat = *m / self.bc1;
            let vhat = *v / self.bc2;
            let u = self.lr * mhat / (vhat.sqrt() + self.eps);
            let clip = u.abs() > self.max_update;
            clipped += u32::from(clip);
            let u = if clip { self.max_update.copysign(u) } else { u };
            let next = *x - u;
            let keep = next.is_finite();
            reverted += u32::from(!keep);
            *x = if keep { next } else { *x };
        }
        report.nonfinite_grads += nonfinite as usize;
        report.clipped_updates += clipped as usize;
        report.reverted_values += reverted as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::tensor::Tensor;

    /// Minimize (w - 3)² with `step`; the final `w`.
    fn converges(mut step: impl FnMut(&mut ParamStore)) -> f32 {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(0.0));
        for _ in 0..500 {
            store.zero_grads();
            let mut g = Graph::new(&store);
            let wv = g.param(w);
            let target = g.constant(Tensor::scalar(3.0));
            let loss = g.mse(wv, target);
            let (_, grads) = g.backward(loss);
            grads.merge_into(&mut store);
            step(&mut store);
        }
        store.value(w).get(0, 0)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        let w = converges(move |s| {
            opt.step(s);
        });
        assert!((w - 3.0).abs() < 0.05, "w={w}");
    }

    #[test]
    fn adam_skips_frozen_params() {
        let mut store = ParamStore::new();
        let w = store.register_frozen("frozen", Tensor::scalar(1.0));
        store.accumulate_grad(w, &Tensor::scalar(10.0));
        let mut opt = Adam::new(0.1);
        opt.step(&mut store);
        assert_eq!(store.value(w).get(0, 0), 1.0);
    }

    /// A step over released gradients ([`ParamStore::release_grads`])
    /// panics instead of updating nothing.
    #[test]
    #[should_panic(expected = "gradient released")]
    fn adam_refuses_released_gradients() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::scalar(1.0));
        store.release_grads();
        Adam::new(0.1).step(&mut store);
    }

    #[test]
    fn adam_ignores_nan_gradients() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(1.0));
        store.accumulate_grad(w, &Tensor::scalar(f32::NAN));
        let mut opt = Adam::new(0.1);
        let report = opt.step(&mut store);
        assert!(store.value(w).get(0, 0).is_finite());
        assert_eq!(report.nonfinite_grads, 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn clean_step_reports_no_guards() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(1.0));
        store.accumulate_grad(w, &Tensor::scalar(0.5));
        let mut opt = Adam::new(0.1);
        assert!(opt.step(&mut store).is_clean());
    }

    #[test]
    fn oversized_updates_are_clamped() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(0.0));
        store.accumulate_grad(w, &Tensor::scalar(1.0));
        let mut opt = Adam::new(1.0);
        opt.max_update = 1e-3;
        let report = opt.step(&mut store);
        assert_eq!(report.clipped_updates, 1);
        assert!((store.value(w).get(0, 0) + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn step_reports_accumulate() {
        let mut total = StepReport::default();
        total.absorb(StepReport { nonfinite_grads: 2, clipped_updates: 1, reverted_values: 0 });
        total.absorb(StepReport { nonfinite_grads: 1, clipped_updates: 0, reverted_values: 3 });
        assert_eq!(
            total,
            StepReport { nonfinite_grads: 3, clipped_updates: 1, reverted_values: 3 }
        );
    }

    #[test]
    fn adam_handles_params_registered_after_first_step() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::scalar(0.0));
        let mut opt = Adam::new(0.05);
        store.accumulate_grad(a, &Tensor::scalar(1.0));
        opt.step(&mut store);
        let b = store.register("b", Tensor::scalar(0.0));
        store.zero_grads();
        store.accumulate_grad(b, &Tensor::scalar(1.0));
        opt.step(&mut store); // must not panic
        assert!(store.value(b).get(0, 0) < 0.0);
    }

    /// The branching per-element loop `Adam::step` ran before its guards
    /// became selects, kept verbatim as the oracle.
    fn branching_step(opt: &mut Adam, store: &mut ParamStore) -> StepReport {
        let mut report = StepReport::default();
        opt.t += 1;
        let t = opt.t as f32;
        let bc1 = 1.0 - opt.beta1.powf(t);
        let bc2 = 1.0 - opt.beta2.powf(t);
        while opt.m.len() < store.len() {
            opt.m.push(Vec::new());
            opt.v.push(Vec::new());
        }
        for (i, p) in store.params_mut().iter_mut().enumerate() {
            if !p.trainable {
                continue;
            }
            if opt.m[i].len() != p.value.len() {
                opt.m[i] = vec![0.0; p.value.len()];
                opt.v[i] = vec![0.0; p.value.len()];
            }
            let (m, v) = (&mut opt.m[i], &mut opt.v[i]);
            let wd = opt.weight_decay;
            let values = p.value.data_mut();
            for (j, gref) in p.grad.data().iter().enumerate() {
                let mut g = *gref;
                if !g.is_finite() {
                    g = 0.0;
                    report.nonfinite_grads += 1;
                }
                if wd > 0.0 {
                    g += wd * values[j];
                }
                m[j] = opt.beta1 * m[j] + (1.0 - opt.beta1) * g;
                v[j] = opt.beta2 * v[j] + (1.0 - opt.beta2) * g * g;
                let mhat = m[j] / bc1;
                let vhat = v[j] / bc2;
                let mut u = opt.lr * mhat / (vhat.sqrt() + opt.eps);
                if u.abs() > opt.max_update {
                    u = u.signum() * opt.max_update;
                    report.clipped_updates += 1;
                }
                let next = values[j] - u;
                if next.is_finite() {
                    values[j] = next;
                } else {
                    report.reverted_values += 1;
                }
            }
        }
        report
    }

    /// The select-counted step is bitwise the branching one: values,
    /// moments and guard counts, over gradients that are NaN, ±Inf, huge
    /// (clamped updates), ±0 and ordinary, values near `f32::MAX`
    /// (reverted updates), with and without weight decay, over steps.
    #[test]
    fn branch_free_step_is_bitwise_the_branching_loop() {
        let mut init = crate::init::Initializer::new(29);
        let special =
            [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30, -1e30, 0.0, -0.0, f32::MAX];
        // The second setting's updates overflow values near `f32::MAX`.
        for (wd, lr, max_update) in [(0.0, 0.05, 0.04), (1e-2, 0.05, 0.04), (0.0, 1e37, 1e36)] {
            let mut store = ParamStore::new();
            for (rows, cols) in [(7, 13), (1, 33), (64, 5)] {
                let mut value = init.normal(rows, cols, 1.0);
                for (j, x) in value.data_mut().iter_mut().enumerate() {
                    if j % 11 == 3 {
                        *x = f32::MAX;
                    }
                }
                store.register(format!("p{rows}x{cols}"), value);
            }
            store.register_frozen("frozen", Tensor::ones(2, 2));
            let mut fast = Adam::new(lr).with_weight_decay(wd);
            fast.max_update = max_update;
            let mut slow = fast.clone();
            let mut other = store.clone();
            let mut reverted = 0;
            for step in 0..4 {
                let grads: Vec<Tensor> = store
                    .iter()
                    .map(|(_, p)| {
                        let mut g = init.normal(p.value.rows(), p.value.cols(), 3.0);
                        for (j, x) in g.data_mut().iter_mut().enumerate() {
                            if (j + step) % 5 == 0 {
                                *x = special[(j / 5 + step) % special.len()];
                            }
                        }
                        g
                    })
                    .collect();
                for s in [&mut store, &mut other] {
                    s.zero_grads();
                    for (i, g) in grads.iter().enumerate() {
                        let id = s.iter().nth(i).map(|(id, _)| id).expect("param");
                        s.accumulate_grad(id, g);
                    }
                }
                let got = fast.step(&mut store);
                let want = branching_step(&mut slow, &mut other);
                assert_eq!(got, want, "step {step}, wd {wd}: guard counts differ");
                assert!(got.nonfinite_grads > 0 && got.clipped_updates > 0);
                reverted += got.reverted_values;
                assert!(store.values_bitwise_eq(&other), "step {step}, wd {wd}: values differ");
                let bits = |m: &[Vec<f32>]| -> Vec<u32> {
                    m.iter().flatten().map(|x| x.to_bits()).collect()
                };
                assert_eq!(bits(&fast.m), bits(&slow.m), "first moments differ");
                assert_eq!(bits(&fast.v), bits(&slow.v), "second moments differ");
            }
            assert!(lr < 1.0 || reverted > 0, "lr {lr}: no update overflowed");
        }
    }

    #[test]
    fn step_counter_advances() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::scalar(0.0));
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.steps(), 0);
        opt.step(&mut store);
        opt.step(&mut store);
        assert_eq!(opt.steps(), 2);
    }
}
