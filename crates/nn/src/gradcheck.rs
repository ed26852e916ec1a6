//! Finite-difference gradient checking, exposed as a public utility so
//! downstream crates (and users extending the op set) can verify custom
//! compositions the same way this crate's own tests do.

use crate::graph::{Graph, Var};
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Result of checking one parameter.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Largest relative deviation between analytic and numeric gradient.
    pub max_rel_error: f32,
    /// Index of the offending scalar (flat index into the tensor).
    pub worst_index: usize,
    pub analytic: f32,
    pub numeric: f32,
}

impl GradCheckReport {
    pub fn passes(&self, tol: f32) -> bool {
        self.max_rel_error <= tol
    }
}

/// Compare the analytic gradient of `param` under `build` (a closure that
/// records a scalar loss onto a fresh graph) against central finite
/// differences with step `eps`. The store's own gradients are not touched.
///
/// `build` must be deterministic: it is re-invoked with perturbed parameter
/// values.
pub fn check_gradient(
    store: &mut ParamStore,
    param: ParamId,
    eps: f32,
    mut build: impl FnMut(&mut Graph) -> Var,
) -> GradCheckReport {
    let analytic = {
        let mut g = Graph::new(store);
        let loss = build(&mut g);
        let (rows, cols) = store.value(param).shape();
        g.backward(loss).1.get(param).cloned().unwrap_or_else(|| Tensor::zeros(rows, cols))
    };
    let mut eval = |store: &ParamStore| {
        let mut g = Graph::new(store);
        let loss = build(&mut g);
        g.value(loss).get(0, 0)
    };

    let mut report =
        GradCheckReport { max_rel_error: 0.0, worst_index: 0, analytic: 0.0, numeric: 0.0 };
    for i in 0..store.value(param).len() {
        let orig = store.value(param).data()[i];
        store.value_mut(param).data_mut()[i] = orig + eps;
        let lp = eval(store);
        store.value_mut(param).data_mut()[i] = orig - eps;
        let lm = eval(store);
        store.value_mut(param).data_mut()[i] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        let a = analytic.data()[i];
        let rel = (a - numeric).abs() / (1.0 + numeric.abs());
        // A NaN on either side is a failure, not a skipped element.
        let rel = if rel.is_nan() { f32::INFINITY } else { rel };
        if rel > report.max_rel_error {
            report = GradCheckReport { max_rel_error: rel, worst_index: i, analytic: a, numeric };
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use crate::layers::{Activation, Mlp};

    #[test]
    fn passes_on_a_correct_network() {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(3);
        let mlp = Mlp::new(
            &mut store,
            &mut init,
            "m",
            &[3, 8, 1],
            Activation::Tanh,
            Activation::Identity,
        );
        let x = init.normal(4, 3, 1.0);
        let w = mlp.layers[0].w;
        let report = check_gradient(&mut store, w, 1e-2, |g| {
            let xv = g.constant(x.clone());
            let y = mlp.forward(g, &xv);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
        assert!(report.passes(2e-2), "gradcheck failed: {report:?}");
    }

    #[test]
    fn detects_a_wrong_gradient() {
        // Build a loss whose recorded graph differs from the perturbed
        // evaluation (simulating a buggy op): gradcheck must flag it.
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(1.0));
        let mut call = 0usize;
        let report = check_gradient(&mut store, w, 1e-2, move |g| {
            call += 1;
            let wv = g.param(w);
            if call == 1 {
                // analytic pass: loss = w
                g.sum_all(wv)
            } else {
                // numeric passes: loss = 3w (inconsistent!)
                let t = g.scale(wv, 3.0);
                g.sum_all(t)
            }
        });
        assert!(!report.passes(0.3), "inconsistent function must fail: {report:?}");
    }

    #[test]
    fn a_nan_analytic_gradient_fails() {
        // Every forward value is 0, so the loss is flat and the numeric
        // gradient is 0; backward overflows to ∞ and then multiplies it by
        // the first scale's 0, so the analytic gradient is NaN.
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::row(vec![1.0, -0.5]));
        let report = check_gradient(&mut store, w, 1e-2, |g| {
            let wv = g.param(w);
            let zero = g.scale(wv, 0.0);
            let big = g.scale(zero, 1e30);
            let big = g.scale(big, 1e30);
            g.sum_all(big)
        });
        assert!(report.analytic.is_nan(), "the setup must yield a NaN gradient: {report:?}");
        assert!(!report.passes(f32::MAX), "a NaN gradient must fail: {report:?}");
    }
}
