//! Finite-difference gradient checking.
//!
//! Used by the test suites of this crate (and downstream crates) to verify
//! that every hand-written backward pass computes the exact gradient of its
//! forward pass. The convention: perturb one parameter entry, re-run the
//! scalar loss, compare the central difference against the accumulated
//! analytic gradient.

use crate::{Layer, Parameter};
use pipefisher_tensor::Matrix;

/// Report for a single checked parameter.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Parameter name.
    pub name: String,
    /// Maximum absolute difference between analytic and numeric gradients.
    pub max_abs_diff: f64,
    /// Maximum relative difference (normalized by magnitude, floor 1e-6).
    pub max_rel_diff: f64,
    /// Number of entries compared.
    pub entries: usize,
}

/// Checks the analytic parameter gradients of `layer` for the scalar loss
/// `loss_fn` (which must run a fresh forward pass each call).
///
/// `loss_and_backward` must zero grads, run forward + backward once, and
/// return the loss; `loss_only` must run forward and return the loss without
/// touching grads. `stride` subsamples entries of large parameters.
///
/// Returns one report per parameter.
pub fn check_layer_grads<L: Layer>(
    layer: &mut L,
    mut loss_and_backward: impl FnMut(&mut L) -> f64,
    mut loss_only: impl FnMut(&mut L) -> f64,
    eps: f64,
    stride: usize,
) -> Vec<GradCheckReport> {
    let stride = stride.max(1);
    // Collect analytic gradients.
    layer.zero_grad();
    let _ = loss_and_backward(layer);
    let mut grads: Vec<(String, Matrix)> = Vec::new();
    layer.visit_params(&mut |p: &mut Parameter| grads.push((p.name.clone(), p.grad.clone())));

    let mut reports = Vec::new();
    for (name, analytic) in grads {
        let mut max_abs = 0.0_f64;
        let mut max_rel = 0.0_f64;
        let mut entries = 0;
        let n = analytic.len();
        let mut idx = 0;
        while idx < n {
            let nudge = |layer: &mut L, delta: f64| {
                layer.visit_params(&mut |p: &mut Parameter| {
                    if p.name == name {
                        p.value.as_mut_slice()[idx] += delta;
                    }
                });
            };
            nudge(layer, eps);
            let lp = loss_only(layer);
            nudge(layer, -2.0 * eps);
            let lm = loss_only(layer);
            nudge(layer, eps); // restore
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.as_slice()[idx];
            let abs = (a - numeric).abs();
            let rel = abs / a.abs().max(numeric.abs()).max(1e-6);
            max_abs = max_abs.max(abs);
            max_rel = max_rel.max(rel);
            entries += 1;
            idx += stride;
        }
        reports.push(GradCheckReport {
            name,
            max_abs_diff: max_abs,
            max_rel_diff: max_rel,
            entries,
        });
    }
    reports
}

/// Asserts that all reports are within `tol` relative error.
///
/// # Panics
///
/// Panics with a descriptive message if any parameter fails.
pub fn assert_grads_close(reports: &[GradCheckReport], tol: f64) {
    for r in reports {
        assert!(
            r.max_rel_diff < tol,
            "gradient check failed for {}: rel diff {} (abs {}) over {} entries",
            r.name,
            r.max_rel_diff,
            r.max_abs_diff,
            r.entries
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cross_entropy_backward, cross_entropy_loss, ForwardCtx, Linear, Tape};
    use pipefisher_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_passes_gradcheck() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut lin = Linear::new("fc", 4, 3, &mut rng);
        let x = init::normal(5, 4, 1.0, &mut rng);
        let targets = vec![0i64, 1, 2, 0, 1];

        let x2 = x.clone();
        let t2 = targets.clone();
        let reports = check_layer_grads(
            &mut lin,
            move |l| {
                let mut tape = Tape::new(ForwardCtx::train());
                let logits = l.forward(x.clone(), &mut tape);
                let dlogits = cross_entropy_backward(&logits, &targets);
                let _ = l.backward(&dlogits, &mut tape);
                cross_entropy_loss(&logits, &targets).loss
            },
            move |l| {
                let logits = l.forward(x2.clone(), &mut Tape::new(ForwardCtx::train()));
                cross_entropy_loss(&logits, &t2).loss
            },
            1e-5,
            1,
        );
        assert_grads_close(&reports, 1e-5);
    }
}
