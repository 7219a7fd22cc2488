//! LAMB (NVLAMB flavour) — the paper's first-order baseline.

use crate::{Adam, Optimizer};
use pipefisher_nn::Parameter;

/// LAMB (You et al., ICLR 2020) as implemented in NVIDIA's BERT codebase
/// ("NVLAMB"), the baseline optimizer in the paper's §4 experiments.
///
/// Per parameter tensor: compute the bias-corrected Adam direction, add
/// weight decay into the update, then scale by the layer-wise *trust ratio*
/// `‖θ‖ / ‖update‖` (clamped), so every layer moves a distance proportional
/// to its own weight norm — the property that lets BERT train with huge
/// batches (8K–64K in the paper).
#[derive(Debug, Clone)]
pub struct Lamb {
    inner: Adam,
    weight_decay: f64,
    max_trust_ratio: f64,
}

impl Lamb {
    /// Creates a LAMB optimizer (betas 0.9/0.999, eps 1e-6 as in NVLAMB).
    pub fn new(weight_decay: f64) -> Self {
        Lamb {
            inner: Adam::new(0.9, 0.999, 1e-6, 0.0),
            weight_decay,
            max_trust_ratio: 10.0,
        }
    }

    /// Overrides the trust-ratio clamp (default 10, matching NVLAMB).
    pub fn with_max_trust_ratio(mut self, max: f64) -> Self {
        self.max_trust_ratio = max;
        self
    }

    /// The trust ratio LAMB would apply for the given norms.
    fn trust_ratio(&self, weight_norm: f64, update_norm: f64) -> f64 {
        if weight_norm > 0.0 && update_norm > 0.0 {
            (weight_norm / update_norm).min(self.max_trust_ratio)
        } else {
            1.0
        }
    }
}

impl Default for Lamb {
    fn default() -> Self {
        Lamb::new(0.01)
    }
}

impl crate::StateSnapshot for Lamb {
    fn export_state(&self) -> Vec<u8> {
        // All of LAMB's mutable state lives in the inner Adam.
        crate::StateSnapshot::export_state(&self.inner)
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), pipefisher_ckpt::CkptError> {
        crate::StateSnapshot::import_state(&mut self.inner, bytes)
    }

    fn hand_over(&mut self, into: &mut Self, model: &mut dyn crate::KfacModel) {
        self.inner.hand_over(&mut into.inner, model);
    }
}

impl Optimizer for Lamb {
    fn begin_step(&mut self) {
        self.inner.begin_step();
    }

    fn step_param(&mut self, p: &mut Parameter, lr: f64) {
        assert!(
            self.inner.step_count() > 0,
            "Lamb: begin_step must be called before step_param"
        );
        let mut update = self.inner.direction(p);
        if self.weight_decay > 0.0 {
            update.axpy(self.weight_decay, &p.value);
        }
        let ratio = self.trust_ratio(p.value.frobenius_norm(), update.frobenius_norm());
        p.value.axpy(-lr * ratio, &update);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefisher_tensor::Matrix;

    #[test]
    fn trust_ratio_scales_update() {
        let mut opt = Lamb::new(0.0);
        // Large weights, tiny grad → trust ratio amplifies (up to clamp).
        let mut p = Parameter::new("w", Matrix::full(1, 4, 100.0));
        p.grad = Matrix::full(1, 4, 1e-3);
        opt.begin_step();
        let before = p.value[(0, 0)];
        opt.step_param(&mut p, 0.01);
        let moved = (before - p.value[(0, 0)]).abs();
        // Adam direction ≈ 1 per coordinate; plain Adam would move 0.01.
        // Trust ratio is clamped at 10 → move ≈ 0.1.
        assert!(moved > 0.05, "moved {moved}");
        assert!(moved < 0.2, "moved {moved}");
    }

    #[test]
    fn zero_weight_uses_unit_ratio() {
        let mut opt = Lamb::new(0.0);
        let mut p = Parameter::new("w", Matrix::zeros(1, 2));
        p.grad = Matrix::full(1, 2, 1.0);
        opt.begin_step();
        opt.step_param(&mut p, 0.1);
        // ratio = 1 → behaves like Adam: ≈ −0.1 per coordinate.
        assert!((p.value[(0, 0)] + 0.1).abs() < 1e-4);
    }

    #[test]
    fn weight_decay_enters_update_norm() {
        // NVLAMB puts decay inside the update before the trust ratio.
        let mut opt = Lamb::new(0.5);
        let mut p = Parameter::new("w", Matrix::full(1, 1, 2.0));
        p.grad = Matrix::full(1, 1, 0.0);
        // With zero grad, Adam direction is 0 and update = wd·θ = 1.0;
        // ratio = ‖θ‖/‖update‖ = 2.0 → θ ← 2 − lr·2·1 = 2 − 0.2.
        opt.begin_step();
        opt.step_param(&mut p, 0.1);
        assert!((p.value[(0, 0)] - 1.8).abs() < 1e-9);
    }

    #[test]
    fn converges_on_quadratic() {
        let mut opt = Lamb::new(0.0);
        let mut p = Parameter::new("w", Matrix::full(1, 1, 3.0));
        for _ in 0..300 {
            p.grad = p.value.clone();
            opt.begin_step();
            opt.step_param(&mut p, 0.02);
        }
        assert!(p.value[(0, 0)].abs() < 0.05, "final {}", p.value[(0, 0)]);
    }
}
