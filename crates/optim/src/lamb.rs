//! LAMB (NVLAMB flavour) — the paper's first-order baseline.

use crate::Optimizer;
use pipefisher_nn::Parameter;
use pipefisher_tensor::Matrix;
use std::collections::HashMap;

/// NVLAMB's Adam moment decays and denominator epsilon.
const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const EPS: f64 = 1e-6;
/// NVLAMB's clamp on the trust ratio.
const MAX_TRUST_RATIO: f64 = 10.0;

/// LAMB (You et al., ICLR 2020) as implemented in NVIDIA's BERT codebase
/// ("NVLAMB"), the baseline optimizer in the paper's §4 experiments.
///
/// Per parameter tensor: compute the bias-corrected Adam direction
/// (Kingma & Ba; betas 0.9/0.999, eps 1e-6), add weight decay into the
/// update, then scale by the layer-wise *trust ratio* `‖θ‖ / ‖update‖`
/// (clamped at 10), so every layer moves a distance proportional to its own
/// weight norm — the property that lets BERT train with huge batches
/// (8K–64K in the paper).
#[derive(Debug, Clone)]
pub struct Lamb {
    weight_decay: f64,
    t: u64,
    moments: HashMap<String, (Matrix, Matrix)>,
}

impl Lamb {
    /// Creates a LAMB optimizer with the given weight decay.
    pub fn new(weight_decay: f64) -> Self {
        Lamb {
            weight_decay,
            t: 0,
            moments: HashMap::new(),
        }
    }

    /// The trust ratio LAMB would apply for the given norms.
    fn trust_ratio(weight_norm: f64, update_norm: f64) -> f64 {
        if weight_norm > 0.0 && update_norm > 0.0 {
            (weight_norm / update_norm).min(MAX_TRUST_RATIO)
        } else {
            1.0
        }
    }

    /// Computes the bias-corrected Adam direction `m̂ / (√v̂ + eps)` for one
    /// parameter, updating its moments in place in one fused loop.
    fn direction(&mut self, p: &Parameter) -> Matrix {
        if !self.moments.contains_key(&p.name) {
            // First visit only: steady-state steps never clone the name.
            self.moments.insert(
                p.name.clone(),
                (
                    Matrix::zeros(p.value.rows(), p.value.cols()),
                    Matrix::zeros(p.value.rows(), p.value.cols()),
                ),
            );
        }
        let (m, v) = self
            .moments
            .get_mut(&p.name)
            .expect("moments just inserted");
        let (c1, c2) = (1.0 - BETA1, 1.0 - BETA2);
        let s1 = 1.0 / (1.0 - BETA1.powi(self.t as i32));
        let s2 = 1.0 / (1.0 - BETA2.powi(self.t as i32));
        let mut out = Matrix::zeros(p.value.rows(), p.value.cols());
        let g = p.grad.as_slice();
        let ms = m.as_mut_slice();
        let vs = v.as_mut_slice();
        let os = out.as_mut_slice();
        for i in 0..g.len() {
            let gi = g[i];
            ms[i] = ms[i] * BETA1 + c1 * gi;
            vs[i] = vs[i] * BETA2 + c2 * (gi * gi);
            let mhat = ms[i] * s1;
            let vhat = vs[i] * s2;
            os[i] = mhat / (vhat.sqrt() + EPS);
        }
        out
    }
}

impl crate::StateSnapshot for Lamb {
    fn export_state(&self) -> Vec<u8> {
        let mut w = pipefisher_ckpt::SectionWriter::new();
        w.u64(self.t);
        let entries = crate::snapshot::sorted_entries(&self.moments);
        w.u32(entries.len() as u32);
        for (name, (m, v)) in entries {
            w.str(name);
            w.matrix(m);
            w.matrix(v);
        }
        w.into_bytes()
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), pipefisher_ckpt::CkptError> {
        let mut r = pipefisher_ckpt::SectionReader::new("optim.lamb", bytes);
        let t = r.u64()?;
        let count = r.u32()?;
        let mut moments = HashMap::new();
        for _ in 0..count {
            let name = r.str()?;
            let m = r.matrix()?;
            let v = r.matrix()?;
            crate::snapshot::insert_unique(&mut moments, "LAMB moments", name, (m, v))?;
        }
        r.finish()?;
        self.t = t;
        self.moments = moments;
        Ok(())
    }

    fn hand_over(&mut self, into: &mut Self, model: &mut dyn crate::KfacModel) {
        model.visit_all_params(&mut |p| {
            crate::snapshot::move_entry(&mut self.moments, &mut into.moments, &p.name);
        });
    }
}

impl Optimizer for Lamb {
    fn begin_step(&mut self) {
        self.t += 1;
    }

    fn step_param(&mut self, p: &mut Parameter, lr: f64) {
        assert!(
            self.t > 0,
            "Lamb: begin_step must be called before step_param"
        );
        let mut update = self.direction(p);
        if self.weight_decay > 0.0 {
            update.axpy(self.weight_decay, &p.value);
        }
        let ratio = Self::trust_ratio(p.value.frobenius_norm(), update.frobenius_norm());
        p.value.axpy(-lr * ratio, &update);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    #[should_panic(expected = "begin_step")]
    fn step_without_begin_panics() {
        let mut opt = Lamb::new(0.0);
        let mut p = Parameter::new("w", Matrix::zeros(1, 1));
        opt.step_param(&mut p, 0.1);
    }

    #[test]
    fn state_is_per_parameter() {
        // Opposite gradients on two same-sized parameters move them in
        // opposite directions: each keeps its own moments.
        let mut opt = Lamb::new(0.0);
        let mut a = Parameter::new("a", Matrix::zeros(1, 1));
        let mut b = Parameter::new("b", Matrix::zeros(1, 1));
        a.grad = Matrix::full(1, 1, 1.0);
        b.grad = Matrix::full(1, 1, -1.0);
        opt.begin_step();
        opt.step_param(&mut a, 0.1);
        opt.step_param(&mut b, 0.1);
        assert!(a.value[(0, 0)] < 0.0);
        assert!(b.value[(0, 0)] > 0.0);
        assert_eq!(opt.moments.len(), 2);
    }
}
