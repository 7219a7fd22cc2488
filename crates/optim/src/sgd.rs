//! Stochastic gradient descent with momentum and decoupled weight decay.

use crate::Optimizer;
use pipefisher_nn::Parameter;
use pipefisher_tensor::Matrix;
use std::collections::HashMap;

/// SGD with classical momentum: `v ← μ·v + g`, `θ ← θ − lr·(v + wd·θ)`.
#[derive(Debug, Clone)]
pub struct Sgd {
    momentum: f64,
    weight_decay: f64,
    velocity: HashMap<String, Matrix>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(momentum: f64, weight_decay: f64) -> Self {
        Sgd {
            momentum,
            weight_decay,
            velocity: HashMap::new(),
        }
    }

    /// Momentum coefficient.
    pub fn momentum(&self) -> f64 {
        self.momentum
    }
}

impl Default for Sgd {
    fn default() -> Self {
        Sgd::new(0.9, 0.0)
    }
}

impl Optimizer for Sgd {
    fn begin_step(&mut self) {}

    fn step_param(&mut self, p: &mut Parameter, lr: f64) {
        let (wd, mu) = (self.weight_decay, self.momentum);
        if mu > 0.0 {
            if !self.velocity.contains_key(&p.name) {
                // First visit only: steady-state steps never clone the name.
                self.velocity.insert(
                    p.name.clone(),
                    Matrix::zeros(p.value.rows(), p.value.cols()),
                );
            }
            let v = self
                .velocity
                .get_mut(&p.name)
                .expect("velocity just inserted");
            // v ← μ·v + g, fused into one pass (bitwise identical to the
            // scale_inplace + axpy pair).
            for (vi, &gi) in v.as_mut_slice().iter_mut().zip(p.grad.as_slice().iter()) {
                *vi = *vi * mu + gi;
            }
            apply_step(&mut p.value, v, wd, lr);
        } else {
            apply_step(&mut p.value, &p.grad, wd, lr);
        }
    }
}

impl crate::StateSnapshot for Sgd {
    fn export_state(&self) -> Vec<u8> {
        let mut w = pipefisher_ckpt::SectionWriter::new();
        let entries = crate::snapshot::sorted_entries(&self.velocity);
        w.u32(entries.len() as u32);
        for (name, v) in entries {
            w.str(name);
            w.matrix(v);
        }
        w.into_bytes()
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), pipefisher_ckpt::CkptError> {
        let mut r = pipefisher_ckpt::SectionReader::new("optim.sgd", bytes);
        let count = r.u32()?;
        let mut velocity = HashMap::new();
        for _ in 0..count {
            let name = r.str()?;
            let v = r.matrix()?;
            crate::snapshot::insert_unique(&mut velocity, "SGD velocity", name, v)?;
        }
        r.finish()?;
        self.velocity = velocity;
        Ok(())
    }

    fn hand_over(&mut self, into: &mut Self, model: &mut dyn crate::KfacModel) {
        model.visit_all_params(&mut |p| {
            crate::snapshot::move_entry(&mut self.velocity, &mut into.velocity, &p.name);
        });
    }
}

/// `θ ← θ − lr·(base + wd·θ)` elementwise, without materializing the step.
/// Matches the original clone + axpy sequence bitwise: when `wd == 0` the
/// decay term is skipped entirely (adding `0.0` would flip `-0.0` signs).
fn apply_step(value: &mut Matrix, base: &Matrix, wd: f64, lr: f64) {
    let t = value.as_mut_slice();
    let b = base.as_slice();
    if wd > 0.0 {
        for (ti, &bi) in t.iter_mut().zip(b.iter()) {
            let step = bi + wd * *ti;
            *ti += -lr * step;
        }
    } else {
        for (ti, &bi) in t.iter_mut().zip(b.iter()) {
            *ti += -lr * bi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(v: f64, g: f64) -> Parameter {
        let mut p = Parameter::new("w", Matrix::full(1, 1, v));
        p.grad = Matrix::full(1, 1, g);
        p
    }

    #[test]
    fn plain_sgd_update() {
        let mut opt = Sgd::new(0.0, 0.0);
        let mut p = param(1.0, 2.0);
        opt.step_param(&mut p, 0.1);
        assert!((p.value[(0, 0)] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::new(0.5, 0.0);
        let mut p = param(0.0, 1.0);
        opt.step_param(&mut p, 1.0); // v=1, θ=-1
        opt.step_param(&mut p, 1.0); // v=1.5, θ=-2.5
        assert!((p.value[(0, 0)] + 2.5).abs() < 1e-12);
    }

    #[test]
    fn weight_decay_shrinks() {
        let mut opt = Sgd::new(0.0, 0.1);
        let mut p = param(10.0, 0.0);
        opt.step_param(&mut p, 1.0);
        assert!((p.value[(0, 0)] - 9.0).abs() < 1e-12);
    }

    #[test]
    fn quadratic_converges() {
        // minimize 0.5·x² (grad = x)
        let mut opt = Sgd::new(0.9, 0.0);
        let mut p = param(5.0, 0.0);
        for _ in 0..200 {
            p.grad = p.value.clone();
            opt.begin_step();
            opt.step_param(&mut p, 0.05);
        }
        assert!(p.value[(0, 0)].abs() < 1e-3);
    }
}
