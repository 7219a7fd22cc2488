//! Adam with decoupled weight decay (AdamW-style).

use crate::Optimizer;
use pipefisher_nn::Parameter;
use pipefisher_tensor::Matrix;
use std::collections::HashMap;

/// Adam (Kingma & Ba) with bias correction and decoupled weight decay.
///
/// This is the first-order optimizer the paper's Figure 3/4 baselines run
/// ("w/ Adam"): it has the same per-step compute profile as any
/// elementwise optimizer, so the pipeline bubbles it leaves behind are what
/// PipeFisher fills.
#[derive(Debug, Clone)]
pub struct Adam {
    beta1: f64,
    beta2: f64,
    eps: f64,
    weight_decay: f64,
    t: u64,
    moments: HashMap<String, (Matrix, Matrix)>,
}

impl Adam {
    /// Creates an Adam optimizer with the given hyperparameters.
    pub fn new(beta1: f64, beta2: f64, eps: f64, weight_decay: f64) -> Self {
        Adam {
            beta1,
            beta2,
            eps,
            weight_decay,
            t: 0,
            moments: HashMap::new(),
        }
    }

    /// Current step count (for bias correction).
    pub fn step_count(&self) -> u64 {
        self.t
    }

    /// Computes the bias-corrected Adam direction for one parameter without
    /// applying it (shared with [`crate::Lamb`]). The moment matrices update
    /// in place; one fused loop performs the same per-element operation
    /// sequence as the original scale/axpy/hadamard passes, so results are
    /// bitwise identical.
    pub(crate) fn direction(&mut self, p: &Parameter) -> Matrix {
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
        let (b1, b2) = (self.beta1, self.beta2);
        let (c1, c2) = (1.0 - b1, 1.0 - b2);
        let s1 = 1.0 / (1.0 - b1.powi(self.t as i32));
        let s2 = 1.0 / (1.0 - b2.powi(self.t as i32));
        let eps = self.eps;
        let mut out = Matrix::zeros(p.value.rows(), p.value.cols());
        let g = p.grad.as_slice();
        let ms = m.as_mut_slice();
        let vs = v.as_mut_slice();
        let os = out.as_mut_slice();
        for i in 0..g.len() {
            let gi = g[i];
            ms[i] = ms[i] * b1 + c1 * gi;
            vs[i] = vs[i] * b2 + c2 * (gi * gi);
            let mhat = ms[i] * s1;
            let vhat = vs[i] * s2;
            os[i] = mhat / (vhat.sqrt() + eps);
        }
        out
    }
}

impl Default for Adam {
    fn default() -> Self {
        Adam::new(0.9, 0.999, 1e-8, 0.0)
    }
}

impl crate::StateSnapshot for Adam {
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
        let mut r = pipefisher_ckpt::SectionReader::new("optim.adam", bytes);
        let t = r.u64()?;
        let count = r.u32()?;
        let mut moments = HashMap::new();
        for _ in 0..count {
            let name = r.str()?;
            let m = r.matrix()?;
            let v = r.matrix()?;
            crate::snapshot::insert_unique(&mut moments, "Adam moments", name, (m, v))?;
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

impl Optimizer for Adam {
    fn begin_step(&mut self) {
        self.t += 1;
    }

    fn step_param(&mut self, p: &mut Parameter, lr: f64) {
        assert!(
            self.t > 0,
            "Adam: begin_step must be called before step_param"
        );
        let mut dir = self.direction(p);
        if self.weight_decay > 0.0 {
            dir.axpy(self.weight_decay, &p.value);
        }
        p.value.axpy(-lr, &dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_is_signed_lr() {
        // With bias correction, the first Adam step is ≈ lr · sign(g).
        let mut opt = Adam::default();
        let mut p = Parameter::new("w", Matrix::full(1, 2, 0.0));
        p.grad = Matrix::from_rows(&[&[3.0, -0.01]]);
        opt.begin_step();
        opt.step_param(&mut p, 0.1);
        assert!((p.value[(0, 0)] + 0.1).abs() < 1e-6);
        assert!((p.value[(0, 1)] - 0.1).abs() < 1e-4);
    }

    #[test]
    fn converges_on_quadratic() {
        let mut opt = Adam::default();
        let mut p = Parameter::new("w", Matrix::full(1, 1, 4.0));
        for _ in 0..500 {
            p.grad = p.value.clone();
            opt.begin_step();
            opt.step_param(&mut p, 0.05);
        }
        assert!(p.value[(0, 0)].abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "begin_step")]
    fn step_without_begin_panics() {
        let mut opt = Adam::default();
        let mut p = Parameter::new("w", Matrix::zeros(1, 1));
        opt.step_param(&mut p, 0.1);
    }

    #[test]
    fn state_is_per_parameter() {
        let mut opt = Adam::default();
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
