//! Optimizers for the PipeFisher reproduction.
//!
//! Implements the paper's two optimizers:
//!
//! * **NVLAMB** ([`Lamb`]) — the first-order baseline of the paper's BERT
//!   pretraining runs (§4).
//! * **K-FAC** ([`Kfac`]) — the second-order method whose *curvature*,
//!   *inversion*, and *precondition* work PipeFisher schedules into pipeline
//!   bubbles. The implementation follows §2.3 of the paper: per-layer
//!   Kronecker factors `A_l` (from input activations) and `B_l` (from
//!   output-gradient errors), damped Cholesky inversion, and the
//!   preconditioned gradient `B_l⁻¹ G_l A_l⁻¹`. The curvature and inversion
//!   work units ([`Kfac::fold_a`], [`Kfac::fold_b`], [`Kfac::invert`]) are
//!   defined once: [`Kfac::step`] runs them in place, the pipeline executor
//!   calls the same methods in bubbles, and both finish with
//!   [`Kfac::step_preconditioned`]. K-FAC preconditions the gradients of
//!   the fully-connected layers and hands every parameter to a base
//!   [`Optimizer`] — NVLAMB in every run, as in the paper.
//!
//! Learning-rate schedules (linear warmup + polynomial decay, Appendix B.2 /
//! Figure 7) live in [`schedule`].
//!
//! # Example
//!
//! ```
//! use pipefisher_optim::{Lamb, Optimizer};
//! use pipefisher_nn::Parameter;
//! use pipefisher_tensor::Matrix;
//!
//! let mut opt = Lamb::new(0.0);
//! let mut p = Parameter::new("w", Matrix::full(1, 1, 1.0));
//! p.grad = Matrix::full(1, 1, 0.5);
//! opt.begin_step();
//! opt.step_param(&mut p, 0.1);
//! // The first bias-corrected step is ≈ 1 per coordinate, and the trust
//! // ratio ‖θ‖ / ‖update‖ is ≈ 1: θ moves by ≈ lr.
//! assert!((p.value[(0, 0)] - 0.9).abs() < 1e-6);
//! ```

mod kfac;
mod lamb;
pub mod schedule;
mod snapshot;

pub use kfac::{
    fold_curvature_a, fold_curvature_b, refresh_inverses, Kfac, KfacConfig, KfacModel,
    LayerKfacState,
};
pub use lamb::Lamb;
pub use schedule::LrSchedule;
pub use snapshot::StateSnapshot;

use pipefisher_nn::Parameter;

/// A first-order optimizer applied parameter-by-parameter: [`Lamb`], and
/// the base optimizer [`Kfac`] runs after preconditioning.
///
/// Call [`Optimizer::begin_step`] once per optimization step (it advances
/// bias-correction counters), then [`Optimizer::step_param`] for every
/// parameter. State is keyed by [`Parameter::name`], so names must be unique.
pub trait Optimizer {
    /// Advances the step counter; call once before visiting parameters.
    fn begin_step(&mut self);

    /// Updates one parameter in place from its accumulated gradient.
    fn step_param(&mut self, p: &mut Parameter, lr: f64);
}
