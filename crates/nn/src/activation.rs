//! Pointwise activation layers (GELU, Tanh).

use crate::{ForwardCtx, Layer, ParamVisitor};
use pipefisher_tensor::Matrix;

/// Which nonlinearity an [`Activation`] layer applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationKind {
    /// Gaussian Error Linear Unit (tanh approximation, as in BERT).
    Gelu,
    /// Hyperbolic tangent (used by BERT's pooler).
    Tanh,
}

/// A stateless-parameter pointwise activation layer.
///
/// # Example
///
/// ```
/// use pipefisher_nn::{Activation, ActivationKind, ForwardCtx, Layer};
/// use pipefisher_tensor::Matrix;
///
/// let mut tanh = Activation::new(ActivationKind::Tanh);
/// let y = tanh.forward(&Matrix::from_rows(&[&[0.0, 2.0]]), &ForwardCtx::train());
/// assert_eq!(y[(0, 0)], 0.0);
/// assert_eq!(y[(0, 1)], 2.0_f64.tanh());
/// ```
#[derive(Debug, Clone)]
pub struct Activation {
    kind: ActivationKind,
    input: Option<Matrix>,
}

const SQRT_2_OVER_PI: f64 = 0.797_884_560_802_865_4;
const GELU_COEFF: f64 = 0.044715;

/// Tanh-approximate GELU (the BERT variant), exposed as a plain `fn` so it
/// can be fused into a GEMM store epilogue
/// ([`Matrix::matmul_bias_act_into`](pipefisher_tensor::Matrix::matmul_bias_act_into)).
/// Identical to what [`Activation`] applies for [`ActivationKind::Gelu`].
pub fn gelu(x: f64) -> f64 {
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + GELU_COEFF * x * x * x)).tanh())
}

fn gelu_grad(x: f64) -> f64 {
    let inner = SQRT_2_OVER_PI * (x + GELU_COEFF * x * x * x);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_COEFF * x * x)
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Activation { kind, input: None }
    }

    fn apply(&self, x: f64) -> f64 {
        match self.kind {
            ActivationKind::Gelu => gelu(x),
            ActivationKind::Tanh => x.tanh(),
        }
    }

    /// Takes the cached pre-activation input buffer (empty if this layer
    /// has not run yet), for reuse as fused-GEMM scratch. Callers that
    /// compute the activation inside a GEMM epilogue hand the filled
    /// buffer back via [`Activation::set_cached_input`] so
    /// [`Layer::backward`] still finds the input it differentiates at.
    pub fn take_cached_input(&mut self) -> Matrix {
        self.input.take().unwrap_or_default()
    }

    /// Stores `pre` as this layer's cached forward input, as if
    /// [`Layer::forward`] had just run on it.
    pub fn set_cached_input(&mut self, pre: Matrix) {
        self.input = Some(pre);
    }

    fn grad(&self, x: f64) -> f64 {
        match self.kind {
            ActivationKind::Gelu => gelu_grad(x),
            ActivationKind::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
        }
    }
}

impl Layer for Activation {
    fn forward(&mut self, x: &Matrix, _ctx: &ForwardCtx) -> Matrix {
        self.input = Some(x.clone());
        x.map(|v| self.apply(v))
    }

    fn backward(&mut self, dout: &Matrix) -> Matrix {
        let x = self
            .input
            .as_ref()
            .expect("Activation::backward before forward");
        assert_eq!(x.shape(), dout.shape(), "Activation: dout shape");
        x.zip_with(dout, |xv, dv| self.grad(xv) * dv)
    }

    fn visit_params(&mut self, _f: ParamVisitor<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gelu_reference_values() {
        // Values from the tanh-approximate GELU used by BERT.
        assert!((gelu(0.0)).abs() < 1e-12);
        assert!((gelu(1.0) - 0.841192).abs() < 1e-5);
        assert!((gelu(-1.0) + 0.158808).abs() < 1e-5);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-3.0, -1.0, -0.1, 0.0, 0.5, 2.0, 4.0] {
            let eps = 1e-6;
            let num = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!((gelu_grad(x) - num).abs() < 1e-7, "x={x}");
        }
    }

    #[test]
    fn tanh_backward() {
        let mut t = Activation::new(ActivationKind::Tanh);
        let x = Matrix::from_rows(&[&[0.7]]);
        let _ = t.forward(&x, &ForwardCtx::train());
        let dx = t.backward(&Matrix::from_rows(&[&[1.0]]));
        let expected = 1.0 - 0.7_f64.tanh().powi(2);
        assert!((dx[(0, 0)] - expected).abs() < 1e-12);
    }

    #[test]
    fn has_no_params() {
        let mut g = Activation::new(ActivationKind::Gelu);
        assert_eq!(g.num_params(), 0);
    }
}
