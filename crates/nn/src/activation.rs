//! Pointwise activation layers (GELU, Tanh).

use crate::{Layer, ParamVisitor, Tape};
pub use pipefisher_tensor::ActivationKind;
use pipefisher_tensor::Matrix;

/// A stateless-parameter pointwise activation layer.
///
/// Forward evaluates the activation and its derivative together (one
/// `tanh` per element, on the tensor crate's row kernel,
/// [`ActivationKind::apply`]) and tapes the derivative, so backward is one
/// multiply per element.
///
/// # Example
///
/// ```
/// use pipefisher_nn::{Activation, ActivationKind, ForwardCtx, Layer, Tape};
/// use pipefisher_tensor::Matrix;
///
/// let mut tanh = Activation::new(ActivationKind::Tanh);
/// let mut tape = Tape::new(ForwardCtx::train());
/// let y = tanh.forward(Matrix::from_rows(&[&[0.0, 2.0]]), &mut tape);
/// assert_eq!(y[(0, 0)], 0.0);
/// assert_eq!(y[(0, 1)], pipefisher_tensor::tanh(2.0));
/// ```
#[derive(Debug, Clone)]
pub struct Activation {
    kind: ActivationKind,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Activation { kind }
    }

    /// Applies the activation to `y` in place and returns its derivative
    /// there, for [`Activation::chain`].
    pub(crate) fn apply(&self, y: &mut Matrix) -> Matrix {
        let mut grad = Matrix::unfilled(y.rows(), y.cols());
        self.kind.apply(y.as_mut_slice(), grad.as_mut_slice());
        grad
    }

    /// The backward at the derivative [`Activation::apply`] returned.
    pub(crate) fn chain(grad: &Matrix, dout: &Matrix) -> Matrix {
        assert_eq!(grad.shape(), dout.shape(), "Activation: dout shape");
        grad.zip_with(dout, |g, dv| g * dv)
    }
}

impl Layer for Activation {
    fn forward(&mut self, mut x: Matrix, tape: &mut Tape) -> Matrix {
        let grad = self.apply(&mut x);
        tape.save([grad]);
        x
    }

    fn backward(&mut self, dout: &Matrix, tape: &mut Tape) -> Matrix {
        let [grad] = tape.restore();
        Self::chain(&grad, dout)
    }

    fn visit_params(&mut self, _f: ParamVisitor<'_>) {}
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ForwardCtx;

    const SQRT_2_OVER_PI: f64 = 0.797_884_560_802_865_4;
    const GELU_COEFF: f64 = 0.044715;

    /// The tanh-approximate GELU on libm's `tanh`, as computed before the
    /// tensor crate owned one: the bitwise oracle of the GELU row kernel's
    /// value.
    pub(crate) fn gelu(x: f64) -> f64 {
        0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + GELU_COEFF * x * x * x)).tanh())
    }

    /// GELU's derivative on its own, from its own libm `tanh` of the input:
    /// the bitwise oracle of the GELU row kernel's derivative.
    pub(crate) fn gelu_grad(x: f64) -> f64 {
        let inner = SQRT_2_OVER_PI * (x + GELU_COEFF * x * x * x);
        let t = inner.tanh();
        let sech2 = 1.0 - t * t;
        0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_COEFF * x * x)
    }

    /// `1 − tanh²` on libm's `tanh`: the bitwise oracle of the tanh row
    /// kernel's derivative.
    fn tanh_grad(x: f64) -> f64 {
        let t = x.tanh();
        1.0 - t * t
    }

    /// Dense grid on [−12, 12] plus the IEEE edge cases.
    fn edge_grid() -> Vec<f64> {
        let mut xs: Vec<f64> = (-12_000..=12_000).map(|i| i as f64 * 1e-3).collect();
        xs.extend([
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ]);
        xs
    }

    #[test]
    fn layer_tapes_the_derivative_bitwise() {
        let xs = edge_grid();
        let dout: Vec<f64> = (0..xs.len()).map(|i| (i as f64 * 0.37).sin()).collect();
        let x = Matrix::from_vec(1, xs.len(), xs);
        let dout = Matrix::from_vec(1, dout.len(), dout);
        type Oracle = fn(f64) -> f64;
        let oracles: [(ActivationKind, Oracle, Oracle); 2] = [
            (ActivationKind::Gelu, gelu, gelu_grad),
            (ActivationKind::Tanh, f64::tanh, tanh_grad),
        ];
        for (kind, f, df) in oracles {
            let mut layer = Activation::new(kind);
            // Twice, so the second forward runs on a recycled buffer.
            for _ in 0..2 {
                let mut tape = Tape::new(ForwardCtx::train());
                let y = layer.forward(x.clone(), &mut tape);
                let dx = layer.backward(&dout, &mut tape);
                for ((&xv, &dv), (&yv, &gv)) in x
                    .as_slice()
                    .iter()
                    .zip(dout.as_slice())
                    .zip(y.as_slice().iter().zip(dx.as_slice()))
                {
                    assert_eq!(yv.to_bits(), f(xv).to_bits(), "{kind:?}({xv:e})");
                    assert_eq!(gv.to_bits(), (df(xv) * dv).to_bits(), "{kind:?}'({xv:e})");
                }
            }
        }
    }

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
        let mut tape = Tape::new(ForwardCtx::train());
        let _ = t.forward(Matrix::from_rows(&[&[0.7]]), &mut tape);
        let dx = t.backward(&Matrix::from_rows(&[&[1.0]]), &mut tape);
        let expected = 1.0 - 0.7_f64.tanh().powi(2);
        assert!((dx[(0, 0)] - expected).abs() < 1e-12);
    }

    #[test]
    fn has_no_params() {
        let mut g = Activation::new(ActivationKind::Gelu);
        assert_eq!(g.num_params(), 0);
    }
}
