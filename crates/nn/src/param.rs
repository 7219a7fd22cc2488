//! Named trainable parameters.

use pipefisher_tensor::Matrix;

/// Visitor type used by [`crate::Layer::visit_params`].
pub type ParamVisitor<'a> = &'a mut dyn FnMut(&mut Parameter);

/// A named trainable parameter: value plus accumulated gradient.
///
/// Optimizers key their per-parameter state (LAMB's moments, K-FAC's
/// factors) on [`Parameter::name`], so names must be unique within a model.
#[derive(Debug, Clone, PartialEq)]
pub struct Parameter {
    /// Unique dotted path, e.g. `"block0.attn.q.weight"`.
    pub name: String,
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Matrix,
}

impl Parameter {
    /// Creates a parameter with a zero gradient of matching shape.
    pub fn new(name: impl Into<String>, value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Parameter {
            name: name.into(),
            value,
            grad,
        }
    }

    /// `(rows, cols)` of the parameter.
    pub fn shape(&self) -> (usize, usize) {
        self.value.shape()
    }

    /// Number of scalar entries.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Adds `g` into the accumulated gradient.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate_grad(&mut self, g: &Matrix) {
        self.grad.axpy(1.0, g);
    }

    /// Zeroes the gradient.
    pub fn zero_grad(&mut self) {
        self.grad.scale_inplace(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_zeroes_grad() {
        let p = Parameter::new("w", Matrix::full(2, 3, 5.0));
        assert_eq!(p.shape(), (2, 3));
        assert_eq!(p.len(), 6);
        assert!(p.grad.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Parameter::new("w", Matrix::zeros(2, 2));
        p.accumulate_grad(&Matrix::full(2, 2, 1.0));
        p.accumulate_grad(&Matrix::full(2, 2, 0.5));
        assert_eq!(p.grad[(0, 0)], 1.5);
        p.zero_grad();
        assert_eq!(p.grad[(1, 1)], 0.0);
    }
}
