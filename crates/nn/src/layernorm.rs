//! Layer normalization with learnable gain and bias.

use crate::{ForwardCtx, Layer, ParamVisitor, Parameter};
use pipefisher_tensor::Matrix;

/// Layer normalization over the last (feature) dimension.
///
/// For each row `x`: `y = γ ⊙ (x − μ)/√(σ² + ε) + β`, with per-feature
/// learnable `γ` (gain) and `β` (bias). The backward pass uses the standard
/// fused expression so it is exact, which the gradient-check tests verify.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gain: Parameter,
    bias: Parameter,
    eps: f64,
    /// Cached normalized input `x̂` and per-row inverse std for backward.
    cache: Option<(Matrix, Vec<f64>)>,
}

impl LayerNorm {
    /// Creates a layer norm over `dim` features with `γ = 1`, `β = 0`,
    /// `ε = 1e-12` (BERT's default).
    pub fn new(name: &str, dim: usize) -> Self {
        LayerNorm {
            gain: Parameter::new(format!("{name}.gain"), Matrix::full(1, dim, 1.0)),
            bias: Parameter::new(format!("{name}.bias"), Matrix::zeros(1, dim)),
            eps: 1e-12,
            cache: None,
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.gain.value.cols()
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, x: &Matrix, _ctx: &ForwardCtx) -> Matrix {
        assert_eq!(x.cols(), self.dim(), "LayerNorm: input dim");
        let (n, d) = x.shape();
        // Reuse last pass's cache buffers; both are fully overwritten.
        let (mut xhat, mut inv_std) = self.cache.take().unwrap_or_default();
        xhat.reset_shape(n, d);
        inv_std.clear();
        inv_std.reserve(n);
        let gamma = self.gain.value.row(0);
        let beta = self.bias.value.row(0);
        let mut out = Matrix::unfilled(n, d);
        for r in 0..n {
            let row = x.row(r);
            let mean = row.iter().sum::<f64>() / d as f64;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / d as f64;
            let istd = 1.0 / (var + self.eps).sqrt();
            inv_std.push(istd);
            let xh = xhat.row_mut(r);
            let o = out.row_mut(r);
            for c in 0..d {
                let h = (row[c] - mean) * istd;
                xh[c] = h;
                o[c] = gamma[c] * h + beta[c];
            }
        }
        self.cache = Some((xhat, inv_std));
        out
    }

    fn backward(&mut self, dout: &Matrix) -> Matrix {
        let (xhat, inv_std) = self
            .cache
            .as_ref()
            .expect("LayerNorm::backward before forward");
        let (n, d) = xhat.shape();
        assert_eq!(dout.shape(), (n, d), "LayerNorm: dout shape");
        let gamma = self.gain.value.row(0);
        // dγ/dβ accumulate across rows; dx̂ is fully rewritten per row.
        let mut dgamma_m = Matrix::zeros(1, d);
        let mut dbeta_m = Matrix::zeros(1, d);
        let mut dxhat_m = Matrix::zeros(1, d);
        let dgamma = dgamma_m.as_mut_slice();
        let dbeta = dbeta_m.as_mut_slice();
        let dxhat = dxhat_m.as_mut_slice();
        let mut dx = Matrix::unfilled(n, d);
        for (r, &istd) in inv_std.iter().enumerate() {
            let xh = xhat.row(r);
            let dy = dout.row(r);
            // dŷ projected through γ.
            for c in 0..d {
                dxhat[c] = dy[c] * gamma[c];
            }
            let sum_dxhat: f64 = dxhat.iter().sum();
            let sum_dxhat_xhat: f64 = dxhat.iter().zip(xh.iter()).map(|(&a, &b)| a * b).sum();
            let dxr = dx.row_mut(r);
            for c in 0..d {
                dgamma[c] += dy[c] * xh[c];
                dbeta[c] += dy[c];
                dxr[c] =
                    istd / d as f64 * (d as f64 * dxhat[c] - sum_dxhat - xh[c] * sum_dxhat_xhat);
            }
        }
        self.gain.accumulate_grad(&dgamma_m);
        self.bias.accumulate_grad(&dbeta_m);
        dx
    }

    fn visit_params(&mut self, f: ParamVisitor<'_>) {
        f(&mut self.gain);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_rows_are_normalized() {
        let mut ln = LayerNorm::new("ln", 4);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[-5.0, 0.0, 5.0, 10.0]]);
        let y = ln.forward(&x, &ForwardCtx::train());
        for r in 0..2 {
            let mean: f64 = y.row(r).iter().sum::<f64>() / 4.0;
            let var: f64 = y
                .row(r)
                .iter()
                .map(|&v| (v - mean) * (v - mean))
                .sum::<f64>()
                / 4.0;
            assert!(mean.abs() < 1e-10);
            assert!((var - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn gain_bias_applied() {
        let mut ln = LayerNorm::new("ln", 2);
        ln.gain.value = Matrix::from_rows(&[&[2.0, 2.0]]);
        ln.bias.value = Matrix::from_rows(&[&[1.0, 1.0]]);
        let x = Matrix::from_rows(&[&[-1.0, 1.0]]);
        let y = ln.forward(&x, &ForwardCtx::train());
        // normalized row is (-1, 1) (σ = 1), so y = 2·(-1,1)+1 = (-1, 3).
        assert!((y[(0, 0)] + 1.0).abs() < 1e-6);
        assert!((y[(0, 1)] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn backward_shapes_and_accumulation() {
        let mut ln = LayerNorm::new("ln", 3);
        let x = Matrix::from_rows(&[&[0.1, -0.4, 0.9], &[1.5, 0.0, -2.0]]);
        let _ = ln.forward(&x, &ForwardCtx::train());
        let dx = ln.backward(&Matrix::full(2, 3, 1.0));
        assert_eq!(dx.shape(), (2, 3));
        // dβ = column sums of dout = 2 each.
        assert_eq!(ln.bias.grad.as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn gradient_sums_to_zero_per_row() {
        // Because LayerNorm output is invariant to adding a constant to the
        // input row, dx must sum to ~0 within each row.
        let mut ln = LayerNorm::new("ln", 5);
        let x = Matrix::from_rows(&[&[0.3, -1.0, 2.0, 0.7, -0.2]]);
        let _ = ln.forward(&x, &ForwardCtx::train());
        let dx = ln.backward(&Matrix::from_rows(&[&[1.0, -2.0, 0.5, 0.0, 3.0]]));
        let s: f64 = dx.row(0).iter().sum();
        assert!(s.abs() < 1e-9, "row sum {s}");
    }
}
