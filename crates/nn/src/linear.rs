//! Fully-connected layer with K-FAC statistics capture.

use crate::{Layer, ParamVisitor, Parameter, Tape};
use pipefisher_tensor::{col_sum_into, init, Matrix};
use rand::Rng;

/// Per-mini-batch K-FAC statistics captured by a [`Linear`] layer.
///
/// `activations` holds one row per token: the layer input `a_l` augmented
/// with a trailing constant `1` (homogeneous coordinates), so the Kronecker
/// factor `A_l = U_Aᵀ U_A / n` covers the bias as well, matching common
/// K-FAC implementations. `errors` holds one row per token: the gradient of
/// the *sum* loss with respect to the layer's pre-activation output `e_l`.
///
/// A capturing forward fills `activations` and the backward on its tape
/// `errors`; the
/// K-FAC fold of each factor takes its matrix out (`fold_curvature_a` and
/// `fold_curvature_b` in `pipefisher-optim`), so nothing else clears them.
#[derive(Debug, Clone, Default)]
pub struct KfacBatchStats {
    /// `n_tokens × (d_in + 1)` bias-augmented input activations.
    pub activations: Option<Matrix>,
    /// `n_tokens × d_out` output-gradient error signals.
    pub errors: Option<Matrix>,
}

impl KfacBatchStats {
    /// Whether both factors' statistics are present.
    pub fn is_complete(&self) -> bool {
        self.activations.is_some() && self.errors.is_some()
    }
}

/// A fully-connected layer `y = x·W + b` with K-FAC capture.
///
/// Weight is stored `d_in × d_out` so the forward pass is a plain row-major
/// GEMM over token-major inputs. A capturing forward (its tape's
/// [`crate::ForwardCtx`] asks for capture) records the layer's input
/// statistics, and the backward on that tape records its output errors.
/// Which layers take part in K-FAC is the model's decision: its
/// `visit_linears` hands out its K-FAC layers, and it never lets a layer
/// left out (the vocabulary decoder, paper §4) capture.
///
/// # Example
///
/// ```
/// use pipefisher_nn::{ForwardCtx, Layer, Linear, Tape};
/// use pipefisher_tensor::Matrix;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut lin = Linear::new("fc", 3, 5, &mut rng);
/// let mut tape = Tape::new(ForwardCtx::train_with_capture());
/// let y = lin.forward(Matrix::zeros(2, 3), &mut tape);
/// assert_eq!(y.shape(), (2, 5));
/// assert!(lin.kfac_stats().activations.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Parameter,
    bias: Parameter,
    stats: KfacBatchStats,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(name: &str, d_in: usize, d_out: usize, rng: &mut impl Rng) -> Self {
        Self::with_weight(name, init::xavier_uniform(d_in, d_out, rng))
    }

    /// Creates a layer with BERT-style `N(0, 0.02²)` weights and zero bias.
    pub fn new_bert(name: &str, d_in: usize, d_out: usize, rng: &mut impl Rng) -> Self {
        Self::with_weight(name, init::bert_normal(d_in, d_out, rng))
    }

    fn with_weight(name: &str, weight: Matrix) -> Self {
        let bias = Matrix::zeros(1, weight.cols());
        Linear {
            weight: Parameter::new(format!("{name}.weight"), weight),
            bias: Parameter::new(format!("{name}.bias"), bias),
            stats: KfacBatchStats::default(),
        }
    }

    /// Unique name of this layer (the weight parameter's name without the
    /// trailing `.weight`).
    pub fn name(&self) -> &str {
        self.weight
            .name
            .strip_suffix(".weight")
            .unwrap_or(&self.weight.name)
    }

    /// Input dimensionality.
    pub fn d_in(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output dimensionality.
    pub fn d_out(&self) -> usize {
        self.weight.value.cols()
    }

    /// Borrows the weight parameter.
    pub fn weight(&self) -> &Parameter {
        &self.weight
    }

    /// Mutably borrows the weight parameter.
    pub fn weight_mut(&mut self) -> &mut Parameter {
        &mut self.weight
    }

    /// Borrows the bias parameter.
    pub fn bias(&self) -> &Parameter {
        &self.bias
    }

    /// Mutably borrows the bias parameter.
    pub fn bias_mut(&mut self) -> &mut Parameter {
        &mut self.bias
    }

    /// Borrows the captured K-FAC statistics of the last captured pass.
    pub fn kfac_stats(&self) -> &KfacBatchStats {
        &self.stats
    }

    /// Mutably borrows the captured K-FAC statistics (the optimizer's folds
    /// take them out).
    pub fn kfac_stats_mut(&mut self) -> &mut KfacBatchStats {
        &mut self.stats
    }

    /// Simultaneous mutable access to weight and bias — the K-FAC optimizer
    /// rewrites both gradients as one combined matrix.
    pub fn kfac_parts_mut(&mut self) -> (&mut Parameter, &mut Parameter) {
        (&mut self.weight, &mut self.bias)
    }

    /// The forward body: `x·W + b`, plus `residual` when given, with the
    /// bias and the residual fused into the GEMM's store (bitwise the
    /// separate adds). Records `x`'s statistics when `capture`. The caller
    /// keeps `x` for [`Linear::backprop`]: the [`Layer`] forward moves it
    /// onto the tape, a layer that feeds one input to several projections
    /// keeps it once.
    pub(crate) fn project(
        &mut self,
        x: &Matrix,
        residual: Option<&Matrix>,
        capture: bool,
    ) -> Matrix {
        assert_eq!(x.cols(), self.d_in(), "Linear {}: input dim", self.name());
        if capture {
            self.capture_activations(x);
        }
        let mut y = Matrix::unfilled(x.rows(), self.d_out());
        let (w, b) = (&self.weight.value, self.bias.value.row(0));
        match residual {
            Some(r) => x.matmul_bias_residual_into(w, b, r, &mut y),
            None => x.matmul_bias_into(w, b, &mut y),
        }
        y
    }

    /// The backward body at the forward's input `x`: accumulates `dW` and
    /// `db`, records `dout` as the errors when `capture`, and returns `dx`.
    /// A residual added in the forward passes `dout` through unchanged, so
    /// the caller routes the same `dout` down the residual branch.
    pub(crate) fn backprop(&mut self, x: &Matrix, dout: &Matrix, capture: bool) -> Matrix {
        assert_eq!(
            dout.shape(),
            (x.rows(), self.d_out()),
            "Linear {}: dout shape",
            self.name()
        );
        if capture {
            match &mut self.stats.errors {
                Some(buf) => buf.clone_from(dout),
                None => self.stats.errors = Some(dout.clone()),
            }
        }
        // dW = xᵀ·dout, db = column sums, dx = dout·Wᵀ.
        let mut dw = Matrix::default();
        x.matmul_tn_into(dout, &mut dw);
        self.weight.accumulate_grad(&dw);
        let mut db = Matrix::zeros(1, self.d_out());
        col_sum_into(dout, db.as_mut_slice());
        self.bias.accumulate_grad(&db);
        dout.matmul_nt(&self.weight.value)
    }

    fn capture_activations(&mut self, x: &Matrix) {
        let (n, d) = x.shape();
        // A capture no fold took is overwritten in place; otherwise the
        // buffer comes from the workspace arena, where the last fold's
        // matrix went back.
        let mut aug = self.stats.activations.take().unwrap_or_default();
        aug.reset_shape(n, d + 1);
        for r in 0..n {
            let dst = aug.row_mut(r);
            dst[..d].copy_from_slice(x.row(r));
            dst[d] = 1.0;
        }
        self.stats.activations = Some(aug);
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: Matrix, tape: &mut Tape) -> Matrix {
        let y = self.project(&x, None, tape.ctx().capture_kfac);
        tape.save([x]);
        y
    }

    fn backward(&mut self, dout: &Matrix, tape: &mut Tape) -> Matrix {
        let [x] = tape.restore();
        self.backprop(&x, dout, tape.ctx().capture_kfac)
    }

    fn visit_params(&mut self, f: ParamVisitor<'_>) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ForwardCtx;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer() -> Linear {
        let mut rng = StdRng::seed_from_u64(3);
        Linear::new("fc", 3, 2, &mut rng)
    }

    #[test]
    fn forward_matches_manual() {
        let mut lin = layer();
        lin.weight_mut().value = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        lin.bias_mut().value = Matrix::from_rows(&[&[0.5, -0.5]]);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let y = lin.forward(x, &mut Tape::new(ForwardCtx::train()));
        assert_eq!(y[(0, 0)], 1.0 + 3.0 + 0.5);
        assert_eq!(y[(0, 1)], 2.0 + 3.0 - 0.5);
    }

    #[test]
    fn backward_accumulates_grads() {
        let mut lin = layer();
        let x = Matrix::from_rows(&[&[1.0, 0.0, -1.0], &[2.0, 1.0, 0.0]]);
        let mut tape = Tape::new(ForwardCtx::train());
        let _ = lin.forward(x, &mut tape);
        let dout = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let dx = lin.backward(&dout, &mut tape);
        assert_eq!(dx.shape(), (2, 3));
        // dW = xᵀ·dout
        assert_eq!(lin.weight().grad[(0, 0)], 1.0);
        assert_eq!(lin.weight().grad[(0, 1)], 2.0);
        // db = col sums of dout
        assert_eq!(lin.bias().grad[(0, 0)], 1.0);
        assert_eq!(lin.bias().grad[(0, 1)], 1.0);
    }

    #[test]
    fn capture_is_bias_augmented() {
        let mut lin = layer();
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let mut tape = Tape::new(ForwardCtx::train_with_capture());
        let _ = lin.forward(x, &mut tape);
        let a = lin.kfac_stats().activations.as_ref().unwrap();
        assert_eq!(a.shape(), (1, 4));
        assert_eq!(a[(0, 3)], 1.0);
        let dout = Matrix::from_rows(&[&[1.0, -1.0]]);
        let _ = lin.backward(&dout, &mut tape);
        assert!(lin.kfac_stats().is_complete());
        assert_eq!(lin.kfac_stats().errors.as_ref().unwrap()[(0, 1)], -1.0);
    }

    #[test]
    fn no_capture_without_flag() {
        let mut lin = layer();
        let mut tape = Tape::new(ForwardCtx::train());
        let _ = lin.forward(Matrix::zeros(2, 3), &mut tape);
        assert!(lin.kfac_stats().activations.is_none());
        let _ = lin.backward(&Matrix::zeros(2, 2), &mut tape);
        assert!(lin.kfac_stats().errors.is_none());
    }

    #[test]
    fn param_visitation_and_count() {
        let mut lin = layer();
        assert_eq!(lin.num_params(), 3 * 2 + 2);
        let mut names = Vec::new();
        lin.visit_params(&mut |p: &mut Parameter| names.push(p.name.clone()));
        assert_eq!(names, vec!["fc.weight", "fc.bias"]);
    }
}
