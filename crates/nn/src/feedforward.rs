//! Position-wise feed-forward network (the transformer MLP).

use crate::{Activation, ActivationKind, Layer, Linear, ParamVisitor, Tape};
use pipefisher_tensor::Matrix;
use rand::Rng;

/// The transformer MLP: `Linear(d_model → d_ff) → GELU → Linear(d_ff → d_model)`,
/// with the GELU applied to fc1's output in place.
///
/// Both linears participate in K-FAC capture; the intermediate `d_ff`
/// expansion is where most of a transformer block's FLOPs (and K-FAC
/// curvature cost) live. The forward tapes its input, the GELU derivative
/// and fc2's input.
#[derive(Debug, Clone)]
pub struct FeedForward {
    fc1: Linear,
    fc2: Linear,
    act: Activation,
}

impl FeedForward {
    /// Creates a feed-forward block with GELU activation.
    pub fn new(name: &str, d_model: usize, d_ff: usize, rng: &mut impl Rng) -> Self {
        FeedForward {
            fc1: Linear::new_bert(&format!("{name}.fc1"), d_model, d_ff, rng),
            fc2: Linear::new_bert(&format!("{name}.fc2"), d_ff, d_model, rng),
            act: Activation::new(ActivationKind::Gelu),
        }
    }

    /// Visits the two [`Linear`] layers (for K-FAC).
    pub fn visit_linears<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Linear)) {
        f(&mut self.fc1);
        f(&mut self.fc2);
    }

    /// The forward body, with the input added onto the output when
    /// `residual`.
    fn forward_with(&mut self, x: Matrix, tape: &mut Tape, residual: bool) -> Matrix {
        let capture = tape.ctx().capture_kfac;
        let mut h = self.fc1.project(&x, None, capture);
        let grad = self.act.apply(&mut h);
        let y = self.fc2.project(&h, residual.then_some(&x), capture);
        tape.save([x, grad, h]);
        y
    }

    /// Forward pass returning `x + fc2(act(fc1(x)))`, with the residual add
    /// fused into fc2's GEMM store epilogue (bitwise identical to
    /// [`Layer::forward`] plus a separate elementwise add). The caller
    /// routes `dout` both into [`Layer::backward`] and down the residual
    /// branch, exactly as for the unfused sum.
    pub fn forward_residual(&mut self, x: Matrix, tape: &mut Tape) -> Matrix {
        self.forward_with(x, tape, true)
    }
}

impl Layer for FeedForward {
    fn forward(&mut self, x: Matrix, tape: &mut Tape) -> Matrix {
        self.forward_with(x, tape, false)
    }

    fn backward(&mut self, dout: &Matrix, tape: &mut Tape) -> Matrix {
        let [x, grad, h] = tape.restore();
        let capture = tape.ctx().capture_kfac;
        let dh = self.fc2.backprop(&h, dout, capture);
        let dh = Activation::chain(&grad, &dh);
        self.fc1.backprop(&x, &dh, capture)
    }

    fn visit_params(&mut self, f: ParamVisitor<'_>) {
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ForwardCtx;
    use pipefisher_tensor::{col_sum_into, init};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ff = FeedForward::new("ff", 6, 24, &mut rng);
        let x = init::normal(4, 6, 1.0, &mut rng);
        let mut tape = Tape::new(ForwardCtx::train());
        let y = ff.forward(x, &mut tape);
        assert_eq!(y.shape(), (4, 6));
        let dx = ff.backward(&Matrix::full(4, 6, 1.0), &mut tape);
        assert_eq!(dx.shape(), (4, 6));
    }

    fn assert_bits(what: &str, got: &Matrix, want: &Matrix) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]");
        }
    }

    /// `0 + 1·g`: a gradient accumulated once into a zeroed parameter.
    fn accumulated(g: &Matrix) -> Matrix {
        let mut acc = Matrix::zeros(g.rows(), g.cols());
        acc.axpy(1.0, g);
        acc
    }

    #[test]
    fn in_place_gelu_matches_separate_passes_bitwise() {
        use crate::activation::tests::{gelu, gelu_grad};
        let mut rng = StdRng::seed_from_u64(42);
        // d_ff > 256: fc2's inner dimension crosses a KC cache block.
        let mut ff = FeedForward::new("ff", 6, 300, &mut rng);
        // Non-zero biases, so the activation is evaluated after the bias add.
        ff.fc1.bias_mut().value = init::normal(1, 300, 1.0, &mut rng);
        ff.fc2.bias_mut().value = init::normal(1, 6, 1.0, &mut rng);
        let x = init::normal(5, 6, 1.0, &mut rng);
        let dout = init::normal(5, 6, 1.0, &mut rng);
        let mut tape = Tape::new(ForwardCtx::train());
        let y = ff.forward(x.clone(), &mut tape);
        let dx = ff.backward(&dout, &mut tape);
        // Separate-pass reference on the same weights, with GELU and its
        // derivative evaluated apart, at fc1's pre-activation.
        let (w1, w2) = (&ff.fc1.weight().value, &ff.fc2.weight().value);
        let mut h = x.matmul(w1);
        h.add_row_broadcast(ff.fc1.bias().value.row(0));
        let ha = h.map(gelu);
        let mut yref = ha.matmul(w2);
        yref.add_row_broadcast(ff.fc2.bias().value.row(0));
        assert_bits("y", &y, &yref);
        let dh = h.zip_with(&dout.matmul_nt(w2), |hv, dv| gelu_grad(hv) * dv);
        assert_bits("dx", &dx, &dh.matmul_nt(w1));
        for (lin, input, d) in [(&ff.fc1, &x, &dh), (&ff.fc2, &ha, &dout)] {
            let mut dw = Matrix::default();
            input.matmul_tn_into(d, &mut dw);
            assert_bits(&lin.weight().name, &lin.weight().grad, &accumulated(&dw));
            let mut db = Matrix::zeros(1, d.cols());
            col_sum_into(d, db.as_mut_slice());
            assert_bits(&lin.bias().name, &lin.bias().grad, &accumulated(&db));
        }
        // The residual epilogue on fc2 equals the forward plus a separate add.
        let yres = ff.forward_residual(x.clone(), &mut Tape::new(ForwardCtx::train()));
        assert_bits("residual", &yres, &(&x + &y));
    }

    #[test]
    fn has_two_kfac_linears() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut ff = FeedForward::new("ff", 4, 8, &mut rng);
        let mut count = 0;
        ff.visit_linears(&mut |_l: &mut Linear| count += 1);
        assert_eq!(count, 2);
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ff = FeedForward::new("ff", 4, 8, &mut rng);
        // fc1: 4*8 + 8, fc2: 8*4 + 4
        assert_eq!(ff.num_params(), 32 + 8 + 32 + 4);
    }
}
