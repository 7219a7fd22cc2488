//! BERT-style transformer encoder block.

use crate::{FeedForward, Layer, LayerNorm, Linear, MultiHeadAttention, ParamVisitor, Tape};
use pipefisher_tensor::Matrix;
use rand::Rng;

/// One BERT encoder layer (post-LayerNorm, as in the original BERT):
///
/// ```text
/// h = LayerNorm(x + Attention(x))
/// y = LayerNorm(h + FeedForward(h))
/// ```
///
/// In the paper's pipeline experiments, each pipeline *stage* holds one or
/// more of these blocks (e.g. Fig. 3 uses 3 blocks/stage for BERT-Base with
/// 4 stages).
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    attn: MultiHeadAttention,
    ff: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
}

impl TransformerBlock {
    /// Creates a block with the given dims.
    pub fn new(
        name: &str,
        d_model: usize,
        d_ff: usize,
        n_heads: usize,
        rng: &mut impl Rng,
    ) -> Self {
        TransformerBlock {
            attn: MultiHeadAttention::new(&format!("{name}.attn"), d_model, n_heads, rng),
            ff: FeedForward::new(&format!("{name}.ff"), d_model, d_ff, rng),
            ln1: LayerNorm::new(&format!("{name}.ln1"), d_model),
            ln2: LayerNorm::new(&format!("{name}.ln2"), d_model),
        }
    }

    /// Visits the six K-FAC-eligible [`Linear`] layers (q, k, v, o, fc1, fc2).
    pub fn visit_linears<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Linear)) {
        self.attn.visit_linears(f);
        self.ff.visit_linears(f);
    }
}

impl Layer for TransformerBlock {
    fn forward(&mut self, x: Matrix, tape: &mut Tape) -> Matrix {
        // Each residual add is fused into the sub-layer's last GEMM store
        // epilogue (bitwise `x + sublayer(x)`, see `forward_residual`).
        let sum1 = self.attn.forward_residual(x, tape);
        let h = self.ln1.forward(sum1, tape);
        let sum2 = self.ff.forward_residual(h, tape);
        self.ln2.forward(sum2, tape)
    }

    fn backward(&mut self, dout: &Matrix, tape: &mut Tape) -> Matrix {
        let dsum2 = self.ln2.backward(dout, tape);
        // dsum2 splits into the residual path (into h) and the FF path.
        let dh_ff = self.ff.backward(&dsum2, tape);
        let dh = &dsum2 + &dh_ff;
        let dsum1 = self.ln1.backward(&dh, tape);
        let dx_attn = self.attn.backward(&dsum1, tape);
        &dsum1 + &dx_attn
    }

    fn visit_params(&mut self, f: ParamVisitor<'_>) {
        self.attn.visit_params(f);
        self.ln1.visit_params(f);
        self.ff.visit_params(f);
        self.ln2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ForwardCtx;
    use pipefisher_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn block() -> TransformerBlock {
        let mut rng = StdRng::seed_from_u64(21);
        TransformerBlock::new("b0", 8, 16, 2, &mut rng)
    }

    #[test]
    fn forward_backward_shapes() {
        let mut b = block();
        let x = init::normal(6, 8, 1.0, &mut StdRng::seed_from_u64(1));
        let mut tape = Tape::new(ForwardCtx::train().with_seq_len(3));
        let y = b.forward(x, &mut tape);
        assert_eq!(y.shape(), (6, 8));
        let dx = b.backward(&Matrix::full(6, 8, 0.5), &mut tape);
        assert_eq!(dx.shape(), (6, 8));
        assert!(dx.all_finite());
    }

    #[test]
    fn six_kfac_linears() {
        let mut b = block();
        let mut n = 0;
        b.visit_linears(&mut |_l: &mut Linear| n += 1);
        assert_eq!(n, 6);
    }

    #[test]
    fn zero_grad_clears_everything() {
        let mut b = block();
        let x = init::normal(2, 8, 1.0, &mut StdRng::seed_from_u64(2));
        let mut tape = Tape::new(ForwardCtx::train().with_seq_len(2));
        let _ = b.forward(x, &mut tape);
        let _ = b.backward(&Matrix::full(2, 8, 1.0), &mut tape);
        b.zero_grad();
        let mut total = 0.0;
        b.visit_params(&mut |p: &mut crate::Parameter| total += p.grad.max_abs());
        assert_eq!(total, 0.0);
    }

    #[test]
    fn output_is_layernormed() {
        let mut b = block();
        let x = init::normal(4, 8, 3.0, &mut StdRng::seed_from_u64(3));
        let y = b.forward(x, &mut Tape::new(ForwardCtx::train().with_seq_len(4)));
        for r in 0..4 {
            let mean: f64 = y.row(r).iter().sum::<f64>() / 8.0;
            assert!(mean.abs() < 1e-9);
        }
    }
}
