//! Multi-head scaled-dot-product self-attention.

use crate::{ForwardCtx, Layer, Linear, ParamVisitor};
use pipefisher_tensor::{softmax_scaled_inplace, Matrix};
use rand::Rng;

/// Cached forward state for the attention backward pass.
#[derive(Debug, Clone)]
struct AttnCache {
    batch: usize,
    seq: usize,
    q_out: Matrix,
    k_out: Matrix,
    v_out: Matrix,
    /// Attention probabilities, one `seq × seq` matrix per `(batch, head)`,
    /// indexed `b * n_heads + h`.
    probs: Vec<Matrix>,
}

/// Multi-head self-attention as in BERT (bidirectional, no causal mask).
///
/// The four projections (`q`, `k`, `v`, `o`) are [`Linear`] layers and
/// therefore participate in K-FAC capture — the paper applies K-FAC to all
/// fully-connected layers of the transformer, which includes these.
///
/// Padding masks are not modeled: the synthetic workloads in this
/// reproduction use fixed-length sequences (matching the paper's fixed
/// `S = 128` Phase-1 setting), so every position attends to every position.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    q: Linear,
    k: Linear,
    v: Linear,
    o: Linear,
    n_heads: usize,
    d_model: usize,
    d_head: usize,
    cache: Option<AttnCache>,
}

impl MultiHeadAttention {
    /// Creates an attention layer with `n_heads` heads over `d_model`
    /// features.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `n_heads`.
    pub fn new(name: &str, d_model: usize, n_heads: usize, rng: &mut impl Rng) -> Self {
        assert!(
            n_heads > 0 && d_model.is_multiple_of(n_heads),
            "MultiHeadAttention: d_model {d_model} not divisible by n_heads {n_heads}"
        );
        MultiHeadAttention {
            q: Linear::new_bert(&format!("{name}.q"), d_model, d_model, rng),
            k: Linear::new_bert(&format!("{name}.k"), d_model, d_model, rng),
            v: Linear::new_bert(&format!("{name}.v"), d_model, d_model, rng),
            o: Linear::new_bert(&format!("{name}.o"), d_model, d_model, rng),
            n_heads,
            d_model,
            d_head: d_model / n_heads,
            cache: None,
        }
    }

    /// Visits the four projection [`Linear`] layers (for K-FAC).
    pub fn visit_linears<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Linear)) {
        f(&mut self.q);
        f(&mut self.k);
        f(&mut self.v);
        f(&mut self.o);
    }

    /// Copies the `(rows b·seq.., cols h·d_head..)` sub-block for one
    /// `(batch, head)` pair out of a `(batch·seq) × d_model` matrix into a
    /// caller-provided (re-dimensioned, fully overwritten) output matrix.
    fn head_block_into(
        m: &Matrix,
        b: usize,
        h: usize,
        seq: usize,
        d_head: usize,
        out: &mut Matrix,
    ) {
        out.reset_shape(seq, d_head);
        for s in 0..seq {
            let src = &m.row(b * seq + s)[h * d_head..(h + 1) * d_head];
            out.row_mut(s).copy_from_slice(src);
        }
    }

    /// Shared forward body: projections, per-head scaled-dot-product
    /// attention, and the head concatenation — everything up to (but not
    /// including) the output projection. Caches backward state.
    fn forward_concat(&mut self, x: &Matrix, ctx: &ForwardCtx) -> Matrix {
        assert_eq!(x.cols(), self.d_model, "MultiHeadAttention: input dim");
        let seq = ctx.effective_seq_len(x.rows());
        let batch = x.rows() / seq;
        let (dh, nh) = (self.d_head, self.n_heads);
        let scale = 1.0 / (dh as f64).sqrt();

        let q_out = self.q.forward(x, ctx);
        let k_out = self.k.forward(x, ctx);
        let v_out = self.v.forward(x, ctx);

        let mut concat = Matrix::zeros(x.rows(), self.d_model);
        let mut probs = Vec::with_capacity(batch * nh);
        // Head blocks, reused across the (batch, head) loop.
        let (mut qb, mut kb, mut vb) = (Matrix::default(), Matrix::default(), Matrix::default());
        for b in 0..batch {
            for h in 0..nh {
                Self::head_block_into(&q_out, b, h, seq, dh, &mut qb);
                Self::head_block_into(&k_out, b, h, seq, dh, &mut kb);
                Self::head_block_into(&v_out, b, h, seq, dh, &mut vb);
                let mut scores = qb.matmul_nt(&kb);
                // The 1/√d_k scale is folded into the softmax's max/exp
                // pass (one fewer sweep over the seq × seq scores).
                softmax_scaled_inplace(&mut scores, scale);
                let ob = scores.matmul(&vb);
                Self::add_head_block(&mut concat, &ob, b, h, seq, dh);
                probs.push(scores);
            }
        }
        self.cache = Some(AttnCache {
            batch,
            seq,
            q_out,
            k_out,
            v_out,
            probs,
        });
        concat
    }

    /// Forward pass returning `Attention(x) + residual`, with the residual
    /// add fused into the output projection's GEMM store epilogue. Bitwise
    /// identical to [`Layer::forward`] plus a separate elementwise add; the
    /// caller routes `dout` both into [`Layer::backward`] and down the
    /// residual branch, exactly as for the unfused sum.
    pub fn forward_residual(&mut self, x: &Matrix, residual: &Matrix, ctx: &ForwardCtx) -> Matrix {
        let concat = self.forward_concat(x, ctx);
        self.o.forward_residual(&concat, residual, ctx)
    }

    /// Adds `block` into the `(b, h)` sub-block of `m`.
    fn add_head_block(
        m: &mut Matrix,
        block: &Matrix,
        b: usize,
        h: usize,
        seq: usize,
        d_head: usize,
    ) {
        for s in 0..seq {
            let dst = &mut m.row_mut(b * seq + s)[h * d_head..(h + 1) * d_head];
            for (d, &x) in dst.iter_mut().zip(block.row(s).iter()) {
                *d += x;
            }
        }
    }
}

impl Layer for MultiHeadAttention {
    fn forward(&mut self, x: &Matrix, ctx: &ForwardCtx) -> Matrix {
        let concat = self.forward_concat(x, ctx);
        self.o.forward(&concat, ctx)
    }

    fn backward(&mut self, dout: &Matrix) -> Matrix {
        let cache = self
            .cache
            .take()
            .expect("MultiHeadAttention::backward before forward");
        let AttnCache {
            batch,
            seq,
            q_out,
            k_out,
            v_out,
            probs,
        } = cache;
        let (dh, nh) = (self.d_head, self.n_heads);
        let scale = 1.0 / (dh as f64).sqrt();

        let dconcat = self.o.backward(dout);
        let mut dq_full = Matrix::zeros(dconcat.rows(), self.d_model);
        let mut dk_full = Matrix::zeros(dconcat.rows(), self.d_model);
        let mut dv_full = Matrix::zeros(dconcat.rows(), self.d_model);

        // Head blocks and their gradients, reused across the (batch, head)
        // loop; every one is fully overwritten before it is read.
        let [mut qb, mut kb, mut vb, mut dob, mut dp, mut dvb, mut ds, mut dqb, mut dkb] =
            std::array::from_fn(|_| Matrix::default());
        for b in 0..batch {
            for h in 0..nh {
                let p = &probs[b * nh + h];
                Self::head_block_into(&dconcat, b, h, seq, dh, &mut dob);
                Self::head_block_into(&q_out, b, h, seq, dh, &mut qb);
                Self::head_block_into(&k_out, b, h, seq, dh, &mut kb);
                Self::head_block_into(&v_out, b, h, seq, dh, &mut vb);

                // O = P·V  ⇒  dP = dO·Vᵀ, dV = Pᵀ·dO.
                dob.matmul_nt_into(&vb, &mut dp);
                p.matmul_tn_into(&dob, &mut dvb);
                // Softmax backward row-wise: dS = P ⊙ (dP − rowdot(dP, P)).
                ds.reset_shape(seq, seq);
                for r in 0..seq {
                    let prow = p.row(r);
                    let dprow = dp.row(r);
                    let dot: f64 = prow.iter().zip(dprow.iter()).map(|(&a, &b)| a * b).sum();
                    let dsrow = ds.row_mut(r);
                    for c in 0..seq {
                        dsrow[c] = prow[c] * (dprow[c] - dot);
                    }
                }
                ds.scale_inplace(scale);
                // S = scale·Q·Kᵀ ⇒ dQ = dS·K, dK = dSᵀ·Q.
                ds.matmul_into(&kb, &mut dqb);
                ds.matmul_tn_into(&qb, &mut dkb);

                Self::add_head_block(&mut dq_full, &dqb, b, h, seq, dh);
                Self::add_head_block(&mut dk_full, &dkb, b, h, seq, dh);
                Self::add_head_block(&mut dv_full, &dvb, b, h, seq, dh);
            }
        }

        let mut dx = self.q.backward(&dq_full);
        dx += &self.k.backward(&dk_full);
        dx += &self.v.backward(&dv_full);
        dx
    }

    fn visit_params(&mut self, f: ParamVisitor<'_>) {
        self.q.visit_params(f);
        self.k.visit_params(f);
        self.v.visit_params(f);
        self.o.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefisher_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn attn(d_model: usize, heads: usize) -> MultiHeadAttention {
        let mut rng = StdRng::seed_from_u64(11);
        MultiHeadAttention::new("attn", d_model, heads, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let mut a = attn(8, 2);
        let x = init::normal(6, 8, 1.0, &mut StdRng::seed_from_u64(1));
        let y = a.forward(&x, &ForwardCtx::train().with_seq_len(3));
        assert_eq!(y.shape(), (6, 8));
        assert!(y.all_finite());
    }

    #[test]
    fn backward_shape_and_finiteness() {
        let mut a = attn(8, 4);
        let x = init::normal(4, 8, 1.0, &mut StdRng::seed_from_u64(2));
        let _ = a.forward(&x, &ForwardCtx::train().with_seq_len(4));
        let dx = a.backward(&Matrix::full(4, 8, 0.1));
        assert_eq!(dx.shape(), (4, 8));
        assert!(dx.all_finite());
    }

    #[test]
    fn batches_are_independent() {
        // Two identical sequences in one batch must produce identical outputs
        // (no cross-sequence attention leakage).
        let mut a = attn(4, 2);
        let seq = init::normal(3, 4, 1.0, &mut StdRng::seed_from_u64(3));
        let x = Matrix::vcat(&[&seq, &seq]);
        let y = a.forward(&x, &ForwardCtx::train().with_seq_len(3));
        let y1 = y.slice_rows(0, 3);
        let y2 = y.slice_rows(3, 6);
        assert!((&y1 - &y2).max_abs() < 1e-12);
    }

    #[test]
    fn forward_residual_matches_forward_plus_add_bitwise() {
        let mut a1 = attn(8, 2);
        let mut a2 = attn(8, 2);
        let x = init::normal(6, 8, 1.0, &mut StdRng::seed_from_u64(7));
        let res = init::normal(6, 8, 1.0, &mut StdRng::seed_from_u64(8));
        let ctx = ForwardCtx::train().with_seq_len(3);
        let yf = a1.forward_residual(&x, &res, &ctx);
        let yref = &res + &a2.forward(&x, &ctx);
        for (a, b) in yf.as_slice().iter().zip(yref.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn kfac_capture_reaches_projections() {
        let mut a = attn(4, 2);
        let x = init::normal(2, 4, 1.0, &mut StdRng::seed_from_u64(4));
        let _ = a.forward(&x, &ForwardCtx::train_with_capture().with_seq_len(2));
        let dx = Matrix::full(2, 4, 1.0);
        let _ = a.backward(&dx);
        let mut complete = 0;
        a.visit_linears(&mut |l: &mut Linear| {
            if l.kfac_stats().is_complete() {
                complete += 1;
            }
        });
        assert_eq!(complete, 4); // q, k, v, o all captured
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn bad_seq_len_panics() {
        let mut a = attn(4, 2);
        let x = Matrix::zeros(5, 4);
        let _ = a.forward(&x, &ForwardCtx::train().with_seq_len(3));
    }
}
