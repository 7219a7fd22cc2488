//! Multi-head scaled-dot-product self-attention.

use crate::{Layer, Linear, ParamVisitor, Tape};
use pipefisher_tensor::{gemm_batched, softmax_scaled_inplace, Matrix, Strided};
use rand::Rng;

/// Multi-head self-attention as in BERT (bidirectional, no causal mask).
///
/// The four projections (`q`, `k`, `v`, `o`) are [`Linear`] layers and
/// therefore participate in K-FAC capture — the paper applies K-FAC to all
/// fully-connected layers of the transformer, which includes these.
///
/// Padding masks are not modeled: the synthetic workloads in this
/// reproduction use fixed-length sequences (matching the paper's fixed
/// `S = 128` Phase-1 setting), so every position attends to every position.
///
/// The six per-head products of the core run as two kinds of batched GEMM
/// over all `(batch, head)` pairs ([`gemm_batched`]): each head is read in
/// place from its `(batch·seq) × d_model` matrix, and each product lands in
/// place in its head's columns or its pair's block — no head is copied.
///
/// The forward tapes its input once — the one `x` the q, k and v
/// projections all differentiate at — with the three projections, the
/// attention probabilities (one `seq × seq` block per `(batch, head)`,
/// block `b * n_heads + h` at rows `(b * n_heads + h) * seq..`) and the
/// head concatenation the output projection read.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    q: Linear,
    k: Linear,
    v: Linear,
    o: Linear,
    n_heads: usize,
    d_model: usize,
    d_head: usize,
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
        }
    }

    /// Visits the four projection [`Linear`] layers (for K-FAC).
    pub fn visit_linears<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Linear)) {
        f(&mut self.q);
        f(&mut self.k);
        f(&mut self.v);
        f(&mut self.o);
    }

    /// Every head of a `(batch·seq) × d_model` matrix, in place.
    fn heads<'a>(&self, m: &'a Matrix, seq: usize, trans: bool) -> Strided<'a> {
        let (data, ld) = (m.as_slice(), self.d_model);
        let step = (seq * ld, self.d_head);
        Strided {
            data,
            ld,
            trans,
            step,
        }
    }

    /// `X_bh · Y_bhᵀ` for every `(batch, head)`, stacked as the taped
    /// probabilities are.
    fn pair_products(&self, seq: usize, x: &Matrix, y: &Matrix) -> Matrix {
        let (nh, dh) = (self.n_heads, self.d_head);
        let mut out = Matrix::unfilled(x.rows() * nh, seq);
        let (a, b) = (self.heads(x, seq, false), self.heads(y, seq, true));
        let (count, step) = ((x.rows() / seq, nh), (nh * seq * seq, seq * seq));
        gemm_batched(count, (seq, seq, dh), a, b, out.as_mut_slice(), seq, step);
        out
    }

    /// `P_bh · Y_bh` (`P_bhᵀ · Y_bh` with `trans`) for every `(batch,
    /// head)`, each into its head's columns of a `(batch·seq) × d_model`
    /// matrix.
    fn head_products(&self, seq: usize, p: &Matrix, trans: bool, y: &Matrix) -> Matrix {
        let (nh, d) = (self.n_heads, self.d_model);
        let mut out = Matrix::unfilled(y.rows(), d);
        let (data, step) = (p.as_slice(), (nh * seq * seq, seq * seq));
        let a = Strided {
            data,
            ld: seq,
            trans,
            step,
        };
        let count = (y.rows() / seq, nh);
        let b = self.heads(y, seq, false);
        gemm_batched(
            count,
            (seq, self.d_head, seq),
            a,
            b,
            out.as_mut_slice(),
            d,
            b.step,
        );
        out
    }

    /// The forward body: projections, per-head scaled-dot-product
    /// attention, the head concatenation and the output projection, with
    /// the input added onto the output when `residual`.
    fn forward_with(&mut self, x: Matrix, tape: &mut Tape, residual: bool) -> Matrix {
        assert_eq!(x.cols(), self.d_model, "MultiHeadAttention: input dim");
        let (seq, capture) = (
            tape.ctx().effective_seq_len(x.rows()),
            tape.ctx().capture_kfac,
        );
        let scale = 1.0 / (self.d_head as f64).sqrt();

        let q_out = self.q.project(&x, None, capture);
        let k_out = self.k.project(&x, None, capture);
        let v_out = self.v.project(&x, None, capture);

        let mut probs = self.pair_products(seq, &q_out, &k_out);
        // The 1/√d_k scale is folded into the softmax's max/exp pass (one
        // fewer sweep over the scores).
        softmax_scaled_inplace(&mut probs, scale);
        let concat = self.head_products(seq, &probs, false, &v_out);
        let y = self.o.project(&concat, residual.then_some(&x), capture);
        tape.save([x, q_out, k_out, v_out, probs, concat]);
        y
    }

    /// Forward pass returning `x + Attention(x)`, with the residual add
    /// fused into the output projection's GEMM store epilogue. Bitwise
    /// identical to [`Layer::forward`] plus a separate elementwise add; the
    /// caller routes `dout` both into [`Layer::backward`] and down the
    /// residual branch, exactly as for the unfused sum.
    pub fn forward_residual(&mut self, x: Matrix, tape: &mut Tape) -> Matrix {
        self.forward_with(x, tape, true)
    }
}

impl Layer for MultiHeadAttention {
    fn forward(&mut self, x: Matrix, tape: &mut Tape) -> Matrix {
        self.forward_with(x, tape, false)
    }

    fn backward(&mut self, dout: &Matrix, tape: &mut Tape) -> Matrix {
        let [x, q_out, k_out, v_out, probs, concat] = tape.restore();
        let (seq, capture) = (
            tape.ctx().effective_seq_len(x.rows()),
            tape.ctx().capture_kfac,
        );
        let scale = 1.0 / (self.d_head as f64).sqrt();

        let dconcat = self.o.backprop(&concat, dout, capture);
        drop(concat);
        // O = P·V  ⇒  dP = dO·Vᵀ, dV = Pᵀ·dO.
        let mut ds = self.pair_products(seq, &dconcat, &v_out);
        let dv = self.head_products(seq, &probs, true, &dconcat);
        // Each input goes back to the arena once read for the last time, so
        // the stacked dS costs no more peak memory than per-head scratch.
        drop((dconcat, v_out));
        // Softmax backward row-wise, then the scale: dS = P ⊙ (dP −
        // rowdot(dP, P)) · scale. Eight rows' dots run interleaved, each
        // its own ascending chain from −0.0 (as `Iterator::sum` folds), so
        // their adds overlap instead of each waiting on the one before.
        let group = 8 * seq;
        let p_groups = probs.as_slice().chunks(group);
        for (dsg, pg) in ds.as_mut_slice().chunks_mut(group).zip(p_groups) {
            let mut dots = [-0.0f64; 8];
            for c in 0..seq {
                for (j, dot) in dots[..pg.len() / seq].iter_mut().enumerate() {
                    *dot += pg[j * seq + c] * dsg[j * seq + c];
                }
            }
            let rows = dsg.chunks_exact_mut(seq).zip(pg.chunks_exact(seq));
            for ((drow, prow), dot) in rows.zip(dots) {
                for (d, &p) in drow.iter_mut().zip(prow) {
                    *d = p * (*d - dot) * scale;
                }
            }
        }
        drop(probs);
        // S = scale·Q·Kᵀ ⇒ dQ = dS·K, dK = dSᵀ·Q.
        let dq = self.head_products(seq, &ds, false, &k_out);
        let dk = self.head_products(seq, &ds, true, &q_out);
        drop((ds, q_out, k_out));

        let mut dx = self.q.backprop(&x, &dq, capture);
        dx += &self.k.backprop(&x, &dk, capture);
        dx += &self.v.backprop(&x, &dv, capture);
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
    use crate::{ForwardCtx, Parameter};
    use pipefisher_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tape(ctx: ForwardCtx, seq: usize) -> Tape {
        Tape::new(ctx.with_seq_len(seq))
    }

    fn attn(d_model: usize, heads: usize) -> MultiHeadAttention {
        let mut rng = StdRng::seed_from_u64(11);
        MultiHeadAttention::new("attn", d_model, heads, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let mut a = attn(8, 2);
        let x = init::normal(6, 8, 1.0, &mut StdRng::seed_from_u64(1));
        let y = a.forward(x, &mut tape(ForwardCtx::train(), 3));
        assert_eq!(y.shape(), (6, 8));
        assert!(y.all_finite());
    }

    #[test]
    fn backward_shape_and_finiteness() {
        let mut a = attn(8, 4);
        let x = init::normal(4, 8, 1.0, &mut StdRng::seed_from_u64(2));
        let mut tape = tape(ForwardCtx::train(), 4);
        let _ = a.forward(x, &mut tape);
        let dx = a.backward(&Matrix::full(4, 8, 0.1), &mut tape);
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
        let y = a.forward(x, &mut tape(ForwardCtx::train(), 3));
        let y1 = y.slice_rows(0, 3);
        let y2 = y.slice_rows(3, 6);
        assert!((&y1 - &y2).max_abs() < 1e-12);
    }

    #[test]
    fn forward_residual_matches_forward_plus_add_bitwise() {
        let mut a1 = attn(8, 2);
        let mut a2 = attn(8, 2);
        let x = init::normal(6, 8, 1.0, &mut StdRng::seed_from_u64(7));
        let yf = a1.forward_residual(x.clone(), &mut tape(ForwardCtx::train(), 3));
        let yref = &x + &a2.forward(x.clone(), &mut tape(ForwardCtx::train(), 3));
        for (a, b) in yf.as_slice().iter().zip(yref.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn kfac_capture_reaches_projections() {
        let mut a = attn(4, 2);
        let x = init::normal(2, 4, 1.0, &mut StdRng::seed_from_u64(4));
        let mut tape = tape(ForwardCtx::train_with_capture(), 2);
        let _ = a.forward(x, &mut tape);
        let dx = Matrix::full(2, 4, 1.0);
        let _ = a.backward(&dx, &mut tape);
        let mut complete = 0;
        a.visit_linears(&mut |l: &mut Linear| {
            if l.kfac_stats().is_complete() {
                complete += 1;
            }
        });
        assert_eq!(complete, 4); // q, k, v, o all captured
    }

    /// The per-head loop the batched core replaced, kept as its oracle: each
    /// head copied out, multiplied on its own, and added onto zeros.
    impl MultiHeadAttention {
        fn head_block(m: &Matrix, b: usize, h: usize, seq: usize, dh: usize) -> Matrix {
            let rows: Vec<&[f64]> = (0..seq)
                .map(|s| &m.row(b * seq + s)[h * dh..(h + 1) * dh])
                .collect();
            Matrix::from_rows(&rows)
        }

        fn add_head_block(m: &mut Matrix, block: &Matrix, b: usize, h: usize, seq: usize) {
            let dh = block.cols();
            for s in 0..seq {
                let dst = &mut m.row_mut(b * seq + s)[h * dh..(h + 1) * dh];
                for (d, &x) in dst.iter_mut().zip(block.row(s)) {
                    *d += x;
                }
            }
        }

        fn oracle_forward(&mut self, x: &Matrix, tape: &mut Tape) -> Matrix {
            let (seq, capture) = (
                tape.ctx().effective_seq_len(x.rows()),
                tape.ctx().capture_kfac,
            );
            let (dh, nh) = (self.d_head, self.n_heads);
            let scale = 1.0 / (dh as f64).sqrt();
            let q_out = self.q.project(x, None, capture);
            let k_out = self.k.project(x, None, capture);
            let v_out = self.v.project(x, None, capture);
            let mut concat = Matrix::zeros(x.rows(), self.d_model);
            let mut probs = Vec::new();
            for b in 0..x.rows() / seq {
                for h in 0..nh {
                    let qb = Self::head_block(&q_out, b, h, seq, dh);
                    let kb = Self::head_block(&k_out, b, h, seq, dh);
                    let vb = Self::head_block(&v_out, b, h, seq, dh);
                    let mut scores = qb.matmul_nt(&kb);
                    softmax_scaled_inplace(&mut scores, scale);
                    Self::add_head_block(&mut concat, &scores.matmul(&vb), b, h, seq);
                    probs.push(scores);
                }
            }
            let probs = Matrix::vcat(&probs.iter().collect::<Vec<_>>());
            let y = self.o.project(&concat, None, capture);
            tape.save([x.clone(), q_out, k_out, v_out, probs, concat]);
            y
        }

        fn oracle_backward(&mut self, dout: &Matrix, tape: &mut Tape) -> Matrix {
            let [x, q_out, k_out, v_out, probs, concat] = tape.restore();
            let (seq, capture) = (
                tape.ctx().effective_seq_len(x.rows()),
                tape.ctx().capture_kfac,
            );
            let (dh, nh) = (self.d_head, self.n_heads);
            let scale = 1.0 / (dh as f64).sqrt();
            let dconcat = self.o.backprop(&concat, dout, capture);
            let [mut dq, mut dk, mut dv] =
                std::array::from_fn(|_| Matrix::zeros(dconcat.rows(), self.d_model));
            for b in 0..dconcat.rows() / seq {
                for h in 0..nh {
                    let i = (b * nh + h) * seq;
                    let p = probs.slice_rows(i, i + seq);
                    let dob = Self::head_block(&dconcat, b, h, seq, dh);
                    let qb = Self::head_block(&q_out, b, h, seq, dh);
                    let kb = Self::head_block(&k_out, b, h, seq, dh);
                    let vb = Self::head_block(&v_out, b, h, seq, dh);
                    let dp = dob.matmul_nt(&vb);
                    let mut dvb = Matrix::default();
                    p.matmul_tn_into(&dob, &mut dvb);
                    let mut ds = Matrix::zeros(seq, seq);
                    for r in 0..seq {
                        let (prow, dprow) = (p.row(r), dp.row(r));
                        let dot: f64 = prow.iter().zip(dprow).map(|(&a, &b)| a * b).sum();
                        for (c, d) in ds.row_mut(r).iter_mut().enumerate() {
                            *d = prow[c] * (dprow[c] - dot);
                        }
                    }
                    ds.scale_inplace(scale);
                    let mut dkb = Matrix::default();
                    ds.matmul_tn_into(&qb, &mut dkb);
                    Self::add_head_block(&mut dq, &ds.matmul(&kb), b, h, seq);
                    Self::add_head_block(&mut dk, &dkb, b, h, seq);
                    Self::add_head_block(&mut dv, &dvb, b, h, seq);
                }
            }
            let mut dx = self.q.backprop(&x, &dq, capture);
            dx += &self.k.backprop(&x, &dk, capture);
            dx += &self.v.backprop(&x, &dv, capture);
            dx
        }
    }

    fn assert_bits(what: &str, a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x:e} vs {y:e}");
        }
    }

    #[test]
    fn core_matches_the_per_head_loop_bitwise() {
        let heads = 3;
        for (dh, seq, batch) in [16, 24, 5]
            .into_iter()
            .flat_map(|dh| [(32, 1), (32, 8), (7, 1), (7, 8)].map(|(s, b)| (dh, s, b)))
        {
            let (d, rows) = (dh * heads, batch * seq);
            let what = format!("d_head {dh}, seq {seq}, batch {batch}");
            let mut rng = StdRng::seed_from_u64(dh as u64 * 100 + seq as u64 + batch as u64);
            let x = init::normal(rows, d, 1.0, &mut rng);
            let dout = init::normal(rows, d, 1.0, &mut rng);
            let ctx = ForwardCtx::train_with_capture();
            let (mut fast, mut slow) = (attn(d, heads), attn(d, heads));
            let (mut fast_tape, mut slow_tape) = (tape(ctx, seq), tape(ctx, seq));
            let y = fast.forward(x.clone(), &mut fast_tape);
            assert_bits(&what, &y, &slow.oracle_forward(&x, &mut slow_tape));
            let dx = fast.backward(&dout, &mut fast_tape);
            assert_bits(&what, &dx, &slow.oracle_backward(&dout, &mut slow_tape));
            let mut params = Vec::new();
            fast.visit_params(&mut |p: &mut Parameter| params.push(p.clone()));
            let mut i = 0;
            slow.visit_params(&mut |p: &mut Parameter| {
                assert_bits(&format!("{what}: {}", p.name), &p.grad, &params[i].grad);
                i += 1;
            });
            let mut stats = Vec::new();
            fast.visit_linears(&mut |l: &mut Linear| stats.push(l.kfac_stats().clone()));
            let mut i = 0;
            slow.visit_linears(&mut |l: &mut Linear| {
                let (got, want) = (&stats[i], l.kfac_stats());
                assert!(got.is_complete(), "{what}: capture");
                let a = (got.activations.as_ref(), want.activations.as_ref());
                let e = (got.errors.as_ref(), want.errors.as_ref());
                assert_bits(&format!("{what}: A {i}"), a.0.unwrap(), a.1.unwrap());
                assert_bits(&format!("{what}: G {i}"), e.0.unwrap(), e.1.unwrap());
                i += 1;
            });
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn bad_seq_len_panics() {
        let mut a = attn(4, 2);
        let _ = a.forward(Matrix::zeros(5, 4), &mut tape(ForwardCtx::train(), 3));
    }
}
