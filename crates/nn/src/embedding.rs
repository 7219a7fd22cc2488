//! BERT input embeddings (word + position + segment).

use crate::{Layer, LayerNorm, ParamVisitor, Parameter, Tape};
use pipefisher_tensor::{init, Matrix};
use rand::Rng;

/// BERT's input embedding stack: the sum of word, position, and segment
/// lookups followed by LayerNorm.
///
/// Unlike the other layers this is not a [`Layer`]: its input is token ids,
/// not a matrix. The paper *excludes* embedding tables from K-FAC (they are
/// not fully-connected layers), so no capture hooks exist here; the fallback
/// optimizer (NVLAMB) trains these parameters. The backward reads the ids
/// from its caller, who keeps the batch anyway; only the LayerNorm tapes.
#[derive(Debug, Clone)]
pub struct Embedding {
    word: Parameter,
    position: Parameter,
    segment: Parameter,
    ln: LayerNorm,
}

impl Embedding {
    /// Creates embedding tables for `vocab_size` tokens, up to `max_seq`
    /// positions, and 2 segments, over `d_model` features.
    pub fn new(
        name: &str,
        vocab_size: usize,
        max_seq: usize,
        d_model: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Embedding {
            word: Parameter::new(
                format!("{name}.word"),
                init::bert_normal(vocab_size, d_model, rng),
            ),
            position: Parameter::new(
                format!("{name}.position"),
                init::bert_normal(max_seq, d_model, rng),
            ),
            segment: Parameter::new(
                format!("{name}.segment"),
                init::bert_normal(2, d_model, rng),
            ),
            ln: LayerNorm::new(&format!("{name}.ln"), d_model),
        }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.word.value.rows()
    }

    /// Feature dimensionality.
    pub fn d_model(&self) -> usize {
        self.word.value.cols()
    }

    /// Maximum sequence length supported by the position table.
    pub fn max_seq(&self) -> usize {
        self.position.value.rows()
    }

    /// Embeds `token_ids` with `segment_ids`, both of length `batch·seq`,
    /// `seq` being the tape's sequence length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ, ids are out of range, or `seq` exceeds the
    /// position table.
    pub fn forward(
        &mut self,
        token_ids: &[usize],
        segment_ids: &[usize],
        tape: &mut Tape,
    ) -> Matrix {
        assert_eq!(token_ids.len(), segment_ids.len(), "Embedding: id lengths");
        let seq = tape.ctx().effective_seq_len(token_ids.len());
        assert!(
            seq <= self.max_seq(),
            "Embedding: seq {} > max {}",
            seq,
            self.max_seq()
        );
        let n = token_ids.len();
        let d = self.d_model();
        // Every element is written below.
        let mut x = Matrix::unfilled(n, d);
        for (i, (&tok, &segid)) in token_ids.iter().zip(segment_ids.iter()).enumerate() {
            assert!(
                tok < self.vocab_size(),
                "Embedding: token id {tok} out of range"
            );
            assert!(segid < 2, "Embedding: segment id {segid} out of range");
            let pos = i % seq;
            let row = x.row_mut(i);
            let w = self.word.value.row(tok);
            let p = self.position.value.row(pos);
            let s = self.segment.value.row(segid);
            for c in 0..d {
                row[c] = w[c] + p[c] + s[c];
            }
        }
        self.ln.forward(x, tape)
    }

    /// Backpropagates into the three tables, at the ids the matching
    /// [`Embedding::forward`] embedded.
    ///
    /// Each call scatters into one zeroed local per table and then adds
    /// every table's contribution through one `accumulate_grad`, so a batch
    /// contributes to `grad` with a single addition — the invariant the
    /// pipeline executor's micro-batch merge relies on, and the way every
    /// other layer's micro-batch contributions associate.
    ///
    /// # Panics
    ///
    /// Panics if `tape` does not end with the forward's.
    pub fn backward(
        &mut self,
        dout: &Matrix,
        token_ids: &[usize],
        segment_ids: &[usize],
        tape: &mut Tape,
    ) {
        let dsum = self.ln.backward(dout, tape);
        let seq = tape.ctx().effective_seq_len(token_ids.len());
        let d = self.d_model();
        let [mut word_s, mut pos_s, mut seg_s] = [&self.word, &self.position, &self.segment]
            .map(|table| Matrix::zeros(table.value.rows(), table.value.cols()));
        for (i, (&tok, &segid)) in token_ids.iter().zip(segment_ids.iter()).enumerate() {
            let pos = i % seq;
            let g = dsum.row(i);
            let wrow = word_s.row_mut(tok);
            for c in 0..d {
                wrow[c] += g[c];
            }
            let prow = pos_s.row_mut(pos);
            for c in 0..d {
                prow[c] += g[c];
            }
            let srow = seg_s.row_mut(segid);
            for c in 0..d {
                srow[c] += g[c];
            }
        }
        self.word.accumulate_grad(&word_s);
        self.position.accumulate_grad(&pos_s);
        self.segment.accumulate_grad(&seg_s);
    }

    /// Visits the embedding tables and LayerNorm parameters.
    pub fn visit_params(&mut self, f: ParamVisitor<'_>) {
        f(&mut self.word);
        f(&mut self.position);
        f(&mut self.segment);
        self.ln.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ForwardCtx;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tape(seq: usize) -> Tape {
        Tape::new(ForwardCtx::train().with_seq_len(seq))
    }

    fn emb() -> Embedding {
        let mut rng = StdRng::seed_from_u64(31);
        Embedding::new("emb", 10, 4, 6, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let mut e = emb();
        let ids = [1usize, 2, 3, 4, 5, 6, 7, 8];
        let segs = [0usize, 0, 1, 1, 0, 0, 1, 1];
        let x = e.forward(&ids, &segs, &mut tape(4));
        assert_eq!(x.shape(), (8, 6));
        assert!(x.all_finite());
    }

    #[test]
    fn same_token_same_position_same_embedding() {
        let mut e = emb();
        let ids = [3usize, 3, 3, 3];
        let segs = [0usize; 4];
        let x = e.forward(&ids, &segs, &mut tape(2));
        // Rows 0 and 2 are both (token 3, position 0, segment 0).
        for c in 0..6 {
            assert!((x[(0, c)] - x[(2, c)]).abs() < 1e-12);
        }
    }

    #[test]
    fn backward_scatters_gradients() {
        let mut e = emb();
        let ids = [1usize, 2];
        let segs = [0usize, 1];
        let mut tape = tape(2);
        let _ = e.forward(&ids, &segs, &mut tape);
        e.backward(&Matrix::full(2, 6, 1.0), &ids, &segs, &mut tape);
        assert!(e.word.grad.row(1).iter().any(|&v| v != 0.0));
        assert!(e.word.grad.row(2).iter().any(|&v| v != 0.0));
        assert!(e.word.grad.row(0).iter().all(|&v| v == 0.0)); // untouched token
        assert!(e.segment.grad.row(0).iter().any(|&v| v != 0.0));
        assert!(e.segment.grad.row(1).iter().any(|&v| v != 0.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_token_panics() {
        let mut e = emb();
        let _ = e.forward(&[99], &[0], &mut tape(1));
    }
}
