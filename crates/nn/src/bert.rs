//! BERT hyperparameters, the pretraining batch/output types, and the
//! monolithic pretraining model (the one-stage [`BertStage`]).

use crate::{
    BertStage, Embedding, ForwardCtx, Linear, ParamVisitor, PreTrainingHead, StageOutput,
    TransformerBlock,
};
use rand::Rng;

/// Hyperparameters of a BERT encoder.
///
/// The presets mirror the paper: `base`/`large` match Table 3's dimensions
/// and are used by the *cost model*; `tiny`/`mini` are CPU-trainable models
/// used by the *convergence* experiments (the scheduling results depend only
/// on dimensions, not weights — see DESIGN.md §2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BertConfig {
    /// Vocabulary size (30,522 for real BERT).
    pub vocab_size: usize,
    /// Maximum sequence length for the position table.
    pub max_seq: usize,
    /// Hidden size `d_model`.
    pub d_model: usize,
    /// Feed-forward intermediate size `d_ff`.
    pub d_ff: usize,
    /// Number of attention heads.
    pub n_heads: usize,
    /// Number of encoder blocks `L`.
    pub n_layers: usize,
}

impl BertConfig {
    /// A CPU-trainable model for convergence experiments.
    pub fn tiny(vocab_size: usize, max_seq: usize) -> Self {
        BertConfig {
            vocab_size,
            max_seq,
            d_model: 32,
            d_ff: 64,
            n_heads: 2,
            n_layers: 2,
        }
    }

    /// A slightly larger CPU-trainable model.
    pub fn mini(vocab_size: usize, max_seq: usize) -> Self {
        BertConfig {
            vocab_size,
            max_seq,
            d_model: 64,
            d_ff: 128,
            n_heads: 4,
            n_layers: 4,
        }
    }
}

/// A pretraining mini-batch (token-major flattened sequences).
#[derive(Debug, Clone)]
pub struct PreTrainingBatch {
    /// `batch·seq` token ids.
    pub token_ids: Vec<usize>,
    /// `batch·seq` segment ids (0 = sentence A, 1 = sentence B).
    pub segment_ids: Vec<usize>,
    /// `batch·seq` MLM targets ([`crate::IGNORE_INDEX`] on unmasked tokens).
    pub mlm_targets: Vec<i64>,
    /// `batch` NSP targets (0 = consecutive, 1 = random pair).
    pub nsp_targets: Vec<i64>,
    /// Sequence length.
    pub seq: usize,
}

impl PreTrainingBatch {
    /// Number of sequences in the batch.
    pub fn batch_size(&self) -> usize {
        self.token_ids.len().checked_div(self.seq).unwrap_or(0)
    }
}

/// Losses of a pretraining forward pass.
#[derive(Debug, Clone, Copy)]
pub struct PreTrainingOutput {
    /// `mlm_loss + nsp_loss` (the quantity Figure 6 plots).
    pub total_loss: f64,
    /// Masked-language-modeling loss.
    pub mlm_loss: f64,
    /// Next-sentence-prediction loss.
    pub nsp_loss: f64,
    /// Number of masked tokens contributing to the MLM loss.
    pub mlm_count: usize,
}

/// BERT with the two pretraining heads: masked LM and next-sentence
/// prediction.
///
/// This is the single-stage case of the pipeline partition: one
/// [`BertStage`] holding the embeddings, every encoder block and the
/// [`PreTrainingHead`]. [`crate::StagedBert`] re-partitions the same layers
/// over `D` stages, so the stage's forward/backward is the only spelling of
/// the model body.
///
/// Following the paper (§4): the MLM *transform* dense layer participates in
/// K-FAC, but the final vocabulary-sized *decoder* is excluded ("the
/// Kronecker factor `B_L` will be too large to construct/invert"), as is the
/// NSP classifier which sits on a pooled single token.
#[derive(Debug, Clone)]
pub struct BertForPreTraining {
    pub(crate) config: BertConfig,
    pub(crate) stage: BertStage,
}

impl BertForPreTraining {
    /// Builds the pretraining model. The RNG draw order — embeddings,
    /// blocks in depth order, then the heads as [`PreTrainingHead::new`]
    /// draws them — fixes the initial weights for a seed; checkpoints and
    /// every recorded loss depend on it.
    ///
    /// # Panics
    ///
    /// Panics unless `dropout_p == 0.0`: dropout is not modelled.
    pub fn new(config: BertConfig, dropout_p: f64, rng: &mut impl Rng) -> Self {
        assert!(
            dropout_p == 0.0,
            "BertForPreTraining: dropout is not modelled, dropout_p must be 0.0, got {dropout_p}"
        );
        let embedding = Embedding::new(
            "bert.emb",
            config.vocab_size,
            config.max_seq,
            config.d_model,
            rng,
        );
        let blocks = (0..config.n_layers)
            .map(|i| {
                TransformerBlock::new(
                    &format!("bert.block{i}"),
                    config.d_model,
                    config.d_ff,
                    config.n_heads,
                    rng,
                )
            })
            .collect();
        let head = PreTrainingHead::new(config.d_model, config.vocab_size, rng);
        BertForPreTraining {
            stage: BertStage {
                embedding: Some(embedding),
                blocks,
                head: Some(head),
                tape: Default::default(),
            },
            config,
        }
    }

    /// The stage's forward; it hosts the heads, so the output is the losses.
    fn forward(&mut self, batch: &PreTrainingBatch, ctx: &ForwardCtx) -> PreTrainingOutput {
        match self.stage.forward(None, batch, ctx) {
            StageOutput::Losses(out) => out,
            StageOutput::Boundary(_) => unreachable!("the single stage hosts the heads"),
        }
    }

    /// Runs forward + backward for one batch, accumulating all gradients,
    /// and returns the losses.
    pub fn train_step(&mut self, batch: &PreTrainingBatch, ctx: &ForwardCtx) -> PreTrainingOutput {
        let out = self.forward(batch, ctx);
        let upstream = self.stage.backward(None, batch);
        debug_assert!(upstream.is_none(), "the embeddings absorb the gradient");
        out
    }

    /// Evaluates losses without touching gradients.
    pub fn eval_loss(&mut self, batch: &PreTrainingBatch) -> PreTrainingOutput {
        let out = self.forward(batch, &ForwardCtx::train());
        // No backward follows: release what the forward taped for it.
        self.stage.tape = Default::default();
        out
    }

    /// Visits every trainable parameter (encoder + heads).
    pub fn visit_params(&mut self, f: ParamVisitor<'_>) {
        self.stage.visit_params(f);
    }

    /// Visits every K-FAC-eligible [`Linear`] layer (encoder + MLM transform
    /// + NSP pooler; the vocab decoder and NSP classifier are excluded).
    pub fn visit_linears<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Linear)) {
        self.stage.visit_linears(f);
    }

    /// Zeroes all gradients.
    pub fn zero_grad(&mut self) {
        self.stage.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IGNORE_INDEX;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_batch(seq: usize, batch: usize, vocab: usize) -> PreTrainingBatch {
        let n = seq * batch;
        let token_ids: Vec<usize> = (0..n).map(|i| i % vocab).collect();
        let segment_ids: Vec<usize> = (0..n).map(|i| ((i % seq) >= seq / 2) as usize).collect();
        let mlm_targets: Vec<i64> = (0..n)
            .map(|i| {
                if i % 5 == 0 {
                    (i % vocab) as i64
                } else {
                    IGNORE_INDEX
                }
            })
            .collect();
        let nsp_targets: Vec<i64> = (0..batch).map(|b| (b % 2) as i64).collect();
        PreTrainingBatch {
            token_ids,
            segment_ids,
            mlm_targets,
            nsp_targets,
            seq,
        }
    }

    #[test]
    fn train_step_produces_finite_losses_and_grads() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut model = BertForPreTraining::new(BertConfig::tiny(20, 8), 0.0, &mut rng);
        let batch = toy_batch(8, 2, 20);
        let out = model.train_step(&batch, &ForwardCtx::train());
        assert!(out.total_loss.is_finite());
        assert!(out.mlm_loss > 0.0);
        assert!(out.nsp_loss > 0.0);
        let mut any_grad = 0.0;
        model.visit_params(&mut |p| any_grad += p.grad.max_abs());
        assert!(any_grad > 0.0);
    }

    #[test]
    fn initial_mlm_loss_near_uniform() {
        let mut rng = StdRng::seed_from_u64(78);
        let vocab = 50;
        let mut model = BertForPreTraining::new(BertConfig::tiny(vocab, 8), 0.0, &mut rng);
        let batch = toy_batch(8, 4, vocab);
        let out = model.eval_loss(&batch);
        let uniform = (vocab as f64).ln();
        assert!(
            (out.mlm_loss - uniform).abs() < 1.0,
            "mlm {} vs ln V {}",
            out.mlm_loss,
            uniform
        );
    }

    #[test]
    fn kfac_linears_count() {
        let mut rng = StdRng::seed_from_u64(79);
        let mut model = BertForPreTraining::new(BertConfig::tiny(20, 8), 0.0, &mut rng);
        let mut n = 0;
        model.visit_linears(&mut |_l| n += 1);
        // 2 blocks × 6 linears + transform + pooler.
        assert_eq!(n, 14);
    }

    #[test]
    #[should_panic(expected = "dropout is not modelled")]
    fn nonzero_dropout_is_rejected() {
        let _ =
            BertForPreTraining::new(BertConfig::tiny(20, 8), 0.1, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(81);
        let mut model = BertForPreTraining::new(BertConfig::tiny(12, 4), 0.0, &mut rng);
        let batch = toy_batch(4, 4, 12);
        let first = model.eval_loss(&batch).total_loss;
        for _ in 0..30 {
            model.zero_grad();
            let _ = model.train_step(&batch, &ForwardCtx::train());
            model.visit_params(&mut |p| {
                let g = p.grad.clone();
                p.value.axpy(-0.5, &g);
            });
        }
        let last = model.eval_loss(&batch).total_loss;
        assert!(last < first * 0.8, "loss did not drop: {first} -> {last}");
    }
}
