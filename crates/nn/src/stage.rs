//! The model body as pipeline stages.
//!
//! A [`BertStage`] is a contiguous run of the pretraining model: optionally
//! the input embeddings, some encoder blocks, optionally the pretraining
//! heads. Its forward and backward are the only spelling of the layer
//! sequence: [`BertForPreTraining`] is the stage that holds everything, and
//! [`StagedBert`] is the same layers re-partitioned over `D` stages for the
//! pipeline executor (`pipefisher-lm`) — stage 0 owns the embeddings, the
//! blocks are distributed in contiguous depth ranges, the last stage owns
//! both heads. Layer instances are *moved* between the two forms
//! ([`StagedBert::from_model`] / [`StagedBert::into_model`] are exact
//! inverses), so running the stages in dependency order reproduces the
//! monolithic pass bitwise.

use crate::{
    cross_entropy_backward, cross_entropy_loss, Activation, ActivationKind, BertConfig,
    BertForPreTraining, Embedding, ForwardCtx, Layer, LayerNorm, Linear, ParamVisitor,
    PreTrainingBatch, PreTrainingOutput, TransformerBlock,
};
use pipefisher_tensor::Matrix;
use rand::Rng;

/// The MLM + NSP pretraining heads as one unit, hosted by the last stage.
///
/// Forward computes both losses and caches the logits; the deferred
/// [`PreTrainingHead::backward`] returns the gradient flowing into the
/// encoder's final hidden states.
#[derive(Debug, Clone)]
pub struct PreTrainingHead {
    mlm_transform: Linear,
    mlm_act: Activation,
    mlm_ln: LayerNorm,
    mlm_decoder: Linear,
    nsp_pooler: Linear,
    nsp_act: Activation,
    nsp_classifier: Linear,
    /// `(mlm_logits, nsp_logits)` from the pending forward.
    pub(crate) cache: Option<(Matrix, Matrix)>,
}

impl PreTrainingHead {
    /// Builds both heads over `d_model` features and a `vocab_size`
    /// vocabulary. The draw order (decoder, classifier, transform, pooler)
    /// is part of the seed → initial-weights contract: reordering it changes
    /// every model built from a given seed.
    pub(crate) fn new(d_model: usize, vocab_size: usize, rng: &mut impl Rng) -> Self {
        let mlm_decoder = Linear::new_bert("head.mlm.decoder", d_model, vocab_size, rng);
        let nsp_classifier = Linear::new_bert("head.nsp.classifier", d_model, 2, rng);
        PreTrainingHead {
            mlm_transform: Linear::new_bert("head.mlm.transform", d_model, d_model, rng),
            mlm_act: Activation::new(ActivationKind::Gelu),
            mlm_ln: LayerNorm::new("head.mlm.ln", d_model),
            mlm_decoder,
            nsp_pooler: Linear::new_bert("head.nsp.pooler", d_model, d_model, rng),
            nsp_act: Activation::new(ActivationKind::Tanh),
            nsp_classifier,
            cache: None,
        }
    }

    /// Runs both heads over the encoder output — the MLM head over all
    /// tokens, the NSP head over the first token of each sequence —
    /// caching logits for the deferred backward. The MLM decoder and the
    /// NSP classifier never capture K-FAC statistics, whatever `ctx` asks:
    /// they are the layers [`PreTrainingHead::visit_linears`] leaves out.
    pub fn forward(
        &mut self,
        hidden: &Matrix,
        batch: &PreTrainingBatch,
        ctx: &ForwardCtx,
    ) -> PreTrainingOutput {
        let batch_size = batch.batch_size();
        let t = self
            .mlm_transform
            .forward_bias_act(hidden, &mut self.mlm_act, ctx);
        let t = self.mlm_ln.forward(&t, ctx);
        let mlm_logits = self.mlm_decoder.forward(&t, &ForwardCtx::train());
        let mlm = cross_entropy_loss(&mlm_logits, &batch.mlm_targets);

        let mut first_tokens = Matrix::zeros(batch_size, hidden.cols());
        for b in 0..batch_size {
            first_tokens
                .row_mut(b)
                .copy_from_slice(hidden.row(b * batch.seq));
        }
        let p = self
            .nsp_pooler
            .forward_bias_act(&first_tokens, &mut self.nsp_act, ctx);
        let nsp_logits = self.nsp_classifier.forward(&p, &ForwardCtx::train());
        let nsp = cross_entropy_loss(&nsp_logits, &batch.nsp_targets);

        self.cache = Some((mlm_logits, nsp_logits));
        PreTrainingOutput {
            total_loss: mlm.loss + nsp.loss,
            mlm_loss: mlm.loss,
            nsp_loss: nsp.loss,
            mlm_count: mlm.count,
        }
    }

    /// Backpropagates both heads, returning the hidden-state gradient.
    ///
    /// # Panics
    ///
    /// Panics if called without a pending [`PreTrainingHead::forward`].
    pub fn backward(&mut self, batch: &PreTrainingBatch) -> Matrix {
        let (mlm_logits, nsp_logits) = self
            .cache
            .take()
            .expect("PreTrainingHead::backward before forward");
        let batch_size = batch.batch_size();
        let dmlm_logits = cross_entropy_backward(&mlm_logits, &batch.mlm_targets);
        let dt = self.mlm_decoder.backward(&dmlm_logits);
        let dt = self.mlm_ln.backward(&dt);
        let dt = self.mlm_act.backward(&dt);
        let mut dhidden = self.mlm_transform.backward(&dt);

        let dnsp_logits = cross_entropy_backward(&nsp_logits, &batch.nsp_targets);
        let dp = self.nsp_classifier.backward(&dnsp_logits);
        let dp = self.nsp_act.backward(&dp);
        let dfirst = self.nsp_pooler.backward(&dp);
        for b in 0..batch_size {
            let dst = dhidden.row_mut(b * batch.seq);
            for (d, &g) in dst.iter_mut().zip(dfirst.row(b).iter()) {
                *d += g;
            }
        }
        dhidden
    }

    /// Visits head parameters, in the fixed order whole-model reductions
    /// (the gradient norm) and the executor's parameter shuttles index by.
    pub fn visit_params(&mut self, f: ParamVisitor<'_>) {
        self.mlm_transform.visit_params(f);
        self.mlm_ln.visit_params(f);
        self.mlm_decoder.visit_params(f);
        self.nsp_pooler.visit_params(f);
        self.nsp_classifier.visit_params(f);
    }

    /// Visits the head's K-FAC-eligible linears (transform + pooler): not
    /// the vocabulary-sized decoder (paper §4), nor the NSP classifier.
    pub fn visit_linears<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Linear)) {
        f(&mut self.mlm_transform);
        f(&mut self.nsp_pooler);
    }
}

/// What a stage's forward pass produces.
#[derive(Debug)]
pub enum StageOutput {
    /// Boundary activations for the next stage (`batch·seq × d_model`).
    Boundary(Matrix),
    /// The last stage's losses (the head ran).
    Losses(PreTrainingOutput),
}

/// One contiguous pipeline stage: optionally the embeddings, a run of
/// encoder blocks, and optionally the pretraining heads.
#[derive(Debug, Clone)]
pub struct BertStage {
    pub(crate) embedding: Option<Embedding>,
    pub(crate) blocks: Vec<TransformerBlock>,
    pub(crate) head: Option<PreTrainingHead>,
}

impl BertStage {
    /// Runs the stage forward. Stage 0 takes `None` and reads the batch's
    /// token ids; later stages take the previous stage's boundary
    /// activations.
    ///
    /// # Panics
    ///
    /// Panics if `input` presence does not match the stage's position
    /// (embedding stages take `None`, others take `Some`).
    pub fn forward(
        &mut self,
        input: Option<Matrix>,
        batch: &PreTrainingBatch,
        ctx: &ForwardCtx,
    ) -> StageOutput {
        let ctx = ctx.with_seq_len(batch.seq);
        let mut h = match (&mut self.embedding, input) {
            (Some(emb), None) => emb.forward(&batch.token_ids, &batch.segment_ids, batch.seq, &ctx),
            (None, Some(x)) => x,
            (Some(_), Some(_)) => panic!("BertStage::forward: embedding stage got an input"),
            (None, None) => panic!("BertStage::forward: non-embedding stage needs an input"),
        };
        for block in &mut self.blocks {
            h = block.forward(&h, &ctx);
        }
        match &mut self.head {
            Some(head) => StageOutput::Losses(head.forward(&h, batch, &ctx)),
            None => StageOutput::Boundary(h),
        }
    }

    /// Runs the stage backward. The last stage takes `None` (the head
    /// generates the loss gradient); earlier stages take the downstream
    /// boundary gradient. Returns the gradient for the upstream stage, or
    /// `None` from stage 0 (the embeddings absorb it).
    ///
    /// # Panics
    ///
    /// Panics if `dout` presence does not match the stage's position.
    pub fn backward(&mut self, dout: Option<Matrix>, batch: &PreTrainingBatch) -> Option<Matrix> {
        let mut d = match (&mut self.head, dout) {
            (Some(head), None) => head.backward(batch),
            (None, Some(d)) => d,
            (Some(_), Some(_)) => panic!("BertStage::backward: head stage got a gradient"),
            (None, None) => panic!("BertStage::backward: non-head stage needs a gradient"),
        };
        for block in self.blocks.iter_mut().rev() {
            d = block.backward(&d);
        }
        match &mut self.embedding {
            Some(emb) => {
                emb.backward(&d);
                None
            }
            None => Some(d),
        }
    }

    /// Visits this stage's parameters in depth order (embeddings, blocks,
    /// heads); stages visited in order give the whole model's order.
    pub fn visit_params(&mut self, f: ParamVisitor<'_>) {
        if let Some(emb) = &mut self.embedding {
            emb.visit_params(f);
        }
        for block in &mut self.blocks {
            block.visit_params(f);
        }
        if let Some(head) = &mut self.head {
            head.visit_params(f);
        }
    }

    /// Visits this stage's K-FAC-eligible linears in depth order (blocks,
    /// then the heads' transform and pooler).
    pub fn visit_linears<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Linear)) {
        for block in &mut self.blocks {
            block.visit_linears(f);
        }
        if let Some(head) = &mut self.head {
            head.visit_linears(f);
        }
    }

    /// Zeroes this stage's gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.grad.scale_inplace(0.0));
    }
}

/// A [`BertForPreTraining`] split into `D` contiguous pipeline stages.
///
/// Stage `i` owns encoder blocks `[i·L/D, (i+1)·L/D)`; stage 0 additionally
/// owns the embeddings and the last stage the pretraining heads. Stages may
/// own zero blocks when `D > L`. Iterating stages in order visits every
/// parameter in exactly the monolithic model's `visit_params` order.
#[derive(Debug, Clone)]
pub struct StagedBert {
    config: BertConfig,
    stages: Vec<BertStage>,
}

impl StagedBert {
    /// Splits `model` into `n_stages` contiguous stages.
    ///
    /// # Panics
    ///
    /// Panics if `n_stages == 0`.
    pub fn from_model(model: BertForPreTraining, n_stages: usize) -> Self {
        assert!(n_stages > 0, "StagedBert: n_stages must be positive");
        let BertStage {
            mut embedding,
            blocks,
            mut head,
        } = model.stage;
        let l = blocks.len();
        let mut blocks = blocks.into_iter();
        let stages = (0..n_stages)
            .map(|i| {
                let (start, end) = (i * l / n_stages, (i + 1) * l / n_stages);
                BertStage {
                    embedding: if i == 0 { embedding.take() } else { None },
                    blocks: blocks.by_ref().take(end - start).collect(),
                    head: if i == n_stages - 1 { head.take() } else { None },
                }
            })
            .collect();
        StagedBert {
            config: model.config,
            stages,
        }
    }

    /// Reassembles the monolithic model; the exact inverse of
    /// [`StagedBert::from_model`].
    pub fn into_model(self) -> BertForPreTraining {
        let mut stages = self.stages.into_iter();
        let mut whole = stages.next().expect("StagedBert has at least one stage");
        for stage in stages {
            whole.blocks.extend(stage.blocks);
            // Only the last stage has one, and it is assigned last.
            whole.head = stage.head;
        }
        BertForPreTraining {
            config: self.config,
            stage: whole,
        }
    }

    /// Encoder hyperparameters.
    pub fn config(&self) -> &BertConfig {
        &self.config
    }

    /// Number of stages.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Borrows stage `s`.
    pub fn stage(&self, s: usize) -> &BertStage {
        &self.stages[s]
    }

    /// Mutably borrows stage `s`.
    pub fn stage_mut(&mut self, s: usize) -> &mut BertStage {
        &mut self.stages[s]
    }

    /// Visits every parameter in the monolithic model's order.
    pub fn visit_params(&mut self, f: ParamVisitor<'_>) {
        for stage in &mut self.stages {
            stage.visit_params(f);
        }
    }

    /// Visits every K-FAC-eligible linear in the monolithic model's order.
    pub fn visit_linears<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Linear)) {
        for stage in &mut self.stages {
            stage.visit_linears(f);
        }
    }

    /// Zeroes all gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.grad.scale_inplace(0.0));
    }

    /// Runs one forward + backward over all stages in dependency order,
    /// accumulating gradients — the serial reference the pipeline
    /// executor must match bitwise.
    pub fn train_step(&mut self, batch: &PreTrainingBatch, ctx: &ForwardCtx) -> PreTrainingOutput {
        let mut boundary = None;
        let mut out = None;
        for stage in &mut self.stages {
            match stage.forward(boundary.take(), batch, ctx) {
                StageOutput::Boundary(h) => boundary = Some(h),
                StageOutput::Losses(o) => out = Some(o),
            }
        }
        let out = out.expect("StagedBert: no head stage ran");
        let mut dout = None;
        for stage in self.stages.iter_mut().rev() {
            dout = stage.backward(dout.take(), batch);
        }
        assert!(
            dout.is_none(),
            "StagedBert: gradient left over after stage 0"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefisher_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_batch(seq: usize, batch: usize, vocab: usize) -> PreTrainingBatch {
        let n = seq * batch;
        PreTrainingBatch {
            token_ids: (0..n).map(|i| i % vocab).collect(),
            segment_ids: (0..n).map(|i| ((i % seq) >= seq / 2) as usize).collect(),
            mlm_targets: (0..n)
                .map(|i| {
                    if i % 5 == 0 {
                        (i % vocab) as i64
                    } else {
                        crate::IGNORE_INDEX
                    }
                })
                .collect(),
            nsp_targets: (0..batch).map(|b| (b % 2) as i64).collect(),
            seq,
        }
    }

    fn model(seed: u64, config: BertConfig) -> BertForPreTraining {
        let mut rng = StdRng::seed_from_u64(seed);
        BertForPreTraining::new(config, 0.0, &mut rng)
    }

    #[test]
    fn decoder_is_kfac_excluded() {
        let mut mono = model(80, BertConfig::tiny(20, 8));
        let _ = mono.train_step(&toy_batch(8, 2, 20), &ForwardCtx::train_with_capture());
        let decoder = &mono.stage.head.as_ref().unwrap().mlm_decoder;
        assert!(decoder.kfac_stats().activations.is_none());
        assert!(decoder.kfac_stats().errors.is_none());
        // But eligible layers did capture.
        let mut captured = 0;
        mono.visit_linears(&mut |l| {
            if l.kfac_stats().is_complete() {
                captured += 1;
            }
        });
        assert_eq!(captured, 14);
    }

    /// The head's fused transform + GELU and pooler + tanh forwards
    /// (`Linear::forward_bias_act`) equal the separate passes they
    /// replaced, bitwise: logits, losses, the hidden-state gradient and
    /// every head parameter's gradient.
    #[test]
    fn fused_head_matches_separate_passes_bitwise() {
        let (seq, d, vocab) = (8, 16, 20);
        let batch = toy_batch(seq, 3, vocab);
        let mut rng = StdRng::seed_from_u64(81);
        let mut fused = PreTrainingHead::new(d, vocab, &mut rng);
        // Non-zero biases, so each activation runs after its bias add.
        for lin in [&mut fused.mlm_transform, &mut fused.nsp_pooler] {
            lin.bias_mut().value = init::normal(1, d, 1.0, &mut rng);
        }
        let mut split = fused.clone();
        let hidden = init::normal(3 * seq, d, 1.0, &mut rng);
        let ctx = ForwardCtx::train_with_capture();
        let out = fused.forward(&hidden, &batch, &ctx);

        let h = &mut split;
        let t = h.mlm_transform.forward(&hidden, &ctx);
        let t = h.mlm_act.forward(&t, &ctx);
        let t = h.mlm_ln.forward(&t, &ctx);
        let mlm_logits = h.mlm_decoder.forward(&t, &ctx);
        let first = Matrix::from_vec(
            3,
            d,
            (0..3).flat_map(|b| hidden.row(b * seq).to_vec()).collect(),
        );
        let p = h.nsp_pooler.forward(&first, &ctx);
        let p = h.nsp_act.forward(&p, &ctx);
        let nsp_logits = h.nsp_classifier.forward(&p, &ctx);
        let mlm = cross_entropy_loss(&mlm_logits, &batch.mlm_targets).loss;
        let nsp = cross_entropy_loss(&nsp_logits, &batch.nsp_targets).loss;
        let losses = [out.mlm_loss, out.nsp_loss, out.total_loss].map(f64::to_bits);
        assert_eq!(losses, [mlm, nsp, mlm + nsp].map(f64::to_bits));
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (fused_mlm, fused_nsp) = fused.cache.as_ref().unwrap();
        assert_eq!(bits(fused_mlm), bits(&mlm_logits), "mlm logits");
        assert_eq!(bits(fused_nsp), bits(&nsp_logits), "nsp logits");
        h.cache = Some((mlm_logits, nsp_logits));

        assert_eq!(
            bits(&fused.backward(&batch)),
            bits(&split.backward(&batch)),
            "dhidden"
        );
        let mut grads = Vec::new();
        split.visit_params(&mut |p| grads.push(bits(&p.grad)));
        let mut i = 0;
        fused.visit_params(&mut |p| {
            assert_eq!(bits(&p.grad), grads[i], "{}", p.name);
            i += 1;
        });
        assert_eq!(i, 10);
    }

    #[test]
    fn roundtrip_preserves_params() {
        for d in [1, 2, 3, 4, 7] {
            let mut mono = model(5, BertConfig::tiny(20, 8));
            let mut names = Vec::new();
            mono.visit_params(&mut |p| names.push(p.name.clone()));
            let staged = StagedBert::from_model(mono, d);
            let mut back = staged.into_model();
            let mut names2 = Vec::new();
            back.visit_params(&mut |p| names2.push(p.name.clone()));
            assert_eq!(names, names2, "d={d}");
        }
    }

    #[test]
    fn staged_visit_order_matches_monolithic() {
        let mut mono = model(6, BertConfig::mini(24, 8));
        let mut mono_names = Vec::new();
        mono.visit_params(&mut |p| mono_names.push(p.name.clone()));
        let mut mono_lin = Vec::new();
        mono.visit_linears(&mut |l| mono_lin.push(l.name().to_string()));
        let mut staged = StagedBert::from_model(mono, 3);
        let mut staged_names = Vec::new();
        staged.visit_params(&mut |p| staged_names.push(p.name.clone()));
        let mut staged_lin = Vec::new();
        staged.visit_linears(&mut |l| staged_lin.push(l.name().to_string()));
        assert_eq!(mono_names, staged_names);
        assert_eq!(mono_lin, staged_lin);
    }

    #[test]
    fn staged_train_step_is_bitwise_monolithic() {
        let batch = toy_batch(8, 3, 20);
        for d in [1, 2, 4] {
            let mut mono = model(7, BertConfig::mini(20, 8));
            let mut staged = StagedBert::from_model(model(7, BertConfig::mini(20, 8)), d);
            mono.zero_grad();
            staged.zero_grad();
            let o1 = mono.train_step(&batch, &ForwardCtx::train_with_capture());
            let o2 = staged.train_step(&batch, &ForwardCtx::train_with_capture());
            assert_eq!(o1.total_loss.to_bits(), o2.total_loss.to_bits(), "d={d}");
            let mut mono_grads = Vec::new();
            mono.visit_params(&mut |p| mono_grads.push(p.grad.clone()));
            let mut idx = 0;
            staged.visit_params(&mut |p| {
                assert_eq!(
                    p.grad.as_slice(),
                    mono_grads[idx].as_slice(),
                    "d={d} param {}",
                    p.name
                );
                idx += 1;
            });
        }
    }

    #[test]
    fn stage_partition_covers_all_blocks() {
        let mono = model(8, BertConfig::mini(20, 8));
        let staged = StagedBert::from_model(mono, 4);
        assert_eq!(staged.n_stages(), 4);
        let total: usize = (0..4).map(|s| staged.stage(s).blocks.len()).sum();
        assert_eq!(total, 4);
        assert!(staged.stage(0).embedding.is_some());
        assert!(staged.stage(3).head.is_some());
        assert!(staged.stage(1).embedding.is_none() && staged.stage(1).head.is_none());
    }

    #[test]
    fn more_stages_than_blocks_is_ok() {
        // tiny has 2 blocks; D=4 leaves two stages with pass-through blocks.
        let batch = toy_batch(8, 2, 20);
        let mut mono = model(9, BertConfig::tiny(20, 8));
        let mut staged = StagedBert::from_model(model(9, BertConfig::tiny(20, 8)), 4);
        let o1 = mono.train_step(&batch, &ForwardCtx::train());
        let o2 = staged.train_step(&batch, &ForwardCtx::train());
        assert_eq!(o1.total_loss.to_bits(), o2.total_loss.to_bits());
    }
}
