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
    PreTrainingBatch, PreTrainingOutput, Tape, TransformerBlock,
};
use pipefisher_tensor::Matrix;
use rand::Rng;

/// The MLM + NSP pretraining heads as one unit, hosted by the last stage.
///
/// Forward computes both losses and tapes the logits; the deferred
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
        }
    }

    /// Runs both heads over the encoder output — the NSP head over the
    /// first token of each sequence, the MLM head over all tokens — taping
    /// what the deferred backward needs. The MLM decoder and the NSP
    /// classifier never capture K-FAC statistics, whatever the tape asks:
    /// they are the layers [`PreTrainingHead::visit_linears`] leaves out.
    pub fn forward(
        &mut self,
        hidden: Matrix,
        batch: &PreTrainingBatch,
        tape: &mut Tape,
    ) -> PreTrainingOutput {
        let capture = tape.ctx().capture_kfac;
        let mut first = Matrix::unfilled(batch.batch_size(), hidden.cols());
        for b in 0..batch.batch_size() {
            first.row_mut(b).copy_from_slice(hidden.row(b * batch.seq));
        }
        let mut p = self.nsp_pooler.project(&first, None, capture);
        let tanh_grad = self.nsp_act.apply(&mut p);
        let nsp_logits = self.nsp_classifier.project(&p, None, false);
        let nsp = cross_entropy_loss(&nsp_logits, &batch.nsp_targets);

        let mut t = self.mlm_transform.project(&hidden, None, capture);
        let gelu_grad = self.mlm_act.apply(&mut t);
        tape.save([first, tanh_grad, p, hidden, gelu_grad]);
        let t = self.mlm_ln.forward(t, tape);
        let mlm_logits = self.mlm_decoder.project(&t, None, false);
        let mlm = cross_entropy_loss(&mlm_logits, &batch.mlm_targets);
        tape.save([t, mlm_logits, nsp_logits]);
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
    /// Panics if `tape` does not end with a [`PreTrainingHead::forward`].
    pub fn backward(&mut self, batch: &PreTrainingBatch, tape: &mut Tape) -> Matrix {
        let capture = tape.ctx().capture_kfac;
        let [t, mlm_logits, nsp_logits] = tape.restore();
        let dmlm_logits = cross_entropy_backward(&mlm_logits, &batch.mlm_targets);
        let dt = self.mlm_decoder.backprop(&t, &dmlm_logits, false);
        let dt = self.mlm_ln.backward(&dt, tape);
        let [first, tanh_grad, p, hidden, gelu_grad] = tape.restore();
        let dt = Activation::chain(&gelu_grad, &dt);
        let mut dhidden = self.mlm_transform.backprop(&hidden, &dt, capture);

        let dnsp_logits = cross_entropy_backward(&nsp_logits, &batch.nsp_targets);
        let dp = self.nsp_classifier.backprop(&p, &dnsp_logits, false);
        let dp = Activation::chain(&tanh_grad, &dp);
        let dfirst = self.nsp_pooler.backprop(&first, &dp, capture);
        for b in 0..batch.batch_size() {
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
///
/// A stage keeps parameters, gradients and K-FAC statistics; each
/// micro-batch's forward state lives on a [`Tape`]. The pipeline executor
/// holds one tape per micro-batch in flight and runs
/// [`BertStage::forward_with`] / [`BertStage::backward_with`] on it;
/// [`BertStage::forward`] / [`BertStage::backward`] run the same body on
/// the one tape the stage holds.
#[derive(Debug, Clone, Default)]
pub struct BertStage {
    pub(crate) embedding: Option<Embedding>,
    pub(crate) blocks: Vec<TransformerBlock>,
    pub(crate) head: Option<PreTrainingHead>,
    /// The tape of [`BertStage::forward`]'s micro-batch.
    pub(crate) tape: Tape,
}

impl BertStage {
    /// Runs the stage forward on its own tape: [`BertStage::forward_with`].
    ///
    /// # Panics
    ///
    /// As [`BertStage::forward_with`].
    pub fn forward(
        &mut self,
        input: Option<Matrix>,
        batch: &PreTrainingBatch,
        ctx: &ForwardCtx,
    ) -> StageOutput {
        let mut tape = std::mem::take(&mut self.tape);
        let out = self.forward_with(&mut tape, input, batch, ctx);
        self.tape = tape;
        out
    }

    /// Runs the stage backward on its own tape: [`BertStage::backward_with`].
    ///
    /// # Panics
    ///
    /// As [`BertStage::backward_with`].
    pub fn backward(&mut self, dout: Option<Matrix>, batch: &PreTrainingBatch) -> Option<Matrix> {
        let mut tape = std::mem::take(&mut self.tape);
        let up = self.backward_with(&mut tape, dout, batch);
        self.tape = tape;
        up
    }

    /// Runs the stage forward, opening `tape` for `batch` under `ctx` (what
    /// a forward left on it without a backward is dropped). Stage 0 takes
    /// `None` and reads the batch's token ids; later stages take the
    /// previous stage's boundary activations.
    ///
    /// # Panics
    ///
    /// Panics if `input` presence does not match the stage's position
    /// (embedding stages take `None`, others take `Some`).
    pub fn forward_with(
        &mut self,
        tape: &mut Tape,
        input: Option<Matrix>,
        batch: &PreTrainingBatch,
        ctx: &ForwardCtx,
    ) -> StageOutput {
        tape.begin(ctx.with_seq_len(batch.seq));
        let mut h = match (&mut self.embedding, input) {
            (Some(emb), None) => emb.forward(&batch.token_ids, &batch.segment_ids, tape),
            (None, Some(x)) => x,
            (Some(_), Some(_)) => panic!("BertStage::forward: embedding stage got an input"),
            (None, None) => panic!("BertStage::forward: non-embedding stage needs an input"),
        };
        for block in &mut self.blocks {
            h = block.forward(h, tape);
        }
        match &mut self.head {
            Some(head) => StageOutput::Losses(head.forward(h, batch, tape)),
            None => StageOutput::Boundary(h),
        }
    }

    /// Runs the stage backward on the tape of `batch`'s forward. The last
    /// stage takes `None` (the head generates the loss gradient); earlier
    /// stages take the downstream boundary gradient. Returns the gradient
    /// for the upstream stage, or `None` from stage 0 (the embeddings
    /// absorb it).
    ///
    /// # Panics
    ///
    /// Panics if `dout` presence does not match the stage's position, or
    /// if `tape` holds no forward of this stage.
    pub fn backward_with(
        &mut self,
        tape: &mut Tape,
        dout: Option<Matrix>,
        batch: &PreTrainingBatch,
    ) -> Option<Matrix> {
        let mut d = match (&mut self.head, dout) {
            (Some(head), None) => head.backward(batch, tape),
            (None, Some(d)) => d,
            (Some(_), Some(_)) => panic!("BertStage::backward: head stage got a gradient"),
            (None, None) => panic!("BertStage::backward: non-head stage needs a gradient"),
        };
        for block in self.blocks.iter_mut().rev() {
            d = block.backward(&d, tape);
        }
        match &mut self.embedding {
            Some(emb) => {
                emb.backward(&d, &batch.token_ids, &batch.segment_ids, tape);
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
            ..
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
                    tape: Tape::default(),
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
        let head = mono.stage.head.as_ref().unwrap();
        assert!(head.nsp_classifier.kfac_stats().errors.is_none());
        let decoder = &head.mlm_decoder;
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

    /// The head's forward and backward equal its layers' own `Layer`
    /// passes, one tape per branch: losses, the hidden-state gradient and
    /// every head parameter's gradient, bitwise.
    #[test]
    fn head_matches_its_layers_passes_bitwise() {
        let (seq, d, vocab) = (8, 16, 20);
        let batch = toy_batch(seq, 3, vocab);
        let mut rng = StdRng::seed_from_u64(81);
        let mut head = PreTrainingHead::new(d, vocab, &mut rng);
        // Non-zero biases, so each activation runs after its bias add.
        for lin in [&mut head.mlm_transform, &mut head.nsp_pooler] {
            lin.bias_mut().value = init::normal(1, d, 1.0, &mut rng);
        }
        let mut split = head.clone();
        let hidden = init::normal(3 * seq, d, 1.0, &mut rng);
        let mut tape = Tape::new(ForwardCtx::train_with_capture().with_seq_len(seq));
        let out = head.forward(hidden.clone(), &batch, &mut tape);
        let dhidden = head.backward(&batch, &mut tape);

        let h = &mut split;
        let (mut mlm_tape, mut nsp_tape) = (Tape::default(), Tape::default());
        let t = h.mlm_transform.forward(hidden.clone(), &mut mlm_tape);
        let t = h.mlm_act.forward(t, &mut mlm_tape);
        let t = h.mlm_ln.forward(t, &mut mlm_tape);
        let mlm_logits = h.mlm_decoder.forward(t, &mut mlm_tape);
        let first = Matrix::from_vec(
            3,
            d,
            (0..3).flat_map(|b| hidden.row(b * seq).to_vec()).collect(),
        );
        let p = h.nsp_pooler.forward(first, &mut nsp_tape);
        let p = h.nsp_act.forward(p, &mut nsp_tape);
        let nsp_logits = h.nsp_classifier.forward(p, &mut nsp_tape);
        let mlm = cross_entropy_loss(&mlm_logits, &batch.mlm_targets).loss;
        let nsp = cross_entropy_loss(&nsp_logits, &batch.nsp_targets).loss;
        let losses = [out.mlm_loss, out.nsp_loss, out.total_loss].map(f64::to_bits);
        assert_eq!(losses, [mlm, nsp, mlm + nsp].map(f64::to_bits));

        let dt = cross_entropy_backward(&mlm_logits, &batch.mlm_targets);
        let dt = h.mlm_decoder.backward(&dt, &mut mlm_tape);
        let dt = h.mlm_ln.backward(&dt, &mut mlm_tape);
        let dt = h.mlm_act.backward(&dt, &mut mlm_tape);
        let mut want = h.mlm_transform.backward(&dt, &mut mlm_tape);
        let dp = cross_entropy_backward(&nsp_logits, &batch.nsp_targets);
        let dp = h.nsp_classifier.backward(&dp, &mut nsp_tape);
        let dp = h.nsp_act.backward(&dp, &mut nsp_tape);
        let dfirst = h.nsp_pooler.backward(&dp, &mut nsp_tape);
        for b in 0..3 {
            let dst = want.row_mut(b * seq);
            for (d, &g) in dst.iter_mut().zip(dfirst.row(b)) {
                *d += g;
            }
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dhidden), bits(&want), "dhidden");
        let mut grads = Vec::new();
        split.visit_params(&mut |p| grads.push(bits(&p.grad)));
        let mut i = 0;
        head.visit_params(&mut |p| {
            assert_eq!(bits(&p.grad), grads[i], "{}", p.name);
            i += 1;
        });
        assert_eq!(i, 10);
    }

    /// Two micro-batches in flight on one stage, each on its own tape:
    /// F(a, plain), F(b, capture), B(a), B(b). B(a) records no errors, and
    /// the gradients, `dx` and K-FAC statistics of each equal a run of that
    /// micro-batch alone, bit for bit.
    #[test]
    fn two_tapes_in_flight_match_one_at_a_time_bitwise() {
        let config = BertConfig::tiny(20, 8);
        let staged = StagedBert::from_model(model(82, config), 2);
        let (a, b) = (toy_batch(8, 2, 20), toy_batch(8, 3, 20));
        let input = |seed| {
            Some(init::normal(
                8 * seed as usize,
                32,
                1.0,
                &mut StdRng::seed_from_u64(seed),
            ))
        };
        let (plain, capture) = (ForwardCtx::train(), ForwardCtx::train_with_capture());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Gradient bits and the K-FAC statistics of every linear.
        type Stats = Vec<(Option<Vec<u64>>, Option<Vec<u64>>)>;
        let state = |s: &mut BertStage| -> (Vec<Vec<u64>>, Stats) {
            let mut grads = Vec::new();
            s.visit_params(&mut |p| grads.push(bits(&p.grad)));
            let mut stats = Vec::new();
            s.visit_linears(&mut |l| {
                let st = l.kfac_stats();
                stats.push((
                    st.activations.as_ref().map(bits),
                    st.errors.as_ref().map(bits),
                ));
            });
            (grads, stats)
        };
        // Stage 1 (with the head) takes boundary activations and returns
        // dx; each micro-batch's gradient is swapped out after its backward.
        let mut both = staged.stage(1).clone();
        let (mut ta, mut tb) = (Tape::default(), Tape::default());
        both.forward_with(&mut ta, input(2), &a, &plain);
        both.forward_with(&mut tb, input(3), &b, &capture);
        let dxa = both.backward_with(&mut ta, None, &a).unwrap();
        let after_a = state(&mut both);
        assert!(
            after_a.1.iter().all(|(_, errors)| errors.is_none()),
            "the plain backward recorded errors"
        );
        both.visit_params(&mut |p| p.grad.as_mut_slice().fill(0.0));
        let dxb = both.backward_with(&mut tb, None, &b).unwrap();
        let after_b = state(&mut both);

        let mut alone = staged.stage(1).clone();
        alone.forward(input(2), &a, &plain);
        assert_eq!(
            bits(&alone.backward(None, &a).unwrap()),
            bits(&dxa),
            "dx of a"
        );
        assert_eq!(state(&mut alone).0, after_a.0, "gradients of a");
        let mut alone = staged.stage(1).clone();
        alone.forward(input(3), &b, &capture);
        assert_eq!(
            bits(&alone.backward(None, &b).unwrap()),
            bits(&dxb),
            "dx of b"
        );
        assert_eq!(state(&mut alone), after_b, "gradients and statistics of b");
        assert!(after_b.1.iter().all(|(a, e)| a.is_some() && e.is_some()));
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
