//! Neural-network substrate with manual backprop and K-FAC hooks.
//!
//! This crate implements the model zoo the PipeFisher paper trains —
//! BERT-style transformer encoders with masked-language-modeling and
//! next-sentence-prediction heads — entirely in Rust with hand-written
//! forward/backward passes (no autograd framework).
//!
//! The key feature beyond plain backprop is **K-FAC capture**: every
//! [`Linear`] layer can record, per token, the input activations `a_l`
//! (during forward) and the output-gradient error signals `e_l` (during
//! backward). Those are exactly the statistics K-FAC's *curvature* work
//! consumes to build the Kronecker factors `A_l = ⟨a_l a_lᵀ⟩` and
//! `B_l = ⟨e_l e_lᵀ⟩` (paper §2.3.1).
//!
//! Layout convention: token-major 2-D matrices. A batch of `B` sequences of
//! length `S` with hidden size `d` is a `(B·S) × d` [`Matrix`]; K-FAC then
//! treats every token position as an example, which is the standard choice
//! for transformer linear layers.
//!
//! # Example
//!
//! ```
//! use pipefisher_nn::{Linear, Layer, ForwardCtx};
//! use pipefisher_tensor::Matrix;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut layer = Linear::new("proj", 4, 2, &mut rng);
//! let x = Matrix::zeros(3, 4);
//! let y = layer.forward(&x, &ForwardCtx::train());
//! assert_eq!(y.shape(), (3, 2));
//! ```

mod activation;
mod attention;
mod bert;
mod block;
mod embedding;
mod feedforward;
pub mod gradcheck;
mod layernorm;
mod linear;
mod loss;
mod param;
mod snapshot;
mod stage;

pub use activation::{Activation, ActivationKind};
pub use attention::MultiHeadAttention;
pub use bert::{BertConfig, BertForPreTraining, PreTrainingBatch, PreTrainingOutput};
pub use block::TransformerBlock;
pub use embedding::Embedding;
pub use feedforward::FeedForward;
pub use layernorm::LayerNorm;
pub use linear::{KfacBatchStats, Linear};
pub use loss::{cross_entropy_backward, cross_entropy_loss, CrossEntropyResult, IGNORE_INDEX};
pub use param::{ParamVisitor, Parameter};
pub use snapshot::{export_params_with, import_params_with};
pub use stage::{BertStage, PreTrainingHead, StageOutput, StagedBert};

use pipefisher_tensor::Matrix;

/// Per-forward-pass context shared by all layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardCtx {
    /// Whether linear layers should capture K-FAC statistics this pass.
    pub capture_kfac: bool,
    /// Sequence length of the token-major input. `0` means "all rows form a
    /// single sequence". Attention layers need this to recover the
    /// `(batch, seq)` structure from the flattened `(batch·seq, d)` matrix.
    pub seq_len: usize,
}

impl ForwardCtx {
    /// A forward without K-FAC capture.
    pub fn train() -> Self {
        ForwardCtx {
            capture_kfac: false,
            seq_len: 0,
        }
    }

    /// A forward with K-FAC capture enabled.
    pub fn train_with_capture() -> Self {
        ForwardCtx {
            capture_kfac: true,
            seq_len: 0,
        }
    }

    /// Returns the context with the given sequence length.
    pub fn with_seq_len(mut self, seq_len: usize) -> Self {
        self.seq_len = seq_len;
        self
    }

    /// Effective sequence length for an input with `rows` token rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not a multiple of the configured sequence length.
    pub fn effective_seq_len(&self, rows: usize) -> usize {
        let s = if self.seq_len == 0 {
            rows
        } else {
            self.seq_len
        };
        assert!(
            s > 0 && rows.is_multiple_of(s),
            "rows ({rows}) not a multiple of seq_len ({s})"
        );
        s
    }
}

/// A differentiable layer with cached state between forward and backward.
///
/// Layers are stateful: `forward` caches whatever the matching `backward`
/// needs (inputs, masks, softmax probabilities), and `backward` consumes that
/// cache, accumulates parameter gradients, and returns the gradient with
/// respect to the layer input.
pub trait Layer {
    /// Runs the layer on `x` (token-major), caching state for backward.
    fn forward(&mut self, x: &Matrix, ctx: &ForwardCtx) -> Matrix;

    /// Backpropagates `dout` (gradient w.r.t. the forward output), returning
    /// the gradient w.r.t. the forward input and accumulating parameter
    /// gradients.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, dout: &Matrix) -> Matrix;

    /// Visits every trainable parameter.
    fn visit_params(&mut self, f: ParamVisitor<'_>);

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p: &mut Parameter| p.grad.scale_inplace(0.0));
    }

    /// Total number of trainable scalar parameters.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p: &mut Parameter| n += p.value.len());
        n
    }
}
