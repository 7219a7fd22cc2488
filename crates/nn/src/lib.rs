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
//! A layer keeps only its parameters, their gradients and those K-FAC
//! statistics. What a backward needs from its forward goes onto a [`Tape`]
//! the caller owns, one per micro-batch in flight, so one model can carry
//! several micro-batches between their forwards and backwards.
//!
//! Layout convention: token-major 2-D matrices. A batch of `B` sequences of
//! length `S` with hidden size `d` is a `(B·S) × d` [`Matrix`]; K-FAC then
//! treats every token position as an example, which is the standard choice
//! for transformer linear layers.
//!
//! # Example
//!
//! ```
//! use pipefisher_nn::{ForwardCtx, Layer, Linear, Tape};
//! use pipefisher_tensor::Matrix;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut layer = Linear::new("proj", 4, 2, &mut rng);
//! let mut tape = Tape::new(ForwardCtx::train());
//! let y = layer.forward(Matrix::zeros(3, 4), &mut tape);
//! assert_eq!(y.shape(), (3, 2));
//! let dx = layer.backward(&Matrix::zeros(3, 2), &mut tape);
//! assert_eq!(dx.shape(), (3, 4));
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// What one micro-batch's forward leaves for its backward.
///
/// Layers keep only parameters, gradients and K-FAC statistics; everything
/// else a backward needs from its forward (inputs, normalised rows,
/// activation derivatives, attention probabilities, logits) is pushed here
/// by the forward and popped, in reverse, by the backward. The caller owns
/// the tape, so a model can hold one per micro-batch in flight.
///
/// The tape also carries its pass's [`ForwardCtx`]. The capture flag is
/// read from it by the backward, so a capturing micro-batch's backward
/// records errors and a plain one's does not, whatever ran in between.
#[derive(Debug, Clone, Default)]
pub struct Tape {
    ctx: ForwardCtx,
    saved: Vec<Matrix>,
}

impl Tape {
    /// An empty tape for a pass under `ctx`.
    pub fn new(ctx: ForwardCtx) -> Self {
        Tape {
            ctx,
            saved: Vec::new(),
        }
    }

    /// The pass's context.
    pub fn ctx(&self) -> &ForwardCtx {
        &self.ctx
    }

    /// Starts a new pass under `ctx`, dropping whatever a forward left
    /// without a backward; the stack keeps its capacity.
    pub(crate) fn begin(&mut self, ctx: ForwardCtx) {
        self.saved.clear();
        self.ctx = ctx;
    }

    /// Pushes `ms` in order.
    pub(crate) fn save<const N: usize>(&mut self, ms: [Matrix; N]) {
        self.saved.extend(ms);
    }

    /// Pops what one [`Tape::save`] of `N` matrices pushed, in push order.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `N` are on the tape: a backward without its
    /// forward.
    pub(crate) fn restore<const N: usize>(&mut self) -> [Matrix; N] {
        let at = self
            .saved
            .len()
            .checked_sub(N)
            .expect("backward before its forward");
        let mut ms = self.saved.drain(at..);
        std::array::from_fn(|_| ms.next().expect("N entries"))
    }
}

/// A differentiable layer whose forward state lives on a [`Tape`].
///
/// `forward` takes its input by value, so an input the backward needs
/// moves onto the tape instead of being copied; `backward` pops what its
/// forward pushed, accumulates parameter gradients, and returns the
/// gradient with respect to the layer input. Forwards and backwards on one
/// tape nest: the last layer forwarded is the first backpropagated.
pub trait Layer {
    /// Runs the layer on `x` (token-major), pushing onto `tape` what the
    /// backward needs.
    fn forward(&mut self, x: Matrix, tape: &mut Tape) -> Matrix;

    /// Backpropagates `dout` (gradient w.r.t. the forward output), returning
    /// the gradient w.r.t. the forward input and accumulating parameter
    /// gradients.
    ///
    /// # Panics
    ///
    /// Panics if `tape` does not end with this layer's forward.
    fn backward(&mut self, dout: &Matrix, tape: &mut Tape) -> Matrix;

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
