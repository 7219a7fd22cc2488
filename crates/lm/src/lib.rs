//! Language-modeling workloads and the pretraining loop.
//!
//! The paper pretrains BERT on 14 GB of English Wikipedia; this reproduction
//! substitutes a **synthetic language** with learnable structure (a
//! per-topic Markov bigram over clustered vocabularies) so the convergence
//! comparison — K-FAC reaches the first-order baseline's final loss in a
//! fraction of its steps — can run on CPU at tiny-BERT scale. See DESIGN.md
//! §2 for why this substitution preserves the claim being tested.
//!
//! * [`SyntheticLanguage`] — corpus generator with masked-LM and
//!   next-sentence-prediction learnability,
//! * [`BatchSampler`] — BERT-style batch maker (`[CLS]`/`[SEP]` framing, 15 %
//!   masking with the 80/10/10 rule, 50 % random NSP pairs),
//! * [`Trainer`] / [`TrainRun`] — the optimizer-agnostic pretraining loop:
//!   one step driver over an inline or a staged-threads
//!   ([`Trainer::run_pipelined`]) execution engine, with loss histories,
//!   smoothing, and steps-to-target-loss extraction (the quantities Figure 6
//!   plots),
//! * [`StepMetrics`] / [`to_jsonl`] — per-step metrics rows (loss, gradient
//!   norm, per-phase wall-clock, K-FAC refresh counters) with JSON Lines
//!   export.

mod checkpoint;
mod corpus;
mod data;
mod metrics;
mod pipeline;
mod trainer;

pub use checkpoint::{
    resolve_resume, CheckpointOptions, CheckpointPolicy, ResumeFrom, TrainCheckpoint,
};
pub use corpus::SyntheticLanguage;
pub use data::{special_tokens, BatchSampler};
pub use metrics::{to_jsonl, StepMetrics};
pub use pipeline::{
    plan_for, ChaosHook, ExecError, ExecFault, PipelineOptions, PipelineOutcome, StepFault,
};
pub use trainer::{OptimizerChoice, TrainOptions, TrainRun, Trainer};
