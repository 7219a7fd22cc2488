//! # PipeFisher (Rust reproduction)
//!
//! Umbrella crate re-exporting every subsystem of the PipeFisher
//! reproduction (MLSYS 2023: "PipeFisher: Efficient Training of Large
//! Language Models Using Pipelining and Fisher Information Matrices").
//!
//! * [`tensor`] — dense linear algebra (GEMM, Cholesky, softmax).
//! * [`nn`] — transformer layers with manual backprop and K-FAC capture;
//!   one model body (`BertStage`), monolithic or split into pipeline stages.
//! * [`optim`] — the paper's two optimizers, NVLAMB and K-FAC over NVLAMB;
//!   K-FAC's curvature and inversion work units are functions every
//!   execution shares.
//! * [`pipeline`] — GPipe, 1F1B, and Chimera schedule builders.
//! * [`sim`] — discrete-event cluster simulator and timeline profiler.
//! * [`trace`] — profiling spans and Chrome/Perfetto trace export.
//! * [`perfmodel`] — the paper's §3.3 analytic performance model.
//! * [`core`] — PipeFisher's automatic bubble work assignment.
//! * [`lm`] — synthetic language-modeling workloads and the training loop
//!   (inline, or on pipeline-stage threads with K-FAC work in the bubbles).
//! * [`ckpt`] — versioned, checksummed training checkpoints with atomic
//!   persistence and bitwise-deterministic resume.
//! * [`harness`] — seeded chaos fabric + executor conformance checker.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the full system
//! inventory mapping each paper table/figure to a module and binary.

pub use pipefisher_ckpt as ckpt;
pub use pipefisher_core as core;
pub use pipefisher_harness as harness;
pub use pipefisher_lm as lm;
pub use pipefisher_nn as nn;
pub use pipefisher_optim as optim;
pub use pipefisher_perfmodel as perfmodel;
pub use pipefisher_pipeline as pipeline;
pub use pipefisher_sim as sim;
pub use pipefisher_tensor as tensor;
pub use pipefisher_trace as trace;

/// Compiles and runs the Rust snippets of `README.md` as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
