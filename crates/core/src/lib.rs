//! PipeFisher: automatic assignment of K-FAC work to pipeline bubbles.
//!
//! This crate implements the paper's core contribution (§3.1–3.2): given
//! *any* synchronous pipeline schedule (GPipe, 1F1B, Chimera) and profiled
//! durations of the K-FAC work units, produce a **static schedule** that
//! packs the curvature and inversion work into the pipeline's bubbles across
//! one or more steps, with precondition appended at each step's end as the
//! only per-step overhead.
//!
//! The assignment follows the paper's rules:
//!
//! 1. Curvature work for `A_l` (resp. `B_l`) of a micro-batch is released by
//!    the corresponding forward (resp. backward) on the same device.
//! 2. Inversion work for a factor is released once the curvature work for
//!    that factor has finished for **all** micro-batches (after the
//!    cross-replica `sync-curvature` when data parallelism is on).
//! 3. Precondition runs after all backwards of the stage (and the gradient
//!    allreduce), before the next step begins.
//!
//! Work is drawn from a queue and placed into the earliest bubble large
//! enough to hold it; when no bubble of the current step fits, bubbles of
//! subsequent steps are used (the paper's multi-step refresh — e.g. 2 steps
//! in Figure 3, 2–4 steps in Figure 4).
//!
//! The schedule is read off the task graph: which pass releases `A`
//! curvature (a `Recompute` task, if the graph has any) and which devices
//! host each stage (Chimera's two hosts split inversion).
//!
//! # Example
//!
//! ```
//! use pipefisher_core::{assign, AssignOptions, FitStrategy};
//! use pipefisher_pipeline::PipelineScheme;
//! use pipefisher_sim::KindCost;
//!
//! let mut costs = KindCost::standard(1.0, 2.0);
//! costs.t_curv_a = 0.4;
//! costs.t_curv_b = 0.4;
//! costs.t_inv_a = 0.5;
//! costs.t_inv_b = 0.5;
//! costs.t_prec = 0.2;
//! let opts = AssignOptions { fit: FitStrategy::FirstFit, w: 1, granularity: 1 };
//! let schedule = assign(&PipelineScheme::GPipe.build(4, 4), &costs, &opts).unwrap();
//! assert!(schedule.utilization > schedule.utilization_baseline);
//! assert!(schedule.refresh_steps >= 1);
//! ```

mod assign;
mod plan;

pub use assign::{assign, AssignError, AssignOptions, FitStrategy, PipeFisherSchedule, PlacedWork};
pub use plan::{capture_micro_batch, AuxKind, AuxOp, DevicePlan, ExecutablePlan, PlanOp};
