//! Pipeline-parallel schedules: GPipe, 1F1B, and Chimera.
//!
//! A schedule is a [`TaskGraph`]: the set of forward/backward work units of
//! one synchronous pipeline step (one mini-batch, `N_micro` micro-batches
//! over `D` stages), with
//!
//! * explicit **dependencies** (a stage's forward needs the previous stage's
//!   forward for the same micro-batch; a backward needs the next stage's
//!   backward and the same-stage forward), and
//! * a per-device **execution order** (devices run their queue in order,
//!   starting each task once its dependencies finish — exactly how the
//!   discrete-event simulator in `pipefisher-sim` plays it).
//!
//! Every builder describes its schedule as per-device *streams* (the in-order
//! ops of one hosted stage) and goes through one private constructor that
//! merges them and wires the dependencies. Three builders match the paper's
//! Figure 1/3/4 setups:
//!
//! * [`build_gpipe`] — all forwards, then all backwards (reverse order).
//! * [`build_1f1b`] — PipeDream-flush: warmup forwards, steady
//!   one-forward-one-backward, cooldown backwards.
//! * [`build_chimera`] — two bidirectional pipelines (Li & Hoefler 2021);
//!   each device owns one *down*-pipeline stage and one *up*-pipeline stage,
//!   halving the bubble count (`C_f = D`, `C_b = 2D − 2` on the critical
//!   path for `N_micro = D`, Table 1 of the paper).
//!
//! # Example
//!
//! ```
//! use pipefisher_pipeline::{build_gpipe, WorkKind};
//!
//! let g = build_gpipe(4, 4);
//! assert_eq!(g.n_devices(), 4);
//! // 4 stages × 4 micro-batches, forward + backward each:
//! assert_eq!(g.tasks().len(), 32);
//! assert!(g.validate().is_ok());
//! ```

mod asynchronous;
mod builders;
mod graph;
mod interleaved;
mod recompute;
mod work;

pub use asynchronous::{async_staleness, build_async_1f1b, is_flush_free};
pub use builders::{build_1f1b, build_chimera, build_gpipe, PipelineScheme};
pub use graph::{ScheduleError, TaskGraph};
pub use interleaved::build_interleaved_1f1b;
pub use recompute::with_recompute;
pub use work::{Factor, Task, TaskId, WorkKind};
