//! Discrete-event cluster simulator and timeline profiler.
//!
//! This crate is the reproduction's stand-in for the paper's GPU cluster +
//! NVIDIA Nsight profiling: it plays a [`pipefisher_pipeline::TaskGraph`] on
//! virtual devices (each device executes its queue in order, starting a task
//! once its dependencies complete) and produces a [`Timeline`] — per-device
//! busy intervals tagged by work kind — from which we compute the paper's
//! headline metric, **GPU utilization** (the fraction of time some kernel is
//! executing, Appendix B.4), plus bubble intervals, and render ASCII timelines analogous to Figures 1, 3, and 4.
//!
//! Durations come from a [`CostModel`]; the calibrated analytic models live
//! in `pipefisher-perfmodel`.
//!
//! # Example
//!
//! ```
//! use pipefisher_pipeline::build_gpipe;
//! use pipefisher_sim::{simulate, KindCost};
//!
//! let graph = build_gpipe(4, 4);
//! let timeline = simulate(&graph, &KindCost::standard(1.0, 2.0)).unwrap();
//! // GPipe with D = N = 4 and T_b = 2·T_f: utilization = N/(N+D−1).
//! assert!((timeline.utilization() - 4.0 / 7.0).abs() < 1e-9);
//! ```

mod chrome;
mod collective;
mod cost;
mod engine;
mod share;
mod timeline;

pub use chrome::SIM_PID;
pub use collective::ring_allreduce_time;
pub use cost::{CostModel, KindCost};
pub use engine::simulate;
pub use share::KfacShare;
pub use timeline::{Interval, Timeline};
