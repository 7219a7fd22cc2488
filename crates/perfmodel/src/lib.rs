//! The paper's §3.3 performance model, rebuilt analytically.
//!
//! The original measures CUDA kernel times on P100/V100/RTX3090 GPUs with
//! micro-benchmarks; this reproduction replaces the measurements with a
//! roofline-style analytic model:
//!
//! * [`HardwareProfile`] — peak FLOP/s, memory bandwidth, and efficiency
//!   factors per op class for the three GPUs the paper uses,
//! * [`TransformerConfig`] — the six architectures of Table 3 (BERT-Base/
//!   Large, T5-Base/Large, OPT-125M/350M) with their `d_model`, `d_ff`,
//!   heads, and sequence lengths,
//! * [`flops`] — exact FLOP and byte counts for every work type (forward,
//!   backward, recompute, curvature, inversion, precondition) of a
//!   transformer block,
//! * [`Setting`] — one paper setting (architecture × GPU × scheme × `D` ×
//!   `N_micro` × `B_micro` × blocks per stage × `W` × recompute) and what
//!   it derives: per-stage durations ([`pipefisher_sim::KindCost`], with
//!   the setting's sync-grad / sync-curv collectives) and the pipeline
//!   schedule; the paper's Figure 3/4/6 settings are presets,
//! * [`model_step`] → [`StepModel`] — the closed-form step model (of a
//!   setting with its own costs: [`Setting::step_model`]):
//!   `T_pipe = C_f·T_f + C_b·T_b`,
//!   `T_bubble = T_pipe − N_micro·(T_f + T_b)`,
//!   `T_kfac⁺ = N_micro·T_curv + T_inv + T_prec`, the
//!   (curvature+inversion)/bubble ratio that Figures 5 and 8–15 plot, with
//!   each device charged the K-FAC work the bubble assignment places on it
//!   ([`pipefisher_sim::KfacShare`]), and device memory from Table 1's
//!   terms (`M_θ`, `M_act`, `M_err^peak`, `M_err^save`, `M_curv = M_inv`).
//!
//! The substitution preserves the paper's conclusions because every claim in
//! those figures is about *relative* durations (what fits into a bubble),
//! which the FLOP-level model reproduces; see DESIGN.md §2.
//!
//! # Example
//!
//! ```
//! use pipefisher_perfmodel::Setting;
//! use pipefisher_pipeline::PipelineScheme;
//!
//! // Figure 3: BERT-Base, GPipe, D = 4, 3 blocks/stage, B_micro = 32, P100.
//! let setting = Setting::fig3(PipelineScheme::GPipe, 1);
//! let m = setting.step_model();
//! assert!(m.t_bubble > 0.0 && m.t_step_pipefisher > m.t_step_baseline);
//! // One curvature refresh fits in the bubbles of about two steps.
//! assert!((1.0..3.0).contains(&m.ratio));
//! ```

mod arch;
pub mod flops;
mod hardware;
mod setting;
mod stepmodel;

pub use arch::TransformerConfig;
pub use hardware::HardwareProfile;
pub use setting::Setting;
pub use stepmodel::{model_step, StepModel};
