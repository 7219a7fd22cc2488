//! Profiling and tracing subsystem — the reproduction's stand-in for the
//! paper's NVIDIA Nsight workflow.
//!
//! PipeFisher's automatic work assignment starts from a *profile* of one
//! pipeline step (paper Fig. 3): the authors inspect Nsight timelines to
//! find bubbles and measure K-FAC kernel costs. This crate provides the
//! equivalent observability layer for the Rust reproduction:
//!
//! * [`TraceSink`]-style span/counter recording ([`span`], [`counter`],
//!   [`drain`]) with per-thread buffers and a single relaxed atomic load of
//!   overhead when tracing is disabled (the default),
//! * the Chrome/Perfetto `trace_event` JSON model ([`TraceEvent`],
//!   [`chrome_trace_json`]) that both *simulated* timelines
//!   (`pipefisher_sim::Timeline::chrome_trace_events`) and *measured*
//!   wall-clock spans (the `pipefisher-lm` trainer, the `pipefisher-tensor`
//!   worker pool) export to, so the two can be loaded side by side in
//!   `ui.perfetto.dev` or `chrome://tracing`.
//!
//! The exported JSON is the "JSON Object Format": a top-level object with a
//! `traceEvents` array of `X` (complete slice), `C` (counter), and `M`
//! (metadata) events, timestamps in microseconds.

mod alloc;
mod chrome;
mod sink;

pub use alloc::{alloc_counting_enabled, alloc_live_bytes, alloc_snapshot, AllocSnapshot};
pub use chrome::{chrome_trace_json, Phase, TraceEvent};
pub use sink::{counter, drain, enabled, set_enabled, span, span_with, Span};
