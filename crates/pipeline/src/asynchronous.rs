//! Asynchronous (no-flush) pipelines — Appendix C.1 of the paper.
//!
//! A synchronous pipeline flushes at every optimization step, creating the
//! bubbles PipeFisher fills. *Asynchronous* schemes (PipeDream,
//! PipeDream-2BW) never flush: micro-batches stream continuously, bubbles
//! vanish, but each stage computes gradients with weights that are up to
//! `D` steps old. The paper frames this as the *other* bubble-filling
//! strategy — fill with stale *gradient* work instead of curvature work —
//! and trades freshness the opposite way.

use crate::{build_1f1b, TaskGraph, WorkKind};

/// Builds a no-flush (asynchronous) 1F1B schedule covering `horizon_steps`
/// optimization steps of `n_micro` micro-batches each, as one continuous
/// micro-batch stream.
///
/// With no flush between steps the steady-state bubble fraction tends to
/// zero as the horizon grows: only the initial fill and final drain idle
/// the devices.
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn build_async_1f1b(n_stages: usize, n_micro: usize, horizon_steps: usize) -> TaskGraph {
    assert!(
        n_stages > 0 && n_micro > 0 && horizon_steps > 0,
        "build_async_1f1b: empty pipeline"
    );
    // A continuous stream IS 1F1B over the total micro-batch count: the
    // flush is precisely the per-step drain that the stream omits.
    let mut g = build_1f1b(n_stages, n_micro * horizon_steps);
    g.rename("async-1f1b");
    g
}

/// The weight-version staleness at `stage` in an asynchronous 1F1B
/// pipeline, in optimizer steps: stage `s` of `D` applies gradients
/// computed with weights `D − s` versions old (PipeDream's weight
/// stashing), so the *first* stage sees the largest delay.
///
/// # Panics
///
/// Panics if `stage >= n_stages`.
pub fn async_staleness(n_stages: usize, stage: usize) -> usize {
    assert!(stage < n_stages, "async_staleness: stage out of range");
    n_stages - stage
}

/// Verifies the stream has no cross-step flush: within one device's queue,
/// a later micro-batch's forward may precede an earlier micro-batch's
/// backward (the interleave a flush would forbid).
pub fn is_flush_free(graph: &TaskGraph, n_micro_per_step: usize) -> bool {
    for order in graph.device_order() {
        let mut seen_forward_of_next_step = false;
        let mut pending_backwards_prev_step = false;
        for &id in order {
            let t = graph.task(id);
            let Some(mb) = t.micro_batch else { continue };
            let step = mb / n_micro_per_step;
            match t.kind {
                WorkKind::Forward if step > 0 => seen_forward_of_next_step = true,
                WorkKind::Backward if step == 0 && seen_forward_of_next_step => {
                    pending_backwards_prev_step = true;
                }
                _ => {}
            }
        }
        if pending_backwards_prev_step {
            return true; // overlap found on this device — no flush
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_graph_validates() {
        for d in [2, 4, 8] {
            let g = build_async_1f1b(d, d, 4);
            g.validate().unwrap();
            assert_eq!(g.scheme_name(), "async-1f1b");
            let forwards = g.tasks().iter().filter(|t| t.kind == WorkKind::Forward);
            assert_eq!(forwards.count(), d * d * 4);
        }
    }

    #[test]
    fn no_flush_between_steps() {
        let g = build_async_1f1b(4, 4, 3);
        assert!(
            is_flush_free(&g, 4),
            "async schedule should interleave steps"
        );
        // A synchronous 1F1B of one step trivially has no cross-step overlap.
        let sync = build_1f1b(4, 4);
        assert!(!is_flush_free(&sync, 4));
    }

    #[test]
    fn bubble_fraction_vanishes_with_horizon() {
        let d = 4;
        let cost = |t: &crate::Task| match t.kind {
            WorkKind::Forward => 1.0,
            _ => 2.0,
        };
        let short = build_async_1f1b(d, d, 1);
        let long = build_async_1f1b(d, d, 16);
        let util = |g: &TaskGraph| {
            let times = g.nominal_times(cost).unwrap();
            let span = times.iter().map(|&(_, e)| e).fold(0.0f64, f64::max);
            let busy: f64 = times.iter().map(|&(s, e)| e - s).sum();
            busy / (span * d as f64)
        };
        let u_short = util(&short);
        let u_long = util(&long);
        assert!(u_long > u_short);
        assert!(u_long > 0.9, "long-horizon async utilization {u_long}");
    }

    #[test]
    fn staleness_is_largest_at_first_stage() {
        assert_eq!(async_staleness(4, 0), 4);
        assert_eq!(async_staleness(4, 3), 1);
    }
}
