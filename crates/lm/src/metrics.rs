//! Per-step training metrics — the reproduction's structured alternative to
//! eyeballing the loss curve.
//!
//! Each optimizer step of a [`crate::Trainer`] run appends one
//! [`StepMetrics`] row (loss, gradient norm, per-phase wall-clock
//! milliseconds, K-FAC refresh counters) to the returned
//! [`crate::TrainRun`]; [`to_jsonl`] serializes the rows as JSON Lines for
//! external analysis (`pipefisher train --metrics-out metrics.jsonl`).

use serde_json::{json, Value};

/// One optimizer step's recorded metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct StepMetrics {
    /// Step index (0-based, strictly increasing within a run).
    pub step: usize,
    /// Total pretraining loss (MLM + NSP; micro-batch mean when
    /// accumulating).
    pub loss: f64,
    /// Global L2 norm of the gradient the optimizer consumed.
    pub grad_norm: f64,
    /// Learning rate applied this step.
    pub lr: f64,
    /// Wall-clock milliseconds spent sampling batches.
    pub data_ms: f64,
    /// Wall-clock milliseconds spent in forward + backward passes.
    pub forward_backward_ms: f64,
    /// Wall-clock milliseconds the training loop spends applying the
    /// update. On the pipeline executor that is only the coordinator's
    /// part — summing the owners' products and sending the update — while
    /// each owner's precondition counts in `forward_backward_ms` and its
    /// update overlaps the next step's sampling.
    pub optimizer_ms: f64,
    /// Whether this step refreshed K-FAC curvature statistics.
    pub curvature_refreshed: bool,
    /// K-FAC curvature refreshes from this run's first step up to and
    /// including this one (a resumed run counts from where it resumed).
    pub curvature_refreshes: u64,
    /// K-FAC factor inversions over the same span as `curvature_refreshes`.
    pub inversions: u64,
    /// Cumulative factor inversions that failed at the configured damping
    /// and were retried with the escalated one, over all layers (counted
    /// since this process created or restored the optimizer; 0 without
    /// K-FAC, and on a healthy run).
    pub damping_escalations: u64,
    /// Cumulative layer refreshes that failed even after escalation and
    /// kept their stale inverses (same scope as `damping_escalations`).
    pub inversion_failures: u64,
    /// Heap allocation calls during this step. Always `0` unless the binary
    /// was built with the `alloc-count` feature (which installs the counting
    /// allocator from `pipefisher-trace`).
    pub allocs: u64,
    /// Bytes requested by those allocation calls (`0` without `alloc-count`).
    pub alloc_bytes: u64,
    /// Wall-clock milliseconds spent writing a checkpoint at the end of
    /// this step (`0.0` on steps that did not checkpoint, and in runs
    /// without checkpointing).
    pub ckpt_write_ms: f64,
}

impl StepMetrics {
    /// This row as a JSON object (insertion-ordered keys).
    pub fn to_json(&self) -> Value {
        json!({
            "step": self.step,
            "loss": self.loss,
            "grad_norm": self.grad_norm,
            "lr": self.lr,
            "data_ms": self.data_ms,
            "forward_backward_ms": self.forward_backward_ms,
            "optimizer_ms": self.optimizer_ms,
            "curvature_refreshed": self.curvature_refreshed,
            "curvature_refreshes": self.curvature_refreshes,
            "inversions": self.inversions,
            "damping_escalations": self.damping_escalations,
            "inversion_failures": self.inversion_failures,
            "allocs": self.allocs,
            "alloc_bytes": self.alloc_bytes,
            "ckpt_write_ms": self.ckpt_write_ms,
        })
    }
}

/// Serializes rows as JSON Lines (one compact object per line, trailing
/// newline; empty input produces an empty string).
pub fn to_jsonl(rows: &[StepMetrics]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&serde_json::to_string(&row.to_json()).expect("json"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(step: usize) -> StepMetrics {
        StepMetrics {
            step,
            loss: 2.5,
            grad_norm: 1.0,
            lr: 1e-3,
            data_ms: 0.1,
            forward_backward_ms: 3.0,
            optimizer_ms: 0.5,
            curvature_refreshed: step == 0,
            curvature_refreshes: 1,
            inversions: 1,
            damping_escalations: 0,
            inversion_failures: 0,
            allocs: 0,
            alloc_bytes: 0,
            ckpt_write_ms: 0.0,
        }
    }

    #[test]
    fn jsonl_is_one_parsable_object_per_line() {
        let rows = vec![row(0), row(1)];
        let jsonl = to_jsonl(&rows);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let v = serde_json::from_str(line).unwrap();
            assert_eq!(v.get("step").unwrap().as_i64(), Some(i as i64));
            assert_eq!(v.get("loss").unwrap().as_f64(), Some(2.5));
        }
        assert!(to_jsonl(&[]).is_empty());
    }
}
