//! Cost models assigning a duration to each task.

use pipefisher_pipeline::{Factor, Task, WorkKind};

/// Maps a task to its execution time (in arbitrary but consistent units;
/// the perfmodel crate uses seconds).
pub trait CostModel {
    /// Duration of `task` on its device.
    fn duration(&self, task: &Task) -> f64;
}

impl<F: Fn(&Task) -> f64> CostModel for F {
    fn duration(&self, task: &Task) -> f64 {
        self(task)
    }
}

/// Per-kind durations for every work type (per stage, per micro-batch where
/// applicable). This is the shape the §3.3 performance model produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindCost {
    /// Forward pass, one micro-batch through one stage.
    pub t_f: f64,
    /// Backward pass, one micro-batch through one stage.
    pub t_b: f64,
    /// Activation recomputation (≈ forward).
    pub t_recompute: f64,
    /// Curvature work for factor `A` of one stage, one micro-batch.
    pub t_curv_a: f64,
    /// Curvature work for factor `B` of one stage, one micro-batch.
    pub t_curv_b: f64,
    /// Inversion of all `A` factors of one stage.
    pub t_inv_a: f64,
    /// Inversion of all `B` factors of one stage.
    pub t_inv_b: f64,
    /// Preconditioning all layers of one stage.
    pub t_prec: f64,
    /// Gradient allreduce across the stage's data-parallel replicas.
    pub t_sync_grad: f64,
    /// Kronecker-factor allreduce across the stage's replicas.
    pub t_sync_curv: f64,
}

impl KindCost {
    /// A cost table with only forward/backward set (recompute = forward,
    /// all K-FAC work and collectives free): for schedule-shape studies
    /// where only the standard work matters.
    pub const fn standard(t_f: f64, t_b: f64) -> Self {
        KindCost {
            t_f,
            t_b,
            t_recompute: t_f,
            t_curv_a: 0.0,
            t_curv_b: 0.0,
            t_inv_a: 0.0,
            t_inv_b: 0.0,
            t_prec: 0.0,
            t_sync_grad: 0.0,
            t_sync_curv: 0.0,
        }
    }

    /// Total curvature time for one micro-batch (both factors).
    pub fn t_curv(&self) -> f64 {
        self.t_curv_a + self.t_curv_b
    }

    /// Total inversion time for one stage (both factors).
    pub fn t_inv(&self) -> f64 {
        self.t_inv_a + self.t_inv_b
    }
}

impl CostModel for KindCost {
    fn duration(&self, task: &Task) -> f64 {
        match task.kind {
            WorkKind::Forward => self.t_f,
            WorkKind::Backward => self.t_b,
            WorkKind::Recompute => self.t_recompute,
            WorkKind::Curvature(Factor::A) => self.t_curv_a,
            WorkKind::Curvature(Factor::B) => self.t_curv_b,
            WorkKind::Inversion(Factor::A) => self.t_inv_a,
            WorkKind::Inversion(Factor::B) => self.t_inv_b,
            WorkKind::Precondition => self.t_prec,
            WorkKind::SyncGrad => self.t_sync_grad,
            WorkKind::SyncCurvature => self.t_sync_curv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefisher_pipeline::TaskId;

    fn task(kind: WorkKind) -> Task {
        Task {
            id: TaskId(0),
            device: 0,
            stage: 0,
            micro_batch: Some(0),
            kind,
            deps: vec![],
        }
    }

    #[test]
    fn kind_cost_covers_all_kinds() {
        let c = KindCost {
            t_f: 1.0,
            t_b: 2.0,
            t_recompute: 0.9,
            t_curv_a: 0.3,
            t_curv_b: 0.4,
            t_inv_a: 0.5,
            t_inv_b: 0.6,
            t_prec: 0.7,
            t_sync_grad: 0.1,
            t_sync_curv: 0.2,
        };
        assert_eq!(c.duration(&task(WorkKind::Curvature(Factor::B))), 0.4);
        assert_eq!(c.duration(&task(WorkKind::Inversion(Factor::A))), 0.5);
        assert_eq!(c.duration(&task(WorkKind::SyncCurvature)), 0.2);
        assert!((c.t_curv() - 0.7).abs() < 1e-12);
        assert!((c.t_inv() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn closures_are_cost_models() {
        let c = |t: &Task| {
            if t.kind == WorkKind::Forward {
                3.0
            } else {
                0.0
            }
        };
        assert_eq!(CostModel::duration(&c, &task(WorkKind::Forward)), 3.0);
    }
}
