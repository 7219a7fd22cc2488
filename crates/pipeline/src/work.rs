//! Work units of a pipeline step.

use std::fmt;

/// Which Kronecker factor a K-FAC work unit concerns (paper §2.3.1):
/// `A` is built from input activations, `B` from output-gradient errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Factor {
    /// Input-activation factor `A_l` (available after a forward pass).
    A,
    /// Error factor `B_l` (available after a backward pass).
    B,
}

impl fmt::Display for Factor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Factor::A => write!(f, "A"),
            Factor::B => write!(f, "B"),
        }
    }
}

/// The kind of work a task performs.
///
/// `Forward`/`Backward`/`Recompute` are the *standard* work of any pipeline
/// scheme; the rest is the *extra* work PipeFisher assigns to bubbles
/// (plus the collectives used by data parallelism).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkKind {
    /// Forward pass of one micro-batch through one stage.
    Forward,
    /// Backward pass of one micro-batch through one stage.
    Backward,
    /// Activation recomputation before a backward (when memory-saving `R`
    /// is on, Griewank & Walther 2000).
    Recompute,
    /// K-FAC curvature work: build one Kronecker factor for one micro-batch.
    Curvature(Factor),
    /// K-FAC inversion work: damped Cholesky inverse of one factor.
    Inversion(Factor),
    /// K-FAC precondition work for all layers in a stage (every step).
    Precondition,
    /// Gradient allreduce across data-parallel replicas of a stage.
    SyncGrad,
    /// Kronecker-factor allreduce across data-parallel replicas of a stage.
    SyncCurvature,
}

impl WorkKind {
    /// Short label used in rendered timelines.
    pub fn label(&self) -> &'static str {
        match self {
            WorkKind::Forward => "F",
            WorkKind::Backward => "B",
            WorkKind::Recompute => "R",
            WorkKind::Curvature(Factor::A) => "Ca",
            WorkKind::Curvature(Factor::B) => "Cb",
            WorkKind::Inversion(Factor::A) => "Ia",
            WorkKind::Inversion(Factor::B) => "Ib",
            WorkKind::Precondition => "P",
            WorkKind::SyncGrad => "Sg",
            WorkKind::SyncCurvature => "Sc",
        }
    }
}

impl fmt::Display for WorkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Index of a task within its [`crate::TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// One schedulable unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Identifier (index into the owning graph).
    pub id: TaskId,
    /// Executing device.
    pub device: usize,
    /// Pipeline stage the work belongs to.
    pub stage: usize,
    /// Micro-batch index, when the work is per-micro-batch.
    pub micro_batch: Option<usize>,
    /// What the task does.
    pub kind: WorkKind,
    /// Tasks that must complete before this one starts (besides the
    /// device-order constraint).
    pub deps: Vec<TaskId>,
}

impl Task {
    /// Compact human-readable description, e.g. `F[mb2,s1]`.
    pub fn describe(&self) -> String {
        match self.micro_batch {
            Some(mb) => format!("{}[mb{},s{}]", self.kind.label(), mb, self.stage),
            None => format!("{}[s{}]", self.kind.label(), self.stage),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        use std::collections::HashSet;
        let kinds = [
            WorkKind::Forward,
            WorkKind::Backward,
            WorkKind::Recompute,
            WorkKind::Curvature(Factor::A),
            WorkKind::Curvature(Factor::B),
            WorkKind::Inversion(Factor::A),
            WorkKind::Inversion(Factor::B),
            WorkKind::Precondition,
            WorkKind::SyncGrad,
            WorkKind::SyncCurvature,
        ];
        let labels: HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn describe_formats() {
        let t = Task {
            id: TaskId(0),
            device: 1,
            stage: 2,
            micro_batch: Some(3),
            kind: WorkKind::Backward,
            deps: vec![],
        };
        assert_eq!(t.describe(), "B[mb3,s2]");
    }
}
