//! The task graph: tasks + dependencies + per-device execution order.

use crate::{Task, TaskId, WorkKind};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// Validation failures for a [`TaskGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A dependency refers to a nonexistent task.
    DanglingDependency { task: TaskId, dep: TaskId },
    /// A task is missing from its device's execution order (or listed twice).
    OrderMismatch { device: usize },
    /// In-order execution of the device queues can never complete.
    Deadlock { scheduled: usize, total: usize },
    /// A micro-batch is missing a forward or backward on some stage.
    IncompleteCoverage { stage: usize, micro_batch: usize },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::DanglingDependency { task, dep } => {
                write!(f, "task {:?} depends on nonexistent {:?}", task, dep)
            }
            ScheduleError::OrderMismatch { device } => {
                write!(
                    f,
                    "device {} order does not list its tasks exactly once",
                    device
                )
            }
            ScheduleError::Deadlock { scheduled, total } => {
                write!(f, "deadlock: only {scheduled}/{total} tasks schedulable")
            }
            ScheduleError::IncompleteCoverage { stage, micro_batch } => {
                write!(
                    f,
                    "stage {stage} missing work for micro-batch {micro_batch}"
                )
            }
        }
    }
}

impl Error for ScheduleError {}

/// A pipeline step's work: tasks with dependencies plus ordered per-device
/// queues. Built by the schedule builders; consumed by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    device_order: Vec<Vec<TaskId>>,
    n_stages: usize,
    n_micro: usize,
    scheme_name: String,
}

impl TaskGraph {
    /// Creates an empty graph for `n_devices` devices.
    pub fn new(
        scheme_name: impl Into<String>,
        n_devices: usize,
        n_stages: usize,
        n_micro: usize,
    ) -> Self {
        TaskGraph {
            tasks: Vec::new(),
            device_order: vec![Vec::new(); n_devices],
            n_stages,
            n_micro,
            scheme_name: scheme_name.into(),
        }
    }

    /// Appends a task to the graph *and* to its device's execution queue,
    /// returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the device index is out of range.
    pub fn push(
        &mut self,
        device: usize,
        stage: usize,
        micro_batch: Option<usize>,
        kind: WorkKind,
        deps: Vec<TaskId>,
    ) -> TaskId {
        assert!(
            device < self.device_order.len(),
            "push: device {device} out of range"
        );
        let id = TaskId(self.tasks.len());
        self.tasks.push(Task {
            id,
            device,
            stage,
            micro_batch,
            kind,
            deps,
        });
        self.device_order[device].push(id);
        id
    }

    /// All tasks, indexed by [`TaskId`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Borrow one task.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Per-device execution order.
    pub fn device_order(&self) -> &[Vec<TaskId>] {
        &self.device_order
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.device_order.len()
    }

    /// Number of pipeline stages.
    pub fn n_stages(&self) -> usize {
        self.n_stages
    }

    /// Number of micro-batches per step.
    pub fn n_micro(&self) -> usize {
        self.n_micro
    }

    /// Human-readable scheme name (`"gpipe"`, `"1f1b"`, `"chimera"`).
    pub fn scheme_name(&self) -> &str {
        &self.scheme_name
    }

    /// Per stage, its hosts: the devices that run its forwards, in task
    /// order (Chimera's two pipelines give every stage two).
    pub fn stage_hosts(&self) -> Vec<Vec<usize>> {
        let mut hosts = vec![Vec::new(); self.n_stages];
        for t in self.tasks.iter().filter(|t| t.kind == WorkKind::Forward) {
            if !hosts[t.stage].contains(&t.device) {
                hosts[t.stage].push(t.device);
            }
        }
        hosts
    }

    /// Renames the scheme (crate-internal; used by derived builders).
    pub(crate) fn rename(&mut self, name: &str) {
        self.scheme_name = name.to_string();
    }

    /// Replaces the dependency lists of the given tasks. Used by builders
    /// that push tasks in execution order first and wire dependencies in a
    /// second pass.
    ///
    /// # Panics
    ///
    /// Panics if any task id is out of range.
    pub fn set_deps(&mut self, deps: Vec<(TaskId, Vec<TaskId>)>) {
        for (id, d) in deps {
            assert!(
                id.0 < self.tasks.len(),
                "set_deps: task {id:?} out of range"
            );
            self.tasks[id.0].deps = d;
        }
    }

    /// Finds the id of a standard task by (kind, stage, micro-batch).
    pub fn find(&self, kind: WorkKind, stage: usize, micro_batch: usize) -> Option<TaskId> {
        self.tasks
            .iter()
            .find(|t| t.kind == kind && t.stage == stage && t.micro_batch == Some(micro_batch))
            .map(|t| t.id)
    }

    /// Validates dependency sanity, order consistency, deadlock-freedom of
    /// in-order execution, and forward/backward coverage of every
    /// (stage, micro-batch) pair.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        let n = self.tasks.len();
        // Dependencies exist.
        for t in &self.tasks {
            for &d in &t.deps {
                if d.0 >= n {
                    return Err(ScheduleError::DanglingDependency { task: t.id, dep: d });
                }
            }
        }
        // Device order covers each device's tasks exactly once.
        for (dev, order) in self.device_order.iter().enumerate() {
            let listed: HashSet<TaskId> = order.iter().copied().collect();
            if listed.len() != order.len() {
                return Err(ScheduleError::OrderMismatch { device: dev });
            }
            let owned: HashSet<TaskId> = self
                .tasks
                .iter()
                .filter(|t| t.device == dev)
                .map(|t| t.id)
                .collect();
            if listed != owned {
                return Err(ScheduleError::OrderMismatch { device: dev });
            }
        }
        // Deadlock check: in-order execution with dependency waits.
        self.nominal_times(|_| 0.0)?;
        // Coverage: each (stage, micro-batch) has one forward and one backward.
        for stage in 0..self.n_stages {
            for mb in 0..self.n_micro {
                let fwd = self.find(WorkKind::Forward, stage, mb).is_some();
                let bwd = self.find(WorkKind::Backward, stage, mb).is_some();
                if !fwd || !bwd {
                    return Err(ScheduleError::IncompleteCoverage {
                        stage,
                        micro_batch: mb,
                    });
                }
            }
        }
        Ok(())
    }

    /// Computes nominal start/end times via in-order dependency-respecting
    /// execution with per-kind durations given by `duration`. Returns
    /// `(start, end)` per task, or the deadlock error.
    ///
    /// This is the minimal in-order scheduler; `pipefisher-sim` builds its
    /// timelines on top of it.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Deadlock`] if in-order execution stalls.
    pub fn nominal_times(
        &self,
        duration: impl Fn(&Task) -> f64,
    ) -> Result<Vec<(f64, f64)>, ScheduleError> {
        let n = self.tasks.len();
        let mut times = vec![(f64::NAN, f64::NAN); n];
        let mut done = vec![false; n];
        let mut cursor = vec![0usize; self.n_devices()];
        let mut free = vec![0.0f64; self.n_devices()];
        let mut scheduled = 0;
        loop {
            let mut progressed = false;
            for dev in 0..self.n_devices() {
                while cursor[dev] < self.device_order[dev].len() {
                    let id = self.device_order[dev][cursor[dev]];
                    let task = &self.tasks[id.0];
                    if !task.deps.iter().all(|d| done[d.0]) {
                        break;
                    }
                    let dep_end = task
                        .deps
                        .iter()
                        .map(|d| times[d.0].1)
                        .fold(0.0f64, f64::max);
                    let start = free[dev].max(dep_end);
                    let end = start + duration(task);
                    times[id.0] = (start, end);
                    free[dev] = end;
                    done[id.0] = true;
                    cursor[dev] += 1;
                    scheduled += 1;
                    progressed = true;
                }
            }
            if scheduled == n {
                return Ok(times);
            }
            if !progressed {
                return Err(ScheduleError::Deadlock {
                    scheduled,
                    total: n,
                });
            }
        }
    }

    /// Makespan under the given per-task durations.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Deadlock`] if in-order execution stalls.
    pub fn makespan(&self, duration: impl Fn(&Task) -> f64) -> Result<f64, ScheduleError> {
        Ok(self
            .nominal_times(duration)?
            .iter()
            .map(|&(_, e)| e)
            .fold(0.0, f64::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_device_chain() -> TaskGraph {
        let mut g = TaskGraph::new("test", 2, 2, 1);
        let f0 = g.push(0, 0, Some(0), WorkKind::Forward, vec![]);
        let f1 = g.push(1, 1, Some(0), WorkKind::Forward, vec![f0]);
        let b1 = g.push(1, 1, Some(0), WorkKind::Backward, vec![f1]);
        let _b0 = g.push(0, 0, Some(0), WorkKind::Backward, vec![b1, f0]);
        g
    }

    #[test]
    fn valid_chain_passes() {
        assert!(two_device_chain().validate().is_ok());
    }

    #[test]
    fn nominal_times_respect_deps() {
        let g = two_device_chain();
        let times = g
            .nominal_times(|t| match t.kind {
                WorkKind::Forward => 1.0,
                _ => 2.0,
            })
            .unwrap();
        // F0: 0-1, F1: 1-2, B1: 2-4, B0: 4-6.
        assert_eq!(times[0], (0.0, 1.0));
        assert_eq!(times[1], (1.0, 2.0));
        assert_eq!(times[2], (2.0, 4.0));
        assert_eq!(times[3], (4.0, 6.0));
        assert_eq!(
            g.makespan(|t| if t.kind == WorkKind::Forward {
                1.0
            } else {
                2.0
            })
            .unwrap(),
            6.0
        );
    }

    #[test]
    fn deadlock_is_detected() {
        // Two tasks on one device, first depends on second → stalls.
        let mut g = TaskGraph::new("bad", 1, 1, 1);
        let placeholder = TaskId(1);
        g.push(0, 0, Some(0), WorkKind::Forward, vec![placeholder]);
        g.push(0, 0, Some(0), WorkKind::Backward, vec![]);
        match g.validate() {
            Err(ScheduleError::Deadlock { .. }) => {}
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn dangling_dep_is_detected() {
        let mut g = TaskGraph::new("bad", 1, 1, 1);
        g.push(0, 0, Some(0), WorkKind::Forward, vec![TaskId(99)]);
        match g.validate() {
            Err(ScheduleError::DanglingDependency { .. }) => {}
            other => panic!("expected dangling dep, got {other:?}"),
        }
    }

    #[test]
    fn missing_backward_is_detected() {
        let mut g = TaskGraph::new("bad", 1, 1, 1);
        g.push(0, 0, Some(0), WorkKind::Forward, vec![]);
        match g.validate() {
            Err(ScheduleError::IncompleteCoverage { .. }) => {}
            other => panic!("expected coverage error, got {other:?}"),
        }
    }
}
