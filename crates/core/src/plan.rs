//! Lowering a task graph into an executable per-device plan for the
//! wall-clock pipeline executor.
//!
//! The simulator-facing types ([`crate::PipeFisherSchedule`]) speak in
//! continuous time; the executor needs something discrete: for every
//! device, the exact order of forward/backward micro-batch operations
//! (with activation-slot and routing annotations) plus the K-FAC work units
//! it hosts, from which it pops a *ready* one whenever it would otherwise
//! idle in a bubble. [`ExecutablePlan::lower`] produces that, validating on
//! the way that the graph actually covers every (stage, micro-batch) pair —
//! a malformed graph becomes an [`AssignError::MissingTask`] instead of a
//! silent skip. The assignment's placements ([`crate::assign`]) are *not*
//! an input: the executor's pickup is by readiness, so they could not
//! change what runs (DESIGN.md §3.13).

use crate::AssignError;
use pipefisher_pipeline::{TaskGraph, WorkKind};

/// One standard-work operation in a device's execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// Run a stage's forward pass for one micro-batch.
    Forward {
        /// Model stage.
        stage: usize,
        /// Micro-batch index.
        mb: usize,
        /// Activation-slot replica of (device, stage) this micro-batch
        /// occupies between its forward and backward.
        slot: usize,
        /// Device hosting the next stage's forward of this micro-batch
        /// (`None` for the last stage, whose forward ends in losses).
        send_to: Option<usize>,
    },
    /// Run a stage's backward pass for one micro-batch.
    Backward {
        /// Model stage.
        stage: usize,
        /// Micro-batch index.
        mb: usize,
        /// Slot assigned by the matching forward (freed afterwards).
        slot: usize,
        /// Device hosting the previous stage's backward of this
        /// micro-batch (`None` for stage 0).
        send_to: Option<usize>,
    },
}

/// The micro-batch (of `n_micro ≥ 1`) whose statistics a curvature-refresh
/// step captures: the step's last. The trainer attaches the capture context
/// to it; [`ExecutablePlan::lower`] releases the folds by its ops.
pub fn capture_micro_batch(n_micro: usize) -> usize {
    n_micro - 1
}

/// Kind of a bubble-fillable K-FAC work unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AuxKind {
    /// Fold captured activations into Kronecker factor `A` (curvature).
    FoldA,
    /// Fold captured error signals into Kronecker factor `B` (curvature).
    FoldB,
    /// Damped Cholesky inversion of both factors (π-coupled, so `A` and
    /// `B` invert together: one unit where the simulator's work queue has
    /// an `Inversion(A)` and an `Inversion(B)`).
    Invert,
}

impl AuxKind {
    /// Whether units of this kind run in a step with these refresh phases
    /// (folds on curvature steps, inversions on inversion steps).
    pub fn applies(self, refresh_curv: bool, refresh_inv: bool) -> bool {
        match self {
            AuxKind::FoldA | AuxKind::FoldB => refresh_curv,
            AuxKind::Invert => refresh_inv,
        }
    }
}

/// One K-FAC work unit: chunk `chunk` of `chunks` covers the K-FAC layers
/// `[chunk·K/chunks, (chunk+1)·K/chunks)` of the stage (K = layer count).
/// It is *ready* once its `release` op and its `after` units have finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuxOp {
    /// Model stage whose layers this unit touches.
    pub stage: usize,
    /// What to do.
    pub kind: AuxKind,
    /// Chunk index within the stage's layer list.
    pub chunk: usize,
    /// Total chunks the stage's work is split into (≥ 1).
    pub chunks: usize,
    /// Index in the device's `ops` of the op releasing the unit: the capture
    /// forward for `FoldA`, the capture backward for `FoldB`, none for `Invert`.
    pub release: Option<usize>,
    /// Indices `after.0..after.1` in the device's `aux` of the units to
    /// finish first (skipped ones count): `Invert`'s stage folds, else none.
    pub after: (usize, usize),
    /// Activation slot of the capture micro-batch: the replica folded from.
    pub slot: usize,
}

/// Everything one device needs to run its share of a step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DevicePlan {
    /// Standard work in execution order.
    pub ops: Vec<PlanOp>,
    /// Bubble-fillable K-FAC units of the stages this device is the capture
    /// host of: per stage `FoldA`, `FoldB`, `Invert`, each in chunk order.
    /// The executor pops the first *ready* one while waiting for pipeline
    /// input; readiness ([`AuxOp::release`], [`AuxOp::after`]) decides what
    /// runs when — the list order is not behaviour.
    pub aux: Vec<AuxOp>,
    /// Per model stage: how many activation-slot replicas this device
    /// needs (0 = stage not hosted here).
    pub n_slots: Vec<usize>,
}

impl DevicePlan {
    /// Stages this device hosts (runs forwards of), ascending.
    pub fn hosted_stages(&self) -> Vec<usize> {
        (0..self.n_slots.len())
            .filter(|&s| self.n_slots[s] > 0)
            .collect()
    }
}

/// A discrete, per-device execution plan for one training step.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutablePlan {
    /// Scheme name the plan was lowered from.
    pub scheme: String,
    /// Pipeline stages.
    pub n_stages: usize,
    /// Micro-batches per step.
    pub n_micro: usize,
    /// Per-device plans, indexed by device.
    pub devices: Vec<DevicePlan>,
    /// Per stage: the device that runs the stage's forward of the
    /// [`capture_micro_batch`] and therefore hosts its fold and inversion
    /// work.
    pub capture_host: Vec<usize>,
}

/// The events one training step of an [`ExecutablePlan`] must produce — the
/// conformance oracle a real execution is checked against.
///
/// Pipeline ops are *ordered* per device (the executor runs its `DevicePlan`
/// in program order); K-FAC aux units are a per-device *set*: the executor
/// may pop them in any readiness-respecting order (that freedom is exactly
/// what bubble filling exploits), but each applicable unit must run exactly
/// once, on its capture-host device.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedStep {
    /// Per device: pipeline ops in required execution order.
    pub ops: Vec<Vec<PlanOp>>,
    /// Per device: the K-FAC units this step must execute (unordered).
    pub aux: Vec<Vec<AuxOp>>,
}

impl ExecutablePlan {
    /// Expands this plan into the per-step event oracle for a step with the
    /// given K-FAC cadence: `kfac` false (first-order step) expects no aux
    /// work at all; otherwise the units whose kind [`AuxKind::applies`] to
    /// the step's refresh phases.
    pub fn expected_step(&self, kfac: bool, refresh_curv: bool, refresh_inv: bool) -> ExpectedStep {
        let ops = self.devices.iter().map(|d| d.ops.clone()).collect();
        let aux = self
            .devices
            .iter()
            .map(|d| {
                let applies = |op: &&AuxOp| kfac && op.kind.applies(refresh_curv, refresh_inv);
                d.aux.iter().filter(applies).copied().collect()
            })
            .collect();
        ExpectedStep { ops, aux }
    }

    /// Lowers a task graph into per-device plans.
    ///
    /// Standard work keeps the graph's per-device order. Aux (K-FAC) work
    /// is the same for every scheme and depth: each stage gets the
    /// canonical fold-A, fold-B, invert sequence on its capture host, each
    /// split into the same fixed number of chunks, with their [`AuxOp`]
    /// prerequisites.
    ///
    /// # Errors
    ///
    /// * [`AssignError::MissingTask`] if any (stage, micro-batch) lacks a
    ///   forward or backward task — an assignment that does not cover the
    ///   graph must not be silently truncated.
    /// * [`AssignError::Schedule`] for structurally unexecutable graphs: a
    ///   task kind the executor does not run (e.g. `Recompute`), a
    ///   standard task without a micro-batch, or a micro-batch whose
    ///   forward and backward sit on different devices (activations could
    ///   never reach the backward).
    pub fn lower(graph: &TaskGraph) -> Result<ExecutablePlan, AssignError> {
        let n_stages = graph.n_stages();
        let n_micro = graph.n_micro();
        let n_devices = graph.n_devices();

        // Coverage + same-device validation via `find`, so a graph whose
        // task ids miss a (stage, micro-batch) is rejected up front.
        for stage in 0..n_stages {
            for mb in 0..n_micro {
                let fwd =
                    graph
                        .find(WorkKind::Forward, stage, mb)
                        .ok_or(AssignError::MissingTask {
                            kind: WorkKind::Forward,
                            stage,
                            micro_batch: mb,
                        })?;
                let bwd =
                    graph
                        .find(WorkKind::Backward, stage, mb)
                        .ok_or(AssignError::MissingTask {
                            kind: WorkKind::Backward,
                            stage,
                            micro_batch: mb,
                        })?;
                let (fd, bd) = (graph.task(fwd).device, graph.task(bwd).device);
                if fd != bd {
                    return Err(AssignError::Schedule(format!(
                        "stage {stage} micro-batch {mb}: forward on device {fd} but \
                         backward on device {bd}; the executor keeps activations local"
                    )));
                }
            }
        }

        // Per-device op list with free-list slot assignment: a forward
        // claims the lowest free slot of its (device, stage); the matching
        // backward releases it. (Round-robin would be wrong: in
        // `F0 F1 B1 F2` the slot freed by B1 must be reused by F2 while
        // mb 0 still occupies slot 0.)
        let mut devices: Vec<DevicePlan> = vec![
            DevicePlan {
                ops: Vec::new(),
                aux: Vec::new(),
                n_slots: vec![0; n_stages],
            };
            n_devices
        ];
        use std::collections::HashMap;
        let mut slot_of: HashMap<(usize, usize), usize> = HashMap::new(); // (stage, mb) → slot
        let mut free_slots: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); n_stages]; n_devices];
        // Per stage: the capture micro-batch's device, op indices and slot.
        let mut capture_host = vec![0usize; n_stages];
        let mut capture_ops = vec![(0usize, 0usize, 0usize); n_stages];
        for (dev, order) in graph.device_order().iter().enumerate() {
            for &id in order {
                let task = graph.task(id);
                let stage = task.stage;
                let mb = task.micro_batch.ok_or_else(|| {
                    AssignError::Schedule(format!(
                        "{} task on device {dev} has no micro-batch",
                        task.kind
                    ))
                })?;
                let capture = mb == capture_micro_batch(n_micro);
                let at = devices[dev].ops.len();
                match task.kind {
                    WorkKind::Forward => {
                        let slot = match free_slots[dev][stage].pop() {
                            Some(s) => s,
                            None => {
                                let s = devices[dev].n_slots[stage];
                                devices[dev].n_slots[stage] += 1;
                                s
                            }
                        };
                        slot_of.insert((stage, mb), slot);
                        let send_to = if stage + 1 < n_stages {
                            // Coverage was validated above, so this find
                            // cannot fail.
                            let next = graph
                                .find(WorkKind::Forward, stage + 1, mb)
                                .expect("coverage validated");
                            Some(graph.task(next).device)
                        } else {
                            None
                        };
                        if capture {
                            capture_host[stage] = dev;
                            capture_ops[stage] = (at, 0, slot);
                        }
                        devices[dev].ops.push(PlanOp::Forward {
                            stage,
                            mb,
                            slot,
                            send_to,
                        });
                    }
                    WorkKind::Backward => {
                        let slot = *slot_of.get(&(stage, mb)).expect(
                            "backward after forward on the same device (validated above; \
                             device order is dependency-consistent)",
                        );
                        // Keep the free list sorted so `pop` yields the
                        // lowest slot.
                        let fl = &mut free_slots[dev][stage];
                        fl.push(slot);
                        fl.sort_unstable_by(|a, b| b.cmp(a));
                        let send_to = if stage > 0 {
                            let prev = graph
                                .find(WorkKind::Backward, stage - 1, mb)
                                .expect("coverage validated");
                            Some(graph.task(prev).device)
                        } else {
                            None
                        };
                        if capture {
                            capture_ops[stage].1 = at;
                        }
                        devices[dev].ops.push(PlanOp::Backward {
                            stage,
                            mb,
                            slot,
                            send_to,
                        });
                    }
                    other => {
                        return Err(AssignError::Schedule(format!(
                            "task kind {other} is not executable by the pipeline runner"
                        )));
                    }
                }
            }
        }

        // Aux work: per stage, on its capture host, the canonical fold-A,
        // fold-B, invert sequence, each in `UNITS` chunks: the size of work
        // a bubble fits. (K-FAC folds the capture micro-batch's statistics
        // once per step; the π-coupled `Invert` unit covers both factors.)
        const UNITS: usize = 2;
        for (stage, &host) in capture_host.iter().enumerate() {
            let (fwd, bwd, slot) = capture_ops[stage];
            let aux = &mut devices[host].aux;
            let folds = (aux.len(), aux.len() + 2 * UNITS);
            for (kind, release, after) in [
                (AuxKind::FoldA, Some(fwd), (0, 0)),
                (AuxKind::FoldB, Some(bwd), (0, 0)),
                (AuxKind::Invert, None, folds),
            ] {
                for chunk in 0..UNITS {
                    aux.push(AuxOp {
                        stage,
                        kind,
                        chunk,
                        chunks: UNITS,
                        release,
                        after,
                        slot,
                    });
                }
            }
        }

        Ok(ExecutablePlan {
            scheme: graph.scheme_name().to_string(),
            n_stages,
            n_micro,
            devices,
            capture_host,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefisher_pipeline::{PipelineScheme, StageAssignment};

    fn lower_scheme(scheme: PipelineScheme, d: usize, n: usize) -> ExecutablePlan {
        ExecutablePlan::lower(&scheme.build(d, n)).unwrap()
    }

    #[test]
    fn lowered_plans_cover_all_work() {
        for scheme in PipelineScheme::all() {
            let plan = lower_scheme(scheme, 4, 4);
            let mut fwd = 0;
            let mut bwd = 0;
            for dev in &plan.devices {
                for op in &dev.ops {
                    match op {
                        PlanOp::Forward { .. } => fwd += 1,
                        PlanOp::Backward { .. } => bwd += 1,
                    }
                }
            }
            assert_eq!(fwd, 16, "{}", scheme.name());
            assert_eq!(bwd, 16, "{}", scheme.name());
            // Every stage has exactly one capture host, and all aux work
            // lives there, 2 chunks per kind per stage.
            for stage in 0..4 {
                let host = plan.capture_host[stage];
                for kind in [AuxKind::FoldA, AuxKind::FoldB, AuxKind::Invert] {
                    let n: usize = plan
                        .devices
                        .iter()
                        .enumerate()
                        .map(|(d, dp)| {
                            let c = dp
                                .aux
                                .iter()
                                .filter(|a| a.stage == stage && a.kind == kind)
                                .count();
                            if d != host {
                                assert_eq!(c, 0, "{}: aux off-host", scheme.name());
                            }
                            c
                        })
                        .sum();
                    assert_eq!(n, 2, "{}: stage {stage} {kind:?}", scheme.name());
                }
            }
        }
    }

    #[test]
    fn each_device_hosts_the_canonical_units_of_exactly_one_stage() {
        // What makes list order unobservable: a device captures one stage,
        // so its ready set never mixes one stage's inversions with another
        // stage's folds.
        for scheme in PipelineScheme::all() {
            for d in [1usize, 2, 4] {
                if scheme == PipelineScheme::Chimera && d == 1 {
                    continue;
                }
                let plan = lower_scheme(scheme, d, 4);
                let mut hosts = plan.capture_host.clone();
                hosts.sort_unstable();
                assert_eq!(hosts, (0..d).collect::<Vec<_>>(), "{} d={d}", scheme.name());
                for (stage, &host) in plan.capture_host.iter().enumerate() {
                    let expect: Vec<_> = [AuxKind::FoldA, AuxKind::FoldB, AuxKind::Invert]
                        .into_iter()
                        .flat_map(|kind| (0..2).map(move |chunk| (stage, kind, chunk, 2)))
                        .collect();
                    let got: Vec<_> = plan.devices[host]
                        .aux
                        .iter()
                        .map(|a| (a.stage, a.kind, a.chunk, a.chunks))
                        .collect();
                    assert_eq!(got, expect, "{} d={d}", scheme.name());
                }
            }
        }
    }

    #[test]
    fn expected_step_filters_aux_by_refresh_phase() {
        let plan = lower_scheme(PipelineScheme::OneFOneB, 4, 4);
        let full = plan.expected_step(true, true, true);
        // Pipeline ops are the per-device programs verbatim, every step.
        for (dev, dp) in plan.devices.iter().enumerate() {
            assert_eq!(full.ops[dev], dp.ops);
        }
        let total_aux: usize = full.aux.iter().map(Vec::len).sum();
        assert_eq!(total_aux, 4 * 3 * 2, "2 chunks x 3 kinds x 4 stages");

        let curv_only = plan.expected_step(true, true, false);
        assert!(curv_only
            .aux
            .iter()
            .flatten()
            .all(|op| matches!(op.kind, AuxKind::FoldA | AuxKind::FoldB)));
        let inv_only = plan.expected_step(true, false, true);
        assert!(inv_only
            .aux
            .iter()
            .flatten()
            .all(|op| op.kind == AuxKind::Invert));
        assert_eq!(
            curv_only.aux.iter().map(Vec::len).sum::<usize>()
                + inv_only.aux.iter().map(Vec::len).sum::<usize>(),
            total_aux
        );

        let first_order = plan.expected_step(false, true, true);
        assert_eq!(first_order.aux.iter().map(Vec::len).sum::<usize>(), 0);
        assert_eq!(first_order.ops, full.ops);
    }

    #[test]
    fn aux_prerequisites_are_the_capture_ops_and_the_stage_folds() {
        for scheme in PipelineScheme::all() {
            for d in [1usize, 2, 4] {
                for n in [2usize, 4, 8] {
                    if scheme == PipelineScheme::Chimera && d % 2 == 1 {
                        continue;
                    }
                    let cap = capture_micro_batch(n);
                    assert_eq!(cap, n - 1);
                    let plan = lower_scheme(scheme, d, n);
                    let what = format!("{} d={d} n={n}", scheme.name());
                    for (stage, &host) in plan.capture_host.iter().enumerate() {
                        let dp = &plan.devices[host];
                        let units = || dp.aux.iter().enumerate().filter(|(_, a)| a.stage == stage);
                        let folds: Vec<usize> = units()
                            .filter(|(_, a)| a.kind != AuxKind::Invert)
                            .map(|(i, _)| i)
                            .collect();
                        assert_eq!(folds.len(), 4, "{what}: 2 chunks x FoldA, FoldB");
                        for (_, a) in units() {
                            let released_by = a.release.map(|r| dp.ops[r]);
                            let released = match (a.kind, released_by) {
                                (
                                    AuxKind::FoldA,
                                    Some(PlanOp::Forward {
                                        stage: s, mb, slot, ..
                                    }),
                                )
                                | (
                                    AuxKind::FoldB,
                                    Some(PlanOp::Backward {
                                        stage: s, mb, slot, ..
                                    }),
                                ) => (s, mb, slot) == (stage, cap, a.slot),
                                (AuxKind::Invert, None) => true,
                                _ => false,
                            };
                            assert!(released, "{what}: {a:?} released by {released_by:?}");
                            let after: Vec<usize> = (a.after.0..a.after.1).collect();
                            let want = if a.kind == AuxKind::Invert {
                                &folds[..]
                            } else {
                                &[]
                            };
                            assert_eq!(after, want, "{what}: {a:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn slots_are_reused_via_free_list() {
        // 1F1B steady state interleaves F and B, so a 4-deep pipeline's
        // first stage needs exactly min(D, N) slots, not N.
        let plan = lower_scheme(PipelineScheme::OneFOneB, 4, 4);
        assert_eq!(plan.devices[0].n_slots[0], 4);
        let plan8 = {
            let graph = PipelineScheme::OneFOneB.build(4, 8);
            ExecutablePlan::lower(&graph).unwrap()
        };
        // With 8 micro-batches the window stays bounded by the warmup depth.
        assert!(
            plan8.devices[0].n_slots[0] <= 5,
            "slots {}",
            plan8.devices[0].n_slots[0]
        );
    }

    #[test]
    fn out_of_order_backward_reuses_lowest_slot() {
        // F0 F1 B1 F2 B0 B2: F2 must land in slot 1 (freed by B1), while
        // mb 0 still holds slot 0.
        let mut g = TaskGraph::new("test", 1, 1, 3);
        let f0 = g.push(
            0,
            0,
            Some(0),
            WorkKind::Forward,
            StageAssignment::Single,
            vec![],
        );
        let f1 = g.push(
            0,
            0,
            Some(1),
            WorkKind::Forward,
            StageAssignment::Single,
            vec![],
        );
        let _b1 = g.push(
            0,
            0,
            Some(1),
            WorkKind::Backward,
            StageAssignment::Single,
            vec![f1],
        );
        let f2 = g.push(
            0,
            0,
            Some(2),
            WorkKind::Forward,
            StageAssignment::Single,
            vec![],
        );
        let _b0 = g.push(
            0,
            0,
            Some(0),
            WorkKind::Backward,
            StageAssignment::Single,
            vec![f0],
        );
        let _b2 = g.push(
            0,
            0,
            Some(2),
            WorkKind::Backward,
            StageAssignment::Single,
            vec![f2],
        );
        let plan = ExecutablePlan::lower(&g).unwrap();
        let slots: Vec<usize> = plan.devices[0]
            .ops
            .iter()
            .map(|op| match op {
                PlanOp::Forward { slot, .. } | PlanOp::Backward { slot, .. } => *slot,
            })
            .collect();
        assert_eq!(slots, vec![0, 1, 1, 1, 0, 1]);
        assert_eq!(plan.devices[0].n_slots[0], 2);
    }

    #[test]
    fn missing_backward_is_an_error_not_a_skip() {
        let mut g = TaskGraph::new("bad", 2, 2, 1);
        let f0 = g.push(
            0,
            0,
            Some(0),
            WorkKind::Forward,
            StageAssignment::Single,
            vec![],
        );
        let f1 = g.push(
            1,
            1,
            Some(0),
            WorkKind::Forward,
            StageAssignment::Single,
            vec![f0],
        );
        let _b1 = g.push(
            1,
            1,
            Some(0),
            WorkKind::Backward,
            StageAssignment::Single,
            vec![f1],
        );
        // Stage 0's backward is missing entirely.
        match ExecutablePlan::lower(&g) {
            Err(AssignError::MissingTask {
                kind: WorkKind::Backward,
                stage: 0,
                micro_batch: 0,
            }) => {}
            other => panic!("expected MissingTask, got {other:?}"),
        }
    }

    #[test]
    fn missing_forward_is_an_error() {
        let mut g = TaskGraph::new("bad", 1, 1, 2);
        let f0 = g.push(
            0,
            0,
            Some(0),
            WorkKind::Forward,
            StageAssignment::Single,
            vec![],
        );
        let _b0 = g.push(
            0,
            0,
            Some(0),
            WorkKind::Backward,
            StageAssignment::Single,
            vec![f0],
        );
        // Micro-batch 1 has a backward but no forward.
        let _b1 = g.push(
            0,
            0,
            Some(1),
            WorkKind::Backward,
            StageAssignment::Single,
            vec![],
        );
        match ExecutablePlan::lower(&g) {
            Err(AssignError::MissingTask {
                kind: WorkKind::Forward,
                stage: 0,
                micro_batch: 1,
            }) => {}
            other => panic!("expected MissingTask, got {other:?}"),
        }
    }

    #[test]
    fn split_forward_backward_devices_are_rejected() {
        let mut g = TaskGraph::new("bad", 2, 1, 1);
        let f0 = g.push(
            0,
            0,
            Some(0),
            WorkKind::Forward,
            StageAssignment::Single,
            vec![],
        );
        let _b0 = g.push(
            1,
            0,
            Some(0),
            WorkKind::Backward,
            StageAssignment::Single,
            vec![f0],
        );
        match ExecutablePlan::lower(&g) {
            Err(AssignError::Schedule(msg)) => {
                assert!(
                    msg.contains("different device") || msg.contains("device"),
                    "{msg}"
                );
            }
            other => panic!("expected Schedule error, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_task_kinds_are_rejected() {
        let mut g = TaskGraph::new("bad", 1, 1, 1);
        let f0 = g.push(
            0,
            0,
            Some(0),
            WorkKind::Forward,
            StageAssignment::Single,
            vec![],
        );
        let r = g.push(
            0,
            0,
            Some(0),
            WorkKind::Recompute,
            StageAssignment::Single,
            vec![f0],
        );
        let _b0 = g.push(
            0,
            0,
            Some(0),
            WorkKind::Backward,
            StageAssignment::Single,
            vec![r],
        );
        match ExecutablePlan::lower(&g) {
            Err(AssignError::Schedule(msg)) => assert!(msg.contains("not executable"), "{msg}"),
            other => panic!("expected Schedule error, got {other:?}"),
        }
    }

    #[test]
    fn chimera_capture_host_is_the_up_pipeline_device() {
        // Chimera hosts stage s's late micro-batches (incl. the capture
        // micro-batch N−1) on device D−1−s.
        let plan = lower_scheme(PipelineScheme::Chimera, 4, 4);
        for stage in 0..4 {
            assert_eq!(plan.capture_host[stage], 3 - stage, "stage {stage}");
        }
    }

    #[test]
    fn routing_points_at_hosting_devices() {
        for scheme in PipelineScheme::all() {
            let graph = scheme.build(4, 4);
            let plan = ExecutablePlan::lower(&graph).unwrap();
            for (dev, dp) in plan.devices.iter().enumerate() {
                for op in &dp.ops {
                    match *op {
                        PlanOp::Forward {
                            stage,
                            mb,
                            send_to: Some(to),
                            ..
                        } => {
                            let next = graph.find(WorkKind::Forward, stage + 1, mb).unwrap();
                            assert_eq!(graph.task(next).device, to, "{} dev {dev}", scheme.name());
                        }
                        PlanOp::Forward {
                            stage,
                            send_to: None,
                            ..
                        } => {
                            assert_eq!(stage, 3, "{}: only last stage ends", scheme.name());
                        }
                        PlanOp::Backward {
                            stage,
                            mb,
                            send_to: Some(to),
                            ..
                        } => {
                            let prev = graph.find(WorkKind::Backward, stage - 1, mb).unwrap();
                            assert_eq!(graph.task(prev).device, to, "{} dev {dev}", scheme.name());
                        }
                        PlanOp::Backward {
                            stage,
                            send_to: None,
                            ..
                        } => {
                            assert_eq!(stage, 0, "{}", scheme.name());
                        }
                    }
                }
            }
        }
    }
}
