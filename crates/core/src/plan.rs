//! Lowering a task graph into an executable per-device plan for the
//! wall-clock pipeline executor.
//!
//! The simulator-facing types ([`crate::PipeFisherSchedule`]) speak in
//! continuous time; the executor needs something discrete: for every
//! device, one list of operations it replays in order each step — the
//! forward/backward micro-batch operations (with activation-slot and
//! routing annotations) and, at fixed positions among them, the K-FAC work
//! units it hosts. [`ExecutablePlan::lower`] produces that, validating on
//! the way that the graph actually covers every (stage, micro-batch) pair —
//! a malformed graph becomes an [`AssignError::MissingTask`] instead of a
//! silent skip. A unit's position follows one structural rule (see
//! [`ExecutablePlan::lower`]); the assignment's placements
//! ([`crate::assign`]) are *not* an input (DESIGN.md §3.13).

use crate::AssignError;
use pipefisher_pipeline::{TaskGraph, WorkKind};

/// One entry of a device's execution order.
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
    /// Run a K-FAC work unit, if its kind [`AuxKind::applies`] to the step.
    Aux {
        /// Index of the unit in the device's [`DevicePlan::aux`].
        unit: usize,
    },
}

/// The micro-batch (of `n_micro ≥ 1`) whose statistics a curvature-refresh
/// step captures: the step's last. The trainer attaches the capture context
/// to it; [`ExecutablePlan::lower`] places the folds after its ops.
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
    /// Activation slot of the capture micro-batch: the replica folded from.
    pub slot: usize,
}

/// Everything one device needs to run its share of a step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DevicePlan {
    /// Everything the device runs in a step, in execution order: its
    /// forwards and backwards, and a [`PlanOp::Aux`] entry per unit.
    pub ops: Vec<PlanOp>,
    /// K-FAC units of the stages this device is the capture host of: per
    /// stage `FoldA`, `FoldB`, `Invert`, each in chunk order. Where each
    /// runs is its [`PlanOp::Aux`] entry's position in `ops`.
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

impl ExecutablePlan {
    /// Per device, the entries a step with the given K-FAC cadence runs, in
    /// order — the conformance oracle a real execution is checked against:
    /// the op list minus the [`PlanOp::Aux`] entries whose kind does not
    /// [`AuxKind::applies`] to the step (all of them when `kfac` is false).
    pub fn expected_step(
        &self,
        kfac: bool,
        refresh_curv: bool,
        refresh_inv: bool,
    ) -> Vec<Vec<PlanOp>> {
        let runs = |d: &DevicePlan, op: &PlanOp| match *op {
            PlanOp::Aux { unit } => kfac && d.aux[unit].kind.applies(refresh_curv, refresh_inv),
            _ => true,
        };
        let device_ops = |d: &DevicePlan| d.ops.iter().filter(|op| runs(d, op)).copied().collect();
        self.devices.iter().map(device_ops).collect()
    }

    /// Lowers a task graph into per-device plans.
    ///
    /// Standard work keeps the graph's per-device order. Aux (K-FAC) work
    /// is the same for every scheme and depth: each stage gets the
    /// canonical fold-A, fold-B, invert sequence on its capture host, each
    /// split into the same fixed number of chunks. With `fill_bubbles`, a
    /// unit's entry goes immediately before the first op that comes after
    /// everything the unit depends on (the capture forward for `FoldA`, the
    /// capture backward for `FoldB`, both folds for `Invert`) and waits for
    /// another device's tensor (a forward whose previous-stage forward, or
    /// a backward whose next-stage backward, ran elsewhere) — where the
    /// device would otherwise idle. With no such op, and always without
    /// `fill_bubbles`, it goes after the device's last pipeline op (the
    /// tail). Entries at one position keep the units' list order.
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
    pub fn lower(graph: &TaskGraph, fill_bubbles: bool) -> Result<ExecutablePlan, AssignError> {
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
        // Per device, per op: whether it waits for another device's tensor.
        let mut waits: Vec<Vec<bool>> = vec![Vec::new(); n_devices];
        let device_of = |kind, stage, mb| {
            let id = graph.find(kind, stage, mb).expect("coverage validated");
            graph.task(id).device
        };
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
                        let send_to = (stage + 1 < n_stages)
                            .then(|| device_of(WorkKind::Forward, stage + 1, mb));
                        waits[dev]
                            .push(stage > 0 && device_of(WorkKind::Forward, stage - 1, mb) != dev);
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
                        let send_to =
                            (stage > 0).then(|| device_of(WorkKind::Backward, stage - 1, mb));
                        waits[dev].push(
                            stage + 1 < n_stages
                                && device_of(WorkKind::Backward, stage + 1, mb) != dev,
                        );
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
        // `precedes[dev][unit]`: the index of the pipeline op the unit's
        // entry goes before (`ops.len()`: the tail).
        const UNITS: usize = 2;
        let mut precedes: Vec<Vec<usize>> = vec![Vec::new(); n_devices];
        for (stage, &host) in capture_host.iter().enumerate() {
            let (fwd, bwd, slot) = capture_ops[stage];
            let tail = devices[host].ops.len();
            let waits = &waits[host];
            let first_wait_from = |from: usize| {
                let found = (from..tail).find(|&i| waits[i] && fill_bubbles);
                found.unwrap_or(tail)
            };
            // The first waiting op after both folds is the one FoldB's
            // entries precede (FoldA's come no later).
            let fold_b = first_wait_from(bwd + 1);
            for (kind, before) in [
                (AuxKind::FoldA, first_wait_from(fwd + 1)),
                (AuxKind::FoldB, fold_b),
                (AuxKind::Invert, fold_b),
            ] {
                for chunk in 0..UNITS {
                    devices[host].aux.push(AuxOp {
                        stage,
                        kind,
                        chunk,
                        chunks: UNITS,
                        slot,
                    });
                    precedes[host].push(before);
                }
            }
        }
        for (dp, precedes) in devices.iter_mut().zip(&precedes) {
            let pipe = std::mem::take(&mut dp.ops);
            for i in 0..=pipe.len() {
                let here = (0..precedes.len()).filter(|&unit| precedes[unit] == i);
                dp.ops.extend(here.map(|unit| PlanOp::Aux { unit }));
                dp.ops.extend(pipe.get(i));
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
        ExecutablePlan::lower(&scheme.build(d, n), true).unwrap()
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
                        PlanOp::Aux { .. } => {}
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
        // Each capture host carries one stage's six units, in FoldA, FoldB,
        // Invert and chunk order.
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
        let unit_kinds = |step: &[Vec<PlanOp>]| -> Vec<AuxKind> {
            let device_units = step.iter().zip(&plan.devices).flat_map(|(ops, dp)| {
                ops.iter().filter_map(|op| match *op {
                    PlanOp::Aux { unit } => Some(dp.aux[unit].kind),
                    _ => None,
                })
            });
            device_units.collect()
        };
        // A step that refreshes everything runs the op lists verbatim.
        let full = plan.expected_step(true, true, true);
        for (dev, dp) in plan.devices.iter().enumerate() {
            assert_eq!(full[dev], dp.ops);
        }
        assert_eq!(
            unit_kinds(&full).len(),
            4 * 3 * 2,
            "2 chunks x 3 kinds x 4 stages"
        );

        let curv_only = unit_kinds(&plan.expected_step(true, true, false));
        assert!(curv_only.iter().all(|&k| k != AuxKind::Invert));
        let inv_only = unit_kinds(&plan.expected_step(true, false, true));
        assert!(inv_only.iter().all(|&k| k == AuxKind::Invert));
        assert_eq!(curv_only.len() + inv_only.len(), 4 * 3 * 2);

        // Without K-FAC a step is its pipeline ops alone, in plan order.
        let first_order = plan.expected_step(false, true, true);
        for (ops, dp) in first_order.iter().zip(&plan.devices) {
            let pipe: Vec<PlanOp> = dp
                .ops
                .iter()
                .copied()
                .filter(|op| !matches!(op, PlanOp::Aux { .. }))
                .collect();
            assert_eq!(*ops, pipe);
        }
    }

    /// The lowering rule, checked against the graph on every shape: each
    /// entry follows its prerequisites; a filled plan puts each run of
    /// entries before the first op after them that waits for another
    /// device's tensor, or in the tail when there is none; an unfilled plan
    /// puts them all in the tail.
    #[test]
    fn aux_entries_sit_before_the_first_wait_after_their_prerequisites() {
        for scheme in PipelineScheme::all() {
            for d in [1usize, 2, 3, 4] {
                for n in [1usize, 2, 4, 8] {
                    if scheme == PipelineScheme::Chimera && (d % 2 == 1 || n % 2 == 1) {
                        continue;
                    }
                    for fill in [true, false] {
                        check_lowering_rule(scheme, d, n, fill);
                    }
                }
            }
        }
    }

    fn check_lowering_rule(scheme: PipelineScheme, d: usize, n: usize, fill: bool) {
        let graph = scheme.build(d, n);
        let plan = ExecutablePlan::lower(&graph, fill).unwrap();
        let what = format!("{} d={d} n={n} fill={fill}", scheme.name());
        let cap = capture_micro_batch(n);
        let device_of = |kind, stage, mb| graph.task(graph.find(kind, stage, mb).unwrap()).device;
        for (dev, dp) in plan.devices.iter().enumerate() {
            let waits = |op: &PlanOp| match *op {
                PlanOp::Forward { stage, mb, .. } => {
                    stage > 0 && device_of(WorkKind::Forward, stage - 1, mb) != dev
                }
                PlanOp::Backward { stage, mb, .. } => {
                    stage + 1 < d && device_of(WorkKind::Backward, stage + 1, mb) != dev
                }
                PlanOp::Aux { .. } => false,
            };
            let is_aux = |op: &PlanOp| matches!(op, PlanOp::Aux { .. });
            let tail = dp
                .ops
                .iter()
                .rposition(|op| !is_aux(op))
                .map_or(0, |i| i + 1);
            let mut units_seen = vec![false; dp.aux.len()];
            for (i, op) in dp.ops.iter().enumerate() {
                let PlanOp::Aux { unit } = *op else { continue };
                let a = dp.aux[unit];
                assert_eq!(
                    plan.capture_host[a.stage], dev,
                    "{what}: {a:?} off its host"
                );
                assert!(!units_seen[unit], "{what}: {a:?} listed twice");
                units_seen[unit] = true;
                // After its prerequisites: the last of them sits at `ready`.
                let pos = |want: &dyn Fn(&PlanOp) -> bool| dp.ops.iter().position(want);
                let capture = |is_fwd: bool| {
                    move |op: &PlanOp| match *op {
                        PlanOp::Forward {
                            stage, mb, slot, ..
                        } => is_fwd && (stage, mb, slot) == (a.stage, cap, a.slot),
                        PlanOp::Backward {
                            stage, mb, slot, ..
                        } => !is_fwd && (stage, mb, slot) == (a.stage, cap, a.slot),
                        PlanOp::Aux { .. } => false,
                    }
                };
                let ready = match a.kind {
                    AuxKind::FoldA => pos(&capture(true)),
                    AuxKind::FoldB => pos(&capture(false)),
                    AuxKind::Invert => dp.ops.iter().rposition(|op| match *op {
                        PlanOp::Aux { unit } => {
                            let f = dp.aux[unit];
                            f.stage == a.stage && f.kind != AuxKind::Invert
                        }
                        _ => false,
                    }),
                };
                let ready = ready.unwrap_or_else(|| panic!("{what}: {a:?} lacks a prerequisite"));
                assert!(
                    ready < i,
                    "{what}: {a:?} at {i} before its prerequisite at {ready}"
                );
                // Where the run of entries containing it ends.
                let end = (i..dp.ops.len()).find(|&j| !is_aux(&dp.ops[j]));
                match end {
                    None => {}
                    Some(j) => {
                        assert!(fill, "{what}: {a:?} before op {j} of an unfilled plan");
                        assert!(waits(&dp.ops[j]), "{what}: {a:?} before a non-waiting op");
                        let skipped = (ready + 1..i).find(|&k| waits(&dp.ops[k]));
                        assert_eq!(skipped, None, "{what}: {a:?} passed a wait");
                    }
                }
                if i >= tail && fill {
                    let skipped = (ready + 1..tail).find(|&k| waits(&dp.ops[k]));
                    assert_eq!(skipped, None, "{what}: {a:?} in the tail past a wait");
                }
            }
            assert!(
                units_seen.iter().all(|&s| s),
                "{what}: dev {dev} has an unlisted unit"
            );
        }
        for (stage, &host) in plan.capture_host.iter().enumerate() {
            let units = plan.devices[host].aux.iter().filter(|a| a.stage == stage);
            assert_eq!(units.count(), 6, "{what}: stage {stage}");
        }
    }

    /// The benchmark's plan (1F1B, D = 2, N = 4, filled): stage 0's FoldA
    /// chunks fill dev0's wait for dev1's gradient of micro-batch 2; every
    /// other unit follows its device's last pipeline op.
    #[test]
    fn benchmark_plan_places_stage0_fold_a_before_the_gradient_wait() {
        let plan = lower_scheme(PipelineScheme::OneFOneB, 2, 4);
        let names = |dp: &DevicePlan| -> Vec<String> {
            let name = |op: &PlanOp| match *op {
                PlanOp::Forward { mb, .. } => format!("F{mb}"),
                PlanOp::Backward { mb, .. } => format!("B{mb}"),
                PlanOp::Aux { unit } => {
                    let a = dp.aux[unit];
                    let kind = match a.kind {
                        AuxKind::FoldA => "FoldA",
                        AuxKind::FoldB => "FoldB",
                        AuxKind::Invert => "Inv",
                    };
                    format!("{kind}{}", a.chunk)
                }
            };
            dp.ops.iter().map(name).collect()
        };
        let units = "FoldA0 FoldA1 FoldB0 FoldB1 Inv0 Inv1";
        assert_eq!(
            names(&plan.devices[0]).join(" "),
            "F0 F1 B0 F2 B1 F3 FoldA0 FoldA1 B2 B3 FoldB0 FoldB1 Inv0 Inv1"
        );
        assert_eq!(
            names(&plan.devices[1]).join(" "),
            format!("F0 B0 F1 B1 F2 B2 F3 B3 {units}")
        );
        assert!(plan.devices[0].aux.iter().all(|a| a.stage == 0));
        assert!(plan.devices[1].aux.iter().all(|a| a.stage == 1));
        let unfilled = ExecutablePlan::lower(&PipelineScheme::OneFOneB.build(2, 4), false).unwrap();
        assert_eq!(
            names(&unfilled.devices[0]).join(" "),
            format!("F0 F1 B0 F2 B1 F3 B2 B3 {units}")
        );
    }

    #[test]
    fn slots_are_reused_via_free_list() {
        // 1F1B steady state interleaves F and B, so a 4-deep pipeline's
        // first stage needs exactly min(D, N) slots, not N.
        let plan = lower_scheme(PipelineScheme::OneFOneB, 4, 4);
        assert_eq!(plan.devices[0].n_slots[0], 4);
        let plan8 = {
            let graph = PipelineScheme::OneFOneB.build(4, 8);
            ExecutablePlan::lower(&graph, true).unwrap()
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
        let plan = ExecutablePlan::lower(&g, true).unwrap();
        let slots: Vec<usize> = plan.devices[0]
            .ops
            .iter()
            .filter_map(|op| match op {
                PlanOp::Forward { slot, .. } | PlanOp::Backward { slot, .. } => Some(*slot),
                PlanOp::Aux { .. } => None,
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
        match ExecutablePlan::lower(&g, true) {
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
        match ExecutablePlan::lower(&g, true) {
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
        match ExecutablePlan::lower(&g, true) {
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
        match ExecutablePlan::lower(&g, true) {
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
            let plan = ExecutablePlan::lower(&graph, true).unwrap();
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
                        PlanOp::Aux { .. } => {}
                    }
                }
            }
        }
    }
}
