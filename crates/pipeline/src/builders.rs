//! Schedule builders for GPipe, 1F1B, and Chimera, and the one constructor
//! every builder in this crate goes through: a builder describes its
//! schedule as per-device [`Stream`]s and [`merge_streams`] turns them into
//! a [`TaskGraph`].

use crate::{TaskGraph, TaskId, WorkKind};

/// The synchronous pipeline schemes evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineScheme {
    /// GPipe (Huang et al., 2019): all forwards, then all backwards.
    GPipe,
    /// 1F1B with pipeline flush (Narayanan et al., 2019).
    OneFOneB,
    /// Chimera with two bidirectional pipelines (Li & Hoefler, 2021).
    Chimera,
}

impl PipelineScheme {
    /// Scheme name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            PipelineScheme::GPipe => "gpipe",
            PipelineScheme::OneFOneB => "1f1b",
            PipelineScheme::Chimera => "chimera",
        }
    }

    /// Builds the schedule for `n_stages` stages and `n_micro` micro-batches.
    ///
    /// # Panics
    ///
    /// Panics on invalid combinations (see the individual builders).
    pub fn build(&self, n_stages: usize, n_micro: usize) -> TaskGraph {
        match self {
            PipelineScheme::GPipe => build_gpipe(n_stages, n_micro),
            PipelineScheme::OneFOneB => build_1f1b(n_stages, n_micro),
            PipelineScheme::Chimera => build_chimera(n_stages, n_micro),
        }
    }

    /// All three schemes, for sweeps.
    pub fn all() -> [PipelineScheme; 3] {
        [
            PipelineScheme::GPipe,
            PipelineScheme::OneFOneB,
            PipelineScheme::Chimera,
        ]
    }
}

/// One device's in-order share of one pipeline: the ops it runs for
/// `stage`.
pub(crate) struct Stream {
    pub(crate) stage: usize,
    /// `(Forward | Backward, micro-batch)` in the order the device must
    /// keep *within this stream*.
    pub(crate) ops: Vec<(WorkKind, usize)>,
}

/// The 1F1B (PipeDream-flush) op order of `stage` in a `depth`-stage
/// pipeline over `micro_batches`: warmup forwards, steady
/// one-forward-one-backward alternation, cooldown backwards.
pub(crate) fn one_f_one_b_order(
    depth: usize,
    stage: usize,
    micro_batches: std::ops::Range<usize>,
) -> Vec<(WorkKind, usize)> {
    let (first, n) = (micro_batches.start, micro_batches.len());
    let warmup = (depth - 1 - stage).min(n);
    let steady = n - warmup;
    let mut ops = Vec::with_capacity(2 * n);
    for m in 0..warmup {
        ops.push((WorkKind::Forward, first + m));
    }
    for i in 0..steady {
        ops.push((WorkKind::Forward, first + warmup + i));
        ops.push((WorkKind::Backward, first + i));
    }
    for m in steady..n {
        ops.push((WorkKind::Backward, first + m));
    }
    ops
}

/// The one schedule constructor: merges each device's streams into its
/// execution order and wires the standard pipeline dependencies
/// `F(s,m) ← F(s−1,m)` and `B(s,m) ← {F(s,m), B(s+1,m)}`.
///
/// The merge is an event-driven greedy sweep under the canonical cost model
/// `T_f = 1`, `T_b = 2`: whenever a device is free it starts, among the
/// heads of its streams whose dependencies have finished, the op *deepest
/// in its pipeline* (highest stage). A device with a single stream simply
/// keeps that stream's order. Tasks are pushed device by device in the
/// realized order, so ids are device-major.
///
/// # Panics
///
/// Panics if the streams cannot all be scheduled (an op whose dependency
/// no stream contains, or stream orders that deadlock).
pub(crate) fn merge_streams(
    name: impl Into<String>,
    n_stages: usize,
    n_micro: usize,
    streams: Vec<Vec<Stream>>,
) -> TaskGraph {
    let n_devices = streams.len();
    // Index of (kind, stage, micro-batch) into the per-op tables.
    let slot = |kind: WorkKind, stage: usize, mb: usize| {
        ((kind == WorkKind::Backward) as usize * n_stages + stage) * n_micro + mb
    };
    let deps_of = |kind: WorkKind, stage: usize, mb: usize| {
        let (first, second) = match kind {
            WorkKind::Forward => (
                stage.checked_sub(1).map(|s| slot(WorkKind::Forward, s, mb)),
                None,
            ),
            _ => (
                Some(slot(WorkKind::Forward, stage, mb)),
                (stage + 1 < n_stages).then(|| slot(WorkKind::Backward, stage + 1, mb)),
            ),
        };
        first.into_iter().chain(second)
    };

    // Completion tick per op; `usize::MAX` = not started yet.
    let mut end = vec![usize::MAX; 2 * n_stages * n_micro];
    let mut heads: Vec<Vec<usize>> = streams.iter().map(|s| vec![0; s.len()]).collect();
    let mut free_at = vec![0usize; n_devices];
    let mut realized: Vec<Vec<(&Stream, WorkKind, usize)>> = vec![Vec::new(); n_devices];
    let total_ops: usize = streams.iter().flatten().map(|s| s.ops.len()).sum();
    let mut started = 0;
    let mut now = 0usize;
    while started < total_ops {
        let mut progressed = false;
        for dev in 0..n_devices {
            if free_at[dev] > now {
                continue;
            }
            // The dependency-ready head deepest in its pipeline (a device's
            // streams have distinct stages).
            let ready = |&(st, stream): &(usize, &Stream)| {
                stream.ops.get(heads[dev][st]).is_some_and(|&(kind, mb)| {
                    deps_of(kind, stream.stage, mb).all(|dep| end[dep] <= now)
                })
            };
            let best = streams[dev].iter().enumerate().filter(ready);
            let Some((st, stream)) = best.max_by_key(|(_, stream)| stream.stage) else {
                continue;
            };
            let (kind, mb) = stream.ops[heads[dev][st]];
            heads[dev][st] += 1;
            free_at[dev] = now + if kind == WorkKind::Forward { 1 } else { 2 };
            end[slot(kind, stream.stage, mb)] = free_at[dev];
            realized[dev].push((stream, kind, mb));
            started += 1;
            progressed = true;
        }
        if !progressed {
            // Nothing can start now: advance to the next completion. (An op
            // still running is the last one its device started, so the
            // busy devices' `free_at` are all the pending completions.)
            let next = free_at.iter().copied().filter(|&t| t > now).min();
            now = next.unwrap_or_else(|| {
                panic!("merge_streams: stalled at t={now} with {started}/{total_ops} ops")
            });
        }
    }

    let mut g = TaskGraph::new(name, n_devices, n_stages, n_micro);
    let mut id_of = vec![TaskId(0); end.len()];
    for (dev, ops) in realized.iter().enumerate() {
        for &(stream, kind, mb) in ops {
            id_of[slot(kind, stream.stage, mb)] = g.push(dev, stream.stage, Some(mb), kind, vec![]);
        }
    }
    let deps = g
        .tasks()
        .iter()
        .map(|t| {
            let mb = t.micro_batch.expect("streams carry micro-batches");
            let deps = deps_of(t.kind, t.stage, mb).map(|dep| id_of[dep]).collect();
            (t.id, deps)
        })
        .collect();
    g.set_deps(deps);
    g
}

/// Builds a GPipe schedule: each device runs all its forwards in micro-batch
/// order, then all backwards in reverse (LIFO) order, with a pipeline flush
/// at the end of the step.
///
/// # Panics
///
/// Panics if `n_stages == 0` or `n_micro == 0`.
pub fn build_gpipe(n_stages: usize, n_micro: usize) -> TaskGraph {
    assert!(n_stages > 0 && n_micro > 0, "build_gpipe: empty pipeline");
    let streams = (0..n_stages)
        .map(|stage| {
            let forwards = (0..n_micro).map(|m| (WorkKind::Forward, m));
            let backwards = (0..n_micro).rev().map(|m| (WorkKind::Backward, m));
            vec![Stream {
                stage,
                ops: forwards.chain(backwards).collect(),
            }]
        })
        .collect();
    merge_streams("gpipe", n_stages, n_micro, streams)
}

/// Builds a 1F1B (PipeDream-flush) schedule: warmup forwards, steady
/// one-forward-one-backward alternation, cooldown backwards.
///
/// # Panics
///
/// Panics if `n_stages == 0` or `n_micro == 0`.
pub fn build_1f1b(n_stages: usize, n_micro: usize) -> TaskGraph {
    assert!(n_stages > 0 && n_micro > 0, "build_1f1b: empty pipeline");
    let streams = (0..n_stages)
        .map(|stage| {
            vec![Stream {
                stage,
                ops: one_f_one_b_order(n_stages, stage, 0..n_micro),
            }]
        })
        .collect();
    merge_streams("1f1b", n_stages, n_micro, streams)
}

/// Builds a Chimera schedule with two bidirectional pipelines.
///
/// Device `d` hosts stage `d` of the *down* pipeline (micro-batches
/// `0..n_micro/2`) and stage `D−1−d` of the *up* pipeline (micro-batches
/// `n_micro/2..n_micro`). Each sub-pipeline contributes a 1F1B-ordered op
/// stream per device; merging the two streams deepest-ready-op-first under
/// `T_b = 2·T_f` reproduces the published Chimera interleaving (critical
/// path `D·T_f + (2D−2)·T_b` for `n_micro = D`).
///
/// # Panics
///
/// Panics if `n_stages` is odd or zero, or `n_micro` is odd or zero.
pub fn build_chimera(n_stages: usize, n_micro: usize) -> TaskGraph {
    assert!(
        n_stages > 0 && n_stages.is_multiple_of(2),
        "build_chimera: n_stages must be even"
    );
    assert!(
        n_micro > 0 && n_micro.is_multiple_of(2),
        "build_chimera: n_micro must be even"
    );
    let half = n_micro / 2;
    let streams = (0..n_stages)
        .map(|dev| {
            let up_stage = n_stages - 1 - dev;
            vec![
                Stream {
                    stage: dev,
                    ops: one_f_one_b_order(n_stages, dev, 0..half),
                },
                Stream {
                    stage: up_stage,
                    ops: one_f_one_b_order(n_stages, up_stage, half..n_micro),
                },
            ]
        })
        .collect();
    merge_streams("chimera", n_stages, n_micro, streams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Task;

    fn unit_cost(t: &Task) -> f64 {
        match t.kind {
            WorkKind::Forward => 1.0,
            WorkKind::Backward => 2.0,
            _ => 0.0,
        }
    }

    #[test]
    fn gpipe_validates_and_has_expected_makespan() {
        for d in [1, 2, 4, 8] {
            for n in [1, 2, 4, 8] {
                let g = build_gpipe(d, n);
                g.validate().unwrap();
                // GPipe makespan with T_f=1, T_b=2:
                // (D−1)·T_f + N·T_f + (D−1)·T_b + N·T_b = (N+D−1)·3.
                let expect = (n + d - 1) as f64 * 3.0;
                let got = g.makespan(unit_cost).unwrap();
                assert!(
                    (got - expect).abs() < 1e-9,
                    "d={d} n={n}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn one_f_one_b_validates_and_matches_gpipe_makespan() {
        // With flush and N ≥ D, 1F1B has the same critical path as GPipe
        // (the savings are in memory, not step time, per the paper's C_f/C_b).
        for d in [1, 2, 4] {
            for n in [4, 8] {
                let g = build_1f1b(d, n);
                g.validate().unwrap();
                let expect = (n + d - 1) as f64 * 3.0;
                let got = g.makespan(unit_cost).unwrap();
                assert!(
                    (got - expect).abs() < 1e-9,
                    "d={d} n={n}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn chimera_validates_across_sizes() {
        for d in [2, 4, 8, 16] {
            for n in [d, 2 * d, 4 * d] {
                let g = build_chimera(d, n);
                g.validate().unwrap_or_else(|e| panic!("d={d} n={n}: {e}"));
                assert_eq!(g.tasks().len(), 2 * d * n);
            }
        }
    }

    #[test]
    fn chimera_critical_path_matches_paper_table1() {
        // For N_micro = D and T_b = 2·T_f the paper gives
        // T_pipe = C_f·T_f + C_b·T_b with C_f = D, C_b = 2D−2.
        for d in [2, 4, 8, 16] {
            let g = build_chimera(d, d);
            let got = g.makespan(unit_cost).unwrap();
            let expect = d as f64 + (2 * d - 2) as f64 * 2.0;
            assert!(
                (got - expect).abs() < 1e-9,
                "d={d}: makespan {got}, paper model {expect}"
            );
        }
    }

    #[test]
    fn chimera_beats_gpipe_bubble_ratio() {
        for d in [4, 8] {
            let gp = build_gpipe(d, d).makespan(unit_cost).unwrap();
            let ch = build_chimera(d, d).makespan(unit_cost).unwrap();
            assert!(ch < gp, "d={d}: chimera {ch} not faster than gpipe {gp}");
        }
    }

    #[test]
    fn chimera_device_hosts_two_stages() {
        let g = build_chimera(4, 4);
        for dev in 0..4 {
            let stages: std::collections::HashSet<usize> = g
                .tasks()
                .iter()
                .filter(|t| t.device == dev)
                .map(|t| t.stage)
                .collect();
            assert_eq!(stages.len(), 2, "device {dev} stages {stages:?}");
            assert!(stages.contains(&dev));
            assert!(stages.contains(&(3 - dev)));
        }
    }

    #[test]
    fn scheme_enum_roundtrip() {
        for scheme in PipelineScheme::all() {
            let g = scheme.build(4, 4);
            g.validate().unwrap();
            assert_eq!(g.scheme_name(), scheme.name());
        }
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn chimera_odd_stages_panics() {
        let _ = build_chimera(3, 4);
    }
}
