//! The greedy bubble-filling assignment algorithm.

use pipefisher_perfmodel::Setting;
use pipefisher_pipeline::{Factor, TaskGraph, WorkKind};
use pipefisher_sim::{simulate, Interval, KfacShare, KindCost, Timeline};
use std::error::Error;
use std::fmt;

/// Assignment failures.
#[derive(Debug, Clone, PartialEq)]
pub enum AssignError {
    /// The pipeline schedule failed to simulate, or hosts one stage on
    /// more than two devices.
    Schedule(String),
    /// A work chunk is longer than every bubble of the step pattern (or its
    /// device has no bubble at all), so the static schedule cannot hide it
    /// (the paper's implicit feasibility condition). Carries the chunk
    /// kind, its duration, and the largest available bubble.
    DoesNotFit {
        /// Kind of the unplaceable work.
        kind: WorkKind,
        /// Duration of the chunk.
        duration: f64,
        /// Longest bubble in the per-step pattern.
        largest_bubble: f64,
    },
    /// Plan lowering found a (stage, micro-batch) pair with no matching
    /// task in the graph: the assignment's task ids do not cover the work,
    /// which previously would have been silently skipped at execution time.
    MissingTask {
        /// The absent task's kind (forward or backward).
        kind: WorkKind,
        /// Stage with missing coverage.
        stage: usize,
        /// Micro-batch with missing coverage.
        micro_batch: usize,
    },
}

impl fmt::Display for AssignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignError::Schedule(e) => write!(f, "schedule error: {e}"),
            AssignError::DoesNotFit {
                kind,
                duration,
                largest_bubble,
            } => write!(
                f,
                "{kind} chunk of {duration:.3} exceeds largest bubble {largest_bubble:.3}"
            ),
            AssignError::MissingTask {
                kind,
                stage,
                micro_batch,
            } => write!(
                f,
                "no {kind} task for stage {stage} micro-batch {micro_batch}: \
                 the assignment does not cover the graph"
            ),
        }
    }
}

impl Error for AssignError {}

/// One K-FAC work chunk placed into a bubble.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedWork {
    /// Local pipeline device (0..D).
    pub device: usize,
    /// Stage the work belongs to.
    pub stage: usize,
    /// Micro-batch (curvature only).
    pub micro_batch: Option<usize>,
    /// Kind (curvature / inversion / sync-curvature).
    pub kind: WorkKind,
    /// Absolute start time (step `floor(start / t_step)`).
    pub start: f64,
    /// Absolute end time.
    pub end: f64,
}

/// The finalized static schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PipeFisherSchedule {
    /// Standard-work timeline of one step (no K-FAC), on the D local devices.
    pub base_timeline: Timeline,
    /// Full timeline over [`PipeFisherSchedule::refresh_steps`] steps on all
    /// `D·W` devices: standard work + sync-grad + precondition + the placed
    /// K-FAC work.
    pub augmented_timeline: Timeline,
    /// Baseline step period: `T_pipe + T_sync_grad`.
    pub t_step_baseline: f64,
    /// PipeFisher step period: baseline + precondition tail.
    pub t_step: f64,
    /// Steps needed to refresh curvature + inverses once.
    pub refresh_steps: usize,
    /// Baseline utilization (standard work only, one step window).
    pub utilization_baseline: f64,
    /// PipeFisher utilization over one cold-start refresh window (the
    /// trailing bubbles of the window are idle because the next cycle's
    /// work is not yet modeled).
    pub utilization: f64,
    /// Steady-state refresh interval in steps: with refresh cycles running
    /// back to back (as in training), the binding device refreshes every
    /// `max_d(work_d / bubble_d)` steps (≥ 1).
    pub steady_refresh_steps: f64,
    /// Steady-state utilization with back-to-back refresh cycles — the
    /// number comparable to the paper's profiled utilizations (59.8 % →
    /// 97.6 % in Figure 4).
    pub steady_utilization: f64,
    /// The individual placements (for rendering/analysis).
    pub placements: Vec<PlacedWork>,
}

impl PipeFisherSchedule {
    /// Checks the internal invariants of a finalized schedule:
    ///
    /// 1. no two intervals overlap on any device,
    /// 2. every placement lies inside the multi-step window,
    /// 3. inversion work never precedes the last same-factor curvature
    ///    chunk of its (device, stage),
    /// 4. the step period is at least the baseline period,
    /// 5. utilizations are proper fractions and PipeFisher's is no worse
    ///    than the baseline.
    ///
    /// Returns a list of human-readable violations (empty = valid). Used by
    /// the property-test suite and available to downstream users who build
    /// schedules from custom cost models.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if !self.augmented_timeline.is_overlap_free(1e-9) {
            problems.push("overlapping intervals in the augmented timeline".to_string());
        }
        let window = self.refresh_steps as f64 * self.t_step + 1e-9;
        for p in &self.placements {
            if p.start < -1e-9 || p.end > window {
                problems.push(format!("placement outside window: {p:?}"));
            }
            if p.end < p.start {
                problems.push(format!("negative-length placement: {p:?}"));
            }
        }
        for p in &self.placements {
            if let WorkKind::Inversion(f) = p.kind {
                let last_curv = self
                    .placements
                    .iter()
                    .filter(|q| {
                        q.device == p.device
                            && q.stage == p.stage
                            && q.kind == WorkKind::Curvature(f)
                    })
                    .map(|q| q.end)
                    .fold(0.0f64, f64::max);
                if p.start + 1e-9 < last_curv {
                    problems.push(format!(
                        "inversion at {:.3} precedes curvature end {:.3} (dev {}, stage {})",
                        p.start, last_curv, p.device, p.stage
                    ));
                }
            }
        }
        if self.t_step + 1e-9 < self.t_step_baseline {
            problems.push("PipeFisher step shorter than baseline".to_string());
        }
        for (name, u) in [
            ("baseline", self.utilization_baseline),
            ("cold", self.utilization),
            ("steady", self.steady_utilization),
        ] {
            if !(0.0..=1.0 + 1e-9).contains(&u) {
                problems.push(format!("{name} utilization out of range: {u}"));
            }
        }
        if self.steady_utilization + 1e-9 < self.utilization_baseline {
            problems.push("PipeFisher steady utilization below baseline".to_string());
        }
        problems
    }
}

/// Free-segment bookkeeping for one device across steps.
struct FreeList {
    /// Per-step-pattern free segments within `[0, t_step)`.
    pattern: Vec<(f64, f64)>,
    /// Instantiated segments, absolute times, sorted; consumed on placement.
    segments: Vec<(f64, f64)>,
    /// Next step index to instantiate.
    next_step: usize,
    t_step: f64,
}

impl FreeList {
    fn new(pattern: Vec<(f64, f64)>, t_step: f64) -> Self {
        FreeList {
            pattern,
            segments: Vec::new(),
            next_step: 0,
            t_step,
        }
    }

    fn extend_one_step(&mut self) {
        let off = self.next_step as f64 * self.t_step;
        for &(s, e) in &self.pattern {
            self.segments.push((s + off, e + off));
        }
        self.next_step += 1;
    }

    fn largest_pattern_segment(&self) -> f64 {
        self.pattern.iter().map(|(s, e)| e - s).fold(0.0, f64::max)
    }

    /// Places a chunk of `dur` at a point ≥ `release` according to the fit
    /// strategy and returns `(start, end)`, instantiating later steps until
    /// one fits. Terminates when the pattern has a segment at least `dur`
    /// long (up to 1e-9), which [`assign`] checks first.
    fn place(&mut self, release: f64, dur: f64, fit: FitStrategy) -> (f64, f64) {
        loop {
            let mut chosen: Option<(usize, f64)> = None; // (index, start)
            for i in 0..self.segments.len() {
                let (s, e) = self.segments[i];
                let start = s.max(release);
                if start + dur > e + 1e-9 {
                    continue;
                }
                match fit {
                    FitStrategy::FirstFit => {
                        chosen = Some((i, start));
                        break;
                    }
                    FitStrategy::BestFit => {
                        let waste = (e - start) - dur;
                        let better = match chosen {
                            None => true,
                            Some((j, prev_start)) => {
                                let (ps, pe) = self.segments[j];
                                let prev_waste = (pe - ps.max(prev_start)) - dur;
                                waste < prev_waste - 1e-12
                            }
                        };
                        if better {
                            chosen = Some((i, start));
                        }
                    }
                }
            }
            if let Some((i, start)) = chosen {
                let (s, e) = self.segments[i];
                // Consume [start, start+dur); keep leftovers.
                let mut leftovers = Vec::new();
                if start > s + 1e-9 {
                    leftovers.push((s, start));
                }
                if start + dur < e - 1e-9 {
                    leftovers.push((start + dur, e));
                }
                self.segments.splice(i..=i, leftovers);
                return (start, start + dur);
            }
            self.extend_one_step();
        }
    }
}

/// How the greedy filler chooses among candidate bubbles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitStrategy {
    /// Earliest bubble that fits (the paper's queue-draining rule).
    #[default]
    FirstFit,
    /// Among the currently known bubbles that fit, the one leaving the
    /// least leftover space (classic best-fit; may start later).
    BestFit,
}

/// The knobs of [`assign`] that the task graph does not already state.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignOptions {
    /// Bubble-choice rule (design-choice ablation: `ablation_fit_strategy`).
    pub fit: FitStrategy,
    /// Data-parallel replicas per stage `W` (1 = no data parallelism):
    /// with `W > 1`, inversion work is split across replicas and
    /// `sync-curvature`/`sync-grad` collectives are inserted (§3.2).
    pub w: usize,
    /// Chunks each stage's curvature, sync-curvature and inversion work
    /// splits into — the paper's per-layer granularity (`A_l`/`B_l` are
    /// built and inverted layer by layer). Set this to the number of blocks
    /// per stage (or finer); `1` keeps whole-stage chunks.
    pub granularity: usize,
}

impl AssignOptions {
    /// The paper's first-fit assignment of `setting`: its `W`, one chunk
    /// per transformer block (`granularity = blocks_per_stage`). Run it on
    /// `setting.graph()` with `setting.costs()`; change a field with struct
    /// update syntax for the ablations (per-layer chunks, best fit).
    pub fn for_setting(setting: &Setting) -> Self {
        AssignOptions {
            fit: FitStrategy::FirstFit,
            w: setting.w,
            granularity: setting.blocks_per_stage,
        }
    }
}

/// Runs the automatic work assignment (paper §3.1–3.2) on **any** pipeline
/// schedule and finalizes the static schedule.
///
/// `costs` gives the per-stage work durations (from profiling or the
/// performance model). Everything else the assignment needs is read off
/// `graph`:
///
/// * if it holds `Recompute` tasks, `A`-factor curvature is released by the
///   recompute (the forward's activations were not stored), else by the
///   forward;
/// * a stage's hosts are the devices that run its forwards, and each
///   device places the work [`KfacShare`] charges it. A stage with two
///   hosts (Chimera's bidirectional pipelines, Figure 4) pays `sync-grad`
///   at any `W`, splits its inversion with its other host, and its
///   `sync-curvature` waits for both hosts' curvature.
///
/// # Errors
///
/// * [`AssignError::Schedule`] if the graph cannot be simulated, or a stage
///   has more than two hosts.
/// * [`AssignError::DoesNotFit`] if some chunk exceeds every bubble of its
///   device.
///
/// # Panics
///
/// Panics if `opts.w` is zero.
pub fn assign(
    graph: &TaskGraph,
    costs: &KindCost,
    opts: &AssignOptions,
) -> Result<PipeFisherSchedule, AssignError> {
    assert!(opts.w > 0, "assign: zero replicas");
    let base = simulate(graph, costs).map_err(|e| AssignError::Schedule(e.to_string()))?;
    let d = graph.n_devices();
    let t_pipe = base.makespan();

    // What each device pays for K-FAC, and whether `A` curvature waits for
    // a recompute — both from the schedule.
    let share = KfacShare::new(graph, opts.w, costs);
    if let Some(stage) = share.hosts.iter().position(|h| h.len() > 2) {
        return Err(AssignError::Schedule(format!(
            "stage {stage} has {} hosts; at most two can share its K-FAC work",
            share.hosts[stage].len()
        )));
    }
    let recomputed = graph.tasks().iter().any(|t| t.kind == WorkKind::Recompute);
    let sync_grad = share.sync_grad;

    // Tail pattern: sync-grad then precondition after each device's last
    // standard work; the step period stretches to cover the slowest device.
    let mut tail: Vec<Vec<Interval>> = vec![Vec::new(); d];
    let mut t_step = 0.0f64;
    for (dev, dev_tail) in tail.iter_mut().enumerate() {
        let last_end = base
            .intervals()
            .iter()
            .filter(|i| i.device == dev)
            .map(|i| i.end)
            .fold(0.0, f64::max);
        let mut cursor = last_end;
        for (kind, dur) in [
            (WorkKind::SyncGrad, sync_grad),
            (WorkKind::Precondition, share.prec[dev]),
        ] {
            if dur > 0.0 {
                dev_tail.push(Interval {
                    device: dev,
                    start: cursor,
                    end: cursor + dur,
                    kind,
                    stage: share.stages_of[dev].first().copied().unwrap_or(0),
                    micro_batch: None,
                });
                cursor += dur;
            }
        }
        t_step = t_step.max(cursor);
    }
    t_step = t_step.max(t_pipe);
    let t_step_baseline = t_pipe + sync_grad;

    // One-step pattern timeline (standard + tail) → free segments.
    let mut pattern_tl = base.clone();
    for dev_tail in &tail {
        for iv in dev_tail {
            pattern_tl.push(iv.clone());
        }
    }
    let mut free: Vec<FreeList> = (0..d)
        .map(|dev| FreeList::new(pattern_tl.bubbles(dev, t_step), t_step))
        .collect();

    // Work queue. Chunks are per (stage, factor, micro-batch) for curvature
    // and per (stage, factor) for inversion — the paper's granularity.
    struct Chunk {
        device: usize,
        stage: usize,
        micro_batch: Option<usize>,
        kind: WorkKind,
        release: f64,
        duration: f64,
    }
    let granularity = opts.granularity.max(1);
    let mut curvature_chunks: Vec<Chunk> = Vec::new();
    for iv in base.intervals() {
        // Rule 1 (§3.1): A-factor curvature after the pass that produced
        // the activations — the forward normally, the recompute under R.
        let (factor, t_curv) = match iv.kind {
            WorkKind::Forward if !recomputed => (Factor::A, costs.t_curv_a),
            WorkKind::Recompute => (Factor::A, costs.t_curv_a),
            WorkKind::Backward => (Factor::B, costs.t_curv_b),
            _ => continue,
        };
        if t_curv <= 0.0 {
            continue;
        }
        for _ in 0..granularity {
            curvature_chunks.push(Chunk {
                device: iv.device,
                stage: iv.stage,
                micro_batch: iv.micro_batch,
                kind: WorkKind::Curvature(factor),
                release: iv.end,
                duration: t_curv / granularity as f64,
            });
        }
    }
    curvature_chunks.sort_by(|a, b| a.release.partial_cmp(&b.release).unwrap());

    let mut placements: Vec<PlacedWork> = Vec::new();
    let place_chunk = |free: &mut Vec<FreeList>,
                       chunk: &Chunk,
                       placements: &mut Vec<PlacedWork>|
     -> Result<f64, AssignError> {
        let fl = &mut free[chunk.device];
        // A device without bubbles takes no chunk, however short.
        if fl.pattern.is_empty() || chunk.duration > fl.largest_pattern_segment() + 1e-9 {
            return Err(AssignError::DoesNotFit {
                kind: chunk.kind,
                duration: chunk.duration,
                largest_bubble: fl.largest_pattern_segment(),
            });
        }
        let (start, end) = fl.place(chunk.release, chunk.duration, opts.fit);
        placements.push(PlacedWork {
            device: chunk.device,
            stage: chunk.stage,
            micro_batch: chunk.micro_batch,
            kind: chunk.kind,
            start,
            end,
        });
        Ok(end)
    };

    // Rule 1: place curvature chunks; track per (device, stage, factor)
    // completion for rule 2.
    use std::collections::HashMap;
    let mut curv_done: HashMap<(usize, usize, Factor), f64> = HashMap::new();
    for chunk in &curvature_chunks {
        let end = place_chunk(&mut free, chunk, &mut placements)?;
        let factor = match chunk.kind {
            WorkKind::Curvature(f) => f,
            _ => unreachable!(),
        };
        let key = (chunk.device, chunk.stage, factor);
        let e = curv_done.entry(key).or_insert(0.0);
        *e = e.max(end);
    }

    // §3.2: sync-curvature across replicas, then split inversion.
    // Replicas run the identical schedule, so placement is replica-symmetric
    // and computed once on the D local devices.
    for (dev, stages) in share.stages_of.iter().enumerate() {
        for &stage in stages {
            // With a second host, that host's curvature must also finish
            // before sync/inversion.
            let pair_dev = share.hosts[stage].iter().copied().find(|&h| h != dev);
            let curv_end = |factor: Factor| -> f64 {
                let done = |dev| curv_done.get(&(dev, stage, factor)).copied().unwrap_or(0.0);
                pair_dev.map_or(done(dev), |p| done(dev).max(done(p)))
            };
            let rel_a = curv_end(Factor::A);
            let rel_b = curv_end(Factor::B);
            let (mut inv_rel_a, mut inv_rel_b) = (rel_a, rel_b);
            let sync_curv = share.sync_curv[stage];
            if sync_curv > 0.0 {
                // The factor allreduce is chunked per layer like the rest of
                // the K-FAC work (collectives pipeline naturally).
                let sync_release = rel_a.max(rel_b);
                let mut end = sync_release;
                for _ in 0..granularity {
                    end = end.max(place_chunk(
                        &mut free,
                        &Chunk {
                            device: dev,
                            stage,
                            micro_batch: None,
                            kind: WorkKind::SyncCurvature,
                            release: sync_release,
                            duration: sync_curv / granularity as f64,
                        },
                        &mut placements,
                    )?);
                }
                inv_rel_a = end;
                inv_rel_b = end;
            }
            let inv_split = share.copies[stage];
            for (factor, t_inv, rel) in [
                (Factor::A, costs.t_inv_a, inv_rel_a),
                (Factor::B, costs.t_inv_b, inv_rel_b),
            ] {
                let dur = t_inv / (inv_split * granularity) as f64;
                if dur <= 0.0 {
                    continue;
                }
                for _ in 0..granularity {
                    place_chunk(
                        &mut free,
                        &Chunk {
                            device: dev,
                            stage,
                            micro_batch: None,
                            kind: WorkKind::Inversion(factor),
                            release: rel,
                            duration: dur,
                        },
                        &mut placements,
                    )?;
                }
            }
        }
    }

    // Finalize: refresh interval and the augmented multi-step timeline.
    let last_end = placements.iter().map(|p| p.end).fold(t_step, f64::max);
    let refresh_steps = (last_end / t_step - 1e-9).ceil().max(1.0) as usize;

    let n_global = d * opts.w;
    let mut augmented = Timeline::new(n_global);
    for step in 0..refresh_steps {
        let off = step as f64 * t_step;
        for replica in 0..opts.w {
            let dev_off = replica * d;
            for iv in pattern_tl.intervals() {
                augmented.push(Interval {
                    device: dev_off + iv.device,
                    start: iv.start + off,
                    end: iv.end + off,
                    ..iv.clone()
                });
            }
        }
    }
    for p in &placements {
        for replica in 0..opts.w {
            augmented.push(Interval {
                device: replica * d + p.device,
                start: p.start,
                end: p.end,
                kind: p.kind,
                stage: p.stage,
                micro_batch: p.micro_batch,
            });
        }
    }

    let window = refresh_steps as f64 * t_step;
    let utilization = augmented.utilization_in(0.0, window);

    // Steady state: refresh cycles run back to back, so a device's bubbles
    // host work from consecutive cycles. The binding device sets the cycle
    // length; others fill a proportional share of their bubbles.
    let mut steady_refresh_steps: f64 = 1.0;
    let mut work_per_device = vec![0.0f64; d];
    for p in &placements {
        work_per_device[p.device] += p.end - p.start;
    }
    let busy_per_device: Vec<f64> = (0..d).map(|dev| pattern_tl.device_busy(dev)).collect();
    for dev in 0..d {
        let bubble = (t_step - busy_per_device[dev]).max(1e-12);
        steady_refresh_steps = steady_refresh_steps.max(work_per_device[dev] / bubble);
    }
    let steady_busy: f64 = (0..d)
        .map(|dev| busy_per_device[dev] + work_per_device[dev] / steady_refresh_steps)
        .sum();
    let steady_utilization = steady_busy / (t_step * d as f64);
    // The baseline optimizer performs the same sync-grad, so it counts as
    // busy time in both utilizations (NCCL kernels execute on the GPU).
    let std_busy: f64 = (0..d).map(|dev| base.device_busy(dev)).sum::<f64>() + sync_grad * d as f64;
    let utilization_baseline = std_busy / (t_step_baseline * d as f64);

    Ok(PipeFisherSchedule {
        base_timeline: base,
        augmented_timeline: augmented,
        t_step_baseline,
        t_step,
        refresh_steps,
        utilization_baseline,
        utilization,
        steady_refresh_steps,
        steady_utilization,
        placements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefisher_perfmodel::{model_step, HardwareProfile, TransformerConfig};
    use pipefisher_pipeline::{with_recompute, PipelineScheme};

    fn kfac_costs(scale: f64) -> KindCost {
        KindCost {
            t_f: 1.0,
            t_b: 2.0,
            t_recompute: 0.0,
            t_curv_a: 0.4 * scale,
            t_curv_b: 0.4 * scale,
            t_inv_a: 0.6 * scale,
            t_inv_b: 0.6 * scale,
            t_prec: 0.2 * scale,
            t_sync_grad: 0.1,
            t_sync_curv: 0.1,
        }
    }

    fn opts(w: usize) -> AssignOptions {
        AssignOptions {
            fit: FitStrategy::FirstFit,
            w,
            granularity: 1,
        }
    }

    fn run(
        scheme: PipelineScheme,
        d: usize,
        w: usize,
        costs: &KindCost,
    ) -> Result<PipeFisherSchedule, AssignError> {
        assign(&scheme.build(d, 4), costs, &opts(w))
    }

    #[test]
    fn gpipe_assignment_improves_utilization() {
        let s = run(PipelineScheme::GPipe, 4, 1, &kfac_costs(1.0)).unwrap();
        assert!(
            s.utilization > s.utilization_baseline + 0.1,
            "util {} vs baseline {}",
            s.utilization,
            s.utilization_baseline
        );
        assert!(s.augmented_timeline.is_overlap_free(1e-9));
    }

    #[test]
    fn all_schemes_assign_cleanly() {
        for scheme in PipelineScheme::all() {
            let s = run(scheme, 4, 1, &kfac_costs(1.0)).unwrap();
            let problems = s.check_invariants();
            assert!(problems.is_empty(), "{}: {problems:?}", scheme.name());
            assert!(
                s.augmented_timeline.is_overlap_free(1e-9),
                "{}",
                scheme.name()
            );
            assert!(
                s.refresh_steps >= 1 && s.refresh_steps <= 8,
                "{}",
                scheme.name()
            );
            assert!(s.utilization > s.utilization_baseline, "{}", scheme.name());
        }
    }

    #[test]
    fn work_conservation() {
        // Total placed K-FAC time must equal the queue's total work.
        let s = run(PipelineScheme::GPipe, 4, 1, &kfac_costs(1.0)).unwrap();
        let placed: f64 = s.placements.iter().map(|p| p.end - p.start).sum();
        // Per device: n_micro·(t_curv_a + t_curv_b) + t_inv_a + t_inv_b,
        // summed over 4 devices (1 stage each).
        let expect = 4.0 * (4.0 * 0.8 + 1.2);
        assert!(
            (placed - expect).abs() < 1e-9,
            "placed {placed}, expect {expect}"
        );
    }

    #[test]
    fn releases_are_respected() {
        let s = run(PipelineScheme::OneFOneB, 4, 1, &kfac_costs(1.0)).unwrap();
        // Curvature A for (stage, mb) must start after that forward's end in
        // the base timeline.
        for p in &s.placements {
            if let WorkKind::Curvature(Factor::A) = p.kind {
                let f_end = s
                    .base_timeline
                    .intervals()
                    .iter()
                    .find(|i| {
                        i.kind == WorkKind::Forward
                            && i.stage == p.stage
                            && i.micro_batch == p.micro_batch
                    })
                    .unwrap()
                    .end;
                assert!(p.start >= f_end - 1e-9, "{p:?} before forward end {f_end}");
            }
        }
        // Inversion must start after every same-factor curvature chunk of
        // its (device, stage).
        for p in &s.placements {
            if let WorkKind::Inversion(f) = p.kind {
                let latest_curv = s
                    .placements
                    .iter()
                    .filter(|q| {
                        q.device == p.device
                            && q.stage == p.stage
                            && q.kind == WorkKind::Curvature(f)
                    })
                    .map(|q| q.end)
                    .fold(0.0, f64::max);
                assert!(p.start >= latest_curv - 1e-9);
            }
        }
    }

    #[test]
    fn heavier_kfac_work_takes_more_steps() {
        let light = run(PipelineScheme::Chimera, 4, 1, &kfac_costs(0.5)).unwrap();
        let heavy = run(PipelineScheme::Chimera, 4, 1, &kfac_costs(2.0)).unwrap();
        assert!(heavy.refresh_steps >= light.refresh_steps);
        assert!(heavy.refresh_steps >= 2, "heavy should span multiple steps");
    }

    #[test]
    fn precondition_is_the_only_step_overhead() {
        let s = run(PipelineScheme::GPipe, 4, 1, &kfac_costs(1.0)).unwrap();
        // t_step = t_pipe + t_prec (w=1 → no sync-grad).
        let t_pipe = s.base_timeline.makespan();
        assert!((s.t_step - (t_pipe + 0.2)).abs() < 1e-9);
        assert!((s.t_step_baseline - t_pipe).abs() < 1e-9);
    }

    #[test]
    fn data_parallel_replicas_share_inversion() {
        let w1 = run(PipelineScheme::GPipe, 4, 1, &kfac_costs(1.0)).unwrap();
        let w2 = run(PipelineScheme::GPipe, 4, 2, &kfac_costs(1.0)).unwrap();
        let inv_time = |s: &PipeFisherSchedule| -> f64 {
            s.placements
                .iter()
                .filter(|p| matches!(p.kind, WorkKind::Inversion(_)))
                .map(|p| p.end - p.start)
                .sum()
        };
        assert!((inv_time(&w2) - inv_time(&w1) / 2.0).abs() < 1e-9);
        // Sync work appears only with replicas.
        assert!(w2
            .placements
            .iter()
            .any(|p| p.kind == WorkKind::SyncCurvature));
        assert!(!w1
            .placements
            .iter()
            .any(|p| p.kind == WorkKind::SyncCurvature));
        // And the augmented timeline covers D·W devices.
        assert_eq!(w2.augmented_timeline.n_devices(), 8);
    }

    #[test]
    fn recompute_grows_bubbles_and_moves_a_releases() {
        let mut costs = kfac_costs(1.0);
        costs.t_recompute = 1.0;
        let plain = run(PipelineScheme::GPipe, 4, 1, &costs).unwrap();
        let r = assign(
            &with_recompute(&PipelineScheme::GPipe.build(4, 4)),
            &costs,
            &opts(1),
        )
        .unwrap();
        // Longer steps but more bubble: refresh no slower in steady state.
        assert!(r.t_step > plain.t_step);
        assert!(r.steady_refresh_steps <= plain.steady_refresh_steps + 1e-9);
        // A-curvature placements start no earlier than the recompute that
        // re-materializes the activations.
        for p in &r.placements {
            if let WorkKind::Curvature(Factor::A) = p.kind {
                let recompute_end = r
                    .base_timeline
                    .intervals()
                    .iter()
                    .find(|i| {
                        i.kind == WorkKind::Recompute
                            && i.stage == p.stage
                            && i.micro_batch == p.micro_batch
                    })
                    .expect("recompute interval exists")
                    .end;
                assert!(p.start >= recompute_end - 1e-9);
            }
        }
    }

    #[test]
    fn chimera_stage_hosts_split_inversion_and_sync_curvature() {
        let costs = kfac_costs(1.0);
        let s = run(PipelineScheme::Chimera, 4, 1, &costs).unwrap();
        // Each host inverts half of each of its two stages' factors.
        for dev in 0..4 {
            for stage in [dev, 3 - dev] {
                let inv: f64 = s
                    .placements
                    .iter()
                    .filter(|p| p.device == dev && p.stage == stage)
                    .filter(|p| matches!(p.kind, WorkKind::Inversion(_)))
                    .map(|p| p.end - p.start)
                    .sum();
                let half = (costs.t_inv_a + costs.t_inv_b) / 2.0;
                assert!((inv - half).abs() < 1e-9, "dev {dev} stage {stage}: {inv}");
            }
        }
        // Stage replicas across the two pipelines pay both collectives at
        // W = 1.
        assert!(s
            .placements
            .iter()
            .any(|p| p.kind == WorkKind::SyncCurvature));
        assert!(s.t_step_baseline > s.base_timeline.makespan());
    }

    #[test]
    fn a_stage_on_three_hosts_is_rejected() {
        let mut g = TaskGraph::new("replicated", 3, 1, 3);
        for dev in 0..3 {
            let f = g.push(dev, 0, Some(dev), WorkKind::Forward, vec![]);
            g.push(dev, 0, Some(dev), WorkKind::Backward, vec![f]);
        }
        match assign(&g, &kfac_costs(1.0), &opts(1)) {
            Err(AssignError::Schedule(msg)) => assert!(msg.contains("3 hosts"), "{msg}"),
            other => panic!("expected Schedule, got {other:?}"),
        }
    }

    #[test]
    fn oversized_chunk_is_rejected() {
        let mut costs = kfac_costs(1.0);
        costs.t_inv_a = 1e6;
        match run(PipelineScheme::GPipe, 4, 1, &costs) {
            Err(AssignError::DoesNotFit {
                kind: WorkKind::Inversion(Factor::A),
                ..
            }) => {}
            other => panic!("expected DoesNotFit, got {other:?}"),
        }
    }

    #[test]
    fn a_device_without_bubbles_takes_no_chunk() {
        // D = 1: forwards, backwards and the precondition fill the step, so
        // even a chunk below the 1e-9 fit tolerance has nowhere to go.
        let mut costs = kfac_costs(1.0);
        costs.t_curv_a = 1e-10;
        match run(PipelineScheme::GPipe, 1, 1, &costs) {
            Err(AssignError::DoesNotFit {
                kind: WorkKind::Curvature(Factor::A),
                largest_bubble,
                ..
            }) => assert_eq!(largest_bubble, 0.0),
            other => panic!("expected DoesNotFit, got {other:?}"),
        }
    }

    #[test]
    fn chimera_paper_setup_refresh_interval() {
        // Fig. 1-like GPipe setup: the queue drains within a small number of
        // steps (the paper reports 2 for its Fig. 3 profile).
        let s = run(PipelineScheme::GPipe, 4, 1, &kfac_costs(1.0)).unwrap();
        assert!(s.refresh_steps <= 3, "refresh {}", s.refresh_steps);
    }

    #[test]
    fn paper_settings_are_assignable_at_their_own_w() {
        let fig3 = Setting::fig3(PipelineScheme::GPipe, 2);
        let opts = AssignOptions::for_setting(&fig3);
        assert_eq!((opts.w, opts.granularity), (2, 3));
        let sched = assign(&fig3.graph(), &fig3.costs(), &opts).unwrap();
        assert!(sched.utilization > sched.utilization_baseline);

        let fig4 = Setting::fig4();
        let opts = AssignOptions::for_setting(&fig4);
        let sched = assign(&fig4.graph(), &fig4.costs(), &opts).unwrap();
        let util = sched.steady_utilization;
        assert!(util > 0.9, "util {util}");
    }

    #[test]
    fn model_step_charges_each_device_what_assign_places() {
        let grid = PipelineScheme::all().into_iter().flat_map(|scheme| {
            [1usize, 2].into_iter().flat_map(move |w| {
                [(4usize, 4usize), (4, 32), (8, 8), (8, 32)]
                    .into_iter()
                    .map(move |(d, b_micro)| Setting {
                        arch: TransformerConfig::bert_base(),
                        hw: HardwareProfile::p100(),
                        scheme,
                        d,
                        n_micro: d,
                        b_micro,
                        blocks_per_stage: 1,
                        w,
                        recompute: false,
                    })
            })
        });
        let presets = PipelineScheme::all()
            .map(|scheme| Setting::fig3(scheme, 1))
            .into_iter()
            .chain([Setting::fig4(), Setting::fig6()]);
        let mut checked = Vec::new();
        for s in grid.chain(presets) {
            let costs = s.costs();
            let Ok(sched) = assign(&s.graph(), &costs, &AssignOptions::for_setting(&s)) else {
                continue;
            };
            let m = model_step(&s, &costs);
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
            assert!(
                close(m.ratio.max(1.0), sched.steady_refresh_steps),
                "{s:?}: ratio {} vs {}",
                m.ratio,
                sched.steady_refresh_steps
            );
            assert!(
                close(m.t_step_pipefisher, sched.t_step),
                "{s:?}: step {} vs {}",
                m.t_step_pipefisher,
                sched.t_step
            );
            checked.push(s.scheme);
        }
        for scheme in PipelineScheme::all() {
            let n = checked.iter().filter(|&&c| c == scheme).count();
            assert!(n >= 4, "{}: only {n} settings assignable", scheme.name());
        }
    }
}
