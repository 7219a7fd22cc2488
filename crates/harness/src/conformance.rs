//! Conformance checker: validates the spans a pipelined run recorded
//! against the [`ExecutablePlan`] that drove it.
//!
//! Invariants checked, per training step:
//!
//! 1. **Program order** — each device's events, in timestamp order, are
//!    exactly the op list [`ExecutablePlan::expected_step`] gives for the
//!    step's K-FAC cadence: the forwards, backwards and K-FAC units the
//!    executor replays (same stage / micro-batch / slot or unit, same
//!    order, nothing missing, nothing extra, nothing on the wrong device).
//!    Lowering placed every unit after its prerequisites, so this also
//!    binds when folds and inversions run.
//! 2. **Track exclusivity** — no two slices on one device overlap in time;
//!    a device is one simulated accelerator and runs one thing at a time.

use pipefisher_core::{AuxKind, DevicePlan, ExecutablePlan, PlanOp};
use pipefisher_trace::{Phase, TraceEvent};

/// Time tolerance (µs) for cross-event ordering comparisons. Events on one
/// device come from one thread, whose span clocks are strictly monotonic,
/// so the tolerance only absorbs f64 rounding.
const TS_EPS: f64 = 1e-6;

/// What one recorded slice did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A stage forward for one micro-batch.
    Forward {
        /// Model stage.
        stage: usize,
        /// Micro-batch index.
        mb: usize,
        /// Activation slot the executor reported.
        slot: usize,
    },
    /// A stage backward for one micro-batch.
    Backward {
        /// Model stage.
        stage: usize,
        /// Micro-batch index.
        mb: usize,
        /// Activation slot the executor reported.
        slot: usize,
    },
    /// A K-FAC work unit (fold or inversion chunk).
    Aux {
        /// Unit kind.
        kind: AuxKind,
        /// Model stage the unit touches.
        stage: usize,
        /// Chunk index within the stage.
        chunk: usize,
        /// Total chunks of this (stage, kind).
        chunks: usize,
    },
}

/// One executor event reconstructed from a trace span's structured args.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecEvent {
    /// Training step the event belongs to.
    pub step: usize,
    /// Device (worker) that ran it.
    pub device: usize,
    /// What ran.
    pub kind: EventKind,
    /// Span start, microseconds since the sink epoch.
    pub ts_us: f64,
    /// Span duration in microseconds.
    pub dur_us: f64,
}

/// The K-FAC cadence of one training step, which determines the step's
/// expected aux events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepSpec {
    /// Whether the optimizer is K-FAC at all.
    pub kfac: bool,
    /// Whether the step folds fresh curvature (FoldA/FoldB units apply).
    pub refresh_curv: bool,
    /// Whether the step recomputes inverses (Invert units apply).
    pub refresh_inv: bool,
}

/// A conformance violation. Every variant pinpoints the step and device so
/// a failure can be traced back into the plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ConformanceError {
    /// A device's events diverged from its planned op list.
    ProgramOrder {
        /// Step the violation occurred in.
        step: usize,
        /// Device whose track diverged.
        device: usize,
        /// What diverged, with the first mismatch position.
        detail: String,
    },
    /// Two slices on one device track overlap in time.
    TrackOverlap {
        /// Step the violation occurred in.
        step: usize,
        /// Device whose track has overlapping slices.
        device: usize,
        /// The overlapping pair.
        detail: String,
    },
    /// An event references a step or device outside the checked run.
    UnexpectedEvent {
        /// Step the event claimed.
        step: usize,
        /// Device the event claimed.
        device: usize,
        /// What the event was.
        detail: String,
    },
}

impl std::fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConformanceError::ProgramOrder {
                step,
                device,
                detail,
            } => write!(
                f,
                "program order violated (step {step}, device {device}): {detail}"
            ),
            ConformanceError::TrackOverlap {
                step,
                device,
                detail,
            } => write!(
                f,
                "overlapping slices on one device (step {step}, device {device}): {detail}"
            ),
            ConformanceError::UnexpectedEvent {
                step,
                device,
                detail,
            } => write!(
                f,
                "event outside the run (step {step}, device {device}): {detail}"
            ),
        }
    }
}

impl std::error::Error for ConformanceError {}

fn arg_usize(ev: &TraceEvent, key: &str) -> Option<usize> {
    ev.args
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_i64())
        .filter(|&v| v >= 0)
        .map(|v| v as usize)
}

/// Reconstructs executor events from drained trace events, using the
/// structured span args the executor attaches (`step`, `device`, `stage`,
/// …). Spans from other subsystems (trainer phases) and
/// events without executor args are ignored.
pub fn extract_events(trace: &[TraceEvent]) -> Vec<ExecEvent> {
    let mut out = Vec::new();
    for ev in trace {
        if ev.phase != Phase::Complete {
            continue;
        }
        let kind = match (ev.cat.as_str(), ev.name.as_str()) {
            ("pipeline", "forward") | ("pipeline", "backward") => {
                let (Some(stage), Some(mb), Some(slot)) = (
                    arg_usize(ev, "stage"),
                    arg_usize(ev, "mb"),
                    arg_usize(ev, "slot"),
                ) else {
                    continue;
                };
                if ev.name == "forward" {
                    EventKind::Forward { stage, mb, slot }
                } else {
                    EventKind::Backward { stage, mb, slot }
                }
            }
            ("kfac", name @ ("curvature_a" | "curvature_b" | "inversion")) => {
                let (Some(stage), Some(chunk), Some(chunks)) = (
                    arg_usize(ev, "stage"),
                    arg_usize(ev, "chunk"),
                    arg_usize(ev, "chunks"),
                ) else {
                    continue;
                };
                let kind = match name {
                    "curvature_a" => AuxKind::FoldA,
                    "curvature_b" => AuxKind::FoldB,
                    _ => AuxKind::Invert,
                };
                EventKind::Aux {
                    kind,
                    stage,
                    chunk,
                    chunks,
                }
            }
            _ => continue,
        };
        let (Some(step), Some(device)) = (arg_usize(ev, "step"), arg_usize(ev, "device")) else {
            continue;
        };
        out.push(ExecEvent {
            step,
            device,
            kind,
            ts_us: ev.ts_us,
            dur_us: ev.dur_us,
        });
    }
    out
}

fn describe(kind: &EventKind) -> String {
    match kind {
        EventKind::Forward { stage, mb, slot } => format!("F(s{stage},mb{mb},slot{slot})"),
        EventKind::Backward { stage, mb, slot } => format!("B(s{stage},mb{mb},slot{slot})"),
        EventKind::Aux {
            kind,
            stage,
            chunk,
            chunks,
        } => format!("{kind:?}(s{stage},{chunk}/{chunks})"),
    }
}

fn plan_op_kind(device: &DevicePlan, op: &PlanOp) -> EventKind {
    match *op {
        PlanOp::Forward {
            stage, mb, slot, ..
        } => EventKind::Forward { stage, mb, slot },
        PlanOp::Backward {
            stage, mb, slot, ..
        } => EventKind::Backward { stage, mb, slot },
        PlanOp::Aux { unit } => {
            let a = device.aux[unit];
            EventKind::Aux {
                kind: a.kind,
                stage: a.stage,
                chunk: a.chunk,
                chunks: a.chunks,
            }
        }
    }
}

/// Checks a run's events against the plan that drove it. `specs[s]` gives
/// step `s`'s K-FAC cadence; the run must contain exactly `specs.len()`
/// steps' worth of events. Returns the number of events checked.
///
/// # Errors
///
/// The first violated invariant, as a [`ConformanceError`]. Steps are
/// checked in order, and within a step, program order before track
/// overlap.
pub fn check_conformance(
    plan: &ExecutablePlan,
    specs: &[StepSpec],
    events: &[ExecEvent],
) -> Result<usize, ConformanceError> {
    let n_devices = plan.devices.len();
    for ev in events {
        if ev.step >= specs.len() || ev.device >= n_devices {
            return Err(ConformanceError::UnexpectedEvent {
                step: ev.step,
                device: ev.device,
                detail: format!(
                    "{} outside the run's {} steps x {} devices",
                    describe(&ev.kind),
                    specs.len(),
                    n_devices
                ),
            });
        }
    }
    let mut checked = 0usize;
    for (step, spec) in specs.iter().enumerate() {
        let expected = plan.expected_step(spec.kfac, spec.refresh_curv, spec.refresh_inv);
        for (device, (dp, expected)) in plan.devices.iter().zip(&expected).enumerate() {
            let mut track: Vec<&ExecEvent> = events
                .iter()
                .filter(|e| e.step == step && e.device == device)
                .collect();
            track.sort_by(|a, b| a.ts_us.partial_cmp(&b.ts_us).expect("finite timestamps"));

            // 1. Program order: the events are the device's op list.
            let got: Vec<EventKind> = track.iter().map(|e| e.kind).collect();
            let want: Vec<EventKind> = expected.iter().map(|op| plan_op_kind(dp, op)).collect();
            if got != want {
                let pos = got
                    .iter()
                    .zip(want.iter())
                    .position(|(g, w)| g != w)
                    .unwrap_or_else(|| got.len().min(want.len()));
                let at = |v: &Vec<EventKind>| v.get(pos).map_or("<none>".to_string(), describe);
                return Err(ConformanceError::ProgramOrder {
                    step,
                    device,
                    detail: format!(
                        "{} of {} planned ops executed; first divergence at op {pos}: \
                         expected {}, got {}",
                        got.len(),
                        want.len(),
                        at(&want),
                        at(&got),
                    ),
                });
            }

            // 2. Track exclusivity: a device runs one slice at a time.
            for pair in track.windows(2) {
                let prev_end = pair[0].ts_us + pair[0].dur_us;
                if pair[1].ts_us + TS_EPS < prev_end {
                    return Err(ConformanceError::TrackOverlap {
                        step,
                        device,
                        detail: format!(
                            "{} [{:.3}, {:.3}]us overlaps {} starting at {:.3}us",
                            describe(&pair[0].kind),
                            pair[0].ts_us,
                            prev_end,
                            describe(&pair[1].kind),
                            pair[1].ts_us
                        ),
                    });
                }
            }
            checked += track.len();
        }
    }
    Ok(checked)
}
