//! Mutation validation of the conformance checker: a checker that accepts
//! everything proves nothing, so every class of corruption — dropped,
//! duplicated, reordered, device-moved, premature, late, overlapping, and
//! out-of-range events — must make it fail on an otherwise-genuine trace.

use pipefisher_core::AuxKind;
use pipefisher_harness::{
    check_conformance, execute, ConformanceError, EventKind, ExecEvent, Execution, FaultPlan,
    OptimizerKind, Scenario,
};
use pipefisher_pipeline::PipelineScheme;
use std::sync::OnceLock;

/// A fault-free K-FAC scenario whose plan exercises both devices, folds,
/// and inversions every step.
fn base_scenario() -> Scenario {
    Scenario {
        seed: 0xC0FFEE,
        scheme: PipelineScheme::OneFOneB,
        n_stages: 2,
        n_micro: 4,
        steps: 3,
        optimizer: OptimizerKind::Kfac {
            curvature_interval: 1,
            inversion_interval: 2,
        },
        fill_bubbles: true,
        data_seed: 7,
        fault: FaultPlan::quiet(0xC0FFEE),
    }
}

/// One genuine execution, shared by every mutation (the run itself is the
/// expensive part; mutations are pure data edits).
fn genuine() -> &'static Execution {
    static EX: OnceLock<Execution> = OnceLock::new();
    EX.get_or_init(|| {
        let ex = execute(&base_scenario());
        assert!(ex.result.is_ok(), "base scenario must run clean");
        ex
    })
}

fn check(events: &[ExecEvent]) -> Result<usize, ConformanceError> {
    let ex = genuine();
    check_conformance(&ex.plan, &ex.specs, events)
}

fn find(events: &[ExecEvent], pred: impl Fn(&ExecEvent) -> bool) -> usize {
    events
        .iter()
        .position(pred)
        .expect("trace contains the event class this mutation targets")
}

fn is_pipeline(e: &ExecEvent) -> bool {
    !matches!(e.kind, EventKind::Aux { .. })
}

#[test]
fn genuine_trace_conforms() {
    let ex = genuine();
    let checked = check(&ex.events).expect("unmutated trace must pass");
    assert_eq!(checked, ex.events.len(), "every event must be checked");
    assert!(checked > 0, "trace must not be empty");
}

#[test]
fn dropped_pipeline_event_fails() {
    let mut events = genuine().events.clone();
    events.remove(find(&events, is_pipeline));
    let err = check(&events).expect_err("dropped forward/backward must fail");
    assert!(
        matches!(err, ConformanceError::ProgramOrder { .. }),
        "got: {err}"
    );
}

#[test]
fn duplicated_pipeline_event_fails() {
    let mut events = genuine().events.clone();
    let dup = events[find(&events, is_pipeline)].clone();
    events.push(dup);
    let err = check(&events).expect_err("duplicated forward/backward must fail");
    assert!(
        matches!(err, ConformanceError::ProgramOrder { .. }),
        "got: {err}"
    );
}

#[test]
fn reordered_pipeline_events_fail() {
    let mut events = genuine().events.clone();
    // Swap the timestamps of two *distinct* consecutive pipeline events of
    // one device track, reversing their observed order.
    let a = find(&events, is_pipeline);
    let b = find(&events, |e| {
        is_pipeline(e) && e.device == events[a].device && e.ts_us > events[a].ts_us
    });
    let (ta, tb) = (events[a].ts_us, events[b].ts_us);
    events[a].ts_us = tb;
    events[b].ts_us = ta;
    // Neutralize durations so the swap cannot fail as a mere overlap.
    events[a].dur_us = 0.0;
    events[b].dur_us = 0.0;
    let err = check(&events).expect_err("reordered ops must fail");
    assert!(
        matches!(err, ConformanceError::ProgramOrder { .. }),
        "got: {err}"
    );
}

#[test]
fn device_moved_event_fails() {
    let mut events = genuine().events.clone();
    let i = find(&events, is_pipeline);
    events[i].device = (events[i].device + 1) % genuine().plan.devices.len();
    let err = check(&events).expect_err("event on the wrong device must fail");
    assert!(
        matches!(err, ConformanceError::ProgramOrder { .. }),
        "got: {err}"
    );
}

#[test]
fn dropped_aux_unit_fails() {
    let mut events = genuine().events.clone();
    events.remove(find(&events, |e| matches!(e.kind, EventKind::Aux { .. })));
    let err = check(&events).expect_err("dropped K-FAC unit must fail");
    assert!(
        matches!(err, ConformanceError::ProgramOrder { .. }),
        "got: {err}"
    );
}

#[test]
fn duplicated_aux_unit_fails() {
    let mut events = genuine().events.clone();
    let i = find(&events, |e| matches!(e.kind, EventKind::Aux { .. }));
    let mut dup = events[i].clone();
    // Place the copy well after the original so it is not also an overlap.
    dup.ts_us += 1e9;
    events.push(dup);
    let err = check(&events).expect_err("double-executed K-FAC unit must fail");
    assert!(
        matches!(err, ConformanceError::ProgramOrder { .. }),
        "got: {err}"
    );
}

#[test]
fn premature_fold_fails() {
    let mut events = genuine().events.clone();
    let i = find(&events, |e| {
        matches!(
            e.kind,
            EventKind::Aux {
                kind: AuxKind::FoldA | AuxKind::FoldB,
                ..
            }
        )
    });
    // Pretend the fold ran before anything else — before its stage's
    // capture micro-batch existed.
    events[i].ts_us = -1.0;
    events[i].dur_us = 0.0;
    let err = check(&events).expect_err("fold before capture must fail");
    assert!(
        matches!(err, ConformanceError::ProgramOrder { .. }),
        "got: {err}"
    );
}

#[test]
fn invert_before_folds_fails() {
    let ex = genuine();
    let mut events = ex.events.clone();
    // Find an inversion in a step that also refreshes curvature, and a
    // fold of the same step/device/stage to slip in front of.
    let i = find(&events, |e| {
        matches!(
            e.kind,
            EventKind::Aux {
                kind: AuxKind::Invert,
                ..
            }
        ) && ex.specs[e.step].refresh_curv
    });
    let (step, device) = (events[i].step, events[i].device);
    let EventKind::Aux { stage, .. } = events[i].kind else {
        unreachable!()
    };
    let fold_start = events
        .iter()
        .filter(|e| {
            e.step == step
                && e.device == device
                && matches!(
                    e.kind,
                    EventKind::Aux { kind: AuxKind::FoldA | AuxKind::FoldB, stage: s, .. }
                    if s == stage
                )
        })
        .map(|e| e.ts_us)
        .fold(f64::INFINITY, f64::min);
    events[i].ts_us = fold_start; // starts when the first fold starts
    events[i].dur_us = 0.0;
    let err = check(&events).expect_err("inversion before its folds must fail");
    assert!(
        matches!(err, ConformanceError::ProgramOrder { .. }),
        "got: {err}"
    );
}

/// A unit moved past the next pipeline op on its device — still after its
/// prerequisites and overlapping nothing — ran at a position the plan did
/// not give it.
#[test]
fn aux_moved_past_the_next_pipeline_op_fails() {
    let mut events = genuine().events.clone();
    let on_track = |i: usize, events: &[ExecEvent]| {
        let mut track: Vec<usize> = (0..events.len())
            .filter(|&j| events[j].step == events[i].step && events[j].device == events[i].device)
            .collect();
        track.sort_by(|&a, &b| events[a].ts_us.total_cmp(&events[b].ts_us));
        track
    };
    // An aux event whose successor on its track is a pipeline op.
    let (i, track, at) = (0..events.len())
        .filter(|&i| !is_pipeline(&events[i]))
        .find_map(|i| {
            let track = on_track(i, &events);
            let at = track.iter().position(|&j| j == i)?;
            let next = *track.get(at + 1)?;
            is_pipeline(&events[next]).then_some((i, track, at))
        })
        .expect("a K-FAC unit fills a bubble before a pipeline op");
    let op = &events[track[at + 1]];
    let op_end = op.ts_us + op.dur_us;
    // Halfway into the gap after that op, with no duration.
    let after = track.get(at + 2).map_or(op_end + 1.0, |&k| events[k].ts_us);
    assert!(after > op_end, "the op is followed by a gap");
    events[i].ts_us = (op_end + after) / 2.0;
    events[i].dur_us = 0.0;
    let err = check(&events).expect_err("aux entry run past its position must fail");
    assert!(
        matches!(err, ConformanceError::ProgramOrder { .. }),
        "got: {err}"
    );
}

#[test]
fn overlapping_slices_fail() {
    let mut events = genuine().events.clone();
    // Stretch a warm-up (non-capture) forward over its successor.
    let i = find(
        &events,
        |e| matches!(e.kind, EventKind::Forward { mb, .. } if mb == 0),
    );
    let next_start = events
        .iter()
        .filter(|e| e.device == events[i].device && e.ts_us > events[i].ts_us)
        .map(|e| e.ts_us)
        .fold(f64::INFINITY, f64::min);
    assert!(next_start.is_finite(), "device track has a successor event");
    events[i].dur_us = (next_start - events[i].ts_us) * 2.0;
    let err = check(&events).expect_err("overlapping device slices must fail");
    assert!(
        matches!(err, ConformanceError::TrackOverlap { .. }),
        "got: {err}"
    );
}

#[test]
fn out_of_range_step_or_device_fails() {
    let mut events = genuine().events.clone();
    events[0].step = 99;
    let err = check(&events).expect_err("phantom step must fail");
    assert!(
        matches!(err, ConformanceError::UnexpectedEvent { .. }),
        "got: {err}"
    );

    let mut events = genuine().events.clone();
    events[0].device = 99;
    let err = check(&events).expect_err("phantom device must fail");
    assert!(
        matches!(err, ConformanceError::UnexpectedEvent { .. }),
        "got: {err}"
    );
}
