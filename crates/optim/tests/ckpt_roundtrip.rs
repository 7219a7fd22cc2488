//! Optimizer state checkpointing: save → load mid-run must be invisible.
//!
//! For each of the four optimizers, an interrupted run (k steps → export
//! state → import into a fresh instance → N−k more steps) must produce
//! bit-identical parameters to an uninterrupted N-step run. k is chosen so
//! the interruption lands *mid-cadence* for the interval-driven K-FAC
//! (curvature/inversion), proving the cadence phase is part of the
//! captured state.

use pipefisher_nn::{
    cross_entropy_backward, export_params_with, import_params_with, ForwardCtx, Layer, Linear, Tape,
};
use pipefisher_optim::{Adam, Kfac, KfacConfig, Lamb, Optimizer, Sgd, StateSnapshot};
use pipefisher_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

const D_IN: usize = 5;
const CLASSES: usize = 3;
const LR: f64 = 0.05;
const TOTAL: u64 = 9;
/// Mid-cadence for the interval-3 K-FAC: 4 % 3 != 0.
const KILL_AT: u64 = 4;

fn fresh_problem() -> (Linear, Matrix, Vec<i64>) {
    let mut rng = StdRng::seed_from_u64(17);
    let lin = Linear::new("fc", D_IN, CLASSES, &mut rng);
    let x = init::normal(12, D_IN, 1.0, &mut rng);
    let targets: Vec<i64> = (0..12).map(|i| (i % CLASSES) as i64).collect();
    (lin, x, targets)
}

fn first_order_steps<O: Optimizer>(
    lin: &mut Linear,
    opt: &mut O,
    x: &Matrix,
    targets: &[i64],
    steps: u64,
) {
    for _ in 0..steps {
        lin.zero_grad();
        let tape = &mut Tape::new(ForwardCtx::train_with_capture());
        let logits = lin.forward(x.clone(), tape);
        let d = cross_entropy_backward(&logits, targets);
        let _ = lin.backward(&d, tape);
        opt.begin_step();
        lin.visit_params(&mut |p| opt.step_param(p, LR));
    }
}

fn kfac_steps(lin: &mut Linear, opt: &mut Kfac<Sgd>, x: &Matrix, targets: &[i64], steps: u64) {
    for _ in 0..steps {
        lin.zero_grad();
        let tape = &mut Tape::new(ForwardCtx::train_with_capture());
        let logits = lin.forward(x.clone(), tape);
        let d = cross_entropy_backward(&logits, targets);
        let _ = lin.backward(&d, tape);
        opt.step(lin, LR);
    }
}

fn param_bits(lin: &mut Linear) -> Vec<u64> {
    let mut bits = Vec::new();
    lin.visit_params(&mut |p| bits.extend(p.value.as_slice().iter().map(|v| v.to_bits())));
    bits
}

/// Generic interrupted-vs-uninterrupted harness; `drive` advances one
/// optimizer family's training loop.
fn assert_resume_invisible<O: StateSnapshot>(
    make: impl Fn() -> O,
    drive: impl Fn(&mut Linear, &mut O, &Matrix, &[i64], u64),
) {
    // Uninterrupted oracle.
    let (mut lin_full, x, targets) = fresh_problem();
    let mut opt_full = make();
    drive(&mut lin_full, &mut opt_full, &x, &targets, TOTAL);
    let want = param_bits(&mut lin_full);

    // Interrupted run: k steps, checkpoint, drop everything.
    let (mut lin_a, x, targets) = fresh_problem();
    let mut opt_a = make();
    drive(&mut lin_a, &mut opt_a, &x, &targets, KILL_AT);
    let params = export_params_with(|f| lin_a.visit_params(f));
    let state = opt_a.export_state();
    drop((lin_a, opt_a));

    // Resume into fresh instances.
    let (mut lin_b, x, targets) = fresh_problem();
    import_params_with(&params, |f| lin_b.visit_params(f)).unwrap();
    let mut opt_b = make();
    opt_b.import_state(&state).unwrap();
    // Re-export of freshly imported state is byte-identical.
    assert_eq!(
        opt_b.export_state(),
        state,
        "state round trip not bytes-equal"
    );
    drive(&mut lin_b, &mut opt_b, &x, &targets, TOTAL - KILL_AT);

    assert_eq!(
        param_bits(&mut lin_b),
        want,
        "resumed params differ bitwise"
    );
    // Optimizer state converged to the same bytes as the uninterrupted run.
    assert_eq!(opt_b.export_state(), opt_full.export_state());
}

#[test]
fn sgd_resume_is_bitwise_invisible() {
    assert_resume_invisible(|| Sgd::new(0.9, 0.01), first_order_steps);
}

#[test]
fn adam_resume_is_bitwise_invisible() {
    assert_resume_invisible(|| Adam::new(0.9, 0.999, 1e-8, 0.01), first_order_steps);
}

#[test]
fn lamb_resume_is_bitwise_invisible() {
    assert_resume_invisible(|| Lamb::new(0.01), first_order_steps);
}

#[test]
fn kfac_resume_is_bitwise_invisible_mid_cadence() {
    assert_resume_invisible(
        || {
            Kfac::new(
                KfacConfig {
                    damping: 1e-2,
                    curvature_interval: 3,
                    inversion_interval: 3,
                    ..KfacConfig::default()
                },
                Sgd::new(0.9, 0.0),
            )
        },
        kfac_steps,
    );
}

#[test]
fn kfac_cadence_counters_survive_round_trip() {
    let (mut lin, x, targets) = fresh_problem();
    let mut opt = Kfac::new(
        KfacConfig {
            curvature_interval: 3,
            inversion_interval: 3,
            ..KfacConfig::default()
        },
        Sgd::new(0.0, 0.0),
    );
    kfac_steps(&mut lin, &mut opt, &x, &targets, KILL_AT);
    let st = opt.state("fc").expect("layer state exists");
    let (curv, inv) = (st.last_curvature_step, st.last_inversion_step);
    assert!(curv > 0, "refresh should have happened by step {KILL_AT}");

    let bytes = opt.export_state();
    let mut back = Kfac::new(opt.config().clone(), Sgd::new(0.0, 0.0));
    back.import_state(&bytes).unwrap();
    assert_eq!(back.step_count(), KILL_AT);
    let st = back.state("fc").expect("restored layer state");
    assert_eq!(st.last_curvature_step, curv);
    assert_eq!(st.last_inversion_step, inv);
    assert_eq!(
        back.next_step_refreshes_curvature(),
        opt.next_step_refreshes_curvature()
    );
    assert_eq!(
        back.next_step_refreshes_inversion(),
        opt.next_step_refreshes_inversion()
    );
}

#[test]
fn corrupt_optimizer_state_is_rejected_structurally() {
    let (mut lin, x, targets) = fresh_problem();
    let mut opt = Adam::new(0.9, 0.999, 1e-8, 0.0);
    first_order_steps(&mut lin, &mut opt, &x, &targets, 2);
    let bytes = opt.export_state();
    let mut fresh = Adam::new(0.9, 0.999, 1e-8, 0.0);
    // Truncation at every prefix length must error, never panic.
    for cut in 0..bytes.len() {
        assert!(fresh.import_state(&bytes[..cut]).is_err(), "cut {cut}");
    }
    // Trailing garbage is rejected too.
    let mut extended = bytes.clone();
    extended.push(0);
    assert!(fresh.import_state(&extended).is_err());
}
