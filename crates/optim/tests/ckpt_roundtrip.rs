//! Optimizer state checkpointing: save → load mid-run must be invisible.
//!
//! For both optimizers (LAMB, and K-FAC over LAMB), an interrupted run
//! (k steps → export state → import into a fresh instance → N−k more
//! steps) must produce bit-identical parameters to an uninterrupted N-step
//! run. k is chosen so the interruption lands *mid-cadence* for the
//! interval-driven K-FAC (curvature/inversion), proving the cadence phase
//! is part of the captured state. The exported state bytes themselves are
//! pinned by committed fixtures (`tests/golden/`).

use pipefisher_nn::{
    cross_entropy_backward, export_params_with, import_params_with, ForwardCtx, Layer, Linear, Tape,
};
use pipefisher_optim::{Kfac, KfacConfig, Lamb, Optimizer, StateSnapshot};
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

fn lamb_steps(lin: &mut Linear, opt: &mut Lamb, x: &Matrix, targets: &[i64], steps: u64) {
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

fn kfac_steps(lin: &mut Linear, opt: &mut Kfac<Lamb>, x: &Matrix, targets: &[i64], steps: u64) {
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

/// Compares `bytes` with the committed fixture `tests/golden/<name>`, or
/// writes it there under `PIPEFISHER_BLESS=1`.
fn assert_pinned(name: &str, bytes: &[u8]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name);
    if std::env::var("PIPEFISHER_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, bytes).expect("write golden file");
        return;
    }
    let want = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with PIPEFISHER_BLESS=1",
            path.display()
        )
    });
    assert!(
        bytes == want.as_slice(),
        "{name}: exported optimizer state drifted from the committed bytes"
    );
}

/// The bytes `export_state` writes for LAMB and for K-FAC over LAMB after
/// three fixed steps on a fixed `Linear`. A checkpoint stores them as they
/// are, so a change to how either optimizer keeps its state must not move
/// one; re-bless (`PIPEFISHER_BLESS=1 cargo test -p pipefisher-optim --test
/// ckpt_roundtrip`) only with a deliberate checkpoint format change.
#[test]
fn lamb_and_kfac_state_bytes_are_pinned() {
    let (mut lin, x, targets) = fresh_problem();
    let mut lamb = Lamb::new(0.01);
    lamb_steps(&mut lin, &mut lamb, &x, &targets, 3);
    assert_pinned("lamb_state.bin", &lamb.export_state());

    let (mut lin, x, targets) = fresh_problem();
    let mut kfac = Kfac::new(
        KfacConfig {
            damping: 1e-2,
            curvature_interval: 2,
            inversion_interval: 2,
            ..KfacConfig::default()
        },
        Lamb::new(0.01),
    );
    kfac_steps(&mut lin, &mut kfac, &x, &targets, 3);
    assert_pinned("kfac_lamb_state.bin", &kfac.export_state());
}

#[test]
fn lamb_resume_is_bitwise_invisible() {
    assert_resume_invisible(|| Lamb::new(0.01), lamb_steps);
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
                Lamb::new(0.01),
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
        Lamb::new(0.0),
    );
    kfac_steps(&mut lin, &mut opt, &x, &targets, KILL_AT);
    let st = opt.state("fc").expect("layer state exists");
    let (curv, inv) = (st.last_curvature_step, st.last_inversion_step);
    assert!(curv > 0, "refresh should have happened by step {KILL_AT}");

    let bytes = opt.export_state();
    let mut back = Kfac::new(opt.config().clone(), Lamb::new(0.0));
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
    let mut opt = Lamb::new(0.0);
    lamb_steps(&mut lin, &mut opt, &x, &targets, 2);
    let bytes = opt.export_state();
    let mut fresh = Lamb::new(0.0);
    // Truncation at every prefix length must error, never panic.
    for cut in 0..bytes.len() {
        assert!(fresh.import_state(&bytes[..cut]).is_err(), "cut {cut}");
    }
    // Trailing garbage is rejected too.
    let mut extended = bytes.clone();
    extended.push(0);
    assert!(fresh.import_state(&extended).is_err());
}
