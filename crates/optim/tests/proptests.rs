//! Property-based tests for optimizer invariants.

use pipefisher_nn::{cross_entropy_backward, ForwardCtx, Layer, Linear, Parameter, Tape};
use pipefisher_optim::{Adam, Kfac, KfacConfig, Lamb, Optimizer, Sgd};
use pipefisher_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn grad_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0..2.0f64, rows * cols)
        .prop_map(move |d| Matrix::from_vec(rows, cols, d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sgd_update_is_linear_in_gradient(g in grad_strategy(3, 4), c in 0.1..3.0f64) {
        // Without momentum/decay, Δθ(c·g) == c·Δθ(g).
        let step = |grad: &Matrix| -> Matrix {
            let mut opt = Sgd::new(0.0, 0.0);
            let mut p = Parameter::new("w", Matrix::zeros(3, 4));
            p.grad = grad.clone();
            opt.begin_step();
            opt.step_param(&mut p, 0.1);
            p.value
        };
        let d1 = step(&g);
        let d2 = step(&g.scale(c));
        prop_assert!((&d2 - &d1.scale(c)).max_abs() < 1e-12);
    }

    #[test]
    fn adam_first_step_is_gradient_scale_invariant(g in grad_strategy(2, 3), c in 0.5..10.0f64) {
        // Adam's bias-corrected first step is ±lr·sign-ish: m̂/√v̂ is
        // invariant to positive gradient rescaling.
        let step = |grad: &Matrix| -> Matrix {
            let mut opt = Adam::default();
            let mut p = Parameter::new("w", Matrix::zeros(2, 3));
            p.grad = grad.clone();
            opt.begin_step();
            opt.step_param(&mut p, 0.1);
            p.value
        };
        // Avoid exact zeros where sign is undefined.
        let g = g.map(|x| if x.abs() < 1e-3 { 1e-3 } else { x });
        let d1 = step(&g);
        let d2 = step(&g.scale(c));
        prop_assert!((&d1 - &d2).max_abs() < 1e-6);
    }

    #[test]
    fn lamb_update_norm_tracks_weight_norm(
        g in grad_strategy(3, 3),
        wscale in 0.5..5.0f64,
    ) {
        // With the trust ratio unclamped, ‖Δθ‖ == lr·‖θ‖ for nonzero
        // gradients (wd = 0): the defining LAMB property.
        let g = g.map(|x| if x.abs() < 1e-3 { 1e-3 } else { x });
        let mut opt = Lamb::new(0.0).with_max_trust_ratio(1e9);
        let w0 = Matrix::full(3, 3, wscale);
        let mut p = Parameter::new("w", w0.clone());
        p.grad = g;
        opt.begin_step();
        opt.step_param(&mut p, 0.1);
        let moved = (&p.value - &w0).frobenius_norm();
        let expect = 0.1 * w0.frobenius_norm();
        prop_assert!((moved - expect).abs() < 1e-9, "{moved} vs {expect}");
    }

    #[test]
    fn kfac_preconditioning_is_linear_in_gradient(
        scale in 0.25..4.0f64,
        seed in 0u64..500,
    ) {
        // B⁻¹(c·G)A⁻¹ = c·(B⁻¹GA⁻¹): with fixed factors, the preconditioned
        // update is linear in the gradient. Run two single steps from the
        // same state with gradients G and c·G and compare updates.
        let run = |c: f64| -> Matrix {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut lin = Linear::new("fc", 3, 2, &mut rng);
            let w0 = lin.weight().value.clone();
            let mut kfac = Kfac::new(
                KfacConfig { kl_clip: None, ..Default::default() },
                Sgd::new(0.0, 0.0),
            );
            let x = pipefisher_tensor::init::normal(6, 3, 1.0, &mut rng);
            lin.zero_grad();
            let tape = &mut Tape::new(ForwardCtx::train_with_capture());
            let logits = lin.forward(x, tape);
            let d = cross_entropy_backward(&logits, &[0, 1, 0, 1, 0, 1]);
            let _ = lin.backward(&d, tape);
            // Rescale the gradient after capture (factors stay fixed).
            lin.weight_mut().grad.scale_inplace(c);
            lin.bias_mut().grad.scale_inplace(c);
            kfac.step(&mut lin, 1.0);
            &lin.weight().value - &w0
        };
        let base = run(1.0);
        let scaled = run(scale);
        prop_assert!((&scaled - &base.scale(scale)).max_abs() < 1e-9);
    }

    #[test]
    fn optimizers_never_produce_nonfinite(
        g in grad_strategy(2, 2),
        lr in 1e-4..1.0f64,
    ) {
        for mode in 0..3 {
            let mut p = Parameter::new("w", Matrix::full(2, 2, 0.5));
            p.grad = g.clone();
            match mode {
                0 => {
                    let mut o = Sgd::new(0.9, 0.01);
                    o.begin_step();
                    o.step_param(&mut p, lr);
                }
                1 => {
                    let mut o = Adam::default();
                    o.begin_step();
                    o.step_param(&mut p, lr);
                }
                _ => {
                    let mut o = Lamb::new(0.01);
                    o.begin_step();
                    o.step_param(&mut p, lr);
                }
            }
            prop_assert!(p.value.all_finite(), "mode {mode}");
        }
    }
}
