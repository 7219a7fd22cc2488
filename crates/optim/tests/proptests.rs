//! Property-based tests for optimizer invariants.

use pipefisher_nn::{cross_entropy_backward, ForwardCtx, Layer, Linear, Parameter, Tape};
use pipefisher_optim::{Kfac, KfacConfig, Lamb, Optimizer};
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
    fn lamb_first_step_is_gradient_scale_invariant(g in grad_strategy(2, 3), c in 0.5..10.0f64) {
        // LAMB's bias-corrected first Adam direction is ±1-ish: m̂/(√v̂ + ε)
        // is invariant to positive gradient rescaling up to ε/|g|, and zero
        // weights take the unit trust ratio, so θ moves by ≈ ±lr.
        let step = |grad: &Matrix| -> Matrix {
            let mut opt = Lamb::new(0.0);
            let mut p = Parameter::new("w", Matrix::zeros(2, 3));
            p.grad = grad.clone();
            opt.begin_step();
            opt.step_param(&mut p, 0.1);
            p.value
        };
        // Keep |g| ≥ 1e-2, where ε = 1e-6 moves a coordinate by < 1e-5.
        let g = g.map(|x| if x.abs() < 1e-2 { 1e-2 } else { x });
        let d1 = step(&g);
        let d2 = step(&g.scale(c));
        prop_assert!((&d1 - &d2).max_abs() < 1e-4);
    }

    #[test]
    fn lamb_update_norm_tracks_weight_norm(
        g in grad_strategy(3, 3),
        wscale in 0.5..5.0f64,
    ) {
        // Below the trust-ratio clamp, ‖Δθ‖ == lr·‖θ‖ for nonzero
        // gradients (wd = 0): the defining LAMB property. The first update
        // is ≈ ±1 per coordinate (‖update‖ ≈ 3) and ‖θ‖ = 3·wscale ≤ 15, so
        // the ratio stays ≤ 5, under NVLAMB's clamp of 10.
        let g = g.map(|x| if x.abs() < 1e-3 { 1e-3 } else { x });
        let mut opt = Lamb::new(0.0);
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
        // gradient is linear in the gradient. Precondition the gradients G
        // and c·G against the same factors and compare.
        let run = |c: f64| -> Matrix {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut lin = Linear::new("fc", 3, 2, &mut rng);
            let mut kfac = Kfac::new(KfacConfig::default(), Lamb::new(0.0));
            let x = pipefisher_tensor::init::normal(6, 3, 1.0, &mut rng);
            lin.zero_grad();
            let tape = &mut Tape::new(ForwardCtx::train_with_capture());
            let logits = lin.forward(x, tape);
            let d = cross_entropy_backward(&logits, &[0, 1, 0, 1, 0, 1]);
            let _ = lin.backward(&d, tape);
            // Rescale the gradient after capture (factors stay fixed).
            lin.weight_mut().grad.scale_inplace(c);
            lin.bias_mut().grad.scale_inplace(c);
            kfac.fold_a(&mut lin);
            kfac.fold_b(&mut lin);
            kfac.invert(&mut lin);
            kfac.precondition(&mut lin, &mut |_| {});
            lin.weight().grad.clone()
        };
        let base = run(1.0);
        let scaled = run(scale);
        prop_assert!((&scaled - &base.scale(scale)).max_abs() < 1e-9);
    }

    #[test]
    fn lamb_never_produces_nonfinite(
        g in grad_strategy(2, 2),
        lr in 1e-4..1.0f64,
    ) {
        let mut p = Parameter::new("w", Matrix::full(2, 2, 0.5));
        p.grad = g;
        let mut o = Lamb::new(0.01);
        o.begin_step();
        o.step_param(&mut p, lr);
        prop_assert!(p.value.all_finite());
    }
}
