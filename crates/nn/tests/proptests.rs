//! Property-based tests for the neural-network substrate.

use pipefisher_nn::{
    cross_entropy_backward, cross_entropy_loss, ForwardCtx, Layer, LayerNorm, Linear,
    MultiHeadAttention, Tape, TransformerBlock,
};
use pipefisher_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn input_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0..3.0f64, rows * cols)
        .prop_map(move |d| Matrix::from_vec(rows, cols, d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn linear_forward_is_affine(x in input_strategy(4, 6), seed in 0u64..1000) {
        // f(2x) − f(x) == f(x) − f(0) for an affine map, row-wise.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lin = Linear::new("fc", 6, 3, &mut rng);
        let tape = &mut Tape::new(ForwardCtx::train());
        let f0 = lin.forward(Matrix::zeros(4, 6), tape);
        let f1 = lin.forward(x.clone(), tape);
        let f2 = lin.forward(x.scale(2.0), tape);
        let lhs = &f2 - &f1;
        let rhs = &f1 - &f0;
        prop_assert!((&lhs - &rhs).max_abs() < 1e-9);
    }

    #[test]
    fn layernorm_is_shift_invariant(x in input_strategy(3, 8), shift in -5.0..5.0f64) {
        let mut ln = LayerNorm::new("ln", 8);
        let tape = &mut Tape::new(ForwardCtx::train());
        let shifted = ln.forward(x.map(|v| v + shift), tape);
        let base = ln.forward(x, tape);
        prop_assert!((&base - &shifted).max_abs() < 1e-6);
    }

    #[test]
    fn layernorm_is_scale_invariant(x in input_strategy(3, 8), scale in 0.5..4.0f64) {
        // Scaling an input row scales its deviation and std equally.
        let mut ln = LayerNorm::new("ln", 8);
        let tape = &mut Tape::new(ForwardCtx::train());
        let scaled = ln.forward(x.scale(scale), tape);
        let base = ln.forward(x, tape);
        prop_assert!((&base - &scaled).max_abs() < 1e-5);
    }

    #[test]
    fn attention_is_permutation_equivariant_across_batch(
        x in input_strategy(4, 4),
        seed in 0u64..1000,
    ) {
        // Swapping two *sequences* in the batch swaps the outputs.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut attn = MultiHeadAttention::new("a", 4, 2, &mut rng);
        let tape = &mut Tape::new(ForwardCtx::train().with_seq_len(2));
        let seq_a = x.slice_rows(0, 2);
        let seq_b = x.slice_rows(2, 4);
        let ab = attn.forward(Matrix::vcat(&[&seq_a, &seq_b]), tape);
        let ba = attn.forward(Matrix::vcat(&[&seq_b, &seq_a]), tape);
        prop_assert!((&ab.slice_rows(0, 2) - &ba.slice_rows(2, 4)).max_abs() < 1e-9);
        prop_assert!((&ab.slice_rows(2, 4) - &ba.slice_rows(0, 2)).max_abs() < 1e-9);
    }

    #[test]
    fn block_forward_backward_shapes_hold(
        x in input_strategy(6, 8),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut block = TransformerBlock::new("b", 8, 16, 2, &mut rng);
        let tape = &mut Tape::new(ForwardCtx::train().with_seq_len(3));
        let y = block.forward(x, tape);
        prop_assert_eq!(y.shape(), (6, 8));
        prop_assert!(y.all_finite());
        let dx = block.backward(&Matrix::full(6, 8, 1.0), tape);
        prop_assert_eq!(dx.shape(), (6, 8));
        prop_assert!(dx.all_finite());
    }

    #[test]
    fn cross_entropy_is_nonnegative_and_bounded_by_logits(
        logits in input_strategy(5, 7),
    ) {
        let targets: Vec<i64> = (0..5).map(|i| (i % 7) as i64).collect();
        let r = cross_entropy_loss(&logits, &targets);
        prop_assert!(r.loss >= 0.0);
        // CE ≤ max spread + ln(classes).
        let bound = 2.0 * logits.max_abs() + (7.0f64).ln() + 1e-9;
        prop_assert!(r.loss <= bound);
        // Gradient rows sum to ~0 (softmax simplex tangent).
        let g = cross_entropy_backward(&logits, &targets);
        for r in 0..5 {
            let s: f64 = g.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-9);
        }
    }

    #[test]
    fn kfac_capture_matches_input_and_dout(
        x in input_strategy(3, 4),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lin = Linear::new("fc", 4, 2, &mut rng);
        let tape = &mut Tape::new(ForwardCtx::train_with_capture());
        let y = lin.forward(x.clone(), tape);
        let dout = y.map(|v| v.tanh());
        let _ = lin.backward(&dout, tape);
        let stats = lin.kfac_stats();
        let a = stats.activations.as_ref().unwrap();
        let e = stats.errors.as_ref().unwrap();
        // Captured activations are x plus the bias column of ones.
        for r in 0..3 {
            for c in 0..4 {
                prop_assert!((a[(r, c)] - x[(r, c)]).abs() < 1e-12);
            }
            prop_assert!((a[(r, 4)] - 1.0).abs() < 1e-12);
        }
        prop_assert_eq!(e.clone(), dout);
    }
}
