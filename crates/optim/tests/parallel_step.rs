//! `Kfac::step` parallelizes its per-layer work (the refresh pass: curvature
//! EMA and inversion; then preconditioning) across the worker pool, but
//! every layer's arithmetic is independent and the KL-clip statistic is
//! reduced in layer-visitation order — so a multi-threaded step must be
//! **bitwise** identical to the single-threaded one.

use pipefisher_nn::{BertConfig, BertForPreTraining, ForwardCtx, PreTrainingBatch, IGNORE_INDEX};
use pipefisher_optim::{Kfac, KfacConfig, Lamb};
use pipefisher_tensor::par;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VOCAB: usize = 30;
const SEQ: usize = 8;
const BATCH: usize = 4;

fn make_batch(rng: &mut StdRng) -> PreTrainingBatch {
    let n = BATCH * SEQ;
    PreTrainingBatch {
        token_ids: (0..n).map(|_| rng.gen_range(0..VOCAB)).collect(),
        segment_ids: (0..n).map(|i| usize::from(i % SEQ >= SEQ / 2)).collect(),
        mlm_targets: (0..n)
            .map(|_| {
                if rng.gen_range(0..4usize) == 0 {
                    rng.gen_range(0..VOCAB) as i64
                } else {
                    IGNORE_INDEX
                }
            })
            .collect(),
        nsp_targets: (0..BATCH)
            .map(|_| rng.gen_range(0..2usize) as i64)
            .collect(),
        seq: SEQ,
    }
}

fn snapshot(model: &mut BertForPreTraining) -> Vec<(String, Vec<u64>)> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| {
        out.push((
            p.name.clone(),
            p.value.as_slice().iter().map(|v| v.to_bits()).collect(),
        ))
    });
    out
}

/// Runs `steps` K-FAC steps at these refresh intervals on two identical
/// models, one stepping on 1 thread and one on 2, comparing after each.
fn assert_thread_counts_agree(curvature_interval: usize, inversion_interval: usize, steps: usize) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut model = BertForPreTraining::new(BertConfig::tiny(VOCAB, SEQ + 2), 0.0, &mut rng);
    let batch = make_batch(&mut rng);

    let cfg = KfacConfig {
        damping: 1e-2,
        curvature_interval,
        inversion_interval,
        ..Default::default()
    };
    let mut opt_serial = Kfac::new(cfg.clone(), Lamb::new(0.01));
    let mut opt_parallel = Kfac::new(cfg, Lamb::new(0.01));

    // Populate grads + K-FAC statistics once, then fork the model so both
    // optimizers start from identical state (stats included — they are part
    // of the layer and survive `clone`).
    model.zero_grad();
    let _ = model.train_step(&batch, &ForwardCtx::train_with_capture());
    let mut twin = model.clone();

    // Stats are recaptured per model between steps; as long as every step
    // so far was bitwise identical, both models see identical statistics.
    for step in 0..steps {
        par::set_max_threads(1);
        opt_serial.step(&mut model, 1e-3);
        par::set_max_threads(2);
        opt_parallel.step(&mut twin, 1e-3);
        par::set_max_threads(0);

        let serial = snapshot(&mut model);
        let parallel = snapshot(&mut twin);
        assert_eq!(serial.len(), parallel.len());
        for ((name_s, bits_s), (name_p, bits_p)) in serial.iter().zip(parallel.iter()) {
            assert_eq!(name_s, name_p);
            assert!(
                bits_s == bits_p,
                "step {step}: parameter {name_s} differs between 1 and 2 threads"
            );
        }

        model.zero_grad();
        let _ = model.train_step(&batch, &ForwardCtx::train_with_capture());
        twin.zero_grad();
        let _ = twin.train_step(&batch, &ForwardCtx::train_with_capture());
    }
}

#[test]
fn kfac_step_is_bitwise_identical_across_thread_counts() {
    // Refresh everything every step: the first step builds factors and
    // inverses from scratch, the second exercises the EMA/refresh paths on
    // existing state.
    assert_thread_counts_agree(1, 1, 2);
    // Intervals 2/3 over 7 steps: both-due (0, 6), curvature-only (2, 4),
    // inversion-only (3) and idle (1, 5) steps, the last on stale inverses.
    assert_thread_counts_agree(2, 3, 7);
}
