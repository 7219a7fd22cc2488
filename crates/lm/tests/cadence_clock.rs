//! One cadence clock (DESIGN.md §3.8): the training loop keeps no copy of
//! the K-FAC refresh intervals. What a step captures, and what its
//! `StepMetrics` row reports as refreshed, is what the optimizer's own
//! `Kfac::next_step_refreshes_*` answered before that step — on a fresh run
//! and on one resumed mid-cadence (K-FAC's step counter restored from the
//! checkpoint), on both engines.

use pipefisher_lm::{
    to_jsonl, BatchSampler, CheckpointOptions, CheckpointPolicy, OptimizerChoice, PipelineOptions,
    ResumeFrom, SyntheticLanguage, TrainOptions, TrainRun, Trainer,
};
use pipefisher_nn::{BertConfig, BertForPreTraining, Linear};
use pipefisher_optim::{Kfac, KfacConfig, Lamb, LrSchedule};
use pipefisher_pipeline::PipelineScheme;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (Trainer, BertForPreTraining) {
    let lang = SyntheticLanguage::new(36, 2, 4, 11);
    let trainer = Trainer::new(
        BatchSampler::new(lang, 16),
        8,
        LrSchedule::Constant(5e-3),
        3,
    );
    let mut rng = StdRng::seed_from_u64(3);
    let model = BertForPreTraining::new(BertConfig::tiny(36, 16), 0.0, &mut rng);
    (trainer, model)
}

/// Trains to `steps` on the inline or the staged (D = 2) engine.
fn run_to(
    staged: bool,
    choice: &OptimizerChoice,
    steps: usize,
    ckpt: CheckpointOptions,
) -> TrainRun {
    let (mut trainer, mut model) = setup();
    if staged {
        let mut opts = PipelineOptions::new(PipelineScheme::OneFOneB, 2, 2);
        opts.checkpoint = ckpt;
        let outcome = trainer.run_pipelined(model, choice, steps, &opts);
        outcome.expect("pipelined run").run
    } else {
        let opts = TrainOptions::default();
        let run = trainer.run_checkpointed(&mut model, choice, steps, &opts, &ckpt);
        run.expect("checkpointed run")
    }
}

#[test]
fn metrics_rows_follow_the_optimizers_cadence_clock() {
    // Curvature every 2 steps, inverses every 3; the kill point 5 is
    // mid-way through both intervals.
    let (steps, kill) = (8usize, 5usize);
    let kfac = KfacConfig {
        damping: 1e-2,
        curvature_interval: 2,
        inversion_interval: 3,
        ..Default::default()
    };
    // The clock: a bare K-FAC optimizer, asked before each of its steps.
    let mut clock = Kfac::new(kfac.clone(), Lamb::new(0.0));
    let mut layer = Linear::new("clock", 2, 2, &mut StdRng::seed_from_u64(0));
    let expected: Vec<(bool, bool)> = (0..steps)
        .map(|_| {
            let due = (
                clock.next_step_refreshes_curvature(),
                clock.next_step_refreshes_inversion(),
            );
            clock.step(&mut layer, 0.0);
            due
        })
        .collect();
    let choice = OptimizerChoice::Kfac {
        weight_decay: 0.01,
        kfac,
    };
    for staged in [false, true] {
        let dir = std::env::temp_dir().join(format!(
            "pipefisher-cadence-{staged}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let save = CheckpointOptions {
            save: Some(CheckpointPolicy::new(&dir, 0)),
            resume: None,
        };
        let head = run_to(staged, &choice, kill, save);
        let resume = CheckpointOptions {
            save: None,
            resume: Some(ResumeFrom::Latest(dir.clone())),
        };
        let tail = run_to(staged, &choice, steps, resume);
        let _ = std::fs::remove_dir_all(&dir);
        for (run, first, len) in [(&head, 0, kill), (&tail, kill, steps - kill)] {
            assert_eq!(run.metrics.len(), len);
            assert_eq!(to_jsonl(&run.metrics).lines().count(), len);
            // The cumulative counters count from the start of *this* run.
            let (mut curvature_refreshes, mut inversions) = (0, 0);
            for (i, m) in run.metrics.iter().enumerate() {
                assert_eq!(m.step, first + i);
                assert_eq!(m.loss, run.losses[i]);
                assert!(m.loss.is_finite() && m.grad_norm.is_finite());
                assert!(m.grad_norm >= 0.0 && m.lr > 0.0);
                assert!(m.data_ms >= 0.0 && m.forward_backward_ms >= 0.0 && m.optimizer_ms >= 0.0);
                let (curvature, inversion) = expected[m.step];
                curvature_refreshes += u64::from(curvature);
                inversions += u64::from(inversion);
                assert_eq!(
                    (m.curvature_refreshed, m.curvature_refreshes, m.inversions),
                    (curvature, curvature_refreshes, inversions),
                    "staged = {staged}, step {}",
                    m.step
                );
            }
        }
    }
}
