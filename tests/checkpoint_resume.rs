//! Checkpoint/restore bitwise-equivalence tests (DESIGN.md §3.15).
//!
//! The contract: `train(N)` and `train(k) → checkpoint → fresh process →
//! resume → train(N−k)` are indistinguishable — per-step losses and final
//! parameters match bit for bit — for every optimizer, serially and on the
//! pipelined executor, including kill points that land mid-way through a
//! K-FAC refresh cadence. Corrupted or mismatched checkpoints must be
//! rejected with a structured error, never a panic or a silently-wrong
//! resume.

use pipefisher::ckpt::CkptError;
use pipefisher::lm::{
    BatchSampler, CheckpointOptions, CheckpointPolicy, ExecError, ExecFault, OptimizerChoice,
    PipelineOptions, ResumeFrom, SyntheticLanguage, TrainCheckpoint, TrainOptions, Trainer,
};
use pipefisher::nn::{BertConfig, BertForPreTraining};
use pipefisher::optim::{KfacConfig, LrSchedule};
use pipefisher::pipeline::PipelineScheme;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn setup(config: &BertConfig, seed: u64) -> (Trainer, BertForPreTraining) {
    let lang = SyntheticLanguage::new(config.vocab_size, 2, 4, 11);
    let sampler = BatchSampler::new(lang, config.max_seq);
    let trainer = Trainer::new(sampler, 8, LrSchedule::Constant(5e-3), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let model = BertForPreTraining::new(config.clone(), 0.0, &mut rng);
    (trainer, model)
}

fn lamb_choice() -> OptimizerChoice {
    OptimizerChoice::Lamb { weight_decay: 0.01 }
}

/// Curvature every 2 steps, inverses every 3: a kill at step 3 lands
/// mid-way through both cadences, so resume must restore the phase.
fn kfac_choice() -> OptimizerChoice {
    OptimizerChoice::Kfac {
        weight_decay: 0.01,
        kfac: KfacConfig {
            damping: 3e-2,
            ema_decay: 0.5,
            curvature_interval: 2,
            inversion_interval: 3,
            kl_clip: Some(1e-2),
            factor_block_size: None,
        },
    }
}

fn param_bits(model: &mut BertForPreTraining) -> Vec<u64> {
    let mut bits = Vec::new();
    model.visit_params(&mut |p| bits.extend(p.value.as_slice().iter().map(|v| v.to_bits())));
    bits
}

fn loss_bits(losses: &[f64]) -> Vec<u64> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// A fresh per-test checkpoint directory under the system tempdir.
struct TempCkptDir(PathBuf);

impl TempCkptDir {
    fn new(tag: &str) -> TempCkptDir {
        let dir =
            std::env::temp_dir().join(format!("pipefisher-ckpt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempCkptDir(dir)
    }

    fn save_policy(&self, every: usize) -> CheckpointPolicy {
        CheckpointPolicy::new(&self.0, every)
    }

    /// The single checkpoint file the test wrote.
    fn only_file(&self) -> PathBuf {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&self.0)
            .expect("checkpoint dir exists")
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "pfck"))
            .collect();
        files.sort();
        assert_eq!(files.len(), 1, "expected exactly one checkpoint");
        files.remove(0)
    }
}

impl Drop for TempCkptDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn opts_save(policy: CheckpointPolicy) -> CheckpointOptions {
    CheckpointOptions {
        save: Some(policy),
        resume: None,
    }
}

fn opts_resume(dir: &TempCkptDir) -> CheckpointOptions {
    CheckpointOptions {
        save: None,
        resume: Some(ResumeFrom::Latest(dir.0.clone())),
    }
}

const ACCUM: usize = 2;

fn train_opts() -> TrainOptions {
    TrainOptions {
        accumulation_steps: ACCUM,
        grad_delay: 0,
    }
}

/// Uninterrupted serial reference: `(per-step loss bits, final param bits)`.
fn serial_reference(
    config: &BertConfig,
    choice: &OptimizerChoice,
    steps: usize,
) -> (Vec<u64>, Vec<u64>) {
    let (mut trainer, mut model) = setup(config, 7);
    let run = trainer.run_with_options(&mut model, choice, steps, &train_opts());
    (loss_bits(&run.losses), param_bits(&mut model))
}

#[test]
fn serial_resume_is_bitwise_identical_for_lamb_and_kfac() {
    let config = BertConfig::tiny(36, 16);
    let (steps, kill) = (6usize, 3usize);
    for (tag, choice) in [("lamb", lamb_choice()), ("kfac", kfac_choice())] {
        let (ref_losses, ref_params) = serial_reference(&config, &choice, steps);

        // Train to the kill point; the final step always checkpoints.
        let dir = TempCkptDir::new(&format!("serial-{tag}"));
        let (mut trainer, mut model) = setup(&config, 7);
        let head = trainer
            .run_checkpointed(
                &mut model,
                &choice,
                kill,
                &train_opts(),
                &opts_save(dir.save_policy(0)),
            )
            .expect("checkpointing run");
        assert_eq!(loss_bits(&head.losses), ref_losses[..kill], "{tag}: head");

        // Fresh everything; resume and finish.
        let (mut trainer, mut model) = setup(&config, 7);
        let tail = trainer
            .run_checkpointed(
                &mut model,
                &choice,
                steps,
                &train_opts(),
                &opts_resume(&dir),
            )
            .expect("resumed run");
        assert_eq!(
            loss_bits(&tail.losses),
            ref_losses[kill..],
            "{tag}: resumed losses diverged"
        );
        assert_eq!(
            param_bits(&mut model),
            ref_params,
            "{tag}: resumed final parameters diverged"
        );
    }
}

/// Every scheme: a stage's owner hands its parameters and optimizer state
/// back for each checkpoint and takes them again on resume — under
/// Chimera from one of the stage's two hosts.
#[test]
fn pipelined_resume_is_bitwise_identical_for_d2_and_d4() {
    let (steps, kill) = (6usize, 3usize);
    let schemes = [
        PipelineScheme::GPipe,
        PipelineScheme::OneFOneB,
        PipelineScheme::Chimera,
    ];
    for (tag, choice) in [("lamb", lamb_choice()), ("kfac", kfac_choice())] {
        for (d, scheme) in [2usize, 4]
            .into_iter()
            .flat_map(|d| schemes.map(|s| (d, s)))
        {
            let config = if d <= 2 {
                BertConfig::tiny(36, 16)
            } else {
                BertConfig::mini(36, 16)
            };
            let (ref_losses, ref_params) = serial_reference(&config, &choice, steps);
            let tag = format!("{tag} {} D={d}", scheme.name());

            let dir = TempCkptDir::new(&format!("pipe-{}", tag.replace(' ', "-")));
            let mut opts = PipelineOptions::new(scheme, d, ACCUM);
            opts.checkpoint.save = Some(dir.save_policy(0));
            let (mut trainer, model) = setup(&config, 7);
            let head = trainer
                .run_pipelined(model, &choice, kill, &opts)
                .expect("checkpointing pipelined run");
            assert_eq!(
                loss_bits(&head.run.losses),
                ref_losses[..kill],
                "{tag}: head"
            );

            let mut opts = PipelineOptions::new(scheme, d, ACCUM);
            opts.checkpoint.resume = Some(ResumeFrom::Latest(dir.0.clone()));
            let (mut trainer, model) = setup(&config, 7);
            let outcome = trainer
                .run_pipelined(model, &choice, steps, &opts)
                .expect("resumed pipelined run");
            assert_eq!(
                loss_bits(&outcome.run.losses),
                ref_losses[kill..],
                "{tag}: resumed losses diverged"
            );
            let mut model = outcome.model;
            assert_eq!(
                param_bits(&mut model),
                ref_params,
                "{tag}: resumed final parameters diverged"
            );
        }
    }
}

/// A checkpoint at or past the requested step count leaves nothing to run:
/// both engines return an empty run (the pipelined one used to panic) and
/// the restored model, untouched.
#[test]
fn resume_past_the_end_is_an_empty_run_on_both_engines() {
    let config = BertConfig::tiny(36, 16);
    let choice = kfac_choice();
    let dir = TempCkptDir::new("past-the-end");
    let (mut trainer, mut trained) = setup(&config, 7);
    trainer
        .run_checkpointed(
            &mut trained,
            &choice,
            3,
            &train_opts(),
            &opts_save(dir.save_policy(0)),
        )
        .expect("checkpointing run");
    let trained = param_bits(&mut trained);
    for steps in [2usize, 3] {
        let (mut trainer, mut model) = setup(&config, 7);
        let run = trainer
            .run_checkpointed(
                &mut model,
                &choice,
                steps,
                &train_opts(),
                &opts_resume(&dir),
            )
            .expect("resumed serial run");
        assert!(run.losses.is_empty() && run.metrics.is_empty());
        assert_eq!(run.label, "K-FAC");
        assert_eq!(param_bits(&mut model), trained, "serial, {steps} steps");

        let mut opts = PipelineOptions::new(PipelineScheme::GPipe, 2, ACCUM);
        opts.checkpoint.resume = Some(ResumeFrom::Latest(dir.0.clone()));
        let (mut trainer, model) = setup(&config, 7);
        let mut outcome = trainer
            .run_pipelined(model, &choice, steps, &opts)
            .expect("resumed pipelined run");
        assert!(outcome.run.losses.is_empty() && outcome.run.metrics.is_empty());
        assert_eq!(outcome.run.label, "K-FAC");
        assert_eq!(
            param_bits(&mut outcome.model),
            trained,
            "pipelined, {steps} steps"
        );
    }
}

/// The checkpoint after step 3 of every scheme, whose owners hand back
/// their stages for it, is the serial trainer's byte for byte.
#[test]
fn serial_and_pipelined_checkpoints_are_byte_identical() {
    let config = BertConfig::tiny(36, 16);
    let choice = kfac_choice();
    let steps = 3usize;

    let serial_dir = TempCkptDir::new("bytes-serial");
    let (mut trainer, mut model) = setup(&config, 7);
    trainer
        .run_checkpointed(
            &mut model,
            &choice,
            steps,
            &train_opts(),
            &opts_save(serial_dir.save_policy(0)),
        )
        .expect("serial run");

    let serial_bytes = std::fs::read(serial_dir.only_file()).unwrap();
    for scheme in [
        PipelineScheme::GPipe,
        PipelineScheme::OneFOneB,
        PipelineScheme::Chimera,
    ] {
        let pipe_dir = TempCkptDir::new(&format!("bytes-pipe-{}", scheme.name()));
        let mut opts = PipelineOptions::new(scheme, 2, ACCUM);
        opts.checkpoint.save = Some(pipe_dir.save_policy(0));
        let (mut trainer, model) = setup(&config, 7);
        trainer
            .run_pipelined(model, &choice, steps, &opts)
            .expect("pipelined run");

        let pipe_bytes = std::fs::read(pipe_dir.only_file()).unwrap();
        assert!(
            serial_bytes == pipe_bytes,
            "serial and {} checkpoints of the same step differ \
             ({} vs {} bytes)",
            scheme.name(),
            serial_bytes.len(),
            pipe_bytes.len()
        );
    }
}

#[test]
fn corrupted_and_mismatched_checkpoints_are_rejected() {
    let config = BertConfig::tiny(36, 16);
    let dir = TempCkptDir::new("reject");
    let (mut trainer, mut model) = setup(&config, 7);
    trainer
        .run_checkpointed(
            &mut model,
            &config_choice(),
            2,
            &train_opts(),
            &opts_save(dir.save_policy(0)),
        )
        .expect("checkpointing run");
    let path = dir.only_file();

    // One flipped payload byte → structured checksum error, serially…
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let (mut trainer, mut model) = setup(&config, 7);
    let err = trainer
        .run_checkpointed(
            &mut model,
            &config_choice(),
            4,
            &train_opts(),
            &opts_resume(&dir),
        )
        .expect_err("corrupted checkpoint accepted");
    assert!(
        matches!(
            err,
            CkptError::BadSectionChecksum { .. } | CkptError::BadTableChecksum { .. }
        ),
        "wrong error for corruption: {err}"
    );

    // …and through the pipelined executor, with the corruption attributed
    // to the checkpoint subsystem before any step ran.
    let mut opts = PipelineOptions::new(PipelineScheme::GPipe, 2, ACCUM);
    opts.checkpoint.resume = Some(ResumeFrom::Latest(dir.0.clone()));
    let (mut trainer, model) = setup(&config, 7);
    let err = trainer
        .run_pipelined(model, &config_choice(), 4, &opts)
        .expect_err("corrupted checkpoint accepted by executor");
    match err {
        ExecError {
            completed_steps,
            fault: ExecFault::Checkpoint(_),
        } => assert_eq!(completed_steps, 0),
        other => panic!("wrong executor error for corruption: {other}"),
    }

    // Restore the good bytes; resuming into a different optimizer is a
    // structured mismatch, not silent state reuse.
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let (mut trainer, mut model) = setup(&config, 7);
    let err = trainer
        .run_checkpointed(
            &mut model,
            &lamb_choice(),
            4,
            &train_opts(),
            &opts_resume(&dir),
        )
        .expect_err("optimizer mismatch accepted");
    assert!(
        matches!(err, CkptError::OptimizerMismatch { .. }),
        "wrong error for optimizer mismatch: {err}"
    );

    // An optimizer section tagged with a kind this build does not know
    // (2 was Shampoo's, now retired) is malformed, not a panic.
    let mut tc = TrainCheckpoint::load(&path).unwrap();
    tc.optim[0] = 2;
    std::fs::write(&path, tc.to_snapshot().encode()).unwrap();
    let (mut trainer, mut model) = setup(&config, 7);
    let err = trainer
        .run_checkpointed(
            &mut model,
            &config_choice(),
            4,
            &train_opts(),
            &opts_resume(&dir),
        )
        .expect_err("unknown optimizer tag accepted");
    assert!(
        matches!(err, CkptError::Malformed { .. }),
        "wrong error for unknown optimizer tag: {err}"
    );
}

/// The optimizer the rejection test trains with (K-FAC, so the mismatch
/// leg can resume it into LAMB).
fn config_choice() -> OptimizerChoice {
    kfac_choice()
}
