//! The pretraining loop — one step driver ([`Trainer::drive`]) over an
//! execution [`Engine`] — with loss tracking (the Figure 6 machinery) and
//! per-step metrics/trace instrumentation.
//!
//! The driver owns what every execution shares: checkpoint resume/save,
//! sampling, spans and phase timing, mean-scaling, gradient norm, learning
//! rate, the optional stale-gradient queue, and the metrics row. An
//! [`Engine`] supplies what differs: how a step's micro-batches run (inline
//! here; on stage worker threads in [`crate::pipeline`]) and how the update
//! is applied to the gradients they leave.

use crate::checkpoint::{
    resolve_resume, CheckpointOptions, CheckpointPolicy, ResumeFrom, TrainCheckpoint,
};
use crate::pipeline::{ExecError, ExecFault};
use crate::{BatchSampler, StepMetrics};
use pipefisher_ckpt::{CheckpointDir, CkptError, SectionReader, SectionWriter};
use pipefisher_core::capture_micro_batch;
use pipefisher_nn::{
    export_params_with, import_params_with, BertForPreTraining, ForwardCtx, PreTrainingBatch,
};
use pipefisher_optim::{Kfac, KfacConfig, KfacModel, Lamb, LrSchedule, Optimizer, StateSnapshot};
use pipefisher_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::time::Instant;

/// Which optimizer a [`Trainer`] runs — the paper's two contenders.
#[derive(Debug, Clone)]
pub enum OptimizerChoice {
    /// NVLAMB (the baseline).
    Lamb {
        /// Decoupled weight decay (paper: 0.01).
        weight_decay: f64,
    },
    /// K-FAC preconditioning on top of NVLAMB (the paper's "K-FAC").
    Kfac {
        /// Decoupled weight decay of the underlying LAMB.
        weight_decay: f64,
        /// K-FAC hyperparameters; set `curvature_interval`/
        /// `inversion_interval` to the refresh interval PipeFisher achieves
        /// for the target pipeline (the whole point of the paper: the bubble
        /// schedule determines how fresh the curvature can be).
        kfac: KfacConfig,
    },
}

/// A completed training run's loss history and per-step metrics.
#[derive(Debug, Clone)]
pub struct TrainRun {
    /// Per-step total pretraining loss (MLM + NSP), as Figure 6 plots.
    pub losses: Vec<f64>,
    /// Optimizer label for reports.
    pub label: String,
    /// One [`StepMetrics`] row per step, in step order (serialize with
    /// [`crate::to_jsonl`]).
    pub metrics: Vec<StepMetrics>,
}

impl TrainRun {
    /// Centered moving average with the given window (the stand-in for the
    /// paper's Butterworth `filtfilt` smoothing).
    pub fn smoothed(&self, window: usize) -> Vec<f64> {
        let w = window.max(1);
        let n = self.losses.len();
        (0..n)
            .map(|i| {
                let lo = i.saturating_sub(w / 2);
                let hi = (i + w / 2 + 1).min(n);
                self.losses[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    }

    /// Final smoothed loss.
    pub fn final_loss(&self, window: usize) -> f64 {
        *self.smoothed(window).last().expect("empty run")
    }

    /// First step whose `window`-smoothed loss is at or below `target`;
    /// `None` if never reached. The paper's "steps for K-FAC to reach
    /// NVLAMB's final loss" extraction: smoothing is what discounts early
    /// fluctuations, a later rise above `target` does not undo the hit.
    pub fn steps_to_reach(&self, target: f64, window: usize) -> Option<usize> {
        let sm = self.smoothed(window);
        sm.iter().position(|&l| l <= target)
    }
}

/// Extra training-loop options.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Micro-batch gradient accumulation: each optimizer step averages the
    /// gradients of this many sampled batches (the paper's App. B.2
    /// simulates its 8,192 mini-batch on 32 GPUs this way).
    pub accumulation_steps: usize,
    /// Asynchronous-pipeline emulation (App. C.1): apply the gradient
    /// computed this many steps *ago* (`θ_{t+1} = θ_t − η·g_{t−m}`). Zero =
    /// synchronous. Only meaningful for first-order optimizers.
    pub grad_delay: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            accumulation_steps: 1,
            grad_delay: 0,
        }
    }
}

/// Runs BERT pretraining on synthetic data with a chosen optimizer.
#[derive(Debug)]
pub struct Trainer {
    sampler: BatchSampler,
    batch_size: usize,
    schedule: LrSchedule,
    data_rng: StdRng,
}

impl Trainer {
    /// Creates a trainer drawing `batch_size`-sequence batches.
    pub fn new(sampler: BatchSampler, batch_size: usize, schedule: LrSchedule, seed: u64) -> Self {
        Trainer {
            sampler,
            batch_size,
            schedule,
            data_rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Trains `model` for `steps` steps, returning the loss history.
    pub fn run(
        &mut self,
        model: &mut BertForPreTraining,
        choice: &OptimizerChoice,
        steps: usize,
    ) -> TrainRun {
        self.run_with_options(model, choice, steps, &TrainOptions::default())
    }

    /// Trains `model` for `steps` steps with gradient accumulation and/or
    /// stale-gradient application (they compose: each step queues the mean
    /// gradient of its `accumulation_steps` micro-batches and applies the
    /// one from `grad_delay` steps ago).
    ///
    /// # Panics
    ///
    /// Panics if `opts.accumulation_steps == 0`, or if `grad_delay > 0` is
    /// combined with the K-FAC optimizer (stale-gradient emulation models
    /// asynchronous *first-order* pipelines, App. C.1).
    pub fn run_with_options(
        &mut self,
        model: &mut BertForPreTraining,
        choice: &OptimizerChoice,
        steps: usize,
        opts: &TrainOptions,
    ) -> TrainRun {
        self.run_checkpointed(model, choice, steps, opts, &CheckpointOptions::default())
            .expect("no checkpointing requested, so no checkpoint errors")
    }

    /// Like [`Trainer::run_with_options`] with crash-safe checkpointing:
    /// saves per `ckpt.save` (atomically, after the optimizer update of a
    /// due step) and/or resumes from `ckpt.resume` before the first step.
    ///
    /// A resumed run is *bitwise-invisible*: its per-step losses and final
    /// parameters equal the corresponding tail of an uninterrupted run,
    /// because the checkpoint captures every piece of mutable loop state —
    /// parameters, optimizer state (including the K-FAC cadence counter),
    /// and the data-RNG stream. The returned [`TrainRun`] covers
    /// steps `next_step..steps` (its metric rows carry absolute step
    /// indices) and is empty if the checkpoint had already reached `steps`.
    ///
    /// # Errors
    ///
    /// Any checkpoint I/O, validation, or compatibility failure (corrupt
    /// file, shape mismatch, optimizer mismatch) is a structured
    /// [`CkptError`]; nothing is trained on a partially restored state.
    ///
    /// # Panics
    ///
    /// Panics as [`Trainer::run_with_options`] does, and if
    /// `opts.grad_delay > 0` while saving or resuming (stale-gradient
    /// emulation keeps an in-flight gradient queue that is deliberately not
    /// checkpointable).
    pub fn run_checkpointed(
        &mut self,
        model: &mut BertForPreTraining,
        choice: &OptimizerChoice,
        steps: usize,
        opts: &TrainOptions,
        ckpt: &CheckpointOptions,
    ) -> Result<TrainRun, CkptError> {
        // The inline engine raises no executor faults.
        self.drive(
            model,
            choice,
            steps,
            opts,
            ckpt.save.as_ref(),
            ckpt.resume.as_ref(),
        )
        .map_err(|e| match e {
            ExecError {
                fault: ExecFault::Checkpoint(source),
                ..
            } => source,
            other => unreachable!("inline engine fault: {other}"),
        })
    }

    /// The run prologue: builds the optimizer, opens the checkpoint store,
    /// and restores `model`, the optimizer and the data-RNG stream from
    /// `resume`. Returns them with the first step to run.
    fn open_run(
        &mut self,
        model: &mut dyn KfacModel,
        choice: &OptimizerChoice,
        save: Option<&CheckpointPolicy>,
        resume: Option<&ResumeFrom>,
    ) -> Result<(AnyOpt, Option<CheckpointDir>, usize), CkptError> {
        let mut opt = AnyOpt::new(choice);
        let store = save.map(CheckpointPolicy::open).transpose()?;
        let Some(resume) = resume else {
            return Ok((opt, store, 0));
        };
        let tc = TrainCheckpoint::load(&resolve_resume(resume)?)?;
        if tc.optimizer_label != opt.label() {
            return Err(CkptError::OptimizerMismatch {
                expected: opt.label().to_string(),
                found: tc.optimizer_label,
            });
        }
        import_params_with(&tc.model, |f| model.visit_all_params(f))?;
        opt.import_state(&tc.optim)?;
        self.set_rng_state(tc.rng);
        Ok((opt, store, tc.next_step as usize))
    }

    /// The training loop — the only one. After the checkpoint prologue, each
    /// step samples `opts.accumulation_steps` micro-batches, has the engine
    /// run them (summed gradients land in its model), scales to the mean,
    /// passes the gradient through the `opts.grad_delay` queue, has the
    /// engine apply the update, checkpoints if due, and records one
    /// [`StepMetrics`] row. Resuming at or past `steps` is an empty run,
    /// decided before the engine is started.
    ///
    /// Whether a step captures curvature statistics, and what its row
    /// reports as refreshed, is read from the optimizer's own cadence clock
    /// before the update advances it.
    ///
    /// # Panics
    ///
    /// Panics if `opts.accumulation_steps == 0`, or if `opts.grad_delay > 0`
    /// with an optimizer other than LAMB or with checkpoints saved or
    /// resumed.
    pub(crate) fn drive(
        &mut self,
        engine: &mut dyn Engine,
        choice: &OptimizerChoice,
        steps: usize,
        opts: &TrainOptions,
        save: Option<&CheckpointPolicy>,
        resume: Option<&ResumeFrom>,
    ) -> Result<TrainRun, ExecError> {
        assert!(
            opts.accumulation_steps > 0,
            "accumulation_steps must be positive"
        );
        assert!(
            opts.grad_delay == 0 || matches!(choice, OptimizerChoice::Lamb { .. }),
            "grad_delay models asynchronous first-order pipelines; use Lamb"
        );
        assert!(
            opts.grad_delay == 0 || (save.is_none() && resume.is_none()),
            "checkpointing does not support grad_delay (in-flight stale-gradient queue)"
        );
        let ckpt_err = |completed_steps| {
            move |source| ExecError {
                completed_steps,
                fault: ExecFault::Checkpoint(source),
            }
        };
        let (mut opt, store, start_step) = self
            .open_run(engine.model(), choice, save, resume)
            .map_err(ckpt_err(0))?;
        if start_step < steps {
            engine.start();
        }
        let (n_micro, grad_delay) = (opts.accumulation_steps, opts.grad_delay);
        let scale = 1.0 / n_micro as f64;
        let ms = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e3;
        let mut losses = Vec::with_capacity(steps.saturating_sub(start_step));
        let mut metrics = Vec::new();
        // Refreshes since this run's first step, for the cumulative columns.
        let (mut curvature_refreshes, mut inversions) = (0, 0);
        // Mean gradients computed but not yet applied, oldest first.
        let mut in_flight: VecDeque<Vec<Matrix>> = VecDeque::new();
        for step in start_step..steps {
            let _step_span = pipefisher_trace::span("step", "train");
            let alloc_before = pipefisher_trace::alloc_snapshot();
            let model = engine.model();
            model.visit_all_params(&mut |p| p.grad.scale_inplace(0.0));
            let (refresh_curv, refresh_inv) = opt.next_step_refreshes();
            let t0 = Instant::now();
            // Sampled up front, serially, preserving the data RNG stream.
            // A refresh step captures curvature statistics on the capture
            // micro-batch, the one whose ops release the plan's folds.
            let batches: Vec<_> = {
                let _span = pipefisher_trace::span("sample", "train");
                let sample = |mb| {
                    let ctx = if refresh_curv && mb == capture_micro_batch(n_micro) {
                        ForwardCtx::train_with_capture()
                    } else {
                        ForwardCtx::train()
                    };
                    (
                        self.sampler.sample(self.batch_size, &mut self.data_rng),
                        ctx,
                    )
                };
                (0..n_micro).map(sample).collect()
            };
            let t1 = Instant::now();
            let loss = {
                let _span = pipefisher_trace::span("forward_backward", "train");
                engine.run_micro_batches(step, batches, &mut opt)? * scale
            };
            let model = engine.model();
            model.visit_all_params(&mut |p| p.grad.scale_inplace(scale));
            let t2 = Instant::now();
            losses.push(loss);
            pipefisher_trace::counter("loss", loss);
            // Asynchronous-pipeline emulation (App. C.1): queue this step's
            // gradient and hand the optimizer the one from `grad_delay`
            // steps ago; no update while the queue fills.
            let mut update = true;
            if grad_delay > 0 {
                let mut fresh = Vec::new();
                model.visit_all_params(&mut |p| fresh.push(p.grad.clone()));
                in_flight.push_back(fresh);
                update = in_flight.len() > grad_delay;
                if update {
                    let mut stale = in_flight.pop_front().expect("queue nonempty").into_iter();
                    model.visit_all_params(&mut |p| p.grad = stale.next().expect("same params"));
                }
            }
            // Global L2 norm of the gradient the optimizer consumes.
            let mut sq = 0.0;
            model.visit_all_params(&mut |p| {
                sq += p.grad.as_slice().iter().map(|v| v * v).sum::<f64>();
            });
            let grad_norm = sq.sqrt();
            let lr = if update {
                self.schedule.lr_at(step)
            } else {
                0.0
            };
            let t3 = Instant::now();
            if update {
                let _span = pipefisher_trace::span("optimizer_step", "train");
                engine.apply(&mut opt, lr);
            }
            let t4 = Instant::now();
            // Checkpoint at the step boundary: gradients are merged and the
            // optimizer applied, so every engine captures the same state.
            let mut ckpt_write_ms = 0.0;
            if let (Some(policy), Some(dir)) = (save, &store) {
                if policy.due(step + 1, steps) {
                    let tc = TrainCheckpoint {
                        next_step: (step + 1) as u64,
                        optimizer_label: opt.label().to_string(),
                        model: export_params_with(|f| engine.model().visit_all_params(f)),
                        optim: opt.export_state(),
                        rng: self.rng_state(),
                    };
                    dir.save(tc.next_step, &tc.to_snapshot())
                        .map_err(ckpt_err(step + 1))?;
                    ckpt_write_ms = ms(t4, Instant::now());
                }
            }
            let (damping_escalations, inversion_failures) = opt.inversion_health();
            let alloc = pipefisher_trace::alloc_snapshot().since(&alloc_before);
            curvature_refreshes += u64::from(refresh_curv);
            inversions += u64::from(refresh_inv);
            metrics.push(StepMetrics {
                step,
                loss,
                grad_norm,
                lr,
                data_ms: ms(t0, t1),
                forward_backward_ms: ms(t1, t2),
                optimizer_ms: ms(t3, t4),
                curvature_refreshed: refresh_curv,
                curvature_refreshes,
                inversions,
                damping_escalations,
                inversion_failures,
                allocs: alloc.allocs,
                alloc_bytes: alloc.bytes,
                ckpt_write_ms,
            });
        }
        let label = match grad_delay {
            0 => opt.label().to_string(),
            m => format!("{} (grad delay {m})", opt.label()),
        };
        Ok(TrainRun {
            losses,
            label,
            metrics,
        })
    }

    /// Raw xoshiro state of the data RNG — the complete data-loader cursor,
    /// since batch sampling is a pure function of this stream.
    pub fn rng_state(&self) -> [u64; 4] {
        self.data_rng.state()
    }

    /// Restores the data-RNG stream captured by [`Trainer::rng_state`].
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.data_rng = StdRng::from_state(state);
    }
}

/// How a training step executes — the part of the loop [`Trainer::drive`]
/// does not own.
pub(crate) trait Engine {
    /// The canonical model: gradients accumulate into it, updates apply to
    /// it, checkpoints read it.
    fn model(&mut self) -> &mut dyn KfacModel;

    /// Called once, after any resume has restored [`Engine::model`] and only
    /// if there are steps to run.
    fn start(&mut self) {}

    /// Runs the step's micro-batches against the zeroed canonical gradients,
    /// leaving their micro-batch-order sum there, and returns the
    /// micro-batch-order sum of the total losses. An engine that runs the
    /// step's K-FAC work itself asks `opt` for its cadence.
    fn run_micro_batches(
        &mut self,
        step: usize,
        batches: Vec<(PreTrainingBatch, ForwardCtx)>,
        opt: &mut AnyOpt,
    ) -> Result<f64, ExecError>;

    /// Applies one optimizer update to the canonical model's gradients.
    fn apply(&mut self, opt: &mut AnyOpt, lr: f64);
}

/// The inline engine is the caller's model itself: the micro-batches run one
/// after another on the calling thread, so the gradients sum in
/// micro-batch order.
impl Engine for BertForPreTraining {
    fn model(&mut self) -> &mut dyn KfacModel {
        self
    }

    fn run_micro_batches(
        &mut self,
        _step: usize,
        batches: Vec<(PreTrainingBatch, ForwardCtx)>,
        _opt: &mut AnyOpt,
    ) -> Result<f64, ExecError> {
        Ok(batches
            .iter()
            .map(|(batch, ctx)| self.train_step(batch, ctx).total_loss)
            .sum())
    }

    fn apply(&mut self, opt: &mut AnyOpt, lr: f64) {
        opt.apply(self, lr);
    }
}

/// The driver's optimizer dispatch, carrying what the metrics recorder
/// needs (labels, the K-FAC refresh cadence and health counters).
/// Crate-visible so the staged engine loans K-FAC layer states out of it.
pub(crate) enum AnyOpt {
    Lamb(Lamb),
    Kfac(Kfac<Lamb>),
}

impl AnyOpt {
    fn new(choice: &OptimizerChoice) -> AnyOpt {
        match choice {
            OptimizerChoice::Lamb { weight_decay } => AnyOpt::Lamb(Lamb::new(*weight_decay)),
            OptimizerChoice::Kfac { weight_decay, kfac } => {
                AnyOpt::Kfac(Kfac::new(kfac.clone(), Lamb::new(*weight_decay)))
            }
        }
    }

    fn label(&self) -> &'static str {
        match self {
            AnyOpt::Lamb(_) => "NVLAMB",
            AnyOpt::Kfac(_) => "K-FAC",
        }
    }

    /// `(curvature, inversion)`: whether the step about to run folds freshly
    /// captured statistics into the Kronecker factors (what PipeFisher's
    /// bubble schedule computes) and whether it recomputes the damped
    /// inverses — asked of the optimizer's own step counter, so the loop
    /// keeps no second cadence clock. `(false, false)` without K-FAC.
    pub(crate) fn next_step_refreshes(&self) -> (bool, bool) {
        match self {
            AnyOpt::Kfac(opt) => (
                opt.next_step_refreshes_curvature(),
                opt.next_step_refreshes_inversion(),
            ),
            _ => (false, false),
        }
    }

    /// `(damping_escalations, inversion_failures)` so far — see
    /// [`Kfac::inversion_health`]; `(0, 0)` for the first-order optimizers.
    fn inversion_health(&self) -> (u64, u64) {
        match self {
            AnyOpt::Kfac(opt) => opt.inversion_health(),
            _ => (0, 0),
        }
    }

    /// Applies one optimizer update to the accumulated gradients, K-FAC
    /// curvature folds and inverse refreshes included.
    pub(crate) fn apply(&mut self, model: &mut dyn KfacModel, lr: f64) {
        match self {
            AnyOpt::Lamb(opt) => {
                opt.begin_step();
                model.visit_all_params(&mut |p| opt.step_param(p, lr));
            }
            AnyOpt::Kfac(opt) => opt.step(model, lr),
        }
    }

    /// The wrapped K-FAC optimizer, when this is the K-FAC arm — the
    /// executor loans layer states out of it and returns them each refresh
    /// step.
    pub(crate) fn kfac_mut(&mut self) -> Option<&mut Kfac<Lamb>> {
        match self {
            AnyOpt::Kfac(opt) => Some(opt),
            _ => None,
        }
    }

    /// Serializes the wrapped optimizer's mutable state, tagged by kind so
    /// a checkpoint can never be restored into the wrong optimizer.
    fn export_state(&self) -> Vec<u8> {
        let mut w = SectionWriter::new();
        let (tag, blob) = match self {
            AnyOpt::Lamb(o) => (0u8, o.export_state()),
            AnyOpt::Kfac(opt) => (1u8, opt.export_state()),
        };
        w.u8(tag);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&blob);
        bytes
    }

    /// Restores state captured by [`AnyOpt::export_state`]. A tag for a
    /// different optimizer kind is [`CkptError::OptimizerMismatch`].
    fn import_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = SectionReader::new("optim", bytes);
        let tag = r.u8()?;
        let found = match tag {
            0 => "NVLAMB",
            1 => "K-FAC",
            other => {
                return Err(CkptError::Malformed {
                    detail: format!("unknown optimizer tag {other} in optim section"),
                })
            }
        };
        if found != self.label() {
            return Err(CkptError::OptimizerMismatch {
                expected: self.label().to_string(),
                found: found.to_string(),
            });
        }
        let blob = &bytes[1..];
        match self {
            AnyOpt::Lamb(o) => o.import_state(blob),
            AnyOpt::Kfac(opt) => opt.import_state(blob),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticLanguage;
    use pipefisher_nn::BertConfig;

    fn quick_setup(seed: u64) -> (Trainer, BertForPreTraining) {
        let lang = SyntheticLanguage::new(36, 2, 4, 11);
        let sampler = BatchSampler::new(lang, 16);
        let trainer = Trainer::new(sampler, 8, LrSchedule::Constant(5e-3), seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let model = BertForPreTraining::new(BertConfig::tiny(36, 16), 0.0, &mut rng);
        (trainer, model)
    }

    /// K-FAC (on NVLAMB) refreshing curvature / inverses at these intervals.
    fn kfac_choice(curvature_interval: usize, inversion_interval: usize) -> OptimizerChoice {
        OptimizerChoice::Kfac {
            weight_decay: 0.01,
            kfac: KfacConfig {
                damping: 1e-2,
                curvature_interval,
                inversion_interval,
                ..Default::default()
            },
        }
    }

    #[test]
    fn lamb_training_reduces_loss() {
        let (mut trainer, mut model) = quick_setup(1);
        let run = trainer.run(
            &mut model,
            &OptimizerChoice::Lamb { weight_decay: 0.01 },
            30,
        );
        assert_eq!(run.losses.len(), 30);
        let first = run.smoothed(5)[2];
        let last = run.final_loss(5);
        assert!(last < first, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn kfac_training_reduces_loss() {
        let (mut trainer, mut model) = quick_setup(2);
        let choice = kfac_choice(2, 2);
        let run = trainer.run(&mut model, &choice, 30);
        let first = run.smoothed(5)[2];
        let last = run.final_loss(5);
        assert!(last < first, "loss did not drop: {first} -> {last}");
        assert_eq!(run.label, "K-FAC");
    }

    #[test]
    fn smoothing_and_target_extraction() {
        let run = TrainRun {
            losses: vec![5.0, 4.0, 3.0, 2.0, 1.0, 1.0, 1.0],
            label: "x".into(),
            metrics: Vec::new(),
        };
        let sm = run.smoothed(3);
        assert_eq!(sm.len(), 7);
        assert!(sm[1] <= 4.0 + 1e-12);
        assert_eq!(run.steps_to_reach(2.5, 1), Some(3));
        assert_eq!(run.steps_to_reach(0.5, 1), None);
    }

    #[test]
    fn accumulation_matches_big_batch_direction() {
        // Accumulating 2 batches of 8 behaves like (and learns like) a
        // batch of 16: losses drop and stay finite — also when the mean
        // gradient is applied two steps late (the options compose).
        let run_with_delay = |grad_delay: usize| {
            let (mut trainer, mut model) = quick_setup(4);
            let run = trainer.run_with_options(
                &mut model,
                &OptimizerChoice::Lamb { weight_decay: 0.01 },
                20,
                &crate::TrainOptions {
                    accumulation_steps: 2,
                    grad_delay,
                },
            );
            assert_eq!(run.losses.len(), 20);
            assert!(run.losses.iter().all(|l| l.is_finite()));
            assert!(run.final_loss(5) < run.smoothed(5)[2]);
            (run, trainer.rng_state())
        };
        let (sync, sync_cursor) = run_with_delay(0);
        let (stale, stale_cursor) = run_with_delay(2);
        // The delayed run draws the same two batches per step (so its
        // `data_ms` times two samples): same first mean loss, same final
        // data-stream position.
        assert_eq!(stale.losses[0].to_bits(), sync.losses[0].to_bits());
        assert_eq!(stale_cursor, sync_cursor);
        assert_eq!(stale.label, "NVLAMB (grad delay 2)");
        // No update (lr 0) while the queue fills, one per step after.
        let updated: Vec<bool> = stale.metrics.iter().map(|m| m.lr > 0.0).collect();
        assert_eq!(updated[..3], [false, false, true]);
    }

    #[test]
    fn accumulated_kfac_also_learns() {
        let (mut trainer, mut model) = quick_setup(5);
        let choice = kfac_choice(2, 2);
        let run = trainer.run_with_options(
            &mut model,
            &choice,
            20,
            &crate::TrainOptions {
                accumulation_steps: 2,
                grad_delay: 0,
            },
        );
        assert!(run.final_loss(5) < run.smoothed(5)[2]);
    }

    #[test]
    fn stale_gradients_still_learn_but_trail_fresh() {
        // App. C.1: asynchronous pipelines trade bubble-free throughput for
        // stale gradients. A modest delay must still converge…
        let (mut t_fresh, mut m_fresh) = quick_setup(6);
        let fresh = t_fresh.run(
            &mut m_fresh,
            &OptimizerChoice::Lamb { weight_decay: 0.0 },
            40,
        );
        let (mut t_stale, mut m_stale) = quick_setup(6);
        let stale = t_stale.run_with_options(
            &mut m_stale,
            &OptimizerChoice::Lamb { weight_decay: 0.0 },
            40,
            &crate::TrainOptions {
                accumulation_steps: 1,
                grad_delay: 4,
            },
        );
        assert!(
            stale.final_loss(7) < stale.smoothed(7)[3],
            "stale run did not learn"
        );
        // …but not faster than the synchronous baseline.
        assert!(stale.final_loss(7) >= fresh.final_loss(7) - 0.05);
        assert!(stale.label.contains("delay 4"));
    }

    #[test]
    #[should_panic(expected = "asynchronous first-order")]
    fn stale_kfac_is_rejected() {
        let (mut trainer, mut model) = quick_setup(7);
        let choice = OptimizerChoice::Kfac {
            weight_decay: 0.0,
            kfac: KfacConfig::default(),
        };
        let _ = trainer.run_with_options(
            &mut model,
            &choice,
            5,
            &crate::TrainOptions {
                accumulation_steps: 1,
                grad_delay: 2,
            },
        );
    }

    #[test]
    fn lamb_metrics_have_no_kfac_refreshes() {
        let (mut trainer, mut model) = quick_setup(8);
        let run = trainer.run(&mut model, &OptimizerChoice::Lamb { weight_decay: 0.01 }, 3);
        assert!(run.metrics.iter().all(|m| m.curvature_refreshes == 0));
        assert!(run.metrics.iter().all(|m| m.inversions == 0));
    }

    #[test]
    fn runs_are_deterministic() {
        let (mut t1, mut m1) = quick_setup(7);
        let (mut t2, mut m2) = quick_setup(7);
        let r1 = t1.run(&mut m1, &OptimizerChoice::Lamb { weight_decay: 0.0 }, 5);
        let r2 = t2.run(&mut m2, &OptimizerChoice::Lamb { weight_decay: 0.0 }, 5);
        assert_eq!(r1.losses, r2.losses);
    }
}
