//! Pretraining loops with loss tracking (the Figure 6 machinery) and
//! per-step metrics/trace instrumentation.

use crate::checkpoint::{resolve_resume, CheckpointOptions, TrainCheckpoint};
use crate::metrics::{MetricsRecorder, PhaseTimings};
use crate::{BatchSampler, StepMetrics};
use pipefisher_ckpt::{CkptError, SectionReader, SectionWriter};
use pipefisher_nn::{BertForPreTraining, ForwardCtx, PreTrainingBatch};
use pipefisher_optim::{
    Kfac, KfacConfig, KfacModel, Lamb, LrSchedule, Optimizer, Shampoo, ShampooConfig, StateSnapshot,
};
use pipefisher_tensor::par;
use rand::rngs::StdRng;
use rand::SeedableRng;
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
    /// Shampoo (paper §5's other bubble-fillable second-order method).
    Shampoo {
        /// Shampoo hyperparameters; `root_interval` plays the role of the
        /// PipeFisher refresh interval.
        shampoo: ShampooConfig,
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

    /// First step whose smoothed loss reaches `target` and stays there for
    /// the rest of the window-smoothed curve's local neighbourhood; `None`
    /// if never reached. Mirrors the paper's "steps for K-FAC to reach
    /// NVLAMB's final loss" extraction (ignoring early fluctuations).
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
    pub(crate) schedule: LrSchedule,
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

    /// Trains `model` for `steps` steps with gradient accumulation and/or
    /// stale-gradient application.
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
        assert!(
            opts.accumulation_steps > 0,
            "accumulation_steps must be positive"
        );
        if opts.grad_delay > 0 {
            assert!(
                matches!(choice, OptimizerChoice::Lamb { .. }),
                "grad_delay models asynchronous first-order pipelines; use Lamb"
            );
            return self.run_stale_lamb(model, choice, steps, opts);
        }
        self.run_accumulated(model, choice, steps, opts.accumulation_steps)
    }

    /// Samples the step's micro-batches up front (serially, preserving the
    /// data RNG stream) with the forward context each one should use.
    pub(crate) fn sample_micro_batches(
        &mut self,
        accumulation: usize,
        capture_last: bool,
    ) -> Vec<(PreTrainingBatch, ForwardCtx)> {
        (0..accumulation)
            .map(|acc| {
                // Capture curvature statistics on the last micro-batch of a
                // refresh step (a fresh sample of the same distribution, as
                // PipeFisher's per-step curvature uses one step's
                // micro-batches).
                let ctx = if capture_last && acc == accumulation - 1 {
                    ForwardCtx::train_with_capture()
                } else {
                    ForwardCtx::train()
                };
                (
                    self.sampler.sample(self.batch_size, &mut self.data_rng),
                    ctx,
                )
            })
            .collect()
    }

    /// One optimizer-agnostic accumulated-step loop: sample → accumulate
    /// micro-batch gradients → scale to the mean → update, with trace spans
    /// and a [`StepMetrics`] row per step. `accumulation == 1` reproduces
    /// the plain per-step loop bitwise (`scale_inplace(1.0)` is exact).
    fn run_accumulated(
        &mut self,
        model: &mut BertForPreTraining,
        choice: &OptimizerChoice,
        steps: usize,
        accumulation: usize,
    ) -> TrainRun {
        self.run_accumulated_ckpt(model, choice, steps, accumulation, None)
            .expect("no checkpointing requested, so no checkpoint errors")
    }

    /// The accumulated loop with optional checkpoint save/resume. With
    /// `ckpt == None` (or an empty [`CheckpointOptions`]) the loop body is
    /// unchanged, so plain runs are bitwise identical to the historical
    /// ones.
    fn run_accumulated_ckpt(
        &mut self,
        model: &mut BertForPreTraining,
        choice: &OptimizerChoice,
        steps: usize,
        accumulation: usize,
        ckpt: Option<&CheckpointOptions>,
    ) -> Result<TrainRun, CkptError> {
        let scale = 1.0 / accumulation as f64;
        let mut opt = AnyOpt::new(choice);
        let mut start_step = 0usize;
        let store = match ckpt.and_then(|c| c.save.as_ref()) {
            Some(policy) => Some((policy, policy.open()?)),
            None => None,
        };
        if let Some(resume) = ckpt.and_then(|c| c.resume.as_ref()) {
            let path = resolve_resume(resume)?;
            let tc = TrainCheckpoint::load(&path)?;
            start_step =
                self.restore_checkpoint(&tc, &mut opt, |bytes| model.import_params(bytes))?;
        }
        let mut losses = Vec::with_capacity(steps.saturating_sub(start_step));
        let mut recorder = MetricsRecorder::default();
        for step in start_step..steps {
            let _step_span = pipefisher_trace::span("step", "train");
            let alloc_before = pipefisher_trace::alloc_snapshot();
            model.zero_grad();
            let refresh = opt.refreshes_curvature_at(step);
            let t0 = Instant::now();
            let batches = {
                let _span = pipefisher_trace::span("sample", "train");
                self.sample_micro_batches(accumulation, refresh)
            };
            let t1 = Instant::now();
            let loss = {
                let _span = pipefisher_trace::span("forward_backward", "train");
                let total: f64 = accumulate_micro_batches(model, &batches).iter().sum();
                total * scale
            };
            model.visit_params(&mut |p| p.grad.scale_inplace(scale));
            let t2 = Instant::now();
            losses.push(loss);
            pipefisher_trace::counter("loss", loss);
            let grad_norm = global_grad_norm(model);
            let lr = self.schedule.lr_at(step);
            let t3 = Instant::now();
            {
                let _span = pipefisher_trace::span("optimizer_step", "train");
                opt.apply(model, lr);
            }
            let t4 = Instant::now();
            let mut ckpt_write_ms = 0.0;
            if let Some((policy, dir)) = &store {
                if policy.due(step + 1, steps) {
                    let tw = Instant::now();
                    let snap = self
                        .capture_checkpoint((step + 1) as u64, &opt, model.export_params())
                        .to_snapshot();
                    dir.save((step + 1) as u64, &snap)?;
                    ckpt_write_ms = tw.elapsed().as_secs_f64() * 1e3;
                }
            }
            recorder.record(
                step,
                loss,
                grad_norm,
                lr,
                PhaseTimings {
                    data_ms: (t1 - t0).as_secs_f64() * 1e3,
                    forward_backward_ms: (t2 - t1).as_secs_f64() * 1e3,
                    optimizer_ms: (t4 - t3).as_secs_f64() * 1e3,
                },
                refresh,
                opt.inverts_at(step),
                opt.inversion_health(),
                pipefisher_trace::alloc_snapshot().since(&alloc_before),
                ckpt_write_ms,
            );
        }
        Ok(TrainRun {
            losses,
            label: opt.label().to_string(),
            metrics: recorder.into_rows(),
        })
    }

    fn run_stale_lamb(
        &mut self,
        model: &mut BertForPreTraining,
        choice: &OptimizerChoice,
        steps: usize,
        opts: &TrainOptions,
    ) -> TrainRun {
        let OptimizerChoice::Lamb { weight_decay } = choice else {
            unreachable!()
        };
        let mut opt = Lamb::new(*weight_decay);
        let mut losses = Vec::with_capacity(steps);
        let mut recorder = MetricsRecorder::default();
        // Queue of delayed gradients: (name → grad) snapshots.
        let mut queue: std::collections::VecDeque<Vec<pipefisher_tensor::Matrix>> =
            std::collections::VecDeque::new();
        for step in 0..steps {
            let _step_span = pipefisher_trace::span("step", "train");
            let alloc_before = pipefisher_trace::alloc_snapshot();
            let t0 = Instant::now();
            let batch = {
                let _span = pipefisher_trace::span("sample", "train");
                self.sampler.sample(self.batch_size, &mut self.data_rng)
            };
            let t1 = Instant::now();
            model.zero_grad();
            let out = {
                let _span = pipefisher_trace::span("forward_backward", "train");
                model.train_step(&batch, &ForwardCtx::train())
            };
            let t2 = Instant::now();
            losses.push(out.total_loss);
            pipefisher_trace::counter("loss", out.total_loss);
            // Snapshot the fresh gradient, then apply the one from m steps ago.
            let mut snapshot = Vec::new();
            model.visit_params(&mut |p| snapshot.push(p.grad.clone()));
            queue.push_back(snapshot);
            let mut lr = 0.0;
            let t3 = Instant::now();
            if queue.len() > opts.grad_delay {
                let _span = pipefisher_trace::span("optimizer_step", "train");
                let stale = queue.pop_front().expect("queue nonempty");
                let mut idx = 0;
                model.visit_params(&mut |p| {
                    p.grad = stale[idx].clone();
                    idx += 1;
                });
                lr = self.schedule.lr_at(step);
                opt.begin_step();
                model.visit_params(&mut |p| opt.step_param(p, lr));
            }
            let t4 = Instant::now();
            // Gradient norm of the gradient the optimizer consumed (the
            // stale one once the queue is full; the fresh one before).
            let grad_norm = global_grad_norm(model);
            recorder.record(
                step,
                out.total_loss,
                grad_norm,
                lr,
                PhaseTimings {
                    data_ms: (t1 - t0).as_secs_f64() * 1e3,
                    forward_backward_ms: (t2 - t1).as_secs_f64() * 1e3,
                    optimizer_ms: (t4 - t3).as_secs_f64() * 1e3,
                },
                false,
                false,
                (0, 0),
                pipefisher_trace::alloc_snapshot().since(&alloc_before),
                0.0,
            );
        }
        TrainRun {
            losses,
            label: format!("NVLAMB (grad delay {})", opts.grad_delay),
            metrics: recorder.into_rows(),
        }
    }

    /// Trains `model` for `steps` steps, returning the loss history.
    ///
    /// Runs the accumulated loop with a single micro-batch per step, which
    /// is bitwise identical to the historical dedicated per-step loop (the
    /// mean-scaling multiplies by exactly 1.0).
    pub fn run(
        &mut self,
        model: &mut BertForPreTraining,
        choice: &OptimizerChoice,
        steps: usize,
    ) -> TrainRun {
        self.run_accumulated(model, choice, steps, 1)
    }

    /// Like [`Trainer::run_with_options`] with crash-safe checkpointing:
    /// saves per `ckpt.save` (atomically, after the optimizer update of a
    /// due step) and/or resumes from `ckpt.resume` before the first step.
    ///
    /// A resumed run is *bitwise-invisible*: its per-step losses and final
    /// parameters equal the corresponding tail of an uninterrupted run,
    /// because the checkpoint captures every piece of mutable loop state —
    /// parameters, optimizer state (including the K-FAC/Shampoo cadence
    /// counters), and the data-RNG stream. The returned [`TrainRun`] covers
    /// steps `next_step..steps` (its metric rows carry absolute step
    /// indices).
    ///
    /// # Errors
    ///
    /// Any checkpoint I/O, validation, or compatibility failure (corrupt
    /// file, shape mismatch, optimizer mismatch) is a structured
    /// [`CkptError`]; nothing is trained on a partially restored state.
    ///
    /// # Panics
    ///
    /// Panics if `opts.accumulation_steps == 0` or `opts.grad_delay > 0`
    /// (stale-gradient emulation keeps an in-flight gradient queue that is
    /// deliberately not checkpointable).
    pub fn run_checkpointed(
        &mut self,
        model: &mut BertForPreTraining,
        choice: &OptimizerChoice,
        steps: usize,
        opts: &TrainOptions,
        ckpt: &CheckpointOptions,
    ) -> Result<TrainRun, CkptError> {
        assert!(
            opts.accumulation_steps > 0,
            "accumulation_steps must be positive"
        );
        assert!(
            opts.grad_delay == 0,
            "checkpointing does not support grad_delay (in-flight stale-gradient queue)"
        );
        self.run_accumulated_ckpt(model, choice, steps, opts.accumulation_steps, Some(ckpt))
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

    /// Builds the full checkpoint for a loop about to run step `next_step`,
    /// given the already-exported model section.
    pub(crate) fn capture_checkpoint(
        &self,
        next_step: u64,
        opt: &AnyOpt,
        model: Vec<u8>,
    ) -> TrainCheckpoint {
        TrainCheckpoint {
            next_step,
            optimizer_label: opt.label().to_string(),
            model,
            optim: opt.export_state(),
            rng: self.rng_state(),
        }
    }

    /// Restores a loaded checkpoint into this trainer and `opt`, importing
    /// the model section through `import_model` (monolithic or staged).
    /// Returns the step index to resume the loop at.
    pub(crate) fn restore_checkpoint(
        &mut self,
        tc: &TrainCheckpoint,
        opt: &mut AnyOpt,
        import_model: impl FnOnce(&[u8]) -> Result<(), CkptError>,
    ) -> Result<usize, CkptError> {
        if tc.optimizer_label != opt.label() {
            return Err(CkptError::OptimizerMismatch {
                expected: opt.label().to_string(),
                found: tc.optimizer_label.clone(),
            });
        }
        import_model(&tc.model)?;
        opt.import_state(&tc.optim)?;
        self.set_rng_state(tc.rng);
        Ok(tc.next_step as usize)
    }
}

/// Global L2 norm over every parameter gradient.
fn global_grad_norm(model: &mut BertForPreTraining) -> f64 {
    let mut sq = 0.0;
    model.visit_params(&mut |p| {
        sq += p.grad.as_slice().iter().map(|v| v * v).sum::<f64>();
    });
    sq.sqrt()
}

/// The trainer's optimizer dispatch: one enum instead of three copies of
/// the step loop, carrying what the metrics recorder needs (labels and the
/// K-FAC refresh cadence). Crate-visible so the pipeline executor reuses
/// the identical dispatch (and K-FAC state plumbing) for its steps.
pub(crate) enum AnyOpt {
    Lamb(Lamb),
    Kfac { opt: Kfac<Lamb>, config: KfacConfig },
    Shampoo(Shampoo),
}

impl AnyOpt {
    pub(crate) fn new(choice: &OptimizerChoice) -> AnyOpt {
        match choice {
            OptimizerChoice::Lamb { weight_decay } => AnyOpt::Lamb(Lamb::new(*weight_decay)),
            OptimizerChoice::Kfac { weight_decay, kfac } => AnyOpt::Kfac {
                opt: Kfac::new(kfac.clone(), Lamb::new(*weight_decay)),
                config: kfac.clone(),
            },
            OptimizerChoice::Shampoo { shampoo } => AnyOpt::Shampoo(Shampoo::new(shampoo.clone())),
        }
    }

    pub(crate) fn label(&self) -> &'static str {
        match self {
            AnyOpt::Lamb(_) => "NVLAMB",
            AnyOpt::Kfac { .. } => "K-FAC",
            AnyOpt::Shampoo(_) => "Shampoo",
        }
    }

    /// Whether step `step` captures activations/errors and folds them into
    /// the Kronecker factors (what PipeFisher's bubble schedule computes).
    pub(crate) fn refreshes_curvature_at(&self, step: usize) -> bool {
        match self {
            AnyOpt::Kfac { config, .. } => {
                (step as u64).is_multiple_of(config.curvature_interval as u64)
            }
            _ => false,
        }
    }

    /// Whether step `step` recomputes the damped factor inverses (mirrors
    /// [`Kfac::step`]'s internal cadence).
    pub(crate) fn inverts_at(&self, step: usize) -> bool {
        match self {
            AnyOpt::Kfac { config, .. } => {
                (step as u64).is_multiple_of(config.inversion_interval as u64)
            }
            _ => false,
        }
    }

    /// `(damping_escalations, inversion_failures)` so far — see
    /// [`Kfac::inversion_health`]; `(0, 0)` for the first-order optimizers.
    pub(crate) fn inversion_health(&self) -> (u64, u64) {
        match self {
            AnyOpt::Kfac { opt, .. } => opt.inversion_health(),
            _ => (0, 0),
        }
    }

    /// Applies one optimizer update to the accumulated gradients. Takes the
    /// model through [`KfacModel`] so the pipeline executor can drive the
    /// same dispatch on a staged model; for `BertForPreTraining` the
    /// `visit_all_params` traversal is `visit_params`, so the monolithic
    /// trainer's behaviour is bitwise unchanged.
    fn apply(&mut self, model: &mut dyn KfacModel, lr: f64) {
        match self {
            AnyOpt::Lamb(opt) => {
                opt.begin_step();
                model.visit_all_params(&mut |p| opt.step_param(p, lr));
            }
            AnyOpt::Kfac { opt, .. } => opt.step(model, lr),
            AnyOpt::Shampoo(opt) => {
                opt.begin_step();
                model.visit_all_params(&mut |p| opt.step_param(p, lr));
            }
        }
    }

    /// Like [`AnyOpt::apply`], but assumes the K-FAC curvature folds and
    /// inverse refreshes for this step already ran externally (in pipeline
    /// bubbles) against the optimizer's loaned-out layer states. For
    /// NVLAMB/Shampoo there is no external work, so this is `apply`.
    pub(crate) fn apply_preconditioned(&mut self, model: &mut dyn KfacModel, lr: f64) {
        match self {
            AnyOpt::Kfac { opt, .. } => opt.step_preconditioned(model, lr),
            _ => self.apply(model, lr),
        }
    }

    /// The wrapped K-FAC optimizer, when this is the K-FAC arm — the
    /// executor loans layer states out of it and returns them each refresh
    /// step.
    pub(crate) fn kfac_mut(&mut self) -> Option<&mut Kfac<Lamb>> {
        match self {
            AnyOpt::Kfac { opt, .. } => Some(opt),
            _ => None,
        }
    }

    /// Serializes the wrapped optimizer's mutable state, tagged by kind so
    /// a checkpoint can never be restored into the wrong optimizer.
    pub(crate) fn export_state(&self) -> Vec<u8> {
        let mut w = SectionWriter::new();
        let (tag, blob) = match self {
            AnyOpt::Lamb(o) => (0u8, o.export_state()),
            AnyOpt::Kfac { opt, .. } => (1u8, opt.export_state()),
            AnyOpt::Shampoo(o) => (2u8, o.export_state()),
        };
        w.u8(tag);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&blob);
        bytes
    }

    /// Restores state captured by [`AnyOpt::export_state`]. A tag for a
    /// different optimizer kind is [`CkptError::OptimizerMismatch`].
    pub(crate) fn import_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = SectionReader::new("optim", bytes);
        let tag = r.u8()?;
        let found = match tag {
            0 => "NVLAMB",
            1 => "K-FAC",
            2 => "Shampoo",
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
            AnyOpt::Kfac { opt, .. } => opt.import_state(blob),
            AnyOpt::Shampoo(o) => o.import_state(blob),
        }
    }
}

/// Runs one step's micro-batches, accumulating gradients into `model`, and
/// returns each micro-batch's total loss in micro-batch index order.
///
/// With a single worker lane (`PIPEFISHER_THREADS=1`, one available core, or
/// a single micro-batch) this is exactly the serial loop the trainer has
/// always run, so single-threaded results are bitwise unchanged. With more
/// lanes the micro-batches split into contiguous blocks, each block runs on
/// a clone of `model`, and the replica gradients merge back into `model` in
/// block order via `axpy(1.0, ·)` (a ×1.0 multiply is exact, so the merge
/// adds no rounding beyond its summation order). Runs are deterministic for
/// a fixed thread count, but the block-wise gradient association differs
/// from the serial order, so multi-thread runs are not bitwise equal to
/// single-thread runs. Dropout must be inactive (p = 0, as the pretraining
/// reproduction uses) — active dropout would draw from per-replica RNG
/// streams and diverge from the serial stream.
fn accumulate_micro_batches(
    model: &mut BertForPreTraining,
    batches: &[(PreTrainingBatch, ForwardCtx)],
) -> Vec<f64> {
    let n = batches.len();
    let lanes = par::max_threads().min(n);
    if lanes <= 1 {
        return batches
            .iter()
            .map(|(batch, ctx)| model.train_step(batch, ctx).total_loss)
            .collect();
    }
    // Lane w runs micro-batches [bounds[w], bounds[w+1]). Lane 0 uses
    // `model` itself; lanes 1.. use clones taken now, after `zero_grad`, so
    // every replica's grads start at zero and end holding its block's sum.
    let bounds: Vec<usize> = (0..=lanes).map(|w| w * n / lanes).collect();
    let mut replicas: Vec<BertForPreTraining> = (1..lanes).map(|_| model.clone()).collect();
    let mut losses = vec![0.0; n];
    {
        let mut lane_models: Vec<&mut BertForPreTraining> = Vec::with_capacity(lanes);
        lane_models.push(&mut *model);
        lane_models.extend(replicas.iter_mut());
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(lanes);
        let mut loss_rest: &mut [f64] = &mut losses;
        for (w, m) in lane_models.into_iter().enumerate() {
            let (start, end) = (bounds[w], bounds[w + 1]);
            let (block_losses, rest) = loss_rest.split_at_mut(end - start);
            loss_rest = rest;
            let block = &batches[start..end];
            tasks.push(Box::new(move || {
                for ((batch, ctx), slot) in block.iter().zip(block_losses.iter_mut()) {
                    *slot = m.train_step(batch, ctx).total_loss;
                }
            }));
        }
        par::run_tasks(tasks);
    }
    // Merge replica gradients into the primary model in block order.
    for replica in replicas.iter_mut() {
        let mut grads: Vec<pipefisher_tensor::Matrix> = Vec::new();
        replica.visit_params(&mut |p| grads.push(std::mem::take(&mut p.grad)));
        let mut idx = 0;
        model.visit_params(&mut |p| {
            p.grad.axpy(1.0, &grads[idx]);
            idx += 1;
        });
    }
    // K-FAC statistics captured by a replica's block must move to the
    // primary model (lane 0's captures already live there).
    for (w, replica) in replicas.iter_mut().enumerate() {
        let block = &batches[bounds[w + 1]..bounds[w + 2]];
        if !block.iter().any(|(_, ctx)| ctx.capture_kfac) {
            continue;
        }
        let mut stats = Vec::new();
        replica.visit_linears(&mut |l| stats.push(std::mem::take(l.kfac_stats_mut())));
        let mut idx = 0;
        model.visit_linears(&mut |l| {
            *l.kfac_stats_mut() = std::mem::take(&mut stats[idx]);
            idx += 1;
        });
    }
    losses
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
        let choice = OptimizerChoice::Kfac {
            weight_decay: 0.01,
            kfac: KfacConfig {
                damping: 1e-2,
                curvature_interval: 2,
                inversion_interval: 2,
                ..Default::default()
            },
        };
        let run = trainer.run(&mut model, &choice, 30);
        let first = run.smoothed(5)[2];
        let last = run.final_loss(5);
        assert!(last < first, "loss did not drop: {first} -> {last}");
        assert_eq!(run.label, "K-FAC");
    }

    #[test]
    fn shampoo_training_reduces_loss() {
        let (mut trainer, mut model) = quick_setup(9);
        let choice = OptimizerChoice::Shampoo {
            shampoo: pipefisher_optim::ShampooConfig {
                root_interval: 2,
                ..Default::default()
            },
        };
        let run = trainer.run(&mut model, &choice, 30);
        assert_eq!(run.label, "Shampoo");
        let first = run.smoothed(5)[2];
        let last = run.final_loss(5);
        assert!(last < first, "loss did not drop: {first} -> {last}");
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
        // batch of 16: losses drop and stay finite.
        let (mut trainer, mut model) = quick_setup(4);
        let run = trainer.run_with_options(
            &mut model,
            &OptimizerChoice::Lamb { weight_decay: 0.01 },
            20,
            &crate::TrainOptions {
                accumulation_steps: 2,
                grad_delay: 0,
            },
        );
        assert_eq!(run.losses.len(), 20);
        assert!(run.losses.iter().all(|l| l.is_finite()));
        assert!(run.final_loss(5) < run.smoothed(5)[2]);
    }

    #[test]
    fn accumulated_kfac_also_learns() {
        let (mut trainer, mut model) = quick_setup(5);
        let choice = OptimizerChoice::Kfac {
            weight_decay: 0.01,
            kfac: KfacConfig {
                damping: 1e-2,
                curvature_interval: 2,
                inversion_interval: 2,
                ..Default::default()
            },
        };
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

    /// Serializes tests that mutate the process-wide worker-pool settings.
    fn par_settings_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        match LOCK.get_or_init(|| std::sync::Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn parallel_accumulation_first_step_loss_matches_serial() {
        let _guard = par_settings_lock();
        // Within one step no parameters change between micro-batches, so
        // every lane computes exactly the loss the serial loop would, and
        // the index-order sum makes step 0's loss bitwise equal across
        // thread counts. (Later steps may drift in the last bits: the
        // block-order gradient merge changes the FP association.)
        let run_at = |threads: usize| {
            par::set_max_threads(threads);
            let (mut trainer, mut model) = quick_setup(12);
            let run = trainer.run_with_options(
                &mut model,
                &OptimizerChoice::Lamb { weight_decay: 0.01 },
                1,
                &crate::TrainOptions {
                    accumulation_steps: 4,
                    grad_delay: 0,
                },
            );
            par::set_max_threads(0);
            run.losses[0]
        };
        let serial = run_at(1);
        let parallel = run_at(2);
        assert!(
            serial.to_bits() == parallel.to_bits(),
            "step-0 loss differs: {serial:?} vs {parallel:?}"
        );
    }

    #[test]
    fn parallel_accumulated_runs_are_deterministic() {
        let _guard = par_settings_lock();
        // Two identical multi-step accumulated runs at a fixed thread count
        // must agree exactly, K-FAC capture included.
        let run_once = || {
            let (mut trainer, mut model) = quick_setup(13);
            let choice = OptimizerChoice::Kfac {
                weight_decay: 0.01,
                kfac: KfacConfig {
                    damping: 1e-2,
                    curvature_interval: 2,
                    inversion_interval: 2,
                    ..Default::default()
                },
            };
            trainer.run_with_options(
                &mut model,
                &choice,
                6,
                &crate::TrainOptions {
                    accumulation_steps: 3,
                    grad_delay: 0,
                },
            )
        };
        par::set_max_threads(2);
        let r1 = run_once();
        let r2 = run_once();
        par::set_max_threads(0);
        assert_eq!(r1.losses, r2.losses);
        assert!(r1.losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn metrics_rows_track_steps_and_refreshes() {
        let (mut trainer, mut model) = quick_setup(3);
        let choice = OptimizerChoice::Kfac {
            weight_decay: 0.01,
            kfac: KfacConfig {
                damping: 1e-2,
                curvature_interval: 2,
                inversion_interval: 4,
                ..Default::default()
            },
        };
        let run = trainer.run(&mut model, &choice, 5);
        assert_eq!(run.metrics.len(), 5);
        for (i, m) in run.metrics.iter().enumerate() {
            assert_eq!(m.step, i);
            assert_eq!(m.loss, run.losses[i]);
            assert!(m.loss.is_finite() && m.grad_norm.is_finite());
            assert!(m.grad_norm >= 0.0 && m.lr > 0.0);
            assert!(m.data_ms >= 0.0 && m.forward_backward_ms >= 0.0 && m.optimizer_ms >= 0.0);
            // Curvature every 2 steps, inversion every 4.
            assert_eq!(m.curvature_refreshed, i % 2 == 0);
        }
        assert_eq!(run.metrics[4].curvature_refreshes, 3); // steps 0, 2, 4
        assert_eq!(run.metrics[4].inversions, 2); // steps 0, 4
        let jsonl = crate::to_jsonl(&run.metrics);
        assert_eq!(jsonl.lines().count(), 5);
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
