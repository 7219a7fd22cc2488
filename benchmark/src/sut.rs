//! The system under test, seen from outside: **every** call into the
//! workspace crates is in this file, so an API-changing refactor has one
//! place to look. The public items relied on are listed in `README.md`.
//!
//! Nothing here reaches into a crate: each layer is driven through public
//! functions and read through public return values, and the traced run's
//! spans wrap those calls from this side.

use crate::spans::Recorder;
use crate::spec::{Config, Mode, Opt, Scale};
use crate::stats::median;
use pipefisher_lm::{
    plan_for, resolve_resume, BatchSampler, CheckpointOptions, CheckpointPolicy, OptimizerChoice,
    PipelineOptions, ResumeFrom, StepMetrics, SyntheticLanguage, TrainCheckpoint, TrainOptions,
    Trainer,
};
use pipefisher_nn::{
    BertConfig, BertForPreTraining, ForwardCtx, PreTrainingBatch, StageOutput, StagedBert,
};
use pipefisher_optim::{
    fold_curvature_a, fold_curvature_b, refresh_inverses, Kfac, KfacConfig, Lamb, LrSchedule,
    Optimizer,
};
use pipefisher_perfmodel::flops::{backward_flops_per_token, forward_flops_per_token};
use pipefisher_perfmodel::TransformerConfig;
use pipefisher_pipeline::{PipelineScheme, Task, WorkKind};
use pipefisher_sim::simulate;
use pipefisher_tensor::{cholesky_inverse_into, init, kernel, par, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

// ---- Fixed configuration (all workloads) ---------------------------------

/// Vocabulary of the synthetic language (64 words + 4 special tokens).
const VOCAB: usize = 68;
/// Sequence length.
pub const SEQ: usize = 32;
/// Sequences per micro-batch.
pub const BATCH: usize = 8;
/// Micro-batches per optimizer step.
pub const N_MICRO: usize = 4;
/// Pipeline stages = stage threads of the pipelined workloads.
pub const N_STAGES: usize = 2;
/// Tokens one optimizer step consumes.
pub const TOKENS_PER_STEP: usize = N_MICRO * BATCH * SEQ;
/// Smoothed pretraining loss (nats) that counts as "trained" in the
/// convergence report; both optimizers pass it within ~200 small steps.
pub const TARGET_LOSS: f64 = 3.8;
/// Window of the centred moving average over the loss curve.
const SMOOTHING: usize = 9;
const LR: f64 = 5e-3;
const WEIGHT_DECAY: f64 = 0.01;

/// Refresh curvature and inverses every step: the regime PipeFisher
/// targets, and the one that maximises optimizer work.
fn kfac_config() -> KfacConfig {
    KfacConfig {
        damping: 3e-2,
        ema_decay: 0.5,
        curvature_interval: 1,
        inversion_interval: 1,
        kl_clip: Some(1e-2),
        factor_block_size: None,
    }
}

fn bert_config(scale: Scale) -> BertConfig {
    match scale {
        Scale::Small => BertConfig::mini(VOCAB, SEQ),
        Scale::Mid => BertConfig {
            vocab_size: VOCAB,
            max_seq: SEQ,
            d_model: 96,
            d_ff: 384,
            n_heads: 4,
            n_layers: 4,
        },
    }
}

fn choice(opt: Opt) -> OptimizerChoice {
    match opt {
        Opt::Lamb => OptimizerChoice::Lamb {
            weight_decay: WEIGHT_DECAY,
        },
        Opt::Kfac => OptimizerChoice::Kfac {
            weight_decay: WEIGHT_DECAY,
            kfac: kfac_config(),
        },
    }
}

/// Compute threads inside a stage or the serial trainer: always one, so a
/// serial workload uses 1 core and a pipelined one `N_STAGES`.
pub fn pin_single_lane() {
    par::set_max_threads(1);
}

/// `(SIMD dispatch level, worker-pool lanes)` for the provenance record.
pub fn dispatch_provenance() -> (&'static str, usize) {
    (kernel::simd_name(), par::max_threads())
}

// ---- Construction ----------------------------------------------------------

// `seed` seeds the language, the data RNG and the model initialisation; the
// program under test sees only what these generate.

fn sampler(seed: u64) -> BatchSampler {
    BatchSampler::new(SyntheticLanguage::new(VOCAB, 4, 4, seed), SEQ)
}

fn trainer(seed: u64) -> Trainer {
    Trainer::new(sampler(seed), BATCH, LrSchedule::Constant(LR), seed)
}

fn model(seed: u64, scale: Scale) -> BertForPreTraining {
    let mut rng = StdRng::seed_from_u64(seed);
    BertForPreTraining::new(bert_config(scale), 0.0, &mut rng)
}

fn pipeline_options(fill: bool) -> PipelineOptions {
    let mut opts = PipelineOptions::new(PipelineScheme::OneFOneB, N_STAGES, N_MICRO);
    opts.fill_bubbles = fill;
    opts
}

// ---- The three `run*` entry points -----------------------------------------

/// One step's row, copied out of `StepMetrics`.
#[derive(Debug, Clone, Copy)]
pub struct StepRow {
    /// Mean micro-batch loss of the step.
    pub loss: f64,
    /// `data_ms`: sampling the step's micro-batches.
    pub data_ms: f64,
    /// `forward_backward_ms`: the whole pipeline phase when pipelined.
    pub phase_ms: f64,
    /// `optimizer_ms`: when pipelined, the coordinator's serial part.
    pub optimizer_ms: f64,
    /// `ckpt_write_ms`: zero unless the run checkpoints.
    pub ckpt_write_ms: f64,
    /// Cumulative curvature refreshes after this step.
    pub curvature_refreshes: u64,
    /// Cumulative inverse refreshes after this step.
    pub inversions: u64,
}

impl StepRow {
    /// Step time as the end-to-end metric defines it.
    pub fn total_ms(&self) -> f64 {
        self.data_ms + self.phase_ms + self.optimizer_ms + self.ckpt_write_ms
    }
}

fn rows(metrics: &[StepMetrics]) -> Vec<StepRow> {
    metrics
        .iter()
        .map(|m| StepRow {
            loss: m.loss,
            data_ms: m.data_ms,
            phase_ms: m.forward_backward_ms,
            optimizer_ms: m.optimizer_ms,
            ckpt_write_ms: m.ckpt_write_ms,
            curvature_refreshes: m.curvature_refreshes,
            inversions: m.inversions,
        })
        .collect()
}

/// Worker-thread time sums of a pipelined run (all devices, all steps).
#[derive(Debug, Clone, Copy)]
pub struct ExecTimes {
    /// Blocked on pipeline input with no runnable K-FAC unit.
    pub bubble_idle_ms: f64,
    /// K-FAC work after the device's pipeline work finished.
    pub tail_aux_ms: f64,
}

/// What a run returned, plus the wall-clock measured around it.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// One row per completed step.
    pub rows: Vec<StepRow>,
    /// Wall-clock of constructing language, sampler, trainer and model.
    pub build_s: f64,
    /// Wall-clock of the `run*` call alone.
    pub run_s: f64,
    /// `TrainRun::smoothed(9)`: the loss curve the convergence numbers use.
    pub smoothed: Vec<f64>,
    /// `TrainRun::steps_to_reach(TARGET_LOSS, 9)`.
    pub steps_to_target: Option<usize>,
    /// Executor time sums; `None` for serial runs.
    pub exec: Option<ExecTimes>,
    /// Steps asked for.
    pub attempted: usize,
    /// Why the run stopped early, if it did.
    pub error: Option<String>,
}

impl RunResult {
    /// Per-step losses.
    pub fn losses(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.loss).collect()
    }

    /// Per-step times in ms.
    pub fn step_ms(&self) -> Vec<f64> {
        self.rows.iter().map(StepRow::total_ms).collect()
    }
}

/// Builds everything from `seed` and trains for `steps` optimizer steps
/// through the entry point `config.mode` names.
pub fn run(config: Config, seed: u64, steps: usize) -> RunResult {
    let t0 = Instant::now();
    let mut trainer = trainer(seed);
    let mut model = model(seed, config.scale);
    let choice = choice(config.opt);
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (run, exec, error) = match config.mode {
        Mode::Serial => {
            let opts = TrainOptions {
                accumulation_steps: N_MICRO,
                grad_delay: 0,
            };
            let run = trainer.run_with_options(&mut model, &choice, steps, &opts);
            (Some(run), None, None)
        }
        Mode::Pipe { fill } => {
            match trainer.run_pipelined(model, &choice, steps, &pipeline_options(fill)) {
                Ok(outcome) => {
                    let exec = ExecTimes {
                        bubble_idle_ms: outcome.bubble_idle_ms,
                        tail_aux_ms: outcome.tail_aux_ms,
                    };
                    (Some(outcome.run), Some(exec), None)
                }
                // `ExecError`'s message already says how many steps completed.
                Err(e) => (None, None, Some(e.to_string())),
            }
        }
    };
    let run_s = t1.elapsed().as_secs_f64();
    let completed = run.as_ref().filter(|r| !r.losses.is_empty());
    RunResult {
        rows: run.as_ref().map_or_else(Vec::new, |r| rows(&r.metrics)),
        smoothed: completed.map_or_else(Vec::new, |r| r.smoothed(SMOOTHING)),
        steps_to_target: completed.and_then(|r| r.steps_to_reach(TARGET_LOSS, SMOOTHING)),
        build_s,
        run_s,
        exec,
        attempted: steps,
        error,
    }
}

/// Checkpoint probe results.
#[derive(Debug, Clone, Copy)]
pub struct CkptProbe {
    /// Median `ckpt_write_ms` over the run's steps.
    pub write_ms: f64,
    /// Size of the newest checkpoint file.
    pub bytes: u64,
    /// Median time of `TrainCheckpoint::load` on that file.
    pub load_ms: f64,
}

/// Trains `steps` serial steps checkpointing after every one into `dir`
/// (which the caller owns and removes), then times loading the last file.
pub fn ckpt_probe(
    config: Config,
    seed: u64,
    steps: usize,
    dir: &Path,
) -> Result<CkptProbe, String> {
    let mut trainer = trainer(seed);
    let mut model = model(seed, config.scale);
    let opts = TrainOptions {
        accumulation_steps: N_MICRO,
        grad_delay: 0,
    };
    let ckpt = CheckpointOptions {
        save: Some(CheckpointPolicy::new(dir, 1)),
        resume: None,
    };
    let run = trainer
        .run_checkpointed(&mut model, &choice(config.opt), steps, &opts, &ckpt)
        .map_err(|e| e.to_string())?;
    let writes: Vec<f64> = run.metrics.iter().map(|m| m.ckpt_write_ms).collect();
    let path = resolve_resume(&ResumeFrom::Latest(dir.to_path_buf())).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let mut loads = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let loaded = TrainCheckpoint::load(&path).map_err(|e| e.to_string())?;
        loads.push(t.elapsed().as_secs_f64() * 1e3);
        black_box(loaded);
    }
    Ok(CkptProbe {
        write_ms: median(&writes),
        bytes,
        load_ms: median(&loads),
    })
}

// ---- Replica step: the ledger ----------------------------------------------

/// Global L2 gradient norm, as the trainer computes (and times) each step.
fn grad_norm(model: &mut BertForPreTraining) -> f64 {
    let mut sq = 0.0;
    model.visit_params(&mut |p| sq += p.grad.as_slice().iter().map(|v| v * v).sum::<f64>());
    sq.sqrt()
}

enum ReplicaOpt {
    Lamb(Lamb),
    Kfac(Kfac<Lamb>),
}

/// Re-runs the serial training step from outside, one public call at a
/// time, with a span around each: sample → `train_step` ×4 → scale →
/// per layer `take_state` / `fold_curvature_a` / `fold_curvature_b` /
/// `refresh_inverses` / `put_state` → `step_preconditioned` (or the LAMB
/// update). Returns the per-step losses, which must equal
/// `Trainer::run_with_options`' to the bit — that equality is what makes
/// the recorded ledger a ledger of the same program.
pub fn replica(config: Config, seed: u64, steps: usize, rec: &mut Recorder) -> Vec<f64> {
    let sampler = sampler(seed);
    let mut data_rng = StdRng::seed_from_u64(seed);
    let mut model = model(seed, config.scale);
    let mut opt = match config.opt {
        Opt::Lamb => ReplicaOpt::Lamb(Lamb::new(WEIGHT_DECAY)),
        Opt::Kfac => ReplicaOpt::Kfac(Kfac::new(kfac_config(), Lamb::new(WEIGHT_DECAY))),
    };
    // Curvature is captured on the last micro-batch of a refresh step;
    // with `curvature_interval == 1` that is every step.
    let capture = matches!(opt, ReplicaOpt::Kfac(_));
    let scale = 1.0 / N_MICRO as f64;
    let mut losses = Vec::with_capacity(steps);
    for step in 0..steps {
        rec.set_step(step);
        let step_span = rec.begin("lm.step");
        rec.time("lm.zero_grad", || model.zero_grad());
        let batches: Vec<(PreTrainingBatch, ForwardCtx)> = rec.time("lm.sample", || {
            (0..N_MICRO)
                .map(|mb| {
                    let ctx = if capture && mb == N_MICRO - 1 {
                        ForwardCtx::train_with_capture()
                    } else {
                        ForwardCtx::train()
                    };
                    (sampler.sample(BATCH, &mut data_rng), ctx)
                })
                .collect()
        });
        let mut total = 0.0;
        for (batch, ctx) in &batches {
            total += rec.time("nn.train_step", || model.train_step(batch, ctx).total_loss);
        }
        rec.count("nn.train_steps", N_MICRO as u64);
        losses.push(total * scale);
        rec.time("lm.scale_grads", || {
            model.visit_params(&mut |p| p.grad.scale_inplace(scale));
        });
        black_box(rec.time("lm.grad_norm", || grad_norm(&mut model)));
        match &mut opt {
            ReplicaOpt::Lamb(lamb) => rec.time("optim.lamb_update", || {
                lamb.begin_step();
                model.visit_params(&mut |p| lamb.step_param(p, LR));
            }),
            ReplicaOpt::Kfac(kfac) => {
                let t = kfac.step_count() + 1;
                let (ema, damping, block) = {
                    let c = kfac.config();
                    (c.ema_decay, c.damping, c.factor_block_size)
                };
                model.visit_linears(&mut |lin| {
                    let mut state = kfac.take_state(lin.name());
                    let fold = rec.begin("optim.fold");
                    fold_curvature_a(&mut state, lin, ema, t);
                    fold_curvature_b(&mut state, lin, ema, t);
                    rec.end(fold);
                    rec.time("optim.invert", || {
                        refresh_inverses(&mut state, damping, block, t);
                    });
                    rec.count("optim.layer_refreshes", 1);
                    kfac.put_state(lin.name(), state);
                });
                rec.time("optim.precond_update", || {
                    kfac.step_preconditioned(&mut model, LR);
                });
            }
        }
        rec.end(step_span);
    }
    losses
}

// ---- Probes ----------------------------------------------------------------

/// Median wall-clock in ms of `reps` calls of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

fn gflops(flops: f64, ms: f64) -> f64 {
    flops / ms / 1e6
}

/// Kernel rates at the shapes this scale's step uses.
#[derive(Debug, Clone, Copy)]
pub struct KernelProbe {
    /// `matmul_into` at 512³ — the reference rate.
    pub gemm_peak_gflops: f64,
    /// `matmul_into` at 256 × d_model × d_ff (one FFN projection).
    pub gemm_ffn_gflops: f64,
    /// `gram_into` at 256 × (d_ff + 1) (one curvature fold).
    pub gram_gflops: f64,
    /// `cholesky_inverse_into` at n = d_ff + 1.
    pub chol_inv_ms: f64,
    /// The same at the nominal 2n³ flops.
    pub chol_inv_gflops: f64,
    /// `cholesky_inverse_into` at n = d_model + 1.
    pub chol_inv_small_ms: f64,
}

/// A damped Gram matrix of the shape K-FAC inverts.
fn spd(n: usize, rng: &mut StdRng) -> Matrix {
    let mut a = Matrix::zeros(0, 0);
    init::normal(2 * n, n, 1.0, rng).gram_into(&mut a);
    a.add_diag(n as f64 * 0.03);
    a
}

/// Times the kernels under the step, in the same process as the ledger.
pub fn kernel_probe(scale: Scale, seed: u64) -> KernelProbe {
    let cfg = bert_config(scale);
    let (d, ff) = (cfg.d_model, cfg.d_ff);
    let tokens = BATCH * SEQ;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Matrix::zeros(0, 0);

    let (a, b) = (
        init::normal(512, 512, 1.0, &mut rng),
        init::normal(512, 512, 1.0, &mut rng),
    );
    let peak_ms = median_ms(9, || a.matmul_into(black_box(&b), &mut out));

    let (x, w) = (
        init::normal(tokens, d, 1.0, &mut rng),
        init::normal(d, ff, 1.0, &mut rng),
    );
    let ffn_ms = median_ms(101, || x.matmul_into(black_box(&w), &mut out));

    let acts = init::normal(tokens, ff + 1, 1.0, &mut rng);
    let gram_ms = median_ms(51, || black_box(&acts).gram_into(&mut out));

    let big = spd(ff + 1, &mut rng);
    let chol_inv_ms = median_ms(9, || {
        cholesky_inverse_into(black_box(&big), &mut out).expect("damped Gram matrix is SPD");
    });
    let small = spd(d + 1, &mut rng);
    let chol_inv_small_ms = median_ms(51, || {
        cholesky_inverse_into(black_box(&small), &mut out).expect("damped Gram matrix is SPD");
    });
    black_box(&out);

    let n = (ff + 1) as f64;
    KernelProbe {
        gemm_peak_gflops: gflops(2.0 * 512f64.powi(3), peak_ms),
        gemm_ffn_gflops: gflops(2.0 * (tokens * d * ff) as f64, ffn_ms),
        // A Gram product is a symmetric rank-k update: n²·k flops.
        gram_gflops: gflops(n * n * tokens as f64, gram_ms),
        chol_inv_ms,
        chol_inv_gflops: gflops(2.0 * n.powi(3), chol_inv_ms),
        chol_inv_small_ms,
    }
}

/// Forward + backward flops per token over all blocks, from `perfmodel`.
pub fn fb_flops_per_token(scale: Scale) -> f64 {
    let cfg = bert_config(scale);
    let t = TransformerConfig {
        name: format!("{scale:?}"),
        d_model: cfg.d_model,
        d_ff: cfg.d_ff,
        n_heads: cfg.n_heads,
        seq_len: SEQ,
        n_layers: cfg.n_layers,
    };
    (forward_flops_per_token(&t) + backward_flops_per_token(&t)) * cfg.n_layers as f64
}

/// Median per-micro-batch cost of each pipeline stage, in ms.
#[derive(Debug, Clone, Copy)]
pub struct StageCosts {
    /// `BertStage::forward` per stage.
    pub fwd_ms: [f64; N_STAGES],
    /// `BertStage::backward` per stage.
    pub bwd_ms: [f64; N_STAGES],
}

const STAGE_FWD: [&str; N_STAGES] = ["nn.stage_fwd.s0", "nn.stage_fwd.s1"];
const STAGE_BWD: [&str; N_STAGES] = ["nn.stage_bwd.s0", "nn.stage_bwd.s1"];

/// Splits the model as the executor does and times each stage's forward
/// and backward over `reps` steps' worth of micro-batches.
pub fn stage_probe(scale: Scale, seed: u64, reps: usize, rec: &mut Recorder) -> StageCosts {
    let sampler = sampler(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut staged = StagedBert::from_model(model(seed, scale), N_STAGES);
    let ctx = ForwardCtx::train();
    let first = rec.spans().len();
    for mb in 0..reps * N_MICRO {
        rec.set_step(mb / N_MICRO);
        let batch = sampler.sample(BATCH, &mut rng);
        let out = rec.time(STAGE_FWD[0], || {
            staged.stage_mut(0).forward(None, &batch, &ctx)
        });
        let StageOutput::Boundary(act) = out else {
            panic!("stage 0 of 2 ends at a boundary")
        };
        let out = rec.time(STAGE_FWD[1], || {
            staged.stage_mut(1).forward(Some(act), &batch, &ctx)
        });
        assert!(
            matches!(out, StageOutput::Losses(_)),
            "stage 1 of 2 has the head"
        );
        let grad = rec.time(STAGE_BWD[1], || staged.stage_mut(1).backward(None, &batch));
        let up = rec.time(STAGE_BWD[0], || staged.stage_mut(0).backward(grad, &batch));
        assert!(up.is_none(), "stage 0 absorbs the gradient");
    }
    let spans = &rec.spans()[first..];
    let med = |name| median(&crate::spans::durations_ms(spans, name, 0));
    StageCosts {
        fwd_ms: [med(STAGE_FWD[0]), med(STAGE_FWD[1])],
        bwd_ms: [med(STAGE_BWD[0]), med(STAGE_BWD[1])],
    }
}

/// What `pipeline`, `sim` and `core` say about the schedule the pipelined
/// workloads run, under the measured stage costs.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleProbe {
    /// `PipelineScheme::build(2, 4)`.
    pub build_ms: f64,
    /// `1 − Timeline::utilization`: the most filling could hide.
    pub nominal_bubble_share: f64,
    /// `sim::simulate` over that graph.
    pub simulate_ms: f64,
    /// Simulated makespan of one step's pipeline phase.
    pub pred_phase_ms: f64,
    /// `lm::plan_for`.
    pub plan_ms: f64,
    /// K-FAC work units over all devices.
    pub aux_units: usize,
}

/// Builds, simulates and lowers the 1F1B schedule of the pipelined workloads.
pub fn schedule_probe(costs: &StageCosts) -> ScheduleProbe {
    let scheme = PipelineScheme::OneFOneB;
    let build_ms = median_ms(21, || {
        black_box(scheme.build(N_STAGES, N_MICRO));
    });
    let graph = scheme.build(N_STAGES, N_MICRO);
    let cost = |task: &Task| match task.kind {
        WorkKind::Forward => costs.fwd_ms[task.stage],
        WorkKind::Backward => costs.bwd_ms[task.stage],
        _ => 0.0,
    };
    let simulate_ms = median_ms(21, || {
        black_box(simulate(&graph, &cost).expect("1F1B graph is schedulable"));
    });
    let timeline = simulate(&graph, &cost).expect("1F1B graph is schedulable");
    let opts = pipeline_options(true);
    let plan_ms = median_ms(21, || {
        black_box(plan_for(&opts).expect("1F1B plan lowers"));
    });
    let plan = plan_for(&opts).expect("1F1B plan lowers");
    ScheduleProbe {
        build_ms,
        nominal_bubble_share: 1.0 - timeline.utilization(),
        simulate_ms,
        pred_phase_ms: timeline.makespan(),
        plan_ms,
        aux_units: plan.devices.iter().map(|d| d.aux.len()).sum(),
    }
}

/// Turns the workspace's own in-program trace sink on or off.
pub fn set_program_trace(on: bool) {
    pipefisher_trace::set_enabled(on);
}

/// Empties the in-program trace sink; returns how many events it held.
pub fn drain_program_trace() -> usize {
    pipefisher_trace::drain().len()
}
