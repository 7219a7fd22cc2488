//! Wall-clock pipeline-parallel executor (the paper's Figure 1/3 made real).
//!
//! [`Trainer::run_pipelined`] runs the trainer's one step loop on the
//! staged engine: it partitions `BertForPreTraining` into `D`
//! contiguous stages, runs one persistent worker thread per simulated
//! device, and flows micro-batch activations forward / gradients backward
//! between them in the exact per-device order of a lowered
//! [`ExecutablePlan`]. Each worker replays its device's one op list every
//! step: the forwards and backwards in the order the scheme's schedule
//! builder produced, and the K-FAC work units — the fold-A, fold-B and
//! inversion unit of the stage it is the capture host of, each over all of
//! the stage's K-FAC layers — at the positions
//! lowering fixed for them ([`PlanOp::Aux`]): before an op that waits for a
//! peer's tensor (a bubble) when bubbles are filled, else in the tail. The
//! worker makes no scheduling choice, and the simulator-side assignment
//! (`core::assign`) is not consulted (EXPERIMENTS.md "Known deviations").
//!
//! Each stage's capture host is its *owner* for the whole run: it keeps the
//! stage's parameters, the one gradient accumulator and the optimizer state
//! of those parameters, and merges, preconditions and updates the stage
//! itself. The coordinator keeps only scalars: it folds the owners'
//! per-parameter squared sums and per-layer `⟨g, g̃⟩` into the gradient
//! norm and the KL-clip sum and answers each step with one update message.
//! Parameters and optimizer state come back to it only for a checkpoint
//! and at the end of the run.
//!
//! # Determinism
//!
//! The engine is bitwise-identical to the inline one for every stage
//! count and scheme, because floating-point work is never re-associated:
//!
//! - Each worker computes a micro-batch's gradient contribution on a
//!   zero-initialised slot replica, so each contribution is exactly the
//!   serial per-micro-batch gradient. The zeros are `Matrix::zeros` or a
//!   spare set the owner refilled with `+0.0` after adding it: the same
//!   bits.
//! - The owner adds the contributions onto its zeroed accumulator via
//!   `axpy(1.0, ·)` in strict micro-batch order 0..N−1 — the serial
//!   accumulation order — and ×1.0 is exact. A contribution from the
//!   stage's other host (Chimera) that arrives before its turn waits.
//! - The owner scales to the mean and squares each parameter as the loop
//!   does; the coordinator sums the squares in `visit_all_params` order and
//!   the `⟨g, g̃⟩` in `visit_kfac_linears` order, stage after stage — the
//!   serial chains.
//! - K-FAC folds and inversions are the unit methods `Kfac::step` itself
//!   calls (`Kfac::fold_a`, `Kfac::fold_b`, `Kfac::invert`, one call per
//!   unit over the stage's K-FAC layers), here taking the capture
//!   replica's statistics into the owner's layer states, each kind after
//!   its prerequisites and on the steps the owner's `Kfac` clock (a clone
//!   of the coordinator's) says; the owner then runs `Kfac::precondition`
//!   and, with the coordinator's sum, `Kfac::update` — the two halves
//!   `step_preconditioned` is made of.
//!
//! The only representational difference is the sign of zeros: the serial
//! loop accumulates onto the model's gradients, while each contribution
//! starts from `+0.0` replica buffers, and `+0.0 + -0.0 == +0.0`. A
//! sign-of-zero never changes a loss, norm, or parameter value.
//!
//! # Robustness
//!
//! Each worker owns one unbounded inbox; everything it is ever sent — step
//! commands, boundary tensors, contributions, parameters, `Abort`,
//! `Shutdown` — arrives there, so every wait is one blocking receive that a
//! message ends, and no send ever blocks. Workers hand each other tensors
//! through one call, `Worker::post`, which delivers a message to its own
//! device without the channel. The only timeouts are
//! computed deadlines: the watchdog past the device's last progress (a
//! worker waiting for pipeline input) or past the newest progress of any
//! device (the coordinator waiting for the step's reports). A panicking
//! stage records [`ExecFault::StagePanic`] in the first-fault-wins latch,
//! a wedged one [`ExecFault::Wedged`]; recording the run's first fault
//! sends `Abort` to every inbox, so blocked threads wake at once and
//! everything unwinds to a join. Neither deadlocks.

use crate::checkpoint::{CheckpointPolicy, ResumeFrom};
use crate::trainer::{grad_square, AnyOpt, Engine};
use crate::{OptimizerChoice, TrainOptions, TrainRun, Trainer};
use pipefisher_ckpt::CkptError;
use pipefisher_core::{AssignError, AuxKind, AuxOp, DevicePlan, ExecutablePlan, PlanOp};
use pipefisher_nn::{
    BertForPreTraining, BertStage, ForwardCtx, Linear, ParamVisitor, PreTrainingBatch, StageOutput,
    StagedBert,
};
use pipefisher_optim::KfacModel;
use pipefisher_pipeline::PipelineScheme;
use pipefisher_tensor::Matrix;
use pipefisher_trace::Span;
use serde_json::json;
use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A fault a [`ChaosHook`] injects at the start of a device's step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepFault {
    /// Panic the worker (exercises the abort latch / `StagePanic` path).
    Panic,
    /// Wedge the worker — it blocks without progress, and with no deadline
    /// of its own, until a peer's or the coordinator's watchdog (or an
    /// earlier fault) trips the abort latch and the `Abort` wakes it.
    Stall,
}

/// Pluggable fault/clock injection for the pipeline executor.
///
/// Every callback is keyed on *logical* coordinates — `(device, step)`,
/// plan-op index — never wall-clock time, so a hook driven by a seeded plan
/// (`pipefisher-harness`'s `FaultPlan`) injects the same faults on every
/// replay of the same seed. Hooks may perturb *timing* (delays) or
/// *liveness* (panics, stalls), but have no access to data values: any run
/// a hook does not abort must still be bitwise-identical to the serial
/// trainer.
pub trait ChaosHook: std::fmt::Debug + Send + Sync {
    /// Consulted once when `device` begins `step`; returning a fault panics
    /// or wedges the worker before any of the step's work runs.
    fn step_fault(&self, _device: usize, _step: usize) -> Option<StepFault> {
        None
    }

    /// Extra latency injected before `device` executes entry `op_index` of
    /// its plan's op list in `step` (slow-stage skew).
    fn op_delay(&self, _device: usize, _step: usize, _op_index: usize) -> Option<Duration> {
        None
    }
}

/// How a pipelined run is laid out and supervised.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Pipeline schedule shape (GPipe / 1F1B / Chimera; Chimera needs an
    /// even stage count and an even micro-batch count).
    pub scheme: PipelineScheme,
    /// Contiguous model stages = simulated devices.
    pub n_stages: usize,
    /// Micro-batches per optimizer step.
    pub n_micro: usize,
    /// Lower the plan with K-FAC work placed in pipeline bubbles
    /// (PipeFisher; [`ExecutablePlan::lower`]). When off, lowering puts the
    /// same work after each device's pipeline work — the paper's "K-FAC on
    /// pipeline" baseline.
    pub fill_bubbles: bool,
    /// No worker (or the coordinator) may go this long without progress
    /// before the run aborts with [`ExecFault::Wedged`]. Progress is a
    /// finished op or K-FAC unit, a boundary tensor sent or received, a
    /// step command's arrival, or an injected delay running out. A worker
    /// trips when it has waited for pipeline input until its own last
    /// progress is this old; the coordinator when *no* device has
    /// progressed for this long — so a healthy step may take longer than
    /// the watchdog. Defaults to 30 s; raise it for chaos runs whose
    /// injected delays exceed that, lower it to see a wedge sooner.
    pub watchdog: Duration,
    /// Deterministic fault/clock injection (chaos testing); `None` runs
    /// clean.
    pub chaos: Option<Arc<dyn ChaosHook>>,
    /// Write checkpoints per this policy. The coordinator saves at step
    /// boundaries — after the optimizer update, with the owners' parameters
    /// and optimizer state handed back — so a pipelined checkpoint is
    /// byte-identical to the serial trainer's at the same step.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Restore state from here before the first step.
    pub resume: Option<ResumeFrom>,
}

impl PipelineOptions {
    /// Bubble-filling defaults with a 30 s watchdog.
    pub fn new(scheme: PipelineScheme, n_stages: usize, n_micro: usize) -> Self {
        PipelineOptions {
            scheme,
            n_stages,
            n_micro,
            fill_bubbles: true,
            watchdog: Duration::from_secs(30),
            chaos: None,
            checkpoint: None,
            resume: None,
        }
    }
}

/// Why a pipelined run stopped without finishing.
#[derive(Debug)]
pub struct ExecError {
    /// Optimizer steps that fully completed (gradient merged, update
    /// issued) before the run stopped — the last step a checkpoint could
    /// describe, `0` for a plan error. With checkpointing enabled, a
    /// supervisor can resume from the newest generation at or below it.
    pub completed_steps: usize,
    /// What stopped the run.
    pub fault: ExecFault,
}

/// What stopped a pipelined run.
#[derive(Debug)]
pub enum ExecFault {
    /// The schedule could not be lowered into an executable plan.
    Plan(AssignError),
    /// A stage worker panicked; the run aborted and every thread joined.
    StagePanic {
        /// Device whose step body panicked.
        device: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A worker (or the coordinator) made no progress for the watchdog
    /// duration; the run aborted rather than deadlocking.
    Wedged {
        /// The configured watchdog duration that elapsed without progress.
        waited: Duration,
        /// Who was stuck waiting for what.
        detail: String,
    },
    /// Reading or writing a checkpoint failed.
    Checkpoint(CkptError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.fault {
            ExecFault::Plan(e) => return write!(f, "pipeline plan error: {e}"),
            ExecFault::StagePanic { device, message } => {
                write!(f, "stage worker {device} panicked: {message}")?
            }
            ExecFault::Wedged { waited, detail } => {
                write!(f, "pipeline wedged (no progress for {waited:?}): {detail}")?
            }
            ExecFault::Checkpoint(source) => write!(f, "checkpoint error: {source}")?,
        }
        write!(f, " ({} steps completed)", self.completed_steps)
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.fault {
            ExecFault::Checkpoint(source) => Some(source),
            _ => None,
        }
    }
}

/// A finished pipelined run: the loss/metrics history, the reassembled
/// model, and how the bubbles were spent.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// Loss history and per-step metrics, exactly as `Trainer::run` shapes
    /// them.
    pub run: TrainRun,
    /// The trained model, reassembled from its stages.
    pub model: BertForPreTraining,
    /// Worker-thread milliseconds spent on K-FAC units placed before the
    /// device's last forward or backward (in bubbles).
    pub bubble_aux_ms: f64,
    /// Worker-thread milliseconds spent blocked waiting for a peer's
    /// boundary tensor.
    pub bubble_idle_ms: f64,
    /// Worker-thread milliseconds spent on K-FAC units placed after the
    /// device's last forward or backward (tail work that found no bubble).
    pub tail_aux_ms: f64,
    /// Worker-thread milliseconds the stage owners spent preconditioning
    /// and updating their stages, which no term above counts.
    pub owner_ms: f64,
}

type ParamSet = Vec<Matrix>;
type GradSet = Vec<Matrix>;
/// Names a boundary tensor, `(is_grad, stage, mb)`: micro-batch `mb`'s
/// activation heading downstream or (`is_grad`) gradient heading upstream,
/// by the stage that consumes it.
type TensorKey = (bool, usize, usize);

/// One step's marching orders for a device.
struct StepCmd {
    step: usize,
    batches: Arc<Vec<(PreTrainingBatch, ForwardCtx)>>,
    /// The mean's factor, `1/N`.
    scale: f64,
}

/// Everything a worker is ever sent, through its one inbox.
enum Inbox {
    /// From the coordinator: run this step.
    Step(Box<StepCmd>),
    /// From the coordinator once every device has reported: update the
    /// owned stage at `lr` to end `step`, K-FAC clipping by `vsum`, the sum
    /// of every stage's `⟨g, g̃⟩` (`None` without K-FAC). `spent` is the
    /// owner's report of `step`, back for its next report to refill.
    Update {
        step: usize,
        lr: f64,
        vsum: Option<f64>,
        spent: StageSums,
    },
    /// From the coordinator: send copies of the owned stage and its
    /// optimizer back — or, `last`, the things themselves, and exit.
    HandBack { last: bool },
    /// From the device that ran its producing op, this one included: a
    /// boundary tensor one of this device's ops consumes.
    Data(TensorKey, Matrix),
    /// From a host of the owned stage: micro-batch `mb`'s gradient
    /// contribution, `(mb, grads)`.
    Grads(usize, GradSet),
    /// From a hosted stage's owner: its parameters after an update,
    /// `(stage, values)`.
    Params(usize, ParamSet),
    /// From whoever recorded the run's first fault: stop now.
    Abort,
    /// From the coordinator: the run is over.
    Shutdown,
}

/// The scalars an owner reports of its stage with each step.
#[derive(Default)]
struct StageSums {
    /// Per parameter, the squared sum of its mean gradient.
    grad_sq: Vec<f64>,
    /// Per K-FAC layer with inverses, `⟨g, g̃⟩`.
    dots: Vec<f64>,
    /// `(damping_escalations, inversion_failures)`.
    health: (u64, u64),
}

/// Everything a worker tells the coordinator.
enum WorkerMsg {
    /// The step's one report.
    Done {
        /// `(mb, total_loss)` of every last-stage forward the device ran.
        losses: Vec<(usize, f64)>,
        stage: usize,
        sums: StageSums,
        bubble_aux_ms: f64,
        bubble_idle_ms: f64,
        tail_aux_ms: f64,
        /// Owner milliseconds since the last report.
        owner_ms: f64,
    },
    /// The answer to a `HandBack`: the owned stage and its optimizer, and
    /// the owner milliseconds since the last report.
    State {
        stage: usize,
        model: Box<BertStage>,
        opt: AnyOpt,
        owner_ms: f64,
    },
    Fault {
        device: usize,
    },
}

/// What the coordinator and all workers share: a sender into every inbox,
/// the first-fault-wins abort latch, and each device's last progress.
#[derive(Default)]
struct Fleet {
    inboxes: Vec<Sender<Inbox>>,
    fault: Mutex<Option<ExecFault>>,
    progress: Vec<Mutex<Instant>>,
}

impl Fleet {
    /// Records `fault` if no earlier fault was recorded — and then, being
    /// the run's first fault, wakes every worker with an `Abort`.
    fn trip(&self, fault: ExecFault) {
        let mut slot = self.fault.lock().expect("fault latch never poisons");
        if slot.is_none() {
            *slot = Some(fault);
            for inbox in &self.inboxes {
                let _ = inbox.send(Inbox::Abort);
            }
        }
    }

    fn take(&self) -> Option<ExecFault> {
        self.fault.lock().expect("fault latch never poisons").take()
    }

    fn stamp(&self, device: usize) {
        *self.progress[device].lock().expect("a stamp never poisons") = Instant::now();
    }

    fn last_progress(&self, device: usize) -> Instant {
        *self.progress[device].lock().expect("a stamp never poisons")
    }

    /// The newest progress any device has stamped.
    fn newest_progress(&self) -> Instant {
        let stamps = (0..self.progress.len()).map(|device| self.last_progress(device));
        stamps.max().expect("a fleet has devices")
    }
}

/// Worker-internal "stop this step now" marker; the cause (if this worker
/// is the one that failed) is already in the [`Fleet`]'s latch.
struct Halt;

/// The span of a worker's op, K-FAC unit or owner work: its `step`,
/// `device` and `stage`, then `extra`, as args.
fn span(
    name: &'static str,
    cat: &'static str,
    step: usize,
    device: usize,
    stage: usize,
    extra: &[(&str, usize)],
) -> Option<Span> {
    pipefisher_trace::span_with(name, cat, || {
        let coords = [("step", step), ("device", device), ("stage", stage)];
        let args = coords.iter().chain(extra);
        args.map(|&(k, v)| (k.to_string(), json!(v))).collect()
    })
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The exact [`ExecutablePlan`] [`Trainer::run_pipelined`] executes for
/// `opts` — exposed so the conformance checker validates a run against the
/// very plan that drove it, not a reconstruction.
///
/// # Panics
///
/// Panics if the scheme's shape rules are violated (e.g. Chimera with odd
/// `n_stages` or `n_micro`), mirroring `run_pipelined`.
pub fn plan_for(opts: &PipelineOptions) -> Result<ExecutablePlan, ExecError> {
    let graph = opts.scheme.build(opts.n_stages, opts.n_micro);
    ExecutablePlan::lower(&graph, opts.fill_bubbles).map_err(|e| ExecError {
        completed_steps: 0,
        fault: ExecFault::Plan(e),
    })
}

/// The coordinator's handle on its worker threads. Workers hold senders
/// into each other's inboxes, so no channel closes when the coordinator
/// goes away: dropping this handle — at the end of a run, or while the
/// coordinator unwinds — is what releases them.
struct Workers {
    fleet: Arc<Fleet>,
    reports: Receiver<WorkerMsg>,
    joins: Vec<std::thread::JoinHandle<()>>,
}

impl Workers {
    /// Sends `Shutdown` to every worker and joins them all. Safe on both
    /// the success path and the abort path: every worker wait ends on an
    /// inbox message, and `Shutdown` halts a step like `Abort` does.
    fn shutdown(&mut self) {
        for inbox in &self.fleet.inboxes {
            let _ = inbox.send(Inbox::Shutdown);
        }
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Trainer {
    /// Trains `model` for `steps` optimizer steps on a `D`-stage pipeline
    /// of worker threads, filling bubbles with K-FAC work per
    /// `opts.fill_bubbles`. Losses, metrics, and the returned model are
    /// bitwise-identical to the serial trainer's (see module docs); on
    /// error the model is consumed. Resuming a checkpoint that
    /// had already reached `steps` returns an empty run and the restored
    /// model without spawning a worker.
    ///
    /// # Panics
    ///
    /// Panics if `opts.n_stages == 0`, `opts.n_micro == 0`, or the scheme's
    /// own shape rules are violated (Chimera needs even `D` and even `N`).
    /// More stages than blocks is fine: the surplus stages own no block.
    pub fn run_pipelined(
        &mut self,
        model: BertForPreTraining,
        choice: &OptimizerChoice,
        steps: usize,
        opts: &PipelineOptions,
    ) -> Result<PipelineOutcome, ExecError> {
        assert!(
            opts.n_stages > 0,
            "run_pipelined: n_stages must be positive"
        );
        assert!(opts.n_micro > 0, "run_pipelined: n_micro must be positive");
        let plan = plan_for(opts)?;
        let mut engine = Staged::new(model, &plan, opts, choice);
        let train_opts = TrainOptions {
            accumulation_steps: opts.n_micro,
            grad_delay: 0,
        };
        let run = self.drive(
            &mut engine,
            choice,
            steps,
            &train_opts,
            opts.checkpoint.as_ref(),
            opts.resume.as_ref(),
        );
        engine.workers.shutdown();
        Ok(PipelineOutcome {
            run: run?,
            model: engine.staged.into_model(),
            bubble_aux_ms: engine.bubble_aux_ms,
            bubble_idle_ms: engine.bubble_idle_ms,
            tail_aux_ms: engine.tail_aux_ms,
            owner_ms: engine.owner_ms,
        })
    }
}

/// No parameters: stepping the coordinator's optimizer on it moves only its
/// counters, in step with the owners'.
struct NoParams;

impl KfacModel for NoParams {
    fn visit_kfac_linears<'a>(&'a mut self, _f: &mut dyn FnMut(&'a mut Linear)) {}

    fn visit_all_params(&mut self, _f: ParamVisitor<'_>) {}
}

/// The staged-threads engine: the canonical model split into `D` stages
/// plus one persistent worker thread per device, each the owner of one
/// stage. Per step it sends every device its step command, collects one
/// report per device and sends every owner the update; only
/// [`Engine::sync`] refreshes the canonical stages.
struct Staged<'a> {
    staged: StagedBert,
    plan: &'a ExecutablePlan,
    opts: &'a PipelineOptions,
    choice: &'a OptimizerChoice,
    /// No threads and a disconnected report channel until `start`.
    workers: Workers,
    /// Per stage, what its owner reported with the step.
    sums: Vec<StageSums>,
    /// Whether the owners hold an update the canonical model lacks.
    dirty: bool,
    bubble_aux_ms: f64,
    bubble_idle_ms: f64,
    tail_aux_ms: f64,
    owner_ms: f64,
}

impl<'a> Staged<'a> {
    /// Partitions `model`; the worker fleet comes later, in `start`.
    fn new(
        model: BertForPreTraining,
        plan: &'a ExecutablePlan,
        opts: &'a PipelineOptions,
        choice: &'a OptimizerChoice,
    ) -> Self {
        Staged {
            staged: StagedBert::from_model(model, opts.n_stages),
            plan,
            opts,
            choice,
            workers: Workers {
                fleet: Arc::default(),
                reports: mpsc::channel().1,
                joins: Vec::new(),
            },
            sums: (0..opts.n_stages).map(|_| StageSums::default()).collect(),
            dirty: false,
            bubble_aux_ms: 0.0,
            bubble_idle_ms: 0.0,
            tail_aux_ms: 0.0,
            owner_ms: 0.0,
        }
    }

    /// Trips the abort latch with `fallback` (first fault wins), tears the
    /// worker fleet down, and returns the winning fault with the steps
    /// completed before `step` faulted — the one place that count is known.
    fn abort_step(&mut self, step: usize, fallback: ExecFault) -> ExecError {
        self.workers.fleet.trip(fallback);
        self.workers.shutdown();
        ExecError {
            completed_steps: step,
            fault: self.workers.fleet.take().expect("abort latch tripped"),
        }
    }

    /// Sends `msg` to `device`, stamping its arrival as the device's
    /// progress; a worker that has exited aborts the run.
    fn send(&mut self, step: usize, device: usize, msg: Inbox) -> Result<(), ExecError> {
        self.workers.fleet.stamp(device);
        if self.workers.fleet.inboxes[device].send(msg).is_ok() {
            return Ok(());
        }
        let fallback = ExecFault::StagePanic {
            device,
            message: "worker exited before the coordinator's message".to_string(),
        };
        Err(self.abort_step(step, fallback))
    }

    /// The next report of step `step`, `got` of `want` in so far. The
    /// deadline is the watchdog past the newest progress any device has
    /// stamped, re-read only when it expires: a healthy step may outlast
    /// the watchdog, a step in which nothing anywhere moves for that long
    /// may not.
    fn report(&mut self, step: usize, got: usize, want: usize) -> Result<WorkerMsg, ExecError> {
        let watchdog = self.opts.watchdog;
        let mut deadline = self.workers.fleet.newest_progress() + watchdog;
        let fallback = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.workers.reports.recv_timeout(left) {
                Ok(WorkerMsg::Fault { device }) => {
                    break ExecFault::StagePanic {
                        device,
                        message: "worker reported a fault".to_string(),
                    }
                }
                Ok(msg) => return Ok(msg),
                Err(RecvTimeoutError::Timeout) => {
                    deadline = self.workers.fleet.newest_progress() + watchdog;
                    if deadline <= Instant::now() {
                        break ExecFault::Wedged {
                            waited: watchdog,
                            detail: format!(
                                "coordinator starved of step-{step} reports \
                                 ({got}/{want} in)"
                            ),
                        };
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    break ExecFault::Wedged {
                        waited: watchdog,
                        detail: "all workers exited mid-step".to_string(),
                    }
                }
            }
        };
        Err(self.abort_step(step, fallback))
    }
}

impl Engine for Staged<'_> {
    fn model(&mut self) -> &mut dyn KfacModel {
        &mut self.staged
    }

    /// Spawns one persistent worker per device, each with slot replicas
    /// cloned from the (possibly just restored) canonical stages, and hands
    /// every owner its stage and that stage's share of `opt`'s state: from
    /// here on `opt` is the cadence clock only.
    fn start(&mut self, opt: &mut AnyOpt) {
        let (d, n_micro) = (self.opts.n_stages, self.opts.n_micro);
        let (report_tx, reports) = mpsc::channel::<WorkerMsg>();
        let (inboxes, receivers): (Vec<_>, Vec<_>) =
            self.plan.devices.iter().map(|_| mpsc::channel()).unzip();
        let fleet = Arc::new(Fleet {
            progress: inboxes.iter().map(|_| Mutex::new(Instant::now())).collect(),
            inboxes,
            fault: Mutex::new(None),
        });
        let owner = &self.plan.capture_host;
        let mut restored = AnyOpt::new(self.choice);
        opt.hand_over(&mut restored, &mut self.staged);
        let mut joins = Vec::with_capacity(receivers.len());
        for (dev, inbox) in receivers.into_iter().enumerate() {
            let dplan = self.plan.devices[dev].clone();
            let mut hosts = HashMap::new();
            for s in dplan.hosted_stages() {
                let mut replicas = Vec::with_capacity(dplan.n_slots[s]);
                for _ in 0..dplan.n_slots[s] {
                    let mut replica = self.staged.stage(s).clone();
                    replica.visit_params(&mut |p| p.grad.as_mut_slice().fill(0.0));
                    replicas.push(replica);
                }
                let host = StageHost {
                    replicas,
                    spares: Vec::new(),
                    owner: owner[s],
                    stale: false,
                };
                hosts.insert(s, host);
            }
            // Lowering makes every device the capture host of one stage.
            let stage = owner.iter().position(|&o| o == dev).expect("an owner");
            let mut model = self.staged.stage(stage).clone();
            model.zero_grad();
            let mut own_opt = opt.clone();
            restored.hand_over(&mut own_opt, &mut model);
            let owned = Owned {
                stage,
                model,
                opt: own_opt,
                early: (0..n_micro).map(|_| None).collect(),
                merged: 0,
                hosted_on: (0..owner.len())
                    .filter(|&o| self.plan.devices[o].n_slots[stage] > 0)
                    .collect(),
                spent: StageSums::default(),
            };
            let worker = Worker {
                device: dev,
                last_stage: d - 1,
                plan: Arc::new(dplan),
                hosts,
                owned,
                inbox,
                fleet: Arc::clone(&fleet),
                reports: report_tx.clone(),
                watchdog: self.opts.watchdog,
                chaos: self.opts.chaos.clone(),
                pending: HashMap::new(),
                losses: Vec::new(),
                bubble_aux_ms: 0.0,
                bubble_idle_ms: 0.0,
                tail_aux_ms: 0.0,
                owner_ms: 0.0,
            };
            let join = std::thread::Builder::new()
                .name(format!("dev{dev}"))
                .spawn(move || worker.run())
                .expect("spawn stage worker");
            joins.push(join);
        }
        self.workers = Workers {
            fleet,
            reports,
            joins,
        };
    }

    fn run_micro_batches(
        &mut self,
        step: usize,
        batches: Vec<(PreTrainingBatch, ForwardCtx)>,
        scale: f64,
    ) -> Result<f64, ExecError> {
        let n_devices = self.plan.devices.len();
        let batches = Arc::new(batches);
        for dev in 0..n_devices {
            let cmd = StepCmd {
                step,
                batches: Arc::clone(&batches),
                scale,
            };
            // The command's arrival is the device's first progress of the
            // step: the watchdog clocks start here, not at the last report.
            self.send(step, dev, Inbox::Step(Box::new(cmd)))?;
        }
        let mut loss_buf = vec![0.0f64; self.opts.n_micro];
        for done in 0..n_devices {
            let WorkerMsg::Done {
                losses,
                stage,
                sums,
                bubble_aux_ms: aux,
                bubble_idle_ms: idle,
                tail_aux_ms: tail,
                owner_ms,
            } = self.report(step, done, n_devices)?
            else {
                unreachable!("a step is answered by step reports");
            };
            for (mb, total_loss) in losses {
                loss_buf[mb] = total_loss;
            }
            self.sums[stage] = sums;
            self.bubble_aux_ms += aux;
            self.bubble_idle_ms += idle;
            self.tail_aux_ms += tail;
            self.owner_ms += owner_ms;
        }
        Ok(loss_buf.iter().sum())
    }

    fn visit_grad_squares(&mut self, f: &mut dyn FnMut(f64)) {
        self.sums
            .iter()
            .flat_map(|s| &s.grad_sq)
            .for_each(|&x| f(x));
    }

    /// Sends every owner the update — with K-FAC, the clip sum of all
    /// stages' products in layer order — and moves the coordinator's
    /// cadence clock on.
    fn apply(&mut self, step: usize, opt: &mut AnyOpt, lr: f64) -> Result<(), ExecError> {
        let vsum = matches!(opt, AnyOpt::Kfac(_)).then(|| {
            let dots = self.sums.iter().flat_map(|s| &s.dots);
            dots.fold(0.0, |sum, d| sum + d)
        });
        for (stage, &dev) in self.plan.capture_host.iter().enumerate() {
            let sums = &mut self.sums[stage];
            let spent = StageSums {
                grad_sq: std::mem::take(&mut sums.grad_sq),
                dots: std::mem::take(&mut sums.dots),
                health: sums.health,
            };
            let update = Inbox::Update {
                step,
                lr,
                vsum,
                spent,
            };
            self.send(step, dev, update)?;
        }
        opt.apply(&mut NoParams, lr);
        self.dirty = true;
        Ok(())
    }

    fn inversion_health(&self, _opt: &AnyOpt) -> (u64, u64) {
        let health = self.sums.iter().map(|s| s.health);
        health.fold((0, 0), |(e, f), (de, df)| (e + de, f + df))
    }

    /// Has every owner hand back its stage's parameters and optimizer
    /// state into the canonical stages and `opt`.
    fn sync(
        &mut self,
        completed_steps: usize,
        last: bool,
        opt: &mut AnyOpt,
    ) -> Result<(), ExecError> {
        if !self.dirty {
            return Ok(());
        }
        let d = self.plan.devices.len();
        for dev in 0..d {
            self.send(completed_steps, dev, Inbox::HandBack { last })?;
        }
        for got in 0..d {
            let WorkerMsg::State {
                stage,
                model,
                opt: mut from,
                owner_ms,
            } = self.report(completed_steps, got, d)?
            else {
                unreachable!("a hand-back is answered by state");
            };
            self.owner_ms += owner_ms;
            *self.staged.stage_mut(stage) = *model;
            from.hand_over(opt, self.staged.stage_mut(stage));
        }
        self.dirty = false;
        Ok(())
    }
}

// ===================== worker side =====================

/// A stage this device hosts: one replica per activation slot.
struct StageHost {
    replicas: Vec<BertStage>,
    /// Zeroed gradient sets a backward swaps into its replica, at most one
    /// per replica: the owner returns each contribution it has added here.
    spares: Vec<GradSet>,
    /// The device that owns the stage.
    owner: usize,
    /// Updated since the replicas were loaded.
    stale: bool,
}

/// The stage a device owns for the whole run: its parameters, the one
/// gradient accumulator, and the optimizer state of those parameters.
struct Owned {
    stage: usize,
    /// Parameter values, and the accumulator in the gradients.
    model: BertStage,
    opt: AnyOpt,
    /// Contributions that arrived before their turn, by micro-batch.
    early: Vec<Option<GradSet>>,
    /// How many micro-batches the accumulator holds.
    merged: usize,
    /// Every device hosting the stage, this one included: each gets its
    /// parameters after an update.
    hosted_on: Vec<usize>,
    /// The last report, back with the update: the next one refills its
    /// vectors.
    spent: StageSums,
}

/// What ended a [`Worker::wait`].
enum Woke {
    Step(Box<StepCmd>),
    /// The last hand-back: the run is over.
    Last,
    Filed,
    Deadline,
}

/// One device's worker: replays its `DevicePlan` op list each step.
struct Worker {
    device: usize,
    last_stage: usize,
    plan: Arc<DevicePlan>,
    hosts: HashMap<usize, StageHost>,
    owned: Owned,
    inbox: Receiver<Inbox>,
    fleet: Arc<Fleet>,
    reports: mpsc::Sender<WorkerMsg>,
    watchdog: Duration,
    chaos: Option<Arc<dyn ChaosHook>>,
    /// Arrived-but-unconsumed boundary tensors.
    pending: HashMap<TensorKey, Matrix>,
    /// `(mb, total_loss)` of this step's last-stage forwards so far.
    losses: Vec<(usize, f64)>,
    bubble_aux_ms: f64,
    bubble_idle_ms: f64,
    tail_aux_ms: f64,
    /// Milliseconds of precondition and update since the last report.
    owner_ms: f64,
}

impl Worker {
    fn run(mut self) {
        loop {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                match self.wait(None)? {
                    Woke::Step(cmd) => self.run_step(&cmd).map(|()| true),
                    Woke::Last => Ok(false),
                    _ => Ok(true),
                }
            }));
            match outcome {
                Ok(Ok(true)) => continue,
                Ok(Ok(false)) => {
                    let state = WorkerMsg::State {
                        stage: self.owned.stage,
                        model: Box::new(self.owned.model),
                        opt: self.owned.opt,
                        owner_ms: self.owner_ms,
                    };
                    let _ = self.reports.send(state);
                    return;
                }
                Ok(Err(Halt)) => {}
                Err(payload) => self.fleet.trip(ExecFault::StagePanic {
                    device: self.device,
                    message: panic_message(payload),
                }),
            }
            let _ = self.reports.send(WorkerMsg::Fault {
                device: self.device,
            });
            break;
        }
    }

    fn touch(&self) {
        self.fleet.stamp(self.device);
    }

    /// Acts on one inbox message: a step command is handed back, the
    /// coordinator's update and hand-back run (they arrive only between
    /// steps), a tensor, contribution or parameters is filed, and `Abort`
    /// and `Shutdown` halt the worker.
    fn accept(&mut self, msg: Inbox) -> Result<Woke, Halt> {
        match msg {
            Inbox::Step(cmd) => return Ok(Woke::Step(cmd)),
            Inbox::Update {
                step,
                lr,
                vsum,
                spent,
            } => {
                self.owned.spent = spent;
                self.apply_update(step, lr, vsum);
            }
            Inbox::HandBack { last: true } => return Ok(Woke::Last),
            Inbox::HandBack { last: false } => {
                let state = WorkerMsg::State {
                    stage: self.owned.stage,
                    model: Box::new(self.owned.model.clone()),
                    opt: self.owned.opt.clone(),
                    owner_ms: std::mem::take(&mut self.owner_ms),
                };
                self.reports.send(state).map_err(|_| Halt)?;
            }
            Inbox::Data(key, m) => drop(self.pending.insert(key, m)),
            Inbox::Grads(mb, grads) => self.merge(mb, grads),
            Inbox::Params(stage, values) => {
                let host = self.hosts.get_mut(&stage).expect("a hosted stage");
                for replica in &mut host.replicas {
                    let mut i = 0;
                    replica.visit_params(&mut |p| {
                        p.value.clone_from(&values[i]);
                        i += 1;
                    });
                }
                host.stale = false;
            }
            Inbox::Abort | Inbox::Shutdown => return Err(Halt),
        }
        self.touch();
        Ok(Woke::Filed)
    }

    /// The worker's one wait: blocks until the inbox delivers a message or
    /// `deadline` passes (`None`: until a message, however long).
    fn wait(&mut self, deadline: Option<Instant>) -> Result<Woke, Halt> {
        let msg = match deadline {
            None => self.inbox.recv().map_err(|_| Halt)?,
            Some(at) => {
                let left = at.saturating_duration_since(Instant::now());
                match self.inbox.recv_timeout(left) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => return Ok(Woke::Deadline),
                    Err(RecvTimeoutError::Disconnected) => return Err(Halt),
                }
            }
        };
        self.accept(msg)
    }

    /// Hands `msg` to `dest` — the only way a worker hands any device a
    /// tensor, a contribution or parameters. A message to this device goes
    /// straight to [`Worker::accept`].
    fn post(&mut self, dest: usize, msg: Inbox) -> Result<(), Halt> {
        if dest == self.device {
            self.accept(msg)?;
        } else {
            self.fleet.inboxes[dest].send(msg).map_err(|_| Halt)?;
        }
        self.touch();
        Ok(())
    }

    /// Files whatever has already arrived, without blocking — so a computing
    /// worker sees an `Abort` at its next op, and an arrived tensor before
    /// the next K-FAC unit.
    fn drain(&mut self) -> Result<(), Halt> {
        while let Ok(msg) = self.inbox.try_recv() {
            self.accept(msg)?;
        }
        Ok(())
    }

    /// Blocks on the inbox until `ready` holds; trips `Wedged`, waiting for
    /// `what`, if the watchdog past this device's last progress runs out
    /// first.
    fn wait_until(
        &mut self,
        ready: impl Fn(&Self) -> bool,
        what: impl Fn() -> String,
    ) -> Result<(), Halt> {
        loop {
            self.drain()?;
            if ready(self) {
                self.touch();
                return Ok(());
            }
            let idle_t = Instant::now();
            let woke = self.wait(Some(self.fleet.last_progress(self.device) + self.watchdog));
            self.bubble_idle_ms += idle_t.elapsed().as_secs_f64() * 1e3;
            if let Woke::Deadline = woke? {
                self.fleet.trip(ExecFault::Wedged {
                    waited: self.watchdog,
                    detail: format!("device {} stuck waiting for {}", self.device, what()),
                });
                return Err(Halt);
            }
        }
    }

    fn run_step(&mut self, cmd: &StepCmd) -> Result<(), Halt> {
        match self
            .chaos
            .as_ref()
            .and_then(|c| c.step_fault(self.device, cmd.step))
        {
            Some(StepFault::Panic) => panic!(
                "injected fault: device {} at step {}",
                self.device, cmd.step
            ),
            // Wedge without progress: no deadline, so only the `Abort` of
            // someone else's watchdog (or an earlier fault) ends the wait.
            Some(StepFault::Stall) => loop {
                self.wait(None)?;
            },
            None => {}
        }
        self.begin_step()?;
        let plan = Arc::clone(&self.plan);
        // Units before the last forward/backward fill bubbles; after it, tail.
        let is_pipe = |op: &PlanOp| !matches!(op, PlanOp::Aux { .. });
        let tail = plan.ops.iter().rposition(is_pipe).map_or(0, |i| i + 1);
        for (op_index, op) in plan.ops.iter().enumerate() {
            self.drain()?;
            if let Some(delay) = self
                .chaos
                .as_ref()
                .and_then(|c| c.op_delay(self.device, cmd.step, op_index))
            {
                // Wait out the injected delay, whatever else arrives. The
                // wait is intentional, so the worker's own progress clock
                // resets afterwards; peers blocked on this device's output
                // still see the skew and wedge if it exceeds their watchdog.
                let until = Instant::now() + delay;
                while !matches!(self.wait(Some(until))?, Woke::Deadline) {}
                self.touch();
            }
            match *op {
                PlanOp::Forward {
                    stage,
                    mb,
                    slot,
                    send_to,
                } => self.do_forward(cmd, stage, mb, slot, send_to)?,
                PlanOp::Backward {
                    stage,
                    mb,
                    slot,
                    send_to,
                } => self.do_backward(cmd, stage, mb, slot, send_to)?,
                PlanOp::Aux { unit } => {
                    if let Some(ms) = self.do_aux(cmd, plan.aux[unit]) {
                        let ledger = if op_index < tail {
                            &mut self.bubble_aux_ms
                        } else {
                            &mut self.tail_aux_ms
                        };
                        *ledger += ms;
                    }
                }
            }
        }
        self.finish_step(cmd)
    }

    /// Resets the step's time ledgers and waits until every hosted stage
    /// has its owner's parameters from the last update, so every
    /// micro-batch computes on the exact serial-step weights.
    fn begin_step(&mut self) -> Result<(), Halt> {
        self.bubble_aux_ms = 0.0;
        self.bubble_idle_ms = 0.0;
        self.tail_aux_ms = 0.0;
        self.touch();
        self.wait_until(
            |w| w.hosts.values().all(|h| !h.stale),
            || "the parameters of a stage it hosts".to_string(),
        )
    }

    fn do_forward(
        &mut self,
        cmd: &StepCmd,
        stage: usize,
        mb: usize,
        slot: usize,
        send_to: Option<usize>,
    ) -> Result<(), Halt> {
        let input = if stage == 0 {
            None
        } else {
            Some(self.wait_for((false, stage, mb))?)
        };
        let (batch, ctx) = &cmd.batches[mb];
        let out = {
            let at = [("mb", mb), ("slot", slot)];
            let _span = span("forward", "pipeline", cmd.step, self.device, stage, &at);
            let host = self.hosts.get_mut(&stage).expect("forward on hosted stage");
            host.replicas[slot].forward(input, batch, ctx)
        };
        match out {
            StageOutput::Boundary(m) => {
                let dest = send_to.expect("interior forward routes downstream");
                self.post(dest, Inbox::Data((false, stage + 1, mb), m))?;
            }
            StageOutput::Losses(out) => self.losses.push((mb, out.total_loss)),
        }
        self.touch();
        Ok(())
    }

    fn do_backward(
        &mut self,
        cmd: &StepCmd,
        stage: usize,
        mb: usize,
        slot: usize,
        send_to: Option<usize>,
    ) -> Result<(), Halt> {
        let dout = if stage == self.last_stage {
            None
        } else {
            Some(self.wait_for((true, stage, mb))?)
        };
        let (batch, _ctx) = &cmd.batches[mb];
        let upstream = {
            let at = [("mb", mb), ("slot", slot)];
            let _span = span("backward", "pipeline", cmd.step, self.device, stage, &at);
            let host = self.hosts.get_mut(&stage).expect("a hosted stage");
            host.replicas[slot].backward(dout, batch)
        };
        if let (Some(m), Some(dest)) = (upstream, send_to) {
            self.post(dest, Inbox::Data((true, stage - 1, mb), m))?;
        }
        // Take the contribution out of the replica by swapping in a zeroed
        // spare set, so the replica starts its slot's next micro-batch from
        // zero, and hand it to the stage's owner.
        let host = self.hosts.get_mut(&stage).expect("hosted stage");
        let mut grads = host.spares.pop().unwrap_or_default();
        let mut i = 0;
        host.replicas[slot].visit_params(&mut |p| {
            if i == grads.len() {
                grads.push(Matrix::zeros(p.grad.rows(), p.grad.cols()));
            }
            std::mem::swap(&mut p.grad, &mut grads[i]);
            i += 1;
        });
        let owner = host.owner;
        self.post(owner, Inbox::Grads(mb, grads))
    }

    /// Files micro-batch `mb`'s contribution to the owned stage, then adds
    /// every contribution whose turn has come onto the accumulator, in
    /// micro-batch order, zeroing each added set as a spare for the
    /// stage's backwards here.
    fn merge(&mut self, mb: usize, grads: GradSet) {
        let owned = &mut self.owned;
        let host = self.hosts.get_mut(&owned.stage).expect("an owner hosts");
        owned.early[mb] = Some(grads);
        while let Some(mut set) = owned.early.get_mut(owned.merged).and_then(Option::take) {
            let mut i = 0;
            owned.model.visit_params(&mut |p| {
                p.grad.axpy(1.0, &set[i]);
                i += 1;
            });
            owned.merged += 1;
            if host.spares.len() < host.replicas.len() {
                set.iter_mut().for_each(|m| m.as_mut_slice().fill(0.0));
                host.spares.push(set);
            }
        }
    }

    /// Waits for the owned stage's last contribution, scales to the mean
    /// and preconditions; then sends the step's one report.
    fn finish_step(&mut self, cmd: &StepCmd) -> Result<(), Halt> {
        for host in self.hosts.values_mut() {
            host.stale = true;
        }
        let stage = self.owned.stage;
        self.wait_until(
            |w| w.owned.merged == w.owned.early.len(),
            || format!("the gradient contributions to stage {stage}"),
        )?;
        let owned = &mut self.owned;
        let mut sums = std::mem::take(&mut owned.spent);
        sums.grad_sq.clear();
        sums.dots.clear();
        owned.model.visit_params(&mut |p| {
            p.grad.scale_inplace(cmd.scale);
            sums.grad_sq.push(grad_square(p));
        });
        let t = Instant::now();
        {
            let _span = span("precondition", "optim", cmd.step, self.device, stage, &[]);
            owned
                .opt
                .precondition(&mut owned.model, &mut |d| sums.dots.push(d));
        }
        self.owner_ms += t.elapsed().as_secs_f64() * 1e3;
        sums.health = owned.opt.inversion_health();
        self.reports
            .send(WorkerMsg::Done {
                losses: std::mem::take(&mut self.losses),
                stage,
                sums,
                bubble_aux_ms: self.bubble_aux_ms,
                bubble_idle_ms: self.bubble_idle_ms,
                tail_aux_ms: self.tail_aux_ms,
                owner_ms: std::mem::take(&mut self.owner_ms),
            })
            .map_err(|_| Halt)
    }

    /// Applies step `step`'s update to the owned stage, posts the new
    /// values to every host of the stage, and zeroes the accumulator for
    /// the next step.
    fn apply_update(&mut self, step: usize, lr: f64, vsum: Option<f64>) {
        let owned = &mut self.owned;
        let t = Instant::now();
        {
            let _span = span("update", "optim", step, self.device, owned.stage, &[]);
            owned.opt.update(&mut owned.model, lr, vsum);
        }
        self.owner_ms += t.elapsed().as_secs_f64() * 1e3;
        let mut values = ParamSet::new();
        owned.model.visit_params(&mut |p| {
            values.push(p.value.clone());
            p.grad.scale_inplace(0.0);
        });
        owned.merged = 0;
        let (stage, hosts) = (owned.stage, owned.hosted_on.len());
        for k in 0..hosts {
            let set = if k + 1 < hosts {
                values.clone()
            } else {
                std::mem::take(&mut values)
            };
            // A host that has exited either took its last hand-back or has
            // already latched its fault: it needs no parameters.
            let _ = self.post(self.owned.hosted_on[k], Inbox::Params(stage, set));
        }
    }

    /// Blocks until the boundary tensor `key` arrives; trips `Wedged` if
    /// the watchdog past this device's last progress runs out first.
    fn wait_for(&mut self, key: TensorKey) -> Result<Matrix, Halt> {
        let (is_grad, stage, mb) = key;
        let what = if is_grad { "gradient" } else { "activation" };
        self.wait_until(
            |w| w.pending.contains_key(&key),
            || format!("the {what} of stage {stage} micro-batch {mb}"),
        )?;
        Ok(self.pending.remove(&key).expect("tensor just arrived"))
    }

    /// Runs one K-FAC unit if the step refreshes its kind: the `Kfac`
    /// method of that kind, folding the capture replica's statistics (or
    /// inverting) against the owner's layer states. The owner's `Kfac`
    /// says whether the step refreshes: it was cloned from the
    /// coordinator's, step count included, and both count every step.
    /// Returns the milliseconds it took; `None` when the step skips the
    /// unit or the run has no K-FAC. Lowering puts every unit on its
    /// stage's capture host, which owns the stage, and every `Invert` after
    /// its stage's folds, so the serial `Kfac::step` values come out; a
    /// stage with no K-FAC layer (D > L) makes its units no-ops.
    fn do_aux(&mut self, cmd: &StepCmd, op: AuxOp) -> Option<f64> {
        let (refresh_curv, refresh_inv) = self.owned.opt.next_step_refreshes();
        if !op.kind.applies(refresh_curv, refresh_inv) {
            return None;
        }
        let t = Instant::now();
        let kfac = self.owned.opt.kfac_mut()?;
        let host = self.hosts.get_mut(&op.stage).expect("aux on hosted stage");
        let replica = &mut host.replicas[op.slot];
        {
            let _span = span(op.kind.name(), "kfac", cmd.step, self.device, op.stage, &[]);
            match op.kind {
                AuxKind::FoldA => kfac.fold_a(replica),
                AuxKind::FoldB => kfac.fold_b(replica),
                AuxKind::Invert => kfac.invert(replica),
            }
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.touch();
        Some(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefisher_nn::BertConfig;
    use rand::{rngs::StdRng, SeedableRng};

    /// Workers hold senders into each other's inboxes, so nothing
    /// disconnects when the coordinator goes away: dropping the engine (as
    /// an unwinding coordinator does) must itself release and join them,
    /// after which no thread holds the fleet any more.
    #[test]
    fn dropping_the_engine_releases_its_workers() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = BertForPreTraining::new(BertConfig::tiny(36, 16), 0.0, &mut rng);
        let opts = PipelineOptions::new(PipelineScheme::OneFOneB, 2, 4);
        let plan = plan_for(&opts).expect("plan");
        let choice = OptimizerChoice::Lamb { weight_decay: 0.0 };
        let mut engine = Staged::new(model, &plan, &opts, &choice);
        engine.start(&mut AnyOpt::new(&choice));
        let fleet = Arc::downgrade(&engine.workers.fleet);
        drop(engine);
        assert!(fleet.upgrade().is_none(), "a worker outlived the engine");
    }

    /// Each fault's message, with the completed-step count after every
    /// fault but a plan error (which fails before any step runs).
    #[test]
    fn exec_error_display_pins_every_fault() {
        let shown = |fault| {
            let err = ExecError {
                completed_steps: 3,
                fault,
            };
            err.to_string()
        };
        assert_eq!(
            shown(ExecFault::Plan(AssignError::Schedule("bad".into()))),
            "pipeline plan error: schedule error: bad"
        );
        assert_eq!(
            shown(ExecFault::StagePanic {
                device: 1,
                message: "boom".into(),
            }),
            "stage worker 1 panicked: boom (3 steps completed)"
        );
        assert_eq!(
            shown(ExecFault::Wedged {
                waited: Duration::from_secs(30),
                detail: "device 0 stuck".into(),
            }),
            "pipeline wedged (no progress for 30s): device 0 stuck (3 steps completed)"
        );
        assert_eq!(
            shown(ExecFault::Checkpoint(CkptError::Malformed {
                detail: "short".into(),
            })),
            "checkpoint error: malformed checkpoint: short (3 steps completed)"
        );
    }
}
