//! Wall-clock pipeline-parallel executor (the paper's Figure 1/3 made real).
//!
//! [`Trainer::run_pipelined`] runs the trainer's one step loop on the
//! staged engine: it partitions `BertForPreTraining` into `D`
//! contiguous stages, runs one persistent worker thread per simulated
//! device, and flows micro-batch activations forward / gradients backward
//! between them in the exact per-device order of a lowered
//! [`ExecutablePlan`]. Each worker replays its device's one op list every
//! step: the forwards and backwards in the order the scheme's schedule
//! builder produced, and the K-FAC work units — curvature folds and damped
//! inversions of the stage it is the capture host of — at the positions
//! lowering fixed for them ([`PlanOp::Aux`]): before an op that waits for a
//! peer's tensor (a bubble) when bubbles are filled, else in the tail. The
//! worker makes no scheduling choice, and the simulator-side assignment
//! (`core::assign`) is not consulted (EXPERIMENTS.md "Known deviations").
//!
//! # Determinism
//!
//! The engine is bitwise-identical to the inline one for every stage
//! count and scheme, because floating-point work is never re-associated:
//!
//! - Each worker computes a micro-batch's gradient contribution on a
//!   zero-initialised slot replica, so each contribution is exactly the
//!   serial per-micro-batch gradient.
//! - The coordinator merges contributions via `axpy(1.0, ·)` in strict
//!   micro-batch order 0..N−1 — the serial accumulation order — and ×1.0
//!   is exact.
//! - K-FAC folds and inversions are the work-unit functions `Kfac::step`
//!   itself runs (`fold_curvature_a`, `fold_curvature_b`,
//!   `refresh_inverses`), here on the capture replica's statistics against
//!   loaned layer states, in the same per-layer order; the optimizer then
//!   applies `Kfac::step_preconditioned`, which is also how `step` ends.
//!
//! The only representational difference is the sign of zeros: the serial
//! loop accumulates onto `-0.0` slots left by `zero_grad`'s
//! `scale_inplace(0.0)`, while replicas accumulate onto `+0.0` loan
//! buffers, and `+0.0 + -0.0 == +0.0`. A sign-of-zero never changes a
//! loss, norm, or parameter value.
//!
//! # Robustness
//!
//! Each worker owns one inbox; everything it is ever sent — step commands,
//! peers' boundary tensors, `Abort`, `Shutdown` — arrives there, so every
//! wait is one blocking receive that a message ends. The only timeouts are
//! computed deadlines: the watchdog past the device's last progress (a
//! worker waiting for pipeline input) or past the newest progress of any
//! device (the coordinator waiting for the step's reports). A panicking
//! stage records [`ExecFault::StagePanic`] in the first-fault-wins latch,
//! a wedged one [`ExecFault::Wedged`]; recording the run's first fault
//! sends `Abort` to every inbox, so blocked threads wake at once and
//! everything unwinds to a join. Neither deadlocks.

use crate::checkpoint::{CheckpointPolicy, ResumeFrom};
use crate::trainer::{AnyOpt, Engine};
use crate::{OptimizerChoice, TrainOptions, TrainRun, Trainer};
use pipefisher_ckpt::CkptError;
use pipefisher_core::{AssignError, AuxKind, AuxOp, DevicePlan, ExecutablePlan, PlanOp};
use pipefisher_nn::{
    BertForPreTraining, BertStage, ForwardCtx, PreTrainingBatch, StageOutput, StagedBert,
};
use pipefisher_optim::{
    fold_curvature_a, fold_curvature_b, refresh_inverses, KfacModel, LayerKfacState,
};
use pipefisher_pipeline::PipelineScheme;
use pipefisher_tensor::Matrix;
use pipefisher_trace::Span;
use serde_json::json;
use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
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
    /// boundaries — after the gradient merge and optimizer update — so a
    /// pipelined checkpoint is byte-identical to the serial trainer's at
    /// the same step.
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
    /// Optimizer steps that fully completed (gradient merged, optimizer
    /// applied) before the run stopped — the last step a checkpoint could
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
}

type ParamSet = Vec<Matrix>;
type GradSet = Vec<Matrix>;
/// Names a boundary tensor, `(is_grad, stage, mb)`: micro-batch `mb`'s
/// activation heading downstream or (`is_grad`) gradient heading upstream,
/// by the stage that consumes it.
type TensorKey = (bool, usize, usize);

/// Per-step K-FAC parameters a worker needs to run fold/invert units.
#[derive(Debug, Clone)]
struct KfacStep {
    t: u64,
    ema_decay: f64,
    damping: f64,
    block_size: Option<usize>,
    refresh_curv: bool,
    refresh_inv: bool,
}

/// Everything of one (device, hosted stage) that goes out with a step and
/// comes back in the device's report — the same object on both sides,
/// owned by whoever holds it.
struct StageLoan {
    stage: usize,
    /// Canonical parameter values: refreshed by the coordinator before each
    /// step, loaded into every slot replica by the worker.
    params: ParamSet,
    /// One zeroed gradient set per backward the device runs for the stage:
    /// the k-th backward (in plan order) parks its contribution in set k;
    /// the coordinator merges the sets and re-zeroes them.
    grads: Vec<GradSet>,
    /// The optimizer's layer states, in the stage's `visit_linears` order —
    /// lent on the stage's capture host in a step that refreshes, else empty.
    kfac: Vec<LayerKfacState>,
}

/// One step's marching orders for a device.
struct StepCmd {
    step: usize,
    batches: Arc<Vec<(PreTrainingBatch, ForwardCtx)>>,
    /// One loan per hosted stage.
    loans: Vec<StageLoan>,
    kfac: Option<KfacStep>,
}

/// `stage`'s loan among the one or two a device has.
fn loan_for(loans: &mut [StageLoan], stage: usize) -> &mut StageLoan {
    let loan = loans.iter_mut().find(|l| l.stage == stage);
    loan.expect("a loan for every hosted stage, out or home")
}

/// Everything a worker is ever sent, through its one inbox.
enum Inbox {
    /// From the coordinator: run this step.
    Step(Box<StepCmd>),
    /// From a peer: a boundary tensor one of this device's ops consumes.
    Data(TensorKey, Matrix),
    /// From whoever recorded the run's first fault: stop now.
    Abort,
    /// From the coordinator: the run is over.
    Shutdown,
}

/// Everything a worker tells the coordinator: one message per step.
enum WorkerMsg {
    Done {
        device: usize,
        loans: Vec<StageLoan>,
        /// `(mb, total_loss)` of every last-stage forward the device ran.
        losses: Vec<(usize, f64)>,
        bubble_aux_ms: f64,
        bubble_idle_ms: f64,
        tail_aux_ms: f64,
    },
    Fault {
        device: usize,
    },
}

/// What the coordinator and all workers share: a sender into every inbox,
/// the first-fault-wins abort latch, and each device's last progress.
#[derive(Default)]
struct Fleet {
    inboxes: Vec<SyncSender<Inbox>>,
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

/// The span of a forward or backward op, its plan coordinates as args.
fn op_span(
    name: &'static str,
    step: usize,
    device: usize,
    stage: usize,
    mb: usize,
    slot: usize,
) -> Option<Span> {
    pipefisher_trace::span_with(name, "pipeline", || {
        vec![
            ("step".to_string(), json!(step)),
            ("device".to_string(), json!(device)),
            ("stage".to_string(), json!(stage)),
            ("mb".to_string(), json!(mb)),
            ("slot".to_string(), json!(slot)),
        ]
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
        let mut engine = Staged::new(model, &plan, opts);
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
        })
    }
}

/// The staged-threads engine: the canonical model split into `D` stages
/// plus one persistent worker thread per device. Each step it lends every
/// device its stage loans with the step command, collects one report per
/// device, and merges the gradient contributions into the canonical stages
/// in serial micro-batch order.
struct Staged<'a> {
    staged: StagedBert,
    plan: &'a ExecutablePlan,
    opts: &'a PipelineOptions,
    /// No threads and a disconnected report channel until `start`.
    workers: Workers,
    /// Per device, the loans that are home — all of them between steps.
    loans: Vec<Vec<StageLoan>>,
    /// Where `(stage, mb)`'s gradient contribution comes back, at
    /// `[mb · D + stage]`: `(device, index into that loan's grads)`.
    grad_home: Vec<(usize, usize)>,
    bubble_aux_ms: f64,
    bubble_idle_ms: f64,
    tail_aux_ms: f64,
}

impl<'a> Staged<'a> {
    /// Partitions `model`; the worker fleet comes later, in `start`.
    fn new(model: BertForPreTraining, plan: &'a ExecutablePlan, opts: &'a PipelineOptions) -> Self {
        Staged {
            staged: StagedBert::from_model(model, opts.n_stages),
            plan,
            opts,
            workers: Workers {
                fleet: Arc::default(),
                reports: mpsc::channel().1,
                joins: Vec::new(),
            },
            loans: Vec::new(),
            grad_home: Vec::new(),
            bubble_aux_ms: 0.0,
            bubble_idle_ms: 0.0,
            tail_aux_ms: 0.0,
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
}

impl Engine for Staged<'_> {
    fn model(&mut self) -> &mut dyn KfacModel {
        &mut self.staged
    }

    /// Spawns one persistent worker per device, each with slot replicas
    /// cloned from the (possibly just restored) canonical stages, and
    /// builds every (device, hosted stage) loan.
    fn start(&mut self) {
        let (d, n_micro) = (self.opts.n_stages, self.opts.n_micro);
        let (report_tx, reports) = mpsc::channel::<WorkerMsg>();
        // An inbox never fills, so every send into one is a plain `send`.
        // Between two of its reports a device is sent at most one `Step`,
        // one `Abort` (only the run's first fault sends them), one
        // `Shutdown`, and N activations + N gradients per hosted stage. It
        // has taken all of a step's tensors out of the channel before it
        // reports (each is the input of one of its ops), and no peer can
        // send it the next step's before every device has reported.
        let inbox_for = |dplan: &DevicePlan| {
            let hosted = dplan.hosted_stages().len().max(1);
            mpsc::sync_channel::<Inbox>(2 * n_micro * hosted + 4)
        };
        let (inboxes, receivers): (Vec<_>, Vec<_>) =
            self.plan.devices.iter().map(inbox_for).unzip();
        let fleet = Arc::new(Fleet {
            progress: inboxes.iter().map(|_| Mutex::new(Instant::now())).collect(),
            inboxes,
            fault: Mutex::new(None),
        });
        self.grad_home = vec![(0, 0); d * n_micro];
        let zeros = |m: &Matrix| Matrix::zeros(m.rows(), m.cols());
        let mut joins = Vec::with_capacity(receivers.len());
        for (dev, inbox) in receivers.into_iter().enumerate() {
            let dplan = self.plan.devices[dev].clone();
            let mut hosts = HashMap::new();
            let mut loans = Vec::new();
            for s in dplan.hosted_stages() {
                let mut replicas = Vec::with_capacity(dplan.n_slots[s]);
                for _ in 0..dplan.n_slots[s] {
                    let mut replica = self.staged.stage(s).clone();
                    replica.visit_params(&mut |p| p.grad.as_mut_slice().fill(0.0));
                    replica.visit_linears(&mut |lin| lin.kfac_stats_mut().clear());
                    replicas.push(replica);
                }
                hosts.insert(
                    s,
                    StageHost {
                        replicas,
                        parked: 0,
                    },
                );
                let mut params = ParamSet::new();
                self.staged
                    .stage_mut(s)
                    .visit_params(&mut |p| params.push(p.value.clone()));
                let mut grads = Vec::new();
                for op in &dplan.ops {
                    if let PlanOp::Backward { stage, mb, .. } = *op {
                        if stage == s {
                            self.grad_home[mb * d + s] = (dev, grads.len());
                            grads.push(params.iter().map(zeros).collect());
                        }
                    }
                }
                loans.push(StageLoan {
                    stage: s,
                    params,
                    grads,
                    kfac: Vec::new(),
                });
            }
            self.loans.push(loans);
            let worker = Worker {
                device: dev,
                last_stage: d - 1,
                plan: Arc::new(dplan),
                hosts,
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
        opt: &mut AnyOpt,
    ) -> Result<f64, ExecError> {
        let (d, n_micro) = (self.opts.n_stages, self.opts.n_micro);
        let n_devices = self.plan.devices.len();
        let batches = Arc::new(batches);
        let panicked = |device: usize, message: &str| ExecFault::StagePanic {
            device,
            message: message.to_string(),
        };
        let watchdog = self.opts.watchdog;
        let wedged = |detail: String| ExecFault::Wedged {
            waited: watchdog,
            detail,
        };
        let (refresh_curv, refresh_inv) = opt.next_step_refreshes();
        // Dispatch: every device's loans go out with its step command.
        let kfac_step = opt.kfac_mut().map(|k| KfacStep {
            t: k.step_count() + 1,
            ema_decay: k.config().ema_decay,
            damping: k.config().damping,
            block_size: k.config().factor_block_size,
            refresh_curv,
            refresh_inv,
        });
        let lend_states = kfac_step.is_some() && (refresh_curv || refresh_inv);
        for dev in 0..n_devices {
            let mut loans = std::mem::take(&mut self.loans[dev]);
            for loan in &mut loans {
                let mut i = 0;
                self.staged.stage_mut(loan.stage).visit_params(&mut |p| {
                    loan.params[i].clone_from(&p.value);
                    i += 1;
                });
                if lend_states && self.plan.capture_host[loan.stage] == dev {
                    let k = opt.kfac_mut().expect("lending implies K-FAC");
                    let stage = self.staged.stage_mut(loan.stage);
                    stage.visit_linears(&mut |lin| loan.kfac.push(k.take_state(lin.name())));
                }
            }
            let cmd = StepCmd {
                step,
                batches: Arc::clone(&batches),
                loans,
                kfac: kfac_step.clone(),
            };
            // The command's arrival is the device's first progress of the
            // step: the watchdog clocks start here, not at the last report.
            self.workers.fleet.stamp(dev);
            if self.workers.fleet.inboxes[dev]
                .send(Inbox::Step(Box::new(cmd)))
                .is_err()
            {
                let fallback = panicked(dev, "worker exited before the step was dispatched");
                return Err(self.abort_step(step, fallback));
            }
        }
        // Collect one report per device. The deadline is the watchdog past
        // the newest progress any device has stamped, re-read only when it
        // expires: a healthy step may outlast the watchdog, a step in which
        // nothing anywhere moves for that long may not.
        let mut loss_buf = vec![0.0f64; n_micro];
        let mut deadline = self.workers.fleet.newest_progress() + watchdog;
        let mut done = 0usize;
        while done < n_devices {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.workers.reports.recv_timeout(left) {
                Ok(WorkerMsg::Done {
                    device,
                    loans,
                    losses,
                    bubble_aux_ms: aux,
                    bubble_idle_ms: idle,
                    tail_aux_ms: tail,
                }) => {
                    self.loans[device] = loans;
                    for (mb, total_loss) in losses {
                        loss_buf[mb] = total_loss;
                    }
                    self.bubble_aux_ms += aux;
                    self.bubble_idle_ms += idle;
                    self.tail_aux_ms += tail;
                    done += 1;
                }
                Ok(WorkerMsg::Fault { device }) => {
                    let fallback = panicked(device, "worker reported a fault");
                    return Err(self.abort_step(step, fallback));
                }
                Err(RecvTimeoutError::Timeout) => {
                    deadline = self.workers.fleet.newest_progress() + watchdog;
                    if deadline <= Instant::now() {
                        let fallback = wedged(format!(
                            "coordinator starved of step-{step} results \
                             ({done}/{n_devices} devices done)"
                        ));
                        return Err(self.abort_step(step, fallback));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let fallback = wedged("all workers exited mid-step".to_string());
                    return Err(self.abort_step(step, fallback));
                }
            }
        }
        // Merge gradient contributions in serial micro-batch order.
        for mb in 0..n_micro {
            for s in 0..d {
                let (device, index) = self.grad_home[mb * d + s];
                let set = &mut loan_for(&mut self.loans[device], s).grads[index];
                let mut i = 0;
                self.staged.stage_mut(s).visit_params(&mut |p| {
                    p.grad.axpy(1.0, &set[i]);
                    i += 1;
                });
                for m in set {
                    m.as_mut_slice().fill(0.0);
                }
            }
        }
        Ok(loss_buf.iter().sum())
    }

    /// With K-FAC, the step's curvature folds and inverse refreshes already
    /// ran on the workers against loaned layer states: hand those back, then
    /// precondition and update only.
    fn apply(&mut self, opt: &mut AnyOpt, lr: f64) {
        let Some(k) = opt.kfac_mut() else {
            return opt.apply(&mut self.staged, lr);
        };
        for loan in self.loans.iter_mut().flatten() {
            let mut states = loan.kfac.drain(..);
            self.staged.stage_mut(loan.stage).visit_linears(&mut |lin| {
                if let Some(state) = states.next() {
                    k.put_state(lin.name(), state);
                }
            });
        }
        k.step_preconditioned(&mut self.staged, lr);
    }
}

// ===================== worker side =====================

/// A stage this device hosts: one replica per activation slot, and how
/// many backwards have parked their gradients in the stage's loan this step.
struct StageHost {
    replicas: Vec<BertStage>,
    parked: usize,
}

/// What ended a [`Worker::wait`].
enum Woke {
    Step(Box<StepCmd>),
    Data,
    Deadline,
}

/// One device's worker: replays its `DevicePlan` op list each step.
struct Worker {
    device: usize,
    last_stage: usize,
    plan: Arc<DevicePlan>,
    hosts: HashMap<usize, StageHost>,
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
}

impl Worker {
    fn run(mut self) {
        loop {
            let mut cmd = match self.wait(None) {
                Ok(Woke::Step(cmd)) => cmd,
                // A peer's early boundary tensor for the next step.
                Ok(_) => continue,
                Err(Halt) => break,
            };
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_step(&mut cmd)));
            match outcome {
                Ok(Ok(())) => continue,
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

    /// Files one inbox message: a boundary tensor goes to `pending`, a step
    /// command is handed back, `Abort` and `Shutdown` halt the worker.
    fn accept(&mut self, msg: Inbox) -> Result<Woke, Halt> {
        match msg {
            Inbox::Step(cmd) => Ok(Woke::Step(cmd)),
            Inbox::Data(key, m) => {
                self.pending.insert(key, m);
                self.touch();
                Ok(Woke::Data)
            }
            Inbox::Abort | Inbox::Shutdown => Err(Halt),
        }
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

    /// Files whatever has already arrived, without blocking — so a computing
    /// worker sees an `Abort` at its next op, and an arrived tensor before
    /// the next K-FAC unit.
    fn drain(&mut self) -> Result<(), Halt> {
        while let Ok(msg) = self.inbox.try_recv() {
            self.accept(msg)?;
        }
        Ok(())
    }

    fn run_step(&mut self, cmd: &mut StepCmd) -> Result<(), Halt> {
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
        self.begin_step(cmd);
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

    /// Re-syncs every slot replica to the loaned canonical parameters, so
    /// every micro-batch computes on the exact serial-step weights, and
    /// resets the step's time ledgers.
    fn begin_step(&mut self, cmd: &StepCmd) {
        for loan in &cmd.loans {
            let host = self.hosts.get_mut(&loan.stage).expect("loan for a host");
            for replica in &mut host.replicas {
                let mut i = 0;
                replica.visit_params(&mut |p| {
                    p.value.clone_from(&loan.params[i]);
                    i += 1;
                });
            }
            host.parked = 0;
        }
        self.bubble_aux_ms = 0.0;
        self.bubble_idle_ms = 0.0;
        self.tail_aux_ms = 0.0;
        self.touch();
    }

    fn do_forward(
        &mut self,
        cmd: &mut StepCmd,
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
            let _span = op_span("forward", cmd.step, self.device, stage, mb, slot);
            let host = self.hosts.get_mut(&stage).expect("forward on hosted stage");
            host.replicas[slot].forward(input, batch, ctx)
        };
        match out {
            StageOutput::Boundary(m) => {
                let dest = send_to.expect("interior forward routes downstream");
                self.send_data(dest, (false, stage + 1, mb), m)?;
            }
            StageOutput::Losses(out) => self.losses.push((mb, out.total_loss)),
        }
        self.touch();
        Ok(())
    }

    fn do_backward(
        &mut self,
        cmd: &mut StepCmd,
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
            let _span = op_span("backward", cmd.step, self.device, stage, mb, slot);
            let host = self
                .hosts
                .get_mut(&stage)
                .expect("backward on hosted stage");
            host.replicas[slot].backward(dout, batch)
        };
        if let (Some(m), Some(dest)) = (upstream, send_to) {
            self.send_data(dest, (true, stage - 1, mb), m)?;
        }
        // Park this micro-batch's contribution in the loan: swap the
        // replica's accumulated grads with the loan's next zeroed set, so
        // the replica is clean for its slot's next micro-batch.
        let host = self.hosts.get_mut(&stage).expect("hosted stage");
        let set = &mut loan_for(&mut cmd.loans, stage).grads[host.parked];
        host.parked += 1;
        let mut i = 0;
        host.replicas[slot].visit_params(&mut |p| {
            std::mem::swap(&mut p.grad, &mut set[i]);
            i += 1;
        });
        self.touch();
        Ok(())
    }

    /// Clears the capture replicas' statistics and sends the step's one
    /// report: the loans, the losses and the time ledgers.
    fn finish_step(&mut self, cmd: &mut StepCmd) -> Result<(), Halt> {
        if cmd.kfac.as_ref().is_some_and(|k| k.refresh_curv) {
            for op in &self.plan.aux {
                let host = self.hosts.get_mut(&op.stage).expect("aux on hosted stage");
                host.replicas[op.slot].visit_linears(&mut |lin| lin.kfac_stats_mut().clear());
            }
        }
        self.reports
            .send(WorkerMsg::Done {
                device: self.device,
                loans: std::mem::take(&mut cmd.loans),
                losses: std::mem::take(&mut self.losses),
                bubble_aux_ms: self.bubble_aux_ms,
                bubble_idle_ms: self.bubble_idle_ms,
                tail_aux_ms: self.tail_aux_ms,
            })
            .map_err(|_| Halt)
    }

    /// Blocks on the inbox until the boundary tensor `key` arrives; trips
    /// `Wedged` if the watchdog past this device's last progress runs out
    /// first.
    fn wait_for(&mut self, key: TensorKey) -> Result<Matrix, Halt> {
        loop {
            self.drain()?;
            if let Some(m) = self.pending.remove(&key) {
                self.touch();
                return Ok(m);
            }
            let idle_t = Instant::now();
            let woke = self.wait(Some(self.fleet.last_progress(self.device) + self.watchdog));
            self.bubble_idle_ms += idle_t.elapsed().as_secs_f64() * 1e3;
            if let Woke::Deadline = woke? {
                let (is_grad, stage, mb) = key;
                let what = if is_grad { "gradient" } else { "activation" };
                self.fleet.trip(ExecFault::Wedged {
                    waited: self.watchdog,
                    detail: format!(
                        "device {} stuck waiting for the {what} of stage {stage} \
                         micro-batch {mb}",
                        self.device
                    ),
                });
                return Err(Halt);
            }
        }
    }

    /// Routes a boundary tensor to the device hosting its consumer; a
    /// self-send short-circuits into `pending`.
    fn send_data(&mut self, dest: usize, key: TensorKey, m: Matrix) -> Result<(), Halt> {
        let msg = Inbox::Data(key, m);
        if dest == self.device {
            self.accept(msg)?;
        } else {
            self.fleet.inboxes[dest].send(msg).map_err(|_| Halt)?;
            self.touch();
        }
        Ok(())
    }

    /// Runs one K-FAC unit if the step refreshes its kind; returns the
    /// milliseconds it took, `None` when the step skips it. Units touch
    /// disjoint per-layer state, and lowering places every `Invert` after
    /// its stage's folds, so the serial `Kfac::step` values come out.
    fn do_aux(&mut self, cmd: &mut StepCmd, op: AuxOp) -> Option<f64> {
        let kfac = cmd.kfac.clone()?;
        if !op.kind.applies(kfac.refresh_curv, kfac.refresh_inv) {
            return None;
        }
        let t = Instant::now();
        self.run_aux(cmd, op, &kfac);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.touch();
        Some(ms)
    }

    /// Executes one fold/invert unit over the chunk's slice of the stage's
    /// K-FAC layers, on the capture replica's statistics, against the
    /// optimizer's loaned layer states.
    fn run_aux(&mut self, cmd: &mut StepCmd, op: AuxOp, kfac: &KfacStep) {
        let (device, step) = (self.device, cmd.step);
        let host = self.hosts.get_mut(&op.stage).expect("aux on hosted stage");
        // Lowering puts every unit on its stage's capture host, which is
        // lent one state per K-FAC layer in every step that refreshes: a
        // unit the step applies must run, so a missing loan is a fault,
        // never a skip. A stage that owns no such layer (D > L) is lent
        // none, and its units are no-ops.
        let states = &mut loan_for(&mut cmd.loans, op.stage).kfac;
        let k_total = states.len();
        let chunk = op.chunk * k_total / op.chunks..(op.chunk + 1) * k_total / op.chunks;
        let name = match op.kind {
            AuxKind::FoldA => "curvature_a",
            AuxKind::FoldB => "curvature_b",
            AuxKind::Invert => "inversion",
        };
        let _span = pipefisher_trace::span_with(name, "kfac", || {
            vec![
                ("step".to_string(), json!(step)),
                ("device".to_string(), json!(device)),
                ("stage".to_string(), json!(op.stage)),
                ("chunk".to_string(), json!(op.chunk)),
                ("chunks".to_string(), json!(op.chunks)),
            ]
        });
        let mut states = states.iter_mut().enumerate();
        host.replicas[op.slot].visit_linears(&mut |lin| {
            let Some((i, state)) = states.next() else {
                panic!(
                    "K-FAC unit of stage {} on device {device} without loaned layer states",
                    op.stage
                );
            };
            if !chunk.contains(&i) {
                return;
            }
            match op.kind {
                AuxKind::FoldA => fold_curvature_a(state, lin, kfac.ema_decay, kfac.t),
                AuxKind::FoldB => fold_curvature_b(state, lin, kfac.ema_decay, kfac.t),
                AuxKind::Invert => refresh_inverses(state, kfac.damping, kfac.block_size, kfac.t),
            }
        });
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
        let mut engine = Staged::new(model, &plan, &opts);
        engine.start();
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
