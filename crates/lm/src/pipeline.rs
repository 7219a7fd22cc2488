//! Wall-clock pipeline-parallel executor (the paper's Figure 1/3 made real).
//!
//! [`Trainer::run_pipelined`] runs the trainer's one step loop on the
//! staged engine: it partitions `BertForPreTraining` into `D`
//! contiguous stages, runs one persistent worker thread per simulated
//! device, and flows micro-batch activations forward / gradients backward
//! over bounded channels in the exact per-device order of a lowered
//! [`ExecutablePlan`]. While a worker waits for pipeline input (a bubble),
//! it pops the first *ready* K-FAC work unit — curvature fold or damped
//! inversion — from its plan's bubble-fill list, which is ordered by the
//! PipeFisher scheduler's placements.
//!
//! # Determinism
//!
//! The engine is bitwise-identical to the inline one (at
//! `PIPEFISHER_THREADS=1`) for every stage count and scheme, because
//! floating-point work is never re-associated:
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
//! `scale_inplace(0.0)`, while replicas accumulate onto `+0.0` pool
//! buffers, and `+0.0 + -0.0 == +0.0`. A sign-of-zero never changes a
//! loss, norm, or parameter value.
//!
//! # Robustness
//!
//! Channels are bounded; every blocking wait checks a shared abort flag
//! and a watchdog deadline. A panicking stage trips the abort with
//! [`ExecError::StagePanic`] and every thread unwinds to a join; a wedged
//! stage (or a coordinator starved of results) trips
//! [`ExecError::Wedged`]. Neither deadlocks.

use crate::checkpoint::{CheckpointPolicy, ResumeFrom};
use crate::trainer::{AnyOpt, Engine};
use crate::{OptimizerChoice, TrainOptions, TrainRun, Trainer};
use pipefisher_ckpt::CkptError;
use pipefisher_core::{assign, AuxKind, DevicePlan, ExecutablePlan, PipeFisherConfig, PlanOp};
use pipefisher_core::{AssignError, PipeFisherSchedule};
use pipefisher_nn::{
    BertForPreTraining, BertStage, ForwardCtx, PreTrainingBatch, StageOutput, StagedBert,
};
use pipefisher_optim::{
    fold_curvature_a, fold_curvature_b, refresh_inverses, KfacModel, LayerKfacState,
};
use pipefisher_pipeline::PipelineScheme;
use pipefisher_sim::KindCost;
use pipefisher_tensor::Matrix;
use serde_json::json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Layer chunks each stage's fold/invert work is split into when no
/// PipeFisher schedule is available (it then dictates its own granularity).
const AUX_GRANULARITY: usize = 2;

/// A fault a [`ChaosHook`] injects at the start of a device's step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepFault {
    /// Panic the worker (exercises the abort latch / `StagePanic` path).
    Panic,
    /// Wedge the worker — spin without progress until the watchdog (or an
    /// earlier fault) trips the abort latch.
    Stall,
}

/// Pluggable fault/clock injection for the pipeline executor.
///
/// Every callback is keyed on *logical* coordinates — `(device, step)`,
/// plan-op index, aux-pickup ordinal — never wall-clock time, so a hook
/// driven by a seeded plan (`pipefisher-harness`'s `FaultPlan`) injects the
/// same faults on every replay of the same seed. Hooks may perturb *timing*
/// (delays, skewed aux pickup order) or *liveness* (panics, stalls), but
/// have no access to data values: any run a hook does not abort must still
/// be bitwise-identical to the serial trainer.
pub trait ChaosHook: Send + Sync {
    /// Consulted once when `device` begins `step`; returning a fault panics
    /// or wedges the worker before any of the step's work runs.
    fn step_fault(&self, _device: usize, _step: usize) -> Option<StepFault> {
        None
    }

    /// Extra latency injected before `device` executes the `op_index`-th op
    /// of its plan in `step` (slow-stage skew).
    fn op_delay(&self, _device: usize, _step: usize, _op_index: usize) -> Option<Duration> {
        None
    }

    /// When true, the `pickup`-th K-FAC aux pickup of `device` in `step`
    /// skips the first *ready* unit and takes the next ready one instead
    /// (out-of-order aux pickup; readiness rules still hold, so the math is
    /// unchanged).
    fn aux_skip_first_ready(&self, _device: usize, _step: usize, _pickup: usize) -> bool {
        false
    }
}

/// How a pipelined run is laid out and supervised.
#[derive(Clone)]
pub struct PipelineOptions {
    /// Pipeline schedule shape (GPipe / 1F1B / Chimera; Chimera needs an
    /// even stage count and an even micro-batch count).
    pub scheme: PipelineScheme,
    /// Contiguous model stages = simulated devices.
    pub n_stages: usize,
    /// Micro-batches per optimizer step.
    pub n_micro: usize,
    /// Fill pipeline bubbles with K-FAC work (PipeFisher). When off, the
    /// same work runs serialized after the stage's pipeline work — the
    /// paper's "K-FAC on pipeline" baseline.
    pub fill_bubbles: bool,
    /// No worker (or the coordinator) may go this long without progress
    /// before the run aborts with [`ExecError::Wedged`]. Defaults to 30 s;
    /// raise it for chaos runs whose injected delays exceed that, lower it
    /// to see a wedge sooner.
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

impl std::fmt::Debug for PipelineOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineOptions")
            .field("scheme", &self.scheme)
            .field("n_stages", &self.n_stages)
            .field("n_micro", &self.n_micro)
            .field("fill_bubbles", &self.fill_bubbles)
            .field("watchdog", &self.watchdog)
            .field("chaos", &self.chaos.as_ref().map(|_| "<hook>"))
            .field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume)
            .finish()
    }
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
///
/// Every fault variant carries the number of optimizer steps that fully
/// completed (gradient merged, optimizer applied) before the abort — the
/// last checkpointable step. With checkpointing enabled, a supervisor can
/// resume from the newest generation at or below that step.
#[derive(Debug)]
pub enum ExecError {
    /// The schedule could not be lowered into an executable plan.
    Plan(AssignError),
    /// A stage worker panicked; the run aborted and every thread joined.
    StagePanic {
        /// Device whose step body panicked.
        device: usize,
        /// The panic payload, if it was a string.
        message: String,
        /// Optimizer steps fully completed before the abort.
        completed_steps: usize,
    },
    /// A worker (or the coordinator) made no progress for the watchdog
    /// duration; the run aborted rather than deadlocking.
    Wedged {
        /// The configured watchdog duration that elapsed without progress.
        waited: Duration,
        /// Who was stuck waiting for what.
        detail: String,
        /// Optimizer steps fully completed before the abort.
        completed_steps: usize,
    },
    /// Reading or writing a checkpoint failed.
    Checkpoint {
        /// The underlying checkpoint error.
        source: CkptError,
        /// Optimizer steps fully completed before the abort.
        completed_steps: usize,
    },
}

impl ExecError {
    /// Optimizer steps that fully completed before the run stopped — the
    /// last step a checkpoint could describe (`0` for plan errors, which
    /// fail before any step runs).
    pub fn completed_steps(&self) -> usize {
        match self {
            ExecError::Plan(_) => 0,
            ExecError::StagePanic {
                completed_steps, ..
            }
            | ExecError::Wedged {
                completed_steps, ..
            }
            | ExecError::Checkpoint {
                completed_steps, ..
            } => *completed_steps,
        }
    }

    /// Stamps the coordinator's completed-step count onto a fault. Workers
    /// record faults with `completed_steps: 0` (they cannot know how far
    /// the coordinator got); the coordinator patches the winning fault on
    /// the way out.
    fn with_completed(mut self, n: usize) -> Self {
        match &mut self {
            ExecError::Plan(_) => {}
            ExecError::StagePanic {
                completed_steps, ..
            }
            | ExecError::Wedged {
                completed_steps, ..
            }
            | ExecError::Checkpoint {
                completed_steps, ..
            } => *completed_steps = n,
        }
        self
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Plan(e) => write!(f, "pipeline plan error: {e}"),
            ExecError::StagePanic {
                device,
                message,
                completed_steps,
            } => {
                write!(
                    f,
                    "stage worker {device} panicked: {message} \
                     ({completed_steps} steps completed)"
                )
            }
            ExecError::Wedged {
                waited,
                detail,
                completed_steps,
            } => {
                write!(
                    f,
                    "pipeline wedged (no progress for {waited:?}): {detail} \
                     ({completed_steps} steps completed)"
                )
            }
            ExecError::Checkpoint {
                source,
                completed_steps,
            } => {
                write!(
                    f,
                    "checkpoint error: {source} ({completed_steps} steps completed)"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Checkpoint { source, .. } => Some(source),
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
    /// Worker-thread milliseconds spent on K-FAC work *inside* bubbles
    /// (while waiting for pipeline input).
    pub bubble_aux_ms: f64,
    /// Worker-thread milliseconds spent blocked waiting for pipeline input
    /// with no runnable K-FAC work.
    pub bubble_idle_ms: f64,
    /// Worker-thread milliseconds spent on K-FAC work *after* the device's
    /// pipeline work finished (tail work that found no bubble).
    pub tail_aux_ms: f64,
}

type ParamSet = Vec<Matrix>;
type GradSet = Vec<Matrix>;

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

/// One step's marching orders for a device.
struct StepCmd {
    step: usize,
    batches: Arc<Vec<(PreTrainingBatch, ForwardCtx)>>,
    fill_bubbles: bool,
    /// Per hosted stage: canonical parameter values to load into every
    /// slot replica (the shuttle ping-pongs back in `StepDone`).
    params: Vec<(usize, ParamSet)>,
    /// Per hosted stage: zeroed gradient sets, one per backward this
    /// device runs for the stage (returned via `Grads`).
    grad_pool: Vec<(usize, Vec<GradSet>)>,
    kfac: Option<KfacStep>,
    /// Per capture-hosted stage: the optimizer's loaned layer states, in
    /// the stage's `visit_linears` order (returned via `StepDone`).
    kfac_states: Vec<(usize, Vec<LayerKfacState>)>,
}

enum Cmd {
    Step(Box<StepCmd>),
    Shutdown,
}

enum WorkerMsg {
    Loss {
        mb: usize,
        total_loss: f64,
    },
    Grads {
        device: usize,
        stage: usize,
        mb: usize,
        set: GradSet,
    },
    StepDone {
        device: usize,
        params: Vec<(usize, ParamSet)>,
        kfac_states: Vec<(usize, Vec<LayerKfacState>)>,
        bubble_aux_ms: f64,
        bubble_idle_ms: f64,
        tail_aux_ms: f64,
    },
    Fault {
        device: usize,
    },
}

/// Worker-to-worker payload: a boundary activation heading downstream or a
/// boundary gradient heading upstream, keyed by the stage that consumes it.
enum DataMsg {
    Act { stage: usize, mb: usize, m: Matrix },
    Grad { stage: usize, mb: usize, m: Matrix },
}

/// First-fault-wins abort latch shared by the coordinator and all workers.
#[derive(Default)]
struct Abort {
    flag: AtomicBool,
    fault: Mutex<Option<ExecError>>,
}

impl Abort {
    /// Records `err` if no earlier fault was recorded, then raises the flag.
    fn trip(&self, err: ExecError) {
        let mut slot = self.fault.lock().unwrap();
        if slot.is_none() {
            *slot = Some(err);
        }
        self.flag.store(true, Ordering::SeqCst);
    }

    fn is_tripped(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    fn take(&self) -> Option<ExecError> {
        self.fault.lock().unwrap().take()
    }
}

/// Worker-internal "stop this step now" marker; the cause (if this worker
/// is the one that failed) is already in the [`Abort`] latch.
struct Halt;

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The canonical relative work-unit costs used to ask the PipeFisher
/// scheduler for a bubble placement (forward 1, backward 2, per the
/// paper's profile shape). Falls back to `None` when the scheme/shape has
/// no bubbles to place into (e.g. `D = 1`).
fn make_schedule(scheme: PipelineScheme, d: usize, n_micro: usize) -> Option<PipeFisherSchedule> {
    let mut costs = KindCost::standard(1.0, 2.0);
    costs.t_curv_a = 0.4;
    costs.t_curv_b = 0.4;
    costs.t_inv_a = 0.6;
    costs.t_inv_b = 0.6;
    costs.t_prec = 0.2;
    assign(&PipeFisherConfig {
        scheme,
        d,
        n_micro,
        w: 1,
        costs,
        max_steps: 16,
        chimera_pair_parallelism: false,
        recompute: false,
        granularity: AUX_GRANULARITY,
    })
    .ok()
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
    let schedule = make_schedule(opts.scheme, opts.n_stages, opts.n_micro);
    ExecutablePlan::lower(&graph, schedule.as_ref(), AUX_GRANULARITY).map_err(ExecError::Plan)
}

struct WorkerHandle {
    cmd_tx: SyncSender<Cmd>,
    join: Option<std::thread::JoinHandle<()>>,
}

/// Sends shutdown to every worker and joins them all. Safe on both the
/// success path and the abort path: every worker blocking point checks the
/// abort flag or notices the dropped/peer-closed channel.
fn shutdown_workers(workers: &mut Vec<WorkerHandle>) {
    for w in workers.iter() {
        let _ = w.cmd_tx.try_send(Cmd::Shutdown);
    }
    for mut w in workers.drain(..) {
        drop(w.cmd_tx);
        if let Some(join) = w.join.take() {
            let _ = join.join();
        }
    }
}

impl Trainer {
    /// Trains `model` for `steps` optimizer steps on a `D`-stage pipeline
    /// of worker threads, filling bubbles with K-FAC work per
    /// `opts.fill_bubbles`. Losses, metrics, and the returned model are
    /// bitwise-identical to the single-thread accumulated loop (see module
    /// docs); on error the model is consumed. Resuming a checkpoint that
    /// had already reached `steps` returns an empty run and the restored
    /// model without spawning a worker.
    ///
    /// # Panics
    ///
    /// Panics if `opts.n_stages == 0`, `opts.n_micro == 0`, the model has
    /// fewer blocks than stages need, or the scheme's own shape rules are
    /// violated (Chimera needs even `D` and even `N`).
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
        shutdown_workers(&mut engine.workers);
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
/// plus one persistent worker thread per device. Each step it dispatches
/// parameter shuttles and commands, collects losses / gradient sets /
/// `StepDone` summaries, and merges the gradient contributions into the
/// canonical stages in serial micro-batch order.
struct Staged<'a> {
    staged: StagedBert,
    plan: &'a ExecutablePlan,
    opts: &'a PipelineOptions,
    /// K-FAC layer names per stage, in `visit_linears` order — the index
    /// contract for loaned state vectors.
    layer_names: Vec<Vec<String>>,
    abort: Arc<Abort>,
    /// The fleet and its results channel: none / disconnected until `start`.
    workers: Vec<WorkerHandle>,
    res_rx: Receiver<WorkerMsg>,
    /// Coordinator-held shuttles and pools, keyed by (device, stage).
    shuttles: HashMap<(usize, usize), ParamSet>,
    pools: HashMap<(usize, usize), Vec<GradSet>>,
    /// Layer states the workers returned this step, awaiting `apply`.
    returned_states: Vec<(usize, Vec<LayerKfacState>)>,
    bubble_aux_ms: f64,
    bubble_idle_ms: f64,
    tail_aux_ms: f64,
}

impl<'a> Staged<'a> {
    /// Partitions `model`; the worker fleet comes later, in `start`.
    fn new(model: BertForPreTraining, plan: &'a ExecutablePlan, opts: &'a PipelineOptions) -> Self {
        let mut staged = StagedBert::from_model(model, opts.n_stages);
        let layer_names: Vec<Vec<String>> = (0..opts.n_stages)
            .map(|s| {
                let mut names = Vec::new();
                staged
                    .stage_mut(s)
                    .visit_linears(&mut |lin| names.push(lin.name().to_string()));
                names
            })
            .collect();
        Staged {
            staged,
            plan,
            opts,
            layer_names,
            abort: Arc::new(Abort::default()),
            workers: Vec::new(),
            res_rx: mpsc::channel().1,
            shuttles: HashMap::new(),
            pools: HashMap::new(),
            returned_states: Vec::new(),
            bubble_aux_ms: 0.0,
            bubble_idle_ms: 0.0,
            tail_aux_ms: 0.0,
        }
    }

    /// Trips the abort latch with `fallback` (first fault wins), tears the
    /// worker fleet down, and returns the winning fault stamped with the
    /// steps completed before `step` faulted.
    fn abort_step(&mut self, step: usize, fallback: ExecError) -> ExecError {
        self.abort.trip(fallback);
        shutdown_workers(&mut self.workers);
        let fault = self.abort.take().expect("abort latch tripped");
        fault.with_completed(step)
    }
}

impl Engine for Staged<'_> {
    fn model(&mut self) -> &mut dyn KfacModel {
        &mut self.staged
    }

    /// Spawns one persistent worker per device, each with slot replicas
    /// cloned from the (possibly just restored) canonical stages.
    fn start(&mut self) {
        let Staged {
            staged,
            plan,
            opts,
            abort,
            workers,
            res_rx,
            shuttles,
            pools,
            ..
        } = self;
        let (d, n_micro) = (opts.n_stages, opts.n_micro);
        let n_devices = plan.devices.len();
        let (res_tx, rx) = mpsc::channel::<WorkerMsg>();
        *res_rx = rx;
        let mut data_txs = Vec::with_capacity(n_devices);
        let mut data_rxs: Vec<Option<Receiver<DataMsg>>> = Vec::with_capacity(n_devices);
        for dev in 0..n_devices {
            let hosted = plan.devices[dev].hosted_stages().len().max(1);
            let (tx, rx) = mpsc::sync_channel::<DataMsg>(2 * n_micro * hosted + 4);
            data_txs.push(tx);
            data_rxs.push(Some(rx));
        }
        for (dev, data_rx_slot) in data_rxs.iter_mut().enumerate() {
            let dplan = plan.devices[dev].clone();
            let mut hosts = HashMap::new();
            for s in dplan.hosted_stages() {
                let mut replicas = Vec::with_capacity(dplan.n_slots[s]);
                for _ in 0..dplan.n_slots[s] {
                    let mut replica = staged.stage(s).clone();
                    replica.visit_params(&mut |p| p.grad.as_mut_slice().fill(0.0));
                    replica.visit_linears(&mut |lin| lin.kfac_stats_mut().clear());
                    replicas.push(replica);
                }
                let capture_slot = dplan.ops.iter().find_map(|op| match *op {
                    PlanOp::Forward {
                        stage, mb, slot, ..
                    } if stage == s && mb + 1 == n_micro => Some(slot),
                    _ => None,
                });
                hosts.insert(
                    s,
                    StageHost {
                        replicas,
                        capture_slot,
                    },
                );
                let mut pset = Vec::new();
                staged
                    .stage_mut(s)
                    .visit_params(&mut |p| pset.push(p.value.clone()));
                shuttles.insert((dev, s), pset);
                let backwards = dplan
                    .ops
                    .iter()
                    .filter(|op| matches!(op, PlanOp::Backward { stage, .. } if *stage == s))
                    .count();
                let mut pool = Vec::with_capacity(backwards);
                for _ in 0..backwards {
                    let mut set = Vec::new();
                    staged.stage_mut(s).visit_params(&mut |p| {
                        set.push(Matrix::zeros(p.grad.rows(), p.grad.cols()))
                    });
                    pool.push(set);
                }
                pools.insert((dev, s), pool);
            }
            let (cmd_tx, cmd_rx) = mpsc::sync_channel::<Cmd>(2);
            let worker = Worker {
                device: dev,
                n_micro,
                last_stage: d - 1,
                plan: Arc::new(dplan),
                hosts,
                cmd_rx,
                data_rx: data_rx_slot.take().expect("receiver taken once"),
                peers: data_txs
                    .iter()
                    .enumerate()
                    .map(|(i, tx)| if i == dev { None } else { Some(tx.clone()) })
                    .collect(),
                results: res_tx.clone(),
                abort: Arc::clone(abort),
                watchdog: opts.watchdog,
                chaos: opts.chaos.clone(),
                pending: HashMap::new(),
                shuttles: HashMap::new(),
                grad_pools: HashMap::new(),
                loaned: HashMap::new(),
                aux_done: Vec::new(),
                aux_pickups: 0,
                fwd_cap: vec![false; d],
                bwd_cap: vec![false; d],
                bubble_aux_ms: 0.0,
                bubble_idle_ms: 0.0,
                tail_aux_ms: 0.0,
                last_progress: Instant::now(),
            };
            let join = std::thread::Builder::new()
                .name(format!("dev{dev}"))
                .spawn(move || worker.run())
                .expect("spawn stage worker");
            workers.push(WorkerHandle {
                cmd_tx,
                join: Some(join),
            });
        }
    }

    fn run_micro_batches(
        &mut self,
        step: usize,
        batches: Vec<(PreTrainingBatch, ForwardCtx)>,
        opt: &mut AnyOpt,
        (refresh_curv, refresh_inv): (bool, bool),
    ) -> Result<f64, ExecError> {
        let (d, n_micro) = (self.opts.n_stages, self.opts.n_micro);
        let n_devices = self.plan.devices.len();
        let batches = Arc::new(batches);
        // Dispatch.
        let kfac_step = opt.kfac_mut().map(|k| KfacStep {
            t: k.step_count() + 1,
            ema_decay: k.config().ema_decay,
            damping: k.config().damping,
            block_size: k.config().factor_block_size,
            refresh_curv,
            refresh_inv,
        });
        let loan = kfac_step.is_some() && (refresh_curv || refresh_inv);
        for dev in 0..n_devices {
            let hosted = self.plan.devices[dev].hosted_stages();
            let mut params = Vec::with_capacity(hosted.len());
            let mut grad_pool = Vec::with_capacity(hosted.len());
            let mut kfac_states = Vec::new();
            for &s in &hosted {
                let pset = self.shuttles.get_mut(&(dev, s)).expect("shuttle exists");
                let mut i = 0;
                self.staged.stage_mut(s).visit_params(&mut |p| {
                    pset[i].clone_from(&p.value);
                    i += 1;
                });
                params.push((s, self.shuttles.remove(&(dev, s)).expect("shuttle exists")));
                grad_pool.push((
                    s,
                    std::mem::take(self.pools.get_mut(&(dev, s)).expect("pool")),
                ));
                if loan && self.plan.capture_host[s] == dev {
                    let k = opt.kfac_mut().expect("loan implies K-FAC");
                    let states: Vec<LayerKfacState> = self.layer_names[s]
                        .iter()
                        .map(|name| k.take_state(name))
                        .collect();
                    kfac_states.push((s, states));
                }
            }
            let cmd = StepCmd {
                step,
                batches: Arc::clone(&batches),
                fill_bubbles: self.opts.fill_bubbles,
                params,
                grad_pool,
                kfac: kfac_step.clone(),
                kfac_states,
            };
            if self.workers[dev]
                .cmd_tx
                .send(Cmd::Step(Box::new(cmd)))
                .is_err()
            {
                let fallback = ExecError::StagePanic {
                    device: dev,
                    message: "worker exited before the step was dispatched".to_string(),
                    completed_steps: step,
                };
                return Err(self.abort_step(step, fallback));
            }
        }
        // Collect.
        let mut loss_buf = vec![0.0f64; n_micro];
        let mut loss_got = vec![false; n_micro];
        let mut grad_sets: HashMap<(usize, usize), (usize, GradSet)> = HashMap::new();
        let mut done = 0usize;
        let mut last_msg = Instant::now();
        loop {
            if done == n_devices && grad_sets.len() == d * n_micro && loss_got.iter().all(|&g| g) {
                break;
            }
            match self.res_rx.recv_timeout(Duration::from_millis(20)) {
                Ok(WorkerMsg::Loss { mb, total_loss }) => {
                    loss_buf[mb] = total_loss;
                    loss_got[mb] = true;
                    last_msg = Instant::now();
                }
                Ok(WorkerMsg::Grads {
                    device,
                    stage,
                    mb,
                    set,
                }) => {
                    grad_sets.insert((stage, mb), (device, set));
                    last_msg = Instant::now();
                }
                Ok(WorkerMsg::StepDone {
                    device,
                    params,
                    kfac_states,
                    bubble_aux_ms: aux,
                    bubble_idle_ms: idle,
                    tail_aux_ms: tail,
                }) => {
                    for (s, pset) in params {
                        self.shuttles.insert((device, s), pset);
                    }
                    self.returned_states.extend(kfac_states);
                    self.bubble_aux_ms += aux;
                    self.bubble_idle_ms += idle;
                    self.tail_aux_ms += tail;
                    done += 1;
                    last_msg = Instant::now();
                }
                Ok(WorkerMsg::Fault { device }) => {
                    let fallback = ExecError::StagePanic {
                        device,
                        message: "worker reported a fault".to_string(),
                        completed_steps: step,
                    };
                    return Err(self.abort_step(step, fallback));
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.abort.is_tripped() || last_msg.elapsed() > self.opts.watchdog {
                        let fallback = ExecError::Wedged {
                            waited: self.opts.watchdog,
                            detail: format!(
                                "coordinator starved of step-{step} results \
                                 ({done}/{n_devices} devices done)"
                            ),
                            completed_steps: step,
                        };
                        return Err(self.abort_step(step, fallback));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let fallback = ExecError::Wedged {
                        waited: self.opts.watchdog,
                        detail: "all workers exited mid-step".to_string(),
                        completed_steps: step,
                    };
                    return Err(self.abort_step(step, fallback));
                }
            }
        }
        // Merge gradient contributions in serial micro-batch order.
        for mb in 0..n_micro {
            for s in 0..d {
                let (device, mut set) = grad_sets.remove(&(s, mb)).expect("backward coverage");
                let mut i = 0;
                self.staged.stage_mut(s).visit_params(&mut |p| {
                    p.grad.axpy(1.0, &set[i]);
                    i += 1;
                });
                for m in &mut set {
                    m.as_mut_slice().fill(0.0);
                }
                self.pools.get_mut(&(device, s)).expect("pool").push(set);
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
        for (s, states) in self.returned_states.drain(..) {
            for (name, state) in self.layer_names[s].iter().zip(states) {
                k.put_state(name, state);
            }
        }
        k.step_preconditioned(&mut self.staged, lr);
    }
}

// ===================== worker side =====================

/// A stage this device hosts: one replica per activation slot, plus which
/// slot runs the capture micro-batch `N−1` (if this device does).
struct StageHost {
    replicas: Vec<BertStage>,
    capture_slot: Option<usize>,
}

/// One device's worker: executes its `DevicePlan` ops in order each step,
/// popping ready K-FAC units while blocked on pipeline input.
struct Worker {
    device: usize,
    n_micro: usize,
    last_stage: usize,
    plan: Arc<DevicePlan>,
    hosts: HashMap<usize, StageHost>,
    cmd_rx: Receiver<Cmd>,
    data_rx: Receiver<DataMsg>,
    /// Per-device senders into each peer's `data_rx` (`None` at own index).
    peers: Vec<Option<SyncSender<DataMsg>>>,
    results: mpsc::Sender<WorkerMsg>,
    abort: Arc<Abort>,
    watchdog: Duration,
    chaos: Option<Arc<dyn ChaosHook>>,
    /// Arrived-but-unconsumed boundary tensors, keyed `(is_grad, stage, mb)`.
    pending: HashMap<(bool, usize, usize), Matrix>,
    /// Per-step loans from the coordinator, keyed by stage.
    shuttles: HashMap<usize, ParamSet>,
    grad_pools: HashMap<usize, Vec<GradSet>>,
    loaned: HashMap<usize, Vec<LayerKfacState>>,
    /// Per-step aux progress.
    aux_done: Vec<bool>,
    /// Aux units picked up so far this step (the chaos hook's pickup key).
    aux_pickups: usize,
    fwd_cap: Vec<bool>,
    bwd_cap: Vec<bool>,
    bubble_aux_ms: f64,
    bubble_idle_ms: f64,
    tail_aux_ms: f64,
    last_progress: Instant,
}

impl Worker {
    fn run(mut self) {
        loop {
            let cmd = match self.cmd_rx.recv() {
                Ok(cmd) => cmd,
                Err(_) => break,
            };
            let mut step_cmd = match cmd {
                Cmd::Shutdown => break,
                Cmd::Step(c) => c,
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.run_step(&mut step_cmd)
            }));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(Halt)) => {
                    let _ = self.results.send(WorkerMsg::Fault {
                        device: self.device,
                    });
                    break;
                }
                Err(payload) => {
                    self.abort.trip(ExecError::StagePanic {
                        device: self.device,
                        message: panic_message(payload),
                        completed_steps: 0,
                    });
                    let _ = self.results.send(WorkerMsg::Fault {
                        device: self.device,
                    });
                    break;
                }
            }
        }
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
            Some(StepFault::Stall) => {
                // Wedge without progress until someone (the watchdog) aborts.
                while !self.abort.is_tripped() {
                    std::thread::sleep(Duration::from_millis(2));
                }
                return Err(Halt);
            }
            None => {}
        }
        self.begin_step(cmd);
        let plan = Arc::clone(&self.plan);
        for (op_index, op) in plan.ops.iter().enumerate() {
            if self.abort.is_tripped() {
                return Err(Halt);
            }
            if let Some(delay) = self
                .chaos
                .as_ref()
                .and_then(|c| c.op_delay(self.device, cmd.step, op_index))
            {
                self.chaos_sleep(delay)?;
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
            }
        }
        self.finish_step(cmd)
    }

    /// Loads the step's loans into worker state and resets per-step
    /// progress tracking. Slot replicas re-sync to the canonical
    /// parameters here, so every micro-batch computes on the exact
    /// serial-step weights.
    fn begin_step(&mut self, cmd: &mut StepCmd) {
        for (stage, pset) in cmd.params.drain(..) {
            let host = self.hosts.get_mut(&stage).expect("params for hosted stage");
            for replica in &mut host.replicas {
                let mut i = 0;
                replica.visit_params(&mut |p| {
                    p.value.clone_from(&pset[i]);
                    i += 1;
                });
            }
            self.shuttles.insert(stage, pset);
        }
        for (stage, pool) in cmd.grad_pool.drain(..) {
            self.grad_pools.insert(stage, pool);
        }
        for (stage, states) in cmd.kfac_states.drain(..) {
            self.loaned.insert(stage, states);
        }
        self.aux_done.clear();
        self.aux_done.resize(self.plan.aux.len(), false);
        self.aux_pickups = 0;
        self.fwd_cap.iter_mut().for_each(|f| *f = false);
        self.bwd_cap.iter_mut().for_each(|f| *f = false);
        self.bubble_aux_ms = 0.0;
        self.bubble_idle_ms = 0.0;
        self.tail_aux_ms = 0.0;
        self.last_progress = Instant::now();
    }

    /// Sleeps out an injected delay in abort-aware slices. The wait is
    /// intentional, so the worker's own progress clock resets afterwards;
    /// peers blocked on this device's output still see the skew and wedge
    /// if it exceeds their watchdog.
    fn chaos_sleep(&mut self, delay: Duration) -> Result<(), Halt> {
        let until = Instant::now() + delay;
        loop {
            if self.abort.is_tripped() {
                return Err(Halt);
            }
            let now = Instant::now();
            if now >= until {
                self.last_progress = Instant::now();
                return Ok(());
            }
            std::thread::sleep((until - now).min(Duration::from_millis(2)));
        }
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
            Some(self.wait_for(false, stage, mb, cmd)?)
        };
        let (batch, ctx) = &cmd.batches[mb];
        let out = {
            let device = self.device;
            let _span = pipefisher_trace::span_with("forward", "pipeline", || {
                vec![
                    ("step".to_string(), json!(cmd.step)),
                    ("device".to_string(), json!(device)),
                    ("stage".to_string(), json!(stage)),
                    ("mb".to_string(), json!(mb)),
                    ("slot".to_string(), json!(slot)),
                ]
            });
            let host = self.hosts.get_mut(&stage).expect("forward on hosted stage");
            host.replicas[slot].forward(input, batch, ctx)
        };
        if mb + 1 == self.n_micro {
            self.fwd_cap[stage] = true;
        }
        match out {
            StageOutput::Boundary(m) => {
                let dest = send_to.expect("interior forward routes downstream");
                self.send_data(
                    dest,
                    DataMsg::Act {
                        stage: stage + 1,
                        mb,
                        m,
                    },
                )?;
            }
            StageOutput::Losses(out) => {
                self.results
                    .send(WorkerMsg::Loss {
                        mb,
                        total_loss: out.total_loss,
                    })
                    .map_err(|_| Halt)?;
            }
        }
        self.last_progress = Instant::now();
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
            Some(self.wait_for(true, stage, mb, cmd)?)
        };
        let (batch, _ctx) = &cmd.batches[mb];
        let upstream = {
            let device = self.device;
            let _span = pipefisher_trace::span_with("backward", "pipeline", || {
                vec![
                    ("step".to_string(), json!(cmd.step)),
                    ("device".to_string(), json!(device)),
                    ("stage".to_string(), json!(stage)),
                    ("mb".to_string(), json!(mb)),
                    ("slot".to_string(), json!(slot)),
                ]
            });
            let host = self
                .hosts
                .get_mut(&stage)
                .expect("backward on hosted stage");
            host.replicas[slot].backward(dout, batch)
        };
        if mb + 1 == self.n_micro {
            self.bwd_cap[stage] = true;
        }
        if let (Some(m), Some(dest)) = (upstream, send_to) {
            self.send_data(
                dest,
                DataMsg::Grad {
                    stage: stage - 1,
                    mb,
                    m,
                },
            )?;
        }
        // Hand this micro-batch's contribution to the coordinator: swap the
        // replica's accumulated grads with a zeroed set from the pool, so
        // the replica is clean for its slot's next micro-batch.
        let mut set = self
            .grad_pools
            .get_mut(&stage)
            .expect("grad pool for hosted stage")
            .pop()
            .expect("grad pool sized to backward count");
        {
            let host = self.hosts.get_mut(&stage).expect("hosted stage");
            let mut i = 0;
            host.replicas[slot].visit_params(&mut |p| {
                std::mem::swap(&mut p.grad, &mut set[i]);
                i += 1;
            });
        }
        self.results
            .send(WorkerMsg::Grads {
                device: self.device,
                stage,
                mb,
                set,
            })
            .map_err(|_| Halt)?;
        self.last_progress = Instant::now();
        Ok(())
    }

    /// Runs remaining K-FAC units (tail work that found no bubble), clears
    /// the capture replicas' statistics, and returns the loans.
    fn finish_step(&mut self, cmd: &StepCmd) -> Result<(), Halt> {
        let tail_t = Instant::now();
        while self.try_aux_one(cmd).is_some() {
            if self.abort.is_tripped() {
                return Err(Halt);
            }
        }
        self.tail_aux_ms = tail_t.elapsed().as_secs_f64() * 1e3;
        if cmd.kfac.as_ref().is_some_and(|k| k.refresh_curv) {
            for host in self.hosts.values_mut() {
                if let Some(slot) = host.capture_slot {
                    host.replicas[slot].visit_linears(&mut |lin| lin.kfac_stats_mut().clear());
                }
            }
        }
        let mut params: Vec<(usize, ParamSet)> = self.shuttles.drain().collect();
        params.sort_by_key(|(s, _)| *s);
        let mut kfac_states: Vec<(usize, Vec<LayerKfacState>)> = self.loaned.drain().collect();
        kfac_states.sort_by_key(|(s, _)| *s);
        self.results
            .send(WorkerMsg::StepDone {
                device: self.device,
                params,
                kfac_states,
                bubble_aux_ms: self.bubble_aux_ms,
                bubble_idle_ms: self.bubble_idle_ms,
                tail_aux_ms: self.tail_aux_ms,
            })
            .map_err(|_| Halt)
    }

    /// Blocks until the boundary tensor keyed `(is_grad, stage, mb)`
    /// arrives, filling the wait with ready K-FAC units (the bubbles the
    /// paper targets) and honoring abort/watchdog.
    fn wait_for(
        &mut self,
        is_grad: bool,
        stage: usize,
        mb: usize,
        cmd: &StepCmd,
    ) -> Result<Matrix, Halt> {
        let key = (is_grad, stage, mb);
        loop {
            while let Ok(msg) = self.data_rx.try_recv() {
                self.stash(msg);
            }
            if let Some(m) = self.pending.remove(&key) {
                self.last_progress = Instant::now();
                return Ok(m);
            }
            if cmd.fill_bubbles {
                if let Some(ms) = self.try_aux_one(cmd) {
                    self.bubble_aux_ms += ms;
                    continue;
                }
            }
            let idle_t = Instant::now();
            match self.data_rx.recv_timeout(Duration::from_millis(5)) {
                Ok(msg) => {
                    self.bubble_idle_ms += idle_t.elapsed().as_secs_f64() * 1e3;
                    self.stash(msg);
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.bubble_idle_ms += idle_t.elapsed().as_secs_f64() * 1e3;
                    if self.abort.is_tripped() {
                        return Err(Halt);
                    }
                    if self.last_progress.elapsed() > self.watchdog {
                        let what = if is_grad { "gradient" } else { "activation" };
                        self.abort.trip(ExecError::Wedged {
                            waited: self.watchdog,
                            detail: format!(
                                "device {} stuck waiting for the {what} of stage {stage} \
                                 micro-batch {mb}",
                                self.device
                            ),
                            completed_steps: 0,
                        });
                        return Err(Halt);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(Halt),
            }
        }
    }

    fn stash(&mut self, msg: DataMsg) {
        let (key, m) = match msg {
            DataMsg::Act { stage, mb, m } => ((false, stage, mb), m),
            DataMsg::Grad { stage, mb, m } => ((true, stage, mb), m),
        };
        self.pending.insert(key, m);
        self.last_progress = Instant::now();
    }

    /// Routes a boundary tensor to the device hosting its consumer; a
    /// self-send short-circuits into `pending`.
    fn send_data(&mut self, dest: usize, msg: DataMsg) -> Result<(), Halt> {
        if dest == self.device {
            self.stash(msg);
            return Ok(());
        }
        let mut msg = msg;
        loop {
            let tx = self.peers[dest].as_ref().expect("peer sender");
            match tx.try_send(msg) {
                Ok(()) => {
                    self.last_progress = Instant::now();
                    return Ok(());
                }
                Err(TrySendError::Full(back)) => {
                    msg = back;
                    if self.abort.is_tripped() {
                        return Err(Halt);
                    }
                    if self.last_progress.elapsed() > self.watchdog {
                        self.abort.trip(ExecError::Wedged {
                            waited: self.watchdog,
                            detail: format!(
                                "device {} stuck sending to device {dest} (full channel)",
                                self.device
                            ),
                            completed_steps: 0,
                        });
                        return Err(Halt);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(TrySendError::Disconnected(_)) => return Err(Halt),
            }
        }
    }

    /// Runs the first K-FAC unit whose inputs are ready (or, under a chaos
    /// hook's out-of-order pickup, the second ready one); returns the
    /// milliseconds it took, `None` when nothing was runnable — the caller
    /// books the time as bubble work ([`Worker::wait_for`]) or lets its tail
    /// timer cover it ([`Worker::finish_step`]). Units for phases the step
    /// does not refresh are marked done without running (there is nothing
    /// to compute).
    ///
    /// Reordering among *ready* units is bitwise-safe: ready units touch
    /// disjoint per-layer state, and an inversion only becomes ready once
    /// every fold of its stage is done.
    fn try_aux_one(&mut self, cmd: &StepCmd) -> Option<f64> {
        let kfac = cmd.kfac.clone()?;
        if !kfac.refresh_curv && !kfac.refresh_inv {
            return None;
        }
        let plan = Arc::clone(&self.plan);
        let mut first_ready = None;
        let mut second_ready = None;
        for (i, op) in plan.aux.iter().enumerate() {
            if self.aux_done[i] {
                continue;
            }
            let applicable = match op.kind {
                AuxKind::FoldA | AuxKind::FoldB => kfac.refresh_curv,
                AuxKind::Invert => kfac.refresh_inv,
            };
            if !applicable {
                self.aux_done[i] = true;
                continue;
            }
            let ready = match op.kind {
                AuxKind::FoldA => self.fwd_cap[op.stage],
                AuxKind::FoldB => self.bwd_cap[op.stage],
                // Inversion consumes the stage's folded factors: on a
                // curvature-refresh step it waits for every fold of the
                // stage; on a pure inversion step the factors are already
                // current.
                AuxKind::Invert => {
                    !kfac.refresh_curv
                        || plan.aux.iter().enumerate().all(|(j, other)| {
                            other.stage != op.stage
                                || !matches!(other.kind, AuxKind::FoldA | AuxKind::FoldB)
                                || self.aux_done[j]
                        })
                }
            };
            if !ready {
                continue;
            }
            if first_ready.is_none() {
                first_ready = Some(i);
            } else {
                second_ready = Some(i);
                break;
            }
        }
        let first = first_ready?;
        let skip = self
            .chaos
            .as_ref()
            .is_some_and(|c| c.aux_skip_first_ready(self.device, cmd.step, self.aux_pickups));
        let chosen = if skip {
            second_ready.unwrap_or(first)
        } else {
            first
        };
        self.aux_pickups += 1;
        self.aux_done[chosen] = true;
        let op = plan.aux[chosen];
        let t = Instant::now();
        self.run_aux(cmd.step, op.stage, op.kind, op.chunk, op.chunks, &kfac);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.last_progress = Instant::now();
        Some(ms)
    }

    /// Executes one fold/invert unit over the chunk's slice of the stage's
    /// K-FAC layers, on the capture replica's statistics, against the
    /// optimizer's loaned layer states.
    fn run_aux(
        &mut self,
        step: usize,
        stage: usize,
        kind: AuxKind,
        chunk: usize,
        chunks: usize,
        kfac: &KfacStep,
    ) {
        let device = self.device;
        let Some(states) = self.loaned.get_mut(&stage) else {
            return; // no loan (e.g. another device's refresh already has it)
        };
        let host = self.hosts.get_mut(&stage).expect("aux on hosted stage");
        let slot = host.capture_slot.expect("aux runs on the capture host");
        let replica = &mut host.replicas[slot];
        let k_total = states.len();
        let lo = chunk * k_total / chunks;
        let hi = (chunk + 1) * k_total / chunks;
        let aux_args = || {
            vec![
                ("step".to_string(), json!(step)),
                ("device".to_string(), json!(device)),
                ("stage".to_string(), json!(stage)),
                ("chunk".to_string(), json!(chunk)),
                ("chunks".to_string(), json!(chunks)),
            ]
        };
        match kind {
            AuxKind::FoldA => {
                let _span = pipefisher_trace::span_with("curvature_a", "kfac", aux_args);
                let mut i = 0;
                replica.visit_linears(&mut |lin| {
                    if i >= lo && i < hi {
                        fold_curvature_a(&mut states[i], lin, kfac.ema_decay, kfac.t);
                    }
                    i += 1;
                });
            }
            AuxKind::FoldB => {
                let _span = pipefisher_trace::span_with("curvature_b", "kfac", aux_args);
                let mut i = 0;
                replica.visit_linears(&mut |lin| {
                    if i >= lo && i < hi {
                        fold_curvature_b(&mut states[i], lin, kfac.ema_decay, kfac.t);
                    }
                    i += 1;
                });
            }
            AuxKind::Invert => {
                let _span = pipefisher_trace::span_with("inversion", "kfac", aux_args);
                for state in &mut states[lo..hi] {
                    refresh_inverses(state, kfac.damping, kfac.block_size, kfac.t);
                }
            }
        }
    }
}
