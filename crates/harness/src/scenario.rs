//! Seeded scenario generation and execution.
//!
//! A [`Scenario`] is one fully-determined pipelined training run — scheme,
//! stage count, micro-batches, optimizer, bubble filling, and a [`FaultPlan`]
//! — derived from a single `u64` seed. [`run_scenario`] executes it under
//! tracing, then:
//!
//! * if the fault plan injected a panic/stall, asserts the run aborted with
//!   the matching `ExecError` (attributed to the right device for panics);
//! * otherwise runs the conformance checker against the exact
//!   `ExecutablePlan` the executor used, and asserts bitwise loss and
//!   parameter parity with the serial `Trainer` oracle.
//!
//! Every failure message embeds the scenario seed, so any soak failure is
//! replayable with `Scenario::from_seed(seed)`.

use crate::conformance::{check_conformance, extract_events, ExecEvent, StepSpec};
use crate::fault::{splitmix64, CheckpointFault, FaultPlan};
use pipefisher_core::ExecutablePlan;
use pipefisher_lm::{
    plan_for, BatchSampler, CheckpointPolicy, ExecError, ExecFault, OptimizerChoice,
    PipelineOptions, ResumeFrom, SyntheticLanguage, TrainOptions, Trainer,
};
use pipefisher_nn::{BertConfig, BertForPreTraining};
use pipefisher_optim::{KfacConfig, LrSchedule};
use pipefisher_pipeline::PipelineScheme;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use pipefisher_lm::StepFault;

/// Serializes scenario executions: tracing and the trace sink are
/// process-global.
fn harness_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The optimizer a scenario trains with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// NVLAMB — first-order baseline, no K-FAC aux work expected.
    Lamb,
    /// K-FAC on NVLAMB with the given refresh cadence.
    Kfac {
        /// Steps between curvature folds.
        curvature_interval: usize,
        /// Steps between inverse refreshes.
        inversion_interval: usize,
    },
}

impl OptimizerKind {
    /// The trainer-facing optimizer choice.
    pub fn choice(&self) -> OptimizerChoice {
        match *self {
            OptimizerKind::Lamb => OptimizerChoice::Lamb { weight_decay: 0.01 },
            OptimizerKind::Kfac {
                curvature_interval,
                inversion_interval,
            } => OptimizerChoice::Kfac {
                weight_decay: 0.01,
                kfac: KfacConfig {
                    damping: 3e-2,
                    ema_decay: 0.5,
                    curvature_interval,
                    inversion_interval,
                    kl_clip: Some(1e-2),
                    factor_block_size: None,
                },
            },
        }
    }

    /// The expected K-FAC cadence of step `step` (the checker's own
    /// arithmetic, independent of `Kfac::next_step_refreshes_*`).
    pub fn spec_at(&self, step: usize) -> StepSpec {
        match *self {
            OptimizerKind::Lamb => StepSpec {
                kfac: false,
                refresh_curv: false,
                refresh_inv: false,
            },
            OptimizerKind::Kfac {
                curvature_interval,
                inversion_interval,
            } => StepSpec {
                kfac: true,
                refresh_curv: step.is_multiple_of(curvature_interval),
                refresh_inv: step.is_multiple_of(inversion_interval),
            },
        }
    }

    fn key(&self) -> String {
        match *self {
            OptimizerKind::Lamb => "lamb".to_string(),
            OptimizerKind::Kfac {
                curvature_interval,
                inversion_interval,
            } => format!("kfac{curvature_interval}-{inversion_interval}"),
        }
    }
}

/// One fully-determined pipelined run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The seed everything below derives from.
    pub seed: u64,
    /// Pipeline schedule shape.
    pub scheme: PipelineScheme,
    /// Stage / device count.
    pub n_stages: usize,
    /// Micro-batches per step.
    pub n_micro: usize,
    /// Optimizer steps to train.
    pub steps: usize,
    /// Optimizer under test.
    pub optimizer: OptimizerKind,
    /// Whether K-FAC work fills bubbles (vs running as tail work).
    pub fill_bubbles: bool,
    /// Trainer/model seed (shared with the oracle).
    pub data_seed: u64,
    /// The fault schedule.
    pub fault: FaultPlan,
}

impl Scenario {
    /// Derives a scenario from `seed`. Shape rules are respected by
    /// construction: Chimera is only drawn with even stage and micro-batch
    /// counts, and the fault plan's coordinates are clamped to the run.
    pub fn from_seed(seed: u64) -> Scenario {
        let mut s = seed ^ 0x5EED_5EED_5EED_5EED;
        let n_stages = [1usize, 2, 2, 4][(splitmix64(&mut s) % 4) as usize];
        let mut schemes = vec![PipelineScheme::GPipe, PipelineScheme::OneFOneB];
        if n_stages.is_multiple_of(2) {
            schemes.push(PipelineScheme::Chimera);
        }
        let scheme = schemes[(splitmix64(&mut s) % schemes.len() as u64) as usize];
        let n_micro = if scheme == PipelineScheme::Chimera {
            [2usize, 4][(splitmix64(&mut s) % 2) as usize]
        } else {
            [2usize, 3, 4][(splitmix64(&mut s) % 3) as usize]
        };
        let steps = 3 + (splitmix64(&mut s) % 2) as usize;
        let optimizer = match splitmix64(&mut s) % 4 {
            0 => OptimizerKind::Lamb,
            1 => OptimizerKind::Kfac {
                curvature_interval: 1,
                inversion_interval: 2,
            },
            _ => OptimizerKind::Kfac {
                curvature_interval: 2,
                inversion_interval: 3,
            },
        };
        let fill_bubbles = !splitmix64(&mut s).is_multiple_of(4);
        Scenario {
            seed,
            scheme,
            n_stages,
            n_micro,
            steps,
            optimizer,
            fill_bubbles,
            data_seed: 7,
            fault: FaultPlan::from_seed(seed, n_stages, steps),
        }
    }

    /// The model shape the scenario trains (mirrors the executor tests:
    /// tiny BERT up to two stages, mini BERT for four).
    pub fn config(&self) -> BertConfig {
        if self.n_stages <= 2 {
            BertConfig::tiny(36, 16)
        } else {
            BertConfig::mini(36, 16)
        }
    }

    /// One-line human description for reports.
    pub fn describe(&self) -> String {
        format!(
            "{} D={} N={} steps={} opt={} fill={} fault={:?}",
            self.scheme.name(),
            self.n_stages,
            self.n_micro,
            self.steps,
            self.optimizer.key(),
            self.fill_bubbles,
            self.fault.fault,
        )
    }
}

fn setup(config: &BertConfig, seed: u64) -> (Trainer, BertForPreTraining) {
    let lang = SyntheticLanguage::new(config.vocab_size, 2, 4, 11);
    let sampler = BatchSampler::new(lang, config.max_seq);
    let trainer = Trainer::new(sampler, 8, LrSchedule::Constant(5e-3), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let model = BertForPreTraining::new(config.clone(), 0.0, &mut rng);
    (trainer, model)
}

fn param_bits(model: &mut BertForPreTraining) -> Vec<u64> {
    let mut bits = Vec::new();
    model.visit_params(&mut |p| bits.extend(p.value.as_slice().iter().map(|v| v.to_bits())));
    bits
}

/// The raw material of one traced scenario execution.
#[derive(Debug)]
pub struct Execution {
    /// The exact plan the executor ran.
    pub plan: ExecutablePlan,
    /// Per-step K-FAC cadence.
    pub specs: Vec<StepSpec>,
    /// Executor events reconstructed from the drained trace.
    pub events: Vec<ExecEvent>,
    /// Loss and final-parameter bits on success, the executor error
    /// otherwise.
    pub result: Result<(Vec<u64>, Vec<u64>), ExecError>,
}

fn execute_inner(sc: &Scenario) -> Execution {
    let mut opts = PipelineOptions::new(sc.scheme, sc.n_stages, sc.n_micro);
    opts.fill_bubbles = sc.fill_bubbles;
    if matches!(sc.fault.fault, Some((StepFault::Stall, _, _))) {
        // A stall only resolves via the watchdog; keep that quick.
        opts.watchdog = Duration::from_millis(300);
    }
    opts.chaos = Some(Arc::new(sc.fault.clone()));
    let plan = plan_for(&opts).expect("generated scenarios lower cleanly");
    let specs: Vec<StepSpec> = (0..sc.steps).map(|s| sc.optimizer.spec_at(s)).collect();

    pipefisher_trace::set_enabled(false);
    let _ = pipefisher_trace::drain(); // discard any prior run's leftovers
    pipefisher_trace::set_enabled(true);
    let (mut trainer, model) = setup(&sc.config(), sc.data_seed);
    let run = trainer.run_pipelined(model, &sc.optimizer.choice(), sc.steps, &opts);
    pipefisher_trace::set_enabled(false);
    let events = extract_events(&pipefisher_trace::drain());

    let result = run.map(|outcome| {
        let loss_bits = outcome.run.losses.iter().map(|l| l.to_bits()).collect();
        let mut model = outcome.model;
        (loss_bits, param_bits(&mut model))
    });
    Execution {
        plan,
        specs,
        events,
        result,
    }
}

/// Runs the scenario's pipelined training under tracing and returns the
/// plan, events, and result. Takes the process-global harness lock.
pub fn execute(sc: &Scenario) -> Execution {
    let _gate = harness_lock();
    execute_inner(sc)
}

/// A cached oracle trajectory: `(loss bits, final parameter bits)`.
type OracleBits = Arc<(Vec<u64>, Vec<u64>)>;

/// Cache of serial-oracle trajectories keyed by everything that determines
/// them (model shape, optimizer, steps, micro-batches, data seed), so a
/// soak run re-trains each oracle once, not per scenario.
#[derive(Default)]
pub struct OracleCache {
    map: HashMap<String, OracleBits>,
}

impl OracleCache {
    fn get_or_run(&mut self, sc: &Scenario) -> OracleBits {
        let key = format!(
            "{:?}|{}|{}|{}|{}",
            sc.config(),
            sc.optimizer.key(),
            sc.steps,
            sc.n_micro,
            sc.data_seed
        );
        if let Some(hit) = self.map.get(&key) {
            return Arc::clone(hit);
        }
        let (mut trainer, mut model) = setup(&sc.config(), sc.data_seed);
        let run = trainer.run_with_options(
            &mut model,
            &sc.optimizer.choice(),
            sc.steps,
            &TrainOptions {
                accumulation_steps: sc.n_micro,
                grad_delay: 0,
            },
        );
        let loss_bits = run.losses.iter().map(|l| l.to_bits()).collect();
        let oracle = Arc::new((loss_bits, param_bits(&mut model)));
        self.map.insert(key, Arc::clone(&oracle));
        oracle
    }

    /// Distinct oracles trained so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no oracle has been trained yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// How a checked scenario ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioOutcome {
    /// No fault was scheduled; the run completed, conformed to its plan,
    /// and matched the serial oracle bitwise.
    Clean {
        /// Events the conformance checker validated.
        events_checked: usize,
    },
    /// A scheduled panic/stall fired and was reported correctly.
    Faulted {
        /// The executor error, as displayed.
        error: String,
    },
    /// A kill-and-resume exercise: the run was killed mid-flight, resumed
    /// from its newest checkpoint, and finished bitwise-identical to the
    /// serial oracle.
    Resumed {
        /// The step the resumed run restarted at (== steps completed
        /// before the kill).
        resumed_at: usize,
    },
}

/// A scenario that violated its contract. The message always embeds the
/// reproducing seed.
#[derive(Debug, Clone)]
pub struct ScenarioFailure {
    /// Seed that deterministically replays the failure.
    pub seed: u64,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scenario seed {} failed (replay: Scenario::from_seed({})): {}",
            self.seed, self.seed, self.message
        )
    }
}

impl std::error::Error for ScenarioFailure {}

/// Kill-and-resume execution: trains with per-step checkpointing, kills the
/// run with an injected panic at the start of step `cf.kill_after`, resumes
/// from the newest checkpoint into a fresh trainer/model, and returns the
/// resumed run's `(loss bits, final parameter bits)` — which the caller
/// compares against the serial oracle's tail.
///
/// Timing perturbations from the scenario's fault plan stay active in both
/// halves (they are bitwise-safe by contract), so resume correctness is
/// exercised under schedule skew too.
fn execute_resume_inner(
    sc: &Scenario,
    cf: &CheckpointFault,
) -> Result<(Vec<u64>, Vec<u64>), String> {
    let dir = std::env::temp_dir().join(format!(
        "pipefisher-chaos-ckpt-{}-{}",
        std::process::id(),
        sc.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let result = (|| {
        // Phase 1: checkpoint every step, die at the start of `kill_after`.
        let mut opts = PipelineOptions::new(sc.scheme, sc.n_stages, sc.n_micro);
        opts.fill_bubbles = sc.fill_bubbles;
        opts.checkpoint = Some(CheckpointPolicy {
            dir: dir.clone(),
            every: 1,
            retain: 2,
        });
        let mut kill = sc.fault.clone();
        kill.fault = Some((StepFault::Panic, cf.device, cf.kill_after));
        opts.chaos = Some(Arc::new(kill));
        let (mut trainer, model) = setup(&sc.config(), sc.data_seed);
        let err = match trainer.run_pipelined(model, &sc.optimizer.choice(), sc.steps, &opts) {
            Err(e) => e,
            Ok(_) => return Err("injected kill never fired".to_string()),
        };
        if !matches!(err.fault, ExecFault::StagePanic { .. }) {
            return Err(format!("kill surfaced as the wrong error: {err}"));
        }
        if err.completed_steps != cf.kill_after {
            return Err(format!(
                "kill at step {} reported {} completed steps",
                cf.kill_after, err.completed_steps
            ));
        }

        // Phase 2: fresh everything, resume from the newest checkpoint.
        let mut opts = PipelineOptions::new(sc.scheme, sc.n_stages, sc.n_micro);
        opts.fill_bubbles = sc.fill_bubbles;
        let mut quiet = sc.fault.clone();
        quiet.fault = None;
        opts.chaos = Some(Arc::new(quiet));
        opts.resume = Some(ResumeFrom::Latest(dir.clone()));
        let (mut trainer, model) = setup(&sc.config(), sc.data_seed);
        let outcome = trainer
            .run_pipelined(model, &sc.optimizer.choice(), sc.steps, &opts)
            .map_err(|e| format!("resumed run aborted: {e}"))?;
        let want_losses = sc.steps - cf.kill_after;
        if outcome.run.losses.len() != want_losses {
            return Err(format!(
                "resumed run recorded {} losses, expected {want_losses}",
                outcome.run.losses.len()
            ));
        }
        let loss_bits = outcome.run.losses.iter().map(|l| l.to_bits()).collect();
        let mut model = outcome.model;
        Ok((loss_bits, param_bits(&mut model)))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Executes `sc` and checks every applicable contract. See module docs for
/// what "pass" means for faulty vs fault-free scenarios.
///
/// # Errors
///
/// [`ScenarioFailure`] (seed included) when the run violates its contract:
/// wrong/missing fault surfacing, a conformance violation, or any bitwise
/// divergence from the serial oracle.
pub fn run_scenario(
    sc: &Scenario,
    cache: &mut OracleCache,
) -> Result<ScenarioOutcome, ScenarioFailure> {
    let _gate = harness_lock();
    let fail = |message: String| ScenarioFailure {
        seed: sc.seed,
        message: format!("[{}] {message}", sc.describe()),
    };
    if let Some(cf) = sc.fault.checkpoint {
        let (loss_bits, bits) = execute_resume_inner(sc, &cf).map_err(&fail)?;
        let oracle = cache.get_or_run(sc);
        if loss_bits[..] != oracle.0[cf.kill_after..] {
            return Err(fail(format!(
                "resumed losses (steps {}..{}) diverged bitwise from the serial oracle",
                cf.kill_after, sc.steps
            )));
        }
        if bits != oracle.1 {
            return Err(fail(
                "resumed final parameters diverged bitwise from the serial oracle".to_string(),
            ));
        }
        return Ok(ScenarioOutcome::Resumed {
            resumed_at: cf.kill_after,
        });
    }
    let ex = execute_inner(sc);
    match (sc.fault.fault, ex.result) {
        (Some((kind, device, step)), Err(e)) => match (kind, &e.fault) {
            (StepFault::Panic, &ExecFault::StagePanic { device: got, .. }) => {
                if got != device {
                    return Err(fail(format!(
                        "injected panic on device {device} was attributed to device {got}"
                    )));
                }
                Ok(ScenarioOutcome::Faulted {
                    error: format!("StagePanic on device {got}"),
                })
            }
            (StepFault::Stall, ExecFault::Wedged { .. }) => Ok(ScenarioOutcome::Faulted {
                error: e.to_string(),
            }),
            _ => Err(fail(format!(
                "injected {kind:?} on device {device} at step {step} surfaced as the wrong \
                 error: {e}"
            ))),
        },
        (Some((kind, device, step)), Ok(_)) => Err(fail(format!(
            "injected {kind:?} on device {device} at step {step} never fired"
        ))),
        (None, Err(e)) => Err(fail(format!("fault-free run aborted: {e}"))),
        (None, Ok((loss_bits, bits))) => {
            let events_checked = check_conformance(&ex.plan, &ex.specs, &ex.events)
                .map_err(|e| fail(format!("conformance: {e}")))?;
            let oracle = cache.get_or_run(sc);
            if loss_bits != oracle.0 {
                return Err(fail(
                    "loss trajectory diverged bitwise from the serial oracle".to_string(),
                ));
            }
            if bits != oracle.1 {
                return Err(fail(
                    "final parameters diverged bitwise from the serial oracle".to_string(),
                ));
            }
            Ok(ScenarioOutcome::Clean { events_checked })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_and_well_shaped() {
        for seed in 0..512u64 {
            let a = Scenario::from_seed(seed);
            let b = Scenario::from_seed(seed);
            assert_eq!(a.describe(), b.describe(), "seed {seed}");
            assert_eq!(a.fault, b.fault, "seed {seed}");
            assert!(a.n_stages >= 1 && a.n_micro >= 2 && a.steps >= 3);
            if a.scheme == PipelineScheme::Chimera {
                assert!(
                    a.n_stages.is_multiple_of(2) && a.n_micro.is_multiple_of(2),
                    "seed {seed}: Chimera drawn with odd shape"
                );
            }
            if let Some((_, dev, step)) = a.fault.fault {
                assert!(dev < a.n_stages && step < a.steps, "seed {seed}");
            }
        }
    }

    #[test]
    fn seed_space_covers_every_axis() {
        let mut lamb = false;
        let (mut d4, mut chimera, mut fatal, mut unfilled) = (false, false, false, false);
        for seed in 0..256u64 {
            let sc = Scenario::from_seed(seed);
            lamb |= sc.optimizer == OptimizerKind::Lamb;
            d4 |= sc.n_stages == 4;
            chimera |= sc.scheme == PipelineScheme::Chimera;
            fatal |= sc.fault.is_fatal();
            unfilled |= !sc.fill_bubbles;
        }
        assert!(lamb && d4 && chimera && fatal && unfilled);
    }
}
