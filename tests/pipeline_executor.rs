//! Pipeline-executor equivalence and robustness tests.
//!
//! The executor's core claim (DESIGN.md §3.13): running the step on `D`
//! stage worker threads — under any scheme, with bubbles filled by K-FAC
//! work — produces a **bitwise identical** loss trajectory and final model
//! to the serial `Trainer` loop. These tests check that claim for
//! D ∈ {1, 2, 3, 4} × {GPipe, 1F1B, Chimera} (stages that own no block
//! included), and that a
//! panicking or wedged stage aborts the run with a clear error instead of
//! deadlocking.

use pipefisher::core::PlanOp;
use pipefisher::harness::FaultPlan;
use pipefisher::lm::{
    plan_for, BatchSampler, ExecError, ExecFault, OptimizerChoice, PipelineOptions, StepMetrics,
    SyntheticLanguage, Trainer,
};
use pipefisher::nn::{BertConfig, BertForPreTraining, ForwardCtx};
use pipefisher::optim::{Kfac, KfacConfig, Lamb, LrSchedule, Optimizer};
use pipefisher::pipeline::PipelineScheme;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Runs the tests one at a time: each spawns its own stage threads, and the
/// watchdog tests time stage skew that another test's run would distort.
fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn setup(config: &BertConfig, seed: u64) -> (Trainer, BertForPreTraining) {
    let lang = SyntheticLanguage::new(config.vocab_size, 2, 4, 11);
    let sampler = BatchSampler::new(lang, config.max_seq);
    let trainer = Trainer::new(sampler, 8, LrSchedule::Constant(5e-3), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let model = BertForPreTraining::new(config.clone(), 0.0, &mut rng);
    (trainer, model)
}

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

/// One step's metric columns that every engine must reproduce bit for bit:
/// all but the timings and the allocation counts.
fn metric_bits(m: &StepMetrics) -> [u64; 9] {
    [
        m.step as u64,
        m.loss.to_bits(),
        m.grad_norm.to_bits(),
        m.lr.to_bits(),
        u64::from(m.curvature_refreshed),
        m.curvature_refreshes,
        m.inversions,
        m.damping_escalations,
        m.inversion_failures,
    ]
}

/// Loss bits, final parameter bits and per-step metric columns of a run.
type RunBits = (Vec<u64>, Vec<u64>, Vec<[u64; 9]>);

/// Serial baseline: the reference trajectory every pipelined configuration
/// must reproduce bit for bit.
fn serial_reference(
    config: &BertConfig,
    choice: &OptimizerChoice,
    steps: usize,
    n_micro: usize,
) -> RunBits {
    let (mut trainer, mut model) = setup(config, 7);
    let run = trainer.run_with_options(
        &mut model,
        choice,
        steps,
        &pipefisher::lm::TrainOptions {
            accumulation_steps: n_micro,
            grad_delay: 0,
        },
    );
    let loss_bits = run.losses.iter().map(|l| l.to_bits()).collect();
    let metrics = run.metrics.iter().map(metric_bits).collect();
    (loss_bits, param_bits(&mut model), metrics)
}

fn pipelined_bits(
    config: &BertConfig,
    choice: &OptimizerChoice,
    steps: usize,
    opts: &PipelineOptions,
) -> RunBits {
    let (mut trainer, model) = setup(config, 7);
    let outcome = trainer
        .run_pipelined(model, choice, steps, opts)
        .unwrap_or_else(|e| panic!("pipelined run failed ({} stages): {e}", opts.n_stages));
    let loss_bits = outcome.run.losses.iter().map(|l| l.to_bits()).collect();
    let metrics = outcome.run.metrics.iter().map(metric_bits).collect();
    let mut model = outcome.model;
    (loss_bits, param_bits(&mut model), metrics)
}

/// The oracle both engines share a driver against: a deliberately naive
/// loop spelled out from public `nn`/`optim` calls only (sample → zero →
/// N × `train_step` → scale to the mean → `Kfac::step` or LAMB per
/// parameter), keeping its own cadence arithmetic. Mirrors `setup`'s seeds,
/// batch size and learning rate; returns what `serial_reference` returns.
fn naive_reference_loop(
    config: &BertConfig,
    choice: &OptimizerChoice,
    steps: usize,
    n_micro: usize,
) -> (Vec<u64>, Vec<u64>) {
    let lang = SyntheticLanguage::new(config.vocab_size, 2, 4, 11);
    let sampler = BatchSampler::new(lang, config.max_seq);
    let mut data_rng = StdRng::seed_from_u64(7);
    let mut model = BertForPreTraining::new(config.clone(), 0.0, &mut StdRng::seed_from_u64(7));
    let mut lamb = Lamb::new(0.01);
    let mut kfac = match choice {
        OptimizerChoice::Kfac { kfac, .. } => Some(Kfac::new(kfac.clone(), Lamb::new(0.01))),
        OptimizerChoice::Lamb { .. } => None,
    };
    let (lr, scale) = (5e-3, 1.0 / n_micro as f64);
    let mut loss_bits = Vec::new();
    for step in 0..steps {
        model.zero_grad();
        let capture = kfac
            .as_ref()
            .is_some_and(|k| step % k.config().curvature_interval == 0);
        let mut total = 0.0;
        for mb in 0..n_micro {
            let batch = sampler.sample(8, &mut data_rng);
            let ctx = if capture && mb == n_micro - 1 {
                ForwardCtx::train_with_capture()
            } else {
                ForwardCtx::train()
            };
            total += model.train_step(&batch, &ctx).total_loss;
        }
        loss_bits.push((total * scale).to_bits());
        model.visit_params(&mut |p| p.grad.scale_inplace(scale));
        match &mut kfac {
            Some(kfac) => kfac.step(&mut model, lr),
            None => {
                lamb.begin_step();
                model.visit_params(&mut |p| lamb.step_param(p, lr));
            }
        }
    }
    (loss_bits, param_bits(&mut model))
}

fn schemes_for(d: usize) -> Vec<PipelineScheme> {
    let mut schemes = vec![PipelineScheme::GPipe, PipelineScheme::OneFOneB];
    if d.is_multiple_of(2) {
        schemes.push(PipelineScheme::Chimera);
    }
    schemes
}

/// The inline and the staged engine run under one step driver, so their
/// agreement alone no longer pins the loop; both must also reproduce the
/// naive reference bit for bit — LAMB and K-FAC, over 7 steps that cross
/// curvature (every 2) and inversion (every 3) boundaries.
#[test]
fn both_engines_match_the_naive_reference_loop_bitwise() {
    let _gate = test_lock();
    let (steps, n_micro) = (7, 4);
    let config = BertConfig::tiny(36, 16);
    for choice in [OptimizerChoice::Lamb { weight_decay: 0.01 }, kfac_choice()] {
        let oracle = naive_reference_loop(&config, &choice, steps, n_micro);
        let inline = serial_reference(&config, &choice, steps, n_micro);
        assert_eq!(inline.0, oracle.0, "run_with_options losses: {choice:?}");
        assert_eq!(
            inline.1, oracle.1,
            "run_with_options parameters: {choice:?}"
        );
        for d in [1usize, 2] {
            let opts = PipelineOptions::new(PipelineScheme::OneFOneB, d, n_micro);
            let staged = pipelined_bits(&config, &choice, steps, &opts);
            assert_eq!(staged.0, oracle.0, "run_pipelined D={d} losses: {choice:?}");
            assert_eq!(
                staged.1, oracle.1,
                "run_pipelined D={d} parameters: {choice:?}"
            );
            assert_eq!(
                staged.2, inline.2,
                "run_pipelined D={d} metrics: {choice:?}"
            );
        }
    }
}

#[test]
fn pipelined_kfac_matches_serial_trainer_bitwise() {
    let _gate = test_lock();
    let (steps, n_micro) = (7, 4);
    let choice = kfac_choice();
    for (config, stage_counts) in [
        // D = 3 and 4 exceed the tiny model's two blocks: a stage that owns
        // no K-FAC layer is lent no state and runs its units as no-ops.
        (BertConfig::tiny(36, 16), vec![1usize, 2, 3, 4]),
        (BertConfig::mini(36, 16), vec![4]),
    ] {
        let reference = serial_reference(&config, &choice, steps, n_micro);
        for &d in &stage_counts {
            let empty_stages = d > config.n_layers;
            for scheme in schemes_for(d) {
                // Filling off is `unfilled_bubbles_produce_identical_results`
                // at D = 2; here it matters where a stage's units are empty.
                for fill in [true, false] {
                    if !fill && !empty_stages {
                        continue;
                    }
                    let mut opts = PipelineOptions::new(scheme, d, n_micro);
                    opts.fill_bubbles = fill;
                    let got = pipelined_bits(&config, &choice, steps, &opts);
                    assert_eq!(
                        got.0,
                        reference.0,
                        "loss trajectory diverged: {} D={d} fill={fill}",
                        scheme.name()
                    );
                    assert_eq!(
                        got.1,
                        reference.1,
                        "final parameters diverged: {} D={d} fill={fill}",
                        scheme.name()
                    );
                    assert_eq!(
                        got.2,
                        reference.2,
                        "metric columns diverged: {} D={d} fill={fill}",
                        scheme.name()
                    );
                }
            }
        }
    }
}

#[test]
fn pipelined_lamb_matches_serial_trainer_bitwise() {
    let _gate = test_lock();
    let (steps, n_micro) = (5, 4);
    let config = BertConfig::tiny(36, 16);
    let choice = OptimizerChoice::Lamb { weight_decay: 0.01 };
    let reference = serial_reference(&config, &choice, steps, n_micro);
    for d in [1usize, 2, 4] {
        for scheme in schemes_for(d) {
            let opts = PipelineOptions::new(scheme, d, n_micro);
            let got = pipelined_bits(&config, &choice, steps, &opts);
            assert_eq!(
                got.0,
                reference.0,
                "loss trajectory diverged: {} D={d}",
                scheme.name()
            );
            assert_eq!(
                got.1,
                reference.1,
                "final parameters diverged: {} D={d}",
                scheme.name()
            );
            assert_eq!(
                got.2,
                reference.2,
                "metric columns diverged: {} D={d}",
                scheme.name()
            );
        }
    }
}

/// Bubble-filling off must not change the math — only when the K-FAC work
/// runs within the step.
#[test]
fn unfilled_bubbles_produce_identical_results() {
    let _gate = test_lock();
    let (steps, n_micro) = (7, 4);
    let config = BertConfig::tiny(36, 16);
    let choice = kfac_choice();
    let mut filled = PipelineOptions::new(PipelineScheme::OneFOneB, 2, n_micro);
    filled.fill_bubbles = true;
    let mut unfilled = filled.clone();
    unfilled.fill_bubbles = false;
    let a = pipelined_bits(&config, &choice, steps, &filled);
    let b = pipelined_bits(&config, &choice, steps, &unfilled);
    assert_eq!(a.0, b.0, "losses depend on bubble filling");
    assert_eq!(a.1, b.1, "parameters depend on bubble filling");
}

/// `bubble_aux_ms` is K-FAC work placed before a device's last pipeline op;
/// work placed after it is `tail_aux_ms` only. With filling off every unit
/// is tail work, so the bubble counter must read exactly zero.
#[test]
fn unfilled_run_books_all_kfac_work_as_tail() {
    let _gate = test_lock();
    let (steps, n_micro) = (4, 4);
    let config = BertConfig::tiny(36, 16);
    let mut opts = PipelineOptions::new(PipelineScheme::OneFOneB, 2, n_micro);
    opts.fill_bubbles = false;
    let (mut trainer, model) = setup(&config, 7);
    let outcome = trainer
        .run_pipelined(model, &kfac_choice(), steps, &opts)
        .expect("pipelined run");
    assert_eq!(outcome.bubble_aux_ms, 0.0);
    assert!(outcome.tail_aux_ms > 0.0);
}

/// The owners' precondition and update time is booked: no bubble, idle
/// or tail term counts it, and the coordinator's own optimizer step only
/// moves counters.
#[test]
fn pipelined_kfac_books_the_owners_time() {
    let _gate = test_lock();
    let config = BertConfig::tiny(36, 16);
    let opts = PipelineOptions::new(PipelineScheme::OneFOneB, 2, 4);
    let (mut trainer, model) = setup(&config, 7);
    let outcome = trainer
        .run_pipelined(model, &kfac_choice(), 3, &opts)
        .expect("pipelined run");
    assert!(outcome.owner_ms > 0.0, "owner_ms {}", outcome.owner_ms);
}

/// Each stage's owner preconditions and updates it itself, and the trace
/// shows it: exactly one `precondition` and one `update` span per owner
/// and step, carrying its step, device and stage. The trace sink is
/// process-wide; the test lock keeps every other run here out of it.
#[test]
fn traced_run_shows_each_owners_precondition_and_update() {
    let _gate = test_lock();
    let steps = 3;
    let config = BertConfig::tiny(36, 16);
    let opts = PipelineOptions::new(PipelineScheme::OneFOneB, 2, 4);
    let owners = plan_for(&opts).expect("plan").capture_host;
    let (mut trainer, model) = setup(&config, 7);
    pipefisher::trace::drain();
    pipefisher::trace::set_enabled(true);
    let outcome = trainer.run_pipelined(model, &kfac_choice(), steps, &opts);
    pipefisher::trace::set_enabled(false);
    let events = pipefisher::trace::drain();
    outcome.expect("pipelined run");
    let mut want: Vec<[i64; 3]> = (0..steps as i64)
        .flat_map(|step| (0..owners.len()).map(move |stage| (step, stage)))
        .map(|(step, stage)| [step, owners[stage] as i64, stage as i64])
        .collect();
    want.sort_unstable();
    for name in ["precondition", "update"] {
        let mut seen: Vec<[i64; 3]> = events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| {
                ["step", "device", "stage"].map(|key| {
                    let arg = e.args.iter().find(|(k, _)| k == key);
                    arg.and_then(|(_, v)| v.as_i64())
                        .expect("a span coordinate")
                })
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, want, "one {name} span per owner and step");
    }
}

/// Every-step inversion at factor sizes that straddle the blocked
/// factorization engine's 64-wide panels (d_model = 64 ⇒ bias-augmented
/// A-factor 65; d_ff = 128 ⇒ A-factor 129): the blocked potrf + potri
/// inversion running as bubble-filled Invert work inside pipeline steps
/// must stay bitwise-identical to the serial loop.
#[test]
fn blocked_inversion_in_bubbles_matches_serial_bitwise() {
    let _gate = test_lock();
    let (steps, n_micro) = (4, 4);
    let config = BertConfig {
        vocab_size: 36,
        max_seq: 16,
        d_model: 64,
        d_ff: 128,
        n_heads: 4,
        n_layers: 2,
    };
    let choice = OptimizerChoice::Kfac {
        weight_decay: 0.01,
        kfac: KfacConfig {
            damping: 3e-2,
            ema_decay: 0.5,
            curvature_interval: 1,
            inversion_interval: 1,
            kl_clip: Some(1e-2),
            factor_block_size: None,
        },
    };
    let reference = serial_reference(&config, &choice, steps, n_micro);
    for scheme in schemes_for(2) {
        let mut opts = PipelineOptions::new(scheme, 2, n_micro);
        opts.fill_bubbles = true;
        let got = pipelined_bits(&config, &choice, steps, &opts);
        assert_eq!(
            got.0,
            reference.0,
            "loss trajectory diverged: {}",
            scheme.name()
        );
        assert_eq!(
            got.1,
            reference.1,
            "final parameters diverged: {}",
            scheme.name()
        );
        assert_eq!(
            got.2,
            reference.2,
            "metric columns diverged: {}",
            scheme.name()
        );
    }
}

/// Chaos hook delaying chosen `(device, op index)` entries of step 0.
#[derive(Debug)]
struct SlowOps(Vec<(usize, usize)>, Duration);

impl pipefisher::lm::ChaosHook for SlowOps {
    fn op_delay(&self, device: usize, step: usize, op_index: usize) -> Option<Duration> {
        (step == 0 && self.0.contains(&(device, op_index))).then_some(self.1)
    }
}

/// Under Chimera each stage has two hosts, and the one that is not the
/// stage's owner (its capture host) ships every gradient contribution to
/// it. Holding each owner at its first backward of its own stage lets the
/// other host's contributions pile up in the owner's inbox and arrive out
/// of their micro-batch order; the owner must still add them in order
/// 0..N−1 — bitwise the serial result — without tripping the watchdog.
#[test]
fn chimera_contributions_that_arrive_early_wait_their_turn() {
    let _gate = test_lock();
    let (steps, n_micro) = (3, 8);
    let config = BertConfig::mini(36, 16);
    let choice = kfac_choice();
    let reference = serial_reference(&config, &choice, steps, n_micro);
    let mut opts = PipelineOptions::new(PipelineScheme::Chimera, 4, n_micro);
    let plan = plan_for(&opts).expect("plan");
    let first_own_backward = |dev: usize| {
        plan.devices[dev].ops.iter().position(
            |op| matches!(*op, PlanOp::Backward { stage, .. } if plan.capture_host[stage] == dev),
        )
    };
    let held = (0..4)
        .map(|dev| {
            (
                dev,
                first_own_backward(dev).expect("an owner runs backwards"),
            )
        })
        .collect();
    opts.chaos = Some(Arc::new(SlowOps(held, Duration::from_millis(150))));
    opts.watchdog = Duration::from_secs(5);
    let got = pipelined_bits(&config, &choice, steps, &opts);
    assert_eq!(got.0, reference.0, "losses diverged");
    assert_eq!(got.1, reference.1, "parameters diverged");
    assert_eq!(got.2, reference.2, "metric columns diverged");
}

#[test]
fn injected_panic_aborts_with_stage_panic_error() {
    let _gate = test_lock();
    let config = BertConfig::tiny(36, 16);
    let (mut trainer, model) = setup(&config, 3);
    let mut opts = PipelineOptions::new(PipelineScheme::GPipe, 2, 4);
    opts.chaos = Some(Arc::new(FaultPlan::panic_at(1, 1)));
    opts.watchdog = Duration::from_secs(10);
    let err = trainer
        .run_pipelined(model, &kfac_choice(), 4, &opts)
        .expect_err("injected panic must abort the run");
    assert_eq!(
        err.completed_steps, 1,
        "fault at step 1 means exactly one step completed"
    );
    match err {
        ExecError {
            fault: ExecFault::StagePanic { device, message },
            ..
        } => {
            assert_eq!(device, 1, "fault attributed to the wrong device");
            assert!(
                message.contains("injected fault"),
                "panic payload lost: {message}"
            );
        }
        other => panic!("expected StagePanic, got: {other}"),
    }
}

/// Chaos hook injecting one long delay into device 1's first op of step 0:
/// slow-stage skew without any schedule change.
#[derive(Debug)]
struct SlowFirstOp(Duration);

impl pipefisher::lm::ChaosHook for SlowFirstOp {
    fn op_delay(&self, device: usize, step: usize, op_index: usize) -> Option<Duration> {
        (device == 1 && step == 0 && op_index == 0).then_some(self.0)
    }
}

/// Direction 1: a watchdog raised above the injected skew lets the run
/// complete, and the skew changes nothing bitwise.
#[test]
fn raised_watchdog_tolerates_slow_stage_skew() {
    let _gate = test_lock();
    let (steps, n_micro) = (2, 2);
    let config = BertConfig::tiny(36, 16);
    let choice = OptimizerChoice::Lamb { weight_decay: 0.01 };
    let reference = serial_reference(&config, &choice, steps, n_micro);
    let mut opts = PipelineOptions::new(PipelineScheme::GPipe, 2, n_micro);
    opts.chaos = Some(Arc::new(SlowFirstOp(Duration::from_millis(400))));
    opts.watchdog = Duration::from_secs(10);
    let got = pipelined_bits(&config, &choice, steps, &opts);
    assert_eq!(got.0, reference.0, "skewed losses diverged");
    assert_eq!(got.1, reference.1, "skewed parameters diverged");
}

/// Direction 2: the same skew with a watchdog below it aborts as Wedged
/// instead of hanging.
#[test]
fn lowered_watchdog_trips_on_slow_stage_skew() {
    let _gate = test_lock();
    let config = BertConfig::tiny(36, 16);
    let (mut trainer, model) = setup(&config, 5);
    let mut opts = PipelineOptions::new(PipelineScheme::GPipe, 2, 2);
    opts.chaos = Some(Arc::new(SlowFirstOp(Duration::from_secs(2))));
    opts.watchdog = Duration::from_millis(100);
    let err = trainer
        .run_pipelined(
            model,
            &OptimizerChoice::Lamb { weight_decay: 0.01 },
            1,
            &opts,
        )
        .expect_err("skew beyond the watchdog must abort");
    assert!(
        matches!(err.fault, ExecFault::Wedged { .. }),
        "expected Wedged, got: {err}"
    );
}

#[test]
fn wedged_stage_trips_the_watchdog() {
    let _gate = test_lock();
    let config = BertConfig::tiny(36, 16);
    let (mut trainer, model) = setup(&config, 4);
    let mut opts = PipelineOptions::new(PipelineScheme::GPipe, 2, 4);
    opts.chaos = Some(Arc::new(FaultPlan::stall_at(1, 0)));
    opts.watchdog = Duration::from_millis(250);
    let err = trainer
        .run_pipelined(
            model,
            &OptimizerChoice::Lamb { weight_decay: 0.01 },
            2,
            &opts,
        )
        .expect_err("a wedged stage must abort the run");
    assert!(
        matches!(err.fault, ExecFault::Wedged { .. }),
        "expected Wedged, got: {err}"
    );
}

/// Chaos hook that panics one device at one step and notes when it did.
#[derive(Debug)]
struct TimedPanic {
    at: (usize, usize),
    fired: Mutex<Option<Instant>>,
}

impl pipefisher::lm::ChaosHook for TimedPanic {
    fn step_fault(&self, device: usize, step: usize) -> Option<pipefisher::lm::StepFault> {
        ((device, step) == self.at).then(|| {
            *self.fired.lock().unwrap() = Some(Instant::now());
            pipefisher::lm::StepFault::Panic
        })
    }
}

/// Abort is a wake-up, not a timeout: when one stage of four panics, its
/// peers — blocked on pipeline input under a 10 s watchdog — must be woken
/// by the abort itself. Left to their own watchdogs they would take 10 s.
#[test]
fn abort_wakes_blocked_peers_without_waiting_for_their_watchdog() {
    let _gate = test_lock();
    let config = BertConfig::mini(36, 16);
    let (mut trainer, model) = setup(&config, 3);
    let hook = Arc::new(TimedPanic {
        at: (2, 1),
        fired: Mutex::new(None),
    });
    let mut opts = PipelineOptions::new(PipelineScheme::GPipe, 4, 4);
    opts.chaos = Some(hook.clone());
    opts.watchdog = Duration::from_secs(10);
    let err = trainer
        .run_pipelined(model, &kfac_choice(), 4, &opts)
        .expect_err("injected panic must abort the run");
    let took = hook.fired.lock().unwrap().expect("fault fired").elapsed();
    assert_eq!(err.completed_steps, 1);
    assert!(
        matches!(err.fault, ExecFault::StagePanic { device: 2, .. }),
        "expected StagePanic on device 2, got: {err}"
    );
    assert!(
        took < Duration::from_secs(2),
        "the run outlived the panic by {took:?}: a peer sat out its watchdog"
    );
}

/// Only the coordinator can see a lone wedge: with one device there is no
/// peer whose wait could time out, so the coordinator's own watchdog must
/// notice that nothing progresses.
#[test]
fn coordinator_watchdog_sees_a_lone_wedged_stage() {
    let _gate = test_lock();
    let config = BertConfig::tiny(36, 16);
    let (mut trainer, model) = setup(&config, 4);
    let mut opts = PipelineOptions::new(PipelineScheme::GPipe, 1, 4);
    opts.chaos = Some(Arc::new(FaultPlan::stall_at(0, 0)));
    opts.watchdog = Duration::from_millis(250);
    let err = trainer
        .run_pipelined(
            model,
            &OptimizerChoice::Lamb { weight_decay: 0.01 },
            2,
            &opts,
        )
        .expect_err("a wedged lone stage must abort the run");
    assert!(
        matches!(err.fault, ExecFault::Wedged { .. }),
        "expected Wedged, got: {err}"
    );
}

/// Chaos hook delaying every op of every device by the same amount.
#[derive(Debug)]
struct SlowEveryOp(Duration);

impl pipefisher::lm::ChaosHook for SlowEveryOp {
    fn op_delay(&self, _device: usize, _step: usize, _op_index: usize) -> Option<Duration> {
        Some(self.0)
    }
}

/// Progress, not reports, feeds the coordinator's watchdog: eight
/// forwards and backwards delayed ≥ 60 ms each make the step (and the wait
/// for its one report) at least 480 ms long under a 150 ms watchdog, yet
/// every op is progress, so the run must complete — and the delays change
/// nothing bitwise.
#[test]
fn healthy_step_longer_than_the_watchdog_does_not_trip() {
    let _gate = test_lock();
    let (steps, n_micro) = (1, 4);
    let config = BertConfig::tiny(36, 16);
    let choice = OptimizerChoice::Lamb { weight_decay: 0.01 };
    let reference = serial_reference(&config, &choice, steps, n_micro);
    let mut opts = PipelineOptions::new(PipelineScheme::GPipe, 1, n_micro);
    opts.chaos = Some(Arc::new(SlowEveryOp(Duration::from_millis(60))));
    opts.watchdog = Duration::from_millis(150);
    let got = pipelined_bits(&config, &choice, steps, &opts);
    assert_eq!(got.0, reference.0, "delayed losses diverged");
    assert_eq!(got.1, reference.1, "delayed parameters diverged");
}
