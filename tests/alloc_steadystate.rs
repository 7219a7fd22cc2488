//! Allocation-regression gate: after warm-up, the kernel hot path performs
//! **zero** heap allocations, and so does a steady-state K-FAC step over a
//! stack of linear layers, captures included (the comparison against the
//! pre-arena tree lives in `BENCH_alloc.json`). The pipeline executor adds only its messages to
//! that: under GPipe, 1F1B and Chimera a steady-state step stays within a
//! fixed per-step budget over the serial loop's (≤ +12 for GPipe and 1F1B,
//! whose owners reuse every gradient contribution set; ≤ +60 for Chimera,
//! whose shipping hosts allocate theirs), under Chimera a slow host does
//! not make the live heap grow, and back-to-back pipelined runs in one
//! process leave it where the first left it.
//!
//! Requires the `alloc-count` feature (which installs the counting global
//! allocator from `pipefisher-trace`); the whole file compiles away without
//! it so plain `cargo test` is unaffected. Every kernel runs on the
//! calling thread.

#![cfg(feature = "alloc-count")]

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use pipefisher::lm::{
    BatchSampler, ChaosHook, OptimizerChoice, PipelineOptions, StepFault, StepMetrics,
    SyntheticLanguage, TrainOptions, Trainer,
};
use pipefisher::nn::{
    cross_entropy_backward, BertConfig, BertForPreTraining, ForwardCtx, Layer, Linear,
    ParamVisitor, Tape,
};
use pipefisher::optim::{Kfac, KfacConfig, KfacModel, Lamb, Optimizer};
use pipefisher::pipeline::PipelineScheme;
use pipefisher::tensor::{cholesky_inverse_into, init, workspace, Matrix};
use pipefisher::trace::{alloc_live_bytes, alloc_snapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Serializes the tests in this binary: the allocation counters and the
/// workspace mode are process-wide, so a concurrently running test would
/// pollute the deltas. Turns the workspace back on when dropped.
struct Gate(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Gate {
    fn acquire() -> Self {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        Gate(guard)
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        workspace::set_enabled(true);
    }
}

/// The caller-owned outputs every [`kernel_pass`] reuses.
#[derive(Default)]
struct KernelOutputs {
    mm: Matrix,
    tn: Matrix,
    nt: Matrix,
    gram: Matrix,
    inv: Matrix,
    chol: Matrix,
}

/// One pass over every hot-path kernel, reusing caller-owned outputs. The
/// allocating wrappers are included deliberately: with a warmed pool their
/// `Matrix::zeros` outputs are checkout hits and their drops are checkins.
fn kernel_pass(a: &Matrix, b: &Matrix, spd: &Matrix, out: &mut KernelOutputs) {
    a.matmul_into(b, &mut out.mm);
    a.matmul_tn_into(b, &mut out.tn);
    b.matmul_nt_into(a, &mut out.nt);
    a.gram_into(&mut out.gram);
    pipefisher::tensor::cholesky_into(spd, &mut out.chol).expect("spd");
    cholesky_inverse_into(spd, &mut out.inv).expect("spd");
    // Allocating wrappers: pool hit on checkout, checkin on drop.
    let tmp = a.matmul(b);
    drop(tmp);
}

#[test]
fn kernel_hot_path_is_allocation_free_after_warmup() {
    let _gate = Gate::acquire();
    workspace::set_enabled(true);

    let n = 40;
    let mut rng = StdRng::seed_from_u64(7);
    let a = init::normal(n, n, 1.0, &mut rng);
    let b = init::normal(n, n, 1.0, &mut rng);
    let mut spd = Matrix::default();
    a.gram_into(&mut spd); // k×k Gram is symmetric PSD...
    spd.add_diag(1.0); // ...and +I makes it positive definite.
    let mut out = KernelOutputs::default();

    // Warm-up: sizes every buffer, fills the pool for the wrappers'
    // temporaries (including the factorization engine's block scratch).
    for _ in 0..2 {
        kernel_pass(&a, &b, &spd, &mut out);
    }

    let before = alloc_snapshot();
    for _ in 0..5 {
        kernel_pass(&a, &b, &spd, &mut out);
    }
    let delta = alloc_snapshot().since(&before);
    assert_eq!(
        delta.allocs, 0,
        "kernel hot path allocated {} times ({} bytes) after warm-up",
        delta.allocs, delta.bytes
    );
}

/// Runs `steps` K-FAC steps over a small stack of linear layers against a
/// fixed batch and returns the allocation calls performed by the steps
/// *after* the first `warmup` (curvature and inversion refresh every step,
/// so the steady state exercises the full Gram/Cholesky/precondition path).
fn kfac_run_allocs(steps: usize, warmup: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(11);
    let mut layers: Vec<Linear> = (0..4)
        .map(|i| Linear::new(&format!("fc{i}"), 16, 16, &mut rng))
        .collect();
    let x = init::normal(24, 16, 1.0, &mut rng);
    let targets: Vec<i64> = (0..24).map(|i| (i % 16) as i64).collect();
    let mut kfac = Kfac::new(
        KfacConfig {
            curvature_interval: 1,
            inversion_interval: 1,
            ..Default::default()
        },
        Lamb::new(0.01),
    );
    let mut measured = 0u64;
    let mut tape = Tape::new(ForwardCtx::train_with_capture());
    for step in 0..steps {
        let before = alloc_snapshot();
        let mut h = x.clone();
        for lin in layers.iter_mut() {
            lin.zero_grad();
            h = lin.forward(h, &mut tape);
        }
        let mut d = cross_entropy_backward(&h, &targets);
        for lin in layers.iter_mut().rev() {
            d = lin.backward(&d, &mut tape);
        }
        for lin in layers.iter_mut() {
            kfac.step(lin, 0.01);
        }
        if step >= warmup {
            measured += alloc_snapshot().since(&before).allocs;
        }
    }
    measured
}

#[test]
fn kfac_steady_state_is_near_allocation_free() {
    let _gate = Gate::acquire();

    workspace::set_enabled(true);
    let with_pool = kfac_run_allocs(6, 3);
    workspace::clear();

    workspace::set_enabled(false);
    let without_pool = kfac_run_allocs(6, 3);

    // With the arena on, a steady-state step allocates nothing: the
    // captures, folds, inversion, preconditioning and update reuse arena
    // buffers, and `Kfac::precondition` hands its `⟨g, g̃⟩` products to a
    // callback instead of a vector. Any allocation sneaking back into the
    // hot path trips the gate.
    let steady_steps = 3;
    assert_eq!(
        with_pool, 0,
        "steady-state K-FAC step allocates with the workspace on: \
         {with_pool} allocs over {steady_steps} steps"
    );
    // And the zero is the arena's doing: with recycling disabled the same
    // steps allocate their buffers, so the counter does see them (the full
    // pre-change ≥10× comparison lives in BENCH_alloc.json, measured
    // against the pre-refactor tree).
    assert!(
        without_pool > 0,
        "workspace off: {without_pool} allocs over {steady_steps} steady steps; \
         the counter saw no buffer at all"
    );
}

/// The benchmark's replica step loans every layer state out and back each
/// refresh step, inside its timed ledger: once a layer has an entry the
/// round trip moves the state in place and must not touch the heap.
#[test]
fn kfac_state_loan_round_trip_is_allocation_free() {
    let _gate = Gate::acquire();
    let mut rng = StdRng::seed_from_u64(13);
    let mut lin = Linear::new("fc", 16, 16, &mut rng);
    let x = init::normal(24, 16, 1.0, &mut rng);
    let targets: Vec<i64> = (0..24).map(|i| (i % 16) as i64).collect();
    let mut kfac = Kfac::new(KfacConfig::default(), Lamb::new(0.01));
    let mut tape = Tape::new(ForwardCtx::train_with_capture());
    let y = lin.forward(x, &mut tape);
    let _ = lin.backward(&cross_entropy_backward(&y, &targets), &mut tape);
    kfac.step(&mut lin, 0.01);
    assert!(kfac.state("fc").is_some_and(|st| st.ready()));

    let before = alloc_snapshot();
    for _ in 0..5 {
        let state = kfac.take_state("fc");
        kfac.put_state("fc", state);
    }
    let delta = alloc_snapshot().since(&before);
    assert_eq!(delta.allocs, 0, "state loan round trip allocated");
    assert!(kfac.state("fc").is_some_and(|st| st.ready()));
}

/// A plain stack of linear layers driven as one K-FAC model.
struct Stack(Vec<Linear>);

impl KfacModel for Stack {
    fn visit_kfac_linears<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Linear)) {
        for l in self.0.iter_mut() {
            f(l);
        }
    }
    fn visit_all_params(&mut self, f: ParamVisitor<'_>) {
        for l in self.0.iter_mut() {
            l.visit_params(&mut *f);
        }
    }
}

/// Plain gradient descent, `θ ← θ − lr·g`: a base optimizer that keeps
/// no state.
struct Descent;

impl Optimizer for Descent {
    fn begin_step(&mut self) {}

    fn step_param(&mut self, p: &mut pipefisher::nn::Parameter, lr: f64) {
        p.value.axpy(-lr, &p.grad);
    }
}

/// Bytes the first `Kfac::step` over `layers` captured 32→32 linears
/// leaves live, not counting the captured statistics its folds consume.
fn kfac_first_step_retained_bytes(layers: usize) -> i64 {
    let (d, tokens) = (32, 24);
    let mut rng = StdRng::seed_from_u64(17);
    let mut model = Stack(
        (0..layers)
            .map(|i| Linear::new(&format!("fc{i}"), d, d, &mut rng))
            .collect(),
    );
    let x = init::normal(tokens, d, 1.0, &mut rng);
    let targets: Vec<i64> = (0..tokens).map(|i| (i % d) as i64).collect();
    let mut h = x;
    let mut tape = Tape::new(ForwardCtx::train_with_capture());
    for lin in model.0.iter_mut() {
        h = lin.forward(h, &mut tape);
    }
    let mut g = cross_entropy_backward(&h, &targets);
    for lin in model.0.iter_mut().rev() {
        g = lin.backward(&g, &mut tape);
    }
    // Plain descent keeps no per-parameter state, so whatever the step
    // leaves behind is K-FAC's.
    let mut kfac = Kfac::new(KfacConfig::default(), Descent);
    let stats_bytes: usize = model
        .0
        .iter()
        .map(|l| {
            let s = l.kfac_stats();
            let a = s.activations.as_ref().map_or(0, Matrix::len);
            let e = s.errors.as_ref().map_or(0, Matrix::len);
            (a + e) * std::mem::size_of::<f64>()
        })
        .sum();
    let before = alloc_live_bytes() as i64;
    kfac.step(&mut model, 0.01);
    let after = alloc_live_bytes() as i64;
    let consumed = |l: &Linear| {
        let s = l.kfac_stats();
        s.activations.is_none() && s.errors.is_none()
    };
    assert!(model.0.iter().all(consumed), "a fold left its statistics");
    after - before + stats_bytes as i64
}

/// Between steps K-FAC holds its state and nothing else: each added layer
/// grows what the first step leaves live by that layer's two factors and
/// two inverses, plus a fixed allowance for its map entry and name — no
/// per-layer working buffers. Runs with the arena off, so every temporary
/// is a real allocation that must be freed by the step's end.
#[test]
fn kfac_retained_memory_is_its_state() {
    let _gate = Gate::acquire();
    workspace::set_enabled(false);
    let _warm = kfac_first_step_retained_bytes(4);
    let (small, large) = (4, 8);
    let r_small = kfac_first_step_retained_bytes(small);
    let r_large = kfac_first_step_retained_bytes(large);
    let per_layer = (r_large - r_small) / (large - small) as i64;

    // A is (d+1)², B is d², each with its inverse.
    let state_bytes = (2 * 33 * 33 + 2 * 32 * 32) * std::mem::size_of::<f64>() as i64;
    let entry_allowance = 1024;
    assert!(
        per_layer <= state_bytes + entry_allowance,
        "each added K-FAC layer leaves {per_layer} bytes live after the first step; \
         its factors and inverses are {state_bytes} (allowance {entry_allowance} for its \
         map entry and name); {small} layers: {r_small}, {large} layers: {r_large}"
    );
    assert!(
        per_layer >= state_bytes,
        "each added K-FAC layer leaves only {per_layer} bytes live, less than its \
         factors and inverses ({state_bytes}): the measurement lost them"
    );
}

fn tiny_trainer(seed: u64) -> (Trainer, BertForPreTraining) {
    let config = BertConfig::tiny(36, 16);
    let lang = SyntheticLanguage::new(config.vocab_size, 2, 4, 11);
    let sampler = BatchSampler::new(lang, config.max_seq);
    let trainer = Trainer::new(
        sampler,
        8,
        pipefisher::optim::LrSchedule::Constant(5e-3),
        seed,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let model = BertForPreTraining::new(config, 0.0, &mut rng);
    (trainer, model)
}

fn refresh_every_step_kfac() -> OptimizerChoice {
    OptimizerChoice::Kfac {
        weight_decay: 0.01,
        kfac: KfacConfig {
            curvature_interval: 1,
            inversion_interval: 1,
            ..Default::default()
        },
    }
}

fn steady_allocs(rows: &[StepMetrics], warmup: usize) -> u64 {
    rows[warmup..].iter().map(|r| r.allocs).sum()
}

/// The pipeline executor's steady-state allocation cost over the serial
/// trainer is message plumbing only: per device and step one boxed step
/// command and one update out, and one report back (carrying the step's
/// losses, the owned stage's squared sums and `⟨g, g̃⟩`, in vectors the
/// coordinator hands back with the update for the next report), the
/// coordinator's per-step loss buffer, each update's parameter copies, and
/// the blocks the unbounded inboxes grow into. Each stage's owner keeps its
/// model, gradient accumulator and optimizer state for the whole run, and
/// returns every contribution it has added to its stage's spare sets, so a
/// backward swaps a zeroed spare into the model instead of allocating one.
/// Chimera's down pipeline ships its contributions to the stage's owner,
/// which keeps at most one spare per backward of its own, so the shipping
/// host allocates a fresh set per backward, and its owner copies the
/// updated parameters to it. Kernel temporaries and the activation tapes'
/// matrices come from the workers' thread-local workspace arenas. So
/// per-step allocations must stay within a fixed constant of the serial
/// loop's, independent of how many steps run.
#[test]
fn pipeline_executor_steady_state_allocs_are_serial_plus_constant() {
    let _gate = Gate::acquire();
    workspace::set_enabled(true);

    let (steps, n_micro, warmup) = (9usize, 4usize, 3usize);
    let steady_steps = (steps - warmup) as u64;
    let choice = refresh_every_step_kfac();

    let (mut trainer, mut model) = tiny_trainer(7);
    let serial = trainer.run_with_options(
        &mut model,
        &choice,
        steps,
        &TrainOptions {
            accumulation_steps: n_micro,
            grad_delay: 0,
        },
    );
    let serial_steady = steady_allocs(&serial.metrics, warmup);

    // Per-step budgets over the serial loop, for D = 2, N = 4. Measured
    // over the 6 steady steps in 5 runs: 902–903 vs 870 for GPipe and
    // 1F1B (+5.5/step), 1087–1100 for Chimera (+36 to +38/step). What is
    // left is the step command, the update, the last stage's loss list and
    // the inboxes' channel blocks, plus Chimera's shipped contribution
    // sets and parameter copies; the owners refill the report vectors the
    // coordinator sends back with the update. When every stage had a model
    // replica per activation slot, each refreshed by a parameter copy
    // after every update, this read +14 (GPipe, 1F1B) and +48 to +57
    // (Chimera) over a serial loop of 918. A workspace arena that freed
    // the tapes' matrices past 32 idle buffers a length read +43 (GPipe);
    // a matrix buffer slipping out of the recycling paths altogether would
    // add thousands per step.
    for (scheme, per_step_overhead) in [
        (PipelineScheme::GPipe, 12),
        (PipelineScheme::OneFOneB, 12),
        (PipelineScheme::Chimera, 60),
    ] {
        let (mut trainer, model) = tiny_trainer(7);
        let opts = PipelineOptions::new(scheme, 2, n_micro);
        let outcome = trainer
            .run_pipelined(model, &choice, steps, &opts)
            .expect("pipelined run");
        let pipelined_steady = steady_allocs(&outcome.run.metrics, warmup);
        assert!(
            pipelined_steady <= serial_steady + per_step_overhead * steady_steps,
            "{scheme:?}: pipelined steady state allocates too much: \
             {pipelined_steady} vs serial {serial_steady} over {steady_steps} \
             steps (budget +{per_step_overhead}/step)"
        );
    }
}

/// Delays every plan op of device `slow` by `delay`, and samples the
/// process's live heap bytes as device 0 begins each step.
#[derive(Debug)]
struct SlowHostLiveBytes {
    slow: usize,
    delay: Duration,
    live: Mutex<Vec<u64>>,
}

impl ChaosHook for SlowHostLiveBytes {
    fn step_fault(&self, device: usize, _step: usize) -> Option<StepFault> {
        if device == 0 {
            let live = alloc_live_bytes();
            self.live.lock().expect("sampler lock").push(live);
        }
        None
    }

    fn op_delay(&self, device: usize, _step: usize, _op_index: usize) -> Option<Duration> {
        (device == self.slow).then_some(self.delay)
    }
}

/// Under Chimera a stage's other host ships every contribution to the
/// owner, where one that arrives before its turn waits in a buffer, and
/// the owner keeps at most one spare set per activation slot. A slow host
/// holds up the owners' ordered merges while their own backwards go on:
/// whatever the timing, no set, contribution or boundary tensor may
/// outlive its step, or a long run would gain a stage gradient per step.
/// With the workspace arena off, so that its growth cannot show in the
/// reading, the floor of the live heap must not rise between the early and
/// the late steps of a long run.
#[test]
fn chimera_live_heap_stays_flat_under_a_slow_host() {
    let _gate = Gate::acquire();
    workspace::set_enabled(false);
    let (steps, n_stages, n_micro) = (60usize, 4usize, 8usize);
    let (mut trainer, model) = tiny_trainer(7);
    let gradient_bytes = {
        let mut n = 0;
        model
            .clone()
            .visit_params(&mut |p| n += p.grad.as_slice().len());
        (n * std::mem::size_of::<f64>()) as u64
    };
    let hook = Arc::new(SlowHostLiveBytes {
        slow: 1,
        delay: Duration::from_micros(300),
        live: Mutex::new(Vec::with_capacity(2 * steps)),
    });
    let mut opts = PipelineOptions::new(PipelineScheme::Chimera, n_stages, n_micro);
    opts.chaos = Some(hook.clone());
    trainer
        .run_pipelined(model, &refresh_every_step_kfac(), steps, &opts)
        .expect("pipelined run");
    let live = hook.live.lock().expect("sampler lock");
    assert_eq!(live.len(), steps);
    // The least live heap over a window of steps: the floor under each
    // step's transient buffers and messages.
    let floor = |steps: std::ops::Range<usize>| live[steps].iter().copied().min().unwrap();
    let (early, late) = (floor(5..15), floor(steps - 10..steps));
    let growth = late.saturating_sub(early);
    println!("live-heap floor: {early} B early, {late} B late; gradients {gradient_bytes} B");
    assert!(
        growth < gradient_bytes,
        "Chimera's live heap grew by {growth} B from steps 5..15 ({early} B) to \
         the last 10 ({late} B): more than the model's whole gradient \
         ({gradient_bytes} B), so something a step creates outlives it"
    );
}

/// Live heap bytes after each of `runs` back-to-back K-FAC 1F1B runs
/// (D = 2, N = 4, 3 steps) on this thread, each run's outcome dropped.
fn live_bytes_after_back_to_back_runs(runs: usize) -> Vec<u64> {
    let opts = PipelineOptions::new(PipelineScheme::OneFOneB, 2, 4);
    (0..runs)
        .map(|_| {
            let (mut trainer, model) = tiny_trainer(7);
            let outcome = trainer
                .run_pipelined(model, &refresh_every_step_kfac(), 3, &opts)
                .expect("pipelined run");
            drop(outcome);
            alloc_live_bytes()
        })
        .collect()
}

/// A thread's arena keeps only buffers of the lengths it allocates itself.
/// At the end of a pipelined run the stage owners hand their K-FAC factors
/// and inverses back and the coordinator drops them; its pool must not
/// keep them, or every run in one process leaves another set behind (up to
/// the class caps). So with the arena on, repeating the same run leaves the
/// live heap where the first run left it.
#[test]
fn back_to_back_pipelined_runs_leave_the_live_heap_flat() {
    let _gate = Gate::acquire();
    workspace::set_enabled(true);
    let live = live_bytes_after_back_to_back_runs(4);
    println!("live bytes after each run: {live:?}");
    // The tiny model's K-FAC state: per block, A and B factors and their
    // inverses of its four 32→32 and one each of its 32→64 and 64→32
    // linears. A coordinator that keeps the handed-back set after every
    // run grows by about this much per run.
    let (a32, b32, a64, b64) = (33 * 33, 32 * 32, 65 * 65, 64 * 64);
    let state_bytes = 2 * 2 * (4 * (a32 + b32) + (a32 + b64) + (a64 + b32)) * 8;
    // The slack covers bookkeeping a later run may still size (hash-map
    // and channel capacities): a sixteenth of one run's K-FAC state.
    let slack = state_bytes as u64 / 16;
    let growth = live[3].saturating_sub(live[0]);
    assert!(
        growth <= slack,
        "the live heap grew by {growth} B from run 1 ({} B) to run 4 ({} B), more \
         than the {slack} B slack: a thread's pool keeps buffers it never allocated \
         (one run's K-FAC state is {state_bytes} B)",
        live[0],
        live[3]
    );
}
