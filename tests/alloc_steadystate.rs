//! Allocation-regression gate: after warm-up, the kernel hot path performs
//! **zero** heap allocations, and a steady-state K-FAC training step is
//! down to the list pairing layers with states (no buffer allocations; the ≥10×
//! comparison against the pre-arena tree lives in `BENCH_alloc.json`).
//!
//! Requires the `alloc-count` feature (which installs the counting global
//! allocator from `pipefisher-trace`); the whole file compiles away without
//! it so plain `cargo test` is unaffected. Every kernel runs on the
//! calling thread.

#![cfg(feature = "alloc-count")]

use std::sync::{Mutex, MutexGuard, OnceLock};

use pipefisher::lm::{
    BatchSampler, OptimizerChoice, PipelineOptions, StepMetrics, SyntheticLanguage, TrainOptions,
    Trainer,
};
use pipefisher::nn::{
    cross_entropy_backward, BertConfig, BertForPreTraining, ForwardCtx, Layer, Linear, ParamVisitor,
};
use pipefisher::optim::{Kfac, KfacConfig, KfacModel, Sgd};
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

/// One pass over every hot-path kernel, reusing caller-owned outputs. The
/// allocating wrappers are included deliberately: with a warmed pool their
/// `Matrix::zeros` outputs are checkout hits and their drops are checkins.
fn kernel_pass(
    a: &Matrix,
    b: &Matrix,
    spd: &Matrix,
    out_mm: &mut Matrix,
    out_tn: &mut Matrix,
    out_nt: &mut Matrix,
    out_gram: &mut Matrix,
    out_inv: &mut Matrix,
    out_chol: &mut Matrix,
) {
    a.matmul_into(b, out_mm);
    a.matmul_tn_into(b, out_tn);
    b.matmul_nt_into(a, out_nt);
    a.gram_into(out_gram);
    pipefisher::tensor::cholesky_into(spd, out_chol).expect("spd");
    cholesky_inverse_into(spd, out_inv).expect("spd");
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
    let (mut mm, mut tn, mut nt, mut gram, mut inv, mut chol) = (
        Matrix::default(),
        Matrix::default(),
        Matrix::default(),
        Matrix::default(),
        Matrix::default(),
        Matrix::default(),
    );

    // Warm-up: sizes every buffer, fills the pool for the wrappers'
    // temporaries (including the factorization engine's block scratch).
    for _ in 0..2 {
        kernel_pass(
            &a, &b, &spd, &mut mm, &mut tn, &mut nt, &mut gram, &mut inv, &mut chol,
        );
    }

    let before = alloc_snapshot();
    for _ in 0..5 {
        kernel_pass(
            &a, &b, &spd, &mut mm, &mut tn, &mut nt, &mut gram, &mut inv, &mut chol,
        );
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
        Sgd::new(0.9, 0.0),
    );
    let mut measured = 0u64;
    for step in 0..steps {
        let before = alloc_snapshot();
        let mut h = x.clone();
        for lin in layers.iter_mut() {
            lin.zero_grad();
            h = lin.forward(&h, &ForwardCtx::train_with_capture());
        }
        let mut d = cross_entropy_backward(&h, &targets);
        for lin in layers.iter_mut().rev() {
            d = lin.backward(&d);
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

    // With the arena on, a steady-state step allocates no f64 buffers at
    // all — what remains is the list pairing layers with their states: a
    // refresh step call builds it twice (the refresh pass, then
    // preconditioning), 4 calls per step here. Bound it exactly so any
    // buffer allocation sneaking back into the hot path (every matrix here
    // is ≥ 16×16) trips the gate.
    let steady_steps = 3;
    assert!(
        with_pool <= 8 * steady_steps,
        "steady-state K-FAC step allocates too much with the workspace on: \
         {with_pool} allocs over {steady_steps} steps"
    );
    // And the arena must be doing real work relative to the same binary
    // with recycling disabled (the full pre-change ≥10× comparison lives in
    // BENCH_alloc.json, measured against the pre-refactor tree).
    assert!(
        with_pool * 2 <= without_pool,
        "workspace on: {with_pool} allocs over {steady_steps} steady steps; \
         off: {without_pool} — expected ≥2× reduction"
    );
}

/// The executor loans every layer state out and back each refresh step, on
/// the coordinator, inside the timed phase: once a layer has an entry the
/// round trip moves the state in place and must not touch the heap.
#[test]
fn kfac_state_loan_round_trip_is_allocation_free() {
    let _gate = Gate::acquire();
    let mut rng = StdRng::seed_from_u64(13);
    let mut lin = Linear::new("fc", 16, 16, &mut rng);
    let x = init::normal(24, 16, 1.0, &mut rng);
    let targets: Vec<i64> = (0..24).map(|i| (i % 16) as i64).collect();
    let mut kfac = Kfac::new(KfacConfig::default(), Sgd::new(0.9, 0.0));
    let y = lin.forward(&x, &ForwardCtx::train_with_capture());
    let _ = lin.backward(&cross_entropy_backward(&y, &targets));
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

/// Bytes the first `Kfac::step` over `layers` captured 32→32 linears
/// leaves live, not counting the captured statistics the step frees.
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
    for lin in model.0.iter_mut() {
        h = lin.forward(&h, &ForwardCtx::train_with_capture());
    }
    let mut g = cross_entropy_backward(&h, &targets);
    for lin in model.0.iter_mut().rev() {
        g = lin.backward(&g);
    }
    // Momentum-free SGD keeps no per-parameter state, so whatever the step
    // leaves behind is K-FAC's.
    let mut kfac = Kfac::new(KfacConfig::default(), Sgd::new(0.0, 0.0));
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
    assert!(model.0.iter().all(|l| !l.kfac_stats().is_complete()));
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
/// command out and one report back (carrying the step's losses), plus the
/// coordinator's per-step loss buffer and K-FAC step parameters. Boundary
/// tensors travel through preallocated bounded inboxes, and all matrices
/// are recycled — each (device, stage) loan of parameters, gradient sets and
/// K-FAC layer states goes out with the command and comes back in the
/// report, and the workers' kernel temporaries come from their thread-local
/// workspace arenas. So per-step allocations must stay within a fixed
/// constant of the serial loop's, independent of how many steps run.
#[test]
fn pipeline_executor_steady_state_allocs_are_serial_plus_constant() {
    let _gate = Gate::acquire();
    workspace::set_enabled(true);

    let (steps, n_micro, warmup) = (6usize, 4usize, 3usize);
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

    let (mut trainer, model) = tiny_trainer(7);
    let opts = PipelineOptions::new(PipelineScheme::GPipe, 2, n_micro);
    let outcome = trainer
        .run_pipelined(model, &choice, steps, &opts)
        .expect("pipelined run");
    let pipelined_steady = steady_allocs(&outcome.run.metrics, warmup);

    // Fixed per-step budget for the plumbing. Measured for D = 2, N = 4:
    // 48 allocations per step over the serial loop (756–757 vs 612 over 3
    // steps). A matrix buffer slipping out of the recycling paths would add
    // thousands per step and trip this at once.
    let per_step_overhead = 200;
    let steady_steps = (steps - warmup) as u64;
    assert!(
        pipelined_steady <= serial_steady + per_step_overhead * steady_steps,
        "pipelined steady state allocates too much: {pipelined_steady} vs \
         serial {serial_steady} over {steady_steps} steps \
         (budget +{per_step_overhead}/step)"
    );
}
