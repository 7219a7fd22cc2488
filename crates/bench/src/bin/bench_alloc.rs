//! Steady-state allocation benchmark: heap allocations and bytes per step
//! of a small K-FAC train with the workspace arena on and off, against the
//! recorded pre-arena baseline, and the live heap after each of several
//! back-to-back pipelined runs (what the arenas retain between runs).
//! Writes `BENCH_alloc.json` at the repo root.
//!
//! Counting needs the counting global allocator, so run it as
//! `cargo run --release -p pipefisher-bench --features alloc-count --bin
//! bench_alloc`; built without the feature it exits non-zero and writes
//! nothing.

use pipefisher_bench::host_cores;
use pipefisher_lm::{BatchSampler, OptimizerChoice, PipelineOptions, SyntheticLanguage, Trainer};
use pipefisher_nn::{
    cross_entropy_backward, BertConfig, BertForPreTraining, ForwardCtx, Layer, Linear,
    ParamVisitor, Tape,
};
use pipefisher_optim::{Kfac, KfacConfig, KfacModel, Lamb, LrSchedule};
use pipefisher_pipeline::PipelineScheme;
use pipefisher_tensor::workspace;

/// Pre-change steady-state allocation baseline for the workload in
/// [`measure_kfac_allocs`], measured at the commit preceding the workspace
/// arena with the same counting allocator and training loop, but with
/// K-FAC over SGD momentum where the probe now runs K-FAC over LAMB (see
/// EXPERIMENTS.md "Allocation benchmark" for the measurement recipe).
const BASELINE_ALLOCS_PER_STEP: u64 = 111;
const BASELINE_BYTES_PER_STEP: u64 = 2_564_839;

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

/// Steady-state heap traffic of a 4-stage K-FAC-over-LAMB train, the
/// optimizer the trainer runs: 4 linear layers (64→64, batch 48),
/// curvature + inversion refreshed every step, measured
/// over the 5 steps after a 5-step warm-up. Returns (allocs/step,
/// bytes/step).
fn measure_kfac_allocs(workspace_on: bool) -> (u64, u64) {
    workspace::set_enabled(workspace_on);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let mut model = Stack(
        (0..4)
            .map(|i| Linear::new(&format!("fc{i}"), 64, 64, &mut rng))
            .collect(),
    );
    let x = pipefisher_tensor::init::normal(48, 64, 1.0, &mut rng);
    let targets: Vec<i64> = (0..48).map(|i| (i % 64) as i64).collect();
    let mut kfac = Kfac::new(
        KfacConfig {
            curvature_interval: 1,
            inversion_interval: 1,
            ..Default::default()
        },
        Lamb::new(0.01),
    );
    let (steps, warmup) = (10usize, 5usize);
    let (mut allocs, mut bytes) = (0u64, 0u64);
    let mut tape = Tape::new(ForwardCtx::train_with_capture());
    for step in 0..steps {
        let before = pipefisher_trace::alloc_snapshot();
        let mut h = x.clone();
        for lin in model.0.iter_mut() {
            lin.zero_grad();
            h = lin.forward(h, &mut tape);
        }
        let mut d = cross_entropy_backward(&h, &targets);
        for lin in model.0.iter_mut().rev() {
            d = lin.backward(&d, &mut tape);
        }
        kfac.step(&mut model, 0.01);
        if step >= warmup {
            let delta = pipefisher_trace::alloc_snapshot().since(&before);
            allocs += delta.allocs;
            bytes += delta.bytes;
        }
    }
    workspace::set_enabled(true);
    let n = (steps - warmup) as u64;
    (allocs / n, bytes / n)
}

/// Pipelined runs [`measure_back_to_back_live_bytes`] makes in one process.
const BACK_TO_BACK_RUNS: usize = 4;

/// Live heap bytes after each of [`BACK_TO_BACK_RUNS`] K-FAC 1F1B runs in
/// this process (D = 2, N = 4, 3 steps, tiny BERT, curvature + inversion
/// every step), arena on, each run's outcome dropped before reading.
fn measure_back_to_back_live_bytes() -> Vec<u64> {
    let choice = OptimizerChoice::Kfac {
        weight_decay: 0.01,
        kfac: KfacConfig {
            curvature_interval: 1,
            inversion_interval: 1,
            ..Default::default()
        },
    };
    let opts = PipelineOptions::new(PipelineScheme::OneFOneB, 2, 4);
    (0..BACK_TO_BACK_RUNS)
        .map(|_| {
            let config = BertConfig::tiny(36, 16);
            let lang = SyntheticLanguage::new(config.vocab_size, 2, 4, 11);
            let sampler = BatchSampler::new(lang, config.max_seq);
            let mut trainer = Trainer::new(sampler, 8, LrSchedule::Constant(5e-3), 7);
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
            let model = BertForPreTraining::new(config, 0.0, &mut rng);
            let outcome = trainer.run_pipelined(model, &choice, 3, &opts);
            drop(outcome.expect("pipelined run"));
            pipefisher_trace::alloc_live_bytes()
        })
        .collect()
}

fn main() {
    if !pipefisher_trace::alloc_counting_enabled() {
        eprintln!("alloc bench skipped: rebuild with --features alloc-count");
        std::process::exit(1);
    }
    let (on_allocs, on_bytes) = measure_kfac_allocs(true);
    let (off_allocs, off_bytes) = measure_kfac_allocs(false);
    let live = measure_back_to_back_live_bytes();
    let live_list = live.iter().map(u64::to_string).collect::<Vec<_>>();
    let growth = live[BACK_TO_BACK_RUNS - 1] as i64 - live[0] as i64;
    // A ratio against zero steady allocations is no measurement.
    let ratio_json = match on_allocs {
        0 => "null".to_string(),
        n => format!("{:.1}", BASELINE_ALLOCS_PER_STEP as f64 / n as f64),
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"alloc\",\n",
            "  \"workload\": \"4-stage K-FAC over LAMB train: 4x Linear 64->64, batch 48, ",
            "curvature+inversion every step; steady state = steps 5..10, ",
            "one thread\",\n",
            "  \"host_cores\": {},\n",
            "  \"note\": \"counts from the alloc-count feature's counting global ",
            "allocator; absolute bytes depend on the allocator and host, the on/off ",
            "and vs-baseline ratios are the result\",\n",
            "  \"baseline\": {{\"allocs_per_step\": {}, \"bytes_per_step\": {}, ",
            "\"note\": \"pre-arena tree, same loop with K-FAC over SGD momentum\"}},\n",
            "  \"workspace_on\": {{\"allocs_per_step\": {}, \"bytes_per_step\": {}}},\n",
            "  \"workspace_off\": {{\"allocs_per_step\": {}, \"bytes_per_step\": {}}},\n",
            "  \"alloc_reduction_vs_baseline\": {},\n",
            "  \"alloc_reduction_note\": \"baseline / workspace_on allocs per step; null when ",
            "the arena path allocates nothing in steady state\",\n",
            "  \"back_to_back_runs\": {{\"workload\": \"{} K-FAC 1F1B runs in one process: ",
            "D = 2, N = 4, 3 steps, tiny BERT, curvature+inversion every step, arena on\", ",
            "\"live_bytes_after_run\": [{}], \"growth_bytes\": {}}}\n",
            "}}\n"
        ),
        host_cores(),
        BASELINE_ALLOCS_PER_STEP,
        BASELINE_BYTES_PER_STEP,
        on_allocs,
        on_bytes,
        off_allocs,
        off_bytes,
        ratio_json,
        BACK_TO_BACK_RUNS,
        live_list.join(", "),
        growth
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_alloc.json");
    std::fs::write(path, &json).expect("write BENCH_alloc.json");
    println!(
        "wrote {path} (reduction vs baseline: {ratio_json}, live bytes after each run: {live:?})"
    );
}
