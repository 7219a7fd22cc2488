//! Steady-state allocation benchmark: heap allocations and bytes per step
//! of a small K-FAC train with the workspace arena on and off, against the
//! recorded pre-arena baseline. Writes `BENCH_alloc.json` at the repo root.
//!
//! Counting needs the counting global allocator, so run it as
//! `cargo run --release -p pipefisher-bench --features alloc-count --bin
//! bench_alloc`; built without the feature it exits non-zero and writes
//! nothing.

use pipefisher_bench::host_cores;
use pipefisher_nn::{cross_entropy_backward, ForwardCtx, Layer, Linear, ParamVisitor};
use pipefisher_optim::{Kfac, KfacConfig, KfacModel, Sgd};
use pipefisher_tensor::workspace;

/// Pre-change steady-state allocation baseline for the workload in
/// [`measure_kfac_allocs`], measured at the commit preceding the workspace
/// arena (probe with an identical counting allocator and training loop;
/// see EXPERIMENTS.md "Allocation benchmark" for the measurement recipe).
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

/// Steady-state heap traffic of a 4-stage K-FAC train: 4 linear layers
/// (64→64, batch 48), curvature + inversion refreshed every step, measured
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
        Sgd::new(0.9, 0.0),
    );
    let (steps, warmup) = (10usize, 5usize);
    let (mut allocs, mut bytes) = (0u64, 0u64);
    for step in 0..steps {
        let before = pipefisher_trace::alloc_snapshot();
        let mut h = x.clone();
        for lin in model.0.iter_mut() {
            lin.zero_grad();
            h = lin.forward(&h, &ForwardCtx::train_with_capture());
        }
        let mut d = cross_entropy_backward(&h, &targets);
        for lin in model.0.iter_mut().rev() {
            d = lin.backward(&d);
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

fn main() {
    if !pipefisher_trace::alloc_counting_enabled() {
        eprintln!("alloc bench skipped: rebuild with --features alloc-count");
        std::process::exit(1);
    }
    let (on_allocs, on_bytes) = measure_kfac_allocs(true);
    let (off_allocs, off_bytes) = measure_kfac_allocs(false);
    let ratio = BASELINE_ALLOCS_PER_STEP as f64 / on_allocs.max(1) as f64;
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"alloc\",\n",
            "  \"workload\": \"4-stage K-FAC train: 4x Linear 64->64, batch 48, ",
            "curvature+inversion every step; steady state = steps 5..10, ",
            "one thread\",\n",
            "  \"host_cores\": {},\n",
            "  \"note\": \"counts from the alloc-count feature's counting global ",
            "allocator; absolute bytes depend on the allocator and host, the on/off ",
            "and vs-baseline ratios are the result\",\n",
            "  \"baseline\": {{\"allocs_per_step\": {}, \"bytes_per_step\": {}, ",
            "\"note\": \"pre-change tree, identical probe\"}},\n",
            "  \"workspace_on\": {{\"allocs_per_step\": {}, \"bytes_per_step\": {}}},\n",
            "  \"workspace_off\": {{\"allocs_per_step\": {}, \"bytes_per_step\": {}}},\n",
            "  \"alloc_reduction_vs_baseline\": {:.1}\n",
            "}}\n"
        ),
        host_cores(),
        BASELINE_ALLOCS_PER_STEP,
        BASELINE_BYTES_PER_STEP,
        on_allocs,
        on_bytes,
        off_allocs,
        off_bytes,
        ratio
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_alloc.json");
    std::fs::write(path, &json).expect("write BENCH_alloc.json");
    println!("wrote {path} (reduction vs baseline: {ratio:.1}x)");
}
