//! Serial-vs-parallel micro-benchmarks for the math kernels underlying every
//! K-FAC work type: GEMM (forward/backward/precondition) at BERT-Base/Large
//! dimensions (768/1024/3072/4096), the symmetric Gram curvature kernel, and
//! a whole `Kfac::step` (curvature EMA + inversion + preconditioning across
//! layers).
//!
//! The custom `main` times every kernel twice — once pinned to one worker
//! lane, once at the pool's parallel thread count — and writes a
//! machine-readable summary (including the measured speedups and the host
//! core count, so a 1-core container's ≈1× results are self-explaining) to
//! `results/BENCH_kernels.json`.

use criterion::{BenchmarkId, Criterion};
use pipefisher_nn::{
    cross_entropy_backward, BertConfig, BertForPreTraining, ForwardCtx, Layer, Linear,
    ParamVisitor, PreTrainingBatch, IGNORE_INDEX,
};
use pipefisher_optim::{Kfac, KfacConfig, KfacModel, Lamb, Sgd};
use pipefisher_tensor::{par, workspace, Matrix};
use std::hint::black_box;

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) * 2.0 - 1.0
    };
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
}

/// Times `op` under `label/mode/param` with the pool pinned to `threads`
/// lanes (0 = the default parallel count).
fn bench_leg(
    c: &mut Criterion,
    group: &str,
    mode: &str,
    param: &str,
    threads: usize,
    mut op: impl FnMut(),
) {
    par::set_max_threads(threads);
    let mut g = c.benchmark_group(group);
    g.sample_size(3);
    g.bench_with_input(BenchmarkId::new(mode, param), &(), |b, _| b.iter(&mut op));
    g.finish();
    par::set_max_threads(0);
}

fn bench_gemm(c: &mut Criterion, par_threads: usize) {
    // Square GEMMs at the paper's hidden sizes plus the BERT FFN shapes
    // (tokens × d_ff)·(d_ff × d_model) touching 3072/4096.
    let square: &[usize] = if c.measuring() { &[768, 1024] } else { &[96] };
    for &n in square {
        let a = rand_matrix(n, n, 1);
        let b = rand_matrix(n, n, 2);
        let param = format!("{n}x{n}x{n}");
        bench_leg(c, "gemm", "serial", &param, 1, || {
            black_box(a.matmul(&b));
        });
        bench_leg(c, "gemm", "parallel", &param, par_threads, || {
            black_box(a.matmul(&b));
        });
    }
    let rect: &[(usize, usize, usize)] = if c.measuring() {
        &[(128, 3072, 768), (128, 4096, 1024)]
    } else {
        &[(16, 96, 48)]
    };
    for &(m, k, n) in rect {
        let a = rand_matrix(m, k, 3);
        let b = rand_matrix(k, n, 4);
        let param = format!("{m}x{k}x{n}");
        bench_leg(c, "gemm", "serial", &param, 1, || {
            black_box(a.matmul(&b));
        });
        bench_leg(c, "gemm", "parallel", &param, par_threads, || {
            black_box(a.matmul(&b));
        });
    }
}

fn bench_gram(c: &mut Criterion, par_threads: usize) {
    // The curvature kernel: Gram matrix of per-token activations,
    // U ∈ (tokens × d) → UᵀU ∈ (d × d), at BERT-Base/Large hidden sizes.
    let dims: &[usize] = if c.measuring() { &[768, 1024] } else { &[64] };
    for &d in dims {
        let u = rand_matrix(512, d, 5);
        let mut out = Matrix::zeros(d, d);
        let param = format!("512tok_{d}");
        bench_leg(c, "gram", "serial", &param, 1, || {
            u.gram_into(black_box(&mut out));
        });
        bench_leg(c, "gram", "parallel", &param, par_threads, || {
            u.gram_into(black_box(&mut out));
        });
    }
}

fn bench_kfac_step(c: &mut Criterion, par_threads: usize) {
    // A whole optimizer step over a multi-block encoder: per-layer curvature
    // EMA, Cholesky inversion, and preconditioning all run through the pool.
    let (d_model, d_ff, n_layers) = if c.measuring() {
        (128, 512, 4)
    } else {
        (32, 64, 2)
    };
    let vocab = 200;
    let seq = 16;
    let cfg = BertConfig {
        vocab_size: vocab,
        max_seq: seq + 2,
        d_model,
        d_ff,
        n_heads: 4,
        n_layers,
    };
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(6);
    let mut model = BertForPreTraining::new(cfg, 0.0, &mut rng);
    let n = 4 * seq;
    let batch = PreTrainingBatch {
        token_ids: (0..n).map(|i| (i * 17 + 3) % vocab).collect(),
        segment_ids: (0..n).map(|i| usize::from(i % seq >= seq / 2)).collect(),
        mlm_targets: (0..n)
            .map(|i| {
                if i % 4 == 0 {
                    ((i * 13) % vocab) as i64
                } else {
                    IGNORE_INDEX
                }
            })
            .collect(),
        nsp_targets: (0..4).map(|i| (i % 2) as i64).collect(),
        seq,
    };
    model.zero_grad();
    let _ = model.train_step(&batch, &ForwardCtx::train_with_capture());
    let kfac_cfg = KfacConfig {
        damping: 1e-2,
        curvature_interval: 1,
        inversion_interval: 1,
        ..Default::default()
    };
    let param = format!("{n_layers}L_d{d_model}");
    let mut run_step = |threads: usize, mode: &str| {
        let snapshot = model.clone();
        let cfg = kfac_cfg.clone();
        bench_leg(c, "kfac_step", mode, &param, threads, move || {
            let mut m = snapshot.clone();
            let mut opt = Kfac::new(cfg.clone(), Lamb::new(0.01));
            opt.step(&mut m, 1e-3);
            black_box(&m);
        });
    };
    run_step(1, "serial");
    run_step(par_threads, "parallel");
}

/// Pre-change steady-state allocation baseline for the workload in
/// [`measure_kfac_allocs`], measured at the commit preceding the workspace
/// arena (probe with an identical counting allocator and training loop;
/// see EXPERIMENTS.md "Allocation benchmark" for the measurement recipe).
const BASELINE_ALLOCS_PER_STEP: u64 = 111;
const BASELINE_BYTES_PER_STEP: u64 = 2_564_839;

/// A plain stack of linear layers driven as one K-FAC model.
struct Stack(Vec<Linear>);

impl KfacModel for Stack {
    fn visit_kfac_linears(&mut self, f: &mut dyn FnMut(&mut Linear)) {
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
/// bytes/step); all-zeros unless built with `--features alloc-count`.
fn measure_kfac_allocs(workspace_on: bool) -> (u64, u64) {
    workspace::set_enabled(workspace_on);
    par::set_max_threads(1); // deterministic: no boxed task dispatch
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
    par::set_max_threads(0);
    workspace::set_enabled(true);
    let n = (steps - warmup) as u64;
    (allocs / n, bytes / n)
}

/// Writes `BENCH_alloc.json` at the repo root: steady-state allocs/step and
/// bytes/step for the 4-stage K-FAC train, workspace on and off, against
/// the recorded pre-change baseline. Skipped (with a note) when the binary
/// was built without the counting allocator.
fn bench_alloc(host_cores: usize) {
    if !pipefisher_trace::alloc_counting_enabled() {
        println!("alloc bench skipped: rebuild with --features alloc-count");
        return;
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
            "1 worker thread\",\n",
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
        host_cores,
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

fn main() {
    let mut c = Criterion::default();
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // The acceptance target compares ≥4 threads against serial; on hosts
    // with fewer cores the extra threads just oversubscribe, and the JSON
    // records the core count so ≈1× speedups are interpretable.
    let par_threads = par::max_threads().max(4);

    bench_gemm(&mut c, par_threads);
    bench_gram(&mut c, par_threads);
    bench_kfac_step(&mut c, par_threads);

    if !c.measuring() {
        return;
    }

    bench_alloc(host_cores);

    // Pair serial/parallel legs into speedup records.
    let results = c.results();
    let mut entries = Vec::new();
    for r in results {
        // Ids look like "gemm/serial/768x768x768".
        let mut parts = r.id.splitn(3, '/');
        let (Some(group), Some(mode), Some(param)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if mode != "serial" {
            continue;
        }
        let partner = format!("{group}/parallel/{param}");
        let Some(p) = results.iter().find(|r| r.id == partner) else {
            continue;
        };
        entries.push(format!(
            concat!(
                "    {{\"kernel\": \"{}\", \"dims\": \"{}\", \"serial_ns\": {:.1}, ",
                "\"parallel_ns\": {:.1}, \"speedup\": {:.3}}}"
            ),
            group,
            param,
            r.median_ns,
            p.median_ns,
            r.median_ns / p.median_ns.max(1.0)
        ));
    }

    // cargo runs bench executables from the package root; the JSON belongs
    // next to the other experiment outputs in the workspace results dir.
    let results_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(results_dir).expect("create results/");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"kernels\",\n",
            "  \"host_cores\": {},\n",
            "  \"parallel_threads\": {},\n",
            "  \"note\": \"speedup = serial_ns / parallel_ns; on a host with ",
            "fewer cores than parallel_threads the parallel leg oversubscribes ",
            "and speedup ~1x is expected\",\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        host_cores,
        par_threads,
        entries.join(",\n")
    );
    let path = format!("{results_dir}/BENCH_kernels.json");
    std::fs::write(&path, &json).expect("write BENCH_kernels.json");
    println!("wrote {path} ({} kernel pairs)", entries.len());
}
