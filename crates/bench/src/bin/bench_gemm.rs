//! Single-core GEMM micro-kernel benchmark: GFLOP/s for every GEMM
//! flavour, scalar fallback vs the dispatched SIMD kernel, on square and
//! BERT-shaped sizes and on the end-to-end benchmark's own layer shapes
//! (256 tokens, widths 64…384, and the attention core's per-head
//! products). Writes `BENCH_gemm.json` at the repo root.
//!
//! Every kernel runs on the calling thread, so the numbers are micro-kernel
//! throughput; both paths produce bitwise-identical outputs (the SIMD
//! default vectorizes across output columns, one fused multiply-add per
//! step; see `crates/tensor/src/kernel/`).

use pipefisher_bench::{best_of, host_cores, rand_matrix};
use pipefisher_tensor::kernel::{self, KernelKind};
use pipefisher_tensor::{gemm_batched, Matrix, Strided};

const REPS: usize = 3;

/// One benchmark case: a flavour at a shape, with its FLOP count.
struct Case {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    flops: f64,
    run: Box<dyn Fn(&mut Matrix)>,
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    // C = A·B on square sizes, the BERT-base MLP shapes (seq 128 x
    // d_model 768 x d_ff 3072 and its reverse), and the end-to-end
    // benchmark's forward linears (256 tokens: the small model's 64 → 64,
    // the mid model's 96 → 384 and 384 → 96).
    for (m, k, n) in [
        (256, 256, 256),
        (512, 512, 512),
        (1024, 1024, 1024),
        (128, 768, 3072),
        (128, 3072, 768),
        (256, 64, 64),
        (256, 96, 384),
        (256, 384, 96),
    ] {
        let a = rand_matrix(m, k, 1);
        let b = rand_matrix(k, n, 2);
        out.push(Case {
            name: "matmul",
            m,
            k,
            n,
            flops: 2.0 * (m * k * n) as f64,
            run: Box::new(move |o| a.matmul_into(&b, o)),
        });
    }
    // C = Aᵀ·B: the weight-gradient shape (tokens 128 or 256 contracting).
    for (m, k, n) in [
        (512, 512, 512),
        (768, 128, 3072),
        (64, 256, 64),
        (96, 256, 384),
        (384, 256, 96),
    ] {
        let a = rand_matrix(k, m, 3);
        let b = rand_matrix(k, n, 4);
        out.push(Case {
            name: "matmul_tn",
            m,
            k,
            n,
            flops: 2.0 * (m * k * n) as f64,
            run: Box::new(move |o| a.matmul_tn_into(&b, o)),
        });
    }
    // C = A·Bᵀ: the input-gradient backprop shape.
    for (m, k, n) in [
        (512, 512, 512),
        (128, 3072, 768),
        (256, 64, 64),
        (256, 384, 96),
        (256, 96, 384),
    ] {
        let a = rand_matrix(m, k, 5);
        let b = rand_matrix(n, k, 6);
        out.push(Case {
            name: "matmul_nt",
            m,
            k,
            n,
            flops: 2.0 * (m * k * n) as f64,
            run: Box::new(move |o| a.matmul_nt_into(&b, o)),
        });
    }
    // C = UᵀU: the K-FAC Kronecker-factor shape (upper triangle computed,
    // mirror copied — FLOPs count the triangle only).
    for (k, m) in [(512, 768), (128, 3072)] {
        let u = rand_matrix(k, m, 7);
        out.push(Case {
            name: "gram",
            m,
            k,
            n: m,
            flops: (k * m * (m + 1)) as f64,
            run: Box::new(move |o| u.gram_into(o)),
        });
    }
    // The attention scores Q_bh·K_bhᵀ of 8 sequences of 32 tokens and 4
    // heads of width 16 (small) or 24 (mid), each item read in place from
    // its head's columns of the 256-token projections; m, k, n are one
    // item's.
    for dh in [16, 24] {
        let (seq, batch, heads) = (32, 8, 4);
        let d = heads * dh;
        let (q, kt) = (
            rand_matrix(batch * seq, d, 8),
            rand_matrix(batch * seq, d, 9),
        );
        out.push(Case {
            name: "gemm_batched",
            m: seq,
            k: dh,
            n: seq,
            flops: 2.0 * (batch * heads * seq * seq * dh) as f64,
            run: Box::new(move |o| {
                o.reset_shape(batch * heads * seq, seq);
                let (count, step) = ((batch, heads), (heads * seq * seq, seq * seq));
                let a = Strided {
                    data: q.as_slice(),
                    ld: d,
                    trans: false,
                    step: (seq * d, dh),
                };
                let b = Strided {
                    data: kt.as_slice(),
                    trans: true,
                    ..a
                };
                gemm_batched(count, (seq, seq, dh), a, b, o.as_mut_slice(), seq, step);
            }),
        });
    }
    out
}

fn main() {
    let simd = kernel::simd_name();
    let mut rows = Vec::new();
    for case in cases() {
        // Best-of-`REPS` GFLOP/s under `kind`, after one warm-up call.
        let gflops = |kind| {
            kernel::set_kernel(Some(kind));
            let mut out = Matrix::zeros(case.m, case.n);
            case.flops / best_of(REPS, true, || (case.run)(&mut out)) / 1e9
        };
        let scalar = gflops(KernelKind::Scalar);
        let dispatched = gflops(KernelKind::Simd);
        kernel::set_kernel(None);
        let speedup = dispatched / scalar.max(1e-12);
        println!(
            "{:10} {:4}x{:4}x{:4}: scalar {scalar:6.2} GFLOP/s, {simd} {dispatched:6.2} GFLOP/s ({speedup:.2}x)",
            case.name, case.m, case.k, case.n
        );
        rows.push(format!(
            concat!(
                "    {{\"kernel\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, ",
                "\"scalar_gflops\": {:.3}, \"simd_gflops\": {:.3}, \"speedup\": {:.3}}}"
            ),
            case.name, case.m, case.k, case.n, scalar, dispatched, speedup
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"gemm\",\n",
            "  \"host_cores\": {},\n",
            "  \"simd\": \"{}\",\n",
            "  \"reps\": {},\n",
            "  \"note\": \"single-core best-of-{} GFLOP/s per kernel; ",
            "scalar is the portable micro-kernel (PIPEFISHER_KERNEL=scalar), simd the ",
            "runtime-dispatched default, bitwise-identical by construction; on hosts without ",
            "AVX2/AVX-512/NEON both columns run the scalar kernel and speedup ~1x is expected; ",
            "gram FLOPs count the computed upper triangle only; gemm_batched rows give one ",
            "item's m, k, n of an 8 x 4 batch, and their FLOPs count the whole batch.\",\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        host_cores(),
        simd,
        REPS,
        REPS,
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    std::fs::write(path, &json).expect("write BENCH_gemm.json");
    println!("wrote {path}");
}
