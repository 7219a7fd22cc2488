//! Single-core factorization benchmark: naive (scalar reference loops) vs
//! blocked (`potrf` + `trtri` + `lauum` on the packed GEMM engine)
//! `cholesky_inverse` GFLOP/s at K-FAC factor sizes, including the
//! BERT-Base pair 769 (`d_model + 1`) and 3073 (`d_ff + 1`). Writes
//! `BENCH_factor.json` at the repo root.
//!
//! Both paths run on one core, so the speedup column is the blocking/SIMD
//! win alone; both produce bitwise-identical inverses (enforced by
//! `crates/tensor/tests/factor_equivalence.rs`).
//!
//! The nominal FLOP count is `2n³` for every column — the count this file
//! has always used, kept so rows stay comparable across engines (the
//! inversion really costs `n³`: three `n³/3` steps). [`SIZES`] carries the
//! blocked column of the engine this one replaced, measured on the same
//! host, so the speed-up over it has its base in the file.

use pipefisher_bench::{best_of, host_cores, rand_matrix};
use pipefisher_tensor::{cholesky_inverse_into, kernel, reference, Matrix};

const REPS: usize = 3;

/// Factor sizes — one inside a few panels, the BERT-Base K-FAC pair, and a
/// power-of-two multi-panel size — each with the blocked GFLOP/s of the
/// previous engine (solve `L·Lᵀ·X = I` against a dense identity: multi-RHS
/// TRSM + identity fast path + symmetrize), recorded with this binary at
/// commit `ec826c2` on the host the committed `BENCH_factor.json` was
/// recorded on.
const SIZES: [(usize, f64); 4] = [(256, 9.064), (769, 11.121), (1024, 5.883), (3073, 5.005)];

fn rand_spd(n: usize, seed: u64) -> Matrix {
    let mut m = rand_matrix(n, n, seed);
    // Symmetrize, shrink off-diagonals, and dominate the diagonal — SPD
    // without an O(n³) Gram product at n = 3073.
    let shrink = 1.0 / n as f64;
    for i in 0..n {
        for j in 0..i {
            let v = 0.5 * (m[(i, j)] + m[(j, i)]) * shrink;
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    for i in 0..n {
        m[(i, i)] = 2.0 + m[(i, i)].abs();
    }
    m
}

fn main() {
    let simd = kernel::simd_name();
    let mut rows = Vec::new();
    for &(n, before) in &SIZES {
        let a = rand_spd(n, n as u64);
        let mut out = Matrix::zeros(n, n);
        let flops = 2.0 * (n as f64).powi(3);
        // The naive path at n ≥ 1024 is minutes-slow; a single unwarmed rep
        // is representative (it is pure scalar loops with no arena warmup
        // sensitivity) and keeps the benchmark runnable in CI.
        let (naive_reps, naive_warm) = if n >= 1024 { (1, false) } else { (REPS, true) };
        let t_naive = best_of(naive_reps, naive_warm, || {
            reference::cholesky_inverse_into(&a, &mut out).expect("spd")
        });
        let t_blocked = best_of(REPS, true, || {
            cholesky_inverse_into(&a, &mut out).expect("spd")
        });
        let naive_gflops = flops / t_naive / 1e9;
        let blocked_gflops = flops / t_blocked / 1e9;
        let speedup = t_naive / t_blocked.max(1e-12);
        println!(
            "invert n={n:5}: naive {naive_gflops:6.2} GFLOP/s ({t_naive:8.3}s), \
             blocked {blocked_gflops:6.2} GFLOP/s ({t_blocked:8.3}s) — {speedup:.2}x"
        );
        rows.push(format!(
            concat!(
                "    {{\"n\": {}, \"naive_gflops\": {:.3}, ",
                "\"blocked_gflops\": {:.3}, \"speedup\": {:.3}, ",
                "\"speedup_vs_before\": {:.3}}}"
            ),
            n,
            naive_gflops,
            blocked_gflops,
            speedup,
            blocked_gflops / before
        ));
    }
    let before_rows: Vec<String> = SIZES
        .iter()
        .map(|(n, g)| format!("    {{\"n\": {n}, \"blocked_gflops\": {g:.3}}}"))
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"factor\",\n",
            "  \"host_cores\": {},\n",
            "  \"simd\": \"{}\",\n",
            "  \"reps\": {},\n",
            "  \"note\": \"single-core cholesky_inverse GFLOP/s at a ",
            "nominal 2n^3 FLOPs for every column (the inversion itself costs n^3); naive is the ",
            "scalar reference (reference::cholesky_inverse_into), blocked the potrf + trtri + lauum ",
            "engine under the runtime-dispatched kernel, bitwise-identical by construction; naive ",
            "at n>=1024 is timed with a single rep; 769/3073 are the BERT-Base K-FAC factor sizes ",
            "(d_model+1, d_ff+1); 'before' is the blocked column of the solve-against-identity ",
            "engine this one replaced (commit ec826c2, same host, same binary), the base of ",
            "speedup_vs_before.\",\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"before\": [\n{}\n  ]\n",
            "}}\n"
        ),
        host_cores(),
        simd,
        REPS,
        rows.join(",\n"),
        before_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_factor.json");
    std::fs::write(path, &json).expect("write BENCH_factor.json");
    println!("wrote {path}");
}
