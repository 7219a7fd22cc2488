//! Shared helpers for the PipeFisher benchmark harness.
//!
//! The experiments live in `src/bin/`: one binary per paper table or
//! figure (see DESIGN.md §4 for the index), and one `bench_<name>` binary
//! per committed `BENCH_<name>.json`, its only producer. This library hosts
//! the code they share: result formatting, and the bench bins' inputs and
//! timer. Paper settings are `pipefisher_perfmodel::Setting`.

use pipefisher_tensor::Matrix;
use std::time::Instant;

/// Formats a fraction as a percentage with one decimal, e.g. `0.759 → "75.9%"`.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Formats seconds as minutes with one decimal.
pub fn fmt_minutes(seconds: f64) -> String {
    format!("{:.1} min", seconds / 60.0)
}

/// Formats seconds as milliseconds with one decimal.
pub fn fmt_ms(seconds: f64) -> String {
    format!("{:.1} ms", seconds * 1e3)
}

/// Logical cores of this host: the `host_cores` every `BENCH_*.json`
/// records, so a number carries its measurement context.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A `rows × cols` matrix of values in `[-1, 1]` from a xorshift stream
/// seeded by `seed`: the bench bins' fixed inputs.
pub fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) * 2.0 - 1.0
    };
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
}

/// Best-of-`reps` wall-clock seconds of `f` (at least one rep), after one
/// untimed call when `warmup` (which also primes the workspace arena).
pub fn best_of(reps: usize, warmup: bool, mut f: impl FnMut()) -> f64 {
    if warmup {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.759), "75.9%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn minutes_formats() {
        assert_eq!(fmt_minutes(120.0), "2.0 min");
    }
}
