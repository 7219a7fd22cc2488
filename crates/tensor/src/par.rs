//! The lane count: one per thread.
//!
//! Every thread computes on one lane — the serial trainer, each pipeline
//! stage worker and the coordinator run every kernel and K-FAC pass
//! serially on themselves. PipeFisher's parallelism is the pipeline: each
//! stage thread fills its own bubbles with K-FAC work (DESIGN.md §3.1
//! "Threading model"). This module keeps the two calls the end-to-end
//! benchmark's harness makes.

/// Lanes a kernel computes on: always 1.
pub fn max_threads() -> usize {
    1
}

/// Accepts the one lane count there is.
///
/// # Panics
///
/// Panics if `n != 1`. The end-to-end benchmark's harness
/// (`benchmark/src/sut.rs`) pins one lane with `set_max_threads(1)`; it is
/// the only caller.
pub fn set_max_threads(n: usize) {
    assert_eq!(n, 1, "set_max_threads: every thread computes on one lane");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_lane_is_the_only_count() {
        set_max_threads(1);
        assert_eq!(max_threads(), 1);
        assert!(std::panic::catch_unwind(|| set_max_threads(2)).is_err());
    }
}
