//! Shared helpers for the PipeFisher benchmark harness.
//!
//! The experiments live in `src/bin/`: one binary per paper table or
//! figure (see DESIGN.md §4 for the index), and one `bench_<name>` binary
//! per committed `BENCH_<name>.json`, its only producer. This library hosts
//! the code they share: construction of paper-setting configurations,
//! result formatting, and the bench bins' inputs and timer.

use pipefisher_core::{assign, AssignError, AssignOptions, FitStrategy, PipeFisherSchedule};
use pipefisher_perfmodel::{
    setting_costs, stage_memory, HardwareProfile, StageMemory, StepModelInput, TransformerConfig,
};
use pipefisher_pipeline::{with_recompute, PipelineScheme, TaskGraph};
use pipefisher_sim::KindCost;
use pipefisher_tensor::Matrix;
use std::time::Instant;

/// A fully specified experiment setting: architecture, hardware, pipeline.
#[derive(Debug, Clone)]
pub struct Setting {
    /// Transformer architecture (Table 3 presets).
    pub arch: TransformerConfig,
    /// GPU profile.
    pub hw: HardwareProfile,
    /// Pipeline scheme.
    pub scheme: PipelineScheme,
    /// Number of pipeline stages.
    pub d: usize,
    /// Micro-batches per device per step.
    pub n_micro: usize,
    /// Micro-batch size (sequences).
    pub b_micro: usize,
    /// Transformer blocks per pipeline stage.
    pub blocks_per_stage: usize,
    /// Data-parallel replicas per stage.
    pub w: usize,
    /// Activation recomputation.
    pub recompute: bool,
}

impl Setting {
    /// Per-stage durations including collective costs derived from the
    /// hardware profile.
    pub fn costs(&self) -> KindCost {
        setting_costs(
            &self.arch,
            &self.hw,
            self.scheme,
            self.blocks_per_stage,
            self.b_micro,
            self.w,
            self.recompute,
        )
    }

    /// Per-stage memory terms.
    pub fn memory(&self) -> StageMemory {
        stage_memory(
            &self.arch,
            self.blocks_per_stage,
            self.b_micro,
            self.recompute,
        )
    }

    /// The pipeline schedule of this setting, with a recompute before
    /// every backward when `recompute` is set.
    pub fn graph(&self) -> TaskGraph {
        let graph = self.scheme.build(self.d, self.n_micro);
        if self.recompute {
            with_recompute(&graph)
        } else {
            graph
        }
    }

    /// The paper's first-fit assignment of this setting, one chunk per
    /// block.
    pub fn schedule(&self) -> Result<PipeFisherSchedule, AssignError> {
        let opts = AssignOptions {
            fit: FitStrategy::FirstFit,
            w: self.w,
            granularity: self.blocks_per_stage,
        };
        assign(&self.graph(), &self.costs(), &opts)
    }

    /// The §3.3 closed-form model input for this setting.
    pub fn step_model_input(&self) -> StepModelInput {
        StepModelInput {
            scheme: self.scheme,
            d: self.d,
            n_micro: self.n_micro,
            b_micro: self.b_micro,
            w: self.w,
            costs: self.costs(),
            memory: self.memory(),
            hw: self.hw.clone(),
        }
    }

    /// The paper's Figure 3 setting: BERT-Base, D=4 (3 blocks/stage),
    /// N_micro=4, B_micro=32, P100.
    pub fn fig3(scheme: PipelineScheme, w: usize) -> Setting {
        Setting {
            arch: TransformerConfig::bert_base(),
            hw: HardwareProfile::p100(),
            scheme,
            d: 4,
            n_micro: 4,
            b_micro: 32,
            blocks_per_stage: 3,
            w,
            recompute: false,
        }
    }

    /// The paper's Figure 4 setting: BERT-Large, Chimera, D=8
    /// (3 blocks/stage), N_micro=8, B_micro=32, P100.
    pub fn fig4() -> Setting {
        Setting {
            arch: TransformerConfig::bert_large(),
            hw: HardwareProfile::p100(),
            scheme: PipelineScheme::Chimera,
            d: 8,
            n_micro: 8,
            b_micro: 32,
            blocks_per_stage: 3,
            w: 1,
            recompute: false,
        }
    }

    /// The paper's Figure 6 wall-clock setting: BERT-Base, Chimera, D=4,
    /// N_micro=4, B_micro=32, W=64 (256 GPUs), P100.
    pub fn fig6() -> Setting {
        Setting {
            w: 64,
            ..Setting::fig3(PipelineScheme::Chimera, 1)
        }
    }
}

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

    #[test]
    fn fig3_setting_is_assignable() {
        let s = Setting::fig3(PipelineScheme::GPipe, 1);
        let sched = s.schedule().unwrap();
        assert!(sched.utilization > sched.utilization_baseline);
    }

    #[test]
    fn fig4_setting_is_assignable() {
        let s = Setting::fig4();
        let sched = s.schedule().unwrap();
        assert!(
            sched.steady_utilization > 0.9,
            "util {}",
            sched.steady_utilization
        );
    }
}
