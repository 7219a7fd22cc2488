//! The closed-form pipeline-step model of paper §3.3.

use crate::{flops, HardwareProfile, TransformerConfig};
use pipefisher_pipeline::PipelineScheme;
use pipefisher_sim::{ring_allreduce_time, KindCost};
use serde::{Deserialize, Serialize};

/// Memory terms for one pipeline stage (bytes), matching Table 1's symbols.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageMemory {
    /// `M_θ`: parameter bytes of the stage (weights only; gradients double
    /// it in the worst-case formula).
    pub m_theta: f64,
    /// `M_act`: stored activations for one micro-batch.
    pub m_act: f64,
    /// `M_err^peak`: transient error-signal peak during one backward.
    pub m_err_peak: f64,
    /// `M_err^save`: per-micro-batch error signals kept for `B_l` factors.
    pub m_err_save: f64,
    /// `M_curv`: Kronecker factors (`M_inv = M_curv`).
    pub m_curv: f64,
}

impl StageMemory {
    /// `M_kfac⁺ = M_curv + M_inv + N_micro·M_err^save` (paper §3.3).
    pub fn kfac_extra(&self, n_micro: usize) -> f64 {
        2.0 * self.m_curv + n_micro as f64 * self.m_err_save
    }

    /// `M_pipe = stages_per_device·2·M_θ + N_micro·M_act + M_err^peak`.
    pub fn pipe_total(&self, n_micro: usize, stages_per_device: usize) -> f64 {
        stages_per_device as f64 * 2.0 * self.m_theta
            + n_micro as f64 * self.m_act
            + self.m_err_peak
    }
}

/// Computes per-stage work durations from the analytic FLOP model.
///
/// `blocks_per_stage` transformer blocks per stage, micro-batches of
/// `b_micro` sequences. When `recompute` is set, each backward is preceded
/// by a recomputation forward (the `R` bars in Figures 5/8/9), which we fold
/// into `t_recompute`.
pub fn stage_costs(
    arch: &TransformerConfig,
    hw: &HardwareProfile,
    blocks_per_stage: usize,
    b_micro: usize,
    recompute: bool,
) -> KindCost {
    let tokens = (b_micro * arch.seq_len) as f64;
    let blocks = blocks_per_stage as f64;
    let fwd = hw.gemm_time(flops::forward_flops_per_token(arch) * tokens * blocks);
    let bwd = hw.gemm_time(flops::backward_flops_per_token(arch) * tokens * blocks);
    // Curvature splits evenly between the A factors (after forward) and the
    // B factors (after backward) at the FLOP level.
    let curv = hw.gemm_time(flops::curvature_flops_per_token(arch) * tokens * blocks);
    let inv = hw.factorization_time(flops::inversion_flops(arch) * blocks);
    let prec = hw.gemm_time(flops::precondition_flops(arch) * blocks);
    KindCost {
        t_f: fwd,
        t_b: bwd,
        t_recompute: if recompute { fwd } else { 0.0 },
        t_curv_a: curv / 2.0,
        t_curv_b: curv / 2.0,
        t_inv_a: inv / 2.0,
        t_inv_b: inv / 2.0,
        t_prec: prec,
        t_sync_grad: 0.0, // filled in by model_step when W > 1
        t_sync_curv: 0.0,
    }
}

/// Computes per-stage work durations for **Shampoo** extra work (paper §5):
/// statistics after each backward (gradient-based, so token-independent),
/// eigendecomposition roots as the inversion-class work, and the same
/// precondition GEMMs as K-FAC.
///
/// Returned in the same [`KindCost`] shape so the PipeFisher assignment can
/// schedule Shampoo unchanged: `t_curv_b` carries the statistics work (it
/// becomes available after a backward, like K-FAC's `B_l`), `t_curv_a = 0`.
pub fn shampoo_stage_costs(
    arch: &TransformerConfig,
    hw: &HardwareProfile,
    blocks_per_stage: usize,
    b_micro: usize,
    recompute: bool,
) -> KindCost {
    let mut c = stage_costs(arch, hw, blocks_per_stage, b_micro, recompute);
    let blocks = blocks_per_stage as f64;
    // Statistics are per update; amortize over the micro-batches whose
    // backwards trigger them (one accumulation per micro-batch gradient).
    c.t_curv_a = 0.0;
    c.t_curv_b = hw.gemm_time(flops::shampoo_stats_flops(arch) * blocks);
    let root = hw.factorization_time(flops::shampoo_root_flops(arch) * blocks);
    c.t_inv_a = root / 2.0;
    c.t_inv_b = root / 2.0;
    c
}

/// Computes the stage memory terms.
pub fn stage_memory(
    arch: &TransformerConfig,
    blocks_per_stage: usize,
    b_micro: usize,
    recompute: bool,
) -> StageMemory {
    let tokens = (b_micro * arch.seq_len) as f64;
    let blocks = blocks_per_stage as f64;
    let act_per_token = if recompute {
        flops::activation_bytes_per_token_recompute(arch)
    } else {
        flops::activation_bytes_per_token(arch)
    };
    StageMemory {
        m_theta: flops::param_bytes(arch) * blocks,
        m_act: act_per_token * tokens * blocks,
        // Peak transient errors ≈ one micro-batch of full activations being
        // re-materialized during backward.
        m_err_peak: flops::activation_bytes_per_token(arch) * tokens,
        m_err_save: flops::error_save_bytes_per_token(arch) * tokens * blocks,
        m_curv: flops::curvature_bytes(arch) * blocks,
    }
}

/// Per-stage durations of a paper setting: [`stage_costs`] plus the
/// collectives of `w` data-parallel replicas per stage (twice that for
/// Chimera, whose paired pipelines hold every stage twice) — a ring
/// allreduce of the gradients (`M_θ`) for sync-grad and of both Kronecker
/// factors (`2·M_curv`) for sync-curv. [`model_step`] prices its own sync
/// terms from per-device bytes over `w` replicas instead.
pub fn setting_costs(
    arch: &TransformerConfig,
    hw: &HardwareProfile,
    scheme: PipelineScheme,
    blocks_per_stage: usize,
    b_micro: usize,
    w: usize,
    recompute: bool,
) -> KindCost {
    let mut costs = stage_costs(arch, hw, blocks_per_stage, b_micro, recompute);
    let mem = stage_memory(arch, blocks_per_stage, b_micro, recompute);
    let replicas = w * if scheme == PipelineScheme::Chimera {
        2
    } else {
        1
    };
    costs.t_sync_grad =
        ring_allreduce_time(mem.m_theta, replicas, hw.link_bandwidth, hw.link_latency);
    costs.t_sync_curv = ring_allreduce_time(
        2.0 * mem.m_curv,
        replicas,
        hw.link_bandwidth,
        hw.link_latency,
    );
    costs
}

/// Inputs to [`model_step`].
#[derive(Debug, Clone, PartialEq)]
pub struct StepModelInput {
    /// Pipeline scheme.
    pub scheme: PipelineScheme,
    /// Number of pipeline stages `D`.
    pub d: usize,
    /// Micro-batches per device per step `N_micro`.
    pub n_micro: usize,
    /// Micro-batch size `B_micro` (sequences).
    pub b_micro: usize,
    /// Data-parallel replicas per stage `W`.
    pub w: usize,
    /// Per-stage work durations.
    pub costs: KindCost,
    /// Per-stage memory terms.
    pub memory: StageMemory,
    /// Hardware (for collective costs).
    pub hw: HardwareProfile,
}

/// The closed-form step model outputs (paper §3.3 quantities).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepModel {
    /// `T_pipe = C_f·T_f + C_b·T_b` — baseline step time.
    pub t_pipe: f64,
    /// `T_bubble = T_pipe − N_micro·(T_f + T_b)` — idle per device per step.
    pub t_bubble: f64,
    /// `N_micro·T_curv` — curvature work per device per refresh.
    pub t_curv_total: f64,
    /// Inversion work per device per refresh (after splitting across `W`).
    pub t_inv_total: f64,
    /// `T_prec` — the only per-step overhead of PipeFisher.
    pub t_prec: f64,
    /// Gradient-allreduce time per step (zero when `W = 1`).
    pub t_sync_grad: f64,
    /// Curvature-allreduce time per refresh (zero when `W = 1`).
    pub t_sync_curv: f64,
    /// PipeFisher step time: `T_pipe + T_prec + T_sync_grad`.
    pub t_step_pipefisher: f64,
    /// Baseline step time: `T_pipe + T_sync_grad`.
    pub t_step_baseline: f64,
    /// `(N_micro·T_curv + T_inv + T_sync_curv) / T_bubble` — the
    /// (curvature+inversion)-bubble ratio of Figures 5/8–15; ≈ how many
    /// pipeline steps one refresh takes.
    pub ratio: f64,
    /// Throughput in sequences/s (whole cluster) for the PipeFisher step.
    pub throughput: f64,
    /// Throughput in sequences/s for the baseline step.
    pub throughput_baseline: f64,
    /// Worst-case device memory (bytes) without K-FAC.
    pub m_pipe: f64,
    /// Additional K-FAC memory (bytes).
    pub m_kfac_extra: f64,
}

/// Evaluates the §3.3 closed-form model.
///
/// Conventions (documented deviations are listed in DESIGN.md):
///
/// * Chimera devices host **two** stages, so their inversion work and
///   parameter memory double relative to GPipe/1F1B; curvature work is
///   unchanged (same `N_micro` total micro-batch passes per device).
/// * With activation recomputation, effective backward time becomes
///   `T_b + T_recompute`, which both lengthens `T_pipe` and enlarges
///   `T_bubble` (the paper's "R increases bubble" observation).
/// * With `W > 1` (data + inversion parallelism, §3.2), inversion work per
///   device is divided by `W`, a `sync-curvature` allreduce of the factors
///   is added per refresh, and a `sync-grad` allreduce per step.
///
/// # Panics
///
/// Panics if `d`, `n_micro`, or `w` is zero.
pub fn model_step(input: &StepModelInput) -> StepModel {
    assert!(
        input.d > 0 && input.n_micro > 0 && input.w > 0,
        "model_step: zero input"
    );
    let c = &input.costs;
    let n = input.n_micro as f64;
    let t_b_eff = c.t_b + c.t_recompute;
    // Critical-path forward/backward counts, generalized beyond N = D:
    // extra micro-batches extend the steady phase by (N − D)·(T_f + T_b)
    // without changing the startup/tear-down bubble.
    let extra = input.n_micro.saturating_sub(input.d) as f64;
    let (cf, cb) = match input.scheme {
        PipelineScheme::GPipe | PipelineScheme::OneFOneB => {
            let c = (input.n_micro + input.d - 1) as f64;
            (c, c)
        }
        PipelineScheme::Chimera => (input.d as f64 + extra, (2 * input.d - 2) as f64 + extra),
    };
    let t_pipe = cf * c.t_f + cb * t_b_eff;
    let t_bubble = (t_pipe - n * (c.t_f + t_b_eff)).max(0.0);

    let stages_per_device = if input.scheme == PipelineScheme::Chimera {
        2
    } else {
        1
    };
    let t_curv_total = n * c.t_curv();
    let t_inv_total = stages_per_device as f64 * c.t_inv() / input.w as f64;

    let grad_bytes = input.memory.m_theta * stages_per_device as f64;
    let t_sync_grad = ring_allreduce_time(
        grad_bytes,
        input.w,
        input.hw.link_bandwidth,
        input.hw.link_latency,
    );
    let curv_bytes = 2.0 * input.memory.m_curv * stages_per_device as f64;
    let t_sync_curv = ring_allreduce_time(
        curv_bytes,
        input.w,
        input.hw.link_bandwidth,
        input.hw.link_latency,
    );

    let t_step_baseline = t_pipe + t_sync_grad;
    let t_step_pipefisher = t_pipe + c.t_prec * stages_per_device as f64 + t_sync_grad;
    let ratio = if t_bubble > 0.0 {
        (t_curv_total + t_inv_total + t_sync_curv) / t_bubble
    } else {
        f64::INFINITY
    };

    let seqs = (input.n_micro * input.b_micro * input.w) as f64;
    StepModel {
        t_pipe,
        t_bubble,
        t_curv_total,
        t_inv_total,
        t_prec: c.t_prec * stages_per_device as f64,
        t_sync_grad,
        t_sync_curv,
        t_step_pipefisher,
        t_step_baseline,
        ratio,
        throughput: seqs / t_step_pipefisher,
        throughput_baseline: seqs / t_step_baseline,
        m_pipe: input.memory.pipe_total(input.n_micro, stages_per_device),
        m_kfac_extra: input.memory.kfac_extra(input.n_micro),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bert_base_input(scheme: PipelineScheme, d: usize, b_micro: usize) -> StepModelInput {
        let arch = TransformerConfig::bert_base();
        let hw = HardwareProfile::p100();
        StepModelInput {
            scheme,
            d,
            n_micro: d,
            b_micro,
            w: 1,
            costs: stage_costs(&arch, &hw, 1, b_micro, false),
            memory: stage_memory(&arch, 1, b_micro, false),
            hw,
        }
    }

    #[test]
    fn backward_is_twice_forward() {
        let c = stage_costs(
            &TransformerConfig::bert_base(),
            &HardwareProfile::p100(),
            3,
            32,
            false,
        );
        assert!((c.t_b / c.t_f - 2.0).abs() < 1e-9);
    }

    #[test]
    fn chimera_has_smaller_bubble_than_gpipe() {
        let g = model_step(&bert_base_input(PipelineScheme::GPipe, 4, 32));
        let c = model_step(&bert_base_input(PipelineScheme::Chimera, 4, 32));
        assert!(c.t_bubble < g.t_bubble);
        assert!(c.throughput_baseline > g.throughput_baseline);
        // …but less bubble means curvature refresh takes more steps:
        assert!(c.ratio > g.ratio);
    }

    #[test]
    fn ratio_falls_with_micro_batch_size() {
        // Paper: "As B_micro increases, the ratio becomes smaller because
        // the cost of the inversion work is relatively small."
        let small = model_step(&bert_base_input(PipelineScheme::Chimera, 8, 2));
        let large = model_step(&bert_base_input(PipelineScheme::Chimera, 8, 32));
        assert!(
            large.ratio < small.ratio,
            "{} vs {}",
            large.ratio,
            small.ratio
        );
    }

    #[test]
    fn ratio_falls_with_depth() {
        // Paper: "as pipeline depth D increases, the ratio goes down
        // because the bubble increases."
        let shallow = model_step(&bert_base_input(PipelineScheme::Chimera, 4, 8));
        let deep = model_step(&bert_base_input(PipelineScheme::Chimera, 32, 8));
        assert!(deep.ratio < shallow.ratio);
    }

    #[test]
    fn ratio_rises_with_more_micro_batches() {
        // Paper: "as N_micro increases, the ratio increases because the
        // bubbles become smaller (relatively)."
        let arch = TransformerConfig::bert_base();
        let hw = HardwareProfile::p100();
        let mk = |n_micro: usize| {
            model_step(&StepModelInput {
                scheme: PipelineScheme::Chimera,
                d: 8,
                n_micro,
                b_micro: 8,
                w: 1,
                costs: stage_costs(&arch, &hw, 1, 8, false),
                memory: stage_memory(&arch, 1, 8, false),
                hw: hw.clone(),
            })
        };
        assert!(mk(32).ratio > mk(8).ratio);
    }

    #[test]
    fn longer_sequences_shrink_ratio() {
        // Paper: Transformers with longer S have larger bubbles and smaller
        // ratios (inversion is token-independent).
        let hw = HardwareProfile::p100();
        let mk = |arch: &TransformerConfig| {
            model_step(&StepModelInput {
                scheme: PipelineScheme::Chimera,
                d: 8,
                n_micro: 8,
                b_micro: 8,
                w: 1,
                costs: stage_costs(arch, &hw, 1, 8, false),
                memory: stage_memory(arch, 1, 8, false),
                hw: hw.clone(),
            })
        };
        let bert = mk(&TransformerConfig::bert_base()); // S=128
        let t5 = mk(&TransformerConfig::t5_base()); // S=512
        assert!(t5.ratio < bert.ratio);
    }

    #[test]
    fn recompute_increases_bubble_and_lowers_throughput() {
        let arch = TransformerConfig::bert_base();
        let hw = HardwareProfile::p100();
        let mk = |recompute: bool| {
            model_step(&StepModelInput {
                scheme: PipelineScheme::Chimera,
                d: 8,
                n_micro: 8,
                b_micro: 16,
                w: 1,
                costs: stage_costs(&arch, &hw, 1, 16, recompute),
                memory: stage_memory(&arch, 1, 16, recompute),
                hw: hw.clone(),
            })
        };
        let plain = mk(false);
        let r = mk(true);
        assert!(r.t_bubble > plain.t_bubble);
        assert!(r.throughput < plain.throughput);
        assert!(r.m_pipe < plain.m_pipe);
        assert!(r.ratio < plain.ratio); // refresh faster with bigger bubbles
    }

    #[test]
    fn precondition_overhead_is_small() {
        // Paper Table 2: PipeFisher time/step is ~6.5% above baseline for
        // BERT-Large/Chimera/D=8/B=32.
        let arch = TransformerConfig::bert_large();
        let hw = HardwareProfile::p100();
        let m = model_step(&StepModelInput {
            scheme: PipelineScheme::Chimera,
            d: 8,
            n_micro: 8,
            b_micro: 32,
            w: 1,
            costs: stage_costs(&arch, &hw, 3, 32, false),
            memory: stage_memory(&arch, 3, 32, false),
            hw,
        });
        let overhead = m.t_step_pipefisher / m.t_step_baseline - 1.0;
        assert!((0.01..0.15).contains(&overhead), "overhead {overhead}");
    }

    #[test]
    fn setting_costs_sync_over_replicas_and_chimera_pairs() {
        let (arch, hw) = (TransformerConfig::bert_base(), HardwareProfile::p100());
        let costs = |scheme, w| setting_costs(&arch, &hw, scheme, 3, 32, w, false);
        let gpipe = costs(PipelineScheme::GPipe, 1);
        assert_eq!((gpipe.t_sync_grad, gpipe.t_sync_curv), (0.0, 0.0));
        // Chimera pairs every stage even at W = 1, where `model_step` has
        // no sync term.
        let chimera = costs(PipelineScheme::Chimera, 1);
        assert_eq!(
            chimera.t_sync_grad,
            costs(PipelineScheme::GPipe, 2).t_sync_grad
        );
        assert!(chimera.t_sync_curv > chimera.t_sync_grad);
        assert_eq!(chimera.t_f, gpipe.t_f);
    }

    #[test]
    fn inversion_parallelism_divides_inversion_work() {
        let mut input = bert_base_input(PipelineScheme::GPipe, 4, 32);
        let w1 = model_step(&input);
        input.w = 2;
        let w2 = model_step(&input);
        assert!((w2.t_inv_total - w1.t_inv_total / 2.0).abs() < 1e-12);
        assert!(w2.t_sync_curv > 0.0);
        assert!(w2.t_sync_grad > 0.0);
        assert_eq!(w1.t_sync_grad, 0.0);
    }

    #[test]
    fn bert_base_refresh_in_couple_of_steps() {
        // Paper Fig. 3 setting: BERT-Base, D=4, 3 blocks/stage, B_micro=32,
        // N_micro=4, GPipe/1F1B on P100s → refresh within ~2 steps.
        let arch = TransformerConfig::bert_base();
        let hw = HardwareProfile::p100();
        let m = model_step(&StepModelInput {
            scheme: PipelineScheme::GPipe,
            d: 4,
            n_micro: 4,
            b_micro: 32,
            w: 1,
            costs: stage_costs(&arch, &hw, 3, 32, false),
            memory: stage_memory(&arch, 3, 32, false),
            hw,
        });
        assert!((1.0..3.0).contains(&m.ratio), "ratio {}", m.ratio);
    }

    #[test]
    fn memory_fits_p100_at_paper_settings() {
        // BERT-Large, 3 blocks/stage, B_micro=32 (the paper's max power of 2
        // on a 16 GB P100), Chimera → total memory under 16 GB.
        let arch = TransformerConfig::bert_large();
        let hw = HardwareProfile::p100();
        let m = model_step(&StepModelInput {
            scheme: PipelineScheme::Chimera,
            d: 8,
            n_micro: 8,
            b_micro: 32,
            w: 1,
            costs: stage_costs(&arch, &hw, 3, 32, false),
            memory: stage_memory(&arch, 3, 32, false),
            hw: hw.clone(),
        });
        assert!(
            m.m_pipe + m.m_kfac_extra < hw.mem_capacity,
            "memory {:.1} GB",
            (m.m_pipe + m.m_kfac_extra) / 1e9
        );
    }
}
