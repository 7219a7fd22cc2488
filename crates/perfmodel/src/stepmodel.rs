//! The closed-form pipeline-step model of paper §3.3.

use crate::Setting;
use pipefisher_pipeline::PipelineScheme;
use pipefisher_sim::{ring_allreduce_time, KindCost};

/// Memory terms for one pipeline stage (bytes), matching Table 1's symbols.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// The closed-form step model outputs (paper §3.3 quantities).
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// Evaluates the §3.3 closed-form model of `setting` with per-stage work
/// durations `costs` — normally `setting.costs()`; the Appendix A.2
/// block-diagonal study swaps in its own curvature and inversion terms.
/// The sync terms are priced here from `setting`, not read from `costs`.
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
pub fn model_step(setting: &Setting, costs: &KindCost) -> StepModel {
    let Setting {
        scheme,
        d,
        n_micro,
        b_micro,
        w,
        ref hw,
        ..
    } = *setting;
    assert!(d > 0 && n_micro > 0 && w > 0, "model_step: zero input");
    let memory = setting.memory();
    let c = costs;
    let n = n_micro as f64;
    let t_b_eff = c.t_b + c.t_recompute;
    // Critical-path forward/backward counts, generalized beyond N = D:
    // extra micro-batches extend the steady phase by (N − D)·(T_f + T_b)
    // without changing the startup/tear-down bubble.
    let extra = n_micro.saturating_sub(d) as f64;
    let (cf, cb) = match scheme {
        PipelineScheme::GPipe | PipelineScheme::OneFOneB => {
            let c = (n_micro + d - 1) as f64;
            (c, c)
        }
        PipelineScheme::Chimera => (d as f64 + extra, (2 * d - 2) as f64 + extra),
    };
    let t_pipe = cf * c.t_f + cb * t_b_eff;
    let t_bubble = (t_pipe - n * (c.t_f + t_b_eff)).max(0.0);

    let stages_per_device = if scheme == PipelineScheme::Chimera {
        2
    } else {
        1
    };
    let t_curv_total = n * c.t_curv();
    let t_inv_total = stages_per_device as f64 * c.t_inv() / w as f64;

    let grad_bytes = memory.m_theta * stages_per_device as f64;
    let t_sync_grad = ring_allreduce_time(grad_bytes, w, hw.link_bandwidth, hw.link_latency);
    let curv_bytes = 2.0 * memory.m_curv * stages_per_device as f64;
    let t_sync_curv = ring_allreduce_time(curv_bytes, w, hw.link_bandwidth, hw.link_latency);

    let t_step_baseline = t_pipe + t_sync_grad;
    let t_step_pipefisher = t_pipe + c.t_prec * stages_per_device as f64 + t_sync_grad;
    let ratio = if t_bubble > 0.0 {
        (t_curv_total + t_inv_total + t_sync_curv) / t_bubble
    } else {
        f64::INFINITY
    };

    let seqs = (n_micro * b_micro * w) as f64;
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
        m_pipe: memory.pipe_total(n_micro, stages_per_device),
        m_kfac_extra: memory.kfac_extra(n_micro),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HardwareProfile, TransformerConfig};

    /// One `arch` block per stage on a P100, `N_micro = D`, `W = 1`: the
    /// Figure 5/8–15 grid.
    fn grid(arch: TransformerConfig, scheme: PipelineScheme, d: usize, b_micro: usize) -> Setting {
        Setting {
            arch,
            hw: HardwareProfile::p100(),
            scheme,
            d,
            n_micro: d,
            b_micro,
            blocks_per_stage: 1,
            w: 1,
            recompute: false,
        }
    }

    fn step(s: &Setting) -> StepModel {
        model_step(s, &s.costs())
    }

    fn bert_base(scheme: PipelineScheme, d: usize, b_micro: usize) -> StepModel {
        step(&grid(TransformerConfig::bert_base(), scheme, d, b_micro))
    }

    #[test]
    fn chimera_has_smaller_bubble_than_gpipe() {
        let g = bert_base(PipelineScheme::GPipe, 4, 32);
        let c = bert_base(PipelineScheme::Chimera, 4, 32);
        assert!(c.t_bubble < g.t_bubble);
        assert!(c.throughput_baseline > g.throughput_baseline);
        // …but less bubble means curvature refresh takes more steps:
        assert!(c.ratio > g.ratio);
    }

    #[test]
    fn ratio_falls_with_micro_batch_size() {
        // Paper: "As B_micro increases, the ratio becomes smaller because
        // the cost of the inversion work is relatively small."
        let small = bert_base(PipelineScheme::Chimera, 8, 2);
        let large = bert_base(PipelineScheme::Chimera, 8, 32);
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
        let shallow = bert_base(PipelineScheme::Chimera, 4, 8);
        let deep = bert_base(PipelineScheme::Chimera, 32, 8);
        assert!(deep.ratio < shallow.ratio);
    }

    #[test]
    fn ratio_rises_with_more_micro_batches() {
        // Paper: "as N_micro increases, the ratio increases because the
        // bubbles become smaller (relatively)."
        let mk = |n_micro: usize| {
            step(&Setting {
                n_micro,
                ..grid(
                    TransformerConfig::bert_base(),
                    PipelineScheme::Chimera,
                    8,
                    8,
                )
            })
        };
        assert!(mk(32).ratio > mk(8).ratio);
    }

    #[test]
    fn longer_sequences_shrink_ratio() {
        // Paper: Transformers with longer S have larger bubbles and smaller
        // ratios (inversion is token-independent).
        let mk = |arch| step(&grid(arch, PipelineScheme::Chimera, 8, 8));
        let bert = mk(TransformerConfig::bert_base()); // S=128
        let t5 = mk(TransformerConfig::t5_base()); // S=512
        assert!(t5.ratio < bert.ratio);
    }

    #[test]
    fn recompute_increases_bubble_and_lowers_throughput() {
        let mk = |recompute: bool| {
            step(&Setting {
                recompute,
                ..grid(
                    TransformerConfig::bert_base(),
                    PipelineScheme::Chimera,
                    8,
                    16,
                )
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
        let m = step(&Setting::fig4());
        let overhead = m.t_step_pipefisher / m.t_step_baseline - 1.0;
        assert!((0.01..0.15).contains(&overhead), "overhead {overhead}");
    }

    #[test]
    fn inversion_parallelism_divides_inversion_work() {
        let mut s = grid(TransformerConfig::bert_base(), PipelineScheme::GPipe, 4, 32);
        let w1 = step(&s);
        s.w = 2;
        let w2 = step(&s);
        assert!((w2.t_inv_total - w1.t_inv_total / 2.0).abs() < 1e-12);
        assert!(w2.t_sync_curv > 0.0);
        assert!(w2.t_sync_grad > 0.0);
        assert_eq!(w1.t_sync_grad, 0.0);
    }

    #[test]
    fn sync_terms_come_from_the_setting_not_the_costs() {
        let s = Setting::fig3(PipelineScheme::Chimera, 2);
        let free = KindCost {
            t_sync_grad: 0.0,
            t_sync_curv: 0.0,
            ..s.costs()
        };
        assert_eq!(model_step(&s, &free), step(&s));
    }

    #[test]
    fn bert_base_refresh_in_couple_of_steps() {
        // Paper Fig. 3 setting: BERT-Base, D=4, 3 blocks/stage, B_micro=32,
        // N_micro=4, GPipe/1F1B on P100s → refresh within ~2 steps.
        let m = step(&Setting::fig3(PipelineScheme::GPipe, 1));
        assert!((1.0..3.0).contains(&m.ratio), "ratio {}", m.ratio);
    }

    #[test]
    fn memory_fits_p100_at_paper_settings() {
        // BERT-Large, 3 blocks/stage, B_micro=32 (the paper's max power of 2
        // on a 16 GB P100), Chimera → total memory under 16 GB.
        let s = Setting::fig4();
        let m = step(&s);
        assert!(
            m.m_pipe + m.m_kfac_extra < s.hw.mem_capacity,
            "memory {:.1} GB",
            (m.m_pipe + m.m_kfac_extra) / 1e9
        );
    }
}
