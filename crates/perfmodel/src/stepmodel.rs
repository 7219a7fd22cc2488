//! The closed-form pipeline-step model of paper §3.3.

use crate::{flops, Setting};
use pipefisher_pipeline::{PipelineScheme, TaskGraph};
use pipefisher_sim::{KfacShare, KindCost};

/// The closed-form step model outputs (paper §3.3 quantities).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepModel {
    /// `T_pipe = C_f·T_f + C_b·T_b` — baseline step time.
    pub t_pipe: f64,
    /// `T_bubble = T_pipe − N_micro·(T_f + T_b)` — idle per device per step.
    pub t_bubble: f64,
    /// `N_micro·T_curv` — curvature work per device per refresh.
    pub t_curv_total: f64,
    /// Inversion work per device per refresh, split among stages' copies.
    pub t_inv_total: f64,
    /// `T_prec` per hosted stage — the only per-step overhead of PipeFisher.
    pub t_prec: f64,
    /// Gradient-allreduce time per step (zero when no stage is replicated).
    pub t_sync_grad: f64,
    /// Curvature-allreduce time per refresh, for each hosted stage.
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
/// durations `costs` — normally `setting.costs()`, which
/// [`Setting::step_model`] passes on one built schedule; the Appendix A.2
/// block-diagonal study swaps in its own curvature, inversion and
/// sync-curvature terms.
///
/// Conventions (documented deviations are listed in DESIGN.md):
///
/// * Each device is charged the K-FAC work [`KfacShare`] gives it on
///   `setting.graph()`, the work the bubble assignment places there: a
///   Chimera device inverts half of each of its **two** stages, pays both
///   stages' precondition and sync-curvature, and pays sync-grad even at
///   `W = 1`. Curvature is `N_micro` micro-batch passes per device on
///   every scheme; a Chimera device holds two stages' parameters.
/// * With activation recomputation, effective backward time becomes
///   `T_b + T_recompute`, which both lengthens `T_pipe` and enlarges
///   `T_bubble` (the paper's "R increases bubble" observation).
/// * With `W > 1` (data + inversion parallelism, §3.2), inversion work per
///   device is divided by `W`, a `sync-curvature` allreduce of the factors
///   is added per refresh, and a `sync-grad` allreduce per step; both
///   durations are `costs`'.
/// * Where devices differ, each term is the largest over the devices.
///
/// # Panics
///
/// Panics if `d`, `n_micro`, or `w` is zero, or where `setting.graph()`
/// does.
pub fn model_step(setting: &Setting, costs: &KindCost) -> StepModel {
    step_model_on(setting, &setting.graph(), costs)
}

/// [`model_step`] with `graph`, `setting.graph()`, already built.
pub(crate) fn step_model_on(setting: &Setting, graph: &TaskGraph, costs: &KindCost) -> StepModel {
    let Setting {
        scheme,
        d,
        n_micro,
        b_micro,
        w,
        ..
    } = *setting;
    assert!(d > 0 && n_micro > 0 && w > 0, "model_step: zero input");
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

    let share = KfacShare::new(graph, w, c);
    let t_curv_total = n * c.t_curv();
    let (mut t_inv_total, mut t_sync_curv, mut hosted) = (0.0f64, 0.0f64, 0.0f64);
    for stages in &share.stages_of {
        let inv = stages.iter().map(|&s| c.t_inv() / share.copies[s] as f64);
        t_inv_total = t_inv_total.max(inv.sum());
        t_sync_curv = t_sync_curv.max(stages.iter().map(|&s| share.sync_curv[s]).sum());
        hosted = hosted.max(stages.len() as f64);
    }
    let t_prec = share.prec.iter().copied().fold(0.0, f64::max);
    let t_sync_grad = share.sync_grad;

    let t_step_baseline = t_pipe + t_sync_grad;
    let t_step_pipefisher = t_pipe + t_prec + t_sync_grad;
    let ratio = if t_bubble > 0.0 {
        (t_curv_total + t_inv_total + t_sync_curv) / t_bubble
    } else {
        f64::INFINITY
    };

    // Table 1's memory terms of one stage (bytes); the error peak is one
    // micro-batch of full activations re-materialized during backward.
    let arch = &setting.arch;
    let tokens = (b_micro * arch.seq_len) as f64;
    let blocks = setting.blocks_per_stage as f64;
    let act_per_token = if setting.recompute {
        flops::activation_bytes_per_token_recompute(arch)
    } else {
        flops::activation_bytes_per_token(arch)
    };
    let m_theta = flops::param_bytes(arch) * blocks;
    let m_act = act_per_token * tokens * blocks;
    let m_err_peak = flops::activation_bytes_per_token(arch) * tokens;
    let m_err_save = flops::error_save_bytes_per_token(arch) * tokens * blocks;
    let m_curv = flops::curvature_bytes(arch) * blocks;

    let seqs = (n_micro * b_micro * w) as f64;
    StepModel {
        t_pipe,
        t_bubble,
        t_curv_total,
        t_inv_total,
        t_prec,
        t_sync_grad,
        t_sync_curv,
        t_step_pipefisher,
        t_step_baseline,
        ratio,
        throughput: seqs / t_step_pipefisher,
        throughput_baseline: seqs / t_step_baseline,
        // `M_pipe = hosted·2·M_θ + N_micro·M_act + M_err^peak`.
        m_pipe: hosted * 2.0 * m_theta + n * m_act + m_err_peak,
        // `M_kfac⁺ = M_curv + M_inv + N_micro·M_err^save` (`M_inv = M_curv`).
        m_kfac_extra: 2.0 * m_curv + n * m_err_save,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HardwareProfile, TransformerConfig};
    use pipefisher_sim::simulate;

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
    fn sync_terms_come_from_the_costs() {
        let s = Setting::fig3(PipelineScheme::Chimera, 2);
        let costs = s.costs();
        let free = KindCost {
            t_sync_grad: 0.0,
            t_sync_curv: 0.0,
            ..costs
        };
        let unpriced = model_step(&s, &free);
        assert_eq!((unpriced.t_sync_grad, unpriced.t_sync_curv), (0.0, 0.0));
        let priced = step(&s);
        assert_eq!(priced.t_sync_grad, costs.t_sync_grad);
        // A Chimera device syncs the factors of both its stages.
        assert_eq!(priced.t_sync_curv, 2.0 * costs.t_sync_curv);
    }

    #[test]
    fn chimera_hosts_split_inversion_instead_of_doubling_it() {
        let gpipe = step(&Setting::fig3(PipelineScheme::GPipe, 1));
        let chimera = step(&Setting::fig3(PipelineScheme::Chimera, 1));
        assert_eq!(chimera.t_inv_total, gpipe.t_inv_total);
        assert_eq!(chimera.t_prec, 2.0 * gpipe.t_prec);
        assert!(chimera.t_sync_grad > 0.0 && gpipe.t_sync_grad == 0.0);
        assert!(chimera.m_pipe > gpipe.m_pipe);
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

    #[test]
    fn closed_form_is_the_simulated_step_only_where_it_holds() {
        // §3.3's `T_pipe` is the simulated makespan for every scheme at
        // N_micro = D without recompute, and for GPipe/1F1B at any N_micro.
        // Elsewhere it overstates the step (EXPERIMENTS "Known deviations").
        for scheme in PipelineScheme::all() {
            for (d, b_micro, n_per_d, recompute) in [4usize, 8]
                .into_iter()
                .flat_map(|d| [1usize, 32].map(|b| (d, b)))
                .flat_map(|(d, b)| [1usize, 2].map(|m| (d, b, m)))
                .flat_map(|(d, b, m)| [false, true].map(|r| (d, b, m, r)))
            {
                let s = Setting {
                    n_micro: d * n_per_d,
                    recompute,
                    ..grid(TransformerConfig::bert_base(), scheme, d, b_micro)
                };
                let costs = s.costs();
                let span = simulate(&s.graph(), &costs).unwrap().makespan();
                let gap = step(&s).t_pipe / span - 1.0;
                let holds = !recompute && (n_per_d == 1 || scheme != PipelineScheme::Chimera);
                if holds {
                    assert!(gap.abs() < 1e-9, "{s:?}: gap {gap}");
                } else {
                    assert!(gap > 1e-3, "{s:?}: gap {gap}");
                }
            }
        }
    }
}
