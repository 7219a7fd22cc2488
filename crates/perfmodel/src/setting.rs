//! A paper setting: the one configuration both modelled results read.

use crate::stepmodel::step_model_on;
use crate::{flops, HardwareProfile, StepModel, TransformerConfig};
use pipefisher_pipeline::{with_recompute, PipelineScheme, TaskGraph};
use pipefisher_sim::{ring_allreduce_time, KindCost};

/// A fully specified paper setting: Table 3 architecture × GPU × pipeline
/// scheme × shape × data parallelism × recomputation. The §3.1–3.2 bubble
/// assignment runs on its [`graph`](Setting::graph) and
/// [`costs`](Setting::costs); the §3.3 step model is
/// [`step_model`](Setting::step_model).
#[derive(Debug, Clone)]
pub struct Setting {
    /// Transformer architecture (Table 3 presets).
    pub arch: TransformerConfig,
    /// GPU profile.
    pub hw: HardwareProfile,
    /// Pipeline scheme.
    pub scheme: PipelineScheme,
    /// Number of pipeline stages `D`.
    pub d: usize,
    /// Micro-batches per device per step `N_micro`.
    pub n_micro: usize,
    /// Micro-batch size `B_micro` (sequences).
    pub b_micro: usize,
    /// Transformer blocks per pipeline stage.
    pub blocks_per_stage: usize,
    /// Data-parallel replicas per stage `W`.
    pub w: usize,
    /// Activation recomputation: a recompute forward precedes every
    /// backward (the `R` bars in Figures 5/8/9).
    pub recompute: bool,
}

impl Setting {
    /// Per-stage work durations from the analytic FLOP model, plus a ring
    /// allreduce among a stage's copies — `w` replicas on each of its hosts
    /// in [`graph`](Setting::graph), whose panics it shares — of the
    /// gradients (`M_θ`) for sync-grad and of both Kronecker factors
    /// (`2·M_curv`) for sync-curv. With `recompute`, the recomputation
    /// forward is `t_recompute`.
    pub fn costs(&self) -> KindCost {
        self.costs_on(&self.graph())
    }

    /// [`costs`](Setting::costs) with `graph`, this setting's
    /// [`graph`](Setting::graph), already built.
    fn costs_on(&self, graph: &TaskGraph) -> KindCost {
        let (arch, hw) = (&self.arch, &self.hw);
        let tokens = (self.b_micro * arch.seq_len) as f64;
        let blocks = self.blocks_per_stage as f64;
        let fwd = hw.gemm_time(flops::forward_flops_per_token(arch) * tokens * blocks);
        let bwd = hw.gemm_time(flops::backward_flops_per_token(arch) * tokens * blocks);
        // Curvature splits evenly between the A factors (after forward) and
        // the B factors (after backward) at the FLOP level.
        let curv = hw.gemm_time(flops::curvature_flops_per_token(arch) * tokens * blocks);
        let inv = hw.factorization_time(flops::inversion_flops(arch) * blocks);
        let prec = hw.gemm_time(flops::precondition_flops(arch) * blocks);
        let hosts = graph.stage_hosts().iter().map(Vec::len).max();
        let copies = self.w * hosts.unwrap_or(1);
        let sync = |bytes| ring_allreduce_time(bytes, copies, hw.link_bandwidth, hw.link_latency);
        KindCost {
            t_f: fwd,
            t_b: bwd,
            t_recompute: if self.recompute { fwd } else { 0.0 },
            t_curv_a: curv / 2.0,
            t_curv_b: curv / 2.0,
            t_inv_a: inv / 2.0,
            t_inv_b: inv / 2.0,
            t_prec: prec,
            t_sync_grad: sync(flops::param_bytes(arch) * blocks),
            t_sync_curv: sync(2.0 * (flops::curvature_bytes(arch) * blocks)),
        }
    }

    /// The §3.3 step model with this setting's own costs:
    /// [`model_step`](crate::model_step)`(self, &self.costs())`, building
    /// the schedule once.
    ///
    /// # Panics
    ///
    /// Where [`model_step`](crate::model_step) does.
    pub fn step_model(&self) -> StepModel {
        let graph = self.graph();
        step_model_on(self, &graph, &self.costs_on(&graph))
    }

    /// [`costs`](Setting::costs) with **Shampoo** as the extra work (paper
    /// §5): statistics after each backward (gradient-based, so
    /// token-independent) in `t_curv_b` — available after a backward like
    /// K-FAC's `B_l` — with `t_curv_a = 0`, eigendecomposition roots as the
    /// inversion-class work, and the same precondition GEMMs and
    /// collectives as K-FAC, so the assignment schedules Shampoo unchanged.
    pub fn shampoo_costs(&self) -> KindCost {
        let (arch, hw) = (&self.arch, &self.hw);
        let blocks = self.blocks_per_stage as f64;
        let root = hw.factorization_time(flops::shampoo_root_flops(arch) * blocks);
        KindCost {
            t_curv_a: 0.0,
            t_curv_b: hw.gemm_time(flops::shampoo_stats_flops(arch) * blocks),
            t_inv_a: root / 2.0,
            t_inv_b: root / 2.0,
            ..self.costs()
        }
    }

    /// The pipeline schedule of this setting, with a recompute before
    /// every backward when `recompute` is set.
    ///
    /// # Panics
    ///
    /// Panics on shapes the scheme's builder rejects (see
    /// [`PipelineScheme::build`]).
    pub fn graph(&self) -> TaskGraph {
        let graph = self.scheme.build(self.d, self.n_micro);
        if self.recompute {
            with_recompute(&graph)
        } else {
            graph
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_is_twice_forward() {
        let c = Setting::fig3(PipelineScheme::GPipe, 1).costs();
        assert!((c.t_b / c.t_f - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sync_over_replicas_and_chimera_pairs() {
        let costs = |scheme, w| Setting::fig3(scheme, w).costs();
        let gpipe = costs(PipelineScheme::GPipe, 1);
        assert_eq!((gpipe.t_sync_grad, gpipe.t_sync_curv), (0.0, 0.0));
        // Chimera's two hosts of every stage sync even at W = 1.
        let chimera = costs(PipelineScheme::Chimera, 1);
        assert_eq!(
            chimera.t_sync_grad,
            costs(PipelineScheme::GPipe, 2).t_sync_grad
        );
        assert!(chimera.t_sync_curv > chimera.t_sync_grad);
        assert_eq!(chimera.t_f, gpipe.t_f);
    }

    #[test]
    fn shampoo_swaps_only_the_extra_work() {
        let s = Setting::fig3(PipelineScheme::GPipe, 2);
        let (kfac, shampoo) = (s.costs(), s.shampoo_costs());
        assert_eq!(shampoo.t_curv_a, 0.0);
        assert!(shampoo.t_inv() > kfac.t_inv());
        assert_eq!(
            (
                shampoo.t_f,
                shampoo.t_b,
                shampoo.t_prec,
                shampoo.t_sync_curv
            ),
            (kfac.t_f, kfac.t_b, kfac.t_prec, kfac.t_sync_curv)
        );
    }

    #[test]
    fn graph_inserts_recompute_only_when_set() {
        let plain = Setting::fig3(PipelineScheme::OneFOneB, 1);
        let r = Setting {
            recompute: true,
            ..plain.clone()
        };
        assert_eq!(plain.graph().tasks().len(), 32);
        assert_eq!(r.graph().tasks().len(), 48);
        assert!(r.costs().t_recompute > 0.0 && plain.costs().t_recompute == 0.0);
    }
}
