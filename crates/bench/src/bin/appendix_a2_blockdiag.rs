//! Appendix A.2: PipeFisher for larger Transformers via block-diagonal
//! Kronecker factors.
//!
//! Scaling `d_model`/`d_ff` by `K` makes the full factors (`d_ff²` entries,
//! `d_ff³` inversion) impossible to fit in memory or bubbles. The paper's
//! strategy: approximate each factor by a `K`-block-diagonal matrix, so the
//! inversion splits into `K` pieces of the original size. This binary
//! quantifies the effect with the cost model: the refresh ratio of the
//! scaled model with `K`-block-diagonal factors stays in the same band as
//! the unscaled model, while full factors blow up both memory and ratio.

use pipefisher_perfmodel::{flops, model_step, HardwareProfile, Setting, TransformerConfig};
use pipefisher_pipeline::PipelineScheme;

fn scaled(base: &TransformerConfig, k: usize) -> TransformerConfig {
    TransformerConfig {
        name: format!("{}×{k}", base.name),
        d_model: base.d_model * k,
        d_ff: base.d_ff * k,
        n_heads: base.n_heads * k,
        ..base.clone()
    }
}

fn main() {
    let base = TransformerConfig::bert_base();
    let hw = HardwareProfile::p100();
    println!("=== Appendix A.2: block-diagonal factors for scaled Transformers ===");
    println!("(BERT-Base dims × K, Chimera D=8, one block/stage, B_micro=8, P100)\n");
    println!(
        "{:>4} {:>10} | {:>14} {:>14} | {:>12} {:>12} | {:>9} {:>9}",
        "K",
        "d_ff",
        "inv GFLOP full",
        "inv GFLOP bd",
        "curv GF full",
        "curv GF bd",
        "ratio full",
        "ratio bd"
    );
    for k in [1usize, 2, 4, 8] {
        let arch = scaled(&base, k);
        let setting = Setting {
            arch: arch.clone(),
            hw: hw.clone(),
            scheme: PipelineScheme::Chimera,
            d: 8,
            n_micro: 8,
            b_micro: 8,
            blocks_per_stage: 1,
            w: 1,
            recompute: false,
        };
        let mk = |blockdiag: bool| {
            let mut costs = setting.costs();
            if blockdiag {
                costs.t_curv_a = hw.gemm_time(flops::curvature_flops_per_token_blockdiag(&arch, k))
                    * (8 * arch.seq_len) as f64
                    / 2.0;
                costs.t_curv_b = costs.t_curv_a;
                let inv = hw.factorization_time(flops::inversion_flops_blockdiag(&arch, k));
                costs.t_inv_a = inv / 2.0;
                costs.t_inv_b = inv / 2.0;
                // Only the diagonal blocks, 1/K of the factors' bytes, are
                // allreduced; dividing the whole time divides the ring's
                // 10 µs latency term too.
                costs.t_sync_curv /= k as f64;
            }
            model_step(&setting, &costs)
        };
        let full = mk(false);
        let bd = mk(true);
        println!(
            "{:>4} {:>10} | {:>14.1} {:>14.1} | {:>12.1} {:>12.1} | {:>9.2} {:>9.2}",
            k,
            arch.d_ff,
            flops::inversion_flops(&arch) / 1e9,
            flops::inversion_flops_blockdiag(&arch, k) / 1e9,
            flops::curvature_flops_per_token(&arch) * (8 * arch.seq_len) as f64 / 1e9,
            flops::curvature_flops_per_token_blockdiag(&arch, k) * (8 * arch.seq_len) as f64 / 1e9,
            full.ratio,
            bd.ratio,
        );
    }
    println!("\npaper claim: with K-block-diagonal factors the (curvature+inversion)/bubble");
    println!("ratio stays near the unscaled value, so 'a similar work assignment can be used';");
    println!("with full factors the inversion work grows cubically and stops fitting.");
}
