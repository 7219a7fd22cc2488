//! Figures 8 & 9: performance-model grids for BERT-Base and BERT-Large.
//!
//! For each architecture, both scheme families — GPipe/1F1B (identical
//! critical path with flush) and Chimera — across `(B_micro, D)` with
//! `N_micro = D`, with and without activation recomputation `R`: modeled
//! time per step, memory, throughput, and the (curvature+inversion)/bubble
//! ratio, all on a P100.

use pipefisher_perfmodel::{HardwareProfile, Setting, TransformerConfig};
use pipefisher_pipeline::PipelineScheme;

fn main() {
    let hw = HardwareProfile::p100();
    for arch in [
        TransformerConfig::bert_base(),
        TransformerConfig::bert_large(),
    ] {
        let fig = if arch.name == "BERT-Base" { 8 } else { 9 };
        println!(
            "=== Figure {fig}: performance model, {} (one block/stage, N_micro=D, P100) ===",
            arch.name
        );
        for scheme in [PipelineScheme::GPipe, PipelineScheme::Chimera] {
            let family = if scheme == PipelineScheme::GPipe {
                "GPipe/1F1B (w/ flush)"
            } else {
                "Chimera w/ 2 pipelines"
            };
            println!("\n--- {family} ---");
            println!(
                "{:>7} {:>3} {:>2} | {:>11} {:>10} {:>10} | {:>9} {:>6}",
                "B_micro", "D", "R", "step (ms)", "mem (GB)", "bubble(ms)", "thru", "ratio"
            );
            for b_micro in [1usize, 4, 16, 32] {
                for d in [4usize, 8, 16, 32] {
                    for recompute in [false, true] {
                        let s = Setting {
                            arch: arch.clone(),
                            hw: hw.clone(),
                            scheme,
                            d,
                            n_micro: d,
                            b_micro,
                            blocks_per_stage: 1,
                            w: 1,
                            recompute,
                        };
                        let m = s.step_model();
                        println!(
                            "{:>7} {:>3} {:>2} | {:>11.1} {:>10.2} {:>10.1} | {:>9.1} {:>6.2}",
                            b_micro,
                            d,
                            if recompute { "R" } else { "-" },
                            m.t_step_pipefisher * 1e3,
                            (m.m_pipe + m.m_kfac_extra) / 1e9,
                            m.t_bubble * 1e3,
                            m.throughput,
                            m.ratio,
                        );
                    }
                }
            }
        }
        println!();
    }
    println!("paper shapes: Chimera throughput > GPipe/1F1B; Chimera ratio > GPipe/1F1B");
    println!(
        "(fewer bubbles -> less room for K-FAC work); R lowers memory + ratio, costs throughput."
    );
}
