//! Figure 5: performance model for Chimera with BERT-Base blocks.
//!
//! One BERT-Base block per pipeline stage, `N_micro = D`, NVIDIA P100.
//! For every `(B_micro, D)` combination the paper plots:
//!
//! * (a) top: time per step breakdown — `T_pipe + T_prec` (with/without
//!   activation recomputation `R`), `T_bubble`, and
//!   `T_kfac⁺ − T_prec = N_micro·T_curv + T_inv`;
//! * (a) bottom: memory breakdown — `N·M_act + M_err^peak + M_θ + M_kfac⁺`;
//! * (b) top: throughput (sequences/s) of the vanilla pipeline vs
//!   PipeFisher (nearly identical — precondition is small);
//! * (b) bottom: the (curvature+inversion)-bubble ratio.

use pipefisher_perfmodel::{HardwareProfile, Setting, TransformerConfig};
use pipefisher_pipeline::PipelineScheme;

fn main() {
    let arch = TransformerConfig::bert_base();
    let hw = HardwareProfile::p100();
    println!("=== Figure 5: Chimera perf model, one BERT-Base block/stage, N_micro=D, P100 ===\n");
    println!(
        "{:>7} {:>3} | {:>10} {:>10} {:>10} {:>12} | {:>9} {:>9} | {:>10} {:>10} | {:>6}",
        "B_micro",
        "D",
        "Tpipe+Tprec",
        "Tbubble",
        "+R bubble",
        "Ncurv+Tinv",
        "thru base",
        "thru PF",
        "mem (GB)",
        "mem+R(GB)",
        "ratio"
    );
    for b_micro in [1usize, 2, 4, 8, 16, 32] {
        for d in [4usize, 8, 16, 32] {
            let mk = |recompute: bool| {
                let s = Setting {
                    arch: arch.clone(),
                    hw: hw.clone(),
                    scheme: PipelineScheme::Chimera,
                    d,
                    n_micro: d,
                    b_micro,
                    blocks_per_stage: 1,
                    w: 1,
                    recompute,
                };
                s.step_model()
            };
            let m = mk(false);
            let mr = mk(true);
            println!(
                "{:>7} {:>3} | {:>10.1} {:>10.1} {:>10.1} {:>12.1} | {:>9.1} {:>9.1} | {:>10.2} {:>10.2} | {:>6.2}",
                b_micro,
                d,
                (m.t_pipe + m.t_prec) * 1e3,
                m.t_bubble * 1e3,
                mr.t_bubble * 1e3,
                (m.t_curv_total + m.t_inv_total) * 1e3,
                m.throughput_baseline,
                m.throughput,
                (m.m_pipe + m.m_kfac_extra) / 1e9,
                (mr.m_pipe + mr.m_kfac_extra) / 1e9,
                m.ratio,
            );
        }
    }
    println!("\n(all times ms; ratio = (N_micro*T_curv + T_inv + T_sync_curv)/T_bubble,");
    println!(" i.e. pipeline steps per curvature refresh — the paper's Fig. 5(b) bottom row)");
    println!("paper shapes: throughput base ≈ PF; ratio falls with B_micro and D; memory grows with N*B.");
}
