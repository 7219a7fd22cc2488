//! Figures 10–15: Chimera throughput and refresh ratio across hardware.
//!
//! For each Table-3 architecture (BERT-Base/Large, T5-Base/Large,
//! OPT-125M/350M), `D ∈ {4, 8, 16, 32}` blocks (one per stage,
//! `N_micro ∈ {D, 2D, 4D}`), and each GPU (P100, V100, RTX3090): modeled
//! throughput (sequences/s) and the (curvature+inversion)-bubble ratio.
//!
//! Paper observations to reproduce: the ratio falls with `B_micro`, falls
//! with `D`, rises with `N_micro`, and is smaller for longer sequence
//! lengths; in most settings it lands in the 2–10 range.

use pipefisher_perfmodel::{HardwareProfile, Setting, TransformerConfig};
use pipefisher_pipeline::PipelineScheme;

fn main() {
    for (idx, arch) in TransformerConfig::all().into_iter().enumerate() {
        println!(
            "=== Figure {}: {} (S={}), Chimera, one block/stage ===",
            10 + idx,
            arch.name,
            arch.seq_len
        );
        println!(
            "{:>8} {:>7} {:>3} {:>7} | {:>10} {:>6} | {:>10} {:>6} | {:>10} {:>6}",
            "hw:",
            "B_micro",
            "D",
            "N_micro",
            "P100 thru",
            "ratio",
            "V100 thru",
            "ratio",
            "3090 thru",
            "ratio"
        );
        for b_micro in [1usize, 4, 16] {
            for d in [4usize, 8, 16, 32] {
                for n_mult in [1usize, 2, 4] {
                    let n_micro = d * n_mult;
                    let mut row = format!("{:>8} {:>7} {:>3} {:>7} |", "", b_micro, d, n_micro);
                    for hw in HardwareProfile::all() {
                        let s = Setting {
                            arch: arch.clone(),
                            hw,
                            scheme: PipelineScheme::Chimera,
                            d,
                            n_micro,
                            b_micro,
                            blocks_per_stage: 1,
                            w: 1,
                            recompute: false,
                        };
                        let m = s.step_model();
                        row.push_str(&format!(" {:>10.1} {:>6.2} |", m.throughput, m.ratio));
                    }
                    println!("{row}");
                }
            }
        }
        println!();
    }
    println!("paper shapes: ratio falls with B_micro, D, S; rises with N_micro; mostly 2-10");
    println!("except tiny B_micro with N_micro = 4D.");
}
